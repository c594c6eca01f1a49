"""Tests for the workload suite catalog and SMT profiles/mixes."""

import pytest

from repro.workloads.smt import (
    EVAL_APP_NAMES,
    TUNE_APP_NAMES,
    ThreadProfile,
    smt_eval_mixes,
    smt_tune_mixes,
    thread_profile,
)
from repro.workloads.suites import ALL_SUITES, eval_specs, spec_by_name, tune_specs


class TestSuiteCatalog:
    def test_five_suites(self):
        assert set(ALL_SUITES) == {
            "SPEC06", "SPEC17", "PARSEC", "Ligra", "CloudSuite"
        }

    def test_unique_names(self):
        names = [spec.name for spec in eval_specs()]
        assert len(names) == len(set(names))

    def test_lookup_by_name(self):
        spec = spec_by_name("mcf06")
        assert spec.suite == "SPEC06"
        assert spec.kind == "phased"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            spec_by_name("quake")

    def test_tune_set_is_spec_only(self):
        assert all(spec.suite in ("SPEC06", "SPEC17") for spec in tune_specs())
        assert len(tune_specs()) >= 20

    def test_eval_set_covers_all_suites(self):
        suites = {spec.suite for spec in eval_specs()}
        assert suites == set(ALL_SUITES)

    @pytest.mark.parametrize(
        "spec", eval_specs(), ids=lambda spec: spec.name
    )
    def test_every_spec_materializes(self, spec):
        trace = spec.trace(length=300, seed=1)
        assert len(trace) == 300

    def test_trace_deterministic_per_seed(self):
        spec = spec_by_name("gcc06")
        assert spec.trace(200, seed=5) == spec.trace(200, seed=5)
        assert spec.trace(200, seed=5) != spec.trace(200, seed=6)


class TestThreadProfiles:
    def test_tune_set_has_ten_apps(self):
        assert len(TUNE_APP_NAMES) == 10

    def test_eval_set_has_22_apps(self):
        assert len(EVAL_APP_NAMES) == 22

    def test_lookup(self):
        lbm = thread_profile("lbm")
        assert lbm.store_fraction > 0.3  # the SQ-hungry profile of §3.3

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            thread_profile("doom")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ThreadProfile("bad", load_fraction=0.6, store_fraction=0.5)
        with pytest.raises(ValueError):
            ThreadProfile("bad", l1_hit_rate=1.5)

    def test_tune_mixes_count(self):
        mixes = smt_tune_mixes()
        assert len(mixes) == 43
        # Paper: 43 mixes from 10 applications.
        apps = {profile.name for mix in mixes for profile in mix}
        assert apps <= set(TUNE_APP_NAMES)

    def test_eval_mixes_count(self):
        mixes = smt_eval_mixes()
        assert len(mixes) == 226

    def test_mixes_are_distinct_pairs(self):
        mixes = smt_eval_mixes()
        keys = {(a.name, b.name) for a, b in mixes}
        assert len(keys) == len(mixes)

    def test_too_many_requested_rejected(self):
        with pytest.raises(ValueError):
            smt_tune_mixes(count=1000)

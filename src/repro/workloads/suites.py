"""Workload suites mirroring the paper's trace collections (§6.2).

Each :class:`WorkloadSpec` names a synthetic application, assigns it to a
suite (SPEC06, SPEC17, PARSEC, Ligra, CloudSuite), and records the generator
and parameters that produce its trace. Names follow the real applications
whose access behaviour each spec emulates — e.g. ``mcf`` is a pointer-chasing
workload with a mid-trace phase change, matching its role in Figure 7.

The *tune set* (§6.3) contains only SPEC-like workloads; the non-SPEC suites
are reserved to test adaptability to unseen applications, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.util.rng import derive_seed
from repro.workloads.generators import GeneratorParams, generate_trace
from repro.workloads.trace import TraceRecord


@dataclass(frozen=True)
class WorkloadSpec:
    """A named synthetic workload: generator kind + parameters."""

    name: str
    suite: str
    kind: str
    generator_kwargs: dict = field(default_factory=dict)
    gap_mean: float = 3.0
    write_fraction: float = 0.25

    def trace(
        self, length: int, seed: int = 0, gap_scale: float = 1.0
    ) -> List[TraceRecord]:
        """Materialize this workload's trace with ``length`` accesses.

        ``gap_scale`` multiplies the mean non-memory instruction gap —
        multi-core experiments use it to model rate-mode co-runs whose
        per-core memory intensity is lower than a core running alone
        flat-out (otherwise four synthetic streams oversubscribe the single
        DRAM channel so completely that no prefetcher can matter).
        """
        params = GeneratorParams(
            length=length,
            seed=derive_seed(seed, self.suite, self.name),
            gap_mean=self.gap_mean * gap_scale,
            write_fraction=self.write_fraction,
        )
        return generate_trace(self.kind, params, **self.generator_kwargs)


def _spec(
    name: str,
    suite: str,
    kind: str,
    gap_mean: float = 3.0,
    write_fraction: float = 0.25,
    **kwargs: object,
) -> WorkloadSpec:
    return WorkloadSpec(name, suite, kind, kwargs, gap_mean, write_fraction)


#: SPEC06-like workloads. Streaming (libquantum/lbm), strided (milc/cactus),
#: pointer-chasing (mcf/omnetpp), footprint (soplex), compute-bound (hmmer).
SPEC06_SPECS: Tuple[WorkloadSpec, ...] = (
    _spec("bwaves06", "SPEC06", "stream", num_streams=6, gap_mean=2.0),
    _spec("libquantum06", "SPEC06", "stream", num_streams=1, gap_mean=1.5),
    _spec("lbm06", "SPEC06", "stream", num_streams=8, write_fraction=0.45,
          gap_mean=1.5),
    _spec("milc06", "SPEC06", "strided", strides_blocks=(4, 4, 8, 2),
          gap_mean=30.0),
    _spec("cactus06", "SPEC06", "strided", strides_blocks=(2, 3, 2, 5),
          gap_mean=35.0),
    _spec("mcf06", "SPEC06", "phased", gap_mean=4.0,
          phases=("pointer_chase", "region"),
          phase_params={"pointer_chase": {"footprint_blocks": 1 << 18,
                                          "hot_probability": 0.4},
                        "region": {"num_regions": 768}}),
    _spec("omnetpp06", "SPEC06", "pointer_chase", footprint_blocks=1 << 17,
          hot_probability=0.4),
    _spec("soplex06", "SPEC06", "region", num_regions=2048, region_blocks=32,
          gap_mean=10.0),
    _spec("gcc06", "SPEC06", "mixed", stream_weight=0.3, stride_weight=0.2,
          random_weight=0.5, gap_mean=4.0),
    _spec("hmmer06", "SPEC06", "region", num_regions=64, region_blocks=32,
          gap_mean=6.0),
)

#: SPEC17-like workloads.
SPEC17_SPECS: Tuple[WorkloadSpec, ...] = (
    _spec("bwaves17", "SPEC17", "stream", num_streams=4, gap_mean=2.0),
    _spec("lbm17", "SPEC17", "stream", num_streams=8, write_fraction=0.5,
          gap_mean=1.5),
    _spec("cactuBSSN17", "SPEC17", "strided", strides_blocks=(2, 6, 3, 2),
          gap_mean=30.0),
    _spec("mcf17", "SPEC17", "phased", gap_mean=4.0,
          phases=("pointer_chase", "stream"),
          phase_params={"pointer_chase": {"footprint_blocks": 1 << 18},
                        "stream": {"num_streams": 2}}),
    _spec("xalancbmk17", "SPEC17", "pointer_chase", footprint_blocks=1 << 16,
          hot_probability=0.5, gap_mean=4.0),
    _spec("wrf17", "SPEC17", "strided", strides_blocks=(5, 7, 3, 9),
          gap_mean=35.0),
    _spec("pop217", "SPEC17", "stream", num_streams=12, gap_mean=2.5),
    _spec("x26417", "SPEC17", "region", num_regions=256, region_blocks=32,
          gap_mean=4.0),
    _spec("roms17", "SPEC17", "stream", num_streams=6, backwards_fraction=0.3,
          gap_mean=2.0),
    _spec("deepsjeng17", "SPEC17", "mixed", stream_weight=0.1,
          stride_weight=0.1, random_weight=0.8, gap_mean=6.0,
          footprint_blocks=1 << 13),
    _spec("gcc17", "SPEC17", "mixed", stream_weight=0.25, stride_weight=0.25,
          random_weight=0.5, gap_mean=4.5),
    _spec("xz17", "SPEC17", "phased", gap_mean=3.0,
          phases=("stream", "region"),
          phase_params={"stream": {"num_streams": 2},
                        "region": {"num_regions": 512}}),
)

#: PARSEC-like workloads.
PARSEC_SPECS: Tuple[WorkloadSpec, ...] = (
    _spec("blackscholes", "PARSEC", "stream", num_streams=3, gap_mean=5.0),
    _spec("canneal", "PARSEC", "pointer_chase", footprint_blocks=1 << 18,
          hot_probability=0.2, gap_mean=3.0),
    _spec("fluidanimate", "PARSEC", "region", num_regions=1536,
          region_blocks=32, gap_mean=8.0),
    _spec("freqmine", "PARSEC", "mixed", stream_weight=0.2, stride_weight=0.3,
          random_weight=0.5, gap_mean=4.0),
    _spec("streamcluster", "PARSEC", "stream", num_streams=2, gap_mean=1.5),
    _spec("swaptions", "PARSEC", "region", num_regions=96, region_blocks=16,
          gap_mean=6.0),
)

#: Ligra-like graph workloads: all share the CSR scan + irregular-load shape,
#: varying density and frontier size.
LIGRA_SPECS: Tuple[WorkloadSpec, ...] = (
    _spec("ligra_bfs", "Ligra", "graph", avg_degree=4, frontier_fraction=0.1,
          gap_mean=2.5),
    _spec("ligra_pagerank", "Ligra", "graph", avg_degree=16,
          frontier_fraction=0.9, gap_mean=2.0),
    _spec("ligra_components", "Ligra", "graph", avg_degree=8,
          frontier_fraction=0.5, gap_mean=2.5),
    _spec("ligra_triangle", "Ligra", "graph", avg_degree=24,
          frontier_fraction=0.3, gap_mean=2.0),
    _spec("ligra_radii", "Ligra", "graph", avg_degree=6,
          frontier_fraction=0.4, gap_mean=3.0),
    _spec("ligra_maxmatch", "Ligra", "graph", avg_degree=10,
          frontier_fraction=0.6, gap_mean=3.0),
)

#: CloudSuite-like workloads: blended patterns with large PC footprints.
CLOUDSUITE_SPECS: Tuple[WorkloadSpec, ...] = (
    _spec("cassandra", "CloudSuite", "mixed", stream_weight=0.2,
          stride_weight=0.1, random_weight=0.7, pc_footprint=256,
          gap_mean=4.0),
    _spec("classification", "CloudSuite", "mixed", stream_weight=0.5,
          stride_weight=0.1, random_weight=0.4, pc_footprint=128,
          gap_mean=3.0),
    _spec("cloud9", "CloudSuite", "mixed", stream_weight=0.1,
          stride_weight=0.2, random_weight=0.7, pc_footprint=256,
          gap_mean=5.0),
    _spec("nutch", "CloudSuite", "mixed", stream_weight=0.3,
          stride_weight=0.2, random_weight=0.5, pc_footprint=192,
          gap_mean=4.0),
)

ALL_SUITES: Dict[str, Tuple[WorkloadSpec, ...]] = {
    "SPEC06": SPEC06_SPECS,
    "SPEC17": SPEC17_SPECS,
    "PARSEC": PARSEC_SPECS,
    "Ligra": LIGRA_SPECS,
    "CloudSuite": CLOUDSUITE_SPECS,
}

_BY_NAME: Dict[str, WorkloadSpec] = {
    spec.name: spec for specs in ALL_SUITES.values() for spec in specs
}


def spec_by_name(name: str) -> WorkloadSpec:
    """Look up a workload spec by its application name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def tune_specs() -> List[WorkloadSpec]:
    """The prefetching tune set: SPEC-like workloads only (§6.3)."""
    return list(SPEC06_SPECS) + list(SPEC17_SPECS)


def eval_specs() -> List[WorkloadSpec]:
    """The full evaluation set: every suite (§6.2)."""
    return [spec for specs in ALL_SUITES.values() for spec in specs]

"""Micro-op streams generated from :class:`ThreadProfile` statistics.

Each thread's program is an endless, seeded stream of micro-ops, a pure
function of its ``(ThreadProfile, seed)``. The stream is held in a
:class:`UopBuffer`: an append-only store of three parallel columns, which
grows a chunk at a time as readers ask for uops beyond its end. Uop ``i``
(from 0) is described by

- ``codes[i]`` — its kind, one of the ``KIND_*`` constants below, with
  :data:`MISPREDICT_BIT` set on a branch that will redirect the front end
  when it resolves;
- ``dep1[i]`` / ``dep2[i]`` — distance (in uops, same thread) back to each
  producer; 0 means no dependence. Drawn geometrically around the
  profile's ``mean_dep_distance``, which is what sets the thread's ILP,
  and at most 256.

That is 5 bytes a uop. The active :class:`~repro.workloads.compiled.TraceStore`
keeps one buffer per key, so every pipeline that runs the profile at that
seed reads the same buffer (each policy of a mix, the kernel and object
paths, other mixes sharing the thread). A thread reads its buffer at
``next_seq - 1``: sequence numbers start at 1, and only the fetch stage
advances them, one per uop.

Load/store service levels (L1/L2/DRAM) are drawn at issue time by the
pipeline using the same profile, so a uop stays small.
"""

from __future__ import annotations

from array import array
from math import log

from repro.util.rng import make_rng
from repro.workloads.smt import ThreadProfile

KIND_ALU = 0
KIND_LOAD = 1
KIND_STORE = 2
KIND_BRANCH = 3
KIND_LONG = 4

#: Kinds that allocate a physical register at rename (freed at commit).
REG_WRITING_KINDS = frozenset({KIND_ALU, KIND_LOAD, KIND_LONG})

#: Set in a uop's code when the branch mispredicts; the kind is the code
#: without it.
MISPREDICT_BIT = 8

#: Uops a buffer generates each time a reader passes its end.
CHUNK_UOPS = 1024


class UopBuffer:
    """The uop stream of one ``(profile, seed)``, generated on demand.

    The buffer owns its ``Random``, so the uops depend only on the profile
    and the seed, never on which reader asked for them first or how far.
    """

    __slots__ = (
        "codes", "dep1", "dep2", "_random", "_load_cut", "_store_cut",
        "_branch_cut", "_long_cut", "_lambd", "_mispredict_rate",
    )

    def __init__(self, profile: ThreadProfile, seed: int) -> None:
        self.codes = bytearray()
        self.dep1 = array("H")
        self.dep2 = array("H")
        self._random = make_rng(seed, "uops", profile.name).random
        self._load_cut = profile.load_fraction
        self._store_cut = self._load_cut + profile.store_fraction
        self._branch_cut = self._store_cut + profile.branch_fraction
        self._long_cut = (
            self._branch_cut
            + profile.long_op_fraction * (1.0 - self._branch_cut)
        )
        self._lambd = 1.0 / max(profile.mean_dep_distance, 1.0)
        self._mispredict_rate = profile.branch_mispredict_rate

    def reserve(self, end: int) -> None:
        """Generate uops until the first ``end`` exist."""
        while len(self.codes) < end:
            self._grow()

    def _grow(self) -> None:
        """Append :data:`CHUNK_UOPS` uops.

        Per uop the draws are, in order: the kind; for each operand
        whether it is independent (20 %) and, if not, an exponential
        distance around the mean (``-log(1 - u) / lambd``, exactly
        ``Random.expovariate``) capped at 256; between the two operands
        whether a second one exists (40 %); and for a branch whether it
        mispredicts.
        """
        random = self._random
        load_cut = self._load_cut
        store_cut = self._store_cut
        branch_cut = self._branch_cut
        long_cut = self._long_cut
        lambd = self._lambd
        mispredict_rate = self._mispredict_rate
        append_code = self.codes.append
        append_dep1 = self.dep1.append
        append_dep2 = self.dep2.append
        for _ in range(CHUNK_UOPS):
            draw = random()
            if draw < load_cut:
                code = KIND_LOAD
            elif draw < store_cut:
                code = KIND_STORE
            elif draw < branch_cut:
                code = KIND_BRANCH
            elif draw < long_cut:
                code = KIND_LONG
            else:
                code = KIND_ALU
            if random() < 0.2:
                dep1 = 0
            else:
                dep1 = int(-log(1.0 - random()) / lambd)
                dep1 = 256 if dep1 >= 255 else dep1 + 1
            if random() < 0.4:
                if random() < 0.2:
                    dep2 = 0
                else:
                    dep2 = int(-log(1.0 - random()) / lambd)
                    dep2 = 256 if dep2 >= 255 else dep2 + 1
            else:
                dep2 = 0
            if code == KIND_BRANCH and random() < mispredict_rate:
                code = KIND_BRANCH | MISPREDICT_BIT
            append_code(code)
            append_dep1(dep1)
            append_dep2(dep2)

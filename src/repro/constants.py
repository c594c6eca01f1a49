"""Single source of truth for the paper's Table 6/7 hyperparameter values.

Every numeric constant the paper fixes for the two use cases lives here,
with its provenance, and is *imported* at each use site instead of being
re-typed inline. ``tests/test_constants.py`` pins every value and checks
that the consuming dataclasses default to it.

Provenance map (MICRO 2023 paper):

- **Table 6, data-prefetching column** — DUCB with discount factor
  γ = 0.999 and exploration constant c = 0.04 over the 11 arms of Table 7;
  a bandit step is 1000 L2 accesses; the stride/stream components track 64
  PCs/streams; arm selection is conservatively charged 500 cycles (§5.4);
  4-core runs restart the round-robin sweep with probability 0.001 per
  step (§4.3).
- **Table 6, SMT fetch column** — DUCB with γ = 0.975 and c = 0.01 over
  the 6 pruned PG-policy arms of Table 1; a bandit step is 2 Hill-Climbing
  epochs (32 during the initial round-robin phase, §5.3); an epoch is
  64k cycles and Hill Climbing moves the partition by δ = 2 IQ entries
  ([17] via Table 6).
- **Table 3 / §4.2** — the ε-Greedy baseline explores with ε = 0.1.
- **Table 7** — the 11-arm ensemble action table (next-line on/off,
  PC-stride degree, stream degree), in arm-id order.

Scale note: reproduction-scale experiments *derive* shrunk values from
these (e.g. ``figures.SCALED_GAMMA``, ``scaled_hill_climbing``); those
derived values deliberately live outside this module because they are not
paper constants.
"""

from __future__ import annotations

from typing import Tuple

# --------------------------------------------- Table 6, prefetching column

#: DUCB discount (forgetting) factor γ for the prefetching use case.
PREFETCH_GAMMA = 0.999

#: UCB/DUCB exploration constant c (sometimes written ξ) for prefetching.
PREFETCH_EXPLORATION_C = 0.04

#: Bandit step length, measured in L2 accesses.
PREFETCH_STEP_L2_ACCESSES = 1000

#: PC trackers in the stride component of the Table 7 ensemble.
NUM_STRIDE_TRACKERS = 64

#: Stream trackers in the stream component of the Table 7 ensemble.
NUM_STREAM_TRACKERS = 64

#: Conservative arm-selection latency charged by the evaluation (§5.4).
SELECTION_LATENCY_CYCLES = 500

#: Per-step probability of a round-robin restart in 4-core runs (§4.3).
RR_RESTART_PROB_MULTICORE = 0.001

# ----------------------------------------------------- Table 6, SMT column

#: DUCB discount factor γ for the SMT fetch use case.
SMT_GAMMA = 0.975

#: UCB/DUCB exploration constant c for the SMT fetch use case.
SMT_EXPLORATION_C = 0.01

#: PG-policy arms after pruning (Table 1).
SMT_NUM_ARMS = 6

#: Bandit step length in Hill-Climbing epochs (main loop).
SMT_STEP_EPOCHS = 2

#: Bandit step length during the initial round-robin phase (§5.3).
SMT_STEP_EPOCHS_RR = 32

#: Hill-Climbing epoch length in cycles.
HILL_CLIMBING_EPOCH_CYCLES = 64_000

#: Hill-Climbing partition step δ, in IQ entries.
HILL_CLIMBING_DELTA_IQ_ENTRIES = 2.0

# ------------------------------------------------------------ Table 3/§4.2

#: Exploration rate of the ε-Greedy baseline.
EPSILON_GREEDY_EPSILON = 0.1

# ----------------------------------------------------------------- Table 7

#: The 11 ensemble arms, in arm-id order, as
#: ``(next_line_on, stride_degree, stream_degree)`` rows. Degree 0 means
#: the component is off; arm 1 is the all-off arm.
TABLE7_ARM_TABLE: Tuple[Tuple[bool, int, int], ...] = (
    (False, 0, 4),    # 0
    (False, 0, 0),    # 1 (all off)
    (True, 0, 0),     # 2
    (False, 0, 2),    # 3
    (False, 2, 2),    # 4
    (False, 4, 4),    # 5
    (False, 0, 6),    # 6
    (False, 8, 6),    # 7
    (True, 0, 8),     # 8
    (False, 0, 15),   # 9
    (False, 15, 15),  # 10
)

#: Number of prefetching arms (Table 7).
PREFETCH_NUM_ARMS = len(TABLE7_ARM_TABLE)

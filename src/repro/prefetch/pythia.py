"""Pythia-like MDP-RL prefetcher (Bera et al., MICRO 2021) [11].

Pythia formulates prefetching as MDP-RL: the state is derived from program
features (we use the load PC and the last observed block delta, one of
Pythia's default feature combinations), and the 64 actions are
(offset, degree) pairs drawn from 16 offsets × 4 degrees. Action selection is
ε-greedy over learned state-action values (the paper notes Pythia "uses an
ε-Greedy action selection mechanism", §7.2.1); the reward mirrors Pythia's
accuracy/timeliness scheme with a bandwidth-aware component:

- accurate & timely fill that gets used ............. +20
- accurate but late ................................. +12
- inaccurate (never used) ........................... −8, or −14 under
  high memory-bandwidth usage
- no-prefetch action ................................ −4, or +12 under
  high bandwidth usage

Rewards resolve asynchronously (a prefetch's usefulness is only known once
its block is demanded or evicted from the pending table), so the update is
applied to the issuing (state, action) pair at resolution time — a standard
hardware-RL simplification of the SARSA pipeline that preserves its learning
dynamics. Storage: the paper charges Pythia 25.5 KB (24 KB of QVStore +
metadata), which :attr:`storage_bytes` reports.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.prefetch.base import Prefetcher
from repro.util.rng import make_rng

#: 16 offsets × 4 degrees = 64 actions. Offset 0 encodes "no prefetch".
OFFSETS: Tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16,
                            -1, -2, -3, -4, -6)
DEGREES: Tuple[int, ...] = (1, 2, 3, 4)


@dataclass(frozen=True)
class PythiaConfig:
    """Hyperparameters of the Pythia-like agent."""

    alpha: float = 0.15
    gamma: float = 0.5
    epsilon: float = 0.03
    max_states: int = 1024
    pending_capacity: int = 256
    reward_timely: float = 20.0
    reward_late: float = 12.0
    reward_inaccurate: float = -8.0
    reward_inaccurate_high_bw: float = -14.0
    reward_no_prefetch: float = -4.0
    reward_no_prefetch_high_bw: float = 12.0
    high_bandwidth_threshold: float = 0.5
    late_age_accesses: int = 8
    seed: int = 7


class PythiaPrefetcher(Prefetcher):
    """MDP-RL prefetcher with (PC, delta) states and 64 (offset, degree) arms."""

    name = "pythia"

    def __init__(
        self,
        config: PythiaConfig = PythiaConfig(),
        bandwidth_probe: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config
        #: Callable returning current memory-bandwidth usage in [0, 1];
        #: wired to the DRAM model by the experiment runner (§7.2.1 notes
        #: Pythia's bandwidth awareness).
        self.bandwidth_probe = bandwidth_probe or (lambda: 0.0)
        self._rng = make_rng(config.seed, "pythia")
        self.actions: List[Tuple[int, int]] = [
            (offset, degree) for offset in OFFSETS for degree in DEGREES
        ]
        # state -> list of Q values per action; LRU-bounded.
        self._q: "OrderedDict[int, List[float]]" = OrderedDict()
        # state -> (max Q value, first argmax index), maintained exactly in
        # step with ``_q`` so greedy selection and the update target skip
        # the 64-element max scan.
        self._qmax: Dict[int, Tuple[float, int]] = {}
        # pending prefetch: block -> (state, action index, issue access index)
        self._pending: "OrderedDict[int, Tuple[int, int, int]]" = OrderedDict()
        self._last_block: Optional[int] = None
        self._access_index = 0
        self.action_counts: Counter = Counter()

    @property
    def storage_bytes(self) -> int:
        # The paper charges Pythia 25.5 KB (§7.2.1).
        return 25 * 1024 + 512

    # ----------------------------------------------------------------- state

    def _state(self, pc: int, block: int) -> int:
        delta = 0 if self._last_block is None else block - self._last_block
        # Quantize the delta into a small signed bucket, combine with PC bits.
        if delta > 16:
            delta = 17
        elif delta < -16:
            delta = -17
        return ((pc & 0x3F) << 6) | ((delta + 17) & 0x3F)

    def _q_values(self, state: int) -> List[float]:
        values = self._q.get(state)
        if values is None:
            if len(self._q) >= self.config.max_states:
                evicted_state, _ = self._q.popitem(last=False)
                del self._qmax[evicted_state]
            values = [0.0] * len(self.actions)
            self._q[state] = values
            self._qmax[state] = (0.0, 0)
        else:
            self._q.move_to_end(state)
        return values

    # ------------------------------------------------------------------- API

    def observe(self, pc: int, block: int, cycle: float, hit: bool) -> List[int]:
        config = self.config
        access_index = self._access_index + 1
        self._access_index = access_index

        # _resolve_demand, inlined: reward a pending prefetch on its demand.
        entry = self._pending.pop(block, None)
        if entry is not None:
            if access_index - entry[2] >= config.late_age_accesses:
                self._update(entry[0], entry[1], config.reward_timely)
            else:
                self._update(entry[0], entry[1], config.reward_late)

        # _state, inlined.
        last_block = self._last_block
        delta = 0 if last_block is None else block - last_block
        if delta > 16:
            delta = 17
        elif delta < -16:
            delta = -17
        state = ((pc & 0x3F) << 6) | ((delta + 17) & 0x3F)
        self._last_block = block

        # _q_values, inlined.
        q = self._q
        qmax = self._qmax
        values = q.get(state)
        if values is None:
            if len(q) >= config.max_states:
                evicted_state, _ = q.popitem(last=False)
                del qmax[evicted_state]
            values = [0.0] * len(self.actions)
            q[state] = values
            qmax[state] = (0.0, 0)
        else:
            q.move_to_end(state)

        if self._rng.random() < config.epsilon:
            action_index = self._rng.randrange(len(self.actions))
        else:
            # First maximum (identical to values.index(max(values))): the
            # cached argmax is maintained exactly by ``_update``.
            action_index = qmax[state][1]
        self.action_counts[action_index] += 1

        offset, degree = self.actions[action_index]
        if offset == 0:
            self._reward_no_prefetch(state, action_index)
            return []
        predictions = []
        for i in range(1, degree + 1):
            target = block + offset * i
            if target >= 0:
                predictions.append(target)
                self._track(target, state, action_index)
        return predictions

    # --------------------------------------------------------------- rewards

    def _track(self, block: int, state: int, action_index: int) -> None:
        if block in self._pending:
            return
        if len(self._pending) >= self.config.pending_capacity:
            old_block, entry = self._pending.popitem(last=False)
            self._reward_inaccurate(entry)
        self._pending[block] = (state, action_index, self._access_index)

    def _resolve_demand(self, block: int) -> None:
        entry = self._pending.pop(block, None)
        if entry is None:
            return
        state, action_index, issued_at = entry
        age = self._access_index - issued_at
        if age >= self.config.late_age_accesses:
            reward = self.config.reward_timely
        else:
            reward = self.config.reward_late
        self._update(state, action_index, reward)

    def _reward_inaccurate(self, entry: Tuple[int, int, int]) -> None:
        state, action_index, _ = entry
        if self.bandwidth_probe() >= self.config.high_bandwidth_threshold:
            reward = self.config.reward_inaccurate_high_bw
        else:
            reward = self.config.reward_inaccurate
        self._update(state, action_index, reward)

    def _reward_no_prefetch(self, state: int, action_index: int) -> None:
        if self.bandwidth_probe() >= self.config.high_bandwidth_threshold:
            reward = self.config.reward_no_prefetch_high_bw
        else:
            reward = self.config.reward_no_prefetch
        self._update(state, action_index, reward)

    def _update(self, state: int, action_index: int, reward: float) -> None:
        values = self._q.get(state)
        if values is None:
            return
        config = self.config
        qmax = self._qmax
        best_value, best_index = qmax[state]
        # ``best_value`` is exactly ``max(values)`` by invariant.
        target = reward + config.gamma * best_value
        old = values[action_index]
        new = old + config.alpha * (target - old)
        values[action_index] = new
        # Re-establish (max, first argmax) exactly: only a decrease of the
        # current argmax entry needs a rescan.
        if new > best_value:
            qmax[state] = (new, action_index)
        elif action_index == best_index:
            if new != best_value:
                best_value = max(values)
                qmax[state] = (best_value, values.index(best_value))
        elif new == best_value and action_index < best_index:
            qmax[state] = (best_value, action_index)

    # ---------------------------------------------------------------- extras

    def top_action_fractions(self, top: int = 2) -> List[float]:
        """Fraction of selections taken by the most popular actions (Fig 2).

        The four (offset=0, degree) encodings all mean "no prefetch" and are
        counted as a single action.
        """
        total = sum(self.action_counts.values())
        if total == 0:
            return [0.0] * top
        merged: Counter = Counter()
        for action_index, count in self.action_counts.items():
            offset, degree = self.actions[action_index]
            key = (0, 0) if offset == 0 else (offset, degree)
            merged[key] += count
        most_common = merged.most_common(top)
        fractions = [count / total for _, count in most_common]
        while len(fractions) < top:
            fractions.append(0.0)
        return fractions

    def reset(self) -> None:
        self._q.clear()
        self._qmax.clear()
        self._pending.clear()
        self._last_block = None
        self._access_index = 0
        self.action_counts.clear()

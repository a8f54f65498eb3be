"""JRS-style resetting-counter confidence estimator.

Used by the two-level ARVI configuration (paper Section 5): the level-1
hybrid handles easy, highly biased branches; when the estimator reports
low confidence in the level-1 prediction, the branch is deemed difficult
and ARVI's prediction is used instead (when the BVIT hits).

Each entry is a miss-distance counter indexed by PC XOR global history: a
correct level-1 prediction increments it, a misprediction clears it.  The
branch is *confident* when the counter reaches the threshold.
"""

from __future__ import annotations

from repro.predictors.base import GlobalHistory, SaturatingCounterTable


class ConfidenceEstimator:
    def __init__(self, entries: int = 4096, counter_bits: int = 4,
                 threshold: int = 14, history_bits: int = 8) -> None:
        if threshold > (1 << counter_bits) - 1:
            raise ValueError("threshold exceeds counter range")
        self.table = SaturatingCounterTable(entries, counter_bits, initial=0)
        self.threshold = threshold
        self.history = GlobalHistory(history_bits)
        self.queries = 0
        self.confident_queries = 0
        # The hot paths index the counter list directly.
        self._counters = self.table._counters
        self._entries = entries
        self._maximum = self.table.maximum
        self._history_mask = (1 << history_bits) - 1

    def is_confident(self, pc: int) -> bool:
        """Is the level-1 prediction for this branch trustworthy?"""
        self.queries += 1
        if self._counters[(pc ^ self.history.value) % self._entries] \
                >= self.threshold:
            self.confident_queries += 1
            return True
        return False

    def update(self, pc: int, level1_correct: bool, taken: bool) -> None:
        history = self.history
        slot = (pc ^ history.value) % self._entries
        if level1_correct:
            value = self._counters[slot]
            if value < self._maximum:
                self._counters[slot] = value + 1
        else:
            self._counters[slot] = 0
        history.value = ((history.value << 1) | taken) & self._history_mask

    def history_state(self) -> int:
        """Checkpoint of the history register (branch-recovery support)."""
        return self.history.value

    def restore_history(self, state: int) -> None:
        self.history.value = state

    @property
    def storage_bits(self) -> int:
        return self.table.storage_bits + self.history.bits

"""Test-only reference 2Bc-gskew and confidence estimator.

The straightforward formulation of :class:`repro.predictors.gskew.
TwoBcGskew` and :class:`repro.predictors.confidence.ConfidenceEstimator`:
every counter access goes through :class:`SaturatingCounterTable` and
every history shift through :class:`GlobalHistory`.  The package's
versions run on flat counter lists with the hashing and counter updates
inlined; ``test_predictor_oracle.py`` holds them equal to these.
"""

from __future__ import annotations

from repro.predictors.base import (
    BranchPredictor,
    GlobalHistory,
    SaturatingCounterTable,
)

_HISTORY_REG_BITS = 32


def _rotate(value: int, amount: int, bits: int) -> int:
    amount %= bits
    mask = (1 << bits) - 1
    return ((value << amount) | (value >> (bits - amount))) & mask


class ReferenceGskew(BranchPredictor):
    """2Bc-gskew on counter-table objects (the original formulation)."""

    def __init__(self, bank_entries: int = 4096,
                 g0_history: int | None = None,
                 g1_history: int | None = None) -> None:
        super().__init__()
        index_bits = bank_entries.bit_length() - 1
        if 1 << index_bits != bank_entries:
            raise ValueError("bank_entries must be a power of two")
        self.index_bits = index_bits
        self.bank_entries = bank_entries
        self.bim = SaturatingCounterTable(bank_entries, 2)
        self.g0 = SaturatingCounterTable(bank_entries, 2)
        self.g1 = SaturatingCounterTable(bank_entries, 2)
        self.meta = SaturatingCounterTable(bank_entries, 2)
        self.g0_history = g0_history if g0_history is not None else max(
            1, index_bits - 4)
        self.g1_history = g1_history if g1_history is not None else min(
            _HISTORY_REG_BITS, index_bits + 4)
        self.history = GlobalHistory(_HISTORY_REG_BITS)
        self._index_mask = (1 << index_bits) - 1
        self._g0_hist_mask = (1 << self.g0_history) - 1
        self._g1_hist_mask = (1 << self.g1_history) - 1

    # -- indexing -------------------------------------------------------------

    def _skew_index(self, pc: int, hist_mask: int, variant: int) -> int:
        """Per-bank skewing hash over (PC, history & hist_mask)."""
        bits = self.index_bits
        mask = self._index_mask
        folded = self.history.value & hist_mask
        while folded >> bits:
            folded = (folded & mask) ^ (folded >> bits)
        skew = _rotate(folded, variant * 3 + 1, bits)
        return (pc ^ skew ^ (pc >> (bits - variant))) & mask

    def _indices(self, pc: int) -> tuple[int, int, int, int]:
        hist = self.history.value
        mask = self._index_mask
        return (
            pc & mask,
            self._skew_index(pc, self._g0_hist_mask, 1),
            self._skew_index(pc, self._g1_hist_mask, 2),
            (pc ^ ((hist & self._g0_hist_mask) << 1)) & mask,
        )

    # -- prediction -------------------------------------------------------------

    def component_predictions(self, pc: int) -> tuple[bool, bool, bool, bool]:
        """(bimodal, e-gskew majority, meta-prefers-eskew, final)."""
        bim_idx, g0_idx, g1_idx, meta_idx = self._indices(pc)
        bim = self.bim.is_high(bim_idx)
        g0 = self.g0.is_high(g0_idx)
        g1 = self.g1.is_high(g1_idx)
        eskew = (bim + g0 + g1) >= 2
        use_eskew = self.meta.is_high(meta_idx)
        final = eskew if use_eskew else bim
        return bim, eskew, use_eskew, final

    def predict(self, pc: int) -> bool:
        return self.component_predictions(pc)[3]

    # -- update --------------------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        bim_idx, g0_idx, g1_idx, meta_idx = self._indices(pc)
        bim = self.bim.is_high(bim_idx)
        g0 = self.g0.is_high(g0_idx)
        g1 = self.g1.is_high(g1_idx)
        eskew = (bim + g0 + g1) >= 2
        use_eskew = self.meta.is_high(meta_idx)
        final = eskew if use_eskew else bim

        if bim != eskew:
            # META trains toward whichever component was right.
            self.meta.nudge(meta_idx, eskew == taken)

        if final == taken:
            if use_eskew:
                # Partial update: strengthen only agreeing banks.
                if bim == taken:
                    self.bim.nudge(bim_idx, taken)
                if g0 == taken:
                    self.g0.nudge(g0_idx, taken)
                if g1 == taken:
                    self.g1.nudge(g1_idx, taken)
            else:
                self.bim.nudge(bim_idx, taken)
        else:
            # Misprediction: retrain all direction banks.
            self.bim.nudge(bim_idx, taken)
            self.g0.nudge(g0_idx, taken)
            self.g1.nudge(g1_idx, taken)

        self.history.push(taken)

    # -- speculative history (wrong-path modelling) ---------------------------

    def history_state(self) -> int:
        return self.history.value

    def restore_history(self, state: int) -> None:
        self.history.value = state

    def speculate(self, pc: int, taken: bool) -> None:
        self.history.push(taken)

    @property
    def storage_bits(self) -> int:
        return (self.bim.storage_bits + self.g0.storage_bits
                + self.g1.storage_bits + self.meta.storage_bits
                + self.history.bits)


class ReferenceConfidence:
    """Resetting-counter confidence on a counter-table object."""

    def __init__(self, entries: int = 4096, counter_bits: int = 4,
                 threshold: int = 14, history_bits: int = 8) -> None:
        if threshold > (1 << counter_bits) - 1:
            raise ValueError("threshold exceeds counter range")
        self.table = SaturatingCounterTable(entries, counter_bits, initial=0)
        self.threshold = threshold
        self.history = GlobalHistory(history_bits)
        self.queries = 0
        self.confident_queries = 0

    def _index(self, pc: int) -> int:
        return pc ^ self.history.value

    def is_confident(self, pc: int) -> bool:
        """Is the level-1 prediction for this branch trustworthy?"""
        self.queries += 1
        confident = self.table[self._index(pc)] >= self.threshold
        if confident:
            self.confident_queries += 1
        return confident

    def update(self, pc: int, level1_correct: bool, taken: bool) -> None:
        index = self._index(pc)
        if level1_correct:
            self.table.nudge(index, up=True)
        else:
            self.table.reset(index)
        self.history.push(taken)

    def history_state(self) -> int:
        """Checkpoint of the history register (branch-recovery support)."""
        return self.history.value

    def restore_history(self, state: int) -> None:
        self.history.value = state

    @property
    def storage_bits(self) -> int:
        return self.table.storage_bits + self.history.bits

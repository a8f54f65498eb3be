"""2Bc-gskew hybrid predictor (Seznec et al., the Alpha EV8 design [26]).

Four banks of 2-bit counters:

* **BIM** — bimodal, indexed by PC;
* **G0 / G1** — gskew banks indexed by *different* hashes of (PC, global
  history), G1 with a longer history than G0;
* **META** — chooses between the bimodal prediction and the e-gskew
  majority vote of (BIM, G0, G1).

The partial update rule follows the EV8 paper: on a correct prediction
only the banks that contributed are strengthened; on a misprediction all
three direction banks train toward the outcome.  META trains only when
the bimodal and e-gskew predictions disagree.

The paper instantiates this twice: a 4 KB level-1 (1 KB per bank, single
cycle) and a 32 KB level-2 (8 KB per bank, multi-cycle).
"""

from __future__ import annotations

from repro.predictors.base import (
    BranchPredictor,
    GlobalHistory,
    SaturatingCounterTable,
)

_HISTORY_REG_BITS = 32
_HISTORY_MASK = (1 << _HISTORY_REG_BITS) - 1

#: A 2-bit counter strengthened toward taken / not taken, by old value.
_TOWARD_TAKEN = (1, 2, 3, 3)
_TOWARD_NOT_TAKEN = (0, 0, 1, 2)


class TwoBcGskew(BranchPredictor):
    """The 2Bc-gskew hybrid; ``bank_entries`` counters per bank.

    The hot paths read and write the banks' counter lists directly (a
    2-bit counter predicts taken at 2 or more) and inline the skewing
    hashes; ``tests/predictors/test_predictor_oracle.py`` holds them
    equal to the table-object formulation.
    """

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
        self._bim = self.bim._counters
        self._g0 = self.g0._counters
        self._g1 = self.g1._counters
        self._meta = self.meta._counters
        # Index-hash constants: bank G<v> rotates its folded history by
        # (3v + 1) mod index_bits and mixes in pc >> (index_bits - v).
        self._index_mask = (1 << index_bits) - 1
        self._g0_hist_mask = (1 << self.g0_history) - 1
        self._g1_hist_mask = (1 << self.g1_history) - 1
        self._g0_rot = 4 % max(index_bits, 1)
        self._g1_rot = 7 % max(index_bits, 1)
        # Memoized indices for the predict->train pair: the engine trains
        # each branch with the same (pc, history) it predicted with, so
        # the second computation is a pure replay.
        self._memo_pc = -1
        self._memo_hist = -1
        self._memo: tuple[int, int, int, int] = (0, 0, 0, 0)

    # -- indexing -------------------------------------------------------------

    def _indices(self, pc: int) -> tuple[int, int, int, int]:
        """(bim, g0, g1, meta) indices of ``pc`` under the current history.

        G0/G1 fold their history slice down to ``index_bits`` by XOR,
        rotate it, and XOR it with the pc and a per-bank pc shift.
        """
        hist = self.history.value
        if pc == self._memo_pc and hist == self._memo_hist:
            return self._memo
        bits = self.index_bits
        mask = self._index_mask
        folded = hist & self._g0_hist_mask
        while folded >> bits:
            folded = (folded & mask) ^ (folded >> bits)
        rot = self._g0_rot
        g0 = (pc ^ (folded << rot) ^ (folded >> (bits - rot))
              ^ (pc >> (bits - 1))) & mask
        folded = hist & self._g1_hist_mask
        while folded >> bits:
            folded = (folded & mask) ^ (folded >> bits)
        rot = self._g1_rot
        g1 = (pc ^ (folded << rot) ^ (folded >> (bits - rot))
              ^ (pc >> (bits - 2))) & mask
        value = (pc & mask, g0, g1,
                 (pc ^ ((hist & self._g0_hist_mask) << 1)) & mask)
        self._memo_pc = pc
        self._memo_hist = hist
        self._memo = value
        return value

    # -- prediction -------------------------------------------------------------

    def component_predictions(self, pc: int) -> tuple[bool, bool, bool, bool]:
        """(bimodal, e-gskew majority, meta-prefers-eskew, final)."""
        bim_idx, g0_idx, g1_idx, meta_idx = self._indices(pc)
        bim = self._bim[bim_idx] >= 2
        eskew = (bim + (self._g0[g0_idx] >= 2)
                 + (self._g1[g1_idx] >= 2)) >= 2
        use_eskew = self._meta[meta_idx] >= 2
        return bim, eskew, use_eskew, eskew if use_eskew else bim

    def predict(self, pc: int) -> bool:
        bim_idx, g0_idx, g1_idx, meta_idx = self._indices(pc)
        bim = self._bim[bim_idx] >= 2
        if self._meta[meta_idx] >= 2:
            return (bim + (self._g0[g0_idx] >= 2)
                    + (self._g1[g1_idx] >= 2)) >= 2
        return bim

    # -- update --------------------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        bim_idx, g0_idx, g1_idx, meta_idx = self._indices(pc)
        bim_bank = self._bim
        g0_bank = self._g0
        g1_bank = self._g1
        bim_value = bim_bank[bim_idx]
        g0_value = g0_bank[g0_idx]
        g1_value = g1_bank[g1_idx]
        bim = bim_value >= 2
        g0 = g0_value >= 2
        g1 = g1_value >= 2
        eskew = (bim + g0 + g1) >= 2
        meta_value = self._meta[meta_idx]
        use_eskew = meta_value >= 2
        final = eskew if use_eskew else bim
        toward = _TOWARD_TAKEN if taken else _TOWARD_NOT_TAKEN

        if bim != eskew:
            # META trains toward whichever component was right.
            self._meta[meta_idx] = (_TOWARD_TAKEN if eskew == taken
                                    else _TOWARD_NOT_TAKEN)[meta_value]

        if final == taken:
            if use_eskew:
                # Partial update: strengthen only agreeing banks.
                if bim == taken:
                    bim_bank[bim_idx] = toward[bim_value]
                if g0 == taken:
                    g0_bank[g0_idx] = toward[g0_value]
                if g1 == taken:
                    g1_bank[g1_idx] = toward[g1_value]
            else:
                bim_bank[bim_idx] = toward[bim_value]
        else:
            # Misprediction: retrain all direction banks.
            bim_bank[bim_idx] = toward[bim_value]
            g0_bank[g0_idx] = toward[g0_value]
            g1_bank[g1_idx] = toward[g1_value]

        history = self.history
        history.value = ((history.value << 1) | taken) & _HISTORY_MASK

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


def level1_gskew() -> TwoBcGskew:
    """The paper's 4 KB level-1 predictor (1 KB = 4096 counters per bank)."""
    return TwoBcGskew(bank_entries=4096)


def level2_gskew() -> TwoBcGskew:
    """The paper's 32 KB level-2 hybrid (8 KB = 32768 counters per bank)."""
    return TwoBcGskew(bank_entries=32768)

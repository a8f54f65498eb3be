"""The flat-list 2Bc-gskew and confidence estimator equal their reference.

``reference_predictors.py`` keeps the table-object formulation of both
predictors.  Over random (pc, taken) sequences, with wrong-path history
speculation and checkpoint restores interleaved the way the engine's
``wrongpath`` mode drives them, every prediction, every counter and the
history register must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.gskew import TwoBcGskew
from tests.predictors.reference_predictors import (
    ReferenceConfidence,
    ReferenceGskew,
)

#: One step: (pc, taken, level1_correct, wrong-path branches to speculate
#: before restoring the checkpoint).  Level 1 is mostly right, as it is
#: on real branches, so confidence counters reach saturation.
steps = st.lists(
    st.tuples(st.integers(0, (1 << 16) - 1), st.booleans(),
              st.integers(0, 7).map(bool),
              st.lists(st.tuples(st.integers(0, (1 << 16) - 1),
                                 st.booleans()), max_size=3)),
    min_size=1, max_size=300)


def gskew_state(predictor) -> tuple:
    return (predictor.bim._counters, predictor.g0._counters,
            predictor.g1._counters, predictor.meta._counters,
            predictor.history.value)


class TestGskewOracle:
    @settings(max_examples=60, deadline=None)
    @given(bank_entries=st.sampled_from([16, 64, 256, 4096, 32768]),
           histories=st.sampled_from([(None, None), (3, 9), (1, 32),
                                      (12, 20)]),
           trace=steps)
    def test_matches_reference(self, bank_entries, histories, trace):
        fast = TwoBcGskew(bank_entries, *histories)
        slow = ReferenceGskew(bank_entries, *histories)
        for pc, taken, _, wrong_path in trace:
            assert fast.predict(pc) == slow.predict(pc)
            assert fast.component_predictions(pc) \
                == slow.component_predictions(pc)
            if wrong_path:
                checkpoint = fast.history_state()
                assert checkpoint == slow.history_state()
                for wrong_pc, wrong_taken in wrong_path:
                    assert fast.predict(wrong_pc) == slow.predict(wrong_pc)
                    fast.speculate(wrong_pc, wrong_taken)
                    slow.speculate(wrong_pc, wrong_taken)
                fast.restore_history(checkpoint)
                slow.restore_history(checkpoint)
            fast.update(pc, taken)
            slow.update(pc, taken)
            assert gskew_state(fast) == gskew_state(slow)


class TestConfidenceOracle:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(4096, 4, 14, 8), (1, 4, 4, 1),
                                  (1, 2, 3, 1), (256, 2, 3, 4),
                                  (100, 3, 5, 7)]),
           trace=steps)
    def test_matches_reference(self, shape, trace):
        entries, counter_bits, threshold, history_bits = shape
        fast = ConfidenceEstimator(entries, counter_bits, threshold,
                                   history_bits)
        slow = ReferenceConfidence(entries, counter_bits, threshold,
                                   history_bits)
        for pc, taken, level1_correct, wrong_path in trace:
            assert fast.is_confident(pc) == slow.is_confident(pc)
            if wrong_path:
                checkpoint = fast.history_state()
                fast.restore_history(checkpoint ^ 1)
                slow.restore_history(checkpoint ^ 1)
                assert fast.is_confident(pc) == slow.is_confident(pc)
                fast.restore_history(checkpoint)
                slow.restore_history(checkpoint)
            fast.update(pc, level1_correct, taken)
            slow.update(pc, level1_correct, taken)
            assert fast.table._counters == slow.table._counters
            assert fast.history.value == slow.history.value
        assert (fast.queries, fast.confident_queries) \
            == (slow.queries, slow.confident_queries)

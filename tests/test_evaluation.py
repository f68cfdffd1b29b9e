"""Alignment quality metrics and reporting."""

import pytest

from bitextkit.core import AlignmentSet, Bead
from bitextkit.evaluation import (
    alignment_type_distribution,
    bead_type_counts,
    prf1,
)


def aset(beads, src_len, tgt_len):
    return AlignmentSet(tuple(beads), src_len, tgt_len)


def gold(beads, src_len, tgt_len):
    return AlignmentSet(tuple(beads), src_len, tgt_len)


class TestPrf1:
    def test_hand_counted_example(self):
        predicted = aset(
            [
                Bead((0,), (0,), None, "m"),
                Bead((1,), (1,), None, "m"),
                Bead((2,), (3,), None, "m"),
                Bead((3,), (2,), None, "m"),
            ],
            4,
            4,
        )
        reference = gold(
            [
                Bead((0,), (0,), None, "gold"),
                Bead((1,), (1,), None, "gold"),
                Bead((2,), (2,), None, "gold"),
                Bead((3,), (3,), None, "gold"),
            ],
            4,
            4,
        )
        p, r, f1 = prf1(predicted, reference)
        assert p == pytest.approx(2 / 4)
        assert r == pytest.approx(2 / 4)
        assert f1 == pytest.approx(0.5)

    def test_non_one_to_one_beads_sit_out(self):
        # the prediction merges two sentences; the reference splits one:
        # neither bead takes part in the 1-1 comparison
        predicted = aset(
            [Bead((0, 1), (0,), None, "m"), Bead((2,), (1,), None, "m")], 3, 3
        )
        predicted = aset(predicted.beads + (Bead((), (2,), None, "m"),), 3, 3)
        reference = gold(
            [Bead((0, 1), (0,), None, "gold"), Bead((2,), (1, 2), None, "gold")], 3, 3
        )
        p, r, f1 = prf1(predicted, reference)
        assert (p, r, f1) == (0.0, 0.0, 0.0)
        p_all, r_all, _ = prf1(predicted, reference, one_to_one_only=False)
        assert p_all == pytest.approx(1 / 3)
        assert r_all == pytest.approx(1 / 2)

    def test_perfect_prediction(self):
        beads = [Bead((i,), (i,), None, "m") for i in range(5)]
        assert prf1(aset(beads, 5, 5), gold(beads, 5, 5)) == (1.0, 1.0, 1.0)

    def test_merged_predictions_do_not_cost_precision(self):
        predicted = aset(
            [Bead((0, 1), (0, 1), None, "gc"), Bead((2,), (2,), None, "gc")], 3, 3
        )
        reference = gold([Bead((i,), (i,), None, "gold") for i in range(3)], 3, 3)
        p, r, _ = prf1(predicted, reference)
        assert p == 1.0  # the 2-2 bead is not judged
        assert r == pytest.approx(1 / 3)

    def test_document_length_mismatch_rejected(self):
        a = aset([Bead((0,), (0,), None, "m")], 1, 1)
        g = gold([Bead((0,), (0,), None, "gold")], 2, 1)
        with pytest.raises(ValueError):
            prf1(a, g)

    def test_empty_prediction_scores_zero(self):
        a = aset([Bead((0,), (), None, "m"), Bead((), (0,), None, "m")], 1, 1)
        g = gold([Bead((0,), (0,), None, "gold")], 1, 1)
        assert prf1(a, g) == (0.0, 0.0, 0.0)


class TestDistribution:
    def test_bead_type_counts(self):
        a = aset(
            [
                Bead((0,), (0,), None, "m"),
                Bead((1, 2), (1,), None, "m"),
                Bead((3,), (2,), None, "m"),
            ],
            4,
            3,
        )
        assert bead_type_counts(a) == {(1, 1): 2, (2, 1): 1}

    def test_distribution_rows_and_rounding(self):
        beads = [Bead((i,), (i,), None, "gold") for i in range(6)]
        beads.append(Bead((6, 7), (6,), None, "gold"))
        g = gold(beads, 8, 7)
        rows = alignment_type_distribution(g)
        assert rows[0] == ("1-1", 6, 85.7)
        assert rows[1] == ("2-1", 1, 14.3)

    def test_ties_order_by_type_name(self):
        g = gold(
            [Bead((0,), (0, 1), None, "gold"), Bead((1, 2), (2,), None, "gold")], 3, 3
        )
        rows = alignment_type_distribution(g)
        assert [r[0] for r in rows] == ["1-2", "2-1"]


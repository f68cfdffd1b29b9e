"""Alignment scoring against gold annotations.

Precision/recall/F1 are computed over 1-1 beads with exact bead equality
(no partial credit); many-to-many beads are surfaced only through the bead
type distribution table.
"""

from __future__ import annotations


def _check_lengths(pred, gold) -> None:
    if (pred.src_len, pred.tgt_len) != (gold.src_len, gold.tgt_len):
        raise ValueError(
            f"prediction covers {pred.src_len}x{pred.tgt_len} sentences "
            f"but gold covers {gold.src_len}x{gold.tgt_len}"
        )


def prf1(pred, gold, one_to_one_only: bool = True) -> tuple[float, float, float]:
    """Precision, recall and F1 of predicted beads against gold beads.

    With one_to_one_only (the default) both sides are restricted to their
    1-1 beads first. A match is an identical (src indices, tgt indices)
    pair. Empty candidate sets score 0.
    """
    _check_lengths(pred, gold)

    def considered(beads):
        if one_to_one_only:
            return {b.key for b in beads if b.bead_type == (1, 1)}
        return {b.key for b in beads}

    pred_set = considered(pred.beads)
    gold_set = considered(gold.beads)
    matches = len(pred_set & gold_set)
    p = matches / len(pred_set) if pred_set else 0.0
    r = matches / len(gold_set) if gold_set else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def bead_type_counts(alignment) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for b in alignment.beads:
        counts[b.bead_type] = counts.get(b.bead_type, 0) + 1
    return counts


def alignment_type_distribution(gold) -> list[tuple[str, int, float]]:
    """(type, count, percent) rows, most frequent first.

    Percents are rounded to one decimal, so they sum to 100 only up to
    rounding drift.
    """
    counts = bead_type_counts(gold)
    total = sum(counts.values())
    rows = [
        (f"{m}-{n}", count, round(100.0 * count / total, 1))
        for (m, n), count in counts.items()
    ]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


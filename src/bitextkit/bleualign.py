"""Translation-based sentence alignment.

Consumes an external machine translation of the source (one line per
sentence, already in the target language), finds high-BLEU anchor pairs as
a maximum-score monotone chain, optionally grows anchors into 1-2/2-1 beads
when merging a neighbour strictly improves BLEU, and fills the remaining
gaps with the length-based aligner. With a reverse translation the run is
repeated target-to-source and only beads found by both directions are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import repeat
from operator import add, mul, truediv

from bitextkit.core import AlignmentSet, Bead, SentenceList
from bitextkit.gale_church import LengthParams, _align_block, path_beads
from bitextkit.scoring import N_MAX, _brevity_penalty, _log_precision, ngram_counts, sentence_bleu, tokenize


@dataclass(frozen=True)
class ScoreMatrix:
    """BLEU of every (translated source sentence, target sentence) pair."""

    entries: tuple  # tuple of row tuples, each value in [0, 1]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, pos: tuple[int, int]) -> float:
        return self.entries[pos[0]][pos[1]]


def score_matrix(hyps: list, refs: list) -> ScoreMatrix:
    """:func:`sentence_bleu` of every (hypothesis, reference) pair of token
    lists at the default order ``N_MAX``, equal to it bit for bit: row i,
    column j scores ``hyps[i]`` against ``refs[j]``.

    The references' n-grams are indexed per order as gram -> [(j, count)],
    and each hypothesis walks its own n-grams once, adding the clipped counts
    into one integer match row per order. So the n-gram work is one step per
    matching (gram, reference) pair. An order's log precision is read from
    a list per n-gram total t, indexed by the match count (at most t), and
    the brevity penalties from a row per hypothesis length, each built once.
    A row is then built by C-level ``map``: per cell one list lookup per
    order, the per-order logs added left to right as ``_bleu`` adds them,
    one ``exp`` and one product.
    """
    index: list[dict] = [{} for _ in range(N_MAX)]
    for j, tokens in enumerate(refs):
        for n, grams in enumerate(index, 1):
            for g, count in ngram_counts(tokens, n).items():
                grams.setdefault(g, []).append((j, count))
    ref_lens = [len(tokens) for tokens in refs]
    log_precisions = cache(lambda t: [_log_precision(m, t) for m in range(t + 1)])
    penalties = cache(lambda hyp_len: [_brevity_penalty(hyp_len, r) for r in ref_lens])
    rows = []
    for tokens in hyps:
        hyp_len = len(tokens)
        logs = []
        # the n-gram totals of the orders the hypothesis is long enough to populate
        totals = range(hyp_len, max(hyp_len - N_MAX, 0), -1)
        for n, (t, grams) in enumerate(zip(totals, index), 1):
            matches = [0] * len(refs)
            for g, h in ngram_counts(tokens, n).items():
                for j, r in grams.get(g, ()):
                    matches[j] += h if h < r else r
            logs.append(map(log_precisions(t).__getitem__, matches))
        rows.append(tuple(map(
            mul,
            penalties(hyp_len),
            map(math.exp, map(truediv, reduce(partial(map, add), logs), repeat(len(logs)))),
        )) if logs else (0.0,) * len(refs))
    return ScoreMatrix(tuple(rows))


def check_min_score(min_score: float) -> None:
    """Raise ValueError unless min_score is a number (not a bool) with
    0 <= min_score < 1 (NaN fails too)."""
    if (
        isinstance(min_score, bool)
        or not isinstance(min_score, (int, float))
        or not 0 <= min_score < 1
    ):
        raise ValueError(f"min_score must be in [0, 1), got {min_score!r}")


def find_anchors(m: ScoreMatrix, min_score: float = 0.0) -> list[tuple[int, int]]:
    """Monotone chain of cells with score > min_score maximizing total score.

    Ties go to the chain nearer the main diagonal (smaller sum of |i - j|),
    then to the lexicographically smallest index sequence. Both total score
    and diagonal distance are additive, so a chain starting at cell (i, j)
    has the key (-total, distance, i, j) = (c[0] - m[i, j], c[1] + |i - j|,
    i, j) with c = best[i+1][j+1], where the suffix-min table best[i][j]
    holds the smallest of (0.0, 0) and the keys of all cells (i2, j2) with
    i2 >= i and j2 >= j. The chain starts at best[0][0]'s cell and goes on
    from each cell (i, j) to best[i+1][j+1]'s. Time and memory are O(S*T)
    for an S x T matrix. Totals are compared as suffix sums, so of two
    chains whose exact totals tie, the one whose float suffix sum is an ulp
    higher wins. Per cell the table takes the smaller of two neighbours
    with one ``<``, and a qualifying cell builds its key tuple only when its
    total is at most that neighbour's, the one case where the key can win.
    """
    check_min_score(min_score)
    rows, cols = m.rows, m.cols
    best = [[(0.0, 0)] * (cols + 1) for _ in range(rows + 1)]
    for i in range(rows - 1, -1, -1):
        scores, here, below = m.entries[i], best[i], best[i + 1]
        # right = here[j + 1] and cont = below[j + 1], carried along the row
        right = cont = (0.0, 0)
        for j in range(cols - 1, -1, -1):
            up = below[j]
            b = right if right < up else up
            s = scores[j]
            # a key whose total exceeds b's cannot be smaller, so build none
            if s > min_score and (total := cont[0] - s) <= b[0]:
                key = (total, cont[1] + abs(i - j), i, j)
                if key < b:
                    b = key
            here[j] = right = b
            cont = up
    chain: list[tuple[int, int]] = []
    key = best[0][0]
    while len(key) == 4:
        chain.append(key[2:])
        key = best[key[2] + 1][key[3] + 1]
    return chain


def _grow_anchors(
    anchors: list[tuple[int, int]],
    m: ScoreMatrix,
    mt_tokens: list,
    tgt_tokens: list,
) -> list[Bead]:
    """Try one merge per anchor: absorb an adjacent unaligned target or
    source sentence when the merged BLEU strictly beats the anchor's score.
    Candidates are tried as target-after, target-before, source-after,
    source-before; the best strict improvement wins."""
    S, T = len(mt_tokens), len(tgt_tokens)
    used_src = {i for i, _ in anchors}
    used_tgt = {j for _, j in anchors}
    beads = []
    for i, j in anchors:
        base = m[i, j]
        options = []
        for src_ix, tgt_ix, added, used, size in (
            ((i,), (j, j + 1), j + 1, used_tgt, T),
            ((i,), (j - 1, j), j - 1, used_tgt, T),
            ((i, i + 1), (j,), i + 1, used_src, S),
            ((i - 1, i), (j,), i - 1, used_src, S),
        ):
            if 0 <= added < size and added not in used:
                hyp = [w for k in src_ix for w in mt_tokens[k]]
                ref = [w for k in tgt_ix for w in tgt_tokens[k]]
                options.append((src_ix, tgt_ix, sentence_bleu(hyp, ref)))
        grown = max(options, key=lambda o: o[2], default=None)
        if grown is not None and grown[2] > base:
            src_ix, tgt_ix, score = grown
            used_src.update(src_ix)
            used_tgt.update(tgt_ix)
            beads.append(Bead(src_ix, tgt_ix, score, "bleualign"))
        else:
            beads.append(Bead((i,), (j,), base, "bleualign"))
    return beads


def _fill_gaps(
    anchor_beads: list[Bead],
    src: SentenceList,
    tgt: SentenceList,
    params: LengthParams,
) -> list[Bead]:
    """Length-align the sentences between consecutive anchors by their character counts."""
    out: list[Bead] = []
    prev_s = prev_t = 0
    src_lens, tgt_lens = [len(s) for s in src.sentences], [len(t) for t in tgt.sentences]
    for bead in [*anchor_beads, None]:
        s_start, t_start = (bead.src[0], bead.tgt[0]) if bead is not None else (len(src), len(tgt))
        if prev_s < s_start or prev_t < t_start:
            path = _align_block(src_lens[prev_s:s_start], tgt_lens[prev_t:t_start], params)
            out.extend(path_beads(path, prev_s, prev_t, "bleualign+gc"))
        if bead is not None:
            out.append(bead)
            prev_s, prev_t = max(bead.src) + 1, max(bead.tgt) + 1
    return out


def _one_direction(
    src: SentenceList,
    tgt: SentenceList,
    src_translation: SentenceList,
    min_score: float,
    params: LengthParams,
) -> list[Bead]:
    mt_tokens = [tokenize(s, src_translation.language) for s in src_translation.sentences]
    tgt_tokens = [tokenize(s, tgt.language) for s in tgt.sentences]
    m = score_matrix(mt_tokens, tgt_tokens)
    anchors = find_anchors(m, min_score)
    anchor_beads = _grow_anchors(anchors, m, mt_tokens, tgt_tokens)
    return _fill_gaps(anchor_beads, src, tgt, params)


def bleualign(
    src: SentenceList,
    tgt: SentenceList,
    src_translation: SentenceList,
    tgt_translation: SentenceList | None = None,
    min_score: float = 0.0,
    params: LengthParams | None = None,
) -> AlignmentSet:
    """Anchor-and-fill alignment; bidirectional when tgt_translation given.

    The bidirectional result keeps exactly the beads produced by both the
    forward and the mirrored reverse run (so it is always a subset of the
    forward result and leaves the dropped sentences unaligned).
    """
    if len(src_translation) != len(src):
        raise ValueError(
            f"source has {len(src)} sentences but its translation has {len(src_translation)} lines"
        )
    if tgt_translation is not None and len(tgt_translation) != len(tgt):
        raise ValueError(
            f"target has {len(tgt)} sentences but its translation has {len(tgt_translation)} lines"
        )
    if params is None:
        params = LengthParams()
    forward = _one_direction(src, tgt, src_translation, min_score, params)
    if tgt_translation is None:
        return AlignmentSet(tuple(forward), len(src), len(tgt))
    reverse = _one_direction(tgt, src, tgt_translation, min_score, params)
    reverse_keys = {(b.tgt, b.src) for b in reverse}
    kept = tuple(b for b in forward if (b.src, b.tgt) in reverse_keys)
    return AlignmentSet(kept, len(src), len(tgt))

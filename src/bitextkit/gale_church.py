"""Length-based dynamic-programming sentence alignment.

Cost of pairing a block of source sentences with a block of target
sentences is a bead-type prior plus a normal tail probability of the
character-length mismatch; the aligner finds the bead sequence of minimum
total cost over the {1-1, 1-0, 0-1, 2-1, 1-2, 2-2} move lattice. Also used
to fill the inter-anchor gaps of the translation-based aligner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add
from pathlib import Path

from bitextkit.core import AlignmentSet, Bead, SentenceList, read_records, write_records

#: Lattice moves as (source sentences consumed, target sentences consumed).
GC_MOVES = ((1, 1), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2))

# Published bead priors (1-1 0.89, deletion 0.0099 each, expansion 0.089
# split evenly, 2-2 0.011) renormalized to sum to 1.
_RAW_PRIORS = {
    (1, 1): 0.89,
    (1, 0): 0.0099,
    (0, 1): 0.0099,
    (2, 1): 0.0445,
    (1, 2): 0.0445,
    (2, 2): 0.011,
}
_RAW_SUM = reduce(add, _RAW_PRIORS.values())
PRIORS = {k: v / _RAW_SUM for k, v in _RAW_PRIORS.items()}
#: A bead's prior cost, -log PRIORS, per move, in the sorted order the
#: lattice tries the moves in.
_PRIOR_COSTS = {k: -math.log(PRIORS[k]) for k in sorted(GC_MOVES)}

DEFAULT_C = 1.0
DEFAULT_S2 = 6.8


@dataclass(frozen=True)
class LengthParams:
    """The length model's fitted values: expected target chars per source
    char (c) and per-char variance of the mismatch (s2). The bead priors are
    the fixed PRIORS."""

    c: float = DEFAULT_C
    s2: float = DEFAULT_S2

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError("c: must be finite and > 0")
        if not 0 < self.s2 < math.inf:
            raise ValueError("s2: must be finite and > 0")


#: The lattice's length terms, ``{(c, s2): {source chars: {target chars:
#: value}}}``: :func:`_log_match` reads only ``c`` and ``s2``, so every
#: params of one scale shares one memo, which stays warm for the life of the
#: process (across the chunks a pool worker is sent, too).
_LOG_MATCH_MEMO: dict[tuple[float, float], dict[int, dict[int, float]]] = {}


# Rational tail approximation of the standard normal CDF
# (Abramowitz & Stegun 26.2.17, |error| < 7.5e-8).
_AS_P = 0.2316419
_AS_B = (0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_2 = math.log(2.0)


def _tail_poly(ax: float) -> float:
    t = 1.0 / (1.0 + _AS_P * ax)
    return t * (_AS_B[0] + t * (_AS_B[1] + t * (_AS_B[2] + t * (_AS_B[3] + t * _AS_B[4]))))


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the rational tail approximation."""
    if x == 0.0:
        return 0.5
    ax = abs(x)
    tail = math.exp(-0.5 * ax * ax - _LOG_SQRT_2PI) * _tail_poly(ax)
    return 1.0 - tail if x > 0 else tail


def _log_match(src_chars: int, tgt_chars: int, c: float, s2: float) -> float:
    """log(2 * (1 - Phi(|delta|))) of a bead's normalized length mismatch
    delta, stable for large |delta|."""
    base = src_chars if src_chars > 0 else tgt_chars
    if base <= 0:
        return 0.0
    ax = abs((tgt_chars - src_chars * c) / math.sqrt(base * s2))
    if ax == 0.0:
        return 0.0
    return _LOG_2 - 0.5 * ax * ax - _LOG_SQRT_2PI + math.log(_tail_poly(ax))


def estimate_length_params(length_pairs: list[tuple[int, int]]) -> LengthParams:
    """Fit c and s2 from the character counts of parallel text blocks, one
    ``(source chars, target chars)`` pair per block.

    c is the corpus character ratio; s2 the mean squared normalized residual
    (tgt - c*src)^2 / src over the pairs, added left to right, floored at 1.0.
    """
    src_total = sum(s for s, _ in length_pairs)
    tgt_total = sum(t for _, t in length_pairs)
    if src_total == 0:
        raise ValueError("zero total source length")
    c = tgt_total / src_total
    residuals = [(t - c * s) ** 2 / s for s, t in length_pairs if s > 0]
    s2 = max(reduce(add, residuals) / len(residuals), 1.0) if residuals else 1.0
    return LengthParams(c, s2)


def _align_block(
    src_lens: list[int], tgt_lens: list[int], params: LengthParams
) -> list[tuple[tuple[int, int], float]]:
    """Minimum-cost path over one lattice block whose items (sentences or
    paragraphs) are given by their character counts; returns (move, cost) pairs.

    Cost ties are broken by most 1-1 beads, then fewest beads overall, then
    the lexicographically smallest move sequence. The first three are
    additive along the path, so a backward pass minimizes the triple
    (cost, -ones, beads) per node. Costs are float sums, added back to front:
    a suffix that loses at a node by rounding alone is not reconsidered when
    a prefix makes the totals equal. It tries the moves in sorted order and
    keeps the first that attains the minimum, with its step cost, so the
    forward pass only follows those moves. The length term of each cell and
    move is read from :data:`_LOG_MATCH_MEMO`, so each distinct pair of block
    lengths is evaluated once per scale ``(c, s2)`` in a process.
    """
    S, T = len(src_lens), len(tgt_lens)
    spre = list(accumulate(src_lens, initial=0))
    tpre = list(accumulate(tgt_lens, initial=0))
    c, s2 = params.c, params.s2
    memo = _LOG_MATCH_MEMO.setdefault((c, s2), {})
    moves = [((m, n), m, n, cost, int((m, n) == (1, 1))) for (m, n), cost in _PRIOR_COSTS.items()]
    cost = [[0.0] * (T + 1) for _ in range(S + 1)]
    neg_ones = [[0] * (T + 1) for _ in range(S + 1)]
    beads = [[0] * (T + 1) for _ in range(S + 1)]
    choice: list[list[tuple | None]] = [[None] * (T + 1) for _ in range(S + 1)]
    for i in range(S, -1, -1):
        # per move: the rows it lands in, its source block length and the
        # length terms memoized for that length
        row_moves = [
            (move, n, prior_cost, one, cost[i + m], neg_ones[i + m], beads[i + m],
             spre[i + m] - spre[i], memo.setdefault(spre[i + m] - spre[i], {}))
            for move, m, n, prior_cost, one in moves
            if i + m <= S
        ]
        for j in range(T, -1, -1):
            best = None
            for move, n, prior_cost, one, cost_row, ones_row, beads_row, sc, by_tc in row_moves:
                jn = j + n
                if jn > T:
                    continue
                tc = tpre[jn] - tpre[j]
                match = by_tc.get(tc)
                if match is None:
                    match = by_tc[tc] = _log_match(sc, tc, c, s2)
                step = prior_cost - match
                k, o, b = step + cost_row[jn], ones_row[jn] - one, beads_row[jn] + 1
                # (k, o, b) < (bk, bo, bb) as tuples, compared field by field
                if best is None or (k < bk if k != bk else o < bo if o != bo else b < bb):
                    bk, bo, bb, best = k, o, b, (move, step)
            if best is not None:
                cost[i][j], neg_ones[i][j], beads[i][j], choice[i][j] = bk, bo, bb, best
    path = []
    i = j = 0
    while (i, j) != (S, T):
        (m, n), _ = step = choice[i][j]
        path.append(step)
        i, j = i + m, j + n
    return path


def path_beads(
    path: list[tuple[tuple[int, int], float]], i: int, j: int, method: str
) -> list[Bead]:
    """Beads of a lattice path that starts at source sentence i and target
    sentence j; each bead's score is its negated step cost."""
    beads = []
    for (m, n), step in path:
        beads.append(Bead(tuple(range(i, i + m)), tuple(range(j, j + n)), -step, method))
        i, j = i + m, j + n
    return beads


def paragraph_blocks(
    src: SentenceList, tgt: SentenceList, params: LengthParams
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Matched paragraph blocks of a document pair, as ``((s0, s1), (t0, t1))``
    sentence ranges in order.

    Equal paragraph counts pair paragraphs in order. Otherwise the lattice
    aligns the paragraphs themselves by their character counts
    (:meth:`SentenceList.paragraph_lengths`), and each paragraph bead is one
    block; a 1-0 or 0-1 bead has an empty range on one side, so a side
    without paragraphs gives one block per paragraph of the other.
    """
    src_spans, tgt_spans = src.paragraph_spans(), tgt.paragraph_spans()
    if len(src_spans) == len(tgt_spans):
        return list(zip(src_spans, tgt_spans))
    path = _align_block(src.paragraph_lengths(), tgt.paragraph_lengths(), params)
    src_bounds = [a for a, _ in src_spans] + [len(src)]
    tgt_bounds = [a for a, _ in tgt_spans] + [len(tgt)]
    blocks, i, j = [], 0, 0
    for (m, n), _ in path:
        blocks.append(((src_bounds[i], src_bounds[i + m]), (tgt_bounds[j], tgt_bounds[j + n])))
        i, j = i + m, j + n
    return blocks


def gc_align(
    src: SentenceList, tgt: SentenceList, params: LengthParams | None = None
) -> AlignmentSet:
    """Length-based alignment of a document pair, on Gale & Church's two
    levels: :func:`paragraph_blocks` matches paragraphs (in order when both
    sides have as many, else by a paragraph-level lattice), then the
    sentence lattice runs over each matched block's slice of the sentence
    character counts, so no bead crosses a block boundary and each lattice
    stays small. Bead scores are negated costs.
    """
    if params is None:
        params = LengthParams()
    src_lens, tgt_lens = [len(s) for s in src.sentences], [len(t) for t in tgt.sentences]
    beads: list[Bead] = []
    for (s0, s1), (t0, t1) in paragraph_blocks(src, tgt, params):
        path = _align_block(src_lens[s0:s1], tgt_lens[t0:t1], params)
        beads.extend(path_beads(path, s0, t0, "gc"))
    return AlignmentSet(tuple(beads), len(src), len(tgt))


def load_length_params(path: str | Path) -> LengthParams:
    """Read a key-value parameter file: one ``c=`` and one ``s2=`` line."""
    keys = ("c", "s2")
    values: dict[str, float] = {}

    def parse(fields, lineno):
        key, sep, value = "\t".join(fields).partition("=")
        key = key.strip()
        if not sep:
            raise ValueError("expected key=value")
        if key not in keys:
            raise ValueError(f"unknown key {key!r}")
        if key in values:
            raise ValueError(f"repeated key {key!r}")
        values[key] = float(value)

    read_records(path, parse, comments=True)
    try:
        for key in keys:
            if key not in values:
                raise ValueError(f"missing key {key!r}")
        return LengthParams(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_length_params(params: LengthParams, path: str | Path) -> None:
    write_records(path, [(f"c={params.c!r}",), (f"s2={params.s2!r}",)])

"""Two-pass sentence aligner: length model, then a word-translation model.

Pass one runs a Poisson sentence-length lattice and keeps the 1-1 pairs
whose posterior is at least THETA1. Those pairs train an IBM Model 1 word
translation table in EM_ITERATIONS rounds of EM. Pass two reruns the
lattice with the translation probability folded into each bead's score and
emits the 1-1 pairs whose posterior is at least THETA2; everything else is
left unaligned. The three settings are fixed, as in Moore (2002).
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate, repeat
from operator import add
from pathlib import Path

from bitextkit.core import AlignmentSet, Bead, SentenceList, read_records, write_records
from bitextkit.gale_church import _RAW_PRIORS as _GC_RAW_PRIORS
from bitextkit.scoring import tokenize

log = logging.getLogger(__name__)

#: Lattice moves; no 2-2 merging in this model.
MOORE_MOVES = ((1, 1), (1, 0), (0, 1), (2, 1), (1, 2))

_RAW_PRIORS = {k: _GC_RAW_PRIORS[k] for k in MOORE_MOVES}
_RAW_SUM = reduce(add, _RAW_PRIORS.values())
PRIORS = {k: v / _RAW_SUM for k, v in _RAW_PRIORS.items()}
_LOG_PRIORS = {k: math.log(v) for k, v in PRIORS.items()}

NULL_TOKEN = "<NULL>"
OTHER_TOKEN = "<OTHER>"

#: Floor for a target token whose translation mass is zero under the table
#: (unseen vocabulary); keeps partially-covered documents alignable.
_LEX_FLOOR = 1e-9

#: Pass one's posterior threshold for a pair that trains the lexicon.
THETA1 = 0.99
#: Pass two's posterior threshold for an emitted 1-1 bead.
THETA2 = 0.5
#: Rounds of IBM Model 1 EM that train the lexicon.
EM_ITERATIONS = 4


def _log_poisson(k: int, lam: float) -> float:
    return k * math.log(lam) - lam - math.lgamma(k + 1)


def _sweep(S: int, T: int, grids: list) -> list[list[float]]:
    """Forward log-sums over ``grids``, one per move in MOORE_MOVES order,
    each indexed by its beads' start cells.

    ``alpha[i][j]`` sums the paths from (0, 0) to (i, j). Every row of
    ``alpha`` and of each grid ends in two -inf cells, and each table in two
    -inf rows, so index -1 or -2 reads -inf and every cell takes the same
    update: a move from off the lattice adds ``exp(-inf) = 0.0``, which
    changes no bit. The five ``exp`` terms are added left to right in
    MOORE_MOVES order; another order could change the last bit.
    """
    g11, g10, g01, g21, g12 = grids
    NEG, exp, log = -math.inf, math.exp, math.log
    alpha = [[NEG] * (T + 3) for _ in range(S + 3)]
    alpha[0][0] = 0.0
    for i in range(S + 1):
        a0, a1, a2 = alpha[i], alpha[i - 1], alpha[i - 2]
        r11, r10, r01, r21, r12 = g11[i - 1], g10[i - 1], g01[i], g21[i - 2], g12[i - 1]
        for j in range(0 if i else 1, T + 1):
            t11 = a1[j - 1] + r11[j - 1]
            t10 = a1[j] + r10[j]
            t01 = a0[j - 1] + r01[j - 1]
            t21 = a2[j - 1] + r21[j - 1]
            t12 = a1[j - 2] + r12[j - 2]
            top = max(t11, t10, t01, t21, t12)
            a0[j] = top if top == NEG else top + log(
                exp(t11 - top) + exp(t10 - top) + exp(t01 - top) + exp(t21 - top) + exp(t12 - top)
            )
    return alpha


def _forward_backward(S: int, T: int, log_bead) -> list[list[float]]:
    """S×T posteriors of the 1-1 bead at each (src, tgt) cell under move set
    MOORE_MOVES, clamped to [0, 1]; 0.0 where no path can take that bead.

    ``log_bead(i, j, m, n)`` is the log-probability of a bead consuming
    src[i:i+m] and tgt[j:j+n]. Every bead is scored once, up front, into one
    grid per move: 5·(S+1)·(T+1) calls at most. Both passes are one
    ``_sweep``: the backward one runs over the grids turned end for end
    (``flipped[a][b] = grid[S-m-a][T-n-b]``), so ``beta[i][j]`` is
    ``back[S-i][T-j]``, and every sum adds the same terms in the same order
    as a backward loop would (IEEE addition commutes).
    """
    NEG = -math.inf
    grids = [
        [[log_bead(i, j, m, n) for j in range(T + 1 - n)] for i in range(S + 1 - m)] for m, n in MOORE_MOVES
    ]
    flipped = [[row[::-1] for row in reversed(grid)] for grid in grids]
    for grid in grids + flipped:
        for row in grid:
            row += (NEG, NEG)
        grid += ([NEG] * (T + 3), [NEG] * (T + 3))
    alpha, back = _sweep(S, T, grids), _sweep(S, T, flipped)
    z = alpha[S][T]
    post = [[0.0] * T for _ in range(S)]
    if z == NEG:
        return post
    for i in range(S):
        a, g, b, p = alpha[i], grids[0][i], back[S - 1 - i], post[i]
        for j in range(T):
            if a[j] != NEG:
                p[j] = min(max(math.exp(a[j] + g[j] + b[T - 1 - j] - z), 0.0), 1.0)
    return post


def _length_model(slen: list[int], tlen: list[int]):
    """log P(bead) = log prior + log Poisson(target tokens; source tokens * r).

    A bead's token counts are differences of prefix sums (a 0-n bead takes
    the mean source length), and each distinct (m, n, source tokens, target
    tokens) is scored once per document: ``log`` and ``lgamma`` run once per
    key, and every other bead costs a dict lookup.
    """
    r = sum(tlen) / sum(slen) if sum(slen) else 1.0
    mean_src = sum(slen) / len(slen) if slen else 1.0
    src_at, tgt_at = list(accumulate(slen, initial=0)), list(accumulate(tlen, initial=0))
    memo: dict[tuple, float] = {}

    def log_bead(i: int, j: int, m: int, n: int) -> float:
        ls = src_at[i + m] - src_at[i] if m else mean_src
        lt = tgt_at[j + n] - tgt_at[j]
        key = (m, n, ls, lt)
        lp = memo.get(key)
        if lp is None:
            lp = memo[key] = _LOG_PRIORS[(m, n)] + _log_poisson(lt, max(ls * r, 1e-6))
        return lp

    return log_bead


def _tokens(side: SentenceList) -> list[list[str]]:
    """Each sentence's scoring tokens (:func:`scoring.tokenize`)."""
    return [tokenize(s, side.language) for s in side.sentences]


def length_pass(src: SentenceList, tgt: SentenceList) -> tuple[list[list[float]], list[tuple[int, int]]]:
    """First pass: Poisson length lattice over the token counts of both
    sides; it needs no trained parameters.

    Returns the len(src)×len(tgt) matrix of 1-1 bead posteriors and, in
    row-major order, the (i, j) index pairs whose posterior is >= THETA1.
    """
    length_model = _length_model([len(ts) for ts in _tokens(src)], [len(ts) for ts in _tokens(tgt)])
    post = _forward_backward(len(src), len(tgt), length_model)
    confident = [(i, j) for i, row in enumerate(post) for j, p in enumerate(row) if p >= THETA1]
    return post, confident


@dataclass(frozen=True)
class TranslationTable:
    """Word translation probabilities t(tgt | src) plus the target unigram
    counts of the training corpus (add-one smoothed on lookup)."""

    t: dict
    tgt_counts: dict = field(default_factory=dict)
    ll_history: tuple = ()

    @cached_property
    def src_vocab(self) -> frozenset:
        return frozenset(self.t) - {NULL_TOKEN}

    @cached_property
    def tgt_vocab(self) -> frozenset:
        return frozenset(w for dist in self.t.values() for w in dist)

    @cached_property
    def _unigram_denominator(self) -> int:
        """Counted tokens plus one per counted type plus one for unseen words."""
        return sum(self.tgt_counts.values()) + len(self.tgt_counts) + 1

    def unigram(self, word: str) -> float:
        return (self.tgt_counts.get(word, 0) + 1) / self._unigram_denominator


def train_ibm1(pairs: list, iterations: int = EM_ITERATIONS) -> TranslationTable:
    """IBM Model 1 EM over (source tokens, target tokens) pairs.

    Translation probabilities start uniform over co-occurring words (the
    null source token co-occurs with everything); each iteration collects
    expected counts and renormalizes. The per-iteration corpus
    log-likelihood is recorded on the result. Each pair resolves its
    context's rows once, and each target token's lookups feed both its
    denominator and its count updates, in context order.
    """
    if isinstance(iterations, bool) or not isinstance(iterations, int) or iterations < 1:
        raise ValueError(f"iterations must be an integer >= 1, got {iterations!r}")
    pairs = [(list(s), list(t)) for s, t in pairs]
    if not pairs:
        raise ValueError("empty training pair list")
    cooc: dict[str, set] = {NULL_TOKEN: set()}
    tgt_counts: dict[str, int] = {}
    for src_toks, tgt_toks in pairs:
        for w in tgt_toks:
            tgt_counts[w] = tgt_counts.get(w, 0) + 1
        cooc[NULL_TOKEN].update(tgt_toks)
        for s in src_toks:
            cooc.setdefault(s, set()).update(tgt_toks)
    t = {s: {w: 1.0 / len(ws) for w in ws} for s, ws in cooc.items() if ws}
    history = []
    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {s: {} for s in t}
        ll = 0.0
        for src_toks, tgt_toks in pairs:
            if not tgt_toks:  # reads no row; its source words may have none
                continue
            context = [NULL_TOKEN] + src_toks
            rows = [t[s] for s in context]
            count_rows = [counts[s] for s in context]
            for w in tgt_toks:
                ps = [row.get(w, 0.0) for row in rows]
                denom = 0.0
                for p in ps:  # left to right: ``sum`` is compensated from Python 3.12 on
                    denom += p
                ll += math.log(denom / len(context)) if denom > 0 else -math.inf
                if denom <= 0:
                    continue
                for p, count_row in zip(ps, count_rows):
                    if p > 0:
                        count_row[w] = count_row.get(w, 0.0) + p / denom
        history.append(ll)
        t = {
            s: {w: c / total for w, c in ws.items()}
            for s, ws in counts.items()
            if (total := reduce(add, ws.values(), 0)) > 0
        }
    return TranslationTable(t, tgt_counts, tuple(history))


def map_rare_tokens(pairs: list, min_count: int = 2) -> list:
    """Replace words seen fewer than min_count times (per side) with a
    single OTHER token; applied to the confident-pair set before EM."""
    src_counts: dict[str, int] = {}
    tgt_counts: dict[str, int] = {}
    pairs = [(list(s), list(t)) for s, t in pairs]
    for src_toks, tgt_toks in pairs:
        for w in src_toks:
            src_counts[w] = src_counts.get(w, 0) + 1
        for w in tgt_toks:
            tgt_counts[w] = tgt_counts.get(w, 0) + 1
    return [
        (
            [w if src_counts[w] >= min_count else OTHER_TOKEN for w in src_toks],
            [w if tgt_counts[w] >= min_count else OTHER_TOKEN for w in tgt_toks],
        )
        for src_toks, tgt_toks in pairs
    ]


def _map_oov(tokens: list, vocab: frozenset) -> list:
    """Alignment-time counterpart of map_rare_tokens: a token outside the
    trained vocabulary is by definition rare, so it scores as OTHER (when
    the table was trained with one) instead of hitting the mass floor."""
    if OTHER_TOKEN not in vocab:
        return tokens
    return [w if w in vocab else OTHER_TOKEN for w in tokens]


def _bead_scorer(src_tokens: list, tgt_tokens: list, table: TranslationTable):
    """Pass two's ``log_bead(i, j, m, n)`` for one document, and whether it
    has a lexical term.

    Each bead's score equals, bit for bit, the length model plus the Model-1
    log ratio over the merged sentences, ``-l_t log(l_s + 1)`` plus
    ``log max(Σ_s t(w|s), floor) - log u(w)`` added per target token w in
    order, s running over ``[NULL]`` and the source tokens. Each document
    source word's table row is read once per document target type into a
    dense row. The masses of sentence i under the 1-x context
    ``[NULL] + src[i]`` are added left to right down the context's rows, one
    ``map(add, …)`` per context token, and those of the 2-1 context
    ``[NULL] + src[i] + src[i + 1]`` go on from them with the rows of
    src[i + 1]: the lookups, zeros included, and the order of a plain sum
    down each context, so every Python gives the same bits. Setup costs
    (context tokens × document types) additions in C and two ``log`` calls
    per (sentence, type); a bead then costs one memoized length term and one
    addition per target token. A table that shares no vocabulary with the
    document leaves the length model alone.
    """
    S, T = len(src_tokens), len(tgt_tokens)
    slen = [len(ts) for ts in src_tokens]
    length_term = _length_model(slen, [len(ts) for ts in tgt_tokens])
    src_vocab, tgt_vocab = table.src_vocab, table.tgt_vocab
    doc_src = {w for ts in src_tokens for w in ts}
    doc_tgt = {w for ts in tgt_tokens for w in ts}
    lexical = bool(doc_src & src_vocab) and bool(doc_tgt & tgt_vocab)
    # one[i][w], two[i][w]: the per-token term of target type w in a 1-x and
    # in a 2-1 bead that start at source sentence i
    one: list[dict] = []
    two: list[dict] = []
    if lexical:
        src_tokens = [_map_oov(ts, src_vocab) for ts in src_tokens]
        tgt_tokens = [_map_oov(ts, tgt_vocab) for ts in tgt_tokens]
        log_unigram = {w: math.log(table.unigram(w)) for w in {w for ts in tgt_tokens for w in ts}}
        # rows[s]: t(w | s) for every target type w, in log_unigram's order
        doc_words = {NULL_TOKEN}.union(*src_tokens)
        rows = {s: list(map(table.t.get(s, {}).get, log_unigram, repeat(0.0))) for s in doc_words}

        def add_rows(masses: list, words: list) -> list:
            for s in words:
                masses = list(map(add, masses, rows[s]))
            return masses

        def lexical_terms(masses: list) -> dict:
            return {
                w: math.log(max(mass, _LEX_FLOOR)) - lu for (w, lu), mass in zip(log_unigram.items(), masses)
            }

        for i, toks in enumerate(src_tokens):
            masses = add_rows(rows[NULL_TOKEN], toks)
            one.append(lexical_terms(masses))
            two.append(lexical_terms(add_rows(masses, src_tokens[i + 1])) if i + 1 < S else one[-1])
        # merged[n][j]: the tokens of tgt[j:j+n]; log_src[m][i]: log(1 + the tokens of src[i:i+m])
        merged = [[], *([[w for ts in tgt_tokens[j : j + n] for w in ts] for j in range(T)] for n in (1, 2))]
        log_src = [[], *([math.log(1 + sum(slen[i : i + m])) for i in range(S)] for m in (1, 2))]

    def score(i: int, j: int, m: int, n: int) -> float:
        lp = length_term(i, j, m, n)
        if not lexical or m == 0 or n == 0:
            return lp
        terms = one[i] if m == 1 else two[i]
        tokens = merged[n][j]
        total = -len(tokens) * log_src[m][i]
        for w in tokens:
            total += terms[w]
        return lp + total

    return score, lexical


def _accept_one_one(post: list[list[float]], theta2: float) -> list[tuple[int, int, float]]:
    """The (i, j, posterior) cells that pass two emits as 1-1 beads, by i.

    Cells with posterior >= theta2 are taken greedily, highest posterior
    first (ties by i, then j), unless they share a row or column with, or
    cross, a cell already taken. The taken cells are strictly monotone, so a
    cell fits exactly when no taken cell has its i and its ``bisect``
    neighbours by i have a smaller and a larger j: O(log A) per candidate.
    """
    candidates = [(i, j, p) for i, row in enumerate(post) for j, p in enumerate(row) if p >= theta2]
    taken_i: list[int] = []  # the i of each accepted cell, in order
    accepted: list[tuple[int, int, float]] = []
    for cell in sorted(candidates, key=lambda c: (-c[2], c[0], c[1])):
        i, j, _ = cell
        k = bisect_left(taken_i, i)
        fits_right = k == len(taken_i) or (taken_i[k] != i and accepted[k][1] > j)
        if fits_right and (k == 0 or accepted[k - 1][1] < j):
            taken_i.insert(k, i)
            accepted.insert(k, cell)
    return accepted


def moore_align(src: SentenceList, tgt: SentenceList, table: TranslationTable) -> AlignmentSet:
    """Second pass: lattice with prior x Poisson x lexical-ratio bead scores.

    Emits 1-1 beads whose posterior reaches THETA2 (see ``_accept_one_one``);
    all other sentences come out as 1-0/0-1 beads. A table that shares no
    vocabulary with the document degenerates to the length-only model
    (warned once per call).

    Per document, pass two's setup reads each source word's table row once
    per document target type; each bead then costs one memoized length term
    plus one addition per merged target token (see ``_bead_scorer``).
    """
    S, T = len(src), len(tgt)
    accepted = []
    if S and T:
        log_bead, lexical = _bead_scorer(_tokens(src), _tokens(tgt), table)
        if not lexical:
            log.warning(
                "%s: translation table shares no vocabulary with the document; using length model only",
                src.doc_id,
            )
        accepted = _accept_one_one(_forward_backward(S, T, log_bead), THETA2)
    beads: list[Bead] = []
    si = ti = 0
    for i, j, p in accepted + [(S, T, None)]:
        beads += [Bead((k,), (), None, "moore") for k in range(si, i)]
        beads += [Bead((), (k,), None, "moore") for k in range(ti, j)]
        if p is not None:
            beads.append(Bead((i,), (j,), p, "moore"))
        si, ti = i + 1, j + 1
    return AlignmentSet(tuple(beads), S, T)


def train_lexicon(docs_with_pairs: list) -> TranslationTable:
    """Pool confident pairs from (src, tgt, pairs) triples, map rare words
    to OTHER, and train one translation table for the corpus with
    EM_ITERATIONS rounds of EM; with no confident pair, warn once and
    return the empty table, on which pass 2 uses the length model alone."""
    token_pairs = [
        (tokenize(src.sentences[i], src.language), tokenize(tgt.sentences[j], tgt.language))
        for src, tgt, confident in docs_with_pairs for i, j in confident
    ]
    if not token_pairs:
        log.warning("no confident sentence pairs to train on; pass 2 uses the length model")
        return TranslationTable({})
    return train_ibm1(map_rare_tokens(token_pairs))


def save_table(table: TranslationTable, path: str | Path) -> None:
    """TSV dump (src, tgt, prob), descending probability within source.

    Target unigram counts ride along as ``#count`` records so the lexical
    score of a reloaded table matches the in-memory one.
    """
    rows = [("#count", w, str(table.tgt_counts[w])) for w in sorted(table.tgt_counts)]
    for s in sorted(table.t):
        ranked = sorted(table.t[s].items(), key=lambda kv: (-kv[1], kv[0]))
        rows += [(s, w, repr(p)) for w, p in ranked]
    write_records(path, rows)


def load_table(path: str | Path) -> TranslationTable:
    """Read a :func:`save_table` file. It has no comment lines: ``#`` is a token."""
    t: dict[str, dict[str, float]] = {}
    tgt_counts: dict[str, int] = {}

    def parse(fields, lineno):
        if len(fields) != 3:
            raise ValueError("expected 3 tab-separated fields")
        if fields[0] == "#count":
            tgt_counts[fields[1]] = int(fields[2])
        else:
            t.setdefault(fields[0], {})[fields[1]] = float(fields[2])

    read_records(path, parse)
    return TranslationTable(t, tgt_counts=tgt_counts)

"""Tokenization and smoothed sentence/corpus BLEU.

Scores are used both for corpus quality checks and as the similarity signal
for translation-based sentence alignment, so the sentence-level score is
floored (epsilon smoothing) instead of collapsing to 0 when an n-gram order
has no matches. There is one BLEU: precisions of orders 1..n_max (2 unless
the caller asks for another), ``EPSILON`` in place of zero matches, and the
brevity penalty.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import reduce
from operator import add
from typing import Sequence

#: The highest n-gram order scored unless a caller passes ``n_max``.
N_MAX = 2
#: The match count an order with no matches contributes instead of 0.
EPSILON = 0.01

_EN_TOKEN = re.compile(r"\w+(?:[-'’]\w+)*|[^\w\s]")
_ZH_TOKEN = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")


def tokenize(text: str, lang: str = "en") -> list[str]:
    """Split text into scoring tokens.

    ``zh``: one token per character, with contiguous Latin/digit runs kept
    whole. Other languages: whitespace split with punctuation split off as
    separate tokens.
    """
    pattern = _ZH_TOKEN if lang == "zh" else _EN_TOKEN
    return pattern.findall(text)


def check_n_max(n_max: int) -> None:
    """Raise ValueError unless n_max is an integer (not a bool) >= 1."""
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")


def ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    """Count of each n-gram ``tuple(tokens[i : i + n])``, keyed in order of
    first occurrence; empty when n > len(tokens). Raises ValueError unless
    n is an integer >= 1."""
    check_n_max(n)
    return Counter(zip(*[tokens[k:] for k in range(n)]))


def _clipped_matches(hyp_counts: Counter, ref_counts: Counter) -> int:
    return sum(min(hyp_counts[g], ref_counts[g]) for g in hyp_counts.keys() & ref_counts.keys())


def _log_precision(matches: int, total: int) -> float:
    """Log of one order's smoothed precision."""
    return math.log((matches if matches > 0 else EPSILON) / total)


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 1.0
    return min(1.0, math.exp(1.0 - ref_len / hyp_len))


def _bleu(matches: Sequence[int], totals: Sequence[int], hyp_len: int, ref_len: int) -> float:
    """Smoothed precisions of the orders with n-grams, times the brevity
    penalty. The per-order logs are added left to right, so every Python
    gives the same bits. ``bleualign.score_matrix`` repeats this arithmetic
    in this order."""
    logs = [_log_precision(m, t) for m, t in zip(matches, totals) if t > 0]
    if not logs:
        return 0.0
    return _brevity_penalty(hyp_len, ref_len) * math.exp(reduce(add, logs) / len(logs))


def sentence_bleu(hyp_tokens: Sequence[str], ref_tokens: Sequence[str], n_max: int = N_MAX) -> float:
    """Smoothed sentence-level BLEU in [0, 1].

    Geometric mean of modified n-gram precisions for n = 1..n_max (orders the
    hypothesis is too short to populate are skipped), where an order with
    zero matches contributes ``EPSILON`` matches instead; multiplied by the
    brevity penalty min(1, e^(1 - |ref|/|hyp|)). Empty hypotheses score 0.
    """
    return corpus_bleu([hyp_tokens], [ref_tokens], n_max)


def corpus_bleu(
    hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]], n_max: int = N_MAX
) -> float:
    """Micro-averaged BLEU over parallel lists of token sequences.

    Matches and n-gram totals are pooled before taking precisions, so empty
    hypotheses contribute nothing to the numerators but their references
    still count toward the brevity penalty. A single-pair corpus scores the
    same as :func:`sentence_bleu` on that pair.
    """
    check_n_max(n_max)
    if len(hyps) != len(refs):
        raise ValueError(f"length mismatch: {len(hyps)} hypotheses vs {len(refs)} references")
    matches = [0] * n_max
    totals = [0] * n_max
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, n_max + 1):
            matches[n - 1] += _clipped_matches(ngram_counts(hyp, n), ngram_counts(ref, n))
            totals[n - 1] += max(len(hyp) - n + 1, 0)
    return _bleu(matches, totals, hyp_len, ref_len)

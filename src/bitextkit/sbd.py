"""Sentence boundary detection for zh/en article text.

Chinese splitting is deterministic (terminators 。！？ with closing
punctuation and trailing citation digits attached to the left). English has
two segmenters: a rule-based one with abbreviation, citation and
parenthetical handling, and an unsupervised trainer in the Kiss & Strunk
style (log-likelihood-ratio abbreviation detection plus frequent
sentence-starter override) so the two can be compared on the same corpus.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path

from bitextkit.core import Document, read_records, write_records

ZH_TERMINATORS = "。！？"  # 。！？
# closing punctuation, and any further terminators, attach to the left
_ZH_CLOSERS = "」』”’）〉》】\"')]" + ZH_TERMINATORS
_EN_CLOSERS = "\"')]"
_EN_OPENERS = "\"'(["

#: Citation markers glued to a terminator, e.g. the "12-14" of "reported.12-14".
CITATION_RE = re.compile(r"[0-9]{1,3}(?:[-–,][0-9]{1,3})*")

_TERMINATOR_RUN = re.compile(r"[.?!]+")
_ZH_TERMINATOR = re.compile(f"[{ZH_TERMINATORS}]")


def _citation_end(text: str, pos: int) -> int:
    """End of a citation-digit run starting at ``pos``, or ``pos`` if none.
    A run followed by a further digit is a long number, not a citation."""
    m = CITATION_RE.match(text, pos)
    if m and (m.end() == len(text) or not text[m.end()].isdigit()):
        return m.end()
    return pos


def _attach_left(text: str, pos: int, closers: str) -> int:
    """End of the closing punctuation and citation digits that follow a
    terminator ending at ``pos``; they belong to the sentence on its left."""
    while True:
        k = pos
        while pos < len(text) and text[pos] in closers:
            pos += 1
        pos = _citation_end(text, pos)
        if pos == k:
            return pos


# ---------------------------------------------------------------------------
# Chinese
# ---------------------------------------------------------------------------

def segment_zh(paragraph: str) -> list[str]:
    """Split normalized Chinese text on 。！？.

    Closing quotes/brackets, citation digits and whitespace directly after a
    terminator attach to the left sentence, so the concatenation of the
    output reproduces the stripped input exactly.
    """
    text = paragraph.strip()
    sentences: list[str] = []
    start = 0
    n = len(text)
    while m := _ZH_TERMINATOR.search(text, start):
        j = _attach_left(text, m.end(), _ZH_CLOSERS)
        while j < n and text[j].isspace():
            j += 1
        sentences.append(text[start:j])
        start = j
    if start < n:
        sentences.append(text[start:])
    return sentences


# ---------------------------------------------------------------------------
# English, rule-based
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbbrevList:
    """Lowercase abbreviation entries without the trailing period; entries
    may contain spaces ("et al") or internal periods ("e.g")."""

    entries: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "entries", frozenset(self.entries))
        for e in self.entries:
            _check_abbrev(e)


def _check_abbrev(entry: str) -> str:
    if entry != entry.lower() or entry.endswith("."):
        raise ValueError(f"entries: {entry!r} must be lowercase without trailing period")
    return entry


def load_abbrevs(path: str | Path) -> AbbrevList:
    def parse(fields, lineno):
        return _check_abbrev("\t".join(fields).strip())

    return AbbrevList(frozenset(read_records(path, parse, comments=True)))


@cache
def default_abbrevs() -> AbbrevList:
    """The bundled list, read once per process."""
    with resources.as_file(
        resources.files("bitextkit.data").joinpath("abbreviations.txt")
    ) as p:
        return load_abbrevs(p)


_WORD_BEFORE = re.compile(r"([A-Za-z0-9][A-Za-z0-9.'&–-]*)\s*$")
_TWO_WORDS_BEFORE = re.compile(
    r"([A-Za-z0-9][A-Za-z0-9.'&-]*)\s+([A-Za-z0-9][A-Za-z0-9.'&-]*)\s*$"
)


def _is_abbreviation(text: str, period_pos: int, abbrevs: AbbrevList) -> bool:
    """True if the word(s) ending at ``period_pos`` form a known abbreviation
    or a single-letter initial.

    A match of either pattern ends at the period and spans at most the last
    two whitespace-delimited tokens before it (``str.split`` splits exactly
    at the patterns' ``\\s``), so the search starts where the token before
    those two ends. A window before the period that doubles until it holds
    that end keeps this O(token length) per candidate period.
    """
    width = 64
    while True:
        start = max(period_pos - width, 0)
        head = text[start:period_pos].rsplit(None, 2)
        if len(head) == 3 or start == 0:
            break
        width *= 2
    lo = start + len(head[0]) if len(head) == 3 else start
    m = _WORD_BEFORE.search(text, lo, period_pos)
    if not m:
        return False
    word = m.group(1).rstrip(".").lower()
    if len(word) == 1 and word.isalpha():
        return True  # initials such as "F." in person names
    if word in abbrevs.entries:
        return True
    m2 = _TWO_WORDS_BEFORE.search(text, lo, period_pos)
    if m2:
        two = f"{m2.group(1)} {m2.group(2)}".rstrip(".").lower()
        if two in abbrevs.entries:
            return True
    return False


def segment_en_rules(paragraph: str, abbrevs: AbbrevList | None = None) -> list[str]:
    """Rule-based English sentence splitting.

    A boundary falls after ``.?!`` followed by a space and an
    uppercase/digit start, except that: known abbreviations and single-letter
    initials never end a sentence; decimal points and digit ranges are
    word-internal; citation digits glued to the terminator attach left (the
    boundary falls after them); and a parenthetical that ends with ")."
    attaches left instead of opening a new sentence.
    """
    if abbrevs is None:
        abbrevs = default_abbrevs()
    text = paragraph.strip()
    n = len(text)
    cuts: list[tuple[int, int]] = []  # (end of sentence, start of next)
    i = 0
    while run := _TERMINATOR_RUN.search(text, i):
        i, j = run.span()
        if j == i + 1 and text[i] == ".":
            if 0 < i and text[i - 1].isdigit() and j < n and text[j].isdigit():
                i = j  # decimal point or number range: 3.5, 10.12
                continue
            if _is_abbreviation(text, i, abbrevs):
                i = j
                continue
        j = _attach_left(text, j, _EN_CLOSERS)
        if j >= n:
            break
        s = j
        while s < n and text[s] == " ":
            s += 1
        if s == j or s >= n:
            i = j  # no space after the terminator: not a boundary
            continue
        if text[s] == "(":
            close = text.find(")", s)
            if close != -1 and close + 1 < n and text[close + 1] == ".":
                i = s + 1  # ")."-final parenthetical attaches left
                continue
        first = s
        while first < n and text[first] in _EN_OPENERS:
            first += 1
        if first < n and (text[first].isupper() or text[first].isdigit()):
            cuts.append((j, s))
            i = s
        else:
            i = j
    return _split_at(text, cuts)


def _split_at(text: str, cuts: list[tuple[int, int]]) -> list[str]:
    """The stripped, non-empty pieces of ``text`` around ``cuts``, each an
    (end of a sentence, start of the next) offset pair, in order."""
    starts = [0] + [nxt for _, nxt in cuts]
    ends = [end for end, _ in cuts] + [len(text)]
    return [s for s in (text[a:b].strip() for a, b in zip(starts, ends)) if s]


# ---------------------------------------------------------------------------
# English, unsupervised (Punkt-style, reduced scope)
# ---------------------------------------------------------------------------

ABBREV_THRESHOLD = 0.3
STARTER_THRESHOLD = 30.0


@dataclass(frozen=True)
class PunktModel:
    """Learned abbreviations and frequent sentence starters.

    The membership sets are stored as score maps (type -> log-likelihood
    score) so the model can be serialized with its evidence; ``in`` tests
    work as on sets.
    """

    abbreviations: dict = field(default_factory=dict)
    sentence_starters: dict = field(default_factory=dict)


_TOKEN_CORE = re.compile(r"[a-z0-9][a-z0-9.'&-]*")


def _token_type(token: str) -> str | None:
    """Lowercased token core with edge punctuation and the final period
    stripped; None for punctuation-only tokens."""
    m = _TOKEN_CORE.search(token.lower())
    if not m:
        return None
    return m.group(0).rstrip(".") or None


def _iter_tokens(corpus: list[Document]):
    for doc in corpus:
        if doc.meta.language != "en":
            continue
        for para in doc.paragraphs:
            tokens = para.split()
            if tokens:
                yield tokens


def _modified_llr(count_a: int, count_b: int, count_ab: int, n: int) -> float:
    """Dunning log-likelihood, modified form: H0 is p = count_b/n for the
    period following the type, H1 is p = 0.99."""
    p1 = min(count_b / n, 0.985)
    p2 = 0.99
    null = count_ab * math.log(p1) + (count_a - count_ab) * math.log(1.0 - p1)
    alt = count_ab * math.log(p2) + (count_a - count_ab) * math.log(1.0 - p2)
    return -2.0 * (null - alt)


def _col_llr(count_a: int, count_b: int, count_ab: int, n: int) -> float:
    """Standard Dunning log-likelihood that ``count_b`` follows ``count_a``
    more often than chance."""
    if count_b >= n or count_a >= n:
        return 0.0
    p = count_b / n
    p1 = count_ab / count_a
    p2 = (count_b - count_ab) / (n - count_a)
    s1 = count_ab * math.log(p) + (count_a - count_ab) * math.log(1.0 - p)
    s2 = (count_b - count_ab) * math.log(p) + (
        n - count_a - count_b + count_ab
    ) * math.log(1.0 - p)
    s3 = (
        0.0
        if count_a == count_ab or p1 <= 0
        else count_ab * math.log(p1) + (count_a - count_ab) * math.log(1.0 - p1)
    )
    s4 = (
        0.0
        if not 0 < p2 < 1  # the term's limit at p2 of 0 or 1, taking 0 * log(0) as 0
        else (count_b - count_ab) * math.log(p2)
        + (n - count_a - count_b + count_ab) * math.log(1.0 - p2)
    )
    return -2.0 * (s1 + s2 - s3 - s4)


def train_punkt(corpus: list[Document]) -> PunktModel:
    """Learn abbreviations and frequent sentence starters from raw
    (unsegmented) English paragraphs.

    Deterministic in the corpus as a multiset: only aggregate counts feed
    the log-likelihood scores.
    """
    with_period: Counter = Counter()
    without_period: Counter = Counter()
    n_tokens = 0
    n_period_tokens = 0
    for tokens in _iter_tokens(corpus):
        for tok in tokens:
            n_tokens += 1
            typ = _token_type(tok)
            if tok.rstrip(_EN_CLOSERS).endswith("."):
                n_period_tokens += 1
                if typ:
                    with_period[typ] += 1
            elif typ:
                without_period[typ] += 1
    if n_tokens == 0 or n_period_tokens == 0:
        return PunktModel()

    abbreviations: dict[str, float] = {}
    for typ in sorted(with_period):
        if not any(c.isalpha() for c in typ):
            continue
        count_with = with_period[typ]
        count_without = without_period[typ]
        llr = _modified_llr(
            count_with + count_without, n_period_tokens, count_with, n_tokens
        )
        num_periods = typ.count(".") + 1
        num_nonperiods = len(typ) - num_periods + 1
        score = (
            llr
            * math.exp(-num_nonperiods)
            * num_periods
            * num_nonperiods ** -count_without
        )
        if score >= ABBREV_THRESHOLD:
            abbreviations[typ] = score

    # second pass: annotate sentence breaks with the learned abbreviations,
    # then score the types that follow a break (starters).
    type_total: Counter = Counter()
    at_break: Counter = Counter()
    n_breaks = 0
    for tokens in _iter_tokens(corpus):
        prev_break = False
        for tok in tokens:
            typ = _token_type(tok)
            if typ:
                type_total[typ] += 1
                if prev_break:
                    at_break[typ] += 1
            stripped = tok.rstrip(_EN_CLOSERS)
            prev_break = stripped.endswith(("?", "!")) or (
                stripped.endswith(".") and typ is not None and typ not in abbreviations
            )
            if prev_break:
                n_breaks += 1

    starters: dict[str, float] = {}
    if n_breaks:
        for typ in sorted(at_break):
            if not typ[0].isalpha():
                continue
            llr = _col_llr(n_breaks, type_total[typ], at_break[typ], n_tokens)
            if (
                llr >= STARTER_THRESHOLD
                and n_tokens / n_breaks > type_total[typ] / at_break[typ]
            ):
                starters[typ] = llr
    return PunktModel(abbreviations, starters)


def segment_punkt(paragraph: str, model: PunktModel) -> list[str]:
    """Split English text with a learned model.

    Decisions are made between whitespace tokens only: a token-final ``?``or
    ``!`` always breaks; a token-final period breaks when the next token
    starts upper/digit, unless the preceding type is a learned abbreviation
    and the following type is not a learned frequent sentence starter.
    """
    text = paragraph.strip()
    spans = [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]
    cuts: list[tuple[int, int]] = []
    for k in range(len(spans) - 1):
        tok = text[spans[k][0] : spans[k][1]]
        stripped = tok.rstrip(_EN_CLOSERS)
        if stripped.endswith(("?", "!")):
            cuts.append((spans[k][1], spans[k + 1][0]))
            continue
        if not stripped.endswith("."):
            continue
        nxt = text[spans[k + 1][0] : spans[k + 1][1]]
        first = nxt.lstrip(_EN_OPENERS)[:1]
        if not first or not (first.isupper() or first.isdigit()):
            continue
        typ = _token_type(tok)
        nxt_typ = _token_type(nxt)
        if (
            typ in model.abbreviations
            and nxt_typ not in model.sentence_starters
        ):
            continue
        cuts.append((spans[k][1], spans[k + 1][0]))
    return _split_at(text, cuts)


def save_punkt(model: PunktModel, path: str | Path) -> None:
    rows = [("abbrev", t, repr(s)) for t, s in sorted(model.abbreviations.items())]
    rows += [("starter", t, repr(s)) for t, s in sorted(model.sentence_starters.items())]
    write_records(path, rows)


def load_punkt(path: str | Path) -> PunktModel:
    """Read a model written by :func:`save_punkt`: ``abbrev`` and
    ``starter`` records only."""
    scores: dict[str, dict] = {"abbrev": {}, "starter": {}}

    def parse(fields, lineno):
        if fields[0] not in scores:
            raise ValueError(f"unknown record kind {fields[0]!r}")
        if len(fields) != 3:
            raise ValueError("expected 3 tab-separated fields")
        scores[fields[0]][fields[1]] = float(fields[2])

    read_records(path, parse)
    return PunktModel(scores["abbrev"], scores["starter"])


def sbd_diff_report(counts: list[tuple[str, int, int]]) -> list[list]:
    """Per-article zh/en sentence-count comparison as CSV rows: a header,
    one row per ``(article, zh, en)`` count row sorted by article, and a
    summary row with the quartiles of |diff|. Each article appears once,
    as :func:`bitextkit.pipeline.pair_articles` guarantees."""
    rows: list[list] = [["article", "zh", "en", "diff"]]
    diffs = []
    for article, zh, en in sorted(counts):
        diffs.append(abs(zh - en))
        rows.append([article, zh, en, zh - en])
    if diffs:
        rows.append(["|diff| quartiles (q1/median/q3)", *_quartiles(diffs)])
    return rows


def _quartiles(values: list[int]) -> list[float]:
    """Inclusive quartiles of ``values``, interpolated as
    ``statistics.quantiles(values, n=4, method="inclusive")`` does, without
    importing ``statistics`` (which loads ``decimal`` and ``fractions``);
    one value is its own three quartiles."""
    data = sorted(values)
    if len(data) == 1:
        return [float(data[0])] * 3
    m = len(data) - 1
    return [
        (data[j] * (4 - delta) + data[j + 1] * delta) / 4
        for j, delta in (divmod(i * m, 4) for i in range(1, 4))
    ]

"""Paragraph-level cleanup of crawled article pairs.

Four fixes are applied before sentence splitting: punctuation/width
normalization, re-attachment of paragraph fragments created by bad breaks
(citation-only fragments on the Chinese side, "open in new tab" artifacts on
the English side), boilerplate paragraph removal driven by an editable
pattern file, and unigram majority truecasing for English.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from bitextkit.core import Document, read_records

logger = logging.getLogger(__name__)

# Quote/dash variants folded to canonical forms; full-width Latin letters and
# digits folded to ASCII. CJK punctuation (。！？，etc.) is left untouched.
_CHAR_MAP = {
    "“": '"', "”": '"', "„": '"', "«": '"', "»": '"',
    "‘": "'", "’": "'", "‚": "'", "‹": "'", "›": "'",
    "‐": "-", "‑": "-", "−": "-", "－": "-",
    "‒": "–",  # figure dash -> en dash
    "―": "—",  # horizontal bar -> em dash
    " ": " ", "　": " ",
}
_CHAR_MAP.update({chr(0xFF10 + d): chr(0x30 + d) for d in range(10)})
_CHAR_MAP.update({chr(0xFF21 + d): chr(0x41 + d) for d in range(26)})
_CHAR_MAP.update({chr(0xFF41 + d): chr(0x61 + d) for d in range(26)})
_TRANSLATION = str.maketrans(_CHAR_MAP)

_WS_RUN = re.compile(r"\s+")

# Paragraphs that are nothing but citation markers / stray punctuation
# (digits incl. full-width and superscript, hyphens, commas, brackets).
_ZH_CITATION_FRAGMENT = re.compile(
    r"^[0-9０-９⁰¹²³⁴-⁹\-–,，.。;；\[\]()（）\s]+$"
)
_EN_STITCH_MARKER = re.compile("open in new tab", re.ASCII | re.IGNORECASE)


def normalize_text(text: str) -> str:
    """Standardize punctuation and character widths.

    Curly quotes become ASCII quotes, dash variants collapse to -/–/—,
    full-width Latin letters and digits become half-width, and whitespace
    runs collapse to single spaces. Chinese sentence punctuation is
    preserved. Idempotent and language-independent.
    """
    return _WS_RUN.sub(" ", text.translate(_TRANSLATION)).strip()


def normalize_document(doc: Document) -> Document:
    paragraphs = [normalize_text(p) for p in doc.paragraphs]
    return Document(doc.meta, tuple(p for p in paragraphs if p))


def stitch_paragraphs(doc: Document) -> Document:
    """Undo erroneous paragraph breaks introduced by the crawl.

    Chinese: a paragraph consisting only of citation markers and/or
    punctuation is appended (no joiner) to the preceding paragraph. English:
    each "open in new tab" marker (in any ASCII case) is deleted, and the
    paragraphs around a paragraph of markers are joined into one. A Chinese
    fragment with no predecessor is kept and a marker paragraph at a
    document edge is dropped; both are logged.
    """
    lang = doc.meta.language
    out: list[str] = []
    join = False  # a marker paragraph stands between out[-1] and the next one
    for p in doc.paragraphs:
        if lang == "zh" and _ZH_CITATION_FRAGMENT.fullmatch(p):
            if out:
                out[-1] = out[-1] + p
            else:
                logger.warning(
                    "%s: citation fragment at document start has no predecessor",
                    doc.meta.doc_id,
                )
                out.append(p)
            continue
        if lang == "en" and _EN_STITCH_MARKER.search(p):
            p = normalize_text(_EN_STITCH_MARKER.sub(" ", p))
        if not p:  # the paragraph held only markers
            if not out:
                logger.warning("%s: stitch marker at document edge dropped", doc.meta.doc_id)
            join = bool(out)
        elif join:
            out[-1] = out[-1] + " " + p
            join = False
        else:
            out.append(p)
    if join:
        logger.warning("%s: stitch marker at document edge dropped", doc.meta.doc_id)
    return Document(doc.meta, tuple(out))


def load_filter_rules(path: str | Path) -> dict[str, list[tuple[str, re.Pattern]]]:
    """Parse a pattern file: ``lang:regex`` per line (``lang`` is zh/en/*),
    matched at paragraph start, ``lang:=text`` for exact paragraph matches,
    ``#`` comments. A line may not hold a tab: it becomes the rule's label
    in the removal log. Returns ``{language: [(label, regex), ...]}`` for
    zh and en: that language's rules, then the ``*`` rules, in file order."""
    patterns: dict[str, list] = {"zh": [], "en": [], "*": []}

    def parse(fields, lineno):
        if len(fields) > 1:
            raise ValueError("a pattern line may not hold a tab")
        line = fields[0].strip()
        lang, sep, body = line.partition(":")
        if not sep or lang not in patterns or not body:
            raise ValueError("expected 'zh:'/'en:'/'*:' prefix and a pattern")
        try:
            rx = re.compile(re.escape(body[1:]) + r"\Z" if body.startswith("=") else body)
        except re.error as exc:
            raise ValueError(f"bad regex {body!r}: {exc}") from exc
        patterns[lang].append((line, rx))

    read_records(path, parse, comments=True)
    shared = patterns.pop("*")
    return {lang: rules + shared for lang, rules in patterns.items()}


def default_filter_rules() -> dict[str, list[tuple[str, re.Pattern]]]:
    with resources.as_file(
        resources.files("bitextkit.data").joinpath("filter_patterns.txt")
    ) as p:
        return load_filter_rules(p)


def filter_boilerplate(
    doc: Document, rules: dict[str, list[tuple[str, re.Pattern]]]
) -> tuple[Document, list[tuple[int, str]]]:
    """Drop boilerplate paragraphs; return the surviving document and a
    removal log of (original paragraph index, label of the first rule in
    ``rules[doc.meta.language]`` that matches)."""
    rule_list = rules[doc.meta.language]
    kept: list[str] = []
    removed: list[tuple[int, str]] = []
    for idx, p in enumerate(doc.paragraphs):
        hit = next((label for label, rx in rule_list if rx.match(p)), None)
        if hit is not None:
            removed.append((idx, hit))
        else:
            kept.append(p)
    return Document(doc.meta, tuple(kept)), removed


# ---------------------------------------------------------------------------
# truecasing
# ---------------------------------------------------------------------------

_INITIAL_TOKEN = re.compile(r"^([^\w]*)(\w[\w'-]*)(.*)$", re.DOTALL)


@dataclass(frozen=True)
class TruecaseModel:
    """Most frequent surface casing per lowercased token, with its count."""

    casing: dict

    def __post_init__(self):
        for key, (surface, _count) in self.casing.items():
            if key != surface.lower():
                raise ValueError(f"casing: key {key!r} != lowercase of {surface!r}")


def train_truecaser(corpus: list[Document]) -> TruecaseModel:
    """Count surface forms of non-paragraph-initial English tokens and keep
    the majority form per lowercased key (ties toward the form seen first)."""
    tokens: Counter[str] = Counter()
    for doc in corpus:
        if doc.meta.language != "en":
            continue
        for para in doc.paragraphs:
            tokens.update(para.split()[1:])
    # Counter keeps first-occurrence order, so each surface form still enters
    # its key's dict in the order it was first seen in the corpus
    counts: dict[str, dict[str, int]] = {}
    for token, n in tokens.items():
        m = _INITIAL_TOKEN.match(token)
        if m:
            core = m.group(2)
            forms = counts.setdefault(core.lower(), {})
            forms[core] = forms.get(core, 0) + n
    casing = {}
    for key, forms in counts.items():
        best = max(forms.items(), key=lambda kv: kv[1])  # first-seen wins ties
        casing[key] = best
    return TruecaseModel(casing)


def truecase_initial(text: str, model: TruecaseModel) -> str:
    """Replace the first token of a text unit by its majority casing."""
    m = _INITIAL_TOKEN.match(text)
    if not m:
        return text
    prefix, core, rest = m.groups()
    entry = model.casing.get(core.lower())
    if entry is None:
        return text
    return prefix + entry[0] + rest


def apply_truecaser(doc: Document, model: TruecaseModel) -> Document:
    """Truecase the paragraph-initial token of each paragraph (en only)."""
    if doc.meta.language != "en":
        return doc
    return Document(doc.meta, tuple(truecase_initial(p, model) for p in doc.paragraphs))

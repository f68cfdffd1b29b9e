"""Seeded synthetic zh/en corpora for the benchmark.

Every workload is built from a bilingual lexicon of Zipf-weighted word pairs
(English words are consonant-vowel pseudo-words, Chinese words are runs of
CJK ideographs), so sentence lengths correlate across sides the way real
translations do and the aligners' lexical models see a vocabulary of a few
thousand types. :func:`generate` writes the raw documents, ``metadata.tsv``,
machine translations in both directions, a gold alignment per article, the
pipeline config and ``plan.json`` (the sentence counts the pipeline must
reproduce).

The generator never imports the package. It reads the bundled abbreviation
and boilerplate-pattern files as data and checks its own plan against them
(:func:`check_plan`), so a segmenter that drifts from the plan shows up as a
failed article in the benchmark, not as a shifted F1.
"""

from __future__ import annotations

import datetime
import json
import random
import re
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "bitextkit" / "data"

LEXICON_SIZE = 3000
MT_DROP = 0.2  # share of words a machine translation loses
RECURRING_PAIRS = 12

EN_CONSONANTS = "bdfgklmnprstvz"
EN_VOWELS = "aeiou"
EN_FILLERS = ("the", "of", "and", "in", "to", "with", "for", "was", "were", "that", "from")
ZH_PARTICLES = ("的", "和", "在", "了")
#: A function-word bigram every sentence carries, as most real sentences
#: share one with their neighbours ("of the", "研究"). With it nearly every
#: (translation, sentence) cell clears min_score, so bleualign's anchor
#: search sees K ~ S*T above-threshold cells on every seed.
EN_CARRIER = "of the"
ZH_CARRIER = "研究"
#: Characters that open a bundled zh boilerplate pattern or end a sentence.
_ZH_EXCLUDED = set("图附表参考文献翻译者校对摘要。！？") | set(ZH_PARTICLES) | set(ZH_CARRIER)
ZH_CHARS = [c for c in map(chr, range(0x4E00, 0x4E00 + 600)) if c not in _ZH_EXCLUDED]
EN_STITCH_MARKER = "open in new tab"

#: Bead types are dealt from a shuffled deck with these counts, so every
#: seed has the same mix; a shuffled deck, not independent draws.
BEAD_DECK = {(1, 1): 44, (1, 2): 2, (2, 1): 2, (1, 0): 1, (0, 1): 1}


@dataclass(frozen=True)
class Shape:
    """Corpus shape and the pipeline settings one workload runs with."""

    articles: int
    paragraphs: int
    sentences: int  # source sentences per paragraph, at least
    method: str
    en_sbd: str = "rules"
    truecase: bool = False
    min_score: float = 0.0
    mismatch_share: float = 0.0  # articles whose en side has one extra paragraph break
    crawl_noise: bool = False  # figure captions, stitch artifacts, recurring sentences


#: Why each workload exists is in bench/README.md.
WORKLOADS = {
    "many-short-gc": Shape(
        articles=200, paragraphs=4, sentences=6, method="gc", truecase=True,
        mismatch_share=0.2, crawl_noise=True,
    ),
    "long-bleualign": Shape(
        articles=2, paragraphs=1, sentences=50, method="bleualign", min_score=0.02,
    ),
    "mid-moore": Shape(articles=6, paragraphs=3, sentences=6, method="moore", en_sbd="punkt"),
}


class Lexicon:
    """Zipf-weighted (zh word, en word) pairs, most frequent first.

    Word lengths are a fixed function of rank, and the HEAD most frequent
    zh words use characters no other word uses, so the length and n-gram
    statistics the aligners see are the same for every seed; only the
    spellings change.
    """

    HEAD = 150
    EN_SYLLABLES = (2, 3, 2, 4, 3)  # by rank, cycled
    ZH_HEAD_CHARS = (2, 1, 2, 3, 2)
    ZH_TAIL_CHARS = (2, 3, 2)

    def __init__(self, rng: random.Random, banned_en: frozenset[str]):
        self.zh: list[str] = []
        self.en: list[str] = []
        seen = set(banned_en) | set(EN_FILLERS)
        pool = list(ZH_CHARS)
        rng.shuffle(pool)
        head_chars = [pool.pop() for _ in range(sum(self.ZH_HEAD_CHARS) * self.HEAD // len(self.ZH_HEAD_CHARS))]
        for rank in range(LEXICON_SIZE):
            syllables = self.EN_SYLLABLES[rank % len(self.EN_SYLLABLES)]
            while True:
                en = "".join(rng.choice(EN_CONSONANTS) + rng.choice(EN_VOWELS) for _ in range(syllables))
                if en not in seen:
                    break
            if rank < self.HEAD:
                zh = "".join(head_chars.pop() for _ in range(self.ZH_HEAD_CHARS[rank % len(self.ZH_HEAD_CHARS)]))
            else:
                while True:
                    zh = "".join(rng.choice(pool) for _ in range(self.ZH_TAIL_CHARS[rank % len(self.ZH_TAIL_CHARS)]))
                    if zh not in seen:
                        break
            seen.update((en, zh))
            self.en.append(en)
            self.zh.append(zh)
        self._cum = list(accumulate(1.0 / rank for rank in range(1, LEXICON_SIZE + 1)))

    def concepts(self, rng: random.Random, k: int) -> list[int]:
        """k concept ids for one sentence. The last repeats an earlier one, so
        every sentence-final word also occurs mid-sentence: Punkt-style
        training then never scores a final word as an abbreviation."""
        ids = rng.choices(range(LEXICON_SIZE), cum_weights=self._cum, k=k - 1)
        return ids + [rng.choice(ids)]

    def en_sentence(self, rng: random.Random, ids: list[int]) -> str:
        carrier = rng.randrange(len(ids) - 1) if len(ids) > 1 else -1
        words: list[str] = []
        for n, i in enumerate(ids):
            words.append(self.en[i])
            if n == carrier:
                words.append(EN_CARRIER)
            elif n < len(ids) - 1 and rng.random() < 0.35:
                words.append(rng.choice(EN_FILLERS))
        text = " ".join(words) + "."
        return text[0].upper() + text[1:]

    def zh_sentence(self, rng: random.Random, ids: list[int]) -> str:
        carrier = rng.randrange(len(ids) - 1) if len(ids) > 1 else -1
        parts: list[str] = []
        for n, i in enumerate(ids):
            parts.append(self.zh[i])
            if n == carrier:
                parts.append(ZH_CARRIER)
            elif n < len(ids) - 1 and rng.random() < 0.25:
                parts.append(rng.choice(ZH_PARTICLES))
        return "".join(parts) + "。"


def _lossy(rng: random.Random, ids: list[int]) -> list[int]:
    kept = [i for i in ids if rng.random() >= MT_DROP]
    return kept or ids[:1]


@dataclass(frozen=True)
class Bead:
    """One planned bead: sentences on each side, and one machine-translation
    line per sentence (zh->en for zh sentences, en->zh for en sentences)."""

    zh: tuple[str, ...]
    en: tuple[str, ...]
    mt_fwd: tuple[str, ...]
    mt_rev: tuple[str, ...]


def make_bead(rng: random.Random, lex: Lexicon, kind: tuple[int, int]) -> Bead:
    """A bead of type kind. In 1-2 and 2-1 beads the single sentence carries
    the concepts of both sentences on the other side."""
    if 2 in kind:
        halves = [lex.concepts(rng, rng.randint(4, 7)) for _ in range(2)]
        groups = [halves, [halves[0] + halves[1]]]
        zh_groups, en_groups = groups if kind == (2, 1) else groups[::-1]
    else:
        ids = lex.concepts(rng, rng.randint(6, 11))
        zh_groups, en_groups = [ids] * kind[0], [ids] * kind[1]
    return Bead(
        zh=tuple(lex.zh_sentence(rng, g) for g in zh_groups),
        en=tuple(lex.en_sentence(rng, g) for g in en_groups),
        mt_fwd=tuple(lex.en_sentence(rng, _lossy(rng, g)) for g in zh_groups),
        mt_rev=tuple(lex.zh_sentence(rng, _lossy(rng, g)) for g in en_groups),
    )


@dataclass
class Article:
    pair_id: str
    date: datetime.date
    #: raw paragraphs as (kind, text); kind is text, caption, marker or citation
    zh_raw: list[tuple[str, str]] = field(default_factory=list)
    en_raw: list[tuple[str, str]] = field(default_factory=list)
    beads: list[Bead] = field(default_factory=list)
    en_paragraphs: int = 0  # after preprocessing

    @property
    def zh_sentences(self) -> list[str]:
        return [s for b in self.beads for s in b.zh]

    @property
    def en_sentences(self) -> list[str]:
        return [s for b in self.beads for s in b.en]

    def gold(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        out, i, j = [], 0, 0
        for b in self.beads:
            out.append((tuple(range(i, i + len(b.zh))), tuple(range(j, j + len(b.en)))))
            i, j = i + len(b.zh), j + len(b.en)
        return out


def bead_kinds(rng: random.Random):
    """Endless bead types, dealt from a reshuffled BEAD_DECK."""
    deck = [kind for kind, n in BEAD_DECK.items() for _ in range(n)]
    while True:
        rng.shuffle(deck)
        yield from deck


def _paragraph_beads(rng: random.Random, lex: Lexicon, shape: Shape, kinds, recurring: list[Bead]) -> list[Bead]:
    beads = [make_bead(rng, lex, (1, 1))]  # text on both sides opens a paragraph
    while sum(len(b.zh) for b in beads) < shape.sentences:
        beads.append(make_bead(rng, lex, next(kinds)))
    if recurring and rng.random() < 0.3:
        beads.append(rng.choice(recurring))
    return beads


def _caption(rng: random.Random, lex: Lexicon, n: int) -> tuple[str, str]:
    ids = lex.concepts(rng, rng.randint(3, 6))
    words = " ".join(lex.en[i] for i in ids)
    return f"图{n}" + "".join(lex.zh[i] for i in ids) + "。", f"Figure {n}. {words.capitalize()}."


def make_article(
    rng: random.Random, lex: Lexicon, shape: Shape, k: int, kinds, recurring: list[Bead], mismatch: bool
) -> Article:
    art = Article(f"P{k:04d}", datetime.date(2020, 1, 1) + datetime.timedelta(days=k))
    split_para = rng.randrange(shape.paragraphs) if mismatch else -1
    for p in range(shape.paragraphs):
        beads = _paragraph_beads(rng, lex, shape, kinds, recurring)
        art.beads.extend(beads)
        if shape.crawl_noise and p > 0 and rng.random() < 0.25:
            zh_cap, en_cap = _caption(rng, lex, p)
            art.zh_raw.append(("caption", zh_cap))
            art.en_raw.append(("caption", en_cap))
        art.zh_raw.append(("text", "".join(s for b in beads for s in b.zh)))
        if shape.crawl_noise and rng.random() < 0.1:
            a = rng.randint(1, 60)
            art.zh_raw.append(("citation", f"{a},{a + 1}"))
        # the en side may break this paragraph in two at a bead boundary
        cut = rng.randint(1, len(beads) - 1) if p == split_para and len(beads) > 1 else len(beads)
        groups = [[s for b in beads[:cut] for s in b.en], [s for b in beads[cut:] for s in b.en]]
        for sentences in filter(None, groups):
            art.en_paragraphs += 1
            if shape.crawl_noise and len(sentences) > 1 and rng.random() < 0.1:
                c = rng.randint(1, len(sentences) - 1)
                art.en_raw += [
                    ("text", " ".join(sentences[:c])),
                    ("marker", EN_STITCH_MARKER),
                    ("text", " ".join(sentences[c:])),
                ]
            else:
                art.en_raw.append(("text", " ".join(sentences)))
    return art


def load_abbreviations() -> frozenset[str]:
    lines = (DATA / "abbreviations.txt").read_text(encoding="utf-8").splitlines()
    return frozenset(ln.strip() for ln in lines if ln.strip() and not ln.startswith("#"))


def load_boilerplate_patterns() -> dict[str, list[re.Pattern]]:
    """The bundled filter patterns by language tag (``*`` for both)."""
    patterns: dict[str, list[re.Pattern]] = {}
    for line in (DATA / "filter_patterns.txt").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            lang, _, body = line.partition(":")
            regex = re.escape(body[1:]) + "$" if body.startswith("=") else body  # "=text": exact paragraph
            patterns.setdefault(lang, []).append(re.compile(regex))
    return patterns


_EN_SENTENCE = re.compile(r"[A-Z][a-z]*(?: [a-z]+)*\.")
_ZH_SENTENCE = re.compile(r"[^。！？\s\d]+。")


def check_plan(articles: list[Article], lex: Lexicon, abbrevs: frozenset[str]) -> None:
    """Raise ValueError unless the plan is reproducible by the segmenters:
    one terminator per sentence, no abbreviation or initial before a period,
    boilerplate only in its own paragraphs, sentence-final English words
    also seen mid-sentence, and one MT line per sentence."""
    patterns = load_boilerplate_patterns()
    bad = sorted(w for w in lex.en if w in abbrevs or len(w) < 2)
    if bad:
        raise ValueError(f"lexicon words read as abbreviations or initials: {bad[:5]}")
    final: dict[str, int] = {}
    inner: dict[str, int] = {}
    for art in articles:
        for s in art.en_sentences:
            if not _EN_SENTENCE.fullmatch(s):
                raise ValueError(f"{art.pair_id}: malformed en sentence {s!r}")
            words = s[:-1].lower().split()
            final[words[-1]] = final.get(words[-1], 0) + 1
            for w in words[:-1]:
                inner[w] = inner.get(w, 0) + 1
        for s in art.zh_sentences:
            if not _ZH_SENTENCE.fullmatch(s):
                raise ValueError(f"{art.pair_id}: malformed zh sentence {s!r}")
        for lang, raw in (("zh", art.zh_raw), ("en", art.en_raw)):
            for kind, text in raw:
                hit = any(rx.match(text) for rx in patterns.get(lang, []) + patterns.get("*", []))
                if hit != (kind == "caption"):
                    raise ValueError(f"{art.pair_id}: {kind} paragraph {text[:30]!r} vs boilerplate filter")
        for side, sentences, mt in (("zh", art.zh_sentences, "mt_fwd"), ("en", art.en_sentences, "mt_rev")):
            lines = [line for b in art.beads for line in getattr(b, mt)]
            if len(lines) != len(sentences) or not all(line.strip() for line in lines):
                raise ValueError(f"{art.pair_id}: {mt} lines do not match the {side} sentences")
    lonely = sorted(w for w, n in final.items() if inner.get(w, 0) < n)
    if lonely:
        raise ValueError(f"sentence-final words rarer mid-sentence: {lonely[:5]}")


def generate(name: str, seed: int, directory: Path) -> dict:
    """Write workload ``name`` for ``seed`` under ``directory``; return the
    plan (also written as plan.json)."""
    shape = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    abbrevs = load_abbreviations()
    lex = Lexicon(rng, abbrevs)
    recurring = [make_bead(rng, lex, (1, 1)) for _ in range(RECURRING_PAIRS)] if shape.crawl_noise else []
    kinds = bead_kinds(rng)
    mismatched = set(rng.sample(range(shape.articles), round(shape.mismatch_share * shape.articles)))
    articles = [
        make_article(rng, lex, shape, k, kinds, recurring, k in mismatched) for k in range(shape.articles)
    ]
    check_plan(articles, lex, abbrevs)

    for sub in ("raw", "mt_zh2en", "mt_en2zh", "gold"):
        (directory / sub).mkdir(parents=True, exist_ok=True)
    meta = []
    for art in articles:
        for lang, raw in (("zh", art.zh_raw), ("en", art.en_raw)):
            doc_id = f"{art.pair_id}-{lang}"
            meta.append(f"{doc_id}\t{art.pair_id}\t{lang}\t{art.date.isoformat()}\tresearch\n")
            _write(directory / "raw" / f"{doc_id}.txt", "".join(text + "\n" for _, text in raw))
        _write(directory / "mt_zh2en" / f"{art.pair_id}.txt", "".join(f"{s}\n" for b in art.beads for s in b.mt_fwd))
        _write(directory / "mt_en2zh" / f"{art.pair_id}.txt", "".join(f"{s}\n" for b in art.beads for s in b.mt_rev))
        lines = [f"# src_len={len(art.zh_sentences)}\ttgt_len={len(art.en_sentences)}\n"]
        lines += [f"{_ix(s)}\t{_ix(t)}\tNA\tgold\n" for s, t in art.gold()]
        _write(directory / "gold" / f"{art.pair_id}.tsv", "".join(lines))
    _write(directory / "raw" / "metadata.tsv", "".join(meta))

    held_out = max(1, sum(1 for b in (b for a in articles for b in a.beads) if b.zh and b.en) // 10)
    config = {
        "input": "raw",
        "output": "out",
        "method": shape.method,
        "en_sbd": shape.en_sbd,
        "truecase": shape.truecase,
        "min_score": shape.min_score,
        "mt_src": "mt_zh2en",
        "mt_tgt": "mt_en2zh",
        "split": {"test_sentence_target": held_out, "dev_sentence_target": held_out},
        "hash": "blake2b-64",
    }
    _write(directory / "config.json", json.dumps(config, indent=2, sort_keys=True) + "\n")
    plan = {
        "workload": name,
        "seed": seed,
        "articles": {
            a.pair_id: {
                "src_len": len(a.zh_sentences),
                "tgt_len": len(a.en_sentences),
                "src_paragraphs": shape.paragraphs,
                "tgt_paragraphs": a.en_paragraphs,
            }
            for a in articles
        },
    }
    _write(directory / "plan.json", json.dumps(plan, indent=1, sort_keys=True) + "\n")
    return plan


def _ix(indices: tuple[int, ...]) -> str:
    return ",".join(map(str, indices))


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")

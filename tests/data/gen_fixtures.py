#!/usr/bin/env python3
"""Regenerate the hand-designed integration corpus under tests/data/.

Twelve small zh/en article pairs exercise every pipeline stage: boilerplate
paragraphs, crawl artifacts that need stitching, citation markers glued to
terminators, repeated boilerplate sentences for dedup, merge/split/deletion
beads, two articles whose sentence lengths mislead a pure length-based
aligner, one article with unusable machine translations for a stretch of
sentences, and one with two swapped translation lines. Reference alignments
are written per article; machine translations are written one line per
source sentence in both directions.

The script is deterministic and asserts every property the test suite
relies on (aligner quality ordering, junk-translation scores staying under
the anchor threshold, duplicate structure, segmenter behavior), so a
regeneration that breaks the design fails here and not in the tests.

Run from the repository root:  python3 tests/data/gen_fixtures.py
"""

from __future__ import annotations

import datetime
import json
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from bitextkit.bleualign import bleualign
from bitextkit.core import (
    AlignmentSet,
    ArticleMeta,
    Bead,
    Document,
    SentenceList,
    validate_gold,
    write_alignments,
    write_documents,
)
from bitextkit.evaluation import prf1
from bitextkit.gale_church import estimate_length_params, gc_align, norm_cdf
from bitextkit.moore import length_pass, moore_align, train_lexicon
from bitextkit.pipeline import _segment, pair_hash
from bitextkit.preprocess import (
    default_filter_rules,
    filter_boilerplate,
    normalize_document,
    stitch_paragraphs,
)
from bitextkit.sbd import default_abbrevs, segment_en_rules, segment_punkt, train_punkt
from bitextkit.scoring import sentence_bleu, tokenize

BASE = Path(__file__).resolve().parent
CORPUS = BASE / "corpus"

MIN_SCORE = 0.02  # anchor threshold used by the corpus config

#: zh word <-> en word, used word-for-word in both directions.
CONCEPTS = [
    ("患者", "patients"), ("医生", "doctors"), ("治疗", "treatment"),
    ("药物", "medication"), ("研究", "study"), ("数据", "data"),
    ("结果", "results"), ("方法", "methods"), ("医院", "hospital"),
    ("疾病", "disease"), ("症状", "symptoms"), ("手术", "surgery"),
    ("随访", "followup"), ("剂量", "dose"), ("安全", "safety"),
    ("试验", "trial"), ("显著", "significant"), ("降低", "reduced"),
    ("增加", "increased"), ("比较", "compared"),
]
FILLERS = ["the", "of", "in", "for", "was"]
LONG_FILLERS = ["throughout", "between", "overall", "during", "within"]


@dataclass
class PlannedBead:
    """One reference bead with its final sentence texts and translations."""

    zh: list[str]
    en: list[str]
    kind: str = "n"
    mt_fwd: list[str] = field(default_factory=list)  # one line per zh sentence
    mt_rev: list[str] = field(default_factory=list)  # one line per en sentence
    note: str = ""

    def __post_init__(self):
        if not self.mt_fwd:
            self.mt_fwd = [" ".join(self.en)] * len(self.zh)
        if not self.mt_rev:
            self.mt_rev = ["".join(self.zh)] * len(self.en)


def header_bead() -> PlannedBead:
    return PlannedBead(["摘要。"], ["Abstract."], kind="hdr")


def zh_citation(rng: random.Random) -> str:
    a = rng.randint(1, 40)
    return f"{a},{a + 1}"


def en_citation(rng: random.Random) -> str:
    a = rng.randint(1, 40)
    return f"{a}-{a + 2}"


def normal_bead(rng: random.Random, k: int | None = None, cite: bool = False) -> PlannedBead:
    """A 1-1 bead of k concepts, optionally with citation markers glued to
    both terminators."""
    k = k if k is not None else rng.randint(3, 5)
    pairs = rng.sample(CONCEPTS, k)
    zh = "".join(z for z, _ in pairs) + "。"
    toks = [e for _, e in pairs]
    for _ in range(rng.randint(1, 2)):
        toks.insert(rng.randint(1, len(toks)), rng.choice(FILLERS + LONG_FILLERS))
    if rng.random() < 0.35:
        toks.insert(0, "the")
    en = " ".join(toks) + "."
    en = en[0].upper() + en[1:]
    if cite:
        zh += zh_citation(rng)
        en += en_citation(rng)
    return PlannedBead([zh], [en], kind="cite" if cite else "n")


def split_bead(rng: random.Random) -> PlannedBead:
    """One zh sentence translated as two en sentences (1-2)."""
    pairs = rng.sample(CONCEPTS, 6)
    zh = "".join(z for z, _ in pairs) + "。"
    en1 = " ".join(e for _, e in pairs[:3]) + "."
    en2 = " ".join(e for _, e in pairs[3:]) + "."
    en1, en2 = en1[0].upper() + en1[1:], en2[0].upper() + en2[1:]
    zh_half1 = "".join(z for z, _ in pairs[:3])
    zh_half2 = "".join(z for z, _ in pairs[3:]) + "。"
    return PlannedBead(
        [zh], [en1, en2], kind="12",
        mt_fwd=[f"{en1} {en2}"], mt_rev=[zh_half1, zh_half2],
        note="one zh sentence rendered as two en sentences",
    )


def merge_bead(rng: random.Random) -> PlannedBead:
    """Two zh sentences translated as one en sentence (2-1)."""
    pairs = rng.sample(CONCEPTS, 5)
    zh1 = "".join(z for z, _ in pairs[:3]) + "。"
    zh2 = "".join(z for z, _ in pairs[3:]) + "。"
    words = [e for _, e in pairs]
    en = " ".join(words) + "."
    en = en[0].upper() + en[1:]
    half1 = " ".join(words[:3])
    half1 = half1[0].upper() + half1[1:]
    half2 = " ".join(words[3:]) + "."
    return PlannedBead(
        [zh1, zh2], [en], kind="21",
        mt_fwd=[half1, half2], mt_rev=["".join([zh1, zh2])],
        note="two zh sentences rendered as one en sentence",
    )


def zh_only_bead() -> PlannedBead:
    """A zh sentence with no counterpart; its words occur nowhere else."""
    return PlannedBead(
        ["伦理审查已经通过。"], [], kind="10",
        mt_fwd=["Ethics committee approval obtained beforehand"],
        note="no en counterpart",
    )


def en_only_bead() -> PlannedBead:
    """An en sentence with no counterpart; its words occur nowhere else."""
    return PlannedBead(
        [], ["Funding sources were disclosed separately elsewhere."], kind="01",
        mt_rev=["资金来源披露见附录"],
        note="no zh counterpart",
    )


def trap_beads(rng: random.Random, garbage_mt: bool = False) -> list[PlannedBead]:
    """Two adjacent 1-1 beads whose character lengths make a 2-2 merge look
    far better to a pure length model: the first is short-zh/long-en, the
    second long-zh/short-en, and the concatenation is balanced. Concepts are
    drawn from the 7-8 letter words so the geometry is stable per article.
    """
    pool = [p for p in CONCEPTS if 7 <= len(p[1]) <= 8]
    pairs = rng.sample(pool, 10)
    a_zh = "".join(z for z, _ in pairs[:2]) + "。"
    a_toks = (
        [pairs[0][1]] + LONG_FILLERS[:3] + [pairs[1][1]] + LONG_FILLERS[3:]
    )
    a_en = " ".join(a_toks) + "."
    a_en = a_en[0].upper() + a_en[1:]
    b_zh = "".join(z for z, _ in pairs[2:]) + "。"
    b_en = " ".join(e for _, e in pairs[2:6]) + "."
    b_en = b_en[0].upper() + b_en[1:]
    beads = [
        PlannedBead([a_zh], [a_en], kind="trap", note="short zh, long en"),
        PlannedBead([b_zh], [b_en], kind="trap", note="long zh, short en"),
    ]
    if garbage_mt:
        for bead, junk in zip(beads, _junk_lines(rng, 2)):
            bead.mt_fwd = [junk]
            bead.kind = "noisy"
    return beads


def _junk_lines(rng: random.Random, n: int) -> list[str]:
    """Translation lines sharing no token with any real sentence (and no
    terminator, so not even punctuation matches)."""
    syllables = ["zq", "xv", "wj", "kq", "vz", "qx", "jw"]
    return [
        " ".join(rng.choice(syllables) + rng.choice("aeiou") for _ in range(6))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# article plans


def build_articles(rng: random.Random) -> dict[str, list[list[PlannedBead]]]:
    """pair_id -> paragraphs (each a list of beads covering both sides)."""
    n, c = normal_bead, lambda: normal_bead(rng, cite=True)

    dup = normal_bead(rng, k=4)
    dup_copy = PlannedBead(list(dup.zh), list(dup.en), kind="dup")

    cd = normal_bead(rng, k=4)
    cd1 = PlannedBead(
        [cd.zh[0] + "3,4"], [cd.en[0] + "7-9"], kind="citedup",
    )
    cd2 = PlannedBead(
        [cd.zh[0] + "5,6"], [cd.en[0] + "10-12"], kind="citedup",
    )

    noisy_extra = normal_bead(rng, k=4)
    noisy_extra.mt_fwd = _junk_lines(rng, 1)
    noisy_extra.kind = "noisy"

    swap_a, swap_b = normal_bead(rng, k=4), normal_bead(rng, k=5)
    swap_a.kind = swap_b.kind = "swap"
    swap_a.mt_fwd, swap_b.mt_fwd = [swap_b.en[0]], [swap_a.en[0]]

    # A04 paragraph 2 arrives broken from the crawl; the citation fragment
    # re-attaches to this bead's zh sentence during stitching.
    stitch1, stitch2 = normal_bead(rng, k=4), normal_bead(rng, k=4)
    stitch2.zh[0] += "1,2"
    stitch2.mt_rev = [stitch2.zh[0]]

    return {
        "A01": [[header_bead()], [n(rng), c(), n(rng), n(rng)],
                [n(rng), n(rng), n(rng)], [n(rng), n(rng)]],
        "A02": [[header_bead()], [n(rng), c(), n(rng)],
                [*trap_beads(rng), n(rng)], [n(rng), n(rng), n(rng)]],
        "A03": [[header_bead()], [n(rng), split_bead(rng), n(rng)],
                [n(rng), merge_bead(rng), c(), n(rng)], [n(rng), n(rng)]],
        "A04": [[header_bead()], [n(rng), c(), n(rng)], [stitch1, stitch2]],
        "A05": [[header_bead()], [n(rng), zh_only_bead(), n(rng), c(), n(rng)],
                [n(rng), en_only_bead(), n(rng)], [n(rng), n(rng)]],
        "A06": [[header_bead()], [n(rng), dup, dup_copy, c(), n(rng)],
                [n(rng), n(rng), n(rng)]],
        "A07": [[header_bead()], [n(rng), n(rng)],
                [*trap_beads(rng), n(rng)], [n(rng), c(), n(rng)]],
        "A08": [[header_bead()], [n(rng), c(), n(rng)],
                [n(rng), c(), n(rng)], [n(rng), n(rng)]],
        "A09": [[header_bead()], [n(rng), n(rng), c(), n(rng)],
                [*trap_beads(rng, garbage_mt=True), noisy_extra], [n(rng), n(rng)]],
        "A10": [[header_bead()], [n(rng), cd1, cd2, n(rng)],
                [n(rng), c(), n(rng)]],
        "A11": [[header_bead()], [n(rng), swap_a, swap_b, n(rng)],
                [n(rng), c(), n(rng)]],
        "A12": [[header_bead()], [n(rng), n(rng), c(), n(rng)],
                [n(rng), n(rng), n(rng)], [n(rng), n(rng)]],
    }


def article_views(paragraphs: list[list[PlannedBead]]):
    """Flatten a plan into (zh sentences, en sentences, paragraph indices,
    gold beads) with sentence indices assigned in document order."""
    zh_sents: list[str] = []
    en_sents: list[str] = []
    zh_para: list[int] = []
    en_para: list[int] = []
    beads: list[Bead] = []
    notes: list[str | None] = []
    for p, para in enumerate(paragraphs):
        for bead in para:
            src = tuple(range(len(zh_sents), len(zh_sents) + len(bead.zh)))
            tgt = tuple(range(len(en_sents), len(en_sents) + len(bead.en)))
            zh_sents.extend(bead.zh)
            en_sents.extend(bead.en)
            zh_para.extend([p] * len(bead.zh))
            en_para.extend([p] * len(bead.en))
            beads.append(Bead(src, tgt, None, "gold"))
            notes.append(bead.note or None)
    return zh_sents, en_sents, zh_para, en_para, beads, notes


def raw_paragraphs(pair_id, paragraphs) -> tuple[list[str], list[str]]:
    """Raw on-disk paragraph lists: the clean text plus crawl noise that the
    preprocessing stage must remove or repair."""
    zh = ["".join(s for b in para for s in b.zh) for para in paragraphs]
    en = [" ".join(s for b in para for s in b.en) for para in paragraphs]
    zh = [p for p in zh if p]
    en = [p for p in en if p]
    if pair_id == "A04":
        # paragraph 2 arrives broken: zh trails a citation-only fragment that
        # belongs to its last sentence, en is split around a crawl marker.
        assert zh[2].endswith("1,2") and len(paragraphs[2]) == 2
        zh = zh[:2] + [zh[2][: -len("1,2")], "1,2"] + zh[3:]
        first, second = (b.en[0] for b in paragraphs[2])
        en = en[:2] + [first, "open in new tab", second] + en[3:]
    zh.insert(1, "图1试验流程图。")
    en.insert(1, "Figure 1. Trial flow diagram.")
    if pair_id in ("A03", "A08"):
        zh.append("参考文献")
        en.append("References")
    return zh, en


# ---------------------------------------------------------------------------
# consistency checks


def check_preprocess_and_sbd(raw_docs, articles):
    """The package's own cleanup + segmentation must reproduce the planned
    sentences exactly (with truecasing off, as in the corpus config)."""
    rules = default_filter_rules()
    by_id = {d.meta.doc_id: d for d in raw_docs}
    en_docs_post = []
    for pair_id, paragraphs in articles.items():
        zh_sents, en_sents, zh_para, en_para, _, _ = article_views(paragraphs)
        for lang, want_sents, want_para in (
            ("zh", zh_sents, zh_para), ("en", en_sents, en_para)
        ):
            doc = by_id[f"{pair_id}-{lang}"]
            post, _ = filter_boilerplate(stitch_paragraphs(normalize_document(doc)), rules)
            if lang == "en":
                en_docs_post.append(post)
            got = _segment(post, default_abbrevs(), None)
            assert list(got.sentences) == want_sents, (
                f"{pair_id}-{lang}: segmented sentences differ from plan:\n"
                f"got  {list(got.sentences)}\nwant {want_sents}"
            )
            assert list(got.paragraph_index) == want_para, f"{pair_id}-{lang}: paragraph indices differ"
    return en_docs_post


def check_segmenter_gap(articles, en_docs_post):
    """The unsupervised en segmenter must under-split every article (it
    cannot see citation markers as sentence ends) while the rules match the
    zh counts exactly."""
    model = train_punkt(en_docs_post)
    assert not model.abbreviations, (
        f"unsupervised model learned abbreviations {sorted(model.abbreviations)}; "
        "the corpus is designed to contain none"
    )
    rules_diff, punkt_diff = [], []
    for doc in en_docs_post:
        zh_sents, en_sents, _, _, _, _ = article_views(articles[doc.meta.pair_id])
        assert len(zh_sents) == len(en_sents), doc.meta.pair_id  # designed equal
        n_rules = sum(len(segment_en_rules(p)) for p in doc.paragraphs)
        n_punkt = sum(len(segment_punkt(p, model)) for p in doc.paragraphs)
        rules_diff.append(abs(len(zh_sents) - n_rules))
        punkt_diff.append(abs(len(zh_sents) - n_punkt))
    assert statistics.median(rules_diff) == 0, rules_diff
    assert statistics.median(punkt_diff) >= 1, punkt_diff
    return rules_diff, punkt_diff


def check_duplicates(articles):
    """Exactly the planned near-duplicate structure, nothing accidental."""
    rows = []
    for pair_id, paragraphs in articles.items():
        for para in paragraphs:
            for bead in para:
                if bead.zh and bead.en:
                    rows.append(("".join(bead.zh), " ".join(bead.en)))
    counts = Counter(pair_hash(s, t) for s, t in rows)
    dupes = sorted(counts.values(), reverse=True)
    assert dupes[:3] == [12, 2, 2] and all(c == 1 for c in dupes[3:]), (
        f"unexpected duplicate structure: {dupes[:6]}"
    )


def check_junk_scores(articles):
    """Junk and one-sided translation lines stay under the anchor threshold
    against every real sentence on their side."""
    all_en, all_zh = [], []
    for paragraphs in articles.values():
        zh_sents, en_sents, _, _, _, _ = article_views(paragraphs)
        all_en.extend(en_sents)
        all_zh.extend(zh_sents)
    for paragraphs in articles.values():
        for para in paragraphs:
            for bead in para:
                if bead.kind in ("noisy", "10"):
                    for line in bead.mt_fwd:
                        worst = max(
                            sentence_bleu(tokenize(line, "en"), tokenize(s, "en"))
                            for s in all_en
                        )
                        assert worst < MIN_SCORE, (bead.kind, line, worst)
                if bead.kind == "01":
                    for line in bead.mt_rev:
                        worst = max(
                            sentence_bleu(tokenize(line, "zh"), tokenize(s, "zh"))
                            for s in all_zh
                        )
                        assert worst < MIN_SCORE, (bead.kind, line, worst)


def check_trap_geometry(articles, params):
    """The engineered length traps must actually look mergeable: each half
    far off the fitted length ratio, the concatenation close to it."""
    for pair_id, paragraphs in articles.items():
        for para in paragraphs:
            traps = [b for b in para if b.kind in ("trap", "noisy") and b.note]
            traps = [b for b in traps if "zh" in b.note]
            if len(traps) < 2:
                continue
            a, b = traps[0], traps[1]
            deltas = []
            for zh_chars, en_chars in (
                (len(a.zh[0]), len(a.en[0])),
                (len(b.zh[0]), len(b.en[0])),
                (len(a.zh[0]) + len(b.zh[0]), len(a.en[0]) + len(b.en[0])),
            ):
                deltas.append(
                    (en_chars - zh_chars * params.c)
                    / (zh_chars * params.s2) ** 0.5
                )
            assert abs(deltas[0]) > 2.5, (pair_id, deltas)
            assert abs(deltas[1]) > 2.5, (pair_id, deltas)
            assert abs(deltas[2]) < 0.8, (pair_id, deltas)
            two_tail = lambda d: 2.0 * (1.0 - norm_cdf(abs(d)))
            assert two_tail(deltas[2]) > two_tail(deltas[0]) * two_tail(deltas[1])


# ---------------------------------------------------------------------------
# alignment quality of the finished corpus


def _mt_lists(articles, pair_id, zh_sl, en_sl):
    fwd, rev = [], []
    for para in articles[pair_id]:
        for bead in para:
            fwd.extend(bead.mt_fwd)
            rev.extend(bead.mt_rev)
    mt_fwd = SentenceList(f"{pair_id}-mt", "en", tuple(fwd), zh_sl.paragraph_index)
    mt_rev = SentenceList(f"{pair_id}-mt-rev", "zh", tuple(rev), en_sl.paragraph_index)
    return mt_fwd, mt_rev


def _pooled(per_article: list[tuple]):
    """Concatenate (predicted, gold) pairs into one pair with offset indices."""
    beads_p, beads_g, notes = [], [], []
    src_off = tgt_off = 0
    for pred, gold in per_article:
        shift = lambda b: Bead(
            tuple(i + src_off for i in b.src),
            tuple(j + tgt_off for j in b.tgt),
            b.score,
            b.method,
        )
        beads_p.extend(shift(b) for b in pred.beads)
        beads_g.extend(shift(b) for b in gold.beads)
        notes.extend(gold.notes)
        src_off += gold.src_len
        tgt_off += gold.tgt_len
    return (
        AlignmentSet(tuple(beads_p), src_off, tgt_off),
        AlignmentSet(tuple(beads_g), src_off, tgt_off, tuple(notes)),
    )


def check_aligner_ordering(articles, golds):
    sls = {}
    for pair_id, paragraphs in articles.items():
        zh_sents, en_sents, zh_para, en_para, _, _ = article_views(paragraphs)
        zh_sl = SentenceList(f"{pair_id}-zh", "zh", tuple(zh_sents), tuple(zh_para))
        en_sl = SentenceList(f"{pair_id}-en", "en", tuple(en_sents), tuple(en_para))
        sls[pair_id] = (zh_sl, en_sl, *_mt_lists(articles, pair_id, zh_sl, en_sl))

    paragraph_pairs = []
    for zh_sl, en_sl, _, _ in sls.values():
        paragraph_pairs.extend(
            zip(zh_sl.paragraph_lengths(), en_sl.paragraph_lengths(), strict=True)
        )
    params = estimate_length_params(paragraph_pairs)
    check_trap_geometry(articles, params)

    confident = {
        pid: length_pass(zh_sl, en_sl)[1] for pid, (zh_sl, en_sl, _, _) in sls.items()
    }
    table = train_lexicon(
        [(sls[pid][0], sls[pid][1], confident[pid]) for pid in sls]
    )

    outputs = {"gc": [], "moore": [], "bleu-uni": [], "bleu-bi": []}
    for pid, (zh_sl, en_sl, mt_fwd, mt_rev) in sls.items():
        gold = golds[pid]
        outputs["gc"].append((gc_align(zh_sl, en_sl, params), gold))
        outputs["moore"].append((moore_align(zh_sl, en_sl, table), gold))
        uni = bleualign(zh_sl, en_sl, mt_fwd, None, min_score=MIN_SCORE, params=params)
        bi = bleualign(zh_sl, en_sl, mt_fwd, mt_rev, min_score=MIN_SCORE, params=params)
        outputs["bleu-uni"].append((uni, gold))
        outputs["bleu-bi"].append((bi, gold))
        assert {b.key for b in bi.beads} <= {b.key for b in uni.beads}, pid
        if pid == "A03":
            keys = {b.key for b in uni.beads}
            gold_keys = {b.key for b in gold.beads if b.bead_type != (1, 1)}
            assert gold_keys <= keys, f"A03: merge/split beads not recovered: {keys}"
        if pid == "A11":
            swap_src = next(
                k for k, b in enumerate(gold.beads) if b.method == "gold"
                and _bead_kind(articles, pid, k) == "swap"
            )
            bad = (gold.beads[swap_src].src, gold.beads[swap_src + 1].tgt)
            assert bad in {b.key for b in uni.beads}, "A11: swapped lines not mis-anchored"
            assert bad not in {b.key for b in bi.beads}, "A11: intersection kept the bad bead"

    scores = {}
    for name, pairs in outputs.items():
        pred, gold = _pooled(pairs)
        scores[name] = prf1(pred, gold)
    assert scores["moore"][2] > scores["bleu-uni"][2] > scores["gc"][2], scores
    assert scores["bleu-bi"][0] > scores["bleu-uni"][0], scores
    assert scores["bleu-bi"][1] <= scores["bleu-uni"][1], scores
    # The lexicon route may still drop the 1-1 neighbours of deletion beads:
    # absorbing a stray sentence into a 2-1 bead is prior-cheaper than a
    # 1-0 deletion, which dilutes the neighbour's 1-1 posterior below the
    # acceptance threshold.  Allow those two, nothing more.
    assert scores["moore"][0] == 1.0 and scores["moore"][1] >= 0.97, scores
    return scores


def _bead_kind(articles, pair_id, bead_index) -> str:
    k = 0
    for para in articles[pair_id]:
        for bead in para:
            if k == bead_index:
                return bead.kind
            k += 1
    raise IndexError(bead_index)


# ---------------------------------------------------------------------------
# the synthetic bead-type distribution reference


def write_type_distribution(rng: random.Random, path: Path):
    """A 1019-bead reference alignment with the bead-type counts the
    evaluation tests pin down (964/17/15/10/11/1/1)."""
    type_counts = {
        (1, 1): 964, (1, 2): 17, (2, 1): 15, (1, 0): 10,
        (0, 1): 11, (2, 2): 1, (2, 3): 1,
    }
    shapes = [t for t, c in type_counts.items() for _ in range(c)]
    rng.shuffle(shapes)
    beads = []
    i = j = 0
    for m, n in shapes:
        beads.append(Bead(tuple(range(i, i + m)), tuple(range(j, j + n)), None, "gold"))
        i += m
        j += n
    gold = AlignmentSet(tuple(beads), i, j)
    assert validate_gold(gold) == []
    write_alignments(gold, path)


# ---------------------------------------------------------------------------


def main():
    rng = random.Random(73)
    articles = build_articles(rng)

    for pair_id, paragraphs in articles.items():
        for para in paragraphs:
            assert not (para[-1].kind in ("cite", "citedup")), (
                f"{pair_id}: citation bead must not end a paragraph"
            )

    raw_docs, golds = [], {}
    for k, (pair_id, paragraphs) in enumerate(articles.items()):
        d = datetime.date(2021, 6, 30) - datetime.timedelta(days=10 * k)
        zh_raw, en_raw = raw_paragraphs(pair_id, paragraphs)
        art_type = "research" if k % 3 else "review"
        for lang, paras in (("zh", zh_raw), ("en", en_raw)):
            meta = ArticleMeta(f"{pair_id}-{lang}", pair_id, lang, d, art_type)
            raw_docs.append(Document(meta, tuple(paras)))
        zh_sents, en_sents, _, _, beads, notes = article_views(paragraphs)
        gold = AlignmentSet(tuple(beads), len(zh_sents), len(en_sents), tuple(notes))
        assert validate_gold(gold) == [], (pair_id, validate_gold(gold))
        golds[pair_id] = gold

    en_docs_post = check_preprocess_and_sbd(raw_docs, articles)
    rules_diff, punkt_diff = check_segmenter_gap(articles, en_docs_post)
    check_duplicates(articles)
    check_junk_scores(articles)
    scores = check_aligner_ordering(articles, golds)

    raw_dir = CORPUS / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    write_documents(raw_docs, raw_dir)
    gold_dir = CORPUS / "gold"
    gold_dir.mkdir(exist_ok=True)
    for pair_id, gold in golds.items():
        write_alignments(gold, gold_dir / f"{pair_id}.tsv")
    for direction, lang_key in (("mt_zh2en", "mt_fwd"), ("mt_en2zh", "mt_rev")):
        mt_dir = CORPUS / direction
        mt_dir.mkdir(exist_ok=True)
        for pair_id, paragraphs in articles.items():
            lines = [
                line
                for para in paragraphs
                for bead in para
                for line in getattr(bead, lang_key)
            ]
            (mt_dir / f"{pair_id}.txt").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )

    config = {
        "input": "raw",
        "output": "out",
        "method": "moore",
        "truecase": False,
        "min_score": MIN_SCORE,
        "mt_src": "mt_zh2en",
        "mt_tgt": "mt_en2zh",
        "split": {"test_sentence_target": 25, "dev_sentence_target": 25},
        "hash": "blake2b-64",
    }
    (CORPUS / "config.json").write_text(
        json.dumps(config, indent=2) + "\n", encoding="utf-8"
    )

    write_type_distribution(random.Random(19), BASE / "gold_distribution.tsv")

    print(f"wrote {len(articles)} article pairs under {CORPUS}")
    print(f"rule/unsupervised segmenter |zh-en| gaps: {rules_diff} / {punkt_diff}")
    for name, (p, r, f) in scores.items():
        print(f"  {name:9s} precision={p:.4f} recall={r:.4f} f1={f:.4f}")


if __name__ == "__main__":
    main()

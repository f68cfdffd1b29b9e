"""Release gate: ten checks covering every component at fixed tolerances.

Each criterion is one test function, so ``pytest tests/test_acceptance.py -v``
prints exactly one pass/fail line per criterion. The checks lean on
independent oracles (exhaustive enumeration, the stdlib error function,
hand-derived constants) rather than re-using library internals wherever an
oracle exists.
"""

import dataclasses
import json
import math
import random
import statistics
import time
from pathlib import Path

import pytest

from bitextkit.bleualign import ScoreMatrix, bleualign, find_anchors
from bitextkit.core import (
    SentenceList,
    read_alignments,
    read_documents,
    validate_alignment,
)
from bitextkit.evaluation import alignment_type_distribution
from bitextkit.gale_church import (
    GC_MOVES,
    LengthParams,
    estimate_length_params,
    gc_align,
    norm_cdf,
)
from bitextkit.moore import length_pass, moore_align, train_ibm1, train_lexicon
from bitextkit.pipeline import _read_mt, _segment, dedup_pairs, load_config, run_pipeline
from bitextkit.preprocess import (
    default_filter_rules,
    filter_boilerplate,
    normalize_document,
    stitch_paragraphs,
)
from bitextkit.sbd import (
    default_abbrevs,
    segment_en_rules,
    segment_punkt,
    segment_zh,
    train_punkt,
)
from bitextkit.scoring import sentence_bleu
from test_bleualign import brute_force_chain
from test_gale_church import gc_cost

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "corpus"


# ---------------------------------------------------------------------------
# shared fixture-corpus plumbing

@pytest.fixture(scope="module")
def corpus_docs():
    """The bundled 12-article corpus, preprocessed the way the pipeline does."""
    rules = default_filter_rules()
    return [
        filter_boilerplate(stitch_paragraphs(normalize_document(d)), rules)[0]
        for d in read_documents(CORPUS / "raw")
    ]


@pytest.fixture(scope="module")
def corpus_views(corpus_docs):
    """Per article: segmented zh/en sides plus both machine translations."""
    abbrevs = default_abbrevs()
    segmented = {d.meta.doc_id: _segment(d, abbrevs, None) for d in corpus_docs}
    views = {}
    for pid in sorted({d.meta.pair_id for d in corpus_docs}):
        zh, en = segmented[f"{pid}-zh"], segmented[f"{pid}-en"]
        views[pid] = (
            zh,
            en,
            _read_mt(CORPUS / "mt_zh2en" / f"{pid}.txt", f"{pid}-mt", "en", zh),
            _read_mt(CORPUS / "mt_en2zh" / f"{pid}.txt", f"{pid}-mt-rev", "zh", en),
        )
    return views


# ---------------------------------------------------------------------------
# 1. dynamic-programming aligner vs exhaustive enumeration

def exhaustive_best_total(slen, tlen, params) -> float:
    """Minimum total cost over every lattice path, accumulated back-to-front
    so float totals are bit-identical with the backward dynamic program."""
    S, T = len(slen), len(tlen)
    step_cache: dict = {}

    def step(i, j, m, n):
        key = (i, j, m, n)
        if key not in step_cache:
            step_cache[key] = gc_cost(
                (m, n), sum(slen[i : i + m]), sum(tlen[j : j + n]), params
            )
        return step_cache[key]

    def rec(i, j):
        if (i, j) == (S, T):
            yield ()
            return
        for m, n in GC_MOVES:
            if i + m <= S and j + n <= T:
                for rest in rec(i + m, j + n):
                    yield ((i, j, m, n),) + rest

    best = None
    for spans in rec(0, 0):
        cost, ones, beads = 0.0, 0, 0
        for i, j, m, n in reversed(spans):
            cost = step(i, j, m, n) + cost
            ones += (m, n) == (1, 1)
            beads += 1
        key = (cost, -ones, beads)
        if best is None or key < best:
            best = key
    return best[0]


def test_criterion_01_length_aligner_matches_exhaustive_search():
    """200 random instances up to 6x6: total cost equals the enumeration
    minimum exactly (zero tolerance), in under 10 s."""
    rng = random.Random(101)
    params = LengthParams()
    t0 = time.monotonic()
    for trial in range(200):
        S, T = rng.randint(0, 6), rng.randint(0, 6)
        if S == 0 and T == 0:
            S = 1
        slen = [rng.randint(1, 40) for _ in range(S)]
        tlen = [rng.randint(1, 40) for _ in range(T)]
        src = SentenceList("s", "zh", tuple("x" * n for n in slen), (0,) * S)
        tgt = SentenceList("t", "en", tuple("y" * n for n in tlen), (0,) * T)
        aset = gc_align(src, tgt, params)
        assert validate_alignment(aset) == [], trial
        total = 0.0
        for bead in reversed(aset.beads):
            total = -bead.score + total
        assert total == exhaustive_best_total(slen, tlen, params), trial
    assert time.monotonic() - t0 < 10.0


# 2. normal CDF against tabulated values

def test_criterion_02_normal_cdf_tabulated_grid():
    """|cdf(x) - table| <= 1.5e-7 on the six-point grid; the centre is exact."""
    table = {
        0.0: 0.5,
        0.5: 0.6914624612740131,
        1.0: 0.8413447460685429,
        1.2127: 0.887377730077022,
        2.0: 0.9772498680518208,
        3.0: 0.9986501019683699,
    }
    assert norm_cdf(0.0) == 0.5
    for x, expected in table.items():
        assert abs(norm_cdf(x) - expected) <= 1.5e-7, x


# 3. EM training: likelihood climbs; tiny corpus lands on the right word

def test_criterion_03_em_likelihood_monotone_and_tiny_corpus_argmax():
    """Log-likelihood non-decreasing over 10 iterations on 50 random corpora
    (slack 1e-9); on the two-pair corpus, argmax t(.|"a") = "x" after 4."""
    rng = random.Random(303)
    for trial in range(50):
        src_vocab = [f"s{k}" for k in range(rng.randint(2, 6))]
        tgt_vocab = [f"t{k}" for k in range(rng.randint(2, 6))]
        pairs = [
            (
                [rng.choice(src_vocab) for _ in range(rng.randint(1, 5))],
                [rng.choice(tgt_vocab) for _ in range(rng.randint(1, 5))],
            )
            for _ in range(rng.randint(3, 6))
        ]
        history = train_ibm1(pairs, 10).ll_history
        assert len(history) == 10
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-9, trial
    table = train_ibm1([(["a", "b"], ["x", "y"]), (["a"], ["x"])], 4)
    assert max(table.t["a"].items(), key=lambda kv: kv[1])[0] == "x"


# 4. BLEU reference values and range

def test_criterion_04_bleu_reference_values_and_range():
    """Hand example = sqrt(1/2) within 1e-9; identity = 1.0 exactly;
    1,000 random pairs all land in [0, 1]."""
    got = sentence_bleu("a b c d".split(), "a b c e".split())
    assert abs(got - math.sqrt(0.5)) <= 1e-9
    for text in ("a", "a b", "the trial ended early .", "a b c d e f g"):
        assert sentence_bleu(text.split(), text.split()) == 1.0
    rng = random.Random(404)
    vocab = [f"w{k}" for k in range(8)]
    for _ in range(1000):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        score = sentence_bleu(hyp, ref)
        assert 0.0 <= score <= 1.0


# 5. anchor search vs brute force; intersection is a subset

def test_criterion_05_anchor_search_oracle_and_intersection_subset():
    """find_anchors equals the brute-force best chain up to 6x6; on 100
    random fixtures the bidirectional beads are a subset of unidirectional."""
    rng = random.Random(505)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = ScoreMatrix(
            tuple(
                tuple(rng.random() if rng.random() > 0.5 else 0.0 for _ in range(cols))
                for _ in range(rows)
            )
        )
        for min_score in (0.0, 0.3):
            assert find_anchors(m, min_score) == brute_force_chain(m, min_score)

    vocab = [f"w{k}" for k in range(12)]
    params = LengthParams()

    def noisy(line):
        toks = line.split()
        if toks and rng.random() < 0.4:
            toks[rng.randrange(len(toks))] = rng.choice(vocab)
        return " ".join(toks)

    def sl(doc_id, lines):
        return SentenceList(doc_id, "en", tuple(lines), (0,) * len(lines))

    for _ in range(100):
        n_src, n_tgt = rng.randint(1, 5), rng.randint(1, 5)
        src_lines = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 6)))
            for _ in range(n_src)
        ]
        tgt_lines = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 6)))
            for _ in range(n_tgt)
        ]
        src, tgt = sl("s", src_lines), sl("t", tgt_lines)
        mt = sl("mt", [noisy(rng.choice(tgt_lines)) for _ in range(n_src)])
        mt_rev = sl("rev", [noisy(rng.choice(src_lines)) for _ in range(n_tgt)])
        uni = bleualign(src, tgt, mt, min_score=0.02, params=params)
        bi = bleualign(src, tgt, mt, mt_rev, min_score=0.02, params=params)
        assert {b.key for b in bi.beads} <= {b.key for b in uni.beads}


# 6. gold bead-type distribution

def test_criterion_06_gold_bead_type_distribution():
    """The bundled 1,019-bead gold file reproduces the documented type
    percentages exactly at one-decimal rounding."""
    gold = read_alignments(DATA / "gold_distribution.tsv")
    assert len(gold.beads) == 1019
    assert alignment_type_distribution(gold) == [
        ("1-1", 964, 94.6),
        ("1-2", 17, 1.7),
        ("2-1", 15, 1.5),
        ("0-1", 11, 1.1),
        ("1-0", 10, 1.0),
        ("2-2", 1, 0.1),
        ("2-3", 1, 0.1),
    ]


# 7. aligner quality ordering on the bundled corpus

def _micro_prf1(preds: dict, golds: dict) -> tuple[float, float, float]:
    tp = n_pred = n_gold = 0
    for pid, pred in preds.items():
        pred_keys = {b.key for b in pred.beads if b.bead_type == (1, 1)}
        gold_keys = {b.key for b in golds[pid].beads if b.bead_type == (1, 1)}
        tp += len(pred_keys & gold_keys)
        n_pred += len(pred_keys)
        n_gold += len(gold_keys)
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def test_criterion_07_aligner_quality_ordering(corpus_views):
    """On the bundled corpus: F1(lexicon) >= F1(translation-uni) >= F1(length);
    intersection trades recall for precision. Under 30 s."""
    t0 = time.monotonic()
    golds = {pid: read_alignments(CORPUS / "gold" / f"{pid}.tsv") for pid in corpus_views}

    paragraph_pairs = []
    for zh, en, _, _ in corpus_views.values():
        paragraph_pairs.extend(zip(zh.paragraph_lengths(), en.paragraph_lengths(), strict=True))
    params = estimate_length_params(paragraph_pairs)
    table = train_lexicon(
        [(zh, en, length_pass(zh, en)[1]) for zh, en, _, _ in corpus_views.values()]
    )

    scores = {
        "gc": _micro_prf1(
            {pid: gc_align(zh, en, params) for pid, (zh, en, _, _) in corpus_views.items()},
            golds,
        ),
        "moore": _micro_prf1(
            {pid: moore_align(zh, en, table) for pid, (zh, en, _, _) in corpus_views.items()},
            golds,
        ),
        "uni": _micro_prf1(
            {
                pid: bleualign(zh, en, fwd, min_score=0.02, params=params)
                for pid, (zh, en, fwd, _) in corpus_views.items()
            },
            golds,
        ),
        "bi": _micro_prf1(
            {
                pid: bleualign(zh, en, fwd, rev, min_score=0.02, params=params)
                for pid, (zh, en, fwd, rev) in corpus_views.items()
            },
            golds,
        ),
    }
    assert scores["moore"][2] >= scores["uni"][2] >= scores["gc"][2], scores
    assert scores["bi"][0] >= scores["uni"][0], scores
    assert scores["bi"][1] <= scores["uni"][1], scores
    assert time.monotonic() - t0 < 30.0


# 8. rule-based segmenter tracks Chinese sentence counts better

def test_criterion_08_rule_segmenter_tracks_chinese_counts(corpus_docs):
    """Median per-article |#zh - #en| sentences: rules <= unsupervised."""
    en_docs = [d for d in corpus_docs if d.meta.language == "en"]
    punkt = train_punkt(en_docs)
    abbrevs = default_abbrevs()
    by_pair: dict[str, dict] = {}
    for d in corpus_docs:
        by_pair.setdefault(d.meta.pair_id, {})[d.meta.language] = d
    gaps = {"rules": [], "punkt": []}
    for sides in by_pair.values():
        zh_n = sum(len(segment_zh(p)) for p in sides["zh"].paragraphs)
        gaps["rules"].append(
            abs(zh_n - sum(len(segment_en_rules(p, abbrevs)) for p in sides["en"].paragraphs))
        )
        gaps["punkt"].append(
            abs(zh_n - sum(len(segment_punkt(p, punkt)) for p in sides["en"].paragraphs))
        )
    assert statistics.median(gaps["rules"]) <= statistics.median(gaps["punkt"]), gaps


# 9. segmentation losslessness and the two documented boundary cases

def test_criterion_09_segmentation_losslessness_and_documented_boundaries(corpus_docs):
    """Joining segments reproduces the paragraph (modulo edge whitespace) on
    1,000 random paragraphs and every bundled one; the trailing-citation and
    parenthetical cases land on their documented boundaries."""
    rng = random.Random(909)
    abbrevs = default_abbrevs()
    zh_pool = "患者研究治疗组随访结果显示基线数据，、；：（）“”"
    zh_endings = "。！？"
    en_words = ["the", "trial", "patients", "dr.", "fig.", "al", "3.5", "response", "rates"]
    for _ in range(500):
        para = "".join(
            rng.choice(zh_pool) if rng.random() < 0.8 else rng.choice(zh_endings)
            for _ in range(rng.randint(1, 60))
        )
        assert "".join(segment_zh(para)) == para.strip()
    for _ in range(500):
        toks = []
        for _ in range(rng.randint(1, 30)):
            toks.append(rng.choice(en_words))
            if rng.random() < 0.2:
                toks[-1] += rng.choice([".", "?", "!", ".12-14", ".3"])
        para = " ".join(toks)
        assert " ".join(segment_en_rules(para, abbrevs)) == para
    for doc in corpus_docs:
        for para in doc.paragraphs:
            if doc.meta.language == "zh":
                assert "".join(segment_zh(para)) == para.strip()
            else:
                assert " ".join(segment_en_rules(para, abbrevs)) == " ".join(para.split())

    citation = (
        "Similar adverse events have been reported.12-14 "
        "To overcome sample-size limitations, we pooled data."
    )
    assert segment_en_rules(citation, abbrevs) == [
        "Similar adverse events have been reported.12-14",
        "To overcome sample-size limitations, we pooled data.",
    ]
    parenthetical = (
        "The outcome was better than with placebo. "
        "(Funded by F. Hoffmann-La Roche and others.)."
    )
    assert segment_en_rules(parenthetical, abbrevs) == [parenthetical]


# 10. pipeline determinism, dedup idempotence, split partition

def test_criterion_10_pipeline_determinism_dedup_split(tmp_path):
    """1 vs 8 workers: byte-identical artifacts (the run log differs only in
    its recorded worker count and timings); dedup output is duplicate-free;
    the split manifest partitions articles with no pair crossing splits."""
    base = load_config(CORPUS / "config.json")
    outs = {}
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}" / "out"
        assert run_pipeline(dataclasses.replace(base, output=out, jobs=jobs)) == 0
        outs[jobs] = out

    trees = {
        jobs: {str(p.relative_to(out)): p for p in sorted(out.rglob("*")) if p.is_file()}
        for jobs, out in outs.items()
    }
    assert trees[1].keys() == trees[8].keys()
    for rel in trees[1]:
        if rel == "run_log.jsonl":
            continue
        assert trees[1][rel].read_bytes() == trees[8][rel].read_bytes(), rel
    logs = []
    for jobs in (1, 8):
        entries = [json.loads(ln) for ln in trees[jobs]["run_log.jsonl"].read_text().splitlines()]
        assert entries[0].pop("jobs") == jobs
        for e in entries:
            e.pop("duration_s", None)
        logs.append(entries)
    assert logs[0] == logs[1]

    bitext = (outs[1] / "04_dedup" / "bitext.tsv").read_text("utf-8").splitlines()
    pairs = [tuple(row.split("\t")) for row in bitext]
    assert dedup_pairs(pairs) == (pairs, 0)

    manifest = [
        row.split("\t")
        for row in (outs[1] / "05_split" / "manifest.tsv").read_text().splitlines()
    ]
    assert {pid for pid, _, _ in manifest} == {f"A{i:02d}" for i in range(1, 13)}
    assigned = {pid: split for pid, split, _ in manifest}
    assert set(assigned.values()) == {"train", "dev", "test"}
    by_split: dict[str, list[tuple[str, str]]] = {"train": [], "dev": [], "test": []}
    for row in (outs[1] / "04_dedup" / "pairs.tsv").read_text("utf-8").splitlines():
        pid, src, tgt = row.split("\t")
        by_split[assigned[pid]].append((src, tgt))
    total = 0
    for split, expected in by_split.items():
        rows = [
            tuple(r.split("\t"))
            for r in (outs[1] / "05_split" / f"{split}.tsv").read_text("utf-8").splitlines()
        ]
        assert rows == expected, split
        total += len(rows)
    assert total == len(bitext)

"""Dedup, split, stats, config loading, and the pipeline end to end."""

import dataclasses
import datetime
import hashlib
import json
import logging
import math
import os
import re
import shutil
import string
import subprocess
import sys
import unicodedata
from concurrent import futures
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitextkit import gale_church, pipeline
from bitextkit.core import (
    ArticleMeta,
    SentenceList,
    read_alignments,
    read_documents,
    read_metadata,
    read_sentences,
    validate_alignment,
)
from bitextkit.gale_church import estimate_length_params
from bitextkit.pipeline import (
    HASH_NAME,
    PipelineConfig,
    PipelineError,
    SplitSpec,
    _corpus_length_params,
    _read_mt,
    _stage_stats,
    corpus_stats,
    dedup_pairs,
    load_config,
    normalize_for_dedup,
    pair_articles,
    pair_hash,
    run_pipeline,
    split_corpus,
    stage_align,
    stage_preprocess,
    stage_sbd,
)
from bitextkit.preprocess import train_truecaser

CORPUS = Path(__file__).parent / "data" / "corpus"


def reference_normalize_for_dedup(text):
    """The per-character loop that normalize_for_dedup's table replaced."""
    kept = []
    for ch in text.lower():
        if ch.isdigit() or unicodedata.category(ch).startswith("P"):
            continue
        kept.append(ch)
    return " ".join("".join(kept).split())


# superscript and Arabic-Indic digits, a capital whose lowercase is two code
# points, CJK text and punctuation, and one character of every P* category
_DEDUP_SAMPLES = "²٣İI患者随访。，、Aa1 \t\n" + "_-([)]«»!"


class TestDedupNormalization:
    @settings(max_examples=300, deadline=None)
    @given(
        st.text(
            st.one_of(
                st.sampled_from(_DEDUP_SAMPLES),
                st.characters(categories=("Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po")),
                st.characters(categories=("Nd", "No", "Lu", "Lo", "Zs")),
                st.characters(),
            ),
            max_size=30,
        )
    )
    @example("İ² ٣随访3年。Follow-Up!")
    def test_equals_the_per_character_loop(self, text):
        assert normalize_for_dedup(text) == reference_normalize_for_dedup(text)

    def test_case_digits_punctuation_whitespace(self):
        assert normalize_for_dedup("Results: 12 of 30 patients improved.") == (
            "results of patients improved"
        )

    def test_hyphen_is_punctuation(self):
        assert normalize_for_dedup("Follow-Up") == "followup"

    def test_chinese_punctuation(self):
        assert normalize_for_dedup("随访3年。") == "随访年"

    def test_whitespace_collapse(self):
        assert normalize_for_dedup("a\t b\n\n c ") == "a b c"

    def test_hash_is_sixteen_hex_chars(self):
        h = pair_hash("患者。", "The patient.")
        assert len(h) == 16
        assert set(h) <= set(string.hexdigits.lower())

    def test_hash_ignores_surface_noise(self):
        assert pair_hash("随访3年。", "Follow-up lasted 3 years.") == pair_hash(
            "随访年",
            "FOLLOW-UP  lasted years",
        )

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=20), st.text(max_size=20))
    @example("患者受益。", "The patient improved.")
    def test_hash_is_hashlibs_blake2b_of_the_normalized_pair(self, src, tgt):
        payload = f"{normalize_for_dedup(src)}\t{normalize_for_dedup(tgt)}".encode("utf-8")
        assert pair_hash(src, tgt) == hashlib.blake2b(payload, digest_size=8).hexdigest()

    def test_hash_sees_letters_and_sides(self):
        assert pair_hash("a", "b") != pair_hash("a", "c")
        assert pair_hash("a", "b") != pair_hash("b", "a")


class TestDedupPairs:
    PAIRS = [
        ("患者受益。", "The patient improved."),
        ("疗效持续。", "The effect lasted."),
        ("患者受益。", "the patient improved"),  # same after normalization
        ("患者受益。", "The cohort improved."),  # different target: kept
    ]

    def test_keeps_first_occurrence(self):
        kept, removed = dedup_pairs(self.PAIRS)
        assert kept == [self.PAIRS[0], self.PAIRS[1], self.PAIRS[3]]
        assert removed == 1

    def test_idempotent(self):
        kept, _ = dedup_pairs(self.PAIRS)
        assert dedup_pairs(kept) == (kept, 0)

    def test_empty(self):
        assert dedup_pairs([]) == ([], 0)


def article(pair_id, date, count):
    meta = ArticleMeta(
        doc_id=f"{pair_id}-zh",
        pair_id=pair_id,
        language="zh",
        date=datetime.date.fromisoformat(date),
        article_type="original",
    )
    return meta, count


class TestSplitCorpus:
    def test_newest_articles_fill_test_then_dev(self):
        articles = [
            article("A01", "2021-01-05", 10),
            article("A02", "2021-03-01", 10),
            article("A03", "2021-02-01", 10),
            article("A04", "2020-12-01", 10),
        ]
        got = split_corpus(articles, SplitSpec(test_sentence_target=10, dev_sentence_target=10))
        assert got == {"A02": "test", "A03": "dev", "A01": "train", "A04": "train"}
        assert list(got) == ["A02", "A03", "A01", "A04"]

    def test_date_ties_break_by_id(self):
        articles = [
            article("B02", "2021-01-01", 5),
            article("B01", "2021-01-01", 5),
        ]
        got = split_corpus(articles, SplitSpec(test_sentence_target=5, dev_sentence_target=0))
        assert got == {"B01": "test", "B02": "train"}

    def test_articles_never_straddle_a_split(self):
        # One big article overshoots the test target; it still lands whole.
        articles = [article("A01", "2021-02-01", 50), article("A02", "2021-01-01", 50)]
        got = split_corpus(articles, SplitSpec(test_sentence_target=1, dev_sentence_target=1))
        assert got == {"A01": "test", "A02": "dev"}

    def test_zero_targets_send_everything_to_train(self):
        articles = [article("A01", "2021-01-01", 3), article("A02", "2021-01-02", 3)]
        got = split_corpus(articles, SplitSpec(test_sentence_target=0, dev_sentence_target=0))
        assert set(got.values()) == {"train"}

    def test_duplicate_ids_rejected(self):
        articles = [article("A01", "2021-01-01", 3), article("A01", "2021-01-02", 3)]
        with pytest.raises(ValueError, match="duplicate article ids: A01"):
            split_corpus(articles)

    def test_exhaustion_warns(self, caplog):
        articles = [article("A01", "2021-01-01", 3)]
        with caplog.at_level(logging.WARNING, logger="bitextkit.pipeline"):
            got = split_corpus(articles, SplitSpec(test_sentence_target=99, dev_sentence_target=0))
        assert got == {"A01": "test"}
        assert any("exhausted" in rec.message for rec in caplog.records)

    def test_negative_targets_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            SplitSpec(test_sentence_target=-1)

    def test_default_targets(self):
        spec = SplitSpec()
        assert (spec.test_sentence_target, spec.dev_sentence_target) == (2102, 2036)


class TestCorpusStats:
    def test_hand_counts(self):
        rows = [
            ("A01", "患者。", "The patient."),
            ("A02", "随访", "Follow - up"),
        ]
        # zh tokens: 患 者 。 | 随 访 = 5; en tokens: The patient . | Follow - up = 6
        assert corpus_stats(rows) == (2, 5, 6, 2)

    def test_articles_counted_once(self):
        rows = [("A01", "一", "one"), ("A01", "二", "two")]
        assert corpus_stats(rows) == (2, 2, 2, 1)

    def test_empty(self):
        assert corpus_stats([]) == (0, 0, 0, 0)

    @staticmethod
    def assert_stats_rows(path, bitext, split_of):
        scopes = {"all": bitext}
        for name in ("train", "dev", "test"):
            scopes[name] = [r for r in bitext if split_of[r[0]] == name]
        want = [["scope", "sentence_pairs", "src_tokens", "tgt_tokens", "articles"]] + [
            [name, *map(str, corpus_stats(rows))] for name, rows in scopes.items()
        ]
        got = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
        assert got == want

    def test_stats_rows_of_the_fixture_run_are_corpus_stats_of_each_scope(self, runs):
        out = runs[1]
        pairs = (out / "04_dedup" / "pairs.tsv").read_text(encoding="utf-8").splitlines()
        manifest = (out / "05_split" / "manifest.tsv").read_text(encoding="utf-8").splitlines()
        split_of = {pair_id: split for pair_id, split, _ in (ln.split("\t") for ln in manifest)}
        bitext = [tuple(line.split("\t")) for line in pairs]
        self.assert_stats_rows(out / "stats.tsv", bitext, split_of)

    def test_stats_rows_with_an_empty_split(self, tmp_path):
        bitext = [
            ("A01", "患者。", "The patient."),
            ("A02", "随访", "Follow - up"),
            ("A01", "一", "one"),
        ]
        split_of = {"A01": "train", "A02": "test", "A03": "dev"}
        _stage_stats(PipelineConfig(tmp_path, tmp_path), bitext, split_of)
        self.assert_stats_rows(tmp_path / "stats.tsv", bitext, split_of)


# out-of-range values of the aligner threshold min_score, NaN among them
BAD_THRESHOLDS = [
    ("min_score", 1.0),
    ("min_score", -0.01),
    ("min_score", math.nan),
    ("min_score", math.inf),
    ("min_score", -math.inf),
]


class TestLoadConfig:
    def write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "input": "raw",
                "output": "out",
                "patterns": None,
                "method": "moore",
                "hash": HASH_NAME,
                "split": {"test_sentence_target": 7, "dev_sentence_target": 3},
            },
        )
        cfg = load_config(path)
        assert cfg.input == (tmp_path / "raw").resolve()
        assert cfg.output == (tmp_path / "out").resolve()
        assert cfg.patterns is None
        assert cfg.method == "moore"
        assert cfg.split == SplitSpec(test_sentence_target=7, dev_sentence_target=3)

    def test_hash_key_is_optional_but_checked(self, tmp_path):
        cfg = load_config(self.write(tmp_path, {"input": "raw", "output": "out"}))
        assert cfg.method == "gc"
        bad = self.write(tmp_path, {"input": "raw", "output": "out", "hash": "md5"})
        with pytest.raises(ValueError, match="unsupported hash"):
            load_config(bad)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_config(path)

    @pytest.mark.parametrize(
        "key",
        ["alignerr", "src_lang", "tgt_lang", "estimate_params", "theta_1", "bleu",
         "theta1", "theta2", "em_iterations"],
    )
    def test_unknown_key_rejected(self, tmp_path, key):
        path = self.write(tmp_path, {"input": "raw", "output": "out", key: "gc"})
        with pytest.raises(ValueError, match=rf"config\.json: .*'{key}'"):
            load_config(path)

    def test_moore_settings_are_not_config_fields(self):
        # moore always runs at its fixed THETA1, EM_ITERATIONS and THETA2
        names = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert names.isdisjoint({"theta1", "theta2", "em_iterations"})

    def test_unknown_method_rejected(self, tmp_path):
        path = self.write(tmp_path, {"input": "raw", "output": "out", "method": "hunalign"})
        with pytest.raises(ValueError, match="unknown aligner method"):
            load_config(path)

    def test_unknown_segmenter_rejected(self, tmp_path):
        path = self.write(tmp_path, {"input": "raw", "output": "out", "en_sbd": "spacy"})
        with pytest.raises(ValueError, match="unknown en segmenter"):
            load_config(path)

    def test_misspelled_nested_key_rejected(self, tmp_path):
        path = self.write(tmp_path, {"input": "raw", "output": "out", "split": {"test": 5}})
        with pytest.raises(ValueError, match=r"config\.json: .*'test'"):
            load_config(path)

    def test_bad_jobs_rejected(self, tmp_path):
        path = self.write(tmp_path, {"input": "raw", "output": "out", "jobs": 0})
        with pytest.raises(ValueError, match="jobs"):
            load_config(path)

    @pytest.mark.parametrize("key, value", BAD_THRESHOLDS)
    def test_bad_aligner_threshold_rejected(self, tmp_path, key, value):
        path = self.write(tmp_path, {"input": "raw", "output": "out", key: value})
        with pytest.raises(ValueError, match=rf"config\.json: {key} must be in"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("split", {"test_sentence_target": 2.5}, "test_sentence_target must be an integer >= 0, got 2.5"),
            ("split", {"dev_sentence_target": True}, "dev_sentence_target must be an integer >= 0, got True"),
            ("split", {"dev_sentence_target": "5"}, "dev_sentence_target must be an integer >= 0, got '5'"),
        ],
    )
    def test_nested_value_of_the_wrong_type_rejected(self, tmp_path, key, value, message):
        path = self.write(tmp_path, {"input": "raw", "output": "out", key: value})
        with pytest.raises(ValueError, match=rf"config\.json: {re.escape(message)}$"):
            load_config(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"min_score": False}, "min_score must be in [0, 1), got False"),
            ({"min_score": None}, "min_score must be in [0, 1), got None"),
            ({"min_score": True}, "min_score must be in [0, 1), got True"),
            ({"min_score": "0.5"}, "min_score must be in [0, 1), got '0.5'"),
        ],
    )
    def test_threshold_that_is_not_a_number_rejected(self, tmp_path, payload, message):
        path = self.write(tmp_path, {"input": "raw", "output": "out", **payload})
        with pytest.raises(ValueError, match=rf"config\.json: {re.escape(message)}$"):
            load_config(path)


class TestReadMt:
    def template(self):
        return SentenceList("A01-zh", "zh", ("一。", "二。", "三。"), (0, 0, 1))

    def test_blank_lines_skipped_and_paragraphs_carried(self, tmp_path):
        path = tmp_path / "A01.txt"
        path.write_text("One.\nTwo.\nThree.\n\n \n", encoding="utf-8")
        sl = _read_mt(path, "A01-mt", "en", self.template())
        assert sl.sentences == ("One.", "Two.", "Three.")
        assert sl.paragraph_index == (0, 0, 1)
        assert (sl.doc_id, sl.language) == ("A01-mt", "en")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("One.\n\nTwo.\nThree.\n", 2),
            # a blank line and an extra line elsewhere keep the count right
            ("One.\n\nThree.\nFour.\n", 2),
            (" \nOne.\nTwo.\nThree.\n", 1),
        ],
    )
    def test_blank_line_before_the_last_line_is_an_error(self, tmp_path, text, lineno):
        path = tmp_path / "A01.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"A01.txt line {lineno}: blank translation line"):
            _read_mt(path, "A01-mt", "en", self.template())

    def test_only_a_newline_ends_a_line(self, tmp_path):
        path = tmp_path / "A01.txt"
        path.write_text("One\u2028a.\nTwo\x85b.\r\nThree\x0cc.\n", encoding="utf-8")
        sl = _read_mt(path, "A01-mt", "en", self.template())
        assert sl.sentences == ("One\u2028a.", "Two\x85b.", "Three\x0cc.")

    def test_line_count_mismatch(self, tmp_path):
        path = tmp_path / "A01.txt"
        path.write_text("One.\nTwo.\n", encoding="utf-8")
        with pytest.raises(ValueError, match="2 translation lines for 3 sentences"):
            _read_mt(path, "A01-mt", "en", self.template())

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="translation file not found"):
            _read_mt(tmp_path / "nope.txt", "A01-mt", "en", self.template())


class TestCorpusLengthParams:
    def test_fit_equals_the_preprocessed_documents_paragraphs(self, tmp_path):
        config = dataclasses.replace(load_config(CORPUS / "config.json"), output=tmp_path)
        docs, pairs = stage_preprocess(config)
        sentences = stage_sbd(config, pairs, docs)
        paragraphs = {d.meta.doc_id: d.paragraphs for d in docs}
        want = []
        for src, tgt in pairs:
            zh, en = paragraphs[src.doc_id], paragraphs[tgt.doc_id]
            want.extend(zip(zh, en) if len(zh) == len(en) else [("\n".join(zh), "\n".join(en))])
        doc_pairs = [(sentences[s.doc_id], sentences[t.doc_id]) for s, t in pairs]
        assert _corpus_length_params(doc_pairs) == estimate_length_params(
            [(len(s), len(t)) for s, t in want]
        )

    def test_mismatched_paragraph_counts_make_one_pair(self, tmp_path):
        mismatched = (
            SentenceList("A-zh", "zh", ("甲乙。", "丙。", "丁戊己。"), (0, 0, 2)),
            SentenceList("A-en", "en", ("One two.", "Three.", "Four five six."), (0, 0, 0)),
        )
        matched = (
            SentenceList("B-zh", "zh", ("庚。", "辛壬。"), (0, 1)),
            SentenceList("B-en", "en", ("Seven.", "Eight nine."), (0, 1)),
        )
        want = [
            ("甲乙。丙。\n丁戊己。", "One two. Three. Four five six."),
            ("庚。", "Seven."),
            ("辛壬。", "Eight nine."),
        ]
        got = _corpus_length_params([mismatched, matched])
        assert got == estimate_length_params([(len(s), len(t)) for s, t in want])


def fixture_sentences():
    """The article pairs and segmented sentences of the golden run."""
    sbd = CORPUS / "out" / "02_sbd"
    metas = read_metadata(sbd)
    sentences = {
        m.doc_id: read_sentences(sbd / f"{m.doc_id}.tsv", m.doc_id, m.language) for m in metas
    }
    return pair_articles(metas), sentences


ALIGN_METHODS = {
    "gc": {"method": "gc"},
    "moore": {"method": "moore"},
    "bleualign": {"method": "bleualign", "mt_tgt": None},
    "bleualign-bidirectional": {"method": "bleualign"},
}


@pytest.fixture
def started(monkeypatch):
    """The pools the pipeline starts, each with its worker count; each counts
    the tasks each of its maps submits."""
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            started.append(self)
            self.workers = max_workers
            self.submits_per_map = []
            super().__init__(max_workers, *args, **kwargs)

        def map(self, *args, **kwargs):
            self.submits_per_map.append(0)
            return super().map(*args, **kwargs)

        def submit(self, *args, **kwargs):
            self.submits_per_map[-1] += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
    return started


class TestStagePreprocess:
    def test_truecasing_changes_only_the_first_en_token(self, tmp_path):
        """With truecasing on, preprocessing writes the golden (truecasing
        off) documents except that an en paragraph's first token may take the
        majority casing the truecaser learns from those documents."""
        golden = CORPUS / "out" / "01_preprocess"
        config = dataclasses.replace(load_config(CORPUS / "config.json"), output=tmp_path, truecase=True)
        stage_preprocess(config)
        out = tmp_path / "01_preprocess"
        assert (out / "metadata.tsv").read_bytes() == (golden / "metadata.tsv").read_bytes()
        plain = read_documents(golden)
        casing = train_truecaser(plain).casing
        changed = 0
        for before, after in zip(plain, read_documents(out), strict=True):
            if before.meta.language == "zh":
                name = f"{before.meta.doc_id}.txt"
                assert (out / name).read_bytes() == (golden / name).read_bytes(), name
                continue
            assert len(after.paragraphs) == len(before.paragraphs)
            for old, new in zip(before.paragraphs, after.paragraphs):
                (old_head, _, old_rest), (new_head, _, new_rest) = old.partition(" "), new.partition(" ")
                assert new_rest == old_rest
                if new_head != old_head:
                    changed += 1
                    assert new_head == casing[old_head.lower()][0]
        assert changed == 25  # the fixture's paragraphs that open with a capitalized common word


class TestStageAlign:
    @pytest.mark.parametrize("changes", ALIGN_METHODS.values(), ids=list(ALIGN_METHODS))
    def test_one_and_two_jobs_align_the_same(self, tmp_path, changes):
        pairs, sentences = fixture_sentences()
        config = dataclasses.replace(load_config(CORPUS / "config.json"), **changes)
        results = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            alignments = stage_align(dataclasses.replace(config, output=out, jobs=jobs), pairs, sentences)
            files = {name: path.read_bytes() for name, path in tree(out).items()}
            results.append((alignments, files))
        assert results[0] == results[1]
        alignments, files = results[0]
        assert list(alignments) == [s.pair_id for s, _ in pairs]
        assert {f"03_align/{s.pair_id}.tsv" for s, _ in pairs} < set(files)

    @pytest.mark.parametrize("jobs, pools", [(1, 0), (2, 1)])
    def test_moore_runs_both_passes_in_one_pool(self, tmp_path, started, jobs, pools):
        pairs, sentences = fixture_sentences()
        config = dataclasses.replace(load_config(CORPUS / "config.json"), output=tmp_path, jobs=jobs)
        stage_align(config, pairs, sentences)
        assert len(started) == pools

    def test_no_confident_pairs_falls_back_to_the_length_model(self, tmp_path, caplog, started):
        self.check_length_model_fallback(tmp_path, caplog, jobs=1)
        assert started == []

    def test_no_confident_pairs_falls_back_to_the_length_model_across_workers(
        self, tmp_path, caplog, started
    ):
        self.check_length_model_fallback(tmp_path, caplog, jobs=2)
        assert [pool.workers for pool in started] == [2]

    @pytest.mark.parametrize("method", ["gc", "bleualign"])
    def test_writes_the_golden_alignments(self, tmp_path, method):
        """gc and bidirectional bleualign at their defaults write the
        committed golden ``03_align``, as ``bitextkit align --method`` does."""
        pairs, sentences = fixture_sentences()
        mt = dict(mt_src=CORPUS / "mt_zh2en", mt_tgt=CORPUS / "mt_en2zh") if method == "bleualign" else {}
        stage_align(PipelineConfig(CORPUS / "out" / "02_sbd", tmp_path, method=method, **mt), pairs, sentences)
        golden = tree(CORPUS / "golden" / method)
        assert list(tree(tmp_path)) == list(golden)
        for name, path in golden.items():
            assert (tmp_path / name).read_bytes() == path.read_bytes(), name

    def test_the_stage_drops_the_length_terms_it_memoized(self, tmp_path, monkeypatch):
        memo = {}
        monkeypatch.setattr(gale_church, "_LOG_MATCH_MEMO", memo)
        sizes = []
        write = pipeline.write_alignments

        def recording_write(aset, path):
            sizes.append(len(memo))
            write(aset, path)

        monkeypatch.setattr(pipeline, "write_alignments", recording_write)
        pairs, sentences = fixture_sentences()
        config = dataclasses.replace(load_config(CORPUS / "config.json"), output=tmp_path, method="gc")
        stage_align(config, pairs, sentences)
        # one scale memoized while the articles were aligned, none after
        assert sizes == [1] * len(pairs)
        assert memo == {}

    @staticmethod
    def check_length_model_fallback(tmp_path, caplog, jobs):
        pairs, sentences = [], {}
        for pair_id, sides in UNCONFIDENT_ARTICLES.items():
            metas = tuple(
                ArticleMeta(f"{pair_id}-{lang}", pair_id, lang, datetime.date(2021, 1, 1))
                for lang in ("zh", "en")
            )
            for meta, text in zip(metas, sides):
                sentences[meta.doc_id] = SentenceList(meta.doc_id, meta.language, text, (0,) * len(text))
            pairs.append(metas)
        config = PipelineConfig(input=tmp_path, output=tmp_path / "out", method="moore", jobs=jobs)
        with caplog.at_level(logging.WARNING):
            alignments = stage_align(config, pairs, sentences)
        assert [r.getMessage() for r in caplog.records] == [
            "no confident sentence pairs to train on; pass 2 uses the length model",
            *(
                f"{pair_id}-zh: translation table shares no vocabulary with the document; "
                "using length model only"
                for pair_id in UNCONFIDENT_ARTICLES
            ),
        ]
        stage_dir = tmp_path / "out" / "03_align"
        assert (stage_dir / "translation_table.tsv").read_bytes() == b""
        for pair_id, aset in alignments.items():
            assert validate_alignment(aset) == []
            assert read_alignments(stage_dir / f"{pair_id}.tsv") == aset


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The fixture corpus pushed through the whole pipeline at 1 and 8 workers."""
    base = load_config(CORPUS / "config.json")
    outs = {}
    for jobs in (1, 8):
        out = tmp_path_factory.mktemp(f"jobs{jobs}") / "out"
        cfg = dataclasses.replace(base, output=out, jobs=jobs)
        assert run_pipeline(cfg) == 0
        outs[jobs] = out
    return outs


#: Two article shapes, (zh sentences, en sentences), whose every pass-1
#: posterior is below moore.THETA1.
_UNCONFIDENT_SHAPES = (
    (("一二三。", "四五六。"), ("One two three.", "Four five six.", "Seven eight nine.")),
    (("一二三。",), ("One two.", "Four five.")),
)
#: Eight articles in those shapes, enough for two workers.
UNCONFIDENT_ARTICLES = {pair_id: _UNCONFIDENT_SHAPES[k % 2] for k, pair_id in enumerate("ABCDEFGH")}


def unconfident_corpus(root: Path) -> Path:
    """A raw corpus of :data:`UNCONFIDENT_ARTICLES`, each side one paragraph."""
    raw = root / "raw"
    raw.mkdir()
    rows = []
    for pair_id, sides in UNCONFIDENT_ARTICLES.items():
        for lang, text, sep in zip(("zh", "en"), sides, ("", " ")):
            (raw / f"{pair_id}-{lang}.txt").write_text(sep.join(text) + "\n", encoding="utf-8")
            rows.append(f"{pair_id}-{lang}\t{pair_id}\t{lang}\t2021-01-01\tresearch\n")
    (raw / "metadata.tsv").write_text("".join(rows), encoding="utf-8")
    return raw


def tree(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*")) if p.is_file()}


def first_articles_corpus(root: Path, n: int) -> Path:
    """A raw corpus holding only the fixture's articles A01 to A{n}."""
    raw = root / "raw"
    raw.mkdir()
    pair_ids = [f"A{k:02d}" for k in range(1, n + 1)]
    for pair_id in pair_ids:
        for lang in ("zh", "en"):
            shutil.copy(CORPUS / "raw" / f"{pair_id}-{lang}.txt", raw)
    rows = (CORPUS / "raw" / "metadata.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    kept = "".join(r for r in rows if r.split("-")[0] in pair_ids)
    (raw / "metadata.tsv").write_text(kept, encoding="utf-8")
    return raw


class TestWorkerPool:
    def test_one_pool_serves_the_whole_run_in_a_few_chunks_per_worker(self, tmp_path, started):
        config = dataclasses.replace(load_config(CORPUS / "config.json"), output=tmp_path, jobs=2)
        assert config.method == "moore"
        assert run_pipeline(config) == 0
        assert len(started) == 1
        # moore's two passes over 12 articles, in at most 4 chunks per worker
        # each; sbd runs in this process
        assert started[0].submits_per_map == [6, 6]

    @pytest.mark.parametrize("one_article, jobs", [(False, 1), (True, 2)], ids=["jobs1", "one-article"])
    def test_no_pool_at_one_job_or_one_article(self, tmp_path, started, one_article, jobs):
        config = dataclasses.replace(load_config(CORPUS / "config.json"), output=tmp_path / "out", jobs=jobs)
        if one_article:
            config = dataclasses.replace(config, input=first_articles_corpus(tmp_path, 1))
        assert run_pipeline(config) == 0
        assert started == []

    @pytest.mark.parametrize(
        "articles, jobs, workers", [(1, 2, None), (7, 2, None), (8, 2, 2), (12, 8, 3)]
    )
    def test_a_run_starts_a_worker_per_four_articles_and_none_below_two(
        self, tmp_path, started, articles, jobs, workers
    ):
        config = dataclasses.replace(
            load_config(CORPUS / "config.json"), input=first_articles_corpus(tmp_path, articles)
        )
        outs = {}
        for n_jobs in (1, jobs):
            outs[n_jobs] = tmp_path / f"jobs{n_jobs}"
            assert run_pipeline(dataclasses.replace(config, output=outs[n_jobs], jobs=n_jobs)) == 0
            log = json.loads((outs[n_jobs] / "run_log.jsonl").read_text(encoding="utf-8").splitlines()[0])
            assert log["jobs"] == n_jobs
        assert [pool.workers for pool in started] == ([] if workers is None else [workers])
        # moore's two passes, each in 4 chunks per worker started
        assert [pool.submits_per_map for pool in started] == ([] if workers is None else [[4 * workers] * 2])
        serial, pooled = tree(outs[1]), tree(outs[jobs])
        del serial["run_log.jsonl"], pooled["run_log.jsonl"]
        assert serial.keys() == pooled.keys()
        assert all(serial[rel].read_bytes() == pooled[rel].read_bytes() for rel in serial)

    @pytest.mark.parametrize(
        "changes",
        [
            {"en_sbd": "punkt", "method": "moore"},
            {"method": "bleualign"},
            # no pass-1 pair is confident, so pass 2 warns once per article in
            # the workers, and the held-out splits run out of articles
            {"method": "moore", "input": unconfident_corpus, "split": SplitSpec(10**6, 10**6)},
        ],
        ids=["punkt-moore", "bleualign-bidirectional", "moore-warnings"],
    )
    def test_two_jobs_write_the_same_bytes_and_warnings_as_one(self, tmp_path, caplog, changes):
        if "input" in changes:
            changes = dict(changes, input=changes["input"](tmp_path))
        config = dataclasses.replace(load_config(CORPUS / "config.json"), **changes)
        assert config.mt_tgt is not None and not config.truecase
        results = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                assert run_pipeline(dataclasses.replace(config, output=out, jobs=jobs)) == 0
            files = {name: p.read_bytes() for name, p in tree(out).items() if name != "run_log.jsonl"}
            warnings = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
            results.append((files, warnings))
        assert results[0] == results[1]
        if "input" in changes:
            worker_docs = [m.split(":")[0] for _, _, m in warnings if "shares no vocabulary" in m]
            assert worker_docs == [f"{pair_id}-zh" for pair_id in UNCONFIDENT_ARTICLES]
            assert len(warnings) == 1 + len(UNCONFIDENT_ARTICLES) + 2


class TestPairArticles:
    def meta(self, doc_id, pair_id, language):
        return ArticleMeta(doc_id, pair_id, language, datetime.date(2021, 1, 1))

    def test_second_document_in_one_language_is_an_error(self):
        metas = [
            self.meta("A01-zh", "A01", "zh"),
            self.meta("A01-en", "A01", "en"),
            self.meta("A01b-zh", "A01", "zh"),
        ]
        with pytest.raises(ValueError, match="article A01 has two zh documents: A01-zh and A01b-zh"):
            pair_articles(metas)

    def test_duplicate_document_fails_the_run_before_writing(self, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS / "raw", corpus)
        shutil.copy(corpus / "A01-zh.txt", corpus / "A01b-zh.txt")
        with open(corpus / "metadata.tsv", "a", encoding="utf-8") as f:
            f.write("A01b-zh\tA01\tzh\t2021-06-30\treview\n")
        cfg = dataclasses.replace(
            load_config(CORPUS / "config.json"), input=corpus, output=tmp_path / "out"
        )
        with pytest.raises(PipelineError, match="A01-zh and A01b-zh"):
            run_pipeline(cfg)
        assert not (tmp_path / "out" / "01_preprocess").exists()

    def test_doc_id_on_two_metadata_rows_fails_the_run_before_writing(self, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS / "raw", corpus)
        meta_file = corpus / "metadata.tsv"
        rows = meta_file.read_text(encoding="utf-8").splitlines(keepends=True)
        line = next(k for k, row in enumerate(rows, 1) if row.startswith("A02-zh\t"))
        rows[line - 1] = "A01-zh" + rows[line - 1][len("A02-zh"):]
        meta_file.write_text("".join(rows), encoding="utf-8")
        cfg = dataclasses.replace(
            load_config(CORPUS / "config.json"), input=corpus, output=tmp_path / "out"
        )
        with pytest.raises(
            PipelineError, match=f"metadata.tsv line {line}: doc_id 'A01-zh' already on line 1"
        ):
            run_pipeline(cfg)
        assert not (tmp_path / "out" / "01_preprocess").exists()


#: The fixture's metadata rows: by pair_id, the zh row of each article first.
FIXTURE_META_ROWS = (CORPUS / "raw" / "metadata.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
_ROWS = range(len(FIXTURE_META_ROWS))


class TestMetadataOrder:
    """A run reads its articles by pair_id, the zh side first, so the order
    of the rows of ``metadata.tsv`` changes no byte that the run writes."""

    METHODS = ("gc", "moore", "bleualign")

    @staticmethod
    def run(root, method, order):
        """The artifacts, but the run log, of a truecased run of the fixture
        with ``method``, its metadata rows in ``order``."""
        raw = root / "raw"
        shutil.copytree(CORPUS / "raw", raw)
        (raw / "metadata.tsv").write_text("".join(FIXTURE_META_ROWS[k] for k in order), encoding="utf-8")
        config = dataclasses.replace(
            load_config(CORPUS / "config.json"), input=raw, output=root / "out", method=method, truecase=True
        )
        assert run_pipeline(config) == 0
        artifacts = tree(root / "out")
        del artifacts["run_log.jsonl"]
        return {rel: path.read_bytes() for rel, path in artifacts.items()}

    @pytest.fixture(scope="class")
    def listed(self, tmp_path_factory):
        return {m: self.run(tmp_path_factory.mktemp(m), m, _ROWS) for m in self.METHODS}

    @settings(max_examples=20, deadline=None)
    @given(method=st.sampled_from(METHODS), order=st.permutations(_ROWS))
    # every row reversed; the articles reversed; each article's two rows swapped
    @example(method="gc", order=_ROWS[::-1])
    @example(method="moore", order=[2 * a + r for a in reversed(range(len(_ROWS) // 2)) for r in (0, 1)])
    @example(method="bleualign", order=[k ^ 1 for k in _ROWS])
    def test_any_row_order_writes_the_same_bytes(self, tmp_path_factory, listed, method, order):
        permuted = self.run(tmp_path_factory.mktemp("permuted"), method, order)
        assert permuted.keys() == listed[method].keys()
        for rel, data in permuted.items():
            assert data == listed[method][rel], rel


def test_a_run_loads_no_openssl(tmp_path):
    """A whole run hashes its dedup keys without `_hashlib`, the module that
    maps OpenSSL; `import hashlib` anywhere in the package would load it."""
    code = (
        "import dataclasses, sys\n"
        "import bitextkit.cli\n"
        "from bitextkit.pipeline import load_config, run_pipeline\n"
        "config = dataclasses.replace(load_config(sys.argv[1]), output=sys.argv[2])\n"
        "run_pipeline(config, jobs=1)\n"
        "sys.exit('the run loaded _hashlib' if '_hashlib' in sys.modules else 0)\n"
    )
    src = Path(pipeline.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-c", code, str(CORPUS / "config.json"), str(out)], env=env, check=True
    )
    assert (out / "run_log.jsonl").is_file()


def test_segmentation_never_loads_the_pool(tmp_path):
    """sbd segments in this process at any jobs: at two jobs, enough for two
    workers over the fixture's 12 articles, it still leaves the pool's
    module unloaded, and writes the golden ``02_sbd``."""
    code = (
        "import sys\n"
        "from bitextkit.core import read_documents\n"
        "from bitextkit.pipeline import PipelineConfig, pair_articles, stage_sbd\n"
        "docs = read_documents(sys.argv[1])\n"
        "stage_sbd(PipelineConfig(sys.argv[1], sys.argv[2], jobs=2), pair_articles([d.meta for d in docs]), docs)\n"
        "loaded = 'concurrent.futures.process' in sys.modules\n"
        "sys.exit('sbd loaded concurrent.futures.process' if loaded else 0)\n"
    )
    src = Path(pipeline.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-c", code, str(CORPUS / "out" / "01_preprocess"), str(out)], env=env, check=True
    )
    golden = CORPUS / "out" / "02_sbd"
    assert sorted(p.name for p in (out / "02_sbd").iterdir()) == sorted(p.name for p in golden.iterdir())
    for path in golden.iterdir():
        assert (out / "02_sbd" / path.name).read_bytes() == path.read_bytes(), path.name


def run_fixture_checking_modules(tmp_path, modules):
    """Import the CLI, then make a jobs-1 run of the fixture corpus, in a
    fresh interpreter that fails if either step loaded one of ``modules``."""
    code = (
        "import dataclasses, sys\n"
        f"modules = {tuple(modules)!r}\n"
        "def check(when):\n"
        "    loaded = [m for m in modules if m in sys.modules]\n"
        "    if loaded:\n"
        "        sys.exit(f'{when} loaded {loaded}')\n"
        "import bitextkit.cli\n"
        "check('import bitextkit.cli')\n"
        "from bitextkit.pipeline import load_config, run_pipeline\n"
        "config = dataclasses.replace(load_config(sys.argv[1]), output=sys.argv[2])\n"
        "run_pipeline(config, jobs=1)\n"
        "check('a jobs-1 run')\n"
    )
    src = Path(pipeline.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(CORPUS / "config.json"), str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "run_log.jsonl").is_file()


def test_a_jobs_one_run_loads_no_pool_modules(tmp_path):
    """Importing the CLI, and then a run that starts no worker, leave the
    pool's modules unloaded."""
    run_fixture_checking_modules(tmp_path, ("multiprocessing", "concurrent.futures.process"))


def test_a_jobs_one_run_loads_no_statistics(tmp_path):
    """The sbd report's quartiles are computed in place: no run pays for
    importing statistics and the decimal and fractions modules it loads."""
    run_fixture_checking_modules(tmp_path, ("statistics", "decimal", "fractions"))


class TestEndToEnd:
    def test_expected_artifacts(self, runs):
        out = runs[1]
        for name in (
            "01_preprocess",
            "02_sbd",
            "03_align",
            "04_dedup",
            "05_split",
        ):
            assert (out / name).is_dir(), name
        for name in (
            "removal_log.tsv",
            "paragraph_report.csv",
            "sbd_report.csv",
            "stats.tsv",
            "run_log.jsonl",
            "04_dedup/pairs.tsv",
            "04_dedup/bitext.tsv",
            "05_split/manifest.tsv",
            "05_split/train.tsv",
            "05_split/dev.tsv",
            "05_split/test.tsv",
        ):
            assert (out / name).is_file(), name
        assert not list(out.rglob("*.partial"))

    def test_worker_count_does_not_change_output_bytes(self, runs):
        one, eight = tree(runs[1]), tree(runs[8])
        assert one.keys() == eight.keys()
        for rel in one:
            if rel == "run_log.jsonl":
                continue
            assert one[rel].read_bytes() == eight[rel].read_bytes(), rel

    def test_matches_the_committed_golden_run(self, runs):
        """Every artifact except the run log equals tests/data/corpus/out/ byte
        for byte; the README's Tests section says how to regenerate it."""
        fresh, golden = tree(runs[1]), tree(CORPUS / "out")
        del fresh["run_log.jsonl"], golden["run_log.jsonl"]
        assert fresh.keys() == golden.keys()
        for rel in fresh:
            assert fresh[rel].read_bytes() == golden[rel].read_bytes(), rel

    def test_run_log_differs_only_in_timings_and_jobs(self, runs):
        logs = []
        jobs_seen = []
        for out in runs.values():
            entries = [
                json.loads(line)
                for line in (out / "run_log.jsonl").read_text().splitlines()
            ]
            jobs_seen.append(entries[0].pop("jobs"))
            for e in entries:
                e.pop("duration_s", None)
            logs.append(entries)
        assert logs[0] == logs[1]
        assert jobs_seen == [1, 8]
        assert logs[0][0]["stage"] == "start"
        assert logs[0][0]["hash"] == HASH_NAME
        assert [e["stage"] for e in logs[0][1:]] == [
            "preprocess",
            "sbd",
            "align",
            "dedup",
            "split",
            "stats",
        ]

    def test_alignments_are_valid(self, runs):
        paths = sorted((runs[1] / "03_align").glob("A*.tsv"))
        assert len(paths) == 12
        for path in paths:
            assert validate_alignment(read_alignments(path)) == []

    def test_dedup_output_is_duplicate_free(self, runs):
        rows = (runs[1] / "04_dedup" / "bitext.tsv").read_text(encoding="utf-8").splitlines()
        pairs = [tuple(r.split("\t")) for r in rows]
        assert len(pairs) > 0
        kept, removed = dedup_pairs(pairs)
        assert removed == 0
        # and the stage actually removed the planted duplicates
        log_entries = [
            json.loads(line)
            for line in (runs[1] / "run_log.jsonl").read_text().splitlines()
        ]
        dedup_entry = next(e for e in log_entries if e.get("stage") == "dedup")
        assert dedup_entry["outputs"] < dedup_entry["inputs"]

    def test_split_is_a_partition_of_whole_articles(self, runs):
        out = runs[1]
        manifest = [
            line.split("\t")
            for line in (out / "05_split" / "manifest.tsv").read_text().splitlines()
        ]
        assert len(manifest) == 12
        assert {pair_id for pair_id, _, _ in manifest} == {f"A{i:02d}" for i in range(1, 13)}
        assert {split for _, split, _ in manifest} <= {"train", "dev", "test"}
        per_split: dict[str, int] = {"train": 0, "dev": 0, "test": 0}
        for _, split, count in manifest:
            per_split[split] += int(count)
        bitext_rows = (out / "04_dedup" / "bitext.tsv").read_text().splitlines()
        assert sum(per_split.values()) == len(bitext_rows)
        for split, expected in per_split.items():
            rows = (out / "05_split" / f"{split}.tsv").read_text().splitlines()
            assert len(rows) == expected, split
        # no article's pairs leak across splits: per-article rows all land in
        # the manifest's split
        assigned = {pair_id: split for pair_id, split, _ in manifest}
        pair_rows = (out / "04_dedup" / "pairs.tsv").read_text(encoding="utf-8").splitlines()
        by_split: dict[str, list[tuple[str, str]]] = {"train": [], "dev": [], "test": []}
        for row in pair_rows:
            pair_id, src, tgt = row.split("\t")
            by_split[assigned[pair_id]].append((src, tgt))
        for split in by_split:
            rows = [
                tuple(r.split("\t"))
                for r in (out / "05_split" / f"{split}.tsv").read_text(encoding="utf-8").splitlines()
            ]
            assert rows == by_split[split], split

    def test_stats_scopes_are_consistent(self, runs):
        rows = [
            line.split("\t") for line in (runs[1] / "stats.tsv").read_text().splitlines()
        ]
        assert rows[0] == ["scope", "sentence_pairs", "src_tokens", "tgt_tokens", "articles"]
        scoped = {row[0]: [int(v) for v in row[1:]] for row in rows[1:]}
        assert set(scoped) == {"all", "train", "dev", "test"}
        for column in range(3):
            assert scoped["all"][column] == (
                scoped["train"][column] + scoped["dev"][column] + scoped["test"][column]
            )

    def test_reports_have_headers(self, runs):
        para = (runs[1] / "paragraph_report.csv").read_text().splitlines()
        sbd = (runs[1] / "sbd_report.csv").read_text().splitlines()
        assert para[0].startswith("pair_id,") or para[0].startswith("article,")
        assert sbd[0] == "article,zh,en,diff"
        assert len(sbd) >= 13  # one row per article plus header and summary

    def test_missing_translation_file_aborts_align_stage(self, tmp_path):
        base = load_config(CORPUS / "config.json")
        cfg = dataclasses.replace(
            base,
            output=tmp_path / "out",
            method="bleualign",
            mt_src=tmp_path / "empty",
        )
        (tmp_path / "empty").mkdir()
        with pytest.raises(PipelineError, match="align stage failed"):
            run_pipeline(cfg)

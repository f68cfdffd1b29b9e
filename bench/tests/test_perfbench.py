"""Tests of the benchmark's generator, checks and layer wrappers."""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import workloads  # noqa: E402
from child import digests  # noqa: E402
from tracing import Tracer  # noqa: E402

from bitextkit import bleualign, gale_church, moore, pipeline  # noqa: E402
from bitextkit.pipeline import load_config, run_pipeline  # noqa: E402

TINY = {
    "tiny-gc": workloads.Shape(
        articles=5, paragraphs=2, sentences=3, method="gc", truecase=True,
        mismatch_share=0.4, crawl_noise=True,
    ),
    "tiny-bleualign": workloads.Shape(articles=2, paragraphs=1, sentences=8, method="bleualign", min_score=0.02),
    "tiny-moore": workloads.Shape(articles=3, paragraphs=2, sentences=4, method="moore", en_sbd="punkt"),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, shape in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, shape)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_generates_identical_files(name, tmp_path):
    workloads.generate(name, 7, tmp_path / "a")
    workloads.generate(name, 7, tmp_path / "b")
    workloads.generate(name, 8, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_plan_matches_the_generated_files(tmp_path):
    plan = workloads.generate("many-short-gc", 3, tmp_path)
    articles = plan["articles"]
    assert len(articles) == workloads.WORKLOADS["many-short-gc"].articles
    mismatched = sum(a["src_paragraphs"] != a["tgt_paragraphs"] for a in articles.values())
    assert mismatched == round(0.2 * len(articles))
    for pair_id, want in articles.items():
        mt = (tmp_path / "mt_zh2en" / f"{pair_id}.txt").read_text(encoding="utf-8").splitlines()
        assert len(mt) == want["src_len"]
        header = (tmp_path / "gold" / f"{pair_id}.tsv").read_text(encoding="utf-8").splitlines()[0]
        assert header == f"# src_len={want['src_len']}\ttgt_len={want['tgt_len']}"


def test_lexicon_avoids_abbreviations():
    abbrevs = workloads.load_abbreviations()
    lex = workloads.Lexicon(workloads.random.Random(1), abbrevs)
    assert not set(lex.en) & abbrevs
    assert len(set(lex.en)) == len(set(lex.zh)) == workloads.LEXICON_SIZE


def _gold_as_output(workload_dir: Path, plan: dict, out: Path) -> None:
    """An output tree whose alignments are the gold ones."""
    (out / "03_align").mkdir(parents=True)
    (out / "04_dedup").mkdir()
    (out / "05_split").mkdir()
    for pair_id in plan["articles"]:
        shutil.copy(workload_dir / "gold" / f"{pair_id}.tsv", out / "03_align" / f"{pair_id}.tsv")
    (out / "05_split" / "manifest.tsv").write_text("".join(f"{p}\ttrain\t1\n" for p in plan["articles"]))
    (out / "04_dedup" / "bitext.tsv").write_text("a\tb\nc\td\n")
    (out / "05_split" / "train.tsv").write_text("a\tb\n")
    (out / "05_split" / "dev.tsv").write_text("c\td\n")
    (out / "05_split" / "test.tsv").write_text("")


def test_gold_as_prediction_scores_f1_one(tmp_path):
    plan = workloads.generate("long-bleualign", 1, tmp_path / "w")
    _gold_as_output(tmp_path / "w", plan, tmp_path / "out")
    verdict = checks.check_output(tmp_path / "out", tmp_path / "w", plan)
    assert verdict.failed == set() and verdict.problems == []
    assert verdict.f1 == 1.0


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text + "x\ty\tz\tw\n",  # unparseable line
        lambda text: text + "0\t0\tNA\tgc\n",  # index reuse
        lambda text: text.replace("# src_len=", "# src_len=1"),  # wrong sentence count
    ],
)
def test_corrupted_alignment_fails_its_article(tmp_path, corrupt):
    plan = workloads.generate("mid-moore", 1, tmp_path / "w")
    _gold_as_output(tmp_path / "w", plan, tmp_path / "out")
    victim = sorted(plan["articles"])[1]
    path = tmp_path / "out" / "03_align" / f"{victim}.tsv"
    path.write_text(corrupt(path.read_text()))
    verdict = checks.check_output(tmp_path / "out", tmp_path / "w", plan)
    assert verdict.failed == {victim}


def test_split_rows_must_add_up(tmp_path):
    plan = workloads.generate("mid-moore", 1, tmp_path / "w")
    _gold_as_output(tmp_path / "w", plan, tmp_path / "out")
    (tmp_path / "out" / "05_split" / "test.tsv").write_text("e\tf\n")
    verdict = checks.check_output(tmp_path / "out", tmp_path / "w", plan)
    assert verdict.failed == set(plan["articles"])


def test_differing_artifacts_fail_their_owner():
    articles = {"P0000": {}, "P0001": {}}
    ref = {"02_sbd/P0000-en.tsv": "a", "03_align/P0001.tsv": "b", "04_dedup/bitext.tsv": "c"}
    verdict = checks.Verdict()
    checks.compare_digests(ref, dict(ref, **{"02_sbd/P0000-en.tsv": "x"}), articles, "t", verdict)
    assert verdict.failed == {"P0000"}
    checks.compare_digests(ref, dict(ref, **{"04_dedup/bitext.tsv": "x"}), articles, "t", verdict)
    assert verdict.failed == set(articles)


def _pipeline_digests(config_path: Path, out: Path, tracer: Tracer | None = None) -> dict:
    config = dataclasses.replace(load_config(config_path), output=out)
    if tracer is None:
        run_pipeline(config, jobs=1)
    else:
        tracer.install()
        try:
            tracer.call("pipeline.run", run_pipeline, config, jobs=1)
        finally:
            tracer.uninstall()
    return digests(out)


@pytest.mark.parametrize("name", list(TINY))
def test_layer_wrappers_leave_output_bytes_unchanged(name, tiny, tmp_path):
    plan = workloads.generate(name, 2, tmp_path / "w")
    originals = {
        (m, a): getattr(m, a)
        for m, a in ((pipeline, "gc_align"), (moore, "_forward_backward"), (bleualign, "_align_block"), (gale_church, "_align_block"))
    }
    plain = _pipeline_digests(tmp_path / "w" / "config.json", tmp_path / "plain")
    tracer = Tracer({f"{p}-{lang}": p for p in plan["articles"] for lang in ("zh", "en")})
    traced = _pipeline_digests(tmp_path / "w" / "config.json", tmp_path / "traced", tracer)
    assert traced == plain
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())
    metrics = tracer.metrics()
    assert metrics["sbd.sentences"] == sum(a["src_len"] + a["tgt_len"] for a in plan["articles"].values())
    root = tracer.spans[0]
    assert root[0] == "pipeline.run" and root[3] is None
    assert sum(metrics[f"{layer}.self_s"] for layer in ("core", "preprocess", "sbd", "gale_church", "moore", "bleualign", "pipeline")) == pytest.approx(root[2] - root[1])
    articles = {s[4] for s in tracer.spans if s[0] in ("gale_church.gc_align", "moore.pass2", "bleualign.bleualign")}
    assert articles == set(plan["articles"])


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    tracer = Tracer({})
    traced = set(tracer.metrics())
    stages = {f"pipeline.stage.{s}_s" for s in ("preprocess", "sbd", "align", "dedup", "split", "stats")}
    derived = {"pipeline.dedup_removed_ratio", "trace.run_s_untraced", "trace.run_s_traced", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced | stages | derived
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "run_s_jobs2", "peak_rss_mb", "setup_s", "align_f1"}

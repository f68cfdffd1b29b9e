"""Correctness checks on one pipeline output directory.

Every check is tied to the article pairs it can fail: a bad alignment file
fails its own article, a corpus-level file (bitext, splits, manifest,
models, reports) fails every article. The benchmark's ``error_rate`` is
failed articles over attempted ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from bitextkit.core import FormatError, read_alignments, validate_alignment

#: Stage directories whose files each belong to one article.
ARTICLE_DIRS = ("01_preprocess", "02_sbd", "03_align")


@dataclass
class Verdict:
    """Articles that failed, why, and the pooled 1-1 bead counts for F1."""

    failed: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    matches: int = 0
    predicted: int = 0
    gold: int = 0

    def fail(self, articles, problem: str) -> None:
        self.failed.update(articles)
        self.problems.append(problem)

    @property
    def f1(self) -> float:
        """Pooled F1 over 1-1 beads, as evaluation.prf1 scores one article."""
        p = self.matches / self.predicted if self.predicted else 0.0
        r = self.matches / self.gold if self.gold else 0.0
        return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _one_to_one(aset) -> set:
    return {b.key for b in aset.beads if b.bead_type == (1, 1)}


def _rows(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def check_output(out: Path, workload_dir: Path, plan: dict) -> Verdict:
    """Check one run's artifacts against the generator's plan and gold."""
    v = Verdict()
    articles = plan["articles"]
    for pair_id, want in articles.items():
        try:
            pred = read_alignments(out / "03_align" / f"{pair_id}.tsv")
            gold = read_alignments(workload_dir / "gold" / f"{pair_id}.tsv")
        except (OSError, FormatError) as exc:
            v.fail([pair_id], f"{pair_id}: unreadable alignment ({exc})")
            continue
        violations = validate_alignment(pred)
        if violations:
            v.fail([pair_id], f"{pair_id}: {violations[0]}")
            continue
        if (pred.src_len, pred.tgt_len) != (want["src_len"], want["tgt_len"]):
            v.fail(
                [pair_id],
                f"{pair_id}: aligned {pred.src_len}x{pred.tgt_len} sentences, "
                f"planned {want['src_len']}x{want['tgt_len']}",
            )
            continue
        p, g = _one_to_one(pred), _one_to_one(gold)
        v.matches += len(p & g)
        v.predicted += len(p)
        v.gold += len(g)
    try:
        manifest = {
            line.split("\t")[0]
            for line in (out / "05_split" / "manifest.tsv").read_text(encoding="utf-8").splitlines()
        }
        if manifest != set(articles):
            v.fail(set(articles) ^ manifest, "manifest does not cover exactly the planned articles")
        split_rows = sum(_rows(out / "05_split" / f"{s}.tsv") for s in ("train", "dev", "test"))
        bitext_rows = _rows(out / "04_dedup" / "bitext.tsv")
        if split_rows != bitext_rows:
            v.fail(articles, f"train+dev+test has {split_rows} rows, bitext.tsv has {bitext_rows}")
    except OSError as exc:
        v.fail(articles, f"missing corpus artifact ({exc})")
    return v


def article_of(relpath: str, articles) -> str | None:
    """The pair id a per-article artifact belongs to; None for corpus files."""
    directory, _, name = relpath.partition("/")
    if directory not in ARTICLE_DIRS:
        return None
    stem = name.rsplit(".", 1)[0]
    for candidate in (stem, stem.rsplit("-", 1)[0]):  # <pair_id> or <pair_id>-<lang>
        if candidate in articles:
            return candidate
    return None


def compare_digests(reference: dict, other: dict, articles, label: str, v: Verdict) -> None:
    """Fail the articles whose artifacts differ between two runs."""
    for relpath in sorted(set(reference) | set(other)):
        if reference.get(relpath) != other.get(relpath):
            owner = article_of(relpath, articles)
            v.fail([owner] if owner else articles, f"{label}: {relpath} differs")

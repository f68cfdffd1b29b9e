"""In-memory spans and counters around the package's layer functions.

:class:`Tracer` replaces module-level names with timing wrappers *where they
are looked up*: ``pipeline`` imports the stage functions and aligners by
name, ``bleualign`` imports ``_align_block`` by name, and ``moore`` calls
``_forward_backward`` and ``train_ibm1`` through its own globals, so each
name is wrapped in the module that calls it. Nothing under ``src/`` is
edited, and :meth:`Tracer.uninstall` puts every original back.

A span is ``(name, start, end, parent index, pair_id)``. Its pair_id comes
from the per-article aligner call that encloses it. Scoring is too fine to
span: ``sentence_bleu`` calls are counted instead.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

from bitextkit import bleualign, gale_church, moore, pipeline

#: The package modules spans are named after ("<layer>.<what>").
LAYERS = ("core", "preprocess", "sbd", "gale_church", "moore", "bleualign", "pipeline")

#: Per-article aligner entry points; their spans make pipeline.article_align_ms.
ARTICLE_SPANS = ("gale_church.gc_align", "moore.pass1", "moore.pass2", "bleualign.bleualign")

#: Spans whose summed time (inclusive of children) is a per-layer metric "<span>_s".
TIMED_SPANS = (
    "bleualign.score_matrix", "bleualign.anchors", "bleualign.grow", "bleualign.fill_gaps",
    "moore.pass1", "moore.em", "moore.pass2", "moore.forward_backward",
    "gale_church.estimate", "gale_church.lattice",
    "sbd.segment_en", "sbd.segment_zh", "sbd.train_punkt",
    "preprocess.normalize", "preprocess.stitch", "preprocess.filter", "preprocess.truecase",
    "core.read", "core.write", "pipeline.dedup", "pipeline.stats",
)


def _cells(a, b) -> int:
    return (len(a) + 1) * (len(b) + 1)


def _paragraphs(sl) -> int:
    return len(set(sl.paragraph_index))


class Tracer:
    """Collects spans and counters for one traced pipeline run."""

    def __init__(self, pair_of_doc: dict[str, str]):
        self.pair_of_doc = pair_of_doc
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, pair_id: str | None = None, **kwargs):
        """Run fn inside a span; pair_id defaults to the enclosing span's."""
        parent = self._stack[-1] if self._stack else None
        if pair_id is None and parent is not None:
            pair_id = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, pair_id])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, module, attr: str, name: str, after=None, per_article: bool = False) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            pair_id = self.pair_of_doc.get(args[0].doc_id) if per_article else None
            result = self.call(name, original, *args, pair_id=pair_id, **kwargs)
            if after is not None:
                after(args, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def _count(self, module, attr: str, counter: str) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return original(*args, **kwargs)

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        c = self.counts
        p = pipeline
        self._wrap(p, "read_documents", "core.read")
        for attr in ("write_documents", "write_metadata", "write_sentences", "write_alignments"):
            self._wrap(p, attr, "core.write")
        self._wrap(p, "normalize_document", "preprocess.normalize")
        self._wrap(p, "stitch_paragraphs", "preprocess.stitch")
        self._wrap(p, "filter_boilerplate", "preprocess.filter")
        self._wrap(p, "train_truecaser", "preprocess.truecase")
        self._wrap(p, "apply_truecaser", "preprocess.truecase")

        def sentences(args, result):
            c["sbd.sentences"] += len(result)

        self._wrap(p, "segment_zh", "sbd.segment_zh", sentences)
        self._wrap(p, "segment_en_rules", "sbd.segment_en", sentences)
        self._wrap(p, "segment_punkt", "sbd.segment_en", sentences)
        self._wrap(p, "train_punkt", "sbd.train_punkt")

        def whole_doc(args, result):
            src, tgt = args[0], args[1]
            if _paragraphs(src) != _paragraphs(tgt) or not len(src):
                c["gale_church.whole_doc_lattices"] += 1

        def lattice(args, result):
            c["gale_church.lattice_cells"] += _cells(args[0], args[1])

        self._wrap(p, "estimate_length_params", "gale_church.estimate")
        self._wrap(p, "gc_align", "gale_church.gc_align", whole_doc, per_article=True)
        self._wrap(gale_church, "_align_block", "gale_church.lattice", lattice)

        def confident(args, result):
            c["moore.confident_pairs"] += len(result[1])
            c["moore.min_sentences"] += min(len(args[0]), len(args[1]))

        def table(args, result):
            c["moore.table_entries"] += sum(len(d) for d in result.t.values())

        def moore_cells(args, result):
            c["moore.lattice_cells"] += (args[0] + 1) * (args[1] + 1)

        self._wrap(p, "length_pass", "moore.pass1", confident, per_article=True)
        self._wrap(p, "train_lexicon", "moore.train_lexicon", table)
        self._wrap(p, "moore_align", "moore.pass2", per_article=True)
        self._wrap(moore, "train_ibm1", "moore.em")
        self._wrap(moore, "_forward_backward", "moore.forward_backward", moore_cells)

        def matrix(args, result):
            c["bleualign.cells"] += result.rows * result.cols

        def anchors(args, result):
            m, min_score = args[0], args[1] if len(args) > 1 else 0.0
            c["bleualign.cells_above_min"] += sum(v > min_score for row in m.entries for v in row)
            c["bleualign.anchors"] += len(result)

        self._wrap(p, "bleualign", "bleualign.bleualign", per_article=True)
        self._wrap(bleualign, "score_matrix", "bleualign.score_matrix", matrix)
        self._wrap(bleualign, "find_anchors", "bleualign.anchors", anchors)
        self._wrap(bleualign, "_grow_anchors", "bleualign.grow")
        self._wrap(bleualign, "_fill_gaps", "bleualign.fill_gaps")
        self._wrap(bleualign, "_align_block", "gale_church.lattice", lattice)
        self._count(bleualign, "sentence_bleu", "scoring.sentence_bleu_calls")

        self._wrap(p, "_stage_dedup", "pipeline.dedup")
        self._wrap(p, "_stage_stats", "pipeline.stats")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- summaries ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer times, counters, ratios and self times of the spans."""
        totals: Counter = Counter()
        self_time: Counter = Counter()
        article_s: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, pair_id in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for k, (name, start, end, parent, pair_id) in enumerate(self.spans):
            totals[name] += end - start
            self_time[name.split(".")[0]] += end - start - child_time[k]
            if name in ARTICLE_SPANS:
                article_s[pair_id] += end - start
        c = self.counts
        out = {f"{span}_s": totals[span] for span in TIMED_SPANS}
        for key in (
            "bleualign.cells", "bleualign.cells_above_min", "scoring.sentence_bleu_calls",
            "moore.lattice_cells", "moore.table_entries", "gale_church.lattice_cells",
            "gale_church.whole_doc_lattices", "sbd.sentences",
        ):
            out[key] = c[key]
        out["bleualign.anchor_ratio"] = _ratio(c["bleualign.anchors"], c["bleualign.cells_above_min"])
        out["moore.confident_ratio"] = _ratio(c["moore.confident_pairs"], c["moore.min_sentences"])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        per_article_ms = [1000 * s for s in article_s.values()]
        out["pipeline.article_align_ms_p50"] = statistics.median(per_article_ms) if per_article_ms else 0.0
        out["pipeline.article_align_ms_p90"] = _p90(per_article_ms)
        out["trace.spans"] = len(self.spans)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]

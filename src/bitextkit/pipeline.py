"""End-to-end corpus construction: preprocess, segment, align, dedup, split.

Every stage leaves its artifacts under the output directory (numbered
subdirectories, TSV throughout) plus a machine-readable run log. A run and
each stage function hand their files to one writer process
(:func:`~bitextkit.core.write_behind`), which creates them, each with its
directory, in the order they were handed over while the stages go on, so
a stage that fails before it hands over a file leaves nothing. Files are
written to a ``.partial`` name and renamed on completion, so an aborted
run never leaves a truncated file under a final name, and a file that
fails to write stops the writer, so that no later file is created.
Article-level work is ordered, so worker count never changes the output
bytes.
"""

from __future__ import annotations

import json
import logging
import time
import unicodedata
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

try:  # the class hashlib.blake2b re-exports, without loading OpenSSL
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from bitextkit import gale_church
from bitextkit.bleualign import bleualign, check_min_score
from bitextkit.core import (
    META_FILENAME,
    SRC_LANG,
    TGT_LANG,
    AlignmentSet,
    ArticleMeta,
    Document,
    SentenceList,
    read_documents,
    read_lines,
    write_alignments,
    write_behind,
    write_documents,
    write_metadata,
    write_records,
    write_sentences,
)
from bitextkit.gale_church import (
    LengthParams,
    estimate_length_params,
    gc_align,
    load_length_params,
    save_length_params,
)
from bitextkit.moore import length_pass, moore_align, save_table, train_lexicon
from bitextkit.preprocess import (
    apply_truecaser,
    default_filter_rules,
    filter_boilerplate,
    load_filter_rules,
    normalize_document,
    stitch_paragraphs,
    train_truecaser,
)
from bitextkit.sbd import (
    default_abbrevs,
    load_abbrevs,
    save_punkt,
    sbd_diff_report,
    segment_en_rules,
    segment_punkt,
    segment_zh,
    train_punkt,
)
from bitextkit.scoring import tokenize

log = logging.getLogger(__name__)

#: The one supported content hash for dedup (recorded in the run log).
HASH_NAME = "blake2b-64"

#: Article pairs as (source, target) metadata, from :func:`pair_articles`.
Pairs = list[tuple[ArticleMeta, ArticleMeta]]
#: (article, src, tgt) sentence-pair rows.
Bitext = list[tuple[str, str, str]]

_SPLITS = ("train", "dev", "test")

#: Chunks per worker in one map over the align stage's pool
#: (:func:`_article_map`): enough to even out the workers' loads, few enough
#: that each pickles its bound model rarely. The stage starts a worker only
#: for this many articles.
_CHUNKS_PER_WORKER = 4


class PipelineError(Exception):
    """A stage failed; the message names the stage and the cause."""


# ---------------------------------------------------------------------------
# deduplication

class _DedupDropTable(dict):
    """``str.translate`` table that deletes digits and punctuation: each code
    point's entry is decided on first sight and depends on nothing else, so
    one table serves every caller."""

    def __missing__(self, code_point: int) -> int | None:
        ch = chr(code_point)
        drop = ch.isdigit() or unicodedata.category(ch).startswith("P")
        entry = self[code_point] = None if drop else code_point
        return entry


_DEDUP_DROP = _DedupDropTable()


def normalize_for_dedup(text: str) -> str:
    """Casefold, drop digits and punctuation, collapse whitespace."""
    return " ".join(text.lower().translate(_DEDUP_DROP).split())


def pair_hash(src: str, tgt: str) -> str:
    payload = f"{normalize_for_dedup(src)}\t{normalize_for_dedup(tgt)}"
    return blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


def dedup_pairs(rows: Iterable[tuple[str, ...]]) -> tuple[list[tuple[str, ...]], int]:
    """Keep the first occurrence of each row whose last two fields, the
    (src, tgt) pair, are equal after normalization; serves both (src, tgt)
    and (article, src, tgt) rows, from any iterable read once."""
    seen: set[str] = set()
    kept = []
    n_rows = 0
    for n_rows, row in enumerate(rows, 1):
        h = pair_hash(*row[-2:])
        if h not in seen:
            seen.add(h)
            kept.append(row)
    return kept, n_rows - len(kept)


# ---------------------------------------------------------------------------
# splitting

@dataclass(frozen=True)
class SplitSpec:
    """Sentence-count targets for the held-out splits; articles are consumed
    newest-first and never straddle a split."""

    test_sentence_target: int = 2102
    dev_sentence_target: int = 2036

    def __post_init__(self):
        for name in ("test_sentence_target", "dev_sentence_target"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def split_corpus(
    articles: list[tuple[ArticleMeta, int]], spec: SplitSpec = SplitSpec()
) -> dict[str, str]:
    """Assign whole articles to test, then dev, then train.

    Articles are ordered by date descending (id breaks ties); each phase
    consumes articles until its cumulative sentence-pair count reaches the
    target. Running out of articles mid-phase logs a warning. The returned
    dict is in that order, newest article first.
    """
    ids = [meta.pair_id for meta, _ in articles]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate article ids: {', '.join(dupes)}")
    remaining = sorted(articles, key=lambda a: (-a[0].date.toordinal(), a[0].pair_id))
    assignment: dict[str, str] = {}
    pos = 0
    for split_name, target in (
        ("test", spec.test_sentence_target),
        ("dev", spec.dev_sentence_target),
    ):
        taken = 0
        while pos < len(remaining) and taken < target:
            meta, count = remaining[pos]
            assignment[meta.pair_id] = split_name
            taken += count
            pos += 1
        if taken < target:
            log.warning(
                "articles exhausted while filling %s split (%d of %d sentence pairs)",
                split_name,
                taken,
                target,
            )
    for meta, _ in remaining[pos:]:
        assignment[meta.pair_id] = "train"
    return assignment


# ---------------------------------------------------------------------------
# statistics

def _token_counts(bitext: Bitext) -> list[tuple[str, int, int]]:
    """(article, source tokens, target tokens) of each (article, src, tgt) row."""
    return [
        (a, len(tokenize(src, SRC_LANG)), len(tokenize(tgt, TGT_LANG))) for a, src, tgt in bitext
    ]


def _sum_counts(counts: list[tuple[str, int, int]]) -> tuple[int, int, int, int]:
    return (
        len(counts), sum(n for _, n, _ in counts), sum(n for _, _, n in counts),
        len({a for a, _, _ in counts}),
    )


def corpus_stats(bitext: Bitext) -> tuple[int, int, int, int]:
    """(sentence pairs, source tokens, target tokens, distinct articles)
    over (article, src, tgt) rows."""
    return _sum_counts(_token_counts(bitext))


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class PipelineConfig:
    input: Path
    output: Path
    patterns: Path | None = None
    abbreviations: Path | None = None
    en_sbd: str = "rules"  # "rules" | "punkt"
    truecase: bool = True
    method: str = "gc"  # "gc" | "moore" | "bleualign"
    params_file: Path | None = None
    min_score: float = 0.0
    mt_src: Path | None = None
    mt_tgt: Path | None = None
    split: SplitSpec = SplitSpec()
    jobs: int = 1

    def __post_init__(self):
        if self.method not in ("gc", "moore", "bleualign"):
            raise ValueError(f"unknown aligner method {self.method!r}")
        if self.en_sbd not in ("rules", "punkt"):
            raise ValueError(f"unknown en segmenter {self.en_sbd!r}")
        if isinstance(self.jobs, bool) or not isinstance(self.jobs, int) or self.jobs < 1:
            raise ValueError(f"jobs must be >= 1 and an integer, got {self.jobs!r}")
        if not isinstance(self.truecase, bool):
            raise ValueError(f"truecase must be true or false, got {self.truecase!r}")
        check_min_score(self.min_score)
        if self.method == "bleualign" and self.mt_src is None:
            raise ValueError("bleualign requires mt_src (directory of translation files)")


_PATH_KEYS = ("input", "output", "patterns", "abbreviations", "params_file", "mt_src", "mt_tgt")


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON config; relative paths resolve against the file's
    directory, and every error names the file."""
    path = Path(path)
    kwargs: dict = {}
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object")
        if raw.pop("hash", HASH_NAME) != HASH_NAME:
            raise ValueError(f"unsupported hash (only {HASH_NAME})")
        for key, value in raw.items():
            if key in _PATH_KEYS:
                optional = key not in ("input", "output")
                if not isinstance(value, str) and not (optional and value is None):
                    raise ValueError(f"{key} must be a string{' or null' if optional else ''}, got {value!r}")
                kwargs[key] = None if value is None else (path.parent / value).resolve()
            elif key == "split":
                kwargs[key] = SplitSpec(**value)
            else:
                kwargs[key] = value
        return PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# stage helpers

def pair_articles(metas: list[ArticleMeta]) -> Pairs:
    """(source, target) metadata of each article, by pair_id, so that the
    order of the metadata rows changes nothing a stage writes; an article
    without exactly one side per language is an error."""
    by_pair: dict[str, dict[str, ArticleMeta]] = {}
    for m in metas:
        sides = by_pair.setdefault(m.pair_id, {})
        if m.language in sides:
            raise ValueError(
                f"article {m.pair_id} has two {m.language} documents: "
                f"{sides[m.language].doc_id} and {m.doc_id}"
            )
        sides[m.language] = m
    pairs = []
    for pair_id, sides in sorted(by_pair.items()):
        if set(sides) != {SRC_LANG, TGT_LANG}:
            raise ValueError(f"article {pair_id} lacks a {SRC_LANG}/{TGT_LANG} pair")
        pairs.append((sides[SRC_LANG], sides[TGT_LANG]))
    return pairs


def _segment(doc: Document, abbrevs, punkt_model) -> SentenceList:
    sentences: list[str] = []
    para_idx: list[int] = []
    for idx, para in enumerate(doc.paragraphs):
        if doc.meta.language == "zh":
            segs = segment_zh(para)
        elif punkt_model is not None:
            segs = segment_punkt(para, punkt_model)
        else:
            segs = segment_en_rules(para, abbrevs)
        sentences.extend(segs)
        para_idx.extend([idx] * len(segs))
    return SentenceList(doc.meta.doc_id, doc.meta.language, tuple(sentences), tuple(para_idx))


def _read_mt(path: Path, doc_id: str, language: str, template: SentenceList) -> SentenceList:
    if not path.is_file():
        raise FileNotFoundError(f"translation file not found: {path}")
    lines = [ln.strip() for ln in read_lines(path)]
    while lines and not lines[-1]:
        lines.pop()
    if "" in lines:
        raise ValueError(f"{path} line {lines.index('') + 1}: blank translation line")
    if len(lines) != len(template):
        raise ValueError(
            f"{path}: {len(lines)} translation lines for {len(template)} sentences"
        )
    return SentenceList(doc_id, language, tuple(lines), template.paragraph_index)


# ---------------------------------------------------------------------------
# the pipeline

def run_pipeline(config: PipelineConfig, jobs: int | None = None) -> int:
    """Execute all stages, with ``jobs`` in place of ``config.jobs`` when it
    is given; returns 0 on success, raises PipelineError otherwise.

    ``config.jobs`` bounds the worker processes, which only the align stage
    starts (see :func:`stage_align`). Preprocess, sbd, the corpus models,
    dedup, split and stats run in this process. Their files go to one writer
    process, started when the run starts and reaped before it returns or
    raises, which creates them in order while the run goes on.
    A file that fails to write fails the stage that handed it over, and
    nothing after it is created, as if the stage had written it itself.

    Each stage's data is dropped once no later stage reads it: the documents
    after sbd, and each article's sentence lists and alignment as dedup
    makes its rows. Only the counts the run log reports are kept, so peak
    memory follows one stage's data, not the whole run's."""
    if jobs is not None:
        config = replace(config, jobs=jobs)
    try:
        with write_behind() as writer:
            _run(config, writer)
    except OSError as exc:
        label = getattr(exc, "label", "")  # the writer's failure names the stage
        if label:
            raise PipelineError(f"{label} stage failed: {exc}") from exc
        raise
    return 0


def _run(config: PipelineConfig, writer) -> None:
    """The stages of :func:`run_pipeline`, then the run log; ``writer`` is the
    run's open writer, and each stage's requests go to it under its name."""
    durations: dict[str, float] = {}

    def stage(name: str, fn, *args):
        writer.label(name)
        t0 = time.monotonic()
        try:
            result = fn(*args)
        except Exception as exc:
            raise PipelineError(f"{name} stage failed: {exc}") from exc
        durations[name] = round(time.monotonic() - t0, 6)
        return result

    docs, pairs = stage("preprocess", stage_preprocess, config)
    counts = {"preprocess": (len(docs), len(docs))}
    sentences = stage("sbd", stage_sbd, config, pairs, docs)
    counts["sbd"] = (len(docs), sum(map(len, sentences.values())))
    del docs
    alignments = stage("align", stage_align, config, pairs, sentences)
    counts["align"] = (len(pairs), sum(map(len, alignments.values())))
    bitext, removed = stage("dedup", _stage_dedup, config, pairs, sentences, alignments)
    counts["dedup"] = (len(bitext) + removed, len(bitext))
    assignment = stage("split", stage_split, config, pairs, bitext)
    counts["split"] = (len(pairs), len(set(assignment.values())))
    stage("stats", _stage_stats, config, bitext, assignment)
    counts["stats"] = (len(bitext), 1 + len(_SPLITS))
    entries = [{"stage": "start", "method": config.method, "hash": HASH_NAME, "jobs": config.jobs}]
    for name, (n_in, n_out) in counts.items():
        entries.append(
            {"stage": name, "inputs": n_in, "outputs": n_out, "duration_s": durations[name]}
        )
    writer.label("")
    write_records(
        Path(config.output) / "run_log.jsonl", [(json.dumps(e, sort_keys=True),) for e in entries]
    )


@write_behind()
def stage_preprocess(config: PipelineConfig) -> tuple[list[Document], Pairs]:
    """Read, pair and clean the documents; returns them and the article pairs."""
    out = Path(config.output)
    docs = read_documents(config.input)
    pairs = pair_articles([d.meta for d in docs])
    rules = load_filter_rules(config.patterns) if config.patterns else default_filter_rules()
    pre = [stitch_paragraphs(normalize_document(d)) for d in docs]
    removal_rows: list[tuple[str, int, str]] = []
    post: list[Document] = []
    for doc in pre:
        filtered, removals = filter_boilerplate(doc, rules)
        removal_rows.extend((doc.meta.doc_id, idx, rule) for idx, rule in removals)
        post.append(filtered)
    if config.truecase:
        model = train_truecaser(post)
        post = [apply_truecaser(d, model) for d in post]
    write_documents(post, out / "01_preprocess")
    write_records(out / "removal_log.tsv", removal_rows)
    n_pre = {d.meta.doc_id: len(d.paragraphs) for d in pre}
    n_post = {d.meta.doc_id: len(d.paragraphs) for d in post}
    report = [["pair_id", "zh_pre", "en_pre", "zh_post", "en_post"]] + [
        [s.pair_id, n_pre[s.doc_id], n_pre[t.doc_id], n_post[s.doc_id], n_post[t.doc_id]]
        for s, t in pairs
    ]
    write_records(out / "paragraph_report.csv", report, ",")
    return post, pairs


@write_behind()
def stage_sbd(config: PipelineConfig, pairs: Pairs, docs: list[Document]) -> dict[str, SentenceList]:
    """Segment ``docs``, the documents of ``pairs``, in this process at any
    ``config.jobs``; returns the sentences keyed by doc_id. The corpus
    models are the abbreviation list and, when ``en_sbd`` is punkt, the
    Punkt model trained here. Each document's file is written as it is
    segmented. ``sbd_report.csv`` compares each pair's zh and en sentence
    counts."""
    out = Path(config.output)
    abbrevs = load_abbrevs(config.abbreviations) if config.abbreviations else default_abbrevs()
    punkt_model = None
    stage_dir = out / "02_sbd"
    if config.en_sbd == "punkt":
        punkt_model = train_punkt(docs)
        save_punkt(punkt_model, stage_dir / "punkt_model.txt")
    sentence_lists: dict[str, SentenceList] = {}
    for doc in docs:
        sl = sentence_lists[doc.meta.doc_id] = _segment(doc, abbrevs, punkt_model)
        write_sentences(sl, stage_dir / f"{doc.meta.doc_id}.tsv")
    write_metadata(docs, stage_dir / META_FILENAME)
    counts = [
        (s.pair_id, len(sentence_lists[s.doc_id]), len(sentence_lists[t.doc_id]))
        for s, t in pairs
    ]
    write_records(out / "sbd_report.csv", sbd_diff_report(counts), ",")
    return sentence_lists


def _corpus_length_params(doc_pairs: list[tuple[SentenceList, SentenceList]]) -> LengthParams:
    """Length-model parameters for gc/bleualign fitted on the character
    counts of the paragraph pairs (a document whose paragraph counts differ
    counts as one pair, a newline between two paragraphs)."""
    length_pairs: list[tuple[int, int]] = []
    for src, tgt in doc_pairs:
        sides = src.paragraph_lengths(), tgt.paragraph_lengths()
        if len(sides[0]) == len(sides[1]):
            length_pairs.extend(zip(*sides))
        else:
            length_pairs.append(tuple(sum(lens) + max(len(lens) - 1, 0) for lens in sides))
    for side, name in enumerate(("source", "target")):
        if not any(pair[side] for pair in length_pairs):
            raise ValueError(f"no {name}-side text to fit the length model on; set params_file (--params)")
    return estimate_length_params(length_pairs)


class _Collect(logging.Handler):
    """Keeps every record it handles, with its message (and any traceback)
    flattened to text so the record pickles."""

    def __init__(self):
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        record.msg = self.format(record)
        record.args = record.exc_info = record.exc_text = record.stack_info = None
        self.records.append(record)


def _logging_call(fn, *args):
    """``fn(*args)`` in a pool worker, with the root handlers swapped for a
    :class:`_Collect`; returns the result and the records it logged."""
    root = logging.getLogger()
    collect, saved = _Collect(), root.handlers
    root.handlers = [collect]
    try:
        return fn(*args), collect.records
    finally:
        root.handlers = saved


@contextmanager
def _article_map(config: PipelineConfig, pairs: Pairs):
    """The map :func:`stage_align` runs its per-article work through: a pool
    of ``min(config.jobs, len(pairs) // _CHUNKS_PER_WORKER)`` worker
    processes open for the block, or, below two workers, the serial builtin
    ``map``. A worker costs a fork and the pickling of its tasks, which a
    handful of articles does not pay back; the pool's modules are imported
    only when a pool opens.

    Over the pool, each map goes out in :data:`_CHUNKS_PER_WORKER` chunks per
    worker: ``fn``, with the corpus model it binds, is pickled once per chunk
    and serves the whole chunk in one worker. Results arrive in order, and
    each worker's log records are handled by the parent's loggers in article
    order, as a serial run logs them."""
    workers = min(config.jobs, len(pairs) // _CHUNKS_PER_WORKER)
    if workers < 2:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:

        def pool_map(fn, *columns):
            chunksize = -(-len(columns[0]) // (_CHUNKS_PER_WORKER * workers))
            for result, records in pool.map(partial(_logging_call, fn), *columns, chunksize=chunksize):
                for record in records:
                    logging.getLogger(record.name).handle(record)
                yield result

        yield pool_map


@write_behind()
def stage_align(
    config: PipelineConfig, pairs: Pairs, sentences: dict[str, SentenceList]
) -> dict[str, AlignmentSet]:
    """Align every article pair; returns the alignments keyed by pair_id.

    The corpus model (moore's translation table, which :func:`train_lexicon`
    trains between the two passes, or the length params, loaded from
    ``config.params_file`` or else fitted) is saved under ``03_align`` in
    this process, then bound to one per-article aligner; bleualign reads
    every translation file before the params are saved, so a stage that
    fails on its inputs or its model writes nothing. Both moore passes, gc
    and bleualign run through the one :func:`_article_map` the stage opens,
    and each article's file is written as its alignment arrives. The length
    terms this process memoized are dropped when the stage ends."""
    columns = [[sentences[s.doc_id] for s, _ in pairs], [sentences[t.doc_id] for _, t in pairs]]
    stage_dir = Path(config.output) / "03_align"
    try:
        with _article_map(config, pairs) as pmap:
            if config.method == "moore":
                passes = pmap(length_pass, *columns)
                table = train_lexicon([(src, tgt, found) for src, tgt, (_, found) in zip(*columns, passes)])
                save_table(table, stage_dir / "translation_table.tsv")
                align = partial(moore_align, table=table)
            else:
                if config.params_file:
                    params = load_length_params(config.params_file)
                else:
                    params = _corpus_length_params(list(zip(*columns)))
                if config.method == "gc":
                    align = partial(gc_align, params=params)
                else:
                    mt_srcs, mt_tgts = [], []
                    for (meta, _), src, tgt in zip(pairs, *columns):
                        pair_id = meta.pair_id
                        mt_srcs.append(
                            _read_mt(Path(config.mt_src) / f"{pair_id}.txt", f"{pair_id}-mt", TGT_LANG, src)
                        )
                        mt_tgts.append(
                            None if config.mt_tgt is None else _read_mt(
                                Path(config.mt_tgt) / f"{pair_id}.txt", f"{pair_id}-mt-rev", SRC_LANG, tgt
                            )
                        )
                    columns += [mt_srcs, mt_tgts]
                    align = partial(bleualign, min_score=config.min_score, params=params)
                save_length_params(params, stage_dir / "length_params.txt")
            alignments: dict[str, AlignmentSet] = {}
            for (meta, _), aset in zip(pairs, pmap(align, *columns)):
                alignments[meta.pair_id] = aset
                write_alignments(aset, stage_dir / f"{meta.pair_id}.tsv")
    finally:
        # pool workers keep their own length terms until the pool closes
        gale_church._LOG_MATCH_MEMO.clear()
    return alignments


def _stage_dedup(
    config: PipelineConfig,
    pairs: Pairs,
    sentences: dict[str, SentenceList],
    alignments: dict[str, AlignmentSet],
) -> tuple[Bitext, int]:
    """Join the sentences of every two-sided bead and drop duplicates;
    returns the kept rows and the number removed. Each article's entries
    leave ``sentences`` and ``alignments`` once its rows are made, so the
    memory they hold is freed as the stage goes."""

    def rows():
        for src_meta, tgt_meta in pairs:
            src, tgt = sentences.pop(src_meta.doc_id), sentences.pop(tgt_meta.doc_id)
            for bead in alignments.pop(src_meta.pair_id).beads:
                if bead.src and bead.tgt:
                    yield src_meta.pair_id, src.join(bead.src), tgt.join(bead.tgt)

    kept, removed = dedup_pairs(rows())
    stage_dir = Path(config.output) / "04_dedup"
    write_records(stage_dir / "pairs.tsv", kept)
    write_records(stage_dir / "bitext.tsv", ((s, t) for _, s, t in kept))
    return kept, removed


@write_behind()
def stage_split(config: PipelineConfig, pairs: Pairs, bitext: Bitext) -> dict[str, str]:
    """Assign articles to splits; returns the split of each pair_id. Rows of
    an article not in ``pairs`` fail before anything is written."""
    per_article: dict[str, int] = {}
    for pair_id, _, _ in bitext:
        per_article[pair_id] = per_article.get(pair_id, 0) + 1
    unknown = sorted(set(per_article) - {src_meta.pair_id for src_meta, _ in pairs})
    if unknown:
        raise ValueError(f"bitext rows of articles not in the metadata: {', '.join(unknown)}")
    articles = [(src_meta, per_article.get(src_meta.pair_id, 0)) for src_meta, _ in pairs]
    assignment = split_corpus(articles, config.split)
    stage_dir = Path(config.output) / "05_split"
    write_records(
        stage_dir / "manifest.tsv",
        [(pair_id, split, per_article.get(pair_id, 0)) for pair_id, split in assignment.items()],
    )
    for split_name in _SPLITS:
        rows = ((s, t) for a, s, t in bitext if assignment[a] == split_name)
        write_records(stage_dir / f"{split_name}.tsv", rows)
    return assignment


def _stage_stats(config: PipelineConfig, bitext: Bitext, assignment: dict[str, str]) -> None:
    """Write ``stats.tsv``: :func:`corpus_stats` of the whole bitext and of
    each split, tokenizing each row once."""
    counts = _token_counts(bitext)
    scopes = [("all", counts)]
    for split_name in _SPLITS:
        scopes.append((split_name, [r for r in counts if assignment[r[0]] == split_name]))
    rows = [("scope", "sentence_pairs", "src_tokens", "tgt_tokens", "articles")]
    for name, counts_in_scope in scopes:
        rows.append((name, *_sum_counts(counts_in_scope)))
    write_records(Path(config.output) / "stats.tsv", rows)

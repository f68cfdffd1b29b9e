"""Command-line entry points.

Every pipeline stage is its own subcommand so a corpus can be built step by
step and inspected between stages; ``run`` executes the whole chain from a
JSON config. Paths are positional, tuning knobs are flags. Each stage
flag's dest is the config field it sets, and a flag left out sets nothing,
so the library's defaults are the only ones: ``_settings`` builds every
:class:`PipelineConfig` and :class:`SplitSpec` from the flags given,
``--jobs`` included. ``bleu``'s ``--n-max`` sets no config field, only the
highest n-gram order of that command's score (``scoring.N_MAX`` unless
given). Only ``run`` reads ``--config``, and only ``run`` and ``align``
read ``--jobs``, since only the align stage starts workers; either flag
given to another command is a usage error. A command whose reader closes
stdout early (``| head``) ends quietly with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from bitextkit import __version__
from bitextkit.core import (
    SRC_LANG,
    TGT_LANG,
    FormatError,
    read_alignments,
    read_documents,
    read_lines,
    read_metadata,
    read_records,
    read_sentences,
    validate_gold,
    write_documents,
    write_records,
)
from bitextkit.evaluation import alignment_type_distribution, prf1
from bitextkit.pipeline import (
    PipelineConfig,
    PipelineError,
    SplitSpec,
    corpus_stats,
    dedup_pairs,
    load_config,
    pair_articles,
    run_pipeline,
    stage_align,
    stage_preprocess,
    stage_sbd,
    stage_split,
)
from bitextkit.scoring import N_MAX, check_n_max, corpus_bleu, sentence_bleu, tokenize

log = logging.getLogger("bitextkit")


class _JsonFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        return json.dumps(
            {"level": record.levelname, "logger": record.name, "message": record.getMessage()},
            sort_keys=True,
        )


def _configure_logging(fmt: str) -> None:
    handler = logging.StreamHandler(sys.stderr)
    if fmt == "json":
        handler.setFormatter(_JsonFormatter())
    else:
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logging.basicConfig(level=logging.INFO, handlers=[handler], force=True)


def _read_tsv(path: Path, min_cols: int, max_cols: int) -> list[tuple[str, ...]]:
    """Rows of a TSV with min_cols to max_cols fields, the same number on every line."""

    def parse(fields, lineno):
        if not min_cols <= len(fields) <= max_cols:
            raise ValueError(f"expected {min_cols}-{max_cols} tab-separated fields")
        return tuple(fields)

    rows = read_records(path, parse)
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise FormatError(f"{path}: mixed column counts {sorted(widths)}")
    return rows


# ---------------------------------------------------------------------------
# subcommand handlers

def _settings(cls, args) -> dict:
    """The parsed arguments that name a field of dataclass ``cls``. A flag
    left out sets no argument, so its field keeps the library default."""
    names = {f.name for f in fields(cls)}
    return {key: value for key, value in vars(args).items() if key in names}


def _cmd_run(args) -> int:
    if args.config is None:
        raise ValueError("run requires --config FILE")
    return run_pipeline(replace(load_config(args.config), **_settings(PipelineConfig, args)))


def _cmd_ingest(args) -> int:
    docs = read_documents(args.input)
    write_documents(docs, args.output)
    print(f"ingested {len(docs)} documents into {args.output}")
    return 0


def _cmd_preprocess(args) -> int:
    docs, _ = stage_preprocess(PipelineConfig(**_settings(PipelineConfig, args)))
    print(f"preprocessed {len(docs)} documents -> {args.output / '01_preprocess'}")
    return 0


def _cmd_sbd(args) -> int:
    config = PipelineConfig(**_settings(PipelineConfig, args))
    docs = read_documents(args.input)
    sentences = stage_sbd(config, pair_articles([d.meta for d in docs]), docs)
    n_sents = sum(len(sl) for sl in sentences.values())
    print(f"segmented {len(docs)} documents into {n_sents} sentences -> {args.output / '02_sbd'}")
    return 0


def _cmd_align(args) -> int:
    config = PipelineConfig(**_settings(PipelineConfig, args))
    metas = read_metadata(args.input)
    sentences = {
        m.doc_id: read_sentences(args.input / f"{m.doc_id}.tsv", m.doc_id, m.language)
        for m in metas
    }
    pairs = pair_articles(metas)
    alignments = stage_align(config, pairs, sentences)
    n_beads = sum(len(a) for a in alignments.values())
    print(f"aligned {len(pairs)} article pairs into {n_beads} beads -> {args.output / '03_align'}")
    return 0


def _cmd_dedup(args) -> int:
    rows = _read_tsv(Path(args.input), 2, 3)
    kept, removed = dedup_pairs(rows)
    write_records(args.output, kept)
    print(f"kept {len(kept)} pairs, removed {removed} duplicates -> {args.output}")
    return 0


def _cmd_split(args) -> int:
    split = SplitSpec(**_settings(SplitSpec, args))
    config = PipelineConfig(**_settings(PipelineConfig, args), split=split)
    rows = _read_tsv(args.pairs, 3, 3)
    stage_split(config, pair_articles(read_metadata(args.input)), rows)
    print(f"split manifests written -> {args.output / '05_split'}")
    return 0


def _cmd_eval(args) -> int:
    pred = read_alignments(args.pred)
    gold = read_alignments(args.gold)
    violations = validate_gold(gold)
    if violations:
        raise ValueError(f"{args.gold}: not a valid gold alignment: {violations[0]}")
    p, r, f1 = prf1(pred, gold, one_to_one_only=not args.all_types)
    print(f"precision={p:.4f} recall={r:.4f} f1={f1:.4f}")
    if args.distribution:
        for bead_type, count, percent in alignment_type_distribution(gold):
            print(f"{bead_type},{count},{percent}")
    return 0


def _cmd_stats(args) -> int:
    rows = _read_tsv(Path(args.pairs), 2, 3)
    triples = [r if len(r) == 3 else ("-",) + r for r in rows]
    pairs, src_tokens, tgt_tokens, articles = corpus_stats(triples)
    print(
        f"sentence_pairs={pairs} src_tokens={src_tokens} "
        f"tgt_tokens={tgt_tokens} articles={articles}"
    )
    return 0


def _cmd_bleu(args) -> int:
    check_n_max(args.n_max)
    hyp_lines = read_lines(args.hyp)
    ref_lines = read_lines(args.ref)
    hyps = [tokenize(h, args.lang) for h in hyp_lines]
    refs = [tokenize(r, args.lang) for r in ref_lines]
    if args.sentence:
        if len(hyps) != len(refs):
            raise ValueError(f"length mismatch: {len(hyps)} hypotheses vs {len(refs)} references")
        for h, r in zip(hyps, refs):
            print(f"{sentence_bleu(h, r, args.n_max):.6f}")
    else:
        print(f"{corpus_bleu(hyps, refs, args.n_max):.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitextkit",
        description="Build sentence-aligned bilingual corpora from paired documents.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", type=Path, help="pipeline config (JSON)")
    parser.add_argument(
        "--jobs", type=int, default=argparse.SUPPRESS,
        help="upper bound on the align stage's worker processes (run and align only): aligning "
        "A articles starts min(JOBS, A // 4) of them, or none below two, since starting a worker "
        "costs more than a few articles' work; a run without workers never loads the pool",
    )
    parser.add_argument("--log-format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # a flag's dest is the config field it sets; one left out sets nothing
        s = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        s.set_defaults(func=func)
        return s

    command("run", _cmd_run, "run the full pipeline from --config")

    s = command("ingest", _cmd_ingest, "validate and copy a raw document directory")
    s.add_argument("input", type=Path)
    s.add_argument("output", type=Path)

    s = command("preprocess", _cmd_preprocess, "normalize, stitch, filter boilerplate, truecase")
    s.add_argument("input", type=Path)
    s.add_argument("output", type=Path)
    s.add_argument("--patterns", type=Path, help="boilerplate pattern file")
    s.add_argument("--no-truecase", dest="truecase", action="store_false")

    s = command("sbd", _cmd_sbd, "split paragraphs into sentences")
    s.add_argument("input", type=Path, help="preprocessed document directory")
    s.add_argument("output", type=Path)
    s.add_argument("--en-method", dest="en_sbd", choices=("rules", "punkt"))
    s.add_argument("--abbreviations", type=Path, help="abbreviation list file")

    s = command("align", _cmd_align, "align sentences of each article pair")
    s.add_argument("input", metavar="sentences", type=Path, help="sentence directory (sbd output)")
    s.add_argument("output", type=Path)
    s.add_argument("--method", choices=("gc", "moore", "bleualign"))
    s.add_argument("--params", dest="params_file", type=Path, help="length parameter file (skips estimation)")
    s.add_argument("--min-score", type=float)
    s.add_argument("--src-mt", dest="mt_src", type=Path, help="directory of source translations, one <pair_id>.txt each")
    s.add_argument("--tgt-mt", dest="mt_tgt", type=Path, help="directory of target translations (enables bidirectional mode)")

    s = command("dedup", _cmd_dedup, "drop near-duplicate sentence pairs")
    s.add_argument("input", type=Path, help="2- or 3-column pair TSV")
    s.add_argument("output", type=Path)

    s = command("split", _cmd_split, "assign articles to train/dev/test")
    s.add_argument("pairs", type=Path, help="3-column (article, src, tgt) TSV")
    s.add_argument("input", metavar="meta", type=Path, help="directory containing metadata.tsv")
    s.add_argument("output", type=Path)
    s.add_argument("--test", dest="test_sentence_target", type=int, help="test sentence target")
    s.add_argument("--dev", dest="dev_sentence_target", type=int, help="dev sentence target")

    s = command("eval", _cmd_eval, "score an alignment against gold")
    s.add_argument("pred", type=Path)
    s.add_argument("gold", type=Path)
    s.add_argument("--all-types", action="store_true", default=False, help="score all bead types, not only 1-1")
    s.add_argument("--distribution", action="store_true", default=False, help="also print the gold bead type table")

    s = command("stats", _cmd_stats, "corpus size statistics from a pair TSV")
    s.add_argument("pairs", type=Path)

    s = command("bleu", _cmd_bleu, "BLEU of line-parallel files")
    s.add_argument("hyp", type=Path)
    s.add_argument("ref", type=Path)
    s.add_argument("--lang", choices=(SRC_LANG, TGT_LANG), default=TGT_LANG, help="tokenizer language")
    s.add_argument("--n-max", type=int, default=N_MAX, help="highest n-gram order (default %(default)s)")
    s.add_argument("--sentence", action="store_true", default=False, help="print one score per line")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, readers in (("config", {"run"}), ("jobs", {"run", "align"})):
        if getattr(args, flag, None) is not None and args.command not in readers:
            parser.error(f"--{flag} is not read by {args.command}")
    _configure_logging(args.log_format)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout (``| head``): end quietly, and point stdout
        # at devnull so that the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PipelineError, ValueError, OSError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Core data types and file formats for the corpus pipeline.

All stages exchange a small set of immutable types (documents, sentence
lists, alignment beads) plus plain-text file formats designed to be
diffable and trivially parseable:

* document text: UTF-8, one paragraph per line, LF endings, no BOM;
* document metadata: tab-separated sidecar, one record per document with
  fields ``id  pair_id  language  date  article_type`` (no header);
* sentence files: ``paragraph_index<TAB>sentence`` per line;
* alignment files: one bead per line as
  ``src_indices<TAB>tgt_indices<TAB>score<TAB>method[<TAB>note]`` where the
  index fields are comma-joined 0-based integers (empty for a 0-side),
  score is a decimal or ``NA``, preceded by an optional comment line
  ``# src_len=N\ttgt_len=M`` recording the sentence counts.
"""

from __future__ import annotations

import datetime
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

#: Bead shapes that may appear in alignments (the types observed in the
#: hand-aligned reference data).
BEAD_TYPES = frozenset({(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3)})

#: The corpus's source and target languages. One zh/en corpus serves both
#: translation directions, so the pair is not a setting.
SRC_LANG = "zh"
TGT_LANG = "en"


class FormatError(ValueError):
    """Raised when an input file does not match its documented format."""


def check_language(code: str) -> str:
    """Validate a language tag. This is the corpus's one language rule: a
    tag is exactly ``SRC_LANG`` or ``TGT_LANG``."""
    if code not in (SRC_LANG, TGT_LANG):
        raise ValueError(f"language: {code!r} is not {SRC_LANG!r} or {TGT_LANG!r}")
    return code


_UNSAFE_ID_CHARS = re.compile(r"[/\\\t,]")


def _check_id(name: str, value: str) -> None:
    """An id names a file and fills TSV and CSV fields, and a metadata line
    whose first non-blank character is ``#`` is a comment."""
    if not value.strip():
        raise ValueError(f"{name}: must be non-empty and not blank")
    if value in (".", "..") or value.lstrip().startswith("#"):
        raise ValueError(f"{name}: {value!r} may not be '.' or '..' or start with '#'")
    if _UNSAFE_ID_CHARS.search(value) or value.splitlines() != [value]:
        raise ValueError(f"{name}: {value!r} holds '/', '\\', a tab, a comma or a line break")


@dataclass(frozen=True)
class ArticleMeta:
    """Identity and provenance of one crawled article document."""

    doc_id: str
    pair_id: str
    language: str
    date: datetime.date
    article_type: str = ""

    def __post_init__(self):
        for name in ("doc_id", "pair_id"):
            _check_id(name, getattr(self, name))
        check_language(self.language)
        if not isinstance(self.date, datetime.date):
            raise ValueError("date: must be a datetime.date")


@dataclass(frozen=True)
class Document:
    """One article in one language: metadata plus ordered paragraphs."""

    meta: ArticleMeta
    paragraphs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "paragraphs", tuple(self.paragraphs))
        for i, p in enumerate(self.paragraphs):
            if not isinstance(p, str) or not p.strip():
                raise ValueError(f"paragraphs[{i}]: must be non-empty text")


@dataclass(frozen=True)
class SentenceList:
    """Sentence-segmented document; parallel paragraph indices are kept so
    a paragraph's sentences can be re-joined losslessly. It holds only
    these fields: an aligner tokenizes the sentences it scores."""

    doc_id: str
    language: str
    sentences: tuple[str, ...]
    paragraph_index: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        object.__setattr__(self, "paragraph_index", tuple(self.paragraph_index))
        check_language(self.language)
        if len(self.sentences) != len(self.paragraph_index):
            raise ValueError(
                "paragraph_index: must have one entry per sentence "
                f"({len(self.paragraph_index)} != {len(self.sentences)})"
            )
        prev = 0
        for i, (s, p) in enumerate(zip(self.sentences, self.paragraph_index)):
            if not s.strip():
                raise ValueError(f"sentences[{i}]: must be non-empty")
            if p < 0 or p < prev:
                raise ValueError("paragraph_index: must be non-decreasing and 0-based")
            prev = p

    def __len__(self) -> int:
        return len(self.sentences)

    def join(self, indices) -> str:
        """The sentences at ``indices`` as one text: zh sentences run on,
        en sentences are separated by a space."""
        return ("" if self.language == SRC_LANG else " ").join(self.sentences[i] for i in indices)

    def paragraph_lengths(self) -> list[int]:
        """Each paragraph's character count, its sentences joined as :meth:`join` joins them."""
        return [len(self.join(range(a, b))) for a, b in self.paragraph_spans()]

    def paragraph_spans(self) -> list[tuple[int, int]]:
        """(start, end) sentence ranges of each paragraph, in order."""
        spans = []
        start = 0
        for i in range(1, len(self) + 1):
            if i == len(self) or self.paragraph_index[i] != self.paragraph_index[start]:
                spans.append((start, i))
                start = i
        return spans


@dataclass(frozen=True, slots=True)
class Bead:
    """One alignment link: a block of source sentences paired with a block
    of target sentences (either side may be empty, not both).

    Well-formed beads have contiguous ascending indices and a shape in
    :data:`BEAD_TYPES`; those constraints are reported (not raised) by
    :func:`validate_alignment` so that defective data can be inspected.
    """

    src: tuple[int, ...]
    tgt: tuple[int, ...]
    score: float | None = None
    method: str = ""

    def __post_init__(self):
        src, tgt = tuple(map(int, self.src)), tuple(map(int, self.tgt))
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        indices = src + tgt
        if not indices:
            raise ValueError("src/tgt: a bead may not be empty on both sides")
        if min(indices) < 0:
            raise ValueError("src/tgt: indices must be non-negative")

    def __reduce__(self):
        # the fields as arguments: dataclass's own state functions for
        # frozen slots call fields() per bead, twice as slow to pickle
        return Bead, (self.src, self.tgt, self.score, self.method)

    @property
    def bead_type(self) -> tuple[int, int]:
        return (len(self.src), len(self.tgt))

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Identity of the link itself, ignoring score/method."""
        return (self.src, self.tgt)


@dataclass(frozen=True)
class AlignmentSet:
    """An ordered set of beads over one document pair, with an optional
    note per bead (reference alignments carry annotator notes)."""

    beads: tuple[Bead, ...]
    src_len: int
    tgt_len: int
    notes: tuple[str | None, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "beads", tuple(self.beads))
        notes = tuple(self.notes) if self.notes else (None,) * len(self.beads)
        object.__setattr__(self, "notes", notes)
        if len(self.notes) != len(self.beads):
            raise ValueError("notes: must have one entry per bead")
        if self.src_len < 0 or self.tgt_len < 0:
            raise ValueError("src_len/tgt_len: must be non-negative")

    def __len__(self) -> int:
        return len(self.beads)


def _check_block(indices: tuple[int, ...]) -> bool:
    """True if indices form a contiguous ascending run (or are empty)."""
    return all(b == a + 1 for a, b in zip(indices, indices[1:]))


def validate_alignment(aset: AlignmentSet) -> list[str]:
    """Check structural alignment invariants; return every violation found.

    An empty list means the alignment is well formed: each bead has a shape
    from :data:`BEAD_TYPES` with contiguous ascending indices in range, and
    across beads each side's indices are strictly increasing (monotone, no
    index used twice).
    """
    violations: list[str] = []
    for k, bead in enumerate(aset.beads):
        if bead.bead_type not in BEAD_TYPES:
            m, n = bead.bead_type
            violations.append(f"bead {k}: type {m}-{n} not in allowed set")
        for side, indices, limit in (
            ("src", bead.src, aset.src_len),
            ("tgt", bead.tgt, aset.tgt_len),
        ):
            if not _check_block(indices):
                violations.append(f"bead {k}: {side} indices not contiguous ascending")
            for i in indices:
                if i >= limit:
                    violations.append(
                        f"bead {k}: {side} index {i} out of range [0, {limit})"
                    )
    for side in ("src", "tgt"):
        prev_last = None
        for k, bead in enumerate(aset.beads):
            indices = getattr(bead, side)
            if not indices:
                continue
            if prev_last is not None:
                if indices[0] == prev_last:
                    violations.append(
                        f"bead {k}: {side} index {indices[0]} reused (index reuse)"
                    )
                elif indices[0] < prev_last:
                    violations.append(
                        f"bead {k}: {side} indices go backwards (monotonicity)"
                    )
            prev_last = indices[-1]
    return violations


def validate_gold(gold: AlignmentSet) -> list[str]:
    """Validate a reference alignment: structure plus full coverage of both
    sides (every sentence in exactly one bead)."""
    violations = validate_alignment(gold)
    for side, length in (("src", gold.src_len), ("tgt", gold.tgt_len)):
        seen = [i for bead in gold.beads for i in getattr(bead, side)]
        missing = sorted(set(range(length)) - set(seen))
        if missing:
            violations.append(f"{side}: indices {missing} not covered by any bead")
    return violations


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_META_FIELDS = "id, pair_id, language, date, article_type"
META_FILENAME = "metadata.tsv"


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file; a decoding error names the file.
    Only ``\\n`` ends a line, where ``\\r\\n`` and ``\\r`` read as ``\\n``, and a
    final ``\\n`` ends the last line rather than starting an empty one."""
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not lines[-1]:
        lines.pop()
    return lines


def read_records(path: str | Path, parse, comments: bool = False) -> list:
    """Call ``parse(fields, lineno)`` on each line of a record file, split
    on tabs, and return the results in order.

    Lines end as in :func:`read_lines`. Empty lines are skipped; with
    ``comments`` so are whitespace-only lines and lines whose first
    non-blank character is ``#``. A ``ValueError`` from ``parse`` becomes a
    :class:`FormatError` naming the file and line.
    """
    path = Path(path)
    records = []
    for lineno, line in enumerate(read_lines(path), 1):
        if not line or (comments and line.lstrip()[:1] in ("", "#")):
            continue
        try:
            records.append(parse(line.split("\t"), lineno))
        except ValueError as exc:
            raise FormatError(f"{path} line {lineno}: {exc}") from exc
    return records


def _read_metadata(meta_path: Path, load=lambda meta: meta) -> list:
    if not meta_path.is_file():
        raise FormatError(f"{meta_path}: metadata file not found")
    first_line: dict[str, int] = {}

    def parse(fields, lineno):
        if len(fields) != 5:
            raise ValueError(f"expected 5 tab-separated fields ({_META_FIELDS})")
        doc_id, pair_id, language, date, article_type = fields
        meta = ArticleMeta(
            doc_id, pair_id, language, datetime.date.fromisoformat(date), article_type
        )
        first = first_line.setdefault(doc_id, lineno)
        if first != lineno:
            raise ValueError(f"doc_id {doc_id!r} already on line {first}")
        return load(meta)

    return read_records(meta_path, parse, comments=True)


def read_metadata(directory: str | Path) -> list[ArticleMeta]:
    """Read just the ``metadata.tsv`` of a document or sentence directory."""
    return _read_metadata(Path(directory) / META_FILENAME)


def read_documents(directory: str | Path) -> list[Document]:
    """Read a document directory: ``metadata.tsv`` plus one ``<id>.txt`` per
    record (one paragraph per line, blank lines skipped). The documents come
    sorted by pair_id, the SRC_LANG side first, so a corpus does not depend
    on the order its metadata lists them in."""
    directory = Path(directory)

    def load(meta):
        text_path = directory / f"{meta.doc_id}.txt"
        if not text_path.is_file():
            raise ValueError(f"missing text file {text_path}")
        paragraphs = tuple(p for p in read_lines(text_path) if p.strip())
        return Document(meta, paragraphs)

    docs = _read_metadata(directory / META_FILENAME, load)
    return sorted(docs, key=lambda d: (d.meta.pair_id, d.meta.language != SRC_LANG))


#: Rows that :func:`write_records` joins, checks and writes at a time.
_CHUNK_ROWS = 256


@contextmanager
def _replacing(path: Path):
    """A UTF-8 text file with LF line endings open under a ``.partial`` name,
    renamed over ``path`` once the block succeeds; if it fails, ``path`` is
    untouched and the ``.partial`` file removed."""
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as f:
            yield f
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text with LF line endings to a ``.partial`` name, then
    rename it over ``path``; a failed write leaves ``path`` untouched and
    removes the ``.partial`` file."""
    with _replacing(Path(path)) as f:
        f.write(text)


def write_records(path: str | Path, rows, sep: str = "\t") -> None:
    """Write rows as ``\\n``-ended lines of their fields' ``str()`` joined by ``sep``,
    the exact inverse of :func:`read_records`. A field holding ``sep``, ``\\n`` or ``\\r`` fails.

    ``rows`` may be any iterable and is read once. It streams to the
    ``.partial`` file of :func:`write_text` in chunks of ``_CHUNK_ROWS``
    lines, so no more than one chunk is held as text. Each chunk's check
    counts separators once (a line holds at least ``len(row) - 1``); only a
    chunk that fails is rescanned to name its first bad line."""
    rows = iter(rows)
    with _replacing(Path(path)) as f:
        for k, chunk in enumerate(iter(lambda: list(islice(rows, _CHUNK_ROWS)), [])):
            lines = []
            for row in chunk:
                try:
                    lines.append(sep.join(row))
                except TypeError:  # not every field is a str
                    lines.append(sep.join(map(str, row)))
            text = "\n".join([*lines, ""])  # joined once; a trailing `+ "\n"` would copy the text
            width = sum(map(len, chunk))
            if text.count(sep) != width - len(lines) or text.count("\n") != len(lines) or "\r" in text:
                for lineno, (line, row) in enumerate(zip(lines, chunk), k * _CHUNK_ROWS + 1):
                    if line.count(sep) != len(row) - 1 or "\n" in line or "\r" in line:
                        raise ValueError(f"{path} line {lineno}: a field holds {sep!r}, '\\n' or '\\r'")
            f.write(text)


def write_metadata(docs: list[Document], path: str | Path) -> None:
    metas = (d.meta for d in docs)
    write_records(path, ((m.doc_id, m.pair_id, m.language, m.date, m.article_type) for m in metas))


def write_documents(docs: list[Document], directory: str | Path) -> None:
    """Write documents plus their metadata sidecar, preserving order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        write_text(directory / f"{doc.meta.doc_id}.txt", "\n".join(doc.paragraphs) + "\n")
    write_metadata(docs, directory / META_FILENAME)


def _parse_indices(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",")) if text else ()


def read_alignments(path: str | Path) -> AlignmentSet:
    """Read an alignment TSV (see module docstring for the format), keeping
    the optional note column."""
    src_len = tgt_len = None
    beads, notes = [], []

    def parse(fields, lineno):
        nonlocal src_len, tgt_len
        if fields[0].startswith("#") or not "".join(fields).strip():
            m = re.search(r"src_len=(\d+)\s+tgt_len=(\d+)", "\t".join(fields))
            if m:
                src_len, tgt_len = int(m.group(1)), int(m.group(2))
            return
        if not 4 <= len(fields) <= 5:
            raise ValueError(
                "expected 4-5 tab-separated fields "
                "(src_indices, tgt_indices, score, method[, note])"
            )
        score = None if fields[2] == "NA" else float(fields[2])
        beads.append(Bead(_parse_indices(fields[0]), _parse_indices(fields[1]), score, fields[3]))
        notes.append(fields[4] if len(fields) > 4 and fields[4] else None)

    read_records(path, parse)
    if src_len is None:
        src_len = max((i for b in beads for i in b.src), default=-1) + 1
        tgt_len = max((i for b in beads for i in b.tgt), default=-1) + 1
    return AlignmentSet(tuple(beads), src_len, tgt_len, tuple(notes))


def write_alignments(aset: AlignmentSet, path: str | Path) -> None:
    rows = [(f"# src_len={aset.src_len}", f"tgt_len={aset.tgt_len}")]
    for bead, note in zip(aset.beads, aset.notes):
        score = "NA" if bead.score is None else repr(float(bead.score))
        fields = (",".join(map(str, bead.src)), ",".join(map(str, bead.tgt)), score, bead.method)
        rows.append(fields + (note,) if note else fields)
    write_records(path, rows)


def read_sentences(path: str | Path, doc_id: str, language: str) -> SentenceList:
    """Read a ``paragraph_index<TAB>sentence`` file."""

    def parse(fields, lineno):
        if len(fields) != 2 or not fields[0].isdigit():
            raise ValueError("expected 'paragraph_index<TAB>sentence'")
        return int(fields[0]), fields[1]

    rows = read_records(path, parse)
    try:
        return SentenceList(
            doc_id, language, tuple(s for _, s in rows), tuple(p for p, _ in rows)
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_sentences(sl: SentenceList, path: str | Path) -> None:
    write_records(path, zip(map(str, sl.paragraph_index), sl.sentences))

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
import marshal
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from bitextkit import _writer

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
#: Queued frame bytes at which :meth:`_Writer.write` sends them before the file is complete.
_SEND_BYTES = 1 << 16
#: The capacity asked for the writer process's pipe, so that it can fall well behind.
_PIPE_BYTES = 1 << 20
_WRITER_SCRIPT = os.path.abspath(_writer.__file__)


class _Writer:
    """This process's end of a writer process (see :mod:`bitextkit._writer`
    for the frames): each request is queued, and the queue is sent down the
    pipe when a file is complete or passes ``_SEND_BYTES``. Once the process
    has failed, :meth:`write` raises its failure (see :meth:`close`)."""

    def __init__(self):
        import fcntl

        read_end, self._fd = os.pipe()
        self._report, report_end = os.pipe()
        try:
            fcntl.fcntl(self._fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (AttributeError, OSError):  # not Linux, or above the system's limit
            pass
        try:
            # in a process group of its own, so that a ^C reaches only this
            # process, which then ends the stream as after any exception
            self._pid = os.posix_spawn(
                sys.executable, [sys.executable, "-I", "-S", _WRITER_SCRIPT], os.environ,
                file_actions=[(os.POSIX_SPAWN_DUP2, read_end, 0), (os.POSIX_SPAWN_DUP2, report_end, 1)],
                setpgroup=0,
            )
        except BaseException:
            os.close(self._fd)
            os.close(self._report)
            raise
        finally:
            os.close(read_end)
            os.close(report_end)
        self._frames: list[bytes] = []
        self._size = 0
        self._torn = False
        self.failure: OSError | None = None

    def _frame(self, kind: bytes, payload: bytes = b"") -> None:
        self._frames += (kind + len(payload).to_bytes(4, "little"), payload)
        self._size += len(payload)

    def _send(self) -> None:
        frames = self._frames
        try:
            # raises having sent nothing, so the frames stay queued for close()
            sent = os.writev(self._fd, frames)
        except BrokenPipeError:  # the process exited: it failed
            raise self.close() from None
        self._frames, self._size = [], 0
        if sent < sum(map(len, frames)):  # a signal cut the write short
            self._torn = True  # until the rest is sent
            rest = memoryview(b"".join(frames))[sent:]
            while rest:
                rest = rest[os.write(self._fd, rest):]
            self._torn = False

    def label(self, text: str) -> None:
        """Label the requests that follow; a failure reports its label."""
        self._frame(b"L", text.encode())

    def write(self, path: str, chunks) -> None:
        """Hand over the file ``path`` with the text ``chunks``. An exception
        from ``chunks`` or their encoding aborts the file and is raised here."""
        if self.failure is not None:
            raise self.failure
        self._frame(b"O", os.fsencode(path))
        try:
            for chunk in chunks:
                self._frame(b"D", chunk.encode())
                if self._size >= _SEND_BYTES:
                    self._send()
        except BaseException:
            if self.failure is None:
                self._frame(b"A")
            raise
        self._frame(b"C")
        self._send()

    def close(self) -> OSError | None:
        """End the stream, wait until the process has carried out what it
        was handed and exited, and return its failure: the ``OSError`` it
        raised, with a ``label`` attribute, the label its request came
        under, or one naming its exit status if it exited without a report."""
        if self._fd < 0:
            return self.failure
        try:
            if not self._torn:
                self._frame(b"E")
                rest = b"".join(self._frames)
                while rest:
                    rest = rest[os.write(self._fd, rest):]
        except BrokenPipeError:
            pass
        finally:
            os.close(self._fd)
            self._fd = -1
            if self._torn:  # a frame was cut short: end the process before it reads on
                import signal

                os.kill(self._pid, signal.SIGKILL)
            status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
            report = b""
            while chunk := os.read(self._report, 1 << 16):
                report += chunk
            os.close(self._report)
        if report:
            label, *args = marshal.loads(report)
            self.failure = OSError(*args)
        elif status:
            label, self.failure = "", OSError(f"the file writer exited with status {status}")
        else:
            return None
        self.failure.label = label
        return self.failure


_open_writer: _Writer | None = None


@contextmanager
def write_behind():
    """Hand the block's file writes (:func:`write_text` and
    :func:`write_records`) to a writer process, which carries them out in
    order while this process goes on; yields its :class:`_Writer`. When the
    block ends, however it ends, the process finishes and is reaped. Its
    failure is then raised in place of any exception of the block, since it
    came from an earlier request. A block inside an open one joins it."""
    global _open_writer
    if _open_writer is not None:
        yield _open_writer
        return
    writer = _open_writer = _Writer()
    try:
        yield writer
    finally:
        _open_writer = None
        failure = writer.close()
        if failure is not None:
            raise failure


def _write(path, chunks) -> None:
    """Write the text ``chunks`` to ``path`` as UTF-8 with LF line endings,
    by :func:`~bitextkit._writer.write_file` here or in the open writer process."""
    if _open_writer is None:
        _writer.write_file(os.fspath(path), (chunk.encode() for chunk in chunks))
    else:
        _open_writer.write(os.fspath(path), chunks)


def write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text with LF line endings to a ``.partial`` name, then
    rename it over ``path``, creating the missing directories of ``path``
    with the file; a failed write leaves ``path`` untouched and removes the
    ``.partial`` file. Inside :func:`write_behind` the writer process does
    this, in order, and the text is encoded here."""
    _write(path, (text,))


def write_records(path: str | Path, rows, sep: str = "\t") -> None:
    """Write rows as ``\\n``-ended lines of their fields' ``str()`` joined by ``sep``,
    the exact inverse of :func:`read_records`. A field holding ``sep``, ``\\n`` or ``\\r`` fails.

    ``rows`` may be any iterable and is read once. It streams to the
    ``.partial`` file of :func:`write_text` in chunks of ``_CHUNK_ROWS``
    lines, so no more than one chunk is held as text. Each chunk's check
    counts separators once (a line holds at least ``len(row) - 1``); only a
    chunk that fails is rescanned to name its first bad line. A bad row
    raises here, and its file is not written, inside :func:`write_behind` too."""
    _write(path, _record_chunks(path, iter(rows), sep))


def _record_chunks(path, rows, sep: str):
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
        yield text


def write_metadata(docs: list[Document], path: str | Path) -> None:
    metas = (d.meta for d in docs)
    write_records(path, ((m.doc_id, m.pair_id, m.language, m.date, m.article_type) for m in metas))


def write_documents(docs: list[Document], directory: str | Path) -> None:
    """Write documents plus their metadata sidecar, preserving order."""
    directory = Path(directory)
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

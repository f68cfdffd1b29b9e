"""Toolkit for building zh-en parallel corpora from paired article crawls."""

__version__ = "0.1.0"

from bitextkit.core import (  # noqa: F401
    AlignmentSet,
    ArticleMeta,
    Bead,
    Document,
    FormatError,
    SentenceList,
    read_alignments,
    read_documents,
    validate_alignment,
    validate_gold,
    write_alignments,
    write_documents,
)

"""Toolkit for building zh-en parallel corpora from paired article crawls."""

__version__ = "0.1.0"

"""Data model invariants and file format round-trips."""

import datetime
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit import core
from bitextkit.bleualign import bleualign
from bitextkit.cli import _read_tsv
from bitextkit.core import (
    _CHUNK_ROWS,
    _SEND_BYTES,
    AlignmentSet,
    ArticleMeta,
    Bead,
    Document,
    FormatError,
    SentenceList,
    check_language,
    read_alignments,
    read_documents,
    read_metadata,
    read_records,
    read_sentences,
    validate_alignment,
    validate_gold,
    write_alignments,
    write_behind,
    write_documents,
    write_metadata,
    write_records,
    write_sentences,
    write_text,
)
from bitextkit.gale_church import LengthParams, gc_align, load_length_params, save_length_params
from bitextkit.moore import TranslationTable, length_pass, load_table, moore_align, save_table, train_lexicon
from bitextkit.preprocess import load_filter_rules
from bitextkit.sbd import PunktModel, load_abbrevs, load_punkt, save_punkt


def meta(pair_id="A01", language="zh", date="2021-03-04"):
    return ArticleMeta(
        doc_id=f"{pair_id}-{language}",
        pair_id=pair_id,
        language=language,
        date=datetime.date.fromisoformat(date),
        article_type="original",
    )


# A bead side as (constructor, value): a tuple, list or iterator of things
# int() may or may not take, or a value that is no sequence of indices.
bead_side_items = st.integers(-3, 60) | st.booleans() | st.floats(-2, 60) | st.sampled_from(["7", "x"])
bead_sides = st.tuples(
    st.sampled_from([tuple, list, iter]), st.lists(bead_side_items, max_size=3)
) | st.tuples(st.just(lambda value: value), st.none() | st.integers(0, 5) | st.text("09a", max_size=3))


class TestModelValidation:
    def test_language_codes(self):
        assert check_language("zh") == "zh"
        assert check_language("en") == "en"
        for bad in ("", "ZH", "z", "english-text", "fr"):
            with pytest.raises(ValueError):
                check_language(bad)

    def test_bead_must_cover_something(self):
        with pytest.raises(ValueError):
            Bead((), (), None, "gc")
        with pytest.raises(ValueError):
            Bead((-1,), (0,), None, "gc")

    @settings(max_examples=300, deadline=None)
    @given(sides=st.tuples(bead_sides, bead_sides))
    def test_bead_normalizes_its_sides_as_the_per_element_loop_did(self, sides):
        def reference(src, tgt):
            """The per-element generator Bead.__post_init__ used to run."""
            src, tgt = tuple(int(i) for i in src), tuple(int(i) for i in tgt)
            if not src and not tgt:
                raise ValueError("src/tgt: a bead may not be empty on both sides")
            if any(i < 0 for i in src + tgt):
                raise ValueError("src/tgt: indices must be non-negative")
            return src, tgt

        def build():  # a fresh input each call, since an iterator is consumed
            return [make(value) for make, value in sides]

        try:
            expected = reference(*build())
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as raised:
                Bead(*build(), None, "gc")
            assert str(raised.value) == str(exc)
        else:
            bead = Bead(*build(), None, "gc")
            assert bead.key == expected
            assert all(type(i) is int for i in bead.src + bead.tgt)

    def test_bead_type_and_key(self):
        b = Bead((3, 4), (5,), 0.25, "gc")
        assert b.bead_type == (2, 1)
        assert b.key == ((3, 4), (5,))

    @pytest.mark.parametrize(
        "bead", [Bead((3, 4), (5,), -0.25, "gc"), Bead((), (0,)), Bead((7,), (), None, "moore")]
    )
    def test_bead_has_slots_and_pickles(self, bead):
        # a frozen dataclass with slots must round-trip through pickle, as
        # jobs > 1 sends beads back from the workers
        assert not hasattr(bead, "__dict__")
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(bead, protocol))
            assert type(back) is Bead
            assert back == bead and hash(back) == hash(bead) and repr(back) == repr(bead)
            assert all(type(i) is int for i in back.src + back.tgt)
        aset = AlignmentSet((bead,), 8, 8)
        assert pickle.loads(pickle.dumps(aset)) == aset
        with pytest.raises(AttributeError):
            bead.score = 1.0

    def test_sentence_list_paragraph_index_must_match(self):
        with pytest.raises(ValueError):
            SentenceList("d", "en", ("a.", "b."), (0,))
        with pytest.raises(ValueError):
            # paragraph indices must be non-decreasing
            SentenceList("d", "en", ("a.", "b."), (1, 0))

    def test_aligners_leave_their_sentence_lists_as_they_were(self):
        """A SentenceList is plain data: no aligner stores anything on one,
        so each list pickles to the same bytes after the calls as before."""
        zh = SentenceList("z", "zh", ("患者CT正常。", "体温下降。", "随访一年。"), (0, 0, 1))
        en = SentenceList("e", "en", ("The patient's CT was normal.", "Fever fell.", "One year."), (0, 0, 1))
        zh_mt = SentenceList("z-mt", "en", ("The patient CT normal.", "Temperature fell.", "A year."), (0, 0, 1))
        en_mt = SentenceList("e-mt", "zh", ("患者CT正常。", "发热下降。", "一年。"), (0, 0, 1))
        lists = (zh, en, zh_mt, en_mt)
        before = [pickle.dumps(s) for s in lists]
        length_pass(zh, en)
        moore_align(zh, en, train_lexicon([(zh, en, [(0, 0), (1, 1), (2, 2)])]))
        gc_align(zh, en, LengthParams())
        bleualign(zh, en, zh_mt, en_mt)
        assert [pickle.dumps(s) for s in lists] == before

    def test_sentence_list_joins_by_its_language(self):
        zh = SentenceList("z", "zh", ("甲。", "乙。", "丙。"), (0, 0, 1))
        en = SentenceList("e", "en", ("One.", "Two.", "Three."), (0, 0, 1))
        assert zh.join(range(0, 2)) == "甲。乙。"
        assert en.join(range(0, 2)) == "One. Two."
        assert en.join((2,)) == "Three." and en.join(()) == ""

    @pytest.mark.parametrize(
        "bad", ["../evil", "a/b", "a\\b", "a,b", "a\tb", "a\nb", "a\u2028b", ".", "..", "#x", " ", ""]
    )
    def test_ids_that_cannot_name_a_file_or_fill_a_field(self, bad):
        with pytest.raises(ValueError, match="doc_id: "):
            ArticleMeta(bad, "A01", "zh", datetime.date(2021, 3, 4))
        with pytest.raises(ValueError, match="pair_id: "):
            ArticleMeta("A01-zh", bad, "zh", datetime.date(2021, 3, 4))

    def test_validate_reports_gaps_in_index_blocks(self):
        aset = AlignmentSet((Bead((0, 2), (0,), None, "gc"),), 3, 1)
        assert any("contiguous" in p for p in validate_alignment(aset))

    def test_validate_reports_out_of_range(self):
        aset = AlignmentSet((Bead((0,), (2,), None, "gc"),), 1, 2)
        assert any("out of range" in p for p in validate_alignment(aset))

    def test_validate_reports_reuse_and_crossing(self):
        reused = AlignmentSet(
            (Bead((0,), (0,), None, "gc"), Bead((0,), (1,), None, "gc")), 1, 2
        )
        assert any("reuse" in p for p in validate_alignment(reused))
        crossing = AlignmentSet(
            (Bead((0,), (1,), None, "gc"), Bead((1,), (0,), None, "gc")), 2, 2
        )
        assert any("monotonicity" in p for p in validate_alignment(crossing))

    def test_validate_reports_unknown_bead_shape(self):
        aset = AlignmentSet((Bead((0, 1, 2), (0,), None, "gc"),), 3, 1)
        assert any("not in allowed set" in p for p in validate_alignment(aset))

    def test_clean_alignment_passes(self):
        aset = AlignmentSet(
            (
                Bead((0,), (0,), None, "gc"),
                Bead((1, 2), (1,), None, "gc"),
                Bead((), (2,), None, "gc"),
            ),
            3,
            3,
        )
        assert validate_alignment(aset) == []

    def test_validate_gold_requires_full_coverage(self):
        partial = AlignmentSet((Bead((0,), (0,), None, "gold"),), 2, 1, (None,))
        assert any("not covered" in p for p in validate_gold(partial))
        full = AlignmentSet(
            (Bead((0,), (0,), None, "gold"), Bead((1,), (), None, "gold")),
            2,
            1,
            (None, None),
        )
        assert validate_gold(full) == []


class TestDocumentFiles:
    def test_document_round_trip(self, tmp_path):
        docs = [
            Document(meta("A01", "zh"), ("第一段。", "第二段。")),
            Document(meta("A01", "en"), ("First paragraph.", "Second one.")),
        ]
        write_documents(docs, tmp_path)
        back = read_documents(tmp_path)
        assert back == docs

    def test_only_a_newline_ends_a_paragraph(self, tmp_path):
        doc = Document(meta("A01", "en"), (f"One{LINE_BREAKS_INSIDE_A_FIELD}two.", "Three."))
        write_documents([doc], tmp_path)
        assert read_documents(tmp_path) == [doc]

    def test_documents_come_by_pair_id_zh_first_and_metadata_as_listed(self, tmp_path):
        docs = [
            Document(meta("B02", "en"), ("Two.",)),
            Document(meta("A01", "en"), ("One.",)),
            Document(meta("B02", "zh"), ("二。",)),
            Document(meta("A01", "zh"), ("一。",)),
        ]
        write_documents(docs, tmp_path)
        assert read_documents(tmp_path) == [docs[3], docs[1], docs[2], docs[0]]
        assert read_metadata(tmp_path) == [d.meta for d in docs]

    def test_read_metadata_only(self, tmp_path):
        docs = [Document(meta("A07", "en", "2019-12-31"), ("p.",))]
        write_documents(docs, tmp_path)
        metas = read_metadata(tmp_path)
        assert metas == [docs[0].meta]

    def test_missing_text_file_is_an_error(self, tmp_path):
        docs = [Document(meta(), ("段落。",))]
        write_documents(docs, tmp_path)
        (tmp_path / "A01-zh.txt").unlink()
        with pytest.raises(FormatError):
            read_documents(tmp_path)

    def test_malformed_metadata_line(self, tmp_path):
        docs = [Document(meta(), ("段落。",))]
        write_documents(docs, tmp_path)
        meta_file = tmp_path / "metadata.tsv"
        meta_file.write_text(
            meta_file.read_text(encoding="utf-8") + "short\tline\n", encoding="utf-8"
        )
        with pytest.raises(FormatError):
            read_metadata(tmp_path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("A02-fr\tA02\tfr\t2021-03-04\toriginal", "language: 'fr' is not"),
            ("\tA02\ten\t2021-03-04\toriginal", "doc_id: must be non-empty"),
        ],
        ids=["unknown-language", "empty-doc-id"],
    )
    def test_rejected_metadata_row_names_file_and_line(self, tmp_path, row, message):
        write_documents([Document(meta(), ("段落。",))], tmp_path)
        meta_file = tmp_path / "metadata.tsv"
        meta_file.write_text(meta_file.read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"metadata.tsv line 2: {message}"):
            read_metadata(tmp_path)

    @pytest.mark.parametrize("column", [0, 1])
    def test_unsafe_id_names_file_and_line(self, tmp_path, column):
        write_documents([Document(meta(), ("段落。",))], tmp_path)
        row = ["A02-en", "A02", "en", "2021-03-04", "original"]
        row[column] = "../evil-en"
        meta_file = tmp_path / "metadata.tsv"
        with meta_file.open("a", encoding="utf-8") as f:
            f.write("\t".join(row) + "\n")
        with pytest.raises(FormatError, match=r"metadata.tsv line 2: (doc|pair)_id: '\.\./evil-en'"):
            read_metadata(tmp_path)

    def test_text_file_that_is_not_utf8_names_itself(self, tmp_path):
        write_documents([Document(meta("A01", "en"), ("Fine.",))], tmp_path)
        (tmp_path / "A01-en.txt").write_bytes(b"ok \xff\n")
        with pytest.raises(FormatError, match=r"A01-en\.txt: 'utf-8' codec can't decode byte 0xff"):
            read_documents(tmp_path)


class TestAtomicWrite:
    def test_failed_write_leaves_the_final_file_untouched(self, tmp_path):
        path = tmp_path / "d.tsv"
        write_sentences(SentenceList("d", "en", ("Old.",), (0,)), path)
        before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError):
            write_sentences(SentenceList("d", "en", ("New \ud800.",), (0,)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.tsv"]

    def test_successful_write_replaces_and_leaves_no_partial(self, tmp_path):
        path = tmp_path / "f.txt"
        write_text(path, "old\n")
        write_text(path, "new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


@pytest.fixture
def writer_pids(monkeypatch):
    """The pids of the writer processes started while the test runs."""
    pids = []
    spawn = os.posix_spawn

    def spy(*args, **kwargs):
        pids.append(spawn(*args, **kwargs))
        return pids[-1]

    monkeypatch.setattr(os, "posix_spawn", spy)
    return pids


def tree(root):
    """Each path under ``root``: True for a directory, else the file's bytes."""
    return {p.relative_to(root).as_posix(): p.is_dir() or p.read_bytes() for p in root.rglob("*")}


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # neither running nor a zombie: reaped
            os.waitpid(pid, os.WNOHANG)


class TestWriteBehind:
    """Inside ``write_behind`` one writer process writes the files, in the
    order they were handed over, as this process would have."""

    def test_writes_the_bytes_an_in_process_write_does(self, tmp_path, writer_pids):
        def write_all(root):
            (root / "d").mkdir(parents=True)
            write_text(root / "t.txt", "zh 甲乙\nen\n")
            write_records(root / "r.tsv", [("患者", 1), ("a,b", 2.5)] * (3 * _CHUNK_ROWS))
            write_records(root / "d" / "r.csv", [("a", "b")], ",")

        write_all(tmp_path / "here")
        with write_behind():
            write_all(tmp_path / "behind")
        assert len(writer_pids) == 1
        assert_reaped(writer_pids)
        here, behind = (
            {p.relative_to(tmp_path / d): p.read_bytes() for p in (tmp_path / d).rglob("*.*")}
            for d in ("here", "behind")
        )
        assert len(here) == 3
        assert behind == here

    def test_a_missing_directory_is_created_with_its_file(self, tmp_path, writer_pids):
        def write_all(root):
            write_records(root / "d" / "e" / "r.tsv", [("患者", 1)])
            write_text(root / "d" / "t.txt", "a\n")
            write_text(root / "t.txt", "b\n")

        write_all(tmp_path / "here")
        with write_behind():
            write_all(tmp_path / "behind")
        assert len(writer_pids) == 1
        assert_reaped(writer_pids)
        here, behind = tree(tmp_path / "here"), tree(tmp_path / "behind")
        assert here == {
            "d": True, "d/e": True, "d/e/r.tsv": "患者\t1\n".encode(), "d/t.txt": b"a\n", "t.txt": b"b\n",
        }
        assert behind == here

    def test_a_file_whose_first_rows_fail_creates_no_directory(self, tmp_path, writer_pids):
        def write_all(root):
            with pytest.raises(ValueError, match="x.tsv line 1: a field holds"):
                write_records(root / "bad" / "x.tsv", [("a\tb",)])
            write_text(root / "t" / "empty.txt", "")
            write_records(root / "r" / "empty.tsv", [])

        write_all(tmp_path / "here")
        with write_behind():
            write_all(tmp_path / "behind")
        assert len(writer_pids) == 1
        assert_reaped(writer_pids)
        here, behind = tree(tmp_path / "here"), tree(tmp_path / "behind")
        assert here == {"t": True, "t/empty.txt": b"", "r": True, "r/empty.tsv": b""}
        assert behind == here

    def test_a_nested_block_joins_the_open_writer(self, writer_pids):
        with write_behind() as outer:
            with write_behind() as inner:
                assert inner is outer
        assert len(writer_pids) == 1
        assert_reaped(writer_pids)

    def test_rows_that_raise_leave_no_file_and_the_next_file_writes(self, tmp_path, writer_pids):
        def rows():
            # more than one send's worth, so the writer has the file open
            for i in range(2 * _SEND_BYTES // 100):
                yield str(i), "x" * 100
            raise ValueError("row source failed")

        with write_behind():
            with pytest.raises(ValueError, match="row source failed"):
                write_records(tmp_path / "bad.tsv", rows())
            with pytest.raises(ValueError, match="bad2.tsv line 2: a field holds"):
                write_records(tmp_path / "bad2.tsv", [("a",), ("b\tc",)])
            write_records(tmp_path / "next.tsv", [("a", "b")])
        assert [p.name for p in tmp_path.iterdir()] == ["next.tsv"]
        assert (tmp_path / "next.tsv").read_bytes() == b"a\tb\n"
        assert_reaped(writer_pids)

    def test_text_that_cannot_be_encoded_fails_here_and_writes_nothing(self, tmp_path, writer_pids):
        with write_behind():
            with pytest.raises(UnicodeEncodeError):
                write_text(tmp_path / "x.txt", "bad \ud800\n")
        assert list(tmp_path.iterdir()) == []
        assert_reaped(writer_pids)

    def test_a_failed_write_stops_the_writer_and_is_raised_as_it_would_be_here(self, tmp_path, writer_pids):
        planted = tmp_path / "a.txt"
        planted.mkdir()  # in the way of the rename
        with pytest.raises(IsADirectoryError) as here:
            write_text(planted, "a\n")
        with pytest.raises(IsADirectoryError) as behind:
            with write_behind() as writer:
                writer.label("first")
                write_text(planted, "a\n")
                writer.label("second")
                write_text(tmp_path / "later" / "b.txt", "b\n")
                write_text(tmp_path / "b.txt", "b\n")
        assert str(behind.value) == str(here.value)
        assert behind.value.label == "first"
        assert list(tmp_path.iterdir()) == [planted]
        assert list(planted.iterdir()) == []
        assert_reaped(writer_pids)

    def test_the_writers_failure_replaces_the_blocks_own_error(self, tmp_path, writer_pids):
        (tmp_path / "f").write_bytes(b"")  # a parent that is not a directory
        with pytest.raises(NotADirectoryError):
            with write_behind():
                write_text(tmp_path / "f" / "a.txt", "a\n")
                raise KeyError("later")
        assert list(tmp_path.iterdir()) == [tmp_path / "f"]
        assert_reaped(writer_pids)

    def test_a_send_interrupted_before_any_byte_keeps_the_stream_whole(self, tmp_path, monkeypatch, writer_pids):
        writev = os.writev

        def interrupted(fd, buffers):  # as a ^C while the pipe is full
            monkeypatch.setattr(os, "writev", writev)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            with write_behind():
                write_text(tmp_path / "a.txt", "a\n")
                monkeypatch.setattr(os, "writev", interrupted)
                write_records(tmp_path / "b.tsv", [(str(i), "x" * 100) for i in range(2 * _SEND_BYTES // 100)])
        # the unsent frames went out with the end of the stream: b.tsv was aborted whole
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
        assert_reaped(writer_pids)

    def test_the_blocks_error_is_raised_after_the_writer_has_finished(self, tmp_path, writer_pids):
        with pytest.raises(KeyError):
            with write_behind():
                write_text(tmp_path / "a.txt", "a\n")
                raise KeyError("later")
        assert (tmp_path / "a.txt").read_bytes() == b"a\n"
        assert_reaped(writer_pids)


class TestSentenceFiles:
    def test_round_trip_keeps_paragraph_boundaries(self, tmp_path):
        sl = SentenceList("A01-zh", "zh", ("甲。", "乙。", "丙。"), (0, 0, 2))
        path = tmp_path / "A01-zh.txt"
        write_sentences(sl, path)
        back = read_sentences(path, "A01-zh", "zh")
        assert back == sl

    def test_empty_list_round_trip(self, tmp_path):
        sl = SentenceList("x", "en", (), ())
        path = tmp_path / "x.txt"
        write_sentences(sl, path)
        assert read_sentences(path, "x", "en") == sl

    def test_decreasing_paragraph_index_names_the_file(self, tmp_path):
        path = tmp_path / "A01-en.tsv"
        path.write_text("1\tOne.\n0\tTwo.\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"A01-en\.tsv: paragraph_index: must be non-decr"):
            read_sentences(path, "A01-en", "en")


class TestAlignmentFiles:
    def test_alignment_round_trip(self, tmp_path):
        aset = AlignmentSet(
            (
                Bead((0,), (0,), -1.5, "gc"),
                Bead((1, 2), (1,), -0.25, "gc"),
                Bead((3,), (), None, "gc"),
            ),
            4,
            2,
        )
        path = tmp_path / "pair.tsv"
        write_alignments(aset, path)
        assert read_alignments(path) == aset

    def test_gold_round_trip_with_notes(self, tmp_path):
        gold = AlignmentSet(
            (Bead((0,), (0,), None, "gold"), Bead((1,), (), None, "gold")),
            2,
            1,
            (None, "no counterpart"),
        )
        path = tmp_path / "gold.tsv"
        write_alignments(gold, path)
        assert read_alignments(path) == gold

    def test_header_carries_side_lengths(self, tmp_path):
        # deletions at the end are only representable through the header
        aset = AlignmentSet((Bead((0,), (0,), None, "gc"),), 3, 2)
        path = tmp_path / "pair.tsv"
        write_alignments(aset, path)
        assert read_alignments(path) == aset

    def test_missing_header_infers_lengths(self, tmp_path):
        path = tmp_path / "pair.tsv"
        path.write_text("0\t0,1\tNA\tgc\n1\t2\t0.5\tgc\n", encoding="utf-8")
        aset = read_alignments(path)
        assert (aset.src_len, aset.tgt_len) == (2, 3)
        assert aset.beads[1].score == 0.5

    def test_bad_index_text_detected(self, tmp_path):
        path = tmp_path / "pair.tsv"
        path.write_text("# src_len=1\ttgt_len=1\n0;1\t0\tNA\tgc\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_alignments(path)


class TestRecordFiles:
    def test_skip_rules(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("a\tb\n\n   \n# note\n  # indented\nc\n", encoding="utf-8")
        rows = read_records(path, lambda fields, lineno: (lineno, fields))
        assert rows == [(1, ["a", "b"]), (3, ["   "]), (4, ["# note"]), (5, ["  # indented"]), (6, ["c"])]
        assert read_records(path, lambda fields, lineno: lineno, comments=True) == [1, 6]

    def test_value_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("ok\nbad\n", encoding="utf-8")

        def parse(fields, lineno):
            if fields == ["bad"]:
                raise ValueError("not ok")
            return fields

        with pytest.raises(FormatError) as excinfo:
            read_records(path, parse)
        assert str(excinfo.value) == f"{path} line 2: not ok"

    @pytest.mark.parametrize(
        "name, text, read",
        [
            ("metadata.tsv", "A01-zh\tA01\tzh\t2021-03-04\toriginal\nshort\tline\n",
             lambda p: read_metadata(p.parent)),
            ("pair.tsv", "0\t0\tNA\tgc\n0\t1\tNA\n", read_alignments),
            ("A01-en.tsv", "0\tFirst.\nx\tSecond.\n", lambda p: read_sentences(p, "A01-en", "en")),
            ("params.txt", "c=1.0\ns2\n", load_length_params),
            ("table.tsv", "#count\tthe\t3\n甲\tthe\n", load_table),
            ("abbrevs.txt", "fig\nFig\n", load_abbrevs),
            ("model.tsv", "abbrev\tdr\t1.5\nstarter\tthe\n", load_punkt),
            ("patterns.txt", "en:^Copyright\nen:(unclosed\n", load_filter_rules),
            ("pairs.tsv", "甲。\tAlpha.\nonly-one-field\n", lambda p: _read_tsv(p, 2, 3)),
        ],
        ids=["metadata", "alignments", "sentences", "length-params", "translation-table",
             "abbreviations", "punkt", "filter-patterns", "pair-tsv"],
    )
    def test_every_reader_names_file_and_line(self, tmp_path, name, text, read):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=f"{name} line 2: "):
            read(path)

    def test_only_a_newline_ends_a_record(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_bytes("a\u2028b\tc\x0c\r\n\x85d\x1c\n".encode("utf-8"))
        assert read_records(path, lambda fields, lineno: fields) == [["a\u2028b", "c\x0c"], ["\x85d\x1c"]]

    def test_pattern_line_with_a_tab_names_file_and_line(self, tmp_path):
        path = tmp_path / "patterns.txt"
        path.write_text("en:^Copyright\nen:^See\tAlso\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"patterns\.txt line 2: a pattern line may not hold a tab"):
            load_filter_rules(path)


# Characters that str.splitlines() breaks at but a record line may hold.
LINE_BREAKS_INSIDE_A_FIELD = "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"
fields = st.text(alphabet="aZ9 .#中" + LINE_BREAKS_INSIDE_A_FIELD, max_size=8)
texts = fields.filter(str.strip)
ids = st.text(alphabet="aZ9-", min_size=1, max_size=6)
scores = st.floats(allow_nan=False)


@st.composite
def sentence_lists(draw):
    sentences = draw(st.lists(texts, max_size=5))
    n = len(sentences)
    paras = sorted(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return SentenceList("d", "en", tuple(sentences), tuple(paras))


@st.composite
def beads(draw):
    src = tuple(draw(st.lists(st.integers(0, 50), max_size=3)))
    tgt = tuple(draw(st.lists(st.integers(0, 50), min_size=0 if src else 1, max_size=3)))
    return Bead(src, tgt, draw(st.none() | scores), draw(fields))


@st.composite
def alignment_sets(draw):
    bead_list = draw(st.lists(beads(), max_size=5))
    n = len(bead_list)
    notes = draw(st.lists(st.none() | fields.filter(bool), min_size=n, max_size=n))
    src_len, tgt_len = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    return AlignmentSet(tuple(bead_list), src_len, tgt_len, tuple(notes))


@st.composite
def metadata(draw):
    docs = []
    for doc_id in draw(st.lists(ids, unique=True, max_size=4)):
        language = draw(st.sampled_from(["zh", "en"]))
        meta = ArticleMeta(doc_id, draw(ids), language, draw(st.dates()), draw(fields))
        docs.append(Document(meta, ("p",)))
    return docs


positive_floats = st.floats(min_value=1e-300, max_value=1e300)
length_params = st.builds(LengthParams, positive_floats, positive_floats)


tokens = fields.filter(lambda t: t != "#count")
translation_tables = st.builds(
    TranslationTable,
    st.dictionaries(tokens, st.dictionaries(tokens, scores, min_size=1, max_size=3), max_size=4),
    tgt_counts=st.dictionaries(tokens, st.integers(0, 10**6), max_size=4),
)
score_maps = st.dictionaries(fields, scores, max_size=4)
punkt_models = st.builds(PunktModel, score_maps, score_maps)


class TestWriteRecords:
    """Every writer's file reads back equal through its reader, whatever a
    field holds besides a tab, ``\\n`` or ``\\r``."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("records")

    @settings(max_examples=60, deadline=None)
    @given(sl=sentence_lists())
    def test_sentences_round_trip(self, workdir, sl):
        write_sentences(sl, workdir / "d.tsv")
        assert read_sentences(workdir / "d.tsv", "d", "en") == sl

    @settings(max_examples=60, deadline=None)
    @given(aset=alignment_sets())
    def test_alignments_with_notes_round_trip(self, workdir, aset):
        write_alignments(aset, workdir / "a.tsv")
        assert read_alignments(workdir / "a.tsv") == aset

    @settings(max_examples=60, deadline=None)
    @given(docs=metadata())
    def test_metadata_round_trip(self, workdir, docs):
        write_metadata(docs, workdir / "metadata.tsv")
        assert read_metadata(workdir) == [d.meta for d in docs]

    @settings(max_examples=60, deadline=None)
    @given(params=length_params)
    def test_length_params_round_trip(self, workdir, params):
        save_length_params(params, workdir / "params.txt")
        assert load_length_params(workdir / "params.txt") == params

    @settings(max_examples=60, deadline=None)
    @given(table=translation_tables)
    def test_translation_table_round_trip(self, workdir, table):
        save_table(table, workdir / "table.tsv")
        assert load_table(workdir / "table.tsv") == table

    @settings(max_examples=60, deadline=None)
    @given(model=punkt_models)
    def test_punkt_model_round_trip(self, workdir, model):
        save_punkt(model, workdir / "punkt.tsv")
        assert load_punkt(workdir / "punkt.tsv") == model

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
    def test_field_with_a_line_or_field_break_names_the_file(self, tmp_path, bad):
        path = tmp_path / "d.tsv"
        write_sentences(SentenceList("d", "en", ("Old.",), (0,)), path)
        with pytest.raises(ValueError, match=r"d\.tsv line 2: a field holds"):
            write_sentences(SentenceList("d", "en", ("Fine.", bad), (0, 0)), path)
        gold = AlignmentSet((Bead((0,), (0,), None, "gold"),), 1, 1, (bad,))
        with pytest.raises(ValueError, match=r"g\.tsv line 2: "):
            write_alignments(gold, tmp_path / "g.tsv")
        with pytest.raises(ValueError, match=r"r\.csv line 1: "):
            write_records(tmp_path / "r.csv", [(bad.replace("\t", ","), 1)], ",")
        assert path.read_bytes() == b"0\tOld.\n"
        assert [p.name for p in tmp_path.iterdir()] == ["d.tsv"]

    def test_no_rows_make_an_empty_file(self, tmp_path):
        write_sentences(SentenceList("x", "en", (), ()), tmp_path / "x.tsv")
        write_metadata([], tmp_path / "metadata.tsv")
        assert (tmp_path / "x.tsv").read_bytes() == (tmp_path / "metadata.tsv").read_bytes() == b""

    def test_fields_are_str_of_each_value(self, tmp_path):
        write_records(tmp_path / "r.csv", [("A01", 3, 0.5), ("x",)], ",")
        assert (tmp_path / "r.csv").read_bytes() == b"A01,3,0.5\nx\n"

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
    def test_bad_field_after_the_first_chunk_names_its_line(self, tmp_path, bad):
        path = tmp_path / "r.tsv"
        write_records(path, [("old",)])
        rows = [(str(i), "x") for i in range(1, 3 * _CHUNK_ROWS)]
        lineno = _CHUNK_ROWS + 7
        rows[lineno - 1] = (str(lineno), bad)
        with pytest.raises(ValueError, match=rf"r\.tsv line {lineno}: a field holds"):
            write_records(path, rows)
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.tsv"]

    def test_rows_are_read_once(self, tmp_path):
        rows = [(str(i), "x") for i in range(2 * _CHUNK_ROWS + 1)]
        passes = []

        class Once:
            def __iter__(self):
                passes.append(1)
                return (row for row in rows)

        write_records(tmp_path / "r.tsv", Once())
        write_records(tmp_path / "g.tsv", (row for row in rows))
        assert passes == [1]
        expected = "".join(f"{i}\tx\n" for i, _ in rows).encode()
        assert (tmp_path / "r.tsv").read_bytes() == (tmp_path / "g.tsv").read_bytes() == expected

    @pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 5])
    def test_file_longer_than_one_chunk_reads_back_equal(self, tmp_path, n):
        rows = [[str(i), f"sentence {i}{LINE_BREAKS_INSIDE_A_FIELD}"] for i in range(n)]
        write_records(tmp_path / "r.tsv", rows)
        assert read_records(tmp_path / "r.tsv", lambda fields, lineno: fields) == rows


def package_modules_loaded_by(module: str) -> set[str]:
    """The package's modules that a fresh interpreter holds after importing ``module``."""
    code = f"import sys, {module}\nprint(*(m for m in sys.modules if m.startswith('bitextkit')))\n"
    src = Path(core.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_core_loads_no_scoring():
    """core imports no other module of the package: the tokenization rule
    stays in scoring, and the aligners call it on the sentences they score."""
    assert "bitextkit.scoring" not in package_modules_loaded_by("bitextkit.core")


def test_importing_scoring_loads_no_core_and_no_writer():
    """The package root holds only ``__version__``, so scoring, which the
    bleu command and the aligners use, loads no record file code."""
    loaded = package_modules_loaded_by("bitextkit.scoring")
    assert "bitextkit.scoring" in loaded
    assert not loaded & {"bitextkit.core", "bitextkit._writer"}

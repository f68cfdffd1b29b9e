"""Sentence boundary detection: Chinese rules, English rules, and the
unsupervised English segmenter."""

import datetime
import math
import random
import statistics
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitextkit import sbd
from bitextkit.core import ArticleMeta, Document
from bitextkit.sbd import (
    AbbrevList,
    PunktModel,
    default_abbrevs,
    load_abbrevs,
    load_punkt,
    save_punkt,
    sbd_diff_report,
    segment_en_rules,
    segment_punkt,
    segment_zh,
    train_punkt,
)


def en_doc(*paragraphs, pair_id="P1"):
    m = ArticleMeta(f"{pair_id}-en", pair_id, "en", datetime.date(2020, 1, 1), "")
    return Document(m, tuple(paragraphs))


class TestChinese:
    def test_splits_on_all_three_terminators(self):
        assert segment_zh("第一句。第二句！第三句？") == ["第一句。", "第二句！", "第三句？"]

    def test_closing_quote_attaches_left(self):
        assert segment_zh("他说「可以。」我们开始。") == ["他说「可以。」", "我们开始。"]

    def test_citation_digits_attach_left(self):
        assert segment_zh("风险显著降低。1,2下一句。") == ["风险显著降低。1,2", "下一句。"]
        assert segment_zh("前文。3-5后文。") == ["前文。3-5", "后文。"]

    def test_long_number_is_not_a_citation(self):
        # four or more digits in a run is a number, not a reference marker
        assert segment_zh("编号。123456号。") == ["编号。", "123456号。"]

    def test_no_terminator_keeps_paragraph_whole(self):
        assert segment_zh("没有终止符的段落") == ["没有终止符的段落"]

    def test_unterminated_tail_kept(self):
        assert segment_zh("完整句。残句") == ["完整句。", "残句"]

    def test_concatenation_reproduces_input(self):
        rng = random.Random(41)
        pool = "甲乙丙。！？」）12,-口"
        for _ in range(300):
            text = "".join(rng.choice(pool) for _ in range(rng.randint(1, 60))).strip()
            if not text:
                continue
            assert "".join(segment_zh(text)) == text


class TestEnglishRules:
    def test_plain_boundaries(self):
        got = segment_en_rules("First here. Second there! Third one? Done.")
        assert got == ["First here.", "Second there!", "Third one?", "Done."]

    def test_known_abbreviations_do_not_break(self):
        got = segment_en_rules("Dr. Smith et al. reported it. New data followed.")
        assert got == ["Dr. Smith et al. reported it.", "New data followed."]

    def test_single_letter_initials_do_not_break(self):
        got = segment_en_rules("J. K. Rowling attended. The rest left.")
        assert got == ["J. K. Rowling attended.", "The rest left."]

    def test_decimals_and_versions_stay_internal(self):
        got = segment_en_rules("The dose was 3.5 mg per day. It held.")
        assert got == ["The dose was 3.5 mg per day.", "It held."]

    def test_citation_digits_attach_and_boundary_follows(self):
        got = segment_en_rules("Risk fell in both groups.12-14 Next trial began.")
        assert got == ["Risk fell in both groups.12-14", "Next trial began."]

    def test_citation_boundary_before_digit_start(self):
        got = segment_en_rules("It was shown.3,4 12 patients enrolled.")
        assert got == ["It was shown.3,4", "12 patients enrolled."]

    def test_parenthetical_ending_in_period_attaches_left(self):
        got = segment_en_rules("The effect held. (See Figure 2). Another point.")
        assert got == ["The effect held. (See Figure 2).", "Another point."]

    def test_lowercase_continuation_is_not_a_boundary(self):
        got = segment_en_rules("The groups differed. of course they did.")
        assert got == ["The groups differed. of course they did."]

    def test_join_reproduces_normalized_input(self):
        texts = [
            "One. Two here. Three.12 Four与 more? Yes.",
            "Dr. A. Smith saw 3.5 mg. (A note). End.",
        ]
        for text in texts:
            assert " ".join(segment_en_rules(text)) == text

    def test_custom_abbrev_list(self):
        abbrevs = AbbrevList(frozenset({"approx"}))
        got = segment_en_rules("It took approx. 5 days. Then it was over.", abbrevs)
        assert got == ["It took approx. 5 days.", "Then it was over."]

    def test_abbrev_entries_validated(self):
        with pytest.raises(ValueError):
            AbbrevList(frozenset({"Dr"}))
        with pytest.raises(ValueError):
            AbbrevList(frozenset({"etc."}))

    def test_default_list_loads(self):
        entries = default_abbrevs().entries
        assert "dr" in entries and "et al" in entries

    def test_default_list_is_read_once(self):
        assert default_abbrevs() is default_abbrevs()


def full_prefix_is_abbreviation(text, period_pos, abbrevs):
    """The abbreviation check searching the whole text before the period."""
    left = text[:period_pos]
    m = sbd._WORD_BEFORE.search(left)
    if not m:
        return False
    word = m.group(1).rstrip(".").lower()
    if (len(word) == 1 and word.isalpha()) or word in abbrevs.entries:
        return True
    m2 = sbd._TWO_WORDS_BEFORE.search(left)
    return bool(m2) and f"{m2.group(1)} {m2.group(2)}".rstrip(".").lower() in abbrevs.entries


# words (bundled abbreviations, the halves of "op. cit", initials, digits)
# each followed by a separator (periods, the patterns' punctuation, runs of
# spaces, tabs, newlines and U+00A0)
abbreviation_text = st.lists(
    st.tuples(
        st.sampled_from(
            ["et al", "e.g", "Fig", "vs", "op", "cit", "op. cit", "A", "b", "J", "Trial", "12", "3"]
        ),
        st.sampled_from(
            [".", ". ", ".\u00a0", " ", "  ", "\t", "\n", "\u00a0", " \u00a0\t",
             "'", "&", "-", "–", "("]
        ),
    ),
    max_size=20,
).map(lambda parts: "".join(word + sep for word, sep in parts))


class TestAbbreviationWindow:
    @settings(max_examples=300, deadline=None)
    @given(text=abbreviation_text)
    @example(text="see et al. and et \u00a0al. or op.\tcit. vs. x -b. Fig. 3")
    def test_window_matches_the_full_prefix_search(self, text):
        abbrevs = default_abbrevs()
        for pos in (i for i, ch in enumerate(text) if ch == "."):
            assert sbd._is_abbreviation(text, pos, abbrevs) == full_prefix_is_abbreviation(
                text, pos, abbrevs
            ), (text, pos)

    @settings(max_examples=200, deadline=None)
    @given(text=abbreviation_text)
    @example(text="Trial op. cit. Trial op.\u00a0\tcit. Trial et al. A")
    def test_segmentation_matches_the_full_prefix_search(self, text):
        got = segment_en_rules(text)
        with mock.patch.object(sbd, "_is_abbreviation", full_prefix_is_abbreviation):
            assert got == segment_en_rules(text)


def fig_corpus():
    # "fig." always carries a period; ordinary words rarely do.
    paras = []
    for k in range(6):
        paras.append(
            f"See fig. {k} for counts. The trial ran for {k} weeks. "
            "Results appear in fig. 9 below. Groups did not differ."
        )
    return [en_doc(*paras)]


class TestUnsupervised:
    def corpus(self):
        return fig_corpus()

    def test_learns_always_dotted_word_as_abbreviation(self):
        model = train_punkt(self.corpus())
        assert "fig" in model.abbreviations
        assert "results" not in model.abbreviations

    def test_learned_abbreviation_suppresses_break(self):
        model = train_punkt(self.corpus())
        got = segment_punkt("See fig. 3 for Results. Next we go.", model)
        assert got == ["See fig. 3 for Results.", "Next we go."]

    def test_empty_model_breaks_after_any_dotted_token(self):
        got = segment_punkt("See fig. 3 for Results. Next we go.", PunktModel())
        assert got == ["See fig.", "3 for Results.", "Next we go."]

    def test_glued_citation_hides_the_boundary(self):
        # the terminator is buried inside the token, so no candidate exists
        model = train_punkt(self.corpus())
        got = segment_punkt("Risk fell.12-14 Next trial began.", model)
        assert got == ["Risk fell.12-14 Next trial began."]
        assert len(segment_en_rules("Risk fell.12-14 Next trial began.")) == 2

    def test_question_and_exclamation_always_break(self):
        got = segment_punkt("Really? yes! done.", PunktModel())
        assert got == ["Really?", "yes!", "done."]

    def test_save_load_round_trip(self, tmp_path):
        model = PunktModel({"fig": 1.432}, {"we": 31.25})
        path = tmp_path / "model.tsv"
        save_punkt(model, path)
        assert load_punkt(path) == model

    @pytest.mark.parametrize(
        "line, lineno, kind", [("param\tabbrev_threshold\t0.3", 1, "param"), ("colloc\tet\tal\t8.0", 3, "colloc")]
    )
    def test_load_rejects_a_record_of_another_kind_with_file_and_line(self, tmp_path, line, lineno, kind):
        path = tmp_path / "model.tsv"
        lines = ["abbrev\tfig\t1.432", "starter\twe\t31.25"]
        lines.insert(lineno - 1, line)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_punkt(path)
        assert str(excinfo.value) == f"{path} line {lineno}: unknown record kind '{kind}'"

    @pytest.mark.parametrize("line", ["abbrev\tfig", "starter\twe\thigh"])
    def test_load_malformed_record_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "model.tsv"
        path.write_text(f"abbrev\tal\t2.5\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"model\.tsv line 2: "):
            load_punkt(path)

    def test_training_is_deterministic(self):
        a = train_punkt(self.corpus())
        b = train_punkt(self.corpus())
        assert a == b

    def test_collocation_llr_takes_the_limit_when_every_token_not_after_a_is_b(self):
        # p2 = (3 - 1) / (4 - 2) = 1, so the p2 term is 2 * log(1) + 0 * log(0), whose limit is 0
        want = -2.0 * (3 * math.log(3 / 4) + math.log(1 / 4) - 2 * math.log(1 / 2))
        assert sbd._col_llr(2, 3, 1, 4) == pytest.approx(want)


# whitespace-joined words: dotted words, abbreviations, initials, decimals,
# glued citations, ``?``/``!`` and parentheticals, with runs of spaces and tabs
# between them and around the paragraph
paragraph_text = st.tuples(
    st.sampled_from(["", " ", "\t", " \t "]),
    st.lists(
        st.tuples(
            st.sampled_from(
                ["Trial", "groups", "the", "fell.", "Results.", "done.", "fig.", "Fig.", "Dr.", "et", "al.",
                 "e.g.", "J.", "K.", "3.5", "10.12", "12", "groups.12-14", "shown.3,4", "Really?", "yes!",
                 "Why?!", "(See", "Figure", "2).", "\"Quoted.\"", "Next"]
            ),
            st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"]),
        ),
        max_size=25,
    ),
).map(lambda parts: parts[0] + "".join(word + sep for word, sep in parts[1]))

TRAINED_PUNKT = train_punkt(fig_corpus())


class TestSegmentersKeepTokens:
    """Every English segmenter returns stripped, non-empty sentences whose
    whitespace tokens, in order, are the paragraph's."""

    @staticmethod
    def check(paragraph, sentences):
        assert all(s and s == s.strip() for s in sentences), sentences
        assert [t for s in sentences for t in s.split()] == paragraph.split()

    @settings(max_examples=300, deadline=None)
    @given(paragraph=paragraph_text)
    @example(paragraph=" Dr. J. Smith saw 3.5 mg.\tThen it fell.12-14  Next? yes! (See Figure 2). Done. ")
    def test_rules(self, paragraph):
        self.check(paragraph, segment_en_rules(paragraph))

    @settings(max_examples=300, deadline=None)
    @given(paragraph=paragraph_text)
    @example(paragraph="\tSee fig. 3 for Results.  Next?\tyes! done. ")
    def test_punkt(self, paragraph):
        self.check(paragraph, segment_punkt(paragraph, PunktModel()))
        self.check(paragraph, segment_punkt(paragraph, TRAINED_PUNKT))

    @settings(max_examples=200, deadline=None)
    @given(paragraphs=st.lists(paragraph_text.filter(str.strip), max_size=4))
    @example(paragraphs=["See Fig. 2? Yes? Fig. 3?"])
    def test_punkt_trained_on_the_paragraphs(self, paragraphs):
        model = train_punkt([en_doc(*paragraphs)])
        for paragraph in paragraphs:
            self.check(paragraph, segment_punkt(paragraph, model))


def walk_segment_zh(paragraph):
    """segment_zh stepping through the text one character at a time."""
    text = paragraph.strip()
    sentences, start, i, n = [], 0, 0, len(text)
    while i < n:
        if text[i] not in sbd.ZH_TERMINATORS:
            i += 1
            continue
        j = sbd._attach_left(text, i + 1, sbd._ZH_CLOSERS)
        while j < n and text[j].isspace():
            j += 1
        sentences.append(text[start:j])
        start = i = j
    if start < n:
        sentences.append(text[start:])
    return sentences


def walk_is_abbreviation(text, period_pos, abbrevs):
    """_is_abbreviation finding the last two tokens one character at a time."""
    lo = period_pos
    for _ in range(2):
        while lo > 0 and text[lo - 1].isspace():
            lo -= 1
        while lo > 0 and not text[lo - 1].isspace():
            lo -= 1
    m = sbd._WORD_BEFORE.search(text, lo, period_pos)
    if not m:
        return False
    word = m.group(1).rstrip(".").lower()
    if (len(word) == 1 and word.isalpha()) or word in abbrevs.entries:
        return True
    m2 = sbd._TWO_WORDS_BEFORE.search(text, lo, period_pos)
    return bool(m2) and f"{m2.group(1)} {m2.group(2)}".rstrip(".").lower() in abbrevs.entries


def walk_segment_en_rules(paragraph, abbrevs):
    """segment_en_rules stepping through the text one character at a time."""
    text = paragraph.strip()
    n = len(text)
    cuts = []
    i = 0
    while i < n:
        ch = text[i]
        if ch not in ".?!":
            i += 1
            continue
        j = sbd._TERMINATOR_RUN.match(text, i).end()
        if ch == "." and j == i + 1:
            if 0 < i and text[i - 1].isdigit() and j < n and text[j].isdigit():
                i = j
                continue
            if walk_is_abbreviation(text, i, abbrevs):
                i = j
                continue
        j = sbd._attach_left(text, j, sbd._EN_CLOSERS)
        if j >= n:
            break
        s = j
        while s < n and text[s] == " ":
            s += 1
        if s == j or s >= n:
            i = j
            continue
        if text[s] == "(":
            close = text.find(")", s)
            if close != -1 and close + 1 < n and text[close + 1] == ".":
                i = s + 1
                continue
        first = s
        while first < n and text[first] in sbd._EN_OPENERS:
            first += 1
        if first < n and (text[first].isupper() or text[first].isdigit()):
            cuts.append((j, s))
            i = s
        else:
            i = j
    return sbd._split_at(text, cuts)


# single characters the segmenters look at, with words and long tokens that
# push the abbreviation window past its first width
segmenter_text = st.lists(
    st.sampled_from(
        list(".?!\"')([ \t\n\u00a0\u3000aZ19-,–&") + ["et", "al", "et al", "e.g", "Fig", "op. cit", "J",
        "x" * 70, "Trial" * 30, " " * 80]
    ),
    max_size=40,
).map("".join)
zh_text = st.text("甲乙。！？」）』”12,-– \n\u3000a.", max_size=60)


class TestTerminatorSearch:
    """The regex jump to the next terminator splits exactly as the
    character walk did."""

    @settings(max_examples=500, deadline=None)
    @given(text=segmenter_text | paragraph_text | abbreviation_text)
    @example(text="See " + "x" * 200 + " et al. More. " + "Fig" * 40 + "\u00a0op. cit. Then")
    # the last two tokens reach past the first window
    @example(text="See op." + " " * 80 + "cit. More")
    def test_en_rules_equal_the_character_walk(self, text):
        abbrevs = default_abbrevs()
        assert segment_en_rules(text, abbrevs) == walk_segment_en_rules(text, abbrevs)
        for pos in (i for i, ch in enumerate(text) if ch == "."):
            assert sbd._is_abbreviation(text, pos, abbrevs) == walk_is_abbreviation(text, pos, abbrevs)

    @settings(max_examples=500, deadline=None)
    @given(text=zh_text)
    @example(text="第一句。」12 第二句！？残句")
    def test_zh_equals_the_character_walk(self, text):
        assert segment_zh(text) == walk_segment_zh(text)


class TestDiffReport:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(0, 40), min_size=2, max_size=50))
    def test_quartiles_equal_statistics_quantiles(self, values):
        assert sbd._quartiles(values) == statistics.quantiles(values, n=4, method="inclusive")

    def test_one_value_is_its_own_quartiles(self):
        assert sbd._quartiles([3]) == [3.0, 3.0, 3.0]

    def test_rows_and_quartiles(self):
        rows = sbd_diff_report([("A3", 12, 9), ("A1", 10, 10), ("A2", 8, 9)])
        assert rows[0] == ["article", "zh", "en", "diff"]
        assert rows[1:4] == [["A1", 10, 10, 0], ["A2", 8, 9, -1], ["A3", 12, 9, 3]]
        assert rows[4][2] == 1  # median |diff|

"""Normalization, paragraph stitching, boilerplate filtering, truecasing."""

import datetime
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitextkit.core import ArticleMeta, Document
from bitextkit.preprocess import (
    _INITIAL_TOKEN,
    TruecaseModel,
    apply_truecaser,
    default_filter_rules,
    filter_boilerplate,
    load_filter_rules,
    normalize_document,
    normalize_text,
    stitch_paragraphs,
    train_truecaser,
    truecase_initial,
)


def doc(lang, *paragraphs, pair_id="P1"):
    m = ArticleMeta(f"{pair_id}-{lang}", pair_id, lang, datetime.date(2020, 1, 1), "")
    return Document(m, tuple(paragraphs))


class TestNormalize:
    def test_quote_and_dash_folding(self):
        assert normalize_text("“quote” — it’s fine") == '"quote" — it\'s fine'
        assert normalize_text("pages 12‐14 and −3") == "pages 12-14 and -3"

    def test_full_width_latin_and_digits(self):
        assert normalize_text("ＮＥＪＭ２０２１ａｂｃ") == "NEJM2021abc"

    def test_whitespace_collapse(self):
        assert normalize_text("a  b\t\tc\nd") == "a b c d"

    def test_chinese_punctuation_preserved(self):
        s = "试验结果。（见图）：好，真的！"
        assert normalize_text(s) == s

    def test_idempotent_on_random_text(self):
        rng = random.Random(11)
        pool = "ab …“”’－３Ｚ。，！ \t　分析术后x-y"
        for _ in range(200):
            raw = "".join(rng.choice(pool) for _ in range(40))
            once = normalize_text(raw)
            assert normalize_text(once) == once

    def test_normalize_document_touches_every_paragraph(self):
        d = doc("en", "“Quoted” start.", "ＮＥＪＭ  data")
        assert normalize_document(d).paragraphs == ('"Quoted" start.', "NEJM data")


class TestStitch:
    def test_zh_citation_fragment_joins_left_without_space(self):
        d = doc("zh", "结果显著。", "1,2", "另一段。")
        assert stitch_paragraphs(d).paragraphs == ("结果显著。1,2", "另一段。")

    def test_zh_fragment_at_start_left_alone(self):
        d = doc("zh", "3-5", "正文。")
        assert stitch_paragraphs(d).paragraphs == ("3-5", "正文。")

    def test_en_marker_paragraph_joins_flanks_with_space(self):
        d = doc("en", "The trial", "Open in new tab", "enrolled patients.")
        assert stitch_paragraphs(d).paragraphs == ("The trial enrolled patients.",)

    def test_en_inline_marker_removed(self):
        d = doc("en", "See Table 1 Open in new tab for counts.")
        assert stitch_paragraphs(d).paragraphs == ("See Table 1 for counts.",)

    def test_en_inline_marker_cut_where_it_stands(self):
        # "İ".lower() is two characters long, so offsets found in the
        # lowercased paragraph would cut one character too early
        d = doc("en", "İstanbul study open in new tab results")
        assert stitch_paragraphs(d).paragraphs == ("İstanbul study results",)

    def test_en_every_inline_marker_removed(self):
        d = doc("en", "A open in new tab B Open In New Tab C")
        assert stitch_paragraphs(d).paragraphs == ("A B C",)

    def test_en_paragraph_after_a_marker_paragraph_is_stitched_too(self):
        d = doc("en", "A", "open in new tab", "B open in new tab C")
        assert stitch_paragraphs(d).paragraphs == ("A B C",)
        d = doc("en", "A", "open in new tab", "Open in new tab", "B")
        assert stitch_paragraphs(d).paragraphs == ("A B",)

    def test_en_marker_matches_ascii_letters_only(self):
        # under Unicode case folding "ı" and "İ" would match "i"
        d = doc("en", "A open ın new tab B", "C open İn new tab D")
        assert stitch_paragraphs(d).paragraphs == d.paragraphs

    def test_en_marker_at_document_edge_dropped(self):
        d = doc("en", "Body text.", "Open in new tab")
        assert stitch_paragraphs(d).paragraphs == ("Body text.",)

    @pytest.mark.parametrize("paragraphs", [
        ("Body text.", "Open in new tab"),
        ("Open in new tab", "Body text."),
        ("Body text.", "Open in new tab", "open in new tab"),
    ])
    def test_en_marker_at_document_edge_is_logged_once(self, paragraphs, caplog):
        with caplog.at_level("WARNING"):
            assert stitch_paragraphs(doc("en", *paragraphs)).paragraphs == ("Body text.",)
        assert [r.getMessage() for r in caplog.records] == ["P1-en: stitch marker at document edge dropped"]

    def test_zh_text_paragraphs_untouched(self):
        d = doc("zh", "第一段。", "第二段有数字12。")
        assert stitch_paragraphs(d).paragraphs == d.paragraphs


class TestFilter:
    def test_rule_file_parsing(self, tmp_path):
        p = tmp_path / "rules.txt"
        p.write_text("# comment\nzh:图\nen:Figure [0-9]\n*:=Advertisement\n", encoding="utf-8")
        rules = load_filter_rules(p)
        assert rules.keys() == {"zh", "en"}
        assert [label for label, _ in rules["zh"]] == ["zh:图", "*:=Advertisement"]
        assert [label for label, _ in rules["en"]] == ["en:Figure [0-9]", "*:=Advertisement"]

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("rules")

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(st.sampled_from(["zh", "en", "*"]), st.booleans(), st.text("ab.", min_size=1, max_size=3)),
            min_size=1, max_size=8,
        ),
        paragraphs=st.lists(st.text("ab.", min_size=1, max_size=4), max_size=6),
    )
    def test_random_rule_files_keep_file_order_and_label_by_the_first_match(self, workdir, lines, paragraphs):
        """Each language gets its own rules, then the ``*`` rules, each in
        file order, and a paragraph is labelled with the first that matches.
        A regex over ``ab.`` matches where each of its characters is ``.``
        or equals the paragraph's; an exact rule matches the whole
        paragraph literally."""
        labels = [f"{lang}:{'=' if exact else ''}{text}" for lang, exact, text in lines]
        (workdir / "rules.txt").write_text("".join(f"{label}\n" for label in labels), encoding="utf-8")
        rules = load_filter_rules(workdir / "rules.txt")
        assert rules.keys() == {"zh", "en"}

        def matches(exact, text, p):
            if exact:
                return p == text
            return len(p) >= len(text) and all(c in (".", q) for c, q in zip(text, p))

        for lang in ("zh", "en"):
            order = [k for key in (lang, "*") for k, line in enumerate(lines) if line[0] == key]
            assert [label for label, _ in rules[lang]] == [labels[k] for k in order]
            hits = [next((labels[k] for k in order if matches(*lines[k][1:], p)), None) for p in paragraphs]
            kept, removed = filter_boilerplate(doc(lang, *paragraphs), rules)
            assert removed == [(idx, hit) for idx, hit in enumerate(hits) if hit is not None]
            assert kept.paragraphs == tuple(p for p, hit in zip(paragraphs, hits) if hit is None)

    def test_rule_file_rejects_unknown_language(self, tmp_path):
        p = tmp_path / "rules.txt"
        p.write_text("fr:Figure\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_filter_rules(p)

    def test_prefix_rules_anchor_at_paragraph_start(self):
        rules = default_filter_rules()
        kept, removed = filter_boilerplate(
            doc("en", "Figure 1. Trial flow.", "We show Figure 1 in context."), rules
        )
        assert kept.paragraphs == ("We show Figure 1 in context.",)
        assert removed == [(0, "en:Figure [0-9]")]

    def test_default_rules_cover_both_languages(self):
        rules = default_filter_rules()
        zh_doc = doc("zh", "图1试验流程图。", "正文。", "参考文献")
        zh_kept, zh_removed = filter_boilerplate(zh_doc, rules)
        assert zh_kept.paragraphs == ("正文。",)
        assert [idx for idx, _ in zh_removed] == [0, 2]
        en_doc = doc("en", "References", "Real text.")
        en_kept, _ = filter_boilerplate(en_doc, rules)
        assert en_kept.paragraphs == ("Real text.",)

    @staticmethod
    def rules(tmp_path, text):
        p = tmp_path / "rules.txt"
        p.write_text(text, encoding="utf-8")
        return load_filter_rules(p)

    def test_exact_drop_applies_to_any_language(self, tmp_path):
        rules = self.rules(tmp_path, "*:=Advertisement\n")
        for lang, body in (("zh", "正文。"), ("en", "Body text.")):
            kept, removed = filter_boilerplate(doc(lang, body, "Advertisement"), rules)
            assert kept.paragraphs == (body,)
            assert removed == [(1, "*:=Advertisement")]

    def test_exact_drop_keeps_to_its_language(self, tmp_path):
        rules = self.rules(tmp_path, "zh:=X\n")
        kept, removed = filter_boilerplate(doc("en", "X"), rules)
        assert kept.paragraphs == ("X",) and removed == []
        kept, removed = filter_boilerplate(doc("zh", "X"), rules)
        assert kept.paragraphs == () and removed == [(0, "zh:=X")]

    def test_exact_drop_matches_the_whole_paragraph_literally(self, tmp_path):
        rules = self.rules(tmp_path, "en:=Ad (1.)\n")
        kept, removed = filter_boilerplate(doc("en", "Ad (1.)", "Ad (1.) more", "Ad (12)"), rules)
        assert kept.paragraphs == ("Ad (1.) more", "Ad (12)")
        assert removed == [(0, "en:=Ad (1.)")]


def reference_train_truecaser(corpus):
    """The per-token loop that train_truecaser's token count replaced."""
    counts = {}
    for d in corpus:
        if d.meta.language != "en":
            continue
        for para in d.paragraphs:
            for token in para.split()[1:]:
                m = _INITIAL_TOKEN.match(token)
                if not m:
                    continue
                core = m.group(2)
                counts.setdefault(core.lower(), {}).setdefault(core, 0)
                counts[core.lower()][core] += 1
    return {key: max(forms.items(), key=lambda kv: kv[1]) for key, forms in counts.items()}


# case variants of one word, alone and wrapped in punctuation, so that forms
# tie on count and reach their key through different raw tokens
_TRUECASE_TOKENS = (
    "data", "Data", "DATA", "(Data", "data,", "Data.", "'data'", "--", "x", "X.", "it's", "It's",
)


class TestTruecase:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("en", "zh")),
                st.lists(
                    st.lists(st.sampled_from(_TRUECASE_TOKENS), min_size=1, max_size=8),
                    max_size=4,
                ),
            ),
            max_size=4,
        )
    )
    # Data and data tie at two each, and Data is seen first through "(Data"
    @example([("en", [["x", "(Data", "data,", "Data.", "data"]])])
    def test_equals_the_per_token_loop(self, docs):
        corpus = [
            doc(lang, *(" ".join(tokens) for tokens in paras), pair_id=f"P{k}")
            for k, (lang, paras) in enumerate(docs)
        ]
        got = train_truecaser(corpus).casing
        # equal entries, in the same key order
        assert list(got.items()) == list(reference_train_truecaser(corpus).items())

    def test_majority_casing_learned_from_non_initial_positions(self):
        corpus = [
            doc("en", "The drug lowered risk.", "Patients got the drug."),
            doc("en", "We used the NEJM data and the drug."),
        ]
        model = train_truecaser(corpus)
        assert model.casing["the"][0] == "the"
        assert model.casing["nejm"][0] == "NEJM"
        assert "patients" not in model.casing  # only seen paragraph-initially

    def test_apply_lowercases_ordinary_sentence_starts(self):
        model = TruecaseModel({"the": ("the", 5), "nejm": ("NEJM", 2)})
        assert truecase_initial("The trial ended.", model) == "the trial ended."
        assert truecase_initial("NEJM published it.", model) == "NEJM published it."
        assert truecase_initial("Unseen word stays.", model) == "Unseen word stays."

    def test_leading_punctuation_is_kept(self):
        model = TruecaseModel({"the": ("the", 5)})
        assert truecase_initial('"The trial."', model) == '"the trial."'

    def test_apply_truecaser_skips_chinese(self):
        model = TruecaseModel({"the": ("the", 5)})
        zh_doc = doc("zh", "The 不适用。")
        assert apply_truecaser(zh_doc, model) is zh_doc

    def test_tie_goes_to_first_seen_form(self):
        corpus = [doc("en", "x Data y data z.")]
        model = train_truecaser(corpus)
        assert model.casing["data"] == ("Data", 1)

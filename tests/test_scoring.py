"""Tokenization and smoothed BLEU scoring."""

import math
import random
import re
from functools import reduce
from operator import add
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit.scoring import (
    corpus_bleu,
    ngram_counts,
    sentence_bleu,
    tokenize,
)


def neumaier_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 and later compute it: a float total carries
    Neumaier's compensation term, added at the end when finite."""
    total, compensation = start, 0.0
    for x in iterable:
        if not isinstance(total, float) and not isinstance(x, float):
            total = total + x
            continue
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def left_to_right_sum(iterable, /, start=0):
    """``sum`` as Python 3.11 and earlier compute it: one addition after another."""
    return reduce(add, iterable, start)


class TestTokenize:
    def test_english_words_and_punctuation(self):
        assert tokenize("The drug lowered risk.") == ["The", "drug", "lowered", "risk", "."]

    def test_english_keeps_case(self):
        assert tokenize("NEJM Data") == ["NEJM", "Data"]

    def test_hyphenated_ranges_and_contractions_stay_whole(self):
        assert tokenize("pages 12-14 don't split") == ["pages", "12-14", "don't", "split"]

    def test_citation_after_period_splits_cleanly(self):
        assert tokenize("groups.12-14") == ["groups", ".", "12-14"]

    def test_chinese_one_token_per_character(self):
        assert tokenize("风险降低。", "zh") == ["风", "险", "降", "低", "。"]

    def test_chinese_keeps_latin_and_digit_runs_whole(self):
        assert tokenize("图1显示NEJM2021结果", "zh") == ["图", "1", "显", "示", "NEJM2021", "结", "果"]

    def test_whitespace_never_tokenized(self):
        assert tokenize("  a  b  ") == ["a", "b"]
        assert tokenize("甲 乙", "zh") == ["甲", "乙"]


class TestNgramCounts:
    def test_bigram_counting(self):
        counts = ngram_counts(["a", "b", "a", "b"], 2)
        assert counts[("a", "b")] == 2 and counts[("b", "a")] == 1

    def test_order_longer_than_sequence(self):
        assert ngram_counts(["a"], 2) == {}

    @pytest.mark.parametrize("n", [0, -1, True, 1.0])
    def test_order_below_one_or_not_an_integer_rejected(self, n):
        with pytest.raises(ValueError, match=f"n_max must be an integer >= 1, got {n!r}"):
            ngram_counts(["a", "b", "c"], n)

    @settings(max_examples=300, deadline=None)
    @given(tokens=st.lists(st.sampled_from("abc"), max_size=12), n=st.integers(1, 4))
    def test_equals_the_slice_definition(self, tokens, n):
        # one count per window tokens[i : i + n], keyed in order of first occurrence
        expected: dict[tuple, int] = {}
        for i in range(len(tokens) - n + 1):
            gram = tuple(tokens[i : i + n])
            expected[gram] = expected.get(gram, 0) + 1
        assert list(ngram_counts(tokens, n).items()) == list(expected.items())


class TestSentenceBleu:
    def test_identical_sentences_score_one(self):
        toks = tokenize("The effect was large and it held.")
        assert sentence_bleu(toks, toks) == 1.0

    def test_rotated_trigram_scores_root_half(self):
        # unigram precision 1, bigram precision 1/2, equal lengths
        hyp = ["to", "be", "or"]
        ref = ["be", "or", "to"]
        assert math.isclose(sentence_bleu(hyp, ref), math.sqrt(0.5), abs_tol=1e-12)

    def test_zero_bigram_matches_fall_back_to_epsilon(self):
        hyp = ["a", "b"]
        ref = ["a", "c"]
        expected = math.sqrt((1 / 2) * (0.01 / 1))
        assert math.isclose(sentence_bleu(hyp, ref), expected, abs_tol=1e-12)

    def test_brevity_penalty_applies_to_short_hypotheses(self):
        hyp, ref = ["a"], ["a", "b", "c"]
        assert math.isclose(sentence_bleu(hyp, ref), math.exp(-2.0), abs_tol=1e-12)

    def test_long_hypotheses_are_not_rewarded(self):
        # no penalty above ratio 1, but precision denominators grow
        hyp = ["a", "b", "c", "d"]
        ref = ["a", "b"]
        p1, p2 = 2 / 4, 1 / 3
        assert math.isclose(sentence_bleu(hyp, ref), math.sqrt(p1 * p2), abs_tol=1e-12)

    def test_unpopulated_orders_are_skipped(self):
        assert sentence_bleu(["word"], ["word"]) == 1.0

    def test_empty_hypothesis_scores_zero(self):
        assert sentence_bleu([], ["a"]) == 0.0

    def test_scores_stay_in_unit_interval(self):
        rng = random.Random(97)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(500):
            hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            score = sentence_bleu(hyp, ref)
            assert 0.0 <= score <= 1.0

    def test_higher_overlap_scores_higher(self):
        ref = tokenize("the trial reduced mortality risk .")
        close = tokenize("the trial reduced risk .")
        far = tokenize("unrelated words entirely here now .")
        assert sentence_bleu(close, ref) > sentence_bleu(far, ref)

    def test_n_max_sets_the_highest_order(self):
        hyp, ref = ["a", "b", "c"], ["a", "b", "d"]
        assert math.isclose(sentence_bleu(hyp, ref, n_max=1), 2 / 3, abs_tol=1e-12)
        assert math.isclose(sentence_bleu(hyp, ref, n_max=3), (2 / 3 * 1 / 2 * 0.01) ** (1 / 3), abs_tol=1e-12)


class TestCorpusBleu:
    def test_single_pair_matches_sentence_bleu(self):
        hyp = ["a", "b", "c"]
        ref = ["a", "c", "b"]
        assert math.isclose(
            corpus_bleu([hyp], [ref]), sentence_bleu(hyp, ref), abs_tol=1e-12
        )

    def test_counts_pool_before_division(self):
        hyps = [["a", "b"], ["c"]]
        refs = [["a", "b"], ["d"]]
        # unigrams: (2+0)/(2+1); bigrams: 1/1; equal total lengths
        expected = math.sqrt((2 / 3) * 1.0)
        assert math.isclose(corpus_bleu(hyps, refs), expected, abs_tol=1e-12)

    def test_empty_hypothesis_still_costs_brevity(self):
        hyps = [["a", "b"], []]
        refs = [["a", "b"], ["x", "y"]]
        with_empty = corpus_bleu(hyps, refs)
        alone = corpus_bleu([["a", "b"]], [["a", "b"]])
        assert with_empty < alone

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([["a"]], [])

    @pytest.mark.parametrize("n_max", [0, 2.5, True, "2"])
    def test_n_max_validated(self, n_max):
        message = f"n_max must be an integer >= 1, got {n_max!r}"
        for score in (lambda: corpus_bleu([["a"]], [["a"]], n_max), lambda: sentence_bleu(["a"], ["a"], n_max)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                score()


class TestAdditionOrder:
    def test_the_compensated_sum_differs_from_left_to_right(self):
        tenths = [0.1] * 10
        assert neumaier_sum(tenths) == 1.0 != left_to_right_sum(tenths)
        assert neumaier_sum([1, 2, 3]) == 6 and neumaier_sum([], 5) == 5

    @settings(max_examples=200, deadline=None)
    @given(
        hyp=st.lists(st.sampled_from("abcde"), max_size=14),
        ref=st.lists(st.sampled_from("abcde"), max_size=14),
        n_max=st.integers(1, 4),
    )
    def test_a_score_does_not_depend_on_how_sum_adds(self, hyp, ref, n_max):
        """The per-order logs are added left to right, so a compensated
        ``sum`` (Python 3.12 on) gives the bits a plain one gives."""
        with mock.patch("builtins.sum", left_to_right_sum):
            plain = sentence_bleu(hyp, ref, n_max)
        with mock.patch("builtins.sum", neumaier_sum):
            assert sentence_bleu(hyp, ref, n_max) == plain

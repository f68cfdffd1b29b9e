"""Translation-based alignment: the anchor chain, anchor growth, gap
filling, and the bidirectional intersection."""

import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitextkit.bleualign import ScoreMatrix, bleualign, find_anchors, score_matrix
from bitextkit.core import SentenceList, validate_alignment
from bitextkit.gale_church import LengthParams
from bitextkit.scoring import N_MAX, _bleu, ngram_counts, sentence_bleu, tokenize


def brute_force_chain(m: ScoreMatrix, min_score: float) -> list[tuple[int, int]]:
    """Enumerate every monotone chain of qualifying cells; return the best
    under (highest total, nearest the diagonal, lexicographically first).
    Totals accumulate back-to-front, matching the suffix recursion."""
    cells = [
        (i, j) for i in range(m.rows) for j in range(m.cols) if m[i, j] > min_score
    ]
    best = None

    def consider(chain):
        nonlocal best
        neg_total, dist = 0.0, 0
        for c in reversed(chain):
            neg_total = neg_total - m[c]
            dist += abs(c[0] - c[1])
        key = (neg_total, dist, tuple(chain))
        if best is None or key < best:
            best = key

    def rec(chain, last):
        consider(chain)
        for c in cells:
            if c[0] > last[0] and c[1] > last[1]:
                rec(chain + [c], c)

    rec([], (-1, -1))
    return list(best[2])


def reference_find_anchors(m: ScoreMatrix, min_score: float = 0.0) -> list[tuple[int, int]]:
    """The O(K^2) anchor search over the K qualifying cells that the suffix-min
    table replaced: each cell's best continuation is a scan of all cells."""
    cells = [(i, j) for i in range(m.rows) for j in range(m.cols) if m[i, j] > min_score]
    if not cells:
        return []
    suffix: dict[tuple[int, int], tuple[float, int]] = {}

    def best_continuation(i: int, j: int) -> tuple[float, int]:
        best = (0.0, 0)
        for i2, j2 in cells:
            if i2 > i and j2 > j and (key := suffix[(i2, j2)]) < best:
                best = key
        return best

    for i, j in sorted(cells, reverse=True):
        cont = best_continuation(i, j)
        suffix[(i, j)] = (cont[0] - m[i, j], cont[1] + abs(i - j))
    chain: list[tuple[int, int]] = []
    frontier = (-1, -1)
    remaining = min(suffix[c] for c in cells)
    while remaining != (0.0, 0):
        nxt = min(
            c
            for c in cells
            if c[0] > frontier[0] and c[1] > frontier[1] and suffix[c] == remaining
        )
        chain.append(nxt)
        frontier = nxt
        remaining = best_continuation(*nxt)
    return chain


# scores from a small set, so that totals and diagonal distances tie often
TIED_SCORES = (0.0, 0.1, 0.25, 0.3, 0.5, 1.0)
# multiples of 1/8, whose sums are exact in any order: brute_force_chain
# compares whole-chain totals, find_anchors compares suffix totals, and with
# 0.1 and 0.3 two chains can tie in total yet differ by an ulp in a suffix
# (0.1 + 0.5 + 0.3 != 0.1 + 0.3 + 0.5)
EXACT_TIED_SCORES = (0.0, 0.125, 0.25, 0.375, 0.5, 1.0)


@st.composite
def tied_matrices(draw, max_side, scores=TIED_SCORES):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    row = st.tuples(*[st.sampled_from(scores)] * cols)
    return ScoreMatrix(draw(st.tuples(*[row] * rows)))


EN_WORDS = ("the", "trial", "ended", "early", "of", "patients", ".", ",")
ZH_TOKENS = ("研", "究", "的", "试", "验", "患", "者", "。", "A1", "mg")


@st.composite
def sentence_lists(draw, lang, max_sentences=4):
    """Sentences of 1-8 tokens (so 1-token hypotheses, whose bigram order is
    skipped, occur) in the spacing tokenize expects for lang."""
    words = EN_WORDS if lang == "en" else ZH_TOKENS
    sentence = st.lists(st.sampled_from(words), min_size=1, max_size=8).map(
        " ".join if lang == "en" else "".join
    )
    return draw(st.lists(sentence, min_size=1, max_size=max_sentences))


def dense_score_matrix(src_translation, tgt) -> ScoreMatrix:
    """The score matrix that the sparse one replaced: every (hypothesis,
    reference) cell intersects the two sentences' n-gram counts of each order
    and scores the clipped matches with ``scoring._bleu``."""

    def profile(sentence, lang):
        tokens = tokenize(sentence, lang)
        return len(tokens), [ngram_counts(tokens, n) for n in range(1, N_MAX + 1)]

    def cell(hyp, ref):
        (hyp_len, hyp_counts), (ref_len, ref_counts) = hyp, ref
        matches = [
            sum(min(h[g], r[g]) for g in h.keys() & r.keys())
            for h, r in zip(hyp_counts, ref_counts)
        ]
        totals = [hyp_len - n for n in range(N_MAX)]
        return _bleu(matches, totals, hyp_len, ref_len)

    hyps = [profile(s, src_translation.language) for s in src_translation.sentences]
    refs = [profile(s, tgt.language) for s in tgt.sentences]
    return ScoreMatrix(tuple(tuple(cell(h, r) for r in refs) for h in hyps))


SHARED_BIGRAM = {"en": "of the", "zh": "研究"}


@st.composite
def documents(draw, lang, shared):
    """0-30 sentences of 0-10 tokens from a small vocabulary, so n-grams
    repeat within and across sentences; with ``shared`` every sentence
    starts with the same bigram, so nearly every cell has matches. A
    SentenceList rejects blank sentences, so a stand-in with the fields
    ``tokens`` and the dense reference read carries them."""
    words = EN_WORDS if lang == "en" else ZH_TOKENS
    sep = " " if lang == "en" else ""
    size = draw(st.integers(0, 30))
    sentences = draw(
        st.lists(st.lists(st.sampled_from(words), max_size=10), min_size=size, max_size=size)
    )
    prefix = [SHARED_BIGRAM[lang]] if shared else []
    sentences = tuple(sep.join(prefix + s) for s in sentences)
    return SimpleNamespace(language=lang, sentences=sentences)


def tokens(sentences):
    """Each sentence's scoring tokens, the lists score_matrix takes."""
    return [tokenize(s, sentences.language) for s in sentences.sentences]


def sl(doc_id, lang, sentences):
    return SentenceList(doc_id, lang, tuple(sentences), (0,) * len(sentences))


def random_matrix(rng, rows, cols, sparsity=0.5):
    entries = tuple(
        tuple(rng.random() if rng.random() > sparsity else 0.0 for _ in range(cols))
        for _ in range(rows)
    )
    return ScoreMatrix(entries)


class TestScoreMatrix:
    def test_shape_and_identity_cell(self):
        mt = sl("mt", "en", ["the trial ended early .", "other words here ."])
        tgt = sl("t", "en", ["the trial ended early .", "unrelated text entirely ."])
        m = score_matrix(tokens(mt), tokens(tgt))
        assert (m.rows, m.cols) == (2, 2)
        assert m[0, 0] == 1.0
        assert m[0, 0] > m[0, 1] and m[0, 0] > m[1, 0]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), lang=st.sampled_from(("en", "zh")))
    def test_every_cell_equals_sentence_bleu(self, data, lang):
        mt = sl("mt", lang, data.draw(sentence_lists(lang)))
        tgt = sl("t", lang, data.draw(sentence_lists(lang)))
        m = score_matrix(tokens(mt), tokens(tgt))
        expected = tuple(
            tuple(sentence_bleu(tokenize(h, lang), tokenize(r, lang)) for r in tgt.sentences)
            for h in mt.sentences
        )
        assert m.entries == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), lang=st.sampled_from(("en", "zh")), shared=st.booleans())
    def test_equals_the_dense_matrix(self, data, lang, shared):
        mt = data.draw(documents(lang, shared))
        tgt = data.draw(documents(lang, shared))
        assert score_matrix(tokens(mt), tokens(tgt)).entries == dense_score_matrix(mt, tgt).entries

    @pytest.mark.parametrize(
        "hyps, refs",
        [
            ([[], ["a", "b"]], [["a"], ["a", "b"], []]),  # an empty hypothesis
            ([["a"], ["c"]], [["a"], ["a", "b"], ["b", "a", "a"], []]),  # order 2 unpopulated
            ([["a"], [], ["a", "b"]], []),  # no references
            ([], [["a"], []]),  # no hypotheses
        ],
    )
    def test_degenerate_shapes_equal_sentence_bleu(self, hyps, refs):
        m = score_matrix(hyps, refs)
        assert m.entries == tuple(tuple(sentence_bleu(h, r) for r in refs) for h in hyps)
        assert all(row == (0.0,) * len(refs) for h, row in zip(hyps, m.entries) if not h)


class TestFindAnchors:
    def test_matches_brute_force(self):
        rng = random.Random(211)
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            for min_score in (0.0, 0.3):
                assert find_anchors(m, min_score) == brute_force_chain(m, min_score)

    @settings(max_examples=200, deadline=None)
    @given(
        m=tied_matrices(max_side=5, scores=EXACT_TIED_SCORES),
        min_score=st.sampled_from((0.0, 0.3)),
    )
    def test_matches_brute_force_with_ties(self, m, min_score):
        assert find_anchors(m, min_score) == brute_force_chain(m, min_score)

    @settings(max_examples=60, deadline=None)
    @given(m=tied_matrices(max_side=30), min_score=st.sampled_from((0.0, 0.3)))
    def test_matches_the_quadratic_reference_with_ties(self, m, min_score):
        assert find_anchors(m, min_score) == reference_find_anchors(m, min_score)

    def test_prefers_the_diagonal_on_ties(self):
        m = ScoreMatrix(((0.4, 0.0), (0.4, 0.0)))
        # both cells score the same; only one can anchor (same column)
        assert find_anchors(m) == [(0, 0)]

    def test_a_total_equal_to_the_best_wins_on_diagonal_distance(self):
        # (0, 1) and (0, 0) both start a chain of total 0.5; when (0, 0) is
        # scored, its neighbour's key already holds that total, and (0, 0)
        # must still be keyed, since it is nearer the diagonal
        m = ScoreMatrix(((0.5, 0.5), (0.5, 0.0)))
        assert find_anchors(m) == [(0, 0)] == brute_force_chain(m, 0.0)

    def test_threshold_is_strict(self):
        m = ScoreMatrix(((0.5, 0.0), (0.0, 0.5)))
        assert find_anchors(m, 0.5) == []
        assert find_anchors(m, 0.49) == [(0, 0), (1, 1)]

    def test_empty_matrix(self):
        assert find_anchors(ScoreMatrix(())) == []

    def test_min_score_validated(self):
        with pytest.raises(ValueError):
            find_anchors(ScoreMatrix(((0.5,),)), 1.0)


PARAMS = LengthParams(c=1.0, s2=6.8)


class TestAlignment:
    def test_perfect_translation_aligns_diagonally(self):
        src = sl("s", "en", ["aaa bbb ccc .", "ddd eee fff ggg .", "hhh iii ."])
        tgt = sl("t", "en", ["AAA BBB CCC .", "DDD EEE FFF GGG .", "HHH III ."])
        mt = sl("mt", "en", [t.lower().upper() for t in tgt.sentences])
        aset = bleualign(src, tgt, mt, params=PARAMS)
        assert [b.key for b in aset.beads] == [((i,), (i,)) for i in range(3)]
        assert all(b.score == 1.0 for b in aset.beads)

    def test_anchor_grows_over_a_sentence_split(self):
        # one target sentence covers two source sentences; the translation
        # of either half scores below the merged pair
        src = sl("s", "en", ["x y z .", "u v w ."])
        tgt = sl("t", "en", ["alpha beta gamma delta epsilon zeta"])
        mt = sl("mt", "en", ["alpha beta gamma", "delta epsilon zeta"])
        aset = bleualign(src, tgt, mt, params=PARAMS)
        assert [b.key for b in aset.beads] == [((0, 1), (0,))]
        assert aset.beads[0].score == 1.0

    def test_target_side_growth(self):
        src = sl("s", "en", ["x y z u v w ."])
        tgt = sl("t", "en", ["alpha beta gamma", "delta epsilon zeta"])
        mt = sl("mt", "en", ["alpha beta gamma delta epsilon zeta"])
        aset = bleualign(src, tgt, mt, params=PARAMS)
        assert [b.key for b in aset.beads] == [((0,), (0, 1))]

    def test_gap_between_anchors_is_length_aligned(self):
        src = sl("s", "en", ["one two three .", "mid point here .", "four five six ."])
        tgt = sl("t", "en", ["ONE TWO THREE .", "MID POINT HERE .", "FOUR FIVE SIX ."])
        mt = sl(
            "mt",
            "en",
            ["ONE TWO THREE .", "q8 q9 q0 q1", "FOUR FIVE SIX ."],
        )
        aset = bleualign(src, tgt, mt, min_score=0.02, params=PARAMS)
        assert [b.key for b in aset.beads] == [((i,), (i,)) for i in range(3)]
        methods = [b.method for b in aset.beads]
        assert methods == ["bleualign", "bleualign+gc", "bleualign"]

    def test_no_anchors_degrades_to_length_alignment(self):
        src = sl("s", "en", ["aa bb cc dd .", "ee ff gg hh ."])
        tgt = sl("t", "en", ["AA BB CC DD .", "EE FF GG HH ."])
        mt = sl("mt", "en", ["q1 q2 q3", "q4 q5 q6"])
        aset = bleualign(src, tgt, mt, min_score=0.02, params=PARAMS)
        assert all(b.method == "bleualign+gc" for b in aset.beads)
        assert [b.key for b in aset.beads] == [((0,), (0,)), ((1,), (1,))]

    def test_translation_line_count_must_match(self):
        src = sl("s", "en", ["a .", "b ."])
        tgt = sl("t", "en", ["A ."])
        mt = sl("mt", "en", ["only one line"])
        with pytest.raises(ValueError):
            bleualign(src, tgt, mt, params=PARAMS)
        mt_ok = sl("mt", "en", ["x", "y"])
        bad_rev = sl("rev", "en", ["p", "q"])
        with pytest.raises(ValueError):
            bleualign(src, tgt, mt_ok, bad_rev, params=PARAMS)


class TestBidirectional:
    def test_agreeing_directions_keep_everything(self):
        src = sl("s", "en", ["aaa bbb ccc .", "ddd eee fff ."])
        tgt = sl("t", "en", ["AAA BBB CCC .", "DDD EEE FFF ."])
        mt = sl("mt", "en", list(tgt.sentences))
        mt_rev = sl("rev", "en", list(src.sentences))
        uni = bleualign(src, tgt, mt, params=PARAMS)
        bi = bleualign(src, tgt, mt, mt_rev, params=PARAMS)
        assert {b.key for b in bi.beads} == {b.key for b in uni.beads}

    def test_disagreeing_reverse_direction_drops_beads(self):
        src = sl("s", "en", ["aaa bbb ccc .", "ddd eee fff ."])
        tgt = sl("t", "en", ["AAA BBB CCC .", "DDD EEE FFF ."])
        mt = sl("mt", "en", list(tgt.sentences))
        # reverse translation swaps the two sentences
        mt_rev = sl("rev", "en", [src.sentences[1], src.sentences[0]])
        uni = bleualign(src, tgt, mt, params=PARAMS)
        bi = bleualign(src, tgt, mt, mt_rev, params=PARAMS)
        assert {b.key for b in bi.beads} < {b.key for b in uni.beads}

    def test_each_sentence_of_the_four_lists_is_tokenized_once(self, monkeypatch):
        """Each direction tokenizes its hypotheses and its references once,
        for both the score matrix and anchor growth."""
        calls = Counter()

        def counting_tokenize(text, lang):
            calls[text, lang] += 1
            return tokenize(text, lang)

        monkeypatch.setattr("bitextkit.bleualign.tokenize", counting_tokenize)
        src = sl("s", "zh", ["患者发热。", "体温下降。", "随访一年。"])
        tgt = sl("t", "en", ["The patient had a fever .", "It fell .", "One year ."])
        mt = sl("mt", "en", ["The patient had fever .", "Temperature fell .", "A year ."])
        mt_rev = sl("rev", "zh", ["患者发烧。", "它下降了。", "一年。"])
        bleualign(src, tgt, mt, mt_rev, params=PARAMS)
        lists = (src, tgt, mt, mt_rev)
        assert calls == Counter((s, x.language) for x in lists for s in x.sentences)

    def test_intersection_is_always_a_subset(self):
        rng = random.Random(59)
        vocab = ["w%d" % k for k in range(12)]

        def noisy_line(line):
            toks = line.split()
            if toks and rng.random() < 0.4:
                toks[rng.randrange(len(toks))] = rng.choice(vocab)
            return " ".join(toks)

        for _ in range(30):
            n_src = rng.randint(1, 5)
            n_tgt = rng.randint(1, 5)
            src_lines = [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 6)))
                for _ in range(n_src)
            ]
            tgt_lines = [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 6)))
                for _ in range(n_tgt)
            ]
            src = sl("s", "en", src_lines)
            tgt = sl("t", "en", tgt_lines)
            mt = sl("mt", "en", [noisy_line(rng.choice(tgt_lines)) for _ in range(n_src)])
            mt_rev = sl("rev", "en", [noisy_line(rng.choice(src_lines)) for _ in range(n_tgt)])
            uni = bleualign(src, tgt, mt, min_score=0.02, params=PARAMS)
            bi = bleualign(src, tgt, mt, mt_rev, min_score=0.02, params=PARAMS)
            assert {b.key for b in bi.beads} <= {b.key for b in uni.beads}
            assert validate_alignment(uni) == []
            assert validate_alignment(bi) == []
            covered_src = sorted(i for b in uni.beads for i in b.src)
            covered_tgt = sorted(j for b in uni.beads for j in b.tgt)
            assert covered_src == list(range(n_src))
            assert covered_tgt == list(range(n_tgt))

"""Two-pass lexical alignment: IBM-1 EM training, rare-word handling, and
the posterior-thresholded second pass."""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitextkit.core import SentenceList, validate_alignment
from bitextkit.scoring import tokenize
from bitextkit.moore import (
    EM_ITERATIONS,
    MOORE_MOVES,
    NULL_TOKEN,
    OTHER_TOKEN,
    PRIORS,
    THETA1,
    THETA2,
    TranslationTable,
    _bead_scorer,
    _LEX_FLOOR,
    _LOG_PRIORS,
    _accept_one_one,
    _forward_backward,
    _length_model,
    _map_oov,
    length_pass,
    load_table,
    map_rare_tokens,
    moore_align,
    save_table,
    train_ibm1,
    train_lexicon,
)
from test_scoring import left_to_right_sum


# The four functions below are the package's earlier, unoptimized code, kept
# as references: the optimized lattice, length term and EM must equal them
# bit for bit (``==``, not approx). They add floats left to right, as the
# package does on every Python.


def reference_logsumexp(values):
    top = max(values)
    if top == -math.inf:
        return top
    return top + math.log(left_to_right_sum(math.exp(v - top) for v in values))


def reference_forward_backward(S, T, log_bead):
    grids = {
        (m, n): [[log_bead(i, j, m, n) for j in range(T + 1 - n)] for i in range(S + 1 - m)]
        for m, n in MOORE_MOVES
    }
    NEG = -math.inf
    alpha = [[NEG] * (T + 1) for _ in range(S + 1)]
    beta = [[NEG] * (T + 1) for _ in range(S + 1)]
    alpha[0][0] = 0.0
    for i in range(S + 1):
        for j in range(T + 1):
            if i == 0 and j == 0:
                continue
            terms = [
                alpha[i - m][j - n] + grid[i - m][j - n]
                for (m, n), grid in grids.items()
                if i - m >= 0 and j - n >= 0
            ]
            alpha[i][j] = reference_logsumexp(terms)
    beta[S][T] = 0.0
    for i in range(S, -1, -1):
        for j in range(T, -1, -1):
            if i == S and j == T:
                continue
            terms = [
                grid[i][j] + beta[i + m][j + n]
                for (m, n), grid in grids.items()
                if i + m <= S and j + n <= T
            ]
            beta[i][j] = reference_logsumexp(terms)
    z = alpha[S][T]
    post = [[0.0] * T for _ in range(S)]
    if z == NEG:
        return post
    for i in range(S):
        for j in range(T):
            if alpha[i][j] == NEG:
                continue
            lp = alpha[i][j] + grids[1, 1][i][j] + beta[i + 1][j + 1] - z
            post[i][j] = min(max(math.exp(lp), 0.0), 1.0)
    return post


def reference_length_model(slen, tlen):
    r = sum(tlen) / sum(slen) if sum(slen) else 1.0
    mean_src = sum(slen) / len(slen) if slen else 1.0

    def log_bead(i, j, m, n):
        ls = sum(slen[i : i + m]) if m else mean_src
        lt = sum(tlen[j : j + n])
        lam = max(ls * r, 1e-6)
        return _LOG_PRIORS[(m, n)] + (lt * math.log(lam) - lam - math.lgamma(lt + 1))

    return log_bead


def reference_train_ibm1(pairs, iterations):
    pairs = [(list(s), list(t)) for s, t in pairs]
    cooc = {NULL_TOKEN: set()}
    tgt_counts = {}
    for src_toks, tgt_toks in pairs:
        for w in tgt_toks:
            tgt_counts[w] = tgt_counts.get(w, 0) + 1
        cooc[NULL_TOKEN].update(tgt_toks)
        for s in src_toks:
            cooc.setdefault(s, set()).update(tgt_toks)
    t = {s: {w: 1.0 / len(ws) for w in ws} for s, ws in cooc.items() if ws}
    history = []
    for _ in range(iterations):
        counts = {s: {} for s in t}
        ll = 0.0
        for src_toks, tgt_toks in pairs:
            context = [NULL_TOKEN] + src_toks
            for w in tgt_toks:
                denom = left_to_right_sum(t[s].get(w, 0.0) for s in context)
                ll += math.log(denom / len(context)) if denom > 0 else -math.inf
                if denom <= 0:
                    continue
                for s in context:
                    p = t[s].get(w, 0.0)
                    if p > 0:
                        counts[s][w] = counts[s].get(w, 0.0) + p / denom
        history.append(ll)
        t = {
            s: {w: c / total for w, c in ws.items()}
            for s, ws in counts.items()
            if (total := left_to_right_sum(ws.values())) > 0
        }
    return TranslationTable(t, tgt_counts, tuple(history))


def reference_lexical_log_ratio(table, src_toks, tgt_toks):
    """log of Model-1 probability over the target unigram product.

    (1/(l_s+1)^{l_t}) prod_j sum_i t(t_j|s_i)  /  prod_j u(t_j)
    """
    context = [NULL_TOKEN] + src_toks
    total = -len(tgt_toks) * math.log(len(context))
    for w in tgt_toks:
        mass = left_to_right_sum(table.t.get(s, {}).get(w, 0.0) for s in context)
        total += math.log(max(mass, _LEX_FLOOR)) - math.log(table.unigram(w))
    return total


def reference_em(pairs, iterations):
    """Independent IBM Model 1: same initialization contract, different
    bookkeeping. Returns (t, log-likelihood history)."""
    null = "<NULL>"
    cooc = {null: set()}
    for src, tgt in pairs:
        cooc[null].update(tgt)
        for s in src:
            cooc.setdefault(s, set()).update(tgt)
    t = {s: dict.fromkeys(ws, 1.0 / len(ws)) for s, ws in cooc.items() if ws}
    history = []
    for _ in range(iterations):
        counts = {s: dict.fromkeys(dist, 0.0) for s, dist in t.items()}
        ll = 0.0
        for src, tgt in pairs:
            context = [null] + list(src)
            for w in tgt:
                total = sum(t[s].get(w, 0.0) for s in context)
                ll += math.log(total / len(context))
                for s in context:
                    if t[s].get(w, 0.0) > 0.0:
                        counts[s][w] += t[s][w] / total
        history.append(ll)
        t = {}
        for s, ws in counts.items():
            norm = sum(ws.values())
            if norm > 0:
                t[s] = {w: c / norm for w, c in ws.items() if c > 0}
    return t, history


def doc(doc_id, sentences, lang="en"):
    return SentenceList(doc_id, lang, tuple(sentences), (0,) * len(sentences))


TWO_PAIR_CORPUS = [(["a", "b"], ["x", "y"]), (["a"], ["x"])]


class TestEmTraining:
    def test_matches_reference_implementation(self):
        for iterations in (1, 2, 4):
            table = train_ibm1(TWO_PAIR_CORPUS, iterations)
            ref_t, ref_history = reference_em(TWO_PAIR_CORPUS, iterations)
            assert set(table.t) == set(ref_t)
            for s in ref_t:
                for w, p in ref_t[s].items():
                    assert table.t[s].get(w, 0.0) == pytest.approx(p, abs=1e-12)
            for got, want in zip(table.ll_history, ref_history):
                assert got == pytest.approx(want, abs=1e-12)

    def test_matches_reference_on_random_corpora(self):
        rng = random.Random(401)
        src_vocab = list("abcdef")
        tgt_vocab = list("uvwxyz")
        for _ in range(8):
            pairs = []
            for _ in range(rng.randint(2, 6)):
                k = rng.randint(1, 4)
                pairs.append(
                    (
                        [rng.choice(src_vocab) for _ in range(k)],
                        [rng.choice(tgt_vocab) for _ in range(k)],
                    )
                )
            table = train_ibm1(pairs, 3)
            ref_t, _ = reference_em(pairs, 3)
            for s in ref_t:
                for w, p in ref_t[s].items():
                    assert table.t[s].get(w, 0.0) == pytest.approx(p, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.lists(st.sampled_from("abc"), max_size=6), st.lists(st.sampled_from("xyz"), max_size=6)),
            min_size=1,
            max_size=8,
        ),
        iterations=st.integers(1, 4),
    )
    # no target token anywhere: the table is empty
    @example(pairs=[(["a"], []), ([], [])], iterations=2)
    # "c" is seen only beside an empty target side, so it has no row
    @example(pairs=[(["c"], []), (["a", "b"], ["x"]), (["a"], ["x", "x"])], iterations=3)
    def test_equals_the_reference_bit_for_bit(self, pairs, iterations):
        got = train_ibm1(pairs, iterations)
        want = reference_train_ibm1(pairs, iterations)
        # insertion order too: it is the order later sums add in
        assert [(s, list(d.items())) for s, d in got.t.items()] == [(s, list(d.items())) for s, d in want.t.items()]
        assert got.ll_history == want.ll_history
        assert got.tgt_counts == want.tgt_counts

    def test_disambiguation_after_four_iterations(self):
        table = train_ibm1(TWO_PAIR_CORPUS, 4)
        assert max(table.t["a"], key=table.t["a"].get) == "x"
        assert max(table.t["b"], key=table.t["b"].get) == "y"

    def test_log_likelihood_never_decreases(self):
        rng = random.Random(77)
        vocab = list("abcdefgh")
        for _ in range(20):
            pairs = [
                (
                    [rng.choice(vocab) for _ in range(rng.randint(1, 5))],
                    [rng.choice(vocab) for _ in range(rng.randint(1, 5))],
                )
                for _ in range(rng.randint(1, 6))
            ]
            history = train_ibm1(pairs, 10).ll_history
            assert len(history) == 10
            for earlier, later in zip(history, history[1:]):
                assert later >= earlier - 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            train_ibm1(TWO_PAIR_CORPUS, 0)
        with pytest.raises(ValueError):
            train_ibm1([])

    @pytest.mark.parametrize("iterations", [0, -3, 2.5, "4", True])
    def test_iterations_that_are_not_a_positive_integer_rejected(self, iterations):
        with pytest.raises(ValueError, match=r"iterations must be an integer >= 1, got "):
            train_ibm1(TWO_PAIR_CORPUS, iterations)

    def test_default_runs_em_iterations_rounds(self):
        table = train_ibm1(TWO_PAIR_CORPUS)
        assert len(table.ll_history) == EM_ITERATIONS
        assert table.t == train_ibm1(TWO_PAIR_CORPUS, EM_ITERATIONS).t

    def test_unigram_smoothing(self):
        table = train_ibm1([(["a"], ["x", "x", "y"])], 1)
        assert table.tgt_counts == {"x": 2, "y": 1}
        # add-one over 3 tokens and 2 types (+1 for unseen)
        assert table.unigram("x") == pytest.approx(3 / 6)
        assert table.unigram("zzz") == pytest.approx(1 / 6)


class TestRareWords:
    def test_hapax_tokens_become_other(self):
        pairs = [(["a", "junk"], ["x"]), (["a"], ["x", "noise"])]
        mapped = map_rare_tokens(pairs)
        assert mapped[0][0] == ["a", OTHER_TOKEN]
        assert mapped[1][1] == ["x", OTHER_TOKEN]

    def test_min_count_boundary(self):
        pairs = [(["w"], ["x"]), (["w"], ["y"])]
        assert map_rare_tokens(pairs, min_count=2)[0][0] == ["w"]
        assert map_rare_tokens(pairs, min_count=3)[0][0] == [OTHER_TOKEN]

    def test_sides_counted_independently(self):
        pairs = [(["same"], ["same"])]
        mapped = map_rare_tokens(pairs, min_count=2)
        assert mapped == [([OTHER_TOKEN], [OTHER_TOKEN])]


def brute_force_one_one(S, T, log_bead):
    """1-1 bead posteriors by enumerating every MOORE_MOVES path from (0, 0)
    to (S, T); a cell no finite-probability path passes through gets 0.0."""
    paths = []

    def walk(i, j, lp, ones):
        if (i, j) == (S, T):
            paths.append((lp, ones))
        for m, n in MOORE_MOVES:
            if i + m <= S and j + n <= T:
                step = ((i, j),) if (m, n) == (1, 1) else ()
                walk(i + m, j + n, lp + log_bead(i, j, m, n), ones + step)

    walk(0, 0, 0.0, ())
    post = [[0.0] * T for _ in range(S)]
    finite = [(lp, ones) for lp, ones in paths if lp > -math.inf]
    if finite:
        top = max(lp for lp, _ in finite)
        z = sum(math.exp(lp - top) for lp, _ in finite)
        for lp, ones in finite:
            for i, j in ones:
                post[i][j] += math.exp(lp - top) / z
    return post


def bead_table(S, T, value):
    return {
        (i, j, m, n): value(m, n)
        for i in range(S + 1)
        for j in range(T + 1)
        for m, n in MOORE_MOVES
        if i + m <= S and j + n <= T
    }


def scorer(table):
    return lambda i, j, m, n: table[(i, j, m, n)]


def only_one_one(m, n):
    return 0.0 if (m, n) == (1, 1) else -math.inf


@st.composite
def lattices(draw, min_side=1, max_side=4):
    S, T = draw(st.integers(min_side, max_side)), draw(st.integers(min_side, max_side))
    # a draw below -7 blocks the bead, so some cells and lattices are unreachable
    weight = st.floats(-8.0, 0.0).map(lambda v: -math.inf if v < -7.0 else v)
    return S, T, bead_table(S, T, lambda m, n: draw(weight))


class TestForwardBackward:
    @settings(max_examples=300, deadline=None)
    @given(lattice=lattices())
    # only the diagonal path: cells (0, 1) and (1, 0) are unreachable
    @example(lattice=(2, 2, bead_table(2, 2, only_one_one)))
    # 1-1 beads alone cannot reach (2, 3): Z = -inf
    @example(lattice=(2, 3, bead_table(2, 3, only_one_one)))
    def test_one_one_posteriors_match_path_enumeration(self, lattice):
        S, T, table = lattice
        log_bead = scorer(table)
        got = _forward_backward(S, T, log_bead)
        want = brute_force_one_one(S, T, log_bead)
        assert len(got) == S and all(len(row) == T for row in got)
        for i in range(S):
            for j in range(T):
                if want[i][j] == 0.0:
                    assert got[i][j] == 0.0, (i, j)
                else:
                    assert got[i][j] == pytest.approx(want[i][j], rel=1e-9, abs=1e-12), (i, j)

    @settings(max_examples=300, deadline=None)
    @given(lattice=lattices(min_side=0, max_side=7))
    @example(lattice=(2, 2, bead_table(2, 2, only_one_one)))
    @example(lattice=(2, 3, bead_table(2, 3, only_one_one)))
    @example(lattice=(0, 3, bead_table(0, 3, only_one_one)))
    def test_posteriors_equal_the_reference_bit_for_bit(self, lattice):
        S, T, table = lattice
        assert _forward_backward(S, T, scorer(table)) == reference_forward_backward(S, T, scorer(table))


class TestLengthModel:
    @settings(max_examples=300, deadline=None)
    # few distinct counts, so the memo is hit
    @given(slen=st.lists(st.integers(0, 6), max_size=7), tlen=st.lists(st.integers(0, 6), max_size=7))
    # an all-zero source side: r falls back to 1.0
    @example(slen=[0, 0, 0], tlen=[3, 0, 5])
    # no source sentence: the 0-1 bead's mean source length falls back to 1.0
    @example(slen=[], tlen=[2, 4])
    def test_every_value_equals_the_reference_bit_for_bit(self, slen, tlen):
        got, want = _length_model(slen, tlen), reference_length_model(slen, tlen)
        for i in range(len(slen) + 1):
            for j in range(len(tlen) + 1):
                for m, n in MOORE_MOVES:
                    if i + m <= len(slen) and j + n <= len(tlen):
                        assert got(i, j, m, n) == want(i, j, m, n), (i, j, m, n)


class TestLengthPass:
    def test_parallel_documents_have_confident_diagonal(self):
        src = doc("s", ["aa bb cc dd", "ee ff gg hh ii jj kk ll", "mm nn oo pp qq rr", "ss tt uu vv ww xx yy zz ab cd"])
        tgt = doc("t", ["AA BB CC DD", "EE FF GG HH II JJ KK LL", "MM NN OO PP QQ RR", "SS TT UU VV WW XX YY ZZ AB CD"])
        _post, confident = length_pass(src, tgt)
        assert confident == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_empty_side_returns_nothing_confident(self):
        _post, confident = length_pass(doc("s", []), doc("t", ["x"]))
        assert confident == []

    @settings(max_examples=50, deadline=None)
    @given(
        src=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        tgt=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    )
    def test_confident_pairs_are_the_posteriors_at_or_above_theta1(self, src, tgt):
        post, confident = length_pass(
            doc("s", [" ".join("w" * n) for n in src]), doc("t", [" ".join("v" * n) for n in tgt])
        )
        assert confident == [(i, j) for i, row in enumerate(post) for j, p in enumerate(row) if p >= THETA1]


def test_fixed_settings_are_moores():
    """Pass one trains on posteriors >= 0.99, EM runs four rounds, and pass
    two emits the 1-1 pairs whose posterior is >= 0.5."""
    assert (THETA1, EM_ITERATIONS, THETA2) == (0.99, 4, 0.5)


def training_docs(n_extra_tokens=0):
    """A small parallel corpus with an invented bilingual lexicon."""
    lexicon = [
        ("rota", "wheel"), ("manus", "hand"), ("aqua", "water"),
        ("ignis", "fire"), ("terra", "earth"), ("lux", "light"),
        ("nox", "night"), ("via", "road"), ("mons", "hill"), ("mare", "sea"),
    ]
    src_sents, tgt_sents = [], []
    rng = random.Random(7)
    sizes = [2, 5, 3, 6, 4, 2, 5, 3, 6, 4, 2, 5]  # varied so lengths inform
    for k in range(12):
        picks = rng.sample(lexicon, sizes[k])
        src_sents.append(" ".join(s for s, _ in picks) + " .")
        tgt_sents.append(" ".join(t for _, t in picks) + " .")
    return doc("src", src_sents), doc("tgt", tgt_sents)


def both_passes(src, tgt):
    """Pass one, lexicon training and pass two on a single document pair."""
    _post, confident = length_pass(src, tgt)
    return moore_align(src, tgt, train_lexicon([(src, tgt, confident)]))


class TestSecondPass:
    def test_identity_like_documents_align_diagonally(self):
        src, tgt = training_docs()
        aset = both_passes(src, tgt)
        one_one = [b for b in aset.beads if b.bead_type == (1, 1)]
        assert [b.key for b in one_one] == [((i,), (i,)) for i in range(len(src))]
        assert all(b.score >= 0.5 for b in one_one)

    def test_output_is_monotone_without_crossings(self):
        src, tgt = training_docs()
        aset = both_passes(src, tgt)
        assert validate_alignment(aset) == []

    def test_only_one_to_one_and_deletion_beads_emitted(self):
        src, tgt = training_docs()
        aset = both_passes(src, tgt)
        assert {b.bead_type for b in aset.beads} <= {(1, 1), (1, 0), (0, 1)}

    def test_unmatched_sentence_comes_out_as_deletion(self):
        src, tgt = training_docs()
        with_extra = doc("src2", list(src.sentences[:6]) + ["zzz qqq ppp ."] + list(src.sentences[6:]))
        _post, confident = length_pass(src, tgt)
        table = train_lexicon([(src, tgt, confident)])
        aset = moore_align(with_extra, tgt, table)
        keys = {b.key for b in aset.beads}
        # the stray sentence is never paired with anything
        assert ((6,), ()) in keys
        assert not any(6 in b.src for b in aset.beads if b.bead_type == (1, 1))
        # its successor is sacrificed too: merging a stray into a 2-1 bead
        # is prior-cheaper than deleting it, which drags the neighbour's
        # 1-1 posterior under the threshold; the diagonal resumes right after
        assert ((7,), ()) in keys and ((), (6,)) in keys
        matched = {b.key for b in aset.beads if b.bead_type == (1, 1)}
        assert matched == {((i,), (i,)) for i in range(6)} | {
            ((i + 1,), (i,)) for i in range(7, 12)
        }

    def test_new_words_at_alignment_time_are_tolerated(self):
        # the trained table has an OTHER class; unseen tokens score as that
        # class instead of vanishing into the probability floor
        src, tgt = training_docs()
        _post, confident = length_pass(src, tgt)
        confident = confident[:-1]  # hold the last pair out of training
        table = train_lexicon([(src, tgt, confident)])
        assert OTHER_TOKEN in table.src_vocab
        aset = moore_align(src, tgt, table)
        assert ((len(src) - 1,), (len(tgt) - 1,)) in {b.key for b in aset.beads}

    def test_disjoint_vocabulary_warns_and_degrades(self, caplog):
        table = train_ibm1([(["uno"], ["one"])], 2)
        src, tgt = training_docs()
        with caplog.at_level("WARNING"):
            aset = moore_align(src, tgt, table)
        assert any(
            "no vocabulary" in r.message and r.message.startswith(f"{src.doc_id}: ")
            for r in caplog.records
        )
        assert validate_alignment(aset) == []

    def test_empty_target_yields_all_deletions(self, caplog):
        """An empty side, or two, skips pass two's lattice and its shared
        vocabulary warning: the sentences come out as 1-0, then 0-1 beads."""
        table = train_ibm1(TWO_PAIR_CORPUS, 1)
        for src, tgt, keys in (
            (["a b", "a"], [], [((0,), ()), ((1,), ())]),
            ([], ["x y", "x"], [((), (0,)), ((), (1,))]),
            ([], [], []),
        ):
            aset = moore_align(doc("s", src), doc("t", tgt), table)
            assert [b.key for b in aset.beads] == keys
            assert all(b.score is None and b.method == "moore" for b in aset.beads)
        assert caplog.records == []

    def test_each_pass_tokenizes_what_it_reads_once(self, monkeypatch):
        """Pass one and pass two each tokenize both lists once; lexicon
        training tokenizes only the sentences of its confident pairs."""
        calls = Counter()

        def counting_tokenize(text, lang):
            calls[text, lang] += 1
            return tokenize(text, lang)

        monkeypatch.setattr("bitextkit.moore.tokenize", counting_tokenize)
        src, tgt = training_docs()
        src = doc("src", src.sentences, "zh")
        everything = Counter((s, x.language) for x in (src, tgt) for s in x.sentences)
        _post, confident = length_pass(src, tgt)
        assert calls == everything
        calls.clear()
        table = train_lexicon([(src, tgt, confident[:3])])
        assert calls == Counter(
            [(src.sentences[i], "zh") for i, _ in confident[:3]] + [(tgt.sentences[j], "en") for _, j in confident[:3]]
        )
        calls.clear()
        moore_align(src, tgt, table)
        assert calls == everything

    def test_train_lexicon_without_confident_pairs_warns_and_returns_the_empty_table(self, tmp_path, caplog):
        src, tgt = training_docs()
        with caplog.at_level("WARNING"):
            table = train_lexicon([(src, tgt, [])])
        assert table == TranslationTable({})
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("bitextkit.moore", "WARNING", "no confident sentence pairs to train on; pass 2 uses the length model")
        ]
        save_table(table, tmp_path / "t.tsv")
        assert (tmp_path / "t.tsv").read_bytes() == b""


def reference_scorer(src_tokens, tgt_tokens, table):
    """Pass two's bead score recomputed for every bead: the reference length
    model plus reference_lexical_log_ratio over the merged sentences. Returns
    it and whether the table shares vocabulary with both sides."""
    length_term = reference_length_model([len(ts) for ts in src_tokens], [len(ts) for ts in tgt_tokens])
    lexical = bool({w for ts in src_tokens for w in ts} & table.src_vocab) and bool(
        {w for ts in tgt_tokens for w in ts} & table.tgt_vocab
    )
    if lexical:
        src_tokens = [_map_oov(ts, table.src_vocab) for ts in src_tokens]
        tgt_tokens = [_map_oov(ts, table.tgt_vocab) for ts in tgt_tokens]

    def log_bead(i, j, m, n):
        lp = length_term(i, j, m, n)
        if not lexical or m == 0 or n == 0:
            return lp
        merged_src = [w for ts in src_tokens[i : i + m] for w in ts]
        merged_tgt = [w for ts in tgt_tokens[j : j + n] for w in ts]
        return lp + reference_lexical_log_ratio(table, merged_src, merged_tgt)

    return log_bead, lexical


# "d" and "x" are in no table, so they are out of vocabulary
SRC_WORDS = ("a", "b", "c", "d")
TGT_WORDS = ("u", "v", "w", "x")


@st.composite
def scorer_cases(draw):
    with_other = draw(st.booleans())
    extra = (OTHER_TOKEN,) if with_other else ()
    # a 0.0 entry, a missing entry and an empty row all give zero mass
    row = st.dictionaries(st.sampled_from(TGT_WORDS[:3] + extra), st.floats(0.0, 1.0))
    t = {s: draw(row) for s in (NULL_TOKEN, *SRC_WORDS[:3], *extra)}
    counts = draw(st.dictionaries(st.sampled_from(TGT_WORDS[:3] + extra), st.integers(1, 9)))

    def doc(words):
        return draw(st.lists(st.lists(st.sampled_from(words), max_size=5), min_size=1, max_size=4))

    return doc(SRC_WORDS), doc(TGT_WORDS), TranslationTable({s: r for s, r in t.items() if r}, counts)


class TestBeadScorer:
    @settings(max_examples=300, deadline=None)
    @given(case=scorer_cases())
    # OOV "d" and "x" score as OTHER
    @example(case=(
        [["a", "d"], ["b"], ["c", "d", "a"]],
        [["u", "x"], ["v", "x"]],
        TranslationTable(
            {
                NULL_TOKEN: {"u": 0.25, OTHER_TOKEN: 0.5},
                "a": {"u": 0.75},
                OTHER_TOKEN: {OTHER_TOKEN: 0.5, "v": 0.125},
            },
            {"u": 3, OTHER_TOKEN: 2},
        ),
    ))
    # no OTHER: "x" keeps zero mass and hits the floor
    @example(case=(
        [["a", "d"], ["b", "a"]],
        [["u", "x"], ["x"], ["v"]],
        TranslationTable({NULL_TOKEN: {"u": 0.5}, "a": {"u": 0.3, "v": 0.1}, "b": {"v": 0.7}}, {"u": 1}),
    ))
    # a table that shares no vocabulary with the document
    @example(case=(
        [["a"], ["b", "c"]],
        [["u"], ["v", "w"]],
        TranslationTable({NULL_TOKEN: {"y": 1.0}, "z": {"y": 1.0}}, {"y": 1}),
    ))
    def test_every_bead_equals_the_reference_score(self, case):
        src_tokens, tgt_tokens, table = case
        got, lexical = _bead_scorer(src_tokens, tgt_tokens, table)
        want, want_lexical = reference_scorer(src_tokens, tgt_tokens, table)
        assert lexical == want_lexical
        S, T = len(src_tokens), len(tgt_tokens)
        for i in range(S + 1):
            for j in range(T + 1):
                for m, n in MOORE_MOVES:
                    if i + m <= S and j + n <= T:
                        assert got(i, j, m, n) == want(i, j, m, n), (i, j, m, n)


def reference_accept(post, theta2):
    """The earlier greedy acceptance: each candidate checked against every
    accepted cell."""
    accepted = []
    candidates = [(i, j, p) for i, row in enumerate(post) for j, p in enumerate(row) if p >= theta2]
    for i, j, p in sorted(candidates, key=lambda c: (-c[2], c[0], c[1])):
        if all(i != i2 and j != j2 and (i < i2) == (j < j2) for i2, j2, _ in accepted):
            accepted.append((i, j, p))
    return sorted(accepted)


# mostly a few distinct values, so ties are common
posterior = st.one_of(st.sampled_from((0.0, 0.01, 0.2, 0.5, 0.7, 1.0)), st.floats(0.0, 1.0))


class TestAcceptOneOne:
    @settings(max_examples=300, deadline=None)
    @given(
        post=st.integers(1, 9).flatmap(
            lambda T: st.lists(st.lists(posterior, min_size=T, max_size=T), min_size=1, max_size=9)
        ),
        theta2=st.floats(0.01, 0.99),
    )
    def test_equals_the_all_pairs_scan(self, post, theta2):
        assert _accept_one_one(post, theta2) == reference_accept(post, theta2)


class TestTableSerialization:
    def test_round_trip(self, tmp_path):
        table = train_ibm1(TWO_PAIR_CORPUS, 4)
        path = tmp_path / "table.tsv"
        save_table(table, path)
        back = load_table(path)
        assert set(back.t) == set(table.t)
        for s in table.t:
            for w, p in table.t[s].items():
                assert back.t[s][w] == p
        assert back.tgt_counts == table.tgt_counts

    @pytest.mark.parametrize("line", ["a\tu\t0.5x", "#count\tu\tmany", "#count\tu"])
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "table.tsv"
        path.write_text(f"#count\tu\t3\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"table\.tsv line 2: "):
            load_table(path)


class TestPriors:
    def test_normalized_and_without_two_two(self):
        assert sum(PRIORS.values()) == pytest.approx(1.0, abs=1e-12)
        assert (2, 2) not in PRIORS
        assert set(MOORE_MOVES) == set(PRIORS)

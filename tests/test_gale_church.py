"""Length-based alignment: normal CDF, bead costs, parameter fitting, and
the lattice search checked against exhaustive enumeration."""

import math
import pickle
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitextkit import gale_church
from bitextkit.core import AlignmentSet, SentenceList, validate_alignment
from bitextkit.gale_church import (
    GC_MOVES,
    PRIORS,
    LengthParams,
    _align_block,
    _log_match,
    estimate_length_params,
    gc_align,
    load_length_params,
    norm_cdf,
    paragraph_blocks,
    path_beads,
    save_length_params,
)


def gc_cost(
    bead_type: tuple[int, int], src_chars: int, tgt_chars: int, params: LengthParams
) -> float:
    """Negative log probability of one bead given block character lengths:
    the step cost the lattice search must add up, under the module's priors
    (see :func:`priors_patched`)."""
    if bead_type not in gale_church.PRIORS:
        raise ValueError(f"unknown bead type {bead_type!r}")
    return -math.log(gale_church.PRIORS[bead_type]) - _log_match(
        src_chars, tgt_chars, params.c, params.s2
    )


@contextmanager
def priors_patched(priors):
    """gc with ``priors`` in place of the published ones: the module's prior
    table and the per-move costs the lattice reads from it."""
    costs = {move: -math.log(p) for move, p in priors.items()}
    with mock.patch.dict(gale_church.PRIORS, priors), mock.patch.dict(gale_church._PRIOR_COSTS, costs):
        yield


def phi(x: float) -> float:
    """Reference normal CDF through the error function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def exhaustive_best(slen, tlen, params):
    """Enumerate every move sequence through the lattice and return the best
    (cost, -ones, beads, moves) tuple under the alignment's own ordering.

    Costs are accumulated back-to-front so float totals are bit-identical
    with the backward dynamic program. Rounding can make a suffix that costs
    more at some node tie once a prefix is added; the search never revisits
    such a suffix, so the candidates are the paths whose every suffix costs
    the least of all suffixes from its start node.
    """
    S, T = len(slen), len(tlen)

    def rec(i, j):
        if (i, j) == (S, T):
            yield ()
            return
        for m, n in GC_MOVES:
            if i + m <= S and j + n <= T:
                for rest in rec(i + m, j + n):
                    yield ((m, n),) + rest

    def suffix_costs(i, j, moves):
        """The path's cost from each node it leaves, keyed by that node."""
        spans = []
        for m, n in moves:
            spans.append((i, j, m, n))
            i, j = i + m, j + n
        costs, cost = {}, 0.0
        for i0, j0, m, n in reversed(spans):
            step = gc_cost(
                (m, n), sum(slen[i0 : i0 + m]), sum(tlen[j0 : j0 + n]), params
            )
            cost = costs[i0, j0] = step + cost
        return costs

    # every suffix from a node is the tail of some path from the origin
    paths = [(moves, suffix_costs(0, 0, moves)) for moves in rec(0, 0)]
    least = {}
    for _moves, costs in paths:
        for node, cost in costs.items():
            least[node] = min(cost, least.get(node, cost))
    best = None
    for moves, costs in paths:
        if any(cost != least[node] for node, cost in costs.items()):
            continue
        ones = sum(move == (1, 1) for move in moves)
        key = (costs.get((0, 0), 0.0), -ones, len(moves), moves)
        if best is None or key < best:
            best = key
    return best


def reference_align_block(slen, tlen, params):
    """The lattice search scored through gc_cost with tuple keys: the
    backward pass keeps the smallest (cost, -ones, beads) per node, and the
    forward pass re-scores each node's moves in sorted order and takes the
    first whose key equals it."""
    S, T = len(slen), len(tlen)
    best = [[None] * (T + 1) for _ in range(S + 1)]
    best[S][T] = (0.0, 0, 0)

    def step_key(i, j, m, n):
        nxt = best[i + m][j + n]
        step = gc_cost((m, n), sum(slen[i : i + m]), sum(tlen[j : j + n]), params)
        return (step + nxt[0], nxt[1] - ((m, n) == (1, 1)), nxt[2] + 1), step

    for i in range(S, -1, -1):
        for j in range(T, -1, -1):
            if i == S and j == T:
                continue
            for m, n in GC_MOVES:
                if i + m <= S and j + n <= T:
                    key, _ = step_key(i, j, m, n)
                    if best[i][j] is None or key < best[i][j]:
                        best[i][j] = key
    path = []
    i = j = 0
    while (i, j) != (S, T):
        for m, n in sorted(GC_MOVES):
            if i + m <= S and j + n <= T:
                key, step = step_key(i, j, m, n)
                if key == best[i][j]:
                    path.append(((m, n), step))
                    i, j = i + m, j + n
                    break
    return path


# With uniform priors every move costs only its length term, so equal
# sentence lengths tie exactly and the move order decides.
UNIFORM_PRIORS = dict.fromkeys(GC_MOVES, 1 / 6)
# -log(1/4) == 2 * -log(1/2) exactly: a 2-2 bead ties two 1-1 beads on cost
# and loses on 1-1 count, though it wins on bead count.
HALVING_PRIORS = {**dict.fromkeys(GC_MOVES, 1 / 16), (1, 1): 1 / 2, (2, 2): 1 / 4}
# p(1-0) * p(1-2) == p(2-2): with an empty source sentence and a length
# match, 1-0 then 1-2 ties a 2-2 bead on cost and 1-1 count, and loses on
# bead count though its first move sorts first.
SPLIT_PRIORS = {
    **dict.fromkeys(((1, 1), (1, 0), (1, 2)), 1 / 4),
    **dict.fromkeys(((2, 1), (2, 2)), 1 / 16),
    (0, 1): 1 / 8,
}
lattice_params = st.builds(LengthParams, c=st.sampled_from((1.0, 1.3)), s2=st.sampled_from((6.8, 1.0)))
prior_tables = st.sampled_from((PRIORS, UNIFORM_PRIORS, HALVING_PRIORS))


def sentence_lengths(max_size):
    # the small length set with c = 1 gives exact cost ties between paths
    return st.one_of(
        st.lists(st.integers(0, 60), max_size=max_size),
        st.lists(st.sampled_from((1, 2, 20, 40)), max_size=max_size),
    )


def sentences(lengths, lang="en", doc_id="d", paragraph_index=None):
    sents = tuple("x" * n for n in lengths)
    if paragraph_index is None:
        paragraph_index = (0,) * len(sents)
    return SentenceList(doc_id, lang, sents, tuple(paragraph_index))


class TestNormCdf:
    def test_tabulated_grid(self):
        for x in (0.0, 0.5, 1.0, 1.2127, 2.0, 3.0):
            assert abs(norm_cdf(x) - phi(x)) <= 1.5e-7
            assert abs(norm_cdf(-x) - phi(-x)) <= 1.5e-7

    def test_center_is_exact(self):
        assert norm_cdf(0.0) == 0.5

    def test_symmetry(self):
        for x in (0.25, 1.5, 2.75):
            assert norm_cdf(-x) == pytest.approx(1.0 - norm_cdf(x), abs=1.5e-7)

    def test_monotone_nondecreasing(self):
        rng = random.Random(5)
        xs = sorted(rng.uniform(-6, 6) for _ in range(300))
        values = [norm_cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


class TestBeadCost:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            gc_cost((3, 1), 10, 10, LengthParams())

    def test_balanced_one_one_costs_only_its_prior(self):
        params = LengthParams(c=1.0, s2=6.8)
        cost = gc_cost((1, 1), 24, 24, params)
        assert cost == pytest.approx(-math.log(PRIORS[(1, 1)]), abs=1e-12)

    def test_cost_matches_two_tail_formula(self):
        params = LengthParams(c=1.0, s2=6.8)
        src, tgt = 20, 30
        delta = (tgt - src * params.c) / math.sqrt(src * params.s2)
        expected = -math.log(PRIORS[(1, 1)]) - math.log(
            2.0 * (1.0 - phi(abs(delta)))
        )
        assert gc_cost((1, 1), src, tgt, params) == pytest.approx(expected, abs=1e-4)

    def test_imbalance_costs_more(self):
        params = LengthParams(c=1.0, s2=6.8)
        balanced = gc_cost((1, 1), 20, 20, params)
        skewed = gc_cost((1, 1), 20, 60, params)
        assert skewed > balanced

    def test_deletion_cost_well_defined(self):
        params = LengthParams(c=1.0, s2=6.8)
        assert math.isfinite(gc_cost((1, 0), 15, 0, params))
        assert math.isfinite(gc_cost((0, 1), 0, 15, params))

    def test_default_priors_are_normalized(self):
        assert sum(PRIORS.values()) == pytest.approx(1.0, abs=1e-12)
        # the dominant substitution probability before normalization
        assert PRIORS[(1, 1)] == pytest.approx(0.89 / 1.0098, abs=1e-9)
        assert PRIORS[(2, 1)] == PRIORS[(1, 2)]
        assert PRIORS[(1, 0)] == PRIORS[(0, 1)]
        assert list(gale_church._PRIOR_COSTS) == sorted(GC_MOVES)
        assert all(cost == -math.log(PRIORS[move]) for move, cost in gale_church._PRIOR_COSTS.items())


class TestLengthParams:
    def test_unknown_move_in_params_file_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("priors.3-1=0.01\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"params\.txt line 1: unknown key 'priors\.3-1'"):
            load_length_params(path)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": math.nan},
            {"c": math.inf},
            {"s2": math.nan},
            {"s2": 0.0},
        ],
    )
    def test_non_finite_or_non_positive_scale_rejected(self, kwargs):
        # a NaN c would make every lattice key incomparable
        with pytest.raises(ValueError):
            LengthParams(**kwargs)


def path_from_empty_memo(monkeypatch, src, tgt, params):
    """The path :func:`_align_block` finds for ``params`` with no length term
    memoized yet; the memo it fills stays in place for the test."""
    monkeypatch.setattr(gale_church, "_LOG_MATCH_MEMO", {})
    return _align_block(src, tgt, params)


class TestLengthTermMemo:
    """The lattice memoizes its length term per scale (c, s2), process-wide."""

    @settings(max_examples=100, deadline=None)
    @given(
        blocks=st.lists(st.tuples(sentence_lengths(8), sentence_lengths(8)), max_size=6),
        params=lattice_params,
        priors=prior_tables,
    )
    def test_one_instance_over_many_blocks_equals_a_fresh_one_per_block(self, blocks, params, priors):
        # hypothesis runs many examples in one test call, so each memo is
        # patched in by a context manager, not the function-scoped monkeypatch
        with priors_patched(priors), mock.patch.object(gale_church, "_LOG_MATCH_MEMO", {}):
            for slen, tlen in blocks:
                warm = _align_block(slen, tlen, params)
                with mock.patch.object(gale_church, "_LOG_MATCH_MEMO", {}):
                    assert _align_block(slen, tlen, params) == warm

    def test_instances_with_other_scales_share_no_entries(self, monkeypatch):
        src = [12, 30, 7, 44]
        tgt = [10, 35, 9, 20, 40]
        instances = [LengthParams(), LengthParams(c=1.3), LengthParams(s2=1.0)]
        fresh = [path_from_empty_memo(monkeypatch, src, tgt, p) for p in instances]
        monkeypatch.setattr(gale_church, "_LOG_MATCH_MEMO", {})
        paths = [_align_block(src, tgt, p) for p in instances]
        memo = gale_church._LOG_MATCH_MEMO
        assert list(memo) == [(p.c, p.s2) for p in instances]
        for p, path, fresh_path in zip(instances, paths, fresh):
            entries = [
                (sc, tc, value)
                for sc, by_tc in memo[p.c, p.s2].items()
                for tc, value in by_tc.items()
            ]
            assert entries
            assert all(value == _log_match(sc, tc, p.c, p.s2) for sc, tc, value in entries)
            assert path == fresh_path
        # the three scales hold different values for one length pair
        assert len({memo[p.c, p.s2][12][10] for p in instances}) == 3

    def test_filled_memo_changes_no_value_semantics(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gale_church, "_LOG_MATCH_MEMO", {})
        params = LengthParams(c=1.1, s2=5.0)
        before_repr, before_pickle = repr(params), pickle.dumps(params)
        save_length_params(params, tmp_path / "empty.txt")
        src, tgt = [12, 30], [10, 35]
        path = _align_block(src, tgt, params)
        assert gale_church._LOG_MATCH_MEMO[1.1, 5.0]
        assert vars(params).keys() == {"c", "s2"}
        assert params == LengthParams(c=1.1, s2=5.0)
        assert repr(params) == before_repr
        save_length_params(params, tmp_path / "filled.txt")
        assert (tmp_path / "filled.txt").read_bytes() == (tmp_path / "empty.txt").read_bytes()
        assert pickle.dumps(params) == before_pickle
        back = pickle.loads(pickle.dumps(params))
        assert back == params
        assert repr(back) == before_repr
        assert _align_block(src, tgt, back) == path


class TestEqualScalesShareOneMemo:
    """Params with equal (c, s2) share one memo, pickled or not, so a pool
    worker scores each pair of lengths once across its chunks."""

    src = [12, 30, 7, 44]
    tgt = [10, 35, 9, 20, 40]

    def test_copies_of_equal_params_share_entries(self, monkeypatch):
        fresh = path_from_empty_memo(monkeypatch, self.src, self.tgt, LengthParams(c=1.7, s2=3.3))
        monkeypatch.setattr(gale_church, "_LOG_MATCH_MEMO", {})
        # two equal instances, each pickled as its own chunk would pickle it
        first, second = (pickle.loads(pickle.dumps(LengthParams(c=1.7, s2=3.3))) for _ in range(2))
        path = _align_block(self.src, self.tgt, first)
        memo = gale_church._LOG_MATCH_MEMO
        assert memo[second.c, second.s2][12][10] == _log_match(12, 10, 1.7, 3.3)
        entries = {sc: dict(by_tc) for sc, by_tc in memo[1.7, 3.3].items()}

        def recomputed(*args):
            raise AssertionError(f"length term {args} computed again")

        monkeypatch.setattr(gale_church, "_log_match", recomputed)
        assert _align_block(self.src, self.tgt, second) == path == fresh
        assert list(memo) == [(1.7, 3.3)]
        assert memo[1.7, 3.3] == entries

    @pytest.mark.parametrize("other", [{"c": 1.8, "s2": 3.3}, {"c": 1.7, "s2": 3.4}], ids=["c", "s2"])
    def test_params_with_another_scale_share_none(self, monkeypatch, other):
        monkeypatch.setattr(gale_church, "_LOG_MATCH_MEMO", {})
        filled = pickle.loads(pickle.dumps(LengthParams(c=1.7, s2=3.3)))
        _align_block(self.src, self.tgt, filled)
        copy = pickle.loads(pickle.dumps(LengthParams(**other)))
        _align_block(self.src, self.tgt, copy)
        memo = gale_church._LOG_MATCH_MEMO
        assert list(memo) == [(1.7, 3.3), (other["c"], other["s2"])]
        assert memo[other["c"], other["s2"]] is not memo[1.7, 3.3]
        assert memo[other["c"], other["s2"]][12][10] == _log_match(12, 10, other["c"], other["s2"])
        assert memo[1.7, 3.3][12][10] == _log_match(12, 10, 1.7, 3.3)


class TestEstimateParams:
    def test_hand_computed_ratio_and_variance(self):
        pairs = [(2, 4), (2, 8)]
        params = estimate_length_params(pairs)
        assert params.c == pytest.approx(3.0)
        # residuals: (4-6)^2/2 and (8-6)^2/2
        assert params.s2 == pytest.approx(2.0)

    def test_variance_floor(self):
        params = estimate_length_params([(2, 4), (3, 6)])
        assert params.c == pytest.approx(2.0)
        assert params.s2 == 1.0

    def test_zero_source_rejected(self):
        with pytest.raises(ValueError):
            estimate_length_params([(0, 3)])

    def test_round_trip_through_file(self, tmp_path):
        params = estimate_length_params([(2, 4), (2, 8)])
        path = tmp_path / "params.json"
        save_length_params(params, path)
        back = load_length_params(path)
        assert back == params
        assert path.read_text(encoding="utf-8") == f"c={params.c!r}\ns2={params.s2!r}\n"

    def test_malformed_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("s2=2.0\nc=abc\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"params\.txt line 2: .*'abc'"):
            load_length_params(path)

    @pytest.mark.parametrize(
        "text, message",
        [("c=nan\ns2=6.8", "c: must be finite and > 0"), ("c=1.0\ns2=0", "s2: must be finite and > 0")],
    )
    def test_rejected_value_names_file(self, tmp_path, text, message):
        path = tmp_path / "params.txt"
        path.write_text(f"{text}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"params\.txt: {message}"):
            load_length_params(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("c=1.2\n", ": missing key 's2'"),
            ("# s2 only\ns2=6.8\n", ": missing key 'c'"),
            ("", ": missing key 'c'"),
            ("c=1.2\ns2=6.8\nc=1.3\n", " line 3: repeated key 'c'"),
            ("s2=6.8\nc=1.2\n s2 = 6.8\n", " line 3: repeated key 's2'"),
        ],
    )
    def test_missing_or_repeated_key_names_file_and_key(self, tmp_path, text, message):
        path = tmp_path / "params.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_length_params(path)
        assert str(excinfo.value) == f"{path}{message}"


class TestLatticeSearch:
    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(113)
        params = LengthParams(c=1.0, s2=6.8)
        for _ in range(60):
            S, T = rng.randint(0, 5), rng.randint(0, 5)
            if S == 0 and T == 0:
                continue
            slen = [rng.randint(1, 40) for _ in range(S)]
            tlen = [rng.randint(1, 40) for _ in range(T)]
            aset = gc_align(sentences(slen), sentences(tlen), params)
            moves = tuple(b.bead_type for b in aset.beads)
            total = 0.0
            for b in reversed(aset.beads):
                total = -b.score + total
            cost, _ones, _beads, best_moves = exhaustive_best(slen, tlen, params)
            assert total == cost, (slen, tlen)
            assert moves == best_moves, (slen, tlen)

    @settings(max_examples=100, deadline=None)
    @given(slen=sentence_lengths(5), tlen=sentence_lengths(5), params=lattice_params, priors=prior_tables)
    # 1-0 then 0-1 ties 0-1 then 1-0 exactly; the smaller move sequence wins
    @example(slen=[1], tlen=[20], params=LengthParams(), priors=PRIORS)
    # four paths tie on cost; the two with a 1-1 bead win, then the move order
    @example(slen=[1, 1], tlen=[1, 1, 1], params=LengthParams(), priors=UNIFORM_PRIORS)
    @example(slen=[20, 20], tlen=[20, 20], params=LengthParams(), priors=HALVING_PRIORS)
    # the same five steps in two orders: from (0, 2) one suffix costs less
    # after rounding, and only the prefix makes the totals equal
    @example(slen=[3], tlen=[20, 20, 20, 40], params=LengthParams(c=1.3, s2=1.0), priors=PRIORS)
    @example(slen=[0, 2], tlen=[1, 1], params=LengthParams(), priors=SPLIT_PRIORS)
    def test_block_matches_exhaustive_enumeration(self, slen, tlen, params, priors):
        with priors_patched(priors):
            path = _align_block(slen, tlen, params)
            total, i, j = 0.0, 0, 0
            for (m, n), step in path:
                assert step == gc_cost((m, n), sum(slen[i : i + m]), sum(tlen[j : j + n]), params)
                i, j = i + m, j + n
            for _move, step in reversed(path):
                total = step + total
            cost, _ones, _beads, best_moves = exhaustive_best(slen, tlen, params)
        assert tuple(move for move, _ in path) == best_moves
        assert total == cost

    def test_patched_priors_reach_the_lattice(self):
        # the tie cases run under patched priors, so the patch must move the path
        assert [move for move, _ in _align_block([0, 2], [1, 1], LengthParams())] == [(1, 1), (1, 1)]
        with priors_patched(SPLIT_PRIORS):
            assert [move for move, _ in _align_block([0, 2], [1, 1], LengthParams())] == [(2, 2)]

    @settings(max_examples=200, deadline=None)
    @given(slen=sentence_lengths(25), tlen=sentence_lengths(25), params=lattice_params, priors=prior_tables)
    def test_block_equals_the_reference_search(self, slen, tlen, params, priors):
        with priors_patched(priors):
            assert _align_block(slen, tlen, params) == reference_align_block(slen, tlen, params)

    def test_balanced_documents_align_one_to_one(self):
        params = LengthParams(c=1.0, s2=6.8)
        src = sentences([20, 30, 25, 40])
        tgt = sentences([21, 29, 26, 39])
        aset = gc_align(src, tgt, params)
        assert [b.bead_type for b in aset.beads] == [(1, 1)] * 4

    def test_two_to_one_merge_found(self):
        params = LengthParams(c=1.0, s2=6.8)
        # one target sentence covering two short source sentences
        src = sentences([12, 14, 30])
        tgt = sentences([27, 29])
        aset = gc_align(src, tgt, params)
        assert [b.bead_type for b in aset.beads] == [(2, 1), (1, 1)]

    def test_output_partitions_both_sides(self):
        rng = random.Random(29)
        params = LengthParams(c=1.0, s2=6.8)
        for _ in range(50):
            S, T = rng.randint(1, 8), rng.randint(1, 8)
            src = sentences([rng.randint(1, 60) for _ in range(S)])
            tgt = sentences([rng.randint(1, 60) for _ in range(T)])
            aset = gc_align(src, tgt, params)
            assert validate_alignment(aset) == []
            assert sorted(i for b in aset.beads for i in b.src) == list(range(S))
            assert sorted(j for b in aset.beads for j in b.tgt) == list(range(T))

    def test_scores_are_negated_costs(self):
        params = LengthParams(c=1.0, s2=6.8)
        aset = gc_align(sentences([20, 20]), sentences([20, 20]), params)
        for b in aset.beads:
            src_chars = 20 * len(b.src)
            tgt_chars = 20 * len(b.tgt)
            assert -b.score == gc_cost(b.bead_type, src_chars, tgt_chars, params)

    def test_equal_paragraph_counts_confine_beads(self):
        params = LengthParams(c=1.0, s2=6.8)
        src = sentences([10, 50, 50, 10], paragraph_index=(0, 0, 1, 1))
        tgt = sentences([60, 60], paragraph_index=(0, 1))
        aset = gc_align(src, tgt, params)
        assert [b.bead_type for b in aset.beads] == [(2, 1), (2, 1)]
        assert aset.beads[0].src == (0, 1) and aset.beads[1].src == (2, 3)

    def test_unequal_paragraph_counts_merge_split_paragraphs_into_one_block(self):
        params = LengthParams(c=1.0, s2=6.8)
        src = sentences([20, 20, 20], paragraph_index=(0, 1, 2))
        tgt = sentences([20, 20, 20], paragraph_index=(0, 0, 1))
        aset = gc_align(src, tgt, params)
        assert [b.bead_type for b in aset.beads] == [(1, 1)] * 3
        assert paragraph_blocks(src, tgt, params) == [((0, 2), (0, 2)), ((2, 3), (2, 3))]

    def test_two_levels_keep_a_bead_the_whole_document_lattice_lets_cross_a_break(self):
        params = LengthParams(c=1.0, s2=6.8)
        src = sentences([40, 20], paragraph_index=(0, 1))
        tgt = sentences([40, 10, 10, 20], paragraph_index=(0, 1, 1, 2))
        # the whole-document lattice pairs source 1 with target 2, which ends
        # a paragraph, and target 3, which starts the next
        assert [b.key for b in whole_document_gc_align(src, tgt, params).beads] == [
            ((0,), (0, 1)), ((1,), (2, 3))
        ]
        assert paragraph_blocks(src, tgt, params) == [((0, 1), (0, 3)), ((1, 2), (3, 4))]
        assert [b.key for b in gc_align(src, tgt, params).beads] == [
            ((0,), (0, 1)), ((), (2,)), ((1,), (3,))
        ]

    def test_empty_side(self):
        params = LengthParams()
        aset = gc_align(sentences([5, 5]), sentences([]), params)
        assert [b.bead_type for b in aset.beads] == [(1, 0), (1, 0)]


def whole_document_gc_align(src, tgt, params):
    """gc_align before paragraphs were aligned: per paragraph pair when both
    sides have as many paragraphs, else one whole-document lattice."""
    src_blocks, tgt_blocks = src.paragraph_spans(), tgt.paragraph_spans()
    if len(src_blocks) != len(tgt_blocks) or not src_blocks:
        src_blocks, tgt_blocks = [(0, len(src))], [(0, len(tgt))]
    slen, tlen = [len(s) for s in src.sentences], [len(t) for t in tgt.sentences]
    beads = []
    for (s0, s1), (t0, t1) in zip(src_blocks, tgt_blocks):
        path = _align_block(slen[s0:s1], tlen[t0:t1], params)
        beads.extend(path_beads(path, s0, t0, "gc"))
    return AlignmentSet(tuple(beads), len(src), len(tgt))


def paragraphed(paragraphs, lang):
    """A SentenceList of ``x`` runs, one list of sentence lengths per paragraph."""
    lengths = [n for para in paragraphs for n in para]
    index = [k for k, para in enumerate(paragraphs) for _ in para]
    return sentences(lengths, lang=lang, paragraph_index=index)


def paragraph_lengths(min_size=0, max_size=4):
    """Paragraphs of one to three non-empty sentences, as sentence lengths."""
    sentence = st.sampled_from((1, 2, 10, 20, 40)) | st.integers(1, 60)
    return st.lists(st.lists(sentence, min_size=1, max_size=3), min_size=min_size, max_size=max_size)


# both sides with as many paragraphs, or one side with none
equal_paragraph_counts = st.integers(0, 4).flatmap(
    lambda k: st.tuples(paragraph_lengths(k, k), paragraph_lengths(k, k))
) | st.tuples(paragraph_lengths(), st.just([]))


class TestParagraphBlocks:
    """gc_align's first level: paragraphs matched in order, or by the
    lattice when the paragraph counts differ."""

    def test_paragraph_lattice_matches_exhaustive_enumeration(self):
        rng = random.Random(211)
        params = LengthParams(c=1.1, s2=6.8)
        for trial in range(80):
            counts = rng.sample(range(1, 5), 2)
            src_paras, tgt_paras = (
                [[rng.randint(1, 30) for _ in range(rng.randint(1, 3))] for _ in range(k)]
                for k in counts
            )
            src, tgt = paragraphed(src_paras, "zh"), paragraphed(tgt_paras, "en")
            # zh sentences run on, en sentences are joined by one space
            src_chars = [sum(p) for p in src_paras]
            tgt_chars = [sum(p) + len(p) - 1 for p in tgt_paras]
            *_, moves = exhaustive_best(src_chars, tgt_chars, params)
            blocks, i, j, s0, t0 = [], 0, 0, 0, 0
            for m, n in moves:
                s1 = s0 + sum(map(len, src_paras[i : i + m]))
                t1 = t0 + sum(map(len, tgt_paras[j : j + n]))
                blocks.append(((s0, s1), (t0, t1)))
                i, j, s0, t0 = i + m, j + n, s1, t1
            assert paragraph_blocks(src, tgt, params) == blocks, trial
            # then each block is the sentence lattice's best path through it
            want = []
            for (s0, s1), (t0, t1) in blocks:
                *_, moves = exhaustive_best(
                    [len(x) for x in src.sentences[s0:s1]], [len(x) for x in tgt.sentences[t0:t1]], params
                )
                for m, n in moves:
                    want.append((tuple(range(s0, s0 + m)), tuple(range(t0, t0 + n))))
                    s0, t0 = s0 + m, t0 + n
            assert [b.key for b in gc_align(src, tgt, params).beads] == want, trial

    @settings(max_examples=200, deadline=None)
    @given(src_paras=paragraph_lengths(), tgt_paras=paragraph_lengths(), params=lattice_params, priors=prior_tables)
    def test_blocks_partition_both_sides_and_confine_every_bead(self, src_paras, tgt_paras, params, priors):
        src, tgt = paragraphed(src_paras, "zh"), paragraphed(tgt_paras, "en")
        with priors_patched(priors):
            blocks = paragraph_blocks(src, tgt, params)
            aset = gc_align(src, tgt, params)
        assert [a for (a, _), _ in blocks] + [len(src)] == [0] + [b for (_, b), _ in blocks]
        assert [a for _, (a, _) in blocks] + [len(tgt)] == [0] + [b for _, (_, b) in blocks]
        assert validate_alignment(aset) == []
        assert sorted(i for b in aset.beads for i in b.src) == list(range(len(src)))
        assert sorted(j for b in aset.beads for j in b.tgt) == list(range(len(tgt)))
        for bead in aset.beads:
            assert any(
                all(s0 <= i < s1 for i in bead.src) and all(t0 <= j < t1 for j in bead.tgt)
                for (s0, s1), (t0, t1) in blocks
            ), (bead, blocks)

    @settings(max_examples=200, deadline=None)
    @given(paras=equal_paragraph_counts, params=lattice_params, priors=prior_tables)
    def test_equal_paragraph_counts_give_the_old_output(self, paras, params, priors):
        src, tgt = paragraphed(paras[0], "zh"), paragraphed(paras[1], "en")
        with priors_patched(priors):
            assert gc_align(src, tgt, params) == whole_document_gc_align(src, tgt, params)
            assert gc_align(tgt, src, params) == whole_document_gc_align(tgt, src, params)

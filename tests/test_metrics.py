import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import distribution
from geoineq import oracles
from geoineq.errors import AllZero, KeyMismatch, TooFewUnits, ValueOverflow, ZeroLowPercentile
from geoineq.metrics import (
    Distribution,
    IndexSuite,
    day_night_rank_table,
    gini,
    hoover,
    index_suite,
    lorenz_curve,
    min_units_for_share,
    percentile_ratio,
    relative_entropy,
    suite_ratio,
    theil,
    top_share,
)

D = distribution

positive_vectors = st.lists(st.integers(0, 10**6), min_size=2, max_size=64).filter(
    lambda xs: sum(xs) > 0
)


class TestGini:
    def test_complete_equality(self):
        assert gini(D([5, 5, 5, 5])) == 0.0

    def test_single_holder(self):
        assert gini(D([0, 0, 0, 1])) == 0.75

    def test_staircase(self):
        assert gini(D([1, 2, 3, 4])) == 0.25

    def test_all_zero(self):
        with pytest.raises(AllZero):
            gini(D([0, 0]))

    def test_too_few(self):
        with pytest.raises(TooFewUnits):
            gini(D([1]))

    @pytest.mark.parametrize("xs", [[1e308, 1e307], [1e307, 8.9e307], [1e308, 0, 5e-300, 1e300]])
    def test_values_near_largest_float(self, xs):
        # twice the rank-weighted sum passes the largest float; Gini is
        # scale-free, so the values scaled down give the same number
        scaled = [x * 2.0**-1000 for x in xs]
        assert gini(D(xs)) == pytest.approx(gini(D(scaled)), abs=1e-15)
        assert gini(D(scaled)) == pytest.approx(oracles.gini_pairwise(scaled), abs=1e-12)

    @given(positive_vectors)
    def test_matches_pairwise_bruteforce(self, xs):
        assert gini(D(xs)) == pytest.approx(oracles.gini_pairwise(xs), abs=1e-10)

    @given(positive_vectors)
    def test_matches_lorenz_trapezoid(self, xs):
        d = D(xs)
        assert gini(d) == pytest.approx(
            oracles.lorenz_trapezoid_gini(lorenz_curve(d).points), abs=1e-10
        )


class TestLorenz:
    def test_perfect_equality_is_diagonal(self):
        pts = lorenz_curve(D([1, 1, 1, 1])).points
        assert pts == tuple((k / 4, k / 4) for k in range(5))

    def test_single_holder_curve(self):
        pts = lorenz_curve(D([0, 0, 0, 1])).points
        assert pts == ((0.0, 0.0), (0.25, 0.0), (0.5, 0.0), (0.75, 0.0), (1.0, 1.0))

    def test_label_carried(self):
        assert lorenz_curve(Distribution(("a",), (1.0,), "visitors")).label == "visitors"

    @given(positive_vectors)
    def test_shape_invariants(self, xs):
        pts = lorenz_curve(D(xs)).points
        assert pts[0] == (0.0, 0.0)
        assert pts[-1] == (1.0, 1.0)
        ls = [v for _, v in pts]
        assert all(b - a >= 0 for a, b in zip(ls, ls[1:]))
        # convexity: second differences of L are nonnegative up to float noise
        seconds = [ls[i + 1] - 2 * ls[i] + ls[i - 1] for i in range(1, len(ls) - 1)]
        assert all(s >= -1e-12 for s in seconds)
        assert all(v <= p + 1e-12 for p, v in pts)  # at or below the diagonal


class TestPercentileRatio:
    def test_90_10(self):
        assert percentile_ratio(D(range(1, 11)), 90, 10) == 9.0

    def test_80_20(self):
        assert percentile_ratio(D(range(1, 11)), 80, 20) == 4.0

    def test_constant(self):
        assert percentile_ratio(D([3, 3, 3]), 90, 10) == 1.0

    def test_zero_low_percentile(self):
        with pytest.raises(ZeroLowPercentile):
            percentile_ratio(D([0, 0, 0, 0, 0, 0, 0, 0, 0, 1]), 90, 10)

    def test_bad_percentiles(self):
        with pytest.raises(ValueError):
            percentile_ratio(D([1, 2]), 10, 90)

    def test_ratio_past_largest_float_refused(self):
        # a subnormal low percentile next to a normal high one
        with pytest.raises(ValueOverflow, match="80/20 percentile ratio of distribution 'x'"):
            percentile_ratio(D([2, 5e-324], label="x"), 80, 20)
        assert percentile_ratio(D([1e-300, 5e-324]), 80, 20) == 1e-300 / 5e-324  # finite

    @given(positive_vectors.filter(lambda xs: sorted(xs)[max(0, math.ceil(len(xs) / 10) - 1)] > 0))
    def test_at_least_one(self, xs):
        assert percentile_ratio(D(xs), 90, 10) >= 1.0


class TestHoover:
    def test_equal(self):
        assert hoover(D([2, 2, 2])) == 0.0

    def test_single_holder(self):
        assert hoover(D([0, 0, 0, 1])) == 0.75

    def test_two_units(self):
        assert hoover(D([1, 3])) == 0.25


class TestTheil:
    def test_equal(self):
        assert theil(D([7, 7])) == 0.0

    def test_single_holder(self):
        assert theil(D([0, 0, 0, 1])) == pytest.approx(math.log(4), abs=1e-15)

    def test_two_units(self):
        assert theil(D([1, 3])) == pytest.approx(0.1308, abs=1e-4)

    # a positive value whose ratio to the mean underflows to 0 contributes
    # the x*ln(x) -> 0 limit, not a math domain error
    @given(st.lists(st.one_of(st.just(0), st.integers(0, 10**6), st.floats(0, 1e300)),
                    min_size=2, max_size=64).filter(lambda xs: sum(xs) > 0))
    @example([1e300, 5e-324])
    @example([5e-324] + [1e300] * 19)
    @example([5e-324, 5e-324, 5e-324, 0])  # a subnormal mean
    def test_matches_direct(self, xs):
        assert abs(theil(D(xs)) - oracles.theil_direct(xs)) <= 1e-12 * max(1.0, math.log(len(xs)))


class TestRelativeEntropy:
    def test_uniform_is_one(self):
        for k in (2, 3, 7, 24):
            assert relative_entropy([5] * k) == pytest.approx(1.0, abs=1e-12)

    def test_single_category_is_zero(self):
        assert relative_entropy([9]) == 0.0
        assert relative_entropy([0, 0, 4]) == 0.0

    def test_hand_value(self):
        assert relative_entropy([1, 1, 2]) == pytest.approx(0.9464, abs=1e-4)

    def test_all_zero(self):
        with pytest.raises(AllZero):
            relative_entropy([0, 0])

    def test_order_irrelevant(self):
        assert relative_entropy([3, 1, 2]) == relative_entropy([2, 3, 1])

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=40).filter(lambda xs: sum(xs) > 0))
    def test_range(self, xs):
        assert 0.0 <= relative_entropy(xs) <= 1.0

    # zeros are drawn often, so that all-zero and single-category vectors come up
    @given(st.lists(st.one_of(st.just(0), st.integers(0, 10**6), st.floats(0, 1e6)), max_size=64))
    @example([2, 5e-324])  # the second share underflows to 0
    def test_matches_direct(self, xs):
        try:
            want = oracles.relative_entropy_direct(xs)
        except ValueError:
            with pytest.raises(AllZero):
                relative_entropy(xs)
            return
        assert abs(relative_entropy(xs) - want) <= 1e-12


class TestShares:
    def test_top_share_tenth(self):
        assert top_share(D(range(1, 11)), 0.1) == pytest.approx(10 / 55, abs=1e-12)

    def test_top_share_equal(self):
        assert top_share(D([3] * 10), 0.1) == pytest.approx(0.1, abs=1e-12)

    def test_min_units_half(self):
        assert min_units_for_share(D(range(1, 11)), 0.5) == 4

    def test_min_units_full(self):
        assert min_units_for_share(D([2, 5, 1, 9]), 1.0) == 4

    @given(positive_vectors, st.floats(0.01, 1.0))
    def test_min_units_is_minimal(self, xs, share):
        k = min_units_for_share(D(xs), share)
        desc = sorted(xs, reverse=True)
        total = sum(xs)
        assert sum(desc[:k]) >= share * total * (1 - 1e-12)
        if k > 1:
            assert sum(desc[: k - 1]) < share * total


class TestInvariances:
    @given(positive_vectors, st.sampled_from([0.5, 3.0, 1e6]))
    def test_scale_invariance(self, xs, c):
        d1, d2 = D(xs), D([c * x for x in xs])
        assert abs(gini(d1) - gini(d2)) <= 1e-12
        assert abs(hoover(d1) - hoover(d2)) <= 1e-12
        assert abs(theil(d1) - theil(d2)) <= 1e-12
        try:
            r1 = percentile_ratio(d1, 90, 10)
            r2 = percentile_ratio(d2, 90, 10)
            assert abs(r1 - r2) <= 1e-12 * max(1.0, abs(r1))
        except ZeroLowPercentile:
            pass

    @given(positive_vectors, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, xs, rnd):
        ys = list(xs)
        rnd.shuffle(ys)
        assert gini(D(xs)) == gini(D(ys))
        assert hoover(D(xs)) == hoover(D(ys))
        assert theil(D(xs)) == theil(D(ys))

    @given(positive_vectors)
    def test_ranges(self, xs):
        d = D(xs)
        n = len(xs)
        assert 0.0 <= gini(d) < 1.0
        assert 0.0 <= hoover(d) < 1.0
        assert -1e-15 <= theil(d) <= math.log(n) + 1e-12

    @pytest.mark.parametrize("n", [2, 10, 287])
    def test_max_concentration_attains_bounds(self, n):
        d = D([0] * (n - 1) + [1])
        assert gini(d) == pytest.approx((n - 1) / n, abs=1e-12)
        assert hoover(d) == pytest.approx((n - 1) / n, abs=1e-12)
        assert theil(d) == pytest.approx(math.log(n), abs=1e-12)


class TestSuite:
    def test_suite_fields(self):
        s = index_suite(D(range(1, 11)))
        assert s.gini == gini(D(range(1, 11)))
        assert s.ratio_90_10 == 9.0
        assert s.ratio_80_20 == 4.0

    def test_suite_none_on_zero_percentile(self):
        s = index_suite(D([0] * 9 + [1]))
        assert s.ratio_90_10 is None and s.ratio_80_20 is None
        assert s.gini is not None

    def test_suite_ratio_componentwise(self):
        a = IndexSuite(0.669, 7.9, 25.0, 0.52, 0.93)
        b = IndexSuite(0.494, 6.0, 13.9, 0.37, 0.41)
        r = suite_ratio(a, b)
        assert r.gini == pytest.approx(1.354, abs=1e-3)
        assert r.ratio_90_10 == pytest.approx(1.798, abs=1e-3)
        assert r.hoover == pytest.approx(1.405, abs=1e-3)
        # the ratio is plain division of the stored components
        assert r.theil == pytest.approx(0.93 / 0.41, abs=1e-12)
        assert r.theil == pytest.approx(2.268, abs=1e-3)

    def test_suite_ratio_none_propagates(self):
        a = IndexSuite(0.5, None, 2.0, 0.3, 0.2)
        b = IndexSuite(0.25, 1.5, 2.0, 0.3, 0.2)
        r = suite_ratio(a, b)
        assert r.ratio_80_20 is None
        assert r.gini == 2.0


class TestRankTable:
    def test_rank_and_ties(self):
        rows = day_night_rank_table(
            {"A": 10, "B": 5, "C": 5}, {"A": 1, "B": 9, "C": 2}, {}
        )
        by_id = {r.tract_id: r for r in rows}
        assert [by_id[t].day_rank for t in "ABC"] == [1, 2, 3]
        assert [by_id[t].night_rank for t in "ABC"] == [3, 1, 2]
        assert all(r.income_flag == "unknown" for r in rows)

    def test_all_equal_pure_tiebreak(self):
        rows = day_night_rank_table({"B": 1, "A": 1}, {"A": 1, "B": 1}, {})
        assert [(r.tract_id, r.day_rank) for r in rows] == [("A", 1), ("B", 2)]

    def test_income_flags_strict_median(self):
        rows = day_night_rank_table(
            {"A": 3, "B": 2, "C": 1},
            {"A": 3, "B": 2, "C": 1},
            {"A": 100.0, "B": 50.0, "C": 10.0},
        )
        by_id = {r.tract_id: r for r in rows}
        assert by_id["A"].income_flag == "above"
        assert by_id["B"].income_flag == "below"  # exactly the median
        assert by_id["C"].income_flag == "below"

    def test_missing_income_unknown(self):
        rows = day_night_rank_table({"A": 1, "B": 2}, {"A": 1, "B": 2}, {"A": 5.0})
        by_id = {r.tract_id: r for r in rows}
        assert by_id["B"].income_flag == "unknown"

    def test_key_mismatch(self):
        with pytest.raises(KeyMismatch):
            day_night_rank_table({"A": 1}, {"B": 1}, {})

    @given(st.dictionaries(st.sampled_from("ABCDEFGH"), st.integers(0, 50), min_size=1))
    def test_ranks_are_permutations(self, counts):
        rows = day_night_rank_table(counts, counts, {})
        n = len(counts)
        assert sorted(r.day_rank for r in rows) == list(range(1, n + 1))
        assert sorted(r.night_rank for r in rows) == list(range(1, n + 1))

    def test_input_map_iteration_order_irrelevant(self):
        day = {"A": 3, "B": 7, "C": 3}
        night = {"C": 1, "B": 2, "A": 9}
        incomes = {"B": 10.0, "A": 20.0}
        forward = day_night_rank_table(day, night, incomes)
        reversed_maps = day_night_rank_table(
            dict(reversed(day.items())), dict(reversed(night.items())),
            dict(reversed(incomes.items())),
        )
        assert forward == reversed_maps


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            D([1, -1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            D([1, float("nan")])

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_rejects_infinity(self, bad):
        with pytest.raises(ValueError, match="negative or non-finite value"):
            D([1, bad])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Distribution((), ())

    def test_from_mapping_sorted(self):
        d = Distribution.from_mapping({"b": 2, "a": 1})
        assert d.unit_ids == ("a", "b")
        assert d.values == (1.0, 2.0)

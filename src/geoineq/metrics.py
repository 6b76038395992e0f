"""Inequality and diversity indexes over per-unit value distributions.

All indexes treat units (tracts, time bins, ...) with equal weight and
accept zero values; zero-count units are meaningful and must stay in.
Reductions run over sorted inputs with exactly-rounded summation
(``math.fsum``), so results are bit-stable across unit orderings,
stream partitionings, and platforms down to the 1e-12 level.

Conventions, fixed here because off-by-ones change published-style
numbers:

* Gini is the population estimator G = sum_ij |x_i - x_j| / (2 n^2 mu),
  identically 1 - 2 * (area under the piecewise-linear Lorenz curve).
* Percentiles are nearest-rank on the ascending sort: the p-th
  percentile is element ceil(p/100 * n), 1-based. No interpolation.
* Theil zero-value terms contribute 0 (the x*ln(x) -> 0 limit).
* Relative entropy normalizes Shannon entropy by ln(#nonzero
  categories) and is 0 for a single category.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AllZero, KeyMismatch, TooFewUnits, ValueOverflow, ZeroLowPercentile


@dataclass(frozen=True)
class Distribution:
    """Nonnegative finite values over named units."""

    unit_ids: tuple[str, ...]
    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.unit_ids) != len(self.values):
            raise ValueError("unit_ids and values must have equal length")
        if not self.values:
            raise ValueError("distribution must have at least one unit")
        for unit, v in zip(self.unit_ids, self.values):
            if not (0.0 <= v < math.inf):  # also rejects NaN
                raise ValueError(
                    f"{self.label!r}, unit {unit!r}: negative or non-finite value {v!r}"
                )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float], label: str = "") -> "Distribution":
        ids = tuple(sorted(mapping))
        return cls(ids, tuple(float(mapping[k]) for k in ids), label)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LorenzCurve:
    """Cumulative share points ((0,0) ... (1,1)), ascending and convex."""

    points: tuple[tuple[float, float], ...]
    label: str = ""


@dataclass(frozen=True)
class IndexSuite:
    """The five-index bundle; a ratio is None when its denominator
    percentile is zero."""

    gini: float
    ratio_80_20: float | None
    ratio_90_10: float | None
    hoover: float
    theil: float


@dataclass(frozen=True)
class RankRow:
    tract_id: str
    day_rank: int  # 1 = most images
    night_rank: int
    income_flag: str  # "above" | "below" | "unknown"


def _sorted_positive_total(d: Distribution) -> tuple[list[float], float]:
    xs = sorted(d.values)
    try:
        total = math.fsum(xs)
    except OverflowError:
        raise ValueOverflow(f"distribution {d.label!r} sums past the largest float") from None
    if total <= 0.0:
        raise AllZero(f"distribution {d.label!r} sums to zero")
    return xs, total


def gini(d: Distribution) -> float:
    """Population Gini coefficient in [0, 1).

    Computed from the ascending sort as
    (2 * sum_i i*x_(i) - (n+1) * sum_i x_i) / (n * sum_i x_i),
    which equals the mean-absolute-difference form with the n^2
    denominator and the Lorenz trapezoid identity exactly.
    """
    if len(d) < 2:
        raise TooFewUnits("gini needs at least 2 units")
    xs, total = _sorted_positive_total(d)
    n = len(xs)
    if total > sys.float_info.max / (2 * (n + 1)):
        # twice the rank-weighted sum may pass the largest float; G is
        # scale-free, so bring the total below 1 by a power of two, which
        # is exact for every value that stays normal
        xs = [math.ldexp(x, -math.frexp(total)[1]) for x in xs]
        total = math.fsum(xs)
    weighted = math.fsum((i + 1) * x for i, x in enumerate(xs))
    return (2.0 * weighted - (n + 1) * total) / (n * total)


def lorenz_curve(d: Distribution) -> LorenzCurve:
    """Cumulative value share of the bottom k/n units, k = 0..n."""
    xs, total = _sorted_positive_total(d)
    n = len(xs)
    cum = np.cumsum(np.asarray(xs, dtype=np.float64))
    pts = [(0.0, 0.0)]
    for k in range(1, n + 1):
        pts.append((k / n, float(cum[k - 1]) / total))
    return LorenzCurve(tuple(pts), d.label)


def percentile_ratio(d: Distribution, hi: float, lo: float) -> float:
    """v(hi-th percentile) / v(lo-th percentile), nearest-rank.

    Raises ZeroLowPercentile when the denominator value is zero (the
    ratio is undefined and reported as null upstream), and ValueOverflow
    when the ratio exceeds the largest float.
    """
    if not (0.0 < lo < hi < 100.0):
        raise ValueError("need 0 < lo < hi < 100")
    xs, _ = _sorted_positive_total(d)
    n = len(xs)
    hi_idx = max(1, math.ceil(hi * n / 100.0))
    lo_idx = max(1, math.ceil(lo * n / 100.0))
    v_lo = xs[lo_idx - 1]
    if v_lo == 0.0:
        raise ZeroLowPercentile(f"{lo}th percentile of {d.label!r} is zero")
    ratio = xs[hi_idx - 1] / v_lo
    if ratio == math.inf:
        raise ValueOverflow(
            f"{hi:g}/{lo:g} percentile ratio of distribution {d.label!r} exceeds the largest "
            f"float: {xs[hi_idx - 1]!r} / {v_lo!r}"
        )
    return ratio


def hoover(d: Distribution) -> float:
    """Fraction of the total that must move between units to equalize:
    H = 1/2 * sum_i |x_i / total - 1/n|."""
    if len(d) < 2:
        raise TooFewUnits("hoover needs at least 2 units")
    xs, total = _sorted_positive_total(d)
    n = len(xs)
    return 0.5 * math.fsum(abs(x / total - 1.0 / n) for x in xs)


def theil(d: Distribution) -> float:
    """Theil index T = (1/n) * sum_i (x_i/mu) * ln(x_i/mu), in [0, ln n].

    Zero values contribute 0 (the x*ln(x) -> 0 limit), so distributions
    with empty units are fine; so does a positive value whose ratio to
    the mean underflows to 0.
    """
    if len(d) < 2:
        raise TooFewUnits("theil needs at least 2 units")
    xs, total = _sorted_positive_total(d)
    n = len(xs)
    mu = total / n
    if mu < sys.float_info.min:
        # a subnormal mean keeps too few bits (or none); T is scale-free,
        # and scaling by a power of two is exact
        xs = [x * 2.0**1000 for x in xs]
        mu = math.fsum(xs) / n
    return math.fsum(_x_log_x(x / mu) for x in xs) / n


def _x_log_x(r: float) -> float:
    """r·ln(r), with its limit 0 at r = 0 (a ratio that underflowed)."""
    return r * math.log(r) if r > 0.0 else 0.0


def relative_entropy(category_counts: Sequence[float]) -> float:
    """Shannon entropy over nonzero categories, normalized to [0, 1].

    0 means fully concentrated (a single nonzero category, by
    convention), 1 means uniform over the nonzero categories.
    """
    positive = sorted(v for v in map(float, category_counts) if v > 0.0)
    if not positive:
        raise AllZero("no category has a positive count")
    k = len(positive)
    if k == 1:
        return 0.0
    total = math.fsum(positive)
    h = -math.fsum(_x_log_x(v / total) for v in positive)
    return min(1.0, max(0.0, h / math.log(k)))


def top_share(d: Distribution, fraction: float) -> float:
    """Share of the total held by the top round(fraction * n) units
    (at least one)."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")
    xs, total = _sorted_positive_total(d)
    n = len(xs)
    k = max(1, int(math.floor(fraction * n + 0.5)))
    return math.fsum(xs[n - k :]) / total


def min_units_for_share(d: Distribution, share: float) -> int:
    """Smallest k such that the k largest values sum to >= share * total."""
    if not (0.0 < share <= 1.0):
        raise ValueError("share must be in (0, 1]")
    xs, _ = _sorted_positive_total(d)
    desc = np.asarray(xs[::-1], dtype=np.float64)
    cum = np.cumsum(desc)
    target = share * float(cum[-1])
    return int(np.searchsorted(cum, target, side="left")) + 1


def index_suite(d: Distribution) -> IndexSuite:
    """All five indexes; percentile ratios fall back to None when their
    low percentile is zero."""
    g = gini(d)
    h = hoover(d)
    t = theil(d)
    try:
        r8020 = percentile_ratio(d, 80.0, 20.0)
    except ZeroLowPercentile:
        r8020 = None
    try:
        r9010 = percentile_ratio(d, 90.0, 10.0)
    except ZeroLowPercentile:
        r9010 = None
    return IndexSuite(gini=g, ratio_80_20=r8020, ratio_90_10=r9010, hoover=h, theil=t)


def suite_ratio(a: IndexSuite, b: IndexSuite) -> IndexSuite:
    """Componentwise a/b (e.g. visitor suite over local suite)."""

    def div(x: float | None, y: float | None) -> float | None:
        if x is None or y is None or y == 0.0:
            return None
        return x / y

    return IndexSuite(
        gini=div(a.gini, b.gini),
        ratio_80_20=div(a.ratio_80_20, b.ratio_80_20),
        ratio_90_10=div(a.ratio_90_10, b.ratio_90_10),
        hoover=div(a.hoover, b.hoover),
        theil=div(a.theil, b.theil),
    )


def _rank_map(counts: Mapping[str, float]) -> dict[str, int]:
    ordered = sorted(counts, key=lambda tid: (-counts[tid], tid))
    return {tid: i + 1 for i, tid in enumerate(ordered)}


def day_night_rank_table(
    day_counts: Mapping[str, float],
    night_counts: Mapping[str, float],
    incomes: Mapping[str, float],
) -> list[RankRow]:
    """Rank tracts by day and by night volume (1 = most), flag income.

    Ties break on ascending tract_id. The income flag compares each
    tract's median income against the median over all tracts that have
    one, strictly: exactly-at-median is "below", missing is "unknown".
    Rows come back in ascending tract_id order.
    """
    if set(day_counts) != set(night_counts):
        raise KeyMismatch("day and night count maps cover different tracts")
    day_rank = _rank_map(day_counts)
    night_rank = _rank_map(night_counts)
    known = [incomes[tid] for tid in sorted(day_counts) if incomes.get(tid) is not None]
    median = _median(known) if known else None
    rows = []
    for tid in sorted(day_counts):
        inc = incomes.get(tid)
        if inc is None or median is None:
            flag = "unknown"
        else:
            flag = "above" if inc > median else "below"
        rows.append(RankRow(tid, day_rank[tid], night_rank[tid], flag))
    return rows


def _median(values: Sequence[float]) -> float:
    xs = sorted(values)
    n = len(xs)
    mid = n // 2
    if n % 2 == 1:
        return xs[mid]
    return (xs[mid - 1] + xs[mid]) / 2.0

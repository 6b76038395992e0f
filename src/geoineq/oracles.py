"""Independent reference implementations used as test oracles.

These deliberately do not share code with the production paths: Gini is
the O(n^2) pairwise sum, containment is a textbook ray cast over every
polygon with no index, and so on. Synthetic-city ground truth is
computed with these, so the pipeline is always checked against a second
route.
"""

from __future__ import annotations

import math
from datetime import datetime
from typing import Iterable, Sequence
from zoneinfo import ZoneInfo

from .errors import BadTimestamp, MalformedRecord, OutOfRangeCoordinate
from .geo import Tract
from .ingest import EVENT_COLUMNS, _timestamp_to_epoch, extract_hashtags


def gini_pairwise(values: Sequence[float]) -> float:
    """Brute-force population Gini: sum_ij |x_i - x_j| / (2 n^2 mu)."""
    n = len(values)
    total = math.fsum(values)
    if n < 2 or total <= 0:
        raise ValueError("need n >= 2 and a positive total")
    diff_sum = math.fsum(
        abs(values[i] - values[j]) for i in range(n) for j in range(n)
    )
    mu = total / n
    return diff_sum / (2.0 * n * n * mu)


def lorenz_trapezoid_gini(points: Sequence[tuple[float, float]]) -> float:
    """1 - 2 * (trapezoid area under a piecewise-linear Lorenz curve)."""
    area = math.fsum(
        (points[i + 1][0] - points[i][0]) * (points[i + 1][1] + points[i][1]) * 0.5
        for i in range(len(points) - 1)
    )
    return 1.0 - 2.0 * area


def hoover_direct(values: Sequence[float]) -> float:
    total = math.fsum(values)
    if total <= 0:
        raise ValueError("positive total required")
    n = len(values)
    return 0.5 * math.fsum(abs(v / total - 1.0 / n) for v in sorted(values))


def theil_direct(values: Sequence[float]) -> float:
    total = math.fsum(values)
    n = len(values)
    if n < 2 or total <= 0:
        raise ValueError("need n >= 2 and a positive total")
    mu = total / n
    return math.fsum((v / mu) * math.log(v / mu) for v in sorted(values) if v > 0) / n


def percentile_nearest_rank(values: Sequence[float], p: float) -> float:
    """Value at the p-th percentile: 1-based element ceil(p/100 * n) of
    the ascending sort."""
    xs = sorted(values)
    idx = max(1, math.ceil(p * len(xs) / 100.0))
    return xs[idx - 1]


def percentile_ratio_direct(values: Sequence[float], hi: float, lo: float) -> float | None:
    v_lo = percentile_nearest_rank(values, lo)
    if v_lo == 0:
        return None
    return percentile_nearest_rank(values, hi) / v_lo


def relative_entropy_direct(counts: Iterable[float]) -> float:
    positive = sorted(c for c in counts if c > 0)
    if not positive:
        raise ValueError("no positive counts")
    if len(positive) == 1:
        return 0.0
    total = math.fsum(positive)
    h = -math.fsum((c / total) * math.log(c / total) for c in positive)
    return min(1.0, max(0.0, h / math.log(len(positive))))


def index_suite_direct(values: Sequence[float]) -> dict[str, float | None]:
    """All five reference indexes as a plain dict (JSON-friendly)."""
    return {
        "gini": gini_pairwise(values),
        "ratio_80_20": percentile_ratio_direct(values, 80.0, 20.0),
        "ratio_90_10": percentile_ratio_direct(values, 90.0, 10.0),
        "hoover": hoover_direct(values),
        "theil": theil_direct(values),
    }


def _ray_cast(lon: float, lat: float, ring) -> bool:
    inside = False
    j = len(ring) - 2  # last distinct vertex (ring is closed)
    for i in range(len(ring) - 1):
        xi, yi = ring[i]
        xj, yj = ring[j]
        if (yi > lat) != (yj > lat) and lon < (xj - xi) * (lat - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


def assign_tract_naive(lat: float, lon: float, tracts: Iterable[Tract]) -> str | None:
    """O(n) reference assignment: ray-cast against every ring of every
    tract in ascending tract_id order; first containing tract wins."""
    for tract in sorted(tracts, key=lambda t: t.tract_id):
        inside = False
        for ring in tract.rings:
            if _ray_cast(lon, lat, ring):
                inside = not inside
        if inside:
            return tract.tract_id
    return None


def assign_batch_naive(lats, lons, tracts: Iterable[Tract]):
    """All-polygons scan over every point: no grid, no bbox pruning, no
    candidate sets. Every tract is tested against every still-unassigned
    point in ascending tract_id order. Returns tract_id or None per point.

    numpy is used only to batch the identical even-odd test across
    points; nothing is ever skipped, which is the property the spatial
    index is checked against.
    """
    import numpy as np

    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    out: list[str | None] = [None] * len(lats)
    unassigned = np.ones(len(lats), dtype=bool)
    for tract in sorted(tracts, key=lambda t: t.tract_id):
        idx = np.nonzero(unassigned)[0]
        if idx.size == 0:
            break
        x = lons[idx]
        y = lats[idx]
        inside = np.zeros(idx.size, dtype=bool)
        for ring in tract.rings:
            for i in range(len(ring) - 1):
                x1, y1 = ring[i]
                x2, y2 = ring[i + 1]
                if y1 == y2:
                    continue
                straddle = (y1 > y) != (y2 > y)
                xint = (x2 - x1) * (y - y1) / (y2 - y1) + x1
                inside ^= straddle & (x < xint)
        hit = idx[inside]
        for i in hit:
            out[i] = tract.tract_id
        unassigned[hit] = False
    return out


def validate_event_fields(fields: list[str]):
    """Per-record reference for event parsing: validate one raw record;
    returns (user_id, lat, lon, epoch, text) or raises the matching
    ingest error.

    The columnar parser must accept, reject and tally every record
    exactly as this does when applied record by record. Only the scalar
    timestamp grammar is shared with ingest: it is the rule that the
    vector timestamp decoder is checked against.
    """
    if len(fields) != len(EVENT_COLUMNS):
        raise MalformedRecord(f"expected {len(EVENT_COLUMNS)} fields, got {len(fields)}")
    uid, lat_s, lon_s, ts_s, text = fields
    if not uid:
        raise MalformedRecord("empty user_id")
    try:
        lat = float(lat_s)
        lon = float(lon_s)
    except ValueError:
        raise MalformedRecord(f"non-numeric coordinate {lat_s!r},{lon_s!r}") from None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise OutOfRangeCoordinate(f"({lat_s}, {lon_s})")
    try:
        epoch = _timestamp_to_epoch(ts_s, {})
    except ValueError:
        raise BadTimestamp(ts_s) from None
    return uid, lat, lon, epoch, text


def _local_month(epoch: float, zone: ZoneInfo) -> tuple[int, int]:
    t = datetime.fromtimestamp(epoch, zone)
    return t.year, t.month


def classify_users_direct(posts: Iterable[tuple[str, float]], tz: str, window_days: int):
    """Per-event reference for cohorts over (user_id, epoch) posts.

    Returns ({user_id: (kind, super_local)}, dataset months): a user is
    "local" when their posts number two or more and their first and last
    lie more than window_days * 86400 seconds apart, otherwise
    "visitor"; the dataset months are every (year, month) in ``tz`` from
    the earliest post's to the latest post's, and a super-local is a
    local who posted in each of them.
    """
    zone = ZoneInfo(tz)
    by_user: dict[str, list[float]] = {}
    for uid, epoch in posts:
        by_user.setdefault(uid, []).append(epoch)
    if not by_user:
        return {}, []
    months = {uid: {_local_month(e, zone) for e in epochs} for uid, epochs in by_user.items()}
    seen = set().union(*months.values())
    (y, m), last = min(seen), max(seen)
    dataset = []
    while (y, m) <= last:
        dataset.append((y, m))
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    labels = {}
    for uid, epochs in by_user.items():
        if len(epochs) > 1 and max(epochs) - min(epochs) > window_days * 86400:
            labels[uid] = ("local", all(dm in months[uid] for dm in dataset))
        else:
            labels[uid] = ("visitor", False)
    return labels, dataset


def aggregate_by_tract(rows: Iterable, tz: str) -> dict[str, dict[str, dict]]:
    """Per-event reference for ``aggregate.aggregate_batch`` over
    (epoch, text, tract_id, cohort) rows, where a cohort has ``kind``
    and ``super_local``.

    Returns {tract_id: {bucket: stats}}, where the buckets are "all",
    the cohort's kind, and "super_local" for super-locals, and stats
    holds the fields of ``aggregate.CohortTractStats``: local hour,
    Sunday-first weekday and (year, month) histograms, day (07:00:00
    through 18:59:59 local) and night counts, hashtag occurrences and
    the set of distinct hashtags.
    """
    zone = ZoneInfo(tz)
    out: dict[str, dict[str, dict]] = {}
    for epoch, text, tract_id, cohort in rows:
        loc = datetime.fromtimestamp(epoch, zone)
        is_day = 7 <= loc.hour < 19
        tags = extract_hashtags(text)
        buckets = ["all", cohort.kind] + (["super_local"] if cohort.super_local else [])
        for key in buckets:
            st = out.setdefault(tract_id, {}).setdefault(key, {
                "event_count": 0, "tag_count": 0, "unique_tags": set(),
                "hour_histogram": [0] * 24, "dow_histogram": [0] * 7,
                "month_histogram": {}, "day_count": 0, "night_count": 0,
            })
            st["event_count"] += 1
            st["tag_count"] += len(tags)
            st["unique_tags"].update(tags)
            st["hour_histogram"][loc.hour] += 1
            st["dow_histogram"][loc.isoweekday() % 7] += 1
            month = (loc.year, loc.month)
            st["month_histogram"][month] = st["month_histogram"].get(month, 0) + 1
            st["day_count" if is_day else "night_count"] += 1
    return out

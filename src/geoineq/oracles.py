"""Independent reference implementations used as test oracles.

These deliberately do not share code with the production paths: Gini is
the O(n^2) pairwise sum, containment is a textbook ray cast over every
polygon with no index, a timestamp is read field by field into a
``datetime`` where ingest decodes whole columns of bytes, a hashtag is
read character by character where ingest runs one regex over a block,
and so on. Of ingest they take only the event column names.
Synthetic-city ground truth is computed with these, so the pipeline is
always checked against a second route. The synthetic city's own
generator has a reference here too: the per-draw event loop that
``synth`` reproduces in bulk.
"""

from __future__ import annotations

import calendar
import csv
import io
import math
import re
import sys
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction
from typing import Iterable, Sequence
from zoneinfo import ZoneInfo

from .errors import BadTimestamp, MalformedRecord, OutOfRangeCoordinate
from .geo import Tract
from .ingest import EVENT_COLUMNS


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
    if mu >= sys.float_info.min:
        ratios = [v / mu for v in sorted(values)]
    else:  # a subnormal mean has too few bits: each ratio exactly, then rounded
        ratios = [float(Fraction(v) * n / Fraction(total)) for v in sorted(values)]
    # a ratio that underflows to 0 takes the limit of r·ln(r), which is 0
    return math.fsum(r * math.log(r) for r in ratios if r > 0) / n


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
    shares = [c / total for c in positive]
    h = -math.fsum(p * math.log(p) for p in shares if p > 0)  # 0·ln 0 = 0
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


def _positions(ring) -> list:
    """A ring's positions as Python floats: a parsed ring is a float64
    array, read through one ``tolist``; a sequence is used as it is."""
    return ring.tolist() if hasattr(ring, "tolist") else ring


def _ray_cast(lon: float, lat: float, ring) -> bool:
    ring = _positions(ring)
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
        for ring in map(_positions, tract.rings):
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


# RFC 3339's date-time with a space allowed for the T, any number of
# fraction digits and a +HHMM offset too
_STAMP_FIELDS = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})(?:[.,](\d+))?"
    r"(?:Z|([+-])(\d{2}):?(\d{2}))\Z",
    re.ASCII,
)
_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# the instants a stamp may name: a day inside the UTC years 1-9999
_FIRST_INSTANT = datetime(1, 1, 2, tzinfo=timezone.utc) - _UNIX_EPOCH
_END_INSTANT = datetime(9999, 12, 31, tzinfo=timezone.utc) - _UNIX_EPOCH


def timestamp_epoch_direct(s: str) -> float:
    """Epoch seconds of a timestamp of the grammar ingest reads; raises
    ValueError on any problem.

    The regex splits the stamp into its fields, a ``datetime`` is built
    from them one by one, and the fraction's first six digits (the
    microseconds ``datetime`` keeps; any more must be digits and are
    dropped) are added to its whole seconds as a ``Fraction``, so the
    float is rounded once. Minutes of an offset must be below 60, and
    ``timezone`` refuses 24 hours or more. The instant must be from
    0001-01-02T00:00:00Z up to, not including, 9999-12-31T00:00:00Z.
    """
    m = _STAMP_FIELDS.match(s)
    if m is None:
        raise ValueError(f"not a timestamp of the grammar: {s!r}")
    y, mo, d, h, mi, sec = (int(g) for g in m.groups()[:6])
    frac, sign, off_h, off_m = m.groups()[6:]
    offset = timedelta()
    if sign:  # not Z
        if int(off_m) > 59:
            raise ValueError(f"offset minutes out of range: {s}")
        offset = timedelta(hours=int(off_h), minutes=int(off_m)) * (-1 if sign == "-" else 1)
    whole = datetime(y, mo, d, h, mi, sec, tzinfo=timezone(offset)) - _UNIX_EPOCH
    if not _FIRST_INSTANT <= whole < _END_INSTANT:  # no fraction crosses a bound
        raise ValueError(f"instant out of range: {s}")
    micro = Fraction(int(frac[:6]), 10 ** len(frac[:6])) if frac else 0
    return float(whole // timedelta(seconds=1) + micro)


def validate_event_fields(fields: list[str]):
    """Per-record reference for event parsing: validate one raw record;
    returns (user_id, lat, lon, epoch, text) or raises the matching
    ingest error.

    The columnar parser must accept, reject and tally every record
    exactly as this does when applied record by record.
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
        epoch = timestamp_epoch_direct(ts_s)
    except ValueError:
        raise BadTimestamp(ts_s) from None
    return uid, lat, lon, epoch, text


def hashtags_direct(text: str) -> list[str]:
    """A text's hashtags in order, casefolded, duplicates kept: each
    ``#`` followed by a maximal non-empty run of letters, digits and
    underscores (Unicode), read one character at a time."""
    tags = []
    i = 0
    while i < len(text):
        j = i + 1
        if text[i] == "#":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j > i + 1:
                tags.append(text[i + 1 : j].casefold())
        i = j
    return tags


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
    (epoch, text, tract_id, (kind, super_local)) rows, the cohort shape
    that :func:`classify_users_direct` returns.

    Returns {tract_id: {bucket: stats}}, where the buckets are "all",
    the cohort's kind, and "super_local" for super-locals, and stats
    holds the event count, the local hour, Sunday-first weekday and
    (year, month) histograms, day (07:00:00 through 18:59:59 local) and
    night counts, hashtag occurrences and the set of distinct hashtags.
    """
    zone = ZoneInfo(tz)
    out: dict[str, dict[str, dict]] = {}
    for epoch, text, tract_id, (kind, super_local) in rows:
        loc = datetime.fromtimestamp(epoch, zone)
        is_day = 7 <= loc.hour < 19
        tags = hashtags_direct(text)
        buckets = ["all", kind] + (["super_local"] if super_local else [])
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


def choropleth_direct(geojson: dict, values: dict[str, float], breaks: int) -> dict:
    """Reference for ``report.choropleth_parts``: the classed
    FeatureCollection built from a GeoJSON dict as read from the file,
    every geometry passed through as it is.

    A feature's class is the number of nearest-rank quantile cuts below
    its value, the j-th cut being the ceil(j * n / breaks)-th smallest
    of the n values (at least the first); a feature without a value
    gets ``None`` and "no-data".
    """
    ranked = sorted(values.values())
    n = len(ranked)
    cuts = [ranked[max(1, math.ceil(j * n / breaks)) - 1] for j in range(1, breaks)] if n else []
    features = []
    for feat in geojson.get("features", []):
        props = dict(feat.get("properties") or {})
        tid = str(props.get("tract_id"))
        if tid in values:
            props["value"] = values[tid]
            props["class"] = sum(1 for c in cuts if c < values[tid])
        else:
            props["value"] = None
            props["class"] = "no-data"
        features.append({"type": "Feature", "properties": props, "geometry": feat.get("geometry")})
    return {"type": "FeatureCollection", "features": features}


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random generator, one draw at a time.

    State update and output mix (all arithmetic mod 2^64):

        state += 0x9E3779B97F4A7C15
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    Floats are the top 53 bits scaled by 2^-53; bounded integers use
    rejection sampling, so they are exactly uniform.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


# the synthetic city's tract grid (degrees) and posting hours (local
# seconds of day); ``synth`` holds the same constants
_GRID_LON0 = -74.30
_GRID_LAT0 = 40.50
_CELL = 0.02
_MARGIN = 1e-6
_DAY_LO, _DAY_SPAN = 8 * 3600, 10 * 3600
_NIGHT_LO, _NIGHT_SPAN = 20 * 3600, 4 * 3600


def _draw_tract(rng: SplitMix64, cum: list[float]) -> int:
    u = rng.random() * cum[-1]
    lo, hi = 0, len(cum) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cum[mid] > u:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _make_text(rng: SplitMix64) -> str:
    r = rng.random()
    if r < 0.45:
        n_tags = 0
    elif r < 0.87:
        n_tags = 1 + rng.below(5)
    elif r < 0.97:
        n_tags = 6 + rng.below(5)
    else:
        n_tags = 11 + rng.below(3)
    parts = []
    if rng.below(11) == 0:
        parts.append("nice view, downtown")
    for _ in range(n_tags):
        tag = f"tag{rng.below(40):02d}"
        if rng.below(7) == 0:
            tag = tag.capitalize()
        parts.append("#" + tag)
    return " ".join(parts)


def synth_events_direct(params) -> tuple[str, dict[str, list[int]]]:
    """Per-draw reference for the synthetic city's event stream.

    ``params`` is a ``synth.SynthParams``. Returns the events CSV text
    and the realized per-tract event counts by cohort ("visitor",
    "local"), drawing each value from one :class:`SplitMix64` in the
    order that defines the stream: locals' mandatory posts, visitors'
    mandatory posts, then the remaining posts of randomly picked users.
    Each post draws its day, its second (day or night, then the second)
    and then, in ``emit``, its tract, longitude, latitude and text.
    """
    rng = SplitMix64(params.seed)
    tz = ZoneInfo(params.tz)
    n_tracts = params.n_tracts
    cols = math.ceil(math.sqrt(n_tracts))
    cells = [
        (_GRID_LON0 + (k % cols) * _CELL, _GRID_LAT0 + (k // cols) * _CELL)
        for k in range(n_tracts)
    ]
    cum = []
    acc = 0.0
    for r in range(1, n_tracts + 1):
        acc += r**-params.zipf_s
        cum.append(acc)
    months = []
    y, m = params.start_year, params.start_month
    for _ in range(params.months):
        months.append((y, m))
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    month_days = [calendar.monthrange(y, m)[1] for (y, m) in months]
    total_days = sum(month_days)
    # day offset (from span start) of the first day of each month
    month_day0 = [0]
    for nd in month_days[:-1]:
        month_day0.append(month_day0[-1] + nd)

    def day_to_date(day_off: int) -> tuple[int, int, int]:
        mi = 0
        while mi + 1 < len(months) and day_off >= month_day0[mi + 1]:
            mi += 1
        y, m = months[mi]
        return y, m, day_off - month_day0[mi] + 1

    def draw_second(day_fraction: float) -> int:
        if rng.random() < day_fraction:
            return _DAY_LO + rng.below(_DAY_SPAN)
        return _NIGHT_LO + rng.below(_NIGHT_SPAN)

    events: list[tuple[float, str, float, float, str, str]] = []
    by_cohort = {"visitor": [0] * n_tracts, "local": [0] * n_tracts}

    def emit(uid: str, day_off: int, second: int, cohort: str) -> None:
        y, m, d = day_to_date(day_off)
        hh, rem = divmod(second, 3600)
        mm, ss = divmod(rem, 60)
        off = int(datetime(y, m, d, hh, tzinfo=tz).utcoffset().total_seconds())
        epoch = (date(y, m, d) - date(1970, 1, 1)).days * 86400 + second - off
        sign = "-" if off < 0 else "+"
        a = abs(off)
        iso = (
            f"{y:04d}-{m:02d}-{d:02d}T{hh:02d}:{mm:02d}:{ss:02d}"
            f"{sign}{a // 3600:02d}:{(a % 3600) // 60:02d}"
        )
        ti = _draw_tract(rng, cum)
        x0, y0 = cells[ti]
        lon = x0 + _MARGIN + rng.random() * (_CELL - 2 * _MARGIN)
        lat = y0 + _MARGIN + rng.random() * (_CELL - 2 * _MARGIN)
        text = _make_text(rng)
        by_cohort[cohort][ti] += 1
        events.append((float(epoch), uid, lat, lon, iso, text))

    local_ranges: list[tuple[int, int]] = []  # inclusive day-offset range per local
    visitor_windows: list[int] = []  # window start day per visitor

    for u in range(params.n_users_local):
        uid = f"L{u + 1:05d}"
        first_day = rng.below(8)  # day 1..8 of the first month
        last_day = month_day0[-1] + 21 + rng.below(7)  # day 22..28 of the last month
        emit(uid, first_day, draw_second(params.day_fraction_local), "local")
        for mi in range(1, params.months - 1):
            emit(
                uid,
                month_day0[mi] + 8 + rng.below(13),  # day 9..21
                draw_second(params.day_fraction_local),
                "local",
            )
        emit(uid, last_day, draw_second(params.day_fraction_local), "local")
        local_ranges.append((first_day, last_day))

    window_days = min(12, total_days)
    for v in range(params.n_users_visitor):
        uid = f"V{v + 1:05d}"
        ws = rng.below(max(1, total_days - window_days + 1))
        visitor_windows.append(ws)
        emit(uid, ws + rng.below(window_days), draw_second(params.day_fraction_visitor), "visitor")

    n_users = params.n_users_local + params.n_users_visitor
    for _ in range(params.n_events - len(events)):
        g = rng.below(n_users)
        if g < params.n_users_local:
            lo, hi = local_ranges[g]
            emit(
                f"L{g + 1:05d}",
                lo + rng.below(hi - lo + 1),
                draw_second(params.day_fraction_local),
                "local",
            )
        else:
            vi = g - params.n_users_local
            emit(
                f"V{vi + 1:05d}",
                visitor_windows[vi] + rng.below(window_days),
                draw_second(params.day_fraction_visitor),
                "visitor",
            )

    events.sort(key=lambda e: (e[0], e[1]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["user_id", "lat", "lon", "timestamp", "text"])
    for _, uid, lat, lon, iso, text in events:
        writer.writerow([uid, f"{lat:.7f}", f"{lon:.7f}", iso, text])
    return buf.getvalue(), by_cohort

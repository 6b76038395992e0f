"""Deterministic synthetic-city generator (the end-to-end oracle).

Emits a rectangular tract grid, an event CSV with known per-user
cohorts, and a ground-truth JSON holding realized per-tract counts plus
inequality indexes computed by the reference formulas in ``oracles``.

Generation is a pure function of the seed. Randomness comes from an
in-repo SplitMix64 (documented below) rather than a platform RNG, so the
byte output is reproducible on any machine and in any language that
cares to reimplement it.

Construction guarantees, so classification has no boundary ambiguity:

* every local posts in each month of the span, with the first post in
  days 1..8 of the first month and the last in days 22..28 of the last
  month - the span strictly exceeds the 12-day window even for a
  one-month dataset;
* every visitor's posts stay inside one 12-day window of whole days,
  so their span is strictly below 12 days;
* event points are strictly interior to their tract rectangle (margin
  1e-6 degrees), never on a shared edge.
"""

from __future__ import annotations

import calendar
import csv
import io
import math
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from . import jsonio, oracles
from .errors import InvalidParams
from .geo import polygon_area_km2

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random generator.

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


@dataclass(frozen=True)
class SynthParams:
    seed: int = 42
    n_tracts: int = 200
    n_users_local: int = 400
    n_users_visitor: int = 400
    n_events: int = 20_000
    zipf_s: float = 1.0  # tract popularity ~ 1/rank^s; s=0 is uniform
    start_year: int = 2014
    start_month: int = 3
    months: int = 5
    day_fraction_local: float = 0.6
    day_fraction_visitor: float = 0.75
    tz: str = "America/New_York"

    def validate(self) -> None:
        if min(self.n_tracts, self.n_users_local, self.n_users_visitor, self.n_events) < 1:
            raise InvalidParams("counts must all be >= 1")
        if self.months < 1:
            raise InvalidParams("months must be >= 1")
        if self.zipf_s < 0:
            raise InvalidParams("zipf_s must be >= 0")
        if not (1 <= self.start_month <= 12):
            raise InvalidParams("start_month must be 1..12")
        for frac in (self.day_fraction_local, self.day_fraction_visitor):
            if not (0.0 <= frac <= 1.0):
                raise InvalidParams("day fractions must be in [0, 1]")
        try:
            ZoneInfo(self.tz)
        except (ZoneInfoNotFoundError, ValueError):
            raise InvalidParams(f"unknown timezone {self.tz!r}") from None
        anchors = max(2, self.months)
        mandatory = self.n_users_local * anchors + self.n_users_visitor
        if self.n_events < mandatory:
            raise InvalidParams(
                f"n_events={self.n_events} below the {mandatory} mandatory posts "
                f"({anchors} per local, 1 per visitor)"
            )


@dataclass(frozen=True)
class SynthCity:
    tracts_geojson: dict
    events_csv: str
    ground_truth: dict


# tract grid origin and cell size, degrees
_GRID_LON0 = -74.30
_GRID_LAT0 = 40.50
_CELL = 0.02
_MARGIN = 1e-6

_DAY_LO = 8 * 3600  # generated "day" posts: 08:00:00 .. 17:59:59 local
_DAY_SPAN = 10 * 3600
_NIGHT_LO = 20 * 3600  # generated "night" posts: 20:00:00 .. 23:59:59 local
_NIGHT_SPAN = 4 * 3600


def _tract_grid(n_tracts: int):
    cols = math.ceil(math.sqrt(n_tracts))
    cells = []
    features = []
    for k in range(n_tracts):
        r, c = divmod(k, cols)
        x0 = _GRID_LON0 + c * _CELL
        y0 = _GRID_LAT0 + r * _CELL
        x1, y1 = x0 + _CELL, y0 + _CELL
        ring = [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]
        features.append(
            {
                "type": "Feature",
                "properties": {"tract_id": f"T{k + 1:04d}"},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }
        )
        cells.append((x0, y0))
    return {"type": "FeatureCollection", "features": features}, cells


def _zipf_cumulative(n: int, s: float) -> list[float]:
    cum = []
    acc = 0.0
    for r in range(1, n + 1):
        acc += r**-s
        cum.append(acc)
    return cum


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


def _month_list(params: SynthParams) -> list[tuple[int, int]]:
    out = []
    y, m = params.start_year, params.start_month
    for _ in range(params.months):
        out.append((y, m))
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return out


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


def generate_city(params: SynthParams) -> SynthCity:
    """Build the tract grid, the event stream, and its ground truth."""
    params.validate()
    rng = SplitMix64(params.seed)
    tz = ZoneInfo(params.tz)
    geojson, cells = _tract_grid(params.n_tracts)
    cum = _zipf_cumulative(params.n_tracts, params.zipf_s)
    months = _month_list(params)
    month_days = [calendar.monthrange(y, m)[0:2][1] for (y, m) in months]
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
    tract_counts = [0] * params.n_tracts
    by_cohort: dict[str, list[int]] = {
        "visitor": [0] * params.n_tracts,
        "local": [0] * params.n_tracts,
    }

    # (y, m, d, hour) -> (epoch day number, utc offset, offset suffix).
    # Generated hours avoid 00:00-04:00, where real zones put DST jumps,
    # so one offset per local hour is safe.
    tz_cache: dict[tuple[int, int, int, int], tuple[int, int, str]] = {}

    def resolve_day(y: int, m: int, d: int, hh: int) -> tuple[int, int, str]:
        key = (y, m, d, hh)
        v = tz_cache.get(key)
        if v is None:
            off = int(datetime(y, m, d, hh, tzinfo=tz).utcoffset().total_seconds())
            day_num = (date(y, m, d) - date(1970, 1, 1)).days
            sign = "-" if off < 0 else "+"
            a = abs(off)
            v = tz_cache[key] = (day_num, off, f"{sign}{a // 3600:02d}:{(a % 3600) // 60:02d}")
        return v

    def emit(uid: str, day_off: int, second: int, cohort: str) -> None:
        y, m, d = day_to_date(day_off)
        hh, rem = divmod(second, 3600)
        mm, ss = divmod(rem, 60)
        day_num, off, off_str = resolve_day(y, m, d, hh)
        epoch = day_num * 86400 + second - off
        iso = f"{y:04d}-{m:02d}-{d:02d}T{hh:02d}:{mm:02d}:{ss:02d}{off_str}"
        ti = _draw_tract(rng, cum)
        x0, y0 = cells[ti]
        lon = x0 + _MARGIN + rng.random() * (_CELL - 2 * _MARGIN)
        lat = y0 + _MARGIN + rng.random() * (_CELL - 2 * _MARGIN)
        text = _make_text(rng)
        tract_counts[ti] += 1
        by_cohort[cohort][ti] += 1
        events.append((float(epoch), uid, lat, lon, iso, text))

    user_labels: dict[str, dict] = {}
    local_ranges: list[tuple[int, int]] = []  # inclusive day-offset range per local
    visitor_windows: list[int] = []  # window start day per visitor

    for u in range(params.n_users_local):
        uid = f"L{u + 1:05d}"
        user_labels[uid] = {"cohort": "local", "super_local": True}
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
        user_labels[uid] = {"cohort": "visitor", "super_local": False}
        ws = rng.below(max(1, total_days - window_days + 1))
        visitor_windows.append(ws)
        emit(uid, ws + rng.below(window_days), draw_second(params.day_fraction_visitor), "visitor")

    n_mandatory = len(events)
    n_users = params.n_users_local + params.n_users_visitor
    for _ in range(params.n_events - n_mandatory):
        g = rng.below(n_users)
        if g < params.n_users_local:
            uid = f"L{g + 1:05d}"
            lo, hi = local_ranges[g]
            emit(uid, lo + rng.below(hi - lo + 1), draw_second(params.day_fraction_local), "local")
        else:
            vi = g - params.n_users_local
            uid = f"V{vi + 1:05d}"
            emit(
                uid,
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

    tract_ids = [f"T{k + 1:04d}" for k in range(params.n_tracts)]
    areas = {
        tid: polygon_area_km2(geojson["features"][k]["geometry"]["coordinates"])
        for k, tid in enumerate(tract_ids)
    }
    counts_map = {tid: tract_counts[k] for k, tid in enumerate(tract_ids)}
    density = [tract_counts[k] / areas[tid] for k, tid in enumerate(tract_ids)]

    ground_truth = {
        "params": {
            "seed": params.seed,
            "n_tracts": params.n_tracts,
            "n_users_local": params.n_users_local,
            "n_users_visitor": params.n_users_visitor,
            "n_events": params.n_events,
            "zipf_s": params.zipf_s,
            "start_year": params.start_year,
            "start_month": params.start_month,
            "months": params.months,
            "day_fraction_local": params.day_fraction_local,
            "day_fraction_visitor": params.day_fraction_visitor,
            "tz": params.tz,
        },
        "months": [[y, m] for (y, m) in months],
        "tract_counts": counts_map,
        "tract_counts_by_cohort": {
            "visitor": {tid: by_cohort["visitor"][k] for k, tid in enumerate(tract_ids)},
            "local": {tid: by_cohort["local"][k] for k, tid in enumerate(tract_ids)},
        },
        "areas_km2": {tid: areas[tid] for tid in tract_ids},
        "user_labels": dict(sorted(user_labels.items())),
        "expected_indexes": {
            "raw": oracles.index_suite_direct([float(c) for c in tract_counts]),
            "per_km2": oracles.index_suite_direct(density),
        },
    }
    return SynthCity(geojson, buf.getvalue(), ground_truth)


def write_city(params: SynthParams, out_dir) -> dict[str, str]:
    """Generate and write tracts.geojson, events.csv, ground_truth.json."""
    city = generate_city(params)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "tracts": out / "tracts.geojson",
        "events": out / "events.csv",
        "ground_truth": out / "ground_truth.json",
    }
    # full-precision floats throughout: ground-truth closure checks run at
    # 1e-12, and the areas entering those checks come from the tract file
    paths["tracts"].write_text(
        jsonio.dumps(city.tracts_geojson, float_mode="repr"), encoding="utf-8"
    )
    paths["events"].write_text(city.events_csv, encoding="utf-8")
    paths["ground_truth"].write_text(
        jsonio.dumps(city.ground_truth, float_mode="repr"), encoding="utf-8"
    )
    return {k: str(v) for k, v in paths.items()}

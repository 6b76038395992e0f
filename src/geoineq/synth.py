"""Deterministic synthetic-city generator (the end-to-end oracle).

Emits a rectangular tract grid, an event CSV with known per-user
cohorts, and a ground-truth JSON holding realized per-tract counts plus
inequality indexes computed by the reference formulas in ``oracles``.

Generation is a pure function of the seed. Randomness comes from an
in-repo SplitMix64 stream rather than a platform RNG, so the byte output
is reproducible on any machine and in any language that cares to
reimplement it. Draw k (k = 0, 1, ...) of seed s is, mod 2^64,

    z = s + (k + 1) * 0x9E3779B97F4A7C15
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    u_k = z ^ (z >> 31)

A float is ``(u >> 11) * 2^-53``. A bounded integer below n is
``u % n`` unless u >= 2^64 - (2^64 mod n); such a draw is rejected and
the next one taken, so every later draw shifts by one. Draw k depends on
k alone, so this module computes the stream in numpy blocks, walks it
once to find where each post's draws start (only a post's text has a
variable number of draws), and gathers every field from arrays.
``oracles.synth_events_direct`` is the per-draw reference that defines
the order in which posts consume the stream. The output is pinned byte
for byte three ways: the tests compare this module with that reference
over random parameters and hold the sha256 of a small city's files, and
the benchmark (``geobench/pins.json``) pins each workload's city.

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
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from datetime import date, datetime
from fractions import Fraction
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from . import oracles
from .errors import InvalidParams
from .geo import tract_from_feature
from .ingest import EVENT_COLUMNS

_MASK64 = (1 << 64) - 1


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
        if self.n_tracts < 2:
            raise InvalidParams("n_tracts must be >= 2: the ground truth's indexes need two")
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

# draws per stream block: about 4,500 posts; a block's arrays stay in
# cache, which beats fewer, larger blocks
_BLOCK_DRAWS = 1 << 16
# no post takes more draws: a 4-draw prefix (user or anchor days, then
# the second), tract, lon, lat, and a text of at most 3 + 2 * 13 draws
_MAX_POST_DRAWS = 36
# posts formatted into CSV text at a time
_FORMAT_CHUNK = 1 << 16

# post kinds and the draws before each one's place and text: a local's
# first post (first day, last day, second), a middle-month post (day,
# second), a local's last post (second), a visitor's first post (window
# start, day, second), and every later post (user, day, second)
_FIRST, _MIDDLE, _LAST, _VISIT, _MORE = range(5)
_PREFIX = (4, 3, 2, 4, 4)

# "#tag00".."#tag39" then "#Tag00".."#Tag39", each bare and after a space
_TAGS = [f"#{t}{k:02d}" for t in ("tag", "Tag") for k in range(40)]
_TAG_PIECES = np.array(_TAGS + [" " + t for t in _TAGS], dtype=object)
_NICE = "nice view, downtown"  # the comma makes csv quote the whole text
_MMSS = np.array([f"{mm:02d}:{ss:02d}" for mm in range(60) for ss in range(60)], dtype=object)
_DIGITS4 = np.array([f"{k:04d}" for k in range(10_000)], dtype=object)
_DIGITS3 = np.array([f"{k:03d}," for k in range(1000)], dtype=object)
_LINE_ENDS = np.array(["\n", '"\n'], dtype=object)  # by "text starts with _NICE"
_HEADER = ",".join(EVENT_COLUMNS) + "\n"


def _at_least(p: float) -> np.uint64:
    """Smallest draw u whose float (u >> 11) * 2^-53 is >= p."""
    return np.uint64(math.ceil(p * 2.0**53) << 11)


# A text draws r, then a tag count when r >= 0.45: 1 + below(5) below
# 0.87, 6 + below(5) below 0.97, 11 + below(3) above. Its shape code is
# 15 * (the number of those cuts r passes) + (the next draw mod 15), and
# these tables give the tags and the draws (r, the count, the "nice
# view" draw, two per tag) of each code.
_TEXT_CUTS = tuple(_at_least(p) for p in (0.45, 0.87, 0.97))
_TEXT_TAGS = np.array(
    [0] * 15 + [c + m % 5 for c in (1, 6) for m in range(15)] + [11 + m % 3 for m in range(15)],
    dtype=np.uint8,
)
_TEXT_DRAWS = (2 + (np.arange(60) >= 15) + 2 * _TEXT_TAGS).astype(np.uint8)


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


def _month_list(params: SynthParams) -> list[tuple[int, int]]:
    out = []
    y, m = params.start_year, params.start_month
    for _ in range(params.months):
        out.append((y, m))
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return out


def _splitmix_block(seed: int, start: int, count: int) -> np.ndarray:
    """Draws ``start`` .. ``start + count - 1`` of seed's stream, uint64."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _accept_max(n):
    """Largest draw that ``below(n)`` accepts: 2^64 - 1 - (2^64 mod n),
    for an int or a uint64 array of n."""
    if isinstance(n, int):
        return np.uint64(_MASK64 - (1 << 64) % n)
    return np.uint64(_MASK64) - (np.uint64(_MASK64) % n + np.uint64(1)) % n


class _Block:
    """One block of the stream, as the posts consume it: draws that a
    bounded integer rejected are removed, and the block is topped up
    from the stream so that it keeps its length."""

    def __init__(self, seed: int, start: int, size: int):
        self.seed = seed
        self.start = start
        self.u = _splitmix_block(seed, start, size)
        self.raw = None  # stream index of each draw, once one is removed
        self._derive()

    def _derive(self) -> None:
        # shape code of a text whose r is each draw but the last
        r, nxt = self.u[:-1], self.u[1:]
        cuts = sum((r >= cut).view(np.uint8) for cut in _TEXT_CUTS)
        fifteen = np.uint64(15)
        self.text = cuts * np.uint8(15) + (nxt - nxt // fifteen * fifteen).astype(np.uint8)
        self.text_draws = _TEXT_DRAWS[self.text].tobytes()
        self.rejected: list[np.ndarray] = []

    def random(self, pos: np.ndarray) -> np.ndarray:
        """``random()`` at each position."""
        return (self.u[pos] >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def drop(self, k: int) -> None:
        """Remove draw k, which a bounded integer rejected."""
        if self.raw is None:
            self.raw = np.arange(self.start, self.start + len(self.u))
        top = int(self.raw[-1]) + 1
        self.u = np.concatenate((np.delete(self.u, k), _splitmix_block(self.seed, top, 1)))
        self.raw = np.append(np.delete(self.raw, k), top)
        self._derive()

    def stream_index(self, k: int) -> int:
        """Stream index of the block's draw k."""
        if self.raw is None:
            return self.start + k
        return int(self.raw[k]) if k < len(self.raw) else int(self.raw[-1]) + 1

    def walk(self, prefixes) -> tuple[np.ndarray, int]:
        """Start of each post, for posts with the given prefix lengths,
        until the block might not hold the next one; and the position
        after the last post walked."""
        text_draws = self.text_draws
        limit = len(self.u) - _MAX_POST_DRAWS
        starts = []
        s = 0
        for p in prefixes:
            if s > limit:
                break
            starts.append(s)
            q = s + p + 3  # the text follows the tract, lon and lat draws
            s = q + text_draws[q]
        return np.array(starts, dtype=np.int64), s

    def below(self, pos: np.ndarray, n) -> np.ndarray:
        """``below(n)`` at each position, noting the rejected ones."""
        v = self.u[pos]
        self.rejected.append(pos[v > _accept_max(n)])
        return (v % n).astype(np.int64)

    def first_rejected(self) -> int:
        bad = np.concatenate(self.rejected)
        return int(bad.min()) if bad.size else -1


@dataclass
class _Posts:
    """Posts in stream order, as columns."""

    user: np.ndarray  # locals 0..n_local-1, then visitors
    day: np.ndarray  # day offset from the span's first day
    second: np.ndarray  # local second of day
    tract: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    nice: np.ndarray  # text starts with _NICE
    n_tags: np.ndarray
    tags: np.ndarray  # every post's tags in turn, as indexes into _TAGS


class _Generator:
    """Posts of one city, computed block by block from the stream."""

    def __init__(self, params: SynthParams, cells):
        self.p = params
        self.n_local = params.n_users_local
        self.n_users = params.n_users_local + params.n_users_visitor
        cum = _zipf_cumulative(params.n_tracts, params.zipf_s)
        self.cum = np.array(cum)
        self.cum_total = cum[-1]
        self.width = _CELL - 2 * _MARGIN
        self.x0 = np.array([x0 + _MARGIN for x0, _ in cells])
        self.y0 = np.array([y0 + _MARGIN for _, y0 in cells])
        months = _month_list(params)
        month_days = [calendar.monthrange(y, m)[1] for (y, m) in months]
        self.total_days = sum(month_days)
        self.month_day0 = np.cumsum([0] + month_days[:-1])
        self.window_days = min(12, self.total_days)
        # first and last day of each local, window start of each visitor
        self.local_lo = np.zeros(self.n_local, dtype=np.int64)
        self.local_hi = np.zeros(self.n_local, dtype=np.int64)
        self.visitor_ws = np.zeros(params.n_users_visitor, dtype=np.int64)
        # the mandatory posts: each local's months in turn, then one per
        # visitor; the kind, user and (middle posts) month index of each
        anchors = max(2, params.months)
        per_local = [_FIRST] + [_MIDDLE] * (anchors - 2) + [_LAST]
        self.kinds = np.concatenate(
            (np.tile(per_local, self.n_local), np.full(params.n_users_visitor, _VISIT))
        ).astype(np.int8)
        self.users = np.concatenate(
            (np.repeat(np.arange(self.n_local), anchors), np.arange(self.n_local, self.n_users))
        )
        self.month = np.concatenate(
            (np.tile([0, *range(1, anchors - 1), 0], self.n_local),
             np.zeros(params.n_users_visitor, dtype=np.int64))
        )
        self.next_draw = 0  # stream index of the next block's first draw
        self.parts: list[_Posts] = []

    def run(self) -> _Posts:
        p = self.p
        n_mandatory = len(self.kinds)
        self._phase(n_mandatory, self._mandatory)
        # a later post's day is drawn in its user's range: a local's first
        # to last day, a visitor's 12-day window
        self.day_lo = np.concatenate((self.local_lo, self.visitor_ws))
        self.day_n = np.concatenate(
            (self.local_hi - self.local_lo + 1,
             np.full(p.n_users_visitor, self.window_days, dtype=np.int64))
        ).astype(np.uint64)
        self._phase(p.n_events - n_mandatory, self._more)
        return _Posts(*(
            np.concatenate([getattr(part, f.name) for part in self.parts])
            for f in fields(_Posts)
        ))

    def _phase(self, n_posts: int, posts_of) -> None:
        """Generate ``n_posts`` posts from the stream, block by block.
        ``posts_of(block, first, left)`` walks the block from the phase's
        post ``first`` on, ``left`` posts at most, and returns the walk's
        starts and end and its posts; a rejected draw is removed and the
        block walked again."""
        done = 0
        while done < n_posts:
            size = min(_BLOCK_DRAWS, _MAX_POST_DRAWS * (n_posts - done) + _MAX_POST_DRAWS)
            block = _Block(self.p.seed, self.next_draw, size)
            while True:
                starts, end, posts = posts_of(block, done, n_posts - done)
                bad = block.first_rejected()
                if bad < 0:
                    break
                block.drop(bad)
            self.parts.append(posts)
            done += len(starts)
            self.next_draw = block.stream_index(end)

    def _mandatory(self, block: _Block, first: int, left: int):
        # a post takes at least 7 draws: a 2-draw prefix, its place, a text
        kinds = self.kinds[first:first + min(left, len(block.u) // 7 + 1)]
        starts, end = block.walk(map(_PREFIX.__getitem__, kinds.tolist()))
        n = len(starts)
        kinds, users = kinds[:n], self.users[first:first + n]
        day = np.zeros(n, dtype=np.int64)
        mdc = self.month_day0
        sel = np.flatnonzero(kinds == _FIRST)
        s, who = starts[sel], users[sel]
        day[sel] = self.local_lo[who] = block.below(s, 8)  # day 1..8 of the first month
        self.local_hi[who] = mdc[-1] + 21 + block.below(s + 1, 7)  # day 22..28 of the last
        sel = np.flatnonzero(kinds == _MIDDLE)
        day[sel] = mdc[self.month[first:first + n][sel]] + 8 + block.below(starts[sel], 13)
        sel = np.flatnonzero(kinds == _LAST)
        day[sel] = self.local_hi[users[sel]]
        sel = np.flatnonzero(kinds == _VISIT)
        s, who = starts[sel], users[sel] - self.n_local
        ws = block.below(s, max(1, self.total_days - self.window_days + 1))
        self.visitor_ws[who] = ws
        day[sel] = ws + block.below(s + 1, self.window_days)
        prefix = np.array(_PREFIX)[kinds]
        return starts, end, self._posts(block, users, day, starts + prefix)

    def _more(self, block: _Block, first: int, left: int):
        starts, end = block.walk(itertools.repeat(_PREFIX[_MORE], left))
        users = block.below(starts, self.n_users)
        day = self.day_lo[users] + block.below(starts + 1, self.day_n[users])
        return starts, end, self._posts(block, users, day, starts + _PREFIX[_MORE])

    def _posts(self, block: _Block, users, day, q) -> _Posts:
        """Posts whose second ends at q - 1 and whose place starts at q."""
        frac = np.where(users < self.n_local, self.p.day_fraction_local,
                        self.p.day_fraction_visitor)
        is_day = block.random(q - 2) < frac
        span = np.where(is_day, _DAY_SPAN, _NIGHT_SPAN).astype(np.uint64)
        second = np.where(is_day, _DAY_LO, _NIGHT_LO) + block.below(q - 1, span)
        tract = np.searchsorted(self.cum, block.random(q) * self.cum_total, side="right")
        np.minimum(tract, len(self.cum) - 1, out=tract)
        lon = self.x0[tract] + block.random(q + 1) * self.width
        lat = self.y0[tract] + block.random(q + 2) * self.width
        # the text: r at t, a tag count at t + 1 when r >= 0.45, "nice
        # view" next, then a tag and its capitalization per tag
        t = q + 3
        code = block.text[t]
        counted = code >= 15
        block.below(t[counted] + 1, np.where(code[counted] < 45, 5, 3).astype(np.uint64))
        nice_at = t + 1 + counted
        nice = block.below(nice_at, 11) == 0
        n_tags = _TEXT_TAGS[code].astype(np.int64)
        total = int(n_tags.sum())
        first_tag = np.cumsum(n_tags) - n_tags
        tag_at = (np.repeat(nice_at + 1 - 2 * first_tag, n_tags)
                  + 2 * np.arange(total, dtype=np.int64))
        tags = block.below(tag_at, 40) + 40 * (block.below(tag_at + 1, 7) == 0)
        return _Posts(users, day, second, tract, lon, lat, nice,
                      n_tags.astype(np.uint8), tags.astype(np.uint8))


def _fixed7(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's "%.7f" text in three pieces: sign, whole part and
    point; the first four decimals; the last three and a comma.

    The 7-decimal integer is the float product |x| * 1e7 rounded, which
    is exact except where the product lies within its rounding error of
    a tie; there it is recomputed exactly, ties to even as "%.7f" does.
    """
    y = np.abs(x) * 1e7
    n = np.rint(y).astype(np.int64)
    for i in np.flatnonzero(np.abs(y - np.floor(y) - 0.5) <= np.spacing(y)).tolist():
        n[i] = round(Fraction(abs(float(x[i]))) * 10**7)
    whole, frac = np.divmod(n, 10**7)
    code = 2 * whole + np.signbit(x)
    lo = int(code.min())
    heads = np.array(
        [f"{'-' if c & 1 else ''}{c >> 1}." for c in range(lo, int(code.max()) + 1)],
        dtype=object,
    )
    return heads[code - lo], _DIGITS4[frac // 1000], _DIGITS3[frac % 1000]


def _events_csv(params: SynthParams, posts: _Posts) -> str:
    """The CSV text of the posts, sorted by (epoch, user id) and, within
    equal keys, in stream order; csv.writer's QUOTE_MINIMAL quoting."""
    tz = ZoneInfo(params.tz)
    months = _month_list(params)
    dates = [
        (y, m, d) for (y, m) in months for d in range(1, calendar.monthrange(y, m)[1] + 1)
    ]
    key = posts.day * 24 + posts.second // 3600  # (day, local hour)
    n_keys = len(dates) * 24
    used = np.zeros(n_keys, dtype=bool)
    used[key] = True
    offset = np.zeros(n_keys, dtype=np.int64)
    head = np.empty(n_keys, dtype=object)  # "YYYY-MM-DDTHH:"
    # the UTC offset, the field's comma and the text's opening, by
    # 2 * key + nice. Generated hours avoid 00:00-04:00, where real zones
    # put DST jumps, so one offset per local hour is safe.
    tail = np.empty(2 * n_keys, dtype=object)
    for k in np.flatnonzero(used).tolist():
        (y, m, d), hh = dates[k // 24], k % 24
        off = int(datetime(y, m, d, hh, tzinfo=tz).utcoffset().total_seconds())
        a = abs(off)
        suffix = f"{'-' if off < 0 else '+'}{a // 3600:02d}:{(a % 3600) // 60:02d},"
        offset[k] = off
        head[k] = f"{y:04d}-{m:02d}-{d:02d}T{hh:02d}:"
        tail[2 * k] = suffix
        tail[2 * k + 1] = suffix + '"' + _NICE
    day0 = date(*dates[0]).toordinal() - date(1970, 1, 1).toordinal()
    epoch = (day0 + posts.day) * 86400 + posts.second - offset[key]

    uids = [f"L{u + 1:05d}" for u in range(params.n_users_local)]
    uids += [f"V{v + 1:05d}" for v in range(params.n_users_visitor)]
    rank = np.empty(len(uids), dtype=np.int64)  # of each user id, as strings sort
    rank[np.argsort(np.array(uids), kind="stable")] = np.arange(len(uids))
    # one int64 key, (epoch, rank), sorts faster than np.lexsort's two
    order = np.argsort((epoch - epoch.min()) * len(uids) + rank[posts.user], kind="stable")
    del epoch, rank
    uids = np.array([uid + "," for uid in uids], dtype=object)
    first_tag = np.cumsum(posts.n_tags, dtype=np.int64) - posts.n_tags

    out = [_HEADER]
    for a in range(0, len(order), _FORMAT_CHUNK):
        idx = order[a:a + _FORMAT_CHUNK]
        k, nice = key[idx], posts.nice[idx]
        fields = [
            uids[posts.user[idx]],
            *_fixed7(posts.lat[idx]),
            *_fixed7(posts.lon[idx]),
            head[k],
            _MMSS[posts.second[idx] % 3600],
            tail[2 * k + nice],
        ]
        # each line: its field pieces, its tags, then '"\n' or '\n'
        n_tags = posts.n_tags[idx].astype(np.int64)
        ends = np.cumsum(n_tags + len(fields) + 1)
        tags_at = ends - 1 - n_tags
        pieces = np.empty(int(ends[-1]), dtype=object)
        for j, field in enumerate(fields):
            pieces[tags_at - len(fields) + j] = field
        pieces[ends - 1] = _LINE_ENDS[nice.view(np.uint8)]
        nth = np.arange(int(n_tags.sum())) - np.repeat(np.cumsum(n_tags) - n_tags, n_tags)
        tag = posts.tags[np.repeat(first_tag[idx], n_tags) + nth]
        spaced = (nth > 0) | np.repeat(nice, n_tags)
        pieces[np.repeat(tags_at, n_tags) + nth] = _TAG_PIECES[tag + 80 * spaced]
        out.append("".join(pieces.tolist()))
    return "".join(out)


def _city(params: SynthParams, geojson: dict, events_csv: str,
          by_cohort: dict[str, list[int]]) -> SynthCity:
    """The city from its tract grid, its events and their per-tract
    counts by cohort."""
    tract_ids = [f"T{k + 1:04d}" for k in range(params.n_tracts)]
    tract_counts = [v + l for v, l in zip(by_cohort["visitor"], by_cohort["local"])]
    # each area as the pipeline computes it from the tract file
    areas = {
        tid: tract_from_feature(feature).area_km2
        for tid, feature in zip(tract_ids, geojson["features"])
    }
    counts_map = {tid: tract_counts[k] for k, tid in enumerate(tract_ids)}
    density = [tract_counts[k] / areas[tid] for k, tid in enumerate(tract_ids)]
    user_labels = {
        f"L{u + 1:05d}": {"cohort": "local", "super_local": True}
        for u in range(params.n_users_local)
    }
    user_labels.update(
        (f"V{v + 1:05d}", {"cohort": "visitor", "super_local": False})
        for v in range(params.n_users_visitor)
    )

    ground_truth = {
        "params": asdict(params),
        "months": [[y, m] for (y, m) in _month_list(params)],
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
    return SynthCity(geojson, events_csv, ground_truth)


def generate_city(params: SynthParams) -> SynthCity:
    """Build the tract grid, the event stream, and its ground truth."""
    params.validate()
    geojson, cells = _tract_grid(params.n_tracts)
    posts = _Generator(params, cells).run()
    visitor = posts.user >= params.n_users_local
    by_cohort = {
        "visitor": np.bincount(posts.tract[visitor], minlength=params.n_tracts).tolist(),
        "local": np.bincount(posts.tract[~visitor], minlength=params.n_tracts).tolist(),
    }
    return _city(params, geojson, _events_csv(params, posts), by_cohort)


def city_files(city: SynthCity) -> dict[str, str]:
    """The text of tracts.geojson, events.csv and ground_truth.json."""
    # full-precision (shortest round-trip) floats throughout: ground-truth
    # closure checks run at 1e-12, and the areas entering those checks
    # come from the tract file
    tracts, truth = (
        json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
        for obj in (city.tracts_geojson, city.ground_truth)
    )
    return {"tracts": tracts, "events": city.events_csv, "ground_truth": truth}


def write_city(params: SynthParams, out_dir) -> dict[str, str]:
    """Generate and write tracts.geojson, events.csv, ground_truth.json."""
    city = generate_city(params)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = {"tracts": "tracts.geojson", "events": "events.csv",
             "ground_truth": "ground_truth.json"}
    paths = {}
    for key, text in city_files(city).items():
        paths[key] = out / names[key]
        paths[key].write_text(text, encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}

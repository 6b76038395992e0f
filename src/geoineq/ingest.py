"""Event, tract, and census ingestion, plus hashtag extraction.

Events arrive as CSV (RFC 4180 quoting) with header
``user_id,lat,lon,timestamp,text`` or as JSONL with the same keys;
timestamps are ISO-8601 and must carry an explicit UTC offset. Tract
boundaries are a GeoJSON FeatureCollection with a ``tract_id`` property;
census indicators a CSV keyed by ``tract_id``.

Event parsing is skip-and-count: a bad record is tallied under its error
kind and the stream continues. Multi-million-row exports always contain
some noise, and one broken line must never abort a run. Tract and census
files are small and authoritative, so they fail fast instead.

Event parsing is columnar, in chunks of ``_CHUNK`` lines. Quote-free
CSV lines with exactly four commas take the columnar path: they are
split in bulk, one join and one split per chunk. Quoted CSV records and
JSONL rows are split one record at a time. All fields then go through
vector checks: ``float`` over each coordinate column with a range mask,
and a byte-view decode of timestamps in the fixed-width
``YYYY-MM-DDTHH:MM:SS+HH:MM`` shape. Every record those checks do not
accept (a ``Z`` or compact offset, an unparseable coordinate, a bad
date, a missing field) falls back to the per-record rule, which accepts
it or skips and counts it exactly as a record-at-a-time parse would
(``oracles.validate_event_fields`` is that reference). Row order and
tallies never depend on the route a record took.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, compress, islice, repeat
from typing import Iterator

import numpy as np

from .errors import (
    BadTimestamp,
    DuplicateTractId,
    MalformedRecord,
    MissingTractId,
    NonNumericValue,
    NonPolygonGeometry,
    OutOfRangeCoordinate,
    RateOutOfRange,
    UnclosedRing,
)

EVENT_COLUMNS = ("user_id", "lat", "lon", "timestamp", "text")

# A hashtag is '#' followed by a maximal run of word characters (Unicode
# letters, digits, underscore); tags are casefolded so #NYC == #nyc.
TAG_PATTERN = re.compile(r"#(\w+)")

_TS_RE = re.compile(
    r"(\d{4}-\d{2}-\d{2})T(\d{2}):(\d{2}):(\d{2})(Z|[+-]\d{2}:?\d{2})\Z", re.ASCII
)
# the UTC offset at the end of a stamp that takes the fromisoformat
# fallback; groups are its minutes and seconds, if present
_OFFSET_RE = re.compile(r"[+-]\d{2}(?::?(\d{2})(?::?(\d{2})(?:[.,]\d+)?)?)?\Z", re.ASCII)

# Lines (JSONL: records) per columnar chunk. It bounds the transient
# field strings a bulk split holds at once: coordinates and timestamps
# are dropped after their chunk, only user ids and texts are kept.
_CHUNK = 8192

# the vector-decoded timestamp shape: YYYY-MM-DDTHH:MM:SS+HH:MM
_TS_WIDTH = 25
_TS_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24])
_TS_SEP_POS = np.array([4, 7, 10, 13, 16, 22])
_TS_SEP = np.frombuffer(b"--T:::", dtype=np.uint8)
_TS_SIGN_POS = 19
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])

Ring = tuple[tuple[float, float], ...]
Polygon = tuple[Ring, ...]  # exterior ring first, holes after


@dataclass(frozen=True)
class RawTractFeature:
    """A tract boundary as parsed: one or more polygons with their holes."""

    tract_id: str
    polygons: tuple[Polygon, ...]
    properties: dict

    @property
    def rings(self) -> Iterator[Ring]:
        for poly in self.polygons:
            yield from poly


@dataclass(frozen=True)
class CensusRecord:
    tract_id: str
    median_income: float | None = None
    median_rent: float | None = None
    unemployment_rate: float | None = None
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class ParseStats:
    """Skip-and-count bookkeeping for one parse run."""

    records_ok: int = 0
    records_skipped: int = 0
    errors: Counter = field(default_factory=Counter)

    @property
    def records_total(self) -> int:
        return self.records_ok + self.records_skipped

    def count_error(self, kind: str) -> None:
        self.records_skipped += 1
        self.errors[kind] += 1

    def merge(self, other: "ParseStats") -> None:
        self.records_ok += other.records_ok
        self.records_skipped += other.records_skipped
        self.errors.update(other.errors)


@dataclass
class EventBatch:
    """Parsed events as columns, in input order."""

    user_ids: list[str]
    lats: np.ndarray
    lons: np.ndarray
    epochs: np.ndarray  # seconds since the Unix epoch (UTC)
    texts: list[str]

    def __len__(self) -> int:
        return len(self.user_ids)

    def take(self, indices: np.ndarray) -> "EventBatch":
        if len(indices) == len(self.user_ids):
            return self  # nothing filtered out
        idx = indices.tolist()
        return EventBatch(
            [self.user_ids[i] for i in idx],
            self.lats[indices],
            self.lons[indices],
            self.epochs[indices],
            [self.texts[i] for i in idx],
        )


def extract_hashtags(text: str) -> list[str]:
    """All '#'-prefixed word runs in order, casefolded, duplicates kept.

    This is the total-count view; uniqueness is applied downstream where
    needed.
    """
    if "#" not in text:
        return []
    return [t.casefold() for t in TAG_PATTERN.findall(text)]


# --- event stream parsing ---------------------------------------------------


def _as_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8-sig")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8-sig")
    return data


def _csv_parse_quoted(record: str) -> list[str] | None:
    try:
        rows = list(csv.reader(io.StringIO(record)))
    except csv.Error:
        return None
    if len(rows) != 1:
        return None
    return rows[0]


def _csv_chunks(lines: list[str]) -> Iterator[tuple[list[str], list]]:
    """Yield the CSV records of ``lines`` in chunks of at most ``_CHUNK``
    lines, as ``(flat, fielded)``: ``flat`` holds one four-comma line per
    record, ``fielded`` the ``(position, fields)`` of every record that is
    not a quote-free line with exactly four commas, split one by one
    (fields None when unparseable; its ``flat`` slot is a placeholder).

    A line with an odd number of quotes opens a record that runs to the
    next such line (newlines inside quoted fields); those records and
    other quoted lines go through the csv module. Blank lines between
    records are skipped. Only lines that are not plain records are
    visited one at a time.
    """
    pending: list[str] | None = None  # lines of a record whose quote is open
    for start in range(0, len(lines), _CHUNK):
        block = lines[start : start + _CHUNK]
        n = len(block)
        commas = np.fromiter(map(str.count, block, repeat(",")), dtype=np.int64, count=n)
        quotes = np.fromiter(map(str.count, block, repeat('"')), dtype=np.int64, count=n)
        odd = quotes & 1
        # a quote is open after this line: continuation lines and the
        # line that opens a quoted record (the closing one has quotes)
        inside = (np.cumsum(odd) + (pending is not None)) & 1
        special = np.flatnonzero(inside | (quotes != 0) | (commas != 4)).tolist()
        flat: list[str] = []
        fielded: list[tuple[int, list[str] | None]] = []
        prev = 0
        for i in special:
            flat += block[prev:i]
            prev = i + 1
            line = block[i]
            if pending is not None:
                pending.append(line)
                if not odd[i]:
                    continue
                fields = _csv_parse_quoted("\n".join(pending))
                pending = None
            elif not line:
                continue
            elif odd[i]:
                pending = [line]
                continue
            elif quotes[i]:
                fields = _csv_parse_quoted(line)
            else:
                fields = line.split(",")
            fielded.append((len(flat), fields))
            flat.append(",,,,")
        flat += block[prev:]
        yield flat, fielded
    if pending is not None:
        yield [",,,,"], [(0, None)]  # unterminated quote at EOF


def _iter_jsonl_fields(text: str) -> Iterator[list[str] | None]:
    for line in text.split("\n"):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            yield None
            continue
        if not isinstance(obj, dict):
            yield None
            continue
        try:
            uid = obj["user_id"]
            lat = obj["lat"]
            lon = obj["lon"]
            ts = obj["timestamp"]
        except KeyError:
            yield None
            continue
        text_v = obj.get("text", "")
        if not isinstance(ts, str) or not isinstance(text_v, str):
            yield None
            continue
        yield [str(uid), str(lat), str(lon), ts, text_v]


def _day_base(date_s: str, off_s: str) -> float:
    """Epoch of local midnight for one (date, offset) pair; raises
    ValueError for bad dates or offsets."""
    if off_s == "Z":
        tz = timezone.utc
    else:
        if int(off_s[-2:]) > 59:
            raise ValueError(f"offset minutes out of range: {off_s}")
        off = int(off_s[1:3]) * 3600 + int(off_s[-2:]) * 60
        if off_s[0] == "-":
            off = -off
        tz = timezone(timedelta(seconds=off))
    y, mo, d = date_s.split("-")
    return datetime(int(y), int(mo), int(d), tzinfo=tz).timestamp()


def _timestamp_to_epoch(s: str, day_cache: dict) -> float:
    """Parse one ISO-8601 timestamp with a mandatory UTC offset.

    Returns epoch seconds; raises ValueError on any problem. Every
    numeric field must be ASCII digits. The ``YYYY-MM-DDTHH:MM:SS`` shape
    with a ``Z``, ``+HH:MM`` or ``+HHMM`` offset takes a regex path with a
    per-(date, offset) cache; anything else falls back to
    ``datetime.fromisoformat``.
    """
    m = _TS_RE.match(s)
    if m:
        date_s, hh, mm, ss, off_s = m.groups()
        key = date_s + off_s
        cached = day_cache.get(key)
        if cached is None:
            cached = _day_base(date_s, off_s)
            if len(day_cache) < 4096:
                day_cache[key] = cached
        h = int(hh)
        mi = int(mm)
        sec = int(ss)
        if h > 23 or mi > 59 or sec > 59:
            raise ValueError(s)
        return cached + h * 3600 + mi * 60 + sec
    # general ISO-8601 fallback; it reads ASCII digits only
    if s.endswith("Z"):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None or dt.utcoffset() is None:
        raise ValueError("timestamp lacks a UTC offset")
    # fromisoformat reads +05:75 as +06:15
    off = _OFFSET_RE.search(s)
    if off is None or any(f is not None and int(f) > 59 for f in off.groups()):
        raise ValueError(f"offset out of range: {s}")
    return dt.timestamp()


def _check_record(uid: str, lat_s: str, lon_s: str, ts_s: str, day_cache: dict):
    """The per-record rule for a five-field record: (lat, lon, epoch)
    when it is valid, else the name of its error kind."""
    if not uid:
        return "MalformedRecord"
    try:
        lat = float(lat_s)
        lon = float(lon_s)
    except ValueError:
        return "MalformedRecord"
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return "OutOfRangeCoordinate"
    try:
        epoch = _timestamp_to_epoch(ts_s, day_cache)
    except ValueError:
        return "BadTimestamp"
    return lat, lon, epoch


def _columns(flat: list[str], fielded: list) -> list[list[str]]:
    """The five field columns of a chunk of records.

    ``flat`` is split in bulk; each five-field list in ``fielded`` then
    overwrites its placeholder row. A record without five fields keeps
    the empty placeholder, and its empty user id makes the per-record
    rule count it as a MalformedRecord.
    """
    fields = ",".join(flat).split(",")
    cols = [fields[c::5] for c in range(5)]
    for i, rec in fielded:
        if rec is not None and len(rec) == 5:
            for col, value in zip(cols, rec):
                col[i] = value
    return cols


def _float_column(strings: list[str]) -> np.ndarray:
    """``float`` of every string; NaN where ``float`` raises, so that
    row fails the range mask and the per-record rule names its error."""
    it = iter(strings)
    out: list[float] = []
    while True:
        try:
            out.extend(map(float, it))  # keeps what it took before a raise
            return np.array(out, dtype=np.float64)
        except ValueError:
            out.append(math.nan)


def _fixed_width_epochs(stamps: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Decode 25-character ``YYYY-MM-DDTHH:MM:SS+HH:MM`` timestamps from a
    byte view: (epoch seconds, accepted mask).

    A stamp is accepted when every digit position holds an ASCII digit,
    every separator matches, and the date, time and offset are in range;
    the epoch is then exactly what the per-record rule computes. Days
    come from days-from-civil arithmetic (proleptic Gregorian).
    """
    b = np.frombuffer("".join(stamps).encode("ascii", "replace"), dtype=np.uint8)
    b = b.reshape(-1, _TS_WIDTH)
    d = b[:, _TS_DIGITS].astype(np.int64) - ord("0")
    sign = b[:, _TS_SIGN_POS]
    ok = ((d >= 0) & (d <= 9)).all(axis=1)
    ok &= (b[:, _TS_SEP_POS] == _TS_SEP).all(axis=1)
    ok &= (sign == ord("+")) | (sign == ord("-"))
    v = d[:, 0::2] * 10 + d[:, 1::2]  # two-digit fields
    year = v[:, 0] * 100 + v[:, 1]
    month, day, hh, mi, ss, oh, om = v[:, 2:].T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 1, 12) - 1] + ((month == 2) & leap)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hh <= 23) & (mi <= 59) & (ss <= 59) & (oh <= 23) & (om <= 59)
    off = np.where(sign == ord("-"), -1, 1) * (oh * 3600 + om * 60)
    y = year - (month <= 2)  # March-based year
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    epochs = days * 86400 + hh * 3600 + mi * 60 + ss - off
    return epochs.astype(np.float64), ok


def _parse_chunk(flat: list[str], fielded: list, stats: ParseStats, day_cache: dict):
    """Validate one chunk of records (see :func:`_csv_chunks`); returns
    the accepted rows as (user ids, texts, (lats, lons, epochs)) in
    input order."""
    uids, lat_s, lon_s, ts_s, texts = _columns(flat, fielded)
    n = len(uids)
    lats = _float_column(lat_s)
    lons = _float_column(lon_s)
    ok = np.fromiter(map(bool, uids), dtype=bool, count=n)
    ok &= (lats >= -90.0) & (lats <= 90.0) & (lons >= -180.0) & (lons <= 180.0)
    epochs = np.zeros(n, dtype=np.float64)
    ts_ok = np.zeros(n, dtype=bool)
    wide = np.fromiter(map(len, ts_s), dtype=np.int64, count=n) == _TS_WIDTH
    epochs[wide], ts_ok[wide] = _fixed_width_epochs(
        list(compress(ts_s, wide.tolist()))
    )
    ok &= ts_ok
    # the per-record rule decides every row the vector checks did not accept
    for i in np.flatnonzero(~ok).tolist():
        res = _check_record(uids[i], lat_s[i], lon_s[i], ts_s[i], day_cache)
        if res.__class__ is str:
            stats.count_error(res)
        else:
            lats[i], lons[i], epochs[i] = res
            ok[i] = True
    n_ok = int(ok.sum())
    stats.records_ok += n_ok
    if n_ok == n:
        return uids, texts, (lats, lons, epochs)
    keep = ok.tolist()
    return (
        list(compress(uids, keep)),
        list(compress(texts, keep)),
        (lats[ok], lons[ok], epochs[ok]),
    )


def parse_event_batch(
    source,
    format: str = "csv",
    stats: ParseStats | None = None,
    expect_header: bool = True,
) -> EventBatch:
    """Parse an event stream into columnar arrays.

    ``expect_header=False`` parses a headerless body slice (used when a
    file is split into byte ranges for parallel workers).
    """
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown event format {format!r}")
    if stats is None:
        stats = ParseStats()
    text = _as_text(source)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if format == "csv":
        chunks = _csv_chunks(text.split("\n"))
        if expect_header:
            flat, fielded = next((c for c in chunks if c[0]), ([], []))
            if fielded and fielded[0][0] == 0:
                header = fielded.pop(0)[1]
            else:
                header = flat[0].split(",") if flat else None
            if header is None or [h.strip() for h in header] != list(EVENT_COLUMNS):
                raise MalformedRecord(
                    f"CSV header must be {','.join(EVENT_COLUMNS)}, got {header!r}"
                )
            chunks = chain([(flat[1:], [(i - 1, f) for i, f in fielded])], chunks)
    else:
        records = _iter_jsonl_fields(text)
        chunks = (
            ([",,,,"] * len(recs), list(enumerate(recs)))
            for recs in iter(lambda: list(islice(records, _CHUNK)), [])
        )
    uids: list[str] = []
    texts: list[str] = []
    parts = [(np.empty(0), np.empty(0), np.empty(0))]
    day_cache: dict = {}
    for flat, fielded in chunks:
        if flat:
            c_uids, c_texts, arrays = _parse_chunk(flat, fielded, stats, day_cache)
            uids += c_uids
            texts += c_texts
            parts.append(arrays)
    lats, lons, epochs = (np.concatenate(col) for col in zip(*parts))
    return EventBatch(uids, lats, lons, epochs, texts)


def partition_byte_ranges(path, k: int, format: str = "csv") -> list[tuple[int, int]]:
    """Split an event file into k byte ranges at record boundaries.

    A CSV record boundary is a newline preceded by an even number of
    quote characters, so records with quoted embedded newlines never
    straddle two ranges (JSONL lines always have balanced quotes, which
    makes the same scan valid there). The first range starts after the
    CSV header line, or after a JSONL file's UTF-8 byte order mark.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    data = os.fspath(path)
    with open(data, "rb") as f:
        blob = f.read()
    if format == "csv":
        nl = blob.find(b"\n")
        start = nl + 1 if nl >= 0 else len(blob)
    else:
        start = len(codecs.BOM_UTF8) if blob.startswith(codecs.BOM_UTF8) else 0
    end = len(blob)
    if k == 1 or end - start == 0:
        return [(start, end)]
    cuts: list[int] = []
    pos = start
    parity = 0
    for i in range(1, k):
        target = start + (end - start) * i // k
        if target < pos:
            target = pos
        parity = (parity + blob.count(b'"', pos, target)) & 1
        pos = target
        while pos < end:
            nl = blob.find(b"\n", pos)
            if nl == -1:
                pos = end
                break
            parity = (parity + blob.count(b'"', pos, nl)) & 1
            pos = nl + 1
            if parity == 0:
                break
        cuts.append(pos)
    bounds = [start] + cuts + [end]
    return [(bounds[i], bounds[i + 1]) for i in range(k)]


def read_byte_range(path, byte_range: tuple[int, int]) -> str:
    start, end = byte_range
    with open(os.fspath(path), "rb") as f:
        f.seek(start)
        return f.read(end - start).decode("utf-8")


# --- tract geometry parsing -------------------------------------------------


def _validate_ring(tract_id: str, ring) -> Ring:
    if not isinstance(ring, (list, tuple)) or len(ring) < 4:
        raise UnclosedRing(f"tract {tract_id}: ring with < 4 points")
    try:
        pts = tuple((float(p[0]), float(p[1])) for p in ring)
    except (TypeError, ValueError, IndexError):
        raise NonPolygonGeometry(f"tract {tract_id}: malformed coordinates") from None
    if pts[0] != pts[-1]:
        raise UnclosedRing(f"tract {tract_id}: ring not closed")
    return pts


def parse_tracts(source) -> list[RawTractFeature]:
    """Parse a GeoJSON FeatureCollection of Polygon/MultiPolygon tracts.

    A MultiPolygon becomes one tract with several polygon parts. Each
    feature must carry a unique, non-empty ``tract_id`` property.
    """
    try:
        obj = json.loads(_as_text(source))
    except json.JSONDecodeError as e:
        raise NonPolygonGeometry(f"not valid GeoJSON: {e}") from None
    if not isinstance(obj, dict) or obj.get("type") != "FeatureCollection":
        raise NonPolygonGeometry("input is not a GeoJSON FeatureCollection")
    out: list[RawTractFeature] = []
    seen: set[str] = set()
    for feat in obj.get("features") or []:
        props = feat.get("properties") or {}
        tid = props.get("tract_id")
        if tid is None or str(tid) == "":
            raise MissingTractId("feature lacks a tract_id property")
        tid = str(tid)
        if tid in seen:
            raise DuplicateTractId(tid)
        geom = feat.get("geometry") or {}
        gtype = geom.get("type")
        if gtype == "Polygon":
            raw_polys = [geom.get("coordinates")]
        elif gtype == "MultiPolygon":
            raw_polys = geom.get("coordinates") or []
        else:
            raise NonPolygonGeometry(f"tract {tid}: geometry type {gtype!r}")
        polygons = []
        for rings in raw_polys:
            if not rings:
                raise NonPolygonGeometry(f"tract {tid}: polygon without rings")
            polygons.append(tuple(_validate_ring(tid, r) for r in rings))
        if not polygons:
            raise NonPolygonGeometry(f"tract {tid}: empty MultiPolygon")
        seen.add(tid)
        out.append(RawTractFeature(tid, tuple(polygons), dict(props)))
    return out


# --- census table parsing ---------------------------------------------------

_CENSUS_KNOWN = ("median_income", "median_rent", "unemployment_rate")
_CENSUS_MONETARY = ("median_income", "median_rent")


def parse_census(source) -> dict[str, CensusRecord]:
    """Parse a census indicator CSV into one record per tract.

    The header must name a ``tract_id`` column; every other column is
    numeric. Known columns land on the record fields, anything else goes
    to ``extra``. Rows for tracts missing from the boundary file are kept
    here and flagged later, so id mismatches stay diagnosable.
    """
    text = _as_text(source)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if not header or "tract_id" not in [h.strip() for h in header]:
        raise MalformedRecord("census CSV must have a tract_id column")
    cols = [h.strip() for h in header]
    id_idx = cols.index("tract_id")
    out: dict[str, CensusRecord] = {}
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(cols):
            raise MalformedRecord(f"census row has {len(row)} cells, expected {len(cols)}")
        tid = row[id_idx].strip()
        if not tid:
            raise MissingTractId("census row with empty tract_id")
        if tid in out:
            raise DuplicateTractId(tid)
        known: dict[str, float] = {}
        extra: dict[str, float] = {}
        for name, cell in zip(cols, row):
            if name == "tract_id" or not cell.strip():
                continue
            try:
                v = float(cell)
            except ValueError:
                raise NonNumericValue(f"{name}={cell!r} for tract {tid}") from None
            if name.endswith("rate"):
                if not (0.0 <= v <= 1.0):
                    raise RateOutOfRange(f"{name}={v} for tract {tid}")
            elif name in _CENSUS_MONETARY and v < 0:
                raise RateOutOfRange(f"{name}={v} for tract {tid} (negative)")
            if name in _CENSUS_KNOWN:
                known[name] = v
            else:
                extra[name] = v
        out[tid] = CensusRecord(tract_id=tid, extra=extra, **known)
    return out

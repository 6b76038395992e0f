"""Event, tract, and per-tract table ingestion.

Events arrive as CSV (RFC 4180 quoting) whose first line is the header
``user_id,lat,lon,timestamp,text``, or as JSONL with the same keys (a
``*.jsonl`` file); timestamps are ISO-8601 and must carry an explicit
UTC offset. Tract boundaries are a GeoJSON FeatureCollection with a
``tract_id`` property. :func:`read_table` reads every per-tract table:
the census CSV and the value tables of metrics, lorenz and choropleth.

Event parsing is skip-and-count: a bad record is tallied under its error
kind and the stream continues. Multi-million-row exports always contain
some noise, and one broken line must never abort a run. Tract files and
tables are small and authoritative, so they fail fast instead. The tract
file's rules are checked here and each feature's geometry by
``geo.tract_from_feature``.

One scanner over the bytes, :func:`_scan`, sets the event record
boundaries that the split and parse both use. It reads a byte range
one window at a time and never past the range's end, so a parse holds
one window of input, not the range. A block that is not UTF-8 is
decoded line by line, and a record with a line that does not decode is
counted as an UndecodableRecord.

Within a block, CSV records take one of three routes. Quote-free lines
with exactly four commas are split in bulk, one join and one split per
block. A record whose only quotes enclose its text field, on one line or
across several, doubled quotes or not, is split in bulk too: the byte
view tells which records these are (:func:`_text_quoted`), and one split
of them all at every quote gives each its head and text
(:func:`_split_text_quoted`), with no Python function call per record.
Every other record with a quote, in one of the first four fields, in a
run of quotes that does not pair, or longer than
``csv.field_size_limit()`` characters, is split by ``csv.reader`` one
at a time, and so is a record with a CR that is not part of its line's
CRLF ending, which ``csv.reader`` takes for a line break. JSONL rows
are split one at a time.

Every record then meets one rule, as vector masks over the block's
columns, and the first check it fails names its error kind: an empty
user id (as a record without five fields has) or a coordinate ``float``
cannot read is a MalformedRecord, a coordinate out of range (NaN too)
an OutOfRangeCoordinate, and a timestamp that does not parse a
BadTimestamp. Stamps in the ``YYYY-MM-DDTHH:MM:SS`` shape with a
``+HH:MM``, ``+HHMM`` or ``Z`` offset are decoded from a byte view; any
other stamp (a fractional second, a space for the ``T``, a bad date) is
left to ``datetime.fromisoformat``. ``oracles.validate_event_fields`` is
the record-at-a-time reference. Row order and tallies never depend on
the route a record took.

No per-event string outlives its block. Each block's accepted user ids
are interned to integer codes and its texts to the ids of their
hashtags (:func:`_intern_tags`, the only hashtag code, one regex pass
per block), each in one pass over dicts that code a value the first
time it is looked up (:class:`Codes`, :class:`TagIds`), and the block's
strings are then dropped; what the parse returns is the distinct users,
the tag vocabulary and arrays of numbers. Its memory is those arrays
plus one block's work, whatever the size of the range.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import os
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from itertools import compress, repeat
from pathlib import Path
from typing import Iterator, Sequence

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
)
from .geo import rings_to_arrays

EVENT_COLUMNS = ("user_id", "lat", "lon", "timestamp", "text")

# A hashtag is '#' followed by a maximal run of word characters (Unicode
# letters, digits, underscore); tags are casefolded so #NYC == #nyc. The
# run may be empty, so the pattern matches once at every '#': a '#' is
# never a word character.
TAG_PATTERN = re.compile(r"#(\w*)")

# the UTC offset at the end of a stamp that takes the fromisoformat
# fallback; groups are its minutes and seconds, if present
_OFFSET_RE = re.compile(r"[+-]\d{2}(?::?(\d{2})(?::?(\d{2})(?:[.,]\d+)?)?)?\Z", re.ASCII)

# TAG_PATTERN with ASCII word characters, for ASCII text: on it the two
# match alike
_TAG_ASCII = re.compile(TAG_PATTERN.pattern, re.ASCII)

# Bytes per scanner window, the unit parse reads and works in. It bounds
# the bytes and field strings a parse holds at once: every one is dropped
# after its block, user ids and hashtags kept only as integer codes.
_CHUNK = 1 << 18

# The most lines a quoted CSV record may span. A quote that stays open
# longer is taken as unterminated, so a stray quote costs one record
# instead of hiding every record after it.
_RECORD_LINES = 100

# the vector-decoded timestamp shape: YYYY-MM-DDTHH:MM:SS+HH:MM; the
# ...SS+HHMM and ...SSZ widths are widened to it
_TS_WIDTH = 25
_TS_COMPACT_WIDTH = 24
_TS_Z_WIDTH = 20
_TS_UTC = np.frombuffer(b"+00:00", dtype=np.uint8)
_TS_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24])
_TS_SEP_POS = np.array([4, 7, 10, 13, 16, 22])
_TS_SEP = np.frombuffer(b"--T:::", dtype=np.uint8)
_TS_SIGN_POS = 19
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])

@dataclass
class ParseStats:
    """Skip-and-count bookkeeping for one parse run."""

    records_ok: int = 0
    errors: Counter = field(default_factory=Counter)

    @property
    def records_skipped(self) -> int:
        return sum(self.errors.values())

    @property
    def records_total(self) -> int:
        return self.records_ok + self.records_skipped

    def count_error(self, kind: str, n: int = 1) -> None:
        if n:
            self.errors[kind] += n

    def merge(self, other: "ParseStats") -> None:
        self.records_ok += other.records_ok
        self.errors.update(other.errors)

    def summary(self) -> dict:
        """The tallies as ``run`` reports and ``ingest-check`` prints them."""
        return {
            "records_total": self.records_total,
            "records_ok": self.records_ok,
            "records_skipped": self.records_skipped,
            "errors": {k: self.errors[k] for k in sorted(self.errors)},
        }


@dataclass(frozen=True)
class ByteRange:
    """Bytes ``start`` to ``end`` of the file at ``path``, not yet read."""

    path: str
    start: int
    end: int


@dataclass
class EventBatch:
    """Parsed events as columns, in input order. User ids and hashtags
    are interned: each event holds the code of its user, an index into
    ``users``, and its hashtags as ids into ``tags``, the casefolded
    vocabulary; both lists are in order of first appearance."""

    users: list[str]
    user_codes: np.ndarray  # int32, one per event
    lats: np.ndarray | None  # None once the points are no longer needed
    lons: np.ndarray | None
    epochs: np.ndarray  # seconds since the Unix epoch (UTC)
    tags: list[str]
    tag_counts: np.ndarray  # int32, hashtags per event, duplicates kept
    tag_ids: np.ndarray  # int32, one per hashtag occurrence, in event order

    def __len__(self) -> int:
        return len(self.user_codes)

    def take(self, keep: np.ndarray) -> "EventBatch":
        """The events where the boolean mask ``keep`` is set. The user
        and tag lists are shared, so they may name what no event left
        in the batch has; dropped coordinates stay dropped."""
        if keep.all():
            return self  # nothing filtered out
        return EventBatch(
            self.users,
            self.user_codes[keep],
            None if self.lats is None else self.lats[keep],
            None if self.lons is None else self.lons[keep],
            self.epochs[keep],
            self.tags,
            self.tag_counts[keep],
            self.tag_ids[np.repeat(keep, self.tag_counts)],
        )


class Codes(dict):
    """Value -> integer code. A value looked up for the first time gets
    the next code, so codes follow the order of first appearance across
    every lookup."""

    def __missing__(self, value: str) -> int:
        self[value] = code = len(self)
        return code


class TagIds(dict):
    """Raw hashtag -> id of its casefolded form in ``vocab``, a
    :class:`Codes`; the empty tag of a ``#`` that no word follows gets
    -1. Casefolding runs once per distinct raw tag, not per occurrence."""

    def __init__(self) -> None:
        super().__init__()
        self.vocab = Codes()

    def __missing__(self, raw: str) -> int:
        self[raw] = tag_id = self.vocab[raw.casefold()] if raw else -1
        return tag_id


def intern_codes(values: Sequence[str], code_of: dict[str, int]) -> np.ndarray:
    """Each value's code in ``code_of`` (a :class:`Codes` or
    :class:`TagIds`, which code a value on first sight), as int32."""
    return np.fromiter(map(code_of.__getitem__, values), dtype=np.int32, count=len(values))


def recode(vocabs: Sequence[Sequence[str]]) -> tuple[list[str], list[np.ndarray]]:
    """One vocabulary for lists coded apart (each partition's users or
    hashtags), in order of first appearance across the lists, and each
    list's codes in it."""
    code_of = Codes()
    codes = [intern_codes(vocab, code_of) for vocab in vocabs]
    return list(code_of), codes


def _intern_tags(texts: Sequence[str], tag_id_of: TagIds) -> tuple[np.ndarray, np.ndarray]:
    """Every text's hashtags as ids into ``tag_id_of.vocab``, the
    casefolded tags in order of first appearance: (tag count per text,
    id of every tag occurrence in text order), as int32. Calls that share
    ``tag_id_of`` code tags as one call over all their texts would.

    One regex pass over the texts joined by newlines finds every ``#``
    and the tag after it, empty where none follows; a newline is not a
    word character. So each text's ``#`` count sets its share of the
    matches, and its non-empty matches are its tags.
    """
    joined = "\n".join(texts)
    found = (_TAG_ASCII if joined.isascii() else TAG_PATTERN).findall(joined)
    ids = intern_codes(found, tag_id_of)
    tagged = ids >= 0
    hashes = np.fromiter(map(str.count, texts, repeat("#")), dtype=np.int64, count=len(texts))
    # the tags up to each text's end; a text's count is the step at its end
    upto = np.concatenate(([0], np.cumsum(tagged)))[np.cumsum(hashes)]
    return np.diff(upto, prepend=0).astype(np.int32), ids[tagged]


# --- event stream parsing ---------------------------------------------------


def _csv_parse_quoted(record: str) -> list[str] | None:
    try:
        rows = list(csv.reader(io.StringIO(record)))
    except csv.Error:
        return None
    if len(rows) != 1:
        return None
    return rows[0]


def _per_line(at: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """How many of the sorted positions ``at`` fall on each line; line i
    ends at ``ends[i]``."""
    return np.diff(np.searchsorted(at, ends), prepend=0)


def _crlf(view: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Whether each line ends in CRLF."""
    lf = view[ends - 1] == ord("\n")
    return lf & (ends >= 2) & (view[np.maximum(ends - 2, 0)] == ord("\r"))


def _scan(f, start: int, size: int, quoting: bool) -> Iterator[tuple]:
    """Blocks of whole records of the ``size`` bytes of file ``f`` from
    ``start``, one per ``_CHUNK``-byte window (more for a longer record),
    as ``(offset from start, bytes as uint8, line ends, quote positions,
    quotes per line, whether each line's record goes on to the next
    line)``.

    With ``quoting`` (CSV) a record ends at a newline with an even quote
    count since its start, within ``_RECORD_LINES`` lines, or else its
    first line is a record of its own; without it (JSONL) a record is a
    line. A block holds only the records its window decides, so where
    windows fall never moves a boundary.
    """
    pos = 0
    width = _CHUNK
    while pos < size:
        f.seek(start + pos)
        want = min(width, size - pos)  # never a byte past the range
        view = np.frombuffer(f.read(want), dtype=np.uint8)
        if len(view) < want:
            size = pos + len(view)  # the file ends before the range does
        at_end = pos + len(view) >= size
        ends = np.flatnonzero(view == ord("\n")) + 1
        if at_end and (not len(ends) or ends[-1] < len(view)):
            ends = np.append(ends, len(view))
        n = len(ends)
        at = np.flatnonzero(view == ord('"')) if quoting else np.zeros(0, np.int64)
        quotes = _per_line(at, ends)
        odd = np.flatnonzero(quotes & 1).tolist()
        joined = np.zeros(n, dtype=bool)
        i = 0
        while i < len(odd):
            s = odd[i]
            if i + 1 < len(odd) and odd[i + 1] - s < _RECORD_LINES:
                joined[s : odd[i + 1]] = True
                i += 2
            elif at_end or s + _RECORD_LINES <= n:
                i += 1  # unterminated: line s is a record of its own
            else:
                n = s  # the closing line may lie past this window
                break
        if n == 0:
            width *= 2  # no whole record in the window yet
            continue
        used = int(ends[n - 1])
        at = at[: np.searchsorted(at, used)]
        yield pos, view[:used], ends[:n], at, quotes[:n], joined[:n]
        pos += used


def _decode_lines(
    view: np.ndarray, ends: np.ndarray, crlf: np.ndarray
) -> tuple[list[str], set[int]]:
    """A block's lines (line i ends at ``ends[i]``, in CRLF where
    ``crlf`` is set) without their LF or CRLF, and the indexes of the
    lines that are not UTF-8."""
    if crlf.any():
        view = np.delete(view, ends[crlf] - 2)  # the CR of each CRLF
    bad: set[int] = set()
    try:
        text = str(view, "utf-8")
    except UnicodeDecodeError:
        # U+FFFD takes the place of bad bytes only, never of a newline, so
        # a line is UTF-8 exactly when it encodes back to its bytes
        text = str(view, "utf-8", "replace")
        raw = view.tobytes().split(b"\n")
        bad = {i for i, line in enumerate(text.split("\n")) if line.encode() != raw[i]}
    lines = text.split("\n")
    del lines[len(ends) :]
    return lines, bad


def _text_quoted(view, at, commas, starts, stops, quotes, to_reader, firsts, lasts) -> np.ndarray:
    """Whether each record, from line ``firsts[r]`` to ``lasts[r]``,
    quotes its text field and nothing else: its first quote follows the
    fourth comma of its first line, its last quote ends its last line
    (``stops`` is where a line's content stops, before its LF or CRLF;
    ``at`` and ``commas`` are the block's quote and comma positions),
    the quotes between pair up as doubled quotes, and none of its lines
    is marked in ``to_reader``. ``csv.reader`` reads such a record as the
    four fields before the quote and the text with each doubled quote
    made one, and so does :func:`_split_text_quoted`. A record longer
    than ``csv.field_size_limit()`` is left to ``csv.reader``, which
    refuses a field past that limit."""
    first = (np.cumsum(quotes) - quotes)[firsts]  # each record's first quote in ``at``
    count = np.add.reduceat(quotes, firsts)
    ok = (count >= 2) & (count % 2 == 0) & ~np.logical_or.reduceat(to_reader, firsts)
    ok &= stops[lasts] - starts[firsts] <= csv.field_size_limit()
    r = np.flatnonzero(ok)
    first, count = first[r], count[r]
    opens, closes = at[first], at[first + count - 1]
    head_commas = np.searchsorted(commas, opens) - np.searchsorted(commas, starts[firsts[r]])
    ok[r] = (head_commas == 4) & (view[opens - 1] == ord(",")) & (closes == stops[lasts[r]] - 1)
    # quotes 1 and 2 of a record, 3 and 4, and so on, must be neighbours
    pairs = (count - 2) // 2
    before = np.cumsum(pairs) - pairs
    j = np.repeat(first + 1 - 2 * before, pairs) + 2 * np.arange(pairs.sum())
    ok[np.repeat(r, pairs)[at[j + 1] != at[j] + 1]] = False
    return ok


def _split_text_quoted(records: str, quotes: np.ndarray) -> tuple[list[str], list[str]]:
    """The heads (four fields and their commas) and the texts of records
    that :func:`_text_quoted` accepts, given joined by newlines with the
    quote count of each.

    Split at every quote, a record's pieces are its head (after the
    newline that ends the record before it), then its text's pieces
    between its quotes: every second one is the empty piece inside a
    doubled quote, so the others joined by a quote are the text.
    """
    pieces = records.split('"')
    at = np.cumsum(quotes) - quotes  # each record's head among the pieces
    heads = "".join(map(pieces.__getitem__, at.tolist())).split("\n")
    spans = map(slice, (at + 1).tolist(), (at + quotes).tolist(), repeat(2))
    return heads, list(map('"'.join, map(pieces.__getitem__, spans)))


def _csv_records(
    view, ends, crlf, at, quotes, joined, lines, bad, stats
) -> tuple[list[str], list, tuple | None]:
    """One block's CSV records as ``(flat, fielded, texts)``: ``flat``
    holds one four-comma line per record. ``texts`` gives the positions
    and texts of the records whose only quotes enclose their text (see
    :func:`_text_quoted`), split in bulk; their ``flat`` line is their
    head with an empty text. ``fielded`` holds the ``(position, fields)``
    of every other record, split one by one (fields None when
    unparseable; its ``flat`` line is a placeholder). Blank lines are
    skipped, and a record with a line that is not UTF-8 is only counted.

    ``csv.reader`` splits every other record with a quote or a bare CR
    (one that does not end the line as CRLF). It reads an unquoted CR as
    a line break, so a record with a CR inside an unquoted field is a
    MalformedRecord, whether its other fields are quoted or not. A
    quoted record with a NUL goes to ``csv.reader`` too: Python 3.10's
    refuses it, 3.11's reads it."""
    n = len(ends)
    firsts = np.flatnonzero(np.concatenate(([True], ~joined[:-1])))  # each record's first line
    lasts = np.append(firsts[1:], n) - 1
    starts = np.concatenate(([0], ends[:-1]))
    stops = ends - (view[ends - 1] == ord("\n")) - crlf
    bare_cr = _per_line(np.flatnonzero(view == ord("\r")), ends) > crlf
    undecodable = np.zeros(n, dtype=bool)
    undecodable[list(bad)] = True
    undecodable = np.logical_or.reduceat(undecodable, firsts)
    one_line = firsts == lasts
    commas = np.flatnonzero(view == ord(","))
    plain = one_line & (quotes[firsts] == 0) & ~bare_cr[firsts] & ~undecodable
    plain &= _per_line(commas, ends)[firsts] == 4
    stats.count_error("UndecodableRecord", int(undecodable.sum()))
    rows = ~undecodable & ~(one_line & (stops == starts)[firsts])  # not blank
    row_of = np.cumsum(rows) - 1
    nul = _per_line(np.flatnonzero(view == 0), ends) > 0
    quoted = _text_quoted(view, at, commas, starts, stops, quotes, bare_cr | nul, firsts, lasts)
    quoted &= ~undecodable
    other = rows & ~plain & ~quoted
    flat = np.array(lines, dtype=object)[firsts[rows]]
    flat[row_of[other]] = ",,,,"
    texts = None
    if quoted.any():
        span = "\n".join(compress(lines, np.repeat(quoted, lasts - firsts + 1).tolist()))
        heads, found = _split_text_quoted(span, np.add.reduceat(quotes, firsts)[quoted])
        flat[row_of[quoted]] = heads
        texts = row_of[quoted], found
    quotes, bare_cr = quotes.tolist(), bare_cr.tolist()
    fielded: list[tuple[int, list[str] | None]] = []
    for r in np.flatnonzero(other).tolist():
        i, last = int(firsts[r]), int(lasts[r])
        if last > i:
            fields = _csv_parse_quoted("\n".join(lines[i : last + 1]))
        elif quotes[i] % 2 == 0 and (quotes[i] or bare_cr[i]):
            fields = _csv_parse_quoted(lines[i])
        else:
            fields = None  # a quote that never closes, or not four commas
        fielded.append((int(row_of[r]), fields))
    return flat.tolist(), fielded, texts


def _jsonl_records(lines, bad, stats) -> tuple[list[str], list]:
    """One block's JSONL records, as :func:`_csv_records` gives CSV ones."""
    fielded = []
    for i, line in enumerate(lines):
        if i in bad:
            stats.count_error("UndecodableRecord")
        elif line.strip():
            fielded.append((len(fielded), _jsonl_fields(line)))
    return [",,,,"] * len(fielded), fielded


def _jsonl_fields(line: str) -> list[str] | None:
    try:
        obj = json.loads(line)
        uid, lat, lon, ts = obj["user_id"], obj["lat"], obj["lon"], obj["timestamp"]
        text = obj.get("text", "")
    except (ValueError, TypeError, KeyError):  # not JSON, not an object, no such key
        return None
    # json.loads gives exact types, so a bool id is not an int here
    if type(uid) not in (str, int) or not isinstance(ts, str) or not isinstance(text, str):
        return None
    return [str(uid), str(lat), str(lon), ts, text]


def _timestamp_to_epoch(s: str) -> float:
    """Parse one ISO-8601 timestamp with a mandatory UTC offset, for a
    stamp the vector decoder did not accept: epoch seconds, or
    ValueError on any problem. ``datetime.fromisoformat`` reads it, so
    every numeric field must be ASCII digits."""
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


def _columns(flat: list[str], fielded: list, texts: tuple | None) -> list[list[str]]:
    """The five field columns of a chunk of records.

    ``flat`` is split in bulk, and ``texts`` (positions and texts) fill
    the text column where ``flat`` left it empty. Each five-field list in
    ``fielded`` then overwrites its placeholder row. A record without
    five fields keeps the empty placeholder, and its empty user id makes
    it a MalformedRecord.
    """
    fields = ",".join(flat).split(",")
    cols = [fields[c::5] for c in range(5)]
    if texts is not None:
        at, values = texts
        col = np.array(cols[4], dtype=object)
        col[at] = values
        cols[4] = col.tolist()
    for i, rec in fielded:
        if rec is not None and len(rec) == 5:
            for col, value in zip(cols, rec):
                col[i] = value
    return cols


def _float_column(strings: list[str]) -> tuple[np.ndarray, list[int]]:
    """``float`` of every string, NaN where it raises, and the positions
    where it raised: a ``"nan"`` string parses, so NaN alone does not
    tell a MalformedRecord from an OutOfRangeCoordinate."""
    it = iter(strings)
    out: list[float] = []
    raised: list[int] = []
    while True:
        try:
            out.extend(map(float, it))  # keeps what it took before a raise
            return np.array(out, dtype=np.float64), raised
        except ValueError:
            raised.append(len(out))
            out.append(math.nan)


def _fixed_width_epochs(stamps: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode timestamps of one width from a byte view: (epoch seconds,
    accepted mask). The width is 25 for ``YYYY-MM-DDTHH:MM:SS+HH:MM``, 24
    for the ``+HHMM`` offset and 20 for the ``Z`` one; the last two are
    widened to the first, ``Z`` as ``+00:00``.

    A stamp is accepted when every digit position holds an ASCII digit,
    every separator matches, and the date, time and offset are in range;
    the epoch is then exactly what ``oracles.timestamp_epoch_direct``
    computes. Days come from days-from-civil arithmetic (proleptic
    Gregorian).
    """
    b = np.frombuffer("".join(stamps).encode("ascii", "replace"), dtype=np.uint8)
    b = b.reshape(-1, width)
    ok = np.ones(len(b), dtype=bool)
    if width == _TS_Z_WIDTH:
        ok &= b[:, 19] == ord("Z")
        b = np.hstack([b[:, :19], np.broadcast_to(_TS_UTC, (len(b), len(_TS_UTC)))])
    elif width == _TS_COMPACT_WIDTH:
        b = np.insert(b, 22, ord(":"), axis=1)
    d = b[:, _TS_DIGITS].astype(np.int64) - ord("0")
    sign = b[:, _TS_SIGN_POS]
    ok &= ((d >= 0) & (d <= 9)).all(axis=1)
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


def _parse_chunk(flat: list[str], fielded: list, texts: tuple | None, stats: ParseStats):
    """Apply the record rule (see the module docstring) to one chunk of
    records (see :func:`_csv_records`); returns the accepted rows as
    (user ids, texts, (lats, lons, epochs)) in input order."""
    uids, lat_s, lon_s, ts_s, texts = _columns(flat, fielded, texts)
    n = len(uids)
    lats, lat_raised = _float_column(lat_s)
    lons, lon_raised = _float_column(lon_s)
    malformed = np.zeros(n, dtype=bool)
    if "" in uids:
        malformed = ~np.fromiter(map(bool, uids), dtype=bool, count=n)
    malformed[lat_raised] = True
    malformed[lon_raised] = True
    in_range = (lats >= -90.0) & (lats <= 90.0) & (lons >= -180.0) & (lons <= 180.0)
    checked = in_range & ~malformed  # rows whose timestamp decides
    epochs = np.zeros(n, dtype=np.float64)
    ts_ok = np.zeros(n, dtype=bool)
    lengths = np.fromiter(map(len, ts_s), dtype=np.int64, count=n)
    for width in (_TS_WIDTH, _TS_COMPACT_WIDTH, _TS_Z_WIDTH):
        sel = lengths == width
        if sel.any():
            stamps = list(compress(ts_s, sel.tolist()))
            epochs[sel], ts_ok[sel] = _fixed_width_epochs(stamps, width)
    for i in np.flatnonzero(checked & ~ts_ok).tolist():
        try:
            epochs[i] = _timestamp_to_epoch(ts_s[i])
            ts_ok[i] = True
        except ValueError:
            pass
    ok = checked & ts_ok
    stats.count_error("MalformedRecord", int(malformed.sum()))
    stats.count_error("OutOfRangeCoordinate", int((~in_range & ~malformed).sum()))
    stats.count_error("BadTimestamp", int((checked & ~ts_ok).sum()))
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


def _parse_block(view, ends, at, quotes, joined, format, stats, code_of, tag_id_of):
    """The columns of one scanner block's accepted records, as
    :class:`EventBatch` holds them: user codes, lats, lons, epochs, tag
    counts and tag ids. The block's strings die with this call."""
    crlf = _crlf(view, ends)
    lines, bad = _decode_lines(view, ends, crlf)
    if format == "csv":
        flat, fielded, texts = _csv_records(view, ends, crlf, at, quotes, joined, lines, bad, stats)
    else:
        (flat, fielded), texts = _jsonl_records(lines, bad, stats), None
    if not flat:
        return ()
    uids, texts, (lats, lons, epochs) = _parse_chunk(flat, fielded, texts, stats)
    tag_counts, tag_ids = _intern_tags(texts, tag_id_of)
    return intern_codes(uids, code_of), lats, lons, epochs, tag_counts, tag_ids


def parse_event_batch(
    source: ByteRange, format: str = "csv", stats: ParseStats | None = None
) -> EventBatch:
    """Parse a headerless event body into columnar arrays, with user ids
    and hashtags interned block by block. ``source`` is the body's
    :class:`ByteRange` in a file, as :func:`read_byte_range` gives it; it
    is read one window at a time."""
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown event format {format!r}")
    if stats is None:
        stats = ParseStats()
    code_of = Codes()  # user id -> code
    tag_id_of = TagIds()  # raw tag -> id; its vocab: casefolded tag -> id
    # user codes, lats, lons, epochs, tag counts and tag ids, each grown in
    # place: a window's arrays are freed once appended, not kept until a
    # final join, so they leave no holes in the heap
    columns = [array(t) for t in "idddii"]
    with open(source.path, "rb") as f:
        for _, *block in _scan(f, source.start, source.end - source.start, format == "csv"):
            pieces = _parse_block(*block, format, stats, code_of, tag_id_of)
            for col, piece in zip(columns, pieces):
                col.frombytes(memoryview(piece).cast("B"))
    codes, lats, lons, epochs, tag_counts, tag_ids = (
        np.frombuffer(col, col.typecode) for col in columns
    )
    tags = list(tag_id_of.vocab)
    return EventBatch(list(code_of), codes, lats, lons, epochs, tags, tag_counts, tag_ids)


def events_format(path) -> str:
    """The event file's format, from its name: JSONL for ``*.jsonl``, else CSV."""
    return "jsonl" if os.fspath(path).endswith(".jsonl") else "csv"


def partition_byte_ranges(path, k: int, format: str = "csv") -> list[tuple[int, int]]:
    """Check an event file's header and split its body into k byte
    ranges at the record ends of :func:`_scan`: each cut is the first
    record end at or past an equal share of the body.

    A CSV body starts after its header, the first line, whose stripped
    fields must be ``EVENT_COLUMNS`` once a UTF-8 byte order mark is
    dropped (else MalformedRecord); a JSONL body after a byte order mark.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    with open(os.fspath(path), "rb") as f:
        first = f.readline(_CHUNK)  # a header is far shorter
        if format == "csv":
            header = first.decode("utf-8-sig", "replace").rstrip("\r\n")
            fields = _csv_parse_quoted(header)
            if fields is None or [h.strip() for h in fields] != list(EVENT_COLUMNS):
                raise MalformedRecord(
                    f"CSV header must be {','.join(EVENT_COLUMNS)}, got {header[:80]!r}"
                )
            start = len(first)
        else:
            start = len(codecs.BOM_UTF8) if first.startswith(codecs.BOM_UTF8) else 0
        end = os.fstat(f.fileno()).st_size
        targets = [start + (end - start) * i // k for i in range(1, k)]
        cuts: list[int] = []
        blocks = _scan(f, start, end - start, format == "csv") if targets else ()
        for pos, _, ends, _, _, joined in blocks:
            record_ends = start + pos + ends[~joined]
            due = [t for t in targets[len(cuts) :] if t <= record_ends[-1]]
            cuts += record_ends[np.searchsorted(record_ends, due)].tolist()
            if len(cuts) == len(targets):
                break
    bounds = [start, *cuts, *[end] * (k - len(cuts))]
    return list(zip(bounds, bounds[1:]))


def read_byte_range(path, byte_range: tuple[int, int]) -> ByteRange:
    """The byte range of an event file to parse. No byte is read here:
    :func:`parse_event_batch` reads the range window by window, so a
    parse never holds the whole range."""
    return ByteRange(os.fspath(path), *byte_range)


# --- tract file parsing ----------------------------------------------------


def parse_tracts(source: bytes | Path) -> list[dict]:
    """The features of a GeoJSON FeatureCollection of tracts, decoded, in
    file order, from its bytes or its path (read here, so that its bytes
    are dropped before the JSON decode runs).

    The file must be UTF-8 JSON (it may start with a BOM) and a
    FeatureCollection, and each feature must be an object whose
    properties carry a unique, non-empty ``tract_id``. Every id is
    checked before any geometry, which ``geo.tract_from_feature`` checks.
    Each ring of two floats per position is checked into its float64
    array while the text decodes (``geo.rings_to_arrays``), so the
    decode never holds a Python float per vertex of the whole file.
    """
    try:
        text = (source.read_bytes() if isinstance(source, Path) else source).decode("utf-8-sig")
        obj = json.loads(text, object_hook=rings_to_arrays)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise NonPolygonGeometry(f"not valid GeoJSON: {e}") from None
    if not isinstance(obj, dict) or obj.get("type") != "FeatureCollection":
        raise NonPolygonGeometry("input is not a GeoJSON FeatureCollection")
    features = obj.get("features") or []
    if not isinstance(features, list):
        raise NonPolygonGeometry("input is not a GeoJSON FeatureCollection")
    seen: set[str] = set()
    for feat in features:
        props = feat.get("properties") if isinstance(feat, dict) else None
        tid = props.get("tract_id") if isinstance(props, dict) else None
        if tid is None or str(tid) == "":
            raise MissingTractId("feature lacks a tract_id property")
        tid = str(tid)
        if tid in seen:
            raise DuplicateTractId(f"tract_id {tid} repeats in tracts GeoJSON")
        seen.add(tid)
    return features


# --- per-tract tables -------------------------------------------------------

# the indicators every report lists, whether or not the census file has them
CENSUS_COLUMNS = ("median_income", "median_rent", "unemployment_rate")


def read_table(
    data: bytes, name: str, columns: Sequence[str] | None = None, keyed: bool = False
) -> dict[str, dict[str, float]]:
    """Each row of a UTF-8 CSV table, called ``name`` in messages, in file
    order: its id maps to its ``columns`` (all but ``tract_id`` when
    None), blank cells left out. The id is the stripped ``tract_id``,
    which ``keyed`` requires, or else ``rowN`` for the Nth row; blank rows
    are skipped. A header that names a column twice, a missing column, a
    row whose cell count is not the header's, an empty or repeated id and
    a cell that is not a finite number (``nan`` and ``inf`` too) are
    refused."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise MalformedRecord(f"{name} is not UTF-8: {e}") from None
    try:  # universal newlines: a lone CR ends a line, as in a file read as text
        table = list(csv.reader(io.StringIO(text, newline=None)))
    except csv.Error as e:  # a field past csv's size limit
        raise MalformedRecord(f"{name} is not a CSV table: {e}") from None
    header = table[0] if table else []
    at: dict[str, int] = {}
    for i, column in enumerate(h.strip() for h in header):
        if column and column in at:
            raise MalformedRecord(f"column {column!r} repeats in {name}")
        at[column] = i
    id_at = at.get("tract_id")
    if keyed and id_at is None:
        raise MalformedRecord(f"{name} must have a tract_id column")
    if columns is None:
        columns = [h for h in at if h != "tract_id"]
    for column in columns:
        if column not in at:
            raise MalformedRecord(f"column {column!r} not in {name}")
    picked = [(column, at[column]) for column in columns]
    rows: dict[str, dict[str, float]] = {}
    for row in table[1:]:
        if not any(cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise MalformedRecord(f"{name} row has {len(row)} cells, expected {len(header)}")
        rid = f"row{len(rows) + 1}" if id_at is None else row[id_at].strip()
        if not rid:
            raise MissingTractId(f"{name} row with empty tract_id")
        if rid in rows:
            raise DuplicateTractId(f"tract_id {rid} repeats in {name}")
        values: dict[str, float] = {}
        for column, i in picked:
            cell = row[i].strip()
            if not cell:
                continue
            try:
                v = float(cell)
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                where = rid if id_at is None else f"tract {rid}"
                raise NonNumericValue(f"{column}={cell!r} for {where} is not a finite number")
            values[column] = v
        rows[rid] = values
    return rows


def parse_census(data: bytes) -> dict[str, dict[str, float]]:
    """A census indicator CSV as :func:`read_table` reads it, keyed by
    ``tract_id``, every other column numeric. A negative value, or a
    ``*rate`` column's value above 1, is refused with RateOutOfRange.
    Rows for tracts missing from the boundary file are kept here and
    flagged later, so id mismatches stay diagnosable."""
    rows = read_table(data, "census CSV", keyed=True)
    for tid, values in rows.items():
        for name, v in values.items():
            if v < 0:
                raise RateOutOfRange(f"{name}={v} for tract {tid} (negative)")
            if name.endswith("rate") and v > 1.0:
                raise RateOutOfRange(f"{name}={v} for tract {tid}")
    return rows

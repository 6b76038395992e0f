"""Event, tract, and per-tract table ingestion.

Events arrive as CSV (RFC 4180 quoting) whose first line is the header
``user_id,lat,lon,timestamp,text``, or as JSONL with the same keys (a
``*.jsonl`` file); timestamps follow one grammar, RFC 3339's date-time
with a space allowed for the ``T`` and a ``+HHMM`` offset too. Tract
boundaries are a GeoJSON FeatureCollection with a ``tract_id`` property.
:func:`read_table` reads every per-tract table: the census CSV and the
value tables of metrics, lorenz and choropleth.

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

A block becomes the five field columns of its records, in record order,
and the record rule reads only those. CSV records reach them by one of
three routes. Quote-free lines with exactly four commas are split in
bulk, one join and one split per block. A record whose only quotes
enclose its text field, on one line or across several, doubled quotes or
not, is split in bulk too: the byte view tells which records these are
(:func:`_text_quoted`), and one split of them all at every quote gives
each its head and text (:func:`_split_text_quoted`), with no Python
function call per record. Every other record goes to ``csv.reader`` one
at a time when its quote count is even, and keeps empty fields when it
is odd, as a quote that never closes leaves it. These are the records
with a quote in one of the first four fields or in a run of quotes that
does not pair, with a CR that is not part of its line's CRLF ending,
which ``csv.reader`` takes for a line break, or of more bytes than
``csv.field_size_limit()``, quoted or not, whose field may be past the
limit that ``csv.reader`` refuses; a quote-free line whose comma count
is not four meets the reader too, and gets other than five fields. Each
JSONL line is decoded on its own, and one that is not an event object
keeps empty fields.

Every record then meets one rule, as vector masks over the block's
columns, and the first check it fails names its error kind: an empty
user id (as a record without five fields has) or a coordinate ``float``
cannot read is a MalformedRecord, a coordinate out of range (NaN too)
an OutOfRangeCoordinate, and a timestamp outside the grammar or out of
range a BadTimestamp; every stamp of a block is decoded in one pass over
their bytes (:func:`_stamp_epochs`). ``oracles.validate_event_fields``
is the record-at-a-time reference. Row order and tallies never depend on
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
from itertools import compress, repeat
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateTractId,
    MalformedRecord,
    MissingTractId,
    NonNumericValue,
    NonPolygonGeometry,
    RateOutOfRange,
)
from .geo import rings_to_arrays

EVENT_COLUMNS = ("user_id", "lat", "lon", "timestamp", "text")

# A hashtag is '#' followed by a maximal run of word characters (Unicode
# letters, digits, underscore); tags are casefolded so #NYC == #nyc. The
# run may be empty, so the pattern matches once at every '#': a '#' is
# never a word character.
TAG_PATTERN = re.compile(r"#(\w*)")

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

# The timestamp grammar, after RFC 3339's date-time: YYYY-MM-DD, T or a
# space, HH:MM:SS, optionally '.' or ',' and one or more digits, then Z,
# +HH:MM or +HHMM. A stamp's head is its first 19 characters and its
# offset ends it. The digit positions, in two-digit fields (the year is
# two), are the head's and then an offset's hours and minutes as
# :func:`_stamp_epochs` lays them after the head; then the head's
# separators with their positions.
_TS_HEAD = 19
_TS_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 22, 23]
_TS_SEPS = [(4, "-"), (7, "-"), (13, ":"), (16, ":")]
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int32)
# A stamp's instant must be from 0001-01-02T00:00:00Z up to, not
# including, 9999-12-31T00:00:00Z. No UTC offset reaches a day, so every
# kept event has a local date in years 1-9999, which ``datetime`` holds.
_FIRST_EPOCH, _END_EPOCH = -62135510400, 253402214400


class ParseStats:
    """Skip-and-count bookkeeping for one parse run."""

    __slots__ = ("records_ok", "errors")

    def __init__(self) -> None:
        self.records_ok = 0
        self.errors: Counter = Counter()

    def __eq__(self, other):
        if not isinstance(other, ParseStats):
            return NotImplemented
        return (self.records_ok, self.errors) == (other.records_ok, other.errors)

    def __repr__(self) -> str:
        return f"ParseStats(records_ok={self.records_ok!r}, errors={self.errors!r})"

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


class ByteRange(NamedTuple):
    """Bytes ``start`` to ``end`` of the file at ``path``, not yet read."""

    path: str
    start: int
    end: int


class EventBatch:
    """Parsed events as columns, in input order. User ids and hashtags
    are interned: each event holds the code of its user, an index into
    ``users``, and its hashtags as ids into ``tags``, the casefolded
    vocabulary; both lists are in order of first appearance."""

    __slots__ = ("users", "user_codes", "lats", "lons", "epochs", "tags", "tag_counts", "tag_ids")

    def __init__(self, users, user_codes, lats, lons, epochs, tags, tag_counts, tag_ids):
        self.users = users
        self.user_codes = user_codes  # int32, one per event
        self.lats = lats  # None once the points are no longer needed
        self.lons = lons
        self.epochs = epochs  # seconds since the Unix epoch (UTC)
        self.tags = tags
        self.tag_counts = tag_counts  # int32, hashtags per event, duplicates kept
        self.tag_ids = tag_ids  # int32, one per hashtag occurrence, in event order

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


def _text_quoted(view, at, commas, starts, stops, count, to_reader, firsts, lasts) -> np.ndarray:
    """Whether each record, from line ``firsts[r]`` to ``lasts[r]``, with
    ``count[r]`` quotes, quotes its text field and nothing else: its
    first quote follows the fourth comma of its first line, its last
    quote ends its last line (``stops`` is where a line's content stops,
    before its LF or CRLF; ``at`` and ``commas`` are the block's quote
    and comma positions), the quotes between pair up as doubled quotes,
    and it is not marked in ``to_reader`` (one flag per record).
    ``csv.reader`` reads such a record as the four fields before the
    quote and the text with each doubled quote made one, and so does
    :func:`_split_text_quoted`."""
    first = np.cumsum(count) - count  # each record's first quote in ``at``
    ok = (count >= 2) & (count % 2 == 0) & ~to_reader
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


def _csv_records(view, ends, crlf, at, quotes, joined, lines, bad, stats) -> list[list[str]]:
    """One block's CSV records as their five field columns, in record
    order; blank lines are skipped, and a record with a line that is not
    UTF-8 is only counted. Quote-free lines of four commas, and the heads
    of records whose only quotes enclose their text (:func:`_text_quoted`),
    are split in one join and one split, and those texts then fill their
    column. Every other record meets ``csv.reader`` if its quote count is
    even, and keeps empty fields if the reader gives other than five or
    the count is odd.

    Those are the records with a quote in a head field, or with a bare CR
    (one that does not end the line as CRLF), which ``csv.reader`` reads
    as a line break. So is a record of more bytes than
    ``csv.field_size_limit()``, quoted or not: it may hold a field of more
    characters than that, which ``csv.reader`` refuses."""
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
    over = stops[lasts] - starts[firsts] > csv.field_size_limit()
    commas = np.flatnonzero(view == ord(","))
    count = np.add.reduceat(quotes, firsts)  # each record's quotes
    plain = one_line & (count == 0) & ~bare_cr[firsts] & ~over & ~undecodable
    plain &= _per_line(commas, ends)[firsts] == 4
    stats.count_error("UndecodableRecord", int(undecodable.sum()))
    rows = ~undecodable & ~(one_line & (stops == starts)[firsts])  # not blank
    row_of = np.cumsum(rows) - 1
    to_reader = np.logical_or.reduceat(bare_cr, firsts) | over
    quoted = _text_quoted(view, at, commas, starts, stops, count, to_reader, firsts, lasts)
    quoted &= ~undecodable
    other = rows & ~plain & ~quoted
    flat = np.array(lines, dtype=object)[firsts[rows]]
    flat[row_of[other]] = ",,,,"
    texts = []
    if quoted.any():
        span = "\n".join(compress(lines, np.repeat(quoted, lasts - firsts + 1).tolist()))
        flat[row_of[quoted]], texts = _split_text_quoted(span, count[quoted])
    fields = ",".join(flat.tolist()).split(",") if len(flat) else []
    cols = [fields[c::5] for c in range(5)]
    if texts:
        col = np.array(cols[4], dtype=object)
        col[row_of[quoted]] = texts
        cols[4] = col.tolist()
    read = other & (count % 2 == 0)
    for row, i, last in zip(*(a[read].tolist() for a in (row_of, firsts, lasts))):
        record = _csv_parse_quoted("\n".join(lines[i : last + 1]))
        if record is not None and len(record) == 5:
            for col, value in zip(cols, record):
                col[row] = value
    return cols


def _jsonl_records(lines, bad, stats) -> list[list[str]]:
    """One block's JSONL records, one per line that is not blank, as
    :func:`_csv_records` gives CSV ones: a line that is not an event
    object keeps empty fields."""
    rows = []
    for i, line in enumerate(lines):
        if i in bad:
            stats.count_error("UndecodableRecord")
        elif line.strip():
            rows.append(_jsonl_fields(line))
    return list(map(list, zip(*rows))) if rows else [[] for _ in EVENT_COLUMNS]


def _jsonl_fields(line: str) -> tuple[str, ...]:
    empty = ("",) * len(EVENT_COLUMNS)
    try:
        obj = json.loads(line)
        uid, lat, lon, ts = obj["user_id"], obj["lat"], obj["lon"], obj["timestamp"]
        text = obj.get("text", "")
    except (ValueError, TypeError, KeyError):  # not JSON, not an object, no such key
        return empty
    # json.loads gives exact types, so a bool id is not an int here
    if type(uid) not in (str, int) or not isinstance(ts, str) or not isinstance(text, str):
        return empty
    return str(uid), str(lat), str(lon), ts, text


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


def _windows(b: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of the uint8 array ``b`` from each position in
    ``at``, as rows: one gather of ``width``-byte items."""
    items = np.ndarray((len(b) - width + 1,), dtype=f"V{width}", buffer=b, strides=(1,))
    return items[at].view(np.uint8).reshape(-1, width)


def _stamp_epochs(stamps: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Decode a block's timestamps in one pass over their bytes: (epoch
    seconds, accepted mask).

    Each stamp's head is gathered from its start and its offset read from
    its end: ``Z``, ``+HH:MM`` where a colon is third from the end, else
    ``+HHMM``. What lies between must be empty or a fraction. A stamp is
    accepted when every digit position holds an ASCII digit, every
    separator matches, the date, time and offset are in range, and its
    instant is from ``_FIRST_EPOCH`` up to ``_END_EPOCH``.

    The epoch is then exactly what ``oracles.timestamp_epoch_direct``
    computes, as Python's ``datetime`` does: the whole seconds and the
    fraction's first six digits as microseconds (any more are dropped),
    divided by 10**6 with one rounding. Days come from days-from-civil
    arithmetic (proleptic Gregorian). Digits are taken from '0' in uint8,
    where any other byte wraps past 9.
    """
    lengths = np.fromiter(map(len, stamps), dtype=np.int64, count=len(stamps))
    ends = np.cumsum(lengths) + 6
    starts = ends - lengths
    # one byte a character, '?' where not ASCII; the pads keep every window
    # inside the buffer
    b = np.frombuffer("".join([" " * 6, *stamps, " " * 26]).encode("ascii", "replace"), np.uint8)
    head = _windows(b, starts, _TS_HEAD)
    tail = _windows(b, ends - 6, 6)
    zulu = tail[:, 5] == ord("Z")
    width = np.where(zulu, 1, np.where(tail[:, 3] == ord(":"), 6, 5))  # the offset's
    mid = lengths - _TS_HEAD - width  # the fraction's, its point included
    # the head, then an offset's sign and hours and its minutes, which end it
    rows = np.concatenate([head, _windows(b, ends - width, 3), tail[:, 4:]], axis=1)
    sign = rows[:, _TS_HEAD]
    d = rows[:, _TS_DIGITS] - np.uint8(ord("0"))
    ok = (d[:, :-4] <= 9).all(axis=1) & ((mid == 0) | (mid >= 2))
    for pos, sep in _TS_SEPS:
        ok &= head[:, pos] == ord(sep)
    ok &= (head[:, 10] == ord("T")) | (head[:, 10] == ord(" "))
    v = d[:, 0::2].astype(np.int32) * 10 + d[:, 1::2]  # two-digit fields
    year = v[:, 0] * 100 + v[:, 1]
    month, day, hh, mi, ss, oh, om = v[:, 2:].T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 1, 12) - 1] + ((month == 2) & leap)
    ok &= (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hh <= 23) & (mi <= 59) & (ss <= 59)
    signed = (sign == ord("+")) | (sign == ord("-"))
    ok &= zulu | (signed & (d[:, -4:] <= 9).all(axis=1) & (oh <= 23) & (om <= 59))
    offset = (oh * 3600 + om * 60) * ~zulu
    seconds = hh * 3600 + mi * 60 + ss - np.where(sign == ord("-"), -offset, offset)
    y = year - (month <= 2)  # March-based year
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    whole = (era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468) * np.int64(86400)
    whole += seconds
    ok &= (whole >= _FIRST_EPOCH) & (whole < _END_EPOCH)  # no fraction crosses a bound
    epochs = whole.astype(np.float64)
    r = np.flatnonzero(ok & (mid >= 2))
    if len(r):
        point, stop = starts[r] + _TS_HEAD, ends[r] - width[r]
        digits = b - np.uint8(ord("0"))
        nondigit = np.concatenate(([0], np.cumsum(digits > 9)))
        ok[r] = np.isin(b[point], [ord("."), ord(",")]) & (nondigit[stop] == nondigit[point + 1])
        six = _windows(digits, point + 1, 6)  # the first six digits
        kept = np.arange(6) < (stop - point - 1)[:, None]
        micro = (np.where(kept, six, 0) * 10 ** np.arange(5, -1, -1)).sum(axis=1)
        # one rounding of whole * 10**6 + micro over 10**6: below 2**53
        # microseconds one float division gives it; above, where |whole| >=
        # 2**33, no error of micro / 1e6 moves the sum past a halfway point
        w = whole[r]
        epochs[r] = np.where(np.abs(w) < 2**33, (w * 10**6 + micro) / 1e6, w + micro / 1e6)
    return epochs, ok


def _parse_chunk(cols: list[list[str]], stats: ParseStats):
    """Apply the record rule (see the module docstring) to the five field
    columns of one block's records, as :func:`_csv_records` and
    :func:`_jsonl_records` give them; returns the accepted rows as (user
    ids, texts, (lats, lons, epochs)) in input order."""
    uids, lat_s, lon_s, ts_s, texts = cols
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
    epochs, ts_ok = _stamp_epochs(ts_s)
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
        cols = _csv_records(view, ends, crlf, at, quotes, joined, lines, bad, stats)
    else:
        cols = _jsonl_records(lines, bad, stats)
    if not cols[0]:
        return ()
    uids, texts, (lats, lons, epochs) = _parse_chunk(cols, stats)
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
    are skipped. A header that names a column twice or leaves one
    unnamed, a missing column, a row whose cell count is not the
    header's, an empty or repeated id and a cell that is not a finite
    number (``nan`` and ``inf`` too) are refused."""
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
        if not column:
            raise MalformedRecord(f"column {i + 1} of {name} has no name")
        if column in at:
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

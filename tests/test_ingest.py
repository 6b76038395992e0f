import gc
import json
import math
import random
import re
import tracemalloc
from collections import Counter
from datetime import datetime, timezone
from itertools import compress
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import (
    batch_hashtags,
    batch_user_ids,
    events_csv,
    feature_collection,
    parse_body,
    parse_events_file,
    square_feature,
)
from geoineq import ingest, oracles
from geoineq.errors import (
    BadTimestamp,
    DuplicateTractId,
    GeoIneqError,
    IngestError,
    MalformedRecord,
    MissingTractId,
    NonNumericValue,
    NonPolygonGeometry,
    OutOfRangeCoordinate,
    RateOutOfRange,
    UnclosedRing,
)
from geoineq.geo import tract_from_feature
from geoineq.ingest import (
    EVENT_COLUMNS,
    ParseStats,
    parse_census,
    parse_event_batch,
    parse_tracts,
    partition_byte_ranges,
    read_byte_range,
    read_table,
)
from geoineq.oracles import validate_event_fields
from geoineq.synth import SynthParams, generate_city

T_1830Z = datetime(2014, 3, 15, 18, 30, tzinfo=timezone.utc).timestamp()

# (ring, error class, message after "tract T1: ") for refused rings
RING_REFUSALS = [
    ([[0, 0], [1, 0], [0, 0]], UnclosedRing, "ring with < 4 points"),
    ("abcd", UnclosedRing, "ring with < 4 points"),
    ([[0, 0], 5, [1, 1], [0, 0]], NonPolygonGeometry, "malformed coordinates"),
    ([[0, 0], ["1", 0], [1, 1], [0, 0]], NonPolygonGeometry, "coordinate '1' is not a number"),
    ([[0, 0], [True, 0], [1, 1], [0, 0]], NonPolygonGeometry, "coordinate True is not a number"),
    ([[0, 0], [None, 0], [1, 1], [0, 0]], NonPolygonGeometry, "coordinate None is not a number"),
    ([[0, 0], {"a": 1}, [1, 1], [0, 0]], NonPolygonGeometry, "coordinate 'a' is not a number"),
    ([[0, 0], [1], [1, 1], [0, 0]], NonPolygonGeometry, "malformed coordinates"),
    ([[0], [1], [1], [0]], NonPolygonGeometry, "malformed coordinates"),
    ([{}, {}, {}, {}], NonPolygonGeometry, "malformed coordinates"),
    (["", "", "", ""], NonPolygonGeometry, "malformed coordinates"),
    ([[0, 0], [10**400, 0], [1, 1], [0, 0]], NonPolygonGeometry, "malformed coordinates"),
    ([[0, 0], [1, 0], [1, 1], [0, 1]], UnclosedRing, "ring not closed"),
]


def _floated(value):
    """``value`` with every int a float can hold exactly made a float, so
    that a ring of two numbers per position is one the decode converts."""
    if isinstance(value, list):
        return [_floated(v) for v in value]
    if type(value) is int and abs(value) < 2**53:
        return float(value)
    return value


def _tract_outcomes(features) -> list:
    """Per feature: its tract's ring bytes, bbox and area as ``repr``
    (NaN-safe), or the class and message of its refusal."""
    out = []
    for feat in features:
        try:
            t = tract_from_feature(feat)
        except GeoIneqError as e:
            out.append((type(e), str(e)))
            continue
        rings = [[(r.dtype.str, r.shape, r.tobytes()) for r in poly] for poly in t.polygons]
        out.append((rings, repr(t.bbox), repr(t.area_km2), t.geometry_type, t.properties))
    return out


def _both_routes(data: bytes) -> tuple[list, list]:
    """The tracts of ``data`` through ``parse_tracts``, whose decode
    checks rings into arrays, and through a plain ``json.loads``, whose
    rings reach ``tract_from_feature`` as lists."""
    return _tract_outcomes(parse_tracts(data)), _tract_outcomes(json.loads(data)["features"])


@st.composite
def _ring_files(draw):
    """A tracts file of Polygons and MultiPolygons, some with holes, whose
    rings may hold ints, altitudes, NaN, 17-digit floats, short
    positions, or be short or unclosed."""
    coord = st.one_of(
        st.floats(-180, 180), st.integers(-180, 180),
        st.floats(-180, 180).map(lambda v: v + 1.2345678901234567e-9),
    )
    size = st.one_of(st.floats(1e-6, 5), st.integers(1, 5))
    flaw = st.sampled_from(["", "", "", "int", "altitude", "nan", "short", "unclosed",
                            "position", "17-digit"])

    def ring(x0, y0, w, h):
        pts = [[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]]
        for _ in range(draw(st.integers(0, 3))):  # collinear extra vertices on the first edge
            pts.insert(1, [x0 + w * draw(st.floats(0, 1)), y0])
        kind = draw(flaw)
        i = draw(st.integers(0, len(pts) - 1))
        if kind == "int":
            pts[i] = [int(v) if math.isfinite(v) else v for v in pts[i]]
        elif kind == "altitude":
            pts[i] = pts[i] + [draw(st.one_of(st.floats(allow_nan=False), st.integers()))]
        elif kind == "nan":
            pts[i] = [math.nan, pts[i][1]]
        elif kind == "17-digit":
            pts[i] = [pts[i][0] + 0.30000000000000004, pts[i][1]]
        elif kind == "position":
            pts[i] = pts[i][:1]
        if kind == "short":
            return pts[:2] + pts[:1]
        return pts if kind == "unclosed" else pts + [list(pts[0])]

    features = []
    for k in range(draw(st.integers(1, 4))):
        polygons = []
        for _ in range(draw(st.integers(1, 3))):
            x0, y0, w, h = draw(coord), draw(coord), draw(size), draw(size)
            rings = [ring(x0, y0, w, h)]
            if draw(st.booleans()):
                rings.append(ring(x0 + w / 4, y0 + h / 4, w / 2, h / 2))
            polygons.append(rings)
        if len(polygons) == 1 and draw(st.booleans()):
            geometry = {"type": "Polygon", "coordinates": polygons[0]}
        else:
            geometry = {"type": "MultiPolygon", "coordinates": polygons}
        features.append({"type": "Feature", "properties": {"tract_id": f"T{k}"},
                         "geometry": geometry})
    return feature_collection(features)


class TestParseEvents:
    def test_direct_field_mapping(self):
        data = events_csv(['u1,40.7128,-74.0060,2014-03-15T14:30:00-04:00,"great day #nyc"'])
        stats = ParseStats()
        batch = parse_events_file(data, "csv", stats)
        assert stats.records_ok == 1 and stats.records_skipped == 0
        assert batch_user_ids(batch) == ["u1"]
        assert batch.lats.tolist() == [40.7128]
        assert batch.lons.tolist() == [-74.0060]
        assert batch_hashtags(batch) == [["nyc"]]
        assert batch.epochs.tolist() == [T_1830Z]

    def test_lat_out_of_range_skipped(self):
        data = events_csv(["u2,91.0,-74.0,2014-03-15T14:30:00-04:00,x"])
        stats = ParseStats()
        assert len(parse_events_file(data, "csv", stats)) == 0
        assert stats.records_skipped == 1
        assert stats.errors["OutOfRangeCoordinate"] == 1

    def test_bad_timestamp_skipped(self):
        data = events_csv(["u3,40.7,-74.0,not-a-time,x"])
        stats = ParseStats()
        assert len(parse_events_file(data, "csv", stats)) == 0
        assert stats.errors["BadTimestamp"] == 1

    def test_naive_timestamp_rejected(self):
        data = events_csv(["u4,40.7,-74.0,2014-03-15T14:30:00,x"])
        stats = ParseStats()
        assert len(parse_events_file(data, "csv", stats)) == 0
        assert stats.errors["BadTimestamp"] == 1

    def test_zulu_and_compact_offsets(self):
        data = events_csv(
            [
                "u1,40.7,-74.0,2014-03-15T18:30:00Z,a",
                "u2,40.7,-74.0,2014-03-15T14:30:00-0400,b",
            ]
        )
        epochs = parse_events_file(data).epochs.tolist()
        assert len(epochs) == 2 and epochs[0] == epochs[1]

    def test_quoted_comma_and_newline(self):
        data = events_csv(
            [
                'u1,40.7,-74.0,2014-03-15T14:30:00-04:00,"#hello,#world"',
                'u2,40.7,-74.0,2014-03-15T14:31:00-04:00,"line #one\n#two ""#three"""',
            ]
        )
        stats = ParseStats()
        batch = parse_events_file(data, "csv", stats)
        assert stats.records_ok == 2
        assert batch_user_ids(batch) == ["u1", "u2"]
        assert batch_hashtags(batch) == [["hello", "world"], ["one", "two", "three"]]

    def test_header_required(self):
        with pytest.raises(MalformedRecord):
            parse_events_file(b"uid,lat,lon,ts,text\na,1,2,3,4\n")

    def test_jsonl_matches_csv(self):
        rows = [
            {"user_id": "u1", "lat": 40.7, "lon": -74.0,
             "timestamp": "2014-03-15T14:30:00-04:00", "text": "#a b"},
        ]
        jsonl = "\n".join(json.dumps(r) for r in rows).encode()
        csv_data = events_csv(["u1,40.7,-74.0,2014-03-15T14:30:00-04:00,#a b"])
        b_j = parse_events_file(jsonl, "jsonl")
        b_c = parse_events_file(csv_data, "csv")
        decoded = [(batch_user_ids(b), batch_hashtags(b)) for b in (b_j, b_c)]
        assert decoded == [(["u1"], [["a"]])] * 2
        for col in ("lats", "lons", "epochs"):
            assert getattr(b_j, col).tolist() == getattr(b_c, col).tolist()

    def test_jsonl_errors_counted(self):
        data = b"\n".join(
            [
                b"not json at all {",
                b'{"user_id": "u", "lat": 1}',
                b'{"user_id": "u", "lat": 95, "lon": 0, "timestamp": "2014-03-15T14:30:00Z", "text": ""}',
                b'{"user_id": "u", "lat": 1, "lon": 0, "timestamp": "2014-03-15T14:30:00Z", "text": ""}',
            ]
        )
        stats = ParseStats()
        assert len(parse_events_file(data, "jsonl", stats)) == 1
        assert stats.errors["MalformedRecord"] == 2
        assert stats.errors["OutOfRangeCoordinate"] == 1

    def test_accounting_identity(self):
        rows = [
            "u1,40.7,-74.0,2014-03-15T14:30:00-04:00,ok",
            "u2,91.0,-74.0,2014-03-15T14:30:00-04:00,bad lat",
            "u3,40.7,-74.0,never,bad time",
            "u4,40.7",
            "u5,40.7,-74.0,2014-03-15T14:30:00-04:00,ok",
        ]
        stats = ParseStats()
        batch = parse_events_file(events_csv(rows), "csv", stats)
        assert stats.records_total == len(rows)
        assert stats.records_ok == len(batch) == 2
        assert stats.records_skipped == 3

    def test_validate_single_record_helper(self):
        assert validate_event_fields(
            ["u1", "40.7", "-74.0", "2014-03-15T14:30:00-04:00", "hi"]
        ) == ("u1", 40.7, -74.0, T_1830Z, "hi")
        with pytest.raises(OutOfRangeCoordinate):
            validate_event_fields(["u", "91", "0", "2014-03-15T14:30:00Z", ""])
        with pytest.raises(BadTimestamp):
            validate_event_fields(["u", "1", "0", "2014-03-15T99:00:00Z", ""])
        with pytest.raises(MalformedRecord):
            validate_event_fields(["", "1", "0", "2014-03-15T14:30:00Z", ""])

    def test_fast_and_slow_timestamp_paths_agree(self):
        # same instants, three spellings: +HH:MM, Z, a fraction of zeros
        variants = [
            "2014-11-02T01:30:00-05:00",
            "2014-11-02T06:30:00Z",
            "2014-11-02T06:30:00.000000+00:00",
        ]
        rows = [f"u{i},40.7,-74.0,{ts},x" for i, ts in enumerate(variants)]
        epochs = parse_events_file(events_csv(rows)).epochs.tolist()
        assert len(epochs) == 3 and len(set(epochs)) == 1

    @pytest.mark.parametrize(
        "ts",
        [
            "2014-+3-01T08:03:00-05:00",  # int() takes a sign
            "2014-03-01T0 :03:00-05:00",  # ... and surrounding spaces
            "2_01-03-01T08:03:00-05:00",  # ... and underscores
            "\u0662\u0660\u0661\u0664-03-01T08:03:00-05:00",  # ... and Arabic-Indic digits
            "2014-03-01T08:03:0\u0660Z",  # the Z and compact-offset forms too
            "2014-03-01T08:03:00-05\u06600",
        ],
    )
    def test_timestamp_fields_need_ascii_digits(self, ts):
        stats = ParseStats()
        batch = parse_events_file(events_csv([f"u,40.7,-74.0,{ts},x"]), "csv", stats)
        assert len(batch) == 0
        assert stats.errors == Counter({"BadTimestamp": 1})
        with pytest.raises(BadTimestamp):
            validate_event_fields(["u", "40.7", "-74.0", ts, "x"])

    def test_timestamp_with_trailing_newline_rejected(self):
        ts = "2014-03-01T08:03:00-05:00\n"
        stats = ParseStats()
        batch = parse_events_file(events_csv([f'u,40.7,-74.0,"{ts}",x']), "csv", stats)
        assert len(batch) == 0 and stats.errors == Counter({"BadTimestamp": 1})
        line = json.dumps({"user_id": "u", "lat": 40.7, "lon": -74.0, "timestamp": ts})
        stats = ParseStats()
        assert len(parse_events_file(line.encode(), "jsonl", stats)) == 0
        assert stats.errors == Counter({"BadTimestamp": 1})
        with pytest.raises(BadTimestamp):
            validate_event_fields(["u", "40.7", "-74.0", ts, "x"])

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1),  # corrupt flag
                st.floats(min_value=-89.9, max_value=89.9),
                st.floats(min_value=-179.9, max_value=179.9),
            ),
            max_size=30,
        )
    )
    def test_ok_plus_skipped_equals_total(self, rows):
        lines = []
        for corrupt, lat, lon in rows:
            if corrupt:
                lines.append("uX,999,999,nope")
            else:
                lines.append(f"u,{lat!r},{lon!r},2014-03-15T14:30:00-04:00,t")
        stats = ParseStats()
        body = events_csv(lines) if lines else b"user_id,lat,lon,timestamp,text\n"
        got = parse_events_file(body, "csv", stats)
        assert stats.records_ok + stats.records_skipped == len(lines)
        assert len(got) == stats.records_ok


def _grammar_stamp(year, fields, sep, point, fraction, offset):
    """A stamp of the timestamp grammar's shape; ``offset`` is Z or
    (layout, sign, hours, minutes), and ``fraction`` may be empty."""
    ts = "{:04d}-{:02d}-{:02d}{}{:02d}:{:02d}:{:02d}".format(year, *fields[:2], sep, *fields[2:])
    if fraction:
        ts += point + fraction
    if offset == "Z":
        return ts + "Z"
    layout, sign, oh, om = offset
    return ts + (f"{sign}{oh:02d}:{om:02d}" if layout == "+HH:MM" else f"{sign}{oh:02d}{om:02d}")


_FRACTIONS = st.text("0123456789", min_size=1, max_size=9)
_OFFSETS = st.one_of(
    st.just("Z"),
    st.tuples(st.sampled_from(["+HH:MM", "+HHMM"]), st.sampled_from("+-"),
              st.integers(0, 23), st.integers(0, 59)),
)
# the instants ingest keeps: a day inside the UTC years 1-9999
_FIRST_INSTANT = datetime(1, 1, 2, tzinfo=timezone.utc)
_END_INSTANT = datetime(9999, 12, 31, tzinfo=timezone.utc)

# every stamp of the grammar: years 1-9999, both separators, no fraction
# or one of 1 to 9 digits after either point, and all three offsets
_GRAMMAR_STAMPS = st.builds(
    lambda t, sep, point, fraction, offset: _grammar_stamp(
        t.year, (t.month, t.day, t.hour, t.minute, t.second), sep, point, fraction, offset),
    st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)),
    st.sampled_from("T "), st.sampled_from(".,"), st.just("") | _FRACTIONS, _OFFSETS,
)


@st.composite
def _decoder_stamp(draw):
    """A stamp of the grammar's shape with fields at and past their
    ranges, then up to two characters replaced, by bytes next to the
    digits ('/' and ':'), a NUL, non-ASCII letters and digits, a point,
    a separator or a digit, or dropped."""
    year = draw(st.sampled_from([0, 1, 2, 1900, 1969, 1970, 2000, 2014, 2016, 2100, 9999])
                | st.integers(0, 9999))
    fields = [draw(st.integers(lo, hi)) for lo, hi in [(0, 13), (0, 32), (0, 24), (0, 60), (0, 60)]]
    offset = draw(st.just("Z") | st.tuples(
        st.sampled_from(["+HH:MM", "+HHMM"]), st.sampled_from("+-"),
        st.integers(0, 24), st.integers(0, 60)))
    ts = list(_grammar_stamp(year, fields, draw(st.sampled_from("T ")), draw(st.sampled_from(".,")),
                             draw(st.just("") | _FRACTIONS), offset))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(ts) - 1))
        ts[at] = draw(st.sampled_from(["/", ":", "\x00", "\u00e9", "\u0660", "\x7f", " ", "T",
                                       "t", "Z", "+", "-", ".", ",", "0", "9", ""]))
    return "".join(ts)


_DECODER_STAMPS = _decoder_stamp()


_UIDS = st.sampled_from(["u1", "L00042", "", "ü", "a b", 'q"u', "c,d"])
_COORDS = st.one_of(
    st.sampled_from(
        ["40.7", "-74.0", "0", "-0", "90", "-180", "90.0001", "-181", "nan", "inf",
         "1_0", " 12 ", "1e1", "abc", "", "\u0663"]
    ),
    st.floats(-200, 200).map(repr),
)
_STAMPS = st.one_of(
    st.sampled_from(
        [
            "2014-03-01T08:03:00-05:00",
            "2014-03-01T13:03:00Z",
            "2014-03-01T08:03:00-0500",
            "2014-03-01T08:03:00.5-05:00",
            "2014-03-01T08:03:00",
            "2014-03-01 08:03:00-05:00",
            "2014-02-29T08:03:00+01:00",
            "2016-02-29T08:03:00+01:00",
            "2014-03-01T24:00:00+00:00",
            "2014-03-01T08:03:00+05:75",
            "2014-03-01T08:03:00+0575",
            "2014-03-01T08:03:00.5+05:75",
            "2014-03-01T08:03:00+05:75:00",
            "2014-03-01T08:03:00+23:99",
            "1900-02-29T08:03:00+00:00",
            "2000-02-29T08:03:00+00:00",
            "2014-+3-01T08:03:00-05:00",
            "never",
            "",
        ]
    ),
    _GRAMMAR_STAMPS,  # valid
    _DECODER_STAMPS,  # fields in and out of range, bytes replaced
)
# hashtags right next to quotes, commas and newlines, so that a record
# split in the wrong place changes the tags it yields
_TEXTS = st.lists(
    st.sampled_from(
        ["#a", "#B", "#é", "#İ", "a", " ", "#", ",", '"', "\n", ",#b", '"#a', "\n#A", '#a"',
         "#b,", "#é\n"]
    ),
    max_size=6,
).map("".join)
# texts from '#', '##', '_', digits, non-ASCII letters, NUL and newlines
_TAG_TEXTS = st.lists(
    st.sampled_from(["#", "##", "_", "7", "a", "Z", "é", "İ", "ß", "\x00", "\n", " ", ","]),
    max_size=12,
).map("".join)
_RULE_EDGES = [
    ("", "abc", "abc", "never", "x"),  # MalformedRecord comes first
    ("u", "nan", "-74.0", "never", "x"),  # then OutOfRangeCoordinate: nan parses
    ("u", "40.7", "-74.0", "2014-03-01 08:03:00-05:00", "x"),  # a space for the T
    ("u", "40.7", "-74.0", "2014-03-01T08:03:00.5-05:00", "x"),
]
_RECORDS = st.lists(
    st.tuples(
        st.tuples(_UIDS, _COORDS, _COORDS, _STAMPS, _TEXTS),
        st.integers(4, 6),  # field count
        st.booleans(),  # quote every field
        st.booleans(),  # blank line before the record
    ),
    max_size=25,
)


def _csv_line(fields, quote_all):
    return ",".join(
        '"' + f.replace('"', '""') + '"' if quote_all or any(c in f for c in ',"\n') else f
        for f in fields
    )


def _reference(records):
    """validate_event_fields applied record by record, with each text's
    hashtags (oracles.hashtags_direct) in place of the text: (rows,
    tallies)."""
    rows, errors = [], Counter()
    for fields in records:
        try:
            *row, text = validate_event_fields(fields)
        except IngestError as e:
            errors[type(e).__name__] += 1
        else:
            rows.append((*row, oracles.hashtags_direct(text)))
    return rows, errors


def _assert_matches_reference(batch, stats, records):
    rows, errors = _reference(records)
    got = list(
        zip(batch_user_ids(batch), batch.lats.tolist(), batch.lons.tolist(),
            batch.epochs.tolist(), batch_hashtags(batch))
    )
    assert got == rows
    assert stats.errors == errors
    assert stats.records_ok == len(rows)
    assert stats.records_skipped == len(records) - len(rows)




class TestColumnarParse:
    """parse_event_batch must equal the per-record reference, record by
    record, whichever route (bulk split, quoted text, csv.reader) each
    record takes."""

    # the record rule's order and the timestamp grammar, on the bulk
    # route and the quoted one
    @given(_RECORDS, st.booleans(), st.booleans())
    @example(drawn=[(r, 5, quote_all, False) for quote_all in (False, True) for r in _RULE_EDGES],
             crlf=False, header=True)
    def test_csv_matches_reference(self, drawn, crlf, header):
        records, lines = [], ["user_id,lat,lon,timestamp,text"] if header else []
        for fields, n_fields, quote_all, blank in drawn:
            fields = list(fields[:n_fields]) + ["x"] * (n_fields - 5)
            records.append(fields)
            lines += [""] * blank + [_csv_line(fields, quote_all)]
        body = ("\r\n" if crlf else "\n").join(lines) + "\n"
        stats = ParseStats()
        parse = parse_events_file if header else parse_body
        batch = parse(body.encode(), "csv", stats)
        _assert_matches_reference(batch, stats, records)

    @given(_RECORDS, st.booleans())
    def test_jsonl_matches_reference(self, drawn, crlf):
        records, lines = [], []
        for fields, n_fields, _, blank in drawn:
            if n_fields == 5:
                records.append(list(fields))
                lines.append(json.dumps(dict(zip(EVENT_COLUMNS, fields))))
            else:
                records.append([])  # not JSON: a MalformedRecord
                lines.append("{not json")
            lines += [""] * blank
        body = ("\r\n" if crlf else "\n").join(lines)
        stats = ParseStats()
        batch = parse_events_file(body.encode(), "jsonl", stats)
        _assert_matches_reference(batch, stats, records)

    def test_timestamp_boundaries(self):
        # an instant must be from 0001-01-02T00:00:00Z up to, not
        # including, 9999-12-31T00:00:00Z
        valid = [
            "0001-01-02T00:00:00Z", "0001-01-02T23:59:00+23:59",
            "9999-12-30T23:59:59.9999999Z", "9999-12-30T00:00:00-23:59",
            "1970-01-01T00:00:00-00:00", "2000-02-29T08:03:00+00:00",
            "2016-02-29T08:03:00+00:00", "2014-03-01T08:03:00+0559",
            "2014-03-01T08:03:00Z", "2014-03-01 08:03:00.5+05:00",
            "2014-03-01T08:03:00+0000", "2014-03-01T08:03:00-0559",
            "2014-03-01 08:03:00Z", "2000-02-29T23:59:59Z",
            "2014-03-01T08:03:00,123456789-0559", "1969-12-31T23:59:59.999999Z",
        ]
        invalid = [
            "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-23:59",
            "0001-01-01T00:00:00.000001+23:59", "9999-12-31T23:59:59.9999999-23:59",
            "0001-01-01T23:59:59.999999Z", "0001-01-02T00:00:00+00:01",
            "9999-12-31T00:00:00Z", "9999-12-30T00:01:00-23:59",
            "0000-01-01T00:00:00+00:00",
            "2014-03-01T24:00:00+00:00", "2014-03-01T23:60:00+00:00",
            "2014-03-01T23:59:60+00:00", "2014-03-01T08:03:00+24:00",
            "2014-03-01T08:03:00+23:60", "2014-03-01T08:03:00+23:99",
            "2014-03-01T08:03:00+05:75", "2014-03-01T08:03:00+0575",
            "2014-03-01T08:03:00.5+05:75", "2014-03-01T08:03:00+05:75:00",
            "2014-03-01T08:03:00+05:00:75", "1900-02-29T08:03:00+00:00", "2100-02-29T08:03:00+00:00",
            "2014-02-29T08:03:00+00:00", "2014-04-31T08:03:00+00:00",
            "2014-00-10T08:03:00+00:00", "2014-13-10T08:03:00+00:00",
            "2014-12-00T08:03:00+00:00", "2014-12-32T08:03:00+00:00",
            "2014-03-01T08:03:00*05:00", "2014/03/01T08:03:00+05:00",
            "2014-03-01T23:59:60Z", "2014-03-01T08:03:00z", "2014-03-01T08:03:00+2400",
            "2014-03-01T08-03-00Z", "2014/03/01T08:03:00Z", "2014-02-29T08:03:00Z",
            "2014-03-01T08:03:00*0500", "2014-03-01t08:03:00+05:00",
            "2014-03-01T08:03:00.+05:00", "2014-03-01T08:03:00.5.5Z", "2014-03-01T08:03:00.5 Z",
            "2014-03-01T08:03:00..5Z", "2014-03-01T08:03:00.5", "2014-03-01T08:03:00.\u0665Z",
        ]
        records = [["u", "40.7", "-74.0", ts, ""] for ts in valid + invalid]
        for fmt, data in [
            ("csv", events_csv([_csv_line(r, False) for r in records])),
            ("jsonl", "\n".join(json.dumps(dict(zip(EVENT_COLUMNS, r))) for r in records).encode()),
        ]:
            stats = ParseStats()
            batch = parse_events_file(data, fmt, stats)
            _assert_matches_reference(batch, stats, records)
            assert stats.records_ok == len(valid), fmt
            assert stats.errors == Counter({"BadTimestamp": len(invalid)}), fmt

    def test_vector_decoder_widths(self):
        # every offset layout, with and without a fraction, is decoded in
        # the one pass; what it accepts, the field-by-field reference reads
        # to the same epoch
        accepted = ["2014-03-01T08:03:00Z", "2014-03-01T08:03:00+0000",
                    "2014-03-01T08:03:00-0559", "2014-03-01T08:03:00+05:59",
                    "2014-03-01 08:03:00Z", "2014-03-01T08:03:00.5Z",
                    "2014-03-01T08:03:00,25+0530", "2014-03-01T08:03:00.123456789-05:00"]
        rejected = ["2014-03-01T08:03:00z", "2014-03-01T08:03:00+2400",
                    "2014-03-01T08:03:00+0575", "2014-03-01T08:03:00.5+05",
                    "2014-03-01T08:03:00.Z", "2014-03-01T08:03:00.5+05:3"]
        epochs, ok = ingest._stamp_epochs(accepted + rejected)
        assert ok.tolist() == [True] * len(accepted) + [False] * len(rejected)
        assert epochs[ok].tolist() == [oracles.timestamp_epoch_direct(ts) for ts in accepted]

    @given(st.lists(_DECODER_STAMPS, min_size=1, max_size=30))
    @example(["2016-02-29T00:00:00Z", "2014-02-29T00:00:00Z", "2000-02-29T12:00:00+0000",
              "1900-02-29T12:00:00+00:00", "0001-01-01T00:00:00+23:59",
              "0001-01-01T00:00:00-2359", "9999-12-31T23:59:59-23:59", "9999-12-31T23:59:59Z",
              "0000-12-31T23:59:59Z", "2014-03-01T08:03:00+24:00", "2014-03-01T08:03:00-2360",
              "2014-03-01T08:03:00+23:60", "2014-03-01T08:03:/0Z", "2014-03-01T08:03:0:Z",
              "2014-03-01T08:03:00+05:/0", "2014-03-01T08:03:00+05:0:", "2014-03-01T08:03:00+0:00",
              "2014-03-01T08:03:00+05\x0000", "2014-03-01T08:03:00\u00e9", "\u00e9014-03-01T08:03:00Z",
              "2014-03-01T08:03:00-05\u06600", "2014-03-01 08:03:00Z", "2014-03-01T08:03:00*0500",
              "2014-03-01T08:03:00.5Z", "2014-03-01T08:03:00.Z", "2014-03-01T08:03:00.5/Z",
              "2014-03-01T08:03:00.12345678:Z", "1970-01-01T00:00:00.314326Z",
              "1969-12-31T23:59:58.314326Z", "9999-12-31T23:59:59.999999-23:59",
              "0001-01-01T00:00:00.000001+23:59", "2014-03-01T08:03:00.5", "Z", ""])
    def test_vector_decoder_matches_oracle(self, stamps):
        # the decoder accepts exactly the stamps that the field-by-field
        # reference reads, and to the same epoch
        epochs, ok = ingest._stamp_epochs(stamps)
        for ts, epoch, accepted in zip(stamps, epochs.tolist(), ok.tolist()):
            try:
                want = oracles.timestamp_epoch_direct(ts)
            except ValueError:
                want = None
            assert (accepted, epoch if accepted else None) == (want is not None, want), ts

    @given(st.lists(_GRAMMAR_STAMPS, min_size=1, max_size=30))
    @example(["1970-01-01T00:00:00.314326Z", "0001-01-01 00:00:00,000001+2359",
              "9999-12-31T23:59:59.123456789-23:59", "2255-06-01T00:00:00.999999Z"])
    def test_grammar_stamps_read_as_fromisoformat(self, stamps):
        # every stamp of the grammar whose instant ingest keeps gets the
        # epoch that Python 3.11's datetime.fromisoformat gives it, bit for
        # bit: the reading before the grammar was declared
        epochs, ok = ingest._stamp_epochs(stamps)
        instants = [datetime.fromisoformat(ts) for ts in stamps]
        assert ok.tolist() == [_FIRST_INSTANT <= t < _END_INSTANT for t in instants]
        want = [t.timestamp() for t in compress(instants, ok)]
        assert epochs[ok].tolist() == want
        assert [oracles.timestamp_epoch_direct(ts) for ts in compress(stamps, ok)] == want

    def test_stamps_outside_grammar_refused(self):
        # shapes that datetime.fromisoformat read before the grammar was
        # declared, and that are now a BadTimestamp on every route
        stamps = ["20140301T080300+05:00", "2014-03-01T080300Z", "2014-03-01T08+05:00",
                  "2014-03-01T08:03+05:00", "2014-W09-6T08:03:00+05:00", "2014-03-01T08:03:00+05",
                  "2014-03-01T08:03:00+05:30:59.5", "2014-03-01T08:03:00+05:00:00",
                  "2014-03-01T08:03:00.+05:00", "2014-03-01t08:03:00+05:00",
                  "2014-03-01X08:03:00+05:00", "2014-03-01T08:03:00.1234567a+05:00",
                  "2014-03-01T08:03:00 Z", "2014-03-01T08:03:00:5Z", "2014-03-01T08:03,5+05:00"]
        rows = [["u", "40.7", "-74.0", ts, ""] for ts in stamps]
        for fmt, data in [
            ("csv", events_csv([_csv_line(r, False) for r in rows])),
            ("jsonl", "\n".join(json.dumps(dict(zip(EVENT_COLUMNS, r))) for r in rows).encode()),
        ]:
            stats = ParseStats()
            assert len(parse_events_file(data, fmt, stats)) == 0
            assert stats.errors == Counter({"BadTimestamp": len(stamps)}), fmt
        for ts in stamps:
            with pytest.raises(BadTimestamp):
                validate_event_fields(["u", "40.7", "-74.0", ts, ""])

    def test_quoted_record_across_chunk_boundary(self, monkeypatch):
        # the first window ends inside the quoted record's middle line,
        # which looks like a plain record: the record must move whole to
        # the next window
        records = [[f"u{i}", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", ""]
                   for i in range(50)]
        records.append(["v", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", "x\na,b,c,d,e\ny"])
        records.append(["w", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", ""])
        data = events_csv([_csv_line(r, False) for r in records])
        body_start = data.index(b"\n") + 1
        monkeypatch.setattr(ingest, "_CHUNK", data.index(b"a,b,c,d,e") + 3 - body_start)
        stats = ParseStats()
        batch = parse_events_file(data, "csv", stats)
        _assert_matches_reference(batch, stats, records)

    def test_input_longer_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(ingest, "_CHUNK", 4096)
        rng = random.Random(3)
        kinds = [
            lambda i: [f"u{i % 97}", "40.7", "-74.0", f"2014-03-{i % 28 + 1:02d}T08:03:00-05:00", ""],
            lambda i: [f"u{i % 89}", "40.7", "-74.0", f"2014-03-{i % 28 + 1:02d}T13:03:00Z", "b"],
            lambda i: [f"u{i % 83}", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", f"x,\n{i}"],
            lambda i: [f"u{i}", f"lat{i}", "-74.0", "2014-03-01T08:03:00-05:00", ""],
            lambda i: [f"u{i}", "91", "-74.0", "2014-03-01T08:03:00-05:00", ""],
            lambda i: [f"u{i}", "40.7", "-74.0", "2014-02-30T08:03:00-05:00", ""],
            lambda i: [f"u{i}", "40.7", "-74.0", "2014-03-01T08:03:00-05:00"],
            lambda i: ["", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", ""],
        ]
        weights = [80, 5, 5, 3, 3, 2, 2, 2]
        records = [rng.choices(kinds, weights)[0](i) for i in range(2000)]
        body = "user_id,lat,lon,timestamp,text\n" + "".join(
            _csv_line(f, False) + "\n" for f in records
        )
        stats = ParseStats()
        batch = parse_events_file(body.encode(), "csv", stats)
        _assert_matches_reference(batch, stats, records)

    @pytest.mark.parametrize("chunk", [256, 1 << 20])
    def test_unterminated_quote_costs_one_record(self, chunk, monkeypatch):
        # the quote's closing line is looked for over more than one window
        monkeypatch.setattr(ingest, "_CHUNK", chunk)
        rows = [f"u{i},40.7,-74.0,2014-03-01T08:03:00-05:00,t{i}"
                for i in range(3 * ingest._RECORD_LINES)]
        rows[7] += ',"'
        stats = ParseStats()
        batch = parse_events_file(events_csv(rows), "csv", stats)
        assert len(batch) == len(rows) - 1 and "u7" not in batch_user_ids(batch)
        assert stats.errors == Counter({"MalformedRecord": 1})

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_undecodable_record_counted(self, fmt):
        rows = [["u1", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", "caf\u00e9"],
                ["u2", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", "two\nlines"],
                ["u3", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", "ok"]]
        if fmt == "csv":
            data = events_csv([_csv_line(r, False) for r in rows])
        else:
            data = "\n".join(json.dumps(dict(zip(EVENT_COLUMNS, r)), ensure_ascii=False)
                             for r in rows).encode()
        data = data.replace("caf\u00e9".encode(), b"caf\xe9").replace(b"two", b"tw\xff")
        stats = ParseStats()
        batch = parse_events_file(data, fmt, stats)
        assert batch_user_ids(batch) == ["u3"]
        assert stats.errors == Counter({"UndecodableRecord": 2})


# record pieces from quotes alone and doubled, commas, line breaks, a
# bare CR, NUL, '#', a non-ASCII letter and letters
_TOKENS = st.lists(
    st.sampled_from(['"', '""', ",", "\n", "\r", "\x00", "#", "é", "a", "B"]), max_size=8
).map("".join)
_HEADS = st.one_of(
    st.sampled_from([
        "u1,40.7,-74.0,2014-03-01T08:03:00Z",
        "é,40.7,-74.0,2014-03-01T08:03:00-05:00",
        ",40.7,-74.0,2014-03-01T08:03:00Z",  # MalformedRecord
        "u2,91,-74.0,2014-03-01T08:03:00Z",  # OutOfRangeCoordinate
        "u3,40.7,-74.0,never",  # BadTimestamp
    ]),
    st.builds("{},{},-74.0,2014-03-01T08:03:00Z".format, _TOKENS,
              st.sampled_from(["40.7", '"40.7"'])),
)
_TEXT_FIELDS = st.one_of(
    _TOKENS,  # as drawn
    _TOKENS.map('"{}"'.format),  # in quotes, its own quotes as drawn
    _TOKENS.map(lambda t: '"' + t.replace('"', '""') + '"'),  # quoted as RFC 4180 writes it
    st.builds('{}"{}"'.format, _TOKENS, _TOKENS),  # ends in quotes, starts with none
)
_LIMIT_HEAD = "u1,40.7,-74.0,2014-03-01T08:03:00Z"
_NO_STAMP = "u1,40.7,-74.0"  # with a text, a quote-free line of three commas


def _fields_rows_tallies(body: bytes, chunk: int, bulk: bool):
    """Parse ``body`` in ``chunk``-byte windows, with the bulk route for
    records whose only quotes enclose their text on or, as before it,
    off: (the field columns of every block, the accepted rows, the
    tallies)."""
    blocks = []
    csv_records, text_quoted = ingest._csv_records, ingest._text_quoted

    def columns(*args):
        blocks.append(csv_records(*args))
        return blocks[-1]

    def route(*args):
        return text_quoted(*args) if bulk else np.zeros(len(args[-1]), dtype=bool)

    stats = ParseStats()
    with mock.patch.object(ingest, "_CHUNK", chunk), \
            mock.patch.object(ingest, "_csv_records", columns), \
            mock.patch.object(ingest, "_text_quoted", route):
        batch = parse_body(body, "csv", stats)
    rows = list(zip(batch_user_ids(batch), batch.lats.tolist(), batch.lons.tolist(),
                    batch.epochs.tolist(), batch_hashtags(batch)))
    return blocks, rows, (stats.records_ok, stats.errors)


class TestQuotedTextRoute:
    """A record whose only quotes enclose its text is split in bulk, not
    by csv.reader; its fields, and so every row and tally, must be what
    csv.reader gives."""

    @given(st.lists(st.tuples(_HEADS, _TEXT_FIELDS), max_size=20),
           st.sampled_from(["\n", "\r\n"]), st.booleans(), st.sampled_from([64, 256, 1 << 18]))
    @example([(_LIMIT_HEAD, '"x"y'), (_LIMIT_HEAD, '""""""'), (_LIMIT_HEAD, 'x"y"')], "\n", True,
             1 << 18)
    @example([('q"u,40.7,-74.0,2014-03-01T08:03:00Z', '"a,b"'),
              ('"q""u",40.7,-74.0,2014-03-01T08:03:00Z', '"a,b"')], "\r\n", False, 64)
    @example([(_LIMIT_HEAD, '"' + "a" * 131_072 + '"'), (_LIMIT_HEAD, '"' + "a" * 131_073 + '"')],
             "\n", True, 1 << 18)
    @example([(_LIMIT_HEAD, "a" * 131_072), (_LIMIT_HEAD, "a" * 131_073),
              (_LIMIT_HEAD, "é" * 131_072)], "\r\n", True, 1 << 18)
    @example([(_NO_STAMP, "2014-03-01T08:03:00Z"), (_LIMIT_HEAD, "a,b"),
              (_NO_STAMP, "2014-03-01T08:03:00Z\x00")], "\n", True, 64)
    def test_fields_match_csv_reader(self, records, newline, last_newline, chunk):
        body = newline.join(f"{head},{text}" for head, text in records)
        body = (body + newline * last_newline).encode()
        assert _fields_rows_tallies(body, chunk, True) == _fields_rows_tallies(body, chunk, False)

    @pytest.mark.parametrize("size, kept", [(131_072, True), (131_073, False)])
    def test_quoted_text_past_csv_field_limit_refused(self, size, kept):
        # quoted or not, a text is refused past the limit csv.reader keeps
        text = "#" + "a" * (size - 1)
        for field in (f'"{text}"', text):
            stats = ParseStats()
            batch = parse_events_file(events_csv([f"{_LIMIT_HEAD},{field}"]), "csv", stats)
            assert batch_hashtags(batch) == ([[text[1:]]] if kept else [])
            assert stats.errors == (Counter() if kept else Counter({"MalformedRecord": 1}))

    def test_long_text_limit_counts_characters(self):
        # 131,072 two-byte characters are past the limit in bytes, not in
        # characters, which is what csv.reader counts
        text = "#" + "é" * 131_071
        for field in (f'"{text}"', text):
            stats = ParseStats()
            batch = parse_events_file(events_csv([f"{_LIMIT_HEAD},{field}"] * 2), "csv", stats)
            assert batch_hashtags(batch) == [[text[1:]]] * 2
            assert stats.records_ok == 2

    def test_text_only_quoted_records_skip_csv_reader(self):
        records = [
            ["u1", "40.7", "-74.0", "2014-03-01T08:03:00Z", 'she said "wow", #A'],
            ["u2", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", "two\nlines, #b"],
            ["é", "40.7", "-74.0", "2014-03-01T08:03:00Z", '""'],
            ["u3", "40.7", "-74.0", "2014-03-01T08:03:00Z", ""],
            ["u4", "91", "-74.0", "2014-03-01T08:03:00Z", "a,\n\nb"],
            ["u5", "40.7", "-74.0", "never", '#c""\n'],
        ]
        lines = [",".join(r[:4]) + ',"' + r[4].replace('"', '""') + '"' for r in records]
        stats = ParseStats()
        raising = mock.Mock(side_effect=AssertionError("csv.reader called"))
        with mock.patch.object(ingest, "_csv_parse_quoted", raising):
            batch = parse_body(("\r\n".join(lines) + "\r\n").encode(), "csv", stats)
        _assert_matches_reference(batch, stats, records)

    @pytest.mark.parametrize("line", [
        f"{_NO_STAMP},2014-03-01T08:03:00Z",  # three commas
        f"{_LIMIT_HEAD},a,b",  # five
        f"{_NO_STAMP},2014-03-01T08:03:00Z\x00",  # three and a NUL
    ])
    def test_quote_free_line_without_four_commas_malformed(self, line):
        # the reader splits it, at its commas, into other than five fields
        spy = mock.Mock(wraps=ingest._csv_parse_quoted)
        stats = ParseStats()
        with mock.patch.object(ingest, "_csv_parse_quoted", spy):
            batch = parse_body(f"{line}\n{_LIMIT_HEAD},ok\n".encode(), "csv", stats)
        spy.assert_called_once_with(line)
        assert batch_user_ids(batch) == ["u1"]
        assert (stats.records_ok, stats.errors) == (1, Counter({"MalformedRecord": 1}))

    def test_unterminated_quote_skips_csv_reader(self):
        stats = ParseStats()
        raising = mock.Mock(side_effect=AssertionError("csv.reader called"))
        with mock.patch.object(ingest, "_csv_parse_quoted", raising):
            parse_body(f'{_LIMIT_HEAD},"a\n'.encode(), "csv", stats)
        assert (stats.records_ok, stats.errors) == (0, Counter({"MalformedRecord": 1}))

    @pytest.mark.parametrize("body", [b"\n", b"\n\n\n", b"\r\n\r\n", b"\n" * 300],
                             ids=["lf", "3lf", "2crlf", "300lf"])
    def test_blank_lines_yield_no_rows(self, body):
        blocks, rows, tallies = _fields_rows_tallies(body, 64, True)
        assert blocks and all(block == [[]] * 5 for block in blocks)
        assert (rows, tallies) == ([], (0, Counter()))
        stats = ParseStats()
        assert len(parse_body(body, "jsonl", stats)) == 0 and stats.records_total == 0

    def test_quoted_text_with_nul_split_in_bulk(self):
        # csv.reader reads a quoted NUL as text, and so does the bulk route,
        # with no call to the reader
        body = f'{_LIMIT_HEAD},"#a\x00b"\n{_LIMIT_HEAD},"\x00,""#c\x00"""\n'.encode()
        raising = mock.Mock(side_effect=AssertionError("csv.reader called"))
        with mock.patch.object(ingest, "_csv_parse_quoted", raising):
            bulk = _fields_rows_tallies(body, 1 << 18, True)
        assert bulk == _fields_rows_tallies(body, 1 << 18, False)
        assert bulk[0][0][4] == ["#a\x00b", '\x00,"#c\x00"']


# one stray quote or one byte that is not UTF-8 in record 5 of the city
_PROBES = {
    "unterminated-quote": lambda row: row + b',"',
    "0xff": lambda row: row + b"\xff",
}


def _same_batch(a, b) -> bool:
    return a.users == b.users and a.tags == b.tags and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("user_codes", "lats", "lons", "epochs", "tag_counts", "tag_ids")
    )


class TestPartitioning:
    def _city(self, probe=None):
        rows = []
        for i in range(57):
            text = '"#has,#comma"' if i % 7 == 0 else ('"#two\n#lines"' if i % 11 == 0 else f"#t{i}")
            rows.append(f"u{i % 5},40.{i:02d},-74.0,2014-03-{(i % 27) + 1:02d}T12:00:00-04:00,{text}")
        lines = events_csv(rows).split(b"\n")
        if probe:
            lines[6] = _PROBES[probe](lines[6])
        return b"\n".join(lines)

    @pytest.mark.parametrize(
        "probe,k",
        [pytest.param(None, k, id=str(k)) for k in (1, 2, 3, 8)]
        + [pytest.param(p, k, id=f"{p}-{k}") for p in _PROBES for k in (1, 2, 3, 4)],
    )
    def test_ranges_cover_and_split_cleanly(self, probe, k, tmp_path):
        data = self._city(probe)
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        ranges = partition_byte_ranges(path, k)
        assert len(ranges) == k
        assert ranges[0][0] == data.index(b"\n") + 1
        assert ranges[-1][1] == len(data)
        for (a, b), (c, _) in zip(ranges, ranges[1:]):
            assert b == c
        whole_stats = ParseStats()
        whole = parse_events_file(data, "csv", whole_stats)
        merged_users, merged_tags = [], []
        stats = ParseStats()
        for r in ranges:
            part = parse_event_batch(read_byte_range(path, r), "csv", stats)
            merged_users.extend(batch_user_ids(part))
            merged_tags.extend(batch_hashtags(part))
        assert stats == whole_stats
        assert merged_users == batch_user_ids(whole)
        assert merged_tags == batch_hashtags(whole)

    @pytest.mark.parametrize("chunk", [64, 100, 1000, 4096])
    @pytest.mark.parametrize("probe", [None, *_PROBES])
    def test_every_range_parses_as_its_bytes(self, probe, chunk, tmp_path, monkeypatch):
        # a range is read window by window from the file: no window may
        # reach past the range's end into the next one
        data = self._city(probe)
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        whole = ParseStats()
        parse_events_file(data, "csv", whole)
        monkeypatch.setattr(ingest, "_CHUNK", chunk)
        for k in range(1, 5):
            ranges = partition_byte_ranges(path, k)
            merged = ParseStats()
            for a, b in ranges:
                from_file = parse_event_batch(read_byte_range(path, (a, b)), "csv", merged)
                by_itself = parse_body(data[a:b], "csv", stats := ParseStats())
                assert stats.records_total and _same_batch(from_file, by_itself)
            assert merged == whole

    def test_range_past_end_of_file(self, tmp_path):
        # a file cut short after its ranges were taken: what is there
        # parses, its last record cut mid-line, and the parse ends
        data = events_csv([f"u{i},40.7,-74.0,2014-03-01T08:03:00Z,t{i}" for i in range(3)])
        path = tmp_path / "events.csv"
        path.write_bytes(data[:-10])
        stats = ParseStats()
        batch = parse_event_batch(read_byte_range(path, (data.index(b"\n") + 1, len(data))),
                                  "csv", stats)
        assert batch_user_ids(batch) == ["u0", "u1"]
        assert stats.errors == Counter({"MalformedRecord": 1})

    def test_jsonl_escaped_quote_splits_evenly(self, tmp_path):
        # a JSON string may hold an escaped quote, so a JSONL line's
        # quotes need not balance; records still end at every newline
        rows = [
            json.dumps({"user_id": f"u{i % 9}", "lat": 40.7, "lon": -74.0,
                        "timestamp": f"2014-03-0{i % 9 + 1}T10:00:00-05:00",
                        "text": 'say "hi' if i == 500 else f"#t{i}"})
            for i in range(1000)
        ]
        path = tmp_path / "events.jsonl"
        path.write_bytes("\n".join(rows).encode() + b"\n")
        whole = ParseStats()
        parse_event_batch(read_byte_range(path, *partition_byte_ranges(path, 1, "jsonl")),
                          "jsonl", whole)
        ranges = partition_byte_ranges(path, 4, "jsonl")
        assert all(end > start for start, end in ranges)
        stats = ParseStats()
        for r in ranges:
            parse_event_batch(read_byte_range(path, r), "jsonl", stats)
        assert stats == whole and whole.records_ok == 1000


class TestInterning:
    """parse_event_batch codes users and hashtags window by window, and
    the codes equal those of interning the whole body at once."""

    def test_codes_match_whole_body_interning(self, monkeypatch):
        monkeypatch.setattr(ingest, "_CHUNK", 4096)
        rng = random.Random(11)
        records = []
        for i in range(1500):
            # the user and tag pools grow with i, so later windows bring
            # users and tags not seen before
            tags = [f"#{rng.choice('tT')}{rng.randrange(i // 25 + 1)}"
                    for _ in range(rng.randrange(4))]
            text = " ".join(tags) + rng.choice(["", ", #İ", '"#x"\n'])
            uid = f"u{rng.randrange(i // 10 + 1)}"
            if i % 50 == 7:  # rejected: its user and tag must not be coded
                records.append([f"gone{i}", "91", "-74.0", "2014-03-01T08:03:00Z", f"#gone{i}"])
            else:
                records.append([uid, "40.7", "-74.0", "2014-03-01T08:03:00-05:00", text])
        data = events_csv([_csv_line(r, False) for r in records])
        assert len(data) > 10 * ingest._CHUNK
        stats = ParseStats()
        batch = parse_events_file(data, "csv", stats)
        _assert_matches_reference(batch, stats, records)
        rows, _ = _reference(records)
        users = list(dict.fromkeys(r[0] for r in rows))
        vocab = list(dict.fromkeys(t for r in rows for t in r[4]))
        assert batch.users == users
        assert batch.tags == vocab
        # the last user and tag coded were first seen far past the first window
        assert [r[0] for r in rows].index(users[-1]) > len(rows) // 2
        assert next(i for i, r in enumerate(rows) if vocab[-1] in r[4]) > len(rows) // 2
        assert batch.user_codes.tolist() == [users.index(r[0]) for r in rows]
        assert batch.tag_counts.tolist() == [len(r[4]) for r in rows]
        assert batch.tag_ids.tolist() == [vocab.index(t) for r in rows for t in r[4]]
        for col in (batch.user_codes, batch.tag_counts, batch.tag_ids):
            assert col.dtype == np.int32

    def test_take_filters_tag_ids(self):
        texts = ["#a #b", "", "#c", "#a #a #d"]
        rows = [f"u{i},40.7,-74.0,2014-03-01T08:03:00Z,{t}" for i, t in enumerate(texts)]
        batch = parse_events_file(events_csv(rows))
        kept = batch.take(np.array([False, True, True, False]))
        assert (batch_user_ids(kept), batch_hashtags(kept)) == (["u1", "u2"], [[], ["c"]])
        assert kept.users == batch.users and kept.tags == batch.tags
        assert batch.take(np.ones(4, dtype=bool)) is batch

    # interned as two windows that share the dicts
    @given(st.lists(_TAG_TEXTS, max_size=30), st.integers(0, 30))
    @example(["#a #b", "#a"], 1)  # one '#' per tag
    @example(["#a #", "#B"], 1)  # a bare '#': an empty match
    @example(["#İ #i", "#é"], 2)  # non-ASCII: the Unicode pattern
    def test_one_pass_matches_per_text(self, texts, cut):
        id_of = ingest.TagIds()
        counts, ids = zip(*(ingest._intern_tags(part, id_of)
                            for part in (texts[:cut], texts[cut:])))
        found = [oracles.hashtags_direct(text) for text in texts]
        want_vocab = list(dict.fromkeys(t for tags in found for t in tags))
        assert list(id_of.vocab) == want_vocab
        assert np.concatenate(counts).tolist() == list(map(len, found))
        assert np.concatenate(ids).tolist() == [want_vocab.index(t) for tags in found for t in tags]
        assert all(c.dtype == np.int32 for c in (*counts, *ids))

    # every record a window or more of its own, so that ASCII windows and
    # non-ASCII ones share the dicts
    @given(st.lists(_TAG_TEXTS, min_size=1, max_size=40), st.sampled_from(["csv", "jsonl"]))
    @example(["#a", "#é #A", "x # #a\n#"], "csv")
    def test_parsed_tags_match_oracle(self, texts, fmt):
        rows = [[f"u{i}", "40.7", "-74.0", "2014-03-01T08:03:00Z", t] for i, t in enumerate(texts)]
        if fmt == "csv":
            data = events_csv([_csv_line(r, False) for r in rows])
        else:
            data = "\n".join(json.dumps(dict(zip(EVENT_COLUMNS, r))) for r in rows).encode()
        with mock.patch.object(ingest, "_CHUNK", 64):
            batch = parse_events_file(data, fmt)
        want = [oracles.hashtags_direct(t) for t in texts]
        assert batch_hashtags(batch) == want
        assert batch.tags == list(dict.fromkeys(t for tags in want for t in tags))

    def test_parse_peak_does_not_grow_with_range(self, tmp_path, monkeypatch):
        # what a parse holds besides its result is one window's work: it
        # must not grow with the range, as it would if the range were read
        # whole
        monkeypatch.setattr(ingest, "_CHUNK", 1 << 14)
        city = generate_city(SynthParams(seed=3, n_tracts=50, n_users_local=400,
                                         n_users_visitor=400, n_events=5_000))
        header, body = city.events_csv.encode().split(b"\n", 1)
        transient = []
        for copies in (1, 4):
            path = tmp_path / f"events{copies}.csv"
            path.write_bytes(header + b"\n" + body * copies)
            (byte_range,) = partition_byte_ranges(path, 1)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                batch = parse_event_batch(read_byte_range(path, byte_range))
                retained, peak = (m - before for m in tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
            assert len(batch) == 5_000 * copies
            transient.append(peak - retained)
        assert transient[1] <= 1.5 * transient[0], f"{transient[0]} B, then {transient[1]} B"

    def test_batch_memory_is_bounded(self, tmp_path):
        # a parsed event keeps three float64 fields and int32 codes; the
        # strings it was parsed from, a user id and a text of about 100
        # bytes each as Python objects, must be gone
        city = generate_city(SynthParams(seed=3, n_tracts=50, n_users_local=400,
                                         n_users_visitor=400, n_events=20_000))
        path = tmp_path / "events.csv"
        path.write_bytes(city.events_csv.encode())
        (byte_range,) = partition_byte_ranges(path, 1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batch = parse_event_batch(read_byte_range(path, byte_range))
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(batch) == 20_000
        assert size < 64 * len(batch), f"{size / len(batch):.1f} bytes per event"


def _parsed_tags(*texts):
    """Each text's hashtags as parse_event_batch reads them from a JSONL
    event file of one event per text."""
    rows = [json.dumps({"user_id": "u", "lat": 40.7, "lon": -74.0,
                        "timestamp": "2014-03-01T08:03:00Z", "text": t}) for t in texts]
    return batch_hashtags(parse_events_file("\n".join(rows).encode(), "jsonl"))


class TestExtractHashtags:
    """Hashtags as the parse extracts them, checked against
    oracles.hashtags_direct."""

    def test_basic(self):
        text = "great #NYC day #NoFilter!"
        assert _parsed_tags(text) == [oracles.hashtags_direct(text)] == [["nyc", "nofilter"]]

    def test_empty(self):
        assert _parsed_tags("") == [oracles.hashtags_direct("")] == [[]]

    def test_adjacent_unicode_and_bare_hash(self):
        text = "#café#2021 #a_b #"
        assert _parsed_tags(text) == [oracles.hashtags_direct(text)] == [["café", "2021", "a_b"]]

    def test_duplicates_kept(self):
        text = "#a #b #a"
        assert _parsed_tags(text) == [oracles.hashtags_direct(text)] == [["a", "b", "a"]]

    @given(st.text(max_size=200))
    def test_tags_are_clean(self, text):
        (tags,) = _parsed_tags(text)
        assert tags == oracles.hashtags_direct(text)
        for t in tags:
            assert t
            assert "#" not in t
            assert not re.search(r"\s", t)

    @given(st.text(max_size=80), st.text(max_size=80))
    def test_concatenation(self, a, b):
        # guard: a must not end mid-tag with b continuing the word run
        assume(not (re.search(r"#\w*$", a) and re.match(r"\w", b)))
        joined, tags_a, tags_b = _parsed_tags(a + b, a, b)
        assert joined == tags_a + tags_b == oracles.hashtags_direct(a + b)


class TestParseTracts:
    def test_minimal_square(self, unit_square_tracts):
        feats = parse_tracts(unit_square_tracts)
        assert len(feats) == 1
        tract = tract_from_feature(feats[0])
        assert tract.tract_id == "T1"
        assert len(tract.polygons) == 1
        assert len(tract.polygons[0][0]) == 5

    def test_point_geometry_rejected(self):
        data = json.dumps(
            {
                "type": "FeatureCollection",
                "features": [
                    {
                        "type": "Feature",
                        "properties": {"tract_id": "T1"},
                        "geometry": {"type": "Point", "coordinates": [0, 0]},
                    }
                ],
            }
        ).encode()
        with pytest.raises(NonPolygonGeometry):
            tract_from_feature(parse_tracts(data)[0])

    def test_duplicate_id_rejected(self):
        data = feature_collection(
            [square_feature("T1", 0, 0), square_feature("T1", 2, 0)]
        )
        with pytest.raises(DuplicateTractId):
            parse_tracts(data)

    def test_missing_id_rejected(self):
        feat = square_feature("x", 0, 0)
        del feat["properties"]["tract_id"]
        with pytest.raises(MissingTractId):
            parse_tracts(feature_collection([feat]))

    def test_unclosed_ring_rejected(self):
        feat = square_feature("T1", 0, 0)
        feat["geometry"]["coordinates"][0] = [[0, 0], [1, 0], [1, 1], [0, 1]]
        with pytest.raises(UnclosedRing):
            tract_from_feature(parse_tracts(feature_collection([feat]))[0])

    def test_multipolygon_one_tract(self):
        ring1 = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        ring2 = [[5, 5], [6, 5], [6, 6], [5, 6], [5, 5]]
        data = json.dumps(
            {
                "type": "FeatureCollection",
                "features": [
                    {
                        "type": "Feature",
                        "properties": {"tract_id": "M1"},
                        "geometry": {"type": "MultiPolygon", "coordinates": [[ring1], [ring2]]},
                    }
                ],
            }
        ).encode()
        feats = parse_tracts(data)
        assert len(feats) == 1
        tract = tract_from_feature(feats[0])
        assert len(tract.polygons) == 2
        assert tract.geometry_type == "MultiPolygon"

    @pytest.mark.parametrize("ring, kind, message", RING_REFUSALS)
    def test_ring_refusals(self, ring, kind, message):
        feat = square_feature("T1", 0, 0)
        feat["geometry"]["coordinates"][0] = ring
        with pytest.raises(kind) as caught:
            tract_from_feature(parse_tracts(feature_collection([feat]))[0])
        assert str(caught.value) == f"tract T1: {message}"

    @pytest.mark.parametrize("ring, kind, message", RING_REFUSALS)
    def test_ring_refusals_with_float_positions(self, ring, kind, message):
        # the same rings with float values: a short or unclosed one now
        # reaches tract_from_feature as an array, and is refused alike
        feat = square_feature("T1", 0.0, 0.0)
        feat["geometry"]["coordinates"][0] = _floated(ring)
        data = feature_collection([feat])
        decoded, plain = _both_routes(data)
        assert decoded == plain == [(kind, f"tract T1: {message}")]

    def test_decode_checks_two_float_rings_into_arrays(self):
        ring = [[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 0.5]]
        feats = [square_feature("T1", 0.5, 0.5), square_feature("T2", 2, 0)]
        feats[0]["properties"]["shape"] = {"type": "Polygon", "coordinates": [ring]}
        decoded = parse_tracts(feature_collection(feats))
        assert isinstance(decoded[0]["geometry"]["coordinates"][0], np.ndarray)
        # ints stay lists, as does a geometry-shaped property
        assert decoded[1]["geometry"]["coordinates"][0] == feats[1]["geometry"]["coordinates"][0]
        assert decoded[0]["properties"]["shape"]["coordinates"] == [ring]

    @given(_ring_files())
    def test_decoded_and_plain_rings_agree(self, data):
        decoded, plain = _both_routes(data)
        assert decoded == plain

    def test_rings_are_float64_arrays(self):
        # altitudes are checked as numbers, then dropped; positions of
        # unequal length and integers are read like any other
        feat = square_feature("T1", 0, 0)
        feat["geometry"]["coordinates"][0] = [[0, 0, 10**400], [1, 0], [1, 1, 7.5], [0, 0, 0]]
        (ring,) = tract_from_feature(parse_tracts(feature_collection([feat]))[0]).polygons[0]
        assert ring.dtype == np.float64 and ring.shape == (4, 2)
        assert ring.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]

    @pytest.mark.parametrize("bad", ["-74.3", True, None, [0]])
    def test_coordinate_not_a_number_rejected(self, bad):
        feat = square_feature("T1", 0, 0)
        feat["geometry"]["coordinates"][0][1][0] = bad
        with pytest.raises(NonPolygonGeometry, match="tract T1: coordinate .* is not a number"):
            tract_from_feature(parse_tracts(feature_collection([feat]))[0])

    def test_ids_checked_before_geometry(self):
        feats = [square_feature("T1", 0, 0), square_feature("T1", 2, 0)]
        feats[0]["geometry"]["type"] = "Point"
        with pytest.raises(DuplicateTractId):
            parse_tracts(feature_collection(feats))

    def test_not_utf8_refused(self):
        data = feature_collection([square_feature("T1", 0, 0)]).replace(b"T1", b"T\xff")
        with pytest.raises(NonPolygonGeometry, match="^not valid GeoJSON: 'utf-8' codec"):
            parse_tracts(data)


class TestParseCensus:
    HEADER = "tract_id,median_income,median_rent,unemployment_rate"

    def test_direct_mapping(self):
        data = f"{self.HEADER}\n36061000100,74693,1500,0.08\n".encode()
        assert parse_census(data) == {"36061000100": {
            "median_income": 74693, "median_rent": 1500, "unemployment_rate": 0.08}}

    def test_rate_out_of_range(self):
        data = f"{self.HEADER}\nT1,100,100,1.5\n".encode()
        with pytest.raises(RateOutOfRange):
            parse_census(data)

    def test_duplicate_tract(self):
        data = f"{self.HEADER}\nT1,1,1,0.1\nT1,2,2,0.2\n".encode()
        with pytest.raises(DuplicateTractId):
            parse_census(data)

    def test_non_numeric(self):
        data = f"{self.HEADER}\nT1,lots,1,0.1\n".encode()
        with pytest.raises(NonNumericValue):
            parse_census(data)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity", "NaN"])
    @pytest.mark.parametrize("column", ["median_income", "median_rent", "unemployment_rate"])
    def test_non_finite_rejected(self, column, cell):
        values = dict(median_income="100", median_rent="10", unemployment_rate="0.1")
        values[column] = cell
        row = ",".join(values[c] for c in self.HEADER.split(",")[1:])
        data = f"{self.HEADER}\nT0,1,1,0.1\nT1,{row}\n".encode()
        with pytest.raises(NonNumericValue, match=f"^{column}='{cell}' for tract T1 is not"):
            parse_census(data)

    def test_negative_money_rejected(self):
        data = f"{self.HEADER}\nT1,-5,1,0.1\n".encode()
        with pytest.raises(RateOutOfRange):
            parse_census(data)

    def test_negative_rejected_in_any_column(self):
        data = b"tract_id,net_migration\nT0,4\nT1,-3\n"
        with pytest.raises(RateOutOfRange, match="^net_migration=-3.0 for tract T1 "):
            parse_census(data)

    def test_missing_cells_and_extras(self):
        data = b"tract_id,median_income,commute_minutes\nT1,,31.5\n"
        assert parse_census(data) == {"T1": {"commute_minutes": 31.5}}

    @pytest.mark.parametrize("header", ["tract_id,median_rent, median_rent ",
                                        "tract_id,median_rent,tract_id"])
    def test_repeated_column_refused(self, header):
        name = header.split(",")[-1].strip()
        with pytest.raises(MalformedRecord, match=f"^column '{name}' repeats in census CSV$"):
            parse_census(f"{header}\nT1,1,2\n".encode())

    def test_unnamed_column_refused(self):
        # a trailing comma or an empty name would be read as an indicator
        # named "", and a second one would repeat it
        for header, position in [("tract_id,median_income,", 3), ("tract_id,,median_rent,", 2),
                                 ("tract_id, ,median_rent", 2)]:
            with pytest.raises(MalformedRecord, match=f"^column {position} of census CSV has no"):
                parse_census(f"{header}\nT1,1,2\n".encode())


class TestReadTable:
    def test_rows_numbered_without_tract_id(self):
        # blank rows are skipped and not numbered; blank cells left out
        data = b"v,w\n1,\n\n , \n,2\n"
        assert read_table(data, "t", ["v", "w"]) == {"row1": {"v": 1.0}, "row2": {"w": 2.0}}

    def test_bom_padding_and_line_ends(self):
        # a BOM, padded names and ids, CRLF and a lone CR as line ends
        data = b'\xef\xbb\xbf tract_id , v \r\n" T1 ",1\rT2 ,2\n'
        assert read_table(data, "t", ["v"]) == {"T1": {"v": 1.0}, "T2": {"v": 2.0}}

    def test_missing_column_refused(self):
        with pytest.raises(MalformedRecord, match="^column 'w' not in value table t.csv$"):
            read_table(b"tract_id,v\nT1,1\n", "value table t.csv", ["w"])

    def test_field_past_csv_limit_refused(self):
        data = b'v\n"' + b"9" * 200_000 + b'"\n'
        with pytest.raises(MalformedRecord, match="^t is not a CSV table: field larger"):
            read_table(data, "t", ["v"])

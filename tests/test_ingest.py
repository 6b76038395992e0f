import json
import random
import re
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import events_csv, feature_collection, square_feature
from geoineq.errors import (
    BadTimestamp,
    DuplicateTractId,
    IngestError,
    MalformedRecord,
    MissingTractId,
    NonNumericValue,
    NonPolygonGeometry,
    OutOfRangeCoordinate,
    RateOutOfRange,
    UnclosedRing,
)
from geoineq.ingest import (
    _CHUNK,
    EVENT_COLUMNS,
    ParseStats,
    extract_hashtags,
    parse_census,
    parse_event_batch,
    parse_tracts,
    partition_byte_ranges,
    read_byte_range,
)
from geoineq.oracles import validate_event_fields

T_1830Z = datetime(2014, 3, 15, 18, 30, tzinfo=timezone.utc).timestamp()


class TestParseEvents:
    def test_direct_field_mapping(self):
        data = events_csv(['u1,40.7128,-74.0060,2014-03-15T14:30:00-04:00,"great day #nyc"'])
        stats = ParseStats()
        batch = parse_event_batch(data, "csv", stats)
        assert stats.records_ok == 1 and stats.records_skipped == 0
        assert batch.user_ids == ["u1"]
        assert batch.lats.tolist() == [40.7128]
        assert batch.lons.tolist() == [-74.0060]
        assert batch.texts == ["great day #nyc"]
        assert batch.epochs.tolist() == [T_1830Z]

    def test_lat_out_of_range_skipped(self):
        data = events_csv(["u2,91.0,-74.0,2014-03-15T14:30:00-04:00,x"])
        stats = ParseStats()
        assert len(parse_event_batch(data, "csv", stats)) == 0
        assert stats.records_skipped == 1
        assert stats.errors["OutOfRangeCoordinate"] == 1

    def test_bad_timestamp_skipped(self):
        data = events_csv(["u3,40.7,-74.0,not-a-time,x"])
        stats = ParseStats()
        assert len(parse_event_batch(data, "csv", stats)) == 0
        assert stats.errors["BadTimestamp"] == 1

    def test_naive_timestamp_rejected(self):
        data = events_csv(["u4,40.7,-74.0,2014-03-15T14:30:00,x"])
        stats = ParseStats()
        assert len(parse_event_batch(data, "csv", stats)) == 0
        assert stats.errors["BadTimestamp"] == 1

    def test_zulu_and_compact_offsets(self):
        data = events_csv(
            [
                "u1,40.7,-74.0,2014-03-15T18:30:00Z,a",
                "u2,40.7,-74.0,2014-03-15T14:30:00-0400,b",
            ]
        )
        epochs = parse_event_batch(data).epochs.tolist()
        assert len(epochs) == 2 and epochs[0] == epochs[1]

    def test_quoted_comma_and_newline(self):
        data = events_csv(
            [
                'u1,40.7,-74.0,2014-03-15T14:30:00-04:00,"hello, world"',
                'u2,40.7,-74.0,2014-03-15T14:31:00-04:00,"line one\nline two"',
            ]
        )
        stats = ParseStats()
        batch = parse_event_batch(data, "csv", stats)
        assert stats.records_ok == 2
        assert batch.texts == ["hello, world", "line one\nline two"]

    def test_header_required(self):
        with pytest.raises(MalformedRecord):
            parse_event_batch(b"uid,lat,lon,ts,text\na,1,2,3,4\n")

    def test_jsonl_matches_csv(self):
        rows = [
            {"user_id": "u1", "lat": 40.7, "lon": -74.0,
             "timestamp": "2014-03-15T14:30:00-04:00", "text": "#a b"},
        ]
        jsonl = "\n".join(json.dumps(r) for r in rows).encode()
        csv_data = events_csv(["u1,40.7,-74.0,2014-03-15T14:30:00-04:00,#a b"])
        b_j = parse_event_batch(jsonl, "jsonl")
        b_c = parse_event_batch(csv_data, "csv")
        assert (b_j.user_ids, b_j.texts) == (b_c.user_ids, b_c.texts) == (["u1"], ["#a b"])
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
        assert len(parse_event_batch(data, "jsonl", stats)) == 1
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
        batch = parse_event_batch(events_csv(rows), "csv", stats)
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
        # same instants, three spellings: fixed-width, Z, fractional
        variants = [
            "2014-11-02T01:30:00-05:00",
            "2014-11-02T06:30:00Z",
            "2014-11-02T06:30:00.000000+00:00",
        ]
        rows = [f"u{i},40.7,-74.0,{ts},x" for i, ts in enumerate(variants)]
        epochs = parse_event_batch(events_csv(rows)).epochs.tolist()
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
        batch = parse_event_batch(events_csv([f"u,40.7,-74.0,{ts},x"]), "csv", stats)
        assert len(batch) == 0
        assert stats.errors == Counter({"BadTimestamp": 1})
        with pytest.raises(BadTimestamp):
            validate_event_fields(["u", "40.7", "-74.0", ts, "x"])

    def test_timestamp_with_trailing_newline_rejected(self):
        ts = "2014-03-01T08:03:00-05:00\n"
        stats = ParseStats()
        batch = parse_event_batch(events_csv([f'u,40.7,-74.0,"{ts}",x']), "csv", stats)
        assert len(batch) == 0 and stats.errors == Counter({"BadTimestamp": 1})
        line = json.dumps({"user_id": "u", "lat": 40.7, "lon": -74.0, "timestamp": ts})
        stats = ParseStats()
        assert len(parse_event_batch(line.encode(), "jsonl", stats)) == 0
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
        got = parse_event_batch(body, "csv", stats)
        assert stats.records_ok + stats.records_skipped == len(lines)
        assert len(got) == stats.records_ok


def _fixed_width_stamp(y, mo, d, h, mi, sec, sign, oh, om):
    return f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{sec:02d}{sign}{oh:02d}:{om:02d}"


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
    st.builds(  # valid
        lambda t, off: _fixed_width_stamp(
            t.year, t.month, t.day, t.hour, t.minute, t.second,
            "-" if off < 0 else "+", abs(off) // 60, abs(off) % 60,
        ),
        st.datetimes(datetime(1, 1, 2), datetime(9999, 12, 30)),
        st.integers(-1439, 1439),
    ),
    # fixed width, in and out of range: month 0/13, day 0/32, hour 24, ...
    st.builds(
        _fixed_width_stamp,
        st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
        st.integers(0, 24), st.integers(0, 60), st.integers(0, 60),
        st.sampled_from("+-"), st.integers(0, 24), st.integers(0, 99),
    ),
)
_TEXTS = st.text(alphabet=st.sampled_from(list('ab #,"\n') + ["é", "İ"]), max_size=12)
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
    """validate_event_fields applied record by record: (rows, tallies)."""
    rows, errors = [], Counter()
    for fields in records:
        try:
            rows.append(validate_event_fields(fields))
        except IngestError as e:
            errors[type(e).__name__] += 1
    return rows, errors


def _assert_matches_reference(batch, stats, records):
    rows, errors = _reference(records)
    got = list(
        zip(batch.user_ids, batch.lats.tolist(), batch.lons.tolist(),
            batch.epochs.tolist(), batch.texts)
    )
    assert got == rows
    assert stats.errors == errors
    assert stats.records_ok == len(rows)
    assert stats.records_skipped == len(records) - len(rows)


class TestColumnarParse:
    """parse_event_batch must equal the per-record reference, record by
    record, whichever route (bulk split, vector checks, fallback) each
    record takes."""

    @given(_RECORDS, st.booleans(), st.booleans())
    def test_csv_matches_reference(self, drawn, crlf, header):
        records, lines = [], ["user_id,lat,lon,timestamp,text"] if header else []
        for fields, n_fields, quote_all, blank in drawn:
            fields = list(fields[:n_fields]) + ["x"] * (n_fields - 5)
            records.append(fields)
            lines += [""] * blank + [_csv_line(fields, quote_all)]
        body = ("\r\n" if crlf else "\n").join(lines) + "\n"
        stats = ParseStats()
        batch = parse_event_batch(body.encode(), "csv", stats, expect_header=header)
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
        batch = parse_event_batch(body.encode(), "jsonl", stats)
        _assert_matches_reference(batch, stats, records)

    def test_timestamp_boundaries(self):
        valid = [
            "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-23:59",
            "1970-01-01T00:00:00-00:00", "2000-02-29T08:03:00+00:00",
            "2016-02-29T08:03:00+00:00", "2014-03-01T08:03:00+0559",
            "2014-03-01t08:03:00+05:00", "2014-03-01T08:03:00.5+05:59",
            "2014-03-01T08:03:00+05:30:59.5",
        ]
        invalid = [
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
        ]
        records = [["u", "40.7", "-74.0", ts, ""] for ts in valid + invalid]
        stats = ParseStats()
        batch = parse_event_batch(events_csv([",".join(r) for r in records]), "csv", stats)
        _assert_matches_reference(batch, stats, records)
        assert stats.records_ok == len(valid)
        assert stats.errors == Counter({"BadTimestamp": len(invalid)})

    def test_quoted_record_across_chunk_boundary(self):
        # the header is line 0, so the quoted record opens on the chunk's
        # last line and its middle line, which looks like a plain record,
        # starts the next chunk
        records = [[f"u{i}", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", ""]
                   for i in range(_CHUNK - 2)]
        records.append(["v", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", "x\na,b,c,d,e\ny"])
        records.append(["w", "40.7", "-74.0", "2014-03-01T08:03:00-05:00", ""])
        stats = ParseStats()
        batch = parse_event_batch(events_csv([_csv_line(r, False) for r in records]), "csv", stats)
        _assert_matches_reference(batch, stats, records)

    def test_input_longer_than_a_chunk(self):
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
        records = [rng.choices(kinds, weights)[0](i) for i in range(5 * _CHUNK // 2)]
        body = "user_id,lat,lon,timestamp,text\n" + "".join(
            _csv_line(f, False) + "\n" for f in records
        )
        stats = ParseStats()
        batch = parse_event_batch(body.encode(), "csv", stats)
        _assert_matches_reference(batch, stats, records)


class TestPartitioning:
    def _city(self):
        rows = []
        for i in range(57):
            text = '"has, comma"' if i % 7 == 0 else ("\"two\nlines\"" if i % 11 == 0 else f"#t{i}")
            rows.append(f"u{i % 5},40.{i:02d},-74.0,2014-03-{(i % 27) + 1:02d}T12:00:00-04:00,{text}")
        return events_csv(rows)

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_ranges_cover_and_split_cleanly(self, k, tmp_path):
        data = self._city()
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        ranges = partition_byte_ranges(path, k)
        assert len(ranges) == k
        assert ranges[0][0] == data.index(b"\n") + 1
        assert ranges[-1][1] == len(data)
        for (a, b), (c, _) in zip(ranges, ranges[1:]):
            assert b == c
        whole_stats = ParseStats()
        whole = parse_event_batch(data, "csv", whole_stats)
        merged_users = []
        total_ok = 0
        for r in ranges:
            stats = ParseStats()
            part = parse_event_batch(read_byte_range(path, r), "csv", stats, expect_header=False)
            merged_users.extend(part.user_ids)
            total_ok += stats.records_ok
        assert total_ok == whole_stats.records_ok
        assert merged_users == whole.user_ids


class TestExtractHashtags:
    def test_basic(self):
        assert extract_hashtags("great #NYC day #NoFilter!") == ["nyc", "nofilter"]

    def test_empty(self):
        assert extract_hashtags("") == []

    def test_adjacent_unicode_and_bare_hash(self):
        assert extract_hashtags("#café#2021 #a_b #") == ["café", "2021", "a_b"]

    def test_duplicates_kept(self):
        assert extract_hashtags("#a #b #a") == ["a", "b", "a"]

    @given(st.text(max_size=200))
    def test_tags_are_clean(self, text):
        tags = extract_hashtags(text)
        for t in tags:
            assert t
            assert "#" not in t
            assert not re.search(r"\s", t)

    @given(st.text(max_size=80), st.text(max_size=80))
    def test_concatenation(self, a, b):
        # guard: a must not end mid-tag with b continuing the word run
        assume(not (re.search(r"#\w*$", a) and re.match(r"\w", b)))
        assert extract_hashtags(a + b) == extract_hashtags(a) + extract_hashtags(b)


class TestParseTracts:
    def test_minimal_square(self, unit_square_tracts):
        feats = parse_tracts(unit_square_tracts)
        assert len(feats) == 1
        assert feats[0].tract_id == "T1"
        assert len(feats[0].polygons) == 1
        assert len(feats[0].polygons[0][0]) == 5

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
            parse_tracts(data)

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
            parse_tracts(feature_collection([feat]))

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
        assert len(feats[0].polygons) == 2


class TestParseCensus:
    HEADER = "tract_id,median_income,median_rent,unemployment_rate"

    def test_direct_mapping(self):
        data = f"{self.HEADER}\n36061000100,74693,1500,0.08\n".encode()
        recs = parse_census(data)
        rec = recs["36061000100"]
        assert rec.median_income == 74693
        assert rec.median_rent == 1500
        assert rec.unemployment_rate == 0.08

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

    def test_negative_money_rejected(self):
        data = f"{self.HEADER}\nT1,-5,1,0.1\n".encode()
        with pytest.raises(RateOutOfRange):
            parse_census(data)

    def test_missing_cells_and_extras(self):
        data = b"tract_id,median_income,commute_minutes\nT1,,31.5\n"
        rec = parse_census(data)["T1"]
        assert rec.median_income is None
        assert rec.extra == {"commute_minutes": 31.5}

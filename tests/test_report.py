import csv
import gc
import io
import json
import math
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import tracemalloc
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    bucket_view,
    cube_view,
    distribution,
    events_csv,
    feature_collection,
    oracle_views,
    square_feature,
)
import geoineq
from geoineq import cli, jsonio, oracles, report
from geoineq.errors import BadBreakCount, EmptyCurveList, InternalInvariantError, MissingInput
from geoineq.geo import tract_from_feature
from geoineq.ingest import (
    EVENT_COLUMNS,
    parse_event_batch,
    parse_tracts,
    partition_byte_ranges,
    read_byte_range,
    recode,
)
from geoineq.metrics import lorenz_curve
from geoineq.report import (
    PipelineConfig,
    choropleth_parts,
    emit_lorenz_svg,
    emit_outputs,
    run_pipeline,
    run_pipeline_full,
)
from geoineq.synth import SynthParams, city_files, generate_city, write_city

GOLDEN = Path(__file__).resolve().parent / "golden"

CITY = SynthParams(
    seed=21, n_tracts=16, n_users_local=15, n_users_visitor=15, n_events=600, months=3
)


@pytest.fixture(scope="module")
def city_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("city")
    return write_city(CITY, out)


@pytest.fixture(scope="module")
def census_path(tmp_path_factory, city_paths):
    # census rows for most tracts plus one unmatched id
    path = tmp_path_factory.mktemp("census") / "census.csv"
    rows = ["tract_id,median_income,median_rent,unemployment_rate"]
    for k in range(1, CITY.n_tracts):
        rows.append(f"T{k:04d},{40000 + 2500 * k},{900 + 40 * k},{0.02 + 0.003 * k:.3f}")
    rows.append("Z9999,50000,1000,0.05")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def probe_city(tmp_path_factory):
    params = SynthParams(seed=3, n_tracts=9, n_users_local=10, n_users_visitor=10,
                         n_events=200, months=2)
    return write_city(params, tmp_path_factory.mktemp("probe"))


def _probe_events(probe, events, out_dir):
    """The 200-record events file broken the way ``probe`` names."""
    header, *rows = events.read_bytes().splitlines()
    if probe == "unterminated-quote":
        rows[5] += b',"'
    elif probe == "0xff":
        rows[10] += b"\xff"
    elif probe in ("bare-cr", "bare-cr-quoted"):
        # a CR after the user id, which csv.reader reads as a line break
        # whether the record's text is quoted or not
        uid, lat, lon, ts, text = rows[5].split(b",", 4)
        if probe == "bare-cr-quoted":
            text = b'"' + text.replace(b'"', b'""') + b'"'
        rows[5] = b",".join([uid + b"\r", lat, lon, ts, text])
    elif probe == "no-header":
        header = None
    elif probe == "empty":
        header, rows = None, []
    elif probe == "reordered-columns":
        header = b"user_id,lon,lat,timestamp,text"
    elif probe == "bom":
        header = b"\xef\xbb\xbf" + header
    elif probe == "jsonl-escaped-quote":
        records = list(csv.DictReader(io.StringIO(events.read_text())))
        records[7]["text"] = 'say "hi'
        path = out_dir / "events.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path
    path = out_dir / "events.csv"
    path.write_bytes(b"".join(line + b"\n" for line in [header, *rows] if line is not None))
    return path


# exit code and (ok, skipped, errors) tallies of run and ingest-check
_PROBE_RESULTS = {
    "unterminated-quote": (0, (199, 1, {"MalformedRecord": 1})),
    "0xff": (0, (199, 1, {"UndecodableRecord": 1})),
    "bare-cr": (0, (199, 1, {"MalformedRecord": 1})),
    "bare-cr-quoted": (0, (199, 1, {"MalformedRecord": 1})),
    "no-header": (1, None),
    "reordered-columns": (1, None),
    "empty": (1, None),
    "bom": (0, (200, 0, {})),
    "jsonl-escaped-quote": (0, (200, 0, {})),
}


def _tallies(ingest: dict):
    if not ingest:
        return None
    return ingest["records_ok"], ingest["records_skipped"], ingest["errors"]


def quick_config(city_paths, census=None, **kw):
    return PipelineConfig(
        events_path=city_paths["events"],
        tracts_path=city_paths["tracts"],
        census_path=census,
        **kw,
    )


class TestRunPipeline:
    def test_missing_events_fatal(self, city_paths):
        cfg = PipelineConfig(events_path="/nope/xx.csv", tracts_path=city_paths["tracts"])
        with pytest.raises(MissingInput):
            run_pipeline(cfg)

    def test_missing_tracts_fatal(self, city_paths):
        cfg = PipelineConfig(events_path=city_paths["events"], tracts_path="/nope/tr.geojson")
        with pytest.raises(MissingInput):
            run_pipeline(cfg)

    def test_accounting_identity(self, city_paths):
        rep = run_pipeline(quick_config(city_paths))
        ing = rep["ingest"]
        assert ing["records_total"] == ing["records_ok"] + ing["records_skipped"]
        assert ing["records_ok"] == ing["events_assigned"] + ing["events_outside_tracts"]
        by_cohort = rep["events_by_cohort"]
        assert by_cohort["visitor"] + by_cohort["local"] == ing["events_assigned"]
        assert by_cohort["all"] == ing["events_assigned"]

    def test_emitted_twice_byte_identical(self, city_paths, tmp_path):
        cfg = quick_config(city_paths)
        r1, i1 = run_pipeline_full(cfg)
        r2, i2 = run_pipeline_full(cfg)
        f1 = emit_outputs(r1, i1, tmp_path / "a")
        f2 = emit_outputs(r2, i2, tmp_path / "b")
        assert [p.name for p in f1] == [p.name for p in f2]
        for a, b in zip(f1, f2):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_small_slices_give_the_same_outputs(self, city_paths, tmp_path, monkeypatch):
        # assignment, time binning and aggregation work through the events
        # a slice at a time; slices far smaller than the partition must
        # add up to the outputs of one slice
        cfg = quick_config(city_paths)
        whole = emit_outputs(*run_pipeline_full(cfg), tmp_path / "whole")
        for size in ("aggregate._SLICE", "cohort._SLICE", "timebins._SLICE", "geo._POINT_BLOCK"):
            monkeypatch.setattr(f"geoineq.{size}", 97)
        sliced = emit_outputs(*run_pipeline_full(cfg), tmp_path / "sliced")
        assert [p.name for p in whole] == [p.name for p in sliced]
        for a, b in zip(whole, sliced):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_census_suites_and_unmatched(self, city_paths, census_path):
        rep = run_pipeline(quick_config(city_paths, census=census_path))
        assert rep["ingest"]["census_unmatched_tracts"] == ["Z9999"]
        suites = rep["census_indexes"]
        assert set(suites) == {"median_income", "median_rent", "unemployment_rate"}
        assert 0.0 < suites["median_income"]["gini"] < 1.0

    def test_rank_table_income_flags(self, city_paths, census_path):
        rep = run_pipeline(quick_config(city_paths, census=census_path))
        flags = {r["income_flag"] for r in rep["rank_table"]}
        assert flags <= {"above", "below", "unknown"}
        n = CITY.n_tracts
        assert sorted(r["day_rank"] for r in rep["rank_table"]) == list(range(1, n + 1))
        # T0016-like tract has no census row in the fixture
        by_id = {r["tract_id"]: r for r in rep["rank_table"]}
        assert by_id[f"T{n:04d}"]["income_flag"] == "unknown"

    def test_raw_vs_density_normalization(self, city_paths):
        raw = run_pipeline(quick_config(city_paths, normalization="raw"))
        dens = run_pipeline(quick_config(city_paths, normalization="per_km2"))
        n_events = raw["ingest"]["events_assigned"]
        assert raw["distributions"]["images"]["all"]["total"] == n_events
        assert dens["distributions"]["images"]["all"]["total"] != n_events

    @pytest.mark.parametrize("normalization", ["raw", "per_km2"])
    def test_tract_without_events_is_a_zero_unit(self, tmp_path, normalization):
        # T3 gets no event, yet it is one of the three units: over 5, 5
        # and 0 events on equal areas Gini is 1/3, and over 5 and 5 it is 0
        tracts_path = tmp_path / "t.geojson"
        tracts_path.write_bytes(feature_collection(
            [square_feature("T1", 0, 0), square_feature("T2", 1, 0), square_feature("T3", 5, 0)]
        ))
        ep = tmp_path / "e.csv"
        ep.write_bytes(events_csv([f"u{i},0.5,{i % 2}.5,2014-03-1{i}T10:00:00Z,"
                                   for i in range(10)]))
        cfg = PipelineConfig(events_path=str(ep), tracts_path=str(tracts_path),
                             normalization=normalization)
        rep, internals = run_pipeline_full(cfg)
        assert rep["distributions"]["images"]["all"]["suite"]["gini"] == pytest.approx(1 / 3)
        assert len(internals.lorenz_curves[0].points) == 4

    def test_empty_events_vacuous_run(self, city_paths, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("user_id,lat,lon,timestamp,text\n")
        cfg = PipelineConfig(events_path=str(empty), tracts_path=city_paths["tracts"])
        rep, internals = run_pipeline_full(cfg)
        assert rep["ingest"]["records_total"] == 0
        assert rep["users"]["total"] == 0
        for dist in rep["distributions"].values():
            for cohort, block in dist.items():
                if cohort != "ratio_visitor_local":
                    assert block["suite"] is None
        assert rep["rank_table"] == []
        files = emit_outputs(rep, internals, tmp_path / "out")
        names = [p.name for p in files]
        assert "report.json" in names and "lorenz.svg" not in names
        rc = cli.main(
            ["run", "--events", str(empty), "--tracts", city_paths["tracts"],
             "--out", str(tmp_path / "out2")]
        )
        assert rc == 0

    def test_jsonl_events(self, city_paths, tmp_path):
        rows = [
            {"user_id": "u1", "lat": 40.51, "lon": -74.29,
             "timestamp": "2014-03-05T10:00:00-05:00", "text": "#x"},
            {"user_id": "u1", "lat": 40.51, "lon": -74.29,
             "timestamp": "2014-03-25T10:00:00-04:00", "text": ""},
        ]
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        cfg = PipelineConfig(events_path=str(path), tracts_path=city_paths["tracts"])
        rep = run_pipeline(cfg)
        assert rep["ingest"]["events_assigned"] == 2
        assert rep["users"]["local"] == 1

    def test_day_night_boundary_through_pipeline(self, tmp_path):
        tracts = feature_collection(
            [square_feature(f"T{i}", float(2 * i), 0.0) for i in range(4)]
        )
        tracts_path = tmp_path / "tracts.geojson"
        tracts_path.write_bytes(tracts)
        # one event per tract at each boundary instant, local NY time
        stamps = ["06:59:59", "07:00:00", "18:59:59", "19:00:00"]
        rows = [
            f"u{i},0.5,{2 * i + 0.5},2014-06-10T{hms}-04:00,#b"
            for i, hms in enumerate(stamps)
        ]
        events_path = tmp_path / "events.csv"
        events_path.write_bytes(events_csv(rows))
        cfg = PipelineConfig(events_path=str(events_path), tracts_path=str(tracts_path))
        _, internals = run_pipeline_full(cfg)
        view = cube_view(internals.aggregates, internals.tract_ids)
        want = ["night", "day", "day", "night"]
        for i, expect in enumerate(want):
            st = view[f"T{i}"]["all"]
            got = "day" if st["day_count"] == 1 else "night"
            assert (st["day_count"] + st["night_count"]) == 1
            assert got == expect, f"T{i} at {stamps[i]}"

    def test_events_outside_tracts_dropped_and_counted(self, tmp_path):
        tracts_path = tmp_path / "t.geojson"
        tracts_path.write_bytes(feature_collection([square_feature("T1", 0, 0)]))
        rows = [
            "u1,0.5,0.5,2014-03-05T10:00:00-04:00,in",
            "u2,5.0,5.0,2014-03-05T10:00:00-04:00,out",
        ]
        ep = tmp_path / "e.csv"
        ep.write_bytes(events_csv(rows))
        rep = run_pipeline(PipelineConfig(events_path=str(ep), tracts_path=str(tracts_path)))
        assert rep["ingest"]["events_assigned"] == 1
        assert rep["ingest"]["events_outside_tracts"] == 1

    def test_failed_worker_names_its_partition(self, city_paths, monkeypatch):
        cfg = quick_config(city_paths)
        ranges = partition_byte_ranges(cfg.events_path, 2)
        read = report.read_byte_range

        def read_or_fail(path, byte_range):
            if byte_range == ranges[1]:
                raise RuntimeError("unreadable range")
            return read(path, byte_range)

        monkeypatch.setattr(report, "read_byte_range", read_or_fail)
        with pytest.raises(InternalInvariantError) as exc:
            run_pipeline(cfg, partitions=2)
        start, end = ranges[1]
        assert str(exc.value).startswith(f"partition 1 (bytes {start}-{end}) failed:\n")
        assert "RuntimeError: unreadable range" in str(exc.value)

    @pytest.mark.parametrize("replies", [0, 1, 2])
    def test_worker_ending_without_reply_names_its_partition(self, city_paths, tmp_path,
                                                             monkeypatch, capsys, replies):
        # partition 1's worker ends after `replies` replies: before its
        # phase-1 reply, before the parent's phase-2 send, or after it
        cfg = quick_config(city_paths)
        ranges = partition_byte_ranges(cfg.events_path, 2)
        worker_main = report._worker_main

        def worker(conn, *job_args):
            if job_args[2] != ranges[1]:
                return worker_main(conn, *job_args)
            job = report._partition_job(*job_args)
            if replies > 0:
                conn.send(("ok", next(job)))
            if replies > 1:
                job.send(conn.recv())
            os._exit(9)

        monkeypatch.setattr(report, "_worker_main", worker)
        with pytest.raises(InternalInvariantError) as exc:
            run_pipeline(cfg, partitions=2)
        start, end = ranges[1]
        message = f"partition 1 (bytes {start}-{end}) failed:\nno reply; the worker exited with code 9"
        assert str(exc.value) == message
        assert multiprocessing.active_children() == []
        argv = ["run", "--events", cfg.events_path, "--tracts", cfg.tracts_path,
                "--out", str(tmp_path / "out"), "--partitions", "2"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"internal error: {message}\n"
        assert multiprocessing.active_children() == []

    def test_job_error_keeps_its_type_at_k1(self, city_paths, tmp_path, monkeypatch, capsys):
        # at k=1 the job runs here, so a ConnectionError it raises (a read
        # from a network mount, say) is its own error, not a worker's end
        def reset(*args):
            raise ConnectionResetError(104, "Connection reset by peer")

        monkeypatch.setattr(report, "parse_event_batch", reset)
        argv = ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: [Errno 104] Connection reset by peer\n"
        # a worker's job fails as any worker's does
        assert cli.main([*argv, "--partitions", "2"]) == 2
        start, end = partition_byte_ranges(city_paths["events"], 2)[0]
        err = capsys.readouterr().err
        assert err.startswith(f"internal error: partition 0 (bytes {start}-{end}) failed:\n")
        assert "ConnectionResetError: [Errno 104] Connection reset by peer" in err

    def test_workers_receive_masks_as_bytes(self, city_paths, monkeypatch):
        # the parent's only sends are the phase-2 messages, one per worker:
        # its users' masks as bytes, the dataset's month axis, and its
        # tags' int32 codes in the run's one tag vocabulary as bytes; the
        # phase-2 replies hold numbers only
        cfg = quick_config(city_paths)
        sent, received = [], []
        send, recv = Connection.send, Connection.recv

        def record_send(conn, obj):
            sent.append(obj)
            send(conn, obj)

        def record_recv(conn):
            received.append(recv(conn))
            return received[-1]

        monkeypatch.setattr(Connection, "send", record_send)
        monkeypatch.setattr(Connection, "recv", record_recv)
        rep, internals = run_pipeline_full(cfg, partitions=2)
        assert rep["ingest"]["events_outside_tracts"] == 0
        assert len(internals.months) == CITY.months
        batches = [parse_event_batch(read_byte_range(cfg.events_path, r))
                   for r in partition_byte_ranges(cfg.events_path, 2)]
        vocab, tag_codes = recode([b.tags for b in batches])
        assert [(type(m), len(m), months, type(t), np.frombuffer(t, np.int32).tolist())
                for m, months, t in sent] == [
            (bytes, len(b.users), internals.months, bytes, codes.tolist())
            for b, codes in zip(batches, tag_codes)
        ]
        assert list(internals.aggregates.vocab) == vocab

        def holds_str(obj):
            if isinstance(obj, (tuple, list)):
                return any(map(holds_str, obj))
            return isinstance(obj, str) or getattr(obj, "dtype", np.int8).kind in "OSU"

        assert holds_str(received[:2])  # phase 1 carries the vocabularies
        phase2 = received[2:]
        assert [status for status, _ in phase2] == ["ok", "ok"]
        assert not holds_str([cube for _, cube in phase2])

    @pytest.mark.parametrize("k", [1, 2])
    def test_user_outside_every_tract_not_counted(self, tmp_path, monkeypatch, k):
        # "gone" posts only outside the tract: parse codes its records,
        # but the tract filter leaves it no event to be counted by; at
        # k=2 its posts fill the first partition
        tracts_path = tmp_path / "t.geojson"
        tracts_path.write_bytes(feature_collection([square_feature("T1", 0, 0)]))
        rows = [f"gone,5.5,5.5,2014-03-0{d}T10:00:00Z,#far" for d in range(1, 6)]
        rows += [f"{u},0.5,0.5,2014-03-{d:02d}T10:00:00Z,#near" for u, d in
                 [("mixed", 1), ("in", 2), ("in", 25), ("mixed", 26), ("in", 27)]]
        rows.insert(6, "mixed,5.5,5.5,2014-03-20T10:00:00Z,#far")
        ep = tmp_path / "e.csv"
        ep.write_bytes(events_csv(rows))
        seen = []
        classify = report.classify_partials

        def record(partials, window_days):
            seen.extend(partials)
            return classify(partials, window_days)

        monkeypatch.setattr(report, "classify_partials", record)
        cfg = PipelineConfig(events_path=str(ep), tracts_path=str(tracts_path))
        rep, internals = run_pipeline_full(cfg, partitions=k)
        assert len(seen) == k
        assert all("gone" not in p.user_ids for p in seen)
        assert sorted(internals.user_ids) == ["in", "mixed"]
        assert rep["users"] == {"total": 2, "visitor": 0, "local": 2, "super_local": 2}
        assert rep["ingest"]["events_outside_tracts"] == 6
        assert rep["events_by_cohort"]["all"] == 5

    def test_one_tag_spelled_apart_across_ranges_counts_once(self, tmp_path):
        # "#NYC" only in the first byte range, "#nyc" and "#solo" only in
        # the last: each partition numbers its tags apart, and the run's
        # one vocabulary makes NYC one tag at every k
        tracts_path = tmp_path / "t.geojson"
        tracts_path.write_bytes(feature_collection([square_feature("T1", 0, 0)]))
        texts = ["#NYC"] * 8 + ["plain"] * 26 + ["#nyc #solo"] * 6
        rows = [f"u{i % 7},0.5,0.5,2014-03-{1 + i % 28:02d}T10:00:00Z,{text}"
                for i, text in enumerate(texts)]
        ep = tmp_path / "e.csv"
        ep.write_bytes(events_csv(rows))
        data = ep.read_bytes()
        ranges = [data[a:b] for a, b in partition_byte_ranges(ep, 4)]
        assert len(ranges) == 4
        assert [b"#NYC" in r for r in ranges] == [True, False, False, False]
        assert [b"#nyc" in r and b"#solo" in r for r in ranges] == [False, False, False, True]
        cfg = PipelineConfig(events_path=str(ep), tracts_path=str(tracts_path))
        outputs = []
        for k in (1, 2, 3, 4):
            paths = emit_outputs(*run_pipeline_full(cfg, partitions=k), tmp_path / f"k{k}")
            outputs.append({p.name: p.read_bytes() for p in paths})
        assert all(out == outputs[0] for out in outputs[1:])
        rows = csv.DictReader(io.StringIO(outputs[0]["tracts.csv"].decode()))
        t1 = next(r for r in rows if r["cohort"] == "all")
        assert (t1["tag_count"], t1["unique_tag_count"]) == ("20", "2")

    @pytest.mark.parametrize("k", [1, 2])
    def test_no_locals_and_months_apart(self, tmp_path, k):
        # every user posts once, so all are visitors and "local" is empty;
        # posts fall in January and March only, and at k=2 the first
        # partition gets January's and the second March's
        tracts_path = tmp_path / "t.geojson"
        tracts_path.write_bytes(
            feature_collection([square_feature("T1", 0, 0), square_feature("T2", 1, 0)])
        )
        rows = [f"u{m}{i},0.5,{i % 2}.5,2014-{m}-1{i}T10:00:00Z,#t{i % 3}"
                for m in ("01", "03") for i in range(10)]
        ep = tmp_path / "e.csv"
        ep.write_bytes(events_csv(rows))
        if k == 2:
            data = ep.read_bytes()
            first, second = (data[a:b] for a, b in partition_byte_ranges(ep, 2))
            assert b"2014-03" not in first and b"2014-01" not in second
        cfg = PipelineConfig(events_path=str(ep), tracts_path=str(tracts_path))
        rep = run_pipeline(cfg, partitions=k)
        assert rep["users"] == {"total": 20, "visitor": 20, "local": 0, "super_local": 0}
        assert rep["tag_summary"]["local"] is None
        assert rep["temporal"]["local"]["hourly_relative_entropy"] is None
        assert rep["temporal"]["local"]["daily_relative_entropy"] is None
        assert rep["rank_table"] == []
        assert rep["tracts"]["dataset_months"] == ["2014-01", "2014-02", "2014-03"]
        assert rep["temporal"]["visitor"]["monthly"] == {"2014-01": 10, "2014-03": 10}

    @pytest.mark.parametrize("k", [1, 2])
    def test_events_outside_tracts_match_oracle(self, city_paths, tmp_path, k):
        # every 5th event is moved off the tract grid with hashtags of its
        # own; the cube must equal the per-event reference over the events
        # left in a tract, so dropped events' hashtags reach no tract
        records = list(csv.reader(io.StringIO(Path(city_paths["events"]).read_text())))[1:]
        for i, rec in enumerate(records[::5]):
            rec[2] = str(float(rec[2]) + 10.0)
            rec[4] += f" #gone{i % 7} #gone"
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([EVENT_COLUMNS, *records])
        ep = tmp_path / "e.csv"
        ep.write_text(text.getvalue())
        cfg = PipelineConfig(events_path=str(ep), tracts_path=city_paths["tracts"])
        rep, internals = run_pipeline_full(cfg, partitions=k)
        assert rep["ingest"]["events_outside_tracts"] == len(records[::5])

        kept = []
        for rec in records:
            uid, lat, lon, epoch, text = oracles.validate_event_fields(rec)
            tid = oracles.assign_tract_naive(lat, lon, internals.tracts)
            if tid is not None:
                kept.append((uid, epoch, text, tid))
        labels, _ = oracles.classify_users_direct(
            [(uid, epoch) for uid, epoch, _, _ in kept], cfg.timezone, cfg.window_days
        )
        rows = [(epoch, text, tid, labels[uid]) for uid, epoch, text, tid in kept]
        want = oracles.aggregate_by_tract(rows, cfg.timezone)
        cube = internals.aggregates
        got = cube_view(cube, internals.tract_ids), bucket_view(cube, internals.months)
        assert got == oracle_views(want)

    def test_k1_run_leaves_numpy_ma_unloaded(self, city_paths, census_path, tmp_path):
        # a plain np.unique imports numpy.ma on its first call (15-17 ms
        # per process); a fresh interpreter shows whether any step did
        argv = ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
                "--census", census_path, "--out", str(tmp_path / "out")]
        code = (f"import sys; from geoineq import cli; assert cli.main({argv!r}) == 0; "
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(geoineq.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.splitlines()[-1] == "False"

    def test_k1_run_leaves_multiprocessing_unloaded(self, city_paths, tmp_path):
        # multiprocessing loads socket, selectors and signal (about 5 ms
        # per process); only a partitioned run needs it
        argv = ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
                "--out", str(tmp_path / "out")]
        code = (f"import sys; from geoineq import cli; assert cli.main({argv!r}) == 0; "
                "print('multiprocessing' in sys.modules)")
        assert _fresh_interpreter(code)[-1] == "False"


def _fresh_interpreter(code: str, **env: str) -> list[str]:
    """What ``code`` prints in a new interpreter, split at whitespace, run
    without OPENBLAS_NUM_THREADS unless ``env`` sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env = dict(base, PYTHONPATH=str(Path(geoineq.__file__).parents[1]), **env)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return done.stdout.split()


def _numpy_blas() -> str:
    """The name of the BLAS numpy was built with, lowercased; empty where
    numpy cannot say (before 1.26)."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()
    except (TypeError, KeyError):
        return ""


class TestBlasThreads:
    """numpy's OpenBLAS pool costs a CLI run tens of milliseconds to start
    and the pipeline makes no BLAS call, so the CLI asks for one thread.
    A program that only imports the package keeps its own setting."""

    def test_package_imports_set_nothing(self):
        out = _fresh_interpreter(
            "import os, sys, geoineq; print('numpy' in sys.modules); "
            "import geoineq.synth, geoineq.oracles; print('OPENBLAS_NUM_THREADS' in os.environ)"
        )
        assert out == ["False", "False"]

    def test_cli_defaults_to_one_thread(self):
        code = "import os, geoineq.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _fresh_interpreter(code) == ["1"]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc to count threads")
    @pytest.mark.skipif("openblas" not in _numpy_blas(), reason="numpy is not built on OpenBLAS")
    def test_cli_process_has_one_thread(self):
        # one thread holds only while no other module starts one at import
        code = "import os, geoineq.cli; print(len(os.listdir('/proc/self/task')))"
        assert _fresh_interpreter(code) == ["1"]

    def test_callers_thread_count_kept(self):
        code = "import os, geoineq.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _fresh_interpreter(code, OPENBLAS_NUM_THREADS="2") == ["2"]


def _module_env() -> dict[str, str]:
    """The environment of a new CLI process, whose stdout is buffered as
    a pipe's or a file's is by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=str(Path(geoineq.__file__).parents[1]))


def _module_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m geoineq`` with ``argv``, in a new interpreter."""
    return subprocess.run([sys.executable, "-m", "geoineq", *argv], env=_module_env(),
                          capture_output=True, text=True)


class TestCliProcess:
    """A CLI process runs no collection, nor does any worker it forks,
    and it ends with ``os._exit`` once main returns and its output is
    flushed; a program that imports the CLI keeps its GC state, and the
    process entry keeps main's outputs and exit codes."""

    @pytest.mark.parametrize("disabled", [False, True])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_import_leaves_gc_as_found(self, disabled, frozen):
        # frozen objects may die during the import, but none may thaw and
        # none is added
        code = (
            "import gc\n"
            f"if {disabled}: gc.disable()\n"
            f"if {frozen}: gc.freeze()\n"
            "enabled, frozen = gc.isenabled(), gc.get_freeze_count()\n"
            "import geoineq, geoineq.cli\n"
            "print(gc.isenabled() == enabled)\n"
            "print(0 < gc.get_freeze_count() <= frozen if frozen else gc.get_freeze_count() == 0)\n"
        )
        assert _fresh_interpreter(code) == ["True"] * 2

    @pytest.mark.parametrize("k", [1, 2])
    def test_cli_process_runs_no_collection(self, city_paths, tmp_path, k):
        # a callback set before geoineq.__main__ starts writes the pid of
        # every collection that starts below its frame, in the process or
        # in a worker it forks
        log = tmp_path / "collections"
        argv = ["geoineq", "run", "--events", city_paths["events"], "--tracts",
                city_paths["tracts"], "--out", str(tmp_path / "out"), "--partitions", str(k)]
        code = (
            "import gc, os, runpy, sys\n"
            "entry = os.path.join('geoineq', '__main__.py')\n"
            f"fd = os.open({str(log)!r}, os.O_WRONLY | os.O_CREAT | os.O_APPEND)\n"
            "def note(phase, info):\n"
            "    f = sys._getframe()\n"
            "    while f is not None and not f.f_code.co_filename.endswith(entry):\n"
            "        f = f.f_back\n"
            "    if phase == 'start' and f is not None:\n"
            "        os.write(fd, b'%d\\n' % os.getpid())\n"
            "gc.callbacks.append(note)\n"
            f"sys.argv = {argv!r}\n"
            "runpy.run_module('geoineq', run_name='__main__', alter_sys=True)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=_module_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == 7
        assert log.read_text() == ""

    @pytest.mark.parametrize("k", [1, 2])
    def test_module_entry_writes_what_main_writes(self, city_paths, census_path, tmp_path, k):
        out = tmp_path / "out"
        argv = ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
                "--census", census_path, "--out", str(out), "--partitions", str(k)]
        done = _module_cli(*argv)
        assert done.returncode == 0, done.stderr
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(written) == 7
        assert cli.main(argv) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written

    def test_module_entry_exit_codes(self, city_paths, tmp_path):
        done = _module_cli("run", "--events", str(tmp_path / "nope.csv"),
                           "--tracts", city_paths["tracts"], "--out", str(tmp_path / "out"))
        assert (done.returncode, done.stderr.startswith("error: ")) == (1, True)
        # an invariant violation, raised where the run starts
        code = (
            "import runpy, sys\n"
            "from geoineq import cli\n"
            "from geoineq.errors import InternalInvariantError\n"
            "def broken(*args, **kwargs):\n"
            "    raise InternalInvariantError('broken')\n"
            "cli.run_pipeline_full = broken\n"
            f"sys.argv = ['geoineq', 'run', '--events', {city_paths['events']!r},\n"
            f"            '--tracts', {city_paths['tracts']!r}, '--out', {str(tmp_path)!r}]\n"
            "runpy.run_module('geoineq', run_name='__main__')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(geoineq.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert (done.returncode, done.stderr) == (2, "internal error: broken\n")

    @pytest.mark.parametrize("k", [1, 2])
    def test_module_entry_lists_written_paths(self, city_paths, tmp_path, capsys, k):
        # a piped stdout is block-buffered and os._exit does not flush it,
        # so the entry must
        out = tmp_path / "out"
        argv = ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
                "--out", str(out), "--partitions", str(k)]
        done = _module_cli(*argv)
        assert done.returncode == 0, done.stderr
        assert sorted(done.stdout.splitlines()) == sorted(str(p) for p in out.iterdir())
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == done.stdout

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full to write to")
    def test_module_entry_unwritable_stdout_exit_1(self, city_paths):
        # a write to /dev/full fails with ENOSPC; a buffered stdout holds
        # the summary until the entry flushes it
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "geoineq", "ingest-check", "--events", city_paths["events"]],
                env=_module_env(), stdout=full, stderr=subprocess.PIPE, text=True,
            )
        assert done.returncode == 1
        assert done.stderr.startswith("error: cannot write to stdout: [Errno 28]"), done.stderr

    def test_cli_builds_no_dataclass(self, city_paths, tmp_path):
        # dataclasses writes and execs source for each class it makes;
        # synth's SynthParams is one, and synth loads only for its command
        argv = ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
                "--out", str(tmp_path / "out")]
        code = (
            "import sys; from geoineq import cli; print('dataclasses' in sys.modules); "
            f"assert cli.main({argv!r}) == 0; print('dataclasses' in sys.modules); "
            "import dataclasses, geoineq.synth; "
            "print(dataclasses.is_dataclass(geoineq.synth.SynthParams))"
        )
        out = _fresh_interpreter(code)  # the run prints its paths in between
        assert [out[0], *out[-2:]] == ["False", "False", "True"]


class TestTracer:
    # the spans the benchmark's layer metrics read; at k=2 the partition
    # jobs run in the workers, whose spans the tracer does not collect
    PARENT_SPANS = {"report.pipeline", "report.emit", "jsonio.dumps", "metrics", "ingest.census",
                    "ingest.tracts", "ingest.split", "geo.index", "aggregate.merge"}
    JOB_SPANS = {"ingest.read", "ingest.parse", "geo.assign", "timebins", "aggregate.batch"}
    PIPE_SPANS = {"partition.recv", "partition.recv_bytes", "partition.send_bytes"}

    @pytest.mark.parametrize("k", [1, 2])
    def test_benchmark_tracer_installs(self, city_paths, census_path, tmp_path, k):
        # the benchmark's tracer rebinds pipeline names and reads their
        # arguments by position; a run under it fails, loses spans or
        # miscounts when one of them is renamed away or reordered
        tracer = Path(__file__).resolve().parents[1] / "geobench" / "tracer.py"
        spans_path = tmp_path / "spans.json"
        argv = [sys.executable, str(tracer), str(spans_path), "run",
                "--events", city_paths["events"], "--tracts", city_paths["tracts"],
                "--census", census_path, "--out", str(tmp_path / "out"), "--partitions", str(k)]
        env = dict(os.environ, PYTHONPATH=str(Path(geoineq.__file__).parents[1]))
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        spans = json.loads(spans_path.read_text())["spans"]
        ingest = json.loads((tmp_path / "out" / "report.json").read_text())["ingest"]

        def total(name, key):
            return sum(span[key] for span in spans if span["name"] == name)

        names = {span["name"] for span in spans}
        if k == 1:
            assert self.PARENT_SPANS | self.JOB_SPANS <= names
            assert total("ingest.parse", "records") == ingest["records_total"]
            assert total("geo.assign", "points") == ingest["records_ok"]
            assert total("aggregate.batch", "events") == ingest["events_assigned"]
        else:
            assert self.PARENT_SPANS | self.PIPE_SPANS <= names
            assert not self.JOB_SPANS & names
            phase1 = [span["records"] for span in spans
                      if span["name"] == "partition.recv" and "records" in span]
            assert len(phase1) == k and sum(phase1) == ingest["records_total"]


class TestCsvTables:
    def test_indexes_csv_table1_shape(self, city_paths, tmp_path):
        cfg = quick_config(city_paths, cohorts=("visitor", "local"))
        rep, internals = run_pipeline_full(cfg)
        emit_outputs(rep, internals, tmp_path)
        lines = (tmp_path / "indexes.csv").read_text().splitlines()
        assert lines[0] == "distribution,metric,visitor,local,ratio"
        gini_row = next(l for l in lines if l.startswith("images,gini,"))
        cells = gini_row.split(",")
        assert len(cells) == 5
        v, l, ratio = float(cells[2]), float(cells[3]), float(cells[4])
        assert ratio == pytest.approx(v / l, rel=1e-9)

    def test_tags_csv_null_is_empty_cell(self, city_paths, tmp_path):
        tracts_path = tmp_path / "t.geojson"
        tracts_path.write_bytes(feature_collection([square_feature("T1", 0, 0)]))
        # single untagged visitor post: mean_tags_per_tagged_image is null
        ep = tmp_path / "e.csv"
        ep.write_bytes(events_csv(["u1,0.5,0.5,2014-03-05T10:00:00-04:00,no tags"]))
        cfg = PipelineConfig(events_path=str(ep), tracts_path=str(tracts_path))
        rep, internals = run_pipeline_full(cfg)
        emit_outputs(rep, internals, tmp_path / "out")
        text = (tmp_path / "out" / "tags.csv").read_text()
        reader = csv.DictReader(io.StringIO(text))
        row = next(r for r in reader if r["cohort"] == "visitor")
        assert row["mean_tags_per_tagged_image"] == ""
        assert rep["tag_summary"]["visitor"]["mean_tags_per_tagged_image"] is None

    def test_tracts_csv_covers_all_tracts(self, city_paths, tmp_path):
        rep, internals = run_pipeline_full(quick_config(city_paths))
        emit_outputs(rep, internals, tmp_path)
        lines = (tmp_path / "tracts.csv").read_text().splitlines()
        assert len(lines) == 1 + CITY.n_tracts * len(rep["config"]["cohorts"])


class TestLorenzSvg:
    def test_empty_curve_list(self):
        with pytest.raises(EmptyCurveList):
            emit_lorenz_svg([])

    def test_equality_curve_is_diagonal(self):
        svg = emit_lorenz_svg([lorenz_curve(distribution([2, 2], "flat"))])
        # with margin 48 and plot 384: (0,0) -> "48.00,432.00", (1,1) -> "432.00,48.00"
        assert 'points="48.00,432.00 240.00,240.00 432.00,48.00"' in svg
        assert "flat" in svg

    def test_legend_and_polyline_per_curve(self):
        curves = [
            lorenz_curve(distribution([1, 5], "visitors")),
            lorenz_curve(distribution([2, 3], "locals")),
        ]
        svg = emit_lorenz_svg(curves)
        assert svg.count("<polyline") == 2
        assert "visitors" in svg and "locals" in svg


def _parsed_tracts(geojson: dict) -> list:
    """The tracts of a FeatureCollection, read as ``run`` reads them."""
    return [tract_from_feature(f) for f in parse_tracts(json.dumps(geojson).encode())]


@st.composite
def _choropleth_cases(draw):
    """(FeatureCollection dict, values, breaks) for tracts made of
    rectangles, with holes, integer and -0.0 coordinates, Polygons and
    MultiPolygons, unicode properties and some tracts without a value."""
    lon = st.one_of(st.floats(-170, 170), st.integers(-170, 170), st.just(-0.0),
                    st.just(-73.98765432109876))
    lat = st.one_of(st.floats(-80, 80), st.integers(-80, 80), st.just(-0.0),
                    st.just(0.30000000000000004))
    size = st.one_of(st.floats(1e-3, 5), st.integers(1, 5))

    def polygon():
        x0, y0 = draw(lon), draw(lat)
        x1, y1 = x0 + draw(size), y0 + draw(size)
        rings = [[[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]]
        if draw(st.booleans()):  # a hole over a quarter of the rectangle
            hx, hy = (x0 + x1) / 2, (y0 + y1) / 2
            rings.append([[hx, hy], [hx, y1], [x1, y1], [x1, hy], [hx, hy]])
        return rings

    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=6, unique=True))
    scalar = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(-1e9, 1e9),
                       st.text(max_size=8))
    features = []
    for tid in ids:
        extra = draw(st.dictionaries(
            st.text(max_size=6).filter(lambda k: k not in ("tract_id", "area_km2")),
            scalar, max_size=3,
        ))
        items = list(extra.items())
        items.insert(draw(st.integers(0, len(items))), ("tract_id", tid))
        if draw(st.booleans()):
            geometry = {"type": "Polygon", "coordinates": polygon()}
        else:
            parts = [polygon() for _ in range(draw(st.integers(1, 3)))]
            geometry = {"type": "MultiPolygon", "coordinates": parts}
        features.append({"type": "Feature", "properties": dict(items), "geometry": geometry})
    valued = draw(st.lists(st.sampled_from(ids), unique=True))
    values = {tid: draw(st.floats(0, 1e6)) for tid in valued}
    return {"type": "FeatureCollection", "features": features}, values, draw(st.integers(2, 7))


class TestChoropleth:
    GEO = {
        "type": "FeatureCollection",
        "features": [square_feature(f"T{i}", float(i), 0.0) for i in range(4)],
    }
    TRACTS = _parsed_tracts(GEO)

    def test_one_class_per_bucket(self):
        values = {"T0": 1.0, "T1": 2.0, "T2": 3.0, "T3": 4.0}
        out = json.loads("".join(choropleth_parts(self.TRACTS, values, 4)))
        classes = {f["properties"]["tract_id"]: f["properties"]["class"] for f in out["features"]}
        assert classes == {"T0": 0, "T1": 1, "T2": 2, "T3": 3}

    def test_equal_values_single_class(self):
        values = {f"T{i}": 7.0 for i in range(4)}
        out = json.loads("".join(choropleth_parts(self.TRACTS, values, 4)))
        assert {f["properties"]["class"] for f in out["features"]} == {0}

    def test_missing_value_no_data(self):
        values = {"T0": 1.0, "T1": 2.0, "T2": 3.0}
        out = json.loads("".join(choropleth_parts(self.TRACTS, values, 3)))
        by_id = {f["properties"]["tract_id"]: f["properties"] for f in out["features"]}
        assert by_id["T3"]["class"] == "no-data"
        assert by_id["T3"]["value"] is None

    def test_bad_break_count(self):
        with pytest.raises(BadBreakCount):
            choropleth_parts(self.TRACTS, {"T0": 1.0}, 1)

    def test_geometry_passthrough(self):
        out = json.loads("".join(choropleth_parts(self.TRACTS, {"T0": 1.0}, 2)))
        for feat, tract in zip(out["features"], self.TRACTS, strict=True):
            assert feat["geometry"]["type"] == "Polygon"
            (poly,) = tract.polygons
            assert feat["geometry"]["coordinates"] == [ring.tolist() for ring in poly]

    @given(_choropleth_cases())
    def test_matches_direct_passthrough(self, case):
        geojson, values, breaks = case
        want = jsonio.dumps(oracles.choropleth_direct(json.loads(json.dumps(geojson)),
                                                      values, breaks))
        assert "".join(choropleth_parts(_parsed_tracts(geojson), values, breaks)) == want

    def test_altitude_and_extra_members_not_carried(self):
        feat = square_feature("T0", 0.0, 0.0)
        ring = feat["geometry"]["coordinates"][0]
        feat["geometry"]["coordinates"][0] = [[x, y, 12.5] for x, y in ring]
        feat["geometry"]["bbox"] = [0.0, 0.0, 1.0, 1.0]
        tracts = _parsed_tracts({"type": "FeatureCollection", "features": [feat]})
        out = json.loads("".join(choropleth_parts(tracts, {}, 2)))
        assert out["features"][0]["geometry"] == {"type": "Polygon", "coordinates": [ring]}

    def test_emit_never_holds_joined_choropleth(self, city_paths, tmp_path):
        # the choropleth goes to its file part by part: emit's peak stays
        # near one copy of the text (its parts), where joining it, or
        # encoding it whole, would add a second
        geo = json.loads(Path(city_paths["tracts"]).read_text())
        for feat in geo["features"]:
            (ring,) = feat["geometry"]["coordinates"]
            feat["geometry"]["coordinates"] = [
                [[x0 + (x1 - x0) * t / 500, y0 + (y1 - y0) * t / 500]
                 for (x0, y0), (x1, y1) in zip(ring, ring[1:]) for t in range(500)] + [ring[0]]
            ]
        tracts = tmp_path / "dense.geojson"
        tracts.write_text(json.dumps(geo))
        cfg = PipelineConfig(events_path=city_paths["events"], tracts_path=str(tracts))
        rep, internals = run_pipeline_full(cfg)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            emit_outputs(rep, internals, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        size = (tmp_path / "out" / "choropleth.geojson").stat().st_size
        assert size > 2**20
        assert peak < 1.5 * size, f"emit peak {peak / size:.2f}x the choropleth"


class TestCli:
    def test_run_and_outputs(self, city_paths, census_path, tmp_path, capsys):
        rc = cli.main(
            [
                "run",
                "--events", city_paths["events"],
                "--tracts", city_paths["tracts"],
                "--census", census_path,
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        out_dir = tmp_path / "out"
        for name in (
            "report.json", "indexes.csv", "tags.csv", "ranks.csv",
            "tracts.csv", "lorenz.svg", "choropleth.geojson",
        ):
            assert (out_dir / name).is_file(), name
        report = json.loads((out_dir / "report.json").read_text())
        assert sorted(report["manifest"]) == sorted(
            p.name for p in out_dir.iterdir()
        )

    def test_rerun_removes_outputs_it_does_not_make(self, city_paths, tmp_path, capsys):
        # a header-only events file gives no Lorenz curve, so the rerun
        # must not leave the first run's lorenz.svg beside its report
        empty = tmp_path / "empty.csv"
        empty.write_text("user_id,lat,lon,timestamp,text\n")
        out = tmp_path / "out"
        for events in (city_paths["events"], str(empty)):
            rc = cli.main(["run", "--events", events, "--tracts", city_paths["tracts"],
                           "--out", str(out)])
            assert rc == 0
            manifest = json.loads((out / "report.json").read_text())["manifest"]
            assert sorted(p.name for p in out.iterdir()) == sorted(manifest)
        assert "lorenz.svg" not in manifest

    @pytest.mark.parametrize("cohorts,chosen", [(None, "local"), ("visitor,all", "visitor")])
    def test_choropleth_maps_local_else_first_cohort(self, city_paths, tmp_path, capsys,
                                                      cohorts, chosen):
        out = tmp_path / "out"
        argv = ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
                "--out", str(out)]
        assert cli.main(argv + (["--cohorts", cohorts] if cohorts else [])) == 0
        by_cohort: dict = {}
        with open(out / "tracts.csv", encoding="utf-8", newline="") as f:
            for row in csv.DictReader(f):
                by_cohort.setdefault(row["cohort"], {})[row["tract_id"]] = float(row["value"])
        features = json.loads((out / "choropleth.geojson").read_text())["features"]
        got = {f["properties"]["tract_id"]: f["properties"]["value"] for f in features}
        assert got == by_cohort[chosen]
        # super_local may map as local does on this city; the others differ
        others = [c for c in ("visitor", "local", "all") if c in by_cohort and c != chosen]
        assert others and all(got != by_cohort[c] for c in others)

    def test_demo_city_script(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "demo_city.py"
        argv = [sys.executable, str(script), "--events", "5000", "--tracts", "50",
                "--out", str(tmp_path)]
        env = dict(os.environ, PYTHONPATH=str(Path(geoineq.__file__).parents[1]))
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        (line,) = [ln for ln in done.stdout.splitlines() if ln.startswith("ground-truth closure")]
        assert float(line.rsplit(" ", 1)[1]) <= 1e-12

    def test_missing_input_exit_1(self, city_paths, capsys):
        rc = cli.main(["run", "--events", "/nope.csv", "--tracts", city_paths["tracts"]])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, message", [
        (["run", "--tracts", "x"], 1, "the following arguments are required: --events"),
        (["run", "--events", "x", "--tracts", "x", "--bogus"], 1, "unrecognized arguments: --bogus"),
        (["run", "--events", "x", "--tracts", "x", "--partitions", "abc"], 1,
         "argument --partitions: invalid int value: 'abc'"),
        (["frobnicate"], 1, "argument command: invalid choice: 'frobnicate'"),
        ([], 1, "the following arguments are required: command"),
        (["--help"], 0, ""),
        (["run", "--help"], 0, ""),
    ], ids=["missing", "unknown", "not-an-int", "no-such-command", "no-command", "help",
            "run-help"])
    def test_usage_exit_codes(self, argv, code, message, capsys):
        # a usage error is an input error, exit 1 with argparse's message;
        # exit 2 stays for an internal invariant violation
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert f"error: {message}" in captured.err and not captured.out
        else:
            assert captured.out.startswith("usage: geoineq") and not captured.err

    def test_ingest_check(self, city_paths, capsys):
        rc = cli.main(
            ["ingest-check", "--events", city_paths["events"], "--tracts", city_paths["tracts"]]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"]["records_ok"] == CITY.n_events
        assert summary["tracts"]["count"] == CITY.n_tracts

    def test_metrics_subcommand(self, census_path, capsys):
        rc = cli.main(["metrics", "--csv", census_path, "--column", "median_income"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        # 15 matched tract rows plus the deliberately unmatched Z9999
        assert out["n"] == CITY.n_tracts
        assert 0.0 <= out["suite"]["gini"] < 1.0

    def test_synth_subcommand(self, tmp_path, capsys):
        rc = cli.main(
            ["synth", "--seed", "3", "--tracts", "9", "--local-users", "4",
             "--visitor-users", "4", "--events", "60", "--months", "2",
             "--out", str(tmp_path / "city")]
        )
        assert rc == 0
        assert (tmp_path / "city" / "events.csv").is_file()
        assert (tmp_path / "city" / "tracts.geojson").is_file()
        assert (tmp_path / "city" / "ground_truth.json").is_file()

    def test_flag_defaults_are_the_dataclass_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["run", "--events", "E", "--tracts", "T"])
        assert cli._config_from_args(args) == PipelineConfig("E", "T")
        assert cli._synth_params(parser.parse_args(["synth"])) == SynthParams()

    def test_synth_flags_set_their_fields(self):
        args = cli.build_parser().parse_args(
            ["synth", "--seed", "3", "--tracts", "9", "--local-users", "4",
             "--visitor-users", "5", "--events", "60", "--zipf-s", "0.5", "--start", "2015-12",
             "--months", "2", "--day-frac-local", "0.25", "--day-frac-visitor", "0.5",
             "--tz", "Europe/Paris"]
        )
        assert cli._synth_params(args) == SynthParams(
            seed=3, n_tracts=9, n_users_local=4, n_users_visitor=5, n_events=60, zipf_s=0.5,
            start_year=2015, start_month=12, months=2, day_fraction_local=0.25,
            day_fraction_visitor=0.5, tz="Europe/Paris",
        )

    def test_synth_unknown_timezone_exit_1(self, tmp_path, capsys):
        rc = cli.main(
            ["synth", "--seed", "3", "--tracts", "9", "--local-users", "4",
             "--visitor-users", "4", "--events", "60", "--months", "2",
             "--tz", "Not/AZone", "--out", str(tmp_path / "city")]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown timezone 'Not/AZone'\n"
        assert not (tmp_path / "city").exists()

    @pytest.mark.parametrize("start", ["2014", "2014-3x", "2014-13", "2014-00", "14-03",
                                       "2014-03-01", "２０１４-03"])
    def test_synth_bad_start_exit_1(self, tmp_path, capsys, start):
        rc = cli.main(
            ["synth", "--tracts", "9", "--local-users", "4", "--visitor-users", "4",
             "--events", "60", "--start", start, "--out", str(tmp_path / "city")]
        )
        assert rc == 1
        want = f"error: --start must be a month as YYYY-MM, got {start!r}\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "city").exists()

    def test_synth_start_sets_first_month(self, tmp_path, capsys):
        rc = cli.main(
            ["synth", "--tracts", "9", "--local-users", "4", "--visitor-users", "4",
             "--events", "60", "--months", "2", "--start", "2015-12",
             "--out", str(tmp_path / "city")]
        )
        assert rc == 0
        truth = json.loads((tmp_path / "city" / "ground_truth.json").read_text())
        assert truth["months"] == [[2015, 12], [2016, 1]]

    def test_lorenz_subcommand(self, census_path, tmp_path, capsys):
        out = tmp_path / "l.svg"
        rc = cli.main(
            ["lorenz", "--csv", census_path, "--column", "median_income",
             "--column", "median_rent", "--out", str(out)]
        )
        assert rc == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 2

    def test_choropleth_subcommand(self, city_paths, tmp_path):
        values = tmp_path / "values.csv"
        rows = ["tract_id,value"] + [f"T{k:04d},{k}.0" for k in range(1, CITY.n_tracts + 1)]
        values.write_text("\n".join(rows) + "\n")
        out = tmp_path / "ch.geojson"
        rc = cli.main(
            ["choropleth", "--tracts", city_paths["tracts"], "--values", str(values),
             "--breaks", "4", "--out", str(out)]
        )
        assert rc == 0
        fc = json.loads(out.read_text())
        assert len(fc["features"]) == CITY.n_tracts

    def test_emit_reads_no_input(self, city_paths, tmp_path):
        tracts = tmp_path / "tracts.geojson"
        tracts.write_bytes(Path(city_paths["tracts"]).read_bytes())
        config = PipelineConfig(events_path=city_paths["events"], tracts_path=str(tracts))
        rep, internals = run_pipeline_full(config)
        tracts.unlink()
        written = emit_outputs(rep, internals, tmp_path / "out")
        assert sorted(p.name for p in written) == sorted(report.OUTPUT_NAMES.values())
        assert all(p.stat().st_size > 0 for p in written)

    def test_bom_tracts_file(self, city_paths, tmp_path, capsys):
        bom = tmp_path / "bom.geojson"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(city_paths["tracts"]).read_bytes())
        values = tmp_path / "values.csv"
        values.write_text("tract_id,value\nT0001,1.0\nT0002,2.0\n")
        maps = {}
        for name, tracts in (("plain", city_paths["tracts"]), ("bom", str(bom))):
            for k in (1, 2):
                out = tmp_path / f"{name}{k}"
                rc = cli.main(["run", "--events", city_paths["events"], "--tracts", tracts,
                               "--partitions", str(k), "--out", str(out)])
                assert rc == 0, (name, k)
                assert sorted(p.name for p in out.iterdir()) == sorted(report.OUTPUT_NAMES.values())
                maps[name, k] = (out / "choropleth.geojson").read_bytes()
            out = tmp_path / f"{name}.geojson"
            rc = cli.main(["choropleth", "--tracts", tracts, "--values", str(values),
                           "--out", str(out)])
            assert rc == 0, name
            maps[name, "choropleth"] = out.read_bytes()
        for key in (1, 2, "choropleth"):
            assert maps["bom", key] == maps["plain", key], key

    @pytest.mark.parametrize("command", ["run", "ingest-check", "choropleth"])
    @pytest.mark.parametrize("bad", ["0.5", True], ids=["string", "bool"])
    def test_coordinate_not_a_number_exit_1(self, tmp_path, capsys, command, bad):
        feats = [square_feature(f"T{i}", 2 * i, 0) for i in range(6)]
        feats[3]["geometry"]["coordinates"][0][2][1] = bad
        tracts = tmp_path / "t.geojson"
        tracts.write_bytes(feature_collection(feats))
        events = tmp_path / "e.csv"
        events.write_bytes(events_csv(["u1,0.5,0.5,2014-03-01T10:00:00Z,"]))
        values = tmp_path / "values.csv"
        values.write_text("tract_id,value\nT0,1.0\n")
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--events", str(events), "--out", str(out)],
            "ingest-check": ["ingest-check", "--events", str(events)],
            "choropleth": ["choropleth", "--values", str(values), "--out", str(out)],
        }[command]
        assert cli.main(argv + ["--tracts", str(tracts)]) == 1
        assert capsys.readouterr().err == f"error: tract T3: coordinate {bad!r} is not a number\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ingest-check", "choropleth"])
    @pytest.mark.parametrize("shape, message", [
        ({"features": [1]}, "feature lacks a tract_id property"),
        ({"features": {"a": 1}}, "input is not a GeoJSON FeatureCollection"),
        ({"properties": [1]}, "feature lacks a tract_id property"),
        ({"geometry": "x"}, "tract T3: geometry type None"),
        ({"geometry": {"type": "Polygon", "coordinates": 5}}, "tract T3: malformed coordinates"),
        ({"geometry": {"type": "MultiPolygon", "coordinates": [5]}},
         "tract T3: malformed coordinates"),
    ], ids=["features-ints", "features-object", "properties-list", "geometry-string",
            "polygon-int", "multipolygon-ints"])
    def test_malformed_geojson_structure_exit_1(self, tmp_path, capsys, command, shape,
                                                message):
        feats = [square_feature(f"T{i}", 2 * i, 0) for i in range(6)]
        collection = {"type": "FeatureCollection", "features": feats}
        if "features" in shape:
            collection.update(shape)
        else:
            feats[3].update(shape)
        tracts = tmp_path / "t.geojson"
        tracts.write_text(json.dumps(collection))
        events = tmp_path / "e.csv"
        events.write_bytes(events_csv(["u1,0.5,0.5,2014-03-01T10:00:00Z,"]))
        values = tmp_path / "values.csv"
        values.write_text("tract_id,value\nT0,1.0\n")
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--events", str(events), "--out", str(out)],
            "ingest-check": ["ingest-check", "--events", str(events)],
            "choropleth": ["choropleth", "--values", str(values), "--out", str(out)],
        }[command]
        assert cli.main(argv + ["--tracts", str(tracts)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ingest-check", "choropleth"])
    def test_tracts_not_utf8_exit_1(self, tmp_path, capsys, command):
        data = feature_collection([square_feature(f"T{i}", 2 * i, 0) for i in range(6)])
        tracts = tmp_path / "t.geojson"
        tracts.write_bytes(data.replace(b"T3", b"T\xff"))
        position = data.index(b"T3") + 1
        events = tmp_path / "e.csv"
        events.write_bytes(events_csv(["u1,0.5,0.5,2014-03-01T10:00:00Z,"]))
        values = tmp_path / "values.csv"
        values.write_text("tract_id,value\nT0,1.0\n")
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--events", str(events), "--out", str(out)],
            "ingest-check": ["ingest-check", "--events", str(events)],
            "choropleth": ["choropleth", "--values", str(values), "--out", str(out)],
        }[command]
        assert cli.main(argv + ["--tracts", str(tracts)]) == 1
        assert capsys.readouterr() == ("", (
            "error: not valid GeoJSON: 'utf-8' codec can't decode byte 0xff in position "
            f"{position}: invalid start byte\n"
        ))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ingest-check"])
    def test_census_not_utf8_exit_1(self, city_paths, tmp_path, capsys, command):
        census = tmp_path / "census.csv"
        census.write_bytes(b"tract_id,median_income\nT0001,4\xff000\n")
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--out", str(out)],
            "ingest-check": ["ingest-check"],
        }[command]
        rc = cli.main(argv + ["--events", city_paths["events"], "--tracts", city_paths["tracts"],
                              "--census", str(census)])
        assert rc == 1
        assert capsys.readouterr() == ("", (
            "error: census CSV is not UTF-8: 'utf-8' codec can't decode byte 0xff in "
            "position 30: invalid start byte\n"
        ))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "lorenz", "choropleth"])
    def test_value_table_not_utf8_exit_1(self, city_paths, tmp_path, capsys, command):
        table = tmp_path / "table.csv"
        table.write_bytes(b"tract_id,value\nT0001,4\xff000\n")
        out = tmp_path / "out"
        argv = {
            "metrics": ["metrics", "--csv", str(table)],
            "lorenz": ["lorenz", "--csv", str(table), "--out", str(out)],
            "choropleth": ["choropleth", "--tracts", city_paths["tracts"],
                           "--values", str(table), "--out", str(out)],
        }[command]
        assert cli.main(argv + ["--column", "value"]) == 1
        assert capsys.readouterr() == ("", (
            f"error: value table {table} is not UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 22: invalid start byte\n"
        ))
        assert not out.exists()

    def test_choropleth_repeated_tract_id_exit_1(self, city_paths, tmp_path, capsys):
        # the last row must not silently win
        values = tmp_path / "values.csv"
        values.write_text("tract_id,value\nT0001,1\nT0002,2\nT0001,4\n")
        out = tmp_path / "ch.geojson"
        rc = cli.main(["choropleth", "--tracts", city_paths["tracts"], "--values", str(values),
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr() == (
            "", f"error: tract_id T0001 repeats in value table {values}\n"
        )
        assert not out.exists()

    def test_choropleth_geometry_shaped_properties_unchanged(self, tmp_path, capsys):
        # properties holding Polygon- and MultiPolygon-shaped objects, and
        # a geometry member, with two-float, int, 3D and 17-digit rings,
        # are written as the lists they were read from
        ring = [[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5], [0.5, 0.5]]
        shapes = {
            "two_float": {"type": "Polygon", "coordinates": [ring]},
            "int": {"type": "Polygon", "coordinates": [[[0, 0], [10**13, 0], [1, 1], [0, 0]]]},
            "three_d": {"type": "MultiPolygon",
                        "coordinates": [[[[0.5, 0.5, 12.5], [1.5, 0.5, 3], [0.5, 0.5, 0.0]]]]},
            "digits_17": {"type": "Polygon", "coordinates": [[[0.30000000000000004, -0.0],
                                                              [-73.98765432109876, 1e-7]]]},
        }
        feats = [
            square_feature("T0", 0.5, 0.5, props=shapes),
            square_feature("T1", 2.5, 0.5, props={"geometry": shapes["two_float"],
                                                  "nested": {"geometry": shapes["int"]}}),
        ]
        tracts = tmp_path / "t.geojson"
        tracts.write_bytes(feature_collection(feats))
        values = tmp_path / "values.csv"
        values.write_text("tract_id,value\nT0,1.0\nT1,2.5\n")
        out = tmp_path / "map.geojson"
        argv = ["choropleth", "--tracts", str(tracts), "--values", str(values), "--out", str(out)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == f"{out}\n"
        assert out.read_bytes() == (GOLDEN / "choropleth_geometry_properties.geojson").read_bytes()

    @pytest.mark.parametrize("k", [1, 2])
    def test_unknown_timezone_exit_1(self, city_paths, tmp_path, capsys, k):
        rc = cli.main(
            ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
             "--tz", "Not/AZone", "--partitions", str(k), "--out", str(tmp_path)]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown timezone 'Not/AZone'\n"

    def test_jsonl_bom_tallies_match_ingest_check(self, tmp_path, capsys):
        tracts = tmp_path / "t.geojson"
        tracts.write_bytes(feature_collection([square_feature("T1", 0, 0)]))
        rows = [
            json.dumps({"user_id": f"u{i % 7}", "lat": 0.5, "lon": 0.5,
                        "timestamp": f"2014-03-{i % 28 + 1:02d}T10:00:00-04:00", "text": ""})
            for i in range(200)
        ]
        events = tmp_path / "e.jsonl"
        events.write_bytes(b"\xef\xbb\xbf" + "\n".join(rows).encode() + b"\n")
        assert cli.main(["ingest-check", "--events", str(events)]) == 0
        want = json.loads(capsys.readouterr().out)["events"]
        assert want["records_ok"] == 200
        for k in (1, 2):
            out = tmp_path / f"out{k}"
            rc = cli.main(["run", "--events", str(events), "--tracts", str(tracts),
                           "--partitions", str(k), "--out", str(out)])
            assert rc == 0
            ingest = json.loads((out / "report.json").read_text())["ingest"]
            assert {key: ingest[key] for key in want} == want, k

    def test_jsonl_user_id_not_string_or_int_is_malformed(self, tmp_path, capsys):
        tracts = tmp_path / "t.geojson"
        tracts.write_bytes(feature_collection([square_feature("T1", 0, 0)]))
        ids = [None, True, 1.5, [], {}, 42, "42", "u1"]
        rows = [
            json.dumps({"user_id": uid, "lat": 0.5, "lon": 0.5,
                        "timestamp": f"2014-03-{i + 1:02d}T10:00:00-04:00", "text": ""})
            for i, uid in enumerate(ids)
        ]
        events = tmp_path / "e.jsonl"
        events.write_text("\n".join(rows) + "\n")
        assert cli.main(["ingest-check", "--events", str(events)]) == 0
        want = json.loads(capsys.readouterr().out)["events"]
        assert (want["records_ok"], want["errors"]) == (3, {"MalformedRecord": 5})
        for k in (1, 2):
            out = tmp_path / f"out{k}"
            rc = cli.main(["run", "--events", str(events), "--tracts", str(tracts),
                           "--partitions", str(k), "--out", str(out)])
            assert rc == 0
            got = json.loads((out / "report.json").read_text())
            assert {key: got["ingest"][key] for key in want} == want, k
            assert got["users"]["total"] == 2  # 42 and "42" are one user

    @pytest.mark.parametrize("month", ["9999-12", "0001-01"])
    def test_edge_year_run_matches_ingest_check(self, tmp_path, capsys, month):
        # both months have 31 days; a stamp on 0001-01-01 or 9999-12-31
        # (UTC) is refused, as its local date may leave the years 1-9999
        tracts = tmp_path / "t.geojson"
        tracts.write_bytes(feature_collection([square_feature("T1", 0, 0)]))
        rows = [f"u{i % 3},0.5,0.5,{month}-{i + 1:02d}T12:00:00Z,#x" for i in range(31)]
        events = tmp_path / "e.csv"
        events.write_bytes(events_csv([*rows, "u0,0.5,0.5,not-a-time,"]))
        assert cli.main(["ingest-check", "--events", str(events)]) == 0
        want = json.loads(capsys.readouterr().out)["events"]
        assert (want["records_ok"], want["records_skipped"]) == (30, 2)
        assert want["errors"] == {"BadTimestamp": 2}
        for k in (1, 2):
            out = tmp_path / f"out{k}"
            rc = cli.main(["run", "--events", str(events), "--tracts", str(tracts),
                           "--partitions", str(k), "--out", str(out)])
            assert rc == 0, capsys.readouterr().err
            got = json.loads((out / "report.json").read_text())
            assert {key: got["ingest"][key] for key in want} == want, k
            assert got["tracts"]["dataset_months"] == [month]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "stamps",
        [
            ["1970-01-01T12:00:00Z"],
            # New York months 0001-01 and 9999-12, the first and the last
            # month a kept stamp can have
            ["0001-01-15T12:00:00Z", "9999-12-15T12:00:00Z"],
        ],
        ids=["1970", "0001-and-9999"],
    )
    def test_stray_records_keep_run_small(self, city_paths, tmp_path, capsys, stamps, k):
        # records far outside the collection period stretch the dataset
        # months; under a 1 GiB address-space limit the run must still
        # finish in seconds, tally as ingest-check does, and count the
        # months the per-event reference counts
        records = list(csv.reader(io.StringIO(Path(city_paths["events"]).read_text())))[1:]
        lat, lon = records[0][1:3]
        records += [[f"stray{i}", lat, lon, ts, "#x"] for i, ts in enumerate(stamps)]
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([EVENT_COLUMNS, *records])
        events = tmp_path / "e.csv"
        events.write_text(text.getvalue())
        out = tmp_path / "out"
        argv = [sys.executable, "-m", "geoineq", "run", "--events", str(events),
                "--tracts", city_paths["tracts"], "--partitions", str(k), "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=str(Path(geoineq.__file__).parents[1]))

        def limit_address_space():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        with subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, text=True,
                              start_new_session=True, preexec_fn=limit_address_space) as child:
            try:
                _, err = child.communicate(timeout=10)
            finally:  # a run past its time takes its workers down with it
                if child.poll() is None:
                    os.killpg(child.pid, signal.SIGKILL)
        assert child.returncode == 0, err
        got = json.loads((out / "report.json").read_text())
        assert cli.main(["ingest-check", "--events", str(events)]) == 0
        want = json.loads(capsys.readouterr().out)["events"]
        assert {key: got["ingest"][key] for key in want} == want

        tz, window_days = got["config"]["timezone"], got["config"]["window_days"]
        tracts = [tract_from_feature(f) for f in parse_tracts(Path(city_paths["tracts"]))]
        kept = []
        for rec in records:
            uid, lat_, lon_, epoch, text_ = oracles.validate_event_fields(rec)
            tid = oracles.assign_tract_naive(lat_, lon_, tracts)
            if tid is not None:
                kept.append((uid, epoch, text_, tid))
        labels, months = oracles.classify_users_direct(
            [(uid, epoch) for uid, epoch, _, _ in kept], tz, window_days
        )
        rows = [(epoch, text_, tid, labels[uid]) for uid, epoch, text_, tid in kept]
        _, buckets = oracle_views(oracles.aggregate_by_tract(rows, tz))
        assert got["tracts"]["dataset_months"] == ["%04d-%02d" % m for m in months]
        for cohort in got["config"]["cohorts"]:
            hist = buckets[cohort]["month_histogram"] if cohort in buckets else {}
            want_monthly = {"%04d-%02d" % m: n for m, n in hist.items()}
            assert got["temporal"][cohort]["monthly"] == want_monthly, cohort

    @pytest.mark.parametrize("stamp, tz", [("0001-01-01T03:00:00Z", "America/New_York"),
                                           ("9999-12-31T20:00:00Z", "Asia/Tokyo")])
    def test_stamp_with_local_date_outside_years_refused(self, city_paths, tmp_path, stamp, tz):
        # local 0000-12-31 in New York and 10000-01-01 in Tokyo, which no
        # datetime holds: the record is a BadTimestamp, and the run is the
        # run without it
        header, *records = Path(city_paths["events"]).read_text().splitlines()[:50]
        lat, lon = next(csv.reader([records[0]]))[1:3]
        reports = []
        for extra in ([], [f"stray,{lat},{lon},{stamp},#x"]):
            events = tmp_path / f"e{len(extra)}.csv"
            events.write_text("\n".join([header, *records, *extra]) + "\n")
            out = tmp_path / f"out{len(extra)}"
            assert cli.main(["run", "--events", str(events), "--tracts", city_paths["tracts"],
                             "--tz", tz, "--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        alone, with_stray = reports
        assert with_stray["ingest"]["errors"] == {"BadTimestamp": 1}
        assert with_stray["ingest"]["records_ok"] == alone["ingest"]["records_ok"] == 49
        for key in ("tracts", "users", "events_by_cohort", "temporal"):
            assert with_stray[key] == alone[key], key

    @pytest.mark.parametrize("probe", list(_PROBE_RESULTS))
    def test_probe_input_same_in_run_and_ingest_check(self, probe_city, tmp_path, capsys, probe):
        rc, tallies = _PROBE_RESULTS[probe]
        events = _probe_events(probe, Path(probe_city["events"]), tmp_path)
        got = []
        for k in (1, 2, 4):
            out = tmp_path / f"out{k}"
            code = cli.main(["run", "--events", str(events), "--tracts", probe_city["tracts"],
                             "--partitions", str(k), "--out", str(out)])
            summary = json.loads((out / "report.json").read_text())["ingest"] if code == 0 else {}
            got.append((code, _tallies(summary), capsys.readouterr().err))
        code = cli.main(["ingest-check", "--events", str(events)])
        captured = capsys.readouterr()
        summary = json.loads(captured.out)["events"] if code == 0 else {}
        got.append((code, _tallies(summary), captured.err))
        assert got == [got[0]] * 4
        assert got[0][:2] == (rc, tallies)
        if rc:
            assert got[0][2].startswith("error: CSV header must be user_id,lat,lon,timestamp,text")
            assert got[0][2].count("\n") == 1

    def test_bad_cohort_exit_1(self, city_paths, tmp_path, capsys):
        for cohorts in ("martians", "local,local"):
            rc = cli.main(
                ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
                 "--cohorts", cohorts, "--out", str(tmp_path)]
            )
            assert rc == 1, cohorts
            assert not (tmp_path / "indexes.csv").exists()

    @pytest.mark.parametrize("command", ["run", "ingest-check"])
    @pytest.mark.parametrize(
        "bad,message",
        [
            (None, "computed area_km2 nan"),
            (math.nan, "area_km2 nan"),
            (math.inf, "area_km2 inf"),
            ("abc", "area_km2 'abc'"),
        ],
        ids=["nan-vertex", "nan-area", "inf-area", "text-area"],
    )
    def test_non_finite_tract_area_exit_1(self, tmp_path, capsys, command, bad, message):
        feats = [square_feature(f"T{i}", 2 * i, 0) for i in range(6)]
        if bad is None:
            feats[3]["geometry"]["coordinates"][0][2] = [math.nan, 1.0]
        else:
            feats[3]["properties"]["area_km2"] = bad
        tracts = tmp_path / "t.geojson"
        tracts.write_bytes(feature_collection(feats))
        events = tmp_path / "e.csv"
        events.write_bytes(events_csv(
            [f"u{i % 3},0.5,{2 * i + 0.5},2014-03-0{i + 1}T10:00:00Z," for i in range(6)]
        ))
        out = tmp_path / "out"
        argv = [command, "--events", str(events), "--tracts", str(tracts)]
        rc = cli.main(argv + (["--out", str(out)] if command == "run" else []))
        assert rc == 1
        want = f"error: tract T3: {message} is not a finite positive number\n"
        assert capsys.readouterr().err == want
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["inf", "nan", "abc"])
    @pytest.mark.parametrize("command", ["metrics", "lorenz", "choropleth", "run"])
    def test_value_not_a_finite_number_exit_1(self, city_paths, tmp_path, capsys, command, bad):
        # one bad cell, in the third row: tract T0003
        rows = ["tract_id,median_income"]
        rows += [f"T{k:04d},{40000 + 100 * k}" for k in range(1, CITY.n_tracts + 1)]
        rows[3] = f"T0003,{bad}"
        table = tmp_path / "table.csv"
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        column = ["--column", "median_income"]
        argv = {
            "metrics": ["metrics", "--csv", str(table), *column],
            "lorenz": ["lorenz", "--csv", str(table), *column, "--out", str(out)],
            "choropleth": ["choropleth", "--tracts", city_paths["tracts"],
                           "--values", str(table), *column, "--out", str(out)],
            "run": ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
                    "--census", str(table), "--out", str(out)],
        }[command]
        assert cli.main(argv) == 1
        want = f"error: median_income='{bad}' for tract T0003 is not a finite number\n"
        assert capsys.readouterr() == ("", want)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "lorenz", "run", "ingest-check"])
    def test_negative_value_exit_1(self, city_paths, tmp_path, capsys, command):
        # one negative cell, in the third row (tract T0003), of a column
        # that is no named census indicator
        rows = ["tract_id,net_migration"] + [f"T{k:04d},{k}" for k in range(1, CITY.n_tracts + 1)]
        rows[3] = "T0003,-3"
        table = tmp_path / "table.csv"
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        column = ["--column", "net_migration"]
        inputs = ["--events", city_paths["events"], "--tracts", city_paths["tracts"],
                  "--census", str(table)]
        argv = {
            "metrics": ["metrics", "--csv", str(table), *column],
            "lorenz": ["lorenz", "--csv", str(table), *column, "--out", str(out)],
            "run": ["run", *inputs, "--out", str(out)],
            "ingest-check": ["ingest-check", *inputs],
        }[command]
        assert cli.main(argv) == 1
        if command in ("metrics", "lorenz"):
            want = "error: 'net_migration', unit 'T0003': negative or non-finite value -3.0\n"
        else:
            want = "error: net_migration=-3.0 for tract T0003 (negative)\n"
        assert capsys.readouterr() == ("", want)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "lorenz", "ingest-check", "run"])
    def test_repeated_tract_id_exit_1(self, city_paths, tmp_path, capsys, command):
        # T0001 on two rows of a value table or census CSV, or on two
        # features of the tracts file
        table = tmp_path / "table.csv"
        table.write_text("tract_id,value\nT0001,100\nT0002,200\nT0001,300\n")
        tracts = tmp_path / "t.geojson"
        tracts.write_bytes(feature_collection(
            [square_feature("T0001", 0, 0), square_feature("T0001", 2, 0)]
        ))
        out = tmp_path / "out"
        argv = {
            "metrics": ["metrics", "--csv", str(table), "--column", "value"],
            "lorenz": ["lorenz", "--csv", str(table), "--column", "value", "--out", str(out)],
            "ingest-check": ["ingest-check", "--events", city_paths["events"],
                             "--census", str(table)],
            "run": ["run", "--events", city_paths["events"], "--tracts", str(tracts),
                    "--out", str(out)],
        }[command]
        where = {"ingest-check": "census CSV", "run": "tracts GeoJSON"}
        assert cli.main(argv) == 1
        want = f"error: tract_id T0001 repeats in {where.get(command, f'value table {table}')}\n"
        assert capsys.readouterr() == ("", want)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "lorenz", "choropleth", "ingest-check"])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("T0002,2,9", "{table} row has 3 cells, expected 2"),
            ("T0002", "{table} row has 1 cells, expected 2"),
            ('"",2', "{table} row with empty tract_id"),
        ],
        ids=["long-row", "short-row", "empty-id"],
    )
    def test_malformed_table_row_exit_1(self, city_paths, tmp_path, capsys, command, row,
                                        message):
        # the second row of a value table or census CSV is refused, not
        # skipped, cut short or counted as a unit of its own
        table = tmp_path / "table.csv"
        table.write_text(f"tract_id,value\nT0001,1\n{row}\nT0003,3\n")
        out = tmp_path / "out"
        column = ["--column", "value"]
        argv = {
            "metrics": ["metrics", "--csv", str(table), *column],
            "lorenz": ["lorenz", "--csv", str(table), *column, "--out", str(out)],
            "choropleth": ["choropleth", "--tracts", city_paths["tracts"],
                           "--values", str(table), *column, "--out", str(out)],
            "ingest-check": ["ingest-check", "--events", city_paths["events"],
                             "--census", str(table)],
        }[command]
        assert cli.main(argv) == 1
        name = "census CSV" if command == "ingest-check" else f"value table {table}"
        assert capsys.readouterr() == ("", f"error: {message.format(table=name)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["choropleth", "ingest-check"])
    def test_table_without_tract_id_exit_1(self, city_paths, tmp_path, capsys, command):
        # a misnamed id column must not map every tract to no-data
        table = tmp_path / "table.csv"
        table.write_text("GEOID,value\nT0001,1\nT0002,2\n")
        out = tmp_path / "out"
        argv = {
            "choropleth": ["choropleth", "--tracts", city_paths["tracts"],
                           "--values", str(table), "--out", str(out)],
            "ingest-check": ["ingest-check", "--events", city_paths["events"],
                             "--census", str(table)],
        }[command]
        assert cli.main(argv) == 1
        name = "census CSV" if command == "ingest-check" else f"value table {table}"
        assert capsys.readouterr() == ("", f"error: {name} must have a tract_id column\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "lorenz", "choropleth", "ingest-check"])
    def test_repeated_column_exit_1(self, city_paths, tmp_path, capsys, command):
        # the second v must not silently stand for the column
        table = tmp_path / "table.csv"
        table.write_text("tract_id,v,v\nT0001,1,2\nT0002,3,4\n")
        out = tmp_path / "out"
        column = ["--column", "v"]
        argv = {
            "metrics": ["metrics", "--csv", str(table), *column],
            "lorenz": ["lorenz", "--csv", str(table), *column, "--out", str(out)],
            "choropleth": ["choropleth", "--tracts", city_paths["tracts"],
                           "--values", str(table), *column, "--out", str(out)],
            "ingest-check": ["ingest-check", "--events", city_paths["events"],
                             "--census", str(table)],
        }[command]
        assert cli.main(argv) == 1
        name = "census CSV" if command == "ingest-check" else f"value table {table}"
        assert capsys.readouterr() == ("", f"error: column 'v' repeats in {name}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "metrics", "lorenz", "choropleth", "ingest-check"])
    def test_unnamed_column_exit_1(self, city_paths, tmp_path, capsys, command):
        # a trailing comma in the header must not read as a column named ""
        table = tmp_path / "table.csv"
        table.write_text("tract_id,v,\nT0001,1,\nT0002,3,\n")
        out = tmp_path / "out"
        column = ["--column", "v"]
        argv = {
            "run": ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
                    "--census", str(table), "--out", str(out)],
            "metrics": ["metrics", "--csv", str(table), *column],
            "lorenz": ["lorenz", "--csv", str(table), *column, "--out", str(out)],
            "choropleth": ["choropleth", "--tracts", city_paths["tracts"],
                           "--values", str(table), *column, "--out", str(out)],
            "ingest-check": ["ingest-check", "--events", city_paths["events"],
                             "--census", str(table)],
        }[command]
        assert cli.main(argv) == 1
        name = "census CSV" if command in ("run", "ingest-check") else f"value table {table}"
        assert capsys.readouterr() == ("", f"error: column 3 of {name} has no name\n")
        assert not out.exists()

    def test_choropleth_padded_tract_id_maps_to_its_tract(self, city_paths, tmp_path, capsys):
        values = tmp_path / "values.csv"
        values.write_text('tract_id,value\n" T0001",1\nT0002 ,2\n')
        out = tmp_path / "ch.geojson"
        rc = cli.main(["choropleth", "--tracts", city_paths["tracts"], "--values", str(values),
                       "--out", str(out)])
        assert rc == 0
        features = json.loads(out.read_text())["features"]
        mapped = {f["properties"]["tract_id"]: f["properties"]["value"] for f in features}
        assert (mapped["T0001"], mapped["T0002"], mapped["T0003"]) == (1.0, 2.0, None)

    @pytest.mark.parametrize("command", ["metrics", "lorenz", "run"])
    def test_sum_past_largest_float_exit_1(self, tmp_path, capsys, command):
        # every value is finite, their sum is not
        params = SynthParams(seed=4, n_tracts=4, n_users_local=3, n_users_visitor=3,
                             n_events=60, months=2)
        city = write_city(params, tmp_path / "city")
        table = tmp_path / "census.csv"
        table.write_text("tract_id,median_income\n"
                         + "".join(f"T{k:04d},1e308\n" for k in range(1, 5)))
        out = tmp_path / "out"
        column = ["--column", "median_income"]
        argv = {
            "metrics": ["metrics", "--csv", str(table), *column],
            "lorenz": ["lorenz", "--csv", str(table), *column, "--out", str(out)],
            "run": ["run", "--events", city["events"], "--tracts", city["tracts"],
                    "--census", str(table), "--out", str(out)],
        }[command]
        assert cli.main(argv) == 1
        label = "census/median_income" if command == "run" else "median_income"
        want = f"error: distribution {label!r} sums past the largest float\n"
        assert capsys.readouterr() == ("", want)
        assert not out.exists()

    def test_gini_of_values_near_largest_float(self, tmp_path, capsys):
        # the values and their sum are finite, the rank-weighted sum of
        # the Gini formula is not
        table = tmp_path / "v.csv"
        table.write_text("v\n1e308\n1e307\n")
        assert cli.main(["metrics", "--csv", str(table), "--column", "v"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["suite"]["gini"] == 0.409090909091  # 0.9 / 2.2

    def test_percentile_ratio_past_largest_float_exit_1(self, tmp_path, capsys):
        table = tmp_path / "v.csv"
        table.write_text("v\n2\n5e-324\n")
        assert cli.main(["metrics", "--csv", str(table), "--column", "v"]) == 1
        want = ("error: 80/20 percentile ratio of distribution 'v' exceeds the largest float: "
                "2.0 / 5e-324\n")
        assert capsys.readouterr() == ("", want)

    @pytest.mark.parametrize("command", ["run", "ingest-check", "choropleth"])
    def test_nan_vertex_with_area_property_exit_1(self, tmp_path, capsys, command):
        # the stated area hides the vertex from the area check, so every
        # command must find it by the vertex check that follows
        feats = [square_feature(f"T{i}", 2 * i, 0, props={"area_km2": 1.0}) for i in range(3)]
        feats[1]["geometry"]["coordinates"][0][2] = [math.nan, 1.0]
        tracts = tmp_path / "t.geojson"
        tracts.write_bytes(feature_collection(feats))
        events = tmp_path / "e.csv"
        events.write_bytes(events_csv(["u1,0.5,0.5,2014-03-01T10:00:00Z,"]))
        values = tmp_path / "values.csv"
        values.write_text("tract_id,value\nT0,1.0\nT1,2.0\n")
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--events", str(events), "--out", str(out)],
            "ingest-check": ["ingest-check", "--events", str(events)],
            "choropleth": ["choropleth", "--values", str(values), "--out", str(out)],
        }[command]
        assert cli.main(argv + ["--tracts", str(tracts)]) == 1
        assert capsys.readouterr().err == "error: tract T1: non-finite coordinate\n"
        assert not out.exists()


class TestJsonIo:
    def test_twelve_significant_digits(self):
        assert jsonio.dumps({"x": 0.6691234567891234}) == '{\n  "x": 0.669123456789\n}\n'

    def test_null_and_ints(self):
        assert jsonio.dumps({"a": None, "b": 3}) == '{\n  "a": null,\n  "b": 3\n}\n'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            jsonio.dumps({"x": float("nan")})

    def test_ring_as_nested_lists(self):
        ring = [(0.1 + 0.2, -0.0), (5.0, 1e-7), (-73.98765432109876, 40.0), (0.1 + 0.2, -0.0)]
        nested = {"g": [[[list(p) for p in ring]], []]}
        empty = np.empty((0, 2))
        assert jsonio.dumps({"g": [[np.array(ring)], empty]}) == jsonio.dumps(nested)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_ring_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps({"g": np.array([(0.0, 0.0), (bad, 1.0)])})

    def test_repr_mode_roundtrip(self):
        # synth writes its ground truth at full precision, every float
        # read back bit for bit
        city = generate_city(SynthParams(seed=3, n_tracts=5, n_users_local=20,
                                         n_users_visitor=20, n_events=500))
        assert json.loads(city_files(city)["ground_truth"]) == city.ground_truth

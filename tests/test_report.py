import csv
import io
import json
import math
from multiprocessing.connection import Connection
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import events_csv, feature_collection, square_feature
from geoineq import cli, jsonio, oracles, report
from geoineq.errors import BadBreakCount, EmptyCurveList, InternalInvariantError, MissingInput
from geoineq.geo import tract_from_feature
from geoineq.ingest import parse_event_batch, parse_tracts, partition_byte_ranges, read_byte_range
from geoineq.metrics import Distribution, lorenz_curve
from geoineq.report import (
    PipelineConfig,
    emit_choropleth,
    emit_lorenz_svg,
    emit_outputs,
    run_pipeline,
    run_pipeline_full,
)
from geoineq.synth import SynthParams, write_city

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
        ing = rep.ingest
        assert ing["records_total"] == ing["records_ok"] + ing["records_skipped"]
        assert ing["records_ok"] == ing["events_assigned"] + ing["events_outside_tracts"]
        assert rep.events_by_cohort["visitor"] + rep.events_by_cohort["local"] == ing["events_assigned"]
        assert rep.events_by_cohort["all"] == ing["events_assigned"]

    def test_emitted_twice_byte_identical(self, city_paths, tmp_path):
        cfg = quick_config(city_paths)
        r1, i1 = run_pipeline_full(cfg)
        r2, i2 = run_pipeline_full(cfg)
        f1 = emit_outputs(r1, i1, tmp_path / "a")
        f2 = emit_outputs(r2, i2, tmp_path / "b")
        assert [p.name for p in f1] == [p.name for p in f2]
        for a, b in zip(f1, f2):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_census_suites_and_unmatched(self, city_paths, census_path):
        rep = run_pipeline(quick_config(city_paths, census=census_path))
        assert rep.ingest["census_unmatched_tracts"] == ["Z9999"]
        suites = rep.census_indexes
        assert set(suites) == {"median_income", "median_rent", "unemployment_rate"}
        assert 0.0 < suites["median_income"]["gini"] < 1.0

    def test_rank_table_income_flags(self, city_paths, census_path):
        rep = run_pipeline(quick_config(city_paths, census=census_path))
        flags = {r.income_flag for r in rep.rank_table}
        assert flags <= {"above", "below", "unknown"}
        n = CITY.n_tracts
        assert sorted(r.day_rank for r in rep.rank_table) == list(range(1, n + 1))
        # T0016-like tract has no census row in the fixture
        by_id = {r.tract_id: r for r in rep.rank_table}
        assert by_id[f"T{n:04d}"].income_flag == "unknown"

    def test_raw_vs_density_normalization(self, city_paths):
        raw = run_pipeline(quick_config(city_paths, normalization="raw"))
        dens = run_pipeline(quick_config(city_paths, normalization="per_km2"))
        n_events = raw.ingest["events_assigned"]
        assert raw.distributions["images"]["all"]["total"] == n_events
        assert dens.distributions["images"]["all"]["total"] != n_events

    def test_empty_events_vacuous_run(self, city_paths, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("user_id,lat,lon,timestamp,text\n")
        cfg = PipelineConfig(events_path=str(empty), tracts_path=city_paths["tracts"])
        rep, internals = run_pipeline_full(cfg)
        assert rep.ingest["records_total"] == 0
        assert rep.users["total"] == 0
        for dist in rep.distributions.values():
            for cohort, block in dist.items():
                if cohort != "ratio_visitor_local":
                    assert block["suite"] is None
        assert rep.rank_table == []
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
        cfg = PipelineConfig(
            events_path=str(path), tracts_path=city_paths["tracts"], events_format="jsonl"
        )
        rep = run_pipeline(cfg)
        assert rep.ingest["events_assigned"] == 2
        assert rep.users["local"] == 1

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
        want = ["night", "day", "day", "night"]
        for i, expect in enumerate(want):
            st = internals.aggregates[f"T{i}"].cohorts["all"]
            got = "day" if st.day_count == 1 else "night"
            assert (st.day_count + st.night_count) == 1
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
        assert rep.ingest["events_assigned"] == 1
        assert rep.ingest["events_outside_tracts"] == 1

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

    def test_workers_receive_masks_as_bytes(self, city_paths, monkeypatch):
        # the parent's only sends are the phase-2 messages, one per worker
        cfg = quick_config(city_paths)
        sent = []
        send = Connection.send

        def record(conn, obj):
            sent.append(obj)
            send(conn, obj)

        monkeypatch.setattr(Connection, "send", record)
        rep = run_pipeline(cfg, partitions=2)
        assert rep.ingest["events_outside_tracts"] == 0
        users = [
            len(set(parse_event_batch(read_byte_range(cfg.events_path, r)).user_ids))
            for r in partition_byte_ranges(cfg.events_path, 2)
        ]
        assert [type(m) for m in sent] == [bytes, bytes]
        assert [len(m) for m in sent] == users


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
        assert rep.tag_summaries["visitor"]["mean_tags_per_tagged_image"] is None

    def test_tracts_csv_covers_all_tracts(self, city_paths, tmp_path):
        rep, internals = run_pipeline_full(quick_config(city_paths))
        emit_outputs(rep, internals, tmp_path)
        lines = (tmp_path / "tracts.csv").read_text().splitlines()
        assert len(lines) == 1 + CITY.n_tracts * len(rep.config.cohorts)


class TestLorenzSvg:
    def test_empty_curve_list(self):
        with pytest.raises(EmptyCurveList):
            emit_lorenz_svg([])

    def test_equality_curve_is_diagonal(self):
        svg = emit_lorenz_svg([lorenz_curve(Distribution.from_values([2, 2], "flat"))])
        # with margin 48 and plot 384: (0,0) -> "48.00,432.00", (1,1) -> "432.00,48.00"
        assert 'points="48.00,432.00 240.00,240.00 432.00,48.00"' in svg
        assert "flat" in svg

    def test_legend_and_polyline_per_curve(self):
        curves = [
            lorenz_curve(Distribution.from_values([1, 5], "visitors")),
            lorenz_curve(Distribution.from_values([2, 3], "locals")),
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
        out = json.loads(emit_choropleth(self.TRACTS, values, 4))
        classes = {f["properties"]["tract_id"]: f["properties"]["class"] for f in out["features"]}
        assert classes == {"T0": 0, "T1": 1, "T2": 2, "T3": 3}

    def test_equal_values_single_class(self):
        out = json.loads(emit_choropleth(self.TRACTS, {f"T{i}": 7.0 for i in range(4)}, 4))
        assert {f["properties"]["class"] for f in out["features"]} == {0}

    def test_missing_value_no_data(self):
        out = json.loads(emit_choropleth(self.TRACTS, {"T0": 1.0, "T1": 2.0, "T2": 3.0}, 3))
        by_id = {f["properties"]["tract_id"]: f["properties"] for f in out["features"]}
        assert by_id["T3"]["class"] == "no-data"
        assert by_id["T3"]["value"] is None

    def test_bad_break_count(self):
        with pytest.raises(BadBreakCount):
            emit_choropleth(self.TRACTS, {"T0": 1.0}, 1)

    def test_geometry_passthrough(self):
        out = json.loads(emit_choropleth(self.TRACTS, {"T0": 1.0}, 2))
        for feat, tract in zip(out["features"], self.TRACTS, strict=True):
            assert feat["geometry"]["type"] == "Polygon"
            rings = tuple(tuple(map(tuple, ring)) for ring in feat["geometry"]["coordinates"])
            assert (rings,) == tract.polygons

    @given(_choropleth_cases())
    def test_matches_direct_passthrough(self, case):
        geojson, values, breaks = case
        want = jsonio.dumps(oracles.choropleth_direct(json.loads(json.dumps(geojson)),
                                                      values, breaks))
        assert emit_choropleth(_parsed_tracts(geojson), values, breaks) == want

    def test_altitude_and_extra_members_not_carried(self):
        feat = square_feature("T0", 0.0, 0.0)
        ring = feat["geometry"]["coordinates"][0]
        feat["geometry"]["coordinates"][0] = [[x, y, 12.5] for x, y in ring]
        feat["geometry"]["bbox"] = [0.0, 0.0, 1.0, 1.0]
        tracts = _parsed_tracts({"type": "FeatureCollection", "features": [feat]})
        out = json.loads(emit_choropleth(tracts, {}, 2))
        assert out["features"][0]["geometry"] == {"type": "Polygon", "coordinates": [ring]}


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

    def test_missing_input_exit_1(self, city_paths, capsys):
        rc = cli.main(["run", "--events", "/nope.csv", "--tracts", city_paths["tracts"]])
        assert rc == 1
        assert "error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["run", "ingest-check", "choropleth"])
    def test_nan_vertex_with_area_property_exit_1(self, tmp_path, capsys, command):
        # the stated area hides the vertex from the area check, so every
        # command must find it through the tract index
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
        assert jsonio.dumps({"g": [[jsonio.Ring(ring)], jsonio.Ring([])]}) == jsonio.dumps(nested)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_ring_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps({"g": jsonio.Ring([(0.0, 0.0), (bad, 1.0)])})

    def test_repr_mode_roundtrip(self):
        v = 0.1 + 0.2
        out = jsonio.dumps({"x": v}, float_mode="repr")
        assert json.loads(out)["x"] == v

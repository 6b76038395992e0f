import csv
import io
import json

import pytest

from conftest import events_csv, feature_collection, square_feature
from geoineq import cli, jsonio, report
from geoineq.errors import BadBreakCount, EmptyCurveList, InternalInvariantError, MissingInput
from geoineq.ingest import partition_byte_ranges
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


class TestChoropleth:
    GEO = {
        "type": "FeatureCollection",
        "features": [square_feature(f"T{i}", float(i), 0.0) for i in range(4)],
    }

    def test_one_class_per_bucket(self):
        values = {"T0": 1.0, "T1": 2.0, "T2": 3.0, "T3": 4.0}
        out = emit_choropleth(self.GEO, values, 4)
        classes = {f["properties"]["tract_id"]: f["properties"]["class"] for f in out["features"]}
        assert classes == {"T0": 0, "T1": 1, "T2": 2, "T3": 3}

    def test_equal_values_single_class(self):
        out = emit_choropleth(self.GEO, {f"T{i}": 7.0 for i in range(4)}, 4)
        assert {f["properties"]["class"] for f in out["features"]} == {0}

    def test_missing_value_no_data(self):
        out = emit_choropleth(self.GEO, {"T0": 1.0, "T1": 2.0, "T2": 3.0}, 3)
        by_id = {f["properties"]["tract_id"]: f["properties"] for f in out["features"]}
        assert by_id["T3"]["class"] == "no-data"
        assert by_id["T3"]["value"] is None

    def test_bad_break_count(self):
        with pytest.raises(BadBreakCount):
            emit_choropleth(self.GEO, {"T0": 1.0}, 1)

    def test_geometry_passthrough(self):
        out = emit_choropleth(self.GEO, {"T0": 1.0}, 2)
        assert out["features"][0]["geometry"] == self.GEO["features"][0]["geometry"]


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

    def test_bad_cohort_exit_1(self, city_paths, capsys):
        rc = cli.main(
            ["run", "--events", city_paths["events"], "--tracts", city_paths["tracts"],
             "--cohorts", "martians", "--out", "/tmp/x"]
        )
        assert rc == 1


class TestJsonIo:
    def test_twelve_significant_digits(self):
        assert jsonio.dumps({"x": 0.6691234567891234}) == '{\n  "x": 0.669123456789\n}\n'

    def test_null_and_ints(self):
        assert jsonio.dumps({"a": None, "b": 3}) == '{\n  "a": null,\n  "b": 3\n}\n'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            jsonio.dumps({"x": float("nan")})

    def test_repr_mode_roundtrip(self):
        v = 0.1 + 0.2
        out = jsonio.dumps({"x": v}, float_mode="repr")
        assert json.loads(out)["x"] == v

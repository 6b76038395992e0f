"""Workload inputs: a synthetic city from ``geoineq.synth`` plus the
benchmark's own seeded transform.

The synth seed of each workload is fixed, so its synth output can be
pinned by sha256 (``pins.json``): if the generator's byte stream ever
changes, the benchmark stops and says so instead of comparing numbers
across different inputs. The ``--seed`` of a run drives the transform
only. Every transform keeps the ground truth's meaning: user ids are
relabelled by a seeded permutation, rings gain collinear vertices, and
the messy rewrite adds only lines the parser must skip.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from geoineq.synth import SynthParams, write_city

PINS_PATH = Path(__file__).with_name("pins.json")

# ingest error kinds the messy rewrite injects, 1% of records each
INJECTED_KINDS = ("MalformedRecord", "OutOfRangeCoordinate", "BadTimestamp")


@dataclass(frozen=True)
class Workload:
    name: str
    synth: SynthParams
    # > 0: densify every tract ring; synth's k-th tract (0-based, also
    # its popularity rank) gets round(densify / sqrt(k + 1)) vertices per
    # edge, so the most-visited tracts carry the most detailed boundaries
    densify: int = 0
    messy: bool = False  # CRLF, Z timestamps, quoting, injected errors, census


def _city(seed: int, n_events: int) -> SynthParams:
    return SynthParams(
        seed=seed, n_tracts=300, n_users_local=2500, n_users_visitor=2500,
        n_events=n_events, zipf_s=1.0,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("city", _city(42, 80_000)),
        Workload("jagged-tracts", _city(42, 60_000), densify=375),
        Workload("messy-csv", _city(7, 60_000), messy=True),
    )
}


class WorkloadChanged(Exception):
    """The synth output no longer matches its pinned sha256."""


@dataclass
class Inputs:
    events: Path
    tracts: Path
    census: Path | None
    truth: dict  # synth ground truth with user ids relabelled
    injected: dict[str, int]  # ingest error kind -> lines injected
    census_values: dict[str, dict[str, float]]  # indicator -> tract -> value
    synth_paths: dict[str, str]  # untransformed synth output, for the pin


def synth_digest(paths: dict[str, str]) -> str:
    h = hashlib.sha256()
    for key in ("tracts", "events", "ground_truth"):
        h.update(Path(paths[key]).read_bytes())
    return h.hexdigest()


def check_pin(name: str, inputs: Inputs) -> None:
    digest = synth_digest(inputs.synth_paths)
    pinned = json.loads(PINS_PATH.read_text())[name]
    if digest != pinned:
        raise WorkloadChanged(
            f"workload {name!r} changed: synth output sha256 {digest} != pinned {pinned}; "
            "numbers from this run are not comparable with runs on the pinned inputs"
        )


def make_inputs(w: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's input files for ``seed`` into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = write_city(w.synth, out_dir / "synth")
    rng = random.Random(f"{w.name}/{seed}")
    truth = json.loads(Path(paths["ground_truth"]).read_text(encoding="utf-8"))
    relabel = _relabel_users(rng, truth)

    tracts = out_dir / "tracts.geojson"
    if w.densify:
        geo = json.loads(Path(paths["tracts"]).read_text(encoding="utf-8"))
        for k, feat in enumerate(geo["features"]):
            per_edge = max(2, round(w.densify / math.sqrt(k + 1)))
            rings = feat["geometry"]["coordinates"]
            feat["geometry"]["coordinates"] = [_densify(r, per_edge, rng) for r in rings]
        tracts.write_text(json.dumps(geo), encoding="utf-8")
    else:
        tracts.write_bytes(Path(paths["tracts"]).read_bytes())

    # synth writes one record per line and user ids without quotes
    header, *lines = Path(paths["events"]).read_text(encoding="utf-8").splitlines()
    lines = [relabel[uid] + "," + rest for uid, rest in (ln.split(",", 1) for ln in lines)]
    events = out_dir / "events.csv"
    injected: dict[str, int] = {}
    census = None
    census_values: dict[str, dict[str, float]] = {}
    if w.messy:
        lines, injected = _messy_lines(lines, rng)
        events.write_text("\r\n".join([header] + lines) + "\r\n", encoding="utf-8", newline="")
        census = out_dir / "census.csv"
        census_values = _write_census(census, sorted(truth["tract_counts"]), rng)
    else:
        events.write_text("\n".join([header] + lines) + "\n", encoding="utf-8")
    return Inputs(events, tracts, census, truth, injected, census_values, paths)


def _relabel_users(rng: random.Random, truth: dict) -> dict[str, str]:
    """Seeded same-width ids (L00001 -> L73520); rewrites truth in place."""
    uids = list(truth["user_labels"])
    numbers = rng.sample(range(1, 100_000), len(uids))
    relabel = {uid: f"{uid[0]}{n:05d}" for uid, n in zip(uids, numbers)}
    truth["user_labels"] = {relabel[u]: v for u, v in truth["user_labels"].items()}
    return relabel


def _densify(ring: list, per_edge: int, rng: random.Random) -> list:
    """Same polygon with ``per_edge`` vertices per rectangle edge.

    Inserted vertices sit at seeded positions on the edge itself; synth
    tracts are axis-aligned, so one coordinate is copied exactly and
    every vertex is exactly collinear with its edge.
    """
    out = []
    for (x0, y0), (x1, y1) in zip(ring, ring[1:]):
        out.append([x0, y0])
        for t in sorted(rng.random() for _ in range(per_edge - 1)):
            x = x0 if x1 == x0 else x0 + t * (x1 - x0)
            y = y0 if y1 == y0 else y0 + t * (y1 - y0)
            out.append([x, y])
    out.append(list(ring[-1]))
    return out


def _quoted(v: str) -> str:
    return '"' + v.replace('"', '""') + '"'


def _to_utc_z(ts: str) -> str:
    return datetime.fromisoformat(ts).astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _messy_lines(records: list[str], rng: random.Random) -> tuple[list[str], dict]:
    """Rewrite records as a real export might carry them, then inject 1%
    of each ingest error kind. Valid records keep their meaning: a Z
    timestamp names the same epoch, and added text carries no hashtag."""
    lines = []
    for record in records:
        uid, lat, lon, ts, text = record.split(",", 4)
        if text.startswith('"'):
            text = text[1:-1].replace('""', '"')
        if rng.random() < 0.3:
            ts = _to_utc_z(ts)
        r = rng.random()
        if r < 0.1:
            text = _quoted(f'{text}, she said "wow", ok')
        elif r < 0.2:
            text = _quoted(f"{text}\nsent from my phone")
        elif "," in text:
            text = _quoted(text)
        lines.append(f"{uid},{lat},{lon},{ts},{text}")
    n_each = len(records) // 100
    uid0 = records[0].split(",", 1)[0]
    bad = {
        "MalformedRecord": (
            lambda i: f"{uid0},40.6,-74.1,2014-03-05T10:00:00-05:00",  # four fields
            lambda i: f"{uid0},lat{i},-74.1,2014-03-05T10:00:00-05:00,#x",
            lambda i: f",40.6,-74.1,2014-03-05T10:00:00-05:00,#x",
        ),
        "OutOfRangeCoordinate": (
            lambda i: f"{uid0},91.{i},-74.1,2014-03-05T10:00:00-05:00,#x",
            lambda i: f"{uid0},40.6,-181.{i},2014-03-05T10:00:00-05:00,#x",
        ),
        "BadTimestamp": (
            lambda i: f"{uid0},40.6,-74.1,2014-13-{i % 28 + 1:02d}T10:00:00-05:00,#x",
            lambda i: f"{uid0},40.6,-74.1,2014-03-05 10:00:{i % 60:02d},#x",
        ),
    }
    injected = []
    for kind in INJECTED_KINDS:
        makers = bad[kind]
        for i in range(n_each):
            injected.append((rng.randrange(len(lines) + 1), makers[i % len(makers)](i)))
    out = []
    prev = 0
    for pos, line in sorted(injected):
        out.extend(lines[prev:pos])
        out.append(line)
        prev = pos
    out.extend(lines[prev:])
    return out, {kind: n_each for kind in INJECTED_KINDS}


def _write_census(path: Path, tract_ids: list[str], rng: random.Random) -> dict:
    values = {"median_income": {}, "median_rent": {}, "unemployment_rate": {}}
    rows = ["tract_id,median_income,median_rent,unemployment_rate"]
    for tid in tract_ids:
        inc = float(rng.randrange(18_000, 160_000))
        rent = float(rng.randrange(600, 3_500))
        rate = rng.randrange(5, 250) / 1000
        values["median_income"][tid] = inc
        values["median_rent"][tid] = rent
        values["unemployment_rate"][tid] = rate
        rows.append(f"{tid},{inc!r},{rent!r},{rate!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return values

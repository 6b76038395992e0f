import gc
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assign_point, feature_collection, square_feature
from geoineq import geo, oracles
from geoineq.errors import DegeneratePolygon, EmptyTractSet
from geoineq.geo import (
    EARTH_RADIUS_KM,
    Tract,
    build_spatial_index,
    polygon_area_km2,
    tract_from_feature,
)
from geoineq.ingest import parse_tracts


def square_ring(x0, y0, size=1.0):
    return (
        (x0, y0),
        (x0 + size, y0),
        (x0 + size, y0 + size),
        (x0, y0 + size),
        (x0, y0),
    )


def square_tract(tract_id, x0, y0, size=1.0):
    return tract_from_feature(
        parse_tracts(feature_collection([square_feature(tract_id, x0, y0, size)]))[0]
    )


def ring_index(*rings):
    """Index over one tract "R" with ``rings`` (exterior first, holes after)."""
    feature = {"properties": {"tract_id": "R"},
               "geometry": {"type": "Polygon", "coordinates": list(rings)}}
    return build_spatial_index([tract_from_feature(feature)])


def arrays(polygons):
    """``polygons`` with each ring a float64 ``(n, 2)`` array, as a tract
    holds them."""
    return [[np.array(ring, dtype=np.float64) for ring in poly] for poly in polygons]


def polygons_tract(tract_id, polygons):
    """A tract over ``polygons`` with its vertex bbox; the area is not used
    by assignment, so self-touching test shapes need not have one."""
    xs = [x for poly in polygons for ring in poly for x, _ in ring]
    ys = [y for poly in polygons for ring in poly for _, y in ring]
    return Tract(tract_id, tuple(map(tuple, arrays(polygons))),
                 (min(xs), min(ys), max(xs), max(ys)), 1.0)


def densify(ring, per_edge, rnd):
    """``ring`` with ``per_edge - 1`` exactly collinear vertices inserted at
    random positions on each edge (one coordinate copied on axis-aligned
    edges), as the jagged-tracts benchmark inputs are made."""
    out = []
    for (x0, y0), (x1, y1) in zip(ring, ring[1:]):
        out.append((x0, y0))
        for t in sorted(rnd.random() for _ in range(per_edge - 1)):
            out.append((x0 if x1 == x0 else x0 + t * (x1 - x0),
                        y0 if y1 == y0 else y0 + t * (y1 - y0)))
    out.append(ring[-1])
    return tuple(out)


def comb_ring(teeth):
    """A comb: a spine along y in [0, 0.1] and ``teeth`` vertical teeth up
    to y = 1, so every latitude above the spine crosses 2 * teeth edges."""
    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.1)]
    for j in reversed(range(teeth)):
        a = j / teeth
        b = a + 0.5 / teeth
        verts += [(b, 0.1), (b, 1.0), (a, 1.0), (a, 0.1)]
    verts.append((0.0, 0.0))
    return tuple(verts)


def oracle_ids(index, lats, lons, tracts):
    got = [index.tract_ids[i] if i >= 0 else None for i in index.assign_batch(lats, lons)]
    return got, oracles.assign_batch_naive(lats, lons, tracts)


DEG_KM = math.pi / 180.0 * EARTH_RADIUS_KM  # one degree of latitude, km


class TestArea:
    def test_unit_square_at_equator(self):
        # 1x1 degree square centered on the equator
        area = polygon_area_km2(arrays([[square_ring(0.0, -0.5)]]))
        assert area == pytest.approx(DEG_KM**2, rel=1e-3)

    def test_unit_square_at_60_degrees(self):
        area = polygon_area_km2(arrays([[square_ring(0.0, 59.5)]]))
        assert area == pytest.approx(DEG_KM**2 * 0.5, rel=1e-3)

    def test_sliver_degenerate(self):
        flat = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 0.0))
        with pytest.raises(DegeneratePolygon):
            polygon_area_km2(arrays([[flat]]))

    def test_hole_subtracts(self):
        outer = square_ring(0.0, -0.5, 1.0)
        hole = square_ring(0.25, -0.25, 0.5)
        with_hole = polygon_area_km2(arrays([[outer, hole]]))
        full = polygon_area_km2(arrays([[outer]]))
        assert with_hole == pytest.approx(full * 0.75, rel=1e-12)

    def test_vertical_strip_additivity(self):
        # strips share the parent's latitude extent, so the projection is
        # identical and areas must add up almost exactly
        x0, y0, size = 10.0, 40.0, 1.0
        whole = polygon_area_km2(arrays([[square_ring(x0, y0, size)]]))
        n = 8
        parts = sum(
            polygon_area_km2(
                arrays([[
                    (
                        (x0 + i * size / n, y0),
                        (x0 + (i + 1) * size / n, y0),
                        (x0 + (i + 1) * size / n, y0 + size),
                        (x0 + i * size / n, y0 + size),
                        (x0 + i * size / n, y0),
                    )
                ]])
            )
            for i in range(n)
        )
        assert parts == pytest.approx(whole, rel=1e-6)

    def test_area_override_from_properties(self):
        feat = parse_tracts(
            feature_collection([square_feature("T1", 0, 0, props={"area_km2": 3.25})])
        )[0]
        assert tract_from_feature(feat).area_km2 == 3.25

    def test_bad_override_rejected(self):
        feat = parse_tracts(
            feature_collection([square_feature("T1", 0, 0, props={"area_km2": 0.0})])
        )[0]
        with pytest.raises(DegeneratePolygon):
            tract_from_feature(feat)

    @given(st.lists(st.lists(st.tuples(st.floats(-180, 180), st.floats(-89, 89)),
                             min_size=3, max_size=40), min_size=1, max_size=3),
           st.booleans())
    def test_bit_identical_to_vertex_loop(self, rings, multi):
        # numpy sums in vertex order give exactly the plain loop's area,
        # so tracts.csv and synth's ground truth keep every bit
        rings = [tuple(r) + (r[0],) for r in rings]
        polygons = [[r] for r in rings] if multi else [rings]
        lat_sum, n_pts = 0.0, 0
        for poly in polygons:
            for ring in poly:
                for _, y in ring[:-1]:
                    lat_sum += y
                    n_pts += 1
        mean_lat = lat_sum / n_pts
        kx = EARTH_RADIUS_KM * geo._DEG * math.cos(mean_lat * geo._DEG)
        ky = EARTH_RADIUS_KM * geo._DEG
        want = 0.0
        for poly in polygons:
            for ring_idx, ring in enumerate(poly):
                s = 0.0
                for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
                    s += x1 * y2 - x2 * y1
                want += abs(s) * 0.5 * kx * ky * (1 if ring_idx == 0 else -1)
        if want <= geo.AREA_EPS_KM2:
            with pytest.raises(DegeneratePolygon):
                polygon_area_km2(arrays(polygons))
        else:
            assert polygon_area_km2(arrays(polygons)) == want

    def test_multipolygon_area_sums(self):
        a = polygon_area_km2(arrays([[square_ring(0, 0)], [square_ring(3, 0)]]))
        b = 2 * polygon_area_km2(arrays([[square_ring(0, 0)]]))
        assert a == pytest.approx(b, rel=1e-6)


class TestContainment:
    def test_interior_point(self):
        assert assign_point(0.5, 0.5, ring_index(square_ring(0, 0))) == "R"

    def test_outside_point(self):
        assert assign_point(2.0, 2.0, ring_index(square_ring(0, 0))) is None

    def test_hole_excludes(self):
        index = ring_index(square_ring(0, 0, 1.0), square_ring(0.25, 0.25, 0.5))
        assert assign_point(0.5, 0.5, index) is None
        assert assign_point(0.1, 0.1, index) == "R"


class TestAssignment:
    def test_unit_square_interior(self):
        index = build_spatial_index([square_tract("T1", 0, 0)])
        assert assign_point(0.5, 0.5, index) == "T1"

    def test_point_outside(self):
        index = build_spatial_index([square_tract("T1", 0, 0)])
        assert assign_point(2.0, 2.0, index) is None

    def test_shared_edge_is_deterministic(self):
        # two squares sharing the edge x=1: the even-odd rule puts an
        # on-edge point in exactly one of them, always the same one, and
        # the index must agree with the naive scan
        a = square_tract("A", 0, 0)
        b = square_tract("B", 1, 0)
        index = build_spatial_index([a, b])
        got = assign_point(0.5, 1.0, index)
        assert got == oracles.assign_tract_naive(0.5, 1.0, [a, b])
        assert got in ("A", "B")
        assert assign_point(0.5, 1.0, build_spatial_index([b, a])) == got

    def test_overlapping_tracts_smallest_id_wins(self):
        a = square_tract("A", 0, 0)
        b = square_tract("B", 0, 0)  # identical geometry
        index = build_spatial_index([b, a])
        assert assign_point(0.5, 0.5, index) == "A"
        assert oracles.assign_tract_naive(0.5, 0.5, [a, b]) == "A"

    def test_empty_tract_set(self):
        with pytest.raises(EmptyTractSet):
            build_spatial_index([])

    def test_index_matches_naive_scan_random(self):
        rng = np.random.default_rng(7)
        tracts = [
            square_tract(f"T{i:03d}", (i % 6) * 1.0, (i // 6) * 1.0) for i in range(30)
        ]
        index = build_spatial_index(tracts)
        lons = rng.uniform(-1.0, 7.0, size=3000)
        lats = rng.uniform(-1.0, 6.0, size=3000)
        batch = index.assign_batch(np.asarray(lats), np.asarray(lons))
        for lat, lon, bi in zip(lats, lons, batch):
            want = oracles.assign_tract_naive(lat, lon, tracts)
            got_scalar = assign_point(lat, lon, index)
            got_batch = index.tract_ids[bi] if bi >= 0 else None
            assert got_scalar == want
            assert got_batch == want

    def test_insertion_order_irrelevant(self):
        rng = np.random.default_rng(3)
        tracts = [square_tract(f"T{i:02d}", float(i % 4), float(i // 4)) for i in range(16)]
        shuffled = list(tracts)
        rng.shuffle(shuffled)
        i1 = build_spatial_index(tracts)
        i2 = build_spatial_index(shuffled)
        pts = rng.uniform(-0.5, 4.5, size=(500, 2))
        for lon, lat in pts:
            got = assign_point(lat, lon, i1)
            assert got == assign_point(lat, lon, i2)
            assert got == oracles.assign_tract_naive(lat, lon, tracts)

    def test_candidates_superset(self):
        # each tract's band table lists, in a latitude's band, every edge
        # whose latitude span holds that latitude
        rnd = random.Random(5)
        tracts = [
            polygons_tract("A", [[comb_ring(40)]]),
            polygons_tract("B", [[densify(square_ring(0.3, 0.2, 0.5), 25, rnd)]]),
            polygons_tract("C", [[square_ring(2, 0)], [square_ring(2, 3, 0.5)]]),
            polygons_tract("D", [[((5, 0), (7, 0.5), (5.5, 0.5), (6, 2), (5, 0))]]),
        ]
        index = build_spatial_index(tracts)
        for ti, tract in enumerate(index.tracts):
            edges = [(x1, y1, y2) for ring in tract.rings
                     for (x1, y1), (_, y2) in zip(ring, ring[1:]) if y1 != y2]
            _, miny, _, maxy = tract.bbox
            probes = {y for _, y1, y2 in edges for y in (y1, y2)}
            probes |= {rnd.uniform(miny, maxy) for _ in range(100)}
            probes |= {miny + k * (maxy - miny) / len(edges) for k in range(len(edges) + 1)}
            for lat in probes:
                b = index._bands(np.array([ti]), np.array([lat]))[0]
                listed = index.band_edges[index.band_ptr[b]:index.band_ptr[b + 1]]
                listed = set(zip(index._ex1[listed], index._ey1[listed], index._ey2[listed]))
                want = {e for e in edges if min(e[1], e[2]) <= lat <= max(e[1], e[2])}
                assert want <= listed, (tract.tract_id, lat)

    def test_non_finite_vertex_rejected(self):
        # JSON admits NaN; such a ring has a NaN area and cannot be banded
        feat = parse_tracts(
            b'{"type": "FeatureCollection", "features": [{"type": "Feature", '
            b'"properties": {"tract_id": "A"}, "geometry": {"type": "Polygon", '
            b'"coordinates": [[[0, 0], [1, 0], [1, NaN], [0, 1], [0, 0]]]}}]}'
        )[0]
        with pytest.raises(DegeneratePolygon, match="tract A"):
            build_spatial_index([tract_from_feature(feat)])

    def test_nan_closing_vertex_is_closed(self):
        # JSON's NaN is one value, so a ring that starts and ends on it is
        # closed; its area, not the closure check, refuses it
        feat = parse_tracts(
            b'{"type": "FeatureCollection", "features": [{"type": "Feature", '
            b'"properties": {"tract_id": "A"}, "geometry": {"type": "Polygon", '
            b'"coordinates": [[[NaN, 0], [1, 0], [1, 1], [0, 1], [NaN, 0]]]}}]}'
        )[0]
        with pytest.raises(DegeneratePolygon, match="tract A: computed area_km2 nan"):
            tract_from_feature(feat)

    def test_batch_empty(self):
        index = build_spatial_index([square_tract("T1", 0, 0)])
        out = index.assign_batch(np.array([]), np.array([]))
        assert out.size == 0

    def test_holes_in_assignment(self):
        feat = parse_tracts(
            feature_collection(
                [
                    square_feature(
                        "H1", 0, 0,
                        holes=[[[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.6], [0.4, 0.4]]],
                    )
                ]
            )
        )[0]
        index = build_spatial_index([tract_from_feature(feat)])
        assert assign_point(0.5, 0.5, index) is None  # inside the hole
        assert assign_point(0.2, 0.2, index) == "H1"

    @given(st.lists(st.tuples(st.floats(-2, 8), st.floats(-2, 8)), max_size=40))
    def test_scalar_equals_batch(self, points):
        tracts = [square_tract(f"T{i}", float(i % 3) * 2, float(i // 3) * 2) for i in range(9)]
        index = build_spatial_index(tracts)
        if not points:
            return
        lats = np.array([p[1] for p in points])
        lons = np.array([p[0] for p in points])
        got, want = oracle_ids(index, lats, lons, tracts)
        assert got == want


@st.composite
def _tract_sets(draw):
    """Up to five tracts on a half-unit lattice, so they overlap, share
    edges and share vertex latitudes: plain, densified, holed, multipart
    and free-form (snapped, so with horizontal and vertical edges)."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    ids = draw(st.permutations([f"T{i}" for i in range(n)]))
    half = st.integers(0, 8).map(lambda v: v / 2)
    tracts = []
    for tid in ids:
        x0, y0 = draw(half), draw(half)
        size = draw(st.integers(1, 4)) / 2
        outer = densify(square_ring(x0, y0, size), draw(st.integers(1, 8)), rnd)
        kind = draw(st.sampled_from(["plain", "hole", "multi", "free"]))
        if kind == "hole":
            polygons = [[outer, densify(square_ring(x0 + size / 4, y0 + size / 4, size / 2), 3, rnd)]]
        elif kind == "multi":
            polygons = [[outer], [square_ring(x0 + size, y0 + size, size / 2)]]
        elif kind == "free":
            verts = [(draw(half), draw(half)) for _ in range(draw(st.integers(3, 9)))]
            polygons = [[tuple(verts + verts[:1])]]
        else:
            polygons = [[outer]]
        tracts.append(polygons_tract(tid, polygons))
    return tracts


class TestBandIndex:
    @given(_tract_sets(), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_matches_naive_scan(self, tracts, budget, seed):
        rnd = random.Random(seed)
        index = build_spatial_index(tracts)
        pts = []
        for t in tracts:
            minx, miny, maxx, maxy = t.bbox
            edges = [e for ring in t.rings for e in zip(ring, ring[1:])]
            n_bands = sum(1 for (_, y1), (_, y2) in edges if y1 != y2)
            for (x1, y1), (x2, y2) in edges:
                pts.append((x1, y1))  # on a vertex
                pts.append(((x1 + x2) / 2, (y1 + y2) / 2))  # on the edge
                pts.append((rnd.uniform(minx - 0.5, maxx + 0.5), y1))  # at a vertex's latitude
            for k in range(max(n_bands, 1) + 1):  # on and beside band boundaries
                y = miny + k * (maxy - miny) / max(n_bands, 1)
                for lat in (y, math.nextafter(y, -math.inf), math.nextafter(y, math.inf)):
                    pts.append((rnd.uniform(minx, maxx), lat))
        pts += [(rnd.uniform(-0.5, 7.5), rnd.uniform(-0.5, 7.5)) for _ in range(50)]
        lons = np.array([p[0] for p in pts])
        lats = np.array([p[1] for p in pts])
        # a small budget splits the batch into many slices, and points
        # whose band alone exceeds it into slices of their own
        with mock.patch.object(geo, "_PAIR_BUDGET", budget):
            got, want = oracle_ids(index, lats, lons, tracts)
        assert got == want

    def test_batch_over_several_budget_slices(self):
        rnd = random.Random(11)
        tracts = [
            polygons_tract(f"T{i:02d}", [[densify(square_ring(i % 4, i // 4, 1.5), 30, rnd)]])
            for i in range(12)
        ]
        index = build_spatial_index(tracts)
        rng = np.random.default_rng(11)
        lons = rng.uniform(-0.5, 5.0, size=30_001)
        lats = rng.uniform(-0.5, 4.0, size=30_001)
        original = geo.SpatialIndex._assign_slice
        with mock.patch.object(geo.SpatialIndex, "_assign_slice", autospec=True,
                               side_effect=original) as slices:
            got, want = oracle_ids(index, lats, lons, tracts)
        assert slices.call_count > 2
        assert got == want

    def test_comb_memory_is_bounded(self):
        # 20k points against one ~2000-vertex comb: a broadcast over
        # (edges x points) needs hundreds of MB here
        tract = polygons_tract("C", [[comb_ring(500)]])
        index = build_spatial_index([tract])
        rng = np.random.default_rng(3)
        lons = rng.uniform(-0.1, 1.1, size=20_000)
        lats = rng.uniform(-0.1, 1.1, size=20_000)
        tracemalloc.start()
        try:
            got = index.assign_batch(lats, lons)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"assign_batch peak {peak / 2**20:.1f} MB"
        want = oracles.assign_batch_naive(lats, lons, [tract])
        assert [index.tract_ids[i] if i >= 0 else None for i in got] == want

    def test_geometry_memory_is_bounded(self):
        # a parsed vertex keeps 16 bytes of float64 in its ring, and the
        # index a few words per edge; a tuple of two Python floats per
        # vertex, as (x, y) objects, would be about 100 bytes more
        rnd = random.Random(1)
        features = []
        for i in range(16):
            feat = square_feature(f"T{i:02d}", i % 4, i // 4)
            ring = feat["geometry"]["coordinates"][0]
            feat["geometry"]["coordinates"][0] = densify(tuple(map(tuple, ring)), 500, rnd)
            features.append(feat)
        data = feature_collection(features)
        vertices = 16 * (4 * 500 + 1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracts = [tract_from_feature(f) for f in parse_tracts(data)]
            index = build_spatial_index(tracts)
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(index.tracts) == 16 and len(tracts) == 16
        assert size < 80 * vertices, f"{size / vertices:.1f} bytes per vertex"

    def test_decode_memory_is_bounded(self):
        # two-float rings become arrays while the file decodes: the peak
        # is the decoded text, 16 bytes per vertex and one feature's
        # lists; a whole decoded tree of Python floats and lists first
        # would hold about 150 bytes per vertex
        rnd = random.Random(1)
        features = []
        for i in range(16):
            feat = square_feature(f"T{i:02d}", i % 4 + 0.5, i // 4 + 0.5)
            ring = feat["geometry"]["coordinates"][0]
            feat["geometry"]["coordinates"][0] = densify(tuple(map(tuple, ring)), 500, rnd)
            features.append(feat)
        data = feature_collection(features)
        vertices = 16 * (4 * 500 + 1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracts = [tract_from_feature(f) for f in parse_tracts(data)]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(tracts) == 16
        per_vertex = (peak - len(data)) / vertices
        assert per_vertex < 48, f"{per_vertex:.1f} bytes per vertex on top of the text"

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skymine import sphere, store
from skymine.errors import ValidationError


def random_catalog(seed, n):
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.uniform(-1, 1, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    unit = np.stack([np.sqrt(1 - z ** 2) * np.cos(phi),
                     np.sqrt(1 - z ** 2) * np.sin(phi), z], axis=1)
    return unit


class TestAngularDistance:
    def test_orthogonal_axes(self):
        assert sphere.angular_distance(0, 0, 90, 0) == pytest.approx(np.pi / 2)

    def test_identity(self):
        assert sphere.angular_distance(123.4, -56.7, 123.4, -56.7) == 0.0

    def test_antipodal_poles(self):
        assert sphere.angular_distance(0, 90, 0, -90) == pytest.approx(np.pi)

    def test_rejects_bad_dec(self):
        with pytest.raises(ValidationError):
            sphere.angular_distance(0, 91, 0, 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_symmetry_and_triangle_inequality(self, seed):
        u = random_catalog(seed, 3)
        ab = float(sphere.angle_between(u[0], u[1]))
        ba = float(sphere.angle_between(u[1], u[0]))
        bc = float(sphere.angle_between(u[1], u[2]))
        ac = float(sphere.angle_between(u[0], u[2]))
        assert ab == pytest.approx(ba, abs=1e-12)
        assert ac <= ab + bc + 1e-12

    def test_stable_for_tiny_angles(self):
        a = sphere.radec_to_unit(10.0, 20.0)
        b = sphere.radec_to_unit(10.0, 20.0 + 1e-8)
        angle = float(sphere.angle_between(a, b))
        assert angle == pytest.approx(np.radians(1e-8), rel=1e-4)


class TestRoundTrip:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_radec_unit_radec(self, seed):
        unit = random_catalog(seed, 10)
        ra, dec = sphere.unit_to_radec(unit)
        back = sphere.radec_to_unit(ra, dec)
        assert np.allclose(back, unit, atol=1e-12)

    def test_unit_norm_invariant(self):
        unit = sphere.radec_to_unit([0, 45, 359.9], [89.9, -89.9, 0.0])
        assert np.allclose(np.einsum("ij,ij->i", unit, unit), 1.0, atol=1e-12)


def stored_catalog(unit):
    """Detection records at the positions of a unit-vector catalog, det_id
    = row + 1."""
    ra, dec = sphere.unit_to_radec(unit)
    recs = np.zeros(len(unit), dtype=store.DET_DTYPE)
    recs["det_id"] = np.arange(1, len(unit) + 1)
    recs["ra"] = ra
    recs["dec"] = dec
    recs["flux_err"] = 1.0
    return recs


def scan_region(unit, region):
    """Rows of the catalog a region scan returns from a zoned store."""
    with tempfile.TemporaryDirectory() as tmp:
        store.ingest_detections(stored_catalog(unit), 3, tmp)
        store.build_indexes(tmp, 1.0)
        found, _ = store.scan(tmp, "true", region=region)
    return set((found["det_id"] - 1).tolist())


def brute_force_region(unit, region):
    """Rows whose stored position lies in the region, by a linear test."""
    recs = stored_catalog(unit)
    inside = region.contains(sphere.radec_to_unit(recs["ra"], recs["dec"]))
    return set(np.flatnonzero(inside).tolist())


class TestRegions:
    def test_cone_validation(self):
        with pytest.raises(ValidationError):
            sphere.Cone(np.array([1.0, 0.0, 0.0]), -0.1)
        with pytest.raises(ValidationError):
            sphere.Cone(np.array([2.0, 0.0, 0.0]), 0.1)

    def test_polygon_validation(self):
        with pytest.raises(ValidationError):
            sphere.ConvexPolygon(np.array([[0.0, 0.0, 1.0]]), np.array([1.5]))

    def test_whole_sphere_cone(self):
        unit = random_catalog(1, 500)
        cone = sphere.Cone(np.array([0.0, 0.0, 1.0]), np.pi)
        assert scan_region(unit, cone) == set(range(500))

    def test_empty_cone(self):
        unit = random_catalog(2, 100)
        cone = sphere.cone_from_radec(12.0, 34.0, 0.0)
        assert scan_region(unit, cone) == set()

    def test_cone_matches_brute_force_seeded(self):
        unit = random_catalog(3, 1000)
        cone = sphere.cone_from_radec(40.0, 10.0, 5.0)
        assert scan_region(unit, cone) == brute_force_region(unit, cone)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_cones_match_brute_force(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        unit = random_catalog(seed + 1, 400)
        center = random_catalog(seed + 2, 1)[0]
        cone = sphere.Cone(center, rng.uniform(0, np.pi))
        assert scan_region(unit, cone) == brute_force_region(unit, cone)

    @given(st.integers(0, 10_000), st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_random_polygons_match_brute_force(self, seed, n_halfspaces):
        rng = np.random.Generator(np.random.PCG64(seed))
        unit = random_catalog(seed + 1, 400)
        normals = random_catalog(seed + 2, n_halfspaces)
        offsets = rng.uniform(-0.5, 0.5, n_halfspaces)
        poly = sphere.ConvexPolygon(normals, offsets)
        assert scan_region(unit, poly) == brute_force_region(unit, poly)


class TestZones:
    def test_equator_zone(self):
        assert int(sphere.zone_of(0.0, 1.0)) == 90

    def test_pole_clamped(self):
        assert int(sphere.zone_of(90.0, 1.0)) == 179

    def test_zone_unique_and_consistent(self):
        unit = random_catalog(4, 2000)
        _, dec = sphere.unit_to_radec(unit)
        zones = sphere.zone_of(dec, 2.5)
        assert np.all(zones == np.minimum(np.floor((dec + 90) / 2.5), 71))


class TestCellPairs:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_radius_matches_brute_force(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        pts = random_catalog(seed + 1, 200)
        r = rng.uniform(1e-3, 2.0)
        queries = pts[:30] + rng.normal(0.0, r / 2, (30, 3))
        q, t = sphere.cell_pairs(sphere.cell_keys(pts, r), sphere.cell_keys(queries, r))
        diff = pts[t] - queries[q]
        near = np.einsum("ij,ij->i", diff, diff) <= r * r
        got = list(zip(q[near].tolist(), t[near].tolist()))
        diff = queries[:, None, :] - pts[None, :, :]
        rows, cols = np.nonzero(np.einsum("ijk,ijk->ij", diff, diff) <= r * r)
        assert sorted(got) == list(zip(rows.tolist(), cols.tolist()))

    def test_radius_is_inclusive(self):
        pts = np.array([[1.0, 0.0, 0.0]])
        q, t = sphere.cell_pairs(sphere.cell_keys(pts, 1.0),
                                 sphere.cell_keys(np.zeros((1, 3)), 1.0))
        assert (q.tolist(), t.tolist()) == ([0], [0])


def brute_force_pairs(ids, unit, theta_max_rad):
    chord2 = sphere.chord_for_angle(theta_max_rad) ** 2
    pairs = set()
    for i in range(len(ids)):
        d = unit - unit[i]
        d2 = np.einsum("ij,ij->i", d, d)
        for j in np.flatnonzero(d2 <= chord2):
            if j != i:
                pairs.add((int(ids[i]), int(ids[j])))
    return pairs


class TestNeighborsJoin:
    def test_single_object(self):
        table, _ = sphere.neighbors_join([7], [10.0], [20.0], 60.0)
        assert len(table) == 0

    def test_exact_boundary_pair(self):
        theta = 60.0
        table, _ = sphere.neighbors_join(
            [1, 2], [0.0, theta / 3600.0], [0.0, 0.0], theta)
        got = {(int(r["id_a"]), int(r["id_b"])) for r in table}
        assert got == {(1, 2), (2, 1)}

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValidationError):
            sphere.neighbors_join([1], [0.0], [0.0], 0.0)

    def test_matches_all_pairs_oracle(self):
        # dense cluster so 60" actually pairs things up
        rng = np.random.Generator(np.random.PCG64(11))
        n = 600
        ra = 50.0 + rng.uniform(-0.05, 0.05, n)
        dec = -20.0 + rng.uniform(-0.05, 0.05, n)
        ids = np.arange(n)
        table, evals = sphere.neighbors_join(ids, ra, dec, 60.0)
        got = {(int(r["id_a"]), int(r["id_b"])) for r in table}
        want = brute_force_pairs(ids, sphere.radec_to_unit(ra, dec), np.radians(60 / 3600))
        assert got == want
        assert len(want) > 0

    def test_symmetric_closure(self):
        rng = np.random.Generator(np.random.PCG64(12))
        n = 300
        ra = 120.0 + rng.uniform(-0.03, 0.03, n)
        dec = 5.0 + rng.uniform(-0.03, 0.03, n)
        table, _ = sphere.neighbors_join(np.arange(n), ra, dec, 60.0)
        got = {(int(r["id_a"]), int(r["id_b"])) for r in table}
        assert all((b, a) in got for a, b in got)

    def test_duplicate_positions_pair_at_zero(self):
        table, _ = sphere.neighbors_join([1, 2], [10.0, 10.0], [0.0, 0.0], 60.0)
        assert len(table) == 2
        assert table["separation_arcsec"] == pytest.approx([0.0, 0.0])

    def test_permutation_invariant(self):
        rng = np.random.Generator(np.random.PCG64(13))
        n = 200
        ra = 10 + rng.uniform(-0.02, 0.02, n)
        dec = rng.uniform(-0.02, 0.02, n)
        ids = np.arange(n)
        t1, _ = sphere.neighbors_join(ids, ra, dec, 60.0)
        perm = rng.permutation(n)
        t2, _ = sphere.neighbors_join(ids[perm], ra[perm], dec[perm], 60.0)
        s1 = {(int(r["id_a"]), int(r["id_b"])) for r in t1}
        s2 = {(int(r["id_a"]), int(r["id_b"])) for r in t2}
        assert s1 == s2

    def test_pruning_effectiveness_at_10k(self):
        unit = random_catalog(99, 10_000)
        ra, dec = sphere.unit_to_radec(unit)
        _, evals = sphere.neighbors_join(np.arange(10_000), ra, dec, 60.0)
        assert evals < 0.25 * 10_000 * 9_999 / 2

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


def angular_distance(ra1, dec1, ra2, dec2) -> float:
    """Great-circle angle (radians) between two RA/Dec positions (degrees)."""
    return float(sphere.angle_between(sphere.radec_to_unit(ra1, dec1),
                                      sphere.radec_to_unit(ra2, dec2)))


class TestAngularDistance:
    def test_orthogonal_axes(self):
        assert angular_distance(0, 0, 90, 0) == pytest.approx(np.pi / 2)

    def test_identity(self):
        assert angular_distance(123.4, -56.7, 123.4, -56.7) == 0.0

    def test_antipodal_poles(self):
        assert angular_distance(0, 90, 0, -90) == pytest.approx(np.pi)

    def test_rejects_bad_dec(self):
        with pytest.raises(ValidationError):
            angular_distance(0, 91, 0, 0)

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

    @pytest.mark.parametrize("normal, offset", [([np.nan, 0.0, 1.0], 0.5),
                                                ([0.0, 0.0, 1.0], np.nan),
                                                ([0.0, np.inf, 1.0], 0.5)])
    def test_polygon_with_non_finite_values_refused(self, normal, offset):
        with pytest.raises(ValidationError, match="must be finite"):
            sphere.ConvexPolygon(np.array([normal]), np.array([offset]))

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


PAD = sphere.DEC_BOUND_PAD


def meridian_points(normal, offset, jitter):
    """Points on the meridian through the centre of the cap normal.p >= offset,
    at the cap's angular radius from the centre plus each of `jitter`
    (radians), north and south: where the cap reaches its extreme
    declinations."""
    norm = np.linalg.norm(normal)
    centre = normal / norm
    radius = np.arccos(np.clip(offset / norm, -1.0, 1.0))
    ra, dec = np.radians(sphere.unit_to_radec(centre))
    north = np.array([-np.sin(dec) * np.cos(ra), -np.sin(dec) * np.sin(ra), np.cos(dec)])
    angle = (radius + np.asarray(jitter))[:, None]
    return np.concatenate([np.cos(angle) * centre + np.sin(angle) * north,
                           np.cos(angle) * centre - np.sin(angle) * north])


def contained_decs(region, unit):
    """Declinations of the stored positions of `unit` the region contains."""
    ra, dec = sphere.unit_to_radec(unit)
    return dec[region.contains(sphere.radec_to_unit(ra, dec))]


def assert_bounds_hold(region, unit):
    lo, hi = sphere.region_dec_bounds(region)
    assert -90.0 <= lo and hi <= 90.0
    dec = contained_decs(region, unit)
    assert np.all((dec >= lo) & (dec <= hi)), (lo, hi, dec.min(), dec.max())
    return dec


JITTER = np.concatenate([-np.logspace(-6, -12, 7), [0.0], np.logspace(-12, -6, 7)])


def box(d0, d1, r0, r1):
    """RA/Dec box [r0, r1] x [d0, d1] (degrees) as four halfspaces."""
    r0, r1, s0, s1 = np.radians(r0), np.radians(r1), np.sin(np.radians(d0)), np.sin(np.radians(d1))
    normals = [(-np.sin(r0), np.cos(r0), 0.0), (np.sin(r1), -np.cos(r1), 0.0),
               (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    return sphere.ConvexPolygon(np.array(normals), np.array([0.0, 0.0, s0, -s1]))


class TestDecBounds:
    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_cones_hold_every_contained_point(self, seed, tiny):
        rng = np.random.Generator(np.random.PCG64(seed))
        center = random_catalog(seed + 2, 1)[0]
        radius = 10 ** rng.uniform(-10, -3) if tiny else rng.uniform(0, np.pi)
        cone = sphere.Cone(center, radius)
        unit = np.concatenate([random_catalog(seed + 1, 2000), center[None, :],
                               meridian_points(center, np.cos(radius), JITTER)])
        assert_bounds_hold(cone, unit)

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_random_polygons_hold_every_contained_point(self, seed, n_halfspaces):
        rng = np.random.Generator(np.random.PCG64(seed))
        normals = random_catalog(seed + 2, n_halfspaces)
        offsets = rng.uniform(-0.5, 0.9, n_halfspaces)
        poly = sphere.ConvexPolygon(normals, offsets)
        edges = [meridian_points(n, o, JITTER) for n, o in zip(normals, offsets)]
        assert_bounds_hold(poly, np.concatenate([random_catalog(seed + 1, 2000), *edges]))

    @given(st.floats(-89.0, 88.0), st.floats(1e-3, 90.0), st.floats(0.0, 360.0),
           st.floats(1e-3, 179.0))
    @settings(max_examples=60, deadline=None)
    def test_boxes_get_their_exact_band(self, d0, height, r0, width):
        d1 = min(d0 + height, 89.0)
        lo, hi = sphere.region_dec_bounds(box(d0, d1, r0, r0 + width))
        assert lo == pytest.approx(d0 - PAD, abs=1e-10)
        assert hi == pytest.approx(d1 + PAD, abs=1e-10)

    @pytest.mark.parametrize("name,band", [("northcap", (30.0 - PAD, 90.0)),
                                           ("wedge", (-30.0 - PAD, 30.0 + PAD))])
    def test_shipped_polygons_get_their_exact_band(self, name, band):
        poly = sphere.load_polygon(f"queries/{name}.poly")
        assert sphere.region_dec_bounds(poly) == pytest.approx(band, abs=1e-10)

    def test_cone_band_is_centre_plus_minus_radius(self):
        assert sphere.region_dec_bounds(sphere.cone_from_radec(10.0, 20.0, 5.0)) == \
            pytest.approx((15.0 - PAD, 25.0 + PAD), abs=1e-10)
        assert sphere.region_dec_bounds(sphere.cone_from_radec(10.0, 80.0, 15.0)) == \
            pytest.approx((65.0 - PAD, 90.0), abs=1e-10)

    @given(st.floats(0.0, 360.0), st.floats(0.0, 360.0), st.floats(-60.0, 60.0),
           st.floats(0.01, 20.0), st.floats(0.01, 20.0), st.floats(1e-5, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_caps_whose_bands_miss_give_an_empty_band(self, ra1, ra2, dec1, r1, r2, gap):
        # toward the equator, so that no pole clamp closes the gap
        dec2 = dec1 + np.copysign(r1 + r2 + gap, -dec1)
        caps = [sphere.cone_from_radec(ra1, dec1, r1), sphere.cone_from_radec(ra2, dec2, r2)]
        poly = sphere.ConvexPolygon(np.array([c.center for c in caps]),
                                    np.cos([c.radius for c in caps]))
        lo, hi = sphere.region_dec_bounds(poly)
        assert lo > hi
        assert len(contained_decs(poly, random_catalog(int(ra1 * 100), 500))) == 0

    @given(st.integers(0, 10_000), st.floats(-0.99e-9, 0.99e-9), st.floats(0.0, 1e-6),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_tiny_cap_with_off_unit_normal_is_bounded(self, seed, scale, radius, as_cone):
        centre = random_catalog(seed, 1)[0]
        normal = centre * (1.0 + (scale / 2 if as_cone else scale))
        offset = np.cos(radius)
        region = (sphere.Cone(normal, radius) if as_cone
                  else sphere.ConvexPolygon(normal[None, :], np.array([offset])))
        unit = np.concatenate([meridian_points(normal, offset, np.concatenate([JITTER, [1e-5]])),
                               centre[None, :]])
        dec = assert_bounds_hold(region, unit)
        if scale > 1e-12:  # a longer normal widens the cap past its centre's rounding
            assert len(dec) > 0


def circle_points(centre, radius, jitter, n_angles=360):
    """Points at angular distance radius + each of `jitter` (radians) from
    `centre`, at `n_angles` position angles: the edge of a cap, where its RA
    extent is widest."""
    centre = centre / np.linalg.norm(centre)
    east = np.cross([0.0, 0.0, 1.0], centre)
    east = east / np.linalg.norm(east) if np.linalg.norm(east) > 0 else np.array([1.0, 0.0, 0.0])
    north = np.cross(centre, east)
    angle = (radius + np.asarray(jitter))[:, None, None]
    pa = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)[None, :, None]
    ring = np.cos(pa) * east + np.sin(pa) * north
    return (np.cos(angle) * centre + np.sin(angle) * ring).reshape(-1, 3)


def assert_ra_window_holds(cone, unit):
    """Every stored position the cone contains is in its RA window, with its
    RA stored in [0, 360) or shifted out of it by whole turns."""
    ra, dec = sphere.unit_to_radec(unit)
    window = sphere.cone_ra_window(cone)
    if window is None:
        return 0
    inside = cone.contains(sphere.radec_to_unit(ra, dec))
    assert np.all(sphere.in_ra_window(ra[inside], *window)), window
    for shift in (-360.0, 360.0, 720.0):  # the same points, RA out of range
        assert np.all(sphere.in_ra_window(ra[inside] + shift, *window))
    return int(np.count_nonzero(inside))


class TestConeRaWindow:
    @given(st.integers(0, 10_000), st.sampled_from(["tiny", "any", "wide", "polar", "wrap"]),
           st.floats(-0.99e-9, 0.99e-9))
    @settings(deadline=None)
    def test_window_holds_every_contained_point(self, seed, kind, scale):
        rng = np.random.Generator(np.random.PCG64(seed))
        centre = random_catalog(seed + 2, 1)[0]
        radius = rng.uniform(0, np.pi / 2)
        if kind == "tiny":
            radius = np.radians(rng.choice([0.0, 0.05 / 3600, 1e-3]))
        elif kind == "wide":
            radius = rng.uniform(np.pi / 2 - 1e-6, np.pi)
        elif kind == "polar":  # reaching or just missing a pole
            dec = np.copysign(rng.uniform(60.0, 90.0), rng.uniform(-1, 1))
            centre = sphere.radec_to_unit(rng.uniform(0, 360), dec)
            radius = np.radians(90.0 - abs(dec) + rng.uniform(-1e-6, 1e-6))
        elif kind == "wrap":
            centre = sphere.radec_to_unit(rng.choice([0.0, 1e-9, 359.999999]),
                                          rng.uniform(-80, 80))
        radius = float(np.clip(radius, 0.0, np.pi))
        cone = sphere.Cone(centre * (1.0 + scale / 2), radius)
        unit = np.concatenate([random_catalog(seed + 1, 2000), centre[None, :],
                               circle_points(centre, radius, JITTER)])
        assert_ra_window_holds(cone, unit)

    def test_window_width(self):
        ra0, w = sphere.cone_ra_window(sphere.cone_from_radec(10.0, 0.0, 5.0))
        assert ra0 == pytest.approx(10.0) and w == pytest.approx(5.0 + PAD, abs=1e-9)
        _, w = sphere.cone_ra_window(sphere.cone_from_radec(10.0, 60.0, 5.0))
        assert w == pytest.approx(np.degrees(np.arcsin(np.sin(np.radians(5.0)) / 0.5)))

    @pytest.mark.parametrize("dec,radius", [(80.0, 10.0), (-85.0, 6.0), (0.0, 90.0),
                                            (30.0, 120.0), (89.0, 180.0)])
    def test_caps_reaching_a_pole_have_no_window(self, dec, radius):
        assert sphere.cone_ra_window(sphere.cone_from_radec(123.0, dec, radius)) is None

    def test_window_across_ra_zero(self):
        """RAs out of [0, 360) are kept when a whole number of turns puts
        them in the window, and when they are too large to place."""
        window = sphere.cone_ra_window(sphere.cone_from_radec(359.0, 10.0, 2.0))
        ra = np.array([356.0, 358.0, 0.0, 0.9, 1.5, 3.0, 180.0, -1.0, 360.0, 718.5, 370.0, 1e9])
        assert sphere.in_ra_window(ra, *window).tolist() == \
            [False, True, True, True, False, False, False, True, True, True, False, True]

    def test_window_just_short_of_a_quarter_turn(self):
        """Equatorial caps of radius just under 90 degrees, whose sine ratio
        can round down near 1, where the arcsin's slope magnifies the
        rounding past the pad: the ratio's own margin keeps the points at the
        cap's RA edge."""
        for radius in 90.0 - np.linspace(2e-7, 3e-6, 400):
            cone = sphere.cone_from_radec(100.0, 0.0, radius)
            edge = np.degrees(cone.radius) - np.concatenate([[0.0], np.logspace(-13, -7, 20)])
            assert assert_ra_window_holds(
                cone, sphere.radec_to_unit(100.0 + edge, np.zeros_like(edge))) > 0


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


def reference_cell_pairs(keys, query):
    """`sphere.cell_pairs` with one pass per neighbouring column: the order
    oracle. Keys are sorted by `lexsort` on (x, y) column, then z, and
    queries by (x, y, z). For each of the 9 columns (dx, dy) in turn, the
    queries whose column holds keys take the keys of their z range
    [z-1, z+1], in key order."""
    if not len(keys) or not len(query):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    shift = sphere._KEY_SHIFT
    col = (keys[:, 0] + shift) << 31 | (keys[:, 1] + shift)
    order = np.lexsort((keys[:, 2], col))
    cols, rank = np.unique(col[order], return_inverse=True)
    code = rank.astype(np.int64) << 31 | (keys[order, 2] + shift)
    qorder = np.lexsort((query[:, 2], query[:, 1], query[:, 0]))
    query = query[qorder]
    qs, los, his = [], [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            c = (query[:, 0] + (dx + shift)) << 31 | (query[:, 1] + (dy + shift))
            r = np.minimum(np.searchsorted(cols, c), len(cols) - 1)
            q = np.flatnonzero(cols[r] == c)
            z = r[q].astype(np.int64) << 31 | (query[q, 2] + shift)
            qs.append(q)
            los.append(np.searchsorted(code, z - 1))
            his.append(np.searchsorted(code, z + 1, side="right"))
    q, lo, hi = (np.concatenate(a) for a in (qs, los, his))
    n = hi - lo
    start = np.repeat(lo - (np.cumsum(n) - n), n)
    return qorder[np.repeat(q, n)], order[start + np.arange(n.sum())]


# |floor(v / edge)| for |v| <= 1 at the smallest edge, 1e-9, is at most 1e9
_KEY_BOUND = 10 ** 9


@st.composite
def key_sets(draw):
    """(keys, query), each (n, 3) int64 with 0 to 40 rows. Each axis spans
    9 cells around 0, around -5 (negative keys and the sign change), or
    against either key bound, so keys repeat and neighbour each other."""
    axes = []
    for _ in range(3):
        base = draw(st.sampled_from([0, -5, _KEY_BOUND - 2, 2 - _KEY_BOUND]))
        axes.append(st.integers(base - 4, base + 4))
    rows = st.lists(st.tuples(*axes), max_size=40)
    return tuple(np.array(draw(rows), dtype=np.int64).reshape(-1, 3) for _ in range(2))


class TestCellPairs:
    @settings(deadline=None)
    @given(key_sets())
    def test_pairs_in_reference_order(self, sides):
        keys, query = sides
        q, t = sphere.cell_pairs(keys, query)
        ref_q, ref_t = reference_cell_pairs(keys, query)
        assert q.tolist() == ref_q.tolist()
        assert t.tolist() == ref_t.tolist()

    @pytest.mark.parametrize("edge", [1e-9, 1e-3, 0.05])
    def test_catalog_pairs_in_reference_order(self, edge):
        pts = random_catalog(21, 5000)
        keys = sphere.cell_keys(pts, edge)
        query = sphere.cell_keys(pts[:2000] + 0.3 * edge, edge)
        for got, want in zip(sphere.cell_pairs(keys, query), reference_cell_pairs(keys, query)):
            assert got.tolist() == want.tolist()

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

    def test_order_is_the_structured_sort_order(self):
        # repeated ids tie on (id_a, id_b); separation breaks those ties
        rng = np.random.Generator(np.random.PCG64(14))
        n = 300
        ra = 200 + rng.uniform(-0.02, 0.02, n)
        dec = 40 + rng.uniform(-0.02, 0.02, n)
        table, _ = sphere.neighbors_join(rng.integers(0, 12, n), ra, dec, 60.0)
        want = np.sort(table, order=["id_a", "id_b"])
        assert len(np.unique(table[["id_a", "id_b"]])) < len(table)
        assert table.tobytes() == want.tobytes()

    def test_pruning_effectiveness_at_10k(self):
        unit = random_catalog(99, 10_000)
        ra, dec = sphere.unit_to_radec(unit)
        _, evals = sphere.neighbors_join(np.arange(10_000), ra, dec, 60.0)
        assert evals < 0.25 * 10_000 * 9_999 / 2

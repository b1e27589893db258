"""The cross-match in waves against the sequential rule it replaced.

`reference_build_master` is the per-detection loop over an incremental
spatial hash that `store.build_master` ran before it matched each pass in
waves of detections whose earlier conflict neighbours are done. It is kept
here as the oracle: on every case, fixed or drawn by hypothesis, the waves
must assign each detection to the same master and produce bit-identical
master rows and byte-identical `masters.csv`.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skymine import skygen, sphere, store


class _MasterGrid:
    """Incremental spatial hash over master unit vectors; cell edge equals the
    match chord so a radius query only touches the 27 neighboring cells."""

    def __init__(self, chord: float):
        self.edge = max(chord, 1e-9)
        self.cells: dict[tuple, list] = {}
        self.vecs: list[np.ndarray] = []
        self.keys: list[tuple] = []

    def _key(self, v: np.ndarray) -> tuple:
        return tuple(np.floor(v / self.edge).astype(np.int64))

    def add(self, v: np.ndarray) -> int:
        idx = len(self.vecs)
        self.vecs.append(v)
        key = self._key(v)
        self.keys.append(key)
        self.cells.setdefault(key, []).append(idx)
        return idx

    def update(self, idx: int, v: np.ndarray) -> None:
        self.vecs[idx] = v
        key = self._key(v)
        if key != self.keys[idx]:
            self.cells[self.keys[idx]].remove(idx)
            self.cells.setdefault(key, []).append(idx)
            self.keys[idx] = key

    def nearest_within(self, v: np.ndarray, chord: float) -> int:
        """Index of the nearest master within the chord radius (inclusive);
        equidistant candidates resolve to the lowest index. -1 if none."""
        kx, ky, kz = self._key(v)
        cand = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    cand.extend(self.cells.get((kx + dx, ky + dy, kz + dz), ()))
        if not cand:
            return -1
        cand = np.asarray(sorted(cand), dtype=np.int64)
        pts = np.asarray([self.vecs[i] for i in cand])
        diff = pts - v
        d2 = np.einsum("ij,ij->i", diff, diff)
        best = float(np.min(d2))
        if best > chord * chord:
            return -1
        # equidistant within ~1e-9 rad resolves to the lowest master index
        ties = cand[np.sqrt(d2) <= np.sqrt(best) + 1e-9]
        return int(ties[0])


def reference_build_master(records: np.ndarray, match_radius_arcsec: float):
    """(masters, assignment) by the one-detection-at-a-time rule."""
    order = np.lexsort((records["det_id"], records["mjd"], records["pass_id"]))
    unit = sphere.radec_to_unit(records["ra"], records["dec"])
    radius_rad = np.radians(match_radius_arcsec / sphere.ARCSEC_PER_DEG)
    chord = sphere.chord_for_angle(radius_rad)

    grid = _MasterGrid(chord)
    sums: list[np.ndarray] = []
    counts: list[int] = []
    flux_sum: list[float] = []
    flux_sq: list[float] = []
    first: list[float] = []
    last: list[float] = []
    assignment = np.zeros(len(records), dtype=np.uint64)

    for row in order:
        v = unit[row]
        m = grid.nearest_within(v, chord)
        if m < 0:
            m = grid.add(v)
            sums.append(v.copy())
            counts.append(0)
            flux_sum.append(0.0)
            flux_sq.append(0.0)
            first.append(np.inf)
            last.append(-np.inf)
        else:
            sums[m] += v
            grid.update(m, sums[m] / np.linalg.norm(sums[m]))
        counts[m] += 1
        f = float(records["flux"][row])
        flux_sum[m] += f
        flux_sq[m] += f * f
        mjd = float(records["mjd"][row])
        first[m] = min(first[m], mjd)
        last[m] = max(last[m], mjd)
        assignment[row] = m + 1

    n_masters = len(counts)
    masters = np.zeros(n_masters, dtype=store.MASTER_DTYPE)
    masters["master_id"] = np.arange(1, n_masters + 1)
    if n_masters:
        pos = np.asarray([s / np.linalg.norm(s) for s in sums])
        ra, dec = sphere.unit_to_radec(pos)
        masters["ra"] = ra
        masters["dec"] = dec
        n = np.asarray(counts, dtype=np.float64)
        masters["n_detections"] = counts
        mean = np.asarray(flux_sum) / n
        masters["mean_flux"] = mean
        masters["flux_variance"] = np.maximum(np.asarray(flux_sq) / n - mean ** 2, 0.0)
        masters["first_mjd"] = first
        masters["last_mjd"] = last
    return masters, assignment


def reference_masters_csv(masters: np.ndarray) -> bytes:
    lines = ["master_id,ra,dec,n_detections,mean_flux,flux_variance,first_mjd,last_mjd"]
    for m in masters:
        lines.append(f"{m['master_id']},{m['ra']:.9f},{m['dec']:.9f},"
                     f"{m['n_detections']},{m['mean_flux']:.6f},{m['flux_variance']:.6f},"
                     f"{m['first_mjd']:.6f},{m['last_mjd']:.6f}")
    return ("\n".join(lines) + "\n").encode()


def assert_matches_oracle(out, records, radius_arcsec, partitions=3):
    """Ingest `records`, cross-match them, and compare with the oracle.
    Returns the stored records and their assignment, in stored order."""
    store.ingest_detections(records, partitions, out)
    stored = store.read_all(out)
    ref_masters, ref_assignment = reference_build_master(stored, radius_arcsec)
    masters, assignment = store.build_master(out, radius_arcsec)
    assert np.array_equal(assignment, ref_assignment)
    assert np.array_equal(store.read_all(out)["master_id"], ref_assignment)
    assert masters.tobytes() == ref_masters.tobytes()
    assert (out / "masters.csv").read_bytes() == reference_masters_csv(ref_masters)
    return stored, assignment


# ---------------------------------------------------------------------------
# cases

RADIUS = 1.0
CHORD = sphere.chord_for_angle(np.radians(RADIUS / sphere.ARCSEC_PER_DEG))
EDGE = CHORD  # cell edge at a 1" radius


def detections(rows):
    """Records from (pass_id, ra_deg, dec_deg) rows, det_id in row order."""
    recs = np.zeros(len(rows), dtype=store.DET_DTYPE)
    recs["det_id"] = np.arange(1, len(rows) + 1)
    recs["pass_id"] = [r[0] for r in rows]
    recs["mjd"] = 59000.0 + recs["pass_id"]
    recs["ra"] = [r[1] % 360.0 for r in rows]
    recs["dec"] = [r[2] for r in rows]
    recs["flux"] = 100.0 + np.arange(len(rows), dtype=np.float32)
    recs["flux_err"] = 1.0
    return recs


def at_y(y):
    """(ra, dec) in degrees of the point on the equator whose unit vector
    has y component `y` (x near 1, z = 0)."""
    return float(np.degrees(np.arcsin(y))), 0.0


def by_det_id(stored, assignment):
    return dict(zip(stored["det_id"].tolist(), assignment.tolist()))


@pytest.mark.parametrize("radius", [1.0, 2.0])
@pytest.mark.parametrize("seed,noise", [(1, 0.05), (2, 0.3), (3, 0.6)])
def test_skygen_surveys(tmp_path, seed, noise, radius):
    cfg = skygen.SurveyConfig(n_objects=300, passes=10, seed=seed,
                              periodic_fraction=0.1, transient_fraction=0.05,
                              mover_fraction=0.05, position_noise_arcsec=noise)
    det = skygen.generate_survey(cfg)[1]
    assert_matches_oracle(tmp_path, det, radius)


@pytest.mark.parametrize("radius", [1e-4, 3600.0])
def test_extreme_radii(tmp_path, radius):
    """1e-4": the cell edge is floored at 1e-9 and keys reach 10^9. 3600":
    cells of a degree hold many masters and most of a pass conflicts."""
    cfg = skygen.SurveyConfig(n_objects=200, passes=6, seed=4,
                              periodic_fraction=0.1, transient_fraction=0.05,
                              mover_fraction=0.05, position_noise_arcsec=0.3)
    assert_matches_oracle(tmp_path, skygen.generate_survey(cfg)[1], radius)


@pytest.mark.parametrize("radius", [1.0, 2.0])
@pytest.mark.parametrize("ra0,dec0,ids", [(30.0, 20.0, "shuffled"), (0.0, -10.0, "by_ra"),
                                          (45.0, 89.99, "shuffled")])
def test_crowded_patch(tmp_path, ra0, dec0, ids, radius):
    """150 sources in a 20" square seen in 6 passes, plus one-off detections:
    every detection in the square has a same-pass neighbour within 4 cells,
    so it runs through the conflict set, with chains and merges. 200 sources
    spread over the sky run as the batch in the same passes, so new masters
    of both kinds interleave in the numbering. det_ids ordered by ra make
    long chains of earlier neighbours within a pass."""
    rng = np.random.default_rng(11)
    n_src, passes = 150, 6
    src = rng.uniform(-10, 10, size=(n_src, 2)) / 3600.0
    sky = np.stack([rng.uniform(0, 360, 200),
                    np.degrees(np.arcsin(rng.uniform(-1, 1, 200)))], axis=1)
    rows = []
    for p in range(passes):
        seen = rng.random(n_src) < 0.9
        noise = rng.normal(0, 0.3, size=(n_src, 2)) / 3600.0
        extra = rng.uniform(-10, 10, size=(10, 2)) / 3600.0
        for off in np.concatenate([(src + noise)[seen], extra]):
            rows.append((p, ra0 + off[0] / np.cos(np.radians(dec0)), dec0 + off[1]))
        sky_seen = sky[rng.random(len(sky)) < 0.8]
        rows += [(p, ra, dec) for ra, dec in sky_seen]
    recs = detections(rows)
    recs["mjd"] += rng.uniform(0, 0.5, len(recs))   # several epochs per pass
    if ids == "shuffled":
        recs["det_id"] = rng.permutation(len(recs)) + 1
    else:
        recs["det_id"] = np.argsort(np.argsort(recs["ra"], kind="stable")) + 1
    assert_matches_oracle(tmp_path, recs, radius)


@st.composite
def crowded_patches(draw):
    """(records, radius in arcsec): sources in a square patch seen in a few
    passes with noise, the patch anywhere on the sky (the poles and RA 0
    included), det_ids shuffled or ordered by ra."""
    n_src = draw(st.integers(1, 40))
    side = draw(st.floats(1.0, 30.0))          # arcsec
    passes = draw(st.integers(1, 4))
    noise = draw(st.floats(0.0, 1.0))           # arcsec
    radius = draw(st.floats(0.5, 3.0))          # arcsec
    ra0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 360.0, exclude_max=True)))
    dec0 = draw(st.one_of(st.sampled_from([-90.0, 90.0]), st.floats(-90.0, 90.0)))
    by_ra = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    ra, dec = np.radians(ra0), np.radians(dec0)
    centre = sphere.radec_to_unit(ra0, dec0)
    east = np.array([-np.sin(ra), np.cos(ra), 0.0])
    north = np.array([-np.sin(dec) * np.cos(ra), -np.sin(dec) * np.sin(ra), np.cos(dec)])
    src = rng.uniform(-side / 2, side / 2, size=(n_src, 2))
    offsets = []
    for _ in range(passes):
        seen = rng.random(n_src) < 0.9
        offsets.append(src[seen] + rng.normal(0.0, noise, size=(int(seen.sum()), 2)))
    pass_id = np.repeat(np.arange(passes), [len(o) for o in offsets])
    off = np.radians(np.concatenate(offsets) / sphere.ARCSEC_PER_DEG)
    v = centre + off[:, :1] * east + off[:, 1:] * north
    recs = np.zeros(len(v), dtype=store.DET_DTYPE)
    recs["ra"], recs["dec"] = sphere.unit_to_radec(v / np.linalg.norm(v, axis=1)[:, None])
    recs["pass_id"] = pass_id
    recs["mjd"] = 59000.0 + pass_id + rng.uniform(0, 0.5, len(recs))
    recs["flux"] = rng.uniform(10, 1000, len(recs))
    recs["flux_err"] = 1.0
    if by_ra:
        recs["det_id"] = np.argsort(np.argsort(recs["ra"], kind="stable")) + 1
    else:
        recs["det_id"] = rng.permutation(len(recs)) + 1
    return recs, radius


@given(crowded_patches())
@settings(deadline=None)
def test_random_crowded_patches(patch):
    recs, radius = patch
    with tempfile.TemporaryDirectory() as out:
        assert_matches_oracle(Path(out), recs, radius)


def test_tie_between_founders_run_out_of_row_order(tmp_path):
    """In pass 0, founder A (row 1) has an earlier conflict neighbour X and
    runs in wave 1; founder B (row 2) has none and runs in wave 0, before
    A. Three later detections pull each of A and B to within a chord of the
    origin, and a detection of pass 1 there is equidistant from both. It
    takes A, the lower id, as the one-at-a-time rule numbers founders in row
    order; ids in wave order would give it B's."""
    c = CHORD
    x, a, b = -4.5 * c, -2.05 * c, 2.05 * c
    rows = [(0, *at_y(x)), (0, *at_y(a)), (0, *at_y(b))]
    for sign, start in ((1, a), (-1, b)):
        members = [start]
        for _ in range(3):  # each just inside the chord of the moved master
            members.append(np.mean(members) + sign * 0.99 * c)
            rows.append((0, *at_y(members[-1])))
    rows.append((1, *at_y(0.0)))
    keys = np.floor(np.array([x, a, b]) / EDGE).tolist()
    assert keys == [-5, -3, 2]   # X-A within 4 cells, B 5 or more from both
    recs = detections(rows)
    unit = sphere.radec_to_unit(recs["ra"], recs["dec"])
    ends = [unit[rows_of].sum(axis=0) for rows_of in ([1, 3, 4, 5], [2, 6, 7, 8])]
    dist = [np.linalg.norm(e / np.linalg.norm(e) - unit[-1]) for e in ends]
    assert max(dist) < c and abs(dist[0] - dist[1]) < 1e-9
    stored, assignment = assert_matches_oracle(tmp_path, recs, RADIUS)
    got = by_det_id(stored, assignment)
    assert [got[i] for i in range(1, len(rows) + 1)] == [1, 2, 3, 2, 2, 2, 3, 3, 3, 2]


def test_same_pass_pairs(tmp_path):
    """Two sources 0.3" apart in every pass merge into one master."""
    rows = []
    for p in range(4):
        rows += [(p, 10.0, 5.0), (p, 50.0, 5.0), (p, 50.0 + 0.3 / 3600, 5.0)]
    stored, assignment = assert_matches_oracle(tmp_path, detections(rows), RADIUS)
    assert sorted(set(assignment.tolist())) == [1, 2]


def test_same_pass_chain(tmp_path):
    """Three sources 0.8" apart in a row: the middle one joins the first, and
    the third joins the moved master."""
    rows = [(p, 20.0 + k * 0.8 / 3600, -30.0) for p in range(3) for k in range(3)]
    assert_matches_oracle(tmp_path, detections(rows), RADIUS)


def test_equidistant_masters_lowest_index_wins(tmp_path):
    ra_a, _ = at_y(0.6 * CHORD)
    ra_b, _ = at_y(-0.6 * CHORD)
    recs = detections([(0, ra_a, 0.0), (0, ra_b, 0.0), (1, 0.0, 0.0)])
    stored, assignment = assert_matches_oracle(tmp_path, recs, RADIUS)
    assert by_det_id(stored, assignment) == {1: 1, 2: 2, 3: 1}


def test_detection_at_the_radius(tmp_path):
    half = np.degrees(0.5 * np.radians(RADIUS / sphere.ARCSEC_PER_DEG))
    rows = [(0, 100.0 + half, 40.0), (1, 100.0 - half, 40.0),
            (0, 200.0, 0.0), (1, 200.0 + RADIUS / 3600, 0.0)]
    assert_matches_oracle(tmp_path, detections(rows), RADIUS)


@pytest.mark.parametrize("touched", [False, True])
def test_tie_outside_the_27_cells_is_not_a_candidate(tmp_path, touched):
    """A lies just outside the radius of detection d, within the 1e-9 tie
    tolerance, but two cells away; B lies just inside, in d's cell. A has
    the lower index and would win if it were a candidate. With `touched`, a
    detection on top of A joins it earlier in d's pass, which puts d in the
    conflict set with A among the masters changed in the pass."""
    y_d = 4 * EDGE - 0.1e-9
    y_a = y_d + CHORD + 0.5e-9
    y_b = y_d - CHORD + 0.2e-9
    keys = np.floor(np.array([y_d, y_a, y_b]) / EDGE)
    assert keys.tolist() == [3, 5, 3]
    rows = [(0, *at_y(y_a)), (1, *at_y(y_b))]
    rows += [(2, *at_y(y_a))] if touched else []
    rows += [(2, *at_y(y_d))]
    stored, assignment = assert_matches_oracle(tmp_path, detections(rows), RADIUS)
    assert by_det_id(stored, assignment)[len(rows)] == 2


def test_master_changes_cell_during_a_pass(tmp_path):
    """e1 moves master M from cell 4 into cell 5; e2, in cell 6, is then
    within the radius of M's new position but not of its old one."""
    y_m = 4.9 * EDGE
    y_e1 = y_m + 0.8 * CHORD
    y_e2 = 0.5 * (y_m + y_e1) + 0.9 * CHORD
    assert np.floor(np.array([y_m, y_e1, y_e2]) / EDGE).tolist() == [4, 5, 6]
    recs = detections([(0, *at_y(y_m)), (1, *at_y(y_e1)), (1, *at_y(y_e2))])
    stored, assignment = assert_matches_oracle(tmp_path, recs, RADIUS)
    assert by_det_id(stored, assignment) == {1: 1, 2: 1, 3: 1}


def test_empty_store(tmp_path):
    assert_matches_oracle(tmp_path, np.zeros(0, dtype=store.DET_DTYPE), RADIUS)


def on_axis(axis, value):
    """(ra, dec) in degrees of the unit vector with `value` on `axis`, the
    rest on the next axis (x for z), and 0 on the third."""
    v = np.zeros(3)
    v[axis], v[(axis + 1) % 3] = value, np.sqrt(1.0 - value * value)
    ra, dec = sphere.unit_to_radec(v)
    return float(ra), float(dec)


def stored_keys(recs):
    return sphere.cell_keys(sphere.radec_to_unit(recs["ra"], recs["dec"]), EDGE)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("lo,gap", [(-9, 4), (-8, 4), (-8, 5), (-9, 5)])
def test_same_pass_pair_across_a_coarse_boundary(tmp_path, axis, lo, gap):
    """Two detections of one pass `gap` cells apart on one axis, in negative
    cells on either side of a coarse cell (key >> 2) boundary: 4 cells apart
    they are a conflict pair, 5 apart they are not. Each joins a master of
    the pass before, half a chord away in its own cell."""
    cells = [lo, lo + gap]
    rows = [(p, *on_axis(axis, (c + f) * EDGE)) for p, f in ((0, 0.2), (1, 0.7)) for c in cells]
    recs = detections(rows)
    keys = stored_keys(recs)
    assert keys[:, axis].tolist() == cells + cells
    assert keys[0, axis] >> 2 != keys[1, axis] >> 2
    others = np.delete(keys, axis, axis=1)
    assert (others == others[0]).all()
    stored, assignment = assert_matches_oracle(tmp_path, recs, RADIUS)
    assert by_det_id(stored, assignment) == {1: 1, 2: 2, 3: 1, 4: 2}


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("cells", [1, 2])
def test_master_across_a_coarse_boundary(tmp_path, axis, cells):
    """Master A lies `cells` cells below detection d on one axis, across a
    coarse cell boundary at negative keys; master B lies in d's cell, just
    inside the radius. 1 cell away, A is a candidate and the nearer. 2 cells
    away, A lies just outside the radius but within the 1e-9 tie tolerance,
    and would win on its lower index if it were a candidate."""
    c_d = -4 * EDGE + 0.1e-9
    c_a = c_d - 0.5 * CHORD if cells == 1 else c_d - CHORD - 0.5e-9
    c_b = c_d + CHORD - 0.2e-9
    recs = detections([(0, *on_axis(axis, c_a)), (1, *on_axis(axis, c_b)),
                       (2, *on_axis(axis, c_d))])
    keys = stored_keys(recs)
    assert keys[:, axis].tolist() == [-4 - cells, -4, -4]
    assert (keys[:, axis] >> 2).tolist() == [-2, -1, -1]
    others = np.delete(keys, axis, axis=1)
    assert (others == others[0]).all()
    stored, assignment = assert_matches_oracle(tmp_path, recs, RADIUS)
    assert by_det_id(stored, assignment)[3] == (1 if cells == 1 else 2)

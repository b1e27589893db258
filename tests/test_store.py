import json
import os
import shutil
import tempfile
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skymine import cli, skygen, sphere, store
from skymine.errors import EXIT_IO, EXIT_VALIDATION, StoreIOError, ValidationError


def make_records(n, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    recs = np.zeros(n, dtype=store.DET_DTYPE)
    recs["det_id"] = np.arange(1, n + 1)
    recs["pass_id"] = rng.integers(0, 10, n)
    recs["mjd"] = 59000 + recs["pass_id"]
    recs["ra"] = rng.uniform(0, 360, n)
    recs["dec"] = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    recs["flux"] = rng.uniform(10, 1000, n)
    recs["flux_err"] = rng.uniform(0.5, 5, n)
    recs["flags"] = rng.integers(0, 2, n)
    return recs


@pytest.fixture
def small_store(tmp_path):
    recs = make_records(500)
    store.ingest_detections(recs, 4, tmp_path)
    store.build_indexes(tmp_path, 1.0)
    return tmp_path, recs


class TestValidation:
    def test_zero_flux_err(self):
        recs = make_records(5)
        recs["flux_err"][3] = 0.0
        with pytest.raises(ValidationError, match="record 3"):
            store.validate_records(recs)

    def test_dec_out_of_range(self):
        recs = make_records(5)
        recs["dec"][1] = 90.5
        with pytest.raises(ValidationError, match="record 1"):
            store.validate_records(recs)

    def test_duplicate_det_id(self):
        recs = make_records(5)
        recs["det_id"][4] = recs["det_id"][2]
        with pytest.raises(ValidationError, match="duplicate det_id"):
            store.validate_records(recs)

    def test_nonfinite_position(self):
        recs = make_records(5)
        recs["ra"][0] = np.nan
        with pytest.raises(ValidationError, match="record 0"):
            store.validate_records(recs)

    def test_bad_partition_count(self, tmp_path):
        with pytest.raises(ValidationError):
            store.ingest_detections(make_records(5), 0, tmp_path)


class TestRoundTrip:
    def test_bit_identical_round_trip(self, tmp_path):
        recs = make_records(1000)
        store.ingest_detections(recs, 8, tmp_path)
        back = store.read_all(tmp_path, verify=True)
        assert len(back) == 1000
        # every record numbered by its place in its partition...
        assert back["ordinal"].tolist() == [i for p in range(8) for i in range(125)]
        # ...and otherwise the same multiset of records, compared bitwise
        # after id sort
        back["ordinal"] = 0
        a = np.sort(recs, order="det_id")
        b = np.sort(back, order="det_id")
        assert a.tobytes() == b.tobytes()

    def test_more_than_2_to_32_records_in_a_partition_refused(self, tmp_path, monkeypatch):
        """Ordinals are 32-bit. The check comes before anything reads the
        records, so views that repeat one record stand in for the input, and
        no validation pass over them may start."""
        monkeypatch.setattr(store, "validate_records", lambda _: pytest.fail("records read"))
        one = make_records(1)
        with pytest.raises(ValidationError, match="4294967297 records, more than 2"):
            store.ingest_detections(np.broadcast_to(one, (2 ** 32 + 1,)), 1, tmp_path)
        with pytest.raises(ValidationError, match="4294967297 records"):
            store.ingest_detections(np.broadcast_to(one, (2 ** 33 + 1,)), 2, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_record_size_is_64(self):
        assert store.RECORD_SIZE == 64

    def test_partition_balance(self, tmp_path):
        manifest = store.ingest_detections(make_records(1002), 4, tmp_path)
        sizes = [p.records for p in manifest.partitions]
        assert sum(sizes) == 1002
        assert max(sizes) - min(sizes) <= 1

    def test_checksum_detects_corruption(self, small_store):
        path, _ = small_store
        target = path / "part-0002.det"
        data = bytearray(target.read_bytes())
        data[100] ^= 0xFF
        target.write_bytes(bytes(data))
        manifest = store.read_manifest(path)
        with pytest.raises(StoreIOError, match="checksum"):
            store.read_partition(path, manifest.partitions[2], verify=True)
        # unverified read still works (length is intact)
        store.read_partition(path, manifest.partitions[2])

    def test_truncation_detected_without_verify(self, small_store):
        path, _ = small_store
        target = path / "part-0001.det"
        target.write_bytes(target.read_bytes()[:-64])
        manifest = store.read_manifest(path)
        with pytest.raises(StoreIOError, match="expected"):
            store.read_partition(path, manifest.partitions[1])

    @staticmethod
    def _open_with(monkeypatch, readinto):
        """Make store's open() return files whose readinto() is
        `readinto(real_file, buf)`."""
        real_open = open

        class Wrapped:
            def __init__(self, f):
                self.f = f

            def fileno(self):
                return self.f.fileno()

            def readinto(self, buf):
                return readinto(self.f, buf)

            def seek(self, offset):
                return self.f.seek(offset)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(store, "open", lambda *a, **k: Wrapped(real_open(*a, **k)),
                            raising=False)

    def test_partial_reads_are_continued(self, small_store, monkeypatch):
        """A readinto() that fills less than asked, as read() does past 2 GiB
        on Linux, is called again until the partition, or the zone band's
        byte range, is complete."""
        path, _ = small_store
        want = store.read_all(path)
        want_scan, _ = store.scan(path, "flux>300")
        want_band, _ = store.scan(path, "true", region=SCAN_REGIONS["cone"])
        chunk = 3 * store.RECORD_SIZE + 5
        self._open_with(monkeypatch, lambda f, buf: f.readinto(memoryview(buf)[:chunk]))
        assert store.read_all(path).tobytes() == want.tobytes()
        assert store.scan(path, "flux>300")[0].tobytes() == want_scan.tobytes()
        band, _ = store.scan(path, "true", region=SCAN_REGIONS["cone"])
        assert band.tobytes() == want_band.tobytes() and len(band)

    def test_short_read_is_an_error(self, small_store, monkeypatch):
        """A file that ends before the size fstat reported is an error."""
        path, _ = small_store

        def early_eof(f, buf):
            # the file seems to end one record before its real end
            end = os.fstat(f.fileno()).st_size - store.RECORD_SIZE
            return f.readinto(memoryview(buf)[:max(0, end - f.tell())])

        self._open_with(monkeypatch, early_eof)
        with pytest.raises(StoreIOError, match="short read"):
            store.read_all(path)
        with pytest.raises(StoreIOError, match="short read"):
            store.scan(path, "flux>300")
        # its band ends with the partitions' last zones
        with pytest.raises(StoreIOError, match="short read"):
            store.scan(path, "true", region=SCAN_REGIONS["northcap"])

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StoreIOError, match="manifest"):
            store.read_manifest(tmp_path / "nowhere")

    def test_manifest_json_round_trip(self, small_store):
        path, _ = small_store
        m = store.read_manifest(path)
        again = store.StoreManifest.from_json(m.to_json())
        assert again == m

    @given(parts=st.integers(1, 16), n=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_any_partitioning_preserves_records(self, parts, n):
        with tempfile.TemporaryDirectory() as tmp:
            recs = make_records(n, seed=n)
            store.ingest_detections(recs, parts, tmp)
            back = store.read_all(tmp, verify=True)
            assert set(back["det_id"].tolist()) == set(recs["det_id"].tolist())


class TestIndexes:
    def test_zone_assignment(self, small_store):
        path, _ = small_store
        recs = store.read_all(path)
        assert np.all(recs["zone"] == sphere.zone_of(recs["dec"], 1.0))

    def test_equator_record_zone_90(self, tmp_path):
        recs = make_records(1)
        recs["dec"] = 0.25
        store.ingest_detections(recs, 1, tmp_path)
        store.build_indexes(tmp_path, 1.0)
        assert store.read_all(tmp_path)["zone"][0] == 90

    def test_zone_count_totals(self, small_store):
        path, recs = small_store
        manifest = store.read_manifest(path)
        for info in manifest.partitions:
            part = store.read_partition(path, info)
            assert sum(info.zone_counts) == info.records == len(part)
            zones = np.arange(info.zone_first, info.zone_first + len(info.zone_counts))
            assert info.zone_counts == [int(np.sum(part["zone"] == z)) for z in zones]
        assert sum(p.records for p in manifest.partitions) == len(recs)
        assert manifest.zone_height_deg == 1.0

    @pytest.mark.parametrize("heights", [(1.0,), (0.01,), (1.0, 0.01), (0.01, 2.5)])
    def test_partitions_in_zone_then_ordinal_order(self, tmp_path, heights):
        """At 0.01 degrees a partition spans more than 255 zones, so its
        sort key takes 16 bits."""
        store.ingest_detections(make_records(500), 2, tmp_path)
        for height in heights:
            manifest = store.build_indexes(tmp_path, height)
        if heights[-1] == 0.01:
            assert len(manifest.partitions[0].zone_counts) > 255
        for info in manifest.partitions:
            part = store.read_partition(tmp_path, info)
            key = part["zone"].astype(np.int64) << 32 | part["ordinal"]
            assert np.all(np.diff(key) > 0)
            assert sorted(part["ordinal"].tolist()) == list(range(info.records))
            assert np.all(part["zone"] == sphere.zone_of(part["dec"], heights[-1]))

    def test_manifest_is_compact_json(self, small_store):
        text = (small_store[0] / "manifest.json").read_text()
        assert "\n" not in text and ", " not in text and ": " not in text
        d = json.loads(text)
        assert d["schema_version"] == 3
        assert "load_rate_bytes_per_s" not in d and "index_overhead_fraction" not in d

    def test_built_manifest_equals_read_manifest(self, tmp_path):
        store.ingest_detections(make_records(500), 4, tmp_path)
        built = store.build_indexes(tmp_path, 1.0)
        assert all(p.zone_counts for p in built.partitions)
        assert built == store.read_manifest(tmp_path)

    def test_empty_partition_round_trip(self, tmp_path):
        store.ingest_detections(make_records(2), 3, tmp_path)
        built = store.build_indexes(tmp_path, 1.0)
        empty = built.partitions[2]
        assert (empty.records, empty.zone_first, empty.zone_counts) == (0, 0, [])
        assert store.StoreManifest.from_json(built.to_json()) == built
        assert store.read_manifest(tmp_path) == built

    def test_rejects_bad_zone_height(self, small_store):
        with pytest.raises(ValidationError):
            store.build_indexes(small_store[0], 0.0)

    def test_zone_ids_that_overflow_their_field_exit_2(self, capsys, tmp_path):
        """A zone id is a <u4. Below 180/2^32 deg there are more zones than
        that holds: zone 17,000,000,000 of a 1e-8 deg height would be stored
        as 4,115,098,112, and region queries would then find records outside
        their zones. Such a height is refused before anything is written."""
        recs = make_records(1)
        recs["ra"], recs["dec"] = 10.0, 80.0
        store.ingest_detections(recs, 1, tmp_path)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        code = cli.run(["index", "--store", str(tmp_path), "--zone-height", "1e-8d"])
        assert code == EXIT_VALIDATION
        assert "more than 2^32 zones" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

        height = 180 / 2 ** 32  # exactly 2^32 zones: the last id still fits
        store.build_indexes(tmp_path, height)
        zone = int(sphere.zone_of(80.0, height))
        assert zone > 2 ** 31 and store.read_all(tmp_path)["zone"].tolist() == [zone]
        out, stats = store.scan(tmp_path, "true", sphere.cone_from_radec(10.0, 80.0, 1.0))
        assert out["det_id"].tolist() == [1]


class TestPredicate:
    def test_literals(self):
        recs = make_records(10)
        assert store.Predicate("true").mask(recs).all()
        assert not store.Predicate("false").mask(recs).any()

    def test_single_clause_oracle(self):
        recs = make_records(300)
        mask = store.Predicate("flux>500").mask(recs)
        assert np.array_equal(mask, recs["flux"] > 500)

    def test_conjunction_oracle(self):
        recs = make_records(300)
        mask = store.Predicate("flux>=200 and pass_id<5 and flags==0").mask(recs)
        want = (recs["flux"] >= 200) & (recs["pass_id"] < 5) & (recs["flags"] == 0)
        assert np.array_equal(mask, want)

    def test_unknown_field(self):
        with pytest.raises(ValidationError, match="unknown field"):
            store.Predicate("magnitude>5")

    def test_garbage(self):
        with pytest.raises(ValidationError):
            store.Predicate("flux ~ 5")

    def test_bad_value(self):
        with pytest.raises(ValidationError):
            store.Predicate("flux>banana")


class TestScan:
    def test_worker_counts_agree(self, small_store):
        path, _ = small_store
        base, _ = store.scan(path, "flux>300")
        for w in (2, 4, 8):
            out, stats = store.scan(path, "flux>300", workers=w)
            assert out.tobytes() == base.tobytes()
            assert stats.workers == w

    def test_scan_reads_everything(self, small_store):
        path, recs = small_store
        out, stats = store.scan(path, "true")
        assert stats.records_scanned == len(recs)
        assert stats.bytes_read == len(recs) * store.RECORD_SIZE
        assert stats.records_matched == len(recs)
        assert len(out) == len(recs)

    def test_region_scan_matches_brute_force(self, small_store):
        path, recs = small_store
        cone = sphere.cone_from_radec(100.0, 30.0, 20.0)
        out, _ = store.scan(path, "true", region=cone)
        unit = sphere.radec_to_unit(recs["ra"], recs["dec"])
        want = set(recs["det_id"][cone.contains(unit)].tolist())
        assert set(out["det_id"].tolist()) == want
        assert len(want) > 0

    def test_region_plus_predicate(self, small_store):
        path, recs = small_store
        cone = sphere.cone_from_radec(200.0, -10.0, 40.0)
        out, _ = store.scan(path, "flux<400", region=cone, workers=2)
        unit = sphere.radec_to_unit(recs["ra"], recs["dec"])
        want = set(recs["det_id"][cone.contains(unit) & (recs["flux"] < 400)].tolist())
        assert set(out["det_id"].tolist()) == want

    def test_rejects_zero_workers(self, small_store):
        with pytest.raises(ValidationError):
            store.scan(small_store[0], "true", workers=0)

    def test_output_order_deterministic(self, small_store):
        path, _ = small_store
        a, _ = store.scan(path, "pass_id<=3", workers=4)
        b, _ = store.scan(path, "pass_id<=3", workers=4)
        assert a.tobytes() == b.tobytes()


def zone_edge_records(first_id):
    """Records at RA 0 on both sides of dec 30, a 1-degree zone edge, a few
    ulps apart."""
    dec = 30.0 + 3.6e-15 * np.arange(-40, 6)
    recs = make_records(len(dec), seed=first_id)
    recs["det_id"] = np.arange(first_id, first_id + len(dec))
    recs["ra"] = 0.0
    recs["dec"] = dec
    return recs


@pytest.fixture(params=["full", "sparse"])
def indexed_store(request, tmp_path):
    """A zoned store with records on a zone edge: 2,000 random records in 4
    partitions, or just the edge records in 64 partitions, most of them
    empty."""
    if request.param == "full":
        recs, parts = np.concatenate([make_records(2000), zone_edge_records(2001)]), 4
    else:
        recs, parts = zone_edge_records(1), 64
    store.ingest_detections(recs, parts, tmp_path)
    store.build_indexes(tmp_path, 1.0)
    return tmp_path


def _poly(normals, offsets):
    return sphere.ConvexPolygon(np.array(normals, dtype=float), np.array(offsets, dtype=float))


SCAN_REGIONS = {
    "none": None,
    "cone": sphere.cone_from_radec(100.0, 30.0, 20.0),
    "cone-at-pole": sphere.cone_from_radec(0.0, 80.0, 15.0),
    # its lower bound, 31 - 1 degrees, computes as exactly 30.0; a record
    # a few ulps below 30 (zone 119) still passes the cone test
    "cone-on-zone-edge": sphere.cone_from_radec(0.0, 31.0, 1.0),
    "northcap": sphere.load_polygon(Path(__file__).parents[1] / "queries" / "northcap.poly"),
    "wedge": sphere.load_polygon(Path(__file__).parents[1] / "queries" / "wedge.poly"),
    "box": _poly([[0, 1, 0], [np.sin(1.0), -np.cos(1.0), 0], [0, 0, 1], [0, 0, -1]],
                 [0.0, 0.0, np.sin(np.radians(-20.0)), -np.sin(np.radians(10.0))]),
    "empty": _poly([[0, 0, 1], [0, 0, -1]], [0.6, -0.5]),
}


def reference_zone_range(manifest, region):
    """(z_lo, z_hi), the zones of a region's declination band on a zoned
    store, z_lo > z_hi when the band is empty; None when every row is
    tested."""
    if region is None or not manifest.zone_height_deg:
        return None
    dec_lo, dec_hi = sphere.region_dec_bounds(region)
    z_lo = int(sphere.zone_of(dec_lo, manifest.zone_height_deg))
    z_hi = int(sphere.zone_of(dec_hi, manifest.zone_height_deg))
    return z_lo, (z_hi if dec_lo <= dec_hi else z_lo - 1)


def band_records(path, region):
    """How many records a scan reads: the zone band's, or all."""
    zone_range = reference_zone_range(store.read_manifest(path), region)
    zone = store.read_all(path)["zone"]
    if zone_range is None:
        return len(zone)
    return int(np.count_nonzero((zone >= zone_range[0]) & (zone <= zone_range[1])))


def reference_scan(path, predicate, region=None):
    """The scan oracle: every partition read whole and put in ordinal order,
    its zone band's rows picked by their `zone` field, then the predicate and
    the region tested on those rows; the matches joined partition after
    partition."""
    predicate = store.Predicate(predicate) if isinstance(predicate, str) else predicate
    manifest = store.read_manifest(path)
    zone_range = reference_zone_range(manifest, region)
    parts = []
    for info in manifest.partitions:
        recs = store.read_partition(path, info)
        recs = recs[np.argsort(recs["ordinal"], kind="stable")]
        if region is None:
            parts.append(recs[predicate.mask(recs)])
            continue
        rows = np.arange(len(recs))
        if zone_range is not None:
            z_lo, z_hi = zone_range
            rows = rows[(recs["zone"] >= z_lo) & (recs["zone"] <= z_hi)]
        rows = rows[predicate.mask(recs[rows])]
        unit = sphere.radec_to_unit(recs["ra"][rows], recs["dec"][rows])
        parts.append(recs[rows[region.contains(unit)]])
    return np.concatenate(parts) if parts else np.empty(0, dtype=store.DET_DTYPE)


class TestZoneBandScan:
    """Every scan equals the brute-force mask over `read_all`, byte for byte
    and in (partition, offset) order."""

    @pytest.mark.parametrize("where", ["true", "flux<500 and pass_id<=4"])
    @pytest.mark.parametrize("region", SCAN_REGIONS, ids=str)
    def test_equals_reference_scan(self, indexed_store, region, where):
        region = SCAN_REGIONS[region]
        out, _ = store.scan(indexed_store, where, region=region, workers=2)
        assert out.tobytes() == reference_scan(indexed_store, where, region).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("where", ["true", "false", "flux>300", "flux<500 and pass_id<=4"])
    @pytest.mark.parametrize("region", SCAN_REGIONS, ids=str)
    def test_equals_brute_force(self, indexed_store, region, where, workers):
        region = SCAN_REGIONS[region]
        recs = store.read_all(indexed_store)
        mask = store.Predicate(where).mask(recs)
        if region is not None:
            mask &= region.contains(sphere.radec_to_unit(recs["ra"], recs["dec"]))
        out, stats = store.scan(indexed_store, where, region=region, workers=workers)
        assert out.tobytes() == recs[mask].tobytes()
        assert stats.records_scanned == band_records(indexed_store, region)
        assert stats.bytes_read == stats.records_scanned * store.RECORD_SIZE
        assert stats.records_matched == np.count_nonzero(mask)

    def test_cone_on_a_zone_edge_keeps_the_zone_below(self, indexed_store):
        cone = SCAN_REGIONS["cone-on-zone-edge"]
        assert sphere.region_dec_bounds(cone)[0] < 30.0
        out, _ = store.scan(indexed_store, "true", region=cone)
        assert np.any(out["zone"] == 119) and np.any(out["zone"] == 120)

    def test_empty_band_returns_no_rows(self, indexed_store):
        lo, hi = sphere.region_dec_bounds(SCAN_REGIONS["empty"])
        assert lo > hi
        out, stats = store.scan(indexed_store, "true", region=SCAN_REGIONS["empty"])
        assert len(out) == 0 and stats.records_scanned == stats.bytes_read == 0

    def test_unzoned_store_tests_every_row(self, tmp_path):
        recs = make_records(300)
        store.ingest_detections(recs, 3, tmp_path)
        cone = SCAN_REGIONS["cone"]
        out, _ = store.scan(tmp_path, "flux>300", region=cone, workers=2)
        back = store.read_all(tmp_path)
        mask = (back["flux"] > 300) & cone.contains(sphere.radec_to_unit(back["ra"], back["dec"]))
        assert out.tobytes() == back[mask].tobytes()

    def test_truncated_partition_fails_every_scan(self, small_store):
        path, _ = small_store
        target = path / "part-0003.det"
        target.write_bytes(target.read_bytes()[:-64])
        for where, region in [("true", None), ("flux>300", None),
                              ("true", SCAN_REGIONS["cone"])]:
            with pytest.raises(StoreIOError, match="expected"):
                store.scan(path, where, region=region, workers=2)


def radec_box(ra0, ra1, dec0, dec1):
    """The RA/Dec box [ra0, ra1] x [dec0, dec1] (degrees) as four halfspaces."""
    r0, r1 = np.radians(ra0), np.radians(ra1)
    return _poly([[-np.sin(r0), np.cos(r0), 0], [np.sin(r1), -np.cos(r1), 0], [0, 0, 1],
                  [0, 0, -1]], [0.0, 0.0, np.sin(np.radians(dec0)), -np.sin(np.radians(dec1))])


@st.composite
def scan_regions(draw):
    """None, a cone (at a pole, across RA 0/360, 0.05 arcsec wide or at
    least 90 degrees wide among others) or a polygon (an RA/Dec box, a
    shipped one, or one whose band is empty)."""
    kind = draw(st.sampled_from(["none", "cone", "box", "shipped"]))
    if kind == "none":
        return None
    if kind == "shipped":
        return SCAN_REGIONS[draw(st.sampled_from(["northcap", "wedge", "box", "empty"]))]
    if kind == "box":
        dec0 = draw(st.floats(-90.0, 89.0))
        ra0 = draw(st.floats(0.0, 360.0))
        return radec_box(ra0, ra0 + draw(st.floats(0.01, 180.0)), dec0,
                         min(90.0, dec0 + draw(st.floats(0.001, 60.0))))
    ra = draw(st.one_of(st.sampled_from([0.0, 1e-9, 359.99999999]), st.floats(0.0, 360.0)))
    dec = draw(st.one_of(st.sampled_from([-90.0, -89.99, 0.0, 89.99, 90.0]),
                         st.floats(-90.0, 90.0)))
    radius = draw(st.one_of(st.sampled_from([0.0, 0.05 / 3600, 0.5, 89.999, 90.0, 135.0, 180.0]),
                            st.floats(0.0, 180.0)))
    return sphere.cone_from_radec(ra, dec, radius)


def survey_near(region, n, seed, wrap):
    """n records, half of them spread over the sky and half within twice a
    cone's radius of its centre; with `wrap`, a third of them store their RA
    shifted by a multiple of 360 degrees."""
    recs = make_records(n, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    if isinstance(region, sphere.Cone) and n:
        near = np.arange(n // 2)
        centre = region.center
        east = np.cross([0.0, 0.0, 1.0], centre)
        east = east / np.linalg.norm(east) if np.linalg.norm(east) > 0 else np.array([1.0, 0, 0])
        north = np.cross(centre, east)
        angle = np.minimum(region.radius * rng.uniform(0, 2, len(near)), np.pi)[:, None]
        pa = rng.uniform(0, 2 * np.pi, len(near))[:, None]
        unit = np.cos(angle) * centre + np.sin(angle) * (np.cos(pa) * east + np.sin(pa) * north)
        recs["ra"][near], recs["dec"][near] = sphere.unit_to_radec(unit)
    if wrap:
        shifted = rng.random(n) < 1 / 3
        recs["ra"][shifted] += 360.0 * rng.choice([-1.0, 1.0, 2.0], int(shifted.sum()))
    return recs


def parent_layout_scan(recs, parts, heights, where, region):
    """What a scan returned from a store whose partitions stayed in ingest
    order: round-robin in (zone, det_id) order, the zones of the last
    height set in place, every matching record in file order."""
    ordered = recs[np.lexsort((recs["det_id"], recs["zone"]))]
    if heights:
        ordered["zone"] = sphere.zone_of(ordered["dec"], heights[-1])
    out = []
    for p in range(parts):
        part = ordered[p::parts]
        mask = store.Predicate(where).mask(part)
        if region is not None:
            mask &= region.contains(sphere.radec_to_unit(part["ra"], part["dec"]))
        out.append(part[mask])
    return np.concatenate(out)


class TestScanProperty:
    """On any store, `scan` returns the bytes of `reference_scan`, and with
    `ordinal` zeroed the bytes a store in ingest order gives, while reading
    only the zone band's records."""

    @given(n=st.integers(0, 300), seed=st.integers(0, 2 ** 31),
           parts=st.sampled_from([1, 4, 16, 64]),
           workers=st.sampled_from([1, 2]),
           heights=st.sampled_from([(), (1.0,), (0.01,), (1.0, 0.01), (0.01, 2.5)]),
           region=scan_regions(), where=st.sampled_from(["true", "flux>500"]),
           wrap=st.booleans())
    @settings(deadline=None)
    def test_scan_equals_references(self, n, seed, parts, workers, heights, region, where, wrap):
        recs = survey_near(region, n, seed, wrap)
        with tempfile.TemporaryDirectory() as tmp:
            store.ingest_detections(recs, parts, tmp)
            for height in heights:
                store.build_indexes(tmp, height)
            out, stats = store.scan(tmp, where, region=region, workers=workers)
            assert out.tobytes() == reference_scan(tmp, where, region).tobytes()
            assert stats.records_scanned == band_records(tmp, region)
        out["ordinal"] = 0
        assert out.tobytes() == parent_layout_scan(recs, parts, heights, where, region).tobytes()

    @given(n=st.integers(0, 300), seed=st.integers(0, 2 ** 31),
           parts=st.sampled_from([1, 4, 16, 64]), workers=st.sampled_from([1, 2]),
           heights=st.sampled_from([(1.0,), (0.01,), (0.01, 2.5)]),
           region=scan_regions().filter(lambda r: r is not None),
           where=st.sampled_from(["true", "flux>500"]), cap=st.sampled_from([1, 7, 64]))
    @settings(deadline=None)
    def test_batch_splits_change_nothing(self, n, seed, parts, workers, heights, region, where,
                                         cap):
        """A region scan split into batches of at most `cap` records (a
        larger band alone) returns the bytes and counts of one batch."""
        recs = survey_near(region, n, seed, wrap=False)
        with tempfile.TemporaryDirectory() as tmp:
            store.ingest_detections(recs, parts, tmp)
            for height in heights:
                store.build_indexes(tmp, height)
            want, want_stats = store.scan(tmp, where, region=region, workers=workers)
            with mock.patch.object(store, "_BATCH_ROWS", cap):
                out, stats = store.scan(tmp, where, region=region, workers=workers)
        assert out.tobytes() == want.tobytes()
        assert ((stats.bytes_read, stats.records_scanned, stats.records_matched, stats.workers)
                == (want_stats.bytes_read, want_stats.records_scanned,
                    want_stats.records_matched, want_stats.workers))


class TestBandBatches:
    """A region scan of a zoned store reads its bands in batches of
    consecutive partitions, one array each."""

    WHOLE_SKY = sphere.cone_from_radec(0.0, 0.0, 180.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_many_batches_equal_one(self, indexed_store, workers):
        one, one_stats = store.scan(indexed_store, "true", region=self.WHOLE_SKY)
        manifest = store.read_manifest(indexed_store)
        with mock.patch.object(store, "_BATCH_ROWS", 7):
            assert len(store._band_batches(manifest.partitions, 0, 179)) > 1
            out, stats = store.scan(indexed_store, "true", region=self.WHOLE_SKY, workers=workers)
        assert out.tobytes() == one.tobytes() == store.read_all(indexed_store).tobytes()
        assert stats.records_scanned == one_stats.records_scanned == len(one)

    def test_batches_are_runs_of_partitions_within_the_cap(self, small_store):
        partitions = store.read_manifest(small_store[0]).partitions
        with mock.patch.object(store, "_BATCH_ROWS", partitions[0].records + partitions[1].records):
            batches = store._band_batches(partitions, 0, 179)
        assert [[info.name for info, *_ in b] for b in batches] == [
            ["part-0000.det", "part-0001.det"], ["part-0002.det", "part-0003.det"]]
        with mock.patch.object(store, "_BATCH_ROWS", 1):
            batches = store._band_batches(partitions, 0, 179)
        assert [len(b) for b in batches] == [1, 1, 1, 1]

    def test_one_batch_starts_no_pool(self, small_store, monkeypatch):
        path, _ = small_store
        cone = SCAN_REGIONS["cone"]
        want, _ = store.scan(path, "flux>300", region=cone)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")
        monkeypatch.setattr(store, "ThreadPoolExecutor", no_pool)
        out, stats = store.scan(path, "flux>300", region=cone, workers=2)
        assert out.tobytes() == want.tobytes() and stats.workers == 2
        # several batches do go to the pool
        monkeypatch.setattr(store, "_BATCH_ROWS", 1)
        with pytest.raises(AssertionError, match="thread pool"):
            store.scan(path, "flux>300", region=cone, workers=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zone_counts_that_disagree_inside_a_batch_exit_3(self, capsys, small_store, workers):
        """Counts of partition 2 that still sum to its records but put the
        band's byte range one record early, in the middle of one batch."""
        path, _ = small_store
        TestDamagedManifest.damage(path, lambda d: d["partitions"][2].update(
            zone_counts=[d["partitions"][2]["zone_counts"][0] - 1,
                         *d["partitions"][2]["zone_counts"][1:-1],
                         d["partitions"][2]["zone_counts"][-1] + 1]))
        assert len(store._band_batches(store.read_manifest(path).partitions, 100, 140)) == 1
        code = cli.run(["query", "--store", str(path), "--cone", "100d,30d,20d",
                        "--workers", str(workers)])
        out, err = capsys.readouterr()
        assert code == EXIT_IO and out == ""
        assert "part-0002.det: records outside zones" in err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_truncated_partition_inside_a_batch_fails(self, small_store, workers):
        path, _ = small_store
        target = path / "part-0003.det"
        target.write_bytes(target.read_bytes()[:-64])
        with pytest.raises(StoreIOError, match="part-0003.det: expected 125 records"):
            store.scan(path, "true", region=SCAN_REGIONS["cone"], workers=workers)


class TestMaster:
    def test_static_objects_collapse_exactly(self, tmp_path, read_labels):
        cfg = skygen.SurveyConfig(n_objects=200, passes=10, seed=5,
                                  position_noise_arcsec=0.1)
        truth, det, labels, _ = skygen.write_survey(cfg, tmp_path)
        store.build_indexes(tmp_path, 1.0)
        masters, assignment = store.build_master(tmp_path, 1.0)
        assert len(masters) == 200
        assert np.all(masters["n_detections"] == 10)
        # every master groups detections of exactly one truth object
        recs = store.read_all(tmp_path)
        table = read_labels(tmp_path)
        for mid in masters["master_id"]:
            tids = {table[int(d)] for d in recs["det_id"][recs["master_id"] == mid]}
            assert len(tids) == 1

    def test_master_positions_near_truth(self, tmp_path):
        cfg = skygen.SurveyConfig(n_objects=100, passes=20, seed=6,
                                  position_noise_arcsec=0.2)
        truth, _, _, _ = skygen.write_survey(cfg, tmp_path)
        masters, _ = store.build_master(tmp_path, 2.0)
        t_unit = sphere.radec_to_unit(truth["ra"], truth["dec"])
        m_unit = sphere.radec_to_unit(masters["ra"], masters["dec"])
        for v in m_unit:
            row = int(np.argmax(t_unit @ v))
            # averaged position beats single-epoch noise
            assert float(sphere.angle_between(v, t_unit[row])) < np.radians(0.2 / 3600)

    def test_flux_statistics(self, tmp_path):
        recs = make_records(1)
        recs = np.concatenate([recs] * 4)
        recs["det_id"] = [1, 2, 3, 4]
        recs["mjd"] = [59000.0, 59001.0, 59002.0, 59003.0]
        recs["pass_id"] = [0, 1, 2, 3]
        recs["flux"] = [10.0, 20.0, 30.0, 40.0]
        store.ingest_detections(recs, 2, tmp_path)
        masters, _ = store.build_master(tmp_path, 1.0)
        assert len(masters) == 1
        m = masters[0]
        assert m["mean_flux"] == pytest.approx(25.0)
        assert m["flux_variance"] == pytest.approx(125.0)
        assert (m["first_mjd"], m["last_mjd"]) == (59000.0, 59003.0)

    def test_distinct_objects_stay_separate(self, tmp_path):
        recs = make_records(2)
        recs["ra"] = [10.0, 10.1]
        recs["dec"] = [0.0, 0.0]
        store.ingest_detections(recs, 1, tmp_path)
        masters, _ = store.build_master(tmp_path, 1.0)
        assert len(masters) == 2

    def test_masters_csv_round_trip(self, tmp_path):
        store.ingest_detections(make_records(50), 2, tmp_path)
        masters, _ = store.build_master(tmp_path, 1.0)
        back = store.read_masters(tmp_path)
        assert np.array_equal(back["master_id"], masters["master_id"])
        assert np.allclose(back["mean_flux"], masters["mean_flux"], atol=1e-6)

    def test_rejects_bad_radius(self, small_store):
        with pytest.raises(ValidationError):
            store.build_master(small_store[0], 0.0)

    def test_missing_masters_table(self, small_store):
        with pytest.raises(StoreIOError, match="master"):
            store.read_masters(small_store[0])


class TestCorruptMasters:
    """A damaged masters.csv is an I/O error naming the file and the row,
    for `read_masters` and for every command that reads it."""

    COMMANDS = [["neighbors"], ["trigger", "--stream", "{store}"], ["movers"],
                ["corr", "--seed", "1", "--randoms", "10"], ["em", "--seed", "1"]]

    @pytest.fixture
    def mastered(self, tmp_path):
        store.ingest_detections(make_records(50), 2, tmp_path)
        store.build_master(tmp_path, 1.0)
        return tmp_path

    def corrupt(self, path, field, value):
        lines = (path / "masters.csv").read_text().splitlines()
        if field is None:
            lines[2] = value
        else:
            vals = lines[2].split(",")
            vals[store.MASTER_DTYPE.names.index(field)] = value
            lines[2] = ",".join(vals)
        (path / "masters.csv").write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("field,value,message", [
        ("ra", "abc", "record 1: ra 'abc' is not a number"),
        (None, "7,abc,1.0", "record 1: wrong column count"),
        ("master_id", str(2 ** 64), f"record 1: master_id '{2 ** 64}' is not an integer"),
        ("master_id", "-1", "record 1: master_id '-1' is not an integer"),
        ("n_detections", str(2 ** 32), "record 1: n_detections"),
    ])
    def test_read_masters_names_file_and_row(self, mastered, field, value, message):
        self.corrupt(mastered, field, value)
        with pytest.raises(StoreIOError, match="masters.csv") as info:
            store.read_masters(mastered)
        assert message in str(info.value)

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_commands_exit_3(self, capsys, mastered, command):
        self.corrupt(mastered, None, "7,abc,1.0")
        argv = [a.format(store=mastered) for a in command]
        code = cli.run([argv[0], "--store", str(mastered), *argv[1:]])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert "masters.csv: record 1: wrong column count" in err
        assert "Traceback" not in err

    def test_wrong_header(self, mastered):
        (mastered / "masters.csv").write_text("id,ra\n1,2\n")
        with pytest.raises(StoreIOError, match="expected header master_id,ra,dec"):
            store.read_masters(mastered)

    def test_header_only_is_empty(self, mastered):
        text = (mastered / "masters.csv").read_text()
        (mastered / "masters.csv").write_text(text.splitlines()[0] + "\n")
        assert len(store.read_masters(mastered)) == 0


class TestDamagedManifest:
    """A manifest that is damaged, from another schema or inconsistent with
    itself makes every command exit 3, naming manifest.json."""

    CASES = {  # a change to the manifest's JSON object, and the message
        "truncated": (None, "not valid JSON"),
        "unknown key": (lambda d: d.update(extra=1), "unknown key 'extra'"),
        "missing crc32": (lambda d: d["partitions"][1].pop("crc32"),
                          "partition 1: missing key 'crc32'"),
        "schema 1": (lambda d: d.update(schema_version=1), "schema version 1, expected 3"),
        "schema 2": (lambda d: d.update(schema_version=2), "schema version 2, expected 3"),
        "record size 32": (lambda d: d.update(record_size=32), "record_size 32, expected 64"),
        "wrong total": (lambda d: d.update(total_records=499), "total_records 499"),
        "zone counts": (lambda d: d["partitions"][0]["zone_counts"].append(1),
                        "partition 0: zone_counts sum to"),
        "negative records": (lambda d: d["partitions"][2].update(records=-1),
                             "partition 2: records -1 is not a non-negative integer"),
        "text crc32": (lambda d: d["partitions"][0].update(crc32="7"),
                       "partition 0: crc32 '7'"),
        "path as name": (lambda d: d["partitions"][0].update(name="../part-0000.det"),
                         "partition 0: bad file name"),
        "one file twice": (lambda d: d["partitions"][1].update(name="part-0000.det"),
                           "two partitions name one file"),
        "not an object": (lambda d: d.update(partitions=d["partitions"][:3] + [[]]),
                          "partition 3 is not a JSON object"),
    }

    @staticmethod
    def damage(path, change):
        manifest = path / "manifest.json"
        text = manifest.read_text()
        if change is None:
            text = text[:len(text) // 2]
        else:
            d = json.loads(text)
            change(d)
            text = json.dumps(d)
        manifest.write_text(text)

    @pytest.mark.parametrize("case", CASES)
    def test_query_exits_3(self, capsys, small_store, case):
        path, _ = small_store
        change, message = self.CASES[case]
        self.damage(path, change)
        code = cli.run(["query", "--store", str(path)])
        out, err = capsys.readouterr()
        assert code == EXIT_IO
        assert "manifest.json: " + message in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("ordinal", [0, 500])
    def test_bad_ordinals_fail_whole_partition_reads(self, small_store, ordinal):
        """A repeated or out-of-range ordinal would leave a row of the
        ordinal order unfilled."""
        path, _ = small_store
        target = path / "part-0001.det"
        recs = np.fromfile(target, dtype=store.DET_DTYPE)
        recs["ordinal"][recs["ordinal"] == 1] = ordinal
        recs.tofile(target)
        with pytest.raises(StoreIOError, match="part-0001.det: record ordinals are not 0..124"):
            store.read_all(path)
        with pytest.raises(StoreIOError, match="record ordinals"):
            store.build_indexes(path, 2.0)

    def test_v2_manifest_exits_3(self, capsys, small_store):
        """A schema 2 store's partitions are not in zone order, so its
        manifest, as that schema wrote it, is refused."""
        path, _ = small_store
        d = json.loads((path / "manifest.json").read_text())
        d.update(schema_version=2, load_rate_bytes_per_s=1e8, index_overhead_fraction=0.01)
        (path / "manifest.json").write_text(json.dumps(d, indent=2))
        assert cli.run(["query", "--store", str(path), "--cone", "10d,20d,5d"]) == EXIT_IO
        assert "manifest.json: schema version 2, expected 3" in capsys.readouterr().err

    def test_zone_counts_that_disagree_with_the_records_exit_3(self, capsys, small_store):
        """Counts that still sum to the records but put the band's byte range
        one record early: the range then holds a record of a lower zone."""
        path, _ = small_store
        self.damage(path, lambda d: d["partitions"][0].update(
            zone_counts=[d["partitions"][0]["zone_counts"][0] - 1,
                         *d["partitions"][0]["zone_counts"][1:-1],
                         d["partitions"][0]["zone_counts"][-1] + 1]))
        northcap = Path(__file__).parents[1] / "queries" / "northcap.poly"
        code = cli.run(["query", "--store", str(path), "--polygon", str(northcap)])
        out, err = capsys.readouterr()
        assert code == EXIT_IO and out == ""
        assert "part-0000.det: records outside zones 119..179" in err

    def test_zone_counts_that_shorten_a_range_exit_3(self, capsys, small_store):
        """Counts that still sum to the records but move one record of
        partition 0 from zone 100 to zone 121: the range of the zones of
        [-30, 30] deg (59..120) then ends one record early, and every record
        inside it is of its zones. The record after it is too, which gives
        the fault away; it is not dropped from the result."""
        path, _ = small_store
        band = sphere.ConvexPolygon([[0, 0, 1], [0, 0, -1]], [-0.5, -0.5])
        assert len(store.scan(path, "true", band)[0]) == 253

        def shorten(d):
            part = d["partitions"][0]
            counts = part["zone_counts"]
            assert counts[100 - part["zone_first"]] > 0
            counts[100 - part["zone_first"]] -= 1
            counts[121 - part["zone_first"]] += 1
        self.damage(path, shorten)
        with pytest.raises(StoreIOError, match="part-0000.det: records outside zones 59..120"):
            store.scan(path, "true", band)
        (path.parent / "band.poly").write_text("0 0 1 -0.5\n0 0 -1 -0.5\n")
        code = cli.run(["query", "--store", str(path), "--polygon", str(path.parent / "band.poly")])
        out, err = capsys.readouterr()
        assert code == EXIT_IO and out == ""
        assert "next to it; the manifest does not match the partition" in err

    def test_unzoned_store_carries_no_zone_counts(self, tmp_path):
        store.ingest_detections(make_records(10), 2, tmp_path)
        self.damage(tmp_path, lambda d: d["partitions"][0].update(zone_counts=[5]))
        with pytest.raises(StoreIOError, match="zone_counts on a store without zones"):
            store.read_manifest(tmp_path)

    @pytest.mark.parametrize("command", ["index", "master", "lc"])
    def test_other_commands_exit_3(self, capsys, small_store, command):
        path, _ = small_store
        before = (path / "part-0000.det").read_bytes()
        self.damage(path, lambda d: d.update(record_size=32))
        assert cli.run([command, "--store", str(path)]) == EXIT_IO
        assert "manifest.json: record_size 32" in capsys.readouterr().err
        assert (path / "part-0000.det").read_bytes() == before


class _HalfWrite:
    """A file whose write() stores the first half of the bytes, then fails."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def _files(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestCrashSafeRewrites:
    @pytest.mark.parametrize("rewrite", [
        lambda path: store.build_indexes(path, 2.0),
        lambda path: store.build_master(path, 2.0),
    ], ids=["index", "master"])
    def test_failed_second_partition_leaves_a_consistent_store(
            self, tmp_path, monkeypatch, rewrite):
        cfg = skygen.SurveyConfig(n_objects=60, passes=6, seed=9,
                                  position_noise_arcsec=0.5)
        path = tmp_path / "store"
        skygen.write_survey(cfg, path, partition_count=4)
        store.build_indexes(path, 1.0)
        store.build_master(path, 1.0)
        old = _files(path)
        shutil.copytree(path, tmp_path / "done")
        rewrite(tmp_path / "done")
        new = _files(tmp_path / "done")
        assert new["part-0001.det"] != old["part-0001.det"]

        real_open = open

        def failing_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return _HalfWrite(f) if Path(file).name == ".part-0001.det.tmp" else f

        monkeypatch.setattr(store, "open", failing_open, raising=False)
        with pytest.raises(StoreIOError, match="part-0001.det"):
            rewrite(path)
        after = _files(path)
        assert sorted(after) == sorted(old)  # no temp file left behind
        for name, data in after.items():
            assert data in (old[name], new[name]), name
        for info in store.read_manifest(path).partitions:
            data = (path / info.name).read_bytes()
            assert len(data) == info.records * store.RECORD_SIZE
            assert zlib.crc32(data) == info.crc32

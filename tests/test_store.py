import json
import os
import shutil
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skymine import cli, skygen, sphere, store
from skymine.errors import EXIT_IO, StoreIOError, ValidationError


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
        # same multiset of records, compared bitwise after id sort
        a = np.sort(recs, order="det_id")
        b = np.sort(back, order="det_id")
        assert a.tobytes() == b.tobytes()

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

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(store, "open", lambda *a, **k: Wrapped(real_open(*a, **k)),
                            raising=False)

    def test_partial_reads_are_continued(self, small_store, monkeypatch):
        """A readinto() that fills less than asked, as read() does past 2 GiB
        on Linux, is called again until the partition is complete."""
        path, _ = small_store
        want = store.read_all(path)
        want_scan, _ = store.scan(path, "flux>300")
        chunk = 3 * store.RECORD_SIZE + 5
        self._open_with(monkeypatch, lambda f, buf: f.readinto(memoryview(buf)[:chunk]))
        assert store.read_all(path).tobytes() == want.tobytes()
        assert store.scan(path, "flux>300")[0].tobytes() == want_scan.tobytes()

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
        assert manifest.index_overhead_fraction > 0

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


class TestZoneBandScan:
    """Every scan equals the brute-force mask over `read_all`, byte for byte
    and in (partition, offset) order."""

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
        assert stats.records_scanned == len(recs)
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
        assert len(out) == 0 and stats.records_scanned > 0

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
        "schema 1": (lambda d: d.update(schema_version=1), "schema version 1, expected 2"),
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

"""Detection records move as whole 64-byte rows: gathers use `take`, and joins
and strided copies go through `V64` views. Every test here checks the bytes
against numpy's field-by-field indexing of the same records (`recs[mask]`,
`recs[order]`, `np.concatenate` of the structured parts), kept as the
oracle; the records carry random `ordinal` bytes and extreme ids, so a copy
that dropped or moved any byte of a row would show."""

from pathlib import Path

import numpy as np
import pytest

from skymine import skygen, sphere, store, timedomain

U64_MAX = np.iinfo(np.uint64).max
U32_MAX = np.iinfo(np.uint32).max


def wild_records(n, seed=0):
    """n valid records whose every field, `ordinal` included, is filled, with
    det_ids and master_ids at the ends of the uint64 range."""
    rng = np.random.Generator(np.random.PCG64(seed))
    recs = np.zeros(n, dtype=store.DET_DTYPE)
    ids = rng.choice(np.array([0, 1, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, U64_MAX - 1, U64_MAX],
                              dtype=np.uint64), size=min(n, 7), replace=False)
    recs["det_id"] = np.concatenate([ids, 10 ** 6 + rng.permutation(n - len(ids))
                                     .astype(np.uint64)])
    recs["pass_id"] = rng.integers(0, 6, n)
    recs["mjd"] = 59000.0 + recs["pass_id"] + rng.uniform(0, 0.1, n)
    recs["ra"] = rng.uniform(0, 360, n)
    recs["dec"] = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    recs["flux"] = rng.uniform(-50, 1000, n)
    recs["flux_err"] = rng.uniform(0.5, 5, n)
    recs["flags"] = rng.choice(np.array([0, 1, U32_MAX], dtype=np.uint32), n)
    recs["zone"] = rng.integers(0, 180, n)
    recs["master_id"] = rng.choice(np.array([0, 1, 2, 2 ** 63, U64_MAX], dtype=np.uint64), n)
    recs["ordinal"] = rng.integers(1, U32_MAX, n, endpoint=True)
    return recs


def fielded_concatenate(parts):
    """The oracle join: numpy's structured concatenation."""
    return np.concatenate(parts) if parts else np.empty(0, dtype=store.DET_DTYPE)


class TestJoinRecords:
    @pytest.mark.parametrize("sizes", [[], [0], [0, 0], [5], [3, 0, 7, 1], [0, 9, 0]])
    def test_equals_structured_concatenate(self, sizes):
        recs = wild_records(sum(sizes) + 1, seed=len(sizes))
        ends = np.cumsum([0] + sizes)
        parts = [recs[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])]
        got = store.join_records(parts)
        assert got.dtype == store.DET_DTYPE
        assert got.tobytes() == fielded_concatenate(parts).tobytes()

    def test_takes_strided_and_gathered_parts(self):
        recs = wild_records(60, seed=3)
        parts = [recs[::3], recs.take([5, 1, 1, 40]), recs[59:10:-7]]
        assert store.join_records(parts).tobytes() == fielded_concatenate(parts).tobytes()


@pytest.fixture(scope="module")
def wild_stores(tmp_path_factory):
    """The same 400 wild records in three stores: zoned in 4 partitions,
    zoned in 64 partitions with some empty, and unzoned in 3 partitions
    (every row tested against a region); plus an empty zoned store."""
    recs = wild_records(400)
    root = tmp_path_factory.mktemp("rowmove")
    paths = {}
    for name, parts, zoned in [("zoned", 4, True), ("sparse", 64, True),
                               ("unzoned", 3, False)]:
        source = recs[:40] if name == "sparse" else recs
        paths[name] = root / name
        store.ingest_detections(source, parts, paths[name])
        if zoned:
            store.build_indexes(paths[name], 1.0)
    paths["empty"] = root / "empty"
    store.ingest_detections(recs[:0], 2, paths["empty"])
    store.build_indexes(paths["empty"], 1.0)
    return paths


ROW_REGIONS = {
    "none": None,
    "cone": sphere.cone_from_radec(100.0, 30.0, 50.0),
    "all-sky-cone": sphere.Cone(np.array([0.0, 0.0, 1.0]), np.pi),
    "polygon": sphere.load_polygon(Path(__file__).parents[1] / "queries" / "wedge.poly"),
}
ROW_PREDICATES = ["true", "false", "flux>300", "det_id>=9223372036854775808",
                  f"master_id=={U64_MAX} and flags=={U32_MAX}"]


class TestScanRows:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("where", ROW_PREDICATES)
    @pytest.mark.parametrize("region", ROW_REGIONS)
    @pytest.mark.parametrize("kind", ["zoned", "sparse", "unzoned", "empty"])
    def test_equals_fielded_mask(self, wild_stores, kind, region, where, workers):
        path, region = wild_stores[kind], ROW_REGIONS[region]
        recs = store.read_all(path)
        mask = store.Predicate(where).mask(recs)
        if region is not None:
            mask &= region.contains(sphere.radec_to_unit(recs["ra"], recs["dec"]))
        out, stats = store.scan(path, where, region=region, workers=workers)
        assert out.dtype == store.DET_DTYPE
        assert out.tobytes() == recs[mask].tobytes()
        assert stats.records_matched == np.count_nonzero(mask)

    def test_stores_keep_every_byte(self, wild_stores):
        """Every field but `ordinal` as given; `ordinal` numbers each
        partition's records, which `read_all` returns in that order."""
        path = wild_stores["zoned"]
        recs = store.read_all(path)
        sizes = [p.records for p in store.read_manifest(path).partitions]
        assert recs["ordinal"].tolist() == [i for n in sizes for i in range(n)]
        assert {0, U64_MAX} <= set(recs["det_id"].tolist())
        assert U64_MAX in set(recs["master_id"].tolist())

    @pytest.mark.parametrize("where", ["true", "flux>-1e9"])
    def test_scans_keeping_all_rows(self, wild_stores, where):
        path = wild_stores["zoned"]
        out, _ = store.scan(path, where, region=ROW_REGIONS["all-sky-cone"], workers=2)
        assert out.tobytes() == store.read_all(path).tobytes()

    @pytest.mark.parametrize("region", ROW_REGIONS)
    def test_scans_keeping_no_rows(self, wild_stores, region):
        """A scan reads every record, or with a region only its zone band's."""
        path, region = wild_stores["sparse"], ROW_REGIONS[region]
        out, stats = store.scan(path, "false", region=region)
        assert len(out) == 0 and out.dtype == store.DET_DTYPE
        band = store.read_all(path)["zone"]
        if region is not None:
            lo, hi = sphere.zone_of(sphere.region_dec_bounds(region), 1.0)
            band = band[(band >= lo) & (band <= hi)]
        assert stats.records_scanned == len(band) > 0


class TestIngestRows:
    @pytest.mark.parametrize("partitions", [1, 3, 7, 64])
    @pytest.mark.parametrize("layout", ["array", "strided", "recarray"])
    def test_partition_files_equal_fielded_copies(self, tmp_path, partitions, layout):
        recs = wild_records(300, seed=partitions)
        spaced = np.zeros(2 * len(recs), dtype=store.DET_DTYPE)
        spaced[::2] = recs
        given = {"array": recs, "strided": spaced[::2], "recarray": np.rec.array(recs)}[layout]
        manifest = store.ingest_detections(given, partitions, tmp_path)
        ordered = recs[np.lexsort((recs["det_id"], recs["zone"]))]
        for p, info in enumerate(manifest.partitions):
            want = ordered[p::partitions]
            want["ordinal"] = np.arange(len(want))
            want = want.tobytes()
            assert (tmp_path / info.name).read_bytes() == want
            assert info.records == len(want) // store.RECORD_SIZE

    def test_empty_input(self, tmp_path):
        manifest = store.ingest_detections(wild_records(0), 3, tmp_path)
        assert [(tmp_path / p.name).read_bytes() for p in manifest.partitions] == [b""] * 3


class TestChainRows:
    @pytest.mark.parametrize("n", [0, 1, 250])
    def test_group_chains_equals_fielded_sort(self, n):
        recs = wild_records(n, seed=n)
        got, starts = timedomain.group_chains(recs)
        want = recs[np.lexsort((recs["mjd"], recs["master_id"]))]
        assert got.tobytes() == want.tobytes()
        assert starts.tolist() == np.unique(want["master_id"], return_index=True)[1].tolist()


SURVEYS = {
    **{f"seed-{seed}": skygen.SurveyConfig(
        n_objects=150, passes=8, seed=seed, periodic_fraction=0.1, transient_fraction=0.3,
        mover_fraction=0.1, position_noise_arcsec=0.05) for seed in (0, 1, 2)},
    # bursts only, so most passes emit nothing
    "empty-passes": skygen.SurveyConfig(n_objects=3, passes=30, seed=1, transient_fraction=1.0),
    "no-objects": skygen.SurveyConfig(n_objects=0, passes=3, seed=0),
}


class TestSurveyRows:
    @pytest.mark.parametrize("survey", SURVEYS)
    def test_generate_survey_equals_fielded_join(self, survey, monkeypatch):
        cfg = SURVEYS[survey]
        truth, detections, labels = skygen.generate_survey(cfg)
        monkeypatch.setattr(skygen, "join_records", fielded_concatenate)
        want_truth, want, want_labels = skygen.generate_survey(cfg)
        assert detections.dtype == store.DET_DTYPE
        assert detections.tobytes() == want.tobytes()
        assert np.array_equal(labels, want_labels) and truth.tobytes() == want_truth.tobytes()

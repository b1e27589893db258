import json

import numpy as np
import pytest

from skymine import cli, store
from skymine.errors import EXIT_IO, EXIT_OK, EXIT_VALIDATION


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def survey_store(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "survey"
    code = cli.run(["gen", "--objects", "80", "--passes", "8", "--seed", "17",
                    "--periodic-frac", "0.1", "--mover-frac", "0.05",
                    "--pos-noise", "0.1s", "--out", str(out)])
    assert code == EXIT_OK
    assert cli.run(["index", "--store", str(out)]) == EXIT_OK
    assert cli.run(["master", "--store", str(out), "--radius", "1s"]) == EXIT_OK
    return out


class TestDispatch:
    def test_help_lists_every_subcommand(self, capsys):
        code, out, _ = run(capsys, "--help")
        for name in ("plan", "gen", "ingest", "index", "master", "query",
                     "neighbors", "lc", "classify", "trigger", "movers",
                     "corr", "em", "bench20"):
            assert name in out
        assert code == EXIT_OK

    def test_plan_help_lists_subcommands(self, capsys):
        code, out, _ = run(capsys, "plan", "--help")
        for name in ("acquisition", "pipeline", "storage", "scan", "transfer",
                     "load", "timeline"):
            assert name in out
        assert code == EXIT_OK

    def test_unknown_command_is_validation_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_VALIDATION

    def test_missing_store_is_validation_error(self, capsys):
        code, _, _ = run(capsys, "query", "--store", "/does/not/exist")
        assert code == EXIT_VALIDATION

    def test_missing_masters_is_io_error(self, capsys, tmp_path):
        out = tmp_path / "s"
        assert cli.run(["gen", "--objects", "5", "--passes", "2", "--seed", "1",
                        "--out", str(out)]) == EXIT_OK
        code, _, err = run(capsys, "neighbors", "--store", str(out))
        assert code == EXIT_IO
        assert "master" in err


class TestPlanCommands:
    def test_scan_golden_hours(self, capsys):
        code, out, _ = run(capsys, "plan", "scan", "--db", "120TB",
                           "--disks", "30", "--disk-rate", "150MB/s",
                           "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["scan_hours"] == pytest.approx(7.4, rel=0.02)
        assert data["servers_needed"] == 1

    def test_pipeline_today(self, capsys):
        code, out, _ = run(capsys, "plan", "pipeline", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["cpus"] == 284

    def test_transfer_units_parse(self, capsys):
        code, out, _ = run(capsys, "plan", "transfer", "--total", "165TB",
                           "--link-rate", "155Mbit/s", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["network_days"] == pytest.approx(191.0, rel=0.1)

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "plan", "storage", "--format", "table")
        assert code == EXIT_OK
        assert "catalog_bytes" in out

    def test_csv_default(self, capsys):
        code, out, _ = run(capsys, "plan", "timeline", "--year", "4")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "key,value"

    def test_bad_unit_suffix(self, capsys):
        code, _, err = run(capsys, "plan", "scan", "--db", "120TBx")
        assert code == EXIT_VALIDATION


class TestLifecycle:
    def test_gen_zero_objects(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--objects", "0", "--passes", "1",
                           "--seed", "0", "--out", str(tmp_path / "empty"))
        assert code == EXIT_OK
        assert "objects=0" in err

    def test_gen_bad_fraction(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gen", "--objects", "10", "--passes", "1",
                         "--seed", "0", "--periodic-frac", "0.9",
                         "--mover-frac", "0.9", "--out", str(tmp_path / "x"))
        assert code == EXIT_VALIDATION

    def test_ingest_round_trip(self, capsys, tmp_path, survey_store):
        code, out, _ = run(capsys, "query", "--store", str(survey_store))
        csv_path = tmp_path / "dets.csv"
        csv_path.write_text("\n".join(
            ln for ln in out.splitlines() if not ln.startswith("scanned")) + "\n")
        out_dir = tmp_path / "reingested"
        code, _, err = run(capsys, "ingest", "--input", str(csv_path),
                           "--out", str(out_dir))
        assert code == EXIT_OK
        orig = np.sort(store.read_all(survey_store), order="det_id")
        back = np.sort(store.read_all(out_dir), order="det_id")
        assert np.array_equal(orig["det_id"], back["det_id"])
        assert np.allclose(orig["flux"], back["flux"], rtol=1e-5)

    def test_ingest_bad_header(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        code, _, err = run(capsys, "ingest", "--input", str(bad),
                           "--out", str(tmp_path / "o"))
        assert code == EXIT_VALIDATION


HEADER = ",".join(store.FIELD_NAMES)
GOOD_ROW = "7,3,59003.5,10.000000001,-20.5,123.25,1.5,0,0,0"


def ingest_rows(capsys, tmp_path, rows):
    path = tmp_path / "in.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    return run(capsys, "ingest", "--input", str(path), "--partitions", "2",
               "--out", str(tmp_path / "store"))


class TestExactIngest:
    def test_integers_above_2_53_round_trip(self, capsys, tmp_path):
        ids = [2 ** 53 + 1, 2 ** 64 - 1, 2 ** 53]
        rows = [f"{i},{k},5900{k}.0,1{k}.5,0.5,10.0,1.0,{2 ** 32 - 1},0,{i}"
                for k, i in enumerate(ids)]
        code, _, _ = ingest_rows(capsys, tmp_path, rows)
        assert code == EXIT_OK
        back = np.sort(store.read_all(tmp_path / "store"), order="det_id")
        assert back["det_id"].tolist() == sorted(ids)
        assert back["master_id"].tolist() == sorted(ids)
        assert back["flags"].tolist() == [2 ** 32 - 1] * 3

    def test_neighbors_prints_unsigned_det_ids(self, capsys, tmp_path):
        rows = [f"{2 ** 64 - 1},0,59000.0,10.0,0.0,10.0,1.0,0,0,0",
                "5,1,59001.0,10.0001,0.0,10.0,1.0,0,0,0"]
        assert ingest_rows(capsys, tmp_path, rows)[0] == EXIT_OK
        code, out, _ = run(capsys, "neighbors", "--store", str(tmp_path / "store"),
                           "--theta", "1s", "--use-detections")
        assert code == EXIT_OK
        assert out.splitlines() == ["id_a,id_b,separation_arcsec",
                                    "5,18446744073709551615,0.360000",
                                    "18446744073709551615,5,0.360000"]

    @pytest.mark.parametrize("where,want", [
        ("det_id==9007199254740993", [2 ** 53 + 1]),
        ("det_id>9007199254740992", [2 ** 53 + 1, 2 ** 64 - 1]),
        ("det_id<=9007199254740992", [2 ** 53]),
        ("det_id>9007199254740992 AND pass_id>0", [2 ** 64 - 1]),
        ("master_id==18446744073709551615 and flags==4294967295", [2 ** 64 - 1]),
        ("det_id!=9007199254740993 And pass_id<2", [2 ** 64 - 1]),
    ])
    def test_where_compares_integers_exactly(self, capsys, tmp_path, where, want):
        ids = [2 ** 53 + 1, 2 ** 64 - 1, 2 ** 53]
        rows = [f"{i},{k},5900{k}.0,1{k}.5,0.5,10.0,1.0,{2 ** 32 - 1},0,{i}"
                for k, i in enumerate(ids)]
        assert ingest_rows(capsys, tmp_path, rows)[0] == EXIT_OK
        code, out, _ = run(capsys, "query", "--store", str(tmp_path / "store"),
                           "--where", where)
        assert code == EXIT_OK
        assert sorted(int(ln.split(",")[0]) for ln in out.splitlines()[1:]) == want

    def test_floats_cast_as_before(self, capsys, tmp_path):
        code, _, _ = ingest_rows(capsys, tmp_path, [GOOD_ROW])
        assert code == EXIT_OK
        rec = store.read_all(tmp_path / "store")[0]
        assert rec["ra"] == float("10.000000001")
        assert rec["flux"] == np.float32(float("123.25"))
        assert rec["flux_err"] == np.float32(1.5)

    @pytest.mark.parametrize("field,value", [
        ("det_id", "1.5"), ("det_id", "-1"), ("det_id", str(2 ** 64)),
        ("pass_id", str(2 ** 32)), ("flags", "1e3"), ("master_id", ""),
    ])
    def test_bad_integer_names_the_record(self, capsys, tmp_path, field, value):
        vals = GOOD_ROW.split(",")
        vals[store.FIELD_NAMES.index(field)] = value
        rows = [GOOD_ROW.replace("7,", "8,", 1), ",".join(vals)]
        code, out, err = ingest_rows(capsys, tmp_path, rows)
        assert code == EXIT_VALIDATION
        assert f"record 1: {field} '{value}' is not an integer" in err
        assert not (tmp_path / "store").exists()

    def test_bad_float_names_the_record(self, capsys, tmp_path):
        rows = [GOOD_ROW, GOOD_ROW.replace("7,", "8,", 1).replace("123.25", "abc")]
        code, _, err = ingest_rows(capsys, tmp_path, rows)
        assert code == EXIT_VALIDATION
        assert "record 1: flux 'abc' is not a number" in err

    @pytest.mark.parametrize("field,value", [("flux", "1e40"), ("flux_err", "-3.5e38")])
    def test_float32_overflow_names_the_record(self, capsys, tmp_path, field, value):
        vals = GOOD_ROW.split(",")
        vals[store.FIELD_NAMES.index(field)] = value
        rows = [GOOD_ROW.replace("7,", "8,", 1), ",".join(vals)]
        code, _, err = ingest_rows(capsys, tmp_path, rows)
        assert code == EXIT_VALIDATION
        assert f"record 1: {field} '{value}' is not a number in float32 range" in err
        assert "overflow" not in err
        assert not (tmp_path / "store").exists()

    def test_literal_inf_flux_is_kept(self, capsys, tmp_path):
        rows = [GOOD_ROW.replace("123.25", "inf"), GOOD_ROW.replace("7,", "8,", 1)
                .replace("123.25", "-Infinity")]
        assert ingest_rows(capsys, tmp_path, rows)[0] == EXIT_OK
        back = np.sort(store.read_all(tmp_path / "store"), order="det_id")
        assert back["flux"].tolist() == [np.inf, -np.inf]

    def test_wrong_column_count(self, capsys, tmp_path):
        code, _, err = ingest_rows(capsys, tmp_path, [GOOD_ROW, "8,1,2"])
        assert code == EXIT_VALIDATION
        assert "record 1: wrong column count" in err

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run(capsys, "ingest", "--input", str(path), "--out",
                           str(tmp_path / "store"))
        assert code == EXIT_VALIDATION
        assert "expected header" in err


class TestQueries:
    def test_worker_counts_agree(self, capsys, survey_store):
        _, out1, _ = run(capsys, "query", "--store", str(survey_store),
                         "--where", "flux>300", "--workers", "1")
        _, out4, _ = run(capsys, "query", "--store", str(survey_store),
                         "--where", "flux>300", "--workers", "4")
        assert out1 == out4

    def test_cone_query(self, capsys, survey_store):
        code, out, err = run(capsys, "query", "--store", str(survey_store),
                             "--cone", "180d,0d,90d")
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("det_id,")
        assert "matched=" in err

    def test_cone_and_polygon_conflict(self, capsys, survey_store, tmp_path):
        poly = tmp_path / "p.poly"
        poly.write_text("0 0 1 0\n")
        code, _, _ = run(capsys, "query", "--store", str(survey_store),
                         "--cone", "0d,0d,1d", "--polygon", str(poly))
        assert code == EXIT_VALIDATION

    def test_polygon_query_matches_predicate(self, capsys, survey_store, tmp_path):
        poly = tmp_path / "north.poly"
        poly.write_text("0 0 1 0\n")  # dec >= 0
        _, out, _ = run(capsys, "query", "--store", str(survey_store),
                        "--polygon", str(poly))
        got = {ln.split(",")[0] for ln in out.splitlines()[1:]}
        recs = store.read_all(survey_store)
        want = {str(d) for d in recs["det_id"][recs["dec"] >= 0]}
        assert got == want

    def test_bad_predicate(self, capsys, survey_store):
        code, _, _ = run(capsys, "query", "--store", str(survey_store),
                         "--where", "nonsense>1")
        assert code == EXIT_VALIDATION

    def test_neighbors_runs(self, capsys, survey_store):
        code, out, err = run(capsys, "neighbors", "--store", str(survey_store),
                             "--theta", "3600s")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "id_a,id_b,separation_arcsec"
        assert "pairs=" in err

    def test_lc_limit(self, capsys, survey_store):
        code, out, _ = run(capsys, "lc", "--store", str(survey_store),
                           "--limit", "5")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 6

    def test_lc_missing_master(self, capsys, survey_store):
        code, _, _ = run(capsys, "lc", "--store", str(survey_store),
                         "--master", "999999")
        assert code == EXIT_VALIDATION

    def test_classify_output(self, capsys, survey_store):
        code, out, _ = run(capsys, "classify", "--store", str(survey_store),
                           "--span-days", "8")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "master_id,n_detections,classification"
        classes = {ln.split(",")[2] for ln in lines[1:]}
        assert classes <= set(store.MASTER_CLASSES)

    def test_trigger_self_stream(self, capsys, survey_store):
        code, out, _ = run(capsys, "trigger", "--store", str(survey_store),
                           "--stream", str(survey_store), "--radius", "2s",
                           "--k-sigma", "8")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "kind,mjd,ra,dec,flux,deviation_sigmas,nearest_master_id"

    def test_movers_runs(self, capsys, survey_store):
        code, out, err = run(capsys, "movers", "--store", str(survey_store),
                             "--rate-max", "0.5", "--residual-max", "10s")
        assert code == EXIT_OK
        assert "tracks=" in err

    def test_corr_runs(self, capsys, survey_store):
        code, out, _ = run(capsys, "corr", "--store", str(survey_store),
                           "--bins-deg", "5,60,4", "--randoms", "500",
                           "--seed", "7")
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("bin_lo_deg")
        assert len(out.strip().splitlines()) == 5

    def test_corr_seed_reproducible(self, capsys, survey_store):
        _, a, _ = run(capsys, "corr", "--store", str(survey_store),
                      "--bins-deg", "5,60,4", "--randoms", "500", "--seed", "7")
        _, b, _ = run(capsys, "corr", "--store", str(survey_store),
                      "--bins-deg", "5,60,4", "--randoms", "500", "--seed", "7")
        assert a == b

    def test_em_model_json(self, capsys, survey_store):
        code, out, err = run(capsys, "em", "--store", str(survey_store),
                             "--k", "2", "--seed", "3")
        assert code == EXIT_OK
        model = json.loads(out)
        assert len(model["weights"]) == 2
        assert "iters=" in err

    def test_em_scores(self, capsys, survey_store):
        code, out, _ = run(capsys, "em", "--store", str(survey_store),
                           "--k", "1", "--seed", "3", "--scores")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "master_id,score"

    def test_em_unknown_feature(self, capsys, survey_store):
        code, _, _ = run(capsys, "em", "--store", str(survey_store),
                         "--features", "bogus", "--seed", "1")
        assert code == EXIT_VALIDATION


@pytest.fixture(scope="module")
def merged_pair_store(tmp_path_factory):
    """An isolated source plus two sources 0.3 arcsec apart, all seen in every
    pass; a 1 arcsec master radius merges the pair into master 2, which then
    holds two detections per epoch."""
    out = tmp_path_factory.mktemp("cli") / "merged"
    passes = 5
    recs = np.zeros(3 * passes, dtype=store.DET_DTYPE)
    recs["det_id"] = np.arange(1, 3 * passes + 1)
    recs["pass_id"] = np.repeat(np.arange(passes), 3)
    recs["mjd"] = 59000.0 + recs["pass_id"]
    recs["ra"] = np.tile([10.0, 50.0, 50.0 + 0.3 / 3600.0], passes)
    recs["dec"] = 5.0
    recs["flux"] = np.tile([100.0, 80.0, 120.0], passes)
    recs["flux_err"] = 1.0
    store.ingest_detections(recs, 2, out)
    assert cli.run(["index", "--store", str(out)]) == EXIT_OK
    assert cli.run(["master", "--store", str(out), "--radius", "1s"]) == EXIT_OK
    return out


class TestRepeatedEpochs:
    @pytest.mark.parametrize("command", ["lc", "classify"])
    def test_rejected_before_any_output(self, capsys, merged_pair_store, command):
        code, out, err = run(capsys, command, "--store", str(merged_pair_store))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "master 2" in err
        assert "mjd 59000.000000 repeats" in err

    def test_other_master_still_fits(self, capsys, merged_pair_store):
        code, out, _ = run(capsys, "lc", "--store", str(merged_pair_store),
                           "--master", "1")
        assert code == EXIT_OK
        assert [ln.split(",")[:2] for ln in out.splitlines()[1:]] == [["1", "5"]]

class TestBench20:
    def test_all_twenty_queries_pass(self, capsys, survey_store):
        code, out, _ = run(capsys, "bench20", "--store", str(survey_store))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "query_id,exit_code,seconds,command"
        assert len(lines) == 21
        assert all(ln.split(",")[1] == "0" for ln in lines[1:])

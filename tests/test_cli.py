import contextlib
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skymine import cli, store, timedomain
from skymine.errors import EXIT_IO, EXIT_OK, EXIT_VALIDATION


# every class `classify` prints
CLASSES = ("static", "variable", "transient", "mover-candidate", "defect")


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

    def test_nights_option_removed(self, capsys):
        # nights per year never entered the acquisition arithmetic
        code, out, err = run(capsys, "plan", "acquisition", "--nights", "100")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "--nights" in err


class TestLifecycle:
    def test_gen_zero_objects(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--objects", "0", "--passes", "1",
                           "--seed", "0", "--out", str(tmp_path / "empty"))
        assert code == EXIT_OK
        assert "objects=0" in err

    def test_mastered_empty_store_has_no_chains(self, capsys, tmp_path):
        # `master` on 0 records writes an empty masters.csv, and every command
        # over the masters prints its header alone
        path = tmp_path / "empty.csv"
        path.write_text(HEADER + "\n")
        s = str(tmp_path / "s")
        for argv in (["ingest", "--input", str(path), "--out", s], ["index", "--store", s],
                     ["master", "--store", s]):
            assert run(capsys, *argv)[0] == EXIT_OK
        for argv in (["lc"], ["classify"], ["neighbors"], ["movers"], ["trigger", "--stream", s]):
            code, out, err = run(capsys, *argv, "--store", s)
            assert (code, err.count("error")) == (EXIT_OK, 0)
            assert len(out.splitlines()) == 1 and "," in out

    @pytest.mark.parametrize("command", ["lc", "classify"])
    def test_unmastered_store_is_refused(self, capsys, tmp_path, command):
        out = str(tmp_path / "s")
        assert cli.run(["gen", "--objects", "5", "--passes", "2", "--seed", "1",
                        "--out", out]) == EXIT_OK
        code, _, err = run(capsys, command, "--store", out)
        assert code == EXIT_VALIDATION
        assert "store has no master assignments; run `master` first" in err

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

    @pytest.mark.parametrize("halfspace", ["nan 0 1 0.5", "0 0 1 nan", "0 0 nan 0.5",
                                           "0 0 1 -inf", "0 0 1 half"])
    def test_non_finite_polygon_value_is_validation_error(self, capsys, survey_store, tmp_path,
                                                          halfspace):
        """NaN failed no range check, so such a polygon matched no row and
        exited 0."""
        poly = tmp_path / "bad.poly"
        poly.write_text(f"# a comment\n0 0 1 0\n{halfspace}\n")
        code, out, err = run(capsys, "query", "--store", str(survey_store),
                             "--polygon", str(poly))
        assert code == EXIT_VALIDATION and out == ""
        assert f"bad.poly:3: expected 'nx ny nz offset', four finite numbers, got {halfspace!r}" in err

    @pytest.mark.parametrize("where", ["flux>nan", "flux!=nan", "pass_id<=3 and flux<NaN",
                                       "det_id==-nan"])
    def test_nan_literal_is_validation_error(self, capsys, survey_store, where):
        """flux>nan matched no row and flux!=nan every row."""
        code, out, err = run(capsys, "query", "--store", str(survey_store), "--where", where)
        assert code == EXIT_VALIDATION and out == ""
        term = where.split(" and ")[-1]
        assert f"NaN comparison value in {term!r}" in err

    def test_infinite_literals_are_accepted(self, capsys, survey_store):
        recs = store.read_all(survey_store)
        for where, want in [("flux<inf", len(recs)), ("flux>inf", 0), ("flux>-inf", len(recs))]:
            code, out, err = run(capsys, "query", "--store", str(survey_store), "--where", where)
            assert code == EXIT_OK
            assert len(out.splitlines()) == 1 + want
            assert f"matched={want} " in err

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
        assert classes <= set(CLASSES)

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


# each malformed or out-of-range number is named in the error, not raised as
# a traceback
@pytest.mark.parametrize("argv, bad", [
    (["neighbors", "--store", "{store}", "--theta", "abcs"], "abcs"),
    (["query", "--store", "{store}", "--cone", "1d,2d,xd"], "xd"),
    (["corr", "--store", "{store}", "--bins-deg", "1,x,5", "--seed", "1"], "1,x,5"),
    (["corr", "--store", "{store}", "--bins-deg", "1,5,-2", "--seed", "1"], "1,5,-2"),
    (["gen", "--objects", "1", "--passes", "1", "--seed", "1", "--pos-noise", "0.1.2s",
      "--out", "{store}/never"], "0.1.2s"),
    (["plan", "transfer", "--link-rate", "1.2.3Mbit/s"], "1.2.3Mbit/s"),
], ids=["neighbors-theta", "query-cone", "corr-bins", "corr-negative-bins", "gen-pos-noise",
        "plan-link-rate"])
def test_malformed_number_is_validation_error(capsys, survey_store, argv, bad):
    code, out, err = run(capsys, *(a.format(store=survey_store) for a in argv))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert repr(bad) in err


# every option that takes an angle rejects a non-finite one before any work
ANGLE_OPTIONS = {
    "gen": ["gen", "--objects", "1", "--passes", "1", "--seed", "1",
            "--out", "{store}/never", "--pos-noise"],
    "index": ["index", "--store", "{store}", "--zone-height"],
    "master": ["master", "--store", "{store}", "--radius"],
    "query": ["query", "--store", "{store}", "--cone"],
    "neighbors": ["neighbors", "--store", "{store}", "--theta"],
    "trigger": ["trigger", "--store", "{store}", "--stream", "{store}", "--radius"],
    "movers": ["movers", "--store", "{store}", "--residual-max"],
}


@pytest.mark.parametrize("angle", ["nans", "infd", "-infs"])
@pytest.mark.parametrize("command", sorted(ANGLE_OPTIONS))
def test_non_finite_angle_is_validation_error(capsys, survey_store, command, angle):
    argv = [a.format(store=survey_store) for a in ANGLE_OPTIONS[command]]
    value = f"1d,2d,{angle}" if command == "query" else angle
    code, out, err = run(capsys, *argv, value)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert f"angle {angle!r} must be finite" in err


# each number out of range is refused naming its parameter, before any
# work; NaN passed the `x < 0`-style checks into a traceback, the wrong
# message or a NaN in the output
GEN = ["gen", "--objects", "5", "--passes", "3", "--seed", "1", "--out", "{store}/never"]
OUT_OF_RANGE = {
    "gen --periodic-frac nan": (GEN + ["--periodic-frac", "nan"], "periodic_fraction"),
    "gen --cadence-days nan": (GEN + ["--cadence-days", "nan"], "cadence_days"),
    "gen --flux-sigma nan": (GEN + ["--flux-sigma", "nan"], "flux_sigma_fraction"),
    "plan pipeline --years-ahead nan": (["plan", "pipeline", "--years-ahead", "nan"],
                                        "years_ahead"),
    "plan storage --index-overhead nan": (["plan", "storage", "--index-overhead", "nan"],
                                          "index_overhead_fraction"),
    "plan load --window-days nan": (["plan", "load", "--window-days", "nan"], "window_days"),
    "plan load --catalog-fraction nan": (["plan", "load", "--catalog-fraction", "nan"],
                                         "catalog_fraction"),
    "plan timeline --doubling nan": (["plan", "timeline", "--doubling", "nan"],
                                     "moore_doubling"),
    "movers --rate-max nan": (["movers", "--store", "{store}", "--rate-max", "nan"],
                              "rate_max"),
    "trigger --k-sigma -1": (["trigger", "--store", "{store}", "--stream", "{store}",
                              "--k-sigma", "-1"], "k_sigma"),
    "trigger --k-sigma nan": (["trigger", "--store", "{store}", "--stream", "{store}",
                               "--k-sigma", "nan"], "k_sigma"),
    "corr --randoms 1": (["corr", "--store", "{store}", "--seed", "1", "--randoms", "1"],
                         "'--randoms'"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_number_is_validation_error(capsys, survey_store, case):
    argv, name = OUT_OF_RANGE[case]
    code, out, err = run(capsys, *(a.format(store=survey_store) for a in argv))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert name in err
    assert not (survey_store / "never").exists()


def test_unlimited_rate_and_zero_k_sigma_are_accepted(capsys, survey_store):
    """inf is no rate limit for `movers`, and k-sigma 0 flags every matched
    detection that deviates at all."""
    code, _, err = run(capsys, "movers", "--store", str(survey_store), "--rate-max", "inf")
    assert code == EXIT_OK
    assert "tracks=" in err
    code, out, _ = run(capsys, "trigger", "--store", str(survey_store),
                       "--stream", str(survey_store), "--k-sigma", "0")
    assert code == EXIT_OK
    assert len(out.splitlines()) > 1


@pytest.mark.parametrize("tau", ["nan", "inf", "-1"])
@pytest.mark.parametrize("mode", ["exact", "kd"])
def test_bad_em_tau_is_validation_error(capsys, survey_store, mode, tau):
    code, out, err = run(capsys, "em", "--store", str(survey_store), "--seed", "1",
                         "--mode", mode, "--tau", tau)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "tau must be finite and >= 0" in err


@pytest.mark.parametrize("option, value, message", [
    ("--max-iter", "0", "max_iter must be >= 1"),
    ("--max-iter", "-3", "max_iter must be >= 1"),
    ("--tol", "nan", "tol must be finite and >= 0"),
    ("--tol", "-1", "tol must be finite and >= 0"),
])
@pytest.mark.parametrize("mode", ["exact", "kd"])
def test_bad_em_tol_and_max_iter_are_validation_errors(capsys, survey_store, mode, option,
                                                       value, message):
    code, out, err = run(capsys, "em", "--store", str(survey_store), "--seed", "1",
                         "--mode", mode, option, value)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert message in err


NEGATIVE_COUNT_OPTIONS = {
    "gen --seed": ["gen", "--objects", "1", "--passes", "1", "--out", "{store}/never",
                   "--seed"],
    "corr --seed": ["corr", "--store", "{store}", "--seed"],
    "corr --randoms": ["corr", "--store", "{store}", "--seed", "1", "--randoms"],
    "em --seed": ["em", "--store", "{store}", "--seed"],
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_COUNT_OPTIONS))
def test_negative_seed_or_randoms_is_a_usage_error(capsys, survey_store, case):
    """A negative seed or random count exits 2 naming its option, where numpy
    raised a traceback and exit 1."""
    argv = [a.format(store=survey_store) for a in NEGATIVE_COUNT_OPTIONS[case]]
    code, out, err = run(capsys, *argv, "-1")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert f"'{case.split()[1]}'" in err and "-1" in err
    assert not (survey_store / "never").exists()


@pytest.mark.parametrize("bins", ["nan,5,3", "1,inf,3", "5,1,3", "2,2,3",
                                  "0,5,3,log", "-1,5,3,log", "1,5,3,lin"])
def test_bad_corr_bins_are_validation_errors(capsys, survey_store, bins):
    code, out, err = run(capsys, "corr", "--store", str(survey_store),
                         "--bins-deg", bins, "--seed", "1")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert repr(bins) in err


@pytest.fixture(scope="module")
def short_chain_store(tmp_path_factory):
    """A two-pass survey: no chain has the 3 points a search needs."""
    out = tmp_path_factory.mktemp("cli") / "short"
    assert cli.run(["gen", "--objects", "30", "--passes", "2", "--seed", "5",
                    "--out", str(out)]) == EXIT_OK
    assert cli.run(["index", "--store", str(out)]) == EXIT_OK
    assert cli.run(["master", "--store", str(out), "--radius", "1s"]) == EXIT_OK
    assert store.read_masters(out)["n_detections"].max() < 3
    return out


class TestBadGrid:
    """An invalid frequency grid is an error whatever the store holds, also
    when no chain would be searched."""

    @pytest.mark.parametrize("fixture, argv", [
        ("short_chain_store", ["lc"]),
        ("short_chain_store", ["classify"]),
        ("reference_store", ["lc"]),
        # against 20 days every chain of the reference store is a burst
        ("reference_store", ["classify", "--span-days", "20"]),
    ], ids=["lc-short", "classify-short", "lc-searched", "classify-all-bursts"])
    @pytest.mark.parametrize("grid", [["--fmin", "2", "--fmax", "1"], ["--steps", "1"],
                                      ["--fmax", "inf"], ["--fmin", "nan"],
                                      # 2 pi f t overflows at the stores' epochs
                                      ["--fmax", "1e307", "--steps", "10"]],
                             ids=["fmin-above-fmax", "one-step", "fmax-inf", "fmin-nan",
                                  "basis-overflows"])
    def test_rejected(self, request, capsys, fixture, argv, grid):
        path = request.getfixturevalue(fixture)
        code, out, err = run(capsys, argv[0], "--store", str(path), *argv[1:], *grid)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "frequency grid" in err


class TestGridTooLarge:
    """A grid whose arrays cannot be allocated is a validation error naming
    --steps, not a MemoryError traceback. The allocation is made to fail
    here, not asked of the machine."""

    @pytest.mark.parametrize("argv", [["lc"], ["classify"]])
    def test_grid_allocation_fails(self, capsys, monkeypatch, reference_store, argv):
        linspace = np.linspace

        def refuse_large(start, stop, num=50, **kwargs):
            if num > 10 ** 6:
                raise MemoryError("cannot allocate the grid")
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(timedomain.np, "linspace", refuse_large)
        code, out, err = run(capsys, *argv, "--store", str(reference_store),
                             "--steps", "100000000")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "frequency grid of 100000000 steps does not fit in memory" in err
        assert "--steps" in err

    @pytest.mark.parametrize("argv", [["lc"], ["classify"]])
    def test_basis_allocation_fails(self, capsys, monkeypatch, reference_store, argv):
        def refuse(freqs, t):
            raise MemoryError("cannot allocate the basis")

        monkeypatch.setattr(timedomain, "_trig_basis", refuse)
        code, out, err = run(capsys, *argv, "--store", str(reference_store), "--steps", "500")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "frequency grid of 500 steps does not fit in memory; use fewer --steps" in err


@pytest.mark.parametrize("span", ["inf", "-inf", "nan"])
def test_classify_rejects_non_finite_span(capsys, reference_store, span):
    code, out, err = run(capsys, "classify", "--store", str(reference_store),
                         "--span-days", span)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "survey span must be finite" in err


def _mastered(tmp_path_factory, name, sources):
    """A store of sources at dec 5, each an (ra, passes, flux) seen at mjd
    59000 + pass, mastered at a 1 arcsec radius; det_ids in (pass, source)
    order."""
    out = tmp_path_factory.mktemp("cli") / name
    rows = sorted((p, k) for k, (_, passes, _) in enumerate(sources) for p in passes)
    recs = np.zeros(len(rows), dtype=store.DET_DTYPE)
    recs["det_id"] = np.arange(1, len(rows) + 1)
    recs["pass_id"] = [p for p, _ in rows]
    recs["mjd"] = 59000.0 + recs["pass_id"]
    recs["ra"] = [sources[k][0] for _, k in rows]
    recs["dec"] = 5.0
    recs["flux"] = [sources[k][2] for _, k in rows]
    recs["flux_err"] = 1.0
    store.ingest_detections(recs, 2, out)
    assert cli.run(["index", "--store", str(out)]) == EXIT_OK
    assert cli.run(["master", "--store", str(out), "--radius", "1s"]) == EXIT_OK
    return out


def _merged_pair(tmp_path_factory, name, pair_fluxes):
    """An isolated source plus two sources 0.3 arcsec apart, all seen in every
    pass; a 1 arcsec master radius merges the pair into master 2, which then
    holds two detections per epoch."""
    every = range(5)
    return _mastered(tmp_path_factory, name, [
        (10.0, every, 100.0), (50.0, every, pair_fluxes[0]),
        (50.0 + 0.3 / 3600.0, every, pair_fluxes[1])])


@pytest.fixture(scope="module")
def merged_pair_store(tmp_path_factory):
    """The merged chain alternates 80 and 120: variable, so it is searched."""
    return _merged_pair(tmp_path_factory, "merged", (80.0, 120.0))


@pytest.fixture(scope="module")
def merged_static_store(tmp_path_factory):
    """The merged chain is flat at 100: static by chi^2/dof alone, so
    `classify` would not search it."""
    return _merged_pair(tmp_path_factory, "merged_static", (100.0, 100.0))


@pytest.fixture(scope="module")
def two_merged_store(tmp_path_factory):
    """Two merged pairs. Master 2 holds a source of every pass and, from pass
    3, its companion: 7 records, first repeating mjd 59003. Master 3 holds
    both sources of passes 1 to 4: 8 records, first repeating mjd 59001."""
    out = _mastered(tmp_path_factory, "two_merged", [
        (10.0, range(5), 100.0), (50.0, range(5), 80.0),
        (50.0 + 0.3 / 3600.0, range(3, 5), 120.0),
        (70.0, range(1, 5), 80.0), (70.0 + 0.3 / 3600.0, range(1, 5), 120.0)])
    assert store.read_masters(out)["n_detections"].tolist() == [5, 7, 8]
    return out


class TestRepeatedEpochs:
    # `classify` searches neither a static chain nor a burst, but it still
    # rejects one that repeats an epoch
    @pytest.mark.parametrize("fixture, argv", [
        ("merged_pair_store", ["lc"]),
        ("merged_pair_store", ["classify"]),
        ("merged_static_store", ["classify"]),
        ("merged_pair_store", ["classify", "--span-days", "100"]),
    ], ids=["lc", "classify", "classify-static", "classify-burst"])
    def test_rejected_before_any_output(self, request, capsys, fixture, argv):
        path = request.getfixturevalue(fixture)
        code, out, err = run(capsys, argv[0], "--store", str(path), *argv[1:])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "master 2" in err
        assert "mjd 59000.000000 repeats" in err

    @pytest.mark.parametrize("command", ["lc", "classify"])
    def test_lowest_master_named(self, capsys, two_merged_store, command):
        """The one array pass over all chains names the master that a
        per-chain loop in master order would meet first."""
        code, out, err = run(capsys, command, "--store", str(two_merged_store))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "master 2, mjd 59003.000000 repeats" in err

    def test_other_master_still_fits(self, capsys, merged_pair_store):
        code, out, _ = run(capsys, "lc", "--store", str(merged_pair_store),
                           "--master", "1")
        assert code == EXIT_OK
        assert [ln.split(",")[:2] for ln in out.splitlines()[1:]] == [["1", "5"]]


class TestClassifySearch:
    """`classify` searches a spectrum only for chains whose class can depend
    on one; `lc` searches every chain of 3+ points."""

    @staticmethod
    def searched(monkeypatch, capsys, argv):
        seen = []
        real = timedomain._periodograms

        def spy(recs, index, freqs):
            seen.extend(recs["master_id"][index[:, 0]].tolist())
            return real(recs, index, freqs)

        monkeypatch.setattr(timedomain, "_periodograms", spy)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert len(seen) == len(set(seen))
        return sorted(seen), out

    @staticmethod
    def chains(reference_store):
        recs, starts = timedomain.group_chains(store.read_all(reference_store))
        return [(int(c["master_id"][0]), c) for c in np.split(recs, starts[1:])]

    # against a 12-day span the 12 chains of 3+ points spanning 3-6 days are
    # bursts; against 20 days every chain is
    @pytest.mark.parametrize("span_days, bursts", [(None, 0), (12.0, 12), (20.0, 282)])
    def test_classify_searches_non_burst_variable_chains(
            self, monkeypatch, capsys, reference_store, span_days, bursts):
        extra = [] if span_days is None else ["--span-days", str(span_days)]
        seen, out = self.searched(monkeypatch, capsys,
                                  ["classify", "--store", str(reference_store), *extra])
        chains = self.chains(reference_store)
        variable, burst = set(), set()
        for m, c in chains:
            if len(c) < 3:
                continue
            t, y = c["mjd"], c["flux"].astype(float)
            w = 1.0 / c["flux_err"].astype(float) ** 2
            mean = np.sum(w * y) / np.sum(w)
            if np.sum(w * (y - mean) ** 2) / (len(c) - 1) > timedomain.VARIABILITY_CHI2_DOF:
                variable.add(m)
            if span_days and t[-1] - t[0] < timedomain.TRANSIENT_SPAN_FRACTION * span_days:
                burst.add(m)
        assert len(burst) == bursts
        assert seen == sorted(variable - burst)
        assert len(variable) > 20
        if bursts:
            assert variable & burst
        assert len(out.splitlines()) == len(chains) + 1

    def test_lc_searches_every_chain_of_three_or_more(self, monkeypatch, capsys,
                                                      reference_store):
        seen, _ = self.searched(monkeypatch, capsys, ["lc", "--store", str(reference_store)])
        assert seen == [m for m, c in self.chains(reference_store) if len(c) >= 3]


class TestLcRows:
    """A chain's `lc` row does not depend on which chains are fitted with it
    or how `_periodograms` blocks them."""

    @staticmethod
    def rows(capsys, reference_store, *extra):
        code, out, _ = run(capsys, "lc", "--store", str(reference_store), *extra)
        assert code == EXIT_OK
        return out.splitlines()

    def test_master_row_equals_full_run(self, capsys, reference_store):
        full = self.rows(capsys, reference_store)
        searched = [ln for ln in full[1:] if int(ln.split(",")[1]) >= 3]
        # every tenth searched chain, and each of the short ones, which share
        # their epoch vector with few others
        picked = searched[::10] + [ln for ln in searched if int(ln.split(",")[1]) < 12]
        assert len(picked) > 40
        for line in picked:
            assert self.rows(capsys, reference_store, "--master", line.split(",")[0]) \
                == [full[0], line]

    # blocks of 16 (the smallest), 48 and 256 chains at 4,000 steps
    @pytest.mark.parametrize("block", [1, 48 * 4000, 1 << 20])
    def test_block_size_leaves_output_unchanged(self, monkeypatch, capsys,
                                                reference_store, block):
        want = self.rows(capsys, reference_store)
        monkeypatch.setattr(timedomain, "_PERIODOGRAM_BLOCK", block)
        assert self.rows(capsys, reference_store) == want


@pytest.fixture(scope="module")
def bench20_run(survey_store):
    """bench20's exit code and stdout on the survey store."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.run(["bench20", "--store", str(survey_store)])
    return code, sink.getvalue()


class TestBench20:
    def test_all_twenty_queries_pass(self, bench20_run):
        code, out = bench20_run
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "query_id,exit_code,seconds,command"
        assert len(lines) == 21
        assert all(ln.split(",")[1] == "0" for ln in lines[1:])

    def test_commands_read_back_as_csv(self, bench20_run):
        # seven shipped lines hold a '"', which the command cell doubles
        shipped = [ln.strip() for ln in cli.default_queries_file().read_text().splitlines()
                   if ln.strip() and not ln.strip().startswith("#")]
        rows = list(csv.reader(io.StringIO(bench20_run[1])))
        assert [row[3] for row in rows[1:]] == shipped
        assert sum('"' in ln for ln in shipped) == 7
        assert all(len(row) == 4 for row in rows)


# Runs every command on a tiny store with scipy's import blocked, and prints
# each command's name and exit code as JSON: argv[1] is the directory holding
# the skymine package, argv[2] a scratch directory.
NUMPY_ALONE = r"""
import contextlib, json, os, sys
sys.modules["scipy"] = None   # any import of scipy or a submodule fails
sys.path.insert(0, sys.argv[1])
from skymine import cli
s, t, csv = (f"{sys.argv[2]}/{name}" for name in ("s", "t", "dets.csv"))
em = ["em", "--store", s, "--seed", "1", "--k", "2"]
commands = [
    ["gen", "--objects", "40", "--passes", "8", "--seed", "17", "--periodic-frac", "0.1",
     "--mover-frac", "0.1", "--pos-noise", "0.1s", "--out", s],
    ["index", "--store", s],
    ["master", "--store", s, "--radius", "1s"],
    ["query", "--store", s],
    ["ingest", "--input", csv, "--out", t],
    ["query", "--store", s, "--cone", "10d,20d,60d", "--where", "flux>100"],
    ["neighbors", "--store", s, "--theta", "3600s"],
    ["lc", "--store", s, "--steps", "200"],
    ["classify", "--store", s, "--span-days", "8", "--steps", "200"],
    ["trigger", "--store", s, "--stream", s],
    ["movers", "--store", s],
    ["corr", "--store", s, "--seed", "1", "--randoms", "200"],
    em + ["--mode", "exact"], em + ["--mode", "exact", "--scores"],
    em + ["--mode", "kd"], em + ["--mode", "kd", "--scores"],
    ["bench20", "--store", s],
    ["plan", "scan", "--db", "120TB", "--disks", "30", "--disk-rate", "150MB/s"],
]
codes = []
for argv in commands:
    with open(csv if argv == ["query", "--store", s] else os.devnull, "w") as out, \
            contextlib.redirect_stdout(out):
        codes.append([argv[0], cli.run(argv)])
print(json.dumps(codes))
"""

# The OpenBLAS libraries mapped into a process that imported skymine.cli
OPENBLAS_MAPPED = r"""
import sys
sys.path.insert(0, sys.argv[1])
import skymine.cli
with open("/proc/self/maps") as maps:
    paths = {line.split()[-1] for line in maps if "/" in line}
print("\n".join(sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1].lower())))
"""


def test_runs_on_numpy_and_click_alone(tmp_path):
    """Every command runs with scipy's import blocked, and on Linux a CLI
    process maps one OpenBLAS, numpy's: scipy, which bundles its own, is
    needed only by the tests."""
    package_root = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", NUMPY_ALONE, package_root, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout)
    assert len(codes) == 18 and {code for _, code in codes} == {0}, (codes, done.stderr)
    if sys.platform.startswith("linux"):
        done = subprocess.run([sys.executable, "-c", OPENBLAS_MAPPED, package_root],
                              capture_output=True, text=True, timeout=60, check=True)
        assert len(done.stdout.split()) == 1, done.stdout

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skymine import skygen, sphere
from skymine.errors import ValidationError


def cfg(**kw):
    base = dict(n_objects=200, passes=10, seed=42)
    base.update(kw)
    return skygen.SurveyConfig(**base)


class TestConfigValidation:
    def test_fractions_above_one(self):
        with pytest.raises(ValidationError):
            cfg(periodic_fraction=0.6, mover_fraction=0.5)

    def test_negative_fraction(self):
        with pytest.raises(ValidationError):
            cfg(transient_fraction=-0.1)

    def test_zero_passes(self):
        with pytest.raises(ValidationError):
            cfg(passes=0)

    def test_negative_objects(self):
        with pytest.raises(ValidationError):
            cfg(n_objects=-1)


class TestTruth:
    def test_kind_counts(self):
        config = cfg(n_objects=100, periodic_fraction=0.1,
                     transient_fraction=0.05, mover_fraction=0.02)
        truth, _, _ = skygen.generate_survey(config)
        kinds, counts = np.unique(truth["kind"], return_counts=True)
        table = dict(zip(kinds.tolist(), counts.tolist()))
        assert table == {"periodic": 10, "transient": 5, "mover": 2, "static": 83}

    def test_parameter_ranges(self):
        config = cfg(n_objects=500, periodic_fraction=0.3,
                     transient_fraction=0.3, mover_fraction=0.3)
        truth, _, _ = skygen.generate_survey(config)
        per = truth[truth["kind"] == "periodic"]
        assert np.all((per["period_days"] >= 0.5) & (per["period_days"] <= 20.0))
        assert np.all((per["amplitude_fraction"] >= 0.2)
                      & (per["amplitude_fraction"] <= 0.6))
        mv = truth[truth["kind"] == "mover"]
        assert np.all((mv["motion_rate_deg_day"] >= 0.02)
                      & (mv["motion_rate_deg_day"] <= 0.2))
        assert np.all(truth["base_flux"] >= 100.0)

    def test_positions_roughly_uniform(self):
        # mean of n uniform unit vectors has norm O(1/sqrt(n))
        n = 20_000
        truth, _, _ = skygen.generate_survey(cfg(n_objects=n, passes=1))
        unit = sphere.radec_to_unit(truth["ra"], truth["dec"])
        assert np.linalg.norm(unit.mean(axis=0)) < 4.0 / np.sqrt(n)
        # both hemispheres populated about equally
        frac_north = np.mean(truth["dec"] > 0)
        assert 0.45 < frac_north < 0.55


class TestDetections:
    def test_static_survey_detection_count(self):
        _, det, labels = skygen.generate_survey(cfg(n_objects=50, passes=7))
        assert len(det) == 350
        assert len(labels) == 350
        assert len(np.unique(det["det_id"])) == 350

    def test_transients_emit_only_in_burst(self):
        config = cfg(n_objects=200, passes=30, transient_fraction=1.0)
        truth, det, labels = skygen.generate_survey(config)
        by_truth = {int(t["truth_id"]): t for t in truth}
        for mjd, tid in zip(det["mjd"], labels):
            t = by_truth[int(tid)]
            assert t["burst_epoch"] <= mjd < t["burst_epoch"] + t["burst_duration_days"]
        assert len(det) < 200 * 30

    def test_movers_move_and_statics_do_not(self):
        config = cfg(n_objects=40, passes=5, mover_fraction=0.5)
        truth, det, labels = skygen.generate_survey(config)
        for t in truth:
            mine = det[labels == t["truth_id"]]
            u = sphere.radec_to_unit(mine["ra"], mine["dec"])
            drift = float(sphere.angle_between(u[0], u[-1]))
            expected = np.radians(t["motion_rate_deg_day"]) * (mine["mjd"][-1] - mine["mjd"][0])
            if t["kind"] == "mover":
                assert drift == pytest.approx(expected, rel=1e-9)
            else:
                assert drift == 0.0

    def test_mover_path_is_great_circle(self):
        config = cfg(n_objects=10, passes=20, mover_fraction=1.0)
        _, det, labels = skygen.generate_survey(config)
        for tid in np.unique(labels):
            u = sphere.radec_to_unit(det["ra"][labels == tid], det["dec"][labels == tid])
            # all positions lie in one plane through the origin
            _, s, _ = np.linalg.svd(u, full_matrices=False)
            assert s[2] < 1e-9

    def test_flux_noise_scales_with_sigma(self):
        quiet = skygen.generate_survey(cfg(flux_sigma_fraction=1e-6))[1]
        noisy = skygen.generate_survey(cfg(flux_sigma_fraction=0.2))[1]
        resid = noisy["flux"].astype(float) - quiet["flux"].astype(float)
        assert np.std(resid / quiet["flux"]) == pytest.approx(0.2, rel=0.15)

    def test_sigma_change_leaves_geometry_fixed(self):
        a = skygen.generate_survey(cfg(flux_sigma_fraction=0.01))[1]
        b = skygen.generate_survey(cfg(flux_sigma_fraction=0.3))[1]
        assert np.array_equal(a["ra"], b["ra"])
        assert np.array_equal(a["dec"], b["dec"])
        assert np.array_equal(a["mjd"], b["mjd"])
        assert not np.array_equal(a["flux"], b["flux"])

    def test_position_noise_magnitude(self):
        clean = skygen.generate_survey(cfg(n_objects=2000, passes=1))[1]
        fuzzy = skygen.generate_survey(cfg(n_objects=2000, passes=1,
                                           position_noise_arcsec=0.5))[1]
        sep = sphere.angle_between(
            sphere.radec_to_unit(clean["ra"], clean["dec"]),
            sphere.radec_to_unit(fuzzy["ra"], fuzzy["dec"]))
        sep_arcsec = np.degrees(sep) * 3600
        # 2-d gaussian jitter: mean offset = sigma * sqrt(pi/2)
        assert np.mean(sep_arcsec) == pytest.approx(0.5 * np.sqrt(np.pi / 2), rel=0.1)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = skygen.generate_survey(cfg())
        b = skygen.generate_survey(cfg())
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_different_seed_differs(self):
        a = skygen.generate_survey(cfg(seed=1))[1]
        b = skygen.generate_survey(cfg(seed=2))[1]
        assert not np.array_equal(a["ra"], b["ra"])

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=10, deadline=None)
    def test_any_seed_reproducible(self, seed):
        a = skygen.generate_survey(cfg(seed=seed, n_objects=20, passes=3))[1]
        b = skygen.generate_survey(cfg(seed=seed, n_objects=20, passes=3))[1]
        assert a.tobytes() == b.tobytes()

    def test_written_store_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        skygen.write_survey(cfg(), d1, partition_count=3)
        skygen.write_survey(cfg(), d2, partition_count=3)
        for name in ("part-0000.det", "part-0001.det", "part-0002.det",
                     "truth.csv", "labels.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestWriteSurvey:
    def test_manifest_and_labels(self, tmp_path, read_labels):
        out = tmp_path / "s"
        truth, det, labels, manifest = skygen.write_survey(
            cfg(n_objects=30, passes=4, periodic_fraction=0.2), out)
        meta = json.loads((out / "survey.json").read_text())
        assert meta["rng"]["algorithm"] == skygen.RNG_ALGORITHM
        assert meta["n_objects"] == 30
        assert meta["n_detections"] == len(det) == manifest.total_records
        assert meta["kind_counts"]["periodic"] == 6
        table = read_labels(out)
        assert len(table) == len(det)
        assert table[int(det["det_id"][0])] == int(labels[0])

    def test_empty_survey(self, tmp_path):
        out = tmp_path / "empty"
        _, det, _, manifest = skygen.write_survey(cfg(n_objects=0), out)
        assert len(det) == 0
        assert manifest.total_records == 0

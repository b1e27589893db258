import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skymine import skygen, sphere, store, timedomain
from skymine.errors import ValidationError
from skymine.timedomain import LightCurve, Thresholds


def make_lc(epochs, fluxes, errs, master_id=1):
    return LightCurve(master_id, np.asarray(epochs, float),
                      np.asarray(fluxes, float), np.asarray(errs, float))


def sinusoid_lc(period, n=40, amp=0.4, base=100.0, sigma=1.0, seed=0, span=40.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    t = np.sort(rng.uniform(0, span, n))
    model = base * (1 + amp * np.sin(2 * np.pi * t / period))
    y = model + rng.normal(0, sigma, n)
    return make_lc(t, y, np.full(n, sigma))


class TestLightCurveValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            make_lc([1, 2], [1.0], [1.0])

    def test_nonincreasing_epochs(self):
        with pytest.raises(ValidationError):
            make_lc([1, 1], [1.0, 2.0], [1.0, 1.0])

    def test_zero_errors(self):
        with pytest.raises(ValidationError):
            make_lc([1, 2], [1.0, 2.0], [1.0, 0.0])

    def test_empty(self):
        with pytest.raises(ValidationError):
            make_lc([], [], [])


class TestFits:
    def test_constant_source_chi2(self):
        rng = np.random.Generator(np.random.PCG64(3))
        n = 200
        lc = make_lc(np.arange(n), 50 + rng.normal(0, 2.0, n), np.full(n, 2.0))
        fit = timedomain.fit_lightcurve(lc)
        assert 0.5 < fit.chi2_const / fit.dof < 1.5
        assert fit.classification == "static"
        assert fit.mean_flux == pytest.approx(50.0, abs=0.5)

    def test_sinusoid_period_within_one_percent(self):
        lc = sinusoid_lc(period=2.5)
        fit = timedomain.fit_lightcurve(lc)
        assert fit.classification == "variable"
        assert 1.0 / fit.best_frequency == pytest.approx(2.5, rel=0.01)
        assert fit.amplitude_fraction == pytest.approx(0.4, rel=0.1)
        assert fit.periodic_power > 0.9

    def test_two_point_curve_degenerate(self):
        fit = timedomain.fit_lightcurve(make_lc([0, 1], [10.0, 10.5], [1.0, 1.0]))
        assert fit.best_frequency is None
        assert fit.classification == "static"

    def test_single_point(self):
        fit = timedomain.fit_lightcurve(make_lc([0], [10.0], [1.0]))
        assert fit.mean_flux == 10.0
        assert fit.best_frequency is None

    def test_transient_shape(self):
        n = 30
        t = np.arange(n, dtype=float)
        flux = np.zeros(n)
        flux[10:15] = 50.0
        lc = make_lc(t, flux + 0.01, np.full(n, 1.0))
        fit = timedomain.fit_lightcurve(lc)
        assert fit.classification == "transient"

    def test_flux_scaling_leaves_frequency_fixed(self):
        lc = sinusoid_lc(period=3.7, seed=5)
        scaled = make_lc(lc.epochs, 1000.0 * lc.fluxes, 1000.0 * lc.flux_errs)
        f1 = timedomain.fit_lightcurve(lc)
        f2 = timedomain.fit_lightcurve(scaled)
        assert f1.best_frequency == f2.best_frequency
        assert f1.periodic_power == pytest.approx(f2.periodic_power, rel=1e-9)

    def test_bad_grid(self):
        lc = sinusoid_lc(period=2.0)
        with pytest.raises(ValidationError):
            timedomain.fit_lightcurve(lc, freq_grid=(2.0, 1.0, 100))

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_power_bounded(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = 15
        lc = make_lc(np.sort(rng.uniform(0, 10, n)) + np.arange(n) * 1e-6,
                     rng.uniform(1, 100, n), rng.uniform(0.1, 5, n))
        power, _ = timedomain.periodogram(lc, np.linspace(0.05, 3.0, 200))
        assert np.all((power >= 0) & (power <= 1))

    def test_false_variable_rate_below_five_percent(self):
        flagged = 0
        for seed in range(300):
            rng = np.random.Generator(np.random.PCG64(seed))
            n = 30
            lc = make_lc(np.arange(n, dtype=float),
                         100 + rng.normal(0, 1.0, n), np.full(n, 1.0))
            if timedomain.fit_lightcurve(lc).classification != "static":
                flagged += 1
        assert flagged / 300 < 0.05


# Per-curve reference: the periodogram and fit as computed one curve at a time
# before light curves were fitted in shared-epoch groups.
def oracle_periodogram(lc, freqs):
    w = 1.0 / lc.flux_errs ** 2
    w = w / np.sum(w)
    t = lc.epochs
    y = lc.fluxes
    ybar = np.sum(w * y)
    yy = np.sum(w * (y - ybar) ** 2)
    if yy <= 0:
        return np.zeros(len(freqs)), np.zeros(len(freqs))
    omega_t = 2.0 * np.pi * freqs[:, None] * t[None, :]
    c = np.cos(omega_t)
    s = np.sin(omega_t)
    cbar = c @ w
    sbar = s @ w
    yc = (c * (w * y)) @ np.ones_like(t) - ybar * cbar
    ys = (s * (w * y)) @ np.ones_like(t) - ybar * sbar
    cc = (c * c) @ w - cbar ** 2
    ss = (s * s) @ w - sbar ** 2
    cs = (c * s) @ w - cbar * sbar
    d = cc * ss - cs ** 2
    safe = np.abs(d) > 1e-15
    power = np.zeros(len(freqs))
    a = np.zeros(len(freqs))
    b = np.zeros(len(freqs))
    a[safe] = (yc[safe] * ss[safe] - ys[safe] * cs[safe]) / d[safe]
    b[safe] = (ys[safe] * cc[safe] - yc[safe] * cs[safe]) / d[safe]
    power[safe] = (ss[safe] * yc[safe] ** 2 + cc[safe] * ys[safe] ** 2
                   - 2.0 * cs[safe] * yc[safe] * ys[safe]) / (yy * d[safe])
    amp = np.hypot(a, b)
    return np.clip(power, 0.0, 1.0), amp


def oracle_fit(lc, freq_grid, thresholds=timedomain.DEFAULT_THRESHOLDS):
    w = 1.0 / lc.flux_errs ** 2
    mean = float(np.sum(w * lc.fluxes) / np.sum(w))
    chi2 = float(np.sum(w * (lc.fluxes - mean) ** 2))
    dof = max(len(lc) - 1, 1)
    if len(lc) < 3:
        cls = "static" if chi2 / dof <= thresholds.variability_chi2_dof else "variable"
        return timedomain.LightCurveFit(chi2, len(lc) - 1, mean, None, 0.0, 0.0, cls)
    freqs = np.linspace(freq_grid[0], freq_grid[1], int(freq_grid[2]))
    power, amp = oracle_periodogram(lc, freqs)
    best = int(np.argmax(power))
    best_frequency = float(freqs[best])
    periodic_power = float(power[best])
    amplitude_fraction = float(amp[best] / abs(mean)) if mean != 0 else 0.0
    if chi2 / dof <= thresholds.variability_chi2_dof:
        cls = "static"
    elif periodic_power > thresholds.periodic_power:
        cls = "variable"
    elif timedomain._transient_shape(lc, thresholds):
        cls = "transient"
    else:
        cls = "variable"
    return timedomain.LightCurveFit(chi2, len(lc) - 1, mean, best_frequency,
                                    periodic_power, amplitude_fraction, cls)


def equivalence_curves():
    """Curves on shared and distinct epoch vectors, of 1, 2, 3 and many
    points, constant ones, and ones sampled at integer days, whose design
    matrix is near singular at integer frequencies; interleaved so that input
    order differs from epoch-group order."""
    rng = np.random.Generator(np.random.PCG64(77))
    shared = np.sort(rng.uniform(0, 30, 25))
    integer_days = np.arange(12, dtype=float)
    curves = []

    def add(t, flux=None, err=None):
        n = len(t)
        flux = 100 + rng.normal(0, 3.0, n) if flux is None else flux
        err = rng.uniform(0.5, 2.0, n) if err is None else err
        curves.append(make_lc(t, flux, err, master_id=len(curves) + 1))

    for k in range(6):
        add(shared)
        add(integer_days)
        add(np.sort(rng.uniform(0, 30, 4 + k)))              # distinct vector
        add(shared + 0.5 * (k + 1))                           # distinct, same length
        add(shared[: k % 3 + 1])                              # 1-, 2-, 3-point
    # constant flux, with weights for which the weighted variance is exactly 0
    add(shared[:16], np.full(16, 42.0), np.full(16, 1.0))
    add(integer_days, np.zeros(12), rng.uniform(0.5, 2.0, 12))
    add(shared, 100 * (1 + 0.3 * np.sin(2 * np.pi * shared / 2.7)),
        np.full(25, 1.0))                                     # periodic
    add(integer_days, 100 + 20 * np.sin(2 * np.pi * integer_days / 3.3),
        np.full(12, 1.0))                                     # singular at f = 1
    return curves


class TestGroupedFitEquivalence:
    GRIDS = [(0.01, 2.0, 400), (0.5, 1.5, 201), (0.999, 1.001, 101)]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_fits_equal_per_curve_oracle(self, grid):
        curves = equivalence_curves()
        fits = timedomain.fit_lightcurves(curves, grid)
        assert len(fits) == len(curves)
        for lc, fit in zip(curves, fits):
            assert fit == oracle_fit(lc, grid), lc.master_id

    @pytest.mark.parametrize("grid", GRIDS)
    def test_periodogram_equals_oracle(self, grid):
        freqs = np.linspace(grid[0], grid[1], grid[2])
        for lc in equivalence_curves():
            power, amp = timedomain.periodogram(lc, freqs)
            want_power, want_amp = oracle_periodogram(lc, freqs)
            assert np.array_equal(power, want_power)
            assert np.array_equal(amp, want_amp)

    def test_grid_covers_singular_and_constant_cases(self):
        freqs = np.linspace(*self.GRIDS[1])
        curves = equivalence_curves()
        singular = curves[-1]
        w = 1.0 / singular.flux_errs ** 2
        w /= w.sum()
        omega_t = 2 * np.pi * freqs[:, None] * singular.epochs[None, :]
        c, s = np.cos(omega_t), np.sin(omega_t)
        d = ((c * c) @ w - (c @ w) ** 2) * ((s * s) @ w - (s @ w) ** 2) \
            - ((c * s) @ w - (c @ w) * (s @ w)) ** 2
        assert np.any(np.abs(d) <= 1e-15) and np.any(np.abs(d) > 1e-15)
        constant = [lc for lc in curves if len(lc) >= 3 and np.ptp(lc.fluxes) == 0]
        assert len(constant) == 2
        assert all(not timedomain.periodogram(lc, freqs)[0].any() for lc in constant)

    def test_bad_grid_only_checked_when_searched(self):
        short = [make_lc([0, 1], [1.0, 2.0], [1.0, 1.0])]
        assert timedomain.fit_lightcurves(short, (2.0, 1.0, 10))[0].best_frequency is None
        with pytest.raises(ValidationError):
            timedomain.fit_lightcurves(short + [sinusoid_lc(2.0)], (2.0, 1.0, 10))

    def test_group_chains_sorts_by_master_then_mjd(self):
        recs = np.zeros(6, dtype=store.DET_DTYPE)
        recs["master_id"] = [3, 1, 3, 2, 1, 3]
        recs["mjd"] = [5.0, 2.0, 1.0, 4.0, 1.0, 3.0]
        ids, chains = timedomain.group_chains(recs)
        assert ids.tolist() == [1, 2, 3]
        assert [c["mjd"].tolist() for c in chains] == [[1.0, 2.0], [4.0], [1.0, 3.0, 5.0]]

    def test_repeated_epoch_names_master_and_mjd(self):
        with pytest.raises(ValidationError, match="master 9, mjd 3.000000 repeats"):
            make_lc([1, 3, 3], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], master_id=9)

class TestClassifyChain:
    def test_single_flagged_is_defect(self):
        assert timedomain.classify_chain(1, True, None, None) == "defect"

    def test_single_clean_is_mover_candidate(self):
        assert timedomain.classify_chain(1, False, None, None) == "mover-candidate"

    def test_short_chain_is_transient(self):
        lc = make_lc([0, 1, 2, 3], [50, 55, 52, 48], [1, 1, 1, 1])
        fit = timedomain.fit_lightcurve(lc)
        assert timedomain.classify_chain(4, False, lc, fit,
                                         survey_span_days=50.0) == "transient"

    def test_full_span_static(self):
        n = 20
        lc = make_lc(np.arange(n, dtype=float), np.full(n, 50.0), np.full(n, 1.0))
        fit = timedomain.fit_lightcurve(lc)
        assert timedomain.classify_chain(n, False, lc, fit,
                                         survey_span_days=20.0) == "static"

    def test_missing_fit_rejected(self):
        with pytest.raises(ValidationError):
            timedomain.classify_chain(5, False, None, None)


def survey_with_masters(tmp_path, **kw):
    cfg = skygen.SurveyConfig(**kw)
    truth, det, labels, _ = skygen.write_survey(cfg, tmp_path)
    store.build_indexes(tmp_path, 1.0)
    masters, _ = store.build_master(tmp_path, 1.0)
    return truth, det, labels, masters


def dense_trigger(stream, masters, match_radius_arcsec, k_sigma=5.0):
    """The trigger as a chunked dense matmul over every master, which
    `run_trigger` replaced; kept as its oracle. The stream must be ordered."""
    det_unit = sphere.radec_to_unit(stream["ra"], stream["dec"])
    master_unit = sphere.radec_to_unit(masters["ra"], masters["dec"])
    cos_limit = np.cos(np.radians(match_radius_arcsec / sphere.ARCSEC_PER_DEG))
    alerts = []
    if len(masters) == 0:
        return [timedomain.Alert("new-source", float(d["mjd"]), float(d["ra"]),
                                 float(d["dec"]), float(d["flux"]), 0.0, 0) for d in stream]
    chunk = max(1, int(4e6 / len(masters)))
    for lo in range(0, len(stream), chunk):
        hi = min(lo + chunk, len(stream))
        dots = det_unit[lo:hi] @ master_unit.T
        best = np.argmax(dots, axis=1)
        best_dot = dots[np.arange(hi - lo), best]
        for i in range(hi - lo):
            d = stream[lo + i]
            if best_dot[i] < cos_limit:
                alerts.append(timedomain.Alert("new-source", float(d["mjd"]), float(d["ra"]),
                                               float(d["dec"]), float(d["flux"]), 0.0, 0))
                continue
            m = masters[best[i]]
            combined = np.sqrt(float(d["flux_err"]) ** 2 + float(m["flux_variance"]))
            if combined <= 0:
                combined = float(d["flux_err"])
            dev = abs(float(d["flux"]) - float(m["mean_flux"])) / combined
            if dev > k_sigma:
                alerts.append(timedomain.Alert("flux-anomaly", float(d["mjd"]), float(d["ra"]),
                                               float(d["dec"]), float(d["flux"]), float(dev),
                                               int(m["master_id"])))
    return alerts


def all_pairs(keys, query):
    """Stand-in for `sphere.cell_pairs` that makes every key a candidate of
    every query."""
    return (np.repeat(np.arange(len(query)), len(keys)),
            np.tile(np.arange(len(keys)), len(query)))


def offset(unit, angle_rad, rng):
    """Unit vectors `angle_rad` away from each row of `unit`, in random
    directions."""
    tangent = np.cross(unit, rng.normal(size=unit.shape))
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    return unit * np.cos(angle_rad)[:, None] + tangent * np.sin(angle_rad)[:, None]


def trigger_case(masters_unit, stream_unit, rng, flux=None):
    """Masters (ids 1..M, mean flux 100) and a (mjd, zone)-ordered stream."""
    masters = np.zeros(len(masters_unit), dtype=store.MASTER_DTYPE)
    masters["master_id"] = np.arange(1, len(masters) + 1)
    masters["ra"], masters["dec"] = sphere.unit_to_radec(masters_unit)
    masters["mean_flux"] = 100.0
    masters["flux_variance"] = rng.uniform(0.0, 4.0, len(masters))
    stream = np.zeros(len(stream_unit), dtype=store.DET_DTYPE)
    stream["det_id"] = np.arange(1, len(stream) + 1)
    stream["mjd"] = 60000.0 + rng.integers(0, 3, len(stream))
    stream["ra"], stream["dec"] = sphere.unit_to_radec(stream_unit)
    stream["zone"] = sphere.zone_of(stream["dec"], 1.0)
    stream["flux"] = 100.0 + rng.normal(0.0, 6.0, len(stream)) if flux is None else flux
    stream["flux_err"] = 1.0
    return stream[np.lexsort((stream["zone"], stream["mjd"]))], masters


class TestTriggerOracle:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("radius", [0.5, 2.0, 10.0, 3600.0])
    def test_seeded_streams_match_dense_oracle(self, seed, radius):
        rng = np.random.Generator(np.random.PCG64(seed))
        theta = np.radians(radius / 3600.0)
        sky = sphere.radec_to_unit(rng.uniform(0, 360, 600),
                                   np.degrees(np.arcsin(rng.uniform(-1, 1, 600))))
        # close master pairs make the nearest choice matter
        masters_unit = np.concatenate([sky[:500], offset(sky[:100], theta * rng.uniform(
            0.2, 1.5, 100), rng)])
        near = offset(masters_unit[rng.integers(0, 600, 400)],
                      theta * rng.uniform(0.0, 2.0, 400), rng)
        stream, masters = trigger_case(masters_unit, np.concatenate([near, sky[500:]]), rng)
        got = timedomain.run_trigger(stream, masters, radius)
        assert {a.kind for a in got} == {"new-source", "flux-anomaly"}
        assert got == dense_trigger(stream, masters, radius)

    @pytest.mark.parametrize("radius", [60.0, 3600.0])
    def test_radius_boundary_matches_dense_oracle(self, radius):
        # At 2" a relative change of 1e-6 in angle moves cos by less than one
        # ulp, so the dot test cannot see it; at 60" it is hundreds of ulps.
        rng = np.random.Generator(np.random.PCG64(5))
        theta = np.radians(radius / 3600.0)
        masters_unit = sphere.radec_to_unit(rng.uniform(0, 360, 50),
                                            rng.uniform(-60, 60, 50))
        scale = np.repeat([1 - 1e-6, 1 + 1e-6], 50)
        stream_unit = offset(np.concatenate([masters_unit] * 2), theta * scale, rng)
        stream, masters = trigger_case(masters_unit, stream_unit, rng, flux=200.0)
        got = timedomain.run_trigger(stream, masters, radius)
        assert got == dense_trigger(stream, masters, radius)
        assert sorted(a.kind for a in got) == ["flux-anomaly"] * 50 + ["new-source"] * 50

    @pytest.mark.parametrize("lower", ["north", "south"])
    def test_equidistant_masters_go_to_lower_index(self, lower):
        rng = np.random.Generator(np.random.PCG64(6))
        north, south = sphere.radec_to_unit([10.0, 10.0], [1 / 3600, -1 / 3600])
        pair = [north, south] if lower == "north" else [south, north]
        stream, masters = trigger_case(np.array(pair), sphere.radec_to_unit([10.0], [0.0]),
                                       rng, flux=200.0)
        got = timedomain.run_trigger(stream, masters, 2.0)
        assert got == dense_trigger(stream, masters, 2.0)
        assert [(a.kind, a.nearest_master_id) for a in got] == [("flux-anomaly", 1)]

    @pytest.mark.parametrize("radius,spread", [(1e-4, (0.0, 40.0)), (1e-3, (0.0, 10.0)),
                                               (2.0, (1 - 3e-6, 1 + 3e-6))])
    def test_candidates_cover_every_master_the_dot_admits(self, monkeypatch, radius, spread):
        # Rounding lets the dot test admit masters beyond the chord: up to
        # about 20 chords at 1e-4", a few parts in 1e6 of it at 2".
        rng = np.random.Generator(np.random.PCG64(8))
        theta = np.radians(radius / 3600.0)
        masters_unit = sphere.radec_to_unit(rng.uniform(0, 360, 200), rng.uniform(-80, 80, 200))
        stream_unit = offset(np.repeat(masters_unit, 5, axis=0),
                             theta * rng.uniform(*spread, 1000), rng)
        stream, masters = trigger_case(masters_unit, stream_unit, rng)
        got = timedomain.run_trigger(stream, masters, radius)
        monkeypatch.setattr(sphere, "cell_pairs", all_pairs)
        want = timedomain.run_trigger(stream, masters, radius)
        assert got == want
        assert 0.1 < sum(a.kind == "new-source" for a in want) / len(stream) < 0.9

    def test_no_masters(self):
        rng = np.random.Generator(np.random.PCG64(7))
        stream, masters = trigger_case(np.empty((0, 3)),
                                       sphere.radec_to_unit([10.0, 20.0], [0.0, 5.0]), rng)
        got = timedomain.run_trigger(stream, masters, 2.0)
        assert got == dense_trigger(stream, masters, 2.0)
        assert [a.kind for a in got] == ["new-source"] * 2


class TestTrigger:
    def make_stream(self, masters, rows, flux, mjd=60000.0):
        stream = np.zeros(len(rows), dtype=store.DET_DTYPE)
        stream["det_id"] = np.arange(1, len(rows) + 1)
        stream["mjd"] = mjd
        stream["ra"] = masters["ra"][rows]
        stream["dec"] = masters["dec"][rows]
        stream["flux"] = flux
        stream["flux_err"] = 1.0
        stream["zone"] = sphere.zone_of(stream["dec"], 1.0)
        order = np.lexsort((stream["zone"], stream["mjd"]))
        return stream[order]

    def test_quiescent_stream_is_silent(self, tmp_path):
        _, _, _, masters = survey_with_masters(
            tmp_path, n_objects=100, passes=10, seed=9)
        rows = np.arange(len(masters))
        stream = self.make_stream(masters, rows, masters["mean_flux"][rows])
        assert timedomain.run_trigger(stream, masters, 2.0, k_sigma=5.0) == []

    def test_new_source_alert(self, tmp_path):
        _, _, _, masters = survey_with_masters(
            tmp_path, n_objects=50, passes=5, seed=10)
        stream = np.zeros(1, dtype=store.DET_DTYPE)
        stream["det_id"] = 1
        stream["mjd"] = 60000.0
        # antipode of the first master: guaranteed empty sky
        stream["ra"] = (masters["ra"][0] + 180.0) % 360.0
        stream["dec"] = -masters["dec"][0]
        stream["flux"] = 500.0
        stream["flux_err"] = 1.0
        alerts = timedomain.run_trigger(stream, masters, 2.0)
        assert [a.kind for a in alerts] == ["new-source"]
        assert alerts[0].nearest_master_id == 0

    def test_flux_anomaly_threshold(self, tmp_path):
        _, _, _, masters = survey_with_masters(
            tmp_path, n_objects=20, passes=10, seed=11)
        quiet = masters["flux_variance"] < 1.0
        target = int(np.flatnonzero(quiet)[0])
        combined = np.sqrt(1.0 + masters["flux_variance"][target])
        stream = self.make_stream(masters, np.array([target]),
                                  masters["mean_flux"][target] + 10.0 * combined)
        alerts = timedomain.run_trigger(stream, masters, 2.0, k_sigma=5.0)
        assert [a.kind for a in alerts] == ["flux-anomaly"]
        assert alerts[0].deviation_sigmas == pytest.approx(10.0, rel=0.05)
        assert alerts[0].nearest_master_id == masters["master_id"][target]

    def test_unordered_stream_rejected(self, tmp_path):
        _, _, _, masters = survey_with_masters(
            tmp_path, n_objects=10, passes=3, seed=12)
        stream = self.make_stream(masters, np.arange(4), 100.0)
        stream["mjd"] = [60001.0, 60000.0, 60002.0, 60003.0]
        with pytest.raises(ValidationError, match="record 1"):
            timedomain.run_trigger(stream, masters, 2.0)

    def test_bad_radius(self, tmp_path):
        with pytest.raises(ValidationError):
            timedomain.run_trigger(np.empty(0, dtype=store.DET_DTYPE),
                                   np.empty(0, dtype=store.MASTER_DTYPE), 0.0)


def mover_orphans(tracks, passes, cadence=1.0, start_mjd=59000.0):
    """Synthesize orphan detections for exact great-circle movers.

    tracks: list of (ra0, dec0, rate_deg_day, position_angle_deg)."""
    chunks = []
    det_id = 1
    for ra0, dec0, rate, pa in tracks:
        u0 = sphere.radec_to_unit(ra0, dec0)
        east, north = skygen._tangent_basis(u0[None, :])
        d = north[0] * np.cos(np.radians(pa)) + east[0] * np.sin(np.radians(pa))
        recs = np.zeros(passes, dtype=store.DET_DTYPE)
        for p in range(passes):
            arc = np.radians(rate) * p * cadence
            u = u0 * np.cos(arc) + d * np.sin(arc)
            ra, dec = sphere.unit_to_radec(u[None, :])
            recs["ra"][p] = ra[0]
            recs["dec"][p] = dec[0]
            recs["mjd"][p] = start_mjd + p * cadence
            recs["pass_id"][p] = p
        recs["det_id"] = np.arange(det_id, det_id + passes)
        det_id += passes
        recs["flux"] = 100.0
        recs["flux_err"] = 1.0
        chunks.append(recs)
    return np.concatenate(chunks)


def mover_fields(tracks):
    return [(t.track_id, t.det_ids.tolist(), t.ref_mjd, t.ra, t.dec, t.rate_deg_day,
             t.position_angle_deg, t.rms_arcsec, t.debris_candidate) for t in tracks]


class TestMotionFit:
    def test_exact_great_circle_zero_residual(self):
        orphans = mover_orphans([(40.0, 10.0, 0.1, 30.0)], passes=3)
        unit = sphere.radec_to_unit(orphans["ra"], orphans["dec"])
        pred, rate, pa, rms = timedomain.fit_motion(orphans["mjd"], unit)
        assert rms < 1e-6
        assert rate == pytest.approx(0.1, rel=1e-9)
        assert pa == pytest.approx(30.0, abs=1e-6)

    def test_rate_recovered_across_parameters(self):
        for ra0, dec0, rate, pa in [(0, 0, 0.05, 0), (120, -45, 0.2, 200),
                                    (300, 60, 0.02, 90)]:
            orphans = mover_orphans([(ra0, dec0, rate, pa)], passes=5)
            unit = sphere.radec_to_unit(orphans["ra"], orphans["dec"])
            _, got_rate, got_pa, rms = timedomain.fit_motion(orphans["mjd"], unit)
            assert got_rate == pytest.approx(rate, rel=1e-9)
            assert got_pa == pytest.approx(pa, abs=1e-6)
            assert rms < 1e-6


class TestLinkMovers:
    def test_single_track_recovered(self):
        orphans = mover_orphans([(100.0, 20.0, 0.1, 45.0)], passes=5)
        tracks = timedomain.link_movers(orphans, 0.5, 1.0)
        assert len(tracks) == 1
        t = tracks[0]
        assert set(t.det_ids.tolist()) == set(orphans["det_id"].tolist())
        assert t.rate_deg_day == pytest.approx(0.1, rel=1e-6)
        assert t.rms_arcsec < 0.01
        assert not t.debris_candidate

    def test_two_crossing_tracks_stay_separate(self):
        orphans = mover_orphans([(50.0, 0.0, 0.1, 90.0),
                                 (50.2, 0.2, 0.1, 180.0)], passes=5)
        tracks = timedomain.link_movers(orphans, 0.5, 1.0)
        assert len(tracks) == 2
        ids = [set(t.det_ids.tolist()) for t in tracks]
        assert ids[0].isdisjoint(ids[1])
        assert ids[0] | ids[1] == set(orphans["det_id"].tolist())

    def test_static_orphans_yield_no_tracks(self):
        rng = np.random.Generator(np.random.PCG64(21))
        n = 60
        orphans = np.zeros(n, dtype=store.DET_DTYPE)
        orphans["det_id"] = np.arange(1, n + 1)
        orphans["pass_id"] = np.repeat(np.arange(6), 10)
        orphans["mjd"] = 59000.0 + orphans["pass_id"]
        orphans["ra"] = rng.uniform(0, 360, n)
        orphans["dec"] = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
        orphans["flux"] = 100.0
        orphans["flux_err"] = 1.0
        assert timedomain.link_movers(orphans, 0.5, 1.0) == []

    def test_order_invariant(self):
        orphans = mover_orphans([(10.0, -30.0, 0.15, 300.0),
                                 (200.0, 45.0, 0.05, 10.0)], passes=4)
        rng = np.random.Generator(np.random.PCG64(22))
        shuffled = orphans[rng.permutation(len(orphans))]
        a = timedomain.link_movers(orphans, 0.5, 1.0)
        b = timedomain.link_movers(shuffled, 0.5, 1.0)
        assert [sorted(t.det_ids.tolist()) for t in a] == \
            [sorted(t.det_ids.tolist()) for t in b]

    def test_debris_flag(self):
        orphans = mover_orphans([(80.0, 5.0, 1.5, 60.0)], passes=4)
        tracks = timedomain.link_movers(orphans, 5.0, 1.0)
        assert len(tracks) == 1
        assert tracks[0].debris_candidate

    def test_min_length_respected(self):
        orphans = mover_orphans([(80.0, 5.0, 0.1, 60.0)], passes=3)
        assert timedomain.link_movers(orphans, 0.5, 1.0, min_track_length=4) == []

    def test_rejects_bad_cuts(self):
        with pytest.raises(ValidationError):
            timedomain.link_movers(np.empty(0, dtype=store.DET_DTYPE), 0.0, 1.0)
        with pytest.raises(ValidationError):
            timedomain.link_movers(np.empty(0, dtype=store.DET_DTYPE), 1.0, 1.0,
                                   min_track_length=1)

    def test_empty_input(self):
        assert timedomain.link_movers(np.empty(0, dtype=store.DET_DTYPE),
                                      0.5, 1.0) == []

    def test_search_angle_past_180_degrees(self):
        # 50 deg/day for 1 day: the search angle of rate_max * 1 day passes
        # 180 deg at rate_max 400 and must not wrap back below 50 deg
        orphans = mover_orphans([(30.0, 10.0, 50.0, 70.0)], passes=3)
        for rate_max in (60.0, 400.0):
            tracks = timedomain.link_movers(orphans, rate_max, 1.0)
            assert [t.det_ids.tolist() for t in tracks] == [[1, 2, 3]]
            assert tracks[0].rate_deg_day == pytest.approx(50.0, rel=1e-9)

    @pytest.mark.parametrize("seed", [55, 57])
    @pytest.mark.parametrize("rate_max,residual", [(0.5, 5.0), (0.5, 10.0), (2.0, 5.0)])
    def test_equals_linking_over_all_cross_pass_pairs(self, tmp_path, monkeypatch,
                                                      seed, rate_max, residual):
        _, _, _, masters = survey_with_masters(tmp_path, n_objects=60, passes=6, seed=seed,
                                               mover_fraction=0.4, position_noise_arcsec=0.5)
        recs = store.read_all(tmp_path)
        singles = masters["master_id"][masters["n_detections"] == 1]
        orphans = recs[np.isin(recs["master_id"], singles)]
        got = mover_fields(timedomain.link_movers(orphans, rate_max, residual))
        monkeypatch.setattr(sphere, "cell_pairs", all_pairs)
        want = mover_fields(timedomain.link_movers(orphans, rate_max, residual))
        assert got == want
        assert len(want) >= 5

    def test_mixed_cadence_equals_linking_over_all_cross_pass_pairs(self, monkeypatch):
        # Tracks seen every 1.5 days search farther than tracks seen daily in
        # the same passes; the pass pair's cells must fit the farthest search.
        rng = np.random.Generator(np.random.PCG64(23))
        slow = [(rng.uniform(0, 360), rng.uniform(-60, 60), 0.45, rng.uniform(0, 360))
                for _ in range(12)]
        daily = [(rng.uniform(0, 360), rng.uniform(-60, 60), 0.2, rng.uniform(0, 360))
                 for _ in range(4)]
        orphans = np.concatenate([mover_orphans(slow, passes=4, cadence=1.5),
                                  mover_orphans(daily, passes=4, start_mjd=59000.5)])
        orphans["det_id"] = np.arange(1, len(orphans) + 1)
        got = mover_fields(timedomain.link_movers(orphans, 0.5, 1.0))
        monkeypatch.setattr(sphere, "cell_pairs", all_pairs)
        want = mover_fields(timedomain.link_movers(orphans, 0.5, 1.0))
        assert got == want
        assert len(want) == 16

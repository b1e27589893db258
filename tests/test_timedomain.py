import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skymine import skygen, sphere, store, timedomain
from skymine.errors import ValidationError
from skymine.timedomain import LightCurve


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


def oracle_fit(lc, freq_grid):
    w = 1.0 / lc.flux_errs ** 2
    mean = float(np.sum(w * lc.fluxes) / np.sum(w))
    chi2 = float(np.sum(w * (lc.fluxes - mean) ** 2))
    dof = max(len(lc) - 1, 1)
    if len(lc) < 3:
        cls = "static" if chi2 / dof <= timedomain.VARIABILITY_CHI2_DOF else "variable"
        return timedomain.LightCurveFit(chi2, len(lc) - 1, mean, None, 0.0, 0.0, cls)
    freqs = np.linspace(freq_grid[0], freq_grid[1], int(freq_grid[2]))
    power, amp = oracle_periodogram(lc, freqs)
    best = int(np.argmax(power))
    best_frequency = float(freqs[best])
    periodic_power = float(power[best])
    amplitude_fraction = float(amp[best] / abs(mean)) if mean != 0 else 0.0
    if chi2 / dof <= timedomain.VARIABILITY_CHI2_DOF:
        cls = "static"
    elif periodic_power > timedomain.PERIODIC_POWER:
        cls = "variable"
    elif timedomain._transient_shape(lc):
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


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def reference_link_movers(orphans, rate_max_deg_day, residual_max_arcsec,
                          min_track_length=3):
    """`link_movers` as a per-pair loop with a union-find over pairs, which
    the array passes replaced; kept as their oracle."""
    if rate_max_deg_day <= 0 or residual_max_arcsec <= 0:
        raise ValidationError("rate_max and residual_max must be > 0")
    if min_track_length < 2:
        raise ValidationError("min_track_length must be >= 2")
    if len(orphans) == 0:
        return []
    orphans = np.sort(np.asarray(orphans), order=["det_id"])
    unit = sphere.radec_to_unit(orphans["ra"], orphans["dec"])
    passes = np.unique(orphans["pass_id"])
    by_pass = {int(p): np.flatnonzero(orphans["pass_id"] == p) for p in passes}
    residual_deg = residual_max_arcsec / sphere.ARCSEC_PER_DEG

    mjd = orphans["mjd"]
    pair_rows = []
    pair_params = []
    for p_lo, p_hi in zip(passes[:-1], passes[1:]):
        rows_lo, rows_hi = by_pass[int(p_lo)], by_pass[int(p_hi)]
        ahead = mjd[rows_hi].min() - mjd[rows_lo] > 0
        rows_lo = rows_lo[ahead]
        if not len(rows_lo):
            continue
        max_sep = np.minimum(np.radians(rate_max_deg_day * (mjd[rows_hi].max() - mjd[rows_lo])),
                             np.pi)
        chord = sphere.chord_for_angle(max_sep)
        edge = max(float(chord.max()), 1e-9)
        q, t = sphere.cell_pairs(sphere.cell_keys(unit[rows_hi], edge),
                                 sphere.cell_keys(unit[rows_lo], edge))
        diff = unit[rows_hi[t]] - unit[rows_lo[q]]
        near = np.einsum("ij,ij->i", diff, diff) <= chord[q] * chord[q]
        q, t = q[near], t[near]
        order = np.lexsort((t, q))
        for row_a, row_b in zip(rows_lo[q[order]].tolist(), rows_hi[t[order]].tolist()):
            dt_ab = float(mjd[row_b] - mjd[row_a])
            if dt_ab <= 0:
                continue
            sep = float(sphere.angle_between(unit[row_a], unit[row_b]))
            rate = np.degrees(sep) / dt_ab
            if rate > rate_max_deg_day:
                continue
            normal = np.cross(unit[row_a], unit[row_b])
            nn = np.linalg.norm(normal)
            if nn < 1e-15:
                continue
            pair_rows.append((row_a, row_b))
            pair_params.append((rate, normal / nn, dt_ab, sep))
    if not pair_rows:
        return []

    uf = _UnionFind(len(pair_rows))
    by_det = {}
    for k, (a, b) in enumerate(pair_rows):
        by_det.setdefault(a, []).append(k)
        by_det.setdefault(b, []).append(k)
    for shared in by_det.values():
        for i in range(len(shared)):
            for j in range(i + 1, len(shared)):
                ki, kj = shared[i], shared[j]
                r1, n1, dt1, sep1 = pair_params[ki]
                r2, n2, dt2, sep2 = pair_params[kj]
                rate_tol = 4.0 * residual_deg / min(dt1, dt2)
                if abs(r1 - r2) > rate_tol:
                    continue
                tilt_tol = 4.0 * np.radians(residual_deg) / max(min(sep1, sep2), 1e-12)
                if float(n1 @ n2) < np.cos(min(tilt_tol, np.pi / 2)):
                    continue
                uf.union(ki, kj)

    groups = {}
    for k, (a, b) in enumerate(pair_rows):
        root = uf.find(k)
        groups.setdefault(root, set()).update((a, b))

    tracks = []
    used_rows = set()
    track_id = 1
    for root in sorted(groups, key=lambda r: min(groups[r])):
        rows = sorted(groups[root] - used_rows)
        if len(rows) < min_track_length:
            continue
        rows_arr = np.asarray(rows)
        order = np.argsort(orphans["mjd"][rows_arr], kind="stable")
        rows_arr = rows_arr[order]
        pred, rate, pa, rms = timedomain.fit_motion(orphans["mjd"][rows_arr], unit[rows_arr])
        if rms > residual_max_arcsec or rate > rate_max_deg_day:
            continue
        ra0, dec0 = sphere.unit_to_radec(pred[0])
        tracks.append(timedomain.MoverTrack(
            track_id=track_id,
            det_ids=orphans["det_id"][rows_arr].astype(np.int64),
            ref_mjd=float(orphans["mjd"][rows_arr][0]),
            ra=float(ra0), dec=float(dec0),
            rate_deg_day=rate,
            position_angle_deg=pa,
            rms_arcsec=rms,
            debris_candidate=rate > timedomain.DEBRIS_RATE_CUT,
        ))
        used_rows.update(int(r) for r in rows_arr)
        track_id += 1
    return tracks


@pytest.fixture(scope="module")
def survey_orphans(tmp_path_factory):
    """orphans(seed, n_objects, passes, mover_fraction): the single-detection
    records of a mastered skygen store with the `mine` benchmark's kind mix
    (by default its 1,000 x 40 shape), built once per argument tuple."""
    cache = {}

    def orphans(seed, n_objects=1000, passes=40, mover_fraction=0.05):
        key = (seed, n_objects, passes, mover_fraction)
        if key not in cache:
            out = tmp_path_factory.mktemp("movers")
            _, _, _, masters = survey_with_masters(
                out, n_objects=n_objects, passes=passes, seed=seed,
                periodic_fraction=0.1, transient_fraction=0.05,
                mover_fraction=mover_fraction, position_noise_arcsec=0.05)
            recs = store.read_all(out)
            singles = masters["master_id"][masters["n_detections"] == 1]
            cache[key] = recs[np.isin(recs["master_id"], singles)]
        return cache[key]

    return orphans


def pass_detections(positions, pass_ids, det_ids, start_mjd=59000.0):
    """Orphan records at (ra, dec) positions, one per pass, daily."""
    recs = np.zeros(len(positions), dtype=store.DET_DTYPE)
    recs["ra"], recs["dec"] = np.asarray(positions, dtype=np.float64).T
    recs["pass_id"] = pass_ids
    recs["mjd"] = start_mjd + recs["pass_id"]
    recs["det_id"] = det_ids
    recs["flux"] = 100.0
    recs["flux_err"] = 1.0
    return recs


class TestLinkMoversOracle:
    """`link_movers` returns exactly what the per-pair reference returns."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("rate_max,residual,min_length",
                             [(0.5, 5.0, 3), (0.5, 10.0, 3), (2.0, 5.0, 3),
                              (5.0, 30.0, 2), (20.0, 60.0, 3)])
    def test_mine_shaped_stores(self, survey_orphans, seed, rate_max, residual, min_length):
        orphans = survey_orphans(seed)
        want = mover_fields(reference_link_movers(orphans, rate_max, residual, min_length))
        assert mover_fields(timedomain.link_movers(orphans, rate_max, residual,
                                                   min_length)) == want
        assert len(want) >= 40

    def test_all_sky_search(self, survey_orphans):
        # at 400 deg/day every detection of a pass pairs with every detection
        # of the next, and most pairs share a detection with many others
        orphans = survey_orphans(3, n_objects=100, passes=8, mover_fraction=0.2)
        want = mover_fields(reference_link_movers(orphans, 400.0, 5.0))
        assert mover_fields(timedomain.link_movers(orphans, 400.0, 5.0)) == want
        assert len(want) >= 10

    def test_comparisons_in_many_batches(self, survey_orphans, monkeypatch):
        # batches of 1,000 split detections' runs of pairs at their edges
        orphans = survey_orphans(3, n_objects=100, passes=8, mover_fraction=0.2)
        want = mover_fields(reference_link_movers(orphans, 400.0, 5.0))
        monkeypatch.setattr(timedomain, "_MERGE_BATCH", 1000)
        assert mover_fields(timedomain.link_movers(orphans, 400.0, 5.0)) == want

    def test_groups_tied_on_lowest_detection_go_in_pair_order(self):
        # X (det 1) moves on from W northward and on to Y eastward: two
        # incompatible pairs, two groups whose lowest detection is X. The
        # group of the earlier pair, (W, X) of passes 0-1, takes X, although
        # Y's det_id is below W's.
        orphans = pass_detections([(100.0, 20.0), (100.0 + 0.1 / np.cos(np.radians(20.0)),
                                                   20.0), (100.0, 19.9)],
                                  [1, 2, 0], [1, 2, 3])
        want = mover_fields(reference_link_movers(orphans, 0.5, 1.0, 2))
        assert [ids for _, ids, *_ in want] == [[3, 1]]
        assert mover_fields(timedomain.link_movers(orphans, 0.5, 1.0, 2)) == want

    def test_rate_tolerance_is_closed(self):
        # W, X, Y along one meridian, 0.1 deg and 0.101 deg apart a day each:
        # the residual is chosen so that the two pairs' rates differ by
        # exactly the rate tolerance, and the pairs still merge
        orphans = pass_detections([(100.0, 20.0), (100.0, 20.1), (100.0, 20.201)],
                                  [0, 1, 2], [1, 2, 3])
        unit = sphere.radec_to_unit(orphans["ra"], orphans["dec"])
        rates = [np.degrees(float(sphere.angle_between(unit[i], unit[i + 1]))) for i in (0, 1)]
        gap = abs(rates[0] - rates[1])
        near = gap / 4.0 * sphere.ARCSEC_PER_DEG
        residual = next(float(r) for r in near + np.spacing(near) * np.arange(-4, 5)
                        if 4.0 * (r / sphere.ARCSEC_PER_DEG) == gap)
        want = mover_fields(reference_link_movers(orphans, 0.5, residual))
        assert [ids for _, ids, *_ in want] == [[1, 2, 3]]
        assert mover_fields(timedomain.link_movers(orphans, 0.5, residual)) == want

    def test_earlier_track_claims_rows_of_a_later_group(self):
        # Two tracks leave one detection (det 10) in different directions.
        # Both groups hold it; the group of lower lowest detection (det 2)
        # becomes track 1, and the other is fit without det 10.
        orphans = mover_orphans([(40.0, -10.0, 0.1, 90.0), (40.0, -10.0, 0.1, 0.0)],
                                passes=4)
        orphans = orphans[orphans["det_id"] != 5]
        orphans["det_id"][orphans["det_id"] == 1] = 10
        want = mover_fields(reference_link_movers(orphans, 0.5, 1.0))
        assert [ids for _, ids, *_ in want] == [[10, 2, 3, 4], [6, 7, 8]]
        assert mover_fields(timedomain.link_movers(orphans, 0.5, 1.0)) == want


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

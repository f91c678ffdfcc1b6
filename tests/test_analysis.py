"""Lyapunov machinery, stability eigenvalues, classification, scans and the
scan's y1 maxima.

Oracles: linear systems with known exponents, Jacobian eigenvalues at the
fixed point, the divergence identity (spectrum sum = trace average), and
sampled parabolas and cosines for the refined maxima.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dynlab import integrator
from dynlab.analysis import (
    LyapunovReport,
    ScanSettings,
    _local_maxima,
    classify,
    equilibrium_stability,
    lyapunov_spectrum,
    parameter_scan,
    trace_average,
)
from dynlab.integrator import IntegratorConfig, Trajectory, integrate
from dynlab.model import (
    DynamicalSystem,
    Params,
    equilibrium,
    full_jacobian,
    full_system,
    lift,
    reduced_system,
)

RNG = np.random.default_rng(43)

FAST = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9)


def linear_system(A):
    A = np.asarray(A, dtype=float)
    return DynamicalSystem(field=lambda t, y: A @ y, jacobian=lambda t, y: A, dim=A.shape[0])


def constant_report(exponents, diverged=False):
    lam = np.asarray(exponents, dtype=float)
    return LyapunovReport(
        exponents=lam,
        t_total=100.0,
        renorm_interval=1.0,
        convergence_trace=np.tile(lam, (5, 1)),
        trace_times=np.arange(1.0, 6.0),
        diverged=diverged,
    )


def circle_trajectory(t_end=40.0, stride=0.02):
    t = np.arange(0.0, t_end + stride / 2, stride)
    states = np.column_stack((np.cos(t), np.sin(t)))
    return Trajectory(times=t, states=states, dimension=2)


class TestLyapunovSpectrum:
    def test_linear_oracle(self):
        """diag(-1,-2) has exponents exactly (-1,-2)."""
        rep = lyapunov_spectrum(
            linear_system(np.diag([-1.0, -2.0])), [1.0, 1.0], 0.0, 100.0, 1.0, IntegratorConfig()
        )
        np.testing.assert_allclose(rep.exponents, [-1.0, -2.0], atol=1e-6)
        assert not rep.diverged
        assert rep.convergence_trace.shape[0] == 100

    def test_descending_order(self):
        rep = lyapunov_spectrum(
            linear_system(np.diag([-3.0, 0.5, -1.0])), [1.0, 1.0, 1.0], 0.0, 50.0, 1.0, FAST
        )
        assert np.all(np.diff(rep.exponents) <= 0)
        np.testing.assert_allclose(rep.exponents, [0.5, -1.0, -3.0], atol=1e-6)

    def test_stable_full_system_all_negative(self):
        """C=-3, E=-1, F=0: the only limit set is the fixed point, so every
        exponent is negative.  Whole-window averages from a generic start
        carry a column re-sorting transient (repeated eigenvalues), so the
        eigenvalue comparison uses the settled per-interval tail rates."""
        from dynlab.integrator import TangentBundle, integrate_with_tangents

        p = Params(C=-3.0, D=-1.0, E=-1.0, F=0.0)
        y0 = equilibrium(p) + 0.01 * RNG.uniform(-1, 1, 5)
        rep = lyapunov_spectrum(full_system(p), y0, 20.0, 520.0, 1.0, IntegratorConfig())
        assert np.all(rep.exponents < 0.0)
        base = integrate(full_system(p).field, y0, 0.0, 20.0, 20.0, IntegratorConfig()).states[-1]
        _, log, _ = integrate_with_tangents(
            full_system(p).field, full_system(p).jacobian,
            TangentBundle(base=base, frame=np.eye(5)), 20.0, 520.0, 1.0, IntegratorConfig(),
        )
        eig = np.sort(np.linalg.eigvals(full_jacobian(equilibrium(p), p)).real)[::-1]
        tail = np.sort(log.log_stretches[-50:].mean(axis=0))[::-1]
        np.testing.assert_allclose(tail, eig, atol=1e-3)

    def test_reduced_equilibrium_matches_jacobian(self):
        """Started at the fixed point itself the frame alignment is exact and
        the window averages match the Jacobian real parts."""
        p = Params(C=-3.0, D=-1.0, E=-1.0, F=0.5)
        K = 0.8
        z_eq = np.array([0.0, 0.0, -p.F / p.E])
        eig = np.sort(np.linalg.eigvals(reduced_system(p, K).jacobian(0.0, z_eq)).real)[::-1]
        rep = lyapunov_spectrum(reduced_system(p, K), z_eq, 0.0, 500.0, 1.0, IntegratorConfig())
        np.testing.assert_allclose(rep.exponents, eig, atol=1e-2)

    def test_spectrum_sum_matches_trace_average_equilibrium(self):
        p = Params(C=-3.0, D=-1.0, E=-1.0, F=0.0)
        y0 = equilibrium(p) + 0.01 * RNG.uniform(-1, 1, 5)
        rep = lyapunov_spectrum(full_system(p), y0, 20.0, 220.0, 1.0, FAST)
        tr = trace_average(full_system(p), y0, 0.0, 220.0, 0.5, FAST)
        s = rep.exponents.sum()
        assert abs(s - tr) <= 1e-2 * (1.0 + abs(s))

    def test_spectrum_sum_matches_trace_average_chaotic(self):
        """Divergence identity on the chaotic attractor at C=-1."""
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
        z0 = np.array([0.1, 0.05, 0.0])
        sys3 = reduced_system(p, 0.0)
        rep = lyapunov_spectrum(sys3, z0, 100.0, 700.0, 1.0, FAST)
        # same run, same window: integrate transient, then average the trace
        tr_state = integrate(sys3.field, z0, 0.0, 100.0, 100.0, FAST).states[-1]
        tr = trace_average(sys3, tr_state, 100.0, 700.0, 0.5, FAST)
        s = rep.exponents.sum()
        assert abs(s - tr) <= 1e-2 * (1.0 + abs(s))

    @pytest.mark.parametrize(
        "system, y0, trace",
        [
            (full_system(Params(-1.0, -1.0, -0.5, 0.0)), [0.73, -0.4, 0.2, 0.33, 0.11], -4.5),
            (reduced_system(Params(-1.0, -1.0, -0.5, 0.0), 0.7), [0.1, 0.05, 0.0], -2.5),
        ],
        ids=["full", "reduced"],
    )
    def test_spectrum_sum_equals_exact_trace(self, system, y0, trace):
        """The full Jacobian's trace is 4C+E and the reduced one's 2C+E at
        every state, so the exponents sum to exactly that."""
        rep = lyapunov_spectrum(system, y0, 20.0, 120.0, 1.0, IntegratorConfig())
        assert not rep.diverged
        assert abs(rep.exponents.sum() - trace) <= 1e-5

    def test_structural_exponents(self):
        """At C = -1, D = -1, E = -0.5, F = 0 the criterion-9 start settles on
        a K-plane attractor, where the full spectrum holds the bilinear mode
        2C and the neutral K-mode; the spectrum sums to trace(J) = 4C + E."""
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
        cfg = IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8)
        rep = lyapunov_spectrum(
            full_system(p), [0.73, -0.4, 0.2, 0.33, 0.11], 100.0, 350.0, 1.0, cfg
        )
        assert np.min(np.abs(rep.exponents - 2.0 * p.C)) < 1e-2
        assert np.min(np.abs(rep.exponents)) < 1e-2
        assert abs(rep.exponents.sum() - (4.0 * p.C + p.E)) < 1e-5

    @pytest.mark.parametrize("C", [-1.5, -1.0])
    def test_k_scan_is_one_system_within_log_s_over_T(self, C):
        """A K-scan from z0_K = (u0_1/s, u0_2/s, u0_3), s = sqrt(1+K^2), runs
        the K = 0 system from u0: S z_K(t) = u(t) with S = diag(s, s, 1).  The
        identity frame in z is S in u, which changes each k-volume by a
        factor in [1, s], so over the window T = 150 each exponent moves by at
        most log(s)/T; the sum stays the exact trace 2C+E.  C = -1.0 is
        chaotic."""
        p = Params(C=C, D=-1.0, E=-0.5, F=0.0)
        cfg = IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8)
        u0 = np.array([0.8, -0.5, 0.2])
        spectra = {}
        for K in (0.0, 0.5, 1.0, 1.5, -2.0):
            s = math.sqrt(1.0 + K * K)
            z0 = u0 / np.array([s, s, 1.0])
            rep = lyapunov_spectrum(reduced_system(p, K), z0, 100.0, 250.0, 1.0, cfg)
            assert not rep.diverged
            assert abs(rep.exponents.sum() - (2.0 * C + p.E)) <= 1e-6
            spectra[K] = (rep.exponents, math.log(s) / 150.0 + 1e-6)
        for K, (lam, bound) in spectra.items():
            assert np.max(np.abs(lam - spectra[0.0][0])) <= bound, K

    def test_diverged_report(self):
        cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9, max_steps=5000)
        p = Params(C=2.0, D=1.0, E=0.5, F=0.0)
        rep = lyapunov_spectrum(full_system(p), [3.0, 1.0, 0.5, -2.0, 1.5], 0.0, 50.0, 1.0, cfg)
        assert rep.diverged

    def test_validates_window(self):
        with pytest.raises(ValueError):
            lyapunov_spectrum(linear_system(np.eye(2)), [1.0, 0.0], 10.0, 10.0, 1.0, FAST)
        # The renorm interval is checked before the transient, which here
        # would run out of steps and give a diverged report.
        budget = IntegratorConfig(max_steps=1)
        with pytest.raises(ValueError, match="renorm_interval"):
            lyapunov_spectrum(linear_system(np.eye(2)), [1.0, 0.0], 10.0, 20.0, 0.0, budget)
        with pytest.raises(ValueError, match="finite"):
            lyapunov_spectrum(linear_system(np.eye(2)), [1.0, 0.0], 10.0, math.inf, 1.0, FAST)


class TestEquilibriumStability:
    def test_E_is_an_eigenvalue(self):
        """The y3 direction decouples at the fixed point."""
        for _ in range(20):
            C, D, F = RNG.uniform(-3, 3, 3)
            E = RNG.uniform(0.2, 3.0) * RNG.choice([-1.0, 1.0])
            eig = equilibrium_stability(Params(C, D, E, F))
            assert np.min(np.abs(eig - E)) < 1e-12

    def test_stable_regime_all_negative_real_parts(self):
        eig = equilibrium_stability(Params(C=-3.0, D=-1.0, E=-1.0, F=0.0))
        assert np.all(eig.real < 0.0)

    def test_characteristic_polynomial_residual(self):
        p = Params(C=-1.3, D=0.8, E=-0.6, F=1.7)
        J = full_jacobian(equilibrium(p), p)
        coeffs = np.poly(J)
        for w in equilibrium_stability(p):
            assert abs(np.polyval(coeffs, w)) < 1e-8

    def test_sorted_by_real_part(self):
        eig = equilibrium_stability(Params(C=-0.5, D=1.0, E=-2.0, F=3.0))
        assert np.all(np.diff(eig.real) <= 1e-12)


class TestClassify:
    def test_constructed_spectra(self):
        traj = circle_trajectory(10.0, 0.1)
        assert classify(constant_report([0.4, 0.0, -1.0]), traj) == "chaotic"
        assert classify(constant_report([0.0, -1.0, -2.0]), traj) == "periodic"
        assert classify(constant_report([1e-5, -1e-5, -2.0]), traj) == "quasiperiodic-or-torus"
        assert classify(constant_report([-0.5, -1.0, -2.0]), traj) == "equilibrium"
        assert classify(constant_report([0.4, 0.0, -1.0], diverged=True), traj) == "diverged"

    def test_eps_zero_threshold(self):
        traj = circle_trajectory(10.0, 0.1)
        rep = constant_report([5e-4, -0.8, -2.0])
        assert classify(rep, traj) == "periodic"
        assert classify(rep, traj, eps_zero=1e-4) == "chaotic"

    def test_stable_run_classified_equilibrium(self):
        p = Params(C=-3.0, D=-1.0, E=-1.0, F=0.0)
        from dynlab.analysis import _spectra

        [(rep, traj, _)] = _spectra(
            [full_system(p)], [equilibrium(p) + 0.05], 20.0, 120.0, 1.0, FAST, out_stride=0.5
        )
        assert classify(rep, traj) == "equilibrium"
        tail = traj.states[-math.ceil(0.1 * traj.times.size) :]  # the trailing tenth
        assert np.abs(tail - tail[-1]).max() < 1e-6  # has genuinely settled

    def test_chaotic_attractor_classified_chaotic(self):
        p = Params(C=-0.6, D=-1.0, E=-0.5, F=0.0)
        rep = lyapunov_spectrum(reduced_system(p, 0.0), [0.1, 0.05, 0.0], 100.0, 500.0, 1.0, FAST)
        assert rep.exponents[0] > 1e-3
        assert classify(rep, None) == "chaotic"


class TestParameterScan:
    def settings(self, y0, **kw):
        base = dict(
            y0=tuple(y0),
            t_transient=40.0,
            t_total=140.0,
            renorm_interval=1.0,
            out_stride=0.1,
            integrator=FAST,
            workers=1,
        )
        base.update(kw)
        return ScanSettings(**base)

    def test_stable_range_all_equilibrium(self):
        """C in [-3, -2.2] with E=-1, F=0: fixed point is the only limit set."""
        p = Params(C=-2.5, D=-1.0, E=-1.0, F=0.0)
        records = parameter_scan(
            p, "C", np.linspace(-3.0, -2.2, 5), "fixed",
            self.settings([0.5, -0.3, 0.2, 0.0, 0.0]),
        )
        assert len(records) == 5
        assert all(r.classification == "equilibrium" for r in records)
        assert all(r.exponents[0] < 0 for r in records)

    def test_empty_values(self):
        p = Params(C=-2.5, D=-1.0, E=-1.0, F=0.0)
        assert parameter_scan(p, "C", [], "fixed", self.settings([1, 0, 0, 0, 0])) == []

    def test_fixed_and_follow_agree_on_stable_range(self):
        p = Params(C=-2.5, D=-1.0, E=-1.0, F=0.0)
        values = np.linspace(-3.0, -2.4, 3)
        s = self.settings([0.5, -0.3, 0.2, 0.1, 0.4])
        fixed = parameter_scan(p, "C", values, "fixed", s)
        follow = parameter_scan(p, "C", values, "follow", s)
        assert [r.classification for r in fixed] == [r.classification for r in follow]

    def test_k_scan_uses_reduced_system(self):
        p = Params(C=-2.5, D=-1.0, E=-1.0, F=0.5)
        records = parameter_scan(
            p, "K", [-1.0, 0.0, 1.0], "fixed", self.settings([0.4, -0.2, 0.1])
        )
        assert all(r.exponents.size == 3 for r in records)
        assert all(r.classification == "equilibrium" for r in records)

    def test_seed_dimension_checked(self):
        p = Params(C=-2.5, D=-1.0, E=-1.0, F=0.5)
        with pytest.raises(ValueError):
            parameter_scan(p, "K", [0.0], "fixed", self.settings([1.0] * 5))
        with pytest.raises(ValueError):
            parameter_scan(p, "C", [0.0], "fixed", self.settings([1.0] * 3))
        with pytest.raises(ValueError):
            parameter_scan(p, "G", [0.0], "fixed", self.settings([1.0] * 5))
        with pytest.raises(ValueError):
            parameter_scan(p, "C", [0.0], "sometimes", self.settings([1.0] * 5))

    def test_settings_need_a_finite_window(self):
        """An endless scan window is refused when the settings are made, not
        later in a worker."""
        with pytest.raises(ValueError, match="finite"):
            ScanSettings(y0=(1.0,) * 5, t_transient=10.0, t_total=math.inf)

    @pytest.mark.parametrize("bad", [{"eps_zero": -1e-3}, {"extrema_cap": -1}], ids=["eps_zero", "extrema_cap"])
    def test_settings_refuse_negative_thresholds(self, bad):
        """A negative eps_zero would label every point above it chaotic, and a
        negative cap would drop every extremum."""
        with pytest.raises(ValueError, match=next(iter(bad))):
            ScanSettings(y0=(1.0,) * 5, t_transient=10.0, t_total=20.0, **bad)

    def test_diverged_point_recorded_and_scan_continues(self):
        """A failing point is marked diverged with empty extrema; neighbours
        still produce records."""
        cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9, max_steps=4000)
        p = Params(C=-2.5, D=-1.0, E=-1.0, F=0.0)
        records = parameter_scan(
            p, "C", [-2.5, 2.5], "fixed",
            self.settings([0.5, -0.3, 0.2, 0.0, 0.0], integrator=cfg, t_transient=10.0, t_total=60.0),
        )
        assert records[0].classification == "equilibrium"
        assert records[1].classification == "diverged"
        assert records[1].extrema_sample.size == 0

    def test_extrema_counted_and_capped(self):
        """The chaotic attractor produces y1 oscillations; the cap binds."""
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
        records = parameter_scan(
            p, "K", [0.0], "fixed",
            self.settings([0.1, 0.05, 0.0], t_transient=100.0, t_total=400.0, extrema_cap=16),
        )
        assert records[0].classification == "chaotic"
        assert 0 < records[0].extrema_sample.size <= 16

    def test_parallel_matches_sequential(self):
        p = Params(C=-2.5, D=-1.0, E=-1.0, F=0.0)
        values = np.linspace(-3.0, -2.2, 4)
        seq = parameter_scan(p, "C", values, "fixed", self.settings([0.5, -0.3, 0.2, 0.0, 0.0]))
        par = parameter_scan(
            p, "C", values, "fixed", self.settings([0.5, -0.3, 0.2, 0.0, 0.0], workers=2)
        )
        for a, b in zip(seq, par):
            assert a.param_value == b.param_value
            assert a.classification == b.classification
            np.testing.assert_array_equal(a.exponents, b.exponents)
            np.testing.assert_array_equal(a.extrema_sample, b.extrema_sample)


class TestLocalMaxima:
    """`_local_maxima` gives the scan's section: the maxima of y1, each refined
    by the parabola through its sample and the two neighbours."""

    @pytest.mark.parametrize("t_star, a, c", [(0.437, 3.0, 1.25), (0.5, 1.0, 2.0), (0.3141, 7.5, -0.8)])
    def test_parabola_is_exact(self, t_star, a, c):
        t = np.linspace(0.0, 1.0, 11)
        maxima = _local_maxima(c - a * (t - t_star) ** 2, 8)
        assert maxima.size == 1
        assert abs(maxima[0] - c) <= 1e-15 * abs(c)

    def test_cosine_maxima_near_one(self):
        maxima = _local_maxima(np.cos(np.arange(0.0, 40.0, 0.1)), 64)
        assert maxima.size == 6  # one per period after t = 0
        np.testing.assert_allclose(maxima, 1.0, rtol=0.0, atol=1e-5)

    def test_cap_keeps_the_trailing_maxima(self):
        t = np.arange(0.0, 40.0, 0.1)
        growing = t * np.cos(t)  # every maximum higher than the one before
        every = _local_maxima(growing, 64)
        assert every.size == 7 and np.all(np.diff(every) > 0.0)
        np.testing.assert_array_equal(_local_maxima(growing, 3), every[-3:])
        assert _local_maxima(growing, 0).size == 0
        assert _local_maxima(t, 5).size == 0  # monotone: no maximum


def assert_same_records(a, b):
    """Records equal field by field; NaNs must sit in the same places."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.param_value, x.classification) == (y.param_value, y.classification)
        np.testing.assert_array_equal(x.exponents, y.exponents)
        np.testing.assert_array_equal(x.extrema_sample, y.extrema_sample)


class TestBatchedScan:
    """A fixed-policy shard of at least integrator._MIN_BATCH points advances its
    tangent runs as one block; every record must be the one its point gets
    on its own."""

    P = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
    CFG = IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8)

    def settings(self, y0, **kw):
        base = dict(
            y0=tuple(y0), t_transient=30.0, t_total=70.0, out_stride=0.1, integrator=self.CFG,
            workers=1,
        )
        base.update(kw)
        return ScanSettings(**base)

    def scan(self, monkeypatch, min_batch, p, name, values, settings):
        monkeypatch.setattr(integrator, "_MIN_BATCH", min_batch)
        return parameter_scan(p, name, values, "fixed", settings)

    def test_c_scan_equilibrium_and_chaos(self, monkeypatch):
        s = self.settings([0.73, -0.4, 0.2, 0.33, 0.11])
        values = np.linspace(-1.6, -0.6, 6)
        scalar = self.scan(monkeypatch, 10**9, self.P, "C", values, s)
        batched = self.scan(monkeypatch, 2, self.P, "C", values, s)
        assert_same_records(batched, scalar)
        labels = {r.classification for r in scalar}
        assert {"equilibrium", "chaotic"} <= labels

    def test_k_scan(self, monkeypatch):
        s = self.settings([0.1, 0.05, 0.0])
        values = [-1.0, -0.3, 0.0, 0.5, 1.5]
        scalar = self.scan(monkeypatch, 10**9, self.P, "K", values, s)
        batched = self.scan(monkeypatch, 2, self.P, "K", values, s)
        assert_same_records(batched, scalar)
        assert all(r.exponents.size == 3 for r in batched)

    def test_blow_up_and_step_budget_in_the_tangent_phase(self, monkeypatch):
        """On the invariant line y1 = y2 = y4 = y5 = 0 the frame grows at a
        rate rising to C + 2: C = 1 blows up after one renormalisation and
        C = 0.6 runs out of steps after the renormalisations at t = 11 and 21
        (diverged records with finite exponents from the partial logs), and
        C = -2.5 completes."""
        p = Params(C=-2.5, D=-1.0, E=-0.1, F=0.0)
        cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9, max_steps=1000)
        s = self.settings(
            [0.0, 0.0, 1.99, 0.0, 0.0], t_transient=1.0, t_total=41.0, renorm_interval=10.0,
            integrator=cfg,
        )
        values = [-2.5, 0.6, 1.0]
        scalar = self.scan(monkeypatch, 10**9, p, "C", values, s)
        batched = self.scan(monkeypatch, 2, p, "C", values, s)
        assert_same_records(batched, scalar)
        ok, budget, blown = batched
        assert ok.classification == "equilibrium"
        assert budget.classification == blown.classification == "diverged"
        assert np.all(np.isfinite(budget.exponents))
        assert np.all(np.isfinite(blown.exponents))
        assert budget.extrema_sample.size == blown.extrema_sample.size == 0

    def test_independent_of_order_shards_and_workers(self, monkeypatch):
        s = self.settings([0.73, -0.4, 0.2, 0.33, 0.11], t_transient=20.0, t_total=45.0)
        values = [-1.5, -1.3, -1.1, -0.9, -0.8, -0.7, -0.6]
        reference = self.scan(monkeypatch, 10**9, self.P, "C", values, s)
        by_value = {r.param_value: r for r in reference}
        runs = [
            (2, values, 1),  # one block of 7
            (2, values, 2),  # blocks of 4 and 3
            (4, values[::-1], 2),  # a block of 4 and a point-by-point share of 3
            (3, values[3:] + values[:3], 3),  # shares of 3, 2 and 2: one block
        ]
        for min_batch, vals, workers in runs:
            got = self.scan(monkeypatch, min_batch, self.P, "C", vals, replace(s, workers=workers))
            assert [r.param_value for r in got] == vals
            assert_same_records(got, [by_value[v] for v in vals])


class TestReducedFullConsistency:
    def test_reduced_spectrum_subset_of_full_stable(self):
        """On a K-plane start the reduced exponents appear in the full
        spectrum (the two extra exponents are transverse)."""
        p = Params(C=-3.0, D=-1.0, E=-1.0, F=0.3)
        K = 0.7
        z0 = np.array([0.3, -0.2, 0.1])
        y0 = lift(z0, K)
        rep3 = lyapunov_spectrum(reduced_system(p, K), z0, 20.0, 520.0, 1.0, IntegratorConfig())
        rep5 = lyapunov_spectrum(full_system(p), y0, 20.0, 520.0, 1.0, IntegratorConfig())
        for lam in rep3.exponents:
            assert np.min(np.abs(rep5.exponents - lam)) <= 5e-3

    def test_reduced_spectrum_subset_of_full_chaotic(self):
        """Same invariant on the chaotic attractor (K-plane start, C=-1).

        Slow: chaotic finite-time exponents fluctuate ~1/sqrt(T), and a
        round-off change decorrelates the two runs long before T.  Over 18
        runs from starts moved at round-off, the gap passed 5e-3 on 3 with a
        2000-unit window (up to 1.2e-2); over 6, it stayed under 3.5e-3 with
        8000."""
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
        K = 0.5
        z0 = np.array([0.1, 0.05, 0.0])
        y0 = lift(z0, K)
        rep3 = lyapunov_spectrum(reduced_system(p, K), z0, 100.0, 8100.0, 1.0, FAST)
        rep5 = lyapunov_spectrum(full_system(p), y0, 100.0, 8100.0, 1.0, FAST)
        assert rep3.exponents[0] > 1e-3  # genuinely chaotic at this K
        for lam in rep3.exponents:
            assert np.min(np.abs(rep5.exponents - lam)) <= 5e-3


class TestStabilityGrid:
    def test_interior_grid_reaches_equilibrium(self):
        """C<=-2.5 cells: every random start lands on the fixed point within
        1e-6.  (The C=-2, F=0 boundary is exercised by the acceptance suite;
        contraction degenerates there.)"""
        for C in (-2.5, -3.0):
            for E in (-1.0, -2.0):
                for F in (0.0, 1.0):
                    p = Params(C=C, D=-1.0, E=E, F=F)
                    y_eq = equilibrium(p)
                    for _ in range(3):
                        y0 = RNG.uniform(-1.0, 1.0, 5)
                        y0 *= RNG.uniform(0.2, 5.0) / np.linalg.norm(y0)
                        traj = integrate(full_system(p).field, y0, 0.0, 120.0, 120.0, FAST)
                        assert np.abs(traj.states[-1] - y_eq).max() <= 1e-6

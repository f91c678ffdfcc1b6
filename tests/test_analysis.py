"""Lyapunov machinery, stability eigenvalues, classification, scans, sections.

Oracles: linear systems with known exponents, Jacobian eigenvalues at the
fixed point, the divergence identity (spectrum sum = trace average), and
exact circles for section geometry.
"""

import math

import numpy as np
import pytest

from dynlab.analysis import (
    LyapunovReport,
    ScanSettings,
    classify,
    equilibrium_stability,
    lyapunov_spectrum,
    parameter_scan,
    poincare_section,
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
    reduced_jacobian,
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
        eig = np.sort(np.linalg.eigvals(reduced_jacobian(z_eq, K, p)).real)[::-1]
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

    def test_diverged_report(self):
        cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9, max_steps=5000)
        p = Params(C=2.0, D=1.0, E=0.5, F=0.0)
        rep = lyapunov_spectrum(full_system(p), [3.0, 1.0, 0.5, -2.0, 1.5], 0.0, 50.0, 1.0, cfg)
        assert rep.diverged

    def test_validates_window(self):
        with pytest.raises(ValueError):
            lyapunov_spectrum(linear_system(np.eye(2)), [1.0, 0.0], 10.0, 10.0, 1.0, FAST)


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
        from dynlab.analysis import _spectrum_run, terminal_variation

        rep, traj, _ = _spectrum_run(
            full_system(p), equilibrium(p) + 0.05, 20.0, 120.0, 1.0, FAST, out_stride=0.5
        )
        assert classify(rep, traj) == "equilibrium"
        assert terminal_variation(traj) < 1e-6  # the tail has genuinely settled

    def test_terminal_variation(self):
        from dynlab.analysis import terminal_variation

        t = np.arange(0.0, 10.0, 0.1)
        settled = Trajectory(times=t, states=np.ones((t.size, 2)), dimension=2)
        assert terminal_variation(settled) == 0.0
        moving = Trajectory(
            times=t, states=np.column_stack((np.cos(t), np.sin(t))), dimension=2
        )
        assert terminal_variation(moving) > 0.1

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
        assert all(r.largest_exponent < 0 for r in records)

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


class TestPoincareSection:
    def test_circle_single_repeating_point(self):
        """cos/sin orbit sectioned at first coordinate = 0, upward: the
        remaining coordinate is -1 at every crossing (one per revolution)."""
        traj = circle_trajectory()
        sec = poincare_section(traj, 0, 0.0, "up")
        assert sec.points.shape[1] == 1
        revolutions = 40.0 / (2 * math.pi)
        assert abs(sec.points.shape[0] - revolutions) <= 1.0
        np.testing.assert_allclose(sec.points[:, 0], -1.0, atol=1e-6)
        down = poincare_section(traj, 0, 0.0, "down")
        np.testing.assert_allclose(down.points[:, 0], 1.0, atol=1e-6)

    def test_equilibrium_no_crossings(self):
        p = Params(C=-2.0, D=1.0, E=-1.0, F=1.0)
        traj = integrate(full_system(p).field, equilibrium(p), 0.0, 5.0, 0.1, FAST)
        sec = poincare_section(traj, 0, 0.5, "both")
        assert sec.points.shape == (0, 4)

    def test_crossing_residual_after_refinement(self):
        """Secant-refined crossing times satisfy |coordinate - level| <= 1e-8
        when the true flow (exact circle) is evaluated there."""
        traj = circle_trajectory()
        sec = poincare_section(traj, 0, 0.0, "up")
        residual = np.abs(np.cos(sec.times))
        assert residual.size > 0
        assert residual.max() <= 1e-8

    def test_level_offset_section(self):
        traj = circle_trajectory()
        sec = poincare_section(traj, 1, 0.5, "up")
        # crossing sin t = 0.5 upward: cos t = +sqrt(3)/2
        np.testing.assert_allclose(sec.points[:, 0], math.sqrt(3) / 2, atol=1e-6)

    def test_counting_rate_constant(self):
        """Crossings per unit time of a periodic orbit are steady (+-1)."""
        traj = circle_trajectory(80.0, 0.02)
        sec = poincare_section(traj, 0, 0.0, "up")
        n = traj.times.size
        quarters = []
        for q in range(4):
            sub = Trajectory(
                times=traj.times[q * n // 4 : (q + 1) * n // 4],
                states=traj.states[q * n // 4 : (q + 1) * n // 4],
                dimension=2,
            )
            quarters.append(poincare_section(sub, 0, 0.0, "up").points.shape[0])
        assert max(quarters) - min(quarters) <= 1

    def test_validates_arguments(self):
        traj = circle_trajectory(10.0, 0.1)
        with pytest.raises(ValueError):
            poincare_section(traj, 0, 0.0, "sideways")
        with pytest.raises(ValueError):
            poincare_section(traj, 5, 0.0, "up")


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

        Slow: chaotic finite-time exponents fluctuate ~1/sqrt(T); a 2000-unit
        window brings the full/reduced estimate gap well under 5e-3."""
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
        K = 0.5
        z0 = np.array([0.1, 0.05, 0.0])
        y0 = lift(z0, K)
        rep3 = lyapunov_spectrum(reduced_system(p, K), z0, 100.0, 2100.0, 1.0, FAST)
        rep5 = lyapunov_spectrum(full_system(p), y0, 100.0, 2100.0, 1.0, FAST)
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

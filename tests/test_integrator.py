"""Integrator contracts: accuracy, order, error paths, tangent propagation.

Oracles are closed-form solutions (exp decay, harmonic oscillator, the
bilinear exponential law) and the RK4 update polynomial.
"""

import math

import numpy as np
import pytest

from dynlab.errors import BlowUpError, InvalidStateError, StepBudgetError, StiffnessError
from dynlab.integrator import (
    IntegratorConfig,
    TangentBundle,
    fixed_rk4_step,
    integrate,
    integrate_with_tangents,
)
from dynlab.model import Params, full_system, reduced_system

RNG = np.random.default_rng(11)


def decay(t, y):
    return -y


def harmonic(t, y):
    return np.array([y[1], -y[0]])


class TestConfig:
    def test_defaults_valid(self):
        cfg = IntegratorConfig()
        assert cfg.method == "adaptive-DP54"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "euler"},
            {"abs_tol": 0.0},
            {"rel_tol": -1.0},
            {"h_min": 0.5, "h_init": 0.1},
            {"h_init": 1.0, "h_max": 0.1},
            {"max_steps": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


class TestIntegrate:
    def test_exponential_decay(self):
        traj = integrate(decay, np.array([1.0]), 0.0, 1.0, 0.25, IntegratorConfig())
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-9

    def test_harmonic_period(self):
        traj = integrate(
            harmonic, np.array([1.0, 0.0]), 0.0, 2.0 * math.pi, math.pi / 2, IntegratorConfig()
        )
        np.testing.assert_allclose(traj.states[-1], [1.0, 0.0], atol=1e-8)

    def test_bilinear_exponential_law(self):
        """Along the full flow, y1*y5 - y2*y4 follows I0*exp(2Ct) exactly."""
        p = Params(C=-1.0, D=1.0, E=-1.0, F=0.0)
        sys5 = full_system(p)
        traj = integrate(sys5.field, np.array([1.0, 0.0, 0.0, 0.0, 1.0]), 0.0, 5.0, 0.25, IntegratorConfig())
        b = traj.states[:, 0] * traj.states[:, 4] - traj.states[:, 1] * traj.states[:, 3]
        pred = np.exp(2.0 * p.C * traj.times)
        np.testing.assert_allclose(b, pred, rtol=1e-8)

    def test_output_grid_includes_endpoint(self):
        traj = integrate(decay, np.array([1.0]), 0.0, 1.0, 0.3, IntegratorConfig())
        np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])

    def test_determinism_bitwise(self):
        p = Params(C=-0.7, D=-1.0, E=-0.5, F=0.2)
        sys5 = full_system(p)
        y0 = np.array([0.9, -0.4, 0.1, 0.5, 0.2])
        a = integrate(sys5.field, y0, 0.0, 20.0, 0.5, IntegratorConfig())
        b = integrate(sys5.field, y0, 0.0, 20.0, 0.5, IntegratorConfig())
        assert a.states.tobytes() == b.states.tobytes()
        assert a.steps_taken == b.steps_taken and a.steps_rejected == b.steps_rejected

    def test_time_reversal(self):
        """Backward integration re-expands contracted modes (factor ~e^10 over
        5 units), so a tight tolerance is needed to return within 1e-6."""
        p = Params(C=-0.8, D=-1.0, E=-0.5, F=0.1)
        sys5 = full_system(p)
        y0 = np.array([0.8, 0.3, -0.2, 0.4, -0.5])
        cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
        fwd = integrate(sys5.field, y0, 0.0, 5.0, 5.0, cfg)
        back = integrate(lambda t, y: -sys5.field(t, y), fwd.states[-1], 0.0, 5.0, 5.0, cfg)
        np.testing.assert_allclose(back.states[-1], y0, atol=1e-6)

    def test_invalid_inputs(self):
        cfg = IntegratorConfig()
        with pytest.raises(InvalidStateError):
            integrate(decay, np.array([np.nan]), 0.0, 1.0, 0.1, cfg)
        with pytest.raises(ValueError):
            integrate(decay, np.array([1.0]), 1.0, 0.0, 0.1, cfg)
        with pytest.raises(ValueError):
            integrate(decay, np.array([1.0]), 0.0, 1.0, -0.1, cfg)

    def test_blowup_error(self):
        traj_err = None
        with pytest.raises(BlowUpError) as exc_info:
            integrate(lambda t, y: y * y, np.array([1e6]), 0.0, 1.0, 0.1, IntegratorConfig())
        assert exc_info.value.t is not None

    def test_budget_error(self):
        cfg = IntegratorConfig(max_steps=5)
        with pytest.raises(StepBudgetError):
            integrate(decay, np.array([1.0]), 0.0, 10.0, 10.0, cfg)

    def test_stiffness_error(self):
        cfg = IntegratorConfig(abs_tol=1e-14, rel_tol=1e-14, h_init=0.5, h_min=0.5, h_max=1.0)
        with pytest.raises(StiffnessError):
            integrate(decay, np.array([1.0]), 0.0, 1.0, 1.0, cfg)


class TestFixedRk4:
    def test_constant_derivative(self):
        y = fixed_rk4_step(lambda t, y: np.array([1.0]), np.array([0.0]), 0.0, 0.5)
        assert y[0] == 0.5

    def test_update_polynomial(self):
        """RK4 on y'=y reproduces 1 + h + h^2/2 + h^3/6 + h^4/24 exactly."""
        h = 0.1
        y = fixed_rk4_step(lambda t, y: y, np.array([1.0]), 0.0, h)
        expected = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
        assert abs(y[0] - expected) < 1e-12

    def test_halving_step_gains_factor_16(self):
        errs = []
        for h in (0.05, 0.025):
            y = np.array([1.0])
            t = 0.0
            while t < 1.0 - 1e-12:
                y = fixed_rk4_step(decay, y, t, h)
                t += h
            errs.append(abs(y[0] - math.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fixed_rk4_step(decay, np.array([1.0]), 0.0, -0.1)

    def test_global_order_slope(self):
        """log-error vs log-h slope on y'=-y is 4.0 +/- 0.2 for h in [1e-3, 1e-1]."""
        hs = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
        errs = []
        for h in hs:
            cfg = IntegratorConfig(method="fixed-RK4", h_init=h, h_min=h / 10, h_max=max(h, 0.1))
            traj = integrate(decay, np.array([1.0]), 0.0, 1.0, 1.0, cfg)
            errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 3.8 <= slope <= 4.2

    def test_method_dispatch_in_integrate(self):
        cfg = IntegratorConfig(method="fixed-RK4", h_init=0.01)
        traj = integrate(decay, np.array([1.0]), 0.0, 1.0, 0.5, cfg)
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-9
        assert traj.steps_rejected == 0


class TestToleranceContract:
    def test_adaptive_matches_fixed_rk4(self):
        """DP54 at 1e-10 and RK4 at h=1e-5 agree to 1e-7 per component at t=10.

        RK4's global error at this step is far below the comparison threshold,
        so it serves as the independent reference.  Slow (~1e6 RK4 steps).
        """
        p = Params(C=-0.9, D=-1.0, E=-0.6, F=0.3)
        sys5 = full_system(p)
        y0 = RNG.uniform(-1.5, 1.5, 5)
        adaptive = integrate(sys5.field, y0, 0.0, 10.0, 10.0, IntegratorConfig())
        fixed = integrate(
            sys5.field,
            y0,
            0.0,
            10.0,
            10.0,
            IntegratorConfig(method="fixed-RK4", h_init=1e-5, h_min=1e-7),
        )
        np.testing.assert_allclose(adaptive.states[-1], fixed.states[-1], atol=1e-7)

    def test_dp54_tolerance_monotonicity(self):
        """Tighter tolerances give smaller error against a tight reference."""
        p = Params(C=-0.9, D=-1.0, E=-0.6, F=0.3)
        sys5 = full_system(p)
        y0 = np.array([1.1, -0.3, 0.2, 0.4, 0.6])
        ref = integrate(
            sys5.field, y0, 0.0, 10.0, 10.0, IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13)
        ).states[-1]
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            got = integrate(
                sys5.field, y0, 0.0, 10.0, 10.0, IntegratorConfig(abs_tol=tol, rel_tol=tol)
            ).states[-1]
            errs.append(np.abs(got - ref).max())
        assert errs[0] > errs[1] > errs[2]


class TestTangents:
    def test_linear_diagonal_exponents(self):
        """For y' = diag(-1,-2) y the average log stretches are exactly (-1,-2)."""
        A = np.diag([-1.0, -2.0])
        bundle0 = TangentBundle(base=np.array([1.0, 1.0]), frame=np.eye(2))
        bundle, log, _ = integrate_with_tangents(
            lambda t, y: A @ y,
            lambda t, y: A,
            bundle0,
            0.0,
            100.0,
            1.0,
            IntegratorConfig(),
        )
        avg = log.log_stretches.sum(axis=0) / 100.0
        np.testing.assert_allclose(avg, [-1.0, -2.0], atol=1e-6)

    def test_full_system_rates_match_jacobian_eigenvalues(self):
        """Near the fixed point the stretch rates equal the eigenvalue real parts."""
        from dynlab.model import equilibrium, full_jacobian

        p = Params(C=-3.0, D=-1.0, E=-1.0, F=0.0)
        sys5 = full_system(p)
        y_eq = equilibrium(p)
        eig = np.sort(np.linalg.eigvals(full_jacobian(y_eq, p)).real)[::-1]
        bundle0 = TangentBundle(base=y_eq, frame=np.eye(5))
        # frame misalignment contributes ln(sqrt(2))/T, so T=500 sits below 1e-3
        _, log, _ = integrate_with_tangents(
            sys5.field, sys5.jacobian, bundle0, 0.0, 500.0, 1.0, IntegratorConfig()
        )
        avg = np.sort(log.log_stretches.sum(axis=0) / 500.0)[::-1]
        np.testing.assert_allclose(avg, eig, atol=1e-3)

    def test_frame_orthonormal_after_renorm(self):
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
        sys5 = full_system(p)
        bundle0 = TangentBundle(base=np.array([0.5, 0.1, 0.0, 0.2, -0.3]), frame=np.eye(5))
        bundle, log, _ = integrate_with_tangents(
            sys5.field, sys5.jacobian, bundle0, 0.0, 10.0, 1.0, IntegratorConfig()
        )
        assert bundle.orthonormality_defect() <= 1e-12
        assert log.times.size == 10

    def test_requires_orthonormal_frame(self):
        bad = TangentBundle(base=np.zeros(2), frame=np.array([[1.0, 0.9], [0.0, 1.0]]))
        with pytest.raises(InvalidStateError):
            integrate_with_tangents(
                decay, lambda t, y: -np.eye(2), bad, 0.0, 1.0, 1.0, IntegratorConfig()
            )

    def test_samples_along_tangent_run(self):
        A = np.diag([-1.0, -2.0])
        bundle0 = TangentBundle(base=np.array([1.0, 1.0]), frame=np.eye(2))
        _, _, traj = integrate_with_tangents(
            lambda t, y: A @ y,
            lambda t, y: A,
            bundle0,
            0.0,
            2.0,
            1.0,
            IntegratorConfig(),
            out_stride=0.5,
        )
        np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(traj.states[:, 0], np.exp(-traj.times), rtol=1e-9)


def _plain(system):
    """The system's callables behind wrappers that carry no float kernel."""
    return (lambda t, y: system.field(t, y)), (lambda t, y: system.jacobian(t, y))


class TestKernelAndAdapterPaths:
    """A model system's float kernels and the adapter around its array
    callables give bitwise-identical runs."""

    CASES = [
        (full_system(Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)), [0.73, -0.4, 0.2, 0.33, 0.11]),
        (reduced_system(Params(C=-0.9, D=-1.0, E=-0.5, F=0.1), 0.8), [0.6, -0.3, 0.2]),
    ]

    @pytest.mark.parametrize("system, y0", CASES, ids=["full", "reduced"])
    def test_integrate(self, system, y0):
        assert hasattr(system.field, "kernel")
        field, _ = _plain(system)
        cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9)
        a = integrate(system.field, y0, 0.0, 40.0, 0.5, cfg)
        b = integrate(field, y0, 0.0, 40.0, 0.5, cfg)
        assert a.states.tobytes() == b.states.tobytes()
        assert (a.steps_taken, a.steps_rejected) == (b.steps_taken, b.steps_rejected)

    @pytest.mark.parametrize("system, y0", CASES, ids=["full", "reduced"])
    def test_integrate_with_tangents(self, system, y0):
        assert hasattr(system.jacobian, "kernel")
        field, jacobian = _plain(system)
        cfg = IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8)
        bundle0 = TangentBundle(base=np.array(y0), frame=np.eye(system.dim))
        runs = [
            integrate_with_tangents(f, j, bundle0, 0.0, 30.0, 1.0, cfg, out_stride=0.1)
            for f, j in ((system.field, system.jacobian), (field, jacobian))
        ]
        (bundle_a, log_a, traj_a), (bundle_b, log_b, traj_b) = runs
        assert bundle_a.base.tobytes() == bundle_b.base.tobytes()
        assert bundle_a.frame.tobytes() == bundle_b.frame.tobytes()
        for name in ("times", "intervals", "log_stretches"):
            assert getattr(log_a, name).tobytes() == getattr(log_b, name).tobytes()
        assert traj_a.states.tobytes() == traj_b.states.tobytes()
        assert (traj_a.steps_taken, traj_a.steps_rejected) == (
            traj_b.steps_taken,
            traj_b.steps_rejected,
        )


def _goes_bad(component, value, t_bad):
    """y' = -y, except that one component of the derivative is `value` from t_bad on."""

    def field(t, y):
        f = -y
        if t >= t_bad:
            f[component] = value
        return f

    return field


class TestNonFiniteBlowUp:
    """A NaN or inf in any component, not only the first, aborts the run and
    keeps what was computed before it."""

    BAD = [np.nan, np.inf, -np.inf]
    Y0 = np.array([1.0, -0.5, 0.25, 0.8, -0.3])
    # Every step is accepted at h = 0.1, so the step from t = 2 evaluates its
    # stages at t = 2.02, 2.03, 2.08, 2.0889 and 2.1.
    LOOSE = IntegratorConfig(abs_tol=1e-3, rel_tol=1e-3, h_init=0.1, h_max=0.1)

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("component", range(5))
    def test_stage_state(self, component, value):
        """The third stage derivative is non-finite, so the fourth stage state is."""
        field = _goes_bad(component, value, 2.025)
        with pytest.raises(BlowUpError, match="non-finite state during step") as info:
            integrate(field, self.Y0, 0.0, 5.0, 0.5, self.LOOSE)
        partial = info.value.partial_traj
        np.testing.assert_array_equal(partial.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.all(np.isfinite(partial.states))

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("component", range(5))
    def test_new_state(self, component, value):
        """Only the sixth stage derivative, at t + h, is non-finite: it goes
        straight into the new state, which the new-state check must catch."""
        field = _goes_bad(component, value, 0.1)
        with pytest.raises(BlowUpError, match="blew up at t = 0.1") as info:
            integrate(field, self.Y0, 0.0, 1.0, 1.0, self.LOOSE)
        assert not np.isfinite(info.value.last_state[component])
        np.testing.assert_array_equal(info.value.partial_traj.times, [0.0])

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("component", range(3))
    def test_tangent_run_keeps_partial_log(self, component, value):
        A = np.diag([-1.0, -2.0, -0.5])
        bundle0 = TangentBundle(base=np.array([1.0, -0.5, 0.25]), frame=np.eye(3))
        with pytest.raises(BlowUpError, match="non-finite state during step") as info:
            integrate_with_tangents(
                _goes_bad(component, value, 2.025),
                lambda t, y: A,
                bundle0,
                0.0,
                5.0,
                1.0,
                self.LOOSE,
                out_stride=0.5,
            )
        np.testing.assert_array_equal(info.value.partial_log.times, [1.0, 2.0])
        np.testing.assert_allclose(
            info.value.partial_log.log_stretches, [[-1.0, -2.0, -0.5]] * 2, atol=1e-6
        )
        np.testing.assert_array_equal(info.value.partial_traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("component", range(5))
    def test_threshold_in_any_component(self, component):
        """A finite component beyond 1e12 is a blow-up wherever it sits."""
        y0 = np.zeros(5)
        y0[component] = 1e6

        def field(t, y):
            f = np.zeros(5)
            f[component] = y[component] * y[component]
            return f

        with pytest.raises(BlowUpError, match="blew up") as info:
            integrate(field, y0, 0.0, 1.0, 0.1, IntegratorConfig())
        assert abs(info.value.last_state[component]) > 1e12

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("component", range(5))
    def test_rk4_new_state(self, component, value):
        with pytest.raises(BlowUpError):
            fixed_rk4_step(_goes_bad(component, value, 0.0), self.Y0, 0.0, 0.1)

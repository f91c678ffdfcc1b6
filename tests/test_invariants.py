"""Pointwise and flow-level identity checks.

Every expected value is either direct arithmetic or a consequence of the
closed-form laws dB/dt = 2C*B and dS/dt = 2C*S + 8*(y1*y2 + y4*y5), verified
against the vector field itself (gradient dotted with the field).
"""

import math

import numpy as np
import pytest

from dynlab.errors import DimensionMismatchError, StepBudgetError
from dynlab.integrator import IntegratorConfig, Trajectory, integrate
from dynlab.invariants import (
    check_trajectory,
    derivative_identity_residual,
    norm_derivative_forms,
    quadratic_norm,
    verification_suite,
)
from dynlab.model import Params, equilibrium, full_system, full_vector_field, lift

RNG = np.random.default_rng(23)


class TestDerivativeIdentity:
    def test_hand_case(self):
        for p in (Params(-1, 1, -1, 0), Params(0.5, -2, 3, 1)):
            assert derivative_identity_residual([1.0, 0, 0, 0, 1.0], p) < 1e-14

    def test_at_equilibrium(self):
        p = Params(C=-1.5, D=2.0, E=-0.5, F=1.0)
        assert derivative_identity_residual(equilibrium(p), p) == 0.0

    def test_random_states_scaled_bound(self):
        """Exact identity: residual is round-off only, <= 1e-10*(1+|y|^3)."""
        for _ in range(2000):
            y = RNG.uniform(-10.0, 10.0, 5)
            p = Params(*RNG.uniform(-3.0, 3.0, 4))
            nrm = np.linalg.norm(y)
            assert derivative_identity_residual(y, p) <= 1e-10 * (1.0 + nrm**3)


class TestQuadraticNorm:
    def test_values(self):
        assert quadratic_norm(np.zeros(5)) == 0.0
        assert quadratic_norm([1.0, 0.0, 7.0, 0.0, 1.0]) == 2.0
        assert quadratic_norm([1.0, 2.0, 0.0, 3.0, 4.0]) == 30.0


class TestNormDerivativeForms:
    def test_hand_case(self):
        p = Params(C=-1.0, D=0.0, E=-1.0, F=0.0)
        raw, canonical = norm_derivative_forms([1.0, 0.0, 0.0, 0.0, 1.0], p)
        assert raw == -4.0
        assert canonical == pytest.approx(-4.0, abs=1e-14)

    def test_degenerate_direction_at_C_minus_2(self):
        """On y2=y1, y5=y4 only the (C+2) terms survive; they vanish at C=-2."""
        p = Params(C=-2.0, D=1.0, E=-1.0, F=0.0)
        for a, b in [(1.0, -0.5), (0.3, 2.0)]:
            _, canonical = norm_derivative_forms([a, a, 0.7, b, b], p)
            assert canonical == pytest.approx(0.0, abs=1e-13)

    def test_origin(self):
        p = Params(C=3.0, D=1.0, E=2.0, F=9.0)
        assert norm_derivative_forms(np.zeros(5), p) == (0.0, 0.0)

    def test_raw_equals_canonical_and_gradient(self):
        """Both forms match each other and grad(S) . f on random states."""
        for _ in range(2000):
            y = RNG.uniform(-10.0, 10.0, 5)
            p = Params(*RNG.uniform(-3.0, 3.0, 4))
            raw, canonical = norm_derivative_forms(y, p)
            f = full_vector_field(y, p)
            grad_dot = 2.0 * (y[0] * f[0] + y[1] * f[1] + y[3] * f[3] + y[4] * f[4])
            nsq = float(np.dot(y, y))
            assert abs(raw - canonical) <= 1e-12 * (1.0 + nsq)
            assert abs(raw - grad_dot) <= 1e-10 * (1.0 + nsq * nsq)


class TestCheckTrajectory:
    def test_requires_full_dimension(self):
        traj = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 3)), dimension=3)
        with pytest.raises(DimensionMismatchError):
            check_trajectory(traj, Params(-1, 0, -1, 0), 1e-8)

    def test_manifold_run_keeps_both_identities(self):
        """Starting on a K-plane, the bilinear and proportionality residuals
        stay at integration-error level (well under 10x tolerance)."""
        p = Params(C=-0.7, D=-1.0, E=-0.5, F=0.1)
        y0 = lift([0.8, -0.5, 0.2], 2.0)
        traj = integrate(full_system(p).field, y0, 0.0, 50.0, 0.5, IntegratorConfig())
        reports = check_trajectory(traj, p, 1e-9)
        assert set(reports) == {"bilinear_law", "proportionality"}
        assert reports["bilinear_law"].passed
        assert reports["proportionality"].passed

    def test_conserved_when_C_zero(self):
        """With C=0 the bilinear quantity is a first integral."""
        p = Params(C=0.0, D=-1.0, E=-1.0, F=0.0)
        y0 = np.array([0.4, -0.1, 0.05, 0.1, 0.3])
        traj = integrate(full_system(p).field, y0, 0.0, 100.0, 1.0, IntegratorConfig())
        b = traj.states[:, 0] * traj.states[:, 4] - traj.states[:, 1] * traj.states[:, 3]
        assert np.abs(b - b[0]).max() < 1e-8
        rep = check_trajectory(traj, p, 1e-8)["bilinear_law"]
        assert rep.passed

    def test_exponential_law_C_minus_1(self):
        p = Params(C=-1.0, D=1.0, E=-1.0, F=0.0)
        y0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        traj = integrate(full_system(p).field, y0, 0.0, 5.0, 0.1, IntegratorConfig())
        b = traj.states[:, 0] * traj.states[:, 4] - traj.states[:, 1] * traj.states[:, 3]
        np.testing.assert_allclose(b, np.exp(-2.0 * traj.times), rtol=1e-8)
        assert check_trajectory(traj, p, 1e-8)["bilinear_law"].passed

    def test_limit_set_tail_decay(self):
        """For C<0 the bilinear quantity decays below 1e-9*(1+|y0|^2)."""
        p = Params(C=-0.5, D=-1.0, E=-0.5, F=0.0)
        y0 = np.array([0.9, -0.4, 0.3, 0.5, 0.7])
        traj = integrate(full_system(p).field, y0, 0.0, 60.0, 1.0, IntegratorConfig())
        tail = traj.states[traj.times >= 50.0]
        b_tail = np.abs(tail[:, 0] * tail[:, 4] - tail[:, 1] * tail[:, 3]).max()
        assert b_tail <= 1e-9 * (1.0 + float(np.dot(y0, y0)))

    def test_report_fields(self):
        p = Params(C=-1.0, D=1.0, E=-1.0, F=0.0)
        y0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        traj = integrate(full_system(p).field, y0, 0.0, 2.0, 0.1, IntegratorConfig())
        rep = check_trajectory(traj, p, 1e-8)["bilinear_law"]
        assert rep.max_abs_residual >= 0.0
        assert rep.max_rel_residual >= 0.0
        assert traj.times[0] <= rep.worst_time <= traj.times[-1]


class TestVerificationSuite:
    def test_default_all_pass(self):
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.2)
        reports = verification_suite(p, seed=3, samples=2000, horizon=10.0)
        assert set(reports) == {
            "derivative_identity",
            "norm_forms_agree",
            "norm_forms_gradient",
            "bilinear_flow_law",
            "proportionality_flow",
        }
        for name, rep in reports.items():
            assert rep.passed, f"{name} failed: {rep}"

    def test_zero_tolerance_fails_everything(self):
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.2)
        reports = verification_suite(p, seed=3, samples=500, horizon=5.0, tolerance=0.0)
        assert not any(rep.passed for rep in reports.values())

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan])
    def test_negative_tolerance_refused(self, tolerance):
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.2)
        with pytest.raises(ValueError, match="tolerance"):
            verification_suite(p, samples=10, horizon=1.0, tolerance=tolerance)

    def test_pointwise_worst_matches_per_row_loop(self):
        """The vectorised pointwise checks give the worst residuals of a
        per-row loop over the public functions on the same samples."""
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.2)
        seed, samples = 5, 3000
        rng = np.random.Generator(np.random.Philox(seed))
        ys = rng.uniform(-10.0, 10.0, (samples, 5))
        ps = rng.uniform(-3.0, 3.0, (samples, 4))
        worst = {"derivative_identity": 0.0, "norm_forms_agree": 0.0, "norm_forms_gradient": 0.0}
        for y, row in zip(ys, ps):
            pp = Params(*row)
            nrm = math.sqrt(float(np.dot(y, y)))
            raw, canon = norm_derivative_forms(y, pp)
            f = full_vector_field(y, pp)
            grad_dot = 2.0 * (y[0] * f[0] + y[1] * f[1] + y[3] * f[3] + y[4] * f[4])
            for name, value in (
                ("derivative_identity", derivative_identity_residual(y, pp) / (1.0 + nrm**3)),
                ("norm_forms_agree", abs(raw - canon) / (1.0 + nrm**2)),
                ("norm_forms_gradient", abs(raw - grad_dot) / (1.0 + nrm**4)),
            ):
                worst[name] = max(worst[name], value)
        reports = verification_suite(p, seed=seed, samples=samples, horizon=1.0)
        for name, value in worst.items():
            assert value > 0.0
            assert reports[name].max_rel_residual == pytest.approx(value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("tolerance", [None, 1e-11])
    def test_flow_reports_are_those_of_the_worst_run(self, tolerance):
        """The flow reports equal check_trajectory's on the suite's three runs,
        drawn after the pointwise samples: the worst bilinear law of the two
        generic starts and the lifted one, and the lifted run's
        proportionality, each against its own tolerance."""
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.2)
        cfg = IntegratorConfig()
        int_tol = max(cfg.abs_tol, cfg.rel_tol)
        flow_tol = 100.0 * int_tol if tolerance is None else tolerance
        prop_tol = 10.0 * int_tol if tolerance is None else tolerance
        samples, horizon = 300, 3.0
        for seed in (0, 1, 7):
            rng = np.random.Generator(np.random.Philox(seed))
            rng.uniform(-10.0, 10.0, (samples, 5))
            rng.uniform(-3.0, 3.0, (samples, 4))
            starts = [rng.uniform(-2.0, 2.0, 5), rng.uniform(-2.0, 2.0, 5)]
            z0 = rng.uniform(-1.5, 1.5, 3)
            starts.append(lift(z0, rng.uniform(-2.0, 2.0)))
            runs = [integrate(full_system(p).field, y0, 0.0, horizon, 0.1, cfg) for y0 in starts]
            laws = [check_trajectory(traj, p, flow_tol)["bilinear_law"] for traj in runs]
            worst = laws[int(np.argmax([rep.max_rel_residual for rep in laws]))]
            prop = check_trajectory(runs[2], p, prop_tol)["proportionality"]
            reports = verification_suite(p, seed=seed, samples=samples, horizon=horizon, tolerance=tolerance)
            assert reports["bilinear_flow_law"] == worst
            assert reports["proportionality_flow"] == prop

    def test_failed_flow_run_raises(self, monkeypatch):
        """A flow run that fails is not reported as a failed identity: its
        error reaches the caller."""
        calls = []

        def integrate_failing_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise StepBudgetError("max_steps = 1 exhausted", t=0.5)
            return integrate(*args, **kwargs)

        monkeypatch.setattr("dynlab.invariants.integrate", integrate_failing_second)
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.2)
        with pytest.raises(StepBudgetError, match="max_steps"):
            verification_suite(p, seed=3, samples=100, horizon=2.0)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "sizes, name",
        [
            ({"samples": 10**15}, "samples = "),
            ({"samples": -1}, "samples must be >= 0"),
            ({"horizon": 1e15}, "horizon: out_stride = 0.1"),
        ],
        ids=["samples=1e15", "samples=-1", "horizon=1e15"],
    )
    def test_sizes_no_array_can_hold_refused_before_any_work(self, monkeypatch, sizes, name):
        """Random states and flow samples that no array can hold, and a
        negative sample count, are refused before the pointwise pass runs."""

        def no_work(*args):
            raise AssertionError("the suite ran before its sizes were checked")

        monkeypatch.setattr("dynlab.invariants._full_rhs", no_work)
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.2)
        with pytest.raises(ValueError, match=name):
            verification_suite(p, **{"samples": 10, "horizon": 1.0, **sizes})

"""Integrator contracts: accuracy, order, error paths, tangent propagation.

Oracles are closed-form solutions (exp decay, harmonic oscillator, the
bilinear exponential law) and the RK4 update polynomial.
"""

import functools
import math
import operator
import os
import subprocess
import sys

import numpy as np
import pytest

import dynlab
from dynlab.errors import (
    BlowUpError,
    DimensionMismatchError,
    IntegrationError,
    InvalidStateError,
    StepBudgetError,
    StiffnessError,
)
from dynlab import integrator
from dynlab.integrator import (
    _FACTOR_MIN,
    _SAFETY,
    IntegratorConfig,
    RenormLog,
    TangentBundle,
    Trajectory,
    _columns,
    _controller_factor,
    _Dp54Block,
    _Events,
    _float_kernel,
    _formula_kernel,
    _mismatch,
    _output_times,
    _renorm_frames,
    _run_events,
    _step_loop,
    _Stepper,
    _tangent_kernel,
    _trace,
    integrate,
    integrate_tangent_block,
    integrate_with_tangents,
)
from dynlab.model import (
    Params,
    _formula_system,
    _full_rhs,
    _reduced_rhs,
    full_system,
    reduced_system,
)

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
            {"h_init": -0.1},
            {"h_init": 0.5},
            {"method": "fixed-RK4", "h_init": 0.0},
            {"method": "fixed-RK4", "h_min": 0.0},
            {"method": "fixed-RK4", "h_max": -1.0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_rk4_step_above_h_max(self):
        """RK4 reads neither h_min nor h_max, so its h_init may lie above the
        default h_max, which DP54 refuses (above)."""
        cfg = IntegratorConfig(method="fixed-RK4", h_init=0.5)
        traj = integrate(decay, np.array([1.0]), 0.0, 1.0, 1.0, cfg)
        assert (traj.steps_taken, traj.steps_rejected) == (2, 0)


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
        with pytest.raises(InvalidStateError, match="flat vector"):
            integrate(decay, np.ones((2, 1)), 0.0, 1.0, 0.1, cfg)
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
        # RK4 at h = 0.01 spends 30 steps by t = 0.3, past the sample at 0.25.
        cfg = IntegratorConfig(method="fixed-RK4", h_init=0.01, max_steps=30)
        with pytest.raises(StepBudgetError, match="max_steps = 30 exhausted") as info:
            integrate(decay, np.ones(5), 0.0, 1.0, 0.25, cfg)
        assert info.value.t == pytest.approx(0.3)
        traj = info.value.partial_traj
        assert traj.times.tolist() == [0.0, 0.25] and traj.steps_taken == 30

    def test_stiffness_error(self):
        cfg = IntegratorConfig(abs_tol=1e-14, rel_tol=1e-14, h_init=0.5, h_min=0.5, h_max=1.0)
        with pytest.raises(StiffnessError):
            integrate(decay, np.array([1.0]), 0.0, 1.0, 1.0, cfg)

    @pytest.mark.parametrize(
        "n_out, method",
        [
            pytest.param(n, m, id=str(n) if m == "adaptive-DP54" else f"{n}-{m}")
            for m in ("adaptive-DP54", "fixed-RK4")
            for n in (6, 4, 1)
        ],
    )
    def test_field_changes_length_mid_run(self, n_out, method):
        """A field that returns the wrong number of components only after the
        first call is caught at the stage that receives it, by either method."""

        def field(t, y):
            f = -y
            return f if t < 0.05 else np.resize(f, n_out)

        with pytest.raises(DimensionMismatchError, match=f"returned {n_out} components for a 5-vector"):
            integrate(field, np.ones(5), 0.0, 1.0, 0.5, IntegratorConfig(method=method))

    def test_wrong_length_in_a_window_shorter_than_the_snap(self):
        """Either method checks the first derivative's length even when its
        window takes no step."""
        for method in ("adaptive-DP54", "fixed-RK4"):
            with pytest.raises(DimensionMismatchError, match="returned 4 components for a 5-vector"):
                integrate(
                    lambda t, y: np.zeros(4), np.ones(5), 0.0, 1e-14, 1e-14, IntegratorConfig(method=method)
                )


@pytest.mark.parametrize(
    "make, match",
    [
        pytest.param(lambda: Trajectory([0.0, 1.0], np.ones((2, 3)), 2), "inconsistent shapes", id="traj-shape"),
        pytest.param(lambda: Trajectory([0.0, 1.0, 1.0], np.ones((3, 2)), 2), "strictly increasing", id="traj-times"),
        pytest.param(lambda: Trajectory([0.0, 1.0], [[0.0, 1.0], [np.inf, 0.0]], 2), "non-finite", id="traj-inf"),
        pytest.param(lambda: TangentBundle(np.zeros(2), np.eye(3)[:2]), "d x d", id="bundle-shape"),
        pytest.param(lambda: TangentBundle(np.zeros(2), [[1.0, np.nan], [0.0, 1.0]]), "non-finite", id="bundle-nan"),
    ],
)
def test_types_refuse_malformed_values(make, match):
    with pytest.raises(InvalidStateError, match=match):
        make()


def _rk4_once(field, y, h):
    """The state after one RK4 step of h from y at t = 0, through `integrate`."""
    cfg = IntegratorConfig(method="fixed-RK4", h_init=h)
    return integrate(field, np.array(y), 0.0, h, h, cfg).states[-1]


class TestFixedRk4:
    def test_constant_derivative(self):
        y = _rk4_once(lambda t, y: np.ones(1), [0.0], 0.5)
        assert y[0] == 0.5

    def test_update_polynomial(self):
        """RK4 on y'=y reproduces 1 + h + h^2/2 + h^3/6 + h^4/24 exactly."""
        h = 0.1
        y = _rk4_once(lambda t, y: y, [1.0], h)
        expected = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
        assert abs(y[0] - expected) < 1e-12

    def test_halving_step_gains_factor_16(self):
        errs = []
        for h in (0.05, 0.025):
            y = [1.0]
            t = 0.0
            while t < 1.0 - 1e-12:
                y = _rk4_once(decay, y, h)
                t += h
            errs.append(abs(y[0] - math.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2

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
    """The system's callables behind wrappers that carry no formula."""
    return (lambda t, y: system.field(t, y)), (lambda t, y: system.jacobian(t, y))


class TestKernelAndAdapterPaths:
    """A model system's formulas and the adapter around its array callables
    give bitwise-identical runs."""

    CASES = [
        (full_system(Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)), [0.73, -0.4, 0.2, 0.33, 0.11]),
        (reduced_system(Params(C=-0.9, D=-1.0, E=-0.5, F=0.1), 0.8), [0.6, -0.3, 0.2]),
    ]

    @pytest.mark.parametrize("system, y0", CASES, ids=["full", "reduced"])
    def test_integrate(self, system, y0):
        assert hasattr(system.field, "formula")
        field, _ = _plain(system)
        cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9)
        a = integrate(system.field, y0, 0.0, 40.0, 0.5, cfg)
        b = integrate(field, y0, 0.0, 40.0, 0.5, cfg)
        assert a.states.tobytes() == b.states.tobytes()
        assert (a.steps_taken, a.steps_rejected) == (b.steps_taken, b.steps_rejected)

    @pytest.mark.parametrize("system, y0", CASES, ids=["full", "reduced"])
    def test_integrate_with_tangents(self, system, y0):
        assert hasattr(system.jacobian, "formula")
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


_BLAS_PROBE = """
import hashlib
import numpy as np
from dynlab.integrator import IntegratorConfig, _Stepper, _tangent_kernel
from dynlab.model import Params, full_system
a = np.random.default_rng(0).normal(size=(2, 100, 5, 5))
system = full_system(Params(C=-1.0, D=-1.0, E=-0.5, F=0.0))
kernel = _tangent_kernel(system.field, system.jacobian, 5)
y0 = [0.73, -0.4, 0.2, 0.33, 0.11] + np.eye(5).ravel().tolist()
stepper = _Stepper(kernel, 0.0, y0, IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8))
stepper.step_to(5.0)
for v in (a[0] @ a[1], np.array(stepper.y)):
    print(hashlib.sha256(v.tobytes()).hexdigest())
"""


def test_tangent_step_does_not_depend_on_the_blas_kernel():
    """A tangent run from the criterion-9 start, without renorms (their QR is
    LAPACK's), ends in the same bits under the OpenBLAS core types Haswell,
    Sandybridge and Nehalem, whose stacked 5 x 5 matmuls differ."""
    matmuls, states = set(), set()
    for core in ("Haswell", "Sandybridge", "Nehalem"):
        out = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True, check=True,
            env={
                **os.environ, "OPENBLAS_CORETYPE": core,
                "PYTHONPATH": os.path.dirname(os.path.dirname(dynlab.__file__)),
            },
        )
        matmul, state = out.stdout.split()
        matmuls.add(matmul)
        states.add(state)
    if len(matmuls) == 1:
        pytest.skip("OPENBLAS_CORETYPE does not change numpy's matmul here (not an x86-64 OpenBLAS)")
    assert len(states) == 1


# The Dormand-Prince 5(4) tableau as the reference spells it, one name per
# entry: nodes c, stage weights a, 5th-order weights b and e = b - b*.
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
)


def _finite(v: list) -> bool:
    """Whether every component of v is finite.

    NaN and inf carry through a sum, and inf - inf is NaN.  A sum of finite
    components past 1.8e308 fails too; a state that large has blown up anyway.
    """
    s = sum(v)
    return s - s == 0.0


def _check_blowup(y: list, t: float):
    # min() and max() skip a NaN that is not the first element (comparisons
    # with NaN are false), hence the separate finiteness test.
    if not (_finite(y) and -integrator.BLOWUP_THRESHOLD <= min(y) and max(y) <= integrator.BLOWUP_THRESHOLD):
        raise BlowUpError(f"solution blew up at t = {t!r}", t=t, last_state=np.array(y))


def _reference_attempt(kernel, t, h, y, k1, atol, rtol):
    """One DP54 attempt as list comprehensions over the components: the
    reference that the generated attempt must match bit for bit."""

    def stage(ts, ys):
        if not _finite(ys):
            raise BlowUpError(
                f"non-finite state during step at t = {ts!r}", t=ts, last_state=np.array(y)
            )
        return kernel(ts, ys)

    k2 = stage(t + _C2 * h, [u + h * (_A21 * a) for u, a in zip(y, k1)])
    k3 = stage(
        t + _C3 * h, [u + h * (_A31 * a + _A32 * b) for u, a, b in zip(y, k1, k2)]
    )
    k4 = stage(
        t + _C4 * h,
        [u + h * (_A41 * a + _A42 * b + _A43 * c) for u, a, b, c in zip(y, k1, k2, k3)],
    )
    k5 = stage(
        t + _C5 * h,
        [
            u + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
            for u, a, b, c, d in zip(y, k1, k2, k3, k4)
        ],
    )
    k6 = stage(
        t + h,
        [
            u + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
            for u, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
        ],
    )
    y_new = [
        u + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
        for u, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
    ]
    _check_blowup(y_new, t + h)
    k7 = kernel(t + h, y_new)

    sq = 0.0
    for u, v, a, c, d, e, g, k in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        u, v = abs(u), abs(v)
        r = (
            h
            * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * k)
            / (atol + rtol * (u if u > v else v))
        )
        sq += r * r
    err_norm = math.sqrt(sq / len(y))
    return y_new, k7, err_norm


class _ReferenceStepper:
    """The DP54 stepper as the hand-written loop around one attempt per step
    (`_reference_attempt`): the reference that the generated loop must match
    bit for bit."""

    def __init__(self, kernel, t0: float, y0: list, cfg: IntegratorConfig):
        self.kernel = kernel
        self.cfg = cfg
        self.t = float(t0)  # a numpy scalar would make every stage numpy arithmetic
        self.y = y0
        self.k1 = kernel(self.t, y0)
        if len(self.k1) != len(y0):
            raise _mismatch(self.k1, len(y0))
        self.attempt = _reference_attempt
        self.h_prop = min(cfg.h_init, cfg.h_max)
        self.steps_taken = 0
        self.steps_rejected = 0

    def refresh_derivative(self):
        """Recompute the cached derivative after the state was replaced."""
        self.k1 = self.kernel(self.t, self.y)

    def step_to(self, t_target: float):
        cfg = self.cfg
        atol, rtol = cfg.abs_tol, cfg.rel_tol
        attempt, kernel = self.attempt, self.kernel
        snap = 1e-13 * max(1.0, abs(t_target))
        while t_target - self.t > snap:
            if self.steps_taken + self.steps_rejected >= cfg.max_steps:
                raise StepBudgetError(
                    f"max_steps = {cfg.max_steps} exhausted at t = {self.t!r}",
                    t=self.t,
                    last_state=np.array(self.y),
                )
            remaining = t_target - self.t
            capped = self.h_prop >= remaining
            h = remaining if capped else self.h_prop

            t = self.t
            y_new, k7, err_norm = attempt(kernel, t, h, self.y, self.k1, atol, rtol)
            if err_norm <= 1.0:
                t_new = t + h
                if abs(t_new - t_target) <= snap:
                    t_new = t_target
                self.t = t_new
                self.y = y_new
                self.k1 = k7
                self.steps_taken += 1
                if not capped:
                    self.h_prop = min(h * _controller_factor(err_norm), cfg.h_max)
            else:
                self.steps_rejected += 1
                self.h_prop = min(h * _controller_factor(err_norm), cfg.h_max)
                if self.h_prop < cfg.h_min:
                    raise StiffnessError(
                        f"step size fell below h_min = {cfg.h_min!r} at t = {self.t!r}",
                        t=self.t,
                        last_state=np.array(self.y),
                    )
        self.t = t_target


def _rk4_step(kernel, y: list, t: float, h: float) -> list:
    """One classical 4th-order Runge-Kutta step on floats.

    Each component is the expression of the step written on arrays, in the
    same order.  Raises BlowUpError on a bad new state and
    DimensionMismatchError on a derivative of the wrong length.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    d = len(y)

    def stage(ts, z):
        f = kernel(ts, z)
        if len(f) != d:
            raise _mismatch(f, d)
        return f

    k1 = stage(t, y)
    k2 = stage(t + 0.5 * h, [u + 0.5 * h * a for u, a in zip(y, k1)])
    k3 = stage(t + 0.5 * h, [u + 0.5 * h * b for u, b in zip(y, k2)])
    k4 = stage(t + h, [u + h * c for u, c in zip(y, k3)])
    y_new = [
        u + (h / 6.0) * (a + 2.0 * b + 2.0 * c + e) for u, a, b, c, e in zip(y, k1, k2, k3, k4)
    ]
    _check_blowup(y_new, t + h)
    return y_new


class _Rk4Stepper:
    """The RK4 stepper as the hand-written loop around `_rk4_step`, which
    calls the kernel at every stage: the reference that the generated RK4
    loop must match bit for bit."""

    def __init__(self, kernel, t0: float, y0: list, cfg: IntegratorConfig):
        self.kernel = kernel
        self.cfg = cfg
        self.t = t0
        self.y = y0
        self.steps_taken = 0
        self.steps_rejected = 0

    def refresh_derivative(self):
        pass

    def step_to(self, t_target: float):
        cfg = self.cfg
        snap = 1e-13 * max(1.0, abs(t_target))
        while t_target - self.t > snap:
            if self.steps_taken >= cfg.max_steps:
                msg = f"max_steps = {cfg.max_steps} exhausted at t = {self.t!r}"
                raise StepBudgetError(msg, t=self.t, last_state=np.array(self.y))
            h = min(cfg.h_init, t_target - self.t)
            self.y = _rk4_step(self.kernel, self.y, self.t, h)
            t_new = self.t + h
            self.t = t_target if abs(t_new - t_target) <= snap else t_new
            self.steps_taken += 1
        self.t = t_target


# The hand-written stepper each method's generated loop must match.
_REFERENCE = {"adaptive-DP54": _ReferenceStepper, "fixed-RK4": _Rk4Stepper}


def _by_method(values):
    """pytest params of (method, value) for each value: a DP54 case's id is
    the value, an RK4 case's `value-fixed-RK4`."""
    return [
        pytest.param(m, v, id=str(v) if m == "adaptive-DP54" else f"{v}-{m}")
        for m in ("adaptive-DP54", "fixed-RK4")
        for v in values
    ]


def _coupled_kernel(d, rng):
    """A nonlinear, time-dependent, contracting float kernel on d-vectors."""
    m = (rng.normal(size=(d, d)) / math.sqrt(d) - 2.5 * np.eye(d)).tolist()

    def kernel(t, y):
        return [
            sum(a * v for a, v in zip(row, y)) + u * math.sin(t + 3.0 * u)
            for row, u in zip(m, y)
        ]

    return kernel


def _logistic_rhs(y, a, b):
    """A 1-D field formula."""
    (x,) = y
    return [a * x - b * x * x]


def _duffing_rhs(y, a, b):
    """A 2-D field formula whose locals share names with the loop's."""
    x, v = y
    h = a + b * x * x
    s = h * x
    return [v, -s - 0.1 * v]


def _calls_rhs(y, a):
    x, v = y
    return [v, math.sin(a * x)]


def _branching_rhs(y, a):
    """A spring that is twice as stiff for x > 0."""
    x, v = y
    if x > 0.0:
        x = 2.0 * x
    return [v, -a * x]


def _ternary_rhs(y, a):
    x, v = y
    return [v, -a * x if x > 0.0 else -0.5 * a * x]


def _rebinding_rhs(y, a):
    x, v = y
    x = a * x
    return [v, -x]


def _indexing_rhs(y, a):
    x = y[0]
    return [y[1], -a * x]


def _tuple_rhs(y, a):
    x, v = y
    return v, -2 * a * x


def _augmenting_rhs(y, a):
    x, v = y
    g = a * x
    g += 1.0
    return [v, -g]


def _defaulted_rhs(y, a, b=2.0):
    """A 2-D field formula whose second constant has a default."""
    x, v = y
    return [v, -a * x - b * x * x * x - 0.1 * v]


def _defaulted_jac(y, a, b=2.0):
    x, v = y
    return [0.0 * x, 1.0 + 0.0 * x, -a - 3.0 * b * x * x, -0.1 + 0.0 * x]


def _numpy_scalar_rhs(y, a):
    """A formula whose literals are numpy scalars."""
    (x,) = y
    return [np.float64(0.5) * x * (a - x) - x * np.float64(0.25)]


def _equals_rhs(y, a):
    x, v = y
    g = 0.0 if x == 0.0 else a * x
    return [v, -g]


def _truth_rhs(y, a):
    x, v = y
    if v:
        return [v, -a * x]
    return [0.0, -a * x]


def _constant_rhs(y, a):
    x, v = y
    return [a * v, 0.0]


def _random_params(rng):
    """Constants of a norm-contracting system (C < -2, E < 0)."""
    return Params(*(float(v) for v in rng.uniform([-3.0, -1.5, -1.0, -0.5], [-2.1, 1.5, -0.1, 0.5])))


def _reference_tangent(field_kernel, jacobian_kernel, d):
    """The kernel of [f(y), J(y) Q] with each (J Q)ij = Ji0 Q0j + Ji1 Q1j + ...
    folded left to right: the reference of every tangent route."""

    def kernel(t, Y):
        J, Q = jacobian_kernel(t, Y[:d]), Y[d:]
        jq = [
            functools.reduce(operator.add, (J[i * d + k] * Q[k * d + j] for k in range(d)))
            for i in range(d)
            for j in range(d)
        ]
        return list(field_kernel(t, Y[:d])) + jq

    return kernel


def _kernels(d, rng):
    """(name, kernel, reference kernel, y0) for d: a coupled kernel called at
    every stage, the kernels with a formula that d has (the model's, the test
    formulas'), each its own reference, and, at d = 12 and 30, the tangent
    kernels of the reduced and the full system, traced or called."""
    y0 = (rng.normal(size=d) * 10.0 ** rng.uniform(-2.0, 0.3, size=d)).tolist()
    out = [("call", _coupled_kernel(d, rng), y0)]
    p = _random_params(rng)
    if d == 1:
        out.append(("inline-logistic", _formula_kernel((_logistic_rhs, (1.3, 0.7))), [0.2]))
        out.append(("inline-numpy-scalar", _formula_kernel((_numpy_scalar_rhs, (1.5,))), [0.2]))
    if d == 2:
        out.append(("inline-duffing", _formula_kernel((_duffing_rhs, (-1.0, 1.0))), [0.9, -0.3]))
        # A formula that calls a function or branches on a value is called at
        # each stage; rebinding, indexing, a tuple and += trace like any other.
        for route, fn in [
            ("call", _calls_rhs), ("call", _branching_rhs), ("call", _ternary_rhs),
            ("inline", _rebinding_rhs), ("inline", _indexing_rhs), ("inline", _tuple_rhs),
            ("inline", _augmenting_rhs),
        ]:
            out.append((f"{route}-{fn.__name__}", _formula_kernel((fn, (2.0,))), [0.5, 0.1]))
    if d == 3:
        kernel = _float_kernel(reduced_system(p, float(rng.uniform(-1.5, 1.5))).field)
        out.append(("inline-reduced", kernel, rng.uniform(-1.0, 1.0, 3).tolist()))
    if d == 5:
        out.append(("inline-full", _float_kernel(full_system(p).field), rng.uniform(-1.0, 1.0, 5).tolist()))
    out = [(name, kernel, kernel, y0) for name, kernel, y0 in out]
    if d in (12, 30):
        n = 3 if d == 12 else 5
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
        system = reduced_system(p, 0.8) if n == 3 else full_system(p)
        y0 = rng.uniform(-1.0, 1.0, n).tolist() + np.eye(n).ravel().tolist()
        reference = _reference_tangent(_float_kernel(system.field), _float_kernel(system.jacobian), n)
        out.append((f"inline-tangent-{n}", _tangent_kernel(system.field, system.jacobian, n), reference, y0))
        out.append((f"call-tangent-{n}", _tangent_kernel(*_plain(system), n), reference, y0))
    return out


def _stepper_state(stepper, method="adaptive-DP54"):
    """t, y and the counters, with DP54's h_prop and k1, as exact bytes."""
    floats = [stepper.t] + list(stepper.y)
    if method == "adaptive-DP54":
        floats += [stepper.h_prop] + list(stepper.k1)
    return np.array(floats).tobytes(), stepper.steps_taken, stepper.steps_rejected


def _outcome(run):
    """(error type or "done", message, time, last state, (None, log,
    trajectory)) of a `_run_events` run: its results, or the error it raised
    with its partial results."""
    try:
        return ("done", None, None, None, (None,) + run())
    except IntegrationError as exc:
        partial = (None, exc.partial_log, exc.partial_traj)
        return type(exc), str(exc), exc.t, exc.last_state.tobytes(), partial


def _assert_same_run(got, want):
    assert got[:4] == want[:4]
    _assert_same_results(got[4], want[4])


class TestGeneratedAttempt:
    """The step loop generated per method, dimension and field formula equals
    the hand-written loop bit for bit (DP54's around the list-comprehension
    attempt, RK4's around `_rk4_step`), on both routes: a formula written
    inline and a kernel called at each stage."""

    @pytest.mark.parametrize("method, d", _by_method([1, 2, 3, 5, 12, 30]))
    def test_matches_reference(self, method, d):
        """Over random stops, some a snap apart, and a state replaced every
        fourth stop, every stop leaves equal t, y and counters, and for DP54
        equal k1 and h_prop; DP54 rejects steps (some with err_norm past the
        factor clamp), and steps are capped onto stops."""
        rng = np.random.default_rng(d)
        for name, kernel, reference, y0 in _kernels(d, rng):
            gaps = 10.0 ** rng.uniform(-2.0, 0.3, 40)
            gaps[0], gaps[1::7] = 2.5, 1e-14  # a long first step; stops within a snap
            stops = np.cumsum(gaps).tolist()
            h = 0.8 if method == "adaptive-DP54" else 0.05
            cfg = IntegratorConfig(method=method, abs_tol=1e-12, rel_tol=1e-10, h_init=h, h_max=h)
            new = _Stepper(kernel, 0.0, list(y0), cfg)
            ref = _REFERENCE[method](reference, 0.0, list(y0), cfg)
            fn, consts = getattr(kernel, "formula", (None, ()))
            assert new.loop is _step_loop(method, d, fn, len(consts))
            assert ("kernel calls" in new.loop.__code__.co_filename) != name.startswith("inline"), name
            errors, reached = [], 0

            def recorded(*args):
                out = _reference_attempt(*args)
                errors.append(out[2])
                return out

            if method == "adaptive-DP54":
                ref.attempt = recorded
            for k, te in enumerate(stops):
                before = ref.steps_taken
                for stepper in (new, ref):
                    stepper.step_to(te)
                    if k % 4 == 3:
                        stepper.y = [0.9 * v for v in stepper.y]
                        stepper.refresh_derivative()
                reached += ref.steps_taken > before  # the last step onto a stop is capped
                assert _stepper_state(new, method) == _stepper_state(ref, method), (name, k)
            if method == "adaptive-DP54":
                assert min(errors) <= 1.0 < max(errors), name
                assert max(errors) > (_SAFETY / _FACTOR_MIN) ** 5, name  # the factor clamps at 0.2
            assert reached > 0, name

    @pytest.mark.parametrize("method, d", _by_method([1, 3, 5]))
    def test_blow_up_matches_reference(self, method, d):
        """StepBudgetError, StiffnessError (DP54), a non-finite stage state, a
        new state past 1e12 (and one exactly at 1e12, which is fine) end both
        loops alike: error type, message, time, last state and partial
        results.  RK4 tests no stage state, so a non-finite one is a blow-up
        of the new state at t + h."""
        p = Params(C=0.5, D=1.0, E=0.2, F=0.1)
        model = {3: _float_kernel(reduced_system(p, 0.7).field), 5: _float_kernel(full_system(p).field)}
        formula = model.get(d, _formula_kernel((_logistic_rhs, (1.3, 0.7))))
        top = 1e12
        past = float(np.nextafter(top, 2 * top))  # one ulp past the threshold
        stiff = {"h_init": 0.5, "h_min": 0.4, "h_max": 1.0}  # the first rejection goes below h_min
        cases = [
            ("budget", formula, [0.3] * d, {"max_steps": 7}),
            ("stiff", formula, [0.3] * d, {"abs_tol": 1e-14, "rel_tol": 1e-14, **stiff}),
            ("stage", formula, [1e100] * d, {}),
            ("grows", formula, [1e5] * d, {"h_max": 1e-3}),
            ("stage", lambda t, y: [1e200 * (1.0 + u * u) for u in y], [0.5] * d, {}),
            ("past", lambda t, y: [1e13 for u in y], [0.5] * d, {"h_init": 0.2, "h_max": 0.2}),
            ("at", _formula_kernel((_logistic_rhs, (0.0, 0.0))), [top], {}),
            ("at", lambda t, y: [0.0] * d, [-top] * d, {}),
            ("ulp", lambda t, y: [0.0] * d, [0.5] * (d - 1) + [past], {}),
            ("ulp", _formula_kernel((_logistic_rhs, (0.0, 0.0))), [-past], {}),
        ]
        kinds = set()
        for name, kernel, y0, kwargs in cases:
            if len(y0) != d:
                continue
            cfg = IntegratorConfig(method=method, **kwargs)
            events = _Events(0.0, 2.0, 0.25)
            runs = [
                _outcome(lambda: _run_events(stepper(kernel, 0.0, list(y0), cfg), events, d))
                for stepper in (_Stepper, _REFERENCE[method])
            ]
            _assert_same_run(*runs)
            kinds.add((name, runs[1][0]))
            if name == "stage" and method == "fixed-RK4":  # in the first step, h = 1e-3
                assert runs[1][1] == "solution blew up at t = 0.001"

        # A derivative of the wrong length raises where the stepper computes
        # it, at construction or when it is refreshed.
        def shrinks(t, y):
            return [-u for u in y][: d - 1 if shrinks.short else d]

        shrinks.short = False
        stepper = _Stepper(shrinks, 0.0, [1.0] * d, IntegratorConfig(method=method))
        stepper.step_to(1.0)
        shrinks.short = True
        message = f"returned {d - 1} components for a {d}-vector"
        with pytest.raises(DimensionMismatchError, match=message):
            stepper.refresh_derivative()
        with pytest.raises(DimensionMismatchError, match=message):
            _Stepper(shrinks, 0.0, [1.0] * d, IntegratorConfig(method=method))
        assert kinds >= {
            ("budget", StepBudgetError), ("stage", BlowUpError), ("past", BlowUpError), ("at", "done"),
            ("ulp", BlowUpError),
        }
        assert (("stiff", StiffnessError) in kinds) == (method == "adaptive-DP54")

    @pytest.mark.parametrize("method", ["adaptive-DP54", "fixed-RK4"])
    def test_generated_once_per_dimension(self, method):
        """One loop per (method, d, formula, constant count) per process,
        shared by every system of a formula whatever its constants' values;
        none is generated at import."""
        cfg = IntegratorConfig(method=method)
        rng = np.random.default_rng(4)
        _step_loop.cache_clear()
        systems = [full_system(_random_params(rng)) for _ in range(3)]
        loops = {_Stepper(_float_kernel(s.field), 0.0, [0.1] * 5, cfg).loop for s in systems}
        for s in systems:
            integrate(s.field, np.full(5, 0.1), 0.0, 1.0, 0.5, cfg)
        assert loops == {_step_loop(method, 5, _full_rhs, 4)}
        assert _step_loop.cache_info().misses == 1
        assert len({_step_loop(method, 5, None, 0), _step_loop(method, 3, _reduced_rhs, 5),
                    _step_loop(method, 5, _full_rhs, 4)}) == 3
        assert _step_loop.cache_info().misses == 3
        frame = np.eye(5).ravel().tolist()
        tangents = [_tangent_kernel(s.field, s.jacobian, 5) for s in systems]
        loops = {_Stepper(k, 0.0, [0.1] * 5 + frame, cfg).loop for k in tangents}
        assert len({k.formula[0] for k in tangents}) == len(loops) == 1
        assert _step_loop.cache_info().misses == 4
        code = "import dynlab, dynlab.cli; print(dynlab.integrator._step_loop.cache_info().currsize)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dynlab.__file__))},
        )
        assert out.stdout.strip() == "0"


class TestInlinedFormula:
    """The tracer writes the arithmetic a formula does, whatever its source,
    and leaves a formula that branches on its values to be called."""

    @staticmethod
    def inlined(fn, d, n_consts):
        """fn(y, *consts) as the loop writes it: its traced lines in a function."""
        consts, source = _trace(fn, d, n_consts)
        comma = "," if d == 1 else ""
        lines = [
            "def inlined(y, consts):",
            "    " + ", ".join(f"z{i}" for i in range(d)) + f"{comma} = y",
            "    " + ", ".join(consts) + f"{',' if len(consts) == 1 else ''} = consts",
        ]
        lines += ["    " + line for line in source.format(local="z", out="k").splitlines()]
        lines.append("    return [" + ", ".join(f"k{i}" for i in range(d)) + "]")
        namespace = {}
        exec("\n".join(lines), namespace)
        return namespace["inlined"]

    @staticmethod
    def route(kernel, y0):
        """The file name of the kernel's loop, which steps as the reference loop does."""
        cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-10)
        new, ref = (stepper(kernel, 0.0, list(y0), cfg) for stepper in (_Stepper, _ReferenceStepper))
        for stepper in (new, ref):
            stepper.step_to(3.0)
        assert new.steps_taken > 10 and _stepper_state(new) == _stepper_state(ref)
        return new.loop.__code__.co_filename

    def test_model_formulas_inline_to_their_calls(self):
        rng = np.random.default_rng(5)
        kernels = []
        for _ in range(20):
            p = _random_params(rng)
            systems = [full_system(p), reduced_system(p, float(rng.normal()))]
            kernels += [_float_kernel(s.field) for s in systems]
        assert {k.formula[0] for k in kernels} == {_full_rhs, _reduced_rhs}
        for kernel in kernels:
            fn, consts = kernel.formula
            d = 5 if fn is _full_rhs else 3
            inlined = self.inlined(fn, d, len(consts))
            for _ in range(50):
                mag = 10.0 ** rng.uniform(-170.0, 12.0, size=d)
                y = (rng.choice([-1.0, 1.0], size=d) * mag * rng.uniform(1.0, 10.0, size=d)).tolist()
                want = np.array(kernel(0.0, y))
                assert np.array(inlined(y, consts)).tobytes() == want.tobytes()

    def test_formula_without_a_source_file_inlines(self):
        """A formula compiled from a string has no source to read; its trace
        is written into the loop all the same."""
        namespace = {}
        exec("def rhs(y, a, b):\n    (x,) = y\n    return [a * x - b * x * x]\n", namespace)
        kernel = _formula_kernel((namespace["rhs"], (1.3, 0.7)))
        assert self.route(kernel, [0.2]) == "<DP54 step loop, d = 1, rhs>"

    def test_grouping_is_kept(self):
        """A right operand, or a negated one, that is a sum or a product of
        its own keeps its parentheses."""

        def rhs(y, a):
            x, v = y
            return [a - (x - v) - -(x + v), a * (x * v) - (x - (v - a * x)) * -(v * v)]

        inlined = self.inlined(rhs, 2, 1)
        for y in np.random.default_rng(6).normal(size=(50, 2)).tolist():
            assert np.array(inlined(y, [1.5])).tobytes() == np.array(rhs(y, 1.5)).tobytes()

    def test_long_sum_inlines(self):
        """A sum of 300 terms is written without nested parentheses, of which
        the parser takes at most 200."""

        def rhs(y, a):
            (x,) = y
            return [sum(a * x * k for k in range(300))]

        assert "kernel calls" not in self.route(_formula_kernel((rhs, (-1e-5,))), [0.2])

    def test_formula_with_a_default_constant_inlines_per_constant_count(self):
        """A formula whose last constant has a default is traced with as many
        constants as its kernel passes, in a loop of its own per count."""
        for consts in [(1.5,), (1.5, 0.5)]:
            kernel = _formula_kernel((_defaulted_rhs, consts))
            assert self.route(kernel, [0.5, 0.1]) == "<DP54 step loop, d = 2, _defaulted_rhs>"
        assert _step_loop("adaptive-DP54", 2, _defaulted_rhs, 1) is not _step_loop("adaptive-DP54", 2, _defaulted_rhs, 2)

    @pytest.mark.parametrize("fn", [_equals_rhs, _truth_rhs, _constant_rhs], ids=["equals", "truth", "constant"])
    def test_formula_that_tests_a_value_is_called(self, fn):
        """x == 0.0 and `if x:` raise TypeError on a stand-in, and a constant
        component gives a float where the tracer needs a stand-in, so the loop
        calls the kernel at each stage."""
        assert _trace(fn, 2, 1) is None
        kernel = _formula_kernel((fn, (2.0,)))
        assert self.route(kernel, [0.5, 0.1]) == "<DP54 step loop, d = 2, kernel calls>"

    def test_stand_in_refuses_all_but_arithmetic(self):
        """Only +, - and * with stand-ins, ints and finite floats are recorded."""
        x = integrator._Traced("x", tape=[])
        assert (np.float64(2.0) * x).args[0].text == "2.0"
        for refused in [
            lambda: x < 1.0, lambda: x == x, lambda: x != 1.0, lambda: bool(x), lambda: hash(x),
            lambda: x / 2.0, lambda: x ** 2, lambda: abs(x), lambda: x * math.inf,
            lambda: x + np.float32(1.0), lambda: math.sqrt(x), lambda: np.sqrt(x), lambda: 1j * x,
        ]:
            with pytest.raises(TypeError):
                refused()


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
        """The third stage derivative is non-finite, so the fourth stage state
        is; in 1-, 3- and 5-D runs, wherever the component fits."""
        field = _goes_bad(component, value, 2.025)
        for d in (1, 3, 5)[(component + 1) // 2 :]:
            with pytest.raises(BlowUpError, match="non-finite state during step at t = 2.08") as info:
                integrate(field, self.Y0[:d], 0.0, 5.0, 0.5, self.LOOSE)
            partial = info.value.partial_traj
            np.testing.assert_array_equal(partial.times, [0.0, 0.5, 1.0, 1.5, 2.0])
            assert partial.states.shape == (5, d) and np.all(np.isfinite(partial.states))
            np.testing.assert_array_equal(info.value.last_state, partial.states[-1])

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
            _rk4_once(_goes_bad(component, value, 0.0), self.Y0, 0.1)


def _assert_same_outcome(block_outcome, scalar_run):
    """A block member's outcome equals its scalar run bit for bit: results, or
    the error with its message, time, last state and partial results."""
    try:
        scalar = scalar_run()
    except (BlowUpError, StepBudgetError, StiffnessError) as exc:
        assert type(block_outcome) is type(exc)
        assert (str(block_outcome), block_outcome.t) == (str(exc), exc.t)
        assert block_outcome.last_state.tobytes() == exc.last_state.tobytes()
        _assert_same_results(
            (None, block_outcome.partial_log, block_outcome.partial_traj),
            (None, exc.partial_log, exc.partial_traj),
        )
        return
    _assert_same_results(block_outcome, scalar)


def _assert_same_results(a, b):
    (bundle_a, log_a, traj_a), (bundle_b, log_b, traj_b) = a, b
    if bundle_b is not None:
        assert bundle_a.base.tobytes() == bundle_b.base.tobytes()
        assert bundle_a.frame.tobytes() == bundle_b.frame.tobytes()
    for name in ("times", "intervals", "log_stretches"):
        assert getattr(log_a, name).tobytes() == getattr(log_b, name).tobytes()
    if traj_b is None:
        assert traj_a is None
        return
    assert traj_a.times.tobytes() == traj_b.times.tobytes()
    assert traj_a.states.tobytes() == traj_b.states.tobytes()
    assert (traj_a.steps_taken, traj_a.steps_rejected) == (
        traj_b.steps_taken,
        traj_b.steps_rejected,
    )


def _system(p, name, value):
    if name == "K":
        return reduced_system(p, value)
    return full_system(Params(**{**p.__dict__, name: value}))


class TestTangentBlock:
    """Each member of a block gets exactly its own integrate_with_tangents run."""

    @pytest.fixture(autouse=True)
    def block_of_any_size(self, monkeypatch):
        """Every set of two or more members runs as one `_Dp54Block`; the
        blocks run are counted in self.blocks, the members run alone through
        `integrate_with_tangents` in self.alone."""
        monkeypatch.setattr(integrator, "_MIN_BATCH", 2)
        self.blocks = self.alone = 0
        run, alone = _Dp54Block.run, integrator.integrate_with_tangents

        def counted_run(block):
            self.blocks += 1
            return run(block)

        def counted_alone(*args, **kwargs):
            self.alone += 1
            return alone(*args, **kwargs)

        monkeypatch.setattr(_Dp54Block, "run", counted_run)
        monkeypatch.setattr(integrator, "integrate_with_tangents", counted_alone)

    def run_both(self, p, name, values, y0, t0, t1, renorm, cfg, out_stride):
        """The block's outcomes, each checked against its own run; only the
        members that fail run alone."""
        d = len(y0)
        bundles = [TangentBundle(base=np.array(y0), frame=np.eye(d)) for _ in values]
        systems = [_system(p, name, v) for v in values]
        block = integrate_tangent_block(
            [s.field for s in systems], [s.jacobian for s in systems], bundles, t0, t1, renorm, cfg,
            out_stride=out_stride,
        )
        assert self.blocks == 1
        assert len(block) == len(values)
        # Only the members that fail run alone: a block in which none fails
        # costs no run more than the block itself.
        assert self.alone == sum(isinstance(outcome, IntegrationError) for outcome in block)
        for system, outcome in zip(systems, block):
            _assert_same_outcome(
                outcome,
                lambda: integrate_with_tangents(
                    system.field,
                    system.jacobian,
                    TangentBundle(base=np.array(y0), frame=np.eye(d)),
                    t0,
                    t1,
                    renorm,
                    cfg,
                    out_stride=out_stride,
                ),
            )
        return block

    @pytest.mark.parametrize("out_stride", [0.1, None])
    def test_full_system_c_values(self, out_stride):
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
        self.run_both(
            p, "C", [-1.5, -1.2, -0.9, -0.6], [0.73, -0.4, 0.2, 0.33, 0.11],
            0.0, 20.0, 1.0, IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8), out_stride,
        )

    @pytest.mark.parametrize("name, values", [("D", [-1.0, 0.5]), ("E", [-0.5, -2.0]), ("F", [0.0, 0.3])])
    def test_other_constants(self, name, values):
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
        self.run_both(
            p, name, values, [0.73, -0.4, 0.2, 0.33, 0.11],
            0.0, 6.0, 1.0, IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8), 0.25,
        )

    def test_reduced_system_k_values(self):
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
        self.run_both(
            p, "K", [-1.0, 0.0, 0.7], [0.1, 0.05, 0.0],
            5.0, 25.0, 1.0, IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8), 0.1,
        )

    # On the invariant line y1 = y2 = y4 = y5 = 0 the frame grows at a rate
    # rising to C + 2.
    LINE = [0.0, 0.0, 1.99, 0.0, 0.0]

    def test_blow_up_budget_and_completion_in_one_block(self):
        """At C = 1 the frame passes 1e12 in the second renorm interval, at
        C = 0.6 the step budget runs out first, and at C = -2.5 the run
        completes."""
        p = Params(C=-2.5, D=-1.0, E=-0.1, F=0.0)
        cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9, max_steps=1000)
        block = self.run_both(p, "C", [-2.5, 0.6, 1.0], self.LINE, 1.0, 41.0, 10.0, cfg, 0.1)
        assert [type(outcome) for outcome in block] == [tuple, StepBudgetError, BlowUpError]

    def test_step_below_h_min_in_one_block(self):
        """With h_min = h_init = 0.05 the first steps at C = -2.5 and C = 1 are
        rejected below h_min; C = 0.6 spends its step budget."""
        p = Params(C=-2.5, D=-1.0, E=-0.1, F=0.0)
        cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9, h_init=0.05, h_min=0.05, max_steps=1000)
        block = self.run_both(p, "C", [-2.5, 0.6, 1.0], self.LINE, 1.0, 41.0, 10.0, cfg, 0.1)
        assert [type(outcome) for outcome in block] == [StiffnessError, StepBudgetError, StiffnessError]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("component", range(3))
    def test_non_finite_stage_state(self, component, value):
        """Member 1's field goes bad at t = 2.025: the block drops it, and
        member 0 is unaffected."""
        A = np.diag([-1.0, -2.0, -0.5])

        def field(t, cols):
            f = [-c for c in cols]
            bad = f[component].copy()
            bad[1] = value if t[1] >= 2.025 else bad[1]
            f[component] = bad
            return f

        def jacobian(t, cols):
            return [np.full(2, a) for a in A.ravel()]

        bundles = [TangentBundle(base=np.array([1.0, -0.5, 0.25]), frame=np.eye(3))] * 2
        cfg = TestNonFiniteBlowUp.LOOSE
        block = _Dp54Block(field, jacobian, bundles, 0.0, _Events(0.0, 5.0, 0.5, 1.0), cfg).run()
        assert block[1] is None
        _assert_same_outcome(
            block[0],
            lambda: integrate_with_tangents(decay, lambda t, y: A, bundles[0], 0.0, 5.0, 1.0, cfg, out_stride=0.5),
        )

    def test_controller_runs_for_the_members_that_attempt_a_step(self, monkeypatch):
        """A block calls the step-size controller once per attempted step of
        a member, not for the members that are done."""
        systems = [_system(Params(-1.0, -1.0, -0.5, 0.0), "C", c) for c in (-1.5, -1.0, -0.6)]
        field, jacobian = _columns([s.field for s in systems]), _columns([s.jacobian for s in systems])
        bundles = [TangentBundle(base=np.array([0.73, -0.4, 0.2, 0.33, 0.11]), frame=np.eye(5))] * 3
        calls = []
        monkeypatch.setattr(integrator, "_controller_factor", lambda err: calls.append(err) or _controller_factor(err))
        block = _Dp54Block(field, jacobian, bundles, 0.0, _Events(0.0, 5.0, 0.5, 1.0), IntegratorConfig())
        assert None not in block.run()
        assert len(calls) == (block.taken + block.rejected).sum()

    def test_renorm_of_a_stack_with_a_lost_frame(self):
        """Each full-rank frame of a stack gets the Q and log row of its own
        renorm; only the frame that lost rank is flagged."""
        frames = np.random.default_rng(5).normal(size=(5, 5, 5))
        frames[2, :, 3] = 0.0
        q, logs, full = _renorm_frames(frames)
        assert full.tolist() == [True, True, False, True, True]
        assert len(q) == len(logs) == 4
        for k, q_k, log_k in zip([0, 1, 3, 4], q, logs):
            [q_own], [log_own], [full_own] = _renorm_frames(frames[k : k + 1])
            assert full_own
            assert q_k.tobytes() == q_own.tobytes() and log_k.tobytes() == log_own.tobytes()

    def test_validates_like_the_scalar_run(self):
        systems = [_system(Params(-1.0, -1.0, -0.5, 0.0), "C", c) for c in (-1.0, -0.8)]
        fields, jacobians = [s.field for s in systems], [s.jacobian for s in systems]
        bundles = [TangentBundle(base=np.ones(5), frame=np.eye(5))] * 2
        cfg = IntegratorConfig()
        with pytest.raises(ValueError):
            integrate_tangent_block(fields, jacobians, bundles, 0.0, 1.0, 0.0, cfg)
        with pytest.raises(ValueError):
            integrate_tangent_block(fields, jacobians, bundles, 1.0, 1.0, 1.0, cfg)
        skew = [TangentBundle(base=np.ones(5), frame=2.0 * np.eye(5))] * 2
        with pytest.raises(InvalidStateError):
            integrate_tangent_block(fields, jacobians, skew, 0.0, 1.0, 1.0, cfg)
        assert self.blocks == 0

    def test_formulas_with_other_constant_counts_run_on_their_own(self, monkeypatch):
        """Ten members of one formula, five passing one constant and five
        two, are not one block; each gets its own run's bits."""
        monkeypatch.setattr(integrator, "_MIN_BATCH", 10)
        consts = [(a,) for a in (0.5, 1.0, 1.5, 2.0, 2.5)] + [(a, 0.5) for a in (0.5, 1.0, 1.5, 2.0, 2.5)]
        systems = [_formula_system((_defaulted_rhs, c), (_defaulted_jac, c), 2) for c in consts]
        fields, jacobians = [s.field for s in systems], [s.jacobian for s in systems]
        bundle = TangentBundle(base=np.array([0.5, 0.1]), frame=np.eye(2))
        cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9)
        block = integrate_tangent_block(fields, jacobians, [bundle] * 10, 0.0, 10.0, 1.0, cfg, 0.5)
        assert self.blocks == 0
        for field, jacobian, outcome in zip(fields, jacobians, block):
            _assert_same_outcome(
                outcome,
                lambda: integrate_with_tangents(field, jacobian, bundle, 0.0, 10.0, 1.0, cfg, 0.5),
            )

    @pytest.mark.parametrize("route", ["fixed-RK4", "no formula"])
    def test_members_the_block_cannot_take_run_on_their_own(self, route):
        """An RK4 set, and a DP54 set whose fields carry no formula, give each
        member its own run's outcome, a failed one included."""
        p = Params(C=-2.5, D=-1.0, E=-0.1, F=0.0)
        systems = [_system(p, "C", c) for c in (-2.5, 1.0)]
        fields = [s.field for s in systems]
        if route == "no formula":
            cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9)
            fields = [lambda t, y, f=f: f(t, y) for f in fields]
        else:
            cfg = IntegratorConfig(method="fixed-RK4", h_init=0.01, h_max=0.01)
        jacobians = [s.jacobian for s in systems]
        bundles = [TangentBundle(base=np.array([0.0, 0.0, 1.99, 0.0, 0.0]), frame=np.eye(5))] * 2
        block = integrate_tangent_block(fields, jacobians, bundles, 1.0, 41.0, 10.0, cfg, 0.1)
        assert self.blocks == 0
        assert isinstance(block[1], BlowUpError)
        for field, jacobian, outcome in zip(fields, jacobians, block):
            _assert_same_outcome(
                outcome,
                lambda: integrate_with_tangents(field, jacobian, bundles[0], 1.0, 41.0, 10.0, cfg, 0.1),
            )


def test_block_members_own_their_arrays():
    """A block hands each member arrays of its own, as a run alone does:
    writing into member 0's results leaves member 1's as its run left them."""
    systems = [full_system(Params(c, -1.0, -0.5, 0.0)) for c in np.linspace(-2.5, -2.2, 21)]
    assert len(systems) >= integrator._MIN_BATCH  # one `_Dp54Block`
    bundles = [TangentBundle(base=np.array([0.73, -0.4, 0.2, 0.33, 0.11]), frame=np.eye(5))] * len(systems)
    fields, jacobians = [s.field for s in systems], [s.jacobian for s in systems]
    block = integrate_tangent_block(fields, jacobians, bundles, 0.0, 2.0, 1.0, IntegratorConfig(), 0.5)
    (_, log0, traj0), (_, log1, traj1) = block[:2]
    for a, b in [(traj0.times, traj1.times), (traj0.states, traj1.states), (log0.times, log1.times),
                 (log0.intervals, log1.intervals), (log0.log_stretches, log1.log_stretches)]:
        assert not np.shares_memory(a, b)
    traj0.times[1] = 99.0
    assert traj1.times.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]


def _reference_events(t0: float, t1: float, renorm_interval: float, out_stride):
    """(event times, renorm set, sample times or None, sample set) of a tangent run.

    The events are the renorm and sample times after t0, sorted; a run steps
    exactly onto each one.
    """
    renorm_times = _output_times(t0, t1, renorm_interval)[1:]
    sample_times = _output_times(t0, t1, out_stride) if out_stride else None
    renorm_set = set(renorm_times.tolist())
    sample_set = set(sample_times[1:].tolist()) if sample_times is not None else set()
    return sorted(renorm_set | sample_set), renorm_set, sample_times, sample_set


def _reference_run(stepper, t0, t1, renorm_interval, out_stride, d):
    """The event loop of a tangent run as list appends over the reference
    events, with a closure for the (partial) results; each renorm is one QR
    with a positive diagonal."""
    event_times, renorm_set, sample_times, sample_set = _reference_events(
        t0, t1, renorm_interval, out_stride
    )
    log_times, log_dts, log_rows = [], [], []
    samples = [np.array(stepper.y[:d])] if sample_times is not None else None
    last_renorm_t = t0

    def _partial_results():
        log = RenormLog(
            np.array(log_times), np.array(log_dts), np.array(log_rows).reshape(len(log_rows), d)
        )
        traj = None
        if samples is not None and len(samples) > 0:
            n = len(samples)
            traj = Trajectory(
                times=sample_times[:n],
                states=np.array(samples),
                dimension=d,
                steps_taken=stepper.steps_taken,
                steps_rejected=stepper.steps_rejected,
            )
        return log, traj

    try:
        for te in event_times:
            stepper.step_to(te)
            if te in sample_set:
                samples.append(stepper.y[:d])
            if te in renorm_set:
                frame = np.array(stepper.y[d:]).reshape(d, d)
                q, r = np.linalg.qr(frame)
                stretches = np.abs(np.diag(r))
                q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
                if np.any(stretches == 0.0):
                    raise BlowUpError(
                        f"tangent frame degenerated at t = {te!r}",
                        t=te,
                        last_state=np.array(stepper.y[:d]),
                    )
                log_times.append(te)
                log_dts.append(te - last_renorm_t)
                log_rows.append(np.log(stretches))
                last_renorm_t = te
                stepper.y = stepper.y[:d] + q.ravel().tolist()
                stepper.refresh_derivative()
    except IntegrationError as exc:
        exc.partial_log, exc.partial_traj = _partial_results()
        raise

    return _partial_results()


class _ScriptedStepper:
    """Jumps onto each stop it is sent to with a state and frame that depend
    on the stop; its step budget runs out at call `fail_at`, and its frame
    is zero from call `zero_at` on."""

    def __init__(self, d, fail_at=-1, zero_at=-1):
        self.d, self.fail_at, self.zero_at = d, fail_at, zero_at
        self.m = np.random.default_rng(d).normal(size=(d, d))
        self.y = [0.5] * d + np.eye(d).ravel().tolist()
        self.calls = self.steps_taken = self.steps_rejected = 0

    def step_to(self, te):
        if self.calls == self.fail_at:
            raise StepBudgetError(f"scripted at t = {te!r}", t=te, last_state=np.array(self.y))
        frame = np.array(self.y[self.d :]).reshape(self.d, self.d) @ ((1.0 + te) * self.m)
        if self.calls >= self.zero_at >= 0:
            frame[:] = 0.0
        self.y = [te * (i + 1.0) for i in range(self.d)] + frame.ravel().tolist()
        self.calls += 1
        self.steps_taken += 2
        self.steps_rejected += self.calls % 2

    def refresh_derivative(self):
        pass


def _windows(rng, n):
    """Random (t0, t1, out_stride, renorm_interval), with and without samples."""
    for i in range(n):
        t0 = float(rng.choice([0.0, rng.uniform(-5.0, 5.0)]))
        t1 = t0 + float(rng.choice([rng.uniform(0.05, 30.0), rng.integers(1, 30)]))
        renorm = float(rng.choice([1.0, 0.5, 10.0 ** rng.uniform(-1.5, 1.2)]))
        stride = rng.choice([None, 0.1, 0.25, renorm, 10.0 ** rng.uniform(-1.5, 0.7)])
        yield t0, t1, None if stride is None else float(stride), renorm


class TestEvents:
    """The schedule of a run equals the set-based one it replaced."""

    def assert_schedule(self, t0, t1, stride, renorm):
        events = _Events(t0, t1, stride, renorm)
        stops, renorm_set, _, sample_set = _reference_events(t0, t1, renorm, stride)
        renorm_times = sorted(renorm_set)
        want = {
            "times": np.array(stops, dtype=float),
            "sampled": np.array([te in sample_set for te in stops], dtype=bool),
            "renormed": np.array([te in renorm_set for te in stops], dtype=bool),
            "renorm_times": np.array(renorm_times, dtype=float),
            "intervals": np.array([b - a for a, b in zip([t0] + renorm_times, renorm_times)], dtype=float),
        }
        for name, value in want.items():
            got = getattr(events, name)
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name
        return events

    def test_table_matches_reference(self):
        rng = np.random.default_rng(2024)
        for t0, t1, stride, renorm in _windows(rng, 300):
            self.assert_schedule(t0, t1, stride, renorm)

    def test_coincident_and_one_ulp_apart(self):
        """Stride 0.1 and renorm 0.3 from 0: 15 * 0.1 and 5 * 0.3 are both
        1.5, one stop that samples and renormalizes, but 3 * 0.1 lies one ulp
        above 0.3, so both are stops, one of each kind."""
        events = self.assert_schedule(0.0, 3.0, 0.1, 0.3)
        stops = events.times.tolist()
        k = stops.index(1.5)
        assert events.sampled[k] and events.renormed[k]
        k = stops.index(0.3)
        assert stops[k + 1] == 0.30000000000000004 == np.nextafter(0.3, 1.0)
        assert not events.sampled[k] and events.renormed[k]
        assert events.sampled[k + 1] and not events.renormed[k + 1]

    def test_validates_window_and_steps(self):
        for args in [(1.0, 1.0), (0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (0.0, 1.0, None, 0.0),
                     (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)]:
            with pytest.raises(ValueError):
                _Events(*args)
        assert _Events(0.0, 1.0).times.size == 0

    @pytest.mark.parametrize("stride", [0.25, None])
    def test_partial_results_match_reference(self, stride):
        """At every stop, a step failure and a frame that degenerates leave
        the reference's partial results; a whole run leaves its results."""
        t0, t1, renorm, d = 0.5, 4.0, 0.7, 3
        n_ev = _Events(t0, t1, stride, renorm).times.size
        cases = [{}] + [{"fail_at": k} for k in range(n_ev)] + [{"zero_at": k} for k in range(n_ev)]
        for case in cases:
            outcomes = []
            for run in (
                lambda s: _run_events(s, _Events(t0, t1, stride, renorm), d),
                lambda s: _reference_run(s, t0, t1, renorm, stride, d),
            ):
                try:
                    outcomes.append(run(_ScriptedStepper(d, **case)))
                except IntegrationError as exc:
                    outcomes.append(exc)
            got, want = outcomes
            if isinstance(want, IntegrationError):
                assert type(got) is type(want), case
                assert (str(got), got.t) == (str(want), want.t)
                assert got.last_state.tobytes() == want.last_state.tobytes()
                got, want = (got.partial_log, got.partial_traj), (want.partial_log, want.partial_traj)
            _assert_same_results((None,) + tuple(got), (None,) + tuple(want))

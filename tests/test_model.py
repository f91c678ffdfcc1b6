"""Vector fields, Jacobians, equilibrium, and the K-plane lift and projection.

Derived expectations are computed by their oracles: Jacobians against central
finite differences, the manifold consistency against lift-then-evaluate, hand
substitutions double-checked term by term.
"""

import numpy as np
import pytest

from dynlab.errors import DegenerateParametersError, InvalidStateError
from dynlab.integrator import _columns, _float_kernel
from dynlab.model import (
    KRatio,
    Params,
    equilibrium,
    full_jacobian,
    full_vector_field,
    full_system,
    lift,
    project,
    reduced_system,
)

RNG = np.random.default_rng(7)


def fd_jacobian(fn, y, h=1e-6):
    """Central finite differences, the oracle for every analytic Jacobian."""
    y = np.asarray(y, dtype=float)
    n = y.size
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, j] = (fn(y + e) - fn(y - e)) / (2.0 * h)
    return J


class TestFullField:
    def test_origin(self):
        """All state-dependent terms vanish at 0; only the torque F survives."""
        p = Params(C=-1.3, D=0.7, E=-0.4, F=2.5)
        np.testing.assert_array_equal(
            full_vector_field(np.zeros(5), p), [0.0, 0.0, 2.5, 0.0, 0.0]
        )

    def test_equilibrium_is_stationary(self):
        p = Params(C=-2.0, D=1.0, E=-1.5, F=3.0)
        f = full_vector_field(equilibrium(p), p)
        np.testing.assert_allclose(f, np.zeros(5), atol=1e-15)

    def test_hand_substitution(self):
        """y=(1,0,0,0,1), C=-1, D=1, E=-1, F=0: G=1/4, M=1, checked line by line."""
        p = Params(C=-1.0, D=1.0, E=-1.0, F=0.0)
        f = full_vector_field(np.array([1.0, 0.0, 0.0, 0.0, 1.0]), p)
        np.testing.assert_allclose(f, [-1.0, 1.5, 0.0, 2.5, -1.0], rtol=0, atol=0)

    def test_rejects_non_finite(self):
        p = Params(C=-1.0, D=1.0, E=-1.0, F=0.0)
        with pytest.raises(InvalidStateError):
            full_vector_field(np.array([1.0, np.nan, 0.0, 0.0, 0.0]), p)
        with pytest.raises(InvalidStateError):
            full_vector_field(np.array([np.inf, 0.0, 0.0, 0.0, 0.0]), p)
        with pytest.raises(InvalidStateError, match="expected a 5-vector"):
            full_vector_field(np.ones(4), p)

    def test_swap_symmetry(self):
        """Swapping (y1,y2) with (y4,y5) commutes with the field."""
        for _ in range(200):
            y = RNG.uniform(-5.0, 5.0, 5)
            p = Params(*RNG.uniform(-3.0, 3.0, 4))
            swapped = y[[3, 4, 2, 0, 1]]
            f = full_vector_field(y, p)
            fs = full_vector_field(swapped, p)
            np.testing.assert_allclose(fs, f[[3, 4, 2, 0, 1]], atol=1e-13 * (1 + np.abs(f).max()))


class TestFullJacobian:
    def test_entry_33_is_E(self):
        p = Params(C=0.3, D=-2.0, E=-0.7, F=1.0)
        for _ in range(10):
            J = full_jacobian(RNG.uniform(-5, 5, 5), p)
            assert J[2, 2] == p.E

    def test_row1_at_origin(self):
        p = Params(C=-1.2, D=0.4, E=-0.9, F=0.3)
        J = full_jacobian(np.zeros(5), p)
        np.testing.assert_allclose(J[0], [p.C, 2.0, 0.0, 0.0, 0.0], atol=1e-15)
        Jfd = fd_jacobian(lambda y: full_vector_field(y, p), np.zeros(5))
        np.testing.assert_allclose(J[0], Jfd[0], atol=1e-6)

    def test_matches_finite_differences(self):
        """Gradient check over 1000 random states and parameter draws."""
        for _ in range(1000):
            y = RNG.uniform(-5.0, 5.0, 5)
            p = Params(*RNG.uniform(-3.0, 3.0, 4))
            J = full_jacobian(y, p)
            Jfd = fd_jacobian(lambda v: full_vector_field(v, p), y)
            np.testing.assert_allclose(J, Jfd, atol=1e-5)


class TestReducedField:
    def test_axis_z3(self):
        p = Params(C=-0.5, D=1.0, E=-2.0, F=0.7)
        for K in (-1.5, 0.0, 2.0):
            z = np.array([0.0, 0.0, 1.3])
            np.testing.assert_allclose(
                reduced_system(p, K).field(0.0, z), [0.0, 0.0, p.E * 1.3 + p.F], atol=1e-15
            )

    def test_k_zero_matches_planar_full_system(self):
        p = Params(C=-0.8, D=-1.0, E=-0.5, F=0.2)
        for _ in range(50):
            z = RNG.uniform(-3.0, 3.0, 3)
            g3 = reduced_system(p, 0.0).field(0.0, z)
            g5 = full_vector_field(np.array([z[0], z[1], z[2], 0.0, 0.0]), p)
            np.testing.assert_array_equal(g3, g5[:3])

    def test_hand_substitution_via_lift_oracle(self):
        """z=(1,0,0), K=1: the lift-then-evaluate oracle gives (-1, 2.25, 0)."""
        p = Params(C=-1.0, D=1.0, E=-1.0, F=0.0)
        z = np.array([1.0, 0.0, 0.0])
        oracle = full_vector_field(lift(z, 1.0), p)[:3]
        np.testing.assert_allclose(oracle, [-1.0, 2.25, 0.0], atol=1e-15)
        np.testing.assert_allclose(reduced_system(p, 1.0).field(0.0, z), oracle, atol=1e-15)


class TestReducedJacobian:
    def test_entry_33_is_E(self):
        p = Params(C=1.0, D=0.5, E=-1.7, F=0.0)
        for K in (-2.0, 0.0, 0.5):
            J = reduced_system(p, K).jacobian(0.0, RNG.uniform(-4, 4, 3))
            assert J[2, 2] == p.E

    def test_row1_at_origin(self):
        p = Params(C=-2.1, D=1.0, E=-1.0, F=0.0)
        J = reduced_system(p, 0.7).jacobian(0.0, np.zeros(3))
        np.testing.assert_allclose(J[0], [p.C, 2.0, 0.0], atol=1e-15)

    def test_matches_finite_differences(self):
        for _ in range(1000):
            z = RNG.uniform(-5.0, 5.0, 3)
            K = RNG.uniform(-3.0, 3.0)
            p = Params(*RNG.uniform(-3.0, 3.0, 4))
            system = reduced_system(p, K)
            Jfd = fd_jacobian(lambda v: system.field(0.0, v), z)
            J = system.jacobian(0.0, z)
            np.testing.assert_allclose(J, Jfd, atol=1e-5)


class TestEquilibrium:
    def test_values(self):
        np.testing.assert_array_equal(
            equilibrium(Params(C=0.1, D=0.2, E=-1.0, F=0.0)), np.zeros(5)
        )
        np.testing.assert_array_equal(
            equilibrium(Params(C=0.1, D=0.2, E=-2.0, F=4.0)), [0, 0, 2.0, 0, 0]
        )

    def test_degenerate_E(self):
        with pytest.raises(DegenerateParametersError):
            equilibrium(Params(C=1.0, D=1.0, E=0.0, F=1.0))

    def test_field_vanishes_for_random_params(self):
        for _ in range(100):
            C, D, F = RNG.uniform(-3, 3, 3)
            E = RNG.uniform(-3, 3)
            if abs(E) <= 1e-6:
                E = 1.0
            p = Params(C=C, D=D, E=E, F=F)
            f = full_vector_field(equilibrium(p), p)
            np.testing.assert_allclose(f, np.zeros(5), atol=1e-15 * (1 + abs(F / E)))


class TestBoundaryCircle:
    def test_field_vanishes_on_circle(self):
        """At C = -2 with S* = 8F/(E-4D) > 0, every point of the circle
        {y1=y2=u, y4=y5=v, u^2+v^2 = S*/2, y3 = -S*/8} is an equilibrium
        (G = 0 there) with spectrum {0, 0, E, -4, -4}."""
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 2000:
            D, E, F = rng.uniform(-3.0, 3.0, 3)
            s_star = 8.0 * F / (E - 4.0 * D)
            if not 0.0 < s_star <= 20.0:
                continue
            checked += 1
            p = Params(C=-2.0, D=D, E=E, F=F)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            u, v = np.sqrt(s_star / 2.0) * np.array([np.cos(theta), np.sin(theta)])
            y = np.array([u, u, -s_star / 8.0, v, v])
            np.testing.assert_allclose(
                full_vector_field(y, p), np.zeros(5), atol=1e-14 * (1.0 + s_star) ** 1.5
            )
            eig = np.linalg.eigvals(full_jacobian(y, p))
            np.testing.assert_allclose(eig.imag, 0.0, atol=1e-9)
            np.testing.assert_allclose(
                np.sort(eig.real), np.sort([0.0, 0.0, E, -4.0, -4.0]), atol=1e-9
            )


class TestLift:
    def test_standard_values(self):
        np.testing.assert_array_equal(lift([1.0, 2.0, 3.0], 0.0), [1, 2, 3, 0, 0])
        np.testing.assert_array_equal(lift([1.0, 2.0, 3.0], 2.0), [1, 2, 3, 2, 4])

    def test_swapped_variant(self):
        y = lift([1.0, 2.0, 3.0], KRatio.swapped(0.5))
        np.testing.assert_array_equal(y, [0.5, 1.0, 3.0, 1.0, 2.0])

    def test_lift_then_project_is_identity(self):
        """project(lift(z, K), K) returns z bit for bit for every kind of K."""
        for _ in range(50):
            z = RNG.uniform(-4, 4, 3)
            K = RNG.uniform(-3, 3)
            for k in (K, KRatio.standard(K), KRatio.swapped(K), KRatio.zero_pair()):
                back = project(lift(z, k), k)
                assert back.tobytes() == z.tobytes()

    def test_project_values(self):
        y = [1.0, 2.0, 3.0, 4.0, 5.0]
        np.testing.assert_array_equal(project(y, 0.5), [1, 2, 3])
        np.testing.assert_array_equal(project(y, KRatio.zero_pair()), [1, 2, 3])
        np.testing.assert_array_equal(project(y, KRatio.swapped(0.5)), [4, 5, 3])

    def test_block_equals_rows(self):
        """Lifting and projecting an (n, d) block equals the row-by-row maps."""
        z = RNG.uniform(-4, 4, (20, 3))
        for k in (-1.3, KRatio.swapped(0.7), KRatio.zero_pair()):
            lifted = lift(z, k)
            assert lifted.shape == (20, 5)
            assert lifted.tobytes() == np.array([lift(row, k) for row in z]).tobytes()
            back = project(lifted, k)
            assert back.tobytes() == np.array([project(row, k) for row in lifted]).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        z, y = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        for i in range(3):
            zb = z.copy()
            zb[i] = bad
            with pytest.raises(InvalidStateError):
                lift(zb, 1.0)
        for i in range(5):
            yb = y.copy()
            yb[i] = bad
            with pytest.raises(InvalidStateError):
                project(yb, 1.0)
        for fn, state in ((lift, z), (project, y)):
            with pytest.raises(InvalidStateError):
                fn(state, bad)
            with pytest.raises(InvalidStateError):
                fn([state, state], bad)
        with pytest.raises(InvalidStateError, match="K is not finite"):
            reduced_system(Params(-1.0, -1.0, -0.5, 0.0), bad)

    @pytest.mark.parametrize("K", [1e155, -1e200, 1.7976931348623157e308])
    def test_k_whose_square_overflows_rejected(self, K):
        """K is finite and so is its lift, but 1 + K^2 is not: the reduced
        formulas would run on q = inf, so the system is refused."""
        assert np.all(np.isfinite(lift([0.1, 0.2, 0.0], K)))
        with pytest.raises(InvalidStateError, match=r"1 \+ K\^2 is not finite"):
            reduced_system(Params(-1.0, -1.0, -0.5, 0.0), K)
        reduced_system(Params(-1.0, -1.0, -0.5, 0.0), 1e154)  # 1 + K^2 = 1e308

    def test_wrong_last_axis_rejected(self):
        for fn, dim in ((lift, 3), (project, 5)):
            for shape in ((), (dim - 1,), (dim + 1,), (4, dim + 2), (dim, 2)):
                with pytest.raises(InvalidStateError):
                    fn(np.ones(shape), 1.0)

    def test_manifold_consistency(self):
        """The K-plane is exactly invariant: the lifted derivative is conformal.

        full_vector_field(lift(z, K)) must have components 4,5 equal to K
        times components 1,2, and components 1-3 equal to the reduced field.
        """
        for _ in range(300):
            z = RNG.uniform(-4.0, 4.0, 3)
            K = RNG.uniform(-3.0, 3.0)
            p = Params(*RNG.uniform(-3.0, 3.0, 4))
            f5 = full_vector_field(lift(z, K), p)
            f3 = reduced_system(p, K).field(0.0, z)
            scale = 1.0 + np.abs(f5).max()
            np.testing.assert_allclose(f5[:3], f3, atol=1e-13 * scale, rtol=1e-13)
            np.testing.assert_allclose(f5[3], K * f5[0], atol=1e-13 * scale)
            np.testing.assert_allclose(f5[4], K * f5[1], atol=1e-13 * scale)


def _rotation(theta):
    """R: (y1, y4) and (y2, y5) each turned by theta, y3 fixed."""
    c, s = np.cos(theta), np.sin(theta)
    R = np.eye(5)
    for i, j in ((0, 3), (1, 4)):
        R[i, i] = R[j, j] = c
        R[i, j], R[j, i] = -s, s
    return R


# The rotation's generator dR/dtheta at 0: A y = (-y4, -y5, 0, y1, y2).
A = np.zeros((5, 5))
A[0, 3] = A[1, 4] = -1.0
A[3, 0] = A[4, 1] = 1.0


def _gap(a, b):
    """|a - b|inf relative to max(1, |a|inf, |b|inf)."""
    return np.abs(a - b).max() / max(1.0, np.abs(a).max(), np.abs(b).max())


class TestRotationSymmetry:
    """Turning (y1, y4) and (y2, y5) by one angle maps solutions to solutions,
    and so every K-plane is the K = 0 plane turned and scaled: exact oracles,
    checked pointwise.  Over these draws the worst gaps measure 5e-16 to 2.4e-15."""

    DRAWS = 2000
    BOUND = 1e-14

    def draws(self, seed):
        """(Params, 5-D state, angle): constants in [-3, 3], states in [-2, 2]."""
        rng = np.random.default_rng(seed)
        for _ in range(self.DRAWS):
            yield Params(*rng.uniform(-3.0, 3.0, 4)), rng.uniform(-2.0, 2.0, 5), rng.uniform(-np.pi, np.pi)

    def test_field_and_jacobian_commute_with_rotation(self):
        """f(Ry) = R f(y) and J(Ry) = R J(y) R^T."""
        worst_f = worst_j = 0.0
        for p, y, theta in self.draws(11):
            R = _rotation(theta)
            worst_f = max(worst_f, _gap(full_vector_field(R @ y, p), R @ full_vector_field(y, p)))
            worst_j = max(worst_j, _gap(full_jacobian(R @ y, p), R @ full_jacobian(y, p) @ R.T))
        assert worst_f <= self.BOUND and worst_j <= self.BOUND, (worst_f, worst_j)

    def test_jacobian_carries_the_rotation_direction(self):
        """J(y) A y = A f(y): along a solution, A y(t) solves the variational
        equation, which is the structural 0 exponent of every full spectrum."""
        worst = 0.0
        for p, y, _ in self.draws(12):
            worst = max(worst, _gap(full_jacobian(y, p) @ (A @ y), A @ full_vector_field(y, p)))
        assert worst <= self.BOUND, worst

    def test_every_k_plane_is_the_k_zero_system_scaled(self):
        """With S = diag(s, s, 1), s = sqrt(1+K^2): S g_K(z) = g_0(S z)."""
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(self.DRAWS):
            p, K, z = Params(*rng.uniform(-3.0, 3.0, 4)), rng.uniform(-5.0, 5.0), rng.uniform(-2.0, 2.0, 3)
            s = np.sqrt(1.0 + K * K)
            S = np.array([s, s, 1.0])
            g_k, g_0 = reduced_system(p, K).field(0.0, z), reduced_system(p, 0.0).field(0.0, S * z)
            worst = max(worst, _gap(S * g_k, g_0))
        assert worst <= self.BOUND, worst


def _system(p, name, value):
    if name == "K":
        return reduced_system(p, value)
    return full_system(Params(**{**p.__dict__, name: value}))


class TestColumnKernels:
    """Column i of the column kernels (`integrator._columns`) of a block of
    systems has the bits of member i's own float kernels
    (`integrator._float_kernel`), for the field and for the Jacobian."""

    P = Params(C=-1.0, D=-0.7, E=-0.5, F=0.2)

    @pytest.mark.parametrize("name", ["C", "D", "E", "F", "K"])
    def test_members_match_their_systems(self, name):
        values = RNG.normal(size=6).tolist()
        d = 3 if name == "K" else 5
        states = RNG.normal(size=(6, d)) * 10.0 ** RNG.uniform(-3, 3, size=(6, 1))
        systems = [_system(self.P, name, v) for v in values]
        field = _columns([s.field for s in systems])
        jacobian = _columns([s.jacobian for s in systems])
        cols = states.T
        f_cols, j_cols = np.array(field(0.0, cols)), np.array(jacobian(0.0, cols))
        assert f_cols.shape == (d, 6) and j_cols.shape == (d * d, 6)
        for i, system in enumerate(systems):
            y = states[i].tolist()
            for cols, member in ((f_cols, system.field), (j_cols, system.jacobian)):
                want = np.array(_float_kernel(member)(0.0, y))
                assert cols[:, i].tobytes() == want.tobytes()

    def test_none_without_one_shared_formula(self):
        full, reduced = full_system(self.P), reduced_system(self.P, 0.5)
        assert _columns([full.field, reduced.field]) is None
        assert _columns([full.field, full.jacobian]) is None
        assert _columns([full.field, lambda t, y: full.field(t, y)]) is None
        assert _columns([np.sin]) is None


class TestTypes:
    def test_params_rejects_non_finite(self):
        with pytest.raises(InvalidStateError):
            Params(C=np.nan, D=0.0, E=1.0, F=0.0)

    def test_kratio_variants(self):
        assert KRatio.standard(2.0).kind == "standard"
        assert KRatio.swapped(0.0).kind == "swapped"
        assert KRatio.zero_pair().value == 0.0
        with pytest.raises(ValueError):
            KRatio("diagonal", 1.0)

    def test_constants_are_stored_as_floats(self):
        """numpy scalars and ints become floats, which the generated step
        loops run on; a string is still refused."""
        p = Params(C=np.float64(-1.0), D=np.float32(0.5), E=-2, F=np.int64(0))
        assert [type(v) for v in (p.C, p.D, p.E, p.F)] == [float] * 4
        assert (p.C, p.D, p.E, p.F) == (-1.0, 0.5, -2.0, 0.0)
        assert type(KRatio("standard", np.float64(0.5)).value) is float
        field_constants = reduced_system(p, np.float64(0.5)).field.formula[1]
        assert [type(v) for v in field_constants] == [float] * 5
        with pytest.raises(TypeError):
            Params(C="-1.0", D=0.0, E=1.0, F=0.0)

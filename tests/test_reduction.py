"""K extraction, full-vs-reduced equivalence, and drift diagnostics.

The oracle for manifold exactness is the conformality of the lifted field
(tested in test_model); here we check its flow-level consequence: full and
lifted-reduced trajectories agree to integration error.
"""

import warnings

import numpy as np
import pytest

from dynlab.errors import NotOnLimitSetError, RatioInconsistencyError
from dynlab.integrator import IntegratorConfig, integrate
from dynlab.model import KRatio, Params, equilibrium, full_system, lift
from dynlab.reduction import compare_full_vs_reduced, extract_k, k_drift

RNG = np.random.default_rng(31)


class TestExtractK:
    def test_standard(self):
        k = extract_k(np.array([1.0, 2.0, 0.7, 3.0, 6.0]))
        assert k.kind == "standard"
        assert k.value == 3.0

    def test_swapped(self):
        k = extract_k(np.array([0.0, 0.0, 1.3, 1.0, 2.0]))
        assert k.kind == "swapped"
        assert k.value == 0.0

    def test_zero_pair(self):
        k = extract_k(np.array([0.0, 0.0, -4.0, 0.0, 0.0]))
        assert k.kind == "zero-pair"
        assert k.value == 0.0

    def test_start_whose_square_norm_overflows(self):
        """|y0|^2 passes the float range and |y0| does not: the default zero
        threshold is taken without an overflow warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert extract_k([1e160, 2e160, 0.0, 3e160, 6e160]) == KRatio.standard(3.0)

    def test_not_on_limit_set(self):
        with pytest.raises(NotOnLimitSetError):
            extract_k(np.array([1.0, 0.0, 0.0, 0.0, 1.0]))

    def test_ratio_inconsistency(self):
        """Coarse zero_tol admits the bilinear precondition while the two
        ratios (2 vs 3) disagree far beyond tolerance."""
        with pytest.raises(RatioInconsistencyError):
            extract_k(np.array([0.1, 0.1, 0.0, 0.2, 0.3]), zero_tol=1e-2)

    def test_idempotence_on_lift(self):
        """extract_k(lift(z, K)) recovers K to round-off."""
        for _ in range(300):
            z = RNG.uniform(-4.0, 4.0, 3)
            if max(abs(z[0]), abs(z[1])) < 1e-3:
                z[0] = 1.0
            K = RNG.uniform(-3.0, 3.0)
            got = extract_k(lift(z, K))
            assert got.kind == "standard"
            assert abs(got.value - K) <= 8e-16 * (1.0 + abs(K))

    def test_branch_consistency(self):
        """When both pair components are usable the two ratios agree within
        zero_tol*(1+K^2)."""
        for _ in range(200):
            z1, z2 = RNG.uniform(0.5, 3.0, 2) * RNG.choice([-1.0, 1.0], 2)
            z3 = RNG.uniform(-2, 2)
            K = RNG.uniform(-3.0, 3.0)
            y = lift([z1, z2, z3], K)
            zero_tol = 1e-9 * (1.0 + float(np.linalg.norm(y)))
            k1 = y[3] / y[0]
            k2 = y[4] / y[1]
            assert abs(k1 - k2) <= zero_tol * (1.0 + k1 * k1)
            extract_k(y)  # must not raise

    def test_swapped_mirrors_standard(self):
        """With (y1, y2) below zero_tol the ratio is read the other way round:
        swapping the pairs of a standard state gives kind swapped with the
        same value bits."""
        for _ in range(200):
            a = RNG.uniform(0.5, 3.0, 2) * RNG.choice([-1.0, 1.0], 2)
            if RNG.random() < 0.3:
                a[RNG.integers(0, 2)] = 0.0
            b = RNG.uniform(-1e-4, 1e-4) * a
            y3 = RNG.uniform(-2.0, 2.0)
            std = extract_k([a[0], a[1], y3, b[0], b[1]], zero_tol=1e-3)
            swp = extract_k([b[0], b[1], y3, a[0], a[1]], zero_tol=1e-3)
            assert (std.kind, swp.kind) == ("standard", "swapped")
            assert np.float64(swp.value).tobytes() == np.float64(std.value).tobytes()

    def test_picks_larger_component(self):
        y = np.array([1e-12, 2.0, 0.0, 5e-13, 1.0])
        k = extract_k(y)
        assert k.kind == "standard"
        assert k.value == 0.5


class TestCompareFullVsReduced:
    def test_on_plane_deviation_small(self):
        """y0=(1,1,0,2,2) lies on the K=2 plane: deviation <= 1e-6 over t=50."""
        for p in (Params(-2.5, -1.0, -1.0, 0.5), Params(-1.8, -0.7, -0.4, 0.0)):
            cmp_ = compare_full_vs_reduced(
                np.array([1.0, 1.0, 0.0, 2.0, 2.0]), p, 50.0, 0.5, IntegratorConfig()
            )
            assert cmp_.K.kind == "standard"
            assert cmp_.K.value == 2.0
            assert cmp_.max_state_deviation <= 1e-6

    def test_returns_full_trajectory(self):
        """The comparison hands back the full run it measured against."""
        p = Params(-1.8, -0.7, -0.4, 0.0)
        y0 = np.array([1.0, 1.0, 0.0, 2.0, 2.0])
        cmp_ = compare_full_vs_reduced(y0, p, 20.0, 0.5, IntegratorConfig())
        full = integrate(full_system(p).field, y0, 0.0, 20.0, 0.5, IntegratorConfig())
        assert cmp_.full_trajectory.times.tobytes() == full.times.tobytes()
        assert cmp_.full_trajectory.states.tobytes() == full.states.tobytes()

    def test_equilibrium_start(self):
        p = Params(C=-2.0, D=1.0, E=-0.5, F=1.0)
        cmp_ = compare_full_vs_reduced(equilibrium(p), p, 10.0, 1.0, IntegratorConfig())
        assert cmp_.K.kind == "zero-pair"
        assert cmp_.max_state_deviation <= 1e-12

    def test_off_limit_set_raises(self):
        p = Params(C=-1.0, D=1.0, E=-1.0, F=0.0)
        with pytest.raises(NotOnLimitSetError):
            compare_full_vs_reduced(
                np.array([1.0, 0.0, 0.0, 0.0, 1.0]), p, 10.0, 1.0, IntegratorConfig()
            )

    def test_swapped_plane(self):
        """(y1,y2) = 0 start exercises the swapped representation."""
        p = Params(C=-2.2, D=-1.0, E=-0.8, F=0.3)
        y0 = np.array([0.0, 0.0, 0.4, 0.9, -0.6])
        cmp_ = compare_full_vs_reduced(y0, p, 30.0, 0.5, IntegratorConfig())
        assert cmp_.K.kind == "swapped"
        assert cmp_.max_state_deviation <= 1e-6

    def test_manifold_exactness_long_horizon(self):
        """No secular growth: on-plane agreement holds to t=100."""
        p = Params(C=-2.3, D=-1.0, E=-0.9, F=0.4)
        z = np.array([0.8, -0.6, 0.2])
        y0 = lift(z, -1.7)
        cmp_ = compare_full_vs_reduced(y0, p, 100.0, 1.0, IntegratorConfig())
        assert cmp_.max_state_deviation <= 10 * 1e-6


class TestKDrift:
    def test_on_plane_estimates_constant(self):
        p = Params(C=-0.9, D=-1.0, E=-0.5, F=0.1)
        y0 = lift([0.7, -0.4, 0.1], 2.0)
        traj = integrate(full_system(p).field, y0, 0.0, 40.0, 0.2, IntegratorConfig())
        drift = k_drift(traj)
        defined = ~np.isnan(drift.estimates)
        assert defined.any()
        est = drift.estimates[defined]
        np.testing.assert_allclose(est, 2.0, atol=1e-8)

    def test_equilibrium_all_undefined(self):
        p = Params(C=-2.0, D=1.0, E=-1.0, F=2.0)
        traj = integrate(full_system(p).field, equilibrium(p), 0.0, 5.0, 0.5, IntegratorConfig())
        drift = k_drift(traj)
        assert np.isnan(drift.estimates).all()

    def test_generic_run_converges_to_limit_ratio(self):
        """Off-plane start with C<0: estimates become Cauchy (within 1e-4)
        over the last 20% of a long run as the chaotic limit set is reached."""
        p = Params(C=-1.0, D=-1.0, E=-0.5, F=0.0)
        y0 = np.array([0.73, -0.4, 0.2, 0.33, 0.11])
        traj = integrate(full_system(p).field, y0, 0.0, 400.0, 0.5, IntegratorConfig())
        drift = k_drift(traj)
        n = drift.times.size
        tail = drift.estimates[int(0.8 * n):]
        tail = tail[~np.isnan(tail)]
        assert tail.size > 10
        assert tail.max() - tail.min() <= 1e-4

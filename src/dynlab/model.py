"""Averaged dynamics of the spherical-pendulum / limited-power-motor system.

The slow-time phase vector is y = (y1, y2, y3, y4, y5).  With the shared
subexpressions

    G(y) = y3 + (y1^2 + y2^2 + y4^2 + y5^2) / 8
    M(y) = y1*y5 - y2*y4

the full vector field reads

    y1' = C*y1 - G*y2 - (3/4)*M*y4 + 2*y2
    y2' = C*y2 + G*y1 - (3/4)*M*y5 + 2*y1
    y3' = D*(y1*y2 + y4*y5) + E*y3 + F
    y4' = C*y4 - G*y5 + (3/4)*M*y1 + 2*y5
    y5' = C*y5 + G*y4 + (3/4)*M*y2 + 2*y4

The planes {y4 = K*y1, y5 = K*y2} are invariant; on them the dynamics close
into the three-dimensional reduced system

    z1' = C*z1 - [z3 + (1/8)(1+K^2)(z1^2+z2^2)]*z2 + 2*z2
    z2' = C*z2 + [z3 + (1/8)(1+K^2)(z1^2+z2^2)]*z1 + 2*z1
    z3' = D*(1+K^2)*z1*z2 + E*z3 + F

K enters only through q = 1 + K^2: the reduced formulas take q as a
constant, which `reduced_system` computes once from K.

This module owns that embedding: `lift` maps reduced states into the full
space and `project` maps full states on a K-plane back, both over the last
axis of a single state or a block of states.  No other module spells out
where the reduced coordinates sit among the five.

All four constants C, D, E, F are dimensionless; C < 0 is the dissipative
regime.  G and M are evaluated once per call so that components share bitwise
identical subexpressions (several identity checks compare them at round-off
level).  The public functions take float64 numpy vectors and raise
InvalidStateError on non-finite input.  Each formula is written once, as an
unvalidated float kernel; the public functions validate and call it, and the
systems built by `full_system` / `reduced_system` hand it to the integrator
as ``formula = (fn, constants)`` on both kernels.  A formula does the same
arithmetic on whatever number-like values it gets (floats, the integrator's
numpy columns and its tracing stand-ins) and does not branch on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateParametersError, InvalidStateError

__all__ = [
    "Params",
    "KRatio",
    "DynamicalSystem",
    "full_vector_field",
    "full_jacobian",
    "equilibrium",
    "lift",
    "project",
    "full_system",
    "reduced_system",
]


@dataclass(frozen=True)
class Params:
    """Model constants: damping C, coupling D, motor slope E, torque term F.

    Each is stored as a Python float: a numpy scalar would make every step
    of the generated loops numpy-scalar arithmetic, with the same bits.
    """

    C: float
    D: float
    E: float
    F: float

    def __post_init__(self):
        for name in ("C", "D", "E", "F"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidStateError(f"parameter {name} is not finite: {v!r}")
            object.__setattr__(self, name, float(v))


@dataclass(frozen=True)
class KRatio:
    """Proportionality constant between the (y1,y2) and (y4,y5) pairs.

    kind "standard":  y4 = value*y1, y5 = value*y2.
    kind "swapped":   y1 = value*y4, y2 = value*y5 (used when the first pair
                      vanishes but the second does not).
    kind "zero-pair": both pairs vanish; any ratio is valid and callers
                      conventionally use 0.
    """

    kind: str
    value: float = 0.0

    _KINDS = ("standard", "swapped", "zero-pair")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown KRatio kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise InvalidStateError(f"KRatio value is not finite: {self.value!r}")
        object.__setattr__(self, "value", float(self.value))  # a float, as Params stores its constants

    @classmethod
    def standard(cls, value: float) -> "KRatio":
        return cls("standard", value)

    @classmethod
    def swapped(cls, value: float) -> "KRatio":
        return cls("swapped", value)

    @classmethod
    def zero_pair(cls) -> "KRatio":
        return cls("zero-pair", 0.0)


def _as_state(y, dim: int) -> list:
    """Unpack a state vector to Python floats, enforcing shape and finiteness."""
    vals = y.tolist() if isinstance(y, np.ndarray) else [float(v) for v in y]
    if len(vals) != dim:
        raise InvalidStateError(f"expected a {dim}-vector, got length {len(vals)}")
    for v in vals:
        if not math.isfinite(v):
            raise InvalidStateError(f"non-finite state component: {vals!r}")
    return vals


# --- float kernels -----------------------------------------------------------
# Each right-hand side and Jacobian is written once, here, without validation.
# The state components and constants may be Python floats (the integrator's
# stepper) or equal-length numpy columns (the vectorised verification suite,
# the batched tangent stepper); every operation is elementwise, so both give
# the same bits per state.


def _full_rhs(y, C, D, E, F) -> list:
    """Full field at y = (y1, ..., y5), as a list of its five components."""
    y1, y2, y3, y4, y5 = y
    G = y3 + 0.125 * (y1 * y1 + y2 * y2 + y4 * y4 + y5 * y5)
    m = 0.75 * (y1 * y5 - y2 * y4)  # (3/4) M
    return [
        C * y1 - G * y2 - m * y4 + 2.0 * y2,
        C * y2 + G * y1 - m * y5 + 2.0 * y1,
        D * (y1 * y2 + y4 * y5) + E * y3 + F,
        C * y4 - G * y5 + m * y1 + 2.0 * y5,
        C * y5 + G * y4 + m * y2 + 2.0 * y4,
    ]


def _full_jac(y, C, D, E) -> list:
    """Row-major entries of the 5x5 Jacobian of the full field.

    Products that several entries share are formed once, each as it would be
    written out in full (0.25*y1*y2 is (0.25*y1)*y2), so an entry's bits do
    not depend on the sharing; (-a)*b and -(a*b) are the same float.
    """
    y1, y2, y3, y4, y5 = y
    G = y3 + 0.125 * (y1 * y1 + y2 * y2 + y4 * y4 + y5 * y5)
    m = 0.75 * (y1 * y5 - y2 * y4)  # (3/4) M
    mG = -G
    a1, a2, a4, a5 = 0.25 * y1, 0.25 * y2, 0.25 * y4, 0.25 * y5
    b1, b2, b4, b5 = 0.75 * y1, 0.75 * y2, 0.75 * y4, 0.75 * y5
    p12, p45, q12, q45 = a1 * y2, b4 * y5, b1 * y2, a4 * y5
    r15, r24 = 0.5 * y1 * y5, 0.5 * y2 * y4
    s = -(a2 * y5) - b1 * y4
    u = a1 * y4 + b2 * y5
    return [
        C - p12 - p45,
        mG - a2 * y2 + b4 * y4 + 2.0,
        -y2,
        r24 - m,
        s,
        G + a1 * y1 - b5 * y5 + 2.0,
        C + p12 + p45,
        y1,
        u,
        -r15 - m,
        D * y2,
        D * y1,
        E,
        D * y5,
        D * y4,
        r15 + m,
        s,
        -y5,
        C - q45 - q12,
        mG - a5 * y5 + b1 * y1 + 2.0,
        u,
        -r24 + m,
        y4,
        G + a4 * y4 - b2 * y2 + 2.0,
        C + q45 + q12,
    ]


def _reduced_rhs(z, q, C, D, E, F) -> list:
    """Reduced field on the K-plane at z = (z1, z2, z3), with q = 1 + K^2."""
    z1, z2, z3 = z
    Gk = z3 + 0.125 * q * (z1 * z1 + z2 * z2)
    return [
        C * z1 - Gk * z2 + 2.0 * z2,
        C * z2 + Gk * z1 + 2.0 * z1,
        D * q * z1 * z2 + E * z3 + F,
    ]


def _reduced_jac(z, q, C, D, E) -> list:
    """Row-major entries of the 3x3 Jacobian of the reduced field, with q = 1 + K^2."""
    z1, z2, z3 = z
    Gk = z3 + 0.125 * q * (z1 * z1 + z2 * z2)
    kq = 0.25 * q
    return [
        C - kq * z1 * z2,
        -Gk - kq * z2 * z2 + 2.0,
        -z2,
        Gk + kq * z1 * z1 + 2.0,
        C + kq * z1 * z2,
        z1,
        D * q * z2,
        D * q * z1,
        E,
    ]


# --- validated public forms --------------------------------------------------


def full_vector_field(y, p: Params) -> np.ndarray:
    """Right-hand side of the full five-dimensional system."""
    return np.array(_full_rhs(_as_state(y, 5), p.C, p.D, p.E, p.F))


def full_jacobian(y, p: Params) -> np.ndarray:
    """Analytic 5x5 partial-derivative matrix of full_vector_field."""
    return np.array(_full_jac(_as_state(y, 5), p.C, p.D, p.E)).reshape(5, 5)


def equilibrium(p: Params) -> np.ndarray:
    """The fixed point (0, 0, -F/E, 0, 0); requires E != 0."""
    if p.E == 0.0:
        raise DegenerateParametersError("equilibrium is undefined for E = 0")
    return np.array([0.0, 0.0, -p.F / p.E, 0.0, 0.0])


def _as_block(a, dim: int) -> np.ndarray:
    """A float array of states along the last axis, enforcing length and finiteness."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0 or a.shape[-1] != dim:
        raise InvalidStateError(f"expected a last axis of length {dim}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidStateError(f"non-finite state component: {a!r}")
    return a


def _as_ratio(K) -> KRatio:
    """K itself, or a bare float read as a standard ratio (validated by KRatio)."""
    return K if isinstance(K, KRatio) else KRatio.standard(K)


def lift(z, K) -> np.ndarray:
    """Embed reduced states (..., 3) into the full space via the K-plane.

    Accepts a KRatio (any kind) or a bare float, treated as a standard ratio.
    Standard: (z1, z2, z3, K*z1, K*z2).  Swapped: the reduced coordinates play
    the (y4, y5) roles and (y1, y2) = K'*(z1, z2).  Zero-pair lifts with K = 0.
    """
    z = _as_block(z, 3)
    k = _as_ratio(K)
    z1, z2, z3 = z[..., 0], z[..., 1], z[..., 2]
    if k.kind == "swapped":
        return np.stack((k.value * z1, k.value * z2, z3, z1, z2), axis=-1)
    return np.stack((z1, z2, z3, k.value * z1, k.value * z2), axis=-1)


def project(y, K) -> np.ndarray:
    """Reduced coordinates (..., 3) of full states (..., 5) on the K-plane.

    The inverse of `lift` on its image: (y1, y2, y3) for standard and
    zero-pair ratios, (y4, y5, y3) for swapped ones.
    """
    y = _as_block(y, 5)
    return y[..., [3, 4, 2] if _as_ratio(K).kind == "swapped" else [0, 1, 2]]


@dataclass(frozen=True)
class DynamicalSystem:
    """A vector field with its Jacobian in integrator signature f(t, y).

    Both callables take and return numpy arrays and validate the state.  The
    ones built by `full_system` and `reduced_system` also carry a `kernel`
    attribute: the same formula on a list of floats, unvalidated, returning
    a list (the Jacobian's d*d entries row-major).  The integrator calls a
    kernel directly when there is one.  Each kernel also carries
    ``formula = (fn, constants)``, the function it calls with the state and
    those constants: the integrator writes the field's into its step loop,
    and runs a block of systems that share both formulas on columns of
    their constants.
    """

    field: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Callable[[float, np.ndarray], np.ndarray]
    dim: int


def _kernel(formula):
    """The float kernel (t, y) -> fn(y, *constants) of a formula (fn, constants),
    which it carries as its ``formula``."""
    fn, constants = formula

    def kernel(t, y):
        return fn(y, *constants)

    kernel.formula = formula
    return kernel


def _kernel_system(field_formula, jacobian_formula, dim: int) -> DynamicalSystem:
    """Validated array callables around the kernels of a field and a Jacobian formula."""
    field_kernel, jacobian_kernel = _kernel(field_formula), _kernel(jacobian_formula)

    def field(t, y):
        return np.array(field_kernel(t, _as_state(y, dim)))

    def jacobian(t, y):
        return np.array(jacobian_kernel(t, _as_state(y, dim))).reshape(dim, dim)

    field.kernel = field_kernel
    jacobian.kernel = jacobian_kernel
    return DynamicalSystem(field=field, jacobian=jacobian, dim=dim)


def full_system(p: Params) -> DynamicalSystem:
    """The full 5-D system packaged for the integrator."""
    C, D, E, F = p.C, p.D, p.E, p.F
    return _kernel_system((_full_rhs, (C, D, E, F)), (_full_jac, (C, D, E)), 5)


def reduced_system(p: Params, K: float) -> DynamicalSystem:
    """The reduced 3-D system on the K-plane, packaged for the integrator; its
    formulas read K only through q = 1 + K^2."""
    if not math.isfinite(K):
        raise InvalidStateError(f"K is not finite: {K!r}")
    q = 1.0 + float(K) * float(K)  # a float, as Params stores its constants
    C, D, E, F = p.C, p.D, p.E, p.F
    return _kernel_system((_reduced_rhs, (q, C, D, E, F)), (_reduced_jac, (q, C, D, E)), 3)

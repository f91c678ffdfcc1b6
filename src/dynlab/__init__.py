"""Toolkit for the averaged spherical-pendulum / limited-power-motor system.

Submodules: model (vector fields, Jacobians, equilibrium, K-plane lift and
project), integrator (adaptive DP54 and fixed RK4, tangent propagation),
invariants (bilinear law, proportionality, norm-derivative forms), reduction
(K extraction, 5-D vs 3-D comparison), analysis (Lyapunov spectra,
classification, scans, Poincare sections), cli (the dynlab command).
"""

from .model import (
    DynamicalSystem,
    KRatio,
    Params,
    equilibrium,
    full_jacobian,
    full_system,
    full_vector_field,
    lift,
    project,
    reduced_jacobian,
    reduced_system,
    reduced_vector_field,
)
from .integrator import (
    IntegratorConfig,
    TangentBundle,
    Trajectory,
    integrate,
    integrate_with_tangents,
)
from .invariants import (
    InvariantReport,
    bilinear,
    check_trajectory,
    derivative_identity_residual,
    norm_derivative_forms,
    quadratic_norm,
    verification_suite,
)
from .reduction import (
    KDriftSeries,
    ReductionComparison,
    compare_full_vs_reduced,
    extract_k,
    k_drift,
)
from .analysis import (
    LyapunovReport,
    ScanRecord,
    ScanSettings,
    SectionPoints,
    classify,
    equilibrium_stability,
    lyapunov_spectrum,
    parameter_scan,
    poincare_section,
    trace_average,
)

__version__ = "0.1.0"

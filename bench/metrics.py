"""Pure metric derivations shared by the benchmark runner and its tests.

Nothing here times or runs anything: every function takes measured numbers
and returns a derived one, so each rule can be checked on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

# Residuals below float64 round-off read as this many correct digits.
MAX_DIGITS = 16.0


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile that has TAIL_SAMPLES samples beyond it.

    Rank k = ceil(q * n) (1-based); the samples beyond it are the n - k larger
    ones.  Raises ValueError when fewer than TAIL_SAMPLES lie beyond, because
    such a percentile is set by a handful of samples and does not repeat.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    ordered = sorted(values)
    n = len(ordered)
    k = max(1, math.ceil(q * n - 1e-9))  # 0.9 * 100 must not round up to rank 91
    if n - k < TAIL_SAMPLES:
        raise ValueError(
            f"p{100 * q:g} of {n} samples has {n - k} beyond it; need {TAIL_SAMPLES}"
        )
    return float(ordered[k - 1])


def self_time(duration: float, child_durations) -> float:
    """A span's duration minus the time its child spans and counted calls took.

    Children of one span never overlap (the traced code is single-threaded),
    so the covered part of the interval is their sum.
    """
    covered = math.fsum(child_durations)
    if covered > duration * (1.0 + 1e-9):
        raise ValueError(f"children cover {covered} s of a {duration} s span")
    return max(0.0, duration - covered)


def pool_efficiency(serial_point_s, workers: int, pool_wall_s: float) -> float:
    """Serial point time over the wall time the pool had: 1.0 is perfect."""
    if workers < 1 or not pool_wall_s > 0.0:
        raise ValueError("need workers >= 1 and a positive pool wall time")
    return math.fsum(serial_point_s) / (workers * pool_wall_s)


def failed_frac(failed: int, attempted: int) -> float:
    """Operations failed over operations attempted."""
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"need 0 <= failed <= attempted, attempted >= 1; got {failed}/{attempted}")
    return failed / attempted


def worst(residuals) -> float:
    """Largest residual; NaN (a run that produced none) if any is NaN."""
    residuals = list(residuals)
    if any(math.isnan(r) for r in residuals):
        return math.nan
    return max(residuals)


def digits(residual: float) -> float:
    """Correct decimal digits against an exact oracle: -log10(residual).

    A residual that is not finite (a failed run) reads as 0 digits.
    """
    if not math.isfinite(residual):
        return 0.0
    if residual <= 10.0**-MAX_DIGITS:
        return MAX_DIGITS
    return max(0.0, -math.log10(residual))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4) gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2

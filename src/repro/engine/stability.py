"""Burn-in heuristics and stationarity diagnostics.

The paper measures a "stabilized system after a burn-in phase of suitable
length". Two questions must be answered in a reproduction: *how long* to
burn in, and *how to verify* the burned-in system is actually stationary.

* :func:`default_burn_in` derives a burn-in length from the theory: the
  system approaches its stationary pool size within a small multiple of the
  waiting-time bound, so we use a comfortable multiple of the Theorem 2
  waiting-time bound (and never less than a floor).
* :func:`is_stationary` is a simple drift test over a recorded series —
  compare the means of the first and second half of the tail window against
  the pooled standard deviation (a Geweke-style diagnostic without the
  spectral machinery, adequate for these short-memory processes).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["default_burn_in", "is_stationary", "split_drift"]


def default_burn_in(
    n: int,
    c: int,
    lam: float,
    multiplier: float = 10.0,
    floor: int = 100,
    warm_start: bool = False,
) -> int:
    """Heuristic burn-in length for CAPPED(c, λ)-like processes.

    Two time scales matter:

    * the waiting-time scale of Theorem 2,
      ``4·ln(1/(1−λ))/(c·(1−1/e)) + log2 log2 n + c`` — how long individual
      balls persist — multiplied by a safety factor; and
    * the *relaxation* scale ``Θ(1/(1−λ))``: near equilibrium, the pool
      drains its excess at rate ``≈ (1−λ)`` per round (the mean-field
      linearisation), so a cold start needs several multiples of
      ``1/(1−λ)`` rounds to fill up.

    With ``warm_start=True`` — the simulation begins at the mean-field
    equilibrium pool (see :mod:`repro.core.meanfield`) — the relaxation
    term is dropped and only a short settling window is kept.
    """
    if not 0.0 <= lam < 1.0:
        raise ConfigurationError(f"lambda must lie in [0, 1), got {lam}")
    if n < 2:
        raise ConfigurationError(f"need n >= 2, got {n}")
    if c < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {c}")
    wait_scale = (
        4.0 * math.log(1.0 / (1.0 - lam)) / (c * (1.0 - 1.0 / math.e))
        + math.log2(max(2.0, math.log2(n)))
        + c
    )
    burn = multiplier * wait_scale
    if not warm_start:
        burn = max(burn, 5.0 / (1.0 - lam))
    return max(floor, int(math.ceil(burn)))


def split_drift(series: np.ndarray | list[float]) -> float:
    """Normalised drift between the two halves of ``series``.

    Returns ``|mean(first half) − mean(second half)| / pooled std``; values
    near 0 indicate no drift. Returns 0.0 for constant series.
    """
    data = np.asarray(series, dtype=float)
    if data.size < 4:
        raise ValueError(f"need at least 4 observations, got {data.size}")
    half = data.size // 2
    first, second = data[:half], data[half:]
    pooled_std = float(np.std(data, ddof=1))
    if pooled_std == 0.0:
        return 0.0
    return abs(float(first.mean()) - float(second.mean())) / pooled_std


def is_stationary(series: np.ndarray | list[float], threshold: float = 0.5) -> bool:
    """Whether ``series`` shows no material drift between its halves.

    The threshold is in units of the series' own standard deviation; 0.5
    flags a drift of half a standard deviation, which comfortably catches a
    still-filling pool while tolerating stationary fluctuation.
    """
    return split_drift(series) <= threshold

"""Mean-field (fluid-limit) analysis of CAPPED(c, λ).

The related work the paper builds on analyses similar infinite processes
with differential-equation / mean-field methods (Berenbrink et al.,
SPAA'00; Mitzenmacher, TPDS'01). This module applies the same technique to
CAPPED(c, λ): as n → ∞, the number of balls a single bin receives in a
round where ``ν`` balls are thrown is Poisson(ν/n), bins decouple, and a
single bin follows a (c+1)-state Markov chain over its start-of-round load:

    L' = max(0, min(c, L + A) − 1),     A ~ Poisson(ν/n).

In equilibrium the per-bin accept rate must equal the injection rate λ
(every generated ball is eventually served), which pins down the
equilibrium throw intensity ``ν*/n`` and with it

* the equilibrium normalized pool size ``ν*/n − λ`` (Figure 4's y-axis),
* the stationary load distribution, and
* the mean waiting time via Little's law.

These closed-loop predictions serve three purposes: an independent check
of the simulator (they agree to within Monte-Carlo noise), instant
warm-starts that skip the ``Θ(1/(1−λ))``-round relaxation of a cold start,
and smooth reference curves for the experiment plots.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.stats.markov import stationary_distribution

__all__ = [
    "poisson_pmf",
    "bin_transition_matrix",
    "stationary_loads",
    "accept_rate",
    "equilibrium_throw_intensity",
    "MeanFieldEquilibrium",
    "equilibrium",
    "mixture_equilibrium_pool",
]


def poisson_pmf(rate: float, kmax: int) -> np.ndarray:
    """Poisson(rate) pmf on 0..kmax with the tail mass folded into kmax.

    Folding the tail keeps the distribution normalised, which the chain
    iteration below relies on; ``kmax`` is always chosen large enough that
    the folded mass is negligible for the loads (everything ≥ c behaves
    identically anyway, as ``min(c, L + A)`` saturates).
    """
    if rate < 0:
        raise ConfigurationError(f"rate must be non-negative, got {rate}")
    if kmax < 0:
        raise ConfigurationError(f"kmax must be non-negative, got {kmax}")
    log_rate = math.log(rate) if rate > 0 else -math.inf
    # log Pr[A = k] = −rate + Σ_{j=1..k} (log rate − log j): one cumulative sum.
    log_terms = np.empty(kmax + 1)
    log_terms[0] = -rate
    log_terms[1:] = log_rate - np.log(np.arange(1, kmax + 1))
    pmf = np.exp(np.cumsum(log_terms))
    pmf[kmax] += max(0.0, 1.0 - pmf.sum())
    return pmf


def _arrival_pmf(intensity: float, c: int) -> np.ndarray:
    # Arrivals beyond c + load always saturate the bin, so a modest cushion
    # past both c and the bulk of the Poisson suffices.
    kmax = int(max(c + 30, intensity + 10.0 * math.sqrt(max(intensity, 1.0)) + 20))
    return poisson_pmf(intensity, kmax)


def bin_transition_matrix(intensity: float, c: int) -> np.ndarray:
    """One-round transition matrix of the single-bin load chain.

    State = start-of-round load 0..c; a round applies
    ``L' = max(0, min(c, L + A) − 1)`` with ``A ~ Poisson(intensity)``.
    """
    return _chain(intensity, c)[1]


def _chain(intensity: float, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrival pmf and one-round transition matrix of the single-bin chain."""
    if c < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {c}")
    pmf = _arrival_pmf(intensity, c)
    tail = np.cumsum(pmf[::-1])[::-1]  # tail[a] = Pr[A >= a]
    transition = np.zeros((c + 1, c + 1))
    # An empty bin moves to max(0, a − 1): arrivals 0 and 1 both leave it empty.
    transition[0, 0] = pmf[0]
    transition[0, : c - 1] += pmf[1:c]
    transition[0, c - 1] += tail[c]
    # A loaded bin moves to load + a − 1 while a < c − load, else to c − 1.
    for load in range(1, c + 1):
        transition[load, load - 1 : c - 1] = pmf[: c - load]
        transition[load, c - 1] += tail[c - load]
    return pmf, transition


def _accepted_per_load(pmf: np.ndarray, c: int) -> np.ndarray:
    """``E[min(A, c − load)]`` for every start-of-round load 0..c."""
    room = c - np.arange(c + 1)[:, None]
    return (np.minimum(np.arange(len(pmf)), room) * pmf).sum(axis=1)


def stationary_loads(intensity: float, c: int) -> np.ndarray:
    """Stationary start-of-round load distribution of the single-bin chain.

    Parameters
    ----------
    intensity:
        Normalised throw intensity ``ν/n`` (expected arrivals per bin).
    c:
        Bin capacity.

    Returns
    -------
    numpy.ndarray
        Probability vector over loads 0..c (exact linear solve via
        :func:`repro.stats.markov.stationary_distribution`).
    """
    return stationary_distribution(bin_transition_matrix(intensity, c))


def accept_rate(intensity: float, c: int) -> float:
    """Expected balls accepted per bin per round in the stationary chain.

    Equals ``E[min(A, c − L)]`` under the stationary load distribution;
    the equilibrium condition is ``accept_rate(ν*/n, c) = λ``.
    """
    pmf, transition = _chain(intensity, c)
    return float(stationary_distribution(transition) @ _accepted_per_load(pmf, c))


def equilibrium_throw_intensity(c: int, lam: float, tol: float = 1e-10) -> float:
    """Solve ``accept_rate(ν/n, c) = λ`` for the throw intensity ``ν/n``.

    The accept rate is strictly increasing in the intensity (more arrivals
    can only increase ``min(A, c − L)`` in distribution), so bisection is
    exact. The bracket upper end ``ln(1/(1−λ)) + c + 2`` always suffices:
    already for c = 1 the solution is exactly ``ln(1/(1−λ))``.
    """
    if not 0.0 <= lam < 1.0:
        raise ConfigurationError(f"lambda must lie in [0, 1), got {lam}")
    if c < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {c}")
    if lam == 0.0:
        return 0.0
    return _bisect_intensity(lambda intensity: accept_rate(intensity, c), lam, c, tol)


def _bisect_intensity(rate: Callable[[float], float], lam: float, c_max: int, tol: float) -> float:
    """Bisect ``rate(ν/n) = λ`` for an increasing ``rate`` on [λ, ln(1/(1−λ)) + c_max + 2]."""
    low = lam
    high = math.log(1.0 / (1.0 - lam)) + c_max + 2.0
    for _ in range(200):
        mid = (low + high) / 2
        if rate(mid) > lam:
            high = mid
        else:
            low = mid
        if high - low < tol:
            break
    return (low + high) / 2


@dataclass(frozen=True, slots=True)
class MeanFieldEquilibrium:
    """Mean-field equilibrium of CAPPED(c, λ).

    Attributes
    ----------
    c, lam:
        Parameters of the process.
    throw_intensity:
        Equilibrium ``ν*/n`` — expected thrown balls per bin per round.
    normalized_pool:
        Equilibrium pool size divided by n: ``ν*/n − λ``.
    load_distribution:
        Stationary start-of-round load distribution over 0..c.
    mean_load:
        Expected start-of-round bin load.
    mean_wait:
        Mean waiting time (age at deletion) predicted via Little's law:
        ``(pool + mean_load·n)/(λn)``. A ball with waiting time ``w``
        appears in exactly ``w`` end-of-round system snapshots (a ball
        served in its arrival round appears in none), so the time-average
        system size equals ``λn·E[wait]`` with no off-by-one.
    """

    c: int
    lam: float
    throw_intensity: float
    normalized_pool: float
    load_distribution: np.ndarray
    mean_load: float
    mean_wait: float

    def pool_size(self, n: int) -> int:
        """Equilibrium pool size for a concrete n (for warm starts)."""
        return max(0, int(round(self.normalized_pool * n)))


def mixture_equilibrium_pool(
    capacity_shares: dict[int, float],
    lam: float,
    tol: float = 1e-10,
) -> float:
    """Equilibrium normalized pool for *heterogeneous* bin capacities.

    Bins decouple in the fluid limit even when their capacities differ: a
    fraction ``share_k`` of bins with capacity ``c_k`` contributes
    ``share_k · accept_rate(ν/n, c_k)`` to the per-bin accept rate, and
    equilibrium requires the mixture rate to equal λ. Used by the
    ``heterogeneous_capacity`` experiment to predict which capacity
    layout of a fixed total budget minimises the pool.

    Parameters
    ----------
    capacity_shares:
        Mapping ``{capacity: fraction of bins}``; fractions must sum to 1.
    lam:
        Injection rate.

    Returns
    -------
    float
        Equilibrium pool size divided by n (``ν*/n − λ``).
    """
    if not capacity_shares:
        raise ConfigurationError("need at least one capacity class")
    total_share = sum(capacity_shares.values())
    if abs(total_share - 1.0) > 1e-9:
        raise ConfigurationError(f"shares must sum to 1, got {total_share}")
    if any(c < 1 for c in capacity_shares):
        raise ConfigurationError("capacities must be at least 1")
    if any(share < 0 for share in capacity_shares.values()):
        raise ConfigurationError("shares must be non-negative")
    if not 0.0 <= lam < 1.0:
        raise ConfigurationError(f"lambda must lie in [0, 1), got {lam}")
    if lam == 0.0:
        return 0.0

    def mixture_rate(intensity: float) -> float:
        return sum(
            share * accept_rate(intensity, c) for c, share in capacity_shares.items() if share > 0
        )

    return max(0.0, _bisect_intensity(mixture_rate, lam, max(capacity_shares), tol) - lam)


@functools.lru_cache(maxsize=None)
def equilibrium(c: int, lam: float) -> MeanFieldEquilibrium:
    """Compute the full mean-field equilibrium for CAPPED(c, λ).

    Memoised per process: each ``(c, lam)`` is solved once, and the shared
    result's ``load_distribution`` is read-only.
    """
    intensity = equilibrium_throw_intensity(c, lam)
    dist = stationary_loads(intensity, c)
    dist.flags.writeable = False
    mean_load = float(np.arange(c + 1) @ dist)
    normalized_pool = max(0.0, intensity - lam)
    # Little's law: time-average balls in system / throughput. A ball of
    # waiting time w is present in exactly w end-of-round snapshots, so
    # E[system]/λ gives the mean waiting time directly.
    mean_wait = (normalized_pool + mean_load) / lam if lam > 0 else 0.0
    return MeanFieldEquilibrium(
        c=c,
        lam=lam,
        throw_intensity=intensity,
        normalized_pool=normalized_pool,
        load_distribution=dist,
        mean_load=mean_load,
        mean_wait=mean_wait,
    )

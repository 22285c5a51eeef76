"""Closed-form succession rules: posterior means after an observation.

Each rule computes the mean of an inverted channel in closed form:

* Beta prior with a binomial channel (counts of heads),
* Dirichlet prior with a multinomial channel (multiset draws),
* Poisson prior on the toss count with a binomial or bivariate binomial
  channel (imperfect detection of emitted particles).

Every heads-pair rule is a weighted mean over the fiber of the observed
heads, :func:`~bitoss.binomials.fiber_mean`.  For the Dirichlet prior with
the bivariate binomial channel, equal weights give the paper's closed-form
formula, :func:`bivbin_dirichlet_mean`, which is not the posterior mean in
general; Dirichlet-multinomial weights give the exact posterior mean,
:func:`bivbin_dirichlet_mean_oracle`.  The tests check both against an
independent reference that enumerates the fiber's multisets.

Beta and Dirichlet parameters are restricted to positive integers, which
keeps every result an exact rational.  The Poisson rules are float valued;
the tests check each against an independent brute-force inversion of its
channel over a truncated toss range (``tests/conftest.py``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .binomials import Coin, count_terms, face_weights, fiber_counts, fiber_mean
from .kernel import (
    DegenerateObservation,
    Dist,
    Frozen,
    Multiset,
    OutOfRange,
    TWO_BY_TWO,
    WrongSpace,
    check_count,
    check_probability,
    flrn,
)

# ---------------------------------------------------------------------------
# Beta / binomial
# ---------------------------------------------------------------------------


class BetaParams(Frozen):
    """Positive-integer Beta parameters (successes + 1, failures + 1)."""

    alpha: int
    beta: int

    def __post_init__(self):
        check_count(self.alpha, "alpha", 1)
        check_count(self.beta, "beta", 1)

    def mean(self) -> Fraction:
        return Fraction(self.alpha, self.alpha + self.beta)


def beta_update(params: BetaParams, tosses: int, heads_seen: int) -> BetaParams:
    """Conjugate update after seeing ``heads_seen`` heads in ``tosses``."""
    if check_count(heads_seen, "heads count") > check_count(tosses, "toss count"):
        raise OutOfRange(f"need 0 <= heads <= tosses, got {heads_seen}/{tosses}")
    return BetaParams(params.alpha + heads_seen, params.beta + tosses - heads_seen)


def beta_succession_mean(params: BetaParams, tosses: int, heads_seen: int) -> Fraction:
    """Posterior mean bias: ``(alpha + n) / (alpha + beta + K)``."""
    return beta_update(params, tosses, heads_seen).mean()


# ---------------------------------------------------------------------------
# Dirichlet / multinomial
# ---------------------------------------------------------------------------


class DirichletParams(Frozen):
    """A full-support multiset of pseudo-counts over its base set."""

    psi: Multiset

    def __post_init__(self):
        if not self.psi:
            raise OutOfRange("Dirichlet parameter multiset must be non-empty")

    def base(self) -> tuple:
        return self.psi.support()

    def mean(self) -> Dist:
        return flrn(self.psi)


def dirichlet_update(params: DirichletParams, draw: Multiset) -> DirichletParams:
    """Conjugate update: add the observed draw to the pseudo-counts."""
    base = set(params.base())
    outside = [p for p in draw.support() if p not in base]
    if outside:
        raise WrongSpace(f"draw points {outside!r} are outside the parameter base")
    return DirichletParams(params.psi + draw)


def dirichlet_succession_mean(params: DirichletParams, draw: Multiset) -> Dist:
    """Posterior mean urn after a multiset draw: ``Flrn(psi + draw)``."""
    return dirichlet_update(params, draw).mean()


def _fiber_update(params: DirichletParams, tosses: int, n1: int, n2: int, weight) -> Dist:
    """``Flrn(psi + E[phi])``, with ``E`` weighting each draw ``phi`` in the
    fiber of ``(n1, n2)`` by ``weight`` of its face counts."""
    if params.base() != TWO_BY_TWO:  # a multiset's base holds its points of count >= 1
        raise WrongSpace("parameters must have full support on {0,1} x {0,1}")
    draws = fiber_counts(tosses, n1, n2)
    counts = fiber_mean(draws, [weight(c) for c in draws])
    size = params.psi.size + tosses
    return Dist({p: (params.psi(p) + c) / size for p, c in zip(TWO_BY_TWO, counts)})


def bivbin_dirichlet_mean(
    params: DirichletParams, tosses: int, n1: int, n2: int
) -> Dist:
    """The paper's closed-form formula for the two-coin after observing heads
    ``(n1, n2)``: ``Flrn`` of the sum of ``psi + phi`` over the fiber of
    ``(n1, n2)``, i.e. ``Flrn(psi + E[phi])`` with equal weights.

    This is not the posterior mean in general: the posterior weights the
    fiber draws by their Dirichlet-multinomial probabilities.
    :func:`bivbin_dirichlet_mean_oracle` is the exact posterior mean; the
    two agree when those probabilities are equal, e.g. for a singleton
    fiber.
    """
    return _fiber_update(params, tosses, n1, n2, lambda counts: 1)


def bivbin_dirichlet_mean_oracle(
    params: DirichletParams, tosses: int, n1: int, n2: int
) -> Dist:
    """Exact posterior mean two-coin after observing heads ``(n1, n2)``:
    ``Flrn(psi + E[phi])`` with each fiber draw weighted by its
    Dirichlet-multinomial probability.

    With integer pseudo-counts that probability is the multinomial term
    over rising-factorial tables, ``K!/prod(m!) * prod(psi(x)^(m))``, up to
    the common ``|psi|^(K)``; a query costs O(K) exact integer terms.
    """
    check_count(tosses, "toss count")
    rising = [
        list(accumulate(range(params.psi(p), params.psi(p) + tosses), mul, initial=1))
        for p in TWO_BY_TWO
    ]
    return _fiber_update(params, tosses, n1, n2, count_terms(rising, tosses))


# ---------------------------------------------------------------------------
# Poisson priors
# ---------------------------------------------------------------------------


def _poisson_log_pmf(rate: float, k: int) -> float:
    """``log(e^(-rate) * rate^k / k!)``, ``-inf`` where the pmf is zero."""
    if rate == 0.0:
        return 0.0 if k == 0 else -math.inf
    return k * math.log(rate) - rate - math.lgamma(k + 1)


def _check_rate(rate):
    """``rate`` if it is a finite number ``>= 0``, not a ``bool``; :class:`OutOfRange` otherwise."""
    if not isinstance(rate, bool) and isinstance(rate, (int, float, Fraction)) and 0 <= rate < math.inf:
        return rate
    raise OutOfRange(f"rate must be finite and >= 0, got {rate!r}")


def poisson_pmf(rate: float, k: int) -> float:
    """``e^(-rate) * rate^k / k!`` for a count ``k``, computed in log space."""
    return math.exp(_poisson_log_pmf(_check_rate(rate), check_count(k, "count")))


def binomial_poisson_mean(detect_prob: float, rate: float, detected: int) -> float:
    """Expected emitted count after detecting ``detected`` particles through
    a detector of efficiency ``detect_prob``: ``n + (1 - r) * rate``."""
    r = check_probability(detect_prob, "detection probability")
    _check_rate(rate)
    return check_count(detected, "detected count") + (1.0 - r) * rate


def bivbin_poisson_mean(coin: Coin, rate: float, n1: int, n2: int) -> float:
    """Expected toss count given per-coordinate heads ``(n1, n2)`` of a
    two-coin, with a Poisson prior on the toss count:

        g(0,0)*rate + n1 + n2 - E[#11],

    where ``E`` weights the fiber draws of ``n1 + n2`` tosses, whose faces
    01, 10, 11 count ``(n2-j, n1-j, j)``, by the product of those faces'
    Poisson pmfs at rates ``g(f)*rate``, normalised in log space.
    """
    weights = face_weights(coin)
    _check_rate(rate)
    rate00, *rates = (float(w) * rate for w in weights)
    draws = fiber_counts(check_count(n1, "n1") + check_count(n2, "n2"), n1, n2)
    logs = [
        sum(_poisson_log_pmf(r, m) for r, m in zip(rates, counts[1:]))
        for counts in draws
    ]
    top = max(logs)
    if top == -math.inf:
        raise DegenerateObservation(
            f"observation ({n1}, {n2}) is impossible under this coin and rate"
        )
    weights = [math.exp(v - top) for v in logs]
    return rate00 + n1 + n2 - fiber_mean(draws, weights)[3]

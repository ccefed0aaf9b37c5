"""Exceptional cycles and the twist-selection plan.

All cycle arithmetic is exact (Python ints).  A *cycle* is a tuple of
coefficients indexed like ``graph.ids``.  A cycle ``z`` is *anti-ample*
when every coefficient is positive and ``(M z)_i < 0`` for every vertex,
``M`` the intersection matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import (DualGraph, intersection_matrix, is_connected,
                    is_negative_definite)
from .linalg import is_int, is_valid_modulus, next_prime

# bound on the steps of Laufer's iteration (one bump each); it terminates
# on every negative-definite graph, but A240 and D_N from D145 on need more
# steps than this
_MAX_STEPS = 1_000_000


class CyclesError(ValueError):
    """Raised for invalid cycle arguments."""


def _pairing(m: list[list[int]], z: list[int] | tuple[int, ...]) -> list[int]:
    """The vector of intersection numbers (M z)_i."""
    return [sum(mi[j] * z[j] for j in range(len(z))) for mi in m]


def is_anti_ample(g: DualGraph, z: tuple[int, ...]) -> bool:
    if len(z) != g.n or any(c < 1 for c in z):
        return False
    return all(v < 0 for v in _pairing(intersection_matrix(g), z))


def _check_cycle_arg(g: DualGraph, z: tuple[int, ...]):
    if len(z) != g.n:
        raise CyclesError(f"cycle has length {len(z)}, graph has {g.n} vertices")
    if not all(map(is_int, z)):
        raise CyclesError("cycle must have integer coefficients")


# ---------------------------------------------------------------------------
# fundamental / anti-ample cycles


def _least_cycle(g: DualGraph, limit: int, what: str) -> tuple[int, ...]:
    """The least cycle >= 1 pairing <= `limit` with every vertex, by
    Laufer's iteration: start from all-ones; while some vertex pairs with
    the cycle above `limit`, bump the lowest-index such vertex.  The
    cycles with these bounds are closed under coefficientwise minimum,
    and no bump passes their minimum, so the iteration ends on it;
    negative definiteness makes the set non-empty."""
    if not is_connected(g):
        raise CyclesError(f"{what} needs a connected graph")
    if not is_negative_definite(g):
        raise CyclesError(f"{what} needs a negative-definite graph")
    m = intersection_matrix(g)
    z = [1] * g.n
    pair = _pairing(m, z)
    for _ in range(_MAX_STEPS):
        for i, v in enumerate(pair):
            if v > limit:
                z[i] += 1           # (M z) gains column i of M
                pair = [x + mk[i] for x, mk in zip(pair, m)]
                break
        else:
            return tuple(z)
    raise CyclesError(f"{what} iteration reached its bound of "
                      f"{_MAX_STEPS} steps")


def fundamental_cycle(g: DualGraph) -> tuple[int, ...]:
    """Smallest positive cycle with all intersection numbers <= 0
    (Laufer's iteration with limit 0).  The graph must be connected and
    negative definite."""
    return _least_cycle(g, 0, "fundamental cycle")


def anti_ample_cycle(g: DualGraph) -> tuple[int, ...]:
    """Smallest positive cycle pairing strictly negatively with every
    vertex (Laufer's iteration with limit -1).  It lies above the
    fundamental cycle.  The graph must be connected and negative
    definite."""
    return _least_cycle(g, -1, "anti-ample cycle")


# ---------------------------------------------------------------------------
# coprimality adjustment


def _next_coprime(x: int, q: int) -> int:
    """Smallest integer >= x coprime to q."""
    while math.gcd(x, q) != 1:
        x += 1
    return x


def _check_primes(primes: list[int]) -> None:
    """Refuse a candidate that is not a prime below 2^31."""
    if not all(map(is_valid_modulus, primes)):
        raise CyclesError(f"candidates must be primes below 2^31, got "
                          f"{list(primes)}")


def _coupling_bound(m: list[list[int]]) -> int:
    """t = max_i of E_i . (sum of all other vertices) — the largest
    off-diagonal row sum of the intersection matrix."""
    n = len(m)
    if n == 1:
        return 0
    return max(sum(m[i][j] for j in range(n) if j != i) for i in range(n))


def make_coprime_to_all(g: DualGraph, z: tuple[int, ...],
                        primes: list[int]) -> tuple[int, ...]:
    """Adjust an anti-ample cycle to be coprime to every prime in `primes`.

    One generalized scale-and-bump pass: scale by (m*t + 1), t the
    largest off-diagonal row sum of the intersection matrix, and bump each
    coefficient up to the next integer coprime to all the primes, where m
    is the largest bump used; the scale is grown until it dominates m*t,
    so the scale margin absorbs the bumps and the result stays anti-ample.
    For one prime this is the classical recipe, scale by t + 1 and bump
    every multiple of p by one.  (Applying the one-prime recipe
    per prime in sequence does not converge: each pass can destroy the
    previous one.)  An input already coprime to every prime passes
    through, since the analysis pipeline prefers the smallest usable
    cycle; with no primes, every input does.  Every entry of `primes`
    must be a prime below 2^31.
    """
    _check_cycle_arg(g, z)
    if not is_anti_ample(g, z):
        raise CyclesError("make_coprime_to_all requires an anti-ample cycle")
    _check_primes(primes)
    q = math.prod(set(primes))
    if all(math.gcd(c, q) == 1 for c in z):
        return tuple(z)

    t = _coupling_bound(intersection_matrix(g))
    m = 1
    while True:
        s = m * t + 1
        result = tuple(_next_coprime(s * c, q) for c in z)
        m_used = max(r - s * c for r, c in zip(result, z))
        if s >= m_used * t + 1:
            if not is_anti_ample(g, result) or \
                    any(math.gcd(c, q) != 1 for c in result):
                raise CyclesError(f"internal check failed: {result} is not "
                                  f"an anti-ample cycle prime to {q}")
            return result
        m = m_used


# ---------------------------------------------------------------------------
# twist-selection plan


def vanishing_floor(g: DualGraph) -> int:
    """Smallest twist bound from the per-vertex vanishing conditions:
    max over vertices of {0, 2(2g-2), 2g-2-E^2}."""
    return max([0] + [t for genus, e2 in zip(g.genus, g.selfint)
                      for t in (2 * (2 * genus - 2), 2 * genus - 2 - e2)])


def greedy_tau(g: DualGraph, zbar: tuple[int, ...]) -> tuple[int, list[int]]:
    """Greedy build sequence for `zbar` and its peak intersection number.

    Starts at vertex 0 and repeatedly adds the vertex (below its target
    coefficient) maximizing E_v . (Z + E_v), lowest index on ties.  Each
    step records E_v . Z against the cycle built *before* the step; tau is
    the maximum recorded value (0 when no step was recorded).

    Returns
    -------
    (tau, beta) : (int, list of int)
        The peak and the full vertex sequence, beta[0] = 0.
    """
    _check_cycle_arg(g, zbar)
    if any(c < 1 for c in zbar):
        raise CyclesError("greedy_tau needs a cycle with full support")
    m = intersection_matrix(g)
    n = g.n
    z = [0] * n
    z[0] = 1
    beta = [0]
    recorded: list[int] = []
    pair = _pairing(m, z)
    while True:
        best = -1
        best_score = None
        for v in range(n):
            if z[v] >= zbar[v]:
                continue
            score = pair[v] + m[v][v]
            if best_score is None or score > best_score:
                best, best_score = v, score
        if best < 0:
            break
        recorded.append(pair[best])
        z[best] += 1
        pair = [x + mk[best] for x, mk in zip(pair, m)]
        beta.append(best)
    return (max(recorded) if recorded else 0), beta


@dataclass
class MultiplicityPlan:
    """The twist plan: bounds, build sequence and chosen multiplicity."""

    lambda_bound: int
    tau: int
    beta_sequence: list[int] = field(repr=False)
    nu: int = 0


def significant_multiplicity_to_all(g: DualGraph, zbar: tuple[int, ...],
                                    primes: list[int],
                                    mode: str = "paper") -> MultiplicityPlan:
    """Choose the uniform multiplicity nu for the anti-ample cycle `zbar`:
    nu = max(lambda + tau + 1, 2), with no coprimality condition.

    `mode` must be ``"paper"``, the one rule; every entry of `primes` must
    be a prime below 2^31.  Neither changes nu.
    """
    if mode != "paper":
        raise CyclesError(f"unknown mode {mode!r}")
    _check_primes(primes)
    lam = vanishing_floor(g)
    tau, beta = greedy_tau(g, zbar)
    return MultiplicityPlan(lambda_bound=lam, tau=tau, beta_sequence=beta,
                            nu=max(lam + tau + 1, 2))


def choose_j(nu: int, n_max: int, primes: list[int]) -> int:
    """Smallest prime strictly greater than both nu * n_max and every
    candidate prime."""
    floor = max(nu * n_max, max(primes, default=1))
    return next_prime(floor)

"""Exceptional cycles and the twist-selection plan.

All cycle arithmetic is exact (Python ints).  A *cycle* is a tuple of
coefficients indexed like ``graph.ids``.  A cycle ``z`` is *anti-ample*
when every coefficient is positive and ``(M z)_i < 0`` for every vertex,
``M`` the intersection matrix.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .graph import (DualGraph, GraphError, VertexData, intersection_matrix,
                    is_connected, is_negative_definite)
from .linalg import next_prime

# safety bound on the Laufer iterations; they terminate on negative-definite
# graphs long before it
_MAX_STEPS = 1_000_000

# largest number of sub-cycles `exhaustive_tau_min` will search
_STATE_BUDGET = 2_000_000


class CyclesError(ValueError):
    """Raised for invalid cycle arguments or exhausted search budgets."""


def _pairing(m: list[list[int]], z: list[int] | tuple[int, ...]) -> list[int]:
    """The vector of intersection numbers (M z)_i."""
    return [sum(mi[j] * z[j] for j in range(len(z))) for mi in m]


def is_anti_ample(g: DualGraph, z: tuple[int, ...]) -> bool:
    if len(z) != g.n or any(c < 1 for c in z):
        return False
    return all(v < 0 for v in _pairing(intersection_matrix(g), z))


def _check_cycle_arg(g: DualGraph, z: tuple[int, ...], name: str = "cycle"):
    if len(z) != g.n:
        raise CyclesError(f"{name} has length {len(z)}, graph has {g.n} vertices")
    if any(not isinstance(c, int) for c in z):
        raise CyclesError(f"{name} must have integer coefficients")


# ---------------------------------------------------------------------------
# fundamental / anti-ample cycles


def _laufer(m: list[list[int]], z: list[int], limit: int,
            what: str) -> tuple[int, ...]:
    """Laufer's iteration from `z`: while some vertex pairs with the
    cycle above `limit`, bump the lowest-index such vertex."""
    for _ in range(_MAX_STEPS):
        for i, v in enumerate(_pairing(m, z)):
            if v > limit:
                z[i] += 1
                break
        else:
            return tuple(z)
    raise CyclesError(f"{what} iteration did not terminate "
                      "(is the graph negative definite?)")


def fundamental_cycle(g: DualGraph) -> tuple[int, ...]:
    """Smallest positive cycle with all intersection numbers <= 0.

    Computed by the standard Laufer iteration: start from all-ones; while
    some vertex pairs positively with the cycle, bump the lowest-index such
    vertex.  Terminates for negative-definite graphs.
    """
    if not is_connected(g):
        raise CyclesError("fundamental cycle needs a connected graph")
    if not is_negative_definite(g):
        raise CyclesError("fundamental cycle needs a negative-definite graph")
    return _laufer(intersection_matrix(g), [1] * g.n, 0, "fundamental cycle")


def anti_ample_cycle(g: DualGraph) -> tuple[int, ...]:
    """Smallest cycle above the fundamental cycle pairing strictly
    negatively with every vertex.  Same iteration with a strict target."""
    return _laufer(intersection_matrix(g), list(fundamental_cycle(g)), -1,
                   "anti-ample")


# ---------------------------------------------------------------------------
# coprimality adjustment


def _next_coprime(x: int, q: int) -> int:
    """Smallest integer >= x coprime to q."""
    while math.gcd(x, q) != 1:
        x += 1
    return x


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
    cycle; a prime 1 imposes no condition.
    """
    _check_cycle_arg(g, z)
    if not is_anti_ample(g, z):
        raise CyclesError("make_coprime_to_all requires an anti-ample cycle")
    if any(p < 1 for p in primes):
        raise CyclesError(f"primes must be >= 1, got {list(primes)}")
    ps = sorted({p for p in primes if p != 1})
    if not ps:
        return tuple(z)
    q = math.prod(ps)
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
                                  f"an anti-ample cycle prime to {ps}")
            return result
        m = m_used


# ---------------------------------------------------------------------------
# twist-selection plan


def _vanishing_terms(d: VertexData) -> tuple[int, int]:
    """The vertex terms of the two vanishing conditions: 2(2g-2) and
    2g-2-E^2."""
    return 2 * (2 * d.genus - 2), 2 * d.genus - 2 - d.selfint


def vanishing_floor(g: DualGraph) -> int:
    """Smallest twist bound from the per-vertex vanishing conditions:
    max over vertices of {0, 2(2g-2), 2g-2-E^2}."""
    return max([0] + [t for vid in g.ids
                      for t in _vanishing_terms(g.data[vid])])


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
    while True:
        pair = _pairing(m, z)
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
        beta.append(best)
    return (max(recorded) if recorded else 0), beta


def exhaustive_tau_min(g: DualGraph, zbar: tuple[int, ...]) -> int:
    """Exact minimum over *all* build sequences of the peak recorded value.

    Implemented as a bottleneck shortest path over coefficient vectors
    below `zbar` (cost of a path = max recorded value; start states are the
    single vertices at no cost).  Equivalent to enumerating every addition
    order, but polynomial in the number of sub-cycles.

    Raises
    ------
    CyclesError
        When the number of sub-cycles exceeds `_STATE_BUDGET`.
    """
    _check_cycle_arg(g, zbar)
    if any(c < 1 for c in zbar):
        raise CyclesError("exhaustive_tau_min needs a cycle with full support")
    states = math.prod(c + 1 for c in zbar)
    if states > _STATE_BUDGET:
        raise CyclesError(f"search space has {states} sub-cycles "
                          f"(budget {_STATE_BUDGET})")
    m = intersection_matrix(g)
    n = g.n
    target = tuple(zbar)
    ninf = float("-inf")
    best: dict[tuple[int, ...], float] = {}
    heap: list[tuple[float, int, tuple[int, ...]]] = []
    tick = 0
    for v in range(n):
        start = tuple(1 if i == v else 0 for i in range(n))
        best[start] = ninf
        heapq.heappush(heap, (ninf, tick, start))
        tick += 1
    while heap:
        cost, _, z = heapq.heappop(heap)
        if cost > best.get(z, ninf):
            continue
        if z == target:
            return 0 if cost == ninf else int(cost)
        pair = _pairing(m, z)
        for v in range(n):
            if z[v] >= target[v]:
                continue
            nz = z[:v] + (z[v] + 1,) + z[v + 1:]
            ncost = max(cost, pair[v])
            if ncost < best.get(nz, math.inf):
                best[nz] = ncost
                heapq.heappush(heap, (ncost, tick, nz))
                tick += 1
    raise CyclesError("no build sequence reaches the target cycle")


@dataclass
class MultiplicityPlan:
    """The twist plan: bounds, build sequence and chosen multiplicity."""

    lambda_bound: int
    tau: int
    beta_sequence: list[int] = field(repr=False)
    nu: int = 0
    mode: str = "paper"


def significant_multiplicity_to_all(g: DualGraph, zbar: tuple[int, ...],
                                    primes: list[int],
                                    mode: str = "paper") -> MultiplicityPlan:
    """Choose the uniform multiplicity nu for the anti-ample cycle `zbar`.

    In ``paper`` mode nu = max(lambda + tau + 1, 2) with no coprimality
    condition.  In ``strict`` mode nu is the smallest value >= lambda +
    tau + 1 coprime to every prime in `primes` at once (taking the max of
    per-prime answers would be wrong), additionally >= 2 when some
    coefficient of `zbar` is 1.  A prime 1 imposes no condition.
    """
    if mode not in ("paper", "strict"):
        raise CyclesError(f"unknown mode {mode!r}")
    if any(p < 1 for p in primes):
        raise CyclesError(f"primes must be >= 1, got {list(primes)}")
    lam = vanishing_floor(g)
    tau, beta = greedy_tau(g, zbar)
    nu = lam + tau + 1
    if mode == "paper":
        nu = max(nu, 2)
    else:
        if any(c == 1 for c in zbar):
            nu = max(nu, 2)
        nu = _next_coprime(nu, math.prod(set(primes)))
    return MultiplicityPlan(lambda_bound=lam, tau=tau, beta_sequence=beta,
                            nu=nu, mode=mode)


def choose_j(nu: int, n_max: int, primes: list[int]) -> int:
    """Smallest prime strictly greater than both nu * n_max and every
    candidate prime."""
    floor = max(nu * n_max, max(primes, default=1))
    return next_prime(floor)


def step_vanishing_check(g: DualGraph, c: tuple[int, ...],
                         l0: int | str) -> tuple[bool, bool]:
    """The two per-step vanishing conditions at vertex `l0` against the
    partial cycle `c`:

    cond1:  2(2g - 2) + E.C < 0
    cond2:  2g - 2 - E^2 + E.C < 0

    `l0` may be a vertex id or an index.
    """
    _check_cycle_arg(g, c, "partial cycle")
    if any(v < 1 for v in c):
        raise CyclesError("step_vanishing_check needs a full-support cycle")
    i = g.index(l0) if isinstance(l0, str) else l0
    if not (0 <= i < g.n):
        raise GraphError(f"vertex index {i} out of range")
    ec = _pairing(intersection_matrix(g), c)[i]
    t1, t2 = _vanishing_terms(g.data[g.ids[i]])
    return t1 + ec < 0, t2 + ec < 0

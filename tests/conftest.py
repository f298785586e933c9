"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from rigclab import (
    CommunityCatalog,
    CommunityGraph,
    Pmf,
    TheoryInputs,
    complete_graph,
    path_graph,
)


def philox(seed: int, replica: int = 0, role: int = 0) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, replica, role)))
    )


def unit_multiplicities(rigc) -> dict[tuple[int, int], int]:
    """Oracle for the projection's distinct pairs: each (u, v) unit counted
    under (min, max) by a ``Counter``, one unit at a time."""
    units = zip(rigc.edge_u.tolist(), rigc.edge_v.tolist())
    return dict(Counter((min(u, v), max(u, v)) for u, v in units))


def bisect_eta(inputs: TheoryInputs, iters: int = 200) -> float:
    """Independent fixed-point oracle: bisection on the residual of
    z - G_qt(G_pt(z)), which is negative below the smallest root and
    positive between it and 1 in the supercritical case."""

    def residual(z: float) -> float:
        return z - inputs.q_tilde.gf_eval(inputs.p_tilde.gf_eval(z))

    lo, hi = 0.0, 1.0 - 1e-9
    if residual(hi) <= 0.0:
        return 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if residual(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_pgf_inverse(weights: dict[int, Fraction], y: Fraction, iters: int = 80) -> Fraction:
    """Independent inverse-PGF oracle: bisection in rational arithmetic for
    the z in [0, 1] with sum_k weights[k] z^k = y.  Every comparison is exact,
    so the root lies within 2^-iters of the result."""
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if sum(w * mid**k for k, w in weights.items()) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def relabel(graph: CommunityGraph, perm) -> CommunityGraph:
    """The graph with vertex ``old`` renamed ``perm[old - 1]``."""
    return CommunityGraph(graph.n, [(perm[u - 1], perm[v - 1]) for u, v in graph.edges])


def gilbert_component_counts(n: int, pi: float) -> list[Fraction]:
    """Exact expected number of components of each size 0..n of the complete
    graph K_n after keeping each edge with probability pi.

    Gilbert's recursion (Ann. Math. Statist. 30, 1959) for the probability
    that K_s stays connected, P_s = 1 - sum_{t<s} C(s-1, t-1) P_t (1-pi)^(t(s-t)),
    in rational arithmetic, so nothing cancels; size-s components then number
    C(n, s) P_s (1-pi)^(s(n-s)) on average.
    """
    drop = 1 - Fraction(pi)
    connected = [Fraction(0), Fraction(1)]
    for s in range(2, n + 1):
        connected.append(
            1 - sum(comb(s - 1, t - 1) * connected[t] * drop ** (t * (s - t)) for t in range(1, s))
        )
    return [Fraction(0)] + [
        comb(n, s) * connected[s] * drop ** (s * (n - s)) for s in range(1, n + 1)
    ]


@pytest.fixture(scope="session")
def k1():
    return CommunityGraph(1, [])


@pytest.fixture(scope="session")
def k2():
    return complete_graph(2)


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def p3():
    return path_graph(3)


@pytest.fixture(scope="session")
def p_estar():
    return Pmf({1: 0.5, 3: 0.5})


@pytest.fixture(scope="session")
def cat_estar(k3):
    return CommunityCatalog([(k3, 1.0)])


@pytest.fixture(scope="session")
def inputs_estar(p_estar, cat_estar):
    return TheoryInputs.from_p_catalog(p_estar, cat_estar)

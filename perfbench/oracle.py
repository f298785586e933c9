"""Expected values for the output checks, computed without rigclab.

Everything here is plain Python on the workloads' input laws: generating
functions written out from the pmfs, bisection for the smallest fixed point,
and exhaustive edge-subset enumeration with a breadth-first search for the
percolation threshold.  The program under test is never imported.
"""
from __future__ import annotations

import math
from collections import deque

BISECT_STEPS = 200


def mean(pmf: dict[int, float]) -> float:
    return sum(k * w for k, w in pmf.items())


def gf(pmf: dict[int, float], z: float) -> float:
    return sum(w * z**k for k, w in pmf.items())


def tilted(pmf: dict[int, float]) -> dict[int, float]:
    """Size-biased law shifted down by one: P(k - 1) = k P(k) / E[K]."""
    m = mean(pmf)
    return {k - 1: k * w / m for k, w in pmf.items() if k >= 1}


def bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] given f(lo) <= 0 < f(hi)."""
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16:
            break
    return 0.5 * (lo + hi)


def smallest_fixed_point(compose) -> float:
    """Smallest root in [0, 1) of z - compose(z) for a supercritical PGF.

    z - compose(z) is concave, nonpositive at 0 and zero at 1, so it is
    nonpositive up to the smallest root and positive between it and 1; the
    first positive grid point brackets that root.
    """
    grid = [i / 1000 for i in range(1000)]
    for a, b in zip(grid, grid[1:]):
        if b - compose(b) > 0.0:
            return bisect(lambda z: z - compose(z), a, b)
    raise ValueError("no positive point below 1: the inputs are not supercritical")


# -- giant-triangles and explore-triangles: p = {1: 1/2, 3: 1/2}, triangles ------------


def triangle_eta_l() -> float:
    """Smallest root of z - G_q~(G_p~(z)) with G_p~(z) = 1/4 + 3/4 z^2, G_q~(y) = y^2."""
    return smallest_fixed_point(lambda z: (0.25 + 0.75 * z * z) ** 2)


def triangle_expectations() -> dict[str, float]:
    eta_l = triangle_eta_l()
    eta_r = 0.25 + 0.75 * eta_l * eta_l
    gamma = 2.0 / 3.0  # E[membership] / E[community size] = 2 / 3
    return {
        "eta_l": eta_l,
        "eta_r": eta_r,
        # 1 - G_p(eta_l), G_p(z) = z / 2 + z^3 / 2
        "xi_l": 1.0 - 0.5 * eta_l - 0.5 * eta_l**3,
        "edges_in_giant_per_N": gamma * 3.0 * (1.0 - eta_r**3),
        # every individual with k memberships has projected degree 2k
        "joint_1_2": 0.5 * (1.0 - eta_r**2),
        "joint_3_6": 0.5 * (1.0 - eta_r**6),
    }


def triangle_living(z):
    """L/N limit at z = e^-t (a float or an array): E[p] z G_q~^{-1}(z) = 2 z^(3/2)."""
    return 2.0 * z**1.5


def triangle_sleeping_hat(z):
    """S_hat/N limit at z = e^-t (a float or an array): E[p] z G_p~(z) = 2 z (1/4 + 3/4 z^2)."""
    return 2.0 * z * (0.25 + 0.75 * z * z)


def triangle_tau(c: float) -> float:
    """Living fraction hits c at -log c + log G_q*^{-1}(c), q* = point mass 3."""
    return -2.0 / 3.0 * math.log(c)


# -- percolation-mixed ------------------------------------------------------------------


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(u, u + 1) for u in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(n - 1, 0)]


EDGES_OF = {"complete": complete_edges, "path": path_edges, "cycle": cycle_edges}


def catalog_graphs(catalog: list[dict]) -> list[tuple[int, list[tuple[int, int]], float]]:
    """(vertex count, edge list, weight) for every catalog entry of the config."""
    out = []
    for item in catalog:
        (kind, n), = item["graph"].items()
        out.append((n, EDGES_OF[kind](n), float(item["weight"])))
    return out


def component_sizes(n: int, edges: list[tuple[int, int]]) -> list[int]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    sizes = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        queue = deque([s])
        size = 0
        while queue:
            x = queue.popleft()
            size += 1
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        sizes.append(size)
    return sizes


def root_component_census(n: int, edges: list[tuple[int, int]]) -> list[float]:
    """Per kept-edge count k: sum over subsets with k edges of sum_v (|C(v)| - 1)."""
    m = len(edges)
    census = [0.0] * (m + 1)
    for mask in range(1 << m):
        kept = [e for i, e in enumerate(edges) if mask >> i & 1]
        census[len(kept)] += sum(s * (s - 1) for s in component_sizes(n, kept))
    return census


def critical_pi(p: dict[int, float], catalog: list[dict]) -> float:
    """Retention at which E[p~] E_role[|C(role)| - 1] crosses one.

    A role is uniform over all community roles, so its community is drawn
    size-biased; |C(role)| is its component after each community edge is kept
    independently with probability pi.
    """
    graphs = [(n, root_component_census(n, edges), w) for n, edges, w in catalog_graphs(catalog)]
    role_mass = sum(w * n for n, _, w in graphs)
    p_tilde_mean = mean(tilted(p))

    def gap(pi: float) -> float:
        acc = 0.0
        for _, census, w in graphs:
            m = len(census) - 1
            acc += w * sum(c * pi**k * (1.0 - pi) ** (m - k) for k, c in enumerate(census))
        return p_tilde_mean * acc / role_mass - 1.0

    return bisect(gap, 0.0, 1.0)


def size_law(catalog: list[dict]) -> dict[int, float]:
    q: dict[int, float] = {}
    for n, _, w in catalog_graphs(catalog):
        q[n] = q.get(n, 0.0) + w
    return q


def xi_l(p: dict[int, float], catalog: list[dict]) -> float:
    """Giant fraction of individuals, 1 - G_p(eta_l), without percolation."""
    p_t, q_t = tilted(p), tilted(size_law(catalog))
    eta_l = smallest_fixed_point(lambda z: gf(q_t, gf(p_t, z)))
    return 1.0 - gf(p, eta_l)

"""Reference implementations the suite checks rigclab against.

These are proof devices of the paper, not its predictions: a branching-process
survival simulation, a brute-force isomorphism key, the exact limiting
percolated catalog, the two routes to
the size-biased percolated community size, the death-process and
size-biased wake couplings of the exploration, the exploration's
direct-clock ring schedule, and the sparse convolution powers that check the
theory's dense ones.  No CLI mode needs them, so they live beside the tests.
None calls the rigclab function that the tests using it check; they read
only the inputs and outputs of that function.  The one exception is on
purpose: ``run_exploration_clocks`` hands its ring schedule to the same
exploration loop that ``run_exploration`` runs, because what its tests check
is the ring schedule, the exponential race against every token's own alarm.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from rigclab import CommunityCatalog, CommunityGraph, Pmf, percolate_enumerate
from rigclab.errors import OutOfDomain
from rigclab.explore import STEP1, STEP2, STEP3, _explore
from rigclab.model import index_dtype


# -- branching-process cross-check of the fixed point ---------------------------


def bp_survival_sim(inputs, side, replicas, generation_cap, size_cap, rng):
    """Survival frequency of the alternating branching process, with stderr.

    Root offspring follows the plain degree law of the chosen side; later
    generations alternate between the two tilted laws.  A replica survives if
    it is still alive at the generation cap or its total progeny reaches the
    size cap.  Offspring sums are drawn as multinomials over the pmf support,
    so each generation costs O(support), not O(population).
    """
    if side not in ("l", "r"):
        raise OutOfDomain(f"side must be 'l' or 'r', got {side!r}")
    if replicas < 1:
        raise OutOfDomain(f"replicas must be >= 1, got {replicas}")
    if generation_cap < 1 or size_cap < 1:
        raise OutOfDomain("caps must be >= 1")
    if side == "l":
        root, even, odd = inputs.p, inputs.p_tilde, inputs.q_tilde
    else:
        root, even, odd = inputs.q, inputs.q_tilde, inputs.p_tilde

    root_vals = np.array(root.values)
    alive = rng.choice(root_vals, size=replicas, p=np.array(root.weights)).astype(np.int64)
    total = 1 + alive
    survived = np.zeros(replicas, dtype=bool)
    undecided = alive > 0
    laws = [(np.array(law.values, dtype=np.int64), np.array(law.weights)) for law in (odd, even)]

    for gen in range(1, generation_cap + 1):
        hit_cap = undecided & (total >= size_cap)
        survived |= hit_cap
        undecided &= ~hit_cap
        idx = np.flatnonzero(undecided)
        if len(idx) == 0:
            break
        values, probs = laws[(gen - 1) % 2]
        children = rng.multinomial(alive[idx], probs) @ values
        alive[idx] = children
        total[idx] += children
        died = np.zeros(replicas, dtype=bool)
        died[idx] = children == 0
        undecided &= ~died
    survived |= undecided  # alive at the generation cap

    frac = float(survived.sum()) / replicas
    stderr = math.sqrt(max(frac * (1.0 - frac), 0.0) / replicas)
    return frac, stderr


# -- isomorphism classes ------------------------------------------------------------


@functools.cache
def canonical_key(graph):
    """Key equal across two community graphs iff they are isomorphic: the
    least relabeled edge tuple over all n! vertex permutations."""
    return graph.n, min(
        tuple(sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in graph.edges))
        for perm in itertools.permutations(range(1, graph.n + 1))
    )


def outcome_classes(profile):
    """A percolation profile's outcome law with each outcome's pieces read up
    to isomorphism: sorted tuple of their ``canonical_key`` -> probability."""
    law: dict = {}
    for outcome, prob in profile.outcomes:
        key = tuple(sorted(canonical_key(CommunityGraph(*k)) for k in outcome))
        law[key] = law.get(key, 0.0) + prob
    return law


# -- percolated communities --------------------------------------------------------


def mu_pi_limit(catalog, pi):
    """Exact limiting frequency of every labeled percolated component shape,
    by enumerating every edge subset of every shape.

    Component frequencies are per *new* community: each original community
    contributes kappa(H | outcome) copies of shape H, and the normalizer is
    the expected number of split pieces per original community, so the
    catalog's ``mean_size()`` is the mean percolated community size.
    """
    numerator: dict = {}
    denominator = 0.0
    for g, w in catalog.items:
        profile = percolate_enumerate(g, pi)
        for outcome, prob in profile.outcomes:
            denominator += w * prob * len(outcome)
            for key in outcome:
                numerator[key] = numerator.get(key, 0.0) + w * prob
    return CommunityCatalog(
        (CommunityGraph(*key), mass / denominator) for key, mass in numerator.items()
    )


@dataclass(frozen=True)
class SizeBiasedCheck:
    """Total-variation comparison of the two routes to the size-biased
    percolated community size (minus one)."""

    tv_distance: float
    law_from_catalog: dict[int, float]
    law_from_roles: dict[int, float]


def _component_size(n, edges, root):
    """Vertex count of the component of ``root`` in a graph on 1..n."""
    adjacent = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen = {root}
    stack = [root]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def sizebiased_comsize_check(communities, pieces, pi, rng, replicas):
    """Check that size-biasing the size law of ``pieces``, a percolated copy
    of ``communities``, matches the component of a uniformly chosen role.

    Route (a) reads the piece sizes; route (b) draws ``replicas`` roles
    (a size-biased community, then a uniform member), keeps each of its
    community's edges with probability pi and measures the root's component.
    """
    if replicas < 1:
        raise OutOfDomain(f"replicas must be >= 1, got {replicas}")
    # route (a): size-bias the empirical size law of the pieces, minus one
    counts = np.bincount([g.n for g in pieces])
    biased = {s - 1: s * int(c) for s, c in enumerate(counts) if c and s}
    total = sum(biased.values())
    law_a = {k: w / total for k, w in biased.items()}

    # route (b): uniform role = size-biased community + uniform member
    weights = np.array([g.n for g in communities], dtype=float)
    weights /= weights.sum()
    picks = rng.choice(len(communities), size=replicas, p=weights)
    sizes: dict[int, int] = {}
    for a in picks:
        g = communities[a]
        root = int(rng.integers(1, g.n + 1))
        if pi >= 1.0:
            kept = g.edges
        elif pi <= 0.0:
            kept = ()
        else:
            kept = [e for e in g.edges if rng.random() < pi]
        k = _component_size(g.n, kept, root) - 1
        sizes[k] = sizes.get(k, 0) + 1
    law_b = {k: c / replicas for k, c in sizes.items()}

    support = set(law_a) | set(law_b)
    tv = 0.5 * sum(abs(law_a.get(k, 0.0) - law_b.get(k, 0.0)) for k in support)
    return SizeBiasedCheck(tv_distance=tv, law_from_catalog=law_a, law_from_roles=law_b)


# -- the exploration's direct-clock schedule, giant window and death processes ----


def run_exploration_clocks(params, rng):
    """The exploration with every token's alarm realized up front: the ring
    order is the stable argsort of h unit exponentials, the ring times those
    exponentials in that order.  Equal in law to ``run_exploration``'s
    exponential race; the group order, the uniforms and the loop are
    rigclab's own."""
    h = params.half_edges
    alarms = rng.exponential(size=h)
    sigma = np.argsort(alarms, kind="stable").astype(index_dtype(h + params.n_l + params.n_r))
    return _explore(params, sigma, alarms[sigma], rng)


def giant_exploration_window(traj, t_star):
    """Last component start before t*/2 and the first one after.

    In the supercritical regime these bracket the giant's exploration and
    converge to (0, t*).
    """
    s1 = traj.times[traj.kinds == STEP1]
    before = s1[s1 <= t_star / 2]
    after = s1[s1 > t_star / 2]
    t1 = float(before[-1]) if len(before) else math.nan
    t2 = float(after[0]) if len(after) else math.inf
    return t1, t2


@dataclass(frozen=True)
class DeathProcessPath:
    """Pure death process at unit per-capita rate: jump times from a fixed start."""

    start: int
    #: hit_times[k] = first time the process is at population k (hit_times[start] = 0)
    hit_times: np.ndarray

    def hitting(self, c: float) -> float:
        if not 0.0 < c <= 1.0:
            raise OutOfDomain(f"c={c} outside (0, 1]")
        return float(self.hit_times[int(c * self.start)])

    def sup_error_vs_exponential(self, c_grid) -> float:
        """Sup over the grid of |T(c) + log c|: hitting-time concentration."""
        return max(abs(self.hitting(c) + math.log(c)) for c in c_grid)

    def sup_error_trajectory(self, t_grid) -> float:
        """Sup over a time grid of |X(t)/start - exp(-t)|: path concentration."""
        t = np.asarray(list(t_grid), dtype=float)
        jump_t = self.hit_times[::-1]  # ascending times for states start..0
        idx = np.searchsorted(jump_t, t, side="right") - 1
        states = self.start - idx
        return float(np.abs(states / self.start - np.exp(-t)).max())


def _death_path(waits):
    """The path whose jump from level start - i waits ``waits[i]``."""
    start = len(waits)
    hit = np.empty(start + 1)
    hit[start] = 0.0
    hit[start - 1 :: -1] = np.cumsum(waits)
    return DeathProcessPath(start=start, hit_times=hit)


def standard_death_process(start, rng):
    """Sample the unit-rate death process started at ``start``."""
    if start < 1:
        raise OutOfDomain("start must be >= 1")
    return _death_path(rng.exponential(size=start) / np.arange(start, 0, -1))


def coupled_standard_hitting(traj, rng):
    """Standard death process coupled to the trajectory's jump realization.

    Alarm jumps reuse the trajectory's observed waits; instantaneous group
    discoveries get fresh Exp(1)/level waits, so the saved time against the
    trajectory's hitting times is a sum of positives.
    """
    kinds = traj.kinds
    jumps = (kinds == STEP2) | (kinds == STEP3)
    times = traj.times[jumps]
    is_alarm = kinds[jumps] == STEP3
    prev = np.empty_like(times)
    prev[0] = 0.0
    prev[1:] = times[:-1]
    # time elapsed at each pre-jump level (zero at instantaneous discoveries)
    level_waits = np.where(is_alarm, times - prev, 0.0)
    fresh = rng.exponential(size=traj.h) / np.arange(traj.h, 0, -1, dtype=float)
    return _death_path(np.where(is_alarm, level_waits, fresh))


@dataclass(frozen=True)
class SizeBiasedWakePath:
    """Group-token wake process driven by a size-biased reordering."""

    h: int
    order: np.ndarray
    partial_sums: np.ndarray
    wake_times: np.ndarray

    def hitting(self, c: float) -> float:
        """First time the sleeping token count drops to c * h."""
        if not 0.0 < c <= 1.0:
            raise OutOfDomain(f"c={c} outside (0, 1]")
        remaining = self.h - self.partial_sums  # descending
        j = int(np.searchsorted(-remaining, -c * self.h, side="left"))
        return float(self.wake_times[j])


def zr_process(r_degrees, rng):
    """Wake groups in size-biased order; waits are Exp(1) over sleeping tokens.

    Its hitting times are distributed exactly as the time the exploration
    saves through instantaneous discoveries.
    """
    d = np.asarray(r_degrees, dtype=np.int64)
    if len(d) == 0 or d.min() < 1:
        raise OutOfDomain("degrees must be a nonempty positive sequence")
    h = int(d.sum())
    order = np.argsort(rng.exponential(size=len(d)) / d, kind="stable")
    sums = np.zeros(len(d) + 1, dtype=np.int64)
    np.cumsum(d[order], out=sums[1:])
    remaining = h - sums[:-1]  # sleeping count before each wake
    wake = np.zeros(len(d) + 1)
    wake[1:] = np.cumsum(rng.exponential(size=len(d)) / remaining)
    return SizeBiasedWakePath(h=h, order=order, partial_sums=sums, wake_times=wake)


# -- exact convolution powers of a weight map -----------------------------------


def convolve_weights(a: Mapping[int, float], b: Mapping[int, float]) -> dict[int, float]:
    """Convolution of two (sub-probability) weight maps."""
    out: dict[int, float] = {}
    for va, wa in a.items():
        for vb, wb in b.items():
            out[va + vb] = out.get(va + vb, 0.0) + wa * wb
    return out


def convolve_power(base: "Pmf | Mapping[int, float]", k: int) -> dict[int, float]:
    """k-fold convolution of a weight map (sub-probability allowed).

    k = 0 yields the empty-sum point mass {0: 1.0} regardless of the input
    mass, matching (total mass)^0 = 1.
    """
    if k < 0:
        raise OutOfDomain(f"convolution power must be >= 0, got {k}")
    weights = base.as_dict() if isinstance(base, Pmf) else dict(base)
    out = {0: 1.0}
    for _ in range(k):
        out = convolve_weights(out, weights)
    return out

"""Closed-form predictions from the degree law and the community catalog.

Everything funnels through one fixed point: the extinction probability of the
two-stage offspring law obtained by size-biasing both sides of the bipartite
structure.  From it follow the giant fractions on each side, the in-giant
joint degree law, the two edge-count formulas, the exploration limit curves,
and a branching-process simulator used as an independent cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .community import CommunityCatalog
from .components import BcmGiantStats
from .errors import ExcludedRegime, NonConvergence, NotSupercritical, OutOfDomain
from .pmf import Pmf, convolve_power

#: fixed-point iteration stops when the increment drops below this
FIXED_POINT_INCREMENT = 1e-13
FIXED_POINT_MAX_ITER = 10**6
#: the almost-2-regular input regime is rejected within this tolerance
EXCLUDED_REGIME_TOL = 1e-12


@dataclass(frozen=True)
class TheoryInputs:
    """Degree law and community-size law, with the tilted laws every formula
    needs.

    The fixed point, the giant fractions, the bipartite giant and the
    exploration curves read only the two size laws.  The joint degree law and
    the edge formulas also need the community shapes: ``catalog`` and its
    role-degree law ``rho``, which are ``None`` for inputs built from (p, q).
    """

    p: Pmf
    q: Pmf
    p_tilde: Pmf
    q_tilde: Pmf
    gamma: float
    catalog: CommunityCatalog | None = None
    rho: Pmf | None = None

    @classmethod
    def from_p_q(cls, p: Pmf, q: Pmf) -> "TheoryInputs":
        return cls(
            p=p,
            q=q,
            p_tilde=p.size_bias().shift_down_one(),
            q_tilde=q.size_bias().shift_down_one(),
            gamma=p.mean() / q.mean(),
        )

    @classmethod
    def from_p_catalog(cls, p: Pmf, catalog: CommunityCatalog) -> "TheoryInputs":
        return replace(
            cls.from_p_q(p, catalog.size_pmf()), catalog=catalog, rho=catalog.cdeg_pmf()
        )

    @property
    def criticality(self) -> float:
        """E[p~] E[q~], the mean grandchild count: a giant exists exactly
        when it exceeds one."""
        return self.p_tilde.mean() * self.q_tilde.mean()

    def shapes(self) -> CommunityCatalog:
        """The catalog, for the formulas that need community shapes."""
        if self.catalog is None:
            raise OutOfDomain("inputs built from (p, q) carry no community shapes")
        return self.catalog


@dataclass(frozen=True)
class GiantPrediction:
    eta_l: float
    eta_r: float
    xi_l: float
    xi_r: float
    supercritical: bool
    criticality_value: float

    def as_dict(self) -> dict:
        return {
            "eta_l": self.eta_l,
            "eta_r": self.eta_r,
            "xi_l": self.xi_l,
            "xi_r": self.xi_r,
            "supercritical": self.supercritical,
            "criticality_value": self.criticality_value,
        }


def check_regime(inputs: TheoryInputs) -> None:
    """Raise ``ExcludedRegime`` in the almost-2-regular regime, where the
    largest component is not concentrated."""
    if inputs.p.prob(2) + inputs.q.prob(2) >= 2.0 - EXCLUDED_REGIME_TOL:
        raise ExcludedRegime(
            "both degree laws are (almost surely) 2: largest component not concentrated"
        )


def solve_eta_l(inputs: TheoryInputs) -> float:
    """Smallest fixed point of the composed tilted PGFs, iterated up from 0.

    The composition is itself a PGF (of the grandchild offspring count), so
    iteration from 0 increases monotonically to the smallest fixed point.
    Whenever the criticality is at most one, that fixed point is exactly 1
    and is returned as such; the almost-2-regular regime is rejected
    outright (``check_regime``).
    """
    check_regime(inputs)
    if inputs.criticality <= 1.0:
        return 1.0
    eta = 0.0
    for _ in range(FIXED_POINT_MAX_ITER):
        nxt = inputs.q_tilde.gf_eval(inputs.p_tilde.gf_eval(eta))
        if nxt - eta < FIXED_POINT_INCREMENT:
            return nxt
        eta = nxt
    raise NonConvergence("fixed-point iteration did not converge")


def giant_prediction(inputs: TheoryInputs) -> GiantPrediction:
    eta_l = solve_eta_l(inputs)
    criticality = inputs.criticality
    if criticality <= 1.0:
        # no giant: extinction is certain and the survival fractions vanish
        return GiantPrediction(
            eta_l=1.0,
            eta_r=1.0,
            xi_l=0.0,
            xi_r=0.0,
            supercritical=False,
            criticality_value=criticality,
        )
    eta_r = inputs.p_tilde.gf_eval(eta_l)
    return GiantPrediction(
        eta_l=eta_l,
        eta_r=eta_r,
        xi_l=1.0 - inputs.p.gf_eval(eta_l),
        xi_r=1.0 - inputs.q.gf_eval(eta_r),
        supercritical=True,
        criticality_value=criticality,
    )


# -- in-giant joint degree law -----------------------------------------------


def _extinct_role_weights(inputs: TheoryInputs, eta_r: float) -> dict[int, float]:
    """Sub-probability weights of one community role's within-community degree,
    discounted by the chance that the rest of its community dies out."""
    er = inputs.q.mean()
    w: dict[int, float] = {}
    for g, mu in inputs.shapes().items:
        discount = eta_r ** (g.n - 1)
        for c, count in g.degree_census().items():
            w[c] = w.get(c, 0.0) + count * mu * discount / er
    return w


def joint_degree_in_giant_table(
    inputs: TheoryInputs, prediction: GiantPrediction
) -> dict[tuple[int, int], float]:
    """Limiting fraction of vertices with k memberships and degree d in the
    giant, for every (k, d) of the law's finite support, in one pass over
    the support of p.

    Exact algebraic factorization: the survival discount factorizes over the
    k communities, so the double sum collapses to a difference of k-fold
    convolutions (full role-degree law minus the discounted one).
    """
    if not prediction.supercritical:
        raise NotSupercritical("in-giant degree law needs a giant component")
    dead_base = _extinct_role_weights(inputs, prediction.eta_r)
    table: dict[tuple[int, int], float] = {}
    for k, pk in zip(inputs.p.values, inputs.p.weights):
        full = convolve_power(inputs.rho, k)
        dead = convolve_power(dead_base, k)
        for d in sorted(full):  # dead's support lies within full's
            a = pk * (full[d] - dead.get(d, 0.0))
            if a != 0.0:
                table[(k, d)] = a
    return table


def edges_in_giant_rigc(inputs: TheoryInputs, prediction: GiantPrediction) -> float:
    """Edges per individual in the giant, via the community-edge formula."""
    if not prediction.supercritical:
        raise NotSupercritical("edge count needs a giant component")
    acc = sum(
        mu * g.edge_count * (1.0 - prediction.eta_r**g.n)
        for g, mu in inputs.shapes().items
    )
    return inputs.gamma * acc


def edges_in_giant_from_joint(inputs: TheoryInputs, prediction: GiantPrediction) -> float:
    """Edges per individual in the giant, summed from the joint degree law.

    Agrees with ``edges_in_giant_rigc`` up to rounding; the identity of the
    two routes is a theory invariant.
    """
    table = joint_degree_in_giant_table(inputs, prediction)
    return 0.5 * sum(d * a for (_, d), a in table.items())


# -- the bipartite giant -------------------------------------------------------


def bcm_predictions(inputs: TheoryInputs, prediction: GiantPrediction) -> BcmGiantStats:
    if not prediction.supercritical:
        raise NotSupercritical("bipartite giant law needs a giant component")
    eta_l, eta_r = prediction.eta_l, prediction.eta_r
    return BcmGiantStats(
        lhs_fraction=prediction.xi_l,
        rhs_fraction=prediction.xi_r,
        lhs_degk={k: w * (1.0 - eta_l**k) for k, w in zip(inputs.p.values, inputs.p.weights)},
        rhs_degk={k: w * (1.0 - eta_r**k) for k, w in zip(inputs.q.values, inputs.q.weights)},
        edges_per_N=inputs.p.mean() * (1.0 - eta_l * eta_r),
        combined_fraction=(prediction.xi_l + inputs.gamma * prediction.xi_r)
        / (1.0 + inputs.gamma),
    )


# -- exploration limit curves ----------------------------------------------------


def q_tilde_zero(inputs: TheoryInputs) -> float:
    """Mass the tilted community-size law puts at zero (domain edge of the
    living-half-edge curve)."""
    return inputs.q_tilde.prob(0)


def hitting_time_curve(inputs: TheoryInputs, c):
    """Limit of the time at which the living fraction first drops to c,
    -log c + log G_{q*}^{-1}(c), for a number or an array of c in (0, 1]."""
    c = np.asarray(c, dtype=float)
    if c.size and not (c.min() > 0.0 and c.max() <= 1.0):
        raise OutOfDomain("c values must lie in (0, 1]")
    return -np.log(c) + np.log(inputs.q.size_bias().gf_inverse_many(c))


def curve_table(inputs: TheoryInputs, z) -> dict[str, np.ndarray]:
    """Limits of the sleeping, living and active (living minus sleeping)
    half-edges per individual at each z = e^(-t) of a grid.

    Sleeping is E[L] z G_p~(z).  Living is E[L] z G_q~^{-1}(z), defined on
    [q~(0), 1]: group discoveries remove half-edges instantaneously, so the
    inverse tilted PGF drives it.
    """
    z = np.asarray(z, dtype=float)
    q0 = q_tilde_zero(inputs)
    if z.size and not (z.min() >= q0 and z.max() <= 1.0):
        raise OutOfDomain(f"grid must lie in [{q0}, 1]")
    mean_p = inputs.p.mean()
    sleeping = mean_p * z * inputs.p_tilde.gf_eval_many(z)
    living = mean_p * z * inputs.q_tilde.gf_inverse_many(z)
    return {"z": z, "sleeping": sleeping, "living": living, "active": living - sleeping}


# -- branching-process cross-check -------------------------------------------


def bp_survival_sim(
    inputs: TheoryInputs,
    side: str,
    replicas: int,
    generation_cap: int,
    size_cap: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
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

    laws = []
    for law in (odd, even):
        laws.append((np.array(law.values, dtype=np.int64), np.array(law.weights)))

    for gen in range(1, generation_cap + 1):
        hit_cap = undecided & (total >= size_cap)
        survived |= hit_cap
        undecided &= ~hit_cap
        idx = np.flatnonzero(undecided)
        if len(idx) == 0:
            break
        values, probs = laws[(gen - 1) % 2]
        counts = rng.multinomial(alive[idx], probs)
        children = counts @ values
        alive[idx] = children
        total[idx] += children
        died = np.zeros(replicas, dtype=bool)
        died[idx] = children == 0
        undecided &= ~died
    survived |= undecided  # alive at the generation cap

    frac = float(survived.sum()) / replicas
    stderr = math.sqrt(max(frac * (1.0 - frac), 0.0) / replicas)
    return frac, stderr

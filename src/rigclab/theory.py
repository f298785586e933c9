"""Closed-form predictions from the degree law and the community catalog.

Everything funnels through one fixed point: the extinction probability of the
two-stage offspring law obtained by size-biasing both sides of the bipartite
structure.  From it follow the giant fractions on each side, the in-giant
joint degree law, the two edge-count formulas and the exploration limit
curves.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .community import CommunityCatalog
from .components import BcmGiantStats
from .errors import ExcludedRegime, NotSupercritical, OutOfDomain
from .pmf import Pmf

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
        return asdict(self)


def check_regime(inputs: TheoryInputs) -> None:
    """Raise ``ExcludedRegime`` in the almost-2-regular regime, where the
    largest component is not concentrated."""
    if inputs.p.prob(2) + inputs.q.prob(2) >= 2.0 - EXCLUDED_REGIME_TOL:
        raise ExcludedRegime(
            "both degree laws are (almost surely) 2: largest component not concentrated"
        )


def bisect(
    below: Callable[[float], bool], lo: float, hi: float, width: float
) -> tuple[float, float]:
    """Halve [lo, hi], where ``below(lo)`` holds and ``below(hi)`` does not,
    until the bracket is at most ``width`` wide or its ends are adjacent
    floats; the root of the predicate's sign change stays inside."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # adjacent floats: no width can shrink the bracket further
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def solve_eta_l(inputs: TheoryInputs) -> float:
    """Smallest fixed point of the composed tilted PGFs G(z) = G_q~(G_p~(z)).

    Whenever the criticality is at most one, that fixed point is exactly 1
    and is returned as such; the almost-2-regular regime is rejected
    outright (``check_regime``).  Above it, G(z) - z is convex, vanishes at
    1 with slope criticality - 1 > 0, so it is positive below the root and
    negative between the root and 1: its sign is bisected down to a bracket
    of 2^-60 or adjacent floats.  G(0) = 0, when neither side has degree 1,
    is the root 0 exactly.
    """
    check_regime(inputs)
    if inputs.criticality <= 1.0:
        return 1.0

    def grandchild_gf(z: float) -> float:
        return inputs.q_tilde.gf_eval(inputs.p_tilde.gf_eval(z))

    if grandchild_gf(0.0) == 0.0:
        return 0.0
    lo, hi = bisect(lambda z: grandchild_gf(z) > z, 0.0, 1.0, 2.0**-60)
    return 0.5 * (lo + hi)


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


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.convolve(a, b)``, summed over nonzero pairs only when the arrays
    are mostly zeros (a catalog mixing a path with a large star)."""
    ia, ib = np.flatnonzero(a), np.flatnonzero(b)
    # one indexed add below costs about as much as 32 of np.convolve's
    # multiply-adds (measured on arrays of 10k to 40k entries)
    if 32 * len(ia) * len(ib) >= len(a) * len(b):
        return np.convolve(a, b)
    if len(ia) > len(ib):
        a, b, ia, ib = b, a, ib, ia
    out = np.zeros(len(a) + len(b) - 1)
    wb = b[ib]
    for i in ia.tolist():
        out[i + ib] += a[i] * wb
    return out


def _dense_power(base: np.ndarray, k: int) -> np.ndarray:
    """k-fold convolution power of a dense weight array, by squaring.

    Products are summed directly, never by FFT, so a degree no sum of k role
    degrees reaches keeps its exact 0.
    """
    out = np.ones(1)
    while k:
        if k & 1:
            out = _convolve(out, base)
        k >>= 1
        if k:
            base = _convolve(base, base)
    return out


def joint_degree_in_giant_table(
    inputs: TheoryInputs, prediction: GiantPrediction
) -> dict[tuple[int, int], float]:
    """Limiting fraction of vertices with k memberships and degree d in the
    giant, for every (k, d) of the law's finite support, in one ascending
    pass over the support of p.

    Exact algebraic factorization: the survival discount factorizes over the
    k communities, so the double sum collapses to a difference of k-fold
    convolutions (full role-degree law minus the discounted one).  Both
    powers are carried from one k to the next and multiplied by the power
    for the gap.
    """
    if not prediction.supercritical:
        raise NotSupercritical("in-giant degree law needs a giant component")
    dead_weights = _extinct_role_weights(inputs, prediction.eta_r)
    # every role degree is low + step*j, so a sum of k of them is
    # k*low + step*j: the dense arrays hold the weight of j, and a catalog
    # of one large complete graph or star needs no array of length k*n
    low = min(inputs.rho.values)
    step = math.gcd(*(c - low for c in inputs.rho.values)) or 1

    def dense(weights: dict[int, float]) -> np.ndarray:
        out = np.zeros((max(inputs.rho.values) - low) // step + 1)
        out[[(c - low) // step for c in weights]] = list(weights.values())
        return out

    rho_base = dense(inputs.rho.as_dict())
    # dead's support lies within rho's, so both arrays have one length
    dead_base = dense(dead_weights)
    full = dead = np.ones(1)
    table: dict[tuple[int, int], float] = {}
    prev = 0
    for k, pk in zip(inputs.p.values, inputs.p.weights):
        full = _convolve(full, _dense_power(rho_base, k - prev))
        dead = _convolve(dead, _dense_power(dead_base, k - prev))
        prev = k
        row = pk * (full - dead)
        support = np.flatnonzero(row)
        degrees = (k * low + step * support).tolist()
        table.update(zip(((k, d) for d in degrees), row[support].tolist()))
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
    """Edges per individual in the giant, as half the mean in-giant degree
    of the joint degree law.

    The law's k-row is p_k times the k-fold power of rho minus that of the
    extinct role weights w, so its degree moment is p_k k (E[rho] - mu1(w)
    m(w)^(k-1)), with mu1(w) and m(w) the first moment and the mass of w:
    one pass over the support of p, no convolution.  m(w) = eta_l, so this
    route still reads the fixed point.  Agrees with ``edges_in_giant_rigc``
    up to rounding; the identity of the two routes is a theory invariant.
    """
    if not prediction.supercritical:
        raise NotSupercritical("in-giant degree law needs a giant component")
    dead = _extinct_role_weights(inputs, prediction.eta_r)
    dead_mass = sum(dead.values())
    dead_mean = sum(c * w for c, w in dead.items())
    rho_mean = inputs.rho.mean()
    return 0.5 * sum(
        pk * k * (rho_mean - dead_mean * dead_mass ** (k - 1))
        for k, pk in zip(inputs.p.values, inputs.p.weights)
        if k  # a k = 0 row has no degree, and m(w) may be 0
    )


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

"""Finite probability mass functions on the nonnegative integers.

Carries the generating-function algebra everything else is built on:
evaluation and inversion of the PGF on [0, 1], size-biasing, and the
shift-by-one transform of a size-biased law.
"""
from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .errors import (
    EmptySupport,
    NegativeWeight,
    NotNormalized,
    OutOfDomain,
    OutOfRange,
    SupportContainsZero,
    ZeroMean,
)

#: weights may deviate from 1 by this much and still be renormalized
NORMALIZATION_SLACK = 1e-9
#: stored weights must sum to 1 within this tolerance after construction
WEIGHT_SUM_TOL = 1e-12

#: largest accepted Poisson mean; the support grows like its square root
POISSON_MAX_MEAN = 1e6

#: inverse-PGF arguments may overshoot [P(X=0), 1] by this much (rounding)
_INVERSE_TOL = 1e-12


class Pmf:
    """Immutable probability mass function with finite support in {0, 1, 2, ...}.

    Zero-weight entries are dropped at construction; the remaining weights
    must sum to 1 within ``NORMALIZATION_SLACK`` and are renormalized to
    machine accuracy.
    """

    __slots__ = ("_values", "_weights")

    def __init__(self, entries: Mapping[int, float]):
        cleaned = []
        for value, weight in entries.items():
            v = int(value)
            if v != value or v < 0:
                raise OutOfDomain(f"support value {value!r} is not a nonnegative integer")
            w = float(weight)
            if not w >= 0.0:  # NaN included
                raise NegativeWeight(f"weight {w} at value {v} is not >= 0")
            if w > 0.0:
                cleaned.append((v, w))
        if not cleaned:
            raise EmptySupport("pmf needs at least one positive weight")
        cleaned.sort()
        total = math.fsum(w for _, w in cleaned)
        if abs(total - 1.0) > NORMALIZATION_SLACK:
            raise NotNormalized(f"weights sum to {total!r}, not 1")
        self._values = tuple(v for v, _ in cleaned)
        self._weights = tuple(w / total for _, w in cleaned)

    # -- basic accessors -------------------------------------------------

    @property
    def values(self) -> tuple[int, ...]:
        return self._values

    @property
    def weights(self) -> tuple[float, ...]:
        return self._weights

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self._values, self._weights))

    def prob(self, k: int) -> float:
        """P(X = k), zero off the support."""
        try:
            return self._weights[self._values.index(k)]
        except ValueError:
            return 0.0

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pmf):
            return NotImplemented
        return self._values == other._values and self._weights == other._weights

    def __hash__(self) -> int:
        return hash((self._values, self._weights))

    def __repr__(self) -> str:
        inside = ", ".join(f"{v}: {w:.6g}" for v, w in zip(self._values, self._weights))
        return f"Pmf({{{inside}}})"

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_counts(cls, counts: Mapping[int, int] | np.ndarray) -> "Pmf":
        """Empirical pmf from integer counts (array index = value)."""
        if isinstance(counts, np.ndarray):
            counts = {int(k): int(c) for k, c in enumerate(counts) if c > 0}
        total = sum(counts.values())
        if total <= 0:
            raise EmptySupport("no observations")
        return cls({k: c / total for k, c in counts.items() if c > 0})

    @classmethod
    def poisson(cls, mean: float, tail: float = 1e-12) -> "Pmf":
        """Poisson(mean) with both tails cut where each holds under tail / 2.

        Terms grow outward from the mode, whose weight is computed in log
        space, so no term underflows before the cut.  Past the mode the term
        ratio r falls monotonically, so a tail after a term t weighs at most
        t r / (1 - r); that bound places each cut.  Downstream formulas are
        absolutely convergent, so the truncation error stays below every
        acceptance tolerance in use.
        """
        if not (math.isfinite(mean) and 0.0 < mean <= POISSON_MAX_MEAN):
            raise OutOfDomain(f"poisson mean must lie in (0, {POISSON_MAX_MEAN:g}], got {mean}")
        mode = math.floor(mean)
        peak = math.exp(mode * math.log(mean) - mean - math.lgamma(mode + 1))
        entries = {mode: peak}
        term, k = peak, mode
        while True:  # upper tail: ratio mean / (k + 1)
            ratio = mean / (k + 1)
            if term * ratio / (1.0 - ratio) < 0.5 * tail:
                break
            term *= ratio
            k += 1
            entries[k] = term
        term, k = peak, mode
        while k > 0:  # lower tail: ratio k / mean
            ratio = k / mean
            if ratio < 1.0 and term * ratio / (1.0 - ratio) < 0.5 * tail:
                break
            term *= ratio
            k -= 1
            entries[k] = term
        total = math.fsum(entries.values())
        return cls({k: w / total for k, w in entries.items()})

    # -- moments and transforms -------------------------------------------

    def mean(self) -> float:
        return math.fsum(v * w for v, w in zip(self._values, self._weights))

    def size_bias(self) -> "Pmf":
        """Reweight by value: P(X* = k) = k P(X = k) / E[X]; mass at 0 vanishes."""
        m = self.mean()
        if m <= 0.0:
            raise ZeroMean("size-biasing needs a positive mean")
        return Pmf({v: v * w / m for v, w in zip(self._values, self._weights) if v > 0})

    def shift_down_one(self) -> "Pmf":
        """Move the mass at k to k - 1; the support must avoid 0."""
        if self._values[0] == 0:
            raise SupportContainsZero("cannot shift a pmf with mass at 0")
        return Pmf({v - 1: w for v, w in zip(self._values, self._weights)})

    # -- generating function ----------------------------------------------

    def gf_eval(self, z: float) -> float:
        """PGF value sum_k p_k z^k, with 0^0 = 1; z must lie in [0, 1]."""
        if not 0.0 <= z <= 1.0:
            raise OutOfDomain(f"z={z} outside [0, 1]")
        return math.fsum(w * z**v for v, w in zip(self._values, self._weights))

    def gf_eval_many(self, z: np.ndarray) -> np.ndarray:
        """Vectorized ``gf_eval`` over an array of points in [0, 1]; NaN
        raises like any other value outside."""
        z = np.asarray(z, dtype=float)
        if z.size and not (z.min() >= 0.0 and z.max() <= 1.0):
            raise OutOfDomain("z values outside [0, 1]")
        out = np.zeros_like(z)
        for v, w in zip(self._values, self._weights):
            out += w * z**v
        return out

    def gf_inverse_many(self, y) -> np.ndarray:
        """Inverse PGF: for each y in [P(X=0), 1], the z in [0, 1] with G(z) = y.

        The PGF is strictly increasing on [0, 1] unless the pmf is a point
        mass at 0.  A single atom, or an atom at 0 plus one more, inverts in
        closed form; any other support is bisected in parallel down to a
        bracket of width 2^-60 around each root.  NaN raises like any other
        value outside the range.
        """
        y = np.asarray(y, dtype=float)
        g0 = self.prob(0)
        if g0 >= 1.0:
            raise OutOfRange("pmf is a point mass at 0; PGF is constant")
        if y.size and not (y.min() >= g0 - _INVERSE_TOL and y.max() <= 1.0 + _INVERSE_TOL):
            raise OutOfRange(f"y values outside the PGF range [{g0}, 1]")
        y = np.clip(y, g0, 1.0)
        if len(self._values) == 1:
            return y ** (1.0 / self._values[0])
        if len(self._values) == 2 and self._values[0] == 0:
            # (1 - g0) / w1 can round above 1, so the root is capped at 1
            return np.minimum(((y - g0) / self._weights[1]) ** (1.0 / self._values[1]), 1.0)
        lo = np.zeros_like(y)
        hi = np.ones_like(y)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = self.gf_eval_many(mid) < y
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

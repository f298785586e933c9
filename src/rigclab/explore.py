"""Continuous-time exploration of the bipartite matching, with diagnostics.

The exploration builds the matching while walking components: wake an
unexplored individual, match one of its tokens to a uniform sleeping group
token (discovering the group), then resolve the group's remaining tokens one
by one, each at the first alarm among unmatched individual tokens.  Group
discoveries are instantaneous; alarm waits are the only time advance.

The alarm race is realized by presampling a single uniform ring order plus
per-ring waits Exp(1)/#unrung.  Rings landing on tokens already matched are
"phantoms": they advance the clock and the no-ring-yet vertex census, but
pairing skips them.  This is distributionally identical to independent unit
alarms on every token and keeps the loop linear in the half-edge count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainHorizon, EmptyGrid, OutOfDomain
from .model import BcmGraph, ModelParams, index_dtype
from .theory import TheoryInputs, curve_table, q_tilde_zero

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


STEP1, STEP2, STEP3 = 1, 2, 3


@dataclass(frozen=True)
class ComponentRecord:
    start_event: int
    end_event: int
    l_vertices: int
    r_vertices: int
    edges: int


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped exploration record; state columns hold post-event values.

    It keeps the matching and the loop's logs: the Step-1 iterations and
    vertices, each phantom skip's first ring and extra rings, the rings
    consumed, the ring schedule and the discovered group degrees.  Each
    column is built from them on first read.  Iteration j emits
    [Step1?] Step2 Step3^(d_j - 1), so the event skeleton follows from the
    discovery order; the logs supply everything it does not determine.

    The matching, the logs, ``sigma``, ``l_owner``, ``d_seq`` and every
    integer column take the index dtype of the matching (``kinds`` is int8,
    the times float64): every count they hold is at most h + n_l.
    """

    n_l: int
    n_r: int
    h: int
    matching: np.ndarray
    step1_iters: np.ndarray
    step1_vertices: np.ndarray
    skip_rings: np.ndarray
    skip_extras: np.ndarray
    rung_total: int
    ring_time: np.ndarray
    sigma: np.ndarray
    l_owner: np.ndarray
    l_degrees: np.ndarray
    d_seq: np.ndarray

    def bcm(self, params: ModelParams) -> BcmGraph:
        return BcmGraph(
            l_degrees=params.l_degrees,
            r_degrees=params.r_degrees(),
            matching=self.matching,
        )

    @property
    def _idx(self) -> np.dtype:
        return self.matching.dtype

    @cached_property
    def kinds(self) -> np.ndarray:
        has1 = np.zeros(len(self.d_seq), dtype=self._idx)
        has1[self.step1_iters] = 1
        iter_start = np.zeros(len(self.d_seq) + 1, dtype=self._idx)
        np.cumsum(self.d_seq + has1, dtype=self._idx, out=iter_start[1:])
        kinds = np.full(iter_start[-1], STEP3, dtype=np.int8)
        kinds[iter_start[:-1] + has1] = STEP2
        kinds[iter_start[self.step1_iters]] = STEP1
        return kinds

    @cached_property
    def _step1_pos(self) -> np.ndarray:
        return np.flatnonzero(self.kinds == STEP1)

    @cached_property
    def _ring_cum(self) -> np.ndarray:
        """Rings consumed up to each event.  Every alarm resolution consumes
        one plus its skips; a skip beginning at ring index s belongs to the
        resolution whose ordinal is s minus the extras spent by earlier skips."""
        is3 = self.kinds == STEP3
        rings = is3.astype(self._idx)
        prior_extras = np.cumsum(self.skip_extras, dtype=self._idx) - self.skip_extras
        rings[np.flatnonzero(is3)[self.skip_rings - prior_extras]] += self.skip_extras
        return np.cumsum(rings, dtype=self._idx)

    @cached_property
    def _first_ring(self) -> np.ndarray:
        """Each vertex's first ring index, -1 if it never rang (no sort:
        reversed writes keep the first occurrence)."""
        owners = self.l_owner[self.sigma[: self.rung_total]]
        first = np.full(self.n_l, -1, dtype=self._idx)
        first[owners[::-1]] = np.arange(self.rung_total - 1, -1, -1, dtype=self._idx)
        return first

    @cached_property
    def _wake(self) -> np.ndarray:
        """Tokens woken per event.  Step-1 vertices wake at their Step-1 event;
        every other vertex at its first ring, always the resolving alarm of a
        Step 3."""
        wake = np.zeros(len(self.kinds), dtype=self._idx)
        wake[self._step1_pos] = self.l_degrees[self.step1_vertices]
        by_ring = self._first_ring >= 0
        by_ring[self.step1_vertices] = False
        ring_wakers = np.flatnonzero(by_ring)
        events = np.searchsorted(self._ring_cum, self._first_ring[ring_wakers] + 1, side="left")
        wake[events] = self.l_degrees[ring_wakers]
        return wake

    @cached_property
    def times(self) -> np.ndarray:
        return np.append(0.0, self.ring_time)[self._ring_cum]

    @cached_property
    def living(self) -> np.ndarray:
        return self.h - np.cumsum(self.kinds != STEP1, dtype=self._idx)

    @cached_property
    def sleeping(self) -> np.ndarray:
        return self.h - np.cumsum(self._wake, dtype=self._idx)

    @cached_property
    def sleeping_hat(self) -> np.ndarray:
        """No-ring-yet census: whole families, Step-1 status notwithstanding."""
        rang = self._first_ring >= 0
        drop = np.zeros(self.rung_total + 1, dtype=self._idx)
        drop[self._first_ring[rang] + 1] = self.l_degrees[rang]
        return self.h - np.cumsum(drop, dtype=self._idx)[self._ring_cum]

    @cached_property
    def active(self) -> np.ndarray:
        return self.living - self.sleeping

    @cached_property
    def waiting(self) -> np.ndarray:
        """Group tokens left to pair: reset at each discovery, one fewer per
        alarm resolution, none at a Step 1."""
        is2 = self.kinds == STEP2
        event_idx = np.arange(len(is2), dtype=self._idx)
        last2 = np.maximum.accumulate(np.where(is2, event_idx, -1))
        base = np.zeros(len(is2), dtype=self._idx)
        base[is2] = self.d_seq - 1
        waiting = base[np.maximum(last2, 0)] - (event_idx - last2)
        waiting[self._step1_pos] = 0
        return waiting

    @cached_property
    def s1_times(self) -> np.ndarray:
        return self.times[self._step1_pos]

    @cached_property
    def s2_times(self) -> np.ndarray:
        return self.times[self.kinds == STEP2]

    @cached_property
    def component_records(self) -> tuple[ComponentRecord, ...]:
        starts = self._step1_pos
        ends = np.append(starts[1:] - 1, len(self.kinds) - 1)
        per_component = (
            np.add.reduceat(x, starts, dtype=np.int64).tolist()
            for x in (self._wake > 0, self.kinds == STEP2, self.kinds != STEP1)
        )
        return tuple(map(ComponentRecord, starts.tolist(), ends.tolist(), *per_component))


def run_exploration(
    params: ModelParams,
    rng: np.random.Generator,
    method: str = "race",
) -> Trajectory:
    """Execute the exploration, producing a uniform matching and its trajectory.

    ``method="race"`` draws ring waits lazily from the shrinking-pool
    exponential race; ``method="clocks"`` realizes every token's alarm up
    front and replays them in sorted order.  The two are equal in law; the
    direct-clock mode is kept as a distributional oracle.

    The loop has one source, ``_explore_loop``, and fills numpy buffers.  It
    runs compiled on the arrays when numba is importable and interpreted on
    ``memoryview``s of them otherwise; both consume the same presampled
    randomness and give the same output bit for bit.

    Every index array of the loop, its inputs, buffers and logs alike, takes
    ``index_dtype(h + n_l + n_r)``; the token status is int8, and the
    uniforms and ring times are float64.  The random stream does not depend
    on the dtype, so int32 and int64 runs are equal entry for entry.
    """
    if method not in ("race", "clocks"):
        raise OutOfDomain(f"unknown method {method!r}")

    h = params.half_edges
    n_l, n_r = params.n_l, params.n_r
    idx = index_dtype(h + n_l + n_r)
    r_deg_arr = params.r_degrees()

    l_owner_arr = np.repeat(np.arange(n_l, dtype=idx), params.l_degrees)
    l_off_arr = np.zeros(n_l + 1, dtype=idx)
    np.cumsum(params.l_degrees, dtype=idx, out=l_off_arr[1:])
    r_off_arr = np.zeros(n_r + 1, dtype=idx)
    np.cumsum(r_deg_arr, dtype=idx, out=r_off_arr[1:])

    # ring schedule: uniform order over all l-half-edges plus cumulative times
    if method == "race":
        # shuffling an arange draws exactly what rng.permutation(h) draws
        sigma_arr = np.arange(h, dtype=idx)
        rng.shuffle(sigma_arr)
        ring_time = np.cumsum(rng.exponential(size=h) / np.arange(h, 0, -1))
    else:
        alarms = rng.exponential(size=h)
        sigma_arr = np.argsort(alarms, kind="stable").astype(idx)
        ring_time = alarms[sigma_arr]

    # group discovery order: size-biased without replacement
    keys = rng.exponential(size=n_r) / r_deg_arr
    r_order_arr = np.argsort(keys, kind="stable")
    d_seq = r_deg_arr[r_order_arr].astype(idx)
    first_labels = np.floor(rng.random(n_r) * d_seq).astype(idx)
    bases = r_off_arr[r_order_arr]

    # component starts plus lazy-deletion rejections consume at most one
    # uniform per individual plus one per token
    uniforms = rng.random(n_l + h + 1)

    inputs = (
        sigma_arr,
        l_owner_arr,
        l_off_arr,
        params.l_degrees,
        first_labels,
        bases,
        d_seq,
        uniforms,
        np.arange(h, dtype=idx),  # candidates
    )
    # status, then match, stack, the Step-1 log and the skip log: each starts zeroed
    buffers = (np.zeros(h, dtype=np.int8),) + tuple(
        np.zeros(n, dtype=idx) for n in (h, h, n_l, n_l, h, h)
    )
    args = (*inputs, *buffers)
    n1, nskip, rung_total = _explore_loop(*(args if _HAVE_NUMBA else map(memoryview, args)))
    _, match, _, step1_iters, step1_vertices, skip_rings, skip_extras = buffers
    # copy the used part of each log, so the trajectory keeps no whole buffer alive
    return Trajectory(
        n_l, n_r, h, match,
        step1_iters[:n1].copy(), step1_vertices[:n1].copy(),
        skip_rings[:nskip].copy(), skip_extras[:nskip].copy(),
        rung_total, ring_time, sigma_arr, l_owner_arr, params.l_degrees, d_seq,
    )


@njit(cache=True)
def _explore_loop(
    sigma,
    l_owner,
    l_off,
    l_deg,
    first_labels,
    bases,
    d_seq,
    uniforms,
    candidates,
    status,
    match,
    stack,
    step1_iters,
    step1_vertices,
    skip_rings,
    skip_extras,
):
    """The exploration loop; fills the buffers in place, returns the log lengths.

    ``candidates`` starts as 0..h-1; ``status`` (0 sleeping, 1 active,
    2 paired), ``match``, ``stack`` and the logs start zeroed, and the loop
    writes every entry of ``match``.  ``status`` is int8, ``l_deg`` int64 and
    ``uniforms`` float64; every other argument holds indices or counts below
    h + n_l and shares one integer dtype, int32 or int64 as
    ``model.index_dtype`` picks.  Only index writes touch the buffers, so the
    same source runs under ``njit`` on arrays, compiled for the dtypes it is
    given, and interpreted on memoryviews.
    """
    n_cand = len(candidates)
    top = 0
    A = 0
    ring_ptr = 0
    ui = 0
    n1 = 0
    nskip = 0

    for it in range(len(d_seq)):
        if A == 0:
            # Step 1: wake the owner of a uniform sleeping l-half-edge;
            # stale pool entries are swap-deleted as draws land on them
            while True:
                j = int(uniforms[ui] * n_cand)
                ui += 1
                x = candidates[j]
                if status[x] == 0:
                    break
                n_cand -= 1
                candidates[j] = candidates[n_cand]
            v = l_owner[x]
            for e in range(l_off[v], l_off[v + 1]):
                status[e] = 1
                stack[top] = e
                top += 1
            A += l_deg[v]
            step1_iters[n1] = it
            step1_vertices[n1] = v
            n1 += 1

        # Step 2: match an active l-half-edge to a uniform sleeping r-half-edge
        top -= 1
        x = stack[top]
        while status[x] != 1:
            top -= 1
            x = stack[top]
        status[x] = 2
        A -= 1
        base = bases[it]
        label = first_labels[it]
        match[x] = base + label

        # Step 3: resolve the group's remaining tokens at successive alarms
        for label2 in range(d_seq[it]):
            if label2 == label:
                continue
            ring_start = ring_ptr
            while True:
                e = sigma[ring_ptr]
                ring_ptr += 1
                se = status[e]
                if se != 2:
                    break
                # phantom ring: token already matched, clock only
            if ring_ptr - ring_start > 1:
                skip_rings[nskip] = ring_start
                skip_extras[nskip] = ring_ptr - ring_start - 1
                nskip += 1
            if se == 0:
                # the alarm woke a sleeping vertex: it joins the component
                ve = l_owner[e]
                for e2 in range(l_off[ve], l_off[ve + 1]):
                    if e2 != e:
                        status[e2] = 1
                        stack[top] = e2
                        top += 1
                A += l_deg[ve] - 1
            else:
                A -= 1
            status[e] = 2
            match[e] = base + label2

    return n1, nskip, ring_ptr


# -- trajectory diagnostics -----------------------------------------------------


def horizon(inputs: TheoryInputs) -> float:
    """Largest time at which the living-half-edge limit is defined."""
    q0 = q_tilde_zero(inputs)
    return math.inf if q0 == 0.0 else -math.log(q0)


def trajectory_sup_error(
    traj: Trajectory, inputs: TheoryInputs, t0: float
) -> tuple[float, float, float]:
    """Sup deviation (over event times <= t0) of L/N, S_hat/N and A_hat/N
    from their limit curves.

    The first event is at time 0, so every t0 in [0, horizon) covers at
    least one event.
    """
    if not t0 >= 0.0:
        raise OutOfDomain(f"t0={t0} must be a number >= 0")
    if t0 >= horizon(inputs):
        raise DomainHorizon(f"t0={t0} is beyond the curve domain {horizon(inputs)}")
    mask = traj.times <= t0
    curves = curve_table(inputs, np.exp(-traj.times[mask]))
    n = traj.n_l
    living_err = np.abs(traj.living[mask] / n - curves["living"]).max()
    shat_err = np.abs(traj.sleeping_hat[mask] / n - curves["sleeping"]).max()
    ahat = (traj.living[mask] - traj.sleeping_hat[mask]) / n
    ahat_err = np.abs(ahat - curves["active"]).max()
    return float(living_err), float(shat_err), float(ahat_err)


def hitting_times(traj: Trajectory, c_grid) -> np.ndarray:
    """First event time at which the living count drops to c * h, per c."""
    c = np.asarray(list(c_grid), dtype=float)
    if c.size == 0:
        raise EmptyGrid("need at least one c value")
    if not (c.min() > 0.0 and c.max() <= 1.0):
        raise OutOfDomain("c values must lie in (0, 1]")
    # living is non-increasing over events
    idx = np.searchsorted(-traj.living, -c * traj.h, side="left")
    idx = np.minimum(idx, len(traj.times) - 1)
    return traj.times[idx]


def giant_exploration_window(traj: Trajectory, t_star: float) -> tuple[float, float]:
    """Last component start before t*/2 and the first one after.

    In the supercritical regime these bracket the giant's exploration and
    converge to (0, t*).
    """
    s1 = traj.s1_times
    before = s1[s1 <= t_star / 2]
    after = s1[s1 > t_star / 2]
    t1 = float(before[-1]) if len(before) else math.nan
    t2 = float(after[0]) if len(after) else math.inf
    return t1, t2


# -- reference death processes -----------------------------------------------


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


def standard_death_process(start: int, rng: np.random.Generator) -> DeathProcessPath:
    """Sample the unit-rate death process started at ``start``."""
    if start < 1:
        raise OutOfDomain("start must be >= 1")
    waits = rng.exponential(size=start) / np.arange(start, 0, -1)
    hit = np.empty(start + 1)
    hit[start] = 0.0
    hit[start - 1 :: -1] = np.cumsum(waits)
    return DeathProcessPath(start=start, hit_times=hit)


def coupled_standard_hitting(traj: Trajectory, rng: np.random.Generator) -> DeathProcessPath:
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
    levels = np.arange(traj.h, 0, -1, dtype=float)
    fresh = rng.exponential(size=traj.h) / levels
    waits = np.where(is_alarm, level_waits, fresh)
    hit = np.empty(traj.h + 1)
    hit[traj.h] = 0.0
    hit[traj.h - 1 :: -1] = np.cumsum(waits)
    return DeathProcessPath(start=traj.h, hit_times=hit)


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


def zr_process(r_degrees, rng: np.random.Generator) -> SizeBiasedWakePath:
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

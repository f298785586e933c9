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

import numpy as np

from .errors import DomainHorizon, EmptyGrid, OutOfDomain
from .model import BcmGraph, ModelParams
from .theory import TheoryInputs, q_tilde_zero

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
    """Time-stamped exploration record; state columns hold post-event values."""

    n_l: int
    n_r: int
    h: int
    times: np.ndarray
    kinds: np.ndarray
    living: np.ndarray
    sleeping: np.ndarray
    sleeping_hat: np.ndarray
    active: np.ndarray
    waiting: np.ndarray
    s1_times: np.ndarray
    s2_times: np.ndarray
    component_records: tuple[ComponentRecord, ...]
    matching: np.ndarray

    def bcm(self, params: ModelParams) -> BcmGraph:
        return BcmGraph(
            l_degrees=params.l_degrees,
            r_degrees=params.r_degrees(),
            matching=self.matching,
        )


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

    The loop has one source, ``_explore_loop``.  It runs compiled on arrays
    when numba is importable and interpreted on lists (``.tolist()`` copies
    of the inputs) otherwise; both consume the same presampled randomness and
    give the same output bit for bit.
    """
    if method not in ("race", "clocks"):
        raise OutOfDomain(f"unknown method {method!r}")

    h = params.half_edges
    n_l, n_r = params.n_l, params.n_r
    r_deg_arr = params.r_degrees()

    l_owner_arr = np.repeat(np.arange(n_l), params.l_degrees)
    l_off_arr = np.zeros(n_l + 1, dtype=np.int64)
    np.cumsum(params.l_degrees, out=l_off_arr[1:])
    r_off_arr = np.zeros(n_r + 1, dtype=np.int64)
    np.cumsum(r_deg_arr, out=r_off_arr[1:])

    # ring schedule: uniform order over all l-half-edges plus cumulative times
    if method == "race":
        sigma_arr = rng.permutation(h)
        ring_time = np.cumsum(rng.exponential(size=h) / np.arange(h, 0, -1))
    else:
        alarms = rng.exponential(size=h)
        sigma_arr = np.argsort(alarms, kind="stable")
        ring_time = alarms[sigma_arr]

    # group discovery order: size-biased without replacement
    keys = rng.exponential(size=n_r) / r_deg_arr
    r_order_arr = np.argsort(keys, kind="stable")
    d_seq = r_deg_arr[r_order_arr]
    first_labels = np.floor(rng.random(n_r) * d_seq).astype(np.int64)
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
        np.arange(h),  # candidates
    )
    # status, match, stack, the Step-1 log and the skip log: each starts zeroed
    sizes = (h, h, h, n_l, n_l, h, h)
    if _HAVE_NUMBA:
        args = (*inputs, *(np.zeros(n, dtype=np.int64) for n in sizes))
    else:
        args = (*(a.tolist() for a in inputs), *([0] * n for n in sizes))
    n1, nskip, ring_ptr = _explore_loop(*args)
    match, step1_iters, step1_vertices, skip_rings, skip_extras = (
        np.asarray(log, dtype=np.int64)
        for log in (args[10], args[12][:n1], args[13][:n1], args[14][:nskip], args[15][:nskip])
    )
    # the list copies weigh more than the trajectory: free them before assembly
    del args

    return _assemble_trajectory(
        n_l,
        n_r,
        h,
        step1_iters,
        step1_vertices,
        skip_rings,
        skip_extras,
        int(ring_ptr),
        ring_time,
        sigma_arr,
        l_owner_arr,
        params.l_degrees,
        r_deg_arr,
        r_order_arr,
        match,
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
    writes every entry of ``match``.  Only index writes touch them, so the
    same source runs under ``njit`` on arrays and interpreted on lists.
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


def _assemble_trajectory(
    n_l: int,
    n_r: int,
    h: int,
    step1_iters: np.ndarray,
    step1_vertices: np.ndarray,
    skip_rings: np.ndarray,
    skip_extras: np.ndarray,
    rung_total: int,
    ring_time: np.ndarray,
    sigma: np.ndarray,
    l_owner: np.ndarray,
    l_degrees: np.ndarray,
    r_degrees: np.ndarray,
    r_order: np.ndarray,
    matching: np.ndarray,
) -> Trajectory:
    """Rebuild the full state columns from the loop's exception logs.

    Iteration j of the exploration emits [Step1?] Step2 Step3^(d_j - 1), with
    d_j the degree of the j-th discovered group, so the event skeleton follows
    from the discovery order; the Step-1 log and the phantom-skip log supply
    everything the skeleton does not determine.
    """
    n_iter = len(r_order)
    d_seq = r_degrees[r_order]
    has1 = np.zeros(n_iter, dtype=np.int64)
    has1[step1_iters] = 1
    ev_per_iter = d_seq + has1
    iter_start = np.zeros(n_iter + 1, dtype=np.int64)
    np.cumsum(ev_per_iter, out=iter_start[1:])
    n_events = int(iter_start[-1])

    kinds = np.full(n_events, STEP3, dtype=np.int8)
    step2_pos = iter_start[:-1] + has1
    kinds[step2_pos] = STEP2
    step1_pos = iter_start[step1_iters]
    kinds[step1_pos] = STEP1
    is2 = kinds == STEP2
    is3 = kinds == STEP3

    # rings consumed per event: every alarm resolution consumes one plus skips;
    # a skip beginning at ring index s belongs to the alarm resolution whose
    # ordinal is s minus the extras spent by earlier skips
    rings = np.zeros(n_events, dtype=np.int64)
    step3_pos = np.flatnonzero(is3)
    rings_per_step3 = np.ones(len(step3_pos), dtype=np.int64)
    if len(skip_rings):
        prior_extras = np.concatenate(([0], np.cumsum(skip_extras)[:-1]))
        rings_per_step3[skip_rings - prior_extras] += skip_extras
    rings[step3_pos] = rings_per_step3
    ring_cum = np.cumsum(rings)
    times = np.where(ring_cum > 0, ring_time[np.maximum(ring_cum - 1, 0)], 0.0)

    living = h - np.cumsum(is2 | is3)

    # first ring per vertex (no sort: reversed writes keep the first occurrence)
    owners = l_owner[sigma[:rung_total]]
    first_idx = np.full(n_l, -1, dtype=np.int64)
    if rung_total:
        first_idx[owners[::-1]] = np.arange(rung_total - 1, -1, -1)

    # wakes: Step-1 vertices wake at their Step-1 event; every other vertex
    # wakes at its first ring, which is always the resolving alarm of a Step 3
    wake = np.zeros(n_events, dtype=np.int64)
    wake[step1_pos] = l_degrees[step1_vertices]
    woke_by_step1 = np.zeros(n_l, dtype=bool)
    woke_by_step1[step1_vertices] = True
    ring_wakers = np.flatnonzero((first_idx >= 0) & ~woke_by_step1)
    wake_events = np.searchsorted(ring_cum, first_idx[ring_wakers] + 1, side="left")
    wake[wake_events] = l_degrees[ring_wakers]
    sleeping = h - np.cumsum(wake)
    active = living - sleeping

    # no-ring-yet census counts whole families, Step-1 status notwithstanding
    if rung_total == 0:
        sleeping_hat = np.full(n_events, h, dtype=np.int64)
    else:
        first_ring = np.zeros(rung_total, dtype=bool)
        first_ring[first_idx[first_idx >= 0]] = True
        drop = np.where(first_ring, l_degrees[owners], 0)
        shat_after_ring = h - np.cumsum(drop)
        sleeping_hat = np.where(
            ring_cum > 0, shat_after_ring[np.maximum(ring_cum - 1, 0)], h
        ).astype(np.int64)

    # waiting tokens: reset at each discovery, one fewer per alarm resolution
    event_idx = np.arange(n_events)
    last2 = np.maximum.accumulate(np.where(is2, event_idx, -1))
    base = np.zeros(n_events, dtype=np.int64)
    base[is2] = d_seq - 1
    waiting = np.where(
        kinds == STEP1, 0, np.where(last2 >= 0, base[np.maximum(last2, 0)] - (event_idx - last2), 0)
    )

    starts = step1_pos
    ends = np.append(starts[1:] - 1, n_events - 1)
    cum_wakes = np.cumsum(wake > 0)
    cum_r = np.cumsum(is2)
    cum_edges = np.cumsum(is2 | is3)

    def span(cum: np.ndarray, a: int, b: int) -> int:
        return int(cum[b] - (cum[a - 1] if a > 0 else 0))

    records = tuple(
        ComponentRecord(
            start_event=int(a),
            end_event=int(b),
            l_vertices=span(cum_wakes, a, b),
            r_vertices=span(cum_r, a, b),
            edges=span(cum_edges, a, b),
        )
        for a, b in zip(starts, ends)
    )

    return Trajectory(
        n_l=n_l,
        n_r=n_r,
        h=h,
        times=times,
        kinds=kinds,
        living=living.astype(np.int64),
        sleeping=sleeping.astype(np.int64),
        sleeping_hat=sleeping_hat,
        active=active.astype(np.int64),
        waiting=waiting.astype(np.int64),
        s1_times=times[kinds == STEP1],
        s2_times=times[is2],
        component_records=records,
        matching=matching,
    )


# -- trajectory diagnostics -----------------------------------------------------


def horizon(inputs: TheoryInputs) -> float:
    """Largest time at which the living-half-edge limit is defined."""
    q0 = q_tilde_zero(inputs)
    return math.inf if q0 == 0.0 else -math.log(q0)


def trajectory_sup_error(
    traj: Trajectory, inputs: TheoryInputs, t0: float
) -> tuple[float, float, float]:
    """Sup deviation (over event times <= t0) of L/N, S_hat/N and A_hat/N
    from their limit curves."""
    if t0 >= horizon(inputs):
        raise DomainHorizon(f"t0={t0} is beyond the curve domain {horizon(inputs)}")
    mask = traj.times <= t0
    if not mask.any():
        return (0.0, 0.0, 0.0)
    t = traj.times[mask]
    z = np.exp(-t)
    n = traj.n_l
    mean_p = inputs.p.mean()
    living_lim = mean_p * z * inputs.q_tilde.gf_inverse_many(z)
    sleeping_lim = mean_p * z * inputs.p_tilde.gf_eval_many(z)
    active_lim = living_lim - sleeping_lim

    living_err = np.abs(traj.living[mask] / n - living_lim).max()
    shat_err = np.abs(traj.sleeping_hat[mask] / n - sleeping_lim).max()
    ahat = (traj.living[mask] - traj.sleeping_hat[mask]) / n
    ahat_err = np.abs(ahat - active_lim).max()
    return float(living_err), float(shat_err), float(ahat_err)


def hitting_times(traj: Trajectory, c_grid) -> np.ndarray:
    """First event time at which the living count drops to c * h, per c."""
    c = np.asarray(list(c_grid), dtype=float)
    if c.size == 0:
        raise EmptyGrid("need at least one c value")
    if c.min() <= 0.0 or c.max() > 1.0:
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

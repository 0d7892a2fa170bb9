"""Discrete-time fluid-model simulation backend (``backend="fluid"``).

The packet engine (:mod:`repro.sim.engine` + :mod:`repro.protocols`) is
the reproduction's source of truth: it simulates every packet, ACK and
queue event exactly.  This module trades that exactness for throughput:
it advances per-flow congestion windows and per-queue occupancy in fixed
time steps of ``dt`` seconds, numpy-vectorized across senders *and*
lanes — one array program evaluates a whole batch of runs that share a
network shape (each lane with its own schemes, rule tables and seed),
at sender counts (hundreds to thousands) the event-driven engine cannot
touch.

What is modeled
---------------
* the *exact* on/off application schedule of the packet engine: the
  same per-flow ``random.Random(seed * 1_000_003 + i * 7_919 + 17)``
  streams and draw order as :class:`~repro.sim.workload.OnOffWorkload`,
  so both backends see identical workloads and on-time denominators;
* ack-clocked sending: each "on" flow injects
  ``min(cwnd / rtt_est, 1 / tau)`` packets per second, where
  ``rtt_est`` is the unloaded RTT plus the current queueing delay along
  the flow's path;
* FIFO bottleneck queues with per-flow occupancy, proportional-share
  service and drop-tail overflow; CoDel as an above-target timer that
  emits loss signals; sfqCoDel as per-flow buckets served by
  water-filling with per-bucket CoDel timers;
* propagation as per-flow lag lines: departures reach the receiver (and
  the sender's ACK clock) the correct number of steps later, so slow
  start ramps on the real RTT and in-flight data drains after "off";
* fluid ports of every controller family: NewReno/AIMD slow start and
  congestion avoidance with a one-RTT loss refractory standing in for
  fast recovery, Cubic's cubic-in-time target with a round-based
  HyStart analogue, Vegas's per-RTT ``diff`` rule, DCTCP's
  marked-fraction EWMA with per-RTT proportional cuts (driven by a
  threshold-marking indicator on droptail queues — ECN on CoDel
  variants stays packet-only, as does PCC entirely), and the RemyCC
  whisker controller — EWMA memory signals computed from rates and
  ``dt``, window updates compounded per-ACK in closed form, lookups
  batched through the flat :class:`~repro.remy.compiled.CompiledTree`
  arrays.

What is **not** modeled: retransmission timeouts and RTO backoff,
sub-RTT burstiness (dynamics are smoothed over ``dt``), and per-whisker
usage recording (``SimTask.build`` refuses usage-recording fluid
tasks).  The packet engine stays authoritative; ``docs/PERFORMANCE.md``
documents the committed fluid-vs-packet tolerance bands and when the
two backends are not comparable.

Determinism
-----------
Every update is elementwise over ``(lanes, flows)`` arrays or a
reduction along the flow axis of one lane's row, so a lane evaluated
alone is bitwise-identical to the same lane inside a batch — the
executors' determinism contract extends to lane-batched fluid runs.
Float reductions go through :func:`_flow_sum`, which sums each lane's
row contiguously: numpy adds a strided axis sequentially but a
contiguous one pairwise, so summing a non-contiguous ``(lanes, flows)``
view would round differently with one lane row than with several.

Layout
------
Per-step overhead (~150 numpy calls) is paid once per call, however
many lanes it carries.  History rings are stored position-first and
per-hop state hop-first, and each link's member indexers and each lag
position are built once at setup: where every flow shares the hop and
the lag (every dumbbell), reads and writes are basic slices of
contiguous ``(lanes, flows)`` blocks rather than fancy-index gathers;
the parking lot keeps index arrays.
"""

from __future__ import annotations

import math
import random
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..core.results import FlowStats, RunResult
from ..core.scenario import NetworkConfig

__all__ = ["simulate_fluid", "fluid_dt", "fluid_refusal", "FluidLane",
           "FLUID_SCHEMES"]

_PKT = 1500.0              # on-the-wire data packet bytes
_PKT_BITS = _PKT * 8.0

# RemyCC memory constants (mirrors repro.remy.memory; imported lazily
# in _check_constants to avoid import cycles at module load).
_FAST_GAIN = 1.0 / 8.0
_SLOW_GAIN = 1.0 / 256.0
_SIG_HI = (16.0, 16.0, 16.0, 64.0)
_SIG_LO = (0.0, 0.0, 0.0, 1.0)
_CAP = tuple(hi * (1.0 - 1e-9) for hi in _SIG_HI)
_REMY_MAX_WINDOW = 20_000.0
_MAX_WINDOW = 1_000_000.0

# Cubic constants (RFC 8312, mirrors repro.protocols.cubic).
_CUBIC_C = 0.4
_CUBIC_BETA = 0.7

# CoDel constants (RFC 8289, mirrors repro.sim.codel).
_CODEL_TARGET = 0.005
_CODEL_INTERVAL = 0.100

#: Scheme families the fluid backend can port.  Rule-table kinds (any
#: kind with an attached tree) are always supported.
FLUID_SCHEMES = ("newreno", "aimd", "cubic", "vegas", "dctcp")

# Scheme family codes.
_F_REMY, _F_RENO, _F_CUBIC, _F_VEGAS, _F_DCTCP = 0, 1, 2, 3, 4

# DCTCP constants (Alizadeh et al., mirrors repro.protocols.dctcp).
_DCTCP_GAIN = 1.0 / 16.0


def fluid_dt(config: NetworkConfig) -> float:
    """The fluid time step for ``config``: ~30 steps per unloaded RTT,
    clamped to [0.1 ms, 4 ms].  Depends only on the config, so the same
    task always integrates on the same grid."""
    min_rtt = min(_base_delays(config)[1])
    return min(max(min_rtt / 30.0, 1e-4), 4e-3)


# ----------------------------------------------------------------------
# Topology description
# ----------------------------------------------------------------------

def _base_delays(config: NetworkConfig):
    """Per-flow unloaded delays and per-link path structure.

    Returns ``(base_oneway, base_rtt, flow_links, caps, props,
    rev_prop)`` where ``flow_links[f]`` lists bottleneck link indices on
    flow ``f``'s data path in hop order.  Mirrors the packet topology:
    access links are infinitely fast, all propagation sits on the
    bottleneck hops, and the ACK path never queues (40-byte ACKs on
    infinite-rate links serialize in zero time).
    """
    n = config.num_senders
    if config.topology == "dumbbell":
        caps = [config.link_speed_bps(0)]
        one_way = config.rtt_ms / 2e3
        props = [one_way]
        flow_links = [[0] for _ in range(n)]
        rev_prop = [one_way] * n
    else:  # parking_lot: flow 0 crosses both links, flows 1/2 one each
        caps = [config.link_speed_bps(0), config.link_speed_bps(1)]
        d = config.rtt_ms / 2e3
        props = [d, d]
        flow_links = [[0, 1], [0], [1]]
        rev_prop = [2.0 * d, d, d]
    tx = [_PKT_BITS / c for c in caps]
    path_delay = {}                     # one sum per distinct path
    for links in flow_links:
        if tuple(links) not in path_delay:
            path_delay[tuple(links)] = sum(props[l] + tx[l] for l in links)
    base_oneway = [path_delay[tuple(links)] for links in flow_links]
    base_rtt = [base_oneway[f] + rev_prop[f] for f in range(n)]
    return base_oneway, base_rtt, flow_links, caps, props, rev_prop


# ----------------------------------------------------------------------
# Workload schedules (exact replication of OnOffWorkload's RNG draws)
# ----------------------------------------------------------------------

def _flow_schedule(seed: int, flow: int, mean_on: float, mean_off: float,
                   duration: float) -> Tuple[List[float], float]:
    """Toggle times (alternating on, off, on, ...) and total on-time.

    Replays :class:`~repro.sim.workload.OnOffWorkload` exactly: the same
    dedicated ``random.Random`` stream and the same draw order, with
    draws stopping once the next transition falls beyond ``duration`` —
    events past the horizon never fire in the packet engine, so their
    draws never happen there either.
    """
    if mean_on == 0 and mean_off == 0:
        # The always-on degenerate: permanently on, no draws at all
        # (matching AlwaysOnWorkload, which never touches an RNG).
        return [0.0], duration
    rng = random.Random(seed * 1_000_003 + flow * 7_919 + 17)
    p_on = mean_on / (mean_on + mean_off)
    if rng.random() < p_on:
        t = 0.0
    else:
        t = 0.0 if mean_off == 0 else rng.expovariate(1.0 / mean_off)
    toggles: List[float] = []
    while t <= duration:
        toggles.append(t)                       # ON at t
        t += rng.expovariate(1.0 / mean_on)
        if t > duration:
            break
        toggles.append(t)                       # OFF at t
        if mean_off > 0:
            t += rng.expovariate(1.0 / mean_off)
    on_time = 0.0
    for j in range(0, len(toggles), 2):
        start = toggles[j]
        stop = toggles[j + 1] if j + 1 < len(toggles) else duration
        on_time += min(stop, duration) - start
    return toggles, on_time


# ----------------------------------------------------------------------
# Lanes and the compiled-tree forest
# ----------------------------------------------------------------------

class FluidLane(NamedTuple):
    """One independent run inside a :func:`simulate_fluid` call.

    Every lane of a call shares the call's network *shape* — the config
    minus its sender population, plus the duration — so the time step,
    lag lines and capacity arrays are common.  Each lane brings its own
    sender kinds (as many as the config has senders), per-flow deltas,
    ``{kind: WhiskerTree}`` rule tables, and workload seed.
    """

    sender_kinds: Tuple[str, ...]
    deltas: Tuple[float, ...]
    trees: Mapping[str, object]
    seed: int


class _Forest:
    """Compiled trees concatenated into one set of numpy arrays.

    Component ``k`` keeps its own root (``roots[k]``); child references
    are shifted by the preceding components' node and leaf counts, so
    one lookup serves signal vectors from every lane at once, each
    descending from its own tree's root.
    """

    def __init__(self, compiled_trees: Sequence[object]):
        dims: List[int] = []
        thresholds: List[float] = []
        left: List[int] = []
        right: List[int] = []
        m: List[float] = []
        b: List[float] = []
        tau: List[float] = []
        roots: List[int] = []
        for compiled in compiled_trees:
            nodes, leaves = len(dims), len(m)

            def shift(ref: int) -> int:
                return ref + nodes if ref >= 0 else ~(~ref + leaves)

            roots.append(shift(compiled.root_ref))
            dims.extend(compiled.dims)
            thresholds.extend(compiled.thresholds)
            left.extend(shift(ref) for ref in compiled.left)
            right.extend(shift(ref) for ref in compiled.right)
            m.extend(compiled.action_m)
            b.extend(compiled.action_b)
            tau.extend(compiled.action_tau)
        # Leaf boxes: the descent goes left while sig[dim] < threshold,
        # so each leaf owns lower <= sig < upper in every dimension.
        self.lower = np.full((len(m), 4), -np.inf)
        self.upper = np.full((len(m), 4), np.inf)
        stack = [(root, (-np.inf,) * 4, (np.inf,) * 4) for root in roots]
        while stack:
            ref, lo, hi = stack.pop()
            if ref < 0:
                self.lower[~ref], self.upper[~ref] = lo, hi
                continue
            d, cut = dims[ref], thresholds[ref]
            stack.append((left[ref], lo,
                          hi[:d] + (min(hi[d], cut),) + hi[d + 1:]))
            stack.append((right[ref],
                          lo[:d] + (max(lo[d], cut),) + lo[d + 1:], hi))
        self.roots = np.asarray(roots, dtype=np.int64)
        self.dims = np.asarray(dims, dtype=np.int64)
        self.thresholds = np.asarray(thresholds, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.m = np.asarray(m, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.tau = np.asarray(tau, dtype=np.float64)

    def lookup(self, roots: np.ndarray, signals: np.ndarray,
               hints: np.ndarray) -> np.ndarray:
        """Leaf indices for ``(M, 4)`` clipped signals.

        ``hints`` holds each vector's previous leaf (``-1``: none).  A
        leaf's box is exactly the set of signals the descent sends to
        it, so a vector still inside its hint's box keeps that leaf;
        only the rest descend from their ``roots``.
        """
        leaf = hints.copy()
        inside = ((leaf >= 0)
                  & (self.lower[leaf] <= signals).all(axis=1)
                  & (signals < self.upper[leaf]).all(axis=1))
        miss = np.flatnonzero(~inside)
        if miss.size:
            leaf[miss] = self._descend(roots[miss], signals[miss])
        return leaf

    def _descend(self, roots: np.ndarray, signals: np.ndarray
                 ) -> np.ndarray:
        node = roots.copy()
        live = np.flatnonzero(node >= 0)
        while live.size:
            idx = node[live]
            child = np.where(signals[live, self.dims[idx]]
                             < self.thresholds[idx],
                             self.left[idx], self.right[idx])
            node[live] = child
            live = live[child >= 0]
        return ~node


# ----------------------------------------------------------------------
# The fluid integrator
# ----------------------------------------------------------------------

def fluid_refusal(config: NetworkConfig,
                  tree_kinds: Sequence[str] = ()) -> Optional[str]:
    """Why the fluid backend cannot run this scenario, or ``None``.

    This is the single source of truth for fluid support, callable
    *before* any simulation work: ``SimTask.build`` and the CLIs use it
    to fail fast (with the offending kind or dynamics feature named)
    instead of erroring mid-batch after packet tasks already ran.
    ``tree_kinds`` lists the sender kinds that will have rule tables
    attached (those are always portable).
    """
    tree_kinds = set(tree_kinds)
    for kind in config.sender_kinds:
        if kind not in tree_kinds and kind not in FLUID_SCHEMES:
            return (f"scheme {kind!r} is packet-only (no fluid port); "
                    f"fluid-portable: rule-table kinds plus "
                    f"{FLUID_SCHEMES} — see docs/PERFORMANCE.md for "
                    f"the fluid coverage list")
    if config.ecn_threshold is not None and config.queue != "droptail":
        return (f"ECN marking on queue {config.queue!r} is packet-only "
                f"(the fluid model ports threshold marking on droptail "
                f"only — see docs/PERFORMANCE.md)")
    if config.dynamics is not None:
        reason = config.dynamics.packet_only_reason()
        if reason is not None:
            return (f"dynamics feature {reason} is packet-only "
                    f"(no fluid analogue); rate traces and outages "
                    f"are supported")
    return None


_FAMILY = {"newreno": _F_RENO, "aimd": _F_RENO, "cubic": _F_CUBIC,
           "vegas": _F_VEGAS, "dctcp": _F_DCTCP}


def _lane_families(lanes: Sequence[FluidLane], n: int):
    """Per-(lane, flow) scheme families, plus the forest of every rule
    table in use and each flow's root in it (``None`` without tables)."""
    family = np.empty((len(lanes), n), dtype=np.int64)
    component = np.zeros((len(lanes), n), dtype=np.int64)
    compiled_trees: List[object] = []
    seen: Dict[int, int] = {}
    for li, lane in enumerate(lanes):
        for i, kind in enumerate(lane.sender_kinds):
            if kind in lane.trees:
                compiled = lane.trees[kind].compiled()
                if id(compiled) not in seen:
                    seen[id(compiled)] = len(compiled_trees)
                    compiled_trees.append(compiled)
                family[li, i] = _F_REMY
                component[li, i] = seen[id(compiled)]
            elif kind in _FAMILY:
                family[li, i] = _FAMILY[kind]
            else:
                raise ValueError(
                    f"fluid backend cannot run scheme {kind!r} "
                    f"(packet-only); supported: rule-table kinds plus "
                    f"{FLUID_SCHEMES}")
    if not compiled_trees:
        return family, None, None
    forest = _Forest(compiled_trees)
    return family, forest, forest.roots[component]


def _lag_reader(lags: np.ndarray, hops: np.ndarray, ring_len: int,
                lane_col: np.ndarray, flow_row: np.ndarray):
    """``at(step)`` -> index tuples reading every flow's history at its
    own lag: one for the ``(K, lanes, flows)`` rings and one for the
    ``(K, hops, lanes, flows)`` departure ring (at each flow's ``hops``
    entry).  With one lag and one hop for every flow (the dumbbell) the
    indices are a scalar ring position — basic slices, no gather."""
    if (lags == lags[0]).all() and (hops == hops[0]).all():
        lag, hop = int(lags[0]), int(hops[0])

        def at(step: int):
            pos = (step - lag) % ring_len
            return pos, (pos, hop)
    else:
        hop_row = hops[None, :]

        def at(step: int):
            pos = ((step - lags) % ring_len)[None, :]
            return ((pos, lane_col, flow_row),
                    (pos, hop_row, lane_col, flow_row))
    return at


def simulate_fluid(config: NetworkConfig,
                   trees: Optional[Dict[str, object]] = None,
                   seeds: Sequence[int] = (0,),
                   duration_s: float = 10.0,
                   lanes: Optional[Sequence[FluidLane]] = None
                   ) -> List[RunResult]:
    """Run ``config`` on the fluid backend, one result per lane.

    Without ``lanes`` every seed in ``seeds`` is a lane running
    ``config``'s own senders with ``trees``.  With ``lanes`` (which then
    replaces ``trees`` and ``seeds``), ``config`` supplies the shared
    shape and its sender count; each lane supplies its senders, rule
    tables and seed.  One array program advances the whole
    ``(lane, flow)`` grid; the returned
    :class:`~repro.core.results.RunResult` list is aligned with the
    lanes and bitwise-independent of how lanes are batched.
    """
    if lanes is None:
        lanes = [FluidLane(config.sender_kinds, config.deltas,
                           trees or {}, seed) for seed in seeds]
    elif trees is not None:
        raise ValueError("pass rule tables per lane, not as trees=")
    lanes = list(lanes)
    S = len(lanes)
    N = config.num_senders
    for lane in lanes:
        if len(lane.sender_kinds) != N:
            raise ValueError(
                f"lane has {len(lane.sender_kinds)} senders; the "
                f"shared config has {N}")
        refusal = fluid_refusal(
            config.with_senders(tuple(lane.sender_kinds),
                                tuple(lane.deltas)),
            tree_kinds=tuple(lane.trees))
        if refusal is not None:
            raise ValueError(f"fluid backend cannot run this scenario: "
                             f"{refusal}")
    base_oneway, base_rtt_l, flow_links, caps_l, props, rev_prop = \
        _base_delays(config)
    family, forest, tree_root = _lane_families(lanes, N)

    dt = fluid_dt(config)
    n_steps = max(int(round(duration_s / dt)), 1)
    dt = duration_s / n_steps

    L = len(caps_l)
    caps = np.asarray(caps_l, dtype=np.float64)              # bps
    caps_Bps = caps / 8.0
    buffers = np.asarray(
        [config.buffer_packets(l) * _PKT if math.isfinite(
            config.buffer_packets(l)) else math.inf for l in range(L)])
    H = max(len(links) for links in flow_links)
    hop_link = np.full((N, H), -1, dtype=np.int64)
    for f, links in enumerate(flow_links):
        hop_link[f, :len(links)] = links
    last_hop = np.asarray([len(links) - 1 for links in flow_links],
                          dtype=np.int64)
    base_rtt = np.asarray(base_rtt_l, dtype=np.float64)
    base_ow = np.asarray(base_oneway, dtype=np.float64)
    is_sfq = config.queue == "sfq_codel"
    is_codel = config.queue == "codel"

    # Lag lines (in steps).  Delivery and ACK lags are floored at one
    # step: the step loop reads them *before* writing the current step,
    # so a lag of at least 1 always reads a completed past step.
    # (np.round, like round(), breaks ties to even.)
    props_arr = np.asarray(props, dtype=np.float64)
    lag_hop = np.where(hop_link >= 0, np.round(props_arr[hop_link] / dt),
                       0.0).astype(np.int64)
    last_prop = props_arr[hop_link[np.arange(N), last_hop]]
    lag_del = np.maximum(np.round(last_prop / dt), 1.0).astype(np.int64)
    lag_ack = np.maximum(
        np.round((last_prop + np.asarray(rev_prop)) / dt),
        1.0).astype(np.int64)
    K = int(max(lag_hop.max(), lag_del.max(), lag_ack.max())) + 1

    # History rings are stored position-first — ``(K, lanes, flows)``
    # and ``(K, hops, lanes, flows)`` — and per-hop state hop-first, so
    # a uniform lag or hop selects one contiguous ``(lanes, flows)``
    # block.
    s_idx = np.arange(S)
    s_col = s_idx[:, None]
    f_row = np.arange(N)[None, :]
    read_del = _lag_reader(lag_del, last_hop, K, s_col, f_row)
    read_ack = _lag_reader(lag_ack, last_hop, K, s_col, f_row)

    # Per-link member indexers, built once: ``cols`` selects the members
    # from a ``(lanes, flows)`` array and ``hops`` from a ``(hops, lanes,
    # flows)`` one.  A link whose members are every flow at its first
    # hop (every dumbbell) gets basic slices and takes the senders'
    # ``inflow0`` directly; other links (the parking lot's) keep index
    # arrays, and ``upstream`` says where their members' inflow comes
    # from (hop-0 members: ``inflow0``; the rest: the previous hop's
    # departures, one propagation lag back).
    links = []
    for l in range(L):
        fidx, hidx = np.nonzero(hop_link == l)     # flow-major order
        if len(fidx) == N and not hidx.any():
            links.append((N, slice(None), (0, slice(None), slice(None)),
                          None))
            continue
        h_prev = np.maximum(hidx - 1, 0)
        upstream = (hidx == 0, fidx, h_prev[None, :],
                    lag_hop[fidx, h_prev], fidx[None, :])
        links.append((len(fidx), (slice(None), fidx),
                      (hidx[None, :], s_col, fidx[None, :]), upstream))

    # Workload schedules (exact RNG replay, per (lane, flow)).
    max_tog = 1
    toggles_py: List[List[List[float]]] = []
    on_time = np.zeros((S, N))
    for si, lane in enumerate(lanes):
        row = []
        for f in range(N):
            tog, ot = _flow_schedule(lane.seed, f, config.mean_on_s,
                                     config.mean_off_s, duration_s)
            on_time[si, f] = ot
            row.append(tog)
            max_tog = max(max_tog, len(tog) + 1)
        toggles_py.append(row)
    toggles = np.full((S, N, max_tog), np.inf)
    for si in range(S):
        for f in range(N):
            tog = toggles_py[si][f]
            toggles[si, f, :len(tog)] = tog
    ptr = np.zeros((S, N), dtype=np.int64)
    toggle_row = np.arange(S * N).reshape(S, N) * max_tog
    toggles = toggles.reshape(-1)
    next_toggle = toggles[toggle_row]

    # Controller state.
    is_remy = family == _F_REMY
    is_reno = family == _F_RENO
    is_cubic = family == _F_CUBIC
    is_vegas = family == _F_VEGAS
    is_dctcp = family == _F_DCTCP
    # DCTCP grows and reacts to loss exactly like Reno; only its mark
    # reaction differs.  With no dctcp flows ``is_renoish`` equals
    # ``is_reno`` elementwise, so every pre-ECN trajectory stays
    # bitwise identical.
    is_renoish = is_reno | is_dctcp
    shp = (S, N)
    on = np.zeros(shp, dtype=bool)
    started = np.zeros(shp, dtype=bool)
    inflight = np.zeros(shp)                     # packets sent, un-ACKed
    w = np.where(is_remy, 1.0, 2.0) * np.ones(shp)
    ssthresh = np.full(shp, np.inf)
    pace_tau = np.zeros(shp)
    recover_until = np.full(shp, -np.inf)
    # RemyCC memory.
    rec_ewma = np.zeros(shp)
    slow_ewma = np.zeros(shp)
    send_ewma = np.zeros(shp)
    have_rec = np.zeros(shp, dtype=bool)
    min_rtt = np.full(shp, np.inf)
    rtt_ratio = np.ones(shp)
    last_leaf = np.full(shp, -1, dtype=np.int64)  # lookup hint
    # Cubic.
    cb_epoch = np.full(shp, np.nan)
    cb_wmax = np.zeros(shp)
    cb_k = np.zeros(shp)
    cb_wtcp = np.zeros(shp)
    cb_round_end = np.zeros(shp)
    cb_round_min = np.full(shp, np.inf)
    cb_prev_min = np.full(shp, np.inf)
    # Vegas.
    vg_base = np.full(shp, np.inf)
    vg_round_end = np.zeros(shp)
    vg_round_min = np.full(shp, np.inf)
    vg_in_ss = np.ones(shp, dtype=bool)
    vg_grow = np.ones(shp, dtype=bool)
    # DCTCP: EWMA of the marked-ACK fraction, cuts once per RTT round
    # (the Alizadeh fluid model's alpha, driven by the lagged marking
    # indicator below).
    dc_alpha = np.zeros(shp)
    dc_round_end = np.full(shp, -np.inf)
    dc_acked = np.zeros(shp)
    dc_marked = np.zeros(shp)

    # Queues and lag rings.
    q = np.zeros((H, S, N))                      # bytes per (hop, flow)
    dep_hist = np.zeros((K, H, S, N))            # departure rate, B/s
    sent_hist = np.zeros((K, S, N))              # send rate, pkts/s
    qd_hist = np.zeros((K, S, N))                # path queueing delay, s
    loss_hist = np.zeros((K, S, N), dtype=bool)  # loss signals
    drop_hist = np.zeros((K, S, N))              # dropped pkts per step
    # ECN: per-step CE-marking indicator, read on the ACK lag like
    # ``loss_hist`` (allocated only when ECN is on, so non-ECN runs
    # execute the exact pre-ECN program).
    ecn_thresh_bytes = (config.ecn_threshold * _PKT
                        if config.ecn_threshold is not None else None)
    mark_hist = (np.zeros((K, S, N), dtype=bool)
                 if ecn_thresh_bytes is not None else None)
    codel_above = np.zeros((S, L))               # FIFO-CoDel timers
    codel_above_q = np.zeros((H, S, N))          # sfq per-bucket timers

    # Accumulators.  FIFO links get *exact* fluid latency: per-link
    # cumulative accepted-arrival and departure curves, inverted each
    # step (bytes departing now waited since the matching arrival), so
    # delays are means over *delivered* bytes — matching the packet
    # engine, which never counts packets still queued at run end.  sfq
    # buckets use the arrival-time fair-share approximation instead.
    delivered_bytes = np.zeros(shp)
    wait_sum = np.zeros((H, S, N))               # pkt-weighted waits, s
    wt_pkts = np.zeros((H, S, N))                # their packet weights
    cum_arr = np.zeros((L, S, n_steps + 1))      # accepted bytes curve
    cum_dep = np.zeros((L, S, n_steps + 1))      # departed bytes curve
    # Flat offsets of each lane's row, for 1-D gathers at per-lane
    # curve positions.
    curve_row = s_idx * (n_steps + 1)
    tau_idx = np.zeros((S, L), dtype=np.int64)   # FIFO inversion ptr
    # FIFO links also serve with *exact* FIFO flow composition:
    # departures at t carry the per-flow mix of the arrivals they
    # matched, read off per-flow arrival curves (tail drop falls on
    # arriving fluid, so the curves are append-only).  This matters
    # when one flow's burst should starve another flow's deliveries,
    # as it does behind a deep backlog; proportional sharing would let
    # the starved flow keep draining.  sfq links keep fair-share
    # service, which is their actual discipline.  The curves are
    # ``(lanes, steps, members)``, so one lane's level at one step is a
    # contiguous row.
    cum_arr_f = {} if is_sfq else {
        l: np.zeros((S, n_steps + 1, links[l][0])) for l in range(L)}
    prev_v = {l: np.zeros((S, links[l][0])) for l in cum_arr_f}
    tau_hi = np.zeros((S, L), dtype=np.int64)    # composition ptr
    sent_pkts = np.zeros(shp)
    drop_bytes = np.zeros((S, L))
    link_out_bytes = np.zeros((S, L))

    inv_caps_Bps = 1.0 / caps_Bps

    # Link dynamics: piecewise-constant per-step capacity arrays.  A
    # static config takes ``caps_step is None`` and the loop below uses
    # the exact same scalars (and therefore the exact same floats) as
    # before dynamics existed — the golden fluid digests pin this.
    # During a zero-capacity (outage) step the queueing-delay estimate
    # uses the *nominal* capacity (the backlog drains at that rate once
    # service resumes); a true infinite-sojourn estimate would poison
    # every downstream EWMA for no modeling gain.
    caps_step = None
    inv_caps_step = None
    drop_down = [False] * L
    if config.dynamics is not None and not config.dynamics.is_empty:
        dyn = config.dynamics
        if any(dyn.schedule_for(l).varies_rate for l in range(L)):
            caps_step = np.tile(caps_Bps, (n_steps, 1))
            for l in range(L):
                schedule = dyn.schedule_for(l)
                drop_down[l] = schedule.outage_policy == "drop"
                changes = schedule.timeline(caps_l[l])
                for at, rate_bps in changes:
                    start = min(int(math.ceil(at / dt)), n_steps)
                    caps_step[start:, l] = rate_bps / 8.0
            inv_caps_step = np.where(caps_step > 0.0,
                                     np.divide(1.0, caps_step,
                                               where=caps_step > 0.0,
                                               out=np.zeros_like(caps_step)),
                                     inv_caps_Bps[None, :])

    for step in range(n_steps):
        t = step * dt
        if caps_step is None:
            caps_now = caps_Bps
            inv_now = inv_caps_Bps
        else:
            caps_now = caps_step[step]
            inv_now = inv_caps_step[step]
        # -- 1. workload toggles due at or before t --------------------
        while True:
            due = next_toggle <= t
            if not due.any():
                break
            turning_on = due & (ptr % 2 == 0)
            on = (on | turning_on) & ~(due & (ptr % 2 == 1))
            r_on = turning_on & is_remy
            if r_on.any():          # RemyCC: fresh transfer each "on"
                w = np.where(r_on, 1.0, w)
                pace_tau = np.where(r_on, 0.0, pace_tau)
                rec_ewma = np.where(r_on, 0.0, rec_ewma)
                slow_ewma = np.where(r_on, 0.0, slow_ewma)
                send_ewma = np.where(r_on, 0.0, send_ewma)
                have_rec &= ~r_on
                min_rtt = np.where(r_on, np.inf, min_rtt)
                rtt_ratio = np.where(r_on, 1.0, rtt_ratio)
            f_on = turning_on & ~is_remy & ~started
            if f_on.any():          # TCPs persist across on/off cycles
                w = np.where(f_on, 2.0, w)
                ssthresh = np.where(f_on, np.inf, ssthresh)
            started |= turning_on
            ptr += due
            next_toggle = toggles[toggle_row + ptr]

        # -- 2. current path queueing delay (from last step's queues) --
        qlink = np.empty((S, L))
        path_qd = np.zeros(shp)
        for l, (_, cols, hops, _) in enumerate(links):
            q_mem = q[hops]
            qlink[:, l] = _flow_sum(q_mem)
            if is_sfq:
                n_act = np.maximum((q_mem > 0).sum(axis=1), 1)
                path_qd[cols] += q_mem * (n_act[:, None] * inv_now[l])
            else:
                path_qd[cols] += (qlink[:, l] * inv_now[l])[:, None]
        rtt_est = base_rtt[None, :] + path_qd

        # -- 3. delivery and the ACK clock (lagged streams) ------------
        # All reads are from steps already written; windows react to
        # this step's ACK arrivals before this step's sends, exactly as
        # the event-driven sender transmits from inside the ACK handler.
        pos_now = step % K
        _, dep_ix = read_del(step)
        delivered_bytes += dep_hist[dep_ix] * dt
        ack_ix, dep_ix = read_ack(step)
        acks = dep_hist[dep_ix] * (dt / _PKT)
        inflight = np.maximum(inflight - acks, 0.0)
        # Dropped packets never produce ACKs; release them from the
        # window on the same lagged clock the packet transport's loss
        # detection runs on.
        inflight = np.maximum(inflight - drop_hist[ack_ix], 0.0)
        loss = loss_hist[ack_ix]
        sent_lag = sent_hist[ack_ix]
        rtt_sample = base_rtt[None, :] + qd_hist[ack_ix]
        marked = mark_hist[ack_ix] if mark_hist is not None else None

        # -- 4. loss reactions (multiplicative decrease) ---------------
        lost = loss & started & (t >= recover_until)
        if lost.any():
            lr = lost & is_renoish
            ssthresh = np.where(lr, np.maximum(w * 0.5, 2.0), ssthresh)
            w = np.where(lr, ssthresh, w)
            lc = lost & is_cubic
            if lc.any():
                cb_wmax = np.where(
                    lc, np.where(w < cb_wmax,
                                 w * (1.0 + _CUBIC_BETA) / 2.0, w),
                    cb_wmax)
                w = np.where(lc, np.maximum(w * _CUBIC_BETA, 2.0), w)
                ssthresh = np.where(lc, w, ssthresh)
                cb_epoch = np.where(lc, np.nan, cb_epoch)
            lv = lost & is_vegas
            if lv.any():
                w = np.where(lv, np.maximum(w * 0.75, 2.0), w)
                vg_in_ss &= ~lv
            # RemyCC has no loss rule (dupacks feed the same table).
            recover_until = np.where(lost & ~is_remy, t + rtt_est,
                                     recover_until)

        # -- 4b. DCTCP mark reaction -----------------------------------
        # Tally marked vs total ACKs over one RTT round; at round end
        # fold the fraction into alpha (gain 1/16) and, if any ACK was
        # marked, cut once by alpha/2 — the proportional decrease that
        # distinguishes DCTCP from Reno's blind halving.
        if marked is not None and is_dctcp.any():
            d_ack = is_dctcp & started & (acks > 0.0)
            dc_acked = np.where(d_ack, dc_acked + acks, dc_acked)
            dc_marked = np.where(d_ack & marked, dc_marked + acks,
                                 dc_marked)
            due = d_ack & (t >= dc_round_end)
            if due.any():
                frac = np.divide(dc_marked, dc_acked,
                                 where=dc_acked > 0.0,
                                 out=np.zeros_like(dc_marked))
                dc_alpha = np.where(
                    due, dc_alpha + _DCTCP_GAIN * (frac - dc_alpha),
                    dc_alpha)
                cut = due & (frac > 0.0)
                w = np.where(cut,
                             np.maximum(w * (1.0 - dc_alpha / 2.0),
                                        2.0), w)
                ssthresh = np.where(cut, np.maximum(w, 2.0), ssthresh)
                dc_acked = np.where(due, 0.0, dc_acked)
                dc_marked = np.where(due, 0.0, dc_marked)
                dc_round_end = np.where(due, t + rtt_sample,
                                        dc_round_end)

        # -- 5. window growth ------------------------------------------
        acked = started & (acks > 0.0)
        grow = acked & (t >= recover_until)
        # NewReno / AIMD (DCTCP included: Reno-style growth).
        g = grow & is_renoish
        in_ss = g & (w < ssthresh)
        w = np.where(in_ss, w + acks, w)
        in_ca = g & ~in_ss
        w = np.where(in_ca, w + acks / w, w)
        # Cubic.
        g = grow & is_cubic
        if g.any():
            new_round = g & (t >= cb_round_end)
            cb_prev_min = np.where(new_round, cb_round_min, cb_prev_min)
            cb_round_min = np.where(new_round, np.inf, cb_round_min)
            cb_round_end = np.where(new_round, t + rtt_sample,
                                    cb_round_end)
            cb_round_min = np.where(g, np.minimum(cb_round_min,
                                                  rtt_sample),
                                    cb_round_min)
            ss = g & (w < ssthresh)
            eta = np.minimum(np.maximum(cb_prev_min / 8.0, 0.004), 0.016)
            hexit = ss & np.isfinite(cb_prev_min) \
                & (cb_round_min >= cb_prev_min + eta)
            ssthresh = np.where(hexit, w, ssthresh)
            ss &= ~hexit
            w = np.where(ss, w + acks, w)
            ca = g & ~ss
            init = ca & np.isnan(cb_epoch)
            if init.any():
                cb_epoch = np.where(init, t, cb_epoch)
                cb_wmax = np.where(init, np.maximum(cb_wmax, w), cb_wmax)
                cb_k = np.where(
                    init, np.cbrt(cb_wmax * (1.0 - _CUBIC_BETA)
                                  / _CUBIC_C), cb_k)
                cb_wtcp = np.where(init, w, cb_wtcp)
            te = t - cb_epoch
            target = _CUBIC_C * (te - cb_k) ** 3 + cb_wmax
            cb_wtcp = np.where(
                ca, cb_wtcp + (3.0 * (1.0 - _CUBIC_BETA)
                               / (1.0 + _CUBIC_BETA)) * acks / w,
                cb_wtcp)
            target = np.maximum(target, cb_wtcp)
            delta = np.where(target > w,
                             (target - w) * np.minimum(acks / w, 1.0),
                             0.01 * acks / w)
            w = np.where(ca, w + delta, w)
        # Vegas (per-RTT rule; rounds timed on the ACK clock).
        g = acked & is_vegas
        if g.any():
            vg_base = np.where(g, np.minimum(vg_base, rtt_sample),
                               vg_base)
            vg_round_min = np.where(g, np.minimum(vg_round_min,
                                                  rtt_sample),
                                    vg_round_min)
            due = g & (t >= vg_round_end) & (t >= recover_until)
            if due.any():
                rtt_r = np.where(np.isfinite(vg_round_min),
                                 vg_round_min, vg_base)
                diff = w * (1.0 - vg_base / np.maximum(rtt_r, 1e-9))
                ss = due & vg_in_ss
                exit_ss = ss & (diff > 1.0)
                w = np.where(exit_ss, w - diff, w)
                vg_in_ss &= ~exit_ss
                dbl = ss & ~exit_ss & vg_grow
                w = np.where(dbl, w * 2.0, w)
                vg_grow = np.where(ss, ~vg_grow, vg_grow)
                ca = due & ~ss
                w = np.where(ca & (diff < 1.0), w + 1.0, w)
                w = np.where(ca & (diff > 3.0), w - 1.0, w)
                w = np.where(due, np.maximum(w, 2.0), w)
                vg_round_end = np.where(due, t + rtt_r, vg_round_end)
                vg_round_min = np.where(due, np.inf, vg_round_min)
        w = np.clip(w, 1.0, _MAX_WINDOW)

        # -- 6. RemyCC: memory signals, batched lookup, action ---------
        m_ack = acked & is_remy
        if m_ack.any():
            # Only the acked RemyCC cells change: gather them, update,
            # scatter back, through flat views (every ``(lanes, flows)``
            # state array is a fresh, C-contiguous ufunc output, so
            # ``reshape(-1)`` is a view and 1-D indexing is cheap).
            cells = np.flatnonzero(m_ack)
            n_l = acks.reshape(-1)[cells]
            x = dt / n_l
            # ACK interarrival EWMAs, per-ACK folds compounded:
            # n identical folds of gain g move the EWMA by 1-(1-g)^n.
            fold_f = 1.0 - np.power(1.0 - _FAST_GAIN, n_l)
            fold_s = 1.0 - np.power(1.0 - _SLOW_GAIN, n_l)
            seeded = have_rec.reshape(-1)[cells]
            rec = rec_ewma.reshape(-1)[cells]
            rec = np.where(seeded, rec + fold_f * (x - rec), x)
            rec_ewma.reshape(-1)[cells] = rec
            slow = slow_ewma.reshape(-1)[cells]
            slow = np.where(seeded, slow + fold_s * (x - slow), x)
            slow_ewma.reshape(-1)[cells] = slow
            have_rec.reshape(-1)[cells] = True
            # Intersend EWMA from the echoed send timestamps: the ACKed
            # packets were sent ~1 RTT ago at the lagged send rate.
            lagged = np.ravel(sent_lag)[cells]
            xs = np.divide(1.0, lagged, where=lagged > 0.0,
                           out=np.zeros_like(lagged))
            m_send = xs > 0.0
            send = send_ewma.reshape(-1)[cells]
            send = np.where(m_send & (send > 0.0),
                            send + fold_f * (xs - send),
                            np.where(m_send, xs, send))
            send_ewma.reshape(-1)[cells] = send
            sample = rtt_sample.reshape(-1)[cells]
            low = np.minimum(min_rtt.reshape(-1)[cells], sample)
            min_rtt.reshape(-1)[cells] = low
            ratio = sample / np.where(np.isfinite(low), low, 1.0)
            rtt_ratio.reshape(-1)[cells] = ratio
            # One lookup over every lane's trees, starting from each
            # flow's previous leaf.
            sig = np.stack([
                np.clip(rec, _SIG_LO[0], _CAP[0]),
                np.clip(slow, _SIG_LO[1], _CAP[1]),
                np.clip(send, _SIG_LO[2], _CAP[2]),
                np.clip(ratio, _SIG_LO[3], _CAP[3]),
            ], axis=1)
            leaf = forest.lookup(tree_root.reshape(-1)[cells], sig,
                                 last_leaf.reshape(-1)[cells])
            last_leaf.reshape(-1)[cells] = leaf
            m_l = forest.m[leaf]
            b_l = forest.b[leaf]
            mm = np.power(m_l, n_l)
            w_sel = w.reshape(-1)[cells]
            lin = np.abs(m_l - 1.0) < 1e-12
            w_new = np.where(
                lin, w_sel + b_l * n_l,
                mm * w_sel + b_l * (1.0 - mm)
                / np.where(lin, 1.0, 1.0 - m_l))
            w.reshape(-1)[cells] = np.clip(w_new, 1.0, _REMY_MAX_WINDOW)
            pace_tau.reshape(-1)[cells] = forest.tau[leaf]

        # -- 7. send rates ---------------------------------------------
        pace_cap = np.where(pace_tau > 0.0, 1.0 /
                            np.maximum(pace_tau, 1e-12), np.inf)
        # Window-limited sending, like the packet transport: whenever
        # fewer than ``w`` packets are in flight, the deficit goes out
        # immediately (subject to the pacing cap), so window jumps burst
        # exactly as the event-driven sender does; in steady state the
        # deficit refills at the ACK rate and sending self-clocks.
        deficit = np.maximum(w - inflight, 0.0)
        rate = np.where(on, np.minimum(deficit / dt, pace_cap), 0.0)
        sent_pkts += rate * dt
        inflight += rate * dt
        sent_hist[pos_now] = rate
        qd_hist[pos_now] = path_qd

        # -- 8. queues: arrivals, service, overflow, CoDel -------------
        loss_now = loss_hist[pos_now]
        loss_now[...] = False
        drop_now = drop_hist[pos_now]
        drop_now[...] = 0.0
        if mark_hist is not None:
            mark_now = mark_hist[pos_now]
            mark_now[...] = False
        dep_now = dep_hist[pos_now]
        inflow0 = rate * _PKT                     # bytes/s entering hop 0
        for l, (_, cols, hops, upstream) in enumerate(links):
            q_mem = q[hops]
            if upstream is None:
                inflow = inflow0
            else:
                first, fidx, h_row, lag_prev, f_row_l = upstream
                pos = ((step - lag_prev) % K)[None, :]
                inflow = np.where(first, inflow0[:, fidx],
                                  dep_hist[pos, h_row, s_col, f_row_l])
            arr = inflow * dt
            if drop_down[l] and caps_now[l] == 0.0:
                # Blackout with a drop policy: arriving fluid is
                # discarded (queued bytes stay for after the outage).
                drop_bytes[:, l] += _flow_sum(arr)
                loss_now[cols] |= arr > 1e-9
                drop_now[cols] += arr / _PKT
                arr = np.zeros_like(arr)
            avail = q_mem + arr
            tot = _flow_sum(avail)
            cap_dt = caps_now[l] * dt
            if is_sfq:
                out_mem = _waterfill(avail, cap_dt)
                rem = np.maximum(avail - out_mem, 0.0)
                n_act = np.maximum((q_mem > 0).sum(axis=1), 1)
                sojourn = q_mem * (n_act[:, None] * inv_now[l])
                above = np.where(sojourn > _CODEL_TARGET,
                                 codel_above_q[hops] + dt, 0.0)
                codel_above_q[hops] = above
                loss_now[cols] |= (above >= _CODEL_INTERVAL) \
                    & (avail > 0.0)
                # Latency: at arrival, a bucket's bytes wait out their
                # own backlog at the fair-share rate.
                n_arr = np.maximum((avail > 0.0).sum(axis=1), 1)
                wait = (q_mem + 0.5 * arr) \
                    * (n_arr[:, None] * inv_now[l])
                wpk = arr / _PKT
            else:
                # Tail drop at arrival, like the packet droptail queue:
                # overflow falls on this step's *arriving* fluid (never
                # on bytes already queued), so the accepted-arrival
                # curves below are append-only.
                out_tot = np.minimum(tot, cap_dt)
                acc = arr
                if math.isfinite(buffers[l]):
                    over = np.maximum(tot - out_tot - buffers[l], 0.0)
                    arr_tot = _flow_sum(arr)
                    dropr = np.divide(over, arr_tot,
                                      where=arr_tot > 0.0,
                                      out=np.zeros_like(arr_tot))
                    dropped = arr * dropr[:, None]
                    acc = arr - dropped
                    drop_bytes[:, l] += over
                    loss_now[cols] |= dropped > 1e-9
                    drop_now[cols] += dropped / _PKT
                if is_codel:
                    sojourn = qlink[:, l] * inv_now[l]
                    codel_above[:, l] = np.where(
                        sojourn > _CODEL_TARGET,
                        codel_above[:, l] + dt, 0.0)
                    fire = codel_above[:, l] >= _CODEL_INTERVAL
                    loss_now[cols] |= fire[:, None] & (avail > 0.0)
                # Exact FIFO service: append accepted arrivals to the
                # per-flow curves, then hand each flow the slice of its
                # own curve between the previous and the new aggregate
                # departure levels (linear interpolation inside a step —
                # fluid arrives uniformly within dt).  Departures thus
                # carry the flow mix of the arrivals they matched: a
                # burst queued ahead really does starve the flows
                # behind it, exactly as the event-driven FIFO does.
                cumAf = cum_arr_f[l]
                cumAf[:, step + 1] = cumAf[:, step] + acc
                arr_l = cum_arr[l]
                arr_l[:, step + 1] = arr_l[:, step] + _flow_sum(acc)
                arr_flat = arr_l.reshape(-1)
                dep_l = cum_dep[l]
                q_hi = dep_l[:, step] + out_tot
                dep_l[:, step + 1] = q_hi
                ti = tau_hi[:, l]
                while True:
                    nxt = np.minimum(ti + 1, step + 1)
                    adv = (ti <= step) \
                        & (arr_flat[curve_row + nxt] <= q_hi + 1e-9)
                    if not adv.any():
                        break
                    ti = ti + adv
                tau_hi[:, l] = ti
                tlo = curve_row + np.minimum(ti, step + 1)
                thi = curve_row + np.minimum(ti + 1, step + 1)
                lo = arr_flat[tlo]
                hi = arr_flat[thi]
                frac = np.divide(q_hi - lo, hi - lo, where=hi > lo,
                                 out=np.zeros(S))
                rows = cumAf.reshape(-1, cumAf.shape[2])
                v_lo = rows[tlo]
                v_hi = rows[thi]
                v = v_lo + frac[:, None] * (v_hi - v_lo)
                out_mem = np.maximum(v - prev_v[l], 0.0)
                prev_v[l] = v
                rem = np.maximum(q_mem + acc - out_mem, 0.0)
                if mark_hist is not None:
                    # Threshold marking (DCTCP's K): fluid arriving
                    # while the standing queue exceeds K is CE-marked
                    # — the Alizadeh model's step indicator.
                    over_k = _flow_sum(rem) > ecn_thresh_bytes
                    mark_now[cols] |= over_k[:, None]
                # Latency: invert the arrival curve at the step's
                # median departing byte — its wait is the time since
                # that byte arrived.  Weighted by departures, so bytes
                # still queued at run end are never counted, exactly
                # like the packet engine's delivered-packet mean.
                query = dep_l[:, step] + 0.5 * out_tot
                tj = tau_idx[:, l]
                while True:
                    nxt = np.minimum(tj + 1, step + 1)
                    adv = (tj <= step) \
                        & (arr_flat[curve_row + nxt] <= query + 1e-9)
                    if not adv.any():
                        break
                    tj = tj + adv
                tau_idx[:, l] = tj
                lo = arr_flat[curve_row + np.minimum(tj, step + 1)]
                hi = arr_flat[curve_row + np.minimum(tj + 1, step + 1)]
                frac = np.divide(query - lo, hi - lo, where=hi > lo,
                                 out=np.zeros(S))
                wait = np.maximum(
                    (step + 0.5 - tj - frac) * dt, 0.0)[:, None]
                wpk = out_mem / _PKT
            q[hops] = rem
            dep_now[hops] = out_mem / dt
            link_out_bytes[:, l] += _flow_sum(out_mem)
            wait_sum[hops] += wpk * wait
            wt_pkts[hops] += wpk

    # ------------------------------------------------------------------
    # Collect per-lane results.
    results: List[RunResult] = []
    util = link_out_bytes / (caps_Bps[None, :] * duration_s)
    qd_hops = np.divide(wait_sum, wt_pkts, where=wt_pkts > 0.0,
                        out=np.zeros_like(wait_sum))
    qd_flow = qd_hops.sum(axis=0)       # unused hops contribute zero
    # Roundings vectorized (np.round, like round(), ties to even).
    delivered = np.round(delivered_bytes).astype(np.int64)
    delivered_pkts = np.round(delivered / _PKT).astype(np.int64)
    sent = np.round(sent_pkts).astype(np.int64)
    mean_delay = np.where(delivered > 0, base_ow[None, :] + qd_flow, 0.0)
    for si, lane in enumerate(lanes):
        flows = [FlowStats(
            flow_id=f, kind=kind, delivered_bytes=got, on_time_s=on_s,
            mean_delay_s=delay, base_delay_s=base_oneway[f],
            base_rtt_s=base_rtt_l[f], packets_delivered=got_pkts,
            packets_sent=sent_f, retransmissions=0, timeouts=0,
            delta=lane.deltas[f])
            for f, (kind, got, on_s, delay, got_pkts, sent_f)
            in enumerate(zip(lane.sender_kinds, delivered[si].tolist(),
                             on_time[si].tolist(),
                             mean_delay[si].tolist(),
                             delivered_pkts[si].tolist(),
                             sent[si].tolist()))]
        results.append(RunResult(
            flows=flows, seed=lane.seed, duration_s=duration_s,
            bottleneck_drops=int(round(drop_bytes[si].sum() / _PKT)),
            bottleneck_utilization=float(util[si].max()),
            metadata={"backend": "fluid", "dt": dt}))
    return results


def _flow_sum(a: np.ndarray) -> np.ndarray:
    """Sum a ``(lanes, flows)`` array over flows, one contiguous row per
    lane, so the rounding never depends on how many lanes are batched."""
    return np.ascontiguousarray(a).sum(axis=1)


def _waterfill(avail: np.ndarray, cap_dt: float) -> np.ndarray:
    """Fair-share (sfq) service: each backlogged bucket gets an equal
    share; unused share is redistributed until the capacity or the
    backlog is exhausted."""
    out = np.zeros_like(avail)
    todo = avail.copy()
    remaining = np.full(avail.shape[0], cap_dt)
    for _ in range(avail.shape[1]):
        active = todo > 0.0
        n_act = active.sum(axis=1)
        live = (remaining > 1e-12) & (n_act > 0)
        if not live.any():
            break
        fair = np.divide(remaining, n_act, where=n_act > 0,
                         out=np.zeros_like(remaining))
        # Lanes already served take nothing more: a lane that would
        # have stopped here on its own must not keep sharing out a
        # rounding residue because another lane is still live.
        take = np.minimum(todo, fair[:, None]) * (active & live[:, None])
        out += take
        todo -= take
        remaining = remaining - _flow_sum(take)
    return out

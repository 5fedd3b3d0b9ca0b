"""Replica-batched struct-of-arrays simulation kernel.

This backend replays the *exact* stochastic process of the reference
per-packet loop in :mod:`repro.sim.network_sim` — same seeded RNG
stream, same output-queued FIFO arbitration — but holds every in-flight
packet in flat NumPy arrays and advances the whole population one cycle
at a time with array-wide updates.  The batch axis is the **replica**:
each :class:`Replica` is an independent ``(injection_rate, seed,
fault_schedule, link_schedule)`` tuple, so a whole (rate × seed × fault)
grid runs as one call — the per-``(s, d)`` path tables are compiled
once and the per-cycle work for all replicas shares the same vector
operations.  Per-replica ``dead``/``down`` channel masks let replicas
in the same launch carry *different* fault and link schedules.

Equivalence contract (enforced by ``tests/sim/test_differential.py``
and ``tests/sim/test_replicas.py``):

* **Injection** draws are consumed in the reference's order — one
  uniform vector per cycle for the Bernoulli mask, then per injecting
  node (ascending id) one uniform for the destination and, iff the
  pair's path distribution has more than one entry, one uniform for the
  path choice.  The kernel reproduces this interleaved stream without a
  per-packet Python loop: each replica owns a pre-drawn row of its own
  uniform stream and a cursor into it.  One indexed read of the rows
  gives every replica's Bernoulli mask; destinations are then decoded
  with a vectorized fixpoint (draw positions depend only on
  *predecessor* flags, so the iteration converges once the flags
  stabilize), and each cursor advances by exactly the draws consumed.
  A row is refilled from its generator whenever less than one cycle's
  worst case (``3n`` draws) remains.
* **Arbitration** is deterministic: channels service their queues in
  channel-index order, FIFO within a queue, up to ``bandwidth`` packets
  per cycle; forwarded packets join their next queue in (forwarding
  channel, FIFO) order.  The kernel encodes this with a monotone
  enqueue-sequence number and one sort per cycle on the combined
  ``(queue, sequence)`` key — the tie-breaking contract documented in
  DESIGN.md ("Simulator backends").

:func:`simulate_replicas` is the one batched entry point: the
``vectorized`` backend of :func:`repro.sim.simulate` is a one-replica
batch, and the latency curves and saturation probers in
:mod:`repro.sim.measure` launch whole replica grids through it.

Given the same replica tuple the batched and individual runs therefore
agree *exactly* on every packet count, and bit-for-bit on the latency
sample (the differential suite asserts counts exactly and latency
percentiles within a tolerance to stay robust to summation order).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro import obs
from repro.constants import DEFAULT_SIM_BACKEND, DISTRIBUTION_ATOL
from repro.routing.base import ObliviousRouting
from repro.routing.paths import path_channels
from repro.sim.network_sim import (
    SimulationConfig,
    SimulationResult,
    _check_backend,
    _record_sim_metrics,
    _span_attrs,
    normalize_fault_schedule,
    normalize_link_schedule,
    service_budgets,
    simulate,
    validate_channel_events,
    validate_run_length,
)
from repro.sim.stats import latency_stats
from repro.traffic.doubly_stochastic import validate_doubly_stochastic

log = obs.get_logger(__name__)

#: Columns of the in-flight packet array (struct of arrays as one 2-D
#: int64 block: one row per packet, compacted every cycle).
_REP, _CHAN, _SEQ, _POS, _END, _ITIME, _PLEN = range(7)
_NUM_COLS = 7

#: Cycles of worst-case draws (3 per node) each replica's pre-drawn
#: uniform row holds between refills.
_STREAM_CYCLES = 8

#: Bits reserved for the enqueue sequence in the combined sort key; the
#: sequence counter is monotone per run and bounded by total enqueues,
#: far below 2**40.
_SEQ_BITS = 40


def _queue_rank(q_sorted: np.ndarray) -> np.ndarray:
    """Position of each packet within its queue, given non-empty queue
    keys sorted so that each queue's packets are contiguous."""
    head = np.empty(q_sorted.shape[0], dtype=bool)
    head[0] = True
    head[1:] = q_sorted[1:] != q_sorted[:-1]
    idx = np.arange(q_sorted.shape[0])
    return idx - idx[head][np.cumsum(head) - 1]


def _pop_selection(
    qkey: np.ndarray, seq: np.ndarray, budgets: np.ndarray
) -> np.ndarray:
    """Indices of the packets popped this cycle.

    One sort on the combined ``(queue, sequence)`` key, then each
    queue's first ``budgets[q]`` packets in FIFO order — the reference
    arbitration contract (channel-index order across queues, FIFO
    within).  Emission order is the sorted order, which callers rely on
    for deterministic downstream processing.
    """
    order = np.argsort((qkey << _SEQ_BITS) | seq)
    q_sorted = qkey[order]
    return order[_queue_rank(q_sorted) < budgets[q_sorted]]


def _arrival_keep(qkey: np.ndarray, occ: np.ndarray, cap: int) -> np.ndarray:
    """Boolean mask of forwarded packets that fit their next queue.

    Arrival order per queue decides who fills the remaining
    ``cap - occ[q]`` slots, exactly as the reference's sequential
    appends do — hence the stable sort on the queue key alone.
    """
    order = np.argsort(qkey, kind="stable")
    q_sorted = qkey[order]
    keep = np.empty(qkey.shape[0], dtype=bool)
    keep[order] = _queue_rank(q_sorted) < (cap - occ[q_sorted])
    return keep


@dataclasses.dataclass(frozen=True)
class Replica:
    """One independent simulation in a batched launch.

    A replica is the full stochastic identity of a run:
    ``(injection_rate, seed, fault_schedule, link_schedule)``.
    Replicas in one batch share the compiled path tables and the cycle
    loop but nothing stochastic — each owns a fresh
    ``default_rng(seed)`` and its own channel fault/link state — so its
    counts are draw-for-draw identical to an individual
    :func:`repro.sim.simulate` call with the same tuple.
    """

    injection_rate: float
    seed: int = 0
    fault_schedule: tuple[tuple[int, int], ...] = ()
    link_schedule: tuple[tuple[int, int, str], ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ValueError("injection_rate must be in [0, 1]")
        object.__setattr__(self, "injection_rate", float(self.injection_rate))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(
            self, "fault_schedule", normalize_fault_schedule(self.fault_schedule)
        )
        object.__setattr__(
            self, "link_schedule", normalize_link_schedule(self.link_schedule)
        )

    @classmethod
    def from_config(cls, config: SimulationConfig) -> "Replica":
        return cls(
            injection_rate=config.injection_rate,
            seed=config.seed,
            fault_schedule=config.fault_schedule,
            link_schedule=config.link_schedule,
        )

    def to_config(
        self, cycles: int, warmup: int, queue_capacity: int | None = None
    ) -> SimulationConfig:
        return SimulationConfig(
            cycles=cycles,
            warmup=warmup,
            injection_rate=self.injection_rate,
            seed=self.seed,
            queue_capacity=queue_capacity,
            fault_schedule=self.fault_schedule,
            link_schedule=self.link_schedule,
        )


def replica_grid(
    rates, seeds, fault_schedule=(), link_schedule=()
) -> list[Replica]:
    """The (rate × seed) cross product as a rate-major replica list,
    every replica carrying the same schedules."""
    return [
        Replica(float(r), int(s), fault_schedule, link_schedule)
        for r in rates
        for s in seeds
    ]


def _as_replicas(replicas) -> list[Replica]:
    return [r if isinstance(r, Replica) else Replica(*r) for r in replicas]


class VectorizedSimulator:
    """Compiled simulator for one ``(algorithm, traffic)`` pair.

    Compilation materializes, for every drawable source/destination
    pair, the reference simulator's cached path distribution: the
    per-path channel itineraries (flattened into one array) and the
    choice CDF (replicating the exact float normalization the reference
    feeds to ``Generator.choice``).  The tables are reused across every
    :meth:`run_replicas` call, which is what amortizes setup over a rate
    sweep, a seed ensemble, or a saturation bisection.
    """

    def __init__(self, algorithm: ObliviousRouting, traffic: np.ndarray):
        net = algorithm.network
        validate_doubly_stochastic(traffic, tol=DISTRIBUTION_ATOL)
        self.algorithm = algorithm
        self.traffic = np.asarray(traffic, dtype=np.float64)
        self.num_nodes = int(net.num_nodes)
        self.num_channels = int(net.num_channels)
        # Integral bandwidths use a constant per-cycle budget; fractional
        # ones (heterogeneous Z-slowdown links) go through the shared
        # token-bucket schedule every cycle — see ``service_budgets``.
        self._bandwidth_exact = np.asarray(net.bandwidth, dtype=np.float64)
        self._integral_bandwidth = bool(
            np.allclose(np.round(self._bandwidth_exact), self._bandwidth_exact)
        )
        self._bandwidth = (
            self._bandwidth_exact.round().astype(np.int64)
            if self._integral_bandwidth
            else None
        )
        self._cum_traffic = np.cumsum(self.traffic, axis=1)
        self._diag_mean = float(np.diag(self.traffic).mean())

        n2 = self.num_nodes * self.num_nodes
        # -1 marks an uncompiled pair; self-pairs have the single
        # zero-hop path and never consume a path draw.
        self._npaths = np.full(n2, -1, dtype=np.int64)
        diag = np.arange(self.num_nodes) * (self.num_nodes + 1)
        self._npaths[diag] = 1
        self._pair_base = np.full(n2, -1, dtype=np.int64)
        self._path_start = np.zeros(0, dtype=np.int64)
        self._path_len = np.zeros(0, dtype=np.int64)
        self._chan_flat = np.zeros(0, dtype=np.int64)
        self._cdf = np.full((n2, 1), np.inf)

        support = np.argwhere(self.traffic > 0.0)
        pairs = [(int(s), int(d)) for s, d in support if s != d]
        with obs.span(
            "sim.compile", algorithm=algorithm.name, pairs=len(pairs)
        ) as sp:
            self._compile_pairs(pairs)
            sp.set(
                paths=int(self._path_len.size),
                channel_entries=int(self._chan_flat.size),
            )
        # Per source, the draws an injector most likely consumes: 2 when
        # most of its traffic goes to multi-path pairs.  Only a starting
        # guess for the injection decode, which corrects it exactly.
        multi = self._npaths.reshape(self.num_nodes, -1) > 1
        self._draws_guess = 1 + ((self.traffic * multi).sum(axis=1) > 0.5)

    # ------------------------------------------------------------------
    # Path-table compilation
    # ------------------------------------------------------------------
    def _compile_pairs(self, pairs: list[tuple[int, int]]) -> None:
        """Build tables for ``pairs`` (skipping already-compiled ones)."""
        net = self.algorithm.network
        n = self.num_nodes
        todo = [
            (s, d) for s, d in pairs if self._npaths[s * n + d] < 0
        ]
        if not todo:
            return
        starts, lens, chan_blocks, cdfs = [], [], [], []
        next_start = int(self._chan_flat.size)
        next_base = int(self._path_len.size)
        bases, counts = [], []
        for s, d in todo:
            dist = self.algorithm.path_distribution(s, d)
            chans = [
                np.asarray(path_channels(net, p), dtype=np.int64)
                for p, _ in dist
            ]
            # Replicate the reference's normalization chain exactly:
            # dist_cache stores probs / probs.sum(); Generator.choice
            # then uses cdf = p.cumsum(); cdf /= cdf[-1].
            probs = np.asarray([w for _, w in dist])
            probs = probs / probs.sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            bases.append(next_base)
            counts.append(len(dist))
            next_base += len(dist)
            for arr in chans:
                starts.append(next_start)
                lens.append(arr.size)
                next_start += arr.size
            chan_blocks.extend(chans)
            cdfs.append(cdf)

        self._path_start = np.concatenate(
            [self._path_start, np.asarray(starts, dtype=np.int64)]
        )
        self._path_len = np.concatenate(
            [self._path_len, np.asarray(lens, dtype=np.int64)]
        )
        self._chan_flat = np.concatenate([self._chan_flat] + chan_blocks)
        width = max(self._cdf.shape[1], max(len(c) for c in cdfs))
        if width > self._cdf.shape[1]:
            grown = np.full((self._cdf.shape[0], width), np.inf)
            grown[:, : self._cdf.shape[1]] = self._cdf
            self._cdf = grown
        for (s, d), base, count, cdf in zip(todo, bases, counts, cdfs):
            key = s * n + d
            self._pair_base[key] = base
            self._npaths[key] = count
            self._cdf[key, :count] = cdf
            self._cdf[key, count:] = np.inf

    def _ensure_pairs(self, srcs: np.ndarray, dsts: np.ndarray) -> None:
        """Lazily compile pairs hit by a boundary draw (zero-traffic
        destinations are reachable only when a uniform lands exactly on
        a CDF step — measure zero, but the reference routes them)."""
        keys = srcs * self.num_nodes + dsts
        need = self._npaths[keys] < 0
        if need.any():
            pairs = sorted(
                {(int(s), int(d)) for s, d in zip(srcs[need], dsts[need])}
            )
            log.debug("lazy-compiling %d off-support pairs", len(pairs))
            self._compile_pairs(pairs)

    # ------------------------------------------------------------------
    # Injection decoding (exact RNG-stream replay)
    # ------------------------------------------------------------------
    def _decode_injections(self, stream, base, reps, srcs):
        """Decode the destination/path draws of this cycle's injectors.

        ``stream`` is the flattened ``(R, W)`` pre-drawn uniform buffer
        and ``base[r]`` the flat index of replica ``r``'s next unread
        draw.  ``reps``/``srcs`` list the injectors replica-major with
        ascending source — the reference's draw order.  Returns per-
        injector destinations, global path ids (``-1`` for self-
        addressed draws, which the caller filters out exactly like the
        reference's ``continue``) and draw counts (1 or 2).
        """
        m_total = srcs.size
        if m_total == 0:
            return (np.zeros(0, np.int64),) * 3
        # Index of each injector's replica segment start (reps is sorted).
        seg_first = np.searchsorted(reps, reps)
        rep_base = base[reps]

        n = self.num_nodes
        cum_rows = self._cum_traffic[srcs]
        # g[j] = draws injector j consumes: 1 for the destination, plus 1
        # for the path choice iff its pair has several paths.  A draw's
        # position depends only on its predecessors' g, so iterating
        # until g is stable decodes the interleaved stream exactly from
        # any starting guess: each pass fixes at least one more injector
        # per replica.  Self-pairs have one (zero-hop) path, so they
        # never draw twice.
        g = self._draws_guess[srcs]
        for _ in range(m_total + 1):
            p_excl = np.cumsum(g) - g
            at = rep_base + p_excl - p_excl[seg_first]
            u1 = stream[at]
            dsts = np.minimum((cum_rows < u1[:, None]).sum(axis=1), n - 1)
            keys = srcs * n + dsts
            npaths = self._npaths[keys]
            if (npaths < 0).any():
                self._ensure_pairs(srcs, dsts)
                npaths = self._npaths[keys]
            g_new = 1 + (npaths > 1)
            if np.array_equal(g_new, g):
                break
            g = g_new
        else:  # pragma: no cover - the fixpoint provably converges
            raise AssertionError("injection decode did not converge")

        # Path choice for multi-path pairs (the draw after the destination).
        pidx = np.zeros(m_total, dtype=np.int64)
        multi = g == 2
        if multi.any():
            u2 = stream[at[multi] + 1]
            pidx[multi] = (self._cdf[keys[multi]] <= u2[:, None]).sum(axis=1)

        gpid = np.where(dsts != srcs, self._pair_base[keys] + pidx, -1)
        return dsts, gpid, g

    # ------------------------------------------------------------------
    # Batched cycle loop
    # ------------------------------------------------------------------
    def run_replicas(
        self,
        replicas,
        cycles: int = 2000,
        warmup: int = 500,
        queue_capacity: int | None = None,
    ) -> list[SimulationResult]:
        """Run every replica in one batched cycle loop.

        Each replica is an independent copy of the reference process —
        fresh ``default_rng(seed)``, its own queues, and its *own*
        ``dead``/``down`` channel masks, so replicas may carry different
        fault and link schedules in the same launch.  The replicas
        share each cycle's vector operations, so the per-cycle cost is
        nearly flat in the batch size.  A replica's ``fault_schedule``
        kills channels mid-run in that replica only (the reference
        semantics: queued packets and later arrivals on a dead channel
        are counted in its ``lost``); its ``link_schedule`` toggles
        per-channel service on and off losslessly (the rotor semantics —
        down channels hold their queues).  Both are RNG-free, so the
        draw-for-draw contract with individual runs is untouched.
        """
        replicas = _as_replicas(replicas)
        validate_run_length(cycles, warmup, queue_capacity)
        num_reps = len(replicas)
        if num_reps == 0:
            return []

        n = self.num_nodes
        c = self.num_channels
        nq = num_reps * c
        cap = queue_capacity
        rngs = [np.random.default_rng(rep.seed) for rep in replicas]
        rate_col = np.asarray([rep.injection_rate for rep in replicas])[:, None]
        # Each row holds the next uniforms of that replica's own stream;
        # ``cursor`` is the replica's first unread draw.  A cycle consumes
        # at most 3n draws (the mask, then at most two per injector), so a
        # row with fewer left is refilled from its generator first.
        width = _STREAM_CYCLES * 3 * n
        stream = np.stack([rng.random(width) for rng in rngs])
        flat_stream = stream.reshape(-1)
        row_base = np.arange(num_reps, dtype=np.int64) * width
        cursor = np.zeros(num_reps, dtype=np.int64)
        node_ids = np.arange(n)

        # Schedules index the *flattened* (replica, channel) queue space,
        # so one pair of masks carries every replica's channel state.
        fault_by_cycle: dict[int, list[int]] = {}
        link_by_cycle: dict[int, list[tuple[int, str]]] = {}
        for i, rep in enumerate(replicas):
            validate_channel_events(
                rep.fault_schedule, rep.link_schedule, cycles, c
            )
            for kill_cycle, channel in rep.fault_schedule:
                fault_by_cycle.setdefault(int(kill_cycle), []).append(
                    i * c + int(channel)
                )
            for ev_cycle, channel, action in rep.link_schedule:
                link_by_cycle.setdefault(int(ev_cycle), []).append(
                    (i * c + int(channel), action)
                )
        dead = np.zeros(nq, dtype=bool)
        down = np.zeros(nq, dtype=bool)
        any_down = False

        packets = np.zeros((0, _NUM_COLS), dtype=np.int64)
        occ = np.zeros(nq, dtype=np.int64)
        seq_counter = 0
        injected = np.zeros(num_reps, dtype=np.int64)
        delivered = np.zeros(num_reps, dtype=np.int64)
        measured = np.zeros(num_reps, dtype=np.int64)
        dropped = np.zeros(num_reps, dtype=np.int64)
        lost = np.zeros(num_reps, dtype=np.int64)
        backlog_at_warmup = np.zeros(num_reps, dtype=np.int64)
        queue_peak = np.zeros(num_reps, dtype=np.int64)
        lat_blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        if self._integral_bandwidth:
            bw_by_queue = np.tile(self._bandwidth, num_reps)

        for cycle in range(cycles):
            events = link_by_cycle.get(cycle)
            if events:
                for flat_key, action in events:
                    down[flat_key] = action == "down"
                any_down = bool(down.any())
            kills = fault_by_cycle.get(cycle)
            if kills:
                # Kill before the warmup snapshot, like the reference:
                # mark dead, destroy that replica's queued packets.
                dead[kills] = True
                if packets.shape[0]:
                    p_qkey = packets[:, _REP] * c + packets[:, _CHAN]
                    doomed = dead[p_qkey]
                    if doomed.any():
                        lost += np.bincount(
                            packets[doomed, _REP], minlength=num_reps
                        )
                        occ -= np.bincount(p_qkey[doomed], minlength=nq)
                        packets = packets[~doomed]
            if cycle == warmup:
                backlog_at_warmup = np.bincount(
                    packets[:, _REP], minlength=num_reps
                )

            # -- phase 1: injection -------------------------------------
            for r in np.flatnonzero(cursor > width - 3 * n):
                left = width - cursor[r]
                stream[r, :left] = stream[r, cursor[r]:]
                stream[r, left:] = rngs[r].random(int(cursor[r]))
                cursor[r] = 0
            mask_at = (row_base + cursor)[:, None] + node_ids
            reps, srcs = np.nonzero(flat_stream[mask_at] < rate_col)
            cursor += n
            dsts, gpid, draws = self._decode_injections(
                flat_stream, row_base + cursor, reps, srcs
            )
            np.add.at(cursor, reps, draws)
            sel = dsts != srcs
            if sel.any():
                p_rep = reps[sel]
                p_gpid = gpid[sel]
                injected += np.bincount(p_rep, minlength=num_reps)
                pos = self._path_start[p_gpid]
                plen = self._path_len[p_gpid]
                chan0 = self._chan_flat[pos]
                qkey = p_rep * c + chan0
                dead0 = dead[qkey]
                if dead0.any():
                    # Dead first hop loses the packet before any
                    # capacity check, as the reference does.
                    lost += np.bincount(
                        p_rep[dead0], minlength=num_reps
                    )
                    keep0 = ~dead0
                    p_rep, p_gpid = p_rep[keep0], p_gpid[keep0]
                    pos, plen = pos[keep0], plen[keep0]
                    chan0, qkey = chan0[keep0], qkey[keep0]
                if cap is not None:
                    full = occ[qkey] >= cap
                    if full.any():
                        dropped += np.bincount(
                            p_rep[full], minlength=num_reps
                        )
                        keep = ~full
                        p_rep, p_gpid = p_rep[keep], p_gpid[keep]
                        pos, plen = pos[keep], plen[keep]
                        chan0, qkey = chan0[keep], qkey[keep]
                count = p_rep.size
                if count:
                    block = np.empty((count, _NUM_COLS), dtype=np.int64)
                    block[:, _REP] = p_rep
                    block[:, _CHAN] = chan0
                    block[:, _SEQ] = seq_counter + np.arange(count)
                    seq_counter += count
                    block[:, _POS] = pos
                    block[:, _END] = pos + plen
                    block[:, _ITIME] = cycle
                    block[:, _PLEN] = plen
                    packets = np.concatenate([packets, block])
                    occ += np.bincount(qkey, minlength=nq)

            np.maximum(
                queue_peak,
                occ.reshape(num_reps, c).max(axis=1),
                out=queue_peak,
            )

            # -- phase 2: service ---------------------------------------
            size = packets.shape[0]
            if size == 0:
                continue
            if not self._integral_bandwidth:
                bw_by_queue = np.tile(
                    service_budgets(self._bandwidth_exact, cycle), num_reps
                )
            if any_down:
                # Down queues serve nothing this cycle; their packets
                # (and the replicas' RNG history) are untouched.
                bw_cycle = np.where(down, 0, bw_by_queue)
            else:
                bw_cycle = bw_by_queue
            qkey = packets[:, _REP] * c + packets[:, _CHAN]
            popped = _pop_selection(qkey, packets[:, _SEQ], bw_cycle)
            if popped.size == 0:
                continue
            occ -= np.bincount(qkey[popped], minlength=nq)

            new_pos = packets[popped, _POS] + 1
            done = new_pos == packets[popped, _END]
            ejected = popped[done]
            if ejected.size:
                delivered += np.bincount(
                    packets[ejected, _REP], minlength=num_reps
                )
                in_window = packets[ejected, _ITIME] >= warmup
                hit = ejected[in_window]
                if hit.size:
                    measured += np.bincount(
                        packets[hit, _REP], minlength=num_reps
                    )
                    lat_blocks.append(
                        (
                            packets[hit, _REP].copy(),
                            cycle - packets[hit, _ITIME] + 1,
                            packets[hit, _PLEN].copy(),
                        )
                    )

            movers = popped[~done]
            drop_idx = np.zeros(0, dtype=np.int64)
            lost_idx = np.zeros(0, dtype=np.int64)
            if movers.size:
                packets[movers, _POS] = new_pos[~done]
                next_chan = self._chan_flat[packets[movers, _POS]]
                m_qkey = packets[movers, _REP] * c + next_chan
                m_dead = dead[m_qkey]
                if m_dead.any():
                    # Dead next hop loses the packet before the
                    # capacity ranking — it never contends for a slot.
                    lost_idx = movers[m_dead]
                    lost += np.bincount(
                        packets[lost_idx, _REP], minlength=num_reps
                    )
                    movers = movers[~m_dead]
                    next_chan = next_chan[~m_dead]
                    m_qkey = m_qkey[~m_dead]
                keep = np.ones(movers.size, dtype=bool)
                if cap is not None and movers.size:
                    # Arrival order per queue decides who fills the
                    # remaining capacity, exactly as the reference's
                    # sequential appends do.
                    keep = _arrival_keep(m_qkey, occ, cap)
                    drop_idx = movers[~keep]
                    if drop_idx.size:
                        dropped += np.bincount(
                            packets[drop_idx, _REP], minlength=num_reps
                        )
                kept = movers[keep]
                if kept.size:
                    packets[kept, _CHAN] = next_chan[keep]
                    packets[kept, _SEQ] = seq_counter + np.arange(kept.size)
                    seq_counter += kept.size
                    occ += np.bincount(
                        m_qkey[keep], minlength=nq
                    )

            if ejected.size or drop_idx.size or lost_idx.size:
                keep_mask = np.ones(size, dtype=bool)
                keep_mask[ejected] = False
                keep_mask[drop_idx] = False
                keep_mask[lost_idx] = False
                packets = packets[keep_mask]

        # -- results --------------------------------------------------
        backlog = np.bincount(packets[:, _REP], minlength=num_reps)
        if lat_blocks:
            lat_rep = np.concatenate([b[0] for b in lat_blocks])
            lat_val = np.concatenate([b[1] for b in lat_blocks])
            lat_hops = np.concatenate([b[2] for b in lat_blocks])
        else:
            lat_rep = lat_val = lat_hops = np.zeros(0, dtype=np.int64)
        window = cycles - warmup
        results = []
        for i, rep in enumerate(replicas):
            mine = lat_rep == i
            stats = latency_stats(lat_val[mine], lat_hops[mine])
            results.append(
                SimulationResult(
                    injection_rate=rep.injection_rate,
                    offered_rate=rep.injection_rate * (1.0 - self._diag_mean),
                    accepted_rate=int(measured[i]) / (window * n),
                    mean_latency=stats.mean_latency,
                    p99_latency=stats.p99_latency,
                    delivered=int(delivered[i]),
                    dropped=int(dropped[i]),
                    backlog=int(backlog[i]),
                    backlog_growth=int(backlog[i] - backlog_at_warmup[i]),
                    measurement_cycles=window,
                    mean_hops=stats.mean_hops,
                    num_nodes=n,
                    queue_peak=int(queue_peak[i]),
                    injected=int(injected[i]),
                    lost=int(lost[i]),
                )
            )
        return results


# ----------------------------------------------------------------------
# Compiled-simulator cache and entry points
# ----------------------------------------------------------------------
#: Attribute holding an algorithm's ``{(shape, traffic bytes): simulator}``
#: map.  Living on the algorithm, the compiled tables die with it (the
#: simulator's back-reference only forms a collectable cycle).
_COMPILED_ATTR = "_compiled_simulators"


def compiled_simulator(
    algorithm: ObliviousRouting, traffic: np.ndarray
) -> VectorizedSimulator:
    """Get (or build) the compiled simulator for ``(algorithm, traffic)``.

    The cache is what lets ``saturation_throughput`` reuse one set of
    path tables across every bisection probe.  It is keyed by the
    traffic matrix's shape and bytes, so equal matrices share tables and
    no two different matrices can.
    """
    per_alg = vars(algorithm).setdefault(_COMPILED_ATTR, {})
    matrix = np.asarray(traffic, dtype=np.float64)
    key = (matrix.shape, matrix.tobytes())
    sim = per_alg.get(key)
    if sim is None:
        sim = VectorizedSimulator(algorithm, traffic)
        per_alg[key] = sim
    return sim


def _emit_replica_spans(
    replicas, results, elapsed: float, cycles: int, backend: str
) -> None:
    """Per-replica ``sim.run`` spans and registry metrics for one batch.

    The batch's wall time is split evenly across replicas — the batched
    loop advances every replica in the same vector operations, so no
    truer per-replica attribution exists.
    """
    tracer = obs.get_tracer()
    share = elapsed / len(replicas) if replicas else 0.0
    for rep, result in zip(replicas, results):
        attrs = _span_attrs(rep.injection_rate, cycles, rep.seed, result)
        attrs["backend"] = backend
        tracer.emit_span("sim.run", dur=share, attrs=attrs)
        _record_sim_metrics(result, cycles, share, backend=backend)


def simulate_replicas(
    algorithm: ObliviousRouting,
    traffic: np.ndarray,
    replicas,
    cycles: int = 2000,
    warmup: int = 500,
    queue_capacity: int | None = None,
    backend: str = DEFAULT_SIM_BACKEND,
) -> list[SimulationResult]:
    """Run an arbitrary replica batch — one kernel launch on the
    ``vectorized`` backend.

    ``replicas`` is a sequence of :class:`Replica` (or raw tuples fed to
    its constructor); results come back in the same order.  The
    ``vectorized`` backend shares one compiled path table and one cycle
    loop for the whole batch and emits a ``sim.batch`` span (with one
    ``sim.run`` span per replica) plus replica-count-labeled metrics;
    ``reference`` runs each replica as an individual per-packet
    ``simulate`` call — the differential oracle for the batched kernel.
    Run lengths are validated up front, so an empty batch rejects the
    same inputs on both backends.
    """
    _check_backend(backend)
    validate_run_length(cycles, warmup, queue_capacity)
    replicas = _as_replicas(replicas)
    if backend == "reference":
        return [
            simulate(
                algorithm,
                traffic,
                rep.to_config(cycles, warmup, queue_capacity),
                backend="reference",
            )
            for rep in replicas
        ]
    with obs.span(
        "sim.batch",
        replicas=len(replicas),
        cycles=int(cycles),
        backend=backend,
    ):
        start = time.perf_counter()
        results = compiled_simulator(algorithm, traffic).run_replicas(
            replicas,
            cycles=cycles,
            warmup=warmup,
            queue_capacity=queue_capacity,
        )
        elapsed = time.perf_counter() - start
        _emit_replica_spans(replicas, results, elapsed, cycles, backend)
    obs.metric_count("sim.batches", backend=backend, replicas=len(replicas))
    obs.metric_count("sim.replicas", len(replicas), backend=backend)
    return results

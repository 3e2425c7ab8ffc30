"""Slot-synchronous population engine for grant-free uplink at scale.

The scalar engine (:mod:`repro.sim.engine` + the :mod:`repro.net`
components) spends most of a multi-UE uplink run on per-packet
machinery: one :class:`~repro.sim.engine.Event` object, several closure
allocations, a handful of dict stamps and — dominating everything — a
scalar ``Generator.lognormal`` round trip per layer transit.  None of
that is needed to *decide* anything: the grant-free uplink path has a
fixed event grammar (arrival → five UE layers → CG planning → window
transmit → link fate → five gNB layers → UPF), so a population of
10k–100k UEs can be driven by a lean mirror executor instead.

:class:`SlottedUplink` replays exactly that grammar on a heap of plain
tuples, with

- all per-packet state held in columnar form (:class:`UePopulation`),
- every lognormal layer draw served from pre-drawn blocks of standard
  normals (:class:`~repro.sim.sampling.LogNormalBlockServer`), one
  exclusive server per ``ue<N>`` stream and one for the shared ``gnb``
  stream,
- pre-queued arrivals kept in a sorted list and merged into the event
  loop, so the live heap holds only in-flight work,
- window arithmetic answered by the flat
  :class:`~repro.mac.opportunities.WindowIndex` and the memoized
  :meth:`~repro.mac.scheduler.GnbMacScheduler.capacity_for_duration`,
- delivered latencies recorded in delivery order by
  :class:`ArrayLatencyProbe`, which duck-types the read API of
  :class:`~repro.net.probes.LatencyProbe`.

Bit-identity contract
---------------------
The mirror is **bit-identical** to the scalar path, not approximately
equal.  Four mechanisms enforce it (all pinned by the golden
equivalence suite in ``tests/integration/test_slotted_equivalence.py``):

1. *Event order by construction.*  The executor pushes mirror events in
   the exact order the scalar handlers call ``schedule``/``call_in``,
   with its own monotone sequence number, so same-tick events execute
   in the scalar engine's order and every shared RNG stream is consumed
   in the same interleaving.
2. *Draw-for-draw RNG equivalence.*  Scalar ``Generator.lognormal``
   consumes exactly one ziggurat standard normal per call;
   :class:`~repro.sim.sampling.LogNormalBlockServer` serves the same
   normals from blocks and reconstructs the value with scalar
   ``math.exp`` (the vectorized ``np.exp`` differs by up to 1 ulp).
   Stateful objects — the link's channel and uniform buffer, the UPF's
   buffered sampler, the fault injectors — are *shared* with the scalar
   wiring rather than reimplemented.
3. *Guarded fusion.*  The per-packet UE draw chain (five transit draws
   plus the PHY-prep draw) is evaluated speculatively via
   ``LogNormalBlockServer.peek`` and committed as one event **only**
   when no other event of the same UE — the sole other consumer of
   that stream — can fall inside the chain's time span (no packet of
   the UE in flight, next arrival at or after the chain end).  When
   the guard fails, the peeked normals are left unconsumed and the
   per-layer event path serves them one at a time, so both paths
   produce the identical value sequence.  Fusion is disabled entirely
   when tracing, because the trace stream must interleave per-layer.
4. *A real clock for the side effects.*  Fault hooks and the tracer
   read ``sim.now``; with either active the executor moves the
   simulator's clock forward with
   :meth:`~repro.sim.engine.Simulator.advance_to` at every event.

Scope: grant-free uplink data only, no radio heads, no gNB CPU
contention, layer delays drawn from log-normal/constant samplers (the
calibrated ones are).  :func:`ineligibility` states the first violated
requirement; ``RanConfig(engine="auto")`` silently keeps the scalar
path in that case, ``engine="slotted"`` raises.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from repro.mac.types import AccessMode
from repro.net.probes import LatencySummary, summarize_us
from repro.phy.channel import IidErasureChannel, PerfectChannel
from repro.phy.timebase import TC_PER_SECOND, tc_from_us, us_from_tc
from repro.sim.distributions import Constant, DelaySampler, LogNormal
from repro.sim.sampling import (DEFAULT_BLOCK, LogNormalBlockServer,
                                buffering_enabled)
from repro.stack.packets import HEADER_BYTES, LatencySource

if TYPE_CHECKING:
    from repro.net.session import RanSystem

__all__ = ["ArrayLatencyProbe", "UePopulation", "SlottedUplink",
           "ineligibility"]

#: UE transmit layers in traversal order (mirrors ``repro.net.ue``).
_UE_LAYERS = ("APP", "SDAP", "PDCP", "RLC", "MAC")
#: Header bytes each UE layer's exit adds (APP adds none).
_UE_HEADER_DELTAS = (0, HEADER_BYTES["SDAP"], HEADER_BYTES["PDCP"],
                     HEADER_BYTES["RLC"], HEADER_BYTES["MAC"])
_UE_WIRE_HEADER = sum(_UE_HEADER_DELTAS)
#: gNB uplink layers in traversal order (mirrors ``repro.net.gnb``).
_GNB_LAYERS = ("PHY", "MAC", "RLC", "PDCP", "SDAP")
_GNB_CATEGORIES = tuple(f"gnb.up.{name.lower()}" for name in _GNB_LAYERS)

# Mirror event codes.  Each heap entry is a plain tuple
# ``(time, seq, code, ...)``; ``(time, seq)`` is unique so later
# elements are never compared.
_UE_LAYER = 1       # (t, seq, code, row, layer_k, delay_us, submitted)
_TRANSMIT = 2       # (t, seq, code, ue, window_start)
_DELIVER = 3        # (t, seq, code, rows)
_GNB_LAYER = 5      # (t, seq, code, row, layer_k, delay_us, submitted)
_UPF_DONE = 6       # (t, seq, code, row, submitted)
_RETRANSMIT = 7     # (t, seq, code, ue, rows)
_PLAN = 8           # (t, seq, code, row, ue) — fused-chain MAC exit
_AIR = 9            # (t, seq, code, ue, window_start) — transmit+fly
                    # folded into one landing event (never-fail links)

# Compiled layer-draw kinds: a draw-free constant value, or one
# lognormal draw with fixed (mu, sigma).
_KIND_CONST = 0
_KIND_LOGNORMAL = 1

#: Sentinel "no further arrival" time for the fusion guard.
_FAR_FUTURE = 1 << 62

_US_PER_SECOND = 1_000_000


def _compile_sampler(sampler: DelaySampler) -> tuple[int, float, float]:
    """Lower one layer sampler to a ``(kind, a, b)`` draw recipe.

    Mirrors :meth:`repro.sim.distributions.LogNormal.sample` exactly,
    including the degenerate draw-free branches (``mean==0`` and
    ``std==0`` return without touching the stream).
    """
    if isinstance(sampler, Constant):
        return (_KIND_CONST, sampler.value_us, 0.0)
    if isinstance(sampler, LogNormal):
        if sampler.mean_us == 0:
            return (_KIND_CONST, 0.0, 0.0)
        if sampler.std_us == 0:
            return (_KIND_CONST, sampler.mean_us, 0.0)
        mu, sigma = sampler.log_params
        return (_KIND_LOGNORMAL, mu, sigma)
    raise ValueError(
        f"slotted engine requires LogNormal/Constant layer delays, "
        f"got {type(sampler).__name__}")


def ineligibility(system: "RanSystem") -> str | None:
    """Why ``system`` cannot run the slotted engine (None = it can)."""
    config = system.config
    if config.access is not AccessMode.GRANT_FREE:
        return "slotted engine supports grant-free access only"
    if config.gnb_radio_head is not None \
            or config.ue_radio_head is not None:
        return "slotted engine does not model radio heads"
    if config.gnb_cpu_cores is not None:
        return "slotted engine does not model gNB CPU contention"
    samplers = list(system._ue_tx_delays().values())
    samplers += [layer.delay for layer in system.gnb.up_pipeline.layers]
    for sampler in samplers:
        if not isinstance(sampler, (Constant, LogNormal)):
            return (f"slotted engine requires LogNormal/Constant layer "
                    f"delays, got {type(sampler).__name__}")
    return None


class ArrayLatencyProbe:
    """Delivery-order latency recorder with compact storage.

    Exposes the read API of :class:`~repro.net.probes.LatencyProbe`
    (``len``, ``latencies_*``, ``summary``, ``budget_means_us``,
    ``fraction_within``) without holding a :class:`Packet` per
    delivery: one int latency per packet plus three running budget
    totals.  Float summaries are computed through the same
    ``us_from_tc``/``summarize_us`` path as the scalar probe, so the
    numbers are bitwise those of the scalar run.
    """

    def __init__(self, name: str = "probe"):
        self.name = name
        self._latencies_tc: list[int] = []
        self._budget_totals: dict[LatencySource, int] = {
            source: 0 for source in LatencySource}

    def record_tc(self, latency_tc: int, processing_tc: int,
                  protocol_tc: int, radio_tc: int) -> None:
        """Record one delivery (call in delivery order)."""
        self._latencies_tc.append(latency_tc)
        totals = self._budget_totals
        totals[LatencySource.PROCESSING] += processing_tc
        totals[LatencySource.PROTOCOL] += protocol_tc
        totals[LatencySource.RADIO] += radio_tc

    # ------------------------------------------------------------------
    # LatencyProbe read API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._latencies_tc)

    def latencies_tc(self) -> list[int]:
        return list(self._latencies_tc)

    def latencies_us(self) -> list[float]:
        return [us_from_tc(lat) for lat in self._latencies_tc]

    def latencies_ms(self) -> list[float]:
        return [lat / 1000.0 for lat in self.latencies_us()]

    def summary(self) -> LatencySummary:
        return summarize_us(self.latencies_us())

    def budget_means_us(self) -> dict[str, float]:
        """Mean per-source latency decomposition (§4's three sources)."""
        if not self._latencies_tc:
            return {source.value: 0.0 for source in LatencySource}
        count = len(self._latencies_tc)
        return {source.value: us_from_tc(total / count)
                for source, total in self._budget_totals.items()}

    def fraction_within(self, budget_us: float) -> float:
        """Fraction of packets delivered within a latency budget —
        the reliability metric of §6."""
        if not self._latencies_tc:
            return 0.0
        within = sum(1 for lat in self.latencies_us()
                     if lat <= budget_us)
        return within / len(self._latencies_tc)


class UePopulation:
    """Columnar per-packet and per-UE state for the slotted engine.

    All fields are parallel Python lists — per-packet columns indexed
    by a dense packet row number, per-UE counters indexed by UE id.
    Plain-int appends and in-place ``+=`` beat numpy scalar indexing
    on this access pattern (a ``arr[i] += 1`` on an int64 array costs
    ~5× a list element update).  100k UEs × a few packets each stay
    within a few hundred MB — no :class:`Packet`, no timestamp dicts,
    no per-event closures.
    """

    def __init__(self, n_ues: int):
        if n_ues < 1:
            raise ValueError(f"population needs >= 1 UE, got {n_ues}")
        self.n_ues = n_ues
        #: per-UE counters (index 0 unused; UE ids are 1-based).
        self.blocks_sent = [0] * (n_ues + 1)
        self.queued = [0] * (n_ues + 1)
        # per-packet columns (parallel lists, row = packet index)
        self.ue: list[int] = []
        self.packet_id: list[int] = []
        self.payload: list[int] = []
        self.header: list[int] = []
        self.created: list[int] = []
        self.retx: list[int] = []
        self.dropped: list[bool] = []
        self.budget_processing: list[int] = []
        self.budget_protocol: list[int] = []
        self.budget_radio: list[int] = []
        self.delivered_tc: list[int] = []

    def add_packet(self, ue_id: int, packet_id: int, payload_bytes: int,
                   created_tc: int) -> int:
        """Append one packet row; returns its index."""
        if payload_bytes <= 0:
            raise ValueError(
                f"payload must be positive, got {payload_bytes}")
        if created_tc < 0:
            raise ValueError("creation time must be >= 0")
        self.ue.append(ue_id)
        self.packet_id.append(packet_id)
        self.payload.append(payload_bytes)
        self.header.append(0)
        self.created.append(created_tc)
        self.retx.append(0)
        self.dropped.append(False)
        self.budget_processing.append(0)
        self.budget_protocol.append(0)
        self.budget_radio.append(0)
        self.delivered_tc.append(-1)
        self.queued[ue_id] += 1
        return len(self.ue) - 1

    def __len__(self) -> int:
        return len(self.ue)


class SlottedUplink:
    """Mirror executor for the grant-free uplink event grammar.

    Constructed by :class:`~repro.net.session.RanSystem` when the
    slotted engine is selected; raises :class:`ValueError` when the
    configuration falls outside the supported envelope (see
    :func:`ineligibility`).
    """

    def __init__(self, system: "RanSystem"):
        reason = ineligibility(system)
        if reason is not None:
            raise ValueError(reason)
        self._system = system
        self.sim = system.sim
        self.tracer = system.tracer
        self.link = system.link
        self.upf = system.upf
        self.scheduler = system.gnb.scheduler
        self.faults = system.faults
        self.probe = ArrayLatencyProbe("ul")
        self.population = UePopulation(system.config.n_ues)
        self.cg_share = system.cg_share

        # Window arithmetic: the flat index over the UL timeline plus
        # the UE-side minimum transmission length (two symbols, as in
        # repro.net.ue.Ue).
        self._windex = system.scheme.ul_timeline().index()
        symbol_tc = (system.scheme.numerology.slot_duration_tc // 14)
        self.min_tx_tc = max(1, 2 * symbol_tc)
        # Per-UE CG capacity memo keyed by window duration (the share
        # is fixed for the run, so one int per distinct duration).
        self._cap_cache: dict[int, int] = {}

        # Compiled layer tables.  UE side: APP..MAC transit draws plus
        # the PHY preparation draw, all on the per-UE stream.  gNB
        # side: the up-pipeline's five transit draws on the "gnb"
        # stream, optionally dilated by the fault harness.
        tx_delays = system._ue_tx_delays()
        self._ue_specs = tuple(_compile_sampler(tx_delays[name])
                               for name in _UE_LAYERS)
        self._prep_spec = _compile_sampler(tx_delays["PHY"])
        self._gnb_specs = tuple(
            _compile_sampler(layer.delay)
            for layer in system.gnb.up_pipeline.layers)
        self._dilation = (self.faults.processing_dilation
                          if self.faults is not None else None)

        # Exclusive block-served RNG streams.  Per-UE servers are
        # created lazily (sized from the UE's queued-packet count); the
        # gNB server is created on first delivery.
        self._rngs = system.rngs
        self._ue_servers: dict[int, LogNormalBlockServer] = {}
        self._gnb_server: LogNormalBlockServer | None = None

        # Pre-queued arrivals: (time, seq, row) tuples, sorted at run
        # start and merged into the loop so the live heap stays small.
        self._arrivals: list[tuple[int, int, int]] = []
        # Mirror event heap with its own monotone sequence counter —
        # pushes happen in the exact order the scalar handlers call
        # schedule/call_in, so same-tick ordering matches.
        self._heap: list[tuple] = []
        self._seq = 0
        # Open CG plans: (ue_id, window_start) -> [window_k, rows, bytes]
        self._plans: dict[tuple[int, int], list] = {}
        # Completion times (arrival at the gNB) of every planned
        # transmission still in the air — the gNB-side fusion guard: a
        # fused gNB chain must finish strictly before the next block
        # lands, else its draws could interleave with that block's.
        self._air_times: list[int] = []
        self._prop_tc = system.link.propagation_tc
        # Packets of each UE that may still draw on the UE's stream —
        # the UE-side fusion guard.  A packet's last possible UE-stream
        # draw is its PHY-prep (retransmission preps excepted), so the
        # count drops at the prep draw when the link can never fail,
        # and at transmit success / HARQ drop otherwise.
        self._ue_hot = [0] * (system.config.n_ues + 1)
        channel = system.link.channel
        self._can_fail = (system.link.fault_gate is not None
                          or not (isinstance(channel, PerfectChannel)
                                  or (isinstance(channel,
                                                 IidErasureChannel)
                                      and channel.bler == 0.0)))
        # Set by run(): transmissions neither fail nor draw, so the
        # window-end hop is folded into the landing event (_AIR).
        self._fast_tx = False
        # Lazy per-UE trace category tuples (built only when tracing).
        self._trace_cats: dict[int, tuple[str, ...]] = {}
        self._ran = False

    # ------------------------------------------------------------------
    # seeding
    # ------------------------------------------------------------------
    def queue_uplink(self, arrivals: list[int], payload_bytes: int,
                     ue_id: int) -> None:
        """Buffer UL data arrivals (mirror of ``RanSystem.queue_uplink``
        — one pending entry per packet, seq in call order)."""
        if not 1 <= ue_id <= self.population.n_ues:
            raise ValueError(
                f"ue_id must be in 1..{self.population.n_ues}, "
                f"got {ue_id}")
        if self._ran:
            raise RuntimeError(
                "slotted engine cannot queue traffic after run()")
        packet_ids = self._system._packet_ids
        pop = self.population
        pending = self._arrivals
        for arrival in arrivals:
            row = pop.add_packet(ue_id, next(packet_ids),
                                 payload_bytes, arrival)
            self._seq = seq = self._seq + 1
            pending.append((arrival, seq, row))

    # ------------------------------------------------------------------
    # RNG servers
    # ------------------------------------------------------------------
    def _ue_server(self, ue_id: int) -> LogNormalBlockServer:
        server = self._ue_servers.get(ue_id)
        if server is None:
            # Six draws per fault-free packet transit (five layers +
            # PHY prep); size the block to serve the whole UE in one
            # vectorized draw, with headroom for retransmission preps.
            queued = int(self.population.queued[ue_id])
            block = min(DEFAULT_BLOCK, max(8, 6 * queued + 2))
            server = LogNormalBlockServer(
                self._rngs.stream(f"ue{ue_id}"), block)
            self._ue_servers[ue_id] = server
        return server

    def _gnb_rng_server(self) -> LogNormalBlockServer:
        server = self._gnb_server
        if server is None:
            total = len(self.population)
            block = min(4 * DEFAULT_BLOCK, max(64, 5 * total))
            server = LogNormalBlockServer(
                self._rngs.stream("gnb"), block)
            self._gnb_server = server
        return server

    def _categories(self, ue_id: int) -> tuple[str, ...]:
        cats = self._trace_cats.get(ue_id)
        if cats is None:
            cats = tuple(f"ue{ue_id}.{name.lower()}"
                         for name in _UE_LAYERS)
            self._trace_cats[ue_id] = cats
        return cats

    # ------------------------------------------------------------------
    # the executor
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drain pending arrivals and the mirror heap (the slotted
        ``run_until_idle``).

        The body is one deliberately monolithic loop: at 100k UEs every
        event dispatch runs millions of times, so the hot handlers (gNB
        layer transits, deliveries, UPF completions) are inlined with
        local aliases instead of going through methods.  Cold handlers
        (CG planning, transmission, retransmission) stay methods.
        """
        self._ran = True
        tracer = self.tracer
        emit = tracer.emit if tracer.enabled else None
        # Tracing needs per-layer emissions in event order; fault hooks
        # read sim.now.  Either one forces the per-event path / clock.
        fuse_ue = emit is None
        precise = emit is not None or self.faults is not None

        arrivals = sorted(self._arrivals)
        n_arr = len(arrivals)
        # Fusion guard input: the next arrival time of the same UE.  A
        # chain ending at or before it cannot interleave with any other
        # consumer of the UE's stream (given nothing is in flight).
        pop = self.population
        ue_col = pop.ue
        next_same = [_FAR_FUTURE] * n_arr
        last_seen: dict[int, int] = {}
        for i in range(n_arr):
            u = ue_col[arrivals[i][2]]
            j = last_seen.get(u)
            if j is not None:
                next_same[j] = arrivals[i][0]
            last_seen[u] = i

        # Local aliases for the hot loop.
        heap = self._heap
        sim = self.sim
        advance = sim.advance_to
        exp = math.exp
        pid_col = pop.packet_id
        created = pop.created
        bp = pop.budget_processing
        brad = pop.budget_radio
        delivered_col = pop.delivered_tc
        ue_hot = self._ue_hot
        can_fail = self._can_fail
        ue_specs = self._ue_specs
        gnb_specs = self._gnb_specs
        chain_draws = sum(1 for spec in ue_specs if spec[0])
        prep_kind, prep_a, prep_b = self._prep_spec
        peek_n = chain_draws + (1 if prep_kind else 0)
        gnb_draws = sum(1 for spec in gnb_specs if spec[0])
        # Chain-total form of the UE specs: the total transit is a sum,
        # so constant layers collapse to one precomputed term and the
        # lognormal ones zip against the peeked normals (stream order
        # is preserved — only lognormal layers consume a draw).
        ue_ln = [(a, b) for kind, a, b in ue_specs if kind]
        ue_const_tc = sum(round(a * TC_PER_SECOND / _US_PER_SECOND)
                          for kind, a, _b in ue_specs if not kind)
        servers = self._ue_servers
        dilation = self._dilation
        gserver = self._gnb_rng_server()
        gsample = gserver.sample
        # The gnb stream is drawn 5× per packet in data-dependent
        # order; serving those draws through sample() costs a method
        # call each.  Instead, normals are pulled from the server in
        # committed chunks into a plain list and indexed inline — the
        # refills happen on the server's whole-block grid either way,
        # so the served sequence is unchanged.  When block drawing is
        # disabled (force_sequential) the chunk pull reports failure
        # and every draw falls back to the scalar sample() path.
        gchunk = 1024
        gbuf: list[float] = []
        gi = 0
        gn = 0

        def _gtopup() -> bool:
            nonlocal gbuf, gi, gn
            fresh = gserver.peek(gchunk)
            if fresh is None:
                return False
            gserver.commit(gchunk)
            gbuf = gbuf[gi:] + fresh.tolist()
            gn = len(gbuf)
            gi = 0
            return True

        def _gdraw(a: float, b: float) -> float:
            nonlocal gi
            if _gtopup():
                z = gbuf[gi]
                gi += 1
                return exp(a + b * z)
            return gsample(a, b)

        # gNB-side fusion additionally requires fault-free layers (the
        # dilation hook reads per-category state in event order).
        fuse_gnb = fuse_ue and dilation is None
        air_times = self._air_times
        gnb_busy = 0  # gNB chains running on the per-layer event path
        upf = self.upf
        upf_sample = upf.delay.sample
        upf_rng = upf.rng
        upf_outage = upf.outage
        # The upf stream gets the same committed-chunk treatment as the
        # gnb stream; its BufferedSampler serves *transformed* delay
        # values, so the chunks hold microseconds, not normals.
        upf_peek = getattr(upf.delay, "peek", None)
        upf_commit = getattr(upf.delay, "commit", None)
        uchunk = 1024
        ubuf: list[float] = []
        ui = 0
        un = 0

        def _utopup() -> bool:
            nonlocal ubuf, ui, un
            if upf_peek is None:
                return False
            fresh = upf_peek(uchunk)
            if fresh is None:
                return False
            upf_commit(uchunk)
            ubuf = ubuf[ui:] + fresh.tolist()
            un = len(ubuf)
            ui = 0
            return True

        def _udraw() -> float:
            nonlocal ui
            if _utopup():
                value = ubuf[ui]
                ui += 1
                return value
            return upf_sample(upf_rng)

        gnb_counters = self._system.gnb.counters
        probe = self.probe
        lat_append = probe._latencies_tc.append
        tot_proc = tot_prot = tot_rad = 0
        # Pure-sum counters accumulate in locals and flush once after
        # the loop (attribute += on the dataclasses costs real time at
        # one-per-block rates).
        cg_alloc_acc = cg_used_acc = blocks_acc = out_acc = 0

        # CG planning + transmission, inlined.  The _PLAN handler only
        # ever fires on the fused path (emit is None), so its inline
        # form needs no trace branch; _TRANSMIT additionally gets a
        # fast path when the link can neither fail nor draw (perfect
        # channel, no fault gate, no uniform buffer).
        rnd = round
        TCS = TC_PER_SECOND
        USP = _US_PER_SECOND
        plans = self._plans
        windex = self._windex
        w_starts = windex.starts
        w_ends = windex.ends
        w_durs = windex.durations
        nwin = windex.n_windows
        period = windex.period_tc
        # One capacity per base window, precomputed: the CG-capacity
        # memo behind _cg_capacity only ever sees these durations.
        cap_by_base = [self._cg_capacity(d) for d in w_durs]
        w_first_after = windex.first_ending_after
        min_tx = self.min_tx_tc
        payload = pop.payload
        header = pop.header
        bprot = pop.budget_protocol
        link = self.link
        link_counters = link.counters
        prop_tc = self._prop_tc
        sched_counters = self.scheduler.counters
        pop_blocks = pop.blocks_sent
        fast_tx = (not can_fail and emit is None
                   and link._uniforms is None
                   and link.fault_gate is None)
        self._fast_tx = fast_tx
        if fast_tx:
            link.last_fault_fate = None

        # UPF completions have no side effects beyond the probe, so in
        # imprecise runs (no tracer, no fault hooks reading the clock)
        # they skip the heap entirely and are drained — in the same
        # (time, seq) order the heap would have given — after the loop.
        defer_done = not precise
        done: list[tuple[int, int, int, int]] = []
        done_append = done.append
        last_t = sim.now
        ai = 0

        # Plan pre-pass.  In never-fail untraced runs every packet is
        # planned exactly once after a fixed draw-count transit, so the
        # whole UE side collapses to a per-UE pre-pass: the chain math
        # is vectorized over all of a UE's arrivals at once (each
        # packet owns draws [i*peek_n, (i+1)*peek_n) of its stream),
        # and the rare overlapping chains are replayed draw-for-draw on
        # a local heap in the scalar engine's (time, seq) order.  The
        # resulting plan stream — (chain_end, arrival_seq, row, ue,
        # prep_us), sorted — merges into the main loop like the arrival
        # stream, and no _PLAN or _UE_LAYER event ever reaches the
        # heap.  Exactly peek_n draws commit per packet on either
        # branch, so the sequential layout realigns after every
        # cluster and the vectorized values stay valid.
        plan_list: list[tuple[int, int, int, int, float]] = []
        pi = 0
        n_plans = 0
        fast_plan = (fuse_ue and not can_fail and not precise
                     and n_arr > 0 and buffering_enabled())
        if fast_plan:
            by_ue: dict[int, list[tuple[int, int, int]]] = {}
            for entry in arrivals:
                by_ue.setdefault(ue_col[entry[2]], []).append(entry)
            ln_mu = np.array([a for kind, a, _b in ue_specs if kind]
                             + ([prep_a] if prep_kind else []))
            ln_sig = np.array([b for kind, _a, b in ue_specs if kind]
                              + ([prep_b] if prep_kind else []))
            kind0, a0, b0 = ue_specs[0]
            for u, entries in by_ue.items():
                server = servers.get(u)
                if server is None:
                    server = self._ue_server(u)
                m = len(entries)
                zz = server.peek(peek_n * m)
                if zz is None:
                    raise RuntimeError(
                        "block drawing disabled mid-run")
                # The exp stays scalar libm — np.exp differs from
                # math.exp by 1 ulp on some inputs, and bit-identity
                # tolerates none.  np.rint on these magnitudes is
                # bitwise round().
                args = np.tile(ln_mu, m) + np.tile(ln_sig, m) * zz
                vals = list(map(exp, args.tolist()))
                tcs = np.rint(np.asarray(vals) * TCS / USP)
                tcs = tcs.astype(np.int64).reshape(m, peek_n)
                chain = (tcs[:, :chain_draws].sum(axis=1)
                         + ue_const_tc)
                ends = (np.fromiter((e[0] for e in entries),
                                    np.int64, m) + chain).tolist()
                chain_l = chain.tolist()
                zzl: list[float] | None = None
                i = 0
                c = 0
                while i < m:
                    a_i, aseq_i, row_i = entries[i]
                    nxt = (entries[i + 1][0] if i + 1 < m
                           else _FAR_FUTURE)
                    end_i = ends[i]
                    if nxt > end_i:
                        # Strictly-later next arrival: the sequential
                        # layout is the true draw order and the
                        # vectorized values stand.
                        plan_list.append((
                            end_i, aseq_i, row_i, u,
                            vals[c + chain_draws] if prep_kind
                            else prep_a))
                        bp[row_i] += chain_l[i]
                        header[row_i] = _UE_WIRE_HEADER
                        i += 1
                        c += peek_n
                        continue
                    # Overlap cluster: interleaved replay.  Arrivals
                    # admit before any local event at or after them
                    # (queue-time seqs sort first in the scalar heap);
                    # local ties break on push order, the scalar seq
                    # order for same-tick events.
                    if zzl is None:
                        zzl = zz.tolist()
                    i += 1
                    if kind0:
                        d = exp(a0 + b0 * zzl[c])
                        c += 1
                    else:
                        d = a0
                    mini = [(a_i + rnd(d * TCS / USP), 0, row_i, 0,
                             aseq_i, a_i)]
                    order = 1
                    while mini:
                        while (i < m
                               and entries[i][0] <= mini[0][0]):
                            a_j, sq_j, r_j = entries[i]
                            i += 1
                            if kind0:
                                d = exp(a0 + b0 * zzl[c])
                                c += 1
                            else:
                                d = a0
                            heappush(mini, (
                                a_j + rnd(d * TCS / USP), order,
                                r_j, 0, sq_j, a_j))
                            order += 1
                        tau, _o, r_j, k, sq_j, a_j = heappop(mini)
                        k += 1
                        if k < 5:
                            kk, aa, bb = ue_specs[k]
                            if kk:
                                d = exp(aa + bb * zzl[c])
                                c += 1
                            else:
                                d = aa
                            heappush(mini, (
                                tau + rnd(d * TCS / USP), order,
                                r_j, k, sq_j, a_j))
                            order += 1
                        else:
                            # MAC exit: PHY-prep draw, plan recorded.
                            if prep_kind:
                                prep_us = exp(prep_a
                                              + prep_b * zzl[c])
                                c += 1
                            else:
                                prep_us = prep_a
                            plan_list.append((tau, sq_j, r_j, u,
                                              prep_us))
                            bp[r_j] += tau - a_j
                            header[r_j] = _UE_WIRE_HEADER
                server.commit(peek_n * m)
            plan_list.sort()
            n_plans = len(plan_list)
            ai = n_arr  # arrivals fully consumed by the pre-pass

        while True:
            # Merge: pre-passed plan vs pending arrival vs heap top,
            # in (time, seq) order.  At most one of the side streams
            # is live (fast_plan consumes all arrivals), and their
            # seqs predate all runtime seqs, so same-tick ties resolve
            # to the side stream — as in the scalar engine, where
            # queue-time schedule() calls get the earliest sequence
            # numbers.
            if pi < n_plans and (not heap or plan_list[pi] < heap[0]):
                # Inline CG window scan (the _PLAN handler's body).
                # fast_plan guarantees imprecise-clock mode, a drawn
                # prep, and a first transmission.
                t, _aseq, row, u, prep_us = plan_list[pi]
                pi += 1
                last_t = t
                prep_tc = rnd(prep_us * TCS / USP)
                ready = t + prep_tc
                wire = payload[row] + header[row]
                cyc, rem = divmod(ready, period)
                base = bisect_right(w_ends, rem)
                if base == nwin:
                    cyc += 1
                    base = 0
                k = cyc * nwin + base
                empty = 0
                while True:
                    if empty > nwin:
                        raise LookupError(
                            "no usable configured-grant window found")
                    cyc, base = divmod(k, nwin)
                    off = cyc * period
                    start = w_starts[base] + off
                    end = w_ends[base] + off
                    entry = ready if ready > start else start
                    if end - entry < min_tx:
                        empty += 1
                        k += 1
                        continue
                    key = (u, start)
                    plan = plans.get(key)
                    capacity = cap_by_base[base]
                    used = plan[2] if plan is not None else 0
                    if used + wire > capacity:
                        if plan is None:
                            empty += 1
                        k += 1
                        continue
                    if plan is None:
                        plans[key] = [k, [row], used + wire]
                        self._seq = seq = self._seq + 1
                        if fast_tx:
                            heappush(heap, (end + prop_tc, seq,
                                            _AIR, u, start))
                        else:
                            heappush(heap, (end, seq, _TRANSMIT, u,
                                            start))
                            heappush(air_times, end + prop_tc)
                    else:
                        plan[1].append(row)
                        plan[2] += wire
                    bp[row] += prep_tc
                    bprot[row] += end - t - prep_tc
                    break
                continue
            if ai < n_arr and (not heap or arrivals[ai] < heap[0]):
                t, _aseq, row = arrivals[ai]
                ai += 1
                u = ue_col[row]
                if precise:
                    advance(t)
                else:
                    last_t = t
                if emit is not None:
                    emit(t, self._categories(u)[0], "send",
                         packet_id=pid_col[row])
                if fuse_ue and ue_hot[u] == 0 and chain_draws:
                    server = servers.get(u)
                    if server is None:
                        server = self._ue_server(u)
                    # Serve the peek straight off the server's block
                    # buffer when it holds enough normals (the common
                    # case — blocks are sized to the UE's whole queue);
                    # peek() itself only runs on refills.  The consume
                    # below advances _pos exactly as commit() would.
                    zs = None
                    buf = server._buf
                    if buf is not None:
                        pos = server._pos
                        if len(buf) - pos >= peek_n:
                            zs = buf[pos:pos + peek_n].tolist()
                    if zs is None:
                        peeked = server.peek(peek_n)
                        if peeked is not None:
                            # Python-float math: np.float64 scalar ops
                            # cost ~4× (same IEEE results either way).
                            zs = peeked.tolist()
                    if zs is not None:
                        total = ue_const_tc
                        for zi, (a, b) in enumerate(ue_ln):
                            total += rnd(exp(a + b * zs[zi]) * TCS
                                         / USP)
                        end = t + total
                        # Strictly-later next arrival: every chain draw
                        # *and* the PHY-prep draw at the chain end
                        # precede the UE's next stream consumer, so the
                        # whole span commits as one event.
                        if next_same[ai - 1] > end:
                            if prep_kind:
                                prep_us = exp(prep_a
                                              + prep_b
                                              * zs[chain_draws])
                                server._pos += peek_n
                            else:
                                prep_us = prep_a
                                server._pos += chain_draws
                            bp[row] += total
                            pop.header[row] = _UE_WIRE_HEADER
                            if can_fail:
                                ue_hot[u] = 1
                            self._seq = seq = self._seq + 1
                            heappush(heap, (end, seq, _PLAN, row, u,
                                            prep_us))
                            continue
                # Per-layer event path (tracing, forced-sequential
                # sampling, or a chain that may interleave).
                ue_hot[u] += 1
                self._enter_ue_layer(row, 0, t)
                continue
            if not heap:
                break
            event = heappop(heap)
            t = event[0]
            if precise:
                advance(t)
            else:
                last_t = t
            code = event[2]

            if code == _GNB_LAYER:
                row = event[3]
                k = event[4]
                bp[row] += t - event[6]
                if emit is not None:
                    emit(t, _GNB_CATEGORIES[k], "exit",
                         packet_id=pid_col[row], layer=_GNB_LAYERS[k],
                         delay_us=event[5])
                k += 1
                if k < 5:
                    kind, a, b = gnb_specs[k]
                    if kind:
                        if gi < gn:
                            delay_us = exp(a + b * gbuf[gi])
                            gi += 1
                        else:
                            delay_us = _gdraw(a, b)
                    else:
                        delay_us = a
                    if dilation is not None:
                        delay_us = delay_us * dilation(
                            _GNB_CATEGORIES[k])
                    if emit is not None:
                        emit(t, _GNB_CATEGORIES[k], "enter",
                             packet_id=pid_col[row],
                             layer=_GNB_LAYERS[k])
                    self._seq = seq = self._seq + 1
                    heappush(heap, (
                        t + rnd(delay_us * TCS / USP),
                        seq, _GNB_LAYER, row, k, delay_us, t))
                else:
                    # SDAP exit: gNB hands the packet to the UPF
                    # (mirror of Gnb._ul_done + Upf._process).
                    gnb_busy -= 1
                    gnb_counters.ul_packets_out += 1
                    if ui < un:
                        upf_us = ubuf[ui]
                        ui += 1
                    else:
                        upf_us = _udraw()
                    delay_tc = rnd(upf_us * TCS / USP)
                    if upf_outage is not None:
                        delay_tc += upf_outage()
                    if emit is not None:
                        emit(t, "upf", "ul_forward",
                             packet_id=pid_col[row])
                    self._seq = seq = self._seq + 1
                    if defer_done:
                        done_append((t + delay_tc, seq, row, t))
                    else:
                        heappush(heap, (t + delay_tc, seq, _UPF_DONE,
                                        row, t))
            elif code == _UPF_DONE:
                row = event[3]
                proc = bp[row] + (t - event[4])
                bp[row] = proc
                delivered_col[row] = t
                lat_append(t - created[row])
                tot_proc += proc
                tot_prot += bprot[row]
                tot_rad += brad[row]
            elif code == _AIR or code == _DELIVER:
                if code == _AIR:
                    # Landing of a folded transmission: pop the plan
                    # and charge the window-end bookkeeping _transmit
                    # would have done one propagation delay earlier.
                    # All of it is counter sums, so the shift cannot
                    # reorder anything observable.
                    u = event[3]
                    window_k, rows, used = plans.pop((u, event[4]))
                    pop_blocks[u] += 1
                    capacity = cap_by_base[window_k % nwin]
                    cg_alloc_acc += capacity
                    cg_used_acc += (used if used <= capacity
                                    else capacity)
                    blocks_acc += 1
                    for row in rows:
                        brad[row] += prop_tc
                else:
                    rows = list(event[3])
                    # Retire this block's own air-time entry (== t)
                    # plus any stale entries of failed blocks it has
                    # passed.  (fast_tx runs keep no air-time heap at
                    # all: nothing fails, and every landing sits on
                    # the window-end + propagation grid, so the next
                    # landing is read off the window index instead.)
                    while air_times[0] < t:
                        heappop(air_times)
                    heappop(air_times)
                if fuse_gnb and gnb_busy == 0:
                    # Cohort fusion.  Slot alignment makes blocks land
                    # in same-tick batches (every UL transmission
                    # completes at a window end), so sibling deliveries
                    # are collected and their gNB chains simulated on a
                    # local heap keyed (time, push order) — the exact
                    # (time, seq) merge order the scalar engine gives
                    # those events.  If the whole cohort drains
                    # strictly before the next landing, its gnb-stream
                    # draws and UPF forward draws are consumed in
                    # scalar order and the result commits; otherwise
                    # everything falls back to the per-layer path.
                    while (heap and heap[0][0] == t
                           and heap[0][2] == code):
                        sib = heappop(heap)
                        if code == _AIR:
                            su = sib[3]
                            window_k, srows, used = plans.pop(
                                (su, sib[4]))
                            pop_blocks[su] += 1
                            capacity = cap_by_base[window_k % nwin]
                            cg_alloc_acc += capacity
                            cg_used_acc += (
                                used if used <= capacity else capacity)
                            blocks_acc += 1
                            for row in srows:
                                brad[row] += prop_tc
                            rows.extend(srows)
                        else:
                            heappop(air_times)
                            rows.extend(sib[3])
                    if code == _AIR:
                        nk = w_first_after(t - prop_tc)
                        na = ((nk // nwin) * period
                              + w_ends[nk % nwin] + prop_tc)
                    else:
                        na = (air_times[0] if air_times
                              else _FAR_FUTURE)
                    need = gnb_draws * len(rows)
                    while gn - gi < need and _gtopup():
                        pass
                    if na > t and gn - gi >= need and len(rows) == 1:
                        # One-block cohort: the chain is a straight
                        # line, no merge order to reproduce.
                        row = rows[0]
                        tau = t
                        zi = 0
                        for kind, a, b in gnb_specs:
                            if kind:
                                d = exp(a + b * gbuf[gi + zi])
                                zi += 1
                            else:
                                d = a
                            tau += rnd(d * TCS / USP)
                        gi += zi
                        out_acc += 1
                        bp[row] += tau - t
                        if ui < un:
                            upf_us = ubuf[ui]
                            ui += 1
                        else:
                            upf_us = _udraw()
                        delay_tc = rnd(upf_us * TCS / USP)
                        if upf_outage is not None:
                            delay_tc += upf_outage()
                        self._seq = seq = self._seq + 1
                        if defer_done:
                            done_append((tau + delay_tc, seq, row,
                                         tau))
                        else:
                            heappush(heap, (tau + delay_tc, seq,
                                            _UPF_DONE, row, tau))
                        continue
                    if na > t and gn - gi >= need:
                        zi = 0
                        order = 0
                        mini = []
                        kind0, a0, b0 = gnb_specs[0]
                        for row in rows:
                            if kind0:
                                d = exp(a0 + b0 * gbuf[gi + zi])
                                zi += 1
                            else:
                                d = a0
                            mini.append((
                                t + rnd(d * TCS / USP),
                                order, row, 0))
                            order += 1
                        heapify(mini)
                        exits = []
                        max_end = 0
                        while mini:
                            tau, _o, row, k = heappop(mini)
                            k += 1
                            if k < 5:
                                kind, a, b = gnb_specs[k]
                                if kind:
                                    d = exp(a + b * gbuf[gi + zi])
                                    zi += 1
                                else:
                                    d = a
                                heappush(mini, (
                                    tau + rnd(d * TCS / USP),
                                    order, row, k))
                                order += 1
                            else:
                                exits.append((tau, row))
                                if tau > max_end:
                                    max_end = tau
                        if max_end < na:
                            gi += zi
                            out_acc += len(rows)
                            for tau, row in exits:
                                bp[row] += tau - t
                                if ui < un:
                                    upf_us = ubuf[ui]
                                    ui += 1
                                else:
                                    upf_us = _udraw()
                                delay_tc = rnd(upf_us * TCS / USP)
                                if upf_outage is not None:
                                    delay_tc += upf_outage()
                                self._seq = seq = self._seq + 1
                                if defer_done:
                                    done_append((tau + delay_tc, seq,
                                                 row, tau))
                                else:
                                    heappush(heap, (tau + delay_tc,
                                                    seq, _UPF_DONE,
                                                    row, tau))
                            continue
                # gnb.receive_ul_block with no radio head charges zero
                # RADIO and forwards the block to the up-pipeline in
                # order; the scalar call_in(0, ...) hop preserves the
                # same relative push order, so entering PHY here is
                # bit-identical (pinned by the equivalence suite).
                for row in rows:
                    gnb_busy += 1
                    kind, a, b = gnb_specs[0]
                    if kind:
                        if gi < gn:
                            delay_us = exp(a + b * gbuf[gi])
                            gi += 1
                        else:
                            delay_us = _gdraw(a, b)
                    else:
                        delay_us = a
                    if dilation is not None:
                        delay_us = delay_us * dilation(
                            _GNB_CATEGORIES[0])
                    if emit is not None:
                        emit(t, _GNB_CATEGORIES[0], "enter",
                             packet_id=pid_col[row],
                             layer=_GNB_LAYERS[0])
                    self._seq = seq = self._seq + 1
                    heappush(heap, (
                        t + rnd(delay_us * TCS / USP),
                        seq, _GNB_LAYER, row, 0, delay_us, t))
            elif code == _UE_LAYER:
                self._ue_layer_done(event, t)
            elif code == _PLAN:
                # Inline of _plan_grant_free for the fused path: _PLAN
                # events only exist when fusion is on (emit is None),
                # the prep delay is already drawn, and the packet is a
                # first transmission.
                row = event[3]
                u = event[4]
                prep_tc = rnd(event[5] * TCS / USP)
                ready = t + prep_tc
                wire = payload[row] + header[row]
                cyc, rem = divmod(ready, period)
                base = bisect_right(w_ends, rem)
                if base == nwin:
                    cyc += 1
                    base = 0
                k = cyc * nwin + base
                empty = 0
                while True:
                    if empty > nwin:
                        raise LookupError(
                            "no usable configured-grant window found")
                    cyc, base = divmod(k, nwin)
                    off = cyc * period
                    start = w_starts[base] + off
                    end = w_ends[base] + off
                    entry = ready if ready > start else start
                    if end - entry < min_tx:
                        empty += 1
                        k += 1
                        continue
                    key = (u, start)
                    plan = plans.get(key)
                    capacity = cap_by_base[base]
                    used = plan[2] if plan is not None else 0
                    if used + wire > capacity:
                        if plan is None:
                            empty += 1
                        k += 1
                        continue
                    if plan is None:
                        plans[key] = [k, [row], used + wire]
                        self._seq = seq = self._seq + 1
                        if fast_tx:
                            # Transmission cannot fail and draws
                            # nothing, so the window-end hop is folded
                            # into the landing event; its bookkeeping
                            # (pure counter sums) moves there too.
                            heappush(heap, (end + prop_tc, seq, _AIR,
                                            u, start))
                        else:
                            heappush(heap, (end, seq, _TRANSMIT, u,
                                            start))
                            heappush(air_times, end + prop_tc)
                    else:
                        plan[1].append(row)
                        plan[2] += wire
                    bp[row] += prep_tc
                    bprot[row] += end - t - prep_tc
                    break
            elif code == _TRANSMIT:
                self._transmit(event[3], event[4], t)
            else:  # _RETRANSMIT
                ue_id = event[3]
                for row in event[4]:
                    self._plan_grant_free(row, ue_id, t, True)

        if done:
            # Deferred UPF completions, in the (time, seq) order the
            # heap would have dispatched them — the probe's append
            # order is part of the bit-identity contract.
            done.sort()
            if done[-1][0] > last_t:
                last_t = done[-1][0]
            for done_t, _seq, row, tau in done:
                proc = bp[row] + (done_t - tau)
                bp[row] = proc
                delivered_col[row] = done_t
                lat_append(done_t - created[row])
                tot_proc += proc
                tot_prot += bprot[row]
                tot_rad += brad[row]
        link_counters.blocks_sent += blocks_acc
        sched_counters.cg_allocated_bytes += cg_alloc_acc
        sched_counters.cg_used_bytes += cg_used_acc
        gnb_counters.ul_packets_out += out_acc
        totals = probe._budget_totals
        totals[LatencySource.PROCESSING] += tot_proc
        totals[LatencySource.RADIO] += tot_rad
        totals[LatencySource.PROTOCOL] += tot_prot
        if not precise and last_t > sim.now:
            advance(last_t)

    # ------------------------------------------------------------------
    # UE side (per-layer event path)
    # ------------------------------------------------------------------
    def _enter_ue_layer(self, row: int, layer_k: int, now: int) -> None:
        kind, a, b = self._ue_specs[layer_k]
        ue_id = self.population.ue[row]
        if kind:
            delay_us = self._ue_server(ue_id).sample(a, b)
        else:
            delay_us = a
        if self.tracer.enabled:
            self.tracer.emit(now, self._categories(ue_id)[layer_k],
                             "enter",
                             packet_id=self.population.packet_id[row],
                             layer=_UE_LAYERS[layer_k])
        self._seq = seq = self._seq + 1
        heappush(self._heap, (now + tc_from_us(delay_us), seq,
                              _UE_LAYER, row, layer_k, delay_us, now))

    def _ue_layer_done(self, event: tuple, now: int) -> None:
        row, layer_k, delay_us, submitted = (event[3], event[4],
                                             event[5], event[6])
        pop = self.population
        pop.budget_processing[row] += now - submitted
        pop.header[row] += _UE_HEADER_DELTAS[layer_k]
        ue_id = pop.ue[row]
        if self.tracer.enabled:
            self.tracer.emit(now, self._categories(ue_id)[layer_k],
                             "exit", packet_id=pop.packet_id[row],
                             layer=_UE_LAYERS[layer_k],
                             delay_us=delay_us)
        if layer_k < 4:
            self._enter_ue_layer(row, layer_k + 1, now)
        else:
            self._plan_grant_free(row, ue_id, now, False)

    def _cg_capacity(self, duration_tc: int) -> int:
        capacity = self._cap_cache.get(duration_tc)
        if capacity is None:
            capacity = self.scheduler.cg_capacity_for(duration_tc,
                                                      self.cg_share)
            self._cap_cache[duration_tc] = capacity
        return capacity

    def _plan_grant_free(self, row: int, ue_id: int, now: int,
                         is_retransmission: bool,
                         prep_us: float | None = None) -> None:
        """Mirror of ``Ue._plan_grant_free`` on columnar state.

        ``prep_us`` carries a PHY-prep delay the fused arrival path
        already drew (and committed) for this packet; None means draw
        it here, as the scalar planner does.
        """
        if prep_us is None:
            kind, a, b = self._prep_spec
            if kind:
                prep_us = self._ue_server(ue_id).sample(a, b)
            else:
                prep_us = a
            if not self._can_fail and not is_retransmission:
                # Last possible draw of this packet on the UE stream
                # (the link never fails, so no retransmission preps
                # follow): the packet stops blocking chain fusion.
                self._ue_hot[ue_id] -= 1
        prep_tc = tc_from_us(prep_us)
        ready = now + prep_tc
        pop = self.population
        wire = pop.payload[row] + pop.header[row]
        windex = self._windex
        plans = self._plans
        min_tx_tc = self.min_tx_tc
        k = windex.first_ending_after(ready)
        # The scalar planner scans the (infinite) window generator; an
        # un-plannable packet — wire size above even an empty window's
        # capacity — would loop forever there.  The mirror bounds the
        # scan: once a full period of *empty* windows has been
        # rejected, later cycles repeat the same rejection.
        empty_rejections = 0
        while empty_rejections <= windex.n_windows:
            start, end = windex.bounds(k)
            entry = ready if ready > start else start
            if end - entry < min_tx_tc:
                empty_rejections += 1
                k += 1
                continue
            plan = plans.get((ue_id, start))
            capacity = self._cg_capacity(windex.duration(k))
            used = plan[2] if plan is not None else 0
            if used + wire > capacity:
                if plan is None:
                    empty_rejections += 1
                k += 1
                continue
            if plan is None:
                plan = [k, [row], used + wire]
                plans[(ue_id, start)] = plan
                self._seq = seq = self._seq + 1
                if self._fast_tx:
                    heappush(self._heap, (end + self._prop_tc, seq,
                                          _AIR, ue_id, start))
                else:
                    heappush(self._heap, (end, seq, _TRANSMIT, ue_id,
                                          start))
                    heappush(self._air_times, end + self._prop_tc)
            else:
                plan[1].append(row)
                plan[2] += wire
            pop.budget_processing[row] += prep_tc
            pop.budget_protocol[row] += end - now - prep_tc
            if self.tracer.enabled:
                self.tracer.emit(now, self._categories(ue_id)[4],
                                 "cg_planned",
                                 packet_id=pop.packet_id[row],
                                 window_start=start,
                                 retransmission=is_retransmission)
            return
        raise LookupError("no usable configured-grant window found")

    # ------------------------------------------------------------------
    # air crossing
    # ------------------------------------------------------------------
    def _transmit(self, ue_id: int, window_start: int,
                  now: int) -> None:
        """Mirror of ``Ue._transmit_planned`` + ``RanSystem._ul_over_air``
        + the failure half of ``AirLink.transmit``."""
        plan = self._plans.pop((ue_id, window_start))
        window_k, rows, used = plan
        pop = self.population
        pop.blocks_sent[ue_id] += 1
        if self.tracer.enabled:
            self.tracer.emit(now, self._categories(ue_id)[4], "cg_tx",
                             window_start=window_start,
                             packets=len(rows))
        self.scheduler.account_cg_usage(
            self._cg_capacity(self._windex.duration(window_k)), used)
        link = self.link
        if link.decide_fate(now):
            if self._can_fail:
                # Delivered blocks can no longer trigger retransmission
                # preps — their packets stop blocking chain fusion.
                self._ue_hot[ue_id] -= len(rows)
            propagation_tc = link.propagation_tc
            for row in rows:
                pop.budget_radio[row] += propagation_tc
            self._seq = seq = self._seq + 1
            heappush(self._heap, (now + propagation_tc, seq, _DELIVER,
                                  rows))
            return
        # The block never lands; its air-time entry stays behind as a
        # stale lower bound (only ever conservative — it can suppress
        # a fusion, never permit a wrong one) and is swept by the next
        # delivery that passes it.
        link.counters.blocks_failed += 1
        if self.tracer.enabled:
            self.tracer.emit(now, "link", "block_failed",
                             packets=len(rows))
        max_harq = link.max_harq
        survivors: list[int] = []
        for row in rows:
            if pop.retx[row] >= max_harq:
                pop.dropped[row] = True
                link.counters.packets_dropped += 1
                self._ue_hot[ue_id] -= 1
            else:
                pop.retx[row] += 1
                survivors.append(row)
        if not survivors:
            return
        feedback = self._system._ul_feedback
        if feedback is None:
            for row in survivors:
                self._plan_grant_free(row, ue_id, now, True)
            return
        if link.last_fault_fate == "dtx":
            feedback_at = feedback.dtx_detection_time(now)
        else:
            feedback_at = feedback.feedback_time(now)
        wait = feedback_at - now
        for row in survivors:
            pop.budget_protocol[row] += wait
        self._seq = seq = self._seq + 1
        heappush(self._heap, (feedback_at, seq, _RETRANSMIT, ue_id,
                              survivors))

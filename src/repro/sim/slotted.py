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
- pre-queued arrivals kept as packet row indices sorted by creation
  time and merged into the event loop, so the live heap holds only
  in-flight work,
- window arithmetic answered by the flat
  :class:`~repro.mac.opportunities.WindowIndex` and the memoized
  :meth:`~repro.mac.scheduler.GnbMacScheduler.capacity_for_duration`,
- each delivery appended in delivery order to the system's UL
  :class:`~repro.net.probes.LatencyProbe` columns, the probe the
  scalar engine fills from its packets.

Bit-identity contract
---------------------
The mirror is **bit-identical** to the scalar path, not approximately
equal.  Four mechanisms enforce it (all pinned by the golden
equivalence suite in ``tests/integration/test_slotted_equivalence.py``):

1. *Event order by construction.*  The scalar engine runs same-tick
   events by scheduling tick, then scheduling order (docs/MODEL.md,
   "Deterministic event order").  Every mirror event carries that key:
   the tick at which the scalar engine schedules it, then the
   executor's push counter.  Events pushed ahead of their scalar
   scheduling tick — fused UE chains and folded air landings — take
   the scalar tick, not the push tick.  Arrivals carry no key.  All of
   them are queued before :meth:`SlottedUplink.run` (later queueing
   raises), at a clock no later than any arrival, so in the scalar
   engine each arrival's scheduling tick and sequence number are below
   those of every event the run schedules.  An arrival therefore wins
   every same-tick tie against the heap, and arrivals tie among
   themselves in queue (row) order.  So same-tick events execute in
   the scalar engine's order and every shared RNG stream is consumed
   in the same interleaving.
2. *Draw-for-draw RNG equivalence.*  Scalar ``Generator.lognormal``
   consumes exactly one ziggurat standard normal per call;
   :class:`~repro.sim.sampling.LogNormalBlockServer` serves the same
   normals from blocks and the value is reconstructed with scalar
   ``math.exp`` (the vectorized ``np.exp`` differs by up to 1 ulp).
   The engine draws only through the block buffers' public API:
   ``sample`` one value at a time, or ``take(n)`` for a committed chunk
   of the ``gnb`` normals and the UPF's delay values, indexed inline.
   Every refill lands on the buffer's whole-block grid either way, so
   the served sequence is the same.  Stateful objects — the link's
   channel and uniform buffer, the UPF's buffered sampler, the fault
   injectors — are *shared* with the scalar wiring rather than
   reimplemented.
3. *Guarded fusion.*  The per-packet UE draw chain (five transit draws
   plus the PHY-prep draw) is evaluated speculatively from the normals
   ``peek(n)`` returns and committed (``commit(n)``) as one MAC-exit
   event, keyed by its MAC-enter tick, **only** when no other event of
   the same UE — the sole other consumer of that stream — can fall
   inside the chain's time span (no packet of the UE in flight, next
   arrival strictly after the chain end).  When the guard fails, the
   peeked normals are left unconsumed and the per-layer event path
   serves them one at a time, so both paths produce the identical
   value sequence.  The gNB side has no fused path: every landing
   enters gNB PHY on the per-layer event path.  Fusion is disabled
   entirely when tracing, because the trace stream must interleave
   per-layer.
4. *A real clock for the side effects.*  Fault hooks and the tracer
   read ``sim.now``; with either active the executor moves the
   simulator's clock forward with
   :meth:`~repro.sim.engine.Simulator.advance_to` at every event.

Per-UE memory
-------------
A UE's ``ue<N>`` generator and block server live only while a draw on
the stream is still possible.  On a link that cannot fail, a UE whose
whole queue fits one block (every packet makes the same draws, and no
retransmission prep follows) lets go of its generator right after that
block is drawn, at its first draw.  Otherwise the generator goes when
the server does: once the UE has no arrival left and no packet that may
still draw (retransmission preps included), the server is retired and
the stream released in the registry, which refuses to re-seed it.

Scope: grant-free uplink data only, no radio heads, no gNB CPU
contention, layer delays drawn from log-normal/constant samplers (the
calibrated ones are).  :func:`ineligibility` states the first violated
requirement; ``RanConfig(engine="auto")`` silently keeps the scalar
path in that case, ``engine="slotted"`` raises.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.mac.types import AccessMode
from repro.phy.channel import IidErasureChannel, PerfectChannel
from repro.phy.timebase import TC_PER_SECOND, tc_from_us
from repro.sim.distributions import Constant, DelaySampler, LogNormal
from repro.sim.sampling import DEFAULT_BLOCK, LogNormalBlockServer
from repro.stack.packets import HEADER_BYTES

if TYPE_CHECKING:
    from repro.net.session import RanSystem

__all__ = ["UePopulation", "SlottedUplink", "ineligibility"]

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
# ``(time, key, code, ...)`` with ``key = (tick << 32) | seq``: ``tick``
# is the tick at which the scalar engine schedules the event, ``seq``
# the executor's push counter (far below 2**32 in any run that fits in
# memory).  Same-time events therefore pop in the scalar engine's order
# (scheduling tick, then scheduling order) even when the executor
# pushes them early.  ``(time, key)`` is unique so later elements are
# never compared.
_UE_LAYER = 1       # (t, key, code, row, layer_k, delay_us, submitted)
_TRANSMIT = 2       # (t, key, code, ue, window_start)
_DELIVER = 3        # (t, key, code, rows)
_GNB_LAYER = 5      # (t, key, code, row, layer_k, delay_us, submitted)
_UPF_DONE = 6       # (t, key, code, row, submitted)
_RETRANSMIT = 7     # (t, key, code, ue, rows)
_PLAN = 8           # (t, key, code, row, ue, prep_tc) — fused-chain
                    # MAC exit
_AIR = 9            # (t, key, code, ue, window_start) — transmit+fly
                    # folded into one landing event (never-fail links)

# Compiled layer-draw kinds: a draw-free constant value, or one
# lognormal draw with fixed (mu, sigma).
_KIND_CONST = 0
_KIND_LOGNORMAL = 1

#: Values taken per chunk from the gnb and upf block buffers.
_CHUNK = 1024

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


class UePopulation:
    """Columnar per-packet and per-UE state for the slotted engine.

    All fields are parallel Python lists — per-packet columns indexed
    by a dense packet row number, per-UE counters indexed by UE id.
    Plain-int appends and in-place ``+=`` beat numpy scalar indexing
    on this access pattern (a ``arr[i] += 1`` on an int64 array costs
    ~5× a list element update).  Rows are numbered in queue order,
    which makes a row index the packet's arrival tie-break too, so
    pending arrivals need no entry of their own.  No :class:`Packet`,
    no timestamp dicts, no per-event closures: 100k UEs × 4 packets
    peak below 300 MB (docs/PERFORMANCE.md, "Memory").
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
        self.budget_processing: list[int] = []
        self.budget_protocol: list[int] = []
        self.budget_radio: list[int] = []

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
        self.budget_processing.append(0)
        self.budget_protocol.append(0)
        self.budget_radio.append(0)
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
        self.population = UePopulation(system.config.n_ues)
        self.cg_share = system.cg_share

        # Window arithmetic: the flat index over the UL timeline plus
        # the UE-side minimum transmission length (two symbols, as in
        # repro.net.ue.Ue).
        self._windex = system.scheme.ul_timeline().index()
        symbol_tc = (system.scheme.numerology.slot_duration_tc // 14)
        self.min_tx_tc = max(1, 2 * symbol_tc)
        # Per-UE CG capacity of each base window, filled by run() (the
        # share is fixed for the run).
        self._cap_by_base: list[int] = []

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
        # created lazily (sized from the UE's queued-packet count) and
        # retired once the UE can draw no more (see "Per-UE memory");
        # the gNB server is created on first delivery.
        self._rngs = system.rngs
        self._ue_servers: dict[int, LogNormalBlockServer] = {}
        self._gnb_server: LogNormalBlockServer | None = None
        # UE-stream draws of one fault-free packet transit.
        self._ue_draws = (sum(1 for spec in self._ue_specs if spec[0])
                          + (1 if self._prep_spec[0] else 0))
        # Arrivals of each UE not yet merged into the loop (set by run).
        self._ue_left: list[int] = []

        # Mirror event heap and the push counter behind its tie keys
        # (see the event codes above).
        self._heap: list[tuple] = []
        self._seq = 0
        # Open CG plans: (ue_id, window_start) -> [window_k, rows, bytes]
        self._plans: dict[tuple[int, int], list] = {}
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
        — one packet row per arrival, numbered in call order)."""
        if not 1 <= ue_id <= self.population.n_ues:
            raise ValueError(
                f"ue_id must be in 1..{self.population.n_ues}, "
                f"got {ue_id}")
        if self._ran:
            raise RuntimeError(
                "slotted engine cannot queue traffic after run()")
        # As the scalar engine's schedule(): no arrival in the past.
        # run() relies on it for its arrival tie rule.
        if arrivals and min(arrivals) < self.sim.now:
            raise ValueError(
                f"cannot queue an arrival at {min(arrivals)}; current "
                f"time is {self.sim.now}")
        packet_ids = self._system._packet_ids
        pop = self.population
        for arrival in arrivals:
            pop.add_packet(ue_id, next(packet_ids), payload_bytes, arrival)

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
            # On a link that cannot fail the UE makes exactly
            # queued × _ue_draws draws.  If one block holds them all,
            # draw it now and let go of the generator.  We are at the
            # UE's first draw, which draws the block anyway; peek(0)
            # is None when block drawing is off.
            if (not self._can_fail
                    and queued * self._ue_draws <= block
                    and server.peek(0) is not None):
                server.release()
                self._rngs.release(f"ue{ue_id}")
        return server

    def _retire_if_spent(self, ue_id: int) -> None:
        """Free the UE's block server and stream once it can draw no
        more: no arrival left and no packet that may still draw."""
        if (self._ue_hot[ue_id] == 0 and self._ue_left[ue_id] == 0
                and self._ue_servers.pop(ue_id, None) is not None):
            self._rngs.release(f"ue{ue_id}")

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

        # Pending arrivals: packet rows in (created, row) order — the
        # scalar engine's order for them (rule 1 of the module doc).
        pop = self.population
        created = pop.created
        arrivals = sorted(range(len(pop)), key=created.__getitem__)
        n_arr = len(arrivals)
        # Fusion guard input: the next arrival time of the same UE.  A
        # chain ending before it cannot interleave with any other
        # consumer of the UE's stream (given nothing is in flight).
        ue_col = pop.ue
        next_same = [_FAR_FUTURE] * n_arr
        last_seen: dict[int, int] = {}
        for i in range(n_arr):
            row = arrivals[i]
            u = ue_col[row]
            j = last_seen.get(u)
            if j is not None:
                next_same[j] = created[row]
            last_seen[u] = i
        del last_seen
        self._ue_left = ue_left = list(pop.queued)
        if self._ue_draws:
            # Seed every UE stream the run opens in one vectorised pass.
            self._rngs.prepare([f"ue{u}" for u, left in enumerate(ue_left)
                                if left])

        # Local aliases for the hot loop.
        heap = self._heap
        sim = self.sim
        advance = sim.advance_to
        exp = math.exp
        rnd = round
        TCS = TC_PER_SECOND
        USP = _US_PER_SECOND
        pid_col = pop.packet_id
        bp = pop.budget_processing
        bprot = pop.budget_protocol
        brad = pop.budget_radio
        retx_col = pop.retx
        ue_hot = self._ue_hot
        can_fail = self._can_fail
        ue_specs = self._ue_specs
        gnb_specs = self._gnb_specs
        chain_draws = sum(1 for spec in ue_specs if spec[0])
        prep_kind, prep_a, prep_b = self._prep_spec
        prep_const_tc = rnd(prep_a * TCS / USP)
        peek_n = self._ue_draws
        # Chain-total form of the UE specs: the total transit is a sum,
        # so constant layers collapse to one precomputed term and the
        # lognormal ones zip against the peeked normals (stream order
        # is preserved — only lognormal layers consume a draw).
        ue_ln = [(a, b) for kind, a, b in ue_specs if kind]
        ue_const_tc = sum(rnd(a * TCS / USP)
                          for kind, a, _b in ue_specs if not kind)
        # MAC is the last UE layer: its transit is the chain's last
        # lognormal term when it draws, else this constant.
        mac_kind, mac_a, _mac_b = ue_specs[-1]
        mac_const_tc = rnd(mac_a * TCS / USP)
        servers = self._ue_servers
        dilation = self._dilation
        gserver = self._gnb_rng_server()
        # The gnb stream is drawn 5× per packet in data-dependent
        # order, and the upf stream once; serving those draws through
        # sample() costs a method call each.  Instead, values are taken
        # from the servers in committed chunks into plain lists and
        # indexed inline: the gnb chunks hold normals, the upf chunks
        # delay values (its BufferedSampler pre-transforms).  Refills
        # happen on the servers' whole-block grid either way, so the
        # served sequences are unchanged.  With block drawing off
        # (force_sequential) take() is None and every draw falls back
        # to the scalar sample() path.
        gbuf: list[float] = []
        gi = gn = 0

        def _gdraw(a: float, b: float) -> float:
            nonlocal gbuf, gi, gn
            chunk = gserver.take(_CHUNK)
            if chunk is None:
                return gserver.sample(a, b)
            gbuf, gi, gn = chunk, 1, _CHUNK
            return exp(a + b * chunk[0])

        upf = self.upf
        upf_delay = upf.delay
        upf_rng = upf.rng
        upf_outage = upf.outage
        ubuf: list[float] = []
        ui = un = 0

        def _udraw() -> float:
            nonlocal ubuf, ui, un
            chunk = upf_delay.take(_CHUNK)
            if chunk is None:
                return upf_delay.sample(upf_rng)
            ubuf, ui, un = chunk, 1, _CHUNK
            return chunk[0]

        gnb_counters = self._system.gnb.counters
        probe = self._system.ul_probe
        lat_append = probe.latency_tc.append
        proc_append = probe.processing_tc.append
        prot_append = probe.protocol_tc.append
        rad_append = probe.radio_tc.append
        retx_append = probe.harq_retx.append
        ue_append = probe.ue_id.append
        pid_append = probe.packet_id.append
        # Pure-sum counters accumulate in locals and flush once after
        # the loop (attribute += on the dataclasses costs real time at
        # one-per-block rates).
        cg_alloc_acc = cg_used_acc = blocks_acc = out_acc = 0

        # CG planning goes through _place (fused MAC exits) or
        # _plan_grant_free (per-layer path, retransmissions); both push
        # a _TRANSMIT, or, when the link can neither fail nor draw
        # (perfect channel, no fault gate, no uniform buffer), an _AIR
        # landing with the window-end hop folded in.
        place = self._place
        plans = self._plans
        windex = self._windex
        nwin = windex.n_windows
        # One capacity per base window, one scheduler call per distinct
        # duration.
        caps = {d: self.scheduler.cg_capacity_for(d, self.cg_share)
                for d in set(windex.durations)}
        self._cap_by_base = cap_by_base = [caps[d]
                                           for d in windex.durations]
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

        last_t = sim.now
        ai = 0

        while True:
            # Merge: pending arrival vs heap top.  Same-tick ties go to
            # the arrival (rule 1 of the module doc).
            if ai < n_arr and (not heap
                               or created[arrivals[ai]] <= heap[0][0]):
                row = arrivals[ai]
                t = created[row]
                ai += 1
                u = ue_col[row]
                ue_left[u] -= 1
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
                    # peek() hands out Python floats: np.float64 scalar
                    # ops cost ~4× (same IEEE results either way).
                    zs = server.peek(peek_n)
                    if zs is not None:
                        total = ue_const_tc
                        term = 0
                        for zi, (a, b) in enumerate(ue_ln):
                            term = rnd(exp(a + b * zs[zi]) * TCS / USP)
                            total += term
                        end = t + total
                        # Strictly-later next arrival: every chain draw
                        # *and* the PHY-prep draw at the chain end
                        # precede the UE's next stream consumer, so the
                        # whole span commits as one event.
                        if next_same[ai - 1] > end:
                            if prep_kind:
                                prep_tc = rnd(exp(prep_a
                                                  + prep_b
                                                  * zs[chain_draws])
                                              * TCS / USP)
                            else:
                                prep_tc = prep_const_tc
                            server.commit(peek_n)
                            bp[row] += total
                            pop.header[row] = _UE_WIRE_HEADER
                            if can_fail:
                                ue_hot[u] = 1
                            elif ue_left[u] == 0:
                                self._retire_if_spent(u)
                            # Keyed by the MAC-enter tick, where the
                            # scalar engine schedules the MAC exit.
                            mac_enter = end - (term if mac_kind
                                               else mac_const_tc)
                            self._seq = seq = self._seq + 1
                            heappush(heap, (end, (mac_enter << 32) | seq,
                                            _PLAN, row, u, prep_tc))
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
                        (t << 32) | seq, _GNB_LAYER, row, k, delay_us,
                        t))
                else:
                    # SDAP exit: gNB hands the packet to the UPF
                    # (mirror of Gnb._ul_done + Upf._process).
                    out_acc += 1
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
                    heappush(heap, (t + delay_tc, (t << 32) | seq,
                                    _UPF_DONE, row, t))
            elif code == _UPF_DONE:
                row = event[3]
                lat_append(t - created[row])
                proc_append(bp[row] + (t - event[4]))
                prot_append(bprot[row])
                rad_append(brad[row])
                retx_append(retx_col[row])
                ue_append(ue_col[row])
                pid_append(pid_col[row])
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
                    rows = event[3]
                # gnb.receive_ul_block with no radio head charges zero
                # RADIO and forwards the block to the up-pipeline in
                # order; the scalar call_in(0, ...) hop preserves the
                # same relative push order, so entering PHY here is
                # bit-identical (pinned by the equivalence suite).
                kind, a, b = gnb_specs[0]
                for row in rows:
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
                        (t << 32) | seq, _GNB_LAYER, row, 0, delay_us,
                        t))
            elif code == _UE_LAYER:
                self._ue_layer_done(event, t)
            elif code == _PLAN:
                # Fused MAC exit: the prep delay is already drawn and
                # the packet is a first transmission.
                place(event[3], event[4], t, event[5])
            elif code == _TRANSMIT:
                self._transmit(event[3], event[4], t)
            else:  # _RETRANSMIT
                ue_id = event[3]
                for row in event[4]:
                    self._plan_grant_free(row, ue_id, t, True)

        link_counters.blocks_sent += blocks_acc
        sched_counters.cg_allocated_bytes += cg_alloc_acc
        sched_counters.cg_used_bytes += cg_used_acc
        gnb_counters.ul_packets_out += out_acc
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
        heappush(self._heap, (now + tc_from_us(delay_us),
                              (now << 32) | seq, _UE_LAYER, row, layer_k,
                              delay_us, now))

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

    def _plan_grant_free(self, row: int, ue_id: int, now: int,
                         is_retransmission: bool) -> None:
        """Mirror of ``Ue._plan_grant_free`` on columnar state: the
        PHY-prep draw, then :meth:`_place`."""
        kind, a, b = self._prep_spec
        if kind:
            prep_us = self._ue_server(ue_id).sample(a, b)
        else:
            prep_us = a
        if not self._can_fail and not is_retransmission:
            # Last possible draw of this packet on the UE stream (the
            # link never fails, so no retransmission preps follow): the
            # packet stops blocking chain fusion.
            self._ue_hot[ue_id] -= 1
            self._retire_if_spent(ue_id)
        start = self._place(row, ue_id, now, tc_from_us(prep_us))
        if self.tracer.enabled:
            self.tracer.emit(now, self._categories(ue_id)[4],
                             "cg_planned",
                             packet_id=self.population.packet_id[row],
                             window_start=start,
                             retransmission=is_retransmission)

    def _place(self, row: int, ue_id: int, now: int,
               prep_tc: int) -> int:
        """Put a packet whose PHY prep takes ``prep_tc`` into the
        earliest configured-grant window with room for it (the joining
        rule of ``Ue._plan_grant_free``); returns the window start.

        A window with no plan of this UE that rejects the packet is an
        *empty* rejection.  Once a full period of them has piled up,
        later cycles repeat the same rejections, so the scan stops with
        :class:`LookupError` — the scalar planner's bound.
        """
        ready = now + prep_tc
        pop = self.population
        wire = pop.payload[row] + pop.header[row]
        windex = self._windex
        n_windows = windex.n_windows
        cap_by_base = self._cap_by_base
        plans = self._plans
        min_tx_tc = self.min_tx_tc
        k = windex.first_ending_after(ready)
        empty_rejections = 0
        while empty_rejections <= n_windows:
            start, end = windex.bounds(k)
            entry = ready if ready > start else start
            if end - entry < min_tx_tc:
                empty_rejections += 1
                k += 1
                continue
            plan = plans.get((ue_id, start))
            used = plan[2] if plan is not None else 0
            if used + wire > cap_by_base[k % n_windows]:
                if plan is None:
                    empty_rejections += 1
                k += 1
                continue
            if plan is None:
                plans[(ue_id, start)] = [k, [row], wire]
                self._seq = seq = self._seq + 1
                if self._fast_tx:
                    # The transmission cannot fail and draws nothing, so
                    # the window-end hop is folded into the landing
                    # event, keyed by the window end, where the scalar
                    # engine schedules the delivery.
                    heappush(self._heap, (end + self._prop_tc,
                                          (end << 32) | seq, _AIR, ue_id,
                                          start))
                else:
                    heappush(self._heap, (end, (now << 32) | seq,
                                          _TRANSMIT, ue_id, start))
            else:
                plan[1].append(row)
                plan[2] += wire
            pop.budget_processing[row] += prep_tc
            pop.budget_protocol[row] += end - now - prep_tc
            return start
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
            self._cap_by_base[window_k % self._windex.n_windows], used)
        link = self.link
        if link.decide_fate(now):
            if self._can_fail:
                # Delivered blocks can no longer trigger retransmission
                # preps — their packets stop blocking chain fusion.
                self._ue_hot[ue_id] -= len(rows)
                self._retire_if_spent(ue_id)
            propagation_tc = link.propagation_tc
            for row in rows:
                pop.budget_radio[row] += propagation_tc
            self._seq = seq = self._seq + 1
            heappush(self._heap, (now + propagation_tc,
                                  (now << 32) | seq, _DELIVER, rows))
            return
        link.counters.blocks_failed += 1
        if self.tracer.enabled:
            self.tracer.emit(now, "link", "block_failed",
                             packets=len(rows))
        max_harq = link.max_harq
        survivors: list[int] = []
        for row in rows:
            if pop.retx[row] >= max_harq:
                link.counters.packets_dropped += 1
                self._ue_hot[ue_id] -= 1
            else:
                pop.retx[row] += 1
                survivors.append(row)
        if not survivors:
            self._retire_if_spent(ue_id)
            return
        feedback = self._system._ul_feedback
        if link.last_fault_fate == "dtx":
            feedback_at = feedback.dtx_detection_time(now)
        else:
            feedback_at = feedback.feedback_time(now)
        wait = feedback_at - now
        for row in survivors:
            pop.budget_protocol[row] += wait
        self._seq = seq = self._seq + 1
        heappush(self._heap, (feedback_at, (now << 32) | seq,
                              _RETRANSMIT, ue_id, survivors))

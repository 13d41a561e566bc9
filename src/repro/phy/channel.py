"""The shared wireless medium: delivers frame edges to in-range radios.

A :class:`Channel` owns a set of radios and a propagation model.  When a
radio transmits, the channel computes the received power at every reachable
radio from their *current* positions (node movement over one frame airtime is
sub-millimetre at the paper's 3 m/s, so the gain is sampled once per frame)
and schedules ``signal_start`` / ``signal_end`` events, optionally offset by
the propagation delay.

Arrivals below ``interference_floor_w`` are culled — they could affect
neither decoding nor carrier sense nor any SINR the capture threshold could
care about.  This is the main scalability lever: a 1 mW transmission only
generates events at radios within a few hundred metres.

The channel is deliberately decode-agnostic: every edge above the
interference floor is delivered whether or not the receiver could decode
it, which is the contract the ``reception`` slot builds on — a
:class:`~repro.phy.reception.sinr.SinrReceiver` sees the same arrival
ledger the inline threshold rules do and only changes what the radio
*concludes* from it.  At equal timestamps trailing edges dispatch before
leading edges (``sig_end`` events tie-break ahead of ``sig_start``), so a
back-to-back handoff never reads the departing frame's power as
interference against the new one.

Fan-out strategies
------------------
The naive fan-out is a Python loop over *all* attached radios, recomputing
the pairwise propagation gain before culling — O(N) work per frame even
though only a handful of radios are reachable.  ``spatial_index=True``
replaces it with an array pipeline:

* **Uniform-grid spatial index.**  Radios are bucketed into square cells of
  side ``propagation.range_for(max_tx_power_w, interference_floor_w) +
  max_speed_mps * reindex_interval_s``; a transmission can only reach radios
  in the 3×3 block of cells around the transmitter, so only those are
  visited.  Mobile radios drift, so the grid is refreshed lazily (inside
  ``transmit``, never via simulator events — the event schedule stays
  byte-identical to the brute-force scan) whenever it is older than
  ``reindex_interval_s``; the cell-size padding covers the maximum drift
  between refreshes, keeping the candidate set an exact superset of the
  reachable radios.
* **Leg arrays.**  The channel keeps one column per attached radio in a
  ``7 × capacity`` float array: the radio's current mobility leg
  ``(x0, y0, dx, dy, t0, span, t_end)``
  (:meth:`~repro.mobility.base.MobilityModel.leg`).  A static radio is a
  column with ``dx = dy = 0`` and ``t_end = inf``.  Columns start expired
  and are re-read from the model, through its scalar code, only once
  ``t_end <= now`` — legs advance lazily and per node, each from its own
  RNG stream, exactly as position queries advance them.
* **One array resolve per transmit.**  A block's candidate positions at
  ``now`` are ``x0 + dx * ((now - t0) / span)``, the float operations of
  ``position_at``; distances are ``sqrt(dx*dx + dy*dy)``, those of
  :func:`~repro.phy.propagation.distance`.  Gains come from
  ``gain_at_many`` when the model is ``bulk_exact`` and from the scalar
  ``gain_at`` per element otherwise, so every gain is the exact scalar
  value.  Survivors (``tx_power * gain >= floor``) keep attach order; a
  stable argsort of their delays ``dist / c`` is the wave template.  Only
  Python floats (``tolist``) reach the radios.
* **Still-world replay.**  While the world is *still* — every attached
  radio static or in a leg that does not move (a random-waypoint pause)
  until some time ahead — the fan-out of a (source, tx power) cannot
  change, so its template is cached and replayed.  The cache is cleared
  when the world stops being still and on every attach or detach.
  All-static worlds and the initial pause of random-waypoint runs are
  still.
* **Waves.**  A transmission's edges go to the kernel as one
  :class:`~repro.sim.kernel.Wave` — a single queue entry holding every
  receiver's leading and trailing edge, sorted by delay (ties by attach
  order) — instead of two scheduled events per receiver.  The wave
  reserves exactly the seqs per-edge scheduling in attach order would have
  used and dispatches each edge at its exact ``(time, priority, seq)``
  key, so the dispatch sequence is unchanged.  When float rounding could
  collapse two delays onto one time against their attach order
  (:meth:`~repro.sim.kernel.WaveTemplate.fits`), the edges are scheduled
  one by one instead.

All paths produce bit-identical dispatch sequences (same times, powers and
tie-breaking order); the brute-force scan remains the default, schedules
every edge as its own event, and serves as the PHY and dispatch oracle in
``tests/phy/test_channel_equivalence.py`` and ``tests/differential/``.
The spatial index requires that radio positions change only through
mobility models whose speed is bounded by ``max_speed_mps`` — ``attach``
rejects radios without a mobility model (a bare ``position_fn`` could
teleport, silently breaking the culling guarantee) and radios whose model
reports a higher bound.

The paper's PCMAC uses **two** channels with identical propagation (its
assumption 1): instantiate one ``Channel`` for data and one for power-control
notifications, sharing the propagation model.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mobility.base import MobilityModel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import PropagationModel, distance
from repro.phy.radio import Radio
from repro.sim.kernel import LEAD_PRIORITY, TRAIL_PRIORITY, Simulator, WaveTemplate
from repro.units import SPEED_OF_LIGHT


#: Upper bound on memoised wave templates (keys are ``(src_seq,
#: tx_power)``, so continuous-power protocols could otherwise grow the
#: cache without bound).  Generous enough for 10k sources at the paper's
#: ten discrete power levels; on overflow the cache is simply cleared and
#: rebuilt on demand — correctness never depends on a hit.
_STATIC_FANOUT_CAP = 131072

#: Profiling labels of the leading and trailing signal edges.
_EDGE_LABELS = ("phy.sig_start", "phy.sig_end")

#: Template cache miss marker (None is a cached "nothing in range").
_MISSING = object()


class _RadioEntry:
    """Channel-side bookkeeping for one attached radio.

    ``seq`` is the attach sequence number and the radio's column in the
    channel's leg array: candidate receivers are visited in ascending
    ``seq`` so the indexed fan-out numbers its edges exactly as the
    brute-force list scan would (the event queue breaks same-time ties by
    insertion order).  Re-attaching assigns a fresh ``seq``, matching the
    list's remove-then-append semantics.  ``lead`` / ``trail`` are the
    radio's ``signal_start`` / ``signal_end`` bound once per attach and
    shared by every wave template naming the radio.
    """

    __slots__ = ("seq", "mobility", "cell", "lead", "trail")

    def __init__(self, radio: Radio, seq: int, mobility: MobilityModel) -> None:
        self.seq = seq
        self.mobility = mobility
        self.lead = radio.signal_start
        self.trail = radio.signal_end
        self.cell: tuple[int, int] | None = None


def _columns(entries: list[_RadioEntry]) -> tuple[np.ndarray, list]:
    """The leg-array columns and mobility models of ``entries``."""
    return (
        np.array([e.seq for e in entries], dtype=np.intp),
        [e.mobility for e in entries],
    )


class Channel:
    """A broadcast medium connecting radios under one propagation model.

    Args:
        sim: the simulation kernel.
        propagation: pairwise gain model shared by every link.
        interference_floor_w: received-power floor below which arrivals are
            culled entirely.
        model_propagation_delay: offset arrivals by distance / c when True.
        name: label for traces ("data" / "control").
        spatial_index: enable the uniform-grid fan-out with waves (see
            module docs).  The default False keeps the brute-force scan —
            the oracle path.
        max_tx_power_w: largest transmit power any frame on this channel
            will use; required when ``spatial_index`` is set (it determines
            the maximum reach and hence the grid cell size).  Transmitting
            above it raises, as that would break the culling guarantee.
        max_speed_mps: upper bound on any attached radio's speed; pads the
            cell size so grid staleness can never miss a reachable radio.
        reindex_interval_s: maximum grid staleness for mobile radios.
    """

    def __init__(
        self,
        sim: Simulator,
        propagation: PropagationModel,
        *,
        interference_floor_w: float = 1e-14,
        model_propagation_delay: bool = True,
        name: str = "data",
        spatial_index: bool = False,
        max_tx_power_w: float | None = None,
        max_speed_mps: float = 0.0,
        reindex_interval_s: float = 1.0,
    ) -> None:
        if interference_floor_w <= 0:
            raise ValueError("interference_floor_w must be positive")
        self.sim = sim
        self.propagation = propagation
        self.interference_floor_w = interference_floor_w
        self.model_propagation_delay = model_propagation_delay
        self.name = name
        self._radios: list[Radio] = []

        self._cell_size: float | None = None
        self._max_tx_power_w = max_tx_power_w
        self._entries: dict[Radio, _RadioEntry] = {}
        self._cells: dict[tuple[int, int], list[_RadioEntry]] = {}
        #: Memoised candidates per centre cell, in attach order: their
        #: leg-array columns, mobility models and bound edge handlers.  Any
        #: grid mutation (attach, detach, a radio changing cell) clears it.
        self._blocks: dict[tuple[int, int], tuple] = {}
        #: Leg array, one column per attach seq (see the module docs); new
        #: columns start expired, so nothing is read before it is needed.
        self._legs = np.full((7, 64), -math.inf)
        self._next_seq = 0
        #: Whether the world is still, valid until the clock reaches
        #: ``_still_next`` (attach and detach force a recheck).
        self._still = False
        self._still_next = -math.inf
        #: Wave template per (source seq, tx power) while the world is
        #: still (None when nothing is in range).
        self._static_fanouts: dict[tuple[int, float], WaveTemplate | None] = {}
        self._max_speed_mps = max_speed_mps
        self._reindex_interval_s = reindex_interval_s
        self._reindex_due_at = math.inf
        if spatial_index:
            if max_tx_power_w is None or max_tx_power_w <= 0:
                raise ValueError("spatial_index requires a positive max_tx_power_w")
            if max_speed_mps < 0:
                raise ValueError("max_speed_mps must be non-negative")
            if not math.isfinite(max_speed_mps):
                raise ValueError("spatial_index requires a finite max_speed_mps")
            if reindex_interval_s <= 0:
                raise ValueError("reindex_interval_s must be positive")
            reach = propagation.range_for(max_tx_power_w, interference_floor_w)
            self._cell_size = reach + max_speed_mps * reindex_interval_s
            if max_speed_mps > 0:
                self._reindex_due_at = 0.0  # refresh on the first transmit

    @property
    def spatial_index(self) -> bool:
        """Whether the grid-indexed fan-out is active."""
        return self._cell_size is not None

    @property
    def cell_size_m(self) -> float | None:
        """Grid cell side [m] when the spatial index is active, else None."""
        return self._cell_size

    @property
    def radios(self) -> tuple[Radio, ...]:
        """Radios currently attached to this channel."""
        return tuple(self._radios)

    def attach(self, radio: Radio) -> None:
        """Join a radio to the medium.

        With the spatial index active, the radio must carry a mobility model
        whose speed is bounded by the channel's ``max_speed_mps`` —
        otherwise the grid's drift padding could not guarantee the candidate
        superset, and arrivals the brute-force scan would deliver could be
        silently missed.  Violations fail loudly here instead.
        """
        if radio in self._radios:
            raise ValueError(f"radio of node {radio.node_id} already attached")
        if self._cell_size is not None:
            mobility = getattr(radio, "mobility", None)
            if mobility is None:
                raise ValueError(
                    f"radio of node {radio.node_id} has no mobility model — "
                    "the spatial index cannot bound a bare position_fn's "
                    "drift; construct the radio with mobility=... (e.g. "
                    "StaticMobility) or use spatial_index=False"
                )
            speed = mobility.max_speed_mps()
            if speed > self._max_speed_mps:
                raise ValueError(
                    f"radio of node {radio.node_id} moves at up to "
                    f"{speed!r} m/s, above the spatial index's "
                    f"max_speed_mps {self._max_speed_mps!r} — culling "
                    "would be unsound"
                )
            entry = _RadioEntry(radio, self._next_seq, mobility)
            self._next_seq += 1
            legs = self._legs
            if entry.seq == legs.shape[1]:
                self._legs = np.full((7, 2 * entry.seq), -math.inf)
                self._legs[:, : entry.seq] = legs
            self._entries[radio] = entry
            self._move_to_cell(entry, mobility.poll(self.sim.now)[0])
            self._static_fanouts.clear()
            self._still_next = -math.inf
        self._radios.append(radio)

    def detach(self, radio: Radio) -> None:
        """Remove a radio from the medium.

        Semantics: detaching only stops *future* transmissions from reaching
        the radio (and removes it from the spatial index and template
        cache).  Signal edges already scheduled — the ``signal_start`` /
        ``signal_end`` edges of frames in flight at detach time, whether
        queued one by one or inside a wave — still fire at the detached
        radio, mirroring physics: energy already en route arrives
        regardless of any bookkeeping change, and delivering the matching
        ``signal_end`` keeps the radio's interference accounting consistent
        if it is later re-attached.  Callers that want a radio to go
        genuinely deaf mid-frame must model that at the radio, not by
        detaching.
        """
        self._radios.remove(radio)
        entry = self._entries.pop(radio, None)
        if entry is not None:
            if entry.cell is not None:
                self._cells[entry.cell].remove(entry)
            self._blocks.clear()
            self._static_fanouts.clear()
            self._still_next = -math.inf

    # --------------------------------------------------------------- indexing

    def _move_to_cell(self, entry: _RadioEntry, pos: tuple[float, float]) -> None:
        size = self._cell_size
        cell = (int(pos[0] // size), int(pos[1] // size))
        if cell == entry.cell:
            return
        if entry.cell is not None:
            self._cells[entry.cell].remove(entry)
        bucket = self._cells.get(cell)
        if bucket is None:
            bucket = self._cells[cell] = []
        bucket.append(entry)
        entry.cell = cell
        self._blocks.clear()

    def _rows(self, seqs: np.ndarray, mobs: list, now: float) -> np.ndarray:
        """The leg-array columns ``seqs`` at ``now`` (``mobs`` their
        models), re-reading every expired leg from its model first."""
        legs = self._legs
        rows = legs.take(seqs, axis=1)
        stale = np.flatnonzero(rows[6] <= now)
        if len(stale):
            fresh = np.array([mobs[i].leg(now) for i in stale.tolist()]).T
            legs[:, seqs[stale]] = fresh
            rows[:, stale] = fresh
        return rows

    @staticmethod
    def _positions(rows: np.ndarray, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Positions at ``now`` from current leg rows, with the float
        operations of ``position_at``: ``x0 + dx * ((t - t0) / span)``."""
        frac = (now - rows[4]) / rows[5]
        xs = rows[2] * frac
        xs += rows[0]
        ys = rows[3] * frac
        ys += rows[1]
        return xs, ys

    def _reindex(self, now: float) -> None:
        """Re-bucket every radio from a fresh position sample.

        Runs inside ``transmit`` (never as a scheduled event, which would
        perturb event sequence numbers) at most once per
        ``reindex_interval_s`` of simulated time, bounding both the grid
        staleness and the amortised cost.
        """
        entries = list(self._entries.values())
        seqs, mobs = _columns(entries)
        xs, ys = self._positions(self._rows(seqs, mobs, now), now)
        for entry, x, y in zip(entries, xs.tolist(), ys.tolist()):
            self._move_to_cell(entry, (x, y))
        self._reindex_due_at = now + self._reindex_interval_s

    def _check_still(self, now: float) -> None:
        """Decide whether the world is still at ``now``, and until when.

        Still means every attached radio's current leg is motionless
        (``dx == dy == 0``) beyond ``now``; the world then stays still until
        the earliest such leg ends.  Otherwise it cannot become still before
        every moving leg has ended, so the next check waits for the last of
        them.  Cached templates describe the previous still period (or an
        outdated set of radios), so they are dropped either way.
        """
        self._static_fanouts.clear()
        rows = self._rows(*_columns(list(self._entries.values())), now)
        ends = rows[6]
        moving = (rows[2] != 0.0) | (rows[3] != 0.0) | (ends <= now)
        self._still = not moving.any()
        if self._still:
            self._still_next = float(ends.min()) if len(ends) else math.inf
        else:
            self._still_next = float(ends[moving].max())

    def _block(self, block_key: tuple[int, int]) -> tuple:
        """Memoised, attach-order candidates of one 3×3 cell block."""
        block = self._blocks.get(block_key)
        if block is None:
            cx, cy = block_key
            cells = self._cells
            entries = []
            for ix in (cx - 1, cx, cx + 1):
                for iy in (cy - 1, cy, cy + 1):
                    bucket = cells.get((ix, iy))
                    if bucket:
                        entries.extend(bucket)
            entries.sort(key=lambda e: e.seq)
            # Plain lists, not object arrays: the garbage collector cannot
            # see through an ndarray, so cycles through one would leak.
            block = self._blocks[block_key] = (
                *_columns(entries),
                [e.lead for e in entries],
                [e.trail for e in entries],
            )
        return block

    def _resolve(
        self, src_pos: tuple[float, float], src_seq: int, tx_power: float, now: float
    ) -> WaveTemplate | None:
        """The wave template of one transmission, or None if nothing is in
        range — one array pass over the source's candidate block.

        Every float is the one the brute scan computes: positions and
        distances repeat its operations element-wise, gains are exact (see
        the module docs), and survivors are ranked in attach order, so
        their wave keys are the keys per-edge scheduling would assign.
        """
        size = self._cell_size
        seqs, mobs, leads, trails = self._block(
            (int(src_pos[0] // size), int(src_pos[1] // size))
        )
        # rx - src is the exact negation of distance()'s src - rx, so the
        # squares, and every distance, are bit-identical to it.
        dx, dy = self._positions(self._rows(seqs, mobs, now), now)
        dx -= src_pos[0]
        dy -= src_pos[1]
        dx *= dx
        dy *= dy
        dx += dy
        dist = np.sqrt(dx, out=dx)
        prop = self.propagation
        if prop.bulk_exact:
            gains = prop.gain_at_many(dist)
        else:
            gains = PropagationModel.gain_at_many(prop, dist)  # scalar gain_at
        rx = tx_power * gains
        keep = np.flatnonzero((rx >= self.interference_floor_w) & (seqs != src_seq))
        if not len(keep):
            return None
        if self.model_propagation_delay:
            delays = dist[keep] / SPEED_OF_LIGHT
            order = np.argsort(delays, kind="stable")
            delays = delays[order]
        else:
            delays = np.zeros(len(keep))
            order = np.arange(len(keep))
        # WaveTemplate.gap: the smallest delay step between neighbours in
        # inverted rank order.
        gap = float(
            np.min(
                delays[1:] - delays[:-1], where=order[1:] < order[:-1], initial=math.inf
            )
        )
        pick = keep[order]
        picked = pick.tolist()
        return WaveTemplate.presorted(
            tuple(delays.tolist()),
            tuple(order.tolist()),
            tuple(map(leads.__getitem__, picked)),
            tuple(map(trails.__getitem__, picked)),
            tuple(rx[pick].tolist()),
            gap,
        )

    # ------------------------------------------------------------------ TX

    def transmit(self, src: Radio, frame: PhyFrame) -> None:
        """Emit ``frame`` from ``src`` and fan out edges to other radios."""
        src.begin_tx(frame)
        if self._cell_size is None:
            self._fanout_brute(src, frame)
        else:
            self._fanout_indexed(src, frame)

    def _fanout_brute(self, src: Radio, frame: PhyFrame) -> None:
        """Reference fan-out: scan every radio, recompute every gain, and
        schedule every edge as its own event (the oracle for waves)."""
        sim = self.sim
        now = sim.now
        duration = frame.duration_s
        src_pos = src.position
        floor = self.interference_floor_w
        for rx in self._radios:
            if rx is src:
                continue
            rx_pos = rx.position
            gain = self.propagation.gain(src_pos, rx_pos)
            rx_power = frame.tx_power_w * gain
            if rx_power < floor:
                continue
            delay = 0.0
            if self.model_propagation_delay:
                delay = distance(src_pos, rx_pos) / SPEED_OF_LIGHT
            # The start and end of the *same* frame differ by the airtime,
            # but back-to-back frames can abut: the trailing edge's lower
            # priority lets the earlier frame's end fire before the next
            # frame's start when times tie.
            sim.schedule(
                now + delay,
                rx.signal_start,
                args=(frame, rx_power),
                priority=LEAD_PRIORITY,
                label="phy.sig_start",
            )
            sim.schedule(
                now + delay + duration,
                rx.signal_end,
                args=(frame.frame_id,),
                priority=TRAIL_PRIORITY,
                label="phy.sig_end",
            )

    def _fanout_indexed(self, src: Radio, frame: PhyFrame) -> None:
        """Grid-indexed fan-out: one array resolve per transmit, replayed
        from the template cache while the world is still.

        Produces the exact dispatch sequence of :meth:`_fanout_brute`: the
        candidate set is a superset of every radio above the interference
        floor and :meth:`_resolve` computes the brute scan's floats.
        """
        tx_power = frame.tx_power_w
        if tx_power > self._max_tx_power_w:
            raise ValueError(
                f"tx power {tx_power!r} W exceeds the channel's "
                f"max_tx_power_w {self._max_tx_power_w!r} — the spatial index "
                "cannot guarantee reachability beyond it"
            )
        now = self.sim.now
        if now >= self._reindex_due_at:
            self._reindex(now)
        entry = self._entries.get(src)
        if entry is None:
            # Unattached transmitter: legal (the brute path allows it), but
            # it has no seq to key the template cache on.
            template = self._resolve(src.position, -1, tx_power, now)
        else:
            if now >= self._still_next:
                self._check_still(now)
            if self._still:
                key = (entry.seq, tx_power)
                fanouts = self._static_fanouts
                template = fanouts.get(key, _MISSING)
                if template is _MISSING:
                    template = self._resolve(
                        entry.mobility.position_at(now), entry.seq, tx_power, now
                    )
                    if len(fanouts) >= _STATIC_FANOUT_CAP:
                        fanouts.clear()
                    fanouts[key] = template
            else:
                src_pos = entry.mobility.position_at(now)
                self._move_to_cell(entry, src_pos)
                template = self._resolve(src_pos, entry.seq, tx_power, now)
        if template is not None:
            template.launch(
                self.sim, frame.duration_s, frame, frame.frame_id, _EDGE_LABELS
            )

    # --------------------------------------------------------------- queries

    def gain_now(self, a: Radio, b: Radio) -> float:
        """Current propagation gain between two attached radios.

        Omniscient helper for tests and scenario validation — protocol code
        must estimate gains from received frames instead.
        """
        return self.propagation.gain(a.position, b.position)

    def rx_power_now(self, src: Radio, dst: Radio, tx_power_w: float) -> float:
        """Received power at ``dst`` if ``src`` transmitted now [W]."""
        return tx_power_w * self.gain_now(src, dst)

"""Emulated link layer and reliable-connection engine.

The fabric plays subnet manager (LID assignment), switch (routing by
destination LID), and HCA transport engine (MTU segmentation, PSN
ordering, cumulative ACKs, RNR NAKs, timeout retransmission).

The unit of delivery and of acknowledgement is a burst: the frames that
land on one port at one virtual instant (loopback), or that the
datagrams waiting on a port's socket hold (sockets). A receiving QP
that accepts in-order frames in a burst, drains held frames or sees a
stale duplicate owes one cumulative ACK, for the PSN before the one it
now expects, which ``_end_burst`` sends when the burst ends, at the
instant its last frame landed (IBTA RC lets one ACK cover any run of
PSNs). That is the only place a receiver sends an ACK: a stale
duplicate is answered with the last in-order PSN, not its own, as
Linux rxe's responder answers a duplicate SEND. NAKs and RNR NAKs
leave at once; the NAK that asks again for a gap follows its QP's ACK.

Loss recovery is NAK-driven, after the IBTA RC PSN sequence error, and
repairs every gap of a window in one round trip, as IRN's selective
NACK does for RoCE and TCP's SACK blocks (RFC 2018) do: a receiver
holds frames that arrive ahead of the expected PSN (up to ``HOLD_PSNS``
ahead) and reports each gap as it opens, in a NAK for the expected PSN
whose gap list (an extension of the wire format) names that gap. The
sender resends every listed frame that is still unacked at once, but
not one whose last copy left less than SRTT/2 ago (a copy of that NAK
asked for it already). Once a gap fills, the held frames that now
continue the sequence are accepted as one run, under the burst's ACK;
if frames are still held, a NAK right after that ACK asks again for
the next gap (``_ask_again``). The receiver keeps no time for a gap:
whether that gap's last copy may still be on the way is the sender's
call, by the same SRTT/2 age as for any NAK. A loss that no later
frame reveals (a lost last frame, NAK, NAK'd resend or final ACK) is
caught by a tail-loss probe, after RFC 8985: a head unacked for one
probe timeout (PTO) is resent once, alone. The PTO follows the path's
round trip: each QP keeps an SRTT after RFC 6298, sampled from the
ACKs of frames sent once (Karn's rule), and its PTO is 2 x SRTT plus
an allowance (``PROBE_MS`` before the first sample), capped by the
QP's retransmit timeout. The allowance is ``PROBE_ALLOWANCE_MS`` on
loopback and a thread switch interval on sockets. That timeout remains
the fallback when the probe is lost too: it resends each of the
window's first ``BURST_FRAMES`` whose last copy is as old as the
timeout, the head first, and skips the younger ones.
Every resend, whatever its cause (probe, end of an RNR pause, NAK,
timeout or stale-head resume), goes through one loop, ``_resend``: a
frame is resent because it was named and its last copy is old enough,
as in IRN's selective resend and RFC 8985. ``_resend`` also decides
what a resend costs, as Linux rxe's completer spends ``retry_cnt`` in
one state that a timeout and a NAK both reach: a resend of the head
(probe, timeout or NAK) charges its retry budget once, and one past
``retry_cnt`` fails the send and resends nothing; the end of an RNR
pause and the stale-head resume are charged nothing.

An RNR NAK, after IBTA RC's receiver-not-ready rule, pauses the refused
head for the time its delay code (the receiver's ``min_rnr_timer``)
names in the ``ibv_modify_qp(3)`` table, ``RNR_TIMER_MS``; copies of it
that arrive during the pause are ignored, so one refusal charges the
RNR budget once. The end of the pause resends that head alone: the
receiver still holds the frames that followed it. A NAK and an RNR NAK
are read by one prologue, ``_nakked_head``, as Linux rxe's completer
reads every AETH syndrome in one ``check_ack``. Every retry setting
comes from the QP: the retransmit timeout from its ``timeout`` code
(``ack_timeout_ms``), the budgets from ``retry_cnt`` and ``rnr_retry``
(7 retries without limit).

Two interchangeable transports share the engine:

* LoopbackFabric: an in-process discrete-event queue driven by a virtual
  clock. Fully deterministic for a given seed and schedule. Each burst
  is one event.
* SocketFabric: one UDP socket per attached port, LIDs resolved to
  host/port pairs from a static config file, real time. As Linux
  Soft-RoCE carries each IBA packet in a UDP datagram, it keeps no
  connection: RC reliability lives in the engine, and a datagram lost
  on the way is recovered like any lost frame. It starts no thread: the
  thread that blocks in a verbs wait moves it, over one poll set that
  stands for the life of the process. Each frame is one record; the
  records an engine call emits to one LID are packed into datagrams,
  sent when the call returns.

The engine works per burst on both sides. ``transmit_message`` segments
a message in one pass and hands each frame, as it is built, to the
transport's ``_deliver``; every emitted frame, a resend, ACK or NAK too,
takes that one call, and in it the one per-frame fault plan and trace
point (``_wire_copies``: drop filter, fault draws, frame trace). The
per-frame paths build each frame and trace event with ``tuple.__new__``
from all its fields. The send window holds a ``[frame, sent_at]`` pair
per unacked frame; its head is the only frame ever probed, paused or
charged to a retry budget (by ``_resend`` or ``on_rnr_nak``), so the
head's retry state lives on the QP's ``SenderState``.
One burst landing, ``_land``, splits the frames, in the order they were
sent, into runs of one QPN and one kind, and hands each DATA run to a
single ``on_data`` call, which takes the run's in-order frames in one
loop (as Linux rxe's responder drains a QP's queued packets in one run),
and then sends the burst's ACKs. Every ACK, NAK and RNR NAK is built by
one ``_reply``. Both transports share these and one retransmit timer
(one pending tick per QP, armed with ``schedule_at`` at the head's
probe, timeout or RNR pause deadline exactly, ``_due``; a tick
superseded by an earlier deadline is cancelled, and so is the tick of
a window that empties, so a lossless run fires none on either
transport). A tick's resend goes through ``_resend`` and is charged
there. A transport carries only frames and time: it supplies ``now_ms``,
``schedule_at`` and ``_deliver``, hands each burst to ``_land``, and
moves in ``wait_until``, the blocking wait of the verbs objects
(sockets), or in ``progress``, which a driver whose callers all wait
calls (loopback).

A QP's engine state follows its verbs state, and only the fabric sets
it, in one hook: ``_enter_state`` makes one call for every state
change, ``on_qp_state``, after the verbs side has checked the
transition, applied the attributes and dropped (RESET) or flushed (ERR)
the queues, as Linux rxe's ``rxe_qp_from_attr`` switches on the new
state. A QP has a ``SenderState`` exactly while it is in RTS on an
attached port (RTS makes it; ``on_qp_leave`` drops it, window and tick
together) and a ``ReceiverState`` exactly while it is bound to a port,
from RTR until RESET (``destroy`` too) or the port's detach
(``unbind_qp``, which also stops the sender). Entering ERR stops the
sender only. So a QP that leaves RTS, whatever the cause, has no tick
and resends nothing, on either transport, and every frame the engine
emits comes from a bound QP.

Engine callbacks (on_data / on_ack / on_timeout_tick) run serialized
under the world lock shared with the verbs objects, which the transport
holds when it calls them (they do not take it again), on the caller's
thread: the one that pumps the loopback clock, or on sockets the one
waiting in a verbs wait, which gets any exception they raise. User code
never runs inside them.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import select
import socket
import sys
import threading
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from .verbs import (
    DeviceContext,
    Progress,
    QpState,
    QueuePair,
    VerbsError,
    WcStatus,
)
from .wire import (
    Frame,
    FrameDecodeError,
    FrameKind,
    PSN_MASK,
    SegMark,
    decode_frame,
    encode_frame,
    frame_body_length,
    pack_gaps,
    unpack_gaps,
    HEADER_LEN,
)

SERIAL_HALF = 1 << 23
# a receiver holds out-of-order frames this many PSNs past expected_psn
# at most; frames further ahead are discarded and left to retransmission
HOLD_PSNS = 1024
# a timeout or a stale-head resume resends, of the window's first this
# many frames, each whose last copy is as old as the QP's timeout
BURST_FRAMES = 64
# a head unacked for one probe timeout (PTO) is resent once, alone (a
# tail-loss probe), before the retransmit timeout takes over. The PTO is
# PROBE_MS until the QP's first RTT sample, then 2 x SRTT plus
# PROBE_ALLOWANCE_MS, as Linux's TLP adds a minimum to RFC 8985's
# 2 x SRTT; the QP's timeout caps both. On loopback (SRTT 2 ms) the probe
# falls 3.25 ms after the ACK it waits for is due, past the 2.5 ms
# (REORDER_EXTRA_MS) by which a reordered copy or its ACK is late.
# SocketFabric adds a thread switch interval instead
PROBE_MS = 10.0
PROBE_ALLOWANCE_MS = 1.25
# the RNR NAK timer codes (a QP's min_rnr_timer) in ms, by code, after
# the table in ibv_modify_qp(3); code 0 is the longest
RNR_TIMER_MS = (655.36, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.12, 0.16,
                0.24, 0.32, 0.48, 0.64, 0.96, 1.28, 1.92, 2.56, 3.84, 5.12,
                7.68, 10.24, 15.36, 20.48, 30.72, 40.96, 61.44, 81.92,
                122.88, 163.84, 245.76, 327.68, 491.52)
# extra wire delay of a duplicate copy (after its original) and of a
# reordered frame
DUP_EXTRA_MS = 0.5
REORDER_EXTRA_MS = 2.5
# what ``_wire_copies`` plans for a frame sent once on time
_SENT_ONCE = ("sent",), (0.0,)
# the enum members the per-frame paths read, as module constants: a
# member read off an Enum class costs several times a global read
_DATA, _ACK, _NAK = FrameKind.DATA, FrameKind.ACK, FrameKind.NAK
_RNR_NAK, _ONLY = FrameKind.RNR_NAK, SegMark.ONLY
_FIRST, _MIDDLE, _LAST = SegMark.FIRST, SegMark.MIDDLE, SegMark.LAST
_RTR, _RTS, _ERR = QpState.RTR, QpState.RTS, QpState.ERR
# the segments that start and end a message
_STARTS = (_ONLY, _FIRST)
_ENDS = (_ONLY, _LAST)
# the states in which a QP drops what it receives
_NOT_RECEIVING = (QpState.RESET, QpState.INIT, _ERR)
# what makes consecutive frames of a burst one run for ``_land``
_RUN_KEY = attrgetter("dest_qpn", "kind")
# builds a Frame or TraceEvent from all its fields, without the Python
# ``__new__`` that NamedTuple generates; the per-frame paths use it
_new = tuple.__new__
# the most events one drain runs before it calls the run a livelock
MAX_EVENTS = 5_000_000
# the largest UDP payload over IPv4: 65 535 less the IP and UDP headers
MAX_DATAGRAM = 65_507


def psn_add(psn: int, n: int) -> int:
    return (psn + n) & PSN_MASK


def psn_before(a: int, b: int) -> bool:
    """Serial-number compare mod 2^24: is ``a`` older than ``b``?

    Exactly one of ``psn_before(a, b)`` and ``psn_before(b, a)`` holds
    when the PSNs differ by anything but 2^23. At exactly 2^23 neither
    holds, so the compare is not total; ``on_data`` takes a frame that
    far from the expected PSN for a future one, beyond the hold bound,
    and discards it.
    """
    if a == b:
        return False
    return ((b - a) & PSN_MASK) < SERIAL_HALF


def psn_le(a: int, b: int) -> bool:
    """Is ``a`` older than or equal to ``b``, mod 2^24?"""
    return ((b - a) & PSN_MASK) < SERIAL_HALF


class FabricConfigError(ValueError):
    pass


@dataclass(frozen=True)
class FaultProfile:
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("drop_probability", "duplicate_probability",
                     "reorder_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {p}")

    @cached_property  # frozen, so computed once; read for every frame
    def active(self) -> bool:
        return (self.drop_probability > 0 or self.duplicate_probability > 0
                or self.reorder_probability > 0)


def ack_timeout_ms(code: int) -> float:
    """The retransmit timeout a QP's 5-bit ``timeout`` code names, after
    ``ibv_modify_qp(3)``: 4.096 us x 2^code; 0 means none (inf)."""
    return 0.004096 * (1 << code) if code else math.inf


def _due(snd: SenderState) -> float:
    """When the head's tick has work: the end of its pause if it is
    paused, else one PTO after its send (the QP's ``pto_ms``: 2 x SRTT
    plus PROBE_ALLOWANCE_MS, or PROBE_MS before the first RTT sample,
    and never past the timeout), then once probed its timeout; inf if
    the QP has none."""
    if snd.paused_until:
        return snd.paused_until
    return snd.unacked[0][1] + (snd.timeout_ms if snd.probed
                                else snd.pto_ms)


class SenderState:
    """Per-QP outbound window: a ``[frame, sent_at]`` pair per unacked
    DATA frame, in PSN order; unacked PSNs stay contiguous mod 2^24. The
    send a frame belongs to is the oldest one not completed, the QP's
    ``send_queue[0]``, since RC completes sends in post order. A QP has
    one exactly while it is in RTS on an attached port: ``on_qp_state``
    makes it, and ``on_qp_leave`` drops it when the QP enters ERR or is
    unbound (RESET, ``destroy``, its port's detach).

    ``timeout_ms`` is the retransmit timeout that the QP's ``timeout``
    code named when it entered RTS (``ack_timeout_ms``); the probe, the
    timeout and the stale-head resume all read it.

    ``srtt`` estimates the round trip after RFC 6298 (0.0 before the
    first sample): ``_retire_through`` takes one sample per ACK that
    retires frames, from the newest one's send, unless a retired frame
    was resent (Karn's rule). ``resent`` counts the prefix of the window
    that holds every frame resent: each ``_resend`` grows it to the
    furthest frame it resent.
    ``pto_ms``, the probe timeout ``_due`` reads, is PROBE_MS until the
    first sample, then 2 x ``srtt`` plus ``allowance_ms`` (RFC 8985's
    PTO with a minimum added, as Linux's TLP adds one: the fabric's, by
    default PROBE_ALLOWANCE_MS), and never more than ``timeout_ms``. RFC
    6298's RTTVAR is not kept: nothing here reads it.

    Only the head is ever probed, paused or charged a retry, so its retry
    state lives here, not on each frame: ``retries_used`` and
    ``rnr_retries_used`` count what its two budgets spent (``_resend``
    and ``on_rnr_nak`` charge them, one each), ``probed``
    says the tail-loss probe resent it already, and ``paused_until`` is
    the end of its RNR pause (0.0 when not paused; the tick that ends
    the pause clears it). ``_retire_through`` resets all four when the
    head retires.

    ``tick`` is the pending retransmit tick, the ``(time, sequence,
    callback)`` entry ``schedule_at`` queued, or None; an ACK that
    empties the window cancels it, and so does ``on_qp_leave``."""

    __slots__ = ("next_psn", "timeout_ms", "allowance_ms", "unacked", "tick",
                 "retries_used", "rnr_retries_used", "probed",
                 "paused_until", "srtt", "pto_ms", "resent")

    def __init__(self, next_psn: int, timeout_ms: float,
                 allowance_ms: float = PROBE_ALLOWANCE_MS):
        self.next_psn = next_psn
        self.timeout_ms = timeout_ms
        self.allowance_ms = allowance_ms
        self.unacked: deque[list] = deque()
        self.tick: Optional[tuple] = None
        self.retries_used = self.rnr_retries_used = 0
        self.probed, self.paused_until = False, 0.0
        self.srtt = 0.0
        self.pto_ms = min(PROBE_MS, timeout_ms)
        self.resent = 0

    def sample_rtt(self, rtt: float) -> None:
        """Fold one round trip into ``srtt`` (RFC 6298, 2.2-2.3) and set
        the probe timeout from it."""
        self.srtt = 0.875 * self.srtt + 0.125 * rtt if self.srtt else rtt
        self.pto_ms = min(2 * self.srtt + self.allowance_ms, self.timeout_ms)


class ReceiverState:
    """Per-QP inbound sequence: frames held ahead of a gap, by PSN.

    ``edge`` is the PSN after the highest one held; a frame held beyond
    it opens a gap, which one NAK reports at once."""

    __slots__ = ("expected_psn", "reassembly", "held", "edge")

    def __init__(self, expected_psn: int):
        self.expected_psn = expected_psn
        # payloads of the message so far; empty between messages
        self.reassembly: list[bytes] = []
        self.held: dict[int, Frame] = {}
        self.edge = expected_psn


@dataclass
class Endpoint:
    fabric: "Fabric"
    context: DeviceContext
    port: int
    lid: int
    qpn_map: dict[int, QueuePair] = field(default_factory=dict)
    # loopback only: the frames due to land here, by virtual arrival time
    bursts: dict[float, list[Frame]] = field(default_factory=dict)


class TraceEvent(NamedTuple):
    """One frame the engine emitted; a tuple, so cheap per frame."""

    t: float
    src_lid: Optional[int]
    dst_lid: int
    frame: Frame
    status: str  # sent | dup | dropped | unrouted | injected


class Fabric(Progress):
    """Transport-independent engine; subclasses supply clock and delivery.

    The verbs waits go through its ``Progress`` methods, and a driver
    whose callers all wait moves it through ``progress``. A loopback
    clock moves only when ``progress`` (or a test) pumps it, so the base
    verbs waits only wait."""

    def __init__(self, faults: FaultProfile | None = None, *, registry):
        self.faults = faults or FaultProfile()
        self.routing: dict[int, Endpoint] = {}
        self.next_lid = 1
        self.drop_filter: Optional[Callable[[Frame], bool]] = None
        self.trace: list[TraceEvent] = []
        # the heap behind schedule_at: (time, sequence, callback)
        self._timers: list = []
        self._seq = itertools.count()
        self._rng = random.Random(self.faults.seed)
        # receive QPs owing a cumulative ACK when the current burst ends,
        # in the order they came to owe it, each True if a drain left
        # frames held, so the next gap is asked for again after the ACK
        self._owed: dict[QueuePair, bool] = {}
        self._registry = registry
        self._lock = registry.lock

    # -- attachment ------------------------------------------------------

    def attach(self, context: DeviceContext, port: int = 1) -> int:
        """Activate a port: assign it a LID and route frames to it."""
        if context.registry is not self._registry:
            raise VerbsError("fabric already serves a different registry")
        with self._lock:
            if port not in context.ports:
                raise VerbsError(f"no such port {port}")
            if port in context._attachments:
                raise VerbsError(f"port {port} already attached")
            lid = self._assign_lid()
            ep = Endpoint(self, context, port, lid)
            self.routing[lid] = ep
            context._attachments[port] = ep
            return lid

    def detach(self, context: DeviceContext, port: int) -> None:
        """Take a port down: unbind each of its QPs (``unbind_qp``), then
        stop routing frames to it."""
        with self._lock:
            ep = context._attachments.pop(port, None)
            if ep is None:
                return
            for qp in list(ep.qpn_map.values()):
                self.unbind_qp(qp)
            self.routing.pop(ep.lid, None)

    def _assign_lid(self) -> int:
        lid = self.next_lid
        self.next_lid += 1
        return lid

    # what a QP's PTO adds to 2 x SRTT (SocketFabric adds a thread switch)
    _probe_allowance_ms = PROBE_ALLOWANCE_MS

    def on_qp_state(self, qp: QueuePair, endpoint: Endpoint) -> None:
        """Follow a QP into the state ``_enter_state`` just gave it; the one
        place that says what a verbs state means to the engine, as Linux
        rxe's ``rxe_qp_from_attr`` switches on the new state. ``endpoint``
        is the QP's bound endpoint or, unbound, its port's attachment.
        RTR routes (lid, qpn) to the QP and makes its receiver. A QP that
        is not bound (in INIT, or moved to RTR before its port was
        attached) has no engine to start or stop; a bound one gets its
        sender in RTS, stops it in ERR (``on_qp_leave``) and is unbound
        in RESET (``unbind_qp``)."""
        state = qp.state
        if state is _RTR:
            endpoint.qpn_map[qp.qpn] = qp
            qp._endpoint = endpoint
            qp.receiver = ReceiverState(qp.attrs.rq_psn)
        elif qp._endpoint is None:
            return
        elif state is _RTS:
            qp.sender = SenderState(qp.attrs.sq_psn,
                                    ack_timeout_ms(qp.attrs.timeout),
                                    self._probe_allowance_ms)
        elif state is _ERR:
            self.on_qp_leave(qp)
        else:  # RESET: a QP in INIT is never bound
            self.unbind_qp(qp)

    def unbind_qp(self, qp: QueuePair) -> None:
        """Undo RTR's binding, on RESET (``destroy`` too) or the port's
        detach: stop the QP's send engine (``on_qp_leave``), stop routing
        to it, and drop its receive state."""
        self.on_qp_leave(qp)
        ep = qp._endpoint
        if ep.qpn_map.get(qp.qpn) is qp:
            del ep.qpn_map[qp.qpn]
        qp._endpoint = qp.receiver = None

    def on_qp_leave(self, qp: QueuePair) -> None:
        """Stop the QP's send engine, when it leaves RTS (for ERR) or is
        unbound: drop its sender, window and all, and cancel its tick, as
        Linux rxe stops a QP's timers on reset and cleanup. A send still
        in flight is resent no more; the QP's flush or reset decides
        whether it gets a CQE."""
        snd, qp.sender = qp.sender, None
        if snd is not None and snd.tick is not None:
            self._cancel(snd.tick)

    # -- clock / scheduling (transport specific) ---------------------------

    def now_ms(self) -> float:
        raise NotImplementedError

    def schedule_at(self, t: float, fn: Callable[[], None]) -> tuple:
        """Run ``fn`` at ``t`` on the ``now_ms`` clock; return the timer's
        entry, which ``_cancel`` takes."""
        raise NotImplementedError

    def _cancel(self, timer: tuple) -> None:
        """Take a pending timer out of the heap; the caller holds the world
        lock. Every tick a ``SenderState`` holds is in the heap: it is
        cleared before it runs, and dropped when an ACK empties its
        window or the sender goes (``on_qp_leave``)."""
        self._timers.remove(timer)
        heapq.heapify(self._timers)

    def _deliver(self, src: Endpoint, dlid: int, frame: Frame) -> None:
        """Send each copy ``_wire_copies`` plans, after its extra delay."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the transport's sockets, if it has any."""

    def progress(self, wait: Callable[[float], bool]) -> bool:
        """Move the fabric for a driver whose callers all wait: block in
        ``wait``, one of their verbs waits, for 0.25 s at most; a fabric
        that the waiting thread moves (SocketFabric) moves in it. False
        means nothing is scheduled, so no wait can ever end; this base
        cannot tell and says True."""
        wait(0.25)
        return True

    # -- retransmit timer ----------------------------------------------------

    def _arm_tick(self, qp: QueuePair) -> None:
        """Schedule one timeout tick at the head's deadline, ``_due``,
        exactly, unless one is pending for no later; the tick re-arms
        itself while frames stay unacked. A pending tick that is due
        later is cancelled. Every caller has frames unacked, unless the
        send it just failed took the sender with it."""
        snd = qp.sender
        if snd is None:
            return
        deadline = _due(snd)
        tick = snd.tick
        if (tick[0] if tick else math.inf) <= deadline:
            return
        if tick:
            self._cancel(tick)
        snd.tick = self.schedule_at(deadline, partial(self._tick_fired, qp))

    def _tick_fired(self, qp: QueuePair) -> None:
        # a tick in the heap belongs to its QP's sender of the moment
        qp.sender.tick = None
        self.on_timeout_tick(qp, self.now_ms())
        self._arm_tick(qp)

    # -- send side ---------------------------------------------------------

    def transmit_message(self, qp: QueuePair, payload: bytes) -> None:
        """Segment a message into DATA frames with consecutive PSNs, in
        one pass: each frame enters the unacked window, stamped with the
        message's send time, and goes to ``_deliver`` at once. The message
        is the newest send in ``qp.send_queue``.

        Delivery failures surface later as completion statuses, never
        here.
        """
        with self._lock:
            if qp.sender is None:
                raise VerbsError("transmit requires a QP in RTS")
            snd = qp.sender
            attrs = qp.attrs
            mtu, dest_qpn = attrs.path_mtu, attrs.dest_qp_num
            src, dlid = qp._endpoint, attrs.ah.dlid
            deliver, enter, now = (self._deliver, snd.unacked.append,
                                   self.now_ms())
            last = max(len(payload) - 1, 0) // mtu  # index of the last frame
            segs = ((_ONLY,) if not last else
                    (_FIRST, *(_MIDDLE,) * (last - 1), _LAST))
            psn = snd.next_psn
            for off, seg in zip(range(0, last * mtu + 1, mtu), segs):
                frame = _new(Frame, (_DATA, dest_qpn, psn, seg,
                                     payload[off:off + mtu], 0))
                snd.next_psn = psn = (psn + 1) & PSN_MASK
                enter([frame, now])
                deliver(src, dlid, frame)
            self._arm_tick(qp)

    def _resend(self, qp: QueuePair, spans=((0, 1),), age: float = 0.0,
                charge: bool = True) -> None:
        """Resend each window frame named by ``spans``, ``(start, count)``
        runs of window indices, whose last copy is at least ``age`` old,
        and restart its clock. A copy is that old once its send time plus
        ``age`` has come, the sum ``_due`` arms the tick at, so a timeout
        always resends its head. ``resent``, a prefix of the window that
        holds every frame ever resent (Karn's rule), grows to the furthest
        one. Every DATA resend comes here: the probe and the end of an RNR
        pause take the defaults (the head), a NAK passes its gap list, and
        the timeout and the stale-head resume the first ``BURST_FRAMES``
        with the QP's timeout as the age.

        It also decides what the resend costs, after IBTA RC's retry
        count, which a timeout and a NAK spend alike: a call that resends
        the head (a span starts at index 0 and the head is as old as
        ``age``) charges one unit of its retry budget first, and one past
        ``retry_cnt`` fails the send with RetryExceeded and resends
        nothing. The end of an RNR pause (its RNR NAK was charged) and the
        stale-head resume pass ``charge=False``."""
        snd = qp.sender
        unacked, now = snd.unacked, self.now_ms()
        if charge and unacked[0][1] + age <= now and any(
                not start and count for start, count in spans):
            if snd.retries_used >= qp.attrs.retry_cnt:
                qp.complete_send(WcStatus.RETRY_EXCEEDED)
                return
            snd.retries_used += 1
        src, dlid, deliver = qp._endpoint, qp.attrs.ah.dlid, self._deliver
        resent, n = snd.resent, len(unacked)
        for start, count in spans:
            for i in range(start, min(start + count, n)):
                entry = unacked[i]
                if entry[1] + age <= now:
                    entry[1] = now
                    deliver(src, dlid, entry[0])
                    if i >= resent:
                        resent = i + 1
        snd.resent = resent

    def on_ack(self, qp: QueuePair, frame: Frame) -> None:
        """Cumulative ack: retire every unacked entry with psn <= frame.psn.

        Progress that exposes a head as old as the QP's timeout (frames
        the receiver could not hold while waiting for a retransmission)
        resumes the replay at once instead of waiting out another
        timeout: the first ``BURST_FRAMES`` of the window that are as old
        as the timeout are resent, as a timeout resends them, but
        ``_resend`` charges them to no budget (``charge=False``): the new
        head's budget is for its own losses. A head that progress exposes
        was never paused: a pause leaves with the head it was set on.
        """
        snd = qp.sender
        if snd is None:
            return
        progressed = self._retire_through(qp, frame.psn)
        if snd.unacked:
            if progressed and (snd.unacked[0][1] + snd.timeout_ms
                               <= self.now_ms()):
                self._resend(qp, ((0, BURST_FRAMES),), snd.timeout_ms,
                             charge=False)
            self._arm_tick(qp)

    def _retire_through(self, qp: QueuePair, psn: int) -> bool:
        """Retire every unacked frame with psn <= ``psn``, completing the
        sends whose last frame goes; True if any frame went. If none of
        them was resent, the newest one's send time gives an RTT sample
        (Karn's rule). A new head starts with the full retry budgets,
        unprobed and unpaused. A window that empties drops its pending
        tick: the next send arms a new one."""
        snd = qp.sender
        unacked = snd.unacked
        before = len(unacked)
        entry = None
        while unacked and psn_le(unacked[0][0].psn, psn):
            entry = unacked.popleft()
            if entry[0].seg in _ENDS:
                qp.complete_send()
        if entry is None:
            return False
        if not unacked and snd.tick is not None:
            self._cancel(snd.tick)
            snd.tick = None
        if snd.resent:
            snd.resent = max(0, snd.resent - (before - len(unacked)))
        else:
            snd.sample_rtt(self.now_ms() - entry[1])
        snd.retries_used = snd.rnr_retries_used = 0
        snd.probed, snd.paused_until = False, 0.0
        return True

    def _nakked_head(self, qp: QueuePair, frame: Frame) -> bool:
        """Read a NAK or an RNR NAK: everything before its PSN arrived (an
        implicit ACK), so retire it; then say whether it names the head.
        It does not if the QP has no sender (it is not in RTS), if the NAK
        is stale (its PSN is no longer at the head) or if the head is
        paused (a copy of the refused frame or of its NAK, or a NAK the
        pause's end answers anyway)."""
        snd = qp.sender
        if snd is None:
            return False
        self._retire_through(qp, psn_add(frame.psn, -1))
        return (bool(snd.unacked) and not snd.paused_until
                and snd.unacked[0][0].psn == frame.psn)

    def on_nak(self, qp: QueuePair, frame: Frame) -> None:
        """PSN sequence error: the receiver holds later frames and still
        waits for ``frame.psn``, so everything before it is retired. The
        frames its gap list names that are still unacked are resent at
        once by ``_resend``, but not one whose last copy is younger than
        SRTT/2: that copy (sent for a duplicate of this NAK, say) is
        still on the way. ``_resend`` charges the head's retry budget if
        it resends the head, as for a timeout, and the other frames
        nothing. A stale NAK, or one for a paused head, is ignored with
        its gap list: the receiver has moved on since it listed those
        gaps (``_nakked_head``)."""
        if not self._nakked_head(qp, frame):
            return
        self._resend(qp, [((first - frame.psn) & PSN_MASK, count)
                          for first, count in unpack_gaps(frame.payload)],
                     qp.sender.srtt / 2)
        self._arm_tick(qp)

    def on_rnr_nak(self, qp: QueuePair, frame: Frame) -> None:
        """Receiver had no buffer for the head: pause it.

        Like a NAK, an RNR NAK acknowledges everything before its PSN; a
        receiver that drains held frames may send it ahead of the ACK.
        One for the head charges its RNR budget and pauses it for the
        time its delay code names in ``RNR_TIMER_MS``; the QP's tick ends
        the pause. An ``rnr_retry`` of 7 is no limit: the budget never
        runs out.
        """
        if not self._nakked_head(qp, frame):
            return
        snd = qp.sender
        budget = qp.attrs.rnr_retry
        if budget != 7 and snd.rnr_retries_used >= budget:  # 7: no limit
            qp.complete_send(WcStatus.RNR_RETRY_EXCEEDED)
            return
        snd.rnr_retries_used += 1
        snd.paused_until = self.now_ms() + RNR_TIMER_MS[frame.rnr_delay_hint]
        self._arm_tick(qp)

    def on_timeout_tick(self, qp: QueuePair, now: float) -> None:
        """End an RNR pause, probe a stalled head, or retransmit from it
        on timeout.

        A paused head waits out its pause; then it is resent alone and
        charged to neither budget again (its RNR NAK was charged, so
        ``_resend`` is told ``charge=False``), since the receiver holds
        the frames that followed it.

        A head unacked for one PTO is resent once, alone: a tail-loss
        probe, after RFC 8985. The PTO follows the path: 2 x the QP's
        SRTT plus ``PROBE_ALLOWANCE_MS`` once an ACK gave a sample,
        ``PROBE_MS`` before, and never more than the QP's timeout. It
        recovers the losses no later frame can reveal (a lost last frame,
        NAK, NAK'd resend or final ACK): the resend fills the receiver's
        gap or, as a stale duplicate, draws the cumulative ACK again.
        Once the probed head outlives the QP's timeout, the timeout
        resends every frame among the window's first ``BURST_FRAMES``
        whose last copy is as old as the timeout, the head first: a frame
        a NAK resent since is skipped, not an end to the replay. A QP
        whose timeout code is 0 has none, and its probed head waits for
        the receiver.

        The tick only picks among these three; ``_resend`` charges the
        probe and each timeout of the same head to its retry budget, like
        a NAK'd resend, and going past retry_cnt fails the in-flight send
        with RetryExceeded and throws the QP into ERR.
        """
        snd = qp.sender
        if snd is None or not snd.unacked:
            return
        if now < _due(snd):
            return
        if snd.paused_until:
            snd.paused_until = 0.0
            self._resend(qp, charge=False)
        elif snd.probed:
            self._resend(qp, ((0, BURST_FRAMES),), snd.timeout_ms)
        else:
            snd.probed = True
            self._resend(qp)

    # -- receive side --------------------------------------------------------

    def on_data(self, qp: QueuePair, *frames: Frame) -> None:
        """PSN-ordered receive path for a run of DATA frames to one QP,
        taken in order; a run of one is one frame.

        RESET/INIT (and ERR) QPs silently drop, and a QP that enters ERR
        partway through the run drops the rest of it. Stale PSNs are
        discarded, so replays from an old connection never complete twice,
        and make the QP owe the burst's cumulative ACK. A future PSN less
        than ``HOLD_PSNS`` ahead is held; one held past the highest PSN
        held so far (or the first one held) opens a gap, and draws a NAK
        for the expected PSN that lists that gap. One further ahead is
        discarded and left to retransmission. An in-order message start
        with an empty receive queue draws an RNR NAK and does not advance
        the expected PSN. An in-order frame that fills a gap releases the
        held frames behind it, in order (``_drain_held``); while nothing
        is held, the in-order frames of the run go to ``_accept``
        together. Either way the QP goes in ``_owed``, and ``_end_burst``
        acks the whole burst under one ACK.
        """
        if qp.state in _NOT_RECEIVING:
            return
        rcv = qp.receiver
        owes = False
        i, n = 0, len(frames)
        while i < n:
            frame = frames[i]
            expected = rcv.expected_psn
            if frame.psn != expected:
                i += 1
                if psn_before(frame.psn, expected):
                    owes = True
                elif (frame.psn - expected) & PSN_MASK < HOLD_PSNS:
                    held = rcv.held
                    if not held:
                        rcv.edge = expected
                    held[frame.psn] = frame
                    gap = (frame.psn - rcv.edge) & PSN_MASK
                    if gap < HOLD_PSNS:  # at or past the edge
                        if gap:
                            self._reply(qp, _NAK, expected, 0,
                                        pack_gaps(((rcv.edge, gap),)))
                        rcv.edge = (frame.psn + 1) & PSN_MASK
                continue
            # with frames held, each in-order frame may fill the gap
            i += self._accept(qp, rcv, (frame,) if rcv.held else frames[i:])
            if rcv.expected_psn != expected:
                owes = True
                if rcv.held:
                    self._drain_held(qp, rcv)
            if qp.state is _ERR:
                break
        if owes:
            self._owed.setdefault(qp, False)  # keeps a drain's True

    def _accept(self, qp: QueuePair, rcv: ReceiverState, frames) -> int:
        """Take the leading frames of ``frames`` that continue the
        sequence into the messages they belong to, advancing the expected
        PSN past each one, and return how many frames it used.

        It stops before the first frame out of order, once a completed
        message throws the QP into ERR (a message longer than its
        receive), and after a frame that it refuses (a message start
        with an empty receive queue, which draws an RNR NAK) or that is
        stray (a continuation without a start); neither of those two
        advances the expected PSN."""
        expected = rcv.expected_psn
        reassembly = rcv.reassembly
        used = 0
        for frame in frames:
            if frame.psn != expected:
                break
            used += 1
            seg = frame.seg
            if seg in _STARTS:
                if not qp.recv_queue:
                    self._reply(qp, _RNR_NAK, expected,
                                qp.attrs.min_rnr_timer)
                    break
                reassembly = []
            elif not reassembly:
                break  # continuation without a start: stray frame, ignore
            reassembly.append(frame.payload)
            expected = (expected + 1) & PSN_MASK
            if seg in _ENDS:
                rcv.expected_psn, rcv.reassembly = expected, []
                qp.complete_recv(b"".join(reassembly))
                reassembly = []
                if qp.state is _ERR:
                    return used
        rcv.expected_psn, rcv.reassembly = expected, reassembly
        return used

    def _drain_held(self, qp: QueuePair, rcv: ReceiverState) -> None:
        """Accept the run of held frames that now continues the sequence,
        in one ``_accept`` call; it sends no frame, since the burst's ACK
        covers the run. If the whole run went in and frames beyond the
        next gap are held, the QP's entry in ``_owed`` becomes True: right
        after that ACK, ``_end_burst`` asks for the next gap again
        (``_ask_again``).

        The frames ``_accept`` used leave ``held``, and the ones behind
        where it stopped stay. A held frame refused with an RNR NAK
        leaves the gap to the sender's RNR pause, so it draws no NAK.
        """
        held = rcv.held
        psn = rcv.expected_psn
        run = []
        if qp.state is not _ERR:
            while (frame := held.get(psn)) is not None:
                run.append(frame)
                psn = (psn + 1) & PSN_MASK
        for frame in run[:self._accept(qp, rcv, run)]:
            del held[frame.psn]
        # the whole run went in: nothing was refused or stray
        if held and rcv.expected_psn == psn and qp.state is not _ERR:
            self._owed[qp] = True

    def _land(self, ep: Endpoint, frames) -> None:
        """Take in one burst: dispatch its frames, in the order they were
        sent, as runs of consecutive frames with one key, ``(dest_qpn,
        kind)``, then send the ACKs they owe (``_end_burst``). A run
        whose QPN has no QP drops. A DATA run goes to ``on_data`` in one
        call; the frames of any other run go to their handler one at a
        time. No frame moves past a frame of another kind or QP.

        A burst is the frames one loopback event lands, one injected
        frame, or the frames of every datagram one socket read drains."""
        qpn_map = ep.qpn_map
        for (qpn, kind), run in itertools.groupby(frames, _RUN_KEY):
            qp = qpn_map.get(qpn)
            if qp is None:
                continue
            if kind is _DATA:
                self.on_data(qp, *run)
                continue
            handle = (self.on_ack if kind is _ACK else
                      self.on_nak if kind is _NAK else self.on_rnr_nak)
            for frame in run:
                handle(qp, frame)
        self._end_burst()

    def _end_burst(self) -> None:
        """End a burst, at the instant its last frame landed: send each QP
        in ``_owed`` one cumulative ACK, for the PSN before the one it now
        expects, and right after it, if a drain left frames held, ask
        again for the next gap (``_ask_again``). This is the only place a
        receiver sends an ACK."""
        owed = self._owed
        if owed:
            self._owed = {}
            for qp, drained in owed.items():
                rcv = qp.receiver
                self._reply(qp, _ACK, psn_add(rcv.expected_psn, -1))
                if drained:
                    self._ask_again(qp, rcv)

    def _ask_again(self, qp: QueuePair, rcv: ReceiverState) -> None:
        """A drain in the burst left frames held, beyond the gap now at
        the expected PSN: a NAK lists that gap again. The receiver does
        not judge whether the gap's resend is lost or still on the way;
        the sender resends it only if its last copy is at least SRTT/2
        old, as for any NAK."""
        if not rcv.held or qp.state is _ERR:
            return
        expected, held, count = rcv.expected_psn, rcv.held, 1
        while (expected + count) & PSN_MASK not in held:
            count += 1
        self._reply(qp, _NAK, expected, 0, pack_gaps(((expected, count),)))

    def _reply(self, qp: QueuePair, kind: FrameKind, psn: int,
               hint: int = 0, gaps: bytes = b"") -> None:
        """Send ``qp``'s peer an ACK, NAK (whose packed gap list is
        ``gaps``) or RNR NAK (whose delay code is ``hint``) for ``psn``."""
        self._deliver(qp._endpoint, qp.attrs.ah.dlid,
                      _new(Frame, (kind, qp.attrs.dest_qp_num, psn, _ONLY,
                                   gaps, hint)))

    # -- fault plan and trace -------------------------------------------------

    def _wire_copies(self, src: Endpoint, dlid: int, frame: Frame,
                     routed: bool) -> tuple:
        """Draw one frame's fates, trace it, and return the extra delay of
        each copy the wire carries: none if it is unroutable or dropped,
        one if sent, two if duplicated. An active fault profile draws
        drop, duplicate and reorder for every frame, in that order, from
        the fabric's one seeded RNG; an inactive one draws nothing.
        Reorder adds REORDER_EXTRA_MS, a duplicate DUP_EXTRA_MS more.
        """
        if not routed:
            statuses, delays = ("unrouted",), ()
        elif self.drop_filter is not None and self.drop_filter(frame):
            statuses, delays = ("dropped",), ()
        elif not self.faults.active:
            statuses, delays = _SENT_ONCE
        else:
            draw, faults = self._rng.random, self.faults
            dropped, dup, reorder = (draw() < faults.drop_probability,
                                     draw() < faults.duplicate_probability,
                                     draw() < faults.reorder_probability)
            delay = REORDER_EXTRA_MS if reorder else 0.0
            if dropped:
                statuses, delays = ("dropped",), ()
            elif dup:
                statuses = ("sent", "dup")
                delays = (delay, delay + DUP_EXTRA_MS)
            else:
                statuses, delays = ("sent",), (delay,)
        now, src_lid = self.now_ms(), src.lid
        for status in statuses:
            self.trace.append(_new(TraceEvent,
                                   (now, src_lid, dlid, frame, status)))
        return delays


class LoopbackFabric(Fabric):
    """Deterministic in-process transport driven by a virtual clock.

    Events sit on a heap ordered by (virtual time, sequence). Every frame
    takes ``hop_latency_ms`` of virtual time to reach its peer, plus any
    fault delay. The frames due at one port at one instant are a burst,
    kept in the endpoint's ``bursts`` by arrival time: the first one
    schedules the burst's event, which hands them all to ``_land``.
    Scheduling only queues; the clock moves when a caller pumps it, with
    step / jump / advance / run_until_idle.
    """

    hop_latency_ms = 1.0

    def __init__(self, faults=None, *, registry, auto_drain: bool = False):
        # auto_drain is ignored; bench's time_pingpong_setup still passes it
        super().__init__(faults, registry=registry)
        self._now = 0.0

    def now_ms(self) -> float:
        return self._now

    def schedule_at(self, t: float, fn: Callable[[], None]) -> tuple:
        """Queue ``fn`` for virtual time ``t``. The caller holds the world
        lock, as every engine callback and ``transmit_message`` do; it
        is not taken again here, once per frame."""
        timer = (t, next(self._seq), fn)
        heapq.heappush(self._timers, timer)
        return timer

    def _drain(self, limit: float, max_events: int = MAX_EVENTS) -> int:
        """Run every event due at or before ``limit``, in order; the one
        event loop behind jump, advance and run_until_idle."""
        n = 0
        with self._lock:
            while self._timers and self._timers[0][0] <= limit:
                t, _, fn = heapq.heappop(self._timers)
                self._now = max(self._now, t)
                fn()
                n += 1
                if n > max_events:
                    raise RuntimeError("event queue did not drain; livelock?")
        return n

    # -- clock pumping ----------------------------------------------------

    def step(self) -> bool:
        """Process the next scheduled event, advancing the clock to it."""
        with self._lock:
            if not self._timers:
                return False
            t, _, fn = heapq.heappop(self._timers)
            self._now = max(self._now, t)
            fn()
            return True

    def run_until_idle(self, max_events: int = MAX_EVENTS) -> int:
        return self._drain(math.inf, max_events)

    def advance(self, ms: float) -> None:
        """Advance the clock by ms, processing everything due on the way."""
        with self._lock:
            target = self._now + ms
            self._drain(target)
            self._now = target

    def jump(self) -> bool:
        """Run every event due at the next event's timestamp, including
        those they schedule for it, then hand back; False if nothing is
        scheduled."""
        with self._lock:
            if not self._timers:
                return False
            self._drain(self._timers[0][0])
            return True

    def progress(self, wait) -> bool:
        """Jump: only the next timestamp's events can end a wait."""
        return self.jump()

    # -- delivery -----------------------------------------------------------

    def _deliver(self, src: Endpoint, dlid: int, frame: Frame) -> None:
        """Add each copy to the burst landing at its peer at its arrival
        time; the first frame of a burst schedules the burst's event."""
        ep = self.routing.get(dlid)
        for extra in self._wire_copies(src, dlid, frame, ep is not None):
            # the copy's whole delay first, then the clock, as ``inject``
            # adds them
            t = self._now + (self.hop_latency_ms + extra)
            burst = ep.bursts.get(t)
            if burst is None:
                ep.bursts[t] = [frame]
                self.schedule_at(t, partial(self._land_at, ep, t))
            else:
                burst.append(frame)

    def _land_at(self, ep: Endpoint, t: float) -> None:
        """The event of the burst due at ``ep`` at ``t``."""
        self._land(ep, ep.bursts.pop(t))

    def inject(self, dlid: int, frame: Frame, delay_ms: float = 0.0) -> None:
        """Deliver a raw frame, bypassing faults (replay/test harness); it
        is traced as injected and lands alone, as a burst of its own."""
        with self._lock:
            self.trace.append(TraceEvent(self._now, None, dlid, frame,
                                         "injected"))
            ep = self.routing.get(dlid)
            if ep is not None:
                self.schedule_at(self._now + (delay_ms + self.hop_latency_ms),
                                 partial(self._land, ep, (frame,)))


# -- socket transport ---------------------------------------------------------


@dataclass(frozen=True)
class FabricConfigEntry:
    lid: int
    host: str
    port: int

    def __post_init__(self):
        if self.lid < 1:
            raise FabricConfigError("lid must be >= 1")
        if not 1 <= self.port <= 65535:
            raise FabricConfigError(
                f"port must be within 1-65535, got {self.port}")


@dataclass
class FabricConfig:
    entries: list[FabricConfigEntry] = field(default_factory=list)


def parse_faults_spec(spec: str) -> FaultProfile:
    """Parse ``drop=<p> dup=<p> reorder=<p> seed=<u64>`` (comma or space)."""
    kwargs = {}
    names = {"drop": "drop_probability", "dup": "duplicate_probability",
             "reorder": "reorder_probability", "seed": "seed"}
    for token in spec.replace(",", " ").split():
        key, sep, value = token.partition("=")
        if not sep or key not in names:
            raise FabricConfigError(f"bad fault token {token!r}")
        try:
            kwargs[names[key]] = int(value) if key == "seed" else float(value)
        except ValueError:
            raise FabricConfigError(f"bad fault value {token!r}") from None
    try:
        return FaultProfile(**kwargs)
    except ValueError as exc:
        raise FabricConfigError(str(exc)) from None


def parse_fabric_config(text: str) -> FabricConfig:
    """Parse the static fabric file: ``lid N host H port P`` lines.
    ``#`` starts a comment.
    """
    config = FabricConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "lid":
            if len(tokens) != 6 or tokens[2] != "host" or tokens[4] != "port":
                raise FabricConfigError(f"line {lineno}: want "
                                        f"'lid N host H port P', got {raw!r}")
            try:
                lid, port = int(tokens[1]), int(tokens[5])
            except ValueError:
                raise FabricConfigError(
                    f"line {lineno}: non-numeric lid/port") from None
            try:
                entry = FabricConfigEntry(lid, tokens[3], port)
            except FabricConfigError as exc:
                raise FabricConfigError(f"line {lineno}: {exc}") from None
            if lid in seen:
                raise FabricConfigError(f"line {lineno}: duplicate lid {lid}")
            seen.add(lid)
            config.entries.append(entry)
        else:
            raise FabricConfigError(f"line {lineno}: unknown directive "
                                    f"{tokens[0]!r}")
    return config


def load_fabric_config(path) -> FabricConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fabric_config(fh.read())


class _ManualProgress:
    """Moves every open SocketFabric of the process, from whichever thread
    blocks in a verbs wait: libfabric's manual progress model.

    One thread at a time moves. It holds ``mover``, which is only ever
    taken without blocking, and fires the due timers of every open fabric
    and polls their sockets until what it waits for is ready. Every
    other waiter sleeps on its own CQ or channel condition; a CQE wakes
    it, and so does the mover's hand-over when it stops, so that one of
    them takes over. A thread that arms a timer or gives the mover
    another socket to watch cuts its poll short through a socket pair;
    the mover itself never does, since it reads every heap and the poll
    set again before it polls. The open fabrics are a tuple, replaced
    whole under ``lock`` when one opens or closes, so the mover reads it
    on each pass without the lock.

    The poll set stands for the life of the process: a fabric registers
    each port's socket for reading with ``watch`` at attach, and takes
    it out with ``unwatch`` before it closes. ``handlers`` mirrors the
    set: by descriptor, what the mover calls on an event, and with what.
    """

    def __init__(self):
        # the open fabrics: replaced whole under the lock, read without it
        self.fabrics: tuple["SocketFabric", ...] = ()
        # guards replacing fabrics, sleepers and the poll set
        self.lock = threading.Lock()
        self.mover = threading.Lock()
        self.moving: Optional[int] = None  # the mover's thread ident
        self.sleepers: set[threading.Condition] = set()
        self.polling = False  # the mover is in poll(), or about to be
        self.poller = select.poll()
        self.handlers: dict[int, tuple[Callable, object]] = {}
        # opened with the first SocketFabric
        self.wake_pair: Optional[tuple[socket.socket, socket.socket]] = None

    def add(self, fabric: "SocketFabric") -> None:
        with self.lock:
            self.fabrics += (fabric,)
            if self.wake_pair is None:
                self.wake_pair = socket.socketpair()
                wake_r = self.wake_pair[0]
                self.poller.register(wake_r, select.POLLIN)
                # the mover drains it
                self.handlers[wake_r.fileno()] = (wake_r.recv, 4096)

    def discard(self, fabric: "SocketFabric") -> None:
        with self.lock:
            self.fabrics = tuple(f for f in self.fabrics if f is not fabric)

    def watch(self, sock: socket.socket,
              handler: Callable[[socket.socket], None]) -> None:
        """Poll ``sock`` for reading and call ``handler(sock)`` when it is
        readable; a running poll is cut short to take it in."""
        with self.lock:
            self.handlers[sock.fileno()] = (handler, sock)
            self.poller.register(sock, select.POLLIN)
        self.wake()

    def unwatch(self, sock: socket.socket) -> None:
        """Stop polling ``sock``, if it is watched; call it before the
        socket closes, while its descriptor is still its own."""
        fd = sock.fileno()
        if fd in self.handlers:
            with self.lock:
                del self.handlers[fd]
                self.poller.unregister(fd)

    def wake(self) -> None:
        if self.polling and self.moving != threading.get_ident():
            with suppress(BlockingIOError):  # full: the mover wakes anyway
                self.wake_pair[1].send(b"\0", socket.MSG_DONTWAIT)

    def wait(self, cond, ready, timeout) -> bool:
        deadline = math.inf if timeout is None else time.monotonic() + timeout
        while True:
            with cond:
                left = deadline - time.monotonic()
                if ready() or left <= 0:
                    return ready()
                # registered before the try, so that a hand-over cannot
                # slip in between a failed try and the sleep
                with self.lock:
                    self.sleepers.add(cond)
                if not self.mover.acquire(blocking=False):
                    cond.wait(None if left == math.inf else left)
                    continue
            self.moving = threading.get_ident()
            try:
                return self._move(cond, ready, deadline)
            finally:
                self.polling = False
                self.moving = None
                self.mover.release()
                with self.lock:
                    sleepers, self.sleepers = self.sleepers, set()
                for sleeper in sleepers:
                    with sleeper:
                        sleeper.notify_all()

    def _move(self, cond, ready, deadline: float) -> bool:
        """The mover's loop: fire the due timers, then poll the standing
        set until the next timer or the deadline (on the monotonic clock,
        in seconds), until ``ready()``. What an engine callback raises
        goes to the caller."""
        handlers = self.handlers
        while True:
            # set before the timer heaps are read, so that a timer another
            # thread arms after that read wakes the poll
            self.polling = True
            until = deadline * 1e3
            for fabric in self.fabrics:
                until = min(until, fabric._fire_due())
            with cond:
                if ready():
                    return True
            if time.monotonic() >= deadline:
                return False
            events = self.poller.poll(None if until == math.inf else
                                      max(0.0, until - time.monotonic() * 1e3))
            self.polling = False
            for fd, _ in events:
                # gone if an earlier handler of this batch unwatched it
                handler = handlers.get(fd)
                if handler is not None:
                    handler[0](handler[1])


_MANUAL = _ManualProgress()


class SocketFabric(Fabric):
    """Datagram transport: one UDP socket per attached port.

    LIDs come from the static config, whose addresses are resolved once,
    when the fabric is made; an attach claims the first entry whose
    address it can bind. Each frame is one record in the codec layout.
    Faults and the frame trace work as on loopback: a reordered or
    duplicated copy is written after its extra delay, and every frame
    the engine emits lands in ``trace``. A LID with no config entry is
    unrouted; a frame to one whose port nobody binds is sent and lost,
    and retransmission runs into ``RetryExceeded``.

    The fabric starts no thread (manual progress). Records are written
    in batches, once per engine call: the frames that one
    ``transmit_message``, one read's burst or one pass over the due
    timers emits to a LID are packed back to back into datagrams of at
    most ``MAX_DATAGRAM`` bytes, split only between records, and each
    datagram goes out in one ``sendto``, without blocking, when that
    call returns. A datagram the kernel refuses is lost, and RC recovers
    it. A read drains every datagram waiting on the port's socket and
    hands all their frames to ``_land`` as one burst, whose ACKs leave
    when it returns; a bad record drops the rest of its datagram, after
    the frames before it. Reading and the timer heap behind
    ``schedule_at`` (the delayed copies and the per-QP retransmit
    deadlines) run in ``wait_until``, on the thread that blocks in a
    verbs wait (``wait_for_completion``, ``wait_for_event`` or
    ``get_event``). That wait moves every open SocketFabric in the
    process over one standing poll set, and raises what an engine
    callback raised. ``poll`` never moves the fabric.
    """

    def __init__(self, config: FabricConfig, faults=None, *, registry):
        super().__init__(faults, registry=registry)
        self.config = config
        self._addrs = {e.lid: (socket.gethostbyname(e.host), e.port)
                       for e in config.entries}
        self._socks: dict[int, socket.socket] = {}  # each port's, by LID
        # the datagrams an engine call queued, by (socket, address)
        self._unsent: dict[tuple, list[bytearray]] = {}
        _MANUAL.add(self)

    @property
    def _probe_allowance_ms(self) -> float:
        """A thread switch: the round trip on 127.0.0.1 is a fraction of
        the time a thread may hold the GIL before it has to let another
        one run, so a PTO shorter than that fires on a frame that is only
        waiting for its reader to be scheduled."""
        return sys.getswitchinterval() * 1e3

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    def schedule_at(self, t: float, fn: Callable[[], None]) -> tuple:
        with self._lock:
            timer = (t, next(self._seq), fn)
            heapq.heappush(self._timers, timer)
        _MANUAL.wake()
        return timer

    def wait_until(self, cond, ready, timeout) -> bool:
        return _MANUAL.wait(cond, ready, timeout)

    def wake(self) -> None:
        _MANUAL.wake()

    def _assign_lid(self) -> int:
        last_err = None
        for entry in self.config.entries:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                sock.bind((entry.host, entry.port))
            except OSError as exc:
                sock.close()
                last_err = exc
                continue
            sock.setblocking(False)
            self._socks[entry.lid] = sock
            _MANUAL.watch(sock, partial(self._read, entry.lid))
            return entry.lid
        raise VerbsError(f"no bindable fabric config entry ({last_err})")

    def close(self) -> None:
        """Detach every port and close its socket, so that a later
        ``post_send`` on one of its QPs raises. The detach stops every
        QP's sender, tick and all, as on loopback, so a send still in
        flight is never completed: it gets no CQE. The delayed copies
        still pending are dropped."""
        _MANUAL.discard(self)
        with self._lock:
            for ep in list(self.routing.values()):
                self.detach(ep.context, ep.port)
            for sock in self._socks.values():
                _MANUAL.unwatch(sock)
                sock.close()
            for held in (self._socks, self._unsent, self._addrs,
                         self._timers):
                held.clear()
        _MANUAL.wake()

    # -- progress, made by the thread that waits --------------------------

    def _fire_due(self) -> float:
        """Fire the due timers, send what they wrote, and return when the
        next timer is due."""
        with self._lock:
            timers = self._timers
            if timers and timers[0][0] <= self.now_ms():
                try:
                    while timers and timers[0][0] <= self.now_ms():
                        heapq.heappop(timers)[2]()
                finally:
                    self._send_unsent()
            return timers[0][0] if timers else math.inf

    def _read(self, lid: int, sock: socket.socket) -> None:
        """Read every datagram waiting on the port's socket, land all
        their frames as one burst, then send what the burst wrote. A bad
        record drops the rest of its datagram, after the frames before
        it.

        Each datagram's records are parsed in place, by offset: one
        ``frame_body_length`` and one ``decode_frame`` of the record's
        own bytes each."""
        with self._lock:
            frames = []
            while True:
                try:
                    data = sock.recv(MAX_DATAGRAM)
                except OSError:  # drained, or closed by close()
                    break
                pos, size = 0, len(data)
                with suppress(FrameDecodeError):
                    while pos < size:
                        end = pos + HEADER_LEN + frame_body_length(
                            data[pos:pos + HEADER_LEN])
                        frames.append(decode_frame(data[pos:end]))
                        pos = end
            ep = self.routing.get(lid)
            try:
                if ep is not None:
                    self._land(ep, frames)
            finally:
                self._send_unsent()

    # -- wire ----------------------------------------------------------------

    def transmit_message(self, qp: QueuePair, payload: bytes) -> None:
        """Segment and queue the message's frames, then send them in one
        batch."""
        try:
            super().transmit_message(qp, payload)
        finally:
            self._send_unsent()

    def _deliver(self, src: Endpoint, dlid: int, frame: Frame) -> None:
        addr = self._addrs.get(dlid)
        copies = self._wire_copies(src, dlid, frame, addr is not None)
        if not copies:
            return
        to, data = (self._socks[src.lid], addr), encode_frame(frame)
        for extra in copies:
            if extra:
                self.schedule_at(self.now_ms() + extra,
                                 partial(self._write, to, data))
            else:
                self._write(to, data)

    def _write(self, to: tuple, data: bytes) -> None:
        """Add a record to the last datagram queued for ``to``, a
        ``(socket, address)`` pair, or start a new one if it would grow
        past ``MAX_DATAGRAM``; the engine call that wrote it sends the
        queue when it returns."""
        datagrams = self._unsent.get(to)
        if datagrams is None:
            self._unsent[to] = [bytearray(data)]
        elif len(datagrams[-1]) + len(data) > MAX_DATAGRAM:
            datagrams.append(bytearray(data))
        else:
            datagrams[-1] += data

    def _send_unsent(self) -> None:
        """Send what an engine call queued, one ``sendto`` per datagram.
        A datagram the kernel refuses is lost; RC resends its frames."""
        with self._lock:
            unsent, self._unsent = self._unsent, {}
            for (sock, addr), datagrams in unsent.items():
                for datagram in datagrams:
                    with suppress(OSError):
                        sock.sendto(datagram, addr)

"""Emulated link layer and reliable-connection engine.

The fabric plays subnet manager (LID assignment), switch (routing by
destination LID), and HCA transport engine (MTU segmentation, PSN
ordering, cumulative ACKs, RNR NAKs, timeout retransmission).

The unit of delivery and of acknowledgement is a burst: the frames that
land on one port at one virtual instant (loopback), or that one socket
read holds. A receiving QP that accepts in-order frames in a burst owes
one cumulative ACK, which ``_send_owed_acks`` sends when the burst ends,
at the instant its last frame landed (IBTA RC lets one ACK cover any run
of PSNs). NAKs, RNR NAKs, the ACK of a drained gap and the re-ACK of a
stale duplicate, which names the duplicate's own PSN, leave at once.

Loss recovery is NAK-driven, after the IBTA RC PSN sequence error: a
receiver holds frames that arrive ahead of the expected PSN (up to
``HOLD_PSNS`` ahead) and sends one NAK per gap; the sender resends just
the NAK'd frame. Once the gap fills, the held frames that now continue
the sequence are accepted as one run, under one cumulative ACK. A loss
that no later frame reveals (a lost last frame, NAK, NAK'd resend or
final ACK) is caught by a tail-loss probe, after RFC 8985: a head
unacked for ``PROBE_MS`` is resent once, alone, and charged to its
retry budget. The retransmit timeout (a go-back-N burst from the head)
remains the fallback when the probe is lost too.

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
* SocketFabric: one listening stream socket per attached port, LIDs
  resolved to host/port pairs from a static config file, real time. It
  starts no thread: the thread that blocks in a verbs wait moves it,
  over one poll set that stands for the life of the process. Each frame
  is one record on the stream; the records an engine call emits are
  written together, in one ``send`` when the call returns.

The engine works per burst on both sides. ``transmit_message`` segments
a message in one pass and hands each frame, as it is built, to the
transport's ``_deliver``; every emitted frame, a resend, ACK or NAK too,
takes that one call, and in it the one per-frame fault plan and trace
point (``_wire_copies``: drop filter, fault draws, frame trace). The
per-frame paths build each frame and trace event with ``tuple.__new__``
from all its fields. The send window holds a ``[frame, sent_at]`` pair
per unacked frame; its head is the only frame ever resent alone, probed
or paused, so the head's retry state lives on the QP's ``SenderState``.
One burst landing, ``_land``, splits the frames, in the order they were
sent, into runs of one QPN and one kind, and hands each DATA run to a
single ``on_data`` call, which takes the run's in-order frames in one
loop (as Linux rxe's responder drains a QP's queued packets in one run),
and then sends the burst's ACKs. Every ACK, NAK and RNR NAK is built by
one ``_reply``. Both transports share these and one retransmit timer
(one pending tick per QP, armed with ``schedule_at`` at the head's
probe, timeout or RNR pause deadline; a tick superseded by an earlier
deadline is left in place and does nothing when it fires). A transport
carries only frames and time: it supplies ``now_ms``, ``schedule_at``
and ``_deliver``, hands each burst to ``_land``, and moves in
``wait_until``, the blocking wait of the verbs objects (sockets), or in
``progress``, which a driver whose callers all wait calls (loopback).

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
    PortState,
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
    HEADER_LEN,
)

SERIAL_HALF = 1 << 23
TICK_EPS_MS = 0.25
# a receiver holds out-of-order frames this many PSNs past expected_psn
# at most; frames further ahead are discarded and left to retransmission
HOLD_PSNS = 1024
# a go-back-N burst (timeout or stale-head resume) replays this many
# frames at most
BURST_FRAMES = 64
# a head unacked this long is resent once, alone (a tail-loss probe),
# before the retransmit timeout takes over
PROBE_MS = 10.0
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
# the segments that start and end a message
_STARTS = (SegMark.ONLY, SegMark.FIRST)
_ENDS = (SegMark.ONLY, SegMark.LAST)
_DATA, _ACK, _NAK = FrameKind.DATA, FrameKind.ACK, FrameKind.NAK
_RNR_NAK, _ONLY = FrameKind.RNR_NAK, SegMark.ONLY
# what makes consecutive frames of a burst one run for ``_land``
_RUN_KEY = attrgetter("dest_qpn", "kind")
# builds a Frame or TraceEvent from all its fields, without the Python
# ``__new__`` that NamedTuple generates; the per-frame paths use it
_new = tuple.__new__
# the most events one drain runs before it calls the run a livelock
MAX_EVENTS = 5_000_000


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
    paused, else its probe (at the timeout, if that comes first), then
    once probed its timeout; inf if the QP has none."""
    if snd.paused_until:
        return snd.paused_until
    return snd.unacked[0][1] + (snd.timeout_ms if snd.probed
                                else min(PROBE_MS, snd.timeout_ms))


class SenderState:
    """Per-QP outbound window: a ``[frame, sent_at]`` pair per unacked
    DATA frame, in PSN order; unacked PSNs stay contiguous mod 2^24. The
    send a frame belongs to is the oldest one not completed, the QP's
    ``send_queue[0]``, since RC completes sends in post order.

    ``timeout_ms`` is the retransmit timeout that the QP's ``timeout``
    code named when it entered RTS (``ack_timeout_ms``); the probe, the
    timeout and the stale-head resume all read it.

    Only the head is ever resent alone, probed or paused, so its retry
    state lives here, not on each frame: ``retries_used`` and
    ``rnr_retries_used`` count what its two budgets spent, ``probed``
    says the tail-loss probe resent it already, and ``paused_until`` is
    the end of its RNR pause (0.0 when not paused; the tick that ends
    the pause clears it). ``_retire_through`` resets all four when the
    head retires.

    ``tick_at`` is when the pending retransmit tick fires (inf if none);
    a tick whose ``tick_gen`` is no longer current was superseded by an
    earlier one and does nothing."""

    __slots__ = ("next_psn", "timeout_ms", "unacked", "tick_at",
                 "tick_gen", "retries_used", "rnr_retries_used", "probed",
                 "paused_until")

    def __init__(self, next_psn: int, timeout_ms: float):
        self.next_psn = next_psn
        self.timeout_ms = timeout_ms
        self.unacked: deque[list] = deque()
        self.tick_at = math.inf
        self.tick_gen = 0
        self.retries_used = self.rnr_retries_used = 0
        self.probed, self.paused_until = False, 0.0


class ReceiverState:
    """Per-QP inbound sequence: frames held ahead of a gap, by PSN, and
    the expected PSN the last NAK named (one NAK per gap)."""

    __slots__ = ("expected_psn", "reassembly", "held", "nak_psn")

    def __init__(self, expected_psn: int):
        self.expected_psn = expected_psn
        # payloads of the message so far; empty between messages
        self.reassembly: list[bytes] = []
        self.held: dict[int, Frame] = {}
        self.nak_psn: Optional[int] = None


@dataclass
class Endpoint:
    fabric: "Fabric"
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
        # in the order they came to owe it
        self._owed: dict[QueuePair, None] = {}
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
            ep = Endpoint(self, port, lid)
            self.routing[lid] = ep
            pa = context.ports[port]
            pa.lid = lid
            pa.state = PortState.ACTIVE
            context._attachments[port] = ep
            return lid

    def detach(self, context: DeviceContext, port: int) -> None:
        with self._lock:
            ep = context._attachments.pop(port, None)
            if ep is None:
                return
            for qp in list(ep.qpn_map.values()):
                qp._endpoint = None
            ep.qpn_map.clear()
            self.routing.pop(ep.lid, None)
            pa = context.ports[port]
            pa.lid = 0
            pa.state = PortState.DOWN

    def _assign_lid(self) -> int:
        lid = self.next_lid
        self.next_lid += 1
        return lid

    def bind_qp(self, qp: QueuePair, endpoint: Endpoint) -> None:
        """Route (lid, qpn) to this QP; entered on the transition to RTR."""
        endpoint.qpn_map[qp.qpn] = qp
        qp._endpoint = endpoint
        qp.receiver = ReceiverState(qp.attrs.rq_psn)

    def unbind_qp(self, qp: QueuePair) -> None:
        ep = qp._endpoint
        if ep is not None and ep.qpn_map.get(qp.qpn) is qp:
            del ep.qpn_map[qp.qpn]

    def on_qp_rts(self, qp: QueuePair) -> None:
        qp.sender = SenderState(qp.attrs.sq_psn,
                                ack_timeout_ms(qp.attrs.timeout))

    # -- clock / scheduling (transport specific) ---------------------------

    def now_ms(self) -> float:
        raise NotImplementedError

    def schedule_at(self, t: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at ``t`` on the ``now_ms`` clock."""
        raise NotImplementedError

    def _deliver(self, src: Optional[Endpoint], dlid: int, frame: Frame) -> None:
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
        """Schedule one timeout tick at the head's deadline, unless one is
        pending for no later; the tick re-arms itself while frames stay
        unacked. A paused head's deadline is the end of its pause,
        exactly. A pending tick that is due later is superseded: the
        generation moves on, and it does nothing when it fires."""
        snd = qp.sender
        if snd is None or not snd.unacked:
            return
        deadline = _due(snd)
        if not snd.paused_until:
            deadline += TICK_EPS_MS
        if snd.tick_at <= deadline:
            return
        snd.tick_at = deadline
        snd.tick_gen += 1
        self.schedule_at(deadline,
                         partial(self._tick_fired, qp, snd, snd.tick_gen))

    def _tick_fired(self, qp: QueuePair, snd: SenderState, gen: int) -> None:
        if qp.sender is not snd or snd.tick_gen != gen:
            return
        snd.tick_at = math.inf
        self.on_timeout_tick(qp, self.now_ms())
        self._arm_tick(qp)

    def _backlogged(self, dlid: int) -> bool:
        """Does the transport still hold bytes it has not sent to
        ``dlid``? A head queued behind them has not left yet, so no
        go-back resend (the probe, the timeout or the stale-head resume)
        sends it again behind itself: its clock restarts instead."""
        return False

    # -- send side ---------------------------------------------------------

    def transmit_message(self, qp: QueuePair, payload: bytes) -> None:
        """Segment a message into DATA frames with consecutive PSNs, in
        one pass: each frame enters the unacked window, stamped with its
        send time, and goes to ``_deliver`` at once. The message is the
        newest send in ``qp.send_queue``.

        Delivery failures surface later as completion statuses, never
        here.
        """
        with self._lock:
            if qp.state is not QpState.RTS or qp.sender is None:
                raise VerbsError("transmit requires a QP in RTS")
            snd = qp.sender
            attrs = qp.attrs
            mtu, dest_qpn = attrs.path_mtu, attrs.dest_qp_num
            src, dlid = qp._endpoint, attrs.ah.dlid
            deliver, enter, clock = (self._deliver, snd.unacked.append,
                                     self.now_ms)
            last = max(len(payload) - 1, 0) // mtu  # index of the last frame
            segs = ((_ONLY,) if not last else
                    (SegMark.FIRST, *(SegMark.MIDDLE,) * (last - 1),
                     SegMark.LAST))
            psn = snd.next_psn
            for off, seg in zip(range(0, last * mtu + 1, mtu), segs):
                frame = _new(Frame, (_DATA, dest_qpn, psn, seg,
                                     payload[off:off + mtu], 0))
                snd.next_psn = psn = (psn + 1) & PSN_MASK
                # a socket's clock is wall time, and a redial in one
                # frame's _deliver must not age the frames behind it
                enter([frame, clock()])
                deliver(src, dlid, frame)
            self._arm_tick(qp)

    def _transmit_entry(self, qp: QueuePair, entry: list) -> None:
        """Resend an unacked ``[frame, sent_at]`` pair, restarting its
        clock."""
        entry[1] = self.now_ms()
        self._deliver(qp._endpoint, qp.attrs.ah.dlid, entry[0])

    def on_ack(self, qp: QueuePair, frame: Frame) -> None:
        """Cumulative ack: retire every unacked entry with psn <= frame.psn.

        Progress that exposes a head older than the QP's timeout (frames
        the receiver could not hold while waiting for a retransmission)
        resumes the go-back replay immediately instead of waiting out
        another timeout, unless the head is still queued. A head that
        progress exposes was never paused: a pause leaves with the head
        it was set on.
        """
        snd = qp.sender
        if snd is None:
            return
        progressed = self._retire_through(qp, frame.psn)
        if snd.unacked:
            now = self.now_ms()
            head = snd.unacked[0]
            if progressed and now - head[1] >= snd.timeout_ms:
                if self._backlogged(qp.attrs.ah.dlid):
                    head[1] = now
                else:
                    self._retransmit_burst(qp, now)
            self._arm_tick(qp)

    def _retire_through(self, qp: QueuePair, psn: int) -> bool:
        """Retire every unacked frame with psn <= ``psn``, completing the
        sends whose last frame goes; True if any frame went. A new head
        starts with the full retry budgets, unprobed and unpaused."""
        snd = qp.sender
        unacked = snd.unacked
        before = len(unacked)
        while unacked and psn_le(unacked[0][0].psn, psn):
            if unacked.popleft()[0].seg in _ENDS:
                qp.complete_send()
        if len(unacked) == before:
            return False
        snd.retries_used = snd.rnr_retries_used = 0
        snd.probed, snd.paused_until = False, 0.0
        return True

    def _nakked_head(self, qp: QueuePair, frame: Frame) -> Optional[list]:
        """Read a NAK or an RNR NAK: everything before its PSN arrived (an
        implicit ACK), so retire it; then return the head it names. None
        if the QP is not in RTS, if the NAK is stale (its PSN is no
        longer at the head) or if the head is paused (a copy of the
        refused frame or of its NAK, or a NAK the pause's end answers
        anyway)."""
        snd = qp.sender
        if snd is None or qp.state is not QpState.RTS:
            return None
        self._retire_through(qp, psn_add(frame.psn, -1))
        if snd.unacked and not snd.paused_until:
            head = snd.unacked[0]
            if head[0].psn == frame.psn:
                return head
        return None

    def on_nak(self, qp: QueuePair, frame: Frame) -> None:
        """PSN sequence error: the receiver holds later frames and still
        waits for ``frame.psn``, which is resent at once, alone, and
        charged to the head's retry budget as a timeout would be."""
        head = self._nakked_head(qp, frame)
        if head is None:
            return
        snd = qp.sender
        if snd.retries_used >= qp.attrs.retry_cnt:
            qp.complete_send(WcStatus.RETRY_EXCEEDED)
            return
        snd.retries_used += 1
        self._transmit_entry(qp, head)
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
        if self._nakked_head(qp, frame) is None:
            return
        snd = qp.sender
        budget = qp.attrs.rnr_retry
        if budget != 7 and snd.rnr_retries_used >= budget:  # 7: no limit
            qp.complete_send(WcStatus.RNR_RETRY_EXCEEDED)
            return
        snd.rnr_retries_used += 1
        snd.paused_until = self.now_ms() + RNR_TIMER_MS[frame.rnr_delay_hint]
        self._arm_tick(qp)

    def _retransmit_burst(self, qp: QueuePair, now: float) -> None:
        """Go-back-N replay: resend the stale prefix of the window.

        Stops at the first frame younger than the QP's timeout and at
        the burst cap. Retry accounting is the caller's job, not ours.
        """
        snd = qp.sender
        for sent, entry in enumerate(snd.unacked):
            if sent >= BURST_FRAMES or now - entry[1] < snd.timeout_ms:
                break
            self._transmit_entry(qp, entry)

    def on_timeout_tick(self, qp: QueuePair, now: float) -> None:
        """End an RNR pause, probe a stalled head, or retransmit from it
        on timeout.

        A paused head waits out its pause; then it is resent alone and
        charged to neither budget again (its RNR NAK was charged), since
        the receiver holds the frames that followed it.

        A head unacked for ``PROBE_MS`` (or the QP's timeout, if that is
        shorter) is resent once, alone: a tail-loss probe, after RFC
        8985. It recovers the losses no later frame can reveal (a lost
        last frame, NAK, NAK'd resend or final ACK): the resend fills the
        receiver's gap or draws a stale re-ACK. Once the probed head
        outlives the QP's timeout, a go-back-N burst replays the window
        from it; a QP whose timeout code is 0 has none, and its probed
        head waits for the receiver. While the transport still holds
        unsent bytes for the peer, the head has not left yet: neither
        the probe nor the timeout resends it, and its clock restarts.

        The probe and each timeout of the same head charge its retry
        budget, like a NAK'd resend; going past retry_cnt fails the
        in-flight send with RetryExceeded and throws the QP into ERR.
        """
        snd = qp.sender
        if snd is None or not snd.unacked or qp.state is not QpState.RTS:
            return
        if now < _due(snd):
            return
        head = snd.unacked[0]
        if snd.paused_until:
            snd.paused_until = 0.0
            self._transmit_entry(qp, head)
            return
        if self._backlogged(qp.attrs.ah.dlid):
            head[1] = now
            return
        if snd.retries_used >= qp.attrs.retry_cnt:
            qp.complete_send(WcStatus.RETRY_EXCEEDED)
            return
        snd.retries_used += 1
        if snd.probed:
            self._retransmit_burst(qp, now)
        else:
            snd.probed = True
            self._transmit_entry(qp, head)

    # -- receive side --------------------------------------------------------

    def on_data(self, qp: QueuePair, *frames: Frame) -> None:
        """PSN-ordered receive path for a run of DATA frames to one QP,
        taken in order; a run of one is one frame.

        RESET/INIT (and ERR) QPs silently drop, and a QP that enters ERR
        partway through the run drops the rest of it. Stale PSNs are
        re-acked and discarded so replays from an old connection never
        complete twice. A future PSN less than ``HOLD_PSNS`` ahead is
        held, and the first one held for a gap draws a NAK for the
        expected PSN; one further ahead is discarded and left to
        retransmission. An in-order message start with an empty receive
        queue draws an RNR NAK and does not advance the expected PSN. An
        in-order frame that fills a gap releases the held frames behind
        it, in order, under one ACK; while nothing is held, the in-order
        frames of the run go to ``_accept`` together, and are acked when
        their burst ends, by ``_send_owed_acks``, under one ACK for the
        whole burst.
        """
        if qp.state in (QpState.RESET, QpState.INIT, QpState.ERR):
            return
        rcv = qp.receiver
        if rcv is None:
            return
        owes = False
        i, n = 0, len(frames)
        while i < n:
            frame = frames[i]
            expected = rcv.expected_psn
            if frame.psn != expected:
                i += 1
                if psn_before(frame.psn, expected):
                    self._reply(qp, _ACK, frame.psn)
                elif (frame.psn - expected) & PSN_MASK < HOLD_PSNS:
                    rcv.held[frame.psn] = frame
                    if rcv.nak_psn != expected:
                        self._send_nak(qp, rcv)
                continue
            # with frames held, each in-order frame may fill the gap
            i += self._accept(qp, rcv, (frame,) if rcv.held else frames[i:])
            if rcv.expected_psn != expected:
                if rcv.held:
                    self._drain_held(qp, rcv)  # its ACK covers the run so far
                    owes = False
                else:
                    owes = True
            if qp.state is QpState.ERR:
                break
        if owes:
            self._owed[qp] = None

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
                if qp.state is QpState.ERR:
                    return used
        rcv.expected_psn, rcv.reassembly = expected, reassembly
        return used

    def _drain_held(self, qp: QueuePair, rcv: ReceiverState) -> None:
        """Accept the run of held frames that now continues the sequence,
        in one ``_accept`` call, ack them all at once, and NAK the next
        gap if frames beyond it are held.

        The frames ``_accept`` used leave ``held``, and the ones behind
        where it stopped stay. A held frame refused with an RNR NAK
        leaves the gap to the sender's RNR pause, so it draws no NAK.
        """
        held = rcv.held
        psn = rcv.expected_psn
        run = []
        if qp.state is not QpState.ERR:
            while (frame := held.get(psn)) is not None:
                run.append(frame)
                psn = (psn + 1) & PSN_MASK
        for frame in run[:self._accept(qp, rcv, run)]:
            del held[frame.psn]
        self._owed.pop(qp, None)  # this ACK covers the burst so far
        self._reply(qp, _ACK, psn_add(rcv.expected_psn, -1))
        # the whole run went in: nothing was refused or stray
        if rcv.expected_psn == psn and held and qp.state is not QpState.ERR:
            self._send_nak(qp, rcv)

    def _land(self, ep: Endpoint, frames) -> None:
        """Take in one burst: dispatch its frames, in the order they were
        sent, as runs of consecutive frames with one key, ``(dest_qpn,
        kind)``, then send the ACKs they owe. A run whose QPN has no QP
        drops. A DATA run goes to ``on_data`` in one call; the frames of
        any other run go to their handler one at a time. No frame moves
        past a frame of another kind or QP.

        A burst is the frames one loopback event lands, one injected
        frame, or the frames one socket read holds."""
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
        self._send_owed_acks()

    def _send_owed_acks(self) -> None:
        """End a burst: send each QP in ``_owed`` (it accepted in-order
        frames in the burst that no drain's ACK covered) one cumulative
        ACK, for the PSN before the one it now expects, at the instant
        the burst's last frame landed."""
        owed = self._owed
        if owed:
            self._owed = {}
            for qp in owed:
                rcv = qp.receiver
                if rcv is not None:
                    self._reply(qp, _ACK, psn_add(rcv.expected_psn, -1))

    def _send_nak(self, qp: QueuePair, rcv: ReceiverState) -> None:
        rcv.nak_psn = rcv.expected_psn
        self._reply(qp, _NAK, rcv.expected_psn)

    def _reply(self, qp: QueuePair, kind: FrameKind, psn: int,
               hint: int = 0) -> None:
        """Send ``qp``'s peer an ACK, NAK or RNR NAK (whose delay code is
        ``hint``) for ``psn``."""
        self._deliver(qp._endpoint, qp.attrs.ah.dlid,
                      _new(Frame, (kind, qp.attrs.dest_qp_num, psn, _ONLY,
                                   b"", hint)))

    # -- fault plan and trace -------------------------------------------------

    def _wire_copies(self, src: Optional[Endpoint], dlid: int, frame: Frame,
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
        now = self.now_ms()
        src_lid = src.lid if src is not None else None
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

    def schedule_at(self, t: float, fn: Callable[[], None]) -> None:
        """Queue ``fn`` for virtual time ``t``. The caller holds the world
        lock, as every engine callback and ``transmit_message`` do; it
        is not taken again here, once per frame."""
        heapq.heappush(self._timers, (t, next(self._seq), fn))

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

    def _deliver(self, src: Optional[Endpoint], dlid: int, frame: Frame) -> None:
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
            if lid < 1:
                raise FabricConfigError(f"line {lineno}: lid must be >= 1")
            if lid in seen:
                raise FabricConfigError(f"line {lineno}: duplicate lid {lid}")
            seen.add(lid)
            config.entries.append(FabricConfigEntry(lid, tokens[3], port))
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
    them takes over. A thread that arms a timer, gives the mover another
    socket to watch or flushes a queue cuts its poll short through a
    socket pair. The open fabrics are a tuple, replaced whole under
    ``lock`` when one opens or closes, so the mover reads it on each
    pass without the lock.

    The poll set stands for the life of the process: a fabric registers
    each socket with ``watch`` when it opens (a listener at attach, a
    connection at accept, a dialled socket while it has bytes queued)
    and takes it out with ``unwatch`` before it closes. ``handlers``
    mirrors the set: by descriptor, what the mover calls on an event.
    """

    def __init__(self):
        # the open fabrics: replaced whole under the lock, read without it
        self.fabrics: tuple["SocketFabric", ...] = ()
        # guards replacing fabrics, sleepers and the poll set
        self.lock = threading.Lock()
        self.mover = threading.Lock()
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
                self.handlers[wake_r.fileno()] = wake_r.recv, 4096  # drain

    def discard(self, fabric: "SocketFabric") -> None:
        with self.lock:
            self.fabrics = tuple(f for f in self.fabrics if f is not fabric)

    def watch(self, sock: socket.socket, events: int,
              handler: Callable[[socket.socket], None]) -> None:
        """Poll ``sock`` for ``events`` and call ``handler(sock)`` on one;
        a running poll is cut short to take it in."""
        with self.lock:
            self.handlers[sock.fileno()] = handler, sock
            self.poller.register(sock, events)
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
        if self.polling:
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
            try:
                return self._move(cond, ready, deadline)
            finally:
                self.polling = False
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
    """Stream-socket transport: one listener per attached port.

    LIDs come from the static config; an attach claims the first entry
    whose address it can bind. Each frame is one record in the codec
    layout. Faults and the frame trace work as on loopback: a reordered
    or duplicated copy is written after its extra delay, and every frame
    the engine emits lands in ``trace``.

    The fabric starts no thread (manual progress). Records are written
    in batches, once per engine call: the frames that one
    ``transmit_message``, one read's burst or one pass over the due
    timers emits are queued per socket, and go out in one ``send``,
    without blocking, when that call returns. The whole frames one read
    holds are a burst, handed to ``_land``: the ACKs it ends with leave
    in that same ``send``. What the socket does not take stays queued,
    and the socket is polled for writing until it is empty; a socket
    error closes it, and the next frame to its LID redials. A LID with
    no config entry, or whose dial fails, is unrouted. Accepting,
    reading and the timer heap behind ``schedule_at`` (the delayed
    copies and the per-QP retransmit deadlines) run in ``wait_until``,
    on the thread that blocks in a verbs wait (``wait_for_completion``,
    ``wait_for_event`` or ``get_event``). That wait moves every open
    SocketFabric in the process over one standing poll set, and raises
    what an engine callback raised. ``poll`` never moves the fabric.
    """

    def __init__(self, config: FabricConfig, faults=None, *, registry):
        super().__init__(faults, registry=registry)
        self.config = config
        self._entry_by_lid = {e.lid: e for e in config.entries}
        self._listeners: dict[socket.socket, int] = {}  # to their LID
        # accepted connections: the LID they deliver to, and the bytes
        # read that do not make a whole frame yet
        self._conns: dict[socket.socket, tuple[int, bytes]] = {}
        self._peers: dict[int, socket.socket] = {}  # dialled, by LID
        # bytes queued for a dialled socket and not sent yet
        self._unsent: dict[socket.socket, bytearray] = {}
        _MANUAL.add(self)

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    def schedule_at(self, t: float, fn: Callable[[], None]) -> None:
        with self._lock:
            heapq.heappush(self._timers, (t, next(self._seq), fn))
        _MANUAL.wake()

    def wait_until(self, cond, ready, timeout) -> bool:
        return _MANUAL.wait(cond, ready, timeout)

    def wake(self) -> None:
        _MANUAL.wake()

    def _assign_lid(self) -> int:
        last_err = None
        for entry in self.config.entries:
            lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                lsock.bind((entry.host, entry.port))
                lsock.listen(8)
            except OSError as exc:
                lsock.close()
                last_err = exc
                continue
            lsock.setblocking(False)
            self._listeners[lsock] = entry.lid
            _MANUAL.watch(lsock, select.POLLIN, self._accept_conn)
            return entry.lid
        raise VerbsError(f"no bindable fabric config entry ({last_err})")

    def close(self) -> None:
        """Write out the queued bytes, for 2 s per socket at most (the peer
        may still wait on our final acks), then close every socket.
        Pending timers are dropped, and later frames are unrouted."""
        _MANUAL.discard(self)
        with self._lock:
            for sock, pending in self._unsent.items():
                with suppress(OSError):
                    sock.settimeout(2.0)
                    sock.sendall(pending)
            for sock in [*self._listeners, *self._conns,
                         *self._peers.values()]:
                _MANUAL.unwatch(sock)
                sock.close()
            for held in (self._listeners, self._conns, self._peers,
                         self._unsent, self._entry_by_lid, self._timers):
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

    def _accept_conn(self, lsock: socket.socket) -> None:
        with self._lock:
            try:
                conn, _ = lsock.accept()
            except OSError:  # closed, or the peer gave up
                return
            conn.setblocking(False)
            self._conns[conn] = (self._listeners[lsock], b"")
            _MANUAL.watch(conn, select.POLLIN, self._read)

    def _read(self, conn: socket.socket) -> None:
        """Read what the connection has, land its whole frames as one
        burst, then send what the burst wrote; end of stream, a socket
        error or a bad frame closes the connection, after the frames
        before the bad one land.

        The frames are parsed in place, by offset into one ``bytes``
        snapshot: one ``frame_body_length`` and one ``decode_frame`` of
        the frame's own bytes each, and the consumed prefix is dropped
        once."""
        with self._lock:
            try:
                data = conn.recv(65536)
            except BlockingIOError:
                return
            except OSError:  # reset, or closed by close()
                data = b""
            if not data:
                self._close_conn(conn)
                return
            lid, held = self._conns[conn]
            if held:
                data = held + data
            pos, size, frames = 0, len(data), []
            try:
                while size - pos >= HEADER_LEN:
                    end = pos + HEADER_LEN + frame_body_length(
                        data[pos:pos + HEADER_LEN])
                    if size < end:
                        break
                    frames.append(decode_frame(data[pos:end]))
                    pos = end
                self._conns[conn] = lid, data[pos:]
            except FrameDecodeError:
                self._close_conn(conn)
            ep = self.routing.get(lid)
            try:
                if ep is not None:
                    self._land(ep, frames)
            finally:
                self._send_unsent()

    def _close_conn(self, conn: socket.socket) -> None:
        self._conns.pop(conn, None)
        _MANUAL.unwatch(conn)
        conn.close()

    # -- wire ----------------------------------------------------------------

    def bind_qp(self, qp: QueuePair, endpoint: Endpoint) -> None:
        """Also dial the peer's LID, now that the QP knows it, rather than
        on the first frame's path."""
        super().bind_qp(qp, endpoint)
        self._peer(qp.attrs.ah.dlid)

    def _peer(self, dlid: int) -> Optional[socket.socket]:
        """The connection to ``dlid``, dialled if there is none yet or it
        was dropped; None if ``dlid`` has no config entry or the dial
        fails."""
        sock = self._peers.get(dlid)
        entry = self._entry_by_lid.get(dlid)
        if entry is not None and (sock is None or sock.fileno() == -1):
            try:
                sock = socket.create_connection((entry.host, entry.port),
                                                timeout=2.0)
            except OSError:
                return None
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self._peers[dlid] = sock
        return sock

    def transmit_message(self, qp: QueuePair, payload: bytes) -> None:
        """Segment and queue the message's frames, then send them in one
        batch."""
        try:
            super().transmit_message(qp, payload)
        finally:
            self._send_unsent()

    def _deliver(self, src: Optional[Endpoint], dlid: int, frame: Frame) -> None:
        sock = self._peer(dlid)
        copies = self._wire_copies(src, dlid, frame, sock is not None)
        data = encode_frame(frame) if copies else b""
        for extra in copies:
            if extra:
                self.schedule_at(self.now_ms() + extra,
                                 lambda: self._write(sock, data))
            else:
                self._write(sock, data)

    def _backlogged(self, dlid: int) -> bool:
        sock = self._peers.get(dlid)
        return sock is not None and sock in self._unsent

    def _write(self, sock: socket.socket, data: bytes) -> None:
        """Queue ``data`` behind what the socket has not taken yet; the
        engine call that wrote it sends the queue when it returns."""
        pending = self._unsent.get(sock)
        if pending is None:
            self._unsent[sock] = bytearray(data)
        else:
            pending += data

    def _send_unsent(self) -> None:
        """Send what an engine call queued, one ``send`` per socket."""
        with self._lock:
            for sock in list(self._unsent):
                self._flush(sock)

    def _flush(self, sock: socket.socket) -> None:
        """Send what the socket takes without blocking, and poll it for
        writing while bytes are left. A socket error closes it, and the
        next frame redials; retransmission recovers what was lost with
        it."""
        with self._lock:
            pending = self._unsent.get(sock)
            if pending is None:
                return
            try:
                del pending[:sock.send(pending)]
            except BlockingIOError:
                pass
            except OSError:
                pending.clear()
                _MANUAL.unwatch(sock)
                sock.close()
            if not pending:
                del self._unsent[sock]
                _MANUAL.unwatch(sock)
            elif sock.fileno() not in _MANUAL.handlers:
                _MANUAL.watch(sock, select.POLLOUT, self._flush)

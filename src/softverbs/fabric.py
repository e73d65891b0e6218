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
the NAK'd frame. Once the gap fills, the held frames are accepted in
order under one cumulative ACK. A loss that no later frame reveals (a
lost last frame, NAK, NAK'd resend or final ACK) is caught by a
tail-loss probe, after RFC 8985: a head unacked for ``PROBE_MS`` is
resent once, alone, and charged to its retry budget. The retransmit
timeout (a go-back-N burst from the head) remains the fallback when the
probe is lost too.

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

Both share one per-frame emit path (drop filter, fault profile, frame
trace), one per-burst ACK and one retransmit timer (one pending tick per
QP, armed through ``schedule`` for the head's probe or timeout deadline;
a tick superseded by an earlier deadline is left in place and does
nothing when it fires); a transport supplies ``now_ms``, ``schedule``
and ``_deliver``, ends each burst with ``_send_owed_acks``, and supplies
``wait_until``, the blocking wait of the verbs objects.

Engine callbacks (on_data / on_ack / on_timeout_tick) run serialized
under the world lock shared with the verbs objects, which the transport
holds when it calls them (they do not take it again), on the caller's
thread: the one that pumps the loopback clock, or on sockets the one
waiting in ``wait_for_completion`` or ``get_event``, which gets any
exception they raise. User code never runs inside them.
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
import weakref
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

from .verbs import (
    CompletionEntry,
    DeviceContext,
    PortState,
    Progress,
    QpState,
    QueuePair,
    VerbsError,
    WcOpcode,
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
# a go-back-N burst (timeout or RNR resume) replays this many frames at most
BURST_FRAMES = 64
# a head unacked this long is resent once, alone (a tail-loss probe),
# before the retransmit timeout takes over
PROBE_MS = 10.0
# extra wire delay of a duplicate copy (after its original) and of a
# reordered frame
DUP_EXTRA_MS = 0.5
REORDER_EXTRA_MS = 2.5
# what ``_wire_copies`` plans for a frame sent once on time
_SENT_ONCE = ("sent",), (0.0,)


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


@dataclass
class TimingTables:
    """Encoded timer codes mapped to emulator milliseconds.

    The QP stores the raw 5-bit codes; only the fabric interprets them,
    and the mapping is configuration because the wire encodings are not
    meaningful inside an emulator.
    """

    timeout_ms: dict[int, float] = field(default_factory=lambda: {14: 500.0})
    rnr_delay_ms: dict[int, float] = field(default_factory=lambda: {12: 10.0})
    default_timeout_ms: float = 500.0
    default_rnr_delay_ms: float = 10.0

    def timeout(self, code: int) -> float:
        return self.timeout_ms.get(code, self.default_timeout_ms)

    def rnr_delay(self, code: int) -> float:
        return self.rnr_delay_ms.get(code, self.default_rnr_delay_ms)


class WindowEntry:
    __slots__ = ("psn", "frame", "wqe", "last", "sent_at",
                 "retries_used", "rnr_retries_used", "probed")

    def __init__(self, psn, frame, wqe, last, sent_at=0.0):
        self.psn = psn
        self.frame = frame
        self.wqe = wqe
        self.last = last
        self.sent_at = sent_at
        self.retries_used = 0
        self.rnr_retries_used = 0
        self.probed = False  # the tail-loss probe resent it already


class SenderState:
    """Per-QP outbound window; unacked PSNs stay contiguous mod 2^24.

    A head may stay unacked ``probe_ms`` until it is probed, then
    ``timeout_ms``. ``tick_at`` is when the pending retransmit tick
    fires (inf if none); a tick whose ``tick_gen`` is no longer current
    was superseded by an earlier one and does nothing."""

    __slots__ = ("next_psn", "unacked", "paused_until", "timeout_ms",
                 "probe_ms", "tick_at", "tick_gen")

    def __init__(self, next_psn: int, timeout_ms: float):
        self.next_psn = next_psn
        self.unacked: deque[WindowEntry] = deque()
        self.paused_until = 0.0
        self.timeout_ms = timeout_ms
        self.probe_ms = min(PROBE_MS, timeout_ms)
        self.tick_at = math.inf
        self.tick_gen = 0


class ReceiverState:
    """Per-QP inbound sequence: frames held ahead of a gap, by PSN, the
    expected PSN the last NAK named (one NAK per gap), and whether the
    frames accepted in the current burst still owe their ACK."""

    __slots__ = ("expected_psn", "reassembly", "msg_active", "held",
                 "nak_psn", "ack_owed")

    def __init__(self, expected_psn: int):
        self.expected_psn = expected_psn
        self.reassembly: list[bytes] = []  # payloads of the message so far
        self.msg_active = False
        self.held: dict[int, Frame] = {}
        self.nak_psn: Optional[int] = None
        self.ack_owed = False


@dataclass
class Endpoint:
    fabric: "Fabric"
    context: DeviceContext
    port: int
    lid: int
    qpn_map: dict[int, QueuePair] = field(default_factory=dict)
    # loopback only: the frames due to land here, by virtual arrival time
    bursts: dict[float, list[Frame]] = field(default_factory=dict)

    def dispatch(self, frame: Frame) -> None:
        qp = self.qpn_map.get(frame.dest_qpn)
        if qp is None:
            return
        kind = frame.kind
        if kind is FrameKind.DATA:
            self.fabric.on_data(qp, frame)
        elif kind is FrameKind.ACK:
            self.fabric.on_ack(qp, frame)
        elif kind is FrameKind.NAK:
            self.fabric.on_nak(qp, frame)
        else:
            self.fabric.on_rnr_nak(qp, frame)


class TraceEvent(NamedTuple):
    """One frame the engine emitted; a tuple, so cheap per frame."""

    t: float
    src_lid: Optional[int]
    dst_lid: int
    frame: Frame
    status: str  # sent | dup | dropped | unrouted | injected


class Fabric(Progress):
    """Transport-independent engine; subclasses supply clock and delivery.

    The verbs waits go through its ``Progress`` methods; the loopback
    clock is pumped by its own driver, so the base ones only wait."""

    def __init__(self, faults: FaultProfile | None = None,
                 timing: TimingTables | None = None,
                 registry=None):
        self.faults = faults or FaultProfile()
        self.timing = timing or TimingTables()
        self.routing: dict[int, Endpoint] = {}
        self.next_lid = 1
        self.drop_filter: Optional[Callable[[Frame], bool]] = None
        self.trace: list[TraceEvent] = []
        # the heap behind schedule: (time, sequence, callback)
        self._timers: list = []
        self._seq = itertools.count()
        self._rng = random.Random(self.faults.seed)
        # receive QPs owing a cumulative ACK when the current burst ends
        self._owed: list[QueuePair] = []
        self._registry = registry
        self._lock = registry.lock if registry is not None else threading.RLock()

    # -- attachment ------------------------------------------------------

    def _adopt(self, context: DeviceContext) -> None:
        if self._registry is None:
            self._registry = context.registry
            self._lock = context.registry.lock
        elif self._registry is not context.registry:
            raise VerbsError("fabric already serves a different registry")

    def attach(self, context: DeviceContext, port: int = 1) -> int:
        """Activate a port: assign it a LID and route frames to it."""
        self._adopt(context)
        with self._lock:
            if port not in context.ports:
                raise VerbsError(f"no such port {port}")
            if port in context._attachments:
                raise VerbsError(f"port {port} already attached")
            lid = self._assign_lid(context, port)
            ep = Endpoint(self, context, port, lid)
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

    def _assign_lid(self, context: DeviceContext, port: int) -> int:
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
                                self.timing.timeout(qp.attrs.timeout))

    # -- clock / scheduling (transport specific) ---------------------------

    def now_ms(self) -> float:
        raise NotImplementedError

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> None:
        raise NotImplementedError

    def _deliver(self, src: Optional[Endpoint], dlid: int, frame: Frame) -> None:
        """Send each copy ``_wire_copies`` plans, after its extra delay."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the transport's sockets, if it has any."""

    # -- retransmit timer ----------------------------------------------------

    def _arm_tick(self, qp: QueuePair) -> None:
        """Schedule one timeout tick at the head's deadline, unless one is
        pending for no later; the tick re-arms itself while frames stay
        unacked. A pending tick that is due later is superseded: the
        generation moves on, and it does nothing when it fires."""
        snd = qp.sender
        if snd is None or not snd.unacked:
            return
        head = snd.unacked[0]
        deadline = head.sent_at + (snd.timeout_ms if head.probed
                                   else snd.probe_ms)
        if deadline < snd.paused_until:
            deadline = snd.paused_until
        deadline += TICK_EPS_MS
        if snd.tick_at <= deadline:
            return
        snd.tick_at = deadline
        snd.tick_gen += 1
        self.schedule(deadline - self.now_ms(),
                      partial(self._tick_fired, qp, snd, snd.tick_gen))

    def _tick_fired(self, qp: QueuePair, snd: SenderState, gen: int) -> None:
        if qp.sender is not snd or snd.tick_gen != gen:
            return
        snd.tick_at = math.inf
        self.on_timeout_tick(qp, self.now_ms())
        self._arm_tick(qp)

    def _backlogged(self, dlid: int) -> bool:
        """Does the transport still hold bytes it has not sent to
        ``dlid``? A head queued behind them is not probed."""
        return False

    # -- send side ---------------------------------------------------------

    def transmit_message(self, qp: QueuePair, payload: bytes,
                         wqe=None) -> None:
        """Segment a message into DATA frames with consecutive PSNs.

        Frames enter the unacked window and go to the transport; delivery
        failures surface later as completion statuses, never here.
        """
        with self._lock:
            if qp.state is not QpState.RTS or qp.sender is None:
                raise VerbsError("transmit requires a QP in RTS")
            snd = qp.sender
            mtu = qp.attrs.path_mtu
            chunks = [payload[i:i + mtu] for i in range(0, len(payload), mtu)]
            if not chunks:
                chunks = [b""]
            last = len(chunks) - 1
            for i, chunk in enumerate(chunks):
                if last == 0:
                    seg = SegMark.ONLY
                elif i == 0:
                    seg = SegMark.FIRST
                elif i == last:
                    seg = SegMark.LAST
                else:
                    seg = SegMark.MIDDLE
                frame = Frame(FrameKind.DATA, qp.attrs.dest_qp_num,
                              snd.next_psn, seg, bytes(chunk))
                snd.next_psn = psn_add(snd.next_psn, 1)
                entry = WindowEntry(frame.psn, frame, wqe, last=(i == last))
                snd.unacked.append(entry)
                self._transmit_entry(qp, entry)
            self._arm_tick(qp)

    def _transmit_entry(self, qp: QueuePair, entry: WindowEntry) -> None:
        entry.sent_at = self.now_ms()
        self._emit(qp, entry.frame)

    def _emit(self, qp: QueuePair, frame: Frame) -> None:
        self._deliver(qp._endpoint, qp.attrs.ah.dlid, frame)

    def on_ack(self, qp: QueuePair, frame: Frame) -> None:
        """Cumulative ack: retire every unacked entry with psn <= frame.psn.

        Progress that exposes an already-stale head (frames the receiver
        could not hold while waiting for a retransmission) resumes the
        go-back replay immediately instead of waiting out another timeout.
        """
        snd = qp.sender
        if snd is None:
            return
        progressed = self._retire_through(qp, frame.psn)
        if snd.unacked:
            now = self.now_ms()
            if progressed and now >= snd.paused_until and \
                    now - snd.unacked[0].sent_at >= snd.timeout_ms:
                self._retransmit_burst(qp, now)
            self._arm_tick(qp)

    def _retire_through(self, qp: QueuePair, psn: int) -> bool:
        """Retire every unacked entry with psn <= ``psn``, completing the
        sends whose last frame goes; True if any entry went."""
        unacked = qp.sender.unacked
        progressed = False
        while unacked and psn_le(unacked[0].psn, psn):
            entry = unacked.popleft()
            progressed = True
            if entry.last and entry.wqe is not None:
                qp.complete_send(entry.wqe)
        return progressed

    def on_nak(self, qp: QueuePair, frame: Frame) -> None:
        """PSN sequence error: the receiver holds later frames and still
        waits for ``frame.psn``.

        Everything before that PSN arrived (an implicit ACK); the waited-for
        frame is resent at once, alone, and charged to the head's retry
        budget as a timeout would be. A NAK for a PSN no longer at the
        head is stale and ignored, and so is one during an RNR pause,
        whose resume resends the head anyway.
        """
        snd = qp.sender
        if snd is None or qp.state is not QpState.RTS:
            return
        self._retire_through(qp, psn_add(frame.psn, -1))
        if not snd.unacked or snd.unacked[0].psn != frame.psn:
            return
        head = snd.unacked[0]
        if self.now_ms() < snd.paused_until:
            return
        if head.retries_used >= qp.attrs.retry_cnt:
            self._fail_send(qp, head, WcStatus.RETRY_EXCEEDED)
            return
        head.retries_used += 1
        self._transmit_entry(qp, head)
        self._arm_tick(qp)

    def on_rnr_nak(self, qp: QueuePair, frame: Frame) -> None:
        """Receiver had no buffer: pause, then retransmit from the head.

        Like a NAK, an RNR NAK acknowledges everything before its PSN; a
        receiver that drains held frames may send it ahead of the ACK.
        """
        snd = qp.sender
        if snd is None or qp.state is not QpState.RTS:
            return
        self._retire_through(qp, psn_add(frame.psn, -1))
        if not snd.unacked:
            return
        head = snd.unacked[0]
        if head.psn != frame.psn:
            return
        if head.rnr_retries_used >= qp.attrs.rnr_retry:
            self._fail_send(qp, head, WcStatus.RNR_RETRY_EXCEEDED)
            return
        head.rnr_retries_used += 1
        delay = self.timing.rnr_delay(frame.rnr_delay_hint)
        snd.paused_until = self.now_ms() + delay
        self.schedule(delay, lambda: self._rnr_resume(qp))

    def _rnr_resume(self, qp: QueuePair) -> None:
        snd = qp.sender
        if snd is None or not snd.unacked or qp.state is not QpState.RTS:
            return
        if self.now_ms() < snd.paused_until - 1e-9:
            return
        self._retransmit_burst(qp, self.now_ms(), force=True)
        self._arm_tick(qp)

    def _retransmit_burst(self, qp: QueuePair, now: float,
                          force: bool = False) -> int:
        """Go-back-N replay: resend the stale prefix of the window.

        Stops at the first frame younger than the timeout (unless forced,
        as after an RNR pause) and at the burst cap. Retry accounting is
        the timeout tick's job, not ours.
        """
        snd = qp.sender
        tmo = snd.timeout_ms
        sent = 0
        for entry in snd.unacked:
            if sent >= BURST_FRAMES:
                break
            if not force and now - entry.sent_at < tmo:
                break
            self._transmit_entry(qp, entry)
            sent += 1
        return sent

    def on_timeout_tick(self, qp: QueuePair, now: float) -> None:
        """Probe a stalled head, then retransmit from it on timeout.

        A head unacked for ``PROBE_MS`` is resent once, alone: a
        tail-loss probe, after RFC 8985. It recovers the losses no later
        frame can reveal (a lost last frame, NAK, NAK'd resend or final
        ACK): the resend fills the receiver's gap or draws a stale
        re-ACK. While the transport still holds unsent bytes for the
        peer, the head has not left yet, and its clock restarts instead.
        Once the probed head outlives the timeout, a go-back-N burst
        replays the window from it.

        The probe and each timeout of the same head charge its retry
        budget, like a NAK'd resend; going past retry_cnt fails the
        in-flight send with RetryExceeded and throws the QP into ERR.
        """
        snd = qp.sender
        if snd is None or not snd.unacked or qp.state is not QpState.RTS:
            return
        if now < snd.paused_until:
            return
        head = snd.unacked[0]
        if now - head.sent_at < (snd.timeout_ms if head.probed
                                 else snd.probe_ms):
            return
        if not head.probed and self._backlogged(qp.attrs.ah.dlid):
            head.sent_at = now
            return
        if head.retries_used >= qp.attrs.retry_cnt:
            self._fail_send(qp, head, WcStatus.RETRY_EXCEEDED)
            return
        head.retries_used += 1
        if head.probed:
            self._retransmit_burst(qp, now)
        else:
            head.probed = True
            self._transmit_entry(qp, head)

    def _fail_send(self, qp: QueuePair, entry: WindowEntry,
                   status: WcStatus) -> None:
        snd = qp.sender
        if snd is not None:
            snd.unacked.clear()
        wqe = entry.wqe
        if wqe is not None:
            # errors complete whether the send was signaled or not
            head = qp.send_queue.popleft()
            assert head is wqe, "RC send failed out of order"
            qp.send_cq._push(CompletionEntry(wqe.wr_id, status, WcOpcode.SEND))
        qp.enter_error()

    # -- receive side --------------------------------------------------------

    def on_data(self, qp: QueuePair, frame: Frame) -> None:
        """PSN-ordered receive path.

        RESET/INIT (and ERR) QPs silently drop. Stale PSNs are re-acked
        and discarded so replays from an old connection never complete
        twice. A future PSN less than ``HOLD_PSNS`` ahead is held, and
        the first one held for a gap draws a NAK for the expected PSN;
        one further ahead is discarded and left to retransmission. An
        in-order message start with an empty receive queue draws an
        RNR NAK and does not advance the expected PSN. An in-order frame
        that fills a gap releases the held frames behind it, in order,
        under one ACK; any other in-order frame is acked when its burst
        ends, by ``_send_owed_acks``, under one ACK for the whole burst.
        """
        if qp.state in (QpState.RESET, QpState.INIT, QpState.ERR):
            return
        rcv = qp.receiver
        if rcv is None:
            return
        expected = rcv.expected_psn
        if frame.psn != expected:
            if psn_before(frame.psn, expected):
                self._send_ack(qp, frame.psn)
            elif (frame.psn - expected) & PSN_MASK < HOLD_PSNS:
                rcv.held[frame.psn] = frame
                if rcv.nak_psn != expected:
                    self._send_nak(qp, rcv)
            return
        if not self._accept(qp, rcv, frame):
            return
        if rcv.held:
            self._drain_held(qp, rcv)
        elif not rcv.ack_owed:
            rcv.ack_owed = True
            self._owed.append(qp)

    def _accept(self, qp: QueuePair, rcv: ReceiverState,
                frame: Frame) -> bool:
        """Take the frame at the expected PSN into the message it belongs
        to; False if it is refused (RNR NAK) or stray, leaving the
        expected PSN where it was."""
        starts = frame.seg in (SegMark.ONLY, SegMark.FIRST)
        ends = frame.seg in (SegMark.ONLY, SegMark.LAST)
        if starts:
            if not qp.recv_queue:
                self._send_rnr_nak(qp, frame.psn)
                return False
            rcv.reassembly = []
            rcv.msg_active = True
        elif not rcv.msg_active:
            # continuation without a start: stray frame, ignore
            return False
        rcv.reassembly.append(frame.payload)
        rcv.expected_psn = psn_add(frame.psn, 1)
        if ends:
            rcv.msg_active = False
            message = b"".join(rcv.reassembly)
            rcv.reassembly = []
            wqe = qp.recv_queue.popleft()
            if len(message) > wqe.capacity:
                qp.recv_cq._push(CompletionEntry(
                    wqe.wr_id, WcStatus.LOCAL_PROTECTION_ERROR,
                    WcOpcode.RECV, len(message)))
                qp.enter_error()
                return True
            wqe.scatter(message)
            qp.recv_cq._push(CompletionEntry(
                wqe.wr_id, WcStatus.SUCCESS, WcOpcode.RECV, len(message)))
        return True

    def _drain_held(self, qp: QueuePair, rcv: ReceiverState) -> None:
        """Accept the held frames that now continue the sequence, ack them
        all at once, and NAK the next gap if frames beyond it are held.

        A held frame refused with an RNR NAK leaves the gap to the
        sender's RNR pause, so it draws no NAK.
        """
        held = rcv.held
        accepted = True
        while accepted and qp.state is not QpState.ERR:
            frame = held.pop(rcv.expected_psn, None)
            if frame is None:
                break
            accepted = self._accept(qp, rcv, frame)
        rcv.ack_owed = False  # this ACK covers the burst so far
        self._send_ack(qp, psn_add(rcv.expected_psn, -1))
        if accepted and held and qp.state is not QpState.ERR:
            self._send_nak(qp, rcv)

    def _send_owed_acks(self) -> None:
        """End a burst: send each QP that accepted in-order frames in it
        one cumulative ACK, for the PSN before the one it now expects.

        A burst is the frames one loopback event lands, one injected
        frame, or the frames one socket read holds; the ACK leaves at
        the instant its last frame landed."""
        owed = self._owed
        if owed:
            self._owed = []
            for qp in owed:
                rcv = qp.receiver
                if rcv is not None and rcv.ack_owed:
                    rcv.ack_owed = False
                    self._send_ack(qp, (rcv.expected_psn - 1) & PSN_MASK)

    def _send_ack(self, qp: QueuePair, psn: int) -> None:
        self._emit(qp, Frame(FrameKind.ACK, qp.attrs.dest_qp_num, psn))

    def _send_nak(self, qp: QueuePair, rcv: ReceiverState) -> None:
        rcv.nak_psn = rcv.expected_psn
        self._emit(qp, Frame(FrameKind.NAK, qp.attrs.dest_qp_num,
                             rcv.expected_psn))

    def _send_rnr_nak(self, qp: QueuePair, psn: int) -> None:
        self._emit(qp, Frame(FrameKind.RNR_NAK, qp.attrs.dest_qp_num, psn,
                             rnr_delay_hint=qp.attrs.min_rnr_timer))

    # -- fault plan and trace -------------------------------------------------

    def _plan_faults(self) -> tuple[bool, bool, bool]:
        """Draw drop, duplicate and reorder for one frame, in that order."""
        r = self._rng
        return (r.random() < self.faults.drop_probability,
                r.random() < self.faults.duplicate_probability,
                r.random() < self.faults.reorder_probability)

    def _wire_copies(self, src: Optional[Endpoint], dlid: int, frame: Frame,
                     routed: bool, injected: bool = False) -> tuple:
        """Trace one frame and return the extra delay of each copy the
        wire carries: none if it is unroutable or dropped, one if sent,
        two if duplicated. Reorder adds REORDER_EXTRA_MS, a duplicate
        DUP_EXTRA_MS more; an injected frame bypasses all faults, and an
        inactive fault profile draws nothing.
        """
        if injected:
            statuses, delays = ("injected",), ((0.0,) if routed else ())
        elif not routed:
            statuses, delays = ("unrouted",), ()
        elif self.drop_filter is not None and self.drop_filter(frame):
            statuses, delays = ("dropped",), ()
        elif not self.faults.active:
            statuses, delays = _SENT_ONCE
        else:
            dropped, dup, reorder = self._plan_faults()
            if dropped:
                statuses, delays = ("dropped",), ()
            else:
                delay = REORDER_EXTRA_MS if reorder else 0.0
                if dup:
                    statuses = ("sent", "dup")
                    delays = (delay, delay + DUP_EXTRA_MS)
                else:
                    statuses, delays = ("sent",), (delay,)
        now = self.now_ms()
        src_lid = src.lid if src is not None else None
        for status in statuses:
            self.trace.append(TraceEvent(now, src_lid, dlid, frame, status))
        return delays


class LoopbackFabric(Fabric):
    """Deterministic in-process transport driven by a virtual clock.

    Events sit on a heap ordered by (virtual time, sequence). Every frame
    takes ``hop_latency_ms`` of virtual time to reach its peer, plus any
    fault delay. The frames due at one port at one instant are a burst,
    kept in the endpoint's ``bursts`` by arrival time: the first one
    schedules the burst's event, which dispatches them all in the order
    they were sent and then sends the ACKs they owe. Scheduling only
    queues; the clock moves when a caller pumps it, with step / jump /
    advance / run_until_idle.
    """

    hop_latency_ms = 1.0

    def __init__(self, faults=None, timing=None, registry=None,
                 auto_drain: bool = False):
        # auto_drain is ignored; bench's time_pingpong_setup still passes it
        super().__init__(faults, timing, registry)
        self._now = 0.0

    def now_ms(self) -> float:
        return self._now

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> None:
        self.schedule_at(self._now + delay_ms, fn)

    def schedule_at(self, t: float, fn: Callable[[], None]) -> None:
        """Queue ``fn`` for virtual time ``t``. The caller holds the world
        lock, as every engine callback and ``transmit_message`` do; it
        is not taken again here, once per frame."""
        heapq.heappush(self._timers, (t, next(self._seq), fn))

    def _drain(self, limit: float, max_events: int = 5_000_000) -> int:
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

    def run_until_idle(self, max_events: int = 2_000_000) -> int:
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

    # -- delivery -----------------------------------------------------------

    def _deliver(self, src: Optional[Endpoint], dlid: int, frame: Frame) -> None:
        """Add each copy to the burst landing at its peer at its arrival
        time; the first frame of a burst schedules the burst's event."""
        ep = self.routing.get(dlid)
        for extra in self._wire_copies(src, dlid, frame, ep is not None):
            # hop + extra first, the sum ``schedule`` makes: the same
            # float event times to the last bit
            t = self._now + (self.hop_latency_ms + extra)
            burst = ep.bursts.get(t)
            if burst is None:
                ep.bursts[t] = [frame]
                self.schedule_at(t, partial(self._land, ep, t))
            else:
                burst.append(frame)

    def _land(self, ep: Endpoint, t: float) -> None:
        """Dispatch one burst's frames in the order they were sent, then
        ACK them."""
        for frame in ep.bursts.pop(t):
            ep.dispatch(frame)
        self._send_owed_acks()

    def inject(self, dlid: int, frame: Frame, delay_ms: float = 0.0) -> None:
        """Deliver a raw frame, bypassing faults (replay/test harness); it
        lands alone, as a burst of its own."""
        with self._lock:
            ep = self.routing.get(dlid)
            if self._wire_copies(None, dlid, frame, ep is not None,
                                 injected=True):
                def land():
                    ep.dispatch(frame)
                    self._send_owed_acks()
                self.schedule(delay_ms + self.hop_latency_ms, land)


# -- socket transport ---------------------------------------------------------


@dataclass(frozen=True)
class FabricConfigEntry:
    lid: int
    host: str
    port: int


@dataclass
class FabricConfig:
    entries: list[FabricConfigEntry] = field(default_factory=list)
    faults: Optional[FaultProfile] = None


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

    A ``faults drop=.. dup=.. reorder=.. seed=..`` line sets the fault
    profile. ``#`` starts a comment.
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
        elif tokens[0] == "faults":
            config.faults = parse_faults_spec(" ".join(tokens[1:]))
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
    socket pair.

    The poll set stands for the life of the process: a fabric registers
    each socket with ``watch`` when it opens (a listener at attach, a
    connection at accept, a dialled socket while it has bytes queued)
    and takes it out with ``unwatch`` before it closes. ``handlers``
    mirrors the set: by descriptor, what the mover calls on an event.
    """

    def __init__(self):
        self.fabrics: "weakref.WeakSet[SocketFabric]" = weakref.WeakSet()
        # guards fabrics, sleepers and the poll set
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
            self.fabrics.add(fabric)
            if self.wake_pair is None:
                self.wake_pair = socket.socketpair()
                wake_r = self.wake_pair[0]
                self.poller.register(wake_r, select.POLLIN)
                self.handlers[wake_r.fileno()] = wake_r.recv, 4096  # drain

    def discard(self, fabric: "SocketFabric") -> None:
        with self.lock:
            self.fabrics.discard(fabric)

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
            with self.lock:
                fabrics = list(self.fabrics)
            # set before the timer heaps are read, so that a timer another
            # thread arms after that read wakes the poll
            self.polling = True
            until = deadline * 1e3
            for fabric in fabrics:
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
    ``transmit_message``, one read's dispatch loop or one pass over the
    due timers emits are queued per socket, and go out in one ``send``,
    without blocking, when that call returns. The frames one read holds
    are a burst: its ACKs are queued after its dispatch loop, so they
    leave in that same ``send``. What the socket does not take stays
    queued, and the socket is polled for writing until it is empty. A LID with no
    config entry, or whose dial fails, is unrouted. Accepting, reading,
    dispatching and the timer heap behind ``schedule`` (the delayed
    copies and the per-QP retransmit deadlines) run in ``wait_until``,
    on the thread that blocks in ``wait_for_completion`` or
    ``get_event``. That wait moves every open SocketFabric in the
    process over one standing poll set, and raises what an engine
    callback raised. ``poll`` never moves the fabric.
    """

    def __init__(self, config: FabricConfig, faults=None, timing=None,
                 registry=None):
        super().__init__(faults or config.faults, timing, registry)
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

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> None:
        with self._lock:
            heapq.heappush(self._timers, (self.now_ms() + delay_ms,
                                          next(self._seq), fn))
        _MANUAL.wake()

    def wait_until(self, cond, ready, timeout) -> bool:
        return _MANUAL.wait(cond, ready, timeout)

    def wake(self) -> None:
        _MANUAL.wake()

    def _assign_lid(self, context: DeviceContext, port: int) -> int:
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
        """Read what the connection has, dispatch each whole frame, then
        send what the dispatch wrote; end of stream, a socket error or a
        bad frame closes the connection.

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
            pos, size = 0, len(data)
            try:
                while size - pos >= HEADER_LEN:
                    end = pos + HEADER_LEN + frame_body_length(
                        data[pos:pos + HEADER_LEN])
                    if size < end:
                        break
                    frame = decode_frame(data[pos:end])
                    pos = end
                    ep = self.routing.get(lid)
                    if ep is not None:
                        ep.dispatch(frame)
            except FrameDecodeError:
                self._close_conn(conn)
            finally:
                if conn in self._conns:
                    self._conns[conn] = lid, data[pos:]
                self._send_owed_acks()
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

    def transmit_message(self, qp: QueuePair, payload: bytes,
                         wqe=None) -> None:
        """Segment and queue the message's frames, then send them in one
        batch."""
        try:
            super().transmit_message(qp, payload, wqe)
        finally:
            self._send_unsent()

    def _deliver(self, src: Optional[Endpoint], dlid: int, frame: Frame) -> None:
        sock = self._peer(dlid)
        copies = self._wire_copies(src, dlid, frame, sock is not None)
        data = encode_frame(frame) if copies else b""
        for extra in copies:
            if extra:
                self.schedule(extra, lambda: self._write(sock, data))
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

"""Emulated link layer and reliable-connection engine.

The fabric plays subnet manager (LID assignment), switch (routing by
destination LID), and HCA transport engine (MTU segmentation, PSN
ordering, cumulative ACKs, RNR NAKs, timeout retransmission).

Loss recovery is NAK-driven, after the IBTA RC PSN sequence error: a
receiver holds frames that arrive ahead of the expected PSN (up to
``HOLD_PSNS`` ahead) and sends one NAK per gap; the sender resends just
the NAK'd frame. Once the gap fills, the held frames are accepted in
order under one cumulative ACK. The retransmit timeout (a go-back-N
burst from the head) remains the fallback when a NAK or its resend is
lost.

Two interchangeable transports share the engine:

* LoopbackFabric: an in-process discrete-event queue driven by a virtual
  clock. Fully deterministic for a given seed and schedule.
* SocketFabric: one listening stream socket per attached port, LIDs
  resolved to host/port pairs from a static config file, real time.

Both share one per-frame path (drop filter, fault profile, frame trace)
and one retransmit timer (per-QP deadlines armed through ``schedule``);
a transport supplies only ``now_ms``, ``schedule`` and ``_deliver``.

Engine callbacks (on_data / on_ack / on_timeout_tick) run serialized
under the world lock shared with the verbs objects; user code never runs
on the fabric's execution context.
"""

from __future__ import annotations

import heapq
import itertools
import random
import socket
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .verbs import (
    CompletionEntry,
    DeviceContext,
    PortState,
    QpState,
    QueuePair,
    VerbsError,
    WcOpcode,
    WcStatus,
)
from .wire import (
    Frame,
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


def psn_add(psn: int, n: int) -> int:
    return (psn + n) & PSN_MASK


def psn_before(a: int, b: int) -> bool:
    """Serial-number compare mod 2^24: is ``a`` older than ``b``?

    Half-range convention: a distance of exactly 2^23 counts as "after",
    so stale/future classification is total.
    """
    if a == b:
        return False
    return ((b - a) & PSN_MASK) < SERIAL_HALF


def psn_le(a: int, b: int) -> bool:
    return a == b or psn_before(a, b)


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

    @property
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
                 "retries_used", "rnr_retries_used")

    def __init__(self, psn, frame, wqe, last, sent_at=0.0):
        self.psn = psn
        self.frame = frame
        self.wqe = wqe
        self.last = last
        self.sent_at = sent_at
        self.retries_used = 0
        self.rnr_retries_used = 0


class SenderState:
    """Per-QP outbound window; unacked PSNs stay contiguous mod 2^24."""

    __slots__ = ("next_psn", "unacked", "paused_until", "tick_pending")

    def __init__(self, next_psn: int):
        self.next_psn = next_psn
        self.unacked: deque[WindowEntry] = deque()
        self.paused_until = 0.0
        self.tick_pending = False


class ReceiverState:
    """Per-QP inbound sequence: frames held ahead of a gap, by PSN, and
    the expected PSN the last NAK named (one NAK per gap)."""

    __slots__ = ("expected_psn", "reassembly", "msg_active", "held",
                 "nak_psn")

    def __init__(self, expected_psn: int):
        self.expected_psn = expected_psn
        self.reassembly = bytearray()
        self.msg_active = False
        self.held: dict[int, Frame] = {}
        self.nak_psn: Optional[int] = None


@dataclass
class Endpoint:
    fabric: "Fabric"
    context: DeviceContext
    port: int
    lid: int
    qpn_map: dict[int, QueuePair] = field(default_factory=dict)

    def dispatch(self, frame: Frame) -> None:
        qp = self.qpn_map.get(frame.dest_qpn)
        if qp is None:
            return
        if frame.kind == FrameKind.DATA:
            self.fabric.on_data(qp, frame)
        elif frame.kind == FrameKind.ACK:
            self.fabric.on_ack(qp, frame)
        elif frame.kind == FrameKind.NAK:
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


class Fabric:
    """Transport-independent engine; subclasses supply clock and delivery."""

    def __init__(self, faults: FaultProfile | None = None,
                 timing: TimingTables | None = None,
                 registry=None):
        self.faults = faults or FaultProfile()
        self.timing = timing or TimingTables()
        self.routing: dict[int, Endpoint] = {}
        self.next_lid = 1
        self.retransmit_window = 64  # frames replayed per go-back-N burst
        self.drop_filter: Optional[Callable[[Frame], bool]] = None
        # extra wire delay of a duplicate copy and of a reordered frame
        self.dup_extra_ms = 0.5
        self.reorder_extra_ms = 2.5
        self.trace: list[TraceEvent] = []
        self._rng = random.Random(self.faults.seed)
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
        qp.sender = SenderState(qp.attrs.sq_psn)

    # -- clock / scheduling (transport specific) ---------------------------

    def now_ms(self) -> float:
        raise NotImplementedError

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> None:
        raise NotImplementedError

    def _deliver(self, src: Optional[Endpoint], dlid: int, frame: Frame) -> None:
        """Send each copy ``_wire_copies`` plans, after its extra delay."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop the transport's threads and sockets, if it has any."""

    # -- retransmit timer ----------------------------------------------------

    def _arm_tick(self, qp: QueuePair) -> None:
        """Schedule one timeout tick at the head's deadline, unless one is
        already pending; the tick re-arms itself while frames stay unacked."""
        snd = qp.sender
        if snd is None or not snd.unacked or snd.tick_pending:
            return
        deadline = max(snd.unacked[0].sent_at +
                       self.timing.timeout(qp.attrs.timeout),
                       snd.paused_until) + TICK_EPS_MS
        snd.tick_pending = True
        self.schedule(deadline - self.now_ms(), lambda: self._tick_fired(qp))

    def _tick_fired(self, qp: QueuePair) -> None:
        snd = qp.sender
        if snd is not None:
            snd.tick_pending = False
        self.on_timeout_tick(qp, self.now_ms())
        self._arm_tick(qp)

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
        with self._lock:
            snd = qp.sender
            if snd is None:
                return
            progressed = self._retire_through(qp, frame.psn)
            if snd.unacked:
                now = self.now_ms()
                if progressed and now >= snd.paused_until and \
                        now - snd.unacked[0].sent_at >= \
                        self.timing.timeout(qp.attrs.timeout):
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
        with self._lock:
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
        with self._lock:
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
        tmo = self.timing.timeout(qp.attrs.timeout)
        sent = 0
        for entry in snd.unacked:
            if sent >= self.retransmit_window:
                break
            if not force and now - entry.sent_at < tmo:
                break
            self._transmit_entry(qp, entry)
            sent += 1
        return sent

    def on_timeout_tick(self, qp: QueuePair, now: float) -> None:
        """Retransmit from the head once it outlives the timeout.

        Each timeout of the same head charges its retry budget; going
        past retry_cnt fails the in-flight send with RetryExceeded and
        throws the QP into ERR.
        """
        with self._lock:
            snd = qp.sender
            if snd is None or not snd.unacked or qp.state is not QpState.RTS:
                return
            if now < snd.paused_until:
                return
            head = snd.unacked[0]
            if now - head.sent_at < self.timing.timeout(qp.attrs.timeout):
                return
            if head.retries_used >= qp.attrs.retry_cnt:
                self._fail_send(qp, head, WcStatus.RETRY_EXCEEDED)
                return
            head.retries_used += 1
            self._retransmit_burst(qp, now)

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
        that fills a gap releases the held frames behind it, in order.
        """
        with self._lock:
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
            else:
                self._send_ack(qp, frame.psn)

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
            rcv.reassembly = bytearray()
            rcv.msg_active = True
        elif not rcv.msg_active:
            # continuation without a start: stray frame, ignore
            return False
        rcv.reassembly += frame.payload
        rcv.expected_psn = psn_add(frame.psn, 1)
        if ends:
            rcv.msg_active = False
            message = bytes(rcv.reassembly)
            rcv.reassembly = bytearray()
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
        self._send_ack(qp, psn_add(rcv.expected_psn, -1))
        if accepted and held and qp.state is not QpState.ERR:
            self._send_nak(qp, rcv)

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
        if not self.faults.active:
            return False, False, False
        r = self._rng
        return (r.random() < self.faults.drop_probability,
                r.random() < self.faults.duplicate_probability,
                r.random() < self.faults.reorder_probability)

    def _wire_copies(self, src: Optional[Endpoint], dlid: int, frame: Frame,
                     routed: bool, injected: bool = False) -> tuple:
        """Trace one frame and return the extra delay of each copy the
        wire carries: none if it is unroutable or dropped, one if sent,
        two if duplicated. Reorder adds reorder_extra_ms, a duplicate
        dup_extra_ms more; an injected frame bypasses all faults.
        """
        if injected:
            statuses, delays = ("injected",), ((0.0,) if routed else ())
        elif not routed:
            statuses, delays = ("unrouted",), ()
        elif self.drop_filter is not None and self.drop_filter(frame):
            statuses, delays = ("dropped",), ()
        else:
            dropped, dup, reorder = self._plan_faults()
            if dropped:
                statuses, delays = ("dropped",), ()
            else:
                delay = self.reorder_extra_ms if reorder else 0.0
                if dup:
                    statuses = ("sent", "dup")
                    delays = (delay, delay + self.dup_extra_ms)
                else:
                    statuses, delays = ("sent",), (delay,)
        now = self.now_ms()
        src_lid = src.lid if src is not None else None
        for status in statuses:
            self.trace.append(TraceEvent(now, src_lid, dlid, frame, status))
        return delays


class LoopbackFabric(Fabric):
    """Deterministic in-process transport driven by a virtual clock.

    Frames become events on a heap ordered by (virtual time, sequence).
    Tests pump the clock explicitly with step / advance / run_until_idle.

    With auto_drain=True (the live mode the loopback pingpong pair uses)
    scheduling drains the cascade inline, but only out to a short
    delivery horizon; a jump across a timer gap (retransmit timeout, RNR
    delay) is taken with ``jump`` once both roles wait, so each role gets
    to act between retries instead of watching a whole retry budget burn
    inside one drain.
    """

    INLINE_HORIZON_MS = 8.0

    def __init__(self, faults=None, timing=None, registry=None,
                 hop_latency_ms: float = 1.0, auto_drain: bool = False):
        super().__init__(faults, timing, registry)
        self.hop_latency_ms = hop_latency_ms
        self.dup_extra_ms = hop_latency_ms / 2
        self.reorder_extra_ms = hop_latency_ms * 2.5
        self.auto_drain = auto_drain
        self._now = 0.0
        self._heap: list = []
        self._seq = itertools.count()
        self._draining = False

    def now_ms(self) -> float:
        return self._now

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> None:
        self.schedule_at(self._now + delay_ms, fn)

    def schedule_at(self, t: float, fn: Callable[[], None]) -> None:
        with self._lock:
            heapq.heappush(self._heap, (t, next(self._seq), fn))
            if self.auto_drain and not self._draining:
                self._drain(self._now + self.INLINE_HORIZON_MS)

    def _drain(self, limit: float, max_events: int = 5_000_000) -> int:
        n = 0
        self._draining = True
        try:
            while self._heap and self._heap[0][0] <= limit:
                t, _, fn = heapq.heappop(self._heap)
                self._now = max(self._now, t)
                fn()
                n += 1
                if n > max_events:
                    raise RuntimeError("event queue did not drain; livelock?")
        finally:
            self._draining = False
        return n

    # -- clock pumping ----------------------------------------------------

    def step(self) -> bool:
        """Process the next scheduled event, advancing the clock to it."""
        with self._lock:
            if not self._heap:
                return False
            t, _, fn = heapq.heappop(self._heap)
            self._now = max(self._now, t)
            fn()
            return True

    def run_until_idle(self, max_events: int = 2_000_000) -> int:
        n = 0
        while self.step():
            n += 1
            if n > max_events:
                raise RuntimeError("event queue did not drain; livelock?")
        return n

    def advance(self, ms: float) -> None:
        """Advance the clock by ms, processing everything due on the way."""
        with self._lock:
            target = self._now + ms
            while self._heap and self._heap[0][0] <= target:
                t, _, fn = heapq.heappop(self._heap)
                self._now = max(self._now, t)
                fn()
            self._now = target

    def jump(self) -> bool:
        """Move the clock to the next event and drain out to the horizon
        from there (not ``step``, whose callbacks would start a nested
        inline drain); False if nothing is scheduled."""
        with self._lock:
            if not self._heap:
                return False
            self._now = max(self._now, self._heap[0][0])
            self._drain(self._now + self.INLINE_HORIZON_MS)
            return True

    # -- delivery -----------------------------------------------------------

    def _deliver(self, src: Optional[Endpoint], dlid: int, frame: Frame) -> None:
        ep = self.routing.get(dlid)
        for extra in self._wire_copies(src, dlid, frame, ep is not None):
            self.schedule(self.hop_latency_ms + extra,
                          lambda: ep.dispatch(frame))

    def inject(self, dlid: int, frame: Frame, delay_ms: float = 0.0) -> None:
        """Deliver a raw frame, bypassing faults (replay/test harness)."""
        with self._lock:
            ep = self.routing.get(dlid)
            if self._wire_copies(None, dlid, frame, ep is not None,
                                 injected=True):
                self.schedule(delay_ms + self.hop_latency_ms,
                              lambda: ep.dispatch(frame))


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


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


class _Writer:
    """Owns one outbound connection; sends happen off the world lock."""

    def __init__(self, host: str, port: int, stop: threading.Event):
        self.host = host
        self.port = port
        self._stop = stop
        self._queue: deque[bytes] = deque()
        self._cond = threading.Condition()
        self._busy = False
        self._sock: Optional[socket.socket] = None
        self.thread = threading.Thread(target=self._run, daemon=True,
                                       name=f"fabric-writer-{host}:{port}")
        self.thread.start()

    def send(self, data: bytes) -> None:
        with self._cond:
            self._queue.append(data)
            self._cond.notify()

    def flush(self, deadline: float) -> bool:
        """Wait until queued frames hit the wire (teardown wants the
        peer to see our final acks)."""
        while time.monotonic() < deadline:
            with self._cond:
                if not self._queue and not self._busy:
                    return True
            time.sleep(0.002)
        return False

    def close(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _dial(self) -> Optional[socket.socket]:
        for _ in range(3):
            try:
                sock = socket.create_connection((self.host, self.port),
                                                timeout=2.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError:
                if self._stop.wait(0.05):
                    return None
        return None

    def _run(self) -> None:
        while not self._stop.is_set():
            with self._cond:
                while not self._queue and not self._stop.is_set():
                    self._cond.wait(0.2)
                if self._stop.is_set():
                    break
                data = self._queue.popleft()
                self._busy = True
            if self._sock is None:
                self._sock = self._dial()
            try:
                if self._sock is not None:
                    self._sock.sendall(data)
                # else: frame lost; retransmission recovers
            except OSError:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
            finally:
                with self._cond:
                    self._busy = False
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass


class SocketFabric(Fabric):
    """Stream-socket transport: one listener per attached port.

    LIDs come from the static config; an attach claims the first entry
    whose address it can bind. Frames are written one per record in the
    codec layout. Faults and the frame trace work as on loopback: a
    reordered or duplicated copy is written after its extra delay, and
    every frame the engine emits lands in ``trace``. A ticker thread
    runs the timer heap behind ``schedule``, which holds the delayed
    copies and the per-QP retransmit deadlines.
    """

    TICK_S = 0.005

    def __init__(self, config: FabricConfig, faults=None, timing=None,
                 registry=None):
        if faults is None:
            faults = config.faults
        super().__init__(faults, timing, registry)
        self.config = config
        self._entry_by_lid = {e.lid: e for e in config.entries}
        self._stop = threading.Event()
        self._listeners: dict[int, socket.socket] = {}
        self._conns: set[socket.socket] = set()  # accepted, one per reader
        self._writers: dict[int, _Writer] = {}
        self._threads: list[threading.Thread] = []
        self._timers: list = []
        self._timer_seq = itertools.count()
        self._ticker: Optional[threading.Thread] = None

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> None:
        with self._lock:
            heapq.heappush(self._timers, (self.now_ms() + delay_ms,
                                          next(self._timer_seq), fn))

    def _assign_lid(self, context: DeviceContext, port: int) -> int:
        last_err = None
        for entry in self.config.entries:
            if entry.lid in self._listeners:
                continue
            lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                lsock.bind((entry.host, entry.port))
                lsock.listen(8)
            except OSError as exc:
                lsock.close()
                last_err = exc
                continue
            self._listeners[entry.lid] = lsock
            return entry.lid
        raise VerbsError(f"no bindable fabric config entry ({last_err})")

    def attach(self, context: DeviceContext, port: int = 1) -> int:
        lid = super().attach(context, port)
        ep = self.routing[lid]
        t = threading.Thread(target=self._accept_loop,
                             args=(self._listeners[lid], ep),
                             name=f"fabric-accept-{lid}", daemon=True)
        t.start()
        self._threads.append(t)
        if self._ticker is None:
            self._ticker = threading.Thread(target=self._ticker_loop,
                                            name="fabric-ticker", daemon=True)
            self._ticker.start()
        return lid

    def close(self) -> None:
        # drain outbound queues first: the peer may still be waiting on
        # our final acks, and a dropped ack turns into its retry storm
        deadline = time.monotonic() + 2.0
        for writer in list(self._writers.values()):
            writer.flush(deadline)
        self._stop.set()
        for lsock in self._listeners.values():
            try:
                # close() alone leaves a thread blocked in accept() asleep
                lsock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                lsock.close()
            except OSError:
                pass
        with self._lock:
            conns, self._conns = self._conns, set()
        for conn in conns:
            try:
                # wakes the reader blocked in recv(); it closes the socket
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for writer in self._writers.values():
            writer.close()
        if self._ticker is not None:
            self._ticker.join(timeout=2)

    # -- wire ----------------------------------------------------------------

    def bind_qp(self, qp: QueuePair, endpoint: Endpoint) -> None:
        """Also start the writer towards the peer's LID, now that the QP
        knows it, rather than on the first frame's path."""
        super().bind_qp(qp, endpoint)
        self._writer_for(qp.attrs.ah.dlid)

    def _writer_for(self, dlid: int) -> Optional[_Writer]:
        writer = self._writers.get(dlid)
        if writer is None:
            entry = self._entry_by_lid.get(dlid)
            if entry is None:
                return None
            writer = _Writer(entry.host, entry.port, self._stop)
            self._writers[dlid] = writer
        return writer

    def _deliver(self, src: Optional[Endpoint], dlid: int, frame: Frame) -> None:
        writer = self._writer_for(dlid)
        copies = self._wire_copies(src, dlid, frame, writer is not None)
        data = encode_frame(frame) if copies else b""
        for extra in copies:
            if extra:
                self.schedule(extra, lambda: writer.send(data))
            else:
                writer.send(data)

    def _accept_loop(self, lsock: socket.socket, ep: Endpoint) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = lsock.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._stop.is_set():
                    conn.close()
                    return
                self._conns.add(conn)
            t = threading.Thread(target=self._reader_loop, args=(conn, ep),
                                 name="fabric-reader", daemon=True)
            t.start()
            self._threads.append(t)

    def _reader_loop(self, conn: socket.socket, ep: Endpoint) -> None:
        try:
            while not self._stop.is_set():
                header = _recv_exact(conn, HEADER_LEN)
                if header is None:
                    return
                body_len = frame_body_length(header)
                body = _recv_exact(conn, body_len) if body_len else b""
                if body is None:
                    return
                frame = decode_frame(header + body)
                with self._lock:
                    ep.dispatch(frame)
        except (OSError, ValueError):
            return
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _ticker_loop(self) -> None:
        while not self._stop.wait(self.TICK_S):
            with self._lock:
                now = self.now_ms()
                while self._timers and self._timers[0][0] <= now:
                    _, _, fn = heapq.heappop(self._timers)
                    try:
                        fn()
                    except Exception:
                        traceback.print_exc()

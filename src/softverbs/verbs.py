"""Software-emulated verbs resource model.

Devices, contexts, protection domains, memory regions, completion queues
and channels, and queue pairs with the RESET/INIT/RTR/RTS/ERR state
machine. Everything lives in ordinary Python objects; "hardware" behavior
(frame delivery, acks, retries) is provided by a fabric the context's
port is attached to.

All objects under one DeviceRegistry share a single re-entrant lock, so
resource creation, modify_qp, posting, and polling are atomic with
respect to each other and to fabric callbacks. No call here blocks except
CompletionQueue.wait_for_completion, CompletionChannel.get_event and
CompletionQueue.destroy (which waits for event acks). The first two
block through the attached fabric's ``Progress``; on a socket fabric the
waiting thread moves the fabric while it waits, so engine errors raise
there. ``poll`` never blocks and never moves a fabric.
"""

from __future__ import annotations

import copy
import threading
from collections import deque
from dataclasses import dataclass, field
from enum import Enum, IntFlag
from typing import NamedTuple, Optional

from .wire import PSN_MASK

PAGE_SIZE = 4096
QPN_FIRST = 0x580048
VALID_MTUS = (256, 512, 1024, 2048, 4096)


class VerbsError(Exception):
    """Base error for every emulated verbs failure."""


class BadWorkRequestError(VerbsError):
    """A post failed partway through a chain; ``index`` names the bad WR."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"work request {index}: {reason}")
        self.index = index
        self.reason = reason


class CompletionQueueError(VerbsError):
    """The CQ is latched in its error state and can no longer be used."""


class AccessFlags(IntFlag):
    LOCAL_WRITE = 1
    REMOTE_WRITE = 1 << 1
    REMOTE_READ = 1 << 2
    REMOTE_ATOMIC = 1 << 3
    MW_BIND = 1 << 4


ACCESS_ALL = (AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_WRITE |
              AccessFlags.REMOTE_READ | AccessFlags.REMOTE_ATOMIC |
              AccessFlags.MW_BIND)


class AttrMask(IntFlag):
    STATE = 1 << 0
    PKEY_INDEX = 1 << 1
    PORT = 1 << 2
    ACCESS_FLAGS = 1 << 3
    AV = 1 << 4
    PATH_MTU = 1 << 5
    DEST_QPN = 1 << 6
    RQ_PSN = 1 << 7
    MAX_DEST_RD_ATOMIC = 1 << 8
    MIN_RNR_TIMER = 1 << 9
    TIMEOUT = 1 << 10
    RETRY_CNT = 1 << 11
    RNR_RETRY = 1 << 12
    SQ_PSN = 1 << 13
    MAX_QP_RD_ATOMIC = 1 << 14


MASK_ALL = AttrMask((1 << 15) - 1)

INIT_REQUIRED = (AttrMask.STATE | AttrMask.PKEY_INDEX | AttrMask.PORT |
                 AttrMask.ACCESS_FLAGS)
RTR_REQUIRED = (AttrMask.STATE | AttrMask.AV | AttrMask.PATH_MTU |
                AttrMask.DEST_QPN | AttrMask.RQ_PSN |
                AttrMask.MAX_DEST_RD_ATOMIC | AttrMask.MIN_RNR_TIMER)
RTS_REQUIRED = (AttrMask.STATE | AttrMask.TIMEOUT | AttrMask.RETRY_CNT |
                AttrMask.RNR_RETRY | AttrMask.SQ_PSN |
                AttrMask.MAX_QP_RD_ATOMIC)


class QpState(Enum):
    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"
    RTS = "RTS"
    ERR = "ERR"


# target state -> (legal source states, mask bits the modify must carry)
TRANSITION_TABLE = {
    QpState.INIT: ({QpState.RESET}, INIT_REQUIRED),
    QpState.RTR: ({QpState.INIT}, RTR_REQUIRED),
    QpState.RTS: ({QpState.RTR}, RTS_REQUIRED),
    QpState.ERR: (set(QpState), AttrMask.STATE),
    QpState.RESET: (set(QpState), AttrMask.STATE),
}


class QpType(Enum):
    RC = "RC"


class PortState(Enum):
    DOWN = "Down"
    ACTIVE = "Active"


class LinkLayer(Enum):
    INFINIBAND = "InfiniBand"


class CqState(Enum):
    OK = "Ok"
    ERROR = "Error"


class WcStatus(Enum):
    SUCCESS = "Success"
    LOCAL_PROTECTION_ERROR = "LocalProtectionError"
    RETRY_EXCEEDED = "RetryExceeded"
    RNR_RETRY_EXCEEDED = "RnrRetryExceeded"
    WR_FLUSHED = "WorkRequestFlushed"


class WcOpcode(Enum):
    SEND = "Send"
    RECV = "Recv"


class SendOpcode(Enum):
    SEND = "SEND"


class SendFlags(IntFlag):
    SIGNALED = 1


class CompletionEntry(NamedTuple):
    """One work completion (CQE); a tuple, so cheap per completion."""

    wr_id: int
    status: WcStatus
    opcode: WcOpcode
    byte_len: int = 0


@dataclass(frozen=True)
class Device:
    name: str
    guid: int
    num_ports: int = 1


@dataclass
class PortAttributes:
    lid: int = 0
    link_layer: LinkLayer = LinkLayer.INFINIBAND
    state: PortState = PortState.DOWN


@dataclass
class QueueCaps:
    max_send_wr: int
    max_recv_wr: int
    max_send_sge: int = 1
    max_recv_sge: int = 1


@dataclass
class AddressHandle:
    dlid: int = 0
    sl: int = 0
    src_path_bits: int = 0
    port_num: int = 0
    is_global: bool = False
    dgid: bytes = bytes(16)


@dataclass
class QpAttributes:
    pkey_index: int = 0
    port_num: int = 0
    qp_access_flags: AccessFlags = AccessFlags(0)
    path_mtu: int = 256
    dest_qp_num: int = 0
    rq_psn: int = 0
    sq_psn: int = 0
    max_dest_rd_atomic: int = 0
    max_rd_atomic: int = 0
    min_rnr_timer: int = 0
    timeout: int = 0
    retry_cnt: int = 0
    rnr_retry: int = 0
    ah: AddressHandle = field(default_factory=AddressHandle)


@dataclass(frozen=True)
class ScatterGatherElement:
    addr: int
    length: int
    lkey: int


@dataclass
class ReceiveWorkRequest:
    wr_id: int
    sg_list: list[ScatterGatherElement]
    next: Optional["ReceiveWorkRequest"] = None


@dataclass
class SendWorkRequest:
    wr_id: int
    sg_list: list[ScatterGatherElement]
    opcode: SendOpcode = SendOpcode.SEND
    flags: SendFlags = SendFlags.SIGNALED
    next: Optional["SendWorkRequest"] = None


class PostedRecv:
    """A receive WQE sitting in the receive queue, MRs resolved at post."""

    __slots__ = ("wr_id", "slots", "capacity")

    def __init__(self, wr_id: int, slots: list[tuple["MemoryRegion", int, int]]):
        self.wr_id = wr_id
        self.slots = slots
        self.capacity = sum(length for _, _, length in slots)

    def scatter(self, message: bytes) -> None:
        off = 0
        for mr, addr, length in self.slots:
            if off >= len(message):
                break
            take = min(length, len(message) - off)
            mr.write(addr, message[off:off + take])
            off += take


class PostedSend:
    """A send WQE in flight; its payload went to the fabric at post time."""

    __slots__ = ("wr_id", "signaled")

    def __init__(self, wr_id: int, signaled: bool):
        self.wr_id = wr_id
        self.signaled = signaled


class Buffer:
    """Emulated registered-memory backing store with a fake base address."""

    __slots__ = ("base", "data")

    def __init__(self, base: int, size: int):
        self.base = base
        self.data = bytearray(size)

    def __len__(self) -> int:
        return len(self.data)

    def fill(self, byte: int) -> None:
        self.data[:] = bytes((byte,)) * len(self.data)


class DeviceRegistry:
    """The emulated host: the set of devices visible to get_device_list.

    Also owns the world lock that serializes every operation on objects
    created beneath it.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self._devices: list[Device] = []
        self._next_guid = 0xC0DE000000000001

    def add_device(self, name: str, guid: int | None = None,
                   num_ports: int = 1) -> Device:
        with self.lock:
            if any(d.name == name for d in self._devices):
                raise VerbsError(f"device name {name!r} already registered")
            if guid is None:
                guid = self._next_guid
                self._next_guid += 1
            dev = Device(name, guid, num_ports)
            self._devices.append(dev)
            return dev

    def get_device_list(self) -> list[Device]:
        with self.lock:
            return list(self._devices)

    def open_device(self, device: Device) -> "DeviceContext":
        with self.lock:
            if device not in self._devices:
                raise VerbsError(f"unknown device {device!r}")
            return DeviceContext(self, device)


class Progress:
    """How the blocking verbs waits get their events. This base waits on
    the condition alone: the fabric moves by itself, or its driver pumps
    it. A fabric that moves only while someone waits (SocketFabric)
    overrides both methods."""

    def wait_until(self, cond, ready, timeout) -> bool:
        """Block on ``cond`` until ``ready()`` holds or ``timeout`` seconds
        pass; True if it holds."""
        with cond:
            return cond.wait_for(ready, timeout)

    def wake(self) -> None:
        """CQEs or a channel event come from outside the fabric (a flush
        or a destroyed channel, on any thread): cut short a wait that
        would miss them. The fabric's own CQEs need no wake."""


_UNATTACHED = Progress()  # for a context with no port attached


class DeviceContext:
    """An open handle on a device; parent of PDs, CQs, and channels."""

    def __init__(self, registry: DeviceRegistry, device: Device):
        self.registry = registry
        self.lock = registry.lock  # the world lock
        self.device = device
        self.open = True
        self.ports = {n: PortAttributes() for n in range(1, device.num_ports + 1)}
        self._pds: list[ProtectionDomain] = []
        self._cqs: list[CompletionQueue] = []
        self._channels: list[CompletionChannel] = []
        self._mr_by_lkey: dict[int, MemoryRegion] = {}
        self._attachments: dict[int, object] = {}  # port -> fabric endpoint
        self._next_pd_handle = 1
        self._next_lkey = 1
        self._next_qpn = QPN_FIRST
        self._next_addr = 0x100000

    def _check_open(self):
        if not self.open:
            raise VerbsError("context is closed")

    def _progress(self) -> "Progress":
        """The fabric a port is attached to, which the waits go through."""
        with self.lock:
            return next((e.fabric for e in self._attachments.values()),
                        _UNATTACHED)

    def alloc_buffer(self, size: int, align: int = PAGE_SIZE) -> Buffer:
        """Hand out a fresh buffer at an aligned emulated address."""
        if size <= 0:
            raise VerbsError("buffer size must be positive")
        with self.lock:
            self._check_open()
            base = -(-self._next_addr // align) * align
            self._next_addr = base + size
            return Buffer(base, size)

    def alloc_pd(self) -> "ProtectionDomain":
        with self.lock:
            self._check_open()
            pd = ProtectionDomain(self, self._next_pd_handle)
            self._next_pd_handle += 1
            self._pds.append(pd)
            return pd

    def create_channel(self) -> "CompletionChannel":
        with self.lock:
            self._check_open()
            ch = CompletionChannel(self)
            self._channels.append(ch)
            return ch

    def create_cq(self, capacity: int, user_context=None,
                  channel: Optional["CompletionChannel"] = None,
                  comp_vector: int = 0) -> "CompletionQueue":
        with self.lock:
            self._check_open()
            if capacity < 1:
                raise VerbsError(f"cq capacity must be >= 1, got {capacity}")
            if comp_vector != 0:
                raise VerbsError("only completion vector 0 is supported")
            if channel is not None and channel.context is not self:
                raise VerbsError("channel belongs to a different context")
            cq = CompletionQueue(self, capacity, user_context, channel)
            self._cqs.append(cq)
            return cq

    def query_port(self, port: int) -> PortAttributes:
        with self.lock:
            self._check_open()
            if port not in self.ports:
                raise VerbsError(f"no such port {port}")
            return copy.copy(self.ports[port])

    def query_gid(self, port: int, index: int) -> bytes:
        """GID table lookup; index 0 is the link-local GID from the GUID."""
        with self.lock:
            self._check_open()
            if port not in self.ports:
                raise VerbsError(f"no such port {port}")
            if index != 0:
                raise VerbsError(f"gid index {index} out of range")
            return bytes((0xFE, 0x80, 0, 0, 0, 0, 0, 0)) + \
                self.device.guid.to_bytes(8, "big")

    def close(self) -> None:
        with self.lock:
            if not self.open:
                return
            if self._pds or self._cqs or self._channels:
                raise VerbsError("context still has live child resources")
            for endpoint in list(self._attachments.values()):
                endpoint.fabric.detach(self, endpoint.port)
            self.open = False


class ProtectionDomain:
    def __init__(self, context: DeviceContext, handle: int):
        self.context = context
        self.handle = handle
        self._mrs: list[MemoryRegion] = []
        self._qps: list[QueuePair] = []

    def reg_mr(self, buf: Buffer, length: int,
               access: AccessFlags | int) -> "MemoryRegion":
        with self.context.lock:
            self.context._check_open()
            if length <= 0:
                raise VerbsError(f"mr length must be positive, got {length}")
            if length > len(buf):
                raise VerbsError("mr length exceeds the backing buffer")
            if int(access) & ~int(ACCESS_ALL):
                raise VerbsError(f"undefined access bits in {int(access):#x}")
            lkey = self.context._next_lkey
            self.context._next_lkey += 1
            mr = MemoryRegion(self, buf, buf.base, length,
                              AccessFlags(int(access)), lkey)
            self._mrs.append(mr)
            self.context._mr_by_lkey[lkey] = mr
            return mr

    def create_qp(self, send_cq: "CompletionQueue", recv_cq: "CompletionQueue",
                  caps: QueueCaps, qp_type: QpType = QpType.RC) -> "QueuePair":
        with self.context.lock:
            self.context._check_open()
            if send_cq is None or recv_cq is None:
                raise VerbsError("queue pair needs both a send and a recv CQ")
            if send_cq.context is not self.context or \
                    recv_cq.context is not self.context:
                raise VerbsError("CQ belongs to a different context")
            if qp_type is not QpType.RC:
                raise VerbsError(f"unsupported qp type {qp_type!r}")
            for n in (caps.max_send_wr, caps.max_recv_wr,
                      caps.max_send_sge, caps.max_recv_sge):
                if n < 1:
                    raise VerbsError("queue caps must all be >= 1")
            qpn = self.context._next_qpn
            self.context._next_qpn = (self.context._next_qpn + 1) & PSN_MASK
            qp = QueuePair(self, qpn, send_cq, recv_cq,
                           copy.copy(caps), qp_type)
            self._qps.append(qp)
            send_cq._qps.add(qp)
            recv_cq._qps.add(qp)
            return qp

    def dealloc(self) -> None:
        with self.context.lock:
            if self._mrs or self._qps:
                raise VerbsError("protection domain still has live children")
            self.context._pds.remove(self)


class MemoryRegion:
    def __init__(self, pd: ProtectionDomain, buf: Buffer, base: int,
                 length: int, access: AccessFlags, lkey: int):
        self.pd = pd
        self.buffer = buf
        self.base = base
        self.length = length
        self.access = access
        self.lkey = lkey
        self.pinned = True

    def contains(self, addr: int, length: int) -> bool:
        return self.base <= addr and addr + length <= self.base + self.length

    def read(self, addr: int, length: int) -> bytes:
        off = addr - self.buffer.base
        # one copy: a bytearray slice would copy once more
        return bytes(memoryview(self.buffer.data)[off:off + length])

    def write(self, addr: int, data: bytes) -> None:
        off = addr - self.buffer.base
        self.buffer.data[off:off + len(data)] = data

    def dereg(self) -> None:
        with self.pd.context.lock:
            if not self.pinned:
                return
            self.pinned = False
            self.pd._mrs.remove(self)
            del self.pd.context._mr_by_lkey[self.lkey]


class CompletionChannel:
    """Event-mode delivery: armed CQs land here when a CQE arrives."""

    def __init__(self, context: DeviceContext):
        self.context = context
        self.pending: deque[CompletionQueue] = deque()
        self.destroyed = False
        self._cond = threading.Condition(context.lock)
        self._cqs: set[CompletionQueue] = set()

    def _deliver(self, cq: "CompletionQueue") -> None:
        self.pending.append(cq)
        self._cond.notify_all()

    def get_event(self, timeout: float | None = None) -> Optional["CompletionQueue"]:
        """Block until a CQ notification is available and return that CQ.

        Returns None on timeout (when one is given); raises if the channel
        is destroyed while waiting.
        """
        while self.context._progress().wait_until(
                self._cond, lambda: self.pending or self.destroyed, timeout):
            with self._cond:
                if self.pending:
                    cq = self.pending.popleft()
                    cq.unacked_events += 1
                    return cq
                if self.destroyed:
                    raise VerbsError("completion channel destroyed")
        return None

    def destroy(self) -> None:
        with self._cond:
            if self._cqs:
                raise VerbsError("channel still referenced by a CQ")
            self.destroyed = True
            if self in self.context._channels:
                self.context._channels.remove(self)
            self._cond.notify_all()
            self.context._progress().wake()


class CompletionQueue:
    def __init__(self, context: DeviceContext, capacity: int,
                 user_context, channel: Optional[CompletionChannel]):
        self.context = context
        self.capacity = capacity
        self.user_context = user_context
        self.channel = channel
        self.entries: deque[CompletionEntry] = deque()
        self.state = CqState.OK
        self.unacked_events = 0
        self.notify_armed = False
        self._qps: set[QueuePair] = set()
        self._ack_cond = threading.Condition(context.lock)
        self._entry_cond = threading.Condition(context.lock)
        self._waiters = 0  # threads in wait_for_completion
        if channel is not None:
            channel._cqs.add(self)

    def _push(self, entry: CompletionEntry) -> None:
        """Insert a CQE; overflowing latches the error state and drops it.

        Waiters are woken only if there are any: a poll loop that never
        waits pays no notify per CQE."""
        with self.context.lock:
            if self.state is CqState.ERROR:
                return
            if len(self.entries) >= self.capacity:
                self.state = CqState.ERROR
                if self._waiters:
                    self._entry_cond.notify_all()
                return
            self.entries.append(entry)
            if self._waiters:
                self._entry_cond.notify_all()
            if self.notify_armed and self.channel is not None:
                self.notify_armed = False
                self.channel._deliver(self)

    def poll(self, max_entries: int) -> list[CompletionEntry]:
        """Dequeue up to max_entries CQEs in FIFO order without blocking.

        An empty CQ that is not latched returns ``[]`` without taking the
        world lock, so a busy poll loop does not wait on a thread that
        holds it; a CQE pushed meanwhile is returned by the next poll.
        """
        if max_entries < 1:
            raise VerbsError(f"poll needs max >= 1, got {max_entries}")
        if not self.entries and self.state is CqState.OK:
            return []
        with self.context.lock:
            if self.state is CqState.ERROR:
                raise CompletionQueueError("poll on a CQ in the error state")
            out = []
            while self.entries and len(out) < max_entries:
                out.append(self.entries.popleft())
            return out

    def wait_for_completion(self, timeout: float | None = None) -> bool:
        """Park the caller until an entry (or the error latch) appears.

        Purely a convenience for poll loops; poll() itself never blocks.
        The caller counts as a waiter, under the world lock, for as long
        as it waits, so that ``_push`` knows to wake it.
        """
        with self.context.lock:
            self._waiters += 1
        try:
            return self.context._progress().wait_until(
                self._entry_cond,
                lambda: bool(self.entries) or self.state is CqState.ERROR,
                timeout)
        finally:
            with self.context.lock:
                self._waiters -= 1

    def req_notify(self) -> None:
        """Arm a one-shot event: the next CQE pushes this CQ to its channel."""
        with self.context.lock:
            if self.channel is None:
                raise VerbsError("CQ has no completion channel")
            self.notify_armed = True

    def ack_events(self, n: int) -> None:
        with self._ack_cond:
            if n < 0 or n > self.unacked_events:
                raise VerbsError(
                    f"acking {n} events with {self.unacked_events} outstanding")
            self.unacked_events -= n
            self._ack_cond.notify_all()

    def destroy(self) -> None:
        """Tear down; waits until every delivered event has been acked."""
        with self._ack_cond:
            if self._qps:
                raise VerbsError("CQ still attached to a queue pair")
            while self.unacked_events > 0:
                self._ack_cond.wait()
            if self in self.context._cqs:
                self.context._cqs.remove(self)
            if self.channel is not None:
                self.channel._cqs.discard(self)


class QueuePair:
    """A reliable-connection queue pair plus its emulated HCA state."""

    def __init__(self, pd: ProtectionDomain, qpn: int,
                 send_cq: CompletionQueue, recv_cq: CompletionQueue,
                 caps: QueueCaps, qp_type: QpType):
        self.pd = pd
        self.context = pd.context
        self.qpn = qpn
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.caps = caps
        self.qp_type = qp_type
        self.state = QpState.RESET
        self.attrs = QpAttributes()
        self.send_queue: deque[PostedSend] = deque()
        self.recv_queue: deque[PostedRecv] = deque()
        # engine-owned reliable-connection state, managed by the fabric
        self.sender = None
        self.receiver = None
        self._endpoint = None

    @property
    def fabric(self):
        return self._endpoint.fabric if self._endpoint is not None else None

    # -- state machine -------------------------------------------------

    def modify(self, attrs: QpAttributes, mask: AttrMask | int) -> None:
        """Apply exactly the masked attribute fields, with state rules.

        A STATE change happens only when the transition is legal and the
        mask carries at least the field set its setup requires:
        INIT wants {STATE, PKEY_INDEX, PORT, ACCESS_FLAGS}; RTR wants
        {STATE, AV, PATH_MTU, DEST_QPN, RQ_PSN, MAX_DEST_RD_ATOMIC,
        MIN_RNR_TIMER}; RTS wants {STATE, TIMEOUT, RETRY_CNT, RNR_RETRY,
        SQ_PSN, MAX_QP_RD_ATOMIC}. Failure leaves the QP untouched.
        """
        if int(mask) & ~int(MASK_ALL):
            raise VerbsError(f"undefined attr-mask bits in {int(mask):#x}")
        mask = AttrMask(int(mask))
        with self.context.lock:
            target = None
            if mask & AttrMask.STATE:
                target = attrs_state(attrs)
                sources, required = TRANSITION_TABLE[target]
                if self.state not in sources:
                    raise VerbsError(
                        f"illegal transition {self.state.name} -> {target.name}")
                if (mask & required) != required:
                    missing = AttrMask(int(required) & ~int(mask))
                    raise VerbsError(
                        f"mask missing {missing!r} for -> {target.name}")
            self._validate_masked(attrs, mask)
            self._apply_masked(attrs, mask)
            if target is not None:
                self._enter_state(target)

    def _validate_masked(self, attrs: QpAttributes, mask: AttrMask) -> None:
        if mask & AttrMask.PORT and attrs.port_num not in self.context.ports:
            raise VerbsError(f"no such port {attrs.port_num}")
        if mask & AttrMask.PATH_MTU and attrs.path_mtu not in VALID_MTUS:
            raise VerbsError(f"invalid path mtu {attrs.path_mtu}")
        if mask & AttrMask.ACCESS_FLAGS and \
                int(attrs.qp_access_flags) & ~int(ACCESS_ALL):
            raise VerbsError("undefined qp access flag bits")
        if mask & AttrMask.DEST_QPN and not 0 <= attrs.dest_qp_num <= PSN_MASK:
            raise VerbsError("dest qpn out of 24-bit range")
        if mask & AttrMask.RQ_PSN and not 0 <= attrs.rq_psn <= PSN_MASK:
            raise VerbsError("rq psn out of 24-bit range")
        if mask & AttrMask.SQ_PSN and not 0 <= attrs.sq_psn <= PSN_MASK:
            raise VerbsError("sq psn out of 24-bit range")
        if mask & AttrMask.RETRY_CNT and not 0 <= attrs.retry_cnt <= 7:
            raise VerbsError("retry_cnt must fit in 3 bits")
        if mask & AttrMask.RNR_RETRY and not 0 <= attrs.rnr_retry <= 7:
            raise VerbsError("rnr_retry must fit in 3 bits")
        if mask & AttrMask.MIN_RNR_TIMER and not 0 <= attrs.min_rnr_timer < 32:
            raise VerbsError("min_rnr_timer must be a 5-bit code")
        if mask & AttrMask.TIMEOUT and not 0 <= attrs.timeout < 32:
            raise VerbsError("timeout must be a 5-bit code")
        if mask & AttrMask.AV and len(attrs.ah.dgid) != 16:
            raise VerbsError("gid must be 16 bytes")

    _FIELD_BY_MASK = (
        (AttrMask.PKEY_INDEX, "pkey_index"),
        (AttrMask.PORT, "port_num"),
        (AttrMask.ACCESS_FLAGS, "qp_access_flags"),
        (AttrMask.PATH_MTU, "path_mtu"),
        (AttrMask.DEST_QPN, "dest_qp_num"),
        (AttrMask.RQ_PSN, "rq_psn"),
        (AttrMask.SQ_PSN, "sq_psn"),
        (AttrMask.MAX_DEST_RD_ATOMIC, "max_dest_rd_atomic"),
        (AttrMask.MAX_QP_RD_ATOMIC, "max_rd_atomic"),
        (AttrMask.MIN_RNR_TIMER, "min_rnr_timer"),
        (AttrMask.TIMEOUT, "timeout"),
        (AttrMask.RETRY_CNT, "retry_cnt"),
        (AttrMask.RNR_RETRY, "rnr_retry"),
    )

    def _apply_masked(self, attrs: QpAttributes, mask: AttrMask) -> None:
        for bit, name in self._FIELD_BY_MASK:
            if mask & bit:
                setattr(self.attrs, name, getattr(attrs, name))
        if mask & AttrMask.AV:
            self.attrs.ah = copy.copy(attrs.ah)

    def _enter_state(self, target: QpState) -> None:
        previous, self.state = self.state, target
        if target is QpState.RTR:
            self._bind_to_fabric()
        elif target is QpState.RTS:
            if self.fabric is not None:
                self.fabric.on_qp_rts(self)
        elif target is QpState.RESET:
            self.send_queue.clear()
            self.recv_queue.clear()
            self.sender = None
            self.receiver = None
            self._unbind_from_fabric()
        elif target is QpState.ERR and previous is not QpState.ERR:
            self._flush_queues()

    def _bind_to_fabric(self) -> None:
        # on a port not attached anywhere the QP still transitions; it
        # just has no wire until an attach happens
        endpoint = self.context._attachments.get(self.attrs.port_num)
        if endpoint is not None:
            endpoint.fabric.bind_qp(self, endpoint)

    def _unbind_from_fabric(self) -> None:
        if self._endpoint is not None:
            self._endpoint.fabric.unbind_qp(self)
            self._endpoint = None

    def _flush_queues(self) -> None:
        """Error out every posted-but-unprocessed WQE."""
        # a modify on any thread flushes: a mover polling sockets for a
        # wait on these CQs would not see it
        self.context._progress().wake()
        while self.recv_queue:
            wqe = self.recv_queue.popleft()
            self.recv_cq._push(CompletionEntry(
                wqe.wr_id, WcStatus.WR_FLUSHED, WcOpcode.RECV))
        while self.send_queue:
            wqe = self.send_queue.popleft()
            self.send_cq._push(CompletionEntry(
                wqe.wr_id, WcStatus.WR_FLUSHED, WcOpcode.SEND))
        if self.sender is not None:
            self.sender.unacked.clear()

    def enter_error(self) -> None:
        """Fabric-side failure path: drop to ERR and flush."""
        with self.context.lock:
            if self.state is QpState.ERR:
                return
            self.state = QpState.ERR
            self._flush_queues()

    # -- posting -------------------------------------------------------

    def _resolve_sges(self, sges, max_sge, index):
        if len(sges) > max_sge:
            raise BadWorkRequestError(index, f"{len(sges)} SGEs exceeds cap")
        slots = []
        for sge in sges:
            if sge.length <= 0:
                raise BadWorkRequestError(index, "SGE length must be positive")
            mr = self.context._mr_by_lkey.get(sge.lkey)
            if mr is None or not mr.pinned:
                raise BadWorkRequestError(index, f"unknown lkey {sge.lkey}")
            if mr.pd is not self.pd:
                raise BadWorkRequestError(
                    index, "lkey belongs to a different protection domain")
            if not mr.contains(sge.addr, sge.length):
                raise BadWorkRequestError(index, "SGE outside MR bounds")
            slots.append((mr, sge.addr, sge.length))
        return slots

    def post_recv(self, wr: ReceiveWorkRequest) -> None:
        """Enqueue a chain of receive WQEs; receives are legal from INIT on.

        Validation stops at the first bad element; earlier elements stay
        posted, and the raised error carries the failing chain index.
        """
        with self.context.lock:
            if self.state not in (QpState.INIT, QpState.RTR, QpState.RTS):
                raise VerbsError(
                    f"cannot post receives while {self.state.name}")
            if self.recv_cq.state is CqState.ERROR:
                raise CompletionQueueError("recv CQ is in the error state")
            index = 0
            node = wr
            while node is not None:
                if len(self.recv_queue) >= self.caps.max_recv_wr:
                    raise BadWorkRequestError(index, "receive queue full")
                slots = self._resolve_sges(
                    node.sg_list, self.caps.max_recv_sge, index)
                self.recv_queue.append(PostedRecv(node.wr_id, slots))
                node = node.next
                index += 1

    def post_send(self, wr: SendWorkRequest) -> None:
        """Snapshot payloads and hand them to the fabric; RTS only."""
        with self.context.lock:
            if self.state is not QpState.RTS:
                raise VerbsError(f"cannot post sends while {self.state.name}")
            if self.send_cq.state is CqState.ERROR:
                raise CompletionQueueError("send CQ is in the error state")
            if self._endpoint is None:
                raise VerbsError("QP port is not attached to a fabric")
            index = 0
            node = wr
            while node is not None:
                if node.opcode is not SendOpcode.SEND:
                    raise BadWorkRequestError(
                        index, f"unsupported opcode {node.opcode!r}")
                if len(self.send_queue) >= self.caps.max_send_wr:
                    raise BadWorkRequestError(index, "send queue full")
                slots = self._resolve_sges(
                    node.sg_list, self.caps.max_send_sge, index)
                payload = b"".join(mr.read(addr, length)
                                   for mr, addr, length in slots)
                wqe = PostedSend(node.wr_id,
                                 bool(node.flags & SendFlags.SIGNALED))
                self.send_queue.append(wqe)
                self.fabric.transmit_message(self, payload, wqe=wqe)
                node = node.next
                index += 1

    def complete_send(self, wqe: PostedSend) -> None:
        """Called by the fabric when the last frame of a send is acked.

        RC completes sends in post order, so the WQE is the queue's head.
        Only a signaled send reports its success with a CQE.
        """
        head = self.send_queue.popleft()
        assert head is wqe, "RC send completed out of order"
        if wqe.signaled:
            self.send_cq._push(CompletionEntry(
                wqe.wr_id, WcStatus.SUCCESS, WcOpcode.SEND))

    def destroy(self) -> None:
        with self.context.lock:
            self._unbind_from_fabric()
            self.pd._qps.remove(self)
            self.send_cq._qps.discard(self)
            self.recv_cq._qps.discard(self)


def attrs_state(attrs) -> QpState:
    state = getattr(attrs, "state", None)
    if not isinstance(state, QpState):
        raise VerbsError("STATE masked but attrs carry no target state")
    return state


class ModifyAttributes(QpAttributes):
    """QpAttributes plus the requested state, for modify calls."""

    def __init__(self, state: QpState | None = None, **kwargs):
        super().__init__(**kwargs)
        self.state = state

"""Software-emulated verbs resource model.

Devices, contexts, protection domains, memory regions, completion queues
and channels, and queue pairs with the RESET/INIT/RTR/RTS/ERR state
machine. Everything lives in ordinary Python objects; "hardware" behavior
(frame delivery, acks, retries) is provided by a fabric the context's
port is attached to. The fabric tells a QP when a work request is done
(``complete_send``, ``complete_recv``); every CQE is built here. The
other way, this module calls into the fabric for three things only: a
QP's state change (``on_qp_state``, once ``modify`` has checked the
transition and applied its attributes; it is the one path from a state
change to the engine), a send (``transmit_message``), and a context's
``close``, which detaches its ports; the blocking waits go through the
fabric's ``Progress``.

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

from .wire import PSN_MASK, QPN_MASK

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
# what a modify without a state change may set on an RTS QP: the
# optional attributes of the RTS->RTS transition in ibv_modify_qp(3) that
# this emulation models. The rest (the timeout above all, which the
# engine reads once, on entry to RTS) are fixed while the QP stays in RTS
RTS_MODIFIABLE = AttrMask.ACCESS_FLAGS | AttrMask.MIN_RNR_TIMER

# the masks above as plain ints, which ``modify`` tests: an ``&`` on an
# IntFlag is a Python-level call (about 1 us), on ints about 20 ns
_STATE = int(AttrMask.STATE)
_AV = int(AttrMask.AV)
_MASK_ALL = int(MASK_ALL)
_RTS_MODIFIABLE = int(RTS_MODIFIABLE)

# One row per attribute a modify mask carries but STATE (which picks the
# transition) and AV (a whole AddressHandle, copied, and checked on its
# GID): its bit as an int, its QpAttributes field, the values
# ibv_modify_qp(3) allows it, and the error any other value raises. The
# values are 0..n for an int n (compared: ``in range`` would scan an int
# subclass element by element), the members of a tuple, the modifying
# context's ports for _CONTEXT_PORTS, or any for None. ``modify`` checks
# the rows in this order
_CONTEXT_PORTS = object()
_MASKABLE = (
    (int(AttrMask.PORT), "port_num", _CONTEXT_PORTS, "no such port {}"),
    (int(AttrMask.PATH_MTU), "path_mtu", VALID_MTUS, "invalid path mtu {}"),
    (int(AttrMask.ACCESS_FLAGS), "qp_access_flags", int(ACCESS_ALL),
     "undefined qp access flag bits"),
    (int(AttrMask.DEST_QPN), "dest_qp_num", QPN_MASK,
     "dest qpn out of 24-bit range"),
    (int(AttrMask.RQ_PSN), "rq_psn", PSN_MASK, "rq psn out of 24-bit range"),
    (int(AttrMask.SQ_PSN), "sq_psn", PSN_MASK, "sq psn out of 24-bit range"),
    (int(AttrMask.RETRY_CNT), "retry_cnt", 7, "retry_cnt must fit in 3 bits"),
    (int(AttrMask.RNR_RETRY), "rnr_retry", 7, "rnr_retry must fit in 3 bits"),
    (int(AttrMask.MIN_RNR_TIMER), "min_rnr_timer", 31,
     "min_rnr_timer must be a 5-bit code"),
    (int(AttrMask.TIMEOUT), "timeout", 31, "timeout must be a 5-bit code"),
    (int(AttrMask.PKEY_INDEX), "pkey_index", None, None),
    (int(AttrMask.MAX_DEST_RD_ATOMIC), "max_dest_rd_atomic", None, None),
    (int(AttrMask.MAX_QP_RD_ATOMIC), "max_rd_atomic", None, None),
)


class QpState(Enum):
    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"
    RTS = "RTS"
    ERR = "ERR"


# the states as module constants, for the paths that run per post, poll
# and completion: reading a member off an Enum class costs several times
# a global read (113-150 against 8-15 ns on CPython 3.11)
_RESET, _INIT, _RTR, _RTS, _ERR = (QpState.RESET, QpState.INIT, QpState.RTR,
                                   QpState.RTS, QpState.ERR)
# the states that take receives
_POSTABLE = (_INIT, _RTR, _RTS)

# target state -> (legal source states, mask bits the modify must carry)
TRANSITION_TABLE = {
    _INIT: ({_RESET}, int(INIT_REQUIRED)),
    _RTR: ({_INIT}, int(RTR_REQUIRED)),
    _RTS: ({_RTR}, int(RTS_REQUIRED)),
    _ERR: (set(QpState), _STATE),
    _RESET: (set(QpState), _STATE),
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


# the signaled bit as a plain int: ``flags & SendFlags.SIGNALED`` goes
# through Flag.__and__, a Python-level call, on every post
_SIGNALED = int(SendFlags.SIGNALED)
# the members the per-post, per-poll and per-completion paths read, as
# module constants (see ``_RESET``)
_CQ_OK, _CQ_ERROR = CqState.OK, CqState.ERROR
_SUCCESS, _FLUSHED = WcStatus.SUCCESS, WcStatus.WR_FLUSHED
_PROTECTION_ERROR = WcStatus.LOCAL_PROTECTION_ERROR
_WC_SEND, _WC_RECV = WcOpcode.SEND, WcOpcode.RECV
_OP_SEND = SendOpcode.SEND


class CompletionEntry(NamedTuple):
    """One work completion (CQE); a tuple, so cheap per completion."""

    wr_id: int
    status: WcStatus
    opcode: WcOpcode
    byte_len: int = 0


# builds a CompletionEntry from all its fields, without the Python
# ``__new__`` that NamedTuple generates; every CQE the QP pushes uses it
_new = tuple.__new__


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

    def __init__(self, wr_id: int, slots: list[tuple["MemoryRegion", int, int]],
                 capacity: int):
        self.wr_id = wr_id
        self.slots = slots
        self.capacity = capacity

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
            return _record(DeviceContext(self, device))


class Progress:
    """How the blocking verbs waits get their events. This base waits on
    the condition alone: the fabric moves by itself, or its driver pumps
    it. A fabric that moves only while someone waits (SocketFabric)
    overrides both methods."""

    def wait_until(self, cond, ready, timeout) -> bool:
        """Block on ``cond`` until ``ready()`` holds or ``timeout`` seconds
        pass; True if it holds. A zero timeout only looks: ``wait_for``
        would wait on ``cond`` once even then."""
        with cond:
            return ready() if timeout == 0 else cond.wait_for(ready, timeout)

    def wake(self) -> None:
        """CQEs or a channel event come from outside the fabric (a flush
        or a destroyed channel, on any thread), or a timer was armed
        (``Fabric.schedule_at``): cut short a wait that would miss them.
        The fabric's own CQEs need no wake."""


_UNATTACHED = Progress()  # for a context with no port attached


# One rule for a verbs object's life, after pp_close_ctx in rc_pingpong
# and the ibv_* man pages: an object others are made on or bound to
# (context, PD, CQ, channel) keeps the live objects that use it in
# ``_users``, and refuses its release while that set is non-empty; an
# object made on a released one is refused; a released object has
# ``released`` set, and a second release does nothing. Every object is
# made through ``_record`` and released through ``_release``.

def _record(obj, *owners):
    """Record ``obj`` in each object it uses, and return it. A released
    owner refuses it with that owner's ``_GONE`` message; call this
    before the new object takes a handle, lkey or QPN."""
    for owner in owners:
        if owner.released:
            raise VerbsError(owner._GONE)
    for owner in owners:
        owner._users.add(obj)
    obj._owners = owners
    return obj


def _release(obj, busy: str | None = None) -> bool:
    """Release ``obj`` and drop it from each object it used; False, and
    nothing done, if it is released already. Given ``busy``, an object
    still used by another refuses with that message."""
    if obj.released:
        return False
    if busy is not None and obj._users:
        raise VerbsError(busy)
    obj.released = True
    for owner in obj._owners:
        owner._users.discard(obj)
    return True


class DeviceContext:
    """An open handle on a device, which its PDs, CQs and channels are
    made on; ``close`` refuses while any is live (``ibv_close_device(3)``
    leaves that to the caller), and a closed context takes no new one."""

    _GONE = "context is closed"

    def __init__(self, registry: DeviceRegistry, device: Device):
        self.registry = registry
        self.lock = registry.lock  # the world lock
        self.device = device
        self.released = False
        self._users: set = set()
        self.ports = range(1, device.num_ports + 1)
        self._mr_by_lkey: dict[int, MemoryRegion] = {}
        # port -> fabric endpoint: a port's one record of its LID and state
        self._attachments: dict[int, object] = {}
        self._next_pd_handle = 1
        self._next_lkey = 1
        self._next_qpn = QPN_FIRST
        self._next_addr = 0x100000

    @property
    def open(self) -> bool:
        return not self.released

    def _check_open(self):
        if self.released:
            raise VerbsError(self._GONE)

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
            pd = _record(ProtectionDomain(self, self._next_pd_handle), self)
            self._next_pd_handle += 1
            return pd

    def create_channel(self) -> "CompletionChannel":
        with self.lock:
            return _record(CompletionChannel(self), self)

    def create_cq(self, capacity: int, user_context=None,
                  channel: Optional["CompletionChannel"] = None,
                  comp_vector: int = 0) -> "CompletionQueue":
        with self.lock:
            if capacity < 1:
                raise VerbsError(f"cq capacity must be >= 1, got {capacity}")
            if comp_vector != 0:
                raise VerbsError("only completion vector 0 is supported")
            if channel is not None and channel.context is not self:
                raise VerbsError("channel belongs to a different context")
            cq = CompletionQueue(self, capacity, user_context, channel)
            return _record(cq, self, *(() if channel is None else (channel,)))

    def query_port(self, port: int) -> PortAttributes:
        """An attached port is ACTIVE, with the LID its attachment holds;
        any other is DOWN, with LID 0."""
        with self.lock:
            self._check_open()
            if port not in self.ports:
                raise VerbsError(f"no such port {port}")
            endpoint = self._attachments.get(port)
            if endpoint is None:
                return PortAttributes()
            return PortAttributes(lid=endpoint.lid, state=PortState.ACTIVE)

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
            if _release(self, "context still has live child resources"):
                for endpoint in list(self._attachments.values()):
                    endpoint.fabric.detach(self, endpoint.port)


class ProtectionDomain:
    """Made on a context; its MRs and QPs are made on it, and ``dealloc``
    (``ibv_dealloc_pd``) refuses while any is live."""

    _GONE = "protection domain is deallocated"

    def __init__(self, context: DeviceContext, handle: int):
        self.context = context
        self.handle = handle
        self.released = False
        self._users: set = set()

    def reg_mr(self, buf: Buffer, length: int,
               access: AccessFlags | int) -> "MemoryRegion":
        with self.context.lock:
            if length <= 0:
                raise VerbsError(f"mr length must be positive, got {length}")
            if length > len(buf):
                raise VerbsError("mr length exceeds the backing buffer")
            if int(access) & ~int(ACCESS_ALL):
                raise VerbsError(f"undefined access bits in {int(access):#x}")
            lkey = self.context._next_lkey
            mr = _record(MemoryRegion(self, buf, buf.base, length, lkey), self)
            self.context._next_lkey += 1
            self.context._mr_by_lkey[lkey] = mr
            return mr

    def create_qp(self, send_cq: "CompletionQueue", recv_cq: "CompletionQueue",
                  caps: QueueCaps, qp_type: QpType = QpType.RC) -> "QueuePair":
        with self.context.lock:
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
            qp = _record(QueuePair(self, qpn, send_cq, recv_cq,
                                   copy.copy(caps)), self, send_cq, recv_cq)
            self.context._next_qpn = (qpn + 1) & QPN_MASK
            return qp

    def dealloc(self) -> None:
        with self.context.lock:
            _release(self, "protection domain still has live children")


class MemoryRegion:
    def __init__(self, pd: ProtectionDomain, buf: Buffer, base: int,
                 length: int, lkey: int):
        self.pd = pd
        self.buffer = buf
        self.base = base
        self.length = length
        self.lkey = lkey
        self.released = False

    @property
    def pinned(self) -> bool:
        return not self.released

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
            if _release(self):
                del self.pd.context._mr_by_lkey[self.lkey]


class CompletionChannel:
    """Event-mode delivery: armed CQs land here when a CQE arrives. Made
    on a context; CQs are bound to it, and ``destroy``
    (``ibv_destroy_comp_channel``) refuses while any is live."""

    _GONE = "channel is destroyed"

    def __init__(self, context: DeviceContext):
        self.context = context
        self.pending: deque[CompletionQueue] = deque()
        self.released = False
        self._users: set = set()
        self._cond = threading.Condition(context.lock)

    def _deliver(self, cq: "CompletionQueue") -> None:
        self.pending.append(cq)
        self._cond.notify_all()

    def wait_for_event(self, timeout: float | None = None) -> bool:
        """Block until a CQ notification is pending or the channel is
        destroyed, without taking the notification; True if either holds
        before ``timeout`` seconds pass."""
        return self.context._progress().wait_until(
            self._cond, lambda: bool(self.pending) or self.released, timeout)

    def get_event(self, timeout: float | None = None) -> Optional["CompletionQueue"]:
        """Block until a CQ notification is available and return that CQ.

        Returns None on timeout (when one is given); raises if the channel
        is destroyed while waiting.
        """
        while self.wait_for_event(timeout):
            with self._cond:
                if self.pending:
                    cq = self.pending.popleft()
                    cq.unacked_events += 1
                    return cq
                if self.released:
                    raise VerbsError(self._GONE)
        return None

    def destroy(self) -> None:
        with self._cond:
            _release(self, "channel still referenced by a CQ")
            self._cond.notify_all()
            self.context._progress().wake()


class CompletionQueue:
    """Made on a context and bound to its channel, if it has one; QPs are
    bound to it, and ``destroy`` refuses while any is live."""

    _GONE = "CQ is destroyed"

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
        self.released = False
        self._users: set = set()
        # notified on every CQE queued and every ack, as a channel's is
        self._cond = threading.Condition(context.lock)

    def _push(self, entry: CompletionEntry) -> None:
        """Insert a CQE and notify the CQ's condition, as a channel does
        on every delivery; overflowing latches the error state and drops
        the entry. An overflow wakes no one: the CQ is full, so the push
        that made it non-empty woke every waiter already, and a waiter's
        wait ends on any entry."""
        with self.context.lock:
            if self.state is _CQ_ERROR:
                return
            if len(self.entries) >= self.capacity:
                self.state = _CQ_ERROR
                return
            self.entries.append(entry)
            self._cond.notify_all()
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
        if not self.entries and self.state is _CQ_OK:
            return []
        with self.context.lock:
            if self.state is _CQ_ERROR:
                raise CompletionQueueError("poll on a CQ in the error state")
            out = []
            while self.entries and len(out) < max_entries:
                out.append(self.entries.popleft())
            return out

    def wait_for_completion(self, timeout: float | None = None) -> bool:
        """Park the caller until an entry (or the error latch) appears;
        True if one does before ``timeout`` seconds pass.

        Purely a convenience for poll loops; poll() itself never blocks.
        It sleeps on the CQ's condition, which ``_push`` notifies on
        every entry it queues.
        """
        return self.context._progress().wait_until(
            self._cond, lambda: bool(self.entries) or self.state is _CQ_ERROR,
            timeout)

    def req_notify(self) -> None:
        """Arm a one-shot event: the next CQE pushes this CQ to its channel."""
        with self.context.lock:
            if self.channel is None:
                raise VerbsError("CQ has no completion channel")
            self.notify_armed = True

    def ack_events(self, n: int) -> None:
        with self._cond:
            if n < 0 or n > self.unacked_events:
                raise VerbsError(
                    f"acking {n} events with {self.unacked_events} outstanding")
            self.unacked_events -= n
            self._cond.notify_all()

    def destroy(self) -> None:
        """Release the CQ, as ``ibv_destroy_cq(3)`` does: refused while a
        QP is bound to it, else it waits until every event taken from its
        channel has been acked, and then unbinds from its context and
        channel. A second destroy does nothing."""
        with self._cond:
            # a CQ a QP is bound to skips the wait, and the release refuses
            while self.unacked_events > 0 and not self._users:
                self._cond.wait()
            _release(self, "CQ still attached to a queue pair")


class QueuePair:
    """A reliable-connection queue pair plus its emulated HCA state."""

    def __init__(self, pd: ProtectionDomain, qpn: int,
                 send_cq: CompletionQueue, recv_cq: CompletionQueue,
                 caps: QueueCaps):
        self.pd = pd
        self.context = pd.context
        self.qpn = qpn
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.caps = caps
        self.state = QpState.RESET
        self.attrs = QpAttributes()
        self.send_queue: deque[PostedSend] = deque()
        self.recv_queue: deque[PostedRecv] = deque()
        # engine-owned reliable-connection state, set and dropped by the
        # fabric only (``on_qp_state``): a sender while in RTS on an
        # attached port, a receiver while bound to one (from RTR)
        self.sender = None
        self.receiver = None
        self._endpoint = None
        self.released = False

    # -- state machine -------------------------------------------------

    def modify(self, attrs: QpAttributes, mask: AttrMask | int) -> None:
        """Apply exactly the masked attribute fields, with state rules.

        A STATE change happens only when the transition is legal and the
        mask carries at least the field set its setup requires:
        INIT wants {STATE, PKEY_INDEX, PORT, ACCESS_FLAGS}; RTR wants
        {STATE, AV, PATH_MTU, DEST_QPN, RQ_PSN, MAX_DEST_RD_ATOMIC,
        MIN_RNR_TIMER}; RTS wants {STATE, TIMEOUT, RETRY_CNT, RNR_RETRY,
        SQ_PSN, MAX_QP_RD_ATOMIC}. Without a state change, an RTS QP takes
        only ``RTS_MODIFIABLE``. Failure leaves the QP untouched.
        """
        mask = int(mask)
        if mask & ~_MASK_ALL:
            raise VerbsError(f"undefined attr-mask bits in {mask:#x}")
        with self.context.lock:
            # RESET alone cannot say so: it is where every walk starts
            if self.released:
                raise VerbsError("queue pair is destroyed")
            target = None
            if mask & _STATE:
                target = getattr(attrs, "state", None)
                if not isinstance(target, QpState):
                    raise VerbsError(
                        "STATE masked but attrs carry no target state")
                sources, required = TRANSITION_TABLE[target]
                if self.state not in sources:
                    raise VerbsError(
                        f"illegal transition {self.state.name} -> {target.name}")
                if (mask & required) != required:
                    missing = AttrMask(required & ~mask)
                    raise VerbsError(
                        f"mask missing {missing!r} for -> {target.name}")
            elif self.state is _RTS and mask & ~_RTS_MODIFIABLE:
                fixed = AttrMask(mask & ~_RTS_MODIFIABLE)
                raise VerbsError(f"{fixed!r} cannot change while in RTS")
            self._validate_masked(attrs, mask)
            self._apply_masked(attrs, mask)
            if target is not None:
                self._enter_state(target)

    def _validate_masked(self, attrs: QpAttributes, mask: int) -> None:
        for bit, name, valid, error in _MASKABLE:
            if mask & bit and valid is not None:
                value = getattr(attrs, name)
                if valid is _CONTEXT_PORTS:
                    valid = self.context.ports
                if not (0 <= value <= valid if valid.__class__ is int
                        else value in valid):
                    raise VerbsError(error.format(value))
        if mask & _AV and len(attrs.ah.dgid) != 16:
            raise VerbsError("gid must be 16 bytes")
        if mask & _AV and not 0 <= attrs.ah.sl <= 15:  # the LRH's 4-bit SL
            raise VerbsError("sl must fit in 4 bits")

    def _apply_masked(self, attrs: QpAttributes, mask: int) -> None:
        for bit, name, _, _ in _MASKABLE:
            if mask & bit:
                setattr(self.attrs, name, getattr(attrs, name))
        if mask & _AV:
            self.attrs.ah = copy.copy(attrs.ah)

    def _enter_state(self, target: QpState) -> None:
        """Enter ``target``: RESET drops both queues and the first ERR
        flushes them; then the fabric of the QP's bound endpoint, or else
        of its port's attachment, follows the QP into its new state
        (``on_qp_state``). On a port attached nowhere the QP still
        transitions; it just has no wire until an attach happens."""
        previous, self.state = self.state, target
        if target is _RESET:
            self.send_queue.clear()
            self.recv_queue.clear()
        elif target is _ERR and previous is not _ERR:
            self._flush_queues()
        endpoint = self._endpoint or \
            self.context._attachments.get(self.attrs.port_num)
        if endpoint is not None:
            endpoint.fabric.on_qp_state(self, endpoint)

    def _flush_queues(self) -> None:
        """Error out every posted-but-unprocessed WQE."""
        # a modify on any thread flushes: a mover polling sockets for a
        # wait on these CQs would not see it
        self.context._progress().wake()
        while self.recv_queue:
            wqe = self.recv_queue.popleft()
            self.recv_cq._push(_new(CompletionEntry, (
                wqe.wr_id, _FLUSHED, _WC_RECV, 0)))
        while self.send_queue:
            wqe = self.send_queue.popleft()
            self.send_cq._push(_new(CompletionEntry, (
                wqe.wr_id, _FLUSHED, _WC_SEND, 0)))

    def enter_error(self) -> None:
        """Fabric-side failure path: drop to ERR and flush."""
        with self.context.lock:
            self._enter_state(_ERR)

    # -- posting -------------------------------------------------------

    def _resolve_sges(self, sges, max_sge, index):
        if len(sges) > max_sge:
            raise BadWorkRequestError(index, f"{len(sges)} SGEs exceeds cap")
        slots = []
        for sge in sges:
            if sge.length <= 0:
                raise BadWorkRequestError(index, "SGE length must be positive")
            mr = self.context._mr_by_lkey.get(sge.lkey)
            if mr is None:
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
        posted, and the raised error carries the failing chain index,
        which is also the number of elements posted. An element whose
        scatter list equals the previous one's by value shares its
        resolved slots: nothing the resolution checks can change while
        the lock is held.
        """
        with self.context.lock:
            if self.state not in _POSTABLE:
                raise VerbsError(
                    f"cannot post receives while {self.state.name}")
            if self.recv_cq.state is _CQ_ERROR:
                raise CompletionQueueError("recv CQ is in the error state")
            room = self.caps.max_recv_wr - len(self.recv_queue)
            sges = slots = None
            index = 0
            node = wr
            while node is not None:
                if index >= room:
                    raise BadWorkRequestError(index, "receive queue full")
                if slots is None or node.sg_list != sges:
                    sges = node.sg_list
                    slots = self._resolve_sges(
                        sges, self.caps.max_recv_sge, index)
                    capacity = sum(length for _, _, length in slots)
                self.recv_queue.append(PostedRecv(node.wr_id, slots, capacity))
                node = node.next
                index += 1

    def post_send(self, wr: SendWorkRequest) -> None:
        """Snapshot payloads and hand them to the fabric; RTS only.

        Validation stops at the first bad element, whose chain index the
        raised ``BadWorkRequestError`` carries; earlier elements are
        posted and sent.
        """
        with self.context.lock:
            if self.state is not _RTS:
                raise VerbsError(f"cannot post sends while {self.state.name}")
            if self.send_cq.state is _CQ_ERROR:
                raise CompletionQueueError("send CQ is in the error state")
            if self._endpoint is None:
                raise VerbsError("QP port is not attached to a fabric")
            index = 0
            node = wr
            while node is not None:
                if node.opcode is not _OP_SEND:
                    raise BadWorkRequestError(
                        index, f"unsupported opcode {node.opcode!r}")
                if len(self.send_queue) >= self.caps.max_send_wr:
                    raise BadWorkRequestError(index, "send queue full")
                slots = self._resolve_sges(
                    node.sg_list, self.caps.max_send_sge, index)
                # one SGE's bytes come back from join as they are
                payload = b"".join([mr.read(addr, length)
                                    for mr, addr, length in slots])
                self.send_queue.append(PostedSend(
                    node.wr_id, (int(node.flags) & _SIGNALED) != 0))
                self._endpoint.fabric.transmit_message(self, payload)
                node = node.next
                index += 1

    def complete_send(self, status: WcStatus = _SUCCESS) -> None:
        """Called by the fabric when the last frame of the oldest send is
        acked, or when that send fails.

        RC completes sends in post order, so the send is the queue's head.
        Only a signaled send reports its success with a CQE; a failure
        completes even an unsignaled send, and throws the QP into ERR.
        """
        wqe = self.send_queue.popleft()
        failed = status is not _SUCCESS
        if wqe.signaled or failed:
            self.send_cq._push(_new(CompletionEntry,
                                    (wqe.wr_id, status, _WC_SEND, 0)))
        if failed:
            self.enter_error()

    def complete_recv(self, message: bytes) -> None:
        """Called by the fabric when the last frame of a message arrives:
        the head receive takes it. A message longer than that receive
        fails it with a protection error and throws the QP into ERR."""
        wqe = self.recv_queue.popleft()
        if len(message) > wqe.capacity:
            self.recv_cq._push(_new(CompletionEntry, (
                wqe.wr_id, _PROTECTION_ERROR, _WC_RECV, len(message))))
            self.enter_error()
            return
        wqe.scatter(message)
        self.recv_cq._push(_new(CompletionEntry, (
            wqe.wr_id, _SUCCESS, _WC_RECV, len(message))))

    def destroy(self) -> None:
        """Release the QP in any state, as ``ibv_destroy_qp(3)`` does: its
        PD and CQs forget it, and it enters RESET, which completes
        nothing. A destroyed QP takes no modify; a second destroy does
        nothing."""
        with self.context.lock:
            if _release(self):
                self._enter_state(_RESET)


class ModifyAttributes(QpAttributes):
    """QpAttributes plus the requested state, for modify calls."""

    def __init__(self, state: QpState | None = None, **kwargs):
        super().__init__(**kwargs)
        self.state = state

"""Outside-in span recorder for the traced benchmark run.

The program is not changed. While a ``Recorder`` is installed, the entry
points of each softverbs module are replaced, at the names the program
looks up when it makes the call, by wrappers that record one span per
call: the layer name, start and end on ``time.perf_counter``, and the
index of the enclosing span on the same thread. Span stacks and buffers
are thread-local, because the loopback pacer and the socket reader,
writer and ticker threads call into the engine too. Spans stay in memory
until ``write`` puts them in one file at the end of the run.

A few wrappers also count outcomes at the same boundary (frames by kind,
empty polls, in-order DATA, timeout ticks that retransmitted) and pair
socket encodes with the matching decode on the reader thread.
"""

from __future__ import annotations

import gzip
import threading
from array import array
from collections import Counter, defaultdict, deque
from time import perf_counter

from softverbs import fabric, pingpong, verbs, wire

# Spans whose time inside counts towards ``verbs.setup_ms``.
VERBS_SETUP_SPANS = (
    "verbs.open_device", "verbs.alloc_buffer", "verbs.alloc_pd",
    "verbs.reg_mr", "verbs.create_cq", "verbs.create_qp", "verbs.modify",
    "verbs.post_recv",
)


class _Buffer:
    """One thread's spans, as parallel arrays, plus its open-span stack."""

    __slots__ = ("thread", "names", "parents", "t0", "t1", "stack",
                 "counts", "generation")

    def __init__(self, thread: str, generation: int):
        self.thread = thread
        self.names = array("i")
        self.parents = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.generation = generation


class LayerStats:
    """Per-name call counts, total and self seconds, and outcome counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.handoffs: list[float] = []

    def add(self, other: "LayerStats") -> None:
        self.calls.update(other.calls)
        for name, value in other.total.items():
            self.total[name] += value
        for name, value in other.self_time.items():
            self.self_time[name] += value
        self.counts.update(other.counts)
        self.handoffs.extend(other.handoffs)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._generation = 0
        self._live: list[_Buffer] = []
        self._kept: list[tuple[str, _Buffer]] = []
        self._handoff_lock = threading.Lock()
        self._encoded: dict[tuple, deque] = defaultdict(deque)
        self._handoffs: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.generation != self._generation:
            buf = _Buffer(threading.current_thread().name, self._generation)
            with self._lock:
                self._live.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``before(buf, args)`` runs ahead of the call and its result is
        handed to ``after(buf, args, result, token)`` once the call
        returns; both feed the outcome counters.
        """
        nid = self._name_id(name)
        buffer = self._buffer

        def wrapper(*args, **kwargs):
            buf = buffer()
            idx = len(buf.t0)
            buf.names.append(nid)
            buf.parents.append(buf.stack[-1] if buf.stack else -1)
            buf.t1.append(0.0)
            buf.stack.append(idx)
            token = before(buf, args) if before is not None else None
            buf.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.t1[idx] = perf_counter()
                buf.stack.pop()
            if after is not None:
                after(buf, args, result, token)
            return result

        return wrapper

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Swap every traced entry point for its wrapper."""
        for owner, attr, name, before, after in self._targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, before, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _targets(self):
        V, F = verbs, fabric
        return [
            (V.DeviceRegistry, "open_device", "verbs.open_device", None, None),
            (V.DeviceContext, "alloc_buffer", "verbs.alloc_buffer", None, None),
            (V.DeviceContext, "alloc_pd", "verbs.alloc_pd", None, None),
            (V.DeviceContext, "create_cq", "verbs.create_cq", None, None),
            (V.ProtectionDomain, "reg_mr", "verbs.reg_mr", None, None),
            (V.ProtectionDomain, "create_qp", "verbs.create_qp", None, None),
            (V.QueuePair, "modify", "verbs.modify", None, None),
            (V.QueuePair, "post_send", "verbs.post_send", None, None),
            (V.QueuePair, "post_recv", "verbs.post_recv", None, None),
            (V.CompletionQueue, "poll", "verbs.poll", None, _after_poll),
            (V.CompletionQueue, "wait_for_completion",
             "verbs.wait_for_completion", None, None),
            (F.Fabric, "transmit_message", "rc.transmit", None, None),
            (F.Fabric, "on_data", "rc.on_data", _before_data, _after_data),
            (F.Fabric, "on_ack", "rc.on_ack", None, None),
            (F.Fabric, "on_rnr_nak", "rc.on_rnr_nak", None, None),
            (F.Fabric, "on_timeout_tick", "rc.timeout_tick",
             _before_tick, _after_tick),
            (F.LoopbackFabric, "_deliver", "loopback.deliver",
             _count_frame, None),
            (F.LoopbackFabric, "schedule_at", "loopback.schedule", None, None),
            # step() pumps the clock in the stepped loop, _drain() in the
            # live mode the threaded pingpong uses: one event-loop layer
            (F.LoopbackFabric, "step", "loopback.step", None, None),
            (F.LoopbackFabric, "_drain", "loopback.step", None, None),
            (F.SocketFabric, "_deliver", "socket.deliver", _count_frame, None),
            # the engine calls the codec through fabric's own bindings
            (F, "encode_frame", "wire.encode", None, self._after_encode),
            (F, "decode_frame", "wire.decode", self._before_decode, None),
            (pingpong, "run_loop", "pingpong.run_loop", None, None),
            (pingpong, "exchange_as_client", "oob.exchange", None, None),
            (pingpong, "exchange_as_server", "oob.exchange_server", None,
             None),
        ]

    # -- socket hand-off: encode on the sender, decode on the reader -----

    # Encoded frames are matched to decodes by their header bytes (kind,
    # segment, QPN, PSN, length); a retransmitted copy queues behind the
    # first, so pairs match oldest-first.

    def _after_encode(self, buf, args, result, token):
        with self._handoff_lock:
            self._encoded[bytes(result[:wire.HEADER_LEN])].append(
                perf_counter())

    def _before_decode(self, buf, args):
        now = perf_counter()
        with self._handoff_lock:
            sent = self._encoded.get(bytes(args[0][:wire.HEADER_LEN]))
            if sent:
                self._handoffs.append(now - sent.popleft())
        return None

    # -- reduction and output -------------------------------------------

    def collect(self) -> LayerStats:
        """Reduce the spans recorded since the last collect.

        Self time is a span's duration minus the durations of its direct
        children on the same thread. The raw spans are kept for ``write``.
        """
        with self._lock:
            live, self._live = self._live, []
            self._generation += 1
        with self._handoff_lock:
            handoffs, self._handoffs = self._handoffs, []
            self._encoded.clear()
        stats = LayerStats()
        stats.handoffs = handoffs
        for buf in live:
            n = len(buf.t1)
            child = [0.0] * n
            names, parents, t0, t1 = buf.names, buf.parents, buf.t0, buf.t1
            for i in range(n - 1, -1, -1):
                if t1[i] == 0.0:
                    continue  # still open: a thread outlived the phase
                dur = t1[i] - t0[i]
                name = self.names[names[i]]
                stats.calls[name] += 1
                stats.total[name] += dur
                stats.self_time[name] += dur - child[i]
                if parents[i] >= 0:
                    child[parents[i]] += dur
            stats.counts.update(buf.counts)
            self._kept.append((buf.thread, buf))
        return stats

    def write(self, path, origin: float) -> int:
        """Write every collected span once, as gzip'd tab-separated text."""
        rows = 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("thread\tspan\tparent\tname\tstart_us\tend_us\n")
            for tid, (thread, buf) in enumerate(self._kept):
                for i in range(len(buf.t1)):
                    if buf.t1[i] == 0.0:
                        continue
                    out.write(f"{tid}:{thread}\t{i}\t{buf.parents[i]}\t"
                              f"{self.names[buf.names[i]]}\t"
                              f"{(buf.t0[i] - origin) * 1e6:.3f}\t"
                              f"{(buf.t1[i] - origin) * 1e6:.3f}\n")
                    rows += 1
        return rows


def _after_poll(buf, args, result, token):
    if not result:
        buf.counts["verbs.poll.empty"] += 1


def _before_data(buf, args):
    receiver = args[1].receiver
    return receiver.expected_psn if receiver is not None else None


def _after_data(buf, args, result, expected_before):
    # on_data advances expected_psn exactly when it accepts the frame in
    # order; stale and future PSNs and RNR refusals leave it alone
    receiver = args[1].receiver
    if receiver is not None and expected_before is not None and \
            receiver.expected_psn != expected_before:
        buf.counts["rc.on_data.accepted"] += 1


def _before_tick(buf, args):
    return buf.counts["frames.DATA"]


def _after_tick(buf, args, result, data_before):
    if buf.counts["frames.DATA"] > data_before:
        buf.counts["rc.timeout_tick.useful"] += 1


def _count_frame(buf, args):
    buf.counts["frames." + args[3].kind.name] += 1
    return None

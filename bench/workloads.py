"""The benchmark's workloads: what runs, how it is checked, what it costs.

Every workload is cut into units. A unit builds a fresh world, moves a
fixed number of messages, checks every completion, and returns a
``Unit`` with its wall time, the frames it put on the wire and, on
loopback, its per-message latencies on the virtual clock
(``LoopbackFabric.now_ms``); socket units record none, because their
engine clock is the wall clock. Set-up is timed on its own, from an
empty ``DeviceRegistry`` to both queue pairs in RTS.

Two kinds of unit drive the program:

* the pingpong, through ``pingpong.run_loopback_pair`` or two
  ``pingpong.run_node`` roles over ``SocketFabric`` (one thread each);
* a single-threaded stepped loop over ``LoopbackFabric.step``, built
  here from the public verbs API, that keeps a window of sends in flight
  (or, with ``window=None``, posts every receive and send up front).
  Payloads come from the unit's seed, so a seed fixes every input.
"""

from __future__ import annotations

import math
import random
import socket
import threading
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Optional

from softverbs import pingpong
from softverbs.fabric import (
    FabricConfig,
    FabricConfigEntry,
    FaultProfile,
    LoopbackFabric,
    SocketFabric,
)
from softverbs.oob import Destination
from softverbs.verbs import (
    AccessFlags,
    AddressHandle,
    AttrMask,
    DeviceRegistry,
    ModifyAttributes,
    QpState,
    QpType,
    QueueCaps,
    ReceiveWorkRequest,
    ScatterGatherElement,
    SendWorkRequest,
    WcOpcode,
    WcStatus,
)
from softverbs.wire import FrameKind, SegMark

LOCALHOST = "127.0.0.1"
PAYLOAD_POOL = 8  # distinct payload bodies per unit; each message is unique
ROLE_JOIN_S = 120.0
_PORTS = iter(range(20000, 32768))  # below Linux's default ephemeral range

INIT_MASK = (AttrMask.STATE | AttrMask.PKEY_INDEX | AttrMask.PORT |
             AttrMask.ACCESS_FLAGS)
RTR_MASK = (AttrMask.STATE | AttrMask.AV | AttrMask.PATH_MTU |
            AttrMask.DEST_QPN | AttrMask.RQ_PSN |
            AttrMask.MAX_DEST_RD_ATOMIC | AttrMask.MIN_RNR_TIMER)
RTS_MASK = (AttrMask.STATE | AttrMask.TIMEOUT | AttrMask.RETRY_CNT |
            AttrMask.RNR_RETRY | AttrMask.SQ_PSN | AttrMask.MAX_QP_RD_ATOMIC)

MESSAGE_STARTS = (SegMark.ONLY, SegMark.FIRST)
ON_WIRE = ("sent", "dropped")  # trace statuses of frames handed to the wire


@dataclass
class Unit:
    """What one unit of a workload delivered, and what it cost."""

    seed: int
    iters: int  # round trips (pingpong units) or messages (stepped units)
    attempted: int  # messages, one per direction of a round trip
    payload_bytes: int
    min_frames: int  # DATA frames a lossless wire needs
    failed: int = 0
    wall_s: float = 0.0
    data_frames: int = 0
    engine_ms: float = 0.0  # virtual clock, first post to last completion
    latencies_ms: list = field(default_factory=list)
    trace_entries: int = 0
    error: Optional[str] = None

    def fail_all(self, exc: BaseException) -> "Unit":
        self.failed = self.attempted
        self.error = f"{type(exc).__name__}: {exc}"
        return self


def free_port() -> int:
    """The next port below the ephemeral range that nothing has bound.

    A port the kernel picks for a bind to port 0 lies in the ephemeral
    range, where any connect() can take it as its local port before the
    program binds it: socket set-ups then failed now and then with
    EADDRINUSE. Below that range only an explicit bind takes a port.
    Ports are handed out in turn, so the listener of a closed
    SocketFabric, which its blocked accept thread keeps bound, is never
    offered again.
    """
    for port in _PORTS:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
            try:
                s.bind((LOCALHOST, port))
            except OSError:
                continue
            return port
    raise OSError("no free port left below the ephemeral range")


def frames_per_message(size: int, mtu: int) -> int:
    return max(1, math.ceil(size / mtu))


# -- the stepped loop ------------------------------------------------------


@dataclass(frozen=True)
class StreamSpec:
    size: int
    mtu: int
    window: Optional[int]  # sends in flight; None posts everything at once
    messages: int
    drop: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0


@dataclass
class Side:
    """One end of a stepped connection: its verbs objects and LID."""

    lid: int
    buf: object
    mr: object
    cq: object
    qp: object

    def sges(self, slots: int, size: int) -> list:
        return [ScatterGatherElement(self.buf.base + i * size, size,
                                     self.mr.lkey) for i in range(slots)]


def _open_side(registry, fabric, buf_size, send_depth, recv_depth) -> Side:
    context = registry.open_device(registry.get_device_list()[0])
    lid = fabric.attach(context, 1)
    buf = context.alloc_buffer(buf_size)
    pd = context.alloc_pd()
    mr = pd.reg_mr(buf, buf_size, AccessFlags.LOCAL_WRITE)
    cq = context.create_cq(send_depth + recv_depth + 1)
    qp = pd.create_qp(cq, cq, QueueCaps(send_depth, recv_depth, 1, 1),
                      QpType.RC)
    qp.modify(ModifyAttributes(state=QpState.INIT, pkey_index=0, port_num=1,
                               qp_access_flags=AccessFlags(0)), INIT_MASK)
    return Side(lid, buf, mr, cq, qp)


def _to_rtr(side: Side, peer: Side, rq_psn: int, mtu: int) -> None:
    side.qp.modify(ModifyAttributes(
        state=QpState.RTR, path_mtu=mtu, dest_qp_num=peer.qp.qpn,
        rq_psn=rq_psn, max_dest_rd_atomic=1, min_rnr_timer=12,
        ah=AddressHandle(dlid=peer.lid, port_num=1)), RTR_MASK)


def _to_rts(side: Side, sq_psn: int) -> None:
    side.qp.modify(ModifyAttributes(
        state=QpState.RTS, timeout=14, retry_cnt=7, rnr_retry=7,
        sq_psn=sq_psn, max_rd_atomic=1), RTS_MASK)


def stream_depths(spec: StreamSpec) -> tuple[int, int]:
    """(sends in flight, receives posted); post-all mode posts them all."""
    if spec.window is None:
        return spec.messages, spec.messages
    return spec.window, 2 * spec.window


def setup_stream(spec: StreamSpec, psn_tx: int, psn_rx: int,
                 fault_seed: int):
    """From an empty registry to a sender and a receiver QP in RTS."""
    registry = DeviceRegistry()
    registry.add_device("hca0")
    fabric = LoopbackFabric(
        faults=FaultProfile(spec.drop, spec.dup, spec.reorder, fault_seed),
        registry=registry)
    sends, recvs = stream_depths(spec)
    tx = _open_side(registry, fabric, sends * spec.size, sends, 1)
    rx = _open_side(registry, fabric, recvs * spec.size, 1, recvs)
    _to_rtr(tx, rx, psn_rx, spec.mtu)
    _to_rtr(rx, tx, psn_tx, spec.mtu)
    _to_rts(tx, psn_tx)
    _to_rts(rx, psn_rx)
    return fabric, tx, rx


class StreamInputs:
    """A unit's generated inputs: PSNs, the fault seed and the payloads.

    The fault seed is the unit seed itself. Message ``i`` is the 8-byte
    big-endian index followed by the body of pool entry
    ``i % PAYLOAD_POOL``, so every message is distinct.
    """

    def __init__(self, spec: StreamSpec, seed: int):
        rng = random.Random(seed)
        self.bodies = [rng.randbytes(spec.size)[8:]
                       for _ in range(PAYLOAD_POOL)]
        self.psn_tx = rng.getrandbits(24)
        self.psn_rx = rng.getrandbits(24)
        self.fault_seed = seed


def run_stream(spec: StreamSpec, seed: int) -> Unit:
    """One stepped unit; every violation is counted, nothing raises."""
    n, size = spec.messages, spec.size
    unit = Unit(seed, iters=n, attempted=n, payload_bytes=n * size,
                min_frames=n * frames_per_message(size, spec.mtu))
    try:
        inputs = StreamInputs(spec, seed)
        fabric, tx, rx = setup_stream(spec, inputs.psn_tx, inputs.psn_rx,
                                      inputs.fault_seed)
        _drive_stream(spec, inputs, fabric, tx, rx, unit)
    except Exception as exc:  # a unit that raises fails all its messages
        return unit.fail_all(exc)
    unit.data_frames = sum(1 for e in fabric.trace
                           if e.frame.kind is FrameKind.DATA
                           and e.status in ON_WIRE)
    unit.trace_entries = len(fabric.trace)
    return unit


def _drive_stream(spec, inputs, fabric, tx, rx, unit) -> None:
    n, size = spec.messages, spec.size
    sends, recvs = stream_depths(spec)
    tx_sges, rx_sges = tx.sges(sends, size), rx.sges(recvs, size)
    bodies = inputs.bodies
    now, step = fabric.now_ms, fabric.step
    posted_at = [0.0] * n
    bad: set[int] = set()
    latencies = unit.latencies_ms

    def post_send(i: int) -> None:
        off = (i % sends) * size
        tx.buf.data[off:off + 8] = i.to_bytes(8, "big")
        tx.buf.data[off + 8:off + size] = bodies[i % PAYLOAD_POOL]
        posted_at[i] = now()
        tx.qp.post_send(SendWorkRequest(i, [tx_sges[i % sends]]))

    def delivered_intact(i: int) -> bool:
        off = (i % recvs) * size
        data = rx.buf.data
        return (data[off:off + 8] == i.to_bytes(8, "big") and
                data[off + 8:off + size] == bodies[i % PAYLOAD_POOL])

    for i in range(min(recvs, n)):
        rx.qp.post_recv(ReceiveWorkRequest(i, [rx_sges[i]]))
    recv_posted = min(recvs, n)
    start_wall = perf_counter()
    first = last = now()
    next_send = 0
    while next_send < min(sends, n):
        post_send(next_send)
        next_send += 1
    # completions must arrive once each, SUCCESS, in post order
    send_next = recv_next = 0
    while send_next < n or recv_next < n:
        if not step():
            break  # idle with work missing: counted below
        for wc in tx.cq.poll(sends):
            last = now()
            if wc.wr_id == send_next and wc.status is WcStatus.SUCCESS \
                    and wc.opcode is WcOpcode.SEND:
                send_next += 1
            else:
                bad.add(wc.wr_id)
            if next_send < n:
                post_send(next_send)
                next_send += 1
        for wc in rx.cq.poll(recvs):
            last = now()
            i = wc.wr_id
            if i == recv_next and wc.status is WcStatus.SUCCESS and \
                    wc.opcode is WcOpcode.RECV and wc.byte_len == size and \
                    delivered_intact(i):
                recv_next += 1
                latencies.append(last - posted_at[i])
            else:
                bad.add(i)
            if recv_posted < n:
                rx.qp.post_recv(ReceiveWorkRequest(
                    recv_posted, [rx_sges[recv_posted % recvs]]))
                recv_posted += 1
    unit.wall_s = perf_counter() - start_wall
    unit.engine_ms = last - first
    fabric.run_until_idle()  # let stale timers fire; nothing may complete
    for wc in tx.cq.poll(n + 1) + rx.cq.poll(n + 1):
        bad.add(wc.wr_id)
    bad.update(range(min(send_next, recv_next), n))
    unit.failed = len(bad)


# -- the pingpong --------------------------------------------------------------


@dataclass(frozen=True)
class PingSpec:
    size: int
    mtu: int
    iters: int


def _pingpong_unit(spec: PingSpec, seed: int) -> Unit:
    n = spec.iters
    return Unit(seed, iters=n, attempted=2 * n,
                payload_bytes=2 * n * spec.size,
                min_frames=2 * n * frames_per_message(spec.size, spec.mtu))


def _intact_messages(frames, size: int) -> int:
    """Messages of one direction that went on the wire whole and exact.

    ``frames`` are the DATA frames one role handed to the wire, in order. A repeated PSN is a retransmission of the frame
    first sent under it. A message counts if its segments run ONLY or
    FIRST, MIDDLE..., LAST, add up to ``size`` bytes, and every byte of
    every copy of them is the client's fill pattern, which each pingpong
    message carries.
    """
    owner: dict[int, int] = {}  # PSN -> index of the message it belongs to
    lengths: list[list[int]] = []  # segment lengths of each message
    whole: set[int] = set()  # messages that reached their ONLY or LAST
    bad: set[int] = set()
    open_message = False
    for frame in frames:
        psn, seg, payload = frame.psn, frame.seg, frame.payload
        exact = payload.count(pingpong.CLIENT_FILL) == len(payload)
        if psn not in owner:
            if seg in MESSAGE_STARTS or not open_message:
                lengths.append([])
                if seg not in MESSAGE_STARTS:  # its start never went out
                    bad.add(len(lengths) - 1)
            owner[psn] = len(lengths) - 1
            lengths[-1].append(len(payload))
            open_message = seg not in (SegMark.ONLY, SegMark.LAST)
            if not open_message:
                whole.add(len(lengths) - 1)
        if not exact:
            bad.add(owner[psn])
    return sum(1 for m in whole
               if m not in bad and sum(lengths[m]) == size)


def _pingpong_failures(server, client, iters: int, wire: dict) -> int:
    """Messages each direction lost, duplicated or left not byte-exact.

    ``run_loop`` already raises on a non-SUCCESS or unknown completion;
    here the counters must match, no CQE may be left over, every message
    must have gone on the wire whole and exact (``wire`` maps the sending
    role to its intact message count), and the receiver's buffer must
    still hold the fill pattern after the last message.
    """
    failed = 0
    for name, sender, receiver in (("client", client, server),
                                   ("server", server, client)):
        data = receiver.ctx.buf.data
        last_landed = data.count(pingpong.CLIENT_FILL) == len(data)
        done = min(sender.ctx.scnt, receiver.ctx.rcnt, wire[name],
                   iters - (not last_landed))
        failed += iters - done
        failed += len(receiver.ctx.cq.poll(iters + 1))
    return min(failed, 2 * iters)


def _round_trip_starts(frames) -> list[float]:
    """Engine times of the client's first transmission of each message.

    ``frames`` are ``(time, frame)`` for each DATA frame the client sent.

    The client posts message k+1 only once message k and the server's
    reply have both completed, so consecutive starts are one round trip.
    """
    starts, seen = [], set()
    for t, frame in frames:
        if frame.seg in MESSAGE_STARTS and frame.psn not in seen:
            seen.add(frame.psn)
            starts.append(t)
    return starts


def _round_trip_latencies(starts: list[float]) -> list[float]:
    return [b - a for a, b in zip(starts, starts[1:])]


def run_pingpong(spec: PingSpec, seed: int) -> Unit:
    """``run_loopback_pair``, the path the CLI takes, then its trace."""
    unit = _pingpong_unit(spec, seed)
    cfg = pingpong.PingpongConfig(oob_port=free_port(), size=spec.size,
                                  mtu=spec.mtu, iters=spec.iters)
    try:
        server, client, fabric = pingpong.run_loopback_pair(cfg, seed=seed)
    except Exception as exc:
        return unit.fail_all(exc)
    unit.wall_s = client.stats.elapsed
    lids = {client.my_dest.lid: "client", server.my_dest.lid: "server"}
    sent = {"client": [], "server": []}
    client_starts, last_ack = [], None
    for e in fabric.trace:
        if e.status not in ON_WIRE:
            continue
        if e.frame.kind is FrameKind.DATA:
            unit.data_frames += 1
            sent[lids[e.src_lid]].append(e.frame)
            if e.src_lid == client.my_dest.lid:
                client_starts.append((e.t, e.frame))
        elif e.frame.kind is FrameKind.ACK and e.status == "sent":
            last_ack = e.t
    unit.failed = _pingpong_failures(server, client, spec.iters, {
        role: _intact_messages(frames, spec.size)
        for role, frames in sent.items()})
    starts = _round_trip_starts(client_starts)
    if starts and last_ack is not None:
        # the last ACK completes the last send one hop later
        unit.engine_ms = last_ack + fabric.hop_latency_ms - starts[0]
    unit.latencies_ms = _round_trip_latencies(starts)
    unit.trace_entries = len(fabric.trace)
    return unit


class FrameTap:
    """A ``drop_filter`` that drops nothing and keeps the DATA frames.

    ``SocketFabric`` keeps no trace, so this is how the socket workload
    counts DATA frames and checks their payloads after the run.
    """

    def __init__(self):
        self.data: list = []

    def __call__(self, frame) -> bool:
        if frame.kind is FrameKind.DATA:
            self.data.append(frame)
        return False


def _socket_world(spec_size: int, mtu: int, iters: int):
    """Two registries, two SocketFabrics and the two role configs."""
    config = FabricConfig(entries=[
        FabricConfigEntry(1, LOCALHOST, free_port()),
        FabricConfigEntry(2, LOCALHOST, free_port()),
    ])
    base = pingpong.PingpongConfig(oob_port=free_port(), size=spec_size,
                                   mtu=mtu, iters=iters)
    worlds = {}
    for role, host in (("server", None), ("client", LOCALHOST)):
        registry = DeviceRegistry()
        registry.add_device("hca0")
        worlds[role] = (replace(base, server_host=host), registry,
                        SocketFabric(config, registry=registry))
    return worlds


def run_roles(target: Callable, worlds: dict, seed: int) -> dict:
    """Run ``target(cfg, registry, fabric, rng, oob_ready, abort)`` as the
    server and then the client role, one thread each; raise the first
    root-cause error."""
    rng = random.Random(seed)
    rngs = {role: random.Random(rng.getrandbits(64))
            for role in ("server", "client")}
    oob_ready, abort = threading.Event(), threading.Event()
    results, errors = {}, {}

    def run_role(role):
        cfg, registry, fabric = worlds[role]
        try:
            results[role] = target(cfg, registry, fabric, rngs[role],
                                   oob_ready if role == "server" else None,
                                   abort)
        except BaseException as exc:  # surfaced to the caller below
            errors[role] = exc
            abort.set()

    threads = {role: threading.Thread(target=run_role, args=(role,),
                                      name=f"bench-{role}")
               for role in ("server", "client")}
    threads["server"].start()
    if not oob_ready.wait(timeout=15.0):
        abort.set()
    threads["client"].start()
    for thread in threads.values():
        thread.join(timeout=ROLE_JOIN_S)
    if any(t.is_alive() for t in threads.values()):
        abort.set()
        for thread in threads.values():
            thread.join(timeout=5.0)
    if errors:
        primary = [e for e in errors.values()
                   if "aborted while" not in str(e)]
        raise (primary or list(errors.values()))[0]
    missing = [r for r in threads if r not in results]
    if missing:
        raise pingpong.PingpongError(f"{missing} never finished")
    return results


def _run_node(cfg, registry, fabric, rng, oob_ready, abort):
    return pingpong.run_node(cfg, registry, fabric, rng=rng,
                             oob_ready=oob_ready, abort=abort)


def run_socket(spec: PingSpec, seed: int) -> Unit:
    """Both roles through ``pingpong.run_node`` over 127.0.0.1 sockets.

    The engine clock of ``SocketFabric`` is the wall clock, so the unit
    records no engine times or latencies.
    """
    unit = _pingpong_unit(spec, seed)
    worlds = _socket_world(spec.size, spec.mtu, spec.iters)
    taps = {}
    for role, (_, _, fabric) in worlds.items():
        taps[role] = fabric.drop_filter = FrameTap()
    try:
        results = run_roles(_run_node, worlds, seed)
    except Exception as exc:
        return unit.fail_all(exc)
    finally:
        for _, _, fabric in worlds.values():
            fabric.close()
            # a closed SocketFabric outlives the unit (its accept thread
            # stays blocked); the frames the tap kept must not
            fabric.drop_filter = None
    unit.wall_s = results["client"].stats.elapsed
    unit.failed = _pingpong_failures(results["server"], results["client"],
                                     spec.iters, {
        role: _intact_messages(tap.data, spec.size)
        for role, tap in taps.items()})
    unit.data_frames = sum(len(tap.data) for tap in taps.values())
    return unit


# -- set-up alone ----------------------------------------------------------------


def _connect_node(cfg, registry, fabric, rng, oob_ready, abort):
    """``run_node`` up to RTS: init, attach, receives, exchange, connect."""
    ctx = pingpong.init_context(registry, cfg)
    fabric.attach(ctx.context, cfg.ib_port)
    ctx.routs = pingpong.post_receives(ctx, ctx.rx_depth)
    psn = rng.getrandbits(24)
    mine = Destination(lid=ctx.context.query_port(cfg.ib_port).lid,
                       qpn=ctx.qp.qpn, psn=psn)
    if cfg.is_server:
        theirs = pingpong.exchange_as_server(cfg.oob_port, mine,
                                             ready=oob_ready)
    else:
        theirs = pingpong.exchange_as_client(cfg.server_host, cfg.oob_port,
                                             mine)
    pingpong.connect_ctx(ctx, psn, theirs, cfg)
    return ctx


def time_pingpong_setup(spec: PingSpec, seed: int) -> float:
    start = perf_counter()
    registry = DeviceRegistry()
    registry.add_device("hca0")
    fabric = LoopbackFabric(registry=registry, auto_drain=True)
    base = pingpong.PingpongConfig(oob_port=free_port(), size=spec.size,
                                   mtu=spec.mtu, iters=spec.iters)
    worlds = {"server": (replace(base, server_host=None), registry, fabric),
              "client": (replace(base, server_host=LOCALHOST), registry,
                         fabric)}
    try:
        run_roles(_connect_node, worlds, seed)
        return perf_counter() - start
    finally:
        fabric.close()


def time_socket_setup(spec: PingSpec, seed: int) -> float:
    start = perf_counter()
    worlds = _socket_world(spec.size, spec.mtu, spec.iters)
    try:
        run_roles(_connect_node, worlds, seed)
        return perf_counter() - start
    finally:
        for _, _, fabric in worlds.values():
            fabric.close()


def time_stream_setup(spec: StreamSpec, seed: int) -> float:
    inputs = StreamInputs(spec, seed)
    start = perf_counter()
    setup_stream(spec, inputs.psn_tx, inputs.psn_rx, inputs.fault_seed)
    return perf_counter() - start

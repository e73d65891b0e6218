"""A run of DATA frames lands as its frames would one by one.

``Fabric.on_data(qp, *run)`` takes a run of consecutive DATA frames to
one QP in one call. Hypothesis draws bursts to one or two QPs on one
endpoint, made of in-order frames with the edits loss and faults make:
a frame lost (a gap that stays), a frame moved to the end (a gap that
fills), a duplicate, a stale PSN, future PSNs within and beyond
``HOLD_PSNS``, and a DATA frame to a QPN that no QP has, put behind a
frame of a run. Receives may be missing (RNR NAKs) or too short for
their message, which throws the QP into ERR partway through a run or a
drain. Three twin worlds take the same burst: one run at a time through
``on_data``, one frame at a time through ``on_data``, and whole through
``_land``; each then ends the burst (``_end_burst``: the owed ACKs and
the gaps asked for again). The first two skip the frame to no
QP; ``_land`` must drop it and split the run there. All three must
leave the same CQEs, received bytes, receiver state, QP state and
emitted frames, in order.
"""

from hypothesis import given, settings, strategies as st

from conftest import Node, connect_pair, to_init, to_rtr, to_rts
from softverbs.fabric import HOLD_PSNS, LoopbackFabric, psn_add
from softverbs.verbs import (
    DeviceRegistry,
    QpType,
    QueueCaps,
    ReceiveWorkRequest,
)
from softverbs.wire import QPN_MASK, Frame, FrameKind, SegMark

FRAG = 3  # payload bytes per frame
MAX_SEGS = 4  # frames per message, at most
SLOT = FRAG * MAX_SEGS  # one receive buffer, enough for any message
# the first PSN each receiving QP expects; the first run crosses the wrap
FIRST_PSNS = ((1 << 24) - 3, 200)
MAX_RECVS = 6
NO_QPN = QPN_MASK  # a QPN that no QP of the world has


def segments(count: int):
    if count == 1:
        return [SegMark.ONLY]
    return [SegMark.FIRST, *[SegMark.MIDDLE] * (count - 2), SegMark.LAST]


@st.composite
def bursts(draw):
    """(per-QP messages, per-QP receive capacities, burst items); an item
    is (QP index, frame index) with a frame index into the QP's message
    frames, or one of the tags 'stale', 'near', 'far' and 'no_qp'."""
    n_qps = draw(st.integers(1, 2))
    messages = [draw(st.lists(st.integers(1, MAX_SEGS), min_size=1,
                              max_size=5)) for _ in range(n_qps)]
    # a short receive fits a one-frame message only
    recvs = [draw(st.lists(st.sampled_from([SLOT, FRAG]), max_size=MAX_RECVS))
             for _ in range(n_qps)]
    queues = [[(q, i) for i in range(sum(messages[q]))]
              for q in range(n_qps)]
    items = []
    while any(queues):
        q = draw(st.integers(0, n_qps - 1))
        if not queues[q]:
            q = 1 - q
        take = draw(st.integers(1, len(queues[q])))
        items += queues[q][:take]
        del queues[q][:take]
    edits = draw(st.lists(st.tuples(
        st.sampled_from(["drop", "late", "dup", "stale", "near", "far",
                         "no_qp"]),
        st.integers(0, 63), st.integers(0, 63)), max_size=5))
    for op, at, to in edits:
        if not items:
            break
        at %= len(items)
        q = items[at][0]
        if op == "drop":
            del items[at]
        elif op == "late":
            items.append(items.pop(at))
        elif op == "dup":
            items.insert(at + to % (len(items) - at + 1), items[at])
        elif op == "no_qp":
            items.insert(at + 1, (q, op))
        else:
            items.insert(at, (q, op))
    return messages, recvs, items


class World:
    """A sender node and a receiver node, plus a second QP pair on the
    same two contexts: two receiving QPs on one endpoint."""

    def __init__(self, messages, recvs):
        registry = DeviceRegistry()
        registry.add_device("hca0")
        self.fabric = LoopbackFabric(registry=registry)
        self.a = Node(registry, self.fabric)
        self.b = Node(registry, self.fabric,
                      size=SLOT * MAX_RECVS * len(FIRST_PSNS))
        connect_pair(self.a, self.b, psn_a=FIRST_PSNS[0], psn_b=7)
        self.qps = [self.b.qp]
        if len(messages) > 1:
            caps = QueueCaps(8, MAX_RECVS + 1)
            a2 = self.a.pd.create_qp(self.a.cq, self.a.cq, caps, QpType.RC)
            b2 = self.b.pd.create_qp(self.b.cq, self.b.cq, caps, QpType.RC)
            to_init(a2)
            to_init(b2)
            to_rtr(a2, self.b.lid, b2.qpn, 9)
            to_rtr(b2, self.a.lid, a2.qpn, FIRST_PSNS[1])
            to_rts(a2, FIRST_PSNS[1])
            to_rts(b2, 9)
            self.qps.append(b2)
        assert NO_QPN not in self.b.qp._endpoint.qpn_map
        wr_id = 0
        for q, lengths in enumerate(recvs):
            for k, length in enumerate(lengths):
                off = (q * MAX_RECVS + k) * SLOT
                self.qps[q].post_recv(ReceiveWorkRequest(
                    wr_id, [self.b.sge(off, length)]))
                wr_id += 1
        self.frames = [self._frames(q, counts)
                       for q, counts in enumerate(messages)]

    def _frames(self, q, counts):
        qpn, first = self.qps[q].qpn, FIRST_PSNS[q]
        frames = []
        for count in counts:
            for seg in segments(count):
                n = len(frames)
                frames.append(Frame(FrameKind.DATA, qpn, psn_add(first, n),
                                    seg, bytes([q, n, 0xA5])))
        return frames

    def frame(self, item):
        q, index = item
        qpn, first = self.qps[q].qpn, FIRST_PSNS[q]
        if index == "no_qp":
            return Frame(FrameKind.DATA, NO_QPN, first, SegMark.ONLY, b"?")
        ahead = {"stale": -2, "near": HOLD_PSNS - 1, "far": HOLD_PSNS}
        if index in ahead:
            return Frame(FrameKind.DATA, qpn, psn_add(first, ahead[index]),
                         SegMark.MIDDLE, index.encode())
        return self.frames[q][index]

    def outcome(self):
        cqes = []
        while batch := self.b.cq.poll(16):
            cqes += batch
        receivers = [(qp.state, qp.receiver.expected_psn,
                      qp.receiver.held, qp.receiver.edge,
                      list(qp.receiver.reports),
                      qp.receiver.reassembly, len(qp.recv_queue))
                     for qp in self.qps]
        return (cqes, bytes(self.b.buf.data), receivers,
                self.fabric.trace, self.fabric._owed, self.fabric._filled)


def runs(world, items):
    """The burst's runs: consecutive items to one QP, as (QP, frames),
    skipping the frames to no QP."""
    out = []
    for item in items:
        if item[1] == "no_qp":
            continue
        qp, frame = world.qps[item[0]], world.frame(item)
        if out and out[-1][0] is qp:
            out[-1][1].append(frame)
        else:
            out.append((qp, [frame]))
    return out


@settings(max_examples=300, deadline=None)
@given(bursts())
def test_a_run_lands_as_its_frames_would_one_by_one(burst):
    messages, recvs, items = burst
    by_run, by_frame, by_land = (World(messages, recvs) for _ in range(3))
    for qp, frames in runs(by_run, items):
        by_run.fabric.on_data(qp, *frames)
    by_run.fabric._end_burst()
    for qp, frames in runs(by_frame, items):
        for frame in frames:
            by_frame.fabric.on_data(qp, frame)
    by_frame.fabric._end_burst()
    by_land.fabric._land(by_land.b.qp._endpoint,
                         [by_land.frame(item) for item in items])
    expected = by_frame.outcome()
    assert by_run.outcome() == expected
    assert by_land.outcome() == expected

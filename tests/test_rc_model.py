"""Model-based test of the RC engine on one loopback pair.

A hypothesis state machine runs the pair through a drawn fault profile
that duplicates and reorders frames but drops none at random, posts
sends and receives in any order (a receive posted late draws RNR NAKs),
drops a coming copy of a chosen frame kind (at most two copies per PSN),
moves the virtual clock and may move the sender to ERR or to RESET, or
destroy it (which leaves it in RESET; each test run takes one of these
ways, for all its examples), while sends are in flight, with
the sender's PSNs starting just below 2^24 so that the data crosses the
PSN wrap. After every step the completions seen so far must agree with
a reference model: at most one CQE per WQE, each queue's CQEs in post
order, every receive byte-exact, and none for the sender once it is
destroyed. A sender that has left RTS, whatever the cause, has no send
engine left: no
``sender``, no tick in the fabric's heap, and no DATA frame from its LID
since it left. Whenever the fabric is idle, every signaled or failed
WQE has its CQE: either every send was delivered and acked, or one
failed and every later one was flushed, or the sender was moved to ERR
and every send not finished by then was flushed, or it was moved to
RESET and those sends got no CQE. The receiver sends its ACKs at
strictly increasing virtual times (one per burst at most; a duplicate
copy is the wire's, not the receiver's), with PSNs that never go back,
and keeps a gap report exactly while it holds frames, the first one at
the expected PSN. Duplicates and reordering lose no frame, and two lost
copies per PSN cannot spend a retry budget of 7, so only RNR exhaustion,
a receive posted too late, may fail a send. The pair is
connected with a drawn ``rnr_retry`` below 7: 7 retries without limit,
so a receive never posted would be refused for ever.
"""

from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from conftest import Node, connect_pair
from softverbs.fabric import FaultProfile, LoopbackFabric, psn_le
from softverbs.verbs import (
    AttrMask,
    DeviceRegistry,
    ModifyAttributes,
    QpState,
    SendFlags,
    SendWorkRequest,
    WcStatus,
)
from softverbs.wire import FrameKind

MTU = 256
SIZES = (0, 1, MTU - 1, MTU, MTU + 1, 3 * MTU)
SLOT = 3 * MTU  # one receive buffer: the largest message
MAX_WR = 12     # sends and receives posted per run, each at most
FIRST_PSN = (1 << 24) - 4
DROPS_PER_PSN = 2
# the fault profile's duplicate and reorder probabilities, each drawn
FAULT_RATES = (0.0, 0.1, 0.3)
# the ways the sender may leave RTS mid-flight: the test runs the machine
# once for each way, and fails if its examples took that way fewer than
# MIN_LEAVES times, which an example budget too small would do
LEAVES = (QpState.ERR, "destroy", QpState.RESET)
MIN_LEAVES = 5


def payload_of(wr_id: int, size: int) -> bytes:
    return bytes((wr_id * 31 + k) % 251 for k in range(size))


def mid_flight(model) -> bool:
    """The sender is in RTS with a send in flight, after a few sends."""
    qp = model.a.qp
    return (qp.state is QpState.RTS and len(model.sends) >= 3
            and bool(qp.send_queue))


class RcModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # the model: send i has wr_id i, receive i has wr_id i and slot i
        self.sends: list[tuple[bytes, bool]] = []  # (payload, signaled)
        self.recvs = 0
        self.send_cqes = []
        self.recv_cqes = []
        # by kind: how many more copies of it pass before one is dropped
        self.armed: dict[FrameKind, int] = {}
        self.drops = Counter()  # by PSN
        # sends finished when the sender was moved to ERR or RESET (or
        # destroyed), if it was
        self.err_at = self.reset_at = None
        # the sender's CQEs seen when it was destroyed, if it was
        self.destroyed_with = None
        # the trace's length when the sender left RTS, if it did
        self.left_at = None
        # the way the sender leaves RTS, and how often it left RTS each
        # way (the test sets both, and shares one counter among every run)
        self.how = None
        self.left = Counter()

    def _drop(self, frame) -> bool:
        skip = self.armed.get(frame.kind)
        if skip is None or self.drops[frame.psn] >= DROPS_PER_PSN:
            return False
        if skip:
            self.armed[frame.kind] = skip - 1
            return False
        del self.armed[frame.kind]
        self.drops[frame.psn] += 1
        return True

    # -- rules ---------------------------------------------------------------

    @initialize(rnr_retry=st.integers(0, 6),
                dup=st.sampled_from(FAULT_RATES),
                reorder=st.sampled_from(FAULT_RATES),
                seed=st.integers(0, 2 ** 16))
    def connect(self, rnr_retry, dup, reorder, seed):
        registry = DeviceRegistry()
        registry.add_device("hca0")
        self.fabric = LoopbackFabric(
            faults=FaultProfile(0.0, dup, reorder, seed), registry=registry)
        self.a = Node(registry, self.fabric, size=SLOT, max_send_wr=MAX_WR,
                      cq_capacity=2 * MAX_WR)
        self.b = Node(registry, self.fabric, size=SLOT * MAX_WR,
                      max_recv_wr=MAX_WR, cq_capacity=2 * MAX_WR)
        self.fabric.drop_filter = self._drop
        connect_pair(self.a, self.b, psn_a=FIRST_PSN, mtu=MTU,
                     rnr_retry=rnr_retry)
        qp = self.a.qp
        enter = qp._enter_state

        def enter_state(target):
            if qp.state is QpState.RTS and self.left_at is None:
                self.left_at = len(self.fabric.trace)
            enter(target)

        qp._enter_state = enter_state

    @precondition(lambda self: self.recvs < MAX_WR)
    @rule()
    def post_recv(self):
        self.b.post_recv(self.recvs, off=self.recvs * SLOT, length=SLOT)
        self.recvs += 1

    @precondition(lambda self: len(self.sends) < MAX_WR
                  and self.a.qp.state is QpState.RTS)
    @rule(size=st.sampled_from(SIZES), signaled=st.booleans())
    def post_send(self, size, signaled):
        wr_id = len(self.sends)
        payload = payload_of(wr_id, size)
        self.a.buf.data[:size] = payload
        sges = [self.a.sge(0, size)] if size else []
        self.a.qp.post_send(SendWorkRequest(
            wr_id, sges,
            flags=SendFlags.SIGNALED if signaled else SendFlags(0)))
        self.sends.append((payload, signaled))

    @rule(kind=st.sampled_from(list(FrameKind)), skip=st.integers(0, 2))
    def drop_a_coming_copy(self, kind, skip):
        self.armed[kind] = skip

    @rule(ms=st.sampled_from((0.5, 1.0, 2.5, 10.0, 15.0)))
    def advance(self, ms):
        self.fabric.advance(ms)

    @rule()
    def step(self):
        self.fabric.step()

    # only once a few sends are posted, so that most runs still reach
    # the end of their sends
    @precondition(mid_flight)
    @rule()
    def sender_leaves_rts(self):
        how = self.how
        self.left[how] += 1
        finished = len(self.sends) - len(self.a.qp.send_queue)
        if how is QpState.ERR:
            self.err_at = finished
        else:
            self.reset_at = finished
        if how == "destroy":
            # the invariants polled every CQE of the steps before
            self.destroyed_with = len(self.send_cqes)
            self.a.qp.destroy()
        else:
            self.a.qp.modify(ModifyAttributes(state=how), AttrMask.STATE)

    # a send still waiting for its receive would be refused until its
    # RNR budget runs out; teardown lets that happen, settle does not
    @precondition(lambda self: self.recvs >= len(self.sends))
    @rule()
    def settle(self):
        self._check_idle()

    def teardown(self):
        self._check_idle()

    # -- checks --------------------------------------------------------------

    @invariant()
    def completions_agree_with_the_model(self):
        self.send_cqes += self.a.cq.poll(2 * MAX_WR)
        self.recv_cqes += self.b.cq.poll(2 * MAX_WR)
        # a destroyed QP gets no CQE
        assert self.destroyed_with in (None, len(self.send_cqes))
        # receives complete in post order, each with the next message
        assert [wc.wr_id for wc in self.recv_cqes] == \
            list(range(len(self.recv_cqes)))
        assert len(self.recv_cqes) <= len(self.sends)
        for i, wc in enumerate(self.recv_cqes):
            payload = self.sends[i][0]
            assert wc.status is WcStatus.SUCCESS
            assert wc.byte_len == len(payload)
            assert self.b.read(i * SLOT, len(payload)) == payload
        # sends complete at most once each, in post order; a signaled
        # success follows its delivery, and after a failure (or the
        # move to ERR) only flushes follow
        ids = [wc.wr_id for wc in self.send_cqes]
        assert ids == sorted(set(ids))
        failed = False
        for wc in self.send_cqes:
            if failed:
                assert wc.status is WcStatus.WR_FLUSHED
            elif wc.status is WcStatus.SUCCESS:
                assert self.sends[wc.wr_id][1]
                assert wc.wr_id < len(self.recv_cqes)
            else:
                assert wc.status is (WcStatus.RNR_RETRY_EXCEEDED
                                     if self.err_at is None
                                     else WcStatus.WR_FLUSHED)
                failed = True

    @invariant()
    def a_sender_outside_rts_has_no_engine_left(self):
        qp = self.a.qp
        if qp.state is QpState.RTS:
            return
        assert qp.sender is None
        assert not [fn for _, _, fn in self.fabric._timers
                    if fn.func == self.fabric._tick_fired
                    and fn.args[0] is qp]
        assert not [e for e in self.fabric.trace[self.left_at:]
                    if e.src_lid == self.a.lid
                    and e.frame.kind is FrameKind.DATA]

    @invariant()
    def the_receiver_acks_once_per_burst_and_never_goes_back(self):
        acks = [(e.t, e.frame.psn) for e in self.fabric.trace
                if e.src_lid == self.b.lid and e.frame.kind is FrameKind.ACK
                and e.status != "dup"]
        for (t, psn), (later_t, later_psn) in zip(acks, acks[1:]):
            assert t < later_t and psn_le(psn, later_psn)

    def _check_idle(self):
        self.fabric.run_until_idle()
        self.completions_agree_with_the_model()
        n = len(self.sends)
        signaled = [i for i, (_, sig) in enumerate(self.sends) if sig]
        got = [(wc.wr_id, wc.status) for wc in self.send_cqes]
        if self.reset_at is not None:
            k = self.reset_at
            # a reset completes nothing: the unfinished sends get no CQE
            assert got == [(i, WcStatus.SUCCESS) for i in signaled if i < k]
            assert len(self.recv_cqes) >= k
            return
        if self.err_at is not None:
            k = self.err_at
            assert got == [(i, WcStatus.SUCCESS) for i in signaled if i < k] \
                + [(i, WcStatus.WR_FLUSHED) for i in range(k, n)]
            # every send finished before the move was delivered
            assert len(self.recv_cqes) >= k
            return
        if self.a.qp.state is QpState.RTS:
            assert got == [(i, WcStatus.SUCCESS) for i in signaled]
            assert len(self.recv_cqes) == n
            return
        fail = next(wc for wc in self.send_cqes
                    if wc.status is WcStatus.RNR_RETRY_EXCEEDED)
        assert got == [(i, WcStatus.SUCCESS) for i in signaled
                       if i < fail.wr_id] + \
            [(fail.wr_id, fail.status)] + \
            [(i, WcStatus.WR_FLUSHED) for i in range(fail.wr_id + 1, n)]
        # every send before the failed one was delivered
        assert len(self.recv_cqes) >= fail.wr_id


@pytest.mark.parametrize("how", LEAVES, ids=lambda how: getattr(how, "name",
                                                                 how))
def test_the_rc_engine_agrees_with_the_model(how):
    """Run the machine with the sender leaving RTS the one way ``how``,
    then check that its runs took that way often enough to test it."""
    left = Counter()

    def machine():
        model = RcModel()
        model.how, model.left = how, left
        return model

    run_state_machine_as_test(machine, settings=settings(
        max_examples=60, stateful_step_count=50, derandomize=True,
        database=None, deadline=None))
    assert left[how] >= MIN_LEAVES, (
        f"RTS left {left[how]} times, fewer than {MIN_LEAVES}")

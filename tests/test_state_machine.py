import copy

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Node, to_init, to_rtr, to_rts
from softverbs.verbs import (
    INIT_REQUIRED,
    RTR_REQUIRED,
    RTS_MODIFIABLE,
    RTS_REQUIRED,
    AccessFlags,
    AddressHandle,
    AttrMask,
    ModifyAttributes,
    QpState,
    VerbsError,
    WcStatus,
)

LEGAL = {(QpState.RESET, QpState.INIT), (QpState.INIT, QpState.RTR),
         (QpState.RTR, QpState.RTS)} | \
        {(s, QpState.ERR) for s in QpState} | \
        {(s, QpState.RESET) for s in QpState}

FULL = {
    QpState.INIT: (INIT_REQUIRED,
                   dict(pkey_index=0, port_num=1,
                        qp_access_flags=AccessFlags(0))),
    QpState.RTR: (RTR_REQUIRED,
                  dict(path_mtu=1024, dest_qp_num=0x1234, rq_psn=77,
                       max_dest_rd_atomic=1, min_rnr_timer=12,
                       ah=AddressHandle(dlid=99, port_num=1))),
    QpState.RTS: (RTS_REQUIRED,
                  dict(timeout=14, retry_cnt=7, rnr_retry=7, sq_psn=55,
                       max_rd_atomic=1)),
    QpState.ERR: (AttrMask.STATE, {}),
    QpState.RESET: (AttrMask.STATE, {}),
}


def qp_in_state(registry, fabric, state):
    node = Node(registry, fabric)
    qp = node.qp
    if state in (QpState.INIT, QpState.RTR, QpState.RTS):
        to_init(qp)
    if state in (QpState.RTR, QpState.RTS):
        to_rtr(qp, dlid=99, dest_qpn=0x1234, rq_psn=77)
    if state is QpState.RTS:
        to_rts(qp, 55)
    if state is QpState.ERR:
        qp.modify(ModifyAttributes(state=QpState.ERR), AttrMask.STATE)
    assert qp.state is state
    return node


def attempt(qp, target, mask):
    _, fields = FULL[target]
    qp.modify(ModifyAttributes(state=target, **fields), mask)


@pytest.mark.parametrize("source", list(QpState))
@pytest.mark.parametrize("target", list(QpState))
def test_transition_with_complete_mask(registry, fabric, source, target):
    node = qp_in_state(registry, fabric, source)
    mask, _ = FULL[target]
    if (source, target) in LEGAL:
        attempt(node.qp, target, mask)
        assert node.qp.state is target
    else:
        with pytest.raises(VerbsError):
            attempt(node.qp, target, mask)
        assert node.qp.state is source


@pytest.mark.parametrize("source", list(QpState))
@pytest.mark.parametrize("target", list(QpState))
def test_transition_with_each_field_missing(registry, fabric, source, target):
    full_mask, _ = FULL[target]
    required_lesser = [bit for bit in AttrMask
                       if full_mask & bit and bit is not AttrMask.STATE]
    for missing in required_lesser:
        node = qp_in_state(registry, fabric, source)
        with pytest.raises(VerbsError):
            attempt(node.qp, target, full_mask & ~missing)
        assert node.qp.state is source
    # dropping STATE itself turns the call into a plain attribute write,
    # which an RTS QP takes only for RTS_MODIFIABLE
    node = qp_in_state(registry, fabric, source)
    before = copy.deepcopy(node.qp.attrs)
    write = full_mask & ~AttrMask.STATE
    if source is QpState.RTS and write & ~RTS_MODIFIABLE:
        with pytest.raises(VerbsError):
            attempt(node.qp, target, write)
        assert node.qp.attrs == before
    else:
        attempt(node.qp, target, write)
    assert node.qp.state is source


def test_an_rts_qp_takes_access_flags_and_min_rnr_timer(registry, fabric):
    # the RTS->RTS optional attributes of ibv_modify_qp(3) it models
    node = qp_in_state(registry, fabric, QpState.RTS)
    node.qp.modify(ModifyAttributes(qp_access_flags=AccessFlags.LOCAL_WRITE,
                                    min_rnr_timer=20),
                   AttrMask.ACCESS_FLAGS | AttrMask.MIN_RNR_TIMER)
    assert node.qp.state is QpState.RTS
    assert node.qp.attrs.qp_access_flags == AccessFlags.LOCAL_WRITE
    assert node.qp.attrs.min_rnr_timer == 20


@pytest.mark.parametrize("mask", [
    AttrMask.TIMEOUT, AttrMask.TIMEOUT | AttrMask.MIN_RNR_TIMER,
    AttrMask.RETRY_CNT, AttrMask.RNR_RETRY, AttrMask.SQ_PSN,
    AttrMask.PATH_MTU, AttrMask.DEST_QPN | AttrMask.ACCESS_FLAGS])
def test_an_rts_qp_refuses_every_other_attribute(registry, fabric, mask):
    # the engine reads the timeout once, on entry to RTS: a later write
    # would leave the QP's code and its engine timeout apart
    node = qp_in_state(registry, fabric, QpState.RTS)
    before = copy.deepcopy(node.qp.attrs)
    timeout_ms = node.qp.sender.timeout_ms
    with pytest.raises(VerbsError, match="RTS"):
        node.qp.modify(ModifyAttributes(
            timeout=20, min_rnr_timer=3, retry_cnt=1, rnr_retry=1,
            sq_psn=9, path_mtu=512, dest_qp_num=7,
            qp_access_flags=AccessFlags.LOCAL_WRITE), mask)
    assert node.qp.state is QpState.RTS
    assert node.qp.attrs == before
    assert node.qp.sender.timeout_ms == timeout_ms


def test_skipping_states_fails(registry, fabric):
    node = qp_in_state(registry, fabric, QpState.RESET)
    with pytest.raises(VerbsError):
        attempt(node.qp, QpState.RTS, RTS_REQUIRED)
    assert node.qp.state is QpState.RESET


def test_extra_masked_fields_are_applied(registry, fabric):
    node = qp_in_state(registry, fabric, QpState.RESET)
    node.qp.modify(
        ModifyAttributes(state=QpState.INIT, pkey_index=0, port_num=1,
                         qp_access_flags=AccessFlags(0), min_rnr_timer=20),
        INIT_REQUIRED | AttrMask.MIN_RNR_TIMER)
    assert node.qp.state is QpState.INIT
    assert node.qp.attrs.min_rnr_timer == 20


def test_undefined_mask_bits_rejected(registry, fabric):
    node = qp_in_state(registry, fabric, QpState.RESET)
    with pytest.raises(VerbsError):
        node.qp.modify(ModifyAttributes(), 1 << 20)


def test_a_mask_may_be_an_int_and_errors_name_its_bits(registry, fabric):
    # modify works on the mask as an int; an error still prints AttrMask
    node = qp_in_state(registry, fabric, QpState.RESET)
    with pytest.raises(VerbsError, match=r"^mask missing <AttrMask\.\S*"
                                         r"PKEY_INDEX\S*: 14> for -> INIT$"):
        node.qp.modify(ModifyAttributes(state=QpState.INIT),
                       int(AttrMask.STATE))
    node.qp.modify(ModifyAttributes(state=QpState.INIT, port_num=1),
                   int(INIT_REQUIRED))
    assert node.qp.state is QpState.INIT
    node = qp_in_state(registry, fabric, QpState.RTS)
    with pytest.raises(VerbsError, match=r"^<AttrMask\.TIMEOUT: 1024> "
                                         r"cannot change while in RTS$"):
        node.qp.modify(ModifyAttributes(timeout=20), int(AttrMask.TIMEOUT))


# one field out of range per case, on the transition that sets it, and
# the start of the error it draws
INVALID = {
    "path_mtu": (QpState.RTR, dict(path_mtu=999), "invalid path mtu"),
    "access_flags": (QpState.INIT, dict(qp_access_flags=1 << 5),
                     "undefined qp access flag"),
    "dest_qp_num": (QpState.RTR, dict(dest_qp_num=1 << 24), "dest qpn"),
    "rq_psn": (QpState.RTR, dict(rq_psn=1 << 24), "rq psn"),
    "retry_cnt": (QpState.RTS, dict(retry_cnt=8), "retry_cnt"),
    "rnr_retry": (QpState.RTS, dict(rnr_retry=8), "rnr_retry"),
    "min_rnr_timer": (QpState.RTR, dict(min_rnr_timer=32), "min_rnr_timer"),
    "timeout": (QpState.RTS, dict(timeout=32), "timeout"),
    "dgid": (QpState.RTR,
             dict(ah=AddressHandle(dlid=99, port_num=1, dgid=bytes(15))),
             "gid must be 16 bytes"),
    # STATE is masked, but the attributes name no state to enter
    "state": (QpState.INIT, dict(state=None),
              "STATE masked but attrs carry no target state"),
}
BEFORE = {QpState.INIT: QpState.RESET, QpState.RTR: QpState.INIT,
          QpState.RTS: QpState.RTR}


@pytest.mark.parametrize("case", list(INVALID))
def test_invalid_field_values_leave_qp_unchanged(registry, fabric, case):
    target, bad, message = INVALID[case]
    node = qp_in_state(registry, fabric, BEFORE[target])
    before = copy.deepcopy(node.qp.attrs)
    mask, fields = FULL[target]
    with pytest.raises(VerbsError, match=f"^{message}"):
        node.qp.modify(ModifyAttributes(**{"state": target, **fields,
                                           **bad}), mask)
    assert node.qp.state is BEFORE[target]
    assert node.qp.attrs == before


def test_psn_fields_must_be_24_bit(registry, fabric):
    node = qp_in_state(registry, fabric, QpState.RTR)
    with pytest.raises(VerbsError):
        to_rts(node.qp, 1 << 24)
    assert node.qp.state is QpState.RTR


class CountedEq(int):
    """An int that counts its ``==`` calls: ``v in range(...)`` compares
    an int subclass with each element in turn, a bound check never."""

    compared = 0

    def __eq__(self, other):
        CountedEq.compared += 1
        return int(self) == other

    __hash__ = int.__hash__


def test_a_psn_of_an_int_subclass_is_compared_with_its_bound(registry,
                                                             fabric):
    node = qp_in_state(registry, fabric, QpState.RTR)
    CountedEq.compared = 0
    with pytest.raises(VerbsError, match="^sq psn out of 24-bit range$"):
        to_rts(node.qp, CountedEq(1 << 24))
    to_rts(node.qp, CountedEq(55))
    assert node.qp.state is QpState.RTS
    assert CountedEq.compared == 0


def test_reset_clears_queues(registry, fabric):
    node = qp_in_state(registry, fabric, QpState.INIT)
    node.post_recv(1)
    node.post_recv(2)
    assert len(node.qp.recv_queue) == 2
    node.qp.modify(ModifyAttributes(state=QpState.RESET), AttrMask.STATE)
    assert node.qp.state is QpState.RESET
    assert not node.qp.recv_queue and not node.qp.send_queue


def test_error_transition_flushes_posted_receives(registry, fabric):
    node = qp_in_state(registry, fabric, QpState.INIT)
    node.post_recv(31)
    node.post_recv(32)
    node.qp.modify(ModifyAttributes(state=QpState.ERR), AttrMask.STATE)
    wcs = node.cq.poll(8)
    assert [wc.wr_id for wc in wcs] == [31, 32]
    assert all(wc.status is WcStatus.WR_FLUSHED for wc in wcs)
    assert not node.qp.recv_queue


def test_rtr_binds_lid_qpn_into_routing(registry, fabric):
    node = qp_in_state(registry, fabric, QpState.RTR)
    ep = fabric.routing[node.lid]
    assert ep.qpn_map[node.qp.qpn] is node.qp
    node.qp.modify(ModifyAttributes(state=QpState.RESET), AttrMask.STATE)
    assert node.qp.qpn not in ep.qpn_map


_value_strategies = {
    "pkey_index": st.integers(0, 3),
    "port_num": st.just(1),
    "qp_access_flags": st.sampled_from([AccessFlags(0),
                                        AccessFlags.LOCAL_WRITE]),
    "path_mtu": st.sampled_from([256, 512, 1024, 2048, 4096]),
    "dest_qp_num": st.integers(0, (1 << 24) - 1),
    "rq_psn": st.integers(0, (1 << 24) - 1),
    "sq_psn": st.integers(0, (1 << 24) - 1),
    "max_dest_rd_atomic": st.integers(0, 4),
    "max_rd_atomic": st.integers(0, 4),
    "min_rnr_timer": st.integers(0, 31),
    "timeout": st.integers(0, 31),
    "retry_cnt": st.integers(0, 7),
    "rnr_retry": st.integers(0, 7),
    "ah": st.builds(AddressHandle, dlid=st.integers(0, 65535),
                    sl=st.integers(0, 15), port_num=st.just(1)),
}

_FIELD_FOR_BIT = {
    AttrMask.PKEY_INDEX: "pkey_index",
    AttrMask.PORT: "port_num",
    AttrMask.ACCESS_FLAGS: "qp_access_flags",
    AttrMask.AV: "ah",
    AttrMask.PATH_MTU: "path_mtu",
    AttrMask.DEST_QPN: "dest_qp_num",
    AttrMask.RQ_PSN: "rq_psn",
    AttrMask.MAX_DEST_RD_ATOMIC: "max_dest_rd_atomic",
    AttrMask.MIN_RNR_TIMER: "min_rnr_timer",
    AttrMask.TIMEOUT: "timeout",
    AttrMask.RETRY_CNT: "retry_cnt",
    AttrMask.RNR_RETRY: "rnr_retry",
    AttrMask.SQ_PSN: "sq_psn",
    AttrMask.MAX_QP_RD_ATOMIC: "max_rd_atomic",
}


@settings(max_examples=120, deadline=None)
@given(bits=st.lists(st.sampled_from(sorted(_FIELD_FOR_BIT, key=int)),
                     unique=True),
       data=st.data())
def test_masked_write_touches_only_masked_fields(bits, data):
    # fresh world per example; fixtures do not mix with hypothesis
    from softverbs.verbs import DeviceRegistry
    from softverbs.fabric import LoopbackFabric
    registry = DeviceRegistry()
    registry.add_device("hca0")
    node = Node(registry, LoopbackFabric(registry=registry))
    qp = node.qp
    before = copy.deepcopy(qp.attrs)
    mask = AttrMask(0)
    attrs = ModifyAttributes()
    for bit in bits:
        name = _FIELD_FOR_BIT[bit]
        setattr(attrs, name, data.draw(_value_strategies[name], label=name))
        mask |= bit
    qp.modify(attrs, mask)
    for bit, name in _FIELD_FOR_BIT.items():
        if mask & bit:
            assert getattr(qp.attrs, name) == getattr(attrs, name)
        else:
            assert getattr(qp.attrs, name) == getattr(before, name)
    assert qp.state is QpState.RESET

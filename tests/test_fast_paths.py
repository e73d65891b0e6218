"""The verbs fast paths stay clear of Python's enum machinery.

An ``IntFlag`` operator (``&``, ``|``, ``~``) or a call of an enum class
runs Python code in ``enum.py``: about 1 us each on CPython 3.10-3.13.
Reading a member off an ``Enum`` class runs none, but costs several
times a module global (113-150 against 8-15 ns on 3.11), so the paths
that run per post, poll, completion and frame read the members through
module constants, bound once, and ``QueuePair.modify`` tests its mask
as an int.
"""

import ast
import enum
import inspect
import random
import sys
import textwrap
from collections import Counter
from dataclasses import replace

from softverbs import fabric, pingpong, verbs
from softverbs.fabric import LoopbackFabric
from softverbs.verbs import DeviceRegistry

ENUM_CODE = enum.Flag.__and__.__code__.co_filename
# dict and set lookups keyed by a state hash it; that is not the tax
ENUM_HASH = enum.Enum.__hash__.__code__


def enum_calls(fn):
    """Run ``fn()`` and count the calls it makes into ``enum.py`` but for
    ``Enum.__hash__``, by callee and caller; return its result too."""
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename == ENUM_CODE
                and code is not ENUM_HASH):
            calls[f"{code.co_name} from {frame.f_back.f_code.co_name}"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, calls


def test_a_loopback_pair_connects_and_runs_without_enum_calls():
    """Set-up (two ``open_node`` and two ``connect_ctx``: six modifies)
    and 200 iterations make no call into ``enum.py``."""
    registry = DeviceRegistry()
    registry.add_device("hca0")
    wire = LoopbackFabric(registry=registry)
    cfgs = [replace(pingpong.PingpongConfig(size=64, iters=200),
                    server_host=host) for host in (None, "127.0.0.1")]

    def connect():
        ctxs, mine = zip(*(pingpong.open_node(cfg, registry, wire,
                                              random.Random(i))
                           for i, cfg in enumerate(cfgs)))
        for cfg, ctx, me, peer in zip(cfgs, ctxs, mine, mine[::-1]):
            pingpong.connect_ctx(ctx, me.psn, peer, cfg)
        return ctxs

    ctxs, calls = enum_calls(connect)
    assert not calls, f"set-up called into enum.py: {dict(calls)}"
    stats, calls = enum_calls(
        lambda: pingpong.run_loop(list(zip(ctxs, cfgs)), wire))
    assert [s.iters for s in stats] == [200, 200]
    assert not calls, f"the loop called into enum.py: {dict(calls)}"


# every function that runs per post, poll, completion or frame
FAST_PATHS = (
    verbs.CompletionQueue._push,
    verbs.CompletionQueue.poll,
    verbs.CompletionQueue.wait_for_completion,
    verbs.QueuePair.modify,
    verbs.QueuePair._validate_masked,
    verbs.QueuePair._apply_masked,
    verbs.QueuePair._enter_state,
    verbs.QueuePair._flush_queues,
    verbs.QueuePair.post_recv,
    verbs.QueuePair.post_send,
    verbs.QueuePair.complete_send,
    verbs.QueuePair.complete_recv,
    fabric.Fabric.on_qp_state,
    fabric.Fabric.transmit_message,
    fabric.Fabric.on_data,
    fabric.Fabric._accept,
    fabric.Fabric._drain_held,
    fabric.Fabric._ask_again,
    fabric.Fabric._land,
    fabric.Fabric._end_burst,
    fabric.Fabric._reply,
    pingpong._exchanges,
)
ENUMS = {"QpState", "CqState", "WcStatus", "WcOpcode", "SendOpcode",
         "SegMark", "FrameKind", "AttrMask"}


def test_the_fast_paths_read_no_enum_member_off_its_class():
    """No ``QpState.RTS``-style read in those functions, defaults included:
    they read module constants. ``AttrMask(...)``, a call that builds an
    error message, is no read."""
    reads = []
    for fn in FAST_PATHS:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            # ``QpState.RTS`` or ``verbs.QpState.RTS``
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            if owner in ENUMS:
                reads.append(f"{fn.__qualname__}: {owner}.{node.attr}")
    assert not reads, reads

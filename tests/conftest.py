import socket

import pytest

from softverbs.fabric import LoopbackFabric
from softverbs.testbed import (  # noqa: F401  (re-exported to the tests)
    INIT_MASK,
    RTR_MASK,
    RTS_MASK,
    Node,
    connect_pair,
    to_init,
    to_rtr,
    to_rts,
)
from softverbs.verbs import DeviceRegistry


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture
def registry():
    reg = DeviceRegistry()
    reg.add_device("hca0")
    return reg


@pytest.fixture
def fabric(registry):
    return LoopbackFabric(registry=registry)


@pytest.fixture
def pair(registry, fabric):
    a = Node(registry, fabric)
    b = Node(registry, fabric)
    connect_pair(a, b)
    return a, b


def run_until(fabric, pred, max_events=200_000):
    """Step the virtual clock until pred() holds; fail if it never does."""
    for _ in range(max_events):
        if pred():
            return
        if not fabric.step():
            break
    if not pred():
        raise AssertionError("condition never became true")

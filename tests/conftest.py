import pytest

from softverbs import fabric as fabric_module
from softverbs.fabric import LoopbackFabric
from softverbs.pingpong import (  # noqa: F401  (re-exported to the tests)
    to_init,
    to_rtr,
    to_rts,
)
from softverbs.testbed import (  # noqa: F401  (re-exported to the tests)
    Node,
    connect_pair,
    free_port,
)
from softverbs.verbs import DeviceRegistry


@pytest.fixture(autouse=True)
def no_socket_fabric_left_open():
    """Fail a test that leaves a SocketFabric open: every later wait on a
    socket fabric would go on polling its sockets and firing its timers.
    Fail it too if the shared poll set still watches a socket other than
    the wake pair once every fabric is closed: a leaked registration."""
    yield
    manual = fabric_module._MANUAL
    left = list(manual.fabrics)
    for fabric in left:
        fabric.close()
    assert not left, f"{len(left)} SocketFabric(s) left open"
    wake = {manual.wake_pair[0].fileno()} if manual.wake_pair else set()
    watched = set(manual.handlers) - wake
    assert not watched, f"poll set still watches descriptors {watched}"


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

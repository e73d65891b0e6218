#!/usr/bin/env python3
"""Sweep fault probabilities and measure wire amplification.

For each drop/duplicate/reorder setting, pushes a batch of messages
through a single-threaded loopback world and reports how many frames the
reliability engine needed relative to the lossless minimum, then how
many ACK frames the receiver sent and how long the batch took in virtual
time: until its last send completion. A closing line sums the DATA
frames, ACKs and virtual time over every row. Fully deterministic for a
given seed.
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from softverbs.fabric import FaultProfile, LoopbackFabric
from softverbs.testbed import Node, connect_pair
from softverbs.verbs import DeviceRegistry, WcStatus
from softverbs.wire import FrameKind


def run_batch(drop, dup, reorder, seed, n_msgs, size, mtu):
    registry = DeviceRegistry()
    registry.add_device("hca0")
    fabric = LoopbackFabric(
        faults=FaultProfile(drop, dup, reorder, seed), registry=registry)
    a = Node(registry, fabric, size=n_msgs * size, max_send_wr=n_msgs,
             max_recv_wr=n_msgs, cq_capacity=n_msgs + 1)
    b = Node(registry, fabric, size=n_msgs * size, max_send_wr=n_msgs,
             max_recv_wr=n_msgs, cq_capacity=n_msgs + 1)
    connect_pair(a, b, mtu=mtu)
    rng = random.Random(seed)
    payloads = [rng.randbytes(size) for _ in range(n_msgs)]
    for i in range(n_msgs):
        b.post_recv(i, off=i * size, length=size)
    for i, payload in enumerate(payloads):
        a.post_send(i, payload, off=i * size)
    while len(a.cq.entries) < n_msgs and fabric.jump():
        pass
    virtual_ms = fabric.now_ms()
    fabric.run_until_idle(max_events=5_000_000)
    recv = b.cq.poll(n_msgs + 1)
    ok = (len(recv) == n_msgs
          and all(wc.status is WcStatus.SUCCESS for wc in recv)
          and all(b.read(i * size, size) == payloads[i]
                  for i in range(n_msgs)))
    kinds = Counter(e.frame.kind for e in fabric.trace)
    minimum = n_msgs * -(-size // mtu)
    return (ok, kinds[FrameKind.DATA], minimum, kinds[FrameKind.ACK],
            virtual_ms)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--messages", type=int, default=200)
    parser.add_argument("--size", type=int, default=4096)
    parser.add_argument("--mtu", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rows = [(drop, dup, reorder, *run_batch(
                drop, dup, reorder, args.seed, args.messages, args.size,
                args.mtu))
            for drop in (0.0, 0.05, 0.1, 0.2, 0.3)
            for dup, reorder in ((0.0, 0.0), (0.1, 0.1))]
    # the virtual times get a table of their own: bench/tests reads the
    # first table's rows as six columns
    print(f"{'drop':>6} {'dup':>6} {'reorder':>8} {'delivered':>10} "
          f"{'frames':>8} {'amplification':>14}")
    for drop, dup, reorder, ok, frames, minimum, *_ in rows:
        print(f"{drop:>6.2f} {dup:>6.2f} {reorder:>8.2f} "
              f"{'all' if ok else 'FAILED':>10} {frames:>8} "
              f"{frames / minimum:>13.2f}x")
    print(f"\n{'drop':>6} {'dup':>6} {'reorder':>8} {'acks':>6} "
          f"{'virtual_ms':>11}")
    for drop, dup, reorder, *_, acks, virtual_ms in rows:
        print(f"{drop:>6.2f} {dup:>6.2f} {reorder:>8.2f} {acks:>6} "
              f"{virtual_ms:>11.2f}")
    print(f"\nsummed: {sum(r[4] for r in rows)} DATA frames, "
          f"{sum(r[6] for r in rows)} ACKs, "
          f"{sum(r[7] for r in rows):.2f} virtual ms")


if __name__ == "__main__":
    main()

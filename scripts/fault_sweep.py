#!/usr/bin/env python3
"""Sweep fault probabilities and measure wire amplification.

For each drop/duplicate/reorder setting, pushes a batch of messages
through a single-threaded loopback world and reports how many frames the
reliability engine needed relative to the lossless minimum, then how
many ACK and NAK frames the receiver sent and how long the batch took in
virtual time: until its last send completion. A third table shows RNR recovery
on a lossless wire: batches whose receives are posted 15 virtual ms
after their sends, with the RNR NAKs they drew. A closing line sums the DATA
frames, ACKs, NAKs and virtual time over the rows of the first two tables.
Fully deterministic for a given seed. Exits 1 if any row reads FAILED.

With ``--seeds A-B`` it sweeps each seed from A to B and prints one
``seed N: summed: ...`` line per seed, then their total; a seed's tables
are printed, before its line, only if one of its rows reads FAILED.
"""

import argparse
import io
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from softverbs.fabric import FaultProfile, LoopbackFabric
from softverbs.testbed import Node, connect_pair
from softverbs.verbs import DeviceRegistry, WcStatus
from softverbs.wire import FrameKind


def run_batch(drop, dup, reorder, seed, n_msgs, size, mtu, late_ms=0.0):
    """Run one batch; with ``late_ms``, the receives are posted that many
    virtual ms after the sends. Returns whether every message arrived
    intact, the frames emitted by kind, the lossless DATA frame count
    and the virtual ms until the last send completion."""
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
    if not late_ms:
        for i in range(n_msgs):
            b.post_recv(i, off=i * size, length=size)
    for i, payload in enumerate(payloads):
        a.post_send(i, payload, off=i * size)
    if late_ms:
        fabric.advance(late_ms)
        for i in range(n_msgs):
            b.post_recv(i, off=i * size, length=size)
    while len(a.cq.entries) < n_msgs and fabric.jump():
        pass
    virtual_ms = fabric.now_ms()
    fabric.run_until_idle()
    recv = b.cq.poll(n_msgs + 1)
    ok = (len(recv) == n_msgs
          and all(wc.status is WcStatus.SUCCESS for wc in recv)
          and all(b.read(i * size, size) == payloads[i]
                  for i in range(n_msgs)))
    kinds = Counter(e.frame.kind for e in fabric.trace)
    return ok, kinds, n_msgs * -(-size // mtu), virtual_ms


def sweep(seed, n_msgs, size, mtu):
    """Run every table for one seed. Returns its printed tables, whether
    a row failed, and the summed DATA frames, ACKs, NAKs and virtual
    ms."""
    out = io.StringIO()
    rows = [(drop, dup, reorder, *run_batch(
                drop, dup, reorder, seed, n_msgs, size, mtu))
            for drop in (0.0, 0.05, 0.1, 0.2, 0.3)
            for dup, reorder in ((0.0, 0.0), (0.1, 0.1))]
    # the virtual times get a table of their own: bench/tests reads the
    # first table's rows as six columns
    print(f"{'drop':>6} {'dup':>6} {'reorder':>8} {'delivered':>10} "
          f"{'frames':>8} {'amplification':>14}", file=out)
    for drop, dup, reorder, ok, kinds, minimum, _ in rows:
        frames = kinds[FrameKind.DATA]
        print(f"{drop:>6.2f} {dup:>6.2f} {reorder:>8.2f} "
              f"{'all' if ok else 'FAILED':>10} {frames:>8} "
              f"{frames / minimum:>13.2f}x", file=out)
    print(f"\n{'drop':>6} {'dup':>6} {'reorder':>8} {'acks':>6} "
          f"{'naks':>6} {'virtual_ms':>11}", file=out)
    for drop, dup, reorder, _, kinds, _, virtual_ms in rows:
        print(f"{drop:>6.2f} {dup:>6.2f} {reorder:>8.2f} "
              f"{kinds[FrameKind.ACK]:>6} {kinds[FrameKind.NAK]:>6} "
              f"{virtual_ms:>11.2f}", file=out)
    failed = not all(row[3] for row in rows)
    late_ms = 15.0
    print(f"\nreceives posted {late_ms:g} virtual ms after the sends, "
          f"no faults\n{'messages':>8} {'delivered':>10} {'frames':>8} "
          f"{'rnr_naks':>9} {'virtual_ms':>11}", file=out)
    for late_msgs in (8, 100):
        ok, kinds, _, virtual_ms = run_batch(
            0.0, 0.0, 0.0, seed, late_msgs, size, mtu, late_ms)
        failed = failed or not ok
        print(f"{late_msgs:>8} {'all' if ok else 'FAILED':>10} "
              f"{kinds[FrameKind.DATA]:>8} {kinds[FrameKind.RNR_NAK]:>9} "
              f"{virtual_ms:>11.2f}", file=out)
    sums = (*(sum(r[4][kind] for r in rows)
              for kind in (FrameKind.DATA, FrameKind.ACK, FrameKind.NAK)),
            sum(r[6] for r in rows))
    print(f"\nsummed: {sums[0]} DATA frames, {sums[1]} ACKs, "
          f"{sums[2]} NAKs, {sums[3]:.2f} virtual ms", file=out)
    return out.getvalue(), failed, sums


def seed_range(text):
    """``A-B``: the seeds from A to B, both included."""
    first, sep, last = text.partition("-")
    try:
        seeds = range(int(first), int(last) + 1)
    except ValueError:
        seeds = None
    if not sep or not seeds:
        raise argparse.ArgumentTypeError(f"want A-B with A <= B, got {text!r}")
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--messages", type=int, default=200)
    parser.add_argument("--size", type=int, default=4096)
    parser.add_argument("--mtu", type=int, default=1024)
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, help="the one seed (default 1)")
    seeds.add_argument("--seeds", type=seed_range, metavar="A-B")
    args = parser.parse_args()

    if args.seeds is None:
        tables, failed, _ = sweep(1 if args.seed is None else args.seed,
                                  args.messages, args.size, args.mtu)
        print(tables, end="")
        return 1 if failed else 0
    any_failed, total = False, [0, 0, 0, 0.0]
    for seed in args.seeds:
        tables, failed, sums = sweep(seed, args.messages, args.size,
                                     args.mtu)
        if failed:
            any_failed = True
            print(f"seed {seed}:\n{tables}")
        print(f"seed {seed}: {tables.splitlines()[-1]}", flush=True)
        total = [t + s for t, s in zip(total, sums)]
    print(f"seeds {args.seeds[0]}-{args.seeds[-1]} summed: {total[0]} DATA "
          f"frames, {total[1]} ACKs, {total[2]} NAKs, {total[3]:.2f} "
          f"virtual ms")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())

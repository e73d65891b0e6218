#!/usr/bin/env python3
"""Run the pingpong pair on the loopback fabric and dump wire statistics.

Handy for poking at the emulator without two terminals:

    python scripts/run_pingpong_loopback.py --iters 200 --size 8192 \
        --faults "drop=0.1 seed=7"
"""

import argparse
import collections
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from softverbs.fabric import parse_faults_spec
from softverbs.pingpong import PingpongConfig, run_loopback_pair
from softverbs.wire import FrameKind


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=1000)
    parser.add_argument("--size", type=int, default=4096)
    parser.add_argument("--rx-depth", type=int, default=500)
    parser.add_argument("--mtu", type=int, default=1024)
    parser.add_argument("--events", action="store_true")
    parser.add_argument("--faults", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    faults = parse_faults_spec(args.faults) if args.faults else None
    cfg = PingpongConfig(iters=args.iters, size=args.size,
                         rx_depth=args.rx_depth, mtu=args.mtu,
                         use_event=args.events)
    server, client, fabric = run_loopback_pair(cfg, faults=faults,
                                               seed=args.seed)
    print(server.report)
    print(client.report)

    by_kind = collections.Counter(e.frame.kind for e in fabric.trace)
    by_status = collections.Counter(e.status for e in fabric.trace)
    minimum = 2 * args.iters * -(-args.size // args.mtu)
    print(f"\nwire: {by_kind[FrameKind.DATA]} DATA "
          f"(minimum {minimum}), {by_kind[FrameKind.ACK]} ACK, "
          f"{by_kind[FrameKind.NAK]} NAK, {by_kind[FrameKind.RNR_NAK]} RNR_NAK")
    print(f"dispositions: {dict(by_status)}")


if __name__ == "__main__":
    main()

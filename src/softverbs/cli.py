"""Command-line front end for the pingpong benchmark.

With the default loopback fabric, one process runs both roles on one
thread over the in-process transport and prints the server's report,
the client's, and what went over the wire: the frames by kind and by
disposition, and the virtual time per iteration. With ``--fabric
socket``, each invocation is one role of a normal two-process run:
start the server (no host argument) first, then the client with the
server's hostname.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .fabric import (
    FabricConfigError,
    SocketFabric,
    load_fabric_config,
    parse_faults_spec,
)
from .oob import DEFAULT_PORT, ExchangeError
from .pingpong import (
    PingpongConfig,
    PingpongError,
    cleanup_node,
    run_loopback_pair,
    run_node,
)
from .verbs import DeviceRegistry, VerbsError
from .wire import FrameKind


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="softverbs-pingpong",
        description="Emulated RDMA send/recv pingpong benchmark.")
    p.add_argument("server_host", nargs="?", default=None,
                   help="connect to this host (client role); "
                        "omit to run as the server")
    p.add_argument("-p", "--port", type=int, default=DEFAULT_PORT,
                   help="out-of-band port for --fabric socket (default 18515)")
    p.add_argument("-i", "--ib-port", type=int, default=1,
                   help="port of the emulated HCA (default 1)")
    p.add_argument("-s", "--size", type=int, default=4096,
                   help="message size in bytes (default 4096)")
    p.add_argument("-r", "--rx-depth", type=int, default=500,
                   help="receives to post at a time (default 500)")
    p.add_argument("-n", "--iters", type=int, default=1000,
                   help="number of exchanges (default 1000)")
    p.add_argument("-l", "--sl", type=int, default=0,
                   help="service level (default 0)")
    p.add_argument("-m", "--mtu", type=int, default=1024,
                   help="path MTU (default 1024)")
    p.add_argument("-e", "--events", action="store_true",
                   help="sleep on CQ events instead of polling")
    p.add_argument("-g", "--gid-idx", type=int, default=None,
                   help="local port GID index")
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="fault injection: drop=<p> dup=<p> reorder=<p> "
                        "seed=<u64>")
    p.add_argument("--fabric", choices=("loopback", "socket"),
                   default="loopback",
                   help="transport: in-process loopback (default) or "
                        "stream sockets")
    p.add_argument("--fabric-config", metavar="FILE", default=None,
                   help="static fabric file mapping LIDs to addresses "
                        "(socket transport)")
    return p


def _config_from_args(args) -> PingpongConfig:
    return PingpongConfig(
        server_host=args.server_host, oob_port=args.port,
        ib_port=args.ib_port, size=args.size, rx_depth=args.rx_depth,
        iters=args.iters, use_event=args.events, sl=args.sl, mtu=args.mtu,
        gid_index=args.gid_idx)


def _wire_report(cfg: PingpongConfig, client, fabric) -> str:
    """The frames a loopback run sent, by kind and by disposition, and
    its virtual time per iteration: from the client's first DATA frame
    to the last ACK, which completes the last send one hop later."""
    trace = fabric.trace
    by_kind = Counter(e.frame.kind for e in trace)
    by_status = Counter(e.status for e in trace)
    minimum = 2 * cfg.iters * -(-cfg.size // cfg.mtu)
    first = next(e.t for e in trace if e.src_lid == client.my_dest.lid
                 and e.frame.kind is FrameKind.DATA)
    last_ack = max(e.t for e in trace
                   if e.frame.kind is FrameKind.ACK and e.status == "sent")
    virtual_ms = last_ack + fabric.hop_latency_ms - first
    dispositions = ", ".join(f"{n} {status}" for status, n in by_status.items())
    return (f"wire: {by_kind[FrameKind.DATA]} DATA (minimum {minimum}), "
            f"{by_kind[FrameKind.ACK]} ACK, {by_kind[FrameKind.NAK]} NAK, "
            f"{by_kind[FrameKind.RNR_NAK]} RNR_NAK; {dispositions}\n"
            f"virtual: {virtual_ms / cfg.iters:.3f} ms/iter at "
            f"{fabric.hop_latency_ms:g} ms/hop")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        faults = parse_faults_spec(args.faults) if args.faults else None
        if args.fabric == "loopback":
            if args.server_host is not None:
                print("loopback fabric runs both roles in-process; "
                      "ignoring server host", file=sys.stderr)
            server, client, fabric = run_loopback_pair(cfg, faults=faults)
            print(server.report)
            print(client.report)
            print(_wire_report(cfg, client, fabric))
            cleanup_node(server)
            cleanup_node(client)
        else:
            if args.fabric_config is None:
                print("--fabric socket requires --fabric-config",
                      file=sys.stderr)
                return 1
            config = load_fabric_config(args.fabric_config)
            registry = DeviceRegistry()
            registry.add_device("hca0")
            fabric = SocketFabric(config, faults=faults, registry=registry)
            try:
                result = run_node(cfg, registry, fabric)
                print(result.report)
                cleanup_node(result)
            finally:
                fabric.close()
        return 0
    except (PingpongError, VerbsError, ExchangeError, FabricConfigError,
            ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

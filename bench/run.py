#!/usr/bin/env python3
"""softverbs benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload stream-64k --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory, never from an installed copy. ``--trace 0`` measures
the end-to-end metrics with nothing patched. ``--trace 1`` runs each unit
twice, plain and under the span recorder, and reports the per-layer
metrics and the tracing overhead; spans go to ``.bench_out/``.

Wall-clock numbers are medians over the units of one process, so they
are warm-process figures: a cold first unit is one sample among many.
On the loopback workloads they are also given at a reference host
speed (see ``calibrate``): the shared host this was written on switches,
second by second, between states in which the same work runs up to 1.4
to 1.9 times faster, and a run's raw median follows the share of time it
spent in each. Every unit still counts for correctness, and the
unscaled medians are printed beside the figures. Set-up times are not
scaled; each set-up starts from fresh pages (see ``_malloc_trim``).
Counts, ratios and virtual times are taken over a fixed set of units
whose seeds derive from ``--seed``, so on the stepped workloads they
repeat exactly for one seed. The socket workload has no virtual clock
(its engine clock is the wall clock), so its two virtual-time metrics
read the fixed ``NOT_VIRTUAL`` and stand for nothing. The process pins
itself to one CPU (see ``pin_to_one_cpu``), so wall-clock figures are
single-CPU figures. The last line of standard output is the result
object.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

SETUPS_PER_UNIT = 3  # set-ups timed before each unit; setup_s is the median
CALIBRATION_ROUND_TRIPS = 200  # one calibration pass, a few ms
CALIBRATION_REPEATS = 3  # the fastest pass counts
REFERENCE_CALIBRATION_S = 0.004  # the reference host: 20 us a round trip
TRACED_SETUPS = 5
BEYOND = 10  # a percentile is reported only with this many samples beyond it
NOT_VIRTUAL = 1.0  # virtual-time metrics of a workload without a virtual clock


def _import_program():
    """Put the checkout's ``src/`` first on the path and import from it."""
    if not (SRC / "softverbs" / "__init__.py").is_file():
        sys.exit(f"bench: no softverbs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import softverbs
    if Path(softverbs.__file__).resolve().parent != SRC / "softverbs":
        sys.exit(f"bench: softverbs imported from {softverbs.__file__}")


@dataclass(frozen=True)
class Workload:
    run_unit: Callable[[int], "object"]
    time_setup: Callable[[int], float]
    fixed_units: int  # units whose seeds fix the deterministic metrics
    cycle: bool  # stepped units are deterministic: repeat the fixed seeds
    traced_units: int  # the first units, run plain and traced
    virtual_clock: bool = True  # False: its engine clock is the wall clock
    speed_scaled: bool = True  # wall times given at the reference speed


def catalog() -> dict[str, Workload]:
    import workloads as w

    ping64 = w.PingSpec(size=64, mtu=1024, iters=1000)  # the CLI's -n
    sock4k = w.PingSpec(size=4096, mtu=1024, iters=1100)
    stream = w.StreamSpec(size=65536, mtu=4096, window=16, messages=256)
    lossy = w.StreamSpec(size=4096, mtu=1024, window=32, messages=1000,
                         drop=0.01, dup=0.01, reorder=0.05)
    return {
        "pingpong-64": Workload(lambda s: w.run_pingpong(ping64, s),
                                lambda s: w.time_pingpong_setup(ping64, s),
                                fixed_units=12, cycle=False, traced_units=12),
        "stream-64k": Workload(lambda s: w.run_stream(stream, s),
                               lambda s: w.time_stream_setup(stream, s),
                               fixed_units=8, cycle=True, traced_units=4),
        "lossy-4k": Workload(lambda s: w.run_stream(lossy, s),
                             lambda s: w.time_stream_setup(lossy, s),
                             fixed_units=48, cycle=True, traced_units=6),
        "socket-4k": Workload(lambda s: w.run_socket(sock4k, s),
                              lambda s: w.time_socket_setup(sock4k, s),
                              fixed_units=4, cycle=False, traced_units=4,
                              virtual_clock=False, speed_scaled=False),
    }


WORKLOAD_NAMES = ("pingpong-64", "stream-64k", "lossy-4k", "socket-4k")


def unit_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def percentile(samples: list[float], q: float) -> Optional[float]:
    """The q-th percentile by nearest rank, or None when fewer than
    ``BEYOND`` samples lie above it."""
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    if len(ordered) - rank < BEYOND:
        return None
    return ordered[rank - 1]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tally:
    """Messages attempted and failed, and the first error seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, unit) -> None:
        self.attempted += unit.attempted
        self.failed += unit.failed
        if unit.error:
            self.errors.append(f"seed {unit.seed}: {unit.error}")


# -- host speed ----------------------------------------------------------------


def _calibration_pass() -> float:
    """Seconds for a fixed number of ``threading.Event`` round trips
    between this thread and a peer: interpreter work, futex wake-ups and
    thread switches, the mix the engine's units spend their time in."""
    ping, pong = threading.Event(), threading.Event()

    def peer():
        for _ in range(CALIBRATION_ROUND_TRIPS):
            ping.wait()
            ping.clear()
            pong.set()

    thread = threading.Thread(target=peer, name="bench-calibration",
                              daemon=True)
    thread.start()
    start = perf_counter()
    for _ in range(CALIBRATION_ROUND_TRIPS):
        ping.set()
        pong.wait()
        pong.clear()
    elapsed = perf_counter() - start
    thread.join()
    return elapsed


def calibrate() -> float:
    """Seconds the calibration pass takes now, the fastest of a few.

    A unit is timed between two calibrations, and its wall time is
    scaled by ``REFERENCE_CALIBRATION_S`` over their mean: the time the
    unit would have taken on a host that runs the pass in exactly the
    reference time. A change to the program moves the unit's time and
    not the pass's, so it shows in full; a change of host speed moves
    both and largely cancels. On the 2-vCPU VM the benchmark was written
    on, over 90 s per workload cut into 10 s windows, the spread of the
    window medians fell from 0.097 to 0.021 on pingpong-64, from 0.092
    to 0.030 on stream-64k and from 0.127 to 0.052 on lossy-4k. Socket
    units followed the pass less (correlation 0.45) and their spread
    rose from 0.13 to 0.22 when scaled, so socket-4k is not scaled.
    """
    return min(_calibration_pass() for _ in range(CALIBRATION_REPEATS))


def _malloc_trim() -> Callable[[int], int]:
    """glibc's ``malloc_trim``, or a stand-in that does nothing.

    Called before each timed set-up, it hands the pages the allocator
    holds free back to the system, so every set-up allocates its buffers
    from fresh pages, as a new process does. Without it a set-up reuses
    pages the last unit freed in some runs and not in others: stream-64k
    set-ups took 0.9 ms when they did and 2.7 ms when they did not, and
    the share of each, so the run's median, changed from run to run.
    """
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


# -- end-to-end run ------------------------------------------------------------


def measure(work: Workload, seed: int, seconds: float):
    """Units until ``seconds`` have passed, set-ups timed between them and
    the host's speed measured between each unit and the next."""
    start = perf_counter()
    setups, units, peak_rss_mb = [], [], 0.0
    speed = calibrate if work.speed_scaled else (
        lambda: REFERENCE_CALIBRATION_S)
    calibrations = [speed()]
    trim = _malloc_trim()
    while len(units) < work.fixed_units or perf_counter() - start < seconds:
        for _ in range(SETUPS_PER_UNIT):
            trim(0)
            setups.append(work.time_setup(unit_seed(seed, 500 + len(setups))))
        index = len(units) % work.fixed_units if work.cycle else len(units)
        units.append(work.run_unit(unit_seed(seed, index)))
        gc.collect()  # free the unit's world before the next one is built
        calibrations.append(speed())
        if len(units) == work.fixed_units:
            # the peak over a fixed amount of work, not over run length
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fixed = units[:work.fixed_units] if work.cycle else units
    tally = Tally()
    for unit in units:
        tally.add(unit)
    # a unit at the reference speed, by the calibrations on either side
    scales = [REFERENCE_CALIBRATION_S / statistics.mean(pair)
              for pair in zip(calibrations, calibrations[1:])]
    timed = [(u, k) for u, k in zip(units, scales) if u.error is None]
    usec = [u.wall_s * k * 1e6 / u.iters for u, k in timed]
    goodput = [u.payload_bytes * 8 / (u.wall_s * k) / 1e6 for u, k in timed]
    raw_usec = [u.wall_s * 1e6 / u.iters for u, _ in timed]
    raw_goodput = [u.payload_bytes * 8 / u.wall_s / 1e6 for u, _ in timed]
    counted = [u for u in fixed if u.error is None]
    latencies = [x for u in counted for x in u.latencies_ms]
    if work.virtual_clock:
        per_msg = _ratio(sum(u.engine_ms for u in counted),
                         sum(u.iters for u in counted))
        p99 = percentile(latencies, 99) or 0.0
    else:
        per_msg = p99 = NOT_VIRTUAL
    metrics = {
        "setup_s": (_median(setups), "s"),
        "usec_per_iter": (_median(usec), "us"),
        "goodput_mbit_s": (_median(goodput), "Mbit/s"),
        "amplification": (_ratio(sum(u.data_frames for u in counted),
                                 sum(u.min_frames for u in counted)), "ratio"),
        "virtual_ms_per_msg": (per_msg, "engine_ms"),
        "msg_virtual_p99_ms": (p99, "engine_ms"),
        "ok_ratio": (1.0 - _ratio(tally.failed, tally.attempted), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"{len(units)} units ({len(timed)} timed, {len(counted)} "
             f"counted), {len(setups)} set-ups, p99 over {len(latencies)} "
             f"latency samples",
             f"unscaled medians {_median(raw_usec):.6g} us/iter, "
             f"{_median(raw_goodput):.6g} Mbit/s"]
    if work.speed_scaled:
        notes.append(f"calibration pass median "
                     f"{_median(calibrations) * 1e3:.4g} ms, reference "
                     f"{REFERENCE_CALIBRATION_S * 1e3:g} ms")
    if not work.virtual_clock:
        notes.append(f"no virtual clock: virtual metrics read {NOT_VIRTUAL}")
    return metrics, tally, notes


# -- traced run ----------------------------------------------------------------


DETERMINISTIC = ("data_frames", "engine_ms", "latencies_ms", "failed")


def measure_traced(name: str, work: Workload, seed: int):
    from spans import VERBS_SETUP_SPANS, LayerStats, Recorder

    origin = perf_counter()
    recorder = Recorder()
    verbs_setup, exchange = [], []
    for j in range(TRACED_SETUPS):
        with recorder:
            work.time_setup(unit_seed(seed, 900 + j))
        stats = recorder.collect()
        verbs_setup.append(sum(stats.total[n] for n in VERBS_SETUP_SPANS))
        exchange.append(stats.total["oob.exchange"])
    tally = Tally()
    layers = LayerStats()
    traced_units, ratios, mismatches = [], [], []
    for j in range(work.traced_units):
        useed = unit_seed(seed, j)
        pair = {}
        # alternate which of the pair runs first
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if traced:
                with recorder:
                    pair[traced] = work.run_unit(useed)
                layers.add(recorder.collect())
            else:
                pair[traced] = work.run_unit(useed)
        plain, traced_unit = pair[False], pair[True]
        tally.add(plain)
        tally.add(traced_unit)
        traced_units.append(traced_unit)
        if plain.error is None and traced_unit.error is None:
            ratios.append(traced_unit.wall_s / plain.wall_s)
        if work.cycle:
            diff = [f for f in DETERMINISTIC
                    if getattr(plain, f) != getattr(traced_unit, f)]
            if diff:
                mismatches.append(f"seed {useed}: traced {diff} differ")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}.tsv.gz"
    rows = recorder.write(spans_path, origin)
    iters = sum(u.iters for u in traced_units) or 1
    metrics = layer_metrics(layers, iters, traced_units)
    metrics["verbs.setup_ms"] = (_median(verbs_setup) * 1e3, "ms")
    metrics["oob.exchange_ms"] = (_median(exchange) * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (_median(ratios), "ratio")
    notes = [f"{len(traced_units)} traced units, {iters} iterations, "
             f"{rows} spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, tally, notes, mismatches


def layer_metrics(layers, iters: int, units) -> dict:
    calls, total, self_time, counts = (layers.calls, layers.total,
                                       layers.self_time, layers.counts)

    def per_iter_us(span: str, source=None):
        return ((source or self_time)[span] * 1e6 / iters, "us/iter")

    def per_iter_calls(span: str):
        return (calls[span] / iters, "calls/iter")

    frames = counts["frames.DATA"] + counts["frames.ACK"] + \
        counts["frames.RNR_NAK"]
    return {
        "verbs.post_send.self_us": per_iter_us("verbs.post_send"),
        "verbs.post_recv.self_us": per_iter_us("verbs.post_recv"),
        "verbs.poll.calls": per_iter_calls("verbs.poll"),
        "verbs.poll.self_us": per_iter_us("verbs.poll"),
        "verbs.poll.empty_ratio": (_ratio(counts["verbs.poll.empty"],
                                          calls["verbs.poll"]), "ratio"),
        "verbs.wait_for_completion.wait_us":
            per_iter_us("verbs.wait_for_completion", total),
        "rc.transmit.self_us": per_iter_us("rc.transmit"),
        "rc.on_data.calls": per_iter_calls("rc.on_data"),
        "rc.on_data.self_us": per_iter_us("rc.on_data"),
        "rc.on_ack.calls": per_iter_calls("rc.on_ack"),
        "rc.on_ack.self_us": per_iter_us("rc.on_ack"),
        "rc.acks_per_data": (_ratio(counts["frames.ACK"],
                                    counts["frames.DATA"]), "ratio"),
        "rc.useful_data_ratio": (_ratio(counts["rc.on_data.accepted"],
                                        calls["rc.on_data"]), "ratio"),
        "rc.timeout_tick.calls": per_iter_calls("rc.timeout_tick"),
        "rc.timeout_tick.useful_ratio": (
            _ratio(counts["rc.timeout_tick.useful"],
                   calls["rc.timeout_tick"]), "ratio"),
        "rc.rnr_naks": (counts["frames.RNR_NAK"], "count"),
        "loopback.events_per_frame": (_ratio(calls["loopback.schedule"],
                                             frames), "events/frame"),
        "loopback.step.self_us": per_iter_us("loopback.step"),
        "loopback.schedule.self_us": per_iter_us("loopback.schedule"),
        "loopback.deliver.self_us": per_iter_us("loopback.deliver"),
        "loopback.trace_entries": (sum(u.trace_entries for u in units)
                                   / iters, "entries/iter"),
        "wire.encode.calls": per_iter_calls("wire.encode"),
        "wire.encode.self_us": per_iter_us("wire.encode"),
        "wire.decode.calls": per_iter_calls("wire.decode"),
        "wire.decode.self_us": per_iter_us("wire.decode"),
        "socket.deliver.self_us": per_iter_us("socket.deliver"),
        "socket.handoff_us": (_median(layers.handoffs) * 1e6, "us"),
        "pingpong.run_loop.self_us": per_iter_us("pingpong.run_loop"),
    }


# -- entry points --------------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Run every thread of this process on one CPU; threads started
    later inherit the mask.

    Unpinned, the role, pacer and socket threads hand off across CPUs,
    and the cost of those wake-ups changes from process to process: on a
    2-vCPU VM one process ran pingpong-64 at a steady 165 us/iter and the
    next at 390, far beyond any bound a run could be held to. Pinned, the
    figures are single-CPU figures: hand-offs still cost a thread switch
    (``verbs.wait_for_completion.wait_us``, ``socket.handoff_us``), but no
    cross-CPU wake-up.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_to_one_cpu()
    _import_program()
    work = catalog()[name]
    mismatches: list[str] = []
    if trace:
        metrics, tally, notes, mismatches = measure_traced(name, work, seed)
    else:
        metrics, tally, notes = measure(work, seed, seconds)
    correct = tally.failed == 0 and not tally.errors and not mismatches
    print(f"{name} seed={seed} trace={int(trace)}: "
          f"{'correct' if correct else 'NOT CORRECT'}, "
          f"{tally.failed} of {tally.attempted} messages failed; "
          + "; ".join(notes))
    for problem in tally.errors[:5] + mismatches[:5]:
        print(f"  problem: {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:36s} {value:14.6g} {unit}")
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a process of its own, so peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=300, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

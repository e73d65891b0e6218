#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write the
result as a ``BENCH_*.json`` file.

    python scripts/bench_pairs.py --parent HEAD~1 --workload pingpong-64 \\
        --seeds 9101-9110 --seconds 2 --out BENCH_x.json

The change is this checkout's working tree; the parent is the commit
``--parent`` names, unpacked with ``git archive`` into a temporary
directory that is always removed again, so nothing is registered in the
repository's ``.git``. Each tree runs its own ``bench/run.py`` as a
subprocess (``--trace 0``), one pair per seed, and the side that runs
first alternates from pair to pair. The file records the commands, the
seeds and the run order, every run's metrics, each side's median and
quartiles (``statistics.quantiles(n=4)``, exclusive), in how many pairs
the change was better and how many tied (the direction of "better" is
``BENCHMARK.json``'s), whether the metrics that do not depend on the
wall clock are identical seed for seed, each tree's commit and a hash of
its ``bench/`` directory (a pair across a benchmark change says so), and
the machine: CPU model, CPU count and Python version.

Each tree also runs its own ``scripts/fault_sweep.py --seeds 1-20``
once, and the file records each tree's summed DATA
frames, ACKs, NAKs and virtual ms, and every row that reads FAILED: the
frames a change sends under faults, which the benchmark's one lossy
workload samples only.

A run that is not correct, or that prints no result line, stops the tool
with exit status 1, and no file is written; so does a sweep that prints
no summed line. A FAILED sweep row is recorded, not refused.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# metrics that a seed fixes on the stepped workloads: they must not move
# between two trees whose change touches no behaviour. socket-4k has no
# virtual clock, so its two virtual-time metrics read a constant
DETERMINISTIC = ("amplification", "virtual_ms_per_msg",
                 "msg_virtual_p99_ms", "ok_ratio")
SWEEP_ARGS = ["scripts/fault_sweep.py", "--seeds", "1-20"]
# the sweep's last line, and the line that opens a failed seed's tables
_SWEEP_SUMS = re.compile(r"seeds \S+ summed: (\d+) DATA frames, (\d+) ACKs, "
                         r"(\d+) NAKs, ([\d.]+) virtual ms")
_SWEEP_SEED = re.compile(r"seed (\d+):")


class IncorrectRun(Exception):
    """A benchmark run that failed, printed no result or was not correct."""


def parse_seeds(text: str) -> list[int]:
    """``A-B`` (inclusive) or a single ``A``."""
    first, sep, last = text.partition("-")
    lo, hi = int(first), int(last) if sep else int(first)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def bench_args(workload: str, seed, seconds: float) -> list[str]:
    """``bench/run.py`` and its arguments, for one run in its tree."""
    return ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]


def parse_result(stdout: str, workload: str) -> dict[str, dict[str, float]]:
    """The metric values of ``bench/run.py``'s last output line, by
    workload; raises ``IncorrectRun`` unless every workload is correct.
    With one workload its metrics sit at the top level of the line, with
    ``all`` under ``workloads``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise IncorrectRun("no result line") from None
    parts = result.get("workloads") or {workload: result}
    if not result.get("correct"):
        bad = sorted(w for w, r in parts.items() if not r.get("correct"))
        raise IncorrectRun(f"not correct: {', '.join(bad) or 'run'}")
    return {w: {name: m["value"] for name, m in r["metrics"].items()}
            for w, r in parts.items()}


def parse_sweep(stdout: str) -> dict:
    """The sums of ``fault_sweep.py --seeds``'s last line, and each row
    that reads FAILED, as ``seed N: <row>``; raises ``IncorrectRun`` if
    there is no summed line."""
    lines = [line.strip() for line in stdout.splitlines() if line.strip()]
    sums = _SWEEP_SUMS.fullmatch(lines[-1]) if lines else None
    if sums is None:
        raise IncorrectRun("sweep: no summed line")
    failed, seed = [], None
    for line in lines:
        if opened := _SWEEP_SEED.fullmatch(line):
            seed = opened[1]
        elif "FAILED" in line:
            failed.append(f"seed {seed}: {' '.join(line.split())}")
    data, acks, naks, virtual_ms = sums.groups()
    return {"data_frames": int(data), "acks": int(acks), "naks": int(naks),
            "virtual_ms": float(virtual_ms), "failed_rows": failed}


def run_pairs(workload: str, seeds: list[int],
              run: Callable[[str, int], str]) -> tuple[dict, list]:
    """Run ``run(side, seed)``, which returns the run's output, for both
    sides on every seed, the parent first on even pairs and the change
    first on odd ones. Returns each side's parsed runs by seed, and the
    order."""
    runs: dict[str, dict[int, dict]] = {side: {} for side in SIDES}
    order = []
    for i, seed in enumerate(seeds):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append([seed, *sides])
        for side in sides:
            try:
                runs[side][seed] = parse_result(run(side, seed), workload)
            except IncorrectRun as exc:
                raise IncorrectRun(f"{side}, seed {seed}: {exc}") from None
    return runs, order


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3; a single run is all three."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return [q1, median, q3]


def summarize(runs: dict, seeds: list[int], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's quartiles, the pairs the change
    won and tied; and per workload, whether each ``DETERMINISTIC`` metric
    read the same on both sides for every seed."""
    parent, change = runs["parent"], runs["change"]
    summary = {}
    for workload, metrics in parent[seeds[0]].items():
        rows = {}
        for name in metrics:
            old = [parent[s][workload][name] for s in seeds]
            new = [change[s][workload][name] for s in seeds]
            sign = -1 if better.get(name, "lower") == "lower" else 1
            rows[name] = {
                "better": better.get(name, "lower"),
                "parent_q1_median_q3": quartiles(old),
                "change_q1_median_q3": quartiles(new),
                "change_better_pairs": sum(sign * (b - a) > 0
                                           for a, b in zip(old, new)),
                "tied_pairs": sum(a == b for a, b in zip(old, new)),
                "pairs": len(seeds),
            }
        rows["identical_seed_for_seed"] = {
            name: all(parent[s][workload][name] == change[s][workload][name]
                      for s in seeds)
            for name in DETERMINISTIC if name in metrics}
        summary[workload] = rows
    return summary


def bench_hash(tree: Path) -> str:
    """sha256 over the path and bytes of every file under ``bench/``."""
    digest = hashlib.sha256()
    for path in sorted((tree / "bench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_bench(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    """Run ``args``, a script of ``tree`` (its own ``bench/run.py`` or
    ``scripts/fault_sweep.py``) and its arguments, in ``tree``."""
    return subprocess.run([sys.executable, *args], cwd=tree,
                          capture_output=True, text=True)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


@contextmanager
def parent_tree(sha: str):
    """The parent commit's files in a temporary directory, removed when
    the block ends, however it ends."""
    data = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tmp, filter="data")
            else:
                tar.extractall(tmp)
        yield Path(tmp)


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="the commit to compare against")
    ap.add_argument("--workload", required=True,
                    help="a bench/run.py workload, or all")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="A-B: one pair per seed")
    ap.add_argument("--seconds", required=True, type=float,
                    help="bench/run.py --seconds")
    ap.add_argument("--out", required=True, type=Path,
                    help="the JSON file to write")
    args = ap.parse_args(argv)
    better = {m["name"]: m["better"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent_sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change_sha = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    with parent_tree(parent_sha) as old:
        trees = {"parent": old, "change": ROOT}

        def run(side: str, seed: int) -> str:
            print(f"bench_pairs: {side} seed {seed}", file=sys.stderr)
            done = run_bench(trees[side],
                             bench_args(args.workload, seed, args.seconds))
            if done.returncode:
                raise IncorrectRun(f"exit status {done.returncode}: "
                                   f"{done.stderr.strip()[-500:]}")
            return done.stdout

        def sweep(side: str) -> dict:
            print(f"bench_pairs: {side} sweep", file=sys.stderr)
            try:
                return parse_sweep(run_bench(trees[side], SWEEP_ARGS).stdout)
            except IncorrectRun as exc:
                raise IncorrectRun(f"{side}: {exc}") from None

        try:
            sweeps = {side: sweep(side) for side in SIDES}
            runs, order = run_pairs(args.workload, args.seeds, run)
        except IncorrectRun as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1
        hashes = {side: bench_hash(tree) for side, tree in trees.items()}
    record = {
        "tool": "scripts/bench_pairs.py",
        "command": " ".join(["python3", *bench_args(args.workload, "SEED",
                                                    args.seconds)]),
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "order": order,
        "machine": machine(),
        "parent": {"commit": parent_sha, "bench_sha256": hashes["parent"],
                   "runs": runs["parent"]},
        "change": {"commit": change_sha, "uncommitted_changes": dirty,
                   "bench_sha256": hashes["change"], "runs": runs["change"]},
        "summary": summarize(runs, args.seeds, better),
        "sweep": {"command": " ".join(["python3", *SWEEP_ARGS]), **sweeps,
                  "identical": sweeps["parent"] == sweeps["change"]},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    # a TERM unwinds as an interrupt does: the running benchmark is
    # killed and the parent's tree removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())

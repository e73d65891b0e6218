"""scripts/bench_pairs.py on canned ``bench/run.py`` result lines: no
benchmark runs here."""

import importlib.util
import json
import statistics
import subprocess
from contextlib import contextmanager
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _metrics(usec, amplification=1.0, goodput=10.0):
    values = {"usec_per_iter": (usec, "us"),
              "goodput_mbit_s": (goodput, "Mbit/s"),
              "amplification": (amplification, "ratio"),
              "virtual_ms_per_msg": (2.001, "engine_ms")}
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def one_line(usec, correct=True, **kw):
    """A one-workload result line: its metrics at the top level."""
    return "  usec_per_iter ...\n" + json.dumps(
        {"correct": correct, "attempted": 10, "failed": 0,
         "metrics": _metrics(usec, **kw)})


def all_line(usecs, correct=None):
    """An ``--workload all`` result line: metrics under ``workloads``."""
    correct = correct or {}
    parts = {w: {"correct": correct.get(w, True), "attempted": 5,
                 "failed": 0, "metrics": _metrics(u)}
             for w, u in usecs.items()}
    return json.dumps({"correct": all(p["correct"] for p in parts.values()),
                       "attempted": 10, "failed": 0, "workloads": parts})


def test_seed_ranges():
    assert bench_pairs.parse_seeds("8000-8009") == list(range(8000, 8010))
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(Exception):
        bench_pairs.parse_seeds("9-8")


def test_result_lines_of_one_workload_and_of_all():
    assert bench_pairs.parse_result(one_line(80.0), "pingpong-64") == {
        "pingpong-64": {"usec_per_iter": 80.0, "goodput_mbit_s": 10.0,
                        "amplification": 1.0, "virtual_ms_per_msg": 2.001}}
    parsed = bench_pairs.parse_result(
        all_line({"pingpong-64": 80.0, "lossy-4k": 60.0}), "all")
    assert set(parsed) == {"pingpong-64", "lossy-4k"}
    assert parsed["lossy-4k"]["usec_per_iter"] == 60.0


def test_an_incorrect_or_missing_result_is_refused():
    with pytest.raises(bench_pairs.IncorrectRun,
                       match="not correct: pingpong-64"):
        bench_pairs.parse_result(one_line(80.0, correct=False), "pingpong-64")
    with pytest.raises(bench_pairs.IncorrectRun,
                       match="not correct: lossy-4k"):
        bench_pairs.parse_result(
            all_line({"pingpong-64": 80.0, "lossy-4k": 60.0},
                     correct={"lossy-4k": False}), "all")
    for garbage in ("", "Traceback (most recent call last):\n  oops"):
        with pytest.raises(bench_pairs.IncorrectRun, match="no result line"):
            bench_pairs.parse_result(garbage, "pingpong-64")


SWEEP_ROW = "  0.30   0.10     0.10     {}     2026          2.53x"


def sweep_output(data=267468, failed_seed=None):
    """``fault_sweep.py --seeds 1-3`` output; a failed seed's tables come
    before its line."""
    lines = []
    for seed in (1, 2, 3):
        if seed == failed_seed:
            lines += [f"seed {seed}:", SWEEP_ROW.format("   all"),
                      SWEEP_ROW.format("FAILED"), ""]
        lines.append(f"seed {seed}: summed: 13524 DATA frames, 243 ACKs, "
                     f"1228 NAKs, 2109.29 virtual ms")
    lines.append(f"seeds 1-3 summed: {data} DATA frames, 5357 ACKs, "
                 f"25207 NAKs, 46487.67 virtual ms")
    return "\n".join(lines) + "\n"


def test_a_sweep_yields_its_sums_and_its_failed_rows():
    assert bench_pairs.parse_sweep(sweep_output()) == {
        "data_frames": 267468, "acks": 5357, "naks": 25207,
        "virtual_ms": 46487.67, "failed_rows": []}
    assert bench_pairs.parse_sweep(sweep_output(failed_seed=2))[
        "failed_rows"] == ["seed 2: 0.30 0.10 0.10 FAILED 2026 2.53x"]
    for garbage in ("", "Traceback (most recent call last):\n  oops",
                    sweep_output().rsplit("seeds", 1)[0]):
        with pytest.raises(bench_pairs.IncorrectRun,
                           match="sweep: no summed line"):
            bench_pairs.parse_sweep(garbage)


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run(side, seed):
        calls.append((side, seed))
        return one_line(80.0 if side == "parent" else 70.0 + seed)

    runs, order = bench_pairs.run_pairs("pingpong-64", [1, 2, 3], run)
    assert order == [[1, "parent", "change"], [2, "change", "parent"],
                     [3, "parent", "change"]]
    assert calls == [("parent", 1), ("change", 1), ("change", 2),
                     ("parent", 2), ("parent", 3), ("change", 3)]
    assert runs["change"][3]["pingpong-64"]["usec_per_iter"] == 73.0


def test_a_bad_run_names_its_side_and_seed():
    def run(side, seed):
        return one_line(80.0, correct=not (side == "change" and seed == 2))

    with pytest.raises(bench_pairs.IncorrectRun, match="change, seed 2"):
        bench_pairs.run_pairs("pingpong-64", [1, 2, 3], run)


def test_summary_quartiles_wins_ties_and_identity():
    seeds = [1, 2, 3, 4, 5]
    old = [80.0, 82.0, 79.0, 85.0, 81.0]
    new = [75.0, 83.0, 74.0, 76.0, 81.0]
    runs = {
        "parent": {s: {"w": {"usec_per_iter": u, "goodput_mbit_s": 10.0,
                             "amplification": 1.0}}
                   for s, u in zip(seeds, old)},
        "change": {s: {"w": {"usec_per_iter": u,
                             "goodput_mbit_s": 10.0 + s % 2,
                             "amplification": 1.0 + (s == 4) * 0.01}}
                   for s, u in zip(seeds, new)},
    }
    better = {"usec_per_iter": "lower", "goodput_mbit_s": "higher"}
    rows = bench_pairs.summarize(runs, seeds, better)["w"]
    usec = rows["usec_per_iter"]
    assert usec["parent_q1_median_q3"] == statistics.quantiles(old, n=4)
    assert usec["change_q1_median_q3"] == statistics.quantiles(new, n=4)
    assert (usec["change_better_pairs"], usec["tied_pairs"]) == (3, 1)
    assert usec["pairs"] == 5
    goodput = rows["goodput_mbit_s"]
    assert (goodput["change_better_pairs"], goodput["tied_pairs"]) == (3, 2)
    assert rows["identical_seed_for_seed"] == {"amplification": False}


def _stub_trees(monkeypatch, tmp_path, outputs,
                sweeps=lambda side: sweep_output()):
    """Stub git and the parent checkout, and answer each bench run from
    ``outputs(side, seed)`` and each sweep from ``sweeps(side)``; the
    change tree is the real checkout, whose ``bench/`` is hashed as it
    is."""
    parent = tmp_path / "parent"
    (parent / "bench").mkdir(parents=True)
    (parent / "bench" / "run.py").write_text("# the parent's bench\n")

    @contextmanager
    def parent_tree(sha):
        yield parent

    def run_bench(tree, args):
        side = "parent" if tree == parent else "change"
        if args == bench_pairs.SWEEP_ARGS:
            return subprocess.CompletedProcess(args, 0, sweeps(side), "")
        out = outputs(side, int(args[args.index("--seed") + 1]))
        if isinstance(out, int):  # an exit status
            return subprocess.CompletedProcess(args, out, "", "Traceback")
        return subprocess.CompletedProcess(args, 0, out, "")

    monkeypatch.setattr(bench_pairs, "parent_tree", parent_tree)
    monkeypatch.setattr(bench_pairs, "_git", lambda *a: {
        "rev-parse": "f" * 40, "status": ""}[a[0]])
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)


def test_main_writes_the_record(monkeypatch, tmp_path):
    _stub_trees(monkeypatch, tmp_path, lambda side, seed: one_line(
        80.0 + seed if side == "parent" else 70.0 + seed))
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--workload",
                             "pingpong-64", "--seeds", "1-4", "--seconds",
                             "2", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["command"] == ("python3 bench/run.py --workload pingpong-64"
                                 " --seed SEED --seconds 2.0 --trace 0")
    assert record["seeds"] == [1, 2, 3, 4]
    assert [o[1] for o in record["order"]] == ["parent", "change"] * 2
    assert set(record["machine"]) == {"cpu", "cpus", "python"}
    assert record["parent"]["bench_sha256"] != record["change"]["bench_sha256"]
    assert record["change"]["uncommitted_changes"] is False
    assert record["sweep"]["identical"] is True
    assert record["parent"]["runs"]["3"]["pingpong-64"]["usec_per_iter"] == 83
    usec = record["summary"]["pingpong-64"]["usec_per_iter"]
    assert usec["change_better_pairs"] == 4
    assert record["summary"]["pingpong-64"]["identical_seed_for_seed"] == {
        "amplification": True, "virtual_ms_per_msg": True}


def test_main_exits_1_on_an_incorrect_run_and_writes_nothing(
        monkeypatch, tmp_path, capsys):
    _stub_trees(monkeypatch, tmp_path, lambda side, seed: one_line(
        80.0, correct=(side, seed) != ("parent", 2)))
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--workload",
                             "pingpong-64", "--seeds", "1-3", "--seconds",
                             "2", "--out", str(out)]) == 1
    assert not out.exists()
    assert "parent, seed 2: not correct" in capsys.readouterr().err


def test_main_exits_1_when_a_run_crashes(monkeypatch, tmp_path, capsys):
    _stub_trees(monkeypatch, tmp_path, lambda side, seed: (
        3 if side == "change" else one_line(80.0)))
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--workload", "all",
                             "--seeds", "5", "--seconds", "0",
                             "--out", str(out)]) == 1
    assert not out.exists()
    assert "change, seed 5: exit status 3" in capsys.readouterr().err


def test_main_records_each_trees_sweep(monkeypatch, tmp_path):
    _stub_trees(monkeypatch, tmp_path, lambda side, seed: one_line(80.0),
                lambda side: sweep_output(
                    failed_seed=2 if side == "change" else None))
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--workload",
                             "pingpong-64", "--seeds", "1-2", "--seconds",
                             "2", "--out", str(out)]) == 0
    sweep = json.loads(out.read_text())["sweep"]
    assert sweep["command"] == "python3 scripts/fault_sweep.py --seeds 1-20"
    assert sweep["parent"]["data_frames"] == 267468
    assert sweep["parent"]["failed_rows"] == []
    assert sweep["change"]["failed_rows"] == [
        "seed 2: 0.30 0.10 0.10 FAILED 2026 2.53x"]
    assert sweep["identical"] is False


def test_main_exits_1_on_a_sweep_without_sums(monkeypatch, tmp_path, capsys):
    _stub_trees(monkeypatch, tmp_path, lambda side, seed: one_line(80.0),
                lambda side: "" if side == "parent" else sweep_output())
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--workload",
                             "pingpong-64", "--seeds", "1", "--seconds",
                             "2", "--out", str(out)]) == 1
    assert not out.exists()
    assert "parent: sweep: no summed line" in capsys.readouterr().err

"""Checks on the benchmark itself: determinism, cross-checks, correctness.

Run from the repository root:

    python -m pytest -q bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import workloads as w  # noqa: E402
from run import DETERMINISTIC, catalog  # noqa: E402
from spans import Recorder  # noqa: E402
from softverbs import fabric, pingpong, verbs  # noqa: E402
from softverbs.wire import Frame, FrameKind, SegMark  # noqa: E402

LOSSY = w.StreamSpec(size=4096, mtu=1024, window=32, messages=300,
                     drop=0.01, dup=0.01, reorder=0.05)
LOSSLESS = w.StreamSpec(size=65536, mtu=4096, window=16, messages=64)


def deterministic(unit):
    return tuple(getattr(unit, f) for f in DETERMINISTIC)


def traced(spec, seed):
    recorder = Recorder()
    with recorder:
        unit = w.run_stream(spec, seed)
    return unit, recorder.collect()


def test_lossy_metrics_repeat_for_a_seed_and_change_with_it():
    first, again, other = (w.run_stream(LOSSY, s) for s in (7, 7, 8))
    assert first.failed == 0 and first.error is None
    assert deterministic(first) == deterministic(again)
    assert first.data_frames != other.data_frames
    assert first.engine_ms != other.engine_ms
    assert first.latencies_ms != other.latencies_ms


def test_layer_call_counts_repeat_for_a_seed_and_change_with_it():
    (_, first), (_, again), (_, other) = (traced(LOSSY, s) for s in (7, 7, 8))
    assert first.calls == again.calls
    assert first.counts == again.counts
    assert first.calls != other.calls


def test_lossless_stream_repeats_and_its_engine_metrics_ignore_the_seed():
    # without faults the engine's schedule depends on sizes alone: only
    # the payloads and PSNs change with the seed
    first, again, other = (w.run_stream(LOSSLESS, s) for s in (3, 3, 4))
    assert deterministic(first) == deterministic(again)
    assert first.failed == 0
    assert first.data_frames == first.min_frames == 64 * 16
    assert deterministic(first) == deterministic(other)
    assert w.StreamInputs(LOSSLESS, 3).bodies != \
        w.StreamInputs(LOSSLESS, 4).bodies


@pytest.mark.parametrize("spec", [LOSSY, LOSSLESS])
def test_traced_run_matches_the_plain_run_exactly(spec):
    plain = w.run_stream(spec, 11)
    traced_unit, stats = traced(spec, 11)
    assert deterministic(traced_unit) == deterministic(plain)
    assert stats.calls["rc.on_data"] > 0
    assert stats.counts["frames.DATA"] == plain.data_frames


def test_recorder_restores_every_patched_name():
    before = (fabric.Fabric.on_data, fabric.encode_frame,
              verbs.CompletionQueue.poll, fabric.LoopbackFabric._drain)
    with Recorder():
        assert fabric.Fabric.on_data is not before[0]
        assert fabric.encode_frame is not before[1]
    assert (fabric.Fabric.on_data, fabric.encode_frame,
            verbs.CompletionQueue.poll,
            fabric.LoopbackFabric._drain) == before


def _fault_sweep_frames(drop):
    out = subprocess.run([sys.executable, "scripts/fault_sweep.py"],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout
    for line in out.splitlines()[1:]:
        d, dup, reorder, delivered, frames, _ = line.split()
        if (float(d), float(dup), float(reorder)) == (drop, 0.0, 0.0):
            assert delivered == "all"
            return int(frames)
    raise AssertionError(f"no drop={drop} row in:\n{out}")


@pytest.mark.parametrize("drop", [0.0, 0.05])
def test_post_all_mode_reproduces_the_fault_sweep_frame_count(drop):
    spec = w.StreamSpec(size=4096, mtu=1024, window=None, messages=200,
                        drop=drop)
    unit = w.run_stream(spec, 1)
    assert unit.failed == 0
    assert unit.data_frames == _fault_sweep_frames(drop)
    if drop == 0.0:
        assert unit.data_frames == 800


def test_a_dead_wire_fails_every_message_without_raising():
    spec = w.StreamSpec(size=4096, mtu=1024, window=4, messages=10, drop=1.0)
    unit = w.run_stream(spec, 1)
    assert unit.failed == unit.attempted == 10


def test_a_corrupted_delivery_is_counted(monkeypatch):
    scatter = verbs.PostedRecv.scatter

    def corrupt(self, message):
        scatter(self, message[:-1] + bytes([message[-1] ^ 0xFF]))

    monkeypatch.setattr(verbs.PostedRecv, "scatter", corrupt)
    unit = w.run_stream(LOSSLESS, 1)
    assert unit.failed == LOSSLESS.messages


def test_pingpong_and_socket_units_check_out():
    ping = w.run_pingpong(w.PingSpec(size=64, mtu=1024, iters=50), 1)
    assert (ping.failed, ping.error) == (0, None)
    # a lossless pingpong now and then retransmits one frame (a known
    # defect the amplification metric shows), so this is no equality
    assert ping.data_frames >= ping.min_frames == 100
    assert len(ping.latencies_ms) == 49
    sock = w.run_socket(w.PingSpec(size=4096, mtu=1024, iters=30), 1)
    assert (sock.failed, sock.error) == (0, None)
    assert sock.data_frames >= sock.min_frames == 240
    assert sock.latencies_ms == [] and sock.engine_ms == 0.0


def _corrupt_nth_message(monkeypatch, n):
    """Flip the last byte of the n-th message any QP transmits."""
    transmit = fabric.Fabric.transmit_message
    calls = []

    def corrupting(self, qp, payload, *args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
        return transmit(self, qp, payload, *args, **kwargs)

    monkeypatch.setattr(fabric.Fabric, "transmit_message", corrupting)


@pytest.mark.parametrize("run, size", [(w.run_pingpong, 64),
                                       (w.run_socket, 4096)])
def test_a_corrupt_message_mid_run_is_counted(monkeypatch, run, size):
    # the roles echo the buffer a message lands in, so the flipped byte
    # rides every later message too: 51 of the 60 fail, not just the last
    # one each receiver's buffer holds at the end
    _corrupt_nth_message(monkeypatch, 10)
    unit = run(w.PingSpec(size=size, mtu=1024, iters=30), 1)
    assert (unit.failed, unit.error) == (60 - 9, None)


def _data(psn, seg, payload):
    return Frame(FrameKind.DATA, 1, psn, seg, payload)


def test_only_whole_exact_messages_count_as_intact():
    fill = bytes([pingpong.CLIENT_FILL]) * 4
    F, M, L, O = SegMark.FIRST, SegMark.MIDDLE, SegMark.LAST, SegMark.ONLY
    whole = [_data(1, F, fill), _data(2, M, fill), _data(3, L, fill)]
    assert w._intact_messages(whole, 12) == 1
    # a lost middle segment leaves the message short
    assert w._intact_messages([whole[0], whole[2]], 12) == 0
    # a continuation whose start never went out is no message
    orphan = [_data(8, M, fill), _data(9, L, fill)]
    assert w._intact_messages(orphan + whole, 12) == 1
    # a retransmitted copy must carry the same exact bytes
    assert w._intact_messages(whole + [_data(2, M, b"\0" * 4)], 12) == 0
    assert w._intact_messages(whole + [whole[1]], 12) == 1
    assert w._intact_messages([_data(6, O, fill), _data(7, O, fill[:3])],
                              4) == 1


def test_wall_times_are_given_at_the_reference_speed(monkeypatch):
    # a host that takes twice the reference time for the calibration pass
    # runs at half speed: a unit's wall time counts half, set-up in full
    unit = w.Unit(1, iters=10, attempted=10, payload_bytes=1000,
                  min_frames=10, wall_s=0.001)
    work = run.Workload(lambda s: dataclasses.replace(unit, seed=s),
                        lambda s: 0.5, fixed_units=2, cycle=True,
                        traced_units=1)
    monkeypatch.setattr(run, "calibrate",
                        lambda: 2 * run.REFERENCE_CALIBRATION_S)
    metrics, tally, _ = run.measure(work, 1, 0.0)
    assert metrics["usec_per_iter"][0] == pytest.approx(50.0)
    assert metrics["goodput_mbit_s"][0] == pytest.approx(16.0)
    assert metrics["setup_s"][0] == 0.5
    assert tally.attempted == 20 and tally.failed == 0
    unscaled = dataclasses.replace(work, speed_scaled=False)
    assert run.measure(unscaled, 1, 0.0)[0]["usec_per_iter"][0] == \
        pytest.approx(100.0)


def test_setup_timers_cover_every_workload():
    for name, work in catalog().items():
        assert work.time_setup(1) > 0, name


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream-64k",
         "--seed", "1", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()

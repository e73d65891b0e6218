import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import free_port
from softverbs import pingpong
from softverbs.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.server_host is None
        assert args.port == 18515
        assert args.ib_port == 1
        assert args.size == 4096
        assert args.rx_depth == 500
        assert args.iters == 1000
        assert args.sl == 0
        assert args.mtu == 1024
        assert args.events is False
        assert args.gid_idx is None
        assert args.faults is None
        assert args.fabric == "loopback"
        assert args.fabric_config is None

    def test_client_role_and_overrides(self):
        args = build_parser().parse_args(
            ["server.example", "--port", "9999", "--size", "64",
             "--iters", "5", "--events", "--fabric", "socket",
             "--fabric-config", "fab.conf", "--faults", "drop=0.1 seed=2"])
        assert args.server_host == "server.example"
        assert args.port == 9999
        assert args.events is True
        assert args.fabric == "socket"


class TestLoopbackCli:
    def test_small_run_exits_zero_and_reports(self, capsys):
        rc = main(["--iters", "5", "--rx-depth", "4", "--size", "256",
                   "--port", str(free_port())])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("2560 bytes in") == 2  # one report per role
        assert re.search(r"  local address:  LID 0x0001, QPN 0x[0-9a-f]{6}, "
                         r"PSN 0x[0-9a-f]{6}, GID ::", out)

    def test_fault_flag_accepted(self, capsys):
        rc = main(["--iters", "3", "--rx-depth", "2", "--size", "64",
                   "--port", str(free_port()),
                   "--faults", "drop=0.1 seed=9"])
        assert rc == 0

    def test_wire_and_virtual_lines_follow_the_reports(self, capsys):
        rc = main(["--iters", "5", "--size", "64",
                   "--faults", "drop=0.1 seed=7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"^wire: \d+ DATA \(minimum 10\)", out, re.M)
        assert re.search(r"^virtual: [\d.]+ ms/iter at 1 ms/hop$", out, re.M)

    def test_the_readme_fault_example_prints_what_the_readme_shows(
            self, capsys):
        readme = (Path(__file__).resolve().parents[1] /
                  "README.md").read_text(encoding="utf-8")
        command, wire, virtual = re.search(
            r"^\$ softverbs-pingpong (.*--faults.*)\n  \.\.\.\n"
            r"(wire: .*)\n(virtual: .*)$", readme, re.M).groups()
        assert main(shlex.split(command)) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out
                if line.startswith(("wire: ", "virtual: "))] == \
            [wire, virtual]

    @pytest.mark.parametrize("argv, message", [
        (["-i", "2"], "Failed to modify QP to INIT"),
        (["-m", "300", "-n", "5"], "Failed to modify QP to RTR"),
        (["--faults", "drop=1.0"], "Failed status RetryExceeded for wr_id 2"),
        (["-g", "1"], "can't read sgid of index 1"),
        (["-l", "16"], "Failed to modify QP to RTR"),
    ])
    def test_a_failed_verbs_step_exits_one_with_its_message(
            self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err == message + "\n"

    def test_a_server_host_is_ignored_with_a_warning(self, capsys):
        rc = main(["127.0.0.1", "--iters", "3", "--size", "64"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "ignoring server host" in captured.err
        assert captured.out.count("3 iters in") == 2

    def test_bad_faults_spec_exits_one(self, capsys):
        rc = main(["--faults", "drop=much", "--port", str(free_port())])
        assert rc == 1
        assert capsys.readouterr().err


class TestSocketCli:
    def test_missing_config_exits_one(self, capsys):
        rc = main(["--fabric", "socket"])
        assert rc == 1
        assert "fabric-config" in capsys.readouterr().err

    def test_unreadable_config_exits_one(self, capsys, tmp_path):
        rc = main(["--fabric", "socket",
                   "--fabric-config", str(tmp_path / "missing.conf")])
        assert rc == 1

    @pytest.mark.parametrize("host, fabric_port, oob_port, message", [
        ([], 70000, None, "line 1: port must be within 1-65535, got 70000"),
        ([], None, 70000, "oob_port must be within 1-65535, got 70000"),
        (["127.0.0.1"], None, 70000,
         "oob_port must be within 1-65535, got 70000"),
    ], ids=["fabric file", "server -p", "client -p"])
    def test_a_port_out_of_range_exits_one_with_one_line(
            self, capsys, tmp_path, host, fabric_port, oob_port, message):
        """Not ``OverflowError`` from a bind, and not a refused connect."""
        config = tmp_path / "fabric.conf"
        config.write_text(
            f"lid 1 host 127.0.0.1 port {fabric_port or free_port()}\n")
        assert main([*host, "--fabric", "socket", "--fabric-config",
                     str(config), "--port", str(oob_port or free_port())]) == 1
        assert capsys.readouterr().err == message + "\n"

    def test_a_server_and_a_client_run_end_to_end(self, capsys, tmp_path,
                                                 monkeypatch):
        config = tmp_path / "fabric.conf"
        config.write_text(f"lid 1 host 127.0.0.1 port {free_port()}\n"
                          f"lid 2 host 127.0.0.1 port {free_port()}\n")
        listening = threading.Event()
        exchange = pingpong.exchange_as_server

        def exchange_when_listening(port, mine, ready=None, **kwargs):
            return exchange(port, mine, ready=listening, **kwargs)

        monkeypatch.setattr(pingpong, "exchange_as_server",
                            exchange_when_listening)
        common = ["--fabric", "socket", "--fabric-config", str(config),
                  "--port", str(free_port()), "-n", "20", "-s", "64"]
        codes = {}

        def serve():
            codes["server"] = main(common)

        server = threading.Thread(target=serve)
        server.start()
        try:
            assert listening.wait(10), "the server never listened"
            codes["client"] = main(["127.0.0.1", *common])
        finally:
            server.join(30)
        assert not server.is_alive()
        assert codes == {"server": 0, "client": 0}
        assert capsys.readouterr().out.count("20 iters in") == 2


class TestFaultSweepScript:
    def test_runs_from_another_directory_with_pinned_totals(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / \
            "fault_sweep.py"
        # the script must find the package on its own
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        fault_rows = lines[1:lines.index("")]
        assert len(fault_rows) == 10
        assert all(row.split()[3] == "all" for row in fault_rows)
        rnr_rows = lines[-4:-2]
        assert all(row.split()[1] == "all" for row in rnr_rows)
        # the sweep's frames and virtual times, pinned
        assert lines[-1] == \
            "summed: 13524 DATA frames, 243 ACKs, 1228 NAKs, " \
            "2109.29 virtual ms"

    def test_a_seed_range_totals_its_seeds(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / \
            "fault_sweep.py"

        def sweep(*args):
            out = subprocess.run([sys.executable, str(script), "--messages",
                                  "20", *args], capture_output=True,
                                 text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            return out.stdout.splitlines()

        def sums(line):
            words = line.split("summed: ")[1].split()
            return int(words[0]), int(words[3]), int(words[5]), \
                float(words[7])

        singles = [sweep("--seed", seed)[-1] for seed in ("1", "2")]
        *per_seed, total = sweep("--seeds", "1-2")
        assert per_seed == [f"seed {seed}: {line}"
                            for seed, line in zip((1, 2), singles)]
        assert total.startswith("seeds 1-2 summed: ")
        data, acks, naks, ms = sums(total)
        (data1, acks1, naks1, ms1), (data2, acks2, naks2, ms2) = \
            map(sums, singles)
        assert (data, acks, naks) == \
            (data1 + data2, acks1 + acks2, naks1 + naks2)
        # each line rounds its own sum to 0.01 ms
        assert ms == pytest.approx(ms1 + ms2, abs=0.011)

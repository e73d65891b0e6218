import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import free_port
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


class TestLoopbackScript:
    def test_runs_from_another_directory(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / \
            "run_pingpong_loopback.py"
        # the script must find the package on its own
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, str(script), "--iters", "5", "--size", "64",
             "--faults", "drop=0.1 seed=7"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=60)
        assert out.returncode == 0, out.stderr
        assert re.search(r"^wire: \d+ DATA \(minimum 10\)", out.stdout, re.M)
        assert re.search(r"^virtual: [\d.]+ ms/iter at 1 ms/hop$", out.stdout,
                         re.M)

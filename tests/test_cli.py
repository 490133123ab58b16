"""CLI subcommands: demo walkthrough, sweep CSV, size audit, bench."""

import csv

import pytest

from rlncheck import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestDemo:
    def test_walkthrough_narrative(self, capsys):
        code, out = run_cli(["demo", "--seed", "7"], capsys)
        assert code == 0
        assert "rank=2" in out
        assert "rank=1" in out
        assert "GUILTY" in out

    def test_logpip_variant(self, capsys):
        code, out = run_cli(["demo", "--protocol", "logpip", "--seed", "7"], capsys)
        assert code == 0
        assert "GUILTY" in out

    def test_deterministic_output(self, capsys):
        _, out1 = run_cli(["demo", "--seed", "11"], capsys)
        _, out2 = run_cli(["demo", "--seed", "11"], capsys)
        assert out1 == out2


class TestSimulate:
    def test_small_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = [
            "simulate", "--nodes", "24", "--edges", "150", "--mincut", "3",
            "--packets", "3", "--trials", "2", "--seed", "0", "--out", str(out),
        ]
        code, _ = run_cli(argv, capsys)
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 9  # 3 cuts x 3 modes
        assert set(rows[0]) == {"min_cut", "mode", "mean_rank", "runs"}
        runs = tmp_path / "sweep.csv.runs.csv"
        with open(runs) as f:
            detail = list(csv.DictReader(f))
        assert len(detail) == 18  # 3 cuts x 2 seeds x 3 modes

    def test_repeat_identical(self, tmp_path, capsys):
        argv = lambda p: [
            "simulate", "--nodes", "20", "--edges", "100", "--mincut", "2",
            "--packets", "3", "--trials", "1", "--seed", "42", "--out", str(p),
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(argv(a), capsys)
        run_cli(argv(b), capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_butterfly_topology_mode(self, tmp_path, capsys):
        out = tmp_path / "bfly.csv"
        code, _ = run_cli(
            ["simulate", "--topology", "butterfly", "--packets", "2",
             "--trials", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        # 2 trials x 3 modes x 2 sinks
        assert len(rows) == 12
        assert all(row["min_cut"] == "2" for row in rows)


class TestSizes:
    def test_audit_passes(self, capsys):
        code, out = run_cli(["sizes"], capsys)
        assert code == 0
        assert "5120" in out  # d=10 closed form at 160-bit sigma
        assert "FAIL" not in out


class TestBench:
    def test_quick_bench_runs(self, capsys):
        code, out = run_cli(["bench", "--trials", "1"], capsys)
        assert code == 0
        assert "payload-independence" in out

    def test_bench_reports_validity_rows(self, capsys):
        code, out = run_cli(["bench", "--trials", "1"], capsys)
        assert code == 0
        section = out.split("validity signatures (sim, m=2):\n", 1)[1].splitlines()
        assert section[0].split() == ["n", "sign_ms", "verify_ms"]
        for line, n in zip(section[1:4], (10, 100, 1000)):
            cells = line.split()
            assert int(cells[0]) == n
            assert float(cells[1]) > 0 and float(cells[2]) > 0

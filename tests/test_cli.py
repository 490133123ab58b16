"""CLI subcommands: demo walkthrough, sweep CSV, size audit, bench."""

import contextlib
import csv
import io
import re

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

    def test_runs_csv_reports_fallbacks(self, tmp_path, capsys):
        """At cut 1 the sink holds nothing when the Mode-1 node first codes,
        so it falls back to honest coding; modes 2 and 3 never do."""
        out = tmp_path / "sweep.csv"
        argv = [
            "simulate", "--nodes", "20", "--edges", "120", "--mincut", "1",
            "--packets", "3", "--trials", "3", "--seed", "0", "--out", str(out),
        ]
        code, _ = run_cli(argv, capsys)
        assert code == 0
        with open(out) as f:
            assert next(csv.reader(f)) == ["min_cut", "mode", "mean_rank", "runs"]
        with open(tmp_path / "sweep.csv.runs.csv") as f:
            detail = list(csv.DictReader(f))
        assert list(detail[0]) == cli.RUN_COLUMNS and cli.RUN_COLUMNS[-1] == "fallbacks"
        assert len(detail) == 9
        for row in detail:
            fell_back = int(row["fallbacks"])
            assert fell_back >= 1 if row["mode"] == "mode1" else fell_back == 0, row

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

    def test_each_sink_rows_carry_its_own_cut(self, tmp_path, capsys):
        """t1 is fed through a alone (cut 1); t2 through a and b (cut 2)."""
        path = tmp_path / "two_sinks.txt"
        path.write_text(
            "node s source honest\nnode a interior honest\nnode b interior honest\n"
            "node t1 sink honest\nnode t2 sink honest\n"
            "s a\ns b\na t1\na t2\nb t2\n"
        )
        out = tmp_path / "rows.csv"
        code, _ = run_cli(["simulate", "--topology", str(path), "--packets", "2",
                           "--trials", "1", "--out", str(out)], capsys)
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6  # 3 modes x 2 sinks
        for row in rows:
            want = {"t1": "1", "t2": "2"}[row["sink_id"]]
            assert row["min_cut"] == want and row["rank"] == want, row

    @pytest.mark.parametrize("text, message", [
        ("node s source honest\nnode a interior honest\ns a\n", "no sink node declared"),
        ("node s source honest\nnode a interior honest\nnode a sink honest\ns a\n",
         "line 3: node a declared twice"),
        ("node s source honest\nnode a interior honest\nnode t sink honest\ns a\ns a\na t\n",
         r"edge \(s,a\) listed twice"),
    ], ids=["no_sink", "repeated_node", "repeated_edge"])
    def test_malformed_topology_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "topo.txt"
        path.write_text(text)
        out = tmp_path / "rows.csv"
        code = cli.main(["simulate", "--topology", str(path), "--trials", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert re.search(message, err) and str(path) in err


class TestSizes:
    def test_audit_passes(self, capsys):
        code, out = run_cli(["sizes"], capsys)
        assert code == 0
        assert "5120" in out  # d=10 closed form at 160-bit sigma
        assert "FAIL" not in out


@pytest.fixture(scope="module")
def bench_run():
    """The exit code and output of one quick ``rlncheck bench`` run, which
    every TestBench test reads its own section of."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["bench", "--trials", "1"])
    return code, out.getvalue()


class TestBench:
    def test_quick_bench_runs(self, bench_run):
        code, out = bench_run
        assert code == 0
        lines = out.split("payload-independence ratios", 1)[1].splitlines()[1:]
        labels = [line.split(":")[0].strip() for line in lines]
        assert labels == ["pip d=3", "pip d=10", "logpip d=3", "logpip d=10"]
        for line in lines:
            assert float(line.split(":")[1].strip().rstrip("x")) > 0

    def test_bench_reports_validity_rows(self, bench_run):
        code, out = bench_run
        assert code == 0
        section = out.split("validity signatures (sim, m=2):\n", 1)[1].splitlines()
        assert section[0].split() == ["n", "sign_ms", "verify_ms"]
        for line, n in zip(section[1:4], (10, 100, 1000)):
            cells = line.split()
            assert int(cells[0]) == n
            assert float(cells[1]) > 0 and float(cells[2]) > 0


    def test_bench_reports_verified_span_rows(self, bench_run):
        code, out = bench_run
        assert code == 0
        section = out.split("validity in a verified span of rank m (sim, m=2):\n", 1)[1]
        lines = section.splitlines()
        assert lines[0].split() == ["n", "verify_ms"]
        for line, n in zip(lines[1:4], (10, 100, 1000)):
            cells = line.split()
            assert int(cells[0]) == n and float(cells[1]) > 0
        assert lines[4] == ""

    def test_bench_reports_validity_product_rows(self, bench_run):
        code, out = bench_run
        assert code == 0
        section = out.split("validity products (sim, m=2):\n", 1)[1]
        lines = section.splitlines()
        assert lines[0].split() == ["product", "ms"]
        rows = [line.strip().rsplit(None, 1) for line in lines[1:5]]
        assert [name for name, _ in rows] == ["combine d=1", "combine d=2", "combine d=10", "H(c)"]
        assert all(float(ms) > 0 for _, ms in rows)
        assert lines[5] == ""

    def test_bench_reports_ed25519_rows(self, bench_run):
        code, out = bench_run
        assert code == 0
        section = out.split("Ed25519 (256-byte message):\n", 1)[1]
        lines = section.splitlines()
        assert lines[0].split() == ["operation", "us"]
        rows = [line.strip().rsplit(None, 1) for line in lines[1:4]]
        assert [name for name, _ in rows] == ["sign", "verify", "repeat verify"]
        assert all(float(us) > 0 for _, us in rows)
        assert lines[4] == ""

    def test_bench_reports_prf_rows(self, bench_run):
        code, out = bench_run
        assert code == 0
        section = out.split("PRF coefficients (sim, 20 parents):\n", 1)[1]
        lines = section.splitlines()
        assert lines[0].split() == ["derived", "us"]
        rows = [line.strip().rsplit(None, 1) for line in lines[1:3]]
        assert [name for name, _ in rows] == ["one at a time", "batch"]
        assert all(float(us) > 0 for _, us in rows)
        assert lines[3] == ""

    def test_bench_reports_coding_rows(self, bench_run):
        code, out = bench_run
        assert code == 0
        section = out.split("GF(q) coding (sim, 7 chunks per vector):\n", 1)[1]
        lines = section.splitlines()
        assert lines[0].split() == ["d", "first_us", "repeat_us"]
        for line, d in zip(lines[1:4], (5, 20, 40)):
            cells = line.split()
            assert int(cells[0]) == d and float(cells[1]) > 0 and float(cells[2]) > 0
        assert lines[4] == ""


class FakeClock:
    """A perf_counter that only the timed calls advance."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def calls_costing(self, costs):
        """A function whose i-th call takes costs(i) seconds."""
        count = [0]

        def fn():
            self.now += costs(count[0])
            count[0] += 1

        return fn, count


class TestBenchTiming:
    def test_loops_sub_millisecond_calls(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(cli, "time", clock)
        fn, count = clock.calls_costing(lambda i: 1e-6)
        assert cli._time_op(fn, 1) == pytest.approx(1e-3)
        # the calibration loops, then MIN_SAMPLES loops of at least SAMPLE_S each
        assert count[0] >= cli.MIN_SAMPLES * cli.SAMPLE_S / 1e-6

    def test_median_of_samples(self, monkeypatch):
        """One slow sample moves a best-of or a mean, not the median."""
        clock = FakeClock()
        monkeypatch.setattr(cli, "time", clock)
        # 0.5 ms calls: calibration runs 1 + 2 + 4 calls and settles on 4 per
        # 2 ms loop; then each sample's 4 calls cost per_call[sample].
        per_call = [0.4e-3, 0.6e-3, 0.5e-3, 50e-3, 0.7e-3]
        fn, _ = clock.calls_costing(lambda i: 0.5e-3 if i < 7 else per_call[(i - 7) // 4])
        assert cli._time_op(fn, 5) == pytest.approx(0.6)

    def test_ratio_pairs_interleaved_samples(self, monkeypatch):
        """The ratio is the median of per-pair ratios: 2 here, where the
        ratio of the two medians would read 20."""
        clock = FakeClock()
        monkeypatch.setattr(cli, "time", clock)

        def costing(per_sample):  # one call per loop: call 0 calibrates
            return lambda i: cli.SAMPLE_S * (1 if i == 0 else per_sample[i - 1])

        slow, _ = clock.calls_costing(costing([2, 2, 20, 20, 20]))
        base, _ = clock.calls_costing(costing([1, 1, 1, 10, 10]))
        assert cli._time_ratio(slow, base, 5) == pytest.approx(2.0)

"""Run one benchmark workload and print its metrics.

    python3 rlnbench/run.py --workload mode_sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source tree: the library is imported from
``src/`` next to this directory, never from an installed copy.  One
process, one thread, closed loop.  The last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones from a traced run (see README.md).
The same object is kept in ``results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_SAMPLES = 9


def _import_library() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rlncheck
    except ImportError as e:
        print(f"cannot import rlncheck from {ROOT / 'src'}: {e}", file=sys.stderr)
        return False
    where = Path(rlncheck.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        print(f"rlncheck imported from {where}, not from this tree", file=sys.stderr)
        return False
    return True


def measure(workload, seconds: float, tally, min_rounds: int = 1) -> float:
    """Run whole rounds for about `seconds` of operation time, and at
    least `min_rounds`, and return the median of SETUP_SAMPLES set-up
    times.

    The first set-up's inputs are checked and used.  The others are
    timed between operations, spread over the run, and thrown away, so
    that set-up is timed in the same stretch of host time as the
    operations.  After `min_rounds`, a new round starts only while at
    least half a round's time is left."""
    setups = []

    def timed_setup():
        gc.collect()  # each set-up starts without the last one's garbage
        t0 = time.perf_counter()
        fixture = workload.setup()
        setups.append(time.perf_counter() - t0)
        return fixture

    fixture = timed_setup()
    workload.check_setup(fixture, tally)
    gc.collect()
    spacing = seconds * min_rounds / SETUP_SAMPLES  # over the expected run
    elapsed = 0.0  # operation time, set-ups left out
    rounds = 0
    while True:
        round_start = elapsed
        mark = time.perf_counter()
        for _ in workload.run_round(fixture, tally):
            elapsed += time.perf_counter() - mark
            if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * spacing:
                timed_setup()
                gc.collect()
            mark = time.perf_counter()
        elapsed += time.perf_counter() - mark
        rounds += 1
        if rounds >= min_rounds and elapsed + (elapsed - round_start) / 2 >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        timed_setup()
    return statistics.median(setups)


def end_to_end(tally, setup_s: float) -> dict:
    # A run whose checks failed may have no samples; it still reports.
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (tally.units / tally.busy_s if tally.busy_s else 0.0, "1/s"),
        "latency_ms.p50": (statistics.median(tally.latency_ms or [0.0]), "ms"),
    }


def per_layer(workload: str, tracer, plain, plain_setup, traced, traced_setup) -> dict:
    """Per-function calls and self time from the traced half, ratios,
    part figures from the untraced half, and the tracing overhead."""
    from rlncheck.pipcore import ViolationKind

    out = {}
    for name, (calls, self_s) in tracer.summary().items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    adds = out["gf.Span.add.calls"][0]
    out["gf.Span.add.useful_ratio"] = (tracer.useful_adds / adds if adds else 0.0, "ratio")
    verifies = out["sigcrypto.verify.calls"][0]
    out["sigcrypto.verify.per_packet"] = (
        verifies / traced.packets if traced.packets else 0.0, "count/packet"
    )
    for kind in ViolationKind:
        out[f"node.verify_incoming.rejects.{kind.value}"] = (tracer.rejects.get(kind.value, 0), "count")

    def rate(units_key, seconds_key):
        secs = plain.samples.get(seconds_key)
        return sum(plain.samples[units_key]) / sum(secs) if secs else 0.0

    def p50(key):
        values = plain.samples.get(key)
        return statistics.median(values) if values else 0.0

    own_rate = plain.units / plain.busy_s if plain.busy_s else 0.0
    out["sweep.runs_per_s"] = (own_rate if workload == "mode_sweep" else 0.0, "1/s")
    out["relay.packets_per_s"] = (own_rate if workload == "relay_production" else 0.0, "1/s")
    for p in ("pip", "logpip"):
        out[f"net.{p}.packets_per_s"] = (rate(f"net.{p}.packets", f"net.{p}.run_s"), "1/s")
        for fig in ("verify_ms", "prepare_ms"):
            out[f"relay.{p}.{fig}.p50"] = (p50(f"relay.{p}.{fig}"), "ms")
        out[f"relay.{p}.overhead_bytes"] = (p50(f"relay.{p}.overhead_bytes"), "bytes/packet")

    plain_e2e = end_to_end(plain, plain_setup)
    for name, (value, unit) in end_to_end(traced, traced_setup).items():
        out[f"trace.overhead.{name}"] = (value - plain_e2e[name][0], unit)
    out["trace.spans"] = (tracer.span_count, "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not _import_library():
        return 2

    import tracing
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]

    if args.trace == 0:
        tally = Tally()
        workload = make(args.seed)
        setup_s = measure(workload, args.seconds, tally, workload.min_rounds)
        tallies = [tally]
        metrics = end_to_end(tally, setup_s)
    else:
        half = args.seconds / 2
        plain = Tally()
        plain_setup = measure(make(args.seed), half, plain)
        tracer = tracing.Tracer()
        tracer.install()
        traced = Tally()
        traced_setup = measure(make(args.seed), half, traced)
        tallies = [plain, traced]
        metrics = per_layer(args.workload, tracer, plain, plain_setup, traced, traced_setup)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    errors = [e for t in tallies for e in t.errors]
    for t in tallies:
        for fault in sorted(set(t.known_faults)):
            print(f"known fault: {fault}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(f"{args.workload}: attempted {attempted}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

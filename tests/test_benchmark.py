"""The benchmark in ``rlnbench/`` still runs against the library.

These tests import the benchmark's workloads and tracer target list and
run a small part of each workload, with the workload's own checks.  They
read ``rlnbench/`` and never write to it (no bytecode cache either), so
a change that deletes or renames a name the benchmark needs fails here.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "rlnbench"
BENCH_MODULES = ("checkers", "tracing", "workloads")


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``tracing`` and ``workloads`` modules, imported from
    ``rlnbench/`` and removed from ``sys.modules`` afterwards."""
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        tracing = importlib.import_module("tracing")
        workloads = importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    yield tracing, workloads
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_every_traced_target_resolves(bench):
    """``Tracer.install`` patches each target: a function of the module, or
    a method defined on the class itself."""
    tracing, _ = bench
    for mod, path in tracing.TARGETS:
        module = importlib.import_module(f"rlncheck.{mod}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert callable(vars(getattr(module, cls_name)).get(attr)), f"{mod}.{path}"
        else:
            assert callable(getattr(module, path, None)), f"{mod}.{path}"


@pytest.mark.parametrize("name, operations", [
    ("relay_production", None), ("mode_sweep", 3), ("network_sim", 1),
])
def test_workload_runs_without_failed_checks(bench, name, operations):
    """The set-up checks, then one whole relay_production round (PIP and
    Log-PIP, the latter with challenges), mode_sweep's first sweep point
    (mode1, then mode2 and mode3, which replay from mode1's record), or
    network_sim's first operation."""
    _, workloads = bench
    workload = workloads.WORKLOADS[name](1)
    tally = workloads.Tally()
    fixture = workload.setup()
    workload.check_setup(fixture, tally)
    ops = workload.run_round(fixture, tally)
    for done, _ in enumerate(ops, start=1):
        if done == operations:
            ops.close()
    assert tally.errors == []
    assert tally.failed == 0
    assert tally.attempted > 0

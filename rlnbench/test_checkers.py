"""Tests of the benchmark's own checkers and tracer.

    python3 -m pytest rlnbench -q
"""

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import checkers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _split_flow_networkx(edges, source, sink):
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    g.add_nodes_from([source, sink])

    def tail(n):
        return n if n in (source, sink) else f"{n}/out"

    def head(n):
        return n if n in (source, sink) else f"{n}/in"

    for n in {x for e in edges for x in e} - {source, sink}:
        g.add_edge(head(n), tail(n), capacity=1)
    for u, v in edges:
        a, b = tail(u), head(v)
        cap = g[a][b]["capacity"] + 1 if g.has_edge(a, b) else 1
        g.add_edge(a, b, capacity=cap)
    return nx.maximum_flow_value(g, source, sink)


def test_max_flow_counts_node_capacity():
    # Two edge-disjoint paths that share interior node c: the flow is 1.
    edges = [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"),
             ("c", "d1"), ("c", "d2"), ("d1", "t"), ("d2", "t")]
    assert checkers.node_split_max_flow(edges, "s", "t") == 1
    # Source and sink are not split: parallel source edges count.
    assert checkers.node_split_max_flow([("s", "a"), ("a", "t"), ("s", "t")], "s", "t") == 2
    assert checkers.node_split_max_flow([("s", "a")], "s", "t") == 0


def test_max_flow_matches_networkx_on_random_dags():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(3, 12)
        names = ["s"] + [f"v{i}" for i in range(n)] + ["t"]
        edges = [(names[i], names[j]) for i in range(len(names))
                 for j in range(i + 1, len(names)) if rng.random() < 0.35]
        assert checkers.node_split_max_flow(edges, "s", "t") == _split_flow_networkx(edges, "s", "t")


def _span_size(rows, q):
    return len({tuple(sum(a * r[k] for a, r in zip(coeffs, rows)) % q for k in range(len(rows[0])))
                for coeffs in itertools.product(range(q), repeat=len(rows))})


def test_rank_matches_brute_force_span_size():
    rng = random.Random(3)
    q = 5
    for _ in range(40):
        rows = [[rng.randrange(q) for _ in range(3)] for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.3:
            rows.append([(2 * a + b) % q for a, b in zip(rows[0], rows[-1])])
        assert q ** checkers.rank(rows, q) == _span_size(rows, q)


def test_in_span():
    q = 11
    rows = [[1, 2, 3], [0, 1, 4]]
    assert checkers.in_span([3, 7, 2], rows, q)  # 3*r0 + r1 mod 11
    assert not checkers.in_span([0, 0, 1], rows, q)
    assert checkers.in_span([0, 0, 0], [], q)


@pytest.mark.parametrize("q", [11, 2**61 - 1])
def test_decode_recovers_originals(q):
    rng = random.Random(q)
    m, n = 4, 3
    originals = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(m)]
    packets = []
    while checkers.rank([cv for cv, _ in packets], q) < m:
        c = [rng.randrange(q) for _ in range(m)]
        payload = [sum(a * o[k] for a, o in zip(c, originals)) % q for k in range(n)]
        packets.append((c, payload))
    packets.append(packets[0])  # a duplicate changes nothing
    assert checkers.decode(packets, m, q) == originals
    assert checkers.decode(packets[: m - 1], m, q) is None
    assert checkers.decode([], m, q) is None


def test_validity_product_in_the_order_q_subgroup():
    p, q, g = 23, 11, 2  # 2 has order 11 mod 23
    rng = random.Random(5)
    exps = [rng.randrange(1, q) for _ in range(4)]
    gens = [pow(g, r, p) for r in exps]
    e1 = [rng.randrange(q) for _ in range(4)]
    e2 = [rng.randrange(q) for _ in range(4)]
    s1 = checkers.validity_product(gens, e1, p)
    assert s1 == pow(g, sum(r * e for r, e in zip(exps, e1)) % q, p)
    a, b = 3, 7
    combo = [(a * x + b * y) % q for x, y in zip(e1, e2)]
    s2 = checkers.validity_product(gens, e2, p)
    assert checkers.validity_product(gens, combo, p) == pow(s1, a, p) * pow(s2, b, p) % p
    with pytest.raises(ValueError):
        checkers.validity_product(gens, e1[:3], p)


def test_tracer_patches_names_bound_at_import():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import tracing\n"
        "from rlncheck import pipcore, validity, sim, gf\n"
        "t = tracing.Tracer(); t.install()\n"
        "assert pipcore.combine_validity is validity.combine_validity\n"
        "assert hasattr(validity.combine_validity, '__wrapped__')\n"
        "assert sim.Span.add is gf.Span.add\n"
        "s = gf.Span(11, 2); s.add([1, 0]); s.add([2, 0])\n"
        "calls, self_s = t.summary()['gf.Span.add']\n"
        "assert calls == 2 and t.useful_adds == 1 and self_s > 0\n"
    ) % (str(BENCH), str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "relay_production",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        check=True, timeout=170, capture_output=True, text=True, cwd=ROOT,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())

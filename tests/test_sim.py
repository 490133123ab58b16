"""Topology generation, min-cut, behaviors, and network-wide detection."""

import collections
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import logging
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NETWORK_STRATEGIES

from rlncheck import gf, node as node_mod, pipcore, sigcrypto, sim, validity
from rlncheck.node import Verdict
from rlncheck.pipcore import Protocol, ViolationKind
from rlncheck.profiles import SIM, TEST
from rlncheck.sim import (
    Behavior,
    BehaviorKind,
    InfeasibleTopologyError,
    NodeSpec,
    Role,
    Topology,
    butterfly_topology,
    min_cut,
    mode_sweep,
    random_topology,
    run_simulation,
)


class TestButterfly:
    def test_shape(self):
        topo = butterfly_topology()
        assert len(topo.nodes) == 7
        assert len(topo.edges) == 9
        topo.validate()

    def test_min_cut_two_per_sink(self):
        topo = butterfly_topology()
        for sink in topo.sinks:
            assert min_cut(topo, "s", sink) == 2

    def test_acyclic(self):
        topo = butterfly_topology()
        topo.validate()
        topo.edges.append(("n1c", "r1"))
        with pytest.raises(ValueError, match="cycle"):
            topo.validate()


class TestMinCut:
    def test_single_path(self):
        topo = Topology(
            nodes={"s": NodeSpec(Role.SOURCE), "a": NodeSpec(Role.INTERIOR),
                   "t": NodeSpec(Role.SINK)},
            edges=[("s", "a"), ("a", "t")],
            source="s",
        )
        assert min_cut(topo, "s", "t") == 1

    def test_node_capacity_binds(self):
        # Two edge-disjoint paths through one shared interior node: the
        # unit node capacity caps the flow at 1.
        topo = Topology(
            nodes={"s": NodeSpec(Role.SOURCE), "a": NodeSpec(Role.INTERIOR),
                   "b": NodeSpec(Role.INTERIOR), "c": NodeSpec(Role.INTERIOR),
                   "x": NodeSpec(Role.INTERIOR), "t": NodeSpec(Role.SINK)},
            edges=[("s", "a"), ("s", "b"), ("a", "x"), ("b", "x"),
                   ("x", "c"), ("x", "t"), ("c", "t")],
            source="s",
        )
        assert min_cut(topo, "s", "t") == 1

    def test_hash_in_node_names(self):
        """A sink named ``a#in`` is its own vertex, not interior node a's
        in-half: the only path to it runs through b."""
        nodes = {"s": NodeSpec(Role.SOURCE), "a": NodeSpec(Role.INTERIOR),
                 "b": NodeSpec(Role.INTERIOR), "a#in": NodeSpec(Role.SINK)}
        topo = Topology(nodes=nodes, edges=[("s", "a"), ("s", "b"), ("b", "a#in")], source="s")
        assert min_cut(topo, "s", "a#in") == 1
        parsed = sim.parse_topology(sim.format_topology(topo))
        assert min_cut(parsed, "s", "a#in") == 1
        assert sim.Simulation(parsed, Protocol.NONE, m=2).run().sink_ranks == {"a#in": 1}

    def test_edge_to_unknown_node_carries_nothing(self):
        topo = Topology(
            nodes={"s": NodeSpec(Role.SOURCE), "a": NodeSpec(Role.INTERIOR),
                   "t": NodeSpec(Role.SINK)},
            edges=[("s", "a"), ("a", "t"), ("s", "x"), ("x", "t")],
            source="s",
        )
        assert min_cut(topo, "s", "t") == 1

    def test_unknown_endpoints_and_same_node(self):
        topo = butterfly_topology()
        with pytest.raises(ValueError, match="not in topology"):
            min_cut(topo, "s", "zz")
        assert min_cut(topo, "s", "s") == 0

    def brute_force_mixed_cut(self, topo, src, dst):
        """Oracle: smallest set of edges plus interior nodes whose removal
        disconnects src from dst (unit capacities on both)."""
        interiors = [n for n in topo.nodes if n not in (src, dst)]
        items = [("e", e) for e in topo.edges] + [("n", n) for n in interiors]

        def disconnected(removed):
            gone_nodes = {x for kind, x in removed if kind == "n"}
            gone_edges = {x for kind, x in removed if kind == "e"}
            seen, stack = {src}, [src]
            while stack:
                u = stack.pop()
                for (a, b) in topo.edges:
                    if a == u and b not in seen and b not in gone_nodes and (a, b) not in gone_edges:
                        if a in gone_nodes:
                            continue
                        seen.add(b)
                        stack.append(b)
            return dst not in seen

        if disconnected([]):
            return 0
        for k in range(1, len(items) + 1):
            for combo in itertools.combinations(items, k):
                if disconnected(combo):
                    return k
        return len(items)

    def test_brute_force_oracle_small_graphs(self):
        rng = random.Random(42)
        names = ["s", "a", "b", "c", "t"]
        checked = 0
        for _ in range(40):
            pool = [
                (u, v)
                for u in names for v in names
                if u != v and v != "s" and u != "t" and names.index(u) < names.index(v)
                and not (u == "s" and v == "t")
            ]
            edges = rng.sample(pool, k=rng.randint(3, 8))
            topo = Topology(
                nodes={n: NodeSpec(Role.SOURCE if n == "s" else Role.SINK if n == "t"
                                   else Role.INTERIOR) for n in names},
                edges=edges,
                source="s",
            )
            expected = self.brute_force_mixed_cut(topo, "s", "t")
            assert min_cut(topo, "s", "t") == expected, edges
            checked += 1
        assert checked == 40


def _ref_split_graph(topo, src, dst):
    """Reference: the string-keyed node-split graph the flow code used
    before it moved to integer slots."""
    cap = {}

    def inp(n):
        return n if n in (src, dst) else n + "#in"

    def outp(n):
        return n if n in (src, dst) else n + "#out"

    for n in topo.nodes:
        if n not in (src, dst):
            cap[(inp(n), outp(n))] = cap.get((inp(n), outp(n)), 0) + 1
    for u, v in topo.edges:
        cap[(outp(u), inp(v))] = cap.get((outp(u), inp(v)), 0) + 1
    return cap


def _ref_max_flow(cap, src, dst):
    """Reference Edmonds-Karp on an arc-capacity dict: (value, reach)."""
    residual = dict(cap)
    adj = {}
    for (u, v) in cap:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    flow = 0
    while True:
        parent = {src: None}
        queue = collections.deque([src])
        while queue and dst not in parent:
            u = queue.popleft()
            for v in sorted(adj.get(u, ())):
                if v not in parent and residual.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if dst not in parent:
            return flow, set(parent)
        v = dst
        while parent[v] is not None:
            u = parent[v]
            residual[(u, v)] = residual.get((u, v), 0) - 1
            residual[(v, u)] = residual.get((v, u), 0) + 1
            v = u
        flow += 1


def _ref_cut_nodes(topo, src, dst):
    """Reference: (max-flow value, interior nodes incident to the cut)."""
    cap = _ref_split_graph(topo, src, dst)
    value, reach = _ref_max_flow(cap, src, dst)
    candidates = []
    for (u, v), c in cap.items():
        if c > 0 and u in reach and v not in reach:
            for endpoint in (u, v):
                name = endpoint.split("#")[0]
                if name not in (src, dst) and name not in candidates:
                    candidates.append(name)
    return value, candidates


def _ref_value_without(topo, name, dst):
    """Reference max-flow value of ``topo`` with node ``name`` and its
    edges removed."""
    pruned = Topology(
        nodes={n: s for n, s in topo.nodes.items() if n != name},
        edges=[e for e in topo.edges if name not in e],
        source=topo.source,
    )
    return _ref_max_flow(_ref_split_graph(pruned, topo.source, dst), topo.source, dst)[0]


def _ref_place_byzantine(topo, count, dst):
    """Reference placement: the first candidate whose removal, solved on a
    pruned topology, costs exactly one unit; then the next candidates."""
    if count == 0:
        return []
    base, candidates = _ref_cut_nodes(topo, topo.source, dst)
    chosen = []
    for name in candidates:
        if len(chosen) == count:
            break
        if not chosen and _ref_value_without(topo, name, dst) != base - 1:
            continue
        chosen.append(name)
    return chosen if len(chosen) == count else None


def _hand_built_dags(count, rng):
    """Small random DAGs over s, n00..n0k, t with duplicate edges, edges
    straight from s to t and interior nodes with no way on."""
    for _ in range(count):
        k = rng.randint(3, 9)
        names = ["s"] + [f"n{i:02d}" for i in range(k)] + ["t"]
        pool = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
        edges = rng.sample(pool, rng.randint(k, min(len(pool), 3 * k)))
        edges += rng.sample(edges, rng.randint(1, 3))  # duplicates
        rng.shuffle(edges)
        nodes = {n: NodeSpec(Role.SOURCE if n == "s" else Role.SINK if n == "t"
                             else Role.INTERIOR) for n in names}
        yield Topology(nodes=nodes, edges=edges, source="s")


@functools.cache
def _oracle_topologies():
    """The criterion-6 shape at cuts 1-10, the network_sim shape with 0-3
    Byzantine nodes, and hand-built DAGs: about 100 topologies."""
    topos = [random_topology(50, 1000, cut, 1, rng_seed=seed * 1000 + cut)
             for cut in range(1, 11) for seed in (0, 1, 2)]
    for cut, byz, seed in itertools.product((2, 3, 4), (0, 1, 2, 3), (0, 1)):
        with contextlib.suppress(InfeasibleTopologyError):
            topos.append(random_topology(30, 200, cut, byz, rng_seed=seed))
    return topos + list(_hand_built_dags(50, random.Random(14)))


class TestFlowOracle:
    """The integer-indexed flow against the string-keyed Edmonds-Karp it
    replaced: same value, same cut candidates in the same order, and the
    same Byzantine placement as checking each first candidate's removal
    on a pruned topology."""

    def test_matches_reference(self):
        topos = _oracle_topologies()
        assert len(topos) >= 100
        for i, topo in enumerate(topos):
            value, candidates = _ref_cut_nodes(topo, "s", "t")
            assert min_cut(topo, "s", "t") == value, i
            flow = sim._Flow(topo.nodes, topo.edges, "s", "t")
            assert flow.augment() == value, i
            assert flow.cut_candidates(topo) == candidates, i
            for count in range(4):
                placed = candidates[:count] if len(candidates) >= count else None
                assert placed == _ref_place_byzantine(topo, count, "t"), (i, count)
            if topo.byzantine:
                assert topo.byzantine == _ref_place_byzantine(topo, len(topo.byzantine), "t"), i

    def test_every_candidate_costs_one_unit(self):
        """Removing any cut candidate, solved again on the pruned topology,
        lowers the max-flow by exactly one, so generation need not check."""
        for i, topo in enumerate(_oracle_topologies()):
            value, candidates = _ref_cut_nodes(topo, "s", "t")
            for name in candidates:
                assert _ref_value_without(topo, name, "t") == value - 1, (i, name)

    def test_augmenting_from_a_partial_flow(self):
        """Arcs added after a flow was found, each followed by augmenting
        from the current flow, reach the flow and cut of solving once."""
        for i, topo in enumerate(_oracle_topologies()[::7]):
            half = len(topo.edges) // 2
            flow = sim._Flow(topo.nodes, topo.edges[:half], "s", "t")
            flow.augment()
            for u, v in topo.edges[half:]:
                flow.add_edge(u, v)
                flow.augment()
            value, candidates = _ref_cut_nodes(topo, "s", "t")
            assert flow.value == value, i
            assert flow.cut_candidates(topo) == candidates, i

    def test_one_loop_build_equals_adding_each_edge(self):
        """The constructor lays out the slots and arcs that adding its
        edges one by one to an edgeless flow does: a duplicate edge is a
        second arc, and an edge with an unknown endpoint is left out."""
        for i, topo in enumerate(_oracle_topologies()[::5]):
            u, v = topo.edges[0]
            edges = [("ghost", v), *topo.edges, (u, v), (u, "ghost")]
            built = sim._Flow(topo.nodes, edges, "s", "t")
            added = sim._Flow(topo.nodes, [], "s", "t")
            for e in edges:
                added.add_edge(*e)
            assert (built.inp, built.out) == (added.inp, added.out), i
            assert built.head == added.head, i
            assert built.residual == added.residual, i
            assert built.adj == added.adj, i
            arcs = len(topo.nodes) - 2 + len(topo.edges) + 1
            assert len(built.head) == 2 * arcs, i


class TestRandomTopology:
    def test_paper_parameters(self):
        topo = random_topology(50, 1000, 5, 1, rng_seed=7)
        assert min_cut(topo, "s", "t") == 5
        assert len(topo.byzantine) == 1
        topo.validate()

    def test_deterministic_per_seed(self):
        a = random_topology(30, 200, 3, 1, rng_seed=9)
        b = random_topology(30, 200, 3, 1, rng_seed=9)
        assert a.edges == b.edges and a.byzantine == b.byzantine

    def test_min_cut_one(self):
        topo = random_topology(20, 100, 1, 1, rng_seed=3)
        assert min_cut(topo, "s", "t") == 1
        # Removing the cut node severs the only path.
        byz = topo.byzantine[0]
        pruned = Topology(
            nodes={n: s for n, s in topo.nodes.items() if n != byz},
            edges=[e for e in topo.edges if byz not in e],
            source="s",
        )
        assert min_cut(pruned, "s", "t") == 0

    def test_byzantine_on_tight_cut(self):
        for seed in range(5):
            topo = random_topology(40, 500, 4, 1, rng_seed=seed)
            byz = topo.byzantine[0]
            pruned = Topology(
                nodes={n: s for n, s in topo.nodes.items() if n != byz},
                edges=[e for e in topo.edges if byz not in e],
                source="s",
            )
            assert min_cut(pruned, "s", "t") == 3

    # (node_count, edge_count, target_min_cut, byzantine_count, rng_seed) -> SHA-256
    # prefix of json [edges, byzantine], as generated at e988a03
    PINNED = {
        (50, 1000, 1, 1, 1001): "335b6972443c6a6f",
        (50, 1000, 3, 1, 3): "998f5350190844eb",
        (50, 1000, 5, 1, 7005): "4e4019ce290db22d",
        (30, 200, 3, 2, 9): "0596c71e3dd714b0",
        (30, 200, 4, 2, 2): "a7e81880e1660910",
        (20, 100, 1, 1, 3): "e8eaff8a9f55f02c",
        (24, 150, 2, 0, 5): "949b83ce647df318",
        (40, 500, 4, 3, 4): "c1070241902148e5",
        # recorded at 3880d85, before the integer-indexed flow
        (50, 1000, 8, 2, 8): "825856f6049d59d8",
        (50, 1000, 10, 2, 10): "ecaed8f073f538b5",
        (50, 1000, 6, 3, 6006): "ecd964cd1cce90dd",
    }

    # recorded at 2baa8ba, before the one-sort build, for the paths the
    # cases above miss: the feed loop, the repair draws, and more than
    # 1,000 interior nodes, where "n1000" sorts before "n101" and a repair
    # draws an edge that the shuffle already chose
    PATHS = {
        "feed": ((16, 30, 3, 2, 6), "449395501672e58c"),
        "repair": ((20, 40, 3, 1, 0), "db72c06528f23396"),
        "feed_and_repair": ((8, 12, 4, 1, 9), "d462cdf80527ca31"),
        "over_1000_interior": ((1010, 3000, 3, 1, 1), "f54474e75056ce95"),
    }

    @staticmethod
    def _digest(case) -> str:
        """The pinned prefix of ``case``'s topology; its edges are listed
        sorted, each once."""
        topo = random_topology(*case[:4], rng_seed=case[4])
        assert topo.edges == sorted(set(topo.edges))
        return hashlib.sha256(json.dumps([topo.edges, topo.byzantine]).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_edges_and_byzantine(self, case):
        """Generation and Byzantine placement stay what they were."""
        assert self._digest(case) == self.PINNED[case]

    @pytest.mark.parametrize("path", PATHS)
    def test_pinned_paths(self, path):
        """The feed loop, the repair draws and the sort past 1,000
        interior nodes build what they built."""
        case, digest = self.PATHS[path]
        assert self._digest(case) == digest

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleTopologyError):
            random_topology(5, 4, 4, 0, rng_seed=1)

    @pytest.mark.parametrize("count", [-1, -3])
    def test_negative_byzantine_count_raises(self, count):
        """A negative count would slice all but the last |count| cut
        candidates off as Byzantine."""
        with pytest.raises(ValueError, match="byzantine_count must be at least 0"):
            random_topology(10, 30, 3, count, rng_seed=0)

    @pytest.mark.parametrize("count", [-1, -5])
    def test_negative_edge_count_raises(self, count):
        """A negative count would build the same topology as no edges at
        all, and say nothing."""
        with pytest.raises(ValueError, match="edge_count must be at least 0"):
            random_topology(10, count, 3, 1, rng_seed=0)

    def test_adjacency_matches_parents_and_children(self):
        for topo in (butterfly_topology(), random_topology(30, 200, 3, 1, rng_seed=4)):
            parents, children = topo.adjacency()
            assert parents.keys() == children.keys() == topo.nodes.keys()
            for n in topo.nodes:
                assert parents[n] == topo.parents(n)
                assert children[n] == topo.children(n)


class TestLiteSimulation:
    def test_butterfly_honest(self):
        report = run_simulation(butterfly_topology(), Protocol.NONE, m=2, rng_seed=7)
        assert report.sink_ranks == {"n2": 2, "n3": 2}

    def test_butterfly_forward_only_halves_one_sink(self):
        topo = butterfly_topology().with_behavior("n1", Behavior(BehaviorKind.FORWARD_ONLY))
        report = run_simulation(topo, Protocol.NONE, m=2, rng_seed=7)
        assert sorted(report.sink_ranks.values()) == [1, 2]

    def test_deterministic(self):
        topo = random_topology(20, 100, 3, 1, rng_seed=5)
        a = run_simulation(topo, Protocol.NONE, m=3, rng_seed=1)
        b = run_simulation(topo, Protocol.NONE, m=3, rng_seed=1)
        assert a.sink_ranks == b.sink_ranks

    def test_mode1_strictly_lower_on_cut(self):
        """Non-innovative Byzantine on a tight cut withholds its unit."""
        diffs = []
        for seed in range(20):
            topo = random_topology(40, 600, 2, 1, rng_seed=seed)
            honest = run_simulation(topo, Protocol.NONE, m=5, rng_seed=seed)
            t = topo
            for byz in topo.byzantine:
                t = t.with_behavior(byz, Behavior(BehaviorKind.NON_INNOVATIVE))
            attacked = run_simulation(t, Protocol.NONE, m=5, rng_seed=seed)
            diffs.append(honest.sink_ranks["t"] - attacked.sink_ranks["t"])
        assert sum(diffs) / len(diffs) > 0

    def test_mode2_strictly_lower_on_butterfly(self):
        topo = butterfly_topology().with_behavior("n1", Behavior(BehaviorKind.FORWARD_ONLY))
        honest = run_simulation(butterfly_topology(), Protocol.NONE, m=2, rng_seed=7)
        attacked = run_simulation(topo, Protocol.NONE, m=2, rng_seed=7)
        assert sum(attacked.sink_ranks.values()) < sum(honest.sink_ranks.values())

    @pytest.mark.parametrize("kind", [BehaviorKind.SKIP_PARENT, BehaviorKind.ZERO_COEFFICIENT])
    def test_unverified_deviations_act(self, kind):
        """Without verification nothing stops a node from dropping a parent:
        n1 codes over r2 alone, so n1c relays nothing new to n3."""
        topo = butterfly_topology().with_behavior("n1", Behavior(kind))
        report = run_simulation(topo, Protocol.NONE, m=2, rng_seed=7)
        assert report.sink_ranks == {"n2": 2, "n3": 1}

    def test_unverified_engine_makes_no_keys_or_signatures(self, monkeypatch):
        """The crypto-free path, which the mode sweeps run, never touches
        keys, certificates, epoch parameters or signatures."""
        def forbidden(*args, **kwargs):
            raise AssertionError("crypto called under Protocol.NONE")

        for mod, fn in [(sim.sigcrypto, "keygen"), (sim.sigcrypto, "certify"),
                        (sim.sigcrypto, "sign"), (sim.validity, "epoch_setup"),
                        (sim.validity, "sign_validity"), (sim.node_mod, "build_draft"),
                        (sim.node_mod, "finalize_packet")]:
            monkeypatch.setattr(mod, fn, forbidden)
        topo = butterfly_topology().with_behavior("n1", Behavior(BehaviorKind.FORGE_TOKEN))
        report = run_simulation(topo, Protocol.NONE, m=2, rng_seed=7, epochs=2)
        assert report.decoded == {"n2": True, "n3": True}

    def test_mode1_equals_honest_at_cut_one(self):
        for seed in range(6):
            topo = random_topology(20, 120, 1, 1, rng_seed=seed)
            honest = run_simulation(topo, Protocol.NONE, m=3, rng_seed=seed)
            t = topo
            for byz in topo.byzantine:
                t = t.with_behavior(byz, Behavior(BehaviorKind.NON_INNOVATIVE))
            attacked = run_simulation(t, Protocol.NONE, m=3, rng_seed=seed)
            assert attacked.sink_ranks == honest.sink_ranks

    def test_fallbacks_counted(self):
        """At cut 1 the Mode-1 node's only path to the sink is itself: in
        its first round the sink holds nothing, no choice adds nothing, and
        it codes honestly.  An all-honest run never falls back."""
        for seed in range(3):
            topo = random_topology(20, 120, 1, 1, rng_seed=seed)
            assert run_simulation(topo, Protocol.NONE, m=3, rng_seed=seed).fallbacks == {}
            byz = topo.byzantine[0]
            t = topo.with_behavior(byz, Behavior(BehaviorKind.NON_INNOVATIVE))
            report = run_simulation(t, Protocol.NONE, m=3, rng_seed=seed)
            assert set(report.fallbacks) == {byz} and report.fallbacks[byz] >= 1

    def test_mode1_emission_combines_once(self, monkeypatch):
        """A Mode-1 emission is the combination its choice was tested on,
        so each round the node codes makes exactly one ``linear_combine``
        call, whether it made a Mode-1 choice or fell back."""
        topo = random_topology(30, 200, 3, 1, rng_seed=9)
        byz = topo.byzantine[0]
        t = topo.with_behavior(byz, Behavior(BehaviorKind.NON_INNOVATIVE))
        combines, per_round = [0], []
        combine, code = gf.linear_combine, sim.Simulation._code

        def counted(*args):
            combines[0] += 1
            return combine(*args)

        def coded(self, name):
            before = combines[0]
            out = code(self, name)
            if name == byz:
                per_round.append(combines[0] - before)
            return out

        monkeypatch.setattr(gf, "linear_combine", counted)
        monkeypatch.setattr(sim.Simulation, "_code", coded)
        report = run_simulation(t, Protocol.NONE, m=3, rng_seed=9)
        assert per_round == [1] * len(per_round)
        assert len(per_round) > report.fallbacks.get(byz, 0)  # some rounds chose Mode 1


@pytest.fixture
def code_calls(monkeypatch):
    """Names of the nodes ``Simulation._code`` ran for, in call order.
    ``_run_shape``, and so every record, starts empty, so a run of a key
    not run in the test simulates (and codes at) every node."""
    sim._run_shape.cache_clear()
    calls = []
    code = sim.Simulation._code

    def counted(self, name):
        calls.append(name)
        return code(self, name)

    monkeypatch.setattr(sim.Simulation, "_code", counted)
    return calls


def _interior_by_children(topo: Topology) -> tuple[list[str], list[str]]:
    """The interior nodes with a child, and those with none."""
    _, children = topo.adjacency()
    interior = [n for n, s in topo.nodes.items() if s.role is Role.INTERIOR]
    return [n for n in interior if children[n]], [n for n in interior if not children[n]]


class TestQuiescentNodes:
    def test_honest_node_codes_once_per_epoch(self, code_calls):
        """An honest emission changes only when an input does, and in an
        all-honest run every input is sent once per epoch.  A node with no
        child never codes: its emission would have no reader."""
        topo = random_topology(30, 200, 4, 0, rng_seed=3)
        report = run_simulation(topo, Protocol.NONE, m=3, rng_seed=3, epochs=2)
        assert report.sink_ranks == {"t": 3} and report.decoded == {"t": True}
        coding, childless = _interior_by_children(topo)
        assert childless
        assert sorted(code_calls) == sorted(coding * 2)

    def test_resent_packets_are_verified_every_round(self, code_calls):
        """Under PIP a node that does not re-code still sends its packet every
        round, and every child gives it a verdict every round.  A node with
        no child codes nothing, yet it gives every delivery a verdict."""
        topo = random_topology(12, 40, 2, 0, rng_seed=4)
        report = run_simulation(topo, Protocol.PIP, m=2, rng_seed=4, profile=SIM)
        coding, childless = _interior_by_children(topo)
        assert childless
        assert sorted(code_calls) == sorted(coding)
        rounds = {}
        for r, receiver, sender, v in report.verdicts:
            assert v is None
            rounds.setdefault((receiver, sender), []).append(r)
        assert sorted(rounds) == sorted((v, u) for u, v in topo.edges)
        for (receiver, sender), got in rounds.items():
            first = 1 if sender == topo.source else got[0]
            last = 1 if sender == topo.source else report.rounds
            assert got == list(range(first, last + 1)), (receiver, sender)


@pytest.fixture
def readiness(monkeypatch):
    """Records every node's count of parents with no accepted vector this
    epoch, len(parents) - len(vectors), at each epoch start (every parent
    missing) and after each round's ingest, and checks that ``vectors``
    holds only parents, so that the count is a recount.  Returns the
    (epoch start, node, count) and (round, node, count) records and the
    (node, sender) of each accepted vector that replaced an earlier one
    from the same sender within an epoch.  ``_run_shape``, and so every
    record, starts empty, so a run of a key not run in the test simulates
    every node."""
    sim._run_shape.cache_clear()
    starts, counts, replaced = [], [], []
    source_round, ingest = sim.Simulation._source_round, sim.Simulation._ingest_round

    def started(self):
        for name, sim_node in self.nodes.items():
            assert not sim_node.vectors
            starts.append((len(starts) // len(self.nodes) + 1, name, len(self.parents[name])))
        return source_round(self)

    def ingested(self, r, deliveries):
        before = {name: dict(sim_node.vectors) for name, sim_node in self.nodes.items()}
        ingest(self, r, deliveries)
        for name, sim_node in self.nodes.items():
            assert set(sim_node.vectors) <= set(self.parents[name])
            counts.append((r, name, len(self.parents[name]) - len(sim_node.vectors)))
            replaced.extend((name, p) for p, v in sim_node.vectors.items()
                            if p in before[name] and before[name][p] is not v)

    monkeypatch.setattr(sim.Simulation, "_source_round", started)
    monkeypatch.setattr(sim.Simulation, "_ingest_round", ingested)
    return starts, counts, replaced


def _forging_parent_topology() -> Topology:
    """c codes over a and over byz, a FORGE_TOKEN node whose packets c
    rejects under PIP; a and b reach the sink without byz."""
    nodes = {
        "s": NodeSpec(Role.SOURCE),
        "a": NodeSpec(Role.INTERIOR),
        "b": NodeSpec(Role.INTERIOR),
        "byz": NodeSpec(Role.INTERIOR, behavior=Behavior(BehaviorKind.FORGE_TOKEN)),
        "c": NodeSpec(Role.INTERIOR),
        "t": NodeSpec(Role.SINK),
    }
    edges = [("s", "a"), ("s", "b"), ("a", "byz"), ("b", "byz"),
             ("byz", "c"), ("a", "c"), ("c", "t"), ("b", "t")]
    return Topology(nodes=nodes, edges=edges, source="s", byzantine=["byz"])


class TestReadiness:
    """A node is ready once it holds an accepted vector from every parent
    this epoch; only a sender's first accepted vector of the epoch lowers
    the count of parents it lacks, and each epoch starts it afresh."""

    def test_rejected_parent_never_counts(self, readiness, code_calls):
        _, counts, _ = readiness
        report = run_simulation(_forging_parent_topology(), Protocol.PIP, m=2, rng_seed=5,
                                profile=SIM, epochs=2)
        assert {(v.culprit, v.kind) for v in report.detections} == {
            ("byz", ViolationKind.BAD_HELPER_SIG)
        }
        # a's vector arrives and byz's never does: c stays one parent short
        assert {n for _, name, n in counts if name == "c"} == {2, 1}
        assert "c" not in code_calls and code_calls.count("byz") == 2

    def test_accepted_parent_counts(self, readiness, code_calls):
        """The same topology without verification: byz's vectors arrive,
        so c becomes ready and codes once per epoch."""
        _, counts, _ = readiness
        run_simulation(_forging_parent_topology(), Protocol.NONE, m=2, rng_seed=5, epochs=2)
        assert {n for _, name, n in counts if name == "c"} == {2, 1, 0}
        assert code_calls.count("c") == 2

    def test_second_vector_from_a_sender_does_not_count(self, readiness):
        """Under Protocol.NONE a Mode-1 node re-codes every round, so its
        children take in several vectors from it in one epoch; only the
        first lowers the count of parents c1 lacks."""
        _, counts, replaced = readiness
        run_simulation(soundness_topology(Behavior(BehaviorKind.NON_INNOVATIVE)),
                       Protocol.NONE, m=3, rng_seed=11)
        assert {("c1", "byz"), ("c2", "byz")} & set(replaced)
        assert {n for _, name, n in counts if name == "c1"} == {2, 1, 0}

    def test_resets_each_epoch(self, readiness):
        starts, counts, _ = readiness
        topo = random_topology(30, 200, 3, 1, rng_seed=4)
        report = run_simulation(topo, Protocol.NONE, m=3, rng_seed=8, epochs=2)
        assert report.decoded == {"t": True}
        assert sorted({epoch for epoch, _, _ in starts}) == [1, 2]
        by_epoch = {}
        for epoch, name, n in starts:
            by_epoch.setdefault(epoch, {})[name] = n
        assert by_epoch[1] == by_epoch[2] and sum(by_epoch[1].values()) == len(topo.edges)
        # every node hears from all of its parents in each epoch
        assert [n for _, _, n in counts].count(0) >= 2 * len(by_epoch[1])


class TestDeviation:
    """The adversary catalogue, ``sim.deviation``, has a rule for every
    behavior, at node names and at node ids alike."""

    Q = 11

    # kind -> (coding, claimed) over honest [(a, q - 1), (b, 5)], target a.
    RULES = {
        BehaviorKind.HONEST: ([("a", 10), ("b", 5)], [("a", 10), ("b", 5)]),
        BehaviorKind.REPLAY_OLD: ([("a", 10), ("b", 5)], [("a", 10), ("b", 5)]),
        BehaviorKind.FORGE_TOKEN: ([("a", 10), ("b", 5)], [("a", 10), ("b", 5)]),
        BehaviorKind.NON_INNOVATIVE: ([("a", 10), ("b", 5)], [("a", 10), ("b", 5)]),
        BehaviorKind.FORWARD_ONLY: ([("a", 1)], [("a", 10), ("b", 5)]),
        BehaviorKind.SKIP_PARENT: ([("b", 5)], [("b", 5)]),
        BehaviorKind.ZERO_COEFFICIENT: ([("a", 0), ("b", 5)], [("a", 0), ("b", 5)]),
        BehaviorKind.WRONG_COEFFICIENT: ([("a", 1), ("b", 5)], [("a", 1), ("b", 5)]),
    }

    @pytest.mark.parametrize("key", [str, str.encode], ids=["name", "id"])
    @pytest.mark.parametrize("kind", list(BehaviorKind), ids=lambda k: k.value)
    def test_rule(self, kind, key):
        honest = [(key("a"), self.Q - 1), (key("b"), 5)]
        keyed = tuple([(key(p), a) for p, a in pairs] for pairs in self.RULES[kind])
        assert sim.deviation(kind, honest, key("a"), self.Q) == keyed
        only = sim.deviation(kind, honest[:1], key("a"), self.Q)
        assert (only is None) == (kind is BehaviorKind.SKIP_PARENT)

    def test_forged_claims_replace_only_the_target_helper(self, rng):
        ident = sigcrypto.keygen(rng, b"byz")
        claims = [pipcore.ParentInput(pid, 2, b"h" * 64, 3) for pid in (b"a", b"b")]
        forged = sim.forged_claims(claims, b"a", ident.sk)
        assert forged[1] == claims[1]
        assert forged[0] == claims[0]._replace(helper_sig=forged[0].helper_sig)
        assert sigcrypto.verify(ident.pk, b"forged" + b"a", forged[0].helper_sig)


def soundness_topology(behavior: Behavior) -> Topology:
    """Redundant-input fixture: byz has three parents whose packets
    overlap (x recodes a and b), and both its children also hear a."""
    nodes = {
        "s": NodeSpec(Role.SOURCE),
        "a": NodeSpec(Role.INTERIOR),
        "b": NodeSpec(Role.INTERIOR),
        "x": NodeSpec(Role.INTERIOR),
        "byz": NodeSpec(Role.INTERIOR, behavior=behavior),
        "c1": NodeSpec(Role.SINK),
        "c2": NodeSpec(Role.SINK),
    }
    edges = [
        ("s", "a"), ("s", "b"),
        ("a", "x"), ("b", "x"),
        ("a", "byz"), ("b", "byz"), ("x", "byz"),
        ("byz", "c1"), ("byz", "c2"),
        ("a", "c1"), ("a", "c2"),
    ]
    return Topology(nodes=nodes, edges=edges, source="s", byzantine=["byz"])


class TestNetworkSoundness:
    @pytest.mark.parametrize("kind", sorted(NETWORK_STRATEGIES, key=lambda k: k.value))
    def test_pip_detects_at_every_honest_child_first_round(self, kind):
        topo = soundness_topology(Behavior(kind))
        report = run_simulation(topo, Protocol.PIP, m=2, rng_seed=13, profile=SIM)
        byz_events = [d for d in report.detections if d.culprit == "byz"]
        assert {d.verifier for d in byz_events} == {"c1", "c2"}
        first = min(d.round for d in byz_events)
        # byz first emits in round 3, so its children flag it in round 4.
        assert first == 4
        assert {d.kind for d in byz_events if d.round == first} <= NETWORK_STRATEGIES[kind]
        assert all(d.culprit == "byz" for d in report.detections)

    @pytest.mark.parametrize("kind", sorted(NETWORK_STRATEGIES, key=lambda k: k.value))
    def test_logpip_with_full_challenges_matches_pip(self, kind):
        topo = soundness_topology(Behavior(kind))
        pip = run_simulation(topo, Protocol.PIP, m=2, rng_seed=13, profile=SIM)
        log = run_simulation(topo, Protocol.LOGPIP, m=2, rng_seed=13, profile=SIM, challenges=3)
        pip_pairs = {(d.verifier, d.culprit) for d in pip.detections}
        log_pairs = {(d.verifier, d.culprit) for d in log.detections}
        assert pip_pairs == log_pairs
        assert log.sink_ranks == pip.sink_ranks

    def test_honest_relay_below_adversary_is_not_blamed(self):
        """A relay waits for a verified packet from every required parent,
        so it never codes a degraded packet its children would flag."""
        topo = random_topology(30, 200, 4, 2, rng_seed=2)
        for byz in topo.byzantine:
            topo = topo.with_behavior(byz, Behavior(BehaviorKind.FORWARD_ONLY))
        report = run_simulation(topo, Protocol.PIP, m=3, rng_seed=2, profile=SIM)
        assert report.detected_culprits() == set(topo.byzantine)

    def test_honest_network_no_detections(self):
        topo = soundness_topology(Behavior.honest())
        for proto in (Protocol.PIP, Protocol.LOGPIP):
            report = run_simulation(topo, proto, m=2, rng_seed=13, profile=SIM, challenges=3)
            assert report.detections == []


class TestReceiverAdjudicatorAgreement:
    def test_every_delivery_adjudicates_as_the_receiver_found(self, monkeypatch):
        """A proof of any delivery adjudicates INNOCENT when the receiver
        accepted it, INADMISSIBLE on a bad attest or epoch, and GUILTY of
        the same violation otherwise.  Every proof a run collects is
        GUILTY: a run does not collect a proof of a bad attest or epoch
        (a replayed packet's, say), but still reports the detection.  A
        receiver checks each distinct packet once per epoch, so the runs
        span four seeds to adjudicate over 2,000 distinct deliveries."""
        verify = node_mod.verify_incoming
        pairs = []

        def checked(st, pkt):
            v = verify(st, pkt)
            proof = node_mod.build_misbehavior_proof(st, pkt)
            pairs.append((v, node_mod.adjudicate(proof, st.authority_pk, st.master_pk)))
            return v

        monkeypatch.setattr(node_mod, "verify_incoming", checked)
        for kind, rng_seed in itertools.product(sorted(BehaviorKind, key=lambda k: k.value),
                                                (13, 14, 15, 16)):
            butterfly = butterfly_topology().with_behavior("n1", Behavior(kind))
            for topo in (butterfly, soundness_topology(Behavior(kind))):
                for proto in (Protocol.PIP, Protocol.LOGPIP):
                    s = sim.Simulation(topo, proto, m=2, rng_seed=rng_seed, profile=SIM, epochs=2,
                                       challenges=3, collect_proofs=True)
                    report = s.run()
                    for proof in report.proofs:
                        out = node_mod.adjudicate(proof, s.master.pk, s.master.pk)
                        assert out.verdict is Verdict.GUILTY, (kind, proto, out)
                    if kind is BehaviorKind.REPLAY_OLD:
                        assert ViolationKind.BAD_EPOCH in {d.kind for d in report.detections}
        assert len(pairs) > 2000
        for v, out in pairs:
            if v is None:
                assert out.verdict is Verdict.INNOCENT, out
            elif v.kind in (ViolationKind.BAD_ATTEST, ViolationKind.BAD_EPOCH):
                assert out.verdict is Verdict.INADMISSIBLE, (v, out)
            else:
                assert out.verdict is Verdict.GUILTY and out.violation.kind is v.kind, (v, out)


def _report_fields(report):
    return (report.sink_ranks, report.decoded, report.verdicts, report.detections,
            report.proofs, report.fallbacks, report.rounds)


def _replay_topology():
    """s -> byz -> c, where byz replays its epoch-1 packet in later epochs."""
    nodes = {
        "s": NodeSpec(Role.SOURCE),
        "byz": NodeSpec(Role.INTERIOR, behavior=Behavior(BehaviorKind.REPLAY_OLD)),
        "c": NodeSpec(Role.SINK),
    }
    return Topology(nodes=nodes, edges=[("s", "byz"), ("byz", "c")],
                    source="s", byzantine=["byz"])


@pytest.fixture
def check_calls(monkeypatch):
    """Every delivery ``Simulation._accepts`` saw and every check it ran,
    each as (epoch, receiver id, packet[, challenged parent])."""
    calls = {"deliveries": [], "verify": [], "targets": [], "challenge": []}
    accepts = sim.Simulation._accepts
    verify, targets, challenge = (
        node_mod.verify_incoming, node_mod.challenge_targets, node_mod.check_challenge)

    def seen(self, r, name, sender, pkt):
        calls["deliveries"].append((self.params.k, name.encode(), pkt))
        return accepts(self, r, name, sender, pkt)

    def verified(st, pkt):
        calls["verify"].append((st.params.k, st.node_id, pkt))
        return verify(st, pkt)

    def picked(st, pkt, t, rng):
        calls["targets"].append((st.params.k, st.node_id, pkt))
        return targets(st, pkt, t, rng)

    def challenged(st, pkt, target, tree, sk):
        calls["challenge"].append((st.params.k, st.node_id, pkt, target))
        return challenge(st, pkt, target, tree, sk)

    monkeypatch.setattr(sim.Simulation, "_accepts", seen)
    monkeypatch.setattr(node_mod, "verify_incoming", verified)
    monkeypatch.setattr(node_mod, "challenge_targets", picked)
    monkeypatch.setattr(node_mod, "check_challenge", challenged)
    return calls


def _random_memo_topology():
    """Two adversaries on a cut: one re-codes every round, one resends."""
    topo = random_topology(20, 90, 3, 2, rng_seed=5)
    for byz, kind in zip(topo.byzantine, (BehaviorKind.NON_INNOVATIVE, BehaviorKind.SKIP_PARENT)):
        topo = topo.with_behavior(byz, Behavior(kind))
    return topo


MEMO_CASES = {
    "skipparent": soundness_topology(Behavior(BehaviorKind.SKIP_PARENT)),
    "noninnovative": soundness_topology(Behavior(BehaviorKind.NON_INNOVATIVE)),
    "replay": _replay_topology(),
    "random": _random_memo_topology(),
}


class TestCheckMemo:
    """A receiver checks each distinct packet once per epoch, and each
    challenge is checked once per epoch for all of the sender's children;
    the report is that of checking every delivery."""

    @pytest.mark.parametrize("proto", [Protocol.PIP, Protocol.LOGPIP])
    @pytest.mark.parametrize("case", MEMO_CASES)
    def test_each_distinct_packet_checked_once_per_epoch(self, check_calls, proto, case):
        report = sim.Simulation(MEMO_CASES[case], proto, m=2, rng_seed=8, epochs=2, challenges=1).run()
        deliveries, verify = check_calls["deliveries"], check_calls["verify"]
        assert len(report.verdicts) == len(deliveries) > len(set(deliveries))
        assert len(verify) == len(set(verify))
        assert set(verify) == set(deliveries)

    @pytest.mark.parametrize("case", MEMO_CASES)
    def test_challenges_drawn_every_delivery_checked_once(self, check_calls, case):
        """Every accepted delivery of a Log-PIP root draws this round's
        targets; each (sender, sigma, token, target) is challenged once
        per epoch, whichever of the sender's children draws it."""
        report = sim.Simulation(MEMO_CASES[case], Protocol.LOGPIP, m=2, rng_seed=8, epochs=2,
                                challenges=1).run()
        rooted = [
            (k, receiver, pkt) for (k, receiver, pkt), (_, _, _, v)
            in zip(check_calls["deliveries"], report.verdicts)
            if v is None and isinstance(pkt.test_token, pipcore.LogPipTestToken)
        ]
        assert rooted and check_calls["targets"] == rooted
        challenged = [(k, pkt.sender_id, pkt.sigma, pkt.test_token, target)
                      for k, _, pkt, target in check_calls["challenge"]]
        assert len(challenged) == len(set(challenged)) < len(rooted)

    @pytest.mark.parametrize("proto", [Protocol.PIP, Protocol.LOGPIP])
    @pytest.mark.parametrize("case", MEMO_CASES)
    def test_report_equals_checking_every_delivery(self, monkeypatch, proto, case):
        """Verdicts, detections, proofs (challenge transcripts included)
        and ranks are those of a run that recomputes every check."""
        def run():
            return sim.Simulation(MEMO_CASES[case], proto, m=2, rng_seed=8, epochs=2,
                                  challenges=1, collect_proofs=True).run()

        memo = run()
        monkeypatch.setattr(sim, "_memo", lambda checked, key, compute, *args: compute(*args))
        assert _report_fields(memo) == _report_fields(run())

    @pytest.mark.parametrize("proto", [Protocol.PIP, Protocol.LOGPIP])
    def test_rejected_resend_detected_every_round(self, proto):
        """byz codes once and resends; each child flags it again every
        round, with the same findings, until the epoch ends."""
        topo = soundness_topology(Behavior(BehaviorKind.FORWARD_ONLY))
        report = run_simulation(topo, proto, m=2, rng_seed=13, challenges=3)
        for child in ("c1", "c2"):
            by_round = {}
            for d in report.detections:
                if d.verifier == child:
                    assert d.culprit == "byz"
                    by_round.setdefault(d.round, []).append(d.kind)
            assert sorted(by_round) == list(range(4, report.rounds + 1)), child
            assert len({tuple(kinds) for kinds in by_round.values()}) == 1, child

    def test_memo_is_per_receiver(self):
        """A packet one child accepted is checked afresh at another: its
        helper token names the first child."""
        s = sim.Simulation(soundness_topology(Behavior.honest()), Protocol.PIP, m=2, rng_seed=13)
        s.run()
        pkt = s.nodes["byz"].sent[1]["c1"]
        assert not s._accepts(1, "c2", "byz", pkt)
        assert s.report.verdicts[-1][3].kind is ViolationKind.BAD_HELPER_SIG


@pytest.mark.usefixtures("ed25519_route")
class TestSharedVerifications:
    """``Simulation.run`` verifies each distinct Ed25519 triple once, for
    all of its nodes; calls outside a run do the full work."""

    @pytest.mark.parametrize("proto", [Protocol.PIP, Protocol.LOGPIP])
    @pytest.mark.parametrize("kind", sorted(BehaviorKind, key=lambda k: k.value))
    def test_report_equals_verifying_every_signature(self, monkeypatch, proto, kind):
        """Ranks, decoding, verdicts, detections, proofs, fallbacks and
        each proof's adjudication are those of a run without the scope."""
        def run():
            s = sim.Simulation(soundness_topology(Behavior(kind)), proto, m=2, rng_seed=13,
                               epochs=2, challenges=3, collect_proofs=True)
            report = s.run()
            rulings = [node_mod.adjudicate(pf, s.master.pk, s.master.pk) for pf in report.proofs]
            return _report_fields(report), rulings

        shared = run()
        monkeypatch.setattr(sim.sigcrypto, "shared_verifications", contextlib.nullcontext)
        assert shared == run()

    @pytest.mark.parametrize("proto", [Protocol.PIP, Protocol.LOGPIP])
    @pytest.mark.parametrize("case", ["random", "forge"])
    def test_each_passing_triple_verified_once_per_run(
        self, monkeypatch, ed25519_verifies, proto, case
    ):
        topo = (MEMO_CASES[case] if case == "random"
                else soundness_topology(Behavior(BehaviorKind.FORGE_TOKEN)))
        calls = []
        verify = sigcrypto.verify

        def counted(pk, message, sig):
            ok = verify(pk, message, sig)
            calls.append(((pk, bytes(message), sig), ok))
            return ok

        monkeypatch.setattr(sigcrypto, "verify", counted)
        sim.Simulation(topo, proto, m=2, rng_seed=8, epochs=2, challenges=1).run()
        passing = [t for t, ok in ed25519_verifies if ok]
        assert len(passing) == len(set(passing))
        assert set(passing) == {t for t, ok in calls if ok}
        assert [c for c in calls if not c[1]] == [c for c in ed25519_verifies if not c[1]]
        assert len(ed25519_verifies) < len(calls)
        if case == "forge":
            assert any(not ok for _, ok in calls)

    def test_checks_outside_a_run_verify_in_full(self, ed25519_verifies):
        """``verify_incoming`` and ``adjudicate`` called on their own, as
        the production relay and adjudication do, check every signature in
        full every time."""
        s = sim.Simulation(soundness_topology(Behavior.honest()), Protocol.PIP, m=2, rng_seed=13)
        s.run()
        st, pkt = s.nodes["c1"].state, s.nodes["byz"].sent[1]["c1"]
        proof = node_mod.build_misbehavior_proof(st, pkt)
        for check in (lambda: node_mod.verify_incoming(st, pkt),
                      lambda: node_mod.adjudicate(proof, s.master.pk, s.master.pk).violation):
            ed25519_verifies.clear()
            assert check() is None
            first = list(ed25519_verifies)
            assert check() is None
            assert first and ed25519_verifies == first * 2


def _spans_at_epoch_ends(monkeypatch):
    """Every receiver's verified span, as (node id, pivots, basis), recorded
    when its next epoch starts; ``NodeState.enter_epoch`` clears it."""
    spans = []
    enter = node_mod.NodeState.enter_epoch

    def recorded(st, params):
        if st.verified is not None:
            spans.append((st.node_id, list(st.verified.pivots), [list(b) for b in st.verified.basis]))
        enter(st, params)

    monkeypatch.setattr(node_mod.NodeState, "enter_epoch", recorded)
    return spans


class TestSharedContent:
    """``Simulation.run`` checks the attest and content of a packet (attest
    signature, epoch binding, validity signature, token) once for all of
    its sender's children; each child checks its own edge's helper."""

    @pytest.mark.parametrize("case", ["random", "skipparent"])
    def test_one_attest_per_draft(self, monkeypatch, ed25519_signs, case):
        """A PIP run signs each draft's attest once, and the draft's
        children check that one triple once: the distinct attest triples
        checked are the drafts delivered (an epoch's last round is never
        delivered).  Every other signature is a helper, one per child of
        each draft, or an epoch's master signature."""
        drafts, attests, delivered, helpers = [], [], [], []
        build, finalize, verify = (node_mod.build_draft, node_mod.finalize_packet,
                                   node_mod.verify_attest)
        accepts = sim.Simulation._accepts

        def built(st, *args):
            draft = build(st, *args)
            drafts.append((st.identity.pk, node_mod.packet_signed_bytes(draft, st.params),
                           draft.attest))
            return draft

        def finalized(st, draft, child_id):
            helpers.append(child_id)
            return finalize(st, draft, child_id)

        monkeypatch.setattr(node_mod, "build_draft", built)
        monkeypatch.setattr(node_mod, "finalize_packet", finalized)
        monkeypatch.setattr(node_mod, "verify_attest",
                            lambda *triple: attests.append(triple) or verify(*triple))
        monkeypatch.setattr(sim.Simulation, "_accepts",
                            lambda s, r, name, sender, pkt: delivered.append(pkt)
                            or accepts(s, r, name, sender, pkt))
        s = sim.Simulation(MEMO_CASES[case], Protocol.PIP, m=2, rng_seed=8, epochs=2)
        ed25519_signs.clear()  # the certificates made in set-up
        s.run()
        assert len(set(drafts)) == len(drafts)
        sent = {pkt.attest for pkt in delivered}
        assert sorted(attests) == sorted(d for d in drafts if d[2] in sent)
        assert len(set(delivered)) > len(sent) > len(drafts) / 2
        assert len(ed25519_signs) == 2 + len(drafts) + len(helpers)

    @pytest.mark.parametrize("proto", [Protocol.PIP, Protocol.LOGPIP])
    @pytest.mark.parametrize("kind", sorted(BehaviorKind, key=lambda k: k.value))
    def test_report_equals_checking_content_per_receiver(self, monkeypatch, proto, kind):
        """Ranks, verdicts, detections, proofs, fallbacks, adjudications
        and every receiver's verified span, at the end of each epoch, are
        those of a run in which every receiver checks the content itself."""
        spans = _spans_at_epoch_ends(monkeypatch)

        def run():
            spans.clear()
            s = sim.Simulation(soundness_topology(Behavior(kind)), proto, m=2, rng_seed=13,
                               epochs=2, challenges=3, collect_proofs=True)
            report = s.run()
            rulings = [node_mod.adjudicate(pf, s.master.pk, s.master.pk) for pf in report.proofs]
            final = [(n.state.node_id, n.state.verified.pivots, n.state.verified.basis)
                     for _, n in sorted(s.nodes.items())]
            return _report_fields(report), rulings, list(spans), final

        shared = run()
        monkeypatch.setattr(sim.node_mod, "shared_content_checks", contextlib.nullcontext)
        alone = run()
        assert shared == alone
        assert any(pivots for _, pivots, _ in shared[3])

    def test_checks_outside_a_run_do_the_full_work(self, monkeypatch):
        """``verify_incoming`` and ``adjudicate`` called on their own run
        the validity check and the PIP token check every time."""
        s = sim.Simulation(soundness_topology(Behavior.honest()), Protocol.PIP, m=2, rng_seed=13)
        s.run()
        st, pkt = s.nodes["c1"].state, s.nodes["byz"].sent[1]["c1"]
        proof = node_mod.build_misbehavior_proof(st, pkt)
        calls = []
        for module, name in ((validity, "verify_validity"), (pipcore, "pip_verif_test")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        for check in (lambda: node_mod.verify_incoming(st, pkt),
                      lambda: node_mod.adjudicate(proof, s.master.pk, s.master.pk).violation):
            calls.clear()
            assert check() is None and check() is None
            assert calls == ["verify_validity", "pip_verif_test"] * 2

    @pytest.mark.parametrize("doctored", ["c1", "c2"])
    @pytest.mark.parametrize("field, kind", [("grandparent_pks", ViolationKind.BAD_HELPER_SIG),
                                              ("required_set", ViolationKind.MISSING_ENTRY)])
    def test_other_view_of_the_sender_gets_its_own_verdict(self, doctored, field, kind):
        """One child registers byz with another grandparent key, or another
        required set; it rejects byz's packets, and the other child, which
        gets the same content, accepts them, whichever checks first."""
        s = sim.Simulation(soundness_topology(Behavior.honest()), Protocol.PIP, m=2, rng_seed=13)
        info = s.nodes[doctored].state.parents[b"byz"]
        if field == "grandparent_pks":
            change = {"grandparent_pks": {**info.grandparent_pks, b"a": s.master.pk}}
        else:
            change = {"required_set": info.required_set | {b"s"}}
        s.nodes[doctored].state.parents[b"byz"] = dataclasses.replace(info, **change)
        report = s.run()
        from_byz = [(verifier, v) for _, verifier, sender, v in report.verdicts if sender == "byz"]
        assert {verifier for verifier, _ in from_byz} == {"c1", "c2"}
        for verifier, v in from_byz:
            if verifier == doctored:
                assert v is not None and v.kind is kind, v
            else:
                assert v is None, v


def span_reads(monkeypatch):
    """The span object behind each read of ``_SimNode.span``, in read
    order; a node's span is a new object each epoch."""
    read = []
    real = sim._SimNode.span

    def recorded(sim_node):
        read.append(real.fget(sim_node))
        return read[-1]

    monkeypatch.setattr(sim._SimNode, "span", property(recorded))
    return read


@pytest.mark.usefixtures("ed25519_route")
class TestRunCounts:
    """``Simulation.run`` logs one DEBUG record of the work it did."""

    @pytest.mark.parametrize("proto", [Protocol.PIP, Protocol.LOGPIP])
    def test_counts_match_the_work_done(self, monkeypatch, caplog, ed25519_verifies, proto):
        counted = {"checks": 0, "contents": 0, "challenges": 0}
        for name, key in (("verify_incoming", "checks"), ("_check_content", "contents"),
                          ("check_challenge", "challenges")):
            real = getattr(node_mod, name)

            def wrapped(*args, real=real, key=key):
                counted[key] += 1
                return real(*args)

            monkeypatch.setattr(node_mod, name, wrapped)
        read = span_reads(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="rlncheck.sim")
        report = sim.Simulation(MEMO_CASES["random"], proto, m=2, rng_seed=8, epochs=2,
                                challenges=2).run()
        records = [r for r in caplog.records if r.name == "rlncheck.sim"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        counts = records[0].args
        assert counts == {
            "deliveries": len(report.verdicts), **counted,
            "triples": len({t for t, ok in ed25519_verifies if ok}),
            "spans": len({id(rows) for rows in read}), "replayed": 0,
        }
        assert counts["deliveries"] > counts["checks"] > counts["contents"] > 0
        assert (counts["challenges"] > 0) == (proto is Protocol.LOGPIP)
        assert counts["spans"] > 0
        assert "shared content checks" in records[0].getMessage()

    def test_unverified_run_counts_nothing(self, caplog):
        """A first run of its key simulates every node: it replays none."""
        sim._run_shape.cache_clear()
        caplog.set_level(logging.DEBUG, logger="rlncheck.sim")
        sim.Simulation(MEMO_CASES["random"], Protocol.NONE, m=2, rng_seed=8).run()
        (record,) = [r for r in caplog.records if r.name == "rlncheck.sim"]
        assert {k: v for k, v in record.args.items() if k != "spans"} == dict.fromkeys(
            ["deliveries", "checks", "contents", "challenges", "triples", "replayed"], 0)

    @pytest.mark.parametrize("epochs", [1, 2])
    @pytest.mark.parametrize("topo", [butterfly_topology(), random_topology(30, 200, 3, 1, 4)],
                             ids=["butterfly", "random"])
    def test_honest_unverified_run_reads_only_the_sinks(self, monkeypatch, caplog, topo, epochs):
        """Under Protocol.NONE an honest run that simulates every node (the
        record is cleared first) reads a span only for the sinks' ranks at
        the end: one span per sink, in the last epoch."""
        sim._run_shape.cache_clear()
        read = span_reads(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="rlncheck.sim")
        s = sim.Simulation(topo, Protocol.NONE, m=3, rng_seed=8, epochs=epochs)
        s.run()
        (record,) = [r for r in caplog.records if r.name == "rlncheck.sim"]
        assert record.args["spans"] == len(topo.sinks)
        assert {id(rows) for rows in read} == {id(s.nodes[t].rows) for t in topo.sinks}


def _span_of(rows, q, m):
    """A fresh span with ``rows`` added in order."""
    span = gf.Span(q, m)
    for row in rows:
        span.add(row)
    return span


def _received_span(sim_node, q, m):
    return _span_of([v.coding_vector for v in sim_node.received_vectors], q, m)


def _rows(span):
    return span.pivots, span.basis, span.dim


class TestLazySpans:
    """A node's span takes in its received vectors only when read, in
    arrival order, so every read gives the basis that adding each vector
    on arrival gives."""

    @pytest.mark.parametrize("proto", [Protocol.NONE, Protocol.PIP, Protocol.LOGPIP])
    @pytest.mark.parametrize("case", ["noninnovative", "random"])
    def test_every_read_equals_a_fresh_span(self, monkeypatch, proto, case):
        m = 3
        partial = []
        real = sim._SimNode.span

        def checked(sim_node):
            got = real.fget(sim_node)
            assert _rows(got) == _rows(_received_span(sim_node, got.q, m))
            if 0 < got.dim < m:
                partial.append(got)
            return got

        monkeypatch.setattr(sim._SimNode, "span", property(checked))
        s = sim.Simulation(MEMO_CASES[case], proto, m=m, rng_seed=8, epochs=2, challenges=1)
        s.run()
        # The Mode-1 node read a child's span while it was still filling.
        assert partial
        for sim_node in s.nodes.values():
            assert _rows(sim_node.span) == _rows(_received_span(sim_node, s.q, m))

    def test_honest_unverified_run_adds_only_to_the_sinks_span(self, monkeypatch):
        """In an honest run that simulates every node (the record is
        cleared first), only the sink's span takes in vectors."""
        sim._run_shape.cache_clear()
        topo = random_topology(30, 200, 3, 1, rng_seed=4)
        added = []
        real = gf.Span.add

        def counted(span, row):
            added.append(span)
            return real(span, row)

        monkeypatch.setattr(gf.Span, "add", counted)
        s = sim.Simulation(topo, Protocol.NONE, m=3, rng_seed=8)
        assert s.run().sink_ranks == {"t": 3}
        sink = s.nodes["t"]
        assert len(added) == len(sink.received_vectors) and {id(x) for x in added} == {id(sink.rows)}


def dense_non_innovative_coeffs(received, child_spans, q, rng):
    """Oracle: the Mode-1 choice made by folding every nullspace basis
    vector, dense, into alpha, one draw from ``rng`` per vector."""
    parents = sorted(received)
    vecs = [received[p] for p in parents]
    spans = [s for s in child_spans if s.dim > 0]
    if not spans or not vecs:
        return None
    m = spans[0].width
    unit = [[int(i == j) for i in range(m)] for j in range(m)]
    columns = [col for s in spans if s.dim < m for col in zip(*[s.residual(e) for e in unit])]
    reduced, pivots = gf.row_reduce(columns, q)
    rows = [
        [sum(c * b for c, b in zip(v.coding_vector, row)) % q for row in reduced[:len(pivots)]]
        for v in vecs
    ]
    basis = gf.left_nullspace(rows, q)
    if not basis:
        return None
    fallback = None
    for _ in range(64):
        alpha = [0] * len(vecs)
        for b in basis:
            c = rng.randrange(q)
            alpha = [(a + c * bi) % q for a, bi in zip(alpha, b)]
        if any(a == 0 for a in alpha):
            continue
        if not gf.linear_combine(vecs, alpha, q).is_zero():
            return alpha
        if fallback is None:
            fallback = alpha
    return fallback


class TestNonInnovativeCoeffs:
    """A full child span constrains nothing: adding full spans to a Mode-1
    choice changes neither the coefficients nor the adversary's draws."""

    @staticmethod
    def _choose(received, spans, q, seed):
        """(alpha, rng state after the choice); the emission returned with
        alpha must be the combination it codes."""
        rng = random.Random(seed)
        choice = sim._non_innovative_coeffs(received, spans, q, rng)
        if choice is None:
            return None, rng.getstate()
        alpha, out = choice
        assert out == gf.linear_combine([received[p] for p in sorted(received)], alpha, q)
        return alpha, rng.getstate()

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_full_spans_change_nothing(self, data):
        q = data.draw(st.sampled_from([TEST.q, SIM.q]))
        m = data.draw(st.integers(1, 4))
        elem = st.integers(0, q - 1)
        received = {
            f"p{i}": gf.vector([data.draw(elem)], data.draw(st.lists(elem, min_size=m, max_size=m)), q)
            for i in range(data.draw(st.integers(1, 4)))
        }
        unit = [[int(i == j) for i in range(m)] for j in range(m)]
        rows = st.lists(st.lists(elem, min_size=m, max_size=m), max_size=m + 1)
        spans = [_span_of(data.draw(rows), q, m) for _ in range(data.draw(st.integers(0, 3)))]
        if all(s.dim == 0 for s in spans):
            spans.append(_span_of(unit, q, m))  # with no partial span, every span is full
        more = list(spans)
        for _ in range(data.draw(st.integers(1, 3))):
            more.insert(data.draw(st.integers(0, len(more))), _span_of(unit, q, m))
        seed = data.draw(st.integers(0, 2**32))
        got = self._choose(received, spans, q, seed)
        assert self._choose(received, more, q, seed) == got
        alphas = got[0]
        if alphas is not None:
            out = gf.linear_combine([received[p] for p in sorted(received)], alphas, q)
            assert all(s.contains(out.coding_vector) for s in spans if s.dim)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_sampler(self, data):
        """The sampler reads the RREF basis (draws at the leads, one dot
        product per other position) and gives the dense fold's alpha and
        leaves ``rng`` in the same state: with every view full (no
        columns), with rank-deficient rows (repeated, dependent and zero
        coding vectors) and with more parents than chunks."""
        q = data.draw(st.sampled_from([2, 3, TEST.q, SIM.q]))
        m = data.draw(st.integers(1, 4))
        elem = st.integers(0, q - 1)
        coding = st.lists(elem, min_size=m, max_size=m)
        pool = []
        for _ in range(data.draw(st.integers(1, 8))):
            pick = data.draw(st.integers(0, 3))
            if pick == 0 and pool:
                row = list(data.draw(st.sampled_from(pool)))  # repeated
            elif pick == 1 and len(pool) >= 2:  # dependent on two earlier rows
                a, b, c1, c2 = data.draw(st.tuples(st.sampled_from(pool), st.sampled_from(pool), elem, elem))
                row = [(c1 * x + c2 * y) % q for x, y in zip(a, b)]
            elif pick == 2:
                row = [0] * m
            else:
                row = data.draw(coding)
            pool.append(row)
        received = {f"p{i:02d}": gf.vector([data.draw(elem)], row, q) for i, row in enumerate(pool)}
        unit = [[int(i == j) for i in range(m)] for j in range(m)]
        if data.draw(st.booleans()):
            spans = [_span_of(unit, q, m) for _ in range(data.draw(st.integers(1, 3)))]
        else:
            rows = st.lists(coding, max_size=m + 1)
            spans = [_span_of(data.draw(rows), q, m) for _ in range(data.draw(st.integers(0, 3)))]
        seed = data.draw(st.integers(0, 2**32))
        want_rng = random.Random(seed)
        want = dense_non_innovative_coeffs(received, spans, q, want_rng)
        assert self._choose(received, spans, q, seed) == (want, want_rng.getstate())

    @pytest.mark.parametrize("q", [TEST.q, SIM.q])
    def test_every_span_full(self, q):
        """Full spans still count as children that hold something, so the
        choice is made (over the whole space) rather than left to the
        honest fall-back."""
        m = 3
        unit = [[int(i == j) for i in range(m)] for j in range(m)]
        rng = random.Random(q)
        received = {p: gf.vector([1], [rng.randrange(q) for _ in range(m)], q) for p in "abc"}
        one = self._choose(received, [_span_of(unit, q, m)], q, 5)
        assert one[0] is not None and all(one[0])
        assert self._choose(received, [_span_of(unit, q, m) for _ in range(3)], q, 5) == one


@pytest.fixture
def generator_products(monkeypatch):
    """Calls of the epoch's (n+m)-base generator product made inside a
    receiver's ``verify_incoming``, per (epoch, receiver id); the (E, sigma)
    of each such full check, in call order; and the verified span each
    receiver held when its first check of an epoch began."""
    calls, full, first_spans = {}, [], {}
    product, verify = validity.power_product, node_mod.verify_incoming
    receiver = []

    def counted(bases, *args):
        if receiver and bases is receiver[-1][0].params.generators:
            st, pkt = receiver[-1]
            key = (st.params.k, st.node_id)
            calls[key] = calls.get(key, 0) + 1
            full.append((pkt.E, pkt.sigma))
        return product(bases, *args)

    def checked(st, pkt):
        key = (st.params.k, st.node_id)
        first_spans.setdefault(key, (st.verified, st.verified.dim))
        receiver.append((st, pkt))
        try:
            return verify(st, pkt)
        finally:
            receiver.pop()

    monkeypatch.setattr(validity, "power_product", counted)
    monkeypatch.setattr(node_mod, "verify_incoming", checked)
    return calls, full, first_spans


class TestVerifiedSpan:
    """A receiver pays for the generator product only for packets outside
    the span of those it has verified this epoch: at most m times.  Inside
    a run the content check is shared by a sender's children, so each
    distinct (E, sigma) is checked in full at most once, by whichever
    receiver checks it first; a receiver whose packets were all checked
    elsewhere pays for no product at all."""

    @pytest.mark.parametrize("proto", [Protocol.PIP, Protocol.LOGPIP])
    @pytest.mark.parametrize("case", ["honest", "random"])
    def test_generator_product_at_most_m_per_epoch(self, generator_products, proto, case):
        topo = (random_topology(20, 90, 3, 0, rng_seed=5) if case == "honest"
                else MEMO_CASES[case])
        m = 3
        report = sim.Simulation(topo, proto, m=m, rng_seed=8, epochs=2, challenges=1).run()
        calls, full, first_spans = generator_products
        receivers = {(k, name.encode()) for k in (1, 2) for _, name in topo.edges}
        assert set(first_spans) == receivers
        assert set(calls) <= receivers and {k for k, _ in calls} == {1, 2}
        assert all(1 <= c <= m for c in calls.values()), calls
        assert full and len(full) == len(set(full))
        for k, rid in receivers:
            span, dim = first_spans[(k, rid)]
            assert dim == 0
            if k == 2:
                assert span is not first_spans[(1, rid)][0]
        if case == "honest":
            assert not report.detections and report.sink_ranks == {"t": m}

    def test_enter_epoch_starts_an_empty_span(self):
        s = sim.Simulation(_replay_topology(), Protocol.PIP, m=2, rng_seed=3)
        s.run()
        st = s.nodes["c"].state
        assert st.verified.dim == 1  # the one packet byz sent
        st.enter_epoch(s.params)
        assert st.verified.dim == 0 and st.verified.width == s.m + sim.PAYLOAD_CHUNKS


class TestDraftSignatures:
    @pytest.mark.parametrize("protocol", [Protocol.PIP, Protocol.LOGPIP])
    @pytest.mark.parametrize("kind", sorted(BehaviorKind, key=lambda k: k.value))
    def test_draft_sigma_is_combination_of_coded_inputs(self, monkeypatch, kind, protocol):
        """A draft signed with H(c_E), or with its Log-PIP root, carries the
        combination of the validity signatures it coded, for every node
        of every behaviour, in both epochs.  The source's draft codes no
        inputs: it carries sign_validity of its vector and an empty PIP
        token under either protocol."""
        drafts = []
        build = node_mod.build_draft

        def recorded(state, E, coded, claims):
            draft = build(state, E, coded, claims)
            drafts.append((state.params, coded, draft))
            return draft

        monkeypatch.setattr(sim.node_mod, "build_draft", recorded)
        topo = soundness_topology(Behavior(kind))
        run_simulation(topo, protocol, m=2, rng_seed=13, profile=SIM, epochs=2)
        assert {params.k for params, _, _ in drafts} == {1, 2}
        assert any(not coded for _, coded, _ in drafts)
        for params, coded, draft in drafts:
            if not coded:  # the source's: a combination of the originals
                assert draft.sigma == validity.sign_validity(params, draft.E)
                assert draft.test_token == pipcore.PipTestToken(entries=())
                continue
            assert draft.sigma == validity.combine_validity(
                [i.sigma for i in coded], [i.coeff for i in coded], params
            )


class TestHonestThroughput:
    def test_random_dags_reach_cut_and_decode(self):
        """All-honest full-protocol runs: no verdicts, rank = min(cut, m),
        decodable when the whole generation arrives."""
        for seed in range(20):
            cut = 1 + seed % 3
            topo = random_topology(12, 40, cut, 0, rng_seed=seed)
            m = 3
            report = run_simulation(topo, Protocol.PIP, m=m, rng_seed=seed, profile=SIM)
            assert not report.detections, seed
            assert report.sink_ranks["t"] == min(cut, m), (seed, cut)
            if report.sink_ranks["t"] == m:
                assert report.decoded["t"], seed

    def test_butterfly_full_engine_decodes(self):
        report = run_simulation(butterfly_topology(), Protocol.PIP, m=2, rng_seed=7, profile=SIM)
        assert report.sink_ranks == {"n2": 2, "n3": 2}
        assert report.decoded == {"n2": True, "n3": True}

    def test_sinks_decode_each_epoch_afresh(self):
        report = run_simulation(butterfly_topology(), Protocol.PIP, m=2, rng_seed=3,
                                profile=SIM, epochs=2)
        assert report.decoded == {"n2": True, "n3": True}

    def test_unverified_engine_decodes(self):
        report = run_simulation(butterfly_topology(), Protocol.NONE, m=2, rng_seed=7)
        assert report.decoded == {"n2": True, "n3": True}


class TestReplay:
    def test_replay_detected_after_epoch_change(self):
        """The replayed packet equals one the sink accepted in epoch 1; it
        is checked again in epoch 2 and rejected in every round."""
        for seed, proto in itertools.product(range(5), (Protocol.PIP, Protocol.LOGPIP)):
            report = run_simulation(
                _replay_topology(), proto, m=2, rng_seed=seed, profile=SIM, epochs=2
            )
            kinds = {d.kind for d in report.detections if d.culprit == "byz"}
            assert ViolationKind.BAD_EPOCH in kinds, seed
            got = [(r, v) for r, _, sender, v in report.verdicts if sender == "byz"]
            half = len(got) // 2
            assert got[:half] == [(r, None) for r in range(2, report.rounds // 2 + 1)], seed
            assert [r for r, _ in got[half:]] == [r for r, _ in got[:half]], seed
            assert all(v.kind is ViolationKind.BAD_EPOCH for _, v in got[half:]), seed


    def test_unverified_replay_resends_epoch_one_vector(self):
        """Without verification a replaying node still acts: in epoch 2 it
        resends the packet it first sent in epoch 1, so the sink cannot
        decode epoch 2's payloads."""
        run = sim.Simulation(_replay_topology(), Protocol.NONE, m=2, rng_seed=3, epochs=2)
        report = run.run()
        stored_vector, stored_packets = run.nodes["byz"].stored_old
        assert stored_packets == {"c": stored_vector}
        received = run.nodes["c"].received_vectors
        assert received and all(v == stored_vector for v in received)
        assert report.sink_ranks == {"c": 1}
        assert report.decoded == {"c": False}


class TestModeSweep:
    def test_deterministic_and_ordered(self):
        cfg = sim.SweepConfig(node_count=24, edge_count=150, m=3,
                              min_cuts=(1, 2, 3), seeds=(0, 1, 2))
        rows1, summary1 = mode_sweep(cfg)
        rows2, summary2 = mode_sweep(cfg)
        assert rows1 == rows2 and summary1 == summary2
        by_point = {}
        for cut, mode, mean in summary1:
            by_point[(cut, mode)] = mean
        for cut in (1, 2, 3):
            assert by_point[(cut, "mode3")] >= by_point[(cut, "mode2")] >= by_point[(cut, "mode1")]

    def test_skipped_pairs_are_logged(self, caplog):
        cfg = sim.SweepConfig(node_count=6, edge_count=12, m=2, min_cuts=(1, 5), seeds=(0, 1))
        quiet = mode_sweep(cfg)
        with caplog.at_level(logging.INFO, logger="rlncheck.sim"):
            logged = mode_sweep(cfg)
        assert logged == quiet
        assert {row.min_cut for row in quiet[0]} == {1}
        skipped = [r.args[:2] for r in caplog.records if r.name == "rlncheck.sim"]
        assert skipped == [(5, 0), (5, 1)]

    def test_stage_times_logged_per_pair(self, caplog):
        cfg = sim.SweepConfig(node_count=6, edge_count=12, m=2, min_cuts=(1, 5), seeds=(0, 1))
        quiet = mode_sweep(cfg)
        with caplog.at_level(logging.DEBUG, logger="rlncheck.sim"):
            logged = mode_sweep(cfg)
        assert logged == quiet
        pairs = [r for r in caplog.records
                 if r.levelno == logging.DEBUG and r.getMessage().startswith("mode_sweep:")]
        assert [(r.args["cut"], r.args["seed"]) for r in pairs] == [(1, 0), (1, 1)]
        for r in pairs:
            assert r.args["topology_s"] > 0 and r.args["runs_s"] > 0


class TestHonestTable:
    """The prescribed coefficients: derived once per epoch under PIP and
    Log-PIP, and under Protocol.NONE once per key, in the key's first run,
    whose record the later runs take them from."""

    def _topology(self):
        return random_topology(30, 200, 3, 2, rng_seed=9)

    @staticmethod
    def _derivations(monkeypatch) -> list:
        """The (node, context) of every ``node.derive_coefficients`` call."""
        calls = []
        derive = node_mod.derive_coefficients

        def counted(seed, parent_ids, node_id, context, q):
            calls.append((node_id.decode(), context))
            return derive(seed, parent_ids, node_id, context, q)

        monkeypatch.setattr(node_mod, "derive_coefficients", counted)
        return calls

    def test_mode_rows_derive_one_table(self, monkeypatch):
        """One derivation per coding node, all in the point's first run."""
        topo = self._topology()
        sim._run_shape.cache_clear()
        calls, after = self._derivations(monkeypatch), []
        run = sim.run_simulation

        def counted(*args, **kwargs):
            report = run(*args, **kwargs)
            after.append(len(calls))
            return report

        monkeypatch.setattr(sim, "run_simulation", counted)
        sim.mode_rows(topo, {"t": 3}, seed=4, m=3)
        plan = sim.Simulation(topo, Protocol.NONE, m=3)._shape.plan
        assert calls == [(name, b"lite") for name, _ in plan]
        assert after == [len(plan)] * 3

    def test_rows_equal_deriving_every_run(self, monkeypatch):
        topo = self._topology()
        shared = [sim.mode_rows(topo, {"t": 3}, seed, m=3) for seed in range(4)]
        runs = clear_before_every_run(monkeypatch)
        assert [sim.mode_rows(topo, {"t": 3}, seed, m=3) for seed in range(4)] == shared
        assert len(runs) == 12 and not any(run._replayed for run in runs)

    def test_verified_run_keys_on_its_epoch_key(self, monkeypatch):
        """A verified run after a Protocol.NONE run of the same key derives
        its own table in each epoch, from that epoch's key."""
        topo = butterfly_topology()
        run_simulation(topo, Protocol.NONE, m=2, rng_seed=7, epochs=2)
        tables, keys = [], []
        derive, setup = sim.Simulation._honest_table, validity.epoch_setup

        def derived(self, context):
            tables.append(context)
            return derive(self, context)

        def keyed(*args):
            params = setup(*args)
            keys.append(params.epoch_pk_bytes())
            return params

        monkeypatch.setattr(sim.Simulation, "_honest_table", derived)
        monkeypatch.setattr(validity, "epoch_setup", keyed)
        run_simulation(topo, Protocol.PIP, m=2, rng_seed=7, epochs=2)
        assert tables == keys and len(set(keys)) == 2

    def test_entries_are_the_prf_coefficients(self):
        topo = self._topology()
        honest = sim.Simulation(topo, Protocol.NONE, m=3, rng_seed=2)
        attacked = topo
        for byz in topo.byzantine:
            attacked = attacked.with_behavior(byz, Behavior(BehaviorKind.NON_INNOVATIVE))
        mode1 = sim.Simulation(attacked, Protocol.NONE, m=3, rng_seed=2)
        assert mode1._emit_order != honest._emit_order and mode1._shape is honest._shape
        plan = honest._shape.plan
        assert [name for name, _ in plan] == sorted(honest._emit_order)
        honest.run()
        table = honest._honest
        assert list(table) == [name for name, _ in plan]
        assert all(isinstance(pairs, tuple) for pairs in table.values())
        with pytest.raises(TypeError):
            table["n000"] = ()
        for name, pairs in table.items():
            assert tuple(p for p, _ in pairs) == honest.parents[name]
            for p, a in pairs:
                assert a == node_mod.derive_coefficient(
                    honest.seed, p.encode(), name.encode(), b"lite", honest.q)
        assert honest._shape.record.honest is table
        mode1.run()
        assert mode1._honest is table


class TestRunShape:
    """Parents, children and the longest path of a topology, checked and
    built once per (edges, roles, source) and shared read-only by its runs."""

    def test_equal_topologies_share_one_entry(self):
        topo = random_topology(30, 200, 3, 1, rng_seed=9)
        twin = topo.with_behavior(topo.byzantine[0], Behavior(BehaviorKind.FORWARD_ONLY))
        sim._run_shape.cache_clear()
        a = sim.Simulation(topo, Protocol.NONE, m=3)
        b = sim.Simulation(twin, Protocol.PIP, m=3)
        info = sim._run_shape.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert a.parents is b.parents and a.children is b.children and a.rounds == b.rounds
        late = next(n for n in sorted(topo.nodes) if n not in a.children["s"] and n != "s")
        changed = dataclasses.replace(topo, edges=topo.edges + [("s", late)])
        c = sim.Simulation(changed, Protocol.NONE, m=3)
        assert sim._run_shape.cache_info().misses == 2
        assert c.parents[late] == tuple(sorted(a.parents[late] + ("s",)))

    def test_mode_rows_build_one_shape(self):
        topo = random_topology(30, 200, 3, 2, rng_seed=9)
        sim._run_shape.cache_clear()
        sim.mode_rows(topo, {"t": 3}, seed=4, m=3)
        info = sim._run_shape.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("fault, message", [
        ("cycle", "cycle"), ("unknown", "unknown node"), ("unreachable", "unreachable"),
        ("repeated", r"edge \(s,r1\) listed twice"),
        ("second_source", r"source s must be the one source node, found \['s', 's2'\]"),
        ("source_role", r"source s must be the one source node, found \[\]"),
    ])
    def test_invalid_topology_raises_every_time(self, fault, message):
        """A repeated edge would count its tail twice among its head's
        parents, and a second source would be a node with no parent: in
        either case a node waits for a packet that never comes."""
        topo = butterfly_topology()
        if fault == "cycle":
            topo.edges.append(("n1c", "n1"))
        elif fault == "unknown":
            topo.edges.append(("n1", "ghost"))
        elif fault == "repeated":
            topo.edges.append(("s", "r1"))
        elif fault == "second_source":
            topo.nodes["s2"] = NodeSpec(Role.SOURCE)
            topo.edges.append(("s2", "n1"))
        elif fault == "source_role":
            topo.nodes["s"] = NodeSpec(Role.INTERIOR)
        else:
            topo.nodes["lonely"] = NodeSpec(Role.INTERIOR)
        sim._run_shape.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                sim.Simulation(topo, Protocol.NONE, m=2)
        assert sim._run_shape.cache_info().currsize == 0

    def test_runs_cannot_change_the_shape(self):
        topo = butterfly_topology()
        sim._run_shape.cache_clear()
        for kind, proto in itertools.product(BehaviorKind, (Protocol.NONE, Protocol.PIP)):
            s = sim.Simulation(topo.with_behavior("n1", Behavior(kind)), proto, m=2, epochs=2)
            s.run()
        parents, children, _ = sim._checked_adjacency(topo)
        for shape in (s.parents, s.children):
            with pytest.raises(TypeError):
                shape["n1"] = ()
            assert all(isinstance(v, tuple) for v in shape.values())
        assert s.parents == {n: tuple(ps) for n, ps in parents.items()}
        assert s.children == {n: tuple(c for c in cs if c != "s") for n, cs in children.items()}
        assert s.rounds == _longest_path(topo) + 2
        assert sim._run_shape.cache_info().currsize == 1

    def test_longest_path_of_the_topological_pass(self):
        """The longest path that the one topological pass reads off the
        levels it takes the nodes in, against one found from the parents,
        on the generator's topologies and on DAGs whose nodes each draw
        one to three earlier parents, so that short cuts skip levels."""
        rng = random.Random(15)
        topos = [butterfly_topology(), random_topology(24, 150, 3, 1, rng_seed=4),
                 random_topology(50, 1000, 5, 1, rng_seed=7)]
        for _ in range(40):
            names = ["s"] + [f"n{i:02d}" for i in range(rng.randint(1, 12))]
            edges = [(u, v) for j, v in enumerate(names[1:], 1)
                     for u in rng.sample(names[:j], rng.randint(1, min(j, 3)))]
            rng.shuffle(edges)
            roles = {n: Role.INTERIOR for n in names} | {"s": Role.SOURCE, names[-1]: Role.SINK}
            topos.append(Topology(nodes={n: NodeSpec(r) for n, r in roles.items()},
                                  edges=edges, source="s"))
        for i, topo in enumerate(topos):
            assert sim._checked_adjacency(topo)[2] == _longest_path(topo), i


def _longest_path(topo: Topology) -> int:
    """The most edges on a path of ``topo``: a node with no parent is at
    depth 0, any other one deeper than each of its parents."""
    depth: dict[str, int] = {}

    def of(n: str) -> int:
        if n not in depth:
            depth[n] = max((of(u) + 1 for u, v in topo.edges if v == n), default=0)
        return depth[n]

    return max(map(of, topo.nodes), default=0)


def _modes(topo: Topology, kinds) -> list[Topology]:
    """``topo`` once per kind, every Byzantine node given that kind."""
    out = []
    for kind in kinds:
        t = topo
        for byz in topo.byzantine:
            t = t.with_behavior(byz, Behavior(kind))
        out.append(t)
    return out


def _reach(topo: Topology) -> set[str]:
    """The Byzantine nodes and all of their descendants."""
    _, children = topo.adjacency()
    return sim._reachable(children, *topo.byzantine)


def clear_before_every_run(monkeypatch) -> list:
    """From now on, clear ``_run_shape`` before every run is built, so that
    every run finds no record and simulates every node; returns the runs,
    in order."""
    runs = []
    init = sim.Simulation.__init__

    def cleared(self, *args, **kwargs):
        sim._run_shape.cache_clear()
        runs.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sim.Simulation, "__init__", cleared)
    return runs


def _outcome(t, seed, m, epochs):
    """A run's report, the sinks' received vectors and both rng states."""
    s = sim.Simulation(t, Protocol.NONE, m=m, rng_seed=seed, epochs=epochs)
    report = s.run()
    return (report, {n: s.nodes[n].received_vectors for n in t.sinks},
            s.rng.getstate(), s.adversary_rng.getstate())


RECORD_CASES = {
    **{f"byzantine{k}": (random_topology(24, 150, 3, k, rng_seed=k), k) for k in (1, 2, 3)},
    "butterfly": (butterfly_topology(), 7),
}
MODE_ORDERS = {
    "mode1_first": list(sim.MODES.values()),
    "mode3_first": list(sim.MODES.values())[::-1],
    "every_kind": list(BehaviorKind),
}


class TestRecord:
    """Under Protocol.NONE a run replays, from the record its key shares,
    every node outside its reach (``Simulation._replay``)."""

    def test_sweep_rows_equal_with_the_record_cleared(self, monkeypatch):
        cfg = sim.SweepConfig(node_count=24, edge_count=150, m=3,
                              min_cuts=(1, 2, 3), seeds=(0, 1, 2))
        sim._run_shape.cache_clear()
        shared = mode_sweep(cfg)
        runs = clear_before_every_run(monkeypatch)
        assert mode_sweep(cfg) == shared
        assert runs and not any(run._replayed for run in runs)

    @pytest.mark.parametrize("epochs", [1, 2])
    @pytest.mark.parametrize("order", MODE_ORDERS)
    @pytest.mark.parametrize("case", RECORD_CASES)
    def test_runs_equal_with_the_record_cleared(self, monkeypatch, case, order, epochs):
        """Reports, the sinks' received vectors and the rng states after
        the run, over one to three Byzantine nodes and the two-sink
        butterfly, every behaviour, one and two epochs, and both mode
        orders."""
        topo, seed = RECORD_CASES[case]
        variants = _modes(topo, MODE_ORDERS[order])
        sim._run_shape.cache_clear()
        shared = [_outcome(t, seed, 3, epochs) for t in variants]
        assert sim._run_shape.cache_info().currsize == 1
        clear_before_every_run(monkeypatch)
        assert [_outcome(t, seed, 3, epochs) for t in variants] == shared

    @pytest.mark.parametrize("case", ["byzantine1", "byzantine2", "byzantine3"])
    def test_later_modes_simulate_exactly_mode1s_reach(self, code_calls, case):
        """After mode1 only its reach is simulated, whatever the mode, an
        all-honest run included: a later run records nothing, so the first
        run's reach is simulated again each time."""
        topo, seed = RECORD_CASES[case]
        mode1, mode2, mode3 = _modes(topo, sim.MODES.values())
        reach = _reach(topo)
        outside = set(topo.nodes) - reach - {topo.source}
        sim._run_shape.cache_clear()
        first = sim.Simulation(mode1, Protocol.NONE, m=3, rng_seed=seed)
        first.run()
        assert first._replayed == set() and set(first._live) == set(first.nodes)
        record = first._shape.record
        assert set(record.sends) == outside
        for t in (mode2, mode3, mode1, topo):
            s = sim.Simulation(t, Protocol.NONE, m=3, rng_seed=seed)
            del code_calls[:]
            s.run()
            assert set(s._live) == reach and s._replayed == outside
            assert set(code_calls) <= reach and s._shape.record is record
        replayed = _outcome(topo, seed, 3, 1)
        sim._run_shape.cache_clear()
        assert replayed == _outcome(topo, seed, 3, 1)  # ranks, decoded, sinks' vectors, rng

    def test_replaying_run_reads_only_what_it_simulates(self, monkeypatch, caplog, code_calls):
        """A replaying run runs no source round, and codes, ingests and
        reads spans only at its simulated nodes; the DEBUG record counts
        the nodes it replayed."""
        topo, seed = RECORD_CASES["byzantine2"]
        mode1, mode2, _ = _modes(topo, sim.MODES.values())
        sim._run_shape.cache_clear()
        sim.Simulation(mode1, Protocol.NONE, m=3, rng_seed=seed).run()
        sources, ingested = [], set()
        source_round, ingest = sim.Simulation._source_round, sim.Simulation._ingest_round

        def sourced(self):
            sources.append(self)
            return source_round(self)

        def took(self, r, deliveries):
            ingested.update(name for name, arrived in deliveries.items() if arrived)
            return ingest(self, r, deliveries)

        monkeypatch.setattr(sim.Simulation, "_source_round", sourced)
        monkeypatch.setattr(sim.Simulation, "_ingest_round", took)
        read = span_reads(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="rlncheck.sim")
        del code_calls[:]
        s = sim.Simulation(mode2, Protocol.NONE, m=3, rng_seed=seed)
        s.run()
        reach = _reach(topo)
        assert sources == [] and ingested <= reach and set(code_calls) <= reach
        assert {id(rows) for rows in read} <= {id(s.nodes[n].rows) for n in reach}
        (record,) = [r for r in caplog.records if r.name == "rlncheck.sim"]
        assert record.args["replayed"] == len(topo.nodes) - 1 - len(reach) > 0

    @pytest.mark.parametrize("proto", [Protocol.PIP, Protocol.LOGPIP])
    def test_verified_runs_neither_read_nor_build_the_record(self, monkeypatch, proto):
        """A verified run between two Protocol.NONE runs of one key finds
        the key's record in its entry and neither reads nor replaces it; the
        second NONE run replays every node of the all-honest butterfly."""
        topo = butterfly_topology()
        sim._run_shape.cache_clear()
        first = sim.Simulation(topo, Protocol.NONE, m=2, rng_seed=7)
        first.run()
        entry, record = first._shape, first._shape.record

        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"a verified run read the record's {name}")

        monkeypatch.setattr(entry, "record", Unreadable())
        s = sim.Simulation(topo, proto, m=2, rng_seed=7)
        assert s.run().sink_ranks == {"n2": 2, "n3": 2} and s._replayed == set()
        assert s._shape is entry and isinstance(entry.record, Unreadable)
        entry.record = record
        again = sim.Simulation(topo, Protocol.NONE, m=2, rng_seed=7)
        assert again.run() == first.report and again._replayed == set(again.nodes)
        assert entry.record is record

    def test_runs_differing_in_one_key_field_replay_nothing(self, monkeypatch):
        """Consecutive runs of one topology whose keys differ in exactly one
        of rng_seed, m, q (the profile) and epochs each simulate every node
        and equal the same run with ``_run_shape`` cleared; each replaces
        the entry's record with its own."""
        topo = RECORD_CASES["byzantine1"][0]
        base = {"rng_seed": 5, "m": 3, "profile": SIM, "epochs": 1}
        changes = [{"rng_seed": 6}, {"m": 2}, {"profile": TEST}, {"epochs": 2}]
        keys = [base] + [k for change in changes for k in ({**base, **change}, base)]
        runs = []

        def outcome(kwargs):
            s = sim.Simulation(topo, Protocol.NONE, **kwargs)
            report = s.run()
            runs.append(s)
            vectors = {n: s.nodes[n].received_vectors for n in topo.sinks}
            return report, vectors, s.rng.getstate(), s._shape.record.key

        sim._run_shape.cache_clear()
        shared = [outcome(kwargs) for kwargs in keys]
        assert [k for *_, k in shared] == [
            (kw["rng_seed"], kw["m"], kw["profile"].q, kw["epochs"]) for kw in keys]
        assert len(runs) == 9 and not any(s._replayed for s in runs)
        clear_before_every_run(monkeypatch)
        assert [outcome(kwargs) for kwargs in keys] == shared

    def test_replayed_coparent_sends_nothing_at_each_epoch_start(self):
        """A replayed node's ``sent`` is None at each epoch start, as a
        simulated node's is.  Here the Mode-1 node ``byz`` (parents ``s``
        and ``a``) codes in round 2, while its child's other parent ``r``,
        three hops from the source, codes from round 3.  So in round 2 the
        look-ahead must see nothing from ``r``, as in a run that simulates
        it, and fall back to honest coding, not constrain itself by what
        ``r`` sent at the end of the epoch before."""
        nodes = {"s": NodeSpec(Role.SOURCE), "t": NodeSpec(Role.SINK)}
        nodes.update((n, NodeSpec(Role.INTERIOR)) for n in ("byz", "a", "b", "r", "c"))
        edges = [("s", "byz"), ("s", "a"), ("a", "byz"), ("a", "b"), ("b", "r"),
                 ("byz", "c"), ("r", "c"), ("c", "t")]
        topo = Topology(nodes=nodes, edges=edges, source="s", byzantine=["byz"])
        topo.validate()
        mode1 = topo.with_behavior("byz", Behavior(BehaviorKind.NON_INNOVATIVE))
        sim._run_shape.cache_clear()
        _outcome(topo, 3, 2, 2)
        s = sim.Simulation(mode1, Protocol.NONE, m=2, rng_seed=3, epochs=2)
        replayed = s.run()
        assert s._replayed == {"a", "b", "r"}
        sim._run_shape.cache_clear()
        simulated = sim.Simulation(mode1, Protocol.NONE, m=2, rng_seed=3, epochs=2)
        assert simulated.run() == replayed
        assert simulated.adversary_rng.getstate() == s.adversary_rng.getstate()

    def test_one_immutable_record_per_entry(self):
        """The entry keeps the record of the last key run on it, and no run
        can change a record."""
        topo = butterfly_topology()
        sim._run_shape.cache_clear()
        for seed in range(6):
            run_simulation(topo, Protocol.NONE, m=2, rng_seed=seed)
        entry = sim.Simulation(topo, Protocol.NONE, m=2)._shape
        assert sim._run_shape.cache_info().currsize == 1
        assert entry.record.key == (5, 2, SIM.q, 1)
        assert isinstance(entry.record.source, tuple) and all(
            isinstance(v, tuple) for v in entry.record.sends.values())
        for field in ("sends", "sinks", "honest"):
            with pytest.raises(TypeError):
                getattr(entry.record, field)["n1"] = ()
        with pytest.raises(AttributeError):
            entry.record.key = None


class TestTopologyFile:
    def test_roundtrip(self):
        topo = butterfly_topology().with_behavior("n1", Behavior(BehaviorKind.FORWARD_ONLY))
        text = sim.format_topology(topo)
        parsed = sim.parse_topology(text)
        assert parsed.edges == sorted(topo.edges)
        assert parsed.nodes["n1"].behavior.kind is BehaviorKind.FORWARD_ONLY
        assert parsed.source == "s"

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            sim.parse_topology("node s source honest\nnode bad\n")

    def test_missing_source(self):
        with pytest.raises(ValueError, match="source"):
            sim.parse_topology("node a interior honest\n")

    @pytest.mark.parametrize("text, message", [
        ("node s source honest\nnode a interior honest\ns a\n", "no sink node declared"),
        ("node s source honest\nnode a interior honest\nnode a sink honest\ns a\n",
         "line 3: node a declared twice"),
        ("node s source honest\nnode a interior honest\nnode t sink honest\ns a\ns a\na t\n",
         r"edge \(s,a\) listed twice"),
        ("node s source honest\nnode s2 source honest\nnode t sink honest\ns t\ns2 t\n",
         r"source s2 must be the one source node, found \['s', 's2'\]"),
        ("node s source forwardonly\nnode t sink honest\ns t\n",
         "source s must be honest, not forwardonly"),
    ], ids=["no_sink", "repeated_node", "repeated_edge", "second_source", "byzantine_source"])
    def test_malformed_file(self, text, message):
        with pytest.raises(ValueError, match=message):
            sim.parse_topology(text)


class TestSimulationInputs:
    def test_with_behavior_refuses_unknown_node_and_byzantine_source(self):
        """The source round draws the same combinations whatever the
        source's behaviour, so a Byzantine source would run honest."""
        topo = butterfly_topology()
        with pytest.raises(ValueError, match="node nope not in topology"):
            topo.with_behavior("nope", Behavior(BehaviorKind.FORWARD_ONLY))
        with pytest.raises(ValueError, match="source s must be honest, not forwardonly"):
            topo.with_behavior("s", Behavior(BehaviorKind.FORWARD_ONLY))
        assert topo.with_behavior("s", Behavior.honest()).nodes == topo.nodes
        topo.nodes["s"] = NodeSpec(Role.SOURCE, Behavior(BehaviorKind.NON_INNOVATIVE))
        with pytest.raises(ValueError, match="source s must be honest, not noninnovative"):
            topo.validate()

    @pytest.mark.parametrize("protocol", [Protocol.NONE, Protocol.PIP])
    @pytest.mark.parametrize("m, epochs", [(0, 1), (1, 0), (-1, 1)])
    def test_m_and_epochs_at_least_one(self, protocol, m, epochs):
        with pytest.raises(ValueError, match="m and epochs must be >= 1"):
            sim.Simulation(butterfly_topology(), protocol, m=m, epochs=epochs)
        with pytest.raises(ValueError, match="m and epochs must be >= 1"):
            run_simulation(butterfly_topology(), protocol, m, epochs=epochs)

    @pytest.mark.parametrize("protocol", [Protocol.PIP, Protocol.LOGPIP])
    @pytest.mark.parametrize("challenges", [0, -1])
    def test_challenges_at_least_one(self, protocol, challenges):
        """With no challenge a Log-PIP run would open no Merkle path (and
        a negative count would fail partway through), so both are refused."""
        with pytest.raises(ValueError, match=f"challenges={challenges}"):
            sim.Simulation(butterfly_topology(), protocol, m=2, challenges=challenges)
        with pytest.raises(ValueError, match=f"challenges={challenges}"):
            run_simulation(butterfly_topology(), protocol, 2, challenges=challenges)


GOLDEN = pathlib.Path(__file__).with_name("golden_sim.json")


def _events(report):
    verdicts = [
        [r, verifier, sender, None if v is None else [v.kind.value, v.culprit.decode(), v.detail]]
        for r, verifier, sender, v in report.verdicts
    ]
    detections = [[d.round, d.verifier, d.culprit, d.kind.value] for d in report.detections]
    return verdicts, detections


def golden_snapshot():
    """Sweep ranks, verdicts, detections and sink ranks of fixed runs.

    ``golden_sim.json`` holds this snapshot as the two simulation engines
    (crypto-free and verified) produced it before they were merged into
    one.  Pinned: every verdict and detection except those of the
    adversarial butterfly under Log-PIP, where a relay no longer codes a
    packet that failed its challenges onward; the sink ranks of every PIP
    run and of the all-honest runs.
    """
    cfg = sim.SweepConfig(node_count=24, edge_count=150, m=3,
                          min_cuts=(1, 2, 3), seeds=(0, 1, 2))
    rows, _ = mode_sweep(cfg)
    snap = {"sweep": [[r.seed, r.min_cut, r.mode, r.sink_id, r.rank] for r in rows], "runs": {}}
    kinds = sorted(NETWORK_STRATEGIES, key=lambda k: k.value)
    cases = [("butterfly/honest", butterfly_topology(), 7, 1)]
    cases += [(f"butterfly/{k.value}", butterfly_topology().with_behavior("n1", Behavior(k)), 7, 1)
              for k in kinds]
    cases += [(f"soundness/{k.value}", soundness_topology(Behavior(k)), 13, 3)
              for k in [BehaviorKind.HONEST] + kinds]
    for label, topo, seed, challenges in cases:
        honest = label.endswith("/honest")
        for proto in (Protocol.PIP, Protocol.LOGPIP):
            report = run_simulation(topo, proto, m=2, rng_seed=seed, profile=SIM,
                                    challenges=challenges)
            pinned = {}
            if proto is Protocol.PIP or honest or label.startswith("soundness/"):
                pinned["verdicts"], pinned["detections"] = _events(report)
            if proto is Protocol.PIP or honest:
                pinned["sink_ranks"] = report.sink_ranks
            snap["runs"][f"{label}/{proto.value}"] = pinned
    return snap


def write_golden(path=GOLDEN):
    """Rewrite ``golden_sim.json``, one run per line.  Only for a change
    that is meant to alter the pinned outputs."""
    snap = golden_snapshot()
    lines = ['{"sweep": ' + json.dumps(snap["sweep"]) + ',', ' "runs": {']
    runs = [f'  {json.dumps(k)}: {json.dumps(v)}' for k, v in snap["runs"].items()]
    lines += [",\n".join(runs), " }}", ""]
    path.write_text("\n".join(lines))


class TestGolden:
    def test_matches_recorded_snapshot(self):
        want = json.loads(GOLDEN.read_text())
        got = json.loads(json.dumps(golden_snapshot()))
        assert got["sweep"] == want["sweep"]
        assert got["runs"].keys() == want["runs"].keys()
        for key, pinned in want["runs"].items():
            assert got["runs"][key] == pinned, key

"""Topology generation, Byzantine behaviors, and round-based simulation.

The transmission model: per epoch the source emits one fresh random
combination of its m originals to each of its children in round 1;
every interior node with a child sends a coded packet each round once
it has accepted a packet from every parent this epoch, the same packet
to all children (shared coefficients).  A sink, or an interior node
with no child, receives and checks but never codes; a childless node's
emission would have no reader.  A node's required set, the parents it
must code over, is all of its parents.  Under that schedule a node
contributes at most one degree of freedom per epoch, so the throughput
a sink can reach is min(min_cut, m) where min_cut is the max-flow with
unit capacities on both edges and interior nodes.

One engine, ``Simulation``, runs every protocol with one round loop:
each round every node ingests what its parents sent in the previous
round, then every coding node that is ready emits.  Under
Protocol.NONE a packet is its bare coded vector and every delivery is
accepted.  Under PIP and Log-PIP a delivery is accepted only once it
passes ``node.verify_incoming`` and, under Log-PIP, its Merkle
challenges; a rejected packet is neither buffered nor coded onward.
Because a node waits for an accepted packet from every parent, an
honest node never emits a degraded packet (one that leaves
out a parent), which its children would blame on it.

A node re-codes only in a round after one of its accepted inputs
changed, or, as a Mode-1 adversary, every round; otherwise it resends
what it last coded (``Simulation._emit_round``).  What a run checks
once and shares is stated in ``Simulation.run`` and
``Simulation._accepts``; what is built only when read or shared across
runs, in ``_SimNode.span``, ``_run_shape`` and ``_honest_table``.  The
outputs are those of re-coding and re-checking everything every round
at every receiver, with every span kept up to date.

The adversary model: Byzantine nodes are omniscient (they code after
the round's honest emissions and see every child's span) and hold
valid keys, so whatever they send carries valid signatures.  Each
behavior is one choice of the coefficients the node codes with and of
the token entries it claims (``Simulation._strategy``).  They cover
throughput attacks that remain *valid* coding (non-innovative
coefficients, plain forwarding), deviations that the coding-verification
tokens catch (skipped parents, zero or wrong coefficients, forged token
entries), and replay across epochs.  Without verification every
behavior acts and nothing is caught; with it, the children that receive
a packet coded other than as prescribed flag its sender (under Log-PIP,
with probability t/d per round of t challenges).

Simulations are deterministic per seed: identities, epoch parameters,
source combinations, challenge picks, and adversarial choices all
derive from the one seed.
"""

from __future__ import annotations

import enum
import functools
import logging
import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import mul
from types import MappingProxyType

from . import gf, node as node_mod, sigcrypto, validity
from .gf import CodedVector, Span
from .node import NodeState, ParentInfo, Packet
from .pipcore import ParentInput, Protocol, Violation, ViolationKind
from .profiles import SIM, Profile

logger = logging.getLogger(__name__)


class Role(enum.Enum):
    SOURCE = "source"
    INTERIOR = "interior"
    SINK = "sink"


class BehaviorKind(enum.Enum):
    HONEST = "honest"  # Mode 3: forced correct coding
    NON_INNOVATIVE = "noninnovative"  # Mode 1: valid but adds nothing downstream
    FORWARD_ONLY = "forwardonly"  # Mode 2: routes one received packet
    SKIP_PARENT = "skipparent"
    ZERO_COEFFICIENT = "zerocoefficient"
    WRONG_COEFFICIENT = "wrongcoefficient"
    REPLAY_OLD = "replayold"
    FORGE_TOKEN = "forgetoken"


@dataclass(frozen=True)
class Behavior:
    kind: BehaviorKind

    @staticmethod
    def honest() -> "Behavior":
        return Behavior(BehaviorKind.HONEST)


@dataclass
class NodeSpec:
    role: Role
    behavior: Behavior = field(default_factory=Behavior.honest)


class InfeasibleTopologyError(Exception):
    pass


@dataclass
class Topology:
    """Directed acyclic transmission graph with per-node roles/behaviors.

    A valid topology (``validate``) has edges between known nodes only,
    no edge twice, one SOURCE-role node, ``source``, no cycle, and every
    node reachable from the source.  So every other node has a parent
    and no node sends to the source.
    """

    nodes: dict[str, NodeSpec]
    edges: list[tuple[str, str]]
    source: str
    byzantine: list[str] = field(default_factory=list)

    def parents(self, name: str) -> list[str]:
        return sorted(u for u, v in self.edges if v == name)

    def children(self, name: str) -> list[str]:
        return sorted(v for u, v in self.edges if u == name)

    def adjacency(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """(parents, children) of every node, sorted, from one pass over the edges."""
        parents: dict[str, list[str]] = {n: [] for n in self.nodes}
        children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in sorted(self.edges):
            children[u].append(v)
            parents[v].append(u)
        return parents, children

    @property
    def sinks(self) -> list[str]:
        return sorted(n for n, spec in self.nodes.items() if spec.role is Role.SINK)

    def with_behavior(self, name: str, behavior: Behavior) -> "Topology":
        nodes = {
            n: NodeSpec(role=s.role, behavior=behavior if n == name else s.behavior)
            for n, s in self.nodes.items()
        }
        return Topology(nodes=nodes, edges=list(self.edges), source=self.source,
                        byzantine=list(self.byzantine))

    def validate(self) -> None:
        _checked_adjacency(self)


def _checked_adjacency(topo: Topology) -> tuple[dict, dict, list[str]]:
    """(parents, children, topological order) of a valid topology (see
    ``Topology``), from one adjacency pass; ValueError naming the first
    fault otherwise."""
    names = set(topo.nodes)
    for u, v in topo.edges:
        if u not in names or v not in names:
            raise ValueError(f"edge ({u},{v}) references unknown node")
    if len(set(topo.edges)) != len(topo.edges):
        u, v = next(e for e, count in Counter(topo.edges).items() if count > 1)
        raise ValueError(f"edge ({u},{v}) listed twice")
    sources = sorted(n for n, spec in topo.nodes.items() if spec.role is Role.SOURCE)
    if sources != [topo.source]:
        raise ValueError(f"source {topo.source} must be the one source node, found {sources}")
    parents, children = topo.adjacency()
    indeg = {n: len(ps) for n, ps in parents.items()}
    queue = deque(sorted(n for n, d in indeg.items() if d == 0))
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != len(parents):
        raise ValueError("topology contains a cycle")
    reach = _reachable(children, topo.source)
    for n in topo.nodes:
        if n not in reach:
            raise ValueError(f"node {n} unreachable from source")
    return parents, children, order


def _reachable(children: dict, start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in children[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _longest_path(children: dict, order: list[str]) -> int:
    dist = {n: 0 for n in order}
    for u in order:
        for v in children[u]:
            dist[v] = max(dist[v], dist[u] + 1)
    return max(dist.values(), default=0)


@functools.lru_cache(maxsize=4)
def _run_shape(edges: tuple, roles: tuple, source: str) -> tuple:
    """(parents, children, longest path) of a valid topology, for a run.

    ``roles`` holds the (node, role) pairs of ``Topology.nodes`` in order.
    Parents and children are sorted tuples in read-only mappings.  The
    key holds every input of ``_checked_adjacency`` and no behaviour, so
    the mode runs of one sweep point build and check their topology once;
    an invalid one raises each time, since ``lru_cache`` stores no
    exception.
    """
    topo = Topology(nodes={n: NodeSpec(role=role) for n, role in roles},
                    edges=list(edges), source=source)
    parents, children, order = _checked_adjacency(topo)
    return (
        MappingProxyType({n: tuple(ps) for n, ps in parents.items()}),
        MappingProxyType({n: tuple(cs) for n, cs in children.items()}),
        _longest_path(children, order),
    )


# ---------------------------------------------------------------------------
# Max-flow / min-cut with unit capacities on edges and interior nodes


class _Flow:
    """Unit-capacity max-flow on the node-split graph of a topology.

    Interior node v becomes two integer slots, v_in and v_out, joined by
    one arc of capacity 1; src and dst are one slot each (the source owns
    all m degrees of freedom, the sink only collects).  Each edge is one
    arc of capacity 1, so a duplicate edge is a second arc.  Arcs come in
    pairs: arc e and its reverse e ^ 1, whose residuals sum to 1.  An edge
    with an endpoint outside the node set carries no flow and is left out.

    ``augment`` raises the flow along shortest residual paths until none
    is left, from whatever flow the graph holds, so arcs can be added
    between calls; ``reach`` is then the set of slots the last search
    reached.  Neither the value nor ``reach`` depends on the order paths
    are found in: the max-flow value is unique (Ford and Fulkerson), and
    the slots reachable in the residual graph of *any* maximum flow are
    the source side of the smallest minimum cut.
    """

    def __init__(self, nodes, edges, src: str, dst: str):
        self.src, self.dst = src, dst
        self.inp: dict[str, int] = {}
        self.out: dict[str, int] = {}
        self.head: list[int] = []
        self.residual: list[int] = []
        self.adj: list[list[int]] = []
        for n in nodes:
            self.inp[n] = len(self.adj)
            self.adj.append([])
            if n in (src, dst):
                self.out[n] = self.inp[n]
            else:
                self.out[n] = len(self.adj)
                self.adj.append([])
                self._arc(self.inp[n], self.out[n])
        for u, v in edges:
            self.add_edge(u, v)
        self.value = 0
        self.reach: list[bool] = []

    def _arc(self, a: int, b: int) -> None:
        e = len(self.head)
        self.head += (b, a)
        self.residual += (1, 0)
        self.adj[a].append(e)
        self.adj[b].append(e ^ 1)

    def add_edge(self, u: str, v: str) -> None:
        if u in self.out and v in self.inp:
            self._arc(self.out[u], self.inp[v])

    def augment(self) -> int:
        """Push units along shortest residual paths (Edmonds-Karp) until
        dst is unreachable; returns the flow value and sets ``reach``."""
        adj, head, residual = self.adj, self.head, self.residual
        s, t = self.out[self.src], self.inp[self.dst]
        while True:
            via = [-1] * len(adj)  # the arc each slot was reached by
            via[s] = -2
            queue = [s]
            for u in queue:
                for e in adj[u]:
                    v = head[e]
                    if via[v] == -1 and residual[e]:
                        via[v] = e
                        queue.append(v)
                if via[t] != -1:
                    break
            if via[t] == -1:
                self.reach = [x != -1 for x in via]
                return self.value
            v = t
            while v != s:
                e = via[v]
                residual[e] -= 1
                residual[e ^ 1] += 1
                v = head[e ^ 1]
            self.value += 1

    def cut_candidates(self, topo: Topology) -> list[str]:
        """The interior nodes incident to the smallest minimum cut, once
        the flow is maximum: the endpoints of each cut arc, split arcs in
        ``topo.nodes`` order first, then edges in ``topo.edges`` order,
        each node once.

        Removing any one of them lowers the max-flow by exactly one unit.
        It deletes at least one arc of the cut, whose other arcs still
        separate src from dst, and it carries at most one unit (node
        capacity 1), so the rest of the flow survives it.
        """
        reach, inp, out = self.reach, self.inp, self.out
        ends = (self.src, self.dst)
        arcs = [(n, n) for n in topo.nodes
                if n not in ends and reach[inp[n]] and not reach[out[n]]]
        arcs += [(u, v) for u, v in topo.edges if reach[out[u]] and not reach[inp[v]]]
        return list(dict.fromkeys(n for arc in arcs for n in arc if n not in ends))


def min_cut(topo: Topology, src: str, dst: str) -> int:
    """Max-flow value from src to dst, unit node/edge capacities."""
    if src not in topo.nodes or dst not in topo.nodes:
        raise ValueError("src/dst not in topology")
    if src == dst:
        return 0
    return _Flow(topo.nodes, topo.edges, src, dst).augment()


def butterfly_topology() -> Topology:
    """The 7-node butterfly: two relays, a bottleneck chain, two sinks."""
    nodes = {
        "s": NodeSpec(role=Role.SOURCE),
        "r1": NodeSpec(role=Role.INTERIOR),
        "r2": NodeSpec(role=Role.INTERIOR),
        "n1": NodeSpec(role=Role.INTERIOR),
        "n1c": NodeSpec(role=Role.INTERIOR),
        "n2": NodeSpec(role=Role.SINK),
        "n3": NodeSpec(role=Role.SINK),
    }
    edges = [
        ("s", "r1"), ("s", "r2"),
        ("r1", "n1"), ("r2", "n1"),
        ("r1", "n2"), ("r2", "n3"),
        ("n1", "n1c"),
        ("n1c", "n2"), ("n1c", "n3"),
    ]
    topo = Topology(nodes=nodes, edges=edges, source="s", byzantine=["n1"])
    topo.validate()
    return topo


_TOPOLOGY_ATTEMPTS = 40


def random_topology(
    node_count: int,
    edge_count: int,
    target_min_cut: int,
    byzantine_count: int,
    rng_seed: int,
) -> Topology:
    """Layered random DAG adjusted until max-flow(source, sink) hits target.

    Byzantine nodes are the first ``_Flow.cut_candidates`` of the
    sink's smallest minimum cut, so removing any one of them provably
    drops the max-flow by one.  Deterministic per seed; raises
    InfeasibleTopologyError when the parameters cannot be met within
    _TOPOLOGY_ATTEMPTS attempts.

    Each attempt builds one integer-indexed flow graph (``_Flow``) and
    keeps it: feeding a starving tail adds one arc and augments from the
    current flow, and the placement reads the cut from that flow.
    """
    if node_count < 4 or target_min_cut < 1:
        raise InfeasibleTopologyError("need at least 4 nodes and min-cut >= 1")
    rng = random.Random(rng_seed)
    for _ in range(_TOPOLOGY_ATTEMPTS):
        attempt = _random_topology_attempt(node_count, edge_count, target_min_cut, rng)
        if attempt is None:
            continue
        topo, flow = attempt
        topo.byzantine = flow.cut_candidates(topo)[:byzantine_count]
        if len(topo.byzantine) < byzantine_count:
            continue
        topo.validate()
        return topo
    raise InfeasibleTopologyError(
        f"could not build {node_count} nodes / {edge_count} edges / cut {target_min_cut}"
    )


def _random_topology_attempt(
    node_count: int, edge_count: int, target: int, rng: random.Random
) -> tuple[Topology, _Flow] | None:
    """One generation attempt: layered interior graph, exactly ``target``
    sink in-edges (which caps the max-flow at the target), then add
    upstream capacity until the flow reaches it.  Returns the topology
    and its maximum flow to the sink."""
    src, dst = "s", "t"
    interior = [f"n{i:03d}" for i in range(node_count - 2)]
    if target > len(interior):
        return None
    n_layers = max(2, min(5, (node_count - 2) // 8))
    layer = {src: 0, dst: n_layers + 1}
    for name in interior:
        layer[name] = rng.randrange(1, n_layers + 1)

    # Sink tails: the target-many interior nodes feeding the sink, chosen
    # from the deepest layers so paths have somewhere to run.
    by_depth = sorted(interior, key=lambda n: (-layer[n], n))
    tails = sorted(rng.sample(by_depth[: max(target * 3, target)], target))

    pairs = [
        (u, v)
        for u in [src] + interior
        for v in interior
        if u != v and layer[u] < layer[v]
    ]
    rng.shuffle(pairs)
    budget = max(edge_count - target, 0)
    edges = set(pairs[:min(budget, len(pairs))])
    edges |= {(u, dst) for u in tails}

    # Repair: every interior node reachable from the source (dead-end
    # interiors are fine; only the sink must be fed at full capacity).
    children_map: dict[str, list[str]] = {n: [] for n in layer}
    for u, v in edges:
        children_map[u].append(v)
    seen = _reachable(children_map, src)
    for name in interior:
        if name not in seen:
            feeders = [u for u in [src] + interior if layer[u] < layer[name] and u in seen]
            if not feeders:
                feeders = [src]
            edges.add((rng.choice(feeders), name))
            seen.add(name)

    nodes = {src: NodeSpec(role=Role.SOURCE), dst: NodeSpec(role=Role.SINK)}
    for name in interior:
        nodes[name] = NodeSpec(role=Role.INTERIOR)
    flow = _Flow(nodes, sorted(edges), src, dst)

    # The sink in-degree bounds the flow by `target`; raise the flow up to
    # it by feeding starving tails straight from the source, augmenting
    # from the flow already found.
    for _ in range(2 * target + 4):
        if flow.augment() == target:
            return Topology(nodes=nodes, edges=sorted(edges), source=src), flow
        u = next((u for u in tails if (src, u) not in edges), None)
        if u is None:
            return None
        edges.add((src, u))
        flow.add_edge(src, u)
    return None


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class DetectionEvent:
    round: int
    verifier: str
    culprit: str
    kind: ViolationKind


@dataclass
class TransmissionReport:
    sink_ranks: dict[str, int]
    detections: list[DetectionEvent]
    verdicts: list[tuple[int, str, str, Violation | None]]
    rounds: int
    decoded: dict[str, bool] = field(default_factory=dict)
    proofs: list = field(default_factory=list)  # MisbehaviorProof per provable detection
    # NON_INNOVATIVE node -> rounds it coded honestly because no Mode-1 choice existed
    fallbacks: dict[str, int] = field(default_factory=dict)

    def detected_culprits(self) -> set[str]:
        return {d.culprit for d in self.detections}


# ---------------------------------------------------------------------------
# The simulation engine

_UNCHECKED = object()

# Chunks in each original payload, in every simulation.
PAYLOAD_CHUNKS = 2


def _memo(checked: dict, key, compute, *args):
    """checked[key], computed as compute(*args) and stored on first use."""
    result = checked.get(key, _UNCHECKED)
    if result is _UNCHECKED:
        result = checked[key] = compute(*args)
    return result


@functools.lru_cache(maxsize=4)
def _honest_table(seed: bytes, context: bytes, q: int, plan: tuple) -> tuple:
    """The prescribed coefficients of every coding node, as a tuple of
    (node, ((parent, coefficient), ...)) pairs in ``plan`` order.

    ``plan`` holds (node, parents) pairs, one per node that codes (an
    interior node with a child, ``Simulation._emit_order``).  With
    ``seed``, ``context`` (the epoch key bytes, or b"lite") and q it is
    every input of ``node.derive_coefficients``, so a table is shared
    only by runs that would derive the same one; each node's row is one
    batched PRF pass over its parents.  The coefficients are public PRF
    outputs; no verdict, signature or check is shared.  Tuples, so that
    no run can change another's table.  The three mode runs of a sweep
    point use one seed and topology, so two of every three find their
    table here.
    """
    return tuple(
        (name, tuple(zip(parents, node_mod.derive_coefficients(
            seed, [p.encode() for p in parents], name.encode(), context, q))))
        for name, parents in plan
    )


def _non_innovative_coeffs(
    received: dict, child_spans: list[Span], q: int, rng: random.Random
) -> tuple[list[int], CodedVector] | None:
    """Pick nonzero coefficients whose combination adds nothing downstream.

    Solves for coefficient vectors a with sum(a_i X_i) inside every
    non-empty child span, then samples that solution space for an
    all-nonzero choice, preferring one whose output vector is itself
    nonzero.  Returns the coefficients ordered by sorted parent key with
    that output, the ``gf.linear_combine`` each try computes to test it,
    or None when no child has received anything yet or no such choice
    exists (caller falls back to honest coding).

    sum(a_i X_i) lies in a span iff its residual is zero, and the
    residual is linear: r(x) = x M for an m x m matrix M.  So the
    solutions are the left nullspace of X [M_1 | M_2 | ...], which is
    that of X B for any B with the same column space, at most m columns.

    A full span holds every vector, so it constrains nothing: its M is
    zero and it gives no columns.  Zero columns change neither the
    reduced basis B nor the nullspace, so leaving them out changes no
    coefficient and no draw from ``rng``.  A full span is not empty, so
    it still keeps the caller from falling back.

    Each try draws one c_j from ``rng`` per basis vector b_j, in basis
    order, and alpha = sum(c_j b_j) mod q.  ``gf.left_nullspace`` returns
    its RREF basis: b_j is 1 at its lead and every other basis vector is
    0 there.  So alpha is c_j at lead j, and each of the other positions
    (as many as the rank r of the rows) is one dot product of the draws
    with that position's column of the basis, gathered once per call:
    O(d * r) per try for d parents, where folding the dense basis
    vectors costs O(d * (d - r)).
    """
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
        [sum(map(mul, v.coding_vector, b)) % q for b in reduced[:len(pivots)]]
        for v in vecs
    ]
    basis = gf.left_nullspace(rows, q)
    if not basis:
        return None
    leads = [b.index(1) for b in basis]
    lead_set = set(leads)
    others = [(i, [b[i] for b in basis]) for i in range(len(vecs)) if i not in lead_set]
    fallback = None
    for _ in range(64):
        draws = [rng.randrange(q) for _ in basis]
        if 0 in draws:
            continue
        alpha = [0] * len(vecs)
        for i, c in zip(leads, draws):
            alpha[i] = c
        for i, col in others:
            alpha[i] = sum(map(mul, draws, col)) % q
        if 0 in alpha:
            continue
        out = gf.linear_combine(vecs, alpha, q)
        if not out.is_zero():
            return alpha, out
        if fallback is None:
            fallback = alpha, out
    return fallback


@dataclass
class _SimNode:
    spec: NodeSpec
    state: NodeState | None = None  # None under Protocol.NONE
    vectors: dict = field(default_factory=dict)  # parent -> latest accepted CodedVector
    # Accepted deliveries this epoch that differ from the sender's previous
    # one.  A parent whose inputs did not change resends its packet without
    # re-coding (under Protocol.NONE it does not deliver it again), and an
    # unchanged packet adds nothing to the span or to decoding.
    received_vectors: list = field(default_factory=list)
    # The span of received_vectors[:synced], which ``span`` brings up to
    # date; synced is None until the span is first read this epoch.
    rows: Span | None = None
    synced: int | None = None
    # (vector, packets per child) it sends each round until it re-codes; for a
    # node later in this round's emit order, what it sent last round
    sent: tuple | None = None
    stale: bool = True  # its inputs changed since it last coded
    stored_old: tuple | None = None  # REPLAY_OLD: (vector, packets per child) of epoch 1
    # This epoch's verdicts as a receiver, Packet -> verdict (see Simulation._accepts)
    checked: dict = field(default_factory=dict)

    @property
    def span(self) -> Span:
        """The span of this epoch's accepted coding vectors.  The vectors
        received since the last read go in when it is read, in arrival
        order, so the basis is the one adding each on arrival would give."""
        pending = self.received_vectors[self.synced or 0:]
        for vec in pending:
            self.rows.add(vec.coding_vector)
        self.synced = len(self.received_vectors)
        return self.rows


class Simulation:
    """One transmission over a topology, under any protocol; deterministic per seed.

    Each epoch sends m originals of PAYLOAD_CHUNKS chunks each and lasts
    as many rounds as the longest path from the source, plus m.

    Under Protocol.NONE a packet is just its CodedVector and nothing is
    verified.  Under PIP and Log-PIP every node holds a ``NodeState``,
    packets are built by ``node.build_draft`` and ``node.finalize_packet``,
    and each delivery gets a verdict (and, under Log-PIP, challenges)
    before it is accepted.  What a run checks once and shares is stated
    in ``run`` and ``_accepts``.

    The prescribed coefficients and the parents, children and longest
    path come from caches shared across runs (``_honest_table``,
    ``_run_shape``); ``parents`` and ``children`` are read-only mappings
    of tuples.  A node's span is built only when read (``_SimNode.span``).
    """

    def __init__(
        self,
        topo: Topology,
        protocol: Protocol,
        m: int,
        rng_seed: int = 0,
        profile: Profile = SIM,
        epochs: int = 1,
        challenges: int = 1,
        collect_proofs: bool = False,
    ):
        if m < 1 or epochs < 1:
            raise ValueError(f"m and epochs must be >= 1, got m={m}, epochs={epochs}")
        self.parents, self.children, longest = _run_shape(
            tuple(topo.edges), tuple((n, spec.role) for n, spec in topo.nodes.items()),
            topo.source,
        )
        self.topo = topo
        self.protocol = protocol
        self.verified = protocol is not Protocol.NONE
        self.m = m
        self.rounds = longest + m
        self.profile = profile
        self.q = profile.q
        self.epochs = epochs
        self.challenges = challenges
        self.collect_proofs = collect_proofs
        self.rng = random.Random(rng_seed)
        self.report = TransmissionReport(
            sink_ranks={}, detections=[], verdicts=[], rounds=0
        )
        self.params: validity.SourceEpochParams | None = None
        # This epoch's Log-PIP challenges, shared by all receivers (see _accepts):
        # (sender, packet sigma, test token, challenged parent) -> (response, violation)
        self._challenges: dict = {}
        self._setup()

    def _setup(self) -> None:
        topo, rng = self.topo, self.rng
        self.seed = rng.randbytes(32)
        states: dict[str, NodeState] = {}
        self.master = self.source_state = None
        if self.verified:
            identities = {n: sigcrypto.keygen(rng, n.encode()) for n in sorted(topo.nodes)}
            self.master = identities[topo.source]
            for ident in identities.values():
                ident.cert = sigcrypto.certify(self.master.sk, ident.pk, ident.node_id)
            for name in sorted(topo.nodes):
                st = NodeState(
                    identity=identities[name],
                    seed=self.seed,
                    authority_pk=self.master.pk,
                    master_pk=self.master.pk,
                    profile=self.profile,
                    protocol=self.protocol,
                )
                for p in self.parents[name]:
                    st.register_parent(p.encode(), ParentInfo(
                        pk=identities[p].pk,
                        cert=identities[p].cert,
                        required_set=frozenset(gp.encode() for gp in self.parents[p]),
                        grandparent_pks={gp.encode(): identities[gp].pk for gp in self.parents[p]},
                    ))
                states[name] = st
            self.source_state = states.pop(topo.source)
            self.challenge_rng = random.Random(rng.getrandbits(64))
        # Where epoch 1's payloads are drawn depends on the protocol: without
        # verification they come before the adversary's stream, the order the
        # recorded mode-sweep outputs were drawn in; with it, after the keys.
        self._first_originals = None if self.verified else self._draw_originals()
        self.adversary_rng = random.Random(rng.getrandbits(64))
        self.nodes: dict[str, _SimNode] = {
            name: _SimNode(spec=topo.nodes[name], state=states.get(name))
            for name in sorted(topo.nodes) if name != topo.source
        }
        # The nodes that code (see the module docstring).  Omniscient
        # adversaries code last, after observing this round's honest emissions.
        self._emit_order = sorted(
            (n for n in self.nodes
             if self.topo.nodes[n].role is not Role.SINK and self.children[n]),
            key=lambda n: (self.topo.nodes[n].behavior.kind is BehaviorKind.NON_INNOVATIVE, n),
        )
        # The key of this run's honest-coefficient table: by name, not in
        # emit order, so runs that differ only in who is Mode 1 share it.
        self._plan = tuple((n, self.parents[n]) for n in sorted(self._emit_order))

    def _draw_originals(self) -> list[CodedVector]:
        return gf.standard_basis_originals(
            [[self.rng.randrange(self.q) for _ in range(PAYLOAD_CHUNKS)]
             for _ in range(self.m)],
            self.q,
        )

    # -- main loop -----------------------------------------------------------

    def run(self) -> TransmissionReport:
        """Run every epoch and return the report.

        The whole run is one ``node.shared_content_checks()`` scope and
        one ``sigcrypto.shared_verifications()`` scope, shared by all of
        the run's nodes.  In the first, the content of a packet (epoch
        binding, validity signature, token type and full PIP token) is
        checked once, by the first of the sender's children to get it,
        and the others take that verdict; each child still checks the
        attest and helper signatures of its own edge.  In the second, an
        Ed25519 triple that passed at one node is not verified again by
        another: a grandparent's helper signature, which a relay checks
        and each of its children checks again, and the master signature
        on the epoch parameters, which every node checks.  Each Log-PIP
        challenge is built, signed and checked once per epoch for all of
        the sender's children (``_accepts``).

        At the end it logs one DEBUG record on ``rlncheck.sim`` with the
        work done, read from the memo sizes and the nodes' span counters so
        the run pays nothing for it: deliveries given a verdict,
        per-receiver checks, shared content checks, challenges, distinct
        Ed25519 triples that passed, and spans read (one per node and
        epoch in which its span was read).  Its ``args`` is a dict of those
        counts, under the keys ``deliveries``, ``checks``, ``contents``,
        ``challenges``, ``triples`` and ``spans``; under Protocol.NONE,
        which checks nothing, all but ``spans`` are 0.
        """
        with (sigcrypto.shared_verifications() as triples,
              node_mod.shared_content_checks() as contents):
            report, checks, challenges, spans = self._run()
        logger.debug(
            "run: %(deliveries)d deliveries, %(checks)d per-receiver checks, "
            "%(contents)d shared content checks, %(challenges)d challenges, "
            "%(triples)d distinct Ed25519 triples, %(spans)d spans read",
            {"deliveries": len(report.verdicts), "checks": checks,
             "contents": len(contents or ()), "challenges": challenges,
             "triples": len(triples or ()), "spans": spans},
        )
        return report

    def _run(self) -> tuple[TransmissionReport, int, int, int]:
        """The report, with the per-receiver checks and the challenges run
        and the spans read, each summed over the epochs."""
        checks = challenges = spans = 0
        for epoch in range(1, self.epochs + 1):
            self.originals = self._first_originals or self._draw_originals()
            self._first_originals = None
            if self.verified:
                self.params = validity.epoch_setup(
                    self.master, self.originals, epoch, self.rng, self.profile
                )
                self.source_state.enter_epoch(self.params)
            # Honest coefficients are PRF outputs bound to the epoch key; with
            # no epoch key, the crypto-free runs bind them to b"lite".
            context = self.params.epoch_pk_bytes() if self.verified else b"lite"
            self._honest = dict(_honest_table(self.seed, context, self.q, self._plan))
            for sim_node in self.nodes.values():
                if sim_node.state is not None:
                    sim_node.state.enter_epoch(self.params)
                spans += sim_node.synced is not None  # read in the previous epoch
                sim_node.vectors.clear()
                sim_node.received_vectors = []
                sim_node.rows = Span(self.q, self.m)
                sim_node.synced = None
                sim_node.sent = None
                sim_node.stale = True
                sim_node.checked.clear()
            self._challenges.clear()

            deliveries = self._source_round()
            for r in range(1, self.rounds + 1):
                self._ingest_round(r, deliveries)
                deliveries = self._emit_round(epoch)
            checks += sum(len(sim_node.checked) for sim_node in self.nodes.values())
            challenges += len(self._challenges)

        ranks, decoded = {}, {}
        for s in self.topo.sinks:
            sim_node = self.nodes[s]
            ranks[s] = sim_node.span.dim
            solved = gf.solve_originals(sim_node.received_vectors, self.q)
            decoded[s] = solved is not None and solved == [o.payload for o in self.originals]
        self.report.sink_ranks = ranks
        self.report.decoded = decoded
        self.report.rounds = self.rounds * self.epochs
        spans += sum(sim_node.synced is not None for sim_node in self.nodes.values())
        return self.report, checks, challenges, spans

    def _source_round(self) -> dict[str, list]:
        """One fresh random combination of the originals per source child."""
        src = self.topo.source
        deliveries: dict[str, list] = {n: [] for n in self.nodes}
        for child in self.children[src]:
            combo = [gf.random_nonzero(self.q, self.rng) for _ in range(self.m)]
            pkt = E = gf.linear_combine(self.originals, combo, self.q)
            if self.verified:
                draft = node_mod.build_draft(self.source_state, E, [], [])
                pkt = node_mod.finalize_packet(self.source_state, draft, child.encode())
            deliveries[child].append((src, pkt))
        return deliveries

    def _ingest_round(self, r: int, deliveries: dict[str, list]) -> None:
        """Take in every delivery, once accepted under PIP and Log-PIP
        (``_accepts``); one equal to its sender's last accepted delivery
        changes nothing."""
        for name, sim_node in self.nodes.items():
            for sender, pkt in deliveries[name]:
                if self.verified:
                    if not self._accepts(r, name, sender, pkt):
                        continue
                    buffers = sim_node.state.buffers
                    if buffers.get(pkt.sender_id) == pkt:
                        continue
                    buffers[pkt.sender_id] = pkt
                    vec = pkt.E
                elif sim_node.vectors.get(sender) == pkt:
                    continue
                else:
                    vec = pkt
                sim_node.vectors[sender] = vec
                sim_node.received_vectors.append(vec)
                sim_node.stale = True

    def _accepts(self, r: int, name: str, sender: str, pkt: Packet) -> bool:
        """Check a delivery and, under Log-PIP, challenge it; record every failure.

        Every delivery gets a verdict, its detections and proofs, and,
        under Log-PIP, this round's challenge picks from
        ``challenge_rng``.  The checks themselves run once per epoch for
        each distinct packet at a receiver: the receiver's ``checked``
        memo, cleared at each epoch start, holds the verdicts.  That is
        sound because a verdict is a function of the packet and of
        receiver state that is fixed within an epoch: ``verify_incoming``
        reads the epoch parameters, the registered parents, the seed and
        the protocol, never the buffers.  It also reads and grows the
        receiver's verified span (``NodeState.verified``), which changes
        what a check costs but not its verdict
        (``validity.verify_validity``); a second check of a packet would
        not grow the span again.  This memo is per receiver because each
        edge has its own attest and helper signatures; the content stage
        of the check is shared by all receivers (``run``).

        Each challenge is checked once per epoch for all of the sender's
        children: ``_challenges``, cleared at each epoch start, is keyed
        on (sender, packet sigma, test token, challenged parent).  That
        tuple, the run's constants (epoch parameters, seed, profile, and
        the registries ``_setup`` gave every child of a sender alike) and
        the sender's retained tree are all ``check_challenge`` reads.  A
        response opens the sender's tree, which the packet's root commits
        to (while a sender sends a packet it holds the tree it built that
        packet from), and Ed25519 signing is deterministic, so the same
        challenge gets the same response, whichever child asks.
        """
        sim_node = self.nodes[name]
        st = sim_node.state
        v = _memo(sim_node.checked, pkt, node_mod.verify_incoming, st, pkt)
        self.report.verdicts.append((r, name, sender, v))
        # (violation, challenge transcript); no transcript when the sender did not answer
        failures = [] if v is None else [(v, [])]
        if v is None and self.protocol is Protocol.LOGPIP and sender != self.topo.source:
            sender_state = self.nodes[sender].state
            for target in node_mod.challenge_targets(st, pkt, self.challenges, self.challenge_rng):
                proof, cv = _memo(
                    self._challenges, (sender, pkt.sigma, pkt.test_token, target),
                    node_mod.check_challenge,
                    st, pkt, target, sender_state.current_tree, sender_state.identity.sk,
                )
                if cv is not None:
                    failures.append((cv, None if proof is None else [(target, proof)]))
        # A detection of an unprovable kind is reported without a proof.
        for v, transcript in failures:
            self.report.detections.append(
                DetectionEvent(round=r, verifier=name, culprit=sender, kind=v.kind)
            )
            if self.collect_proofs and transcript is not None and v.kind not in node_mod.UNPROVABLE:
                self.report.proofs.append(node_mod.build_misbehavior_proof(st, pkt, transcript))
        return not failures

    def _emit_round(self, epoch: int) -> dict[str, list]:
        """Every ready node sends; it codes only if its inputs changed.

        An honest emission is a function of the node's accepted inputs, so
        a node whose inputs did not change resends what it last coded.  A
        Mode-1 node re-codes every round: it reads its children's spans
        and draws from ``adversary_rng``.  Under Protocol.NONE a resent
        vector is not delivered again, since it adds nothing to a child;
        under PIP and Log-PIP every packet is delivered and gets a
        verdict, which a resent packet takes from its receiver's memo.
        """
        deliveries: dict[str, list] = {n: [] for n in self.nodes}
        for name in self._emit_order:
            sim_node = self.nodes[name]
            kind = sim_node.spec.behavior.kind
            recode = sim_node.stale or kind is BehaviorKind.NON_INNOVATIVE
            sim_node.stale = False
            # Every node, honest or not, waits for a verified packet from every
            # parent this epoch: an honest node never codes a degraded packet,
            # which its children would blame on it.  Only a changed input can
            # make a node ready.
            recode = recode and len(sim_node.vectors) == len(self.parents[name])
            if recode and kind is BehaviorKind.REPLAY_OLD and epoch > 1:
                sim_node.sent = sim_node.stored_old  # resend epoch 1's packets unchanged
            elif recode:
                sim_node.sent = self._code(name)
                if kind is BehaviorKind.REPLAY_OLD and sim_node.stored_old is None:
                    sim_node.stored_old = sim_node.sent
            out = sim_node.sent
            if out is None or not (recode or self.verified):
                continue
            for child, pkt in out[1].items():
                deliveries[child].append((name, pkt))
        return deliveries

    # -- behaviors -----------------------------------------------------------

    def _code(self, name: str) -> tuple[CodedVector, dict] | None:
        """Code ``name``'s emission; returns (E, packet per child) or None."""
        plan = self._strategy(name)
        if plan is None:
            return None
        coding, E, claims = plan
        if not self.verified:
            return E, {child: E for child in self.children[name]}
        st = self.nodes[name].state
        coded = node_mod.buffered_inputs(st, [(p.encode(), a) for p, a in coding])
        draft = node_mod.build_draft(st, E, coded, claims)
        return E, {
            child: node_mod.finalize_packet(st, draft, child.encode())
            for child in self.children[name]
        }

    def _strategy(
        self, name: str
    ) -> tuple[list[tuple[str, int]], CodedVector, list[ParentInput]] | None:
        """What ``name`` codes with this round, and what its token claims.

        Returns the (parent, coefficient) pairs its emission combines, the
        emission (their combination, computed once), and the token entries
        it claims (none under Protocol.NONE), or None when it sends
        nothing.  Each behaviour is one branch:

        - HONEST (Mode 3) and REPLAY_OLD, in epoch 1: the prescribed PRF
          coefficients over every required parent, claimed as coded.
        - NON_INNOVATIVE (Mode 1): coefficients whose output lies in what
          every child already holds or gets from its other parents this
          round, claimed as coded; honest coding when no such choice
          exists.  The adversary is omniscient: it codes after the honest
          nodes of the round and sees every child's span.
        - FORWARD_ONLY (Mode 2): coefficient 1 on the first required
          parent alone, while the token claims honest coding.
        - SKIP_PARENT, ZERO_COEFFICIENT, WRONG_COEFFICIENT: honest coding
          with the first required parent (the target) dropped, zeroed or
          off by one, claimed as coded.
        - FORGE_TOKEN: honest coding; the target's token entry carries a
          helper signature of the node's own making.

        REPLAY_OLD's later epochs resend stored packets (``_emit_round``).
        """
        sim_node = self.nodes[name]
        st = sim_node.state
        kind = sim_node.spec.behavior.kind
        honest = self._honest[name]
        target = self.parents[name][0]
        coding, E = honest, None
        if kind is BehaviorKind.SKIP_PARENT:
            coding = [(p, a) for p, a in honest if p != target]
            if not coding:
                return None
        elif kind is BehaviorKind.ZERO_COEFFICIENT:
            coding = [(p, 0 if p == target else a) for p, a in honest]
        elif kind is BehaviorKind.WRONG_COEFFICIENT:
            coding = [(p, ((a + 1) % self.q or 1) if p == target else a) for p, a in honest]
        elif kind is BehaviorKind.NON_INNOVATIVE:
            choice = self._non_innovative(name)
            if choice is None:
                self.report.fallbacks[name] = self.report.fallbacks.get(name, 0) + 1
            else:
                coding, E = choice
        elif kind is BehaviorKind.FORWARD_ONLY:
            coding = [(target, 1)]
        if E is None:
            E = gf.linear_combine(
                [sim_node.vectors[p] for p, _ in coding], [a for _, a in coding], self.q
            )
        if not self.verified:
            return coding, E, []
        claimed = honest if kind is BehaviorKind.FORWARD_ONLY else coding
        claims = node_mod.buffered_inputs(st, [(p.encode(), a) for p, a in claimed])
        if kind is BehaviorKind.FORGE_TOKEN:
            target_id = target.encode()
            claims = [
                c._replace(helper_sig=sigcrypto.sign(st.identity.sk, b"forged" + target_id))
                if c.parent_id == target_id else c
                for c in claims
            ]
        return coding, E, claims

    def _non_innovative(self, name: str) -> tuple[list[tuple[str, int]], CodedVector] | None:
        """Mode-1 (parent, coefficient) pairs for ``name`` and the emission
        they code, or None if none exist."""
        views = []
        for child in self.children[name]:
            view = self.nodes[child].span
            if view.dim == view.width:  # full: it constrains nothing, see _non_innovative_coeffs
                views.append(view)
                continue
            view = view.copy()
            for other in self.parents[child]:
                sent = self.nodes[other].sent if other in self.nodes else None
                if other != name and sent is not None:
                    view.add(sent[0].coding_vector)
            views.append(view)
        vectors = self.nodes[name].vectors
        required = self.parents[name]
        choice = _non_innovative_coeffs(
            {p: vectors[p] for p in required}, views, self.q, self.adversary_rng
        )
        if choice is None:
            return None
        alphas, E = choice
        return list(zip(required, alphas)), E


def run_simulation(
    topo: Topology,
    protocol: Protocol,
    m: int,
    rng_seed: int = 0,
    profile: Profile = SIM,
    epochs: int = 1,
    challenges: int = 1,
) -> TransmissionReport:
    """Run one deterministic transmission and measure ranks/detections.

    Every protocol runs the same engine (``Simulation``) with the same
    round loop and the same adversaries.  Protocol NONE moves bare coded
    vectors and verifies nothing, which is what the throughput mode
    sweeps run; PIP and LOGPIP build, verify and (Log-PIP) challenge
    full packets, and report verdicts, detections and proofs, one
    verdict per delivery per round (what is checked once and shared:
    ``Simulation.run``).  A node codes only once every required parent
    has delivered an accepted packet this epoch, so an honest node never
    emits a degraded packet.  Byzantine nodes are omniscient and hold
    valid keys; each behavior chooses the coefficients the node codes
    with and the token entries it claims (see ``Simulation._strategy``).
    """
    return Simulation(
        topo, protocol, m, rng_seed=rng_seed, profile=profile, epochs=epochs,
        challenges=challenges,
    ).run()


# ---------------------------------------------------------------------------
# Mode sweep


MODES = {
    "mode1": BehaviorKind.NON_INNOVATIVE,
    "mode2": BehaviorKind.FORWARD_ONLY,
    "mode3": BehaviorKind.HONEST,
}


@dataclass
class SweepConfig:
    node_count: int = 50
    edge_count: int = 1000
    m: int = 5
    min_cuts: tuple = tuple(range(1, 11))
    byzantine_count: int = 1
    seeds: tuple = tuple(range(20))
    profile: Profile = SIM


@dataclass(frozen=True)
class SweepRow:
    seed: int
    min_cut: int
    mode: str
    sink_id: str
    rank: int
    detections: int
    fallbacks: int  # rounds a Mode-1 node coded honestly (TransmissionReport.fallbacks)


def mode_rows(
    topo: Topology, cuts: dict[str, int], seed: int, m: int, profile: Profile = SIM
) -> list[SweepRow]:
    """Run ``topo`` once per mode in MODES, every Byzantine node set to
    that mode, under Protocol.NONE with ``rng_seed=seed``.  One row per
    mode and sink, in that order; each row's ``min_cut`` is its sink's
    entry in ``cuts``."""
    rows = []
    for mode, kind in MODES.items():
        t = topo
        for byz in topo.byzantine:
            t = t.with_behavior(byz, Behavior(kind))
        report = run_simulation(t, Protocol.NONE, m, rng_seed=seed, profile=profile)
        rows += [
            SweepRow(seed=seed, min_cut=cuts[sink], mode=mode, sink_id=sink, rank=rank,
                     detections=len(report.detections), fallbacks=sum(report.fallbacks.values()))
            for sink, rank in sorted(report.sink_ranks.items())
        ]
    return rows


def mode_sweep(config: SweepConfig) -> tuple[list[SweepRow], list[tuple[int, str, float]]]:
    """Throughput of each Byzantine mode across min-cut values.

    Returns (per-run rows, summary rows of (min_cut, mode, mean rank)).
    Infeasible (cut, seed) pairs are skipped for all modes so the
    comparison stays paired; each skip is logged at INFO.  Each pair run
    logs one DEBUG record on ``rlncheck.sim`` whose ``args`` holds
    ``cut``, ``seed``, ``topology_s`` (seconds generating the topology)
    and ``runs_s`` (seconds in its mode runs).
    """
    rows: list[SweepRow] = []
    summary: list[tuple[int, str, float]] = []
    for cut in config.min_cuts:
        per_mode: dict[str, list[int]] = {mode: [] for mode in MODES}
        for seed in config.seeds:
            start = time.perf_counter()
            try:
                topo = random_topology(
                    config.node_count, config.edge_count, cut,
                    config.byzantine_count, rng_seed=seed * 1000 + cut,
                )
            except InfeasibleTopologyError as e:
                logger.info("mode_sweep: skipping cut %d, seed %d: %s", cut, seed, e)
                continue
            generated = time.perf_counter()
            # A random topology has one sink, so this is one row per mode.
            for row in mode_rows(topo, {topo.sinks[0]: cut}, seed, config.m, config.profile):
                per_mode[row.mode].append(row.rank)
                rows.append(row)
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "mode_sweep: cut %(cut)d, seed %(seed)d: topology %(topology_s).3f s, "
                    "mode runs %(runs_s).3f s",
                    {"cut": cut, "seed": seed, "topology_s": generated - start,
                     "runs_s": time.perf_counter() - generated},
                )
        for mode, ranks in per_mode.items():
            if ranks:
                summary.append((cut, mode, sum(ranks) / len(ranks)))
    return rows, summary


# ---------------------------------------------------------------------------
# Topology file format


def format_topology(topo: Topology) -> str:
    """Text format: role lines then edge lines."""
    lines = []
    for name in sorted(topo.nodes):
        spec = topo.nodes[name]
        lines.append(f"node {name} {spec.role.value} {spec.behavior.kind.value}")
    for u, v in sorted(topo.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_topology(text: str) -> Topology:
    nodes: dict[str, NodeSpec] = {}
    edges: list[tuple[str, str]] = []
    source = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 'node <id> <role> <behavior>'")
            _, name, role_s, behavior_s = parts
            try:
                role = Role(role_s)
                behavior = Behavior(BehaviorKind(behavior_s))
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None
            if name in nodes:
                raise ValueError(f"line {lineno}: node {name} declared twice")
            nodes[name] = NodeSpec(role=role, behavior=behavior)
            if role is Role.SOURCE:
                source = name
        elif len(parts) == 2:
            edges.append((parts[0], parts[1]))
        else:
            raise ValueError(f"line {lineno}: cannot parse {line!r}")
    if source is None:
        raise ValueError("no source node declared")
    if not any(spec.role is Role.SINK for spec in nodes.values()):
        raise ValueError("no sink node declared")
    topo = Topology(nodes=nodes, edges=edges, source=source,
                    byzantine=[n for n, s in nodes.items()
                               if s.behavior.kind is not BehaviorKind.HONEST])
    topo.validate()
    return topo

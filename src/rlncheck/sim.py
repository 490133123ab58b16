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
``Simulation._accepts``; what is built only when read, in
``_SimNode.span``.  The one cache shared across runs is ``_run_shape``:
one entry per topology shape, with its parents, children, longest path
and coding plan, and one record of what the nodes an adversary cannot
reach did under Protocol.NONE, which later runs of the same key replay
(``Simulation._replay``).  The outputs are those of re-coding and
re-checking everything every round at every receiver, with every span
kept up to date.

The adversary model: Byzantine nodes are omniscient (they code after
the round's honest emissions and see every child's span) and hold
valid keys, so whatever they send carries valid signatures.  Each
behavior is one choice of the coefficients the node codes with and of
the token entries it claims, written once in the adversary catalogue
(``deviation`` and ``forged_claims``, which list the behaviors);
``Simulation._strategy`` looks it up, and a single-node test builds the
same packets from it.  Without verification every behavior acts and
nothing is caught; with it, the children that receive a packet coded
other than as prescribed flag its sender (under Log-PIP, with
probability t/d per round of t challenges).

Simulations are deterministic per seed: identities, epoch parameters,
source combinations, challenge picks, and adversarial choices all
derive from the one seed.
"""

from __future__ import annotations

import bisect
import enum
import functools
import logging
import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import mul
from types import MappingProxyType
from typing import NamedTuple, TypeVar

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


# A parent key: a node name in ``Simulation``, a node id at a single node.
K = TypeVar("K")


def deviation(
    kind: BehaviorKind, honest: list[tuple[K, int]], target: K, q: int
) -> tuple[list[tuple[K, int]], list[tuple[K, int]]] | None:
    """The adversary catalogue: what a node behaving as ``kind`` codes
    with, and what its test token claims.

    ``honest`` is the node's prescribed (parent, coefficient) pairs over
    its required set, and ``target`` the parent a deviation acts on.
    Returns (coding, claimed): the pairs its emission combines, and the
    pairs its token states (under Log-PIP, the leaves it commits to).
    Returns None when the node sends nothing.

    - HONEST (Mode 3), REPLAY_OLD, FORGE_TOKEN and NON_INNOVATIVE: the
      honest pairs, claimed as coded.  REPLAY_OLD resends its epoch-1
      packets in later epochs (``Simulation._emit_round``).  FORGE_TOKEN
      lies in the target's token entry (``forged_claims``).
      NON_INNOVATIVE (Mode 1) codes this way only when no coefficients
      give an output that every child already holds or gets from its
      other parents; the look-ahead needs the run
      (``Simulation._non_innovative``).
    - FORWARD_ONLY (Mode 2): coefficient 1 on the target alone, while the
      token claims the honest pairs.
    - SKIP_PARENT: the honest pairs without the target, claimed as coded;
      None when the target is the only parent.
    - ZERO_COEFFICIENT, WRONG_COEFFICIENT: the target's coefficient
      zeroed, or raised by one (q - 1 wraps to 1, never 0), claimed as
      coded.
    """
    if (kind is BehaviorKind.HONEST or kind is BehaviorKind.NON_INNOVATIVE
            or kind is BehaviorKind.REPLAY_OLD or kind is BehaviorKind.FORGE_TOKEN):
        return honest, honest
    if kind is BehaviorKind.FORWARD_ONLY:
        return [(target, 1)], honest
    if kind is BehaviorKind.SKIP_PARENT:
        coding = [(p, a) for p, a in honest if p != target]
        if not coding:
            return None
    elif kind is BehaviorKind.ZERO_COEFFICIENT:
        coding = [(p, 0 if p == target else a) for p, a in honest]
    elif kind is BehaviorKind.WRONG_COEFFICIENT:
        coding = [(p, ((a + 1) % q or 1) if p == target else a) for p, a in honest]
    else:
        raise ValueError(f"no deviation for {kind}")
    return coding, coding


def forged_claims(claims: list[ParentInput], target_id: bytes, sk: bytes) -> list[ParentInput]:
    """FORGE_TOKEN's token entries: ``claims`` with the target's helper
    signature replaced by one the sender makes with its own key ``sk``."""
    fake = sigcrypto.sign(sk, b"forged" + target_id)
    return [c._replace(helper_sig=fake) if c.parent_id == target_id else c for c in claims]


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
        """A copy with ``name`` given ``behavior``; ValueError for a name not
        in the topology, or for a Byzantine source (see ``validate``)."""
        if name not in self.nodes:
            raise ValueError(f"node {name} not in topology")
        nodes = {
            n: NodeSpec(role=s.role, behavior=behavior if n == name else s.behavior)
            for n, s in self.nodes.items()
        }
        topo = Topology(nodes=nodes, edges=list(self.edges), source=self.source,
                        byzantine=list(self.byzantine))
        topo._check_source()
        return topo

    def validate(self) -> None:
        """ValueError unless the topology is valid (see the class docstring)
        and its source is honest: the source round draws its combinations
        the same way whatever the source's behaviour, so a Byzantine source
        would run honest."""
        _checked_adjacency(self)
        self._check_source()

    def _check_source(self) -> None:
        spec = self.nodes.get(self.source)
        if spec is not None and spec.behavior.kind is not BehaviorKind.HONEST:
            raise ValueError(f"source {self.source} must be honest, not {spec.behavior.kind.value}")


def _checked_adjacency(topo: Topology) -> tuple[dict, dict, int]:
    """(parents, children, longest path) of a valid topology (see
    ``Topology``), from one adjacency pass and one topological pass;
    ValueError naming the first fault otherwise.

    The pass is Kahn's with a FIFO queue, which takes the nodes in order
    of depth, the longest path to a node from one with no parent.  So
    the parent taken last before a node is queued is one of its deepest,
    the node's depth is that parent's plus one, and the last node taken
    is as deep as any."""
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
    depth = dict.fromkeys(queue, 0)
    longest = 0
    while queue:
        u = queue.popleft()
        longest = depth[u]
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                depth[v] = longest + 1
                queue.append(v)
    if len(depth) != len(parents):
        raise ValueError("topology contains a cycle")
    reach = _reachable(children, topo.source)
    for n in topo.nodes:
        if n not in reach:
            raise ValueError(f"node {n} unreachable from source")
    return parents, children, longest


def _reachable(children: dict, *starts: str) -> set[str]:
    """The nodes reachable from any of ``starts``, them included."""
    seen = set(starts)
    stack = list(starts)
    while stack:
        u = stack.pop()
        for v in children[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


class _Record(NamedTuple):
    """What the nodes outside the reach of the first Protocol.NONE run of
    a key did, for the later runs of that key (see ``Simulation._replay``).
    Every value is immutable, so that no run can change another's record."""

    key: tuple  # (rng_seed, m, q, epochs)
    # per epoch: the source's delivery to each child, ((child, vector), ...),
    # and ``Simulation.rng``'s state after the source round
    source: tuple
    # node -> per epoch, the vector it coded in each round 0..rounds, or None
    sends: MappingProxyType
    # sink -> (rank, decoded, the last epoch's received vectors)
    sinks: MappingProxyType
    # the run's honest-coefficient table (``Simulation._honest_table``)
    honest: MappingProxyType


@dataclass(eq=False)
class _Shape:
    """What the runs of one topology shape share (see ``_run_shape``).

    Parents and children are sorted tuples in read-only mappings.  The
    plan holds a (node, parents) pair per node that codes (an interior
    node with a child, see the module docstring), by name: the rows of
    every run's honest-coefficient table, whoever is Byzantine.  The one
    mutable field is ``record``: the ``_Record`` of the first
    Protocol.NONE run of the key run last on this shape
    (``Simulation._replay``).
    """

    parents: MappingProxyType
    children: MappingProxyType
    longest: int
    plan: tuple
    record: _Record | None = None


@functools.lru_cache(maxsize=4)
def _run_shape(edges: tuple, roles: tuple, source: str) -> _Shape:
    """The shared entry of a valid topology's runs.

    ``roles`` holds the (node, role) pairs of ``Topology.nodes`` in order.
    The key holds every input of ``_checked_adjacency`` and no behaviour,
    so the mode runs of one sweep point build and check their topology
    once, and share its record; an invalid one raises each time, since
    ``lru_cache`` stores no exception.  It is the one cache shared across
    runs; four entries hold a sweep point's topology and the few that a
    caller may run in turn.
    """
    topo = Topology(nodes={n: NodeSpec(role=role) for n, role in roles},
                    edges=list(edges), source=source)
    parents, children, longest = _checked_adjacency(topo)
    parents = MappingProxyType({n: tuple(ps) for n, ps in parents.items()})
    plan = tuple((n, parents[n]) for n, role in sorted(roles)
                 if role is Role.INTERIOR and children[n])
    return _Shape(parents, MappingProxyType({n: tuple(cs) for n, cs in children.items()}),
                  longest, plan)


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

    The constructor lays the arcs out as ``add_edge`` would, split arcs
    in node order and then one arc per edge in ``edges`` order, in one
    loop over the edges; ``add_edge`` adds the arcs of later edges.
    """

    def __init__(self, nodes, edges, src: str, dst: str):
        self.src, self.dst = src, dst
        self.inp: dict[str, int] = {}
        self.out: dict[str, int] = {}
        self.head: list[int] = []
        self.adj: list[list[int]] = []
        inp, out, head, adj = self.inp, self.out, self.head, self.adj
        for n in nodes:
            slot = inp[n] = len(adj)
            if n == src or n == dst:
                out[n] = slot
                adj.append([])
            else:
                out[n] = slot + 1
                adj += ([len(head)], [len(head) + 1])
                head += (slot + 1, slot)
        for u, v in edges:
            a, b = out.get(u), inp.get(v)
            if a is not None and b is not None:
                adj[a].append(len(head))
                adj[b].append(len(head) + 1)
                head += (b, a)
        self.residual: list[int] = [1, 0] * (len(head) // 2)
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
                    if residual[e]:
                        v = head[e]
                        if via[v] == -1:
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
    ValueError for a negative ``edge_count`` or ``byzantine_count``, and
    InfeasibleTopologyError when the parameters cannot be met within
    _TOPOLOGY_ATTEMPTS attempts.

    Each attempt sorts its edge list once and builds one integer-indexed
    flow graph (``_Flow``) over it in one pass, and keeps both: feeding
    a starving tail inserts one edge in order, adds one arc and augments
    from the current flow, and the placement reads the cut from that
    flow.  The attempts draw from ``rng`` in the order that
    ``_random_topology_attempt`` states, and every topology returned has
    passed ``Topology.validate``.
    """
    if edge_count < 0:
        raise ValueError(f"edge_count must be at least 0, got {edge_count}")
    if byzantine_count < 0:
        raise ValueError(f"byzantine_count must be at least 0, got {byzantine_count}")
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
    and its maximum flow to the sink.

    Draw order: one layer per interior node, the sink tails, one shuffle
    of the forward pairs, then one feeder per repaired node, in index
    order.  The draws pick by position, so each list drawn from keeps
    its order too: the pairs list the source's pairs first, then each
    interior node's, tails and heads in index order.  Any rebuild of a
    step keeps both orders, or a seed gives another topology.

    The edge list is put in sorted order once and kept sorted as
    edges join it (``bisect.insort``); ``_Flow`` and ``Topology`` share
    it.  While the interior names sort in index order (at most 1,000 of
    them), the chosen pairs are read off the pairs' order before the
    shuffle, the source's pairs moved last since "s" sorts after every
    "n" name; past that they are sorted.
    """
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

    # Forward pairs (u, v) with layer[u] < layer[v]: above[k] holds the
    # interior nodes of the layers above k, in index order.
    above = [[v for v in interior if layer[v] > k] for k in range(n_layers + 1)]
    pairs = [(u, v) for u in [src] + interior for v in above[layer[u]]]
    shuffled = pairs.copy()
    rng.shuffle(shuffled)
    budget = max(edge_count - target, 0)
    edges = set(shuffled[:budget])
    if len(interior) <= 1000:
        own = len(above[0])  # the source's pairs, listed first
        ordered = [e for e in pairs[own:] + pairs[:own] if e in edges]
    else:
        ordered = sorted(edges)

    def add(edge: tuple[str, str]) -> None:
        if edge not in edges:  # a repair may draw an edge already chosen
            edges.add(edge)
            bisect.insort(ordered, edge)

    for u in tails:
        add((u, dst))

    # Repair: every interior node reachable from the source (dead-end
    # interiors are fine; only the sink must be fed at full capacity).
    children_map: dict[str, list[str]] = {n: [] for n in layer}
    for u, v in ordered:
        children_map[u].append(v)
    seen = _reachable(children_map, src)
    for name in interior:
        if name not in seen:
            feeders = [u for u in [src] + interior if layer[u] < layer[name] and u in seen]
            if not feeders:
                feeders = [src]
            add((rng.choice(feeders), name))
            seen.add(name)

    nodes = {src: NodeSpec(role=Role.SOURCE), dst: NodeSpec(role=Role.SINK)}
    for name in interior:
        nodes[name] = NodeSpec(role=Role.INTERIOR)
    flow = _Flow(nodes, ordered, src, dst)

    # The sink in-degree bounds the flow by `target`; raise the flow up to
    # it by feeding starving tails straight from the source, augmenting
    # from the flow already found.
    for _ in range(2 * target + 4):
        if flow.augment() == target:
            return Topology(nodes=nodes, edges=ordered, source=src), flow
        u = next((u for u in tails if (src, u) not in edges), None)
        if u is None:
            return None
        add((src, u))
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
    it still keeps the caller from falling back.  When every non-empty
    span is full there are no columns at all: the nullspace is the whole
    space, whose RREF basis is the d x d identity, so each try draws one
    coefficient per parent without reducing anything.

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
    if columns:
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
    else:  # no span constrains: the identity basis, one lead per parent
        leads, others = range(len(vecs)), []
    fallback = None
    for _ in range(64):
        draws = [rng.randrange(q) for _ in leads]
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
    # Under Protocol.NONE (see Simulation._replay): a replayed node's vector
    # coded in each round of this epoch, or None, and its simulated children;
    # a node being recorded logs what it codes in each round of this epoch.
    replay: tuple | None = None
    replay_to: tuple = ()
    log: list | None = None

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

    The parents, children, longest path and coding plan come from the
    topology's entry in ``_run_shape``, the one cache shared across runs;
    ``parents`` and ``children`` are read-only mappings of tuples.  A
    node's span is built only when read (``_SimNode.span``).  The
    prescribed coefficients are derived once per epoch
    (``_honest_table``), except that under Protocol.NONE, where they do
    not change with the epoch, a run derives them once, or takes them
    from the entry's record when that holds its key; from the record it
    also replays the nodes outside its adversaries' reach (``_replay``).
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
        if min(m, epochs, challenges) < 1:
            raise ValueError(
                f"m and epochs must be >= 1, as must challenges; got m={m}, epochs={epochs}, "
                f"challenges={challenges}"
            )
        self._shape = _run_shape(tuple(topo.edges), tuple(
            (n, spec.role) for n, spec in topo.nodes.items()), topo.source)
        self.parents, self.children = self._shape.parents, self._shape.children
        self.rng_seed = rng_seed
        self.topo = topo
        self.protocol = protocol
        self.verified = protocol is not Protocol.NONE
        self.m = m
        self.rounds = self._shape.longest + m
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
        # The nodes that code, by name (the plan).  Omniscient adversaries
        # code last, after observing this round's honest emissions.
        self._emit_order = sorted((n for n, _ in self._shape.plan), key=lambda n:
                                  topo.nodes[n].behavior.kind is BehaviorKind.NON_INNOVATIVE)

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
        the run's nodes.  In the first, the attest and content of a packet
        (attest signature, epoch binding, validity signature, token type
        and full PIP token) are checked once, by the first of the
        sender's children to get it, and the others take that verdict;
        each child still checks the helper signature of its own edge.
        Every child of an emission gets the same attest
        (``node.build_draft``), so it is checked once.  In the second, an
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
        epoch in which its span was read), and nodes replayed from the
        record (``_replay``).  Its ``args`` is a dict of those counts,
        under the keys ``deliveries``, ``checks``, ``contents``,
        ``challenges``, ``triples``, ``spans`` and ``replayed``; under
        Protocol.NONE, which checks nothing, all but ``spans`` and
        ``replayed`` are 0, and under PIP and Log-PIP ``replayed`` is 0.
        """
        with (sigcrypto.shared_verifications() as triples,
              node_mod.shared_content_checks() as contents):
            report, checks, challenges, spans = self._run()
        logger.debug(
            "run: %(deliveries)d deliveries, %(checks)d per-receiver checks, "
            "%(contents)d shared content checks, %(challenges)d challenges, "
            "%(triples)d distinct Ed25519 triples, %(spans)d spans read, "
            "%(replayed)d nodes replayed",
            {"deliveries": len(report.verdicts), "checks": checks,
             "contents": len(contents or ()), "challenges": challenges,
             "triples": len(triples or ()), "spans": spans, "replayed": len(self._replayed)},
        )
        return report

    def _run(self) -> tuple[TransmissionReport, int, int, int]:
        """The report, with the per-receiver checks and the challenges run
        and the spans read, each summed over the epochs."""
        checks = challenges = spans = 0
        key, record, recorded = self._replay()
        src = self.topo.source
        sources = []  # per epoch, the source's deliveries and rng state after them
        live = [self.nodes[n] for n in self._live]
        replaying = [(self.nodes[n], record.sends[n]) for n in self._order if n in self._replayed]
        logs = {n: [] for n in recorded}
        for epoch in range(1, self.epochs + 1):
            self.originals = self._first_originals or self._draw_originals()
            self._first_originals = None
            if self.verified:
                self.params = validity.epoch_setup(
                    self.master, self.originals, epoch, self.rng, self.profile
                )
                self.source_state.enter_epoch(self.params)
                # Honest coefficients are PRF outputs bound to the epoch key.
                self._honest = self._honest_table(self.params.epoch_pk_bytes())
            for sim_node in live:
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
            for sim_node, sends in replaying:
                # A Mode-1 look-ahead reads a replayed co-parent's ``sent``.
                sim_node.replay, sim_node.sent = sends[epoch - 1], None
            for name in recorded:
                self.nodes[name].log = [None] * (self.rounds + 1)

            if record is None:
                deliveries = self._source_round()
                if key is not None:
                    sources.append((tuple((c, deliveries[c][0][1]) for c in self.children[src]),
                                    self.rng.getstate()))
            else:
                sent, state = record.source[epoch - 1]
                self.rng.setstate(state)
                deliveries = {n: [] for n in self._live}
                for child, E in sent:
                    if child in deliveries:
                        deliveries[child].append((src, E))
            for r in range(1, self.rounds + 1):
                self._ingest_round(r, deliveries)
                deliveries = self._emit_round(epoch, r)
            checks += sum(len(sim_node.checked) for sim_node in live)
            challenges += len(self._challenges)
            for name, log in logs.items():
                log.append(tuple(self.nodes[name].log))

        ranks, decoded = {}, {}
        for s in self.topo.sinks:
            sim_node = self.nodes[s]
            if s in self._replayed:
                ranks[s], decoded[s], vectors = record.sinks[s]
                sim_node.received_vectors = list(vectors)
                continue
            ranks[s] = sim_node.span.dim
            solved = gf.solve_originals(sim_node.received_vectors, self.q)
            decoded[s] = solved is not None and solved == [o.payload for o in self.originals]
        self.report.sink_ranks = ranks
        self.report.decoded = decoded
        self.report.rounds = self.rounds * self.epochs
        spans += sum(sim_node.synced is not None for sim_node in live)
        if key is not None:
            sinks = {s: (ranks[s], decoded[s], tuple(self.nodes[s].received_vectors))
                     for s in ranks if s in logs}
            self._shape.record = _Record(key, tuple(sources), MappingProxyType(
                {n: tuple(log) for n, log in logs.items()}), MappingProxyType(sinks), self._honest)
        return self.report, checks, challenges, spans

    def _honest_table(self, context: bytes) -> MappingProxyType:
        """The prescribed coefficients of every coding node, node ->
        ((parent, coefficient), ...), from one batched PRF pass per node
        over its parents (``node.derive_coefficients``) along the shape's
        plan.  ``context`` is the epoch key bytes, or b"lite".  Read-only,
        so that a record's table is the same for every run that takes it.
        """
        return MappingProxyType({name: tuple(zip(parents, node_mod.derive_coefficients(
            self.seed, [p.encode() for p in parents], name.encode(), context, self.q)))
            for name, parents in self._shape.plan})

    def _replay(self) -> tuple[tuple | None, _Record | None, list[str]]:
        """The key this run records under, the record it replays, and the
        nodes it records.  Under PIP and Log-PIP, which neither read nor
        build a record, that is (None, None, []).  Under Protocol.NONE it
        is (None, record, []) when the entry's record (``_Shape.record``)
        holds this run's key (rng_seed, m, q, epochs): the run replays it
        and records nothing.  Otherwise it is (key, None, nodes): the run
        simulates every node, and its record, of the nodes outside its
        reach, replaces the entry's.  Sets ``_replayed``, the nodes taken
        from the record, ``_live``, the nodes it simulates, in ``nodes``
        order, ``_order``, the nodes that emit, in ``_emit_order``, and,
        under Protocol.NONE, the honest table.

        Under Protocol.NONE a run's *reach* is every node whose behaviour
        is not HONEST, with all of their descendants.  A node outside the
        reach emits exactly what it emits in the all-honest run: all of its
        inputs come from honest nodes outside the reach, its coefficients
        from the honest table, and the only randomness it sees is the
        source round's, which ``rng`` draws the same way whatever the
        behaviours (Mode 1 draws only from ``adversary_rng``).  So every
        run of one shape and key gets the same emissions from it.

        A run replays every recorded node outside its reach: in its turn
        in ``_emit_order`` such a node sets ``sent`` to what it coded that
        round (so a Mode-1 view of the other parents is unchanged; like a
        simulated node's, it is None at each epoch start) and delivers it
        to its simulated children only; it ingests nothing.  The source
        round is replayed too, and leaves ``rng`` in the state it was
        recorded with, so later epochs draw the same originals; so is the
        honest table.  A replayed sink takes its rank, decoded flag and
        last epoch's received vectors from the record.  Every other node
        is simulated.

        No simulated node sends to a replayed one: the simulated nodes
        are this run's reach and the first run's, and each of those sets
        holds the descendants of its nodes.
        """
        if self.verified:
            self._replayed, self._live, self._order = set(), tuple(self.nodes), self._emit_order
            return None, None, []
        key = (self.rng_seed, self.m, self.q, self.epochs)
        reach = _reachable(self.children, *(
            n for n, spec in self.topo.nodes.items() if spec.behavior.kind is not BehaviorKind.HONEST
        ))
        record = self._shape.record
        record = record if record is not None and record.key == key else None
        self._replayed = set() if record is None else set(record.sends) - reach
        self._live = tuple(n for n in self.nodes if n not in self._replayed)
        for name in self._replayed:
            self.nodes[name].replay_to = tuple(
                c for c in self.children[name] if c not in self._replayed)
        # A replayed node with no simulated child is read by no one.
        self._order = [n for n in self._emit_order
                       if n not in self._replayed or self.nodes[n].replay_to]
        if record is None:
            # With no epoch key the coefficients are bound to b"lite": one
            # table serves every epoch.
            self._honest = self._honest_table(b"lite")
            return key, None, [n for n in self._live if n not in reach]
        self._honest = record.honest
        return None, record, []

    def _source_round(self) -> dict[str, list]:
        """One fresh random combination of the originals per source child."""
        src = self.topo.source
        deliveries: dict[str, list] = {n: [] for n in self._live}
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
        for name, arrived in deliveries.items():
            sim_node = self.nodes[name]
            for sender, pkt in arrived:
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
        edge has its own helper signature; the attest and content stage
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

    def _emit_round(self, epoch: int, r: int) -> dict[str, list]:
        """Every ready node sends; it codes only if its inputs changed.

        An honest emission is a function of the node's accepted inputs, so
        a node whose inputs did not change resends what it last coded.  A
        Mode-1 node re-codes every round: it reads its children's spans
        and draws from ``adversary_rng``.  Under Protocol.NONE a resent
        vector is not delivered again, since it adds nothing to a child;
        under PIP and Log-PIP every packet is delivered and gets a
        verdict, which a resent packet takes from its receiver's memo.
        A replayed node sends what it coded in round ``r`` of the recorded
        run (``_replay``).
        """
        deliveries: dict[str, list] = {n: [] for n in self._live}
        for name in self._order:
            sim_node = self.nodes[name]
            if sim_node.replay is not None:
                E = sim_node.replay[r]
                if E is not None:
                    sim_node.sent = E, dict.fromkeys(sim_node.replay_to, E)
                    for child in sim_node.replay_to:
                        deliveries[child].append((name, E))
                continue
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
                if sim_node.log is not None:
                    sim_node.log[r] = sim_node.sent[0]
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
        nothing.  The choice is the catalogue's (``deviation``), with the
        first required parent as the target.  Two parts need the run: a
        Mode-1 node's look-ahead (``_non_innovative``), which is omniscient
        since it codes after the round's honest nodes and sees every
        child's span, and FORGE_TOKEN's helper, which the node signs with
        its own key (``forged_claims``).  REPLAY_OLD's later epochs resend
        stored packets (``_emit_round``).
        """
        sim_node = self.nodes[name]
        kind = sim_node.spec.behavior.kind
        target = self.parents[name][0]
        plan = deviation(kind, self._honest[name], target, self.q)
        if plan is None:
            return None
        coding, claimed = plan
        E = None
        if kind is BehaviorKind.NON_INNOVATIVE:
            choice = self._non_innovative(name)
            if choice is None:
                self.report.fallbacks[name] = self.report.fallbacks.get(name, 0) + 1
            else:
                coding, E = choice
                claimed = coding
        if E is None:
            E = gf.linear_combine(
                [sim_node.vectors[p] for p, _ in coding], [a for _, a in coding], self.q
            )
        if not self.verified:
            return coding, E, []
        st = sim_node.state
        claims = node_mod.buffered_inputs(st, [(p.encode(), a) for p, a in claimed])
        if kind is BehaviorKind.FORGE_TOKEN:
            claims = forged_claims(claims, target.encode(), st.identity.sk)
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
    with and the token entries it claims (see ``deviation``).
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

"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), then runs closed-loop rounds: every operation starts when the
previous one returns, and every round runs the same operations, so the
share of failed operations is the same however many rounds a run makes.
``run_round`` is a generator that yields after each operation, so that
the runner can time extra set-ups between operations.  Only calls into
the library are timed; the checks against ``checkers`` run outside the
timed sections.

All calls go through module attributes (``sim.run_simulation``, not a
name imported from ``sim``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from rlncheck import gf, node, pipcore, sigcrypto, sim, validity
from rlncheck.pipcore import Protocol
from rlncheck.profiles import PRODUCTION
from rlncheck.sim import Behavior, BehaviorKind

import checkers

clock = time.perf_counter


@dataclass
class Tally:
    """What a run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # failed checks: the run is not correct
    known_faults: list = field(default_factory=list)
    busy_s: float = 0.0  # time inside timed library calls
    units: int = 0  # what ops_per_s counts, over busy_s
    latency_ms: list = field(default_factory=list)  # per-workload latency samples
    samples: dict = field(default_factory=dict)  # per-layer figure -> samples
    packets: int = 0  # packets given a verdict (base of verify.per_packet)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(what)


# ---------------------------------------------------------------------------
# mode_sweep: the criterion-6 sweep on the crypto-free engine

SWEEP_NODES, SWEEP_EDGES, SWEEP_M = 50, 1000, 5
SWEEP_CUTS = tuple(range(1, 11))
SWEEP_TOPOLOGY_SEEDS = (0, 1, 2)  # the first sweep seeds of criterion 6


class ModeSweep:
    """Sweep shape of ``sim.mode_sweep``: one Byzantine node on a min cut,
    modes 1/2/3, cuts 1-10, on the topologies of sweep seeds
    SWEEP_TOPOLOGY_SEEDS.  The seed draws each transmission's rng seed
    (PRF seed, payloads, source combinations, adversary choices).
    Topology generation is set-up; an operation is one transmission.
    All 30 (cut, topology seed) pairs are feasible today, so an
    infeasible one is a failed check rather than a skipped pair."""

    name = "mode_sweep"
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = random.Random(f"mode_sweep/{self.seed}")
        cases, infeasible = [], []
        for cut in SWEEP_CUTS:
            for s in SWEEP_TOPOLOGY_SEEDS:
                try:
                    topo = sim.random_topology(
                        SWEEP_NODES, SWEEP_EDGES, cut, 1, rng_seed=s * 1000 + cut
                    )
                except sim.InfeasibleTopologyError:
                    infeasible.append((cut, s))
                    continue
                variants = {}
                for mode, kind in sim.MODES.items():
                    t = topo
                    for byz in topo.byzantine:
                        t = t.with_behavior(byz, Behavior(kind))
                    variants[mode] = t
                cases.append((cut, rng.randrange(1 << 30), topo, variants))
        return {"cases": cases, "infeasible": infeasible}

    def check_setup(self, fixture, tally: Tally) -> None:
        tally.check(not fixture["infeasible"], f"infeasible (cut, seed): {fixture['infeasible']}")
        for cut, _, topo, _ in fixture["cases"]:
            flow = checkers.node_split_max_flow(topo.edges, topo.source, topo.sinks[0])
            tally.check(flow == cut, f"cut {cut}: max-flow {flow}")

    def run_round(self, fixture, tally: Tally):
        for cut, sim_seed, topo, variants in fixture["cases"]:
            sink = topo.sinks[0]
            cap = min(cut, SWEEP_M)
            for mode, t in variants.items():
                t0 = clock()
                report = sim.run_simulation(t, Protocol.NONE, SWEEP_M, rng_seed=sim_seed)
                dt = clock() - t0
                tally.attempted += 1
                tally.busy_s += dt
                tally.units += 1
                tally.latency_ms.append(dt * 1e3)
                got = report.sink_ranks[sink]
                what = f"cut {cut}, seed {sim_seed}, {mode}"
                tally.check(got <= cap, f"{what}: rank {got} > {cap}")
                if mode == "mode3":
                    tally.check(got == cap, f"{what}: rank {got} != {cap}")
                yield


# ---------------------------------------------------------------------------
# network_sim: the full protocol engine on random topologies

NET_NODES, NET_EDGES, NET_M = 30, 200, 3
NET_BEHAVIORS = (
    BehaviorKind.FORWARD_ONLY,
    BehaviorKind.NON_INNOVATIVE,
    BehaviorKind.SKIP_PARENT,
    BehaviorKind.ZERO_COEFFICIENT,
    BehaviorKind.WRONG_COEFFICIENT,
    BehaviorKind.FORGE_TOKEN,
)
NET_HONEST_CUT, NET_BYZANTINE_CUT = 4, 3
PROTOCOLS = (Protocol.PIP, Protocol.LOGPIP)

# A fixed input on which PIP blames honest relays (see README): two
# forward-only nodes, one of which feeds interior nodes.  It runs in every
# round and fails every time until the program is fixed.
KNOWN_FAULT = dict(cut=4, byzantine=2, topo_seed=2, sim_seed=2, m=3)


@dataclass
class NetCase:
    label: str
    topo: sim.Topology
    protocol: Protocol
    rng_seed: int
    m: int = NET_M


def _byzantine_base(cut: int) -> tuple[sim.Topology, list[str]]:
    """The first topology, by rng seed, with two relays whose only child
    is the sink, and those two relays.  Adversaries that feed interior
    nodes make PIP blame honest relays (see README); only the fixed
    KNOWN_FAULT case places them there."""
    for topo_seed in range(100):
        topo = sim.random_topology(NET_NODES, NET_EDGES, cut, 0, rng_seed=topo_seed)
        sink = topo.sinks[0]
        candidates = [u for u in topo.parents(sink) if topo.children(u) == [sink]]
        if len(candidates) >= 2:
            return topo, candidates[:2]
    raise RuntimeError("no topology with two sink-only relays")


def _with_byzantine(topo: sim.Topology, names: list[str], kind: BehaviorKind) -> sim.Topology:
    t = sim.Topology(nodes=topo.nodes, edges=list(topo.edges), source=topo.source,
                     byzantine=list(names))
    for name in names:
        t = t.with_behavior(name, Behavior(kind))
    return t


class NetworkSim:
    """Per round: an all-honest topology, and a topology with one or two
    adversaries under each of the six behaviours, each under PIP and
    Log-PIP, plus the KNOWN_FAULT case under PIP: 15 operations, the same
    in every round.  The topologies are fixed; the seed draws each
    simulation's rng seed (keys, epoch generators, payloads, source
    combinations, challenge picks, adversary choices).  An operation is one
    ``Simulation.run`` plus adjudication of its proofs; ops_per_s counts
    delivered packets given a verdict, and the latency is an operation's
    time per delivered packet.  A round takes about as long as a whole
    run, so an untraced run makes at least two: that gives the latency
    median 30 samples and spreads the run over twice as much host time."""

    name = "network_sim"
    min_rounds = 2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = random.Random(f"network_sim/{self.seed}")
        honest = sim.random_topology(NET_NODES, NET_EDGES, NET_HONEST_CUT, 0, rng_seed=0)
        cases = [NetCase("honest", honest, proto, rng.randrange(1 << 30)) for proto in PROTOCOLS]
        base, names = _byzantine_base(NET_BYZANTINE_CUT)
        for i, kind in enumerate(NET_BEHAVIORS):
            topo = _with_byzantine(base, names[: 1 + i % 2], kind)
            cases += [NetCase(kind.value, topo, proto, rng.randrange(1 << 30)) for proto in PROTOCOLS]
        kf = KNOWN_FAULT
        topo = sim.random_topology(NET_NODES, NET_EDGES, kf["cut"], kf["byzantine"],
                                   rng_seed=kf["topo_seed"])
        topo = _with_byzantine(topo, topo.byzantine, BehaviorKind.FORWARD_ONLY)
        cases.append(NetCase("known_fault", topo, Protocol.PIP, kf["sim_seed"], kf["m"]))
        return {"cases": cases, "sims": self._simulations(cases)}

    @staticmethod
    def _simulations(cases):
        return [
            sim.Simulation(c.topo, c.protocol, c.m, rng_seed=c.rng_seed, collect_proofs=True)
            for c in cases
        ]

    def check_setup(self, fixture, tally: Tally) -> None:
        self.flows = {}
        for c in fixture["cases"]:
            t = c.topo
            self.flows[id(t)] = checkers.node_split_max_flow(t.edges, t.source, t.sinks[0])

    def run_round(self, fixture, tally: Tally):
        # A Simulation runs once; rounds after the first build fresh ones, untimed.
        sims = fixture.pop("sims", None) or self._simulations(fixture["cases"])
        for case, s in zip(fixture["cases"], sims):
            t0 = clock()
            report = s.run()
            t1 = clock()
            verdicts = [node.adjudicate(pf, s.master.pk, s.master.pk) for pf in report.proofs]
            t2 = clock()
            packets = len(report.verdicts)
            tally.attempted += 1
            tally.busy_s += t2 - t0
            tally.units += packets
            tally.packets += packets
            tally.latency_ms.append((t2 - t0) * 1e3 / max(packets, 1))
            tally.sample(f"net.{case.protocol.value}.packets", packets)
            tally.sample(f"net.{case.protocol.value}.run_s", t1 - t0)
            self._check(case, s, report, verdicts, tally)
            yield

    def _check(self, case: NetCase, s, report, verdicts, tally: Tally) -> None:
        what = f"{case.label}/{case.protocol.value}"
        topo = case.topo
        sink = topo.sinks[0]
        tally.check(
            all(v.verdict is node.Verdict.GUILTY for v in verdicts),
            f"{what}: a proof did not adjudicate GUILTY",
        )
        if not topo.byzantine:
            tally.check(not report.detections, f"{what}: detections in an all-honest run")
            rank = report.sink_ranks[sink]
            want = min(self.flows[id(topo)], case.m)
            tally.check(rank == want, f"{what}: sink rank {rank} != {want}")
            received = [(v.coding_vector, v.payload) for v in s.nodes[sink].received_vectors]
            decoded = checkers.decode(received, case.m, s.profile.q)
            if rank == case.m:
                tally.check(
                    decoded == [o.payload for o in s.originals],
                    f"{what}: independent decode differs from the originals",
                )
            tally.check(
                report.decoded[sink] == (decoded is not None),
                f"{what}: decoded flag disagrees with the independent decode",
            )
            return
        culprits = report.detected_culprits()
        if case.protocol is Protocol.PIP:
            missed = sorted(set(topo.byzantine) - culprits)
            tally.check(not missed, f"{what}: PIP missed {missed}")
        honest = sorted(culprits - set(topo.byzantine))
        if not honest:
            return
        # The known fault: an honest relay flagged a Byzantine parent, coded a
        # degraded packet, and its child reported MissingEntry against it.
        flaggers = {d.verifier for d in report.detections if d.culprit in topo.byzantine}
        signature = all(
            name in flaggers and all(
                d.kind is pipcore.ViolationKind.MISSING_ENTRY
                for d in report.detections if d.culprit == name
            )
            for name in honest
        )
        tally.check(signature, f"{what}: honest {honest} blamed outside the known fault")
        if signature:
            tally.failed += 1
            tally.known_faults.append(f"{what}: honest {honest} found GUILTY")


# ---------------------------------------------------------------------------
# relay_production: one relay and its child at the production profile

RELAY_PARENTS, RELAY_CHUNKS, RELAY_M, RELAY_T = 10, 32, 4, 3


class RelayProduction:
    """A relay with RELAY_PARENTS parents and its child, RFC 5114 group.

    Per round and protocol: the relay verifies every pre-built parent
    packet, prepares and finalizes its packet, and the child accepts it
    (Log-PIP: plus RELAY_T challenges).  ops_per_s counts packets
    verified or emitted; the latency is the child's time to accept the
    relay's packet, under PIP plus under Log-PIP, per round."""

    name = "relay_production"
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        prof = PRODUCTION
        rng = random.Random(f"relay_production/{self.seed}")
        q = prof.q

        def ident(name: str):
            return sigcrypto.keygen(rng, name.encode())

        master = ident("s")
        parents = [ident(f"p{i:02d}") for i in range(RELAY_PARENTS)]
        relay, child = ident("r"), ident("c")
        for i in [master, *parents, relay, child]:
            i.cert = sigcrypto.certify(master.sk, i.pk, i.node_id)
        seed = rng.randbytes(32)
        originals = gf.standard_basis_originals(
            [[rng.randrange(q) for _ in range(RELAY_CHUNKS)] for _ in range(RELAY_M)], q
        )
        params = validity.epoch_setup(master, originals, 1, rng, prof)
        epoch_ref = node.EpochRef(k=params.k, master_sig=params.master_sig)

        def state(identity, protocol):
            return node.NodeState(identity=identity, seed=seed, authority_pk=master.pk,
                                  master_pk=master.pk, profile=prof, protocol=protocol)

        parent_pkts = []
        for p in parents:
            E = gf.linear_combine(originals, [gf.random_nonzero(q, rng) for _ in range(RELAY_M)], q)
            sigma = validity.sign_validity(params, E)
            pkt = node.Packet(
                E=E, sigma=sigma, test_token=pipcore.PipTestToken(entries=()),
                helper=pipcore.make_helper_token(master.sk, sigma, b"s", p.node_id, params),
                epoch_ref=epoch_ref, sender_id=b"s", attest=b"",
            )
            signed = node.packet_signed_bytes(pkt, params, prof.h_bytes)
            pkt = replace(pkt, attest=node.attest_packet(master.sk, signed))
            pst = state(p, Protocol.PIP)
            pst.register_parent(b"s", node.ParentInfo(pk=master.pk, cert=master.cert))
            pst.enter_epoch(params)
            draft, verdicts = node.process_round(pst, [pkt])
            if draft is None or verdicts[0][1] is not None:
                raise RuntimeError(f"parent {p.node_id!r} rejected its source packet")
            parent_pkts.append(node.finalize_packet(pst, draft, relay.node_id))

        sides = {}
        for proto in PROTOCOLS:
            rst = state(relay, proto)
            for p in parents:
                rst.register_parent(p.node_id, node.ParentInfo(
                    pk=p.pk, cert=p.cert, required_set=frozenset({b"s"}),
                    grandparent_pks={b"s": master.pk},
                ))
            rst.enter_epoch(params)
            cst = state(child, proto)
            cst.register_parent(relay.node_id, node.ParentInfo(
                pk=relay.pk, cert=relay.cert,
                required_set=frozenset(p.node_id for p in parents),
                grandparent_pks={p.node_id: p.pk for p in parents},
            ))
            cst.enter_epoch(params)
            sides[proto] = (rst, cst, random.Random(rng.getrandbits(64)))
        return {"params": params, "parent_pkts": parent_pkts, "relay": relay, "sides": sides}

    def check_setup(self, fx, tally: Tally) -> None:
        params = fx["params"]
        for pkt in fx["parent_pkts"]:
            tally.check(
                pkt.sigma == checkers.validity_product(params.generators, pkt.E.chunks, params.p),
                "a parent packet's sigma differs from prod g_i^e_i",
            )

    def run_round(self, fx, tally: Tally):
        params, relay = fx["params"], fx["relay"]
        h = PRODUCTION.h_bytes
        accept_s = 0.0
        for proto in PROTOCOLS:
            rst, cst, chal_rng = fx["sides"][proto]
            p = proto.value
            n = len(fx["parent_pkts"]) + 2
            tally.attempted += n
            t0 = clock()
            verdicts = []
            for pkt in fx["parent_pkts"]:
                v = node.verify_incoming(rst, pkt)
                verdicts.append(v)
                if v is None:
                    rst.buffers[pkt.sender_id] = pkt
            t1 = clock()
            draft, _ = node.process_round(rst, [])
            if draft is None:
                tally.busy_s += clock() - t0
                tally.check(False, f"{p}: the relay accepted no parent packet")
                yield
                continue
            out = node.finalize_packet(rst, draft, b"c")
            t2 = clock()
            accept = node.verify_incoming(cst, out)
            challenges = []
            if proto is Protocol.LOGPIP:
                challenges = node.challenge_parent(cst, out, rst.current_tree, relay.sk,
                                                   RELAY_T, chal_rng)
            t3 = clock()

            tally.units += n
            tally.packets += len(fx["parent_pkts"]) + 1
            tally.busy_s += t3 - t0
            accept_s += t3 - t2
            tally.sample(f"relay.{p}.verify_ms", (t3 - t2) * 1e3)
            tally.sample(f"relay.{p}.prepare_ms", (t2 - t1) * 1e3)

            overhead = len(node.serialize_packet(out, params, h)) - RELAY_CHUNKS * params.q_bytes
            overhead += sum(len(pipcore.serialize_proof(pf, params, h)) for _, pf, _ in challenges)
            tally.sample(f"relay.{p}.overhead_bytes", overhead)

            tally.check(all(v is None for v in verdicts), f"{p}: relay rejected a parent packet")
            tally.check(not draft.degraded, f"{p}: relay draft degraded")
            tally.check(accept is None, f"{p}: child rejected the relay packet: {accept}")
            if proto is Protocol.LOGPIP:
                tally.check(len(challenges) == min(RELAY_T, RELAY_PARENTS),
                            f"{p}: {len(challenges)} challenges answered")
                tally.check(all(v is None for _, _, v in challenges), f"{p}: a challenge failed")
            tally.check(
                out.sigma == checkers.validity_product(params.generators, out.E.chunks, params.p),
                f"{p}: outgoing sigma differs from prod g_i^e_i",
            )
            tally.check(
                checkers.in_span(out.E.chunks, [pk.E.chunks for pk in fx["parent_pkts"]], params.q),
                f"{p}: outgoing vector outside the parents' span",
            )
            yield
        tally.latency_ms.append(accept_s * 1e3)


WORKLOADS = {w.name: w for w in (ModeSweep, NetworkSim, RelayProduction)}

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines and timings.  Statistical criteria use fixed seeds, so outcomes
are reproducible.
"""

import contextlib
import functools
import itertools
import math
import random
import time

import pytest

from conftest import NETWORK_STRATEGIES, deviant_entries, finish_packet

from rlncheck import cli, gf, pipcore, sigcrypto, sim, validity
from rlncheck.node import NodeState, ParentInfo, Verdict, adjudicate, build_misbehavior_proof, derive_coefficient, verify_incoming
from rlncheck.pipcore import ParentInput, Protocol, ViolationKind
from rlncheck.profiles import SIM, TEST
from rlncheck.sim import Behavior, BehaviorKind


@contextlib.contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"CRITERION {number:2d} PASS: {description} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Butterfly throughput halving


def test_criterion_1_butterfly_halving():
    with criterion(1, "butterfly honest rank 2 at both sinks; forwarding halves one"):
        topo = sim.butterfly_topology()
        honest = sim.run_simulation(topo, Protocol.NONE, m=2, rng_seed=7)
        assert honest.sink_ranks == {"n2": 2, "n3": 2}
        fwd = topo.with_behavior("n1", Behavior(BehaviorKind.FORWARD_ONLY))
        attacked = sim.run_simulation(fwd, Protocol.NONE, m=2, rng_seed=7)
        assert sorted(attacked.sink_ranks.values()) == [1, 2]
        assert attacked.sink_ranks["n2"] == 1  # n1 forwards its first parent (r1)


# ---------------------------------------------------------------------------
# 2 + 8. PIP soundness and adjudication, over a node-level adversary lab


class AdversaryLab:
    """One epoch at the sim profile; per-trial packets from a sender with
    a randomized required set of 2 to 5 of its ``parents``, verified by a
    child node."""

    def __init__(self, seed=2024, parents=6):
        self.rng = random.Random(seed)
        self.profile = SIM
        self.q = SIM.q
        self.master = sigcrypto.keygen(self.rng, b"s")
        self.originals = gf.standard_basis_originals(
            [[self.rng.randrange(self.q) for _ in range(3)] for _ in range(2)], self.q
        )
        self.params = validity.epoch_setup(self.master, self.originals, 1, self.rng, SIM)
        self.seed = self.rng.randbytes(32)
        self.byz = sigcrypto.keygen(self.rng, b"byz")
        self.byz.cert = sigcrypto.certify(self.master.sk, self.byz.pk, b"byz")
        self.parents = {}
        for i in range(parents):
            pid = b"p%d" % i
            ident = sigcrypto.keygen(self.rng, pid)
            ident.cert = sigcrypto.certify(self.master.sk, ident.pk, pid)
            self.parents[pid] = ident
        self.child = NodeState(
            identity=sigcrypto.keygen(self.rng, b"c"),
            seed=self.seed, authority_pk=self.master.pk, master_pk=self.master.pk,
            profile=SIM, protocol=Protocol.PIP,
        )
        self.child.enter_epoch(self.params)

    def register(self, required_ids):
        self.child.parents[b"byz"] = ParentInfo(
            pk=self.byz.pk, cert=self.byz.cert,
            required_set=frozenset(required_ids),
            grandparent_pks={pid: self.parents[pid].pk for pid in required_ids},
        )

    def fresh_inputs(self, d):
        ids = [b"p%d" % i for i in range(d)]
        self.register(ids)
        inputs = {}
        packets = {}
        for pid in ids:
            while True:
                E = gf.linear_combine(
                    self.originals,
                    [gf.random_nonzero(self.q, self.rng) for _ in self.originals],
                    self.q,
                )
                sigma = validity.sign_validity(self.params, E)
                if sigma != 1:
                    break
            helper = pipcore.make_helper_token(
                self.parents[pid].sk, sigma, pid, b"byz", self.params
            )
            coeff = derive_coefficient(
                self.seed, pid, b"byz", self.params.epoch_pk_bytes(), self.q
            )
            inputs[pid] = ParentInput(pid, sigma, helper, coeff)
            packets[pid] = E
        return ids, inputs, packets

    def packet_from(self, packets, coded, claimed):
        """The sender's packet: the combination of the ``coded`` entries,
        under a token that claims the ``claimed`` ones."""
        coeffs = [e.coeff for e in coded]
        E = gf.linear_combine([packets[e.parent_id] for e in coded], coeffs, self.q)
        sigma = validity.combine_validity([e.sigma for e in coded], coeffs, self.params)
        return finish_packet(self.byz, E, sigma, pipcore.pip_combine(claimed), self.params, b"c")

    def trial(self, strategy):
        """One packet from a sender that acts as ``strategy`` against a
        random target: a catalogue ``BehaviorKind`` (``sim.deviation``),
        or one of the lab's own strategies.

        ``"recoded"`` redraws every coefficient, nonzero and other than
        the prescribed one.  That is valid coding, but not the Mode 1 of
        ``BehaviorKind.NON_INNOVATIVE``, which chooses its coefficients
        from its children's spans; the lab has no children.
        ``"extra"`` and ``"duplicate"`` forward the target's packet under
        a token with one more entry, a new id or the target's own.
        """
        ids, inputs, packets = self.fresh_inputs(self.rng.randint(2, 5))
        entries = list(inputs.values())
        target = self.rng.choice(ids)
        if isinstance(strategy, BehaviorKind):
            coded, claimed = deviant_entries(strategy, entries, target, self.q)
            if strategy is BehaviorKind.FORGE_TOKEN:
                claimed = sim.forged_claims(claimed, target, self.byz.sk)
            return self.packet_from(packets, coded, claimed)
        if strategy == "recoded":
            recoded = []
            for e in entries:
                c = e.coeff
                while c == e.coeff or c == 0:
                    c = self.rng.randrange(1, self.q)
                recoded.append(e._replace(coeff=c))
            return self.packet_from(packets, recoded, recoded)
        if strategy in ("extra", "duplicate"):
            # Forward the target's packet, with one more entry whose sigma
            # turns the honest entries' combination into the packet's sigma.
            E = packets[target]
            sigma = validity.sign_validity(self.params, E)
            honest = validity.combine_validity(
                [e.sigma for e in entries], [e.coeff for e in entries], self.params
            )
            filler = sigma * pow(honest, -1, self.params.p) % self.params.p
            pid = b"px" if strategy == "extra" else target
            extra = ParentInput(pid, filler, sigcrypto.sign(self.byz.sk, b"filler"), 1)
            # First, so that a lookup by id finds the honest entry of a repeated id.
            token = pipcore.PipTestToken(entries=(extra, *entries))
            return finish_packet(self.byz, E, sigma, token, self.params, b"c")
        raise AssertionError(strategy)


# The deviations the lab takes from the catalogue, then its own.
CATALOGUE = (
    BehaviorKind.SKIP_PARENT, BehaviorKind.ZERO_COEFFICIENT, BehaviorKind.WRONG_COEFFICIENT,
    BehaviorKind.FORGE_TOKEN, BehaviorKind.FORWARD_ONLY,
)
STRATEGIES = (*CATALOGUE, "recoded", "extra", "duplicate")


@pytest.fixture(scope="module")
def soundness_results():
    """(verdict, misbehavior proof) per trial, honest trials first; the
    proof is built at trial time, while the sender's registered required
    set still matches it."""
    lab = AdversaryLab()
    trials = 1000
    results = {}
    for strategy in (BehaviorKind.HONEST, *STRATEGIES):
        batch = []
        for _ in range(trials):
            pkt = lab.trial(strategy)
            verdict = verify_incoming(lab.child, pkt)
            batch.append((verdict, build_misbehavior_proof(lab.child, pkt)))
        results[strategy] = batch
    return lab, results


def test_criterion_2_pip_soundness(soundness_results):
    with criterion(2, "PIP detects 100% of adversarial packets, 0% of honest (1000 trials each)"):
        lab, results = soundness_results
        for verdict, _ in results[BehaviorKind.HONEST]:
            assert verdict is None
        for strategy in STRATEGIES:
            missed = [v for v, _ in results[strategy] if v is None]
            assert not missed, f"{strategy}: {len(missed)} undetected"


def test_criterion_8_adjudication(soundness_results):
    with criterion(8, "zero Guilty verdicts on honest packets; every detection adjudicates Guilty"):
        lab, results = soundness_results
        for _, proof in results[BehaviorKind.HONEST]:
            out = adjudicate(proof, lab.master.pk, lab.master.pk)
            assert out.verdict is Verdict.INNOCENT
        for strategy in STRATEGIES:
            for verdict, proof in results[strategy]:
                assert verdict is not None
                out = adjudicate(proof, lab.master.pk, lab.master.pk)
                assert out.verdict is Verdict.GUILTY, strategy


def test_lab_verdicts_match_the_simulator(soundness_results):
    """Each catalogue deviation draws, at a single node, the verdict kinds
    its behavior draws from an honest child in a network run."""
    _, results = soundness_results
    for kind in CATALOGUE:
        assert {v.kind for v, _ in results[kind]} == NETWORK_STRATEGIES[kind], kind


# ---------------------------------------------------------------------------
# 3. Log-PIP detection bound


def logpip_cheat_fixture(lab, d):
    """A Log-PIP sender over d parents that zeroes the first one's
    coefficient (the catalogue's ZERO_COEFFICIENT), and what its child
    checks a challenge against."""
    ids, inputs, _ = lab.fresh_inputs(d)
    _, claimed = deviant_entries(BehaviorKind.ZERO_COEFFICIENT, list(inputs.values()), ids[0], lab.q)
    token, tree = pipcore.logpip_build(claimed, lab.params, lab.profile.h_bytes)
    ctx = pipcore.ChallengeContext(
        sender_id=b"byz", packet_sigma=tree.root.sigma, params=lab.params,
        h_bytes=lab.profile.h_bytes, parents=tuple(inp.parent_id for inp in tree.inputs),
    )
    expected = {
        pid: derive_coefficient(lab.seed, pid, b"byz", lab.params.epoch_pk_bytes(), lab.q)
        for pid in ids
    }
    pks = {pid: lab.parents[pid].pk for pid in ids}
    return ids, token, tree, ctx, expected, pks


def test_criterion_3_logpip_detection_bound():
    with criterion(3, "Log-PIP detection within 3 sigma of t/d and of 1-(1-t/d)^r"):
        lab = AdversaryLab(seed=31)
        d, trials = 6, 10_000
        # d=10 would exceed the q=11 generator budget of the tiny profile,
        # but the sim profile hosts any d; use d=10 as specified.
        lab2 = AdversaryLab(seed=32, parents=10)
        ids, token, tree, ctx, expected, pks = logpip_cheat_fixture(lab2, 10)
        picks = random.Random(314)
        detected = 0
        for _ in range(trials):
            idx = picks.randrange(10)
            inp = tree.inputs[idx]
            proof = pipcore.logpip_respond(tree, idx)
            v = pipcore.logpip_verify(proof, token, ctx, inp.parent_id,
                                      pks[inp.parent_id], expected[inp.parent_id])
            if v is not None:
                detected += 1
        p = 0.10
        phat = detected / trials
        bound = 3 * math.sqrt(p * (1 - p) / trials)
        assert abs(phat - p) <= bound, (phat, bound)

        # Repeated rounds: d=4, t=1, r=3 against 1 - (3/4)^3.
        ids, token, tree, ctx, expected, pks = logpip_cheat_fixture(lab, 4)
        detected = 0
        for _ in range(trials):
            hit = False
            for _round in range(3):
                idx = picks.randrange(4)
                inp = tree.inputs[idx]
                proof = pipcore.logpip_respond(tree, idx)
                v = pipcore.logpip_verify(proof, token, ctx, inp.parent_id,
                                          pks[inp.parent_id], expected[inp.parent_id])
                if v is not None:
                    hit = True
            if hit:
                detected += 1
        p = 1 - (1 - 1 / 4) ** 3
        phat = detected / trials
        bound = 3 * math.sqrt(p * (1 - p) / trials)
        assert abs(phat - p) <= bound, (phat, bound)


# ---------------------------------------------------------------------------
# 4. Homomorphism oracle


def test_criterion_4_homomorphism_oracle(tiny_epoch, rng):
    with criterion(4, "combine(sign) == sign(combine) on 500 random cases"):
        _, originals, params = tiny_epoch
        packets = [
            gf.linear_combine(
                originals, [gf.random_nonzero(params.q, rng) for _ in originals], params.q
            )
            for _ in range(8)
        ]
        sigmas = [validity.sign_validity(params, E) for E in packets]
        for _ in range(500):
            k = rng.randint(1, 8)
            idx = rng.sample(range(8), k)
            coeffs = [rng.randrange(params.q) for _ in idx]
            lhs = validity.combine_validity([sigmas[i] for i in idx], coeffs, params)
            rhs = validity.sign_validity(
                params, gf.linear_combine([packets[i] for i in idx], coeffs, params.q)
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# 5. Token-size formulas


def test_criterion_5_token_sizes():
    with criterion(5, "closed forms match at 160/1024-bit sigma; measured == formula + framing"):
        for d in cli.TABLE_PARENT_COUNTS:
            for sigma in (160, 1024):
                pip = pipcore.token_size_bits(Protocol.PIP, d, sigma, 320, 160)
                assert pip == d * (sigma + 320) + 320
                log = pipcore.token_size_bits(Protocol.LOGPIP, d, sigma, 320, 160)
                assert log == 160 + sigma + 320 + 2 * sigma * math.ceil(math.log2(d))
        assert pipcore.token_size_bits(Protocol.PIP, 10, 160, 320, 160) == 5120
        assert pipcore.token_size_bits(Protocol.LOGPIP, 8, 160, 320, 160) == 1600

        audit = TEST.with_hash_width(TEST.p_bytes)
        for d in cli.TABLE_PARENT_COUNTS:
            r = cli.measure_token_sizes(d, audit)
            for proto, measured, framing in (
                (Protocol.PIP, r["pip_measured_bits"], r["pip_framing_bits"]),
                (Protocol.LOGPIP, r["logpip_measured_bits"], r["logpip_framing_bits"]),
            ):
                formula = pipcore.token_size_bits(proto, d, r["sigma_bits"], r["sig_bits"], r["h_bits"])
                assert measured == formula + framing, (proto, d)


# ---------------------------------------------------------------------------
# 6. Mode sweep


def test_criterion_6_mode_sweep():
    with criterion(6, "50-node sweep: mode3 >= mode2 >= mode1 pointwise; 1.5x at cut 3"):
        config = sim.SweepConfig(seeds=tuple(range(20)))
        rows, summary = sim.mode_sweep(config)
        means = {(cut, mode): mean for cut, mode, mean in summary}
        for cut in config.min_cuts:
            assert means[(cut, "mode3")] >= means[(cut, "mode2")] >= means[(cut, "mode1")], cut
        assert means[(3, "mode3")] / means[(3, "mode1")] >= 1.5
        assert len(summary) == len(config.min_cuts) * 3


# ---------------------------------------------------------------------------
# 7. Payload independence


def test_criterion_7_payload_independence():
    with criterion(7, "verification time at n=1000 within 2x of n=10"):
        verifiers = {}
        for n in (10, 1000):
            inputs, params, ctx = cli.build_token_fixture(5, SIM, n_chunks=n)
            token = pipcore.pip_combine(inputs)
            sigma = validity.combine_validity(
                [e.sigma for e in token.entries], [e.coeff for e in token.entries], params
            )
            sender = ctx["sender"]
            verify = functools.partial(
                pipcore.pip_verif_test, sigma, token, sender.node_id, set(ctx["parent_pks"]),
                ctx["parent_pks"], ctx["expected"], params,
            )

            log_token, tree = pipcore.logpip_build(inputs, params, SIM.h_bytes)
            proof = pipcore.logpip_respond(tree, 0)
            first = tree.inputs[0]
            cctx = pipcore.ChallengeContext(
                sender_id=sender.node_id, packet_sigma=tree.root.sigma, params=params,
                h_bytes=SIM.h_bytes, parents=tuple(inp.parent_id for inp in tree.inputs),
            )
            verify_log = functools.partial(
                pipcore.logpip_verify, proof, log_token, cctx, first.parent_id,
                ctx["parent_pks"][first.parent_id], ctx["expected"][first.parent_id],
            )
            assert verify() is None and verify_log() is None
            verifiers[("pip", n)], verifiers[("logpip", n)] = verify, verify_log

        # Paired, interleaved samples over loops of fixed length, as
        # ``rlncheck bench`` measures the same ratio.
        for proto in ("pip", "logpip"):
            ratio = cli._time_ratio(verifiers[(proto, 1000)], verifiers[(proto, 10)], 30)
            assert 0.5 <= ratio <= 2.0, (proto, ratio)


# ---------------------------------------------------------------------------
# 9. Rank oracle


def test_criterion_9_rank_oracle():
    with criterion(9, "rank agrees with exhaustive span enumeration over GF(5), up to 3x3"):
        q = 5
        for cols in (1, 2, 3):
            rows_space = list(itertools.product(range(q), repeat=cols))
            zero = tuple([0] * cols)

            def extend(span, row):
                if row in span:
                    return span
                return frozenset(
                    tuple((v[i] + c * row[i]) % q for i in range(cols))
                    for v in span for c in range(q)
                )

            single = {r: extend(frozenset({zero}), r) for r in rows_space}
            for r1 in rows_space:
                assert gf.matrix_rank([list(r1)], q) == round(math.log(len(single[r1]), q))
            pair = {}
            for r1, r2 in itertools.combinations_with_replacement(rows_space, 2):
                span = extend(single[r1], r2)
                pair[(r1, r2)] = span
                assert gf.matrix_rank([list(r1), list(r2)], q) == round(math.log(len(span), q))
            for r1, r2, r3 in itertools.combinations_with_replacement(rows_space, 3):
                span = pair[(r1, r2)]
                size = len(span) if r3 in span else len(span) * q
                expected = round(math.log(size, q))
                assert gf.matrix_rank([list(r1), list(r2), list(r3)], q) == expected


# ---------------------------------------------------------------------------
# 10. Replay detection


def test_criterion_10_replay_detection():
    with criterion(10, "replayed old-epoch packets flagged BadEpoch in 100 of 100 trials"):
        from rlncheck.sim import NodeSpec, Role, Topology

        nodes = {
            "s": NodeSpec(Role.SOURCE),
            "byz": NodeSpec(Role.INTERIOR, behavior=Behavior(BehaviorKind.REPLAY_OLD)),
            "c": NodeSpec(Role.SINK),
        }
        topo = Topology(nodes=nodes, edges=[("s", "byz"), ("byz", "c")],
                        source="s", byzantine=["byz"])
        for seed in range(100):
            report = sim.run_simulation(
                topo, Protocol.PIP, m=2, rng_seed=seed, profile=SIM, epochs=2
            )
            kinds = {d.kind for d in report.detections if d.culprit == "byz"}
            assert ViolationKind.BAD_EPOCH in kinds, seed

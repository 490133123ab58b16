"""Node engine: coefficient derivation, attestation, packets, rounds, adjudication."""

import hmac
import math
import random
from dataclasses import replace

import pytest

from conftest import deviant_entries, finish_packet, hand_tree, source_packet

from rlncheck import gf, node as node_mod, pipcore, sigcrypto, sim, validity
from rlncheck.node import (
    NodeState,
    ParentInfo,
    Verdict,
    adjudicate,
    attest_packet,
    build_misbehavior_proof,
    derive_coefficient,
    derive_coefficients,
    deserialize_packet,
    packet_signed_bytes,
    process_round,
    serialize_packet,
    verify_attest,
    verify_incoming,
)
from rlncheck.pipcore import ParentInput, Protocol, ViolationKind
from rlncheck.profiles import PRODUCTION, SIM, TEST
from rlncheck.sim import BehaviorKind
from rlncheck.wire import DecodeError, Writer


class TestDeriveCoefficient:
    def test_deterministic(self, tiny_epoch):
        _, _, params = tiny_epoch
        epk = params.epoch_pk_bytes()
        a = derive_coefficient(b"s" * 16, b"p", b"n", epk, 13)
        b = derive_coefficient(b"s" * 16, b"p", b"n", epk, 13)
        assert a == b and 0 < a < 13

    def test_epoch_changes_coefficient(self, rng):
        master = sigcrypto.keygen(rng, b"src")
        originals = gf.standard_basis_originals([[3], [5]], TEST.q)
        p1 = validity.epoch_setup(master, originals, 1, rng, TEST)
        p2 = validity.epoch_setup(master, originals, 2, rng, TEST)
        q = 2**61 - 1
        a = derive_coefficient(b"s" * 16, b"p", b"n", p1.epoch_pk_bytes(), q)
        b = derive_coefficient(b"s" * 16, b"p", b"n", p2.epoch_pk_bytes(), q)
        assert a != b

    def test_empty_id_rejected(self, tiny_epoch):
        _, _, params = tiny_epoch
        with pytest.raises(ValueError):
            derive_coefficient(b"s" * 16, b"", b"n", params.epoch_pk_bytes(), 13)

    @pytest.mark.parametrize("q", [SIM.q, PRODUCTION.q])
    def test_message_is_the_writer_layout(self, q):
        """Coefficients are those of the message built with ``wire.Writer``."""
        seed = bytes(range(32))
        cases = [(b"n001", b"n002", b"lite"), (b"p" * 255, b"x", bytes(range(256)) * 3),
                 (b"s", b"t" * 200, b"")]
        for parent, child, epk in cases:
            w = Writer().raw(b"rlncheck-coeff-v1").var_bytes(parent).var_bytes(child)
            w.var_bytes(b"").u64(len(epk)).raw(epk)
            want = sigcrypto.prf_to_field(seed, w.getvalue(), q)
            assert derive_coefficient(seed, parent, child, epk, q) == want

    def test_id_longer_than_a_length_byte_rejected(self):
        with pytest.raises(ValueError):
            derive_coefficient(b"s" * 16, b"p" * 256, b"n", b"", 13)

    # q wider than one SHA-256 digest: each attempt joins two digests
    WIDE_Q = 2**521 - 1

    @staticmethod
    def _reference(seed, parent, child, epk, q):
        """The coefficient from the ``wire.Writer`` message and a plain
        rejection loop over ``hmac.digest``: counters 0, 1, ... appended to
        the message, digests of consecutive counters joined while q is
        wider, the masked first bytes kept once they fall in [1, q).
        Also returns whether the first attempt was rejected."""
        w = Writer().raw(b"rlncheck-coeff-v1").var_bytes(parent).var_bytes(child)
        message = w.var_bytes(b"").u64(len(epk)).raw(epk).getvalue()
        nbytes, mask = (q.bit_length() + 7) // 8, (1 << q.bit_length()) - 1
        counter, attempts = 0, 0
        while True:
            digest = b""
            while len(digest) < nbytes:
                digest += hmac.digest(seed, message + counter.to_bytes(4, "big"), "sha256")
                counter += 1
            attempts += 1
            x = int.from_bytes(digest[:nbytes], "big") & mask
            if 0 < x < q:
                return x, attempts > 1

    @pytest.mark.parametrize("q", [TEST.q, SIM.q, PRODUCTION.q, WIDE_Q],
                             ids=["test", "sim", "production", "wide"])
    def test_batch_equals_one_at_a_time(self, q):
        """One batched pass gives each parent's own coefficient, in order,
        at a q that rejects often (11), at the profiles' q and at a q that
        needs two digests per attempt."""
        seed, child, epk = bytes(range(32)), b"n042", bytes(range(200))
        parents = [b"p%d" % i for i in range(60)] + [b"x" * 255, b"p3"]
        got = derive_coefficients(seed, parents, child, epk, q)
        assert got == [derive_coefficient(seed, p, child, epk, q) for p in parents]
        reference = [self._reference(seed, p, child, epk, q) for p in parents]
        assert got == [x for x, _ in reference]
        if q == TEST.q:
            assert sum(rejected for _, rejected in reference) >= 10
        assert derive_coefficients(seed, [], child, epk, q) == []

    @pytest.mark.parametrize("seed, parent, child", [
        (b"s" * 16, b"", b"n"), (b"s" * 16, b"p" * 256, b"n"),
        (b"s" * 16, b"p", b""), (b"s" * 16, b"p", b"n" * 256),
        (b"s" * 15, b"p", b"n"),
    ], ids=["empty_parent", "long_parent", "empty_node", "long_node", "short_seed"])
    def test_batch_rejects_as_one_at_a_time(self, seed, parent, child):
        with pytest.raises(ValueError) as one:
            derive_coefficient(seed, parent, child, b"lite", SIM.q)
        with pytest.raises(ValueError) as batch:
            derive_coefficients(seed, [b"ok", parent], child, b"lite", SIM.q)
        assert str(batch.value) == str(one.value)

    def test_uniform_chi_square(self, tiny_epoch):
        """10^4 distinct parent ids at q=13: all cells within 5 sigma."""
        _, _, params = tiny_epoch
        epk = params.epoch_pk_bytes()
        q, n = 13, 10_000
        counts = {v: 0 for v in range(1, q)}
        for i in range(n):
            counts[derive_coefficient(b"s" * 16, b"p%d" % i, b"n", epk, q)] += 1
        p = 1 / (q - 1)
        sigma = math.sqrt(n * p * (1 - p))
        for v, c in counts.items():
            assert abs(c - n * p) <= 5 * sigma, (v, c)


class TestAttest:
    def test_roundtrip(self, rng):
        ident = sigcrypto.keygen(rng)
        sig = attest_packet(ident.sk, b"packet-bytes")
        assert verify_attest(ident.pk, b"packet-bytes", sig)

    def test_mutation_rejected(self, rng):
        ident = sigcrypto.keygen(rng)
        sig = attest_packet(ident.sk, b"packet-bytes")
        assert not verify_attest(ident.pk, b"packet-bytez", sig)

    def test_other_key_rejected(self, rng):
        ident = sigcrypto.keygen(rng)
        child = sigcrypto.keygen(rng)
        sig = attest_packet(ident.sk, b"packet-bytes")
        assert not verify_attest(child.pk, b"packet-bytes", sig)


# ---------------------------------------------------------------------------
# Two-level network fixture: source -> (p1, p2) -> N -> child


class Net:
    def __init__(self, seed=0xBEEF, protocol=Protocol.PIP):
        self.rng = random.Random(seed)
        self.master = sigcrypto.keygen(self.rng, b"s")
        self.originals = gf.standard_basis_originals([[3, 7], [5, 2]], TEST.q)
        self.params = validity.epoch_setup(self.master, self.originals, 1, self.rng, TEST)
        self.seed = b"\x07" * 32
        self.protocol = protocol
        self.idents = {
            name: sigcrypto.keygen(self.rng, name)
            for name in (b"p1", b"p2", b"n", b"c")
        }
        for ident in self.idents.values():
            ident.cert = sigcrypto.certify(self.master.sk, ident.pk, ident.node_id)

        self.relays = {}
        for name in (b"p1", b"p2"):
            st = self._state(name)
            st.register_parent(b"s", ParentInfo(pk=self.master.pk, required_set=frozenset()))
            self.relays[name] = st

        self.n_state = self._state(b"n")
        for name in (b"p1", b"p2"):
            self.n_state.register_parent(
                name,
                ParentInfo(pk=self.idents[name].pk, cert=self.idents[name].cert,
                           required_set=frozenset({b"s"}),
                           grandparent_pks={b"s": self.master.pk}),
            )

        self.c_state = self._state(b"c")
        self.c_state.register_parent(
            b"n",
            ParentInfo(pk=self.idents[b"n"].pk, cert=self.idents[b"n"].cert,
                       required_set=frozenset({b"p1", b"p2"}),
                       grandparent_pks={name: self.idents[name].pk for name in (b"p1", b"p2")}),
        )

    def _state(self, name):
        st = NodeState(
            identity=self.idents.get(name, self.master),
            seed=self.seed, authority_pk=self.master.pk, master_pk=self.master.pk,
            profile=TEST, protocol=self.protocol,
        )
        st.enter_epoch(self.params)
        return st

    def relay_packets(self, combos=((2, 3), (4, 5))):
        """Source emissions through both relays, addressed to node n."""
        out = []
        for (name, combo) in zip((b"p1", b"p2"), combos):
            st = self.relays[name]
            src = source_packet(self.master, self.originals, self.params, name, combo)
            draft, verdicts = process_round(st, [src])
            assert verdicts[0][1] is None
            assert draft is not None
            out.append(node_mod.finalize_packet(st, draft, b"n"))
        return out

    def deviant_packet(self, kind, target):
        """n's packet to c over both relays' packets, coded and claimed as
        the catalogue's ``kind`` against parent ``target``, as a simulated
        node codes it (``sim.Simulation._strategy``)."""
        st = self.n_state
        process_round(st, self.relay_packets())
        parents = [b"p1", b"p2"]
        honest = node_mod.buffered_inputs(st, list(zip(parents, derive_coefficients(
            self.seed, parents, b"n", self.params.epoch_pk_bytes(), self.params.q))))
        coded, claimed = deviant_entries(kind, honest, target, self.params.q)
        if kind is BehaviorKind.FORGE_TOKEN:
            claimed = sim.forged_claims(claimed, target, self.idents[b"n"].sk)
        E = gf.linear_combine(
            [st.buffers[e.parent_id].E for e in coded], [e.coeff for e in coded], self.params.q
        )
        return node_mod.finalize_packet(st, node_mod.build_draft(st, E, coded, claimed), b"c")

    def n_packet(self, incoming=None):
        incoming = self.relay_packets() if incoming is None else incoming
        draft, verdicts = process_round(self.n_state, incoming)
        assert draft is not None
        return node_mod.finalize_packet(self.n_state, draft, b"c"), verdicts


class TestProcessRound:
    def test_end_to_end_completeness(self):
        net = Net()
        pkt, verdicts = net.n_packet()
        assert all(v is None for _, v in verdicts)
        assert verify_incoming(net.c_state, pkt) is None

    def test_deterministic_outgoing_bytes(self):
        a = Net().n_packet()[0]
        b = Net().n_packet()[0]
        pa = serialize_packet(a, Net().params)
        pb = serialize_packet(b, Net().params)
        assert pa == pb

    def test_polluted_parent_flagged(self):
        net = Net()
        p1_pkt, p2_pkt = net.relay_packets()
        bad_payload = ((p1_pkt.E.payload[0] + 1) % TEST.q,) + p1_pkt.E.payload[1:]
        bad = replace(p1_pkt, E=gf.CodedVector(bad_payload, p1_pkt.E.coding_vector))
        signed = packet_signed_bytes(bad, net.params)
        bad = replace(bad, attest=sigcrypto.sign(net.idents[b"p1"].sk, signed))
        _, verdicts = process_round(net.n_state, [bad, p2_pkt])
        flagged = {sender: v for sender, v in verdicts}
        assert flagged[b"p1"].kind is ViolationKind.POLLUTED_PACKET
        assert flagged[b"p2"] is None

    def test_replayed_epoch_flagged(self):
        net = Net()
        pkt, _ = net.n_packet()
        params2 = validity.epoch_setup(net.master, net.originals, 2, net.rng, TEST)
        net.c_state.enter_epoch(params2)
        v = verify_incoming(net.c_state, pkt)
        assert v is not None and v.kind is ViolationKind.BAD_EPOCH

    @pytest.mark.parametrize("protocol", [Protocol.PIP, Protocol.LOGPIP])
    def test_no_draft_until_every_parent_verified(self, protocol):
        """A node that codes over fewer than all its parents would be found
        guilty by its child, so it builds no draft until each has a
        verified packet; then its draft covers both and the child accepts it."""
        net = Net(protocol=protocol)
        p1_pkt, p2_pkt = net.relay_packets()
        bad = replace(p1_pkt, attest=b"\x00" * 64)
        draft, verdicts = process_round(net.n_state, [bad, p2_pkt])
        assert {s: v.kind for s, v in verdicts if v is not None} == {
            b"p1": ViolationKind.BAD_ATTEST
        }
        assert draft is None

        pkt, verdicts = net.n_packet([p1_pkt])
        assert verdicts == [(b"p1", None)]
        assert sorted(net.n_state.buffers) == [b"p1", b"p2"]
        assert verify_incoming(net.c_state, pkt) is None
        transcript = []
        for target in node_mod.challenge_targets(net.c_state, pkt, 2, random.Random(1)):
            proof, v = node_mod.check_challenge(
                net.c_state, pkt, target, net.n_state.current_tree, net.idents[b"n"].sk
            )
            assert v is None
            transcript.append((target, proof))
        assert len(transcript) == (2 if protocol is Protocol.LOGPIP else 0)
        evidence = build_misbehavior_proof(net.c_state, pkt, transcript)
        out = adjudicate(evidence, net.master.pk, net.master.pk)
        assert out.verdict is Verdict.INNOCENT

    def test_unsigned_epoch_rejected(self):
        net = Net()
        forged = replace(net.params, master_sig=b"\x00" * 64)
        with pytest.raises(ValueError):
            net.c_state.enter_epoch(forged)
        assert net.c_state.params == net.params

    def test_token_covers_every_registered_parent(self):
        net = Net()
        draft, _ = process_round(net.n_state, net.relay_packets())
        assert not draft.degraded
        assert [e.parent_id for e in draft.test_token.entries] == sorted(net.n_state.parents)

    def test_unregistered_sender(self):
        net = Net()
        pkt, _ = net.n_packet()
        stranger = replace(pkt, sender_id=b"zz")
        v = verify_incoming(net.c_state, stranger)
        assert v is not None


class TestChallengeTargets:
    def test_pip_packet_is_not_challenged(self):
        net = Net()
        pkt, _ = net.n_packet()
        rng = random.Random(3)
        assert node_mod.challenge_targets(net.c_state, pkt, 2, rng) == []
        assert rng.random() == random.Random(3).random()

    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_logpip_targets_sampled_from_required_set(self, t):
        net = Net(protocol=Protocol.LOGPIP)
        pkt, _ = net.n_packet()
        targets = node_mod.challenge_targets(net.c_state, pkt, t, random.Random(3))
        assert len(set(targets)) == len(targets) == min(t, 2)
        assert set(targets) <= {b"p1", b"p2"}


def generator_product_calls(monkeypatch, params):
    """A list that grows by one on each (n+m)-base generator product under ``params``."""
    calls = []
    product = validity.power_product

    def counted(bases, exponents, *args):
        if bases is params.generators:
            calls.append(exponents)
        return product(bases, exponents, *args)

    monkeypatch.setattr(validity, "power_product", counted)
    return calls


class TestVerifiedSpan:
    def test_receiver_checks_in_span_packets_without_generator_product(self, monkeypatch):
        net = Net()
        incoming, fresh = net.relay_packets(), net.relay_packets(combos=((6, 1), (3, 8)))
        calls = generator_product_calls(monkeypatch, net.params)
        _, verdicts = process_round(net.n_state, incoming)
        assert all(v is None for _, v in verdicts) and len(calls) == 2
        assert net.n_state.verified.dim == net.params.m
        pkt, verdicts = net.n_packet(fresh)
        assert all(v is None for _, v in verdicts) and len(calls) == 2
        assert verify_incoming(net.c_state, pkt) is None and len(calls) == 3
        # adjudicate keeps no span: it checks the packet in full every time
        for _ in range(2):
            out = adjudicate(build_misbehavior_proof(net.c_state, pkt), net.master.pk, net.master.pk)
            assert out.verdict is Verdict.INNOCENT
        assert len(calls) == 5

    def test_polluted_packet_rejected_in_span(self):
        net = Net()
        process_round(net.n_state, net.relay_packets())
        p1_pkt, _ = net.relay_packets(combos=((6, 1), (3, 8)))
        bad_payload = ((p1_pkt.E.payload[0] + 1) % TEST.q,) + p1_pkt.E.payload[1:]
        bad = replace(p1_pkt, E=gf.CodedVector(bad_payload, p1_pkt.E.coding_vector))
        bad = replace(bad, attest=sigcrypto.sign(net.idents[b"p1"].sk,
                                                 packet_signed_bytes(bad, net.params)))
        span = net.n_state.verified.copy()
        assert span.dim == net.params.m  # every coding vector lies in it
        assert verify_incoming(net.n_state, bad).kind is ViolationKind.POLLUTED_PACKET
        assert net.n_state.verified.basis == span.basis


class TestSharedContentChecks:
    def test_scope_nests_and_resets_after_an_exception(self):
        """Each scope starts empty and restores the enclosing one (or none)."""
        assert node_mod._shared_content.get() is None
        with node_mod.shared_content_checks() as outer:
            assert outer == {} and node_mod._shared_content.get() is outer
            with node_mod.shared_content_checks() as inner:
                assert inner == {} and inner is not outer
                assert node_mod._shared_content.get() is inner
            assert node_mod._shared_content.get() is outer
        assert node_mod._shared_content.get() is None
        with pytest.raises(RuntimeError):
            with node_mod.shared_content_checks():
                raise RuntimeError
        assert node_mod._shared_content.get() is None

    def test_second_receiver_takes_the_verdict_and_grows_its_span(self, monkeypatch):
        """n and its twin m get the same relay drafts, each with its own
        helper and attest.  In a scope the content of each draft is checked
        once; m's span grows as its own check would have grown it, and
        each edge's helper is still checked: a packet addressed to n is
        rejected at m."""
        net = Net()
        m_ident = sigcrypto.keygen(net.rng, b"m")
        twin = NodeState(identity=m_ident, seed=net.seed, authority_pk=net.master.pk,
                         master_pk=net.master.pk, profile=TEST, protocol=net.protocol)
        twin.enter_epoch(net.params)
        twin.parents = dict(net.n_state.parents)
        to_n, to_m = [], []
        for name, combo in zip((b"p1", b"p2"), ((2, 3), (4, 5))):
            st = net.relays[name]
            src = source_packet(net.master, net.originals, net.params, name, combo)
            draft, _ = process_round(st, [src])
            to_n.append(node_mod.finalize_packet(st, draft, b"n"))
            to_m.append(node_mod.finalize_packet(st, draft, b"m"))
        checked = []
        real = validity.verify_validity
        monkeypatch.setattr(validity, "verify_validity", lambda *a: checked.append(a) or real(*a))
        with node_mod.shared_content_checks() as shared:
            assert all(verify_incoming(net.n_state, pkt) is None for pkt in to_n)
            assert all(verify_incoming(twin, pkt) is None for pkt in to_m)
            assert len(shared) == len(checked) == 2
            assert twin.verified.basis == net.n_state.verified.basis and twin.verified.dim == 2
            v = verify_incoming(twin, to_n[0])
            assert v is not None and v.kind is ViolationKind.BAD_HELPER_SIG
        assert len(checked) == 2


    def test_attest_and_sender_key_are_part_of_the_shared_key(self):
        """In a scope, a packet whose attest, or whose sender's registered
        key, differs from one already checked is checked afresh."""
        net = Net()
        pkt, _ = net.n_packet()
        other = sigcrypto.keygen(net.rng, b"n")
        twin = NodeState(identity=net.idents[b"c"], seed=net.seed, authority_pk=net.master.pk,
                         master_pk=net.master.pk, profile=TEST, protocol=net.protocol)
        twin.enter_epoch(net.params)
        twin.register_parent(b"n", replace(net.c_state.parents[b"n"], pk=other.pk))
        with node_mod.shared_content_checks() as shared:
            assert verify_incoming(net.c_state, pkt) is None
            v = verify_incoming(net.c_state, replace(pkt, attest=bytes(64)))
            assert v is not None and v.kind is ViolationKind.BAD_ATTEST
            v = verify_incoming(twin, pkt)
            assert v is not None and v.kind is ViolationKind.BAD_ATTEST
            assert len(shared) == 3


class TestEdgeBinding:
    """The attest covers the signed prefix and is shared by every child of
    an emission; the helper alone binds the packet to its edge."""

    @staticmethod
    def n_draft(net, incoming=None):
        draft, _ = process_round(net.n_state, net.relay_packets() if incoming is None else incoming)
        assert draft is not None
        return draft

    def test_one_attest_per_draft_and_one_helper_per_child(self, ed25519_signs):
        """A node with k children signs k + 1 times per draft, and every
        child gets the same attest."""
        net = Net()
        incoming = net.relay_packets()
        ed25519_signs.clear()
        draft = self.n_draft(net, incoming)
        children = [b"c", b"x", b"y"]
        pkts = [node_mod.finalize_packet(net.n_state, draft, child) for child in children]
        assert len(ed25519_signs) == len(children) + 1
        assert {pkt.attest for pkt in pkts} == {draft.attest}
        assert len({pkt.helper for pkt in pkts}) == len(children)
        assert ed25519_signs[0][1:] == (packet_signed_bytes(draft, net.params), draft.attest)

    def test_wire_layout_is_prefix_helper_attest(self):
        net = Net()
        pkt, _ = net.n_packet()
        raw = serialize_packet(pkt, net.params)
        assert raw == packet_signed_bytes(pkt, net.params) + pkt.helper + pkt.attest
        assert packet_signed_bytes(replace(pkt, helper=bytes(64)), net.params) == raw[:-128]

    def test_helper_made_for_another_receiver_rejected(self):
        net = Net()
        draft = self.n_draft(net)
        pkt = node_mod.finalize_packet(net.n_state, draft, b"c")
        sibling = node_mod.finalize_packet(net.n_state, draft, b"x")
        assert verify_incoming(net.c_state, pkt) is None
        v = verify_incoming(net.c_state, replace(pkt, helper=sibling.helper))
        assert v is not None and v.kind is ViolationKind.BAD_HELPER_SIG

    def test_attest_moved_to_another_packet_rejected(self):
        """n's attest on one emission does not cover another (other E and
        sigma), though that packet carries n's own helper for its sigma."""
        net = Net()
        a = node_mod.finalize_packet(net.n_state, self.n_draft(net), b"c")
        b = node_mod.finalize_packet(
            net.n_state, self.n_draft(net, net.relay_packets(combos=((6, 1), (3, 8)))), b"c"
        )
        assert a.E != b.E and a.sigma != b.sigma
        assert verify_incoming(net.c_state, b) is None
        v = verify_incoming(net.c_state, replace(b, attest=a.attest))
        assert v is not None and v.kind is ViolationKind.BAD_ATTEST

    @pytest.mark.parametrize("protocol", [Protocol.PIP, Protocol.LOGPIP])
    @pytest.mark.parametrize("doctored", ["zeros", "sibling", "other_sender"])
    def test_honest_packet_with_doctored_helper_inadmissible(self, protocol, doctored):
        """Anyone can swap the unattested helper bytes, so a proof of an
        honest packet whose helper fails is never GUILTY."""
        net = Net(protocol=protocol)
        draft = self.n_draft(net)
        pkt = node_mod.finalize_packet(net.n_state, draft, b"c")
        helper = {
            "zeros": bytes(64),
            "sibling": node_mod.finalize_packet(net.n_state, draft, b"x").helper,
            "other_sender": pipcore.make_helper_token(
                net.idents[b"p1"].sk, pkt.sigma, b"n", b"c", net.params
            ),
        }[doctored]
        bad = replace(pkt, helper=helper)
        assert verify_incoming(net.c_state, bad).kind is ViolationKind.BAD_HELPER_SIG
        out = adjudicate(build_misbehavior_proof(net.c_state, bad), net.master.pk, net.master.pk)
        assert out.verdict is Verdict.INADMISSIBLE, out

    @pytest.mark.parametrize("helper", ["zeros", "own"])
    def test_polluted_packet_guilty_whatever_its_helper(self, helper):
        """The content stage runs before the edge helper, so a packet that
        breaks an attested rule is GUILTY with a doctored helper too."""
        net = Net()
        pkt, _ = net.n_packet()
        bad_payload = ((pkt.E.payload[0] + 1) % TEST.q,) + pkt.E.payload[1:]
        bad = replace(pkt, E=gf.CodedVector(bad_payload, pkt.E.coding_vector))
        bad = replace(bad, attest=sigcrypto.sign(net.idents[b"n"].sk,
                                                 packet_signed_bytes(bad, net.params)))
        if helper == "zeros":
            bad = replace(bad, helper=bytes(64))
        assert verify_incoming(net.c_state, bad).kind is ViolationKind.POLLUTED_PACKET
        out = adjudicate(build_misbehavior_proof(net.c_state, bad), net.master.pk, net.master.pk)
        assert out.verdict is Verdict.GUILTY
        assert out.violation.kind is ViolationKind.POLLUTED_PACKET

    def test_forged_token_entry_guilty_whatever_the_edge_helper(self):
        """A token entry's helper is attested content: a forged one is
        GUILTY (BadHelperSig), with the edge helper honest or doctored."""
        net = Net()
        pkt = net.deviant_packet(BehaviorKind.FORGE_TOKEN, b"p1")
        for edge_helper in (pkt.helper, bytes(64)):
            bad = replace(pkt, helper=edge_helper)
            assert verify_incoming(net.c_state, bad).kind is ViolationKind.BAD_HELPER_SIG
            out = adjudicate(build_misbehavior_proof(net.c_state, bad), net.master.pk,
                             net.master.pk)
            assert out.verdict is Verdict.GUILTY
            assert out.violation.kind is ViolationKind.BAD_HELPER_SIG


class TestBuildDraft:
    @pytest.mark.parametrize("protocol", [Protocol.PIP, Protocol.LOGPIP])
    def test_sigma_is_the_combination_of_coded_inputs(self, monkeypatch, protocol):
        """An honest Log-PIP draft takes sigma from its tree's root; any other
        draft reads it off its coding vector, H(c_E), which equals the
        combination of what it coded.  Neither combines received sigmas."""
        net = Net(protocol=protocol)
        st = net.n_state
        draft, _ = process_round(st, net.relay_packets())
        inputs = [ParentInput(pid, st.buffers[pid].sigma, st.buffers[pid].helper,
                              derive_coefficient(net.seed, pid, b"n",
                                                 net.params.epoch_pk_bytes(), net.params.q))
                  for pid in (b"p1", b"p2")]
        expected = validity.combine_validity(
            [i.sigma for i in inputs], [i.coeff for i in inputs], net.params
        )
        assert draft.sigma == expected

        combined, claimed = [], []
        combine, claim = validity.combine_validity, validity.claimed_validity
        monkeypatch.setattr(validity, "combine_validity",
                            lambda *args: combined.append(args) or combine(*args))
        monkeypatch.setattr(validity, "claimed_validity",
                            lambda *args: claimed.append(args) or claim(*args))
        again = node_mod.build_draft(st, draft.E, inputs, list(reversed(inputs)))
        assert again.sigma == expected
        assert len(combined) == 0 and len(claimed) == (protocol is Protocol.PIP)

        forward = [inputs[0]._replace(coeff=1)]
        E = st.buffers[b"p1"].E
        lying = node_mod.build_draft(st, E, forward, inputs)
        assert lying.sigma == st.buffers[b"p1"].sigma
        assert validity.verify_validity(net.params, E, lying.sigma)


class TestPacketCodec:
    def test_roundtrip(self):
        net = Net()
        pkt, _ = net.n_packet()
        raw = serialize_packet(pkt, net.params)
        assert deserialize_packet(raw, net.params) == pkt

    def test_truncation_never_crashes(self):
        net = Net()
        pkt, _ = net.n_packet()
        raw = serialize_packet(pkt, net.params)
        for cut in range(0, len(raw), 7):
            with pytest.raises(DecodeError):
                deserialize_packet(raw[:cut], net.params)

    def test_mutation_fuzz_never_crashes(self):
        net = Net()
        pkt, _ = net.n_packet()
        raw = bytearray(serialize_packet(pkt, net.params))
        fuzz = random.Random(99)
        decoded, rejected = 0, 0
        for _ in range(3000):
            pos = fuzz.randrange(len(raw))
            mutated = bytes(raw[:pos]) + bytes([raw[pos] ^ fuzz.randrange(1, 256)]) + bytes(raw[pos + 1:])
            try:
                deserialize_packet(mutated, net.params)
                decoded += 1
            except DecodeError:
                rejected += 1
        assert decoded + rejected == 3000

    def test_size_audit(self):
        """Byte length decomposes into payload, coding vector, token
        (the closed-form part plus documented framing), and fixed overheads."""
        net = Net()
        pkt, _ = net.n_packet()
        raw = serialize_packet(pkt, net.params)
        params = net.params
        d = len(pkt.test_token.entries)
        token_formula_bits = pipcore.token_size_bits(
            Protocol.PIP, d, 8 * params.p_bytes, 8 * sigcrypto.SIG_BYTES, 8 * 20
        )
        token_framing = 1 + 2 + sum(1 + len(e.parent_id) for e in pkt.test_token.entries) \
            + d * params.q_bytes
        fixed = 4 + params.p_bytes + (8 + 64) + (1 + len(pkt.sender_id)) + 64
        expected = (
            (pkt.E.n + pkt.E.m) * params.q_bytes
            + token_formula_bits // 8  # token body + helper signature
            + token_framing
            + fixed
        )
        assert len(raw) == expected


class TestAdjudication:
    def test_honest_packet_innocent(self):
        net = Net()
        pkt, _ = net.n_packet()
        proof = build_misbehavior_proof(net.c_state, pkt)
        out = adjudicate(proof, net.master.pk, net.master.pk)
        assert out.verdict is Verdict.INNOCENT

    def test_skip_parent_guilty(self):
        net = Net()
        pkt = net.deviant_packet(BehaviorKind.SKIP_PARENT, b"p1")
        v = verify_incoming(net.c_state, pkt)
        assert v is not None and v.kind is ViolationKind.MISSING_ENTRY
        proof = build_misbehavior_proof(net.c_state, pkt)
        out = adjudicate(proof, net.master.pk, net.master.pk)
        assert out.verdict is Verdict.GUILTY
        assert out.violation.kind is ViolationKind.MISSING_ENTRY

    def test_forged_attest_inadmissible(self):
        net = Net()
        pkt, _ = net.n_packet()
        forged = replace(pkt, attest=b"\x11" * 64)
        proof = build_misbehavior_proof(net.c_state, forged)
        out = adjudicate(proof, net.master.pk, net.master.pk)
        assert out.verdict is Verdict.INADMISSIBLE

    @pytest.mark.parametrize("protocol", [Protocol.PIP, Protocol.LOGPIP])
    def test_missing_parent_key_inadmissible(self, protocol):
        """Evidence that drops a required parent's key cannot be checked,
        so it is inadmissible rather than an error."""
        net = Net(protocol=protocol)
        pkt, _ = net.n_packet()
        proof = replace(build_misbehavior_proof(net.c_state, pkt), parent_pks={})
        out = adjudicate(proof, net.master.pk, net.master.pk)
        assert out.verdict is Verdict.INADMISSIBLE
        assert out.reason == "missing parent key"

    @pytest.mark.parametrize("case", ["missing", "forged", "other_authority", "other_node"])
    def test_uncertified_sender_inadmissible(self, case):
        """Evidence is admissible only against a key the authority
        certified for the named sender."""
        net = Net()
        pkt, _ = net.n_packet()
        proof = build_misbehavior_proof(net.c_state, pkt)
        stranger = sigcrypto.keygen(net.rng)
        cert = {
            "missing": None,
            "forged": replace(proof.sender_cert, sig=bytes(64)),
            "other_authority": sigcrypto.certify(stranger.sk, proof.sender_pk, b"n"),
            "other_node": net.idents[b"p1"].cert,
        }[case]
        out = adjudicate(replace(proof, sender_cert=cert), net.master.pk, net.master.pk)
        assert out.verdict is Verdict.INADMISSIBLE
        assert out.reason == "uncertified sender key"

    def test_collusion_cannot_cover_honest_parent(self):
        """A parent colluding with n cannot stand in for the honest p2:
        omitting p2 or faking its entry both stay detectable."""
        net = Net()
        # Variant 1: drop p2 entirely.
        pkt = net.deviant_packet(BehaviorKind.SKIP_PARENT, b"p2")
        assert verify_incoming(net.c_state, pkt).kind is ViolationKind.MISSING_ENTRY
        p1_pkt, p2_pkt = net.n_state.buffers[b"p1"], net.n_state.buffers[b"p2"]
        coeff = lambda pid: derive_coefficient(
            net.seed, pid, b"n", net.params.epoch_pk_bytes(), net.params.q
        )
        entry_p1 = ParentInput(b"p1", p1_pkt.sigma, p1_pkt.helper, coeff(b"p1"))
        # Variant 2: fabricate a p2 entry with a helper signed by colluder p1.
        fake_helper = pipcore.make_helper_token(
            net.idents[b"p1"].sk, p2_pkt.sigma, b"p2", b"n", net.params
        )
        fake_p2 = ParentInput(b"p2", p2_pkt.sigma, fake_helper, coeff(b"p2"))
        sigma2 = validity.combine_validity(
            [entry_p1.sigma, fake_p2.sigma], [entry_p1.coeff, fake_p2.coeff], net.params
        )
        E2 = gf.linear_combine([p1_pkt.E, p2_pkt.E], [entry_p1.coeff, fake_p2.coeff], net.params.q)
        pkt2 = finish_packet(
            net.idents[b"n"], E2, sigma2, pipcore.pip_combine([entry_p1, fake_p2]), net.params, b"c"
        )
        assert verify_incoming(net.c_state, pkt2).kind is ViolationKind.BAD_HELPER_SIG

    def test_logpip_transcript_guilty_and_framing_rejected(self):
        net = Net(protocol=Protocol.LOGPIP)
        pkt = net.deviant_packet(BehaviorKind.ZERO_COEFFICIENT, b"p1")
        tree = net.n_state.current_tree
        assert verify_incoming(net.c_state, pkt) is None  # basics pass; challenge catches it
        results = node_mod.challenge_parent(
            net.c_state, pkt, tree, net.idents[b"n"].sk, t=2, rng=random.Random(5)
        )
        failing = [(pid, pf) for pid, pf, v in results if v is not None]
        assert any(v is not None and v.kind is ViolationKind.ZERO_COEFFICIENT
                   for _, _, v in results)
        proof = build_misbehavior_proof(net.c_state, pkt, failing)
        out = adjudicate(proof, net.master.pk, net.master.pk)
        assert out.verdict is Verdict.GUILTY

        # An unsigned (fabricated) transcript cannot convict.
        pid, pf = failing[0]
        doctored = replace(pf, response_sig=b"\x00" * 64)
        proof2 = build_misbehavior_proof(net.c_state, pkt, [(pid, doctored)])
        out2 = adjudicate(proof2, net.master.pk, net.master.pk)
        assert out2.verdict is Verdict.INADMISSIBLE

    def test_logpip_extra_leaf_flagged_and_guilty(self):
        """n commits to a Log-PIP tree over p1, p2 and a second p1 leaf with
        another coefficient, and sends the combination that tree's root
        signs: every opened leaf is a real, correctly coded entry, so only
        the path's shape can give it away."""
        net = Net(protocol=Protocol.LOGPIP)
        p1_pkt, p2_pkt = net.relay_packets()
        process_round(net.n_state, [p1_pkt, p2_pkt])
        coeff = lambda pid: derive_coefficient(
            net.seed, pid, b"n", net.params.epoch_pk_bytes(), net.params.q
        )
        honest = [ParentInput(b"p1", p1_pkt.sigma, p1_pkt.helper, coeff(b"p1")),
                  ParentInput(b"p2", p2_pkt.sigma, p2_pkt.helper, coeff(b"p2"))]
        leaves = honest + [honest[0]._replace(coeff=honest[0].coeff % net.params.q + 1)]
        token, tree = hand_tree(leaves, net.params)
        E = gf.linear_combine([p1_pkt.E, p2_pkt.E, p1_pkt.E], [e.coeff for e in leaves], net.params.q)
        pkt = finish_packet(net.idents[b"n"], E, tree.root.sigma, token, net.params, b"c")
        assert verify_incoming(net.c_state, pkt) is None
        flagged = []
        for target in sorted(net.c_state.parents[b"n"].required_set):
            proof, v = node_mod.check_challenge(net.c_state, pkt, target, tree, net.idents[b"n"].sk)
            if v is not None:
                flagged.append((target, proof, v))
        assert flagged
        for target, proof, v in flagged:
            assert v.kind is ViolationKind.BAD_MERKLE_PATH
            out = adjudicate(build_misbehavior_proof(net.c_state, pkt, [(target, proof)]),
                             net.master.pk, net.master.pk)
            assert out.verdict is Verdict.GUILTY, target
            assert out.violation.kind is ViolationKind.BAD_MERKLE_PATH

    def test_logpip_empty_root_flagged(self):
        """n miscodes, commits to an empty root, and stores each leaf's
        sibling with the sigma that steers the path to the packet's sigma:
        at its own (empty) width every path would verify, so the receiver
        must hash at its own width."""
        net = Net(protocol=Protocol.LOGPIP)
        p1_pkt, p2_pkt = net.relay_packets()
        process_round(net.n_state, [p1_pkt, p2_pkt])
        coeff = lambda pid: derive_coefficient(
            net.seed, pid, b"n", net.params.epoch_pk_bytes(), net.params.q
        )
        leaves = (ParentInput(b"p1", p1_pkt.sigma, p1_pkt.helper, coeff(b"p1")),
                  ParentInput(b"p2", p2_pkt.sigma, p2_pkt.helper, coeff(b"p2")))
        used = [leaves[0].coeff, (leaves[1].coeff + 1) % net.params.q]
        E = gf.linear_combine([p1_pkt.E, p2_pkt.E], used, net.params.q)
        sigma = validity.combine_validity([e.sigma for e in leaves], used, net.params)
        p = net.params.p
        steer = [pipcore.TreeNode(b"", sigma * pow(pipcore._leaf_node(e, net.params, 0).sigma, -1, p) % p)
                 for e in leaves]
        tree = pipcore.MerkleTreeState(
            inputs=leaves, levels=((steer[1], steer[0]), (pipcore.TreeNode(b"", sigma),)),
            p_bytes=net.params.p_bytes, q_bytes=net.params.q_bytes,
        )
        pkt = finish_packet(net.idents[b"n"], E, sigma, pipcore.LogPipTestToken(b""),
                            net.params, b"c")
        assert verify_incoming(net.c_state, pkt) is None
        for target in (b"p1", b"p2"):
            _, v = node_mod.check_challenge(net.c_state, pkt, target, tree, net.idents[b"n"].sk)
            assert v is not None and v.kind is ViolationKind.BAD_MERKLE_PATH, target

    def test_logpip_transcript_outside_required_set_inadmissible(self):
        """A signed response filed under a parent that has a key in the
        evidence but is not in the sender's required set is not evidence
        about that parent; the adjudicator must not index the required set
        with it."""
        net = Net(protocol=Protocol.LOGPIP)
        pkt, _ = net.n_packet()
        proof, v = node_mod.check_challenge(
            net.c_state, pkt, b"p1", net.n_state.current_tree, net.idents[b"n"].sk
        )
        assert v is None
        evidence = build_misbehavior_proof(net.c_state, pkt, [(b"p1", proof)])
        doctored = replace(
            evidence, transcript=((b"s", evidence.transcript[0][1]),),
            parent_pks={**evidence.parent_pks, b"s": net.master.pk},
        )
        out = adjudicate(doctored, net.master.pk, net.master.pk)
        assert out.verdict is Verdict.INADMISSIBLE
        assert out.reason == "challenge outside required set"

    def test_logpip_sender_needs_checkable_token(self):
        """Under Log-PIP, a relay with an empty PIP token escapes every
        challenge, so the receiver must reject it; a full PIP token is
        checked in full instead of challenged."""
        net = Net(protocol=Protocol.LOGPIP)
        pkt, _ = net.n_packet()
        bare = finish_packet(net.idents[b"n"], pkt.E, pkt.sigma,
                             pipcore.PipTestToken(entries=()), net.params, b"c")
        v = verify_incoming(net.c_state, bare)
        assert v is not None and v.kind is ViolationKind.MISSING_ENTRY
        out = adjudicate(build_misbehavior_proof(net.c_state, bare), net.master.pk, net.master.pk)
        assert out.verdict is Verdict.GUILTY and out.violation.kind is ViolationKind.MISSING_ENTRY

        pip_net = Net()
        full, _ = pip_net.n_packet()
        pip_net.c_state.protocol = Protocol.LOGPIP
        assert verify_incoming(pip_net.c_state, full) is None
        challenges = node_mod.challenge_parent(pip_net.c_state, full, None, None, 2, random.Random(1))
        assert challenges == []

    def test_honest_source_innocent_under_logpip(self):
        """The source codes over nothing; its empty PIP token is not a
        wrong token type, for the receiver and the adjudicator alike."""
        net = Net(protocol=Protocol.LOGPIP)
        relay = net.relays[b"p1"]
        relay.parents[b"s"].cert = sigcrypto.certify(net.master.sk, net.master.pk, b"s")
        src = source_packet(net.master, net.originals, net.params, b"p1", (2, 3))
        assert verify_incoming(relay, src) is None
        out = adjudicate(build_misbehavior_proof(relay, src), net.master.pk, net.master.pk)
        assert out.verdict is Verdict.INNOCENT

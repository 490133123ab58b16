"""Test tokens, the challenge tree, and size formulas."""

import hashlib
import math
import random
from dataclasses import replace

import pytest

from conftest import deviant_entries, hand_tree

from rlncheck import gf, pipcore, sigcrypto, validity
from rlncheck.node import derive_coefficient
from rlncheck.pipcore import ParentInput, Protocol, ViolationKind
from rlncheck.sim import BehaviorKind
from rlncheck.wire import DecodeError, Reader

SEED = b"\x07" * 32


def make_parents(d, params, rng, sender_id=b"nde"):
    """d parents, each contributing a valid packet and helper for sender_id.

    At the tiny test group a random combination's sigma can land on the
    group identity (probability ~1/11); honest traffic with an identity
    sigma is rejected as a zero packet, so the fixture resamples.
    """
    originals = gf.standard_basis_originals([[3, 7], [5, 2]], params.q)
    inputs, pks, expected = [], {}, {}
    for i in range(d):
        pid = f"p{i:02d}".encode()
        ident = sigcrypto.keygen(rng, pid)
        while True:
            E = gf.linear_combine(
                originals, [gf.random_nonzero(params.q, rng) for _ in originals], params.q
            )
            sigma = validity.sign_validity(params, E)
            if sigma != 1:
                break
        helper = pipcore.make_helper_token(ident.sk, sigma, pid, sender_id, params)
        coeff = derive_coefficient(SEED, pid, sender_id, params.epoch_pk_bytes(), params.q)
        inputs.append(ParentInput(pid, sigma, helper, coeff))
        pks[pid] = ident.pk
        expected[pid] = coeff
    return inputs, pks, expected


@pytest.fixture
def pip_setup(tiny_epoch, rng):
    _, _, params = tiny_epoch
    inputs, pks, expected = make_parents(3, params, rng)
    sigma = validity.combine_validity(
        [i.sigma for i in inputs], [i.coeff for i in inputs], params
    )
    return params, inputs, pks, expected, sigma


class TestHelperToken:
    def test_roundtrip(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        ident = sigcrypto.keygen(rng, b"p")
        h = pipcore.make_helper_token(ident.sk, 6, b"p", b"n", params)
        assert pipcore.verify_helper(ident.pk, 6, b"p", b"n", h, params)

    def test_receiver_swap_rejected(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        ident = sigcrypto.keygen(rng, b"p")
        h = pipcore.make_helper_token(ident.sk, 6, b"p", b"n", params)
        assert not pipcore.verify_helper(ident.pk, 6, b"p", b"other", h, params)

    def test_wrong_sender_pk_rejected(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        ident = sigcrypto.keygen(rng, b"p")
        other = sigcrypto.keygen(rng, b"x")
        h = pipcore.make_helper_token(ident.sk, 6, b"p", b"n", params)
        assert not pipcore.verify_helper(other.pk, 6, b"p", b"n", h, params)


class TestCheckHelper:
    def test_honest_ok(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        ident = sigcrypto.keygen(rng, b"n")
        h = pipcore.make_helper_token(ident.sk, 6, b"n", b"c", params)
        assert pipcore.check_helper(False, 6, h, ident.pk, b"n", b"c", params) is None

    def test_zero_packet_flagged(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        ident = sigcrypto.keygen(rng, b"n")
        h = pipcore.make_helper_token(ident.sk, 1, b"n", b"c", params)
        v = pipcore.check_helper(True, 1, h, ident.pk, b"n", b"c", params)
        assert v is not None and v.kind is ViolationKind.HELPER_ON_ZERO

    def test_foreign_helper_flagged(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        ident = sigcrypto.keygen(rng, b"n")
        other = sigcrypto.keygen(rng, b"x")
        h = pipcore.make_helper_token(other.sk, 6, b"n", b"c", params)
        v = pipcore.check_helper(False, 6, h, ident.pk, b"n", b"c", params)
        assert v is not None and v.kind is ViolationKind.BAD_HELPER_SIG


class TestPipToken:
    def test_canonical_order(self, pip_setup):
        params, inputs, _, _, _ = pip_setup
        token = pipcore.pip_combine(list(reversed(inputs)))
        assert [e.parent_id for e in token.entries] == sorted(i.parent_id for i in inputs)

    def test_duplicate_parent_rejected(self, pip_setup):
        params, inputs, _, _, _ = pip_setup
        with pytest.raises(ValueError):
            pipcore.pip_combine([inputs[0], inputs[0]])

    def test_degenerate_single_parent(self, pip_setup):
        _, inputs, _, _, _ = pip_setup
        token = pipcore.pip_combine(inputs[:1])
        assert len(token.entries) == 1

    def test_serialized_size_matches_structure(self, tiny_epoch, rng):
        """Entry bytes = id framing + coefficient + sigma + signature; the
        sigma+signature part is what the d*(|sigma|+|sig|) form counts."""
        _, _, params = tiny_epoch
        for d in (1, 4, 7):
            inputs, _, _ = make_parents(d, params, rng)
            token = pipcore.pip_combine(inputs)
            raw = pipcore.serialize_token(token, params)
            framing = 1 + 2 + sum(1 + len(e.parent_id) for e in token.entries)
            coeff_bytes = d * params.q_bytes
            expected = framing + coeff_bytes + d * (params.p_bytes + sigcrypto.SIG_BYTES)
            assert len(raw) == expected

    def test_paper_size_instantiation(self):
        # d=4 at 1024-bit sigma and 320-bit signatures: the token body is
        # 4*(1024+320) = 5376 bits before coefficient/framing bytes.
        total = pipcore.token_size_bits(Protocol.PIP, 4, 1024, 320, 160)
        assert total - 320 == 5376

    def test_roundtrip(self, pip_setup):
        params, inputs, _, _, _ = pip_setup
        token = pipcore.pip_combine(inputs)
        raw = pipcore.serialize_token(token, params)
        parsed = pipcore.parse_token(Reader(raw), params)
        assert parsed == token


class TestPipVerifTest:
    def test_honest_three_parents(self, pip_setup):
        params, inputs, pks, expected, sigma = pip_setup
        token = pipcore.pip_combine(inputs)
        assert pipcore.pip_verif_test(sigma, token, b"nde", set(pks), pks, expected, params) is None

    @pytest.mark.parametrize("kind, violation", [
        (BehaviorKind.SKIP_PARENT, ViolationKind.MISSING_ENTRY),
        (BehaviorKind.ZERO_COEFFICIENT, ViolationKind.ZERO_COEFFICIENT),
        (BehaviorKind.WRONG_COEFFICIENT, ViolationKind.WRONG_COEFFICIENT),
    ])
    def test_deviation(self, pip_setup, kind, violation):
        """A token that claims what a deviating sender coded (the
        catalogue's ``kind`` against the first parent) is flagged."""
        params, inputs, pks, expected, _ = pip_setup
        coded, claimed = deviant_entries(kind, inputs, inputs[0].parent_id, params.q)
        sigma = validity.combine_validity(
            [i.sigma for i in coded], [i.coeff for i in coded], params
        )
        token = pipcore.pip_combine(claimed)
        v = pipcore.pip_verif_test(sigma, token, b"nde", set(pks), pks, expected, params)
        assert v.kind is violation

    def test_entry_outside_required_set(self, pip_setup):
        """A token must name exactly the required set: an extra entry,
        even a well-formed one, is rejected."""
        params, inputs, pks, expected, sigma = pip_setup
        token = pipcore.pip_combine(inputs)
        required = set(pks) - {inputs[0].parent_id}
        v = pipcore.pip_verif_test(sigma, token, b"nde", required, pks, expected, params)
        assert v.kind is ViolationKind.POLICY_VIOLATION

    def test_combine_mismatch(self, pip_setup):
        """Token claims the right coefficients but the signature was
        computed without the first parent's term."""
        params, inputs, pks, expected, _ = pip_setup
        partial = validity.combine_validity(
            [i.sigma for i in inputs[1:]], [i.coeff for i in inputs[1:]], params
        )
        token = pipcore.pip_combine(inputs)
        v = pipcore.pip_verif_test(partial, token, b"nde", set(pks), pks, expected, params)
        assert v is not None
        assert v.kind is ViolationKind.SIGNATURE_COMBINE_MISMATCH

    def test_forged_helper(self, pip_setup, rng):
        params, inputs, pks, expected, sigma = pip_setup
        forger = sigcrypto.keygen(rng, b"f")
        fake = pipcore.make_helper_token(forger.sk, inputs[0].sigma, inputs[0].parent_id, b"nde", params)
        mutated = [ParentInput(inputs[0].parent_id, inputs[0].sigma, fake, inputs[0].coeff)] + inputs[1:]
        token = pipcore.pip_combine(mutated)
        v = pipcore.pip_verif_test(sigma, token, b"nde", set(pks), pks, expected, params)
        assert v.kind is ViolationKind.BAD_HELPER_SIG


def build_tree(d, tiny_params, rng, h_bytes=20):
    # Retry until the root sigma is not the group identity (tiny-group
    # coincidence that honest senders would themselves avoid emitting).
    while True:
        inputs, pks, expected = make_parents(d, tiny_params, rng)
        token, tree = pipcore.logpip_build(inputs, tiny_params, h_bytes)
        if tree.root.sigma != 1:
            return inputs, pks, expected, token, tree


def make_ctx(params, tree, sender, sigma=None, parents=None, h_bytes=20):
    sigma = tree.root.sigma if sigma is None else sigma
    parents = tuple(inp.parent_id for inp in tree.inputs) if parents is None else parents
    return pipcore.ChallengeContext(
        sender_id=sender.node_id, packet_sigma=sigma, params=params, h_bytes=h_bytes,
        parents=parents,
    )


class TestLogPipTree:
    def test_singleton(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        inputs, _, _, token, tree = build_tree(1, params, rng)
        leaf = pipcore._leaf_bytes(inputs[0], params.p_bytes, params.q_bytes)
        assert token.root == sigcrypto.hash_bytes(b"\x00" + leaf, 20)
        assert tree.root.sigma == pow(inputs[0].sigma, inputs[0].coeff, params.p)

    def test_root_sigma_is_combination(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        for d in (2, 3, 4, 5, 8):
            inputs, _, _, _, tree = build_tree(d, params, rng)
            combined = validity.combine_validity(
                [i.sigma for i in tree.inputs], [i.coeff for i in tree.inputs], params
            )
            assert tree.root.sigma == combined, d

    def test_all_indices_verify_all_counts(self, tiny_epoch, rng):
        """Completeness for d = 1..8 including odd (promoted-node) trees."""
        _, _, params = tiny_epoch
        sender = sigcrypto.keygen(rng, b"nde")
        for d in range(1, 9):
            inputs, pks, expected, token, tree = build_tree(d, params, rng)
            ctx = make_ctx(params, tree, sender)
            for i, inp in enumerate(tree.inputs):
                proof = pipcore.logpip_respond(tree, i)
                v = pipcore.logpip_verify(proof, token, ctx, inp.parent_id,
                                          pks[inp.parent_id], expected[inp.parent_id])
                assert v is None, (d, i, v)

    def test_path_lengths(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        _, _, _, _, tree4 = build_tree(4, params, rng)
        assert len(pipcore.logpip_respond(tree4, 0).path) == 2
        _, _, _, _, tree1 = build_tree(1, params, rng)
        assert len(pipcore.logpip_respond(tree1, 0).path) == 0

    def test_respond_out_of_range(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        _, _, _, _, tree = build_tree(3, params, rng)
        with pytest.raises(IndexError):
            pipcore.logpip_respond(tree, 3)

    def test_proof_serialization_roundtrip(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        sender = sigcrypto.keygen(rng, b"nde")
        for d in (1, 3, 4, 7):
            _, _, _, _, tree = build_tree(d, params, rng)
            for i in range(d):
                proof = pipcore.logpip_respond(tree, i, sender.sk)
                raw = pipcore.serialize_proof(proof, params)
                assert pipcore.parse_proof(raw, params) == proof

    # SHA-256 prefixes of every response's serialize_proof and
    # response_signed_bytes at d parents, recorded when a response lost
    # its index and side bytes and its promoted levels.
    PINNED_PROOF_BYTES = {
        1: "abc69239801c96ac",
        2: "1edaf295c378ad60",
        3: "1274f5b5edc50d4a",
        5: "37af9cf45b38109b",
        10: "65a36418e8ceff70",
    }

    @pytest.mark.parametrize("d", sorted(PINNED_PROOF_BYTES))
    def test_proof_bytes_pinned(self, tiny_epoch, d):
        _, _, params = tiny_epoch
        rng = random.Random(d)
        sender = sigcrypto.keygen(rng, b"nde")
        _, _, _, token, tree = build_tree(d, params, rng)
        digest = hashlib.sha256()
        for i in range(d):
            proof = pipcore.logpip_respond(tree, i, sender.sk)
            digest.update(pipcore.serialize_proof(proof, params))
            digest.update(pipcore.response_signed_bytes(
                proof, token.root, params.p_bytes, params.q_bytes))
        assert digest.hexdigest()[:16] == self.PINNED_PROOF_BYTES[d]

    def test_zeroed_parent_detected_when_challenged(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        sender = sigcrypto.keygen(rng, b"nde")
        inputs, pks, expected = make_parents(4, params, rng)
        _, cheat = deviant_entries(BehaviorKind.ZERO_COEFFICIENT, inputs, inputs[0].parent_id, params.q)
        token, tree = pipcore.logpip_build(cheat, params, 20)
        ctx = make_ctx(params, tree, sender)
        idx = next(i for i, inp in enumerate(tree.inputs) if inp.coeff == 0)
        proof = pipcore.logpip_respond(tree, idx)
        v = pipcore.logpip_verify(proof, token, ctx, tree.inputs[idx].parent_id,
                                  pks[tree.inputs[idx].parent_id],
                                  expected[tree.inputs[idx].parent_id])
        assert v.kind is ViolationKind.ZERO_COEFFICIENT

    def test_tamper_matrix_d4(self, tiny_epoch, rng):
        """Tamper every stored tree value; every challenge whose response
        differs from the honest one must yield a Violation."""
        _, _, params = tiny_epoch
        sender = sigcrypto.keygen(rng, b"nde")
        inputs, pks, expected, token, tree = build_tree(4, params, rng)
        ctx = make_ctx(params, tree, sender)
        honest = {
            i: pipcore.serialize_proof(pipcore.logpip_respond(tree, i), params)
            for i in range(4)
        }

        def variants():
            for lvl_i, level in enumerate(tree.levels):
                for node_i, node in enumerate(level):
                    for field_name, mutate in (
                        ("digest", lambda n: pipcore.TreeNode(
                            bytes([n.digest[0] ^ 1]) + n.digest[1:], n.sigma)),
                        ("sigma", lambda n: pipcore.TreeNode(
                            n.digest, (n.sigma % (params.p - 1)) + 1
                            if (n.sigma % (params.p - 1)) + 1 != n.sigma else n.sigma + 1)),
                    ):
                        levels = [list(lv) for lv in tree.levels]
                        levels[lvl_i][node_i] = mutate(node)
                        yield field_name, lvl_i, node_i, replace(
                            tree, levels=tuple(tuple(lv) for lv in levels)
                        )

        tampered_any = 0
        for field_name, lvl_i, node_i, bad_tree in variants():
            for i in range(4):
                proof = pipcore.logpip_respond(bad_tree, i)
                raw = pipcore.serialize_proof(proof, params)
                v = pipcore.logpip_verify(
                    proof, token, ctx, tree.inputs[i].parent_id,
                    pks[tree.inputs[i].parent_id], expected[tree.inputs[i].parent_id],
                )
                if raw != honest[i]:
                    tampered_any += 1
                    assert v is not None, (field_name, lvl_i, node_i, i)
                else:
                    assert v is None
        assert tampered_any > 0

    def test_binding_fuzz(self, tiny_epoch, rng):
        """Random single-byte mutations of a serialized proof never verify.

        Mutations target the semantically meaningful region (leaf and
        path); the trailing transport signature is checked separately
        at adjudication time.
        """
        _, _, params = tiny_epoch
        sender = sigcrypto.keygen(rng, b"nde")
        inputs, pks, expected, token, tree = build_tree(4, params, rng)
        ctx = make_ctx(params, tree, sender)
        proof = pipcore.logpip_respond(tree, 2, sender.sk)
        raw = bytearray(pipcore.serialize_proof(proof, params))
        pid = tree.inputs[2].parent_id
        pk = pks[pid]
        exp = expected[pid]
        lo, hi = 0, len(raw) - sigcrypto.SIG_BYTES
        mutations = random.Random(77)
        accepted = 0
        trials = 100_000
        for _ in range(trials):
            pos = mutations.randrange(lo, hi)
            delta = mutations.randrange(1, 256)
            mutated = bytes(raw[:pos]) + bytes([raw[pos] ^ delta]) + bytes(raw[pos + 1:])
            try:
                candidate = pipcore.parse_proof(mutated, params)
            except DecodeError:
                continue
            v = pipcore.logpip_verify(candidate, token, ctx, pid, pk, exp)
            if v is None:
                accepted += 1
        assert accepted == 0

    def rejected_indices(self, params, rng, d, leaves_of):
        """Challenge every one of the d required parents on the tree
        ``leaves_of(honest inputs)`` commits to, opening it the way
        node.check_challenge does (the parent's first leaf, else leaf 0),
        with the packet sigma set to the tree's root sigma."""
        sender = sigcrypto.keygen(rng, b"nde")
        inputs, pks, expected = make_parents(d, params, rng)
        token, tree = hand_tree(leaves_of(sorted(inputs)), params)
        ctx = make_ctx(params, tree, sender, parents=tuple(sorted(pks)))
        ids = [inp.parent_id for inp in tree.inputs]
        rejected = []
        for pid in ctx.parents:
            proof = pipcore.logpip_respond(tree, ids.index(pid) if pid in ids else 0)
            v = pipcore.logpip_verify(proof, token, ctx, pid, pks[pid], expected[pid])
            if v is not None:
                rejected.append((pid, v.kind))
        return rejected

    @pytest.mark.parametrize("d", range(2, 9))
    def test_extra_leaf_tree_rejected(self, tiny_epoch, rng, d):
        """d + 1 leaves, the honest ones and a second leaf for the first
        parent with another coefficient: the root sigma steers to a
        combination that is not the prescribed one, and every other check
        of an opened leaf passes, so the path's shape must give it away."""
        _, _, params = tiny_epoch

        def extra_leaf(honest):
            return honest + [honest[0]._replace(coeff=12_345 % params.q)]

        rejected = self.rejected_indices(params, rng, d, extra_leaf)
        assert len(rejected) >= 1, d
        assert all(kind is ViolationKind.BAD_MERKLE_PATH for _, kind in rejected)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_skip_tree_rejected(self, tiny_epoch, rng, d):
        """d - 1 leaves, the first parent left out."""
        _, _, params = tiny_epoch
        rejected = self.rejected_indices(params, rng, d, lambda honest: honest[1:])
        assert len(rejected) >= 1, d

    def test_sibling_count_must_match_shape(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        sender = sigcrypto.keygen(rng, b"nde")
        _, pks, expected, token, tree = build_tree(5, params, rng)
        ctx = make_ctx(params, tree, sender)
        for i in range(5):
            pid = tree.inputs[i].parent_id
            proof = pipcore.logpip_respond(tree, i)
            spare = pipcore.TreeNode(bytes(20), 2)
            for path in (proof.path + (spare,), proof.path[:-1]):
                v = pipcore.logpip_verify(replace(proof, path=path), token, ctx,
                                          pid, pks[pid], expected[pid])
                assert v.kind is ViolationKind.BAD_MERKLE_PATH, (i, len(path))

    def test_sibling_sigma_out_of_range(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        sender = sigcrypto.keygen(rng, b"nde")
        _, pks, expected, token, tree = build_tree(4, params, rng)
        ctx = make_ctx(params, tree, sender)
        pid = tree.inputs[1].parent_id
        proof = pipcore.logpip_respond(tree, 1)
        for bad in (0, params.p, params.p + proof.path[0].sigma):
            path = (replace(proof.path[0], sigma=bad),) + proof.path[1:]
            v = pipcore.logpip_verify(replace(proof, path=path), token, ctx,
                                      pid, pks[pid], expected[pid])
            assert v.kind is ViolationKind.BAD_MERKLE_PATH, bad
            assert v.detail == "malformed level"

    @pytest.mark.parametrize("width", [0, 1])
    def test_root_of_another_width_rejected(self, tiny_epoch, rng, width):
        """A sender that commits to a root narrower than the verifier's
        digest can open any path for any packet sigma: it steers one
        sibling's sigma to that sigma and finds the root at its own width
        (an empty root hashes nothing, a 1-byte one takes at most 256
        tries).  At the verifier's width no such path verifies."""
        _, _, params = tiny_epoch
        sender = sigcrypto.keygen(rng, b"nde")
        _, pks, expected, _, tree = build_tree(3, params, rng)
        sigma = tree.root.sigma % (params.p - 1) + 1  # not the root's sigma
        roots = [bytes([b]) for b in range(256)] if width else [b""]
        for i, inp in enumerate(tree.inputs):
            pid = inp.parent_id
            proof = pipcore.logpip_respond(tree, i)
            rest = pipcore._leaf_node(inp, params, width).sigma
            for sib in proof.path[1:]:
                rest = rest * sib.sigma % params.p
            steered = pipcore.TreeNode(b"\x00" * width, sigma * pow(rest, -1, params.p) % params.p)
            forged = replace(proof, path=(steered,) + tuple(
                pipcore.TreeNode(sib.digest[:width], sib.sigma) for sib in proof.path[1:]))
            at_own = make_ctx(params, tree, sender, sigma=sigma, h_bytes=width)
            root = next(r for r in roots if pipcore.logpip_verify(
                forged, pipcore.LogPipTestToken(r), at_own, pid, pks[pid], expected[pid]) is None)
            v = pipcore.logpip_verify(forged, pipcore.LogPipTestToken(root),
                                      make_ctx(params, tree, sender, sigma=sigma),
                                      pid, pks[pid], expected[pid])
            assert v.kind is ViolationKind.BAD_MERKLE_PATH, (width, i)

    def test_truncated_sibling_list_does_not_parse(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        sender = sigcrypto.keygen(rng, b"nde")
        _, _, _, _, tree = build_tree(4, params, rng)
        proof = pipcore.logpip_respond(tree, 0, sender.sk)
        raw = pipcore.serialize_proof(proof, params)
        sibling = 20 + params.p_bytes
        body = raw[:-sigcrypto.SIG_BYTES]
        for cut in (sibling, 1):  # one sibling missing, one byte of one missing
            with pytest.raises(DecodeError):
                pipcore.parse_proof(body[:-cut] + raw[-sigcrypto.SIG_BYTES:], params)


class TestTokenSizeBits:
    PAPER_TABLE = (1, 2, 3, 5, 7, 10, 15, 50)

    def test_pip_closed_form(self):
        for d in self.PAPER_TABLE:
            for sigma in (160, 1024):
                got = pipcore.token_size_bits(Protocol.PIP, d, sigma, 320, 160)
                assert got == d * (sigma + 320) + 320
        assert pipcore.token_size_bits(Protocol.PIP, 10, 160, 320, 160) == 5120

    def test_logpip_closed_form(self):
        for d in self.PAPER_TABLE:
            for sigma in (160, 1024):
                got = pipcore.token_size_bits(Protocol.LOGPIP, d, sigma, 320, 160)
                assert got == 160 + sigma + 320 + 2 * sigma * math.ceil(math.log2(d))
        assert pipcore.token_size_bits(Protocol.LOGPIP, 8, 160, 320, 160) == 1600
        assert pipcore.token_size_bits(Protocol.LOGPIP, 1, 160, 320, 160) == 640

    def test_d_must_be_positive(self):
        with pytest.raises(ValueError):
            pipcore.token_size_bits(Protocol.PIP, 0, 160, 320, 160)

    def test_logpip_token_is_just_root(self, tiny_epoch, rng):
        _, _, params = tiny_epoch
        _, _, _, token, _ = build_tree(5, params, rng)
        raw = pipcore.serialize_token(token, params)
        assert len(raw) == 1 + 20


class TestRepeatedRoundBound:
    """Detection after r cheating rounds approaches 1 - (1 - t/d)^r."""

    @pytest.mark.parametrize("d,t,r", [(10, 1, 5), (4, 1, 3)])
    def test_bound(self, tiny_epoch, rng, d, t, r):
        _, _, params = tiny_epoch
        sender = sigcrypto.keygen(rng, b"nde")
        inputs, pks, expected = make_parents(d, params, rng)
        _, cheat = deviant_entries(BehaviorKind.ZERO_COEFFICIENT, inputs, inputs[0].parent_id, params.q)
        token, tree = pipcore.logpip_build(cheat, params, 20)
        ctx = make_ctx(params, tree, sender)
        ids = [inp.parent_id for inp in tree.inputs]
        zero_idx = next(i for i, inp in enumerate(tree.inputs) if inp.coeff == 0)

        trials = 10_000
        picks = random.Random(1234)
        detected = 0
        for _ in range(trials):
            hit = False
            for _round in range(r):
                for idx in picks.sample(range(d), t):
                    if idx == zero_idx:
                        hit = True
            if hit:
                detected += 1
        p = 1 - (1 - t / d) ** r
        phat = detected / trials
        sigma3 = 3 * math.sqrt(p * (1 - p) / trials)
        assert abs(phat - p) <= sigma3

        # The challenge actually fails verification when it hits.
        proof = pipcore.logpip_respond(tree, zero_idx)
        v = pipcore.logpip_verify(proof, token, ctx, ids[zero_idx], pks[ids[zero_idx]],
                                  expected[ids[zero_idx]])
        assert v is not None and v.kind is ViolationKind.ZERO_COEFFICIENT

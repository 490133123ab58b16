import random
from dataclasses import replace

import pytest

from rlncheck import gf, node as node_mod, pipcore, sigcrypto, sim, validity
from rlncheck.node import EpochRef, Packet
from rlncheck.pipcore import ViolationKind
from rlncheck.profiles import TEST
from rlncheck.sim import BehaviorKind

# The verdicts each deviating behavior draws from an honest child, in a
# network run and at a single node alike.
NETWORK_STRATEGIES = {
    BehaviorKind.SKIP_PARENT: {ViolationKind.MISSING_ENTRY},
    BehaviorKind.ZERO_COEFFICIENT: {ViolationKind.ZERO_COEFFICIENT},
    BehaviorKind.WRONG_COEFFICIENT: {ViolationKind.WRONG_COEFFICIENT},
    BehaviorKind.FORGE_TOKEN: {ViolationKind.BAD_HELPER_SIG},
    BehaviorKind.FORWARD_ONLY: {ViolationKind.SIGNATURE_COMBINE_MISMATCH},
    BehaviorKind.NON_INNOVATIVE: {ViolationKind.WRONG_COEFFICIENT},
}


@pytest.fixture
def rng():
    return random.Random(0xC0DE)


@pytest.fixture
def ed25519_verifies(monkeypatch):
    """Every ((pk, message, sig), passed) that reached a full Ed25519
    check, in call order: the calls into ``sigcrypto._ed25519_verify``,
    which both routes take."""
    calls = []
    real = sigcrypto._ed25519_verify

    def counting(pk, message, sig):
        ok = real(pk, message, sig)
        calls.append(((pk, message, sig), ok))
        return ok

    monkeypatch.setattr(sigcrypto, "_ed25519_verify", counting)
    return calls


@pytest.fixture
def ed25519_signs(monkeypatch):
    """Every (sk, message, sig) that ``sigcrypto.sign`` made, in call order."""
    calls = []
    real = sigcrypto.sign

    def counting(sk, message):
        sig = real(sk, message)
        calls.append((sk, message, sig))
        return sig

    monkeypatch.setattr(sigcrypto, "sign", counting)
    return calls


@pytest.fixture(params=["libsodium", "cryptography"])
def ed25519_route(request, monkeypatch):
    """Runs a test once on each ``sigcrypto`` route: libsodium as loaded,
    and ``cryptography`` with libsodium's sign and verify switched off."""
    if request.param == "libsodium":
        if sigcrypto._kernel is None:
            pytest.skip("libsodium is not loaded")
    else:
        monkeypatch.setattr(sigcrypto, "_kernel", None)
        monkeypatch.setattr(sigcrypto, "_signer", None)
    return request.param


@pytest.fixture
def tiny_epoch(rng):
    """p=23/q=11 epoch over two 2-chunk originals, plus its master identity."""
    master = sigcrypto.keygen(rng, b"src")
    originals = gf.standard_basis_originals([[3, 7], [5, 2]], TEST.q)
    params = validity.epoch_setup(master, originals, 1, rng, TEST)
    return master, originals, params


def finish_packet(sender, E, sigma, token, params, receiver_id):
    """Attach the per-receiver helper token and the attest signature over
    the signed prefix."""
    helper = pipcore.make_helper_token(sender.sk, sigma, sender.node_id, receiver_id, params)
    pkt = Packet(
        E=E, sigma=sigma, test_token=token, helper=helper,
        epoch_ref=EpochRef(k=params.k, master_sig=params.master_sig),
        sender_id=sender.node_id, attest=b"",
    )
    signed = node_mod.packet_signed_bytes(pkt, params)
    return replace(pkt, attest=sigcrypto.sign(sender.sk, signed))


def deviant_entries(kind, entries, target, q):
    """(coded, claimed) token entries of a sender that deviates from the
    honest ``entries`` as the catalogue's ``kind`` does against the parent
    id ``target`` (``sim.deviation``).  Every caller has a parent left to
    code with, so there is always a packet."""
    plan = sim.deviation(kind, [(e.parent_id, e.coeff) for e in entries], target, q)
    by_id = {e.parent_id: e for e in entries}
    return tuple([by_id[p]._replace(coeff=a) for p, a in pairs] for pairs in plan)


def source_packet(master, originals, params, receiver_id, combo):
    """A source emission: fresh combination, empty test token."""
    E = gf.linear_combine(originals, combo, params.q)
    sigma = validity.sign_validity(params, E)
    return finish_packet(master, E, sigma, pipcore.PipTestToken(entries=()), params, receiver_id)


def hand_tree(leaves, params, h_bytes=20):
    """The tree ``pipcore.logpip_build`` would make over ``leaves`` in the
    given order, duplicates allowed: what a cheating sender can build
    itself.  Returns (token, retained tree)."""
    return pipcore._tree(tuple(leaves), params, h_bytes)

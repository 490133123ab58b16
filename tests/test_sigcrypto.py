"""Identities, signatures, certificates, and the PRF."""

import ctypes
import hashlib
import hmac
import importlib
import random
import types
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from rlncheck import sigcrypto

needs_kernel = pytest.mark.skipif(sigcrypto._kernel is None, reason="libsodium is not loaded")

# Edwards25519 (RFC 8032): field prime, group order, curve constant.
P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = -121665 * pow(121666, -1, P) % P

# The identity point as a pk, its non-canonical twin (y = p + 1), and a
# signature R = identity, s = 0, which OpenSSL accepts under either pk
# for every message.
IDENTITY_PK = (1).to_bytes(32, "little")
NON_CANONICAL_PK = (P + 1).to_bytes(32, "little")
WEAK_SIG = IDENTITY_PK + bytes(32)


def point_add(a, b):
    """Sum of two points in extended coordinates (x, y, z, t)."""
    x1, y1, z1, t1 = a
    x2, y2, z2, t2 = b
    minus, plus = (y1 - x1) * (y2 - x2), (y1 + x1) * (y2 + x2)
    c, d = 2 * D * t1 * t2, 2 * z1 * z2
    e, f, g, h = plus - minus, d - c, d + c, plus + minus
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def point_mul(k, pt):
    out = (0, 1, 1, 0)
    while k:
        if k & 1:
            out = point_add(out, pt)
        pt, k = point_add(pt, pt), k >> 1
    return out


def encode(pt):
    x, y, z, _ = pt
    zi = pow(z, -1, P)
    x, y = x * zi % P, y * zi % P
    return (y | (x & 1) << 255).to_bytes(32, "little")


def decode(data):
    """The point a canonical encoding names."""
    y = int.from_bytes(data, "little") & ((1 << 255) - 1)
    x2 = (y * y - 1) * pow(D * y * y + 1, -1, P) % P
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P:
        x = x * pow(2, (P - 1) // 4, P) % P
    assert (x * x - x2) % P == 0, "not on the curve"
    if x & 1 != data[31] >> 7:
        x = P - x
    return (x, y, 1, x * y % P)


BASE = decode((4 * pow(5, -1, P) % P).to_bytes(32, "little"))
ORDER_8 = decode(sigcrypto._Y8.to_bytes(32, "little"))


def small_order_r_triple():
    """(pk, message, sig) with R the identity, a point of order 1, that
    OpenSSL accepts: pk = aB + T for T of order 8, s = ha mod L, and a
    message whose h = H(R || pk || M) mod L is a multiple of 8, so that
    sB - h pk = -hT is the identity."""
    a = 0x5EED
    pk = encode(point_add(point_mul(a, BASE), ORDER_8))
    for i in range(200):
        message = b"small order R %d" % i
        h = int.from_bytes(hashlib.sha512(IDENTITY_PK + pk + message).digest(), "little") % L
        if h % 8 == 0:
            return pk, message, IDENTITY_PK + (h * a % L).to_bytes(32, "little")
    raise AssertionError("no message found")


def verdicts(pk, message, sig):
    """``verify``'s verdict on the loaded kernel, then on ``cryptography``."""
    kernel = sigcrypto.verify(pk, message, sig)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sigcrypto, "_kernel", None)
        return kernel, sigcrypto.verify(pk, message, sig)


class TestKeygenSignVerify:
    def test_distinct_keys(self, rng):
        a = sigcrypto.keygen(rng, b"a")
        b = sigcrypto.keygen(rng, b"b")
        assert a.pk != b.pk

    def test_sign_verify_roundtrip(self, rng):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        assert sigcrypto.verify(ident.pk, b"abc", sig)

    def test_key_separation(self, rng):
        a = sigcrypto.keygen(rng)
        b = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(a.sk, b"abc")
        assert not sigcrypto.verify(b.pk, b"abc", sig)

    def test_bit_flip_rejected(self, rng):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        flipped = bytes([b"abc"[0] ^ 1]) + b"bc"
        assert not sigcrypto.verify(ident.pk, flipped, sig)

    def test_empty_message(self, rng):
        ident = sigcrypto.keygen(rng)
        assert sigcrypto.verify(ident.pk, b"", sigcrypto.sign(ident.sk, b""))

    def test_sign_reuses_key_object(self, rng):
        """The loaded route's key cache serves every signature after
        keygen, and holds more keys than a simulation makes identities."""
        cache = sigcrypto._signing_key if sigcrypto._signer is None else sigcrypto._expanded_key
        ident = sigcrypto.keygen(rng)
        fresh = Ed25519PrivateKey.from_private_bytes(ident.sk)
        hits = cache.cache_info().hits
        for message in (b"abc", b"abd"):
            assert sigcrypto.sign(ident.sk, message) == fresh.sign(message)
        assert cache.cache_info().hits == hits + 2
        assert 512 <= cache.cache_info().maxsize < float("inf")

    def test_short_secret_key_rejected(self, ed25519_route):
        for sk in (b"", bytes(31), bytes(33)):
            with pytest.raises(ValueError):
                sigcrypto.sign(sk, b"abc")

    def test_verify_reuses_key_object(self, rng, monkeypatch):
        """On the ``cryptography`` route a public key is parsed once, on
        its first verification; one of the wrong length, or with a
        non-canonical y, is rejected every time and never parsed or kept."""
        ident = sigcrypto.keygen(rng)
        sigs = [sigcrypto.sign(ident.sk, m) for m in (b"abc", b"abd")]
        parsed = []
        real = sigcrypto.Ed25519PublicKey.from_public_bytes

        class Parsing:
            @staticmethod
            def from_public_bytes(pk):
                parsed.append(pk)
                return real(pk)

        sigcrypto._verifying_key.cache_clear()
        monkeypatch.setattr(sigcrypto, "_kernel", None)
        monkeypatch.setattr(sigcrypto, "Ed25519PublicKey", Parsing)
        try:
            assert sigcrypto.verify(ident.pk, b"abc", sigs[0])
            assert sigcrypto.verify(ident.pk, b"abd", sigs[1])
            assert not sigcrypto.verify(ident.pk, b"abc", sigs[1])
            assert parsed == [ident.pk]
            size = sigcrypto._verifying_key.cache_info().currsize
            for _ in range(2):
                assert not sigcrypto.verify(b"short", b"abc", sigs[0])
                assert not sigcrypto.verify(NON_CANONICAL_PK, b"abc", WEAK_SIG)
            assert parsed == [ident.pk]
            assert sigcrypto._verifying_key.cache_info().currsize == size
            assert sigcrypto._verifying_key.cache_info().maxsize is not None
        finally:
            sigcrypto._verifying_key.cache_clear()

    def test_malformed_signature(self, rng):
        ident = sigcrypto.keygen(rng)
        assert not sigcrypto.verify(ident.pk, b"abc", b"junk")

    def test_deterministic_from_rng(self):
        a = sigcrypto.keygen(random.Random(42))
        b = sigcrypto.keygen(random.Random(42))
        assert a.pk == b.pk


@pytest.mark.usefixtures("ed25519_route")
class TestSharedVerifications:
    """Inside a ``shared_verifications()`` scope a triple that passed is
    answered without a full check; everything else is checked in full."""

    def test_passing_triple_is_remembered(self, rng, ed25519_verifies):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        with sigcrypto.shared_verifications():
            assert all(sigcrypto.verify(ident.pk, b"abc", sig) for _ in range(3))
        assert ed25519_verifies == [((ident.pk, b"abc", sig), True)]

    def test_altered_triples_are_checked_and_rejected(self, rng, ed25519_verifies):
        a, b = sigcrypto.keygen(rng), sigcrypto.keygen(rng)
        sig = sigcrypto.sign(a.sk, b"abc")
        other = sigcrypto.sign(a.sk, b"abd")
        forged = bytes([sig[0] ^ 1]) + sig[1:]
        altered = [
            (a.pk, b"abc", other),  # another valid signature, of another message
            (a.pk, b"abc", forged),
            (a.pk, b"abd", sig),  # changed message
            (b.pk, b"abc", sig),  # another key
        ]
        with sigcrypto.shared_verifications():
            assert sigcrypto.verify(a.pk, b"abc", sig)
            for _ in range(2):
                for triple in altered:
                    assert not sigcrypto.verify(*triple), triple
        assert ed25519_verifies == [((a.pk, b"abc", sig), True)] + [(t, False) for t in altered] * 2

    def test_failing_triple_is_never_stored(self, rng, ed25519_verifies):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        with sigcrypto.shared_verifications():
            for _ in range(2):
                assert not sigcrypto.verify(ident.pk, b"abd", sig)
                assert not sigcrypto.verify(ident.pk, b"abc", b"junk")
                assert not sigcrypto.verify(b"short", b"abc", sig)
            assert sigcrypto._verified.get() == set()
        # The junk sig and the short pk fail the length guard, before any check.
        assert ed25519_verifies == [((ident.pk, b"abd", sig), False)] * 2

    def test_nothing_is_remembered_outside_a_scope(self, rng, ed25519_verifies):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        assert all(sigcrypto.verify(ident.pk, b"abc", sig) for _ in range(2))
        with sigcrypto.shared_verifications():
            assert sigcrypto.verify(ident.pk, b"abc", sig)
        assert sigcrypto.verify(ident.pk, b"abc", sig)
        assert len(ed25519_verifies) == 4

    def test_scope_resets_after_an_exception(self, rng, ed25519_verifies):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        with pytest.raises(RuntimeError):
            with sigcrypto.shared_verifications():
                assert sigcrypto.verify(ident.pk, b"abc", sig)
                raise RuntimeError
        assert sigcrypto._verified.get() is None
        assert sigcrypto.verify(ident.pk, b"abc", sig)
        assert len(ed25519_verifies) == 2

    def test_nested_scope_starts_empty_and_restores_the_outer(self, rng, ed25519_verifies):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        with sigcrypto.shared_verifications():
            assert sigcrypto.verify(ident.pk, b"abc", sig)
            with sigcrypto.shared_verifications():
                assert sigcrypto.verify(ident.pk, b"abc", sig)
            assert len(ed25519_verifies) == 2
            assert sigcrypto.verify(ident.pk, b"abc", sig)
            assert len(ed25519_verifies) == 2
        assert sigcrypto._verified.get() is None

    def test_buffer_messages(self, rng, ed25519_verifies):
        """A bytearray or memoryview message gets the verdict of its
        bytes, and is remembered as those bytes."""
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        with sigcrypto.shared_verifications():
            assert sigcrypto.verify(ident.pk, bytearray(b"abc"), sig)
            assert sigcrypto.verify(ident.pk, memoryview(bytearray(b"abc")), sig)
            assert sigcrypto.verify(ident.pk, b"abc", memoryview(sig))
            assert not sigcrypto.verify(ident.pk, bytearray(b"abd"), sig)
            assert not sigcrypto.verify(ident.pk, memoryview(b"abd"), sig)
        assert ed25519_verifies == [
            ((ident.pk, b"abc", sig), True),
            ((ident.pk, b"abd", sig), False),
            ((ident.pk, b"abd", sig), False),
        ]


class TestRoutes:
    """libsodium's kernel and the ``cryptography`` route accept the same
    triples, and a malformed one reaches neither."""

    @needs_kernel
    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        message=st.binary(max_size=300),
        part=st.sampled_from([None, "pk", "message", "sig"]),
        bit=st.integers(min_value=0, max_value=8 * 300),
    )
    @settings(max_examples=300, deadline=None)
    def test_routes_agree_on_honest_and_flipped_triples(self, seed, message, part, bit):
        ident = sigcrypto.keygen(random.Random(seed))
        triple = {"pk": ident.pk, "message": message, "sig": sigcrypto.sign(ident.sk, message)}
        if part is not None and triple[part]:
            data = bytearray(triple[part])
            data[bit // 8 % len(data)] ^= 1 << bit % 8
            triple[part] = bytes(data)
        kernel, fallback = verdicts(triple["pk"], triple["message"], triple["sig"])
        assert kernel == fallback
        assert kernel == (part is None or not triple[part])

    @needs_kernel
    @pytest.mark.parametrize("size", [0, 1, 64, 255, 4096])
    def test_routes_sign_and_make_keys_alike(self, size, monkeypatch):
        """libsodium and ``cryptography`` make the same public key from
        a secret key, and the same signature of a message, byte for byte."""
        def keys_and_sigs():
            out = []
            for seed in range(40):
                rng = random.Random(f"{seed}/{size}")
                ident = sigcrypto.keygen(rng)
                out.append((ident.pk, sigcrypto.sign(ident.sk, rng.randbytes(size))))
            return out

        kernel = keys_and_sigs()
        monkeypatch.setattr(sigcrypto, "_signer", None)
        assert keys_and_sigs() == kernel
        assert len({pk for pk, _ in kernel}) == 40

    def test_small_order_encodings(self):
        """``_SMALL_ORDER_Y`` is the y of every point of order dividing
        8, plus the non-canonical encodings of y = 0 and y = 1."""
        assert encode(point_mul(8, ORDER_8)) == IDENTITY_PK != encode(point_mul(4, ORDER_8))
        ys = {sigcrypto._y(encode(point_mul(k, ORDER_8))) for k in range(8)}
        assert ys | {P, P + 1} == sigcrypto._SMALL_ORDER_Y and len(ys) == 5

    @pytest.mark.parametrize("triple", [
        (IDENTITY_PK, b"any message", WEAK_SIG),
        (NON_CANONICAL_PK, b"any message", WEAK_SIG),
        small_order_r_triple(),
    ], ids=["identity_pk", "non_canonical_pk", "small_order_r"])
    def test_weak_triples_rejected_on_both_routes(self, ed25519_route, triple):
        pk, message, sig = triple
        Ed25519PublicKey.from_public_bytes(pk).verify(sig, message)  # OpenSSL accepts
        assert not sigcrypto.verify(pk, message, sig)

    def test_fallback_screens_each_weak_encoding(self, rng, monkeypatch):
        """With an OpenSSL check that accepts everything, the fallback still
        rejects a non-canonical pk, and a small-order pk or R with either
        sign bit, each on its own."""
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        monkeypatch.setattr(sigcrypto, "_kernel", None)
        monkeypatch.setattr(sigcrypto, "_verifying_key",
                            lambda pk: types.SimpleNamespace(verify=lambda sig, message: None))
        assert sigcrypto.verify(ident.pk, b"abc", sig)
        for y in range(P + 2, 2**255):  # non-canonical, and not of small order
            assert not sigcrypto.verify(y.to_bytes(32, "little"), b"abc", sig), y
        for y in sigcrypto._SMALL_ORDER_Y:
            for sign in (0, 1 << 255):
                encoding = (y | sign).to_bytes(32, "little")
                assert not sigcrypto.verify(encoding, b"abc", sig), (y, sign)
                assert not sigcrypto.verify(ident.pk, b"abc", encoding + sig[32:]), (y, sign)

    def test_malformed_lengths_never_reach_a_route(self, rng, monkeypatch):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        monkeypatch.setattr(sigcrypto, "_ed25519_verify", lambda *a: pytest.fail("checked"))
        for pk, s in ((ident.pk[:31], sig), (ident.pk + b"\0", sig), (b"", sig),
                      (ident.pk, sig[:63]), (ident.pk, sig + b"\0"), (ident.pk, b"")):
            assert not sigcrypto.verify(pk, b"abc", s)

    @needs_kernel
    def test_lengths_and_buffers_get_the_fallbacks_verdict(self, rng):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        cases = [
            ((ident.pk[:31], b"abc", sig), False),
            ((ident.pk + b"\0", b"abc", sig), False),
            ((ident.pk, b"abc", sig[:63]), False),
            ((ident.pk, b"abc", sig + b"\0"), False),
            ((bytearray(ident.pk), bytearray(b"abc"), bytearray(sig)), True),
            ((memoryview(ident.pk), memoryview(b"abc"), memoryview(sig)), True),
            ((memoryview(ident.pk), bytearray(b"abd"), sig), False),
            ((bytearray(ident.pk[:31]), b"abc", memoryview(sig)), False),
        ]
        for triple, want in cases:
            assert verdicts(*triple) == (want, want), triple


class Missing:
    """A loaded library that lacks every symbol."""

    def __getattr__(self, name):
        raise AttributeError(name)


class FailingInit:
    """A loaded library with every symbol, whose ``sodium_init`` fails."""

    def __init__(self):
        self.sodium_init = lambda: -1
        for name in ("crypto_sign_ed25519_verify_detached", "crypto_sign_ed25519_seed_keypair",
                     "crypto_sign_ed25519_detached"):
            setattr(self, name, types.SimpleNamespace())


def no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("loader", [no_library, lambda name: Missing(), lambda name: FailingInit()],
                         ids=["library", "symbol", "init"])
def test_failed_load_leaves_the_cryptography_route(rng, monkeypatch, loader):
    """Signing, key generation and verification all fall back, and give
    the bytes and verdicts of the loaded route."""
    loaded = sigcrypto._kernel is not None
    state = rng.getstate()
    ident = sigcrypto.keygen(rng)
    sig = sigcrypto.sign(ident.sk, b"abc")
    with monkeypatch.context() as mp:
        mp.setattr(ctypes, "CDLL", loader)
        importlib.reload(sigcrypto)
        assert sigcrypto._kernel is None and sigcrypto._signer is None
        assert sigcrypto.route() == "sign and verify by cryptography"
        rng.setstate(state)
        again = sigcrypto.keygen(rng)  # a NodeIdentity of the reloaded module
        assert (again.pk, again.sk) == (ident.pk, ident.sk)
        assert sigcrypto.sign(ident.sk, b"abc") == sig
        assert sigcrypto.verify(ident.pk, b"abc", sig)
        assert not sigcrypto.verify(ident.pk, b"abd", sig)
        assert not sigcrypto.verify(IDENTITY_PK, b"abc", WEAK_SIG)
    importlib.reload(sigcrypto)
    assert (sigcrypto._kernel is not None) == (sigcrypto._signer is not None) == loaded
    assert sigcrypto.route() == f"sign and verify by {'libsodium' if loaded else 'cryptography'}"


def test_route_names_each_side(monkeypatch):
    monkeypatch.setattr(sigcrypto, "_kernel", None)
    monkeypatch.setattr(sigcrypto, "_signer", object())
    assert sigcrypto.route() == "sign by libsodium, verify by cryptography"


class TestCertificates:
    def test_roundtrip(self, rng):
        auth = sigcrypto.keygen(rng)
        ident = sigcrypto.keygen(rng, b"n1")
        cert = sigcrypto.certify(auth.sk, ident.pk, b"n1")
        assert sigcrypto.verify_cert(cert, ident.pk, b"n1", auth.pk)

    def test_swapped_node_id(self, rng):
        auth = sigcrypto.keygen(rng)
        ident = sigcrypto.keygen(rng, b"n1")
        cert = sigcrypto.certify(auth.sk, ident.pk, b"n1")
        assert not sigcrypto.verify_cert(cert, ident.pk, b"n2", auth.pk)

    def test_truncated_cert(self, rng):
        auth = sigcrypto.keygen(rng)
        ident = sigcrypto.keygen(rng, b"n1")
        cert = sigcrypto.certify(auth.sk, ident.pk, b"n1")
        broken = sigcrypto.Certificate(cert.node_id, cert.pk, cert.sig[:-4])
        assert not sigcrypto.verify_cert(broken, ident.pk, b"n1", auth.pk)

    def test_other_authority(self, rng):
        auth, other = sigcrypto.keygen(rng), sigcrypto.keygen(rng)
        ident = sigcrypto.keygen(rng, b"n1")
        cert = sigcrypto.certify(other.sk, ident.pk, b"n1")
        assert not sigcrypto.verify_cert(cert, ident.pk, b"n1", auth.pk)

    def test_signature_binds_key_and_node_id(self, rng):
        """Rewriting a field and checking against the rewritten value
        fails: the signature covers both the key and the node id."""
        auth = sigcrypto.keygen(rng)
        ident, other = sigcrypto.keygen(rng, b"n1"), sigcrypto.keygen(rng, b"n1")
        cert = sigcrypto.certify(auth.sk, ident.pk, b"n1")
        assert not sigcrypto.verify_cert(replace(cert, pk=other.pk), other.pk, b"n1", auth.pk)
        assert not sigcrypto.verify_cert(replace(cert, node_id=b"n2"), ident.pk, b"n2", auth.pk)


class TestPrf:
    def test_deterministic(self):
        seed = b"s" * 16
        assert sigcrypto.prf(seed, b"x") == sigcrypto.prf(seed, b"x")

    def test_input_sensitivity(self):
        seed = b"s" * 16
        assert sigcrypto.prf(seed, b"x") != sigcrypto.prf(seed, b"x\x00")

    def test_short_seed_rejected(self):
        with pytest.raises(ValueError):
            sigcrypto.prf(b"short", b"x")

    def test_is_hmac_sha256(self):
        for n in (0, 1, 63, 64, 65, 1000):
            seed, data = bytes(range(32)), bytes(range(256)) * 4
            want = hmac.new(seed, data[:n], hashlib.sha256).digest()
            assert sigcrypto.prf(seed, data[:n]) == want

    @pytest.mark.parametrize("key_len", [16, 32, 64, 65, 100])
    def test_matches_hmac_digest_across_key_and_data_lengths(self, key_len):
        """Keys up to and past SHA-256's 64-byte block (longer ones are
        hashed first), and data from empty to several blocks."""
        seed = bytes((7 * i + key_len) % 256 for i in range(key_len))
        data = bytes((i * 31) % 251 for i in range(300))
        for n in range(301):
            assert sigcrypto.prf(seed, data[:n]) == hmac.digest(seed, data[:n], "sha256"), n
        # a cached seed's states are copied per call, never advanced
        assert sigcrypto.prf(seed, data) == hmac.digest(seed, data, "sha256")

    def test_no_collisions_over_corpus(self):
        seed = b"q" * 16
        outputs = {sigcrypto.prf(seed, i.to_bytes(4, "big")) for i in range(10_000)}
        assert len(outputs) == 10_000

    def test_prf_to_field_nonzero_and_in_range(self):
        seed = b"q" * 16
        for q in (11, 13, 2**61 - 1):
            for i in range(200):
                x = sigcrypto.prf_to_field(seed, i.to_bytes(4, "big"), q)
                assert 0 < x < q

    @pytest.mark.parametrize("q", [11, 2**61 - 1, 2**521 - 1])
    def test_prf_to_fields_is_prf_to_field_per_message(self, q):
        seed = b"q" * 16
        messages = [i.to_bytes(4, "big") for i in range(100)] + [b"", b"x" * 300]
        assert sigcrypto.prf_to_fields(seed, messages, q) == [
            sigcrypto.prf_to_field(seed, data, q) for data in messages
        ]

    def test_prf_to_fields_short_seed_rejected(self):
        for messages in ([b"x"], []):
            with pytest.raises(ValueError, match="seed must be at least 16 bytes"):
                sigcrypto.prf_to_fields(b"short", messages, 11)

    def test_prf_to_field_deterministic(self):
        seed = b"q" * 16
        assert sigcrypto.prf_to_field(seed, b"in", 13) == sigcrypto.prf_to_field(seed, b"in", 13)

"""Identities, signatures, certificates, and the PRF."""

import hashlib
import hmac
import random
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from rlncheck import sigcrypto


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
        ident = sigcrypto.keygen(rng)
        fresh = Ed25519PrivateKey.from_private_bytes(ident.sk)
        hits = sigcrypto._signing_key.cache_info().hits
        for message in (b"abc", b"abd"):
            assert sigcrypto.sign(ident.sk, message) == fresh.sign(message)
        assert sigcrypto._signing_key.cache_info().hits == hits + 2
        assert sigcrypto._signing_key.cache_info().maxsize is not None

    def test_verify_reuses_key_object(self, rng, monkeypatch):
        """A public key is parsed once, on its first verification; a
        malformed one is rejected every time and never kept."""
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
        monkeypatch.setattr(sigcrypto, "Ed25519PublicKey", Parsing)
        try:
            assert sigcrypto.verify(ident.pk, b"abc", sigs[0])
            assert sigcrypto.verify(ident.pk, b"abd", sigs[1])
            assert not sigcrypto.verify(ident.pk, b"abc", sigs[1])
            assert parsed == [ident.pk]
            size = sigcrypto._verifying_key.cache_info().currsize
            for _ in range(2):
                assert not sigcrypto.verify(b"short", b"abc", sigs[0])
            assert parsed == [ident.pk, b"short", b"short"]
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


class TestSharedVerifications:
    """Inside a ``shared_verifications()`` scope a triple that passed is
    answered without OpenSSL; everything else is checked in full."""

    def test_passing_triple_is_remembered(self, rng, openssl_verifies):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        with sigcrypto.shared_verifications():
            assert all(sigcrypto.verify(ident.pk, b"abc", sig) for _ in range(3))
        assert openssl_verifies == [((ident.pk, b"abc", sig), True)]

    def test_altered_triples_are_checked_and_rejected(self, rng, openssl_verifies):
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
        assert openssl_verifies == [((a.pk, b"abc", sig), True)] + [(t, False) for t in altered] * 2

    def test_failing_triple_is_never_stored(self, rng, openssl_verifies):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        with sigcrypto.shared_verifications():
            for _ in range(2):
                assert not sigcrypto.verify(ident.pk, b"abd", sig)
                assert not sigcrypto.verify(ident.pk, b"abc", b"junk")
                assert not sigcrypto.verify(b"short", b"abc", sig)
            assert sigcrypto._verified.get() == set()
        assert [ok for _, ok in openssl_verifies] == [False] * 4

    def test_nothing_is_remembered_outside_a_scope(self, rng, openssl_verifies):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        assert all(sigcrypto.verify(ident.pk, b"abc", sig) for _ in range(2))
        with sigcrypto.shared_verifications():
            assert sigcrypto.verify(ident.pk, b"abc", sig)
        assert sigcrypto.verify(ident.pk, b"abc", sig)
        assert len(openssl_verifies) == 4

    def test_scope_resets_after_an_exception(self, rng, openssl_verifies):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        with pytest.raises(RuntimeError):
            with sigcrypto.shared_verifications():
                assert sigcrypto.verify(ident.pk, b"abc", sig)
                raise RuntimeError
        assert sigcrypto._verified.get() is None
        assert sigcrypto.verify(ident.pk, b"abc", sig)
        assert len(openssl_verifies) == 2

    def test_nested_scope_starts_empty_and_restores_the_outer(self, rng, openssl_verifies):
        ident = sigcrypto.keygen(rng)
        sig = sigcrypto.sign(ident.sk, b"abc")
        with sigcrypto.shared_verifications():
            assert sigcrypto.verify(ident.pk, b"abc", sig)
            with sigcrypto.shared_verifications():
                assert sigcrypto.verify(ident.pk, b"abc", sig)
            assert len(openssl_verifies) == 2
            assert sigcrypto.verify(ident.pk, b"abc", sig)
            assert len(openssl_verifies) == 2
        assert sigcrypto._verified.get() is None

    def test_buffer_messages(self, rng, openssl_verifies):
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
        assert openssl_verifies == [
            ((ident.pk, b"abc", sig), True),
            ((ident.pk, b"abd", sig), False),
            ((ident.pk, b"abd", sig), False),
        ]


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

    def test_prf_to_field_deterministic(self):
        seed = b"q" * 16
        assert sigcrypto.prf_to_field(seed, b"in", 13) == sigcrypto.prf_to_field(seed, b"in", 13)

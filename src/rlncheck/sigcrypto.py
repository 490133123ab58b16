"""Node identities, signatures, certificates, and the PRF.

Signatures are Ed25519 (fixed 64-byte signatures, 32-byte keys); key
material can be derived deterministically from a seeded ``random.Random``
so whole simulations replay byte-identically.  The hash is SHA-256
truncated to a configurable width (160 bits by default).  The PRF is
HMAC-SHA256 keyed with a public seed; coefficient derivation maps its
output into Z_q^* by rejection sampling over successive counters.

Inside a ``shared_verifications()`` scope, ``verify`` runs OpenSSL's
Ed25519 verification once per distinct (public key, message, signature)
triple and answers a repeat from the scope's set of triples that passed.
That is exact: verification is a deterministic function of the triple,
and a failure is never stored, so every verdict is the one a fresh check
would give.  ``sim.Simulation.run`` enters one scope per run, shared by
all of that run's nodes; outside any scope every call does the full
check.

The Merkle tree of Log-PIP, with validity signatures at interior nodes,
lives in ``pipcore``.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

SIG_BYTES = 64
PK_BYTES = 32

_CERT_CONTEXT = b"rlncheck-node-cert-v1:"


def hash_bytes(data: bytes, h_bytes: int = 20) -> bytes:
    """SHA-256 truncated to h_bytes (the configured digest width |h|)."""
    return hashlib.sha256(data).digest()[:h_bytes]


_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@lru_cache(maxsize=256)
def _hmac_states(seed: bytes):
    """SHA-256 states after HMAC's padded inner and outer key blocks
    (RFC 2104), built once per seed: every PRF call under one seed
    starts from the same two states."""
    key = seed if len(seed) <= 64 else hashlib.sha256(seed).digest()
    key = key.ljust(64, b"\x00")
    return hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD))


def prf(seed: bytes, data: bytes) -> bytes:
    """Keyed PRF on the public seed: HMAC-SHA256(seed, data), 32 bytes."""
    if len(seed) < 16:
        raise ValueError("seed must be at least 16 bytes")
    inner_start, outer_start = _hmac_states(seed)
    inner = inner_start.copy()
    inner.update(data)
    outer = outer_start.copy()
    outer.update(inner.digest())
    return outer.digest()


def prf_to_field(seed: bytes, data: bytes, q: int) -> int:
    """Map PRF output into Z_q^* by rejection sampling on counters.

    Each attempt masks an HMAC digest down to q's bit length; values
    outside [1, q) are rejected and the counter bumped, so acceptance
    probability is at least ~1/2 per attempt and the result is
    (computationally) uniform over Z_q^*.
    """
    bits = q.bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    counter = 0
    while True:
        digest = prf(seed, data + counter.to_bytes(4, "big"))
        while len(digest) < nbytes:
            counter += 1
            digest += prf(seed, data + counter.to_bytes(4, "big"))
        x = int.from_bytes(digest[:nbytes], "big") & mask
        if 0 < x < q:
            return x
        counter += 1


@dataclass
class NodeIdentity:
    """A node's id, Ed25519 keypair, and (optionally) its certificate.

    ``sk`` is present only on the owning node; ``cert`` is attached once
    an authority has certified the key.
    """

    node_id: bytes
    pk: bytes
    sk: bytes | None = None
    cert: "Certificate | None" = None


@dataclass(frozen=True)
class Certificate:
    """Authority signature binding a public key to a node id."""

    node_id: bytes
    pk: bytes
    sig: bytes


def keygen(rng: random.Random, node_id: bytes = b"") -> NodeIdentity:
    """Fresh Ed25519 keypair; key bytes drawn from the supplied rng."""
    sk = rng.randbytes(32)
    pk = _signing_key(sk).public_key().public_bytes_raw()
    return NodeIdentity(node_id=node_id, pk=pk, sk=sk)


@lru_cache(maxsize=256)
def _signing_key(sk: bytes) -> Ed25519PrivateKey:
    """Parsed key object for sk, reused across signatures: parsing costs
    about as much as signing."""
    return Ed25519PrivateKey.from_private_bytes(sk)


def sign(sk: bytes, message: bytes) -> bytes:
    return _signing_key(sk).sign(message)


@lru_cache(maxsize=256)
def _verifying_key(pk: bytes) -> Ed25519PublicKey:
    """Parsed key object for pk, reused across verifications.  A malformed
    pk raises ValueError, and ``lru_cache`` keeps no entry for a call that
    raised."""
    return Ed25519PublicKey.from_public_bytes(pk)


# The triples that passed verification in the innermost active
# shared_verifications() scope; None outside any scope.
_verified: ContextVar[set | None] = ContextVar("rlncheck_verified", default=None)


@contextmanager
def shared_verifications():
    """Scope in which ``verify`` checks each distinct triple once.

    Each scope starts with an empty set and the enclosing one (or none)
    is restored on exit, also after an exception; it yields that set.
    The set lives in a ``ContextVar``, so a scope covers only the thread
    or task that entered it.
    """
    passed: set = set()
    token = _verified.set(passed)
    try:
        yield passed
    finally:
        _verified.reset(token)


def _as_bytes(data) -> bytes:
    """A bytes-like argument as hashable bytes; TypeError for anything else."""
    return data if type(data) is bytes else bytes(memoryview(data))


def verify(pk: bytes, message: bytes, sig: bytes) -> bool:
    """Deterministic verification; False on any malformed input.

    Inside a ``shared_verifications()`` scope a triple that already
    passed in that scope returns True without running OpenSSL again.
    Only passing triples are stored, so a forged or altered signature,
    message or key is always checked in full.  The parsed public key is
    reused across calls (``_verifying_key``); a malformed one is parsed,
    and rejected, every time.
    """
    key = (_as_bytes(pk), _as_bytes(message), _as_bytes(sig))
    pk, message, sig = key
    memo = _verified.get()
    if memo is not None and key in memo:
        return True
    try:
        _verifying_key(pk).verify(sig, message)
    except (InvalidSignature, ValueError):
        return False
    if memo is not None:
        memo.add(key)
    return True


def _cert_message(pk: bytes, node_id: bytes) -> bytes:
    return (
        _CERT_CONTEXT
        + len(pk).to_bytes(2, "big") + pk
        + len(node_id).to_bytes(2, "big") + node_id
    )


def certify(authority_sk: bytes, pk: bytes, node_id: bytes) -> Certificate:
    """Authority signature over exactly (pk, node_id)."""
    sig = sign(authority_sk, _cert_message(pk, node_id))
    return Certificate(node_id=node_id, pk=pk, sig=sig)


def verify_cert(cert: Certificate, pk: bytes, node_id: bytes, authority_pk: bytes) -> bool:
    if cert.pk != pk or cert.node_id != node_id:
        return False
    return verify(authority_pk, _cert_message(pk, node_id), cert.sig)

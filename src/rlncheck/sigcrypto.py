"""Node identities, signatures, certificates, and the PRF.

Signatures are Ed25519 (fixed 64-byte signatures, 32-byte keys); key
material can be derived deterministically from a seeded ``random.Random``
so whole simulations replay byte-identically.  The hash is SHA-256
truncated to a configurable width (160 bits by default).  The PRF is
HMAC-SHA256 keyed with a public seed; coefficient derivation maps its
output into Z_q^* by rejection sampling over successive counters.

``sign``, ``keygen`` and ``verify`` take one of two routes, named by
``route()``:

1. libsodium, through ``ctypes``: ``crypto_sign_ed25519_seed_keypair``,
   ``crypto_sign_ed25519_detached`` and
   ``crypto_sign_ed25519_verify_detached``.  The library is loaded by its
   soname, ``libsodium.so.23``, never looked up with
   ``ctypes.util.find_library``, and ``sodium_init`` runs once, at
   import.
2. If the library, a symbol or ``sodium_init`` fails, the
   ``cryptography`` package (OpenSSL) for all three, with two checks in
   front of its verify.

Ed25519 signing is deterministic (RFC 8032), so both routes make the
same public key from a 32-byte secret key and the same signature of a
message, byte for byte.  Both also accept exactly the same triples.  A
(pk, message, sig) triple passes when pk is 32 bytes, sig = R || s is 64
bytes, s < L, and the encoding of sB - H(R || pk || M)A equals R byte for
byte (RFC 8032's cofactorless check), and also:

- pk encodes its y-coordinate canonically, y < 2^255 - 19;
- neither pk nor R, with its sign bit masked, is one of libsodium's
  seven small-order encodings (``_SMALL_ORDER_Y``).

OpenSSL alone accepts such weak keys: the identity pk ``01 00...00``
with sig ``01 00...00 || 00...00`` passes for every message, and so does
its non-canonical twin, y = 2^255 - 18.  A pk or sig of another length is
rejected before either route runs, and a secret key of another length
raises ValueError on both, so the library never reads past a short
buffer.

Inside a ``shared_verifications()`` scope, ``verify`` runs the full
check once per distinct (public key, message, signature) triple and
answers a repeat from the scope's set of triples that passed.  That is
exact: verification is a deterministic function of the triple, and a
failure is never stored, so every verdict is the one a fresh check
would give.  ``sim.Simulation.run`` enters one scope per run, shared by
all of that run's nodes; outside any scope every call does the full
check.

The Merkle tree of Log-PIP, with validity signatures at interior nodes,
lives in ``pipcore``.
"""

from __future__ import annotations

import ctypes
import hashlib
import random
from collections.abc import Iterable
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
SONAME = "libsodium.so.23"

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
    """``prf_to_fields`` of the one message ``data``."""
    return prf_to_fields(seed, (data,), q)[0]


def prf_to_fields(seed: bytes, messages: Iterable[bytes], q: int) -> list[int]:
    """Map the PRF output on each message into Z_q^* by rejection
    sampling on counters, one value per message, in order.

    Each attempt is PRF(data || counter), counters 0, 1, 2, ... as 4
    big-endian bytes; when q is wider than one digest, an attempt
    concatenates the digests of consecutive counters.  The attempt's
    first bytes are masked down to q's bit length, and values outside
    [1, q) are rejected, so acceptance probability is at least ~1/2 per
    attempt and the result is (computationally) uniform over Z_q^*.

    The HMAC states of ``seed`` are fetched once for all the messages.
    """
    if len(seed) < 16:
        raise ValueError("seed must be at least 16 bytes")
    inner_start, outer_start = _hmac_states(seed)
    inner_copy, outer_copy = inner_start.copy, outer_start.copy
    bits = q.bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    out = []
    for data in messages:
        counter = 0
        while True:
            digest = b""
            while len(digest) < nbytes:  # prf(seed, data || counter)
                inner = inner_copy()
                inner.update(data + counter.to_bytes(4, "big"))
                outer = outer_copy()
                outer.update(inner.digest())
                digest += outer.digest()
                counter += 1
            x = int.from_bytes(digest[:nbytes], "big") & mask
            if 0 < x < q:
                out.append(x)
                break
    return out


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
    if _signer is not None:
        pk = _expanded_key(sk)[-PK_BYTES:]
    else:
        pk = _signing_key(sk).public_key().public_bytes_raw()
    return NodeIdentity(node_id=node_id, pk=pk, sk=sk)


# The key caches hold more keys than a simulation makes identities (450 in
# the benchmark's network_sim set-up), so a run prepares each key once.
@lru_cache(maxsize=1024)
def _expanded_key(sk: bytes) -> bytes:
    """libsodium's 64-byte secret key for the 32-byte sk, seed || pk,
    reused across signatures: expanding it costs about two thirds of a
    signature.  ValueError for an sk of another length; ``lru_cache``
    keeps no entry for a call that raised."""
    if len(sk) != 32:
        raise ValueError(f"an Ed25519 secret key is 32 bytes, not {len(sk)}")
    pk, expanded = ctypes.create_string_buffer(PK_BYTES), ctypes.create_string_buffer(64)
    _signer.keypair(pk, expanded, sk)
    return expanded.raw


@lru_cache(maxsize=1024)
def _signing_key(sk: bytes) -> Ed25519PrivateKey:
    """Parsed key object for sk on the ``cryptography`` route, reused
    across signatures: parsing costs about as much as signing."""
    return Ed25519PrivateKey.from_private_bytes(sk)


def sign(sk: bytes, message: bytes) -> bytes:
    """The Ed25519 signature of ``message`` under the 32-byte secret key
    ``sk``, by libsodium when it is loaded, else by ``cryptography``."""
    message = _as_bytes(message)
    if _signer is None:
        return _signing_key(sk).sign(message)
    sig = ctypes.create_string_buffer(SIG_BYTES)
    _signer.sign(sig, None, message, len(message), _expanded_key(sk))
    return sig.raw


@lru_cache(maxsize=256)
def _verifying_key(pk: bytes) -> Ed25519PublicKey:
    """Parsed key object for pk, reused across verifications on the
    ``cryptography`` route.  A malformed pk raises ValueError, and
    ``lru_cache`` keeps no entry for a call that raised."""
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


_P = 2**255 - 19
_Y_MASK = (1 << 255) - 1
# The y-coordinates of the points of order 1, 2, 4 and 8 (the last two
# are ±y of the order-8 points), and the non-canonical encodings p and
# p + 1 of y = 0 and y = 1: libsodium's list of small-order encodings.
_Y8 = 2707385501144840649318225287225658788936804267575313519463743609750303402022
_SMALL_ORDER_Y = frozenset({0, 1, _P - 1, _Y8, _P - _Y8, _P, _P + 1})


def _y(encoding: bytes) -> int:
    """The y-coordinate field of a point encoding, sign bit masked."""
    return int.from_bytes(encoding, "little") & _Y_MASK


@dataclass(frozen=True)
class _Signer:
    """libsodium's seed-to-keypair and detached-sign functions."""

    keypair: object
    sign: object


def _load_kernels():
    """libsodium's detached Ed25519 verify and its ``_Signer``, or
    (None, None) if the library, a symbol or ``sodium_init`` fails."""
    try:
        lib = ctypes.CDLL(SONAME)
        init = lib.sodium_init
        verify = lib.crypto_sign_ed25519_verify_detached
        keypair = lib.crypto_sign_ed25519_seed_keypair
        signer = lib.crypto_sign_ed25519_detached
    except (OSError, AttributeError):
        return None, None
    init.restype, init.argtypes = ctypes.c_int, ()
    buf, size = ctypes.c_char_p, ctypes.c_ulonglong
    for fn in (verify, keypair, signer):
        fn.restype = ctypes.c_int
    verify.argtypes = (buf, buf, size, buf)  # sig, message, its length, pk
    keypair.argtypes = (buf, buf, buf)  # pk out (32), sk out (64), seed (32)
    signer.argtypes = (buf, ctypes.c_void_p, buf, size, buf)  # sig out, NULL, message, length, sk
    # sodium_init returns 0 once it has run, 1 if it had run before, -1 on failure.
    if init() < 0:
        return None, None
    return verify, _Signer(keypair=keypair, sign=signer)


_kernel, _signer = _load_kernels()


def route() -> str:
    """The libraries ``sign`` (with ``keygen``) and ``verify`` take: "sign
    and verify by libsodium" when it loaded, else "sign and verify by
    cryptography"; they load together, so they differ only where a
    caller switched one off."""
    signs = "libsodium" if _signer is not None else "cryptography"
    verifies = "libsodium" if _kernel is not None else "cryptography"
    if signs == verifies:
        return f"sign and verify by {signs}"
    return f"sign by {signs}, verify by {verifies}"


def _ed25519_verify(pk: bytes, message: bytes, sig: bytes) -> bool:
    """The module docstring's acceptance rule on a 32-byte pk and a
    64-byte sig, by libsodium when it is loaded, else by ``cryptography``."""
    if _kernel is not None:
        return _kernel(sig, message, len(message), pk) == 0
    y = _y(pk)
    if y >= _P or y in _SMALL_ORDER_Y or _y(sig[:32]) in _SMALL_ORDER_Y:
        return False
    try:
        _verifying_key(pk).verify(sig, message)
    except (InvalidSignature, ValueError):
        return False
    return True


def verify(pk: bytes, message: bytes, sig: bytes) -> bool:
    """Deterministic verification under the module docstring's
    acceptance rule; False on any malformed input.

    A pk that is not 32 bytes or a sig that is not 64 bytes is False
    without reaching either route.  Inside a ``shared_verifications()``
    scope a triple that already passed in that scope returns True
    without being checked again.  Only passing triples are stored, so a
    forged or altered signature, message or key is always checked in
    full.
    """
    key = (_as_bytes(pk), _as_bytes(message), _as_bytes(sig))
    pk, message, sig = key
    memo = _verified.get()
    if memo is not None and key in memo:
        return True
    if len(pk) != PK_BYTES or len(sig) != SIG_BYTES or not _ed25519_verify(pk, message, sig):
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

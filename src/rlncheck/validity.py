"""Homomorphic validity signatures with per-transmission source parameters.

The scheme is a discrete-log homomorphic hash: an epoch publishes fresh
generators g_1..g_{n+m} of a prime-order-q subgroup mod p, and the
validity signature of a packet vector E is sigma(E) = prod g_i^{e_i}.
Authenticity comes from the source master key signing the epoch
parameters (which include the sigmas of the m original packets), so any
node can both check that a received sigma matches the packet contents
and that the packet is the linear combination of originals its coding
vector claims:

    sigma == prod g_i^{e_i}  and  sigma == prod h_j^{c_j}

Signatures combine homomorphically, sigma(aE1 + bE2) =
sigma(E1)^a * sigma(E2)^b, which is what the token verification in
``pipcore`` relies on.  Rotating the generators every epoch makes
replayed packets from earlier transmissions fail verification.

The hash binds a vector only while discrete logs in the order-q
subgroup are out of the signer's reach: one who knows log sigma of
each of its inputs can solve for other combinations with the same
sigma.  That holds at the ``production`` profile; at ``test`` every
log is a table lookup, and at ``sim`` results assume a signer that
computes none (see ``profiles``).

Every product of powers prod b_i^{e_i} mod p goes through
``power_product``, which reduces each exponent mod q (the subgroup's
order) and gives bit for bit what the powers taken one at a time with
``pow`` give.  It takes one of two routes:

1. Epoch tables, for G(E) = prod g_i^{e_i} and H(c) = prod h_j^{c_j}
   unless the kernel serves p (see route 2).  These run over bases the
   epoch fixes, so they use the fixed-base method of Brickell, Gordon,
   McCurley and Wilson (EUROCRYPT 1992).  For each base b the epoch
   keeps the powers b^(2^(w*k)) for k < ceil(|q|/w), built once per
   parameters object, the first time the route needs them, and cached
   on it.  One product prod b_i^{e_i} then reads every exponent
   (reduced mod q) w bits at a time, multiplies the table entry of each
   non-zero digit d into a bucket B[d], and returns prod B[d]^d as a
   running product over d = 2^w-1..1, in 2(2^w - 1) multiplications.
   The digit width w is derived, not set: it minimises
   count * ceil(|q|/w) + 2^(w+1) over the number of bases, which gives
   w = 7 for 36 bases at 160 bits and w = 4 for 5 bases at 61.  The
   buckets only regroup the same factors.

2. The terms with a non-zero exponent, for every other product.  When
   the kernel serves p, that is when it loaded and p is odd with at
   least NATIVE_BITS = 512 bits, the whole product is one call of
   ``modexp.product``; then every product takes this route.  It pairs
   the terms through OpenSSL's ``BN_mod_exp2_mont``, which takes two
   powers with one shared chain of squarings, reuses one Montgomery
   context per modulus, and multiplies the partial results inside
   libcrypto; a product of at least ``modexp.SPLIT_PAIRS`` non-zero
   terms runs in two parts on two threads.  Montgomery arithmetic
   rejects an even modulus, so an even p takes builtin ``pow`` at any
   size.  Otherwise each term is one builtin ``pow``.  At the
   production profile (1024-bit p, 160-bit q) a kernel product costs
   about 66 us at 1 base, 84 us at 2, 0.17 ms at 4, 0.39 ms at 10 and
   1.45 ms at 36 on one thread, or 1.15-1.35 ms split.  Builtin ``pow`` costs 0.70 ms
   per base, and the tables cost 0.67 ms at 4 bases (H(c)) and 4.0 ms
   at 36 (G(E)), so no table is built.  Pairing halves the squarings:
   taken one kernel power per base, H(c) would cost about 0.26 ms and
   G(E) 2.4 ms.  Below 512 bits the fixed cost of a ``ctypes`` call
   dominates: at the sim profile (67-bit p) a one-term kernel product
   costs about 17 us, so ``pow`` serves there.  The bases of
   ``combine_validity`` arrive with each packet, so they get no table;
   at the sim profile its d powers cost about 45 us at d = 2, 110 us at
   d = 5 and 330 us at d = 16.  Where the epoch fixes the bases a table
   product still wins: G(E) over 5 bases costs 31-36 us with tables and
   about 100 us without.  Without libcrypto, a production combine at
   d = 10 costs about 7 ms.

(CPython 3.11 on a 2-core x86_64 VM.)  Neither route is
constant-time, and builtin ``pow`` is not either.

Drafts: a node that codes E = sum a_i E_i over packets that each
   passed ``verify_validity`` knows sigma_i = H(c_i) for each, so the
   homomorphism gives prod sigma_i^{a_i} = H(sum a_i c_i) = H(c_E).  It
   signs its draft with ``claimed_validity`` (one fixed-base product
   over m bases) instead of combining d received signatures.

A receiver can skip the larger product, G(E) = prod g_i^{e_i} over all
n+m chunks, for most packets.  It keeps a span, over GF(q), of the
rows c | payload of the packets that passed the full check in this
epoch, and passes it to ``verify_validity``.  A packet whose coding
vector c lies in that span is valid iff its payload is the matching
combination of theirs and sigma == H(c) = prod h_j^{c_j}; only a
packet outside the span pays for G(E), and a packet that passes joins
the span.  So a receiver computes G at most m times per epoch when its
packets pass, however many it receives.  The two paths agree: every
row in the span has G(row) = H(c_row), and both maps are homomorphic,
so a matching payload gives G(E) = H(c) = sigma.  Conversely a packet
that passes the full check has G(E) = H(c); if its payload differed
from the matching combination P', then G(0 | payload - P') = 1, a
discrete-log collision in the generators.  On such a collision, and
only there, the span path rejects what the full check accepts.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property

from . import modexp, sigcrypto
from .gf import CodedVector, Span
from .profiles import Profile


NATIVE_BITS = 512  # moduli from this size up take the native route


def _native(p: int) -> bool:
    # Montgomery exponentiation needs an odd modulus.
    return p.bit_length() >= NATIVE_BITS and p % 2 == 1 and modexp.product is not modexp.pow_product


def route(p: int) -> str:
    """The name of the route products mod ``p`` take."""
    return modexp.route() if _native(p) else "pure Python"


def power_product(
    bases: Sequence[int],
    exponents: Sequence[int],
    p: int,
    q: int,
    table: Callable[[], _FixedBase] | None = None,
) -> int:
    """prod b_i^(e_i mod q) mod p by one of the module docstring's two
    routes: the power tables that ``table``, when given, returns, unless
    the kernel serves p; else the terms with a non-zero exponent, in one
    kernel call or one pow each."""
    native = _native(p)
    if table is not None and not native:
        return table().power(exponents)
    terms = [(b, r) for b, e in zip(bases, exponents) if (r := e % q)]
    return (modexp.product if native else modexp.pow_product)(terms, p)


def _window(count: int, bits: int) -> int:
    """Digit width minimising one product's multiplications over count bases."""
    return min(range(1, bits + 1), key=lambda w: count * -(-bits // w) + (1 << (w + 1)))


class _FixedBase:
    """Power tables of fixed bases mod p, for exponents reduced mod q."""

    __slots__ = ("p", "q", "w", "tables")

    def __init__(self, bases: tuple[int, ...], p: int, q: int):
        bits = q.bit_length()
        self.p, self.q = p, q
        self.w = w = _window(len(bases), bits)
        step = 1 << w
        self.tables = []
        for b in bases:
            row = [b % p]
            for _ in range(-(-bits // w) - 1):
                row.append(pow(row[-1], step, p))
            self.tables.append(row)

    def power(self, exponents: tuple[int, ...]) -> int:
        """prod b_i^(e_i mod q) mod p, by one bucket pass over all bases."""
        p, q, w = self.p, self.q, self.w
        mask = (1 << w) - 1
        buckets = [1] * (mask + 1)
        for row, e in zip(self.tables, exponents):
            e %= q
            for entry in row:
                if not e:
                    break
                d = e & mask
                if d:
                    buckets[d] = buckets[d] * entry % p
                e >>= w
        out = running = 1
        for d in range(mask, 0, -1):
            running = running * buckets[d] % p
            out = out * running % p
        return out


@dataclass(frozen=True)
class SourceEpochParams:
    """Master-signed public parameters for one transmission epoch.

    The power tables and the byte encoding are cached on the instance
    the first time they are needed; they are not fields, so equality,
    hashing and ``dataclasses.replace`` see only the parameters.
    """

    k: int
    p: int
    q: int
    generators: tuple[int, ...]  # one per packet chunk (n+m)
    original_hashes: tuple[int, ...]  # sigma of each original packet (m)
    master_sig: bytes

    @property
    def m(self) -> int:
        return len(self.original_hashes)

    @property
    def n(self) -> int:
        return len(self.generators) - self.m

    @property
    def p_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @property
    def q_bytes(self) -> int:
        return (self.q.bit_length() + 7) // 8

    def epoch_pk_bytes(self) -> bytes:
        """Canonical byte encoding: k || p || q || generators || hashes."""
        return self._pk_bytes

    @cached_property
    def _pk_bytes(self) -> bytes:
        pw, qw = self.p_bytes, self.q_bytes
        parts = [self.k.to_bytes(8, "big"), self.p.to_bytes(pw, "big"), self.q.to_bytes(qw, "big")]
        parts += [g.to_bytes(pw, "big") for g in self.generators]
        parts += [h.to_bytes(pw, "big") for h in self.original_hashes]
        return b"".join(parts)

    @cached_property
    def _generator_base(self) -> _FixedBase:
        return _FixedBase(self.generators, self.p, self.q)

    @cached_property
    def _hash_base(self) -> _FixedBase:
        return _FixedBase(self.original_hashes, self.p, self.q)

    def _generator_product(self, exponents: tuple[int, ...]) -> int:
        """G(E) = prod g_i^{e_i} mod p."""
        return power_product(self.generators, exponents, self.p, self.q, lambda: self._generator_base)

    def sigma_to_bytes(self, sigma: int) -> bytes:
        return sigma.to_bytes(self.p_bytes, "big")


def epoch_setup(
    master: sigcrypto.NodeIdentity,
    original_packets: list[CodedVector],
    k: int,
    rng: random.Random,
    profile: Profile,
) -> SourceEpochParams:
    """Draw fresh per-epoch generators and sign them with the master key.

    The original packets must carry standard-basis coding vectors
    (packet j has c_j = 1 and all other coding chunks 0); their sigmas
    become the published original hashes h_j.

    Each generator is g_i = g^{r_i} for a fresh exponent r_i, and the
    source, which knows the r_i, computes each h_j = G(o_j) as the one
    power g^(sum_i r_i o_{j,i} mod q): g has order q, so this is
    prod g_i^{o_{j,i}} bit for bit, for one power in place of n+m (the
    per-publisher hashing of Krohn, Freedman and Mazieres, IEEE S&P
    2004).  The r_i are a forging key: whoever knows them can find other
    vectors with the same hash.  They stay local to this call and are
    dropped when it returns; they never reach the parameters, the
    master identity or any cache.
    """
    if not original_packets:
        raise ValueError("epoch_setup requires at least one original packet")
    if master.sk is None:
        raise ValueError("epoch_setup needs the master signing key")
    m = len(original_packets)
    n = original_packets[0].n
    for j, pkt in enumerate(original_packets):
        expected = tuple(1 if i == j else 0 for i in range(m))
        if pkt.coding_vector != expected or pkt.n != n:
            raise ValueError(f"original packet {j} lacks a standard-basis coding vector")

    p, q, g = profile.p, profile.q, profile.g
    if n + m > q - 1:
        raise ValueError(f"field of order {q} cannot host {n + m} distinct generators")
    exponents: list[int] = []
    seen: set[int] = set()
    while len(exponents) < n + m:
        r = rng.randrange(1, q)
        if r not in seen:
            seen.add(r)
            exponents.append(r)
    generators = tuple(power_product((g,), (r,), p, q) for r in exponents)
    original_hashes = tuple(
        power_product((g,), (sum(r * e for r, e in zip(exponents, pkt.chunks)),), p, q)
        for pkt in original_packets
    )
    unsigned = SourceEpochParams(
        k=k, p=p, q=q, generators=generators, original_hashes=original_hashes, master_sig=b""
    )
    return replace(unsigned, master_sig=sigcrypto.sign(master.sk, unsigned.epoch_pk_bytes()))


def verify_epoch(params: SourceEpochParams, master_pk: bytes) -> bool:
    return sigcrypto.verify(master_pk, params.epoch_pk_bytes(), params.master_sig)


def sign_validity(params: SourceEpochParams, E: CodedVector) -> int:
    """sigma(E) = prod g_i^{e_i} mod p over all n+m chunks."""
    if E.n != params.n or E.m != params.m:
        raise ValueError(f"packet dims ({E.n},{E.m}) do not match epoch ({params.n},{params.m})")
    return params._generator_product(E.chunks)


def verify_validity(
    params: SourceEpochParams, E: CodedVector, sigma: int, verified: Span | None = None
) -> bool:
    """True iff sigma matches the packet AND the packet matches its claim.

    Two-sided check: sigma must equal prod g_i^{e_i} (content binding)
    and prod h_j^{c_j} (the combination of originals the coding vector
    claims).  Never raises on adversarial input; any inconsistency is
    simply False.

    ``verified``, when given, is the receiver's span of the rows
    coding_vector + payload that passed this check in full under
    ``params`` (width m+n, empty at the start of an epoch).  A packet
    whose coding vector lies in it is checked against it and against
    prod h_j^{c_j} alone; any other packet is checked in full and, if
    it passes, added to it.  The verdict is the same either way, save
    on a discrete-log collision (see the module docstring).
    """
    if E.n != params.n or E.m != params.m:
        return False
    if not isinstance(sigma, int) or not 0 < sigma < params.p:
        return False
    if verified is not None:
        row = E.coding_vector + E.payload
        residual = verified.residual(row)
        if not any(residual[: params.m]):
            return not any(residual[params.m :]) and sigma == claimed_validity(params, E.coding_vector)
    if sigma != params._generator_product(E.chunks):
        return False
    if sigma != claimed_validity(params, E.coding_vector):
        return False
    if verified is not None:
        verified.add(row)
    return True


def record_verified(params: SourceEpochParams, E: CodedVector, verified: Span) -> None:
    """Grow ``verified`` as a passing ``verify_validity`` of ``E`` would:
    add its row when its coding vector lies outside the span.  For a
    packet whose validity signature another receiver already checked."""
    row = E.coding_vector + E.payload
    if any(verified.residual(row)[: params.m]):
        verified.add(row)


def claimed_validity(params: SourceEpochParams, coding_vector: tuple[int, ...]) -> int:
    """H(c) = prod h_j^{c_j} mod p: the validity signature that coding
    vector c claims, as a combination of the original packets."""
    return power_product(
        params.original_hashes, coding_vector, params.p, params.q, lambda: params._hash_base
    )


def combine_validity(sigmas: list[int], coeffs: list[int], params: SourceEpochParams) -> int:
    """Homomorphic combination: prod sigma_i^{a_i} mod p.

    Exponents are reduced mod q and bases mod p, as ``pow`` reduces them
    (see ``power_product``)."""
    if not sigmas or not coeffs:
        raise ValueError("combine_validity requires non-empty inputs")
    if len(sigmas) != len(coeffs):
        raise ValueError(f"{len(sigmas)} sigmas but {len(coeffs)} coefficients")
    return power_product(sigmas, coeffs, params.p, params.q)

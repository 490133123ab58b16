"""Parameter profiles: group/field sizes used across the library.

A profile bundles the prime-order group used by validity signatures
(modulus ``p``, subgroup order ``q``, base generator ``g``) with the
serialization widths that the wire format and the size audit depend on.
The coefficient field of the coding layer is GF(q), the exponent field
of the group, so the two layers compose homomorphically.

Three presets:

* ``test`` -- tiny group (p=23, q=11) where every value can be checked
  by hand or by exhaustive search.
* ``sim`` -- 61-bit field, 67-bit group.  Big enough that random
  algebraic coincidences are negligible (~2^-61 per event), small
  enough that a 50-node simulation finishes in seconds.
* ``production`` -- the RFC 5114 1024-bit MODP group with a 160-bit
  prime-order subgroup.

The guarantee that a packet passing verification was coded as
prescribed holds only against a sender that cannot take discrete logs
in the order-q subgroup.  A sender that knows the logs of its inputs'
validity signatures can pick any of q^(d-1) - 1 other codings of its d
inputs with the same signature (see ``validity`` and ``pipcore``).  At
``test`` a log is a table lookup, and a relay that forwards one parent
with a matching coefficient passes PIP and Log-PIP alike.  At ``sim``
a log costs about 2^30.5 group operations (Pollard rho on a 61-bit q),
within an offline adversary's reach, so ``sim`` results, the
throughput sweeps among them, assume an adversary that computes no
discrete logs.  Only ``production`` (a log at about 2^80) claims the
guarantee against one that tries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# RFC 5114 section 2.1: 1024-bit prime with 160-bit prime-order subgroup.
_RFC5114_P = int(
    "B10B8F96A080E01DDE92DE5EAE5D54EC52C99FBCFB06A3C69A6A9DCA52D23B61"
    "6073E28675A23D189838EF1E2EE652C013ECB4AEA906112324975C3CD49B83BF"
    "ACCBDD7D90C4BD7098488E9C219A73724EFFD6FAE5644738FAA31A4FF55BCCC0"
    "A151AF5F0DC8B4BD45BF37DF365C1A65E68CFDA76D4DA708DF1FB2BC2E4A4371",
    16,
)
_RFC5114_Q = int("F518AA8781A8DF278ABA4E7D64B7CB9D49462353", 16)
_RFC5114_G = int(
    "A4D1CBD5C3FD34126765A442EFB99905F8104DD258AC507FD6406CFF14266D31"
    "266FEA1E5C41564B777E690F5504F213160217B4B01B886A5E91547F9E2749F4"
    "D7FBD7D3B9A92EE1909D0D2263F80A76A6A24C087A091F531DBF0A0169B6A28A"
    "D662A4D18E73AFA32D779D5918D08BC8858F4DCEF97C2A24855E6EEB22B3B2E5",
    16,
)

# 61-bit Mersenne prime q with p = 52*q + 1 prime; g = 2^52 mod p has order q.
_SIM_Q = 2**61 - 1
_SIM_P = 52 * _SIM_Q + 1
_SIM_G = pow(2, 52, _SIM_P)


@dataclass(frozen=True)
class Profile:
    """Frozen parameter set. ``q`` doubles as the coding-field modulus."""

    name: str
    p: int  # group modulus for validity signatures
    q: int  # prime subgroup order == coefficient field modulus
    g: int  # generator of the order-q subgroup of Z_p^*
    h_bytes: int = 20  # hash output width |h| (160 bits by default)

    @property
    def p_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @property
    def q_bytes(self) -> int:
        return (self.q.bit_length() + 7) // 8

    @property
    def sigma_bits(self) -> int:
        """Serialized validity-signature width in bits."""
        return 8 * self.p_bytes

    def with_hash_width(self, h_bytes: int) -> "Profile":
        return replace(self, h_bytes=h_bytes)


TEST = Profile(name="test", p=23, q=11, g=2)
SIM = Profile(name="sim", p=_SIM_P, q=_SIM_Q, g=_SIM_G)
PRODUCTION = Profile(name="production", p=_RFC5114_P, q=_RFC5114_Q, g=_RFC5114_G)

PROFILES = {p.name: p for p in (TEST, SIM, PRODUCTION)}


def get_profile(name: str) -> Profile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}") from None

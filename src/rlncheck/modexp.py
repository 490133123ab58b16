"""Products of modular powers by OpenSSL's Montgomery kernels, through ``ctypes``.

``product(terms, mod)`` is prod b^e mod ``mod`` over the ``(b, e)``
pairs of ``terms``, for exponents e >= 0 and an odd modulus; it equals
``pow_product(terms, mod)``, one builtin ``pow`` per term, bit for bit.
A single power is its one-term case.  Terms with a zero exponent are
dropped; the rest go two at a time through ``BN_mod_exp2_mont``, which
computes a1^p1 * a2^p2 with one shared chain of squarings (Shamir's
simultaneous exponentiation: ElGamal, IEEE Trans. IT 1985; Moeller,
SAC 2001), and an odd last one through ``BN_mod_exp_mont``.  The
modulus is converted once, the partial results are multiplied inside
libcrypto, and the result is read back once.  Montgomery arithmetic
rejects an even modulus, so ``product`` raises ValueError on one.

The library is loaded by its soname, ``libcrypto.so.3``, the OpenSSL 3
that CPython's ``_hashlib`` links; it is never looked up with
``ctypes.util.find_library``, which on macOS names a stub that aborts
the process when loaded.  If the library or any of its symbols cannot
be loaded, ``product`` is ``pow_product``.

Each call allocates one context, takes its bignums from it and frees
them all with it before returning, so the module keeps no mutable state
and calls from several threads do not interact.  Like builtin ``pow``,
it is not constant-time.
"""

from __future__ import annotations

import ctypes
from collections.abc import Sequence

SONAME = "libcrypto.so.3"


def pow_product(terms: Sequence[tuple[int, int]], mod: int) -> int:
    """prod b^e mod ``mod`` over the (b, e) pairs, e >= 0, one builtin pow each."""
    out = 1
    for b, e in terms:
        out = out * pow(b, e, mod) % mod
    return out


def _load():
    """The libcrypto product kernel, or ``pow_product`` if libcrypto cannot be loaded."""
    try:
        lib = ctypes.CDLL(SONAME)
        ptr, buf, size = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
        for name, restype, argtypes in (
            ("BN_CTX_new", ptr, ()),
            ("BN_CTX_free", None, (ptr,)),
            ("BN_CTX_start", None, (ptr,)),
            ("BN_CTX_end", None, (ptr,)),
            ("BN_CTX_get", ptr, (ptr,)),
            ("BN_bin2bn", ptr, (buf, size, ptr)),
            ("BN_bn2binpad", size, (ptr, ptr, size)),
            ("BN_mod_exp_mont", size, (ptr, ptr, ptr, ptr, ptr, ptr)),
            ("BN_mod_exp2_mont", size, (ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr)),
            ("BN_mod_mul", size, (ptr, ptr, ptr, ptr, ptr)),
        ):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError):
        return pow_product

    def load(bn, value: int) -> None:
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        if not lib.BN_bin2bn(raw, len(raw), bn):
            raise MemoryError("BN_bin2bn failed")

    def product(terms: Sequence[tuple[int, int]], mod: int) -> int:
        """prod b^e mod ``mod`` over the (b, e) pairs, e >= 0, mod odd."""
        if mod % 2 == 0:
            raise ValueError("Montgomery exponentiation needs an odd modulus")
        values = [v for b, e in terms if e for v in (b % mod, e)]
        if not values:
            return 1 % mod
        ctx = lib.BN_CTX_new()
        try:
            if not ctx:
                raise MemoryError("BN_CTX_new failed")
            # Every bignum comes from ctx, and BN_CTX_free frees them all.
            lib.BN_CTX_start(ctx)
            m, acc, part, a1, p1, a2, p2 = bns = [lib.BN_CTX_get(ctx) for _ in range(7)]
            if not all(bns):
                raise MemoryError("BN_CTX_get failed")
            load(m, mod)
            for i in range(0, len(values), 4):
                out = part if i else acc
                for bn, v in zip((a1, p1, a2, p2), values[i : i + 4]):
                    load(bn, v)
                if i + 2 < len(values):
                    ok = lib.BN_mod_exp2_mont(out, a1, p1, a2, p2, m, ctx, None)
                else:
                    ok = lib.BN_mod_exp_mont(out, a1, p1, m, ctx, None)
                if not ok or (i and not lib.BN_mod_mul(acc, acc, part, m, ctx)):
                    raise MemoryError("Montgomery exponentiation failed")
            width = (mod.bit_length() + 7) // 8
            raw = ctypes.create_string_buffer(width)
            if lib.BN_bn2binpad(acc, raw, width) != width:
                raise MemoryError("BN_bn2binpad failed")
            return int.from_bytes(raw.raw, "big")
        finally:
            lib.BN_CTX_end(ctx)
            lib.BN_CTX_free(ctx)

    return product


product = _load()

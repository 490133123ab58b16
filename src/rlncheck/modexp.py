"""Modular exponentiation by OpenSSL's ``BN_mod_exp``, through ``ctypes``.

``powmod(base, exp, mod)`` equals ``pow(base % mod, exp, mod)`` for
``exp >= 0``.  The library is loaded by its soname, ``libcrypto.so.3``,
the OpenSSL 3 that CPython's ``_hashlib`` links; it is never looked up
with ``ctypes.util.find_library``, which on macOS names a stub that
aborts the process when loaded.  If the library or one of its symbols
cannot be loaded, ``powmod`` is builtin ``pow``.

Each call allocates its own context and bignums and frees them before
it returns, so the module keeps no mutable state and calls from several
threads do not interact.  Like builtin ``pow``, it is not constant-time.
"""

from __future__ import annotations

import ctypes

SONAME = "libcrypto.so.3"


def _load():
    """The BN_mod_exp kernel, or builtin ``pow`` if libcrypto cannot be loaded."""
    try:
        lib = ctypes.CDLL(SONAME)
        ptr, buf, size = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
        for name, restype, argtypes in (
            ("BN_CTX_new", ptr, ()),
            ("BN_CTX_free", None, (ptr,)),
            ("BN_new", ptr, ()),
            ("BN_free", None, (ptr,)),
            ("BN_bin2bn", ptr, (buf, size, ptr)),
            ("BN_bn2binpad", size, (ptr, ptr, size)),
            ("BN_mod_exp", size, (ptr, ptr, ptr, ptr, ptr)),
        ):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError):
        return pow

    def powmod(base: int, exp: int, mod: int) -> int:
        """pow(base % mod, exp, mod) for exp >= 0, by BN_mod_exp."""
        width = (mod.bit_length() + 7) // 8
        raws = [v.to_bytes((v.bit_length() + 7) // 8, "big") for v in (base % mod, exp, mod)]
        ctx, bns = lib.BN_CTX_new(), []
        try:
            bns = [lib.BN_bin2bn(raw, len(raw), None) for raw in raws]
            bns.append(lib.BN_new())
            if not ctx or not all(bns) or not lib.BN_mod_exp(bns[3], *bns[:3], ctx):
                raise MemoryError("BN_mod_exp failed")
            out = ctypes.create_string_buffer(width)
            if lib.BN_bn2binpad(bns[3], out, width) != width:
                raise MemoryError("BN_bn2binpad failed")
            return int.from_bytes(out.raw, "big")
        finally:
            for bn in bns:
                lib.BN_free(bn)
            lib.BN_CTX_free(ctx)

    return powmod


powmod = _load()

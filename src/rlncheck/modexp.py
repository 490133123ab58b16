"""Products of modular powers by OpenSSL's Montgomery kernels, through ``ctypes``.

``product(terms, mod)`` is prod b^e mod ``mod`` over the ``(b, e)``
pairs of ``terms``, for exponents e >= 0 and an odd modulus; it equals
``pow_product(terms, mod)``, one builtin ``pow`` per term, bit for bit.
A single power is its one-term case.  Terms with a zero exponent are
dropped; the rest go two at a time through ``BN_mod_exp2_mont``, which
computes a1^p1 * a2^p2 with one shared chain of squarings (Shamir's
simultaneous exponentiation: ElGamal, IEEE Trans. IT 1985; Moeller,
SAC 2001), and an odd last one through ``BN_mod_exp_mont``.  The
partial results are multiplied inside libcrypto, and the result is read
back once.  Montgomery arithmetic rejects an even modulus, so
``product`` raises ValueError on one.

A product of at least SPLIT_PAIRS non-zero pairs is cut in two, along
whole ``BN_mod_exp2_mont`` pairs, when the host has two or more cores
(``THREADS``): the calling thread computes one part while one worker
thread computes the other, and the two parts are multiplied mod
``mod``.  The parts run at once because the two exponentiations
are called through a ``ctypes.CDLL``, which releases the interpreter
lock for the call; every other libcrypto call is short and goes through
a ``ctypes.PyDLL``, which keeps the lock, so the two threads do not
hand it back and forth between exponentiations.  SPLIT_PAIRS is the
measured crossover at the production profile (1024-bit p, 160-bit
exponents; CPython 3.11 on a 2-core x86_64 VM) for a worker that has
sat idle for a few milliseconds, as it does between the products of a
set-up or a packet check.  Waking it then costs a few hundred
microseconds, which is also why it takes one pair fewer than half.
Split after 2 or 20 ms of other work, a product ran 0.82 times as fast
as on one thread at 8 non-zero pairs, 0.92 times at 10, 0.98-1.07 at
16, 1.07-1.17 at 20, 1.23 at 24 and 1.30-1.37 at 36.  Back to back the
worker wakes sooner, and split products ran 1.09 times as fast at 8
pairs, 1.29 at 10 and 1.48 at 36.

The library is loaded by its soname, ``libcrypto.so.3``, the OpenSSL 3
that CPython's ``_hashlib`` links; it is never looked up with
``ctypes.util.find_library``, which on macOS names a stub that aborts
the process when loaded.  If the library or any of its symbols cannot
be loaded, ``product`` is ``pow_product`` and no thread is ever made.

State.  Once libcrypto is loaded, the module keeps two things:

* for each odd modulus it has seen, the modulus as a ``BIGNUM`` and its
  ``BN_MONT_CTX`` (about 1 KB at 1024 bits, kept for the life of the
  process; the program uses one modulus per profile).  They are never
  written after they are built, so every call and both halves of a
  split read them at once.  Two threads that meet a new modulus
  together may each build it; one copy is kept and the other freed.
* one ``ThreadPoolExecutor`` with one worker thread, made at import,
  whose thread starts at the first split.  A call's bignums come from
  its own ``BN_CTX`` (one per half), freed before it returns, so calls
  from several threads do not interact: each waits for the half it
  handed to the worker, and the halves of several calls queue for it.

After ``fork`` the child has no worker thread, so a handler registered
with ``os.register_at_fork`` gives the child a new executor, whose
worker starts at the child's first split.  The Montgomery contexts are
plain memory and stay valid in the child.  Like builtin ``pow``, the
kernel is not constant-time.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from collections.abc import Sequence
from concurrent import futures

SONAME = "libcrypto.so.3"
SPLIT_PAIRS = 20  # products of this many non-zero pairs and up are split over two threads
THREADS = 2 if (os.cpu_count() or 1) >= 2 else 1  # threads a split product runs on


def pow_product(terms: Sequence[tuple[int, int]], mod: int) -> int:
    """prod b^e mod ``mod`` over the (b, e) pairs, e >= 0, one builtin pow each."""
    out = 1
    for b, e in terms:
        out = out * pow(b, e, mod) % mod
    return out


def route() -> str:
    """The name of the route ``product`` takes."""
    if product is pow_product:
        return "builtin pow"
    if THREADS < 2:
        return "libcrypto BN_mod_exp2_mont"
    return f"libcrypto BN_mod_exp2_mont, {THREADS} threads from {SPLIT_PAIRS} pairs"


def _load():
    """The libcrypto product kernel, or ``pow_product`` if libcrypto cannot be loaded."""
    try:
        # Calls through a PyDLL keep the interpreter lock, so the short
        # ones never hand it to the other part's thread; the two
        # exponentiations come from a CDLL, whose calls release it.
        lib = ctypes.PyDLL(SONAME)
        released = ctypes.CDLL(SONAME)
        for name in ("BN_mod_exp_mont", "BN_mod_exp2_mont"):
            setattr(lib, name, getattr(released, name))
        ptr, buf, size = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
        for name, restype, argtypes in (
            ("BN_new", ptr, ()),
            ("BN_free", None, (ptr,)),
            ("BN_MONT_CTX_new", ptr, ()),
            ("BN_MONT_CTX_free", None, (ptr,)),
            ("BN_MONT_CTX_set", size, (ptr, ptr, ptr)),
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

    moduli: dict[int, tuple[int, int]] = {}  # mod -> (BIGNUM, BN_MONT_CTX), read-only once built
    pool = None

    def new_pool() -> None:
        nonlocal pool
        pool = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="modexp")

    new_pool()  # its worker starts at the first split
    os.register_at_fork(after_in_child=new_pool)

    def load(bn, value: int) -> None:
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        if not lib.BN_bin2bn(raw, len(raw), bn):
            raise MemoryError("BN_bin2bn failed")

    def montgomery(mod: int, ctx) -> tuple[int, int]:
        """``mod`` as a BIGNUM and its Montgomery context, built the first time."""
        entry = moduli.get(mod)
        if entry is None:
            bn, mont = lib.BN_new(), lib.BN_MONT_CTX_new()
            try:
                if not (bn and mont):
                    raise MemoryError("BN_new failed")
                load(bn, mod)
                if not lib.BN_MONT_CTX_set(mont, bn, ctx):
                    raise MemoryError("BN_MONT_CTX_set failed")
                entry = moduli.setdefault(mod, (bn, mont))
            finally:
                if entry != (bn, mont):  # failed, or another thread stored its copy first
                    lib.BN_MONT_CTX_free(mont)
                    lib.BN_free(bn)
        return entry

    @contextlib.contextmanager
    def context():
        """A started BN_CTX, ended and freed on exit with every bignum taken from it."""
        ctx = lib.BN_CTX_new()
        if not ctx:
            raise MemoryError("BN_CTX_new failed")
        lib.BN_CTX_start(ctx)
        try:
            yield ctx
        finally:
            lib.BN_CTX_end(ctx)
            lib.BN_CTX_free(ctx)

    def power(ctx, values: list[int], m, mont):
        """A bignum from ctx set to prod b^e mod m over the flattened (b, e) ``values``."""
        acc, part, a1, p1, a2, p2 = bns = [lib.BN_CTX_get(ctx) for _ in range(6)]
        if not all(bns):
            raise MemoryError("BN_CTX_get failed")
        for i in range(0, len(values), 4):
            out = part if i else acc
            for bn, v in zip((a1, p1, a2, p2), values[i : i + 4]):
                load(bn, v)
            if i + 2 < len(values):
                ok = lib.BN_mod_exp2_mont(out, a1, p1, a2, p2, m, ctx, mont)
            else:
                ok = lib.BN_mod_exp_mont(out, a1, p1, m, ctx, mont)
            if not ok or (i and not lib.BN_mod_mul(acc, acc, part, m, ctx)):
                raise MemoryError("Montgomery exponentiation failed")
        return acc

    def halves(ctx, values: list[int], m, mont):
        """``power`` of ``values``, with about half of its pairs on the worker thread."""
        # The worker starts a wake-up later, so it takes one pair fewer than half.
        cut = 4 * ((len(values) // 4 - 1) // 2)
        with context() as worker_ctx:
            job = pool.submit(power, worker_ctx, values[:cut], m, mont)
            try:
                acc = power(ctx, values[cut:], m, mont)
            finally:
                futures.wait((job,))  # the worker is done with worker_ctx
            if not lib.BN_mod_mul(acc, acc, job.result(), m, ctx):
                raise MemoryError("BN_mod_mul failed")
        return acc

    def product(terms: Sequence[tuple[int, int]], mod: int) -> int:
        """prod b^e mod ``mod`` over the (b, e) pairs, e >= 0, mod odd."""
        if mod % 2 == 0:
            raise ValueError("Montgomery exponentiation needs an odd modulus")
        values = [v for b, e in terms if e for v in (b % mod, e)]
        if not values:
            return 1 % mod
        with context() as ctx:
            m, mont = montgomery(mod, ctx)
            split = THREADS > 1 and len(values) >= 2 * SPLIT_PAIRS
            acc = (halves if split else power)(ctx, values, m, mont)
            width = (mod.bit_length() + 7) // 8
            raw = ctypes.create_string_buffer(width)
            if lib.BN_bn2binpad(acc, raw, width) != width:
                raise MemoryError("BN_bn2binpad failed")
            return int.from_bytes(raw.raw, "big")

    return product


product = _load()

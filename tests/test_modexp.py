"""The libcrypto product kernel against one builtin pow per term, and its fallback."""

import ctypes
import importlib
import inspect
import itertools
import multiprocessing
import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlncheck import modexp, validity
from rlncheck.profiles import PRODUCTION, SIM, TEST

PROFILES = [TEST, SIM, PRODUCTION]
CDLL = ctypes.CDLL

needs_kernel = pytest.mark.skipif(
    modexp.product is modexp.pow_product, reason="libcrypto is not loaded"
)


def one_pow_per_term(terms, p):
    out = 1
    for b, e in terms:
        out = out * pow(b, e, p) % p
    return out


def edge_bases(p):
    return [0, 1, p - 1, p, 2 * p + 3, -1, -(p + 2), p // 3]


def edge_exponents(q):
    return [0, 1, q - 1, q, 2**200]


@needs_kernel
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_equals_one_pow_per_term(profile, data):
    p, q = profile.p, profile.q
    base = st.one_of(
        st.sampled_from([0, 1, p - 1, p, 2 * p + 3, -1, -p, -p - 2]),
        st.integers(min_value=-3 * p, max_value=3 * p),
    )
    exp = st.one_of(
        st.sampled_from([0, 1, q, 2**200]),
        st.integers(min_value=0, max_value=2**200),
    )
    terms = data.draw(st.lists(st.tuples(base, exp), max_size=6))
    assert modexp.product(terms, p) == one_pow_per_term(terms, p)
    for b, e in terms:
        assert modexp.product([(b, e)], p) == pow(b % p, e, p) == pow(b, e, p)


@needs_kernel
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_edge_inputs(profile):
    p, q = profile.p, profile.q
    bases, exps = edge_bases(p), edge_exponents(q)
    for base in bases:
        for exp in exps:
            assert modexp.product([(base, exp)], p) == pow(base, exp, p)
    # Each run of 0 to 5 consecutive edge terms, so that pairs and an odd
    # last term both run.
    pool = list(itertools.product(bases, exps))
    for count in range(6):
        for start in range(len(pool) - count + 1):
            terms = pool[start : start + count]
            assert modexp.product(terms, p) == one_pow_per_term(terms, p), terms


@needs_kernel
def test_even_modulus():
    """Montgomery exponentiation rejects an even modulus: the kernel
    raises, and validity takes the pure route, which is still correct."""
    p = PRODUCTION.p + 1
    assert p % 2 == 0 and p.bit_length() >= validity.NATIVE_BITS
    with pytest.raises(ValueError):
        modexp.product([(3, 5)], p)
    assert validity.route(p) == "pure Python"
    bases, exps = edge_bases(p)[:5], [1, 2**100 + 1, 7, PRODUCTION.q - 1, 3]
    assert validity.power_product(bases, exps, p, PRODUCTION.q) == one_pow_per_term(
        zip(bases, exps), p
    )


def kernel_lib():
    """The libcrypto handle the kernel calls through."""
    return inspect.getclosurevars(modexp.product).nonlocals["lib"]


def split_terms(count, p, q, seed=0):
    """``count`` terms with a non-zero exponent, bases and exponents at and
    past p and q among them, and a zero-exponent term after every third.
    No base is a multiple of p, which would make every product 0."""
    rng = random.Random(seed)
    bases = [1, p - 1, p + 1, 2 * p + 3, -1, -(p + 2), p // 3]
    exps = [1, q - 1, q, q + 1, 2**200]
    terms = []
    for i in range(count):
        base = bases[i % len(bases)] if i % 2 else rng.randrange(1, p) + rng.randrange(3) * p
        terms.append((base, exps[i % len(exps)] if i % 3 else rng.randrange(1, 4 * q)))
        if i % 3 == 2:
            terms.append((rng.randrange(p), 0))
    return terms


@pytest.fixture
def contexts(monkeypatch):
    """Every BN_CTX the kernel makes, as made, and as freed."""
    lib, made, freed = kernel_lib(), [], []
    new, free = lib.BN_CTX_new, lib.BN_CTX_free
    monkeypatch.setattr(lib, "BN_CTX_new", lambda: made.append(new()) or made[-1])
    monkeypatch.setattr(lib, "BN_CTX_free", lambda ctx: (freed.append(ctx), free(ctx)))
    return made, freed


@needs_kernel
@pytest.mark.parametrize(
    "failing", ["BN_mod_exp2_mont", "BN_mod_exp_mont", "BN_mod_mul", "worker"]
)
def test_failed_call_frees_the_context(monkeypatch, contexts, failing):
    """A libcrypto call that fails raises in the caller, on either thread
    of a split product, and every context that holds bignums of the
    product, one per thread, is still ended and freed."""
    made, freed = contexts
    monkeypatch.setattr(modexp, "THREADS", 2)
    if failing == "worker":
        caller, exp2 = threading.current_thread(), kernel_lib().BN_mod_exp2_mont
        monkeypatch.setattr(kernel_lib(), "BN_mod_exp2_mont", lambda *args: (
            threading.current_thread() is caller and exp2(*args)))
    else:
        monkeypatch.setattr(kernel_lib(), failing, lambda *args: 0)
    for count in (3, 2 * modexp.SPLIT_PAIRS + 1):
        made.clear()
        freed.clear()
        terms = [(b, b + 6) for b in range(2, 2 + count)]
        if failing == "worker" and count < modexp.SPLIT_PAIRS:
            assert modexp.product(terms, PRODUCTION.p) == one_pow_per_term(terms, PRODUCTION.p)
        else:
            with pytest.raises(MemoryError):
                modexp.product(terms, PRODUCTION.p)
        assert len(made) == (1 if count < modexp.SPLIT_PAIRS else 2) and all(made)
        assert sorted(freed) == sorted(made)


@needs_kernel
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_split_equals_one_pow_per_term(monkeypatch, contexts, profile):
    """Every non-zero term count from 1 to 2K+1, and 36, equals one pow per
    term, and a product takes two threads from K non-zero pairs on."""
    made, _ = contexts
    monkeypatch.setattr(modexp, "THREADS", 2)
    p, q = profile.p, profile.q
    for count in [*range(1, 2 * modexp.SPLIT_PAIRS + 2), 36]:
        made.clear()
        terms = split_terms(count, p, q, seed=count)
        assert sum(1 for _, e in terms if e) == count
        assert modexp.product(terms, p) == one_pow_per_term(terms, p) != 0, count
        assert len(made) == (2 if count >= modexp.SPLIT_PAIRS else 1), count
    # A base that is a multiple of p, in either half, makes the product 0.
    for at in (0, -1):
        terms = split_terms(2 * modexp.SPLIT_PAIRS + 1, p, q)
        terms[at] = (2 * p, 5)
        assert modexp.product(terms, p) == 0


@needs_kernel
def test_threads_calling_at_once(monkeypatch):
    """Six threads, more than the cores, each call the kernel on products
    below, at and above the split, with a short switch interval, and every
    result equals one pow per term."""
    monkeypatch.setattr(modexp, "THREADS", 2)
    p, q = PRODUCTION.p, PRODUCTION.q
    counts = (1, 3, modexp.SPLIT_PAIRS, 2 * modexp.SPLIT_PAIRS + 1, 36)
    cases = [split_terms(c, p, q, seed=c) for c in counts]
    expected = [one_pow_per_term(terms, p) for terms in cases]
    results = {}

    def call(worker):
        results[worker] = [modexp.product(terms, p) for _ in range(4) for terms in cases]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {i: expected * 4 for i in range(6)}


def product_in_child(terms, p, conn):
    conn.send(modexp.product(terms, p))
    conn.close()


@needs_kernel
def test_forked_child_gets_its_own_worker(monkeypatch):
    """A child forked after the parent's worker thread started computes a
    split product: the parent's worker does not exist in the child."""
    monkeypatch.setattr(modexp, "THREADS", 2)
    p, q = PRODUCTION.p, PRODUCTION.q
    terms = split_terms(2 * modexp.SPLIT_PAIRS + 1, p, q)
    assert modexp.product(terms, p) == one_pow_per_term(terms, p)
    assert any(t.name.startswith("modexp") for t in threading.enumerate())
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=product_in_child, args=(terms, p, send))
    child.start()
    try:
        assert receive.poll(timeout=60), "the child's split product did not finish"
        assert receive.recv() == one_pow_per_term(terms, p)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


class Missing:
    """A loaded library that lacks every symbol."""

    def __getattr__(self, name):
        raise AttributeError(name)


class MissingPair:
    """libcrypto as loaded, save that it lacks BN_mod_exp2_mont."""

    def __init__(self, name):
        self.lib = CDLL(name)

    def __getattr__(self, name):
        if name == "BN_mod_exp2_mont":
            raise AttributeError(name)
        return getattr(self.lib, name)


def no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize(
    "loader", [no_library, lambda name: Missing(), MissingPair], ids=["library", "symbol", "pair"]
)
def test_failed_load_leaves_builtin_pow(monkeypatch, loader):
    """Without the library, or one of its symbols, products take builtin
    pow, and no product, however long, starts a thread."""
    loaded = modexp.product is not modexp.pow_product
    threads = set(threading.enumerate())
    with monkeypatch.context() as mp:
        mp.setattr(ctypes, "CDLL", loader)
        importlib.reload(modexp)
        assert modexp.product is modexp.pow_product
        assert modexp.route() == "builtin pow"
        assert validity.route(PRODUCTION.p) == "pure Python"
        assert validity.power_product([2, 3], [5, 7], PRODUCTION.p, PRODUCTION.q) == (
            pow(2, 5, PRODUCTION.p) * pow(3, 7, PRODUCTION.p) % PRODUCTION.p
        )
        terms = split_terms(36, PRODUCTION.p, PRODUCTION.q)
        assert modexp.product(terms, PRODUCTION.p) == one_pow_per_term(terms, PRODUCTION.p)
        assert set(threading.enumerate()) == threads
    importlib.reload(modexp)
    assert (modexp.product is not modexp.pow_product) == loaded


@needs_kernel
def test_one_core_never_splits(monkeypatch):
    """On a host with one core a product of any length is one call on the
    calling thread, and the route names no threads."""
    with monkeypatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 1)
        importlib.reload(modexp)
        assert modexp.THREADS == 1
        assert modexp.route() == validity.route(PRODUCTION.p) == "libcrypto BN_mod_exp2_mont"
        lib, made = kernel_lib(), []
        new = lib.BN_CTX_new
        mp.setattr(lib, "BN_CTX_new", lambda: made.append(new()) or made[-1])
        workers = [t for t in threading.enumerate() if t.name.startswith("modexp")]
        terms = split_terms(36, PRODUCTION.p, PRODUCTION.q)
        assert modexp.product(terms, PRODUCTION.p) == one_pow_per_term(terms, PRODUCTION.p)
        assert len(made) == 1
        assert [t for t in threading.enumerate() if t.name.startswith("modexp")] == workers
    importlib.reload(modexp)
    assert modexp.THREADS == (2 if (os.cpu_count() or 1) >= 2 else 1)


@needs_kernel
def test_route_names_the_split(monkeypatch):
    monkeypatch.setattr(modexp, "THREADS", 2)
    assert modexp.route() == validity.route(PRODUCTION.p) == (
        f"libcrypto BN_mod_exp2_mont, 2 threads from {modexp.SPLIT_PAIRS} pairs"
    )

"""The libcrypto product kernel against one builtin pow per term, and its fallback."""

import ctypes
import importlib
import inspect
import itertools

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


@needs_kernel
@pytest.mark.parametrize("failing", ["BN_mod_exp2_mont", "BN_mod_exp_mont", "BN_mod_mul"])
def test_failed_call_frees_the_context(monkeypatch, failing):
    """A libcrypto call that fails raises, and the context that holds
    every bignum of the product is still ended and freed."""
    lib = inspect.getclosurevars(modexp.product).nonlocals["lib"]
    freed = []
    free = lib.BN_CTX_free
    monkeypatch.setattr(lib, failing, lambda *args: 0)
    monkeypatch.setattr(lib, "BN_CTX_free", lambda ctx: (freed.append(ctx), free(ctx)))
    p = PRODUCTION.p
    with pytest.raises(MemoryError):
        modexp.product([(2, 3), (5, 7), (11, 13)], p)
    assert len(freed) == 1 and freed[0]


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
    loaded = modexp.product is not modexp.pow_product
    with monkeypatch.context() as mp:
        mp.setattr(ctypes, "CDLL", loader)
        importlib.reload(modexp)
        assert modexp.product is modexp.pow_product
        assert validity.route(PRODUCTION.p) == "pure Python"
        assert validity.power_product([2, 3], [5, 7], PRODUCTION.p, PRODUCTION.q) == (
            pow(2, 5, PRODUCTION.p) * pow(3, 7, PRODUCTION.p) % PRODUCTION.p
        )
    importlib.reload(modexp)
    assert (modexp.product is not modexp.pow_product) == loaded

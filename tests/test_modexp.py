"""The BN_mod_exp kernel against builtin pow, and its fallback."""

import ctypes
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlncheck import modexp, validity
from rlncheck.profiles import PRODUCTION, SIM, TEST

PROFILES = [TEST, SIM, PRODUCTION]

needs_kernel = pytest.mark.skipif(modexp.powmod is pow, reason="libcrypto is not loaded")


@needs_kernel
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_equals_builtin_pow(profile, data):
    p, q = profile.p, profile.q
    base = data.draw(st.one_of(
        st.sampled_from([0, 1, p - 1, p, 2 * p + 3, -1, -p, -p - 2]),
        st.integers(min_value=-3 * p, max_value=3 * p),
    ))
    exp = data.draw(st.one_of(
        st.sampled_from([0, 1, q, 2**200]),
        st.integers(min_value=0, max_value=2**200),
    ))
    assert modexp.powmod(base, exp, p) == pow(base % p, exp, p) == pow(base, exp, p)


@needs_kernel
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_edge_inputs(profile):
    p, q = profile.p, profile.q
    for base in (0, 1, p - 1, p, 2 * p + 3, -1, -(p + 2), p // 3):
        for exp in (0, 1, q, q - 1, 2**200):
            assert modexp.powmod(base, exp, p) == pow(base, exp, p)


class Missing:
    """A loaded library that lacks every symbol."""

    def __getattr__(self, name):
        raise AttributeError(name)


def no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("loader", [no_library, lambda name: Missing()], ids=["library", "symbol"])
def test_failed_load_leaves_builtin_pow(monkeypatch, loader):
    loaded = modexp.powmod is not pow
    with monkeypatch.context() as mp:
        mp.setattr(ctypes, "CDLL", loader)
        importlib.reload(modexp)
        assert modexp.powmod is pow
        assert validity.route(PRODUCTION.p) == "pure Python"
    importlib.reload(modexp)
    assert (modexp.powmod is not pow) == loaded

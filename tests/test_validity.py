"""Homomorphic validity signatures: hand oracles and soundness at desk scale."""

import hashlib
import inspect
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlncheck import gf, modexp, pipcore, sigcrypto, validity
from rlncheck.cli import build_token_fixture
from rlncheck.profiles import PRODUCTION, SIM, TEST
from rlncheck.validity import SourceEpochParams


def reference_product(bases, exponents, p, q):
    """prod b_i^(e_i mod q) mod p, one pow per term."""
    out = 1
    for b, e in zip(bases, exponents):
        out = out * pow(b, e % q, p) % p
    return out


@pytest.fixture(scope="class", params=["kernel", "python"])
def route(request):
    """Runs a class once with the libcrypto kernel as loaded and once with
    it switched off, so that the production profile takes each route."""
    if request.param == "kernel":
        if modexp.product is modexp.pow_product:
            pytest.skip("libcrypto is not loaded")
        yield request.param
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modexp, "product", modexp.pow_product)
        yield request.param


class TestEpochSetup:
    def test_fresh_generators_per_epoch(self, rng):
        master = sigcrypto.keygen(rng, b"src")
        originals = gf.standard_basis_originals([[3], [5]], TEST.q)
        p1 = validity.epoch_setup(master, originals, 1, rng, TEST)
        p2 = validity.epoch_setup(master, originals, 2, rng, TEST)
        assert p1.generators != p2.generators

    def test_master_signature_verifies(self, tiny_epoch):
        master, _, params = tiny_epoch
        assert validity.verify_epoch(params, master.pk)

    def test_original_hashes_match_signing(self, tiny_epoch):
        _, originals, params = tiny_epoch
        for j, pkt in enumerate(originals):
            assert validity.sign_validity(params, pkt) == params.original_hashes[j]

    def test_requires_standard_basis(self, rng):
        master = sigcrypto.keygen(rng, b"src")
        bad = [gf.vector([3], [2, 0], TEST.q), gf.vector([5], [0, 1], TEST.q)]
        with pytest.raises(ValueError):
            validity.epoch_setup(master, bad, 1, rng, TEST)

    def test_requires_at_least_one_packet(self, rng):
        master = sigcrypto.keygen(rng, b"src")
        with pytest.raises(ValueError):
            validity.epoch_setup(master, [], 1, rng, TEST)

    def test_generators_distinct_and_order_q(self, tiny_epoch):
        _, _, params = tiny_epoch
        assert len(set(params.generators)) == len(params.generators)
        for g in params.generators:
            assert g != 1
            assert pow(g, params.q, params.p) == 1


def hand_params(generators, original_payloads, p=23, q=11):
    """Epoch parameters with chosen generators (master_sig left empty)."""
    m = len(original_payloads)
    originals = gf.standard_basis_originals(original_payloads, q)
    partial = SourceEpochParams(
        k=1, p=p, q=q, generators=tuple(generators),
        original_hashes=tuple(
            reference_product(generators, o.chunks, p, q) for o in originals
        ),
        master_sig=b"",
    )
    return originals, partial


class TestSignValidity:
    def test_all_zero_packet_is_identity(self, tiny_epoch):
        _, _, params = tiny_epoch
        zero = gf.vector([0, 0], [0, 0], params.q)
        assert validity.sign_validity(params, zero) == 1

    def test_hand_exponentiation(self):
        # generators (2,3) mod 23, packet (1|1): 2^1 * 3^1 = 6
        _, params = hand_params([2, 3], [[0]])
        E = gf.vector([1], [1], 11)
        assert validity.sign_validity(params, E) == 6

    def test_dimension_mismatch(self, tiny_epoch):
        _, _, params = tiny_epoch
        with pytest.raises(ValueError):
            validity.sign_validity(params, gf.vector([1], [1], params.q))


class TestVerifyValidity:
    def test_honest_combination_accepts(self, tiny_epoch, rng):
        _, originals, params = tiny_epoch
        for _ in range(50):
            coeffs = [gf.random_nonzero(params.q, rng) for _ in originals]
            E = gf.linear_combine(originals, coeffs, params.q)
            assert validity.verify_validity(params, E, validity.sign_validity(params, E))

    def test_altered_payload_rejected(self, tiny_epoch, rng):
        _, originals, params = tiny_epoch
        E = gf.linear_combine(originals, [2, 3], params.q)
        sigma = validity.sign_validity(params, E)
        polluted = gf.vector(
            [(E.payload[0] + 1) % params.q, E.payload[1]], E.coding_vector, params.q
        )
        assert not validity.verify_validity(params, polluted, sigma)

    def test_identity_sigma_on_nonzero_packet_rejected(self, tiny_epoch, rng):
        _, originals, params = tiny_epoch
        # At p=23 the true sigma can coincide with 1; test a packet where
        # it does not, which is what the identity-substitution attack needs.
        for _ in range(50):
            coeffs = [gf.random_nonzero(params.q, rng) for _ in originals]
            E = gf.linear_combine(originals, coeffs, params.q)
            if validity.sign_validity(params, E) != 1:
                break
        assert validity.sign_validity(params, E) != 1
        assert not validity.verify_validity(params, E, 1)

    def test_never_raises_on_garbage(self, tiny_epoch):
        _, _, params = tiny_epoch
        assert not validity.verify_validity(params, gf.vector([1], [1], params.q), 5)
        assert not validity.verify_validity(
            params, gf.vector([1, 1], [1, 1], params.q), b"junk"
        )
        assert not validity.verify_validity(
            params, gf.vector([1, 1], [1, 1], params.q), params.p + 5
        )


@pytest.mark.usefixtures("route")
class TestCombineValidity:
    def test_identity_coefficient(self, tiny_epoch):
        _, originals, params = tiny_epoch
        s = validity.sign_validity(params, originals[0])
        assert validity.combine_validity([s], [1], params) == s

    def test_zero_coefficient_contributes_identity(self, tiny_epoch):
        _, originals, params = tiny_epoch
        s0 = validity.sign_validity(params, originals[0])
        s1 = validity.sign_validity(params, originals[1])
        assert validity.combine_validity([s0, s1], [1, 0], params) == s0

    def test_length_mismatch(self, tiny_epoch):
        _, _, params = tiny_epoch
        with pytest.raises(ValueError):
            validity.combine_validity([1, 2], [1], params)

    @pytest.mark.parametrize("profile", [TEST, SIM, PRODUCTION], ids=lambda p: p.name)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_one_pow_per_term(self, profile, data):
        """Bit-identical to one pow per factor for any integer sigma (reduced
        mod p) and any coefficient (reduced mod q), d = 1..12."""
        p, q = profile.p, profile.q
        params = SourceEpochParams(k=1, p=p, q=q, generators=(), original_hashes=(), master_sig=b"")
        sigma = st.one_of(
            st.sampled_from([1, p - 1, p, p + 1, 2 * p + 3, 0, -1, -p - 2]),
            st.integers(min_value=-3 * p, max_value=3 * p),
        )
        coeff = st.one_of(
            st.sampled_from([0, 1, q, q + 1, -1, 2**200]),
            st.integers(min_value=-(2**200), max_value=2**200),
        )
        d = data.draw(st.integers(min_value=1, max_value=12))
        sigmas = data.draw(st.lists(sigma, min_size=d, max_size=d))
        coeffs = data.draw(st.lists(coeff, min_size=d, max_size=d))
        assert validity.combine_validity(sigmas, coeffs, params) == reference_product(
            sigmas, coeffs, p, q
        )

    @pytest.mark.parametrize("profile", [TEST, SIM, PRODUCTION], ids=lambda p: p.name)
    def test_zero_exponents_and_zero_bases(self, profile):
        p, q = profile.p, profile.q
        params = SourceEpochParams(k=1, p=p, q=q, generators=(), original_hashes=(), master_sig=b"")
        assert validity.combine_validity([5, p - 1, 7], [q, 0, -q], params) == 1
        assert validity.combine_validity([0, 2 * p], [0, q], params) == 1
        assert validity.combine_validity([0, 3], [1, 1], params) == 0
        assert validity.combine_validity([p - 1] * 12, [1] * 12, params) == 1

    def test_homomorphism_oracle(self, tiny_epoch, rng):
        """combine(sign(E_i), a_i) == sign(combine(E_i, a_i)), 500 cases."""
        _, originals, params = tiny_epoch
        packets = [
            gf.linear_combine(originals, [gf.random_nonzero(params.q, rng) for _ in originals], params.q)
            for _ in range(6)
        ]
        sigmas = [validity.sign_validity(params, E) for E in packets]
        for _ in range(500):
            k = rng.randint(1, len(packets))
            idx = rng.sample(range(len(packets)), k)
            coeffs = [rng.randrange(params.q) for _ in idx]
            lhs = validity.combine_validity([sigmas[i] for i in idx], coeffs, params)
            rhs = validity.sign_validity(
                params, gf.linear_combine([packets[i] for i in idx], coeffs, params.q)
            )
            assert lhs == rhs


class TestSoundness:
    def test_no_payload_forgery_tiny_group(self):
        """Exhaustive search at p=23: no payload E' != E shares sigma and
        coding vector (single payload chunk, so exponents stay below q
        and no discrete-log collision is possible)."""
        _, params = hand_params([2, 3], [[4]])
        for e1 in range(params.q):
            E = gf.vector([e1], [1], params.q)
            sigma = validity.sign_validity(params, E)
            for other in range(params.q):
                if other == e1:
                    continue
                E2 = gf.vector([other], [1], params.q)
                assert validity.sign_validity(params, E2) != sigma or not (
                    validity.verify_validity(params, E2, sigma)
                )

    def test_epoch_separation_detects_replay(self, rng):
        master = sigcrypto.keygen(rng, b"src")
        originals = gf.standard_basis_originals([[3, 7], [5, 2]], TEST.q)
        p1 = validity.epoch_setup(master, originals, 1, rng, TEST)
        p2 = validity.epoch_setup(master, originals, 2, rng, TEST)
        E = gf.linear_combine(originals, [2, 3], TEST.q)
        sigma = validity.sign_validity(p1, E)
        assert validity.verify_validity(p1, E, sigma)
        assert not validity.verify_validity(p2, E, sigma)

    def test_end_to_end_random_dags(self, rng):
        """Every packet honestly re-coded through a random relay chain verifies."""
        master = sigcrypto.keygen(rng, b"src")
        for trial in range(20):
            originals = gf.standard_basis_originals(
                [[rng.randrange(TEST.q) for _ in range(2)] for _ in range(2)], TEST.q
            )
            params = validity.epoch_setup(master, originals, trial, rng, TEST)
            pool = [(E, validity.sign_validity(params, E)) for E in originals]
            for _ in range(8):
                k = rng.randint(1, min(3, len(pool)))
                picks = rng.sample(pool, k)
                coeffs = [gf.random_nonzero(params.q, rng) for _ in picks]
                E = gf.linear_combine([p[0] for p in picks], coeffs, params.q)
                sigma = validity.combine_validity([p[1] for p in picks], coeffs, params)
                assert validity.verify_validity(params, E, sigma)
                pool.append((E, sigma))


# (profile, n, m, SHA-256 prefixes of epoch_pk_bytes() and master_sig, and
# the rng's next 64 bits after epoch_setup), pinned before epoch_setup took
# the source's trapdoor.
TRAPDOOR_PINS = [
    (TEST, 2, 2, "0e2a84aa1d4b89bd4149f765a957d7cd", "41a1d1ddedc9c5f0ebc868873e214e8d",
     5852917849891658353),
    (SIM, 2, 3, "6c2d2f662fc269b7689f966038b33eba", "a1cf161cfcfea74f1e4220287c0c8fd1",
     2572358208257570146),
    (PRODUCTION, 32, 4, "12d26753d2a5527eabea0cdcf9f7b55b", "99de9b2ae4c18a4f458cd97e3f43ed4f",
     9078662522132898947),
]


@pytest.mark.usefixtures("route")
@pytest.mark.parametrize("profile, n, m, pk_sha, sig_sha, next_bits", TRAPDOOR_PINS,
                         ids=lambda v: getattr(v, "name", None))
class TestTrapdoor:
    """epoch_setup hashes the originals with the r_i of g_i = g^{r_i}, and
    publishes what it did before, whichever route its powers take."""

    @staticmethod
    def setup_epoch(profile, n, m):
        """(originals, params, master, the r_i the call drew, the rng after it)."""
        rng = random.Random(f"trapdoor/{profile.name}")
        master = sigcrypto.keygen(rng, b"src")
        originals = gf.standard_basis_originals(
            [[rng.randrange(profile.q) for _ in range(n)] for _ in range(m)], profile.q
        )
        replay = random.Random()
        replay.setstate(rng.getstate())
        params = validity.epoch_setup(master, originals, 3, rng, profile)
        exponents = []
        while len(exponents) < n + m:
            r = replay.randrange(1, profile.q)
            if r not in exponents:
                exponents.append(r)
        return originals, params, master, exponents, rng

    def test_hashes_equal_one_pow_per_term(self, profile, n, m, pk_sha, sig_sha, next_bits):
        originals, params, _, exponents, _ = self.setup_epoch(profile, n, m)
        p, q = params.p, params.q
        assert params.generators == tuple(pow(profile.g, r, p) for r in exponents)
        for o, h in zip(originals, params.original_hashes, strict=True):
            assert h == reference_product(params.generators, o.chunks, p, q)

    def test_published_bytes_and_rng_are_pinned(self, profile, n, m, pk_sha, sig_sha, next_bits):
        _, params, _, _, rng = self.setup_epoch(profile, n, m)
        assert hashlib.sha256(params.epoch_pk_bytes()).hexdigest()[:32] == pk_sha
        assert hashlib.sha256(params.master_sig).hexdigest()[:32] == sig_sha
        assert rng.getrandbits(64) == next_bits

    def test_exponents_are_dropped(self, profile, n, m, pk_sha, sig_sha, next_bits):
        """The parameters hold their fields and caches only, and neither they
        nor the master identity hold the r_i, after the products have
        filled the caches."""
        originals, params, master, exponents, _ = self.setup_epoch(profile, n, m)
        sigma = validity.sign_validity(params, originals[0])
        assert validity.verify_validity(params, originals[0], sigma)
        params.epoch_pk_bytes()
        names = {f.name for f in fields(params)}
        assert set(vars(params)) <= names | {"_pk_bytes", "_generator_base", "_hash_base"}
        for holder in (params, master):
            for name, value in vars(holder).items():
                if isinstance(value, (list, tuple)):
                    assert not set(exponents) <= set(value), name


class TestEpochPkBytes:
    def test_layout(self, tiny_epoch):
        _, _, params = tiny_epoch
        raw = params.epoch_pk_bytes()
        expected_len = 8 + params.p_bytes + params.q_bytes + (
            len(params.generators) + len(params.original_hashes)
        ) * params.p_bytes
        assert len(raw) == expected_len
        assert raw[:8] == (1).to_bytes(8, "big")
        assert raw[8] == params.p

    def test_memoised_per_instance(self, tiny_epoch):
        _, _, params = tiny_epoch
        assert params.epoch_pk_bytes() is params.epoch_pk_bytes()
        other = replace(params, k=2)
        assert other.epoch_pk_bytes()[:8] == (2).to_bytes(8, "big")
        assert other.epoch_pk_bytes()[8:] == params.epoch_pk_bytes()[8:]


# (profile, n, m): a multi-chunk epoch per profile (36 chunks at production,
# the relay's shape) and a single-chunk one (n=0, m=1).
EPOCH_SHAPES = [
    (TEST, 2, 2), (TEST, 0, 1),
    (SIM, 2, 3), (SIM, 0, 1),
    (PRODUCTION, 32, 4), (PRODUCTION, 0, 1),
]


@pytest.fixture(scope="module", params=EPOCH_SHAPES, ids=lambda s: f"{s[0].name}-n{s[1]}-m{s[2]}")
def shaped_epoch(request):
    profile, n, m = request.param
    rng = random.Random(f"multiexp/{profile.name}/{n}/{m}")
    master = sigcrypto.keygen(rng, b"src")
    originals = gf.standard_basis_originals(
        [[rng.randrange(profile.q) for _ in range(n)] for _ in range(m)], profile.q
    )
    return originals, validity.epoch_setup(master, originals, 1, rng, profile)


def edge_exponents(q):
    """0, 1, q-1, q, values >= q (past 2^|q| too) and negative values."""
    big = 1 << q.bit_length()
    return [0, 1, q - 1, q, q + 1, 3 * q + 7, big, (big << 9) + 5, -1, -q, -(5 * q) - 3]


def unreduced_vectors(n, m, q, rng):
    """Packet vectors with unreduced chunks: all zero, one non-zero chunk
    at every position, and mixes of edge and random values."""
    edges = edge_exponents(q)
    vectors = [gf.CodedVector(payload=(0,) * n, coding_vector=(0,) * m)]
    for pos in range(n + m):
        chunks = [0] * (n + m)
        chunks[pos] = edges[pos % len(edges)]
        vectors.append(gf.CodedVector(payload=tuple(chunks[:n]), coding_vector=tuple(chunks[n:])))
    for e in edges:
        vectors.append(gf.CodedVector(payload=(e,) * n, coding_vector=(e,) * m))
    for _ in range(4):
        chunks = [rng.choice(edges + [rng.randrange(q)]) for _ in range(n + m)]
        vectors.append(gf.CodedVector(payload=tuple(chunks[:n]), coding_vector=tuple(chunks[n:])))
    return vectors


def claimed_combination(originals, coeffs):
    """sum c_j * original_j with no reduction mod q, so the coding vector
    is the coefficients exactly as given (negative or >= q included)."""
    n = originals[0].n
    payload = tuple(sum(c * o.payload[i] for c, o in zip(coeffs, originals)) for i in range(n))
    return gf.CodedVector(payload=payload, coding_vector=tuple(coeffs))


@pytest.mark.usefixtures("route")
class TestMultiExponentiation:
    """sign_validity and both sides of verify_validity against one pow per term."""

    def test_window_width(self):
        assert validity._window(36, 160) == 7
        assert validity._window(5, 61) == 4

    def test_original_hashes_match_reference(self, shaped_epoch):
        originals, params = shaped_epoch
        for o, h in zip(originals, params.original_hashes):
            assert h == reference_product(params.generators, o.chunks, params.p, params.q)

    def test_sign_matches_reference(self, shaped_epoch):
        _, params = shaped_epoch
        rng = random.Random(5)
        for E in unreduced_vectors(params.n, params.m, params.q, rng):
            expected = reference_product(params.generators, E.chunks, params.p, params.q)
            assert validity.sign_validity(params, E) == expected

    def test_verify_content_side_matches_reference(self, shaped_epoch):
        """Arbitrary vectors: verify accepts the per-term sigma exactly when
        the per-term claimed product agrees, and rejects any other sigma."""
        _, params = shaped_epoch
        p, q = params.p, params.q
        rng = random.Random(6)
        for E in unreduced_vectors(params.n, params.m, q, rng):
            content = reference_product(params.generators, E.chunks, p, q)
            claimed = reference_product(params.original_hashes, E.coding_vector, p, q)
            assert validity.verify_validity(params, E, content) == (content == claimed)
            if content != claimed:
                assert not validity.verify_validity(params, E, claimed)
            assert not validity.verify_validity(params, E, content * params.generators[0] % p)

    def test_verify_claimed_side_matches_reference(self, shaped_epoch):
        """Honest combinations with edge coefficients, left unreduced."""
        originals, params = shaped_epoch
        p, q, m = params.p, params.q, params.m
        rng = random.Random(7)
        edges = edge_exponents(q)
        coeff_sets = [[e] * m for e in edges]
        coeff_sets += [[rng.choice(edges) for _ in range(m)] for _ in range(6)]
        for coeffs in coeff_sets:
            E = claimed_combination(originals, coeffs)
            sigma = reference_product(params.original_hashes, coeffs, p, q)
            assert sigma == reference_product(params.generators, E.chunks, p, q)
            assert validity.verify_validity(params, E, sigma)
            assert validity.sign_validity(params, E) == sigma

    def test_replaced_generators_get_their_own_tables(self, shaped_epoch):
        originals, params = shaped_epoch
        p, q = params.p, params.q
        E = claimed_combination(originals, [3] * params.m)
        sigma = validity.sign_validity(params, E)
        assert validity.verify_validity(params, E, sigma)

        other = replace(params, generators=tuple(g * g % p for g in params.generators))
        assert other.k == params.k
        other_sigma = validity.sign_validity(other, E)
        assert other_sigma == reference_product(other.generators, E.chunks, p, q)
        assert other_sigma == sigma * sigma % p
        assert not validity.verify_validity(other, E, sigma)
        # the first object's tables are untouched by the second's
        assert validity.sign_validity(params, E) == sigma
        assert validity.verify_validity(params, E, sigma)

    def test_replaced_hashes_get_their_own_tables(self, shaped_epoch):
        """Squaring every base squares every sigma, so only tables built
        from each object's own bases accept sigma^2 and reject sigma."""
        originals, params = shaped_epoch
        p = params.p
        E = claimed_combination(originals, [2] * params.m)
        sigma = validity.sign_validity(params, E)
        assert sigma != 1
        assert validity.verify_validity(params, E, sigma)

        hashes_squared = replace(
            params, original_hashes=tuple(h * h % p for h in params.original_hashes)
        )
        assert not validity.verify_validity(hashes_squared, E, sigma)
        both_squared = replace(
            hashes_squared, generators=tuple(g * g % p for g in params.generators)
        )
        assert validity.verify_validity(both_squared, E, sigma * sigma % p)
        assert validity.verify_validity(params, E, sigma)


@pytest.fixture(scope="module", params=[SIM, PRODUCTION], ids=lambda p: p.name)
def span_epoch(request):
    """An epoch of the network_sim shape (n=2, m=3), at the sim profile
    and at production, whose products take the native route when the
    kernel is on."""
    profile = request.param
    rng = random.Random("verified-span")
    master = sigcrypto.keygen(rng, b"src")
    originals = gf.standard_basis_originals(
        [[rng.randrange(profile.q) for _ in range(2)] for _ in range(3)], profile.q
    )
    return originals, validity.epoch_setup(master, originals, 1, rng, profile)


def verified_span(originals, params, count, rng):
    """The span a receiver holds after ``count`` honest packets passed."""
    span = gf.Span(params.q, params.m + params.n)
    for _ in range(count):
        E = gf.linear_combine(originals, [gf.random_nonzero(params.q, rng) for _ in originals],
                              params.q)
        assert validity.verify_validity(params, E, validity.sign_validity(params, E), span)
    assert span.dim == count
    return span


def agrees(params, span, E, sigma):
    """verify_validity with a copy of ``span`` gives the verdict of the full
    check; the packet joins the copy iff it passes and lies outside it."""
    trial = span.copy()
    verdict = validity.verify_validity(params, E, sigma, trial)
    assert verdict == validity.verify_validity(params, E, sigma)
    row = E.coding_vector + E.payload
    grew = verdict and not span.contains(row)
    assert trial.dim == span.dim + grew
    if not grew:
        assert (trial.basis, trial.pivots) == (span.basis, span.pivots)
    return verdict


@pytest.mark.usefixtures("route")
class TestVerifiedSpan:
    """The span path of verify_validity gives the full check's verdict."""

    coeffs = st.lists(st.integers(0, SIM.q - 1), min_size=3, max_size=3)
    delta = st.integers(1, SIM.q - 1)

    @staticmethod
    def sigmas(p):
        return st.one_of(
            st.just(1), st.integers(2, p - 1), st.sampled_from([0, p, p + 1, -1]),
            st.integers(p, 2 * p),
        )

    @given(coeffs=coeffs, seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_honest_combination(self, span_epoch, coeffs, seed):
        originals, params = span_epoch
        span = verified_span(originals, params, params.m, random.Random(seed))
        E = gf.linear_combine(originals, coeffs, params.q)
        assert agrees(params, span, E, validity.sign_validity(params, E))

    @given(coeffs=coeffs, at=st.integers(0, 1), delta=delta, seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_changed_payload_chunk(self, span_epoch, coeffs, at, delta, seed):
        originals, params = span_epoch
        span = verified_span(originals, params, params.m, random.Random(seed))
        E = gf.linear_combine(originals, coeffs, params.q)
        payload = list(E.payload)
        payload[at] += delta
        polluted = gf.vector(payload, E.coding_vector, params.q)
        assert not agrees(params, span, polluted, validity.sign_validity(params, E))

    @given(coeffs=coeffs, data=st.data(), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_changed_sigma(self, span_epoch, coeffs, data, seed):
        originals, params = span_epoch
        sigma = data.draw(self.sigmas(params.p))
        span = verified_span(originals, params, params.m, random.Random(seed))
        E = gf.linear_combine(originals, coeffs, params.q)
        assert agrees(params, span, E, sigma) == (sigma == validity.sign_validity(params, E))

    @given(coeffs=coeffs, at=st.integers(0, 2), delta=delta, seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_changed_coding_chunk(self, span_epoch, coeffs, at, delta, seed):
        originals, params = span_epoch
        span = verified_span(originals, params, params.m, random.Random(seed))
        E = gf.linear_combine(originals, coeffs, params.q)
        coding = list(E.coding_vector)
        coding[at] += delta
        forged = gf.vector(E.payload, coding, params.q)
        assert not agrees(params, span, forged, validity.sign_validity(params, E))
        assert not agrees(params, span, forged, validity.sign_validity(params, forged))

    @given(payload=st.lists(st.integers(0, SIM.q - 1), min_size=2, max_size=2).filter(any),
           count=st.integers(0, 3), seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_zero_coding_vector_nonzero_payload(self, span_epoch, payload, count, seed):
        originals, params = span_epoch
        span = verified_span(originals, params, count, random.Random(seed))
        E = gf.vector(payload, [0] * params.m, params.q)
        for sigma in (1, validity.sign_validity(params, E)):
            assert not agrees(params, span, E, sigma)

    @given(count=st.integers(1, 2), coeffs=coeffs, seed=st.integers(0, 2**32),
           tamper=st.sampled_from(["none", "payload", "sigma"]))
    @settings(max_examples=60, deadline=None)
    def test_outside_rank_deficient_span(self, span_epoch, count, coeffs, tamper, seed):
        originals, params = span_epoch
        span = verified_span(originals, params, count, random.Random(seed))
        E = gf.linear_combine(originals, coeffs, params.q)
        sigma = validity.sign_validity(params, E)
        if tamper == "payload":
            E = gf.vector([E.payload[0] + 1, E.payload[1]], E.coding_vector, params.q)
        elif tamper == "sigma":
            sigma = sigma * params.generators[0] % params.p
        assert agrees(params, span, E, sigma) == (tamper == "none")

    def test_span_path_skips_the_generator_product(self, span_epoch, monkeypatch):
        """Once the span has rank m, no packet pays for prod g_i^{e_i}."""
        originals, params = span_epoch
        span = verified_span(originals, params, params.m, random.Random(1))
        E = gf.linear_combine(originals, [5, 6, 7], params.q)
        sigma = validity.sign_validity(params, E)
        calls = []
        product = validity.power_product

        def counted(bases, *args):
            calls.append(bases is params.generators)
            return product(bases, *args)

        monkeypatch.setattr(validity, "power_product", counted)
        assert validity.verify_validity(params, E, sigma, span)
        assert not validity.verify_validity(params, E, sigma * sigma % params.p, span)
        assert calls == [False, False]
        assert validity.verify_validity(params, E, sigma)
        assert calls[2:] == [True, False]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Each call of ``modexp.product``, wrapped so that the kernel counts as
    loaded whether or not libcrypto is; and every ``_FixedBase`` built."""
    calls, tables = [], []
    product, init = modexp.product, validity._FixedBase.__init__

    def counted(*args):
        calls.append(args)
        return product(*args)

    def built(self, *args):
        tables.append(args)
        init(self, *args)

    monkeypatch.setattr(modexp, "product", counted)
    monkeypatch.setattr(validity._FixedBase, "__init__", built)
    return calls, tables


def every_product(profile):
    """Runs each product in turn, yielding the name of the one just run:
    the epoch's set-up, G(E), H(c), combine_validity at d = 1 and d = 3,
    and a Log-PIP tree over three parents."""
    inputs, params, ctx = build_token_fixture(3, profile)
    yield "epoch_setup"
    E = gf.linear_combine(ctx["originals"], [2, 3], params.q)
    sigma = validity.sign_validity(params, E)
    yield "sign_validity"
    assert validity.verify_validity(params, E, sigma)
    yield "verify_validity"
    assert validity.claimed_validity(params, E.coding_vector) == sigma
    yield "claimed_validity"
    for d in (1, 3):
        validity.combine_validity([i.sigma for i in inputs[:d]], [i.coeff for i in inputs[:d]], params)
        yield f"combine_validity d={d}"
    pipcore.logpip_build(inputs, params)
    yield "logpip_build"


class TestRoute:
    """Which products go to the kernel: all of them at 512 bits and up,
    none below."""

    def test_production_products_call_the_kernel(self, kernel_calls):
        calls, tables = kernel_calls
        assert validity.route(PRODUCTION.p) == modexp.route()
        assert modexp.route().startswith("libcrypto BN_mod_exp2_mont")
        for name in every_product(PRODUCTION):
            assert calls, name
            if name in ("sign_validity", "claimed_validity"):
                assert len(calls) == 1, name  # one kernel call for the whole product
            calls.clear()
        assert tables == []

    def test_unloaded_kernel_leaves_production_in_pure_python(self, monkeypatch):
        """Without libcrypto, 1024-bit products take the epoch tables and
        builtin pow, and each equals one pow per term."""
        kernel = modexp.product
        if kernel is not modexp.pow_product:
            # The kernel's every call starts with BN_CTX_new, and once
            # product is pow_product nothing may reach it.
            lib = inspect.getclosurevars(kernel).nonlocals["lib"]
            monkeypatch.setattr(lib, "BN_CTX_new", lambda: pytest.fail("kernel called"))
        monkeypatch.setattr(modexp, "product", modexp.pow_product)
        products, tabled, tables = [], set(), []
        product, init = validity.power_product, validity._FixedBase.__init__

        def checked(bases, exponents, p, q, table=None):
            out = product(bases, exponents, p, q, table)
            assert out == reference_product(bases, exponents, p, q)
            products.append(bases)
            if table is not None:
                tabled.add(bases)
            return out

        def built(self, bases, p, q):
            tables.append(bases)
            init(self, bases, p, q)

        monkeypatch.setattr(validity, "power_product", checked)
        monkeypatch.setattr(pipcore, "power_product", checked)
        monkeypatch.setattr(validity._FixedBase, "__init__", built)
        assert validity.route(PRODUCTION.p) == "pure Python"
        for name in every_product(PRODUCTION):
            assert products, name
            products.clear()
        # One table for the generators (G) and one for the hashes (H).
        assert len(tables) == 2 and set(tables) == tabled

    @pytest.mark.parametrize("profile", [TEST, SIM], ids=lambda p: p.name)
    def test_small_profiles_never_call_the_kernel(self, kernel_calls, profile):
        calls, tables = kernel_calls
        assert validity.route(profile.p) == "pure Python"
        for name in every_product(profile):
            assert not calls, name
        assert tables

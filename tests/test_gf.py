"""Field-vector arithmetic: hand oracles, exhaustive rank checks, stats."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlncheck import gf
from rlncheck.profiles import PRODUCTION, SIM, TEST


def vec(payload, coding, q=13):
    return gf.vector(payload, coding, q)


class TestLinearCombine:
    def test_identity_coefficient(self):
        e1 = vec([1, 2], [1, 0])
        assert gf.linear_combine([e1], [1], 13) == e1

    def test_hand_modular_arithmetic(self):
        # 2*(1,2|1,0) + 3*(3,4|0,1) mod 13: 2*2+3*4 = 16 = 3 mod 13
        e1 = vec([1, 2], [1, 0])
        e2 = vec([3, 4], [0, 1])
        out = gf.linear_combine([e1, e2], [2, 3], 13)
        assert out.payload == (11, 3)
        assert out.coding_vector == (2, 3)

    def test_zero_annihilation(self):
        e1 = vec([5, 6], [1, 2])
        out = gf.linear_combine([e1], [0], 13)
        assert out.is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf.linear_combine([vec([1], [1]), vec([1, 2], [1])], [1, 1], 13)
        with pytest.raises(ValueError):
            gf.linear_combine([vec([1], [1]), vec([1], [1, 0])], [1, 1], 13)
        with pytest.raises(ValueError):
            gf.linear_combine([vec([1], [1])], [1, 2], 13)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            gf.linear_combine([], [], 13)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, data):
        q = 13
        k = data.draw(st.integers(2, 5))
        vecs = [
            vec(
                [data.draw(st.integers(0, q - 1)) for _ in range(3)],
                [data.draw(st.integers(0, q - 1)) for _ in range(2)],
            )
            for _ in range(k)
        ]
        coeffs = [data.draw(st.integers(0, q - 1)) for _ in range(k)]
        perm = data.draw(st.permutations(range(k)))
        a = gf.linear_combine(vecs, coeffs, q)
        b = gf.linear_combine([vecs[i] for i in perm], [coeffs[i] for i in perm], q)
        assert a == b


def combine_reference(vectors, coeffs, q):
    """Oracle: sum(a_i * E_i) with a reduction after every term."""
    payload = [0] * vectors[0].n
    coding = [0] * vectors[0].m
    for v, a in zip(vectors, coeffs):
        for i, c in enumerate(v.payload):
            payload[i] = (payload[i] + (a % q) * c) % q
        for i, c in enumerate(v.coding_vector):
            coding[i] = (coding[i] + (a % q) * c) % q
    return gf.CodedVector(payload=tuple(payload), coding_vector=tuple(coding))


class TestLinearCombineReference:
    @pytest.mark.parametrize("q", [TEST.q, SIM.q, PRODUCTION.q])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_term_reference(self, q, data):
        """Chunks and coefficients of any sign and size; half the vectors
        are built directly, with chunks not reduced mod q."""
        n = data.draw(st.integers(0, 3))
        m = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 6))
        chunk = st.integers(0, q - 1)
        wild = st.one_of(chunk, st.integers(-3 * q, -1), st.integers(q, 3 * q))
        vecs = []
        for _ in range(k):
            if data.draw(st.booleans()):
                vecs.append(gf.vector(data.draw(st.lists(chunk, min_size=n, max_size=n)),
                                      data.draw(st.lists(chunk, min_size=m, max_size=m)), q))
            else:
                vecs.append(gf.CodedVector(
                    payload=tuple(data.draw(st.lists(wild, min_size=n, max_size=n))),
                    coding_vector=tuple(data.draw(st.lists(wild, min_size=m, max_size=m))),
                ))
        coeff = st.one_of(st.sampled_from([0, q - 1]), wild)
        coeffs = data.draw(st.lists(coeff, min_size=k, max_size=k))
        want = combine_reference(vecs, coeffs, q)
        assert gf.linear_combine(vecs, coeffs, q) == want
        assert gf.linear_combine(vecs, coeffs, q) == want  # from the packed forms

    @pytest.mark.parametrize("q", [TEST.q, SIM.q, PRODUCTION.q])
    def test_matches_per_term_reference_up_to_64_vectors(self, q):
        """Seeded cases of 1 to 64 vectors, reduced or not: a failure here
        reports its case at once, where shrinking 64 drawn vectors is slow."""
        rng = random.Random(q)

        def value():
            pick = rng.randrange(4)
            return (rng.randrange(q), -rng.randrange(1, 3 * q), rng.randrange(q, 3 * q), q - 1)[pick]

        for k in [1, 2, 7, 31, 32, 33, 63, 64] + [rng.randrange(1, 65) for _ in range(24)]:
            n, m = rng.randrange(0, 4), rng.randrange(1, 6)
            vecs = [gf.CodedVector(payload=tuple(value() for _ in range(n)),
                                   coding_vector=tuple(value() for _ in range(m)))
                    for _ in range(k)]
            coeffs = [value() for _ in range(k)]
            want = combine_reference(vecs, coeffs, q)
            assert gf.linear_combine(vecs, coeffs, q) == want, (k, n, m)

    def test_largest_values_at_64_vectors(self):
        """Every chunk and coefficient q - 1: each lane of the packed sum
        holds its largest value for d = 64."""
        for q in (TEST.q, SIM.q, PRODUCTION.q):
            vecs = [gf.CodedVector(payload=(q - 1,) * 3, coding_vector=(-1,) * 4)] * 64
            coeffs = [q - 1] * 64
            assert gf.linear_combine(vecs, coeffs, q) == combine_reference(vecs, coeffs, q)

    def test_one_vector_under_two_fields(self):
        v = gf.CodedVector(payload=(30, -4), coding_vector=(12, 7))
        w = gf.CodedVector(payload=(1, 2), coding_vector=(3, 40))
        for _ in range(2):
            for q in (TEST.q, 13, SIM.q):
                assert gf.linear_combine([v, w], [3, -2], q) == combine_reference([v, w], [3, -2], q)

    def test_dimension_mismatch_after_packing(self):
        """Vectors that each carry a packed form from an earlier call still
        raise when combined with a vector of another shape."""
        q = TEST.q
        a = gf.vector([1, 2], [1], q)
        b = gf.vector([1], [1, 0], q)
        c = gf.vector([5], [1], q)
        for v in (a, b, c):
            gf.linear_combine([v, v], [1, 2], q)
        for pair in ([a, b], [b, a], [a, c], [c, a], [b, c]):
            with pytest.raises(ValueError):
                gf.linear_combine(pair, [1, 1], q)
        assert gf.linear_combine([a, a], [1, 1], q) == vec([2, 4], [2], q)

    def test_packed_form_is_not_a_field(self):
        """==, hash and replace see the chunks only, packed or not."""
        v = gf.CodedVector(payload=(1, 2), coding_vector=(3, 4))
        fresh = gf.CodedVector(payload=(1, 2), coding_vector=(3, 4))
        gf.linear_combine([v], [1], TEST.q)
        gf.linear_combine([v], [1], SIM.q)
        assert v == fresh and hash(v) == hash(fresh)
        assert dataclasses.replace(v) == v
        moved = dataclasses.replace(v, coding_vector=(4, 4))
        assert moved != v
        assert gf.linear_combine([moved], [1], TEST.q) == gf.vector([1, 2], [4, 4], TEST.q)
        assert [f.name for f in dataclasses.fields(v)] == ["payload", "coding_vector"]


def row_stream(data, q, width):
    """Rows with zeros, duplicates, multiples and negative or unreduced
    entries, long enough to keep adding after full rank."""
    rows = []
    for _ in range(data.draw(st.integers(0, 3 * width + 2))):
        kind = data.draw(st.sampled_from(["zero", "repeat", "multiple", "fresh"]))
        if kind == "zero":
            rows.append([0] * width)
        elif kind in ("repeat", "multiple") and rows:
            prev = data.draw(st.sampled_from(rows))
            k = 1 if kind == "repeat" else data.draw(st.integers(-q, 2 * q))
            rows.append([k * c for c in prev])
        else:
            entry = st.one_of(st.integers(-q, 2 * q), st.sampled_from([0, 1, q - 1]))
            rows.append(data.draw(st.lists(entry, min_size=width, max_size=width)))
    return rows


def assert_invariant(span):
    assert len(span.pivots) == len(span.basis)
    assert span.pivots == sorted(set(span.pivots))
    for lead, b in zip(span.pivots, span.basis):
        assert all(c == 0 for c in b[:lead]) and b[lead] == 1
        assert all(0 <= c < span.q for c in b)


class TestSpanProperties:
    @pytest.mark.parametrize("q", [TEST.q, PRODUCTION.q])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_dim_tracks_rank_and_contains_agrees(self, q, data):
        width = data.draw(st.integers(1, 4))
        span = gf.Span(q, width)
        seen = []
        for row in row_stream(data, q, width):
            before = gf.matrix_rank(seen, q)
            seen.append(row)
            grows = gf.matrix_rank(seen, q) > before
            assert span.contains(row) is not grows
            assert span.add(row) is grows
            assert span.dim == gf.matrix_rank(seen, q)
            assert_invariant(span)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_copy_is_independent(self, data):
        q = TEST.q
        width = data.draw(st.integers(1, 4))
        span = gf.Span(q, width)
        for row in row_stream(data, q, width):
            span.add(row)
        snapshot = ([list(b) for b in span.basis], list(span.pivots))
        dup = span.copy()
        assert (dup.basis, dup.pivots) == snapshot
        for row in row_stream(data, q, width):
            dup.add(row)
        for b in dup.basis:
            b[0] = -1
        dup.pivots.append(width)
        assert (span.basis, span.pivots) == snapshot
        assert_invariant(span)


def span_size(rows, q):
    """Oracle: count distinct vectors in the row span by enumeration."""
    out = {tuple([0] * len(rows[0]))} if rows else {()}
    for combo in itertools.product(range(q), repeat=len(rows)):
        v = tuple(
            sum(c * r[i] for c, r in zip(combo, rows)) % q for i in range(len(rows[0]))
        )
        out.add(v)
    return len(out)


class TestRank:
    def test_standard_basis(self):
        vs = [vec([0], [1, 0]), vec([0], [0, 1])]
        assert gf.rank(vs, 13) == 2

    def test_dependent_rows(self):
        # (2,4) = 2*(1,2) mod 5
        vs = [vec([0], [1, 2], 5), vec([0], [2, 4], 5)]
        assert gf.rank(vs, 5) == 1

    def test_empty(self):
        assert gf.rank([], 13) == 0

    def test_exhaustive_oracle_gf5(self):
        """rank agrees with span enumeration for every matrix up to 3x3 over GF(5).

        Random sample of the full space plus all matrices over {0,1,2}
        for the 2x2 case (that one exhaustively).
        """
        q = 5
        for rows_n in (1, 2):
            for cols in (1, 2):
                for flat in itertools.product(range(q), repeat=rows_n * cols):
                    rows = [list(flat[i * cols : (i + 1) * cols]) for i in range(rows_n)]
                    expected = round(math.log(span_size(rows, q), q))
                    assert gf.matrix_rank(rows, q) == expected
        rng = random.Random(5)
        for _ in range(300):
            rows_n = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            rows = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows_n)]
            expected = round(math.log(span_size(rows, q), q))
            assert gf.matrix_rank(rows, q) == expected

    def test_combining_never_increases_rank(self):
        q = 13
        rng = random.Random(3)
        for _ in range(50):
            vs = [
                vec([rng.randrange(q) for _ in range(2)], [rng.randrange(q) for _ in range(3)])
                for _ in range(3)
            ]
            base = gf.rank(vs, q)
            combo = gf.linear_combine(vs, [rng.randrange(q) for _ in range(3)], q)
            assert gf.rank([combo] + vs, q) == base

    def test_rank_upper_bound(self):
        q = 13
        rng = random.Random(4)
        for _ in range(30):
            count = rng.randint(1, 6)
            m = rng.randint(1, 4)
            vs = [vec([], [rng.randrange(q) for _ in range(m)]) for _ in range(count)]
            assert gf.rank(vs, q) <= min(count, m)

    def test_random_combination_rank_probability(self):
        """k random combinations of k independent vectors keep rank k
        with empirical frequency at least 1 - k/q."""
        q, m, k, trials = 13, 5, 3, 2000
        rng = random.Random(9)
        basis = [vec([], [1 if j == i else 0 for j in range(m)]) for i in range(k)]
        hits = 0
        for _ in range(trials):
            combos = [
                gf.linear_combine(basis, [rng.randrange(q) for _ in range(k)], q)
                for _ in range(k)
            ]
            if gf.rank(combos, q) == k:
                hits += 1
        assert hits / trials >= 1 - k / q


class TestRandomNonzero:
    def test_range(self):
        rng = random.Random(1)
        draws = {gf.random_nonzero(3, rng) for _ in range(100)}
        assert draws == {1, 2}

    def test_single_element(self):
        rng = random.Random(1)
        assert all(gf.random_nonzero(2, rng) == 1 for _ in range(20))

    def test_uniform_chi_square(self):
        """Each cell within 5 sigma of uniform over Z_13^*, 10^4 draws."""
        q, n = 13, 10_000
        rng = random.Random(7)
        counts = {v: 0 for v in range(1, q)}
        for _ in range(n):
            counts[gf.random_nonzero(q, rng)] += 1
        p = 1 / (q - 1)
        sigma = math.sqrt(n * p * (1 - p))
        for v, c in counts.items():
            assert abs(c - n * p) <= 5 * sigma, f"value {v}: {c}"


class TestSolveOriginals:
    def test_roundtrip(self):
        q = 13
        rng = random.Random(11)
        originals = gf.standard_basis_originals([[3, 1, 4], [1, 5, 9], [2, 6, 5]], q)
        received = [
            gf.linear_combine(originals, [gf.random_nonzero(q, rng) for _ in range(3)], q)
            for _ in range(5)
        ]
        solved = gf.solve_originals(received, q)
        assert solved == [o.payload for o in originals]

    def test_rank_deficient(self):
        q = 13
        originals = gf.standard_basis_originals([[3], [5]], q)
        received = [gf.linear_combine(originals, [1, 1], q)]
        assert gf.solve_originals(received, q) is None


def reference_left_nullspace(rows, q):
    """Gauss-Jordan on [rows | I]: the identity parts of the rows whose
    left block reduces to zero form the left nullspace's RREF basis."""
    k, width = len(rows), len(rows[0])
    M = [[c % q for c in row] + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    r = 0
    for col in range(width + k):
        pivot = next((i for i in range(r, k) if M[i][col]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = pow(M[r][col], q - 2, q)
        M[r] = [c * inv % q for c in M[r]]
        for i in range(k):
            if i != r and M[i][col]:
                f = M[i][col]
                M[i] = [(a - f * b) % q for a, b in zip(M[i], M[r])]
        r += 1
    return [row[width:] for row in M if not any(row[:width])]


class TestSpanHelpers:
    def test_left_nullspace(self):
        q = 13
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 0]]
        basis = gf.left_nullspace(rows, q)
        assert len(basis) == 1
        a = basis[0]
        for col in range(3):
            assert sum(a[i] * rows[i][col] for i in range(3)) % q == 0

    @pytest.mark.parametrize("q", [2, 11, 1019, (1 << 61) - 1, PRODUCTION.q])
    def test_left_nullspace_matches_augmented_reference(self, q):
        """The exact basis, not just the space: the Mode-1 adversary samples
        from it, so its choices depend on every entry."""
        rng = random.Random(q)
        cases = [
            [[0]], [[5]], [[1, 2, 3]], [[1], [2], [0]], [[0, 0], [0, 0]],
            [[q, -1], [2 * q + 1, q - 1], [-q, 1]],  # entries < 0 or >= q
        ]
        for _ in range(150):
            k, width = rng.randrange(1, 7), rng.randrange(1, 7)
            base = [[rng.randrange(-q, 2 * q) for _ in range(width)]
                    for _ in range(rng.randrange(1, 3))]
            rows = []
            for _ in range(k):
                pick = rng.randrange(4)
                if pick == 0:
                    rows.append([0] * width)
                elif pick == 1 and rows:
                    rows.append(list(rng.choice(rows)))  # duplicate
                elif pick == 2:  # dependent on the base rows
                    cs = [rng.randrange(q) for _ in base]
                    rows.append([sum(c * b[j] for c, b in zip(cs, base)) for j in range(width)])
                else:
                    rows.append([rng.randrange(-q, 2 * q) for _ in range(width)])
            cases.append(rows)
        for rows in cases:
            want = reference_left_nullspace(rows, q)
            got = gf.left_nullspace(rows, q)
            assert got == want, rows
            assert len(got) == len(rows) - gf.matrix_rank(rows, q)
            for a in got:
                for col in range(len(rows[0])):
                    assert sum(ai * r[col] for ai, r in zip(a, rows)) % q == 0

    def test_left_nullspace_of_nothing(self):
        assert gf.left_nullspace([], 11) == []

    def test_span_membership(self):
        s = gf.Span(13, 3)
        assert s.add([1, 2, 3])
        assert s.add([0, 1, 1])
        assert not s.add([1, 3, 4])  # sum of the first two
        assert s.contains([2, 4, 6])
        assert not s.contains([0, 0, 1])
        assert s.dim == 2

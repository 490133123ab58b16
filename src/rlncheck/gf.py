"""Prime-field vector arithmetic for coded packets.

A packet vector carries ``n`` payload chunks followed by ``m`` coding
chunks, all elements of GF(q) for a prime q.  Linear combination,
rank (degrees of freedom), span reduction, and decoding all operate on
plain Python integers, so any prime size works, from q=11 test groups
up to 160-bit production fields.

Chunks are stored as Z_q values (zero included): linear combinations
can produce zero chunks even when honest coding coefficients are drawn
from Z_q^* only.

``linear_combine`` works on lanes: each ``CodedVector`` packs its
chunks, reduced mod q, into one int, a lane of ``lane_bits(q)`` bits per
chunk, once per q it is combined under.  A combination of d vectors is
then d big-int products, one sum and one unpack of the n+m lanes, and
no lane carries into the next while d < 2^32.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from operator import mul
from types import MappingProxyType


@dataclass(frozen=True)
class CodedVector:
    """One coded packet: payload chunks plus coding vector, over GF(q)."""

    payload: tuple[int, ...]
    coding_vector: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.payload)

    @property
    def m(self) -> int:
        return len(self.coding_vector)

    @property
    def chunks(self) -> tuple[int, ...]:
        """The full packet vector: payload followed by coding vector."""
        return self.payload + self.coding_vector

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.chunks)

    # (q, n, m) -> the chunks reduced mod q, chunk i in lane i of
    # ``lane_bits(q)`` bits, as one int (``packed``).  A vector's own dict
    # goes in its __dict__ on its first pack; this empty class default
    # stands in until then.  Not a field, so ==, hash and replace ignore it.
    _packs = MappingProxyType({})

    def packed(self, q: int, n: int, m: int) -> int:
        """The chunks reduced mod q, packed into lanes (see ``linear_combine``).

        Raises ValueError unless the vector has n payload and m coding
        chunks, so a vector of another shape never has a pack under (q, n, m).
        """
        key = (q, n, m)
        pack = self._packs.get(key)
        if pack is None:
            if len(self.payload) != n or len(self.coding_vector) != m:
                raise ValueError(f"dimension mismatch: every vector must have ({n},{m}) chunks")
            width = lane_bits(q)
            pack = 0
            for c in reversed(self.payload + self.coding_vector):
                pack = (pack << width) | (c % q)
            self.__dict__.setdefault("_packs", {})[key] = pack
        return pack


def lane_bits(q: int) -> int:
    """Bits per lane of a packed vector: room for a sum of fewer than
    2^32 products of two values in [0, q)."""
    return 2 * q.bit_length() + 32


def vector(payload, coding_vector, q: int) -> CodedVector:
    """Build a CodedVector with all chunks reduced mod q."""
    return CodedVector(
        payload=tuple(int(c) % q for c in payload),
        coding_vector=tuple(int(c) % q for c in coding_vector),
    )


def standard_basis_originals(payload_rows, q: int) -> list[CodedVector]:
    """Wrap m payload rows as originals with standard-basis coding vectors."""
    m = len(payload_rows)
    return [
        vector(row, [1 if j == i else 0 for j in range(m)], q)
        for i, row in enumerate(payload_rows)
    ]


def linear_combine(vectors: list[CodedVector], coeffs: list[int], q: int) -> CodedVector:
    """Compute sum(a_i * E_i) mod q component-wise over all n+m chunks.

    Exact for any int chunks and coefficients, negative or not reduced
    mod q, while there are d < 2^32 vectors.  Each vector's chunks, reduced
    mod q, sit in lanes of w = ``lane_bits(q)`` bits of one int
    (``CodedVector.packed``, built on the vector's first use under q and
    kept; a vector whose shape differs from the first one's is never
    packed, it raises).  Each coefficient is reduced mod q too, so a lane
    of sum(a_i * pack_i) adds d products below q^2 <= 2^(w-32).  For
    d < 2^32 it stays below 2^w and never carries into the next lane, so
    lane i holds column i's exact sum, which a shift, a mask and a
    reduction mod q read out.

    Raises ValueError on empty input or on any dimension mismatch.
    """
    if not vectors or not coeffs:
        raise ValueError("linear_combine requires non-empty inputs")
    if len(vectors) != len(coeffs):
        raise ValueError(f"{len(vectors)} vectors but {len(coeffs)} coefficients")
    n, m = len(vectors[0].payload), len(vectors[0].coding_vector)
    key = (q, n, m)
    packs = [v._packs.get(key) for v in vectors]
    if None in packs:  # a first use under q, or a vector of another shape
        packs = [v.packed(q, n, m) if p is None else p for v, p in zip(vectors, packs)]
    total = sum(map(mul, [a % q for a in coeffs], packs))
    width = lane_bits(q)
    mask = (1 << width) - 1
    sums = [((total >> shift) & mask) % q for shift in range(0, width * (n + m), width)]
    return CodedVector(payload=tuple(sums[:n]), coding_vector=tuple(sums[n:]))


def row_reduce(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Row-echelon form of a matrix over GF(q).

    Works on a copy.  Returns (reduced rows, pivot column indices);
    the rank is ``len(pivot_cols)``.
    """
    R = [[c % q for c in row] for row in rows]
    if not R:
        return [], []
    width = len(R[0])
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(width):
        found = -1
        for r in range(pivot_row, len(R)):
            if R[r][col] != 0:
                found = r
                break
        if found == -1:
            continue
        R[pivot_row], R[found] = R[found], R[pivot_row]
        inv = pow(R[pivot_row][col], -1, q)
        R[pivot_row] = [(c * inv) % q for c in R[pivot_row]]
        for r in range(len(R)):
            if r != pivot_row and R[r][col] != 0:
                f = R[r][col]
                R[r] = [(a - f * b) % q for a, b in zip(R[r], R[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
    return R, pivot_cols


def matrix_rank(rows: list[list[int]], q: int) -> int:
    """Rank of a matrix of GF(q) rows (0 for an empty matrix)."""
    rows = [r for r in rows if r]
    if not rows:
        return 0
    _, pivots = row_reduce(rows, q)
    return len(pivots)


def rank(vectors: list[CodedVector], q: int) -> int:
    """Degrees of freedom: rank of the coding vectors over GF(q)."""
    return matrix_rank([list(v.coding_vector) for v in vectors], q)


def left_nullspace(rows: list[list[int]], q: int) -> list[list[int]]:
    """Basis of {a : sum(a_i * rows[i]) = 0} over GF(q), in reduced row-echelon form.

    The basis is the unique RREF basis of the left nullspace: each vector
    has a leading 1, the vectors are ordered by leading position, and
    every other vector is 0 at a vector's leading position.  Entries lie
    in [0, q).  Callers may rely on this exact basis (the Mode-1
    adversary samples from it).

    The left nullspace of the k x width matrix is the nullspace of its
    transpose.  Row-reducing the transpose with its k columns reversed
    makes every free column f give one vector: 1 at f, -R[i][f] at each
    pivot i, 0 elsewhere.  Its leading entry is the 1 at f, since pivots
    lie before f in reversed order, that is after it once reversed back.
    Cost: O(rank * k * width).
    """
    k = len(rows)
    transposed = [list(col[::-1]) for col in zip(*rows)]
    R, pivots = row_reduce(transposed, q)
    pivot_set = set(pivots)
    basis = []
    for f in range(k - 1, -1, -1):  # column f of the reversed transpose is row k-1-f
        if f in pivot_set:
            continue
        v = [0] * k
        v[k - 1 - f] = 1
        for row, p in zip(R, pivots):
            if row[f]:
                v[k - 1 - p] = -row[f] % q
        basis.append(v)
    return basis


class Span:
    """Incrementally maintained row span over GF(q) (echelon basis).

    Invariant: each row of ``basis`` has lead (first nonzero) entry 1, rows
    are ordered by lead column, and ``pivots[i]`` is row i's lead.  A full
    span (``dim == width``) holds every row of that width: ``add`` returns False.
    """

    def __init__(self, q: int, width: int):
        self.q = q
        self.width = width
        self.basis: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.basis)

    def residual(self, row) -> list[int]:
        q = self.q
        row = [c % q for c in row]
        for lead, b in zip(self.pivots, self.basis):
            f = row[lead]
            if f:
                row = [(a - f * c) % q for a, c in zip(row, b)]
        return row

    def contains(self, row) -> bool:
        return not any(self.residual(row))

    def add(self, row) -> bool:
        """Insert a row; returns True if it increased the dimension."""
        if len(self.basis) == self.width:
            return False
        res = self.residual(row)
        lead = next((i for i, c in enumerate(res) if c != 0), None)
        if lead is None:
            return False
        inv = pow(res[lead], -1, self.q)
        at = bisect.bisect(self.pivots, lead)
        self.pivots.insert(at, lead)
        self.basis.insert(at, [(c * inv) % self.q for c in res])
        return True

    def copy(self) -> "Span":
        s = Span(self.q, self.width)
        s.basis = [list(b) for b in self.basis]
        s.pivots = list(self.pivots)
        return s


def random_nonzero(q: int, rng: random.Random) -> int:
    """Uniform draw from Z_q^* = [1, q)."""
    return rng.randrange(1, q)


def solve_originals(vectors: list[CodedVector], q: int) -> list[tuple[int, ...]] | None:
    """Recover the m original payload rows from received coded packets.

    Solves C * O = P where C stacks the coding vectors and P the
    payloads.  Returns None when the coding vectors do not reach
    rank m.
    """
    if not vectors:
        return None
    n, m = vectors[0].n, vectors[0].m
    aug = [list(v.coding_vector) + list(v.payload) for v in vectors]
    R, pivots = row_reduce(aug, q)
    if len([p for p in pivots if p < m]) < m:
        return None
    originals: list[tuple[int, ...]] = [()] * m
    for row, piv in zip(R, pivots):
        if piv < m:
            originals[piv] = tuple(row[m : m + n])
    return originals

"""Reference computations the benchmark checks the program against.

Each checker is written apart from the library it checks: the max-flow
does not use ``sim.min_cut``, the decoder does not use ``gf``, and the
validity product does not use ``validity``.  They take plain Python
values (edge lists, integer tuples) so they can be tested on their own.
"""

from __future__ import annotations


def node_split_max_flow(edges, source: str, sink: str) -> int:
    """Max-flow from source to sink with unit capacity on every edge and
    on every node other than the source and the sink.

    Each interior node v becomes the arc (v, "in") -> (v, "out"); flow is
    found by depth-first augmenting paths, which suffices for unit
    capacities.
    """

    def tail(n):
        return n if n in (source, sink) else (n, "out")

    def head(n):
        return n if n in (source, sink) else (n, "in")

    cap: dict = {}
    adj: dict = {}

    def arc(u, v):
        cap[(u, v)] = cap.get((u, v), 0) + 1
        cap.setdefault((v, u), 0)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    names = {n for e in edges for n in e}
    for n in sorted(names, key=str):
        if n not in (source, sink):
            arc((n, "in"), (n, "out"))
    for u, v in edges:
        arc(tail(u), head(v))

    flow = 0
    while True:
        parent = {source: None}
        stack = [source]
        while stack and sink not in parent:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    stack.append(v)
        if sink not in parent:
            return flow
        v = sink
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1


def _inv(a: int, q: int) -> int:
    return pow(a, q - 2, q)


def echelon(rows, q: int) -> list[list[int]]:
    """Reduced row-echelon form over GF(q), q prime, zero rows dropped."""
    rows = [[c % q for c in r] for r in rows]
    out: list[list[int]] = []
    width = len(rows[0]) if rows else 0
    col = 0
    while rows and col < width:
        pick = next((r for r in rows if r[col]), None)
        if pick is None:
            col += 1
            continue
        rows.remove(pick)
        f = _inv(pick[col], q)
        pick = [c * f % q for c in pick]
        rows = [[(a - r[col] * b) % q for a, b in zip(r, pick)] for r in rows]
        out = [[(a - r[col] * b) % q for a, b in zip(r, pick)] for r in out]
        out.append(pick)
        col += 1
    return out


def rank(rows, q: int) -> int:
    return len(echelon(rows, q)) if rows else 0


def in_span(row, basis_rows, q: int) -> bool:
    """True iff row is a GF(q) combination of basis_rows."""
    return rank(list(basis_rows) + [list(row)], q) == rank(list(basis_rows), q)


def decode(packets, m: int, q: int) -> list[tuple[int, ...]] | None:
    """Recover the m original payloads from (coding_vector, payload) pairs.

    Returns None when the coding vectors do not reach rank m.
    """
    aug = [list(cv) + list(pl) for cv, pl in packets]
    if not aug:
        return None
    R = echelon(aug, q)
    lead = [next(i for i, c in enumerate(r) if c) for r in R]
    if [i for i in lead if i < m] != list(range(m)):
        return None
    return [tuple(R[j][m:]) for j in range(m)]


def validity_product(generators, chunks, p: int) -> int:
    """sigma = prod g_i^{e_i} mod p, the expected validity signature."""
    if len(generators) != len(chunks):
        raise ValueError("one generator per chunk")
    out = 1
    for g, e in zip(generators, chunks):
        out = out * pow(g, e, p) % p
    return out

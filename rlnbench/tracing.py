"""Span tracing of the library's public functions, installed from outside.

``Tracer.install`` wraps each named function or method and records one
span per call: name, start, end and the enclosing span.  Spans stay in
flat arrays until ``summary`` turns them into per-function call counts
and self time (a span's duration minus the time its child spans cover).

A function bound by name into other modules (``pipcore`` imports
``combine_validity``, the package ``__init__`` re-exports most names) is
patched in every module that holds it, so no caller keeps the bare
original.  Methods are patched on their class, which every module
shares.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute path) of every traced public function.
TARGETS = [
    ("gf", "Span.add"),
    ("gf", "linear_combine"),
    ("gf", "left_nullspace"),
    ("gf", "rank"),
    ("gf", "solve_originals"),
    ("sigcrypto", "prf_to_field"),
    ("sigcrypto", "sign"),
    ("sigcrypto", "verify"),
    ("node", "derive_coefficient"),
    ("node", "verify_incoming"),
    ("node", "process_round"),
    ("node", "finalize_packet"),
    ("node", "challenge_parent"),
    ("node", "packet_signed_bytes"),
    ("node", "adjudicate"),
    ("validity", "sign_validity"),
    ("validity", "verify_validity"),
    ("validity", "combine_validity"),
    ("validity", "SourceEpochParams.epoch_pk_bytes"),
    ("pipcore", "pip_verif_test"),
    ("pipcore", "logpip_build"),
    ("pipcore", "logpip_respond"),
    ("pipcore", "logpip_verify"),
    ("pipcore", "make_helper_token"),
    ("pipcore", "verify_helper"),
    ("sim", "random_topology"),
    ("sim", "min_cut"),
    ("sim", "Topology.parents"),
    ("sim", "Topology.children"),
    ("sim", "run_simulation"),
    ("sim", "Simulation.run"),
]

NAMES = [f"{mod}.{path}" for mod, path in TARGETS]


class Tracer:
    def __init__(self):
        self.name_ix = array("i")
        self.parent_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.useful_adds = 0
        self.rejects: dict[str, int] = {}

    def _wrap(self, ix: int, fn, on_result=None):
        name_ix, parent_ix, start, end = self.name_ix, self.parent_ix, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_ix.append(ix)
            parent_ix.append(open_spans[-1] if open_spans else -1)
            start.append(clock())
            end.append(0.0)
            open_spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                open_spans.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_add(self, grew) -> None:
        if grew:
            self.useful_adds += 1

    def _count_reject(self, violation) -> None:
        if violation is not None:
            kind = violation.kind.value
            self.rejects[kind] = self.rejects.get(kind, 0) + 1

    def install(self) -> None:
        """Patch every target in the ``rlncheck`` modules loaded now."""
        hooks = {
            "gf.Span.add": self._count_add,
            "node.verify_incoming": self._count_reject,
        }
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "rlncheck" or n.startswith("rlncheck.")]
        for ix, (mod, path) in enumerate(TARGETS):
            module = sys.modules[f"rlncheck.{mod}"]
            name = NAMES[ix]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(ix, cls.__dict__[attr], hooks.get(name)))
                continue
            original = getattr(module, path)
            traced = self._wrap(ix, original, hooks.get(name))
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)

    @property
    def span_count(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every recorded span."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent_ix[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for i in range(n):
            k = self.name_ix[i]
            calls[k] += 1
            self_s[k] += (self.end[i] - self.start[i]) - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(NAMES)}

"""Spans around the benchmark's own calls into discordlim, and counters
around numpy's Hermitian eigensolvers.

Nothing here reaches inside the package: a span covers one public call
made by the benchmark, and the eigensolver counters wrap
`numpy.linalg.eigvalsh` / `numpy.linalg.eigh` in this process only, for
as long as a traced pass runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

SPAN_FIELDS = ("name", "span_id", "parent_id", "op_id", "start_s", "end_s",
               "eig_calls", "eig_matrices", "eig_s")
NAME, SPAN_ID, PARENT, OP_ID, START, END, EIG_CALLS, EIG_MATRICES, EIG_S = range(9)

_EIGENSOLVERS = ("eigvalsh", "eigh")


def untraced_call(_name, fn, *args):
    return fn(*args)


class Tracer:
    """Records one span per public call, kept in memory until the run ends.

    A span stores its name ("<module>.<function>"), its id, its parent
    span, the op it belongs to, its start and end, and the eigensolver
    calls, matrices and seconds spent inside it (inclusive of children).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self.eig_calls = 0
        self.eig_matrices = 0
        self.eig_s = 0.0

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span named `name`."""
        parent = self._stack[-1] if self._stack else None
        rec = [name, len(self.spans), parent, self.op_id, perf_counter(), 0.0,
               self.eig_calls, self.eig_matrices, self.eig_s]
        self.spans.append(rec)
        self._stack.append(rec[SPAN_ID])
        try:
            return fn(*args)
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
            rec[EIG_CALLS] = self.eig_calls - rec[EIG_CALLS]
            rec[EIG_MATRICES] = self.eig_matrices - rec[EIG_MATRICES]
            rec[EIG_S] = self.eig_s - rec[EIG_S]

    @contextmanager
    def counting_eigensolvers(self):
        """Count calls and matrices passed to numpy's Hermitian eigensolvers."""
        originals = {name: getattr(np.linalg, name) for name in _EIGENSOLVERS}

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                start = perf_counter()
                try:
                    return fn(a, *args, **kwargs)
                finally:
                    self.eig_s += perf_counter() - start
                    self.eig_calls += 1
                    n = 1
                    for d in np.shape(a)[:-2]:
                        n *= d
                    self.eig_matrices += n
            return wrapper

        for name, fn in originals.items():
            setattr(np.linalg, name, counted(fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(np.linalg, name, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its child spans and the eigensolver time
    spent directly inside it."""
    child_s = [0.0] * len(spans)
    child_eig_s = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child_s[rec[PARENT]] += rec[END] - rec[START]
            child_eig_s[rec[PARENT]] += rec[EIG_S]
    return [rec[END] - rec[START] - child_s[i] - (rec[EIG_S] - child_eig_s[i])
            for i, rec in enumerate(spans)]


def root_names(spans: list[list]) -> list[str]:
    """Name of the outermost span above each span (spans are appended in
    start order, so a parent always precedes its children)."""
    roots: list[str] = []
    for rec in spans:
        roots.append(rec[NAME] if rec[PARENT] is None else roots[rec[PARENT]])
    return roots

"""Outside-in layer trace for supvar, installed from the benchmark's files.

Every supvar module binds library names with ``from .linalg import
kernel_basis`` and the like, so a wrapper must replace the name in every
``supvar.*`` namespace that binds the original object, not only in the
defining module.  ``IncrementalSpan`` methods are wrapped on the class.
``Tracer.remove`` restores every binding it replaced.

A span records (name, start, end, parent).  A layer's self time is its
spans' durations minus the time covered by their child spans.  Counters are
computed inside child spans named ``trace.count`` so that the tracer's own
bookkeeping is charged to neither the layer nor the caller.
"""

from __future__ import annotations

import sys
import time

# (defining module, attribute, span name).  Several functions may share a
# span name; the span name is the layer metric they are reported under.
LAYER_FUNCTIONS = (
    ("supvar.algebra", "gl_superalgebra", "algebra"),
    ("supvar.algebra", "gl_even_subalgebra", "algebra"),
    ("supvar.algebra", "detecting_subalgebra", "algebra"),
    ("supvar.atypicality", "atypicality", "atypicality"),
    ("supvar.atypicality", "atypicality_oracle", "atypicality"),
    ("supvar.atypicality", "theoretical_support", "atypicality"),
    ("supvar.modules", "L0_module", "modules.L0_module"),
    ("supvar.modules", "kac_module", "modules.kac_module"),
    ("supvar.modules", "simple_module", "modules.simple_module"),
    ("supvar.modules", "verify_rep", "modules.verify_rep"),
    ("supvar.modules", "tensor", "modules.tensor"),
    ("supvar.modules", "dual", "modules.tensor"),
    ("supvar.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("supvar.linalg", "rank", "linalg.rank"),
    ("supvar.linalg", "solve", "linalg.solve"),
    ("supvar.support", "is_projective_at", "support.is_projective_at"),
    ("supvar.support", "empirical_support", "support.empirical_support"),
    ("supvar.support", "compare_support", "support.empirical_support"),
    ("supvar.cohomology", "build_complex", "cohomology.build_complex"),
    ("supvar.cohomology", "cohomology_dims", "cohomology.cohomology_dims"),
    ("supvar.cohomology", "ext_dims", "cohomology.ext_dims"),
    ("supvar.cohomology", "kac_ext_dims", "cohomology.kac_ext_dims"),
    ("supvar.clifford", "divisibility_check", "clifford"),
    ("supvar.clifford", "simple_divisibility", "clifford"),
)

LAYER_METHODS = (
    ("supvar.linalg", "IncrementalSpan", "add", "linalg.span"),
    ("supvar.linalg", "IncrementalSpan", "express", "linalg.span"),
)

COUNT_SPAN = "trace.count"

COUNTERS = (
    "linalg.calls", "linalg.cells", "linalg.nnz", "linalg.max_bits", "linalg.span_calls",
    "modules.kac_dim", "modules.simple_dim", "modules.simple_kac_dim",
    "support.points", "cohomology.slice_keys", "cohomology.invariant_dim",
)


def _count_matrix(counts: dict, args, kwargs):
    A = args[0] if args else kwargs["A"]
    counts["linalg.calls"] += 1
    counts["linalg.cells"] += A.rows * A.cols
    nnz = 0
    bits = counts["linalg.max_bits"]
    for row in A.entries:
        for x in row:
            if x:
                nnz += 1
                b = max(x.numerator.bit_length(), x.denominator.bit_length())
                if b > bits:
                    bits = b
    counts["linalg.nnz"] += nnz
    counts["linalg.max_bits"] = bits


def _count_span_op(counts: dict, args, kwargs):
    counts["linalg.span_calls"] += 1


def _count_point(counts: dict, args, kwargs):
    counts["support.points"] += 1


def _count_kac(counts: dict, result):
    counts["modules.kac_dim"] += result.dim


def _count_simple(counts: dict, result):
    counts["modules.simple_dim"] += result.dim
    counts["modules.simple_kac_dim"] += result.meta["kac_dim"]


def _count_complex(counts: dict, result):
    for degree in result.degrees:
        counts["cohomology.slice_keys"] += len(degree.keys)
        counts["cohomology.invariant_dim"] += degree.dim


# counters taken from the arguments (before the call) or the result (after)
BEFORE = {
    "linalg.kernel_basis": _count_matrix,
    "linalg.rank": _count_matrix,
    "linalg.solve": _count_matrix,
    "linalg.span": _count_span_op,
    "support.is_projective_at": _count_point,
}
AFTER = {
    "modules.kac_module": _count_kac,
    "modules.simple_module": _count_simple,
    "cohomology.build_complex": _count_complex,
}


class Tracer:
    """Span and counter recorder for one supvar import."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def reset(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, fn, *args):
        idx = self._open(COUNT_SPAN)
        try:
            fn(self.counts, *args)
        finally:
            self._close(idx)

    def _wrap(self, original, name: str):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                tracer._count(before, args, kwargs)
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                tracer._count(after, result)
            return result

        traced.__wrapped__ = original
        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every layer function in every supvar namespace binding it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if mod is not None and (key == "supvar" or key.startswith("supvar."))]
        for module_name, attr, name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            bound = 0
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
                        bound += 1
            if not bound:
                raise RuntimeError(f"{module_name}.{attr} is bound nowhere")
        for module_name, cls_name, method, name in LAYER_METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(original, name))
            self._restore.append((cls, method, original))

    def remove(self):
        """Put back every original binding, in reverse order of installation."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- analysis --------------------------------------------------------

    def self_times(self, spans: list | None = None) -> dict:
        """Total self time per span name."""
        spans = self.spans if spans is None else spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for k, (name, start, end, _) in enumerate(spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

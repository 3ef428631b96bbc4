"""Spans and counters wrapped around hochkit from outside the library.

`install()` replaces public functions and methods of every layer with
wrappers that time them while `Tracer.active` is set, and counts scalar
operations.  A function is replaced in every `hochkit.*` namespace that
binds it (`hochschild` does `from .linalg import rank`, so patching
`hochkit.linalg.rank` alone would miss its calls).  Spans are aggregated
in memory: calls and self time per span name, where self time is the
span's duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[list[float]] = []  # child seconds of each open span
        self.open: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sums: dict[str, int] = defaultdict(int)
        self.maxes: dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0

    def wrap(self, name: str, fn, measure=None):
        """A span around `fn`; `measure(tracer, args, result)` yields
        (metric, value, 'sum' | 'max') pairs recorded after the span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            children = [0.0]
            tracer.stack.append(children)
            tracer.open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                tracer.stack.pop()
                tracer.open[name] -= 1
                tracer.calls[name] += 1
                tracer.self_s[name] += seconds - children[0]
                if tracer.stack:
                    tracer.stack[-1][0] += seconds
                else:
                    tracer.top_level_s += seconds
            if measure is not None:
                for metric, value, how in measure(tracer, args, result):
                    if how == "max":
                        tracer.maxes[metric] = max(tracer.maxes[metric], value)
                    else:
                        tracer.sums[metric] += value
            return result

        return wrapper

    def patch_function(self, module: str, attr: str, name: str, measure=None):
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(name, original, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hochkit" or mod_name.startswith("hochkit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, measure=None):
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], measure))

    def count(self, metric: str):
        if self.active:
            self.sums[metric] += 1

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "sums": dict(self.sums), "maxes": dict(self.maxes),
                "top_level_s": self.top_level_s}


# --- measures recorded next to spans -----------------------------------------

def _matrix_size(prefix: str, with_nnz: bool):
    def measure(tracer, args, result):
        m = args[0]
        yield f"{prefix}.cells", m.rows * m.cols, "sum"
        if with_nnz:
            yield f"{prefix}.nnz", m.nnz(), "sum"
    return measure


def _balanced_tensor(tracer, args, result):
    # balanced_tensor(mid, right_act, m_dim, left_act, n_dim)
    yield "modules.balanced_tensor.ambient", args[2] * args[4], "sum"
    yield "modules.balanced_tensor.quotient", result.dim, "sum"


def _chain_coords(tracer, args, result):
    # ChainComplex.__init__(self, dims, maps, direction)
    yield "hochschild.chain_coords", sum(args[1]), "sum"


def _kernel_dim(tracer, args, result):
    if tracer.open["tqft.evaluate"]:
        yield "tqft.max_kernel_dim", result.dim, "max"


VERIFIERS = ("adjointness_check", "functoriality_check", "morita_isometry_check",
             "hrr_check", "cardy_check", "chern_commutation_check",
             "chern_additivity_check", "todd_hrr_check", "trace_triangle_check")


def install() -> Tracer:
    """Wrap every traced layer of an imported hochkit; returns the tracer,
    inactive until the caller sets `active`."""
    import hochkit.cli  # noqa: F401  (loaded so that cli.run can be wrapped)
    from hochkit.hochschild import ChainComplex
    from hochkit.linalg import SparseMatrix
    from hochkit.modules import BalancedTensor, Bimodule
    from hochkit.scalars import CycScalar
    from hochkit.tqft import GeneratorKernels

    t = Tracer()
    functions = [
        ("hochkit.linalg", "rank", "linalg.rank", _matrix_size("linalg.rank", True)),
        ("hochkit.linalg", "cokernel_projector", "linalg.cokernel",
         _matrix_size("linalg.cokernel", False)),
        ("hochkit.linalg", "rref", "linalg.rref", None),
        ("hochkit.linalg", "solve", "linalg.solve", None),
        ("hochkit.linalg", "nullspace", "linalg.nullspace", None),
        ("hochkit.linalg", "kron", "linalg.kron", None),
        ("hochkit.algebra", "center_basis", "algebra.center_basis", None),
        ("hochkit.algebra", "commutator_subspace", "algebra.commutator_subspace", None),
        ("hochkit.algebra", "tensor", "algebra.tensor", None),
        # apply_kernel calls apply_kernel_full, so only the latter is a span
        ("hochkit.modules", "apply_kernel_full", "modules.apply_kernel", None),
        ("hochkit.modules", "hom_space", "modules.hom_space", None),
        ("hochkit.modules", "balanced_tensor", "modules.balanced_tensor", _balanced_tensor),
        ("hochkit.modules", "convolve", "modules.convolve", _kernel_dim),
        ("hochkit.modules", "parallel_kernels", "modules.parallel_kernels", None),
        ("hochkit.hochschild", "bar_chain_complex", "hochschild.assembly", None),
        ("hochkit.hochschild", "bar_cochain_complex", "hochschild.assembly", None),
        ("hochkit.hochschild", "hh_homology_dims", "hochschild.hh_dims", None),
        ("hochkit.hochschild", "hh_cohomology_dims", "hochschild.hh_dims", None),
        ("hochkit.mukai", "pushforward", "mukai.pushforward", None),
        ("hochkit.mukai", "adjoint_transfer", "mukai.adjoint_transfer", None),
        ("hochkit.mukai", "chern", "mukai.chern", None),
        ("hochkit.mukai", "cohomology_transport", "mukai.cohomology_transport", None),
        ("hochkit.tqft", "evaluate", "tqft.evaluate", None),
        ("hochkit.cli", "run", "cli.run", None),
    ] + [("hochkit.mukai", v, "mukai.verifiers", None) for v in VERIFIERS]
    for module, attr, name, measure in functions:
        t.patch_function(module, attr, name, measure)

    t.patch_method(SparseMatrix, "__mul__", "linalg.matmul")
    t.patch_method(Bimodule, "left_action", "modules.action")
    t.patch_method(Bimodule, "right_action", "modules.action")
    t.patch_method(BalancedTensor, "descend", "modules.descend")
    t.patch_method(ChainComplex, "__init__", "hochschild.dd_check", _chain_coords)
    t.patch_method(GeneratorKernels, "step_kernel", "tqft.step_kernel", _kernel_dim)
    _count_scalars(t, CycScalar)
    return t


def _count_scalars(t: Tracer, cls):
    """Counters, not spans: scalar operations are too many and too short."""
    def by_field(kind: str, op):
        q, cyc = f"scalars.{kind}.q", f"scalars.{kind}.cyc"

        def counted(a, b):
            if t.active:
                t.sums[q if a.order == 1 and getattr(b, "order", 1) == 1 else cyc] += 1
            return op(a, b)
        return counted

    for attr, kind in (("__mul__", "mul"), ("__rmul__", "mul"),
                       ("__add__", "add"), ("__radd__", "add")):
        setattr(cls, attr, by_field(kind, cls.__dict__[attr]))

    inverse = cls.__dict__["inverse"]

    def counted_inverse(self):
        t.count("scalars.inverse.calls")
        return inverse(self)
    cls.inverse = counted_inverse

    init = cls.__dict__["__init__"]

    def counted_init(self, order, coeffs, *, _canonical=False):
        # the non-canonical path reduces to the conductor (descent)
        if not _canonical and order > 1:
            t.count("scalars.descent.calls")
        init(self, order, coeffs, _canonical=_canonical)
    cls.__init__ = counted_init

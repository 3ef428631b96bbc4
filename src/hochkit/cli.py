"""Command-line surface.

    hochkit hh <algebra> --max-degree N [--cohomology] [--unnormalized]
    hochkit center <algebra>
    hochkit validate <algebra>
    hochkit chern <algebra> <module>
    hochkit iota <algebra> <module> [--endo <matrix>]
    hochkit pairing <algebra> <z1> <z2>
    hochkit pushforward <kernel> <z>
    hochkit tqft <algebra> (--word "<word>" | --genus N)
    hochkit verify {hrr,cardy,all} [fixtures..]
    hochkit verify {adjoint,functorial,morita,traces}

Only hrr and cardy read a fixture list; `verify all` hands it to them.

Algebras resolve in order: an existing file path, a file named
`<name>.alg` under $HOCHKIT_FIXTURES, then the built-in fixture grammar
(zn:<k>, s3, d4, q8, a4, mat:<n>, dual, trunc:<k>, field, tensor(a,b),
op(a), env(a)).  Modules are `<algebra>#<name>` with names from the
bundled simples plus reg, simple:<i>, sum:<i,j,..>, or a module file path;
a bare name is a module of the command's algebra.  Central elements are
coordinate vectors `[c0,...,cn]` in scalar syntax or `ch:<module>`, where
<module> is any module reference that `chern` accepts.  Lists, integers,
vectors and matrices are read by the readers of `specfiles`, so an empty
item or an out-of-range integer is a usage error here as in a file.

Exit codes: 0 all identities hold, 1 at least one mismatch, 2 usage or
precondition errors.  With --format machine the output is a single JSON
document with a stable schema and no timings, so fixed-seed runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from math import prod
from typing import Optional, Sequence

from . import fixtures
from .algebra import Algebra, center_basis, validate
from .errors import AlgebraMismatch, HochkitError, ParseError, RoutesDisagree
from .hochschild import hh_cohomology_dims, hh_homology_dims
from .linalg import SparseMatrix
from .modules import (
    ModuleRep, hom_space, outer_kernel, regular_bimodule, simples_of,
)
from .mukai import (
    CheckReport, MukaiClass, adjointness_check, cardy_check, chern,
    chern_commutation_check, format_value, functoriality_check, generalized_trace,
    hrr_check, iota_solve, morita_isometry_check, morita_kernel,
    assemble_split_map, mukai_pairing, pushforward, serre_trace, trace_triangle_check,
)
from .scalars import cyc
from .specfiles import (
    _parse_matrix, _parse_vector, load_algebra_text, parse_int, parse_module_file, read_spec_file,
)
from .tqft import evaluate as tqft_evaluate, orbit_count, parse_word

SCHEMA_VERSION = 1


class Report:
    def __init__(self, command: str, seed: int):
        self.command = command
        self.seed = seed
        self.records: list[tuple[dict, float]] = []  # (machine row, seconds) per comparison
        self.lines: list[str] = []  # free-form context for table output

    def add_report(self, rep: CheckReport, inputs: str, elapsed: float = 0.0):
        """One row per comparison of `rep`, named `<report>: <label>` or by
        the report alone when unlabeled; the report's notes become lines."""
        for label, left, right, ok in rep.comparisons:
            row = {"name": f"{rep.name}: {label}" if label else rep.name,
                   "check": rep.check_id, "inputs": inputs,
                   "left": left, "right": right, "pass": ok}
            self.records.append((row, elapsed))
        self.lines.extend(rep.notes)

    def line(self, text: str):
        self.lines.append(text)

    @property
    def ok(self) -> bool:
        return all(row["pass"] for row, _ in self.records)

    def summary(self) -> dict:
        passed = sum(1 for row, _ in self.records if row["pass"])
        return {"pass": passed, "fail": len(self.records) - passed,
                "total": len(self.records)}

    def render_machine(self) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.seed,
            "records": [row for row, _ in self.records],
            "notes": self.lines,
            "summary": self.summary(),
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def render_table(self) -> str:
        out = list(self.lines)
        if self.records:
            name_w = min(64, max(len(row["name"]) for row, _ in self.records))
            for row, elapsed in self.records:
                status = "pass" if row["pass"] else "FAIL"
                timing = f"  [{elapsed:.2f}s]" if elapsed else ""
                out.append(f"{status}  {row['name'][:name_w]:<{name_w}}  "
                           f"{row['left']} == {row['right']}{timing}")
            s = self.summary()
            out.append(f"summary: {s['pass']} passed, {s['fail']} failed "
                       f"(seed {self.seed})")
        return "\n".join(out)


# --- input resolution -----------------------------------------------------------

def load_algebra(name: str) -> Algebra:
    if os.path.isfile(name):  # file algebras are validated as they are built
        return load_algebra_text(name)
    fixtures_dir = os.environ.get("HOCHKIT_FIXTURES")
    if fixtures_dir:
        candidate = os.path.join(fixtures_dir, f"{name}.alg")
        if os.path.isfile(candidate):
            return load_algebra_text(candidate)
    return fixtures.algebra_fixture(name)


def load_module(ref: str) -> tuple[Algebra, ModuleRep]:
    if os.path.isfile(ref):
        m = parse_module_file(read_spec_file(ref), load_algebra, name=os.path.basename(ref))
        return m.algebra, m
    if "#" not in ref:
        raise ParseError(f"module reference {ref!r} is neither a file nor "
                         "of the form <algebra>#<name>")
    alg_name, _, mod_name = ref.partition("#")
    a = load_algebra(alg_name)
    return a, fixtures.module_fixture(a, mod_name)


def _module_ref(a: Algebra, ref: str) -> ModuleRep:
    """The module `ref`: a bare name is a fixture module of `a`; a module
    file or an `<algebra>#<name>` is loaded as it says."""
    if "#" not in ref and not os.path.isfile(ref):
        return fixtures.module_fixture(a, ref)
    return load_module(ref)[1]


def _module_over(algebra: str, ref: str) -> tuple[Algebra, ModuleRep]:
    """The module `ref` over `algebra`; a module file or an `<algebra>#<name>`
    must be over `algebra`."""
    a = load_algebra(algebra)
    m = _module_ref(a, ref)
    if m.algebra != a:
        raise AlgebraMismatch(f"module {ref!r} is not over {algebra}")
    return a, m


def _parse_central(a: Algebra, text: str) -> MukaiClass:
    text = text.strip()
    if text.startswith("ch:"):
        return chern(_module_ref(a, text[3:]))
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("central element must be [c0,...,cn] or ch:<module>")
    return MukaiClass(a, _parse_vector(text, a.dim))


def _resolve_kernel(spec: str):
    spec = spec.strip()
    if spec.startswith("regular:"):
        a = load_algebra(spec[len("regular:"):])
        return regular_bimodule(a)
    if spec.startswith("morita:"):
        rest = spec[len("morita:"):]
        alg_name, _, n_text = rest.rpartition(":")
        a, n = load_algebra(alg_name), parse_int(n_text, "morita size", low=1)
        fixtures._bounded(n * n * a.dim, spec)  # the target is tensor(mat:n, a)
        return morita_kernel(a, n)
    if spec.startswith("outer(") and spec.endswith(")"):
        inner = spec[len("outer("):-1]
        left, right = fixtures._split_args(inner, spec)
        a, v = load_module(left)
        _, w = load_module(right)
        return outer_kernel(v.dual(), w, a)
    raise ParseError(f"unknown kernel spec {spec!r}; use regular:<algebra>, "
                     "morita:<algebra>:<n>, or outer(<module>,<module>)")


# --- verify suites ---------------------------------------------------------------

HRR_FIXTURES = list(fixtures.ALL_GROUP_FIXTURES)
KERNEL_FIXTURES = ["zn:2", "zn:3", "s3"]
CARDY_INSTANCES = 50  # random Cardy instances per fixture
ADJOINT_KERNELS = 10  # kernels in the adjointness suite
FUNCTORIAL_CHECKS = 6  # composable pairs in the functoriality suite
TRACE_INSTANCES = 100  # random instances of each trace identity


def _random_intertwiner(rng, m: ModuleRep, span=None) -> SparseMatrix:
    basis = (span or hom_space(m, m)).basis
    out = SparseMatrix.zero(m.dim, m.dim)
    for b in basis:
        out = out + b.scale(Fraction(rng.randint(-3, 3)))
    return out


def _random_matrix(rng, rows, cols) -> SparseMatrix:
    return SparseMatrix(rows, cols, (((r, c), rng.randint(-2, 2))
                                     for r in range(rows) for c in range(cols)))


def suite_hrr(report: Report, rng, names: Optional[Sequence[str]]):
    for name in names or HRR_FIXTURES:
        a = load_algebra(name)
        simples = simples_of(a)
        t0 = time.monotonic()
        for x in simples:
            for y in simples:
                rep = hrr_check(x, y)
                report.add_report(rep, inputs=f"{name}#{x.name}, {name}#{y.name}",
                                  elapsed=time.monotonic() - t0)
                t0 = time.monotonic()


def suite_cardy(report: Report, rng, names: Optional[Sequence[str]]):
    for name in names or HRR_FIXTURES:
        a = load_algebra(name)
        simples = simples_of(a)
        for i in range(CARDY_INSTANCES):
            e_mod = simples[rng.randrange(len(simples))].direct_sum(
                simples[rng.randrange(len(simples))])
            f_mod = simples[rng.randrange(len(simples))].direct_sum(
                simples[rng.randrange(len(simples))])
            e = _random_intertwiner(rng, e_mod)
            f = _random_intertwiner(rng, f_mod)
            rep = cardy_check(e_mod, f_mod, e, f)
            report.add_report(rep, inputs=f"{name} instance {i}")
        # the identity degeneration reproduces the Riemann-Roch identity
        for x in simples:
            for y in simples:
                rep = cardy_check(x, y, SparseMatrix.identity(x.dim),
                                  SparseMatrix.identity(y.dim))
                hrr = hrr_check(x, y)
                report.add_report(CheckReport.single(
                    f"cardy degenerates to riemann-roch ({x.name}, {y.name})", "cardy",
                    rep.comparisons[0][1], hrr.comparisons[0][1], given=rep.ok and hrr.ok),
                    inputs=name)


def _kernel_library(rng, count: int = 10):
    """Outer-tensor kernels (and later their convolutions) across the small
    fixture groups, all inside the order-6 scalar field."""
    algebras = [load_algebra(n) for n in KERNEL_FIXTURES]
    kernels = []
    i = 0
    while len(kernels) < count:
        a = algebras[i % len(algebras)]
        b = algebras[(i + 1 + (i % 2)) % len(algebras)]
        sa = simples_of(a)
        sb = simples_of(b)
        v = sa[rng.randrange(len(sa))].dual()
        w = sb[rng.randrange(len(sb))]
        kernels.append(outer_kernel(v, w, a))
        i += 1
    return kernels


def suite_adjoint(report: Report, rng, names):
    for idx, k in enumerate(_kernel_library(rng, ADJOINT_KERNELS)):
        t0 = time.monotonic()
        rep = adjointness_check(k)
        report.add_report(rep, inputs=f"kernel {idx}: {k.name}",
                          elapsed=time.monotonic() - t0)


def suite_functorial(report: Report, rng, names):
    kernels = _kernel_library(rng, FUNCTORIAL_CHECKS + 2)
    made = 0
    for k1 in kernels:
        for k2 in kernels:
            if k1.target != k2.source or made >= FUNCTORIAL_CHECKS:
                continue
            made += 1
            t0 = time.monotonic()
            rep = functoriality_check(k1, k2)
            report.add_report(rep, inputs=f"{k1.name} then {k2.name}",
                              elapsed=time.monotonic() - t0)
    for k in kernels[:3]:
        simples = simples_of(k.source)
        m = simples[rng.randrange(len(simples))].direct_sum(
            simples[rng.randrange(len(simples))])
        rep = chern_commutation_check(k, m)
        report.add_report(rep, inputs=f"{k.name} on {m.name}")


def suite_morita(report: Report, rng, names):
    for name, degree in [("field", 2), ("zn:2", 3), ("s3", None)]:
        a = load_algebra(name)
        t0 = time.monotonic()
        rep = morita_isometry_check(a, 2, hh_maxdeg=degree)
        report.add_report(rep, inputs=f"{name} vs M_2 amplification",
                          elapsed=time.monotonic() - t0)
    # non-semisimple Hochschild-dimension invariance runs outside the kernel
    # machinery: compare the algebra against its matrix amplification directly
    for name in ["dual", "zn:2"]:
        a = load_algebra(name)
        b = load_algebra(f"tensor(mat:2,{name})")
        for kind, fn in [("homology", hh_homology_dims), ("cohomology", hh_cohomology_dims)]:
            t0 = time.monotonic()
            rep = CheckReport.single(f"hochschild {kind} invariance ({name})",
                                     "morita-invariance", fn(a, 3).dims, fn(b, 3).dims)
            report.add_report(rep, inputs=f"{name} vs tensor(mat:2,{name})",
                              elapsed=time.monotonic() - t0)


def suite_traces(report: Report, rng, names):
    z2 = load_algebra("zn:2")
    s3 = load_algebra("s3")
    pool = [simples_of(s3)[i] for i in range(3)] + [simples_of(z2)[i] for i in range(2)]
    # commutativity of the trace on intertwiners
    for i in range(TRACE_INSTANCES):
        m = pool[rng.randrange(len(pool))]
        other = pool[rng.randrange(len(pool))]
        m2 = m.direct_sum(other) if other.algebra == m.algebra else m
        span = hom_space(m2, m2)
        f = _random_intertwiner(rng, m2, span)
        g = _random_intertwiner(rng, m2, span)
        report.add_report(CheckReport.single(
            f"trace commutation instance {i}", "trace-commutation",
            serre_trace(m2, g * f), serre_trace(m2, f * g)), inputs=m2.name)
    # naturality of the partial trace
    for i in range(TRACE_INSTANCES):
        fd, gd, hd, ed = (rng.randint(1, 3) for _ in range(4))
        mu = _random_matrix(rng, gd * ed, fd * ed)
        nu = _random_matrix(rng, hd, gd)
        lifted = SparseMatrix(hd * ed, gd * ed,
                              {(r * ed + k, c * ed + k): v
                               for r, c, v in nu.entries() for k in range(ed)})
        report.add_report(CheckReport.single(
            f"partial trace naturality instance {i}", "partial-trace-naturality",
            generalized_trace(lifted * mu, fd, hd, ed), nu * generalized_trace(mu, fd, gd, ed)),
            inputs=f"dims f={fd} g={gd} h={hd} e={ed}")
    # additivity over split triples
    for i in range(TRACE_INSTANCES):
        de, dg, dh = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        e = _random_matrix(rng, dh * de, de)
        g = _random_matrix(rng, dh * dg, dg)
        phi = _random_matrix(rng, dh * de, dg)
        f = assemble_split_map(e, g, phi, de, dg, dh)
        rep = trace_triangle_check(e, f, g, de, dg, dh)
        _, defect, zero, _ = rep.comparisons[-1]  # the hypotheses come before it
        report.add_report(CheckReport.single(
            f"trace triangle instance {i}", "trace-additivity", defect, zero, given=rep.ok),
            inputs=f"dims E={de} G={dg} H={dh}")


SUITES = {"hrr": suite_hrr, "cardy": suite_cardy, "adjoint": suite_adjoint,
          "functorial": suite_functorial, "morita": suite_morita, "traces": suite_traces}
FIXTURE_SUITES = ("hrr", "cardy", "all")  # the verify arguments that take fixture names


# --- commands --------------------------------------------------------------------

def _cmd_validate(args, report: Report) -> int:
    a = load_algebra(args.algebra)
    if not a._validated_on_build:  # group tables and combinators are trusted as built
        validate(a)
    report.line(f"{args.algebra}: ok (dim {a.dim}, field order {a.field_order}, "
                f"{'frobenius' if a.serre else 'no frobenius data'})")
    return 0


def _cmd_center(args, report: Report) -> int:
    a = load_algebra(args.algebra)
    zs = center_basis(a)
    report.line(f"center dimension: {zs.rows}")
    for r in range(zs.rows):
        report.line("  " + format_value(zs.row_vector(r)))
    return 0


def _cmd_hh(args, report: Report) -> int:
    a = load_algebra(args.algebra)
    fn = hh_cohomology_dims if args.cohomology else hh_homology_dims
    t0 = time.monotonic()
    result = fn(a, args.max_degree, normalized=not args.unnormalized)
    elapsed = time.monotonic() - t0
    kind = "cohomology" if args.cohomology else "homology"
    report.line(f"hochschild {kind} dims of {args.algebra} "
                f"({'unnormalized' if args.unnormalized else 'normalized'} route):")
    for k, d in enumerate(result.dims):
        report.line(f"  degree {k}: {d}")
    report.line(f"complete through degree {result.truncation}"
                + ("" if args.format == "machine" else f"  [{elapsed:.2f}s]"))
    return 0


def _cmd_chern(args, report: Report) -> int:
    a, m = _module_over(args.algebra, args.module)
    ch = chern(m)
    report.line(f"ch({m.name}) = {format_value(ch.coords)}")
    scaled = ch.scale(m.dim)
    report.line(f"idempotent normalization: dim(M) * ch = {format_value(scaled.coords)}"
                "  (the block idempotent when M is irreducible; the solved "
                "class carries a 1/dim factor relative to it)")
    rng = random.Random(args.seed)
    zs = center_basis(a)
    fcoords = zs.transpose().apply(tuple(cyc(rng.randint(-3, 3)) for _ in range(zs.rows)))
    report.add_report(CheckReport.single(
        "chern defining property on held-out central element", "chern-defining-property",
        mukai_pairing(ch, MukaiClass(a, fcoords, _checked=True)), m.character(fcoords)),
        inputs=f"{args.algebra}#{m.name}")
    return 0 if report.ok else 1


def _cmd_iota(args, report: Report) -> int:
    _, m = _module_over(args.algebra, args.module)
    if args.endo:
        e = _parse_matrix(args.endo, m.dim)
    else:
        e = SparseMatrix.identity(m.dim)
    z = iota_solve(m, e)
    report.line(f"iota({m.name}, endo) = {format_value(z.coords)}")
    if not args.endo:
        report.add_report(CheckReport.single(
            "iota of the identity is the chern class", "chern-defining-property",
            z, chern(m)), inputs=f"{args.algebra}#{m.name}")
    return 0 if report.ok else 1


def _cmd_pairing(args, report: Report) -> int:
    a = load_algebra(args.algebra)
    v = _parse_central(a, args.z1)
    w = _parse_central(a, args.z2)
    report.line(f"<{args.z1}, {args.z2}> = {format_value(mukai_pairing(v, w))}  "
                "[trace-of-central-product]")
    return 0


def _cmd_pushforward(args, report: Report) -> int:
    k = _resolve_kernel(args.kernel)
    v = _parse_central(k.source, args.z)
    out = pushforward(k, v)
    report.line(f"pushforward = {format_value(out.coords)}")
    report.line("(route A and route B agreed)")
    return 0


def _cmd_tqft(args, report: Report) -> int:
    a = load_algebra(args.algebra)
    word = parse_word(args.word if args.word is not None else f"genus:{args.genus}")
    t0 = time.monotonic()
    inv = tqft_evaluate(a, word)
    elapsed = time.monotonic() - t0
    report.line(f"word: {word}")
    report.line(f"invariant dimension: {inv.dims}")
    g = word.genus
    if g is not None:
        report.line(f"genus: {g}")
    if g == 0:
        rep = CheckReport.single("sphere value", "tqft-sphere", inv.dims, 1)
    elif g == 1:
        rep = CheckReport.single("torus value equals dim HH_0", "tqft-torus",
                                 inv.dims, center_basis(a).rows)
    else:
        # Burnside: conjugation orbits on G^g, one factor per component
        rep = CheckReport.single("surface value equals the conjugation orbit count",
                                 "tqft-orbit-count", inv.dims,
                                 prod(orbit_count(a, h) for h in word.component_genera))
    report.add_report(rep, inputs=args.algebra, elapsed=elapsed)
    return 0 if report.ok else 1


def _cmd_verify(args, report: Report) -> int:
    if args.fixtures and args.suite not in FIXTURE_SUITES:
        raise ParseError(f"verify {args.suite} takes no fixtures")
    rng = random.Random(args.seed)
    names = args.fixtures or None
    for suite_name in SUITES if args.suite == "all" else [args.suite]:
        SUITES[suite_name](report, rng, names)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "machine"), default="table")
    common.add_argument("--seed", type=int, default=0)
    parser = argparse.ArgumentParser(
        prog="hochkit",
        description="exact Hochschild structure computations on "
                    "finite-dimensional algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check algebra invariants")
    p.add_argument("algebra")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("center", parents=[common], help="basis of the center")
    p.add_argument("algebra")
    p.set_defaults(fn=_cmd_center)

    p = sub.add_parser("hh", parents=[common],
                       help="hochschild (co)homology dimensions")
    p.add_argument("algebra")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--cohomology", action="store_true")
    p.add_argument("--unnormalized", action="store_true")
    p.set_defaults(fn=_cmd_hh)

    p = sub.add_parser("chern", parents=[common],
                       help="solve the chern character of a module")
    p.add_argument("algebra")
    p.add_argument("module")
    p.set_defaults(fn=_cmd_chern)

    p = sub.add_parser("iota", parents=[common], help="class of an endomorphism")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--endo", default=None, help="matrix [[..],[..]]")
    p.set_defaults(fn=_cmd_iota)

    p = sub.add_parser("pairing", parents=[common],
                       help="mukai pairing of two central elements")
    p.add_argument("algebra")
    p.add_argument("z1")
    p.add_argument("z2")
    p.set_defaults(fn=_cmd_pairing)

    p = sub.add_parser("pushforward", parents=[common],
                       help="transfer a class along a kernel")
    p.add_argument("kernel", help="regular:<a> | morita:<a>:<n> | outer(m1,m2)")
    p.add_argument("z")
    p.set_defaults(fn=_cmd_pushforward)

    p = sub.add_parser("tqft", parents=[common],
                       help="evaluate a closed-surface invariant")
    p.add_argument("algebra")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word")
    group.add_argument("--genus", type=int)
    p.set_defaults(fn=_cmd_tqft)

    p = sub.add_parser("verify", parents=[common], help="run an identity suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("fixtures", nargs="*")
    p.set_defaults(fn=_cmd_verify)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    report = Report(command=args.command, seed=args.seed)
    try:
        code = args.fn(args, report)
    except RoutesDisagree as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    except (HochkitError, FileNotFoundError) as exc:  # ParseError is a HochkitError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    output = report.render_machine() if args.format == "machine" else report.render_table()
    if output:
        try:
            print(output)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left; send the rest, and the flush at exit, nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if code != 0:
        return code
    return 0 if report.ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""The three workloads: their seeded inputs, operations and expected answers.

A workload is built whole in every child process (that is the set-up the
benchmark times), then the child runs one job, a list of operations.  Each
operation calls the public API once and is checked against an answer from
`reference`, never against hochkit's own output.

hh        bar-complex assembly, the exact d o d check and sparse rank on
          large purely rational matrices; no kernel calculus, no cyclotomic
          scalars, no reuse between operations.  The seed relabels the
          bases of the algebras of the small operations; the answers do not
          move.
transfer  pushforwards of seeded central elements along seeded outer
          kernels among zn:3, zn:4, s3, q8 and a4: cyclotomic scalars
          (mixed fields such as zn:3 -> zn:4 land in Q(zeta_12)), small dense
          systems and heavy reuse, since each kernel recurs for ten
          elements.  Also adjointness, functoriality, Morita and two CLI
          verify suites.
tqft      closed-surface evaluation: a few large rational balanced tensors
          and cokernel projectors that dominate time and memory, plus seeded
          random closed words of arity <= 3 with bystander circles and
          disconnected components.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import Callable

import hochkit
import hochkit.cli
from hochkit.algebra import Algebra, DictSC, SerreData
from hochkit.fixtures import algebra_fixture
from hochkit.scalars import ZERO

import reference


class Op:
    """One call into the program and the check of its answer.  `check`
    returns whether the answer is right and a canonical text of it, which
    traced and untraced runs must reproduce byte for byte."""

    def __init__(self, name: str, run: Callable[[], object],
                 check: Callable[[object], tuple[bool, str]]):
        self.name = name
        self.run = run
        self.check = check


def build(workload: str, seed: int, size: str) -> list[list[Op]]:
    """All jobs of a workload, each a list of operations; size is "full"
    or "smoke"."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, seed, size == "smoke")


def _expect(expected) -> Callable[[object], tuple[bool, str]]:
    def check(got):
        return got == expected, str(got)
    return check


# --- hh ----------------------------------------------------------------------

def _relabeled(a: Algebra, rng) -> Algebra:
    """The same algebra with basis vector i renamed perm[i]."""
    perm = list(range(a.dim))
    rng.shuffle(perm)

    def move(coords):
        out = [ZERO] * a.dim
        for i, c in enumerate(coords):
            out[perm[i]] = c
        return out

    sc = {(perm[i], perm[j]): {perm[k]: v for k, v in a.sc.product(i, j).items()}
          for i in range(a.dim) for j in range(a.dim)}
    serre = SerreData(move(a.serre.functional)) if a.serre else None
    return Algebra(a.dim, DictSC(sc), move(a.unit), serre=serre,
                   gens=[move(g) for g in a.gens], validated=True)


def _hh_op(label: str, a: Algebra, degree: int, cohomology: bool,
           expected: list[int], normalized: bool = True) -> Op:
    kind = "HH^*" if cohomology else "HH_*"
    route = "" if normalized else " unnormalized"

    def run():  # looked up per call, so the traced run sees the wrappers
        fn = hochkit.hh_cohomology_dims if cohomology else hochkit.hh_homology_dims
        return fn(a, degree, normalized=normalized).dims
    return Op(f"{kind} {label} deg {degree}{route}", run, _expect(expected))


def _hh(rng, seed, smoke):
    names = ("s3", "d4", "q8", "a4", "zn:3", "zn:4", "tensor(mat:2,zn:2)", "trunc:3", "dual")
    fixtures = {name: algebra_fixture(name) for name in names}
    # The large operations run on the bundled fixtures: a relabeling changes
    # the elimination's pivot order and moved their cost by about 10% from
    # seed to seed.  The small operations each run on their own seeded
    # relabeling.

    def op(name, degree, cohomology, relabeled=False, normalized=True):
        if name in ("trunc:3", "dual"):
            k = fixtures[name].dim
            expected = [k] + [k - 1] * degree
        elif name == "tensor(mat:2,zn:2)":
            expected = [2] + [0] * degree  # Morita invariance: the HH of C[Z/2]
        else:
            expected = [reference.class_count(fixtures[name].provenance[2])] + [0] * degree
        a = _relabeled(fixtures[name], rng) if relabeled else fixtures[name]
        return _hh_op(name + "~" * relabeled, a, degree, cohomology, expected, normalized)

    cross_checks = [op("trunc:3", 6, False, True), op("dual", 6, True, True),
                    op("zn:3", 2, False, True, normalized=False),
                    op("trunc:3", 3, True, True, normalized=False)]
    if smoke:
        return [[op("s3", 1, False), op("q8", 1, True),
                 op("tensor(mat:2,zn:2)", 1, False), op("a4", 1, False, True),
                 op("trunc:3", 2, False, True), op("dual", 2, True, True),
                 op("zn:3", 1, False, True, normalized=False)]]
    jobs = [[op("s3", 3, False)], [op("s3", 3, True)],
            [op("d4", 2, False)], [op("d4", 2, True)],
            [op("q8", 2, False)], [op("q8", 2, True)],
            [op("tensor(mat:2,zn:2)", 3, False)], cross_checks]
    # Fourteen seeded operations: HH_* and HH^* of zn:4 (about 0.15 s), and
    # twelve HH^* of s3 and tensor(mat:2,zn:2) deg 2 and a4 deg 1 (about
    # 0.4 s each), so the median operation falls in the middle of twelve of
    # the same size.  They are dealt over all jobs, so they are timed at
    # moments spread over the whole cycle.
    small = [op("zn:4", 3, False, True), op("zn:4", 3, True, True)]
    small += [op(name, degree, True, True) for _ in range(4)
              for name, degree in (("s3", 2), ("tensor(mat:2,zn:2)", 2), ("a4", 1))]
    return [job + small[i::len(jobs)] for i, job in enumerate(jobs)]


# --- transfer ----------------------------------------------------------------

# (source, target, choices of V, choices of W): the seed picks V and W
# among Galois-conjugate simples, which cost the same, so the cost of a slot
# does not depend on the seed
KERNEL_SLOTS = [
    ("zn:3", "zn:4", ("chi1", "chi2"), ("chi1", "chi3")),
    ("zn:4", "zn:3", ("chi1", "chi3"), ("chi0",)),
    ("zn:3", "s3", ("chi1", "chi2"), ("std",)),
    ("s3", "zn:3", ("triv",), ("chi1", "chi2")),
    ("s3", "zn:4", ("std",), ("chi1", "chi3")),
    ("zn:4", "s3", ("chi1", "chi3"), ("std",)),
    ("s3", "s3", ("triv",), ("std",)),
    ("a4", "zn:3", ("omega", "omega2"), ("chi0",)),
    ("s3", "q8", ("std",), ("std",)),
    ("zn:4", "a4", ("chi1", "chi3"), ("std",)),
]
SMOKE_SLOTS = [("zn:3", "zn:4", ("chi1", "chi2"), ("chi1", "chi3")),
               ("zn:2", "s3", ("chi1",), ("std",))]


def _report_check(report) -> tuple[bool, str]:
    return report.ok, "; ".join(f"{label}: {l} == {r}"
                                for label, l, r, _ in report.comparisons)


def _cli_op(argv: list[str]) -> Op:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = hochkit.cli.run(argv)
        return code, out.getvalue()

    def check(got):
        code, text = got
        summary = json.loads(text)["summary"]
        return code == 0 and summary["fail"] == 0 and summary["total"] > 0, text
    return Op("hochkit " + " ".join(argv), run, check)


def _transfer(rng, seed, smoke):
    slots = SMOKE_SLOTS if smoke else KERNEL_SLOTS
    per_kernel = 2 if smoke else 10
    names = {n for s in slots for n in s[:2]}
    algebras = {n: algebra_fixture(n) for n in sorted(names)}
    ch = {n: [reference.chern_reference(a, s, ZERO, hochkit.cyc)
              for s in hochkit.simples_of(a)] for n, a in algebras.items()}

    kernels = []
    for src, dst, v_names, w_names in slots:
        sa, sb = hochkit.simples_of(algebras[src]), hochkit.simples_of(algebras[dst])
        iv = [s.name for s in sa].index(rng.choice(v_names))
        iw = [s.name for s in sb].index(rng.choice(w_names))
        kernels.append((hochkit.outer_kernel(sa[iv].dual(), sb[iw], algebras[src]), iv, iw))

    # Round-robin over the kernels: each recurs every len(slots) operations,
    # and operations of every cost are spread over the whole timed phase.
    pushes = []
    for _ in range(per_kernel):
        for (src, dst, _, _), (k, iv, iw) in zip(slots, kernels):
            a = algebras[src]
            # v = sum_i c_i ch(S_i) with every c_i nonzero, so route A
            # transports every simple; K_* v = c_V ch(W)
            c = [hochkit.cyc(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                      rng.randint(1, 3))) for _ in ch[src]]
            coords = [sum((ci * chi[g] for ci, chi in zip(c, ch[src])), ZERO)
                      for g in range(a.dim)]
            v = hochkit.MukaiClass(a, coords)
            expected = tuple(c[iv] * x for x in ch[dst][iw])
            pushes.append(Op(f"pushforward {k.name} {src}->{dst}",
                             lambda k=k, v=v: hochkit.pushforward(k, v).coords,
                             _expect(expected)))
    kernels = [k for k, _, _ in kernels]

    def report_op(label, fn):
        return Op(label, fn, _report_check)

    morita = "zn:2" if smoke else "zn:3"
    checks = [
        report_op(f"adjointness {kernels[0].name}",
                  lambda: hochkit.adjointness_check(kernels[0])),
        report_op(f"morita {morita} vs M_2",
                  lambda: hochkit.morita_isometry_check(algebras[morita], 2)),
    ]
    functorial = _cli_op(["verify", "functorial", "--seed", str(seed), "--format", "machine"])
    if smoke:
        return [pushes, checks + [functorial]]
    checks += [
        report_op(f"adjointness {kernels[2].name}",
                  lambda: hochkit.adjointness_check(kernels[2])),
        report_op(f"functoriality {kernels[0].name} then {kernels[1].name}",
                  lambda: hochkit.functoriality_check(kernels[0], kernels[1])),
    ]
    adjoint = _cli_op(["verify", "adjoint", "--seed", str(seed), "--format", "machine"])
    half = len(pushes) // 2
    return [pushes[:half], pushes[half:], checks, [adjoint, functorial]]


# --- tqft --------------------------------------------------------------------

# generator sequences of the random words; zn:k words reach arity 3, s3
# words stay at arity <= 2 (an arity-3 word over s3 took 62 s and 825 MB)
WORD_TEMPLATES = {
    "arity3_genus2": ["cap_in", "pants_split", "pants_split", "pants_merge",
                      "pants_merge", "cap_out"],
    "arity3_two_caps": ["cap_in", "pants_split", "cap_in", "pants_merge",
                        "cap_out", "cap_out"],
    "arity2_merge": ["cap_in", "cap_in", "pants_merge", "cap_out"],
    "arity2_two_disks": ["cap_in", "cap_in", "cap_out", "cap_out"],
}
# Eight of the words cost 0.3-0.5 s whatever their positions.  Five
# operations of the workload cost less and five more (the zn:3 genus-2 word
# about 0.9 s), so the median operation falls in the middle of those eight.
RANDOM_WORDS = [
    ("zn:3", "arity3_genus2"), ("s3", "arity2_two_disks"),
    ("zn:3", "arity3_two_caps"), ("zn:3", "arity3_two_caps"),
    ("zn:3", "arity3_two_caps"), ("zn:3", "arity3_two_caps"),
    ("s3", "arity2_merge"), ("s3", "arity2_merge"),
    ("s3", "arity2_merge"), ("s3", "arity2_merge"),
]
SMOKE_WORDS = [("zn:2", "arity3_genus2"), ("zn:2", "arity3_two_caps")]


def _surface_op(label: str, a: Algebra, steps, genera: list[int]) -> Op:
    expected = 1
    for g in genera:
        expected *= reference.surface_value(a.provenance[2], g)
    word = hochkit.CobordismWord(steps)
    return Op(f"tqft {label} {word}",
              lambda: hochkit.evaluate(a, word).dims, _expect(expected))


def _tqft(rng, seed, smoke):
    names = ("zn:2", "zn:3", "s3") if smoke else ("zn:3", "s3", "d4", "q8")
    algebras = {n: algebra_fixture(n) for n in names}

    def genus(name, g):
        steps = [("cap_in", 0)] + [("pants_split", 0), ("pants_merge", 0)] * g \
            + [("cap_out", 0)]
        return _surface_op(name, algebras[name], steps, [g])

    words = []
    for name, template in SMOKE_WORDS if smoke else RANDOM_WORDS:
        steps = reference.random_word(rng, WORD_TEMPLATES[template])
        words.append(_surface_op(name, algebras[name], steps,
                                 reference.word_genera(steps)))
    if smoke:
        return [[genus("s3", 0), genus("zn:3", 1)] + words]
    fixed = [
        [genus("s3", 0), genus("s3", 1)],
        [genus("s3", 2)],
        [genus("zn:3", 0), genus("zn:3", 1), genus("zn:3", 2)],
        [genus("d4", 1)],
        [genus("q8", 1)],
    ]
    # the words are dealt over all jobs, so the operations near the median
    # are timed at moments spread over the whole cycle
    return [job + words[i::len(fixed)] for i, job in enumerate(fixed)]


BUILDERS = {"hh": _hh, "transfer": _transfer, "tqft": _tqft}

"""Seeded job lists for the benchmark workloads.

Each builder takes the freshly imported ``mackeykit`` package, the seed and a
scratch directory, and returns the fixed job list of one pass.  The multiset
of job shapes is the same for every seed, so a pass costs about the same on
every seed; the seed chooses the job order, summand orders, signed-permutation
relabelings, random automorphisms, random submodules and the seeds handed to
the library's own searches.

A job is one certified computation.  ``run`` is timed; ``check`` is not.  It
compares the output with an oracle (a known value, a law such as Yoneda or
the Burnside unit law, or a re-check of the witness) and returns None,
``("inconclusive", why)`` when the library gave up on a question whose answer
is known, or ``("wrong", why)``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], object]


def wrong(why):
    return ("wrong", why)


def inconclusive(why):
    return ("inconclusive", why)


def _iso_check(mk, res, expect_iso=True, modulus=None, pair=None):
    """Verdict against the known truth; witnesses and certificates re-checked.

    An isomorphism witness must pass ``.check()`` and ``is_level_iso()``.  A
    mod-m certificate for the pair (M, N) is re-checked by running the same
    test the library uses, det = +-1 mod m at the certificate's level, over
    every combination mod m of the library's own ``hom_basis``: this re-runs
    the search behind the certificate in full, it is not an independent
    invertibility test."""
    if res.verdict == "inconclusive":
        return inconclusive(res.detail)
    if expect_iso:
        if res.verdict != "isomorphic":
            return wrong(f"expected isomorphic, got {res.verdict}")
        w = res.witness
        if w is None or not w.check().ok or not w.is_level_iso():
            return wrong("isomorphism witness does not re-check")
        return None
    if res.verdict != "not_isomorphic":
        return wrong(f"expected not isomorphic, got {res.verdict}")
    cert = res.certificate or {}
    if cert.get("modulus") != modulus:
        return wrong(f"expected a mod-{modulus} certificate, got {cert}")
    homs = [h.components[cert["level"]] for h in mk.mackey.hom_basis(*pair)]
    for coeffs in itertools.product(range(modulus), repeat=len(homs)):
        F = sum(c * H for c, H in zip(coeffs, homs))
        if mk.linalg.bareiss_det(F) % modulus in (1, modulus - 1):
            return wrong(f"a hom is invertible mod {modulus}: the certificate is false")
    return None


# ---------------------------------------------------------------------------
# field-decide: Green modules over meadows with prime-field coefficients

# name, p, n, field degree (None: constant F_p), then per pass the module
# shapes (levels of the free summands) of each job kind; a "dec" shape also
# names the summands the idempotent keeps.  Shapes only use levels whose free
# modules keep every job between ~1 ms and a few seconds.
FIELD_RINGS = [
    ("F2/C2", 2, 1, None, {
        "hom": [((0,), (0, 1)), ((1,), (0, 1, 1)), ((0, 1), (0,)), ((1, 1), (0, 1)),
                ((0,), (0,)), ((1,), (1, 1)), ((0, 1, 1), (1,)), ((0, 0), (0, 1))],
        "dec": [((0, 1), (0,)), ((0, 1, 1), (1, 1)), ((1, 1), (1,)), ((0, 0), (0,)),
                ((0,), (0,)), ((0, 0, 1), (0, 1))],
        "iso": [(0, 1), (0, 1, 1), (0, 0, 1), (1, 1)],
        "bc": [(0,), (0, 1), (1, 1), (0, 1, 1)]}),
    ("F3/C3", 3, 1, None, {
        "hom": [((0,), (0, 1)), ((1,), (0, 1)), ((0, 1), (1,)), ((1, 1), (0,)),
                ((0,), (0,)), ((1,), (1, 1))],
        "dec": [((0, 1), (1,)), ((1, 1), (1, 1)), ((0,), (0,)), ((0, 1, 1), (0, 1))],
        "iso": [(0, 1), (1, 1, 0), (0, 0)],
        "bc": [(0,), (0, 1), (1, 1)]}),
    ("F5/C5", 5, 1, None, {
        "hom": [((0,), (0,)), ((1,), (0, 1)), ((0, 1), (1,)), ((1, 1), (0,)),
                ((1,), (1, 1))],
        "dec": [((0, 1), (0,)), ((1, 1), (1,)), ((0,), (0,))],
        "iso": [(0, 1), (1, 1, 0), (1, 1)],
        "bc": [(0,), (0, 1), (1, 1)]}),
    ("F2/C4", 2, 2, None, {
        "hom": [((0, 0, 1), (0, 0, 1)), ((0,), (1, 2)), ((1,), (0, 2)), ((2,), (0, 1, 2)),
                ((1, 2), (1,)), ((0, 2), (2,))],
        "dec": [((0, 2), (2,)), ((1, 2), (1,)), ((2, 2), (2, 2)), ((1, 1), (1,))],
        "iso": [(0, 2), (1, 2), (2, 1, 2)]}),
    ("F3/C9", 3, 2, None, {
        "hom": [((1,), (1, 2)), ((2,), (0,)), ((1, 2), (2,)), ((2, 2), (1,))],
        "dec": [((1, 2), (1,)), ((2, 2), (2,)), ((1,), (1,))],
        "iso": [(1, 2), (2, 2)]}),
    ("F5/C25", 5, 2, None, {
        "hom": [((1, 2), (1,)), ((1,), (1, 2)), ((2,), (1, 2))],
        "dec": [((1, 2), (2,)), ((2, 2), (2, 2))],
        "iso": [(1, 2), (2, 2)]}),
    ("FP(F4)/C2", 2, 1, 2, {
        "hom": [((0,), (0,)), ((1,), (0, 1)), ((0, 1), (1,)), ((1, 1), (0,)),
                ((1,), (1, 1))],
        "dec": [((0,), (0,)), ((0, 1), (1,)), ((1, 1), (1,))],
        "iso": [(0, 1), (1, 1), (1, 0, 1)],
        "bc": [(1,), (0, 1), (1, 1)]}),
    ("FP(F27)/C3", 3, 1, 3, {
        "hom": [((1, 1), (0,)), ((0,), (1,)), ((1,), (1, 1))],
        "dec": [((1, 1), (1,)), ((1,), (1,))],
        "iso": [(1, 1), (1,)],
        "bc": [(1,), (1, 1)]}),
    ("FP(F16)/C4", 2, 2, 4, {
        "hom": [((1, 2), (1, 2)), ((2,), (1,))],
        "dec": [((2, 2), (2,))],
        "iso": [(2, 2)]}),
]


def _field_ring(mk, p, n, degree, name):
    G = mk.gsets.CyclicGroup(p, n)
    if degree is None:
        return mk.green.constant_green(G, mk.fields.gf_make(p, 1), name=name)
    return mk.green.fixed_point_green(G, mk.fields.gf_make(p, degree))


def _shuffled(rng, seq):
    seq = list(seq)
    rng.shuffle(seq)
    return seq


def _random_submodule(mk, M, rng):
    """A nonzero submodule of M: the image of a random endomorphism."""
    la = mk.linalg
    base = M.ring.base
    basis = mk.green.green_module_hom_basis(M, M)
    elements = list(base.elements())
    for _ in range(40):
        comps = None
        for h in basis:
            c = rng.choice(elements)
            scaled = [la.scalar_mul(c, f) for f in h.components]
            comps = scaled if comps is None else [a + b for a, b in zip(comps, scaled)]
        spans = [la.column_space_basis(c, base) for c in comps]
        if any(sp.shape[1] for sp in spans):
            return mk.green.green_module_from_invariant_span(M, spans)
    raise RuntimeError("could not sample a nonzero submodule")


def build_field_decide(mk, seed, workdir):
    rng = random.Random(seed)
    la = mk.linalg
    jobs = []
    for name, p, n, degree, plan in FIELD_RINGS:
        R = _field_ring(mk, p, n, degree, name)
        base = R.base
        free = {i: mk.functors.free_module(R, i) for i in range(n + 1)}
        stab = mk.kzero.meadow_stabilizer(R)

        def dsum(levels):
            return mk.green.direct_sum_green_modules([free[i] for i in levels])

        for src, dst in plan.get("hom", []):
            src, dst = _shuffled(rng, src), _shuffled(rng, dst)
            S, M = dsum(src), dsum(dst)
            # Yoneda: Hom(F_i, M) = M_i, so the dimension is sum_j dim M_{i_j}
            want = sum(M.level_dims()[i] for i in src)
            jobs.append(Job(
                "hom", f"{name} hom {src}->{dst}",
                lambda S=S, M=M: mk.green.green_module_hom_basis(S, M),
                lambda basis, want=want: None if len(basis) == want
                else wrong(f"hom dimension {len(basis)}, Yoneda gives {want}")))

        for levels, kept_levels in plan.get("dec", []):
            levels = _shuffled(rng, levels)
            todo = Counter(kept_levels)
            keep = set()
            for idx in _shuffled(rng, range(len(levels))):
                if todo[levels[idx]]:
                    todo[levels[idx]] -= 1
                    keep.add(idx)
            pieces = [free[i] for i in levels]
            F = dsum(levels)
            ident = [mk.mackey.MackeyMorphism.identity(P.underlying).components
                     for P in pieces]
            blocks = [[I if idx in keep else la.scalar_mul(base.zero, I) for I in comps]
                      for idx, comps in enumerate(ident)]
            kept = dict(Counter(levels[idx] for idx in keep))
            want = mk.kzero.classify_free(p, n, stab, kept).mults
            aut_seed, dec_seed = rng.randrange(10 ** 6), rng.randrange(10 ** 6)

            def run(R=R, F=F, blocks=blocks, aut_seed=aut_seed, dec_seed=dec_seed):
                g = mk.kzero.random_green_automorphism(F, seed=aut_seed)
                gi = mk.kzero.invert_module_iso(g)
                idem = [la.mmul_chain(g.components[s],
                                      la.block_diag([b[s] for b in blocks]),
                                      gi.components[s], base=R.base)
                        for s in range(R.n + 1)]
                return mk.kzero.freeness_decompose(R, F, idem, seed=dec_seed)

            def check(fw, want=want):
                if not fw.ok:
                    return wrong("decomposition witness failed its own check")
                if not fw.witness.check().ok or not fw.witness.is_level_iso():
                    return wrong("decomposition witness does not re-check")
                if fw.classification.mults != want:
                    return wrong(f"class {fw.classification.mults}, classify_free gives {want}")
                return None
            jobs.append(Job("dec", f"{name} dec {levels} keep {sorted(keep)}", run, check))

        for levels in plan.get("iso", []):
            a, b = _shuffled(rng, levels), _shuffled(rng, levels)
            A, B = dsum(a).underlying, dsum(b).underlying
            iso_seed = rng.randrange(10 ** 6)
            jobs.append(Job(
                "iso", f"{name} iso {a} vs {b}",
                lambda A=A, B=B, s=iso_seed: mk.mackey.is_isomorphic(A, B, seed=s),
                lambda res: _iso_check(mk, res)))

        if plan.get("bc"):
            ident = mk.green.GreenMorphism(
                R, R, mk.mackey.MackeyMorphism.identity(R.underlying).components)
        for levels in plan.get("bc", []):
            levels = _shuffled(rng, levels)
            M = dsum(levels)
            sub, incl = _random_submodule(mk, M, rng)

            def run(ident=ident, sub=sub, M=M, incl=incl):
                BS = mk.green.base_change_cp(ident, sub)
                BM = mk.green.base_change_cp(ident, M)
                return BS, BM, mk.green.base_change_map_cp(ident, incl, BS, BM)

            def check(out, sub=sub, M=M, base=base):
                BS, BM, g = out
                # base change along the identity returns the module itself
                if BS.level_dims() != sub.level_dims() or BM.level_dims() != M.level_dims():
                    return wrong("base change along the identity changed level dimensions")
                if not g.check().ok:
                    return wrong("induced map is not a module map")
                if any(la.rank(c, base) != d for c, d in zip(g.components, BS.level_dims())):
                    return wrong("induced map of an inclusion is not injective")
                return None
            jobs.append(Job("bc", f"{name} base change {levels}", run, check))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# int-box: integer Mackey functors over C_{p^n}


def _relabel(mk, M, rng):
    """M with each level's generators permuted and signed at random (M' = M)."""
    la = mk.linalg
    P, Pinv = [], []
    for lv in M.levels:
        d = lv.gens
        perm = rng.sample(range(d), d)
        Q = la.zeros(d, d)
        for i, j in enumerate(perm):
            Q[i, j] = rng.choice((1, -1))
        P.append(Q)
        Pinv.append(Q.T.copy())
    n = M.n
    res = [la.mmul_chain(P[s], M.res[s], Pinv[s + 1]) for s in range(n)]
    tr = [la.mmul_chain(P[s + 1], M.tr[s], Pinv[s]) for s in range(n)]
    weyl = [la.mmul_chain(P[s], M.weyl[s], Pinv[s]) for s in range(n + 1)]
    return mk.mackey.MackeyFunctor(M.group, M.base, M.levels, res, tr, weyl,
                                   name=M.name)


def _int_functor(mk, kind, p, n):
    G = mk.gsets.CyclicGroup
    if kind == "A":
        return mk.mackey.burnside_mackey(G(p, n))
    if kind == "Z":
        return mk.mackey.constant_mackey(G(p, n), mk.linalg.ZZ)
    if kind == "IndZe":            # constant Z of the trivial group, induced up
        return mk.functors.induce_mackey(mk.mackey.constant_mackey(G(p, 0), mk.linalg.ZZ), n)
    if kind == "IndA1":            # Burnside functor of C_p, induced up
        return mk.functors.induce_mackey(mk.mackey.burnside_mackey(G(p, 1)), n)
    raise ValueError(kind)


# (p, n) -> functors M used in A (x) M jobs; every pair keeps the job cheap
INT_BOX = {
    (2, 1): ("A", "Z", "IndZe"), (2, 2): ("A", "Z", "IndZe", "IndA1"),
    (2, 3): ("A", "Z", "IndZe", "IndA1"), (2, 4): ("Z", "IndZe"),
    (3, 1): ("A", "Z", "IndZe"), (3, 2): ("A", "Z", "IndZe", "IndA1"),
    (3, 3): ("A", "Z", "IndZe"), (5, 1): ("A", "Z", "IndZe"),
    (5, 2): ("A", "Z", "IndA1"), (7, 1): ("A", "Z", "IndZe"), (7, 2): ("A", "Z"),
}
INT_ISO = {
    (2, 1): ("A", "Z", "IndZe"), (2, 2): ("A", "Z", "IndZe", "IndA1"),
    (2, 3): ("A", "Z", "IndZe"), (2, 4): ("Z",),
    (3, 1): ("A", "Z", "IndZe"), (3, 2): ("A", "Z", "IndZe"), (3, 3): ("A", "Z"),
    (5, 1): ("A", "Z"), (5, 2): ("A", "Z"), (7, 1): ("A", "Z", "IndZe"),
    (7, 2): ("A", "Z"),
}
# (p, n, m, M): Hom(Ind_{C_p^m}^{C_p^n} A, M) has rank M_m (Yoneda); the
# C25 job into Ind A is the one heavy hom job (~3 s of Smith normal forms)
INT_HOM = [(2, 2, 0, "IndZe"), (2, 2, 1, "A"), (2, 3, 2, "A"), (2, 3, 0, "Z"),
           (2, 4, 4, "A"), (2, 4, 2, "Z"), (2, 3, 0, "IndZe"), (3, 2, 0, "IndZe"),
           (5, 2, 0, "IndA1"),
           (3, 2, 1, "IndZe"), (3, 2, 0, "A"), (3, 3, 1, "A"), (3, 3, 3, "Z"),
           (5, 1, 0, "A"), (5, 2, 1, "A"), (5, 2, 2, "IndA1"), (7, 1, 0, "IndZe"),
           (7, 2, 1, "Z"), (7, 2, 2, "A")]
INT_K0 = [(2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (2, 4, 3), (2, 4, 4),
          (3, 1, 1), (3, 2, 0), (3, 2, 1), (3, 3, 2), (3, 3, 3), (5, 1, 1), (5, 2, 1),
          (5, 2, 2), (7, 1, 1), (7, 2, 1)]
# presentations recorded in the test suite; for the other r < n only the
# additive group is checked
K0_KNOWN = {(2, 2, 1): "Z[y]/(y^2-4y)", (3, 2, 1): "Z[y]/(y^2-9y)", (3, 2, 0): "Z",
            (2, 1, 1): "Z[x]/(x^2-2x)"}


def build_int_box(mk, seed, workdir):
    rng = random.Random(seed)
    jobs = []

    def functor(kind, p, n, relabel=True):
        M = _int_functor(mk, kind, p, n)
        return _relabel(mk, M, rng) if relabel else M

    for (p, n), kinds in INT_BOX.items():
        for kind in kinds:
            A, M = functor("A", p, n), functor(kind, p, n)
            label = f"C{p}^{n} box A.{kind}"

            def run(A=A, M=M):
                B = mk.green.box_product_general(A, M)
                return B, mk.mackey.check_axioms(B)

            def check(out, M=M):
                B, rep = out
                if not rep.ok:
                    return wrong("check_axioms rejects the box product")
                # unit law: A (x) M = M, so the level ranks agree
                if B.level_dims() != M.level_dims():
                    return wrong(f"A(x)M has ranks {B.level_dims()}, M has {M.level_dims()}")
                return None
            jobs.append(Job("box", label, run, check))

    for (p, n), kinds in INT_ISO.items():
        for kind in kinds:
            M = functor(kind, p, n)
            AM = mk.green.box_product_general(functor("A", p, n, relabel=False),
                                              functor(kind, p, n))
            iso_seed = rng.randrange(10 ** 6)
            jobs.append(Job(
                "iso", f"C{p}^{n} iso {kind} vs A.{kind}",
                lambda M=M, AM=AM, s=iso_seed: mk.mackey.is_isomorphic(M, AM, seed=s),
                lambda res: _iso_check(mk, res)))

    # the bounded lattice search gives up on A (x) Ind_e^{C16} Z = Ind_e^{C16} Z
    # after ~10^4 candidates: a known failure, kept so a better search shows.
    # Its search seed is fixed: a few seeds in a hundred stumble on a witness
    # late in the random phase, which would make the job's cost a lottery.
    M = functor("IndZe", 2, 4, relabel=False)
    AM = mk.green.box_product_general(functor("A", 2, 4, relabel=False), M)
    jobs.append(Job("iso", "C2^4 iso IndZe vs A.IndZe (bounded search)",
                    lambda M=M, AM=AM: mk.mackey.is_isomorphic(M, AM, seed=1),
                    lambda res: _iso_check(mk, res)))

    # the twisted C5 functor: At (x) At = A, and A != At with a mod-5 certificate
    At = mk.mackey.twisted_burnside_c5()
    A5 = mk.mackey.burnside_mackey(mk.gsets.CyclicGroup(5, 1))
    jobs.append(Job(
        "iso", "C5 iso A vs At.At",
        lambda A5=A5, At=At: mk.mackey.is_isomorphic(A5, mk.green.box_product_general(At, At)),
        lambda res: _iso_check(mk, res)))
    jobs.append(Job(
        "iso", "C5 iso A vs At",
        lambda A5=A5, At=At: mk.mackey.is_isomorphic(A5, At),
        lambda res: _iso_check(mk, res, expect_iso=False, modulus=5, pair=(A5, At))))

    for p, n, m, kind in INT_HOM:
        rep = mk.functors.induce_mackey(functor("A", p, m, relabel=False), n)
        M = functor(kind, p, n)
        want = M.levels[m].gens
        jobs.append(Job(
            "hom", f"C{p}^{n} hom Ind_{m} A -> {kind}",
            lambda rep=rep, M=M: mk.mackey.hom_basis(rep, M),
            lambda basis, want=want: None if len(basis) == want
            else wrong(f"hom rank {len(basis)}, Yoneda gives {want}")))

    for p in (2, 3, 5, 7):
        def check(r):
            if not (r.maps_ok and all(r.exact) and r.alternating_rank_zero and r.ok):
                return wrong("the exact resolution of constant Z was reported inexact")
            return None
        jobs.append(Job("resolution", f"resolution C{p}",
                        lambda p=p: mk.kzero.constant_Z_resolution_check(p), check))

    for p, n, r in INT_K0:
        def check(res, p=p, n=n, r=r):
            if list(res.additive_invariants) != [0] * (r + 1):
                return wrong(f"K0 additive group {res.additive_invariants}, expected Z^{r + 1}")
            if r == n:
                want = mk.rings.render_presentation(
                    mk.gsets.burnside_ring(mk.gsets.CyclicGroup(p, n)))
            else:
                want = K0_KNOWN.get((p, n, r))
            if want is not None and res.presentation != want:
                return wrong(f"presentation {res.presentation}, expected {want}")
            return None
        jobs.append(Job("k0free", f"k0free p={p} n={n} r={r}",
                        lambda p=p, n=n, r=r: mk.kzero.k0_free_fixed_point(p, n, r),
                        check))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# doc-cli: in-process CLI runs on documents written at set-up


def _check_object(mk, obj):
    if isinstance(obj, mk.green.GreenModule):
        return mk.green.check_green_module(obj)
    if isinstance(obj, mk.green.GreenFunctor):
        return mk.green.check_green(obj)
    return mk.mackey.check_axioms(obj)


def _doc_oracle(mk, text, dims=None):
    """Byte-stable round trip, the axioms, and (when known) the level ranks."""
    obj = mk.docio.parse_document(text)
    if mk.docio.print_document(obj) != text:
        return wrong("print(parse(doc)) is not byte-identical")
    if not _check_object(mk, obj).ok:
        return wrong("document produced by the CLI fails check")
    if dims is not None and tuple(obj.level_dims()) != tuple(dims):
        return wrong(f"level ranks {obj.level_dims()}, expected {tuple(dims)}")
    return None


def _cli_runner(mk, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mk.cli.main(list(argv))
        return rc, out.getvalue()
    return run


def _expect_rc0(check):
    def wrapped(result):
        rc, out = result
        if rc != 0:
            return wrong(f"exit status {rc}: {out.strip()[:200]}")
        return check(out)
    return wrapped


def build_doc_cli(mk, seed, workdir):
    rng = random.Random(seed)
    G = mk.gsets.CyclicGroup
    jobs = []
    docs = {}                       # key -> (path, object)

    def save(key, obj):
        path = os.path.join(workdir, key.replace("/", "_") + ".doc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mk.docio.print_document(obj))
        docs[key] = (path, obj)
        return path

    def add(kind, argv, check):
        label = " ".join(os.path.relpath(a, workdir) if a.startswith(workdir) else a
                         for a in argv)
        jobs.append(Job(kind, label, _cli_runner(mk, argv), _expect_rc0(check)))

    # named examples for p in {2, 3, 5}
    for p in (2, 3, 5):
        for n in (1, 2):
            save(f"burnside-{p}-{n}", mk.cli.build_example("burnside", p, n))
            save(f"constant-Z-{p}-{n}", mk.cli.build_example("constant-Z", p, n))
            save(f"constant-F{p}-{n}", mk.cli.build_example("constant-Fp", p, n))
        save(f"char-example-{p}", mk.cli.build_example("char-example", p))
    save("twisted-burnside-c5", mk.cli.build_example("twisted-burnside-c5"))
    # Galois fixed points of GF(4), GF(16), GF(27): F_p coefficients, field level rings
    save("fp-galois-2-1", mk.cli.build_example("fp-galois", 2, 1, 2))
    save("fp-galois-2-2", mk.cli.build_example("fp-galois", 2, 2))
    save("fp-galois-3-1", mk.cli.build_example("fp-galois", 3, 1, 3))
    # GF(4) and GF(16) coefficients: the non-prime elimination path
    gfq = {(2, 2, 1): None, (2, 2, 2): None, (2, 4, 1): None}
    for p, k, n in gfq:
        gfq[p, k, n] = mk.green.constant_green(G(p, n), mk.fields.gf_make(p, k),
                                               name=f"constant GF({p}^{k})")
        save(f"constant-GF{p ** k}-{p}-{n}", gfq[p, k, n])
    # many stages, tiny levels: check raises Weyl maps to p^(n-s)
    high = [("constant-Z", 2, n) for n in (8, 10, 12)] + \
           [("constant-F2", 2, n) for n in (8, 10, 12)] + [("constant-F3", 3, 6)]
    for name, p, n in high:
        save(f"{name}-{p}-{n}", mk.cli.build_example(name, p, n))
    # module documents: sums of free modules, summand order from the seed
    module_plan = [(_field_ring(mk, 2, 1, None, "F2bar"), (0, 1)),
                   (_field_ring(mk, 2, 1, None, "F2bar"), (0, 1, 1)),
                   (_field_ring(mk, 2, 1, None, "F2bar"), (1, 1)),
                   (_field_ring(mk, 3, 1, None, "F3bar"), (0, 1)),
                   (_field_ring(mk, 2, 2, None, "F2bar"), (0, 2)),
                   (_field_ring(mk, 2, 2, None, "F2bar"), (1, 2)),
                   (_field_ring(mk, 2, 1, 2, ""), (0, 1)),
                   (_field_ring(mk, 2, 1, 2, ""), (1, 1)),
                   (gfq[2, 2, 1], (0, 1)), (gfq[2, 2, 2], (0, 2)), (gfq[2, 4, 1], (0, 1))]
    modules = []
    for idx, (R, levels) in enumerate(module_plan):
        p, n = R.p, R.n
        levels = _shuffled(rng, levels)
        M = mk.green.direct_sum_green_modules([mk.functors.free_module(R, i) for i in levels])
        want = mk.kzero.classify_free(p, n, mk.kzero.meadow_stabilizer(R),
                                      dict(Counter(levels))).describe()
        modules.append((save(f"module-{idx}", M), want))

    def example_dims(name, p, n):
        if name == "burnside":
            return tuple(range(1, n + 2))
        return (1,) * (n + 1)

    for name, p, n in [("burnside", 2, 2), ("burnside", 3, 1), ("burnside", 5, 2),
                       ("constant-Z", 3, 2), ("constant-Fp", 2, 1), ("constant-Fp", 5, 1),
                       ("constant-Fp", 3, 2), ("constant-Z", 2, 10)]:
        add("example", ["example", name, "--p", str(p), "--n", str(n)],
            lambda out, d=example_dims(name, p, n): _doc_oracle(mk, out, d))
    for argv in (["example", "fp-galois", "--p", "2", "--n", "1", "--degree", "2"],
                 ["example", "fp-galois", "--p", "2", "--n", "2"],
                 ["example", "twisted-burnside-c5"],
                 ["example", "char-example", "--p", "3"]):
        add("example", argv, lambda out: _doc_oracle(mk, out))

    for key, (path, obj) in docs.items():
        add("check", ["check", path],
            lambda out, path=path: None if out == f"{path}: ok\n"
            else wrong(f"check output {out.strip()[:200]!r}"))
        dims = obj.level_dims()
        if len(dims) > 1:
            add("tau", ["tau", path],
                lambda out, d=dims[1:]: _doc_oracle(mk, out, d))
        if obj.base is not mk.linalg.ZZ and not key.startswith("module") \
                and len(dims) <= 3:
            add("phi", ["phi", path], lambda out: _doc_oracle(mk, out))

    for p in (2, 3, 5):
        add("phi", ["phi", docs[f"burnside-{p}-1"][0]], lambda out: _doc_oracle(mk, out))

    # E1 page: G0 of a constant F_q over C_{p^n} has n+1 simples, the faithful
    # Galois meadows are Morita equivalent to F_p, the char examples have two
    g0_truth = {f"constant-F{p}-{n}": n + 1 for p in (2, 3, 5) for n in (1, 2)}
    g0_truth.update({f"constant-GF{p ** k}-{p}-{n}": n + 1 for p, k, n in gfq})
    g0_truth.update({"fp-galois-2-1": 1, "fp-galois-2-2": 1, "fp-galois-3-1": 1,
                     "char-example-2": 2, "char-example-3": 2})
    for key, total in g0_truth.items():
        add("e1", ["e1", docs[key][0]],
            lambda out, total=total: None
            if re.search(rf"G0 total: {total} \(certified\)", out)
            else wrong(f"e1 output {out.strip()[:200]!r}, expected G0 total {total}"))

    # box products with the Burnside functor keep the ranks of the other factor
    for p in (2, 3, 5):
        for n in (1, 2):
            for other in (f"burnside-{p}-{n}", f"constant-Z-{p}-{n}"):
                pair = [docs[f"burnside-{p}-{n}"][0], docs[other][0]]
                add("box", ["box"] + _shuffled(rng, pair),
                    lambda out, d=docs[other][1].level_dims(): _doc_oracle(mk, out, d))
    At = docs["twisted-burnside-c5"][0]
    add("box", ["box", At, At], lambda out: _doc_oracle(mk, out, (1, 2)))

    iso_cases = [(f"burnside-{p}-{n}", f"burnside-{p}-{n}", "isomorphic")
                 for p in (2, 3, 5) for n in (1, 2)]
    iso_cases += [(f"constant-Z-{p}-2", f"constant-Z-{p}-2", "isomorphic") for p in (2, 3)]
    iso_cases += [("fp-galois-2-1", "fp-galois-2-1", "isomorphic"),
                  ("constant-GF4-2-2", "constant-GF4-2-2", "isomorphic"),
                  ("constant-GF16-2-1", "constant-GF16-2-1", "isomorphic"),
                  ("burnside-5-1", "twisted-burnside-c5",
                   'non-iso, certificate "mod 5, level C5/C5"'),
                  ("twisted-burnside-c5", "burnside-5-1",
                   'non-iso, certificate "mod 5, level C5/C5"')]
    for a, b, verdict in iso_cases:
        add("iso", ["iso", docs[a][0], docs[b][0], "--seed", str(rng.randrange(1000))],
            lambda out, v=verdict: None if out == v + "\n"
            else wrong(f"iso output {out.strip()[:200]!r}, expected {v!r}"))

    for p, n, r in [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 0), (3, 2, 1),
                    (3, 3, 2), (5, 2, 2), (2, 3, 3)]:
        def check(out, p=p, n=n, r=r):
            lines = out.splitlines()
            additive = "Z" if r == 0 else f"Z^{r + 1}"
            if lines[1:] != [f"additive: {additive}"]:
                return wrong(f"k0free additive line {lines[1:]}, expected {additive}")
            if r == n:
                want = mk.rings.render_presentation(mk.gsets.burnside_ring(G(p, n)))
            else:
                want = K0_KNOWN.get((p, n, r))     # None: only the additive group
            if want is not None and lines[0] != want:
                return wrong(f"k0free presentation {lines[0]}, expected {want}")
            return None
        add("k0free", ["k0free", "--p", str(p), "--n", str(n), "--stab", str(r)], check)

    for path, want in modules:
        add("decompose", ["decompose", path, "--seed", str(rng.randrange(1000))],
            lambda out, want=want: None
            if out == f"canonical form: {want}\n"
                      "witness: verified module isomorphism from the free model\n"
            else wrong(f"decompose output {out.strip()[:200]!r}, expected {want}"))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "field-decide": build_field_decide,
    "int-box": build_int_box,
    "doc-cli": build_doc_cli,
}

"""Command-line front end: build named examples, run checks, compute invariants.

Inputs are functor documents (see :mod:`mackeykit.docio`) read from a path,
from standard input (``-``), or built on the fly from an example name.
Reports go to standard output and are deterministic for a fixed seed; the
seed defaults to ``$MACKEYKIT_SEED`` (then 0) when no ``--seed`` is given.

Exit status: 0 when the command reaches a pass/success verdict, 1 with a
``fail:`` section otherwise, 2 on parse/usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from . import docio
from .docio import ParseError
from .fields import gf_make
from .functors import geometric_fixed_points, phi_ring, tau_geq_1
from .green import (GreenFunctor, GreenModule, burnside_green, box_product_general,
                    char_example_green, check_green, check_green_module,
                    constant_green, fixed_point_green)
from .gsets import CyclicGroup
from .kzero import decompose_module, g0_splitting, k0_free_fixed_point
from .linalg import ZZ
from .mackey import check_axioms, is_isomorphic, resolve_seed, twisted_burnside_c5

EXAMPLE_NAMES = ("burnside", "constant-Z", "constant-Fp", "fp-galois",
                 "twisted-burnside-c5", "char-example")


class UsageError(ValueError):
    """Arguments that name nothing to compute; main exits 2 on it."""


def build_example(name: str, p: int = 2, n: int = 1, degree: int | None = None):
    """Construct one of the named example functors: UsageError on an unknown
    name, or when p, n or degree fit no group or field it is built on."""
    m = re.fullmatch(r"constant-F(\d+)", name)
    if m and name != "constant-Fp":
        name, p = "constant-Fp", int(m.group(1))
    try:
        if name == "twisted-burnside-c5":
            return twisted_burnside_c5()
        if name == "char-example":
            return char_example_green(p)
        G = CyclicGroup(p, n)
        if name == "burnside":
            return burnside_green(G)
        if name == "constant-Z":
            return constant_green(G, ZZ, name="constant Z")
        if name == "constant-Fp":
            return constant_green(G, gf_make(p, 1), name=f"constant F{p}")
        if name == "fp-galois":
            k = degree if degree is not None else p ** n
            if k > 0 and p ** n % k:
                # before gf_make, which may search for a default modulus
                raise ValueError(f"degree {k} does not divide {p}^{n}")
            return fixed_point_green(G, gf_make(p, k))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    raise UsageError(f"unknown example {name!r}; choose from "
                     + ", ".join(EXAMPLE_NAMES))


def _load_input(arg: str, args) -> object:
    """Document from an example name, '-' (stdin), or a file path."""
    if arg == "-":
        return docio.parse_document(sys.stdin.read())
    if arg in EXAMPLE_NAMES or re.fullmatch(r"constant-F\d+", arg):
        return build_example(arg, getattr(args, "p", 2), getattr(args, "n", 1),
                             getattr(args, "degree", None))
    try:
        return docio.load_document(arg)
    except OSError as exc:
        raise ParseError(f"cannot read {arg}: {exc.strerror or exc}") from None


def _seed(args) -> int:
    """--seed, else $MACKEYKIT_SEED (UsageError unless an integer), else 0."""
    try:
        return resolve_seed(args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _render_additive(invariants) -> str:
    free = sum(1 for d in invariants if d == 0)
    tors = [d for d in invariants if d != 0]
    parts = [f"Z/{d}" for d in tors]
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    return " + ".join(parts) if parts else "0"


def _orbit_name(group: CyclicGroup, level: int) -> str:
    return f"C{group.p ** group.n}/C{group.p ** level}"


def _print_matrix(label: str, A) -> None:
    print(f"{label} rows {A.shape[0]} cols {A.shape[1]}")
    for a in range(A.shape[0]):
        print("  " + " ".join(str(A[a, b]) for b in range(A.shape[1])))


# -- subcommands -------------------------------------------------------------

def cmd_example(args) -> int:
    obj = build_example(args.name, args.p, args.n, args.degree)
    _write_output(docio.print_document(obj), args.output)
    return 0


def cmd_check(args) -> int:
    status = 0
    for arg in args.inputs:
        obj = _load_input(arg, args)
        if isinstance(obj, GreenModule):
            rep = check_green_module(obj)
        elif isinstance(obj, GreenFunctor):
            rep = check_green(obj)
        else:
            rep = check_axioms(obj)
        verdict = "ok" if rep.ok else "FAIL"
        print(f"{arg}: {verdict}")
        if not rep.ok:
            for line in rep.lines()[1:]:
                print(f"fail: {line.strip()}")
            status = 1
    return status


def cmd_k0free(args) -> int:
    if not 0 <= args.stab <= args.n:
        raise UsageError(f"--stab {args.stab} is outside 0..{args.n}")
    res = k0_free_fixed_point(args.p, args.n, args.stab)
    print(res.presentation)
    print(f"additive: {_render_additive(res.additive_invariants)}")
    return 0


def cmd_decompose(args) -> int:
    seed = _seed(args)
    obj = _load_input(args.input, args)
    if not isinstance(obj, GreenModule):
        print("fail: decompose needs a module document")
        return 1
    wit = decompose_module(obj.ring, obj, seed=seed)
    print(f"canonical form: {wit.classification.describe()}")
    if wit.ok:
        print("witness: verified module isomorphism from the free model")
        return 0
    print("fail: witness did not verify")
    for line in wit.report.lines()[1:]:
        print(f"fail: {line.strip()}")
    return 1


def cmd_phi(args) -> int:
    obj = _load_input(args.input, args)
    if isinstance(obj, GreenModule):
        print("fail: phi takes a mackey or green document")
        return 1
    if args.stages is not None:
        if not isinstance(obj, GreenFunctor):
            raise UsageError("--stages needs a green document")
        try:
            ph = phi_ring(obj, args.stages)
        except ValueError as exc:
            raise UsageError(f"--stages: {exc}") from None
        rank = ph.rank if ph.ring is not None else 0
        base = "none" if ph.ring is None else \
            ("Z" if ph.ring.base is ZZ else f"F{ph.ring.base.q}")
        print(f"phi^{args.stages} ring: rank {rank} over {base}; {ph.description}")
        return 0
    _write_output(docio.print_document(geometric_fixed_points(obj)), args.output)
    return 0


def cmd_tau(args) -> int:
    res = tau_geq_1(_load_input(args.input, args))
    _write_output(docio.print_document(res), args.output)
    return 0


def cmd_e1(args) -> int:
    obj = _load_input(args.input, args)
    if not isinstance(obj, GreenFunctor):
        print("fail: e1 needs a green-functor document")
        return 1
    g0 = g0_splitting(obj)
    page = g0.page
    rings = ", ".join(t.label for t in page.terms) or "0"
    tz = "yes" if page.transfers_zero else "no"
    ranks = "+".join("?" if r is None else str(r) for r in g0.term_ranks)
    print(f"rings: {rings}; zero-transfer: {tz}; G0 ranks {ranks}")
    total = "?" if g0.total is None else str(g0.total)
    certified = "certified" if g0.certified else "not certified"
    print(f"splitting: {page.splitting}; G0 total: {total} ({certified})")
    for note in page.notes:
        print(f"note: {note}")
    return 0


def cmd_box(args) -> int:
    parts = []
    for arg in (args.left, args.right):
        obj = _load_input(arg, args)
        if isinstance(obj, GreenModule):
            print("fail: box takes mackey or green documents")
            return 1
        parts.append(obj.underlying if isinstance(obj, GreenFunctor) else obj)
    res = box_product_general(parts[0], parts[1])
    _write_output(docio.print_document(res), args.output)
    return 0


def cmd_iso(args) -> int:
    seed = _seed(args)
    left = _load_input(args.left, args)
    right = _load_input(args.right, args)
    pair = []
    for obj in (left, right):
        if isinstance(obj, GreenModule):
            print("fail: iso compares mackey or green documents")
            return 1
        pair.append(obj.underlying if isinstance(obj, GreenFunctor) else obj)
    res = is_isomorphic(pair[0], pair[1], seed=seed)
    if res.verdict == "isomorphic":
        print("isomorphic")
        if args.witness and res.witness is not None:
            for s, f in enumerate(res.witness.components):
                _print_matrix(f"witness level {s}", f)
        return 0
    if res.verdict == "not_isomorphic":
        cert = res.certificate or {}
        if "modulus" in cert and "level" in cert:
            orbit = _orbit_name(pair[0].group, cert["level"])
            print(f'non-iso, certificate "mod {cert["modulus"]}, level {orbit}"')
        else:
            print(f'non-iso, certificate "{res.detail or cert}"')
        return 0
    print(f"fail: inconclusive ({res.detail})")
    return 1


# -- argument parsing --------------------------------------------------------

def _add_pn(sp, p_default=2, n_default=1):
    sp.add_argument("--p", type=int, default=p_default, help="prime")
    sp.add_argument("--n", type=int, default=n_default,
                    help="stages (group is cyclic of order p^n)")


def _add_seed(sp):
    sp.add_argument("--seed", type=int, default=None,
                    help="randomness seed (default: $MACKEYKIT_SEED, then 0)")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mackeykit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("example", help="emit a named example document")
    sp.add_argument("name", help="one of: " + ", ".join(EXAMPLE_NAMES))
    _add_pn(sp)
    sp.add_argument("--degree", type=int, default=None,
                    help="field degree for fp-galois (default p^n)")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cmd_example)

    sp = sub.add_parser("check", help="validate documents against the axioms")
    sp.add_argument("inputs", nargs="+",
                    help="document paths, '-', or example names")
    _add_pn(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("k0free",
                        help="K0 of free modules over galois fixed points")
    _add_pn(sp, n_default=2)
    sp.add_argument("--stab", type=int, required=True,
                    help="stage below which transfers stay injective")
    sp.set_defaults(func=cmd_k0free)

    sp = sub.add_parser("decompose",
                        help="write a module as a direct sum of free modules")
    sp.add_argument("input")
    _add_pn(sp)
    _add_seed(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("phi", help="geometric fixed points / phi ring")
    sp.add_argument("input")
    _add_pn(sp)
    sp.add_argument("--stages", type=int, default=None,
                    help="for green input: collapse transfers up to this stage")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cmd_phi)

    sp = sub.add_parser("tau", help="drop the bottom level")
    sp.add_argument("input")
    _add_pn(sp)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cmd_tau)

    sp = sub.add_parser("e1", help="filtration page ring data and G0 ranks")
    sp.add_argument("input", help="document path, '-', or example name")
    _add_pn(sp)
    sp.set_defaults(func=cmd_e1)

    sp = sub.add_parser("box", help="box product of two functors")
    sp.add_argument("left")
    sp.add_argument("right")
    _add_pn(sp)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cmd_box)

    sp = sub.add_parser("iso", help="decide isomorphism of two functors")
    sp.add_argument("left")
    sp.add_argument("right")
    _add_pn(sp)
    _add_seed(sp)
    sp.add_argument("--witness", action="store_true",
                    help="print the levelwise witness matrices when isomorphic")
    sp.set_defaults(func=cmd_iso)

    return ap


_parser = None     # built by the first main() call, reused by later ones


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = make_parser()
    args = _parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NotImplementedError) as exc:
        print(f"fail: {exc}")
        return 1
    finally:
        # stdout stays byte-deterministic for fixed input + seed
        print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

import io

import pytest

from mackeykit import cli
from mackeykit.docio import parse_document, print_document
from mackeykit.functors import geometric_fixed_points
from mackeykit.green import GreenFunctor, check_green
from mackeykit.mackey import MackeyFunctor, check_axioms


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


EXAMPLES = [
    ("burnside", ["--p", "2", "--n", "2"]),
    ("burnside", ["--p", "3", "--n", "1"]),
    ("constant-Z", ["--p", "5", "--n", "1"]),
    ("constant-Fp", ["--p", "3", "--n", "2"]),
    ("fp-galois", ["--p", "2", "--n", "2"]),
    ("fp-galois", ["--p", "2", "--n", "1", "--degree", "2"]),
    ("twisted-burnside-c5", []),
    ("char-example", ["--p", "2"]),
    ("constant-Fp", ["--p", "101", "--n", "1"]),     # a prime beyond DEFAULT_MODULI
]


@pytest.mark.parametrize("name,flags", EXAMPLES)
def test_examples_emit_valid_documents(capsys, name, flags):
    rc, out, _ = run(capsys, "example", name, *flags)
    assert rc == 0
    obj = parse_document(out)
    assert print_document(obj) == out
    if isinstance(obj, GreenFunctor):
        assert check_green(obj).ok
    else:
        assert check_axioms(obj).ok


def test_example_output_is_deterministic(capsys):
    _, a, _ = run(capsys, "example", "burnside", "--p", "3", "--n", "2")
    _, b, _ = run(capsys, "example", "burnside", "--p", "3", "--n", "2")
    assert a == b


def test_example_rejects_unknown_name(capsys):
    rc, out, err = run(capsys, "example", "nonesuch")
    assert rc == 2 and out == ""
    assert err.startswith("usage error: unknown example 'nonesuch'; choose from burnside")


@pytest.mark.parametrize("argv,message", [
    (["example", "burnside", "--p", "4"], "p = 4 is not prime"),
    (["example", "burnside", "--n", "-1"], "n must be >= 0"),
    (["example", "fp-galois", "--degree", "0"], "k must be >= 1"),
    (["check", "constant-F4"], "p = 4 is not prime"),
])
def test_an_argument_that_fits_no_example_is_a_usage_error(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert f"usage error: {message}" in err


def test_check_accepts_example_names(capsys):
    rc, out, _ = run(capsys, "check", "burnside", "--p", "2", "--n", "1")
    assert rc == 0 and "ok" in out


def test_check_flags_violations(capsys, tmp_path):
    _, text, _ = run(capsys, "example", "burnside", "--p", "2", "--n", "1")
    # break frobenius reciprocity: tr(1)*x surviving as the wrong element
    bad = text.replace("tr 0 rows 2 cols 1\n1\n0", "tr 0 rows 2 cols 1\n1\n1")
    path = tmp_path / "bad.doc"
    path.write_text(bad)
    rc, out, _ = run(capsys, "check", str(path))
    assert rc == 1 and "FAIL" in out and "fail:" in out


def test_check_reports_parse_errors_with_line(capsys, tmp_path):
    path = tmp_path / "junk.doc"
    path.write_text("junk\n")
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 2 and "line 1" in err


def test_check_missing_file(capsys):
    rc, _, err = run(capsys, "check", "no/such/file.doc")
    assert rc == 2 and "cannot read" in err


def test_k0free_pinned_presentation(capsys):
    rc, out, _ = run(capsys, "k0free", "--p", "2", "--n", "2", "--stab", "1")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "Z[y]/(y^2-4y)"
    assert lines[1] == "additive: Z^2"


def test_k0free_full_burnside(capsys):
    rc, out, _ = run(capsys, "k0free", "--p", "2", "--n", "1", "--stab", "1")
    assert rc == 0 and out.splitlines()[0] == "Z[x]/(x^2-2x)"


@pytest.mark.parametrize("stab", ["3", "-1"])
def test_k0free_stabilizer_out_of_range_is_a_usage_error(capsys, stab):
    rc, out, err = run(capsys, "k0free", "--p", "2", "--n", "1", "--stab", stab)
    assert rc == 2 and out == ""
    assert f"--stab {stab} is outside 0..1" in err


def test_decompose_reports_canonical_form(capsys, tmp_path):
    _, text, _ = run(capsys, "example", "fp-galois", "--p", "2", "--n", "1")
    from mackeykit.functors import free_module
    from mackeykit.docio import print_document
    F = free_module(parse_document(text), 0)
    path = tmp_path / "mod.doc"
    path.write_text(print_document(F))
    rc, out, _ = run(capsys, "decompose", str(path), "--seed", "3")
    assert rc == 0
    assert out.splitlines()[0].startswith("canonical form: ")
    assert "verified" in out


def test_decompose_is_seed_deterministic(capsys, tmp_path):
    from mackeykit.functors import free_module
    from mackeykit.docio import print_document
    from mackeykit.green import constant_green
    from mackeykit.fields import gf_make
    from mackeykit.gsets import CyclicGroup
    F = free_module(constant_green(CyclicGroup(2, 2), gf_make(2, 1)), 1)
    path = tmp_path / "mod.doc"
    path.write_text(print_document(F))
    _, a, _ = run(capsys, "decompose", str(path), "--seed", "11")
    _, b, _ = run(capsys, "decompose", str(path), "--seed", "11")
    assert a == b


def test_decompose_rejects_non_module(capsys):
    rc, out, _ = run(capsys, "decompose", "burnside")
    assert rc == 1 and out.startswith("fail:")


def test_phi_writes_descended_document(capsys, tmp_path):
    _, text, _ = run(capsys, "example", "burnside", "--p", "2", "--n", "2")
    path = tmp_path / "b.doc"
    path.write_text(text)
    rc, out, _ = run(capsys, "phi", str(path))
    assert rc == 0
    back = parse_document(out)
    assert isinstance(back, GreenFunctor) and back.n == 1
    model = geometric_fixed_points(parse_document(text))
    assert back.level_dims() == model.level_dims()


def test_phi_stage_report(capsys):
    rc, out, _ = run(capsys, "phi", "burnside", "--p", "2", "--n", "1",
                     "--stages", "1")
    assert rc == 0 and out.startswith("phi^1 ring: rank 1 over Z")


@pytest.mark.parametrize("stages", ["3", "-1"])
def test_phi_stage_out_of_range_is_a_usage_error(capsys, stages):
    rc, out, err = run(capsys, "phi", "burnside", "--p", "2", "--n", "1", "--stages", stages)
    assert rc == 2 and out == ""
    assert f"stage {stages} is outside 0..1" in err


def test_phi_stages_on_a_mackey_document_is_a_usage_error(capsys, tmp_path):
    # a Mackey document has no Phi-ring; --stages was ignored and exit 0
    _, text, _ = run(capsys, "example", "twisted-burnside-c5")
    path = tmp_path / "At.doc"
    path.write_text(text)
    assert isinstance(parse_document(text), MackeyFunctor)
    rc, out, err = run(capsys, "phi", str(path), "--stages", "1")
    assert rc == 2 and out == ""
    assert "--stages needs a green document" in err


def test_phi_refuses_torsion_green(capsys):
    rc, out, _ = run(capsys, "phi", "constant-Z", "--p", "2", "--n", "1")
    assert rc == 1 and "torsion" in out


def _torsion_document(tmp_path):
    """A valid Z document over C2 whose top level is Z/2 (relation 2)."""
    import mackeykit.linalg as la
    from mackeykit.gsets import CyclicGroup
    from mackeykit.modules import FPModule
    Z = la.ZZ
    M = MackeyFunctor(CyclicGroup(2, 1), Z, [FPModule(Z, 1), FPModule(Z, 1, la.mat([[2]]))],
                      [la.mat([[0]])], [la.mat([[1]])], [la.mat([[-1]]), la.mat([[1]])],
                      name="torsion")
    path = tmp_path / "torsion.doc"
    path.write_text(print_document(M))
    return path


def test_iso_on_a_torsion_level_is_a_fail_line(capsys, tmp_path):
    # hom_basis over Z needs free levels; its NotImplementedError reaches
    # main, which prints it as a fail line and exits 1
    path = _torsion_document(tmp_path)
    rc, out, _ = run(capsys, "check", str(path))
    assert rc == 0 and out == f"{path}: ok\n"
    rc, out, _ = run(capsys, "iso", str(path), str(path))
    assert rc == 1 and out == ("fail: hom computations over Z require "
                               "levelwise-free functors\n")


def test_tau_drops_a_stage(capsys, tmp_path):
    _, text, _ = run(capsys, "example", "fp-galois", "--p", "2", "--n", "2")
    path = tmp_path / "r.doc"
    path.write_text(text)
    out_path = tmp_path / "t.doc"
    rc, _, _ = run(capsys, "tau", str(path), "-o", str(out_path))
    assert rc == 0
    back = parse_document(out_path.read_text())
    assert back.n == 1 and check_green(back).ok


def test_tau_refuses_height_zero(capsys):
    rc, out, _ = run(capsys, "tau", "burnside", "--p", "2", "--n", "0")
    assert rc == 1 and out == "fail: nothing below the bottom level\n"


def test_decompose_failure_is_main_s_fail_line(capsys, tmp_path):
    # F_1 + T over F_2/C2 has the level ranks of F_0 but is not free:
    # decompose_module's ValueError reaches main, which prints it and exits 1
    from mackeykit.fields import gf_make
    from mackeykit.functors import free_module
    from mackeykit.green import GreenModule, constant_green, direct_sum_green_modules
    from mackeykit.gsets import CyclicGroup
    from mackeykit.modules import FPModule
    import mackeykit.linalg as la
    R = constant_green(CyclicGroup(2, 1), gf_make(2, 1))
    F = R.base
    und = MackeyFunctor(R.group, F, [FPModule(F, 1), FPModule(F, 0)], [la.zeros(1, 0, F)],
                        [la.zeros(0, 1, F)], [la.eye(1, F), la.eye(0, F)])
    T = GreenModule(R, und, [[la.eye(1, F)], [la.eye(0, F)]])
    path = tmp_path / "notfree.doc"
    path.write_text(print_document(direct_sum_green_modules([free_module(R, 1), T])))
    rc, out, _ = run(capsys, "decompose", str(path), "--seed", "4")
    assert rc == 1 and out == ("fail: could not place a free summand at level 0; "
                               "the module may not be free\n")


def test_e1_pinned_line_for_constant_f2(capsys):
    rc, out, _ = run(capsys, "e1", "constant-F2")
    assert rc == 0
    assert out.splitlines()[0] == \
        "rings: F2[C2], F2; zero-transfer: yes; G0 ranks 1+1"
    assert "splitting: total; G0 total: 2 (certified)" in out


def test_e1_faithful_fixed_points_collapse(capsys):
    rc, out, _ = run(capsys, "e1", "fp-galois", "--p", "2", "--n", "1")
    assert rc == 0
    head = out.splitlines()[0]
    assert head == "rings: Mat2(F2); zero-transfer: no; G0 ranks 1"
    assert "splitting: single-term; G0 total: 1 (certified)" in out


def test_e1_certifies_gf_3_9_fixed_points(capsys):
    # the bottom level ring is GF(3^9), rank 9 over F_3
    rc, out, _ = run(capsys, "e1", "fp-galois", "--p", "3", "--n", "2")
    assert rc == 0
    assert out == ("rings: Mat9(F3); zero-transfer: no; G0 ranks 1\n"
                   "splitting: single-term; G0 total: 1 (certified)\n"
                   "note: transfers are surjective: every higher column collapses "
                   "to zero and only t=0 survives\n")


@pytest.mark.parametrize("p,n,ring", [(2, 4, "Mat16(F2)"), (7, 1, "Mat7(F7)"),
                                      (3, 3, "Mat27(F3)"), (5, 2, "Mat25(F5)")])
def test_e1_certifies_fixed_points_past_the_modulus_table(capsys, p, n, ring):
    # GF(2^16), GF(7^7), GF(3^27) and GF(5^25) take a searched default modulus
    rc, out, err = run(capsys, "e1", "fp-galois", "--p", str(p), "--n", str(n))
    assert rc == 0 and err.startswith("elapsed:")
    assert out == (f"rings: {ring}; zero-transfer: no; G0 ranks 1\n"
                   "splitting: single-term; G0 total: 1 (certified)\n"
                   "note: transfers are surjective: every higher column collapses "
                   "to zero and only t=0 survives\n")


def test_a_degree_that_does_not_divide_the_group_order_builds_no_field(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "gf_make", lambda *a: built.append(a))
    rc, out, err = run(capsys, "example", "fp-galois", "--p", "2", "--n", "1",
                       "--degree", "1000")
    assert rc == 2 and out == "" and built == []
    assert "usage error: degree 1000 does not divide 2^1" in err


def test_e1_honest_about_unknown_splitting(capsys):
    rc, out, _ = run(capsys, "e1", "constant-Z", "--p", "5", "--n", "1")
    assert rc == 0 and "splitting: unknown" in out


@pytest.mark.parametrize("p", [2, 5])
def test_e1_certifies_that_no_section_exists_over_z(capsys, p):
    """R(1)/im(tr) = F_p, but p * 1 != 0 in R(1) = Z[C_p]: no unital ring map
    reaches R(1), so no search runs, and the splitting stays unknown."""
    rc, out, _ = run(capsys, "e1", "constant-Z", "--p", str(p), "--n", "1")
    assert rc == 0
    assert out == (f"rings: Z[C{p}], F{p}; zero-transfer: no; G0 ranks ?+1\n"
                   "splitting: unknown; G0 total: ? (not certified)\n"
                   f"note: no section exists: R(1)/im(tr) has characteristic {p}, "
                   f"but {p} * 1 != 0 in R(1); a splitting may still exist\n")


def test_box_and_iso_pinned_certificate(capsys, tmp_path):
    _, a_text, _ = run(capsys, "example", "burnside", "--p", "5", "--n", "1")
    _, t_text, _ = run(capsys, "example", "twisted-burnside-c5")
    a_path, t_path = tmp_path / "A.doc", tmp_path / "Atilde.doc"
    a_path.write_text(a_text)
    t_path.write_text(t_text)

    rc, out, _ = run(capsys, "iso", str(a_path), str(t_path))
    assert rc == 0
    assert out.splitlines()[0] == 'non-iso, certificate "mod 5, level C5/C5"'

    sq_path = tmp_path / "sq.doc"
    rc, _, _ = run(capsys, "box", str(t_path), str(t_path), "-o", str(sq_path))
    assert rc == 0
    box = parse_document(sq_path.read_text())
    assert isinstance(box, MackeyFunctor) and check_axioms(box).ok

    rc, out, _ = run(capsys, "iso", str(a_path), str(sq_path), "--witness")
    assert rc == 0
    assert out.splitlines()[0] == "isomorphic"
    assert "witness level 0" in out


def test_stdin_input(capsys, monkeypatch):
    _, text, _ = run(capsys, "example", "char-example", "--p", "3")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, _ = run(capsys, "check", "-")
    assert rc == 0 and "-: ok" in out


def test_seed_env_variable_is_honoured(capsys, tmp_path, monkeypatch):
    from mackeykit.functors import free_module
    from mackeykit.docio import print_document
    from mackeykit.green import constant_green
    from mackeykit.fields import gf_make
    from mackeykit.gsets import CyclicGroup
    F = free_module(constant_green(CyclicGroup(2, 1), gf_make(2, 1)), 0)
    path = tmp_path / "m.doc"
    path.write_text(print_document(F))
    monkeypatch.setenv("MACKEYKIT_SEED", "23")
    _, a, _ = run(capsys, "decompose", str(path))
    _, b, _ = run(capsys, "decompose", str(path), "--seed", "23")
    assert a == b


def _seed_argvs(capsys, tmp_path):
    """decompose on an F_0 document, and iso on two copies of constant F_2
    over C4, whose exhaustive search reads no seed."""
    from mackeykit.fields import gf_make
    from mackeykit.functors import free_module
    from mackeykit.green import constant_green
    from mackeykit.gsets import CyclicGroup
    F0 = tmp_path / "F0.doc"
    F0.write_text(print_document(free_module(constant_green(CyclicGroup(2, 1), gf_make(2, 1)), 0)))
    _, text, _ = run(capsys, "example", "constant-F2", "--p", "2", "--n", "2")
    a, b = tmp_path / "a.doc", tmp_path / "b.doc"
    a.write_text(text)
    b.write_text(text)
    return {"decompose": ["decompose", str(F0)], "iso": ["iso", str(a), str(b)]}


@pytest.mark.parametrize("command", ["decompose", "iso"])
def test_a_seed_variable_that_is_not_an_integer_is_a_usage_error(capsys, tmp_path,
                                                                  monkeypatch, command):
    argv = _seed_argvs(capsys, tmp_path)[command]
    monkeypatch.setenv("MACKEYKIT_SEED", "abc")
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert "usage error: $MACKEYKIT_SEED is 'abc', not an integer" in err
    # an explicit --seed does not read the variable
    rc, out, _ = run(capsys, *argv, "--seed", "3")
    assert rc == 0 and out.splitlines()[-1] in ("isomorphic", "witness: verified module "
                                                "isomorphism from the free model")


def test_resolve_seed_names_a_seed_variable_that_is_not_an_integer(monkeypatch):
    from mackeykit.mackey import resolve_seed
    monkeypatch.setenv("MACKEYKIT_SEED", "1.5")
    with pytest.raises(ValueError, match=r"\$MACKEYKIT_SEED is '1.5', not an integer"):
        resolve_seed(None)
    assert resolve_seed(4) == 4
    monkeypatch.setenv("MACKEYKIT_SEED", " 12 ")
    assert resolve_seed(None) == 12


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    real = cli.make_parser

    def counting():
        built.append(1)
        return real()
    monkeypatch.setattr(cli, "make_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    for _ in range(3):
        rc, _, _ = run(capsys, "check", "burnside", "--p", "2", "--n", "1")
        assert rc == 0
    run(capsys, "k0free", "--p", "2", "--n", "1", "--stab", "1")
    assert len(built) == 1


def test_reused_parser_does_not_carry_flags_over(capsys):
    rc, out, _ = run(capsys, "iso", "burnside", "burnside", "--p", "3", "--witness")
    assert rc == 0 and "witness level 0" in out
    rc, out, _ = run(capsys, "iso", "burnside", "burnside")
    assert rc == 0 and out == "isomorphic\n"
    rc, out, _ = run(capsys, "example", "burnside")
    assert rc == 0 and parse_document(out).group.p == 2

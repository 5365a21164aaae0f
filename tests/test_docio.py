import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mackeykit import cli
from mackeykit import linalg as la
from mackeykit.docio import (MAGIC, ParseError, load_document, parse_document,
                             print_document, save_document)
from mackeykit.fields import gf_make
from mackeykit.functors import free_module, geometric_fixed_points
from mackeykit.green import (GreenFunctor, GreenModule, burnside_green,
                             char_example_green, check_green,
                             check_green_module, constant_green,
                             direct_sum_green_modules,
                             fixed_point_green)
from mackeykit.gsets import CyclicGroup
from mackeykit.linalg import ZZ
from mackeykit.mackey import (MackeyFunctor, burnside_mackey, check_axioms,
                              constant_mackey, twisted_burnside_c5)
from mackeykit.modules import FPModule
from mackeykit.rings import BasedRing


def _same_mackey(A, B, names=True):
    assert A.group == B.group and A.base == B.base
    if names:
        assert A.name == B.name
    for s in range(A.n + 1):
        assert A.levels[s].gens == B.levels[s].gens
        assert la.mat_eq(A.levels[s].relations, B.levels[s].relations)
        assert la.mat_eq(A.weyl[s], B.weyl[s])
    for s in range(A.n):
        assert la.mat_eq(A.res[s], B.res[s])
        assert la.mat_eq(A.tr[s], B.tr[s])


def _same_green(A, B):
    _same_mackey(A.underlying, B.underlying)
    for s in range(A.n + 1):
        ra, rb = A.ring(s), B.ring(s)
        assert ra.rank == rb.rank and ra.labels == rb.labels
        assert ra.commutative == rb.commutative
        assert la.mat_eq(ra.mult, rb.mult)
        assert la.mat_eq(ra.unit, rb.unit)


def _same_module(A, B):
    _same_green(A.ring, B.ring)
    # the document stores the module's own name, not the underlying functor's
    _same_mackey(A.underlying, B.underlying, names=False)
    assert A.name == B.name
    for s in range(A.underlying.n + 1):
        for u in range(A.ring.ring(s).rank):
            assert la.mat_eq(A.action[s][u], B.action[s][u])


def _cases():
    out = []
    out.append(burnside_mackey(CyclicGroup(2, 2)))
    out.append(twisted_burnside_c5())
    out.append(constant_mackey(CyclicGroup(3, 1), ZZ, rank=2))
    out.append(geometric_fixed_points(constant_mackey(CyclicGroup(3, 1), ZZ)))
    out.append(burnside_green(CyclicGroup(3, 2)))
    out.append(constant_green(CyclicGroup(2, 1), gf_make(2, 1)))
    out.append(fixed_point_green(CyclicGroup(2, 2), gf_make(2, 4)))
    out.append(char_example_green(3))
    k = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    out.append(free_module(k, 0))
    out.append(free_module(burnside_green(CyclicGroup(2, 1)), 1))
    return out


@pytest.mark.parametrize("obj", _cases(), ids=lambda o: type(o).__name__ + ":" + (
    o.name or "anon"))
def test_round_trip_is_stable(obj):
    """print -> parse -> print reproduces the text byte for byte."""
    text = print_document(obj)
    back = parse_document(text)
    assert print_document(back) == text


@pytest.mark.parametrize("obj", _cases(), ids=lambda o: type(o).__name__ + ":" + (
    o.name or "anon"))
def test_round_trip_rebuilds_object(obj):
    back = parse_document(print_document(obj))
    assert type(back) is type(obj)
    if isinstance(obj, GreenModule):
        _same_module(obj, back)
        assert check_green_module(back).ok
    elif isinstance(obj, GreenFunctor):
        _same_green(obj, back)
        assert check_green(back).ok
    else:
        _same_mackey(obj, back)
        assert check_axioms(back).ok


def test_parsed_field_elements_compare_with_fresh_ones():
    # the parser must hand back the interned field, not a lookalike
    R = fixed_point_green(CyclicGroup(2, 1), gf_make(2, 2))
    back = parse_document(print_document(R))
    assert back.base is R.base
    assert la.mat_eq(back.underlying.weyl[0], R.underlying.weyl[0])


def test_parsed_module_keeps_action_and_ring_as_residues():
    # the constructors convert the action and the ring tables once, as they
    # do res and tr, so a parsed F_2 module holds int64 residues throughout
    k = constant_green(CyclicGroup(2, 1), gf_make(2, 1))
    back = parse_document(print_document(
        direct_sum_green_modules([free_module(k, 0), free_module(k, 1)])))
    for s in range(back.n + 1):
        ring = back.ring.ring(s)
        assert ring.mult.dtype == np.int64 and ring.unit.dtype == np.int64
        assert len(back.action[s]) and back.action[s].dtype == np.int64
    assert check_green_module(back).ok


def test_file_round_trip(tmp_path):
    M = burnside_mackey(CyclicGroup(5, 1))
    path = tmp_path / "a.doc"
    save_document(M, path)
    _same_mackey(M, load_document(path))


def test_torsion_relations_survive():
    M = MackeyFunctor(CyclicGroup(2, 1), ZZ,
                      [FPModule(ZZ, 1), FPModule(ZZ, 2, la.mat([[2], [0]]))],
                      [la.mat([[1, 0]])], [la.mat([[0], [2]])],
                      [la.eye(1), la.eye(2)], name="with torsion")
    back = parse_document(print_document(M))
    assert back.levels[1].invariant_factors() == [2, 0]
    _same_mackey(M, back)


def test_names_with_spaces_round_trip():
    M = constant_mackey(CyclicGroup(2, 1), ZZ, name="a name with  spaces")
    back = parse_document(print_document(M))
    assert back.name == "a name with  spaces"


@pytest.mark.parametrize("make", [
    lambda: constant_mackey(CyclicGroup(2, 1), ZZ, name="a\nb"),
    lambda: GreenModule(constant_green(CyclicGroup(2, 1), gf_make(2, 1)),
                        constant_mackey(CyclicGroup(2, 1), gf_make(2, 1)),
                        [[la.eye(1)], [la.eye(1)]], name="a\nb"),
], ids=["functor", "module"])
def test_a_name_with_a_newline_is_refused(make):
    # the document would not parse back; python -O must not print it either
    with pytest.raises(ValueError, match="newline"):
        print_document(make())


# -- parse failures carry line numbers ---------------------------------------

def _doc():
    return print_document(burnside_mackey(CyclicGroup(2, 1)))


def test_rejects_bad_magic():
    with pytest.raises(ParseError, match="line 1"):
        parse_document("howdy\n")


def test_rejects_unknown_kind():
    text = _doc().replace("kind mackey", "kind banana")
    with pytest.raises(ParseError, match="kind"):
        parse_document(text)


def test_rejects_truncation():
    lines = _doc().splitlines()
    with pytest.raises(ParseError, match="unexpected end"):
        parse_document("\n".join(lines[:-3]))


def test_rejects_trailing_content():
    with pytest.raises(ParseError, match="trailing"):
        parse_document(_doc() + "res 9 rows 1 cols 1\n")


def test_rejects_bad_entry_count():
    text = _doc().replace("\n2 1\n", "\n2 1 1\n", 1)
    with pytest.raises(ParseError, match="entries"):
        parse_document(text)


def test_rejects_bad_coefficient():
    text = _doc().replace("\n2 1\n", "\nx 1\n", 1)
    with pytest.raises(ParseError, match="coefficient"):
        parse_document(text)


def test_rejects_field_relations():
    text = print_document(constant_green(CyclicGroup(2, 1), gf_make(2, 1)))
    text = text.replace("level 0 gens 1 relations 0",
                        "level 0 gens 1 relations 1\n1")
    with pytest.raises(ParseError, match="field"):
        parse_document(text)


def test_rejects_wrong_block_header():
    text = _doc().replace("res 0 rows 1 cols 2", "res 0 rows 2 cols 2")
    with pytest.raises(ParseError):
        parse_document(text)


def test_rejects_label_count_mismatch():
    text = print_document(burnside_green(CyclicGroup(2, 1)))
    text = text.replace("labels [C2/e],[C2/C2]", "labels [C2/e]")
    with pytest.raises(ParseError, match="labels"):
        parse_document(text)


def test_rejects_bad_base():
    text = _doc().replace("base Z", "base Q")
    with pytest.raises(ParseError, match="base"):
        parse_document(text)


def test_parse_error_reports_line_number():
    lines = _doc().splitlines()
    # corrupt the first res data row and confirm the reported line is right
    idx = next(i for i, l in enumerate(lines) if l.startswith("res 0"))
    lines[idx + 1] = "oops"
    err = None
    try:
        parse_document("\n".join(lines))
    except ParseError as exc:
        err = exc
    assert err is not None and err.lineno == idx + 2


def test_comments_and_blank_lines_are_ignored():
    text = _doc()
    noisy = "# leading comment\n\n" + text.replace(
        "kind mackey", "kind mackey\n# interlude\n")
    _same_mackey(parse_document(text), parse_document(noisy))


# -- rejections carry the line number through the CLI (exit 2) ----------------

def _field_doc(k):
    return print_document(constant_green(CyclicGroup(2, 1), gf_make(2, k)))


def _replace_line(text, line, new, offset=0):
    """Replace the line `offset` below the first line equal to `line`;
    return the new text and the 1-based number of the replaced line."""
    lines = text.splitlines()
    idx = lines.index(line) + offset
    lines[idx] = new
    return "\n".join(lines) + "\n", idx + 1


_REJECTIONS = [
    # base line: field construction errors
    (2, "base GF 2 2 1:1:1", 0, "base GF 2 2 1:0:1", "reducible"),
    (2, "base GF 2 2 1:1:1", 0, "base GF 4 1 0:1", "not prime"),
    (2, "base GF 2 2 1:1:1", 0, "base GF 2 2 1:1", "monic of degree"),
    (2, "base GF 2 2 1:1:1", 0, "base GF 2 2 3:1:1", "modulus coefficients"),
    (2, "prime 2", 0, "prime 4", "no cyclic group"),
    # negative counts
    (1, "stages 1", 0, "stages -1", "stages must not be negative"),
    (1, "level 0 gens 1 relations 0", 0, "level 0 gens -1 relations 0",
     "generator count must not be negative"),
    (1, "level 0 gens 1 relations 0", 0, "level 0 gens 1 relations -1",
     "relation count must not be negative"),
    (1, "ring 0 rank 1 commutative 1 labels 1", 0,
     "ring 0 rank -1 commutative 1 labels 1", "rank must not be negative"),
    # field coefficients: exactly k coordinates in 0..p-1
    (1, "res 0 rows 1 cols 1", 1, "3", "not 1 coordinate"),
    (1, "res 0 rows 1 cols 1", 1, "-1", "not 1 coordinate"),
    (1, "res 0 rows 1 cols 1", 1, "1:0", "not 1 coordinate"),
    (2, "res 0 rows 1 cols 1", 1, "1:0:0", "not 2 coordinate"),
    (2, "res 0 rows 1 cols 1", 1, "1", "not 2 coordinate"),
    (2, "res 0 rows 1 cols 1", 1, "2:0", "not 2 coordinate"),
    (2, "res 0 rows 1 cols 1", 1, "-1:0", "not 2 coordinate"),
    (2, "res 0 rows 1 cols 1", 1, "1:x", "bad coefficient"),
]


@pytest.mark.parametrize("k,line,offset,new,match", _REJECTIONS,
                         ids=[f"GF(2^{c[0]}) {c[3]}" for c in _REJECTIONS])
def test_rejections_carry_line_numbers(k, line, offset, new, match,
                                       tmp_path, capsys):
    text, lineno = _replace_line(_field_doc(k), line, new, offset)
    with pytest.raises(ParseError, match=match) as info:
        parse_document(text)
    assert info.value.lineno == lineno
    path = tmp_path / "bad.doc"
    path.write_text(text)
    rc = cli.main(["check", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"parse error: line {lineno}: " in captured.err


def test_green_document_with_a_torsion_level_exits_2(tmp_path, capsys):
    # the check is a ValueError, so it holds under python -O as well
    text, _ = _replace_line(print_document(burnside_green(CyclicGroup(2, 1))),
                            "level 0 gens 1 relations 0", "level 0 gens 1 relations 1\n2")
    with pytest.raises(ParseError, match="levels of a green functor must be free"):
        parse_document(text)
    path = tmp_path / "torsion.doc"
    path.write_text(text)
    rc = cli.main(["check", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "levels of a green functor must be free" in captured.err


def test_explicit_modulus_without_default_round_trips():
    # GF(2^7) is not in DEFAULT_MODULI; x^7 + x + 1 is irreducible
    F = gf_make(2, 7, [1, 1, 0, 0, 0, 0, 0, 1])
    M = free_module(constant_green(CyclicGroup(2, 1), F), 0)
    text = print_document(M)
    assert "base GF 2 7 1:1:0:0:0:0:0:1" in text
    back = parse_document(text)
    assert back.ring.base is F
    assert print_document(back) == text
    _same_module(M, back)
    assert check_green_module(back).ok
    # coordinates beyond the prime subfield come back as they were written
    text = "\n".join([MAGIC, "kind mackey", "prime 2", "stages 0",
                      "base GF 2 7 1:1:0:0:0:0:0:1", "level 0 gens 2 relations 0",
                      "weyl 0 rows 2 cols 2", "0:1:1:0:0:0:1 1:0:0:0:0:0:0",
                      "1:1:1:1:1:1:1 0:0:0:0:0:0:0"]) + "\n"
    back = parse_document(text)
    assert back.weyl[0][0, 0] == F.gen + F.gen ** 2 + F.gen ** 6
    assert print_document(back) == text


def test_explicit_default_modulus_keeps_the_interned_field():
    text = _field_doc(2)
    assert "base GF 2 2 1:1:1" in text
    assert parse_document(text).base is gf_make(2, 2)


def test_high_degree_field_header_parses_quickly():
    import time
    # x^61 + x^5 + x^2 + x + 1 is irreducible over F_2 (sympy agrees)
    modulus = [1, 1, 1, 0, 0, 1] + [0] * 55 + [1]
    text = "\n".join([MAGIC, "kind mackey", "prime 2", "stages 0",
                      "base GF 2 61 " + ":".join(map(str, modulus)),
                      "level 0 gens 0 relations 0", "weyl 0 rows 0 cols 0"]) + "\n"
    start = time.process_time()
    M = parse_document(text)
    assert time.process_time() - start < 1.0
    assert (M.base.p, M.base.k, list(M.base.modulus)) == (2, 61, modulus)
    assert print_document(M) == text


# -- the block reader: one pass, and a row walk for the error -----------------

_WEYL_1 = "weyl 1 rows 2 cols 2\n1 0\n0 1"


def _parse_failure(text):
    with pytest.raises(ParseError) as info:
        parse_document(text)
    return info.value.lineno, str(info.value)


def test_a_block_is_checked_row_by_row():
    # 3 + 1 entries under 'cols 2' have the right total, but the first row is long
    text = _doc().replace(_WEYL_1, "weyl 1 rows 2 cols 2\n1 0 0\n1")
    assert _parse_failure(text) == (17, "line 17: expected 2 entries, found 3")


def test_a_header_with_a_doubled_blank_still_parses():
    text = _doc().replace("weyl 1 rows 2 cols 2", "weyl 1  rows 2 cols 2")
    assert print_document(parse_document(text)) == _doc()


def test_a_document_ending_inside_a_block_names_the_line_after_it():
    text = _doc()
    text = text[:text.rindex("0 1")]
    assert _parse_failure(text) == (18, "line 18: unexpected end of document")


@pytest.mark.parametrize("k,tok", [(1, "1:0"), (1, "-1"), (1, "2"),
                                   (2, "1"), (2, "1:0:0")])
def test_a_bad_field_entry_is_named_with_its_line(k, tok):
    text, lineno = _replace_line(_field_doc(k), "res 0 rows 1 cols 1", tok, 1)
    assert _parse_failure(text) == (
        lineno, f"line {lineno}: coefficient {tok!r} is not {k} coordinate(s) in 0..1")


def test_integer_entries_beyond_int64_round_trip():
    big = [2 ** 70, -(2 ** 65) - 1]
    M = MackeyFunctor(CyclicGroup(2, 1), ZZ, [FPModule(ZZ, 1), FPModule(ZZ, 2)],
                      [la.mat([big])], [la.mat([[big[1]], [7]])],
                      [la.eye(1), la.mat([[1, big[0]], [0, 1]])])
    text = print_document(M)
    back = parse_document(text)
    assert print_document(back) == text
    assert back.res[0].dtype == object and back.res[0].tolist() == [big]
    _same_mackey(M, back)


_BLOCK_BASES = {"GF4": gf_make(2, 2), "GF9": gf_make(3, 2), "GF16": gf_make(2, 4),
                "F5": gf_make(5, 1), "Z": ZZ}
_WEYL_0 = "weyl 0 rows 2 cols 2"


def _block_doc(base, header, rows):
    """A one-level document whose only matrix block is header and rows;
    the header is line 7 and the rows start at line 8."""
    base_line = print_document(constant_green(CyclicGroup(2, 0), base)).splitlines()[4]
    return "\n".join([MAGIC, "kind mackey", "prime 2", "stages 0", base_line,
                      "level 0 gens 2 relations 0", header, *rows]) + "\n"


# (base, header, rows) -> (line, message), as the entry-by-entry reader gave them
_MALFORMED_BLOCKS = [
    # a 1 x 2 row whose coordinate counts add up to the right total
    ("GF4", _WEYL_0, ["1 0:1:0", "0:0 1:0"], 8, "coefficient '1' is not 2 coordinate(s) in 0..1"),
    # a bad token in row 1 before a short row 2: row 1 is named
    ("GF4", _WEYL_0, ["1:0 x:0", "1:0"], 8, "bad coefficient 'x:0'"),
    ("GF4", _WEYL_0, ["1:0 2:0", "x"], 8, "coefficient '2:0' is not 2 coordinate(s) in 0..1"),
    ("F5", _WEYL_0, ["1 x", "0"], 8, "bad coefficient 'x'"),
    ("Z", _WEYL_0, ["1 x", "0"], 8, "bad coefficient 'x'"),
    # a block cut off by the end of the document
    ("GF4", _WEYL_0, ["1:0 0:0"], 9, "unexpected end of document"),
    ("F5", _WEYL_0, ["1 0"], 9, "unexpected end of document"),
    ("Z", _WEYL_0, ["1 0"], 9, "unexpected end of document"),
    ("GF4", _WEYL_0, ["1:0 0:0", "0:0 1:2"], 9, "coefficient '1:2' is not 2 coordinate(s) in 0..1"),
    ("GF4", _WEYL_0, ["1:0 0:0", "0:0 1:0 1:0"], 9, "expected 2 entries, found 3"),
    ("GF4", _WEYL_0, ["1:0 0:0", "0:0 1:"], 9, "bad coefficient '1:'"),
    ("GF9", _WEYL_0, ["1:0 0:3", "0:0 1:0"], 8, "coefficient '0:3' is not 2 coordinate(s) in 0..2"),
    ("GF9", _WEYL_0, ["1:0 0:1", "0:0 1:-1"], 9, "coefficient '1:-1' is not 2 coordinate(s) in 0..2"),
    ("GF9", _WEYL_0, ["1:0 0:1", "0:0:0 1"], 9, "coefficient '0:0:0' is not 2 coordinate(s) in 0..2"),
    ("GF16", _WEYL_0, ["1:0:0:0 0:0:0:0", "0:0:0:0 1:0:0"], 9,
     "coefficient '1:0:0' is not 4 coordinate(s) in 0..1"),
    ("GF16", _WEYL_0, ["1:0:0:0:0 0:0:0", "0:0:0:0 1:0:0:0"], 8,
     "coefficient '1:0:0:0:0' is not 4 coordinate(s) in 0..1"),
    ("GF16", _WEYL_0, ["1:0:0:0 0:0:0:0", "0:0:0:0 1::0:0"], 9, "bad coefficient '1::0:0'"),
    ("F5", _WEYL_0, ["1 5", "0 1"], 8, "coefficient '5' is not 1 coordinate(s) in 0..4"),
    ("F5", _WEYL_0, ["1 0", "0 1:0"], 9, "coefficient '1:0' is not 1 coordinate(s) in 0..4"),
    ("F5", _WEYL_0, ["1 0", "-1 1"], 9, "coefficient '-1' is not 1 coordinate(s) in 0..4"),
    ("Z", _WEYL_0, ["1 0", "0 1:0"], 9, "bad coefficient '1:0'"),
    ("Z", _WEYL_0, ["1 0 0", "1"], 8, "expected 2 entries, found 3"),
    ("Z", _WEYL_0, ["1.0 0", "0 1"], 8, "bad coefficient '1.0'"),
    ("Z", "weyl 0 rows 2 cols 3", ["1 0", "0 1"], 7,
     "expected 'weyl 0 rows 2 cols 2', found 'weyl 0 rows 2 cols 3'"),
    ("GF4", "res 0 rows 2 cols 2", ["1:0 0:0", "0:0 1:0"], 7, "expected 'weyl', found 'res'"),
    ("F5", "weyl 0 rows 2", ["1 0", "0 1"], 7,
     "expected 'weyl 0 rows 2 cols 2', found 'weyl 0 rows 2'"),
]


@pytest.mark.parametrize("base,header,rows,line,message", _MALFORMED_BLOCKS,
                         ids=[f"{c[0]} {c[1]} {' / '.join(c[2])}" for c in _MALFORMED_BLOCKS])
def test_a_malformed_block_names_its_first_bad_row(base, header, rows, line, message,
                                                   monkeypatch):
    text = _block_doc(_BLOCK_BASES[base], header, rows)
    built, zeros = [], la.zeros
    monkeypatch.setattr(la, "from_ints", lambda *args: built.append(args))
    monkeypatch.setattr(la, "zeros", lambda r, c, *rest: (r * c and built.append((r, c)))
                        or zeros(r, c, *rest))
    assert _parse_failure(text) == (line, f"line {line}: {message}")
    assert built == []              # no matrix is made of a malformed block


@pytest.mark.parametrize("base", sorted(_BLOCK_BASES))
def test_every_base_reads_a_block_by_one_conversion(base, monkeypatch):
    F = _BLOCK_BASES[base]
    M = free_module(constant_green(CyclicGroup(2, 1), F), 0)
    text = print_document(M)
    calls = []
    from_ints = la.from_ints
    monkeypatch.setattr(la, "from_ints", lambda *args: calls.append(args) or from_ints(*args))
    back = parse_document(text)
    assert print_document(back) == text
    # one conversion for each block with entries, GF(p^k) blocks included
    shapes = re.findall(r" rows (\d+) cols (\d+)$", text, re.M)
    assert len(calls) == sum(int(r) * int(c) > 0 for r, c in shapes) > 0


_BIG_PRIME = 4611686018427388039        # past the int64 residue bound


@pytest.mark.parametrize("p,k,modulus,rows", [
    (2, 8, None, ["1:0:1:1:0:0:0:1 0:0:0:0:0:0:0:0", "1:1:1:1:1:1:1:1 0:1:0:0:0:0:0:0"]),
    (3, 3, None, ["2:1:0 0:0:2", "1:1:1 0:0:0"]),
    (11, 2, [1, 0, 1], ["10:3 0:10", "5:5 1:0"]),     # coordinates of two digits
    (_BIG_PRIME, 1, None, [f"{_BIG_PRIME - 1} 1", f"0 {2 ** 62}"]),
])
def test_printing_reproduces_a_parsed_block_byte_for_byte(p, k, modulus, rows):
    F = gf_make(p, k, modulus)
    text = _block_doc(F, _WEYL_0, rows)
    back = parse_document(text)
    assert print_document(back) == text
    if p == _BIG_PRIME:             # field elements at rest, printed by their str
        assert back.weyl[0].dtype == object
        assert back.weyl[0][0, 0] == F.coerce(-1)
    R = constant_green(CyclicGroup(2, 1), F)
    for obj in (R, free_module(R, 1)):
        doc = print_document(obj)
        assert print_document(parse_document(doc)) == doc


_BASES = {"Z": ZZ, "F2": gf_make(2, 1), "F5": gf_make(5, 1), "GF4": gf_make(2, 2)}


_NAMES = st.text("ab ", max_size=6).map(str.strip)


def _block(draw, base, r, c, entries=None):
    """An r x c matrix over base, its entries drawn (over Z past int64)."""
    if entries is None:
        entries = (st.integers(-(2 ** 70), 2 ** 70) if base is ZZ
                   else st.integers(0, base.q - 1).map(base.element))
    return la.mat(draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                                min_size=r, max_size=r)), c, base)


@st.composite
def _small_functor(draw, base=None, group=None, free=False):
    """A Mackey functor with random maps, its axioms unchecked; free keeps
    Z levels without relations."""
    if base is None:
        base = _BASES[draw(st.sampled_from(sorted(_BASES)))]
    if group is None:
        group = CyclicGroup(draw(st.sampled_from([2, 3])), draw(st.integers(0, 2)))
    gens = [draw(st.integers(0, 3)) for _ in range(group.n + 1)]
    levels = []
    for g in gens:
        relc = draw(st.integers(0, 2)) if base is ZZ and not free else 0
        rel = _block(draw, base, g, relc, st.integers(-9, 9)) if relc else None
        levels.append(FPModule(base, g, rel))
    res = [_block(draw, base, gens[s], gens[s + 1]) for s in range(group.n)]
    tr = [_block(draw, base, gens[s + 1], gens[s]) for s in range(group.n)]
    weyl = [_block(draw, base, g, g) for g in gens]
    return MackeyFunctor(group, base, levels, res, tr, weyl, name=draw(_NAMES))


@st.composite
def _small_green(draw):
    """A Green functor on a free random functor: each level ring a random
    table of the level's rank, its laws unchecked."""
    und = draw(_small_functor(free=True))
    rings = []
    for g in und.level_dims():
        labels = draw(st.none() | st.just([f"e{i}" for i in range(g)]))
        rings.append(BasedRing(und.base, g, _block(draw, und.base, g * g, g),
                               _block(draw, und.base, g, 1), labels=labels,
                               commutative=draw(st.booleans())))
    return GreenFunctor(und, rings, name=und.name)


@st.composite
def _small_module(draw):
    """A module over a random Green functor: a random functor on the same
    group and base, and a random matrix per level ring basis element."""
    R = draw(_small_green())
    und = draw(_small_functor(R.base, R.group))
    action = [[_block(draw, R.base, g, g) for _ in range(R.ring(s).rank)]
              for s, g in enumerate(und.level_dims())]
    return GreenModule(R, und, action, name=draw(_NAMES))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_small_functor())
def test_printing_a_parsed_document_gives_the_same_text(M):
    text = print_document(M)
    assert print_document(parse_document(text)) == text


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_small_green())
def test_a_green_document_round_trips(R):
    text = print_document(R)
    back = parse_document(text)
    assert type(back) is GreenFunctor and print_document(back) == text
    _same_green(R, back)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_small_module())
def test_a_module_document_round_trips(M):
    text = print_document(M)
    back = parse_document(text)
    assert type(back) is GreenModule and print_document(back) == text
    _same_module(M, back)


# -- counts larger than the document ------------------------------------------

# `mackeykit check` in a child process whose address space is capped at 1 GiB,
# so a reader that sizes a matrix from a count before reading its rows fails
# the test instead of exhausting the machine
_LIMITED_CHECK = """
import resource, sys
limit = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from mackeykit import cli
sys.exit(cli.main(["check", sys.argv[1]]))
"""


@pytest.mark.parametrize("level_line", [
    "level 0 gens 99999999999999999999999 relations 0",
    "level 0 gens 50000 relations 50000",
])
def test_a_count_past_the_document_is_refused_at_its_line(level_line, tmp_path):
    import os
    import pathlib
    import subprocess
    import sys

    import mackeykit
    text, lineno = _replace_line(_doc(), "level 0 gens 1 relations 0", level_line)
    path = tmp_path / "big.doc"
    path.write_text(text)
    src = str(pathlib.Path(mackeykit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", _LIMITED_CHECK, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"parse error: line {lineno}: generator count" in proc.stderr


def test_relations_on_no_generators_are_held_to_the_lines_left():
    text, lineno = _replace_line(_doc(), "level 0 gens 1 relations 0",
                                 "level 0 gens 0 relations 99999999999999999999999")
    assert _parse_failure(text) == (
        lineno, f"line {lineno}: relation count 99999999999999999999999 exceeds "
                f"the {len(text.splitlines()) - lineno} lines left in the document")


# -- one mutation of a printed document ---------------------------------------

def _example_documents():
    docs = [print_document(cli.build_example(name, p, n)) for name, p, n in [
        ("burnside", 2, 2), ("constant-Z", 3, 1), ("constant-Fp", 2, 3), ("fp-galois", 2, 2),
        ("twisted-burnside-c5", 5, 1), ("char-example", 3, 1)]]
    R = constant_green(CyclicGroup(2, 2), gf_make(2, 1))
    docs.append(print_document(direct_sum_green_modules([free_module(R, 0), free_module(R, 1)])))
    docs.append(print_document(burnside_mackey(CyclicGroup(3, 1))))
    return docs


_DOCUMENTS = _example_documents()
_EXTRA_TOKENS = ["-1", "0", "2", "x", "1:1", "gens", "99"]


def _mutate(text, unit, op, draw):
    """text with one line (unit "line") or one token of a line (unit
    "token") deleted, duplicated, swapped with another or retyped as another
    line or token of the document or one of _EXTRA_TOKENS; `draw` picks an
    index below its argument."""
    lines = text.splitlines()
    if unit == "line":
        items, pool = lines, lines + _EXTRA_TOKENS
    else:
        row = draw(len(lines))
        items, pool = lines[row].split(" "), text.split() + _EXTRA_TOKENS
    i = draw(len(items))
    if op == "delete":
        del items[i]
    elif op == "duplicate":
        items.insert(i, items[i])
    elif op == "swap":
        j = draw(len(items))
        items[i], items[j] = items[j], items[i]
    else:
        items[i] = pool[draw(len(pool))]
    if unit == "token":
        lines[row] = " ".join(items)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=st.sampled_from(_DOCUMENTS), unit=st.sampled_from(["line", "token"]),
       op=st.sampled_from(["delete", "duplicate", "swap", "retype"]), data=st.data())
def test_a_mutated_document_parses_or_raises_parse_error_and_then_checks(doc, unit, op, data):
    _parse_and_check(_mutate(doc, unit, op, lambda k: data.draw(st.integers(0, k - 1))))


@pytest.mark.parametrize("doc", range(len(_DOCUMENTS)))
def test_every_header_token_retyped_parses_or_raises_parse_error(doc):
    # the six header lines (magic, kind, prime, stages, base, name) hold the
    # values every later block is read by
    lines = _DOCUMENTS[doc].splitlines()
    for row in range(6):
        toks = lines[row].split(" ")
        for i in range(len(toks)):
            for tok in _EXTRA_TOKENS:
                _parse_and_check("\n".join(lines[:row] + [" ".join(toks[:i] + [tok] + toks[i + 1:])]
                                           + lines[row + 1:]) + "\n")


def _parse_and_check(text):
    """Parse text; a ParseError ends the test of it, and a parsed object
    goes through its check, which must not raise either."""
    try:
        obj = parse_document(text)
    except ParseError:
        return
    if isinstance(obj, GreenModule):
        check_green_module(obj)
    elif isinstance(obj, GreenFunctor):
        check_green(obj)
    else:
        check_axioms(obj)

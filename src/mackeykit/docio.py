"""Line-oriented text documents for functors, rings and modules.

One document describes one object: a Mackey functor, a Green functor, or a
module over a Green functor.  The format is plain text, one directive per
line, with matrix blocks written row-major after a ``rows R cols C`` header.
Integer coefficients print as decimals; finite-field coefficients print as
colon-joined polynomial coordinates (the field's own element format), so
``parse_document(print_document(x))`` rebuilds ``x`` exactly and printing the
result again reproduces the same text.

Blank lines and lines starting with ``#`` are ignored.  Parse failures raise
:class:`ParseError` carrying the offending line number.  No document asks
for more than its text holds: a level's generator count past the lines left
is refused at the level line, and a block's rows are read before its matrix
is made.

Documents hold many small blocks (about two entries each in the example
documents), so the reader's cost is per block, not per entry.  A block over
Z or F_p that reads exactly as :func:`print_document` writes it is taken
whole: its header compared as one string, every row's entry count checked,
and all its entries converted by one ``int`` pass into one array in the
base's at-rest form.  Any other block, over GF(p^k) with k > 1 or with a
header or entry written differently, is read entry by entry; a malformed
block always takes that path, so each ParseError names the same line and
says the same thing whichever path saw the block first.
"""

from __future__ import annotations

from . import linalg as la
from .fields import gf_make
from .green import GreenFunctor, GreenModule
from .linalg import ZZ
from .mackey import MackeyFunctor
from .modules import FPModule
from .gsets import CyclicGroup
from .rings import BasedRing

MAGIC = "mackeykit-doc 1"


class ParseError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(where + message)


# -- entry formatting --------------------------------------------------------

def _fmt_entry(x, base) -> str:
    if base is ZZ:
        return str(int(x))
    return base.format_elem(base.coerce(x))


def _parse_entry(tok: str, base, lineno: int):
    """Integer over Z; over GF(p^k), exactly k colon-joined coordinates in 0..p-1."""
    try:
        if base is ZZ:
            return int(tok)
        coords = [int(c) for c in tok.split(":")]
    except ValueError:
        raise ParseError(f"bad coefficient {tok!r}", lineno) from None
    if len(coords) != base.k or not all(0 <= c < base.p for c in coords):
        raise ParseError(f"coefficient {tok!r} is not {base.k} coordinate(s) "
                         f"in 0..{base.p - 1}", lineno)
    return base.elem(coords)


# -- cursor over meaningful lines -------------------------------------------

class _Cursor:
    def __init__(self, text: str):
        self.rows = []
        for i, raw in enumerate(text.splitlines(), start=1):
            s = raw.strip()
            if s and not s.startswith("#"):
                self.rows.append((i, s))
        self.pos = 0

    @property
    def lineno(self) -> int:
        if self.pos < len(self.rows):
            return self.rows[self.pos][0]
        return self.rows[-1][0] + 1 if self.rows else 1

    def peek(self):
        if self.pos < len(self.rows):
            return self.rows[self.pos][1]
        return None

    def take(self) -> tuple[int, str]:
        if self.pos >= len(self.rows):
            raise ParseError("unexpected end of document", self.lineno)
        out = self.rows[self.pos]
        self.pos += 1
        return out

    def directive(self, expected: str) -> tuple[int, list[str]]:
        lineno, line = self.take()
        toks = line.split()
        if toks[0] != expected:
            raise ParseError(f"expected {expected!r}, found {toks[0]!r}", lineno)
        return lineno, toks[1:]

    def intline(self, expected: str) -> int:
        """The non-negative integer value of a one-value directive."""
        lineno, rest = self.directive(expected)
        if len(rest) != 1:
            raise ParseError(f"{expected} takes one value", lineno)
        return _take_count(rest, 0, expected, lineno)


def _take_int(toks: list[str], idx: int, what: str, lineno: int) -> int:
    try:
        return int(toks[idx])
    except (IndexError, ValueError):
        raise ParseError(f"expected integer {what}", lineno) from None


def _take_count(toks: list[str], idx: int, what: str, lineno: int) -> int:
    n = _take_int(toks, idx, what, lineno)
    if n < 0:
        raise ParseError(f"{what} must not be negative, found {n}", lineno)
    return n


def _check_fits(cur: _Cursor, count: int, what: str, lineno: int):
    """Refuse a count larger than the lines left in the document, before
    any matrix of that size is made.  A level of g generators is followed
    by at least g lines (its Weyl block has g rows), so a valid document
    always passes."""
    left = len(cur.rows) - cur.pos
    if count > left:
        raise ParseError(f"{what} {count} exceeds the {left} lines left in the document",
                         lineno)


# -- matrix blocks -----------------------------------------------------------

def _emit_block(out: list[str], head: str | None, A, base):
    """A row by row, after a 'head rows R cols C' line unless head is None."""
    r, c = A.shape
    if head is not None:
        out.append(f"{head} rows {r} cols {c}")
    if c:
        out += [" ".join(_fmt_entry(x, base) for x in row) for row in A.tolist()]


def _read_block(cur: _Cursor, head: str | None, rows: int, cols: int, base):
    """Inverse of _emit_block: the rows x cols matrix after its header line,
    or with head None the rows alone.  A block as _emit_block writes it over
    Z or F_p is read whole; any other block, a malformed one included, is
    read entry by entry, which raises the ParseError."""
    A = _read_whole_block(cur, head, rows, cols, base)
    return _read_block_by_entry(cur, head, rows, cols, base) if A is None else A


def _read_whole_block(cur: _Cursor, head: str | None, rows: int, cols: int, base):
    """The block with its header matched as one string and all its entries
    converted at once, or None, with the cursor left where it was, when the
    block is not exactly as _emit_block writes it over Z or F_p.  Entries
    over GF(p^k), k > 1, are colon-joined coordinates, never one int."""
    if base is ZZ:
        bound = None
    elif base.k == 1:
        bound = base.p
    else:
        return None
    at = cur.pos
    if head is not None:
        if at == len(cur.rows) or cur.rows[at][1] != f"{head} rows {rows} cols {cols}":
            return None
        at += 1
    if rows == 0 or cols == 0:
        cur.pos = at
        return la.zeros(rows, cols, base)
    lines = cur.rows[at:at + rows]
    if len(lines) != rows:
        return None
    toks = []
    for _, line in lines:
        row = line.split()
        if len(row) != cols:
            return None
        toks += row
    try:
        vals = [int(t) for t in toks]
    except ValueError:
        return None
    if bound is not None and (min(vals) < 0 or max(vals) >= bound):
        return None
    cur.pos = at + rows
    return la.from_ints(vals, rows, cols, base)


def _read_block_by_entry(cur: _Cursor, head: str | None, rows: int, cols: int, base):
    if head is not None:
        lineno, toks = cur.directive(head.split()[0])
        want = head.split()[1:] + ["rows", str(rows), "cols", str(cols)]
        if toks != want:
            raise ParseError(
                f"expected '{head} rows {rows} cols {cols}', found "
                f"'{head.split()[0]} {' '.join(toks)}'", lineno)
    if rows == 0 or cols == 0:
        return la.zeros(rows, cols, base)
    parsed = []                 # every row is read before the matrix is made
    for _ in range(rows):
        lineno, line = cur.take()
        entries = line.split()
        if len(entries) != cols:
            raise ParseError(f"expected {cols} entries, found {len(entries)}", lineno)
        parsed.append([_parse_entry(tok, base, lineno) for tok in entries])
    A = la.zeros(rows, cols, base)
    for a, row in enumerate(parsed):
        for b, x in enumerate(row):
            A[a, b] = x
    return A


# -- base field header -------------------------------------------------------

def _emit_base(out: list[str], base):
    if base is ZZ:
        out.append("base Z")
    else:
        mod = ":".join(str(c) for c in base.modulus)
        out.append(f"base GF {base.p} {base.k} {mod}")


def _parse_base(cur: _Cursor):
    lineno, toks = cur.directive("base")
    if toks == ["Z"]:
        return ZZ
    if len(toks) == 4 and toks[0] == "GF":
        p = _take_int(toks, 1, "characteristic", lineno)
        k = _take_int(toks, 2, "degree", lineno)
        try:
            mod = tuple(int(c) for c in toks[3].split(":"))
        except ValueError:
            raise ParseError("bad modulus coefficients", lineno) from None
        if not all(0 <= c < p for c in mod):
            raise ParseError(f"modulus coefficients must lie in 0..{p - 1}", lineno)
        try:
            return gf_make(p, k, mod)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    raise ParseError("base must be 'Z' or 'GF p k m0:m1:...'", lineno)


# -- mackey functor body -----------------------------------------------------

def _emit_mackey_body(out: list[str], M: MackeyFunctor, prefix: str = "",
                      name_override: str | None = None):
    name = M.name if name_override is None else name_override
    if name:
        if "\n" in name:
            raise ValueError(f"name {name!r} has a newline; a document name is one line")
        out.append(f"{prefix}name {name}")
    n = M.group.n
    for s in range(n + 1):
        L = M.levels[s]
        out.append(f"{prefix}level {s} gens {L.gens} relations {L.relations.shape[1]}")
        _emit_block(out, None, L.relations, ZZ)
    for s in range(n):
        _emit_block(out, f"{prefix}res {s}", M.res[s], M.base)
    for s in range(n):
        _emit_block(out, f"{prefix}tr {s}", M.tr[s], M.base)
    for s in range(n + 1):
        _emit_block(out, f"{prefix}weyl {s}", M.weyl[s], M.base)


def _parse_mackey_body(cur: _Cursor, group: CyclicGroup, base, prefix: str = ""):
    name = ""
    head = cur.peek()
    if head is not None and head.split()[0] == f"{prefix}name":
        _, line = cur.take()
        name = line[len(f"{prefix}name "):]
    n = group.n
    levels = []
    for s in range(n + 1):
        lineno, toks = cur.directive(f"{prefix}level")
        if len(toks) != 5 or toks[1] != "gens" or toks[3] != "relations":
            raise ParseError("level line must read 'level s gens G relations C'", lineno)
        if _take_int(toks, 0, "level index", lineno) != s:
            raise ParseError(f"levels must appear in order; expected level {s}", lineno)
        gens = _take_count(toks, 2, "generator count", lineno)
        relc = _take_count(toks, 4, "relation count", lineno)
        if base is not ZZ and relc:
            raise ParseError("levels over a field cannot carry relations", lineno)
        _check_fits(cur, gens, "generator count", lineno)
        if not gens:
            # no relation rows follow; the bound keeps the empty 0 x relc
            # matrix within what numpy can make
            _check_fits(cur, relc, "relation count", lineno)
        rel = _read_block(cur, None, gens, relc, ZZ)
        levels.append(FPModule(base, gens, rel if relc else None))
    res = [_read_block(cur, f"{prefix}res {s}",
                       levels[s].gens, levels[s + 1].gens, base)
           for s in range(n)]
    tr = [_read_block(cur, f"{prefix}tr {s}",
                      levels[s + 1].gens, levels[s].gens, base)
          for s in range(n)]
    weyl = [_read_block(cur, f"{prefix}weyl {s}",
                        levels[s].gens, levels[s].gens, base)
            for s in range(n + 1)]
    return MackeyFunctor(group, base, levels, res, tr, weyl, name=name)


# -- green functor rings -----------------------------------------------------

def _emit_rings(out: list[str], R: GreenFunctor, prefix: str = ""):
    for s in range(R.n + 1):
        ring = R.ring(s)
        labels = ",".join(ring.labels) if ring.labels else "-"
        comm = 1 if ring.commutative else 0
        out.append(f"{prefix}ring {s} rank {ring.rank} commutative {comm} "
                   f"labels {labels}")
        _emit_block(out, f"{prefix}mult {s}", ring.mult, R.base)
        _emit_block(out, f"{prefix}unit {s}", ring.unit, R.base)


def _parse_rings(cur: _Cursor, und: MackeyFunctor, prefix: str = ""):
    rings = []
    for s in range(und.n + 1):
        lineno, toks = cur.directive(f"{prefix}ring")
        if (len(toks) != 7 or toks[1] != "rank" or toks[3] != "commutative"
                or toks[5] != "labels"):
            raise ParseError(
                "ring line must read 'ring s rank R commutative B labels L'", lineno)
        if _take_int(toks, 0, "ring level", lineno) != s:
            raise ParseError(f"rings must appear in order; expected ring {s}", lineno)
        rank = _take_count(toks, 2, "rank", lineno)
        if rank != und.levels[s].gens:
            raise ParseError(f"ring rank {rank} does not match level size "
                             f"{und.levels[s].gens}", lineno)
        comm = bool(_take_int(toks, 4, "commutativity flag", lineno))
        labels = None if toks[6] == "-" else toks[6].split(",")
        if labels is not None and len(labels) != rank:
            raise ParseError(f"expected {rank} labels", lineno)
        mult = _read_block(cur, f"{prefix}mult {s}", rank * rank, rank, und.base)
        unit = _read_block(cur, f"{prefix}unit {s}", rank, 1, und.base)
        rings.append(BasedRing(und.base, rank, mult, unit,
                               labels=labels, commutative=comm))
    return rings


# -- documents ---------------------------------------------------------------

def print_document(obj) -> str:
    """Render a Mackey functor, Green functor or Green module as text.

    Raises ValueError on a name with a newline, which no document can hold."""
    out = [MAGIC]
    if isinstance(obj, GreenModule):
        out.append("kind module")
        grp, base = obj.ring.group, obj.ring.base
        out += [f"prime {grp.p}", f"stages {grp.n}"]
        _emit_base(out, base)
        _emit_mackey_body(out, obj.ring.underlying, prefix="ring.")
        _emit_rings(out, obj.ring, prefix="ring.")
        _emit_mackey_body(out, obj.underlying, name_override=obj.name)
        for s in range(grp.n + 1):
            for u, A in enumerate(obj.action[s]):
                _emit_block(out, f"action {s} {u}", A, base)
    elif isinstance(obj, GreenFunctor):
        out.append("kind green")
        grp = obj.group
        out += [f"prime {grp.p}", f"stages {grp.n}"]
        _emit_base(out, obj.base)
        _emit_mackey_body(out, obj.underlying)
        _emit_rings(out, obj)
    elif isinstance(obj, MackeyFunctor):
        out.append("kind mackey")
        grp = obj.group
        out += [f"prime {grp.p}", f"stages {grp.n}"]
        _emit_base(out, obj.base)
        _emit_mackey_body(out, obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(out) + "\n"


def parse_document(text: str):
    """Inverse of :func:`print_document`; raises :class:`ParseError`."""
    cur = _Cursor(text)
    lineno, line = cur.take()
    if line != MAGIC:
        raise ParseError(f"first line must be {MAGIC!r}", lineno)
    lineno, toks = cur.directive("kind")
    if toks not in (["mackey"], ["green"], ["module"]):
        raise ParseError("kind must be mackey, green or module", lineno)
    kind = toks[0]
    prime_line = cur.lineno
    p = cur.intline("prime")
    n = cur.intline("stages")
    try:
        group = CyclicGroup(p, n)
    except ValueError:
        raise ParseError(f"no cyclic group with prime {p}, stages {n}",
                         prime_line) from None
    base = _parse_base(cur)

    if kind == "mackey":
        obj = _parse_mackey_body(cur, group, base)
    elif kind == "green":
        und = _parse_mackey_body(cur, group, base)
        rings = _parse_rings(cur, und)
        try:
            obj = GreenFunctor(und, rings, name=und.name)
        except ValueError as exc:
            raise ParseError(str(exc) or "invalid ring data", cur.lineno) from None
    else:
        rund = _parse_mackey_body(cur, group, base, prefix="ring.")
        rings = _parse_rings(cur, rund, prefix="ring.")
        try:
            ring = GreenFunctor(rund, rings, name=rund.name)
        except ValueError as exc:
            raise ParseError(str(exc) or "invalid ring data", cur.lineno) from None
        und = _parse_mackey_body(cur, group, base)
        action = []
        for s in range(n + 1):
            g = und.levels[s].gens
            action.append([_read_block(cur, f"action {s} {u}", g, g, base)
                           for u in range(ring.ring(s).rank)])
        obj = GreenModule(ring, und, action, name=und.name)

    if cur.peek() is not None:
        raise ParseError(f"unexpected trailing content {cur.peek()!r}", cur.lineno)
    return obj


def load_document(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def save_document(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_document(obj))

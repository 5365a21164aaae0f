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
documents), so the reader's cost is per block, not per entry, and one pass
reads every base: a block's header is compared as one string, its rows are
taken as one slice of the lines, every row's entry count is checked, and
all its entries are converted by one ``int`` pass (a GF(p^k) entry split
into its k coordinates) into one array in the base's at-rest form.  Only a
block that fails the pass is walked again, row by row, to raise the first
bad row's ParseError; a header written with doubled blanks still reads.
The writer prints each at-rest entry with ``str``, which is its document
text in every base.
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


# -- cursor over meaningful lines -------------------------------------------

class _Cursor:
    def __init__(self, text: str):
        self.rows = [(i, s) for i, s in enumerate(map(str.strip, text.splitlines()), 1)
                     if s and s[0] != "#"]
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

def _emit_block(out: list[str], head: str | None, A):
    """A row by row, after a 'head rows R cols C' line unless head is None.
    The str of an at-rest entry is its document text in every base."""
    r, c = A.shape
    if head is not None:
        out.append(f"{head} rows {r} cols {c}")
    if c:
        out += [" ".join(map(str, row)) for row in A.tolist()]


def _read_block(cur: _Cursor, head: str | None, rows: int, cols: int, base):
    """Inverse of _emit_block: the rows x cols matrix after its header line,
    or with head None the rows alone.

    An entry is one int over Z, and over GF(p^k) k colon-joined coordinates
    in 0..p-1.  The rows are taken as one slice of the cursor and all their
    entries converted in one pass; a block that fails the pass is walked row
    by row, without building a matrix, to raise its first bad row's
    ParseError."""
    at = cur.pos
    if head is not None:
        want = f"{head} rows {rows} cols {cols}"
        if at == len(cur.rows) or cur.rows[at][1] != want:
            word, *rest = want.split()      # doubled blanks pass; else word it
            lineno, toks = cur.directive(word)
            if toks != rest:
                raise ParseError(f"expected '{want}', found '{word} {' '.join(toks)}'",
                                 lineno)
        at += 1
    if rows == 0 or cols == 0:
        cur.pos = at
        return la.zeros(rows, cols, base)
    toks = []
    for _, line in cur.rows[at:at + rows]:
        row = line.split()
        if len(row) != cols:
            break
        toks += row
    k, p = (1, None) if base is ZZ else (base.k, base.p)
    if len(toks) == rows * cols:        # every row is there, each of cols entries
        try:
            if k == 1:
                vals = [int(t) for t in toks]
            else:
                coords = [t.split(":") for t in toks]
                vals = [int(c) for cs in coords for c in cs]
                if list(map(len, coords)) != [k] * len(toks):
                    vals = None
        except ValueError:
            vals = None
        if vals is not None and (p is None or 0 <= min(vals) and max(vals) < p):
            cur.pos = at + rows
            if k > 1:       # a residue has an element's coordinates as base-p digits
                res = vals[k - 1::k]
                for j in range(k - 2, -1, -1):
                    res = [r * p + c for r, c in zip(res, vals[j::k])]
                vals = res
            return la.from_ints(vals, rows, cols, base)
    cur.pos = at                        # the pass failed: word the first bad row
    for _ in range(rows):
        lineno, line = cur.take()
        toks = line.split()
        if len(toks) != cols:
            raise ParseError(f"expected {cols} entries, found {len(toks)}", lineno)
        for tok in toks:
            try:
                coords = [int(c) for c in ([tok] if p is None else tok.split(":"))]
            except ValueError:
                raise ParseError(f"bad coefficient {tok!r}", lineno) from None
            if p is not None and (len(coords) != k or not all(0 <= c < p for c in coords)):
                raise ParseError(f"coefficient {tok!r} is not {k} coordinate(s) "
                                 f"in 0..{p - 1}", lineno)
    raise AssertionError("a block that failed the pass has no bad row")


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
        _emit_block(out, None, L.relations)
    for s in range(n):
        _emit_block(out, f"{prefix}res {s}", M.res[s])
    for s in range(n):
        _emit_block(out, f"{prefix}tr {s}", M.tr[s])
    for s in range(n + 1):
        _emit_block(out, f"{prefix}weyl {s}", M.weyl[s])


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
    # every block is read in its base's form, range-checked, at its shape
    return MackeyFunctor.at_rest(group, base, levels, res, tr, weyl, name=name)


# -- green functor rings -----------------------------------------------------

def _emit_rings(out: list[str], R: GreenFunctor, prefix: str = ""):
    for s in range(R.n + 1):
        ring = R.ring(s)
        labels = ",".join(ring.labels) if ring.labels else "-"
        comm = 1 if ring.commutative else 0
        out.append(f"{prefix}ring {s} rank {ring.rank} commutative {comm} "
                   f"labels {labels}")
        _emit_block(out, f"{prefix}mult {s}", ring.mult)
        _emit_block(out, f"{prefix}unit {s}", ring.unit)


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


def _parse_green(cur: _Cursor, group: CyclicGroup, base, prefix: str = ""):
    und = _parse_mackey_body(cur, group, base, prefix)
    rings = _parse_rings(cur, und, prefix)
    try:
        return GreenFunctor(und, rings, name=und.name)
    except ValueError as exc:
        raise ParseError(str(exc) or "invalid ring data", cur.lineno) from None


# -- documents ---------------------------------------------------------------

def print_document(obj) -> str:
    """Render a Mackey functor, Green functor or Green module as text.

    Raises ValueError on a name with a newline, which no document can hold."""
    if isinstance(obj, GreenModule):
        kind = "module"
    elif isinstance(obj, GreenFunctor):
        kind = "green"
    elif isinstance(obj, MackeyFunctor):
        kind = "mackey"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    out = [MAGIC, f"kind {kind}", f"prime {obj.group.p}", f"stages {obj.group.n}"]
    _emit_base(out, obj.base)
    if kind == "module":
        _emit_mackey_body(out, obj.ring.underlying, prefix="ring.")
        _emit_rings(out, obj.ring, prefix="ring.")
        _emit_mackey_body(out, obj.underlying, name_override=obj.name)
        for s, acts in enumerate(obj.action):
            for u, A in enumerate(acts):
                _emit_block(out, f"action {s} {u}", A)
    elif kind == "green":
        _emit_mackey_body(out, obj.underlying)
        _emit_rings(out, obj)
    else:
        _emit_mackey_body(out, obj)
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
        obj = _parse_green(cur, group, base)
    else:
        ring = _parse_green(cur, group, base, prefix="ring.")
        und = _parse_mackey_body(cur, group, base)
        action = []
        for s in range(n + 1):
            g, r = und.levels[s].gens, ring.ring(s).rank
            blocks = [_read_block(cur, f"action {s} {u}", g, g, base) for u in range(r)]
            stack = la.vstack(blocks) if blocks else la.zeros(0, g, base)
            action.append(stack.reshape(r, g, g))
        obj = GreenModule.at_rest(ring, und, action, name=und.name)

    if cur.peek() is not None:
        raise ParseError(f"unexpected trailing content {cur.peek()!r}", cur.lineno)
    return obj


def load_document(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def save_document(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_document(obj))

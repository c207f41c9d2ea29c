"""Line-oriented file formats: algebra presentations, modules, sequences.

Algebra files:

    algebra <name>
    field Q            | field F <p>
    vertices <label> <label> ...
    arrow <name> <src> <dst>
    relation <term> [(+|-) <term>]...   # term := [<coef>*]<arrow>(*<arrow>)+
    end

Module files:

    module <name> over <algebra-name>
    dim <d_1> <d_2> ... <d_n>           # in vertex declaration order
    map <arrow> [[r11, r12, ...], ...]  # d_src x d_tgt, row-vector convention
    end

Named module constructors are accepted anywhere a module file is expected:
simple:<v>, proj:<v>, inj:<v>, thin:<v1,v2,...>.  Sequence files hold one
module spec (constructor or file path) per line.  '#' starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fields import FieldError, FieldSpec, field_from_name
from .linalg import Matrix
from .quiver import Arrow, Quiver, QuiverError, RelationExpr


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc = f" ({loc})"
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_algebra_file(text: str) -> tuple[str, Quiver, tuple[RelationExpr, ...], FieldSpec]:
    """Parse one algebra presentation; returns (name, quiver, relations, field)."""
    name = None
    field: FieldSpec | None = None
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations: list[RelationExpr] = []
    saw_end = False
    for lineno, body in _logical_lines(text):
        if saw_end:
            raise ParseError("content after 'end'", lineno)
        words = body.split()
        head = words[0]
        if head == "algebra":
            if len(words) != 2:
                raise ParseError("expected: algebra <name>", lineno)
            name = words[1]
        elif head == "field":
            try:
                field = field_from_name("".join(words[1:]))
            except FieldError as e:
                raise ParseError(str(e), lineno) from None
        elif head == "vertices":
            if len(words) < 2:
                raise ParseError("vertices line needs at least one label", lineno)
            vertices.extend(words[1:])
        elif head == "arrow":
            if len(words) != 4:
                raise ParseError("expected: arrow <name> <src> <dst>", lineno)
            arrows.append(Arrow(words[1], words[2], words[3]))
        elif head == "relation":
            relations.append(_parse_relation(body[len("relation") :], lineno, field))
        elif head == "end":
            saw_end = True
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if name is None:
        raise ParseError("missing 'algebra <name>' line")
    if field is None:
        raise ParseError("missing 'field' line")
    if not saw_end:
        raise ParseError("missing 'end'")
    try:
        quiver = Quiver(tuple(vertices), tuple(arrows))
        for rel in relations:
            rel.validate(quiver)
    except QuiverError as e:
        raise ParseError(str(e)) from None
    return name, quiver, tuple(relations), field


def _parse_relation(rest: str, lineno: int, field: FieldSpec | None) -> RelationExpr:
    if field is None:
        raise ParseError("relation before field declaration", lineno)
    text = rest.strip()
    if not text:
        raise ParseError("empty relation", lineno)
    # split into signed terms on top-level + and -
    pieces: list[tuple[int, str]] = []
    tokens = text.replace("+", " + ").replace("-", " - ").split()
    current: list[str] = []
    cur_sign = 1
    for tok in tokens:
        if tok == "+" or tok == "-":
            if current:
                pieces.append((cur_sign, " ".join(current)))
                current = []
            cur_sign = 1 if tok == "+" else -1
        else:
            current.append(tok)
    if current:
        pieces.append((cur_sign, " ".join(current)))
    if not pieces:
        raise ParseError("empty relation", lineno)
    terms = []
    for sgn, piece in pieces:
        piece = piece.replace(" ", "")
        factors = [p for p in piece.split("*") if p]
        if not factors:
            raise ParseError("empty relation term", lineno)
        coef = field.one()
        if _RATIONAL_RE.match(factors[0]):
            coef = field.parse(factors[0])
            factors = factors[1:]
        if sgn < 0:
            coef = field.neg(coef)
        if not factors:
            raise ParseError("relation term has no arrows", lineno)
        terms.append((coef, tuple(factors)))
    return RelationExpr(tuple(terms))


# ---------------------------------------------------------------------------
# module files


@dataclass(frozen=True)
class ModuleFile:
    name: str
    algebra_name: str
    dims: tuple[int, ...]
    arrow_maps: dict[str, list[list]]  # arrow name -> rows of rational/int literals (unparsed strings)
    dim_line: int
    map_lines: dict[str, int]  # arrow name -> line of its map


def parse_module_file(text: str) -> ModuleFile:
    name = None
    algebra_name = None
    dims: tuple[int, ...] | None = None
    dim_line = 0
    maps: dict[str, list[list[str]]] = {}
    map_lines: dict[str, int] = {}
    saw_end = False
    for lineno, body in _logical_lines(text):
        if saw_end:
            raise ParseError("content after 'end'", lineno)
        words = body.split()
        head = words[0]
        if head == "module":
            if len(words) != 4 or words[2] != "over":
                raise ParseError("expected: module <name> over <algebra-name>", lineno)
            name, algebra_name = words[1], words[3]
        elif head == "dim":
            try:
                dims = tuple(int(w) for w in words[1:])
            except ValueError:
                raise ParseError("dim line must hold integers", lineno) from None
            if any(d < 0 for d in dims):
                raise ParseError("negative dimension", lineno)
            dim_line = lineno
        elif head == "map":
            if len(words) < 3:
                raise ParseError("expected: map <arrow> [[...], ...]", lineno)
            arrow = words[1]
            if arrow in maps:
                raise ParseError(f"duplicate map for arrow {arrow!r}", lineno)
            maps[arrow] = _parse_matrix_literal(body.split(None, 2)[2], lineno)
            map_lines[arrow] = lineno
        elif head == "end":
            saw_end = True
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if name is None or algebra_name is None:
        raise ParseError("missing 'module <name> over <algebra>' line")
    if dims is None:
        raise ParseError("missing 'dim' line")
    if not saw_end:
        raise ParseError("missing 'end'")
    return ModuleFile(name, algebra_name, dims, maps, dim_line, map_lines)


def _parse_matrix_literal(text: str, lineno: int) -> list[list[str]]:
    """Parse [[a, b], [c, d]] with rational-literal entries, kept as strings."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("matrix literal must be bracketed", lineno)
    inner = s[1:-1].strip()
    rows: list[list[str]] = []
    if not inner:
        return rows
    depth = 0
    row_buf = ""
    row_strings: list[str] = []
    for ch in inner:
        if ch == "[":
            depth += 1
            if depth == 1:
                row_buf = ""
                continue
        elif ch == "]":
            depth -= 1
            if depth == 0:
                row_strings.append(row_buf)
                continue
            if depth < 0:
                raise ParseError("unbalanced brackets in matrix literal", lineno)
        if depth >= 1:
            row_buf += ch
        elif ch not in ", \t":
            raise ParseError(f"unexpected character {ch!r} in matrix literal", lineno)
    if depth != 0:
        raise ParseError("unbalanced brackets in matrix literal", lineno)
    for rs in row_strings:
        entries = [e.strip() for e in rs.split(",") if e.strip()]
        for e in entries:
            if not _RATIONAL_RE.match(e):
                raise ParseError(f"bad entry {e!r} in matrix literal", lineno)
        rows.append(entries)
    return rows


def matrix_from_literal(field: FieldSpec, rows: list[list[str]], nrows: int, ncols: int, lineno: int | None = None) -> Matrix:
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ParseError(f"matrix literal is not {nrows}x{ncols}", lineno)
    return Matrix(field, [[field.parse(e) for e in r] for r in rows], nrows, ncols)


# ---------------------------------------------------------------------------
# sequence files


def parse_sequence_file(text: str) -> list[str]:
    """One module spec per line: a named constructor or a module file path."""
    return [body for _, body in _logical_lines(text)]


# ---------------------------------------------------------------------------
# serialization


def render_matrix_literal(field: FieldSpec, m: Matrix) -> str:
    rows = ", ".join("[" + ", ".join(field.fmt(x) for x in r) + "]" for r in m.rows)
    return f"[{rows}]"


def render_module(module, name: str = "m") -> str:
    """Serialize a right module in the module file format.

    Over a quiver algebra only the arrow actions are written (composite
    paths act by products, so the file re-parses).  For derived algebras
    without declared arrows every nonzero radical action is written under
    its basis label; such files document functor images and are not meant to
    be re-parsed.
    """
    a = module.algebra
    lines = [f"module {name} over {a.name}", "dim " + " ".join(str(d) for d in module.dims)]
    for i in a.radical_indices:
        b = a.basis[i]
        if a.quiver is not None and (b.path is None or len(b.path) != 1):
            continue
        mat = module.action[i]
        if mat.nrows and mat.ncols and not mat.is_zero():
            lines.append(f"map {a.basis_label(i)} {render_matrix_literal(a.field, mat)}")
    lines.append("end")
    return "\n".join(lines)


def render_algebra_summary(a) -> list[str]:
    lines = [
        f"algebra {a.name} over {a.field.name()}",
        f"vertices: {' '.join(a.vertices)}",
        f"dimension: {a.dim}",
    ]
    per_block: dict[tuple[str, str], int] = {}
    for b in a.basis:
        key = (a.vertices[b.source], a.vertices[b.target])
        per_block[key] = per_block.get(key, 0) + 1
    blocks = ", ".join(f"e_{u}Ae_{v}:{n}" for (u, v), n in sorted(per_block.items()))
    lines.append(f"peirce blocks: {blocks}")
    lines.append("basis: " + " ".join(a.basis_label(i) for i in range(a.dim)))
    return lines

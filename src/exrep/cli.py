"""Command-line front end.

Exit codes: 0 = success (positive verdict), 2 = the computation succeeded but
the mathematical verdict is negative (failed hypothesis, non-exceptional
sequence, law violation), 1 = input or computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import AlgebraError, build_algebra, verify_algebra_axioms
from .bimodules import BimoduleError
from .exceptional import (
    EnumerationConfig,
    check_recollement_theorem,
    check_split_theorem,
    enumerate_bricks,
    enumerate_ces,
    is_exceptional_sequence,
)
from .fields import FieldError, field_from_name
from .fileio import (
    ParseError,
    matrix_from_literal,
    parse_algebra_file,
    parse_module_file,
    parse_sequence_file,
    render_algebra_summary,
    render_module,
)
from .goldens import _thin_references, run_all
from .modules import (
    ModuleError,
    ext_dims,
    hom_basis,
    make_module,
    minimal_resolution,
    module_from_arrow_maps,
)
from .quiver import QuiverError
from .recollements import RECOLLEMENT_FUNCTORS, RecollementError, build_recollement, verify_recollement_laws
from .scope import computation_scope
from .split_extensions import SPLIT_FUNCTORS, SplitExtensionError, build_split_extension

OK, NEGATIVE, ERROR = 0, 2, 1


class CliError(Exception):
    pass


def load_algebra(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None
    name, quiver, relations, fld = parse_algebra_file(text)
    return build_algebra(quiver, relations, fld, name=name)


def _needs_arrows(what: str, algebra, where: str | None) -> str:
    return (f"{what} need declared arrows, and this module is read over {where or 'the algebra'} "
            f"({algebra.name}), which has none; use simple:, proj: or inj: there")


def resolve_module(algebra, spec: str, base: Path | None = None, where: str | None = None):
    """A named constructor (simple:/proj:/inj:/thin:) or a module file path.

    Relative paths resolve against base (e.g. a sequence file's directory)
    when given, the working directory otherwise.  `where` names the algebra
    in the error for input that needs declared arrows it does not have.
    """
    if ":" in spec and spec.split(":", 1)[0] in ("simple", "proj", "inj", "thin"):
        if spec.startswith("thin:") and algebra.quiver is None:
            raise CliError(_needs_arrows("thin: modules", algebra, where))
        return make_module(algebra, spec)
    path = Path(spec)
    if base is not None and not path.is_absolute():
        path = base / spec
    try:
        text = path.read_text()
    except OSError as e:
        raise CliError(f"cannot read module {spec}: {e}") from None
    mf = parse_module_file(text)
    if mf.algebra_name != algebra.name:
        raise CliError(f"module {mf.name} is declared over {mf.algebra_name}, not {algebra.name}")
    if algebra.quiver is None:
        raise CliError(_needs_arrows("module files", algebra, where))
    if len(mf.dims) != algebra.n_vertices:
        raise ParseError(f"dim line has {len(mf.dims)} entries, {algebra.name} has {algebra.n_vertices} vertices", mf.dim_line)
    arrow_maps = {}
    for arrow, rows in mf.arrow_maps.items():
        line = mf.map_lines[arrow]
        try:
            a = algebra.quiver.arrows[algebra.quiver.arrow_index(arrow)]
        except QuiverError as e:
            raise ParseError(f"{e} in {algebra.name}", line) from None
        s, t = algebra.vertex_index(a.source), algebra.vertex_index(a.target)
        arrow_maps[arrow] = matrix_from_literal(algebra.field, rows, mf.dims[s], mf.dims[t], line)
    return module_from_arrow_maps(algebra, mf.dims, arrow_maps)


def load_sequence(algebra, path: str, where: str | None = None):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise CliError(f"cannot read sequence {path}: {e}") from None
    return [resolve_module(algebra, spec, p.parent, where) for spec in parse_sequence_file(text)]


def emit(args, payload: dict, text_lines: list[str], code: int) -> int:
    if args.json:
        blob = json.dumps(payload, indent=2)
        print(blob)
        if args.out:
            Path(args.out).write_text(blob + "\n")
    else:
        body = "\n".join(text_lines)
        print(body)
        if args.out:
            Path(args.out).write_text(body + "\n")
    return code


def _split_csv(value: str) -> list[str]:
    return [v for v in value.split(",") if v]


# ---------------------------------------------------------------------------
# subcommands


def cmd_algebra_info(args) -> int:
    a = load_algebra(args.algebra)
    diags = verify_algebra_axioms(a)
    payload = {
        "status": "ok" if not diags else "error",
        "name": a.name,
        "field": a.field.name(),
        "vertices": list(a.vertices),
        "dimension": a.dim,
        "radical_dimension": len(a.radical_indices),
        "diagnostics": diags,
    }
    lines = render_algebra_summary(a)
    if diags:
        lines += [f"diagnostic: {d}" for d in diags]
    return emit(args, payload, lines, OK if not diags else ERROR)


def cmd_module_check(args) -> int:
    a = load_algebra(args.algebra)
    results = []
    worst = OK
    lines = []
    for spec in args.modules:
        try:
            m = resolve_module(a, spec)
            results.append({"module": spec, "ok": True, "dims": list(m.dims)})
            lines.append(f"{spec}: ok, dims {m.dims}")
        except ModuleError as e:
            # a well-formed file that fails the axioms is a negative verdict;
            # unreadable/unparseable input propagates as an error instead
            results.append({"module": spec, "ok": False, "error": str(e)})
            lines.append(f"{spec}: FAIL ({e})")
            worst = NEGATIVE
    payload = {"status": "ok" if worst == OK else "hypothesis-failed", "modules": results}
    return emit(args, payload, lines, worst)


def cmd_hom(args) -> int:
    a = load_algebra(args.algebra)
    m = resolve_module(a, args.m)
    n = resolve_module(a, args.n)
    basis = hom_basis(m, n)
    payload = {
        "status": "ok",
        "dim": len(basis),
        "source_dims": list(m.dims),
        "target_dims": list(n.dims),
        "basis": [
            {a.vertices[v]: [[a.field.fmt(x) for x in row] for row in h.mats[v].rows]
             for v in range(a.n_vertices)}
            for h in basis
        ],
    }
    lines = [f"dim Hom = {len(basis)}"]
    return emit(args, payload, lines, OK)


def cmd_ext(args) -> int:
    a = load_algebra(args.algebra)
    m = resolve_module(a, args.m)
    n = resolve_module(a, args.n)
    res = ext_dims(m, n, args.max_n)
    payload = {"status": "ok", "dims": res.dims, "certainty": str(res.certainty)}
    lines = [f"Ext^0..Ext^{args.max_n} dims: {res.dims}", f"certainty: {res.certainty}"]
    return emit(args, payload, lines, OK)


def cmd_resolve(args) -> int:
    a = load_algebra(args.algebra)
    m = resolve_module(a, args.m)
    res = minimal_resolution(m, max_steps=args.steps)
    payload = {
        "status": "ok",
        "terms": [list(t.dims) for t in res.terms],
        "syzygies": [list(s.dims) for s in res.syzygies],
        "resolution_status": str(res.status),
    }
    lines = ["covers: " + ", ".join(str(t.dims) for t in res.terms), f"status: {res.status}"]
    return emit(args, payload, lines, OK)


def cmd_tensor(args) -> int:
    r = load_algebra(args.algebra)
    se = build_split_extension(r, _split_csv(args.kernel_arrows))
    source = se.A if args.functor in ("tensor-up", "hom-up") else se.R
    m = resolve_module(source, args.m)
    out = se.apply(args.functor, m)
    blob = render_module(out, name="image")
    payload = {"status": "ok", "functor": args.functor, "image_dims": list(out.dims), "image": blob}
    return emit(args, payload, [blob], OK)


def cmd_split_ext_verify(args) -> int:
    r = load_algebra(args.algebra)
    se = build_split_extension(r, _split_csv(args.kernel_arrows))
    payload = {
        "status": "ok",
        "R": se.R.name,
        "dim_R": se.R.dim,
        "A": se.A.name,
        "dim_A": se.A.dim,
        "dim_Q": se.dim_q,
        "projective_left": se.is_projective_left,
    }
    lines = [
        f"split extension verified: dim R = {se.R.dim}, dim A = {se.A.dim}, dim Q = {se.dim_q}",
        f"R projective as left A-module: {se.is_projective_left}",
    ]
    return emit(args, payload, lines, OK)


def cmd_check_seq(args) -> int:
    a = load_algebra(args.algebra)
    mods = load_sequence(a, args.sequence)
    rep = is_exceptional_sequence(mods, n_max=args.max_n)
    payload = {"status": "ok" if rep.verdict else "hypothesis-failed", **rep.to_json_dict()}
    lines = [
        f"exceptional sequence: {rep.verdict} ({rep.certainty})",
        f"complete: {rep.complete}",
    ]
    lines += [f"witness {w}" for w in rep.witnesses]
    return emit(args, payload, lines, OK if rep.verdict else NEGATIVE)


def cmd_check_thm_split(args) -> int:
    r = load_algebra(args.algebra)
    se = build_split_extension(r, _split_csv(args.kernel_arrows))
    mods = load_sequence(se.A, args.sequence)
    rep = check_split_theorem(se, mods, n_max=args.max_n)
    ok = rep.hypotheses_hold and rep.conclusion_holds
    payload = {"status": "ok" if ok else "hypothesis-failed", **rep.to_json_dict()}
    lines = []
    for h in rep.hypotheses:
        lines.append(f"hypothesis [{h.name}]: {'holds' if h.holds else 'FAILS'}"
                     + ("" if h.certified else " (not certified)"))
        lines += [f"  witness {w}" for w in h.witnesses]
    lines.append(f"image sequence exceptional: {rep.conclusion.verdict}")
    lines.append(f"implication violated: {rep.implication_violated}")
    return emit(args, payload, lines, OK if ok else NEGATIVE)


def cmd_recollement(args) -> int:
    a = load_algebra(args.algebra)
    rec = build_recollement(a, _split_csv(args.idempotent))
    # Abar and Atilde have no quiver: errors for thin: or module-file input name them
    where = {rec.Abar: "the quotient Abar = A/AeA", rec.Atilde: "the corner Atilde = eAe"}
    if args.rec_cmd == "map":
        source = {"i_*": rec.Abar, "j_!": rec.Atilde, "j_*": rec.Atilde}.get(args.functor, rec.A)
        m = resolve_module(source, args.m, where=where.get(source))
        out = rec.apply(args.functor, m)
        blob = render_module(out, name="image")
        payload = {"status": "ok", "functor": args.functor, "image_dims": list(out.dims), "image": blob}
        return emit(args, payload, [blob], OK)
    if args.rec_cmd == "laws":
        rep = verify_recollement_laws(rec, list(_thin_references(a).values()))
        payload = {
            "status": "ok" if rep.ok else "hypothesis-failed",
            "checked": len(rep.checked),
            "failures": [{"law": f.law, "detail": f.detail} for f in rep.failures],
            "notes": rep.notes,
            "istar_exact": rec.istar_exact,
            "ishriek_exact": rec.ishriek_exact,
        }
        lines = [
            f"recollement over eps = {{{','.join(rec.eps_labels)}}}: "
            f"i^* exact = {rec.istar_exact}, i^! exact = {rec.ishriek_exact}",
            f"{len(rep.checked)} identities checked, {len(rep.failures)} failures",
        ]
        lines += [f"FAIL {f.law}: {f.detail}" for f in rep.failures]
        lines += [f"note: {n}" for n in rep.notes]
        return emit(args, payload, lines, OK if rep.ok else NEGATIVE)
    if args.rec_cmd == "thm":
        seq_bar = load_sequence(rec.Abar, args.seq_quotient, where[rec.Abar])
        seq_til = load_sequence(rec.Atilde, args.seq_corner, where[rec.Atilde])
        rep = check_recollement_theorem(rec, seq_bar, seq_til, n_max=args.max_n)
        ok = rep.hypotheses_hold and rep.conclusion_holds
        payload = {"status": "ok" if ok else "hypothesis-failed", **rep.to_json_dict()}
        lines = [f"hypothesis [{h.name}]: {'holds' if h.holds else 'FAILS'}" for h in rep.hypotheses]
        lines += [f"images exceptional: {rep.conclusion_holds}", f"implication violated: {rep.implication_violated}"]
        lines += [f"note: {n}" for n in rep.notes]
        return emit(args, payload, lines, OK if ok else NEGATIVE)
    raise CliError(f"unknown recollement subcommand {args.rec_cmd!r}")


def cmd_enumerate(args) -> int:
    a = load_algebra(args.algebra)
    try:
        cfg = EnumerationConfig(field=field_from_name(args.field), dim_bound=args.dim_bound, budget=args.budget)
    except ValueError as e:
        raise CliError(str(e)) from None
    if args.what == "bricks":
        result = enumerate_bricks(a, cfg)
        payload = {
            "status": "ok" if result.complete else "error",
            "count": len(result.items),
            "complete": result.complete,
            "bricks": [list(m.dims) for m in result.items],
            "notes": result.notes,
        }
        lines = [f"{len(result.items)} bricks (complete: {result.complete})"]
        lines += [f"  dims {m.dims}" for m in result.items]
    else:
        result = enumerate_ces(a, cfg)
        payload = {
            "status": "ok" if result.complete else "error",
            "count": len(result.items),
            "complete": result.complete,
            "sequences": [[list(m.dims) for m in seq] for seq in result.items],
            "notes": result.notes,
        }
        lines = [f"{len(result.items)} complete exceptional sequences (complete search: {result.complete})"]
        lines += ["  " + "  ".join(str(m.dims) for m in seq) for seq in result.items]
    return emit(args, payload, lines, OK if result.complete else ERROR)


def cmd_reproduce(args) -> int:
    results = run_all()
    failures = [r for r in results if not r.ok]
    payload = {
        "status": "ok" if not failures else "error",
        "criteria": [{"key": r.key, "ok": r.ok, "detail": r.detail} for r in results],
        "failing": [r.key for r in failures],
    }
    lines = [r.line() for r in results]
    lines.append(f"{len(results) - len(failures)}/{len(results)} criteria pass")
    return emit(args, payload, lines, OK if not failures else ERROR)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exrep",
        description="Exact computations in module categories of bound quiver algebras",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--out", help="also write the report to this path")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("algebra", help="algebra file operations")
    ps = p.add_subparsers(dest="alg_cmd", required=True)
    pi = ps.add_parser("info", help="parse, build and summarize an algebra")
    pi.add_argument("algebra")
    pi.set_defaults(func=cmd_algebra_info)

    p = sub.add_parser("module", help="module file operations")
    ps = p.add_subparsers(dest="mod_cmd", required=True)
    pc = ps.add_parser("check", help="verify module axioms")
    pc.add_argument("algebra")
    pc.add_argument("modules", nargs="+")
    pc.set_defaults(func=cmd_module_check)

    p = sub.add_parser("hom", help="dimension and basis of Hom(M, N)")
    p.add_argument("algebra")
    p.add_argument("m")
    p.add_argument("n")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("ext", help="Ext^0..Ext^k dimensions")
    p.add_argument("algebra")
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("--max-n", type=int, default=8)
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("resolve", help="minimal projective resolution prefix")
    p.add_argument("algebra")
    p.add_argument("m")
    p.add_argument("--steps", type=int, default=24)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("tensor", help="apply a split-extension functor")
    p.add_argument("algebra", help="the extension algebra R")
    p.add_argument("m")
    p.add_argument("--kernel-arrows", required=True)
    p.add_argument("--functor", choices=SPLIT_FUNCTORS, default="tensor-up")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("split-ext", help="split extension operations")
    ps = p.add_subparsers(dest="se_cmd", required=True)
    pv = ps.add_parser("verify", help="verify the splitting and report Q")
    pv.add_argument("algebra")
    pv.add_argument("--kernel-arrows", required=True)
    pv.set_defaults(func=cmd_split_ext_verify)

    p = sub.add_parser("check", help="exceptionality checks")
    ps = p.add_subparsers(dest="check_cmd", required=True)
    pq = ps.add_parser("seq", help="is the sequence exceptional?")
    pq.add_argument("algebra")
    pq.add_argument("sequence")
    pq.add_argument("--max-n", type=int, default=24)
    pq.set_defaults(func=cmd_check_seq)
    pt = ps.add_parser("thm-split", help="split-extension theorem hypotheses and conclusion")
    pt.add_argument("algebra", help="the extension algebra R")
    pt.add_argument("sequence", help="sequence file over the quotient algebra A")
    pt.add_argument("--kernel-arrows", required=True)
    pt.add_argument("--max-n", type=int, default=24)
    pt.set_defaults(func=cmd_check_thm_split)

    p = sub.add_parser("recollement", help="idempotent recollement operations")
    ps = p.add_subparsers(dest="rec_cmd", required=True)
    pm = ps.add_parser("map", help="apply one of the six functors")
    pm.add_argument("algebra")
    pm.add_argument("m")
    pm.add_argument("--idempotent", required=True)
    pm.add_argument("--functor", choices=RECOLLEMENT_FUNCTORS, required=True)
    pm.set_defaults(func=cmd_recollement)
    pl = ps.add_parser("laws", help="verify the recollement identities on thin samples")
    pl.add_argument("algebra")
    pl.add_argument("--idempotent", required=True)
    pl.set_defaults(func=cmd_recollement)
    pt = ps.add_parser("thm", help="recollement theorem hypotheses and conclusions")
    pt.add_argument("algebra")
    pt.add_argument("seq_quotient", help="sequence file over A/AeA")
    pt.add_argument("seq_corner", help="sequence file over eAe")
    pt.add_argument("--idempotent", required=True)
    pt.add_argument("--max-n", type=int, default=24)
    pt.set_defaults(func=cmd_recollement)

    p = sub.add_parser("enumerate", help="enumerate bricks or complete exceptional sequences")
    p.add_argument("what", choices=("bricks", "ces"))
    p.add_argument("algebra")
    p.add_argument("--field", default="F2")
    p.add_argument("--dim-bound", type=int, default=1)
    p.add_argument("--budget", type=int, default=200_000)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("reproduce-paper", help="run the bundled verification matrix")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with computation_scope():
            return args.func(args)
    except (ParseError, AlgebraError, ModuleError, SplitExtensionError, BimoduleError, RecollementError,
            QuiverError, FieldError, CliError) as e:
        payload = {"status": "error", "error": str(e)}
        if getattr(args, "json", False):
            print(json.dumps(payload, indent=2))
        else:
            print(f"error: {e}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the paper layer of the CLI in-process and print one JSON record.

The record lists, for each command, its argv, exit code and parsed `--json`
report:

    recollement laws   5 fixtures x 7 idempotent sets
    check thm-split    a3 with kernel arrow alpha x the 9 sequence files
    check seq          a42 x the 9 sequence files
    split-ext verify   the 4 splits a3/alpha, a3_ab/alpha, cycle3/gamma,
                       cycle3_ab/gamma
    enumerate ces      5 fixtures
    ext                5 fixtures x every (M, N) among simple:, proj: and
                       inj: at each vertex x --max-n 0, 3 and 8
    resolve            5 fixtures x each such M, --steps 6
    enumerate bricks   --dim-bound 2 on a3, a3_ab and a42 over F3, and on
                       cycle3 and cycle3_ab over F2
    hom                5 fixtures x proj:v x inj:w at every pair of vertices
    recollement map    a3 and cycle3_ab x --idempotent 1 and 2,3 x the six
                       functors x simple:, proj: and inj: at each vertex of
                       the functor's source algebra
    tensor             the splits a3/alpha and cycle3/gamma x the four
                       functors x thin: on each nonempty vertex set; a
                       support that breaks a relation records exit 1

Paths in the argv are relative to the repository root, which the script
makes its working directory.  Usage:

    PYTHONPATH=src python scripts/paper_layer.py > paper-layer.json
    cmp paper-layer.json tests/golden/paper-layer.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from exrep.cli import main as cli_main

FIXTURES = ("a3", "a3_ab", "a42", "cycle3", "cycle3_ab")
IDEMPOTENTS = ("1", "2", "3", "1,2", "1,3", "2,3", "1,2,3")
ROWS = "abcdefghi"
SPLITS = (("a3", "alpha"), ("a3_ab", "alpha"), ("cycle3", "gamma"), ("cycle3_ab", "gamma"))
# every fixture has the vertices 1 2 3
MODULES = tuple(f"{kind}:{v}" for kind in ("simple", "proj", "inj") for v in "123")
EXT_BOUNDS = ("0", "3", "8")
BRICKS = (("a3", "F3"), ("a3_ab", "F3"), ("a42", "F3"), ("cycle3", "F2"), ("cycle3_ab", "F2"))
RECOLLEMENT_FUNCTORS = ("i_*", "i^*", "i^!", "j_!", "j^*", "j_*")
SPLIT_FUNCTORS = ("tensor-up", "tensor-down", "hom-up", "hom-down")


def _alg(name: str) -> str:
    return f"src/exrep/fixtures/{name}.alg"


def _seq(row: str) -> str:
    return f"src/exrep/fixtures/seq_{row}.seq"


def _source_vertices(functor: str, eps: str) -> list[str]:
    """The vertices of the algebra a recollement functor reads from: A/AeA
    for i_*, eAe for j_! and j_*, and A for the other three."""
    inside = eps.split(",")
    if functor == "i_*":
        return [v for v in "123" if v not in inside]
    if functor in ("j_!", "j_*"):
        return inside
    return list("123")


def commands() -> list[list[str]]:
    out = []
    for fix in FIXTURES:
        for eps in IDEMPOTENTS:
            out.append(["recollement", "laws", _alg(fix), "--idempotent", eps])
    for row in ROWS:
        out.append(["check", "thm-split", _alg("a3"), _seq(row), "--kernel-arrows", "alpha"])
    for row in ROWS:
        out.append(["check", "seq", _alg("a42"), _seq(row)])
    for fix, arrow in SPLITS:
        out.append(["split-ext", "verify", _alg(fix), "--kernel-arrows", arrow])
    for fix in FIXTURES:
        out.append(["enumerate", "ces", _alg(fix)])
    for fix in FIXTURES:
        for m in MODULES:
            for n in MODULES:
                for bound in EXT_BOUNDS:
                    out.append(["ext", _alg(fix), m, n, "--max-n", bound])
        for m in MODULES:
            out.append(["resolve", _alg(fix), m, "--steps", "6"])
    for fix, fld in BRICKS:
        out.append(["enumerate", "bricks", _alg(fix), "--field", fld, "--dim-bound", "2"])
    for fix in FIXTURES:
        for v in "123":
            for w in "123":
                out.append(["hom", _alg(fix), f"proj:{v}", f"inj:{w}"])
    for fix in ("a3", "cycle3_ab"):
        for eps in ("1", "2,3"):
            for functor in RECOLLEMENT_FUNCTORS:
                for v in _source_vertices(functor, eps):
                    for kind in ("simple", "proj", "inj"):
                        out.append(["recollement", "map", _alg(fix), f"{kind}:{v}", "--idempotent", eps,
                                    "--functor", functor])
    for fix, arrow in (("a3", "alpha"), ("cycle3", "gamma")):
        for functor in SPLIT_FUNCTORS:
            for sup in IDEMPOTENTS:
                out.append(["tensor", _alg(fix), f"thin:{sup}", "--kernel-arrows", arrow, "--functor", functor])
    return out


def run(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["--json", *argv])
    return {"argv": argv, "exit": code, "report": json.loads(buf.getvalue())}


def main() -> int:
    os.chdir(Path(__file__).resolve().parent.parent)
    records = [run(argv) for argv in commands()]
    json.dump(records, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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


def _alg(name: str) -> str:
    return f"src/exrep/fixtures/{name}.alg"


def _seq(row: str) -> str:
    return f"src/exrep/fixtures/seq_{row}.seq"


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

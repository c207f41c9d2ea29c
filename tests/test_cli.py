import json
from pathlib import Path

import pytest

from exrep.cli import main

FIXDIR = Path(__file__).resolve().parent.parent / "src" / "exrep" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_algebra_info(capsys):
    code, out, _ = run(capsys, "algebra", "info", str(FIXDIR / "cycle3.alg"))
    assert code == 0
    assert "dimension: 6" in out


def test_algebra_info_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "--json", "algebra", "info", str(FIXDIR / "a3.alg"))
    code2, out2, _ = run(capsys, "--json", "algebra", "info", str(FIXDIR / "a3.alg"))
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["dimension"] == 6 and payload["status"] == "ok"


def test_bad_file_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nfield Q\nvertices 1\nnonsense\nend\n")
    code, _, err = run(capsys, "algebra", "info", str(bad))
    assert code == 1
    assert "line 4" in err


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "hom", str(FIXDIR / "nope.alg"), "simple:1", "simple:1")
    assert code == 1


def test_hom_and_ext(capsys):
    code, out, _ = run(capsys, "hom", str(FIXDIR / "a3.alg"), "thin:1,2,3", "simple:3")
    assert code == 0 and "dim Hom = 0" in out
    code, out, _ = run(
        capsys, "ext", str(FIXDIR / "cycle3.alg"), "thin:1", "thin:1", "--max-n", "4"
    )
    assert code == 0
    assert "[1, 0, 0, 1, 0]" in out


def test_resolve(capsys):
    code, out, _ = run(capsys, "resolve", str(FIXDIR / "cycle3.alg"), "thin:1", "--steps", "5")
    assert code == 0
    assert "periodic" in out


def test_module_check_negative(tmp_path, capsys):
    mod = tmp_path / "bad.mod"
    mod.write_text("module bad over a3_ab\ndim 1 1 1\nmap alpha [[1]]\nmap beta [[1]]\nend\n")
    code, out, _ = run(capsys, "module", "check", str(FIXDIR / "a3_ab.alg"), str(mod))
    assert code == 2
    assert "FAIL" in out


def test_module_check_positive(tmp_path, capsys):
    mod = tmp_path / "ok.mod"
    mod.write_text("module ok over a3\ndim 1 1 0\nmap alpha [[2]]\nend\n")
    code, out, _ = run(capsys, "module", "check", str(FIXDIR / "a3.alg"), str(mod), "thin:2,3")
    assert code == 0


def test_tensor_subcommand(capsys):
    code, out, _ = run(
        capsys, "tensor", str(FIXDIR / "a3.alg"), "thin:1", "--kernel-arrows", "alpha"
    )
    assert code == 0
    assert "dim 1 1 1" in out


def test_split_ext_verify(capsys):
    code, out, _ = run(
        capsys, "split-ext", "verify", str(FIXDIR / "cycle3.alg"), "--kernel-arrows", "gamma"
    )
    assert code == 0
    assert "dim Q = 1" in out
    assert "False" in out


def test_check_seq_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "seq", str(FIXDIR / "a42.alg"), str(FIXDIR / "seq_a.seq"))
    assert code == 0
    code, _, _ = run(capsys, "check", "seq", str(FIXDIR / "a42.alg"), str(FIXDIR / "seq_bad.seq"))
    assert code == 1  # missing file: operational error, not a negative verdict


def test_check_seq_json_schema(capsys):
    code, out, _ = run(
        capsys, "--json", "check", "seq", str(FIXDIR / "a42.alg"), str(FIXDIR / "seq_a.seq")
    )
    payload = json.loads(out)
    for key in ("subject", "verdict", "certainty", "complete", "witnesses", "images"):
        assert key in payload
    assert payload["subject"] == "sequence"
    assert payload["verdict"] is True and payload["complete"] is True
    for w in payload["witnesses"]:
        assert set(w) == {"condition", "i", "j", "n", "dim"}


def test_check_seq_negative(tmp_path, capsys):
    seq = tmp_path / "repeat.seq"
    seq.write_text("simple:1\nsimple:1\n")
    code, out, _ = run(capsys, "check", "seq", str(FIXDIR / "a42.alg"), str(seq))
    assert code == 2
    assert "False" in out


def test_check_thm_split_positive_and_negative(capsys):
    code, _, _ = run(
        capsys, "check", "thm-split", str(FIXDIR / "a3.alg"), str(FIXDIR / "seq_a.seq"),
        "--kernel-arrows", "alpha",
    )
    assert code == 0
    code, out, _ = run(
        capsys, "check", "thm-split", str(FIXDIR / "a3.alg"), str(FIXDIR / "seq_b.seq"),
        "--kernel-arrows", "alpha",
    )
    assert code == 2
    assert "FAILS" in out


def test_check_thm_split_names_the_failing_witness(capsys):
    # row (f) fails hypothesis (3) at T3 i=1 j=2 (see test_acceptance.py)
    code, out, _ = run(
        capsys, "check", "thm-split", str(FIXDIR / "a3.alg"), str(FIXDIR / "seq_f.seq"),
        "--kernel-arrows", "alpha",
    )
    assert code == 2
    assert "  witness T3 i=1 j=2 dim 1" in out.splitlines()
    assert "None" not in out


def test_check_thm_split_nonprojective_extension(tmp_path, capsys):
    seq = tmp_path / "one.seq"
    seq.write_text("thin:1\n")
    code, out, _ = run(
        capsys, "check", "thm-split", str(FIXDIR / "cycle3.alg"), str(seq),
        "--kernel-arrows", "gamma",
    )
    assert code == 2
    assert "projective" in out and "FAILS" in out


def test_recollement_laws(capsys):
    code, out, _ = run(
        capsys, "recollement", "laws", str(FIXDIR / "a3.alg"), "--idempotent", "2,3"
    )
    assert code == 0
    assert "0 failures" in out


def test_recollement_map(capsys):
    code, out, _ = run(
        capsys, "recollement", "map", str(FIXDIR / "a3.alg"), "simple:1",
        "--idempotent", "2,3", "--functor", "i_*",
    )
    assert code == 0
    assert "dim 1 0 0" in out


THIN_OVER = {
    "i_*": "the quotient Abar = A/AeA (a3.mod_ideal(2,3))",
    "j_!": "the corner Atilde = eAe (a3.corner(2,3))",
    "j_*": "the corner Atilde = eAe (a3.corner(2,3))",
}


@pytest.mark.parametrize("functor", sorted(THIN_OVER))
def test_recollement_map_names_the_algebra_a_thin_module_needs(functor, capsys):
    """i_* reads its module over Abar, j_! and j_* over Atilde; neither has
    declared arrows, so thin: is an input error that says where to look."""
    code, out, _ = run(
        capsys, "--json", "recollement", "map", str(FIXDIR / "a3.alg"), "thin:1",
        "--idempotent", "2,3", "--functor", functor,
    )
    assert code == 1
    assert json.loads(out)["error"] == (
        f"thin: modules need declared arrows, and this module is read over {THIN_OVER[functor]}, "
        "which has none; use simple:, proj: or inj: there"
    )
    code, _, _ = run(
        capsys, "recollement", "map", str(FIXDIR / "a3.alg"), "simple:1" if functor == "i_*" else "proj:2",
        "--idempotent", "2,3", "--functor", functor,
    )
    assert code == 0


def test_recollement_thm_names_the_algebra_of_a_sequence_file(tmp_path, capsys):
    (tmp_path / "bar.seq").write_text("simple:1\n")
    (tmp_path / "til.seq").write_text("thin:2\n")
    (tmp_path / "thin_bar.seq").write_text("thin:1\n")
    (tmp_path / "til_ok.seq").write_text("proj:2\nsimple:2\n")
    for bar, til, over in (("bar", "til", THIN_OVER["j_!"]), ("thin_bar", "til_ok", THIN_OVER["i_*"])):
        code, _, err = run(
            capsys, "recollement", "thm", str(FIXDIR / "a3.alg"), str(tmp_path / f"{bar}.seq"),
            str(tmp_path / f"{til}.seq"), "--idempotent", "2,3",
        )
        assert code == 1
        assert f"read over {over}, which has none" in err


UNKNOWN_KERNEL_ARROW = (
    ("split-ext", "verify", str(FIXDIR / "a3.alg"), "--kernel-arrows", "delta"),
    ("tensor", str(FIXDIR / "a3.alg"), "simple:1", "--kernel-arrows", "delta"),
    ("check", "thm-split", str(FIXDIR / "a3.alg"), str(FIXDIR / "seq_a.seq"), "--kernel-arrows", "delta"),
)


@pytest.mark.parametrize("argv", UNKNOWN_KERNEL_ARROW, ids=("split-ext", "tensor", "thm-split"))
def test_unknown_kernel_arrow_is_an_input_error(argv, capsys):
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 1
    assert json.loads(out) == {"status": "error", "error": "unknown arrow 'delta'"}
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: unknown arrow 'delta'\n"


@pytest.mark.parametrize("cmd", ("laws", "map"))
def test_empty_idempotent_is_an_input_error(cmd, capsys):
    extra = ("simple:1", "--functor", "j^*") if cmd == "map" else ()
    argv = ("recollement", cmd, str(FIXDIR / "a3.alg"), *extra, "--idempotent", ",")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 1
    assert json.loads(out) == {"status": "error", "error": "empty idempotent vertex set"}
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: empty idempotent vertex set\n"


def test_recollement_thm(tmp_path, capsys):
    sbar = tmp_path / "bar.seq"
    sbar.write_text("simple:1\n")
    stil = tmp_path / "til.seq"
    stil.write_text("proj:2\nsimple:2\n")
    code, out, _ = run(
        capsys, "recollement", "thm", str(FIXDIR / "a3.alg"), str(sbar), str(stil),
        "--idempotent", "2,3",
    )
    assert code == 2  # i^! certificate fails for this idempotent
    assert "FAILS" in out


def test_enumerate_bricks_and_ces(capsys):
    code, out, _ = run(capsys, "enumerate", "bricks", str(FIXDIR / "a42.alg"))
    assert code == 0 and "4 bricks" in out
    code, out, _ = run(capsys, "enumerate", "ces", str(FIXDIR / "a42.alg"))
    assert code == 0 and "9 complete exceptional sequences" in out


def test_enumerate_budget_error(capsys):
    code, out, _ = run(capsys, "enumerate", "bricks", str(FIXDIR / "a3.alg"), "--budget", "3")
    assert code == 1


def test_enumerate_ces_budget_error(capsys):
    # a search cut by the budget is an incomplete computation, not a negative verdict
    code, out, _ = run(capsys, "--json", "enumerate", "ces", str(FIXDIR / "a3.alg"), "--budget", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error" and payload["complete"] is False


@pytest.mark.parametrize(
    "flag,value,message",
    [("--budget", "0", "budget must be positive"), ("--dim-bound", "-1", "dim_bound must be >= 0")],
)
@pytest.mark.parametrize("what", ["bricks", "ces"])
def test_enumerate_bad_limits_are_input_errors(capsys, what, flag, value, message):
    args = ("enumerate", what, str(FIXDIR / "a3.alg"), flag, value)
    code, out, err = run(capsys, *args)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, "--json", *args)
    assert code == 1 and err == ""
    assert json.loads(out) == {"status": "error", "error": message}


def test_enumerate_json_deterministic(capsys):
    args = ("--json", "enumerate", "ces", str(FIXDIR / "a42.alg"))
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["count"] == 9


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "--json", "--out", str(target), "hom", str(FIXDIR / "a3.alg"), "simple:1", "simple:1"
    )
    assert code == 0
    assert json.loads(target.read_text())["dim"] == 1


def test_module_over_wrong_algebra_rejected(tmp_path, capsys):
    mod = tmp_path / "m.mod"
    mod.write_text("module m over cycle3\ndim 1 1 0\nmap alpha [[1]]\nend\n")
    code, _, err = run(capsys, "hom", str(FIXDIR / "a3.alg"), str(mod), "simple:1")
    assert code == 1
    assert "cycle3" in err


@pytest.mark.parametrize(
    "body,line,message",
    [
        ("dim 1 1\n", 2, "dim line has 2 entries, a3 has 3 vertices"),
        ("dim 1 1 0 0\n", 2, "dim line has 4 entries"),
        ("dim 1 1 0\n# no such arrow in a3\nmap gamma [[1]]\n", 4, "unknown arrow 'gamma' in a3"),
        ("dim 1 1 0\nmap alpha [[1, 1]]\n", 3, "matrix literal is not 1x1"),
    ],
)
def test_bad_module_file_names_its_line(tmp_path, capsys, body, line, message):
    mod = tmp_path / "bad.mod"
    mod.write_text("module m over a3\n" + body + "end\n")
    code, out, err = run(capsys, "hom", str(FIXDIR / "a3.alg"), str(mod), "simple:1")
    assert code == 1 and not out
    assert err.startswith("error: ") and message in err and f"(line {line})" in err
    code, out, _ = run(capsys, "--json", "hom", str(FIXDIR / "a3.alg"), str(mod), "simple:1")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "error" and payload["error"].endswith(f"(line {line})")


def test_reproduce_json_deterministic(capsys):
    _, out1, _ = run(capsys, "--json", "reproduce-paper")
    _, out2, _ = run(capsys, "--json", "reproduce-paper")
    assert out1 == out2


def test_reproduce_json_matches_the_recorded_golden(capsys):
    """The report equals `tests/golden/reproduce-paper.json` byte for byte,
    the two red criteria and their witnesses included."""
    code, out, _ = run(capsys, "--json", "reproduce-paper")
    assert code == 1
    assert out == (Path(__file__).parent / "golden" / "reproduce-paper.json").read_text()


def test_reproduce_matrix(capsys):
    code, out, _ = run(capsys, "reproduce-paper")
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 9
    # the verification matrix is honest: the two published-value mismatches
    # (positive-row list and the cover multiplicity) are reported as failures
    assert code == 1
    failing = {l.split("]")[1].split(":")[0].strip() for l in lines if l.startswith("[FAIL")}
    assert failing == {"split-theorem-positive-rows", "projective-extension-decomposition"}

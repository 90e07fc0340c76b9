import os
import subprocess
import sys
from pathlib import Path

import pytest

import bicomplex
from bicomplex import cli, complexes, spectral
from bicomplex.cli import main
from bicomplex.files import MAX_TOTAL_DIM
from conftest import run_cli, run_cli_err

WEDGE_CLASSIFY = """\
tool_version 0.1.0
input_sha256 a4121f89e037685ac8cbf04ec0c9ca296edba1c163aec129425f277d7c56784b
h dolbeault 1 0 1
h del 0 1 1
h bott_chern 0 1 1
h bott_chern 1 0 1
h aeppli 0 0 1
h de_rham 1 1
e col 1 1 0 1
e col 2 1 0 1
e col 3 1 0 1
e row 1 1 0 1
e row 2 1 0 1
e row 3 1 0 1
degeneration_F 1
degeneration_Fbar 1
pure 0 true
pure 1 false
ddbar false
page1_def false
page1_dims false
page1_shape false
"""

DOT_COHOMOLOGY = """\
tool_version 0.1.0
input_sha256 f89a49ce985d64cb0034ccfefd24acd09954b0514e006ee7830765c061b65b6c
h dolbeault 0 0 1
h del 0 0 1
h bott_chern 0 0 1
h aeppli 0 0 1
h de_rham 0 1
"""


def test_classify_wedge_machine(capsys):
    code, out = run_cli(capsys, ["classify", "catalog:wedge", "--format", "machine"])
    assert code == 0
    assert out == WEDGE_CLASSIFY


def test_cohomology_dot_machine(capsys):
    code, out = run_cli(capsys, ["cohomology", "catalog:dot", "--format", "machine"])
    assert code == 0
    assert out == DOT_COHOMOLOGY


def test_decompose_vee(capsys):
    code, out = run_cli(capsys, ["decompose", "catalog:vee", "--format", "machine"])
    assert code == 0
    assert out.splitlines()[-1] == "zigzag 1 0 1 del delbar"


def test_text_is_machine_plus_comments(capsys):
    _, text = run_cli(capsys, ["classify", "catalog:heisenberg3-invariant"])
    _, machine = run_cli(
        capsys, ["classify", "catalog:heisenberg3-invariant", "--format", "machine"]
    )
    stripped = "".join(
        line + "\n" for line in text.splitlines() if not line.startswith("#")
    )
    assert stripped == machine
    assert any(line.startswith("#") for line in text.splitlines())


def test_reruns_are_byte_identical(capsys):
    a = run_cli(capsys, ["classify", "catalog:sl2-invariant", "--format", "machine"])
    b = run_cli(capsys, ["classify", "catalog:sl2-invariant", "--format", "machine"])
    assert a == b


def test_validate_verdicts(capsys, tmp_path):
    code, out = run_cli(capsys, ["validate", "catalog:square", "--format", "machine"])
    assert code == 0 and out.endswith("valid true\n")
    bad = tmp_path / "anti.bicomplex"
    bad.write_text(
        "space 0 0 1\nspace 1 0 1\nspace 0 1 1\nspace 1 1 1\n"
        "del 0 0 0 0 1\ndel 0 1 0 0 1\ndelbar 0 0 0 0 1\ndelbar 1 0 0 0 1\n"
    )
    code, out = run_cli(capsys, ["validate", str(bad), "--format", "machine"])
    assert code == 2 and out.endswith("valid false\n")
    code, text_out = run_cli(capsys, ["validate", str(bad)])
    assert code == 2 and "# axiom: del delbar + delbar del != 0" in text_out


def test_parse_failures_exit_1(capsys, tmp_path):
    code, err = run_cli_err(capsys, ["cohomology", "catalog:nope"])
    assert code == 1 and "unknown catalog entry" in err
    bad = tmp_path / "bad.bicomplex"
    bad.write_text("space 0 0 x\n")
    code, err = run_cli_err(capsys, ["cohomology", str(bad)])
    assert code == 1 and err.startswith("parse error: line 1")
    code, _ = run_cli(capsys, ["cohomology", str(tmp_path / "missing.bicomplex")])
    assert code == 1


@pytest.mark.parametrize(
    "verb",
    ["validate", "cohomology", "fss", "classify", "decompose", "lie", "solv",
     "splitting", "ssmodel"],
)
def test_non_utf8_file_is_a_parse_error(capsys, tmp_path, verb):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"space 0 0 1\n# \xff\n")
    argv = [verb, str(bad)]
    if verb == "ssmodel":
        argv = [verb, "--algebra", str(bad), "--betti", "1"]
    code, err = run_cli_err(capsys, argv)
    assert code == 1
    assert err.startswith("parse error:") and "not UTF-8" in err
    assert err.count("\n") == 1


def test_argparse_errors_exit_1(capsys):
    assert run_cli(capsys, ["classify"])[0] == 1
    assert run_cli(capsys, ["no-such-verb"])[0] == 1
    assert run_cli(capsys, ["classify", "catalog:dot", "--format", "yaml"])[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--seeds", "-3"],
        ["selftest", "--seeds", "0"],
        ["fss", "catalog:wedge", "--max-page", "-1"],
        ["classify", "catalog:wedge", "--max-page", "0"],
        ["solv", "nakamura:real", "--max-page", "0"],
        ["splitting", "nakamura:real", "--max-page", "-2"],
    ],
)
def test_non_positive_counts_exit_1(capsys, argv):
    code = main(argv + ["--format", "machine"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: argument") and len(err.splitlines()) == 1


def test_fss_filtration_flag(capsys):
    code, out = run_cli(
        capsys, ["fss", "catalog:hline", "--filtration", "both", "--format", "machine"]
    )
    assert code == 0
    assert "degeneration_F 2" in out and "degeneration_Fbar 1" in out
    assert "e col 1 0 0 1" in out
    code, out = run_cli(
        capsys, ["fss", "catalog:hline", "--filtration", "row", "--format", "machine"]
    )
    assert code == 0
    assert "degeneration_F" not in out.replace("degeneration_Fbar", "")
    assert "e col" not in out


def test_fss_both_computes_de_rham_once(monkeypatch, capsys):
    calls = []
    original = complexes.de_rham_table
    for module in (complexes, spectral, cli):
        if getattr(module, "de_rham_table", None) is original:
            monkeypatch.setattr(
                module, "de_rham_table", lambda dc: calls.append(dc) or original(dc)
            )
    code, _ = run_cli(
        capsys,
        ["fss", "catalog:heisenberg3-invariant", "--filtration", "both",
         "--format", "machine"],
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "callee, argv",
    [
        ("ce_complex", ["lie", "abelian:2"]),
        ("decompose", ["classify", "catalog:square"]),
        ("classify", ["solv", "nakamura:real"]),
    ],
)
@pytest.mark.parametrize(
    "error",
    [
        MemoryError("cannot allocate"),
        RecursionError("maximum recursion depth exceeded"),
        ZeroDivisionError("inverse of zero scalar"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_other_exceptions_exit_3_with_one_line(monkeypatch, capsys, callee, argv, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, callee, fail)
    code = main(argv + ["--format", "machine"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == f"internal error: {type(error).__name__}: {error}\n"


def test_classify_max_page_caps_output(capsys, tmp_path):
    from bicomplex import write_bicomplex
    from conftest import staircase

    f = tmp_path / "s4.bicomplex"
    f.write_text(write_bicomplex(staircase(4)))
    _, full = run_cli(capsys, ["classify", str(f), "--format", "machine"])
    _, capped = run_cli(
        capsys, ["classify", str(f), "--max-page", "1", "--format", "machine"]
    )
    assert "e col 1 0 1 1" in capped
    assert "e col 2 0 1 1" in full
    assert "e col 2" not in capped and "d col 2" not in capped
    # the verdict lines survive the cap, computed on the uncapped sequence
    assert "degeneration_F 3" in capped
    assert len(capped.splitlines()) < len(full.splitlines())


def test_lie_verbs(capsys, tmp_path):
    code, out = run_cli(capsys, ["lie", "sl2", "--format", "machine"])
    assert code == 0
    assert out.splitlines()[2:] == ["dim 3", "ce 0 1", "ce 3 1", "semisimple true"]
    f = tmp_path / "heis.lie"
    f.write_text("dim 3\nbracket 1 2 3 1\n")
    code, out = run_cli(capsys, ["lie", str(f), "--format", "machine"])
    assert code == 0
    assert "ce 1 2" in out and "semisimple false" in out
    # jacobi violation is a validation failure
    f2 = tmp_path / "bad.lie"
    f2.write_text("dim 3\nbracket 1 2 3 1\nbracket 1 3 1 1\n")
    assert run_cli(capsys, ["lie", str(f2)])[0] == 2


def test_ssmodel_output(capsys):
    code, out = run_cli(
        capsys, ["ssmodel", "--algebra", "sl2", "--betti", "1,2,2,1", "--format", "machine"]
    )
    assert code == 0
    lines = out.splitlines()
    assert "e2 0 1 2" in lines and "e2 3 3 1" in lines
    assert [l for l in lines if l.startswith("asym")] == [
        "asym 0 1",
        "asym 0 2",
        "asym 1 3",
        "asym 2 3",
    ]
    assert lines[-1] == "page1_symmetry false"
    code, out = run_cli(
        capsys, ["ssmodel", "--algebra", "sl2", "--betti", "1,0,0,1", "--format", "machine"]
    )
    assert code == 0 and out.splitlines()[-1] == "page1_symmetry true"


def test_ssmodel_rejects_bad_betti(capsys):
    assert run_cli(capsys, ["ssmodel", "--algebra", "sl2", "--betti", "1,x"])[0] == 1
    assert run_cli(capsys, ["ssmodel", "--algebra", "sl2", "--betti", "2,0"])[0] == 2
    # the model itself is defined for any algebra; only theoremB_verdict
    # insists on semisimplicity
    code, out = run_cli(
        capsys, ["ssmodel", "--algebra", "heisenberg3", "--betti", "1,0", "--format", "machine"]
    )
    assert code == 0 and out.splitlines()[-1] == "page1_symmetry false"


def test_solv_and_splitting_presets(capsys):
    code, out = run_cli(capsys, ["solv", "nakamura:identically", "--format", "machine"])
    assert code == 0
    assert "page1_def true" in out and "h dolbeault 0 1 1" in out
    code, out = run_cli(capsys, ["splitting", "nakamura:real", "--format", "machine"])
    assert code == 0
    assert "page1_def true" in out and "h dolbeault 0 1 3" in out
    assert run_cli(capsys, ["solv", "nakamura:never"])[0] == 1


def test_solv_from_file(capsys, tmp_path):
    f = tmp_path / "nk.solv"
    f.write_text(
        "dim 3\nbracket 1 2 2 1\nbracket 1 3 3 -1\n"
        "weight 2 1 1\nweight 3 1 -1\ngamma_trivial all\n"
    )
    code, out = run_cli(capsys, ["solv", str(f), "--format", "machine"])
    assert code == 0 and "h dolbeault 0 1 3" in out


def test_selftest_small(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # counterexample dumps would land here
    code, out = run_cli(capsys, ["selftest", "--seeds", "2", "--format", "machine"])
    assert code == 0
    assert out.splitlines()[-2:] == ["selftest_seeds 2", "selftest true"]
    assert not list(tmp_path.iterdir())


def test_console_script_help():
    # the child imports the same package as the tests, wherever it lives
    src = str(Path(bicomplex.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "bicomplex.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "classify" in proc.stdout


@pytest.mark.parametrize("verb", ["validate", "cohomology", "fss", "classify", "decompose"])
def test_over_budget_bicomplex_is_a_validation_error(capsys, tmp_path, verb):
    # two spaces, each under the budget, whose sum is over it: refused while
    # parsing, before any matrix is built
    half = MAX_TOTAL_DIM // 2 + 1
    big = tmp_path / "big.bicomplex"
    big.write_text(f"space 0 0 {half}\nspace 0 1 {half}\n")
    code = main([verb, str(big), "--format", "machine"])
    out, err = capsys.readouterr()
    assert code == 2
    if verb == "validate":
        assert (out, err) == ("valid false\n", "")
    else:
        assert out == "" and err.startswith("validation error:")
        assert err.count("\n") == 1 and f"{2 * half} > {MAX_TOTAL_DIM}" in err

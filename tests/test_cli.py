import argparse
import hashlib
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import bicomplex
from bicomplex import (
    DoubleComplex,
    InternalError,
    ONE,
    ValidationError,
    analyse,
    build_C,
    catalog_complex,
    catalog_names,
    cli,
    complexes,
    linalg,
    nakamura_preset,
    parse_bicomplex,
    random_solvable,
    random_zigzag_sum,
    shuffle_basis,
    spectral,
    write_bicomplex,
    zigzags,
)
from bicomplex.cli import main
from bicomplex.files import MAX_TOTAL_DIM
from conftest import (
    ONE_1x1,
    count_calls,
    count_reductions,
    record_pairings,
    run_cli,
    run_cli_err,
)

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
    "argv",
    [
        ["classify", "catalog:nope"],
        ["classify", "catalog:abelian:9-invariant"],
        ["lie", "abelian:9"],
        ["lie", "abelian:x"],
        ["ssmodel", "--algebra", "abelian:9", "--betti", "1"],
        ["solv", "nakamura:foo"],
        ["splitting", "nakamura:foo"],
    ],
    ids=" ".join,
)
def test_unknown_builtin_names_exit_1(capsys, argv):
    code = main(argv + ["--format", "machine"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("parse error: unknown ") and err.count("\n") == 1


def test_validation_error_is_the_library_message(capsys, tmp_path):
    # a del chain with every map 1 breaks del^2 = 0 at (0,0) and at (1,0)
    chain = DoubleComplex.build(
        {(p, 0): 1 for p in range(4)}, {(p, 0): ONE_1x1 for p in range(3)}
    )
    with pytest.raises(ValidationError) as raised:
        bicomplex.classify(chain)
    assert "(0,0)" in str(raised.value) and "(1,0)" in str(raised.value)
    f = tmp_path / "chain.bicomplex"
    f.write_text(write_bicomplex(chain))
    code = main(["classify", str(f), "--format", "machine"])
    assert (code, *capsys.readouterr()) == (2, "", f"validation error: {raised.value}\n")


def test_classify_a_large_parsed_complex_in_any_basis(capsys, tmp_path):
    # the 448-dim random_solvable(0), written as built and in a shuffled
    # basis: every line but the input's hash agrees, the Hodge pieces too
    dc = build_C(random_solvable(0))[0]
    reports = []
    for name, c in (("built", dc), ("shuffled", shuffle_basis(dc, 10**6))):
        f = tmp_path / f"{name}.bicomplex"
        f.write_text(write_bicomplex(c))
        code, out = run_cli(capsys, ["classify", str(f), "--format", "machine"])
        assert code == 0
        reports.append([line for line in out.splitlines() if not line.startswith("input_sha256")])
    built, shuffled = reports
    assert shuffled == built
    verdict = [line for line in built if not line.startswith(("tool_version", "h ", "e ", "d "))]
    assert verdict == ["degeneration_F 2", "degeneration_Fbar 2",
                       *(f"pure {k} true" for k in range(9)),
                       "ddbar false", "page1_def true", "page1_dims true", "page1_shape true"]
    assert sum(line.startswith("h ") for line in built) > 100


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


BETTI_ERROR = "parse error: betti must be comma-separated integers: "


@pytest.mark.parametrize("argv, err", [
    # int() takes each of these; the options follow the files' -?[0-9]+
    (["ssmodel", "--algebra", "sl2", "--betti", "1,0,0,0_1"], BETTI_ERROR + "'1,0,0,0_1'"),
    (["ssmodel", "--algebra", "sl2", "--betti", "1,0,0,１"], BETTI_ERROR + "'1,0,0,１'"),
    (["ssmodel", "--algebra", "sl2", "--betti", "1, 0,+1"], BETTI_ERROR + "'1, 0,+1'"),
    (["fss", "catalog:square", "--max-page", "1_0"],
     "error: argument --max-page: expected a positive integer, got '1_0'"),
    (["classify", "catalog:square", "--max-page", "٣"],
     "error: argument --max-page: expected a positive integer, got '٣'"),
    (["selftest", "--seeds", "1_0"],
     "error: argument --seeds: expected a positive integer, got '1_0'"),
    (["selftest", "--seeds", "1", "--seed", "0_0"],
     "error: argument --seed: expected an integer, got '0_0'"),
    (["selftest", "--seeds", "1", "--seed", "+2"],
     "error: argument --seed: expected an integer, got '+2'"),
])
def test_integer_options_take_ascii_digits_only(capsys, argv, err):
    code = main(argv + ["--format", "machine"])
    out, got = capsys.readouterr()
    assert (code, out, got) == (1, "", err + "\n")


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


def _fss_work(monkeypatch, capsys, filtration):
    """The pairings (by filtration) and de Rham tables that one fss report
    runs; `test_repeated_calls_build_no_parser_and_keep_nothing` pins its
    one validation."""
    pairings = record_pairings(monkeypatch)
    calls = count_calls(monkeypatch, complexes, ("de_rham_table",))
    code, _ = run_cli(
        capsys,
        ["fss", "catalog:heisenberg3-invariant", "--filtration", filtration,
         "--format", "machine"],
    )
    assert code == 0
    return pairings, calls


def test_fss_both_computes_de_rham_once(monkeypatch, capsys):
    # one pairing per filtration: the row pages, built first, give de Rham
    # to the column pages, and no third elimination of Tot runs
    pairings, calls = _fss_work(monkeypatch, capsys, "both")
    assert pairings == ["row", "col"]
    assert calls == {}


@pytest.mark.parametrize("filtration, pairings, tables", [
    ("row", ["row"], {}),  # de Rham off the row pages' own pairing
    ("col", ["row", "col"], {"de_rham_table": 1}),  # its row pairing, then the column one
])
def test_fss_one_filtration_pairs_once_or_twice(monkeypatch, capsys, filtration,
                                                pairings, tables):
    got, calls = _fss_work(monkeypatch, capsys, filtration)
    assert got == pairings
    assert calls == tables


# the names the reports call, where they are looked up: the engines'
# public entry points, which `analyse` calls with the known tables
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

    monkeypatch.setattr(cli if callee == "ce_complex" else spectral, callee, fail)
    code = main(argv + ["--format", "machine"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == f"internal error: {type(error).__name__}: {error}\n"


# the four bidegree tables come from one pass (del delbar and the stacks out
# of and into each space); de Rham from the row pages' reduction in an
# analysis, else from `de_rham_table`'s row pairing; the chain routes of the
# Dolbeault and del tables do not run
TABLE_FUNCTIONS = ("_bidegree_tables", "de_rham_table")
CHAIN_ROUTES = ("dolbeault_table", "del_table")


@pytest.mark.parametrize("argv, calls", [
    # the input only: the certificate reads the block model's tables off its shapes
    (["classify", "catalog:heisenberg3-invariant"], 1),
    (["solv", "nakamura:real"], 1),
    (["splitting", "nakamura:identically"], 1),
    (["decompose", "catalog:wedge"], 1),
    (["cohomology", "catalog:wedge"], 1),
])
def test_each_table_is_computed_once_per_complex(monkeypatch, capsys, argv, calls):
    counts = count_calls(monkeypatch, complexes, TABLE_FUNCTIONS + CHAIN_ROUTES)
    code, _ = run_cli(capsys, [*argv, "--format", "machine"])
    assert code == 0
    # an analysis (classify, solv, splitting) runs no de_rham_table
    de_rham = calls if argv[0] in ("decompose", "cohomology") else 0
    assert counts == Counter(_bidegree_tables=calls, de_rham_table=de_rham)


@pytest.mark.parametrize("argv", [
    ["classify", "catalog:heisenberg3-invariant"],
    ["solv", "nakamura:real"],
    ["splitting", "nakamura:identically"],
])
def test_a_report_eliminates_tot_once_per_filtration(monkeypatch, capsys, argv):
    # one analysis: its tables once, one V-tracked reduction per filtration,
    # de Rham off the row one, and no lows-only pairing besides
    calls = count_reductions(monkeypatch)
    code, _ = run_cli(capsys, [*argv, "--format", "machine"])
    assert code == 0
    assert calls == {"_bidegree_tables": 1, "_reduce": 2}


@pytest.mark.parametrize("argv, calls", [
    (["classify", "catalog:square"], (1, 1, 0)),
    (["solv", "nakamura:real"], (1, 1, 0)),
    (["decompose", "catalog:wedge"], (0, 1, 0)),
    (["fss", "catalog:square", "--filtration", "both"], (0, 0, 2)),
])
def test_reports_call_the_public_engines(monkeypatch, capsys, argv, calls):
    # calls of (classify, decompose, spectral_pages): the CLI goes through
    # the same entry points as the library, never a private twin of one
    for name, value in vars(cli).items():
        if getattr(value, "__module__", None) in ("bicomplex.spectral", "bicomplex.zigzags"):
            assert not name.startswith("_") and not value.__name__.startswith("_"), name
    spectral_calls = count_calls(monkeypatch, spectral, ("classify", "spectral_pages"))
    zigzag_calls = count_calls(monkeypatch, zigzags, ("decompose",))
    code, _ = run_cli(capsys, [*argv, "--format", "machine"])
    assert code == 0
    assert (spectral_calls["classify"], zigzag_calls["decompose"],
            spectral_calls["spectral_pages"]) == calls


def test_analysis_makes_no_rref_call(monkeypatch):
    # every rank, kernel and pivot set of the builders, their validators
    # and both engines comes from linalg.echelon
    calls = count_calls(monkeypatch, linalg, ("rref",))
    inputs = [catalog_complex(name) for name in catalog_names()]
    inputs += [build_C(random_solvable(seed)) for seed in range(4)]
    for dc, rs in inputs:
        analyse(dc, rs)
    assert not calls


def test_analysis_builds_no_fraction(monkeypatch):
    # elimination runs on the ints inside Scalar; only formatting and
    # sorting read its Fraction views re and im
    inputs = [catalog_complex(name) for name in catalog_names()]
    inputs += [build_C(random_solvable(seed)) for seed in range(4)]
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert ONE.re == 1 and built  # the count sees the views
    built.clear()
    for dc, rs in inputs:
        analyse(dc, rs)
    assert not built


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


@pytest.mark.parametrize("real_only, name", [
    (False, "seed 0"),
    (True, "solvable seed 0"),  # the spot checks alone have a real structure
])
def test_selftest_dumps_on_an_internal_error(capsys, tmp_path, monkeypatch, real_only, name):
    # classify breaks on the first complex, or on the first solvable one
    monkeypatch.chdir(tmp_path)
    classify = spectral.classify

    def failing(dc, rs):
        if real_only and rs is None:
            return classify(dc, rs)
        raise InternalError("page 1 disagrees with Dolbeault dimensions")

    monkeypatch.setattr(spectral, "classify", failing)
    code, out = run_cli(capsys, ["selftest", "--seeds", "2"])
    assert code == 3
    dump = tmp_path / "selftest_counterexample_0.bicomplex"
    assert out.splitlines()[-3:] == [
        f"# {name}: page 1 disagrees with Dolbeault dimensions",
        f"# counterexample: {dump}",
        "selftest false",
    ]
    assert list(tmp_path.iterdir()) == [dump]
    failed = build_C(random_solvable(0))[0] if real_only else \
        shuffle_basis(random_zigzag_sum(0)[0], 10**6)
    assert parse_bicomplex(dump.read_text()) == failed


def _child(argv: list[str]) -> tuple[int, bytes, bytes]:
    """`python -m bicomplex.cli <argv>` in a new process: its exit code,
    standard output and standard error."""
    # the child imports the same package as the tests, wherever it lives
    src = str(Path(bicomplex.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "bicomplex.cli", *argv], capture_output=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_console_script_help():
    code, out, _ = _child(["--help"])
    assert code == 0
    assert b"classify" in out


def test_console_script_prints_the_in_process_report(capsys):
    argv = ["fss", "catalog:heisenberg3-invariant", "--filtration", "both",
            "--format", "machine"]
    code, out = run_cli(capsys, argv)
    assert _child(argv) == (code, out.encode(), b"")


def test_repeated_calls_build_no_parser_and_keep_nothing(monkeypatch, capsys, tmp_path):
    # an argument error, a read error, then reports on one file, one repeated:
    # each call answers as it does first in a new process, parses and
    # validates its input afresh, and builds no parser
    path = tmp_path / "zigzags.bicomplex"
    path.write_text(write_bicomplex(shuffle_basis(random_zigzag_sum(3)[0], 7)))
    fss = ["fss", str(path), "--filtration", "both"]
    calls = [
        ["fss", str(path), "--max-page", "0"],
        ["cohomology", str(tmp_path / "missing.bicomplex")],
        fss,
        ["cohomology", str(path)],
        fss,
    ]
    first = [_child(argv) for argv in calls]
    counts = count_calls(monkeypatch, bicomplex.files, ("parse_bicomplex",))
    original = DoubleComplex.validate
    monkeypatch.setattr(
        DoubleComplex, "validate",
        lambda dc: counts.update(["validate"]) or original(dc),
    )
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__",
        lambda *args, **kwargs: pytest.fail("an argument parser was built"),
    )
    for argv, (code, out, err) in zip(calls, first):
        assert main(argv) == code
        got = capsys.readouterr()
        assert (got.out.encode(), got.err.encode()) == (out, err)
    assert [code for code, _, _ in first] == [1, 1, 0, 0, 0]
    assert counts == {"parse_bicomplex": 3, "validate": 3}


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


@pytest.mark.parametrize("argv,text", [
    (["lie"], "dim 13\n"),
    (["ssmodel", "--betti", "1,0", "--algebra"], "dim 13\n"),
    (["solv"], "dim 7\n"),
    (["splitting"], "abelian 3\nnilp_dim 4\n"),
])
def test_over_budget_lie_types_are_validation_errors(capsys, tmp_path, argv, text):
    # one past the budget, refused while parsing: nothing is built (the
    # sizes stay small enough that a missing check costs time, not memory)
    f = tmp_path / "big.txt"
    f.write_text(text)
    tracemalloc.start()
    try:
        code = main([*argv, str(f), "--format", "machine"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("validation error:") and err.count("\n") == 1
    assert f"cochains > {MAX_TOTAL_DIM}" in err
    assert peak < 2**20


# (exit code, sha256 of stdout) of every `--format machine` report below:
# machine output must stay byte-identical while the engines change
MACHINE_PINS = {
    "classify catalog:dot": (0, "8e9f001685767240627614846c3ef3b4c88e8e593db7b45004e71034dc59f128"),
    "decompose catalog:dot": (0, "6d4c9ec422d75e6a5b7ad445e0020c5710cecd6fe211cc68bf3eefd862dd0f40"),
    "cohomology catalog:dot": (0, "f44b98144b227fbc7b14a82614a56def75340f6024b20e801bde8c54b911f2d5"),
    "fss --filtration both catalog:dot": (0, "34cff8e3390ac05af20e93c14bc795c95bc55cf43acf852b0469efb0c212a1b8"),
    "classify catalog:hline": (0, "771be335319029c965f1b6663c4081fb9e86643a6f70692a6adbc8d37ae4abee"),
    "decompose catalog:hline": (0, "62418557d4ab939cb58bc45fd12b0b90e1511f647f685ad3bd0fabc02caa7930"),
    "cohomology catalog:hline": (0, "d106d4eb8cb0c431e0c33ab8a2306e85511e43aa65b51d60b6b6d7570c567462"),
    "fss --filtration both catalog:hline": (0, "18f1a6e9e684f889323f4383597edbde61ccc060cc89978e5378488dea2d888f"),
    "classify catalog:vline": (0, "458c340acca6b5cae7ae817619d1418884264c2613aed5dabd72d13e30134242"),
    "decompose catalog:vline": (0, "6d0a444a45009ef257250948155d9d306355427eac9cfd9ee7f6fd7ba3c648f0"),
    "cohomology catalog:vline": (0, "6137be432b264ae1ac658ae0c918125edda42bf9c0d2630df6f6e609bb4ea360"),
    "fss --filtration both catalog:vline": (0, "480645ccf92a9347c0ad121b2a79afdbbf71b977d9e16691274f985db9a61fe5"),
    "classify catalog:square": (0, "d3c0335e730bf9c9d28f673b81e8f767a7bbf3bb85248306c5fa12e070b68ce3"),
    "decompose catalog:square": (0, "1e18a8567fa0c2ee58e71e265efc630e300e90cf2304e9580165f574b9ad1588"),
    "cohomology catalog:square": (0, "fd18c756d574536e166f112af06aa3eb3dfa436481de110a93ef900d0ee26c1d"),
    "fss --filtration both catalog:square": (0, "ee84ad4cf335ed208b2036eb42639aecead03f862df7a08d1cabe37454fe800b"),
    "classify catalog:wedge": (0, "3357cf0c85a48bc753ad02efa9629ca69ae9c60a19a02854010c8ad8c96a15ad"),
    "decompose catalog:wedge": (0, "927d7e7ef764dba846dfc9d3750b5940bafcff0b400fc4aa5348d00f8198c0a1"),
    "cohomology catalog:wedge": (0, "531be3d9f4da90294ca84a698d8eefd92da2337252958b4c038ef4fa3c2a661c"),
    "fss --filtration both catalog:wedge": (0, "3e4ed0ddfc56e6439539ffec8a7cde1b64d4ee89c5389764d32142b84aaebfd6"),
    "classify catalog:vee": (0, "c5bc4278930d32384cf9b8e1af937649d9b3db0c29c163d139d432add86b3b1d"),
    "decompose catalog:vee": (0, "69368d1d10893cecf96387c9f4d1bb3baad19e683580d1659768048641d9165f"),
    "cohomology catalog:vee": (0, "d3de9e1c60c7e5364dfe21928705c97e2c6e89f0cf93effe1d464754539faf1c"),
    "fss --filtration both catalog:vee": (0, "544af1d1fb63f03f0f863ec932b11005fd4d33eb857944fd73cf4f5008c62e3d"),
    "classify catalog:abelian:1-invariant": (0, "9384282f4d178b4ccf641f707104b31d784234e8c5235cb9fcc986a3bba31650"),
    "decompose catalog:abelian:1-invariant": (0, "49018efe1aca3de7381fcbe7dccd745fcaccaf3e174976457439efe8e6ecf965"),
    "cohomology catalog:abelian:1-invariant": (0, "09ea4862b5b42342f58bddf61d79846b797fcbefd7bdc5090984e3206756fe34"),
    "fss --filtration both catalog:abelian:1-invariant": (0, "041cce601a0fbd472aca474c171ef6ee21488718f5269f098b6fc0f4518c777a"),
    "classify catalog:abelian:2-invariant": (0, "86d714b4d83ba8cd7dc1994f777f13e110b5cf71713e0b5215ca88e5cb4d5e10"),
    "decompose catalog:abelian:2-invariant": (0, "a9ff2e2e6ff907e1038ec944ab04a4895e77230c7c574d35c00bb18d34125e4a"),
    "cohomology catalog:abelian:2-invariant": (0, "80ce2fb97dc0f7606d689528bca39b751b7ddb3ed90dcaea630b0e25aaf83123"),
    "fss --filtration both catalog:abelian:2-invariant": (0, "279d6b73671b64c5efa75023ac54f6477769d0874df2e019f76176451a3228b6"),
    "classify catalog:abelian:3-invariant": (0, "712b75425cf70614667a4e1fb553675227c831a8c0b0ce2201be25331be34483"),
    "decompose catalog:abelian:3-invariant": (0, "1d70fdd5be9b5623b2c93dc4463c0bc2b1684b1c40f3f3107a09e8ef588762b0"),
    "cohomology catalog:abelian:3-invariant": (0, "33f1b11a7f0bd84a918376e76aaceaa177c3cb5326ea0fe023bb53d4bbdb65fe"),
    "fss --filtration both catalog:abelian:3-invariant": (0, "75ff0251724ba7275219eb1cee417f3e085cbb40399e2b19e9543f61c441642f"),
    "classify catalog:heisenberg3-invariant": (0, "0e8e36ffd8fb2415f87c5513dd1198c3a589f0ea27d54b8d807ec04a3ca0f87e"),
    "decompose catalog:heisenberg3-invariant": (0, "96fcbdb3384909bbd1d9546c5522477c66456de2493b7e8c1b4e0441e7f533d7"),
    "cohomology catalog:heisenberg3-invariant": (0, "6dcaad3590484984f1e9a437b30721b87e6a9042a63fc15f3fc9c01953f3d04e"),
    "fss --filtration both catalog:heisenberg3-invariant": (0, "3adb96eef2eaac218924dce6bcb2763b63f01551bbdc2042081b2c0656134259"),
    "classify catalog:sl2-invariant": (0, "6711158a3b815bafa3fcd09824dc4448b5c81409c7ef0792d9aa977e7be22003"),
    "decompose catalog:sl2-invariant": (0, "303f5e4e8cdca123594ea2ea05c1f24aaa96154ab2c53ba05fff6ac534defc79"),
    "cohomology catalog:sl2-invariant": (0, "b05b014335d2e2a14049e45a6389eaf3e7cbc48474d9780cba64f7d7aaa0051d"),
    "fss --filtration both catalog:sl2-invariant": (0, "2be3ec0b4e4f880fdbb71831e11565219c68683dec51ced13d9799695ea3bea7"),
    "solv nakamura:identically": (0, "9be2d93bb34ceeda9d392cc7c0a9b8ed3a8c1ffafae8a221e9c6984d5bd059cc"),
    "solv nakamura:real": (0, "1da472c9f98f8e13f470e203f52c2bfb23f67cac62783ac0864f873318e3f46c"),
    "splitting nakamura:identically": (0, "9be2d93bb34ceeda9d392cc7c0a9b8ed3a8c1ffafae8a221e9c6984d5bd059cc"),
    "splitting nakamura:real": (0, "1da472c9f98f8e13f470e203f52c2bfb23f67cac62783ac0864f873318e3f46c"),
    # a file: the real Nakamura complex in a shuffled basis, pivot leads off +-1
    "fss --filtration both shuffled:nakamura:real": (0, "50a36918b63cd1b8f6dc2a3f73d62b7fb0dc2e1b9c6c474b0ca132f77cbe18fa"),
    "cohomology shuffled:nakamura:real": (0, "50336539f560efc18e457bfce03c8b0fad71130bd1a34ecf368dd075c13245ef"),
}


def _pinned_runs(shuffled: Path) -> list[list[str]]:
    """The pinned runs; the name shuffled:nakamura:real stands for the file
    shuffled."""
    runs = [[*verb, f"catalog:{name}"] for name in catalog_names()
            for verb in (["classify"], ["decompose"], ["cohomology"],
                         ["fss", "--filtration", "both"])]
    runs += [[verb, f"nakamura:{case}"] for verb in ("solv", "splitting")
             for case in ("identically", "real")]
    shuffled.write_text(write_bicomplex(
        shuffle_basis(build_C(nakamura_preset("real"))[0], 10**6)))
    return runs + [[*verb, str(shuffled)] for verb in (["fss", "--filtration", "both"],
                                                       ["cohomology"])]


def test_machine_reports_are_pinned(capsys, tmp_path):
    shuffled = tmp_path / "shuffled.bicomplex"
    got = {}
    for argv in _pinned_runs(shuffled):
        code, out = run_cli(capsys, [*argv, "--format", "machine"])
        key = " ".join(argv).replace(str(shuffled), "shuffled:nakamura:real")
        got[key] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == MACHINE_PINS

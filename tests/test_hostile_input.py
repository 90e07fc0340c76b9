"""Mutated input files against the exit-code contract.

Tokens of valid bicomplex, Lie algebra, solvable and splitting files are
replaced, deleted or inserted, and lines dropped or repeated.  Whatever
comes out, the CLI must exit 0, or 1 or 2 with exactly one line on
stderr: never 3 (an internal error) and never a traceback.  A mutated
bicomplex file that parses must also survive write_bicomplex and
parse_bicomplex unchanged.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from bicomplex import (
    ParseError,
    ValidationError,
    parse_bicomplex,
    random_zigzag_sum,
    shuffle_basis,
    write_bicomplex,
)
from bicomplex.cli import main

# (verb, valid file): a shuffled square plus a line, sl2, and the two
# Nakamura presets in their file forms
VALID = {
    "classify": write_bicomplex(shuffle_basis(random_zigzag_sum(13)[0], 1)),
    "lie": "dim 3\nbracket 1 2 2 2\nbracket 1 3 3 -2\nbracket 2 3 1 1\n",
    "solv": (
        "dim 3\nbracket 1 2 2 1\nbracket 1 3 3 -1\n"
        "weight 2 1 1\nweight 3 1 -1\ngamma_trivial identically\n"
    ),
    "splitting": (
        "abelian 1\nnilp_dim 2\nphi 1 1 0\nphi 2 -1 0\ngamma_trivial identically\n"
    ),
}

# small counts and indices, signs, fractions, Gaussian scalars, malformed
# and huge numbers, and every record keyword of the four formats
TOKENS = st.sampled_from([
    "0", "1", "2", "3", "-1", "-2", "1/2", "-3/4", "i", "-i", "2+i", "1-2i",
    "1/0", "0/0", "x", "1.5", "1e3", "nan", "99999999999999999999",
    "-99999999999999999999", "4097", "{", "}", ";", "all", "identically",
    "space", "del", "delbar", "dim", "bracket", "weight", "gamma_trivial",
    "abelian", "nilp_dim", "nilp_bracket", "phi", "#",
])

MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "delete", "insert", "drop_line", "repeat_line"]),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
        TOKENS,
    ),
    min_size=1,
    max_size=3,
)


def _mutate(text: str, mutations) -> str:
    lines = [line.split() for line in text.splitlines()]
    for op, i, j, token in mutations:
        if not lines:
            lines = [[token]]
            continue
        line = lines[i % len(lines)]
        if op == "replace" and line:
            line[j % len(line)] = token
        elif op == "delete" and line:
            del line[j % len(line)]
        elif op == "insert":
            line.insert(j % (len(line) + 1), token)
        elif op == "drop_line":
            del lines[i % len(lines)]
        elif op == "repeat_line":
            lines.insert(i % len(lines), list(line))
    return "".join(" ".join(line) + "\n" for line in lines)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("verb", sorted(VALID))
def test_valid_files_pass(workdir, verb):
    path = workdir / f"valid.{verb}"
    path.write_text(VALID[verb])
    assert _run([verb, str(path), "--format", "machine"])[0] == 0


@pytest.mark.parametrize("verb", sorted(VALID))
@settings(max_examples=60, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_files_keep_the_exit_contract(workdir, verb, mutations):
    text = _mutate(VALID[verb], mutations)
    path = workdir / f"mutated.{verb}"
    path.write_text(text)
    code, out, err = _run([verb, str(path), "--format", "machine"])
    assert code in (0, 1, 2), err
    if code == 0:
        assert err == ""
    else:
        assert out == "" and err.count("\n") == 1
        assert err.startswith(("parse error: ", "validation error: ")), err
    if verb == "classify":
        try:
            dc = parse_bicomplex(text)
        except (ParseError, ValidationError):
            return
        written = write_bicomplex(dc)
        assert parse_bicomplex(written) == dc
        assert write_bicomplex(parse_bicomplex(written)) == written


@pytest.mark.parametrize(
    "verb,text",
    [
        ("solv", VALID["solv"] + "weight 2 1 5\n"),
        ("splitting", VALID["splitting"].replace("abelian 1\n", "abelian 1\nabelian 2\n")),
    ],
)
def test_repeated_records_exit_1(workdir, verb, text):
    path = workdir / f"repeated.{verb}"
    path.write_text(text)
    code, out, err = _run([verb, str(path), "--format", "machine"])
    assert (code, out, err.count("\n")) == (1, "", 1), err
    assert err.startswith("parse error: ") and "duplicate" in err


@pytest.mark.parametrize(
    "verb,text",
    [
        ("classify", "space 0 0 1_0\n"),
        ("classify", "space +1 0 \uff12\n"),  # a fullwidth 2
        ("classify", "space 0 0 1\nspace 1 0 1\ndel 0 0 0 0 \u0663\n"),  # an Arabic-Indic 3
        ("lie", "dim \uff13\n"),
        ("solv", VALID["solv"].replace("weight 2 1 1", "weight 2 0_1 1")),
        ("splitting", VALID["splitting"].replace("phi 2 -1 0", "phi +2 -1 0")),
    ],
)
def test_integer_fields_take_ascii_digits_only(workdir, verb, text):
    path = workdir / f"digits.{verb}"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run([verb, str(path), "--format", "machine"])
    assert (code, out, err.count("\n")) == (1, "", 1), err
    assert err.startswith("parse error: line ")

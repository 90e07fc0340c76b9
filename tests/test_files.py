import random

import pytest

from bicomplex import (
    ParseError,
    ValidationError,
    all_tables,
    build_C,
    build_splitting,
    catalog_complex,
    catalog_names,
    heisenberg3,
    nakamura_preset,
    nakamura_splitting_preset,
    parse_bicomplex,
    parse_lie,
    parse_solv,
    parse_splitting,
    parse_subalgebra,
    random_solvable,
    random_zigzag_sum,
    sc,
    shuffle_basis,
    write_bicomplex,
)
from bicomplex.files import MAX_TOTAL_DIM

from files_oracle import oracle_parse_bicomplex

NAK_SOLV_TEXT = """
# Nakamura-type solvable data
dim 3
bracket 1 2 2 1
bracket 1 3 3 -1
weight 2 1 1
weight 3 1 -1
gamma_trivial identically
"""


def test_bicomplex_round_trip_catalog():
    for name in catalog_names():
        dc, _ = catalog_complex(name)
        text = write_bicomplex(dc)
        again = parse_bicomplex(text)
        assert write_bicomplex(again) == text  # canonical writer, byte for byte
        assert all_tables(again) == all_tables(dc)


def test_bicomplex_parse_tolerates_comments_and_blanks():
    dc = parse_bicomplex("""
# a dot with decoration

space 0 0 1   # trailing comment
""")
    assert dc.spaces == {(0, 0): 1}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("space 0 0 1\nspace 0 0 2\n", "duplicate space"),
        ("space 0 0 0\n", "dimension must be positive"),
        ("space 0 0 1\ndel 0 0 0 0 1\n", "undeclared space"),
        ("space 0 0 1\nspace 1 0 1\ndel 0 0 0 1 1\n", "out of range"),
        ("space 0 0 1\nspace 1 0 1\ndel 0 0 0 0 1\ndel 0 0 0 0 2\n", "duplicate del"),
        ("space 0 0 1\nspace 0 1 1\ndelbar 0 0 0 0 1\ndelbar 0 0 0 0 1\n", "duplicate delbar"),
        ("spae 0 0 1\n", "unknown record"),
        ("space 0 0 x\n", "expected integer"),
        ("space 0 0 1_0\n", "expected integer"),
        ("space 0 0 \uff12\n", "expected integer"),  # a fullwidth 2
        ("space +1 0 1\n", "expected integer"),
        ("space \u0663 0 1\n", "expected integer"),  # an Arabic-Indic 3
        ("space 0 0 1\nspace 1 0 1\ndel 0 0 0 0 \u0663\n", "malformed scalar"),
        ("space 0 0 1\nspace 1 0 1\ndel 0 0 0 0 1/0\n", "malformed scalar"),
        ("space 0 0 1\nspace 1 0 1\ndel 0 0 0 0 2+\n", "malformed scalar"),
        ("space 0 0\n", "takes 3 fields"),
    ],
)
def test_bicomplex_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_bicomplex(text)
    assert fragment in str(exc.value)


def test_records_end_at_newline_only():
    # a comment runs to the "\n", past any other line-break character
    with pytest.raises(ParseError) as exc:
        parse_bicomplex("space 0 0 1 # note\x85more\nbogus 1\n")
    assert str(exc.value) == "line 2: unknown record 'bogus'"
    # a form feed is whitespace inside a record, not a line break
    with pytest.raises(ParseError) as exc:
        parse_bicomplex("space 0 0 1\x0cspace 0 1 1\nbogus 1\n")
    assert str(exc.value) == "line 1: space takes 3 fields, got 7"
    for brk in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"):
        with pytest.raises(ParseError) as exc:
            parse_bicomplex(f"space 0 0 1 # a{brk}b\nspace 0 1 1\nbogus 1\n")
        assert str(exc.value) == "line 3: unknown record 'bogus'"  # as grep -n counts


def test_crlf_file_reads_as_lf():
    text = write_bicomplex(build_C(nakamura_preset("real"))[0])
    assert parse_bicomplex(text.replace("\n", "\r\n")) == parse_bicomplex(text)
    with pytest.raises(ParseError) as exc:
        parse_bicomplex("space 0 0 1\r\nspace 0 0 2\r\n")
    assert str(exc.value) == "line 2: duplicate space 0 0"


# a file with one record of each keyed kind, that record last, and its
# number of key fields
KEYED = [
    (parse_bicomplex, "space 0 0 1\nspace 1 0 1\ndel 0 0 0 0 1\n", 4),
    (parse_bicomplex, "space 0 0 1\nspace 0 1 1\ndelbar 0 0 0 0 1\n", 4),
    (parse_lie, "dim 3\nbracket 1 2 3 1\n", 3),
    (parse_splitting, "abelian 1\nnilp_dim 2\nnilp_bracket 1 2 1 1\n", 3),
    (parse_solv, "dim 2\nweight 1 1 1\n", 2),
    (parse_splitting, "abelian 1\nnilp_dim 2\nphi 1 1 0\n", 1),
]


@pytest.mark.parametrize("parse,text,nkey", KEYED, ids=lambda v: getattr(v, "__name__", None))
@pytest.mark.parametrize("tok", ["+1", "1_0", "\uff11", "\u0661"])  # fullwidth, Arabic-Indic 1
def test_key_fields_take_ascii_digits_only(parse, text, nkey, tok):
    *head, last = text.splitlines()
    lineno = len(head) + 1
    for k in range(1, nkey + 1):
        fields = last.split()
        fields[k] = tok
        with pytest.raises(ParseError) as exc:
            parse("\n".join([*head, " ".join(fields)]) + "\n")
        assert str(exc.value) == f"line {lineno}: expected integer, got {tok!r}"


@pytest.mark.parametrize("zero", ["0", "-0", "0/3", "0i", "-0i", "0+0i"])
def test_zero_entries_are_not_stored(zero):
    # a zero literal adds nothing: not to a stored map, and a map given only
    # zeros is not stored at all
    base = ("space 0 0 2\nspace 1 0 2\nspace 0 1 1\nspace 1 1 1\n"
            "del 0 0 0 0 1\ndelbar 0 0 0 1 i\n")
    dc = parse_bicomplex(base)
    for line in ("del 0 0 1 1", "delbar 0 0 0 0", "del 0 1 0 0", "delbar 1 0 0 1"):
        again = parse_bicomplex(f"{base}{line} {zero}\n")
        assert again == dc
        assert again.del_maps.keys() == {(0, 0)} and again.delbar_maps.keys() == {(0, 0)}
        assert all(v for m in (*again.del_maps.values(), *again.delbar_maps.values())
                   for v in m.entries.values())


def test_bicomplex_total_dimension_budget():
    # zero maps between the two spaces have no entries: nothing large is built
    half = MAX_TOTAL_DIM // 2
    dc = parse_bicomplex(f"space 0 0 {half}\nspace 0 1 {half}\n")
    assert dc.total_dim() == MAX_TOTAL_DIM
    with pytest.raises(ValidationError, match=f"line 2: total dimension {2 * half + 1} > "):
        parse_bicomplex(f"space 0 0 {half}\nspace 0 1 {half + 1}\n")
    with pytest.raises(ValidationError, match="line 1"):
        parse_bicomplex("space 0 0 99999999999999999999999\n")


def test_bicomplex_bounding_box_budget():
    # the reports and the engines walk every bidegree of the support's
    # bounding box, so a far-off space costs as much as a full box
    corners = "space 0 0 1\nspace 63 63 1\n"  # 64 x 64 = MAX_TOTAL_DIM
    assert parse_bicomplex(corners).total_dim() == 2
    for far in ("64 0", "-1 0", "0 64", "0 -99999999999999999999"):
        with pytest.raises(ValidationError, match=f"bidegrees span a box of .* > {MAX_TOTAL_DIM}"):
            parse_bicomplex(f"{corners}space {far} 1\n")


HUGE = "9" * 23


def test_lie_type_budget():
    # Lambda g* has 2^n dims and the solvable and splitting bicomplexes 4^n:
    # n = 12 and n = 6 fill MAX_TOTAL_DIM = 4096 exactly
    assert 2**12 == 4**6 == MAX_TOTAL_DIM
    assert parse_lie("dim 12\n").dim == 12
    assert parse_solv("dim 6\n").algebra.dim == 6
    assert parse_splitting("abelian 2\nnilp_dim 4\n").nilp.dim == 4
    for n in ("13", HUGE):
        with pytest.raises(ValidationError, match=f"dim {n}: 2\\^{n} cochains > {MAX_TOTAL_DIM}"):
            parse_lie(f"dim {n}\n")
    for n in ("7", HUGE):
        with pytest.raises(ValidationError, match=f"dim {n}: 4\\^{n} cochains > {MAX_TOTAL_DIM}"):
            parse_solv(f"dim {n}\nweight 1 1 1\n")
    for text in ("abelian 3\nnilp_dim 4\n", f"abelian 1\nnilp_dim {HUGE}\n"):
        with pytest.raises(ValidationError, match="4\\^"):
            parse_splitting(text + "phi 1 1 0\n")  # refused before phi's arity


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse_bicomplex("space 0 0 1\nspace 0 1 1\nspace 0 0 9\n")
    assert str(exc.value).startswith("line 3:")


# a header or a keyed record given twice, the repeat on the last line
DUPLICATES = [
    (parse_bicomplex, "space 0 0 1\nspace 0 0 2\n"),
    (parse_bicomplex, "space 0 0 1\nspace 1 0 1\ndel 0 0 0 0 1\ndel 0 0 0 0 2\n"),
    (parse_bicomplex, "space 0 0 1\nspace 0 1 1\ndelbar 0 0 0 0 1\ndelbar 0 0 0 0 1\n"),
    (parse_lie, "dim 3\ndim 3\n"),
    (parse_lie, "dim 3\nbracket 1 2 3 1\nbracket 1 2 3 2\n"),
    (parse_solv, "dim 2\ndim 3\n"),
    (parse_solv, "dim 2\nbracket 1 2 2 1\nbracket 1 2 2 1\n"),
    (parse_solv, NAK_SOLV_TEXT + "weight 2 1 5\n"),
    (parse_splitting, "nilp_dim 2\nabelian 1\nabelian 2\n"),
    (parse_splitting, "abelian 1\nnilp_dim 2\nnilp_dim 1\n"),
    (parse_splitting, "abelian 1\nnilp_dim 2\nnilp_bracket 1 2 1 1\nnilp_bracket 1 2 1 3\n"),
    (parse_splitting, "abelian 1\nnilp_dim 2\nphi 1 1 0\nphi 1 0 1\n"),
]


@pytest.mark.parametrize("parse,text", DUPLICATES)
def test_repeated_header_or_key_is_a_parse_error(parse, text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value).startswith(f"line {text.count(chr(10))}:")
    assert "duplicate" in str(exc.value)


def test_parse_lie_matches_builtin():
    g = parse_lie("dim 3\nbracket 1 2 3 1\n")
    assert g == heisenberg3()
    # zero coefficients are dropped, dim can come later
    g2 = parse_lie("bracket 1 2 3 0\ndim 3\n")
    assert g2.brackets == {}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bracket 1 2 3 1\n", "missing dim"),
        ("dim 3\ndim 3\n", "duplicate dim"),
        ("dim -1\n", "negative dimension"),
        ("dim 1_0\n", "expected integer"),
        ("dim 2\nbracket 2 1 1 1\n", "out of range"),
        ("dim 3\nbracket 1 2 3 1\nbracket 1 2 3 1\n", "duplicate bracket"),
        ("dim 3\nweight 1 1 1\n", "unknown record"),
    ],
)
def test_parse_lie_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_lie(text)
    assert fragment in str(exc.value)


def test_parse_subalgebra():
    incl = parse_subalgebra("gen 1 0 i\ngen 0 1 0\n", 3)
    assert incl.nrows == 3 and incl.ncols == 2
    assert incl.get(2, 0) == sc(0, 1)
    with pytest.raises(ParseError):
        parse_subalgebra("gen 1 0\n", 3)


def test_parse_solv_matches_preset():
    sd = parse_solv(NAK_SOLV_TEXT)
    ref = nakamura_preset("identically")
    assert sd.algebra == ref.algebra
    assert sd.weights == ref.weights
    assert sd.flags == ref.flags == frozenset()


def test_parse_solv_flag_forms():
    base = "dim 2\nweight 2 1 1\nbracket 1 2 2 1\n"
    assert parse_solv(base + "gamma_trivial all\n").flags == "all"
    sd = parse_solv(base + "gamma_trivial { 2 }\ngamma_trivial { 1 2 }\n")
    assert sd.flags == frozenset({frozenset({2}), frozenset({1, 2})})
    with pytest.raises(ParseError):
        parse_solv(base + "gamma_trivial { 5 }\n")
    with pytest.raises(ParseError):
        parse_solv(base + "gamma_trivial { 1\n")
    with pytest.raises(ParseError):
        parse_solv(base + "weight 3 1 1\n")


SOLV_BASE = "dim 2\nbracket 1 2 2 1\nweight 2 1 1\n"
SPLIT_BASE = "abelian 1\nnilp_dim 2\n"


@pytest.mark.parametrize(
    "base,line,flags",
    [
        (SOLV_BASE, "all", "all"),
        (SOLV_BASE, "identically", frozenset()),
        (SOLV_BASE, "{ }", frozenset({frozenset()})),
        (SOLV_BASE, "{ 1 2 }", frozenset({frozenset({1, 2})})),
        (SPLIT_BASE, "{ 1 } ; { }", frozenset({(frozenset({1}), frozenset())})),
    ],
)
def test_gamma_trivial_accepted_forms(base, line, flags):
    parse = parse_solv if base is SOLV_BASE else parse_splitting
    assert parse(f"{base}gamma_trivial {line}\n").flags == flags


@pytest.mark.parametrize(
    "base,line",
    [
        (SOLV_BASE, "{ 1"),
        (SOLV_BASE, "all extra"),
        (SOLV_BASE, "{1}"),
        (SOLV_BASE, ""),
        (SOLV_BASE, "{ 3 }"),
        (SOLV_BASE, "{ \uff11 }"),
        (SOLV_BASE, "{ 1 } ; { 2 }"),
        (SPLIT_BASE, "{ 1 }"),
        (SPLIT_BASE, "{ 1 } ;"),
        (SPLIT_BASE, "{ 1 } ; { 2 } ; { }"),
        (SPLIT_BASE, "{ 1 } { 2 }"),
        (SPLIT_BASE, "; { 1 }"),
        (SPLIT_BASE, "{ 1 } ; { 3 }"),
    ],
)
def test_gamma_trivial_rejected_forms(base, line):
    parse = parse_solv if base is SOLV_BASE else parse_splitting
    with pytest.raises(ParseError):
        parse(f"{base}gamma_trivial {line}\n")


NAK_SPLIT_TEXT = """
abelian 1
nilp_dim 2
phi 1 1 0
phi 2 -1 0
gamma_trivial identically
"""


def test_parse_splitting_matches_preset():
    sp = parse_splitting(NAK_SPLIT_TEXT)
    ref = nakamura_splitting_preset("identically")
    assert sp.n_abelian == ref.n_abelian
    assert sp.nilp == ref.nilp
    assert sp.phi == ref.phi
    assert sp.flags == ref.flags


def test_parse_splitting_errors():
    with pytest.raises(ParseError):
        parse_splitting("abelian 1\n")  # no nilp_dim
    with pytest.raises(ParseError):
        parse_splitting("abelian 1\nnilp_dim 1\nphi 1 1\n")  # phi arity
    with pytest.raises(ParseError):
        parse_splitting("abelian 1\nnilp_dim 1\nphi 2 1 0\n")
    with pytest.raises(ParseError):
        parse_splitting("abelian 1\nnilp_dim 2\ngamma_trivial { 1 } { 2 }\n")
    sp = parse_splitting("abelian 1\nnilp_dim 2\ngamma_trivial { 1 } ; { 2 }\n")
    assert sp.flags == frozenset({(frozenset({1}), frozenset({2}))})


# written complexes the one-pass reader is checked on against the oracle:
# the Nakamura complexes, the 448-dim random solvable one (also in a
# random basis, for many distinct scalar literals) and shuffled zigzag
# sums; each with the number of mutated files made from it
ORACLE_BASES = {
    **{f"solv-{case}": (lambda case=case: build_C(nakamura_preset(case))[0], 200)
       for case in ("identically", "real")},
    **{f"splitting-{case}": (
        lambda case=case: build_splitting(nakamura_splitting_preset(case))[0], 200)
       for case in ("identically", "real")},
    "random_solvable-0": (lambda: build_C(random_solvable(0))[0], 100),
    "random_solvable-0-shuffled": (
        lambda: shuffle_basis(build_C(random_solvable(0))[0], 10**6), 30),
    **{f"zigzag-{s}": (lambda s=s: shuffle_basis(random_zigzag_sum(s)[0], s), 200)
       for s in range(10, 14)},
}


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ORACLE_BASES)
def test_one_pass_reader_matches_oracle(name):
    # one to three mutations per file, so several faults meet in one file
    # and the error precedence is pinned, not only each error's text
    build, count = ORACLE_BASES[name]
    dc = build()
    text = write_bicomplex(dc)
    top = max(dc.spaces.values())  # an index out of range of every space
    far = 1 + max(abs(x) for pq in dc.spaces for x in pq)  # a p or q no space has
    tokens = ["1_0", "+1", "-", "x", "1/0", "0", str(top), str(far), str(-far)]
    rng = random.Random(name)
    errors = 0
    for _ in range(count):
        lines, ops = text.splitlines(), []
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            op = rng.choice(["drop", "duplicate", "swap", "replace"])
            if op == "drop" and len(lines) > 1:
                del lines[i]
            elif op == "duplicate":
                lines.insert(j, lines[i])
            elif op == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            elif op == "replace":
                fields = lines[i].split()
                k, tok = rng.randrange(len(fields)), rng.choice(tokens)
                fields[k] = tok
                lines[i] = " ".join(fields)
                op += f" field {k} by {tok}"
            ops.append(f"{op} at line {i + 1} ({j + 1})")
        mutated = "".join(line + "\n" for line in lines)
        got = _outcome(parse_bicomplex, mutated)
        assert got == _outcome(oracle_parse_bicomplex, mutated), ops
        errors += isinstance(got, tuple)
    assert 0 < errors < count  # some files parse, some do not

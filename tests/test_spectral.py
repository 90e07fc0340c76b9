import dataclasses
from collections import Counter

import pytest

from bicomplex import (
    ONE,
    DoubleComplex,
    InternalError,
    ValidationError,
    all_tables,
    analyse,
    build_C,
    build_splitting,
    catalog_complex,
    catalog_names,
    classify,
    decompose,
    degeneration_page,
    hodge_pieces,
    invariant_bicomplex,
    lie_by_name,
    nakamura_preset,
    nakamura_splitting_preset,
    page1_by_shape,
    random_solvable,
    random_zigzag_sum,
    shuffle_basis,
    spectral_pages,
)
from bicomplex import complexes, spectral
from bicomplex.linalg import Echelon
from conftest import ONE_1x1, count_calls, count_reductions, record_pairings, staircase
from spectral_oracle import oracle_pages, oracle_pieces


def test_first_page_is_dolbeault_everywhere():
    for name in ("dot", "hline", "square", "wedge", "vee", "heisenberg3-invariant"):
        dc, _ = catalog_complex(name)
        pages = spectral_pages(dc, "col")
        assert pages[0].r == 1
        assert pages[0].dims == all_tables(dc)["dolbeault"]


def test_last_page_sums_to_de_rham():
    for name in ("wedge", "vee", "s4", "heisenberg3-invariant"):
        dc = staircase(4) if name == "s4" else catalog_complex(name)[0]
        dr = all_tables(dc)["de_rham"]
        for which in ("col", "row"):
            last = spectral_pages(dc, which)[-1]
            sums = {}
            for (p, q), d in last.dims.items():
                sums[p + q] = sums.get(p + q, 0) + d
            assert sums == dr


def test_hline_pages():
    dc, _ = catalog_complex("hline")
    col = spectral_pages(dc, "col")
    assert col[0].dims == {(0, 0): 1, (1, 0): 1}
    assert col[0].dr_ranks == {(0, 0): 1}
    assert col[1].dims == {}
    assert degeneration_page(col) == 2
    # the del-cohomology vanishes, so the row side is already empty
    row = spectral_pages(dc, "row")
    assert row[0].dims == {}
    assert degeneration_page(row) == 1


def test_wedge_pages_stable_but_impure():
    dc, _ = catalog_complex("wedge")
    col = spectral_pages(dc, "col")
    assert all(pg.dims == {(1, 0): 1} for pg in col)
    assert degeneration_page(col) == 1
    hp = hodge_pieces(dc)
    assert hp.pure == {0: True, 1: False}
    # both unit-square pieces are 1-dimensional yet H^1 is only 1-dimensional
    assert hp.dims == {(0, 1): 1, (1, 0): 1}


def test_public_engines_refuse_an_invalid_complex():
    # the unit square with del = delbar = 1 on all four edges: del delbar
    # + delbar del is 2 on the corner, so no engine may answer for it
    bad = DoubleComplex.build(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
        {(0, 0): ONE_1x1, (0, 1): ONE_1x1},
        {(0, 0): ONE_1x1, (1, 0): ONE_1x1},
    )
    assert bad.validate()
    for engine in (analyse, classify, decompose, spectral_pages, hodge_pieces):
        with pytest.raises(ValidationError, match="del delbar"):
            engine(bad)


def test_row_pages_live_in_the_transposed_lattice():
    dc, _ = catalog_complex("hline")
    tdc, _ = catalog_complex("vline")
    row = spectral_pages(dc, "row")
    col_of_transpose = spectral_pages(tdc, "col")
    assert [pg.dims for pg in row] == [pg.dims for pg in col_of_transpose][: len(row)]


def test_staircase_degeneration_grows_with_length():
    # a longer staircase needs one more page before the ranks die out
    s4, s6 = staircase(4), staircase(6)
    assert degeneration_page(spectral_pages(s4, "col")) == 3
    assert degeneration_page(spectral_pages(s6, "col")) == 4
    assert degeneration_page(spectral_pages(s4, "row")) == 1
    assert degeneration_page(spectral_pages(s6, "row")) == 1
    col = spectral_pages(s4, "col")
    assert col[0].dims == {(0, 1): 1, (2, 0): 1}
    assert col[1].dr_ranks == {(0, 1): 1}  # the d_2 arrow


def test_classify_micro_verdicts():
    expected = {
        # name: (degF, degFbar, ddbar, page1)
        "dot": (1, 1, True, True),
        "hline": (2, 1, False, True),
        "vline": (1, 2, False, True),
        "square": (1, 1, True, True),
        "wedge": (1, 1, False, False),
        "vee": (1, 1, False, False),
    }
    for name, (df, dfb, ddbar, p1) in expected.items():
        dc, _ = catalog_complex(name)
        v, _, _ = classify(dc)
        assert (v.degeneration_page_F, v.degeneration_page_Fbar) == (df, dfb), name
        assert v.ddbar_lemma is ddbar, name
        assert v.page1_by_definition is p1, name
        assert v.page1_by_dims is p1, name
        assert v.page1_by_shape is None  # filled by the decomposition layer
        assert v.e1_degenerate is (df == 1 and dfb == 1)


def test_classify_wedge_fails_dimension_identity_at_zero():
    dc, _ = catalog_complex("wedge")
    t = all_tables(dc)
    lhs = sum(d for (p, q), d in t["aeppli"].items() if p + q == 0)
    lhs += sum(d for (p, q), d in t["bott_chern"].items() if p + q == 0)
    rhs = sum(d for (p, q), d in t["dolbeault"].items() if p + q == 0)
    rhs += sum(d for (p, q), d in t["del"].items() if p + q == 0)
    assert (lhs, rhs) == (1, 0)


def test_heisenberg_invariant_degenerates_at_exactly_two():
    dc, rs = catalog_complex("heisenberg3-invariant")
    v, col, row = classify(dc, rs)
    assert (v.degeneration_page_F, v.degeneration_page_Fbar) == (2, 2)
    assert v.page1_by_definition and v.page1_by_dims
    assert not v.ddbar_lemma
    assert all(v.pure.values())
    e1 = sum(d for (p, q), d in col[0].dims.items() if p + q == 1)
    e2 = sum(d for (p, q), d in col[1].dims.items() if p + q == 1)
    assert (e1, e2) == (5, 4)
    assert all_tables(dc)["de_rham"][1] == 4


def test_abelian_invariant_degenerates_at_one():
    for n in (1, 2, 3):
        dc, rs = catalog_complex(f"abelian:{n}-invariant")
        v, _, _ = classify(dc, rs)
        assert v.e1_degenerate and v.ddbar_lemma


def test_mirror_row_pages_match_honest_recomputation():
    for make in (
        lambda: catalog_complex("heisenberg3-invariant"),
        lambda: invariant_bicomplex(lie_by_name("sl2")),
        lambda: build_C(nakamura_preset("identically")),
    ):
        # a real structure makes the row pages a mirror of the column pages
        dc, rs = make()
        _, col, row = classify(dc, rs)
        honest = spectral_pages(dc, "row")
        assert [(pg.dims, pg.dr_ranks) for pg in row] == [
            (pg.dims, pg.dr_ranks) for pg in honest
        ]
        assert [(pg.dims, pg.dr_ranks) for pg in row] == [
            (pg.dims, pg.dr_ranks) for pg in col
        ]
        assert degeneration_page(row) == degeneration_page(honest)


def test_spectral_pages_rejects_unknown_filtration():
    dc, _ = catalog_complex("dot")
    with pytest.raises((ValueError, InternalError)):
        spectral_pages(dc, "diag")


ORACLE_CASES = {
    **{
        name: lambda name=name: catalog_complex(name)[0]
        for name in ("dot", "hline", "vline", "square", "wedge", "vee",
                     "heisenberg3-invariant", "sl2-invariant")
    },
    # staircases 4, 6 and 8 carry a nonzero d_2, d_3 and d_4
    **{f"staircase{n}": lambda n=n: staircase(n) for n in (4, 5, 6, 7, 8)},
    **{
        f"zigzags{seed}": lambda seed=seed: shuffle_basis(
            random_zigzag_sum(seed)[0], seed + 10**6
        )
        for seed in (0, 1, 2, 3, 4, 5, 6, 7)  # 4..7 are impure
    },
    **{
        f"nakamura-{flavor}": lambda flavor=flavor: build_C(nakamura_preset(flavor))[0]
        for flavor in ("identically", "real")
    },
    **{
        f"splitting-{flavor}": lambda flavor=flavor: build_splitting(
            nakamura_splitting_preset(flavor)
        )[0]
        for flavor in ("identically", "real")
    },
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
@pytest.mark.parametrize("filtration", ["col", "row"])
def test_pages_match_definitional_oracle(case, filtration):
    dc = ORACLE_CASES[case]()
    pages = spectral_pages(dc, filtration)
    assert all(pg.filtration == filtration for pg in pages)
    got = [(pg.r, pg.dims, pg.dr_ranks) for pg in pages]
    assert got == oracle_pages(dc, filtration)


def test_postconditions_catch_a_wrong_pairing(monkeypatch):
    # dropping every unpaired cell leaves E_1 short of the Dolbeault table
    dc = staircase(5)
    pair = spectral._pair
    monkeypatch.setattr(
        spectral,
        "_pair",
        lambda dc, filtration: dataclasses.replace(pair(dc, filtration), unpaired=[]),
    )
    with pytest.raises(InternalError, match="Dolbeault"):
        spectral_pages(dc, "col")


def test_postconditions_catch_a_wrong_reduction(monkeypatch):
    # the same corruption through classify's V-tracked reduction
    dc = staircase(5)
    reduce = spectral._reduce
    monkeypatch.setattr(
        spectral,
        "_reduce",
        lambda dc, filtration: dataclasses.replace(reduce(dc, filtration),
                                                   unpaired=[], cocycles={}),
    )
    with pytest.raises(InternalError, match="Dolbeault"):
        classify(dc)


def _agreement_cases():
    yield from (catalog_complex(name)[0] for name in catalog_names())
    yield from (staircase(n) for n in range(4, 9))
    yield from (shuffle_basis(random_zigzag_sum(s)[0], s + 10**6) for s in range(50))
    yield build_C(random_solvable(0))[0]


def test_pages_from_lows_equal_classify_pages():
    # spectral_pages pairs from the lows alone, classify from the V-tracked
    # reduction: the page lists must be the same in both filtrations
    for dc in _agreement_cases():
        _, col, row = classify(dc)
        assert spectral_pages(dc, "col") == col
        assert spectral_pages(dc, "row") == row


def _corrupt_row_cocycle(monkeypatch, corrupt):
    """Let corrupt(reduction, unpaired cell) edit one w_i of every row
    reduction, in a degree that also has a paired column."""
    reduce = spectral._reduce

    def patched(dc, filtration):
        red = reduce(dc, filtration)
        if filtration == "row":
            degree = {sum(red.cells[j]) for _, j in red.pairs}
            i = min(i for i in red.cocycles if sum(red.cells[i]) in degree)
            corrupt(red, i)
        return red

    monkeypatch.setattr(spectral, "_reduce", patched)


def test_pieces_reject_a_cocycle_that_is_not_closed(monkeypatch):
    # a paired column's cell has d != 0, so its unit vector is no cocycle
    def corrupt(red, i):
        red.cocycles[i] = {
            next(j for _, j in red.pairs if sum(red.cells[j]) == sum(red.cells[i])): ONE
        }

    _corrupt_row_cocycle(monkeypatch, corrupt)
    dc, _ = catalog_complex("heisenberg3-invariant")
    with pytest.raises(InternalError, match="Hodge pieces: cocycle meets cell"):
        classify(dc)


def test_pieces_reject_conjugate_cocycles_short_of_h(monkeypatch):
    def corrupt(red, i):
        red.cocycles[i] = {}

    _corrupt_row_cocycle(monkeypatch, corrupt)
    dc, _ = catalog_complex("heisenberg3-invariant")
    with pytest.raises(InternalError, match="Hodge pieces: .* expected h\\^"):
        hodge_pieces(dc)


def test_real_structure_requires_row_pages_equal_to_column_pages(monkeypatch):
    checked = spectral._checked_pages

    def doctored(red, de_rham, e1=None):
        pages = checked(red, de_rham, e1)
        if red.filtration == "row":
            pages[-1].dr_ranks[(0, 0)] = 1
        return pages

    monkeypatch.setattr(spectral, "_checked_pages", doctored)
    dc, rs = catalog_complex("heisenberg3-invariant")
    with pytest.raises(InternalError, match="real structure"):
        classify(dc, rs)


CLEARING_CASES = {
    "solv-real": lambda: shuffle_basis(build_C(nakamura_preset("real"))[0], 11),
    "splitting-real": lambda: shuffle_basis(
        build_splitting(nakamura_splitting_preset("real"))[0], 12
    ),
    **{
        f"zigzag-sum-{seed}": lambda seed=seed: shuffle_basis(
            random_zigzag_sum(seed)[0], seed + 10**6
        )
        for seed in range(0, 60, 5)
    },
}


@pytest.mark.parametrize("case", list(CLEARING_CASES))
def test_reductions_clear_every_low_and_match_the_oracle(monkeypatch, case):
    # a column whose cell is a low of the degree below is never reduced:
    # both reductions take N - #pairs columns, and nothing else changes
    dc = CLEARING_CASES[case]()
    adds, taken = [], []
    add, lows = Echelon.add, complexes.lows
    monkeypatch.setattr(Echelon, "add", lambda self, col, ops: adds.append(1) or add(self, col, ops))

    def counted_lows(cols):
        cols = list(cols)
        taken.append(len(cols))
        return lows(cols)

    monkeypatch.setattr(complexes, "lows", counted_lows)
    for filtration in ("col", "row"):
        adds.clear()
        red = spectral._reduce(dc, filtration)
        assert len(adds) == len(red.cells) - len(red.pairs)
        taken.clear()
        pairing = spectral._pair(dc, filtration)
        assert sum(taken) == len(red.cells) - len(red.pairs)
        assert sorted(pairing.pairs) == sorted(red.pairs)
        assert pairing.unpaired == list(red.cocycles)
        pages = spectral_pages(dc, filtration)
        assert [(pg.r, pg.dims, pg.dr_ranks) for pg in pages] == oracle_pages(dc, filtration)
    hp = hodge_pieces(dc)
    assert (hp.dims, hp.filtration_dims, hp.pure) == oracle_pieces(dc)


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_hodge_pieces_match_definitional_oracle(case):
    dc = ORACLE_CASES[case]()
    hp = hodge_pieces(dc)
    assert (hp.dims, hp.filtration_dims, hp.pure) == oracle_pieces(dc)


# the four bidegree tables come from one pass (del delbar and the stacks out
# of and into each space), de Rham from the row reduction classify runs
# anyway; the chain routes of the Dolbeault and del tables, de_rham_table
# and the lows-only pairing do not run
TABLES = ("_bidegree_tables", "de_rham_table")
CHAIN_ROUTES = ("dolbeault_table", "del_table")


def test_classify_computes_each_table_once(monkeypatch):
    calls = count_calls(monkeypatch, complexes, TABLES + CHAIN_ROUTES + ("_pair",))
    reduce = spectral._reduce
    monkeypatch.setattr(spectral, "_reduce",
                        lambda dc, f: calls.update(["_reduce"]) or reduce(dc, f))
    dc = staircase(6)
    classify(dc)
    assert calls == Counter(["_bidegree_tables", "_reduce", "_reduce"])

    # the chain route reads every stored delbar map once, and fetches no absent one
    fetched, read = Counter(), []
    delbar_map, columns = dc.delbar_map, complexes._columns
    monkeypatch.setattr(
        dc, "delbar_map", lambda p, q: fetched.update([(p, q)]) or delbar_map(p, q)
    )
    monkeypatch.setattr(complexes, "_columns", lambda m: read.append(m) or columns(m))
    complexes.dolbeault_table(dc)
    assert fetched == Counter()
    assert sorted(map(id, read)) == sorted(map(id, dc.delbar_maps.values()))


def test_an_unknown_filtration_is_refused_before_any_work(monkeypatch):
    # before validation and before any elimination, also on an invalid complex
    calls = count_calls(monkeypatch, complexes, ("lows",))
    validate = DoubleComplex.validate
    monkeypatch.setattr(DoubleComplex, "validate",
                        lambda dc: calls.update(["validate"]) or validate(dc))
    bad = DoubleComplex.build({(0, 0): 1, (1, 0): 1, (2, 0): 1},
                              {(0, 0): ONE_1x1, (1, 0): ONE_1x1}, {})
    for dc in (staircase(5), bad):
        with pytest.raises(ValueError, match="unknown filtration 'diag'"):
            spectral_pages(dc, "diag")
    assert calls == Counter()
    with pytest.raises(ValidationError):
        spectral_pages(bad, "col")


def test_row_pages_read_de_rham_off_their_own_pairing(monkeypatch):
    seen = record_pairings(monkeypatch)
    dc = shuffle_basis(random_zigzag_sum(8)[0], 3)
    spectral_pages(dc, "row")
    assert seen == ["row"]
    seen.clear()
    spectral_pages(dc, "col")
    assert seen == ["row", "col"]  # de_rham_table's pairing, then its own


# -- one analysis per complex -------------------------------------------------


def _analysis_cases():
    """(name, complex, real structure or None): every catalog complex, the
    builders' presets, random solvable complexes and shuffled zigzag sums."""
    for name in catalog_names():
        yield name, *catalog_complex(name)
    for flavor in ("identically", "real"):
        yield f"solv {flavor}", *build_C(nakamura_preset(flavor))
        yield f"splitting {flavor}", *build_splitting(nakamura_splitting_preset(flavor))
    for seed in range(4):
        yield f"random_solvable({seed})", *build_C(random_solvable(seed))
    for seed in range(20):
        yield f"zigzags {seed}", shuffle_basis(random_zigzag_sum(seed)[0], seed + 7), None


def test_analyse_equals_the_engines_run_separately():
    for name, dc, rs in _analysis_cases():
        a = analyse(dc, rs)
        verdict, col, row = classify(dc, rs)
        decomp = decompose(dc)
        verdict.page1_by_shape = page1_by_shape(decomp)
        assert a.tables == all_tables(dc), name
        assert (a.verdict, a.col_pages, a.row_pages) == (verdict, col, row), name
        assert a.decomposition.parts == decomp.parts, name


@pytest.mark.parametrize("make", [
    lambda: (staircase(6), None),
    lambda: build_C(nakamura_preset("real")),
    lambda: (shuffle_basis(random_zigzag_sum(4)[0], 9), None),
], ids=["staircase", "nakamura-real", "zigzags"])
def test_analyse_eliminates_tot_once_per_filtration(monkeypatch, make):
    # the tables once, one V-tracked reduction per filtration (de Rham off
    # the row one) and no lows-only pairing of Tot
    dc, rs = make()
    calls = count_reductions(monkeypatch)
    analyse(dc, rs)
    assert calls == {"_bidegree_tables": 1, "_reduce": 2}


def test_classify_reads_de_rham_off_its_own_reduction():
    # a de Rham table handed in with the others is not consulted
    dc = shuffle_basis(random_zigzag_sum(8)[0], 3)
    wrong = {**all_tables(dc), "de_rham": {0: 99}}
    assert classify(dc, None, wrong) == classify(dc)


@pytest.mark.parametrize("name", ["wedge", "square"])
def test_analyse_requires_the_shape_route_to_agree(monkeypatch, name):
    dc, rs = catalog_complex(name)
    monkeypatch.setattr(spectral, "page1_by_shape", lambda d: not page1_by_shape(d))
    with pytest.raises(InternalError, match="shape route disagrees"):
        analyse(dc, rs)

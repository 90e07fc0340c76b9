import re

import pytest
from hypothesis import given, settings, strategies as st

from bicomplex import (
    DoubleComplex,
    InternalError,
    MINUS_ONE,
    Matrix,
    ONE,
    RealStructure,
    SimpleComplex,
    ValidationError,
    all_tables,
    build_C,
    build_splitting,
    catalog_complex,
    catalog_names,
    check_real_structure,
    decompose,
    del_table,
    direct_sum,
    dolbeault_table,
    euler_characteristic,
    nakamura_preset,
    nakamura_splitting_preset,
    random_solvable,
    random_zigzag_sum,
    sc,
    shape_tables,
    shuffle_basis,
    tensor_product,
    transpose_complex,
)
from bicomplex import complexes
from bicomplex.complexes import labeled_tensor_sum
from bicomplex.linalg import rank
from conftest import ONE_1x1


def tables(name):
    dc, _ = catalog_complex(name)
    return all_tables(dc)


# worked micro-complex tables, each entry checked by hand kernel/image
# chasing on the 1- to 4-dimensional complexes
MICRO_TABLES = {
    "dot": {
        "dolbeault": {(0, 0): 1},
        "del": {(0, 0): 1},
        "bott_chern": {(0, 0): 1},
        "aeppli": {(0, 0): 1},
        "de_rham": {0: 1},
    },
    "hline": {
        "dolbeault": {(0, 0): 1, (1, 0): 1},
        "del": {},
        "bott_chern": {(1, 0): 1},
        "aeppli": {(0, 0): 1},
        "de_rham": {},
    },
    "vline": {
        "dolbeault": {},
        "del": {(0, 0): 1, (0, 1): 1},
        "bott_chern": {(0, 1): 1},
        "aeppli": {(0, 0): 1},
        "de_rham": {},
    },
    "square": {
        "dolbeault": {},
        "del": {},
        "bott_chern": {},
        "aeppli": {},
        "de_rham": {},
    },
    "wedge": {
        "dolbeault": {(1, 0): 1},
        "del": {(0, 1): 1},
        "bott_chern": {(1, 0): 1, (0, 1): 1},
        "aeppli": {(0, 0): 1},
        "de_rham": {1: 1},
    },
    "vee": {
        "dolbeault": {(0, 1): 1},
        "del": {(1, 0): 1},
        "bott_chern": {(1, 1): 1},
        "aeppli": {(0, 1): 1, (1, 0): 1},
        "de_rham": {1: 1},
    },
}


@pytest.mark.parametrize("name", sorted(MICRO_TABLES))
def test_micro_tables(name):
    assert tables(name) == MICRO_TABLES[name]


def test_build_rejects_maps_into_nowhere():
    with pytest.raises(ValidationError):
        DoubleComplex.build({(0, 0): 1}, {(0, 0): ONE_1x1}, {})


def test_build_drops_zero_spaces_and_zero_maps():
    dc = DoubleComplex.build({(0, 0): 1, (1, 0): 1, (5, 5): 0}, {}, {})
    assert (5, 5) not in dc.spaces
    assert dc.del_maps == {}
    assert dc.del_map(0, 0).is_zero
    assert dc.validate() == []
    # a zero map given is dropped, but only once its shape has been checked
    spaces = {(0, 0): 1, (1, 0): 1}
    assert DoubleComplex.build(spaces, {(0, 0): Matrix.zero(1, 1)}).del_maps == {}
    with pytest.raises(ValidationError, match="has shape 2x1"):
        DoubleComplex.build(spaces, {(0, 0): Matrix.zero(2, 1)})
    assert SimpleComplex.build({0: 1, 1: 1}, {0: Matrix.zero(1, 1)}).maps == {}
    with pytest.raises(ValidationError, match="wrong shape"):
        SimpleComplex.build({0: 1, 1: 1}, {0: Matrix.zero(1, 2)})


def _built_complexes():
    for name in catalog_names():
        yield name, catalog_complex(name)[0]
    for case in ("identically", "real"):
        yield f"solv {case}", build_C(nakamura_preset(case))[0]
        yield f"splitting {case}", build_splitting(nakamura_splitting_preset(case))[0]
    for seed in range(20):
        dc = random_zigzag_sum(seed)[0]
        shuffled = shuffle_basis(dc, seed)
        yield f"zigzag sum {seed}", dc
        yield f"shuffled {seed}", shuffled
        yield f"transposed {seed}", transpose_complex(shuffled)
        yield f"model {seed}", decompose(shuffled).model


def test_builders_store_no_zero_map():
    for name, dc in _built_complexes():
        stored = [*dc.del_maps.values(), *dc.delbar_maps.values()]
        assert all(m.entries for m in stored), name


def test_validate_reports_broken_axioms():
    # del then del nonzero
    bad = DoubleComplex.build(
        {(0, 0): 1, (1, 0): 1, (2, 0): 1},
        {(0, 0): ONE_1x1, (1, 0): ONE_1x1},
        {},
    )
    problems = bad.validate()
    assert problems and "del^2" in problems[0]
    # anticommutation with the wrong sign
    bad2 = DoubleComplex.build(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
        {(0, 0): ONE_1x1, (0, 1): ONE_1x1},
        {(0, 0): ONE_1x1, (1, 0): ONE_1x1},
    )
    assert any("del delbar + delbar del" in p for p in bad2.validate())
    # delbar then delbar nonzero
    bad3 = DoubleComplex.build(
        {(0, 0): 1, (0, 1): 1, (0, 2): 1},
        {},
        {(0, 0): ONE_1x1, (0, 1): ONE_1x1},
    )
    assert bad3.validate() == ["axiom: delbar^2 != 0 starting at (0,0)"]
    # built by hand: an absent map is zero, not missing
    wedge_and_dot = DoubleComplex(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
        {(0, 0): ONE_1x1},
        {(0, 0): ONE_1x1},
    )
    assert wedge_and_dot.validate() == []


def test_square_catalog_complex_is_valid():
    dc, _ = catalog_complex("square")
    assert dc.validate() == []


def test_simple_complex_cohomology():
    # 0 -> Q -> Q^2 -> Q -> 0 with d0 = (1,0)^T, d1 = (0,1)
    d0 = Matrix.from_rows([[ONE], [sc(0)]])
    d1 = Matrix.from_rows([[sc(0), ONE]])
    a = SimpleComplex.build({0: 1, 1: 2, 2: 1}, {0: d0, 1: d1}).check()
    assert a.cohomology() == {}
    b = SimpleComplex.build({0: 1, 2: 1})
    assert b.cohomology() == {0: 1, 2: 1}
    with pytest.raises(ValidationError):
        SimpleComplex.build({0: 1, 1: 1, 2: 1}, {0: ONE_1x1, 1: ONE_1x1}).check()


def test_tensor_products_of_segments():
    dot = SimpleComplex.build({0: 1})
    seg = SimpleComplex.build({0: 1, 1: 1}, {0: ONE_1x1})
    t = all_tables(tensor_product(dot, dot))
    assert t == MICRO_TABLES["dot"]
    t = all_tables(tensor_product(seg, dot))
    assert t == MICRO_TABLES["hline"]
    # segment x segment is an acyclic square
    sq = tensor_product(seg, seg)
    assert sq.validate() == []
    assert all(not v for v in all_tables(sq).values())


def test_tensor_sign_convention_anticommutes():
    seg2 = SimpleComplex.build({0: 2, 1: 1}, {0: Matrix.from_rows([[ONE, ONE]])})
    dc = tensor_product(seg2, seg2)
    assert dc.validate() == []


def test_direct_sum_offsets_and_tables():
    a, _ = catalog_complex("dot")
    b, _ = catalog_complex("wedge")
    dc, offsets = direct_sum([a, b])
    assert dc.spaces[(0, 0)] == 2
    assert offsets[0][(0, 0)] == 0 and offsets[1][(0, 0)] == 1
    t = all_tables(dc)
    assert t["de_rham"] == {0: 1, 1: 1}
    assert t["aeppli"] == {(0, 0): 2}


def test_transpose_swaps_tables():
    dc, _ = catalog_complex("hline")
    assert all_tables(transpose_complex(dc)) == MICRO_TABLES["vline"]
    # the wedge is its own transpose
    w, _ = catalog_complex("wedge")
    assert all_tables(transpose_complex(w)) == MICRO_TABLES["wedge"]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_tables_agree_with_the_chain_routes_and_the_shapes(seed, transpose):
    # all_tables reads Dolbeault and del off its Bott-Chern/Aeppli pass;
    # dolbeault_table and del_table rank each map of one direction, with
    # clearing, and shape_tables counts the decomposition's vertices
    dc = shuffle_basis(random_zigzag_sum(seed)[0], seed + 10**6)
    if transpose:
        dc = transpose_complex(dc)
    tables = all_tables(dc)
    assert tables["dolbeault"] == dolbeault_table(dc)
    assert tables["del"] == del_table(dc)
    assert tables == shape_tables(decompose(dc).parts)


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_chain_routes_skip_the_lows_of_the_map_before(monkeypatch, seed):
    # a map's column at a low of the map into its space is never reduced
    dc = shuffle_basis(random_zigzag_sum(seed)[0], seed + 10**6)
    taken = []
    lows = complexes.lows
    monkeypatch.setattr(complexes, "lows", lambda cols: taken.append(len(cols)) or lows(cols))
    for table, maps, source in ((dolbeault_table, dc.delbar_maps, lambda p, q: (p, q - 1)),
                                (del_table, dc.del_maps, lambda p, q: (p - 1, q))):
        taken.clear()
        table(dc)
        before = [maps.get(source(*pq)) for pq in maps]
        assert sum(taken) == sum(m.ncols - (rank(b) if b else 0)
                                 for m, b in zip(maps.values(), before))


def test_euler_characteristic():
    for name, chi in [("dot", 1), ("hline", 0), ("square", 0), ("wedge", -1), ("vee", -1)]:
        dc, _ = catalog_complex(name)
        assert euler_characteristic(dc) == chi
        dr = all_tables(dc)["de_rham"]
        assert chi == sum((-1) ** k * d for k, d in dr.items())


def test_real_structure_on_conjugation_symmetric_complex():
    # dot at (1,1) carries the identity as a real structure
    dc = DoubleComplex.build({(1, 1): 1}, {}, {})
    rs = RealStructure({(1, 1): Matrix.identity(1)})
    assert check_real_structure(dc, rs) == []
    # asymmetric support cannot carry one
    dc2 = DoubleComplex.build({(1, 0): 1}, {}, {})
    rs2 = RealStructure({(1, 0): Matrix.identity(1)})
    assert check_real_structure(dc2, rs2) != []


def test_labeled_real_structure_square():
    # the square is the tensor product of two one-arrow complexes, and its
    # sigma the untwisted rule: x (x) y -> (-1)^{pq} ybar (x) xbar
    arrow = SimpleComplex.build({0: 1, 1: 1}, {0: ONE_1x1})
    labels = {0: ["a"], 1: ["x"]}
    dc, rs = labeled_tensor_sum([(arrow, {}, labels, arrow.conjugate(), {}, labels)])
    # tensor_product's sign puts -1 on delbar at (1, 0), as the catalog does
    assert dc == catalog_complex("square")[0]
    assert check_real_structure(dc, rs) == []


BUILT = {
    **{f"solvable-{s}": lambda s=s: build_C(random_solvable(s)) for s in range(20)},
    **{f"nakamura-{c}": lambda c=c: build_C(nakamura_preset(c))
       for c in ("identically", "real")},
    **{f"splitting-{c}": lambda c=c: build_splitting(nakamura_splitting_preset(c))
       for c in ("identically", "real")},
}


@pytest.mark.parametrize("name", sorted(BUILT))
def test_builder_sigma_is_a_signed_permutation(name):
    # conjugation of forms sends each basis label to exactly one label
    dc, rs = BUILT[name]()
    assert sorted(rs.sigma) == sorted(dc.spaces)
    for pq, s in rs.sigma.items():
        assert sorted(c for _, c in s.entries) == list(range(s.ncols)), pq
        assert all(v in (ONE, MINUS_ONE) for v in s.entries.values()), pq
    assert check_real_structure(dc, rs) == []


def test_a_missing_conjugate_block_is_an_internal_error():
    # a block twisted on its holomorphic side needs a block carrying the
    # conjugate twist on its antiholomorphic side
    dot = SimpleComplex.build({0: 1})
    labels = {0: [()]}
    missing = ((), ((1, ONE),), (), ())
    with pytest.raises(InternalError, match=re.escape(repr(missing))):
        labeled_tensor_sum([(dot, {1: ONE}, labels, dot, {}, labels)])


def test_a_repeated_label_is_an_internal_error():
    dot = SimpleComplex.build({0: 1})
    block = (dot, {}, {0: [()]}, dot, {}, {0: [()]})
    with pytest.raises(InternalError, match="repeated"):
        labeled_tensor_sum([block, block])

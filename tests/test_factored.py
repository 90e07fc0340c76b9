"""The factored producer of `decompose` against the general one, and the
block model against its old construction.

A complex built by `tensor_product`, or a `direct_sum` of such, records
its factors; `decompose` then splits each factor into dots and arrows
instead of running phases A and B.  Both routes end in the one
certificate, so a wrong factor record must end in InternalError.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from bicomplex import (
    DoubleComplex,
    InternalError,
    Matrix,
    ONE,
    SimpleComplex,
    Square,
    build_C,
    build_splitting,
    catalog_complex,
    decompose,
    direct_sum,
    inverse,
    nakamura_preset,
    nakamura_splitting_preset,
    parse_bicomplex,
    random_solvable,
    random_zigzag_sum,
    sc,
    shuffle_basis,
    tensor_product,
    transpose_complex,
    write_bicomplex,
)
from bicomplex import zigzags
from bicomplex.linalg import rank


def plain(dc: DoubleComplex) -> DoubleComplex:
    """dc without its factor record: decompose takes the general route."""
    return DoubleComplex(dict(dc.spaces), dict(dc.del_maps), dict(dc.delbar_maps))


def old_model(parts) -> DoubleComplex:
    """The block model as it was built before: the direct sum of each
    part's own complex, one per unit of multiplicity, in report order."""
    return direct_sum([
        zigzags._square_complex(shape.p, shape.q) if isinstance(shape, Square)
        else zigzags._zigzag_complex(shape.vertices)
        for shape, mult in parts for _ in range(mult)
    ])[0]


def assert_certified(dc: DoubleComplex, d) -> None:
    """The certificate, re-checked here: C is invertible at every bidegree
    and carries the model's maps onto dc's (d C = C d_model)."""
    for pq, n in dc.spaces.items():
        c = d.change_of_basis[pq]
        assert c.nrows == c.ncols == rank(c) == n, pq
    for (p, q) in dc.spaces:
        for dp, dq, mine, model in ((1, 0, dc.del_map, d.model.del_map),
                                    (0, 1, dc.delbar_map, d.model.delbar_map)):
            if (p + dp, q + dq) in dc.spaces:
                lhs = mine(p, q) @ d.change_of_basis[(p, q)]
                assert lhs == d.change_of_basis[(p + dp, q + dq)] @ model(p, q), (p, q)


def both_routes(dc: DoubleComplex):
    assert dc.factors
    factored, general = decompose(dc), decompose(plain(dc))
    assert factored.parts == general.parts
    assert factored.model == general.model
    assert_certified(dc, factored)
    assert_certified(dc, general)
    return factored


def _builder_complexes():
    for case in ("identically", "real"):
        yield f"solv {case}", lambda c=case: build_C(nakamura_preset(c))[0]
        yield f"splitting {case}", lambda c=case: build_splitting(nakamura_splitting_preset(c))[0]
    for name in ("sl2", "heisenberg3", "abelian:2"):
        yield f"{name}-invariant", lambda n=name: catalog_complex(f"{n}-invariant")[0]
    for seed in range(10):
        yield f"random_solvable({seed})", lambda s=seed: build_C(random_solvable(s))[0]
    yield "random_solvable(0, 5)", lambda: build_C(random_solvable(0, 5))[0]


BUILT = dict(_builder_complexes())


@pytest.mark.parametrize("name", list(BUILT))
def test_factored_route_agrees_with_the_general_one(name):
    both_routes(BUILT[name]())


# -- random simple complexes ----------------------------------------------------


def _unimodular(rng: random.Random, n: int) -> Matrix:
    """A product of elementary row operations over Z[i]: exactly invertible."""
    m = Matrix.identity(n)
    for _ in range(2 * n + 1):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            lam = sc(rng.choice((-2, -1, 1, 2)), rng.choice((-1, 0, 1)))
            m = Matrix(n, n, {(k, k): ONE for k in range(n)} | {(i, j): lam}) @ m
    return m


def random_simple(seed: int) -> SimpleComplex:
    """A direct sum of dots and arrows in degrees 0..3, in a random basis
    at every degree, so d^2 = 0 and d is dense."""
    rng = random.Random(seed)
    dims: dict[int, int] = {}
    arrows = []
    for _ in range(rng.randint(0, 4)):
        p = rng.randint(0, 3)
        if p < 3 and rng.random() < 0.6:
            arrows.append((p, dims.get(p, 0), dims.get(p + 1, 0)))
            dims[p + 1] = dims.get(p + 1, 0) + 1
        dims[p] = dims.get(p, 0) + 1
    maps = {}
    for p in dims:
        if p + 1 in dims:
            entries = {(t, s): ONE for q, s, t in arrows if q == p}
            maps[p] = Matrix(dims[p + 1], dims[p], entries)
    u = {p: _unimodular(rng, n) for p, n in dims.items()}
    return SimpleComplex.build(dims, {p: u[p + 1] @ m @ inverse(u[p]) for p, m in maps.items()})


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seeds, seeds)
def test_tensor_products_agree_on_both_routes(sa, sb):
    both_routes(tensor_product(random_simple(sa), random_simple(sb)))


@settings(max_examples=30, deadline=None)
@given(seeds, seeds, seeds, seeds)
def test_sums_of_tensor_products_agree_on_both_routes(s1, s2, s3, s4):
    first = tensor_product(random_simple(s1), random_simple(s2))
    second = tensor_product(random_simple(s3), random_simple(s4))
    dc, offsets = direct_sum([first, second])
    assert len(dc.factors) == 2
    assert [offs for _, _, offs in dc.factors] == offsets
    both_routes(dc)


@settings(max_examples=60, deadline=None)
@given(seeds, seeds, seeds)
def test_a_changed_factor_record_is_an_internal_error(sa, sb, pick):
    # one entry of one factor map, stored or zero, moves by 1: the record
    # no longer describes the complex, and the certificate must say so
    a, b = random_simple(sa), random_simple(sb)
    dc = tensor_product(a, b)
    rng = random.Random(pick)
    side = rng.choice([c for c in (a, b) if any(p + 1 in c.spaces for p in c.spaces)]
                      or [None])
    if side is None or not dc.spaces:
        return  # no map to change
    p = rng.choice(sorted(p for p in side.spaces if p + 1 in side.spaces))
    m = side.map(p)
    r, c = rng.randrange(m.nrows), rng.randrange(m.ncols)
    changed = Matrix(m.nrows, m.ncols, {**m.entries, (r, c): m.get(r, c) + ONE})
    wrong = SimpleComplex(dict(side.spaces), {**side.maps, p: changed})
    bad = dataclasses.replace(
        dc, factors=((wrong, b, dc.factors[0][2]),) if side is a else ((a, wrong, dc.factors[0][2]),))
    with pytest.raises(InternalError):
        decompose(bad)


def test_a_record_that_does_not_fit_is_an_internal_error():
    seg = SimpleComplex.build({0: 1, 1: 1}, {0: Matrix(1, 1, {(0, 0): ONE})})
    dc = tensor_product(seg, seg)
    bad = dataclasses.replace(dc, factors=((seg, seg, {pq: 1 for pq in dc.spaces}),))
    with pytest.raises(InternalError, match="does not fit"):
        decompose(bad)


def test_the_factor_record_outlives_a_change_to_the_factors():
    # the record holds copies: changing a factor afterwards leaves the
    # complex, and so its decomposition, as built
    seg = SimpleComplex.build({0: 1, 1: 1}, {0: Matrix(1, 1, {(0, 0): ONE})})
    dc = tensor_product(seg, seg)
    seg.maps[0] = Matrix(1, 1, {(0, 0): sc(2)})
    both_routes(dc)


# -- the block model and the factor record ---------------------------------------


@pytest.mark.parametrize("seed", range(150))
def test_block_model_matches_the_old_construction(seed):
    dc, _ = random_zigzag_sum(seed)
    d = decompose(shuffle_basis(dc, seed + 10**6))
    assert d.model == old_model(d.parts)


@pytest.mark.parametrize("seed", range(4))
def test_block_model_matches_the_old_construction_on_solvable(seed):
    d = decompose(build_C(random_solvable(seed))[0])
    assert d.model == old_model(d.parts)


def test_only_tensor_products_and_their_sums_carry_factors():
    dc, _ = build_C(nakamura_preset("real"))
    assert len(dc.factors) == 6
    assert shuffle_basis(dc, 1).factors == ()
    assert transpose_complex(dc).factors == ()
    assert parse_bicomplex(write_bicomplex(dc)).factors == ()
    assert direct_sum([dc, catalog_complex("wedge")[0]])[0].factors == ()
    # the record is not part of the value
    assert plain(dc) == dc
    assert repr(plain(dc)) == repr(dc)

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bicomplex import (
    I,
    Matrix,
    ONE,
    ZERO,
    hstack,
    inverse,
    kernel,
    rank,
    rcef,
    rref,
    sc,
    solve_right,
    vstack,
)
from bicomplex.linalg import Echelon, _columns, _subtract, echelon, lows
from conftest import kron, random_matrix
from scalar_oracle import PairScalar


def rows(*rs):
    return Matrix.from_rows([[sc(x) if not isinstance(x, tuple) else sc(*x) for x in r] for r in rs])


def test_construction_strips_zeros_and_range_checks():
    m = Matrix(2, 2, {(0, 0): ONE, (1, 1): ZERO})
    assert m.entries == {(0, 0): ONE}
    assert m.get(1, 1) == ZERO
    with pytest.raises(ValueError):
        Matrix(1, 1, {(1, 0): ONE})


def test_shape_mismatch_rejected():
    a = rows([1, 2])
    b = rows([1], [2], [3])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a @ a


def test_basic_algebra():
    a = rows([1, 2], [3, 4])
    b = rows([0, 1], [1, 0])
    assert (a @ b).to_rows() == rows([2, 1], [4, 3]).to_rows()
    assert (a + (-a)).is_zero
    assert a.scale(sc(2)) == a + a
    assert a.transpose().transpose() == a
    c = Matrix(1, 1, {(0, 0): I})
    assert c.conjugate() == Matrix(1, 1, {(0, 0): -I})


def test_stacking_and_kron():
    a = rows([1, 2])
    b = rows([3, 4])
    assert vstack([a, b]) == rows([1, 2], [3, 4])
    assert hstack([a.transpose(), b.transpose()]) == rows([1, 3], [2, 4])
    e = Matrix.identity(2)
    k = kron(e, rows([5]))
    assert k == rows([5, 0], [0, 5])


def test_rref_known_matrix():
    m = rows([1, 2, 3], [2, 4, 6], [1, 1, 1])
    r, pivots = rref(m)
    assert pivots == [0, 1]
    assert r.to_rows() == rows([1, 0, -1], [0, 1, 2], [0, 0, 0]).to_rows()
    assert rank(m) == 2


def test_kernel_solve_inverse_small():
    m = rows([1, 2, 3], [2, 4, 6], [1, 1, 1])
    k = kernel(m)
    assert k.ncols == 1
    assert (m @ k).is_zero
    # one honest solve
    b = m @ Matrix.column_vector([sc(1), sc(0), sc(2)])
    x = solve_right(m, b)
    assert x is not None and m @ x == b
    # inconsistent system
    assert solve_right(rows([1], [1]), Matrix.column_vector([sc(0), sc(1)])) is None
    inv = inverse(rows([1, 1], [0, 1]))
    assert inv == rows([1, -1], [0, 1])
    with pytest.raises(ValueError):
        inverse(rows([1, 1], [2, 2]))


def test_rcef_is_column_echelon():
    m = rows([0, 1], [1, 0], [1, 1])
    r, pivot_rows = rcef(m)
    assert rank(r) == rank(m) == 2
    assert (rcef(r)[0]) == r  # idempotent on its own output
    assert len(pivot_rows) == 2


def test_complex_entries_elimination():
    m = Matrix.from_rows([[I, sc(1)], [sc(1), -I]])
    # second row is -i times the first, so rank 1
    assert rank(m) == 1
    k = kernel(m)
    assert k.ncols == 1 and (m @ k).is_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_kernel_rank_nullity(seed, nr, nc):
    m = random_matrix(random.Random(seed), nr, nc)
    k = kernel(m)
    assert (m @ k).is_zero
    assert rank(m) + k.ncols == nc
    assert rank(k) == k.ncols  # kernel basis is independent


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(1, 2))
def test_solve_right_exactness(seed, nr, nc, bk):
    rng = random.Random(seed)
    a = random_matrix(rng, nr, nc)
    x0 = random_matrix(rng, nc, bk, density=0.8)
    b = a @ x0
    x = solve_right(a, b)
    assert x is not None and a @ x == b


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_inverse_round_trip(seed, n):
    rng = random.Random(seed)
    # build a guaranteed-invertible matrix from unimodular elementary ops
    m = Matrix.identity(n)
    for _ in range(3 * n):
        p = random_matrix(rng, n, n, density=0.3)
        cand = Matrix.identity(n) + p
        if rank(cand) == n:
            m = m @ cand
    inv = inverse(m)
    assert m @ inv == Matrix.identity(n)
    assert inv @ m == Matrix.identity(n)


def test_rref_deterministic():
    rng = random.Random(7)
    m = random_matrix(rng, 4, 5)
    assert rref(m) == rref(m)
    r1, _ = rref(m)
    assert rref(r1)[0] == r1


def _combination(ops, cols):
    """sum_s ops[s] * cols[s], as a sparse column."""
    out = {}
    for s, f in ops.items():
        for i, v in cols[s].items():
            out[i] = out.get(i, ZERO) + f * v
    return {i: v for i, v in out.items() if v}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5), st.integers(0, 4))
def test_echelon_reduces_by_distinct_lows(seed, nrows, nfree, ndep):
    rng = random.Random(seed)
    a = random_matrix(rng, nrows, nfree, density=0.4)
    # ndep more columns are combinations of a's, and the order is shuffled
    m = hstack([a, a @ random_matrix(rng, nfree, ndep)]) if ndep else a
    order = list(range(m.ncols))
    rng.shuffle(order)
    cols = [{r: v for (r, c), v in m.entries.items() if c == j} for j in order]

    ech = Echelon()
    for t, col in enumerate(cols):
        residue, ops = dict(col), {t: ONE}  # column t stands for itself
        low = ech.add(residue, ops)
        assert (low is None) == (not residue)
        # the residue is the combination its ops say
        assert _combination(ops, cols) == residue
    assert len(ech.cols) == rank(m)
    for low, col in ech.cols.items():
        assert max(col) == low and col[low] == ONE
        assert _combination(ech.ops[low], cols) == col
    for col in cols:
        residue, ops = dict(col), {}
        assert ech.reduce(residue, ops) is None and residue == {}
        # what was cleared, col itself, is minus the combination of the ops
        assert _combination(ops, cols) == {i: -v for i, v in col.items()}


def _rref_kernel(m):
    """The canonical kernel read off rref: per free column f, 1 at f and
    minus rref's column f at the pivot columns."""
    r, pivots = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    entries = {}
    for j, f in enumerate(free):
        entries[(f, j)] = ONE
        for i, p in enumerate(pivots):
            if r.get(i, f):
                entries[(p, j)] = -r.get(i, f)
    return Matrix(m.ncols, len(free), entries)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5),
       st.integers(0, 4), st.integers(0, 2))
def test_echelon_agrees_with_rref(seed, nrows, nfree, ndep, nzero):
    rng = random.Random(seed)
    a = random_matrix(rng, nrows, nfree, density=0.4)
    # dependent and zero columns, shuffled in among a's
    m = hstack([a, a @ random_matrix(rng, nfree, ndep), Matrix.zero(nrows, nzero)])
    order = list(range(m.ncols))
    rng.shuffle(order)
    m = m.columns(order)

    ech, lows, ker = echelon(m)
    pivots = rref(m)[1]
    assert list(lows) == pivots
    assert ker == _rref_kernel(m)
    assert rank(m) == len(pivots) == len(ech.cols)
    assert sorted(lows.values()) == sorted(ech.cols)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_echelon_keeps_copies_of_what_it_is_given(seed, nrows, ncols):
    m = random_matrix(random.Random(seed), nrows, ncols)
    ech, given_ = Echelon(), []
    for j in range(ncols):
        col, ops = {r: v for (r, c), v in m.entries.items() if c == j}, {j: ONE}
        ech.add(col, ops)
        given_ += [col, ops]
    before = ({k: dict(c) for k, c in ech.cols.items()},
              {k: dict(o) for k, o in ech.ops.items()})
    for d in given_:
        d.clear()
        d[nrows + ncols] = ONE
    assert (ech.cols, ech.ops) == before


def test_echelon_negates_a_low_of_minus_one(monkeypatch):
    # a low of -1 is negated, not inverted; what is stored is the column
    # and ops scaled by the inverse of the low, as for any other low
    inverses = []
    original = type(ONE).inverse
    monkeypatch.setattr(type(ONE), "inverse", lambda s: inverses.append(s) or original(s))
    for low in (sc(-1), sc(2), sc(0, -1)):
        col, ops = {0: sc(3, 1), 2: low}, {0: sc(1, 2), 1: sc(-1)}
        ech = Echelon()
        assert ech.add(dict(col), dict(ops)) == 2
        inv = original(low)
        assert ech.cols[2] == {i: inv * v for i, v in col.items()}
        assert ech.ops[2] == {i: inv * v for i, v in ops.items()}
    assert sc(-1) not in inverses and len(inverses) == 2


# Gaussian integers (d = 1, some with imaginary parts) and d != 1 values,
# so both the integer paths and the general ones run, and mix
MIXED = [sc(1), sc(-1), sc(2), sc(0, 1), sc(1, -1), sc(-2, 3),
         sc(Fraction(1, 2)), sc(Fraction(-2, 3), 1), sc(0, Fraction(3, 4))]


def mixed_matrix(rng: random.Random, nrows: int, ncols: int, integral: bool) -> Matrix:
    pool = MIXED[:6] if integral else MIXED
    entries = {(r, c): rng.choice(pool) for r in range(nrows) for c in range(ncols)
               if rng.random() < 0.6}
    return Matrix(nrows, ncols, entries)


def as_pairs(entries):
    return {k: PairScalar(v.re, v.im) for k, v in entries.items()}


def oracle_product(a: Matrix, b: Matrix):
    out = {}
    for (r, k), x in as_pairs(a.entries).items():
        for (k2, c), y in as_pairs(b.entries).items():
            if k == k2:
                out[(r, c)] = out.get((r, c), PairScalar(Fraction(0), Fraction(0))) + x * y
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("integral", [True, False])
def test_product_agrees_with_the_pair_oracle(integral):
    for seed in range(150):
        rng = random.Random(seed)
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = mixed_matrix(rng, n, k, integral)
        b = mixed_matrix(rng, k, m, integral and seed % 3 > 0)
        assert as_pairs((a @ b).entries) == oracle_product(a, b)
        # every sum cancels exactly: each entry is added and then deleted
        assert (hstack([a, a]) @ vstack([b, -b])).is_zero


@pytest.mark.parametrize("integral", [True, False])
def test_subtract_agrees_with_the_pair_oracle(integral):
    pool = MIXED[:6] if integral else MIXED
    for seed in range(300):
        rng = random.Random(seed)
        col = {i: rng.choice(pool) for i in range(6) if rng.random() < 0.5}
        other = {i: rng.choice(pool) for i in range(6) if rng.random() < 0.6}
        f = rng.choice(pool if seed % 4 else MIXED)
        if seed % 5 == 0:  # other = col / f: every entry of col cancels
            other = {i: v / f for i, v in col.items()}
        want = as_pairs(col)
        fp = PairScalar(f.re, f.im)
        for i, v in as_pairs(other).items():
            want[i] = want.get(i, PairScalar(Fraction(0), Fraction(0))) - fp * v
        _subtract(col, f, other)
        assert as_pairs(col) == {i: v for i, v in want.items() if v}
        if seed % 5 == 0:
            assert col == {}


def test_derived_matrices_are_canonical():
    # what linalg derives from valid matrices is built unchecked, so it
    # must be exactly what validation would make of it
    def derived(rng):
        a = mixed_matrix(rng, 3, 4, rng.random() < 0.5)
        b = mixed_matrix(rng, 4, 2, rng.random() < 0.5)
        c = mixed_matrix(rng, 3, 4, rng.random() < 0.5)
        yield from (a @ b, a @ Matrix.zero(4, 2), a + c, a + (-a), a - c, -a,
                    a.scale(sc(0, 2)), a.scale(ZERO), a.transpose(), a.conjugate(),
                    a.columns([3, 1]), a.rows([2, 0]), a.column(0),
                    hstack([a, c]), vstack([a, c]), kron(a, b),
                    Matrix.identity(3), Matrix.zero(2, 3), kernel(a),
                    echelon(vstack([a, c]))[2])

    for seed in range(60):
        for m in derived(random.Random(seed)):
            assert Matrix(m.nrows, m.ncols, dict(m.entries)) == m


# -- the lows kernel ---------------------------------------------------------


def _echelon_lows(cols):
    """The oracle: each column's low after Echelon.add, ops untracked."""
    ech = Echelon()
    return [ech.add(dict(c), {}) for c in cols]


def _lows_matrix(rng: random.Random, nrows: int, nfree: int, ndep: int, nzero: int,
                 dens: tuple[int, ...]) -> Matrix:
    """Entries (a + b i)/d with d drawn from dens, b often nonzero; then
    scaled copies of earlier columns and zero columns, shuffled in."""
    def entry():
        return sc(Fraction(rng.randint(-4, 4), rng.choice(dens)),
                  Fraction(rng.choice((0, 0, rng.randint(-3, 3))), rng.choice(dens)))

    cols = [{r: v for r in range(nrows) if rng.random() < 0.6 and (v := entry())}
            for _ in range(nfree)]
    for _ in range(ndep):
        f = sc(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice(dens)), rng.randint(-2, 2))
        cols.append({r: f * v for r, v in rng.choice(cols).items()} if cols else {})
    cols += [{} for _ in range(nzero)]
    rng.shuffle(cols)
    return Matrix(nrows, len(cols), {(r, c): v for c, col in enumerate(cols)
                                     for r, v in col.items()})


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(0, 6), st.integers(0, 4),
       st.integers(0, 2), st.sampled_from([(1,), (1, 2), (1, 3), (1, 2, 3, 6)]))
def test_lows_agree_with_echelon(seed, nrows, nfree, ndep, nzero, dens):
    m = _lows_matrix(random.Random(seed), nrows, nfree, ndep, nzero, dens)
    cols = _columns(m)
    before = [dict(c) for c in cols]
    assert lows(cols) == _echelon_lows(cols)
    assert cols == before  # the input is left as it was
    assert rank(m) == len(rref(m)[1])


def _dense_gaussian(rng: random.Random, n: int, bound: int) -> list[dict]:
    def entry():
        return sc(rng.randint(-bound, bound), rng.randint(-bound, bound))

    return [{r: v for r in range(n) if (v := entry())} for _ in range(n)]


@pytest.mark.parametrize("n, bound", [(20, 2), (40, 1000)])
def test_rank_stays_polynomial_on_dense_input(n, bound):
    # every pivot is scaled to 1 at its low, so coefficients stay the size of
    # the exact values; a kernel that only divides out content (fraction-free,
    # unnormalized) grows exponentially here and takes minutes at 40 x 40
    cols = _dense_gaussian(random.Random(n), n, bound)
    m = Matrix(n, n, {(r, c): v for c, col in enumerate(cols) for r, v in col.items()})
    t0 = time.perf_counter()
    got = rank(m)
    assert time.perf_counter() - t0 < 2.0
    assert got == sum(low is not None for low in _echelon_lows(cols))

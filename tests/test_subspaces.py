import random

from hypothesis import given, settings, strategies as st

from bicomplex import Matrix, Subspace, image, preimage, rank, sc
from conftest import random_matrix


def span(ambient, *cols):
    m = Matrix.from_rows([[sc(x) for x in row] for row in cols]).transpose()
    assert m.nrows == ambient
    return Subspace.from_columns(ambient, m)


def test_dim_sum_intersect_hand_case():
    # two planes in Q^3 meeting in a line
    u = span(3, [1, 0, 0], [0, 1, 0])
    v = span(3, [0, 1, 0], [0, 0, 1])
    assert u.dim == v.dim == 2
    assert u.sum(v).dim == 3
    w = u.intersect(v)
    assert w.dim == 1
    assert w.contains_vector(Matrix.column_vector([sc(0), sc(1), sc(0)]))


def test_containment_and_zero_full():
    z = Subspace.zero(4)
    f = Subspace.full(4)
    assert z.dim == 0 and f.dim == 4
    assert f.contains(z)
    u = span(4, [1, 1, 0, 0])
    assert f.contains(u) and not z.contains(u)
    assert u.contains(u)


def test_preimage_and_image():
    # projection Q^3 -> Q^2 dropping the last coordinate
    proj = Matrix.from_rows([[sc(1), sc(0), sc(0)], [sc(0), sc(1), sc(0)]])
    line = span(2, [1, 0])
    pre = preimage(proj, line)
    assert pre.dim == 2  # the line plus the kernel direction
    assert pre.contains_vector(Matrix.column_vector([sc(0), sc(0), sc(5)]))
    img = image(proj)
    assert img.dim == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_grassmann_formula(seed, n):
    rng = random.Random(seed)
    u = image(random_matrix(rng, n, rng.randint(1, n)))
    v = image(random_matrix(rng, n, rng.randint(1, n)))
    assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_preimage_dimension_formula(seed, n):
    rng = random.Random(seed)
    m = random_matrix(rng, rng.randint(1, 4), n)
    w = image(random_matrix(rng, m.nrows, rng.randint(1, m.nrows)))
    pre = preimage(m, w)
    meet = image(m).intersect(w).dim
    assert pre.dim == (n - rank(m)) + meet

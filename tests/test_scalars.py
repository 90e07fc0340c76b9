from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from bicomplex import I, MINUS_ONE, ONE, Scalar, ZERO, format_scalar, parse_scalar, sc
from scalar_oracle import PairScalar, parse_pair


def test_constructor_and_constants():
    assert sc(3).re == Fraction(3) and sc(3).im == 0
    assert sc(1, 2) == sc(1) + sc(0, 2)
    assert sc("1/2") == sc(Fraction(1, 2))
    assert ONE + MINUS_ONE == ZERO
    assert I * I == MINUS_ONE
    assert not ZERO
    assert ONE and I
    # the positional constructor takes (a, b, d) for (a + b i)/d and normalizes
    assert Scalar(2, -4, -6) == sc(Fraction(-1, 3), Fraction(2, 3))
    z = Scalar(0, 0, -5)
    assert (z.a, z.b, z.d) == (0, 0, 1) and z == ZERO
    assert hash(Scalar(6, 0, 3)) == hash(sc(2))
    with pytest.raises(ZeroDivisionError):
        Scalar(1, 0, 0)
    with pytest.raises(TypeError):
        Scalar(Fraction(1, 2))


def test_field_arithmetic():
    a = sc(Fraction(3, 2), Fraction(-1, 3))
    b = sc(2, 5)
    assert a * b / b == a
    assert (a + b) - b == a
    assert a - a == ZERO
    assert -a + a == ZERO
    assert a.conjugate().conjugate() == a
    # norm a*abar lands in the rationals
    assert (a * a.conjugate()).im == 0
    with pytest.raises(ZeroDivisionError):
        a / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_format_canonical_forms():
    cases = [
        (ZERO, "0"),
        (ONE, "1"),
        (MINUS_ONE, "-1"),
        (I, "i"),
        (-I, "-i"),
        (sc(Fraction(3, 2)), "3/2"),
        (sc(0, Fraction(1, 2)), "1/2i"),
        (sc(2, Fraction(-1, 3)), "2-1/3i"),
        (sc(-1, 1), "-1+i"),
        (sc(Fraction(-2, 7), -1), "-2/7-i"),
    ]
    for value, text in cases:
        assert format_scalar(value) == text
        assert parse_scalar(text) == value


def test_parse_accepts_all_grammar_forms():
    assert parse_scalar("-3/4") == sc(Fraction(-3, 4))
    assert parse_scalar("0+1i") == I
    assert parse_scalar("0-1i") == -I
    assert parse_scalar("2+3i") == sc(2, 3)
    assert parse_scalar("2 + 3i") == sc(2, 3)  # interior spaces are dropped
    assert parse_scalar("1/2-5/6i") == sc(Fraction(1, 2), Fraction(-5, 6))


@pytest.mark.parametrize("bad", ["", "1+", "i2", "3//4", "+i", "1+2j", "--1",
                                 "\u0663", "1/\uff12", "2+\u0663i", "1_0"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/0")


# -- the int-backed Scalar against the Fraction-pair oracle ---------------

BIG = 2**80
small_ints = st.integers(-6, 6)
big_ints = st.integers(-BIG, BIG)
integral = st.one_of(small_ints, big_ints).map(Fraction)
fractional = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(Fraction, big_ints, st.integers(1, BIG)),
)
# (re, im) pairs: Gaussian integers (the d = 1 paths), real values and
# general values with parts above 2^64
parts = st.one_of(
    st.tuples(integral, integral),
    st.tuples(st.one_of(integral, fractional), st.just(Fraction(0))),
    st.tuples(st.one_of(integral, fractional), st.one_of(integral, fractional)),
)
PATHS = [
    (Fraction(2), Fraction(-3)),  # Gaussian integer
    (Fraction(5, 6), Fraction(0)),  # real, d > 1
    (Fraction(-BIG - 1, BIG + 3), Fraction(BIG, 7)),  # general, big
]


def both(re_im):
    re, im = re_im
    return sc(re, im), PairScalar(re, im)


def assert_matches(new, old):
    assert (new.re, new.im) == (old.re, old.im)
    assert isinstance(new.re, Fraction) and isinstance(new.im, Fraction)
    assert all(type(x) is int for x in (new.a, new.b, new.d))
    assert new.d > 0 and gcd(new.a, new.b, new.d) == 1
    if not old:
        assert (new.a, new.b, new.d) == (0, 0, 1)
    assert bool(new) is bool(old)
    assert format_scalar(new) == format_scalar(old)


def _on_every_path(*extra):
    """Pin each pair of PATHS as an example, so every path runs."""
    def pin(test):
        for x in PATHS:
            for y in PATHS:
                test = example(x, y, *extra)(test)
        return test
    return pin


@settings(max_examples=300, deadline=None)
@given(parts, parts)
@_on_every_path()
def test_operations_match_pair_oracle(x, y):
    (nx, ox), (ny, oy) = both(x), both(y)
    assert_matches(nx, ox)
    assert_matches(nx + ny, ox + oy)
    assert_matches(nx - ny, ox - oy)
    assert_matches(nx - nx, ox - ox)
    assert_matches(-nx, -ox)
    assert_matches(nx * ny, ox * oy)
    assert_matches(nx.conjugate(), ox.conjugate())
    if oy:
        assert_matches(nx / ny, ox / oy)
        assert_matches(ny.inverse(), oy.inverse())
    assert (nx == ny) is (ox == oy)


@settings(max_examples=200, deadline=None)
@given(parts, parts, st.integers(1, BIG))
@_on_every_path(BIG + 1)
def test_equal_values_are_equal_and_hash_alike(x, y, k):
    nx, ny = sc(*x), sc(*y)
    routes = [
        nx,
        parse_scalar(format_scalar(nx)),
        (nx + ny) - ny,
        Scalar(nx.a * k, nx.b * k, nx.d * k),
        Scalar(-nx.a * k, -nx.b * k, -nx.d * k),
    ]
    if ny:
        routes.append(nx * ny / ny)
    for v in routes:
        assert v == nx and hash(v) == hash(nx)
    assert (nx == ny) is (PairScalar(*x) == PairScalar(*y))
    if nx == ny:
        assert hash(nx) == hash(ny)


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(rationals, rationals), parts))
@example(PATHS[0])
@example(PATHS[1])
@example(PATHS[2])
def test_format_parse_round_trip(x):
    new, old = both(x)
    text = format_scalar(new)
    assert parse_pair(text) == old
    assert_matches(parse_scalar(text), old)
    assert parse_scalar(text) == new


_NUM = r"[0-9]{1,25}(/[0-9]{1,25})?"
literals = st.from_regex(
    rf"-?{_NUM}|-?({_NUM})?i|-?{_NUM}[+-]({_NUM})?i", fullmatch=True
)


@settings(max_examples=150, deadline=None)
@given(literals)
def test_parse_matches_pair_oracle_on_any_literal(text):
    # unreduced parts, zero parts and zero denominators included
    try:
        old = parse_pair(text)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            parse_scalar(text)
        return
    assert_matches(parse_scalar(text), old)

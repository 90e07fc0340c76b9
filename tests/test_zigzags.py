import hashlib
import time
from collections import Counter

import pytest

from bicomplex import (
    InternalError,
    Matrix,
    Square,
    ValidationError,
    Zigzag,
    all_tables,
    build_C,
    catalog_complex,
    classify,
    decompose,
    direct_sum,
    inverse,
    page1_by_shape,
    random_page1_complex,
    random_solvable,
    random_zigzag_sum,
    report_lines,
    shape_tables,
    shuffle_basis,
    sc,
    write_bicomplex,
)
from bicomplex import linalg, zigzags
from conftest import ONE_1x1, count_calls, staircase
from bicomplex import DoubleComplex


MICRO_PARTS = {
    "dot": ["zigzag 1 0 0"],
    "hline": ["zigzag 1 0 0 del"],
    "vline": ["zigzag 1 0 0 delbar"],
    "square": ["square 0 0 1"],
    "wedge": ["zigzag 1 0 1 delbar del"],
    "vee": ["zigzag 1 0 1 del delbar"],
}


@pytest.mark.parametrize("name", sorted(MICRO_PARTS))
def test_micro_decompositions(name):
    dc, _ = catalog_complex(name)
    d = decompose(dc)
    assert report_lines(d) == MICRO_PARTS[name]
    assert page1_by_shape(d) is (name not in ("wedge", "vee"))


def test_staircase_decompositions():
    assert report_lines(decompose(staircase(4))) == ["zigzag 1 0 1 del delbar del"]
    assert report_lines(decompose(staircase(6))) == [
        "zigzag 1 0 2 del delbar del delbar del"
    ]
    assert not page1_by_shape(decompose(staircase(4)))


def test_zigzag_reported_from_lex_smaller_endpoint():
    # the same staircase shifted: canonical start is the smaller endpoint,
    # never an interior vertex
    d = decompose(staircase(4, start=(3, 5)))
    (shape, mult), = d.parts
    assert isinstance(shape, Zigzag)
    # helper normalizes q down to 0: vertices (3,1),(4,1),(4,0),(5,0)
    assert shape.start == (3, 1)
    assert shape.steps == ("del", "delbar", "del")


def test_decompose_rejects_invalid_complex():
    bad = DoubleComplex.build(
        {(0, 0): 1, (1, 0): 1, (2, 0): 1},
        {(0, 0): ONE_1x1, (1, 0): ONE_1x1},
        {},
    )
    with pytest.raises(ValidationError):
        decompose(bad)


def test_heisenberg_invariant_decomposition_census():
    dc, _ = catalog_complex("heisenberg3-invariant")
    d = decompose(dc)
    kinds = Counter()
    for shape, mult in d.parts:
        if isinstance(shape, Square):
            kinds["square"] += mult
        else:
            kinds[len(shape.steps)] += mult
    assert kinds == {"square": 1, 0: 36, 1: 12}
    assert page1_by_shape(d)
    # bookkeeping: every vertex of every part, with multiplicity, fills the space
    total = sum(
        (4 if isinstance(shape, Square) else len(shape.steps) + 1) * mult
        for shape, mult in d.parts
    )
    assert total == sum(dc.spaces.values()) == 64


def test_change_of_basis_conjugates_to_model():
    dc, _ = catalog_complex("wedge")
    d = decompose(dc)
    for (p, q), basis in d.change_of_basis.items():
        for which, tgt in (("del", (p + 1, q)), ("delbar", (p, q + 1))):
            if tgt not in dc.spaces:
                continue
            m = dc.del_map(p, q) if which == "del" else dc.delbar_map(p, q)
            model_m = (
                d.model.del_map(p, q) if which == "del" else d.model.delbar_map(p, q)
            )
            got = inverse(d.change_of_basis[tgt]) @ m @ basis
            assert got == model_m


def test_model_has_identical_tables():
    for name in ("wedge", "square", "heisenberg3-invariant"):
        dc, _ = catalog_complex(name)
        d = decompose(dc)
        assert all_tables(d.model) == all_tables(dc)


def test_shuffle_basis_is_a_true_isomorphism():
    dc, _ = catalog_complex("heisenberg3-invariant")
    shuffled = shuffle_basis(dc, 5)
    assert shuffled.validate() == []
    assert all_tables(shuffled) == all_tables(dc)
    # and not a no-op
    assert shuffled.del_maps != dc.del_maps


# seed 116 is the first whose phase B absorbs into a sink-terminated string;
# seeds 0-39 reach only the source-terminated absorber (seed 37)
@pytest.mark.parametrize("seed", [*range(40), 116])
def test_random_sum_recovery(seed):
    dc, expected = random_zigzag_sum(seed)
    shuffled = shuffle_basis(dc, seed + 10**6)
    d = decompose(shuffled)
    got = Counter()
    for shape, mult in d.parts:
        got[shape] += mult
    assert got == Counter(expected)
    v, _, _ = classify(shuffled)
    assert v.page1_by_definition == v.page1_by_dims == page1_by_shape(d)


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_phase_b_forms_no_inverse(monkeypatch, seed):
    # a zigzag-only sum has no squares, so phase A inverts nothing, and
    # neither phase B nor the certification may invert anything
    dc, _ = random_zigzag_sum(seed, (1, 2, 3, 4, 5))
    shuffled = shuffle_basis(dc, seed + 10**6)
    calls = []

    def counting(a):
        calls.append(a.nrows)
        return inverse(a)

    monkeypatch.setattr("bicomplex.zigzags.inverse", counting)
    d = decompose(shuffled)
    assert not any(isinstance(shape, Square) for shape, _ in d.parts)
    assert calls == []


def test_random_page1_complexes_stay_page1():
    for seed in range(8):
        dc = random_page1_complex(seed)
        d = decompose(dc)
        assert page1_by_shape(d)
        v, _, _ = classify(dc)
        assert v.page1_by_definition


def test_recovery_timing_budget():
    t0 = time.time()
    for seed in range(200, 215):
        dc, expected = random_zigzag_sum(seed)
        d = decompose(shuffle_basis(dc, seed))
        got = Counter()
        for shape, mult in d.parts:
            got[shape] += mult
        assert got == Counter(expected)
    assert time.time() - t0 < 10.0


@pytest.mark.parametrize("seed", [0, 1, 116, 20, 24])
def test_decompose_solves_and_inverts_nothing(monkeypatch, seed):
    # phase A reads its squares, kernels and complement off one echelon,
    # phase B its candidates off echelons, the active subcomplex keeps its
    # own coordinates and the certification forms no inverse (seeds 20
    # and 24 peel squares at two and three anchors, the others at none)
    dc, _ = random_zigzag_sum(seed)
    shuffled = shuffle_basis(dc, seed + 10**6)
    calls = count_calls(monkeypatch, linalg, ("solve_right", "inverse", "rref", "rcef"))
    d = decompose(shuffled)
    assert not calls
    anchors = sum(isinstance(shape, Square) for shape, _ in d.parts)
    assert anchors == {20: 2, 24: 3}.get(seed, 0)


def test_shrink_refuses_a_leaking_basis(monkeypatch):
    # a square at (0,0) and a delbar line (1,0) -> (1,1): when phase A
    # shrinks (1,1), the line's image enters it from the active (1,0)
    dc, _ = direct_sum([zigzags._square_complex(0, 0), zigzags._zigzag_complex([(1, 0), (1, 1)])])
    shuffled = shuffle_basis(dc, 7)
    assert len(decompose(shuffled).parts) == 2
    shrink = zigzags._shrink

    def corrupted(act, cur, pq, k):
        # where a map comes in, swap k for the unit columns at the rows
        # that are no low of k: they span a complement of k's span
        p, q = pq
        if not (cur.del_map(p - 1, q).is_zero and cur.delbar_map(p, q - 1).is_zero):
            lows = {max(r for r, c in k.entries if c == j) for j in range(k.ncols)}
            k = zigzags._units(k.nrows, [i for i in range(k.nrows) if i not in lows])
        shrink(act, cur, pq, k)

    monkeypatch.setattr(zigzags, "_shrink", corrupted)
    with pytest.raises(InternalError, match="leaks outside the active subspace"):
        decompose(shuffled)


def test_spent_space_drops_its_maps_and_refuses_a_leak():
    # shrinking a space to nothing drops its maps from the active complex,
    # so nothing later multiplies them; a nonzero map into it is a leak
    dc = zigzags._zigzag_complex([(0, 0), (1, 0), (1, 1)])

    def active():
        act = {pq: Matrix.identity(n) for pq, n in dc.spaces.items()}
        return act, DoubleComplex(dict(dc.spaces), dict(dc.del_maps), dict(dc.delbar_maps))

    def spend(act, cur, pq):
        zigzags._shrink(act, cur, pq, Matrix.zero(cur.dim(*pq), 0))

    with pytest.raises(InternalError, match="leaks outside the active subspace"):
        spend(*active(), (1, 0))
    act, cur = active()
    spend(act, cur, (0, 0))
    assert list(cur.delbar_maps) == [(1, 0)]
    spend(act, cur, (1, 0))
    assert cur.del_maps == cur.delbar_maps == {}
    assert (act[(1, 0)].nrows, act[(1, 0)].ncols, cur.dim(1, 0)) == (1, 0, 0)


def _corrupt_zigzags(monkeypatch, corrupt):
    """Let corrupt edit the raw parts phase B hands to the certification."""
    phase_b = zigzags._phase_b

    def corrupted(dc, act, cur):
        parts = phase_b(dc, act, cur)
        corrupt(parts)
        return parts

    monkeypatch.setattr(zigzags, "_phase_b", corrupted)


def test_certificate_refuses_dependent_vectors(monkeypatch):
    # one vertex vector replaced by another's at the same bidegree: as
    # many vectors as dims, but they span too little
    shuffled = shuffle_basis(random_zigzag_sum(0)[0], 10**6)

    def duplicate(parts):
        seen = {}
        for part in parts:
            for i, (bid, vec) in enumerate(part.verts):
                if bid in seen:
                    part.verts[i] = (bid, seen[bid])
                    return
                seen[bid] = vec
        raise AssertionError("no bidegree meets two vertices")

    _corrupt_zigzags(monkeypatch, duplicate)
    with pytest.raises(InternalError, match="the parts give no basis"):
        decompose(shuffled)


def test_certificate_refuses_a_scaled_vector(monkeypatch):
    # doubling one vertex of a line keeps a basis, but the differential
    # then maps the vertices by 2 or 1/2, not by the model's 1
    shuffled = shuffle_basis(random_zigzag_sum(0)[0], 10**6)

    def double(parts):
        part = next(part for part in parts if len(part.verts) > 1)
        bid, vec = part.verts[0]
        part.verts[0] = (bid, {i: sc(2) * x for i, x in vec.items()})

    _corrupt_zigzags(monkeypatch, double)
    with pytest.raises(InternalError, match="not block-diagonal"):
        decompose(shuffled)


def test_certificate_refuses_a_row_outside_its_space(monkeypatch):
    # a vertex whose low moves one past its space keeps the rank full, so
    # only the range check keeps it out of C
    shuffled = shuffle_basis(random_zigzag_sum(0)[0], 10**6)

    def shift(parts):
        bid, vec = parts[0].verts[0]
        moved = dict(vec)
        moved[shuffled.spaces[bid]] = moved.pop(max(vec))
        parts[0].verts[0] = (bid, moved)

    _corrupt_zigzags(monkeypatch, shift)
    with pytest.raises(InternalError, match="the parts give no basis"):
        decompose(shuffled)


def test_certificate_covers_maps_the_model_lacks(monkeypatch):
    # a line split into two dots keeps a basis, but the model then stores
    # no map where the input maps one vertex onto the other
    shuffled = shuffle_basis(random_zigzag_sum(0, (2,))[0], 10**6)

    def split(parts):
        i = next(i for i, part in enumerate(parts) if len(part.verts) == 2)
        parts[i:i + 1] = [zigzags._RawPart("zigzag", [vert]) for vert in parts[i].verts]

    _corrupt_zigzags(monkeypatch, split)
    with pytest.raises(InternalError, match="not block-diagonal"):
        decompose(shuffled)


def _walk(start, nverts, first_del, up_first):
    """nverts bidegrees from start, del and delbar steps by turns, up and
    down in total degree by turns."""
    (p, q), verts = start, [start]
    for i in range(nverts - 1):
        sign = (1 if up_first else -1) * (1 if i % 2 == 0 else -1)
        if (i % 2 == 0) == first_del:
            p += sign
        else:
            q += sign
        verts.append((p, q))
    return verts


@pytest.mark.parametrize("start", [(3, 3), (4, 3), (3, 5)])
def test_shape_tables_match_each_shapes_own_complex(start):
    square = Square(*start)
    assert shape_tables([(square, 1)]) == all_tables(zigzags._square_complex(*start))
    for nverts in range(1, 7):
        for first_del in (True, False):
            for up_first in (True, False):
                verts = _walk(start, nverts, first_del, up_first)
                shape = zigzags._zigzag_shape(verts)
                assert shape.vertices in (verts, verts[::-1])
                one = zigzags._zigzag_complex(verts)
                assert shape_tables([(shape, 1)]) == all_tables(one)
                two, _ = direct_sum([one, one, zigzags._square_complex(*start)])
                assert shape_tables([(shape, 2), (square, 1)]) == all_tables(two)


def test_shape_tables_match_the_planted_shapes():
    # the generator's own record of what went in, with no decompose
    for seed in range(200):
        dc, planted = random_zigzag_sum(seed)
        assert shape_tables(Counter(planted).items()) == all_tables(dc)


@pytest.mark.parametrize("name", ["dolbeault", "del", "bott_chern", "aeppli", "de_rham"])
def test_certificate_refuses_a_wrong_table(name):
    # decompose given tables trusts them for nothing: they must be the
    # ones the recovered shapes give
    shuffled = shuffle_basis(random_zigzag_sum(0)[0], 10**6)
    tables = all_tables(shuffled)
    tampered = {**tables, name: dict(tables[name])}
    key = next(iter(tampered[name]))
    tampered[name][key] += 1
    assert len(decompose(shuffled, tables).parts) > 0
    with pytest.raises(InternalError, match="changes a cohomology table"):
        decompose(shuffled, tampered)


# sha256 of write_bicomplex(random_zigzag_sum(*args)[0]): the benchmark's
# inputs come from this generator, so splitting its part builders must not
# move them; the last is the benchmark's fixed 76-dim sweep input
GENERATOR_PINS = {
    (0,): "ae06adf17da6e5a9ff33a84f7c43fc8d8ff68644023c8d29b5055f3df546cbe6",
    (1,): "bfaa3c4b3f0b08a931fa3a5fef08790a13388d58d7858e867bcc01c940eb8943",
    (37,): "b27b66903deef52316eaa94d682f9237762c54f083d25af438aa7aa223d45eed",
    (116,): "8089c2b6b585d55835252a93990469ba8b90de70bc93c0d843696f2fa41d355c",
    (0, (1, 2, "square")): "1767e331f489e760680ce5734588f2d7b3d276e13c2f6de7fb8129f3e7032cf7",
    (19, (1, 2, 3, 4, 5, "square"), 24):
        "44e1df3d066d3b8011c71c27779f3664ed8a358762030b7ebfef2cb062f2aa6e",
}


@pytest.mark.parametrize("args", list(GENERATOR_PINS))
def test_random_zigzag_sum_is_pinned(args):
    text = write_bicomplex(random_zigzag_sum(*args)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_PINS[args]


# sha256 over the write_bicomplex texts of shuffle_basis(dc, seed), in
# order: the benchmark builds its sweep and dense inputs this way, so a
# rewrite of shuffle_basis must keep its random draws and its output
SHUFFLE_PINS = {
    "random_zigzag_sum(0..9)":
        "e1ddea8b1db7e8b1a141536a2d1d31cacb6f5f0d5cc2b4e16df553357747ac02",
    "random_zigzag_sum(19, max_parts=24)":
        "2877a058f811100571a5890a77634c9ab9491d11fcd300f7d30a3f2e81e5563b",
    "build_C(random_solvable(0))":
        "fdf8f8a196d4933b08d1bfff38c125e9f98e7d04435b85c0a9596141577465e1",
}


def _shuffle_pin_inputs(name):
    if name == "random_zigzag_sum(0..9)":
        return [(random_zigzag_sum(s)[0], s + 10**6) for s in range(10)]
    if name == "random_zigzag_sum(19, max_parts=24)":
        return [(random_zigzag_sum(19, max_parts=24)[0], 10**6)]
    return [(build_C(random_solvable(0))[0], 10**6)]


@pytest.mark.parametrize("name", list(SHUFFLE_PINS))
def test_shuffle_basis_is_pinned(name):
    digest = hashlib.sha256()
    for dc, seed in _shuffle_pin_inputs(name):
        digest.update(write_bicomplex(shuffle_basis(dc, seed)).encode())
    assert digest.hexdigest() == SHUFFLE_PINS[name]


@pytest.mark.parametrize("seed", [0, 20, 116])
def test_shuffle_decompose_classify_solve_and_invert_nothing(monkeypatch, seed):
    # shuffle_basis builds u and its inverse by the same row and column
    # operations; decompose and classify run on echelons alone
    dc, _ = random_zigzag_sum(seed)
    calls = count_calls(monkeypatch, linalg, ("solve_right", "inverse", "rref", "rcef"))
    shuffled = shuffle_basis(dc, seed + 10**6)
    decompose(shuffled)
    classify(shuffled)
    assert not calls

import random
import time
from math import comb

import pytest

from bicomplex import (
    BettiVector,
    LieAlgebra,
    MINUS_ONE,
    Matrix,
    ONE,
    ValidationError,
    abelian,
    all_tables,
    catalog_complex,
    ce_complex,
    check_real_structure,
    heisenberg3,
    invariant_bicomplex,
    is_semisimple,
    killing_form,
    lie_by_name,
    linalg,
    nakamura_preset,
    nakamura_splitting_preset,
    random_solvable,
    rank,
    realified_sl2,
    relative_ce_cohomology,
    sc,
    semisimple_e2_model,
    sl2,
    su2_subalgebra,
    theoremB_verdict,
    validate_lie,
    validate_solv,
    validate_splitting,
)
from bicomplex.exterior import grade_basis
from bicomplex.lie import realify, series_terminates, validate_subalgebra
from conftest import count_calls, run_cli


def test_validate_lie_catches_jacobi_failure():
    # [X1,X2] = X3 together with [X1,X3] = X1 breaks the Jacobi identity
    bad = LieAlgebra(3, {(1, 2): {3: ONE}, (1, 3): {1: ONE}})
    problems = validate_lie(bad)
    assert problems and any("jacobi" in p.lower() for p in problems)
    assert validate_lie(sl2()) == []
    assert validate_lie(heisenberg3()) == []


def test_validate_lie_names_each_failing_triple_in_order():
    bad = LieAlgebra(3, {(1, 2): {3: ONE}, (1, 3): {1: ONE}})
    assert validate_lie(bad) == ["axiom: Jacobi fails on (1,2,3)"]
    # on (2,3,4) every term vanishes: [X2,X3] = 0, [[X3,X4],X2] = [X2,X2]
    # and [[X4,X2],X3] = -[X5,X3]
    worse = LieAlgebra(5, {(1, 2): {3: ONE}, (1, 3): {1: ONE},
                           (2, 4): {5: ONE}, (3, 4): {2: ONE}})
    assert validate_lie(worse) == [
        "axiom: Jacobi fails on (1,2,3)",
        "axiom: Jacobi fails on (1,2,4)",
        "axiom: Jacobi fails on (1,3,4)",
    ]


def test_validate_lie_catches_bad_indices():
    assert validate_lie(LieAlgebra(2, {(1, 2): {3: ONE}})) != []
    assert validate_lie(LieAlgebra(2, {(2, 2): {1: ONE}})) != []


def test_ce_complex_dimensions_and_cohomology():
    g = heisenberg3()
    ce = ce_complex(g)
    assert {p: ce.dim(p) for p in range(4)} == {0: 1, 1: 3, 2: 3, 3: 1}
    assert ce.validate() == []
    assert ce.cohomology() == {0: 1, 1: 2, 2: 2, 3: 1}
    assert ce_complex(sl2()).cohomology() == {0: 1, 3: 1}
    assert ce_complex(abelian(2)).cohomology() == {0: 1, 1: 2, 2: 1}


def test_invariant_bicomplex_shape_and_symmetry():
    g = heisenberg3()
    dc, rs = invariant_bicomplex(g)
    assert all(
        dc.dim(p, q) == comb(3, p) * comb(3, q) for p in range(4) for q in range(4)
    )
    assert dc.validate() == []
    assert check_real_structure(dc, rs) == []
    t = all_tables(dc)
    # conjugation symmetry of the two one-sided tables
    for p in range(4):
        for q in range(4):
            assert t["dolbeault"].get((p, q), 0) == t["del"].get((q, p), 0)


def test_invariant_bicomplex_sigma_is_the_signed_coordinate_swap():
    # basis vector (S, T) of (p, q) goes to (-1)^{pq} times (T, S) of (q, p),
    # with tensor coordinates flattened as index(S) * dim(q) + index(T)
    dc, rs = invariant_bicomplex(heisenberg3())
    dim = {p: len(grade_basis(3, p)) for p in range(4)}
    for (p, q) in dc.spaces:
        expected = {
            (j * dim[p] + i, i * dim[q] + j): MINUS_ONE if (p * q) % 2 else ONE
            for i in range(dim[p])
            for j in range(dim[q])
        }
        assert rs.sigma[(p, q)].entries == expected, (p, q)


def test_heisenberg_invariant_de_rham_is_iwasawa_betti():
    dc, _ = catalog_complex("heisenberg3-invariant")
    assert all_tables(dc)["de_rham"] == {0: 1, 1: 4, 2: 8, 3: 10, 4: 8, 5: 4, 6: 1}


def test_realify_doubles_dimension():
    r = realify(sl2())
    assert r.dim == 6
    assert validate_lie(r) == []
    assert r == realified_sl2()


def test_killing_form_and_semisimplicity():
    assert rank(killing_form(sl2())) == 3
    assert is_semisimple(sl2())
    assert killing_form(heisenberg3()).is_zero
    assert not is_semisimple(heisenberg3())
    assert not is_semisimple(abelian(3))
    assert is_semisimple(realified_sl2())


def test_su2_subalgebra_is_closed():
    incl = su2_subalgebra()
    assert incl.nrows == 6 and incl.ncols == 3
    assert validate_subalgebra(realified_sl2(), incl) == []
    # span{E, F} is not closed: [E,F] = H falls outside
    ef = Matrix(6, 2, {(1, 0): ONE, (2, 1): ONE})
    assert validate_subalgebra(realified_sl2(), ef) != []


def test_relative_ce_cohomology_sl2_su2():
    rel = relative_ce_cohomology(realified_sl2(), su2_subalgebra())
    assert rel == {0: 1, 3: 1}
    assert rel == ce_complex(sl2()).cohomology()


def test_betti_vector_validation():
    BettiVector((1, 0, 0, 1))
    with pytest.raises(ValidationError):
        BettiVector((2, 0, 0, 1))
    with pytest.raises(ValidationError):
        BettiVector((1, -1))


def test_semisimple_e2_model_symmetric_case():
    m = semisimple_e2_model(sl2(), BettiVector((1, 0, 0, 1)))
    assert m.page1
    assert m.symmetry_failures == []
    assert m.dims == {(0, 0): 1, (0, 3): 1, (3, 0): 1, (3, 3): 1}
    assert m.degeneration_page == 2


@pytest.mark.parametrize("r", [1, 2, 3])
def test_semisimple_e2_model_obstructions(r):
    m = semisimple_e2_model(sl2(), BettiVector((1, r, r, 1)))
    assert not m.page1
    # exactly the bidegrees where h^p b_q != h^q b_p, with h = (1,0,0,1)
    assert sorted(m.symmetry_failures) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert m.dims[(0, 1)] == r and m.dims.get((1, 0), 0) == 0


@pytest.mark.parametrize("g", [sl2(), heisenberg3(), abelian(2)], ids=["sl2", "heisenberg3", "abelian2"])
def test_semisimple_e2_model_failures_match_the_full_scan(g):
    rng = random.Random(5)
    for _ in range(40):
        betti = BettiVector((1, *(rng.choice([0, 0, 1, 2]) for _ in range(rng.randint(0, 7)))))
        m = semisimple_e2_model(g, betti)
        degrees = range(max(g.dim + 1, len(betti.b)))
        assert m.symmetry_failures == [
            (p, q) for p in degrees for q in degrees
            if p < q and m.dims.get((p, q), 0) != m.dims.get((q, p), 0)
        ]


def test_ssmodel_scales_with_the_betti_vector(capsys):
    # the symmetry scan once walked every pair of degrees: 6 s at 8000 entries
    betti = ",".join(["1"] + [str(i % 3) for i in range(1, 20000)])
    t0 = time.perf_counter()
    code, out = run_cli(capsys, ["ssmodel", "--algebra", "sl2", "--betti", betti,
                                 "--format", "machine"])
    assert time.perf_counter() - t0 < 10.0
    assert code == 0 and out.splitlines()[-1] == "page1_symmetry false"


def test_theoremB_verdict():
    g, incl = realified_sl2(), su2_subalgebra()
    assert theoremB_verdict(g, incl, BettiVector((1, 0, 0, 1)))
    for r in (1, 2, 3):
        assert not theoremB_verdict(g, incl, BettiVector((1, r, r, 1)))
    with pytest.raises(ValidationError):
        theoremB_verdict(heisenberg3(), Matrix.zero(3, 0), BettiVector((1, 0, 0, 1)))


@pytest.mark.parametrize(
    "g, solvable, nilpotent",
    [(sl2(), False, False), (heisenberg3(), True, True),
     (nakamura_preset("real").algebra, True, False)],
    ids=["sl2", "heisenberg3", "nakamura"],
)
def test_series_terminates(g, solvable, nilpotent):
    assert series_terminates(g, derived=True) == solvable
    assert series_terminates(g, derived=False) == nilpotent


def test_lie_checks_make_no_reduced_form(monkeypatch):
    # series, closure and basic forms are read off linalg.echelon
    calls = count_calls(monkeypatch, linalg, ("rref", "rcef", "solve_right", "inverse"))
    for seed in range(10):
        assert validate_solv(random_solvable(seed)) == []
    for case in ("identically", "real"):
        assert validate_splitting(nakamura_splitting_preset(case)) == []
    assert theoremB_verdict(realified_sl2(), su2_subalgebra(), BettiVector((1, 0, 0, 1)))
    assert not calls


def test_lie_by_name():
    assert lie_by_name("abelian:2") == abelian(2)
    assert lie_by_name("heisenberg3") == heisenberg3()
    assert lie_by_name("sl2") == sl2()
    with pytest.raises(ValidationError):
        lie_by_name("so8")


def test_sl2_structure_constants():
    g = sl2()
    assert g.c(1, 2) == {2: sc(2)}
    assert g.c(2, 1) == {2: sc(-2)}
    assert g.c(2, 3) == {1: ONE}
    assert g.c(1, 1) == {}

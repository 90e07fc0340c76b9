"""Complex Lie algebras and their Chevalley-Eilenberg cohomology.

Structure constants are stored sparsely for i < j only; antisymmetry is
implicit.  The CE differential on generators is d xi^k = -sum_{i<j}
c_{ij}^k xi^i xi^j, extended as a degree-1 antiderivation; Jacobi is
exactly d^2 = 0: (d^2 xi^k)(X_i, X_j, X_l) is the X_k coordinate of the
Jacobiator, so `validate_lie` reads the failing triples off the nonzero
rows of d^2 on 1-forms.  A vector of g is a `Column` of coordinates, row
k - 1 for X_k.

The invariant bicomplex of g is CE(g) tensor conj(CE(g)) with conjugation
of forms as its real structure: the untwisted case of the one rule of
`labeled_tensor_sum`, labels unique as pairs of basis subsets.  It models
left-invariant forms on a quotient of the corresponding complex Lie group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import DoubleComplex, RealStructure, SimpleComplex, labeled_tensor_sum
from .errors import InternalError, ValidationError
from .exterior import (
    TwoForms,
    contraction_matrix,
    d_matrix,
    exterior_complex,
    grade_basis,
)
from .linalg import Column, Matrix, _columns, kernel, lows, rank, rank_columns, vstack
from .scalars import ONE, Scalar, ZERO, sc


@dataclass
class LieAlgebra:
    """dim n with brackets[(i, j)][k] = c_{ij}^k for 1 <= i < j <= n."""

    dim: int
    brackets: dict[tuple[int, int], dict[int, Scalar]]

    def c(self, i: int, j: int) -> dict[int, Scalar]:
        """[X_i, X_j] coordinates, any index order."""
        if i == j:
            return {}
        if i < j:
            return {k: v for k, v in self.brackets.get((i, j), {}).items() if v}
        return {k: -v for k, v in self.brackets.get((j, i), {}).items() if v}

    def bracket(self, x: Column, y: Column) -> Column:
        """[x, y] of two coordinate vectors."""
        out: Column = {}
        for i, xi in x.items():
            for j, yj in y.items():
                for k, ck in self.c(i + 1, j + 1).items():
                    out[k - 1] = out.get(k - 1, ZERO) + xi * yj * ck
        return {k: v for k, v in out.items() if v}

    def ad_matrix(self, i: int) -> Matrix:
        """Matrix of ad(X_i) on basis coordinates."""
        entries = {}
        for j in range(1, self.dim + 1):
            for k, v in self.c(i, j).items():
                entries[(k - 1, j - 1)] = v
        return Matrix(self.dim, self.dim, entries)

    def ce_forms(self) -> TwoForms:
        out: TwoForms = {}
        for (i, j), cs in self.brackets.items():
            for k, v in cs.items():
                if v:
                    out.setdefault(k, {})[(i, j)] = -v
        return out


def validate_lie(g: LieAlgebra) -> list[str]:
    problems = []
    n = g.dim
    if n < 0:
        return ["structure: negative dimension"]
    for (i, j), cs in g.brackets.items():
        if not (1 <= i < j <= n):
            problems.append(f"structure: bad bracket index ({i},{j})")
        for k in cs:
            if not (1 <= k <= n):
                problems.append(f"structure: bad bracket target {k}")
    if problems:
        return problems
    forms, triples = g.ce_forms(), grade_basis(n, 3)
    # entry ((i,j,k), l) of d^2 is X_l's coordinate of the Jacobiator of X_i, X_j, X_k
    d2 = d_matrix(n, forms, 2) @ d_matrix(n, forms, 1)
    return [f"axiom: Jacobi fails on ({i},{j},{k})"
            for i, j, k in (triples[r] for r in sorted({r for r, _ in d2.entries}))]


def series_terminates(g: LieAlgebra, derived: bool) -> bool:
    """Whether the derived series of g reaches zero (g is solvable).

    With derived=False it is the lower central series (g is nilpotent).
    Each term is spanned by the brackets [x, y] with y in the previous
    term and x in it too (derived) or in g (lower central); a term that
    does not shrink means the series never reaches zero.
    """
    b = units = [{i: ONE} for i in range(g.dim)]
    while b:
        brackets = [g.bracket(x, y) for x in (b if derived else units) for y in b]
        nxt = [v for v, low in zip(brackets, lows(brackets)) if low is not None]
        if len(nxt) >= len(b):
            return False
        b = nxt
    return True


def ce_complex(g: LieAlgebra) -> SimpleComplex:
    problems = validate_lie(g)
    if problems:
        raise ValidationError("; ".join(problems))
    sc_, _ = exterior_complex(g.dim, g.ce_forms())
    return sc_.check()


# -- invariant bicomplex --------------------------------------------------------


def invariant_bicomplex(g: LieAlgebra) -> tuple[DoubleComplex, RealStructure]:
    t = ce_complex(g)
    basis = {p: grade_basis(g.dim, p) for p in range(g.dim + 1)}
    return labeled_tensor_sum([(t, {}, basis, t.conjugate(), {}, basis)])


# -- realification and subalgebras ---------------------------------------------


def realify(g: LieAlgebra) -> LieAlgebra:
    """The real Lie algebra underlying g, as a 2n-dim algebra over Q(i).

    Basis order e_1..e_n, f_1..f_n with e_j = X_j and f_j = i X_j; scalars
    stay in Q(i) but only the real span of the new basis is meaningful.
    """
    n = g.dim
    out: dict[tuple[int, int], dict[int, Scalar]] = {}

    def put(a: int, b: int, coeffs: dict[int, Scalar]) -> None:
        clean = {k: v for k, v in coeffs.items() if v}
        if clean:
            out[(a, b)] = clean

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            c = g.c(i, j)
            if i < j:
                put(i, j, {k: sc(v.re) for k, v in c.items()}
                    | {n + k: sc(v.im) for k, v in c.items() if v.im})
                put(n + i, n + j,
                    {k: sc(-v.re) for k, v in c.items()}
                    | {n + k: sc(-v.im) for k, v in c.items() if v.im})
            # [e_i, f_j] for every ordered pair (i != j handled by c())
            put(i, n + j,
                {k: sc(-v.im) for k, v in c.items() if v.im}
                | {n + k: sc(v.re) for k, v in c.items()})
    return LieAlgebra(2 * n, out)


def validate_subalgebra(g: LieAlgebra, incl: Matrix) -> list[str]:
    problems = []
    if incl.nrows != g.dim:
        return [f"structure: inclusion has {incl.nrows} rows, expected {g.dim}"]
    m, gens = incl.ncols, _columns(incl)
    if rank_columns(gens) != m:
        problems.append("structure: generators are dependent")
        return problems
    for a in range(m):
        for b in range(a + 1, m):
            if rank_columns(gens + [g.bracket(gens[a], gens[b])]) != m:
                problems.append(f"axiom: bracket of generators {a} and {b} leaves the span")
    return problems


def relative_ce_cohomology(g: LieAlgebra, incl: Matrix) -> dict[int, int]:
    """Cohomology of the k-basic forms on g (k given by inclusion columns).

    The degree-p space is the set of p-forms annihilated by contraction
    with every generator of k and by the corresponding Lie derivatives:
    one `kernel`, whose columns are each 1 at their low and 0 at the
    others' lows.  So the restricted CE differential is read off those rows.
    """
    problems = validate_lie(g)
    if problems:
        raise ValidationError("; ".join(problems))
    problems = validate_subalgebra(g, incl)
    if problems:
        raise ValidationError("; ".join(problems))
    n = g.dim
    dgen = g.ce_forms()
    d = {p: d_matrix(n, dgen, p) for p in range(n + 1)}
    gens = [{i + 1: x for i, x in z.items()} for z in _columns(incl)]  # from 1, as exterior's
    basic: dict[int, Matrix] = {}
    for p in range(n + 1):
        rows = [Matrix.zero(0, comb(n, p))]  # no condition: every p-form
        for x in gens:
            lx = contraction_matrix(n, x, p + 1) @ d[p]
            if p >= 1:
                lx = lx + d[p - 1] @ contraction_matrix(n, x, p)
            rows += [contraction_matrix(n, x, p), lx]
        basic[p] = kernel(vstack(rows))
    spaces = {p: basic[p].ncols for p in basic}
    maps: dict[int, Matrix] = {}
    for p in range(n):
        img = d[p] @ basic[p]
        if img.is_zero:
            continue
        lows = [0] * basic[p + 1].ncols
        for r, c in basic[p + 1].entries:
            lows[c] = max(lows[c], r)
        coeffs = img.rows(lows)
        if basic[p + 1] @ coeffs != img:
            raise InternalError(f"CE differential leaves the basic forms at degree {p}")
        maps[p] = coeffs
    return SimpleComplex.build(spaces, maps).check().cohomology()


# -- semisimplicity and the page-2 model ----------------------------------------


def killing_form(g: LieAlgebra) -> Matrix:
    n = g.dim
    ads = [g.ad_matrix(i) for i in range(1, n + 1)]
    entries = {}
    for a in range(n):
        for b in range(a, n):
            m = ads[a] @ ads[b]
            tr = ZERO
            for i in range(n):
                tr = tr + m.get(i, i)
            if tr:
                entries[(a, b)] = tr
                if a != b:
                    entries[(b, a)] = tr
    return Matrix(n, n, entries)


def is_semisimple(g: LieAlgebra) -> bool:
    if g.dim == 0:
        return False
    return rank(killing_form(g)) == g.dim


@dataclass
class BettiVector:
    """User-supplied Betti numbers b_0, b_1, ...; b_0 must be 1."""

    b: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.b or self.b[0] != 1:
            raise ValidationError("Betti vector must start with b_0 = 1")
        if any(x < 0 for x in self.b):
            raise ValidationError("Betti numbers must be nonnegative")

    def get(self, q: int) -> int:
        return self.b[q] if 0 <= q < len(self.b) else 0


@dataclass
class E2Model:
    """Second-page model dims[p,q] = h^p(CE) * b_q, degenerating there."""

    dims: dict[tuple[int, int], int]
    degeneration_page: int
    symmetry_failures: list[tuple[int, int]]
    page1: bool


def semisimple_e2_model(g: LieAlgebra, betti: BettiVector) -> E2Model:
    h = ce_complex(g).cohomology()
    dims: dict[tuple[int, int], int] = {}
    for p in range(g.dim + 1):
        for q in range(len(betti.b)):
            d = h.get(p, 0) * betti.get(q)
            if d:
                dims[(p, q)] = d
    # only a pair with a nonzero side can fail: scan the keys and their mirrors
    pairs = sorted({(min(pq), max(pq)) for pq in dims if pq[0] != pq[1]})
    failures = [(p, q) for p, q in pairs if dims.get((p, q), 0) != dims.get((q, p), 0)]
    return E2Model(dims, 2, failures, not failures)


def theoremB_verdict(g: LieAlgebra, incl: Matrix, betti: BettiVector) -> bool:
    """Whether the basic cohomology of (g, k) matches the given Betti numbers."""
    if not is_semisimple(g):
        raise ValidationError("algebra is not semisimple")
    rel = relative_ce_cohomology(g, incl)
    top = max(max(rel, default=0), len(betti.b) - 1)
    return all(rel.get(j, 0) == betti.get(j) for j in range(top + 1))


# -- catalog ---------------------------------------------------------------------


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {})


def heisenberg3() -> LieAlgebra:
    return LieAlgebra(3, {(1, 2): {3: ONE}})


def sl2() -> LieAlgebra:
    # basis H, E, F
    return LieAlgebra(3, {(1, 2): {2: sc(2)}, (1, 3): {3: sc(-2)}, (2, 3): {1: ONE}})


def realified_sl2() -> LieAlgebra:
    return realify(sl2())


def su2_subalgebra() -> Matrix:
    """Compact form inside realified sl2: spanned by iH, E - F, i(E + F)."""
    return Matrix(
        6,
        3,
        {
            (3, 0): ONE,          # f_H = iH
            (1, 1): ONE,          # e_E
            (2, 1): sc(-1),       # -e_F
            (4, 2): ONE,          # f_E
            (5, 2): ONE,          # f_F
        },
    )


LIE_CATALOG = {
    "heisenberg3": heisenberg3,
    "sl2": sl2,
}


def lie_by_name(name: str) -> LieAlgebra:
    if name.startswith("abelian:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad abelian dimension in {name!r}")
        if not 1 <= n <= 3:
            raise ValidationError("abelian catalog covers dimensions 1..3")
        return abelian(n)
    if name in LIE_CATALOG:
        return LIE_CATALOG[name]()
    raise ValidationError(f"unknown algebra {name!r}")

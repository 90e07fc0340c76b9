"""Filtration spectral sequences, Hodge filtrations, purity, classification.

The column spectral sequence is read off one persistence reduction of
the total differential del + delbar (Edelsbrunner-Letscher-Zomorodian,
"Topological persistence and simplification", DCG 2002; Basu-Parida,
"Spectral sequences, exact couples and persistent homology of
filtrations", Expo. Math. 2017).  The cells are the basis vectors of
all spaces, ordered by total degree, then by descending p.  The total
differential d = del + delbar maps each degree into the next, so the
columns of one degree are reduced among themselves, and within a degree
every F^p is a prefix.  Columns are reduced left to right, each pivot
being its lowest nonzero row, and the pages need only those lows:
`spectral_pages` reads them off `linalg.lows`, without the column
operations.  A pivot pair with its low row at (p_i, q_i) and its column
at (p_j, q_j) has length r = p_i - p_j: it is a d_r from (p_j, q_j) to
(p_i, q_i), so it adds 1 to E_s at both bidegrees for every 1 <= s <= r
and 1 to the rank of d_r at (p_j, q_j).
Pairs of length 0 are cancelled by delbar already on E_0.  Unpaired
cells count on every page; they make up E_infinity.

Both reductions clear (Chen-Kerber, "Persistent homology computation
with a twist", EuroCG 2011; Bauer-Kerber-Reininghaus, "Clear and
compress: computing persistent homology in chunks", 2014): the degrees
are reduced in ascending order, and a column whose cell is already the
low of a column of the degree below is skipped.  That column's reduced
R = d V has low j and d R = 0, so d e_j lies in the span of the columns
before j in its degree: column j would reduce to zero, and its V_j, a
boundary, would be thrown away.  So N - #pairs columns are reduced, for
N cells.  This needs d^2 = 0, i.e. a validated complex.

Both filtrations are handled by one engine: the row sequence is the
column sequence of the transposed complex and is reported in the
transposed lattice.  With a real structure, conjugation identifies the
transpose with the complex, so `classify` checks that the row pages
equal the column pages, dims and d_r ranks.

`classify` checks both page lists against the cohomology tables: E_1
against the Dolbeault table (the del table, transposed, for the row
pages) and E_infinity against de Rham.  Every entry point runs
`dc.check()` first, which validates a complex once (see
`DoubleComplex`); the four bidegree tables, de Rham and the Hodge
pieces are likewise computed once per complex and kept in its memo, by
whichever engine needs them first.  De Rham is the unpaired cells of
one reduction of Tot per total degree, so wherever the row pages are
computed it is read off their own reduction, which fills the memo if it
is the first: `classify` always reads it so (never off the memo), as
does `spectral_pages(dc, "row")`, while the column pages of
`spectral_pages` take it from the memo, or from `de_rham_table`.  The
row pages' E_infinity = de Rham check then compares two bookkeepings of
one reduction; the column pages' check stays independent, a
column-order elimination against a row-order one.  The E_1 checks of
`spectral_pages` use the chain routes `dolbeault_table` and
`del_table`, which are not kept.  `analyse`, the one analysis behind
every report, runs `classify` and then `decompose`, which finds the
tables in the memo: two eliminations of Tot per report.

Hodge pieces and purity need the column operations V as well
(de Silva-Morozov-Vejdemo-Johansson, "Dualities in persistent
(co)homology", 2011), so `classify` and `hodge_pieces`, and only they,
run the two reductions as `linalg.echelon`s that track V and read both
the pages and the pieces off them.  Unpaired cell j gets the cocycle
z_j = V_j with lowest cell j; the [z_j] with p(j) >= p are a basis of
F^p H.  The reduced columns and the z_j have distinct lows and span the
cocycles, so reducing a cocycle by them in one echelon, with z_j
standing for [z_j], gives its class coordinates.  There F^p H is a
coordinate subspace, F̄^q H is spanned by the transposed reduction's
cocycles w_i with q(i) >= q, the piece F^p H ∩ F̄^q H is checked against
the d-closed (p, q)-forms, and H^k is pure if its pieces sum directly to it.

Pages are emitted up to the hard bound past which every d_r vanishes
for support-bounded complexes.  Early stabilization is NOT trusted:
a length-6 staircase has d_1 = d_2 = 0 but d_3 != 0, so any fixed
number of consecutive stable pages can lie.  The degeneration page is
the last page carrying a nonzero differential, plus one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .complexes import (
    Bidegree,
    DoubleComplex,
    _de_rham,
    _known,
    _known_de_rham,
    _pair,
    _Pairing,
    _tables,
    _total,
    all_tables,
    dolbeault_table,
)
from .errors import InternalError
from .linalg import Column, Echelon, _columns, _combine, _echelon, rank_columns, vstack
from .scalars import ONE
from .zigzags import Decomposition, decompose, page1_by_shape


@dataclass
class SpectralPage:
    r: int
    filtration: str  # "col" or "row"
    dims: dict[Bidegree, int]
    dr_ranks: dict[Bidegree, int]


@dataclass
class HodgePieces:
    dims: dict[Bidegree, int]
    filtration_dims: dict[tuple[int, int], tuple[int, int]]
    pure: dict[int, bool]


@dataclass
class Verdict:
    degeneration_page_F: int
    degeneration_page_Fbar: int
    pure: dict[int, bool]
    ddbar_lemma: bool
    page1_by_definition: bool
    page1_by_dims: bool
    page1_by_shape: bool | None
    e1_degenerate: bool


@dataclass
class _Reduction(_Pairing):
    """A pairing with the reduction's R and V: R with its V per low, and z_j
    per unpaired cell j, each 1 at its low; start is each space's first cell."""

    start: dict[Bidegree, int]
    echelon: Echelon
    cocycles: dict[int, Column]


def _reduce(dc: DoubleComplex, filtration: str) -> _Reduction:
    """The persistence reduction of one filtration, tracking V, with
    clearing: one echelon of the total differential in cell order.  The
    lows give the pairs; the V_j of a column j that reduces to zero, 1 at
    its low j, is z_j."""
    dc, cells, start, cols = _total(dc, filtration)
    ech, pairs, cocycles = Echelon(), [], {}
    bounded: set[int] = set()
    for j, col in enumerate(cols):
        if j in bounded:
            continue
        ops = {j: ONE}
        low = ech.add(col, ops)  # R per low, V as ops
        if low is None:
            cocycles[j] = ops
        else:
            pairs.append((low, j))
            bounded.add(low)
    return _Reduction(filtration, dc, cells, pairs, list(cocycles), start, ech, cocycles)


def spectral_pages(dc: DoubleComplex, filtration: str = "col") -> list[SpectralPage]:
    """All pages through the hard vanishing bound, with d_r ranks.

    Read off the lows of one column reduction (see the module
    docstring).  The page dims are checked against the rank recursion,
    page 1 against the Dolbeault table (resp. the del table read through
    the transpose) and the last page against de Rham dimensions degree by
    degree.  Checks dc first.  The row pages take de Rham from their own
    pairing, and leave it in dc's memo; the column pages take it from
    the memo, so after the row pages they eliminate Tot only once.
    """
    if filtration not in ("col", "row"):
        raise ValueError(f"unknown filtration {filtration!r}")
    dc.check()
    if filtration == "col":
        de_rham = _known_de_rham(dc)
        return _checked_pages(_pair(dc, "col"), de_rham)
    red = _pair(dc, "row")
    de_rham = _de_rham(red)
    dc._memo.setdefault("de_rham", de_rham)
    return _checked_pages(red, de_rham)


def _checked_pages(red: _Pairing, de_rham: dict, e1: dict | None = None) -> list[SpectralPage]:
    """The pages of one pairing, checked against the de Rham table and
    the E_1 table in the lattice the pages live in (by default the
    Dolbeault table of red.dc: for the row pages, the del table transposed)."""
    if e1 is None:
        e1 = dolbeault_table(red.dc)
    support = red.dc.bidegrees()
    ps, qs = [p for p, _ in support], [q for _, q in support]
    bound = min(max(ps) - min(ps), max(qs) - min(qs) + 1) if support else 0
    last_page = max(2, bound + 2)

    pairs = [(red.cells[i], red.cells[j]) for i, j in red.pairs]
    unpaired = Counter(red.cells[j] for j in red.unpaired)
    pages: list[SpectralPage] = []
    prev: SpectralPage | None = None
    for r in range(1, last_page + 1):
        dims = Counter(unpaired)
        ranks: Counter = Counter()
        for low, col in pairs:
            length = low[0] - col[0]
            if length >= r:
                dims[low] += 1
                dims[col] += 1
            if length == r:
                ranks[col] += 1
        page = SpectralPage(
            r,
            red.filtration,
            {pq: dims[pq] for pq in support if dims[pq]},
            {pq: ranks[pq] for pq in support if ranks[pq]},
        )
        if prev is not None:
            for pq in set(prev.dims) | set(page.dims):
                expect = (
                    prev.dims.get(pq, 0)
                    - prev.dr_ranks.get(pq, 0)
                    - prev.dr_ranks.get((pq[0] - prev.r, pq[1] + prev.r - 1), 0)
                )
                if page.dims.get(pq, 0) != expect:
                    raise InternalError(f"page dims violate rank recursion at {pq}")
        pages.append(page)
        prev = page

    if pages[0].dims != e1:
        name = "Dolbeault" if red.filtration == "col" else "del"
        raise InternalError(f"page 1 disagrees with {name} dimensions")
    einf = pages[-1].dims
    degrees = {p + q for p, q in support} | set(de_rham)
    for k in degrees:
        s = sum(d for (p, q), d in einf.items() if p + q == k)
        if s != de_rham.get(k, 0):
            raise InternalError(f"limit page total {s} != de Rham {de_rham.get(k, 0)} in degree {k}")
    return pages


def degeneration_page(pages: list[SpectralPage]) -> int:
    last = 0
    for pg in pages:
        if pg.dr_ranks:
            last = pg.r
    return max(1, last + 1)


def _classes(red: _Reduction, ech: Echelon, place: dict[int, int],
             cocycles: list[Column]) -> list[Column]:
    """The class coordinates of each cocycle; row place[j] is [z_j]."""
    out = []
    for vec in cocycles:
        coords: Column = {}
        low = ech.reduce(dict(vec), coords)
        if low is not None:
            raise InternalError(f"Hodge pieces: cocycle meets cell {low} "
                                f"at {red.cells[low]}, neither a low nor unpaired")
        out.append({place[j]: -f for j, f in coords.items()})  # vec - sum f_j z_j bounds
    return out


def _pieces(col: _Reduction, row: _Reduction) -> HodgePieces:
    """Hodge pieces and purity from the two reductions of one complex."""
    dc = col.dc
    support = dc.bidegrees()
    ps = [p for p, _ in support]
    dims, filtration_dims, pure = {}, {}, {}

    def untransposed(t: int) -> int:
        q, p = row.cells[t]
        return col.start[(p, q)] + t - row.start[(q, p)]

    # R stands for nothing and z_j for [z_j]; their lows are distinct
    ech = Echelon({**col.echelon.cols, **col.cocycles},
                  {**dict.fromkeys(col.echelon.cols, {}), **{j: {j: ONE} for j in col.cocycles}})
    # each w_i with its bidegree, in the cells of the column reduction
    conj = [
        (col.cells[untransposed(i)], {untransposed(t): v for t, v in w.items()})
        for i, w in sorted(row.cocycles.items())
    ]
    for k in sorted({p + q for p, q in support}):
        basis = [j for j in sorted(col.cocycles) if sum(col.cells[j]) == k]
        place = {j: n for n, j in enumerate(basis)}
        hk = len(basis)
        conj_k = [(pq, w) for pq, w in conj if sum(pq) == k]
        wq = [q for (_, q), _ in conj_k]
        w = _classes(col, ech, place, [w for _, w in conj_k])
        rk = rank_columns(w)
        if (len(w), rk) != (hk, hk):
            raise InternalError(f"Hodge pieces: {len(w)} conjugate-filtration cocycles "
                                f"of rank {rk} in degree {k}, expected h^{k} = {hk}")
        zp = [col.cells[j][0] for j in basis]
        for p in range(min(ps), max(ps) + 2):
            filtration_dims[(k, p)] = (sum(pj >= p for pj in zp), sum(q >= k - p for q in wq))
        spans: list[Column] = []
        for (p, q) in (pq for pq in support if sum(pq) == k):
            # F̄^q is spanned by its vectors of w; F^p is zero off its rows
            fbar = [v for v, qc in zip(w, wq) if qc >= q]
            below = {n for n, pj in enumerate(zp) if pj < p}
            _, _, null = _echelon([{n: x for n, x in v.items() if n in below} for v in fbar])
            span = [_combine(fbar, z) for z in null]
            _, _, closed = _echelon(_columns(vstack([dc.del_map(p, q), dc.delbar_map(p, q)])))
            forms = [{col.start[(p, q)] + r: v for r, v in z.items()} for z in closed]
            bc = rank_columns(_classes(col, ech, place, forms))
            if len(span) != bc:
                raise InternalError(f"filtration intersection {len(span)} != "
                                    f"Bott-Chern image {bc} at ({p},{q})")
            if span:
                dims[(p, q)] = len(span)
            spans += span
        pure[k] = len(spans) == hk and rank_columns(spans) == hk
    return HodgePieces(dims, filtration_dims, pure)


def hodge_pieces(dc: DoubleComplex) -> HodgePieces:
    """Nonzero dims of the pieces F^p H ∩ F̄^q H^{p+q}; filtration_dims
    (k, p) -> (dim F^p H^k, dim F̄^{k-p} H^k) for p_min <= p <= p_max + 1;
    and pure: per total degree k, whether H^k is the direct sum of its
    pieces, i.e. carries a pure Hodge structure of weight k.  Checks dc
    first.  Computed once per complex, by this or by `classify`; each
    call returns a fresh copy."""
    hp = _known(dc.check(), "pieces", lambda dc: _pieces(_reduce(dc, "col"), _reduce(dc, "row")))
    return HodgePieces(dict(hp.dims), dict(hp.filtration_dims), dict(hp.pure))


def classify(dc: DoubleComplex, rs=None) -> tuple[Verdict, list[SpectralPage], list[SpectralPage]]:
    """Verdict plus both page lists (column first).

    Routes: definition (degeneration pages + purity) and the dimension
    identity (Aeppli + Bott-Chern = Dolbeault + del per total degree)
    must agree or the engine is broken.  The shape route is left unset;
    `analyse` fills it.  With a real structure rs, the row pages must
    equal the column pages.  Checks dc first.  De Rham always comes from
    its own row reduction, never from dc's memo; it and the Hodge pieces
    go into the memo if they are not there yet.
    """
    tables = _tables(dc.check())
    row_red, col_red = _reduce(dc, "row"), _reduce(dc, "col")
    de_rham = _de_rham(row_red)
    dc._memo.setdefault("de_rham", de_rham)
    col = _checked_pages(col_red, de_rham, tables["dolbeault"])
    del_t = {(q, p): d for (p, q), d in tables["del"].items()}
    row = _checked_pages(row_red, de_rham, del_t)
    if rs is not None and row != [replace(pg, filtration="row") for pg in col]:
        raise InternalError("row pages differ from column pages despite a real structure")
    deg_f = degeneration_page(col)
    deg_fbar = degeneration_page(row)
    pieces = _pieces(col_red, row_red)
    dc._memo.setdefault("pieces", pieces)
    pure = dict(pieces.pure)
    all_pure = all(pure.values())
    excess: Counter = Counter()  # Aeppli + Bott-Chern - Dolbeault - del per total degree
    for name, sign in (("aeppli", 1), ("bott_chern", 1), ("dolbeault", -1), ("del", -1)):
        for (p, q), d in tables[name].items():
            excess[p + q] += sign * d
    by_dims = not any(excess.values())
    by_def = deg_f <= 2 and deg_fbar <= 2 and all_pure
    if by_def != by_dims:
        raise InternalError(
            f"page-1 routes disagree: definition {by_def}, dimension identity {by_dims}"
        )
    verdict = Verdict(
        degeneration_page_F=deg_f,
        degeneration_page_Fbar=deg_fbar,
        pure=pure,
        ddbar_lemma=deg_f == 1 and deg_fbar == 1 and all_pure,
        page1_by_definition=by_def,
        page1_by_dims=by_dims,
        page1_by_shape=None,
        e1_degenerate=deg_f == 1 and deg_fbar == 1,
    )
    return verdict, col, row


@dataclass
class Analysis:
    tables: dict
    verdict: Verdict  # page1_by_shape set
    col_pages: list[SpectralPage]
    row_pages: list[SpectralPage]
    decomposition: Decomposition


def analyse(dc: DoubleComplex, rs=None) -> Analysis:
    """The five tables, the verdict, both page lists and the decomposition
    of dc: `classify`, which validates dc and leaves its tables, de Rham
    off its row reduction and the Hodge pieces in dc's memo, then
    `decompose`, which finds them there; the shape route must agree."""
    verdict, col_pages, row_pages = classify(dc, rs)
    decomp = decompose(dc)
    verdict.page1_by_shape = page1_by_shape(decomp)
    if verdict.page1_by_shape != verdict.page1_by_definition:
        raise InternalError("decomposition shape route disagrees with the degeneration route")
    return Analysis(all_tables(dc), verdict, col_pages, row_pages, decomp)

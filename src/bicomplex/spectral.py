"""Filtration spectral sequences, Hodge filtrations, purity, classification.

The column spectral sequence is read off one persistence reduction of
the total differential del + delbar (Edelsbrunner-Letscher-Zomorodian,
"Topological persistence and simplification", DCG 2002; Basu-Parida,
"Spectral sequences, exact couples and persistent homology of
filtrations", Expo. Math. 2017).  The cells are the basis vectors of
all spaces, ordered by descending p, then descending q; in that order
every F^p is a prefix and del + delbar is strictly upper triangular.
The columns are reduced left to right, each pivot being its lowest
nonzero row.  A pivot pair with its low row at (p_i, q_i) and its
column at (p_j, q_j) has length r = p_i - p_j: it is a d_r from
(p_j, q_j) to (p_i, q_i), so it adds 1 to E_s at both bidegrees for
every 1 <= s <= r and 1 to the rank of d_r at (p_j, q_j).  Pairs of
length 0 are cancelled by delbar already on E_0.  Unpaired cells count
on every page; they make up E_infinity.

Both filtrations are handled by one engine: the row sequence is the
column sequence of the transposed complex and is reported in the
transposed lattice.  When a real structure is supplied the row pages
are mirrored from the column pages (they agree entry for entry, since
conjugation identifies the transpose with the original complex);
force_row recomputes them independently.

`classify` computes the five cohomology tables once and checks both
page lists against them: E_1 against the Dolbeault table (the del table,
transposed, for the row pages) and E_infinity against de Rham.

Hodge pieces and purity come from filtered cocycles.  F^p Tot^k is
spanned by the coordinate blocks with p' >= p, so Z^k ∩ F^p is the
kernel of d restricted to those columns; F^p H^k is that kernel plus
B^k, and likewise for F̄^q with q' >= q.  The piece at (p, q) is
F^p H ∩ F̄^q H, checked against the image of the d-closed (p, q)-forms
(the kernel of del and delbar stacked), and H^k is pure when the pieces
of degree k span h^k = dim F^{p_min} H^k as a direct sum.

Pages are emitted up to the hard bound past which every d_r vanishes
for support-bounded complexes.  Early stabilization is NOT trusted:
a length-6 staircase has d_1 = d_2 = 0 but d_3 != 0, so any fixed
number of consecutive stable pages can lie.  The degeneration page is
the last page carrying a nonzero differential, plus one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .complexes import (
    Bidegree,
    DoubleComplex,
    TotalComplex,
    all_tables,
    de_rham_table,
    del_table,
    dolbeault_table,
    transpose_complex,
)
from .errors import InternalError
from .linalg import Matrix, hstack, kernel, vstack
from .scalars import ZERO, Scalar
from .subspaces import Subspace


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


def _pivot_pairs(dc: DoubleComplex) -> tuple[list[tuple[Bidegree, Bidegree]], Counter]:
    """Persistence pairs of del + delbar under the column filtration.

    Returns one (low row bidegree, column bidegree) per pivot pair, and
    the number of unpaired cells per bidegree.
    """
    order = sorted(dc.spaces, reverse=True)  # descending p, then descending q
    start: dict[Bidegree, int] = {}
    cells: list[Bidegree] = []
    for pq in order:
        start[pq] = len(cells)
        cells += [pq] * dc.spaces[pq]
    columns: list[dict[int, Scalar]] = [{} for _ in cells]
    for (p, q) in order:
        for tgt, m in (
            ((p + 1, q), dc.del_map(p, q)),
            ((p, q + 1), dc.delbar_map(p, q)),
        ):
            if tgt in start:
                for (r, c), v in m.entries.items():
                    columns[start[(p, q)] + c][start[tgt] + r] = v
    reduced: dict[int, dict[int, Scalar]] = {}  # low row -> its column, 1 at the low
    pairs: list[tuple[int, int]] = []
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            piv = reduced.get(low)
            if piv is None:
                inv = col[low].inverse()
                reduced[low] = {i: inv * v for i, v in col.items()}
                pairs.append((low, j))
                break
            f = col[low]
            for i, v in piv.items():
                nv = col.get(i, ZERO) - f * v
                if nv:
                    col[i] = nv
                else:
                    del col[i]
    paired = {i for pair in pairs for i in pair}
    unpaired = Counter(pq for i, pq in enumerate(cells) if i not in paired)
    return [(cells[i], cells[j]) for i, j in pairs], unpaired


def _transposed(table: dict[Bidegree, int]) -> dict[Bidegree, int]:
    return {(q, p): d for (p, q), d in table.items()}


def spectral_pages(dc: DoubleComplex, filtration: str = "col") -> list[SpectralPage]:
    """All pages through the hard vanishing bound, with d_r ranks.

    Read off one column reduction (see the module docstring).  The page
    dims are checked against the rank recursion, page 1 against the
    Dolbeault table (resp. the del table read through the transpose) and
    the last page against de Rham dimensions degree by degree.
    """
    if filtration == "col":
        e1 = dolbeault_table(dc)
    elif filtration == "row":
        e1 = _transposed(del_table(dc))
    else:
        raise ValueError(f"unknown filtration {filtration!r}")
    return _checked_pages(dc, filtration, e1, de_rham_table(dc))


def _checked_pages(
    dc: DoubleComplex, filtration: str, e1: dict, de_rham: dict
) -> list[SpectralPage]:
    """The pages of one filtration, checked against the given E_1 table
    (in the lattice the pages live in) and de Rham table."""
    if filtration == "row":
        dc = transpose_complex(dc)
    support = dc.bidegrees()
    if support:
        pext = max(p for p, _ in support) - min(p for p, _ in support)
        qext = max(q for _, q in support) - min(q for _, q in support)
        bound = min(pext, qext + 1)
    else:
        bound = 0
    last_page = max(2, bound + 2)

    pairs, unpaired = _pivot_pairs(dc)
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
            filtration,
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
        name = "Dolbeault" if filtration == "col" else "del"
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


def _plus_coboundaries(b: Subspace, rows: Sequence[int], vectors: Matrix) -> Subspace:
    """span(vectors, placed on the given coordinates of Tot^k) + B^k."""
    emb = Matrix(
        b.ambient,
        vectors.ncols,
        {(rows[r], c): v for (r, c), v in vectors.entries.items()},
    )
    return Subspace.from_columns(b.ambient, hstack([emb, b.basis]))


def _pieces(dc: DoubleComplex):
    tot = TotalComplex.of(dc)
    support = dc.bidegrees()
    dims: dict[Bidegree, int] = {}
    filtration_dims: dict[tuple[int, int], tuple[int, int]] = {}
    pure: dict[int, bool] = {}
    if not support:
        return HodgePieces(dims, filtration_dims), pure
    pmin = min(p for p, _ in support)
    pmax = max(p for p, _ in support)
    qmin = min(q for _, q in support)
    qmax = max(q for _, q in support)
    for k in tot.degrees:
        b = tot.coboundaries(k)
        reps: dict[tuple, Subspace] = {}

        def rep(keep) -> Subspace:
            # Z^k ∩ (span of the kept blocks) is the kernel of d on their
            # columns; several p (or q) keep the same blocks
            blocks = tuple(pq for pq in tot.parts[k] if keep(pq))
            if blocks not in reps:
                cols = [
                    tot.offsets[pq] + i
                    for pq in blocks
                    for i in range(dc.spaces[pq])
                ]
                reps[blocks] = _plus_coboundaries(
                    b, cols, kernel(tot.d(k).columns(cols))
                )
            return reps[blocks]

        col_rep = {p: rep(lambda pq: pq[0] >= p) for p in range(pmin, pmax + 2)}
        row_rep = {q: rep(lambda pq: pq[1] >= q) for q in range(qmin, qmax + 2)}
        hk = col_rep[pmin].dim - b.dim
        for p in range(pmin, pmax + 2):
            fbar_q = k - p
            fb = row_rep.get(fbar_q)
            filtration_dims[(k, p)] = (
                col_rep[p].dim - b.dim,
                fb.dim - b.dim if fb is not None else (hk if fbar_q < qmin else 0),
            )
        total_sum = Subspace.zero(tot.dim(k))
        piece_total = 0
        for (p, q) in tot.parts[k]:
            u = col_rep[p].intersect(row_rep[q])
            piece = u.dim - b.dim
            bc_img = _bc_image(dc, tot, b, p, q)
            if piece != bc_img.dim - b.dim:
                raise InternalError(
                    f"filtration intersection {piece} != Bott-Chern image "
                    f"{bc_img.dim - b.dim} at ({p},{q})"
                )
            if piece:
                dims[(p, q)] = piece
            piece_total += piece
            total_sum = total_sum.sum(u)
        direct = total_sum.dim - b.dim == piece_total
        pure[k] = direct and piece_total == hk
    return HodgePieces(dims, filtration_dims), pure


def _bc_image(
    dc: DoubleComplex, tot: TotalComplex, b: Subspace, p: int, q: int
) -> Subspace:
    """The d-closed forms of bidegree (p, q), embedded in Tot^{p+q}, + B."""
    closed = kernel(vstack([dc.del_map(p, q), dc.delbar_map(p, q)]))
    off = tot.offsets[(p, q)]
    return _plus_coboundaries(b, range(off, off + dc.spaces[(p, q)]), closed)


def hodge_pieces(dc: DoubleComplex) -> HodgePieces:
    return _pieces(dc)[0]


def purity_check(dc: DoubleComplex) -> dict[int, bool]:
    return _pieces(dc)[1]


def classify(
    dc: DoubleComplex, rs=None, force_row: bool = False
) -> tuple[Verdict, list[SpectralPage], list[SpectralPage]]:
    """Verdict plus both page lists (column first).

    Routes: definition (degeneration pages + purity) and the dimension
    identity (Aeppli + Bott-Chern = Dolbeault + del per total degree)
    must agree or the engine is broken.  The shape route is left unset;
    the decomposition layer fills it.
    """
    tables = all_tables(dc)
    col = _checked_pages(dc, "col", tables["dolbeault"], tables["de_rham"])
    if rs is not None and not force_row:
        row = [SpectralPage(pg.r, "row", dict(pg.dims), dict(pg.dr_ranks)) for pg in col]
    else:
        row = _checked_pages(dc, "row", _transposed(tables["del"]), tables["de_rham"])
    deg_f = degeneration_page(col)
    deg_fbar = degeneration_page(row)
    _, pure = _pieces(dc)
    all_pure = all(pure.values())
    degrees = set()
    for name in ("aeppli", "bott_chern", "dolbeault", "del"):
        degrees |= {p + q for p, q in tables[name]}
    by_dims = True
    for k in degrees:
        lhs = sum(d for (p, q), d in tables["aeppli"].items() if p + q == k)
        lhs += sum(d for (p, q), d in tables["bott_chern"].items() if p + q == k)
        rhs = sum(d for (p, q), d in tables["dolbeault"].items() if p + q == k)
        rhs += sum(d for (p, q), d in tables["del"].items() if p + q == k)
        if lhs != rhs:
            by_dims = False
            break
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

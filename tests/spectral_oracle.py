"""Definitional spectral pages and Hodge pieces, kept as test oracles.

E_r^{p,q} = Z_r / B_r computed straight from the subspace definitions
of the column filtration F^p = sum of the columns p' >= p:

    Z_r = F^p  ∩ d^{-1}(F^{p+r})
    B_r = F^{p+1} ∩ d^{-1}(F^{p+r})  +  F^p ∩ d(F^{p-r+1})

and rank d_r is the dimension that d(Z_r) adds to B_r at the target.
This costs subspace algebra for every (p, q, r), so it only runs on
small complexes; `bicomplex.spectral_pages` must agree with it page by
page.  The row filtration is the column filtration of the transpose.

Hodge pieces come straight from their definition too, by subspace
algebra over Tot^k: the classes of Z^k ∩ F^p Tot^k (resp. F̄^q) are the
subspace (Z^k ∩ F^p) + B^k, with Z^k the full kernel of d, B^k its image
from Tot^{k-1} and F^p the span of the coordinate blocks with p' >= p.
`bicomplex.hodge_pieces`, which pairs the class coordinates of the
conjugate filtration's cocycles in one lows pass per total degree, must
agree with it.  `bidegree_pieces`, the subspace algebra per (p, q) that
`hodge_pieces` once ran on the same two reductions, is cheap enough to
check it on inputs far too large for `oracle_pieces`.
"""

from __future__ import annotations

from functools import cache

from bicomplex import (
    DoubleComplex,
    HodgePieces,
    Matrix,
    ONE,
    Subspace,
    TotalComplex,
    kernel,
    preimage,
    transpose_complex,
)
from bicomplex.linalg import Echelon, _columns, _combine, _echelon, rank_columns, vstack
from bicomplex.spectral import _classes, _Reduction

Page = tuple[int, dict, dict]  # (r, dims, d_r ranks), zero entries omitted


def _blocks(tot: TotalComplex, k: int, keep) -> Subspace:
    """The span of the bidegree blocks of Tot^k that satisfy keep."""
    n = tot.dim(k)
    entries = {}
    j = 0
    for pq in tot.parts.get(k, []):
        if keep(pq):
            off = tot.offsets[pq]
            for i in range(tot.source.spaces[pq]):
                entries[(off + i, j)] = ONE
                j += 1
    return Subspace.from_columns(n, Matrix(n, j, entries))


def _filt_col(tot: TotalComplex, k: int, p: int) -> Subspace:
    return _blocks(tot, k, lambda pq: pq[0] >= p)


def _differential(tot: TotalComplex):
    """k -> d_k: Tot^k -> Tot^(k+1), del + delbar from the stored maps
    placed at Tot's offsets, each built once."""
    dc = tot.source

    @cache
    def d(k: int) -> Matrix:
        entries = {}
        for (p, q) in tot.parts.get(k, []):
            for maps, tgt in ((dc.del_maps, (p + 1, q)), (dc.delbar_maps, (p, q + 1))):
                if (p, q) in maps:
                    for (r, c), v in maps[(p, q)].entries.items():
                        entries[(tot.offsets[tgt] + r, tot.offsets[(p, q)] + c)] = v
        return Matrix(tot.dim(k + 1), tot.dim(k), entries)

    return d


def _zr_br(tot: TotalComplex, tot_d, p: int, q: int, r: int) -> tuple[Subspace, Subspace]:
    k = p + q
    d = tot_d(k)
    upper = _filt_col(tot, k + 1, p + r)
    z = _filt_col(tot, k, p).intersect(preimage(d, upper))
    b = _filt_col(tot, k, p + 1).intersect(preimage(d, upper))
    if k - 1 in tot.dims:
        img = tot_d(k - 1) @ _filt_col(tot, k - 1, p - r + 1).basis
        b = b.sum(
            _filt_col(tot, k, p).intersect(Subspace.from_columns(tot.dim(k), img))
        )
    assert z.contains(b), f"boundary space escapes cycle space at ({p},{q}) page {r}"
    return z, b


def oracle_pages(dc: DoubleComplex, filtration: str = "col") -> list[Page]:
    """Pages 1 .. max(2, bound + 2), bound = min(p extent, q extent + 1)."""
    if filtration == "row":
        return oracle_pages(transpose_complex(dc), "col")
    tot = TotalComplex.of(dc)
    tot_d = _differential(tot)
    support = dc.bidegrees()
    bound = 0
    if support:
        pext = max(p for p, _ in support) - min(p for p, _ in support)
        qext = max(q for _, q in support) - min(q for _, q in support)
        bound = min(pext, qext + 1)
    pages: list[Page] = []
    for r in range(1, max(2, bound + 2) + 1):
        dims, ranks = {}, {}
        cache = {pq: _zr_br(tot, tot_d, *pq, r) for pq in support}
        for pq, (z, b) in cache.items():
            if z.dim - b.dim:
                dims[pq] = z.dim - b.dim
        for (p, q), (z, _) in cache.items():
            tgt = (p + r, q - r + 1)
            if tgt not in cache or z.dim == 0:
                continue
            tb = cache[tgt][1]
            img = tot_d(p + q) @ z.basis
            rk = Subspace.from_columns(tot.dim(p + q + 1), img).sum(tb).dim - tb.dim
            if rk:
                ranks[(p, q)] = rk
        pages.append((r, dims, ranks))
    return pages


def oracle_pieces(dc: DoubleComplex) -> tuple[dict, dict, dict]:
    """(piece dims, filtration dims, purity) as in `bicomplex.HodgePieces`.

    filtration_dims[(k, p)] = (dim F^p H^k, dim F̄^{k-p} H^k) for
    p_min <= p <= p_max + 1; piece (p, q) = dim of F^p H ∩ F̄^q H; H^k is
    pure when those pieces span H^k as a direct sum.
    """
    tot = TotalComplex.of(dc)
    tot_d = _differential(tot)
    support = dc.bidegrees()
    dims, filtration_dims, pure = {}, {}, {}
    if not support:
        return dims, filtration_dims, pure
    pmin, pmax = min(p for p, _ in support), max(p for p, _ in support)
    qmin, qmax = min(q for _, q in support), max(q for _, q in support)
    for k in tot.degrees:
        z = Subspace.from_columns(tot.dim(k), kernel(tot_d(k)))
        b = Subspace.from_columns(tot.dim(k), tot_d(k - 1))
        hk = z.dim - b.dim
        col = {
            p: z.intersect(_blocks(tot, k, lambda pq: pq[0] >= p)).sum(b)
            for p in range(pmin, pmax + 2)
        }
        row = {
            q: z.intersect(_blocks(tot, k, lambda pq: pq[1] >= q)).sum(b)
            for q in range(qmin, qmax + 2)
        }
        for p in range(pmin, pmax + 2):
            fb = row.get(k - p)
            filtration_dims[(k, p)] = (
                col[p].dim - b.dim,
                fb.dim - b.dim if fb is not None else (hk if k - p < qmin else 0),
            )
        total, piece_total = Subspace.zero(tot.dim(k)), 0
        for (p, q) in tot.parts[k]:
            u = col[p].intersect(row[q])
            if u.dim > b.dim:
                dims[(p, q)] = u.dim - b.dim
            piece_total += u.dim - b.dim
            total = total.sum(u)
        pure[k] = total.dim - b.dim == piece_total == hk
    return dims, filtration_dims, pure


def bidegree_pieces(col: _Reduction, row: _Reduction) -> HodgePieces:
    """`bicomplex.hodge_pieces` by subspace algebra per (p, q), from the
    same two reductions: F^p H ∩ F̄^q H as the null space of F̄^q's class
    coordinates off F^p's rows, checked against the class coordinates of
    the closed (p, q)-forms; H^k is pure if the pieces' spans add up to
    a basis of H^k.  Cheap enough for inputs far too large for
    `oracle_pieces`."""
    dc = col.dc
    support = dc.bidegrees()
    ps = [p for p, _ in support]
    dims, filtration_dims, pure = {}, {}, {}

    def untransposed(t: int) -> int:
        q, p = row.cells[t]
        return col.start[(p, q)] + t - row.start[(q, p)]

    ech = Echelon({**col.echelon.cols, **col.cocycles},
                  {**dict.fromkeys(col.echelon.cols, {}), **{j: {j: ONE} for j in col.cocycles}})
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
        assert (len(w), rank_columns(w)) == (hk, hk), f"degree {k}"
        zp = [col.cells[j][0] for j in basis]
        for p in range(min(ps), max(ps) + 2):
            filtration_dims[(k, p)] = (sum(pj >= p for pj in zp), sum(q >= k - p for q in wq))
        spans = []
        for (p, q) in (pq for pq in support if sum(pq) == k):
            # F̄^q is spanned by its vectors of w; F^p is zero off its rows
            fbar = [v for v, qc in zip(w, wq) if qc >= q]
            below = {n for n, pj in enumerate(zp) if pj < p}
            _, _, null = _echelon([{n: x for n, x in v.items() if n in below} for v in fbar])
            span = [_combine(fbar, z) for z in null]
            _, _, closed = _echelon(_columns(vstack([dc.del_map(p, q), dc.delbar_map(p, q)])))
            forms = [{col.start[(p, q)] + r: v for r, v in z.items()} for z in closed]
            assert len(span) == rank_columns(_classes(col, ech, place, forms)), (p, q)
            if span:
                dims[(p, q)] = len(span)
            spans += span
        pure[k] = len(spans) == hk and rank_columns(spans) == hk
    return HodgePieces(dims, filtration_dims, pure)

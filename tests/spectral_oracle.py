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
`bicomplex.hodge_pieces`, which reads the same dims and purity off
the class coordinates of two persistence reductions, must agree with it.
"""

from __future__ import annotations

from functools import cache

from bicomplex import (
    DoubleComplex,
    Matrix,
    ONE,
    Subspace,
    TotalComplex,
    kernel,
    preimage,
    transpose_complex,
)

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

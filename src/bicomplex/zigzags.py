"""Decomposition into squares and zigzags with a certified change of basis.

Two producers give the parts, and one certificate checks either.  A
complex that records its tensor factors (`DoubleComplex.factors`: a
`tensor_product` or a `direct_sum` of them, so every builder's complex)
takes the factored producer: one echelon of each factor map splits each
factor into dots and arrows, and a piece of a times a piece of b is a
dot, a del line, a delbar line or a square.  Every other complex (one
built, parsed, shuffled or transposed) takes phases A and B below.

The active subcomplex (`_Active`, private and changed in place, unlike
the input) is kept in its own coordinates.  Each shrink of
an active space multiplies its basis by a K that is 1 at each column's
low and 0 at the other columns' lows (a canonical kernel basis, or unit
columns), so the maps into it keep the rows at K's lows, checked to
lose nothing, and the maps out of it compose with K.  Ranks, kernels
and pivots come from `linalg.echelon`: decompose solves and inverts nothing.
The parts' vectors are sparse `linalg.Column`s in original coordinates,
combined by `_combine` and `_subtract`; only maps and bases are matrices.

Phase A peels squares: at each anchor (p,q) in increasing (p+q, p),
one echelon of lam = del delbar gives the generators (its pivot
columns), ker lam and the lows L of im lam.  The unit vectors off L
complement im lam, and y lies in their span iff y vanishes on L, so
the actives at (p+1,q) and (p,q+1) shrink to the kernels of delbar and
del on the rows L.  Each square splits off as its generator, the active
basis vector at a pivot column, and that vector's images under the
input's maps.  The remaining active subspaces need no correction
because every incoming image lies in ker(del delbar) and every outgoing
image of the new actives misses the square lines.

Phase B decomposes the remainder, where all compositions of del and
delbar vanish.  A zigzag then only ever alternates between two
adjacent total degrees, so the remainder splits into independent
"level pairs" (k, k+1), each an alternating-orientation A_n quiver
whose interval decomposition is computed by a left-to-right sweep:
sources allocate their images as string extensions, fresh sinks, or
new frontiers, and a source hitting several open strings triggers an
absorption that adds one string into another along their trailing
overlap.  The absorber choice (shortest sink-terminated hit if one
exists, else the longest source-terminated hit) is exactly the case
in which the vertex-wise addition preserves exactness on both ends.
Each target keeps its string ends in a `linalg.Echelon`, ops on their
indices, and reads a candidate's delbar image with one reduction: a
remaining low is a miss, a new line closed at once by the candidate;
else the ops are its coordinates, the closed ends are cleared through
the source vectors that closed them, and what is left must be exactly
the open hits.  The rows that are no low complement the target's ends.

Nothing here is trusted, the factor record included: the change of
basis C, assembled from the parts' vectors, must have every row inside
its space and be square of full rank at every bidegree, and carry the
block model, the direct sum of the parts' own complexes (assembled in
one pass over the sorted parts), onto the input literally
(d C = C d_model, so C^-1 d C is the model without forming C^-1).
Independently, the five tables that the shapes give by Stelzig's local
rules (`shape_tables`) must match the input's, which are computed from
the assembled complex and never from its factors, by the one table
engine (`all_tables`), once per complex: an engine that ran before on
the same complex, `classify` say, left them in its memo.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .complexes import Bidegree, DoubleComplex, SimpleComplex, all_tables, direct_sum
from .errors import InternalError
from .linalg import (
    Column,
    Echelon,
    Matrix,
    _canonical,
    _columns,
    _combine,
    _echelon,
    _from_columns,
    _subtract,
    echelon,
    # not called here: perfbench's tracer wraps zigzags.inverse by name, so
    # the import stays until the tracer drops that counter
    inverse,
    kernel,
    lows,
    rank_columns,
)
from .scalars import MINUS_ONE, ONE, Scalar, sc


@dataclass(frozen=True)
class Square:
    p: int
    q: int


@dataclass(frozen=True)
class Zigzag:
    start: Bidegree
    steps: tuple[str, ...]  # "del" / "delbar", read from the start vertex

    @property
    def vertices(self) -> list[Bidegree]:
        """The bidegrees from start on.  The steps go up and down in total
        degree by turns, and the last vertex is the lexicographically
        larger end, which settles whether the first step goes up."""
        (p, q), verts = self.start, [self.start]
        for i, step in enumerate(self.steps):
            sign = 1 if i % 2 == 0 else -1
            p, q = (p + sign, q) if step == "del" else (p, q + sign)
            verts.append((p, q))
        if verts[-1] < verts[0]:  # the first step goes down: reflect through start
            p0, q0 = self.start
            verts = [(2 * p0 - p, 2 * q0 - q) for p, q in verts]
        return verts


Shape = Square | Zigzag


@dataclass
class Decomposition:
    parts: list[tuple[Shape, int]]
    change_of_basis: dict[Bidegree, Matrix]
    model: DoubleComplex


@dataclass
class _RawPart:
    kind: str  # "square" | "zigzag"
    verts: list[tuple[Bidegree, Column]]  # vectors in original coordinates


def _units(n: int, rows: list[int]) -> Matrix:
    """The unit vectors at rows, as columns."""
    return Matrix(n, len(rows), {(i, j): ONE for j, i in enumerate(rows)})


@dataclass
class _Active:
    """The active subcomplex in its own coordinates, edited in place by
    `_shrink`: a spent space stays at dim 0 and loses its maps."""

    spaces: dict[Bidegree, int]
    del_maps: dict[Bidegree, Matrix]
    delbar_maps: dict[Bidegree, Matrix]

    dim = DoubleComplex.dim
    del_map = DoubleComplex.del_map
    delbar_map = DoubleComplex.delbar_map


def _shrink(act: dict[Bidegree, Matrix], cur: _Active, pq: Bidegree, k: Matrix) -> None:
    """Shrink the active space at pq to the span of act[pq] @ k.  A map into
    it must keep its image in that span, or the differential leaks.  An
    empty k spends the space: its maps leave cur, since absent means zero."""
    (p, q), lows = pq, [0] * k.ncols
    sides = ((cur.del_maps, (p - 1, q)), (cur.delbar_maps, (p, q - 1)))
    cur.spaces[pq] = k.ncols
    if not k.ncols:
        act[pq] = Matrix.zero(act[pq].nrows, 0)
        for maps, src in sides:
            into = maps.pop(src, None)
            if into is not None and into.entries:
                raise InternalError("differential leaks outside the active subspace")
            maps.pop(pq, None)
        return
    for r, c in k.entries:
        lows[c] = max(lows[c], r)
    act[pq] = act[pq] @ k
    for maps, src in sides:
        if src in maps:
            old = maps[src]
            maps[src] = old.rows(lows)
            if k @ maps[src] != old:
                raise InternalError("differential leaks outside the active subspace")
        if pq in maps:
            maps[pq] = maps[pq] @ k


def _phase_a(dc: DoubleComplex, act: dict[Bidegree, Matrix], cur: _Active) -> list[_RawPart]:
    parts: list[_RawPart] = []
    for (p, q) in sorted(dc.bidegrees(), key=lambda pq: (pq[0] + pq[1], pq[0])):
        corners = [(p, q), (p + 1, q), (p, q + 1), (p + 1, q + 1)]
        if any(c not in dc.spaces for c in corners):
            continue
        a2, b1, b2 = cur.delbar_map(p, q), cur.delbar_map(p + 1, q), cur.del_map(p, q + 1)
        lam = b2 @ a2
        if lam.is_zero:
            continue
        _, piv, k = echelon(lam)
        lows = sorted(piv.values())  # L: the unit columns off L complement im lam
        c3 = _units(lam.nrows, sorted(set(range(lam.nrows)) - set(lows)))
        c1 = kernel(b1.rows(lows))
        c2 = kernel(b2.rows(lows))
        gens = _columns(act[(p, q)])  # the generators, in original coordinates
        right, up, corner = (_columns(m) for m in (
            dc.del_map(p, q), dc.delbar_map(p, q), dc.del_map(p, q + 1)))
        for j in piv:
            w = gens[j]
            b = _combine(up, w)
            parts.append(_RawPart("square", [
                ((p, q), w), ((p + 1, q), _combine(right, w)),
                ((p, q + 1), b), ((p + 1, q + 1), _combine(corner, b)),
            ]))
        for c, basis in zip(corners, (k, c1, c2, c3)):
            _shrink(act, cur, c, basis)
    return parts


class _String:
    __slots__ = ("verts",)

    def __init__(self, verts):
        self.verts = verts  # [(bidegree, coordinates in the level's starting actives)]

    def sink_terminated(self, k: int) -> bool:
        p0, q0 = self.verts[0][0]
        return p0 + q0 == k + 1


@dataclass
class _End:
    """A string's vertex in a target space; open until a source closes it."""

    string: _String
    vid: int
    closer: Column | None = None  # the source vector whose image is this end

    @property
    def vector(self) -> Column:
        return self.string.verts[self.vid][1]


def _phase_b(dc: DoubleComplex, act: dict[Bidegree, Matrix], cur: _Active) -> list[_RawPart]:
    parts: list[_RawPart] = []
    support = dc.bidegrees()
    if not support:
        return parts
    levels = sorted({p + q for (p, q) in support})
    for k in range(levels[0], levels[-1] + 1):
        sources = sorted(pq for pq in support if pq[0] + pq[1] == k)
        # per target its ends, and their echelon with ops on their indices
        ends: dict[Bidegree, tuple[list[_End], Echelon]] = {}
        strings: list[_String] = []
        # the actives of levels k and k+1 before this level shrinks them
        basis = {pq: _columns(act[pq]) for pq in support if sum(pq) - k in (0, 1)}
        for (p, q) in sources:
            if not cur.dim(p, q):
                continue
            t_left = (p, q + 1)
            t_right = (p + 1, q)
            lcols, rcols = _columns(cur.delbar_map(p, q)), _columns(cur.del_map(p, q))
            left, left_ech = ends.setdefault(t_left, ([], Echelon()))
            _, piv, ker = _echelon([dict(c) for c in rcols])
            candidates = [("ker", z) for z in ker] + [("piv", {c: ONE}) for c in piv]
            for kind, v in candidates:
                lv = _combine(lcols, v)
                col, ops = dict(lv), {}
                if left_ech.reduce(col, ops) is not None:
                    # the image leaves the span of the ends: a new line, closed by v
                    left_ech.add(col, {**ops, len(left): ONE})  # col is lv + sum ops_i end_i
                    hit_string = _String([(t_left, lv), ((p, q), v)])
                    strings.append(hit_string)
                    left.append(_End(hit_string, 0, closer=v))
                else:
                    hits = []
                    for i, o in sorted(ops.items()):  # lv = -sum ops_i end_i
                        if left[i].closer is not None:
                            _subtract(v, -o, left[i].closer)  # v is the fresh candidate
                        else:
                            hits.append((i, -o, left[i].string))
                    rest = _combine(lcols, v)  # must be exactly the open hits
                    for i, mu, _ in hits:
                        _subtract(rest, mu, left[i].vector)
                    if rest:
                        raise InternalError(f"closed component survives clearing at ({p},{q})")
                    if not hits:
                        hit_string = _String([((p, q), v)])
                        strings.append(hit_string)
                    else:
                        sinks = [h for h in hits if h[2].sink_terminated(k)]
                        if sinks:
                            ai, alam, a = min(
                                sinks, key=lambda h: (len(h[2].verts), h[0])
                            )
                        else:
                            ai, alam, a = min(
                                hits, key=lambda h: (-len(h[2].verts), h[0])
                            )
                        for bi, blam, b in hits:
                            if bi == ai:
                                continue
                            mu = blam / alam
                            span = min(len(a.verts), len(b.verts))
                            for i in range(1, span + 1):
                                (bid_a, va), (bid_b, vb) = a.verts[-i], b.verts[-i]
                                if bid_a != bid_b:
                                    raise InternalError(
                                        "absorption misaligned at "
                                        f"{bid_a} vs {bid_b}"
                                    )
                                va = dict(va)  # a closer may still hold it
                                _subtract(va, -mu, vb)
                                a.verts[-i] = (bid_a, va)
                            for o in left_ech.ops.values():  # end ai is now ai + mu bi
                                if ai in o:
                                    _subtract(o, mu, {bi: o[ai]})
                        inv = ONE / alam
                        v = {i: inv * x for i, x in v.items()}
                        a.verts.append(((p, q), v))
                        left[ai].closer = v
                        hit_string = a
                if kind == "piv":
                    rv = _combine(rcols, v)
                    right, right_ech = ends.setdefault(t_right, ([], Echelon()))
                    if right_ech.add(dict(rv), {len(right): ONE}) is None:
                        raise InternalError(f"frontier collapsed at ({p},{q}) level {k}")
                    hit_string.verts.append((t_right, rv))
                    right.append(_End(hit_string, len(hit_string.verts) - 1))
        for pq in sources:  # spent first: nothing then maps into the targets
            _shrink(act, cur, pq, Matrix.zero(cur.dim(*pq), 0))
        for bid, (_, ech) in ends.items():  # the rows that are no low complement the ends
            if ech.cols:
                n = cur.dim(*bid)
                _shrink(act, cur, bid, _units(n, [i for i in range(n) if i not in ech.cols]))
        parts += [_RawPart("zigzag", [(bid, _combine(basis[bid], vec)) for bid, vec in st.verts])
                  for st in strings]
    for pq in support:
        if act[pq].ncols:
            raise InternalError(f"active space not exhausted at {pq}")
    return parts


def _pieces(c: SimpleComplex) -> list[tuple[int, list[Column]]]:
    """c split into dots (p, [x]) and arrows (p, [x, d x]) out of p, as sparse
    columns: one echelon of each d_p gives the arrows (e_j, d_p e_j) at its
    pivot columns j, and the dots are its kernel columns independent of the
    images d_{p-1} e_j."""
    pieces: list[tuple[int, list[Column]]] = []
    images: dict[int, list[Column]] = {}
    for p in sorted(c.spaces):
        m = c.map(p)
        if (m.nrows, m.ncols) != (c.dim(p + 1), c.dim(p)):
            raise InternalError(f"factor map at {p} has the wrong shape")
        _, piv, ker = echelon(m)
        ims, zs = images.get(p, []), _columns(ker)  # a z with a low is off their span
        pieces += [(p, [z]) for z, low in zip(zs, lows(ims + zs)[len(ims):]) if low is not None]
        cols = _columns(m)
        for j in piv:
            pieces.append((p, [{j: ONE}, cols[j]]))
            images.setdefault(p + 1, []).append(cols[j])
    return pieces


def _factored_parts(dc: DoubleComplex) -> list[_RawPart]:
    """The parts of a complex that records its tensor factors: a piece of a
    times a piece of b is a dot, a del or delbar line or a square, with
    vectors the krons at the block's offsets, under tensor_product's sign
    delbar(x (x) y) = (-1)^p x (x) d y."""
    parts: list[_RawPart] = []
    for a, b, offs in dc.factors:
        b_pieces = _pieces(b)
        for p, xs in _pieces(a):
            for q, ys in b_pieces:
                verts = []
                for j, y in enumerate(ys):
                    neg = j and p % 2
                    for i, x in enumerate(xs):
                        pq, nb = (p + i, q + j), b.dim(q + j)
                        n, o = dc.dim(*pq), offs.get(pq)
                        if o is None or o + a.dim(p + i) * nb > n:
                            raise InternalError(f"factor record does not fit the complex at {pq}")
                        verts.append((pq, {o + r * nb + t: -(u * v) if neg else u * v
                                           for r, u in x.items() for t, v in y.items()}))
                parts.append(_RawPart("square" if len(verts) == 4 else "zigzag", verts))
    return parts


def _zigzag_shape(verts: list[Bidegree]) -> Zigzag:
    seq = list(verts)
    if seq[-1] < seq[0]:
        seq.reverse()
    steps = tuple(
        "del" if abs(b[0] - a[0]) == 1 else "delbar"
        for a, b in zip(seq, seq[1:])
    )
    return Zigzag(seq[0], steps)


def _shape_of(part: _RawPart) -> Shape:
    if part.kind == "square":
        return Square(*part.verts[0][0])
    return _zigzag_shape([bid for bid, _ in part.verts])


def _sort_key(shape: Shape):
    if isinstance(shape, Square):
        return (0, shape.p, shape.q, ())
    return (1, shape.start[0], shape.start[1], shape.steps)


def _edges(part: _RawPart) -> list[tuple[Bidegree, Bidegree, Scalar]]:
    """The maps of a part's own complex: (source, target, entry)."""
    bids = [bid for bid, _ in part.verts]
    if part.kind == "square":
        pq, right, up, corner = bids
        return [(pq, right, ONE), (pq, up, ONE), (up, corner, ONE), (right, corner, MINUS_ONE)]
    return [(u, v, ONE) if sum(u) < sum(v) else (v, u, ONE) for u, v in zip(bids, bids[1:])]


def decompose(dc: DoubleComplex) -> Decomposition:
    """The certified square/zigzag decomposition of dc.  Checks dc first;
    its tables come from dc's memo when an engine has computed them."""
    tables = all_tables(dc.check())
    if dc.factors:
        raw = _factored_parts(dc)
    else:
        act = {pq: Matrix.identity(dc.spaces[pq]) for pq in dc.spaces}
        cur = _Active(dict(dc.spaces), dict(dc.del_maps), dict(dc.delbar_maps))
        raw = _phase_a(dc, act, cur) + _phase_b(dc, act, cur)
    ranked = sorted(((_shape_of(part), part) for part in raw), key=lambda sp: _sort_key(sp[0]))

    # the block model, each part's vertices at the next free coordinate of
    # their bidegrees, and the vectors of C in the same order
    cols: dict[Bidegree, list[Column]] = {pq: [] for pq in dc.spaces}
    dels: dict[Bidegree, dict] = {}  # source -> {(row, col): entry}
    delbars: dict[Bidegree, dict] = {}
    for _, part in ranked:
        at = {}
        for bid, vec in part.verts:
            at[bid] = len(cols[bid])
            cols[bid].append(vec)
        for src, tgt, v in _edges(part):
            maps = delbars if tgt[0] == src[0] else dels
            maps.setdefault(src, {})[(at[tgt], at[src])] = v

    change: dict[Bidegree, Matrix] = {}
    for pq, vs in cols.items():
        # none, too few, too many, dependent or out-of-range vectors all fail here
        n = dc.spaces[pq]
        if not (all(0 <= i < n for v in vs for i in v) and len(vs) == rank_columns(vs) == n):
            raise InternalError(f"the parts give no basis at {pq}")
        change[pq] = _from_columns(n, vs)
    spaces = dc.spaces  # now also the model's
    model = DoubleComplex(spaces, *(
        {(p, q): _canonical(spaces[(p + dp, q + dq)], spaces[(p, q)], e)
         for (p, q), e in maps.items()}
        for maps, dp, dq in ((dels, 1, 0), (delbars, 0, 1))
    ))
    # wherever either side stores a map: there an absent one is zero, so a
    # map the model lacks must vanish on C
    for maps, model_maps, dc_map, model_map, (dp, dq) in (
        (dc.del_maps, model.del_maps, dc.del_map, model.del_map, (1, 0)),
        (dc.delbar_maps, model.delbar_maps, dc.delbar_map, model.delbar_map, (0, 1)),
    ):
        for (p, q) in sorted(maps.keys() | model_maps.keys()):
            if dc_map(p, q) @ change[(p, q)] != change[(p + dp, q + dq)] @ model_map(p, q):
                raise InternalError(
                    f"conjugated differential is not block-diagonal at ({p},{q})"
                )

    grouped: list[tuple[Shape, int]] = []
    for shape, _ in ranked:
        if grouped and grouped[-1][0] == shape:
            grouped[-1] = (shape, grouped[-1][1] + 1)
        else:
            grouped.append((shape, 1))
    if shape_tables(grouped) != tables:
        raise InternalError("block model changes a cohomology table")
    return Decomposition(grouped, change, model)


def shape_tables(parts: Iterable[tuple[Shape, int]]) -> dict[str, dict]:
    """The five cohomology tables of a direct sum of shapes, each (shape,
    multiplicity), from Stelzig's local rules ("On the structure of double
    complexes", arXiv:1812.00865), keyed and ordered as `all_tables`.

    Squares add nothing.  In a zigzag, a vertex with no delbar edge adds
    1 to Dolbeault at its bidegree and one with no del edge 1 to del; one
    with no outgoing edge adds 1 to Bott-Chern and one with no incoming
    edge 1 to Aeppli.  A zigzag with an odd number of vertices adds 1 to
    de Rham in the total degree that holds more of its vertices.
    """
    tables: dict[str, Counter] = {
        name: Counter() for name in ("dolbeault", "del", "bott_chern", "aeppli", "de_rham")
    }
    for shape, mult in parts:
        if isinstance(shape, Square):
            continue
        verts = shape.vertices
        edges: dict[Bidegree, set[str]] = {v: set() for v in verts}
        for a, b in zip(verts, verts[1:]):
            src, tgt = (a, b) if sum(a) < sum(b) else (b, a)
            kind = "del" if a[0] != b[0] else "delbar"
            edges[src] |= {kind, "out"}
            edges[tgt] |= {kind, "in"}
        for v, has in edges.items():
            for name, edge in (("dolbeault", "delbar"), ("del", "del"),
                               ("bott_chern", "out"), ("aeppli", "in")):
                if edge not in has:
                    tables[name][v] += mult
        if len(verts) % 2:
            degrees = Counter(p + q for p, q in verts)
            tables["de_rham"][max(degrees, key=degrees.__getitem__)] += mult
    return {name: dict(sorted(t.items())) for name, t in tables.items()}


def page1_by_shape(d: Decomposition) -> bool:
    """Squares, dots and lines only; any longer zigzag breaks page 1."""
    return all(
        isinstance(shape, Square) or len(shape.steps) <= 1 for shape, _ in d.parts
    )


def report_lines(d: Decomposition) -> list[str]:
    out = []
    for shape, mult in d.parts:
        if isinstance(shape, Square):
            out.append(f"square {shape.p} {shape.q} {mult}")
        else:
            tail = "".join(f" {s}" for s in shape.steps)
            out.append(f"zigzag {mult} {shape.start[0]} {shape.start[1]}{tail}")
    return out


# -- random generators ---------------------------------------------------------


def _zigzag_vertices(rng: random.Random, nverts: int, span: int) -> list[Bidegree]:
    p = rng.randint(0, span)
    q = rng.randint(0, span)
    first_del = rng.random() < 0.5
    forward = rng.random() < 0.5
    verts = [(p, q)]
    for i in range(nverts - 1):
        is_del = first_del if i % 2 == 0 else not first_del
        step = (1, 0) if is_del else (0, 1)
        sign = 1 if (forward if i % 2 == 0 else not forward) else -1
        p, q = p + sign * step[0], q + sign * step[1]
        verts.append((p, q))
    dp = -min(p for p, _ in verts)
    dq = -min(q for _, q in verts)
    return [(p + max(dp, 0), q + max(dq, 0)) for p, q in verts]


def _square_complex(p: int, q: int) -> DoubleComplex:
    one = Matrix(1, 1, {(0, 0): ONE})
    return DoubleComplex.build(
        {(p, q): 1, (p + 1, q): 1, (p, q + 1): 1, (p + 1, q + 1): 1},
        {(p, q): one, (p, q + 1): one},
        {(p, q): one, (p + 1, q): Matrix(1, 1, {(0, 0): MINUS_ONE})},
    )


def _zigzag_complex(verts: list[Bidegree]) -> DoubleComplex:
    """One line of 1-dimensional spaces through verts, every map 1."""
    one = Matrix(1, 1, {(0, 0): ONE})
    dels: dict[Bidegree, Matrix] = {}
    delbars: dict[Bidegree, Matrix] = {}
    for a, b in zip(verts, verts[1:]):
        src, tgt = (a, b) if sum(a) < sum(b) else (b, a)
        (dels if tgt[0] == src[0] + 1 else delbars)[src] = one
    return DoubleComplex.build({v: 1 for v in verts}, dels, delbars)


def random_zigzag_sum(
    seed: int,
    shapes: tuple = (1, 2, 3, 4, 5, "square"),
    max_parts: int = 6,
    span: int = 3,
) -> tuple[DoubleComplex, list[Shape]]:
    """Deterministic direct sum of randomly placed shapes.

    Integer shapes are zigzag vertex counts; "square" is a square.
    Returns the sum and the multiset of canonical shapes that went in.
    """
    rng = random.Random(seed)
    parts, planted = [], []
    for _ in range(rng.randint(1, max_parts)):
        kind = rng.choice(shapes)
        if kind == "square":
            p, q = rng.randint(0, span), rng.randint(0, span)
            parts.append(_square_complex(p, q))
            planted.append(Square(p, q))
        else:
            verts = _zigzag_vertices(rng, kind, span)
            parts.append(_zigzag_complex(verts))
            planted.append(_zigzag_shape(verts))
    return direct_sum(parts)[0], planted


def random_page1_complex(seed: int, max_parts: int = 6, span: int = 3) -> DoubleComplex:
    return random_zigzag_sum(seed, (1, 2, "square"), max_parts, span)[0]


def shuffle_basis(dc: DoubleComplex, seed: int) -> DoubleComplex:
    """Conjugate by random unimodular integer matrices, one per bidegree:
    u by row operations on I, and u^-1 by the inverse column operations,
    each applied on the right, in the same order."""
    rng = random.Random(seed)
    u: dict[Bidegree, Matrix] = {}
    uinv: dict[Bidegree, Matrix] = {}
    for pq in dc.bidegrees():
        n = dc.spaces[pq]
        rows: list[Column] = [{i: ONE} for i in range(n)]  # the rows of u
        cols: list[Column] = [{i: ONE} for i in range(n)]  # the columns of u^-1
        for _ in range(2 * n + 2):
            i = rng.randrange(n)
            j = rng.randrange(n)
            op = rng.random()
            if op < 0.6 and i != j:  # row_i += lam row_j, so col_j -= lam col_i
                lam = sc(rng.choice([-2, -1, 1, 2]))
                _subtract(rows[i], -lam, rows[j])
                _subtract(cols[j], lam, cols[i])
            elif op < 0.8:
                rows[i], rows[j] = rows[j], rows[i]
                cols[i], cols[j] = cols[j], cols[i]
            else:
                rows[i] = {c: -v for c, v in rows[i].items()}
                cols[i] = {r: -v for r, v in cols[i].items()}
        u[pq], uinv[pq] = _from_columns(n, rows).transpose(), _from_columns(n, cols)
    dels = {}
    delbars = {}
    for (p, q) in dc.bidegrees():
        if (p + 1, q) in dc.spaces:
            dels[(p, q)] = uinv[(p + 1, q)] @ dc.del_map(p, q) @ u[(p, q)]
        if (p, q + 1) in dc.spaces:
            delbars[(p, q)] = uinv[(p, q + 1)] @ dc.delbar_map(p, q) @ u[(p, q)]
    return DoubleComplex.build(dict(dc.spaces), dels, delbars)

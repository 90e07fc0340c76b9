"""Bounded double complexes over Q(i) and their cohomology tables.

A double complex stores finite-dimensional spaces indexed by bidegree
(p, q) together with two anticommuting differentials: del of bidegree
(1, 0) and delbar of bidegree (0, 1).  Maps are matrices acting on
coordinate columns, so a map from (p, q) to (p+1, q) has shape
dim(p+1, q) x dim(p, q).

Storage rule: a differential that is not stored is zero.  spaces holds
only strictly positive dimensions, and a map is stored at (p, q) only
when it is nonzero and both its source and its target are present.
`build` enforces this; `validate` re-checks the endpoints and shapes of
the stored maps and the three axioms where they meet.  `del_map`,
`delbar_map` and `SimpleComplex.map` give a shaped zero for an absent
map, for callers that need one as an operand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalError, ValidationError
from .linalg import Column, Matrix, _columns, _combine, kron, lows, rank_columns
from .scalars import MINUS_ONE, ONE

Bidegree = tuple[int, int]


@dataclass
class DoubleComplex:
    """factors, when not empty, records the complex as a direct sum of
    tensor products: one (a, b, offsets) per summand tensor_product(a, b),
    offsets[(p, q)] being its first coordinate in the (p, q) space.  Only
    `tensor_product` and `direct_sum` set it.  `decompose` reads its parts
    off it and certifies them as any others; it is not compared or shown."""

    spaces: dict[Bidegree, int]
    del_maps: dict[Bidegree, Matrix]
    delbar_maps: dict[Bidegree, Matrix]
    factors: tuple[tuple[SimpleComplex, SimpleComplex, dict[Bidegree, int]], ...] = field(
        default=(), compare=False, repr=False
    )

    # -- construction ---------------------------------------------------

    @staticmethod
    def build(
        spaces: dict[Bidegree, int],
        del_maps: dict[Bidegree, Matrix] | None = None,
        delbar_maps: dict[Bidegree, Matrix] | None = None,
    ) -> DoubleComplex:
        """Normalize raw data into the storage rule.

        Zero-dimensional spaces and zero maps are dropped; a nonzero map
        attached to an absent endpoint, or any map of the wrong shape
        between present ones, raises ValidationError.
        """
        del_maps = del_maps or {}
        delbar_maps = delbar_maps or {}
        for (pq, d) in spaces.items():
            if d < 0:
                raise ValidationError(f"negative dimension at {pq}")
        sp = {pq: d for pq, d in spaces.items() if d > 0}

        def norm(maps: dict[Bidegree, Matrix], dp: int, dq: int, name: str):
            out: dict[Bidegree, Matrix] = {}
            for (p, q), m in maps.items():
                src = sp.get((p, q), 0)
                tgt = sp.get((p + dp, q + dq), 0)
                if src == 0 or tgt == 0:
                    if not m.is_zero:
                        raise ValidationError(
                            f"{name} map at ({p},{q}) touches an absent space"
                        )
                    continue
                if (m.nrows, m.ncols) != (tgt, src):
                    raise ValidationError(
                        f"{name} map at ({p},{q}) has shape "
                        f"{m.nrows}x{m.ncols}, expected {tgt}x{src}"
                    )
                if m.entries:
                    out[(p, q)] = m
            return out

        return DoubleComplex(
            spaces=sp,
            del_maps=norm(del_maps, 1, 0, "del"),
            delbar_maps=norm(delbar_maps, 0, 1, "delbar"),
        )

    # -- access ----------------------------------------------------------

    def dim(self, p: int, q: int) -> int:
        return self.spaces.get((p, q), 0)

    def bidegrees(self) -> list[Bidegree]:
        return sorted(self.spaces)

    def del_map(self, p: int, q: int) -> Matrix:
        m = self.del_maps.get((p, q))
        if m is None:
            m = Matrix.zero(self.dim(p + 1, q), self.dim(p, q))
        return m

    def delbar_map(self, p: int, q: int) -> Matrix:
        m = self.delbar_maps.get((p, q))
        if m is None:
            m = Matrix.zero(self.dim(p, q + 1), self.dim(p, q))
        return m

    def total_dim(self) -> int:
        return sum(self.spaces.values())

    # -- validation --------------------------------------------------------

    def validate(self) -> list[str]:
        """All invariant and axiom violations, as human-readable strings.

        Structural problems are prefixed "structure:", axiom failures
        "axiom:".  An empty list means the complex is valid.  The axioms
        are checked where a stored map leaves (p, q): elsewhere every
        composite has an absent, hence zero, factor.
        """
        problems: list[str] = []
        for pq, d in self.spaces.items():
            if d <= 0:
                problems.append(f"structure: non-positive dimension at {pq}")

        def check_maps(maps: dict[Bidegree, Matrix], dp: int, dq: int, name: str):
            for (p, q), m in maps.items():
                src = self.dim(p, q)
                tgt = self.dim(p + dp, q + dq)
                if src == 0 or tgt == 0:
                    problems.append(
                        f"structure: {name} map stored at ({p},{q}) "
                        "without both endpoints"
                    )
                elif (m.nrows, m.ncols) != (tgt, src):
                    problems.append(
                        f"structure: {name} map at ({p},{q}) has wrong shape"
                    )

        dels, delbars = self.del_maps, self.delbar_maps
        check_maps(dels, 1, 0, "del")
        check_maps(delbars, 0, 1, "delbar")
        if problems:
            return problems

        for (p, q) in sorted(dels.keys() | delbars.keys()):
            d, b = dels.get((p, q)), delbars.get((p, q))
            if not _vanishes((dels.get((p + 1, q)), d)):
                problems.append(f"axiom: del^2 != 0 starting at ({p},{q})")
            if not _vanishes((delbars.get((p, q + 1)), b)):
                problems.append(f"axiom: delbar^2 != 0 starting at ({p},{q})")
            if not _vanishes((delbars.get((p + 1, q)), d), (dels.get((p, q + 1)), b)):
                problems.append(
                    f"axiom: del delbar + delbar del != 0 starting at ({p},{q})"
                )
        return problems

    def check(self) -> DoubleComplex:
        problems = self.validate()
        if problems:
            raise ValidationError("; ".join(problems))
        return self


def _vanishes(*pairs: tuple[Matrix | None, Matrix | None]) -> bool:
    """Whether the sum of after @ before over the pairs is zero, an absent
    (None) factor making its product zero."""
    terms = [a @ b for a, b in pairs if a is not None and b is not None]
    return not terms or not sum(terms[1:], terms[0]).entries


def transpose_complex(dc: DoubleComplex) -> DoubleComplex:
    """Swap the two directions: space (p, q) becomes space (q, p).

    The del maps of the result are the delbar maps of the input and
    vice versa, so the row filtration of dc is the column filtration of
    the transpose.
    """
    spaces = {(q, p): d for (p, q), d in dc.spaces.items()}
    del_maps = {(q, p): m for (p, q), m in dc.delbar_maps.items()}
    delbar_maps = {(q, p): m for (p, q), m in dc.del_maps.items()}
    return DoubleComplex(spaces, del_maps, delbar_maps)


def euler_characteristic(dc: DoubleComplex) -> int:
    return sum((-1) ** (p + q) * d for (p, q), d in dc.spaces.items())


# -- cohomology tables -------------------------------------------------------


def _drop_zeros(table: dict) -> dict:
    return {k: v for k, v in sorted(table.items()) if v}


def _cohomology(spaces: dict, ranks: dict, prev) -> dict:
    """dim ker(out) - rank(in) at every index, zero entries omitted.

    ranks[i] is the rank of the map leaving index i, absent when that map
    is zero, and prev(i) the index whose outgoing map enters i.
    """
    return _drop_zeros(
        {i: d - ranks.get(i, 0) - ranks.get(prev(i), 0) for i, d in spaces.items()}
    )


def _ranks(maps: dict, prev) -> dict:
    """The rank of each map of a chain of maps, prev(i) being the index of
    the map into i's space, with clearing: the maps are ranked in
    ascending index, and a column whose position is a low of the map into
    its space is skipped.  That low's reduced column is an image, so the
    map takes it to zero (d^2 = 0), which puts the skipped column in the
    span of the columns before it.  This needs a validated complex."""
    ranks: dict = {}
    found: dict = {}  # index -> the lows of its map
    for i in sorted(maps):
        cleared = found.get(prev(i), ())
        kept = [c for j, c in enumerate(_columns(maps[i])) if j not in cleared]
        found[i] = {low for low in lows(kept) if low is not None}
        ranks[i] = len(found[i])
    return ranks


def _prev(p: int) -> int:
    return p - 1


def _delbar_source(pq: Bidegree) -> Bidegree:
    return pq[0], pq[1] - 1


def _del_source(pq: Bidegree) -> Bidegree:
    return pq[0] - 1, pq[1]


def dolbeault_table(dc: DoubleComplex) -> dict[Bidegree, int]:
    """dim H^{p,q} of the delbar direction, zero entries omitted, from one
    elimination per delbar map.  `all_tables` reads it off its Bott-Chern
    and Aeppli pass instead."""
    return _cohomology(dc.spaces, _ranks(dc.delbar_maps, _delbar_source), _delbar_source)


def del_table(dc: DoubleComplex) -> dict[Bidegree, int]:
    """dim H^{p,q} of the del direction, zero entries omitted, from one
    elimination per del map.  `all_tables` reads it off its Bott-Chern and
    Aeppli pass instead."""
    return _cohomology(dc.spaces, _ranks(dc.del_maps, _del_source), _del_source)


def _map_columns(maps: dict[Bidegree, Matrix]) -> dict[Bidegree, list[Column]]:
    """Each nonzero map's sparse columns; a zero map has none."""
    return {pq: _columns(m) for pq, m in maps.items() if m.entries}


def _stacked(top: list[Column] | None, top_row: int,
             bottom: list[Column] | None, bottom_row: int) -> list[Column]:
    """Fresh columns of two maps out of one space, stacked: top's rows from
    top_row on, bottom's from bottom_row.  An absent map adds no rows."""
    if top is None:
        return [] if bottom is None else [{bottom_row + r: v for r, v in c.items()} for c in bottom]
    cols = [{top_row + r: v for r, v in c.items()} for c in top]
    for col, c in zip(cols, bottom or ()):
        for r, v in c.items():
            col[bottom_row + r] = v
    return cols


def _bidegree_tables(dc: DoubleComplex) -> dict[str, dict[Bidegree, int]]:
    """The Dolbeault, del, Bott-Chern and Aeppli tables from three
    eliminations per (p, q): del delbar out of (p, q), which gives
    Aeppli's kernel at (p, q) and Bott-Chern's image at (p + 1, q + 1);
    the stack of del over delbar out of (p, q); and the del and delbar
    maps into (p, q), del's columns first.  The rank of delbar out of
    (p, q) is the number of lows in the stack's delbar rows, which come
    last, and the rank of del into (p, q) the number of lows among the
    columns of del, which come first.  Every map's columns are read once."""
    dels, delbars = _map_columns(dc.del_maps), _map_columns(dc.delbar_maps)
    dd = {}
    for (p, q), cols in delbars.items():
        if (p, q + 1) in dels:
            after = dels[(p, q + 1)]
            dd[(p, q)] = rank_columns([_combine(after, c) for c in cols])
    bc, a, delbar_ranks, del_ranks = {}, {}, {}, {}
    for (p, q), n in dc.spaces.items():
        top = dc.dim(p + 1, q)
        out = [low for low in lows(_stacked(dels.get((p, q)), 0, delbars.get((p, q)), top))
               if low is not None]
        delbar_ranks[(p, q)] = sum(low >= top for low in out)
        bc[(p, q)] = n - len(out) - dd.get((p - 1, q - 1), 0)
        into_del = dels.get((p - 1, q), ())
        into = lows([*into_del, *delbars.get((p, q - 1), ())])
        del_ranks[(p - 1, q)] = sum(low is not None for low in into[:len(into_del)])
        a[(p, q)] = n - dd.get((p, q), 0) - sum(low is not None for low in into)
    return {
        "dolbeault": _cohomology(dc.spaces, delbar_ranks, _delbar_source),
        "del": _cohomology(dc.spaces, del_ranks, _del_source),
        "bott_chern": _drop_zeros(bc),
        "aeppli": _drop_zeros(a),
    }


def bott_chern_table(dc: DoubleComplex) -> dict[Bidegree, int]:
    """ker del  intersect  ker delbar, modulo the image of del delbar."""
    return _bidegree_tables(dc)["bott_chern"]


def aeppli_table(dc: DoubleComplex) -> dict[Bidegree, int]:
    """ker(del delbar) out of (p, q), modulo im del + im delbar."""
    return _bidegree_tables(dc)["aeppli"]


# -- total complex -------------------------------------------------------------


@dataclass
class TotalComplex:
    """The totalization Tot^k = direct sum of spaces with p + q = k.

    Within each degree the summands are ordered by ascending p; offsets
    give the starting coordinate of each bidegree.  The differential
    d = del + delbar (no extra signs: the two differentials anticommute)
    is laid out from the stored maps at these offsets by its users.
    """

    source: DoubleComplex
    degrees: list[int]
    parts: dict[int, list[Bidegree]]
    offsets: dict[Bidegree, int]
    dims: dict[int, int]

    @staticmethod
    def of(dc: DoubleComplex) -> TotalComplex:
        parts: dict[int, list[Bidegree]] = {}
        for (p, q) in dc.bidegrees():
            parts.setdefault(p + q, []).append((p, q))
        degrees = sorted(parts)
        offsets: dict[Bidegree, int] = {}
        dims: dict[int, int] = {}
        for k in degrees:
            parts[k].sort()
            off = 0
            for pq in parts[k]:
                offsets[pq] = off
                off += dc.spaces[pq]
            dims[k] = off
        return TotalComplex(dc, degrees, parts, offsets, dims)

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)


def de_rham_table(dc: DoubleComplex) -> dict[int, int]:
    """dim H^k of Tot, each d_k ranked from the columns of the del and
    delbar maps out of degree k, placed at Tot's offsets, with clearing
    as in `_ranks`: the degrees are ranked in ascending order, and a
    column whose position is a low of d_{k-1} is skipped.  A space with
    no map out has zero columns, which still take up their positions."""
    tot = TotalComplex.of(dc)
    dels, delbars = _map_columns(dc.del_maps), _map_columns(dc.delbar_maps)
    ranks: dict[int, int] = {}
    cleared: set[int] = set()  # the lows of d_{k-1}, positions in Tot^k
    for k in tot.degrees:
        kept: list[Column] = []
        for (p, q) in tot.parts[k]:
            base = tot.offsets[(p, q)]
            cols = _stacked(dels.get((p, q)), tot.offsets.get((p + 1, q), 0),
                            delbars.get((p, q)), tot.offsets.get((p, q + 1), 0))
            kept += [c for i, c in enumerate(cols) if base + i not in cleared]
        cleared = {low for low in lows(kept) if low is not None}
        ranks[k] = len(cleared)
    return _cohomology(tot.dims, ranks, _prev)


def all_tables(dc: DoubleComplex) -> dict[str, dict]:
    """All five tables from four families of eliminations: del delbar, the
    stacks out of and into each (p, q) (see `_bidegree_tables`) and the
    d_k of `de_rham_table`.  Neither `dolbeault_table` nor `del_table`
    runs."""
    return {**_bidegree_tables(dc), "de_rham": de_rham_table(dc)}


# -- graded complexes and tensor products ------------------------------------


@dataclass
class SimpleComplex:
    """A bounded complex of finite-dimensional spaces with one degree-1 map."""

    spaces: dict[int, int]
    maps: dict[int, Matrix]

    @staticmethod
    def build(spaces: dict[int, int], maps: dict[int, Matrix] | None = None):
        maps = maps or {}
        sp = {p: d for p, d in spaces.items() if d > 0}
        out: dict[int, Matrix] = {}
        for p, m in maps.items():
            src = sp.get(p, 0)
            tgt = sp.get(p + 1, 0)
            if src == 0 or tgt == 0:
                if not m.is_zero:
                    raise ValidationError(f"map at {p} touches an absent space")
                continue
            if (m.nrows, m.ncols) != (tgt, src):
                raise ValidationError(f"map at {p} has wrong shape")
            if m.entries:
                out[p] = m
        return SimpleComplex(sp, out)

    def dim(self, p: int) -> int:
        return self.spaces.get(p, 0)

    def map(self, p: int) -> Matrix:
        m = self.maps.get(p)
        if m is None:
            m = Matrix.zero(self.dim(p + 1), self.dim(p))
        return m

    def validate(self) -> list[str]:
        problems = []
        for p in sorted(self.maps):
            if not _vanishes((self.maps.get(p + 1), self.maps[p])):
                problems.append(f"axiom: d^2 != 0 starting in degree {p}")
        return problems

    def check(self) -> SimpleComplex:
        problems = self.validate()
        if problems:
            raise ValidationError("; ".join(problems))
        return self

    def cohomology(self) -> dict[int, int]:
        """dim H^p, zero entries omitted; trusts that d^2 = 0 (see `check`)."""
        return _cohomology(self.spaces, _ranks(self.maps, _prev), _prev)

    def conjugate(self) -> SimpleComplex:
        return SimpleComplex(
            dict(self.spaces), {p: m.conjugate() for p, m in self.maps.items()}
        )


def _copy(c: SimpleComplex) -> SimpleComplex:
    return SimpleComplex(dict(c.spaces), dict(c.maps))


def tensor_product(a: SimpleComplex, b: SimpleComplex) -> DoubleComplex:
    """Bicomplex A tensor B: del = d_A (x) id, delbar = (-1)^p id (x) d_B.

    Basis pairs (i, j) are flattened as i * dim(B^q) + j.  The sign on
    delbar makes the two differentials anticommute.
    """
    spaces: dict[Bidegree, int] = {}
    for p, da in a.spaces.items():
        for q, db in b.spaces.items():
            spaces[(p, q)] = da * db
    del_maps: dict[Bidegree, Matrix] = {}
    delbar_maps: dict[Bidegree, Matrix] = {}
    for (p, q) in spaces:
        if p in a.maps:
            del_maps[(p, q)] = kron(a.maps[p], Matrix.identity(b.dim(q)))
        if q in b.maps:
            m = kron(Matrix.identity(a.dim(p)), b.maps[q])
            delbar_maps[(p, q)] = -m if p % 2 else m
    dc = DoubleComplex.build(spaces, del_maps, delbar_maps)
    # copies, so that a caller changing a or b later leaves the record true
    dc.factors = ((_copy(a), _copy(b), dict.fromkeys(dc.spaces, 0)),)
    return dc


def direct_sum(
    summands: list[DoubleComplex],
) -> tuple[DoubleComplex, list[dict[Bidegree, int]]]:
    """Blockwise direct sum; also returns per-summand coordinate offsets.

    offsets[i][(p, q)] is the first coordinate of summand i inside the
    combined (p, q) space (present only when summand i is nonzero there).
    The sum keeps the summands' factors, shifted, when every one has them.
    """
    spaces: dict[Bidegree, int] = {}
    offsets: list[dict[Bidegree, int]] = []
    for dc in summands:
        offs: dict[Bidegree, int] = {}
        for pq, d in dc.spaces.items():
            offs[pq] = spaces.get(pq, 0)
            spaces[pq] = spaces.get(pq, 0) + d
        offsets.append(offs)

    def assemble(which: str, dp: int, dq: int) -> dict[Bidegree, Matrix]:
        out: dict[Bidegree, dict] = {}
        for i, dc in enumerate(summands):
            maps = dc.del_maps if which == "del" else dc.delbar_maps
            for (p, q), m in maps.items():
                so = offsets[i][(p, q)]
                to = offsets[i][(p + dp, q + dq)]
                dst = out.setdefault((p, q), {})
                for (r, c), v in m.entries.items():
                    dst[(to + r, so + c)] = v
        return {
            (p, q): Matrix(
                spaces.get((p + dp, q + dq), 0), spaces[(p, q)], entries
            )
            for (p, q), entries in out.items()
        }

    dc = DoubleComplex.build(
        spaces, assemble("del", 1, 0), assemble("delbar", 0, 1)
    )
    if all(summand.factors for summand in summands):
        dc.factors = tuple(
            (a, b, {pq: offs[pq] + o for pq, o in inner.items()})
            for summand, offs in zip(summands, offsets)
            for a, b, inner in summand.factors
        )
    return dc, offsets


# -- real structures ------------------------------------------------------------


@dataclass
class RealStructure:
    """An antilinear involution sigma with sigma(A^{p,q}) = A^{q,p}.

    sigma[(p, q)] is the matrix S with sigma(v) = S @ conj(v) in
    coordinates, mapping (p, q) coordinates to (q, p) coordinates.
    Every builder's sigma follows one rule, conjugation of forms
    x (x) y -> (-1)^{pq} ybar (x) xbar on twisted exterior algebras,
    written down once in `labeled_tensor_sum`.
    """

    sigma: dict[Bidegree, Matrix]


def check_real_structure(dc: DoubleComplex, rs: RealStructure) -> list[str]:
    """Involution and intertwining checks; empty list means valid.

    Conditions: S_{q,p} conj(S_{p,q}) = id, and sigma swaps the two
    differentials: S_{p+1,q} conj(del_{p,q}) = delbar_{q,p} S_{p,q} and
    the mirrored condition for delbar.
    """
    problems = []
    for pq in dc.bidegrees():
        if pq not in rs.sigma:
            problems.append(f"structure: sigma missing at {pq}")
    if problems:
        return problems
    for (p, q) in dc.bidegrees():
        s = rs.sigma[(p, q)]
        if (s.nrows, s.ncols) != (dc.dim(q, p), dc.dim(p, q)):
            problems.append(f"structure: sigma at ({p},{q}) has wrong shape")
            continue
        back = rs.sigma.get((q, p))
        if back is None:
            problems.append(f"structure: sigma missing at ({q},{p})")
            continue
        if back @ s.conjugate() != Matrix.identity(dc.dim(p, q)):
            problems.append(f"axiom: sigma^2 != id at ({p},{q})")
        if (p + 1, q) in dc.spaces:
            lhs = rs.sigma[(p + 1, q)] @ dc.del_map(p, q).conjugate()
            rhs = dc.delbar_map(q, p) @ s
            if lhs != rhs:
                problems.append(
                    f"axiom: sigma del != delbar sigma at ({p},{q})"
                )
        if (p, q + 1) in dc.spaces:
            lhs = rs.sigma[(p, q + 1)] @ dc.delbar_map(p, q).conjugate()
            rhs = dc.del_map(q, p) @ s
            if lhs != rhs:
                problems.append(
                    f"axiom: sigma delbar != del sigma at ({p},{q})"
                )
    return problems


def labeled_tensor_sum(blocks: list) -> tuple[DoubleComplex, RealStructure]:
    """Direct sum of tensor products, with sigma conjugation of forms.

    Each block is (a, a_twist, a_labels, b, b_twist, b_labels): the
    holomorphic and antiholomorphic exterior complexes of its summand
    tensor_product(a, b), the twist dicts they were built with, and their
    basis subsets per degree.  The basis vector (i, j) in bidegree (p, q)
    is labelled (hol twist, anti twist, a_labels[p][i], b_labels[q][j]),
    a twist written as sorted (generator, scalar) pairs.  The one rule:
    sigma sends that label to (conj anti twist, conj hol twist, anti
    subset, hol subset) with sign (-1)^{pq}, i.e. x (x) y -> ybar (x) xbar.
    A twist and a subset fix the form, so a repeated label, like a
    missing target label, is an InternalError; so is a result failing the
    axioms or the sigma checks, the builders having validated their data.
    """
    dc, _ = direct_sum([tensor_product(a, b) for a, _, _, b, _, _ in blocks])
    labels: dict[Bidegree, list] = {}
    for _, a_twist, a_labels, _, b_twist, b_labels in blocks:
        hol, anti = tuple(sorted(a_twist.items())), tuple(sorted(b_twist.items()))
        conj = tuple(tuple((g, v.conjugate()) for g, v in tw) for tw in (anti, hol))
        for p, left in a_labels.items():
            for q, right in b_labels.items():
                labels.setdefault((p, q), []).extend(
                    ((hol, anti, x, y), conj + (y, x)) for x in left for y in right
                )
    sigma: dict[Bidegree, Matrix] = {}
    for (p, q) in dc.bidegrees():
        rows = {lab: i for i, (lab, _) in enumerate(labels.get((q, p), []))}
        if len(rows) < dc.dim(q, p):
            raise InternalError(f"basis label repeated at ({q},{p})")
        sign = MINUS_ONE if (p * q) % 2 else ONE
        entries = {}
        for col, (_, tlab) in enumerate(labels[(p, q)]):
            if tlab not in rows:
                raise InternalError(f"sigma target label missing at ({q},{p}): {tlab!r}")
            entries[(rows[tlab], col)] = sign
        sigma[(p, q)] = Matrix(dc.dim(q, p), dc.dim(p, q), entries)
    rs = RealStructure(sigma)
    bad = dc.validate()
    if bad:
        raise InternalError("built complex invalid: " + "; ".join(bad))
    bad = check_real_structure(dc, rs)
    if bad:
        raise InternalError("built sigma invalid: " + "; ".join(bad))
    return dc, rs

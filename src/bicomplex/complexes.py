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

A `DoubleComplex` is a value: its mappings are read-only copies and its
fields cannot be rebound (its `Matrix` maps must not be changed either,
which is not enforced).  So what is computed from a complex stays true
of it, and each complex keeps, privately, what the engines compute from
it once: that `check` passed, the four bidegree tables, de Rham and the
Hodge pieces (see `DoubleComplex`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import groupby
from types import MappingProxyType
from typing import Mapping

from .errors import InternalError, ValidationError
from .linalg import Column, Matrix, _canonical, _columns, _combine, lows, rank_columns
from .scalars import MINUS_ONE, ONE

Bidegree = tuple[int, int]


@dataclass(frozen=True)
class DoubleComplex:
    """An immutable double complex.  spaces, del_maps and delbar_maps are
    read-only copies of the mappings passed in, and no field can be
    rebound.

    factors, when not empty, records the complex as a direct sum of
    tensor products: one (a, b, offsets) per summand tensor_product(a, b),
    offsets[(p, q)] being its first coordinate in the (p, q) space.  Only
    `tensor_product` and `direct_sum` set it.  `decompose` reads its parts
    off it and certifies them as any others; it is not compared or shown.

    _memo is what the engines have computed from this very object, small
    records only: "valid" once `check` has passed (a failure is not
    kept), "tables" (the four bidegree tables), "de_rham" (from whichever
    row elimination of Tot ran first) and "pieces" (`HodgePieces`).  A
    reader copies what it hands out, so a caller cannot change the memo.
    A new object, also one made by `dataclasses.replace`,
    `transpose_complex` or `shuffle_basis`, starts with an empty memo."""

    spaces: Mapping[Bidegree, int]
    del_maps: Mapping[Bidegree, Matrix]
    delbar_maps: Mapping[Bidegree, Matrix]
    factors: tuple[tuple[SimpleComplex, SimpleComplex, dict[Bidegree, int]], ...] = field(
        default=(), compare=False, repr=False
    )
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("spaces", "del_maps", "delbar_maps"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def __reduce__(self):
        # a read-only mapping does not pickle; a copy starts with an empty memo
        return DoubleComplex, (dict(self.spaces), dict(self.del_maps), dict(self.delbar_maps),
                               self.factors)

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
        """self, once `validate` has found nothing: raises ValidationError
        with every problem otherwise.  Validates once per object."""
        if "valid" not in self._memo:
            problems = self.validate()
            if problems:
                raise ValidationError("; ".join(problems))
            self._memo["valid"] = True
        return self


def _known(dc: DoubleComplex, key: str, compute):
    """dc's memo entry key, compute(dc) on the first call.  The entry
    itself: a caller hands out a copy."""
    memo = dc._memo
    if key not in memo:
        memo[key] = compute(dc)
    return memo[key]


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


def _tables(dc: DoubleComplex) -> dict[str, dict[Bidegree, int]]:
    """dc's four bidegree tables, computed once per complex; fresh dicts."""
    return {name: dict(t) for name, t in _known(dc, "tables", _bidegree_tables).items()}


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
    return _tables(dc)["bott_chern"]


def aeppli_table(dc: DoubleComplex) -> dict[Bidegree, int]:
    """ker(del delbar) out of (p, q), modulo im del + im delbar."""
    return _tables(dc)["aeppli"]


# -- total complex -------------------------------------------------------------


@dataclass
class TotalComplex:
    """The totalization Tot^k = direct sum of spaces with p + q = k.

    Within each degree the summands are ordered by ascending p; offsets
    give the starting coordinate of each bidegree.  The differential
    d = del + delbar (no extra signs: the two differentials anticommute)
    is laid out from the stored maps at these offsets by its users.  The
    engines use none: `_total` orders the cells of both filtrations.
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


@dataclass
class _Pairing:
    """The pairs of one persistence reduction of dc's column filtration (dc
    is the transpose for "row"), as cell indices, and its unpaired cells."""

    filtration: str
    dc: DoubleComplex
    cells: list[Bidegree]
    pairs: list[tuple[int, int]]  # (low, column)
    unpaired: list[int]


def _total(dc: DoubleComplex, filtration: str
           ) -> tuple[DoubleComplex, list[Bidegree], dict[Bidegree, int], list[Column]]:
    """dc (its transpose for "row"), its cells by total degree, then by
    descending p, with the first cell of each space, and the columns of
    d = del + delbar on them."""
    if filtration == "row":
        dc = transpose_complex(dc)
    elif filtration != "col":
        raise ValueError(f"unknown filtration {filtration!r}")
    order = sorted(dc.spaces, key=lambda pq: (pq[0] + pq[1], -pq[0]))
    start: dict[Bidegree, int] = {}
    cells: list[Bidegree] = []
    for pq in order:
        start[pq] = len(cells)
        cells += [pq] * dc.spaces[pq]
    cols: list[Column] = [{} for _ in cells]
    for (p, q) in order:  # d from the stored maps
        for maps, tgt in ((dc.del_maps, (p + 1, q)), (dc.delbar_maps, (p, q + 1))):
            if (p, q) in maps:
                for (r, c), v in maps[(p, q)].entries.items():
                    cols[start[(p, q)] + c][start[tgt] + r] = v
    return dc, cells, start, cols


def _pair(dc: DoubleComplex, filtration: str) -> _Pairing:
    """The pairs of one filtration from the lows alone, with clearing, one
    total degree at a time: column j pairs with its low, and a cell that
    has no low and is no low is unpaired.  Clearing skips a column whose
    cell is a low of the degree below, as in `_ranks`, so it needs a
    validated complex."""
    dc, cells, _, cols = _total(dc, filtration)
    pairs: list[tuple[int, int]] = []
    unpaired: list[int] = []
    bounded: set[int] = set()
    for _, degree in groupby(range(len(cells)), key=lambda j: sum(cells[j])):
        kept = [j for j in degree if j not in bounded]
        for j, low in zip(kept, lows(cols[j] for j in kept)):
            if low is None:
                unpaired.append(j)
            else:
                pairs.append((low, j))
                bounded.add(low)
    return _Pairing(filtration, dc, cells, pairs, unpaired)


def _de_rham(red: _Pairing) -> dict[int, int]:
    """dim H^k of Tot: the unpaired cells of one pairing, per total degree
    (either filtration's; the transpose keeps p + q)."""
    return _drop_zeros(Counter(sum(red.cells[j]) for j in red.unpaired))


def de_rham_table(dc: DoubleComplex) -> dict[int, int]:
    """dim H^k of Tot, zero entries omitted, read off the row pairing:
    its unpaired cells per total degree.  That pairing is the only
    lows-only elimination of Tot; `spectral_pages` reads the row pages off
    the same one.  Goes into dc's memo if no row elimination of dc has put
    de Rham there yet; the engines read it there (`_known_de_rham`).
    Trusts that d^2 = 0 (see `DoubleComplex.check`)."""
    de_rham = _de_rham(_pair(dc, "row"))
    dc._memo.setdefault("de_rham", de_rham)
    return dict(de_rham)


def _known_de_rham(dc: DoubleComplex) -> dict[int, int]:
    """dc's de Rham table, a fresh dict: from its memo, else `de_rham_table`."""
    known = dc._memo.get("de_rham")
    return dict(known) if known is not None else de_rham_table(dc)


def all_tables(dc: DoubleComplex) -> dict[str, dict]:
    """All five tables, fresh dicts, each computed once per complex: the
    four bidegree tables from three families of eliminations (see
    `_bidegree_tables`) and de Rham from the first row elimination of Tot
    (`_known_de_rham`).  Neither `dolbeault_table` nor `del_table` runs."""
    return {**_tables(dc), "de_rham": _known_de_rham(dc)}


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
    # each factor entry copied to its kron positions: d_A's entry (r, c)
    # to (r n + j, c n + j) for j < n = dim B^q, d_B's entry (r, c) to
    # (i R + r, i C + c) for i < dim A^p, R x C being d_B's shape
    del_maps: dict[Bidegree, Matrix] = {}
    delbar_maps: dict[Bidegree, Matrix] = {}
    for (p, q) in spaces:
        if p in a.maps:
            m, n = a.maps[p], b.dim(q)
            del_maps[(p, q)] = _canonical(m.nrows * n, m.ncols * n, {
                (r * n + j, c * n + j): v for (r, c), v in m.entries.items() for j in range(n)
            })
        if q in b.maps:
            m = b.maps[q]
            entries = [(r, c, -v if p % 2 else v) for (r, c), v in m.entries.items()]
            rows, cols, n = m.nrows, m.ncols, a.dim(p)
            delbar_maps[(p, q)] = _canonical(rows * n, cols * n, {
                (i * rows + r, i * cols + c): v for i in range(n) for r, c, v in entries
            })
    dc = DoubleComplex.build(spaces, del_maps, delbar_maps)
    # copies, so that a caller changing a or b later leaves the record true
    return replace(dc, factors=((_copy(a), _copy(b), dict.fromkeys(dc.spaces, 0)),))


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
        # the summands' entries, moved: nonzero and in range already
        return {
            (p, q): _canonical(spaces[(p + dp, q + dq)], spaces[(p, q)], entries)
            for (p, q), entries in out.items()
        }

    dc = DoubleComplex.build(
        spaces, assemble("del", 1, 0), assemble("delbar", 0, 1)
    )
    if all(summand.factors for summand in summands):
        dc = replace(dc, factors=tuple(
            (a, b, {pq: offs[pq] + o for pq, o in inner.items()})
            for summand, offs in zip(summands, offsets)
            for a, b, inner in summand.factors
        ))
    return dc, offsets


# -- real structures ------------------------------------------------------------


@dataclass
class RealStructure:
    """An antilinear involution sigma with sigma(A^{p,q}) = A^{q,p}.

    sigma[(p, q)] is the matrix S with sigma(v) = S @ conj(v) in
    coordinates, mapping (p, q) coordinates to (q, p) coordinates.
    Every builder's sigma follows one rule, conjugation of forms
    x (x) y -> (-1)^{pq} ybar (x) xbar on twisted exterior algebras,
    written down once in `labeled_tensor_sum`: each S is a signed
    permutation, one entry (-1)^{pq} per column, and is checked there
    on the assembled complex by relabelling its maps' entries.
    `check_real_structure` checks any sigma by products.
    """

    sigma: dict[Bidegree, Matrix]


def check_real_structure(dc: DoubleComplex, rs: RealStructure) -> list[str]:
    """Involution and intertwining checks; empty list means valid.

    Conditions: S_{q,p} conj(S_{p,q}) = id, and sigma swaps the two
    differentials: S_{p+1,q} conj(del_{p,q}) = delbar_{q,p} S_{p,q} and
    the mirrored condition for delbar.  A sigma is needed at every
    bidegree of dc and may be stored at no other, as a map may not be
    stored without its endpoints.
    """
    problems = []
    for pq in dc.bidegrees():
        if pq not in rs.sigma:
            problems.append(f"structure: sigma missing at {pq}")
    for (p, q) in sorted(rs.sigma.keys() - dc.spaces.keys()):
        problems.append(f"structure: sigma stored at ({p},{q}) without its space")
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
    a twist written as a small int: each block interns its two twists,
    as sorted (generator, scalar) pairs, and their conjugates once.  The
    one rule: sigma sends that label to (conj anti twist, conj hol twist,
    anti subset, hol subset) with sign (-1)^{pq}, i.e. x (x) y -> ybar
    (x) xbar, so sigma at (p, q) is a permutation, column -> row of
    (q, p), and that sign.  A twist and a subset fix the form, so a
    repeated label, like a missing target label (named with its twists
    as pairs), is an InternalError; so is a result failing the axioms or
    the conditions of `check_real_structure`, which are checked on the
    assembled complex by relabelling its stored entries (`_sigma_problems`),
    the builders having validated their data.  The complex comes back
    checked (see `DoubleComplex.check`).
    """
    dc, _ = direct_sum([tensor_product(a, b) for a, _, _, b, _, _ in blocks])
    twists: dict[tuple, int] = {}
    labels: dict[Bidegree, list] = {}
    targets: dict[Bidegree, list] = {}
    for _, a_twist, a_labels, _, b_twist, b_labels in blocks:
        hol, anti = tuple(sorted(a_twist.items())), tuple(sorted(b_twist.items()))
        conj_hol, conj_anti = (tuple((g, v.conjugate()) for g, v in tw) for tw in (hol, anti))
        h, a, ch, ca = (
            twists.setdefault(tw, len(twists)) for tw in (hol, anti, conj_hol, conj_anti)
        )
        for p, left in a_labels.items():
            for q, right in b_labels.items():
                labels.setdefault((p, q), []).extend((h, a, x, y) for x in left for y in right)
                targets.setdefault((p, q), []).extend((ca, ch, y, x) for x in left for y in right)
    perms: dict[Bidegree, list[int]] = {}
    for (p, q) in dc.bidegrees():
        labs, tlabs = labels.get((q, p), ()), targets.get((p, q), ())
        rows = dict(zip(labs, range(len(labs))))
        if len(rows) < dc.dim(q, p):
            raise InternalError(f"basis label repeated at ({q},{p})")
        if len(labs) > dc.dim(q, p):
            raise InternalError(f"more basis labels than dimensions at ({q},{p})")
        try:
            perms[(p, q)] = [rows[t] for t in tlabs]
        except KeyError:
            names = list(twists)
            ca, ch, y, x = next(t for t in tlabs if t not in rows)
            tlab = (names[ca], names[ch], y, x)
            raise InternalError(f"sigma target label missing at ({q},{p}): {tlab!r}") from None
    try:
        dc.check()  # kept in dc's memo: the engines do not validate it again
    except ValidationError as e:
        raise InternalError(f"built complex invalid: {e}") from None
    bad = _sigma_problems(dc, perms)
    if bad:
        raise InternalError("built sigma invalid: " + "; ".join(bad))
    return dc, RealStructure({
        (p, q): _canonical(dc.dim(q, p), dc.dim(p, q), dict.fromkeys(
            zip(perm, range(len(perm))), MINUS_ONE if (p * q) % 2 else ONE))
        for (p, q), perm in perms.items()
    })


def _sigma_problems(dc: DoubleComplex, perms: dict[Bidegree, list[int]]) -> list[str]:
    """`check_real_structure`'s problems, in its order and words, for the
    sigma of signed permutations perms[(p, q)] (column -> row of (q, p),
    sign (-1)^{pq}) whose target labels were all found: no product is
    formed, each condition is read off the stored entries.  A condition
    whose target or mirrored target space is absent holds: both sides
    are zero."""
    problems = []
    for (p, q) in dc.bidegrees():
        perm, back = perms[(p, q)], perms.get((q, p))
        if back is None:
            problems.append(f"structure: sigma missing at ({q},{p})")
            continue
        if any(back[r] != c for c, r in enumerate(perm)):
            problems.append(f"axiom: sigma^2 != id at ({p},{q})")
        if (p + 1, q) in perms and (q, p + 1) in perms and not _swaps(
            dc.del_maps.get((p, q)), perms[(p + 1, q)], perm,
            dc.delbar_maps.get((q, p)), -1 if q % 2 else 1,
        ):
            problems.append(f"axiom: sigma del != delbar sigma at ({p},{q})")
        if (p, q + 1) in perms and (q + 1, p) in perms and not _swaps(
            dc.delbar_maps.get((p, q)), perms[(p, q + 1)], perm,
            dc.del_maps.get((q, p)), -1 if p % 2 else 1,
        ):
            problems.append(f"axiom: sigma delbar != del sigma at ({p},{q})")
    return problems


def _swaps(m: Matrix | None, row_perm: list[int], col_perm: list[int],
           other: Matrix | None, sign: int) -> bool:
    """Whether S' conj(m) = other S for the signed permutations S (col_perm,
    on m's source) and S' (row_perm, on its target) whose signs multiply
    to `sign`: each entry (r, c) -> v of m, relabelled to (row_perm[r],
    col_perm[c]), must be an entry sign * conj(v) of other, and other may
    have no more entries.  An absent map is zero."""
    if m is None or other is None:
        return m is other
    want = other.entries
    if len(m.entries) != len(want):
        return False
    for (r, c), v in m.entries.items():
        w = want.get((row_perm[r], col_perm[c]))
        if w is None or w.d != v.d or w.a != sign * v.a or w.b != -sign * v.b:
            return False
    return True

"""Sparse exact linear algebra over Q(i).

A map or a basis is a `Matrix`, stored as a dict (row, col) -> Scalar
with no zero entries.  A vector is a `Column`, a dict row -> nonzero
Scalar, combined only by `_subtract` (in place) and `_combine` (a
matrix, given by its columns, applied to a vector).

Column elimination keys sparse columns by their low, their largest
row, with columns added left to right.  Every elimination that reads
only lows (`rank`, `rank_columns`, a pivot set, the pairs of the
spectral pages) runs on `lows`, which reduces on raw ints and builds no
Scalar.  Those that track ops, the combinations of the added columns
(`kernel`, `echelon`, the V of the Hodge pieces, both phases of
decomposition), run on `Echelon`.  `rref` (leftmost pivot column, then
smallest row) serves reduced forms only: `solve_right`, `inverse` and
`rcef`, i.e. `Subspace`, which no other module of the package calls.
All find the same pivot columns, those outside the span of the columns
before them.  Every result is deterministic.

`Matrix(...)` validates its entries; a matrix this module derives from
valid ones (a product, sum, stack, slice, transpose, kernel ...) is
canonical by construction and is built by `_canonical`, unchecked.
Products and column updates whose scalars all have d = 1 run on the
Gaussian integers inside `Scalar` and build one `Scalar` per result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Iterable, Sequence

from .scalars import MINUS_ONE, ONE, ZERO, Scalar, _raw, sc

Entry = tuple[int, int]


def _coerce(v: object) -> Scalar:
    if isinstance(v, Scalar):
        return v
    return sc(v)  # type: ignore[arg-type]


@dataclass
class Matrix:
    nrows: int
    ncols: int
    entries: dict[Entry, Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[Entry, Scalar] = {}
        for (r, c), v in self.entries.items():
            if r < 0 or r >= self.nrows or c < 0 or c >= self.ncols:
                raise ValueError(f"entry ({r},{c}) outside {self.nrows}x{self.ncols}")
            if v:
                clean[(r, c)] = v
        self.entries = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nrows: int, ncols: int) -> Matrix:
        return _canonical(nrows, ncols, {})

    @staticmethod
    def identity(n: int) -> Matrix:
        return _canonical(n, n, {(i, i): ONE for i in range(n)})

    @staticmethod
    def from_rows(rows: Sequence[Sequence[object]]) -> Matrix:
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries: dict[Entry, Scalar] = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                s = _coerce(v)
                if s:
                    entries[(r, c)] = s
        return Matrix(nrows, ncols, entries)

    @staticmethod
    def column_vector(values: Sequence[object]) -> Matrix:
        return Matrix(len(values), 1, {(r, 0): _coerce(v) for r, v in enumerate(values)})

    # -- access ----------------------------------------------------------

    def get(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), ZERO)

    def to_rows(self) -> list[list[Scalar]]:
        rows = [[ZERO] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def column(self, j: int) -> Matrix:
        return self.columns([j])

    def columns(self, js: Sequence[int]) -> Matrix:
        pos = {j: k for k, j in enumerate(js)}
        entries = {
            (r, pos[c]): v for (r, c), v in self.entries.items() if c in pos
        }
        return _canonical(self.nrows, len(js), entries)

    def rows(self, rs: Sequence[int]) -> Matrix:
        pos = {r: k for k, r in enumerate(rs)}
        entries = {
            (pos[r], c): v for (r, c), v in self.entries.items() if r in pos
        }
        return _canonical(len(rs), self.ncols, entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Matrix) -> Matrix:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        out = dict(self.entries)
        for k, v in other.entries.items():
            nv = out.get(k, ZERO) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return _canonical(self.nrows, self.ncols, out)

    def __sub__(self, other: Matrix) -> Matrix:
        return self + (-other)

    def __neg__(self) -> Matrix:
        return _canonical(self.nrows, self.ncols, {k: -v for k, v in self.entries.items()})

    def scale(self, s: Scalar) -> Matrix:
        if not s:
            return Matrix.zero(self.nrows, self.ncols)
        return _canonical(
            self.nrows, self.ncols, {k: s * v for k, v in self.entries.items()}
        )

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        if not (self.entries and other.entries):
            return _canonical(self.nrows, other.ncols, {})
        by_row: dict[int, list[tuple[int, Scalar]]] = {}
        integral = True
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
            if v.d != 1:
                integral = False
        out = _product_integral(self.entries, by_row) if integral else None
        if out is None:
            out = {}
            for (r, k), va in self.entries.items():
                for c, vb in by_row.get(k, ()):
                    key = (r, c)
                    nv = out.get(key, ZERO) + va * vb
                    if nv:
                        out[key] = nv
                    else:
                        out.pop(key, None)
        return _canonical(self.nrows, other.ncols, out)

    def transpose(self) -> Matrix:
        return _canonical(
            self.ncols, self.nrows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def conjugate(self) -> Matrix:
        return _canonical(
            self.nrows,
            self.ncols,
            {k: v.conjugate() for k, v in self.entries.items()},
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "\n".join("[" + "  ".join(str(self.get(r, c)) for c in range(self.ncols)) + "]"
                         for r in range(self.nrows))


_new = object.__new__


def _canonical(nrows: int, ncols: int, entries: dict[Entry, Scalar]) -> Matrix:
    """A Matrix of entries that are nonzero and in range by construction,
    built without the validation of `Matrix(...)`."""
    m = _new(Matrix)
    m.nrows, m.ncols, m.entries = nrows, ncols, entries
    return m


def _product_integral(
    entries: dict[Entry, Scalar], by_row: dict[int, list[tuple[int, Scalar]]]
) -> dict[Entry, Scalar] | None:
    """The entries of a product, left factor's entries times the right
    factor's rows, when both are Gaussian integers (d = 1): summed on the
    ints, one Scalar per nonzero result.  None if a left entry has d != 1."""
    acc: dict[Entry, list[int]] = {}
    for (r, k), va in entries.items():
        row = by_row.get(k)
        if row is None:
            continue
        if va.d != 1:
            return None
        x, y = va.a, va.b
        for c, vb in row:
            u, w = vb.a, vb.b
            s = acc.get((r, c))
            if s is None:
                acc[(r, c)] = [x * u - y * w, x * w + y * u]
            else:
                s[0] += x * u - y * w
                s[1] += x * w + y * u
    return {key: _raw(re, im, 1) for key, (re, im) in acc.items() if re or im}


def hstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    nrows = mats[0].nrows
    entries: dict[Entry, Scalar] = {}
    off = 0
    for m in mats:
        if m.nrows != nrows:
            raise ValueError("row count mismatch in hstack")
        for (r, c), v in m.entries.items():
            entries[(r, c + off)] = v
        off += m.ncols
    return _canonical(nrows, off, entries)


def vstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    ncols = mats[0].ncols
    entries: dict[Entry, Scalar] = {}
    off = 0
    for m in mats:
        if m.ncols != ncols:
            raise ValueError("column count mismatch in vstack")
        for (r, c), v in m.entries.items():
            entries[(r + off, c)] = v
        off += m.nrows
    return _canonical(off, ncols, entries)


# -- elimination -----------------------------------------------------------


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Pivot selection is leftmost column first, then smallest row index,
    so the result (including the pivot list) is deterministic.
    """
    rows: list[dict[int, Scalar]] = [{} for _ in range(m.nrows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    pivots: list[int] = []
    top = 0
    for col in range(m.ncols):
        sel = -1
        for r in range(top, m.nrows):
            if col in rows[r]:
                sel = r
                break
        if sel < 0:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        inv = rows[top][col].inverse()
        prow = {c2: inv * v for c2, v in rows[top].items()}
        prow[col] = ONE  # avoid any residue from the division
        rows[top] = prow
        for r in range(m.nrows):
            if r == top:
                continue
            f = rows[r].get(col)
            if f is None:
                continue
            row = rows[r]
            for c2, v2 in prow.items():
                nv = row.get(c2, ZERO) - f * v2
                if nv:
                    row[c2] = nv
                else:
                    row.pop(c2, None)
        pivots.append(col)
        top += 1
        if top == m.nrows:
            break
    entries: dict[Entry, Scalar] = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            entries[(r, c)] = v
    return Matrix(m.nrows, m.ncols, entries), pivots


def rcef(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced column echelon form and the list of pivot rows."""
    r, pivots = rref(m.transpose())
    return r.transpose(), pivots


def solve_right(a: Matrix, b: Matrix) -> Matrix | None:
    """A particular solution X of A @ X = B, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve")
    r, pivots = rref(hstack([a, b]))
    for p in pivots:
        if p >= a.ncols:
            return None
    # a consistent RREF is zero below its last pivot row
    entries = {(pivots[i], c - a.ncols): v for (i, c), v in r.entries.items() if c >= a.ncols}
    return Matrix(a.ncols, b.ncols, entries)


def inverse(a: Matrix) -> Matrix:
    if a.nrows != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    x = solve_right(a, Matrix.identity(a.nrows))
    if x is None:
        raise ValueError("matrix is not invertible")
    return x


# -- incremental column echelon ----------------------------------------------

Column = dict[int, Scalar]  # row -> nonzero entry


def _subtract(col: Column, f: Scalar, other: Column) -> None:
    """col -= f * other, in place, for f != 0.  Where f, the entry of other
    and the entry of col it meets all have d = 1, the new entry is worked
    out on the ints and built once."""
    if f.d != 1:
        for i, v in other.items():
            nv = col.get(i, ZERO) - f * v
            if nv:
                col[i] = nv
            else:
                del col[i]
        return
    fa, fb = f.a, f.b
    for i, v in other.items():
        c = col.get(i, ZERO)
        if c.d == 1 == v.d:
            va, vb = v.a, v.b
            a, b = c.a - fa * va + fb * vb, c.b - fa * vb - fb * va
            if a or b:
                col[i] = _raw(a, b, 1)
            else:
                del col[i]
        else:
            nv = c - f * v
            if nv:
                col[i] = nv
            else:
                del col[i]


def _combine(cols: Sequence[Column], v: Column) -> Column:
    """The sum of v[j] * cols[j]: a matrix, given by its columns, applied to v."""
    out: Column = {}
    for j, x in v.items():
        _subtract(out, -x, cols[j])
    return out


@dataclass
class Echelon:
    """Sparse columns keyed by their low (largest nonzero row), 1 there, each
    with its ops: the combination of what the added columns stand for."""

    cols: dict[int, Column] = field(default_factory=dict)
    ops: dict[int, Column] = field(default_factory=dict)

    def reduce(self, col: Column, ops: Column) -> int | None:
        """Clear col's low by the stored column there while one exists, in
        place, doing the same to ops.  The remaining low, or None."""
        while col:
            low = max(col)
            piv = self.cols.get(low)
            if piv is None:
                return low
            f = col[low]
            _subtract(col, f, piv)
            _subtract(ops, f, self.ops[low])
        return None

    def add(self, col: Column, ops: Column) -> int | None:
        """Reduce col, then keep copies of it and its ops, scaled to 1 at its low (returned)."""
        low = self.reduce(col, ops)
        if low is not None:
            lead = col[low]
            if lead == ONE:
                self.cols[low], self.ops[low] = dict(col), dict(ops)
            elif lead == MINUS_ONE:  # a negation, not a multiply per entry
                self.cols[low] = {i: -v for i, v in col.items()}
                self.ops[low] = {i: -v for i, v in ops.items()}
            else:
                inv = lead.inverse()
                self.cols[low] = {i: inv * v for i, v in col.items()}
                self.ops[low] = {i: inv * v for i, v in ops.items()}
        return low


def _columns(m: Matrix) -> list[Column]:
    """m's columns, sparse."""
    cols: list[Column] = [{} for _ in range(m.ncols)]
    for (r, c), v in m.entries.items():
        cols[c][r] = v
    return cols


def _from_columns(nrows: int, cols: Sequence[Column]) -> Matrix:
    """The nrows-row matrix with these columns, whose rows lie in range."""
    entries = {(i, c): v for c, col in enumerate(cols) for i, v in col.items()}
    return _canonical(nrows, len(cols), entries)


def echelon(m: Matrix) -> tuple[Echelon, dict[int, int], Matrix]:
    """m's columns added left to right, column j with ops {j: 1}: the echelon,
    the low of each column outside the span of those before it (rref's
    pivot columns) and the kernel.  Its column for each other column j is
    j's ops: the one null vector that is 1 at j and 0 off j and the pivots."""
    ech, found, free = _echelon(_columns(m))
    return ech, found, _from_columns(m.ncols, free)


def _echelon(cols: Sequence[Column]) -> tuple[Echelon, dict[int, int], list[Column]]:
    """`echelon` on columns, which it reduces in place; the kernel as the
    ops of the columns that reduce to zero, in order."""
    ech, found, free = Echelon(), {}, []
    for j, col in enumerate(cols):
        ops = {j: ONE}
        low = ech.add(col, ops)
        if low is None:
            free.append(ops)
        else:
            found[j] = low
    return ech, found, free


def kernel(m: Matrix) -> Matrix:
    """The canonical basis of the right null space, as `echelon` gives it."""
    return echelon(m)[2]


def rank(m: Matrix) -> int:
    return rank_columns(_columns(m)) if m.entries else 0


def rank_columns(cols: Iterable[Column]) -> int:
    """The rank of the span of sparse columns."""
    return sum(low is not None for low in lows(cols))


_Raw = dict[int, tuple[int, int]]  # row -> (a, b), a Gaussian integer numerator


def lows(cols: Iterable[Column]) -> list[int | None]:
    """The low of each column after reducing it by the columns before it,
    or None where it reduces to zero: the lows `Echelon.add` would give,
    without ops and without building a Scalar.

    A column is held as (D, {row: (a, b)}), its entries (a + b i)/D, and
    each pivot is kept scaled to 1 at its low, i.e. (E, {...}) with (E, 0)
    there.  Clearing a low by a pivot with E = 1 touches the pivot's rows
    only and stays over D; with E != 1 the column goes over D E and one
    gcd takes out the common factor.  The input columns are not changed.
    """
    pivots: dict[int, tuple[int, _Raw]] = {}
    out: list[int | None] = []
    for col in cols:
        if not col:
            out.append(None)
            continue
        d = 1
        for v in col.values():
            if v.d != 1:
                d = lcm(d, v.d)
        if d == 1:
            ent = {i: (v.a, v.b) for i, v in col.items()}
        else:
            ent = {i: (v.a * (d // v.d), v.b * (d // v.d)) for i, v in col.items()}
        low = max(ent)
        while (piv := pivots.get(low)) is not None:
            e, p = piv
            x, y = ent[low]  # c -= (x + y i)/d times p, whose numerators are e at low
            if e != 1:  # (x + y i)/e in lowest terms; the rest of e goes into d
                g = gcd(e, x, y)
                x, y, e = x // g, y // g, e // g
                if e != 1:
                    ent = {i: (e * a, e * b) for i, (a, b) in ent.items()}
                    d *= e
            for i, (u, w) in p.items():
                t = ent.get(i)
                if t is None:
                    ent[i] = (y * w - x * u, -x * w - y * u)
                else:
                    a, b = t[0] - x * u + y * w, t[1] - x * w - y * u
                    if a or b:
                        ent[i] = (a, b)
                    else:
                        del ent[i]
            if not ent:
                low = None
                break
            if e != 1:
                d, ent = _lowest_terms(d, ent)
            low = max(ent)
        if low is not None:
            x, y = ent[low]
            pivots[low] = (d, ent) if x == d and not y else _unit_lead(x, y, ent)
        out.append(low)
    return out


def _lowest_terms(d: int, ent: _Raw) -> tuple[int, _Raw]:
    """(d, ent) with the gcd of d and every numerator divided out."""
    g = d
    for a, b in ent.values():
        g = gcd(g, a, b)
        if g == 1:
            return d, ent
    return d // g, {i: (a // g, b // g) for i, (a, b) in ent.items()}


def _unit_lead(x: int, y: int, ent: _Raw) -> tuple[int, _Raw]:
    """A column over any D divided by its lead (x + y i)/D, in lowest terms."""
    # (a + b i)/(x + y i) = (a + b i)(x - y i)/(x^2 + y^2), D cancelling
    n = x * x + y * y
    ent = {i: (a * x + b * y, b * x - a * y) for i, (a, b) in ent.items()}
    return (1, ent) if n == 1 else _lowest_terms(n, ent)

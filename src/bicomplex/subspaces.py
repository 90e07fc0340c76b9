"""Canonical subspaces of Q(i)^n.

A subspace is stored by the reduced column echelon basis of any spanning
set, so two subspaces are equal iff their stored bases are equal.  All
lattice operations (sum, intersection, preimage) go through
a single deterministic elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, hstack, kernel, rcef, solve_right


@dataclass(frozen=True)
class Subspace:
    ambient: int
    basis: Matrix  # ambient x dim, reduced column echelon form

    @staticmethod
    def from_columns(ambient: int, cols: Matrix) -> Subspace:
        if cols.nrows != ambient:
            raise ValueError("column height does not match ambient dimension")
        r, pivots = rcef(cols)
        return Subspace(ambient, r.columns(range(len(pivots))))

    @staticmethod
    def zero(ambient: int) -> Subspace:
        return Subspace(ambient, Matrix.zero(ambient, 0))

    @staticmethod
    def full(ambient: int) -> Subspace:
        return Subspace(ambient, Matrix.identity(ambient))

    @property
    def dim(self) -> int:
        return self.basis.ncols

    def sum(self, other: Subspace) -> Subspace:
        self._check(other)
        return Subspace.from_columns(self.ambient, hstack([self.basis, other.basis]))

    def intersect(self, other: Subspace) -> Subspace:
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        k = kernel(hstack([self.basis, other.basis]))
        coeffs = k.rows(range(self.dim))
        return Subspace.from_columns(self.ambient, self.basis @ coeffs)

    def contains_vector(self, v: Matrix) -> bool:
        if v.nrows != self.ambient or v.ncols != 1:
            raise ValueError("expected a column vector in the ambient space")
        return solve_right(self.basis, v) is not None

    def contains(self, other: Subspace) -> bool:
        self._check(other)
        return solve_right(self.basis, other.basis) is not None

    def _check(self, other: Subspace) -> None:
        if self.ambient != other.ambient:
            raise ValueError("subspaces live in different ambient spaces")


def preimage(m: Matrix, w: Subspace) -> Subspace:
    """The subspace {x : m @ x lies in w}."""
    if m.nrows != w.ambient:
        raise ValueError("map target does not match ambient space")
    if w.dim == 0:
        return Subspace.from_columns(m.ncols, kernel(m))
    k = kernel(hstack([m, w.basis]))
    return Subspace.from_columns(m.ncols, k.rows(range(m.ncols)))


def image(m: Matrix) -> Subspace:
    return Subspace.from_columns(m.nrows, m)


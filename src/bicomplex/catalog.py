"""Named example complexes used by the CLI, the tests and the docs.

Micro-complexes, the shapes' own complexes from `zigzags` (all spaces
one-dimensional, all maps 1 but the square's delbar at (1,0), -1):

  dot     single space at (0,0)
  hline   (0,0) --del--> (1,0)
  vline   (0,0) --delbar--> (0,1)
  square  full square on {(0,0),(1,0),(0,1),(1,1)}
  wedge   (1,0) <--del-- (0,0) --delbar--> (0,1)
  vee     (0,1) --del--> (1,1) <--delbar-- (1,0)

"<name>-invariant" builds the invariant bicomplex of a catalog Lie
algebra, e.g. "heisenberg3-invariant" or "abelian:2-invariant".
"""

from __future__ import annotations

from .complexes import DoubleComplex, RealStructure
from .lie import invariant_bicomplex, lie_by_name
from .zigzags import _square_complex, _zigzag_complex

_LINES = {
    "dot": [(0, 0)],
    "hline": [(0, 0), (1, 0)],
    "vline": [(0, 0), (0, 1)],
    "wedge": [(1, 0), (0, 0), (0, 1)],
    "vee": [(0, 1), (1, 1), (1, 0)],
}


def _micro(name: str) -> DoubleComplex:
    if name == "square":
        return _square_complex(0, 0)
    return _zigzag_complex(_LINES[name])


MICRO_NAMES = ("dot", "hline", "vline", "square", "wedge", "vee")
LIE_NAMES = ("abelian:1", "abelian:2", "abelian:3", "heisenberg3", "sl2")


def catalog_names() -> list[str]:
    return list(MICRO_NAMES) + [f"{n}-invariant" for n in LIE_NAMES]


def catalog_complex(name: str) -> tuple[DoubleComplex, RealStructure | None]:
    """Resolve a catalog name to a complex and its real structure, if any."""
    if name in MICRO_NAMES:
        return _micro(name), None
    if name.endswith("-invariant"):
        dc, rs = invariant_bicomplex(lie_by_name(name[: -len("-invariant")]))
        return dc, rs
    raise KeyError(f"unknown catalog entry: {name}")

"""The de Rham table by the chain route: each d_k of Tot ranked on its
own, from the columns of the del and delbar maps out of degree k placed
at `TotalComplex`'s offsets (ascending p within a degree), with
clearing: the degrees are ranked in ascending order, and a column whose
position is a low of d_{k-1} is skipped.  A space with no map out has
zero columns, which still take up their positions.

`complexes.de_rham_table` reads the same numbers off the unpaired cells
of the row pairing instead; this is its oracle.
"""

from __future__ import annotations

from bicomplex.complexes import (
    DoubleComplex,
    TotalComplex,
    _cohomology,
    _map_columns,
    _prev,
    _stacked,
)
from bicomplex.linalg import Column, lows


def oracle_de_rham(dc: DoubleComplex) -> dict[int, int]:
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

"""Shared test helpers."""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from bicomplex import DoubleComplex, Matrix, ONE, complexes, sc, spectral
from bicomplex.cli import main
from bicomplex.linalg import _canonical


ONE_1x1 = Matrix(1, 1, {(0, 0): ONE})


def run_cli(capsys, argv: list[str]) -> tuple[int, str]:
    """Invoke the CLI in-process and capture stdout."""
    code = main(argv)
    return code, capsys.readouterr().out


def run_cli_err(capsys, argv: list[str]) -> tuple[int, str]:
    """Like run_cli but returns stderr, where diagnostics go."""
    code = main(argv)
    return code, capsys.readouterr().err


def staircase(nverts: int, start=(0, 0)) -> DoubleComplex:
    """Zigzag 'del delbar del ...' with nverts one-dimensional vertices.

    Walks del-right then delbar-down alternately from `start`, shifted so
    every bidegree stays nonnegative.
    """
    p, q = start
    verts = [(p, q)]
    for i in range(nverts - 1):
        if i % 2 == 0:
            p += 1
        else:
            q -= 1
        verts.append((p, q))
    qmin = min(q for _, q in verts)
    verts = [(p, q - qmin) for p, q in verts]
    spaces = {v: 1 for v in verts}
    del_maps, delbar_maps = {}, {}
    for a, b in zip(verts, verts[1:]):
        if b == (a[0] + 1, a[1]):
            del_maps[a] = ONE_1x1
        else:
            delbar_maps[b] = ONE_1x1  # arrow points up, from b to a
    return DoubleComplex.build(spaces, del_maps, delbar_maps)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i, j) of a pair maps to i * dim_b + j."""
    entries = {}
    for (ra, ca), va in a.entries.items():
        for (rb, cb), vb in b.entries.items():
            entries[(ra * b.nrows + rb, ca * b.ncols + cb)] = va * vb
    return _canonical(a.nrows * b.nrows, a.ncols * b.ncols, entries)


def random_matrix(rng: random.Random, nrows: int, ncols: int, density=0.6) -> Matrix:
    entries = {}
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                entries[(r, c)] = sc(rng.randint(-3, 3), rng.randint(-1, 1))
    return Matrix(nrows, ncols, entries)


def count_calls(monkeypatch, module, names) -> Counter:
    """Count calls of module's functions `names`, each wrapped wherever a
    bicomplex module binds it, so calls through any of those names count."""
    calls = Counter()

    def counting(name, original):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapped

    for name in names:
        original = getattr(module, name)
        wrapped = counting(name, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("bicomplex") and \
                    getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapped)
    return calls


def count_reductions(monkeypatch) -> Counter:
    """Calls of the four-table pass, `de_rham_table`, the lows-only pairing of
    Tot (`complexes._pair`) and the V-tracked one (`spectral._reduce`)."""
    calls = count_calls(monkeypatch, complexes, ("_bidegree_tables", "de_rham_table", "_pair"))
    reduce = spectral._reduce
    monkeypatch.setattr(spectral, "_reduce",
                        lambda dc, f: calls.update(["_reduce"]) or reduce(dc, f))
    return calls


def record_pairings(monkeypatch) -> list[str]:
    """The filtration of every lows-only pairing of Tot (`complexes._pair`,
    also bound in `spectral`), in call order."""
    seen, pair = [], complexes._pair
    for module in (complexes, spectral):
        monkeypatch.setattr(module, "_pair", lambda dc, f: seen.append(f) or pair(dc, f))
    return seen


@pytest.fixture
def rng():
    return random.Random(20260814)

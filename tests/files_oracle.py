"""The bicomplex reader in three passes, kept as a test oracle.

This is the reader as it stood before `files.parse_bicomplex` read each
record once: `_read` collects every record by name, `_keyed` converts
every key token with `int()` wherever it appears and gathers the keys
into a dict, and only then are the entries range-checked and parsed, one
map kind after the other.  The one change is that records end at "\\n"
only, as the grammar now says, where the old `_read` also broke lines
at the other characters `str.splitlines` takes.

Its error precedence follows from the passes: envelope errors in file
order, then space keys, space values and budgets, then del keys, del
entries, then delbar keys and delbar entries.  The one-pass reader must
return an equal complex, or raise the same exception with the same text.
"""

from __future__ import annotations

from bicomplex.complexes import Bidegree, DoubleComplex
from bicomplex.errors import ParseError, ValidationError
from bicomplex.linalg import _canonical
from bicomplex.scalars import Scalar, parse_scalar

MAX_TOTAL_DIM = 4096

Lines = list[tuple[int, list[str]]]
Records = dict[str, Lines]


def _read(text: str, fields: dict[str, int]) -> Records:
    out: Records = {name: [] for name in fields}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        name = toks[0]
        if name not in out:
            raise ParseError(f"line {lineno}: unknown record {name!r}")
        del toks[0]
        if len(toks) != fields[name]:
            raise ParseError(f"line {lineno}: {name} takes {fields[name]} fields, got {len(toks)}")
        out[name].append((lineno, toks))
    return out


def _int(tok: str, lineno: int) -> int:
    digits = tok.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"line {lineno}: expected integer, got {tok!r}")
    return int(tok)


def _scalar(tok: str, lineno: int) -> Scalar:
    try:
        return parse_scalar(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"line {lineno}: malformed scalar {tok!r}") from None


def _keyed(lines: Lines, name: str, nkey: int) -> dict[tuple[int, ...], tuple[int, list[str]]]:
    out: dict[tuple[int, ...], tuple[int, list[str]]] = {}
    for lineno, fs in lines:
        head = "".join(fs[:nkey])  # with no "_", "+" or non-ASCII, int() reads -?[0-9]+
        try:
            if not head.isascii() or "_" in head or "+" in head:
                raise ValueError
            key = tuple(map(int, fs[:nkey]))
        except ValueError:
            key = tuple(_int(tok, lineno) for tok in fs[:nkey])  # raises, naming the token
        if key in out:
            raise ParseError(f"line {lineno}: duplicate {name} {' '.join(fs[:nkey])}")
        out[key] = (lineno, fs[nkey:])
    return out


def oracle_parse_bicomplex(text: str) -> DoubleComplex:
    records = _read(text, {"space": 3, "del": 5, "delbar": 5})
    spaces: dict[Bidegree, int] = {}
    total = 0
    for pq, (lineno, (tok,)) in _keyed(records["space"], "space", 2).items():
        dim = spaces[pq] = _int(tok, lineno)
        if dim <= 0:
            raise ParseError(f"line {lineno}: dimension must be positive")
        total += dim
        if total > MAX_TOTAL_DIM:
            raise ValidationError(f"line {lineno}: total dimension {total} > {MAX_TOTAL_DIM}")
    if spaces:
        ps, qs = [p for p, _ in spaces], [q for _, q in spaces]
        box = (max(ps) - min(ps) + 1) * (max(qs) - min(qs) + 1)
        if box > MAX_TOTAL_DIM:
            raise ValidationError(f"bidegrees span a box of {box} > {MAX_TOTAL_DIM}")
    maps = []
    values: dict[str, Scalar] = {}
    for kind, (dp, dq) in (("del", (1, 0)), ("delbar", (0, 1))):
        slots: dict[Bidegree, dict[tuple[int, int], Scalar]] = {}
        for (p, q, row, col), (lineno, (tok,)) in _keyed(records[kind], kind, 4).items():
            src, tgt = spaces.get((p, q)), spaces.get((p + dp, q + dq))
            if src is None or tgt is None:
                raise ParseError(f"line {lineno}: {kind} at ({p},{q}) references undeclared space")
            if not (0 <= row < tgt and 0 <= col < src):
                raise ParseError(f"line {lineno}: entry ({row},{col}) out of range")
            value = values.get(tok)
            if value is None:
                value = values[tok] = _scalar(tok, lineno)
            if value:
                slots.setdefault((p, q), {})[(row, col)] = value
        maps.append({
            (p, q): _canonical(spaces[(p + dp, q + dq)], spaces[(p, q)], ent)
            for (p, q), ent in slots.items()
        })
    return DoubleComplex.build(spaces, *maps)

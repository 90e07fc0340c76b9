"""Plain-text file formats.

All formats share the same envelope: one record per line, fields
separated by whitespace, `#` starts a comment, blank lines ignored.
Scalars use the literal grammar of `scalars.parse_scalar`.

bicomplex   space <p> <q> <dim>
            del <p> <q> <row> <col> <scalar>
            delbar <p> <q> <row> <col> <scalar>
            bidegrees and matrix indices 0-based; omitted entries zero;
            dims summing past MAX_TOTAL_DIM, or spaces whose bounding
            box holds more bidegrees, are a ValidationError.

lie algebra dim <n>
            bracket <i> <j> <k> <scalar>        # [X_i,X_j] has c X_k, i<j, 1-based
            2^n past MAX_TOTAL_DIM is a ValidationError.

subalgebra  gen <scalar> ... <scalar>           # one generator per line

solvable    lie-algebra lines, plus
            weight <i> <j> <scalar>             # a_i(X_j), 1-based
            gamma_trivial all | identically | { <i> ... }
            4^n past MAX_TOTAL_DIM is a ValidationError.

splitting   abelian <n>
            nilp_dim <m>
            nilp_bracket <i> <j> <k> <scalar>
            phi <j> <hol x n> <antihol x n>
            gamma_trivial all | identically | { <j> ... } ; { <l> ... }
            4^(n + m) past MAX_TOTAL_DIM is a ValidationError.

The bicomplex writer is canonical: lines are emitted sorted
lexicographically, so write(parse(write(x))) == write(x) byte for byte.
"""

from __future__ import annotations

from .complexes import Bidegree, DoubleComplex
from .errors import ParseError, ValidationError
from .lie import LieAlgebra
from .linalg import Matrix
from .scalars import Scalar, ZERO, format_scalar, parse_scalar
from .solvable import SolvData
from .splitting import Character, PairFlag, SplittingData


def _records(text: str):
    """Yield (line_number, tokens) for every non-empty record."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _int(tok: str, lineno: int, what: str = "integer") -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: expected {what}, got {tok!r}") from None


def _scalar(tok: str, lineno: int) -> Scalar:
    try:
        return parse_scalar(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"line {lineno}: malformed scalar {tok!r}") from None


def _arity(tokens: list[str], n: int, lineno: int) -> None:
    if len(tokens) != n:
        raise ParseError(
            f"line {lineno}: {tokens[0]} takes {n - 1} fields, got {len(tokens) - 1}"
        )


# -- bicomplex files -----------------------------------------------------------

MAX_TOTAL_DIM = 4096  # the most dims a file may give: bicomplex spaces, Lie-type cochains


def _within_budget(log2_dim: int, what: str) -> None:
    """Refuse a complex of 2**log2_dim dims over MAX_TOTAL_DIM, unbuilt."""
    if log2_dim >= MAX_TOTAL_DIM.bit_length():
        raise ValidationError(f"{what} > {MAX_TOTAL_DIM}")


def parse_bicomplex(text: str) -> DoubleComplex:
    spaces: dict[Bidegree, int] = {}
    raw_entries: dict[str, dict[Bidegree, dict[tuple[int, int], Scalar]]] = {
        "del": {},
        "delbar": {},
    }
    deferred: list[tuple[int, str, int, int, int, int, Scalar]] = []
    total = 0
    for lineno, toks in _records(text):
        kind = toks[0]
        if kind == "space":
            _arity(toks, 4, lineno)
            p, q, dim = (_int(t, lineno) for t in toks[1:])
            if (p, q) in spaces:
                raise ParseError(f"line {lineno}: duplicate space ({p},{q})")
            if dim <= 0:
                raise ParseError(f"line {lineno}: dimension must be positive")
            spaces[(p, q)] = dim
            total += dim
            if total > MAX_TOTAL_DIM:
                raise ValidationError(f"line {lineno}: total dimension {total} > {MAX_TOTAL_DIM}")
        elif kind in ("del", "delbar"):
            _arity(toks, 6, lineno)
            p, q, row, col = (_int(t, lineno) for t in toks[1:5])
            deferred.append((lineno, kind, p, q, row, col, _scalar(toks[5], lineno)))
        else:
            raise ParseError(f"line {lineno}: unknown record {kind!r}")
    if spaces:  # reports and engines walk the whole box: pages, degrees, grids
        ps, qs = [p for p, _ in spaces], [q for _, q in spaces]
        box = (max(ps) - min(ps) + 1) * (max(qs) - min(qs) + 1)
        if box > MAX_TOTAL_DIM:
            raise ValidationError(f"bidegrees span a box of {box} > {MAX_TOTAL_DIM}")
    for lineno, kind, p, q, row, col, value in deferred:
        tgt = (p + 1, q) if kind == "del" else (p, q + 1)
        if (p, q) not in spaces or tgt not in spaces:
            raise ParseError(
                f"line {lineno}: {kind} at ({p},{q}) references undeclared space"
            )
        if not (0 <= row < spaces[tgt] and 0 <= col < spaces[(p, q)]):
            raise ParseError(f"line {lineno}: entry ({row},{col}) out of range")
        slot = raw_entries[kind].setdefault((p, q), {})
        if (row, col) in slot:
            raise ParseError(f"line {lineno}: duplicate {kind} entry")
        slot[(row, col)] = value
    mats = {
        kind: {
            (p, q): Matrix(
                spaces[(p + 1, q) if kind == "del" else (p, q + 1)],
                spaces[(p, q)],
                ent,
            )
            for (p, q), ent in slots.items()
        }
        for kind, slots in raw_entries.items()
    }
    return DoubleComplex.build(spaces, mats["del"], mats["delbar"])


def write_bicomplex(dc: DoubleComplex) -> str:
    lines = []
    for (p, q), dim in dc.spaces.items():
        lines.append(f"space {p} {q} {dim}")
    for kind, maps in (("del", dc.del_maps), ("delbar", dc.delbar_maps)):
        for (p, q), m in maps.items():
            for (r, c), v in m.entries.items():
                lines.append(f"{kind} {p} {q} {r} {c} {format_scalar(v)}")
    return "".join(line + "\n" for line in sorted(lines))


# -- Lie algebra files ---------------------------------------------------------


def _parse_lie_records(records) -> tuple[LieAlgebra, list]:
    """Common reader: returns the algebra and the unconsumed records."""
    n = None
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    rest = []
    for lineno, toks in records:
        if toks[0] == "dim":
            _arity(toks, 2, lineno)
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate dim")
            n = _int(toks[1], lineno)
            if n < 0:
                raise ParseError(f"line {lineno}: negative dimension")
        elif toks[0] == "bracket":
            _arity(toks, 5, lineno)
            i, j, k = (_int(t, lineno) for t in toks[1:4])
            rest.append((lineno, ["_bracket", i, j, k, _scalar(toks[4], lineno)]))
        else:
            rest.append((lineno, toks))
    if n is None:
        raise ParseError("missing dim record")
    unconsumed = []
    for lineno, toks in rest:
        if toks[0] != "_bracket":
            unconsumed.append((lineno, toks))
            continue
        _, i, j, k, value = toks
        if not (1 <= i < j <= n and 1 <= k <= n):
            raise ParseError(f"line {lineno}: bracket indices out of range (need i<j)")
        slot = brackets.setdefault((i, j), {})
        if k in slot:
            raise ParseError(f"line {lineno}: duplicate bracket ({i},{j},{k})")
        if value:
            slot[k] = value
    return LieAlgebra(n, {ij: cs for ij, cs in brackets.items() if cs}), unconsumed


def parse_lie(text: str) -> LieAlgebra:
    g, rest = _parse_lie_records(list(_records(text)))
    if rest:
        lineno, toks = rest[0]
        raise ParseError(f"line {lineno}: unknown record {toks[0]!r}")
    _within_budget(g.dim, f"dim {g.dim}: 2^{g.dim} cochains")
    return g


def parse_subalgebra(text: str, ambient_dim: int) -> Matrix:
    cols: list[list[Scalar]] = []
    for lineno, toks in _records(text):
        if toks[0] != "gen":
            raise ParseError(f"line {lineno}: unknown record {toks[0]!r}")
        if len(toks) - 1 != ambient_dim:
            raise ParseError(
                f"line {lineno}: generator needs {ambient_dim} coordinates"
            )
        cols.append([_scalar(t, lineno) for t in toks[1:]])
    entries = {
        (r, c): v for c, col in enumerate(cols) for r, v in enumerate(col) if v
    }
    return Matrix(ambient_dim, len(cols), entries)


# -- solvable files ------------------------------------------------------------


def _parse_subset(toks: list[str], lineno: int, start: int) -> tuple[frozenset, int]:
    """Parse `{ i ... }` starting at toks[start]; returns (set, next index)."""
    if start >= len(toks) or toks[start] != "{":
        raise ParseError(f"line {lineno}: expected '{{' in gamma_trivial")
    out = set()
    k = start + 1
    while k < len(toks) and toks[k] != "}":
        out.add(_int(toks[k], lineno, "index"))
        k += 1
    if k >= len(toks):
        raise ParseError(f"line {lineno}: unterminated subset")
    return frozenset(out), k + 1


def parse_solv(text: str) -> SolvData:
    g, rest = _parse_lie_records(list(_records(text)))
    n = g.dim
    _within_budget(2 * n, f"dim {n}: 4^{n} cochains")
    weights = [[ZERO] * n for _ in range(n)]
    all_flags = False
    subsets: set[frozenset[int]] = set()
    for lineno, toks in rest:
        if toks[0] == "weight":
            _arity(toks, 4, lineno)
            i, j = _int(toks[1], lineno), _int(toks[2], lineno)
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"line {lineno}: weight indices out of range")
            weights[i - 1][j - 1] = _scalar(toks[3], lineno)
        elif toks[0] == "gamma_trivial":
            if len(toks) == 2 and toks[1] == "all":
                all_flags = True
            elif len(toks) == 2 and toks[1] == "identically":
                pass  # baseline, always flagged
            else:
                subset, k = _parse_subset(toks, lineno, 1)
                if k != len(toks):
                    raise ParseError(f"line {lineno}: trailing tokens")
                if not all(1 <= i <= n for i in subset):
                    raise ParseError(f"line {lineno}: subset index out of range")
                subsets.add(subset)
        else:
            raise ParseError(f"line {lineno}: unknown record {toks[0]!r}")
    flags = "all" if all_flags else frozenset(subsets)
    return SolvData(g, [tuple(w) for w in weights], flags)


# -- splitting files -----------------------------------------------------------


def parse_splitting(text: str) -> SplittingData:
    n = None
    m = None
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    phi_rows: dict[int, tuple[tuple[Scalar, ...], tuple[Scalar, ...]]] = {}
    all_flags = False
    pairs: set[PairFlag] = set()
    deferred = []
    for lineno, toks in _records(text):
        if toks[0] == "abelian":
            _arity(toks, 2, lineno)
            n = _int(toks[1], lineno)
        elif toks[0] == "nilp_dim":
            _arity(toks, 2, lineno)
            m = _int(toks[1], lineno)
        else:
            deferred.append((lineno, toks))
    if n is None or n < 0:
        raise ParseError("missing or negative abelian count")
    if m is None or m < 0:
        raise ParseError("missing or negative nilp_dim")
    _within_budget(2 * (n + m), f"abelian + nilp_dim = {n + m}: 4^{n + m} cochains")
    for lineno, toks in deferred:
        if toks[0] == "nilp_bracket":
            _arity(toks, 5, lineno)
            i, j, k = (_int(t, lineno) for t in toks[1:4])
            if not (1 <= i < j <= m and 1 <= k <= m):
                raise ParseError(f"line {lineno}: bracket indices out of range")
            slot = brackets.setdefault((i, j), {})
            if k in slot:
                raise ParseError(f"line {lineno}: duplicate nilp_bracket")
            value = _scalar(toks[4], lineno)
            if value:
                slot[k] = value
        elif toks[0] == "phi":
            _arity(toks, 2 + 2 * n, lineno)
            j = _int(toks[1], lineno)
            if not (1 <= j <= m):
                raise ParseError(f"line {lineno}: phi index out of range")
            if j in phi_rows:
                raise ParseError(f"line {lineno}: duplicate phi {j}")
            vals = [_scalar(t, lineno) for t in toks[2:]]
            phi_rows[j] = (tuple(vals[:n]), tuple(vals[n:]))
        elif toks[0] == "gamma_trivial":
            if len(toks) == 2 and toks[1] == "all":
                all_flags = True
            elif len(toks) == 2 and toks[1] == "identically":
                pass
            else:
                left, k = _parse_subset(toks, lineno, 1)
                if k >= len(toks) or toks[k] != ";":
                    raise ParseError(f"line {lineno}: expected ';' between subsets")
                right, k = _parse_subset(toks, lineno, k + 1)
                if k != len(toks):
                    raise ParseError(f"line {lineno}: trailing tokens")
                if not all(1 <= i <= m for i in left | right):
                    raise ParseError(f"line {lineno}: pair index out of range")
                pairs.add((left, right))
        else:
            raise ParseError(f"line {lineno}: unknown record {toks[0]!r}")
    zero_key = tuple([ZERO] * n)
    phi = [
        Character(*phi_rows.get(j, (zero_key, zero_key))) for j in range(1, m + 1)
    ]
    nilp = LieAlgebra(m, {ij: cs for ij, cs in brackets.items() if cs})
    flags = "all" if all_flags else frozenset(pairs)
    return SplittingData(n, nilp, phi, flags)

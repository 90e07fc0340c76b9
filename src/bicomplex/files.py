"""Plain-text file formats.

All formats share one envelope, read by `_read`: one record per line,
fields separated by whitespace, `#` starts a comment, blank lines
ignored.  A line ends at "\\n" only: a "\\r" before it is whitespace,
so CRLF files read as LF ones, and no other line-break character (form
feed, U+0085, U+2028, ...) ends a record or a comment.  Each record but
gamma_trivial takes a fixed number of fields (phi's count depends on
`abelian`).  The headers dim, abelian and nilp_dim each appear at most
once, and a keyed record at most once per key, its leading integer
fields (in [brackets] below); a repeat is a ParseError.
Integer fields are -?[0-9]+; scalars use the literal grammar of
`scalars.parse_scalar`.

bicomplex   space [<p> <q>] <dim>
            del [<p> <q> <row> <col>] <scalar>
            delbar [<p> <q> <row> <col>] <scalar>
            bidegrees and matrix indices 0-based; omitted entries zero;
            dims summing past MAX_TOTAL_DIM, or spaces whose bounding
            box holds more bidegrees, are a ValidationError.

lie algebra dim <n>
            bracket [<i> <j> <k>] <scalar>      # [X_i,X_j] has c X_k, i<j, 1-based
            2^n past MAX_TOTAL_DIM is a ValidationError.

subalgebra  gen <scalar> ... <scalar>           # one generator per line

solvable    lie-algebra lines, plus
            weight [<i> <j>] <scalar>           # a_i(X_j), 1-based
            gamma_trivial all | identically | { <i> ... }
            4^n past MAX_TOTAL_DIM is a ValidationError.

splitting   abelian <n>
            nilp_dim <m>
            nilp_bracket [<i> <j> <k>] <scalar>
            phi [<j>] <hol x n> <antihol x n>   # fiber generator j = 1..m
            gamma_trivial all | identically | { <j> ... } ; { <l> ... }
            4^(n + m) past MAX_TOTAL_DIM is a ValidationError.

A file with several faults reports one of them, the first in this order:
envelope errors (unknown record, wrong field count) in file order; then
the space keys (a malformed integer, a repeated key); then the space
dims and the total budget, in file order, and the bounding box; then
the del keys; then the del entries (an undeclared space, an index out
of range, a malformed scalar) in file order; then the delbar keys and
the delbar entries likewise.  The other readers too read every key of a
keyed kind before any of its entries.

The bicomplex writer is canonical: lines are emitted sorted
lexicographically, so write(parse(write(x))) == write(x) byte for byte.
"""

from __future__ import annotations

from .complexes import Bidegree, DoubleComplex
from .errors import ParseError, ValidationError
from .lie import LieAlgebra
from .linalg import Matrix, _canonical
from .scalars import Scalar, ZERO, format_scalar, parse_scalar
from .solvable import SolvData
from .splitting import Character, SplittingData

Lines = list[tuple[int, list[str]]]  # (line number, fields) per record
Records = dict[str, Lines]


def _arity(name: str, fields: list[str], n: int, lineno: int) -> None:
    if len(fields) != n:
        raise ParseError(f"line {lineno}: {name} takes {n} fields, got {len(fields)}")


def _read(text: str, fields: dict[str, int | None]) -> Records:
    """Each record name's (line, fields) list in file order.

    A record must be named in `fields` and carry fields[name] fields;
    None leaves the count to the caller.  Records end at "\\n" only; a
    "\\r" before it is whitespace.
    """
    out: Records = {name: [] for name in fields}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        toks = raw.partition("#")[0].split()
        if not toks:
            continue
        name = toks[0]
        if name not in out:
            raise ParseError(f"line {lineno}: unknown record {name!r}")
        n = fields[name]
        del toks[0]
        if n is not None and len(toks) != n:
            _arity(name, toks, n, lineno)
        out[name].append((lineno, toks))
    return out


def ascii_int(tok: str) -> int:
    """tok as an integer if it is -?[0-9]+, the one integer grammar of the
    files and the command-line options, not every literal that int() takes
    (`1_0`, `+1`, ` 1`, non-ASCII digits); else ValueError."""
    digits = tok.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {tok!r}")
    return int(tok)


def _int(tok: str, lineno: int, what: str = "integer") -> int:
    """An integer field, by `ascii_int`."""
    try:
        return ascii_int(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: expected {what}, got {tok!r}") from None


def _scalar(tok: str, lineno: int) -> Scalar:
    try:
        return parse_scalar(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"line {lineno}: malformed scalar {tok!r}") from None


def _header(records: Records, name: str) -> int:
    """The value of a required header record that appears once: a count."""
    lines = records[name]
    if not lines:
        raise ParseError(f"missing {name} record")
    if len(lines) > 1:
        raise ParseError(f"line {lines[1][0]}: duplicate {name}")
    lineno, (tok,) = lines[0]
    n = _int(tok, lineno)
    if n < 0:
        raise ParseError(f"line {lineno}: negative dimension in {name}")
    return n


def _ints(toks: list[str], lineno: int, ints: dict[str, int]) -> tuple[int, ...]:
    """toks as integers, by `_int`.  `ints` holds every token a reader
    has read so far, so each distinct token is read once, at its first
    line: a bad one raises there, a good one is looked up after that."""
    for tok in toks:
        if tok not in ints:
            ints[tok] = _int(tok, lineno)
    return tuple([ints[tok] for tok in toks])


def _duplicate(lineno: int, name: str, head: list[str]) -> ParseError:
    return ParseError(f"line {lineno}: duplicate {name} {' '.join(head)}")


def _keyed(lines: Lines, name: str, nkey: int) -> dict[tuple[int, ...], tuple[int, list[str]]]:
    """{key: (line, fields after it)} in file order, the key being the
    first nkey fields as integers; a key given twice is a ParseError."""
    out: dict[tuple[int, ...], tuple[int, list[str]]] = {}
    ints: dict[str, int] = {}
    for lineno, fs in lines:
        key = _ints(fs[:nkey], lineno, ints)
        if key in out:
            raise _duplicate(lineno, name, fs[:nkey])
        out[key] = (lineno, fs[nkey:])
    return out


# -- bicomplex files -----------------------------------------------------------

MAX_TOTAL_DIM = 4096  # the most dims a file may give: bicomplex spaces, Lie-type cochains


def _within_budget(log2_dim: int, what: str) -> None:
    """Refuse a complex of 2**log2_dim dims over MAX_TOTAL_DIM, unbuilt."""
    if log2_dim >= MAX_TOTAL_DIM.bit_length():
        raise ValidationError(f"{what} > {MAX_TOTAL_DIM}")


def parse_bicomplex(text: str) -> DoubleComplex:
    """The double complex a bicomplex file describes.

    The reader drops zero entries itself, as it reads them, and builds
    each map from its range-checked nonzero entries, so a map given only
    zeros is not stored; the complex is built, not validated.  Each
    del/delbar record is visited once: its key is checked at once, and
    its first entry error is held until the kind's last key is read, so
    the errors come in the order the module docstring gives.
    """
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
    if spaces:  # reports and engines walk the whole box: pages, degrees, grids
        ps, qs = [p for p, _ in spaces], [q for _, q in spaces]
        box = (max(ps) - min(ps) + 1) * (max(qs) - min(qs) + 1)
        if box > MAX_TOTAL_DIM:
            raise ValidationError(f"bidegrees span a box of {box} > {MAX_TOTAL_DIM}")
    maps = []
    ints: dict[str, int] = {}  # each key token read once by `_ints`, for both kinds
    values: dict[str, Scalar | None] = {}  # each distinct literal parsed once; None if zero
    for kind, (dp, dq) in (("del", (1, 0)), ("delbar", (0, 1))):
        seen: set[tuple[int, int, int, int]] = set()
        # per source bidegree: its dim, its target's dim and its nonzero entries
        ends: dict[Bidegree, tuple[int, int, dict[tuple[int, int], Scalar]]] = {}
        held = None  # the first entry error, raised once every key of the kind is read
        for lineno, (a, b, r, c, tok) in records[kind]:
            try:
                key = ints[a], ints[b], ints[r], ints[c]
            except KeyError:
                key = _ints([a, b, r, c], lineno, ints)
            if key in seen:
                raise _duplicate(lineno, kind, [a, b, r, c])
            seen.add(key)
            if held is not None:
                continue
            p, q, row, col = key
            try:
                end = ends.get((p, q))
                if end is None:
                    src, tgt = spaces.get((p, q)), spaces.get((p + dp, q + dq))
                    if src is None or tgt is None:
                        raise ParseError(
                            f"line {lineno}: {kind} at ({p},{q}) references undeclared space")
                    end = ends[(p, q)] = (src, tgt, {})
                src, tgt, ent = end
                if not (0 <= row < tgt and 0 <= col < src):
                    raise ParseError(f"line {lineno}: entry ({row},{col}) out of range")
                try:
                    value = values[tok]
                except KeyError:
                    value = values[tok] = _scalar(tok, lineno) or None
                if value is not None:  # zero literals are not stored
                    ent[(row, col)] = value
            except ParseError as exc:
                held = exc
        if held is not None:
            raise held
        # entries in range and nonzero: built unchecked; a map of zeros is not stored
        maps.append({pq: _canonical(tgt, src, ent) for pq, (src, tgt, ent) in ends.items() if ent})
    return DoubleComplex.build(spaces, *maps)


def write_bicomplex(dc: DoubleComplex) -> str:
    lines = []
    for (p, q), dim in dc.spaces.items():
        lines.append(f"space {p} {q} {dim}")
    for kind, maps in (("del", dc.del_maps), ("delbar", dc.delbar_maps)):
        for (p, q), m in maps.items():
            for (r, c), v in m.entries.items():
                lines.append(f"{kind} {p} {q} {r} {c} {format_scalar(v)}")
    return "".join(line + "\n" for line in sorted(lines))


# -- Lie algebra, solvable and splitting files -----------------------------------


def _brackets(records: Records, name: str, n: int) -> LieAlgebra:
    """The n-dim algebra whose structure constants are the `name` records."""
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (i, j, k), (lineno, (tok,)) in _keyed(records[name], name, 3).items():
        if not (1 <= i < j <= n and 1 <= k <= n):
            raise ParseError(f"line {lineno}: {name} indices out of range (need i<j)")
        slot = brackets.setdefault((i, j), {})
        if value := _scalar(tok, lineno):
            slot[k] = value
    return LieAlgebra(n, {ij: cs for ij, cs in brackets.items() if cs})


def _flags(records: Records, count: int, n: int) -> str | frozenset:
    """The gamma_trivial records: "all", or the set of their `count`
    subsets `{ i ... }` of 1..n, separated by `;` (one subset alone,
    not in a tuple).  `identically` adds nothing: the baseline is
    always flagged."""
    everything, flags = False, set()
    for lineno, fs in records["gamma_trivial"]:
        if fs in (["all"], ["identically"]):
            everything |= fs == ["all"]
            continue
        groups: list[list[str]] = [[]]
        for tok in fs:
            if tok == ";":
                groups.append([])
            else:
                groups[-1].append(tok)
        if len(groups) != count:
            raise ParseError(f"line {lineno}: gamma_trivial takes {count} subsets split by ';'")
        subsets = []
        for g in groups:
            if len(g) < 2 or g[0] != "{" or g[-1] != "}":
                raise ParseError(f"line {lineno}: expected '{{ <i> ... }}' in gamma_trivial")
            subset = frozenset(_int(tok, lineno, "index") for tok in g[1:-1])
            if not all(1 <= i <= n for i in subset):
                raise ParseError(f"line {lineno}: subset index out of range")
            subsets.append(subset)
        flags.add(subsets[0] if count == 1 else tuple(subsets))
    return "all" if everything else frozenset(flags)


def parse_lie(text: str) -> LieAlgebra:
    records = _read(text, {"dim": 1, "bracket": 4})
    n = _header(records, "dim")
    _within_budget(n, f"dim {n}: 2^{n} cochains")
    return _brackets(records, "bracket", n)


def parse_subalgebra(text: str, ambient_dim: int) -> Matrix:
    gens = _read(text, {"gen": ambient_dim})["gen"]
    entries = {
        (r, c): _scalar(tok, lineno)
        for c, (lineno, fs) in enumerate(gens)
        for r, tok in enumerate(fs)
    }
    return Matrix(ambient_dim, len(gens), entries)


def parse_solv(text: str) -> SolvData:
    records = _read(text, {"dim": 1, "bracket": 4, "weight": 3, "gamma_trivial": None})
    n = _header(records, "dim")
    _within_budget(2 * n, f"dim {n}: 4^{n} cochains")
    g = _brackets(records, "bracket", n)
    weights = [[ZERO] * n for _ in range(n)]
    for (i, j), (lineno, (tok,)) in _keyed(records["weight"], "weight", 2).items():
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"line {lineno}: weight indices out of range")
        weights[i - 1][j - 1] = _scalar(tok, lineno)
    return SolvData(g, [tuple(w) for w in weights], _flags(records, 1, n))


def parse_splitting(text: str) -> SplittingData:
    records = _read(text, {"abelian": 1, "nilp_dim": 1, "nilp_bracket": 4,
                           "phi": None, "gamma_trivial": None})
    n, m = _header(records, "abelian"), _header(records, "nilp_dim")
    _within_budget(2 * (n + m), f"abelian + nilp_dim = {n + m}: 4^{n + m} cochains")
    for lineno, fs in records["phi"]:
        _arity("phi", fs, 1 + 2 * n, lineno)
    zero = tuple([ZERO] * n)
    phi = [Character(zero, zero)] * m
    for (j,), (lineno, fs) in _keyed(records["phi"], "phi", 1).items():
        if not (1 <= j <= m):
            raise ParseError(f"line {lineno}: phi index out of range")
        vals = tuple(_scalar(tok, lineno) for tok in fs)
        phi[j - 1] = Character(vals[:n], vals[n:])
    nilp = _brackets(records, "nilp_bracket", m)
    return SplittingData(n, nilp, phi, _flags(records, 2, m))

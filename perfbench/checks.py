"""Correctness checks on the program's outputs.

Every check compares an output with an independent computation or with
a property the mathematics requires, never with a saved copy of an
earlier output.  Each function returns a list of problems, each one
starting with the name of the check that found it; an empty list means
the output passed.  `corrupt.py` shows that every check fails on a
deliberately corrupted output.
"""

from __future__ import annotations

from collections import Counter
from math import comb


def parse_report(text: str) -> dict:
    """The machine lines of a `bicomplex` report as dicts of integers.

    h: {"dolbeault": {(p, q): n}, ..., "de_rham": {k: n}};
    e, d: {(filtration, r, p, q): n}; pure: {k: bool};
    flags: every other `<key> <value>` line, values as strings.
    """
    rep = {"h": {}, "e": {}, "d": {}, "pure": {}, "flags": {}}
    for line in text.splitlines():
        t = line.split()
        if not t:
            continue
        if t[0] == "h" and t[1] == "de_rham":
            rep["h"].setdefault("de_rham", {})[int(t[2])] = int(t[3])
        elif t[0] == "h":
            rep["h"].setdefault(t[1], {})[(int(t[2]), int(t[3]))] = int(t[4])
        elif t[0] in ("e", "d"):
            rep[t[0]][(t[1], int(t[2]), int(t[3]), int(t[4]))] = int(t[5])
        elif t[0] == "pure":
            rep["pure"][int(t[1])] = t[2] == "true"
        elif len(t) == 2:
            rep["flags"][t[0]] = t[1]
    for name in ("dolbeault", "del", "bott_chern", "aeppli", "de_rham"):
        rep["h"].setdefault(name, {})
    return rep


def pages_as_lines(pages) -> tuple[dict, dict]:
    """SpectralPage lists in the (filtration, r, p, q) keys of parse_report."""
    e, d = {}, {}
    for pg in pages:
        for (p, q), n in pg.dims.items():
            e[(pg.filtration, pg.r, p, q)] = n
        for (p, q), n in pg.dr_ranks.items():
            d[(pg.filtration, pg.r, p, q)] = n
    return e, d


def _by_degree(table: dict) -> dict[int, int]:
    out: Counter = Counter()
    for (p, q), n in table.items():
        out[p + q] += n
    return {k: v for k, v in out.items() if v}


def last_page_totals(e: dict, filtration: str) -> dict[int, int]:
    """Total-degree sums of the last page of one filtration."""
    rs = [r for (f, r, _, _) in e if f == filtration]
    if not rs:
        return {}
    last = max(rs)
    return _by_degree({(p, q): n for (f, r, p, q), n in e.items()
                       if f == filtration and r == last})


# -- zigzag-sweep ----------------------------------------------------------------


def check_zigzag(planted: list, recovered: Counter, routes: tuple[bool, bool, bool],
                 einf: dict[int, int]) -> list[str]:
    """One shuffled random zigzag sum.

    planted: the shapes the sum was built from (Square / Zigzag);
    recovered: the multiset of shapes `decompose` returned;
    routes: page-1 by definition, by the dimension identity, by shape;
    einf: de Rham by total degree, read from the last column page.
    """
    problems = []
    if recovered != Counter(planted):
        problems.append("multiset: recovered shapes differ from the planted ones")
    # a zigzag of n vertices has n - 1 steps; squares have no `steps`
    want = all(len(getattr(s, "steps", ())) <= 1 for s in planted)
    if routes != (want, want, want):
        problems.append(f"page1_routes: got {routes}, planted shapes give {want}")
    odd = Counter(sum(s.start) for s in planted
                  if hasattr(s, "steps") and len(s.steps) % 2 == 0)
    if einf != dict(odd):
        problems.append(f"de_rham: got {einf}, odd planted zigzags give {dict(odd)}")
    return problems


# -- solvable-report -------------------------------------------------------------


def check_solvable(rep: dict, spaces: dict, *, page1: bool, real: bool,
                   h01: int | None = None, lie_betti: dict | None = None,
                   lie_dim: int = 0) -> list[str]:
    """One solv / splitting / classify report.

    spaces: dim C^{p,q} of the complex, from its builder;
    page1: the input is solvable or splitting type, so the paper's
    solvable theorem applies; real: the input carries a real structure;
    h01: the expected h^{0,1} of a Nakamura preset; lie_betti and
    lie_dim: b_q(g) and dim g of a Lie algebra whose invariant bicomplex
    this is.
    """
    problems = []
    h = rep["h"]
    if page1:
        flags = rep["flags"]
        routes = tuple(flags.get(k) for k in ("page1_def", "page1_dims", "page1_shape"))
        if routes != ("true", "true", "true"):
            problems.append(f"page1: routes read {routes}")
        if not rep["pure"] or not all(rep["pure"].values()):
            impure = sorted(k for k, ok in rep["pure"].items() if not ok)
            problems.append(f"purity: impure in degrees {impure or 'none reported'}")
    if h01 is not None and h["dolbeault"].get((0, 1), 0) != h01:
        problems.append(f"nakamura_h01: got {h['dolbeault'].get((0, 1), 0)}, want {h01}")
    chi_dr = sum((-1) ** k * n for k, n in h["de_rham"].items())
    chi_c = sum((-1) ** (p + q) * n for (p, q), n in spaces.items())
    if chi_dr != chi_c:
        problems.append(f"euler: de Rham gives {chi_dr}, dim C^(p,q) gives {chi_c}")
    if real:
        mirrored = {(q, p): n for (p, q), n in h["del"].items()}
        if h["dolbeault"] != mirrored:
            problems.append("real_symmetry: h dolbeault p q != h del q p")
    if lie_betti is not None:
        n = lie_dim
        want = {(p, q): comb(n, p) * b for p in range(n + 1)
                for q, b in lie_betti.items() if comb(n, p) * b}
        if h["dolbeault"] != want:
            problems.append("lie_dolbeault: h^{p,q} != C(n,p) b_q(g)")
        kunneth: Counter = Counter()
        for i, bi in lie_betti.items():
            for j, bj in lie_betti.items():
                kunneth[i + j] += bi * bj
        if h["de_rham"] != {k: v for k, v in kunneth.items() if v}:
            problems.append("lie_de_rham: de Rham != Kunneth square of b(g)")
    return problems


# -- dense-fss -------------------------------------------------------------------


def check_dense(fss: dict, coh: dict, ref_tables: dict, ref_e: dict,
                ref_d: dict) -> list[str]:
    """`fss --filtration both` and `cohomology` reports of one shuffled file.

    ref_tables, ref_e, ref_d: the tables and pages of the same complex in
    its unshuffled basis (a change of basis is an isomorphism, so they
    must agree).
    """
    problems = []
    if coh["h"] != ref_tables:
        problems.append("basis_invariance: tables differ from the unshuffled basis")
    if fss["e"] != ref_e or fss["d"] != ref_d:
        problems.append("basis_invariance: pages differ from the unshuffled basis")
    for kind in ("e", "d"):
        col = {k[1:]: n for k, n in fss[kind].items() if k[0] == "col"}
        row = {k[1:]: n for k, n in fss[kind].items() if k[0] == "row"}
        if col != row:
            problems.append(f"row_equals_col: {kind} row pages differ from column pages")
    for filtration in ("col", "row"):
        if last_page_totals(fss["e"], filtration) != coh["h"]["de_rham"]:
            problems.append(f"einf_de_rham: {filtration} E_inf totals != de Rham")
    return problems

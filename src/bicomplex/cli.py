"""Command-line interface.

Verbs: validate, cohomology, fss, classify, decompose, lie, solv,
splitting, ssmodel, selftest.  Inputs are file paths, `catalog:<name>`
designators for built-in complexes, algebra names (`abelian:<n>`,
`heisenberg3`, `sl2`), or solvable presets (`nakamura:identically`,
`nakamura:real`).

Exit codes: 0 success, 1 parse error (bad arguments, malformed files,
unknown built-in names, in every verb), 2 validation failure, 3 internal
consistency failure (route disagreement, a broken engine postcondition
or any other exception, such as MemoryError: one `internal error: ...`
line).

The CLI validates nothing itself: the library's builders and engines
do, and a ValidationError is printed as raised, every problem on one
line.  `_builtin` is the one place a library error about a name becomes
a parse error.

A classify, solv or splitting report analyses its complex once, with
`spectral.analyse`: its tables once, Tot eliminated once per filtration,
the shape route checked against the definition.  `selftest` runs the
same analysis on every case and dumps the complex of any failure,
InternalError included.

`main(argv)` may be called any number of times in one process: it
parses with one parser, built once when this module is imported, and
keeps nothing about an input between calls, so every call reads,
parses, validates and computes afresh.

Output is deterministic.  `--format machine` emits only the grammar
lines documented in reports.py; `--format text` adds '#' comments, so
the machine report is exactly the text report with comments stripped.
Additional machine lines produced here: `valid <bool>`, `ce <k> <dim>`,
`semisimple <bool>`, `selftest_seeds <n>`, `selftest <bool>`.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .catalog import catalog_complex, catalog_names
from .complexes import DoubleComplex, all_tables, direct_sum
from .errors import InternalError, ParseError, ValidationError
from .files import (
    ascii_int,
    parse_bicomplex,
    parse_lie,
    parse_solv,
    parse_splitting,
    write_bicomplex,
)
from .lie import (
    LIE_CATALOG,
    BettiVector,
    ce_complex,
    is_semisimple,
    lie_by_name,
    semisimple_e2_model,
)
from .reports import (
    grid_comment,
    h_lines,
    page_lines,
    provenance_lines,
    render,
    space_comment,
    verdict_lines,
)
from .solvable import build_C, nakamura_preset, random_solvable
from .spectral import analyse, degeneration_page, spectral_pages
from .splitting import build_splitting, nakamura_splitting_preset
from .zigzags import decompose, random_zigzag_sum, report_lines, shuffle_basis


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); our parse class is 1
        raise _ArgError(message)


def _int(text: str) -> int:
    """argparse type for an integer option, in the files' grammar -?[0-9]+."""
    try:
        return ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    """argparse type for counts: a page cap or a number of seeds."""
    try:
        n = ascii_int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


# -- input resolution ----------------------------------------------------------


def _read(path: str) -> tuple[bytes, str]:
    """The file's bytes (the provenance payload) and their UTF-8 text."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    try:
        return data, data.decode()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8: {e.reason} at byte {e.start}") from None


def _builtin(make, name: str, what: str):
    """make(name), where the library refuses a name it does not know with
    KeyError or ValidationError: a parse error, `unknown {what}`."""
    try:
        return make(name)
    except (KeyError, ValidationError):
        raise ParseError(f"unknown {what}") from None


def _load_bicomplex(spec: str):
    """Returns (complex, real structure or None, provenance payload)."""
    if spec.startswith("catalog:"):
        name = spec[len("catalog:") :]
        known = ", ".join(catalog_names())
        dc, rs = _builtin(catalog_complex, name, f"catalog entry {name!r} (have: {known})")
        return dc, rs, spec.encode()
    data, text = _read(spec)
    return parse_bicomplex(text), None, data


def _load_lie(spec: str):
    if spec.startswith("abelian:") or spec in LIE_CATALOG:
        return _builtin(lie_by_name, spec, f"algebra {spec!r}"), spec.encode()
    data, text = _read(spec)
    return parse_lie(text), data


# -- shared report assembly ------------------------------------------------------


def _h_section(dc: DoubleComplex, tables: dict) -> list[str]:
    lines = space_comment(dc)
    for name in ("dolbeault", "del", "bott_chern", "aeppli"):
        lines += grid_comment(name, tables[name])
    dr = " ".join(f"h^{k}={v}" for k, v in sorted(tables["de_rham"].items()))
    lines += [f"# de_rham: {dr or 'empty'}"]
    lines += h_lines(tables)
    return lines


def _classify_report(dc, rs, payload, max_page):
    a = analyse(dc, rs)
    lines = provenance_lines(payload)
    lines += _h_section(dc, a.tables)
    lines += ["# column filtration pages"]
    lines += page_lines(a.col_pages, "col", max_page)
    lines += ["# row filtration pages"]
    lines += page_lines(a.row_pages, "row", max_page)
    lines += verdict_lines(a.verdict)
    return lines


# -- verb handlers ---------------------------------------------------------------


def _cmd_validate(args):
    try:
        dc, _, payload = _load_bicomplex(args.input)
    except ValidationError as e:
        return 2, [f"# {e}", "valid false"]
    problems = dc.validate()
    lines = provenance_lines(payload)
    if problems:
        lines += [f"# {p}" for p in problems]
        lines.append("valid false")
        return 2, lines
    lines.append("valid true")
    return 0, lines


def _cmd_cohomology(args):
    dc, _, payload = _load_bicomplex(args.input)
    tables = all_tables(dc.check())
    return 0, provenance_lines(payload) + _h_section(dc, tables)


def _cmd_fss(args):
    dc, _, payload = _load_bicomplex(args.input)
    # spectral_pages validates dc; the row pages, built first, read de Rham
    # off their own pairing and leave it in dc's memo for the column pages
    pages = {f: spectral_pages(dc, f) for f in ("row", "col") if args.filtration in (f, "both")}
    lines = provenance_lines(payload)
    for filtration, name, label in (("col", "column", "F"), ("row", "row", "Fbar")):
        if filtration in pages:
            lines += [f"# {name} filtration pages"]
            lines += page_lines(pages[filtration], filtration, args.max_page)
            lines.append(f"degeneration_{label} {degeneration_page(pages[filtration])}")
    return 0, lines


def _cmd_classify(args):
    dc, rs, payload = _load_bicomplex(args.input)
    return 0, _classify_report(dc, rs, payload, args.max_page)


def _cmd_decompose(args):
    dc, _, payload = _load_bicomplex(args.input)
    return 0, provenance_lines(payload) + report_lines(decompose(dc))


def _cmd_lie(args):
    g, payload = _load_lie(args.input)
    lines = provenance_lines(payload)
    lines.append(f"dim {g.dim}")
    for k, d in sorted(ce_complex(g).cohomology().items()):
        lines.append(f"ce {k} {d}")
    lines.append(f"semisimple {_bool(is_semisimple(g))}")
    return 0, lines


def _solv_like(args, presets, parse, build):
    spec = args.input
    if spec.startswith("nakamura:"):
        data = _builtin(presets, spec.split(":", 1)[1], f"preset {spec!r}")
        payload = spec.encode()
    else:
        payload, text = _read(spec)
        data = parse(text)
    dc, rs = build(data)
    return 0, _classify_report(dc, rs, payload, args.max_page)


def _cmd_solv(args):
    return _solv_like(args, nakamura_preset, parse_solv, build_C)


def _cmd_splitting(args):
    return _solv_like(args, nakamura_splitting_preset, parse_splitting, build_splitting)


def _cmd_ssmodel(args):
    g, payload = _load_lie(args.algebra)
    try:
        numbers = tuple(ascii_int(t) for t in args.betti.split(","))
    except ValueError:
        raise ParseError(f"betti must be comma-separated integers: {args.betti!r}")
    betti = BettiVector(numbers)
    model = semisimple_e2_model(g, betti)
    lines = provenance_lines(payload + b" betti " + args.betti.encode())
    lines += grid_comment("E2 model", model.dims)
    for (p, q) in sorted(model.dims):
        lines.append(f"e2 {p} {q} {model.dims[(p, q)]}")
    for (p, q) in model.symmetry_failures:
        lines.append(f"asym {p} {q}")
    lines.append(f"page1_symmetry {_bool(model.page1)}")
    return 0, lines


def _dump_counterexample(dc: DoubleComplex, seed: int) -> str:
    path = Path.cwd() / f"selftest_counterexample_{seed}.bicomplex"
    path.write_text(write_bicomplex(dc))
    return str(path)


def _selftest_cases(base: int, n: int):
    """(name, dump seed, complex, real structure, planted shapes, page-1),
    None where a case expects nothing."""
    for seed in range(base, base + n):
        dc, planted = random_zigzag_sum(seed)
        yield f"seed {seed}", seed, shuffle_basis(dc, seed + 10**6), None, Counter(planted), None
    # negative control: one injected wedge must flip the verdict
    dc, _ = random_zigzag_sum(base, (1, 2, "square"))
    wedged, _ = direct_sum([dc, catalog_complex("wedge")[0]])
    yield "negative control", base, wedged, None, None, False
    for seed in range(base, base + min(5, n)):  # solvable spot checks
        dc, rs = build_C(random_solvable(seed))
        yield f"solvable seed {seed}", seed, dc, rs, None, True


def _cmd_selftest(args):
    n = args.seeds
    base = args.seed
    lines = [f"# selftest over seeds {base}..{base + n - 1}"]
    for name, seed, dc, rs, planted, page1 in _selftest_cases(base, n):
        try:
            a = analyse(dc, rs)
        except InternalError as e:
            why = str(e)
        else:
            got = Counter(shape for shape, m in a.decomposition.parts for _ in range(m))
            why = None
            if planted is not None and got != planted:
                why = "shape multiset mismatch"
            elif page1 is not None and a.verdict.page1_by_definition != page1:
                why = f"page-1 verdict is not {_bool(page1)}"
        if why:
            lines.append(f"# {name}: {why}")
            lines.append(f"# counterexample: {_dump_counterexample(dc, seed)}")
            lines.append("selftest false")
            return 3, lines
    lines.append("# negative control: injected wedge correctly breaks page-1")
    lines.append("# solvable spot checks passed")
    lines.append(f"selftest_seeds {n}")
    lines.append("selftest true")
    return 0, lines


# -- parser -----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="bicomplex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        p.add_argument("--format", choices=("text", "machine"), default="text")
        return p

    for name, handler in (
        ("validate", _cmd_validate),
        ("cohomology", _cmd_cohomology),
        ("decompose", _cmd_decompose),
    ):
        p = add(name, handler)
        p.add_argument("input", help="bicomplex file or catalog:<name>")

    p = add("fss", _cmd_fss)
    p.add_argument("input", help="bicomplex file or catalog:<name>")
    p.add_argument("--filtration", choices=("col", "row", "both"), default="col")
    p.add_argument("--max-page", type=_positive_int, default=None)

    p = add("classify", _cmd_classify)
    p.add_argument("input", help="bicomplex file or catalog:<name>")
    p.add_argument("--max-page", type=_positive_int, default=None)

    p = add("lie", _cmd_lie)
    p.add_argument("input", help="algebra file or abelian:<n>|heisenberg3|sl2")

    for name, handler in (("solv", _cmd_solv), ("splitting", _cmd_splitting)):
        p = add(name, handler)
        p.add_argument("input", help="data file or nakamura:<identically|real>")
        p.add_argument("--max-page", type=_positive_int, default=None)

    p = add("ssmodel", _cmd_ssmodel)
    p.add_argument("--algebra", required=True)
    p.add_argument("--betti", required=True, help="comma-separated, e.g. 1,2,2,1")

    p = add("selftest", _cmd_selftest)
    p.add_argument("--seeds", type=_positive_int, default=200)
    p.add_argument("--seed", type=_int, default=0)
    return parser


# built once per process: parse_args keeps nothing between calls
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        code, lines = args.func(args)
    except _ArgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # InternalError, or MemoryError, RecursionError, any bug
        kind = "" if isinstance(e, InternalError) else f"{type(e).__name__}: "
        print(f"internal error: {kind}{e}".replace("\n", " "), file=sys.stderr)
        return 3
    sys.stdout.write(render(lines, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Show that every correctness check of the benchmark fails on a
deliberately corrupted output.

    python3 perfbench/corrupt.py

For each workload it takes real outputs of the program, confirms that
the checks pass on them, then corrupts one thing at a time (drops a
recovered shape, flips a `pure` line, changes one table entry, ...) and
confirms that the check named for that corruption reports it.  Exits 1
if any corruption goes unnoticed or any real output fails a check.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check_solvable, check_zigzag, parse_report  # noqa: E402
from workloads import DenseFss, SolvableReport, ZigzagSweep  # noqa: E402

failures = 0


def expect(label: str, problems: list[str], check: str | None) -> None:
    """check None: the output must pass; else `check` must be among the problems."""
    global failures
    if check is None:
        ok = not problems
        print(f"{'ok  ' if ok else 'FAIL'} real output passes: {label}")
    else:
        ok = any(p.startswith(check + ":") for p in problems)
        print(f"{'ok  ' if ok else 'FAIL'} {check} catches {label}")
    if not ok:
        failures += 1
        for p in problems:
            print(f"       {p}")


def replace_line(text: str, old: str, new: str) -> str:
    lines = text.splitlines()
    if old not in lines:
        raise SystemExit(f"corrupt.py: expected line {old!r} not in the report")
    lines[lines.index(old)] = new
    return "\n".join(lines) + "\n"


def first(text: str, prefix: str) -> str:
    return next(line for line in text.splitlines() if line.startswith(prefix))


def bump(line: str) -> str:
    """The report line with its last number increased by one."""
    head, n = line.rsplit(" ", 1)
    return f"{head} {int(n) + 1}"


def zigzag() -> None:
    wl = ZigzagSweep(0, ROOT / "perfbench" / "out")
    # an input with a zigzag of 3 vertices, so the page-1 verdict is false
    # and de Rham is nonzero
    inp = next(i for i in wl.inputs
               if any(len(getattr(s, "steps", ())) == 2 for s in i.expect["planted"]))
    planted = inp.expect["planted"]
    recovered, routes, einf = wl.facts(wl.run(inp))
    expect(inp.name, check_zigzag(planted, recovered, routes, einf), None)

    dropped = recovered.copy()
    dropped[planted[0]] -= 1
    expect("a dropped planted shape", check_zigzag(planted, +dropped, routes, einf), "multiset")
    flipped = (routes[0], not routes[1], routes[2])
    expect("one flipped page-1 route", check_zigzag(planted, recovered, flipped, einf),
           "page1_routes")
    k = next(iter(einf))
    expect("de Rham off by one", check_zigzag(planted, recovered, routes, {**einf, k: einf[k] + 1}),
           "de_rham")


def solvable() -> None:
    wl = SolvableReport(0, ROOT / "perfbench" / "out")
    by_name = {i.name: i for i in wl.inputs}
    real = by_name["solv nakamura:real"]
    text = wl.run(real)
    heis = by_name["classify catalog:heisenberg3-invariant"]
    htext = wl.run(heis)
    expect(real.name, check_solvable(parse_report(text), **real.expect), None)
    expect(heis.name, check_solvable(parse_report(htext), **heis.expect), None)
    small = next(i for i in wl.inputs if i.name.endswith(", 2)"))
    expect(small.name, wl.check(small, wl.run(small)), None)

    def bad(label, old, new, check, inp=real, base=text):
        rep = parse_report(replace_line(base, old, new))
        expect(label, check_solvable(rep, **inp.expect), check)

    bad("one pure line flipped", "pure 3 true", "pure 3 false", "purity")
    bad("page1_shape flipped", "page1_shape true", "page1_shape false", "page1")
    bad("h^{0,1} of nakamura:real changed", "h dolbeault 0 1 3", "h dolbeault 0 1 2",
        "nakamura_h01")
    line = first(text, "h de_rham 1 ")
    bad("one de Rham line changed", line, bump(line), "euler")
    line = first(text, "h del 1 0 ")
    bad("h del 1 0 changed", line, bump(line), "real_symmetry")
    line = first(htext, "h dolbeault 1 1 ")
    bad("one Lie Dolbeault entry changed", line, bump(line), "lie_dolbeault", heis, htext)
    line = first(htext, "h de_rham 2 ")
    bad("one Lie de Rham line changed", line, bump(line), "lie_de_rham", heis, htext)


def dense() -> None:
    wl = DenseFss(0, ROOT / "perfbench" / "out" / "corrupt")
    inp = next(i for i in wl.inputs if i.name == "solv-real")
    fss, coh = wl.run(inp)
    expect(inp.name, wl.check(inp, (fss, coh)), None)

    line = first(coh, "h bott_chern ")
    expect("one Bott-Chern entry changed", wl.check(inp, (fss, replace_line(coh, line, bump(line)))),
           "basis_invariance")
    line = first(fss, "e row 2 ")
    expect("one row page entry changed", wl.check(inp, (replace_line(fss, line, bump(line)), coh)),
           "row_equals_col")
    line = first(coh, "h de_rham ")
    expect("one de Rham line changed", wl.check(inp, (fss, replace_line(coh, line, bump(line)))),
           "einf_de_rham")


if __name__ == "__main__":
    zigzag()
    solvable()
    dense()
    print("all corruptions caught" if not failures else f"{failures} problem(s)")
    sys.exit(1 if failures else 0)

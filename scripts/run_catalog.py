"""Sweep the built-in catalog plus the solvable/splitting presets and print
one classification line per complex.

Columns: name, total dimension, degeneration pages (column/row filtration),
del-delbar lemma, page-1 by definition/dims/shape, purity.

Usage: PYTHONPATH=src python scripts/run_catalog.py
"""
from bicomplex import (
    analyse,
    build_C,
    build_splitting,
    catalog_complex,
    nakamura_preset,
    nakamura_splitting_preset,
)
from bicomplex.catalog import catalog_names


def entries():
    for name in catalog_names():
        yield name, *catalog_complex(name)
    for flavor in ("identically", "real"):
        yield f"nakamura:{flavor}", *build_C(nakamura_preset(flavor))
        yield f"splitting:{flavor}", *build_splitting(nakamura_splitting_preset(flavor))


def main():
    header = f"{'name':<24} {'dim':>4} {'degen':>7} {'ddbar':>5} {'p1 def/dim/shape':>16} {'pure':>4}"
    print(header)
    print("-" * len(header))
    for name, dc, rs in entries():
        a = analyse(dc, rs)
        v = a.verdict
        degen = f"{v.degeneration_page_F}/{v.degeneration_page_Fbar}"
        routes = f"{v.page1_by_definition}/{v.page1_by_dims}/{v.page1_by_shape}"
        pure = all(v.pure.values())
        total = sum(dc.spaces.values())
        print(f"{name:<24} {total:>4} {degen:>7} {str(v.ddbar_lemma):>5} {routes:>16} {str(pure):>4}")
        hodge = " ".join(
            f"h^{p},{q}={n}" for (p, q), n in sorted(a.tables["dolbeault"].items())
        )
        print(f"    dolbeault: {hodge or 'empty'}")


if __name__ == "__main__":
    main()

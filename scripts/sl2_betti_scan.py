"""Scan candidate Betti vectors (1, r, s, 1) against the semisimple
E2-model for sl2 and report which ones admit the symmetric model.

Only (1, 0, 0, 1) should pass; every other vector breaks the E2
symmetry at the bidegrees printed in the asym column.

Usage: PYTHONPATH=src python scripts/sl2_betti_scan.py [--max 3]
"""
import argparse

from bicomplex import (
    BettiVector,
    realified_sl2,
    semisimple_e2_model,
    sl2,
    su2_subalgebra,
    theoremB_verdict,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max", type=int, default=3, help="largest r, s to try")
    args = ap.parse_args()

    g = sl2()
    gr = realified_sl2()
    k = su2_subalgebra()
    print(f"{'betti':<14} {'verdict':<7} {'page1':<5} asym")
    for r in range(args.max + 1):
        for s in range(args.max + 1):
            betti = BettiVector((1, r, s, 1))
            model = semisimple_e2_model(g, betti)
            ok = theoremB_verdict(gr, k, betti)
            asym = " ".join(f"({p},{q})" for p, q in model.symmetry_failures) or "-"
            print(f"{str(betti.b):<14} {str(ok):<7} {str(model.page1):<5} {asym}")


if __name__ == "__main__":
    main()

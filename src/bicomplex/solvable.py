"""Twisted invariant subcomplexes of solvable complex Lie algebras.

The data is a solvable algebra in a basis diagonalizing the semisimple
part of the adjoint action, one weight covector a_i per basis direction
(the log-derivative of the character alpha_i), and a flag predicate on
index subsets recording which character ratios conj(alpha_I)/alpha_I
restrict trivially to the lattice.  Flags are an oracle: they are never
computed from a lattice.

`build_C` materializes the flagged subcomplex as a direct sum of twisted
tensor products, one block per character value:

  * for every flagged key mu: (full holomorphic exterior algebra, twisted
    by -a_mu) tensor (the antiholomorphic weight space of key mu, twisted
    by +conj(a_mu));
  * for every key mu whose negative is flagged, the conjugate block:
    (holomorphic weight space of key -mu) tensor (all antiholomorphic
    weight spaces except mu itself when mu is flagged, so the shared
    block is counted once).

Twists only involve generators of weight zero (validated), so every
block is closed under both differentials.

The real structure is conjugation of forms, the one rule of
`labeled_tensor_sum`, carrying the blocks of key mu onto those of key
-mu.  Distinct keys have distinct twists, and the two blocks of one key
mu share their twists but not their anti subsets (key mu in the first,
any other key in the second), so every basis label is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .complexes import DoubleComplex, RealStructure, labeled_tensor_sum
from .errors import ValidationError
from .exterior import exterior_complex, grade_basis
from .lie import LieAlgebra, series_terminates, validate_lie
from .scalars import I as IMAG, ONE, Scalar, ZERO, sc

Key = tuple[Scalar, ...]

# explicit extra flagged subsets, or "all"; identically-trivial subsets
# (key zero) are always flagged on top of this
FlagSpec = str | frozenset[frozenset[int]]


@dataclass
class SolvData:
    algebra: LieAlgebra
    weights: list[Key]
    flags: FlagSpec


def _zero_key(n: int) -> Key:
    return tuple(ZERO for _ in range(n))


def _neg(key: Key) -> Key:
    return tuple(-c for c in key)


def _key_sort(key: Key):
    return tuple((c.re, c.im) for c in key)


def subset_key(sd: SolvData, subset) -> Key:
    n = sd.algebra.dim
    acc = list(_zero_key(n))
    for i in subset:
        w = sd.weights[i - 1]
        for j in range(n):
            acc[j] = acc[j] + w[j]
    return tuple(acc)


def _all_subsets(n: int) -> list[frozenset[int]]:
    return [frozenset(s) for p in range(n + 1) for s in grade_basis(n, p)]


def flagged_subsets(sd: SolvData) -> set[frozenset[int]]:
    subsets = _all_subsets(sd.algebra.dim)
    if sd.flags == "all":
        return set(subsets)
    zero = _zero_key(sd.algebra.dim)
    base = {s for s in subsets if subset_key(sd, s) == zero}
    return base | set(sd.flags)


def validate_solv(sd: SolvData) -> list[str]:
    g = sd.algebra
    n = g.dim
    problems = validate_lie(g)
    if problems:
        return problems
    if len(sd.weights) != n or any(len(w) != n for w in sd.weights):
        return [f"structure: expected {n} weight covectors of length {n}"]
    if not series_terminates(g, derived=True):
        problems.append("axiom: algebra is not solvable")
    for (i, j), cs in g.brackets.items():
        for k, v in cs.items():
            if not v:
                continue
            expect = tuple(
                sd.weights[i - 1][t] + sd.weights[j - 1][t] for t in range(n)
            )
            if expect != sd.weights[k - 1]:
                problems.append(
                    f"axiom: weights not additive on bracket ({i},{j})->{k}"
                )
    for t in range(n):
        for (i, j), cs in g.brackets.items():
            acc = ZERO
            for k, v in cs.items():
                acc = acc + v * sd.weights[t][k - 1]
            if acc:
                problems.append(
                    f"axiom: weight {t + 1} does not kill [X_{i},X_{j}]"
                )
    zero = _zero_key(n)
    for j in range(1, n + 1):
        if sd.weights[j - 1] == zero:
            continue
        for i in range(1, n + 1):
            if sd.weights[i - 1][j - 1]:
                problems.append(
                    f"axiom: weight {i} is nonzero on weighted direction {j}"
                )
    if problems:
        return problems
    if sd.flags != "all":
        for s in sd.flags:
            if not all(1 <= i <= n for i in s):
                return [f"structure: flag subset {sorted(s)} out of range"]
    flagged = flagged_subsets(sd)
    keys = {s: subset_key(sd, s) for s in _all_subsets(n)}
    fkeys = {keys[s] for s in flagged}
    realized = set(keys.values())
    for s, k in keys.items():
        if k in fkeys and s not in flagged:
            problems.append(
                f"axiom: flags not constant on the character class of {sorted(s)}"
            )
    for k in sorted(fkeys, key=_key_sort):
        if _neg(k) in realized and _neg(k) not in fkeys:
            problems.append("axiom: flags not closed under character inversion")
            break
    for a in flagged:
        for b in flagged:
            if not (a & b) and (a | b) not in flagged:
                problems.append(
                    f"axiom: flags not closed under disjoint union "
                    f"({sorted(a)}, {sorted(b)})"
                )
    return problems


def build_C(sd: SolvData) -> tuple[DoubleComplex, RealStructure]:
    problems = validate_solv(sd)
    if problems:
        raise ValidationError("; ".join(problems))
    g = sd.algebra
    n = g.dim
    keyt = {s: subset_key(sd, s) for p in range(n + 1) for s in grade_basis(n, p)}
    flagged = flagged_subsets(sd)
    fkeys = {keyt[tuple(sorted(s))] for s in flagged}
    realized = set(keyt.values())
    dgen_h = g.ce_forms()
    dgen_a = {k: {ij: v.conjugate() for ij, v in cs.items()} for k, cs in dgen_h.items()}

    blocks = []
    every_key = sorted(fkeys | {_neg(k) for k in fkeys}, key=_key_sort)
    for mu in every_key:
        tw_h = {j: -mu[j - 1] for j in range(1, n + 1) if mu[j - 1]}
        tw_a = {j: mu[j - 1].conjugate() for j in range(1, n + 1) if mu[j - 1]}
        if mu in fkeys:
            f1, b1 = exterior_complex(n, dgen_h, twist=tw_h)
            f2, b2 = exterior_complex(
                n, dgen_a, twist=tw_a, keep=lambda s, m=mu: keyt[s] == m
            )
            blocks.append((f1, tw_h, b1, f2, tw_a, b2))
        if _neg(mu) in fkeys:
            conj_side = (
                (lambda s, m=mu: keyt[s] != m)
                if mu in fkeys
                else (lambda s: True)
            )
            if any(conj_side(s) for s in keyt):
                f1, b1 = exterior_complex(
                    n, dgen_h, twist=tw_h, keep=lambda s, m=_neg(mu): keyt[s] == m
                )
                f2, b2 = exterior_complex(n, dgen_a, twist=tw_a, keep=conj_side)
                blocks.append((f1, tw_h, b1, f2, tw_a, b2))

    return labeled_tensor_sum(blocks)


# -- presets and random data -----------------------------------------------------


def nakamura_preset(case: str) -> SolvData:
    """dim-3 solvable model: [X1,X2] = X2, [X1,X3] = -X3, weights 0, +1, -1.

    `identically` flags only the subsets whose character is 1 identically
    (balanced use of indices 2 and 3); `real` flags everything, modeling
    lattices on which every ratio restricts trivially.
    """
    if case not in ("identically", "real"):
        raise ValidationError(f"unknown preset case {case!r}")
    g = LieAlgebra(3, {(1, 2): {2: ONE}, (1, 3): {3: sc(-1)}})
    weights = [
        _zero_key(3),
        (ONE, ZERO, ZERO),
        (sc(-1), ZERO, ZERO),
    ]
    flags: FlagSpec = "all" if case == "real" else frozenset()
    return SolvData(g, weights, flags)


def random_solvable(seed: int, n: int | None = None) -> SolvData:
    """Deterministic random torus-on-nilpotent data with subgroup flags."""
    rng = Random(seed)
    if n is None:
        n = rng.randint(1, 4)
    if not 1 <= n <= 6:
        raise ValidationError("random solvable data supports 1 <= n <= 6")
    t = rng.randint(max(1, n - 2), n)
    m = n - t
    small = lambda: sc(rng.randint(-1, 1), rng.randint(-1, 1))
    wts = [tuple(small() for _ in range(t)) for _ in range(m)]
    weights = [_zero_key(n) for _ in range(t)] + [
        w + tuple(ZERO for _ in range(m)) for w in wts
    ]
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for j in range(m):
        for a in range(t):
            c = wts[j][a]
            if c:
                brackets.setdefault((a + 1, t + j + 1), {})[t + j + 1] = c
    if m == 2 and rng.random() < 0.5:
        lam = rng.choice([ONE, sc(2), IMAG])
        total = tuple(wts[0][a] + wts[1][a] for a in range(t))
        for k in range(m):
            if wts[k] == total:
                brackets[(t + 1, t + 2)] = {t + k + 1: lam}
                break
    g = LieAlgebra(n, brackets)
    mode = rng.choice(["identically", "all", "subgroup"])
    if mode == "all":
        flags: FlagSpec = "all"
    elif mode == "identically":
        flags = frozenset()
    else:
        ell = [rng.randint(-1, 1) for _ in range(t)]
        sd0 = SolvData(g, weights, frozenset())
        picked = []
        for s in _all_subsets(n):
            k = subset_key(sd0, s)
            v = ZERO
            for a in range(t):
                v = v + sc(ell[a]) * k[a]
            if not v:
                picked.append(s)
        flags = frozenset(picked)
    return SolvData(g, weights, flags)

"""Splitting-type complexes: abelian base acting on a nilpotent factor.

Data: an abelian factor of dimension n, a complex nilpotent algebra of
dimension m modeling the (1,0)-frame of the fiber, one character
exponent pair per fiber generator (the diagonal phi-action), and
Gamma-triviality flags on pairs (J, L) of fiber index subsets.

For each flagged pair the generators are x_I (u_{J,L} y_J) xbar_K
(ubar ybar_L), where u_{J,L} is the product of the two unitary
corrections beta_J and gamma_L divided by the characters themselves.
That product is holomorphic with log-derivative -w, w = h_J + conj(k_J)
+ h_L + conj(k_L), so the twist acts on the base covectors only; the
fiber differential is the plain CE differential of the nilpotent factor
(pure (2,0) since the fiber is a complex Lie group).

Flags are resolved through the unitary character beta_J gamma_L, i.e.
through the key m = k_J + conj(h_L) up to sign (a character and its
inverse restrict trivially together); the summand bookkeeping counts
the conjugation-overlap (w = 0) blocks exactly once.

The real structure is conjugation of forms, the one rule of
`labeled_tensor_sum`: the block (ca, cb) twisted on its holomorphic side
by -w goes to its mirror twisted on its antiholomorphic side by
-conj(w), and an untwisted (w = 0) block (ca, cb) to the block (cb, ca).
The subsets' classes fix (ca, cb), and the twisted side fixes which
block it is, so every basis label is unique.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import DoubleComplex, RealStructure, labeled_tensor_sum
from .errors import ValidationError
from .exterior import exterior_complex, grade_basis
from .lie import LieAlgebra, series_terminates, validate_lie
from .scalars import ONE, ZERO, sc
from .solvable import Key, _key_sort, _neg, _zero_key

PairFlag = tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class Character:
    """Exponent pair of t -> exp(hol . t + antihol . conj(t))."""

    hol: Key
    antihol: Key


@dataclass
class SplittingData:
    n_abelian: int
    nilp: LieAlgebra
    phi: list[Character]
    flags: str | frozenset[PairFlag]  # "all" or explicit extra pairs


def _aggregate(sp: SplittingData, ypart) -> tuple[Key, Key]:
    n = sp.n_abelian
    h = list(_zero_key(n))
    k = list(_zero_key(n))
    for j in ypart:
        for a in range(n):
            h[a] = h[a] + sp.phi[j - 1].hol[a]
            k[a] = k[a] + sp.phi[j - 1].antihol[a]
    return tuple(h), tuple(k)


def _m_key(sp: SplittingData, J, L) -> Key:
    hj, kj = _aggregate(sp, J)
    hl, kl = _aggregate(sp, L)
    return tuple(kj[a] + hl[a].conjugate() for a in range(sp.n_abelian))


def _w_key(cid_a: tuple[Key, Key], cid_b: tuple[Key, Key]) -> Key:
    (ha, ka), (hb, kb) = cid_a, cid_b
    return tuple(
        ha[i] + ka[i].conjugate() + hb[i] + kb[i].conjugate()
        for i in range(len(ha))
    )


def _pair_subsets(m: int) -> list[PairFlag]:
    singles = [frozenset(s) for p in range(m + 1) for s in grade_basis(m, p)]
    return [(a, b) for a in singles for b in singles]


def flagged_m_keys(sp: SplittingData) -> set[Key]:
    keys = {_zero_key(sp.n_abelian)}
    if sp.flags == "all":
        for J, L in _pair_subsets(sp.nilp.dim):
            k = _m_key(sp, J, L)
            keys.add(k)
            keys.add(_neg(k))
        return keys
    for J, L in sp.flags:
        k = _m_key(sp, J, L)
        keys.add(k)
        keys.add(_neg(k))
    return keys


def validate_splitting(sp: SplittingData) -> list[str]:
    n, m = sp.n_abelian, sp.nilp.dim
    if n < 0:
        return ["structure: negative abelian dimension"]
    problems = validate_lie(sp.nilp)
    if problems:
        return problems
    if len(sp.phi) != m:
        return [f"structure: expected {m} characters, got {len(sp.phi)}"]
    for j, ch in enumerate(sp.phi):
        if len(ch.hol) != n or len(ch.antihol) != n:
            return [f"structure: character {j + 1} has wrong exponent length"]
    if not series_terminates(sp.nilp, derived=False):
        problems.append("axiom: fiber algebra is not nilpotent")
    for (i, j), cs in sp.nilp.brackets.items():
        for k, v in cs.items():
            if not v:
                continue
            for a in range(n):
                if (
                    sp.phi[i - 1].hol[a] + sp.phi[j - 1].hol[a]
                    != sp.phi[k - 1].hol[a]
                    or sp.phi[i - 1].antihol[a] + sp.phi[j - 1].antihol[a]
                    != sp.phi[k - 1].antihol[a]
                ):
                    problems.append(
                        f"axiom: characters not additive on bracket ({i},{j})->{k}"
                    )
                    break
    if problems:
        return problems
    if sp.flags != "all":
        for J, L in sp.flags:
            if not all(1 <= i <= m for i in J | L):
                return [f"structure: flag pair ({sorted(J)};{sorted(L)}) out of range"]
        fkeys = flagged_m_keys(sp)
        flagged = {
            (J, L) for (J, L) in _pair_subsets(m) if _m_key(sp, J, L) in fkeys
        }
        explicit_or_base = set(sp.flags) | {
            (J, L)
            for (J, L) in _pair_subsets(m)
            if _m_key(sp, J, L) == _zero_key(n)
        }
        for pair in flagged:
            if pair not in explicit_or_base:
                problems.append(
                    "axiom: flags not constant on the character class of "
                    f"({sorted(pair[0])};{sorted(pair[1])})"
                )
        for (j1, l1) in flagged:
            for (j2, l2) in flagged:
                if not (j1 & j2) and not (l1 & l2):
                    if (j1 | j2, l1 | l2) not in flagged:
                        problems.append(
                            "axiom: flags not closed under disjoint union "
                            f"(({sorted(j1)};{sorted(l1)}), ({sorted(j2)};{sorted(l2)}))"
                        )
    return problems


def build_splitting(sp: SplittingData) -> tuple[DoubleComplex, RealStructure]:
    problems = validate_splitting(sp)
    if problems:
        raise ValidationError("; ".join(problems))
    n, m = sp.n_abelian, sp.nilp.dim
    total = n + m

    ysubsets = [s for p in range(m + 1) for s in grade_basis(m, p)]
    cid_of = {s: _aggregate(sp, s) for s in ysubsets}
    classes = sorted(set(cid_of.values()), key=lambda c: (_key_sort(c[0]), _key_sort(c[1])))
    fkeys = flagged_m_keys(sp)

    def ypart(subset) -> tuple[int, ...]:
        return tuple(i - n for i in subset if i > n)

    nilp_forms = sp.nilp.ce_forms()
    dgen_h = {
        n + k: {(n + i, n + j): v for (i, j), v in cs.items()}
        for k, cs in nilp_forms.items()
    }
    dgen_a = {
        k: {ij: v.conjugate() for ij, v in cs.items()} for k, cs in dgen_h.items()
    }

    blocks = []
    for ca in classes:
        for cb in classes:
            mk = tuple(ca[1][a] + cb[0][a].conjugate() for a in range(n))
            if mk not in fkeys:
                continue
            w = _w_key(ca, cb)
            tw = {a: -w[a - 1] for a in range(1, n + 1) if w[a - 1]}
            f1, b1 = exterior_complex(
                total, dgen_h, twist=tw, keep=lambda s, c=ca: cid_of[ypart(s)] == c
            )
            f2, b2 = exterior_complex(
                total, dgen_a, keep=lambda s, c=cb: cid_of[ypart(s)] == c
            )
            blocks.append((f1, tw, b1, f2, {}, b2))
            if tw:
                twc = {a: v.conjugate() for a, v in tw.items()}
                f1, b1 = exterior_complex(
                    total, dgen_h, keep=lambda s, c=cb: cid_of[ypart(s)] == c
                )
                f2, b2 = exterior_complex(
                    total, dgen_a, twist=twc, keep=lambda s, c=ca: cid_of[ypart(s)] == c
                )
                blocks.append((f1, {}, b1, f2, twc, b2))

    return labeled_tensor_sum(blocks)


def nakamura_splitting_preset(case: str) -> SplittingData:
    """Base dim 1, abelian fiber dim 2, characters exp(z) and exp(-z)."""
    if case not in ("identically", "real"):
        raise ValidationError(f"unknown preset case {case!r}")
    nilp = LieAlgebra(2, {})
    phi = [
        Character((ONE,), (ZERO,)),
        Character((sc(-1),), (ZERO,)),
    ]
    flags: str | frozenset[PairFlag] = "all" if case == "real" else frozenset()
    return SplittingData(1, nilp, phi, flags)

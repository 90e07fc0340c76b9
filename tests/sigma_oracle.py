"""The builders' sigma by the definitional route, kept as a test oracle.

Every basis vector gets its label (hol twist, anti twist, hol subset,
anti subset), twists written as sorted (generator, Scalar) pairs; sigma
at (p, q) is read off a dict from the labels of (q, p) to their rows,
and the result is checked with `check_real_structure`, by products of
sparse matrices.  `bicomplex.complexes.labeled_tensor_sum` builds the
same complex, factor record and sigma matrices as a signed permutation
and must agree with it.
"""

from __future__ import annotations

from bicomplex import (
    InternalError,
    MINUS_ONE,
    Matrix,
    ONE,
    RealStructure,
    check_real_structure,
    direct_sum,
    tensor_product,
)


def oracle_labeled_tensor_sum(blocks: list):
    dc, _ = direct_sum([tensor_product(a, b) for a, _, _, b, _, _ in blocks])
    labels: dict = {}
    for _, a_twist, a_labels, _, b_twist, b_labels in blocks:
        hol, anti = tuple(sorted(a_twist.items())), tuple(sorted(b_twist.items()))
        conj = tuple(tuple((g, v.conjugate()) for g, v in tw) for tw in (anti, hol))
        for p, left in a_labels.items():
            for q, right in b_labels.items():
                labels.setdefault((p, q), []).extend(
                    ((hol, anti, x, y), conj + (y, x)) for x in left for y in right
                )
    sigma = {}
    for (p, q) in dc.bidegrees():
        rows = {lab: i for i, (lab, _) in enumerate(labels.get((q, p), []))}
        if len(rows) < dc.dim(q, p):
            raise InternalError(f"basis label repeated at ({q},{p})")
        sign = MINUS_ONE if (p * q) % 2 else ONE
        entries = {}
        for col, (_, tlab) in enumerate(labels[(p, q)]):
            if tlab not in rows:
                raise InternalError(f"sigma target label missing at ({q},{p}): {tlab!r}")
            entries[(rows[tlab], col)] = sign
        sigma[(p, q)] = Matrix(dc.dim(q, p), dc.dim(p, q), entries)
    rs = RealStructure(sigma)
    bad = dc.validate()
    if bad:
        raise InternalError("built complex invalid: " + "; ".join(bad))
    bad = check_real_structure(dc, rs)
    if bad:
        raise InternalError("built sigma invalid: " + "; ".join(bad))
    return dc, rs

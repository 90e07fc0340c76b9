"""Exact cohomology engine for bounded double complexes over Q(i).

Computes Dolbeault, del, Bott-Chern, Aeppli and de Rham cohomology,
both filtration spectral sequences, Hodge purity, and the
decomposition into squares and zigzags; builds invariant bicomplexes
of Lie algebras, twisted solvable subcomplexes and splitting-type
complexes; classifies the ddbar and page-1-ddbar properties by three
independent routes that are required to agree.
"""

from .scalars import I, MINUS_ONE, ONE, Scalar, ZERO, format_scalar, parse_scalar, sc
from .errors import InternalError, ParseError, ValidationError
from .linalg import Matrix, hstack, inverse, kernel, rank, rcef, rref, solve_right, vstack
from .subspaces import Subspace, image, preimage
from .complexes import (
    Bidegree,
    DoubleComplex,
    RealStructure,
    SimpleComplex,
    TotalComplex,
    aeppli_table,
    all_tables,
    bott_chern_table,
    check_real_structure,
    de_rham_table,
    del_table,
    direct_sum,
    dolbeault_table,
    euler_characteristic,
    tensor_product,
    transpose_complex,
)
from .spectral import (
    Analysis,
    HodgePieces,
    SpectralPage,
    Verdict,
    analyse,
    classify,
    degeneration_page,
    hodge_pieces,
    spectral_pages,
)
from .zigzags import (
    Decomposition,
    Square,
    Zigzag,
    decompose,
    page1_by_shape,
    random_page1_complex,
    random_zigzag_sum,
    report_lines,
    shape_tables,
    shuffle_basis,
)
from .lie import (
    BettiVector,
    E2Model,
    LieAlgebra,
    abelian,
    ce_complex,
    heisenberg3,
    invariant_bicomplex,
    is_semisimple,
    killing_form,
    lie_by_name,
    realified_sl2,
    relative_ce_cohomology,
    semisimple_e2_model,
    sl2,
    su2_subalgebra,
    theoremB_verdict,
    validate_lie,
)
from .solvable import SolvData, build_C, nakamura_preset, random_solvable, validate_solv
from .splitting import (
    Character,
    SplittingData,
    build_splitting,
    nakamura_splitting_preset,
    validate_splitting,
)
from .catalog import catalog_complex, catalog_names
from .files import (
    parse_bicomplex,
    parse_lie,
    parse_solv,
    parse_splitting,
    parse_subalgebra,
    write_bicomplex,
)

__version__ = "0.1.0"

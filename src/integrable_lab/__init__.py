"""Exact-arithmetic lab for q-boson and Toda transfer matrices,
Hall-Littlewood polynomials, Baxter Q-matrices and Bethe ansatz checks.

Everything outside the Bethe root solver is exact rational arithmetic;
identity checks are run at random rational points and either hold
exactly or fail loudly.
"""

from .scalars import format_scalar, parse_scalar, tbinom, tfact, tpoch
from .partitions import (
    Basis,
    conjugate,
    is_horizontal_strip,
    is_vertical_strip,
    multiplicity,
    occupation_basis,
    partition,
    partition_basis,
    state_norm,
    strip_test,
    weight,
    window_basis,
)
from .graded import GradedOperator, SparseMatrix, commutator_items, graded_items, matrix_dump
from .hall_littlewood import (
    Alphabet,
    PieriTable,
    cauchy_coeff_check,
    complete_q_coeffs,
    elementary_e_coeffs,
    hl_P,
    hl_Q,
    hl_R,
    pieri_coeff,
    skew_P,
    skew_Q_omega_sweep,
)
from .vertex_ops import (
    VertexOp,
    build_eigenstate,
    build_gamma,
    covector_pieri_check,
    gamma_commutation_check,
    gamma_eigen_check,
    pair_commutation_check,
)
from .lattice import (
    build_lax,
    build_sixvertex_r,
    folded_toda_transfer,
    open_transfer,
    periodic_transfer,
    rll_check_qboson,
    toda_gauge_check,
    translation_op,
)
from .baxter_q import (
    ar_project_check,
    build_LL,
    build_qmatrix,
    tq_check,
    trace_qmatrix,
)
from .bethe import (
    AnsatzTable,
    BetheSystem,
    bethe_solve,
    bethe_vector,
    interior_staircase_check,
    xi,
)
from .gaudin import gaudin_det, gaudin_sum, lascoux_reduction_check
from .suites import SUITE_NAMES, SuiteSpec, draw_params, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]

"""Finite quantum measure systems.

Classification of decoherence functionals by positivity class, tensor
composition under the product rule, probe systems for the composition-based
positivity test, and constructive self-composition counterexamples.
"""

from .algebra import Event, ProductRectangle, embed_product, rectangle_cover
from .classify import (
    Classification,
    classify,
    is_classical,
    is_in_dual_of_posentry,
    is_positive_entry,
    is_strongly_positive,
    is_weakly_positive,
)
from .compose import compose, eval_composed_factored, marginal_check, self_compose
from .documents import SystemDocument, read_document, write_document
from .errors import (
    ArityMismatchError,
    AxiomViolationError,
    BruteForceLimitError,
    DocumentError,
    PreconditionError,
    QCapError,
    QmtError,
    SearchExhaustedError,
    SumRuleViolationError,
)
from .functional import (
    MeasureTable,
    QuantumSystem,
    Tolerance,
    check_axioms,
    check_quantal_sum_rule,
    eval_D,
    event_matrix,
    measure_table,
    quantal_measure,
    system_from_measure,
)
from .galois import ProbeSystem, build_probe_system, dual_membership_report, probe_quadratic_form
from .gen import GenSpec, generate
from .witness import (
    PermSums,
    PhasePair,
    Witness,
    build_witness,
    cos_sign_pair,
    det_identity_residual,
    find_negative_det_subset,
    find_phase_pair,
    perm_sums,
    tensor_closed_probe,
)

__version__ = "0.1.0"

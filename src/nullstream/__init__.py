"""Memory-bounded streaming learners and spectral certificates.

The package is organized around one-pass algorithms whose entire between-step
state is an explicit bit budget: generators build hard instances, reductions
rewrite one problem's stream into another's, and certificates check the
spectral facts the hard instances rely on.
"""

from .algorithms import (
    ProjectionSeparator,
    REGISTRY,
    build_algorithm,
    kernel_budget_bits,
    lstsq_budget_bits,
    perceptron,
    proj_state_bits,
    separator_budget_bits,
)
from .config import DEFAULTS, Constants, RunConfig, SeparatorDefaults
from .errors import (
    AcceptanceTooRare,
    BudgetViolation,
    DegenerateOutput,
    DimensionMismatch,
    NotSeparableInProjection,
    NullstreamError,
    ValidationError,
)
from .instances import (
    AnvInstance,
    LrInstance,
    LspDataset,
    anv_loss,
    classification_error,
    first_coord_tail,
    gen_anv_conditioned,
    gen_anv_gaussian,
    gen_lr_from_anv,
    gen_lsp_from_anv,
    gen_lsp_hard,
    gen_lsp_margin,
    lr_loss,
    margin_of,
)
from .linalg import Subspace, kernel_vector, orthonormalize
from .reductions import ReductionConfig, anv_via_lr, anv_via_lsp
from .serialize import instance_from_json, instance_to_json, report_to_csv, report_to_json
from .streaming import (
    BitState,
    OnePassAlgorithm,
    SharedRandomness,
    one_pass_to_protocol,
    run_one_pass,
    run_one_pass_stats,
    run_protocol,
    shuffle,
)
from .verification import (
    LemmaReport,
    certify_no_joint_sol,
    certify_sandwich,
    comorth_check,
    singular_value_experiment,
    sphere_concentration_test,
    sphere_marginal_tests,
)

__version__ = "0.1.0"

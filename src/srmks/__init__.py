"""Structural risk minimisation over kernel smoothers.

Compares a data-driven squared-exponential kernel against a
physics-informed oscillator kernel on noisy impulse-response regression,
scoring candidates by capacity-penalised guaranteed-risk bounds.
"""

from .errors import InvalidInputError, SingularSystemError, SrmksError
from .kernels import (
    KernelSpec,
    SDOFKernel,
    SEKernel,
    gram,
    kernel_eval,
    kernel_from_json_dict,
    kernel_to_json_dict,
)
from .oscillator import (
    OscillatorParams,
    SamplingPlan,
    TrainingSet,
    generate_training_set,
    impulse_response,
)
from .risk import (
    BoundConfig,
    DeltaRule,
    RiskReport,
    empirical_risk,
    realized_confidence,
    vc_bound_general,
    vc_bound_reduced,
    vc_bounds,
)
from .smoother import FittedSmoother, fit, predict
from .srm import (
    SelectionResult,
    StructureGrid,
    build_sdof_grid,
    build_se_grid,
    compare_structures,
    srm_select,
    srm_select_batch,
)

__version__ = "0.1.0"

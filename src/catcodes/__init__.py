"""Achievable rates of cat codes and concatenated cat codes on Pauli channels,
threshold searches, and channel degradability tests."""

from types import ModuleType as _ModuleType

from .channels import (
    Basis,
    ChannelFamily,
    InvalidDistributionError,
    NoSolutionError,
    PauliChannel,
    entropy4,
    evaluate_family,
    hashing_rate,
    make_family,
)
from .catcode import (
    CatCodeSpec,
    SignedLog,
    SyndromeClass,
    ZeroProbabilityClassError,
    cat_rate,
    induced_channel,
    joint_prob,
    joint_prob_hetero,
    logical_z_flip_prob,
    syndrome_classes,
)
from .concat import (
    CompositionLimitError,
    ConcatSpec,
    concat_rate,
    induced_ensemble,
)
from .degradable import (
    ChannelMatrixRep,
    DegradabilityVerdict,
    KrausSet,
    antidegradable,
    choi_of_map,
    complementary,
    degradability_verdict,
    kraus_from_pauli,
    natural_rep,
    solve_degrading,
)
from .search import (
    NoBracketError,
    ScanRow,
    ThresholdResult,
    asymptotic_rate_estimate,
    best_length_scan,
    best_threshold_scan,
    code_rate,
    code_rates,
    rule_of_thumb_lengths,
    threshold,
)

# The public names, not the submodules that importing them binds here.
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
__version__ = "0.1.0"

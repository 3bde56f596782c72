"""Sibson alpha-mutual information and conditional variants on finite
alphabets, with probability bounds, contraction estimates, and a
composite hypothesis-testing simulator."""

from .core import (
    Alpha,
    EventMask,
    Joint2,
    Joint3,
    Joint4,
    Kernel,
    Pmf,
    absolutely_continuous,
    conditional,
    marginal,
    markov_extend,
    markov_product,
    tensor_power,
)
from .divergences import (
    hellinger_integral,
    kl_divergence,
    renyi_divergence,
    renyi_limit_check,
)
from .sibson import (
    MiReport,
    additivity_check,
    cond_maximal_leakage,
    cond_sibson_ygz,
    cond_sibson_z,
    cond_sibson_z_values,
    conditional_mi,
    info_radius,
    lmgf_representation,
    maximal_leakage,
    shannon_mi,
    sibson_mi,
)

__version__ = "0.1.0"

__all__ = [
    "Alpha",
    "EventMask",
    "Joint2",
    "Joint3",
    "Joint4",
    "Kernel",
    "MiReport",
    "Pmf",
    "absolutely_continuous",
    "additivity_check",
    "cond_maximal_leakage",
    "cond_sibson_ygz",
    "cond_sibson_z",
    "cond_sibson_z_values",
    "conditional",
    "conditional_mi",
    "hellinger_integral",
    "info_radius",
    "kl_divergence",
    "lmgf_representation",
    "marginal",
    "markov_extend",
    "markov_product",
    "maximal_leakage",
    "renyi_divergence",
    "renyi_limit_check",
    "shannon_mi",
    "sibson_mi",
    "tensor_power",
]

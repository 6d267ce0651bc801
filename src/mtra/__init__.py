"""Multi-type fractional allocation: mechanisms and axiom oracles.

The package implements three mechanisms for allocating several types of
divisible items among agents with partial (including CP-net) preferences
over bundles: random priority, simultaneous eating, and general
dictatorship over a priority-group structure.  Alongside them it ships
exact verification oracles for the fairness and efficiency axioms the
mechanisms are usually measured by, backed by an exact rational simplex.
"""

from .axioms import (
    ImprovableTuple,
    PropertyReport,
    SdVerdict,
    check_decomposability,
    check_envy,
    check_ete,
    check_ex_post_efficiency,
    check_ordinal_fairness,
    check_sd_efficiency,
    check_strategyproofness,
    check_upper_invariance,
    find_generalized_cycle,
    improvable_tuples,
    sd_compare,
)
from .io import build_instance
from .mechanisms import (
    MpsTrace,
    MrpExact,
    MrpMonteCarlo,
    mgd,
    mgd_decompose,
    mps,
    mrp,
    mrp_decompose,
    serial_dictatorship,
)
from .model import (
    DiscreteAssignment,
    FractionalAssignment,
    Instance,
    Lottery,
    TypeDef,
    from_discrete,
    validate_assignment,
)
from .preferences import (
    CPNet,
    PartialOrder,
    ext,
    induce_order,
    is_uit,
    preference_graph,
    topological_sort,
)

__all__ = [name for name in dir() if not name.startswith("_") and name != "io"]  # not the stdlib's io
__version__ = "0.1.0"

"""Decision structures: a graph model of reactive control policies.

The package covers the graph language itself (validation, selection
semantics, structural equivalence), modular decomposition and the
complexity measures built on it, construction and extraction maps for
behavior trees, teleo-reactive programs and decision trees, and an LTL
verifier for checking structures and replacements against world models.
"""

from .structures import (
    CycleFound,
    DecisionStructure,
    DuplicateArcLabel,
    FormatError,
    MultipleSources,
    NoSource,
    ParallelArcs,
    StructureError,
    derived_return,
    format_structure,
    load_structure,
    parse_structure,
    select,
    structurally_equivalent,
    validate,
)
from .modules import (
    DecompositionNode,
    ElementNotAModule,
    NotAModule,
    NotAPartition,
    SizeLimitExceeded,
    block_id,
    contract,
    decompose,
    enumerate_modular_partitions,
    expand,
    find_modules,
    is_module,
    nontrivial_modules,
    quotient,
)
from .architectures import (
    ArchError,
    Leaf,
    Op,
    Pred,
    compress,
    construct_bt,
    construct_dt,
    construct_kbt,
    construct_tr,
    extract_kbt,
    format_arch,
    parse_arch,
)
from .analysis import (
    classify,
    complexity_report,
    cyclomatic,
    essential,
    export_fsm,
    extract_dt,
    relabelings,
)
from .logic import (
    ActionSpec,
    LogicError,
    MissingSpec,
    OverlappingReturns,
    UnknownAtom,
    World,
    build_psi,
    format_formula,
    load_actions,
    load_world,
    parse_actions,
    parse_ltl,
    parse_world,
    return_condition,
    selection_condition,
    selection_conditions,
    validate_actions,
)
from .verifier import (
    LassoTrace,
    ReplacementReport,
    ResourceLimit,
    Verdict,
    check_action_replacement,
    check_module_replacement,
    entails,
    export_obligation,
    verify,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

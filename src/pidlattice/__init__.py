"""Partial information decomposition over parthood lattices.

Decomposes the information several sources carry about a target into atoms
indexed by parthood distributions, starting from any of ten base concepts
(redundancy, weak synergy, union, vulnerable information, their partner
measures, and unique information) with either the built-in reference
measure family or externally supplied measure tables.
"""

from .concepts import (
    BaseConcept,
    CONDITION_FOR_CONCEPT,
    CONDITION_IDS,
    MeasureAssignment,
    REFERENCE_MEASURE_NAME,
    atom_selector,
    canonicalize_collections,
    concept_lattice,
    condition_holds,
    domain_for_concept,
    grid_condition,
    load_measure,
    patch_singleton_synergies,
    reference_measure,
    save_measure,
    selection_mask,
    summate,
)
from .distributions import (
    JointDistribution,
    conditional_mi,
    load_joint,
    mi_table,
    mutual_information,
    random_joint,
    save_joint,
)
from .engine import (
    ENGINE_TOL,
    ConsistencyReport,
    InclusionExclusionReport,
    PidMeta,
    PidResult,
    RankAnalysis,
    decompose,
    derived_measure_table,
    export_result,
    inclusion_exclusion_check,
    load_result,
    measure_table_from_atoms,
    proper_synergy_rank_analysis,
    proper_synergy_values,
    save_result,
    solve_concept,
    verify_consistency,
)
from .errors import (
    CapacityError,
    CompletenessError,
    DomainError,
    MeasureInconsistencyError,
    ParseError,
    PidError,
    UnsupportedStructureError,
    ValidationError,
)
from .lattices import (
    Antichain,
    ConceptLattice,
    MAX_SOURCES,
    ParthoodDistribution,
    SourceSet,
    antichain_from_parthood,
    antichain_leq,
    build_lattice,
    collection_label,
    enumerate_antichains,
    enumerate_parthood_distributions,
    in_access_domain,
    in_blockage_domain,
    lattice_to_dot,
    maximal_non_supersets,
    minimal_non_subsets,
    moebius_invert,
    order_leq,
    parse_antichain_label,
    parse_collection_label,
    parthood_from_antichain,
    parthood_from_synergy_antichain,
    parthood_leq,
    synergy_antichain_from_parthood,
)

__version__ = "0.1.0"

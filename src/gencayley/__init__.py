"""Generalized Cayley graphs over finite groups: perfect codes, total
perfect codes, and exhaustive cross-checks of every decision procedure."""

from .automorphisms import (
    AlphaContext,
    Automorphism,
    alpha_context,
    automorphism_from_perm,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    inversion_automorphism,
    involution_contexts,
    load_automorphism,
    orbit_translate_masks,
    product_automorphism,
)
from .census import CensusRecord, catalog, census_records, emit_report
from .codes import (
    CodeWitness,
    ProductCodesReport,
    RestrictionResult,
    abelian_pc_criterion,
    alpha_preserves,
    brute_force_codes,
    build_product_subset,
    build_product_subset_augmented,
    build_witness_abelian,
    decide_subgroup_pc,
    decide_subgroup_tpc,
    image_subgroup,
    is_gc_transversal,
    is_perfect_code,
    is_total_perfect_code,
    restrict_to_normalizer,
    restrict_witness,
    transport_automorphism,
    transport_conjugate,
    verify_product_codes,
)
from .errors import (
    GenCayleyError,
    GroupFileError,
    GroupValidationError,
    SubsetInvalidError,
    ThresholdError,
)
from .graphs import (
    GenCayleyGraph,
    GenCayleySubset,
    build_graph,
    enumerate_subsets,
    export_dot,
    subset_from_orbit_mask,
    subset_violation,
    validate_subset,
)
from .groups import (
    CosetDecomposition,
    FiniteGroup,
    GroupCache,
    SubgroupHandle,
    build_group,
    cosets,
    direct_product,
    enumerate_subgroups,
    group_from_table,
    load_group_file,
    noncommuting_pair,
    normalizer,
    subgroup,
    subgroup_closure,
)
from .kernels import backend as kernel_backend

__version__ = "0.1.0"

"""Representation-theoretic invariants of quantized Gieseker moduli spaces.

The package computes, with exact rational arithmetic throughout:

* parameter diagnostics (global dimension, localization, finite dimensional
  representations) driven by denominator windows;
* the chain of two-sided ideals, symplectic leaf dimensions, and the
  antichain calculus for ideals of tensor powers;
* the wall-and-chamber combinatorics of one-parameter subgroups and their
  fixed loci;
* category-theoretic invariants of the highest weight categories attached to
  the moduli spaces: Poincare polynomials, support dimensions, annihilators,
  and block structure;
* an exact bound-quiver engine that builds the model block algebra and
  machine-checks its expected homological properties.

Value records (walls, cocharacters, fixed components, Cartan factors and
summands, ideal chains and antichains, hooks, resolutions, Ext results) are
named tuples: defining one generates no code at import, and building one
runs no Python ``__init__``.  Those that validate do so in ``__new__``,
which ``_make`` and ``_replace`` call too.  ``DiagnosticsReport``,
``WallSet``, ``SupportReport`` and ``BlockStructure`` stay frozen
dataclasses, as ``perfbench/selfcheck.py`` rebuilds them with
``dataclasses.replace``.
"""

from types import ModuleType as _ModuleType

from .diagnostics import (
    IRRATIONAL,
    CartanFactor,
    CartanSummand,
    DiagnosticsReport,
    Parameter,
    abelian_localization_holds,
    as_parameter,
    cartan_decomposition,
    diagnose,
    dual_parameter,
    findim_dimension_rank_one,
    format_parameter,
    has_finite_dimensional_rep,
    has_finite_global_dimension,
    parse_parameter,
    reduced_denominator,
    singular_set,
)
from .errors import RegimeError
from .partitions import (
    Hook,
    Multipartition,
    Partition,
    check_partition,
    count_multipartitions,
    count_partitions,
    divide_with_remainder,
    enumerate_compositions,
    enumerate_multipartitions,
    enumerate_partitions,
    format_multipartition,
    format_partition,
    hook_partition,
    hooks,
    is_partition,
    multipartition_size,
    parse_multipartition,
    parse_partition,
    quotient_size,
    removable_corners,
    remove_corner,
    transpose,
)
from .ideal_lattice import (
    IdealAntichain,
    IdealChain,
    IdealChainEntry,
    antichain_normalize,
    contains,
    count_ideals,
    enumerate_ideals,
    enumerate_leaves,
    ideal_chain,
    intersect,
    leaf_dimension,
    minimal_members,
    minimal_transversals,
    parse_antichain,
    product,
    sum_,
    to_intersection_form,
    to_sum_form,
    up_closure,
)
from .torus_chambers import (
    Cocharacter,
    FixedComponent,
    Wall,
    WallSet,
    fixed_components_k0,
    format_cocharacter,
    is_dominant,
    is_generic,
    parse_cocharacter,
    same_chamber,
    violated_walls,
    wall_labels,
    walls,
)
from .category_o import (
    BlockStructure,
    SupportReport,
    annihilator_index,
    block_structure,
    fixed_point_weight,
    legal_removals,
    poincare_polynomial,
    polynomial_string,
    semisimplicity,
    support_dimension,
    support_dimension_recursive,
    support_recursion_values,
    top_cohomology_check,
)
from .quiver_engine import (
    ExtResult,
    ModelAlgebra,
    ProjectiveSum,
    QuiverModule,
    Resolution,
    costandard,
    delta_multiplicities,
    dual_module,
    ext_groups,
    ext_to_simple,
    minimal_projective_resolution,
    model_families,
    projective,
    quotient,
    simple,
    standard,
    submodule,
    tilting,
    verify_model_properties,
)

__version__ = "0.1.0"

# every name imported above, the submodules that the imports bind aside
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

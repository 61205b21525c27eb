"""Catalan simplicial set toolkit.

Combinatorial presentations (Dyck words, edge relations, Motzkin words),
a generic truncated simplicial set engine, monoidal nerves of finite
strict monoidal structures, classification of simplicial maps by
monoids, and a skew-monoidal axiom checker.
"""

from .dyck import (
    SurjectionPath,
    apply_surjection,
    degeneracy,
    degeneracy_witness,
    dimension,
    enumerate_dyck,
    ez_decompose,
    face,
    is_degenerate,
    is_dyck,
    nondegenerate_dyck,
)
from .errors import (
    BoundaryError,
    BudgetExceededError,
    CatssetError,
    DegenerateWordError,
    IndexOutOfRangeError,
    InvalidWordError,
    RelationConditionError,
    SchemaError,
    StructuralError,
)
from .finmon import (
    FinCategory,
    FinMonoidalStructure,
    LawViolation,
    MonoidObject,
    MonoidalPoset,
    Poset,
    enumerate_monoids,
    poset_as_category,
    tensor_violations,
    validate_category,
    validate_strict_monoidal,
)
from .motzkin import (
    catalan_number,
    dyck_to_motzkin,
    enumerate_motzkin,
    is_motzkin,
    motzkin_number,
    motzkin_to_dyck,
    verify_binomial_identity,
)
from .nerve import monoidal_nerve
from .relations import (
    EdgeRelation,
    enumerate_k_relations,
    filler,
    from_relation,
    is_k_relation,
    relation_degeneracy,
    relation_face,
    to_relation,
)
from .classify import (
    ClassificationRecord,
    check_fk_automatic,
    classify_maps,
    verify_classification,
)
from .skew import (
    ConditionReport,
    SkewData,
    check_axioms,
    check_naturality,
    check_pentagons,
    enumerate_skew_structures,
    is_monoidal,
    skew_from_strict,
    sweep_equivalence,
    verify_equivalence,
)
from .sset import (
    SimplicialMap,
    TruncatedSSet,
    boundaries,
    catalan_sset,
    check_simplicial_identities,
    coskeletal_extension,
    fillers,
    is_r_coskeletal_up_to,
    is_simplicial_map,
    isomorphisms,
    simplicial_maps,
)

__version__ = "0.1.0"

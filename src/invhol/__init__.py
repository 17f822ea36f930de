"""Finite inverse semigroups, ordered groupoids, premorphisms, flows,
holomorphs, heap-preserving maps, and bicyclic/polycyclic monoid arithmetic.
"""

from .core import (
    InverseSemigroup,
    NaturalOrder,
    SemilatticeOfGroupsSpec,
    build_from_table,
    build_semilattice_of_groups,
    build_symmetric_inverse_monoid,
    meet_idempotents,
)
from .errors import InvholError
from .groupoid import (
    OrderedGroupoid,
    enumerate_flows,
    esn_back,
    esn_forward,
    flow_compose,
    ordered_flows,
    pseudoproduct,
    restriction,
    verify_ordered_groupoid,
)
from .heap import enumerate_sha, sha_embed, verify_sha_monoid_iso
from .holomorph import (
    HolElement,
    enumerate_holomorph,
    hol_action,
    hol_diamond,
    hol_groupoid_compose,
    holomorph_units,
    mon_hol,
    verify_interchange,
)
from .morphisms import (
    enumerate_premorphisms,
    is_endomorphism,
    is_premorphism,
    sog_premorphism_data,
    verify_premorphism_laws,
)
from .polycyclic import (
    PolyElement,
    bicyclic_endo,
    bicyclic_mul,
    classify_ordered_functor,
    is_suffix_code,
    parse_poly_expression,
    poly,
    poly_mul,
)

__version__ = "0.1.0"

"""mfk: exact matroid polytopes, Bergman fans, and nested-set fans."""

from .matroid import (ComponentPartition, LinearRealization, Matroid,
                      direct_sum, from_bases, from_graph, from_matrix, uniform)
from .lattice import (FlatLattice, MoebiusTable, interval_product_check,
                      irreducible_flats, moebius, order_complex)
from .complexes import SimplicialComplex, reduced_homology_ranks
from .geometry import (Fan, FaceLattice, RationalPolytope, cone_contains,
                       cone_unimodular, convex_hull, face_lattice,
                       quotient_ray, quotient_rep, smith_normal_form)
from .polytope import (Degeneration, FacetDescription, degeneration,
                       face_matroid, facets, polytope)
from .bergman import (AmoebaSample, BergmanFan, amoeba_sample, bergman_fan,
                      bergman_membership, initial_subspace, support_deviations)
from .reciprocal import (CircuitPolynomial, minimal_generator_count,
                         reciprocal_generators)
from .nested import (BuildingSet, FanComparison, NestedFan, compare_fans,
                     dcp_weight_polytope, fans_equal_condition,
                     is_building_set, is_nested, max_building,
                     maximal_nested_sets, min_building, nested_fan, refines,
                     supports_equal_on_generators)
from .corpus import CorpusEntry, corpus, corpus_names

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""mfk: exact matroid polytopes, Bergman fans, and nested-set fans."""

from .matroid import (ComponentPartition, LinearRealization, Matroid,
                      direct_sum, from_bases, from_graph, from_matrix, uniform)
from .lattice import (FlatLattice, MoebiusTable, flats, interval_product_check,
                      irreducible_flats, moebius, order_complex)
from .complexes import SimplicialComplex, reduced_homology_ranks
from .geometry import (Cone, Fan, FaceLattice, RationalPolytope,
                       cone_contains, cone_unimodular, convex_hull,
                       face_lattice, quotient_ray, quotient_rep,
                       smith_normal_form)
from .polytope import (ConstancyChain, Degeneration, FacetDescription,
                       constancy_chain, degeneration, dual_reflection_check,
                       face_matroid, facets, polytope)
from .bergman import (AmoebaSample, BergmanFan, amoeba_sample,
                      bergman_fan, bergman_membership, check_prop_grob,
                      initial_subspace, support_deviation, support_deviations)
from .reciprocal import (CircuitPolynomial, minimal_generator_count,
                         reciprocal_generators)
from .nested import (BuildingSet, FanComparison, NestedFan, blocks_partition,
                     building_set, chain_to_nested, compare_fans,
                     dcp_normal_refinement_check, dcp_weight_polytope,
                     fans_equal_condition, is_building_set, is_nested,
                     max_building, maximal_nested_sets, min_building,
                     nested_chain_helpers, nested_complex,
                     nested_complex_reduced, nested_fan, refines,
                     supports_equal_on_generators)
from .corpus import CorpusEntry, corpus, corpus_names

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

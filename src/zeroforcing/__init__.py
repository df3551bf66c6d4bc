"""Zero forcing numbers, cubic graph families, and maximum-nullity bounds."""

from .catalog import connected_cubic_graphs
from .families import (FamilySpec, assemblies, block_sequences, build_family,
                       counterexample16, distinct_assemblies, family_members,
                       heawood_graph, ladder_m, ladder_t, necklace,
                       permutation_prism)
from .forcing import (DerivedColoring, ZeroForcingResult, closure,
                      is_zero_forcing_set, zero_forcing_number)
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import (Graph, canonical_labelling, complete_bipartite,
                     complete_graph, cycle_graph, edge_connectivity, path_graph)
from .recognition import RecognitionResult, recognize_z3
from .spanning import DegreeCensus, SpanningTree, degree_census, spanning_tree
from .spectral import (BoundsReport, EigenCluster, MinorModel, SpectralReport,
                       adjacency_matrix, bounds_report, eigen_decomposition,
                       max_multiplicity_bound, minor_model_violation,
                       twin_bound, twin_classes)

__all__ = [name for name in dir() if not name.startswith("_")]

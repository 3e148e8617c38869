"""Marked length spectra, cores, and certified isometry reconstruction on
finite metric graphs."""

from .graphs import (DirectedEdge, GraphError, MetricGraph, attach_tree, format_length,
                     parse_length, random_graph, read_graph, subdivide_edge, validate_graph,
                     vertex_degree, write_graph)
from .paths import (ConcatDecomposition, CyclicPath, EdgePath, PathError, concat_reduce,
                    cyclically_reduce, format_path, is_reduced, parse_path, reduce_path,
                    shortest_path)
from .fungroup import (Basis, Hom, Word, WordError, apply_hom, format_word, identity_hom,
                       loop_to_word, marked_length, parse_word, read_hom, spanning_tree,
                       spectrum_table, word_to_loop, write_hom)
from .hull import (CoreDecomposition, Segment, compute_core, core_equals_loop_union,
                   core_loop_union_agrees, is_circle, retraction_check)
from .oracle import (BudgetExceededError, brute_force_isometry, enumerate_cyclic_loops,
                     spectra_agree_up_to)
from .rigidity import (DistinguishedPair, IsometryCertificate, ReconstructionFailure,
                       RigidityError, SpectrumMismatchError, branch_point_map,
                       distinguishing_pair, extend_isometry, reconstruct, recovered_length,
                       transport_path, verify_induces_hom)
from .disguise import DisguiseError, DisguisedInstance, disguise, read_truth, truth_comments

__version__ = "0.1.0"

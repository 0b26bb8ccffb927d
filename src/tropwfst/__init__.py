"""Tropical-algebra toolkit for weighted finite-state transducers.

Min-plus matrix formulations of weight pushing, epsilon removal,
Viterbi decoding and beam pruning, plus the pruning-polytope volume
and entropy metrics, all backed by brute-force test oracles.
"""

from .decoder import (ObservationModel, PruneReport, decode_with_metrics,
                      format_metrics_csv, metric_entropy, metric_nu,
                      parse_observation_model, parse_sequence,
                      prune_indicator, viterbi_decode)
from .errors import (EmptyTrellisError, NegativeCycleError, ParseError,
                     UnknownSymbolError, UnreachableFinalError)
from .semiring import (INF, TOL, Halfspace, approx_equal, arc_matrix,
                       cg_conjugate, delta, format_matrix, gamma,
                       halfspace_contains, maxplus_mul, minplus_matvec,
                       minplus_mul, pointwise_min, trop_eye, trop_line_eval,
                       trop_zeros)
from .transforms import (Potentials, compute_potentials, is_pushed,
                         push_weights, remove_epsilons, trim)
from .wfst import (ARC, EPSILON, EPSILON_SYM, Arc, MatrixView, Wfst,
                   arc_arrays, build_matrices, parse_text, serialize_text,
                   validate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

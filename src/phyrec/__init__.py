"""Phylogenetic reconstruction on homogeneous trees beyond the linear
threshold: symmetric/GTR models, samplers, diluted ancestral-state
estimators, channel-inverting distances, and the level-by-level topology
reconstruction that runs the gated four-point quartet test on them."""

from .asr import (CalibrationResult, ErrorChannelEstimate, calibrate_dilution,
                  diluted_root_estimator, diluted_state_sets,
                  diluted_tree_event, estimate_error_channel,
                  exact_root_posterior, majority_root_estimator)
from .errors import (CalibrationError, CherryMatchingError,
                     EnumerationTooLargeError, InvalidModelError, NewickError,
                     PhyrecError, ReconstructionError, UnsupportedModelError)
from .experiments import (MinKResult, ProbeResult, SweepConfig,
                          asr_accuracy_sweep, cell_rng,
                          distinguishability_probe, find_min_k,
                          ptr_success_sweep)
from .metric import (ConcentrationReport, distance_concentration_check,
                     estimate_distance, pairwise_distance_matrix)
from .model import (G_LIN, G_PERC, RateModel, Thresholds, delta_from_tau,
                    load_rate_model, potts_rate_matrix,
                    potts_transition_matrix, thresholds, transition_matrix,
                    validate_gtr)
from .newick import parse_newick, read_newick_file, to_newick
from .reconstruct import (ReconstructionParams, auto_reconstruction_params,
                          reconstruct_homogeneous,
                          reconstruct_internal_sequences)
from .simulate import (Alignment, broadcast_sample, exact_leaf_distribution,
                       potts_batch_sample, random_cluster_sample,
                       read_alignment, sample_alignment, write_alignment)
from .tree import (Phylogeny, Topology, TreeMetric, homogeneous_phylogeny,
                   random_homogeneous_phylogeny, robinson_foulds,
                   topologies_equal, tree_metric, unroot)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

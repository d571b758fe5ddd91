"""Phylogenetic reconstruction on homogeneous trees beyond the linear
threshold: symmetric/GTR models, samplers, diluted ancestral-state
estimators, channel-inverting distances, and the level-by-level topology
reconstruction that runs the gated four-point quartet test on them."""

from .asr import diluted_state_sets, exact_root_posterior
from .errors import (CalibrationError, CherryMatchingError,
                     EnumerationTooLargeError, InvalidModelError, NewickError,
                     PhyrecError, ReconstructionError)
from .experiments import (CalibrationResult, ErrorChannelEstimate, MinKResult,
                          ProbeResult, SweepConfig, asr_accuracy_sweep,
                          calibrate_dilution, cell_rng,
                          distinguishability_probe, estimate_error_channel,
                          find_min_k, ptr_success_sweep)
from .metric import (ConcentrationReport, distance_concentration_check,
                     pairwise_distance_matrix)
from .model import (G_LIN, G_PERC, RateModel, Thresholds, delta_from_tau,
                    load_rate_model, potts_rate_matrix,
                    potts_transition_matrix, thresholds, transition_matrix,
                    validate_gtr)
from .newick import parse_newick, read_newick_file, to_newick
from .reconstruct import (ReconstructionParams, auto_reconstruction_params,
                          reconstruct_homogeneous,
                          reconstruct_internal_sequences)
from .simulate import (Alignment, exact_leaf_distribution, potts_batch_sample,
                       read_alignment, sample_alignment, write_alignment)
from .tree import (Phylogeny, Topology, homogeneous_phylogeny,
                   nested_topology, random_homogeneous_phylogeny,
                   robinson_foulds, topologies_equal, tree_metric, unroot)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

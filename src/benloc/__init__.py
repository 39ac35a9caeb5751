"""benloc: a benchmark toolkit for learning per-instance MIP optimizer
configurations."""

from .instance import (MipInstance, MpsError, PermutationRecord,
                       apply_permutation, parse_mps, permute_instance,
                       read_mps, write_mps)
from .static_features import (CONSTRAINT_CLASSES, STATIC_FEATURE_NAMES,
                              StaticFeatureVector, extract_static)
from .logs import (FeatureStage, SolveLog, assemble_features,
                   dynamic_features, extra_cost, gap_features, parse_log)
from .graph import BipartiteGraph, build_graph, canonical_signature
from .metrics import (ConfigId, PerfTable, improvement,
                      improvement_upper_bound, pd_best, pi_best,
                      shifted_geomean)
from .splits import (DatasetManifest, SplitAssignment, split_by_instance,
                     split_by_permutation, stratified_split)
from .learners import (ExampleSet, TrainedSelector, build_examples,
                       make_labels, predict_config, train)
from .synth import OracleSpec, gen_indset, gen_setcover, oracle_times
from .dataset import BenchmarkData, build_oracle_dataset, load_dataset, write_dataset
from .report import evaluate_split, run_experiment, summarize

__version__ = "0.1.0"

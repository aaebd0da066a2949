"""Knowledge graph embedding on plain numpy.

The package factors link prediction models into four orthogonal choices:
an interaction model scoring (head, relation, tail) triples, a training
approach (negative sampling or 1-N scoring), a loss, and whether inverse
relations get their own embeddings. Everything trains through a small
reverse-mode autodiff engine over dense float64 arrays, and is evaluated
with rank-based metrics under all three tie-handling definitions.
"""

from .autodiff import Graph, Node, finite_difference_check
from .datasets import (FilterIndex, TripleStore, add_inverse_relations,
                       load_tsv, relation_stats)
from .evaluation import (RankingResult, compute_ranks,
                         make_validation_callback, rank_from_scores)
from .hpo import (Budget, SearchSpace, StudyError, StudyResult, TrialRecord,
                  random_search, sample_config)
from .losses import (LossSpec, batch_loss, cel_loss, nssal_loss,
                     pairwise_loss, pointwise_loss)
from .models import (KINDS, InteractionSpec, build_interaction,
                     init_parameters, load_checkpoint, parameter_count,
                     save_checkpoint)
from .pipeline import (ConfigError, DataError, execute_run, load_config,
                       normalize_config)
from .sampling import (LCWATask, NegativeSampler, derive_seed, rng_for,
                       smooth_labels)
from .training import (Adadelta, Adam, DivergenceError, EarlyStopper,
                       OptimizerSpec, TrainingConfig, TrainResult, train)

__version__ = "0.1.0"

__all__ = [
    "Graph", "Node", "finite_difference_check",
    "FilterIndex", "TripleStore", "add_inverse_relations", "load_tsv",
    "relation_stats",
    "RankingResult", "compute_ranks", "make_validation_callback",
    "rank_from_scores",
    "Budget", "SearchSpace", "StudyError", "StudyResult", "TrialRecord",
    "random_search", "sample_config",
    "LossSpec", "batch_loss", "cel_loss", "nssal_loss", "pairwise_loss",
    "pointwise_loss",
    "KINDS", "InteractionSpec", "build_interaction", "init_parameters",
    "load_checkpoint", "parameter_count", "save_checkpoint",
    "ConfigError", "DataError", "execute_run", "load_config",
    "normalize_config",
    "LCWATask", "NegativeSampler", "derive_seed", "rng_for", "smooth_labels",
    "Adadelta", "Adam", "DivergenceError", "EarlyStopper", "OptimizerSpec",
    "TrainingConfig", "TrainResult", "train",
    "__version__",
]

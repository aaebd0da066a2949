"""The package's public names."""

import kgembed

# removing or renaming a public name changes the interface: edit this list in
# the same change, and say there why the name went
PUBLIC = [
    "Adadelta", "Adam", "Budget", "ConfigError", "DataError", "DivergenceError",
    "EarlyStopper", "FilterIndex", "Graph", "InteractionSpec", "KINDS", "LCWATask",
    "LossSpec", "NegativeSampler", "Node", "OptimizerSpec", "RankingResult",
    "SearchSpace", "StudyError", "StudyResult", "TrainResult", "TrainingConfig",
    "TrialRecord", "TripleStore", "__version__", "add_inverse_relations",
    "batch_loss", "build_interaction", "cel_loss", "compute_ranks", "derive_seed",
    "execute_run", "finite_difference_check", "init_parameters", "load_checkpoint",
    "load_config", "load_tsv", "make_validation_callback", "normalize_config",
    "nssal_loss", "pairwise_loss", "parameter_count", "pointwise_loss",
    "random_search", "rank_from_scores", "relation_stats", "rng_for",
    "sample_config", "save_checkpoint", "smooth_labels", "train",
]


def test_public_names_are_pinned_and_resolve():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(kgembed.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(kgembed, name), name


def test_benchmark_hooks_stay_module_level_callables():
    # kgbench's tracer keys per-layer metrics on these names; a rename would
    # make its hpo.trial_s and pipeline.artifacts_s silently read 0
    from kgembed import hpo, models, pipeline

    for module, name in ((hpo, "run_trial"), (pipeline, "execute_run"),
                         (models, "save_checkpoint")):
        assert callable(vars(module).get(name)), f"{module.__name__}.{name}"

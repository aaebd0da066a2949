"""Random search: spaces, sampling, trial execution, resume, best selection."""

import json
import pathlib
import time

import numpy as np
import pytest

from kgembed.datasets import SPLITS, FilterIndex, TripleStore, add_inverse_relations
from kgembed.evaluation import compute_ranks
from kgembed.hpo import (
    ADVERSARIAL_TEMPERATURES,
    MRL_MARGINS,
    NSSAL_MARGINS,
    Budget,
    SearchSpace,
    StudyError,
    TrialRecord,
    random_search,
    run_trial,
    sample_config,
    trial_document,
)
from kgembed.models import MAX_WIDTH, InteractionSpec, build_interaction, load_checkpoint
from kgembed.pipeline import (DataError, build_model, build_training_config, execute_run,
                              normalize_config)
from kgembed.sampling import derive_seed, rng_for
from kgembed.training import DivergenceError


TOY_SPLITS = (
    [
        ("a", "r0", "b"), ("a", "r0", "c"), ("b", "r0", "c"),
        ("c", "r1", "a"), ("d", "r1", "a"), ("b", "r1", "d"),
        ("d", "r0", "e"), ("e", "r1", "b"), ("a", "r1", "e"),
    ],
    [("b", "r0", "d"), ("c", "r1", "e")],
    [("e", "r0", "a"), ("d", "r0", "a")],
)


def toy_store():
    return TripleStore.from_labeled_triples(*TOY_SPLITS)


def stopping(frequency=50, patience=100):
    """A study's early-stopping section, as random_search builds it."""
    return {"enabled": True, "frequency": frequency, "patience": patience,
            "metric": "hits_at_10"}


def tiny_space(**kw):
    base = dict(
        models=("distmult",),
        embedding_dims=(4,),
        batch_sizes=(4,),
        optimizers=("adam",),
        learning_rate_range=(0.01, 0.1),
        negatives_range=(1, 4),
        num_epochs=2,
    )
    base.update(kw)
    return SearchSpace(**base)


# ---------------------------------------------------------------------------
# grids and space validation
# ---------------------------------------------------------------------------

def test_hyperparameter_grids():
    assert MRL_MARGINS == tuple(0.5 * i for i in range(1, 20))
    assert MRL_MARGINS[0] == 0.5 and MRL_MARGINS[-1] == 9.5
    assert NSSAL_MARGINS == tuple(float(m) for m in range(1, 31, 2))
    assert NSSAL_MARGINS[0] == 1.0 and NSSAL_MARGINS[-1] == 29.0
    assert ADVERSARIAL_TEMPERATURES == tuple((i + 1) / 10 for i in range(10))


def test_search_space_defaults_match_contract():
    s = SearchSpace()
    assert s.embedding_dims == (64, 128, 256)
    assert s.optimizers == ("adam", "adadelta")
    assert s.learning_rate_range == (0.001, 0.1)
    assert s.batch_sizes == (128, 256, 512)
    assert s.inverse_choices == (False, True)
    assert s.num_epochs == 1000
    assert s.slcwa_losses == ("bcel", "mrl", "nssal", "spl")
    assert s.lcwa_losses == ("bcel", "cel", "spl")
    assert s.negatives_range == (1, 100)
    assert s.label_smoothing_range == (0.001, 1.0)


def test_search_space_validation():
    with pytest.raises(ValueError, match="is empty"):
        SearchSpace(models=())
    with pytest.raises(ValueError, match="unknown interaction kind 'transz'"):
        SearchSpace(models=("distmult", "transz"))
    with pytest.raises(ValueError, match="approaches"):
        SearchSpace(approaches=("slcwa", "open-world"))
    with pytest.raises(ValueError, match="slcwa_losses"):
        SearchSpace(slcwa_losses=("bcel", "cel"))
    with pytest.raises(ValueError, match="lcwa_losses"):
        SearchSpace(lcwa_losses=("mrl",))
    with pytest.raises(ValueError, match="optimizers"):
        SearchSpace(optimizers=("sgd",))
    with pytest.raises(ValueError, match="needs 0 < lo < hi"):
        SearchSpace(learning_rate_range=(0.1, 0.1))
    with pytest.raises(ValueError, match="negatives_range"):
        SearchSpace(negatives_range=(0, 10))
    with pytest.raises(ValueError, match="negatives_range"):
        SearchSpace(negatives_range=(1, MAX_WIDTH + 1))
    with pytest.raises(ValueError, match="num_epochs"):
        SearchSpace(num_epochs=0)
    with pytest.raises(ValueError, match="num_epochs must be a positive integer"):
        SearchSpace(num_epochs=2.5)  # would be truncated to 2 epochs
    with pytest.raises(ValueError, match="embedding_dims value 0: d_e must lie in"):
        SearchSpace(embedding_dims=(64, 0))
    with pytest.raises(ValueError, match="batch_sizes value -4: must be >= 1"):
        SearchSpace(batch_sizes=(-4,))
    # every (model, dim) pair must build: ConvE cannot reshape 2 * 4 values
    with pytest.raises(ValueError, match="models value 'conve' with embedding_dims value 4"):
        SearchSpace(models=("distmult", "conve"), embedding_dims=(4, 16))
    with pytest.raises(ValueError, match="label_smoothing_range value 1.4"):
        SearchSpace(label_smoothing_range=(0.1, 1.5))
    with pytest.raises(ValueError, match="adversarial_temperatures value 0.0: must be positive"):
        SearchSpace(adversarial_temperatures=(0.5, 0.0))
    with pytest.raises(ValueError, match="needs two values"):
        SearchSpace(learning_rate_range=(0.01, 0.1, 1.0))


def test_search_space_dict_round_trip():
    s = tiny_space()
    back = SearchSpace(**s.to_dict())
    assert back == s
    assert json.loads(json.dumps(s.to_dict())) == s.to_dict()


# ---------------------------------------------------------------------------
# configuration sampling
# ---------------------------------------------------------------------------

def test_sampled_configs_respect_the_space():
    space = SearchSpace(models=("distmult", "transe"))
    rng = np.random.default_rng(0)
    saw_approach = set()
    for _ in range(400):
        cfg = sample_config(space, rng)
        saw_approach.add(cfg["approach"])
        assert cfg["model"] in space.models
        assert cfg["embedding_dim"] in space.embedding_dims
        assert cfg["optimizer"] in space.optimizers
        assert 0.001 <= cfg["learning_rate"] < 0.1
        assert cfg["batch_size"] in space.batch_sizes
        assert cfg["inverse"] in (False, True)
        assert cfg["sampler"] == "uniform"
        assert cfg["num_epochs"] == 1000
        if cfg["approach"] == "slcwa":
            assert cfg["loss"] in space.slcwa_losses
            assert 1 <= cfg["num_negatives"] <= 100
            assert cfg["label_smoothing"] == 0.0
            if cfg["loss"] == "mrl":
                assert cfg["margin"] in MRL_MARGINS
                assert cfg["adversarial_temperature"] is None
            elif cfg["loss"] == "nssal":
                assert cfg["margin"] in NSSAL_MARGINS
                assert cfg["adversarial_temperature"] in ADVERSARIAL_TEMPERATURES
            else:
                assert cfg["margin"] is None
        else:
            assert cfg["loss"] in space.lcwa_losses
            assert cfg["num_negatives"] is None
            assert cfg["margin"] is None
            assert 0.001 <= cfg["label_smoothing"] < 1.0
    assert saw_approach == {"slcwa", "lcwa"}


def test_every_sample_builds_a_valid_training_config(tmp_path):
    # the approach-specific loss pools make compatibility hold by construction,
    # and every trial document is a run document: normalized, it fills the
    # same defaults the trial's TrainingConfig takes
    space = SearchSpace()
    rng = np.random.default_rng(1)
    paths = write_store(tmp_path)
    for _ in range(300):
        cfg = sample_config(space, rng)
        doc = trial_document(cfg, stopping(), seed=0)
        run = normalize_config(dict(doc, dataset=paths, output_dir=str(tmp_path / "out")))
        assert build_training_config(run) == build_training_config(doc)
        tconf = build_training_config(doc)
        assert tconf.approach == cfg["approach"]
        assert tconf.loss.kind == cfg["loss"]
        assert tconf.optimizer.lr == cfg["learning_rate"]
        assert tconf.batch_size == cfg["batch_size"]
        assert tconf.sampler == cfg["sampler"]
        assert tconf.label_smoothing == cfg["label_smoothing"]
        assert tconf.num_negatives == (cfg["num_negatives"] or 32)


def test_learning_rate_is_log_uniform():
    # equal mass in [0.001, 0.01) and [0.01, 0.1)
    space = SearchSpace()
    rng = np.random.default_rng(2)
    lrs = np.array([sample_config(space, rng)["learning_rate"] for _ in range(4000)])
    low = np.mean(lrs < 0.01)
    assert abs(low - 0.5) < 0.03
    assert lrs.min() >= 0.001 and lrs.max() < 0.1


def test_sample_config_deterministic_per_trial_stream():
    space = SearchSpace(models=("distmult", "transe", "rotate"))
    a = sample_config(space, rng_for(9, "trial-3/config"))
    b = sample_config(space, rng_for(9, "trial-3/config"))
    c = sample_config(space, rng_for(9, "trial-4/config"))
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# budget and records
# ---------------------------------------------------------------------------

def test_budget_validation_and_round_trip():
    with pytest.raises(ValueError, match="max_trials"):
        Budget(max_trials=0)
    with pytest.raises(ValueError, match="max_seconds"):
        Budget(max_seconds=-1)
    with pytest.raises(ValueError, match="trial_seconds"):
        Budget(trial_seconds=0)
    b = Budget(max_trials=5, max_seconds=60.0)
    assert Budget(**b.to_dict()) == b


def test_trial_record_round_trip():
    rec = TrialRecord(3, {"model": "distmult"}, 17, "completed", 0.75, 4, 6, 1.25)
    back = TrialRecord.from_json(json.loads(json.dumps(rec.to_json())))
    assert back == rec


def test_trial_document_clamps_eval_frequency():
    cfg = sample_config(tiny_space(num_epochs=5), rng_for(0, "trial-0/config"))
    doc = trial_document(cfg, stopping(50, 3), seed=1)
    # the document carries the study's settings; the run path clamps them
    assert doc["early_stopping"]["frequency"] == 50
    tconf = build_training_config(doc)
    assert tconf.eval_frequency == 5   # clamped to the epoch cap
    assert tconf.patience == 5         # lifted to stay >= frequency
    assert tconf.num_epochs == 5
    assert tconf.seed == 1
    doc = trial_document(cfg, stopping(2, 3), seed=1)
    assert build_training_config(doc).eval_frequency == 2
    assert build_training_config(doc).patience == 3


def test_trial_document_uses_the_right_store():
    store = toy_store()
    augmented = add_inverse_relations(store)
    cfg = sample_config(tiny_space(), rng_for(0, "trial-0/config"))
    doc = trial_document(cfg, stopping(), seed=0)
    assert build_model(doc, store)[0].num_relations == store.num_relations
    assert build_model(doc, augmented)[0].num_relations == 2 * store.num_relations
    assert build_model(doc, store)[0].d_e == cfg["embedding_dim"]
    # run_trial trains on the store its configuration asks for: the dataset's
    # own, or the augmented store that one keeps
    for inverse, want in ((False, store), (True, augmented)):
        record, (run_store, model, params) = run_trial(
            0, dict(cfg, inverse=inverse), store, stopping(), seed=2)
        assert record.status == "completed"
        assert run_store is want
        assert model.spec.num_relations == params["relation"].shape[0] == want.num_relations


# ---------------------------------------------------------------------------
# single trials
# ---------------------------------------------------------------------------

def write_store(tmp_path):
    """toy_store's splits as TSV files; returns the dataset section."""
    paths = {}
    for split, triples in zip(("train", "valid", "test"), TOY_SPLITS):
        path = tmp_path / f"{split}.txt"
        path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples))
        paths[split] = str(path)
    return paths


def test_run_trial_completes_with_metric():
    cfg = sample_config(tiny_space(), rng_for(5, "trial-0/config"))
    record, trained = run_trial(0, cfg, toy_store(), stopping(),
                                seed=derive_seed(5, "trial-0/train"))
    assert record.status == "completed"
    assert record.metric is not None and 0.0 <= record.metric <= 1.0
    assert record.epochs_run == 2
    assert record.error is None
    assert trained is not None


def test_run_trial_turns_exceptions_into_failed_records():
    cfg = sample_config(tiny_space(), rng_for(5, "trial-0/config"))
    cfg["embedding_dim"] = 0  # invalid spec
    record, trained = run_trial(1, cfg, toy_store(), stopping(), seed=0)
    assert record.status == "failed"
    assert trained is None
    assert record.metric is None
    assert record.error == "ConfigError: model: d_e must lie in [1, 2147483647]"


def test_run_trial_deadline_yields_budget_exhausted():
    cfg = sample_config(tiny_space(num_epochs=50), rng_for(5, "trial-0/config"))
    record, trained = run_trial(
        0, cfg, toy_store(), stopping(1, 30), seed=3,
        deadline=time.monotonic() - 1.0,
    )
    assert record.status == "budget-exhausted"
    assert record.epochs_run == 1     # the first epoch finishes, then the cut
    assert record.metric is not None  # epoch-boundary evaluation still ran
    assert trained is not None


def test_run_trial_is_deterministic():
    store = toy_store()
    cfg = sample_config(tiny_space(), rng_for(8, "trial-2/config"))
    r1, (_, _, p1) = run_trial(2, cfg, store, stopping(), seed=123)
    r2, (_, _, p2) = run_trial(2, cfg, store, stopping(), seed=123)
    assert r1.metric == r2.metric
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


@pytest.mark.parametrize("trial", range(4))
def test_trial_and_run_of_the_same_document_agree_exactly(tmp_path, trial):
    # a trial is a run: the run document of a sampled configuration, trained
    # by `kgembed train`'s execute_run on the same files, gives the same bits
    paths = write_store(tmp_path)
    store = TripleStore.from_files(paths["train"], paths["valid"], paths["test"])
    space = tiny_space(models=("distmult", "transe", "complex"), num_epochs=3,
                       samplers=("uniform", "bernoulli"))
    cfg = sample_config(space, rng_for(12, f"trial-{trial}/config"))
    seed = derive_seed(12, f"trial-{trial}/train")
    record, (_, _, params) = run_trial(trial, cfg, store, stopping(1, 2), seed=seed)
    assert record.status == "completed"
    doc = trial_document(cfg, stopping(1, 2), seed=seed)
    result = execute_run(normalize_config(
        dict(doc, dataset=paths, output_dir=str(tmp_path / "run"))))
    assert result["training"]["best_validation_metric"] == record.metric
    assert result["training"]["epochs_run"] == record.epochs_run
    _, saved, _ = load_checkpoint(result["paths"]["checkpoint"])
    assert saved.keys() == params.keys()
    for k in params:
        assert np.array_equal(saved[k], params[k])


# ---------------------------------------------------------------------------
# whole studies
# ---------------------------------------------------------------------------

def test_random_search_end_to_end():
    store = toy_store()
    result = random_search(
        tiny_space(), store, budget=Budget(max_trials=4), master_seed=0,
        eval_frequency=1, patience=2,
    )
    assert [r.trial_id for r in result.records] == [0, 1, 2, 3]
    completed = [r for r in result.records if r.status == "completed"]
    assert completed
    for r in completed:
        assert r.metric is not None  # frequency clamp guarantees an evaluation
    scored = [r for r in result.records if r.metric is not None]
    assert result.best.metric == max(r.metric for r in scored)
    assert result.retrained is False  # the winner's params were still in memory
    # the reported test metrics are reproducible from the returned params,
    # ranked on the store the winner trained on
    assert result.best_store is (add_inverse_relations(store) if result.best.config["inverse"]
                                 else store)
    model = build_interaction(InteractionSpec.from_dict(result.best_spec))
    again = compute_ranks(model, result.best_params, result.best_store,
                          split="test", filtered=True).metrics()
    assert again == result.test_metrics["filtered"]
    assert set(result.test_metrics) == {"filtered", "unfiltered"}


def test_reuse_and_full_retrain_agree_exactly(tmp_path):
    # a study resumed with every trial on disk has no params in memory and
    # retrains its winner; that must give the bits the first run reused
    store = toy_store()
    kw = dict(budget=Budget(max_trials=3), master_seed=4, eval_frequency=1,
              patience=2, records_path=str(tmp_path / "trials.jsonl"))
    auto = random_search(tiny_space(), store, **kw)
    full = random_search(tiny_space(), store, **kw)
    assert auto.retrained is False
    assert full.retrained is True
    assert auto.best.trial_id == full.best.trial_id
    assert auto.best_spec == full.best_spec
    assert auto.best_params.keys() == full.best_params.keys()
    for k in auto.best_params:
        assert np.array_equal(auto.best_params[k], full.best_params[k])
    assert auto.test_metrics == full.test_metrics


def test_random_search_is_deterministic_in_master_seed():
    store = toy_store()
    kw = dict(budget=Budget(max_trials=3), eval_frequency=1, patience=2)
    a = random_search(tiny_space(), store, master_seed=7, **kw)
    b = random_search(tiny_space(), store, master_seed=7, **kw)
    c = random_search(tiny_space(), store, master_seed=8, **kw)
    assert [r.metric for r in a.records] == [r.metric for r in b.records]
    assert [r.config for r in a.records] == [r.config for r in b.records]
    assert a.test_metrics == b.test_metrics
    assert [r.config for r in a.records] != [r.config for r in c.records]


def test_random_search_rejects_bad_inputs():
    store = toy_store()
    with pytest.raises(ValueError, match="un-augmented"):
        random_search(tiny_space(), add_inverse_relations(store))


@pytest.mark.parametrize("split, name", [("train", "training"), ("valid", "validation"),
                                         ("test", "test")])
def test_random_search_rejects_an_empty_split_before_the_first_trial(
        tmp_path, monkeypatch, split, name):
    # every trial validates, so an empty validation split used to run every
    # trial and then end in max() of an empty sequence
    import kgembed.hpo as hpo

    splits = list(TOY_SPLITS)
    splits[SPLITS.index(split)] = []
    store = TripleStore.from_labeled_triples(*splits)
    monkeypatch.setattr(hpo, "train_run", lambda *a, **k: pytest.fail("a trial ran"))
    with pytest.raises(DataError, match=f"^the {name} split has no triples$"):
        random_search(tiny_space(), store, budget=Budget(max_trials=1),
                      records_path=tmp_path / "trials.jsonl",
                      manifest_path=tmp_path / "manifest.json")
    assert not list(tmp_path.iterdir())


def test_study_with_no_completed_trials_raises(monkeypatch):
    import kgembed.hpo as hpo

    def diverge(*args, **kwargs):
        raise DivergenceError("epoch loss is not finite: nan")

    # a valid space whose every trial fails in training
    monkeypatch.setattr(hpo, "train_run", diverge)
    with pytest.raises(StudyError, match="no trial completed"):
        random_search(tiny_space(), toy_store(), budget=Budget(max_trials=2),
                      eval_frequency=1, patience=2)


def count_builds(monkeypatch):
    """(augmented stores, (store id, splits) of each FilterIndex) built from
    now on."""
    augmented, indexes = [], []
    store_init, index_init = TripleStore.__init__, FilterIndex.__init__

    def counting_store_init(self, *args, **kwargs):
        store_init(self, *args, **kwargs)
        if self.inverse_augmented:
            augmented.append(self)

    def counting_index_init(self, store, splits=SPLITS):
        indexes.append((id(store), tuple(splits)))
        index_init(self, store, splits)

    monkeypatch.setattr(TripleStore, "__init__", counting_store_init)
    monkeypatch.setattr(FilterIndex, "__init__", counting_index_init)
    return augmented, indexes


def test_study_builds_each_filter_index_at_most_once(monkeypatch):
    # trials, their validations and the final test ranking share one
    # augmented store and each store's indexes: at most one per (store,
    # splits) over the whole study
    store = toy_store()
    augmented, builds = count_builds(monkeypatch)
    space = tiny_space(approaches=("slcwa", "lcwa"), lcwa_losses=("bcel",),
                       samplers=("bernoulli",), inverse_choices=(False, True))
    result = random_search(space, store, budget=Budget(max_trials=6),
                           eval_frequency=1, patience=2, workers=1)
    drawn = {(r.config["approach"], r.config["inverse"]) for r in result.records}
    assert {inverse for _, inverse in drawn} == {False, True}
    assert {approach for approach, _ in drawn} == {"slcwa", "lcwa"}
    assert augmented == [add_inverse_relations(store)]
    assert len(builds) == len(set(builds))
    assert {splits for _, splits in builds} == {SPLITS, ("train",)}
    assert {store_id for store_id, _ in builds} <= {id(store), id(augmented[0])}


def test_study_without_inverse_relations_builds_no_augmented_store(monkeypatch):
    augmented, _ = count_builds(monkeypatch)
    result = random_search(tiny_space(inverse_choices=(False,)), toy_store(),
                           budget=Budget(max_trials=2), eval_frequency=1, patience=2)
    assert len(result.records) == 2
    assert augmented == []


def test_exhausted_study_budget_prevents_new_trials():
    store = toy_store()
    with pytest.raises(StudyError, match="no trial completed"):
        random_search(
            tiny_space(), store,
            budget=Budget(max_trials=2, max_seconds=1e-9),
            eval_frequency=1, patience=2,
        )


@pytest.mark.parametrize("workers", [1, 2])
def test_huge_trial_cap_stops_at_the_study_deadline(tmp_path, workers):
    # trial ids are drawn lazily, and no trial starts past the deadline
    store = TripleStore.from_directory(pathlib.Path(__file__).parent.parent / "data" / "nations")
    path = tmp_path / "trials.jsonl"
    t0 = time.monotonic()
    try:
        random_search(tiny_space(num_epochs=1), store,
                      budget=Budget(max_trials=10**30, max_seconds=0.05),
                      eval_frequency=1, patience=1, records_path=str(path),
                      workers=workers)
    except StudyError as e:  # the one trial may have been cut by the deadline
        assert "no trial completed" in str(e)
    assert time.monotonic() - t0 < 30
    assert 1 <= len(path.read_text().splitlines()) <= workers


def test_records_stream_and_resume(tmp_path):
    store = toy_store()
    records_path = tmp_path / "trials.jsonl"
    manifest_path = tmp_path / "manifest.json"
    kw = dict(master_seed=11, eval_frequency=1, patience=2,
              records_path=str(records_path), manifest_path=str(manifest_path))

    first = random_search(tiny_space(), store, budget=Budget(max_trials=4), **kw)
    lines = records_path.read_text().splitlines()
    assert len(lines) == 4
    assert [json.loads(s)["trial_id"] for s in lines] == [0, 1, 2, 3]
    manifest = json.loads(manifest_path.read_text())
    assert manifest["master_seed"] == 11
    assert manifest["space"] == tiny_space().to_dict()

    # simulate an interrupted study: drop the last two trials, resume it
    records_path.write_text("\n".join(lines[:2]) + "\n")
    second = random_search(tiny_space(), store, budget=Budget(max_trials=4), **kw)
    ids = [json.loads(s)["trial_id"] for s in records_path.read_text().splitlines()]
    assert ids == [0, 1, 2, 3]
    for old, new in zip(first.records[:2], second.records[:2]):
        assert old.metric == new.metric
        assert old.wall_seconds == new.wall_seconds  # loaded, not re-run
    assert [r.metric for r in second.records] == [r.metric for r in first.records]
    assert second.best.trial_id == first.best.trial_id
    assert second.test_metrics == first.test_metrics

    # a third run with nothing pending still reports a result (via retraining)
    third = random_search(tiny_space(), store, budget=Budget(max_trials=4), **kw)
    assert len(records_path.read_text().splitlines()) == 4
    assert third.retrained is True
    assert third.best.trial_id == first.best.trial_id
    assert third.test_metrics == first.test_metrics


def test_resume_reruns_budget_exhausted_trials(tmp_path):
    store = toy_store()
    records_path = tmp_path / "trials.jsonl"
    cfg = sample_config(tiny_space(), rng_for(3, "trial-0/config"))
    cut = TrialRecord(0, cfg, derive_seed(3, "trial-0/train"),
                      "budget-exhausted", 0.25, 1, 1, 0.5)
    records_path.write_text(json.dumps(cut.to_json()) + "\n")
    result = random_search(
        tiny_space(), store, budget=Budget(max_trials=1), master_seed=3,
        eval_frequency=1, patience=2, records_path=str(records_path),
    )
    assert result.records[0].status == "completed"
    lines = [json.loads(s) for s in records_path.read_text().splitlines()]
    assert len(lines) == 2  # append-only: the cut record stays, last wins
    assert lines[0]["status"] == "budget-exhausted"
    assert lines[1]["status"] == "completed"


def test_resume_refuses_a_record_its_trial_does_not_draw(tmp_path):
    # trial i's config and seed are pure functions of the space and master
    # seed, so a record holding others is a damaged file, not a trial to trust
    records_path = tmp_path / "trials.jsonl"
    cfg = sample_config(tiny_space(), rng_for(3, "trial-0/config"))
    seed = derive_seed(3, "trial-0/train")
    for config, record_seed in ((dict(cfg, model="transe"), seed), ({}, seed), (cfg, seed + 1)):
        record = TrialRecord(0, config, record_seed, "completed", 0.9, 1, 1, 0.5)
        records_path.write_text(json.dumps(record.to_json()) + "\n")
        with pytest.raises(DataError, match=f"{records_path}: trial 0: the config or seed"):
            random_search(tiny_space(), toy_store(), budget=Budget(max_trials=1),
                          master_seed=3, records_path=str(records_path))


def test_manifest_mismatch_refuses_resume(tmp_path):
    store = toy_store()
    kw = dict(eval_frequency=1, patience=2,
              records_path=str(tmp_path / "t.jsonl"),
              manifest_path=str(tmp_path / "m.json"))
    random_search(tiny_space(), store, budget=Budget(max_trials=1), master_seed=1, **kw)
    with pytest.raises(StudyError, match="different study"):
        random_search(tiny_space(), store, budget=Budget(max_trials=1),
                      master_seed=2, **kw)
    with pytest.raises(StudyError, match="different study"):
        random_search(tiny_space(), store, budget=Budget(max_trials=3),
                      master_seed=1, **kw)


def test_threaded_study_matches_sequential_results():
    store = toy_store()
    kw = dict(budget=Budget(max_trials=4), master_seed=6, eval_frequency=1, patience=2)
    seq = random_search(tiny_space(), store, workers=1, **kw)
    par = random_search(tiny_space(), store, workers=3, **kw)
    assert [r.metric for r in seq.records] == [r.metric for r in par.records]
    assert [r.status for r in seq.records] == [r.status for r in par.records]
    assert seq.best.trial_id == par.best.trial_id
    assert seq.test_metrics == par.test_metrics
    # the winner's params are reused whichever thread finished first
    assert seq.retrained is par.retrained is False

"""The synthetic graph: reproducible from its seed, with the planted structure."""

import numpy as np

import checks
import synthgraph
from kgembed.datasets import TripleStore, add_inverse_relations
from kgembed.evaluation import compute_ranks
from kgembed.losses import LossSpec
from kgembed.models import InteractionSpec, build_interaction, init_parameters
from kgembed.training import OptimizerSpec, TrainingConfig, train

SMALL = dict(E=600, C=4)
SIZES = synthgraph.split_sizes(SMALL["E"])


def test_split_sizes_keep_fb15k237_ratios():
    full = synthgraph.split_sizes(synthgraph.FB15K237["entities"])
    assert full == {k: synthgraph.FB15K237[k] for k in full}
    sizes = synthgraph.split_sizes(1000)
    assert sizes == {"relations": 16, "train": 18714, "valid": 1206, "test": 1407}


def test_same_seed_same_graph_other_seed_other_graph():
    a, b, c = (synthgraph.generate(s, **SMALL) for s in (3, 3, 4))
    for split in checks.SPLITS:
        assert np.array_equal(a.splits[split], b.splits[split])
        assert not np.array_equal(a.splits[split], c.splits[split])
    assert np.array_equal(a.cluster, b.cluster) and np.array_equal(a.target, b.target)


def test_planted_structure_holds_for_every_triple():
    g = synthgraph.generate(7, **SMALL)
    R = SIZES["relations"]
    r_ids = np.arange(R)[:, None]
    # every relation pairs the clusters up: the partner's partner is the cluster
    assert np.array_equal(g.target[r_ids, g.target], np.tile(np.arange(SMALL["C"]), (R, 1)))
    for rows in g.splits.values():
        h, r, t = rows.T
        assert np.array_equal(g.cluster[t], g.target[r, g.cluster[h]])
    train = g.splits["train"]
    assert np.array_equal(np.unique(train[:, 0]), np.arange(SMALL["E"]))
    keys = {s: set(map(tuple, g.splits[s].tolist())) for s in checks.SPLITS}
    for split in checks.SPLITS:
        assert len(keys[split]) == g.splits[split].shape[0] == SIZES[split]
    assert not keys["train"] & keys["valid"] and not keys["train"] & keys["test"]
    assert not keys["valid"] & keys["test"]


def test_files_load_with_every_entity_and_the_own_reader_agrees(tmp_path):
    g = synthgraph.generate(1, **SMALL)
    g.write_tsv(str(tmp_path))
    store = TripleStore.from_directory(str(tmp_path))
    own = checks.OwnGraph(str(tmp_path))
    assert store.num_entities == SMALL["E"] and store.num_relations == SIZES["relations"]
    checker = checks.Checker()
    checks.check_vocabulary(checker, "synthetic", own, store)
    assert checker.correct, checker.problems
    for split in checks.SPLITS:
        assert np.array_equal(store.triples[split], own.rows[split])


def test_a_trained_model_beats_chance(tmp_path):
    synthgraph.generate(2, **SMALL).write_tsv(str(tmp_path))
    store = add_inverse_relations(TripleStore.from_directory(str(tmp_path)))
    model = build_interaction(InteractionSpec(
        kind="distmult", num_entities=store.num_entities,
        num_relations=store.num_relations, d_e=32))
    config = TrainingConfig(approach="lcwa", loss=LossSpec("cel"),
                            optimizer=OptimizerSpec(lr=0.02), batch_size=256,
                            num_epochs=5, label_smoothing=0.1,
                            eval_frequency=5, patience=5)
    result = train(model, init_parameters(model, 0), store, config)
    ranks = compute_ranks(model, result.params, store, split="test", filtered=True)
    assert ranks.get("amr", side="tail") < 0.8
    assert ranks.get("amr") < 1.0

"""The benchmark's three workloads.

Each workload turns a seed into its inputs once (`prepare`), then runs
rounds: every round is the same sequence of jobs, each a closed loop of
calls into the library (a call starts when the previous one returns). A
round returns one Job per trained model with its set-up time, its filtered
realistic test hits@10 and AMR, and whatever the checks need. `check` then
compares the outputs of a round with computations made apart from the
library (see checks.py).
"""

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import checks
import synthgraph
# library calls go through the module attributes, so that the probe and the
# tracer, which replace those attributes, see them
from kgembed import cli, datasets, evaluation, models, sampling, training
from kgembed.losses import LossSpec

RANK_SAMPLE = 12          # test triples ranked by brute force per model
SCORE_SAMPLE = 2          # test triples whose 1-N rows are checked per model
NEGATIVE_BATCH = 256      # positives in the sampler check


@dataclass
class Job:
    name: str
    hits_at_10: float
    amr: float
    outputs: dict = field(default_factory=dict)
    setup_s: float = 0.0      # filled in by the round that ran the job


def _both(metrics, name):
    return metrics["both"]["realistic"][name]


class Workload:
    """Shared round bookkeeping; subclasses define prepare/jobs/check."""

    name = None

    def __init__(self, root, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.data = os.path.join(root, "data")
        self.tracer = None
        self.prepare()

    def prepare(self):
        raise NotImplementedError

    def jobs(self):
        """(name, callable returning a Job) for every job of a round, in order."""
        raise NotImplementedError

    def cleanup_round(self):
        """Remove what a round left on disk (called outside the timed region)."""

    def sample(self, n, size, stage):
        rng = sampling.rng_for(self.seed, stage)
        return np.sort(rng.choice(n, size=min(size, n), replace=False))

    def check_model(self, checker, name, model, params, own, rankings, use_inverse):
        """Rank bounds, brute-force ranks and 1-N rows of one trained model."""
        n_test = own.rows["test"].shape[0]
        sample = self.sample(n_test, RANK_SAMPLE, f"check/{name}")
        for ranking in rankings:
            checks.check_rank_bounds(checker, name, ranking)
            checks.check_ranks(checker, name, model, params, own, ranking, sample,
                               use_inverse)
        checks.check_scores_agree(checker, name, model, params,
                                  own.rows["test"][sample[:SCORE_SAMPLE]])


class KinshipsSLCWA(Workload):
    """Kinships with inverse relations, uniform sLCWA, one epoch per model."""

    name = "kinships-slcwa"
    EPOCHS = 1
    JOBS = (
        # kind, loss, batch size, negatives per positive, learning rate.
        # complex and rotate reach a plateau within the epoch, so their hits@10
        # moves little with the seed; hole/bcel swings with any setting
        ("complex", LossSpec("bcel"), 512, 4, 0.05),
        ("hole", LossSpec("bcel"), 256, 1, 0.02),
        ("rotate", LossSpec("nssal", margin=9.0, adversarial_temperature=1.0), 128, 4, 0.1),
    )

    def prepare(self):
        self.path = os.path.join(self.data, "kinships")
        self.own = checks.OwnGraph(self.path, inverse=True)

    def jobs(self):
        return [(job[0], lambda job=job: self._train(*job)) for job in self.JOBS]

    def _train(self, kind, loss, batch_size, negatives, lr):
        if self.tracer:
            self.tracer.known_train = self.own
        store = datasets.add_inverse_relations(datasets.TripleStore.from_directory(self.path))
        model = models.build_interaction(models.InteractionSpec(
            kind=kind, num_entities=store.num_entities,
            num_relations=store.num_relations, d_e=64))
        params = models.init_parameters(model, sampling.derive_seed(self.seed, f"init/{kind}"))
        config = training.TrainingConfig(
            approach="slcwa", loss=loss, optimizer=training.OptimizerSpec(kind="adam", lr=lr),
            batch_size=batch_size, num_epochs=self.EPOCHS, num_negatives=negatives,
            sampler="uniform", seed=sampling.derive_seed(self.seed, f"train/{kind}"),
            eval_frequency=self.EPOCHS, patience=self.EPOCHS)
        result = training.train(model, params, store, config)
        rankings = [evaluation.compute_ranks(model, result.params, store, split="test",
                                             filtered=flag) for flag in (True, False)]
        return Job(kind, rankings[0].get(), rankings[0].get("amr"),
                   {"model": model, "params": result.params, "store": store,
                    "rankings": rankings})

    def check(self, checker, jobs):
        for job in jobs:
            o = job.outputs
            checks.check_vocabulary(checker, job.name, self.own, o["store"])
            self.check_model(checker, job.name, o["model"], o["params"], self.own,
                             o["rankings"], use_inverse=True)
            checks.check_amr(checker, job.name, [job.amr])
        store = jobs[0].outputs["store"]
        positives = store.triples["train"][self.sample(store.num_triples("train"),
                                                       NEGATIVE_BATCH, "check/positives")]
        negatives = sampling.NegativeSampler(store, kind="uniform").corrupt(
            sampling.rng_for(self.seed, "check/sampler"), positives, 4)
        checks.check_negatives(checker, "uniform sampler", self.own, positives, negatives)


class SyntheticLCWA(Workload):
    """Generated graph, distmult/cel LCWA with label smoothing and validation."""

    name = "synthetic-lcwa"
    EPOCHS = 3

    def prepare(self):
        self.path = os.path.join(self.workdir, "synthetic")
        synthgraph.generate(self.seed).write_tsv(self.path)
        self.own = checks.OwnGraph(self.path, inverse=True)

    def jobs(self):
        return [("distmult", self._train)]

    def _train(self):
        store = datasets.add_inverse_relations(datasets.TripleStore.from_directory(self.path))
        model = models.build_interaction(models.InteractionSpec(
            kind="distmult", num_entities=store.num_entities,
            num_relations=store.num_relations, d_e=64))
        params = models.init_parameters(model, sampling.derive_seed(self.seed, "init/distmult"))
        config = training.TrainingConfig(
            approach="lcwa", loss=LossSpec("cel"),
            optimizer=training.OptimizerSpec(kind="adam", lr=0.02), batch_size=256,
            num_epochs=self.EPOCHS, label_smoothing=0.1,
            seed=sampling.derive_seed(self.seed, "train/distmult"),
            eval_frequency=1, patience=self.EPOCHS)
        result = training.train(model, params, store, config,
                                evaluate_fn=evaluation.make_validation_callback(model, store))
        rankings = [evaluation.compute_ranks(model, result.params, store, split="test",
                                             filtered=flag) for flag in (True, False)]
        return Job("distmult", rankings[0].get(), rankings[0].get("amr"),
                   {"model": model, "params": result.params, "store": store,
                    "rankings": rankings})

    def check(self, checker, jobs):
        o = jobs[0].outputs
        checks.check_vocabulary(checker, "synthetic", self.own, o["store"])
        self.check_model(checker, "distmult", o["model"], o["params"], self.own,
                         o["rankings"], use_inverse=True)
        checks.check_amr(checker, "distmult", [jobs[0].amr])
        task = sampling.LCWATask(o["store"])
        checks.check_label_rows(checker, "synthetic", task, self.own,
                                self.sample(len(task), 64, "check/labels"))


class NationsZoo(Workload):
    """All nineteen interactions through `kgembed train`, then `kgembed hpo`."""

    name = "nations-zoo"
    RUNS = (
        # kind, approach, loss: every loss kind appears at least once
        ("um", "slcwa", "mrl"),
        ("se", "slcwa", "pairwise_logistic"),
        ("transe", "slcwa", "nssal"),
        ("transh", "slcwa", "mrl"),
        ("transr", "slcwa", "nssal"),
        ("transd", "slcwa", "pairwise_logistic"),
        ("rescal", "lcwa", "cel"),
        ("distmult", "lcwa", "bcel"),
        ("complex", "slcwa", "bcel"),
        ("rotate", "slcwa", "nssal"),
        ("simple", "lcwa", "spl"),
        ("tucker", "lcwa", "cel"),
        ("proje", "lcwa", "bcel"),
        ("hole", "slcwa", "spl"),
        ("kg2e", "slcwa", "mrl"),
        ("ermlp", "slcwa", "square_error"),
        ("ntn", "lcwa", "square_error"),
        ("convkb", "slcwa", "pointwise_hinge"),
        ("conve", "lcwa", "cel"),
    )
    MARGINS = {"mrl": 1.0, "nssal": 6.0}
    EPOCHS = 4
    LEARNING_RATE = 0.05
    NEGATIVES = 2

    def prepare(self):
        self.path = os.path.join(self.data, "nations")
        self.own = checks.OwnGraph(self.path)
        self.out = os.path.join(self.workdir, "nations")
        dataset = {s: os.path.join(self.path, f"{s}.txt") for s in checks.SPLITS}
        self.configs = []
        for kind, approach, loss in self.RUNS:
            train_doc = {
                "approach": approach,
                "loss": {"kind": loss, "margin": self.MARGINS.get(loss, 1.0)},
                "optimizer": {"kind": "adam", "learning_rate": self.LEARNING_RATE},
                "num_epochs": self.EPOCHS,
            }
            if approach == "slcwa":
                train_doc.update(batch_size=256, num_negatives=self.NEGATIVES,
                                 sampler="bernoulli", filtered_sampling=True)
            else:
                train_doc.update(batch_size=128, label_smoothing=0.05)
            doc = {
                "dataset": dataset,
                "model": {"kind": kind, "d_e": 16},
                "training": train_doc,
                "early_stopping": {"frequency": self.EPOCHS // 2, "patience": self.EPOCHS},
                "inverse_relations": False,
                "seed": sampling.derive_seed(self.seed, f"run/{kind}") % 2**31,
                "output_dir": os.path.join(self.out, kind),
            }
            self.configs.append((kind, self._write(f"{kind}.json", doc), doc["output_dir"]))
        self.study_dir = os.path.join(self.out, "hpo")
        self.study = self._write("study.json", {
            "dataset": dataset,
            "output_dir": self.study_dir,
            # the seed draws learning rates and losses; model, sizes and epochs
            # are fixed so that every seed's study costs about the same
            "space": {
                "models": ["complex"],
                "approaches": ["slcwa"],
                "embedding_dims": [16],
                "optimizers": ["adam"],
                "learning_rate_range": [0.01, 0.1],
                "batch_sizes": [256],
                "inverse_choices": [False],
                "num_epochs": 4,
                "negatives_range": [2, 2],
                "samplers": ["bernoulli"],
            },
            "budget": {"max_trials": 3},
            "seed": sampling.derive_seed(self.seed, "study") % 2**31,
            "eval_frequency": 2,
            "patience": 4,
            "workers": 1,
        })

    def _write(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
        return path

    def _cli(self, *argv):
        """`kgembed <argv>` in this process; a non-zero exit is a failed call."""
        if self.tracer:
            self.tracer.known_train = self.own
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"kgembed {' '.join(argv)} exited with {code}: "
                               f"{printed.getvalue()}")

    def jobs(self):
        return [(kind, lambda k=kind, c=config, d=out_dir: self._run(k, c, d))
                for kind, config, out_dir in self.configs] + [("hpo", self._study)]

    def _run(self, kind, config, out_dir):
        self._cli("train", config)
        with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as f:
            result = json.load(f)
        metrics = result["metrics"]["filtered"]
        return Job(kind, _both(metrics, "hits_at_10"), _both(metrics, "amr"),
                   {"metrics": result["metrics"],
                    "checkpoint": os.path.join(out_dir, "checkpoint.kge")})

    def _study(self):
        self._cli("hpo", self.study)
        with open(os.path.join(self.study_dir, "best.json"), encoding="utf-8") as f:
            best = json.load(f)
        metrics = best["test_metrics"]["filtered"]
        return Job("hpo", _both(metrics, "hits_at_10"), _both(metrics, "amr"),
                   {"metrics": best["test_metrics"],
                    "checkpoint": os.path.join(self.study_dir, "best_checkpoint.kge")})

    def cleanup_round(self):
        # a study resumes from its trials.jsonl, so every round starts clean
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self, checker, jobs):
        store = datasets.TripleStore.from_directory(self.path)
        checks.check_vocabulary(checker, "nations", self.own, store)
        for job in jobs:
            spec, params, _ = models.load_checkpoint(job.outputs["checkpoint"])
            model = models.build_interaction(spec)
            rankings = [evaluation.compute_ranks(model, params, store, split="test",
                                                 filtered=flag) for flag in (True, False)]
            recomputed = json.loads(json.dumps(
                {"filtered": rankings[0].metrics(), "unfiltered": rankings[1].metrics()}))
            checks.check_same_metrics(checker, job.name, job.outputs["metrics"], recomputed)
            self.check_model(checker, job.name, model, params, self.own, rankings,
                             use_inverse=False)
        # a few epochs leave single Nations models near chance (UM ignores the
        # relation altogether), so the zoo is held to chance on average
        checks.check_amr(checker, "nations-zoo mean", [job.amr for job in jobs])
        positives = store.triples["train"][self.sample(store.num_triples("train"),
                                                       NEGATIVE_BATCH, "check/positives")]
        sampler = sampling.NegativeSampler(
            store, kind="bernoulli", filtered=True,
            filter_index=datasets.FilterIndex(store, splits=("train",)))
        negatives = sampler.corrupt(sampling.rng_for(self.seed, "check/sampler"), positives, 4)
        checker.counts["checks.excused_negatives"] = checks.check_negatives(
            checker, "filtered bernoulli sampler", self.own, positives, negatives,
            max_redraws=sampling.NegativeSampler.MAX_REDRAWS)


WORKLOADS = {w.name: w for w in (KinshipsSLCWA, SyntheticLCWA, NationsZoo)}


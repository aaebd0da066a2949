"""Command-line entry point.

Subcommands:

    train     one training run from a JSON config document
    evaluate  rank a dataset split against a saved checkpoint
    hpo       random-search study from a JSON study document
    report    comparison tables over result.json files

Exit codes: 0 on success, 2 for configuration problems, 3 for data problems
(missing or malformed files, vocabulary mismatches), 4 when training
diverges or a study produces no completed trial. The only environment
overrides are KGEMBED_OUTPUT_DIR (replaces every output directory) and
KGEMBED_THREADS (HPO trial workers). On glibc, training and ranking tune the
process's malloc once (autodiff.keep_heap); any MALLOC_* variable, or a
glibc.malloc tunable in GLIBC_TUNABLES, wins over that tuning.
"""

import argparse
import json
import logging
import os
import sys

from .datasets import SPLITS, add_inverse_relations
from .evaluation import RANK_DEFINITIONS, compute_ranks
from .hpo import StudyError, random_search
from .models import InteractionSpec, build_interaction, load_checkpoint, save_checkpoint
from .pipeline import (ConfigError, DataError, execute_run, load_config,
                       load_store, load_study, vocab_sha256)
from .reporting import (HPO_SUMMARY_HEADER, RUN_REPORT_HEADER, best_per_model,
                        load_run_result, render_csv, render_markdown,
                        write_report)
from .training import DivergenceError

log = logging.getLogger(__name__)

_EVAL_HEADER = ["split", "filtered", "side", "rank_definition", "mr", "mrr",
                "amr", "hits_at_1", "hits_at_3", "hits_at_5", "hits_at_10",
                "count"]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args):
    cfg, raw = load_config(args.config)
    result = execute_run(cfg, config_bytes=raw, output_dir=args.output_dir)
    both = result["metrics"]["filtered"]["both"]["realistic"]
    print(f"model {cfg['model']['kind']}  loss {cfg['training']['loss']['kind']}  "
          f"approach {cfg['training']['approach']}  "
          f"inverse {'yes' if cfg['inverse_relations'] else 'no'}")
    print(f"trained {result['training']['epochs_run']} epochs "
          f"(best epoch {result['training']['best_epoch']}, "
          f"stopped: {result['training']['stopped']})")
    print(f"test filtered realistic: hits@10 {both['hits_at_10']:.4f}  "
          f"mrr {both['mrr']:.4f}  mr {both['mr']:.2f}  amr {both['amr']:.4f}")
    print(f"artifacts in {os.path.dirname(result['paths']['checkpoint'])}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _eval_files(args):
    """The evaluate command's dataset section: split -> file."""
    if args.data:
        return {split: os.path.join(args.data, f"{split}.txt") for split in SPLITS}
    if not (args.train and args.valid and args.test):
        raise ConfigError(["evaluate: pass --data DIR or all of --train/--valid/--test"])
    return {"train": args.train, "valid": args.valid, "test": args.test}


def cmd_evaluate(args):
    if args.batch_size is not None and args.batch_size < 1:
        raise ConfigError([f"evaluate: --batch-size must be >= 1, got {args.batch_size}"])
    try:
        spec, params, extra = load_checkpoint(args.checkpoint)
    except (OSError, ValueError, KeyError) as e:
        raise DataError(f"cannot load checkpoint {args.checkpoint}: {e}")
    # an empty split would rank nothing and report NaN metrics
    store = load_store(_eval_files(args), splits=(args.split,))

    if spec.num_entities != store.num_entities:
        raise DataError(
            f"vocabulary mismatch: checkpoint has {spec.num_entities} entities, "
            f"dataset has {store.num_entities}")
    if spec.num_relations == store.num_relations:
        pass
    elif spec.num_relations == 2 * store.num_relations:
        store = add_inverse_relations(store)
    else:
        raise DataError(
            f"vocabulary mismatch: checkpoint has {spec.num_relations} relations, "
            f"dataset has {store.num_relations} "
            f"({2 * store.num_relations} with inverses)")
    want = extra.get("vocab_sha256")
    if want and want != vocab_sha256(store):
        log.warning("vocabulary digest differs from the one stored at training "
                    "time; entity ids may not line up")

    model = build_interaction(spec)
    result = compute_ranks(model, params, store, split=args.split,
                           filtered=args.filtered, batch_size=args.batch_size)
    definitions = RANK_DEFINITIONS if args.rank == "all" else (args.rank,)
    rows = result.csv_rows(definitions=definitions, sides=(args.side,))
    print(render_markdown(rows, _EVAL_HEADER), end="")
    if args.output:
        result.save_json(args.output)
        print(f"full report written to {args.output}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write(render_csv(rows, _EVAL_HEADER))
        print(f"rows written to {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# hpo
# ---------------------------------------------------------------------------

def _env_workers(default):
    """Study workers, overridden by a positive integer in KGEMBED_THREADS."""
    raw = os.environ.get("KGEMBED_THREADS")
    if raw is None:
        return default
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError([f"KGEMBED_THREADS: expected a positive integer, got {raw!r}"])
    return workers


def cmd_hpo(args):
    study = load_study(args.study)
    workers = _env_workers(study["workers"])
    out_dir = os.environ.get("KGEMBED_OUTPUT_DIR") or study["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    result = random_search(
        study["space"], load_store(study["dataset"], SPLITS),
        budget=study["budget"],
        master_seed=study["seed"],
        metric=study["metric"],
        eval_frequency=study["eval_frequency"],
        patience=study["patience"],
        records_path=os.path.join(out_dir, "trials.jsonl"),
        manifest_path=os.path.join(out_dir, "manifest.json"),
        workers=workers,
    )

    ckpt_path = os.path.join(out_dir, "best_checkpoint.kge")
    save_checkpoint(ckpt_path, InteractionSpec.from_dict(result.best_spec),
                    result.best_params,
                    extra={"vocab_sha256": vocab_sha256(result.best_store),
                           "seed": result.best.seed})
    best_doc = {
        "best_trial": result.best.to_json(),
        "test_metrics": result.test_metrics,
        "retrained": result.retrained,
        "wall_seconds": round(result.wall_seconds, 3),
        "checkpoint": os.path.abspath(ckpt_path),
    }
    with open(os.path.join(out_dir, "best.json"), "w", encoding="utf-8") as f:
        json.dump(best_doc, f, indent=2)
        f.write("\n")
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as f:
        f.write(render_csv(best_per_model(result.records), HPO_SUMMARY_HEADER))

    statuses = [r.status for r in result.records]
    both = result.test_metrics["filtered"]["both"]["realistic"]
    print(f"{len(result.records)} trials "
          f"({statuses.count('completed')} completed, "
          f"{statuses.count('failed')} failed, "
          f"{statuses.count('budget-exhausted')} budget-exhausted) "
          f"in {result.wall_seconds:.0f}s")
    cfg = result.best.config
    print(f"best trial {result.best.trial_id}: {cfg['model']}/{cfg['loss']}/"
          f"{cfg['approach']}{'/inv' if cfg['inverse'] else ''} "
          f"dim {cfg['embedding_dim']}  validation {study['metric']} "
          f"{result.best.metric:.4f}")
    print(f"test filtered realistic: hits@10 {both['hits_at_10']:.4f}  "
          f"mrr {both['mrr']:.4f}")
    print(f"artifacts in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args):
    results = []
    for path in args.results:
        if not os.path.isfile(path):
            raise DataError(f"no such result file: {path}")
        try:
            results.append(load_run_result(path))
        except (ValueError, KeyError) as e:
            raise DataError(f"{path}: not a result document: {e}")
    out_dir = os.environ.get("KGEMBED_OUTPUT_DIR") or args.output_dir
    formats = ("csv", "markdown") if args.format == "both" else (args.format,)
    written, rows, notes = write_report(results, out_dir, formats=formats,
                                        svg=args.svg)
    print(render_markdown(rows, RUN_REPORT_HEADER, notes), end="")
    for kind, path in written.items():
        print(f"{kind} written to {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="kgembed",
        description="Knowledge graph embedding: train, evaluate, search, report.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training configuration")
    p.add_argument("config", help="path to a run config JSON document")
    p.add_argument("--output-dir", default=None,
                   help="override the config's output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rank a split against a checkpoint")
    p.add_argument("checkpoint", help="path to a .kge checkpoint")
    p.add_argument("--data", default=None,
                   help="dataset directory containing train.txt/valid.txt/test.txt")
    p.add_argument("--train", default=None)
    p.add_argument("--valid", default=None)
    p.add_argument("--test", default=None)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    filt = p.add_mutually_exclusive_group()
    filt.add_argument("--filtered", dest="filtered", action="store_true",
                      default=True, help="remove known true candidates (default)")
    filt.add_argument("--unfiltered", dest="filtered", action="store_false",
                      help="keep all candidates")
    p.add_argument("--rank", choices=RANK_DEFINITIONS + ("all",),
                   default="realistic")
    p.add_argument("--side", choices=("head", "tail", "both"), default="both")
    p.add_argument("--batch-size", type=int, default=None,
                   help="triples scored at once (default: sized to about 4 MiB per chunk)")
    p.add_argument("--output", default=None, help="write the full report JSON here")
    p.add_argument("--csv", default=None, help="write the printed rows as CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hpo", help="random-search study")
    p.add_argument("study", help="path to a study config JSON document")
    p.set_defaults(func=cmd_hpo)

    p = sub.add_parser("report", help="comparison tables over run results")
    p.add_argument("results", nargs="+", help="result.json paths")
    p.add_argument("--output-dir", default=".")
    p.add_argument("--format", choices=("csv", "markdown", "both"), default="both")
    p.add_argument("--svg", action="store_true",
                   help="also draw a hits@10 bar chart")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as e:
        for problem in e.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (DivergenceError, StudyError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

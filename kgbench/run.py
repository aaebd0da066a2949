"""Benchmark entry point: one workload, one fresh process, one JSON line.

    python3 kgbench/run.py --workload kinships-slcwa --seed 1 --seconds 20 --trace 0

The process imports kgembed from the checkout's src/ with BLAS and OpenMP
pinned to one thread. It prepares the workload's inputs from the seed, then
runs whole rounds of the workload until the rounds have taken --seconds in
total, and checks the outputs of the first round (and that every round
repeats its hits@10). The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds);
with --trace 1 untraced and traced rounds alternate and the metrics are the
per-layer ones plus the tracing overhead. Progress and problems go to
standard error.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the run-document overrides would redirect artifacts or add HPO workers
for _var in ("KGEMBED_OUTPUT_DIR", "KGEMBED_THREADS"):
    os.environ.pop(_var, None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import kgembed  # noqa: E402

import checks  # noqa: E402
import instrument  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("train_s", "s"), ("eval_s", "s"), ("wall_s", "s"),
              ("peak_rss_mb", "MB"), ("hits_at_10", "fraction"))


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_round(workload, modules, traced):
    """One timed round; returns its record (timings, jobs, failures)."""
    probe = instrument.Probe(modules)
    tracer = instrument.Tracer(modules) if traced else None
    workload.tracer = tracer
    probe.install()
    if tracer:
        tracer.install()
    jobs, failed = [], 0
    t0 = time.perf_counter()
    for name, body in workload.jobs():
        start = time.perf_counter()
        try:
            job = body()
            # set-up is the span from the job's start to its first epoch
            job.setup_s = probe.first_epoch_after(start) - start
            jobs.append(job)
        except Exception as e:  # a failed job is counted, the round goes on
            failed += 1
            log(f"{workload.name}: job {name} failed: {type(e).__name__}: {e}")
    wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    probe.uninstall()
    workload.tracer = None
    record = probe.totals()
    record.update(
        wall_s=wall, traced=traced, jobs=jobs, failed=failed,
        setup_s=sum(job.setup_s for job in jobs),
        hits=[job.hits_at_10 for job in jobs],
        layers=tracer.layer_metrics() if tracer else None,
    )
    return record


def median(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(rounds, peak_rss_mb):
    metrics = {name: median(rounds, name) for name in ("setup_s", "train_s", "eval_s",
                                                        "wall_s")}
    hits = rounds[0]["hits"]
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["hits_at_10"] = sum(hits) / len(hits) if hits else 0.0
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(untraced, traced, counts):
    metrics = {"checks.excused_negatives": 0}
    metrics.update(counts)
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(r["layers"][name] for r in traced)
    for name in ("training.minflt", "training.sys_s", "evaluation.minflt"):
        metrics[name] = median(untraced, name)
    for kind in instrument.KINDS:
        times = [r["epoch_s"][kind] for r in untraced if kind in r["epoch_s"]]
        metrics[f"training.epoch_s.{kind}"] = statistics.median(times) if times else 0.0
    metrics["trace.overhead_s"] = median(traced, "wall_s") - median(untraced, "wall_s")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in instrument.PER_LAYER_METRICS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.ERROR)

    src = os.path.join(ROOT, "src", "kgembed")
    if os.path.dirname(os.path.abspath(kgembed.__file__)) != src:
        raise SystemExit(f"kgembed was imported from {kgembed.__file__}, not {src}")

    work_root = os.path.join(ROOT, ".kgbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        modules = instrument.library_modules()
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        checker = checks.Checker()
        rounds = []
        measured = 0.0
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            record = run_round(workload, modules, traced)
            rounds.append(record)
            measured += record["wall_s"]
            log(
                f"{args.workload} round {len(rounds)}{' traced' if traced else ''}: "
                f"wall {record['wall_s']:.3f}s setup {record['setup_s']:.3f}s "
                f"train {record['train_s']:.3f}s eval {record['eval_s']:.3f}s "
                f"hits@10 {record['hits']}")
            if len(rounds) == 1 and not record["failed"]:
                workload.check(checker, record["jobs"])
            workload.cleanup_round()
            record["jobs"] = None
            if measured >= args.seconds and (not args.trace or len(rounds) >= 2):
                break
        checks.check_rounds_repeat(checker, args.workload, [r["hits"] for r in rounds])
        for problem in checker.problems:
            log(f"problem: {problem}")
        for name, count in checker.counts.items():
            log(f"{name}: {count}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced = [r for r in rounds if not r["traced"]]
        traced = [r for r in rounds if r["traced"]]
        metrics = per_layer(untraced, traced, checker.counts) if args.trace else \
            end_to_end(untraced, peak_rss_mb)
        result = {
            "correct": checker.correct,
            "attempted": len(workload.jobs()) * len(rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-repro --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; ``graphmgs`` is imported from its ``src/``.
A run first replays the workload at a tiny size and checks the outputs against
``reference.json``.  It then sets up the corpus and encoders five times
(``setup_s`` is the median), and repeats the measured pass until ``--seconds``
have passed and at least two passes ran; each time metric is the median over
passes, scaled to a reference machine speed (``calibration.py``).
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the first traced pass instead.  The last line of standard output
is one JSON object; a record of the run, with its environment, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

MIN_PASSES = 2
SETUPS = 5
PASS_DEADLINE_S = 140.0  # start no pass that would end after this, so a run ends within 180 s
RESULTS = os.path.join(HERE, "results")

END_TO_END = {"setup_s": "s", "wall_s": "s", "fingerprint_s": "s", "mgs_eval_s": "s",
              "peak_rss_mb": "MB"}
# stage and quality figures that not every workload produces; reported with the
# per-layer metrics, 0 where the workload has no such stage
PIPELINE = {"pretrain_s": "s", "finetune_s": "s", "holdout_mgs": "1", "corpus_mgs": "1",
            "test_auc": "1", "failed_ops_frac": "ratio"}


def _load_graphmgs():
    """Import graphmgs from this checkout's src/, never from anywhere else."""
    import graphmgs

    where = os.path.dirname(os.path.abspath(graphmgs.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"graphmgs was imported from {where}, not from {SRC}")


def environment(w, seed: int) -> dict:
    import numpy as np
    from graphmgs import config

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": w.name,
        "params_hash": config.stable_hash(w.params()),
    }


def run_workload(w, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Measure ``w`` and return the run record; ``size`` (a function of the
    workload) shrinks the measured workload, as the smoke test does."""
    import checks
    import tracer as tr
    from calibration import Meter
    from workloads import STAGES, Ops, run_pass, set_up, tiny

    measured = size(w) if size else w
    ops = Ops()
    problems = []

    small = tiny(w)
    check = run_pass(small, checks.CHECK_SEED, set_up(small, checks.CHECK_SEED), ops)
    if check.ok:
        got = checks.digest(check.outputs)
        mismatches = checks.compare(w.name, got, checks.load_reference())
        ops.add(len(got), len(mismatches), "; ".join(mismatches))
        problems += mismatches
    else:
        problems.append("check pass raised: " + "; ".join(ops.errors))

    meter = Meter()
    setup = meter.measure("setup 0", lambda: set_up(measured, seed))
    for i in range(1, SETUPS):
        meter.measure(f"setup {i}", lambda: set_up(measured, seed))
    setup_times = list(meter.scaled.values())

    tracer = None
    if trace:
        tracer = tr.Tracer()
        tr.instrument(tracer)
        try:
            set_up(measured, seed)
        finally:
            tracer.unpatch()

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        last = (plain or traced or [None])[-1]
        pass_s = last.raw_times["wall_s"] if last else 0.0
        if len(plain) + len(traced) >= MIN_PASSES and elapsed + pass_s > seconds:
            break
        if elapsed + pass_s > PASS_DEADLINE_S:
            break
        if trace and len(plain) > len(traced):
            # per-layer metrics come from the first traced pass; later ones
            # only time the overhead
            pass_tracer = tr.Tracer() if traced else tracer
            tr.instrument(pass_tracer)
            try:
                result = run_pass(measured, seed, setup, ops)
            finally:
                pass_tracer.unpatch()
            traced.append(result)
        else:
            plain.append(result := run_pass(measured, seed, setup, ops))
        if not result.ok:
            problems.append("a measured pass raised: " + "; ".join(ops.errors))
            break

    passes = plain + traced
    first = passes[0].outputs
    problems += checks.sanity(first, len(setup.corpus))
    reference = checks.digest(first)
    for p in passes[1:]:
        same = p.ok and checks.digest(p.outputs) == reference
        ops.add(1, 0 if same else 1)
        if not same:
            problems.append("outputs differ between passes of the same seed")
            break

    ok = [p for p in plain if p.ok]
    if not ok:
        raise RuntimeError("no measured pass completed: " + "; ".join(problems))

    def median(metric, of=ok):
        values = [p.times[metric] for p in of if metric in p.times]
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": median("wall_s"),
        "fingerprint_s": median("fingerprint_s"),
        "mgs_eval_s": median("mgs_eval_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    pipeline = {stage: median(stage) for stage in STAGES if stage not in metrics}
    pipeline.update({key: float(first.get(key, 0.0))
                     for key in ("holdout_mgs", "corpus_mgs", "test_auc")})
    pipeline["failed_ops_frac"] = ops.failed / max(ops.attempted, 1)

    layers = {}
    if trace:
        layers = tr.layer_metrics(tracer)
        layers["trace.overhead_s"] = (median("wall_s", [p for p in traced if p.ok])
                                      - metrics["wall_s"])
        layers.update(pipeline)

    return {
        "environment": environment(w, seed),
        "correct": not problems,
        "problems": problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "passes": {kind: [{"scaled": p.times, "raw": p.raw_times} for p in runs]
                   for kind, runs in (("plain", plain), ("traced", traced))},
        "setup_times": {"scaled": setup_times, "raw": list(meter.raw.values())},
        "end_to_end": metrics,
        "pipeline": pipeline,
        "per_layer": layers,
        "tracer": tracer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _load_graphmgs()
    except ImportError as exc:
        print(f"cannot import graphmgs from {SRC}: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # skipped batches are counted, not printed
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    tracer = record.pop("tracer")
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.csv")

    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for problem in record["problems"]:
        print("check failed: " + problem)
    shown = dict(record["end_to_end"], **record["pipeline"])
    units = dict(END_TO_END, **PIPELINE)
    for name, value in shown.items():
        print(f"{name:>16} {value:.6g} {units[name]}")

    print(json.dumps(result_line(record, args.trace)))
    return 0


def result_line(record: dict, trace: int) -> dict:
    """The last line of a run: the end-to-end metrics, or with ``trace`` the
    per-layer ones, each with its unit."""
    if trace:
        values = record["per_layer"]
        units = {k: PIPELINE.get(k) or layer_unit(k) for k in values}
    else:
        values, units = record["end_to_end"], END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
    }


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "overhead_s": "s", "p50_us": "us", "p95_us": "us",
            "computed_bytes": "B"}.get(stat, "count")


if __name__ == "__main__":
    sys.exit(main())

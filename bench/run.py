"""Run one mtboost benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload train_wide --seed 1 --seconds 24 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, and
the spans are written to ``.bench_out/trace-<workload>-<seed>.json``. See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_SETUPS = 3  # timed set-ups per run
MIN_TIMED = 3  # timed operations per run, untraced and (in a traced run) traced
OPS_PER_SETUP = 2  # operations between two set-ups
LOOP_LIMIT_S = 120  # stop even if operations keep failing

# Layer metric -> (span names, field of Tracer.totals, unit).
LAYER_SUMS = {
    "data.load_csv_s": (["data.load_csv"], "s", "s"),
    "data.read_feature_matrix_s": (["data.read_feature_matrix"], "s", "s"),
    "data.write_csv_s": (["data.write_csv"], "s", "s"),
    "data.cells_parsed": (["data.load_csv", "data.read_feature_matrix"], "work", "count"),
    "data.bin_column_s": (["data.bin_column"], "s", "s"),
    "objectives.grad_hess_s": (["objectives.grad_hess"], "s", "s"),
    "objectives.loss_s": (["objectives.loss"], "s", "s"),
    "objectives.loss_calls": (["objectives.loss"], "calls", "count"),
    "gradients.ensemble_s": (["gradients.ensemble"], "s", "s"),
    "gradients.updating_s": (["gradients.updating"], "s", "s"),
    "tree.grow_tree_s": (["tree.grow_tree"], "s", "s"),
    "tree.grow_self_s": (["tree.grow_tree"], "self_s", "s"),
    "tree.build_histograms_s": (["tree.build_histograms"], "s", "s"),
    "tree.build_histograms_calls": (["tree.build_histograms"], "calls", "count"),
    "tree.hist_rows": (["tree.build_histograms"], "work", "count"),
    "tree.find_best_split_s": (["tree.find_best_split"], "s", "s"),
    "tree.find_best_split_calls": (["tree.find_best_split"], "calls", "count"),
    "tree.fit_leaf_values_s": (["tree.fit_leaf_values"], "s", "s"),
    "tree.route_binned_s": (["tree.route_binned"], "s", "s"),
    "tree.routed_rows": (["tree.route_binned"], "work", "count"),
    "tree.leaves": (["tree.grow_tree"], "work", "count"),
    "booster.train_self_s": (["booster.train"], "self_s", "s"),
    "booster.predict_self_s": (["booster.predict"], "self_s", "s"),
    "booster.save_model_s": (["booster.save_model"], "s", "s"),
    "booster.load_model_s": (["booster.load_model"], "s", "s"),
    "booster.model_bytes": (["booster.save_model"], "work", "bytes"),
    "cli.synth_s": (["cli.synth"], "s", "s"),
    "cli.train_s": (["cli.train"], "s", "s"),
    "cli.predict_s": (["cli.predict"], "s", "s"),
    "cli.eval_s": (["cli.eval"], "s", "s"),
    "cli.self_s": (
        ["cli.main", "cli.synth", "cli.train", "cli.predict", "cli.eval"], "self_s", "s"),
}
# Binning is set-up work for library training: these add set-up and operation.
SETUP_LAYERS = {
    "data.fit_bins_s": (["data.fit_bins"], "s", "s"),
    "data.apply_bins_s": (["data.apply_bins"], "s", "s"),
}


def import_program():
    """Import mtboost from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mtboost
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import mtboost from {src}: {exc}") from None
    if Path(mtboost.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bench: mtboost was imported from {mtboost.__file__}, not {src}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def layer_metrics(tracer) -> dict:
    """Median over operations (and set-ups, for binning) of each layer's total."""
    setups = [tracer.totals(root) for root in tracer.roots("setup")]
    ops = [tracer.totals(root) for root in tracer.roots("op")]

    def median_of(phases, spans, field):
        return _median([sum(t.get(name, {}).get(field, 0) for name in spans) for t in phases])

    metrics = {}
    for name, (spans, field, unit) in LAYER_SUMS.items():
        metrics[name] = {"value": median_of(ops, spans, field), "unit": unit}
    for name, (spans, field, unit) in SETUP_LAYERS.items():
        value = median_of(setups, spans, field) + median_of(ops, spans, field)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run(workload, seed: int, seconds: float, tracer) -> dict:
    workdir = OUT_DIR / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(workload, seed, seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _phase(tracer, name: str, traced: bool):
    return tracer.phase(name) if traced else nullcontext()


def _measure(workload, seed, seconds, tracer, workdir) -> dict:
    tracing = tracer is not None
    # The inputs are rebuilt before every OPS_PER_SETUP-th operation, so the
    # set-ups are spread over the whole run like the operations: a median of
    # set-ups taken only at the start would see a few seconds of a machine
    # whose speed drifts over minutes. Operation 0 warms the allocator and is
    # checked but not timed. After it, a traced run alternates traced and
    # untraced operations; the gap between their medians is the tracing
    # overhead.
    setup_times = []
    times = {False: [], True: []}
    losses = []
    attempted = failed = 0
    problems_seen = []
    state = result = None
    first = None  # fingerprint of operation 0's output, kept across set-ups
    begin = perf_counter()
    while True:
        spent = perf_counter() - begin
        enough = (len(setup_times) >= MIN_SETUPS and len(times[False]) >= MIN_TIMED
                  and len(times[True]) >= MIN_TIMED * tracing)
        if spent >= LOOP_LIMIT_S or (enough and spent >= seconds):
            break
        if attempted % OPS_PER_SETUP == 0:
            if state is not None:
                first = state.first
            state = result = None  # free the previous inputs before building new ones
            start = perf_counter()
            with _phase(tracer, "setup", tracing):
                state = workload.setup(seed, workdir)
            setup_times.append(perf_counter() - start)
            state.first = first
        traced = tracing and attempted > 0 and attempted % 2 == 0
        attempted += 1
        result = None
        try:
            start = perf_counter()
            with _phase(tracer, "op", traced):
                result = workload.op(state)
            elapsed = perf_counter() - start
        except Exception as exc:  # a failing operation is counted, not fatal
            traceback.print_exc()
            failed += 1
            problems_seen.append(f"operation raised {exc!r}")
            continue
        try:
            problems, loss = workload.check(state, result)
        except Exception as exc:  # output the checks cannot read is wrong output
            traceback.print_exc()
            problems = [f"checking raised {exc!r}"]
        if problems:
            failed += 1
            problems_seen += problems
        elif attempted > 1:
            times[traced].append(elapsed)
            losses.append(loss)

    for problem in problems_seen:
        print(f"check failed: {problem}", file=sys.stderr)
    print("set-up times", _fmt(setup_times), "operation times", _fmt(times[False]),
          "traced", _fmt(times[True]), file=sys.stderr)
    if not times[False] or (tracing and not times[True]):
        print(f"bench: no timed operation passed its checks ({failed} of {attempted} failed);"
              " nothing to report", file=sys.stderr)
        return None
    result = {"correct": not problems_seen, "attempted": attempted, "failed": failed}
    if not tracing:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_s": {"value": _median(times[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "valid_loss_main": {"value": _median(losses), "unit": "loss"},
        }
        return result

    metrics = layer_metrics(tracer)
    traced_op_s = _median(times[True])
    metrics["trace_overhead_s"] = {"value": traced_op_s - _median(times[False]), "unit": "s"}
    result["metrics"] = metrics
    _print_shares(metrics, traced_op_s)
    return result


def _fmt(values) -> str:
    return "[" + " ".join(f"{v:.3f}" for v in values) + "]"


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _print_shares(metrics: dict, traced_op_s: float) -> None:
    """Human-readable time of each layer and its share of a traced operation."""
    print(f"traced op_s {traced_op_s:.4f} s", file=sys.stderr)
    for name, m in metrics.items():
        if m["unit"] == "s" and m["value"] and name not in SETUP_LAYERS:
            share = m["value"] / traced_op_s
            print(f"  {name:30s} {m['value']:9.4f} s {share:7.1%}", file=sys.stderr)
    for name in SETUP_LAYERS:
        print(f"  {name:30s} {metrics[name]['value']:9.4f} s (set-up + op)", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    if tracer is not None:
        tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
    if result is None:
        return 1
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

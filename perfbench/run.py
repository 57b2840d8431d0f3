"""windsym benchmark: drives the documented CLI in-process through
`windsym.bounds_cli.cli_main` and checks every output against a reference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; windsym is imported from its `src/`.  Each
workload is a closed loop with one client: the ops of a seeded op list run
one after another in this single process, with no threads or child
processes.  Passes over the op list repeat until the next one would end
after --seconds.  With --trace 0 the last stdout line reports the end-to-end
metrics; with --trace 1 every pass is traced and it reports the per-layer
metrics.  `--workload all` runs every workload, each in a
fresh process.  A record with the run context, every op and the spans is
written to perfbench/results/.

Exit codes: 0 when every op passed its check, 1 when some op failed (the
result line is still printed), 2 on usage errors or when the checkout has
no windsym sources.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

OP_BUDGET_S = 60.0  # an op running longer counts as failed
RUN_LIMIT_S = 150.0  # no op starts later than this after process start
SETUP_REPEATS = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

import speed  # noqa: E402  (sys.path[0] is this directory)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


class OpTimeout(BaseException):
    """Raised from SIGALRM inside an op; a BaseException so that no handler
    in the library can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def hang_guard(seconds: float):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def load_windsym(speed_log: speed.SpeedLog):
    """Import windsym from the checkout and build the CLI parser, each time
    from a fresh import after a full collection, with a calibration slice
    before each; returns the bounds_cli module and the set-up times."""
    if not (SRC / "windsym" / "bounds_cli.py").is_file():
        sys.exit(f"error: no windsym sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(1, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "windsym" or m.startswith("windsym.")]:
            del sys.modules[name]
        gc.collect()
        speed_log.sample(force=True)
        t0 = time.perf_counter()
        cli = importlib.import_module("windsym.bounds_cli")
        cli.build_parser()
        times.append(time.perf_counter() - t0)
    if Path(cli.__file__).resolve().parent != SRC / "windsym":
        sys.exit(f"error: imported windsym from {cli.__file__}, not from {SRC}")
    speed_log.sample(force=True)
    return cli, times


def run_context(seed: int) -> dict:
    """Commit (read from .git when present), source digest, interpreter, CPUs."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                commit = next((ln.split()[0] for ln in packed.read_text().splitlines()
                               if ln.endswith(" " + name)), ref)
    digest = hashlib.sha256()
    for path in sorted((SRC / "windsym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


@dataclass
class OpResult:
    op: wl.Op
    start: float
    wall_s: float
    output_bytes: int
    error: str | None
    payload: dict | None
    replay_s: float = 0.0  # traced replay after the op


def run_op(cli_main, op: wl.Op, budget: float) -> OpResult:
    """One cli_main call under the hang guard; the output check runs after
    the timed region."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with hang_guard(budget), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(op.argv)
    except OpTimeout:
        error = f"over the {budget:.1f} s op budget"
    except Exception as exc:  # a failing op is counted, not fatal
        error = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    text, payload = out.getvalue(), None
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[:300]}"
    if error is None:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            error = f"output is not JSON: {exc}"
        else:
            problems = wl.check_output(op, payload)
            if problems:
                error = "; ".join(problems)[:1000]
    return OpResult(op, start, wall, len(text.encode()), error, payload)


def budget_left() -> float:
    return min(OP_BUDGET_S, RUN_LIMIT_S - (time.perf_counter() - START))


def run_pass(cli_main, ops: list[wl.Op], tracer: tracing.Tracer | None,
             speed_log: speed.SpeedLog | None = None) -> list[OpResult]:
    results = []
    for op in ops:
        if speed_log:
            speed_log.sample()
        budget = budget_left()
        if budget <= 0:
            results.append(OpResult(op, time.perf_counter(), 0.0, 0, "not started: run time limit reached", None))
            continue
        res = run_op(cli_main, op, budget)
        results.append(res)
        if tracer is None or res.error:
            continue
        span = tracer.add_op_span(op.label, res.start, res.start + res.wall_s)
        tracer.counts[tracer.pass_index]["bounds_cli.output_bytes"] += res.output_bytes
        t0 = time.perf_counter()
        try:
            with hang_guard(max(budget_left(), 0.001)):
                tracing.replay(tracer, op, res.payload, span)
        except OpTimeout:
            res.error = "traced replay over the op budget"
        res.replay_s = time.perf_counter() - t0
    return results


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest listed percentile that has at
    least ten samples beyond it; None when there are too few samples."""
    for q in TAIL_PERCENTILES:
        if len(values) * (100 - q) / 100 >= 10:
            return q, percentile(values, q)
    return None


def end_to_end(workload: wl.Workload, passes: list[list[OpResult]], setup_times: list[float],
               setup_factor: float, factor: float):
    """(metrics for the result line, metrics only printed and recorded),
    each metric -> (value, unit).  Times in the result line are scaled by
    `factor` (`setup_factor` for set-up, from the slices taken between the
    imports) to the reference machine speed (see speed.py); the raw ones are
    printed too.  wall_s is the mean over passes, so that it averages the
    host's speed over the same time as the calibration slices do.  op_s_tail
    needs enough samples and ops_failed_frac is 0 on a correct run, so
    neither can be bounded."""
    results = [r for p in passes for r in p]
    raw_walls = [sum(r.wall_s for r in p) for p in passes]
    walls = [w * factor for w in raw_walls]
    raw_lat = [r.wall_s for r in results if not r.error]
    lat = [t * factor for t in raw_lat]
    work = sum(r.op.work for r in results)
    failed = sum(1 for r in results if r.error)
    metrics = {
        "wall_s": (sum(walls) / len(walls), "s"),
        "op_s_p50": (median(lat) if lat else 0.0, "s"),
        "throughput_per_s": (work / sum(walls) if sum(walls) else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (median(setup_times) * setup_factor, "s"),
    }
    extra = {f"{workload.work_unit}_per_s": metrics["throughput_per_s"]}
    t = tail(lat)
    if t:
        extra["op_s_tail"] = (t[1], f"s (p{t[0]:g}, n={len(lat)})")
    extra["ops_failed_frac"] = (failed / len(results), "1")
    extra.update({
        "raw.wall_s": (sum(raw_walls) / len(raw_walls), "s (unscaled)"),
        "raw.op_s_p50": (median(raw_lat) if raw_lat else 0.0, "s (unscaled)"),
        "raw.setup_s": (median(setup_times), "s (unscaled)"),
        "speed_factor": (factor, "reference/host"),
        "setup_speed_factor": (setup_factor, "reference/host"),
    })
    return metrics, extra


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(title: str, metrics: dict, unmeasured: dict | None = None) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {_fmt(value):>14s} {unit}")
    for name, reason in (unmeasured or {}).items():
        print(f"  {name:40s} unmeasured: {reason}")


def run_workload(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    setup_speed, speed_log = speed.SpeedLog(), speed.SpeedLog()
    cli, setup_times = load_windsym(setup_speed)
    ops = workload.build(args.seed)
    context = run_context(args.seed)
    context.update(workload=workload.name, trace=args.trace, seconds=args.seconds,
                   ops_per_pass=len(ops), work_per_pass=sum(op.work for op in ops),
                   work_unit=workload.work_unit)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.table_rss_delta_mb(tracer, ops)

    passes: list[list[OpResult]] = []
    t_measure = time.perf_counter()
    speed_log.sample(force=True)
    while True:
        if tracer:
            tracer.pass_index = len(passes)
        t0 = time.perf_counter()
        passes.append(run_pass(cli.cli_main, ops, tracer, speed_log))
        speed_log.sample(force=True)
        last = time.perf_counter() - t0
        if budget_left() <= 0 or any(r.error for r in passes[-1]):
            break
        if time.perf_counter() - t_measure + last > args.seconds:
            break

    all_results = [r for p in passes for r in p]
    failed = [r for r in all_results if r.error]
    e2e, extra = end_to_end(workload, passes, setup_times, setup_speed.factor(), speed_log.factor())
    print(f"windsym benchmark: workload={workload.name} seed={args.seed} trace={args.trace}")
    print("context: " + " ".join(f"{k}={v}" for k, v in context.items()))
    print(f"passes: {len(passes)}; ops attempted {len(all_results)}, failed {len(failed)}")
    for r in failed[:10]:
        print(f"  FAILED {r.op.label}: {r.error}")
    print_table("end-to-end:", {**e2e, **extra})
    record = {"context": context, "setup_times_s": setup_times,
              "calibration": {"reference_slice_s": speed.REF_SLICE_S,
                              "setup_slices_s": setup_speed.slice_s,
                              "slices": [[t - START, d] for t, d in zip(speed_log.at, speed_log.slice_s)]},
              "end_to_end": {k: list(v) for k, v in {**e2e, **extra}.items()},
              "passes": [[{"op": r.op.label, "start_s": r.start - START, "wall_s": r.wall_s,
                           "output_bytes": r.output_bytes, **({"replay_s": r.replay_s} if tracer else {}),
                           **({"error": r.error} if r.error else {})} for r in p] for p in passes]}
    if tracer:
        # the op spans time cli_main with nothing inside it instrumented, so
        # what tracing adds to an op is its replay
        overhead = median(sum(r.replay_s for r in p) for p in passes)
        layer, unmeasured = tracing.per_layer_metrics(tracer, list(range(len(passes))), overhead)
        shares = {k: v for k, v in layer.items() if k.endswith(".share")}
        print_table("per-layer (traced passes):", {k: v for k, v in layer.items() if k not in shares},
                    {k: v for k, v in unmeasured.items() if not k.endswith(".share")})
        print_table("self-time share of traced op time:", shares,
                    {k: v for k, v in unmeasured.items() if k.endswith(".share")})
        scaling = tracing.presentation_scaling(tracer, list(range(len(passes))))
        if scaling and len(scaling) <= 16:
            print("scaling (median per level): p1_size table_s presentation_s")
            for row in scaling:
                print(f"  {row['p1_size']:>8d} {_fmt(row['table_s']):>12s} {_fmt(row['presentation_s']):>12s}")
        record.update(per_layer={k: list(v) for k, v in layer.items()}, unmeasured=unmeasured,
                      scaling=scaling, spans=tracing.spans_json(tracer))
        metrics = layer
    else:
        metrics = e2e
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failed else 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process of its own."""
    worst = 0
    for name in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc = subprocess.run(argv, check=False).returncode
        worst = max(worst, rc)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="windsym benchmark")
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""bigiso benchmark: closed-loop workloads, verdict checks, per-layer trace.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs are made from --seed):
    cli-fixtures  every (subcommand, fixture) pair that exits 0 or 1, each
                  as a fresh `python -m bigiso.cli` process, seeded order
    dense-pass    integrable graph(P) frames mixed by seeded unimodular
                  polynomial row operations, m = 4, 4, 5, 5, 5, in-process
    dense-fail    the same with a non-Poisson P, m = 4 four times (run by
                  hand; BENCHMARK.json leaves it out to keep runs long)

One client runs whole passes, one request at a time, until --seconds have
gone; wall_s is the mean pass time, and latency percentiles are taken per
pass and averaged over the passes.  --trace 0 prints the end-to-end
metrics.  --trace 1 runs untraced passes, then traced ones, half of
--seconds each, prints the per-layer metrics and writes the spans to
.bench_out/.  Every metric is printed as `name: value unit`; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
Verdicts are checked against expected_cli.json (cli-fixtures) or against
the construction and an independent oracle (dense workloads).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3  # before the measured passes, and again after them
IMPORT_REPS = 5
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _per_layer_units() -> dict:
    from tracing import COUNT_NAMES, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNT_NAMES:
        units[f"{name}.calls"] = "count"
    units.update(
        {
            "structures.validate.per_req": "1/req",
            "canonical.normalize_frame.per_req": "1/req",
            "structures.default_grid.kept_ratio": "ratio",
            "membership.poly_det.nonzero_ratio": "ratio",
            "cli.import_s": "s",
            "tracing_overhead": "ratio",
        }
    )
    return units


def _git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _timed_subprocess(argv, env) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=PROBE_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} failed: {proc.stderr.strip()[-500:]}")
    return time.perf_counter() - t0, proc.stdout


def setup_seconds(workload, seed, env) -> list:
    """Fresh-process set-ups, each: import bigiso and make the inputs."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    return [float(_timed_subprocess(argv, env)[1]) for _ in range(SETUP_REPS)]


def import_seconds(env) -> float:
    """Subprocess `import bigiso.cli` time minus bare interpreter start."""
    bare, cli = [], []
    for _ in range(IMPORT_REPS):
        bare.append(_timed_subprocess([sys.executable, "-c", "pass"], env)[0])
        cli.append(_timed_subprocess([sys.executable, "-c", "import bigiso.cli"], env)[0])
    return statistics.median(cli) - statistics.median(bare)


def tail(values) -> tuple:
    """(value, percentile, n): the highest percentile with 10 samples above it.

    With 10 samples or fewer that percentile does not exist and the maximum
    is reported as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def _peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-fixtures" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _by_dim(samples, m):
    times = [s.seconds for s in samples if s.chart_dim == m]
    return statistics.median(times) if times else None


def end_to_end(workload, run, per_pass, setup_s, info) -> dict:
    """Request latencies are summarized per pass, then averaged over the
    passes, so the percentile does not change with the number of passes.
    Means over passes follow the machine's speed over the whole run, which
    varies less between runs than any single pass does.  A request that
    failed keeps its time: it counts as slow, not as absent.
    """
    p50s, tails = [], []
    for start in range(0, len(run.samples), per_pass):
        times = [s.seconds for s in run.samples[start : start + per_pass]]
        p50s.append(statistics.median(times))
        value, percentile, n = tail(times)
        tails.append(value)
    info["req_tail"] = {"percentile": round(percentile, 2), "n": n, "passes": len(tails)}
    for m in (4, 5, 6):
        value = _by_dim(run.samples, m)
        if value is not None:
            info[f"verdict_s.m{m}"] = value
    return {
        "setup_s": setup_s,
        "wall_s": statistics.mean(run.pass_seconds),
        "req_p50_ms": 1000.0 * statistics.mean(p50s),
        "req_tail_ms": 1000.0 * statistics.mean(tails),
        "peak_rss_mb": _peak_rss_mb(workload),
    }


def per_layer(traced, untraced, env) -> dict:
    from tracing import COUNT_NAMES, SPAN_NAMES, summarize

    summary = summarize(traced.exports)
    requests = len(traced.samples)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = summary["calls"][name]
        metrics[f"{name}.self_s"] = summary["self_s"][name]
    for name in COUNT_NAMES:
        metrics[f"{name}.calls"] = summary["counts"][name]
    kept, generated = summary["grid"]
    nonzero, minors = summary["minors"]
    metrics.update(
        {
            "structures.validate.per_req":
                summary["calls"]["structures.BigIsotropicStructure.validate"] / requests,
            "canonical.normalize_frame.per_req":
                summary["calls"]["canonical.normalize_frame"] / requests,
            "structures.default_grid.kept_ratio": kept / generated if generated else 0.0,
            "membership.poly_det.nonzero_ratio": nonzero / minors if minors else 0.0,
            "cli.import_s": import_seconds(env),
            "tracing_overhead":
                statistics.mean(traced.pass_seconds) / statistics.mean(untraced.pass_seconds),
        }
    )
    return metrics


def _write_trace(workload, seed, traced, metrics):
    OUT_DIR.mkdir(exist_ok=True)
    with open(HERE / "layer_map.json", encoding="utf-8") as fh:
        layer_map = json.load(fh)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "metrics": metrics,
                "layer_map": layer_map,
                "processes": traced.exports,
            },
            fh,
        )
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bigiso" / "__init__.py").is_file():
        print(f"bench: no bigiso sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bigiso

    if Path(bigiso.__file__).resolve().parent != SRC / "bigiso":
        print(f"bench: imported bigiso from {bigiso.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    inputs = workloads.make_inputs(args.workload, args.seed)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "requests_per_pass": len(inputs),
    }

    if args.trace:
        from tracing import Tracer

        # the two phases share --seconds, so a traced run lasts as long as an untraced one
        phase_s = args.seconds / 2
        untraced = workloads.run(args.workload, inputs, phase_s, env, ROOT)
        OUT_DIR.mkdir(exist_ok=True)
        tracer = Tracer()
        if args.workload != "cli-fixtures":
            tracer.install()
        try:
            traced = workloads.run(
                args.workload, inputs, phase_s, env, ROOT, tracer=tracer, spans_dir=OUT_DIR
            )
        finally:
            tracer.uninstall()
        runs = [untraced, traced]
        metrics = per_layer(traced, untraced, env)
        units = _per_layer_units()
        info["trace_file"] = str(_write_trace(args.workload, args.seed, traced, metrics).relative_to(ROOT))
    else:
        setups = setup_seconds(args.workload, args.seed, env)
        measured = workloads.run(args.workload, inputs, args.seconds, env, ROOT)
        setups += setup_seconds(args.workload, args.seed, env)
        runs = [measured]
        metrics = end_to_end(args.workload, measured, len(inputs), statistics.median(setups), info)
        units = dict(END_TO_END)

    samples = [s for r in runs for s in r.samples]
    errors = [s.error for s in samples if s.error]
    mismatches = [s.mismatch for s in samples if s.mismatch]
    info["passes"] = [len(r.pass_seconds) for r in runs]
    info["error_rate"] = len(errors) / len(samples)
    info["verdict_errors"] = len(mismatches)
    for message in (errors + mismatches)[:10]:
        print(f"problem: {message}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({"info": info}))
    failed = sum(1 for s in samples if s.error or s.mismatch)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

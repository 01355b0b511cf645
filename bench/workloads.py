"""Workload inputs and the closed-loop runner shared by every workload.

One client, one request in flight: the next request starts only when the
previous one has finished.  A request is one CLI process (cli-fixtures) or
one in-process instance, from the start of build to its last verdict
(dense-pass, dense-fail).
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import cli_requests
import dense

WORKLOADS = ("cli-fixtures", "dense-pass", "dense-fail")
HERE = Path(__file__).resolve().parent


def make_inputs(workload: str, seed: int) -> list:
    if workload == "cli-fixtures":
        return cli_requests.make_requests(seed)
    return [(inst, dense.to_library(inst)) for inst in dense.make_instances(workload, seed)]


@dataclass
class Sample:
    seconds: float
    chart_dim: int
    error: str | None = None  # exception, timeout or unexpected exit code
    mismatch: str | None = None  # a verdict disagrees with the expected one
    index: int = -1  # dense: which instance
    verdicts: dict | None = None  # dense: checked after the timed loop


@dataclass
class Run:
    samples: list
    pass_seconds: list
    exports: list  # tracer exports, one per traced process


def run(workload, inputs, seconds, env, root, tracer=None, spans_dir=None) -> Run:
    """Whole passes over the inputs until `seconds` have gone (at least one)."""
    samples, passes, exports = [], [], []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        t_pass = time.perf_counter()
        for index, item in enumerate(inputs):
            if workload == "cli-fixtures":
                samples.append(_cli_sample(item, env, root, tracer is not None, spans_dir, exports))
            else:
                if tracer is not None:
                    tracer.request = len(samples)
                samples.append(_dense_sample(item, index))
        passes.append(time.perf_counter() - t_pass)
    if tracer is not None and workload != "cli-fixtures":
        exports.append(tracer.export())
    if workload != "cli-fixtures":
        _check_dense(inputs, samples)
    return Run(samples, passes, exports)


def _cli_sample(req, env, root, traced, spans_dir, exports) -> Sample:
    if traced:
        out_path = spans_dir / f"request-{os.getpid()}.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(out_path)]
    else:
        argv = [sys.executable, "-m", "bigiso.cli"]
    outcome = cli_requests.run_request(req, argv, env, root)
    if traced:
        try:
            with open(out_path, encoding="utf-8") as fh:
                exports.append(json.load(fh))
            out_path.unlink()
        except (OSError, ValueError) as exc:
            outcome.error = outcome.error or f"{req.command} {req.fixture}: no trace ({exc})"
    return Sample(outcome.seconds, req.chart_dim, outcome.error, outcome.mismatch)


def _dense_sample(item, index) -> Sample:
    inst, library = item
    t0 = time.perf_counter()
    try:
        seconds, verdicts = dense.run_instance(library)
    except Exception:  # a request boundary: record it and keep measuring
        return Sample(time.perf_counter() - t0, inst.m, error=traceback.format_exc(limit=3))
    return Sample(seconds, inst.m, index=index, verdicts=verdicts)


def _check_dense(inputs, samples):
    """Compare every instance's verdicts with the construction and the oracle."""
    expected = {index: dense.oracle(inst) for index, (inst, _) in enumerate(inputs)}
    for sample in samples:
        if sample.error:
            continue
        inst = inputs[sample.index][0]
        errors = dense.verdict_errors(inst, sample.verdicts, expected[sample.index])
        sample.mismatch = "; ".join(errors) or None

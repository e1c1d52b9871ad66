"""translie benchmark: closed-loop job lists timed end to end and per layer.

    python3 bench/run.py --workload laws --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
src/translie there.  The load is one process, one thread, closed loop:
one client runs one job at a time, each job starting when the previous
one has returned its report.  A job is one CLI run (`parse_config ->
run -> RunReport.to_json`) or one acceptance-criterion call through the
library API.  The workload's job list is built from --seed by jobs.py and
run in passes until --seconds are used, each pass on a freshly imported
and set-up program; each job's report is checked
against its closed-form known answer and digested (sha256) so that any
change of output between passes, or between traced and untraced runs,
counts as a failure.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
pass and then one pass with the wrappers of layers.py installed, and
prints the per-layer metrics; the difference of the two passes' sweep
times is the tracing overhead.  Which metric should move which, on
which workload, is written down in bench/README.md.

The last line of standard output is the result object; the line before
it holds info fields (digests, tail percentile, machine notes, src/ line
count), which are also written with the spans under .bench_results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import jobs as joblists
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
MODULES = ("algebras", "checks", "cli", "elements", "linalg", "scalars", "solver", "tp")

SETUP_REPS = 5  # per pass, so that set-up is sampled across the run
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
KERNEL_MIN_S = 0.3
KERNEL_WINDOWS = {
    "laws": joblists.LAWS_DOMAIN,
    "derive-graded": joblists.GRADED_DOMAIN,
    "derive-wide": joblists.WIDE_WINDOWS[-1][0],
}


# ---------------------------------------------------------------------------
# loading the program and building its inputs (the set-up being timed)


def load_program():
    """Import translie afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "translie" or n.startswith("translie.")]:
        del sys.modules[name]
    importlib.import_module("translie.cli")
    package = sys.modules["translie"]
    if Path(package.__file__).resolve().parent != SRC / "translie":
        raise ImportError(f"translie imported from {package.__file__}, not from {SRC}")
    return {name: sys.modules[f"translie.{name}"] for name in MODULES}


def _shift_inputs(program, job):
    spec = json.loads(job.text)
    return (
        program["algebras"].a_omega_delta(),
        program["algebras"].uniform_shift(spec["k"]),
        program["checks"].window(*spec["window"]),
    )


def set_up(jobs, samples):
    """Import the program, parse every configuration and build the algebra
    and parameter objects, SETUP_REPS times; each time goes to `samples`."""
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        program = load_program()
        for job in jobs:
            if job.kind == "cli":
                program["cli"].parse_config(job.text)
            else:
                _shift_inputs(program, job)
        samples.append(time.perf_counter() - start)
    return program


# ---------------------------------------------------------------------------
# running jobs


def execute(program, job):
    """Run one job to its verdict; returns the serialized report."""
    if job.kind == "cli":
        cli = program["cli"]
        return cli.run(cli.parse_config(job.text)).to_json()
    bdef, op, w = _shift_inputs(program, job)
    report = program["checks"].check_one_third_derivation(bdef, op, w)
    entry = {
        "law": report.law,
        "mode": report.mode,
        "cases_run": report.cases_run,
        "passed": report.passed,
        "violations": [[str(s) for s in v.inputs] for v in report.violations],
    }
    doc = {
        "command": "uniform-shift-check",
        "config": json.loads(job.text),
        "entries": [entry],
        "verdict": "pass" if report.passed else "fail",
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_pass(program, jobs, tracer=None):
    """One pass over the job list; returns one record per job."""
    records = []
    for job in jobs:
        gc.collect()
        text, error = None, None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                text = execute(program, job)
            else:
                tracer.job = job.id
                with tracer.span("bench.job"):
                    text = execute(program, job)
        except Exception as exc:  # a failing job is counted, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if error is None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            found = joblists.problems(job, json.loads(text))
        else:
            digest, found = None, [error]
        records.append({"job": job.id, "wall": wall, "cpu": cpu, "digest": digest, "problems": found})
    return records


def mark_digest_changes(passes):
    """A job whose report differs from its first report fails."""
    first = {r["job"]: r["digest"] for r in passes[0]}
    for records in passes[1:]:
        for r in records:
            if r["digest"] is not None and r["digest"] != first[r["job"]]:
                r["problems"].append("report differs from the first pass")


def bracket_kernel(m, jobs, workload):
    """terms() calls per second over every triple of the workload's window."""
    brackets = {}
    for job in jobs:
        if job.kind == "cli":
            algebra = m["cli"].parse_config(job.text).algebra
        else:
            algebra = _shift_inputs(m, job)[0]
        if algebra is not None:
            brackets[algebra] = None
    syms = m["checks"].window_symbols(m["checks"].window(*KERNEL_WINDOWS[workload]))
    calls, spent = 0, 0.0
    while spent < KERNEL_MIN_S:
        start = time.perf_counter()
        for bdef in brackets:
            terms = bdef.terms
            for x in syms:
                for y in syms:
                    for z in syms:
                        terms(x, y, z)
        spent += time.perf_counter() - start
        calls += len(brackets) * len(syms) ** 3
    return calls / spent


# ---------------------------------------------------------------------------
# statistics and output


def tail(values):
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(n - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def metric(value, unit):
    return {"value": value, "unit": unit}


def _sweep(records):
    return sum(r["wall"] for r in records)


def measure(jobs, seconds, setup_samples):
    """Passes over the job list, each with a freshly set-up program, while
    another pass fits in `seconds` and until more than TAIL_BEYOND jobs ran."""
    passes = []
    start = time.perf_counter()
    while True:
        program = set_up(jobs, setup_samples)
        passes.append(run_pass(program, jobs))
        elapsed = time.perf_counter() - start
        done = sum(len(p) for p in passes)
        if done > TAIL_BEYOND and elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(passes, setup_samples, records):
    """End-to-end metrics of a run.

    The host this was built on switches between two speeds about 2x apart,
    in phases of seconds to over a minute, the slow one the more common.
    A run's slowest pass, and each job's slowest repetition, repeat from
    run to run better than medians over passes do, so sweep_s, cpu_s and
    verdict_p50_s are taken from them.
    """
    walls = [r["wall"] for r in records]
    tail_s, tail_pct, n = tail(walls)
    failed = sum(1 for r in records if r["problems"])
    slowest = {}
    for r in records:
        slowest[r["job"]] = max(slowest.get(r["job"], 0.0), r["wall"])
    metrics = {
        "sweep_s": metric(max(_sweep(p) for p in passes), "s"),
        "cpu_s": metric(max(sum(r["cpu"] for r in p) for p in passes), "s"),
        "verdict_p50_s": metric(statistics.median(slowest.values()), "s"),
        "verdict_tail_s": metric(tail_s, "s"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "verdict_ok_ratio": metric((len(records) - failed) / len(records), "ratio"),
    }
    info = {"tail_percentile": tail_pct, "tail_samples": n}
    return metrics, info


def per_layer(program, jobs, workload):
    kernel = bracket_kernel(program, jobs, workload)
    untraced = run_pass(program, jobs)
    tracer = layers.Tracer()
    layers.install(tracer, program)
    try:
        traced = run_pass(program, jobs, tracer)
    finally:
        tracer.remove()
    layer = layers.summarize(tracer)
    layer["algebras.bracket_terms_per_s"] = kernel
    layer["trace.sweep_s"] = _sweep(traced)
    layer["trace.untraced_sweep_s"] = _sweep(untraced)
    layer["trace.overhead_s"] = layer["trace.sweep_s"] - layer["trace.untraced_sweep_s"]
    layer["trace.unattributed_s"] = layer["trace.sweep_s"] - layer["trace.attributed_s"]
    return [untraced, traced], layer, tracer


def write_results(name, doc, tracer):
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        selfs = layers.self_times(tracer.spans)
        with open(RESULTS / f"{name}-spans.jsonl", "w", encoding="utf-8") as fh:
            for (span_name, start, end, parent, job), own in zip(tracer.spans, selfs):
                record = {"name": span_name, "start": start, "end": end,
                          "parent": parent, "job": job, "self": own}
                fh.write(json.dumps(record) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "translie" / "__init__.py").is_file():
        print(f"error: no translie sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    jobs = joblists.job_list(args.workload, args.seed)

    setup_samples = []
    tracer = None
    if args.trace:
        program = set_up(jobs, setup_samples)
        passes, metrics, tracer = per_layer(program, jobs, args.workload)
        mark_digest_changes(passes)
        records = [r for p in passes for r in p]
        metrics = {k: metric(v, unit_of(k)) for k, v in sorted(metrics.items())}
        info = {}
    else:
        passes = measure(jobs, args.seconds, setup_samples)
        mark_digest_changes(passes)
        records = [r for p in passes for r in p]
        metrics, info = end_to_end(passes, setup_samples, records)

    failed = [r for r in records if r["problems"]]
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        passes=len(passes),
        pass_sweep_s=[_sweep(p) for p in passes],
        setup_samples_s=setup_samples,
        failed_ratio=len(failed) / len(records),
        failures=[{"job": r["job"], "problems": r["problems"][:3]} for r in failed[:10]],
        jobs=[{"id": j.id, "name": j.name, "sha256": r["digest"]} for j, r in zip(jobs, passes[0])],
        jobs_sha256=hashlib.sha256(
            "".join(str(r["digest"]) for r in passes[0]).encode()
        ).hexdigest(),
        machine={"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "implementation": platform.python_implementation(),
                 "platform": platform.platform()},
        src_lines=src_lines(),
    )
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    write_results(f"{args.workload}-seed{args.seed}-trace{args.trace}",
                  {"info": info, **result}, tracer)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

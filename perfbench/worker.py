"""Runs one workload's jobs in process through ``qtrace.cli.main``.

run.py starts this script in a fresh interpreter, in two ways:

    worker.py --workload W --seed N --workdir DIR --result FILE --setup-only
        import qtrace.cli and run the untimed warm-up, then exit;
    worker.py --workload W --seed N --workdir DIR --result FILE --seconds S --trace T
        warm up, then run whole passes of the job list for at most S
        seconds, or for the fewest passes the mode needs.

Either way it writes its measurements to FILE as JSON.  A
speed.Sampler runs from just before the import of qtrace.cli to the end;
in a traced run its samples add about 2 % to the spans they land in.

With ``--trace 1`` the passes alternate traced and untraced, starting
traced, with at least two traced passes and one untraced.  The
warm-up is traced too, so the per-layer figures of a traced pass
(warm-up plus that pass) are what one cold process running the job list
does.

Before anything runs, the worker regenerates the workload's inputs and
requires the files in DIR to match them byte for byte.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 20


def import_cli():
    import qtrace.cli

    origin = Path(qtrace.cli.__file__).resolve()
    if origin.parent.parent != SRC.resolve():
        raise SystemExit(f"qtrace.cli was imported from {origin}, not from {SRC}")
    return qtrace.cli


def check_inputs(plan, workdir):
    for name, text in plan.files.items():
        on_disk = (workdir / name).read_bytes()
        if on_disk != text.encode("utf-8"):
            raise SystemExit(f"input {name} is not what the generator gives for this seed")


def run_job(cli, job):
    """Run one job; return (start, end, problem or None), times in
    ``time.perf_counter`` seconds."""
    if job.expect != "verify":
        Path(job.argv[-1]).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except (Exception, SystemExit) as exc:
        return start, time.perf_counter(), f"raised {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if code != 0:
        return start, end, f"exit code {code}: {err.getvalue().strip()[-300:]}"
    if job.expect == "verify":
        return start, end, workloads.check_verify_output(out.getvalue())
    try:
        data = Path(job.argv[-1]).read_bytes()
    except OSError as exc:
        return start, end, f"no output file: {exc}"
    return start, end, workloads.check_trace_output(job.expect, data)


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, separators=(",", ":"))


def span_record(spans):
    """Spans as written out: names and job ids by index into their
    tables, start and end in whole microseconds after the first span."""
    names = sorted({s[0] for s in spans})
    jobs = sorted({s[4] for s in spans})
    t0 = spans[0][1]
    return {
        "fields": ["name", "start_us", "end_us", "parent", "job", "info"],
        "names": names,
        "jobs": jobs,
        "spans": [[names.index(name), round((start - t0) * 1e6), round((end - t0) * 1e6),
                   parent, jobs.index(job), info]
                  for name, start, end, parent, job, info in spans],
    }


class Runner:
    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.problems = []

    def run(self, jobs, tracer=None):
        """Run jobs in order; return [[job name, start, end], ...]."""
        intervals = []
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            start, end, problem = run_job(self.cli, job)
            intervals.append([job.name, start, end])
            self.attempted += 1
            if problem is not None:
                self.problems.append(f"{self.workload} job {job.name}: {problem}")
        return intervals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    workdir = args.workdir.resolve()
    plan = workloads.make_plan(args.workload, args.seed, args.smoke)
    check_inputs(plan, workdir)
    sampler = speed.Sampler()
    sampler.start()
    setup_start = time.perf_counter()
    cli = import_cli()
    runner = Runner(cli, args.workload)
    os.chdir(workdir)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    runner.run(plan.warmup, tracer)
    setup = [setup_start, time.perf_counter()]
    if args.setup_only:
        sampler.stop()
        write_json(args.result, {"setup": setup, "samples": sampler.samples})
        return 0
    warm_spans = []
    if tracer is not None:
        tracer.uninstall()
        warm_spans = tracer.take()

    passes, traced_passes, layer_runs = [], [], []
    first_traced = None
    measure_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if tracer is not None and (len(passes) + len(traced_passes)) % 2 == 0:
            tracer.install()
            traced_passes.append(runner.run(plan.jobs, tracer))
            tracer.uninstall()
            spans = tracing.join(warm_spans, tracer.take())
            layer_runs.append(tracing.layer_metrics(spans))
            if first_traced is None:
                first_traced = spans
        else:
            passes.append(runner.run(plan.jobs))
        # Stop before a pass that would likely end after the time is up.
        now = time.perf_counter()
        enough = len(passes) >= 1 and (tracer is None or len(traced_passes) >= 2)
        if enough and (now - measure_start) + (now - pass_start) > args.seconds:
            break

    sampler.stop()
    result = {
        "samples": sampler.samples,
        "attempted": runner.attempted,
        "failed": len(runner.problems),
        "problems": runner.problems[:MAX_PROBLEMS],
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sympy_loaded": "sympy" in sys.modules,
    }
    if tracer is not None:
        result["traced_passes"] = traced_passes
        result["layer"] = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]}
        result["count_mismatch"] = [
            f"{k}: {[m[k] for m in layer_runs]}"
            for k in tracing.COUNTS
            if len({m[k] for m in layer_runs}) > 1
        ]
        result["functions"] = tracing.function_table(first_traced)
        write_json(workdir / "spans.json", span_record(first_traced))
    write_json(args.result, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

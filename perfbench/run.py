"""The qtrace benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  W is one of torus-bundle, strip,
braided, verify, or ``all`` for each in turn.  The benchmark writes the
workload's seeded inputs under ``.perfbench/W/`` and then

1. times SETUP_RUNS fresh interpreters that import ``qtrace.cli`` and
   run the warm-up (``setup_s`` is their median time);
2. starts one more interpreter that warms up and runs whole passes of
   the job list, one job after another through ``qtrace.cli.main``, for
   at most S seconds but at least one pass (worker.py).  ``wall_s`` is
   the median pass time and ``peak_rss_mb`` that process's peak
   resident memory.  With ``--trace 1`` it reports the per-layer
   metrics of tracer.py instead, and runs no set-up interpreters.

``setup_s`` and ``wall_s`` are wall times rescaled to a reference
machine speed (speed.py): each measured interval is multiplied by how
much faster a fixed piece of Python ran at the reference speed than in
the same thread around that interval.  The raw medians are printed
beside them.

Every job's output is checked (workloads.py).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are for people.  A job that
fails counts in ``failed``; the share it makes of ``attempted`` is
printed as ``fail_rate``.  The exit code is 0 when the measurement ran,
whatever the outputs were, and 2 when it could not run at all.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
TIME_LIMIT = 170.0  # seconds for one workload, set-up included

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def layer_units():
    """Unit of every per-layer metric, in the order they are reported."""
    names = list(tracing.TIMES) + list(tracing.CALLS) + list(tracing.SUMS) + [
        "biangle.trace_nonzero_ratio", "surface.state_space", "surface.state_sum_self_s",
    ] + [f"{m}.self_s" for m in tracing.MODULES] + [
        "trace.spans", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
    ]
    units = {}
    for name in names:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith("_bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


def environment(sympy_loaded):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "sympy_loaded": sympy_loaded,
    }


def _worker(argv, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker could start")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {TIME_LIMIT:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-3000:]}")


def pass_times(passes, samples):
    """Rescaled time of each pass (see speed.rescale)."""
    return [sum(speed.rescale(start, end, samples) for _, start, end in p) for p in passes]


def untraced_report(res, setups):
    """End-to-end metrics, lines for people and problems of an untraced run."""
    samples = res["samples"]
    job_times = {}
    for p in res["passes"]:
        for name, start, end in p:
            job_times.setdefault(name, []).append(speed.rescale(start, end, samples))
    metrics = {
        "setup_s": statistics.median(speed.rescale(*r["setup"], r["samples"]) for r in setups),
        "wall_s": statistics.median(pass_times(res["passes"], samples)),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw_setup = statistics.median(b - a for a, b in (r["setup"] for r in setups))
    raw_wall = statistics.median(sum(b - a for _, a, b in p) for p in res["passes"])
    spins = [b - a for a, b in samples]
    lines = [
        f"  setup_s      {metrics['setup_s']:.4f} s   (median of {len(setups)} fresh interpreters; "
        f"raw {raw_setup:.4f} s)",
        f"  wall_s       {metrics['wall_s']:.4f} s   (median of {len(res['passes'])} passes; "
        f"raw {raw_wall:.4f} s)",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
        *(f"  job {name:<20} median {statistics.median(t):.4f} s" for name, t in job_times.items()),
        f"  speed        {len(spins)} samples, median {statistics.median(spins) * 1000:.3f} ms "
        f"(reference {speed.NOMINAL_S * 1000:.3f} ms)",
    ]
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return metrics, lines, []


def traced_report(res, setups):
    """Per-layer metrics, lines for people and problems of a traced run."""
    traced = statistics.median(pass_times(res["traced_passes"], res["samples"]))
    untraced = statistics.median(pass_times(res["passes"], res["samples"]))
    layer = dict(res["layer"], **{"trace.wall_s": traced, "trace.untraced_wall_s": untraced,
                                  "trace.overhead_s": traced - untraced})
    units = layer_units()
    lines = [f"  trace overhead {traced - untraced:.4f} s "
             f"(traced {traced:.4f} s, untraced {untraced:.4f} s, median passes)",
             "  self time by function (warm-up and first traced pass):"]
    for name, (calls, total, own) in sorted(res["functions"].items(), key=lambda kv: -kv[1][2]):
        lines.append(f"    {name:<38} calls {calls:>8}  total {total:9.4f} s  self {own:9.4f} s")
    lines += [f"  {name:<34} {layer[name]:.6g} {unit}" for name, unit in units.items()]
    problems = [f"count differs between traced passes: {m}" for m in res["count_mismatch"]]
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
    return metrics, lines, problems


def run_workload(workload, seed, seconds, trace, smoke):
    """Measure one workload; return (result dict, lines for people)."""
    deadline = time.monotonic() + TIME_LIMIT
    workdir = ROOT / ".perfbench" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.make_plan(workload, seed, smoke)
    for name, text in plan.files.items():
        (workdir / name).write_bytes(text.encode("utf-8"))

    base = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    base += ["--smoke"] if smoke else []
    setups = []
    for i in range(0 if trace else 1 if smoke else SETUP_RUNS):
        path = workdir / f"setup-{i}.json"
        _worker(base + ["--setup-only", "--result", str(path)], deadline)
        setups.append(json.loads(path.read_text(encoding="utf-8")))
    result_path = workdir / "result.json"
    _worker(base + ["--seconds", str(seconds), "--trace", str(trace),
                    "--result", str(result_path)], deadline)
    res = json.loads(result_path.read_text(encoding="utf-8"))

    lines = [f"workload {workload} seed {seed}: {len(res['passes'])} untraced passes of "
             f"{len(plan.jobs)} jobs after {len(plan.warmup)} warm-up jobs"]
    report = traced_report if trace else untraced_report
    metrics, more_lines, problems = report(res, setups)
    lines += more_lines
    problems = res["problems"] + problems
    lines.append(f"  fail_rate    {res['failed'] / res['attempted']:.4g} "
                 f"({res['failed']} of {res['attempted']} jobs)")
    lines += [f"  FAIL {p}" for p in problems]
    env = environment({workload: res["sympy_loaded"]})
    (workdir / "env.json").write_text(json.dumps(env, indent=1), encoding="utf-8")
    lines.append("env " + json.dumps(env))
    result = {
        "correct": not problems and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="qtrace benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="only the smallest rung of each pass, one pass, one set-up run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtrace" / "cli.py").is_file():
        print(f"no qtrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    seconds = 0.0 if args.smoke else args.seconds
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, seconds, args.trace, args.smoke)
            print("\n".join(lines), flush=True)
    except (BenchError, ValueError) as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run a graphscan benchmark workload and print its metrics.

    python3 perfbench/run.py --workload roc-bbt --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run sets the workload up cold, warms up, then calls the workload's
end-to-end function in a closed loop (one caller, the next call after the
previous returns) for ``--seconds`` of wall-clock call time, with further cold
set-ups between the first calls, and checks every output outside the timed
region. Each call and set-up is timed twice: by the wall clock and by the
process's CPU clock. The gated times are CPU times, which leave out the time
the hypervisor gives the virtual CPU to other guests (see README.md). ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` splits the time into an untraced half and a
traced half and reports the per-layer metrics. ``--workload all`` runs every
workload, untraced and then traced, each in its own process, one at a time.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, the environment record and the spans go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS threads, pinned before numpy loads. One thread keeps the process's CPU
# time equal to the single caller's work: no BLAS worker spins beside it.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Untimed calls before the timed loop: times fall over the first few calls.
WARMUP_S = 1.5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import graphscan from this checkout's ``src``, or explain why not."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    try:
        import graphscan
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import graphscan from {SRC}: {exc}")
    if not Path(graphscan.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"run.py: graphscan loaded from {graphscan.__file__}, not {SRC}")


def git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "seed": seed,
    }


def timed_calls(wl, prepare, seed, seconds, tracer=None):
    """Call the workload in a closed loop for ``seconds`` of wall-clock call time.

    Returns (wall_times, cpu_times, outputs). Call i uses experiment seed
    call_seed(seed, i) and the graph ``prepare(progress)`` returns, which runs
    untimed before it; progress is the share of ``seconds`` used so far. An
    output is the call's return value, or the exception it raised.
    """
    from workloads import call_seed

    wall_times, cpu_times, outputs = [], [], []
    while not wall_times or sum(wall_times) < seconds:
        g = prepare(sum(wall_times) / seconds)
        index = len(wall_times)
        if tracer is not None:
            tracer.request = index
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.call(g, call_seed(seed, index))
        except Exception as exc:  # a failed call is counted, not fatal
            traceback.print_exc()
            out = exc
        cpu_times.append(time.process_time() - c0)
        wall_times.append(time.perf_counter() - t0)
        outputs.append(out)
    if tracer is not None:
        tracer.request = -1
    return wall_times, cpu_times, outputs


def rate_summary(wl, times, outputs) -> dict:
    """Reps per second over all calls together, of the median call, and of the
    tail percentile of call time with at least 10 calls beyond it."""
    import numpy as np

    per_rep = np.array([t / wl.reps_per_call for t, o in zip(times, outputs) if not isinstance(o, Exception)])
    out = {"calls": int(per_rep.size), "reps_per_call": wl.reps_per_call}
    if per_rep.size == 0:
        return out | {"reps_per_s": 0.0, "reps_per_s_median": 0.0}
    out["reps_per_s"] = 1.0 / float(per_rep.mean())
    out["reps_per_s_median"] = 1.0 / float(np.median(per_rep))
    if per_rep.size >= 11:
        k = int(100 * (per_rep.size - 10) // per_rep.size)
        out[f"reps_per_s_p{k}_of_call_time"] = 1.0 / float(np.percentile(per_rep, k))
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    env = environment(seed)

    setup_times, setup_wall_times = [], []
    graph = []

    def set_up():
        """One cold set-up: clear the spectrum cache, collect garbage, time wl.setup()."""
        workloads.clear_caches()
        graph.clear()  # drop the previous graph before building the next
        gc.collect()
        with tracer.installed() if tracer else nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            graph.append(wl.setup())
            setup_times.append(time.process_time() - c0)
            setup_wall_times.append(time.perf_counter() - t0)
        return graph[0]

    def prepare(progress):
        # The remaining set-ups of an untraced run are spread evenly over its
        # timed calls, so that set-up time samples the same stretch of machine
        # time as the calls do. A traced run sets up once.
        done = len(setup_times)
        if not trace and done < wl.setup_repeats and progress >= (done - 1) / (wl.setup_repeats - 1):
            return set_up()
        return graph[0]

    g = set_up()
    first_seed = workloads.call_seed(seed, 0)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < WARMUP_S:
        wl.call(g, first_seed)

    gc.collect()
    if trace:
        wall_times, times, outputs = timed_calls(wl, prepare, seed, seconds / 2)
        with tracer.installed():
            traced_wall_times, traced_times, traced_outputs = timed_calls(
                wl, prepare, seed, seconds / 2, tracer=tracer)
    else:
        wall_times, times, outputs = timed_calls(wl, prepare, seed, seconds)
        traced_wall_times, traced_times, traced_outputs = [], [], []
        while len(setup_times) < wl.setup_repeats:
            set_up()
    g = graph[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks, outside the timed region. Each listed problem fails its call.
    problems: dict[str, list[str]] = {}
    all_outputs = outputs + traced_outputs
    certified = {0, len(outputs) - 1} | ({len(outputs)} if traced_outputs else set())
    for i, out in enumerate(all_outputs):
        index = i if i < len(outputs) else i - len(outputs)
        key = f"call {i}"
        if isinstance(out, Exception):
            problems[key] = [f"raised {out!r}"]
            continue
        found = wl.check(g, workloads.call_seed(seed, index), out, certify=i in certified)
        if traced_outputs and i >= len(outputs) and index < len(outputs):
            plain = outputs[index]
            if not isinstance(plain, Exception) and wl.summary(out) != wl.summary(plain):
                found.append("traced output differs from the untraced output")
        if found:
            problems[key] = found
    try:
        reference = workloads.load_reference()[name]
        found = wl.compare(reference, wl.call(g, workloads.REFERENCE_SEED))
    except Exception as exc:  # a failed reference call is one more failed call
        found = [f"reference call raised {exc!r}"]
    if found:
        problems["reference call"] = found
    attempted = len(all_outputs) + 1
    failed = len(problems)

    untraced = rate_summary(wl, times, outputs)
    result = {"workload": name, "trace": int(trace), "env": env, "untraced": untraced,
              "untraced_wall": rate_summary(wl, wall_times, outputs),
              "setup_s_samples": setup_times, "setup_wall_s_samples": setup_wall_times,
              "call_s_samples": times + traced_times,
              "call_wall_s_samples": wall_times + traced_wall_times,
              "problems": problems}
    if trace:
        traced = rate_summary(wl, traced_times, traced_outputs)
        result["traced"] = traced
        result["traced_wall"] = rate_summary(wl, traced_wall_times, traced_outputs)
        ratio = traced["reps_per_s"] / untraced["reps_per_s"] if untraced["reps_per_s"] else 0.0
        n_reps = traced["calls"] * wl.reps_per_call
        metrics = tracing.layer_metrics(tracer.spans, max(n_reps, 1), ratio)
    else:
        metrics = {
            "reps_per_s": (untraced["reps_per_s"], "1/s"),
            "setup_s": (statistics.fmean(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_frac": (1.0 - failed / attempted, "frac"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        tracer.write(OUT / f"{stem}-spans.json")

    for key, found in problems.items():
        for p in found:
            print(f"{name}: CHECK FAILED {key}: {p}", file=sys.stderr)
    print(f"{name} seed {seed} trace {int(trace)}: {json.dumps(env)}")
    for label in ("untraced", "untraced_wall", "traced", "traced_wall"):
        if result.get(label):
            print(f"{name} {label}: " + ", ".join(f"{k} {v:.6g}" for k, v in result[label].items()))
    print(f"{name} setup: {len(setup_times)} set-ups, CPU median {statistics.median(setup_times):.6g} s, "
          f"wall-clock mean {statistics.fmean(setup_wall_times):.6g} s")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    print(f"{name} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} calls)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process, one at a time."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"run.py: {name} --trace {trace} exited with {proc.returncode}")
            last = json.loads(lines[-1])
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for key, metric in last["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("run.py: --seconds must be positive")
    import_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; expected one of {list(WORKLOADS)} or 'all'")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

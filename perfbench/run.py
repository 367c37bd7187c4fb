"""Benchmark of the ftg command line: four workloads, an end-to-end gate and
a traced per-layer run.

    python3 perfbench/run.py --workload gof-ftg --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/micro.py --seed 1        # per-layer microbenchmarks

Run from the root of a checkout; the package is imported from ``src/``.
Every command of a workload runs as ``ftgamma.cli.main`` in a fresh child
interpreter (perfbench/child.py), one child at a time, with the numpy/BLAS
thread pools capped at the number of usable cores. Command k of a run gets
the seed ``1000 * seed + k``; the fit-large input is drawn from ``seed``.
Children are started until the next one would end after ``--seconds``
(at least three commands, or two pairs when tracing).

``--trace 0`` reports the end-to-end metrics, each the median over the
run's commands: ``setup_s`` (fresh interpreter until the command is ready),
``wall_s`` (the command) and ``peak_rss_mb`` (the child's ru_maxrss).
``--trace 1`` runs each seed twice, untraced and then with every public
ftgamma function wrapped (tracer.py, layers.py), checks that both print the
same stdout, and reports the per-layer metrics plus trace.overhead_frac.
Every command's output is checked against reference.json (workloads.py);
the last stdout line is {"correct", "attempted", "failed", "metrics"}, and
the line before it records the machine, versions, commit and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 100.0
SEED_STRIDE = 1000

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (no package, a child crashed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def run_child(argv: list[str], trace: bool, data: str | None, env: dict) -> dict:
    t_spawn = time.perf_counter()
    spec = json.dumps({"argv": argv, "trace": trace, "data": data, "t_spawn": t_spawn})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), spec],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": "timeout", "stdout": "", "timed_out": True}
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 ref: dict, t_start: float) -> dict:
    w = workloads.WORKLOADS[name]
    deadline = t_start + seconds
    env = child_env()
    data = None
    if name == "fit-large":
        WORK.mkdir(exist_ok=True)
        data_path = WORK / f"fit-large-{seed}.txt"
        workloads.write_large_input(seed, data_path)
        data = str(data_path)
    plain, traced, problems = [], [], []
    attempted = failed = 0
    unit_s: list[float] = []
    try:
        k = 0
        while k < (2 if trace else 3) or (
                time.perf_counter() + statistics.median(unit_s) <= deadline):
            sub_seed = SEED_STRIDE * seed + k
            argv = w.argv(sub_seed, data)
            t0 = time.perf_counter()
            batch = [run_child(argv, False, data, env)]
            if trace:
                batch.append(run_child(argv, True, data, env))
            unit_s.append(time.perf_counter() - t0)
            for res in batch:
                res["seed"] = sub_seed
                out = workloads.check(name, res["stdout"], res["rc"], ref)
                attempted += out.attempted
                failed += out.failed
                problems += [f"seed {sub_seed}: {p}" for p in out.problems]
            if trace and batch[0]["stdout"] != batch[1]["stdout"]:
                problems.append(f"seed {sub_seed}: traced stdout differs from untraced")
            if trace and batch[1].get("span_violations", 0):
                problems.append(f"seed {sub_seed}: {batch[1]['span_violations']} spans "
                                "with negative self time or outside their parent")
            if any(r.get("timed_out") for r in batch):
                problems.append(f"seed {sub_seed}: command ran over {CHILD_TIMEOUT_S} s")
                break
            plain.append(batch[0])
            if trace:
                traced.append(batch[1])
            k += 1
    finally:
        if data is not None:
            Path(data).unlink(missing_ok=True)
            if not any(WORK.iterdir()):
                WORK.rmdir()
    if not plain:
        raise BenchError(f"no {name} command completed: {problems}")
    return {"workload": w, "seed": seed, "plain": plain, "traced": traced,
            "problems": problems, "attempted": attempted, "failed": failed}


def metrics_of(run: dict, trace: bool) -> dict[str, dict]:
    plain = run["plain"]
    if not trace:
        return {m: {"value": statistics.median(c[m] for c in plain), "unit": unit}
                for m, unit in END_TO_END.items()}
    wall_plain = statistics.median(c["wall_s"] for c in plain)
    wall_traced = statistics.median(c["wall_s"] for c in run["traced"])
    values = layers.per_layer(run["traced"], wall_traced / wall_plain - 1.0)
    return {m: {"value": v, "unit": layers.METRICS[m]} for m, v in values.items()}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
    }


def context(run: dict, seconds: float, trace: bool) -> dict:
    w = run["workload"]
    return {
        **environment(),
        "workload": w.name,
        "seed": run["seed"],
        "command_seeds": [c["seed"] for c in run["plain"]],
        "size": w.size,
        "why": w.why,
        "seconds": seconds,
        "trace": trace,
    }


def report(run: dict, trace: bool, seconds: float) -> dict:
    """Print the human summary and context line; return the result object."""
    w = run["workload"]
    n = len(run["plain"])
    metrics = metrics_of(run, trace)
    print(f"# workload {w.name}  seed {run['seed']}  trace {int(trace)}  "
          f"commands {n}{' x2 (untraced, traced)' if trace else ''}  size: {w.size}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    frac = run["failed"] / run["attempted"] if run["attempted"] else 0.0
    print(f"  {'fail_frac':<44} {frac:>14.6g} ratio  "
          f"({run['failed']} failed of {run['attempted']} attempted)")
    for p in run["problems"]:
        print(f"  CHECK FAILED {p}")
    print(json.dumps({"context": context(run, seconds, trace)}))
    return {"correct": not run["problems"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ftgamma" / "cli.py").is_file():
        print(f"perfbench: no ftgamma package under {SRC}", file=sys.stderr)
        return 2
    ref = workloads.load_reference()
    trace = bool(args.trace)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, trace, ref,
                               time.perf_counter())
            results[name] = report(run, trace, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

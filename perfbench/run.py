"""The dghom benchmark: a closed loop over one workload's ops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client sends one op at a
time and waits for it; each op runs in a fresh `python3` child
(perfbench/child.py) under a wall-clock timeout and an address-space
cap, and its answer goes through the correctness gate in workloads.py.

With --trace 0 the run sets up SETUPS times, then repeats passes over
the ops for --seconds and prints the end-to-end metrics of BENCHMARK.json
as medians over passes.  With --trace 1 it alternates untraced and
traced passes (tracer.py records spans inside the child) and prints the
per-layer metrics instead.  --workload all runs every workload in turn,
prefixing each metric with the workload name.  Human-readable lines come
first; the last line of standard output is the JSON result.

The speed a shared machine gives one CPU can drift by 45 % within minutes.
So the run stays on one CPU, times a fixed reference loop at its start
and after every op and set-up, and reports `pass_s` and `setup_s` scaled
to the reference speed: measured seconds times REF_NOMINAL_S over the
mean reference time on either side.  The measured wall times are
printed too.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUPS = 5                    # set-ups per run; setup_s is their median
OP_TIMEOUT_S = 40             # an op still running after this has failed
RUN_DEADLINE_S = 165          # no op of a run may run past this
ADDRESS_SPACE_CAP = 1 << 30   # bytes of virtual memory per op child
REF_REPS = 5                  # reference loops per speed sample (median)
REF_NOMINAL_S = 0.05          # one reference loop on an idle core of a 2.1 GHz Xeon
# PYTHONHASHSEED fixes set and dict order inside the children, so the
# same seed gives the same elimination order and the same counts.
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    resource.setrlimit(resource.RLIMIT_CPU, (OP_TIMEOUT_S + 5, OP_TIMEOUT_S + 5))


def reference_loop():
    """Fixed sparse row reduction over Fractions, the kind of work dghom's
    elimination does."""
    rows = {i: {(i * 7 + j * 5) % 61: Fraction((i + 2 * j) % 9 - 4, 1 + j % 4) for j in range(9)}
            for i in range(60)}
    pivots = {}
    for i in sorted(rows):
        vec = {k: x for k, x in rows[i].items() if x}
        while vec:
            col = min(vec)
            if col not in pivots:
                pivots[col] = vec
                break
            piv = pivots[col]
            factor = vec[col] / piv[col]
            for k, x in piv.items():
                w = vec.get(k, 0) - factor * x
                if w:
                    vec[k] = w
                else:
                    vec.pop(k, None)
    return len(pivots)


def reference_s():
    times = []
    for _ in range(REF_REPS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Spawns op children in one work directory, keeps the run's deadline
    and the latest reference-loop time."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.expected = workloads.load_expected()
        self.ref = reference_s()

    def scaled(self, seconds):
        """`seconds` just measured, at the reference speed."""
        before, self.ref = self.ref, reference_s()
        return seconds * REF_NOMINAL_S / ((before + self.ref) / 2)

    def spawn(self, spec):
        """Run one child; returns (exit code, or None on timeout; wall s; peak RSS MB)."""
        name = spec["op"]
        spec_path = os.path.join(self.work, f"{name}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = max(1.0, min(OP_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(os.path.join(self.work, f"{name}.err"), "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                    cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    preexec_fn=_limit_child)
            pidfd = os.pidfd_open(proc.pid)
            try:
                finished = bool(select.select([pidfd], [], [], timeout)[0])
            finally:
                os.close(pidfd)
            if not finished:
                proc.kill()
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode if finished else None), wall, usage.ru_maxrss / 1024

    def stderr_tail(self, name):
        with open(os.path.join(self.work, f"{name}.err"), encoding="utf-8") as fh:
            return fh.read()[-400:].strip()

    def setup(self, workload, seed):
        """Generate the inputs and load + validate each in a fresh child;
        returns (wall s, the same at reference speed, input paths)."""
        start = time.perf_counter()
        paths = workloads.write_inputs(workload, seed, self.work)
        for name, path in paths.items():
            code, _wall, _rss = self.spawn({"op": f"setup_{name}", "kind": "setup",
                                            "argv": [path], "out": None, "trace": None})
            if code != 0:
                raise SystemExit(f"set-up of input {name} failed (exit {code}): "
                                 f"{self.stderr_tail(f'setup_{name}')}")
        wall = time.perf_counter() - start
        return wall, self.scaled(wall), paths

    def run_pass(self, workload, paths, traced):
        """One pass over the workload's ops: times, peak RSS, failures, spans."""
        result = {"wall_s": 0.0, "pass_s": 0.0, "rss_mb": 0.0, "failed": 0,
                  "spans": [], "startup_s": 0.0}
        for label, kind, args in workloads.WORKLOADS[workload]:
            out = os.path.join(self.work, f"{label}.out.json")
            trace = os.path.join(self.work, f"{label}.spans.json") if traced else None
            for path in (out, trace):
                if path and os.path.exists(path):
                    os.remove(path)
            code, wall, rss = self.spawn({"op": label, "kind": kind, "out": out, "trace": trace,
                                         "argv": workloads.op_argv(args, paths)})
            result["wall_s"] += wall
            result["pass_s"] += self.scaled(wall)
            result["rss_mb"] = max(result["rss_mb"], rss)
            if code is None:
                errors = [f"timed out after {OP_TIMEOUT_S} s"]
            elif code != 0:
                errors = [f"exit code {code}: {self.stderr_tail(label)}"]
            else:
                with open(out, encoding="utf-8") as fh:
                    errors = workloads.gate(label, json.load(fh), self.expected)
            if errors:
                result["failed"] += 1
                print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)
            if traced and os.path.exists(trace):
                with open(trace, encoding="utf-8") as fh:
                    spans = json.load(fh)["spans"]
                result["spans"].append(spans)
                root = spans[0]
                result["startup_s"] += wall - (root[2] - root[1])
        return result


def src_lines():
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "dghom", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def _times(label, values):
    return f"  {label}: " + " ".join(f"{v:.3f}" for v in values) + " s"


def measure(runner, workload, seed, seconds, trace):
    """One run of one workload; returns (attempted, failed, metrics, lines)."""
    setups = []
    for _ in range(SETUPS):
        wall, scaled, paths = runner.setup(workload, seed)
        setups.append((wall, scaled))
    n_ops = len(workloads.WORKLOADS[workload])
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass(workload, paths, traced=False))
        if trace:
            traced.append(runner.run_pass(workload, paths, traced=True))
        elapsed = time.perf_counter() - start
        step = elapsed / len(plain)
        if elapsed + step > seconds or time.monotonic() + step > runner.deadline:
            break
    passes = plain + traced
    attempted = n_ops * len(passes)
    failed = sum(p["failed"] for p in passes)
    lines = [f"workload {workload}, seed {seed}: {len(plain)} untraced"
             + (f" + {len(traced)} traced" if trace else "")
             + f" passes of {n_ops} ops, {SETUPS} set-ups",
             f"  fail_ratio = {failed}/{attempted} = {failed / attempted:g}",
             _times("set-up wall times", [w for w, _ in setups]),
             _times("pass wall times", [p["wall_s"] for p in plain]),
             _times("pass times at reference speed", [p["pass_s"] for p in plain])]
    if not trace:
        metrics = {
            "pass_s": statistics.median(p["pass_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
            "setup_s": statistics.median(s for _, s in setups),
        }
        return attempted, failed, metrics, lines
    per_pass = [tracer.layer_metrics(p["spans"]) for p in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["op.startup_s"] = statistics.median(p["startup_s"] for p in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["src_lines"] = src_lines()
    accounted = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
    lines.append(f"  layer self times + op start-up account for {accounted:.3f} s "
                 f"of the {metrics['trace.traced_wall_s']:.3f} s traced pass")
    return attempted, failed, metrics, lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "dghom")):
        print(f"no dghom sources under {SRC}: run from the root of a dghom checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    # the reference loop and the op children share one CPU (children inherit it)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    attempted = failed = 0
    result = {}
    try:
        for name in names:
            runner = Runner(work, time.monotonic() + RUN_DEADLINE_S)
            a, f, metrics, lines = measure(runner, name, args.seed, args.seconds, args.trace)
            if set(metrics) != set(units):
                raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} "
                                 "do not match BENCHMARK.json")
            attempted += a
            failed += f
            print("\n".join(lines))
            for key in sorted(metrics):
                print(f"  {key} = {metrics[key]:.6g} {units[key]}")
                label = key if len(names) == 1 else f"{name}.{key}"
                result[label] = {"value": metrics[key], "unit": units[key]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

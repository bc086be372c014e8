"""isslab benchmark: one workload, measured as fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every operation is one program process,
timed from spawn to exit, with its peak resident memory taken from the
kernel's accounting for that child; its outputs are checked before it
counts as done.

--trace 0 gives the end-to-end metrics: run_s (median of the workload
iterations that fit in S seconds, at least MIN_ITERS), setup_s (median of
SETUP_REPS runs of the same command scaled to zero work) and peak_rss_mb.
--trace 1 alternates untraced and traced iterations and gives the
per-layer metrics from the traced ones (see tracer.py), plus the tracing
overhead against the untraced ones.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  An operation fails on a non-zero exit, a failed
output check, or a result that differs between iterations of one seed;
fail_frac = failed / attempted.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from tracer import SITES, Tracer, aggregate
from workloads import BENCH_DIR, WORKLOADS, check, load_reference, output_bytes, output_digest

SETUP_REPS = 3
MIN_ITERS = 3
# a run ends within 180 s: operations still running at this point are killed
# and count as failed
RUN_DEADLINE_S = 160.0


def spawn(cmd: list[str], env: dict, errlog: Path,
          timeout: float) -> tuple[float, float, int]:
    """Run cmd to completion; return (wall seconds, peak RSS in MB, exit
    code).  A process still running after timeout seconds is killed."""
    with open(errlog, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Runner:
    """Runs and checks the operations of one workload in one work dir."""

    def __init__(self, root: Path, name: str, seed: int):
        self.w = WORKLOADS[name]
        self.seed = self.w.program_seed(seed)
        self.ref = load_reference()
        self.work = root / ".bench_work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        pypath = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pypath))}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.spans_path = self.work / "spans.json"
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def op(self, setup: bool = False, traced: bool = False) -> tuple[float, float]:
        if time.perf_counter() >= self.deadline:
            raise TimeoutError(f"stopped after the {RUN_DEADLINE_S:.0f} s run deadline")
        # outputs of an earlier operation must not pass for this one's
        shutil.rmtree(self.w.out_dir(self.work, setup), ignore_errors=True)
        self.spans_path.unlink(missing_ok=True)
        argv = self.w.argv(self.work, self.seed, setup)
        if traced:
            target = "cli" if self.w.command else "fp-iss"
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"),
                   str(self.spans_path), target, *argv]
        elif self.w.command:
            cmd = [sys.executable, "-m", "isslab.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "fp_iss.py"), *argv]
        errlog = self.work / "stderr.log"
        timeout = max(0.0, self.deadline - time.perf_counter())
        wall, rss, code = spawn(cmd, self.env, errlog, timeout)
        self.attempted += 1
        if code != 0:
            tail = errlog.read_text(errors="replace").strip().splitlines()[-3:]
            problems = [f"exit {code}: {' | '.join(tail)}"]
        else:
            problems = check(self.w, self.work, self.seed, setup, self.ref)
            if not setup and not problems:
                self.digests.add(output_digest(self.w, self.work))
                if len(self.digests) > 1:
                    problems = ["result differs from an earlier iteration"]
        if problems:
            self.failed += 1
            kind = "setup" if setup else "traced" if traced else "run"
            self.problems.append(f"{kind} #{self.attempted}: {'; '.join(problems)}")
        return wall, rss


def span_cost_s(n: int = 20_000) -> float:
    """Measured cost of one traced call, from wrapping a no-op here."""
    noop = Tracer("calibration").wrap("noop", lambda: None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    return (time.perf_counter() - t0) / n


def fits(t0: float, expected: float, seconds: float) -> bool:
    """Whether one more operation of the expected length ends within
    seconds of t0."""
    return time.perf_counter() - t0 + expected <= seconds


def measure_end_to_end(r: Runner, seconds: float) -> dict:
    setups = [r.op(setup=True)[0] for _ in range(SETUP_REPS)]
    walls, rss = [], []
    t0 = time.perf_counter()
    while len(walls) < MIN_ITERS or fits(t0, statistics.median(walls), seconds):
        wall, mem = r.op()
        walls.append(wall)
        rss.append(mem)
    q1, med, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    print(f"run_s median {med:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
          f"n={len(walls)}")
    print(f"setup_s runs: {' '.join(f'{s:.4f}' for s in setups)} s")
    print(f"peak_rss_mb runs: {' '.join(f'{m:.1f}' for m in rss)} MB")
    return {
        "run_s": (med, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def measure_per_layer(r: Runner, seconds: float) -> dict:
    plain, traced, imports, layers = [], [], [], []
    t0 = time.perf_counter()
    while not traced or fits(t0, plain[-1] + traced[-1], seconds):
        plain.append(r.op()[0])
        traced.append(r.op(traced=True)[0])
        try:
            dump = json.loads(r.spans_path.read_text())
        except (OSError, ValueError):
            continue  # the failed operation is already counted
        imports.append(dump["import_s"])
        statuses = dump["sites"]
        layers.append(aggregate(dump["spans"]))
    out_bytes = output_bytes(r.w, r.work) if r.w.command else 0
    metrics = {
        "cli.out_bytes": (out_bytes, "bytes"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
    }
    if imports:
        metrics["import.s"] = (statistics.median(imports), "s")
    print(f"traced runs: {' '.join(f'{s:.4f}' for s in traced)} s; "
          f"untraced runs: {' '.join(f'{s:.4f}' for s in plain)} s")
    if not layers:
        return metrics  # every traced operation failed, and is counted
    spans = sum(a["calls"] for a in layers[-1].values())
    cost = span_cost_s()
    print(f"tracing cost estimate: {spans} spans x {cost * 1e6:.2f} us = "
          f"{spans * cost:.4f} s per iteration")
    for site in SITES:
        status = statuses.get(site, "absent")
        if status == "absent":
            print(f"{site}: absent (no such function in the program)")
            continue
        per_iter = [agg.get(site, {"calls": 0, "s": 0.0, "total_s": 0.0})
                    for agg in layers]
        calls = statistics.median_low(a["calls"] for a in per_iter)
        metrics[f"{site}.calls"] = (calls, "count")
        if calls:
            self_s = statistics.median(a["s"] for a in per_iter)
            total_s = statistics.median(a["total_s"] for a in per_iter)
            print(f"{site}: calls {calls}, self {self_s:.6f} s, "
                  f"total {total_s:.6f} s")
    return metrics


def machine_block(root: Path) -> dict:
    """Hardware and software provenance, best effort."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "jobs": 1}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = "missing"
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
        caches = []
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((d / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            caches.append(f"L{level} {kind} {size}")
        info["caches_per_cpu0"] = caches
    except OSError:
        info.setdefault("cpu", "unknown")
    info["openblas_threads"] = _openblas_threads()
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
        info["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        info["git_commit"] = "unknown"
    return info


def _openblas_threads():
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    try:
        import numpy
    except ImportError:
        return env or "unknown"
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return env or "unknown"


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """Measure one workload; print its metrics by name and return the
    result object."""
    w = WORKLOADS[name]
    print(f"workload {w.name} (seed {seed}, trace {trace}): {w.why}")
    r = Runner(root, name, seed)
    try:
        if trace:
            metrics = measure_per_layer(r, seconds)
        else:
            metrics = measure_end_to_end(r, seconds)
    except TimeoutError as exc:
        r.problems.append(str(exc))
        metrics = {}
    metrics["fail_frac"] = (r.failed / max(r.attempted, 1), "ratio")
    for problem in r.problems:
        print(f"FAILED {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value} {unit}")
    if not trace:
        # fail_frac is 0 on a correct run, so it is reported with the
        # per-layer metrics, not as a bounded end-to-end metric
        del metrics["fail_frac"]
    return {
        "correct": not r.problems,
        "attempted": max(r.attempted, 1),
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload, untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "isslab" / "cli.py").is_file():
        print(f"bench: no isslab sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_block(root), sort_keys=True))
    if args.workload != "all":
        result = run_workload(root, args.workload, args.seed, args.seconds,
                              args.trace)
        print(json.dumps(result))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(root, name, args.seed, args.seconds, trace)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = value
            print()
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

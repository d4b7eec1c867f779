"""insiderlab benchmark: seeded closed-loop workloads over the experiment API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and driven only through ``experiments.resolve_config`` and
``experiments.run_experiment``.  One client repeats the workload's cycle of
configs, each op after the previous one has written its CSV/JSON, in whole
cycles until ``--seconds`` have passed.  With ``--trace 0`` the last line of
standard output is the JSON result with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of the traced cycles.  The lines
before it are the human-readable report.  See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy loads, so that
# workers=2 never puts more than two busy threads on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

from tracer import PER_LAYER, Tracer
from workloads import DETERMINISTIC_CHECKS, WORKLOADS, op_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "paths_per_s": "paths/s",
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}

SETUP_REPEATS = 5

# A fresh interpreter pays this on every `insider-lab run`: importing the
# package and resolving configs (read from stdin).  The probe times itself,
# so interpreter start-up and the pipe are left out.  A config that
# resolve_config rejects (InvalidConfigError, a ValueError) still costs its
# resolve, and the probe goes on.
SETUP_PROBE = (
    "import json, sys, time\n"
    "configs = json.load(sys.stdin)\n"
    "start = time.perf_counter()\n"
    "import insiderlab.experiments as e\n"
    "for raw in configs:\n"
    "    try:\n"
    "        e.resolve_config(raw)\n"
    "    except ValueError:\n"
    "        pass\n"
    "print(time.perf_counter() - start)\n"
)


def import_program():
    """The checkout's own ``insiderlab.experiments``, never an installed one."""
    package = SRC / "insiderlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no insiderlab sources at {package}")
    sys.path.insert(0, str(SRC))
    import insiderlab.experiments as experiments

    if Path(experiments.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported {experiments.__file__}, "
                         f"not the checkout's sources")
    return experiments


@dataclass
class Op:
    index: int
    label: str
    workers: int
    seconds: float
    paths: int = 0
    status: str = "ok"
    digest: str | None = None
    stat_run: int = 0
    stat_failed: int = 0
    wrong: bool = False  # it produced an output, and the output is wrong

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def fail(self, status: str) -> None:
        self.status = status
        self.wrong = True


def run_op(experiments, workload, seed, index, workers, out_dir,
           tracer=None) -> Op:
    """Resolve and run one op; classify its outcome and hash its CSV."""
    raw = op_config(workload, seed, index)
    p = raw["params"]
    label = (f"{raw['experiment']} n_steps={raw['n_steps']} "
             f"t0={p.get('t0', 0)} r={p.get('r', 0)}")
    start = time.perf_counter()
    try:
        cfg = experiments.resolve_config(raw)
        csv = Path(out_dir) / f"{cfg['experiment']}.csv"
        csv.unlink(missing_ok=True)
        if tracer is not None:
            tracer.begin_op(index, float(cfg["params"].get("T", 1.0)))
        start = time.perf_counter()
        summary = experiments.run_experiment(cfg, out_dir, workers=workers)
        seconds = time.perf_counter() - start
    except Exception as e:  # a raising op is a failed op, not a crash
        return Op(index, label, workers, time.perf_counter() - start,
                  status=f"raised {type(e).__name__}: {e}")
    op = Op(index, label, workers, seconds,
            paths=cfg["n_fields"] if cfg["experiment"] == "hjb-residual"
            else cfg["n_paths"])
    checks = summary.get("checks", [])
    failed_det = [c["name"] for c in checks
                  if c["name"] in DETERMINISTIC_CHECKS and not c["passed"]]
    statistical = [c for c in checks if c["name"] not in DETERMINISTIC_CHECKS]
    op.stat_run = len(statistical)
    op.stat_failed = sum(not c["passed"] for c in statistical)
    if "verdict" not in summary:
        op.fail("returned no verdict")
    elif failed_det:
        op.fail("failed " + ", ".join(failed_det))
    if csv.is_file():
        op.digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    else:
        op.fail(f"wrote no {csv.name}")
    return op


def timed_cycle(experiments, workload, seed, first, workers, out_dir,
                tracer=None) -> tuple[list[Op], float]:
    """One cycle of ops ``first``, ``first + 1``, ...: (ops, wall s)."""
    start = time.perf_counter()
    ops = [run_op(experiments, workload, seed, first + i, workers, out_dir,
                  tracer) for i in range(len(workload.cycle))]
    return ops, time.perf_counter() - start


def run_cycles(experiments, workload, seed, workers, out_dir,
               seconds) -> tuple[list[Op], float, int]:
    """Whole cycles until ``seconds`` have passed: (ops, wall s, cycles)."""
    ops: list[Op] = []
    cycles = 0
    start = time.perf_counter()
    while True:
        ops += timed_cycle(experiments, workload, seed, len(ops), workers,
                           out_dir)[0]
        cycles += 1
        wall = time.perf_counter() - start
        if wall >= seconds:
            return ops, wall, cycles


def mark_mismatch(op: Op, other: Op, what: str) -> None:
    """Fail ``op`` when a rerun of the same config gave other CSV bytes."""
    if op.ok and other.ok and op.digest != other.digest:
        op.fail(f"CSV differs from {what}")


def verdict_times(ops: list[Op], wall: float) -> list[float]:
    # A failed op misses any latency limit: it counts as taking the whole
    # measured wall time, longer than any completed op.
    return [op.seconds if op.ok else wall for op in ops]


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten ops beyond it.

    Up to 20 ops no percentile above the median has ten ops beyond it; the
    median is reported then.
    """
    n = len(times)
    if n - 10 <= n / 2:
        return 50.0, statistics.median(times)
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` pool workers at their peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def measure_setup(workload) -> list[float]:
    """Seconds of SETUP_REPEATS fresh probes over the workload's cycle."""
    configs = [op_config(workload, 0, i) for i in range(len(workload.cycle))]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                             env=env, input=json.dumps(configs), text=True,
                             stdout=subprocess.PIPE, check=True)
        times.append(float(out.stdout))
    return times


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                  "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True,
                                 text=True, timeout=10)
            caches[level] = out.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            caches[level] = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "caches_bytes": caches,
    }


def report_ops(ops: list[Op], title: str) -> None:
    print(f"# {title}")
    for op in ops:
        digest = op.digest[:16] if op.digest else "-"
        print(f"  op {op.index:3d} w={op.workers} {op.seconds:8.4f} s  "
              f"{op.label:<45} sha256={digest}  {op.status}")


def cycle_digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update((op.digest or op.status).encode())
    return h.hexdigest()


def timed_run(experiments, workload, args, out_dir):
    """End-to-end metrics: (metrics, measured ops, every op run)."""
    workers = workload.workers
    setup = measure_setup(workload)
    warm = run_op(experiments, workload, args.seed, 0, workers, out_dir)
    ops, wall, cycles = run_cycles(experiments, workload, args.seed, workers,
                                   out_dir, args.seconds)
    rss = peak_rss_mb(workers)
    mark_mismatch(ops[0], warm, "the warm-up run of the same config")

    # Byte identity across worker counts, on one seed-chosen op per run.
    ok = [op for op in ops if op.ok]
    other = 2 if workers == 1 else 1
    cross = None
    if ok:
        target = ok[args.seed % len(ok)]
        cross = run_op(experiments, workload, args.seed, target.index, other,
                       out_dir)
        mark_mismatch(target, cross, f"the same config at workers={other}")

    times = verdict_times(ops, wall)
    pct, tail_s = tail(times)
    done = [op for op in ops if op.ok]
    n_failed = len(ops) - len(done)
    metrics = {
        "setup_s": statistics.median(setup),
        "paths_per_s": sum(op.paths for op in done) / wall,
        "verdict_s.p50": statistics.median(times),
        "verdict_s.tail": tail_s,
        "peak_rss_mb": rss,
        "ops_ok_frac": len(done) / len(ops),
    }

    report_ops([warm], "warm-up (untimed)")
    report_ops(ops, f"timed: {cycles} cycle(s), {wall:.3f} s")
    if cross is not None:
        report_ops([cross], "worker-count cross-check (untimed)")
    print(f"# cycle 0 CSV sha256: {cycle_digest(ops[:len(workload.cycle)])}")
    print(f"# setup_s runs: {', '.join(f'{t:.4f}' for t in setup)}")
    print(f"# verdict_s.tail is p{pct:.1f} of {len(ops)} ops")
    print(f"# ops_failed_frac: {n_failed / len(ops):.6f} ratio "
          f"({n_failed} of {len(ops)} ops)")
    stat_run = sum(op.stat_run for op in done)
    stat_failed = sum(op.stat_failed for op in done)
    print(f"# statistical checks failed: {stat_failed} of {stat_run}")
    return metrics, ops, [warm, *ops] + ([cross] if cross else [])


def traced_run(experiments, workload, args, out_dir):
    """Per-layer metrics of traced cycles: (metrics, traced ops, every op).

    Until ``--seconds`` have passed, each cycle runs untraced and then traced
    on the same ops; the untraced twin is the reference for the tracing
    overhead, and on a pooled workload for the parallel efficiency.
    """
    workers = workload.workers
    size = len(workload.cycle)
    warm = run_op(experiments, workload, args.seed, 0, workers, out_dir)
    serial = []
    if workers > 1:
        # Just before the first untraced cycle, which runs the same ops.
        serial, serial_s = timed_cycle(experiments, workload, args.seed, 0, 1,
                                       out_dir)
    every, traced, plain_times, overheads = [warm, *serial], [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        first = len(traced)
        plain, plain_s = timed_cycle(experiments, workload, args.seed, first,
                                     workers, out_dir)
        with tracer:
            ops, traced_s = timed_cycle(experiments, workload, args.seed,
                                        first, workers, out_dir, tracer)
        for op, base in zip(ops, plain):
            mark_mismatch(op, base, "the untraced run of the same config")
        plain_times.append(plain_s)
        overheads.append(traced_s / plain_s - 1.0)
        traced += ops
        every += plain + ops
        report_ops(ops, f"traced cycle: {traced_s:.3f} s against "
                        f"{plain_s:.3f} s untraced")
    efficiency = 1.0
    if serial:
        efficiency = serial_s / (workers * plain_times[0])
        for op, base in zip(serial, traced):
            mark_mismatch(op, base, f"the same config at workers={workers}")

    metrics = tracer.metrics(len(traced) // size,
                             statistics.median(overheads), efficiency)
    if serial:
        report_ops(serial, "workers=1 cycle for parallel efficiency")
    for key in sorted(tracer.unmeasured):
        print(f"# unmeasured: {key}")
    return metrics, traced, every


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    experiments = import_program()
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} workers={workload.workers}")
        print(f"# environment: {json.dumps(environment(), sort_keys=True)}")
        run = traced_run if args.trace else timed_run
        metrics, measured, every = run(experiments, workload, args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        value = metrics[name]
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"{name:<55} {shown:>14} {unit}")
    result = {
        "correct": not any(op.wrong for op in every),
        "attempted": len(measured),
        "failed": sum(not op.ok for op in measured),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

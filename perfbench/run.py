"""berrygate benchmark: one workload per run, every pass timed against a
fixed reference kernel and every output checked apart from the program.

    python3 perfbench/run.py --workload cphase-grid --seed 1 --seconds 15 --trace 0

The program runs in a worker process of its own (`worker.py`); this
process times each pass, runs the reference kernel between passes and checks
every output.  With `--trace 0` the last line of standard output is one JSON
object with the end-to-end metrics `setup_s`, `pass_ref` and `peak_rss_mb`;
with `--trace 1` it carries the per-layer metrics of a traced run instead.
Run records (host, inputs, every pass, spans) go to `perfbench/out/`.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import platform
import statistics
import subprocess
import sys
import time

import bootstrap

PROBES = 5
# Calls of each reference kernel in the short windows between set-up probes.
PROBE_REF_CALLS = (3, 2)
WORKER_EXIT_TIMEOUT_S = 30
# Set-up time is reported in seconds of a host on which one mix of the
# reference kernel takes this long.
NOMINAL_REF_S = 1.0
# The reference window after a pass lasts at least this share of the pass,
# and the one before the first pass at least REF_FIRST_S: a 1 s reference
# around a 30 s pass samples the host too briefly to stand for it.
REF_SHARE = 0.15
REF_FIRST_S = 2.0


def _blas_record() -> dict:
    import ctypes
    import glob
    import os

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "threads_env": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS}}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "libscipy_openblas*"))
    for lib in libs:
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            record["threads"] = get()
    return record


def host_record(args) -> dict:
    import os

    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": _blas_record(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_seconds(probes: list[dict]) -> float:
    return NOMINAL_REF_S * _median([p["wall_s"] / p["ref_s"] for p in probes])


class WorkerError(RuntimeError):
    pass


class Worker:
    """The worker process (`worker.py`) that runs the program; see there
    for the requests."""

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(bootstrap.ROOT / "perfbench" / "worker.py"), workload,
             str(seed)], cwd=bootstrap.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def request(self, *request):
        try:
            pickle.dump(request, self.proc.stdin)
            self.proc.stdin.flush()
            return pickle.load(self.proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError) as exc:
            raise WorkerError(f"worker ended during {request[0]!r}: {exc!r}") from exc

    def checked(self, *request):
        status, value = self.request(*request)
        if status != "ok":
            raise WorkerError(f"{request[0]!r} failed in the worker:\n{value}")
        return value

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            pickle.dump(("exit",), self.proc.stdin)
            self.proc.stdin.flush()
        except OSError:
            pass
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=WORKER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Wall time of fresh workers, from spawn to exit, that import berrygate
    and make the workload's warm-up call, each with the reference time
    around it."""
    from refkernel import reference_calls, reference_seconds

    probes = []
    calls = reference_calls(0.0, *PROBE_REF_CALLS)
    for _ in range(PROBES):
        t0 = time.perf_counter()
        with Worker(workload, seed) as worker:
            worker.checked("warm_up")
        wall = time.perf_counter() - t0
        calls_before, calls = calls, reference_calls(0.0, *PROBE_REF_CALLS)
        probes.append({"wall_s": wall, "ref_s": math.sqrt(
            reference_seconds(calls_before) * reference_seconds(calls))})
    return probes


class PassLog:
    def __init__(self):
        self.passes: list[dict] = []
        self.problems: list[str] = []  # wrong outputs
        self.errors: list[str] = []  # operations that raised
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def ref_ratios(self) -> list[float]:
        return [p["wall_s"] / p["ref_s"] * p["scale"] for p in self.passes]


def run_rounds(workload, worker: Worker, seconds: float, log: PassLog) -> None:
    """Whole rounds until `seconds` have passed (at least one).  The worker
    runs each operation; each pass is followed by a reference measurement
    here, so every pass has one just before and one just after it."""
    from refkernel import reference_calls, reference_seconds

    calls = reference_calls(REF_FIRST_S)
    t_start = time.perf_counter()
    first = log.rounds
    while log.rounds == first or time.perf_counter() - t_start < seconds:
        for index, op in enumerate(workload.round()):
            log.attempted += op.count
            t0 = time.perf_counter()
            status, out = worker.request("run", index)
            wall = time.perf_counter() - t0
            if status != "ok":
                log.failed += op.count
                log.errors.append(f"{op.label}: {out}")
                calls = reference_calls(REF_SHARE * wall)
                continue
            calls_before, calls = calls, reference_calls(REF_SHARE * wall)
            log.problems += [f"{op.label}: {p}" for p in op.check(out)]
            log.passes.append({
                "label": op.label, "wall_s": wall, "scale": op.scale,
                "ref_s": math.sqrt(reference_seconds(calls_before) * reference_seconds(calls)),
                "ref_calls": [calls_before, calls],
            })
        log.rounds += 1


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(workload, worker: Worker, seconds: float,
               probes: list[dict]) -> tuple[dict, list[PassLog], dict]:
    log = PassLog()
    run_rounds(workload, worker, seconds, log)
    stats = worker.checked("stats")
    metrics = {
        "setup_s": {"value": setup_seconds(probes), "unit": "s"},
        "pass_ref": {"value": _median(log.ref_ratios()), "unit": "ref"},
        "peak_rss_mb": {"value": stats["maxrss_kb"] / 1024.0, "unit": "MB"},
    }
    return metrics, [log], {}


def per_layer(workload, worker: Worker, seconds: float) -> tuple[dict, list[PassLog], dict]:
    """Untraced rounds for half the time, then traced rounds for the rest."""
    import tracer as tracing

    plain, traced = PassLog(), PassLog()
    run_rounds(workload, worker, seconds / 2, plain)
    worker.checked("trace")
    run_rounds(workload, worker, seconds / 2, traced)
    stats = worker.checked("stats")
    values, absent = tracing.layer_metrics(stats["spans"], stats["absent"], traced.rounds)
    walls = [[p["wall_s"] for p in log.passes] for log in (plain, traced)]
    values["host.pass_s"] = _median(walls[0])
    values["host.ref_s"] = _median([p["ref_s"] for p in plain.passes + traced.passes])
    values["host.trace_overhead_s"] = (statistics.fmean(walls[1]) - statistics.fmean(walls[0])
                                       if all(walls) else float("nan"))
    units = {k: v[0] for table in (tracing.LAYER_METRICS, tracing.DERIVED_METRICS,
                                   tracing.HOST_METRICS) for k, v in table.items()}
    if absent:
        print("# absent (wrapped function not found): " + ", ".join(absent))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return metrics, [plain, traced], {"spans": stats["spans"], "absent": absent,
                                      "traced_rounds": traced.rounds}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    bootstrap.pin_threads()
    try:
        bootstrap.import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    bootstrap.OUT.mkdir(parents=True, exist_ok=True)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    host = host_record(args)
    print("# host " + json.dumps(host), flush=True)
    workload = WORKLOADS[args.workload](args.seed, bootstrap.OUT)
    try:
        # Set-up time is an end-to-end metric; a traced run does not report it.
        probes = [] if args.trace else measure_setup(args.workload, args.seed)
        with Worker(args.workload, args.seed) as worker:
            worker.checked("warm_up")
            if args.trace:
                metrics, logs, extra = per_layer(workload, worker, args.seconds)
            else:
                metrics, logs, extra = end_to_end(workload, worker, args.seconds, probes)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [p for log in logs for p in log.problems]
    errors = [e for log in logs for e in log.errors]
    record = {"host": host, "inputs": workload.inputs, "setup_probes": probes,
              "passes": [log.passes for log in logs], "problems": problems,
              "errors": errors, "metrics": metrics, **extra}
    out_file = bootstrap.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    for line in problems + errors:
        print(f"# wrong or failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(log.attempted for log in logs),
                      "failed": sum(log.failed for log in logs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

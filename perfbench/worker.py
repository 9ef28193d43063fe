"""Worker process: the only process that runs the program under test.

The benchmark starts one worker per run.  The worker imports berrygate,
builds the same workload from the same seed as the benchmark, and then
serves requests read from standard input, one pickled tuple each:

- `("warm_up",)`: the workload's warm-up call;
- `("run", i)`: operation `i` of a round; the reply is `("ok", output)` or
  `("error", traceback)`;
- `("trace",)`: install the per-layer tracer;
- `("stats",)`: the peak resident memory of this process and, if tracing,
  the aggregated spans;
- `("exit",)`: end.

Replies go back pickled on the original standard output; anything the
program prints goes to standard error.  The reference kernel and the output
checks run in the benchmark's process, so the worker's peak resident memory
is the program's own plus the interpreter with numpy, scipy and berrygate.

    python3 perfbench/worker.py <workload> <seed>
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
import traceback

import bootstrap


def serve(workload_name: str, seed: int) -> None:
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr
    requests = sys.stdin.buffer

    bootstrap.pin_threads()
    bootstrap.import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, bootstrap.OUT)
    ops = workload.round()
    tracer = None

    def handle(request):
        nonlocal tracer
        kind = request[0]
        if kind == "warm_up":
            return workload.warm_up()
        if kind == "run":
            return ops[request[1]].call()
        if kind == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            return None
        if kind == "stats":
            return {
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "spans": tracer.stats if tracer else {},
                "absent": tracer.absent if tracer else [],
            }
        raise ValueError(f"unknown request {request!r}")

    while True:
        try:
            request = pickle.load(requests)
        except EOFError:
            return
        if request[0] == "exit":
            return
        try:
            reply = ("ok", handle(request))
        except Exception:
            reply = ("error", traceback.format_exc())
        pickle.dump(reply, replies)
        replies.flush()


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]))

"""One fresh interpreter of the benchmark: a README command, an in-process
pass, or a set-up probe.  Started by run.py; prints one JSON line.

The spec (first argument, JSON) carries the workload, seed, size, the
parent's ``perf_counter`` at spawn time (CLOCK_MONOTONIC is shared by all
processes, so set-up is measured from interpreter start), and whether to
trace.  Set-up ends when the program is ready to run its first operation:
``sublin`` imported and, in process, the models loaded and phi parsed.

While it runs, an interval timer interrupts it every SAMPLE_EVERY_S seconds
to time one calibration slice (calibrate.py), so the host's speed is sampled
on the same CPU and at the same moments as the work.  The slices' own time
is reported apart and left out of every timing.  A traced interpreter runs
no timer, so that no slice lands inside a span; it times a slice before the
import, after set-up and after each operation instead.
"""

import contextlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402  (built-in modules only)

SAMPLE_EVERY_S = 0.1


class Sampler:
    """Calibration slices timed from a SIGALRM handler, which Python runs
    between two bytecodes of whatever the interpreter is doing."""

    def __init__(self, timer):
        self.slices, self.total_s, self.timer = [], 0.0, timer

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.slices.append(calibrate.slice_s())
        self.total_s += time.perf_counter() - t0

    def start(self):
        if self.timer:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        else:
            self._tick()

    def boundary(self):
        """A slice between two steps, when no timer takes them."""
        if not self.timer:
            self._tick()

    def stop(self):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.slices:  # a run shorter than one period
            self._tick()


def _run_op(tracer, sampler, index, op):
    """Run one operation under its root span; returns (seconds, error)."""
    if tracer is not None:
        tracer.current_op = index
    t0, cal0 = time.perf_counter(), sampler.total_s
    try:
        with tracer.span(f"op.{op.name}") if tracer else contextlib.nullcontext():
            out = op.run()
    except Exception:  # an operation that raised counts as failed; the pass goes on
        error = traceback.format_exc().strip().splitlines()[-1]
        return time.perf_counter() - t0 - (sampler.total_s - cal0), error
    seconds = time.perf_counter() - t0 - (sampler.total_s - cal0)
    return seconds, op.check(out)


def main(spec):
    sampler = Sampler(timer=not spec["trace"])
    sampler.start()
    import sublin
    if not Path(sublin.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sublin imported from {sublin.__file__}, not from the checkout")
    if spec["workload"] == "readme":
        import sublin.cli
    import ops

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(sublin)
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        pass_ops = ops.build(spec["workload"], sublin, spec["seed"], spec["size"],
                             spec.get("command"))
    setup_s = time.perf_counter() - spec["spawned_at"] - sampler.total_s
    sampler.boundary()
    result = {"setup_s": setup_s, "ops": [],
              "versions": {m: sys.modules[m].__version__ for m in ("numpy", "scipy")}}
    for i, op in enumerate([] if spec.get("setup_only") else pass_ops, start=1):
        seconds, error = _run_op(tracer, sampler, i, op)
        result["ops"].append({"name": op.name, "s": seconds, "error": error})
        sampler.boundary()
    sampler.stop()
    result.update(cal_slices=sampler.slices, cal_total_s=sampler.total_s)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        if spec.get("spans"):
            tracer.save(spec["spans"])
    return result


if __name__ == "__main__":
    out = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(out) + "\n")

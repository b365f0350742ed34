"""The sublin benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {readme,float,exact} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; ``sublin`` is imported from its ``src/``.
A pass of ``float`` or ``exact`` is one fresh interpreter; a pass of
``readme`` is ten, one per command.  With ``--trace 0`` the run starts every
interpreter of a pass once, then the longest ones again, until the next one
would end after ``--seconds``; each end-to-end metric is the median over
each interpreter's runs, summed over the pass, with every time scaled to
the reference speed of calibrate.py.  With ``--trace 1`` it runs one
untraced and one traced pass and reports the per-layer metrics of the
traced one.  Every operation's output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import layers
from ops import README_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
REQUIRED = ["src/sublin/__init__.py", "configs/bernoulli-band.json",
            "configs/rademacher.json", "configs/example36.json"]
SETUP_SAMPLES = 9  # in-process workloads: fresh set-ups per run, at least
RUN_LIMIT_S = 170  # every child is killed once the run has lasted this long
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


class Run:
    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.env = {**os.environ, **CHILD_ENV}
        self.versions = None
        # a unit is one interpreter: a README command, or a whole in-process pass
        self.units = ([{"command": i} for i in range(len(README_NAMES))]
                      if args.workload == "readme" else [{}])

    def spawn(self, trace=False, **spec):
        """One fresh interpreter; returns (result or None, error)."""
        argv = [sys.executable] + (["-X", "importtime"] if trace else [])
        spec.update(workload=self.args.workload, seed=self.args.seed, size=self.args.size,
                    trace=trace)
        spec["spawned_at"] = time.perf_counter()
        proc = subprocess.Popen(argv + [str(WORKER), json.dumps(spec)], cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.started + RUN_LIMIT_S - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "timed out"
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            return None, tail[0]
        result = json.loads(lines[-1])
        result["stderr"] = err
        self.versions = result["versions"]
        # this interpreter's slowness: its mean calibration slice over the
        # reference one, so a time divided by it is a time at reference speed
        result["slowness"] = statistics.fmean(result["cal_slices"]) / calibrate.REFERENCE_S
        return result, None

    def run_unit(self, k, trace=False):
        """Run unit ``k`` once; returns its record (timings absent on failure)."""
        spec = dict(self.units[k])
        if trace:
            spec["spans"] = str(OUT / f"spans-{self.args.workload}-{k}.npz")
        t0 = time.perf_counter()
        result, error = self.spawn(trace=trace, **spec)
        if result is None:
            name = README_NAMES[k] if "command" in spec else "pass"
            return {"unit": k, "ops": [{"name": name, "s": 0.0, "error": error}]}
        wall_s = time.perf_counter() - t0 - result["cal_total_s"]
        rec = {"unit": k, "wall_s": wall_s, "setup_s": result["setup_s"],
               "solve_s": sum(op["s"] for op in result["ops"]),
               "peak_rss_mb": result["peak_rss_mb"], "slowness": result["slowness"],
               "ops": result["ops"]}
        if trace:
            if "command" in spec:
                result["command"] = README_NAMES[k]
            rec["child"] = result
        return rec


def _median(values):
    return statistics.median(values) if values else math.nan


def _total(records, key):
    return sum(r.get(key, 0.0) for r in records)


def _scaled_total(records, key):
    return sum(r[key] / r["slowness"] for r in records if key in r)


def end_to_end(run, records):
    """Per unit, the median over its runs; time metrics sum the units of a
    pass, and the peak RSS is the largest unit's.  An in-process pass is one
    unit, whose set-up is sampled at least SETUP_SAMPLES times.

    Returns the metrics, with every time divided by its interpreter's
    slowness (seconds at the reference speed of calibrate.py), and the same
    medians of the raw times."""
    per_unit = [[r for r in records if r["unit"] == k and "wall_s" in r]
                for k in range(len(run.units))]
    setups = [[(r["setup_s"], r["slowness"]) for r in rs] for rs in per_unit]
    if len(run.units) == 1:
        while len(setups[0]) < SETUP_SAMPLES:
            result, _ = run.spawn(setup_only=True)
            if result is None:
                break
            setups[0].append((result["setup_s"], result["slowness"]))

    def summed(key, scaled):
        return sum(_median([r[key] / (r["slowness"] if scaled else 1.0) for r in rs])
                   for rs in per_unit)

    def setup(scaled):
        return sum(_median([t / (slow if scaled else 1.0) for t, slow in s]) for s in setups)

    raw = {"setup_s": setup(False), "solve_s": summed("solve_s", False),
           "wall_s": summed("wall_s", False), "slowness": summed("slowness", False) / len(setups)}
    metrics = {"setup_s": (setup(True), "s"), "solve_s": (summed("solve_s", True), "s"),
               "wall_s": (summed("wall_s", True), "s")}
    metrics["peak_rss_mb"] = (
        max(_median([r["peak_rss_mb"] for r in rs]) for rs in per_unit), "MB")
    return metrics, raw


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["readme", "float", "exact"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: the same operations at toy sizes (smoke test)")
    args = parser.parse_args(argv)
    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print(f"error: not a sublin checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    run = Run(args)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
           "loadavg_start": os.getloadavg(), "git_commit": git_commit()}
    warm, error = run.spawn(setup_only=True, command=0)  # fills bytecode and page caches
    if warm is None:
        print(f"error: the program does not start: {error}", file=sys.stderr)
        return 1

    records, units, raw = [], range(len(run.units)), {}
    if args.trace:
        plain = [run.run_unit(k) for k in units]
        traced = [run.run_unit(k, trace=True) for k in units]
        records = plain + traced
        children = [r["child"] for r in traced if "child" in r]
        # both walls at the reference speed, as the end-to-end wall_s is
        overhead = _scaled_total(traced, "wall_s") - _scaled_total(plain, "wall_s")
        values = layers.layer_metrics(children, overhead)
        metrics = {m: (v, layers.unit(m)) for m, v in values.items()}
        print(f"{args.workload} traced: solve_s={_total(traced, 'solve_s'):.4f} s, per-layer "
              f"self times in operations sum to {layers.ops_self_time_sum(children):.4f} s, "
              f"tracing overhead {overhead:.4f} s")
    else:
        # every unit once, then the longest (and noisiest) units again first;
        # stop before the next one would end after --seconds
        last_wall, queue = [0.0] * len(units), list(units)
        while queue:
            k = queue.pop(0)
            elapsed = time.perf_counter() - run.started
            if len(records) >= len(units) and elapsed + last_wall[k] > args.seconds:
                break
            records.append(run.run_unit(k))
            last_wall[k] = records[-1].get("wall_s", 0.0)
            queue = queue or sorted(units, key=lambda u: -last_wall[u])
        metrics, raw = end_to_end(run, records)

    if not all(math.isfinite(v) for v, _ in metrics.values()):
        print("error: no interpreter of the run finished", file=sys.stderr)
        return 1
    ops = [op for r in records for op in r["ops"]]
    failures = [op for op in ops if op["error"]]
    env.update(run.versions or {}, loadavg_end=os.getloadavg())
    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    for rec in records:
        rec.pop("child", None)
    name = f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"args": vars(args), "env": env, "raw": raw,
                                        "runs": records,
                                        **result}, indent=1) + "\n")
    for op in failures:
        print(f"FAILED {op['name']}: {op['error']}", file=sys.stderr)
    summary = " ".join(f"{m}={v:.6g} {u}" for m, (v, u) in metrics.items()
                       if not args.trace or m == "trace.overhead_s")
    print(f"{args.workload}: {summary} fail_ratio={len(failures) / len(ops):.4g} "
          f"({len(failures)}/{len(ops)} operations, {len(records)} interpreters)")
    if raw:
        print("raw: " + " ".join(f"{m}={v:.6g}" + (" s" if m.endswith("_s") else "")
                                 for m, v in raw.items()))
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

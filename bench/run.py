"""Time-to-verdict benchmark for orepi.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, as one closed-loop client on one
thread: each task is issued after the previous verdict returns.  Every
verdict is checked against its known answer.  The last line of standard
output is the result object; the line before it holds the details
(task-list digest, per-task rows, sample counts).  The exit code is 0
only when every verdict was right.

``--trace 0`` reports the end-to-end metrics: set-up time (measured in
fresh child processes), the wall time of one pass over the task list,
the median and tail time to verdict, and peak resident memory.
``--trace 1`` reports per-layer metrics instead: every other pass runs
with spans at every ``orepi`` entry point; the figures come from those
passes, with the tracing overhead and a fixed-size coefficient
microbenchmark.

The number of passes is fixed per workload (``NOMINAL_PASS_S``), sized
so that the timed passes take about ``--seconds`` on the reference
machine.  A fixed count keeps the sample count, and so the rank that
``verdict_tail_ms`` reads, the same in every run.

Every time is scaled to the machine's speed at the moment it was taken
(``speed.Calibrator``): a fixed kernel is timed between tasks, and a
task's seconds are reported at the speed at which that kernel takes
``speed.REF_KERNEL_S``.  The details line keeps the unscaled figures
too.  See NOTES.md.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from speed import Calibrator

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# seconds one pass takes at the seed commit on the reference machine
NOMINAL_PASS_S = {
    "corpus_symbolic": 0.43,
    "corpus_numeric": 0.2,
    "roots_of_unity": 2.1,
    "random_hygiene": 0.3,
}
MIN_PASSES = 3
WARMUP_S = 1.0
SETUP_SAMPLES = 9
TAIL_BEYOND = 10


def import_orepi():
    """Import orepi from this checkout's src/, and only from there."""
    sys.path.insert(0, SRC)
    try:
        import orepi
    except ImportError as e:
        sys.exit(f"cannot import orepi from {SRC}: {e}")
    if os.path.dirname(os.path.dirname(os.path.abspath(orepi.__file__))) \
            != SRC:
        sys.exit(f"orepi was imported from {orepi.__file__}, not {SRC}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny indices and degrees, for self-tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the first task list and exit (set-up sample)")
    return ap.parse_args(argv)


def digest_descs(descs):
    """Short hash of task input descriptions; the same seed gives the same."""
    h = hashlib.sha256()
    for d in descs:
        h.update(d.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def setup_samples(args, count, cal):
    """(start, seconds) from spawning a fresh process to its first task
    list; the calibrator times its kernel just before and after each."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    out = []
    for _ in range(count):
        cal.force()
        cal.force()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed with code {code}")
        out.append((t0, dt))
        cal.force()
        cal.force()
    return out


class Record:
    """Verdicts of every task run, warm-up and traced passes included."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.verdicts = {}     # tid -> set of verdict reprs

    def run_pass(self, tasks, cal, tracer=None):
        """Run a pass; returns its (tid, start, seconds) rows.  The
        calibrator times its kernel between tasks, outside their times."""
        gc.collect()
        clock = time.perf_counter
        times = []
        for t in tasks:
            cal.tick()
            if tracer is not None:
                tracer.begin("bench.task")
            t0 = clock()
            try:
                verdict = t.run()
                error = None
            except Exception as e:  # a task that raises counts as failed
                verdict, error = None, f"{type(e).__name__}: {e}"
            dt = clock() - t0
            if tracer is not None:
                tracer.end()
            self.attempted += 1
            if error is not None or verdict != t.expected:
                self.failures.append({"task": t.tid, "input": t.desc,
                                      "expected": repr(t.expected),
                                      "got": error or repr(verdict)})
            self.verdicts.setdefault(t.tid, set()).add(
                error or repr(verdict))
            times.append((t.tid, t0, dt))
        cal.force()
        return times


def tail(samples):
    """(seconds, percentile) with TAIL_BEYOND samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_task(passes, rec):
    """Median milliseconds and verdicts of each task id over the passes."""
    by_tid = {}
    for times in passes:
        for tid, dt in times:
            by_tid.setdefault(tid, []).append(dt)
    return {tid: {"count": len(ts), "median_ms": statistics.median(ts) * 1e3,
                  "verdict": " | ".join(sorted(rec.verdicts[tid]))}
            for tid, ts in sorted(by_tid.items())}


def plan(args):
    """(warm-up passes, timed passes) for this workload and --seconds."""
    nominal = NOMINAL_PASS_S[args.workload]
    warm = max(1, math.ceil(WARMUP_S / nominal))
    timed = max(MIN_PASSES, round(args.seconds / nominal))
    return warm, timed


def scaled(passes, cal):
    """Each pass's (tid, seconds) rows, scaled to the reference speed."""
    return [[(tid, dt * cal.scale(t0)) for tid, t0, dt in times]
            for times in passes]


def pass_seconds(passes):
    """The time of each pass: the sum of its tasks' times."""
    return [sum(dt for _, dt in times) for times in passes]


def measure(args, workloads):
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    first = wl.next_pass()
    rec = Record()
    cal = Calibrator()
    warm, timed = plan(args)
    rec.run_pass(first, cal)
    for _ in range(warm - 1):
        rec.run_pass(wl.next_pass(), cal)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    # set-up samples are spread over the timed passes, between them
    children = [0] * timed
    if not args.trace:
        for k in range(SETUP_SAMPLES):
            children[k * timed // SETUP_SAMPLES] += 1
    setup = []             # (start, seconds) per set-up child
    raw = []               # (tid, start, seconds) rows per untraced pass
    traced = []            # the same per traced pass
    second = None
    for i in range(timed):
        setup += setup_samples(args, children[i], cal)
        if tracer is not None and i % 2:
            # traced and untraced passes alternate, so that both see the
            # same machine conditions and their ratio is the overhead
            tracer.install()
            try:
                tracer.begin("bench.generate")
                tasks = wl.next_pass()
                tracer.end()
                traced.append(rec.run_pass(tasks, cal, tracer))
            finally:
                tracer.uninstall()
            continue
        tasks = wl.next_pass()
        second = second or tasks
        raw.append(rec.run_pass(tasks, cal))
    passes = scaled(raw, cal)
    walls = pass_seconds(passes)
    samples = [dt for times in passes for _, dt in times]
    details = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace,
        "task_digest": digest_descs(t.desc for t in first + second),
        "tasks_per_pass": len(first),
        "warmup_passes": warm, "timed_passes": len(passes),
        "pass_walls_s": walls,
        "unscaled_pass_walls_s": pass_seconds(
            [[(tid, dt) for tid, _, dt in times] for times in raw]),
        "kernel_runs": len(cal.took),
        "kernel_median_s": statistics.median(cal.took),
    }
    if args.trace:
        metrics = traced_metrics(args, tracer, walls,
                                 pass_seconds(scaled(traced, cal)), details)
    else:
        tail_s, pct = tail(samples)
        setup_s = [dt * cal.scale(t0) for t0, dt in setup]
        details.update(samples=len(samples), tail_percentile=pct,
                       setup_samples_s=setup_s,
                       unscaled_setup_samples_s=[dt for _, dt in setup])
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "verdict_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "verdict_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    details.update(attempted=rec.attempted, failed=len(rec.failures),
                   error_rate=len(rec.failures) / rec.attempted,
                   failures=rec.failures[:20], per_task=per_task(passes, rec))
    return rec, metrics, details


def traced_metrics(args, tracer, walls, traced_walls, details):
    from micro import field_micro
    layers = tracer.summary(len(traced_walls))
    layers.update(field_micro(args.seed))
    traced_wall_s = statistics.median(traced_walls)
    layers["trace.overhead_ratio"] = traced_wall_s / statistics.median(walls)
    self_s = {k[:-len(".self_s")]: v for k, v in layers.items()
              if k.endswith(".self_s") and k.count(".") == 1}
    self_s["cli"] = layers["cli.run_command.self_s"]
    total = sum(self_s.values())
    details.update(
        traced_passes=len(traced_walls), spans=len(tracer.spans),
        untraced_wall_s=statistics.median(walls),
        traced_wall_s=traced_wall_s,
        self_share={k: v / total for k, v in sorted(self_s.items())})
    return {name: (value, unit_of(name)) for name, value in layers.items()}


def unit_of(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(("terms", "terms_out")):
        return "terms"
    return "count"


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_orepi()
    import workloads
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, args.size).next_pass()
        print("ready", flush=True)
        return 0
    rec, metrics, details = measure(args, workloads)
    print(json.dumps(details, sort_keys=True))
    result = {"correct": not rec.failures, "attempted": rec.attempted,
              "failed": len(rec.failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if not rec.failures else 1


if __name__ == "__main__":
    sys.exit(main())

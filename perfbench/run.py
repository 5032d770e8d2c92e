#!/usr/bin/env python3
"""The rigidlift benchmark: one closed-loop client, one process, no threads.

Run from the repository root, one workload at a time or all four:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 25 --trace 0
    for w in survey lift theta cli; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0 | tail -1
    done

It imports rigidlift from ./src, builds the workload's inputs from the seed,
then runs whole cycles of operations for about --seconds, checking every
answer.  Between ops, outside the timed region, it times a fixed piece of
its own pure-Python work; every time it reports is scaled by how fast that
work ran on both sides of the op (see `speed_factor`), because the speed of
a shared host swings by up to 2x within seconds and drifts by a quarter
over minutes.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
environment and sample details.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 the operations run with
every wrapped library function timed (see tracer.py) and the metrics are the
per-layer ones.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
IMPORT_PROBES = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
# The reference work's median time on a 2-vCPU Xeon host at its usual speed.
# Times are reported as if every op had run at that speed; the constant only
# sets the scale, so that the scaled figures read close to the raw ones.
REFERENCE_S = 0.0017
REFERENCE_SAMPLES_PER_S = 10  # after each op, up to 20 samples


def reference_s():
    """Time one run of the reference work: a dict-and-integer loop, then
    sorting tuples and hashing frozensets.  On a busy host this mix slows
    down about as much as the library's own code does."""
    t0 = time.perf_counter()
    d = {}
    for i in range(3000):
        k = (i * 7919) & 1023
        d[k] = d.get(k, 0) + len((k, i))
    pairs = sorted((i * 7919 % 1009, str(i)) for i in range(1250))
    {frozenset(pair) for pair in pairs}
    return time.perf_counter() - t0


def speed_factor(samples):
    """REFERENCE_S over the median reference time: a time multiplied by it
    reads as if the host had run at the reference speed.  The program under
    test never runs during a sample, so its own speed does not enter."""
    return REFERENCE_S / statistics.median(samples)


def load_library():
    """Import rigidlift from this checkout's src/, or exit with an error."""
    if not (SRC / "rigidlift" / "__init__.py").is_file():
        sys.exit(f"run.py: no rigidlift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rigidlift

    if SRC not in Path(rigidlift.__file__).resolve().parents:
        sys.exit(f"run.py: imported rigidlift from {rigidlift.__file__}, not from {SRC}")
    import workloads

    return workloads


def environment(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit_hash(),
    }


def commit_hash():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Op latencies and failures of a run, with per-cycle sums."""

    def __init__(self):
        self.latencies = []
        self.scaled = []  # each latency times the speed factor around its op
        self.failures = []
        self.cycle_s = []  # op time of each cycle
        self.cycle_scaled = []  # scaled op time of each cycle
        self.cycle_ok = []  # ops that passed their check, per cycle
        self.cycle_weight = []  # |Pic^0| summed over the passed ops, per cycle
        self.peak_rss_mb = None

    @property
    def op_time(self):
        return sum(self.latencies)

    @property
    def cycles(self):
        return len(self.cycle_s)

    def rate(self, per_cycle, times=None):
        """Median over cycles of per_cycle / scaled cycle op time (or the
        given per-cycle times): a cycle during which the machine ran
        unusually fast or slow does not move it."""
        times = self.cycle_scaled if times is None else times
        return statistics.median(n / s for n, s in zip(per_cycle, times))


def measure(workload, seconds, cycles=None, rss_of=resource.RUSAGE_SELF):
    """Run whole cycles until `cycles` are done or, without `cycles`, until
    the next cycle would end more than half a cycle after `seconds`.

    The reference work is timed before the first op and after every op,
    outside the timed region; each latency is scaled by the speed factor of
    the samples on both sides of its op.  Peak memory is read after the
    first cycle: the library's caches grow with every new graph, so a later
    reading would grow with the number of cycles, that is, with speed."""
    tally = Tally()
    clock = time.perf_counter
    start = clock()
    before = [reference_s() for _ in range(3)]
    while True:
        cycle_start = clock()
        cycle_s, cycle_scaled, ok, weight = 0.0, 0.0, 0, 0
        for op in workload.cycle(tally.cycles):
            t0 = clock()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # every failure is counted, none stops the run
                error = f"{type(exc).__name__}: {exc}"
            latency = clock() - t0
            after = [reference_s() for _ in range(min(20, 1 + int(latency * REFERENCE_SAMPLES_PER_S)))]
            scaled = latency * speed_factor(before + after)
            before = after
            tally.latencies.append(latency)
            tally.scaled.append(scaled)
            cycle_s += latency
            cycle_scaled += scaled
            if error is None:
                try:
                    op.check(result)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is None:
                ok += 1
                weight += op.weight
            else:
                tally.failures.append(f"{op.label}: {error}")
        tally.cycle_s.append(cycle_s)
        tally.cycle_scaled.append(cycle_scaled)
        tally.cycle_ok.append(ok)
        tally.cycle_weight.append(weight)
        if tally.cycles == 1:
            tally.peak_rss_mb = resource.getrusage(rss_of).ru_maxrss / 1024
        if cycles is not None:
            if tally.cycles >= cycles:
                break
        elif clock() + (clock() - cycle_start) / 2 - start >= seconds:
            break
    return tally


def tail(latencies):
    """The highest listed percentile with at least 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-int(p * n) // 100))
        if n - rank >= 10:
            return {"percentile": p, "ms": ordered[rank - 1] * 1000, "beyond": n - rank}
    return None


def child(args, *extra):
    """Run this script again in a fresh interpreter; returns (seconds from
    spawn to its first output line, all stdout lines)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait(timeout=170)
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {code}")
    return ready, (first + rest).splitlines()


def import_seconds():
    code = "import time; t = time.perf_counter(); import rigidlift.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("survey", "lift", "theta", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: used by this script's own child processes.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cycles", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--inprocess", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so that children are killed and reaped
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workloads = load_library()
    lib = workloads.Library()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        kwargs = {"inprocess": args.inprocess or args.trace == 1} if args.workload == "cli" else {}
        workload = workloads.WORKLOADS[args.workload](lib, args.seed, workdir, **kwargs)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            return traced(args, workload)
        return untraced(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, tally, problems, metrics, **details):
    failed = len(tally.failures)
    attempted = len(tally.latencies)
    for line in tally.failures[:5] + problems:
        print(f"FAILED {line}", file=sys.stderr)
    info = dict(environment(args), cycle_s=tally.cycle_s, cycle_scaled_s=tally.cycle_scaled, op_time_s=tally.op_time,
                op_time_scaled_s=sum(tally.scaled),
                ops=attempted, failures=tally.failures[:5] + problems, **details)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def untraced(args, workload):
    children = args.workload == "cli" and not args.inprocess
    tally = measure(workload, args.seconds, args.cycles,
                    resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    setup, setup_scaled = [], []
    if args.cycles is None:
        before = [reference_s() for _ in range(5)]
        for _ in range(SETUP_PROBES):
            setup.append(child(args, "--setup-probe")[0])
            after = [reference_s() for _ in range(5)]
            setup_scaled.append(setup[-1] * speed_factor(before + after))
            before = after
    metrics = {
        "ops_per_s": metric(tally.rate(tally.cycle_ok), "1/s"),
        "op_p50_ms": metric(statistics.median(tally.scaled) * 1000, "ms"),
        "classes_per_s": metric(tally.rate(tally.cycle_weight), "1/s"),
        "peak_rss_mb": metric(tally.peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(setup_scaled) if setup else 0.0, "s"),
    }
    raw = {
        "ops_per_s": tally.rate(tally.cycle_ok, tally.cycle_s),
        "op_p50_ms": statistics.median(tally.latencies) * 1000,
        "setup_s": statistics.median(setup) if setup else 0.0,
    }
    return report(args, tally, workload.problems, metrics, unscaled=raw,
                  p50_samples=len(tally.latencies), tail=tail(tally.latencies),
                  setup_samples=setup, setup_scaled=setup_scaled)


def traced(args, workload):
    trace = tracer.Tracer()
    trace.install()
    try:
        tally = measure(workload, args.seconds / 2)
    finally:
        trace.uninstall()
    layers = trace.metrics()
    problems = list(workload.problems) + picard_problems(trace, tally, args.workload)
    extra = ["--trace", "0", "--cycles", str(tally.cycles)] + (["--inprocess"] if args.workload == "cli" else [])
    lines = child(args, *extra)[1]
    untraced_time = json.loads(lines[-2])["info"]["op_time_scaled_s"]
    layers["cli.import_s"] = statistics.median(import_seconds() for _ in range(IMPORT_PROBES))
    layers["trace_overhead"] = sum(tally.scaled) / untraced_time
    metrics = {name: metric(layers[name], unit) for name, unit in tracer.metric_units()}
    return report(args, tally, problems, metrics, untraced_op_time_s=untraced_time, rebound=trace.rebound)


def picard_problems(trace, tally, workload_name):
    """Each enumerate_picard call must return |Pic| = spanning-tree count; on
    theta every op calls it at least once itself."""
    problems = []
    counts = {}
    for g, n in trace.picard_results:
        if g not in counts:
            counts[g] = oracle.spanning_tree_count(oracle.Plain(g.edges, g.base_edge))
        if n != counts[g]:
            problems.append(f"enumerate_picard returned {n} classes, spanning trees {counts[g]}")
    if workload_name == "theta" and len(trace.picard_results) < len(tally.latencies):
        problems.append("fewer enumerate_picard calls traced than theta ops run")
    return problems


if __name__ == "__main__":
    sys.exit(main())

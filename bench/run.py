"""Benchmark of record for zfdom.

    python3 bench/run.py --workload corpus-n8 --seed 1 --trace 0
    python3 bench/run.py --workload all --record results.jsonl

Runs zfdom through its real entry points in child processes (``zfdom run``,
``zfdom hunt`` and the ``_smallgraphs`` catalogues), checks every output,
and prints each metric by name and unit.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with ``--trace 1`` they are its per-layer
metrics, from passes run under the call tracer (``tracer.py``).  The exit
code is 0 when every output checked out, 1 when one did not, and 2 when
there is no zfdom source tree to run.

A run repeats passes of its workload until ``--seconds`` would be exceeded.
Wall times are the upper quartile of the passes (see README.md for why not
the median); set-up time is the median of fresh processes that only start,
import zfdom and read the input, one before each pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS, Finished, Tally

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TRACED_PASSES = 2  # at least, so call counts can be compared
RUN_LIMIT_S = 170.0
NOT_STRUCTURE = {"parse_graph6", "emit_graph6", "enumerate_labeled_graphs"}


class Runner:
    """Starts the benchmark's child processes and reaps every one of them."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.count = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def batch(self, commands: list, slots: int) -> tuple[float, list[Finished]]:
        """Run ``commands`` in order, ``slots`` at a time; return the time from
        the first spawn to the last exit and each finished command."""
        pending = list(enumerate(commands))
        running: dict = {}
        done: list = [None] * len(commands)
        signal.alarm(max(1, int(self.deadline - time.monotonic())))
        start = time.perf_counter()
        try:
            while pending or running:
                while pending and len(running) < slots:
                    index, argv = pending.pop(0)
                    running[self._spawn(argv)] = index
                pid, status, usage = os.wait4(-1, 0)
                proc = next(p for p in running if p.pid == pid)
                proc.returncode = os.waitstatus_to_exitcode(status)
                index = running.pop(proc)
                done[index] = Finished(proc.args, proc.out, proc.err,
                                       time.perf_counter() - proc.started,
                                       usage.ru_maxrss / 1024, proc.returncode)
        finally:
            signal.alarm(0)
            for proc in running:
                proc.kill()
                proc.wait()
        return time.perf_counter() - start, done

    def _spawn(self, argv: list) -> subprocess.Popen:
        self.count += 1
        out = self.work / f"{self.count}.out"
        err = self.work / f"{self.count}.err"
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            self.env["BENCH_SPAWNED_NS"] = str(time.monotonic_ns())
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=stdout, stderr=stderr)
        proc.out, proc.err, proc.started = out, err, started
        return proc


def _timed_out(signum, frame):
    raise TimeoutError(f"a run may take at most {RUN_LIMIT_S:.0f} s")


def check_pass(workload, runs: list, tally: Tally, work: Path) -> str:
    """Check one batch's outputs; return their stdout for comparing batches."""
    try:
        workload.check(runs, tally, work)
        return "".join(run.stdout() for run in runs)
    except (ValueError, KeyError, TypeError, IndexError, UnicodeDecodeError) as exc:
        tally.check(False, f"{workload.name}: unreadable output ({exc!r})")
        return ""


def measure_setup(workload, runner: Runner, tally: Tally) -> float:
    """One fresh set-up process; the first also writes the workload's inputs."""
    wall, (run,) = runner.batch([workload.setup_argv(runner.work)], 1)
    tally.check(run.code == 0, f"{workload.name}: set-up exited {run.code}")
    return wall


def upper_quartile(values: list) -> float:
    """Nearest-rank 75th percentile of the passes (see README.md for why)."""
    return sorted(values)[math.ceil(0.75 * len(values)) - 1]


def untraced_pass(workload, runner: Runner, tally: Tally) -> dict:
    out = {}
    for jobs in (1, 2):
        wall, runs = runner.batch(*workload.plan(jobs, runner.work))
        out[jobs] = (wall, runs, check_pass(workload, runs, tally, runner.work))
    tally.check(out[1][2] == out[2][2],
                f"{workload.name}: output at 2 workers differs from 1 worker")
    return out


def end_to_end(workload, runner: Runner, tally: Tally, seconds: float) -> dict:
    """Passes until ``seconds`` would be exceeded, each after one set-up, so
    set-up and passes sample the same stretch of host speed."""
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setup.append(measure_setup(workload, runner, tally))
        passes.append(untraced_pass(workload, runner, tally))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(workload, runner, tally))
    samples = {"setup_s": setup, "wall_s": [p[1][0] for p in passes],
               "wall_s_jobs2": [p[2][0] for p in passes]}
    print(f"{workload.name}  {len(passes)} passes; median wall "
          f"{statistics.median(samples['wall_s']):.4f} s at 1 worker, "
          f"{statistics.median(samples['wall_s_jobs2']):.4f} s at 2")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": upper_quartile(samples["wall_s"]),
        "graphs_per_s": workload.graphs / upper_quartile(samples["wall_s"]),
        "wall_s_jobs2": upper_quartile(samples["wall_s_jobs2"]),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p[1][1]) for p in passes),
    }, samples


def merge_traces(paths: list[Path], runs: list[Finished]) -> dict:
    """One pass's span summaries, summed over its commands."""
    merged = {"calls": {}, "self_s": {}, "incl_s": {}, "durations": {}, "graphs": 0,
              "startup_s": [], "accounted_s": 0.0,
              "wall_s": sum(r.wall_s for r in runs)}
    for path in paths:
        summary = tracer.summarize(tracer.load_spans(str(path)))
        for key in ("calls", "self_s", "incl_s"):
            for name, value in summary[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, values in summary["durations"].items():
            merged["durations"].setdefault(name, []).extend(values)
        merged["graphs"] += summary["graphs"]
        merged["startup_s"].append(summary["startup_s"])
        merged["accounted_s"] += summary["startup_s"] + summary["root_s"]
    return merged


def layer_value(name: str, trace: dict, workload) -> float:
    """Value of one per-layer metric of BENCHMARK.json in one traced pass."""
    layer, _, rest = name.partition(".")
    module = "zfdom._smallgraphs" if layer == "smallgraphs" else f"zfdom.{layer}"
    function, _, stat = rest.rpartition(".")
    qualified = f"{module}.{function}"
    calls = trace["calls"].get(qualified, 0)
    if name == "graphs.structure.self_s":
        return sum(v for k, v in trace["self_s"].items()
                   if k.startswith("zfdom.graphs.") and k.split(".")[-1] not in NOT_STRUCTURE)
    if name == "smallgraphs.accept_ratio":
        canonical = trace["calls"].get("zfdom._smallgraphs.canonical_code", 0)
        return workload.graphs / canonical if canonical else 0.0
    if name == "cli.startup_s":
        return statistics.median(trace["startup_s"])
    if name == "trace.accounted_frac":
        return trace["accounted_s"] / trace["wall_s"]
    if stat == "calls":
        return calls
    if stat == "calls_per_graph":
        return calls / trace["graphs"] if trace["graphs"] else 0.0
    if stat in ("self_s", "incl_s"):
        return trace[stat].get(qualified, 0.0)
    if stat in ("ms_p50", "ms_max"):
        durations = trace["durations"].get(qualified)
        if not durations:
            return 0.0
        pick = statistics.median if stat == "ms_p50" else max
        return 1000 * pick(durations)
    raise KeyError(f"no rule for the per-layer metric {name!r}")


def per_layer(workload, runner: Runner, tally: Tally, seconds: float, names) -> dict:
    """Per-layer metrics from traced jobs-1 passes, each paired with an
    untraced pass so that speed-up and tracing overhead are read pairwise."""
    bases, walls, traces = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        base = untraced_pass(workload, runner, tally)
        spans = runner.work / f"spans-{len(traces)}"
        commands = workload.traced_plan(runner.work, spans)
        wall, runs = runner.batch(commands, 1)
        output = check_pass(workload, runs, tally, runner.work)
        tally.check(output == base[1][2], f"{workload.name}: traced output differs")
        traces.append(merge_traces([Path(f"{spans}.{i}") for i in range(len(commands))], runs))
        tally.check(traces[-1]["calls"] == traces[0]["calls"],
                    f"{workload.name}: call counts differ between traced passes")
        bases.append(base)
        walls.append(wall)
        now = time.perf_counter()
        if len(traces) >= TRACED_PASSES and now - start + (now - began) > seconds:
            break
    derived = {
        "harness.run_corpus.jobs2_speedup": statistics.median(b[1][0] / b[2][0] for b in bases),
        "harness.tracing_overhead_frac":
            statistics.median(w / b[1][0] for w, b in zip(walls, bases)) - 1,
    }
    # median_low picks a measured pass, so counts stay whole numbers
    return {name: derived[name] if name in derived else
            statistics.median_low(layer_value(name, t, workload) for t in traces)
            for name in names}


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_s() -> float:
    """Time of a fixed pure-Python loop: a reading of the host's speed."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


def run_workload(name: str, args, spec: dict) -> dict:
    workload = WORKLOADS[name]()
    host = {"git_revision": git_revision(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_before": os.getloadavg(), "probe_s_before": probe_s()}
    work = BENCH / ".work" / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    tally = Tally()
    try:
        workload.prepare(random.Random(args.seed), work)
        measure_setup(workload, runner, tally)  # untimed: fills bytecode and file caches
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = per_layer(workload, runner, tally, args.seconds, list(units))
            samples = None
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values, samples = end_to_end(workload, runner, tally, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host.update(loadavg_after=os.getloadavg(), probe_s_after=probe_s())
    for problem in tally.problems:
        print(problem, file=sys.stderr)
    for metric, unit in units.items():
        print(f"{name}  {metric} = {values[metric]:.6g} {unit}")
    print(json.dumps({"host": host}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    if args.record:
        with open(args.record, "a", encoding="ascii") as handle:
            handle.write(json.dumps({"workload": name, "seed": args.seed,
                                     "seconds": args.seconds, "trace": args.trace,
                                     "host": host, "passes": samples,
                                     "result": result}) + "\n")
    return result


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "zfdom" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: no zfdom source tree under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="ascii"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record",
                        help="append each result with its host record and pass times (JSONL)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _timed_out)

    chosen = names if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, spec) for name in chosen}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

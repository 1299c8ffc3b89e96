"""linkscope benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload place|identify|scan --seed N \
        --seconds S --trace 0|1

Run it from the root of a linkscope checkout; it uses the package under src/
and writes only under .perfbench-work/.  With --trace 0 it times the workload
with nothing attached and prints the end-to-end metrics; with --trace 1 it
runs the workload in-process under the span tracer and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "linkscope", "cli.py")):
    sys.exit("perfbench: no src/linkscope here; run from the root of a linkscope checkout")
sys.path[0:1] = [SRC, ROOT]

from perfbench import gen, spans, stats, workloads  # noqa: E402

WORKLOADS = ("place", "identify", "scan")
# Set-ups per timed run: the first prepares the inputs, the others are spread
# evenly over the run, so that setup_s samples the machine's speed over the
# same span of time as the other metrics.
SETUP_REPEATS = 7
# Inputs prepared per second of run: well above what a run can use, so a run
# is limited by its time and not by its inputs.
INSTANCES_PER_S = {"place": 6, "identify": 10, "scan": 2500}
STARTUP_REPEATS = 3
BLOCK_S = 0.5
SUM_TOLERANCE_S = 1e-6
MAX_PROBLEMS = 10


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _size_mix(workload: str) -> dict:
    if workload == "place":
        return {"nodes_avg_degree_cycle": gen.PLACE_SIZES, "path_cap": workloads.PLACE_PATH_CAP}
    if workload == "identify":
        return {
            "nodes_avg_degree_cycle": gen.IDENTIFY_SIZES,
            "monitor_count_cycle": gen.IDENTIFY_MONITOR_COUNTS,
        }
    return {"nodes": gen.SCAN_NODES, "corpus_instances": "every monitor pair of every connected labelled graph"}


def _setup(workload: str, seed: int, seconds: int, out: str) -> float:
    """One set-up in a fresh interpreter, writing the inputs into `out`;
    returns its wall time."""
    count = INSTANCES_PER_S[workload] * seconds + 10
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
    argv = [
        sys.executable, "-m", "perfbench.inputs", "--workload", workload,
        "--seed", str(seed), "--count", str(count), "--out", out,
    ]
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _manifest(workdir: str) -> list:
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["instances"]


class Tally:
    """The elapsed time and verdict of each instance of a run, in run order,
    plus status counts.  The arrays are sized for every prepared instance up
    front, so the benchmark's own memory does not grow with the number of
    instances a run gets through."""

    def __init__(self, size: int):
        self.elapsed = array("d", bytes(8 * size))
        self.decided = array("b", bytes(size))
        self.n = 0
        self.counts = {"ok": 0, "wrong": 0, "undecided": 0, "crash": 0}
        self.problems: set[str] = set()
        self.peak_rss_kib = 0

    def add(self, outcome) -> None:
        self.elapsed[self.n] = outcome.elapsed
        self.decided[self.n] = outcome.status in ("ok", "wrong")
        self.n += 1
        self.counts[outcome.status] += 1
        if outcome.status in ("wrong", "crash") and len(self.problems) < MAX_PROBLEMS:
            self.problems.add(outcome.why)
        self.peak_rss_kib = max(self.peak_rss_kib, outcome.rss_kib)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, instances, seconds: int, setup, workdir: str, pkg):
    """Run instances in order, one at a time, until `seconds` of instance
    time have passed, calling setup() SETUP_REPEATS - 1 times at evenly
    spaced points of the run; the set-ups are not counted in the run's
    time."""
    if workload == "scan":
        def run_one(inst):
            return workloads.scan_instance(pkg, inst)
    else:
        env = workloads.cli_env(workload, dict(os.environ, PYTHONPATH=SRC))

        def run_one(inst):
            return workloads.cli_child(workload, inst, workdir, env)

    tally = Tally(len(instances))
    marks = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    setup_times = []
    paused = 0.0
    start = time.perf_counter()
    for inst in instances:
        now = time.perf_counter() - start - paused
        if now >= seconds:
            break
        if marks and now >= marks[0]:
            marks.pop(0)
            setup_times.append(setup())
            paused += setup_times[-1]
        tally.add(run_one(inst))
    if workload == "scan":
        tally.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # a run that used up its inputs early still makes every set-up
    setup_times += [setup() for _ in marks]

    # Throughput charges every attempted instance its time, so an undecided
    # one costs its deadline; latency is over decided instances.  On runs
    # long enough to split, both are medians over windows of the run
    # (stats.window_median).
    runs = list(zip(tally.elapsed[: tally.n], tally.decided[: tally.n]))
    decided = [elapsed for elapsed, ok in runs if ok]
    attempted = tally.n
    metrics = {
        "instances_per_s": _metric(stats.window_median(runs, stats.throughput), "1/s"),
        "latency_p50_s": _metric(stats.window_median(decided, lambda xs: stats.percentile(xs, 50)), "s"),
        "decided_share": _metric(stats.share(len(decided), attempted), "ratio"),
        "correct_share": _metric(
            1 - stats.share(tally.counts["wrong"] + tally.counts["crash"], attempted), "ratio"
        ),
        "peak_rss_mib": _metric(tally.peak_rss_kib / 1024, "MiB"),
    }
    # p90 is reported in the record but not bounded: bursts of slowdown from
    # other tenants of a shared machine move it by up to a quarter between
    # runs (README.md)
    p90 = stats.window_median(decided, lambda xs: stats.percentile(xs, 90))
    notes = {"latency_samples": len(decided), "latency_p90_s": _metric(p90, "s")}
    return [tally], metrics, notes, setup_times


def _startup_s() -> float:
    """Median wall time of a trivial CLI invocation (--help)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "linkscope.cli", "--help"]
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_layer(workload: str, instances, seconds: int, workdir: str, pkg):
    """Traced and untraced passes over the same instances, in-process, in
    alternating blocks of about BLOCK_S seconds (each block's first pass
    alternates too), so that drift in machine speed cancels out of
    trace.overhead_ratio.  The per-layer metrics come from the traced
    passes."""
    if workload == "scan":
        def run_one(inst, tracer=None):
            return workloads.scan_instance(pkg, inst, tracer)
    else:
        def run_one(inst, tracer=None):
            return workloads.cli_inprocess(pkg, workload, inst, workdir, tracer)

    tracer = spans.Tracer()
    traced, untraced = Tally(len(instances)), Tally(len(instances))

    def block(first: int, limit: float | None, traced_pass: bool) -> None:
        """Run instances from `first` on: for at most `limit` seconds if
        given, else up to where the other pass stopped."""
        tally = traced if traced_pass else untraced
        stop = len(instances) if limit is not None else max(traced.n, untraced.n)
        if traced_pass:
            tracer.install()
        try:
            start = time.perf_counter()
            for i in range(first, stop):
                if limit is not None and time.perf_counter() - start >= limit:
                    break
                tracer.instance = i
                tally.add(run_one(instances[i], tracer if traced_pass else None))
        finally:
            if traced_pass:
                tracer.uninstall()

    # this process runs one workload, so it can take the workload's CLI
    # environment for good
    os.environ.update(workloads.cli_env(workload, {}))
    blocks = 0
    start = time.perf_counter()
    while traced.n < len(instances) and time.perf_counter() - start < seconds:
        traced_first = blocks % 2 == 1
        first = traced.n
        block(first, BLOCK_S, traced_first)
        block(first, None, not traced_first)
        blocks += 1

    both = [
        (traced.elapsed[i], untraced.elapsed[i])
        for i in range(traced.n)
        if traced.decided[i] and untraced.decided[i]
    ]
    metrics, accounting = layer_metrics(tracer.spans)
    metrics["cli.startup_s"] = _metric(_startup_s(), "s")
    metrics["trace.overhead_ratio"] = _metric(
        sum(t for t, _ in both) / sum(u for _, u in both) if both else 0.0, "ratio"
    )
    return [traced, untraced], metrics, accounting


def layer_metrics(span_list: list[list]):
    """Per-layer self times, call counts and the work counters, plus the
    check that self times add up to the instances' traced wall time."""
    selfs = spans.self_times(span_list)
    by_name: dict[str, list[float]] = {}
    for span, own in zip(span_list, selfs):
        entry = by_name.setdefault(span[spans.NAME], [0.0, 0])
        entry[0] += own
        entry[1] += 1
    metrics = {}
    for qualname in spans.LAYER_FUNCTIONS:
        own, calls = by_name.get(qualname, (0.0, 0))
        if qualname == "cli.main":
            metrics["cli.self_s"] = _metric(own, "s")
            continue
        metrics[f"{qualname}.self_s"] = _metric(own, "s")
        metrics[f"{qualname}.calls"] = _metric(calls, "count")

    def named(name):
        return [s for s in span_list if s[spans.NAME] == name]

    enum = named("identifiability.enumerate_monitor_paths")
    cap_hits = [s for s in enum if s[spans.ERROR] == "PathExplosionError"]
    paths = sum(s[spans.RESULT] for s in enum if s[spans.ERROR] is None) + sum(
        s[spans.RESULT] for s in cap_hits
    )
    rank = sum(s[spans.RESULT] for s in named("identifiability.identifiable_links") if s[spans.ERROR] is None)
    components = sum(
        s[spans.RESULT] for s in named("decomposition.triconnected_components") if s[spans.ERROR] is None
    )
    fallbacks = set()
    for s in cap_hits:
        parent = s[spans.PARENT]
        while parent is not None and span_list[parent][spans.NAME] != "placement.verify_placement":
            parent = span_list[parent][spans.PARENT]
        if parent is not None and span_list[parent][spans.ERROR] is None:
            fallbacks.add(parent)
    roots = [(sid, s) for sid, s in enumerate(span_list) if s[spans.NAME] == "instance"]
    wall = sum(s[spans.END] - s[spans.START] for _, s in roots)
    metrics.update(
        {
            "decomposition.components": _metric(components, "count"),
            "identifiability.paths": _metric(paths, "count"),
            "identifiability.cap_hits": _metric(len(cap_hits), "count"),
            "identifiability.rank": _metric(rank, "count"),
            "identifiability.useful_row_ratio": _metric(rank / paths if paths else 0.0, "ratio"),
            "placement.verify_fallbacks": _metric(len(fallbacks), "count"),
            "trace.wall_s": _metric(wall, "s"),
            "trace.outside_layers_s": _metric(sum(selfs[sid] for sid, _ in roots), "s"),
        }
    )
    accounting = {
        "traced_wall_s": wall,
        "self_time_sum_s": sum(selfs),
        "traced_instances": len(roots),
    }
    return metrics, accounting


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    base = os.path.join(ROOT, ".perfbench-work")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(base, "records"), exist_ok=True)
    workloads.install_deadline_handler()
    # on SIGTERM, unwind like an exception so the running child is killed and
    # reaped and the inputs are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def setup_again() -> float:
        """A repeat set-up into a fresh directory, removed afterwards."""
        spare = workdir + "-again"
        try:
            return _setup(args.workload, args.seed, args.seconds, spare)
        finally:
            shutil.rmtree(spare, ignore_errors=True)

    try:
        first_setup = _setup(args.workload, args.seed, args.seconds, workdir)
        instances = _manifest(workdir)
        pkg = workloads.load_package()
        if args.trace:
            tallies, metrics, notes = per_layer(args.workload, instances, args.seconds, workdir, pkg)
        else:
            tallies, metrics, notes, setup_times = end_to_end(
                args.workload, instances, args.seconds, setup_again, workdir, pkg
            )
            setup_times.append(first_setup)
            metrics["setup_s"] = _metric(statistics.median(setup_times), "s")
            notes["setup_samples_s"] = setup_times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = {k: sum(t.counts[k] for t in tallies) for k in tallies[0].counts}
    attempted = sum(t.n for t in tallies)
    failed = counts["wrong"] + counts["crash"]
    # the traced run's self times must add up to the instances' wall time
    balanced = not args.trace or (
        abs(notes["traced_wall_s"] - notes["self_time_sum_s"]) <= SUM_TOLERANCE_S
    )
    record = {
        "python": f"Python {sys.version}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": attempted,
        "instances_prepared": len(instances),
        "size_mix": _size_mix(args.workload),
        "deadline_s": workloads.DEADLINE_S[args.workload],
        "status_counts": counts,
        "problems": sorted(set().union(*(t.problems for t in tallies))),
        **notes,
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    with open(os.path.join(base, "records", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=list)
    summary = {k: v for k, v in record.items() if k != "metrics"}
    print("record: " + json.dumps(summary, default=list))
    result = {
        "correct": failed == 0 and balanced and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

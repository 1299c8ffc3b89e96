"""Running one instance of each workload.

All workloads are closed loops with one client: the next instance starts only
after the previous one ended, and at most one child process runs at a time.
place and identify run the linkscope CLI, as a child process in the timed
runs and as an in-process cli.main(argv) call in the traced run; scan calls
the package's public functions in-process.  Every instance has a fixed
deadline; one that passes it ends as undecided.
"""

from __future__ import annotations

import io
import json
import os
import select
import signal
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import SimpleNamespace

from perfbench import checks, gen

# place runs with a lower path cap so that verify_placement's rank oracle
# gives up after a bounded enumeration; at the default cap of 100000 an
# instance spends seconds enumerating paths it then discards (see README.md).
PLACE_PATH_CAP = 2000
DEADLINE_S = {"place": 1.0, "identify": 2.0, "scan": 5.0}
CLI_EXIT_CAP = 4


@dataclass
class Outcome:
    elapsed: float
    status: str  # "ok", "wrong", "undecided" or "crash"
    why: str = ""
    rss_kib: int = 0


class Deadline(BaseException):
    """Raised by the interval timer in an in-process instance that runs past
    its deadline.  A BaseException, so the package's handlers let it pass."""


def _fire(signum, frame):
    raise Deadline()


def install_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _fire)


def load_package() -> SimpleNamespace:
    """The package's modules; calls go through module attributes so that the
    tracer's wrappers see the benchmark's own calls too."""
    import linkscope.cli
    import linkscope.errors
    import linkscope.graph
    import linkscope.identifiability
    import linkscope.tomography
    import linkscope.witness

    return SimpleNamespace(
        cli=linkscope.cli,
        errors=linkscope.errors,
        graph=linkscope.graph,
        identifiability=linkscope.identifiability,
        tomography=linkscope.tomography,
        witness=linkscope.witness,
    )


# ---------------------------------------------------------------------------
# the CLI workloads


def cli_args(workload: str, inst: dict, workdir: str) -> list[str]:
    graph = os.path.join(workdir, inst["graph"])
    if workload == "place":
        return ["place", graph]
    monitors = ",".join(str(m) for m in inst["monitors"])
    weights = os.path.join(workdir, inst["weights_file"])
    return ["identify", graph, "--monitors", monitors, "--weights", weights]


def cli_env(workload: str, base: dict) -> dict:
    env = dict(base)
    if workload == "place":
        env["LINKSCOPE_PATH_CAP"] = str(PLACE_PATH_CAP)
    return env


def classify_cli(workload: str, inst: dict, code: int | None, stdout: str, stderr: str) -> tuple[str, str]:
    """Status of one CLI instance from its exit code and output.  Exit 4 (a
    resource cap) is undecided; exits 2 and 3 reject input the generator made
    valid, so they count as wrong answers; any other code or a traceback is a
    crash."""
    if code is None:
        return "undecided", "deadline"
    if "Traceback (most recent call last)" in stderr:
        return "crash", "traceback"
    if code == CLI_EXIT_CAP:
        return "undecided", "path cap"
    if code in (2, 3):
        return "wrong", f"exit {code}: {stderr.strip()[:200]}"
    if code != 0:
        return "crash", f"exit {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "wrong", "output is not JSON"
    if workload == "place":
        problems = checks.check_place(inst["n"], inst["edges"], report)
    else:
        problems = checks.check_identify(inst["edges"], inst["weights"], report)
    return ("wrong", problems[0]) if problems else ("ok", "")


def run_child(argv: list[str], env: dict, deadline_s: float, out_path: str, err_path: str):
    """Run one child to its end or its deadline and reap it.

    Returns (elapsed seconds, exit code or None past the deadline, stdout,
    stderr, the child's peak RSS in KiB).  Output goes to files, so a large
    report cannot block the child on a full pipe while the parent waits.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited = bool(select.select([pidfd], [], [], deadline_s)[0])
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return elapsed, proc.returncode if exited else None, stdout, stderr, usage.ru_maxrss


def cli_child(workload: str, inst: dict, workdir: str, env: dict) -> Outcome:
    argv = [sys.executable, "-m", "linkscope.cli", *cli_args(workload, inst, workdir)]
    elapsed, code, stdout, stderr, rss = run_child(
        argv,
        env,
        DEADLINE_S[workload],
        os.path.join(workdir, "stdout.txt"),
        os.path.join(workdir, "stderr.txt"),
    )
    status, why = classify_cli(workload, inst, code, stdout, stderr)
    return Outcome(elapsed, status, why, rss)


def cli_inprocess(pkg, workload: str, inst: dict, workdir: str, tracer=None) -> Outcome:
    """cli.main(argv) in this process with stdout and stderr captured; the
    caller sets LINKSCOPE_PATH_CAP as cli_env would."""
    out, err = io.StringIO(), io.StringIO()
    args = cli_args(workload, inst, workdir)
    root = tracer.begin("instance") if tracer else None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S[workload])
            try:
                code = pkg.cli.main(args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        code = None
    except Exception:
        err.write(traceback.format_exc())
        code = 1
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end_instance(root)
    status, why = classify_cli(workload, inst, code, out.getvalue(), err.getvalue())
    return Outcome(elapsed, status, why)


# ---------------------------------------------------------------------------
# the two-monitor scan


def _scan_body(pkg, edges, pair) -> dict:
    """The acceptance scan's per-instance work: the rank verdict, both
    conditions and the deletion characterization, and on qualifying
    instances the witness searches and the hard-link-per-cycle count."""
    ident, tomo, wit = pkg.identifiability, pkg.tomography, pkg.witness
    g = pkg.graph.Graph(edges=edges)
    paths = ident.enumerate_monitor_paths(g, pair, ident.DEFAULT_PATH_CAP)
    report = ident.identifiable_links(ident.build_matrix(g, paths))
    out = {
        "identifiable": report.identifiable,
        "condition_1": tomo.condition_1(g, pair),
        "condition_2": tomo.condition_2(g, pair),
        "prop2": tomo.prop2_characterization(g, pair),
    }
    if out["condition_1"] and out["condition_2"]:
        interior = sorted(tomo.interior_links(g, pair))
        out["lemma3"] = {vw: wit.find_lemma3_witness(g, vw, pair) for vw in interior}
        out["case_b"] = {vw: wit.is_case_b_link(g, vw, pair) for vw in interior}
        out["lemma4"] = {
            vw: wit.find_lemma4_witness(g, vw, pair) for vw in interior if out["case_b"][vw]
        }
        out["nonseparating_cycles"] = [
            c for c in wit.all_cycles(g) if wit.is_nonseparating_cycle(g, c, pair)
        ]
    return out


def scan_instance(pkg, inst: list[int], tracer=None) -> Outcome:
    n, mask, a, b = inst
    edges = gen.mask_edges(n, mask)
    pair = (a, b)
    root = tracer.begin("instance") if tracer else None
    start = time.perf_counter()
    out = None
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S["scan"])
        try:
            out = _scan_body(pkg, edges, pair)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        status, why = "undecided", "deadline"
    except (pkg.errors.PathExplosionError, pkg.errors.InconclusiveError) as exc:
        status, why = "undecided", type(exc).__name__
    except Exception as exc:
        status, why = "crash", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end_instance(root)
    if out is not None:
        for key in ("lemma3", "lemma4"):
            if key in out:
                out[key] = {vw: vars(w) if w is not None else None for vw, w in out[key].items()}
        problems = checks.check_scan(edges, pair, out)
        status, why = ("wrong", problems[0]) if problems else ("ok", "")
    return Outcome(elapsed, status, why)

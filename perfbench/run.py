"""rootspin benchmark: three workloads, exact answer checks, optional layer trace.

    python3 perfbench/run.py --workload icosian-cold --seed 1 --seconds 30 --trace 0

Run from anywhere; the repository root is the parent of this directory.  The
package is used from `src` (put on PYTHONPATH for every process started here)
and the CLI runs as `python -m rootspin`.  One job or request runs at a time
and no threads are used, so the load fits a two-core machine.

Workloads (see BENCHMARK.json for why each exists):
  icosian-cold   each job is two fresh processes: induce --preset H3 to JSON,
                 then classify that file (H4, 14400)
  crystal-cli    a seeded shuffle of short fresh-process CLI jobs on small inputs
  warm-session   one long-lived server process, one closed-loop client sending
                 a seeded stream of library requests

Output: the second-last line of stdout is a JSON report (every metric, sample
counts, failures, environment); the last line is the result object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1).  A traced run also runs the
untraced workload, so it can report the gap between the two.

The end-to-end times (set-up, latency, throughput) are in reference seconds:
the run's wall times are scaled by the host speed sampled while its
processes work (see hostspeed.py), so the host's slow phases do not read as
changes of the program.  The report line also gives the wall-clock figures
and the run's host speed.  The run and its processes are held to one CPU.  A
run does a fixed number of whole units, as many as fit in --seconds at the
reference speed (inputs.UNIT_S).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed, lowest_priority, pin  # noqa: E402
from inputs import (  # noqa: E402
    WarmStream,
    check_cli,
    check_warm,
    cli_argv,
    cold_unit,
    parse_cli,
    unit_count,
)

ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("icosian-cold", "crystal-cli", "warm-session")
# fresh interpreters timed until `import rootspin` returns, half before and
# half after the measured run: the host has slow phases lasting seconds, and
# probes at both ends keep one phase from setting the median
SETUP_PROBES = 12
PROCESS_TIMEOUT_S = 120  # any one process; the whole run must end within 180 s
HARD_STOP_S = 140       # no new unit of work starts after this much run time
P90_MIN_SAMPLES = 100
# the end-to-end metrics BENCHMARK.json lists; the report line has the others
GATED = ("setup_s", "latency_s.mean", "throughput_per_s", "peak_rss_mb")

# spans whose busy seconds per job are per_layer metrics; a span a workload
# never records reports 0
LAYER_SPANS = (
    "presets.build_preset", "roots.close_under_reflections", "roots.normalize_roots",
    "induction.generate_rotor_group", "clifford.spinor_to_vec4", "induction.induce_4d",
    "roots.verify_root_axioms", "classify.signature", "classify.catalog",
    "classify.identify", "classify.coxeter_order", "classify.survey",
    "induction.check_self_dual", "serialize.root_system_to_json",
    "serialize.root_system_from_json", "cli.main",
)
# spans the cold replay times as a real call and again as its steps
STEPPED_SPANS = ("presets.build_preset", "induction.induce_4d")
# CLI processes per job: setup is paid once per process
PROCESSES_PER_JOB = {"icosian-cold": 2, "crystal-cli": 1}


# -- processes ----------------------------------------------------------------


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block after `seconds` (SIGALRM; no threads)."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def reap(proc: subprocess.Popen, timeout: float, host: HostSpeed) -> tuple[int, int, bool]:
    """Wait for proc, sampling host speed meanwhile; kill it past timeout.

    Reaped with os.wait4: (exit code, maxrss KiB, timed out).
    """
    fd = os.pidfd_open(proc.pid)
    try:
        timed_out = not host.wait(fd, timeout)
    finally:
        os.close(fd)
    if timed_out:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, timed_out


class Runner:
    """Starts every process of a run, with src on PYTHONPATH, and waits for each."""

    def __init__(self, tmp: Path, host: HostSpeed):
        self.tmp = tmp
        self.host = host
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.peak_rss_kib = 0

    def run(self, args: list[str]) -> tuple[int, float, str, str]:
        """Run `python <args>` to completion: (exit code, wall s, stdout, stderr)."""
        with tempfile.TemporaryFile(dir=self.tmp) as out, tempfile.TemporaryFile(dir=self.tmp) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT,
                                    preexec_fn=lowest_priority)
            code, rss, timed_out = reap(proc, PROCESS_TIMEOUT_S, self.host)
            wall = time.perf_counter() - t0
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        if timed_out:
            stderr += f"\nkilled after {PROCESS_TIMEOUT_S} s"
            code = -9
        return code, wall, stdout, stderr


# -- set-up -------------------------------------------------------------------

_PROBE = (
    "import time; t0 = time.perf_counter(); import rootspin; t1 = time.perf_counter(); "
    "ready = time.monotonic(); import json, sys, numpy; "
    "print(json.dumps({'ready': ready, 'import_s': t1 - t0, 'numpy': numpy.__version__, "
    "'python': sys.version.split()[0]}))"
)


def probe_setup(runner: Runner, n: int, setup: dict) -> None:
    """Add n fresh interpreters' spawn-to-import and in-process import times to `setup`."""
    untimed = 0 if setup["setup_samples"] else 1  # a run's first probe writes the bytecode caches
    for i in range(untimed + n):
        spawned = time.monotonic()
        code, _, out, err = runner.run(["-c", _PROBE])
        if code != 0:
            raise SystemExit(f"rootspin does not import: {err.strip()}")
        info = json.loads(out.strip().splitlines()[-1])
        setup.update(python=info["python"], numpy=info["numpy"])
        if i < untimed:
            continue
        setup["setup_samples"].append(info["ready"] - spawned)
        setup["import_samples"].append(info["import_s"])
    setup["setup_s"] = median(setup["setup_samples"])
    setup["import_s"] = median(setup["import_samples"])


# -- statistics and environment -------------------------------------------------


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


# -- workloads ------------------------------------------------------------------


class Tally:
    """Operations attempted and failed; a failed operation may carry several messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.messages: list[str] = []

    def add(self, failures: list[str], known_defect: bool = False) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.known_defect += known_defect
            self.messages += failures


def run_cold(workload: str, seed: int, units: int, runner: Runner, tally: Tally,
             stop_at: float) -> dict:
    """Fresh-process CLI jobs in whole units (one icosian job, or one crystal cycle).

    A job's latency is the sum of its processes' wall times.
    """
    latencies: list[float] = []
    start = time.perf_counter()
    done = 0
    for index in range(units):
        if time.perf_counter() > stop_at:
            break
        for job in cold_unit(workload, seed, index, str(runner.tmp)):
            job_s, failures = 0.0, []
            for step in job:
                code, wall, out, err = runner.run(["-m", "rootspin", *cli_argv(step)])
                job_s += wall
                path = step.get("output")
                text = Path(path).read_text(encoding="utf-8") if path and os.path.exists(path) else None
                failures += check_cli(step, parse_cli(step, code, out, err, text))
            latencies.append(job_s)
            tally.add(failures)
        done += 1
    return {"latencies": latencies, "elapsed": time.perf_counter() - start, "units": done}


def run_warm(seed: int, units: int, runner: Runner, tally: Tally, stop_at: float) -> dict:
    """One server process; the client sends the next request when the answer is in."""
    stream = WarmStream(seed)
    err = tempfile.TemporaryFile(dir=runner.tmp)
    proc = subprocess.Popen([sys.executable, str(HERE / "session.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=err, env=runner.env, cwd=ROOT,
                            text=True, bufsize=1, preexec_fn=lowest_priority)
    latencies: list[float] = []
    out: dict = {"elapsed": 0.0, "units": 0}
    try:
        def send(batch: list[dict], record: bool) -> None:
            for req in batch:
                t0 = time.perf_counter()
                proc.stdin.write(json.dumps(req) + "\n")
                proc.stdin.flush()
                if not runner.host.wait(proc.stdout.fileno(), PROCESS_TIMEOUT_S):
                    raise TimeoutError(f"no answer within {PROCESS_TIMEOUT_S} s")
                with deadline(PROCESS_TIMEOUT_S):
                    line = proc.stdout.readline()
                wall = time.perf_counter() - t0
                if not line:
                    raise EOFError("warm-session server exited")
                tally.add(*check_warm(req, json.loads(line)))
                if record:
                    latencies.append(wall)

        t0 = time.perf_counter()
        send(stream.warmup(), record=False)
        out["warmup_s"] = time.perf_counter() - t0
        start = time.perf_counter()
        for done in range(1, units + 1):
            if time.perf_counter() > stop_at:
                break
            send(stream.round(), record=True)
            out.update(elapsed=time.perf_counter() - start, units=done)
    except (TimeoutError, EOFError, BrokenPipeError, ValueError) as exc:
        err.seek(0)
        tail = err.read().decode("utf-8", "replace")[-2000:]
        tally.add([f"warm-session aborted: {type(exc).__name__}: {exc}; server stderr: {tail}"])
    finally:
        proc.stdin.close()
        _, rss, _ = reap(proc, 30, runner.host)
        proc.stdout.close()
        err.close()
        runner.peak_rss_kib = max(runner.peak_rss_kib, rss)
    out["latencies"] = latencies
    return out


def end_to_end(setup: dict, res: dict, runner: Runner, tally: Tally, k: float) -> dict:
    """Every end-to-end metric, with times scaled by k (1 gives wall seconds).

    The mean is the gated latency: crystal-cli's jobs take either about
    0.3 s or about 2 s, so its median is the fastest classify job of the
    run, an extreme of ten noisy values.  p50 and p90 are reported beside it.
    """
    lat = [k * x for x in res["latencies"]] or [float("nan")]
    metrics = {
        "setup_s": (k * setup["setup_s"], "s"),
        "latency_s.mean": (sum(lat) / len(lat), "s"),
        "latency_s.p50": (median(lat), "s"),
        "throughput_per_s": (len(res["latencies"]) / (k * res["elapsed"]) if res["elapsed"] else 0.0,
                             "1/s"),
        "peak_rss_mb": (runner.peak_rss_kib / 1024, "MB"),
        "fail_ratio": (tally.failed / max(1, tally.attempted), "ratio"),
    }
    if len(res["latencies"]) >= P90_MIN_SAMPLES:
        metrics["latency_s.p90"] = (percentile(lat, 0.9), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(workload: str, setup: dict, untraced: dict, trace: dict) -> dict:
    """Per-layer metrics from the replay; busy seconds are per job (per request when warm)."""
    jobs = max(1, trace["jobs"])
    m: dict = {"process.import.s": (setup["import_s"], "s")}
    for name in LAYER_SPANS:
        busy = trace["spans"].get(name, {}).get("busy_s", 0.0)
        m[f"{name}.s"] = (busy / jobs, "s")
    # a replayed step sequence against the real call it copies; 0 where the
    # workload replays no steps (warm-session calls the functions whole)
    for name in STEPPED_SPANS:
        steps = trace["spans"].get(f"{name}.steps")
        gap = trace["spans"][name]["busy_s"] - steps["busy_s"] if steps else 0.0
        m[f"{name}.steps_gap.s"] = (gap / jobs, "s")
    for name, (ns, ops) in trace["micro"].items():
        m[f"{name}.ns"] = (ns, "ns")
        m[f"{name}.ops"] = (ops, "count")
    for name, hm in trace["caches"].items():
        hits, misses = hm or (0, 0)  # a cache a later version dropped reads as 0
        m[f"cache.{name}.hits"] = (hits, "count")
        m[f"cache.{name}.misses"] = (misses, "count")
        m[f"cache.{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    # outside-in accounting: one job's layer spans plus set-up per process,
    # against the untraced latency of the same job
    procs = PROCESSES_PER_JOB.get(workload, 0)
    span_sum = median(trace["request_span_s"] or [0.0]) + procs * setup["setup_s"]
    untraced_p50 = median(untraced["latencies"] or [float("nan")])
    m["trace.span_sum_plus_setup.s"] = (span_sum, "s")
    m["trace.untraced_latency.s"] = (untraced_p50, "s")
    m["trace.gap.s"] = (untraced_p50 - span_sum, "s")
    m["trace.span.ns"] = (trace["span_ns"], "ns")
    m["trace.overhead.s"] = (trace["span_ns"] * 1e-9 * trace["n_spans"] / jobs, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "rootspin" / "__init__.py").is_file():
        print(f"run.py: no rootspin sources under {SRC}", file=sys.stderr)
        return 2
    stop_at = time.perf_counter() + HARD_STOP_S
    cpu = pin()
    env = {"load_start": loadavg(), "nproc": len(os.sched_getaffinity(0)),
           "cpu_count": os.cpu_count(), "cpu": cpu_model(), "platform": platform.platform()}
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        host = HostSpeed()
        runner = Runner(tmp, host)
        tally = Tally()
        setup: dict = {"setup_samples": [], "import_samples": []}
        probe_setup(runner, SETUP_PROBES // 2, setup)
        units = unit_count(args.workload, args.seconds)
        if args.workload == "warm-session":
            res = run_warm(args.seed, units, runner, tally, stop_at)
        else:
            res = run_cold(args.workload, args.seed, units, runner, tally, stop_at)
        probe_setup(runner, SETUP_PROBES - SETUP_PROBES // 2, setup)
        env.update(python=setup["python"], numpy=setup["numpy"])
        # fixed here: reps taken during the traced replay are not part of it
        speed, reps = host.scale(), len(host.reps)
        e2e = end_to_end(setup, res, runner, tally, speed)
        wall = end_to_end(setup, res, runner, tally, 1.0)
        trace = None
        if args.trace:
            # the replay gets half the time: per-layer figures are per job
            code, _, out, err = runner.run([str(HERE / "replay.py"), "--workload", args.workload,
                                            "--seed", str(args.seed), "--seconds", str(args.seconds / 2),
                                            "--tmp", str(tmp)])
            if code != 0:
                print(err, file=sys.stderr)
                raise SystemExit(f"traced replay failed with exit code {code}")
            trace = json.loads(out.strip().splitlines()[-1])
            tally.attempted += trace["attempted"]
            tally.failed += trace["failed"]
            tally.known_defect += trace["known_defect"]
            tally.messages += trace["failures"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    env["load_end"] = loadavg()

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "samples": len(res["latencies"]), "units": res["units"], "measured_s": res["elapsed"],
        "latency_quartiles_s": quantiles(res["latencies"], n=4) if len(res["latencies"]) > 1 else None,
        "metrics": e2e, "setup_samples_s": setup["setup_samples"],
        "host_speed": speed, "reference_reps": reps, "cpu": cpu,
        "wall_metrics": {k: wall[k] for k in GATED if k != "peak_rss_mb"},
        "failures": tally.messages[:20], "failed": tally.failed,
        "known_defect_failures": tally.known_defect, "env": env,
    }
    if "warmup_s" in res:
        report["warmup_s"] = res["warmup_s"]
    if trace is not None:
        layers = per_layer(args.workload, setup, res, trace)
        report["per_layer"] = layers
        report["spans"] = trace["spans"]
        report["trace_jobs"] = trace["jobs"]
        report["caches_absent"] = [n for n, hm in trace["caches"].items() if hm is None]
        metrics = layers
    else:
        metrics = {k: e2e[k] for k in GATED}
    print(json.dumps({"report": report}))
    # the known cache-key defect (a cached induce_4d result carrying another
    # input's label) is counted in `failed` but does not make the answers wrong
    result = {"correct": tally.failed == tally.known_defect and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for edtorus: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a checkout; the program is imported from ``src/``.

Load model: a closed loop with one client.  One pass of a workload is a fresh
worker process (bench/worker.py) that imports edtorus and issues the
workload's requests in order through ``edtorus.cli.main``.  Passes run one at
a time until ``--seconds`` is used up (at least one pass), so module-level
caches never carry over from one pass to the next.  The seed only selects a
random relabelling of the lines of each fixture; the worker receives only the
generated JSON files.

Every reply is checked against bench/expected.json (exit code and the
mathematical fields only).  A request fails on a wrong exit code, an uncaught
exception, a wrong answer, or a missed per-request deadline; the worker is
then killed and every request it did not finish counts as failed.

``--trace 0`` reports the end-to-end metrics of untraced passes.  Their
times are CPU seconds of the worker process (``time.process_time``).  The
program is single-threaded and CPU-bound, so on an idle host this is its
elapsed time; unlike elapsed time it leaves out the time a shared host takes
the virtual CPU away (steal time).  The host's speed also drifts by tens of
percent over minutes, so while a run measures, bench/calibrate.py times a
fixed piece of pure-Python work on the other CPU (the two CPUs swap between
passes), and each pass's times are scaled by calibrate.REF_S over that
work's mean time during the pass (set-up times: during the whole run).  The
unscaled medians, and the elapsed-time ones, go into the provenance.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (bench/tracer.py) and the run's
failed_frac; the tracing overhead, the difference of the two median CPU
times, goes into the provenance with its pass counts.  ``--self-test`` checks
the tracer wiring: every per-layer metric is nonzero on the workload it is
mapped to, and traced answers equal untraced answers.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Fixtures and a full result with its provenance are
written under .bench_build/edtorus-bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time

import calibrate
import tracer
import workloads

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
CALIBRATOR = os.path.join(BENCH_DIR, "calibrate.py")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORK_DIR = os.path.join(ROOT, ".bench_build", "edtorus-bench")

REQUEST_DEADLINE_S = 30.0  # per request; the slowest request today takes ~5 s
START_DEADLINE_S = 60.0  # process start until edtorus is imported
SETUP_PROBES = 10  # extra import-only processes per untraced run, for setup_s

END_TO_END = {"cpu_s": "s", "max_request_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**tracer.LAYER_METRICS, "failed_frac": "ratio"}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("EDTORUS_MAX_STEPS", None)
    return env


class _Lines:
    """JSON lines from a pipe, each read with a deadline."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buf = b""

    def next(self, timeout: float):
        end = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = end - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)


def run_client(argvs: list[list[str]], trace: bool = False) -> dict:
    """One pass: a fresh worker issuing argvs in order, each under the deadline."""
    cmd = [sys.executable, WORKER, "--requests", json.dumps(argvs)] + (["--trace"] if trace else [])
    started = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT)
    lines = _Lines(proc.stdout)
    ready, replies, final = None, [], None
    try:
        ready = lines.next(START_DEADLINE_S)
        while ready is not None and len(replies) < len(argvs):
            reply = lines.next(REQUEST_DEADLINE_S)
            if reply is None:
                break
            replies.append(reply)
        if len(replies) == len(argvs):
            final = lines.next(REQUEST_DEADLINE_S)
    finally:
        if final is None:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)  # rusage of this worker alone
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return {
        "ready": ready,
        "started": started,
        "setup_s": ready["ready"] - started if ready else None,
        "replies": replies,
        "final": final,
        # Peak resident memory less the mapped libraries resident at start-up:
        # how much of those is resident depends on the host's page cache.
        "rss_mb": usage.ru_maxrss / 1024.0 - (ready["rss_file_mb"] if ready else 0.0),
    }


# -- inputs and answers -------------------------------------------------------------


def make_fixtures(names: list[str], seed: int) -> dict[str, str]:
    """Generate each fixture from its case study, relabelled by the seed."""
    if not names:
        return {}
    out = run_client([["case", *workloads.FIXTURE_CASES[n]] for n in names])
    if len(out["replies"]) != len(names) or any(r["rc"] != 0 for r in out["replies"]):
        raise RuntimeError(f"fixture generation failed: {out['replies']}")
    folder = os.path.join(WORK_DIR, "fixtures", f"seed{seed}")
    os.makedirs(folder, exist_ok=True)
    paths = {}
    for name, reply in zip(names, out["replies"]):
        doc = workloads.relabel(json.loads(reply["stdout"])["presentation"], random.Random(f"{seed}:{name}"))
        paths[name] = os.path.join(folder, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


def resolve(argv: list[str], fixtures: dict[str, str]) -> list[str]:
    return [fixtures[tok[1:]] if tok.startswith("@") else tok for tok in argv]


def prepare(workload: str, seed: int) -> tuple[list[str], list[list[str]]]:
    """Request ids and runnable argvs of a workload, its fixtures generated for the seed."""
    requests = workloads.WORKLOADS[workload]
    fixtures = make_fixtures(workloads.fixture_names(workload), seed)
    return [workloads.request_id(a) for a in requests], [resolve(a, fixtures) for a in requests]


def reply_answer(reply: dict) -> dict | None:
    """Exit code and mathematical fields of one reply; None if it has no report."""
    if reply["rc"] is None:
        return None
    try:
        doc = json.loads(reply["stdout"]) if reply["stdout"].strip() else {}
    except ValueError:
        return None
    return {"rc": reply["rc"], "answer": workloads.answer(doc)}


def check_pass(ids: list[str], result: dict, expected: dict) -> list[str]:
    """One failure description per failed or unfinished request."""
    failures = []
    for rid, reply in zip(ids, result["replies"]):
        got = reply_answer(reply)
        if got is None:
            failures.append(f"{rid}: no report ({(reply['error'] or '').strip()[-300:]})")
        elif got != expected.get(rid):
            failures.append(f"{rid}: got {got}, expected {expected.get(rid)}")
    for rid in ids[len(result["replies"]) :]:
        failures.append(f"{rid}: unfinished (deadline {REQUEST_DEADLINE_S:g} s or worker exit)")
    return failures


# -- measurement --------------------------------------------------------------------


class Calibration:
    """bench/calibrate.py running on one CPU while the passes run on another.

    The two CPUs swap from one pass to the next, so a CPU that stays slower
    than the other for a whole run biases half the passes each way instead of
    all of them one way."""

    def __init__(self):
        self.path = os.path.join(WORK_DIR, "calibration.txt")
        self.proc = None
        self.slices: list[tuple[float, float, float]] = []  # start, end, CPU seconds
        cpus = sorted(os.sched_getaffinity(0))
        self.cpus = (cpus[0], cpus[-1])
        if len(cpus) < 2:
            return  # no CPU to spare: the times stay unscaled
        os.sched_setaffinity(0, {self.cpus[0]})  # this runner and its workers
        os.makedirs(WORK_DIR, exist_ok=True)
        if os.path.exists(self.path):
            os.remove(self.path)
        self.proc = subprocess.Popen([sys.executable, CALIBRATOR, self.path, str(self.cpus[1])])

    def place(self, k: int) -> None:
        """Put the k-th pass of a kind on one CPU and the calibrator on the other."""
        if self.proc is None:
            return
        here, there = (self.cpus[0], self.cpus[1]) if k % 2 == 0 else (self.cpus[1], self.cpus[0])
        os.sched_setaffinity(0, {here})
        os.sched_setaffinity(self.proc.pid, {there})

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        self.proc.wait()
        with open(self.path, encoding="utf-8") as fh:
            self.slices = [tuple(map(float, line.split())) for line in fh if line.endswith("\n")]

    def scale(self, start: float = 0.0, end: float = float("inf")) -> float:
        """REF_S over the mean CPU time of the slices within [start, end] (epoch seconds)."""
        inside = [cpu for s, e, cpu in self.slices if start <= s and e <= end]
        inside = inside or [cpu for s, e, cpu in self.slices if s < end and e > start]
        return calibrate.REF_S / statistics.mean(inside) if inside else 1.0


def pass_metrics(result: dict, n_requests: int) -> dict[str, float]:
    """End-to-end metrics of one pass, and its elapsed time."""
    cpu = [r["cpu_s"] for r in result["replies"]]
    wall = [r["seconds"] for r in result["replies"]]
    if len(cpu) < n_requests:  # the request the worker was killed in
        cpu.append(REQUEST_DEADLINE_S)
        wall.append(REQUEST_DEADLINE_S)
    return {"cpu_s": sum(cpu), "max_request_cpu_s": max(cpu), "peak_rss_mb": result["rss_mb"], "wall_s": sum(wall)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    ids, argvs = prepare(workload, seed)

    cal = Calibration()
    try:
        run_client([])  # warm the byte-code and file caches; users do not pay this per run
        probes = [] if trace else [run_client([]) for _ in range(SETUP_PROBES)]

        plain: list[dict] = []
        traced: list[dict] = []
        failures: list[str] = []
        attempted = 0
        env = None
        longest = 0.0
        started = time.monotonic()
        while True:
            as_traced = trace and len(traced) < len(plain)
            cal.place(len(traced) if as_traced else len(plain))
            t0 = time.monotonic()
            result = run_client(argvs, as_traced)
            result["interval"] = (result["started"], time.time())
            longest = max(longest, time.monotonic() - t0)
            env = env or result["ready"]
            attempted += len(ids)
            failures += check_pass(ids, result, expected)
            (traced if as_traced else plain).append(result)
            done = len(plain) >= 1 and (not trace or len(traced) >= 1)
            if done and time.monotonic() - started + longest > seconds:
                break
    finally:
        cal.stop()

    samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
    unscaled: dict[str, list[float]] = {k: [] for k in END_TO_END}
    setups = [r for r in probes + plain if r["ready"] is not None]
    unscaled["setup_s"] = [r["ready"]["cpu_s"] for r in setups]
    samples["setup_s"] = [v * cal.scale() for v in unscaled["setup_s"]]
    wall = []
    for result in plain:
        metrics = pass_metrics(result, len(ids))
        wall.append(metrics.pop("wall_s"))
        scale = cal.scale(*result["interval"])
        for k, v in metrics.items():
            unscaled[k].append(v)
            samples[k].append(v if k == "peak_rss_mb" else v * scale)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "env": env,
        "unscaled": {k: statistics.median(v) for k, v in unscaled.items() if v},
        "calibration": {
            "ref_s": calibrate.REF_S,
            "mean_s": calibrate.REF_S / cal.scale() if cal.slices else None,
            "slices": len(cal.slices),
        },
        "wall_s": statistics.median(wall),
        "setup_wall_s": statistics.median(r["setup_s"] for r in setups) if setups else None,
    }
    if not trace:
        report["metrics"] = {k: (statistics.median(v), len(v), quartiles(v)) for k, v in samples.items() if v}
        return report

    layer_runs = [r["final"]["layers"] for r in traced if r["final"] is not None]
    layers = {}
    for name in tracer.LAYER_METRICS:
        values = [run[name] for run in layer_runs if name in run]
        if values:
            layers[name] = (statistics.median(values), len(values), quartiles(values))
    frac = len(failures) / attempted
    layers["failed_frac"] = (frac, 1, (frac,) * 3)
    traced_cpu = [pass_metrics(r, len(ids))["cpu_s"] for r in traced]
    report["metrics"] = layers
    report["overhead"] = {
        "cpu_s": statistics.median(traced_cpu) - statistics.median(unscaled["cpu_s"]),
        "traced_passes": len(traced_cpu),
        "untraced_passes": len(samples["cpu_s"]),
    }
    return report


# -- reporting ----------------------------------------------------------------------


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def print_report(report: dict) -> dict:
    units = PER_LAYER if report["trace"] else END_TO_END
    frac = report["failed"] / report["attempted"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
        f"attempted {report['attempted']}  failed {report['failed']}  failed_frac {frac:g} ratio"
    )
    for name, (value, n, (q1, _, q3)) in report["metrics"].items():
        print(f"  {name:<52} {value:12.6g} {units[name]:<6} median of {n}, quartiles {q1:.6g} .. {q3:.6g}")
    for failure in report["failures"][:20]:
        print(f"  FAILED {failure}")
    if report["trace"]:
        wall = report["metrics"].get("trace.wall_s", (0.0,))[0] or 1.0
        selfs = sorted(
            ((v[0], k) for k, v in report["metrics"].items() if k.endswith("_s") and not k.startswith("trace.")),
            reverse=True,
        )
        print("  largest self times, share of trace.wall_s:")
        for value, name in selfs[:6]:
            print(f"    {name:<50} {value / wall:6.1%}")
    env = report["env"] or {}
    provenance = {
        "git_sha": git_sha(),
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "nproc": os.cpu_count(),
        "seed": report["seed"],
        "workload": report["workload"],
        "trace": report["trace"],
        "samples": {k: v[1] for k, v in report["metrics"].items()},
        "tracing_overhead": report.get("overhead"),
        "calibration": report["calibration"],
        "unscaled_medians": report["unscaled"],
        "median_wall_s": report["wall_s"],
        "median_setup_wall_s": report["setup_wall_s"],
        "request_deadline_s": REQUEST_DEADLINE_S,
        "failed_frac": frac,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v[0], "unit": units[k]} for k, v in report["metrics"].items()},
    }
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    path = os.path.join(WORK_DIR, "results", f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "provenance": provenance, "failures": report["failures"]}, fh, indent=1)
    return result


def self_test(expected: dict) -> int:
    """Tracer wiring: mapped per-layer metrics nonzero, traced answers equal untraced."""
    ok = True
    for workload in workloads.WORKLOADS:
        ids, argvs = prepare(workload, 1)
        plain = run_client(argvs)
        traced = run_client(argvs, trace=True)
        problems = check_pass(ids, plain, expected[workload]) + check_pass(ids, traced, expected[workload])
        if [reply_answer(r) for r in plain["replies"]] != [reply_answer(r) for r in traced["replies"]]:
            problems.append("traced answers differ from untraced answers")
        layers = (traced["final"] or {}).get("layers") or {}
        problems += [f"target missing: {m}" for m in (traced["final"] or {}).get("missing", [])]
        problems += [f"mapped metric is zero: {m}" for m in workloads.MAPPED_LAYER_METRICS[workload] if not layers.get(m)]
        print(f"self-test {workload}: {'PASS' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the finally blocks that stop child processes
    if not os.path.isfile(os.path.join(ROOT, "src", "edtorus", "cli.py")):
        sys.stderr.write(f"edtorus sources not found under {ROOT}/src; run from the root of a checkout\n")
        return 2
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    if args.self_test:
        return self_test(expected)
    if args.workload is None:
        parser.error("--workload is required")
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected[args.workload])
    result = print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""riskhorizon benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 every session runs `python3 -m riskhorizon` commands and the
scoring process (score.py) as separate processes and the run reports the
end-to-end metrics of BENCHMARK.json: medians over the sessions that fit in
--seconds (for latency, of each session's percentile). It also prints what
it measures but does not bound, such as score_p99_us and acc_mean
(perfbench/baseline.json says why). With --trace 1
the same commands run in this process through `riskhorizon.cli.main`, once
plain and once with spans (spans.py), alternately, and the run reports the
per-layer metrics. BLAS, OpenMP and MKL are pinned to one thread throughout.

Every command, correctness check and scoring call is an operation; the last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The full record of a run (manifest, sha256 of every artifact,
per-session values) is written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import score
import spans
from workloads import CHECKPOINT, EPISODES, SCORE_ROWS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEFAULT_SEED = 1
# Reserved for re-checking a claimed gain on a seed not used while the
# change was written; never use it during development.
RECHECK_SEED = 4099
MIN_SESSIONS = 3
SETUP_REPEATS = 7
# Latency metrics and their percentiles, taken per scoring session.
PERCENTILES = {"score_p50_us": 50, "score_p99_us": 99}
# Units of what a run measures and prints but BENCHMARK.json does not bound.
UNBOUNDED_UNITS = {"score_p99_us": "us", "acc_mean": "mse", "oracle_max_abs_error": "prob",
                   "oracle_s": "s", "score_setup_s": "s", "max_gap": "abs"}
# Single-observation and batched forwards of the same rows agree to rounding.
GAP_TOLERANCE = 1e-12
# Trained chain estimates stay this close to the exact DP table. The
# acceptance test asks 0.05 after 40 epochs; a session here trains 10.
ORACLE_TOLERANCE = 0.1
# Every run ends inside 180 s; a child still running at this point is killed.
DEADLINE_S = 170.0


class Ledger:
    """Operations attempted and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok

    def completed(self, n: int) -> None:
        self.attempted += n


def digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_child(argv: list[str], log: Path, deadline: float) -> dict:
    """Run one process to completion: wall time, peak RSS and exit code.

    Linux counts this process's resident memory at spawn in the child's
    ru_maxrss, so an untraced run never imports numpy or riskhorizon here.
    """

    started = time.monotonic()
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
    killer = threading.Timer(max(deadline - started, 1.0), proc.kill)
    killer.daemon = True
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    seconds = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"started": started, "seconds": seconds, "rss_mb": usage.ru_maxrss / 1024,
            "rc": proc.returncode}


def log_tail(log: Path) -> str:
    """End of a child's output, kept in the failure message (logs are removed)."""

    return " | ".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-3:])[-300:]


def session_outputs(out: Path, rec: dict, ledger: Ledger) -> None:
    """Quality numbers and artifact digests of a finished session."""

    summary = json.loads((out / "reports" / "summary.json").read_text(encoding="utf-8"))
    rec["acc_mean"] = summary["acc_mean"]
    if "oracle_max_abs_error" in summary:
        error = summary["oracle_max_abs_error"]
        rec["oracle_max_abs_error"] = error
        ledger.check(f"{out.name} estimates within {ORACLE_TOLERANCE} of the exact table",
                     error <= ORACLE_TOLERANCE, f"max error {error:.4g}")
    rec["digests"] = digests(out)


def untraced_session(wl, config: Path, seed: int, out: Path, logs: Path,
                     ledger: Ledger, deadline: float) -> dict:
    out.mkdir(parents=True)
    rec: dict = {"rss_mb": 0.0, "complete": False}
    for label, argv in wl.commands(config, seed, out):
        log = logs / f"{out.name}-{label}.log"
        child = run_child([sys.executable, "-m", "riskhorizon", *argv], log, deadline)
        rec[f"{label}_s"] = child["seconds"]
        rec["rss_mb"] = max(rec["rss_mb"], child["rss_mb"])
        if not ledger.check(f"{out.name} {label} exit code", child["rc"] == 0,
                            f"{child['rc']}: {log_tail(log)}"):
            return rec
    result, log = logs / f"{out.name}-score.json", logs / f"{out.name}-score.log"
    child = run_child([sys.executable, str(HERE / "score.py"), str(out / CHECKPOINT),
                       str(out / EPISODES), str(SCORE_ROWS), str(result)], log, deadline)
    rec["rss_mb"] = max(rec["rss_mb"], child["rss_mb"])
    if not ledger.check(f"{out.name} score exit code", child["rc"] == 0,
                        f"{child['rc']}: {log_tail(log)}"):
        return rec
    doc = json.loads(result.read_text(encoding="utf-8"))
    rec["score_setup_s"] = doc["ready"] - child["started"]
    rec["latency_s"] = doc["latency_s"]
    for name, q in PERCENTILES.items():
        rec[name] = quantile(doc["latency_s"], q) * 1e6
    rec["max_gap"] = doc["max_gap"]
    rec["manifest"] = doc["manifest"]
    ledger.completed(len(doc["latency_s"]))
    ledger.check(f"{out.name} single vs batched forward", doc["max_gap"] <= GAP_TOLERANCE,
                 f"gap {doc['max_gap']:.3g}")
    session_outputs(out, rec, ledger)
    rec["complete"] = True
    return rec


def check_determinism(sessions: list[dict], ledger: Ledger) -> None:
    """Every session of a run must write byte-identical artifacts."""

    first = sessions[0]["digests"]
    for k, rec in enumerate(sessions[1:], start=1):
        moved = sorted(f for f in set(first) | set(rec["digests"])
                       if first.get(f) != rec["digests"].get(f))
        ledger.check(f"session {k} artifacts byte-identical to session 0", not moved,
                     ", ".join(moved))


def run_untraced(wl, seed: int, seconds: float, work: Path, ledger: Ledger,
                 deadline: float) -> tuple[dict, dict]:
    config = write_config(wl, work)
    logs = work / "logs"
    logs.mkdir()
    version = [sys.executable, "-m", "riskhorizon", "--version"]
    # The first start also writes __pycache__; it is not timed, as an
    # installed package has its bytecode already.
    warm = run_child(version, logs / "warmup.log", deadline)
    ledger.check("--version exit code", warm["rc"] == 0, str(warm["rc"]))
    setups, peak = [], warm["rss_mb"]
    for k in range(SETUP_REPEATS):
        child = run_child(version, logs / f"version{k}.log", deadline)
        ledger.check("--version exit code", child["rc"] == 0, str(child["rc"]))
        setups.append(child["seconds"])
        peak = max(peak, child["rss_mb"])

    sessions: list[dict] = []
    began = time.monotonic()
    while True:
        t0 = time.monotonic()
        rec = untraced_session(wl, config, seed, work / f"session{len(sessions)}", logs,
                               ledger, deadline)
        rec["session_s"] = time.monotonic() - t0
        sessions.append(rec)
        if not rec["complete"]:
            break
        typical = statistics.median(r["session_s"] for r in sessions)
        now = time.monotonic()
        if len(sessions) >= MIN_SESSIONS and now - began + typical > seconds:
            break
        if now + 1.5 * typical > deadline:
            break
    done = [r for r in sessions if r["complete"]]
    if len(done) == len(sessions):
        check_determinism(done, ledger)

    metrics: dict[str, float] = {}
    if done:
        metrics = {
            "setup_s": statistics.median(setups),
            "gen_s": statistics.median(r["gen_s"] for r in done),
            "train_s": statistics.median(r["train_s"] for r in done),
            "eval_s": statistics.median(r["eval_s"] for r in done),
            "peak_rss_mb": max([peak] + [r["rss_mb"] for r in sessions]),
            **{name: statistics.median(r[name] for r in done) for name in PERCENTILES},
        }
    extras = {
        "sessions": len(sessions),
        "setup_repeats": len(setups),
        "score_calls": [len(r["latency_s"]) for r in done],
        "measured_s": time.monotonic() - began,
    }
    if done:
        unbounded = {"acc_mean": done[0]["acc_mean"]}
        if wl.oracle:
            unbounded["oracle_max_abs_error"] = done[0]["oracle_max_abs_error"]
            unbounded["oracle_s"] = statistics.median(r["oracle_s"] for r in done)
        unbounded["score_setup_s"] = statistics.median(r["score_setup_s"] for r in done)
        unbounded["max_gap"] = max(r["max_gap"] for r in done)
        extras["unbounded"] = unbounded
        extras["manifest"] = done[0]["manifest"]
        extras["digests"] = done[0]["digests"]
    extras["per_session"] = [
        {k: v for k, v in r.items() if k not in ("latency_s", "digests", "manifest")}
        for r in sessions
    ]
    return metrics, extras


def inprocess_session(wl, config: Path, seed: int, out: Path, ledger: Ledger,
                      tracer: spans.Tracer | None) -> dict:
    """One session through riskhorizon.cli.main, scoring included, in this process."""

    cli = importlib.import_module("riskhorizon.cli")
    network = importlib.import_module("riskhorizon.network")
    episodes_mod = importlib.import_module("riskhorizon.episodes")
    out.mkdir(parents=True)
    rec: dict = {"complete": False}
    for label, argv in wl.commands(config, seed, out):
        captured = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(captured), redirect_stderr(captured):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                # What `python -m riskhorizon` would print before exiting 1.
                traceback.print_exc()
                rc = 1
        rec[f"{label}_s"] = time.perf_counter() - t0
        tail = " | ".join(captured.getvalue().splitlines()[-3:])[-300:]
        if not ledger.check(f"{out.name} {label} exit code", rc == 0, f"{rc}: {tail}"):
            return rec
    estimator = network.load_checkpoint(out / CHECKPOINT).estimator
    episodes, _ = episodes_mod.load_episodes(out / EPISODES)
    rows = score.stacked_rows(episodes, SCORE_ROWS)
    with tracer.span("score") if tracer else nullcontext():
        outputs, latency = score.score_rows(estimator, rows)
    gap = score.batch_gap(estimator, rows, outputs)
    ledger.completed(len(latency))
    ledger.check(f"{out.name} single vs batched forward", gap <= GAP_TOLERANCE, f"gap {gap:.3g}")
    rec["rows_scored"] = len(latency)
    session_outputs(out, rec, ledger)
    rec["complete"] = True
    return rec


def run_traced(wl, seed: int, seconds: float, work: Path, ledger: Ledger,
               deadline: float) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    config = write_config(wl, work)
    plain_runs, traced_runs, layer_runs = [], [], []
    began = time.monotonic()
    while True:
        t0 = time.monotonic()
        k = len(plain_runs)
        tracer = spans.Tracer()
        # Alternate which session of a pair runs first, so that drift in
        # the host's speed does not bias trace.overhead_share.
        pair = {}
        for traced in (False, True) if k % 2 == 0 else (True, False):
            with tracer.installed() if traced else nullcontext():
                pair[traced] = inprocess_session(
                    wl, config, seed, work / f"{'traced' if traced else 'plain'}{k}", ledger,
                    tracer if traced else None)
            if not pair[traced]["complete"]:
                break
        if len(pair) < 2 or not pair[False]["complete"] or not pair[True]["complete"]:
            break
        plain_runs.append(pair[False])
        traced_runs.append(pair[True])
        layers = spans.layer_metrics(tracer.spans)
        layer_runs.append(layers)
        for name, ok, detail in spans.invariants(tracer.spans, layers, wl.config["train"],
                                                 pair[True]["rows_scored"]):
            ledger.check(f"traced{k} invariant {name}", ok, detail)
        ledger.check(f"traced{k} artifacts equal untraced",
                     pair[True]["digests"] == pair[False]["digests"])
        elapsed = time.monotonic() - t0
        now = time.monotonic()
        if now - began + elapsed > seconds or now + 1.5 * elapsed > deadline:
            break
    if plain_runs:
        check_determinism(plain_runs, ledger)

    metrics: dict[str, float] = {}
    if layer_runs:
        for name in layer_runs[0]:
            values = [r[name] for r in layer_runs]
            # Counts repeat exactly; report them as the integers they are.
            metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        plain_train = statistics.median(r["train_s"] for r in plain_runs)
        traced_train = statistics.median(r["train_s"] for r in traced_runs)
        metrics["trace.overhead_share"] = (traced_train - plain_train) / plain_train
    extras = {
        "pairs": len(layer_runs),
        "measured_s": time.monotonic() - began,
        "plain_train_s": [r["train_s"] for r in plain_runs],
        "traced_train_s": [r["train_s"] for r in traced_runs],
        "manifest": score.numpy_manifest(),
    }
    if plain_runs:
        extras["digests"] = plain_runs[0]["digests"]
    return metrics, extras


def write_config(wl, work: Path) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps(wl.config, indent=1) + "\n", encoding="utf-8")
    return path


def manifest(seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git_sha = None
    src = hashlib.sha256()
    for p in sorted((SRC / "riskhorizon").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "recheck_seed": RECHECK_SEED,
        "thread_pins": {k: os.environ.get(k) for k in PINS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    wl = WORKLOADS[name]
    ledger = Ledger()
    deadline = time.monotonic() + DEADLINE_S
    work = STATE / "work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run_traced if trace else run_untraced
        values, extras = runner(wl, seed, seconds, work, ledger, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if not ledger.failures and missing:
        raise RuntimeError(f"benchmark does not compute {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    extras["unbounded"] = {**{n: v for n, v in values.items() if n not in metrics},
                           **extras.get("unbounded", {})}
    failed = len(ledger.failures)
    result = {
        "correct": failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "manifest": {**manifest(seed), **extras.pop("manifest", {})},
        "result": result,
        "failed_share": failed / result["attempted"],
        "failures": ledger.failures,
        "extras": extras,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(record, path)
    return result


def report(record: dict, path: Path) -> None:
    r, x = record["result"], record["extras"]
    mode = "traced" if record["trace"] else "untraced"
    runs = x.get("pairs", x.get("sessions"))
    print(f"== {record['workload']} seed {record['manifest']['seed']} {mode}: "
          f"{runs} {'pairs' if record['trace'] else 'sessions'} in {x['measured_s']:.1f} s")
    shown = {name: (m["value"], m["unit"]) for name, m in r["metrics"].items()}
    # Measured but not bounded in BENCHMARK.json; see perfbench/baseline.json.
    shown.update({name: (value, UNBOUNDED_UNITS.get(name, ""))
                  for name, value in x.get("unbounded", {}).items()})
    for name, (value, unit) in shown.items():
        note = ""
        if name in PERCENTILES:
            calls = min(x["score_calls"])
            beyond = round(calls * (100 - PERCENTILES[name]) / 100)
            note = (f"  (median of {len(x['score_calls'])} sessions of {calls} calls, "
                    f"{beyond} beyond)")
        elif name == "setup_s":
            note = f"  (median of {x['setup_repeats']})"
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    print(f"  {'failed_share':40s} {record['failed_share']:14.6g} ratio "
          f"({r['failed']}/{r['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"  record: {path.relative_to(ROOT)}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    # A terminated run still stops its child and removes its work directory.
    signal.signal(signal.SIGTERM, _terminate)
    os.environ.update(PINS)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "riskhorizon" / "__init__.py").is_file():
        print(f"perfbench: no riskhorizon sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env_path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + env_path if env_path else "")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {n: r["metrics"] for n, r in results.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

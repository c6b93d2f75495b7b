"""eqlab benchmark: `eqlab run` on four fixed configs, end to end or traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports eqlab from the
checkout's `src`. See perfbench/README.md for the workloads, the metrics and
what each later change is predicted to move.

--trace 0 launches `eqlab run --config perfbench/configs/NAME.json` as a
child process, one at a time: once only up to its first trial (a set-up
probe), then to completion as often as fits in S seconds (at least twice),
then up to its first trial again while time is left. It reports medians
of the wall time and set-up time at reference host speed (see
`at_reference_speed`) and of peak resident memory, and the share of trials
that pass, and checks every CSV against the reference in
perfbench/reference/.

--trace 1 runs the same command in this process through `eqlab.cli.main`,
alternately without and with layer spans, and reports the per-layer metrics
of perfbench/spans.py and the tracing overhead.

Every run writes its samples and a manifest (versions, BLAS library and
threads, config hash) to perfbench/out/NAME/. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from check import check
from child import PROBE_REF_S
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("thm1-readme", "thm4-readme", "thm2-d256", "counterexamples-small")
# One BLAS thread: the workloads are serial `eqlab run`s whose matrices
# (d <= 256) are too small for a second thread to pay, and on two shared
# cores a second thread adds run-to-run spread. The manifest records it.
BLAS_THREADS = "1"
BLAS_ENV = {var: BLAS_THREADS for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_PROBES = 1  # complete runs give set-up samples too
MIN_RUNS = 2  # byte-identical re-runs need at least two
HARD_LIMIT_S = 160.0  # a run must end within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(BLAS_ENV)
    return env


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_hash() -> str:
    """Identifies the eqlab sources where no git commit is available."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "eqlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_child(args: list[str], out: Path, deadline: float) -> dict:
    """Start child.py, wait for it and return its timings and exit code."""
    stamp = out / "stamp.json"
    stamp.unlink(missing_ok=True)
    with open(out / "child.log", "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(stamp), *args],
            cwd=out, env=child_env(), stdout=log, stderr=log,
        )
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "code": proc.returncode,
        "wall_s": end - start,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    stamped = json.loads(stamp.read_text()) if stamp.exists() else {}
    if "first_trial" in stamped:
        result["setup_raw_s"] = stamped["first_trial"] - start
        setup_probe = stamped["setup_probe"]
        result["setup_s"], result["setup_slowdown"] = at_reference_speed(
            result["setup_raw_s"], *setup_probe
        )
        if "end" in stamped and stamped["probe"][0] > setup_probe[0]:
            result["run_raw_s"] = stamped["end"] - stamped["first_trial"]
            result["wall_norm_s"], result["host_slowdown"] = at_reference_speed(
                result["run_raw_s"], *(a - b for a, b in zip(stamped["probe"], setup_probe))
            )
    return result


def at_reference_speed(span_s: float, probe_n: int, timed_s: float, overhead_s: float) -> tuple[float, float]:
    """A span of the child's time, as it would read at reference host speed.

    The probes' own time (`overhead_s`) is taken out, and the rest is
    divided by the host's slowdown over the span: the mean of the probes'
    timed passes (`timed_s` over `probe_n`) over their duration on a quiet
    host (child.PROBE_REF_S). Returns the span and the slowdown; without
    probes the span stands as measured.
    """
    if probe_n == 0:
        return span_s, 1.0
    slowdown = timed_s / probe_n / PROBE_REF_S
    return (span_s - overhead_s) / slowdown, slowdown


def end_to_end(workload: str, config_path: Path, config: dict, out: Path, seconds: float, t0: float) -> dict:
    reference = HERE / "reference" / f"{workload}.csv"
    hard_deadline = t0 + HARD_LIMIT_S
    eqlab_args = ["run", "--config", str(config_path)]
    setups, setup_raws, runs, verdicts, notes = [], [], [], [], []

    def probe_setup() -> None:
        probe = run_child(["--setup-only", *eqlab_args], out, hard_deadline)
        if probe["code"] != 0 or "setup_s" not in probe:
            notes.append(f"set-up probe exited {probe['code']}")
        else:
            setups.append(probe["setup_s"])
            setup_raws.append(probe["setup_raw_s"])

    for _ in range(SETUP_PROBES):
        probe_setup()

    first_csv = None
    while True:
        run = run_child(eqlab_args, out, hard_deadline)
        runs.append(run)
        csv_path = out / f"run{len(runs) - 1}.csv"
        run["ok"] = run["code"] in (0, 2) and (out / "results.csv").exists()
        if run["ok"]:
            (out / "results.csv").replace(csv_path)
            verdict = check(str(csv_path), str(reference), config)
            verdicts.append(verdict)
            run["failed_trials"] = verdict.failed_trials
            if run["code"] != (2 if verdict.any_false else 0):
                notes.append(f"exit status {run['code']} disagrees with the satisfied column")
            data = csv_path.read_bytes()
            if first_csv is None:
                first_csv = data
            elif data != first_csv:
                notes.append(f"{csv_path.name} differs from the first run's CSV")
            if "setup_s" in run:
                setups.append(run["setup_s"])
                setup_raws.append(run["setup_raw_s"])
        else:
            notes.append(f"run {len(runs) - 1} exited {run['code']}")
            run["failed_trials"] = len(config["d_B"]) * int(config["trials"])
        finish = time.monotonic() + statistics.median(r["wall_s"] for r in runs)
        if finish > hard_deadline or (len(runs) >= MIN_RUNS and finish > t0 + seconds):
            break
    # Spend what is left of the time on more set-up samples.
    while setups and not notes and time.monotonic() + 2 * statistics.median(setups) < t0 + seconds:
        probe_setup()

    trials = len(runs) * len(config["d_B"]) * int(config["trials"])
    failed_trials = sum(r["failed_trials"] for r in runs)
    structural = any(v.structural for v in verdicts)
    mismatches = any(v.mismatches for v in verdicts)
    correct = not notes and not structural and not mismatches  # a failed run leaves a note
    complete = [r for r in runs if r["ok"]] or runs
    # A run that never reached its first trial has no probe; its raw wall
    # time stands in (and `correct` is false then).
    norms = [r.get("wall_norm_s", r["wall_s"]) for r in complete]
    rss = [r["peak_rss_mb"] for r in complete]
    metrics = {
        "wall_norm_s": (statistics.median(norms), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "passed_frac": (1.0 - failed_trials / trials, "frac"),
    }
    last = verdicts[-1] if verdicts else None
    report = {
        "wall_s": statistics.median(r["wall_s"] for r in complete),
        "host_slowdown": statistics.median(r.get("host_slowdown", 1.0) for r in complete),
        "setup_raw_s": statistics.median(setup_raws) if setup_raws else None,
        "runs": runs,
        "setup_samples": setups,
        "notes": notes,
        "trials_attempted": trials,
        "trials_failed": failed_trials,
        "failed_frac": failed_trials / trials,
        "rows_false_known": last.known_false if last else [],
        "rows_false_new": last.new_false if last else [],
        "rows_fixed": last.fixed if last else [],
        "mismatches": last.mismatches if last else [],
        "structural": last.structural if last else [],
    }
    return {
        "correct": correct,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if not r["ok"]),
        "metrics": metrics,
        "report": report,
    }


def traced(workload: str, config_path: Path, config: dict, out: Path, seconds: float, t0: float) -> dict:
    """Pairs of untraced and traced in-process runs until the time is up."""
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    os.chdir(out)  # eqlab writes results.csv to the working directory
    from eqlab import cli

    reference = HERE / "reference" / f"{workload}.csv"
    pairs, notes, samples = [], [], []
    while True:
        pair = {}
        # Alternate which side runs first, so warm-up does not favour one.
        for mode in ("untraced", "traced")[:: 1 if len(pairs) % 2 == 0 else -1]:
            if mode == "traced":
                tracer = Tracer()
                tracer.install()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", "--config", str(config_path)])
            except Exception:
                traceback.print_exc()
                code = traceback.format_exc().strip().splitlines()[-1]
            finally:
                pair[f"{mode}_wall_s"] = time.perf_counter() - start
                if mode == "traced":
                    tracer.uninstall()
            if code not in (0, 2):
                notes.append(f"{mode} run exited {code}")
                continue
            verdict = check(str(out / "results.csv"), str(reference), config)
            if verdict.structural or verdict.mismatches:
                notes.append(f"{mode} run: {verdict.structural + verdict.mismatches}")
        sample = tracer.metrics(pair["traced_wall_s"])
        sample["trace.overhead_s"] = pair["traced_wall_s"] - pair["untraced_wall_s"]
        samples.append(sample)
        pairs.append(pair)
        finish = time.monotonic() + statistics.median(p["untraced_wall_s"] + p["traced_wall_s"] for p in pairs)
        if notes or finish > t0 + min(seconds, HARD_LIMIT_S):
            break

    tracer.write(str(out / "spans.csv"))
    metrics = {
        name: (statistics.median(s[name] for s in samples), unit_of(name)) for name in samples[0]
    }
    return {
        "correct": not notes,
        "attempted": 2 * len(pairs),
        "failed": sum(1 for n in notes if "exited" in n),
        "metrics": metrics,
        "report": {"pairs": pairs, "notes": notes, "missing_layers": tracer.missing},
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "frac")):
        return "ratio"
    if metric.endswith("bytes_computed"):
        return "B"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    t0 = time.monotonic()
    config_path = HERE / "configs" / f"{workload}.json"
    config = json.loads(config_path.read_text())
    out = HERE / "out" / workload
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.iterdir():
        stale.unlink()

    manifest_run = run_child(["--manifest", str(config_path)], out, t0 + HARD_LIMIT_S)
    if manifest_run["code"] != 0:
        print(f"error: eqlab could not be imported; see {out / 'child.log'}", file=sys.stderr)
        return 1
    manifest = json.loads((out / "stamp.json").read_text())
    if not Path(manifest["eqlab_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: eqlab was imported from {manifest['eqlab_file']}, not {SRC}", file=sys.stderr)
        return 1
    manifest.update(
        git_commit=git_commit(), src_sha256=source_hash(), workload=workload, seed=seed,
        blas_threads_set=BLAS_THREADS,
    )

    # The workload configs fix master_seed 7 (see README.md); --seed is
    # recorded in the manifest.
    measure = traced if trace else end_to_end
    result = measure(workload, config_path, config, out, seconds, t0)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    (out / f"result-trace{trace}-seed{seed}.json").write_text(
        json.dumps({"manifest": manifest, "metrics": metrics, **result["report"]}, indent=1)
    )

    print(f"== {workload}")
    print(f"manifest: {json.dumps(manifest)}")
    report = result["report"]
    if not trace:
        print(f"failed_frac = {report['failed_frac']!r} frac "
              f"({report['trials_failed']} of {report['trials_attempted']} trials)")
        print(f"runs: {len(report['runs'])}, set-up samples: {len(report['setup_samples'])}")
        print(f"wall_s = {report['wall_s']!r} s (median raw wall time, launch to exit)")
        print(f"host_slowdown = {report['host_slowdown']!r} (median probe time / reference)")
        print(f"setup_raw_s = {report['setup_raw_s']!r} s (median raw set-up time)")
    for key in ("rows_false_known", "rows_false_new", "rows_fixed", "mismatches", "structural",
                "missing_layers", "notes"):
        if report.get(key):
            print(f"{key}: {'; '.join(report[key])}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all four one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eqlab" / "__init__.py").is_file():
        print(f"error: no eqlab sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 1
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code = run_workload(workload, args.seed, args.seconds, args.trace)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

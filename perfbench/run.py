#!/usr/bin/env python3
"""perfbench: answer-checked file-to-report benchmark of unveil.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `unveil` and perfbench_probe from the sources of this checkout
(Release, into .bench_build/), generates the workload's input from --seed,
and measures for --seconds. With --trace 0 it times the user's path with
tracing off and prints the end-to-end metrics; with --trace 1 it runs the
traced per-layer run and prints the per-layer metrics. Every answer is
checked against the simulator's truth; a wrong answer counts as a failed
operation and its time is still recorded. The last stdout line is the
result JSON. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import Answer, ReportError, Truth, judge, parse_report, report_table  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_DIR = ROOT / ".bench_run"
UNVEIL = BUILD_DIR / "unveil" / "src" / "unveil" / "cli" / "unveil"
PROBE = BUILD_DIR / "perfbench_probe"
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
# Set-ups per run; setup_s is their median.
SETUPS = 3

# kind "file": `unveil analyze --trace FILE` in a fresh process per operation.
# kind "mem": one analysis::analyze() call on a trace held in memory.
WORKLOADS = {
    "wavesim-307k": dict(kind="file", app="wavesim", ranks=256, iterations=400, sim_args=[]),
    "particlemesh-dense": dict(
        kind="file", app="particlemesh", ranks=64, iterations=200,
        sim_args=["--period-us", "50"]),
    "nbsolver-mem": dict(kind="mem", app="nbsolver", ranks=128, iterations=300, sim_args=[]),
}


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd: list[str], **kwargs) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.startswith("{")]


def pool_threads() -> int:
    return min(len(os.sched_getaffinity(0)), 4)


# --- build ------------------------------------------------------------------------

def build() -> dict:
    if not (ROOT / "src" / "unveil").is_dir():
        raise BenchError(f"no unveil sources under {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        log("configuring Release build in .bench_build")
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"])
    log("building unveil and perfbench_probe")
    run_checked(["cmake", "--build", str(BUILD_DIR), "--target", "unveil", "perfbench_probe",
                 "-j", str(pool_threads())])
    info = json_lines(run_checked([str(PROBE), "info"]).stdout)[0]
    if not info["optimized"] or info["build_type"] not in OPTIMIZED_BUILD_TYPES:
        raise BenchError(f"refusing to report from an unoptimized build: {info}")
    return info


# --- workload pieces ----------------------------------------------------------------

def sim_params(wl: dict, seed: int) -> list[str]:
    return [wl["app"], str(wl["ranks"]), str(wl["iterations"]), str(seed)]


def simulate(wl: dict, seed: int, out: Path) -> float:
    """`unveil simulate` to a UVTB2 file; returns its wall time in seconds."""
    cmd = [str(UNVEIL), "simulate", "--app", wl["app"], "--ranks", str(wl["ranks"]),
           "--iterations", str(wl["iterations"]), "--seed", str(seed), "--mode", "folding",
           *wl["sim_args"], "--binary", "--quiet", "--out", str(out)]
    start = time.perf_counter()
    run_checked(cmd, cwd=RUN_DIR)
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def file_setup(wl: dict, seed: int, trace_path: Path, setups: int) -> list[float]:
    """Generates the trace `setups` times; every copy must be byte-identical."""
    times, sums = [], set()
    for _ in range(setups):
        times.append(simulate(wl, seed, trace_path))
        sums.add(sha256(trace_path))
    if len(sums) != 1:
        raise BenchError(f"same seed gave different traces: {sorted(sums)}")
    return times


def op_output_paths() -> tuple[Path, Path]:
    return RUN_DIR / f"op-{os.getpid()}.out", RUN_DIR / f"op-{os.getpid()}.err"


def cleanup(trace_path: Path) -> None:
    for path in (trace_path, *op_output_paths()):
        path.unlink(missing_ok=True)


def cli_analyze(trace_path: Path, threads: int) -> dict:
    """One `unveil analyze` process: wall time, its own peak RSS, exit code, stdout."""
    out_path, err_path = op_output_paths()
    cmd = [str(UNVEIL), "analyze", "--trace", str(trace_path), "--threads", str(threads)]
    with out_path.open("w") as out, err_path.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=RUN_DIR)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dict(s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0, rc=proc.returncode,
                stdout=out_path.read_text())


def cli_loop(trace_path: Path, threads: int, seconds: float, min_ops: int = 1) -> list[dict]:
    ops = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        ops.append(cli_analyze(trace_path, threads))
    return ops


def judge_cli(ops: list[dict], truth: Truth) -> None:
    """Sets each CLI operation's answer and its reasons for failing (none if right)."""
    for op in ops:
        op["answer"], op["reasons"] = None, [f"exit code {op['rc']}"]
        if op["rc"] == 0:
            try:
                op["answer"] = parse_report(op["stdout"])
                op["reasons"] = judge(op["answer"], truth).reasons
            except ReportError as e:
                op["reasons"] = [f"unparseable report: {e}"]


def clustered_pct(answer: Answer) -> float:
    return 100.0 * (answer.bursts - answer.noise) / answer.bursts


def summarize_ops(ops: list[dict], problems: list[str]) -> tuple[int, int]:
    """Logs one line per distinct failure; returns (attempted, failed)."""
    failed = [op for op in ops if op["reasons"]]
    seen = set()
    for op in failed:
        key = "; ".join(op["reasons"])
        if key not in seen:
            seen.add(key)
            log(f"wrong answer or failed run: {key}")
    if len({op["answer"] for op in ops}) != 1:
        problems.append("repeated operations on one input gave different answers")
    return len(ops), len(failed)


# --- trace 0: end-to-end ------------------------------------------------------------

def end_to_end_file(wl: dict, seed: int, seconds: float, threads: int, context: dict,
                    problems: list[str]) -> tuple[dict, int, int]:
    trace_path = RUN_DIR / f"{context['workload']}-seed{seed}-{os.getpid()}.uvtb"
    try:
        setup_times = file_setup(wl, seed, trace_path, SETUPS)
        ops = cli_loop(trace_path, threads, seconds)
        if len({op["stdout"] for op in ops}) != 1:
            problems.append("`unveil analyze` printed different reports for one input")
        verify = json_lines(run_checked(
            [str(PROBE), "verify", *sim_params(wl, seed), str(threads), str(trace_path)]).stdout)[0]
        context["fingerprint"] = dict(bytes=trace_path.stat().st_size, checksum=sha256(trace_path),
                                      **verify["fingerprint"])
    finally:
        cleanup(trace_path)

    truth = Truth.from_json(verify["truth"])
    judge_cli(ops, truth)
    reference = ops[0]
    if reference["rc"] == 0:
        try:
            same = report_table(reference["stdout"]) == report_table(verify["report"])
        except ReportError:
            same = False
        if not same:
            problems.append("CLI report differs from analysis::analyze() on the same file")
    attempted, failed = summarize_ops(ops, problems)
    answer = Answer.from_json(verify["answer"])
    context["truth"] = dict(phases=sorted(truth.phases), period=truth.period)
    context["ops"] = timing_summary([op["s"] for op in ops])
    metrics = dict(
        analyze_s=statistics.median(op["s"] for op in ops),
        peak_rss_mb=statistics.median(op["peak_rss_mb"] for op in ops),
        setup_s=statistics.median(setup_times),
        clustered_pct=clustered_pct(answer),
        fold_err_pct=verify["fold_err_pct"],
    )
    return metrics, attempted, failed


def end_to_end_mem(wl: dict, seed: int, seconds: float, threads: int, context: dict,
                   problems: list[str]) -> tuple[dict, int, int]:
    lines = json_lines(run_checked(
        [str(PROBE), "mem", *sim_params(wl, seed), str(threads), str(seconds), str(SETUPS)]).stdout)
    setups = [x for x in lines if x["kind"] == "setup"]
    truth = Truth.from_json(next(x for x in lines if x["kind"] == "truth")["truth"])
    summary = next(x for x in lines if x["kind"] == "summary")
    if len({x["checksum"] for x in setups}) != 1:
        raise BenchError("same seed gave different traces")
    ops = []
    for x in (x for x in lines if x["kind"] == "op"):
        answer = Answer.from_json(x["answer"])
        ops.append(dict(s=x["s"], peak_rss_mb=x["peak_rss_mb"], fold_err_pct=x["fold_err_pct"],
                        answer=answer, reasons=judge(answer, truth).reasons))
    attempted, failed = summarize_ops(ops, problems)
    context["fingerprint"] = dict(checksum=setups[0]["checksum"], **summary["fingerprint"])
    context["truth"] = dict(phases=sorted(truth.phases), period=truth.period)
    context["ops"] = timing_summary([op["s"] for op in ops])
    metrics = dict(
        analyze_s=statistics.median(op["s"] for op in ops),
        peak_rss_mb=statistics.median(op["peak_rss_mb"] for op in ops),
        setup_s=statistics.median(x["s"] for x in setups),
        clustered_pct=clustered_pct(ops[0]["answer"]),
        fold_err_pct=statistics.median(op["fold_err_pct"] for op in ops),
    )
    return metrics, attempted, failed


def timing_summary(values: list[float]) -> dict:
    return dict(count=len(values), median_s=statistics.median(values), max_s=max(values))


# --- trace 1: per-layer traced run -------------------------------------------------

def traced(wl: dict, seed: int, seconds: float, threads: int, context: dict,
           problems: list[str]) -> tuple[dict, int, int]:
    name = context["workload"]
    trace_path = RUN_DIR / f"{name}-seed{seed}-{os.getpid()}.uvtb"
    spans_path = RUN_DIR / f"{name}-seed{seed}.spans.json"
    try:
        simulate(wl, seed, trace_path)
        ops = cli_loop(trace_path, threads, seconds / 2, min_ops=2)
        probe = json_lines(run_checked(
            [str(PROBE), "traced", *sim_params(wl, seed), str(threads), str(seconds / 2),
             str(trace_path), str(spans_path)]).stdout)[0]
        context["fingerprint"] = dict(bytes=trace_path.stat().st_size, checksum=sha256(trace_path))
    finally:
        cleanup(trace_path)

    judge_cli(ops, Truth.from_json(probe["truth"]))
    attempted, failed = summarize_ops(ops, problems)
    metrics = probe["metrics"]
    cli_ms = 1e3 * statistics.median(op["s"] for op in ops)
    metrics["cli.overhead_ms"] = cli_ms - probe["untraced_path_ms"]
    if wl["kind"] == "file":
        # The traced in-process path plus the CLI's own overhead, against the
        # untraced CLI median, which is what analyze_s measures.
        base = cli_ms
        extra = probe["traced_path_ms"] - probe["untraced_path_ms"]
    else:
        base = probe["untraced_analyze_ms"]
        extra = metrics["analysis.analyze_ms"] - base
    metrics["tracing.overhead_pct"] = 100.0 * extra / base
    context["spans"] = str(spans_path.relative_to(ROOT))
    context["untraced_runs"] = dict(cli=len(ops), in_process=probe["untraced_runs"])
    return metrics, attempted, failed


# --- main -----------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        info = build()
        RUN_DIR.mkdir(exist_ok=True)
        wl = WORKLOADS[args.workload]
        threads = pool_threads()
        context = dict(workload=args.workload, seed=args.seed,
                       cpus=len(os.sched_getaffinity(0)), pool_threads=threads,
                       compiler=info["compiler"], build_type=info["build_type"])
        problems: list[str] = []
        if args.trace:
            metrics, attempted, failed = traced(wl, args.seed, args.seconds, threads, context,
                                                problems)
            units = metric_units("per_layer")
        elif wl["kind"] == "file":
            metrics, attempted, failed = end_to_end_file(wl, args.seed, args.seconds, threads,
                                                         context, problems)
            units = metric_units("end_to_end")
        else:
            metrics, attempted, failed = end_to_end_mem(wl, args.seed, args.seconds, threads,
                                                        context, problems)
            units = metric_units("end_to_end")
    except (BenchError, OSError, KeyError, ValueError, StopIteration) as e:
        log(f"error: {e}")
        return 1

    missing = [m for m in units if m not in metrics or metrics[m] is None]
    if missing:
        log(f"error: metrics not measured: {missing}")
        return 1
    for p in problems:
        log(f"output check failed: {p}")
    print(json.dumps(dict(context=context)))
    print(json.dumps(dict(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics={m: dict(value=metrics[m], unit=u) for m, u in units.items()},
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

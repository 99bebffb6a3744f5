"""duplexqkd benchmark: times ``duplexqkd.cli.main`` on seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload duplex_batch --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout and called
in-process, one closed-loop caller, the way the README's ``run``, ``replay``
and ``sweep`` examples call it.  With ``--trace 0`` the run measures the
end-to-end metrics for ``--seconds`` of calls; with ``--trace 1`` it runs a
fixed number of operations twice, plain and traced, and reports per-layer
metrics.  Every operation's output is checked by ``oracle`` outside the
timed region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the tail-latency sample.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import oracle
import tracer
import transcripts
from workloads import WORKLOADS, DuplexBatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# Every IDENTITY_EVERY-th operation is rerun to check byte-identical output;
# operation 0 is compared with the warm-up call, which ran the same command.
IDENTITY_EVERY = 8
# On a shared 2-vCPU Xeon VM the speed of interpreter-bound work drifts by
# up to half within a minute.  Every ``main()`` call is therefore bracketed
# by a fixed pure-Python calibration loop and rescaled to the speed at which
# that loop takes CALIBRATION_REFERENCE_S: a reported second is a second at
# reference speed.  Raw wall times go to the line
# before the result.  Set-up is not rescaled: loading compiled extensions
# does not track the loop, and rescaling widened its spread.
CALIBRATION_ITERATIONS = 8000
CALIBRATION_REFERENCE_S = 0.0015
# No operation starts after this much wall time, so a run on a slow machine
# still ends well inside three minutes.
WALL_LIMIT_S = 120.0

END_TO_END = {
    "slots_per_s": "1/s",
    "sessions_per_s": "1/s",
    "invoke_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "duplex.transmit_s": "s",
    "duplex.transmit_us_per_slot": "us",
    "adversary.intercepts": "count",
    "quantum.lost": "count",
    "duplex.pair_search_s": "s",
    "duplex.pair_search_us_per_pair": "us",
    "duplex.parse_us_per_slot": "us",
    "duplex.filter_s": "s",
    "duplex.pair_flip_s": "s",
    "duplex.verify_s": "s",
    "duplex.extract_s": "s",
    "duplex.views_s": "s",
    "duplex.session_self_s": "s",
    "rng.seed_us_per_session": "us",
    "stats.report_s": "s",
    "stats.aggregate_s": "s",
    "stats.dispatch_s": "s",
    "stats.cell_s": "s",
    "stats.pool_overhead_s": "s",
    "stats.parallel_efficiency": "ratio",
    "cli.write_s": "s",
    "cli.report_bytes": "bytes",
    "cli.overhead_s": "s",
    "bb84.session_s": "s",
    "bb84.us_per_slot": "us",
    "duplex.slots": "count",
    "duplex.discard": "count",
    "duplex.set2": "count",
    "duplex.set3": "count",
    "duplex.pairs_checked": "count",
    "duplex.pairs_failed": "count",
    "duplex.unpaired": "count",
    "duplex.key_bits": "count",
    "duplex.key_bits_per_slot": "ratio",
    "bb84.sifted": "count",
    "bb84.sampled": "count",
    "bb84.key_bits": "count",
    "bb84.key_bits_per_slot": "ratio",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}


def load_program():
    """Import ``duplexqkd`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "duplexqkd"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {package}; run from the root of a duplexqkd checkout")
    sys.path.insert(0, str(SRC))
    import duplexqkd

    if Path(duplexqkd.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported duplexqkd from {duplexqkd.__file__}, not from {package}")
    return duplexqkd


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(loadavg: tuple[float, float, float]) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(loadavg),
    }


class Invoker:
    """Calls ``cli.main`` in-process, timed, with its console output discarded."""

    def __init__(self, cli):
        self.cli = cli
        self.devnull = open(os.devnull, "w")

    def close(self) -> None:
        self.devnull.close()

    def __call__(self, argv: list[str]) -> tuple[float, str | None]:
        gc.collect()
        err = io.StringIO()
        with redirect_stdout(self.devnull), redirect_stderr(err):
            start = time.perf_counter()
            try:
                status = self.cli.main(argv)  # looked up per call, so a tracer can wrap it
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                status = repr(exc)
            seconds = time.perf_counter() - start
        if status != 0:
            return seconds, f"exit status {status!r}: {err.getvalue().strip()[-300:]}"
        return seconds, None


def calibration_seconds() -> float:
    """The faster of two runs of a fixed interpreter-bound loop."""
    best = float("inf")
    for _ in range(2):
        rng = random.Random(20121203)
        table: dict[int, tuple[int, bool]] = {}
        start = time.perf_counter()
        for i in range(CALIBRATION_ITERATIONS):
            table[i & 255] = (i, rng.random() < 0.5)
            table.get((i * 7) & 255)
        best = min(best, time.perf_counter() - start)
    return best


def calibrated(measure):
    """Run ``measure()`` between two calibration loops.

    Returns its result and the factor that rescales its seconds to
    reference speed.
    """
    before = calibration_seconds()
    result = measure()
    return result, CALIBRATION_REFERENCE_S / ((before + calibration_seconds()) / 2)


def setup(workload, repeats: int) -> list[float]:
    """Wall seconds of a fresh-interpreter program import plus input generation."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import duplexqkd"
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-E", "-c", code], check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        workload.prepare(WORK / "inputs")
        times.append(time.perf_counter() - start)
    return times


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


def report_problems(label: str, problems: list[str]) -> None:
    for problem in problems[:5]:
        print(f"perfbench: {label}: {problem}", file=sys.stderr)


def tail(times: list[float]) -> dict | None:
    """The highest percentile with at least ten calls beyond it."""
    n = len(times)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value_s": sorted(times)[n - 11], "samples": n}


def pooled_problems(workload, failed: int, attempted: int) -> int:
    """Apply the pooled statistical test; if it fails, every operation failed."""
    problems = workload.pooled.problems() if workload.pooled else []
    report_problems("pooled closed-form test", problems)
    return attempted if problems else failed


def timed_run(workload, invoke: Invoker, seconds: float, setup_times: list[float]) -> tuple[dict, dict]:
    warm = WORK / "warmup"
    _, warm_problem = invoke(workload.argv(0, warm))
    times, raw_times, slot_rates, session_rates = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    i = 0
    while sum(raw_times) < seconds and time.perf_counter() - started < WALL_LIMIT_S:
        out = WORK / f"op{i}"
        (elapsed, problem), speed = calibrated(lambda: invoke(workload.argv(i, out)))
        scaled = elapsed * speed
        problems = [problem] if problem else workload.check(i, out)
        if i == 0 and warm_problem:
            problems.append(f"warm-up call: {warm_problem}")
        elif not problems and i % IDENTITY_EVERY == 0:
            again = warm if i == 0 else WORK / f"op{i}.again"
            if i:
                _, problem = invoke(workload.argv(i, again))
                problems = [problem] if problem else []
            problems = problems or oracle.same_files(again, out)
            shutil.rmtree(again, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        attempted += 1
        if problems:
            failed += 1
            report_problems(f"operation {i}", problems)
        sessions, slots = workload.size(i)
        times.append(scaled)
        raw_times.append(elapsed)
        slot_rates.append(slots / scaled)
        session_rates.append(sessions / scaled)
        i += 1
    failed = pooled_problems(workload, failed, attempted)
    values = {
        "slots_per_s": statistics.median(slot_rates),
        "sessions_per_s": statistics.median(session_rates),
        "invoke_s_p50": statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "invoke_s_tail": tail(times),
        "setup_s_samples": setup_times,
        "raw_wall": {
            "invoke_s_p50": statistics.median(raw_times),
            "invoke_s_tail": tail(raw_times),
            "measured_s": sum(raw_times),
        },
    }
    return result(failed, attempted, values, END_TO_END), info


def selfcheck(seed: int, shipped_session) -> list[str]:
    """Step-by-step public-function sessions must equal ``run_duplex_session``."""
    from duplexqkd import ChannelModel, DuplexConfig, EveStrategy

    batch = DuplexBatch(seed)
    base = DuplexConfig(
        n_timeslots=batch.timeslots,
        channel=ChannelModel(loss_probability=batch.loss, flip_probability=batch.flip),
        eve=EveStrategy.intercept_resend(batch.intercept),
    )
    problems = []
    probe = tracer.Tracer()
    for k in range(8):
        for variant in ("flip_triples", "search_pairs"):
            config = replace(base, variant=variant, seed=transcripts.derived_int(batch.master_seed(0), k))
            shipped = shipped_session(config)
            probe.install()
            try:
                stepwise = tracer.stepwise_session(config)
            finally:
                probe.uninstall()
            if stepwise != (shipped.verification, shipped.partition, shipped.alice_key, shipped.bob_key):
                problems.append(f"stepwise {variant} session {k} differs from run_duplex_session")
    return problems


def traced_run(workload, invoke: Invoker, shipped_session) -> tuple[dict, dict]:
    problems = selfcheck(workload.seed, shipped_session)
    report_problems("traced self-check", problems)
    failed = 1 if problems else 0
    attempted = 1
    trace = tracer.Tracer()
    overheads, report_bytes = [], []
    for i in range(workload.trace_ops):
        plain, traced = WORK / f"plain{i}", WORK / f"traced{i}"
        order = ((False, plain), (True, traced)) if i % 2 == 0 else ((True, traced), (False, plain))
        elapsed = {}
        problems = []
        for with_trace, out in order:
            if with_trace:
                trace.install()
            try:
                elapsed[with_trace], problem = invoke(workload.argv(i, out))
            finally:
                trace.uninstall()
            problems += [problem] if problem else []
        problems = problems or workload.check(i, traced) + oracle.same_files(plain, traced)
        overheads.append(elapsed[True] - elapsed[False])
        report_bytes.append(output_bytes(traced))
        attempted += 1
        failed += bool(problems)
        report_problems(f"traced operation {i}", problems)
    serial = None
    if getattr(workload, "workers", 1) > 1:
        # Single-worker run of the same grid: the baseline for the pool metrics.
        serial = tracer.Tracer()
        for i in range(workload.trace_ops):
            out = WORK / f"serial{i}"
            serial.install()
            try:
                _, problem = invoke(workload.argv(i, out, workers=1))
            finally:
                serial.uninstall()
            # Checked but not pooled: these are the same sessions again.
            problems = [problem] if problem else oracle.check_sweep(out, sessions=workload.sessions, cells=workload.cells)[0]
            if not problems and (out / "sweep.csv").read_bytes() != (WORK / f"traced{i}" / "sweep.csv").read_bytes():
                problems.append("single-worker sweep differs from the pooled sweep")
            attempted += 1
            failed += bool(problems)
            report_problems(f"single-worker operation {i}", problems)
    failed = pooled_problems(workload, failed, attempted)
    values = layer_values(trace, serial, workload, overheads, report_bytes)
    values["error_rate"] = failed / attempted
    return result(failed, attempted, values, PER_LAYER), {"traced_operations": workload.trace_ops}


def layer_values(trace, serial, workload, overheads, report_bytes) -> dict:
    ops = workload.trace_ops
    own = trace.self_time()
    counts = trace.counts

    def per(total: float, n: float, scale: float = 1.0) -> float:
        return total / n * scale if n else 0.0

    # bb84 sessions of the pooled sweep run in worker processes; the
    # single-worker baseline runs the same sessions in this one.
    bb84 = serial or trace
    bb84_self = bb84.self_time()["bb84.session"]
    bb84_counts = bb84.counts
    cell = trace.durations("run_sessions", parent="run_sweep")
    serial_cell = serial.durations("run_sessions", parent="run_sweep") if serial else []
    cell_s = statistics.fmean(cell) if cell else 0.0
    serial_cell_s = statistics.fmean(serial_cell) if serial_cell else 0.0
    workers = getattr(workload, "workers", 1)
    slots = counts["slots_transmitted"] + counts["slots_parsed"]
    key_bits = counts["key_bits_both_parties"] // 2
    return {
        "duplex.transmit_s": own["duplex.transmit"] / ops,
        "duplex.transmit_us_per_slot": per(own["duplex.transmit"], counts["slots_transmitted"], 1e6),
        "adversary.intercepts": counts["intercepts"],
        "quantum.lost": counts["lost"],
        "duplex.pair_search_s": own["duplex.pair_search"] / ops,
        "duplex.pair_search_us_per_pair": per(own["duplex.pair_search"], counts["search_pairs"], 1e6),
        "duplex.parse_us_per_slot": per(own["duplex.parse"], counts["slots_parsed"], 1e6),
        "duplex.filter_s": own["duplex.filter"] / ops,
        "duplex.pair_flip_s": own["duplex.pair_flip"] / ops,
        "duplex.verify_s": own["duplex.verify"] / ops,
        "duplex.extract_s": own["duplex.extract"] / ops,
        "duplex.views_s": own["duplex.views"] / ops,
        "duplex.session_self_s": own["duplex.session_self"] / ops,
        "rng.seed_us_per_session": per(own["rng"], counts["duplex_sessions"] + counts["bb84_sessions"], 1e6),
        "stats.report_s": own["stats.report"] / ops,
        "stats.aggregate_s": own["stats.aggregate"] / ops,
        "stats.dispatch_s": own["stats.dispatch"] / ops,
        "stats.cell_s": cell_s,
        "stats.pool_overhead_s": cell_s - serial_cell_s / workers if serial_cell else 0.0,
        "stats.parallel_efficiency": per(serial_cell_s, workers * cell_s) if serial_cell else 0.0,
        "cli.write_s": own["cli.write"] / ops,
        "cli.report_bytes": statistics.fmean(report_bytes),
        "cli.overhead_s": own["cli.overhead"] / ops,
        "bb84.session_s": per(bb84_self, bb84_counts["bb84_sessions"]),
        "bb84.us_per_slot": per(bb84_self, bb84_counts["bb84_slots"], 1e6),
        "duplex.slots": slots,
        "duplex.discard": counts["discard"],
        "duplex.set2": counts["set2"],
        "duplex.set3": counts["set3"],
        "duplex.pairs_checked": counts["pairs_checked"],
        "duplex.pairs_failed": counts["pairs_failed"],
        "duplex.unpaired": counts["unpaired"],
        "duplex.key_bits": key_bits,
        "duplex.key_bits_per_slot": per(key_bits, slots),
        "bb84.sifted": bb84_counts["bb84_sifted"],
        "bb84.sampled": bb84_counts["bb84_sampled"],
        "bb84.key_bits": bb84_counts["bb84_key_bits"],
        "bb84.key_bits_per_slot": per(bb84_counts["bb84_key_bits"], bb84_counts["bb84_slots"]),
        "trace.overhead_s": statistics.fmean(overheads),
    }


def result(failed: int, attempted: int, values: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured call time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from duplexqkd import cli
    from duplexqkd.duplex import run_duplex_session

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    invoke = Invoker(cli)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        env = environment(loadavg)
        if args.trace:
            workload.prepare(WORK / "inputs")
            summary, info = traced_run(workload, invoke, run_duplex_session)
        else:
            setup_times = setup(workload, SETUP_REPEATS)
            summary, info = timed_run(workload, invoke, args.seconds, setup_times)
    finally:
        invoke.close()
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": env, **info}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

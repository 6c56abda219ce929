"""Benchmark runner for qmt: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py                       # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1             # every workload, per-layer metrics
    python3 perfbench/run.py --workload wide-sweep --seed 3 --trace 0

With ``--workload`` the workload runs in this process; without it each
workload runs in a fresh child process, one after the other.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 1 when any output check failed.  See
perfbench/README.md for the metrics and how to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread.  qmt's BLAS calls are small (the sweep multiplies
# 16384 x n blocks by an n x n matrix, n <= 20).  On a quiet 2-core machine a
# second thread made wide-sweep 12-17% faster, but whenever another process
# was busy on the other core, wide-sweep's passes took up to twice as long,
# as the second thread waited for its share of that core.  See README,
# "Steadiness".
BLAS_THREADS = 1
SETUP_REPEATS = 3
# cli_cold_ms samples per run, spread over the timed loop.
COLD_SAMPLES = 15
COLD_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 600
# The `qmt` console script, started the way its entry point starts it.
COLD_CODE = "import sys; from qmt.cli import main; sys.exit(main())"


def fingerprint(numpy_version: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "machine": platform.machine(),
    }


def raised(exc: Exception) -> str:
    """A failure record: the exception and the line that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"raised {type(exc).__name__}: {exc} "
            f"(at {Path(frame.filename).name}:{frame.lineno} in {frame.name})")


@dataclass
class Phase:
    """What one timed loop over the workload's passes observed."""

    latency_ns: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    events: int = 0
    passes: int = 0
    pass_s: list[float] = field(default_factory=list)  # op time of each pass
    pass_done: list[int] = field(default_factory=list)  # ops of each pass that passed
    pass_events: list[int] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    # Peak RSS of this process at the end of the first pass, before any of
    # the loop's output checks ran.
    peak_rss_mb: float = 0.0

    @property
    def timed_s(self) -> float:
        return sum(self.latency_ns) / 1e9

    @property
    def ops_per_s(self) -> float:
        """Completed ops per second of op time, the median over passes.

        The median leaves out a pass that a busy moment of the machine
        slowed; every pass runs the same ops, so passes are comparable.
        """
        return statistics.median(d / s for d, s in zip(self.pass_done, self.pass_s))

    @property
    def events_per_s(self) -> float:
        return statistics.median(e / s for e, s in zip(self.pass_events, self.pass_s))

    def settle(self, op, result, error: str | None) -> None:
        """Check one op's output and count it as done or failed."""
        if error is None:
            try:
                problems = op.check(result)
            except Exception as exc:  # a malformed output fails its check
                problems = [f"check {raised(exc)}"]
            error = "; ".join(problems) or None
        if error is None:
            self.events += op.events
            if op.counts is not None:
                self.counts.update(op.counts(result))
        else:
            self.failures.append(f"{op.label}: {error}")


def run_pass(phase: Phase, ops, rec=None, between=None) -> None:
    """Run every op once, in order, and add what was observed to `phase`.

    Each op is timed on its own; its output check runs after the timer
    stops.  The first pass's checks wait until that pass ends, so that the
    peak RSS read then is qmt's own and not the checks' (parsing a composed
    512-atom document takes more memory than composing it).  An op that
    raises or fails its check counts as failed and the loop goes on.
    ``between()``, when given, runs after every op, untimed.
    """
    pending = []
    failed, events = len(phase.failures), phase.events
    for op in ops:
        op_id = len(phase.latency_ns)
        t0 = time.perf_counter_ns()
        try:
            result = rec.run_op(op_id, op.span, op.run) if rec else op.run()
            error = None
        except Exception as exc:  # the loop must outlive a failing op
            result, error = None, raised(exc)
        phase.latency_ns.append(time.perf_counter_ns() - t0)
        if phase.passes == 0:
            pending.append((op, result, error))
        else:
            phase.settle(op, result, error)
        if between is not None:
            between()
    if phase.passes == 0:
        phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for item in pending:
            phase.settle(*item)
    phase.passes += 1
    phase.pass_s.append(sum(phase.latency_ns[-len(ops):]) / 1e9)
    phase.pass_done.append(len(ops) - (len(phase.failures) - failed))
    phase.pass_events.append(phase.events - events)


def measure(ops, seconds: float, between=None) -> Phase:
    """Run whole passes over ops until the ops' own time reaches `seconds`."""
    phase = Phase()
    while phase.passes == 0 or phase.timed_s < seconds:
        run_pass(phase, ops, between=between)
    return phase


def measure_traced(ops, seconds: float, rec) -> tuple[Phase, Phase]:
    """Alternate untraced and traced passes until each has `seconds` of op time.

    Alternating puts both loops in the same moments of a machine whose speed
    drifts, so the tracing overhead is not the drift between two loops.
    """
    plain, traced = Phase(), Phase()
    while plain.passes == 0 or min(plain.timed_s, traced.timed_s) < seconds:
        run_pass(plain, ops)
        rec.install()
        try:
            run_pass(traced, ops, rec)
        finally:
            rec.uninstall()
    return plain, traced


class ColdCli:
    """Wall times of `qmt witness weak_only.json` in fresh interpreters.

    CPU speed on a shared machine drifts over seconds, so the COLD_SAMPLES
    samples are spread across the timed loop: one is due every `interval`
    seconds, and due samples are taken between two ops.
    """

    def __init__(self, weak_only: Path, interval: float):
        self.argv = [sys.executable, "-c", COLD_CODE, "witness", str(weak_only)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))  # BLAS caps are set already
        self.interval = interval
        self.times: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.sample()  # warms the file cache; not recorded
        self.times.clear()
        self.left = COLD_SAMPLES
        self.due = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        done = subprocess.run(self.argv, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=COLD_TIMEOUT_S, check=False)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        verified = [line.split()[-1] for line in done.stdout.splitlines()
                    if line.strip().startswith("verified:")]
        try:
            ok = done.returncode == 0 and len(verified) == 1 and float(verified[0]) < 0
        except ValueError:
            ok = False
        if ok:
            self.times.append(elapsed * 1000)
        else:
            self.failures.append(f"cold cli run exited {done.returncode}: "
                                 f"{(done.stdout + done.stderr)[-200:]}")

    def __call__(self) -> None:
        if self.left and time.perf_counter() >= self.due:
            self.sample()
            self.left -= 1
            self.due += self.interval


def set_up(build, seed: int, workdir: Path, repeats: int):
    """Build the inputs `repeats` times; each set-up ends with one warm-up op."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ops = build(seed, workdir)
        ops[0].run()
        times.append(time.perf_counter() - t0)
    return ops, times


def end_to_end(plain: Phase, tail_p: float, import_s: float,
               setup_times: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values, and the sample count behind each."""
    import numpy

    lat_ms = sorted(x / 1e6 for x in plain.latency_ns)
    n = len(lat_ms)
    values = {
        "ops_per_s": plain.ops_per_s,
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_tail": float(numpy.percentile(lat_ms, tail_p)),
        "peak_rss_mb": plain.peak_rss_mb,
        "setup_s": import_s + statistics.median(setup_times),
        "events_per_s": plain.events_per_s,
    }
    notes = {
        "ops_per_s": f"median of {plain.passes} passes, N={n} ops in {plain.timed_s:.3f} s timed",
        "op_ms_p50": f"N={n}",
        "op_ms_tail": f"p{tail_p:g}, N={n}, {n * (100 - tail_p) / 100:g} beyond",
        "peak_rss_mb": "N=1 process, set-up and first pass, before its checks",
        "setup_s": f"import + median of N={len(setup_times)} set-ups",
        "events_per_s": f"median of {plain.passes} passes, {plain.events} events, N={n} ops",
    }
    return values, notes


def per_layer(rec, plain: Phase, traced: Phase) -> tuple[dict, dict]:
    """Per-layer metric values of a traced phase, and what each value is."""
    import tracer

    values = tracer.layer_metrics(rec, traced.passes)
    for name in ("witness.built", "witness.cross_checked",
                 "witness.cross_check_skipped", "witness.components"):
        values[name] = traced.counts[name] / traced.passes
    values["trace.ops_per_s"] = traced.ops_per_s
    values["trace.untraced_ops_per_s"] = plain.ops_per_s
    values["trace.overhead_pct"] = (plain.ops_per_s / traced.ops_per_s - 1) * 100
    covered, op_ns = rec.layer_coverage()
    values["trace.layer_share"] = sum(covered) / sum(op_ns)
    values["trace.layer_share_min"] = min(c / d for c, d in zip(covered, op_ns))
    notes = {}
    for name in values:
        if name.startswith("cli.") or name.endswith("n20_ms"):
            notes[name] = "median of the calls"
        elif name.startswith("trace.") and name != "trace.spans":
            notes[name] = f"{len(traced.latency_ns)} traced ops"
        else:
            notes[name] = f"per pass, {traced.passes} passes"
    return values, notes


def run_workload(args, bench: dict) -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "qmt" / "__init__.py").is_file():
        print(f"error: no qmt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qmt
    import_s = time.perf_counter() - t0
    if not Path(qmt.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: qmt was imported from {qmt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{stem}-") as tmp:
        ops, setup_times = set_up(workload.build, args.seed, Path(tmp),
                                  1 if args.trace else SETUP_REPEATS)
        detail = {
            "fingerprint": fingerprint(numpy.__version__),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "ops_per_pass": len(ops), "import_s": import_s, "setup_s": setup_times,
        }
        cold = None
        if args.trace:
            rec = tracer.Tracer()
            plain, traced = measure_traced(ops, args.seconds, rec)
            phases = [plain, traced]
            values, notes = per_layer(rec, plain, traced)
            spans_path = OUT / f"spans-{stem}.json"
            rec.dump(spans_path)
            detail["spans_file"] = str(spans_path)
            detail["size_medians_ms"] = tracer.size_medians(rec)
            metric_list = bench["per_layer"]
        else:
            if workload.cold_cli:
                cold = ColdCli(SRC / "qmt" / "data" / "weak_only.json",
                               args.seconds / COLD_SAMPLES)
            plain = measure(ops, args.seconds, between=cold)
            phases = [plain]
            values, notes = end_to_end(plain, workload.tail_percentile, import_s, setup_times)
            if cold is not None:
                plain.failures.extend(cold.failures)
                # Printed and recorded, but not a listed metric: see README.
                detail["cli_cold_ms"] = statistics.median(cold.times) if cold.times else None
            metric_list = bench["end_to_end"]
    attempted = sum(len(p.latency_ns) for p in phases) + (cold.attempted if cold else 0)
    failures = [f for p in phases for f in p.failures]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_list}
    detail.update(
        metrics={k: dict(v, samples=notes[k]) for k, v in metrics.items()},
        passes=[p.passes for p in phases], pass_s=[p.pass_s for p in phases],
        op_ms=[[x / 1e6 for x in p.latency_ns] for p in phases],
        cold_ms=cold.times if cold else [],
        attempted=attempted, failures=failures[:50],
    )
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {'/'.join(str(p.passes) for p in phases)}  ops/pass {len(ops)}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']:<14} ({notes[name]})")
    if cold is not None and cold.times:
        print(f"  {'cli_cold_ms (not listed)':<30} {detail['cli_cold_ms']:>16.6g} {'ms':<14} "
              f"(median, N={len(cold.times)} fresh interpreters)")
    print(f"  {'failed_ratio':<30} {len(failures) / attempted:>16.6g} "
          f"{'':<14} ({len(failures)} of {attempted} ops)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def run_all(args, bench: dict) -> int:
    """Each workload in a fresh child process; one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in bench["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seed", str(args.seed), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode == 2 or not lines:
            return 2
        worst = max(worst, done.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w['name']}/{name}"] = m
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="qmt benchmark")
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=1)
    # Every run measures equally long: the one accepted length is
    # run_seconds in BENCHMARK.json, which its runner passes as --seconds.
    parser.add_argument("--seconds", type=int, choices=(bench["run_seconds"],),
                        default=bench["run_seconds"],
                        help="timed loop length; only run_seconds is accepted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, bench)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())

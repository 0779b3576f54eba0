"""Run one relbc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_q16 --seed 1 --seconds 14 --trace 0

Run from a checkout that holds src/relbc; the program is imported from
there, never from an installed copy.  With --trace 0 the last stdout line
carries the end-to-end metrics (setup_s, solve_s, peak_rss_mb; setup_s and
solve_s are scaled by host-speed references, see time_setup and
host_reference); with
--trace 1 it carries the per-layer metrics of a traced run and a field-op
counting run.  Earlier stdout lines give every metric with its unit, the
share of failed checked operations, the results digest, the environment
and, when tracing, the self-time table.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Not used while the benchmark was written; reserved for checking claims.
HELD_OUT_SEED = 7919

MIN_REPS = 3
# solve_s is given in seconds on a host where host_reference() takes this long.
REFERENCE_S = 0.050
HOST_REPS = 3
# setup_s is given in seconds on a host where setup_reference.py takes this long.
SETUP_REFERENCE_S = 0.28
SETUP_PROBES = {"full": 3, "tiny": 1}
IMPORT_PROBES = {"full": 3, "tiny": 1}
PROBE_SCALE = {"full": 1.0, "tiny": 0.05}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
TRACED_LAYERS = ("games", "adversary", "protocol", "analysis")
PER_LAYER_UNITS = {
    "relbc.import_s": "s",
    "analysis.import_s": "s",
    "field.build_s": "s",
    **{f"field.build_s.q{q}": "s" for q in (16, 27, 32, 256, 65536)},
    **{f"field.{op}_ns.q{q}": "ns"
       for q in (16, 27, 32, 256, 65536) for op in ("mul", "add", "inv")},
    "field.ops": "count",
    "field.ops_per_transcript": "count",
    **{f"{layer}.share": "ratio" for layer in TRACED_LAYERS},
    "games.search_s": "s",
    "games.win_probability_us": "us",
    "games.restart_ms": "ms",
    "games.best_shift_s": "s",
    "games.brute_force_s": "s",
    "adversary.build_attack_ms": "ms",
    "adversary.responses_us.m6": "us",
    "adversary.responses_us.m31": "us",
    "adversary.responses_calls": "count",
    "protocol.verify_us.m31": "us",
    "protocol.run_honest_us": "us",
    "protocol.verify_calls": "count",
    "analysis.exact_us_per_transcript": "us",
    "analysis.mc_us_per_sample": "us",
    "analysis.mc_table_us_per_draw": "us",
    "analysis.clopper_pearson_us": "us",
    "analysis.closed_form_ms": "ms",
    "analysis.transcripts": "count",
    "analysis.mc_samples": "count",
    "analysis.coverage": "count",
    "trace.solve_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}")


def _probe_cmd(fields, importtime: bool) -> list[str]:
    return ([sys.executable] + (["-X", "importtime"] if importtime else [])
            + [str(HERE / "setup_probe.py")] + [f"{p}:{n}" for p, n in fields])


def time_launch(cmd: list[str]) -> float:
    """Seconds from launching cmd until it prints its "ready" line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_child_env(), cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{Path(cmd[-1]).name} failed: {err.strip()}")
    return elapsed


def time_setup(fields) -> tuple[float, float]:
    """Seconds from launching a fresh interpreter until its fields are ready,
    and the seconds that setup_reference.py takes right after it.

    The host's speed drifts by 20% or more within a run; the reference, which
    uses no relbc code, drifts with it, so setup_s is scaled by it.
    """
    return (time_launch(_probe_cmd(fields, False)),
            time_launch([sys.executable, str(HERE / "setup_reference.py")]))


def import_times(fields) -> dict[str, float]:
    """Cumulative import seconds of relbc (with its CLI) and relbc.analysis,
    from `python -X importtime` in a fresh interpreter."""
    proc = subprocess.run(_probe_cmd(fields, True), capture_output=True, text=True,
                          env=_child_env(), cwd=ROOT, timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {"relbc.import_s": cumulative["relbc"] + cumulative["relbc.cli"],
            "analysis.import_s": cumulative["relbc.analysis"]}


def git_rev() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for dist in ("scipy", "numpy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"python": platform.python_version(), "git_rev": git_rev(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **versions}


def digest(items) -> str:
    """sha256 of the exact values and win counts a workload records."""
    def plain(value):
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        raise TypeError(f"cannot digest {type(value).__name__}")
    text = json.dumps(items, default=plain, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _Table:
    def __init__(self, q: int):
        self.t = [[(i * j) % q for j in range(q)] for i in range(q)]

    def mul(self, i: int, j: int) -> int:
        return self.t[i][j]


_REF_TABLE = _Table(16)
_REF_ROWS = [tuple((7 * r + 3 * k) % 16 for k in range(30)) for r in range(400)]


def host_reference() -> float:
    """Seconds taken by a fixed routine shaped like relbc's hot loops
    (bound-method table lookups, a dict of the visible prefix per round)
    but using no relbc code.

    Shared VMs drift in speed by +-20% over tens of seconds, which moves
    every solve of a run together.  Timed around each solve, this routine
    drifts with them, and dividing by it takes the drift out of solve_s.
    """
    mul = _REF_TABLE.mul
    t0 = time.perf_counter()
    acc = 0
    for xs in _REF_ROWS:
        for k in range(1, 31):
            known = {j: xs[j - 1] for j in range(1, k + 1)
                     if (k - j) % 2 == 0 or j <= k - 2}
            e = 1
            for v in known.values():
                e = mul(e, v)
            acc ^= e
    return time.perf_counter() - t0


def timed_solve(workload, inp):
    """Wall time of one solve, the host reference time around it, and the
    result.  The reference is the median of HOST_REPS timings before and
    HOST_REPS after the solve: it follows the host across the solve, and the
    median damps the jitter of a single 50 ms sample."""
    before = [host_reference() for _ in range(HOST_REPS)]
    t0 = time.perf_counter()
    result = workload.solve(inp)
    elapsed = time.perf_counter() - t0
    after = [host_reference() for _ in range(HOST_REPS)]
    return elapsed, statistics.median(before + after), result


def share_table(summary: dict, traced_s: float) -> list[str]:
    rows = sorted(((e["self_s"], name, e["calls"]) for name, e in summary.items()
                   if e["calls"]), reverse=True)
    lines = [f"  {'span':44s} {'calls':>9s} {'self_s':>9s} {'share':>7s}"]
    for self_s, name, calls in rows:
        lines.append(f"  {name:44s} {calls:9d} {self_s:9.4f} {self_s / traced_s:7.2%}")
    outside = traced_s - sum(r[0] for r in rows)
    lines.append(f"  {'(outside spans)':44s} {'':9s} {outside:9.4f} "
                 f"{outside / traced_s:7.2%}")
    return lines


def traced_metrics(workload, inp, scaled_solve: float, args, digests: list,
                   table: list) -> dict:
    """Per-layer metrics; scaled_solve is the untraced median of solve time
    over host reference time, for the tracing overhead."""
    from instrument import OpCounter, Tracer
    from probes import layer_probes

    with Tracer() as tracer:
        traced_s, traced_host, result = timed_solve(workload, inp)
    traced_scaled = traced_s / traced_host
    digests.append(digest(workload.record(result)))
    with OpCounter() as counter:
        result = workload.solve(inp)
    digests.append(digest(workload.record(result)))
    summary = tracer.summary()
    table.extend(share_table(summary, traced_s))

    metrics = layer_probes(args.seed, PROBE_SCALE[args.size])
    imports = [import_times(workload.fields) for _ in range(IMPORT_PROBES[args.size])]
    for name in imports[0]:
        metrics[name] = statistics.median(d[name] for d in imports)
    for layer in TRACED_LAYERS:
        metrics[f"{layer}.share"] = sum(
            e["self_s"] for e in summary.values() if e["layer"] == layer) / traced_s
    verify = summary["protocol.verify_values"]
    metrics.update({
        "field.ops": counter.ops,
        "field.ops_per_transcript":
            counter.transcript_ops / counter.transcripts if counter.transcripts else 0,
        "games.search_s": summary["games.best_response_search"]["total_s"],
        "adversary.responses_calls": summary["adversary.CheatStrategy.responses"]["calls"],
        "protocol.verify_calls": verify["calls"],
        "analysis.transcripts": verify["calls_under_analysis"],
        "trace.solve_s": traced_s,
        "trace.overhead_share": traced_scaled / scaled_solve - 1,
        "trace.spans": len(tracer),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=14.0,
                        help="measure for at least this long (and >= 3 solves)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minute inputs for the harness self-check")
    args = parser.parse_args(argv)

    if not (SRC / "relbc" / "__init__.py").is_file():
        print(f"perfbench: no relbc source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relbc
    if Path(relbc.__file__).resolve().parent != SRC / "relbc":
        print(f"perfbench: relbc imported from {relbc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Gate
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    env = environment()
    gate = Gate()
    times, host, digests, table = [], [], [], []
    try:
        setup = ([] if args.trace else
                 [time_setup(workload.fields) for _ in range(SETUP_PROBES[args.size])])
        t0 = time.perf_counter()
        fields = workload.build_fields()
        build_s = time.perf_counter() - t0
        inp = workload.inputs(args.seed, args.size, fields)
        start = time.perf_counter()
        while len(times) < MIN_REPS or time.perf_counter() - start < args.seconds:
            elapsed, reference, result = timed_solve(workload, inp)
            times.append(elapsed)
            host.append(reference)
            digests.append(digest(workload.record(result)))
        scaled_solve = statistics.median(t / h for t, h in zip(times, host))
        if args.trace:
            metrics = traced_metrics(workload, inp, scaled_solve, args, digests, table)
            metrics["field.build_s"] = build_s
        else:
            metrics = {
                "setup_s": SETUP_REFERENCE_S * statistics.median(t / r for t, r in setup),
                "solve_s": REFERENCE_S * scaled_solve,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    try:
        workload.check(inp, result, gate)
    except Exception as exc:  # a check that crashes outside gate.op still fails
        gate.op(f"checks raised {type(exc).__name__}: {exc}", lambda: False)
    gate.op("every solve gives the same results digest", lambda: len(set(digests)) == 1)
    if args.trace:
        metrics["analysis.mc_samples"] = gate.mc_samples
        metrics["analysis.coverage"] = gate.coverage

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed_share = gate.failed / gate.attempted
    print(f"perfbench {args.workload} seed={args.seed} size={args.size}"
          f" trace={args.trace} solves={len(times)}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit}")
    print(f"  {'ops_failed_share':34s} {failed_share:>14.6g} ratio"
          f" ({gate.failed} of {gate.attempted} checked operations)")
    for label in gate.failures:
        print(f"  FAILED: {label}")
    if table:
        print("self time by span in the traced solve:")
        print("\n".join(table))
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "digest": digests[0], "ops_failed_share": failed_share,
        "solve_s_all": times, "host_reference_s_all": host, "setup_s_all": [t for t, _ in setup],
        "setup_reference_s_all": [r for _, r in setup],
        "environment": env}}))
    print(json.dumps({
        "correct": gate.failed == 0, "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

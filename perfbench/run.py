"""Layer-by-layer benchmark of entanglia over four workloads.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ./src.  Each
workload runs in this one process as a closed loop with one client: the
next op starts when the previous answer has been checked.  The last line of
stdout is the result, {"correct", "attempted", "failed", "metrics"}; the line
before it holds the machine facts and the details behind each number.

--trace 0 reports the end-to-end metrics.  --trace 1 replays a fixed
number of rounds untraced and then traced, wrapping every public function
of the measured layers, and reports the per-layer metrics; its counts
repeat exactly for a given seed.  See perfbench/README.md.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before numpy loads

import os

# One BLAS thread on every commit, set before numpy loads: the client is
# single-threaded, and LAPACK threads only add run-to-run spread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "entanglia")
TRACE_DIR = os.path.join(ROOT, "perfbench", "traces")
SETUP_SAMPLES = 7
CLI_SAMPLES = 9
CLI_TRACED_SAMPLES = 3
IMPORT_SAMPLES = 3
PROBES_AROUND = 21  # reference-kernel passes timed next to a set-up or CLI run
CHILD_TIMEOUT = 120

ERROR_TYPES = (
    ("majorization", "TraceMismatch"),
    ("locc", "EmptyRange"),
    ("locc", "NoPlanFound"),
    ("locc", "RankMismatch"),
    ("locc", "TooLarge"),
)
# Counts computed from arguments and answers rather than timed.
COMPUTED = (
    "linalg.eigvalsh.dim3_sum",
    "bound_entangled.state_bytes",
    "locc.coop.candidates_per_op",
    "locc.catalyst.grid_points_per_op",
)


def child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    return env


def import_library():
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.exit(f"perfbench: no entanglia package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import entanglia

    if os.path.dirname(os.path.abspath(entanglia.__file__)) != PACKAGE:
        sys.exit(f"perfbench: imported entanglia from {entanglia.__file__}, not {PACKAGE}")


def set_up(name, seed):
    """Import, first-round input generation and warm-up: what a run pays
    before its first measured op."""
    import_library()
    from workloads import OK, WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.round(0)
    for op in workload.warmup():
        try:
            result, exc = op.call(), None
        except Exception as e:  # the check decides whether this was an answer
            result, exc = None, e
        if op.check(result, exc) != OK and not op.kind.split("/")[-1].startswith("malformed"):
            sys.exit(f"perfbench: warm-up op {op.kind} failed")
    return workload


def setup_seconds(args):
    """Median set-up time over fresh processes, each timed from its start and
    scaled by the reference kernel timed right after it."""
    argv = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
        if out.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {out.stderr.strip()}")
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["probe_s"]))
    return statistics.median(speed.scale(s, p) for s, p in samples), samples


def run_rounds(workload, rounds, rec=None):
    """Closed loop over whole rounds.  `rounds` yields round indices; only
    the library call is inside the timed interval."""
    from workloads import OK, WRONG

    clock = time.perf_counter
    latencies, spans, kinds = [], [], []
    failed = wrong = rounds_done = 0
    failures = {}
    with speed.Ticker() as ticker:
        for r in rounds:
            for op in workload.round(r):
                if rec is not None:
                    rec.op_id = len(latencies)
                ticker.sample()
                spent = ticker.spent
                start = clock()
                try:
                    result, exc = op.call(), None
                except Exception as e:  # the check decides whether this was an answer
                    result, exc = None, e
                end = clock()
                latencies.append(end - start - (ticker.spent - spent))
                spans.append((start, end))
                kinds.append(op.kind)
                outcome = op.check(result, exc)
                if outcome != OK:
                    failed += 1
                    wrong += outcome == WRONG
                    key = f"{op.kind}: {outcome}" + (f" {type(exc).__name__}" if exc else "")
                    failures[key] = failures.get(key, 0) + 1
            rounds_done += 1
    kernel = [ticker.kernel_s(start, end) for start, end in spans]
    return {
        "raw": latencies,
        "latencies": [speed.scale(t, k) for t, k in zip(latencies, kernel)],
        "kernel_s": ticker.samples,
        "kinds": kinds,
        "rounds": rounds_done,
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
    }


def timed_rounds(seconds, min_rounds):
    start = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - start < seconds:
        yield r
        r += 1


def percentile(values, pct):
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def kind_summary(loop):
    by_kind = {}
    for kind, lat in zip(loop["kinds"], loop["latencies"]):
        by_kind.setdefault(kind, []).append(lat)
    return {k: {"n": len(v), "p50_ms": statistics.median(v) * 1e3} for k, v in sorted(by_kind.items())}


def cli_wall(workload):
    """Median wall time of the workload's subcommand in a fresh interpreter,
    each run scaled by the reference kernel timed around it."""
    argv = workload.cli_argv() + ["--output", "structured"]
    cmd = [sys.executable, "-m", "entanglia.cli"] + argv
    walls, scaled, ok = [], [], True
    for _ in range(CLI_SAMPLES):
        before = speed.probes(PROBES_AROUND)
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        wall = time.perf_counter() - start
        walls.append(wall)
        scaled.append(speed.scale(wall, (before + speed.probes(PROBES_AROUND)) / 2))
        ok = ok and out.returncode == 0 and workload.cli_check(json.loads(out.stdout.strip().splitlines()[-1]))
    return statistics.median(scaled) * 1e3, walls, argv, ok


def untraced(args, workload):
    loop = run_rounds(workload, timed_rounds(args.seconds, workload.min_rounds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cli_ms, cli_walls, cli_argv, cli_ok = cli_wall(workload)
    setup_s, setup_samples = setup_seconds(args)
    lat = loop["latencies"]
    n = len(lat)
    tail = percentile(lat, workload.tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "ok_frac": ((n - loop["failed"]) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_wall_ms": (cli_ms, "ms"),
    }
    raw = loop["raw"]
    details = {
        "rounds": loop["rounds"],
        "samples": n,
        "reference_s": speed.REFERENCE_S,
        "kernel_median_s": statistics.median(loop["kernel_s"]),
        "raw": {
            "setup_s": statistics.median(s for s, _ in setup_samples),
            "ops_per_s": n / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": percentile(raw, workload.tail_pct) * 1e3,
            "cli_wall_ms": statistics.median(cli_walls) * 1e3,
        },
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": sum(x > tail for x in lat),
        "failed_frac": loop["failed"] / n,
        "failures": loop["failures"],
        "setup_samples_s": [s for s, _ in setup_samples],
        "cli": {"argv": cli_argv, "wall_ms": [w * 1e3 for w in cli_walls], "ok": cli_ok},
        "kinds": kind_summary(loop),
    }
    correct = loop["wrong"] == 0 and cli_ok and workload.final_check()
    return correct, n, loop["failed"], metrics, details


def import_seconds():
    cmd = [
        sys.executable, "-c",
        "import time; t = time.perf_counter(); import entanglia.cli; print(time.perf_counter() - t)",
    ]
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if out.returncode != 0:
            sys.exit(f"perfbench: import probe failed: {out.stderr.strip()}")
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def traced(args, workload):
    import entanglia.cli as cli
    import tracing

    rounds = range(workload.trace_rounds)
    plain = run_rounds(workload, rounds)
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        loop = run_rounds(workload, rounds, rec)
        ops_rec = rec.reset()
        argv = workload.cli_argv() + ["--output", "structured"]
        cli_ok = True
        for _ in range(CLI_TRACED_SAMPLES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            cli_ok = cli_ok and code == 0 and workload.cli_check(json.loads(buf.getvalue().strip().splitlines()[-1]))
        cli_rec = rec.reset()
    finally:
        tracing.uninstall(undo)

    st = tracing.layer_stats(ops_rec)
    cli_st = tracing.layer_stats(cli_rec)

    def calls(layer, function):
        return st["calls"][(layer, function)]

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    # Raw rates: both passes run the same rounds back to back in one process.
    untraced_rate = len(plain["raw"]) / sum(plain["raw"])
    traced_rate = len(loop["raw"]) / sum(loop["raw"])
    coop_candidates = st["under"][(("locc", "coop_construct"), ("locc", "coop_validate"))]
    m = {
        "majorization.calls": (st["entry_calls"]["majorization"], "count"),
        "majorization.self_s": (st["self_s"]["majorization"], "s"),
        "majorization.us_per_call": (
            per(st["entry_s"]["majorization"], st["entry_calls"]["majorization"]) * 1e6, "us"),
        "locc.self_s": (st["self_s"]["locc"], "s"),
        "locc.coop.candidates_per_op": (per(coop_candidates, calls("locc", "coop_construct")), "count"),
        "locc.coop.valid_ratio": (per(ops_rec.counts["coop.valid"], calls("locc", "coop_validate")), "ratio"),
        "locc.catalyst.grid_points_per_op": (
            per(st["under"][(("locc", "find_catalyst_2x2"), ("majorization", "majorizes"))],
                calls("locc", "find_catalyst_2x2")), "count"),
        "locc.plans_found": (ops_rec.counts["plans_found"], "count"),
        "linalg.self_s": (st["self_s"]["linalg"], "s"),
        "linalg.eigvalsh.calls": (calls("linalg", "eigvals_hermitian"), "count"),
        "linalg.eigvalsh.dim3_sum": (ops_rec.counts["eigvalsh.dim3_sum"], "count"),
        "linalg.partial_trace.calls": (calls("linalg", "partial_trace"), "count"),
        "linalg.trace_norm.calls": (calls("linalg", "trace_norm"), "count"),
        "bound_entangled.self_s": (st["self_s"]["bound_entangled"], "s"),
        "bound_entangled.unlock.calls": (calls("bound_entangled", "unlock"), "count"),
        "bound_entangled.state_bytes": (ops_rec.state_bytes, "B"),
        "hiding.self_s": (st["self_s"]["hiding"], "s"),
        "hiding.trace_security.calls": (calls("hiding", "trace_security"), "count"),
        "cli.import_s": (import_seconds(), "s"),
        "cli.parse_emit_s": (cli_st["self_s"]["cli"] / CLI_TRACED_SAMPLES, "s"),
    }
    for layer in tracing.LAYERS:
        total = sum(c for (l, _), c in ops_rec.errors.items() if l == layer)
        m[f"{layer}.errors"] = (total, "count")
    for layer, name in ERROR_TYPES:
        m[f"{layer}.errors.{name}"] = (ops_rec.errors[(layer, name)], "count")
    from entanglia import errors as library_errors

    m["errors.unexpected"] = (
        sum(c for (_, name), c in ops_rec.errors.items() if not hasattr(library_errors, name)), "count")
    m["trace.ops_per_s"] = (traced_rate, "1/s")
    m["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    m["trace.slowdown"] = (untraced_rate / traced_rate, "ratio")

    os.makedirs(TRACE_DIR, exist_ok=True)
    stem = os.path.join(TRACE_DIR, f"{workload.name}-seed{args.seed}")
    tracing.write_spans(ops_rec, stem + ".ops.jsonl")
    tracing.write_spans(cli_rec, stem + ".cli.jsonl")
    details = {
        "rounds": workload.trace_rounds,
        "spans": len(ops_rec.spans),
        "computed": list(COMPUTED),
        "errors_by_type": {f"{l}.{n}": c for (l, n), c in sorted(ops_rec.errors.items())},
        "span_files": [stem + ".ops.jsonl", stem + ".cli.jsonl"],
        "failures": loop["failures"],
    }
    correct = plain["wrong"] == 0 and loop["wrong"] == 0 and cli_ok and workload.final_check()
    return correct, len(loop["raw"]), loop["failed"], m, details


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("decide", "construct", "family", "hiding"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    # One CPU for the loop, the kernel passes and every child process, so the
    # kernel is timed on the CPU that ran the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = set_up(args.workload, args.seed)
    if args.setup_probe:
        setup_s = time.perf_counter() - _START
        print(json.dumps({"setup_s": setup_s, "probe_s": speed.probes(PROBES_AROUND)}))
        return 0

    import machine

    facts = machine.facts(ROOT, PACKAGE)
    run = traced if args.trace else untraced
    correct, attempted, failed, metrics, details = run(args, workload)
    head = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({**head, "machine": facts, "details": details}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

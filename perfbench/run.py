"""kas3 benchmark: one client runs seeded jobs through kas3 in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload reduction-sweep --seed 1 --seconds 25 --trace 0

The client sends the next job only when the previous one has finished, and it
cycles through the workload's rounds until `--seconds` have passed, always
completing the round in progress. With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics; with `--trace 1` every
round runs twice, untraced and then traced, and the object holds the
per-layer metrics from the traced runs. A readable report goes to standard
error and a full run record to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = Path("perfbench") / "out"  # relative to ROOT, so paths in outputs do not name the checkout
SETUP_PROBES = 5
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
MODULES = ("core", "gadgets", "tensor3", "kasteleyn_construct", "lattice", "algebra", "cli")

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
SELF_TIME_SPANS = (
    "tensor3.permanent3",
    "tensor3.determinant3",
    "tensor3.triadjacency",
    "kasteleyn_construct.build_T",
    "kasteleyn_construct.certify_trivial_signing",
    "kasteleyn_construct.strong_matching_bijection_check",
    "lattice.dimer_polynomial",
    "lattice.embed_T",
    "core.validate",
    "core.perfect_matching_polynomial",
    "core.find_edge_tripartition",
    "core.cycle_space_weight_enumerator",
    "gadgets.tripartite_reduction",
    "gadgets.certify",
    "algebra.weight_enumerator",
    "algebra.fold_enumerator",
    "cli.run",
    "cli.serialize",
)
COUNTERS = (
    "tensor3.support.side_max",
    "tensor3.support.nnz",
    "tensor3.support.leaves",
    "kasteleyn_construct.certify_trivial_signing.pairs",
    "kasteleyn_construct.strong_matching_bijection_check.matchings",
    "lattice.dimer_polynomial.count",
    "core.perfect_matching_polynomial.matchings",
    "gadgets.tripartite_reduction.out_triangles",
    "core.find_edge_tripartition.fail",
    "algebra.weight_enumerator.codewords",
    "core.cycle_space_weight_enumerator.codewords",
    "cli.run.fail",
    "cli.payload_bytes",
)
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIME_SPANS},
    **{f"{module}.self_s": "s" for module in MODULES},
    "bench.job.self_s": "s",
    **{name: ("bytes" if name == "cli.payload_bytes" else "count") for name in COUNTERS},
    "cli.import_s": "s",
    "bench.trace_overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, one round, one set-up probe")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def bytecode_warm() -> bool:
    sources = sorted((SRC / "kas3").glob("*.py"))
    return bool(sources) and all(Path(importlib.util.cache_from_source(str(p))).exists() for p in sources)


def tree_hash(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def import_kas3() -> float:
    start = time.perf_counter()
    import kas3
    import kas3.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(kas3.__file__).resolve().parent != (SRC / "kas3").resolve():
        raise ImportError(f"kas3 was imported from {kas3.__file__}, not from this checkout")
    return elapsed


def make_workload(args):
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = OUT / "work" / f"{args.workload}-s{args.seed}"
    return cls(random.Random(f"{args.workload}:{args.seed}"), args.smoke, workdir)


def probe_setup(args) -> int:
    """Child side of a set-up measurement: import kas3, generate the inputs."""
    import_s = import_kas3()
    start = time.perf_counter()
    make_workload(args)
    print(json.dumps({"import_s": import_s, "generate_s": time.perf_counter() - start}))
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Process start to ready-for-the-first-job, in fresh interpreters."""
    walls, imports = [], []
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--probe-setup"] + (["--smoke"] if args.smoke else [])
    for _ in range(1 if args.smoke else SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


def digest_of(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()[:16]


def add_counters(total: Counter, new: dict) -> None:
    for name, value in new.items():
        total[name] = max(total[name], value) if name.endswith("side_max") else total[name] + value


def run_round(workload, tracer, index: int, jobs, traced: bool) -> dict:
    """Run one round; every job's outcome is recorded, none aborts the round."""
    outcomes = []
    counters: Counter = Counter()
    tracer.failed_calls.clear()
    patches = workload.patches if traced else ()
    with tracer.active(patches) if traced else contextlib.nullcontext():
        for position, job in enumerate(jobs):
            tracer.job = f"{index}:{position}"
            start = time.perf_counter()
            try:
                outputs = tracer.call("bench.job", workload.run, tracer, job)
                error = None
            except (Exception, SystemExit) as exc:
                error = exc
            latency = time.perf_counter() - start
            outcome = {"kind": job.kind, "latency": latency, "failure": None, "mismatch": None}
            if error is not None:
                outcome["failure"] = [tracer.failure_site(error), type(error).__name__]
                # the site is left out: tracing adds inner spans an exception can escape from
                outcome["digest"] = digest_of(["failed", type(error).__name__])
            else:
                try:
                    value, job_counters = workload.check(job, outputs)
                    outcome["digest"] = digest_of(value)
                    add_counters(counters, job_counters)
                except Exception as exc:  # a wrong or malformed output is a mismatch
                    outcome["mismatch"] = f"{job.kind}: {type(exc).__name__}: {exc}"
                    outcome["digest"] = digest_of(["mismatch", job.kind])
            outcomes.append(outcome)
    return {
        "outcomes": outcomes,
        "counters": dict(counters),
        "failed_calls": {f"{name}.fail": n for name, n in tracer.failed_calls.items() if not name.startswith("bench.")},
        "digest": digest_of([o["digest"] for o in outcomes]),
        "seconds": sum(o["latency"] for o in outcomes),
    }


def upper_decile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def latency_metrics(rounds: list[dict]) -> tuple[dict, float, int]:
    """jobs_per_s, job_p50_ms and job_tail_ms, robust to the machine's speed.

    The reference machine (2 shared cores) runs up to twice as fast for
    stretches of seconds, so raw medians and order statistics follow those
    stretches from run to run. The usual speed shows in the slower samples:
    throughput and tail count every job at the upper-decile latency of its
    kind in this run (every round holds the same kinds, so one round of those
    values is a typical round), and the median is taken over the jobs of the
    slower half of the rounds, which keeps the spread of latencies within each
    kind. A failed job counts at the time it took: the client waited for it.
    """
    outcomes = [o for r in rounds for o in r["outcomes"]]
    by_kind = defaultdict(list)
    for outcome in outcomes:
        by_kind[outcome["kind"]].append(outcome["latency"])
    kind_latency = {kind: upper_decile(values) for kind, values in by_kind.items()}
    per_job = sorted(kind_latency[o["kind"]] for o in outcomes)
    ok = sum(1 for o in outcomes if o["failure"] is None and o["mismatch"] is None)
    beyond = min(TAIL_BEYOND, len(per_job) - 1)
    cut = statistics.median(r["seconds"] for r in rounds)
    slower = [o["latency"] for r in rounds if r["seconds"] >= cut for o in r["outcomes"]]
    metrics = {
        "jobs_per_s": ok / sum(per_job),
        "job_p50_ms": 1000 * statistics.median(slower),
        "job_tail_ms": 1000 * per_job[len(per_job) - 1 - beyond],
    }
    return metrics, 100.0 * (len(per_job) - beyond) / len(per_job), len(per_job)


def per_layer_metrics(tracer, traced: list, untraced_busy: float, counters: Counter, import_times: list):
    """Self time per span and per module, averaged over the traced rounds,
    plus the counters; also each span's share of the traced job time."""
    rounds = len(traced)
    traced_busy = sum(r["seconds"] for r in traced)
    self_times = tracer.self_times()
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, seconds in self_times.items():
        if f"{name}.self_s" in metrics:
            metrics[f"{name}.self_s"] += seconds / rounds
        module = name.split(".", 1)[0]
        if module in MODULES:
            metrics[f"{module}.self_s"] += seconds / rounds
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    metrics["cli.import_s"] = statistics.median(import_times)
    metrics["bench.trace_overhead_s"] = (traced_busy - untraced_busy) / rounds
    shares = {name: s / traced_busy for name, s in sorted(self_times.items(), key=lambda kv: -kv[1])}
    return metrics, shares


def check_record(args, record: dict) -> str | None:
    """Compare digest and counters with an earlier run of the same code and seed."""
    path = OUT / "records" / f"{args.workload}-s{args.seed}{'-smoke' if args.smoke else ''}.json"
    problem = None
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier["key"] == record["key"]:
            for field in ("digest", "counters"):
                if earlier[field] != record[field]:
                    problem = f"{field} differs from an earlier run with the same seed and code"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return problem


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    os.chdir(ROOT)
    if not (SRC / "kas3" / "__init__.py").is_file():
        print(f"kas3 sources not found under {SRC.name}/ next to the benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    warm_at_start = bytecode_warm()
    if args.probe_setup:
        return probe_setup(args)
    import_kas3()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = make_workload(args)
    setup_walls, import_times = measure_setup(args)
    tracer = tracing.Tracer()

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < workload.min_rounds or time.perf_counter() < deadline:
        jobs = workload.rounds[index % len(workload.rounds)]
        untraced.append(run_round(workload, tracer, index, jobs, traced=False))
        if args.trace:
            traced.append(run_round(workload, tracer, index, jobs, traced=True))
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    period = len(workload.rounds)
    for i, rnd in enumerate(untraced):
        if i >= period and rnd["digest"] != untraced[i % period]["digest"]:
            problems.append(f"round {i} repeats round {i % period} with a different digest")
        if args.trace and traced[i]["digest"] != rnd["digest"]:
            problems.append(f"round {i} has a different digest when traced")
        if args.trace and traced[i]["counters"] != rnd["counters"]:
            problems.append(f"round {i} has different work counters when traced")
    outcomes = [o for rnd in untraced for o in rnd["outcomes"]]
    problems += [o["mismatch"] for o in outcomes if o["mismatch"]]
    prefix = untraced[: workload.min_rounds]
    counters: Counter = Counter()
    for rnd in prefix:
        add_counters(counters, rnd["counters"])
    record_key = {
        "source": tree_hash(SRC / "kas3"),
        "bench": tree_hash(BENCH_DIR),
        "python": platform.python_version(),
        "rounds": workload.min_rounds,
    }
    determinism = {"key": record_key, "digest": digest_of([r["digest"] for r in prefix]), "counters": dict(counters)}
    problem = check_record(args, determinism)
    if problem:
        problems.append(problem)

    attempted = len(outcomes)
    ok = [o for o in outcomes if o["failure"] is None and o["mismatch"] is None]
    failed = attempted - len(ok)
    busy = sum(o["latency"] for o in outcomes)
    timing, tail_p, samples = latency_metrics(untraced)
    failures = Counter(f"{o['failure'][0]}: {o['failure'][1]}" for o in outcomes if o["failure"])

    if args.trace:
        # failed calls include the inner calls only tracing sees, so they come from the traced prefix
        for rnd in traced[: workload.min_rounds]:
            add_counters(counters, rnd["failed_calls"])
        metrics, shares = per_layer_metrics(tracer, traced, busy, counters, import_times)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            **timing,
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": len(ok) / attempted,
        }
        units = END_TO_END_UNITS
        shares = {}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": git_revision(),
        "source_hash": record_key["source"],
        "bytecode_warm_at_start": warm_at_start,
        "rounds": len(untraced),
        "jobs": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures_by_layer": dict(failures),
        "kind_latencies_s": {
            kind: [o["latency"] for o in outcomes if o["kind"] == kind] for kind in sorted({o["kind"] for o in outcomes})
        },
        "tail_percentile": tail_p,
        "latency_samples": samples,
        "setup_samples_s": setup_walls,
        "import_samples_s": import_times,
        "counters": dict(counters),
        "digest": determinism["digest"],
        "round_digests": [r["digest"] for r in untraced],
        "problems": problems,
        "metrics": metrics,
        "self_time_shares": shares,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.jsonl")

    report = [
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(untraced)} rounds, {attempted} jobs, "
        f"{failed} failed (fail_ratio {failed / attempted:.4f})",
        f"job_tail_ms is p{tail_p:.2f} of {samples} jobs ({TAIL_BEYOND} beyond it)",
    ]
    report += [f"  failure {site}: {count}" for site, count in sorted(failures.items())]
    report += [f"  {name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    report += [f"  share of traced job time {name}: {share:.3f}" for name, share in list(shares.items())[:8]]
    report += [f"  PROBLEM {p}" for p in problems[:20]]
    print("\n".join(report), file=sys.stderr)

    correct = not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repository benchmark for wavepim.

Builds perfbench (this directory's CMake project, which compiles the
libraries from ../src), then measures one workload for a fixed time. Every
repetition runs in its own perfbench process, so it starts cold and a
crash costs one repetition instead of the harness. Output checks run in
each repetition after its timed phase; outputs that must repeat exactly
(field hashes, ledgers, modelled makespan) are compared across
repetitions here.

usage: python3 perfbench/run.py --workload project|fig14|simulate|serve
                                --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and prints the per-layer metrics. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and how to read the metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ("project", "fig14", "simulate", "serve")

# Set-up samples wanted per run; cheap --setup-only launches top them up.
SETUP_SAMPLES = 31
# Hard stop for one run once the build is done: the harness must exit
# well within three minutes.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# Spans whose self time is reported as <span>.self_s.
SELF_SPANS = (
    "map.estimate", "net.schedule",
    "pim.volume", "pim.flux", "pim.integration", "pim.settle",
    "pim.drain_network", "batch.load", "batch.store",
    "pim.build_cache", "pim.build_plan", "pim.build_word_plan",
    "pool.parallel_for", "pool.chunk",
    "service.quantum", "service.bind", "service.complete",
)

PER_LAYER = (
    ("core.compare_all_s", "s"),
    ("core.compare_all_self_s", "s"),
    ("map.estimate.count", "count"),
    ("map.estimate.self_s", "s"),
    ("mapping.estimate_useful_ratio", "ratio"),
    ("net.schedule.count", "count"),
    ("net.schedule.self_s", "s"),
    ("net.schedule.share", "ratio"),
    ("net.transfers_per_call", "count"),
    ("pim.net.cycle_over_analytic", "ratio"),
    ("mapping.step_s", "s"),
    ("pim.volume.self_s", "s"),
    ("pim.flux.self_s", "s"),
    ("pim.integration.self_s", "s"),
    ("pim.settle.self_s", "s"),
    ("pim.drain_network.self_s", "s"),
    ("batch.load.self_s", "s"),
    ("batch.store.self_s", "s"),
    ("pim.build_cache.self_s", "s"),
    ("pim.build_plan.self_s", "s"),
    ("pim.build_word_plan.self_s", "s"),
    ("pool.parallel_for.count", "count"),
    ("pool.parallel_for.per_step", "count"),
    ("pool.parallel_for.self_s", "s"),
    ("pool.chunk.self_s", "s"),
    ("pool.scaling", "ratio"),
    ("service.run_s", "s"),
    ("service.quantum.self_s", "s"),
    ("service.bind.self_s", "s"),
    ("service.complete.self_s", "s"),
    ("service.bank_hit_ratio", "ratio"),
    ("eval.fig14_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.dropped", "count"),
    ("trace.overhead", "ratio"),
)

# Facts every repetition of one run must report identically.
REPEATED_FACTS = {
    "simulate": ("hash", "ledger"),
    "serve": ("makespan", "latency_p99", "jobs_digest"),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds perfbench; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=800)


def p90(values):
    """90th percentile, interpolated between the two nearest samples so
    that a run of a few repetitions does not report its maximum."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Runner:
    """Launches repetitions and keeps the attempted/failed tally."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.durations = []

    def launch(self, *extra):
        """One perfbench process; returns its record, or None on failure."""
        self.attempted += 1
        # A hung repetition (the pool's known races) costs at most a
        # minute, or ten typical repetitions.
        typical = statistics.median(self.durations) if self.durations else 6.0
        timeout = max(1.0, min(self.deadline - time.monotonic(),
                               max(60.0, 10 * typical)))
        cmd = [BINARY, self.workload, "--seed", str(self.seed), *extra]
        spawn_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
        self.durations.append((time.monotonic_ns() - spawn_ns) * 1e-9)
        if proc is None:
            self.failed += 1
            log(f"repetition failed: {self.workload} timed out after "
                f"{timeout:.0f} s")
            return None
        if proc.returncode != 0:
            self.failed += 1
            if proc.returncode < 0:
                why = f"killed by {signal.Signals(-proc.returncode).name}"
            else:
                why = f"exit code {proc.returncode}"
            log(f"repetition failed: {self.workload} {why}\n"
                f"{proc.stderr[-2000:]}")
            return None
        record = json.loads(proc.stdout.splitlines()[-1])
        record["setup_s"] = (record["ready_ns"] - spawn_ns) * 1e-9
        if not record["ok"]:
            self.failed += 1
            self.correct = False
            log(f"output check failed: {self.workload}: {record['detail']}")
            return None
        for trace in (record.get("trace"), record.get("serve")):
            if trace is not None and (trace["dropped"] or trace["unbalanced"]):
                # Self times from an incomplete trace would be wrong.
                self.failed += 1
                self.correct = False
                log(f"traced repetition dropped {trace['dropped']:.0f} "
                    f"events and left {trace['unbalanced']:.0f} spans "
                    f"unmatched")
                return None
        return record

    def check_repeats(self, records):
        """Deterministic outputs must not change across repetitions."""
        for key in REPEATED_FACTS.get(self.workload, ()):
            seen = {r["facts"][key] for r in records if key in r["facts"]}
            if len(seen) > 1:
                self.correct = False
                log(f"{self.workload}: '{key}' differs across repetitions")


def repeat(runner, seconds, start, plans):
    """Cycles through `plans` (functions of the repetition index that
    return argument lists) until the next repetition, expected to last as
    long as the previous one of its plan, would overrun `seconds`; every
    plan runs at least once."""
    records = [[] for _ in plans]
    last = [0.0] * len(plans)
    i = 0
    while time.monotonic() < runner.deadline:
        k = i % len(plans)
        record = runner.launch(*plans[k](i))
        last[k] = runner.durations[-1]
        if record is not None:
            records[k].append(record)
        i += 1
        elapsed = time.monotonic() - start
        if i >= len(plans) and elapsed + last[i % len(plans)] > seconds:
            break
    return records


def end_to_end(runner, seconds, start):
    def plan(i):
        # The expensive simulate reference checks run on the first
        # repetition; the rest must repeat its outputs.
        return ["--verify"] if runner.workload == "simulate" and i == 0 else []

    (reps,) = repeat(runner, seconds, start, [plan])
    if not reps:
        return None
    runner.check_repeats(reps)
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES and time.monotonic() < runner.deadline:
        probe = runner.launch("--setup-only")
        if probe is not None:
            setups.append(probe["setup_s"])
    # Every repetition of a run does the same timed work, step for step,
    # so a slower copy of a repetition or a step measured the shared
    # host's other tenants, not the program: timings take the fastest
    # repetition, and each step's fastest copy. Outside simulate the one
    # timed call is the step, so the step metrics restate wall_s there
    # (see README).
    steps = [r["step_s"] if runner.workload == "simulate" else [r["wall_s"]]
             for r in reps]
    floor_ms = [min(copies) * 1e3 for copies in zip(*steps)]
    values = {
        "wall_s": min(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "step_ms_p50": statistics.median(floor_ms),
        "step_ms_p90": p90(floor_ms),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    log(f"{runner.workload}: {len(reps)} repetition(s) of "
        f"{len(floor_ms)} step(s), {len(setups)} set-up sample(s)")
    return reps[0]["host"], {
        name: (values[name], unit) for name, unit in END_TO_END}


def layer_values(record):
    """Per-layer metrics of one traced repetition. A traced simulate
    repetition carries the service layer in its serve pass."""
    spans = record["trace"]["spans"]
    facts = record["facts"]
    service = record.get("serve", {"spans": spans, "facts": facts})

    def span(name, key, table=spans):
        return table.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    wall = record["wall_s"]
    values = {f"{name}.self_s": span(name, "self_s") for name in SELF_SPANS}
    for name in ("service.quantum", "service.bind", "service.complete"):
        values[f"{name}.self_s"] = span(name, "self_s", service["spans"])
    values.update({
        "core.compare_all_s": span("core.compare_all", "total_s"),
        "core.compare_all_self_s": span("core.compare_all", "self_s"),
        "map.estimate.count": span("map.estimate", "count"),
        "mapping.estimate_useful_ratio": ratio(
            facts.get("estimate_pairs", 0), span("map.estimate", "count")),
        "net.schedule.count": span("net.schedule", "count"),
        "net.schedule.share": ratio(span("net.schedule", "self_s"), wall),
        "net.transfers_per_call": ratio(span("net.schedule", "value_sum"),
                                        span("net.schedule", "count")),
        "pim.net.cycle_over_analytic": ratio(
            facts.get("fig14_s", 0), facts.get("analytic_s", 0)),
        "mapping.step_s": span("mapping.step", "total_s"),
        "pool.parallel_for.count": span("pool.parallel_for", "count"),
        "pool.parallel_for.per_step": ratio(
            span("pool.parallel_for", "count"), facts.get("traced_steps", 0)),
        "service.run_s": span("service.run", "total_s", service["spans"]),
        "service.bank_hit_ratio": ratio(service["facts"].get("cache_hits", 0),
                                        service["facts"].get("jobs", 0)),
        "eval.fig14_s": facts.get("fig14_s", 0.0),
        "trace.wall_s": wall,
        "trace.dropped": record["trace"]["dropped"],
    })
    return values


def per_layer(runner, seconds, start):
    def plain(i):
        if runner.workload != "simulate":
            return []
        return ["--pool", "--verify"] if i == 0 else ["--pool"]

    def traced(_):
        return ["--trace"]

    plains, traces = repeat(runner, seconds, start, [plain, traced])
    if not plains or not traces:
        return None
    runner.check_repeats(plains)
    runner.check_repeats(traces)
    per_rep = [layer_values(r) for r in traces]
    values = {name: statistics.median(v[name] for v in per_rep)
              for name in per_rep[0]}
    values["trace.dropped"] = max(v["trace.dropped"] for v in per_rep)
    values["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traces) /
        statistics.median(r["wall_s"] for r in plains))
    scaling = [statistics.median(r["step_s"]) /
               statistics.median(r["facts"]["pool_step_s"])
               for r in plains if "pool_step_s" in r["facts"]]
    values["pool.scaling"] = statistics.median(scaling) if scaling else 0.0
    log(f"{runner.workload}: {len(plains)} untraced and {len(traces)} "
        f"traced repetition(s)")
    return plains[0]["host"], {
        name: (values[name], unit) for name, unit in PER_LAYER}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running repetition (or build step) on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    knobs = sorted(k for k in os.environ if k.startswith("WAVEPIM_"))
    if knobs:
        log(f"error: refusing to run with {', '.join(knobs)} set; the "
            f"benchmark pins every setting itself")
        return 2
    for needed in ("src/CMakeLists.txt", "EXPERIMENTS_matrix.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"error: {needed} not found under {ROOT}; run from a "
                f"checkout of the repository")
            return 2
    try:
        build()
    except (OSError, subprocess.SubprocessError) as err:
        log(f"error: building perfbench failed: {err}")
        return 1

    start = time.monotonic()
    runner = Runner(args.workload, args.seed, start + RUN_LIMIT_S)
    measure = per_layer if args.trace else end_to_end
    result = measure(runner, args.seconds, start)
    if result is None:
        log(f"error: no successful repetition of {args.workload}")
        return 1
    host, metrics = result

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {host['nproc']:.0f}  global pool {host['global_workers']:.0f}  "
          f"build {host['build_type']}  compiler {host['compiler']}  "
          f"avx2 {'yes' if host['avx2'] else 'no'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

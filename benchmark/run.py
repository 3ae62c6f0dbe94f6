#!/usr/bin/env python3
"""The benchmark of record.

    python3 benchmark/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the `record-bench` package from source, then runs repetitions of one
workload (or of each in turn, with `all`), one process per repetition,
until `--seconds` have passed (at least MIN_REPS of them). Every repetition's simulated outcome is checked;
the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
each the median over the repetitions. Their times are host-adjusted: a probe
times a fixed reference kernel before the first repetition and after each
one, and each repetition's times are scaled to a host on which the probe
takes REF_PROBE_S. With `--trace 1` repetitions run in
pairs, one untraced and one traced; the metrics are the per-layer metrics
of BENCHMARK.json, medians over the traced repetitions, plus the tracing
overhead. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# Fewest repetitions (or traced pairs) a run makes, however long they take.
MIN_REPS = 3
MIN_PAIRS = 1
# A repetition that takes longer than this is a hang, not a measurement.
REP_TIMEOUT_S = 150
# What the host-speed probe (`record-bench-calibrate`) reads on the
# reference host, a quiet 2-core Intel Xeon VM at 2.1 GHz. Time metrics are
# reported as if measured there.
REF_PROBE_S = 0.075
# A probe lasts this share of the repetition before it, and at least
# PROBE_MIN_S: a long repetition averages the host's speed over a long
# time, so its probes must too.
PROBE_SHARE = 0.1
PROBE_MIN_S = 0.25
# Workloads that run on more than one thread. Every other workload runs
# pinned to one CPU together with its probes: the host's slowdowns differ
# from CPU to CPU, so a probe only tells about the CPU it ran on. A
# multi-threaded workload is probed on every CPU at once.
MULTI_THREADED = ("failover-audit",)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the three binaries; return their paths, or None if the build fails."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    except OSError as e:
        log(f"build: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed ({done.returncode})")
        return None
    release = os.path.join(target, "release")
    return tuple(
        os.path.join(release, b)
        for b in ("record-bench", "record-bench-traced", "record-bench-calibrate")
    )


def probe(binary, seconds):
    """One host-speed probe of at least `seconds`: the reference kernel's
    mean time in seconds, averaged over one probe process per CPU this
    process may run on, all started at once, each pinned to its CPU."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
    procs = [
        subprocess.Popen(
            [binary, "--seconds", f"{seconds:.3f}"],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            preexec_fn=None if cpu is None else (lambda cpu=cpu: os.sched_setaffinity(0, {cpu})),
        )
        for cpu in cpus
    ]
    outs = []
    for p in procs:
        try:
            outs.append(p.communicate(timeout=REP_TIMEOUT_S)[0])
        except subprocess.TimeoutExpired:
            for q in procs:
                q.kill()
                q.wait()
            raise
    for p in procs:
        if p.returncode != 0:
            raise RuntimeError(f"{os.path.basename(binary)} exited with {p.returncode}")
    return statistics.mean(json.loads(o.strip().splitlines()[-1])["calibrate_s"] for o in outs)


def rep(binary, workload, seed):
    """One repetition in its own process: its JSON line plus the wall time
    the process took, from exec to exit."""
    started = time.monotonic()
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
        timeout=REP_TIMEOUT_S,
        check=False,
    )
    wall_s = time.monotonic() - started
    if done.returncode != 0:
        raise RuntimeError(f"{os.path.basename(binary)} exited with {done.returncode}")
    r = json.loads(done.stdout.strip().splitlines()[-1])
    r["process_wall_s"] = wall_s
    log(
        f"  {'traced ' if r['traced'] else ''}rep: setup {r['setup_s']:.3f}s, "
        f"driver {r['run_s']:.3f}s, wall {wall_s:.3f}s, rss {r['peak_rss_mb']:.1f}MB, "
        f"digest {r['digest']}"
    )
    return r


def problems_of(reps):
    """Every failed check over a run's repetitions."""
    problems = [p for r in reps for p in r["problems"]]
    for key in ("digest", "attempted", "failed"):
        values = {r[key] for r in reps}
        if len(values) > 1:
            problems.append(f"repetitions disagree on {key}: {sorted(values)}")
    return problems


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def slowdowns(probes):
    """How much slower than the reference host each repetition ran: the mean
    of the two probes on either side of it (fewer at the ends of the run),
    over REF_PROBE_S. Repetition i runs between probes i and i + 1."""
    return [
        statistics.mean(probes[max(0, i - 1) : i + 3]) / REF_PROBE_S
        for i in range(len(probes) - 1)
    ]


def end_to_end(reps, slow):
    """Per-repetition end-to-end samples, by metric name. Times are divided
    by the repetition's slowdown, rates multiplied by it."""
    return {
        "sim_ops_per_s": [r["attempted"] / r["run_s"] * k for r, k in zip(reps, slow)],
        "setup_s": [r["setup_s"] / k for r, k in zip(reps, slow)],
        "wall_s": [r["process_wall_s"] / k for r, k in zip(reps, slow)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def unadjusted(reps):
    """The medians of the raw times, for the table only."""
    return (
        statistics.median(r["attempted"] / r["run_s"] for r in reps),
        statistics.median(r["setup_s"] for r in reps),
        statistics.median(r["process_wall_s"] for r in reps),
    )


def per_layer(plain, traced):
    """Per-layer samples, by metric name, plus the tracing overhead."""
    samples = {k: [r["layers"][k] for r in traced] for k in traced[0]["layers"]}
    samples["trace.overhead_pct"] = [
        (t["run_s"] / p["run_s"] - 1.0) * 100.0 for p, t in zip(plain, traced)
    ]
    return samples


def pin(workload, cpus):
    """Confine this process, and so every process it starts, to one of
    `cpus` for a single-threaded workload, or to all of them otherwise."""
    if cpus:
        os.sched_setaffinity(0, cpus if workload in MULTI_THREADED else {min(cpus)})


def measure(workload, args, binaries, wanted):
    """Run one workload's repetitions, print its table, return its result."""
    plain_bin, traced_bin, probe_bin = binaries
    log(f"{workload} seed {args.seed} trace {args.trace}: {args.seconds:g}s")
    plain, traced, probes = [], [], []
    started = time.monotonic()
    try:
        if not args.trace:
            probes.append(probe(probe_bin, PROBE_MIN_S))
        while True:
            plain.append(rep(plain_bin, workload, args.seed))
            if args.trace:
                traced.append(rep(traced_bin, workload, args.seed))
            else:
                seconds = max(PROBE_MIN_S, PROBE_SHARE * plain[-1]["process_wall_s"])
                probes.append(probe(probe_bin, seconds))
                log(f"  probe {probes[-1]:.4f}s")
            made = len(traced) if args.trace else len(plain)
            enough = MIN_PAIRS if args.trace else MIN_REPS
            if made >= enough and time.monotonic() - started >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log(f"repetition failed: {e}")
        return None

    reps = plain + traced
    problems = problems_of(reps)
    samples = per_layer(plain, traced) if args.trace else end_to_end(plain, slowdowns(probes))
    problems += [f"metric {m['name']} was not measured" for m in wanted if m["name"] not in samples]
    result = {
        "correct": not problems,
        "attempted": reps[0]["attempted"],
        "failed": reps[0]["failed"],
        "metrics": {},
    }
    for p in problems:
        log(f"CHECK FAILED: {workload}: {p}")
    print(f"{workload} (seed {args.seed}, {len(plain)} repetitions{', traced' if args.trace else ''})")
    if not problems:
        for m in wanted:
            q1, med, q3 = quartiles(samples[m["name"]])
            print(f"  {m['name']:<36} {med:>14.6g} {m['unit']:<13} (q1 {q1:.6g}, q3 {q3:.6g})")
            result["metrics"][m["name"]] = {"value": med, "unit": m["unit"]}
    if not args.trace and not problems:
        q1, med, q3 = quartiles(slowdowns(probes))
        ops, setup, wall = unadjusted(plain)
        print(f"  host slowdown {med:.3f} (q1 {q1:.3f}, q3 {q3:.3f}); unadjusted medians: "
              f"sim_ops_per_s {ops:.6g}, setup_s {setup:.6g}, wall_s {wall:.6g}")
    print(f"  ops_attempted {result['attempted']}, ops_failed {result['failed']} per repetition")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ("all",))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binaries = build()
    if binaries is None:
        return 2
    workloads = names if args.workload == "all" else (args.workload,)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    results = {}
    for w in workloads:
        pin(w, cpus)
        results[w] = measure(w, args, binaries, wanted)
        if results[w] is None:
            return 1
    if len(results) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

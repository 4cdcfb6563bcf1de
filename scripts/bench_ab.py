#!/usr/bin/env python3
"""The repo's one performance gate: parent vs head, same host, same benchmark.

    scripts/bench_ab.py <parent-ref> <seed>...

Builds `benchmark/` (the instrument declared in BENCHMARK.json) at
<parent-ref> and in the checkout this script lives in (uncommitted edits
included), each in its own directory with its own `.bench_build`, then runs
every workload once per seed and side: the two sides of a pair back to back,
alternating which goes first. It prints the `/proc/stat` steal share of every
run (past about a fifth, `serve_small_cells_mix` `op_p50_ms` jumps at any
commit: a neighbour's doing, not the change's), then one row per workload x
end-to-end metric: both medians, how many pairs the head won and the
parent's interquartile range (what a gain claim is judged by), and a verdict
against the metric's `better`/`bound` from BENCHMARK.json:

    ok          the medians are within the bound (and the pairs agree to
                within it, or every head run beats every parent run)
    REGRESSED   head is worse than the bound at the medians and in every pair
    unresolved  worse at the medians but not in every pair, or within the
                bound at the medians while the pairs disagree by more than it

`sim_speedup` or `report_digest` differing at a seed prints MODEL MOVED with
both values: the simulated behaviour changed (tests/golden_reports.rs pins
the bytes; `sim_speedup` is still gated by its own bound). The exit code is
non-zero on a REGRESSED row or a failed run, zero otherwise.

A diff from <parent-ref> that touches the instrument (`benchmark/`,
BENCHMARK.json) and anything else is refused; one that touches only the
instrument has nothing to compare and exits 0.

The last line of standard output is one JSON object (commits, host, seeds,
steal, both sides' medians, pairs won, parent IQR), the line
BENCH_e2e.jsonl collects per merged PR.

Python standard library only. The verdict logic is pure and doctested:
`python3 -m doctest scripts/bench_ab.py`.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

INSTRUMENT = ("benchmark/", "BENCHMARK.json")
# Past this steal share a run is flagged in the table (ROADMAP item 1).
HIGH_STEAL = 0.20


def worse_by(better, parent, head):
    """How much worse `head` is than `parent`, as a fraction of `parent`
    (negative: better).

    >>> round(worse_by("lower", 10.0, 12.0), 3)
    0.2
    >>> round(worse_by("higher", 20.0, 15.0), 3)
    0.25
    >>> round(worse_by("higher", 20.0, 22.0), 3)
    -0.1
    >>> worse_by("lower", 0.0, 0.0)
    0.0
    """
    if parent == head:
        return 0.0
    if parent == 0:
        return float("inf") if (head > 0) == (better == "lower") else float("-inf")
    delta = (head - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(better, bound, parent, head):
    """Verdict for one workload x metric from the paired runs (`parent[i]`
    and `head[i]` ran at the same seed).

    Within the bound:
    >>> verdict("lower", 0.25, [10.0, 10.2, 9.9], [10.5, 10.1, 10.4])
    'ok'

    Worse than the bound at the medians and in every pair:
    >>> verdict("higher", 0.25, [20.0, 21.0, 19.0], [14.0, 15.0, 13.0])
    'REGRESSED'
    >>> verdict("lower", 0.25, [1.0], [1.4])
    'REGRESSED'

    Worse than the bound at the medians, but one pair is not:
    >>> verdict("lower", 0.25, [1.0, 1.0, 1.0], [1.4, 1.5, 1.1])
    'unresolved'

    Within the bound at the medians, but the pairs disagree by more than
    the bound (one run was hit by the host), so "unchanged" is not shown:
    >>> verdict("lower", 0.25, [1.0, 1.0, 1.0], [1.0, 0.9, 1.5])
    'unresolved'

    ... unless every head run beats every parent run:
    >>> verdict("lower", 0.25, [1.0, 1.6, 1.2], [0.9, 0.5, 0.8])
    'ok'
    """
    pairs = [worse_by(better, p, h) for p, h in zip(parent, head)]
    at_medians = worse_by(better, statistics.median(parent), statistics.median(head))
    if at_medians > bound:
        return "REGRESSED" if all(w > bound for w in pairs) else "unresolved"
    if max(pairs) - min(pairs) <= bound:
        return "ok"
    dominates = all(worse_by(better, p, h) < 0 for p in parent for h in head)
    return "ok" if dominates else "unresolved"


def gain_evidence(better, parent, head):
    """What a gain claim is judged by, from the paired runs: how many pairs
    the head won (a tie counts for neither side) and the interquartile
    range of the parent's runs (quartiles by linear interpolation; 0 for
    one run), which the gain at the medians has to exceed.

    >>> gain_evidence("lower", [10.0, 11.0, 12.0, 13.0], [9.0, 11.0, 12.5, 12.0])
    (2, 1.5)
    >>> gain_evidence("higher", [20.0, 20.0], [21.0, 20.0])
    (1, 0.0)
    >>> gain_evidence("lower", [1.0], [0.5])
    (1, 0.0)
    """
    won = sum(worse_by(better, p, h) < 0 for p, h in zip(parent, head))
    if len(parent) < 2:
        return won, 0.0
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return won, q3 - q1


def run_failures(parent, head):
    """Why a pair of run records (`exit`, `correct`, `failed`, `attempted`)
    cannot be gated on its metrics: an empty list when it can.

    >>> good = {"exit": 0, "correct": True, "failed": 0, "attempted": 600}
    >>> run_failures(good, good)
    []
    >>> run_failures(good, dict(good, correct=False))
    ['head: correct is false']
    >>> run_failures(dict(good, exit=101), good)
    ['parent: exit code 101']
    >>> run_failures(dict(good, failed=1), dict(good, failed=2))
    ['head: 2/600 operations failed, parent 1/600']
    >>> run_failures(dict(good, failed=2), dict(good, failed=1))
    []
    """
    reasons = []
    for side, run in (("parent", parent), ("head", head)):
        if run["exit"] != 0:
            reasons.append(f"{side}: exit code {run['exit']}")
        elif not run["correct"]:
            reasons.append(f"{side}: correct is false")
    if reasons:
        return reasons

    def share(run):
        return run["failed"] / max(run["attempted"], 1)

    if share(head) > share(parent):
        reasons.append(
            f"head: {head['failed']}/{head['attempted']} operations failed, "
            f"parent {parent['failed']}/{parent['attempted']}"
        )
    return reasons


def model_moved(parent, head):
    """The simulated results that differ between two runs at one seed, as
    `name parent -> head` strings. They repeat exactly for a seed, so any
    difference is a change of simulated behaviour, never noise.

    >>> a = {"report_digest": "10ab", "metrics": {"sim_speedup": 1.046}}
    >>> model_moved(a, a)
    []
    >>> model_moved(a, {"report_digest": "77ff", "metrics": {"sim_speedup": 1.05}})
    ['report_digest 10ab -> 77ff', 'sim_speedup 1.046 -> 1.05']
    """
    moved = []
    if parent["report_digest"] != head["report_digest"]:
        moved.append(f"report_digest {parent['report_digest']} -> {head['report_digest']}")
    was, now = parent["metrics"]["sim_speedup"], head["metrics"]["sim_speedup"]
    if was != now:
        moved.append(f"sim_speedup {was!r} -> {now!r}")
    return moved


def instrument_rule(changed_paths):
    """ROADMAP's ground rule from something observable: a change is to the
    program or to the measuring instrument, never to both.

    >>> instrument_rule(["crates/sim/src/system.rs", "README.md"])
    'program'
    >>> instrument_rule(["benchmark/README.md", "BENCHMARK.json"])
    'instrument'
    >>> instrument_rule(["benchmark/README.md", "crates/sim/src/system.rs"])
    'both'
    >>> instrument_rule(["benchmarks.md"]), instrument_rule([])
    ('program', 'program')
    """
    touched = [p.startswith(INSTRUMENT[0]) or p == INSTRUMENT[1] for p in changed_paths]
    if any(touched):
        return "instrument" if all(touched) else "both"
    return "program"


def steal_share(before, after):
    """Share of all CPU time between two `cpu` lines of /proc/stat that the
    hypervisor gave to someone else (the 8th field).

    >>> steal_share("cpu 100 0 50 800 10 0 5 35 0 0", "cpu 150 0 60 850 10 0 5 125 0 0")
    0.45
    >>> steal_share("cpu 1 0 0 0 0 0 0 0 0 0", "cpu 1 0 0 0 0 0 0 0 0 0")
    0.0
    """
    # user..steal; guest time is already inside user.
    was, now = ([int(f) for f in line.split()[1:9]] for line in (before, after))
    total = sum(now) - sum(was)
    return (now[7] - was[7]) / total if total > 0 else 0.0


# --- everything below talks to git, cargo, the benchmark binaries and /proc ---


def git(args, cwd):
    done = subprocess.run(["git"] + args, cwd=cwd, check=True, capture_output=True, text=True)
    return done.stdout


def cpu_line():
    try:
        with open("/proc/stat") as f:
            return f.readline()
    except OSError:
        return "cpu 0 0 0 0 0 0 0 0"


def host():
    flags = []
    try:
        with open("/proc/cpuinfo") as f:
            flags = next((l.split(":", 1)[1].split() for l in f if l.startswith("flags")), [])
    except OSError:
        pass
    # The repo's one host stamp: the CPU features the argmax's compile
    # depends on, beside the name and vCPU count of the machine.
    known = [("sse4_2", "sse4.2"), ("avx", "avx"), ("avx2", "avx2"), ("fma", "fma")]
    return {
        "hostname": os.uname().nodename,
        "cpu_features": "+".join(label for flag, label in known if flag in flags),
        "vcpus": os.cpu_count(),
    }


def build(checkout):
    """Builds the benchmark of one checkout into its own `.bench_build`."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    manifest = os.path.join("benchmark", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    subprocess.run(cmd, cwd=checkout, env=env, check=True)
    return os.path.join(checkout, ".bench_build", "release", "pythia-benchmark")


def run_once(binary, checkout, workload, seed, record_path):
    """One benchmark run from its own checkout: the parsed record, plus the
    exit code and the steal share around it."""
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed), "--out", record_path]
    before = cpu_line()
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    run = {
        "exit": done.returncode,
        "steal": steal_share(before, cpu_line()),
        "correct": False,
        "failed": 0,
        "attempted": 0,
    }
    try:
        with open(record_path) as f:
            record = json.load(f)
    except (OSError, ValueError):
        run["exit"] = run["exit"] or 1
        return run
    run.update({k: record[k] for k in ("correct", "failed", "attempted", "report_digest")})
    run["metrics"] = {name: m["value"] for name, m in record["end_to_end"].items()}
    return run


def main(argv):
    if len(argv) < 3 or not all(s.isdigit() for s in argv[2:]):
        print("usage: scripts/bench_ab.py <parent-ref> <seed>...", file=sys.stderr)
        return 2
    seeds = [int(s) for s in argv[2:]]
    head_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parent_sha = git(["rev-parse", "--verify", argv[1] + "^{commit}"], head_dir).strip()
    head_sha = git(["rev-parse", "HEAD"], head_dir).strip()
    if git(["status", "--porcelain"], head_dir).strip():
        head_sha += "+uncommitted"

    changed = git(["diff", "--name-only", parent_sha], head_dir).split("\n")
    changed += git(["ls-files", "--others", "--exclude-standard"], head_dir).split("\n")
    rule = instrument_rule([p for p in changed if p])
    if rule == "both":
        print(
            f"error: {argv[1]}..this checkout changes both the program and the instrument "
            f"({', '.join(INSTRUMENT)}); split the change",
            file=sys.stderr,
        )
        return 1
    if rule == "instrument":
        print("instrument change: nothing to compare")
        return 0

    with open(os.path.join(head_dir, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"]
    machine = host()

    # The parent is a plain export of the commit: nothing to prune from
    # .git afterwards, whatever happens to this process.
    scratch = tempfile.mkdtemp(prefix="bench_ab_")
    try:
        parent_dir = os.path.join(scratch, "parent")
        os.mkdir(parent_dir)
        archive = subprocess.Popen(["git", "archive", parent_sha], cwd=head_dir, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", parent_dir], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode, "git archive")
        sides = {
            "parent": (build(parent_dir), parent_dir),
            "head": (build(head_dir), head_dir),
        }

        print(f"parent {parent_sha}\nhead   {head_sha}")
        print(f"host   {json.dumps(machine)}\n")
        print(f"{'seed':>6}  {'workload':<24}{'first':<8}{'steal parent':>13}{'steal head':>12}")
        runs = {w: {"parent": [], "head": []} for w in workloads}
        for round_, seed in enumerate(seeds):
            for slot, workload in enumerate(workloads):
                # Alternate within a seed and, for each workload, across seeds.
                order = ("parent", "head") if (round_ + slot) % 2 == 0 else ("head", "parent")
                for side in order:
                    binary, checkout = sides[side]
                    record = os.path.join(scratch, f"{side}-{workload}-{seed}.json")
                    runs[workload][side].append(run_once(binary, checkout, workload, seed, record))
                steal = [runs[workload][side][-1]["steal"] for side in ("parent", "head")]
                cells = [f"{s:.1%}" + ("*" if s >= HIGH_STEAL else "") for s in steal]
                print(f"{seed:>6}  {workload:<24}{order[0]:<8}{cells[0]:>13}{cells[1]:>12}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"(* steal of {HIGH_STEAL:.0%} or more: host-time metrics of that run are a neighbour's doing)\n")

    failures, moved, regressed = [], [], 0
    medians = {}
    print(
        f"{'workload':<24}{'metric':<17}{'parent':>10}{'head':>10}{'worse by':>10}{'bound':>7}"
        f"{'head won':>10}{'parent IQR':>11}  verdict"
    )
    for workload in workloads:
        parent, head = runs[workload]["parent"], runs[workload]["head"]
        broken = False
        for seed, p, h in zip(seeds, parent, head):
            reasons = run_failures(p, h)
            failures += [f"{workload} seed {seed}: {r}" for r in reasons]
            broken = broken or bool(reasons)
            if not reasons:
                moved += [f"{workload} seed {seed}: {m}" for m in model_moved(p, h)]
        if broken:
            print(f"{workload:<24}{'(all)':<17}{'':>37}  FAILED")
            continue
        medians[workload] = {}
        for metric in metrics:
            name = metric["name"]
            was = [run["metrics"][name] for run in parent]
            now = [run["metrics"][name] for run in head]
            result = verdict(metric["better"], metric["bound"], was, now)
            regressed += result == "REGRESSED"
            was_med, now_med = statistics.median(was), statistics.median(now)
            won, iqr = gain_evidence(metric["better"], was, now)
            medians[workload][name] = {"parent": was_med, "head": now_med, "head_won": won, "parent_iqr": iqr}
            print(
                f"{workload:<24}{name:<17}{was_med:>10.4g}{now_med:>10.4g}"
                f"{worse_by(metric['better'], was_med, now_med):>+10.1%}{metric['bound']:>7.0%}"
                f"{f'{won}/{len(was)}':>10}{iqr:>11.4g}  {result}"
            )
    print()
    for line in moved:
        print(f"MODEL MOVED  {line}")
    for line in failures:
        print(f"FAILED  {line}")
    print(f"{regressed} REGRESSED, {len(failures)} failed, {len(moved)} model differences")
    print(
        json.dumps(
            {
                "head": head_sha,
                "parent": parent_sha,
                "host": machine,
                "seeds": seeds,
                "steal": {
                    w: {side: [round(run["steal"], 4) for run in runs[w][side]] for side in ("parent", "head")}
                    for w in workloads
                },
                "medians": medians,
            }
        )
    )
    return 1 if regressed or failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""The swapsim benchmark: one command, three workloads, a correctness oracle.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_figures --seed 0 --seconds 15 --trace 0

It builds the release `swapsim` binary and the in-process harness
(`perfbench/harness`), generates the workload's inputs from `--seed`,
and then

* with `--trace 0` launches `swapsim` on the workload at `--jobs $(nproc)`
  and `--jobs 1`, alternately, until `--seconds` have gone by, and reports
  the end-to-end metrics (medians over the passes; set-up as the fastest
  of a fixed number of minimal launches);
* with `--trace 1` makes one pass at each jobs setting and one traced
  in-process run, and reports the per-layer metrics.

Every launch is checked: exit code, no panic, and every deterministic
output against its reference (see README.md). The last line of standard
output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
A full result file, stamped with the environment, is written under
`.perfbench/results/`.

`--self-test` checks the oracle itself: it must accept real outputs and
flag one flipped byte. `--write-reference` regenerates the committed
full-precision reference for a scenario workload at the default seed; use
it only when the workload's definition changes, never to absorb a changed
simulation result.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE_DIR = os.path.join(HERE, "reference")
DEFAULT_SEED = 0
# Every process gets this long; the whole run must end within 180 s.
LAUNCH_TIMEOUT_S = 150
RUN_BUDGET_S = 150
# Set-up is a few milliseconds: the same number of launches in every run
# (its minimum depends on the count), spread over the run.
SETUP_LAUNCHES = 192
SETUP_LAUNCHES_PER_PAIR = 24

END_TO_END = {
    "wall_s": "s",
    "serial_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "realize.calls": "count",
    "realize.distinct": "count",
    "realize.busy_s": "s",
    "realize.segments": "count",
    "realize.ns_per_segment": "ns",
    "fault_plan.calls": "count",
    "fault_plan.busy_s": "s",
    "fault_plan.events": "count",
    "blackouts.busy_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "strategy.runs": "count",
    "strategy.busy_s": "s",
    "strategy.sim_iterations": "count",
    "strategy.ns_per_iteration": "ns",
    "strategy.adaptations": "count",
    "strategy.nothing.busy_s": "s",
    "strategy.dlb.busy_s": "s",
    "strategy.swap.busy_s": "s",
    "strategy.cr.busy_s": "s",
    "strategy.dlb_swap.busy_s": "s",
    "strategy.oracle.busy_s": "s",
    "strategy.faulted.busy_s": "s",
    "strategy.failures": "count",
    "strategy.recoveries": "count",
    "strategy.aborts": "count",
    "strategy.truncated": "count",
    "exec.iteration.ns": "ns",
    "cpu.completion.ns": "ns",
    "cpu.mean_delivered.ns": "ns",
    "timeline.segments_per_window": "count",
    "decision.calls": "count",
    "decision.ns": "ns",
    "decision.snapshots_per_call": "count",
    "history.predict.ns": "ns",
    "history.samples_per_call": "count",
    "placement.calls": "count",
    "placement.ns": "ns",
    "placement.candidates_per_call": "count",
    "pool.workers": "count",
    "pool.busy_s": "s",
    "pool.idle_s": "s",
    "pool.utilization": "ratio",
    "pool.tail_s": "s",
    "pool.speedup": "ratio",
    "sweep.nested_jobs": "count",
    "output.write.busy_s": "s",
    "output.bytes": "bytes",
    "study_trace.busy_s": "s",
    "obs.events": "count",
    "bench.tracing_overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def sha256_file(path):
    with open(path, "rb") as f:
        return sha256_bytes(f.read())


# --------------------------------------------------------------------------
# Build and environment


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def swapsim():
    return os.path.join(target_dir(), "release", "swapsim")


def harness():
    return os.path.join(target_dir(), "release", "perfbench-harness")


def digester():
    return os.path.join(target_dir(), "release", "perfbench-digest")


def build(traced=False):
    """Builds the release binary and the harness from this checkout's
    sources: the digest binary always, the traced harness when asked."""
    for needed in ("Cargo.toml", "crates/experiments", "results"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"run from the root of a swapsim source checkout ({needed} is missing)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "experiments", "--bin", "swapsim"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join("perfbench", "harness", "Cargo.toml"), "--bin", "perfbench-digest"]
        + (["--bin", "perfbench-harness"] if traced else []),
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def nproc():
    return len(os.sched_getaffinity(0))


def read_text(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def command_output(cmd):
    # The ceiling keeps git from reporting an enclosing repository's
    # commit for a checkout that has no git metadata of its own.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the program's sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(jobs):
    return {
        "nproc": nproc(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "build_profile": "release",
        "jobs": [jobs, 1],
        "l3_cache": read_text("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": sys.version.split()[0],
    }


# --------------------------------------------------------------------------
# Launching and checking


class Tally:
    """Attempted and failed invocations and checks, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


class Launch:
    def __init__(self, argv, wall_s, rss_mb, code, stdout, stderr):
        self.argv, self.wall_s, self.rss_mb = argv, wall_s, rss_mb
        self.code, self.stdout, self.stderr = code, stdout, stderr

    def healthy(self):
        return self.code == 0 and b"panicked at" not in self.stderr


def launch(argv, scratch):
    """Runs one process to completion; wall clock and its own peak RSS."""
    os.makedirs(scratch, exist_ok=True)
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)

        def on_alarm(_sig, _frame):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(LAUNCH_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read()
    return Launch(argv, wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr)


def describe(l):
    tail = l.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
    return f"{' '.join(os.path.relpath(a, ROOT) if a.startswith(ROOT) else a for a in l.argv)}: exit {l.code} {tail[0]}"


def flip_one_byte(src, dst):
    with open(src, "rb") as f:
        data = bytearray(f.read())
    data[len(data) // 2] ^= 0x01
    with open(dst, "wb") as f:
        f.write(data)


# --------------------------------------------------------------------------
# Workload: paper_figures


EXCLUDED_ARTIFACTS = ("manifest.json", "scenario_template.json")


def deterministic(name):
    return not name.endswith(".timing.json") and name not in EXCLUDED_ARTIFACTS


class PaperFigures:
    """Full-scale report, ablations, extensions and fig1-fig3; results/ is the oracle."""

    name = "paper_figures"
    commands = ["report", "ablations", "extensions", "fig1", "fig2", "fig3"]
    batch_commands = ("report", "ablations", "extensions")

    def prepare(self, seed, work):
        # The inputs are fixed: the seed is recorded but changes nothing.
        self.work = work
        results = os.path.join(ROOT, "results")
        self.oracle = {n: sha256_file(os.path.join(results, n))
                       for n in sorted(os.listdir(results)) if deterministic(n)}
        self.input_sha256 = sha256_bytes(json.dumps(self.oracle, sort_keys=True).encode())
        self.passes = 0
        self.timing = []

    def setup_argv(self, jobs):
        return [swapsim(), "fig1", "--jobs", str(jobs), "--out", os.path.join(self.work, "setup")]

    def compare(self, out_dir):
        """(artifacts written, names that differ from results/)."""
        written, bad = [], []
        for name in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path) or not deterministic(name) or name in ("stdout", "stderr"):
                continue
            written.append(name)
            if self.oracle.get(name) != sha256_file(path):
                bad.append(name)
        return written, bad

    def self_test(self, out_dir, tally):
        """The oracle must pass a real artifact and flag it with one byte flipped."""
        name = next(n for n in sorted(os.listdir(out_dir)) if n.endswith(".csv"))
        probe = os.path.join(self.work, "self_test")
        os.makedirs(probe, exist_ok=True)
        shutil.copy(os.path.join(out_dir, name), os.path.join(probe, name))
        clean_ok = self.compare(probe)[1] == []
        flip_one_byte(os.path.join(out_dir, name), os.path.join(probe, name))
        flagged = self.compare(probe)[1] == [name]
        shutil.rmtree(probe)
        tally.check(clean_ok and flagged, f"oracle self-test on {name}: clean {clean_ok}, flagged {flagged}")

    def run_pass(self, jobs, tally, keep_timing=False):
        """Every command once, each into a fresh directory. Returns (wall, peak RSS)."""
        self.passes += 1
        base = os.path.join(self.work, f"pass{self.passes}-j{jobs}")
        produced = set()
        wall, rss = 0.0, 0.0
        for cmd in self.commands:
            out_dir = os.path.join(base, cmd)
            l = launch([swapsim(), cmd, "--jobs", str(jobs), "--out", out_dir], out_dir)
            wall += l.wall_s
            rss = max(rss, l.rss_mb)
            ok = tally.check(l.healthy(), describe(l))
            if ok:
                written, bad = self.compare(out_dir)
                produced.update(written)
                tally.check(not bad, f"{cmd} --jobs {jobs}: differs from results/: {bad}")
                if self.passes == 1 and cmd == "report":
                    self.self_test(out_dir, tally)
                if keep_timing:
                    self.timing.append((cmd, l.wall_s, out_dir))
        missing = sorted(set(self.oracle) - produced)
        tally.check(not missing, f"pass at --jobs {jobs} did not regenerate {missing}")
        if not keep_timing:
            shutil.rmtree(base, ignore_errors=True)
        return wall, rss

    def traced(self, jobs, tally, trace_dir):
        argv = [harness(), "trace-figures", str(jobs), os.path.join(ROOT, "results"), trace_dir]
        l = launch(argv, trace_dir)
        if not tally.check(l.healthy(), describe(l)):
            return None
        with open(os.path.join(trace_dir, "layers.json")) as f:
            report = json.load(f)
        tally.check(report["identical"], "rebuilt study scenarios differ from run_study_traced")
        tally.check(report["artifacts_compared"] > 0 and not report["artifacts_mismatched"],
                    f"traced run's artifacts differ from results/: {report['artifacts_mismatched']}")
        shutil.rmtree(os.path.join(trace_dir, "artifacts"), ignore_errors=True)
        return report

    def pool_metrics(self, wall_s, serial_wall_s):
        """Pool and cache figures from the --jobs N pass's timing artifacts.
        The pool figures cover the commands that share one pool across
        many figures (`batch_commands`), the scope of their wall time; the cache
        counts cover every command."""
        m = {"cache.hits": 0, "cache.misses": 0, "sweep.nested_jobs": 0}
        busy = tail = 0.0
        workers = 1
        for cmd, _, out_dir in self.timing:
            batch = cmd in self.batch_commands
            per_worker_end = {}
            for name in os.listdir(out_dir):
                if not name.endswith(".timing.json"):
                    continue
                with open(os.path.join(out_dir, name)) as f:
                    t = json.load(f)
                m["cache.hits"] += t["cache_hits"]
                m["cache.misses"] += t["cache_misses"]
                if batch:
                    workers = max(workers, t["jobs_effective"])
                    busy += t["busy_secs"]
                for p in t["points"]:
                    m["sweep.nested_jobs"] = max(m["sweep.nested_jobs"], p.get("nested_jobs", 1))
                    if batch and p.get("worker") is not None:
                        end = p["start_secs"] + p["wall_secs"]
                        w = p["worker"]
                        per_worker_end[w] = max(per_worker_end.get(w, 0.0), end)
            if per_worker_end:
                # Tail: from the first worker running out of work for good
                # to the last one finishing.
                tail += max(per_worker_end.values()) - min(per_worker_end.values())
        batch_wall = sum(w for cmd, w, _ in self.timing if cmd in self.batch_commands)
        idle = max(workers * batch_wall - busy, 0.0)
        lookups = m["cache.hits"] + m["cache.misses"]
        m.update({
            "cache.hit_ratio": m["cache.hits"] / lookups if lookups else 0.0,
            "pool.workers": workers,
            "pool.busy_s": busy,
            "pool.idle_s": idle,
            "pool.utilization": busy / (workers * batch_wall) if batch_wall else 0.0,
            "pool.tail_s": tail,
            "pool.speedup": serial_wall_s / wall_s,
        })
        return m

    def cleanup(self):
        for _, _, out_dir in self.timing:
            shutil.rmtree(os.path.dirname(out_dir), ignore_errors=True)


# --------------------------------------------------------------------------
# Scenario workloads


LAN = {"latency": 1e-4, "bandwidth": 6e6}
GREEDY = {"payback_threshold": None, "min_process_improvement": 0.0,
          "min_app_improvement": 0.0, "history": 0.0, "predictor": "LastValue"}
SAFE = {"payback_threshold": 0.5, "min_process_improvement": 0.2,
        "min_app_improvement": 0.0, "history": 300.0, "predictor": "WindowedMean"}


def minimal_scenario():
    """One replication, two iterations, one strategy, a 2-host unloaded platform."""
    return {
        "platform": {"n_hosts": 2, "speed_range": [2e8, 4e8], "link": LAN,
                     "startup_per_process": 0.75, "load": "Unloaded", "horizon": 10000.0},
        "app": {"n_active": 2, "iterations": 2, "flops_per_proc_iter": 1.8e10,
                "bytes_per_proc_iter": 1e6, "process_state_bytes": 1e6},
        "allocated": 2,
        "replications": 1,
        "strategies": [{"kind": "nothing"}],
    }


def fault_tournament(seed):
    """Every strategy kind under every fault class, with a policies block.

    The seed sets the fault streams (`fault_seed`); the platform and the
    fault rates are fixed so that runs of different seeds do equal work.
    """
    return {
        "platform": {"n_hosts": 32, "speed_range": [2e8, 4e8], "link": LAN,
                     "startup_per_process": 0.75, "load": {"OnOff": {"p": 0.08, "q": 0.08, "step": 30.0}},
                     "horizon": 80000.0},
        "app": {"n_active": 4, "iterations": 50, "flops_per_proc_iter": 1.8e10,
                "bytes_per_proc_iter": 1e6, "process_state_bytes": 1e8},
        "allocated": 32,
        "replications": 160,
        "strategies": [
            {"kind": "nothing"},
            {"kind": "dlb"},
            {"kind": "swap", "policy": GREEDY},
            {"kind": "swap", "policy": SAFE},
            {"kind": "cr", "policy": GREEDY},
            {"kind": "dlb_swap", "policy": GREEDY},
            {"kind": "oracle"},
        ],
        "faults": {
            "mtbf_secs": 12000.0, "crash_dist": {"HyperExp": {"cv2": 4.0}},
            "host_mtbf_spread": 8.0,
            "blackout_mtbf_secs": 20000.0, "blackout_repair_secs": 300.0,
            "link_mtbf_secs": 10000.0, "link_window_secs": 600.0, "link_factor": 0.3,
            "checkpoint_interval": 5,
            "domains": 4, "shock_mtbf_secs": 30000.0, "shock_window_secs": 900.0,
            "shock_severity": 0.5,
            "fault_seed": seed,
        },
        "policies": {"placement": "mtbf_aware", "checkpoint": "young_daly"},
    }


def fine_grained_load(seed):
    """64 hosts under a few-second ON/OFF load step, ~600 s iterations.

    The seed jitters the load within a fixed band: duty cycle in
    [0.45, 0.55] and Markov step in [2.7, 3.3] s. The mean ON+OFF cycle is
    held at 20 s, so every seed's hosts change load equally often and
    every seed does comparable work.
    """
    rng = random.Random(seed)
    duty = rng.uniform(0.45, 0.55)
    step = rng.uniform(2.7, 3.3)
    cycle = 20.0
    load = {"OnOff": {"p": step / ((1.0 - duty) * cycle), "q": step / (duty * cycle), "step": step}}
    return {
        "platform": {"n_hosts": 64, "speed_range": [2e8, 4e8], "link": LAN,
                     "startup_per_process": 0.75, "load": load,
                     "horizon": 100000.0},
        "app": {"n_active": 8, "iterations": 16, "flops_per_proc_iter": 1.8e11,
                "bytes_per_proc_iter": 1e6, "process_state_bytes": 1e8},
        "allocated": 64,
        "replications": 6,
        "strategies": [
            {"kind": "nothing"},
            {"kind": "dlb"},
            {"kind": "swap", "policy": GREEDY},
            {"kind": "swap", "policy": SAFE},
        ],
    }


def parse_digest(text):
    """{strategy: (replicated line, [sha256 of each seed's run line])}, in order."""
    out = {}
    for line in text.splitlines():
        kind, strategy, rest = line.split("\t", 2)
        if kind == "replicated":
            out[strategy] = (rest, [])
        else:
            out[strategy][1].append(sha256_bytes(rest.encode())[:16])
    return out


def digest_mismatches(text, reference):
    """Where a digest text differs from a reference record (empty = equal)."""
    try:
        got = parse_digest(text)
    except (ValueError, KeyError):
        return ["unparseable digest"]
    if list(got) != [s["strategy"] for s in reference["strategies"]]:
        return [f"strategies {list(got)}"]
    bad = []
    for ref in reference["strategies"]:
        line, seeds = got[ref["strategy"]]
        if line != ref["replicated"]:
            bad.append(f"{ref['strategy']}: replicated result")
        diff = [i for i, (a, b) in enumerate(zip(seeds, ref["seed_sha256"])) if a != b]
        if diff or len(seeds) != len(ref["seed_sha256"]):
            bad.append(f"{ref['strategy']}: runs of seeds {diff[:5]}")
    return bad


def reference_record(text):
    return {"strategies": [
        {"strategy": s, "replicated": line, "seed_sha256": seeds}
        for s, (line, seeds) in parse_digest(text).items()
    ]}


class ScenarioWorkload:
    """A generated `swapsim run` scenario. The first launch of a run is
    always at --jobs 1; its result table is the reference for the rest
    (at the default seed the committed table is)."""

    def __init__(self, name, generate):
        self.name, self.generate = name, generate

    def prepare(self, seed, work, use_reference=True):
        self.work, self.seed = work, seed
        os.makedirs(work, exist_ok=True)
        self.scenario = os.path.join(work, "scenario.json")
        text = json.dumps(self.generate(seed), indent=2, sort_keys=True)
        with open(self.scenario, "w") as f:
            f.write(text)
        self.input_sha256 = sha256_bytes(text.encode())
        self.minimal = os.path.join(work, "minimal.json")
        with open(self.minimal, "w") as f:
            json.dump(minimal_scenario(), f)
        self.reference = None
        self.expected_stdout = None
        if seed == DEFAULT_SEED and use_reference:
            self.reference = self.load_reference()
            if self.reference is not None:
                if self.reference["input_sha256"] != self.input_sha256:
                    fail(f"{self.name}: generated input differs from the committed reference's")
                self.expected_stdout = self.reference["cli_stdout"].encode()

    def reference_path(self):
        return os.path.join(REFERENCE_DIR, f"{self.name}.seed{DEFAULT_SEED}.json")

    def load_reference(self):
        try:
            with open(self.reference_path()) as f:
                return json.load(f)
        except FileNotFoundError:
            return None

    def setup_argv(self, jobs):
        return [swapsim(), "run", self.minimal, "--jobs", str(jobs)]

    def run_pass(self, jobs, tally, keep_timing=False):
        l = launch([swapsim(), "run", self.scenario, "--jobs", str(jobs)],
                   os.path.join(self.work, "launch"))
        if tally.check(l.healthy(), describe(l)):
            if self.expected_stdout is None:
                self.expected_stdout = l.stdout
            tally.check(l.stdout == self.expected_stdout,
                        f"run --jobs {jobs}: result table differs from the reference")
        return l.wall_s, l.rss_mb

    def digest(self, jobs, tally):
        out = os.path.join(self.work, f"digest-j{jobs}.txt")
        l = launch([digester(), self.scenario, str(jobs), out], os.path.join(self.work, "digest"))
        if not tally.check(l.healthy(), describe(l)):
            return None
        with open(out) as f:
            return f.read()

    def check_digest(self, text, what, tally):
        if self.reference is not None:
            bad = digest_mismatches(text, self.reference)
            tally.check(not bad, f"{what} differs from the committed reference: {bad}")

    def full_precision(self, jobs, tally):
        """Scenario::run in process at both jobs settings: identical, and
        equal to the reference (the committed one at the default seed,
        the --jobs 1 digest at any other)."""
        serial = self.digest(1, tally)
        parallel = self.digest(jobs, tally)
        if serial is None or parallel is None:
            return
        tally.check(serial == parallel, "full-precision results differ between --jobs 1 and --jobs N")
        self.check_digest(serial, "full-precision results", tally)
        reference = self.reference or reference_record(serial)
        bad = digest_mismatches(parallel, reference)
        tally.check(not bad, f"full-precision results at --jobs {jobs} differ from the reference: {bad}")
        # The same comparison must flag one flipped byte of a real digest.
        flipped = bytearray(parallel.encode())
        flipped[len(flipped) // 2] ^= 0x01
        flagged = digest_mismatches(flipped.decode(errors="replace"), reference) != []
        tally.check(flagged, "oracle self-test: a flipped byte went unnoticed")

    def traced(self, jobs, tally, trace_dir):
        argv = [harness(), "trace-scenario", self.scenario, str(jobs), trace_dir]
        l = launch(argv, trace_dir)
        if not tally.check(l.healthy(), describe(l)):
            return None
        with open(os.path.join(trace_dir, "layers.json")) as f:
            report = json.load(f)
        tally.check(report["identical"], "results rebuilt from public calls differ from Scenario::run")
        with open(os.path.join(trace_dir, "digest.txt")) as f:
            self.check_digest(f.read(), "traced results", tally)
        return report

    def pool_metrics(self, wall_s, serial_wall_s, trace_dir, layers):
        """Pool figures of the traced run's `par_map` workers (a scenario
        run writes no timing artifacts and uses no realization cache):
        busy time and worker count from `par_map_stats`, the tail from the
        replication spans, which each ran on its worker's thread."""
        with open(os.path.join(trace_dir, "spans.json")) as f:
            spans = json.load(f)
        batches = {s["id"]: s for s in spans if s["name"] == "strategy.batch"}
        wall = sum(s["end_ns"] - s["start_ns"] for s in batches.values()) * 1e-9
        last_end = {}
        for s in spans:
            if s["name"] == "replication":
                key = (s["parent"], s["thread"])
                last_end[key] = max(last_end.get(key, 0), s["end_ns"])
        # Tail of each strategy's batch: from the first worker running out
        # of seeds to the last one finishing.
        tail = 0.0
        for b in batches:
            ends = [e for (parent, _), e in last_end.items() if parent == b]
            if ends:
                tail += (max(ends) - min(ends)) * 1e-9
        busy, workers = layers["pool.busy_s"], layers["pool.workers"]
        return {
            "cache.hits": 0, "cache.misses": 0, "cache.hit_ratio": 0.0, "sweep.nested_jobs": 0,
            "pool.idle_s": max(workers * wall - busy, 0.0),
            "pool.utilization": busy / (workers * wall) if wall else 0.0,
            "pool.tail_s": tail,
            "pool.speedup": serial_wall_s / wall_s,
        }

    def cleanup(self):
        pass


WORKLOADS = {
    "paper_figures": PaperFigures,
    "fault_tournament": lambda: ScenarioWorkload("fault_tournament", fault_tournament),
    "fine_grained_load": lambda: ScenarioWorkload("fine_grained_load", fine_grained_load),
}


# --------------------------------------------------------------------------
# The run


def measure_setup(w, jobs, tally, count):
    """Walls of `count` launches on the workload's minimal input."""
    walls = []
    for _ in range(count):
        l = launch(w.setup_argv(jobs), os.path.join(w.work, "setup"))
        if tally.check(l.healthy(), describe(l)):
            walls.append(l.wall_s)
    return walls


def end_to_end(w, jobs, seconds, tally, started):
    """Pairs of passes (--jobs 1, then --jobs N) until `seconds` have gone
    by, with a batch of set-up launches after each pair so that set-up is
    sampled across the whole run rather than in one burst."""
    measure_setup(w, jobs, tally, 1)  # warm-up: page the binary in
    walls, serial, rss, setup = [], [], [], []
    t0 = time.perf_counter()
    while not serial or (time.perf_counter() - t0 < seconds
                         and time.perf_counter() - started < RUN_BUDGET_S - 2 * (walls[-1] + serial[-1])):
        s_wall, _ = w.run_pass(1, tally)
        p_wall, p_rss = w.run_pass(jobs, tally)
        serial.append(s_wall)
        walls.append(p_wall)
        rss.append(p_rss)
        setup += measure_setup(w, jobs, tally, min(SETUP_LAUNCHES_PER_PAIR, SETUP_LAUNCHES - len(setup)))
    setup += measure_setup(w, jobs, tally, SETUP_LAUNCHES - len(setup))
    if isinstance(w, ScenarioWorkload):
        w.full_precision(jobs, tally)
    samples = {"wall_s": walls, "serial_wall_s": serial, "setup_s": setup, "peak_rss_mb": rss}
    # A metric with no healthy sample reads 0; the run is then incorrect.
    metrics = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    # Set-up is the fastest launch: a few milliseconds that a neighbour's
    # burst can double, so the median of the launches drifts with the
    # host's load while the minimum of many moves far less.
    metrics["setup_s"] = min(setup, default=0.0)
    return metrics, samples


def per_layer(w, jobs, tally, trace_dir):
    serial, _ = w.run_pass(1, tally)
    wall, _ = w.run_pass(jobs, tally, keep_timing=True)
    report = w.traced(jobs, tally, trace_dir)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if report is not None:
        metrics.update(report["metrics"])
        metrics["bench.tracing_overhead_ratio"] = report["traced_wall_s"] / wall
        if isinstance(w, ScenarioWorkload):
            metrics.update(w.pool_metrics(wall, serial, trace_dir, report["metrics"]))
    if isinstance(w, PaperFigures):
        metrics.update(w.pool_metrics(wall, serial))
    w.cleanup()
    metrics["failed_ratio"] = tally.failed / max(tally.attempted, 1)
    return metrics, {"wall_s": wall, "serial_wall_s": serial}


def write_reference(name):
    w = WORKLOADS[name]()
    if not isinstance(w, ScenarioWorkload):
        fail("only the scenario workloads have a committed reference (paper_figures uses results/)")
    build()
    w.prepare(DEFAULT_SEED, os.path.join(WORK, f"reference-{name}"), use_reference=False)
    tally = Tally()
    serial = w.digest(1, tally)
    parallel = w.digest(nproc(), tally)
    l = launch([swapsim(), "run", w.scenario, "--jobs", "1"], os.path.join(w.work, "launch"))
    if serial is None or serial != parallel or not l.healthy():
        fail(f"cannot write a reference: {tally.failures or describe(l)}")
    record = {"workload": name, "seed": DEFAULT_SEED, "input_sha256": w.input_sha256,
              "cli_stdout": l.stdout.decode(), **reference_record(serial)}
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(w.reference_path(), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    shutil.rmtree(w.work, ignore_errors=True)
    print(f"wrote {os.path.relpath(w.reference_path(), ROOT)}")


def self_test():
    """The oracle passes real outputs and flags a flipped byte; the
    metric tables match BENCHMARK.json."""
    build()
    tally = Tally()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tally.check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
                "BENCHMARK.json end_to_end differs from run.py")
    tally.check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
                "BENCHMARK.json per_layer differs from run.py")
    tally.check(sorted(m["name"] for m in spec["workloads"]) == sorted(WORKLOADS),
                "BENCHMARK.json workloads differ from run.py")
    work = os.path.join(WORK, f"self-test-{os.getpid()}")
    figs = PaperFigures()
    figs.prepare(DEFAULT_SEED, work)
    out_dir = os.path.join(work, "fig1")
    l = launch([swapsim(), "fig1", "--out", out_dir], out_dir)
    if tally.check(l.healthy(), describe(l)):
        tally.check(figs.compare(out_dir)[1] == [], "fig1 differs from results/")
        figs.self_test(out_dir, tally)
    for name in ("fault_tournament", "fine_grained_load"):
        w = WORKLOADS[name]()
        w.prepare(DEFAULT_SEED, os.path.join(work, name))
        tally.check(w.reference is not None, f"{name}: no committed reference")
        if w.reference is not None:
            text = "".join(
                f"replicated\t{s['strategy']}\t{s['replicated']}\n" for s in w.reference["strategies"])
            flipped = bytearray(text.encode())
            flipped[len(flipped) // 2] ^= 0x01
            tally.check(digest_mismatches(flipped.decode(errors="replace"), w.reference) != [],
                        f"{name}: a flipped byte went unnoticed")
    shutil.rmtree(work, ignore_errors=True)
    for f in tally.failures:
        print(f"FAIL {f}")
    print(f"self-test: {tally.attempted - tally.failed}/{tally.attempted} checks passed")
    return 0 if tally.failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.write_reference:
        write_reference(args.workload)
        return 0

    started = time.perf_counter()
    build(traced=args.trace == 1)
    jobs = nproc()
    w = WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    w.prepare(args.seed, work)
    tally = Tally()
    if args.trace == 0:
        metrics, samples = end_to_end(w, jobs, args.seconds, tally, started)
        units = END_TO_END
    else:
        trace_dir = os.path.join(WORK, "traces", tag)
        shutil.rmtree(trace_dir, ignore_errors=True)
        metrics, samples = per_layer(w, jobs, tally, trace_dir)
        units = PER_LAYER
    shutil.rmtree(work, ignore_errors=True)

    correct = tally.failed == 0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "input_sha256": w.input_sha256,
        "trace": args.trace,
        "environment": environment(jobs),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / max(tally.attempted, 1),
        "failures": tally.failures,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "samples": samples,
        "elapsed_s": time.perf_counter() - started,
    }
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    result_path = os.path.join(results_dir, f"{tag}.json")
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1)

    for failure in tally.failures:
        print(f"FAILED {failure}")
    env = result["environment"]
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: nproc {env['nproc']}, "
          f"{env['rustc']}, L3 {env['l3_cache']}, input {w.input_sha256[:12]}")
    for k, u in units.items():
        print(f"{k} {metrics[k]:.6g} {u}")
    print(f"# failed_ratio {result['failed_ratio']:.6g} ({tally.failed} of {tally.attempted} invocations and checks)")
    print(f"# result file: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

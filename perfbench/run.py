#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source, runs one named
workload, checks every output, and prints the result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. Workloads:

* ``sweep``: the ``experiments`` binary regenerates a default-scale
  figure subset (``SWEEP_FIGURES``) at ``IPCP_JOBS=nproc`` with the
  simulation cache off, again and again until ``--seconds`` have elapsed;
  every ``.txt`` and ``.data.json`` it writes is byte-compared with the
  committed ``results/``. Seedless.
* ``ipcp``, ``frontend_1c``: simulation points run
  in-process by ``perfbench/point`` (see its ``main.rs``), traces
  generated from ``--seed``.

Times are reference seconds: each timed stretch is bracketed by runs of
a fixed host-speed probe (``perfbench-point --probe``) and scaled to the
time it would take on a host where the probe takes its nominal time,
because a shared host's speed drifts by up to 2x within minutes (see
README.md). Raw seconds and probe times go to the run record.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (a separate run: spans, scheduler counters, layer replays, the
simulation cache on in a scratch directory for the sweep). The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the run's context (nproc, revision, scale, seed).
Outputs land in ``.bench_out/`` and the build in ``$CARGO_TARGET_DIR``
(default ``.bench_build``), both inside the checkout.

Exit status 0 whenever a result is printed, including a result with
failed operations (``correct`` is then false); 2 when the benchmark
cannot run at all (no sources, build failure, crashed or timed-out run).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
POINT_MANIFEST = HERE / "point" / "Cargo.toml"

POINT_WORKLOADS = ("ipcp", "frontend_1c")
WORKLOADS = ("sweep",) + POINT_WORKLOADS

# A default-scale subset that one run repeats several times: figures that
# share simulation points (fig10, fig11 and fig12 all simulate the
# memory-intensive suite under ipcp), a table with no simulation (process
# cost alone), and two front-end figures (fe01, and fe03's shared-L2
# compositions). One pass takes about 5 s at IPCP_JOBS=2 on a 2-vCPU host.
# The custom-run and multi-core figures (fig13a 16 s, fig15 33 s) are left
# out: a single pass with them outlasts a run, and one sample per run is
# too few on a host whose speed drifts.
SWEEP_FIGURES = (
    "fig10_coverage",
    "fig11_overpredict",
    "fig12_class_share",
    "table3_combos",
    "fe01_l1i_mpki",
    "fe03_compose_shared_l2",
)

# A run must exit within this many seconds (the build excepted).
RUN_BUDGET_S = 170.0
# Share of a sweep run spent on in-process passes over the sweep's own
# points (for its setup_s and sim_mips), before the figure passes. Their
# set-up stretches are short (about 15 ms), so they need many passes.
SWEEP_POINT_SHARE = 0.4
# Fewest figure passes a sweep run makes, whatever --seconds says.
SWEEP_MIN_PASSES = 3
# Probe runs per probe sample around a figure pass (the median is used).
PROBE_RUNS = 3
# Elasticity of a figure pass's wall time to the probe's time: a plain
# ratio. Two figure processes at once slow less with the host than one
# in-process point does (HOST_ELASTICITY in point/src/main.rs, 2): over 59
# passes on a 2-vCPU VM of a shared machine the log-log slope was 0.85
# (correlation 0.59), and squaring the ratio widened the ten-run spread.
SWEEP_ELASTICITY = 1.0

END_TO_END = {
    "wall_s": "s",
    "sim_mips": "Minstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics and units. Every workload prints all of them; a layer
# that does no work on a workload reads 0 (see README.md).
PER_LAYER = {
    "workloads.materialize_s": "s",
    "workloads.unmaterialized_instrs": "instr",
    "trace.decode_ns": "ns/instr",
    "trace.decode_ops": "instr",
    "system.new_s": "s",
    "system.run_s": "s",
    "system.host_ns_per_cycle": "ns/cycle",
    "system.sim_cycles": "cycles",
    "system.ipc": "instr/cycle",
    "sched.executed_cycles": "cycles",
    "sched.skipped_share": "ratio",
    "sched.wakeups": "count",
    "sched.calendar_ns": "ns/op",
    "sched.calendar_ops": "count",
    "l1d.accesses": "count",
    "l1d.miss_ratio": "ratio",
    "l1d.mshr_full_rejects": "count",
    "l1i.misses": "count",
    "l2.miss_ratio": "ratio",
    "llc.miss_ratio": "ratio",
    "cache.lookup_hit_ns": "ns/op",
    "cache.lookup_hit_ops": "count",
    "cache.lookup_miss_ns": "ns/op",
    "cache.lookup_miss_ops": "count",
    "tlb.dtlb_miss_ratio": "ratio",
    "tlb.walks": "count",
    "tlb.translate_ns": "ns/op",
    "tlb.translate_ops": "count",
    "dram.reads": "count",
    "dram.row_hit_ratio": "ratio",
    "dram.bus_util": "ratio",
    "dram.schedule_ns": "ns/op",
    "dram.schedule_ops": "count",
    "ipcp.on_access_ns": "ns/op",
    "ipcp.on_access_ops": "count",
    "l1d.pf_candidates": "count",
    "l1d.pf_issued": "count",
    "l2.pf_issued": "count",
    "l1d.pf_waste_share": "ratio",
    "l1d.pf_accuracy": "ratio",
    "fdip.on_access_ns": "ns/op",
    "fdip.on_access_ops": "count",
    "l1i.pf_issued": "count",
    "l1i.pf_accuracy": "ratio",
    **{f"harness.fig_s.{fig}": "s" for fig in SWEEP_FIGURES},
    "harness.critical_path_s": "s",
    "harness.busy_share": "ratio",
    "harness.sim_requests": "count",
    "harness.dup_share": "ratio",
    "bench.trace_overhead_s": "s",
    "bench.raw_wall_s": "s",
    "bench.probe_ms": "ms",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (exit 2, nothing printed)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------- environment


def clean_env():
    """The inherited environment without any IPCP_* knob: a stray
    IPCP_NO_FASTPATH, IPCP_PHASE_STATS or IPCP_SIMCACHE would silently
    measure a different program."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("IPCP_")}
    stray = sorted(k for k in os.environ if k.startswith("IPCP_"))
    if stray:
        log(f"cleared {', '.join(stray)} from the environment")
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    return env


def nproc():
    return len(os.sched_getaffinity(0))


def revision():
    """The git revision when the checkout is a repository, and always a
    digest of the sources the benchmark builds."""
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            rev = None
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", HERE):
        files += sorted(p for p in top.rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def target_dir(env):
    return (ROOT / env["CARGO_TARGET_DIR"]).resolve()


def build(env):
    """Release-builds the workspace (the `experiments` binary and figure
    binaries) and the point runner, with the workspace's release profile."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"no simulator sources under {ROOT}")
    profile = tomllib.loads((ROOT / "Cargo.toml").read_text()).get("profile", {})
    point_env = dict(env)
    for key, value in profile.get("release", {}).items():
        var = "CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")
        point_env[var] = str(value).lower() if isinstance(value, bool) else str(value)
    for cmd, cmd_env in (
        (["cargo", "build", "--release", "--offline", "--quiet"], env),
        (["cargo", "build", "--release", "--offline", "--quiet",
          "--manifest-path", str(POINT_MANIFEST)], point_env),
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=cmd_env, stdout=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


# --------------------------------------------------------------- processes


def run_child(cmd, env, deadline, stdout_path=None):
    """Runs `cmd` to completion; returns (exit code, stdout text, wall
    seconds, peak RSS in MB). The RSS is the largest process in the tree
    the child waited for, from the child's own wait4 usage record, so the
    builds before it never count."""
    out = open(stdout_path, "w") if stdout_path else subprocess.PIPE
    started = time.perf_counter()
    # A session of its own, so a timeout also stops the figure processes
    # that `experiments` spawns.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, text=True,
                            start_new_session=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                             os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        text = proc.stdout.read() if proc.stdout else ""
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        if stdout_path:
            out.close()
        else:
            proc.stdout.close()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL and time.monotonic() >= deadline:
        raise BenchError(f"timed out: {' '.join(map(str, cmd))}")
    return proc.returncode, text, wall, usage.ru_maxrss / 1024.0


class Spans:
    """Benchmark-side spans (name, start, end, parent), kept in memory and
    written out at the end."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []

    def open(self, name, parent=None):
        self.spans.append({"name": name, "start_ns": self._now(), "end_ns": None,
                           "parent": parent})
        return len(self.spans) - 1

    def close(self, sid):
        self.spans[sid]["end_ns"] = self._now()

    def adopt(self, child_spans, parent):
        """Appends a child process's spans under `parent`, shifted to this
        recorder's clock (the child's origin is its own start)."""
        base = len(self.spans)
        offset = self.spans[parent]["start_ns"]
        for s in child_spans:
            self.spans.append({
                "name": s["name"],
                "start_ns": s["start_ns"] + offset,
                "end_ns": s["end_ns"] + offset,
                "parent": parent if s["parent"] is None else base + s["parent"],
            })

    def _now(self):
        return int((time.perf_counter() - self.origin) * 1e9)


# ------------------------------------------------------------ point runner


def run_points(workload, seed, seconds, trace, env, deadline, spans, plant):
    """Runs the point binary; returns its JSON result."""
    binary = target_dir(env) / "release" / "perfbench-point"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    span_file = OUT / f"point-spans-{workload}-s{seed}.json"
    if trace:
        cmd += ["--trace", "--spans", str(span_file)]
    if plant == "fingerprint":
        cmd.append("--plant-mismatch")
    sid = spans.open(f"point-runner:{workload}")
    code, text, _, _ = run_child(cmd, env, deadline)
    spans.close(sid)
    if code != 0:
        raise BenchError(f"point runner exited {code}")
    result = json.loads(text.strip().splitlines()[-1])
    if trace:
        spans.adopt(json.loads(span_file.read_text()), sid)
        span_file.unlink()
    return result


# ------------------------------------------------------------------- sweep


def probe(env, deadline):
    """Median seconds of PROBE_RUNS host-speed probe runs, and a function
    of the probe times before and after a figure pass that gives its
    reference seconds per raw second."""
    binary = target_dir(env) / "release" / "perfbench-point"
    code, text, _, _ = run_child([str(binary), "--probe", str(PROBE_RUNS)], env, deadline)
    if code != 0:
        raise BenchError(f"probe exited {code}")
    result = json.loads(text.strip().splitlines()[-1])

    def scale(before, after):
        return (2.0 * result["probe_ref_s"] / (before + after)) ** SWEEP_ELASTICITY
    return statistics.median(result["probe_s"]), scale


def compare_outputs(produced, figures):
    """Byte-compares each figure's .txt and .data.json with the committed
    results. One operation per figure; returns (attempted, failures)."""
    reference = ROOT / "results"
    failures = []
    for fig in figures:
        for suffix in (".txt", ".data.json"):
            got, want = produced / (fig + suffix), reference / (fig + suffix)
            if not want.is_file():
                failures.append(f"{fig}{suffix}: no committed reference")
                break
            if not got.is_file():
                failures.append(f"{fig}{suffix}: not produced")
                break
            if got.read_bytes() != want.read_bytes():
                failures.append(f"{fig}{suffix}: differs from results/")
                break
    return len(figures), failures


def run_sweep(env, deadline, spans, name, simcache=False, plant=None):
    """One `experiments` invocation over SWEEP_FIGURES into a fresh
    directory; returns (wall, peak RSS, manifest, attempted, failures)."""
    results = OUT / f"sweep-{name}"
    shutil.rmtree(results, ignore_errors=True)
    results.mkdir(parents=True)
    sweep_env = dict(env, IPCP_JOBS=str(nproc()))
    if simcache:
        cache = OUT / f"simcache-{name}"
        shutil.rmtree(cache, ignore_errors=True)
        sweep_env.update(IPCP_SIMCACHE="1", IPCP_SIMCACHE_DIR=str(cache))
    cmd = [str(target_dir(env) / "release" / "experiments"), *SWEEP_FIGURES,
           "--results-dir", str(results)]
    sid = spans.open(f"experiments:{name}")
    code, _, wall, rss = run_child(cmd, sweep_env, deadline,
                                   stdout_path=OUT / f"sweep-{name}.log")
    spans.close(sid)
    manifest_path = results / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.is_file() else {}
    if plant == "sidecar":
        victim = results / (SWEEP_FIGURES[0] + ".data.json")
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
    sid = spans.open(f"compare:{name}")
    attempted, failures = compare_outputs(results, SWEEP_FIGURES)
    spans.close(sid)
    if code != 0:
        log(f"experiments exited {code}; see {OUT.name}/sweep-{name}.log")
    return wall, rss, manifest, attempted, failures


def harness_layers(manifest, wall, jobs, scale):
    """Harness metrics of one figure pass; `wall` is raw seconds and
    `scale` the pass's reference seconds per raw second."""
    walls = {e["name"]: float(e["wall_secs"]) * scale
             for e in manifest.get("experiments", [])}
    layers = {f"harness.fig_s.{fig}": walls.get(fig, 0.0) for fig in SWEEP_FIGURES}
    layers["harness.critical_path_s"] = max(walls.values(), default=0.0)
    layers["harness.busy_share"] = (sum(walls.values()) / (wall * scale * jobs)
                                    if wall else 0.0)
    return layers


def sweep_passes(args, env, deadline, spans, until):
    """Figure passes, each bracketed by probe samples, until `until`
    (monotonic) and at least SWEEP_MIN_PASSES; returns the passes as dicts
    (raw wall, reference-second scale, RSS, manifest) plus the attempted
    count and failures."""
    passes = []
    attempted = 0
    failures = []
    before, scale = probe(env, deadline)
    while len(passes) < SWEEP_MIN_PASSES or time.monotonic() < until:
        # Only the first pass gets the planted fault.
        plant = args.plant if not passes else None
        wall, rss, manifest, n, fails = run_sweep(
            env, deadline, spans, f"plain{len(passes)}", plant=plant)
        after, _ = probe(env, deadline)
        attempted += n
        failures += fails
        passes.append({"wall": wall, "scale": scale(before, after),
                       "probe_s": (before + after) / 2.0, "rss": rss,
                       "manifest": manifest})
        before = after
    return passes, attempted, failures


# -------------------------------------------------------------------- main


def measure(args, env, spans):
    """Runs the workload; returns (context, attempted, failures, metrics)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    failures = []
    attempted = 0
    metrics = {}
    layers = {}
    if args.workload == "sweep":
        # The sweep pays its set-up inside wall_s; its setup_s and sim_mips
        # come from its own points run in-process first. Then the figure
        # subset runs in passes for the rest of the run; wall_s is the
        # median pass in reference seconds.
        started = time.monotonic()
        runs = [run_points("sweep", args.seed, args.seconds * SWEEP_POINT_SHARE,
                           args.trace, env, deadline, spans, args.plant)]
        passes, n, fails = sweep_passes(args, env, deadline, spans,
                                        started + args.seconds)
        attempted += n
        failures += fails
        wall = statistics.median(p["wall"] * p["scale"] for p in passes)
        metrics.update(wall_s=wall, peak_rss_mb=max(p["rss"] for p in passes))
        metrics.update((key, runs[0]["end_to_end"][key]) for key in ("setup_s", "sim_mips"))
        raw = {"wall_s": statistics.median(p["wall"] for p in passes),
               "pass_walls_s": [p["wall"] for p in passes],
               "pass_scales": [p["scale"] for p in passes],
               "probe_s": statistics.median(p["probe_s"] for p in passes)}
        if args.trace:
            last = passes[-1]
            layers.update(harness_layers(last["manifest"], last["wall"], nproc(),
                                         last["scale"]))
            before, scale = probe(env, deadline)
            cold_wall, _, cold, n, fails = run_sweep(env, deadline, spans, "simcache",
                                                     simcache=True)
            after, _ = probe(env, deadline)
            attempted += n
            failures += fails
            stats = cold.get("simcache", {})
            requests = stats.get("hits", 0) + stats.get("misses", 0)
            layers["harness.sim_requests"] = requests
            layers["harness.dup_share"] = stats.get("hits", 0) / requests if requests else 0.0
            layers["bench.trace_overhead_s"] = cold_wall * scale(before, after) - wall
            layers["bench.raw_wall_s"] = raw["wall_s"]
            layers["bench.probe_ms"] = raw["probe_s"] * 1e3
    else:
        runs = [run_points(args.workload, args.seed, args.seconds, args.trace, env,
                           deadline, spans, args.plant)]
        metrics.update(runs[0]["end_to_end"])
        raw = runs[0]["raw"]
    for run in runs:
        attempted += run["attempted"]
        failures += run["failures"]
    points = runs[-1]
    if args.trace:
        for key, value in points["layers"].items():
            layers.setdefault(key, value)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc(),
        "scale": points["scale"],
        "passes": points["passes"],
        "fingerprints": points["fingerprints"],
        "reports": points["reports"],
        "raw": raw,
    }
    if args.workload == "sweep":
        context.update(figures=SWEEP_FIGURES, jobs=nproc(), figure_scale="default")
    context["git_revision"], context["source_digest"] = revision()
    if args.trace:
        # A layer that does no work on this workload reads 0.
        result_metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                          for name, unit in PER_LAYER.items()}
    else:
        result_metrics = {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in END_TO_END.items()}
    if args.trace:
        context["layers"] = layers
    return context, attempted, failures, result_metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Fault injection for the benchmark's own test (test_run.py).
    parser.add_argument("--plant", choices=("sidecar", "fingerprint"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    env = clean_env()
    spans = Spans()
    try:
        sid = spans.open("build")
        build(env)
        spans.close(sid)
        context, attempted, failures, metrics = measure(args, env, spans)
    except BenchError as err:
        log(str(err))
        return 2
    for failure in failures:
        log(f"FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = dict(context, failures=failures, result=result)
    if args.trace:
        record["spans"] = spans.spans
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"context": {k: context[k] for k in (
        "workload", "seed", "trace", "nproc", "scale", "raw", "git_revision",
        "source_digest")}}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end and per-layer benchmark of the ntcodes CLI.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 40 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  Every CLI call runs in its own fresh child process, as a user
runs it: ``python -m ntcodes.cli ...`` with ``src`` on PYTHONPATH, so the
per-process caches start cold each time.  The children run one at a time
(a closed loop with one client).  A pass runs every call of the workload
once; passes repeat until ``--seconds`` have elapsed, and every figure is
the median over passes.  Times are reported at reference host speed: a
fixed calibration kernel is timed while each child is briefly stopped,
and a pass's times are divided by its mean kernel time over the
reference one.  Each call's exit code and output are checked against
``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a pass under ``traced_cli.py`` and reports the
per-layer metrics (self times, counters) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a fuller record (machine, sample counts, per-verb times); the same
record is written under ``perfbench/out/results/``.
"""

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import random
import shutil
import select
import signal
import statistics
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
PREPARE = os.path.join(HERE, "prepare.py")

SETUP_REPEATS = 5
CALL_TIMEOUT_S = 150

# Host speed.  While a child runs, every SAMPLE_EVERY_S of its run time
# the runner stops it, times a fixed calibration kernel on the CPU the
# child last ran on, and lets it go on; the stopped time is not counted.
# Times are reported at reference speed: scaled by CALIBRATION_REF_S over
# the mean kernel time over the same stretch of calls, so that the shared
# host's drift in speed cancels while a change in the program's own work
# does not.
SAMPLE_EVERY_S = 0.1
SETUP_SAMPLE_EVERY_S = 0.02
CALIBRATION_REF_S = 0.008

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics: *_s is self time summed over a pass; the rest are
# counts per pass.  cli.*_wall_s and codes.undecided_flags come from the
# untraced passes of a traced run.
PER_LAYER = {
    "cli.import_s": "s", "cli.main_s": "s", "cli.parse_code_file_s": "s",
    "cli.parse_group_spec_s": "s", "cli.code_to_json_s": "s",
    "cli.output_bytes": "bytes", "cli.calls": "count",
    "cli.construct_wall_s": "s", "cli.verify_wall_s": "s",
    "cli.search_wall_s": "s",
    "gf.GF_s": "s", "gf.fields": "count",
    "geometry.group_generators_s": "s", "geometry.build_space_s": "s",
    "geometry.restrict_group_s": "s",
    "perm.bsgs_s": "s", "perm.subset_orbit_s": "s",
    "perm.setwise_stabilizer_s": "s", "perm.point_stabilizer_s": "s",
    "perm.transitivity_s": "s", "perm.apply_mask_calls": "count",
    "perm.group_gens": "count", "perm.stabilizer_gens": "count",
    "perm.subset_orbit_members": "count", "perm.elements": "count",
    "johnson.neighbour_set_s": "s", "johnson.min_distance_s": "s",
    "johnson.distance_partition_s": "s",
    "johnson.is_completely_regular_s": "s",
    "johnson.partition_vertices": "count",
    "johnson.vertex_neighbours_calls": "count",
    "codes.build_s": "s", "codes.check_properties_s": "s",
    "codes.consistency_s": "s", "codes.subset_orbits_s": "s",
    "codes.classify_search_s": "s", "codes.unions_tested": "count",
    "codes.found_ratio": "ratio", "codes.undecided_flags": "count",
    "trace_overhead_s": "s",
}

FLAGS = ("code_transitive", "neighbour_transitive", "incidence_transitive",
         "strongly_incidence_transitive", "completely_transitive",
         "completely_regular")
FACTS = ("v", "k", "code_size", "neighbour_set_size", "min_distance",
         "degenerate", "group_order", "transitive_on_V", "primitive_on_V",
         "two_transitive_on_V", "consistency_ok")


class BenchError(Exception):
    pass


# ---- host speed ------------------------------------------------------------

_CAL_PERM = random.Random(0).sample(range(4096), 4096)


def calibration_kernel():
    """A fixed pure-Python loop of the program's kind: ints, bit masks,
    tuples, set and dict lookups.  It uses nothing of ntcodes."""
    perm = _CAL_PERM
    seen = set()
    counts = {}
    mask = 1
    for _ in range(3):
        for x in perm:
            y = perm[x]
            mask = ((mask << 1) | (y & 1)) & 0xFFFFFFFFFFFF
            key = (y, mask & 4095)
            if key not in seen:
                seen.add(key)
            counts[y & 255] = counts.get(y & 255, 0) + 1
    return len(seen)


def last_cpu(pid):
    """The CPU a (stopped or exited, unreaped) process last ran on."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class HostSpeed:
    """Calibration samples taken at a fixed cadence of child run time."""

    def __init__(self, every=SAMPLE_EVERY_S):
        self.every = every
        self.due = every         # child run time left until the next sample
        self.samples = []
        self.stopped = 0.0       # seconds children spent stopped for samples

    def sample(self, cpu):
        allowed = os.sched_getaffinity(0)
        if cpu in allowed:
            os.sched_setaffinity(0, {cpu})
        gc.disable()  # the runner's heap must not change what a sample costs
        try:
            t0 = time.perf_counter()
            calibration_kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()
            os.sched_setaffinity(0, allowed)
        self.due += self.every

    @property
    def slowness(self):
        """Mean kernel time over the reference time.

        The mean, not the median: a call's time sums the host's speed over
        the whole call, slow moments included.
        """
        if not self.samples:  # the children ran for less than one cadence
            self.sample(None)
        return statistics.fmean(self.samples) / CALIBRATION_REF_S


# ---- child processes -----------------------------------------------------

def spawn(argv, stdout_path, stderr_path, speed, timeout=CALL_TIMEOUT_S):
    """Run one child to completion: (exit code, wall seconds, rusage).

    The child leads its own process group.  Whenever speed is due a
    sample, the group is stopped for it and then continued; wall leaves
    that time out.  os.wait4 gives this child's own rusage, so max RSS is
    per call.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    # let children cache bytecode, as for an installed package, so that
    # no call pays to compile the sources whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    stopped = 0.0
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions,
                         setpgroup=0)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            status = usage = None
            while status is None:
                t = time.perf_counter()
                exited = select.select([pidfd], [], [], max(speed.due, 0))[0]
                speed.due -= time.perf_counter() - t
                if exited:
                    _, status, usage = os.wait4(pid, 0)
                    break
                if time.perf_counter() - t0 - stopped > timeout:
                    os.killpg(pid, signal.SIGKILL)
                    _, status, usage = os.wait4(pid, 0)
                    break
                if speed.due > 0:
                    continue
                t = time.perf_counter()
                os.killpg(pid, signal.SIGSTOP)
                _, status, usage = os.wait4(pid, os.WUNTRACED)
                if os.WIFSTOPPED(status):
                    status = None
                    speed.sample(last_cpu(pid))
                    os.killpg(pid, signal.SIGCONT)
                # else it exited before it could stop: status is final
                stopped += time.perf_counter() - t
        finally:
            os.close(pidfd)
    except BaseException:
        try:
            os.killpg(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass  # already reaped
        raise
    wall = time.perf_counter() - t0 - stopped
    speed.stopped += stopped
    return os.waitstatus_to_exitcode(status), wall, usage


# ---- set-up ----------------------------------------------------------------

def set_up(workload, seed, workdir, speed):
    """Load the reference values and write the workload's group files."""
    t0 = time.perf_counter()
    stopped = speed.stopped
    with open(REFERENCE) as fh:
        reference = json.load(fh)[workload]
    calls = workloads.workload_calls(workload)
    manifest = prepare_inputs(calls, seed, workdir, speed)
    took = time.perf_counter() - t0 - (speed.stopped - stopped)
    return calls, reference, manifest, took


def prepare_inputs(calls, seed, workdir, speed=None):
    """Run prepare.py: {group spec: gens file name in workdir, or None}."""
    out = os.path.join(workdir, "prepare.out")
    err = os.path.join(workdir, "prepare.err")
    rc, _, _ = spawn([sys.executable, PREPARE, workdir, str(seed)]
                     + workloads.group_specs(calls), out, err,
                     speed or HostSpeed())
    if rc != 0:
        with open(err) as fh:
            raise BenchError(f"set-up failed with exit code {rc}:\n"
                             + fh.read())
    with open(out) as fh:
        return json.load(fh)


# ---- observing and checking outputs --------------------------------------

def observe_construct(rc, path):
    with open(path) as fh:
        data = json.load(fh)
    return {"exit": rc, "digest": workloads.code_digest(
        data["v"], data["k"], data["codewords"])}


def observe_verify(rc, stdout):
    # the human summary comes first; the JSON report starts at a "{" line
    start = stdout.index("\n{") + 1 if not stdout.startswith("{") else 0
    report = json.loads(stdout[start:])
    facts = {key: report[key] for key in FACTS + FLAGS}
    facts["intersection_numbers"] = report.get("intersection_numbers")
    return {"exit": rc, "facts": facts}


def observe_search(rc, stdout, seed):
    found = []
    for code in json.loads(stdout):
        sigma = workloads.relabelling(seed, code["v"])
        inverse = [0] * len(sigma)
        for x, sx in enumerate(sigma):
            inverse[sx] = x
        words = workloads.relabel_words(code["codewords"], inverse)
        found.append([len(words),
                      workloads.code_digest(code["v"], code["k"], words)])
    return {"exit": rc, "found": sorted(found)}


def mismatches(observed, ref):
    """Differences of an observation from its reference, as text."""
    if ref is None:
        return ["no reference value"]
    if "facts" not in ref:
        return [] if observed == ref else [f"expected {ref}, got {observed}"]
    out = []
    if observed.get("exit") != ref["exit"]:
        out.append(f"exit {observed.get('exit')} != {ref['exit']}")
    got = observed.get("facts", {})
    want = ref["facts"]
    for key, val in want.items():
        if key in FLAGS and val is None:
            continue  # a flag the reference left undecided may be decided
        if (key == "intersection_numbers"
                and want["completely_regular"] is None):
            continue
        if got.get(key) != val:
            out.append(f"{key}: {got.get(key)!r} != {val!r}")
    return out


# ---- passes ----------------------------------------------------------------

def self_times(trace):
    """Per span name: summed duration minus the time child spans cover."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), covered in zip(spans, child):
        out[name + "_s"] = out.get(name + "_s", 0.0) + (end - start - covered)
    return out


class Pass:
    """One run of every call of a workload, with per-call records."""

    def __init__(self):
        self.calls = []          # dicts: verb, key, wall, rss_kb, ok, ...
        self.layers = {}         # per-layer sums (traced passes)
        self.undecided = 0
        self.speed = HostSpeed()

    def add_layers(self, values):
        for name, val in values.items():
            self.layers[name] = self.layers.get(name, 0) + val

    def verb_wall(self, verb):
        return sum(c["wall"] for c in self.calls if c["verb"] == verb)

    @property
    def wall(self):
        return sum(c["wall"] for c in self.calls)

    @property
    def cpu(self):
        return sum(c["cpu"] for c in self.calls)

    @property
    def ref_wall(self):
        """Wall time at reference host speed."""
        return self.wall / self.speed.slowness

    @property
    def failed(self):
        return sum(1 for c in self.calls if not c["ok"])


def run_pass(calls, reference, seed, workdir, manifest, traced=False,
             observations=None):
    """Run every call once; check each against reference (or, with
    observations given, record what was observed there instead)."""
    result = Pass()
    stdout_path = os.path.join(workdir, "stdout.txt")
    stderr_path = os.path.join(workdir, "stderr.txt")
    code_file = None
    for i, call in enumerate(calls):
        verb = call["verb"]
        group = call.get("group")
        if manifest.get(group):
            group = "gens:@" + os.path.join(workdir, manifest[group])
        if verb == "construct":
            code_file = out_file = os.path.join(workdir, f"code{i}.json")
            cli_argv = ["construct"] + call["argv"] + ["-o", out_file]
        elif verb == "verify":
            cli_argv = ["verify", code_file, "--group", group]
        else:
            cli_argv = ["search", "--group", group] + call["argv"]
        trace_file = os.path.join(workdir, f"trace{i}.json")
        if traced:
            argv = [sys.executable, TRACED_CLI, trace_file] + cli_argv
        else:
            argv = [sys.executable, "-m", "ntcodes.cli"] + cli_argv
        # outputs of the previous pass must not stand in for missing ones
        for path in (trace_file, code_file if verb == "construct" else None):
            if path and os.path.exists(path):
                os.remove(path)
        rc, wall, usage = spawn(argv, stdout_path, stderr_path,
                                result.speed)
        out_bytes = os.path.getsize(stdout_path)
        try:
            with open(stdout_path) as fh:
                stdout = fh.read()
            if verb == "construct":
                out_bytes += os.path.getsize(out_file)
                observed = observe_construct(rc, out_file)
                code_file = relabel_code_file(out_file, seed)
            elif verb == "verify":
                observed = observe_verify(rc, stdout)
                result.undecided += sum(
                    observed["facts"][f] is None for f in FLAGS)
            else:
                observed = observe_search(rc, stdout, seed)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            observed = {"exit": rc, "error": f"{type(exc).__name__}: {exc}"}
        if observations is not None:
            observations.setdefault(call["key"], {})[verb] = observed
            problems = []
        else:
            problems = mismatches(
                observed, reference.get(call["key"], {}).get(verb))
        if traced:
            try:
                with open(trace_file) as fh:
                    trace = json.load(fh)
            except (OSError, ValueError) as exc:
                problems.append(f"no trace: {exc}")
            else:
                result.add_layers(self_times(trace))
                result.add_layers(trace["counters"])
                result.add_layers({"cli.output_bytes": out_bytes})
        result.calls.append({"verb": verb, "key": call["key"], "wall": wall,
                             "cpu": usage.ru_utime + usage.ru_stime,
                             "rss_kb": usage.ru_maxrss, "ok": not problems,
                             "problems": problems})
    return result


def relabel_code_file(path, seed):
    """The construct output relabelled for verify (unchanged for seed 0)."""
    if not seed:
        return path
    with open(path) as fh:
        data = json.load(fh)
    sigma = workloads.relabelling(seed, data["v"])
    data["codewords"] = workloads.relabel_words(data["codewords"], sigma)
    relabelled = path[:-len(".json")] + ".relabelled.json"
    with open(relabelled, "w") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")
    return relabelled


# ---- metrics ---------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(passes, setups, setup_slowness):
    return {
        "wall_s": median([p.ref_wall for p in passes]),
        "peak_rss_mb": median([max(c["rss_kb"] for c in p.calls) / 1024
                               for p in passes]),
        "setup_s": median(setups) / setup_slowness,
    }


def per_layer_metrics(plain, traced):
    def med(name):
        return median([p.layers.get(name, 0) for p in traced])

    out = {name: med(name) for name in PER_LAYER}
    unions = out["codes.unions_tested"]
    out["codes.found_ratio"] = (med("codes.codes_found") / unions
                                if unions else 0.0)
    out["cli.calls"] = median([len(p.calls) for p in traced])
    for verb in ("construct", "verify", "search"):
        out[f"cli.{verb}_wall_s"] = median([p.verb_wall(verb) for p in plain])
    out["codes.undecided_flags"] = median([p.undecided for p in plain])
    out["trace_overhead_s"] = (median([p.ref_wall for p in traced])
                               - median([p.ref_wall for p in plain]))
    return out


def machine_record():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ntcodes", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "source_sha256": digest.hexdigest()}


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


# ---- main ------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args, workdir):
    setups = []
    setup_speed = HostSpeed(SETUP_SAMPLE_EVERY_S)
    for _ in range(SETUP_REPEATS):
        calls, reference, manifest, took = set_up(
            args.workload, args.seed, workdir, setup_speed)
        setups.append(took)
    # Start another round only while the slowest round so far still fits
    # in --seconds, so a run ends near --seconds; there is always one.
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(calls, reference, args.seed, workdir,
                              manifest))
        if args.trace:
            traced.append(run_pass(calls, reference, args.seed, workdir,
                                   manifest, traced=True))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > args.seconds:
            break
    passes = plain + traced
    attempted = sum(len(p.calls) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = per_layer_metrics(plain, traced)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(plain, setups, setup_speed.slowness)
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(),
        "passes": len(plain), "traced_passes": len(traced),
        "calls_per_pass": len(calls), "setup_repeats": len(setups),
        "setup_s": setups, "setup_slowness": setup_speed.slowness,
        "pass_wall_s": [p.wall for p in plain],
        "pass_cpu_s": [p.cpu for p in plain],
        "pass_slowness": [p.speed.slowness for p in plain],
        "pass_ref_wall_s": [p.ref_wall for p in plain],
        "call_wall_s": [[c["wall"] for c in p.calls] for p in plain],
        "pass_samples": [len(p.speed.samples) for p in plain],
        "construct_s": median([p.verb_wall("construct") for p in plain]),
        "verify_s": median([p.verb_wall("verify") for p in plain]),
        "search_s": median([p.verb_wall("search") for p in plain]),
        "undecided_flags": median([p.undecided for p in plain]),
        "failed_frac": failed / attempted,
        "failures": [f"{c['verb']} {c['key']}: {'; '.join(c['problems'])}"
                     for p in passes for c in p.calls if not c["ok"]][:20],
        "metrics": metrics,
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return record, result


def main(argv=None):
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "ntcodes", "cli.py")):
        sys.stderr.write(f"perfbench: no ntcodes sources under {SRC}\n")
        return 2
    if not os.path.isfile(REFERENCE):
        sys.stderr.write(f"perfbench: missing {REFERENCE}\n")
        return 2
    workdir = os.path.join(
        OUT, f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        record, result = run(args, workdir)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: its gate, its trace and its contract file.

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run test runs one untraced and one traced pass of every
workload, about a minute and a half on a 2-vCPU machine.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _reference(workload):
    with open(run.REFERENCE) as fh:
        return json.load(fh)[workload]


def _calls(workload, keys):
    return [c for c in workloads.workload_calls(workload) if c["key"] in keys]


def _pass(tmp_path, workload, keys, reference, seed=0):
    calls = _calls(workload, keys)
    manifest = run.prepare_inputs(calls, seed, str(tmp_path))
    return run.run_pass(calls, reference, seed, str(tmp_path), manifest)


J93 = "j93()"
WREATH_NT = "wreath:3,3 k=3 neighbour_transitive max_union=2"


@pytest.mark.parametrize("seed", [0, 5])
def test_gate_accepts_reference_on_any_labelling(tmp_path, seed):
    p = _pass(tmp_path, "catalog", {J93, "hyperoval_ag24()"},
              _reference("catalog"), seed)
    q = _pass(tmp_path, "search_orbits", {WREATH_NT},
              _reference("search_orbits"), seed)
    assert len(p.calls) == 4 and len(q.calls) == 1
    assert p.failed == 0 and q.failed == 0, p.calls + q.calls


def test_flipped_flag_fails_the_gate(tmp_path):
    reference = copy.deepcopy(_reference("catalog"))
    facts = reference[J93]["verify"]["facts"]
    facts["code_transitive"] = not facts["code_transitive"]
    p = _pass(tmp_path, "catalog", {J93}, reference)
    assert p.failed / len(p.calls) > 0
    assert [c["verb"] for c in p.calls if not c["ok"]] == ["verify"]


def test_changed_search_result_fails_the_gate(tmp_path):
    reference = copy.deepcopy(_reference("search_orbits"))
    reference[WREATH_NT]["search"]["found"].pop()
    p = _pass(tmp_path, "search_orbits", {WREATH_NT}, reference)
    assert p.failed == 1


def test_undecided_reference_flag_may_become_decided():
    ref = _reference("catalog")["unitary_bases()"]["verify"]
    assert ref["facts"]["completely_regular"] is None
    observed = copy.deepcopy(ref)
    observed["facts"]["completely_regular"] = True
    observed["facts"]["intersection_numbers"] = [[0, 1], [1, 0]]
    assert run.mismatches(observed, ref) == []
    observed["facts"]["min_distance"] = 5
    assert run.mismatches(observed, ref) == ["min_distance: 5 != 6"]


def test_reference_holds_criterion_8_known_answers(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    from ntcodes.codes import build
    from ntcodes.geometry import partition_blocks
    from ntcodes.johnson import all_ksubsets, complement_code, u_type
    from ntcodes.perm import bits

    def digest(v, k, masks):
        return workloads.code_digest(v, k, [list(bits(m)) for m in masks])

    ref = _reference("search_orbits")
    parts = partition_blocks(3, 3)
    transversals = [m for m in all_ksubsets(9, 3)
                    if u_type(m, parts) == (1, 1, 1)]
    assert ref[WREATH_NT]["search"]["found"] == sorted(
        [[3, digest(9, 3, parts)], [27, digest(9, 3, transversals)]])
    sub, _ = build("subfield_line")
    comp = complement_code(sub)
    strong = "agammal:1,16 k={} strongly_incidence_transitive max_union=1"
    for k in (2, 3, 4, 5, 6, 7, 8, 12):
        expected = {4: [[20, digest(16, 4, sub.codewords)]],
                    12: [[20, digest(16, 12, comp.codewords)]]}.get(k, [])
        assert ref[strong.format(k)]["search"]["found"] == expected


def test_catalog_reference_has_two_undecided_flags():
    undecided = sum(v["verify"]["facts"][f] is None
                    for v in _reference("catalog").values()
                    for f in run.FLAGS)
    assert undecided == 2


def test_self_time_subtracts_child_spans():
    trace = {"spans": [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                       ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]}
    assert run.self_times(trace) == {"a_s": 6.0, "b_s": 3.0, "c_s": 1.0}


def _spawn(tmp_path, code, speed, **kw):
    return run.spawn([sys.executable, "-c", code], str(tmp_path / "out"),
                     str(tmp_path / "err"), speed, **kw)


def test_host_speed_samples_leave_stopped_time_out(tmp_path):
    busy = ("import time\nt = time.process_time()\n"
            "while time.process_time() - t < 0.5: pass\n")
    speed = run.HostSpeed(every=0.1)
    t0 = time.perf_counter()
    rc, wall, usage = _spawn(tmp_path, busy, speed)
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert 3 <= len(speed.samples) <= 10
    assert speed.stopped > sum(speed.samples)
    assert abs(elapsed - speed.stopped - wall) < 0.05
    assert 0.5 <= usage.ru_utime + usage.ru_stime <= wall
    assert speed.slowness > 0


def test_spawn_kills_a_call_past_its_timeout(tmp_path):
    speed = run.HostSpeed(every=0.1)
    rc, wall, _ = _spawn(tmp_path, "import time; time.sleep(30)", speed,
                         timeout=0.5)
    assert rc == -9 and wall < 5


def test_benchmark_json_names_what_the_runner_reports():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _bench(cwd, workload, trace, seconds=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _bench(run.ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)

    def layer_s(layer):
        return sum(v for k, v in metrics.items()
                   if k.startswith(layer + ".") and k.endswith("_s"))

    if workload == "search_regular":
        assert layer_s("johnson") > layer_s("perm")
    if workload == "search_orbits":
        assert layer_s("perm") > layer_s("johnson")
    if workload == "catalog":
        assert metrics["codes.undecided_flags"] == 2
        assert metrics["perm.apply_mask_calls"] > 10 ** 6


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "catalog", trace=0, seconds=1)
    assert proc.returncode != 0
    assert proc.stdout == ""

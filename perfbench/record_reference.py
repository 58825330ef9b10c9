"""Record ``reference.json`` from the current program (seed 0, untraced).

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right: the benchmark
counts every later difference from these values as a failed call.
"""

import json
import os
import shutil

import run
import workloads


def main():
    workdir = os.path.join(run.OUT, f"record-{os.getpid()}")
    os.makedirs(workdir)
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            calls = workloads.workload_calls(workload)
            manifest = run.prepare_inputs(calls, 0, workdir)
            observed = {}
            run.run_pass(calls, None, 0, workdir, manifest,
                         observations=observed)
            reference[workload] = observed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Benchmark set-up, run in a fresh process with ``src`` on PYTHONPATH.

    python perfbench/prepare.py WORKDIR SEED SPEC [SPEC ...]

Builds each group a workload names, through the same public functions the
CLI uses, and writes a ``gens:@file`` for every group that is not passed to
the CLI as its natural spec: the hyperoval group (taken from
``codes.build``), and every group when SEED is not 0, conjugated by that
seed's point relabelling.  Prints one JSON object mapping each spec to the
file written for it, or to null.
"""

import json
import os
import sys

from ntcodes import codes
from ntcodes.cli import parse_group_spec
from ntcodes.perm import Permutation

import workloads


def main(argv):
    workdir, seed, specs = argv[0], int(argv[1]), argv[2:]
    manifest = {}
    for spec in specs:
        if spec == workloads.HYPEROVAL:
            G = codes.build(workloads.HYPEROVAL)[1]
        else:
            G = parse_group_spec(spec)
        if not seed and spec != workloads.HYPEROVAL:
            manifest[spec] = None
            continue
        sigma = workloads.relabelling(seed, G.degree)
        lines = [str(G.degree)]
        # Permutation's repr is the cycle notation gens:@file reads
        lines += [repr(Permutation(workloads.conjugate_images(g.images,
                                                              sigma)))
                  for g in G.generators]
        name = workloads.gens_filename(spec)
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        manifest[spec] = name
    print(json.dumps(manifest))


if __name__ == "__main__":
    main(sys.argv[1:])

"""Output parity of the ntcodes CLI between two checkouts.

    python3 tools/parity.py OLD NEW [--only PATTERN ...]

OLD and NEW are checkout roots (or their ``src`` directories).  Every call
runs as ``python -m ntcodes.cli ...`` in a fresh process, once with each
checkout's ``src`` on PYTHONPATH, and the two runs must give the same exit
code, standard output, standard error and ``-o`` file bytes.  The calls:

- ``construct`` and ``verify`` of the 25 CATALOG entries of
  ``perfbench/workloads.py``, each once to standard output and once with
  ``-o``; ``verify`` reads the code file that OLD's ``construct`` wrote,
  and the hyperoval group is passed as a ``gens:@file``;
- ``construct`` of six codes beyond the catalog, built as group orbits:
  ``unital --q 4`` and ``--q 5``, a u-type code of line 4, an
  intransitive code of variant c, a u-type code of 66 of 68 points, walked
  by complements, and an intransitive code whose size is over the orbit
  cap, which exits 3;
- ``verify`` of five codes beyond the catalog whose codeword stabilizers
  have many Schreier generators: ``unital --q 4`` under ``pgammau:4``,
  ``affine_subspace --n 3 --q 3 --s 1`` under ``agammal:3,3``, the
  lines of AG(5,3), whose neighbour set is one orbit over ``--cap-orbit``,
  under ``agammal:5,3``, the 57 lines of PG(2,7) under ``pgammal:3,7``,
  and ``utype --a 9 --b 4 --line 2 --k 34`` under ``wreath:9,4``, whose
  stabilizer's chain is deep;
- the 15 benchmark searches (``search_orbits`` and ``search_regular``), to
  standard output and with ``-o``;
- the same searches with each group written as a ``gens:@file``, a group
  of no known order;
- searches on the routes of the orbit quotient's fill that the benchmark
  does not take: a group that is not transitive on the points, k = 1 and
  k = v - 1 for it and for a transitive group, and four larger
  quotients, J(65,4) under PGU(3,4), J(65,3) under PGammaU(3,4),
  J(28,7) under PGammaU(3,3) and J(64,2) under AGammaL(3,4), the last at
  the largest degree with chunk tables;
- two union-heavy searches under the trivial group of degree 8, given as
  a ``gens:@file`` that holds only the degree, at k = 4 with
  ``--max-union 2``: one for ``completely_regular`` and one for
  ``completely_transitive``, which exercise the partition pass's stop
  at the first unequal cell;
- calls that stop at ``--cap-orbit`` and exit 3, a ``verify`` call whose
  fill through a point completes with orbits over ``--cap-orbit``, and
  one whose walk of J(v,k) stops at ``--cap-orbit`` and that exits 0 with
  both partition flags ``null``;
- one ``verify`` of the hyperoval under the generators each side builds;
- the outputs the family table drives: ``catalog``, ``construct -h`` and
  three ``construct`` usage errors, a parameter the family does not take,
  a family that does not exist and a u-type class that is empty.

The generator and code files are written once, by OLD (the trivial
group's by this script), and both sides read the same files, except for
the hyperoval under each side's generators: each side writes its own
hyperoval ``gens:@file`` into its working directory.  ``--only`` keeps the
calls whose name matches one of the given fnmatch patterns; ``--list``
prints the names.  Prints one line per call that differs and a summary
line; the exit code is 1 when a call differs, else 0.
"""

import argparse
import fnmatch
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

# Writes the generators of each group spec given (the hyperoval group from
# codes.build) as a gens:@file: argv is the directory, then spec=name pairs.
WRITE_GENS = """
import sys
from ntcodes import codes
from ntcodes.cli import parse_group_spec
for pair in sys.argv[2:]:
    spec, name = pair.split("=", 1)
    G = (codes.build(spec)[1] if spec == "hyperoval_ag24"
         else parse_group_spec(spec))
    with open(sys.argv[1] + "/" + name, "w") as fh:
        fh.write("\\n".join([str(G.degree)] + [repr(g) for g in G.generators])
                 + "\\n")
"""

OUTPUT = "out.json"

# a gens:@file of the trivial group of degree 8: the degree alone
TRIVIAL = "trivial8.gens"

# (group spec, k, predicate, max union) of the searches beyond the
# benchmark's
EXTRA_SEARCHES = [
    ("stab:9:0,1,2", 3, "completely_regular", 2),
    ("stab:9:0,1,2", 1, "completely_regular", 1),
    ("stab:9:0,1,2", 8, "neighbour_transitive", 1),
    ("wreath:3,4", 1, "completely_regular", 1),
    ("wreath:3,4", 11, "neighbour_transitive", 1),
    ("pgu:4", 4, "neighbour_transitive", 1),
    ("pgammau:4", 3, "strongly_incidence_transitive", 1),
    ("pgammau:3", 7, "neighbour_transitive", 1),
    ("agammal:3,4", 2, "strongly_incidence_transitive", 1),
]

# (family, params) of the construct calls beyond the catalog's
EXTRA_CONSTRUCTS = [
    ("unital", {"q": 4}),
    ("unital", {"q": 5}),
    ("utype", {"a": 4, "b": 3, "line": 4, "k": 10}),
    ("intransitive", {"v": 12, "u": 7, "k": 9}),
    ("utype", {"a": 17, "b": 4, "line": 2, "k": 66}),
    ("intransitive", {"v": 40, "u": 33, "k": 6}),
]

# (family, params, group spec) of the verify calls beyond the catalog's
EXTRA_VERIFIES = [
    ("unital", {"q": 4}, "pgammau:4"),
    ("affine_subspace", {"n": 3, "q": 3, "s": 1}, "agammal:3,3"),
    ("affine_subspace", {"n": 5, "q": 3, "s": 1}, "agammal:5,3"),
    ("projective_subspace", {"n": 3, "q": 7, "s": 2}, "pgammal:3,7"),
    ("utype", {"a": 9, "b": 4, "line": 2, "k": 34}, "wreath:9,4"),
]


def src_dir(path):
    path = os.path.abspath(path)
    inner = os.path.join(path, "src")
    return inner if os.path.isdir(os.path.join(inner, "ntcodes")) else path


def run_cli(src, argv, cwd):
    """(exit code, stdout, stderr, -o bytes or None) of one CLI call."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "ntcodes.cli", *argv],
                          cwd=cwd, env=env, capture_output=True)
    out = os.path.join(cwd, OUTPUT)
    data = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
    return proc.returncode, proc.stdout, proc.stderr, data


def code_file(files, key):
    safe = "".join(ch if ch.isalnum() else "_" for ch in key)
    return os.path.join(files, f"code_{safe}.json")


def code_entries(entries):
    """(key, construct arguments, group spec) of each (family, params,
    group spec) entry."""
    out = []
    for family, params, spec in entries:
        argv = ["--family", family]
        for name, val in params.items():
            argv += [f"--{name}", str(val)]
        out.append((workloads.entry_key(family, params), argv, spec))
    return out


def catalog_entries():
    """code_entries of the CATALOG."""
    return code_entries([(family, params,
                          workloads.catalog_spec(family, params))
                         for family, params in workloads.CATALOG])


def calls(files):
    """(name, argv) of every call; files is the directory of the shared
    generator and code files."""
    def gens(spec):
        return "gens:@" + os.path.join(files, workloads.gens_filename(spec))

    out = []
    for key, argv, spec in catalog_entries():
        if spec == workloads.HYPEROVAL:
            spec = gens(spec)
        code = code_file(files, key)
        out += [(f"construct {key}", ["construct", *argv]),
                (f"construct {key} -o", ["construct", *argv, "-o", OUTPUT]),
                (f"verify {key}", ["verify", code, "--group", spec]),
                (f"verify {key} -o",
                 ["verify", code, "--group", spec, "-o", OUTPUT])]
    out += [(f"construct {key}", ["construct", *argv])
            for key, argv, _ in code_entries(
                [(family, params, None)
                 for family, params in EXTRA_CONSTRUCTS])]
    out += [(f"verify {key} {spec}",
             ["verify", code_file(files, key), "--group", spec])
            for key, _, spec in code_entries(EXTRA_VERIFIES)]
    for workload in ("search_orbits", "search_regular"):
        for call in workloads.search_calls(workload):
            argv, spec = ["search", *call["argv"]], call["group"]
            out += [(f"search {call['key']}", argv + ["--group", spec]),
                    (f"search {call['key']} -o",
                     argv + ["--group", spec, "-o", OUTPUT]),
                    (f"search gens {call['key']}",
                     argv + ["--group", gens(spec)])]
    out += [(f"search {spec} k={k} {pred} max-union={union}",
             ["search", "--group", spec, "--k", str(k), "--predicate", pred,
              "--max-union", str(union)])
            for spec, k, pred, union in EXTRA_SEARCHES]
    out += [(f"search trivial:8 k=4 {pred} max-union=2",
             ["search", "--group", "gens:@" + os.path.join(files, TRIVIAL),
              "--k", "4", "--predicate", pred, "--max-union", "2"])
            for pred in ("completely_regular", "completely_transitive")]
    capped = ["--k", "4", "--predicate", "completely_regular",
              "--cap-orbit", "100"]
    out += [("cap search pgammau:3",
             ["search", "--group", "pgammau:3", *capped]),
            ("cap search gens pgammau:3",
             ["search", "--group", gens("pgammau:3"), *capped]),
            ("cap verify unital(q=3)",
             ["verify", code_file(files, "unital(q=3)"),
              "--group", "pgammau:3", "--cap-orbit", "50"]),
            # the fill through a point, which walks no orbit, completes
            # past --cap-orbit; the walk of J(v,k) stops at it: both
            # partition flags null, exit 0
            ("cap verify blowup(a=3,b=4,k0=2)",
             ["verify", code_file(files, "blowup(a=3,b=4,k0=2)"),
              "--group", "wreath:3,4", "--cap-orbit", "300"]),
            ("cap verify intransitive(k=3,u=3,v=8)",
             ["verify", code_file(files, "intransitive(k=3,u=3,v=8)"),
              "--group", "stab:8:0,1,2", "--cap-orbit", "20"])]
    # a path relative to each side's working directory, where that side
    # writes the hyperoval's generators from its own codes.build
    key = workloads.entry_key(workloads.HYPEROVAL, {})
    out.append((f"verify {key} own gens",
                ["verify", code_file(files, key), "--group",
                 "gens:@" + workloads.gens_filename(workloads.HYPEROVAL)]))
    out += [("catalog", ["catalog"]), ("construct -h", ["construct", "-h"]),
            ("construct unital --v 3",
             ["construct", "--family", "unital", "--v", "3"]),
            ("construct no_such", ["construct", "--family", "no_such"]),
            ("construct utype --line 6 --k 1",
             ["construct", "--family", "utype", "--a", "3", "--b", "2",
              "--line", "6", "--k", "1"])]
    return out


def prepare(old_src, new_src, files, sides, chosen):
    """Write, with OLD, the generator files and the code files that the
    chosen calls read, and with each side its own hyperoval generator file
    in its working directory."""
    read = {arg.removeprefix("gens:@") for _, argv in chosen for arg in argv}
    specs = workloads.group_specs(
        workloads.catalog_calls() + workloads.search_calls("search_orbits")
        + workloads.search_calls("search_regular"))
    pairs = [f"{spec}={workloads.gens_filename(spec)}" for spec in specs
             if os.path.join(files, workloads.gens_filename(spec)) in read]
    if pairs:
        subprocess.run([sys.executable, "-c", WRITE_GENS, files, *pairs],
                       env=dict(os.environ, PYTHONPATH=old_src), check=True)
    if os.path.join(files, TRIVIAL) in read:
        with open(os.path.join(files, TRIVIAL), "w") as fh:
            fh.write("8\n")
    own = workloads.gens_filename(workloads.HYPEROVAL)
    if own in read:
        for src, side in zip((old_src, new_src), sides):
            subprocess.run([sys.executable, "-c", WRITE_GENS, side,
                            f"{workloads.HYPEROVAL}={own}"],
                           env=dict(os.environ, PYTHONPATH=src), check=True)
    for key, argv, _ in catalog_entries() + code_entries(EXTRA_VERIFIES):
        path = code_file(files, key)
        if path in read:
            rc, stdout, _, _ = run_cli(old_src, ["construct", *argv], files)
            if rc:
                raise SystemExit(f"construct {key}: exit {rc} at OLD")
            with open(path, "wb") as fh:
                fh.write(stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--only", action="append", metavar="PATTERN")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)
    old_src, new_src = src_dir(args.old), src_dir(args.new)
    with tempfile.TemporaryDirectory() as tmp:
        files = os.path.join(tmp, "files")
        sides = [os.path.join(tmp, "old"), os.path.join(tmp, "new")]
        for d in [files] + sides:
            os.mkdir(d)
        chosen = [(name, argv) for name, argv in calls(files)
                  if args.only is None
                  or any(fnmatch.fnmatchcase(name, p) for p in args.only)]
        if args.list:
            print("\n".join(name for name, _ in chosen))
            return 0
        prepare(old_src, new_src, files, sides, chosen)
        differ = 0
        for name, argv in chosen:
            old = run_cli(old_src, argv, sides[0])
            new = run_cli(new_src, argv, sides[1])
            if old != new:
                differ += 1
                parts = [part for part, a, b in zip(
                    ("exit code", "stdout", "stderr", "-o bytes"), old, new)
                    if a != b]
                print(f"DIFFERS {name}: {', '.join(parts)}")
        print(f"parity: {len(chosen) - differ} of {len(chosen)} calls "
              f"identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

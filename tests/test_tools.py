"""tools/parity.py, run on a slice of its calls against this checkout."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARITY = os.path.join(ROOT, "tools", "parity.py")


def parity(*argv):
    return subprocess.run([sys.executable, PARITY, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_parity_lists_every_call():
    names = parity(ROOT, ROOT, "--list").stdout.split("\n")[:-1]
    assert len(names) == len(set(names)) == (
        25 * 4 + 6 + 5 + 15 * 3 + 9 + 2 + 3 + 2 + 1 + 5)
    assert sum(n.startswith("search gens ") for n in names) == 15


def test_parity_of_a_checkout_with_itself():
    # a code file and a gens:@file written by the first side, to standard
    # output and to -o, a hyperoval gens:@file written by each side, a call
    # that exits 3, one whose fill completes past --cap-orbit and one that
    # stops its fill at --cap-orbit and exits 0
    proc = parity(ROOT, ROOT, "--only", "construct subfield_line*",
                  "--only", "verify hyperoval_ag24*",
                  "--only", "search gens agammal:1,16 k=2 *",
                  "--only", "cap verify*")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "parity: 9 of 9 calls identical\n"

"""Workload definitions shared by the benchmark runner and its set-up step.

A workload is a list of CLI calls.  Each call is a dict with a ``key`` that
names its reference values, a ``verb``, its fixed arguments and, where it
takes one, the natural ``group`` spec.  The runner passes that spec as it
is (seed 0) or as a ``gens:@file`` written at set-up (the hyperoval group,
and every group when the seed is not 0).

Seed 0 is the natural labelling.  Any other seed relabels the points of
every code and group of degree v by one seeded random permutation of
range(v), so base-point choices differ from the ones the code was tuned on
while every relabelling-invariant answer stays the same.
"""

import hashlib
import json
import random

# The 25-entry ntcodes.codes.CATALOG as recorded with the reference values;
# kept here so that the workload stays fixed if the program's list grows.
CATALOG = [
    ("intransitive", {"v": 8, "u": 5, "k": 3}),
    ("intransitive", {"v": 8, "u": 3, "k": 3}),
    ("intransitive", {"v": 9, "u": 2, "k": 4}),
    ("utype", {"a": 3, "b": 2, "line": 1, "k": 2}),
    ("utype", {"a": 3, "b": 2, "line": 1, "k": 3}),
    ("utype", {"a": 3, "b": 2, "line": 2, "k": 4}),
    ("utype", {"a": 2, "b": 3, "line": 3, "k": 3}),
    ("utype", {"a": 2, "b": 3, "line": 4, "k": 4}),
    ("utype", {"a": 3, "b": 3, "line": 5, "c": 2}),
    ("utype", {"a": 3, "b": 2, "line": 6, "k": 3}),
    ("utype", {"a": 2, "b": 4, "line": 7, "k": 3}),
    ("blowup", {"a": 2, "b": 5, "k0": 2}),
    ("blowup", {"a": 3, "b": 4, "k0": 2}),
    ("affine_subspace", {"n": 3, "q": 2, "s": 2}),
    ("affine_subspace", {"n": 2, "q": 4, "s": 1}),
    ("subfield_line", {}),
    ("hyperoval_ag24", {}),
    ("projective_subspace", {"n": 3, "q": 2, "s": 2}),
    ("projective_subspace", {"n": 3, "q": 3, "s": 2}),
    ("baer_subline", {"q0": 3}),
    ("unital", {"q": 3}),
    ("ovoid_circles", {}),
    ("psl2_orbit", {"q": 9}),
    ("j93", {}),
    ("unitary_bases", {}),
]

# hyperoval_ag24 has no group spec: its group comes from codes.build at
# set-up, so a change to how that group is generated flows through.
HYPEROVAL = "hyperoval_ag24"


def catalog_spec(family, params):
    if family == "intransitive":
        pts = ",".join(str(i) for i in range(params["u"]))
        return f"stab:{params['v']}:{pts}"
    if family in ("utype", "blowup"):
        return f"wreath:{params['a']},{params['b']}"
    if family == "j93":
        return "wreath:3,3"
    if family == "affine_subspace":
        return f"agammal:{params['n']},{params['q']}"
    if family == "subfield_line":
        return "agammal:1,16"
    if family == "projective_subspace":
        return f"pgammal:{params['n']},{params['q']}"
    if family == "baer_subline":
        q = params["q0"] ** 2
        return f"pgammal:2,{q}"
    if family == "unital":
        return f"pgammau:{params['q']}"
    if family == "unitary_bases":
        return "pgammau:3"
    if family == "ovoid_circles":
        return "pgl:2,9"
    if family == "psl2_orbit":
        return f"psl:2,{params['q']}"
    if family == HYPEROVAL:
        return HYPEROVAL
    raise KeyError(family)


def entry_key(family, params):
    inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{family}({inner})"


def catalog_calls():
    """construct then verify for each CATALOG entry."""
    calls = []
    for family, params in CATALOG:
        key = entry_key(family, params)
        argv = ["--family", family]
        for name, val in params.items():
            argv += [f"--{name}", str(val)]
        calls.append({"key": key, "verb": "construct", "argv": argv})
        calls.append({"key": key, "verb": "verify",
                      "group": catalog_spec(family, params)})
    return calls


_SEARCHES = {
    "search_orbits": (
        [("wreath:3,3", 3, "neighbour_transitive", 2),
         ("wreath:3,3", 3, "gamma1_transitive", 2)]
        + [("agammal:1,16", k, "strongly_incidence_transitive", 1)
           for k in (2, 3, 4, 5, 6, 7, 8, 12)]
        + [("pgammau:3", 4, "strongly_incidence_transitive", 1),
           ("pgammau:3", 4, "neighbour_transitive", 1)]),
    "search_regular": (
        ("agammal:1,16", 4, "completely_regular", 2),
        ("pgammau:3", 3, "completely_regular", 1),
        ("pgammau:3", 4, "completely_regular", 1)),
}


def search_calls(workload):
    calls = []
    for spec, k, pred, max_union in _SEARCHES[workload]:
        calls.append({
            "key": f"{spec} k={k} {pred} max_union={max_union}",
            "verb": "search", "group": spec,
            "argv": ["--k", str(k), "--predicate", pred,
                     "--max-union", str(max_union)]})
    return calls


WORKLOADS = ("catalog", "search_orbits", "search_regular")


def workload_calls(workload):
    if workload == "catalog":
        return catalog_calls()
    return search_calls(workload)


def group_specs(calls):
    """The distinct group specs of a call list, in first-use order."""
    return list(dict.fromkeys(c["group"] for c in calls if "group" in c))


def relabelling(seed, v):
    """The seeded point permutation of range(v); the identity for seed 0."""
    perm = list(range(v))
    if seed:
        random.Random(f"{seed}:{v}").shuffle(perm)
    return perm


def gens_filename(spec):
    safe = "".join(ch if ch.isalnum() else "_" for ch in spec)
    return f"gens_{safe}.txt"


def conjugate_images(images, sigma):
    """Images of sigma^-1 g sigma: point sigma[x] goes to sigma[g(x)]."""
    out = [0] * len(images)
    for x, gx in enumerate(images):
        out[sigma[x]] = sigma[gx]
    return out


def relabel_words(words, sigma):
    return sorted(sorted(sigma[x] for x in w) for w in words)


def code_digest(v, k, words):
    """Labelling-specific digest of a code: v, k and its codeword set."""
    canon = json.dumps([v, k, sorted(sorted(w) for w in words)],
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:20]

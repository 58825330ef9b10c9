"""End-to-end acceptance suite.

Each test checks one acceptance criterion and prints a single
"CRITERION n: PASS/FAIL" line regardless of output capture.
"""

import math
import random
from itertools import combinations
from math import comb

import pytest

from ntcodes import codes, geometry, johnson
from ntcodes.codes import (CATALOG, blowup_code, build, check_properties,
                           check_theorem_consistency, classify_search,
                           utype_gamma1_target, utype_target)
from ntcodes.geometry import group_generators, partition_blocks, wreath_stabilizer
from ntcodes.johnson import (Code, all_ksubsets, complement_code,
                             min_distance, neighbour_set, u_type,
                             vertex_neighbours)
from ntcodes.perm import DEFAULT_ORBIT_CAP, PermGroup, mask_of


def verdict(capsys, n, ok):
    with capsys.disabled():
        print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed"


def test_criterion_1_unitals(capsys):
    ok = True
    code3, G3 = build("unital", q=3)
    rep = check_properties(code3, G3)
    ok &= (code3.v, code3.k, len(code3)) == (28, 4, 63)
    ok &= rep.delta == 3
    ok &= rep.flags["strongly_incidence_transitive"] is True
    code4, _ = build("unital", q=4)
    ok &= (code4.v, code4.k, len(code4)) == (65, 5, 208)
    ok &= min_distance(code4) == 4
    verdict(capsys, 1, ok)


def test_criterion_2_subfield_line(capsys):
    code, G = build("subfield_line")
    rep = check_properties(code, G)
    ok = (code.v, code.k, len(code)) == (16, 4, 20)
    ok &= rep.delta == 3
    ok &= rep.flags["neighbour_transitive"] is True
    ok &= rep.flags["strongly_incidence_transitive"] is True
    verdict(capsys, 2, ok)


UTYPE_CASES = [
    {"a": 3, "b": 2, "line": 1, "k": 2},
    {"a": 3, "b": 2, "line": 1, "k": 3},
    {"a": 3, "b": 2, "line": 2, "k": 4},
    {"a": 2, "b": 3, "line": 3, "k": 3},
    {"a": 2, "b": 3, "line": 4, "k": 4},
    {"a": 3, "b": 3, "line": 5, "c": 2},
    {"a": 3, "b": 2, "line": 6, "k": 3},
    {"a": 2, "b": 4, "line": 7, "k": 3},
]


def test_criterion_3_type_table(capsys):
    ok = True
    for params in UTYPE_CASES:
        code, G = build("utype", **params)
        parts = partition_blocks(params["a"], params["b"])
        target, k = utype_target(**params)
        g1_types = {tuple(sorted(t for t in u_type(m, parts) if t))
                    for m in neighbour_set(code)}
        ok &= g1_types == {utype_gamma1_target(**params)}
        rep = check_properties(code, G)
        ok &= rep.flags["incidence_transitive"] is True
        # minimum distance is 1 except when the codewords are whole parts
        expected_delta = k if (params["line"] == 1
                               and params.get("k") == params["a"]) else 1
        ok &= rep.delta == expected_delta
    verdict(capsys, 3, ok)


def test_criterion_4_blowup_distance_law(capsys):
    rng = random.Random(11)
    ok = True
    cases = 0
    while cases < 20:
        a = rng.choice([2, 3])
        b = rng.choice([4, 5, 6])
        k0 = rng.randint(1, b - 1)
        verts = all_ksubsets(b, k0)
        inner = Code(b, k0, rng.sample(verts, rng.randint(2, min(6, len(verts)))))
        d0 = min_distance(inner)
        if d0 is None:
            continue
        ok &= min_distance(blowup_code(a, inner)) == a * d0
        cases += 1
    verdict(capsys, 4, ok)


def test_criterion_5_ovoid_circles(capsys):
    code, G = build("ovoid_circles")
    rep = check_properties(code, G)
    ok = len(code) == 30
    for triple in combinations(range(10), 3):
        tm = mask_of(triple)
        ok &= sum(1 for w in code.codewords if w & tm == tm) == 1
    ok &= rep.delta == 2
    ok &= rep.flags["strongly_incidence_transitive"] is True
    ok &= any("minimum distance" in note for note in rep.notes)
    verdict(capsys, 5, ok)


def test_criterion_6_unitary_bases(capsys):
    code, G = build("unitary_bases")
    ok = (code.v, code.k, len(code)) == (28, 12, 63)
    ok &= min_distance(code) == 6
    ok &= _first_orbit_pairs(code, G)[0]
    psu = group_generators("pgu", q=3)
    ok &= not _first_orbit_pairs(code, psu)[0]
    verdict(capsys, 6, ok)


def _first_orbit_pairs(code, G):
    """The strong incidence pair test on the orbit of the code's first
    codeword."""
    quotient = johnson.OrbitQuotient(G, code.k, DEFAULT_ORBIT_CAP)
    return codes._strong_pairs(
        codes._Facts(G, quotient, [quotient.orbit_of(code.codewords[0])]))


def test_criterion_7_consistency_suite(capsys):
    ok = len(CATALOG) >= 15
    for family, params in CATALOG:
        code, G = build(family, **params)
        passed, failures = check_theorem_consistency(code, G)
        ok &= passed
    verdict(capsys, 7, ok)


def test_criterion_8_classification_searches(capsys):
    ok = True
    # J(9,3) under the 3x3 partition stabilizer
    W = wreath_stabilizer(3, 3)
    parts = partition_blocks(3, 3)
    transversals = sorted(m for m in all_ksubsets(9, 3)
                          if u_type(m, parts) == (1, 1, 1))
    found = classify_search(W, 3, "neighbour_transitive", max_union=2)
    ok &= ({tuple(c.codewords) for c in found}
           == {tuple(sorted(parts)), tuple(transversals)})
    j93, _ = build("j93")
    g1found = classify_search(W, 3, "gamma1_transitive", max_union=2)
    ok &= j93.codewords in [c.codewords for c in g1found]
    # J(16,k) under AGammaL(1,16)
    A = group_generators("agammal", n=1, q=16)
    sub, _ = build("subfield_line")
    for k in range(2, 9):
        strong = classify_search(A, k, "strongly_incidence_transitive")
        if k == 4:
            ok &= [c.codewords for c in strong] == [sub.codewords]
        else:
            ok &= strong == []
    comp = classify_search(A, 12, "strongly_incidence_transitive")
    ok &= ([c.codewords for c in comp]
           == [complement_code(sub).codewords])
    verdict(capsys, 8, ok)


def test_criterion_9_engine_oracles(capsys):
    ok = True
    # group orders against closed forms
    for n in range(1, 8):
        ok &= PermGroup.symmetric(n).order() == math.factorial(n)
    for a, b in [(2, 3), (3, 3), (3, 4)]:
        ok &= (wreath_stabilizer(a, b).order()
               == math.factorial(a) ** b * math.factorial(b))
    for q in (3, 4):
        # gcd(3, q+1) = 1 for q in {3, 4}, so no scalar quotient applies
        ok &= (group_generators("pgu", q=q).order()
               == q ** 3 * (q ** 3 + 1) * (q * q - 1))
    # orbit-stabilizer identity on 100 random subsets
    rng = random.Random(99)
    pool = [PermGroup.symmetric(7), PermGroup.alternating(6),
            wreath_stabilizer(3, 3), group_generators("agammal", n=1, q=16)]
    for _ in range(100):
        G = rng.choice(pool)
        mask = mask_of(rng.sample(range(G.degree),
                                  rng.randint(1, G.degree - 1)))
        ok &= (len(G.subset_orbit(mask)) * G.setwise_stabilizer(mask).order()
               == G.order())
    # graph distance against exhaustive BFS in J(7,3)
    verts = all_ksubsets(7, 3)
    for start in verts:
        dist = {start: 0}
        queue = [start]
        for m in queue:
            for nb in vertex_neighbours(m, 7):
                if nb not in dist:
                    dist[nb] = dist[m] + 1
                    queue.append(nb)
        ok &= all(3 - (start & b).bit_count() == dist[b] for b in verts)
    verdict(capsys, 9, ok)


def test_criterion_10_completely_regular_families(capsys):
    ok = True
    for (v, u, k) in [(8, 5, 3), (8, 3, 3), (9, 2, 4)]:
        code, G = build("intransitive", v=v, u=u, k=k)
        rep = check_properties(code, G)
        ok &= rep.flags["completely_regular"] is True
        ok &= rep.intersection_numbers is not None
        ok &= all(sum(row) == k * (v - k) for row in rep.intersection_numbers)
        ok &= "intersection_numbers" in rep.as_dict()
    verdict(capsys, 10, ok)

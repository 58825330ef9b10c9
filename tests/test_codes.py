"""Code family builders, property checks, and classification search tests."""

import hashlib
import json
import os
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ntcodes import codes, geometry, johnson, perm
from ntcodes.codes import (CATALOG, ConstructionError, PREDICATES, blowup_code,
                           build, check_properties, check_theorem_consistency,
                           classify_search, subset_orbits,
                           utype_gamma1_target, utype_target)
from ntcodes.johnson import (Code, all_ksubsets, complement_code,
                             min_distance, neighbour_set, u_type,
                             vertex_neighbours)
from ntcodes.perm import (PermGroup, Permutation, ResourceCapError, bits,
                          mask_of)
from test_johnson import check_quotient_cells


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def all_orbits(quotient):
    """The members of every orbit the quotient has found, in order."""
    return quotient.members(range(len(quotient.reps)))


# ---- catalog shapes -------------------------------------------------------------

CATALOG_SHAPES = {
    ("unital", (("q", 3),)): (28, 4, 63),
    ("subfield_line", ()): (16, 4, 20),
    ("hyperoval_ag24", ()): (16, 6, 48),
    ("j93", ()): (9, 3, 30),
    ("unitary_bases", ()): (28, 12, 63),
    ("ovoid_circles", ()): (10, 4, 30),
    ("baer_subline", (("q0", 3),)): (10, 4, 30),
    ("psl2_orbit", (("q", 9),)): (10, 3, 60),
    ("affine_subspace", (("n", 3), ("q", 2), ("s", 2))): (8, 4, 14),
    ("affine_subspace", (("n", 2), ("q", 4), ("s", 1))): (16, 4, 20),
    ("projective_subspace", (("n", 3), ("q", 2), ("s", 2))): (7, 3, 7),
    ("projective_subspace", (("n", 3), ("q", 3), ("s", 2))): (13, 4, 13),
}


def test_catalog_shapes():
    for family, params in CATALOG:
        key = (family, tuple(sorted(params.items())))
        code, G = build(family, **params)
        assert code.v == G.degree
        if key in CATALOG_SHAPES:
            assert (code.v, code.k, len(code)) == CATALOG_SHAPES[key], family


def _perfbench_workloads():
    import importlib.util
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalog_matches_the_benchmark_reference_digests():
    # every CATALOG code is the one the benchmark's reference recorded
    workloads = _perfbench_workloads()
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)["catalog"]
    assert len(CATALOG) == len(reference) == 25
    for family, params in CATALOG:
        code, _ = build(family, **params)
        digest = workloads.code_digest(
            code.v, code.k, [list(bits(w)) for w in code.codewords])
        key = workloads.entry_key(family, params)
        assert digest == reference[key]["construct"]["digest"], key


def _gaussian_binomial(n, s, q):
    """[n choose s]_q, the number of s-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(s):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("n,q,s", [(n, q, s) for n in (2, 3, 4)
                                   for q in (2, 3, 4, 5) if q ** n <= 81
                                   for s in range(1, n)])
def test_subspace_codes_have_their_sizes(n, q, s):
    # k and |C| of the orbit codes against the subspace counts
    code, G = build("affine_subspace", n=n, q=q, s=s)
    assert (code.v, code.k) == (G.degree, q ** s) == (q ** n, q ** s)
    assert len(code) == q ** (n - s) * _gaussian_binomial(n, s, q)
    code, G = build("projective_subspace", n=n, q=q, s=s)
    assert code.v == G.degree == (q ** n - 1) // (q - 1)
    assert code.k == (q ** s - 1) // (q - 1)
    assert len(code) == _gaussian_binomial(n, s, q)


def test_build_memoization_returns_same_objects():
    a = build("unital", q=3)
    b = build("unital", q=3)
    assert a[0] is b[0] and a[1] is b[1]


def test_build_memo_hands_out_frozen_codes():
    # a caller cannot change the notes or params of a memoized code, so
    # every later build sees the constructor's values
    code, _ = build("baer_subline", q0=3)
    with pytest.raises(AttributeError):
        code.notes.append("x")
    with pytest.raises(TypeError):
        code.params["q0"] = 4
    again, _ = build("baer_subline", q0=3)
    assert again.notes == (codes._BAER_NOTE,)
    assert dict(again.params) == {"q0": 3}


def test_build_errors():
    with pytest.raises(ConstructionError):
        build("no_such_family")
    with pytest.raises(ConstructionError):
        build("intransitive", v=8, u=8, k=3)
    with pytest.raises(ConstructionError):
        build("utype", a=3, b=2, line=9, k=2)
    with pytest.raises(ConstructionError):
        build("utype", a=3, b=2, line=1, k=4)  # k > a
    with pytest.raises(ConstructionError):
        build("utype", a=3, b=2, line=6, k=4)  # k must be odd
    with pytest.raises(ConstructionError):
        build("psl2_orbit", q=7)  # q = 3 mod 4
    with pytest.raises(ConstructionError):
        build("blowup", a=2, b=3, k0=1)  # b < 4
    with pytest.raises(ConstructionError):
        build("affine_subspace", n=2, q=3, s=2)  # s = n


# ---- intransitive family --------------------------------------------------------

def test_intransitive_variants():
    ca, _ = build("intransitive", v=8, u=5, k=3)
    assert len(ca) == comb(5, 3) and ca.params["variant"] == "a"
    cb, _ = build("intransitive", v=8, u=3, k=3)
    assert len(cb) == 1 and cb.params["variant"] == "b"
    cc, _ = build("intransitive", v=9, u=2, k=4)
    assert len(cc) == comb(7, 2) and cc.params["variant"] == "c"


def test_intransitive_transitivity_profile():
    # Stab(U) is neighbour-transitive in all three variants; only the
    # single-codeword variant (u = k) is strongly incidence-transitive.
    for (v, u, k), strong in [((8, 5, 3), False), ((8, 3, 3), True),
                              ((9, 2, 4), False)]:
        code, G = build("intransitive", v=v, u=u, k=k)
        rep = check_properties(code, G)
        assert rep.flags["neighbour_transitive"] is True, (v, u, k)
        assert rep.flags["strongly_incidence_transitive"] is strong, (v, u, k)
        ok, fails = check_theorem_consistency(code, G, report=rep)
        assert ok, fails


def test_intransitive_proper_subgroup_fails():
    # Sym(U) fixing the complement pointwise moves no points outside U, so it
    # cannot be transitive on the neighbour set.
    from ntcodes.perm import Permutation
    code, _ = build("intransitive", v=8, u=5, k=3)
    small = PermGroup(8, [Permutation(tuple(g.images) + (5, 6, 7))
                          for g in PermGroup.symmetric(5).generators])
    rep = check_properties(code, small)
    assert rep.flags["code_transitive"] is True
    assert rep.flags["neighbour_transitive"] is False
    assert "neighbour_transitive" in rep.witnesses


# ---- u-type family --------------------------------------------------------------

UTYPE_LINES = [
    ({"a": 3, "b": 2, "line": 1, "k": 2}, 1),
    ({"a": 3, "b": 2, "line": 1, "k": 3}, 3),  # k = a: codewords are parts
    ({"a": 3, "b": 2, "line": 2, "k": 4}, 1),
    ({"a": 2, "b": 3, "line": 3, "k": 3}, 1),
    ({"a": 2, "b": 3, "line": 4, "k": 4}, 1),
    ({"a": 3, "b": 3, "line": 5, "c": 2}, 1),
    ({"a": 3, "b": 2, "line": 6, "k": 3}, 1),
    ({"a": 2, "b": 4, "line": 7, "k": 3}, 1),
]


@pytest.mark.parametrize("params,delta", UTYPE_LINES)
def test_utype_gamma1_type_and_delta(params, delta):
    code, G = build("utype", **params)
    parts = geometry.partition_blocks(params["a"], params["b"])
    target, k = utype_target(**params)
    assert code.k == k
    assert all(u_type(w, parts) == target for w in code.codewords)
    g1_types = {tuple(sorted(t for t in u_type(m, parts) if t))
                for m in neighbour_set(code)}
    assert g1_types == {utype_gamma1_target(**params)}, params
    assert min_distance(code) == delta
    rep = check_properties(code, G)
    assert rep.flags["incidence_transitive"] is True, params


def outcome(builder, **params):
    """(v, k, codewords, name, params, notes) of builder's code, or the
    text of the ConstructionError it raises."""
    try:
        code, _ = builder(**params)
    except ConstructionError as exc:
        return str(exc)
    return (code.v, code.k, code.codewords, code.name, dict(code.params),
            code.notes)


def utype_by_scan(a, b, line, k=None, c=None):
    """build_utype as a scan of J(ab,k) by u_type."""
    if a < 2 or b < 2:
        raise ConstructionError("need a > 1 and b > 1")
    target, k = utype_target(a, b, line, k=k, c=c)
    parts = geometry.partition_blocks(a, b)
    words = [m for m in (all_ksubsets(a * b, k) if k >= 0 else [])
             if u_type(m, parts) == target]
    if not words:
        raise ConstructionError("type class is empty")
    return Code(a * b, k, words, name=f"utype(a={a},b={b},line={line},k={k})",
                params={"a": a, "b": b, "line": line, "k": k, "c": c}), None


def intransitive_by_combinations(v, u, k):
    """build_intransitive as three lists of combinations."""
    if not (0 < u < v) or not (2 <= k <= v - 2):
        raise ConstructionError("need 0 < u < v and 2 <= k <= v-2")
    if u > k:
        words, variant = [mask_of(c) for c in combinations(range(u), k)], "a"
    elif u == k:
        words, variant = [mask_of(range(u))], "b"
    else:
        words = [mask_of(range(u)) | mask_of(c)
                 for c in combinations(range(u, v), k - u)]
        variant = "c"
    return Code(v, k, words, name=f"intransitive(v={v},u={u},k={k})",
                params={"v": v, "u": u, "k": k, "variant": variant}), None


def recorded_sizes(monkeypatch):
    """The size that each codes._orbit_code call is given, in call order."""
    sizes = []
    orbit_code = codes._orbit_code

    def record(*args, size=None, **kw):
        sizes.append(size)
        return orbit_code(*args, size=size, **kw)

    monkeypatch.setattr(codes, "_orbit_code", record)
    return sizes


def test_utype_orbit_matches_the_scan(monkeypatch):
    # every a, b with ab <= 12, every line 1-8 and every k (c on line 5),
    # the absent one included: the same code or the same error text, and
    # the closed-form size checked before the walk is the code's size
    sizes = recorded_sizes(monkeypatch)
    cases = 0
    for a in range(1, 13):
        for b in range(1, 12 // a + 1):
            for line in range(1, 9):
                for x in [None] + list(range(-3, a * b + 3)):
                    params = {"a": a, "b": b, "line": line,
                              "c" if line == 5 else "k": x}
                    got = outcome(codes.build_utype, **params)
                    assert got == outcome(utype_by_scan, **params), params
                    if not isinstance(got, str):
                        assert sizes.pop() == len(got[2]), params
                        cases += 1
    assert cases > 100 and not sizes


def test_utype_line_5_accepts_k_equal_to_c_times_b():
    # any other k is a usage error (tests/test_cli.py)
    assert build("utype", a=3, b=3, line=5, c=2, k=6)[0] == build(
        "utype", a=3, b=3, line=5, c=2)[0]


def test_intransitive_orbit_matches_combinations(monkeypatch):
    sizes = recorded_sizes(monkeypatch)
    cases = 0
    for v in range(1, 11):
        for u in range(-1, v + 2):
            for k in range(-1, v + 2):
                params = {"v": v, "u": u, "k": k}
                got = outcome(codes.build_intransitive, **params)
                assert got == outcome(intransitive_by_combinations,
                                      **params), params
                if not isinstance(got, str):
                    assert sizes.pop() == len(got[2]), params
                    cases += 1
    assert cases > 100 and not sizes


@pytest.mark.parametrize("family,params", [
    *[("affine_subspace", {"n": n, "q": q, "s": s})
      for n, q in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (2, 5))
      for s in range(1, n)],
    *[("projective_subspace", {"n": n, "q": q, "s": s})
      for n, q in ((2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (3, 4))
      for s in range(1, n)],
    *[("psl2_orbit", {"q": q}) for q in (9, 13, 17, 25)],
    *[("baer_subline", {"q0": q0}) for q0 in (2, 3, 4, 5)],
    *[("unital", {"q": q}) for q in (2, 3, 4)]],
    ids=lambda x: x if isinstance(x, str) else
    ",".join(f"{k}={v}" for k, v in x.items()))
def test_closed_form_size_is_the_walked_size(monkeypatch, family, params):
    # the builder checks its closed form against the members it walks, so
    # each build here checks the formula on parameters beyond the catalog
    sizes = recorded_sizes(monkeypatch)
    code, _ = codes.FAMILIES[family][0](**params)
    assert sizes == [len(code)]


def test_a_wrong_closed_form_size_raises(monkeypatch):
    # a mutation of every family's size, one more or one less codeword,
    # is caught by the count of the walk's members
    orbit_code = codes._orbit_code
    for delta in (1, -1):
        def wrong(*args, size, **kw):
            return orbit_code(*args, size=size + delta, **kw)

        monkeypatch.setattr(codes, "_orbit_code", wrong)
        for family, params in CATALOG:
            with pytest.raises(ConstructionError,
                               match=r"the orbits have \d+ members, not"):
                codes.FAMILIES[family][0](**params)


# ---- blow-up family -------------------------------------------------------------

def test_blowup_delta_law_random():
    # delta of the blown-up code is a times delta of the inner code
    rng = random.Random(7)
    cases = 0
    while cases < 20:
        a = rng.choice([2, 3])
        b = rng.choice([4, 5, 6])
        k0 = rng.randint(1, b - 1)
        verts = all_ksubsets(b, k0)
        size = rng.randint(2, min(len(verts), 6))
        inner = Code(b, k0, rng.sample(verts, size))
        d0 = min_distance(inner)
        if d0 is None:
            continue
        blown = blowup_code(a, inner)
        assert blown.k == a * k0
        assert min_distance(blown) == a * d0
        cases += 1


def test_blowup_orbit_is_the_blowup_of_all_of_jbk0():
    # the S_a wr S_b-orbit of the first k0 blocks against the delta-law
    # construction from the listed vertex set of J(b,k0)
    for a in (2, 3):
        for b in (4, 5, 6):
            for k0 in range(1, b):
                code, _ = codes.build_blowup(a, b, k0)
                inner = Code(b, k0, all_ksubsets(b, k0), name=f"J({b},{k0})")
                oracle = blowup_code(a, inner)
                assert code == oracle
                assert (code.name, dict(code.params)) == (
                    oracle.name, dict(oracle.params))


def test_blowup_of_full_vertex_set_is_neighbour_transitive():
    code, G = build("blowup", a=2, b=5, k0=2)
    assert (code.v, code.k, len(code)) == (10, 4, comb(5, 2))
    rep = check_properties(code, G)
    assert rep.flags["neighbour_transitive"] is True
    assert rep.delta == 2


# ---- notable fixed constructions -------------------------------------------------

def test_subfield_line_profile():
    code, G = build("subfield_line")
    rep = check_properties(code, G)
    assert rep.delta == 3
    assert rep.flags["strongly_incidence_transitive"] is True
    assert rep.flags["completely_regular"] is True
    # a distance cell is bigger than |G| = 960, so one orbit cannot cover it
    assert rep.flags["completely_transitive"] is False


def test_hyperoval_profile():
    code, G = build("hyperoval_ag24")
    assert G.order() == 5760
    rep = check_properties(code, G)
    assert rep.delta == 3
    assert rep.flags["strongly_incidence_transitive"] is True
    # admissible window for k in the 16-point setting
    assert (16 + 2) / 3 <= code.k <= 2 * (16 - 1) / 3


def test_hyperoval_group_is_reduced():
    # the builder relabels the 7 generators of AGammaL(2,4); the external
    # line's stabilizer in PGammaL(3,4), the same group before restriction,
    # keeps only the Schreier generators that grow its group (126 distinct
    # ones before that rule)
    _, G = build("hyperoval_ag24")
    assert len(G.generators) <= 8
    assert G.order() == 5760
    _, _, ext, _ = geometry.hyperoval_setting()
    line_stab = geometry.group_generators("pgammal", n=3,
                                          q=4).setwise_stabilizer(ext)
    assert len(line_stab.generators) <= 8
    assert line_stab.order() == 5760


def _hyperoval_by_restriction():
    """(sorted codewords, group) of the hyperoval code built without the
    affine chart: the external line's stabilizer in PGammaL(3,4),
    restricted to the 16 points off the line, and the hyperoval's orbit
    under it."""
    _, hmask, ext, _ = geometry.hyperoval_setting()
    stab = geometry.group_generators("pgammal", n=3, q=4).setwise_stabilizer(
        ext, orbit_size=21)
    off = ((1 << 21) - 1) ^ ext
    H = geometry.restrict_group(stab, off)
    relabel = {p: i for i, p in enumerate(bits(off))}
    rep = mask_of(relabel[p] for p in bits(hmask))
    return sorted(H.subset_orbit(rep)), H


def test_hyperoval_group_is_the_line_stabilizer():
    # each group's generators lie in the other, on the same 16 labels
    code, G = build("hyperoval_ag24")
    words, H = _hyperoval_by_restriction()
    assert all(g in H for g in G.generators)
    assert all(h in G for h in H.generators)
    assert G.order() == H.order() == 5760
    assert len(words) == 48
    assert sorted(code.codewords) == words


def test_hyperoval_group_carries_its_order(monkeypatch):
    # built with neither a stabilizer walk nor a restriction, and its
    # known order is the one a whole closing of its generators reaches
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(perm.PermGroup, "setwise_stabilizer", refuse)
    monkeypatch.setattr(geometry, "restrict_group", refuse)
    _, G = codes.build_hyperoval_ag24()
    assert G.known_order == 5760
    assert PermGroup(16, G.generators).order() == 5760


def test_hyperoval_group_against_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    _, G = build("hyperoval_ag24")
    sym = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in G.generators])
    assert sym.order() == 5760


@pytest.mark.parametrize("family,params", [
    ("unital", {"q": 3}), ("unitary_bases", {}),
    ("affine_subspace", {"n": 3, "q": 3, "s": 1}),
    ("utype", {"a": 9, "b": 4, "line": 2, "k": 34})])
def test_codeword_stabilizer_against_sympy(family, params):
    # each of the first three G_gamma once came with 48-225 distinct
    # Schreier generators, and the u-type one, under wreath:9,4, has a deep
    # chain; the kept ones generate a group of sympy's order |G| / |orbit|,
    # and they fix gamma
    combinatorics = pytest.importorskip("sympy.combinatorics")
    code, G = build(family, **params)
    gamma = code.codewords[0]
    assert len(G.subset_orbit(gamma)) == len(code)
    S = G.setwise_stabilizer(gamma, orbit_size=len(code))
    assert len(S.generators) <= 8
    assert all(g.apply_mask(gamma) == gamma for g in S.generators)
    sym = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in S.generators])
    assert sym.order() == G.order() // len(code)


def test_baer_subline_k_and_note():
    code, G = build("baer_subline", q0=3)
    assert code.k == 3 + 1
    assert any("minimum distance" in n for n in code.notes)
    assert min_distance(code) == 2


def test_ovoid_is_3_design():
    from itertools import combinations
    code, _ = build("ovoid_circles")
    for triple in combinations(range(10), 3):
        tm = mask_of(triple)
        assert sum(1 for w in code.codewords if w & tm == tm) == 1


def test_psl2_orbit_flags():
    code, G = build("psl2_orbit", q=9)
    assert 2 * len(code) == comb(10, 3)
    rep = check_properties(code, G)
    assert rep.flags["code_transitive"] is True
    assert rep.flags["neighbour_transitive"] is True


def test_j93_profile():
    code, G = build("j93")
    rep = check_properties(code, G)
    # the group is transitive on the neighbour set but not on the code itself
    assert rep.flags["code_transitive"] is False
    assert "code_transitive" in rep.witnesses
    assert len(neighbour_set(code)) == 54


def test_unitary_bases_profile():
    code, G = build("unitary_bases")
    assert (code.v, code.k, len(code)) == (28, 12, 63)
    assert G.order() == 12096
    assert min_distance(code) == 6
    assert _first_orbit_pairs(code, G)[0]
    psu = geometry.group_generators("pgu", q=3)
    assert not _first_orbit_pairs(code, psu)[0]


def _first_orbit_pairs(code, G):
    """The pair test of _strong_pairs alone, on the orbit of the code's
    first codeword, without the flag's check that the code is one orbit."""
    quotient = johnson.OrbitQuotient(G, code.k, perm.DEFAULT_ORBIT_CAP)
    return codes._strong_pairs(
        codes._Facts(G, quotient, [quotient.orbit_of(code.codewords[0])]))


def _plain_strong_pairs(G, gamma):
    """The pair test with no orbit count: G_gamma, formed, transitive on
    (point of gamma) x (point outside gamma)."""
    inside = list(bits(gamma))
    outside = [x for x in range(G.degree) if not (gamma >> x) & 1]
    ok = G.setwise_stabilizer(gamma).is_transitive_on_product(inside,
                                                              outside)
    return ok, None if ok else ("pair action on gamma x complement splits",)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_strong_pairs_count_matches_the_pair_test(data):
    # the orbit-counting test that skips G_gamma must give the flag and
    # witness of the pair test on G_gamma, on single orbits
    n = data.draw(st.integers(2, 8), label="degree")
    perms = data.draw(st.lists(st.permutations(range(n)), min_size=1,
                               max_size=3), label="generators")
    G = PermGroup(n, [Permutation(p) for p in perms])
    k = data.draw(st.integers(1, n - 1), label="k")
    gamma = min(G.subset_orbit(mask_of(data.draw(
        st.sets(st.integers(0, n - 1), min_size=k, max_size=k),
        label="points"))))
    code = Code(n, k, G.subset_orbit(gamma))
    assert _first_orbit_pairs(code, G) == _plain_strong_pairs(G, gamma)


def test_strong_pairs_count_skips_the_stabilizer():
    # AGammaL(1,16) has order 960 and k(v-k) = 39 at k = 3, which divides
    # no |G_gamma|, so no stabilizer is formed; at k = 4 the subfield line
    # passes the count and its stabilizer is formed and tested
    G = geometry.group_generators("agammal", n=1, q=16)
    quotient = subset_orbits(G, 3)
    for i, orbit in enumerate(all_orbits(quotient)):
        facts = codes._Facts(G, quotient, [i])
        assert codes._strong_pairs(facts) == (
            False, ("pair action on gamma x complement splits",))
        assert "stabilizer" not in vars(facts)
        assert _plain_strong_pairs(G, orbit[0])[0] is False
    code, _ = build("subfield_line")
    quotient = subset_orbits(G, 4)
    facts = codes._Facts(G, quotient, quotient.orbits_of(code.codewords))
    assert codes._strong_pairs(facts) == (True, None)
    assert "stabilizer" in vars(facts)


def test_unitary_bases_codewords_unchanged():
    # the codeword list, in order, that construct writes and verify reads
    code, _ = build("unitary_bases")
    words = json.dumps(code.as_dict()["codewords"]).encode()
    assert hashlib.sha256(words).hexdigest() == (
        "37688c719383f6d3d0c43923a8ad05553eb03ffdcba9a27c6512e087b23f7c38")


def test_unitary_bases_stabilizer_is_4_squared_s3():
    # a codeword's stabilizer in PGU(3,3) is 4^2:S3, the normalizer of a
    # Z4 x Z4, with point orbits the 12 points and the other 16
    code, _ = build("unitary_bases")
    stab = geometry.group_generators("pgu", q=3).setwise_stabilizer(
        code.codewords[0])
    assert stab.order() == 96
    orbits = {frozenset(stab.orbit(x)) for x in range(28)}
    assert sorted(map(len, orbits)) == [12, 16]


def test_unitary_bases_guard_rejects_a_wrong_representative(monkeypatch):
    # with every point orthogonal to the triangle the representative is
    # all 28 points, not 12; the isotropic points stay as they are
    form = geometry.hermitian_form
    monkeypatch.setattr(geometry, "hermitian_form",
                        lambda F, x, y: form(F, x, y) if x == y else 0)
    with pytest.raises(ConstructionError):
        codes.build_unitary_bases()


def test_unitary_bases_are_three_unital_blocks():
    # each codeword is the union of the blocks polar to a self-polar
    # triangle's three points
    code, _ = build("unitary_bases")
    blocks = build("unital", q=3)[0].codewords
    for w in code.codewords:
        inside = [b for b in blocks if b & w == b]
        assert len(inside) == 3
        assert inside[0] | inside[1] | inside[2] == w


# ---- property machinery ----------------------------------------------------------

def test_check_properties_rejects_non_preserving_group():
    code, _ = build("subfield_line")
    with pytest.raises(ValueError):
        check_properties(code, PermGroup.symmetric(16))


def _one_orbit(G, items, image):
    """Reference BFS: is items a single orbit under image(g, item)?"""
    items = set(items)
    start = min(items)
    seen = {start}
    queue = [start]
    for x in queue:
        for g in G.generators:
            y = image(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen == items


def test_incidence_flag_matches_pair_orbit():
    # The flag is decided through the stabilizer of one codeword, which is
    # equivalent to one orbit on adjacent (codeword, neighbour) pairs for
    # single-orbit codes.  unitary_bases (63 x 12 x 16 pairs) is left out
    # for time; cap_partition=0 skips the distance partition, which this
    # flag does not use.
    checked = 0
    for family, params in CATALOG:
        code, G = build(family, **params)
        if (family == "unitary_bases" or not _one_orbit(
                G, code.codewords, lambda g, w: g.apply_mask(w))):
            continue
        gamma1 = neighbour_set(code)
        pairs = {(w, nb) for w in code.codewords
                 for nb in vertex_neighbours(w, code.v) if nb in gamma1}
        expected = _one_orbit(G, pairs, lambda g, p: (g.apply_mask(p[0]),
                                                      g.apply_mask(p[1])))
        rep = check_properties(code, G, cap_partition=0)
        assert rep.flags["incidence_transitive"] is expected, (family, params)
        checked += 1
    assert checked == 23


def test_report_as_dict_shape():
    code, G = build("subfield_line")
    d = check_properties(code, G).as_dict()
    for key in ("v", "k", "code_size", "min_distance", "group_order",
                "neighbour_set_size", "notes", "witnesses"):
        assert key in d
    for flag in codes.PropertyReport.FLAG_ORDER:
        assert d[flag] in (True, False, None)


def test_partition_cap_yields_none_flags_with_note():
    code, G = build("unital", q=4)
    rep = check_properties(code, G, cap_partition=10 ** 5)
    assert rep.flags["completely_regular"] is None
    assert rep.flags["completely_transitive"] is None
    assert any("cap" in n for n in rep.notes)


def test_orbit_cap_stops_the_fill_between_whole_orbits(monkeypatch):
    # J(12,6) under S_3 wr S_4 has orbits of 6, 216, 108, 108 and 486
    # vertices; at --cap-partition 461 the fill through a point, which
    # holds the 462 6-sets through a point, stops with no orbit found.  The
    # quotient then walks, on demand under --cap-orbit 300, the code's
    # orbit and Gamma_1's, 222 masks, and the flags that need only the
    # code and its neighbours are decided
    code, G = build("blowup", a=3, b=4, k0=2)
    quotients = []
    init = johnson.OrbitQuotient.__init__

    def recording_init(self, *args):
        init(self, *args)
        quotients.append(self)
    monkeypatch.setattr(johnson.OrbitQuotient, "__init__", recording_init)
    report = check_properties(code, G, cap_orbit=300,
                              cap_partition=461).as_dict()
    [quotient] = quotients
    assert [len(o) for o in all_orbits(quotient)] == [6, 216]
    moves = [g.apply_mask for g in G.generators]
    for i, orbit in enumerate(all_orbits(quotient)):
        whole = perm.schreier_orbit(orbit[0], moves)[0]
        assert orbit == tuple(sorted(whole))
        assert all(quotient.index[m] == i for m in orbit)
    assert len(quotient.index) == 222
    assert report == {
        "v": 12, "k": 6, "name": "blowup(a=3,J(4,2))", "code_size": 6,
        "neighbour_set_size": 216, "min_distance": 3, "degenerate": False,
        "group_order": 31104, "transitive_on_V": True,
        "primitive_on_V": False, "two_transitive_on_V": False,
        "code_transitive": True, "neighbour_transitive": True,
        "incidence_transitive": True, "strongly_incidence_transitive": True,
        "completely_transitive": None, "completely_regular": None,
        "witnesses": {},
        "notes": ["distance partition not computed: J(12,6) has 462 6-sets "
                  "through a point, over cap 461"]}


def test_delta_matches_the_pair_loop_on_catalog():
    # the report's delta against johnson.min_distance, the least distance
    # over every pair of codewords, on every CATALOG code and on its
    # complement under the same group
    for family, params in CATALOG:
        code, G = build(family, **params)
        for c in (code, complement_code(code)):
            assert (check_properties(c, G).delta
                    == min_distance(c)), (family, params, c.k)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_delta_matches_the_pair_loop_on_search_unions(data):
    # every union of at most two orbits that a search finds, on the groups
    # of three benchmark searches
    from ntcodes.cli import parse_group_spec
    G = parse_group_spec(data.draw(st.sampled_from(
        ["wreath:3,3", "agammal:1,16", "pgammau:3"]), label="group"))
    v = G.degree
    k = data.draw(st.sampled_from([k for k in range(1, v)
                                   if comb(v, k) <= 13000]), label="k")
    predicate = data.draw(st.sampled_from(sorted(PREDICATES)),
                          label="predicate")
    max_union = data.draw(st.integers(1, 2), label="max_union")
    for code in classify_search(G, k, predicate, max_union=max_union):
        assert check_properties(code, G).delta == min_distance(code)


COMPLEMENT_INVARIANT = ("code_size", "neighbour_set_size", "min_distance",
                        "intersection_numbers",
                        *codes.PropertyReport.FLAG_ORDER)


def test_report_is_invariant_under_complementation():
    # x -> V \ x is an isomorphism J(v,k) -> J(v,v-k) that commutes with
    # every permutation of V, so the complement code under the same group
    # has the same flags, sizes and intersection numbers; the orbits are
    # walked at k and at v-k
    checked = 0
    for family, params in CATALOG:
        code, G = build(family, **params)
        if comb(code.v, code.k) > johnson.DEFAULT_PARTITION_CAP:
            continue
        before = check_properties(code, G).as_dict()
        after = check_properties(johnson.complement_code(code), G).as_dict()
        for key in COMPLEMENT_INVARIANT:
            assert after.get(key) == before.get(key), (family, params, key)
        checked += 1
    assert checked == len(CATALOG) - 1  # all but unitary_bases, J(28,12)


def test_theorem_consistency_over_catalog():
    for family, params in CATALOG:
        code, G = build(family, **params)
        ok, failures = check_theorem_consistency(code, G)
        assert ok, (family, params, failures)


# The searches of the benchmark's search_orbits and search_regular
# workloads: (group spec, k, predicate, max_union).
BENCH_SEARCHES = (
    [("wreath:3,3", 3, "neighbour_transitive", 2),
     ("wreath:3,3", 3, "gamma1_transitive", 2)]
    + [("agammal:1,16", k, "strongly_incidence_transitive", 1)
       for k in (2, 3, 4, 5, 6, 7, 8, 12)]
    + [("pgammau:3", 4, "strongly_incidence_transitive", 1),
       ("pgammau:3", 4, "neighbour_transitive", 1),
       ("agammal:1,16", 4, "completely_regular", 2),
       ("pgammau:3", 3, "completely_regular", 1),
       ("pgammau:3", 4, "completely_regular", 1)])


def test_theorem_consistency_over_search_results():
    from ntcodes.cli import parse_group_spec
    found = 0
    for spec, k, predicate, max_union in BENCH_SEARCHES:
        G = parse_group_spec(spec)
        for code in classify_search(G, k, predicate, max_union=max_union):
            assert not code.degenerate
            ok, failures = check_theorem_consistency(code, G)
            assert ok, (spec, k, predicate, code.name, failures)
            found += 1
    assert found == 17


def test_theorem_consistency_detects_forged_flags():
    code, G = build("subfield_line")
    rep = check_properties(code, G)
    rep.flags["incidence_transitive"] = False
    ok, failures = check_theorem_consistency(code, G, report=rep)
    assert not ok and failures


def test_intersection_numbers_reported_for_completely_regular():
    code, G = build("intransitive", v=8, u=5, k=3)
    rep = check_properties(code, G)
    assert rep.flags["completely_regular"] is True
    assert rep.intersection_numbers is not None
    for row in rep.intersection_numbers:
        assert sum(row) == code.k * (code.v - code.k)


# ---- orbit quotient against the vertex-level oracle -----------------------------

ORBIT_FLAGS = ("code_transitive", "gamma1_transitive", "neighbour_transitive",
               "incidence_transitive")


def transitive_with_witness(G, masks):
    """(True, None) or (False, witness) from PermGroup.transitive_witness."""
    witness = G.transitive_witness(masks)
    return witness is None, witness


def vertex_partition_flags(code, G):
    """Both partition flags as the vertex engine decides them: the distance
    partition of every vertex, a transitivity test on each cell and
    johnson.equitable_matrix."""
    part = johnson.distance_partition(code)
    transitive = (True, None)
    for cell in part.cells:
        ok, wit = transitive_with_witness(G, cell)
        if not ok:
            transitive = (False, wit)
            break
    return part, transitive, johnson.equitable_matrix(part, code.v)


def vertex_orbit_flags(code, G):
    """The four orbit flags and the size of Gamma_1 as the vertex engine
    decides them: neighbour_set, a Schreier search per mask set, and G_gamma
    from PermGroup.setwise_stabilizer alone."""
    gamma1 = neighbour_set(code)
    code_orbit = transitive_with_witness(G, code.codewords)
    gamma1_orbit = (transitive_with_witness(G, gamma1) if gamma1
                    else (False, ("neighbour set is empty",)))
    incidence = (False, ("code is not a single orbit",))
    if code_orbit[0]:
        gamma = code.codewords[0]
        local = vertex_neighbours(gamma, code.v) & gamma1
        incidence = (transitive_with_witness(G.setwise_stabilizer(gamma),
                                             local)
                     if local else (True, None))
    flags = {"code_transitive": code_orbit,
             "gamma1_transitive": gamma1_orbit,
             "neighbour_transitive": (gamma1_orbit if code_orbit[0] and gamma1
                                      else code_orbit),
             "incidence_transitive": incidence}
    return flags, gamma1


def quotient_partition_flags(code, G, quotient):
    """The partition flags on the quotient, and the cells and the
    equitability that OrbitQuotient.partition gives."""
    facts = codes._Facts(G, quotient, quotient.orbits_of(code.codewords))
    cells, *regular = facts.partition
    return (cells, codes.FLAGS["completely_transitive"](facts),
            codes.FLAGS["completely_regular"](facts), tuple(regular))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_orbit_quotient_matches_vertex_engine(data):
    n = data.draw(st.integers(3, 8), label="degree")
    perms = data.draw(st.lists(st.permutations(range(n)), min_size=1,
                               max_size=3), label="generators")
    G = PermGroup(n, [Permutation(p) for p in perms])
    k = data.draw(st.integers(1, n - 1), label="k")
    quotient = subset_orbits(G, k)
    orbits = all_orbits(quotient)
    chosen = data.draw(st.sets(st.integers(0, len(orbits) - 1), min_size=1),
                       label="union")
    code = Code(n, k, [m for i in chosen for m in orbits[i]])
    assert quotient.orbits_of(code.codewords) == sorted(chosen)

    part, transitive, regular = vertex_partition_flags(code, G)
    cells, q_transitive, q_regular, q_regularity = quotient_partition_flags(
        code, G, quotient)
    check_quotient_cells(quotient, cells, q_regularity, part.cells)
    assert q_transitive == transitive
    assert q_regularity == regular
    assert q_regular == (regular[0], None if regular[0] else regular[1])

    # the orbit flags, with their witnesses, and the size of Gamma_1 on the
    # whole quotient and on one that finds the orbits it needs on demand
    expected, gamma1 = vertex_orbit_flags(code, G)
    on_demand = johnson.OrbitQuotient(G, k, comb(n, k))
    for q in (quotient, on_demand):
        facts = codes._Facts(G, q, q.orbits_of(code.codewords))
        for flag in ORBIT_FLAGS:
            assert codes.FLAGS[flag](facts) == expected[flag], flag
        assert facts.gamma1_size == len(gamma1)
    # on demand, only the orbits of the code and of its neighbours are found
    assert set(on_demand.index) == set(code.codewords) | gamma1


@pytest.mark.parametrize("spec,cells,oracle_cells,unequal", [
    # the first cell is unequal: the pass stops two cells in, of four
    ("stab:8:0,1,2,3", 2, 4, 0),
    # the first cell is split but equal, so completely_transitive's
    # witness comes from cell 0 and completely_regular's from cell 1
    ("agammal:1,16", 3, 3, 1),
])
def test_partition_stops_at_the_first_unequal_cell(spec, cells, oracle_cells,
                                                   unequal):
    from ntcodes.cli import parse_group_spec
    G = parse_group_spec(spec)
    quotient = subset_orbits(G, 4)
    chosen = (0, 1)
    code = Code(G.degree, 4, [m for o in quotient.members(chosen) for m in o])
    part, transitive, regular = vertex_partition_flags(code, G)
    found, q_transitive, q_regular, q_regularity = quotient_partition_flags(
        code, G, quotient)
    assert (len(found), len(part.cells)) == (cells, oracle_cells)
    check_quotient_cells(quotient, found, q_regularity, part.cells)
    assert q_regularity == regular
    assert regular[0] is False and regular[1][0] == unequal
    assert q_regular == regular
    assert transitive[0] is False and q_transitive == transitive
    assert len(part.cells[0]) > 1


def test_orbit_flags_match_vertex_path_on_catalog():
    # a cap_partition one below the k-sets the fill holds, |X| = C(v-1,k-1)
    # or C(v-1,k) through a point for a transitive G and C(v,k) otherwise,
    # decides every orbit flag on a quotient that holds only the orbits
    # reached from the code; all but the partition flags, their witnesses
    # and the notes must agree
    partition_keys = ("completely_transitive", "completely_regular")
    for family, params in CATALOG:
        code, G = build(family, **params)
        v, k = code.v, code.k
        held = (comb(v - 1, k - (2 * k <= v)) if G.is_transitive()
                else comb(v, k))
        default = check_properties(code, G).as_dict()
        vertex = check_properties(code, G, cap_partition=held - 1).as_dict()
        assert vertex["completely_regular"] is None, (family, params)
        for d in (default, vertex):
            for key in partition_keys:
                d.pop(key)
                d["witnesses"].pop(key, None)
            d.pop("intersection_numbers", None)
            d.pop("notes")
        assert default == vertex, (family, params)


def test_orbit_quotient_matches_vertex_engine_on_catalog():
    for family, params in CATALOG:
        code, G = build(family, **params)
        rep = check_properties(code, G)
        if comb(code.v, code.k) > johnson.DEFAULT_PARTITION_CAP:
            assert rep.flags["completely_transitive"] is None
            assert rep.flags["completely_regular"] is None
            continue
        _, transitive, regular = vertex_partition_flags(code, G)
        label = (family, params)
        assert rep.flags["completely_transitive"] == transitive[0], label
        assert rep.witnesses.get("completely_transitive") == transitive[1]
        assert rep.flags["completely_regular"] == regular[0], label
        if regular[0]:
            assert rep.intersection_numbers == regular[1], label
            assert "completely_regular" not in rep.witnesses
        else:
            assert rep.intersection_numbers is None
            assert rep.witnesses["completely_regular"] == regular[1], label


RELABEL_INVARIANT = ("code_size", "neighbour_set_size", "min_distance",
                     "group_order", "transitive_on_V", "primitive_on_V",
                     "two_transitive_on_V", "intersection_numbers",
                     *codes.PropertyReport.FLAG_ORDER)


@pytest.mark.parametrize("family,params", CATALOG,
                         ids=["-".join([f] + [f"{k}{v}" for k, v in p.items()])
                              for f, p in CATALOG])
def test_report_is_invariant_under_relabelling(family, params):
    # conjugating G and mapping the code by one relabelling of the points
    # sends orbits to orbits, so every flag, size and intersection number
    # stays; the witnesses are relabelled, so they are not compared
    code, G = build(family, **params)
    sigma = list(range(code.v))
    random.Random(f"relabel:{family}:{params}").shuffle(sigma)
    images = []
    for g in G.generators:
        img = [0] * code.v
        for x, gx in enumerate(g.images):
            img[sigma[x]] = sigma[gx]
        images.append(Permutation(img))
    moved = Code(code.v, code.k,
                 [mask_of(sigma[x] for x in bits(w)) for w in code.codewords])
    before = check_properties(code, G).as_dict()
    after = check_properties(moved, PermGroup(code.v, images)).as_dict()
    for key in RELABEL_INVARIANT:
        assert after.get(key) == before.get(key), key


# ---- classification search -------------------------------------------------------

def test_subset_orbits_partition_vertices():
    G = geometry.wreath_stabilizer(3, 3)
    orbits = all_orbits(subset_orbits(G, 3))
    assert sum(len(o) for o in orbits) == comb(9, 3)
    seen = set()
    for o in orbits:
        assert not (set(o) & seen)
        seen |= set(o)


def burnside_counts(G):
    """The number of G-orbits on k-subsets for every k, by Burnside's
    lemma: the mean over the elements g of the coefficient of x^k in the
    product over g's cycles (fixed points included) of 1 + x^length."""
    n = G.degree
    totals = [0] * (n + 1)
    for g in G.elements():
        poly = [1] + [0] * n
        seen = [False] * n
        for x in range(n):
            length = 0
            while not seen[x]:
                seen[x] = True
                x = g.images[x]
                length += 1
            if length:
                for i in range(n, length - 1, -1):
                    poly[i] += poly[i - length]
        totals = [t + c for t, c in zip(totals, poly)]
    assert all(t % G.order() == 0 for t in totals)
    return [t // G.order() for t in totals]


def test_subset_orbit_counts_match_burnside():
    # every distinct CATALOG group, every k with C(v,k) within 25,000
    groups = {}
    for family, params in CATALOG:
        _, G = build(family, **params)
        groups.setdefault(tuple(g.images for g in G.generators), G)
    pairs = 0
    for G in groups.values():
        counts = burnside_counts(G)
        for k in range(G.degree + 1):
            if comb(G.degree, k) <= 25_000:
                assert len(subset_orbits(G, k).reps) == counts[k], (G, k)
                pairs += 1
    assert pairs > 100


def test_search_sym6_k3_finds_nothing():
    # the full symmetric group has a single orbit, the whole vertex set
    found = classify_search(PermGroup.symmetric(6), 3, "neighbour_transitive")
    assert found == []


def test_search_wreath33_neighbour_transitive():
    G = geometry.wreath_stabilizer(3, 3)
    found = classify_search(G, 3, "neighbour_transitive", max_union=2)
    parts = geometry.partition_blocks(3, 3)
    transversals = sorted(m for m in all_ksubsets(9, 3)
                          if u_type(m, parts) == (1, 1, 1))
    expected = {tuple(sorted(parts)), tuple(transversals)}
    assert {tuple(c.codewords) for c in found} == expected


def test_search_gamma1_transitive_includes_j93():
    G = geometry.wreath_stabilizer(3, 3)
    found = classify_search(G, 3, "gamma1_transitive", max_union=2)
    j93, _ = build("j93")
    assert j93.codewords in [c.codewords for c in found]


def test_search_strong_agammal16():
    G = geometry.group_generators("agammal", n=1, q=16)
    sub, _ = build("subfield_line")
    for k in range(2, 9):
        found = classify_search(G, k, "strongly_incidence_transitive")
        if k == 4:
            assert [c.codewords for c in found] == [sub.codewords]
        else:
            assert found == [], k


def test_search_decides_partition_flags_past_the_partition_cap(monkeypatch):
    # search bounds its fill by its own cap, so its partition flags never
    # meet the partition cap of verify: with that cap below the fill, where
    # verify leaves both flags None, search still finds the orbits that
    # verify finds within the cap, and fills under the search cap alone
    G = geometry.group_generators("agammal", n=1, q=16)
    orbits = all_orbits(subset_orbits(G, 4))
    flags = ("completely_regular", "completely_transitive")
    expected = {name: [o for o in orbits
                       if check_properties(Code(16, 4, o), G).flags[name]]
                for name in flags}
    sub, _ = build("subfield_line")
    assert sub.codewords in expected["completely_regular"]
    assert sub.codewords not in expected["completely_transitive"]

    # the fill through a point holds the C(15,3) = 455 4-sets through it
    below = check_properties(Code(16, 4, sub.codewords), G, cap_partition=454)
    assert [below.flags[name] for name in flags] == [None, None]
    caps = []
    fill = johnson.OrbitQuotient.fill

    def recording_fill(self, cap):
        caps.append(cap)
        return fill(self, cap)
    monkeypatch.setattr(johnson.OrbitQuotient, "fill", recording_fill)
    for name in flags:
        found = classify_search(G, 4, name)
        assert ([c.codewords for c in found]
                == sorted(expected[name], key=lambda o: (len(o), o))), name
    assert caps == [perm.DEFAULT_ORBIT_CAP] * len(flags)


def test_verify_past_the_partition_cap_finds_only_the_orbits_it_needs(
        monkeypatch):
    # J(28,12) has 30,421,755 vertices; the flags of unitary_bases need the
    # code's one orbit and the one orbit of its neighbour set
    code, G = build("unitary_bases")
    quotients = []
    init = johnson.OrbitQuotient.__init__

    def recording_init(self, *args):
        init(self, *args)
        quotients.append(self)

    def enumerate_all(v, k):
        raise AssertionError(f"J({v},{k}) enumerated")
    monkeypatch.setattr(johnson.OrbitQuotient, "__init__", recording_init)
    monkeypatch.setattr(johnson, "all_ksubsets", enumerate_all)
    rep = check_properties(code, G)
    assert [[len(o) for o in all_orbits(q)] for q in quotients] \
        == [[63, 12096]]
    assert rep.gamma1_size == 12096
    assert rep.flags["completely_regular"] is None


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        classify_search(PermGroup.symmetric(5), 2, "no_such_predicate")
    with pytest.raises(ValueError):
        classify_search(PermGroup.symmetric(5), 2, "strong", max_union=4)


def test_search_caps_the_unions_it_tests():
    # the trivial group on 5 points has 10 orbits on 2-sets: 10 + 45 = 55
    # unions of at most 2, and 10 + 45 + 120 = 175 of at most 3
    G = PermGroup(5, [])
    assert len(classify_search(G, 2, "code_transitive", max_union=2,
                               cap=55)) == 10
    with pytest.raises(ResourceCapError, match="55 unions of at most 2 of "
                       "10 orbits exceed cap 54"):
        classify_search(G, 2, "code_transitive", max_union=2, cap=54)
    with pytest.raises(ResourceCapError, match="^175 unions"):
        classify_search(G, 2, "code_transitive", max_union=3, cap=174)
    # on J(5,5) the one orbit is the whole vertex set: one union, skipped
    assert classify_search(G, 5, "code_transitive", max_union=3, cap=1) == []


def test_orbit_flags_refuse_a_code_that_is_not_a_union_of_orbits():
    # read off the quotient, part of one orbit would pass for one orbit;
    # the quotient finds the orbit of the one mask on demand
    quotient = johnson.OrbitQuotient(PermGroup.symmetric(5), 2, 10)
    with pytest.raises(johnson.JohnsonError, match="union of orbits"):
        quotient.orbits_of([mask_of([0, 1])])
    assert [len(o) for o in all_orbits(quotient)] == [10]


def test_predicate_table_is_complete():
    for name in ("code_transitive", "neighbour_transitive",
                 "gamma1_transitive", "incidence_transitive",
                 "strongly_incidence_transitive", "strong",
                 "completely_regular", "completely_transitive"):
        assert name in PREDICATES

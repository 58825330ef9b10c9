"""Johnson graph layer tests."""

import random
import re
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ntcodes import codes as codes_mod
from ntcodes import johnson
from ntcodes.johnson import (Code, JohnsonError, all_ksubsets, complement_code,
                             distance_partition, is_completely_regular,
                             min_distance, neighbour_set, u_type,
                             vertex_neighbours)
from ntcodes.perm import (PermGroup, Permutation, ResourceCapError, bits,
                          mask_of)
from test_perm import KNOWN_ORDER_GRID


def bfs_distances(v, k, start):
    """Brute-force BFS oracle over all of J(v,k)."""
    dist = {start: 0}
    queue = [start]
    for m in queue:
        for nb in vertex_neighbours(m, v):
            if nb not in dist:
                dist[nb] = dist[m] + 1
                queue.append(nb)
    return dist


@pytest.mark.parametrize("v,k", [(7, 3), (8, 4)])
def test_jdistance_equals_bfs(v, k):
    # the distance k - |a & b| that min_distance reads off a pair of
    # codewords is the graph distance
    verts = all_ksubsets(v, k)
    for a in verts:
        dist = bfs_distances(v, k, a)
        for b in verts:
            assert k - (a & b).bit_count() == dist[b]
            if b != a:
                assert min_distance(Code(v, k, [a, b])) == dist[b]


def test_neighbour_count_random():
    rng = random.Random(5)
    for _ in range(200):
        v = rng.randint(3, 14)
        k = rng.randint(1, v - 1)
        gamma = mask_of(rng.sample(range(v), k))
        assert len(vertex_neighbours(gamma, v)) == k * (v - k)


def test_neighbour_symmetry_j63():
    verts = all_ksubsets(6, 3)
    for a in verts:
        for b in vertex_neighbours(a, 6):
            assert a in vertex_neighbours(b, 6)


def test_all_ksubsets_ascending():
    for v in range(10):
        for k in range(v + 1):
            assert all_ksubsets(v, k) == sorted(
                mask_of(c) for c in combinations(range(v), k)), (v, k)


def test_neighbour_set_examples():
    # all 3-subsets of a 5-set inside 8 points: neighbours meet it in 2 points
    code, _ = codes_mod.build("intransitive", v=8, u=5, k=3)
    umask = mask_of(range(5))
    for nb in neighbour_set(code):
        assert bin(nb & umask).count("1") == 2
    single = Code(6, 3, [mask_of([0, 1, 2])])
    assert neighbour_set(single) == vertex_neighbours(mask_of([0, 1, 2]), 6)


def test_neighbour_set_j93():
    code, _ = codes_mod.build("j93")
    g1 = neighbour_set(code)
    assert len(g1) == 54  # 84 - 3 - 27
    from ntcodes.geometry import partition_blocks
    parts = partition_blocks(3, 3)
    assert {u_type(m, parts) for m in g1} == {(1, 2)}


def test_neighbour_set_is_union_of_balls_when_delta_ge_2():
    code, _ = codes_mod.build("affine_subspace", n=3, q=2, s=2)
    assert min_distance(code) >= 2
    union = set()
    for w in code.codewords:
        union |= vertex_neighbours(w, code.v)
    assert neighbour_set(code) == union - set(code.codewords)


def test_min_distance():
    assert min_distance(Code(6, 3, [mask_of([0, 1, 2])])) is None
    code, _ = codes_mod.build("unital", q=3)
    assert min_distance(code) == 3
    code2, _ = codes_mod.build("ovoid_circles")
    assert min_distance(code2) == 2


def test_distance_partition_covering_index():
    code, _ = codes_mod.build("intransitive", v=8, u=5, k=3)
    part = distance_partition(code)
    assert part.covering_index == min(3, 8 - 5) + 1
    total = sum(len(c) for c in part.cells)
    assert total == comb(8, 3)
    # every vertex in cell i is at distance exactly i from the code
    for i, cell in enumerate(part.cells):
        m = min(cell)
        assert min(code.k - (m & w).bit_count()
                   for w in code.codewords) == i


def test_distance_partition_full_vertex_set():
    code = Code(5, 2, all_ksubsets(5, 2))
    assert code.degenerate
    assert distance_partition(code).covering_index == 1


def test_distance_partition_cap():
    code, _ = codes_mod.build("unital", q=4)
    with pytest.raises(ResourceCapError):
        distance_partition(code, cap=10 ** 6)


def test_distance_partition_group_invariant():
    code, G = codes_mod.build("utype", a=3, b=3, line=5, c=2)
    part = distance_partition(code)
    for cell in part.cells:
        for g in G.generators:
            assert {g.apply_mask(m) for m in cell} == cell


def test_completely_regular_single_codeword():
    code = Code(6, 3, [mask_of([0, 1, 2])])
    ok, matrix = is_completely_regular(code)
    assert ok
    assert all(sum(row) == 3 * 3 for row in matrix)


def test_completely_regular_strength_zero():
    for (v, u, k) in [(8, 3, 3), (8, 5, 3), (9, 2, 4)]:
        code, _ = codes_mod.build("intransitive", v=v, u=u, k=k)
        ok, matrix = is_completely_regular(code)
        assert ok, (v, u, k)


def test_not_completely_regular_witness():
    # a lopsided two-word code: the violation comes with a witness tuple
    code = Code(6, 3, [mask_of([0, 1, 2]), mask_of([0, 1, 3])])
    ok, witness = is_completely_regular(code)
    if not ok:
        i, j, m1, m2, c1, c2 = witness
        assert c1 != c2


def test_orbit_quotient_of_trivial_group_is_the_graph():
    # one orbit per vertex: the rows are the adjacency of J(6,3) itself;
    # the walk of J(6,3) holds its 20 vertices, and members lists them
    v, k = 6, 3
    quotient = johnson.OrbitQuotient(PermGroup(v, []), k, 20).fill(20)
    orbits = quotient.members(range(len(quotient.reps)))
    assert orbits == [(m,) for m in all_ksubsets(v, k)]
    for i, (m,) in enumerate(orbits):
        row = quotient.row(i)
        assert set(row.values()) == {1}
        assert {orbits[j][0] for j in row} == vertex_neighbours(m, v)
    code = Code(v, k, [mask_of([0, 1, 2]), mask_of([0, 1, 3])])
    cells, *regular = quotient.partition(quotient.orbits_of(code.codewords))
    check_quotient_cells(quotient, cells, regular,
                         distance_partition(code).cells)
    assert tuple(regular) == is_completely_regular(code)


def test_orbit_quotient_rejects_a_code_that_splits_an_orbit():
    # two of the ten 2-subsets, on the whole quotient of J(5,2) by Sym(5)
    v, k = 5, 2
    quotient = johnson.OrbitQuotient(PermGroup.symmetric(v), k, 10).fill(10)
    assert quotient.reps == [all_ksubsets(v, k)[0]]
    assert quotient.members([0]) == [tuple(all_ksubsets(v, k))]
    with pytest.raises(JohnsonError, match="union of orbits"):
        quotient.orbits_of([mask_of([0, 1]), mask_of([2, 3])])


def _is_transitive(G):
    """Whether G moves point 0 to every point, by a closure over the
    generators' images."""
    reached, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for g in G.generators:
            y = g.images[x]
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return len(reached) == G.degree


def _union_find_orbits(G, k):
    """The orbits of G on the k-subsets, by a union-find of J(v,k) under
    each generator's apply_mask: sorted tuples, ascending by smallest
    member.  For 2k > v they are the complements of the orbits on the
    (v-k)-subsets, which apply_mask walks in fewer steps."""
    if 2 * k > G.degree:
        full = (1 << G.degree) - 1
        return sorted(tuple(sorted(full ^ m for m in o))
                      for o in _union_find_orbits(G, G.degree - k))
    parent = {m: m for m in all_ksubsets(G.degree, k)}

    def find(m):
        while parent[m] != m:
            parent[m] = parent[parent[m]]
            m = parent[m]
        return m

    for g in G.generators:
        for m in parent:
            a, b = find(m), find(g.apply_mask(m))
            parent[max(a, b)] = min(a, b)
    orbits = {}
    for m in parent:
        orbits.setdefault(find(m), []).append(m)
    return [tuple(sorted(o)) for _, o in sorted(orbits.items())]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fill_matches_union_find(data):
    # the one-pass fill against a union-find, at degrees on both sides of
    # each chunk edge and of the table degree bound; an orbit cap between
    # the orbit sizes stops the walk of J(v,k), and index then holds
    # exactly the members of the orbits found before the one over the cap.
    # A fill through a point, for a group transitive on the points with
    # 0 < k < v, walks no orbit and finds them all.  members then lists
    # each orbit within the cap and refuses each one over it
    v = data.draw(st.sampled_from([1, 11, 12, 22, 23, 33, 34, 64, 65]),
                  label="degree")
    k = data.draw(st.sampled_from([k for k in range(v + 1)
                                   if comb(v, k) <= 6000]), label="k")
    gens = []
    for _ in range(data.draw(st.integers(0, 3), label="ngens")):
        support = data.draw(st.lists(st.integers(0, v - 1), unique=True,
                                     max_size=6), label="support")
        shuffled = data.draw(st.permutations(support), label="shuffled")
        images = list(range(v))
        for x, y in zip(support, shuffled):
            images[x] = y
        gens.append(Permutation(images))
    G = PermGroup(v, gens)
    expected = _union_find_orbits(G, k)
    cap = data.draw(st.integers(1, max(map(len, expected))), label="cap")
    quotient = johnson.OrbitQuotient(G, k, cap)
    through = 0 < k < v and _is_transitive(G)
    try:
        quotient.fill(10 ** 6)
    except ResourceCapError as exc:
        assert str(exc) == f"orbit exceeds cap {cap}" and not through
        first_over = next(i for i, o in enumerate(expected) if len(o) > cap)
        expected = expected[:first_over]
    else:
        assert through or max(map(len, expected)) <= cap
    assert quotient.reps == [o[0] for o in expected]
    assert quotient.sizes == [len(o) for o in expected]
    assert quotient.index == ({} if through else {
        m: i for i, o in enumerate(expected) for m in o})
    for i, o in enumerate(expected):
        if len(o) > cap:
            with pytest.raises(ResourceCapError, match=(
                    f"^the orbits asked for have {len(o)} members, "
                    f"over cap {cap}$")):
                quotient.members([i])
        else:
            assert quotient.members([i]) == [o]


@pytest.mark.parametrize("v,k", [(0, 0), (1, 0), (1, 1), (5, 0), (5, 2),
                                 (6, 6), (4, 5), (9, 4)])
def test_ksubsets_ascending_lists_all_ksubsets(v, k):
    assert list(johnson.ksubsets_ascending(v, k)) == all_ksubsets(v, k)


def _assert_orbits(quotient, expected):
    """quotient holds the orbits expected, sorted tuples ascending by
    smallest member: numbers, reps, sizes, orbit_of of every vertex, and
    the members it lists."""
    assert quotient.reps == [o[0] for o in expected]
    assert quotient.sizes == [len(o) for o in expected]
    assert all(quotient.orbit_of(m) == i
               for i, o in enumerate(expected) for m in o)
    assert quotient.members(range(len(expected))) == expected


@pytest.mark.parametrize("spec,k,paired", [
    ("pgammau:3", 4, True),    # C(28,4) * 4 images saved: the pair walks
    ("pgammau:3", 3, False),   # C(28,3) * 4: G walks itself
    ("pgammal:3,4", 4, True),
    ("pgammal:3,4", 2, False),
    ("wreath:3,4", 6, False),
])
def test_fill_by_the_pair_matches_union_find(spec, k, paired):
    # these groups are transitive, so fill() walks no orbit: it fills
    # through a point.  members then walks every orbit with
    # G.subset_walker sized to all C(v,k) vertices, a generating pair of G
    # on one side of the size rule and G itself on the other, and lists
    # G's orbits against a union-find on G's own generators
    from ntcodes.cli import parse_group_spec
    G = parse_group_spec(spec)
    quotient = johnson.OrbitQuotient(G, k, 10 ** 6).fill(10 ** 6)
    assert quotient._through is not None and quotient.index == {}
    _assert_orbits(quotient, _union_find_orbits(G, k))
    assert (G.subset_walker(quotient.size) is not G) == paired


@pytest.mark.parametrize("v,points,k", [(8, "6,7", 3), (9, "8", 4),
                                        (7, "0,1,2,3,4,5,6", 3)])
def test_fill_scans_to_the_last_orbit(v, points, k):
    # a trivial group's last orbit is the last k-subset, and the orbits of
    # a stabilizer of the top points start late in the scan
    from ntcodes.cli import parse_group_spec
    for G in (parse_group_spec(f"stab:{v}:{points}"), PermGroup(v, [])):
        quotient = johnson.OrbitQuotient(G, k, 10 ** 6).fill(10 ** 6)
        _assert_orbits(quotient, _union_find_orbits(G, k))


@pytest.mark.parametrize("spec,k", [
    ("pgammau:3", 1), ("pgammau:3", 2), ("pgammau:3", 4), ("pgammau:3", 26),
    ("pgammau:3", 27),
    ("pgammal:3,4", 1), ("pgammal:3,4", 3), ("pgammal:3,4", 18),
    ("pgammal:3,4", 20),
    ("agammal:1,16", 1), ("agammal:1,16", 7), ("agammal:1,16", 8),
    ("agammal:1,16", 9), ("agammal:1,16", 15),
    ("wreath:3,4", 0), ("wreath:3,4", 1), ("wreath:3,4", 5),
    ("wreath:3,4", 6), ("wreath:3,4", 7), ("wreath:3,4", 11),
    ("wreath:3,4", 12),
    ("stab:9:0,1,2", 1), ("stab:9:0,1,2", 4), ("stab:9:0,1,2", 5),
    ("stab:9:0,1,2", 8),
    ("stab:7:0,1,2,3,4,5,6", 3), ("stab:7:0,1,2,3,4,5,6", 4),
])
def test_fill_through_a_point_matches_union_find(spec, k):
    # k = 1, k = v - 1 and both sides of 2k = v, for transitive groups,
    # which fill through a point, and for stab:9:0,1,2, which is not
    # transitive and walks J(v,k); k = 0 and k = v walk J(v,k) too
    from ntcodes.cli import parse_group_spec
    G = parse_group_spec(spec)
    quotient = johnson.OrbitQuotient(G, k, 10 ** 6).fill(10 ** 6)
    assert (quotient._through is not None) == (
        0 < k < G.degree and G.is_transitive())
    _assert_orbits(quotient, _union_find_orbits(G, k))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fill_through_a_point_on_random_groups(data):
    # random groups, mostly transitive, of degree 2..9, against the
    # union-find on their own generators
    n = data.draw(st.integers(2, 9), label="degree")
    perms = data.draw(st.lists(st.permutations(range(n)), min_size=1,
                               max_size=3), label="generators")
    G = PermGroup(n, [Permutation(p) for p in perms])
    k = data.draw(st.integers(0, n), label="k")
    quotient = johnson.OrbitQuotient(G, k, 10 ** 6).fill(10 ** 6)
    _assert_orbits(quotient, _union_find_orbits(G, k))


@pytest.mark.parametrize("spec,k,seed", [
    ("pgammau:3", 3, 1), ("agammal:1,16", 6, 2), ("agammal:1,16", 11, 3),
    ("wreath:3,4", 5, 4), ("pgammal:3,4", 2, 5),
])
def test_fill_is_invariant_under_relabelling(spec, k, seed):
    # relabelling the points by sigma conjugates G and moves its base
    # point: the multiset of orbit sizes stays, and sigma maps each rep
    # into an orbit of the same size of the relabelled group
    from ntcodes.cli import parse_group_spec
    G = parse_group_spec(spec)
    v = G.degree
    sigma = list(range(v))
    random.Random(seed).shuffle(sigma)
    inverse = [0] * v
    for x, y in enumerate(sigma):
        inverse[y] = x
    H = PermGroup(v, [Permutation([sigma[g.images[inverse[y]]]
                                   for y in range(v)])
                      for g in G.generators])
    quotient = johnson.OrbitQuotient(G, k, 10 ** 6).fill(10 ** 6)
    relabelled = johnson.OrbitQuotient(H, k, 10 ** 6).fill(10 ** 6)
    assert relabelled._through is not None
    assert sorted(relabelled.sizes) == sorted(quotient.sizes)
    for rep, size in zip(quotient.reps, quotient.sizes):
        image = mask_of(sigma[x] for x in bits(rep))
        assert relabelled.sizes[relabelled.orbit_of(image)] == size


@pytest.mark.parametrize("spec", KNOWN_ORDER_GRID + ["gens:@pgammau:3"])
def test_fill_takes_one_route_per_group(spec, tmp_path):
    # every spec of KNOWN_ORDER_GRID, stab: specs among them, and
    # PGammaU(3,3) read from a gens:@file, a group of no known order.  The
    # fill through a point sets _through exactly when G is transitive on
    # the points and 0 < k < v, for every k with C(v,k) <= 5,000; either
    # route's reps, sizes, orbit_of and members are the union-find's
    from ntcodes.cli import parse_group_spec
    if spec.startswith("gens:@"):
        G = parse_group_spec(spec.removeprefix("gens:@"))
        path = tmp_path / "gens.txt"
        path.write_text("\n".join([str(G.degree)]
                                  + [repr(g) for g in G.generators]) + "\n")
        G = parse_group_spec(f"gens:@{path}")
        assert G.known_order is None
    else:
        G = parse_group_spec(spec)
    transitive = _is_transitive(G)
    for k in range(G.degree + 1):
        if comb(G.degree, k) > 5000:
            continue
        quotient = johnson.OrbitQuotient(G, k, 10 ** 6).fill(10 ** 6)
        assert (quotient._through is not None) == (
            transitive and 0 < k < G.degree), k
        _assert_orbits(quotient, _union_find_orbits(G, k))


@pytest.mark.parametrize("spec,k,cap", [("wreath:3,4", 6, 300),
                                        ("pgammau:3", 4, 100),
                                        ("agammal:1,16", 13, 400)])
def test_fill_through_a_point_over_cap_finds_no_orbit(spec, k, cap,
                                                       monkeypatch):
    # a transitive G whose largest orbit is over the quotient's cap: the
    # fill through a point finds every orbit with no orbit walked, and
    # members, asked for orbits over the cap in all, raises before it
    # walks any, so G itself walks no subset orbit
    from ntcodes.cli import parse_group_spec
    G = parse_group_spec(spec)
    expected = _union_find_orbits(G, k)
    assert max(map(len, expected)) > cap
    walks = []
    monkeypatch.setattr(G, "subset_orbit",
                        lambda *args, **kw: walks.append(args))
    quotient = johnson.OrbitQuotient(G, k, cap).fill(10 ** 6)
    assert quotient.reps == [o[0] for o in expected]
    assert quotient.sizes == [len(o) for o in expected]
    with pytest.raises(ResourceCapError, match=(
            f"^the orbits asked for have {comb(G.degree, k)} members, "
            f"over cap {cap}$")):
        quotient.members(range(len(expected)))
    assert quotient.index == {} and quotient._members == {}
    assert walks == [] and G._pair is None


@pytest.mark.parametrize("spec,k,cap,message", [
    # J(12,6): X is the C(11,5) = 462 6-sets through a point, and the
    # scan meets the last orbit at the 93rd 6-set
    ("wreath:3,4", 6, 461, "J(12,6) has 462 6-sets through a point, over "
                           "cap 461"),
    ("wreath:3,4", 6, 554, "J(12,6) has 462 6-sets through a point, and its "
                           "orbits need a scan of more than 92 6-sets, over "
                           "cap 554"),
    # J(16,13): X is the C(15,13) = 105 13-sets that miss a point, and the
    # scan meets the last orbit at the 5th 13-set
    ("agammal:1,16", 13, 104, "J(16,13) has 105 13-sets off a point, over "
                              "cap 104"),
    ("agammal:1,16", 13, 109, "J(16,13) has 105 13-sets off a point, and its "
                              "orbits need a scan of more than 4 13-sets, "
                              "over cap 109"),
    # the walk of J(v,k) holds every vertex
    ("stab:8:0,1,2", 3, 55, "J(8,3) has 56 vertices, over cap 55"),
], ids=["wreath:3,4-6-461", "wreath:3,4-6-554", "agammal:1,16-13-104",
        "agammal:1,16-13-109", "stab:8:0,1,2-3-55"])
def test_fill_over_its_own_cap_numbers_no_orbit(spec, k, cap, message,
                                                monkeypatch):
    # the k-sets the fill holds and scans, one past cap: it raises, naming
    # them, with no orbit numbered and G itself walking no subset orbit
    from ntcodes.cli import parse_group_spec
    G = parse_group_spec(spec)
    walks = []
    monkeypatch.setattr(G, "subset_orbit",
                        lambda *args, **kw: walks.append(args))
    quotient = johnson.OrbitQuotient(G, k, 10 ** 6)
    with pytest.raises(ResourceCapError, match=f"^{re.escape(message)}$"):
        quotient.fill(cap)
    assert quotient.reps == [] and quotient.sizes == []
    assert quotient.index == {} and quotient._through is None
    assert walks == [] and G._pair is None


def test_fill_of_an_intransitive_group_keeps_the_orbits_before_the_cap():
    # the walk of J(v,k) stops at the first orbit over cap, and the whole
    # orbits before it stay found, numbered, indexed and listed
    from ntcodes.cli import parse_group_spec
    G = parse_group_spec("stab:8:0,1,2")
    expected = _union_find_orbits(G, 3)
    first_over = next(i for i, o in enumerate(expected) if len(o) > 20)
    assert first_over > 0
    quotient = johnson.OrbitQuotient(G, 3, 20)
    with pytest.raises(ResourceCapError, match="^orbit exceeds cap 20$"):
        quotient.fill(10 ** 6)
    assert quotient._through is None
    _assert_orbits(quotient, expected[:first_over])
    assert quotient.index == {m: i for i, o in enumerate(expected[:first_over])
                              for m in o}


@pytest.mark.parametrize("spec,k", [("pgammau:3", 3), ("stab:9:0,1,2", 3)])
def test_members_walks_each_orbit_at_most_once(spec, k, monkeypatch):
    # members lists the orbits asked for in the order asked, and walks
    # only those that no walk has listed: neither a second time nor those
    # that orbit_of or the walk of J(v,k) walked already
    from ntcodes.cli import parse_group_spec
    G = parse_group_spec(spec)
    expected = _union_find_orbits(G, k)
    walked = []
    walk = PermGroup.subset_orbit

    def counted(self, mask, *args, **kw):
        members = walk(self, mask, *args, **kw)
        walked.append(members[0])
        return members
    quotient = johnson.OrbitQuotient(G, k, 10 ** 6).fill(10 ** 6)
    monkeypatch.setattr(PermGroup, "subset_orbit", counted)
    assert quotient.members([2, 0, 2]) == [expected[2], expected[0],
                                           expected[2]]
    assert quotient.members(range(len(expected))) == expected
    assert quotient.members([1, 0]) == [expected[1], expected[0]]
    if quotient._through is None:
        assert walked == []  # the fill walked every orbit
    else:
        assert sorted(walked) == [o[0] for o in expected]


# ---- networkx oracle ---------------------------------------------------------

def nx_johnson(v, k):
    """J(v,k) as a networkx graph on frozensets of points, with edges
    between k-sets that share k-1 points."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    verts = [frozenset(c) for c in combinations(range(v), k)]
    graph.add_nodes_from(verts)
    graph.add_edges_from((a, b) for a, b in combinations(verts, 2)
                         if len(a & b) == k - 1)
    return graph


@pytest.mark.parametrize("v,k", [(4, 2), (5, 2), (6, 3), (7, 2), (8, 3),
                                 (8, 4)])
def test_jdistance_matches_networkx(v, k):
    nx = pytest.importorskip("networkx")
    lengths = dict(nx.all_pairs_shortest_path_length(nx_johnson(v, k)))
    assert len(lengths) == comb(v, k)
    for a, row in lengths.items():
        for b, d in row.items():
            if a != b:
                assert min_distance(Code(v, k, [mask_of(a),
                                                mask_of(b)])) == d


def check_partition_against_networkx(code, G=None):
    """distance_partition, equitable_matrix and, given G, the orbit
    quotient's partition, against the multi-source BFS layers of a
    networkx J(v,k) and each vertex's count of neighbours per layer."""
    nx = pytest.importorskip("networkx")
    graph = nx_johnson(code.v, code.k)
    layers = list(nx.bfs_layers(graph, [frozenset(bits(w))
                                        for w in code.codewords]))
    cells = [{mask_of(x) for x in layer} for layer in layers]
    layer_of = {x: d for d, layer in enumerate(layers) for x in layer}
    counts = {}
    for x in graph:
        row = [0] * len(layers)
        for y in graph[x]:
            row[layer_of[y]] += 1
        counts[mask_of(x)] = row
    # the first cell i whose vertices' counts differ; its smallest vertex
    # a, the smallest vertex b whose counts differ from a's, and the first
    # layer j where they do
    expected = True, [counts[min(cell)] for cell in cells]
    for i, cell in enumerate(cells):
        a = min(cell)
        split = [m for m in cell if counts[m] != counts[a]]
        if split:
            b = min(split)
            j = next(j for j, (x, y) in enumerate(zip(counts[a], counts[b]))
                     if x != y)
            expected = False, (i, j, a, b, counts[a][j], counts[b][j])
            break
    part = distance_partition(code)
    assert part.cells == cells
    assert johnson.equitable_matrix(part, code.v) == expected
    if G is not None:
        quotient = johnson.OrbitQuotient(G, code.k, 10 ** 6).fill(10 ** 6)
        qcells, *regular = quotient.partition(
            quotient.orbits_of(code.codewords))
        check_quotient_cells(quotient, qcells, regular, cells)
        assert tuple(regular) == expected
    return expected[0]


def check_quotient_cells(quotient, qcells, regular, cells):
    """The vertices of the cells of OrbitQuotient.partition are a prefix of
    the vertex cells, all of them when the partition is equitable, and
    end at the cell after the first unequal one otherwise."""
    assert [set().union(*quotient.members(cell))
            for cell in qcells] == cells[:len(qcells)]
    if regular[0]:
        assert len(qcells) == len(cells)
    else:
        assert len(qcells) == min(regular[1][0] + 2, len(cells))


def test_catalog_partitions_match_networkx():
    checked = 0
    for family, params in codes_mod.CATALOG:
        code, G = codes_mod.build(family, **params)
        if code.v <= 8:
            check_partition_against_networkx(code, G)
            checked += 1
    assert checked == 11


def test_random_invariant_unions_match_networkx():
    # unions of orbits of small groups, so both the equitable and the
    # split outcomes are compared
    from ntcodes.geometry import (group_generators, subset_stabilizer,
                                  wreath_stabilizer)
    pool = [wreath_stabilizer(2, 3), wreath_stabilizer(2, 4),
            wreath_stabilizer(3, 2), subset_stabilizer(7, range(2)),
            subset_stabilizer(8, range(3)), PermGroup.alternating(6),
            group_generators("agammal", n=3, q=2),
            group_generators("pgammal", n=3, q=2),
            PermGroup(8, [Permutation.from_cycles(8, [tuple(range(8))])])]
    rng = random.Random(8)
    outcomes = set()
    for _ in range(40):
        G = rng.choice(pool)
        k = rng.randint(2, G.degree - 2)
        quotient = johnson.OrbitQuotient(G, k, 10 ** 6).fill(10 ** 6)
        orbits = quotient.members(range(len(quotient.reps)))
        if len(orbits) < 2:
            continue
        chosen = rng.sample(orbits, rng.randint(1, len(orbits) - 1))
        code = Code(G.degree, k, [m for orbit in chosen for m in orbit])
        outcomes.add(check_partition_against_networkx(code, G))
    assert outcomes == {True, False}


def test_u_type():
    from ntcodes.geometry import partition_blocks
    parts = partition_blocks(3, 3)
    assert u_type(parts[2], parts) == (3,)
    assert u_type(mask_of([0, 3, 6]), parts) == (1, 1, 1)
    gamma = mask_of([0, 1, 3, 6])
    t = u_type(gamma, parts)
    assert sum(t) == 4
    with pytest.raises(JohnsonError):
        u_type(mask_of([0]), [mask_of([0, 1]), mask_of([1, 2])])
    with pytest.raises(JohnsonError):
        u_type(mask_of([5]), [mask_of([0, 1])])


def test_complement_involution():
    code, _ = codes_mod.build("subfield_line")
    cc = complement_code(complement_code(code))
    assert cc.codewords == code.codewords
    assert cc.v == code.v and cc.k == code.k


def test_complement_preserves_min_distance():
    for fam, params in [("unital", {"q": 3}), ("j93", {}),
                        ("subfield_line", {})]:
        code, _ = codes_mod.build(fam, **params)
        assert min_distance(complement_code(code)) == min_distance(code)


def test_complement_neighbour_set():
    code, _ = codes_mod.build("j93")
    full = (1 << code.v) - 1
    comp = complement_code(code)
    assert neighbour_set(comp) == {full ^ m for m in neighbour_set(code)}


def test_complement_duality_of_transitivity_flags():
    flags = ("code_transitive", "neighbour_transitive",
             "incidence_transitive", "strongly_incidence_transitive",
             "completely_transitive")
    for fam, params in [("j93", {}), ("utype", {"a": 3, "b": 2, "line": 1,
                                                "k": 3}),
                        ("intransitive", {"v": 8, "u": 3, "k": 3}),
                        ("subfield_line", {})]:
        code, G = codes_mod.build(fam, **params)
        r1 = codes_mod.check_properties(code, G)
        r2 = codes_mod.check_properties(complement_code(code), G)
        for flag in flags:
            assert r1.flags[flag] == r2.flags[flag], (fam, flag)


def test_code_validation():
    with pytest.raises(JohnsonError):
        Code(5, 2, [])
    with pytest.raises(JohnsonError):
        Code(5, 2, [mask_of([0, 1, 2])])
    with pytest.raises(JohnsonError):
        Code(3, 2, [mask_of([2, 3])])
    code = Code(6, 2, [mask_of([0, 1]), mask_of([0, 1]), mask_of([2, 3])])
    assert len(code) == 2  # duplicates collapse


def test_degenerate_flags():
    assert Code(5, 2, all_ksubsets(5, 2)).degenerate
    assert Code(5, 1, [1]).degenerate  # k < 2
    assert not Code(5, 2, [mask_of([0, 1])]).degenerate


def test_fill_cap_edges_on_a_cyclic_group():
    # C_60 on the 3-sets of 60 points, with the orbits found by rotating
    # masks in ascending order: the fill through a point holds the
    # C(59,2) = 1,711 3-sets through it and scans up to the smallest member
    # of the last orbit, the 10,071st 3-set, so it completes at a cap of
    # 1,711 + 10,071 and raises, with no orbit numbered, one below that
    # and one below 1,711
    v, k = 60, 3
    full = (1 << v) - 1
    G = PermGroup(v, [Permutation([(x + 1) % v for x in range(v)])])
    seen, firsts, sizes, last = set(), [], [], 0
    for position, mask in enumerate(sorted(
            mask_of(s) for s in combinations(range(v), k)), 1):
        if mask in seen:
            continue
        orbit = {mask}
        image = ((mask << 1) | (mask >> (v - 1))) & full
        while image not in orbit:
            orbit.add(image)
            image = ((image << 1) | (image >> (v - 1))) & full
        seen |= orbit
        firsts.append(mask)
        sizes.append(len(orbit))
        last = position
    held = comb(v - 1, k - 1)
    assert (held, last, len(firsts)) == (1711, 10071, 571)
    for cap, message in [
            (held - 1, "J(60,3) has 1711 3-sets through a point, over cap "
                       "1710"),
            (held + last - 1, "J(60,3) has 1711 3-sets through a point, and "
                              "its orbits need a scan of more than 10070 "
                              "3-sets, over cap 11781")]:
        quotient = johnson.OrbitQuotient(G, k, 10 ** 6)
        with pytest.raises(ResourceCapError, match=f"^{re.escape(message)}$"):
            quotient.fill(cap)
        assert quotient.reps == [] and quotient._through is None
    quotient = johnson.OrbitQuotient(G, k, 10 ** 6).fill(held + last)
    assert quotient.reps == firsts and quotient.sizes == sizes

"""Permutation group engine tests."""

import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ntcodes import perm
from ntcodes.codes import CATALOG, build
from ntcodes.geometry import (group_generators, hyperoval_setting,
                              restrict_group, wreath_stabilizer)
from ntcodes.perm import (PermError, PermGroup, Permutation,
                          ResourceCapError, bits, mask_of, popcount)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def random_element(G, rng, length=6):
    g = Permutation.identity(G.degree)
    for _ in range(length):
        g = g * rng.choice(G.generators)
    return g


# ---- Permutation basics -----------------------------------------------------

def test_identity_and_inverse():
    p = Permutation.parse("(0 1 2)(3 4)", 6)
    assert (p * p.inverse()).is_identity()
    assert p.inverse().inverse() == p
    assert Permutation.identity(5).is_identity()


def test_parse_and_format_roundtrip():
    for text in ["(0 1 2)(3 4)", "(2 5)(0 3 4)", "()"]:
        p = Permutation.parse(text, 6)
        assert Permutation.parse(repr(p) if p.cycles() else "()", 6) == p


def test_parse_rejects_garbage():
    with pytest.raises(PermError):
        Permutation.parse("0 1 2", 5)
    with pytest.raises(PermError):
        Permutation.parse("(0 1 1)", 5)
    with pytest.raises(PermError):
        Permutation.parse("(0 9)", 5)


# the cycle-notation check Permutation.parse used to make, kept as the
# oracle: its nested quantifier backtracks exponentially on a bad line
_OLD_CYCLE_NOTATION = r"(\(\s*(\d+[\s,]*)*\)\s*)+"


def _parses(text):
    # syntax errors only; a repeated or out-of-range point is a later check
    try:
        Permutation.parse(text, 50)
    except PermError as exc:
        return "cannot parse" not in str(exc)
    return True


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="(() ,,\t0123x\u0663", max_size=12))
def test_parse_accepts_what_the_old_pattern_accepted(text):
    old = re.fullmatch(_OLD_CYCLE_NOTATION, text.strip()) is not None
    assert _parses(text) == old


def test_parse_rejects_a_long_malformed_cycle_in_linear_time():
    # the old pattern took 2 s on 24 digits and 4x more per 2 digits, so
    # on 40 it would run for days
    proc = subprocess.run(
        [sys.executable, "-c",
         "from ntcodes.perm import Permutation, PermError\n"
         "try:\n"
         "    Permutation.parse('(' + '1' * 40 + 'x', 50)\n"
         "except PermError:\n"
         "    print('rejected')\n"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=30)
    assert proc.stdout == "rejected\n", proc.stderr


def test_non_bijection_rejected():
    with pytest.raises(PermError):
        Permutation([0, 0, 1])
    with pytest.raises(PermError):
        Permutation([0, 3])


def test_apply_mask_matches_pointwise():
    p = Permutation.parse("(0 1 2)(3 4)", 6)
    mask = mask_of([0, 1, 5])
    assert set(bits(p.apply_mask(mask))) == {p(x) for x in [0, 1, 5]}
    assert p.apply_mask(mask_of([0, 1])) == mask_of([1, 2])


def _witness_by_apply_mask(gens, masks):
    """PermGroup.transitive_witness as a breadth-first walk by apply_mask."""
    start = min(masks)
    members, seen = [start], {start}
    for x in members:
        for g in gens:
            y = g.apply_mask(x)
            if y not in masks:
                return start, y
            if y not in seen:
                seen.add(y)
                members.append(y)
    missed = masks.difference(seen)
    return (start, min(missed)) if missed else None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_action_matches_apply_mask(data):
    # chunk tables take one, two or three, and more than three chunks on
    # separate paths; mask_moves is the tables' action exactly up to
    # TABLE_DEGREE and the bit loop above it, whatever the walk
    n = data.draw(st.one_of(st.sampled_from([1, 7, 8, 9, 11, 12, 16, 22, 23,
                                             28, 33, 34, 64, 65]),
                            st.integers(1, 130)), label="degree")
    p = Permutation(data.draw(st.permutations(range(n)), label="images"))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                               max_size=10), label="masks")
    width = perm.chunk_width(n)
    table = perm._table_action(perm.chunk_tables(p, width), width)
    move = PermGroup(n, [p]).mask_moves()[0]
    assert (move == p.apply_mask) == (n > perm.TABLE_DEGREE)
    for m in masks:
        assert table(m) == move(m) == p.apply_mask(m)
    if n > 65:
        return
    # the orbit, the stabilizer's generators and the witness that the
    # group's own subset action gives are those of a walk by apply_mask;
    # dense generators only on few points, so that the groups stay small
    gens = [_random_generator(data, n, dense=n <= 12)
            for _ in range(data.draw(st.integers(0, 3), label="ngens"))]
    G = PermGroup(n, gens)
    apply = [g.apply_mask for g in gens]
    mask = masks[0]
    bound = 300
    try:
        orbit = perm.schreier_orbit(mask, apply, cap=bound)[0]
    except ResourceCapError:
        with pytest.raises(ResourceCapError,
                           match=f"^orbit exceeds cap {bound}$"):
            G.subset_orbit(mask, cap=bound)
        return
    assert G.subset_orbit(mask) == tuple(sorted(orbit))
    stab = G.stabilizer(mask, apply)
    assert G.setwise_stabilizer(mask).generators == stab.generators
    assert G.setwise_stabilizer(mask, orbit_size=len(orbit)).generators \
        == stab.generators
    for extra in masks:
        collection = set(orbit) | {extra}
        assert G.transitive_witness(collection) \
            == _witness_by_apply_mask(gens, collection)


def test_chunk_tables_are_bounded():
    # ceil(n / CHUNK_BITS) chunks of near-equal width, none over 2^11
    # entries, covering the domain
    for n in range(1, 200):
        width = perm.chunk_width(n)
        tables = perm.chunk_tables(Permutation.identity(n), width)
        assert len(tables) == -(-n // perm.CHUNK_BITS)
        assert max(map(len, tables)) == 2 ** width <= 2 ** perm.CHUNK_BITS
        assert sum(len(t).bit_length() - 1 for t in tables) == n
    assert [perm.chunk_width(n) for n in (1, 11, 12, 22, 23, 33, 34, 64)] \
        == [1, 11, 6, 11, 8, 11, 9, 11]


def test_table_action_degree_bound():
    for n in (perm.TABLE_DEGREE, perm.TABLE_DEGREE + 1):
        p = Permutation.from_cycles(n, [tuple(range(n))])
        fallback = PermGroup(n, [p]).mask_moves()[0] == p.apply_mask
        assert fallback == (n > perm.TABLE_DEGREE)


def test_composition_convention():
    # x^(p*q) = (x^p)^q on 100 random triples
    rng = random.Random(0)
    for _ in range(100):
        a = list(range(7))
        b = list(range(7))
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = Permutation(a), Permutation(b)
        x = rng.randrange(7)
        assert (p * q)(x) == q(p(x))
        m = rng.getrandbits(7)
        assert (p * q).apply_mask(m) == q.apply_mask(p.apply_mask(m))


# ---- orders against closed forms ---------------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_symmetric_order(n):
    assert PermGroup.symmetric(n).order() == math.factorial(n)


@pytest.mark.parametrize("n", range(3, 9))
def test_alternating_order(n):
    assert PermGroup.alternating(n).order() == math.factorial(n) // 2


@pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3),
                                 (2, 5), (3, 4)])
def test_wreath_order(a, b):
    expected = math.factorial(a) ** b * math.factorial(b)
    assert wreath_stabilizer(a, b).order() == expected


@pytest.mark.parametrize("q,d", [(3, 1), (4, 1)])
def test_unitary_order_closed_form(q, d):
    G = group_generators("pgu", q=q)
    assert G.order() * d == q ** 3 * (q ** 3 + 1) * (q * q - 1)


def test_trivial_group():
    G = PermGroup(5, [])
    assert G.order() == 1
    assert list(G.elements()) == [Permutation.identity(5)]


# ---- membership sifting --------------------------------------------------------

def test_sifting_soundness():
    rng = random.Random(1)
    pool = [PermGroup.symmetric(6), PermGroup.alternating(7),
            wreath_stabilizer(3, 3), group_generators("pgl", n=2, q=9)]
    for G in pool:
        for _ in range(10):
            g = Permutation.identity(G.degree)
            for _ in range(rng.randint(1, 3)):
                g = g * rng.choice(G.generators)
            assert g in G
    # permutations outside a proper subgroup must fail
    A7 = PermGroup.alternating(7)
    odd = Permutation.from_cycles(7, [(0, 1)])
    assert odd not in A7
    W = wreath_stabilizer(3, 3)
    across = Permutation.from_cycles(9, [(0, 3)])
    assert across not in W


def test_elements_enumeration_matches_order():
    for G in (PermGroup.symmetric(5), wreath_stabilizer(2, 3),
              PermGroup.alternating(5)):
        els = list(G.elements())
        assert len(els) == G.order()
        assert len({e.images for e in els}) == G.order()
        assert all(e in G for e in els)


def test_elements_cap():
    with pytest.raises(ResourceCapError):
        list(PermGroup.symmetric(12).elements(cap=10 ** 6))


# ---- orbits and stabilizers ---------------------------------------------------

def test_orbit_basics():
    assert PermGroup.symmetric(4).orbit(0) == {0, 1, 2, 3}
    G = PermGroup(4, [Permutation.from_cycles(4, [(0, 1)])])
    assert G.orbit(2) == {2}
    from ntcodes.geometry import subset_stabilizer
    S = subset_stabilizer(9, range(3))
    assert S.orbit(0) == {0, 1, 2}


def test_point_stabilizer():
    S4 = PermGroup.symmetric(4)
    st = S4.point_stabilizer(0)
    assert st.order() == 6
    assert all(g(0) == 0 for g in st.generators)
    psu = group_generators("pgu", q=3)
    assert psu.point_stabilizer(0).order() == 6048 // 28


def test_setwise_stabilizer():
    S4 = PermGroup.symmetric(4)
    st = S4.setwise_stabilizer(mask_of([0, 1]))
    assert st.order() == 4
    full = (1 << 4) - 1
    assert S4.setwise_stabilizer(full).order() == 24


def test_orbit_stabilizer_identity_random():
    rng = random.Random(42)
    pool = [PermGroup.symmetric(7), PermGroup.alternating(6),
            wreath_stabilizer(3, 3), wreath_stabilizer(2, 4),
            group_generators("agammal", n=1, q=16),
            group_generators("pgl", n=2, q=9)]
    for _ in range(100):
        G = rng.choice(pool)
        k = rng.randint(1, G.degree - 1)
        mask = mask_of(rng.sample(range(G.degree), k))
        orb = G.subset_orbit(mask)
        stab = G.setwise_stabilizer(mask)
        assert len(orb) * stab.order() == G.order()


def _conjugation(g):
    """E -> {g^-1 e g : e in E} on a frozenset of image tuples: a right
    action, as (x*y)^-1 e (x*y) = y^-1 (x^-1 e x) y."""
    gi, ginv = g.images, g.inverse().images
    return lambda E: frozenset(tuple([gi[e[p]] for p in ginv]) for e in E)


def _walk_schreier_generators(G, start, moves):
    """The Schreier generators u_x g_i u_y^-1 of the whole walk of start's
    orbit, in walk order, with u_x read off schreier_orbit's Schreier
    map."""
    members, schreier, _ = perm.schreier_orbit(start, moves)
    u = {start: Permutation.identity(G.degree)}
    for x in members[1:]:
        pred, i = schreier[x]
        u[x] = u[pred] * G.generators[i]
    return [u[x] * g * u[move(x)].inverse()
            for x in members for g, move in zip(G.generators, moves)]


def _schreier_generators(G, start, moves):
    """Every distinct Schreier generator of the whole walk."""
    return set(_walk_schreier_generators(G, start, moves))


def _rebuilt_kept(G, start, moves):
    """The kept generators as a rebuild per kept generator finds them: a
    Schreier generator of the whole walk is kept when a group built from
    scratch on the generators kept before it does not contain it."""
    kept = ()
    for s in _walk_schreier_generators(G, start, moves):
        if s not in PermGroup(G.degree, kept):
            kept += (s,)
    return kept


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stabilizer_early_stop_keeps_generators(data):
    # given the orbit's size the walk stops once the kept generators'
    # group has order |G|/|orbit|; no later Schreier generator would be
    # kept, so the tuple must be exactly the whole walk's; on points, on
    # subsets and on sets of permutations under conjugation
    n = data.draw(st.integers(2, 8), label="degree")
    perms = data.draw(st.lists(st.permutations(range(n)), min_size=1,
                               max_size=3), label="generators")
    G = PermGroup(n, [Permutation(p) for p in perms])
    action = data.draw(st.sampled_from(["point", "subset", "conjugation"]),
                       label="action")
    if action == "subset":
        start = mask_of(data.draw(st.sets(st.integers(0, n - 1)),
                                  label="points"))
        moves = G.mask_moves()
    elif action == "point":
        start = data.draw(st.integers(0, n - 1), label="point")
        moves = perm._point_moves(G.generators)
    else:
        start = frozenset(data.draw(st.lists(
            st.permutations(range(n)).map(tuple), min_size=1, max_size=2),
            label="conjugated"))
        moves = [_conjugation(g) for g in G.generators]
    orbit = perm.schreier_orbit(start, moves)[0]
    early = G.stabilizer(start, moves, orbit_size=len(orbit))
    assert early.generators == G.stabilizer(start, moves).generators
    assert early.generators == _rebuilt_kept(G, start, moves)
    assert early.order() * len(orbit) == G.order()
    # the kept generators generate the group of every Schreier generator
    kept = PermGroup(n, early.generators)
    assert kept.order() * len(orbit) == G.order()
    assert all(s in kept for s in _schreier_generators(G, start, moves))


def test_stabilizer_starts_one_chain(monkeypatch):
    # the stabilizer extends one kept chain by each generator it keeps: a
    # group built from scratch per kept generator would start 7 chains
    code, G = build("utype", a=9, b=4, line=2, k=34)
    G.order()
    extend = PermGroup._extend
    starts = []

    def counted(self, generators):
        starts.append(self._chain is None)
        return extend(self, generators)

    monkeypatch.setattr(PermGroup, "_extend", counted)
    S = G.setwise_stabilizer(code.codewords[0], orbit_size=len(code))
    assert len(S.generators) == 7
    assert sum(starts) <= 1


def test_stabilizer_early_stop_on_regular_orbit():
    # Z_6 acts regularly on its points: the stabilizer is trivial, the
    # early stop returns it before forming a single Schreier generator,
    # and the whole walk keeps none, as each one sifts to the identity
    G = PermGroup(6, [Permutation.from_cycles(6, [tuple(range(6))])])
    moves = perm._point_moves(G.generators)
    assert G.stabilizer(0, moves, orbit_size=6).generators == ()
    assert G.stabilizer(0, moves).generators == ()
    assert G.point_stabilizer(0).generators == ()
    mask = mask_of([0, 1])
    assert len(G.subset_orbit(mask)) == 6
    assert G.setwise_stabilizer(mask).generators == ()
    assert G.setwise_stabilizer(mask, orbit_size=6).generators == ()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stabilizer_walk_with_orbit_size_keeps_generators(data):
    # given the orbit's size, the Schreier generators are formed during the
    # orbit walk, which stops early; the tuple must be the full loop's
    n = data.draw(st.integers(2, 8), label="degree")
    perms = data.draw(st.lists(st.permutations(range(n)), min_size=1,
                               max_size=3), label="generators")
    G = PermGroup(n, [Permutation(p) for p in perms])
    mask = mask_of(data.draw(st.sets(st.integers(0, n - 1)), label="points"))
    orbit = perm.schreier_orbit(mask, G.mask_moves())[0]
    walked = G.setwise_stabilizer(mask, orbit_size=len(orbit))
    assert walked.generators == G.setwise_stabilizer(mask).generators
    assert walked.order() * len(orbit) == G.order()


def test_stabilizer_walk_orbit_size_over_cap_raises():
    # the orbit's size is known up front, so the cap is checked before the
    # walk starts
    with pytest.raises(ResourceCapError, match="orbit exceeds cap 100"):
        PermGroup.symmetric(20).setwise_stabilizer(
            mask_of(range(10)), cap=100, orbit_size=math.comb(20, 10))
    S6 = PermGroup.symmetric(6)
    assert S6.setwise_stabilizer(mask_of([0]), cap=6,
                                 orbit_size=6).order() == 120


def test_subset_orbit_schreier_words():
    G = wreath_stabilizer(3, 3)
    mask = mask_of([0, 1, 3])
    members, schreier, _ = perm.schreier_orbit(mask, G.mask_moves())
    cache = {mask: Permutation.identity(G.degree)}
    for m in members:
        g = perm._transversal(m, schreier, G.generators, cache)
        assert g.apply_mask(mask) == m
        assert g in G


def test_subset_orbit_cap():
    with pytest.raises(ResourceCapError):
        PermGroup.symmetric(20).subset_orbit(mask_of(range(10)), cap=100)


def _random_generator(data, n, dense=True):
    # any permutation (when dense), or one of a few points anywhere in
    # range(n), so that orbits can stay small while every chunk of the
    # domain is reached
    if dense and data.draw(st.booleans(), label="dense"):
        return Permutation(data.draw(st.permutations(range(n)),
                                     label="images"))
    support = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                 max_size=5), label="support")
    shuffled = data.draw(st.permutations(support), label="shuffled")
    images = list(range(n))
    for x, y in zip(support, shuffled):
        images[x] = y
    return Permutation(images)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subset_orbit_is_the_sorted_schreier_orbit(data):
    # the chunk-table walk (up to degree 33) and the mask_moves walk (above
    # it) against a Schreier orbit under the bit-loop action, across the
    # chunk edges and the table degree bound
    n = data.draw(st.one_of(st.sampled_from([1, 8, 9, 11, 12, 16, 17, 22, 23,
                                             24, 25, 32, 33, 34, 64, 65]),
                            st.integers(1, 40)), label="degree")
    gens = [_random_generator(data, n)
            for _ in range(data.draw(st.integers(0, 3), label="ngens"))]
    G = PermGroup(n, gens)
    mask = data.draw(st.integers(0, (1 << n) - 1), label="mask")
    bound = 300
    try:
        expected = tuple(sorted(perm.schreier_orbit(
            mask, [g.apply_mask for g in gens], cap=bound)[0]))
    except ResourceCapError:
        with pytest.raises(ResourceCapError,
                           match=f"^orbit exceeds cap {bound}$"):
            G.subset_orbit(mask, cap=bound)
        return
    assert G.subset_orbit(mask) == expected
    assert G.subset_orbit(mask, cap=len(expected)) == expected
    # given an index, the walk writes each member's number into it, and a
    # walk over the cap deletes what it wrote
    before = {1 << n: 0}
    index = dict(before)
    assert G.subset_orbit(mask, len(expected), index, 1) == expected
    assert index == {**before, **dict.fromkeys(expected, 1)}
    if len(expected) > 1:
        cap = data.draw(st.integers(1, len(expected) - 1), label="cap")
        with pytest.raises(ResourceCapError,
                           match=f"^orbit exceeds cap {cap}$"):
            G.subset_orbit(mask, cap=cap)
        index = dict(before)
        with pytest.raises(ResourceCapError,
                           match=f"^orbit exceeds cap {cap}$"):
            G.subset_orbit(mask, cap, index, 1)
        assert index == before
    outside = 1 << data.draw(st.integers(n, n + 40), label="outside")
    with pytest.raises(PermError, match="subset not contained"):
        G.subset_orbit(mask | outside)


def _orbit_by_union_find(gens, v, k, mask):
    """The orbit of mask among the k-sets of v points with v - k at most
    2, from a union-find of every k-set with its images by apply_mask."""
    full = (1 << v) - 1
    ksets = sorted(full ^ mask_of(c)
                   for c in itertools.combinations(range(v), v - k))
    number = {m: i for i, m in enumerate(ksets)}
    sets = perm.UnionFind(len(ksets))
    for m in ksets:
        for g in gens:
            sets.union(number[m], number[g.apply_mask(m)])
    root = sets.find(number[mask])
    return tuple(m for m in ksets if sets.find(number[m]) == root)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_complement_walk_matches_union_find(data):
    # above TABLE_DEGREE a k-set with 2k > v is walked by its complement:
    # the same orbit as the union-find of all k-sets, the same numbers
    # written into an index, and the same rollback on the cap
    v = data.draw(st.one_of(st.sampled_from([65, 66, 91]),
                            st.integers(65, 91)), label="degree")
    k = v - data.draw(st.integers(1, 2), label="v - k")
    gens = [_random_generator(data, v)
            for _ in range(data.draw(st.integers(0, 3), label="ngens"))]
    G = PermGroup(v, gens)
    missed = data.draw(st.sets(st.integers(0, v - 1), min_size=v - k,
                               max_size=v - k), label="missed")
    mask = ((1 << v) - 1) ^ mask_of(missed)
    expected = _orbit_by_union_find(gens, v, k, mask)
    assert G.subset_orbit(mask) == expected
    before = {1 << v: 0}
    index = dict(before)
    assert G.subset_orbit(mask, len(expected), index, 2) == expected
    assert index == {**before, **dict.fromkeys(expected, 2)}
    if len(expected) > 1:
        cap = data.draw(st.integers(1, len(expected) - 1), label="cap")
        index = dict(before)
        with pytest.raises(ResourceCapError,
                           match=f"^orbit exceeds cap {cap}$"):
            G.subset_orbit(mask, cap, index, 2)
        assert index == before


# ---- transitivity tests ---------------------------------------------------------

def test_transitive_on_product():
    from ntcodes.geometry import subset_stabilizer
    G = subset_stabilizer(4, [0, 1])
    assert G.is_transitive_on_product({0, 1}, {2, 3})
    T = PermGroup(4, [])
    assert not T.is_transitive_on_product({0, 1}, {2, 3})
    assert T.is_transitive_on_product({0}, {1})


def test_transitive_on_product_conjugation_invariant():
    rng = random.Random(3)
    from ntcodes.geometry import subset_stabilizer
    G = subset_stabilizer(6, [0, 1, 2])
    A, B = {0, 1, 2}, {3, 4, 5}
    base = G.is_transitive_on_product(A, B)
    for _ in range(10):
        imgs = list(range(6))
        rng.shuffle(imgs)
        c = Permutation(imgs)
        conj = PermGroup(6, [c.inverse() * g * c for g in G.generators])
        assert conj.is_transitive_on_product(
            {c(x) for x in A}, {c(x) for x in B}) == base


def test_primitivity_classification():
    assert PermGroup.symmetric(5).primitivity()[0] == "primitive"
    status, block = wreath_stabilizer(3, 3).primitivity()
    assert status == "imprimitive"
    assert len(block) == 3
    # the witness block's G-translates partition the domain
    W = wreath_stabilizer(3, 3)
    system = W.subset_orbit(mask_of(block))
    assert sorted(popcount(m) for m in system) == [3, 3, 3]
    assert sum(system) == (1 << 9) - 1
    from ntcodes.geometry import subset_stabilizer
    assert subset_stabilizer(6, [0, 1]).primitivity()[0] == "intransitive"
    # a regular cyclic group of prime order is primitive
    C5 = PermGroup(5, [Permutation.from_cycles(5, [tuple(range(5))])])
    assert C5.primitivity()[0] == "primitive"


def test_2transitivity():
    assert PermGroup.symmetric(3).is_2transitive()
    assert not wreath_stabilizer(3, 3).is_2transitive()
    assert group_generators("agammal", n=1, q=16).is_2transitive()
    assert not PermGroup(3, []).is_2transitive()
    # v = 1 and v = 2, a regular group and an intransitive one, each
    # against the oracle below
    for G, two in ((PermGroup(1, []), True),
                   (PermGroup(2, []), False),
                   (PermGroup.symmetric(2), True),
                   (PermGroup(3, [Permutation.from_cycles(3, [(0, 1, 2)])]),
                    False),
                   (PermGroup(5, [Permutation.from_cycles(5, [(0, 1, 2)]),
                                  Permutation.from_cycles(5, [(3, 4)])]),
                    False)):
        assert G.is_2transitive() == _is_2transitive(G) == two


def _is_2transitive(G):
    """G transitive on the points, and G_0, generated by the Schreier
    generators of 0's orbit (Schreier's lemma), transitive on the rest."""
    reps = {0: Permutation.identity(G.degree)}
    queue = [0]
    for x in queue:
        for g in G.generators:
            if g(x) not in reps:
                reps[g(x)] = reps[x] * g
                queue.append(g(x))
    if len(queue) < G.degree:
        return False
    stab = [reps[x] * g * reps[g(x)].inverse()
            for x in queue for g in G.generators]
    orbit = queue[1:2]
    for x in orbit:
        for s in stab:
            if s(x) not in orbit:
                orbit.append(s(x))
    return len(orbit) == G.degree - 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_2transitivity_matches_point_stabilizer_orbit(data):
    n = data.draw(st.integers(1, 8), label="degree")
    perms = data.draw(st.lists(st.permutations(range(n)), max_size=3),
                      label="generators")
    G = PermGroup(n, [Permutation(p) for p in perms])
    assert G.is_2transitive() == _is_2transitive(G)


def test_bsgs_invariants():
    for G in (PermGroup.symmetric(6), wreath_stabilizer(3, 3),
              group_generators("pgu", q=3)):
        base, _, transversals = G.bsgs()
        prod = 1
        for tr in transversals:
            prod *= len(tr)
        assert prod == G.order()
        assert all(g in G for g in G.generators)


def _chain_digest(G):
    base, level_gens, transversals = G.bsgs()
    chain = [base, [[list(g.images) for g in gens] for gens in level_gens],
             [[[pt, list(u.images)] for pt, u in tr.items()]
              for tr in transversals]]
    return hashlib.sha256(json.dumps(chain).encode()).hexdigest()


def _hyperoval_line_stabilizer():
    # the hyperoval's external line's stabilizer in PGammaL(3,4), restricted
    # to the 16 points off the line: the same group as the builder's, from
    # other generators
    _, _, ext, _ = hyperoval_setting()
    stab = group_generators("pgammal", n=3, q=4).setwise_stabilizer(
        ext, orbit_size=21)
    return restrict_group(stab, ((1 << 21) - 1) ^ ext)


# The chain is deterministic: base points, each level's strong generators
# and each transversal in its dict order fix order(), elements() and every
# residue.  The digests pin the incremental closing, which grows each orbit
# as a generator joins it and strips the newest untried edge of the deepest
# level first; a change to that order changes them.
@pytest.mark.parametrize("make,digest", [
    (lambda: group_generators("pgammau", q=3),
     "fe67785251fa199a0031c311ef047e263c3d64e98233987ec24cd047dad7db1a"),
    (lambda: wreath_stabilizer(3, 4),
     "35c72b3ba269c45019826b9b3d81cc747521e0ddcc10c820ef6e4841de0d9781"),
    (lambda: group_generators("agammal", n=2, q=4),
     "8591595dcd284926fbb150fc821b05ab7888f427b8ad27583659ea7f669fbfb2"),
    (lambda: group_generators("pgammal", n=3, q=3),
     "6bfc6f4abd991ff21acd156cacb4645e99743fcd9efdd0d48d961f50b441c1de"),
    (_hyperoval_line_stabilizer,
     "26e73dbd0a9b7905ab496addb23d9bf40c890ac123975e2333e5d5d918f92e3a"),
    (lambda: build("hyperoval_ag24")[1],
     "4f452e710d7a2749171184f61e3b772d6be67d18af2e0b697ac592550fccbc50"),
], ids=["pgammau3", "wreath34", "agammal24", "pgammal33", "hyperoval",
        "hyperoval_chart"])
def test_chain_is_pinned(make, digest):
    assert _chain_digest(make()) == digest


def _prime_powers(top):
    return [q for q in range(2, top + 1)
            if len({p for p in range(2, q + 1)
                    if q % p == 0 and all(p % d for d in range(2, p))}) == 1]


# Every builder that passes a known order, over a grid that takes in the
# degenerate cases: PG(0,q) is one point, alt:1 and alt:2 are trivial, and
# wreath:1,b and wreath:a,1 are a symmetric group.
KNOWN_ORDER_GRID = (
    [f"{fam}:1,{q}" for fam in ("agl", "agammal") for q in _prime_powers(32)]
    + [f"{fam}:{n},{q}" for fam in ("agl", "agammal")
       for n, top in ((2, 9), (3, 5)) for q in _prime_powers(top)]
    + [f"{fam}:1,{q}" for fam in ("pgl", "pgammal") for q in (2, 4, 9)]
    + [f"{fam}:{n},{q}" for fam in ("pgl", "pgammal")
       for n, top in ((2, 32), (3, 9)) for q in _prime_powers(top)]
    + [f"psl:2,{q}" for q in _prime_powers(25)]
    + [f"{fam}:{q}" for fam in ("pgu", "pgammau") for q in (2, 3, 4, 5)]
    + [f"wreath:{a},{b}" for a in range(1, 5) for b in range(1, 5)]
    + ["stab:1:0", "stab:6:0", "stab:7:0,1,2", "stab:9:0,4,8",
       "stab:5:0,1,2,3,4", "stab:12:1,5,6,10"]
    + [f"{fam}:{n}" for fam in ("sym", "alt") for n in range(1, 9)])


@pytest.mark.parametrize("spec", KNOWN_ORDER_GRID)
def test_known_order_matches_the_full_build(spec):
    # the full Schreier-Sims of the same generators, with no order given,
    # reaches the builder's order, and the chain that stops at the known
    # order is the one the whole closing gives
    from ntcodes.cli import parse_group_spec
    G = parse_group_spec(spec)
    full = PermGroup(G.degree, G.generators)
    assert G.known_order == full.order()
    assert _chain_digest(G) == _chain_digest(full)


@pytest.mark.parametrize("spec", KNOWN_ORDER_GRID)
def test_2transitivity_of_the_grid(spec):
    from ntcodes.cli import parse_group_spec
    G = parse_group_spec(spec)
    assert G.is_2transitive() == _is_2transitive(G)


def test_known_order_builders_are_in_the_grid():
    families = {spec.partition(":")[0] for spec in KNOWN_ORDER_GRID}
    assert families == {"agl", "agammal", "pgl", "pgammal", "psl", "pgu",
                        "pgammau", "wreath", "stab", "sym", "alt"}


@pytest.mark.parametrize("make", [
    lambda: group_generators("pgammau", q=3),
    lambda: wreath_stabilizer(3, 4),
    lambda: PermGroup.symmetric(5),
    lambda: PermGroup(4, []),
    lambda: build("hyperoval_ag24")[1],
], ids=["pgammau3", "wreath34", "sym5", "trivial", "hyperoval"])
def test_wrong_known_order_raises(make):
    # the product of the basic orbits never exceeds |G|, so it never
    # reaches an order above it: the closing runs to the end and raises
    G = make()
    true = PermGroup(G.degree, G.generators).order()
    for wrong in (2 * true, true + 1):
        H = PermGroup(G.degree, G.generators, order=wrong)
        with pytest.raises(PermError, match="not the known order"):
            H.order()


@pytest.mark.parametrize("make", [
    lambda: wreath_stabilizer(3, 4),
    lambda: wreath_stabilizer(4, 3),
    lambda: PermGroup.symmetric(8),
    lambda: group_generators("pgammau", q=3),
    lambda: group_generators("agammal", n=2, q=4),
], ids=["wreath34", "wreath43", "sym8", "pgammau3", "agammal24"])
def test_closing_strips_each_edge_once(monkeypatch, make):
    # with no known order the closing runs to the end and strips the
    # Schreier generator of every orbit edge that is not a tree edge once:
    # |D| |S| - |D| + 1 at a level of basic orbit D and strong generators S
    G = make()
    G = PermGroup(G.degree, G.generators)
    strip = perm._strip
    calls = []

    def counted(*args):
        calls.append(None)
        return strip(*args)

    monkeypatch.setattr(perm, "_strip", counted)
    _, level_gens, transversals = G.bsgs()
    assert len(calls) == sum(len(tr) * len(gens) - len(tr) + 1
                             for gens, tr in zip(level_gens, transversals))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extended_chain_matches_a_fresh_build(data):
    # a chain extended by one permutation at a time has the order and the
    # members of a group built from scratch on all the generators; a build
    # with a wrong known order leaves no chain, so every bsgs() raises
    n = data.draw(st.integers(1, 8), label="degree")
    perms = st.lists(st.permutations(range(n)).map(Permutation), max_size=4)
    G = PermGroup(n, data.draw(perms, label="generators"))
    probes = data.draw(perms, label="probes")
    G.bsgs()
    for g in data.draw(perms, label="extra"):
        # the levels only gain points: old base points and coset reps stay
        base, _, transversals = G.bsgs()
        old_base, old_reps = list(base), [dict(tr) for tr in transversals]
        G.generators += (g,)
        G._extend((g,))
        fresh = PermGroup(n, G.generators)
        assert G.order() == fresh.order()
        products = [a * b for a in G.generators for b in G.generators]
        assert all((h in G) == (h in fresh) for h in probes + products)
        base, _, transversals = G.bsgs()
        assert base[:len(old_base)] == old_base
        assert all(old.items() <= tr.items()
                   for old, tr in zip(old_reps, transversals))
    assert all(g in G for g in G.generators)
    wrong = PermGroup(n, G.generators, order=G.order() + 1)
    for _ in range(2):
        with pytest.raises(PermError, match="not the known order"):
            wrong.bsgs()


def test_stabilizer_passes_its_known_order():
    G = group_generators("pgammau", q=3)
    code, _ = build("unital", q=3)
    S = G.setwise_stabilizer(code.codewords[0], orbit_size=len(code))
    assert S.known_order == G.order() // len(code) == 192
    assert S.order() == PermGroup(S.degree, S.generators).order()
    assert G.point_stabilizer(0).known_order == G.order() // 28
    assert G.setwise_stabilizer(code.codewords[0]).known_order is None


def test_subset_walker_pair_generates_the_group():
    # pgammau:3 on J(28,4): the six generators' images saved outweigh a
    # try at a pair; on J(28,3), a trivial walk or with no known order, G
    # walks itself
    G = group_generators("pgammau", q=3)
    W = G.subset_walker(math.comb(28, 4))
    assert W is not G and len(W.generators) == 2
    assert W.order() == G.order() and all(g in G for g in W.generators)
    assert G.subset_walker(math.comb(28, 4)) is W
    assert group_generators("pgammau", q=3).subset_walker(
        math.comb(28, 3)).generators == G.generators
    plain = PermGroup(G.degree, G.generators)
    assert plain.subset_walker(math.comb(28, 4)) is plain


@settings(max_examples=50)
@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_product_inverse_property(a, b):
    p, q = Permutation(a), Permutation(b)
    assert (p * q).inverse() == q.inverse() * p.inverse()
    assert p.order() >= 1


# ---- independent oracle: sympy.combinatorics ------------------------------------

def _subset_orbit_size(G, mask):
    # plain BFS over masks, sharing no code with PermGroup
    seen = {mask}
    queue = [mask]
    for m in queue:
        for g in G.generators:
            im = mask_of(g.images[x] for x in bits(m))
            if im not in seen:
                seen.add(im)
                queue.append(im)
    return len(seen)


@pytest.mark.parametrize("family,params", CATALOG,
                         ids=["-".join([f] + [f"{k}{v}" for k, v in p.items()])
                              for f, p in CATALOG])
def test_catalog_groups_against_sympy(family, params):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    code, G = build(family, **params)
    S = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in G.generators])
    assert G.order() == S.order()
    assert G.point_stabilizer(0).order() == S.stabilizer(0).order()
    assert G.is_transitive() == S.is_transitive()
    assert ((G.primitivity()[0] == "primitive")
            == (S.is_transitive() and S.is_primitive()))
    assert G.is_2transitive() == (S.transitivity_degree >= 2)
    mask = code.codewords[0]
    assert (G.setwise_stabilizer(mask).order()
            * _subset_orbit_size(G, mask)) == S.order()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chain_against_sympy(data):
    # the identity and a repeated generator add nothing to the chain; a
    # group of identities has an empty base
    combinatorics = pytest.importorskip("sympy.combinatorics")
    n = data.draw(st.integers(1, 9), label="degree")
    perms = data.draw(st.lists(st.permutations(range(n)), min_size=1,
                               max_size=4), label="generators")
    if data.draw(st.booleans(), label="identity"):
        perms[data.draw(st.integers(0, len(perms) - 1))] = list(range(n))
    if len(perms) > 1 and data.draw(st.booleans(), label="repeat"):
        perms[-1] = perms[0]
    gens = [Permutation(p) for p in perms]
    G = PermGroup(n, gens)
    S = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p)) for p in perms])
    assert G.order() == S.order()
    assert all(g in G for g in gens)
    g = Permutation.identity(n)
    for h in data.draw(st.lists(st.sampled_from(gens), max_size=12),
                       label="word"):
        g = g * h
    assert G.sift(g).is_identity()

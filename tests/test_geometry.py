"""Finite geometry and group construction tests."""

from itertools import combinations, product
from math import comb

import pytest

from ntcodes import codes, geometry
from ntcodes.geometry import (GeometryError, build_space,
                              group_generators, hermitian_form,
                              hyperoval_setting, lines,
                              restrict_group, standard_baer_subline)
from ntcodes.perm import Permutation, bits, mask_of


# ---- point sets ---------------------------------------------------------------

@pytest.mark.parametrize("n,q,count", [(1, 16, 16), (2, 4, 16), (3, 2, 8),
                                       (2, 9, 81)])
def test_affine_point_counts(n, q, count):
    assert len(build_space("affine", n=n, q=q)) == count


@pytest.mark.parametrize("n,q,count", [(2, 9, 10), (3, 4, 21), (3, 2, 7),
                                       (3, 3, 13), (2, 4, 5)])
def test_projective_point_counts(n, q, count):
    space = build_space("projective", n=n, q=q)
    assert len(space) == count == (q ** n - 1) // (q - 1)
    # normalization: first nonzero coordinate is 1, order is lexicographic
    for pt in space.points:
        assert next(c for c in pt if c) == 1
    assert list(space.points) == sorted(space.points)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_projective_points_match_normalizing_every_vector(n, q):
    # the listing by leading coordinate against normalizing all q^n
    # vectors, dropping zero and duplicates, and sorting
    from itertools import product
    from ntcodes.gf import GF
    F = GF(q)
    old = sorted({geometry._normalize(F, vec)
                  for vec in product(F.elements(), repeat=n)} - {None})
    assert geometry._projective_points(F, n) == old


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermitian_isotropic_counts(q):
    space = build_space("hermitian_isotropic", q=q)
    assert len(space) == q ** 3 + 1
    F = space.field
    for pt in space.points:
        assert hermitian_form(F, pt, pt) == 0


def test_space_size_cap():
    with pytest.raises(GeometryError):
        build_space("affine", n=4, q=9)


# ---- lines --------------------------------------------------------------------

def test_line_counts():
    pg24 = build_space("projective", n=3, q=4)
    ls2 = lines(pg24)
    assert len(ls2) == 21
    assert all(len(l) == 5 for l in ls2)
    with pytest.raises(GeometryError):
        lines(build_space("affine", n=2, q=4))


def _gaussian_binomial_2(n, q):
    """The number of 2-spaces of F_q^n, the lines of PG(n-1,q)."""
    return (q ** n - 1) * (q ** (n - 1) - 1) // ((q * q - 1) * (q - 1))


# (n, q) of PG(n-1,q)
LINE_SPACES = [(3, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(4, 2), (4, 3),
                                                          (5, 2)]


@pytest.mark.parametrize("n,q", LINE_SPACES)
def test_lines_join_every_pair_once(n, q):
    space = build_space("projective", n=n, q=q)
    ls = lines(space)
    assert len(ls) == _gaussian_binomial_2(n, q)
    assert all(len(line) == q + 1 for line in ls)
    assert ls == sorted(ls) and all(list(l) == sorted(l) for l in ls)
    # every pair of points lies on exactly one line
    pairs = [pair for line in ls for pair in combinations(line, 2)]
    assert len(pairs) == len(set(pairs)) == len(space) * (len(space) - 1) // 2


def _lines_pairwise(space):
    """The lines of a projective space, spanned from every pair of points."""
    F = space.field
    out = set()
    for i, j in combinations(range(len(space)), 2):
        p, r = space.points[i], space.points[j]
        pts = {i, j}
        for t in F.units():
            vec = [F.add(e, F.mul(t, f)) for e, f in zip(p, r)]
            lead = F.inv(next(e for e in vec if e))
            pts.add(space.index[tuple(F.mul(lead, e) for e in vec)])
        out.add(tuple(sorted(pts)))
    return sorted(out)


@pytest.mark.parametrize("n,q", [(3, 4), (4, 3)])
def test_lines_match_the_pairwise_spans(n, q):
    space = build_space("projective", n=n, q=q)
    assert lines(space) == _lines_pairwise(space)


def test_two_projective_lines_meet_in_one_point():
    space = build_space("projective", n=3, q=3)
    ls = lines(space)
    for a, b in combinations(ls, 2):
        assert len(set(a) & set(b)) == 1


def test_line_class():
    # the hyperoval meets every line of PG(2,4) in 0 or 2 points
    space = build_space("projective", n=3, q=4)
    _, hmask, _, _ = hyperoval_setting()
    assert sorted({(hmask & mask_of(line)).bit_count()
                   for line in lines(space)}) == [0, 2]


# ---- groups -------------------------------------------------------------------

GROUP_ORDERS = [
    (("agammal", {"n": 1, "q": 16}), 960),
    (("agl", {"n": 1, "q": 16}), 240),
    (("agl", {"n": 2, "q": 3}), 9 * 48),
    (("pgl", {"n": 2, "q": 9}), 720),
    (("pgammal", {"n": 2, "q": 9}), 1440),
    (("psl2", {"q": 9}), 360),
    (("pgl", {"n": 3, "q": 4}), 60480),
    (("pgammal", {"n": 3, "q": 4}), 120960),
    (("pgu", {"q": 3}), 6048),
    (("pgammau", {"q": 3}), 12096),
    (("pgammau", {"q": 4}), 249600),
]


@pytest.mark.parametrize("spec,order", GROUP_ORDERS)
def test_group_orders(spec, order):
    family, params = spec
    assert group_generators(family, **params).order() == order


@pytest.mark.parametrize("spec", [("agammal", {"n": 1, "q": 16}),
                                  ("agammal", {"n": 2, "q": 3}),
                                  ("pgammal", {"n": 2, "q": 9}),
                                  ("pgammal", {"n": 3, "q": 2}),
                                  ("pgammau", {"q": 3})])
def test_groups_are_2transitive(spec):
    family, params = spec
    assert group_generators(family, **params).is_2transitive()


def test_generators_are_bijections_on_the_space():
    # perm_from_map raises if a generator image leaves the point set, so a
    # successful build already certifies isotropy preservation; re-check.
    G = group_generators("pgammau", q=3)
    space = build_space("hermitian_isotropic", q=3)
    F = space.field
    iso = set(space.points)
    for g in G.generators:
        assert sorted(g.images) == list(range(28))
        for i, pt in enumerate(space.points):
            assert space.points[g(i)] in iso


def test_unknown_family_rejected():
    with pytest.raises(GeometryError):
        group_generators("sporadic", q=5)


def test_wreath_blocks():
    blocks = geometry.partition_blocks(3, 3)
    G = geometry.wreath_stabilizer(3, 3)
    bset = set(blocks)
    for g in G.generators:
        assert {g.apply_mask(b) for b in blocks} == bset


# ---- derived structures ---------------------------------------------------------

def unital_by_scan(q):
    """The blocks of the classical unital by the all-pairs scan: for each
    non-isotropic point m of PG(2,q^2), the isotropic points x with
    phi(x, m) = 0, as ascending masks."""
    space = build_space("hermitian_isotropic", q=q)
    F = space.field
    blocks = set()
    for m in product(F.elements(), repeat=3):
        if not any(m) or next(e for e in m if e) != 1:
            continue
        if hermitian_form(F, m, m) == 0:
            continue
        blocks.add(mask_of(i for i, x in enumerate(space.points)
                           if hermitian_form(F, x, m) == 0))
    return sorted(blocks)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_unital_orbit_matches_the_scan(q):
    code, _ = codes.build("unital", q=q)
    assert code.codewords == tuple(unital_by_scan(q))
    assert (code.v, code.k, len(code)) == (q ** 3 + 1, q + 1,
                                           q * q * (q * q - q + 1))


@pytest.mark.parametrize("q,blocks", [(3, 63), (4, 208)])
def test_unital_block_counts(q, blocks):
    masks = codes.build("unital", q=q)[0].codewords
    assert all(m >> (q ** 3 + 1) == 0 for m in masks)
    assert {len(list(bits(m))) for m in masks} == {q + 1}
    assert len(masks) == blocks


def test_unital_is_a_2_design():
    masks = codes.build("unital", q=3)[0].codewords
    for pair in combinations(range(28), 2):
        pm = mask_of(pair)
        assert sum(1 for b in masks if b & pm == pm) == 1


def test_unital_q7_is_a_2_design():
    # 2,107 blocks of 8 points carry 2,107 * 28 = C(344,2) pairs, so every
    # pair of points lies on one block when no pair is counted twice
    code, _ = codes.build("unital", q=7)
    assert (code.v, code.k, len(code)) == (344, 8, 2107)
    pairs = {pair for b in code.codewords for pair in combinations(bits(b), 2)}
    assert len(pairs) == len(code) * comb(8, 2) == comb(344, 2)


def test_baer_sublines():
    code, _ = codes.build("baer_subline", q0=3)
    assert (code.v, code.k, len(code)) == (10, 4, 30)
    assert not code.degenerate
    code2, _ = codes.build("baer_subline", q0=2)
    assert len(code2) == 10 and code2.degenerate


def test_standard_baer_subline_contains_infinity_zero_one():
    space, mask = standard_baer_subline(3)
    pts = {space.points[i] for i in bits(mask)}
    assert (0, 1) in pts and (1, 0) in pts and (1, 1) in pts


def test_hyperoval_setting():
    space, hmask, ext, externals = hyperoval_setting()
    assert bin(hmask).count("1") == 6
    assert len(externals) == 6
    assert ext == min(externals)
    assert all(not (e & hmask) for e in externals)


def test_restrict_group():
    big = group_generators("pgammal", n=3, q=4)
    _, hmask, ext, _ = hyperoval_setting()
    stab = big.setwise_stabilizer(ext)
    # the line orbit is all 21 lines: a walk that stops at |G| / 21
    # gives the same generators
    short = group_generators("pgammal", n=3, q=4)
    assert short.setwise_stabilizer(ext, orbit_size=21).generators \
        == stab.generators
    assert len(big.subset_orbit(ext)) == 21
    # restrict_group restricts each of the stabilizer's few generators;
    # tests/test_perm.py pins the chain of this restriction
    small = restrict_group(stab, ((1 << 21) - 1) ^ ext)
    assert small.degree == 16
    assert len(small.generators) == len(stab.generators) <= 8
    assert small.order() == stab.order() == 5760
    with pytest.raises(GeometryError):
        restrict_group(big, ext)  # not invariant under the full group

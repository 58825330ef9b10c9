"""Construction catalog, transitivity property checkers, and the exhaustive
desk-scale classification search.

Every family builds a (Code, PermGroup) pair: the code in J(v,k) and the
acting group used to verify its properties.  All checks are exact orbit
computations; resource caps surface as "not computed" (None), never as a
silently false flag.
"""

from functools import cached_property
from itertools import combinations
from math import comb, factorial, perm, prod

from . import geometry, johnson
from .johnson import Code
from .perm import (DEFAULT_ORBIT_CAP, PermGroup, Permutation,
                   ResourceCapError, bits, check_degree, mask_of, popcount)


class ConstructionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def _orbit_code(setting, name, params, notes=None, *, size):
    """(C, G): C the union of the G-orbits of the subsets reps, a code in
    J(G.degree, |reps[0]|), where setting() gives (G, reps).  size is the
    code's size in closed form, from parameters the builder has checked;
    over DEFAULT_ORBIT_CAP it raises the walk's ResourceCapError before
    setting is called, so no space, group or walk is built, and a walk
    that finds another number of codewords raises ConstructionError."""
    if size > DEFAULT_ORBIT_CAP:
        raise ResourceCapError(f"orbit exceeds cap {DEFAULT_ORBIT_CAP}")
    G, reps = setting()
    code = Code(G.degree, popcount(reps[0]),
                [m for rep in reps for m in G.subset_orbit(rep)],
                name=name, params=params, notes=notes)
    if len(code) != size:
        raise ConstructionError(
            f"{name}: the orbits have {len(code)} members, not {size}")
    return code, G


def build_intransitive(v, u, k):
    """All k-subsets of a u-set U = {0..u-1} (u>k), U itself (u=k), or all
    k-subsets containing U (u<k): the orbit of {0..k-1} under the group
    Stab(U) = Sym(U) x Sym(rest)."""
    if not (0 < u < v) or not (2 <= k <= v - 2):
        raise ConstructionError("need 0 < u < v and 2 <= k <= v-2")
    check_degree(v)
    variant = "a" if u > k else "b" if u == k else "c"
    return _orbit_code(lambda: (geometry.subset_stabilizer(v, range(u)),
                                [mask_of(range(k))]),
                       f"intransitive(v={v},u={u},k={k})",
                       {"v": v, "u": u, "k": k, "variant": variant},
                       size=comb(u, k) if u >= k else comb(v - u, k - u))


def utype_target(a, b, line, k=None, c=None):
    """The part-intersection type for one line of the type table, and k.
    Line 5 takes c, and k only as c*b; every other line takes k alone."""
    v = a * b
    if c is not None and line != 5:
        raise ConstructionError(f"line {line} takes k, not c")
    if line == 1:
        if k is None or not 2 <= k <= a:
            raise ConstructionError("line 1 needs 2 <= k <= a")
        return (k,), k
    if line == 2:
        if k is None or not (v - a + 1 <= k <= v - 2):
            raise ConstructionError("line 2 needs v-a < k <= v-2")
        return tuple(sorted((k - v + a,) + (a,) * (b - 1))), k
    if line == 3:
        if k is None or not 2 <= k <= b:
            raise ConstructionError("line 3 needs 2 <= k <= b")
        return (1,) * k, k
    if line == 4:
        if k is None or not v - b <= k <= v - 2:
            raise ConstructionError("line 4 needs v-b <= k <= v-2")
        return tuple(sorted((a - 1,) * (v - k) + (a,) * (b - v + k))), k
    if line == 5:
        if c is None or not 1 < c <= a - 1:
            raise ConstructionError("line 5 needs 1 < c <= a-1")
        if k is not None and k != c * b:
            raise ConstructionError("line 5 needs k = c*b, or no k")
        return (c,) * b, c * b
    if line == 6:
        if b != 2 or a < 3 or k is None or k % 2 == 0:
            raise ConstructionError("line 6 needs b=2, a>=3, k odd")
        return ((k - 1) // 2, (k + 1) // 2), k
    if line == 7:
        if a != 2 or b < 3 or k is None or k % 2 == 0:
            raise ConstructionError("line 7 needs a=2, b>=3, k odd")
        return tuple(sorted((1,) + (2,) * ((k - 1) // 2))), k
    raise ConstructionError(f"no type-table line {line}")


def utype_gamma1_target(a, b, line, k=None, c=None):
    """The expected single type of the neighbour set, zero entries dropped."""
    v = a * b
    if line == 1:
        raw = (1, k - 1)
    elif line == 2:
        raw = (k - v + a + 1, a - 1) + (a,) * (b - 2)
    elif line == 3:
        raw = (1,) * (k - 2) + (2,)
    elif line == 4:
        raw = (a - 2,) + (a - 1,) * (v - k - 2) + (a,) * (b - v + k + 1)
    elif line == 5:
        raw = (c - 1, c + 1) + (c,) * (b - 2)
    elif line == 6:
        raw = ((k - 3) // 2, (k + 3) // 2)
    elif line == 7:
        raw = (1, 1, 1) + (2,) * ((k - 3) // 2)
    else:
        raise ConstructionError(f"no type-table line {line}")
    return tuple(sorted(x for x in raw if x > 0))


def build_utype(a, b, line, k=None, c=None):
    """All k-subsets of one fixed part-intersection type: the orbit, under
    the partition stabilizer S_a wr S_b, of the k-set that meets part i of
    the b consecutive a-blocks in its first target[i] points.  The class is
    empty unless the target has at most b entries, each in 1..a, summing
    to k.  Its size is prod C(a, t_i) * b! / ((b - r)! prod m_j!) over the
    r entries t_i of the target, m_j the multiplicity of each value."""
    if a < 2 or b < 2:
        raise ConstructionError("need a > 1 and b > 1")
    check_degree(a * b)
    target, k = utype_target(a, b, line, k=k, c=c)
    if (len(target) > b or not 0 < min(target) <= max(target) <= a
            or sum(target) != k):
        raise ConstructionError("type class is empty")
    size = (prod(comb(a, t) for t in target) * perm(b, len(target))
            // prod(factorial(target.count(t)) for t in set(target)))
    rep = mask_of(i * a + j for i, t in enumerate(target) for j in range(t))
    return _orbit_code(lambda: (geometry.wreath_stabilizer(a, b), [rep]),
                       f"utype(a={a},b={b},line={line},k={k})",
                       {"a": a, "b": b, "line": line, "k": k, "c": c},
                       size=size)


def blowup_code(a, gamma0):
    """Blow each codeword of a code in J(b,k0) up to a union of a-blocks."""
    if a < 2:
        raise ConstructionError("need a >= 2")
    b = gamma0.v
    words = [mask_of(x for i in bits(w0) for x in range(i * a, (i + 1) * a))
             for w0 in gamma0.codewords]
    return Code(a * b, a * gamma0.k, words,
                name=f"blowup(a={a},{gamma0.name or 'inner'})",
                params={"a": a, "b": b, "k0": gamma0.k})


def build_blowup(a, b, k0):
    """Blow-up of the full vertex set of J(b,k0), blowup_code of all of
    J(b,k0): the C(b,k0) unions of k0 of the b consecutive a-blocks, the
    orbit of the first k0 under the partition stabilizer S_a wr S_b."""
    if b < 4 or not 1 <= k0 <= b - 1:
        raise ConstructionError("need b >= 4 and 1 <= k0 <= b-1")
    if a < 2:
        raise ConstructionError("need a >= 2")
    check_degree(a * b)
    return _orbit_code(lambda: (geometry.wreath_stabilizer(a, b),
                                [mask_of(range(a * k0))]),
                       f"blowup(a={a},J({b},{k0}))",
                       {"a": a, "b": b, "k0": k0}, size=comb(b, k0))


def _gaussian_binomial(n, s, q):
    """[n s]_q, the number of s-dimensional subspaces of F_q^n."""
    return (prod(q ** (n - i) - 1 for i in range(s))
            // prod(q ** (i + 1) - 1 for i in range(s)))


def _subspace(kind, group, n, q, s):
    """The orbit of the span of the first s unit vectors, in the affine or
    projective space of F_q^n, under the named group on that space: the
    [n s]_q subspaces of F_q^n, each with its q^(n-s) cosets when
    affine."""
    if not 1 <= s < n:
        raise ConstructionError("need 1 <= s < n")
    geometry.point_count(kind, n=n, q=q)

    def setting():
        space = geometry.build_space(kind, n=n, q=q)
        return geometry.group_generators(group, n=n, q=q), [mask_of(
            space.index[pt] for pt in space.points
            if all(e == 0 for e in pt[s:]))]
    return _orbit_code(setting, f"{kind}_subspace(n={n},q={q},s={s})",
                       {"n": n, "q": q, "s": s},
                       size=_gaussian_binomial(n, s, q)
                       * (q ** (n - s) if kind == "affine" else 1))


def build_affine_subspace(n, q, s):
    """All affine s-dimensional subspaces of AG(n,q); group = AGammaL(n,q)."""
    return _subspace("affine", "agammal", n, q, s)


def build_projective_subspace(n, q, s):
    """All (s-1)-dimensional subspaces of PG(n-1,q); group = PGammaL(n,q)."""
    return _subspace("projective", "pgammal", n, q, s)


def build_subfield_line():
    """Orbit of the order-4 subfield of GF(16) under AGammaL(1,16): its
    16 * 15 / 12 = 20 images x -> ax + b."""
    from .gf import GF
    return _orbit_code(
        lambda: (geometry.group_generators("agammal", n=1, q=16),
                 [mask_of(GF(16).subfield_elements(2))]),
        "subfield_line", {"q": 16, "subfield": 4}, size=20)


def build_hyperoval_ag24():
    """Orbit of the PG(2,4) hyperoval inside the 16 points off an external
    line, under the stabilizer of that line in PGammaL(3,4): the 48
    hyperovals of PG(2,4) that miss the line.

    Point i is the i-th smallest PG(2,4) point off the line.  The line's
    stabilizer acts on these points as AGammaL(2,4) in the affine chart
    that sends the line to the line at infinity, so G is AGammaL(2,4)
    relabelled through that chart, with its order 16 * |GL(2,4)| * 2 =
    5760 = |PGammaL(3,4)| / 21."""
    def setting():
        space, hmask, ext, _ = geometry.hyperoval_setting()
        chart = geometry.affine_chart(space, ext)
        label = {a: i for i, a in enumerate(chart.values())}
        A = geometry.group_generators("agammal", n=2, q=4)
        G = PermGroup(len(chart), [Permutation([label[g.images[a]]
                                                for a in chart.values()])
                                   for g in A.generators],
                      order=A.known_order)
        relabel = {p: i for i, p in enumerate(chart)}
        return G, [mask_of(relabel[p] for p in bits(hmask))]
    return _orbit_code(setting, "hyperoval_ag24", {"q": 4}, size=48)


_BAER_NOTE = ("pairwise subline intersections of size at most 1 would give "
              "minimum distance q0; the computed minimum distance is "
              "reported instead and may be smaller (for q0=3 it is 2, since "
              "two blocks of the 3-(10,4,1) design can share 2 points)")


def build_baer_subline(q0):
    """Orbit of the standard Baer subline under PGammaL(2,q0^2): the
    q0(q0^2+1) Baer sublines of PG(1,q0^2)."""
    if q0 < 2:
        raise ConstructionError(f"need q0 >= 2, got q0={q0}")
    geometry.point_count("projective", n=2, q=q0 * q0)
    return _orbit_code(
        lambda: (geometry.group_generators("pgammal", n=2, q=q0 * q0),
                 [geometry.standard_baer_subline(q0)[1]]),
        f"baer_subline(q0={q0})", {"q0": q0}, [_BAER_NOTE],
        size=q0 * (q0 * q0 + 1))


def build_unital(q):
    """The blocks of the classical unital, the isotropic points polar to a
    non-isotropic point: one PGammaU(3,q)-orbit of q^2(q^2-q+1) blocks,
    that of the block polar to e2; group = PGammaU(3,q)."""
    geometry.point_count("hermitian_isotropic", q=q)

    def setting():
        space = geometry.build_space("hermitian_isotropic", q=q)
        return (geometry.group_generators("pgammau", q=q),
                [geometry.polar_block(space, (0, 1, 0))])
    return _orbit_code(setting, f"unital(q={q})", {"q": q},
                       size=q * q * (q * q - q + 1))


def build_ovoid_circles():
    """The 30 'circles' on a 10-point ovoid: realized as the PGL(2,9)-orbit
    of a Baer subline of PG(1,9), re-checked as a 3-(10,4,1) design."""
    code, G = _orbit_code(
        lambda: (geometry.group_generators("pgl", n=2, q=9),
                 [geometry.standard_baer_subline(3)[1]]),
        "ovoid_circles", {}, [_BAER_NOTE], size=30)
    for triple in combinations(range(code.v), 3):
        tm = mask_of(triple)
        if sum(1 for w in code.codewords if w & tm == tm) != 1:
            raise ConstructionError("circle orbit is not a 3-(10,4,1) design")
    return code, G


def build_psl2_orbit(q):
    """One of the two PSL(2,q)-orbits on 3-subsets of PG(1,q), q = 1 mod 4,
    each of C(q+1,3)/2."""
    if q % 4 != 1 or q <= 5:
        raise ConstructionError("need q = 1 mod 4 and q > 5")
    geometry.point_count("projective", n=2, q=q)

    def setting():
        index = geometry.build_space("projective", n=2, q=q).index
        return geometry.group_generators("psl2", q=q), [mask_of(
            index[pt] for pt in ((0, 1), (1, 0), (1, 1)))]
    return _orbit_code(setting, f"psl2_orbit(q={q})", {"q": q},
                       size=comb(q + 1, 3) // 2)


def build_j93():
    """The J(9,3) union code: the 27 transversals of a 3x3 partition plus the
    3 parts, the orbits of {0,3,6} and of {0,1,2}; group = S_3 wr S_3
    (transitive on the neighbour set only)."""
    return _orbit_code(lambda: (geometry.wreath_stabilizer(3, 3),
                                [mask_of(range(3)), mask_of((0, 3, 6))]),
                       "j93", {}, size=3 + 27)


def build_unitary_bases():
    """The 63 'bases' of the 28-point unitary geometry for q=3: the
    self-polar triangles of the Hermitian form, i.e. orthogonal bases of
    non-isotropic points. A triangle's codeword is the union of the three
    unital blocks polar to its points, 3 x 4 = 12 isotropic points, and
    PGammaU(3,3) permutes the 63 of them transitively; the representative
    is the triangle e2, e1+e3, e1-e3.
    """
    def setting():
        space = geometry.build_space("hermitian_isotropic", q=3)
        rep = 0
        for m in (0, 1, 0), (1, 0, 1), (1, 0, space.field.neg(1)):
            rep |= geometry.polar_block(space, m)
        if popcount(rep) != 12:
            raise ConstructionError("a self-polar triangle should cover 12 "
                                    "isotropic points")
        return geometry.group_generators("pgammau", q=3), [rep]
    return _orbit_code(setting, "unitary_bases", {"q": 3}, size=63)


# family -> (builder, its parameters, what it builds); cli's catalog lists
# the families in this order
FAMILIES = {
    "intransitive": (build_intransitive,
                     "v, u, k (variant a/b/c chosen by u vs k)",
                     "k-subsets of, equal to, or containing a fixed u-set"),
    "utype": (build_utype, "a, b, line (1-7), k or c",
              "all k-subsets with one fixed part-intersection type"),
    "blowup": (build_blowup, "a, b, k0 (full inner vertex set; b >= 4)",
               "unions of whole parts indexed by a smaller code"),
    "affine_subspace": (build_affine_subspace, "n, q, s (1 <= s < n)",
                        "affine s-dimensional subspaces of AG(n,q)"),
    "subfield_line": (build_subfield_line,
                      "none (fixed: order-4 subfield of GF(16))",
                      "AGammaL(1,16)-orbit of the GF(4) subfield"),
    "hyperoval_ag24": (build_hyperoval_ag24,
                       "none (fixed: PG(2,4) hyperoval off an external line)",
                       "hyperoval orbit in the 16 points off an external "
                       "line"),
    "projective_subspace": (build_projective_subspace,
                            "n, q, s (1 <= s < n)",
                            "(s-1)-dimensional subspaces of PG(n-1,q)"),
    "baer_subline": (build_baer_subline,
                     "q0 a prime power, q0^2+1 <= 4096 points (q0=2 is "
                     "degenerate)",
                     "PGammaL(2,q0^2)-orbit of the standard Baer subline"),
    "unital": (build_unital, "q a prime power, q^3+1 <= 4096 points",
               "blocks of the classical unital on q^3+1 isotropic points"),
    "ovoid_circles": (build_ovoid_circles,
                      "none (fixed: 30 circles on a 10-point ovoid)",
                      "blocks of the 3-(10,4,1) design of ovoid circles"),
    "psl2_orbit": (build_psl2_orbit, "q = 1 mod 4, q > 5",
                   "one PSL(2,q)-orbit on 3-subsets of the projective line"),
    "j93": (build_j93, "none (fixed: 27 transversals + 3 parts in J(9,3))",
            "transversals plus parts of a 3x3 partition of 9 points"),
    "unitary_bases": (build_unitary_bases,
                      "none (fixed: 63 12-subsets of 28 points)",
                      "normalizer-defined 12-subsets in the unitary "
                      "geometry"),
}

_BUILD_CACHE = {}


def build(family, **params):
    """Memoized (Code, PermGroup) construction by family name."""
    if family not in FAMILIES:
        raise ConstructionError(f"unknown family {family!r}")
    key = (family, tuple(sorted(params.items())))
    if key not in _BUILD_CACHE:
        _BUILD_CACHE[key] = FAMILIES[family][0](**params)
    return _BUILD_CACHE[key]


# Catalog entries covered by the theorem-consistency suite.
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


# ---------------------------------------------------------------------------
# property checking
# ---------------------------------------------------------------------------

def _one_orbit(quotient, chosen):
    """The one-orbit test on the union of the orbits numbered chosen, which
    run in_order: (True, None) for one orbit, else (False, (smallest member
    of the first, smallest member of the second)), the witness
    PermGroup.transitive_witness gives on that union."""
    if len(chosen) == 1:
        return True, None
    return False, (quotient.reps[chosen[0]], quotient.reps[chosen[1]])


class _Facts:
    """What the flags of one union of G-orbits on k-subsets share, each
    computed at most once.  quotient is the OrbitQuotient of J(v,k) by G,
    chosen the numbers of the code's orbits in_order, and gamma, codeword
    0, the smallest member of the first.  The code's orbits, Gamma_1's
    orbits (those adjacent to a code orbit and not in the code) and the
    distance partition are read off the quotient's rows; the stabilizer
    G_gamma is bounded by quotient.cap.  partition_error, when given, is
    why the distance partition is not computed (the partition flags are
    then None), and then only the orbits reached from the code are needed.
    """

    def __init__(self, G, quotient, chosen, partition_error=None):
        self.G = G
        self.quotient = quotient
        self.chosen = chosen
        self.partition_error = partition_error
        self.gamma = quotient.reps[chosen[0]]

    @cached_property
    def code_orbit(self):
        return _one_orbit(self.quotient, self.chosen)

    @cached_property
    def gamma1_orbits(self):
        q = self.quotient
        near = set().union(*(q.row(i) for i in self.chosen))
        return q.in_order(near.difference(self.chosen))

    @cached_property
    def gamma1_size(self):
        return sum(self.quotient.sizes[i] for i in self.gamma1_orbits)

    @cached_property
    def gamma1_orbit(self):
        """The one-orbit test on a non-empty Gamma_1."""
        return _one_orbit(self.quotient, self.gamma1_orbits)

    @cached_property
    def stabilizer(self):
        """G_gamma.  The size of gamma's orbit is known, so the stabilizer's
        orbit walk stops as soon as its kept generators generate all of
        G_gamma (see PermGroup.stabilizer)."""
        q = self.quotient
        return self.G.setwise_stabilizer(
            self.gamma, cap=q.cap, orbit_size=q.sizes[self.chosen[0]])

    @cached_property
    def partition(self):
        """OrbitQuotient.partition of the code's orbits, or None."""
        if self.partition_error is None:
            return self.quotient.partition(self.chosen)


# Each flag maps _Facts to (value, witness): value is True, False, or None
# when the distance partition is not computed; the witness backs a False.

_NOT_ONE_ORBIT = ("code is not a single orbit",)
_PAIRS_SPLIT = ("pair action on gamma x complement splits",)


def _code_transitive(f):
    return f.code_orbit


def _gamma1_transitive(f):
    if not f.gamma1_size:
        return False, ("neighbour set is empty",)
    return f.gamma1_orbit


def _neighbour_transitive(f):
    if f.code_orbit[0] and f.gamma1_size:
        return f.gamma1_orbit
    return f.code_orbit


def _incidence_transitive(f):
    """Single G-orbit on adjacent (codeword, neighbour) pairs: for a
    single-orbit code, by orbit-stabilizer, G_gamma transitive on the
    neighbours of gamma in Gamma_1, which are its neighbours outside the
    code."""
    if not f.code_orbit[0]:
        return False, _NOT_ONE_ORBIT
    q = f.quotient
    local = {nb for nb in johnson.vertex_neighbours(f.gamma, q.v)
             if q.orbit_of(nb) not in f.chosen}
    witness = f.stabilizer.transitive_witness(local) if local else None
    return witness is None, witness


def _strong_pairs(f):
    """G_gamma transitive on (point of gamma) x (point outside gamma).

    By orbit-stabilizer, a G_gamma transitive on those k(v-k) pairs has
    an order that k(v-k) divides, and |G_gamma| = |G| / |orbit of gamma|.
    So when k(v-k) > 0 does not divide it, the pairs split and G_gamma is
    not formed."""
    q = f.quotient
    pairs = q.k * (q.v - q.k)
    if pairs and (f.G.order() // q.sizes[f.chosen[0]]) % pairs:
        return False, _PAIRS_SPLIT
    gamma = f.gamma
    inside = list(bits(gamma))
    outside = [x for x in range(q.v) if not (gamma >> x) & 1]
    ok = f.stabilizer.is_transitive_on_product(inside, outside)
    return ok, None if ok else _PAIRS_SPLIT


def _strongly(f):
    if not f.code_orbit[0]:
        return False, _NOT_ONE_ORBIT
    return _strong_pairs(f)


def _completely_transitive(f):
    """Every cell of the distance partition is one orbit; the witness is
    the smallest vertex of the first split cell and the smallest member of
    its second orbit.  The cells of an early-stopped partition hold that
    cell (see OrbitQuotient.partition)."""
    if f.partition is None:
        return None, None
    for cell in f.partition[0]:
        if len(cell) > 1:
            return _one_orbit(f.quotient, cell)
    return True, None


def _completely_regular(f):
    if f.partition is None:
        return None, None
    _, ok, detail = f.partition
    return ok, None if ok else detail


FLAGS = {
    "code_transitive": _code_transitive,
    "neighbour_transitive": _neighbour_transitive,
    "gamma1_transitive": _gamma1_transitive,
    "incidence_transitive": _incidence_transitive,
    "strongly_incidence_transitive": _strongly,
    "completely_transitive": _completely_transitive,
    "completely_regular": _completely_regular,
}


class PropertyReport:
    """Verified facts about a (Code, PermGroup) pair.

    Flags are True, False, or None when a resource cap prevented the
    computation.  Every False flag carries a witness.
    """

    FLAG_ORDER = ("code_transitive", "neighbour_transitive",
                  "incidence_transitive", "strongly_incidence_transitive",
                  "completely_transitive", "completely_regular")

    def __init__(self, code, group_order, flags, witnesses, delta, gamma1_size,
                 group_facts, intersection_numbers=None, notes=None):
        self.code = code
        self.group_order = group_order
        self.flags = flags
        self.witnesses = witnesses
        self.delta = delta
        self.gamma1_size = gamma1_size
        self.group_facts = group_facts
        self.intersection_numbers = intersection_numbers
        self.notes = list(notes or [])

    def as_dict(self):
        d = {
            "v": self.code.v,
            "k": self.code.k,
            "name": self.code.name,
            "code_size": len(self.code),
            "neighbour_set_size": self.gamma1_size,
            "min_distance": self.delta,
            "degenerate": self.code.degenerate,
            "group_order": self.group_order,
        }
        for key in ("transitive_on_V", "primitive_on_V", "two_transitive_on_V"):
            d[key] = self.group_facts[key]
        for flag in self.FLAG_ORDER:
            d[flag] = self.flags[flag]
        d["witnesses"] = {k: list(map(str, w))
                          for k, w in self.witnesses.items()}
        if self.intersection_numbers is not None:
            d["intersection_numbers"] = self.intersection_numbers
        d["notes"] = self.notes
        return d


def check_properties(code, G, cap_orbit=DEFAULT_ORBIT_CAP,
                     cap_partition=johnson.DEFAULT_PARTITION_CAP):
    if G.degree != code.v:
        raise ValueError("group degree does not match the code's point set")
    for g in G.generators:
        for w in code.codewords:
            if g.apply_mask(w) not in code:
                raise ValueError(
                    "group does not preserve the code (not an automorphism "
                    f"group: generator moves a codeword out of the code)")
    # the whole quotient within the caps, else only the orbits that the
    # flags reach from the code, and the partition flags are None
    quotient = johnson.OrbitQuotient(G, code.k, cap_orbit)
    partition_error = None
    try:
        quotient.fill(cap_partition)
    except ResourceCapError as exc:
        partition_error = exc
    chosen = quotient.orbits_of(code.codewords)
    facts = _Facts(G, quotient, chosen, partition_error)
    flags = {}
    witnesses = {}
    for name in PropertyReport.FLAG_ORDER:
        flags[name], wit = FLAGS[name](facts)
        if flags[name] is False:
            witnesses[name] = wit
    notes = list(code.notes)
    if partition_error is not None:
        notes.append(f"distance partition not computed: {partition_error}")
    intersection_numbers = (facts.partition[2]
                            if flags["completely_regular"] else None)
    # G preserves distance and moves each codeword onto its orbit's rep
    # r, so delta is the least k - |r meet c| over those r and c != r
    delta = (code.k - max(popcount(quotient.reps[i] & c) for i in chosen
                          for c in code.codewords if c != quotient.reps[i])
             if len(code) > 1 else None)

    # a 2-transitive group is primitive, so primitivity's v-1 block
    # searches run only for a group that is not
    two_transitive = G.is_2transitive()
    group_facts = {
        "transitive_on_V": G.is_transitive(),
        "primitive_on_V": (two_transitive
                           or G.primitivity()[0] == "primitive"),
        "two_transitive_on_V": two_transitive,
    }
    return PropertyReport(code, G.order(), flags, witnesses,
                          delta, facts.gamma1_size, group_facts,
                          intersection_numbers=intersection_numbers,
                          notes=notes)


def check_theorem_consistency(code, G=None, report=None):
    """Consistency of one report with the structural implications.

    Checks, treating an undefined minimum distance (singleton code) as
    satisfying every lower bound:
      1. strongly incidence-transitive iff incidence-transitive and
         delta >= 2;
      2. delta >= 3 and neighbour-transitive implies strongly
         incidence-transitive;
      3. primitive on points and strongly incidence-transitive implies
         2-transitive on points;
      4. the flag chain strongly => incidence => neighbour => code-transitive
         and completely transitive => neighbour-transitive.
    Returns (passed, failures); a failure names the violated implication.
    """
    if report is None:
        report = check_properties(code, G)
    f = report.flags
    delta = report.delta
    d_ge = lambda c: delta is None or delta >= c
    failures = []
    strongly = f["strongly_incidence_transitive"]
    if strongly != (f["incidence_transitive"] and d_ge(2)):
        failures.append(
            "strongly <=> (incidence-transitive and delta >= 2) violated")
    if d_ge(3) and f["neighbour_transitive"] and not strongly:
        failures.append(
            "delta >= 3 and neighbour-transitive must imply strongly")
    if (report.group_facts["primitive_on_V"] and strongly
            and not report.group_facts["two_transitive_on_V"]):
        failures.append(
            "primitive and strongly must imply 2-transitive on points")
    chain = ("strongly_incidence_transitive", "incidence_transitive",
             "neighbour_transitive", "code_transitive")
    for a, b in zip(chain, chain[1:]):
        if f[a] and not f[b]:
            failures.append(f"{a} must imply {b}")
    if f["completely_transitive"] and not f["neighbour_transitive"]:
        failures.append("completely transitive must imply neighbour-transitive")
    return not failures, failures


# ---------------------------------------------------------------------------
# classification search
# ---------------------------------------------------------------------------

def _predicate(flag):
    """A search predicate (G, quotient, chosen) -> bool from a flag, on the
    union of the orbits numbered chosen of a whole OrbitQuotient."""
    return lambda G, quotient, chosen: flag(_Facts(G, quotient, chosen))[0]


PREDICATES = {name: _predicate(flag) for name, flag in FLAGS.items()}
PREDICATES["strong"] = PREDICATES["strongly_incidence_transitive"]


def subset_orbits(G, k, cap=DEFAULT_ORBIT_CAP):
    """The OrbitQuotient of J(v,k) by G with every orbit found, numbered in
    ascending order of smallest member; cap bounds its fill and its walks."""
    return johnson.OrbitQuotient(G, k, cap).fill(cap)


def classify_search(G, k, predicate, max_union=1, cap=DEFAULT_ORBIT_CAP):
    """All union-of-orbit codes on which the named predicate holds.

    Scans every union of at most max_union G-orbits on k-subsets (default:
    single orbits, which are automatically code-transitive) and keeps the
    unions satisfying the predicate; more unions than cap raises before
    any is tested.  The full vertex set is always skipped, since a code
    must be a proper subset.  One orbit quotient of J(v,k) serves every
    union's predicate, which reads only orbit numbers, reps and sizes; a
    Code is built only for a union that is found, and only the orbits of
    those unions are walked for their members, by one call to members
    that sizes its walker to them all.
    """
    if predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}; choose from "
                         + ", ".join(sorted(PREDICATES)))
    if not 0 <= k <= G.degree:
        raise ValueError(f"k must lie in 0..{G.degree}, got {k}")
    if max_union < 1:
        raise ValueError(f"max_union must be at least 1, got {max_union}")
    if max_union > 3:
        raise ValueError("unions of more than 3 orbits are not supported")
    pred = PREDICATES[predicate]
    quotient = subset_orbits(G, k, cap=cap)
    sizes = quotient.sizes
    n = len(sizes)
    tests = sum(comb(n, r) for r in range(1, min(max_union, n) + 1))
    if tests > cap:
        raise ResourceCapError(f"{tests} unions of at most {max_union} of "
                               f"{n} orbits exceed cap {cap}")
    total = comb(G.degree, k)
    unions = [chosen for r in range(1, max_union + 1)
              for chosen in combinations(range(n), r)
              if sum(sizes[i] for i in chosen) != total
              and pred(G, quotient, chosen)]
    quotient.members({i for chosen in unions for i in chosen})
    found = [Code(G.degree, k, [m for o in quotient.members(chosen)
                                for m in o],
                  name=f"search(k={k},orbits={list(chosen)})")
             for chosen in unions]
    found.sort(key=lambda c: (len(c), c.codewords))
    return found

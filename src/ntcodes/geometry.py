"""Finite geometries and the 2-transitive groups acting on them.

Point sets: AG(n,q) (all vectors of F_q^n), PG(n-1,q) (1-spaces, normalized
so the first nonzero coordinate is 1, indexed lexicographically), and the
Hermitian isotropic points of PG(2,q^2) under the form
phi(x,y) = x1*conj(y3) + x3*conj(y1) + x2*conj(y2).

Groups are emitted as permutations of the point indices: linear parts from
elementary transvections and a diagonal torus element, translations for the
affine case, a Weyl element and Frobenius where needed.  Each group comes
with its textbook order as its known order (see PermGroup), which a grid
test checks against the full Schreier-Sims build.
"""

from itertools import product
from math import factorial, gcd, prod

from .gf import GF, FieldError
from .perm import (MAX_DEGREE, PermGroup, Permutation, bits, check_degree,
                   mask_of)


class GeometryError(ValueError):
    pass


class GeometrySpace:
    """An indexed point set with enough structure to act on and draw lines."""

    def __init__(self, kind, points, field=None, params=None):
        self.kind = kind
        self.points = tuple(points)
        self.field = field
        self.params = dict(params or {})
        self.index = {pt: i for i, pt in enumerate(points)}

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"GeometrySpace({self.kind}, {self.params}, {len(self)} points)"


def _normalize(F, vec):
    """Scale so the first nonzero coordinate is 1; None for the zero vector."""
    for c in vec:
        if c:
            inv = F.inv(c)
            return tuple(F.mul(inv, e) for e in vec)
    return None


def _projective_points(F, n):
    """The normalized nonzero vectors of F^n, ascending: those whose first
    nonzero coordinate, at position i, is 1, listed from i = n-1 down."""
    pts = []
    for i in reversed(range(n)):
        head = (0,) * i + (1,)
        pts += [head + tail
                for tail in product(F.elements(), repeat=n - 1 - i)]
    return pts


def hermitian_form(F, x, y):
    """phi(x,y) = x1*conj(y3) + x3*conj(y1) + x2*conj(y2) over GF(q0^2)."""
    return F.add(
        F.add(F.mul(x[0], F.conj(y[2])), F.mul(x[2], F.conj(y[0]))),
        F.mul(x[1], F.conj(y[1])))


def point_count(kind, **params):
    """The number of points of build_space(kind, **params), q^n,
    (q^n-1)/(q-1) = 1 + q + ... + q^(n-1) or q^3+1, after the checks that
    build_space makes before it lists any: the kind, q, its field and at
    most MAX_DEGREE points.  The count stops growing once it passes the
    cap, so a huge n costs nothing."""
    if kind not in ("affine", "projective", "hermitian_isotropic"):
        raise GeometryError(f"unknown space kind {kind!r}")
    if kind == "hermitian_isotropic":
        q = params["q"]
        if q < 2:
            raise GeometryError(f"need q >= 2, got q={q}")
        GF(q * q)
        count = q ** 3 + 1
    else:
        n, q = params["n"], params["q"]
        GF(q)
        count = 1
        for _ in range(n if kind == "affine" else n - 1):
            count = count * q + (kind == "projective")
            if count > MAX_DEGREE:
                break
    if count > MAX_DEGREE:
        raise GeometryError(f"{kind} space of more than {MAX_DEGREE} points")
    return count


def build_space(kind, **params):
    """The points of AG(n,q), of PG(n-1,q) or of the Hermitian unital in
    PG(2,q^2), listed once point_count has checked their number."""
    count = point_count(kind, **params)
    if kind == "hermitian_isotropic":
        q = params["q"]
        F = GF(q * q)
        pts = [p for p in _projective_points(F, 3)
               if hermitian_form(F, p, p) == 0]
        if len(pts) != count:
            raise GeometryError("isotropic point count mismatch")
        return GeometrySpace(kind, pts, F, {"q": q})
    n, q = params["n"], params["q"]
    F = GF(q)
    points = (sorted(product(F.elements(), repeat=n)) if kind == "affine"
              else _projective_points(F, n))
    return GeometrySpace(kind, points, F, {"n": n, "q": q})


# ---- permutations from (semi)linear maps -----------------------------------

def _mat_vec(F, M, vec):
    return tuple(
        _dot(F, row, vec) for row in M)


def _dot(F, row, vec):
    s = 0
    for c, e in zip(row, vec):
        s = F.add(s, F.mul(c, e))
    return s


def perm_from_map(space, matrix=None, frob=0, translation=None):
    """Permutation of the point indices induced by x -> M(x^(p^frob)) + t.

    Raises if any image falls outside the space, which in particular checks
    that unitary generators preserve the isotropic set.
    """
    F = space.field
    images = []
    for pt in space.points:
        vec = pt
        if frob:
            vec = tuple(F.frobenius(e, frob) for e in vec)
        if matrix is not None:
            vec = _mat_vec(F, matrix, vec)
        if translation is not None:
            vec = tuple(F.add(e, t) for e, t in zip(vec, translation))
        if space.kind in ("projective", "hermitian_isotropic"):
            vec = _normalize(F, vec)
        if vec not in space.index:
            raise GeometryError(
                f"map does not preserve the {space.kind} point set")
        images.append(space.index[vec])
    return Permutation(images)


def _identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _sl_generators(F, n):
    """Elementary transvections I + lambda*E_ij over an F_p basis of F_q."""
    basis = [F.pow(F.x, i) for i in range(F.a)] if F.q > 2 else [1]
    mats = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for lam in basis:
                M = _identity_matrix(n)
                M[i][j] = lam
                mats.append(M)
    return mats


def _gl_extra(F, n):
    M = _identity_matrix(n)
    M[0][0] = F.x
    return M


# ---- group families ---------------------------------------------------------

def group_generators(family, **params):
    """A PermGroup for the named family, acting on the matching space."""
    if family in ("agl", "agammal", "pgl", "pgammal") and params["n"] < 1:
        raise GeometryError("need n >= 1")
    if family in ("agl", "agammal"):
        return _affine_group(params["n"], params["q"], family == "agammal")
    if family in ("pgl", "pgammal"):
        return _projective_group(params["n"], params["q"],
                                 family == "pgammal")
    if family == "psl2":
        return _psl2(params["q"])
    if family in ("pgu", "pgammau"):
        return _unitary_group(params["q"], family == "pgammau")
    raise GeometryError(f"unknown group family {family!r}")


def wreath_stabilizer(a, b):
    """Stabilizer of the partition of {0..ab-1} into b consecutive a-blocks."""
    # each part is the degree of S_a or S_b; a * b alone passes a = b = -1
    check_degree(min(a, b))
    n = a * b
    check_degree(n)
    gens = []
    if a >= 2:
        gens.append(Permutation.from_cycles(n, [(0, 1)]))
    if a >= 3:
        gens.append(Permutation.from_cycles(n, [tuple(range(a))]))
    if b >= 2:
        gens.append(Permutation.from_cycles(
            n, [(i, a + i) for i in range(a)]))
    if b >= 3:
        images = [(x + a) % n for x in range(n)]
        gens.append(Permutation(images))
    return PermGroup(n, gens, order=factorial(a) ** b * factorial(b))


def partition_blocks(a, b):
    """Masks of the b consecutive a-blocks that wreath_stabilizer preserves."""
    return [mask_of(range(i * a, (i + 1) * a)) for i in range(b)]


def subset_stabilizer(v, subset):
    """Sym(U) x Sym(complement) inside Sym(v)."""
    check_degree(v)
    u = sorted(set(subset))
    rest = sorted(set(range(v)) - set(u))
    gens = []
    for part in (u, rest):
        if len(part) >= 2:
            gens.append(Permutation.from_cycles(v, [(part[0], part[1])]))
        if len(part) >= 3:
            gens.append(Permutation.from_cycles(v, [tuple(part)]))
    return PermGroup(v, gens, order=factorial(len(u)) * factorial(len(rest)))


def _gl_order(n, q):
    """|GL(n,q)| = (q^n - 1)(q^n - q) ... (q^n - q^(n-1))."""
    return prod(q ** n - q ** i for i in range(n))


def _affine_group(n, q, semilinear):
    space = build_space("affine", n=n, q=q)
    F = space.field
    gens = []
    for M in _sl_generators(F, n):
        gens.append(perm_from_map(space, matrix=M))
    gens.append(perm_from_map(space, matrix=_gl_extra(F, n)))
    e1 = tuple([1] + [0] * (n - 1))
    gens.append(perm_from_map(space, translation=e1))
    if semilinear and F.a > 1:
        gens.append(perm_from_map(space, frob=1))
    order = q ** n * _gl_order(n, q) * (F.a if semilinear else 1)
    return PermGroup(len(space), gens, order=order)


def _projective_group(n, q, semilinear):
    space = build_space("projective", n=n, q=q)
    F = space.field
    gens = [perm_from_map(space, matrix=M) for M in _sl_generators(F, n)]
    gens.append(perm_from_map(space, matrix=_gl_extra(F, n)))
    if semilinear and F.a > 1:
        gens.append(perm_from_map(space, frob=1))
    # PG(0,q) is one point, on which the group acts trivially
    order = (_gl_order(n, q) // (q - 1) * (F.a if semilinear else 1)
             if n > 1 else 1)
    return PermGroup(len(space), gens, order=order)


def _psl2(q):
    space = build_space("projective", n=2, q=q)
    F = space.field
    gens = [perm_from_map(space, matrix=M) for M in _sl_generators(F, 2)]
    return PermGroup(len(space), gens,
                     order=q * (q * q - 1) // gcd(2, q - 1))


def _trace_zero_nonzero(F):
    for e in F.units():
        if F.add(e, F.conj(e)) == 0:
            return e
    raise GeometryError("no nonzero trace-zero element found")


def _unitary_group(q, semilinear):
    """PGU(3,q) (resp. PGammaU(3,q)) on the q^3+1 isotropic points."""
    space = build_space("hermitian_isotropic", q=q)
    F = space.field
    gens = []
    # root elements t_{alpha,beta} with alpha + conj(alpha) + beta*conj(beta) = 0
    a0 = _trace_zero_nonzero(F)
    gens.append(perm_from_map(space, matrix=[
        [1, 0, a0], [0, 1, 0], [0, 0, 1]]))
    beta = 1
    norm = F.mul(beta, F.conj(beta))
    alpha = next(e for e in F.elements()
                 if F.add(F.add(e, F.conj(e)), norm) == 0)
    gens.append(perm_from_map(space, matrix=[
        [1, F.neg(F.conj(beta)), alpha], [0, 1, beta], [0, 0, 1]]))
    # torus h_{nu,mu} = diag(nu, mu, conj(nu)^-1) with mu*conj(mu) = 1
    xi = F.x
    gens.append(perm_from_map(space, matrix=[
        [xi, 0, 0], [0, 1, 0], [0, 0, F.inv(F.conj(xi))]]))
    mu = F.pow(xi, F.sqrt_order - 1)
    gens.append(perm_from_map(space, matrix=[
        [1, 0, 0], [0, mu, 0], [0, 0, 1]]))
    # Weyl element swapping <e1>, <e3>
    gens.append(perm_from_map(space, matrix=[
        [0, 0, 1], [0, F.neg(1), 0], [1, 0, 0]]))
    if semilinear:
        gens.append(perm_from_map(space, frob=1))
    # |PGU(3,q)|, times the order 2e of the Frobenius of GF(q^2), q = p^e
    order = q ** 3 * (q ** 3 + 1) * (q * q - 1) * (F.a if semilinear else 1)
    return PermGroup(len(space), gens, order=order)


# ---- lines ------------------------------------------------------------------

def lines(space):
    """All lines of a projective space, as sorted tuples of point
    indices, in ascending order.

    Each line is spanned once, from its two smallest points: a pair that
    already lies on a found line is skipped, by a mask per point of the
    points joined to it so far.  PG(2,4) takes 21 spans, not 210.
    """
    if space.kind != "projective":
        raise GeometryError(f"lines undefined for kind {space.kind!r}")
    F = space.field
    joined = [0] * len(space)
    out = []
    for i, p in enumerate(space.points):
        for j in range(i + 1, len(space.points)):
            if (joined[i] >> j) & 1:
                continue
            r = space.points[j]
            pts = {i, j}
            for t in F.units():
                comb = tuple(F.add(e, F.mul(t, re))
                             for e, re in zip(p, r))
                pts.add(space.index[_normalize(F, comb)])
            line = mask_of(pts)
            for x in pts:
                joined[x] |= line
            out.append(tuple(sorted(pts)))
    return sorted(out)


# ---- derived point-block structures ------------------------------------------

def polar_block(space, m):
    """Mask of the isotropic points x of a hermitian_isotropic space with
    phi(x, m) = 0.  For a non-isotropic point m of PG(2,q^2) these are the
    q+1 points of the unital's block polar to m."""
    F = space.field
    return mask_of(i for i, x in enumerate(space.points)
                   if hermitian_form(F, x, m) == 0)


def standard_baer_subline(q0):
    """(space PG(1,q0^2), mask of the subfield-plus-infinity subline)."""
    if q0 < 2:
        raise GeometryError(f"need q0 >= 2, got q0={q0}")
    space = build_space("projective", n=2, q=q0 * q0)
    F = space.field
    sub = set(F.subfield_elements(F.a // 2))
    pts = [space.index[(0, 1)]]
    pts += [space.index[(1, t)] for t in sub]
    return space, mask_of(pts)


def hyperoval_setting():
    """(space PG(2,4), hyperoval mask, first external line, all external lines).

    The hyperoval is the conic {(1,t,t^2)} + {(0,0,1)} plus its nucleus
    (0,1,0); external lines are the six lines missing it entirely.
    """
    space = build_space("projective", n=3, q=4)
    F = space.field
    pts = [space.index[(0, 0, 1)], space.index[(0, 1, 0)]]
    pts += [space.index[(1, t, F.mul(t, t))] for t in F.elements()]
    hmask = mask_of(pts)
    externals = [mask_of(line) for line in lines(space)
                 if not (mask_of(line) & hmask)]
    if len(externals) != 6:
        raise GeometryError("hyperoval should have exactly 6 external lines")
    return space, hmask, min(externals), sorted(externals)


def affine_chart(space, line):
    """Each point of PG(2,q) off a line, ascending, mapped to the index of
    its image in AG(2,q) under the chart that sends the line to the line
    at infinity.

    The line is c.x = 0 with c = p x r for two of its points p, r.  A point
    x goes to (y1/y0, y2/y0), where y = (c.x, b1.x, b2.x) and b1, b2 are
    the unit vectors that complete c to a basis.  The collineations that
    fix the line act in the chart as AGammaL(2,q).
    """
    F = space.field
    p, r = (space.points[i] for i in list(bits(line))[:2])
    c = [F.add(F.mul(p[(i + 1) % 3], r[(i + 2) % 3]),
               F.neg(F.mul(p[(i + 2) % 3], r[(i + 1) % 3])))
         for i in range(3)]
    m = next(i for i in range(3) if c[i])
    b = [i for i in range(3) if i != m]
    plane = build_space("affine", n=2, q=F.q)
    chart = {}
    for i, x in enumerate(space.points):
        if not (line >> i) & 1:
            y0 = F.inv(_dot(F, c, x))
            chart[i] = plane.index[tuple(F.mul(y0, x[j]) for j in b)]
    return chart


def restrict_group(G, mask):
    """Induced group on the points of an invariant subset, relabeled 0..m-1,
    generated by the restrictions of G's generators.

    Point i of the new domain is the i-th smallest member of the subset.
    A stabilizer from PermGroup.stabilizer has only generators that grow
    its group, so the restriction of one carries as few.
    """
    pts = [i for i in range(G.degree) if (mask >> i) & 1]
    relabel = {p: i for i, p in enumerate(pts)}
    gens = []
    for g in G.generators:
        if g.apply_mask(mask) != mask:
            raise GeometryError("generator does not preserve the subset")
        gens.append(Permutation([relabel[g.images[p]] for p in pts]))
    return PermGroup(len(pts), gens)

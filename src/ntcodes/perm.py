"""Exact permutation groups: elements, orbits, stabilizers, BSGS.

Permutations act on {0, ..., degree-1}.  Products compose left to right:
(p * q) means "apply p, then q", so x^(p*q) = (x^p)^q.  Subsets of the
domain travel as integer bitmasks throughout.

The stabilizer chain is built by a deterministic incremental
Schreier-Sims: each base point is the smallest point moved by the first
strong generator that fixes the base before it, and orbits grow in
generator order, so orders, transversals and element enumeration are
reproducible.
Its one closing routine, PermGroup._extend, extends a chain in place by
new generators (a group's own chain extends the empty one): each level's
orbit, coset reps and their inverses only gain entries as strong
generators join it, the Schreier generator of each orbit edge is stripped
through the deeper levels once by _strip, the one strip routine, and the
closing stops once the chain reaches a known order, with the same result.
Every other orbit that needs a transversal, a stabilizer or an escape test
(of points, subsets or pairs) is grown by schreier_orbit.
_schreier_images forms the Schreier generators of a chain level's edges
and of every stabilizer's walk (of a point, a subset, or anything else the
generators move), which is PermGroup.stabilizer.  A stabilizer keeps a
Schreier generator only when it does not sift to the identity in the group
of the generators kept before it, whose one chain each kept generator
extends; that one rule decides how many generators a derived group
carries.  Each level keeps the inverses of its coset reps beside its
transversal (coset_inverses), so _strip multiplies by them and never
inverts; a stabilizer's walk inverts each member's coset rep once
(_inverse).  The orbit quotient reads the first level's inverses to carry
a k-set into the k-sets through the first base point.
PermGroup.subset_orbit needs only the members, so it walks with a seen-set
and keeps no Schreier map; given an orbit quotient's index dict, it walks
with that dict as its seen-set and writes each member's orbit number into
it as it finds the member, so one walk both lists an orbit and indexes it.
The bulk subset routines act on masks through chunk image tables, built on
first use up to degree TABLE_DEGREE: the domain is cut into
ceil(degree / CHUNK_BITS) chunks of near-equal width w, and each generator
has one 2^w-entry table per chunk, so no table has more than 2^CHUNK_BITS
entries and a mask's image is one lookup per chunk.  Above TABLE_DEGREE
they act by Permutation.apply_mask, one step per point, and
PermGroup.subset_orbit walks the complements of a subset of more than
half the points.
"""

from itertools import count
from math import factorial, lcm, prod

MAX_DEGREE = 4096
DEFAULT_ORBIT_CAP = 10 ** 6
# Largest degree whose generators get chunk image tables for the subset
# action; above it the bulk routines use Permutation.apply_mask.
TABLE_DEGREE = 64
# A chunk table has at most 2^CHUNK_BITS entries.
CHUNK_BITS = 11
# PermGroup.subset_walker: the cost of one try at a generating pair, in
# subset images per unit of degree^2 * L^3 (measured at 0.1-1.3 on 19
# groups of degree 9-65), and the number of pairs tried.
PAIR_COST_PER_IMAGE = 2
PAIR_TRIES = 3


class PermError(ValueError):
    pass


class ResourceCapError(RuntimeError):
    """An orbit or partition exceeded its configured cap."""


def popcount(mask):
    return mask.bit_count()


def check_degree(n):
    """Raise PermError for a degree below 1 or over MAX_DEGREE."""
    if n < 1:
        raise PermError(f"degree {n} out of range")
    if n > MAX_DEGREE:
        raise PermError(f"degree {n} exceeds cap {MAX_DEGREE}")


def mask_of(points):
    m = 0
    for x in points:
        m |= 1 << x
    return m


def bits(mask):
    """Set bits of mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images, check=True):
        images = tuple(images)
        if check:
            n = len(images)
            check_degree(n)
            seen = [False] * n
            for i in images:
                if not (0 <= i < n) or seen[i]:
                    raise PermError("images are not a bijection")
                seen[i] = True
        self.images = images

    @property
    def degree(self):
        return len(self.images)

    @classmethod
    def identity(cls, n):
        return cls(range(n), check=False)

    @classmethod
    def from_cycles(cls, n, cycles):
        check_degree(n)
        images = list(range(n))
        for cycle in cycles:
            for i, x in enumerate(cycle):
                if x >= n:
                    raise PermError(f"point {x} out of range for degree {n}")
                images[x] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    @classmethod
    def parse(cls, text, n):
        """Parse cycle notation like "(0 1 2)(3 4)"; "()" is the identity."""
        import re  # here: of the CLI's inputs, only a gens:@file needs it
        body = text.strip()
        # a cycle is empty or starts with a digit, so each character can
        # match in one way only and a malformed line fails in linear time
        if not re.fullmatch(r"(?:\(\s*(?:\d[\d\s,]*)?\)\s*)+", body):
            raise PermError(f"cannot parse permutation {text!r}")
        cycles = []
        for inner in re.findall(r"\(([^)]*)\)", body):
            pts = [int(t) for t in re.split(r"[\s,]+", inner.strip()) if t]
            if len(set(pts)) != len(pts):
                raise PermError(f"repeated point in cycle {inner!r}")
            if pts:
                cycles.append(pts)
        return cls.from_cycles(n, cycles)

    def __mul__(self, other):
        oi = other.images
        if len(oi) != len(self.images):
            raise PermError("degree mismatch in product")
        return Permutation((oi[i] for i in self.images), check=False)

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv, check=False)

    def __call__(self, x):
        return self.images[x]

    def apply_mask(self, mask):
        out = 0
        img = self.images
        while mask:
            b = mask & -mask
            out |= 1 << img[b.bit_length() - 1]
            mask ^= b
        return out

    def is_identity(self):
        return all(i == j for j, i in enumerate(self.images))

    def order(self):
        return lcm(*map(len, self.cycles()))

    def cycles(self):
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)


class UnionFind:
    """Disjoint sets of 0..n-1: find halves the path to the root, and union
    hangs the larger root under the smaller and returns it (None if one)."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = sorted((self.find(a), self.find(b)))
        if ra == rb:
            return None
        self.parent[rb] = ra
        return rb


def schreier_orbit(start, moves, domain=None, cap=None, on_revisit=None):
    """Breadth-first orbit of start under the image functions in moves.

    Returns (members, schreier, escape).  members is the orbit in BFS order,
    each member's images taken in the order of moves; schreier maps start to
    None and every other member to (predecessor, move index).  When domain
    is given, the search stops at the first image outside it and returns
    that image as escape (otherwise escape is None).  More than cap members
    raise ResourceCapError.  on_revisit(x, i, y, schreier), when given, is
    called in walk order for every image y = moves[i](x) that is already a
    member; a true result ends the walk there, with escape None.
    """
    members = [start]
    schreier = {start: None}
    for x in members:
        for i, move in enumerate(moves):
            y = move(x)
            if y in schreier:
                if on_revisit is not None and on_revisit(x, i, y, schreier):
                    return members, schreier, None
                continue
            if domain is not None and y not in domain:
                return members, schreier, y
            schreier[y] = (x, i)
            members.append(y)
            if cap is not None and len(members) > cap:
                raise ResourceCapError(f"orbit exceeds cap {cap}")
    return members, schreier, None


def chunk_width(degree):
    """The width w of the chunk tables on a domain of this degree: the
    domain is cut into ceil(degree / CHUNK_BITS) chunks of w points each,
    the last one perhaps shorter."""
    chunks = -(-degree // CHUNK_BITS)
    return -(-degree // chunks)


def chunk_tables(g, width):
    """One image table per chunk of width points of g's domain.  Entry c of
    a chunk's table is the image of that chunk's points in c: entry c + 2^j
    extends entry c by the image of the chunk's point j, so each table
    doubles once per point."""
    img = g.images
    tables = []
    for base in range(0, len(img), width):
        t = [0]
        for x in img[base:base + width]:
            bit = 1 << x
            t += [m | bit for m in t]
        tables.append(t)
    return tables


def _table_action(tables, width):
    """The mask action given by chunk image tables of the given width:
    tables[j][c] is the image of the set c << width*j.  Up to three chunks
    are looked up in one expression; a missing high chunk is the one-entry
    table [0], since m >> 2*width is 0 there."""
    if len(tables) == 1:
        return tables[0].__getitem__
    low, width2 = (1 << width) - 1, 2 * width
    if len(tables) <= 3:
        t0, t1, t2 = tables + [[0]] * (3 - len(tables))
        return lambda m: t0[m & low] | t1[m >> width & low] | t2[m >> width2]
    head = _table_action(tables[:3], width)
    tail = _table_action(tables[3:], width)
    shift = 3 * width
    below = (1 << shift) - 1
    return lambda m: head(m & below) | tail(m >> shift)


def _point_moves(generators):
    return [g.images.__getitem__ for g in generators]


def _transversal(x, schreier, generators, cache):
    """The group element u_x mapping an orbit's start to its member x, read
    off the Schreier tree; cache holds the elements found so far, starting
    with the start's identity, and gains those on x's path."""
    path = []
    m = x
    while m not in cache:
        path.append(m)
        m = schreier[m][0]
    g = cache[m]
    for m in reversed(path):
        g = g * generators[schreier[m][1]]
        cache[m] = g
    return g


def _inverse(x, schreier, generators, cache, inverses):
    """u_x^-1, with u and cache as in _transversal; inverses holds the
    inverses found so far, and gains this one."""
    inv = inverses.get(x)
    if inv is None:
        inv = inverses[x] = _transversal(x, schreier, generators,
                                         cache).inverse()
    return inv


def _schreier_images(ux, g, uy_inv):
    """The images of the Schreier generator u_x g u_y^-1 of an orbit edge
    x -> y = g(x), given the images of u_x, g and u_y^-1:
    p -> u_y^-1(g(u_x(p)))."""
    return tuple([uy_inv[g[a]] for a in ux])


def _random_elements(generators, rng):
    """Random elements of the group the generators generate, by product
    replacement with an accumulator (Celler, Leedham-Green, Murray,
    Niemeyer and O'Brien, Comm. Algebra 23, 1995; Seress, Permutation Group
    Algorithms, 2.2): a step replaces a random slot s_i of a tuple of at
    least 10 elements by s_i * s_j for another random slot s_j, and
    multiplies the accumulator by the new s_i.  After 50 steps, every 5th
    step's accumulator is yielded; rng makes the draws reproducible."""
    state = [generators[i % len(generators)]
             for i in range(max(10, len(generators)))]
    acc = state[0]
    for step in count(1):
        i, j = rng.sample(range(len(state)), 2)
        state[i] = state[i] * state[j]
        acc = acc * state[i]
        if step >= 50 and step % 5 == 0:
            yield acc


def _strip(g, base, inverses, start=0):
    """Residue of g stripped through levels start.. of a chain: at each
    level, divide by the coset rep of g's image of the base point, read
    from inverses[level], that level's inverse coset reps, and stop at the
    first image outside that level's transversal."""
    for b, inv in zip(base[start:], inverses[start:]):
        u = inv.get(g.images[b])
        if u is None:
            return g
        g = g * u
    return g


class PermGroup:
    """A finitely generated permutation group on {0..degree-1}."""

    def __init__(self, degree, generators, order=None):
        check_degree(degree)
        gens = []
        for g in generators:
            if g.degree != degree:
                raise PermError("generator degree mismatch")
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        # the group's order when known beforehand; _extend trusts it
        # only to stop closing the chain, and raises if a full closure
        # ends at another order
        self.known_order = order
        # (base, level_gens, transversals, inverses) once built
        self._chain = None
        self._pair = None
        # the chunk tables' layout: chunk width and number of chunks
        self._width = chunk_width(degree)
        self._nchunks = -(-degree // self._width)
        self._tables = None
        self._mask_moves = None

    @classmethod
    def symmetric(cls, n):
        check_degree(n)
        gens = []
        if n >= 2:
            gens.append(Permutation.from_cycles(n, [(0, 1)]))
        if n >= 3:
            gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
        return cls(n, gens, order=factorial(n))

    @classmethod
    def alternating(cls, n):
        check_degree(n)
        gens = []
        if n >= 3:
            gens.append(Permutation.from_cycles(n, [(0, 1, 2)]))
        if n >= 4:
            cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
            gens.append(Permutation.from_cycles(n, [cyc]))
        return cls(n, gens, order=max(factorial(n) // 2, 1))

    # ---- stabilizer chain ------------------------------------------------

    def _extend(self, generators):
        """Sims' incremental Schreier-Sims: extend the chain in place by
        generators and close it again; bsgs() extends the empty chain by
        the group's own generators.  A generator joins levels 0..j, j the
        first level whose base point it moves (a new last level at its
        first moved point if it fixes them all), and grows each of those
        basic orbits at once: a new point y = g(x) gets the coset rep
        u_y = u_x g, and an edge x -> g(x) to a point already in the orbit
        goes on that level's stack of untried edges.  So the levels only
        gain points, and a coset rep never changes.  The closing pops the
        newest untried edge of the deepest level that has one and strips
        its Schreier generator u_x g u_y^-1 from the next level; a
        non-identity residue joins the strong generators.  Each edge is
        tried once: once no edge is left, every Schreier generator of
        every level lies in the next level's group, and the chain is
        complete (Schreier's lemma; Sims 1970, Seress, Permutation Group
        Algorithms, 4.2).

        The product of the basic orbits never exceeds |G|, and equals it
        only once the chain is complete (Seress, 4.1): from then on every
        Schreier generator strips to the identity, and the closing adds
        nothing.  The orbits grow eagerly, so with a known order the
        closing stops as soon as that product reaches it: the chain is the
        one the whole closing gives.  A whole closing that ends at another
        order raises PermError before the chain is stored, so a group
        whose build raises has none, and bsgs() raises again.
        """
        chain = self._chain or ([], [], [], [])
        # base points; level_gens[i]: strong generators fixing base[:i];
        # transversals[i]: point -> coset rep (base[i] -> point);
        # inverses[i]: point -> that coset rep's inverse
        base, level_gens, transversals, inverses = chain
        degree = self.degree
        identity = Permutation.identity(degree)
        known = self.known_order
        # per level: edges gi * degree + x, x -> level_gens[i][gi](x); a
        # level's generators only grow, so gi stays valid
        untried = [[] for _ in base]

        def add_gen(g):
            # the deepest level g joins, -1 for the identity
            img = g.images
            j = next((l for l, b in enumerate(base) if img[b] != b), None)
            if j is None:
                moved = next((x for x, im in enumerate(img) if im != x), None)
                if moved is None:
                    return -1
                base.append(moved)
                level_gens.append([])
                transversals.append({moved: identity})
                inverses.append({moved: identity})
                untried.append([])
                j = len(base) - 1
            for gens, tr, inv, edges in zip(level_gens[:j + 1], transversals,
                                            inverses, untried):
                # g's edges from the old members, then every generator's
                # from each new member
                old, last = len(tr), len(gens)
                gens.append(g)
                members = list(tr)
                for n, x in enumerate(members):
                    for gi in range(last if n < old else 0, last + 1):
                        s = gens[gi]
                        y = s.images[x]
                        if y in tr:
                            edges.append(gi * degree + x)
                        else:
                            u = tr[y] = tr[x] * s
                            inv[y] = u.inverse()
                            members.append(y)
            return j

        i = max(map(add_gen, generators), default=-1)
        while i >= 0 and prod(map(len, transversals)) != known:
            if not untried[i]:
                i -= 1
                continue
            gi, x = divmod(untried[i].pop(), degree)
            g = level_gens[i][gi].images
            s = _schreier_images(transversals[i][x].images, g,
                                 inverses[i][g[x]].images)
            residue = _strip(Permutation(s, check=False), base, inverses,
                             i + 1)
            if residue != identity:
                i = add_gen(residue)
        order = prod(map(len, transversals))
        if known is not None and order != known:
            raise PermError(f"group order {order} "
                            f"is not the known order {known}")
        self._chain = chain

    def bsgs(self):
        """(base, level_gens, transversals) of the chain, built on first
        use."""
        if self._chain is None:
            self._extend(self.generators)
        return self._chain[:3]

    def coset_inverses(self):
        """The inverse coset reps kept beside the chain's transversals:
        coset_inverses()[i][pt] is bsgs()[2][i][pt]^-1, which maps pt to
        base[i]."""
        self.bsgs()
        return self._chain[3]

    def order(self):
        return prod(map(len, self.bsgs()[2]))

    def sift(self, g):
        """Residue of g after stripping through the chain (identity iff g in G)."""
        if g.degree != self.degree:
            raise PermError("degree mismatch")
        return _strip(g, self.bsgs()[0], self.coset_inverses())

    def __contains__(self, g):
        return self.sift(g).is_identity()

    def elements(self, cap=DEFAULT_ORBIT_CAP):
        """All group elements in deterministic chain-traversal order."""
        if self.order() > cap:
            raise ResourceCapError(f"group order {self.order()} exceeds cap {cap}")
        base, _, transversals = self.bsgs()

        def rec(i):
            if i == len(base):
                yield Permutation.identity(self.degree)
                return
            reps = [transversals[i][pt] for pt in sorted(transversals[i])]
            for s in rec(i + 1):
                for u in reps:
                    yield s * u

        return rec(0)

    # ---- orbits and stabilizers -------------------------------------------

    def orbit(self, x):
        if not (0 <= x < self.degree):
            raise PermError(f"point {x} out of range")
        return set(schreier_orbit(x, _point_moves(self.generators))[0])

    def stabilizer(self, start, moves, orbit_size=None, cap=None):
        """Stabilizer of start, where moves[i] is the action of
        generators[i] on start's orbit, from Schreier generators.

        The orbit is walked once by schreier_orbit, and each edge
        x -> y = moves[i](x) that is not a tree edge offers the Schreier
        generator u_x g_i u_y^-1, with u as in _transversal; these generate
        the stabilizer (Seress, Permutation Group Algorithms, 4.1).  One is
        kept only when it does not sift to the identity in the group that
        the generators kept before it generate, so each kept generator
        grows that group and extends its chain in place (_extend), one
        chain for the whole walk; an extension strips only the orbit edges
        that the kept generator and the residues it brings add.  The
        stabilizer has |G| / orbit_size elements, so when orbit_size, the
        exact size of start's orbit, is given, the walk stops once the kept
        generators' group has that order: no later Schreier generator
        would be kept, and the tuple is the one the whole walk returns; the
        stabilizer then has |G| / orbit_size as its known order.  More than
        cap members raise ResourceCapError, at once when orbit_size is over
        cap.
        """
        order = None
        if orbit_size is not None:
            if cap is not None and orbit_size > cap:
                raise ResourceCapError(f"orbit exceeds cap {cap}")
            order = self.order() // orbit_size
        kept = PermGroup(self.degree, [])
        if order != 1:
            generators = self.generators
            cache = {start: Permutation.identity(self.degree)}
            inverses = dict(cache)

            def offer(x, i, y, schreier):
                s = Permutation(_schreier_images(
                    _transversal(x, schreier, generators, cache).images,
                    generators[i].images,
                    _inverse(y, schreier, generators, cache, inverses).images),
                    check=False)
                if s in kept:
                    return False
                kept.generators += (s,)
                kept._extend((s,))
                return kept.order() == order

            schreier_orbit(start, moves, cap=cap, on_revisit=offer)
        return PermGroup(self.degree, kept.generators, order=order)

    def point_stabilizer(self, x):
        """Stabilizer of the point x."""
        return self.stabilizer(x, _point_moves(self.generators),
                               orbit_size=len(self.orbit(x)))

    def subset_walker(self, walk):
        """A group with this group's orbits on subsets, to walk them with:
        a pair of seeded random elements that generates G, or G itself.

        A pair is sought when G's order is known and the images it saves
        on walks that apply each generator to walk masks,
        walk * (|generators| - 2), exceed PAIR_COST_PER_IMAGE *
        degree^2 * L^3, where L = ceil(log|G| / log degree) is a lower
        bound on the base length.  A try draws two elements by
        _random_elements and builds the known-order chain of the pair: it
        raises PermError when the pair generates a proper subgroup, and
        after PAIR_TRIES such pairs G walks itself.  The pair found, or
        G after the failed tries, is kept for later walks.  Stabilizers
        and witnesses keep G's own generators.
        """
        if self._pair is not None:
            return self._pair
        order, n = self.known_order, self.degree
        if order is None or n < 2 or len(self.generators) <= 2:
            return self
        depth = 1
        while n ** depth < order:
            depth += 1
        if walk * (len(self.generators) - 2) <= (
                PAIR_COST_PER_IMAGE * n * n * depth ** 3):
            return self
        # imported where it is used: most groups never seek a pair
        import random
        draw = _random_elements(self.generators, random.Random(0))
        self._pair = self
        for _ in range(PAIR_TRIES):
            pair = PermGroup(n, [next(draw), next(draw)], order=order)
            try:
                pair.bsgs()
            except PermError:
                continue
            self._pair = pair
            break
        return self._pair

    def _chunk_tables(self):
        """Each generator's chunk_tables, built on first use.  Up to degree
        3 * CHUNK_BITS they are padded with one-entry tables [0] to three,
        so the image of a mask m is t0[m & low] | t1[m >> w & low]
        | t2[m >> 2w], low = 2^w - 1: a chunk beyond the degree is 0."""
        if self._tables is None:
            pad = [[0]] * (3 - self._nchunks)
            self._tables = tuple(chunk_tables(g, self._width) + pad
                                 for g in self.generators)
        return self._tables

    def mask_moves(self):
        """Each generator's action on bitmask subsets, built on first use:
        the action of its chunk tables up to degree TABLE_DEGREE, and
        Permutation.apply_mask above it."""
        if self._mask_moves is None:
            if self.degree > TABLE_DEGREE:
                self._mask_moves = tuple(g.apply_mask for g in self.generators)
            else:
                self._mask_moves = tuple(
                    _table_action(t[:self._nchunks], self._width)
                    for t in self._chunk_tables())
        return self._mask_moves

    def subset_orbit(self, mask, cap=DEFAULT_ORBIT_CAP, index=None,
                     number=None):
        """The orbit of a bitmask subset under the induced action on
        subsets, as a tuple of masks in ascending order.

        The walk keeps a seen-set and no Schreier map; an orbit that needs
        a stabilizer or an escape test is walked by schreier_orbit.  When
        index, a dict that does not hold mask, is given, it is the seen-set:
        each member is written into it with the value number as it is
        found.  Up to degree 3 * CHUNK_BITS each member is cut into its
        three chunks once and every image is three lookups in the
        generators' chunk tables; otherwise the images come from
        mask_moves, and above TABLE_DEGREE a mask of more than half the
        points moves by its complement, m -> full ^ g(full ^ m), so each
        image costs at most degree / 2 steps.  More than cap members raise
        ResourceCapError, after the members written into index are deleted
        from it again.
        """
        if mask >> self.degree:
            raise PermError("subset not contained in the domain")
        members = [mask]
        seen = {} if index is None else index
        seen[mask] = number
        try:
            if self.degree <= 3 * CHUNK_BITS:
                width = self._width
                low, width2 = (1 << width) - 1, 2 * width
                tables = self._chunk_tables()
                for x in members:
                    c0, c1, c2 = x & low, x >> width & low, x >> width2
                    for t0, t1, t2 in tables:
                        y = t0[c0] | t1[c1] | t2[c2]
                        if y not in seen:
                            seen[y] = number
                            members.append(y)
                            if len(members) > cap:
                                raise ResourceCapError(
                                    f"orbit exceeds cap {cap}")
            else:
                moves = self.mask_moves()
                if 2 * popcount(mask) > self.degree > TABLE_DEGREE:
                    full = (1 << self.degree) - 1
                    moves = [lambda m, g=g: full ^ g(full ^ m) for g in moves]
                for x in members:
                    for move in moves:
                        y = move(x)
                        if y not in seen:
                            seen[y] = number
                            members.append(y)
                            if len(members) > cap:
                                raise ResourceCapError(
                                    f"orbit exceeds cap {cap}")
        except ResourceCapError:
            if index is not None:
                for m in members:
                    del index[m]
            raise
        members.sort()
        return tuple(members)

    def setwise_stabilizer(self, mask, cap=DEFAULT_ORBIT_CAP,
                           orbit_size=None):
        """Stabilizer of a subset (as bitmask), with only the Schreier
        generators that grow it; see stabilizer for cap and orbit_size, the
        exact size of the subset's orbit when known, with which the walk
        computes |G| to stop early."""
        if mask >> self.degree:
            raise PermError("subset not contained in the domain")
        return self.stabilizer(mask, self.mask_moves(),
                               orbit_size=orbit_size, cap=cap)

    # ---- transitivity and primitivity --------------------------------------

    def is_transitive(self):
        return len(self.orbit(0)) == self.degree

    def transitive_witness(self, masks):
        """None when the induced action on the non-empty subset collection
        masks is transitive; otherwise (the smallest mask, a mask outside
        its orbit): the first image that escapes masks, or else the
        smallest mask the orbit misses."""
        masks = set(masks)
        start = min(masks)
        members, _, escape = schreier_orbit(start, self.mask_moves(), masks)
        if escape is not None:
            return start, escape
        if len(members) < len(masks):
            return start, min(masks.difference(members))
        return None

    def is_transitive_on(self, masks):
        """True iff the induced action on the given subset collection is transitive."""
        masks = set(masks)
        return not masks or self.transitive_witness(masks) is None

    def is_transitive_on_product(self, aset, bset):
        """True iff the action on ordered pairs A x B has a single orbit."""
        aset, bset = set(aset), set(bset)
        if not aset or not bset:
            raise PermError("empty factor in product-transitivity test")
        pairs = {(x, y) for x in aset for y in bset}
        moves = [lambda p, img=g.images: (img[p[0]], img[p[1]])
                 for g in self.generators]
        members, _, escape = schreier_orbit(
            (min(aset), min(bset)), moves, pairs)
        return escape is None and len(members) == len(pairs)

    def minimal_block(self, x):
        """Smallest block of imprimitivity containing {0, x} (Atkinson)."""
        sets = UnionFind(self.degree)
        sets.union(0, x)
        queue = [x]
        while queue:
            y = queue.pop()
            r = sets.find(y)
            for g in self.generators:
                merged = sets.union(g.images[y], g.images[r])
                if merged is not None:
                    queue.append(merged)
        return {i for i in range(self.degree) if sets.find(i) == sets.find(0)}

    def primitivity(self):
        """('intransitive'|'imprimitive'|'primitive', witness block or None)."""
        if not self.is_transitive():
            return "intransitive", self.orbit(0)
        if self.degree == 1:
            return "primitive", None
        for x in range(1, self.degree):
            block = self.minimal_block(x)
            if 1 < len(block) < self.degree:
                return "imprimitive", block
        return "primitive", None

    def is_2transitive(self):
        """G transitive, and the stabilizer of the first base point, which
        the chain's second level holds, transitive on the other points."""
        if not self.is_transitive():
            return False
        if self.degree <= 2:
            return True
        transversals = self.bsgs()[2]
        return (len(transversals) > 1
                and len(transversals[1]) == self.degree - 1)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"

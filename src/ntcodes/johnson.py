"""Johnson graph layer: k-subsets as bitmasks, distances, neighbour sets,
distance partitions, minimum distance, complete regularity, the quotient of
J(v,k) by a group's orbits, part-intersection types, and complementation.

A vertex of J(v,k) is a k-subset of {0..v-1}, stored as an int bitmask.
Two vertices are adjacent when they share k-1 points, so the graph distance
between masks a, b is k - popcount(a & b).

The quotient (OrbitQuotient) keeps each orbit's smallest member and size.
For a group transitive on the points it finds them through the stabilizer
of one point: it walks only the k-sets through that point (or, for
2k > v, those that miss it), fuses the stabilizer's orbits there into the
group's by a union-find over coset reps, and sizes each orbit by counting
its flags, |O| = v |O meet X| / k.  Any other group walks J(v,k).  The
members of an orbit are walked only when members asks for them.
"""

from collections import Counter
from itertools import combinations, islice
from math import comb
from types import MappingProxyType

from .perm import PermGroup, ResourceCapError, UnionFind, bits, popcount

DEFAULT_PARTITION_CAP = 10 ** 6


class JohnsonError(ValueError):
    pass


def all_ksubsets(v, k):
    """All k-subset masks of {0..v-1}, ascending by mask value: the sums of
    the k-combinations of the descending powers 2^(v-1) .. 1 descend."""
    powers = [1 << i for i in reversed(range(v))]
    return list(map(sum, combinations(powers, k)))[::-1]


def ksubsets_ascending(v, k):
    """The k-subset masks of {0..v-1}, ascending by mask value, listed
    lazily: those whose top point is t, from all_ksubsets(t, k-1), come
    after all those below t."""
    if k == 0:
        yield 0
        return
    for t in range(k - 1, v):
        yield from map((1 << t).__or__, all_ksubsets(t, k - 1))


def vertex_neighbours(mask, v):
    """All k-subsets at distance 1 from mask: swap one point in for one out."""
    comp = ((1 << v) - 1) ^ mask
    return {mask ^ (1 << u) | (1 << w) for u in bits(mask) for w in bits(comp)}


class Code:
    """A set of k-subsets of {0..v-1} with construction metadata.

    codewords are stored sorted by ascending mask value.  A code flagged
    degenerate equals the full vertex set of J(v,k) (or violates the
    2 <= k <= v-2 window) and is excluded from theorem-consistency runs.
    params is a read-only mapping and notes a tuple, so a code that
    codes.build hands out from its memo cannot be changed by a caller.
    """

    def __init__(self, v, k, codewords, name="", params=None, notes=None):
        codewords = sorted(set(codewords))
        if not codewords:
            raise JohnsonError("empty code")
        for m in codewords:
            if popcount(m) != k:
                raise JohnsonError("codeword of wrong cardinality")
            if m >> v:
                raise JohnsonError("codeword exceeds ground set")
        self.v = v
        self.k = k
        self.codewords = tuple(codewords)
        self.name = name
        self.params = MappingProxyType(dict(params or {}))
        self.notes = tuple(notes or ())
        self.degenerate = len(codewords) == comb(v, k) or not 2 <= k <= v - 2
        self._set = frozenset(codewords)

    def __len__(self):
        return len(self.codewords)

    def __contains__(self, mask):
        return mask in self._set

    def __eq__(self, other):
        return (isinstance(other, Code) and (self.v, self.k) == (other.v, other.k)
                and self.codewords == other.codewords)

    def __hash__(self):
        return hash((self.v, self.k, self.codewords))

    def __repr__(self):
        return (f"Code(v={self.v}, k={self.k}, size={len(self.codewords)},"
                f" name={self.name!r})")

    def as_dict(self):
        # codewords as ascending index lists, sorted lexicographically
        # (the JSON interchange convention; in memory they sort by mask)
        return {
            "v": self.v,
            "k": self.k,
            "name": self.name,
            "codewords": sorted(list(bits(m)) for m in self.codewords),
        }


def neighbour_set(code):
    """The neighbour set: vertices at distance exactly 1 from the code."""
    out = set()
    for m in code.codewords:
        out |= vertex_neighbours(m, code.v)
    return out - code._set


def min_distance(code):
    """Least Johnson distance between distinct codewords; None for singletons."""
    words = code.codewords
    if len(words) < 2:
        return None
    best = 0  # max intersection
    k = code.k
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            inter = popcount(a & b)
            if inter > best:
                best = inter
                if best == k - 1:
                    return 1
    return k - best


class DistancePartition:
    """BFS layering of all vertices of J(v,k) by distance to a code."""

    def __init__(self, cells):
        self.cells = cells

    @property
    def covering_index(self):
        return len(self.cells)


def distance_partition(code, cap=DEFAULT_PARTITION_CAP):
    total = comb(code.v, code.k)
    if total > cap:
        raise ResourceCapError(
            f"J({code.v},{code.k}) has {total} vertices, over cap {cap}")
    cells = [set(code.codewords)]
    seen = set(code.codewords)
    while len(seen) < total:
        layer = set()
        for m in cells[-1]:
            for nb in vertex_neighbours(m, code.v):
                if nb not in seen:
                    layer.add(nb)
        cells.append(layer)
        seen |= layer
    return DistancePartition(cells)


def is_completely_regular(code, cap=DEFAULT_PARTITION_CAP):
    """Equitability of the distance partition (see equitable_matrix)."""
    return equitable_matrix(distance_partition(code, cap=cap), code.v)


def equitable_matrix(part, v):
    """Equitability of a partition of the vertices of J(v,k).

    Returns (True, matrix) where matrix[i][j] is the constant number of
    cell-j neighbours of a cell-i vertex, or (False, witness) with the first
    (i, j, vertex_a, vertex_b, count_a, count_b) violation found.
    """
    cell_index = {}
    for i, cell in enumerate(part.cells):
        for m in cell:
            cell_index[m] = i
    r = part.covering_index
    matrix = []
    for i, cell in enumerate(part.cells):
        row = None
        first = None
        for m in sorted(cell):
            counts = [0] * r
            for nb in vertex_neighbours(m, v):
                counts[cell_index[nb]] += 1
            if row is None:
                row = counts
                first = m
            elif counts != row:
                j = next(j for j in range(r) if counts[j] != row[j])
                return False, (i, j, first, m, row[j], counts[j])
        matrix.append(row)
    return True, matrix


def _flag_point(mask, inside):
    """The lowest point of mask when inside, else the lowest point outside
    it."""
    low = (mask & -mask) if inside else (~mask & (mask + 1))
    return low.bit_length() - 1


class OrbitQuotient:
    """J(v,k) collapsed onto the orbits of the group G acting on its vertices.

    Orbit i has the smallest member reps[i] and sizes[i] members, and
    members(numbers) lists the members of the orbits numbered numbers;
    orbit_of(mask) is the number of mask's orbit.  The orbits are found in
    one of two ways, with the same numbers, reps and sizes:

    - On demand: orbit_of walks the orbit of a vertex not seen before (at
      most cap members, see PermGroup.subset_orbit) and gives it the next
      number; index maps every vertex walked to its orbit, and the walk
      writes each member's number into index as it finds it, so a walk
      stopped by the cap leaves index as it was.
    - fill(cap) finds every orbit of a fresh quotient, numbered in
      ascending order of smallest member, by one route that G and k
      choose.  For a G transitive on the points and 0 < k < v it walks
      only the set X of the k-sets through one point a under its
      stabilizer, the first rung of Schmalz's ladder, and sizes each orbit
      O by counting its flags, |O| = v |O meet X| / k (see
      _fill_through_a_point); it walks no orbit.  Otherwise it scans
      J(v,k) in ascending order and walks each orbit on demand with
      G.subset_walker(size), which may be a generating pair of G, stopping
      once index holds all C(v,k) vertices; an orbit over the quotient's
      cap raises ResourceCapError and the orbits before it stay found.

    An orbit partition is equitable (Godsil-Royle, Algebraic Graph Theory,
    9.3): every member of orbit i has the same number row(i)[j] of
    neighbours in orbit j, counted at reps[i] on first use; a row keeps its
    non-zero entries.  A G-invariant code is a union of orbits, so its
    distance partition and the equitability of that partition are decided
    on these rows alone.
    """

    def __init__(self, G, k, cap):
        self.G = G
        self.v = G.degree
        self.k = k
        self.cap = cap
        self.size = comb(self.v, k)
        self.reps = []
        self.sizes = []
        self.index = {}
        self._members = {}
        self._rows = {}
        self._walker = G
        # set by a fill through a point, see _fill_through_a_point
        self._through = None

    def orbit_of(self, mask):
        if self._through is not None:
            inside, into, xindex, number = self._through
            j = xindex.get(mask)
            if j is None:
                j = xindex[into[_flag_point(mask, inside)](mask)]
            return number[j]
        i = self.index.get(mask)
        if i is None:
            i = len(self.reps)
            members = self._walker.subset_orbit(mask, self.cap, self.index, i)
            self._members[i] = members
            self.reps.append(members[0])
            self.sizes.append(len(members))
        return i

    def members(self, numbers):
        """The members of the orbits numbered numbers, a sorted tuple of
        masks for each number in turn.  The orbits that no walk has listed
        yet are walked once, with G.subset_walker sized to all of them;
        more than cap members in all raise ResourceCapError first."""
        numbers = list(numbers)
        total = sum(self.sizes[i] for i in set(numbers))
        if total > self.cap:
            raise ResourceCapError(f"the orbits asked for have {total} "
                                   f"members, over cap {self.cap}")
        todo = sorted(set(numbers).difference(self._members))
        walker = self.G.subset_walker(sum(self.sizes[i] for i in todo))
        for i in todo:
            self._members[i] = walker.subset_orbit(self.reps[i], self.cap)
        return [self._members[i] for i in numbers]

    def fill(self, cap):
        """Finds every orbit, or raises ResourceCapError with no orbit
        numbered when the k-sets it holds and scans would exceed cap: C(v,k)
        on the walk of J(v,k), |X| plus the numbering scan through a point."""
        v, k = self.v, self.k
        through = 0 < k < v and self.G.is_transitive()
        inside = 2 * k <= v
        held = comb(v - 1, k - inside) if through else self.size
        over = f"J({v},{k}) has {held} " + (
            f"{k}-sets {'through' if inside else 'off'} a point"
            if through else "vertices")
        if held > cap:
            raise ResourceCapError(f"{over}, over cap {cap}")
        if through:
            self._fill_through_a_point(
                inside, held, islice(ksubsets_ascending(v, k), cap - held))
            if self._through is None:
                raise ResourceCapError(
                    f"{over}, and its orbits need a scan of more than "
                    f"{cap - held} {k}-sets, over cap {cap}")
        else:
            index, size = self.index, self.size
            self._walker = self.G.subset_walker(size)
            for mask in ksubsets_ascending(self.v, self.k):
                if len(index) == size:
                    break
                if mask not in index:
                    self.orbit_of(mask)
        return self

    def _fill_through_a_point(self, inside, xsize, scan):
        """fill() for a G transitive on the points and 0 < k < v, through
        the stabilizer G_a of a = base[0] of G's chain: the first rung of
        Schmalz's ladder (B. Schmalz, Leiterspiel, Bayreuther Math. Schr.
        1990).

        X is the set of the xsize k-sets through a or, when 2k > v, the
        smaller set of k-sets that miss a; inside tells which.  G_a =
        <level_gens[1]>, of order |G|/v, walks X with G_a.subset_walker.
        Every G-orbit O meets X in a union of G_a-orbits.  The flags (p, S)
        of O, p in S (not in S when outside), are G-images of the flags
        (a, S'), S' in O meet X; and (p, S) is the image by u_p of
        (a, u_p^-1(S)), u_p the coset rep of transversals[0] that maps a
        to p.  So the union-find that joins each G_a-orbit, with first
        member r, to the G_a-orbit of u_p^-1(r) for every p in r (not in
        r) other than a gives the G-orbits.  Counting O's flags by their
        points and by their sets (Seress, Permutation Group Algorithms,
        4.1) gives |O| = v |O meet X| / k, or v |O meet X| / (v - k).

        A mask S lies in the orbit of u_p^-1(S), p = _flag_point(S), a
        k-set in X; so scan, J(v,k) in ascending order, meets each orbit
        first at its smallest member and numbers the orbits as the walk of
        J(v,k) does, unless scan ends before the last orbit.  _through
        then stays None; else it keeps inside, the actions into = [u_p^-1],
        the G_a-orbit of each k-set in X, and each G_a-orbit's orbit
        number, for orbit_of.
        """
        G, v, k = self.G, self.v, self.k
        base, level_gens, _ = G.bsgs()
        a = base[0]
        # the k-sets of X, from the ascending (k-1)-sets, or k-sets, of
        # the points other than a: the points above a move up by one
        below, with_a = (1 << a) - 1, (1 << a) if inside else 0
        stab = PermGroup(v, level_gens[1] if len(base) > 1 else [],
                         order=G.order() // v)
        walker = stab.subset_walker(xsize)
        xindex, firsts, counts = {}, [], []
        for m in ksubsets_ascending(v - 1, k - inside):
            if len(xindex) == xsize:
                break
            x = m & below | (m & ~below) << 1 | with_a
            if x not in xindex:
                firsts.append(x)
                counts.append(len(walker.subset_orbit(
                    x, xsize, xindex, len(counts))))
        # fuse the G_a-orbits into G-orbits
        into = [u.apply_mask
                for _, u in sorted(G.coset_inverses()[0].items())]
        sets = UnionFind(len(firsts))
        full = (1 << v) - 1
        for j, r in enumerate(firsts):
            for p in bits(r if inside else full ^ r):
                if p != a:
                    sets.union(j, xindex[into[p](r)])
        root = [sets.find(j) for j in range(len(firsts))]
        meet = [0] * len(firsts)  # |O meet X|, at the root of each G-orbit O
        for j, n in enumerate(counts):
            meet[root[j]] += n
        per_flag = k if inside else v - k
        # number the G-orbits by the ascending scan
        number = {}
        reps, sizes = [], []
        orbits = len(set(root))
        for mask in scan:
            j = xindex.get(mask)
            if j is None:
                j = xindex[into[_flag_point(mask, inside)](mask)]
            if root[j] not in number:
                number[root[j]] = len(reps)
                reps.append(mask)
                sizes.append(v * meet[root[j]] // per_flag)
                if len(reps) == orbits:
                    break
        if len(reps) == orbits:
            self.reps, self.sizes = reps, sizes
            self._through = (inside, into, xindex, [number[r] for r in root])

    def in_order(self, numbers):
        """Orbit numbers, ascending by smallest member."""
        return sorted(numbers, key=self.reps.__getitem__)

    def orbits_of(self, masks):
        """The numbers of the orbits whose union is the set of distinct
        k-subsets masks, in_order."""
        chosen = self.in_order({self.orbit_of(m) for m in masks})
        if sum(self.sizes[i] for i in chosen) != len(masks):
            raise JohnsonError("code is not a union of orbits")
        return chosen

    def row(self, i):
        if i not in self._rows:
            self._rows[i] = Counter(map(
                self.orbit_of, vertex_neighbours(self.reps[i], self.v)))
        return self._rows[i]

    def partition(self, start):
        """The distance partition of the union of the orbits numbered start
        and its equitability, in one breadth-first pass over the rows.

        Returns (cells, True, matrix) or (cells, False, witness), each cell
        a list of orbit numbers, in_order, whose vertices are those of
        distance_partition(code) for that union; matrix and witness are
        those of equitable_matrix on it.  The neighbours of a vertex in
        cell c lie in cells c-1, c and c+1, so cell c's counts are checked
        as soon as cell c+1 is found, and the pass stops at the first cell
        whose orbits' counts differ: cells then ends at the cell after it,
        or at it when it is the last.  That cell holds two orbits or more,
        so cells holds the first cell that is not one orbit whatever the
        verdict.
        """
        cells = [self.in_order(start)]
        cell_of = dict.fromkeys(start, 0)
        matrix = []
        # cells grows by one cell while its last cell is read
        for c, cell in enumerate(cells):
            layer = {j for i in cell for j in self.row(i)}.difference(cell_of)
            if layer:
                cells.append(self.in_order(layer))
                cell_of.update(dict.fromkeys(layer, c + 1))
            row = None
            for i in cell:
                counts = [0] * len(cells)
                for j, n in self.row(i).items():
                    counts[cell_of[j]] += n
                if row is None:
                    row = counts
                elif counts != row:
                    j = next(j for j, n in enumerate(counts) if n != row[j])
                    return cells, False, (c, j, self.reps[cell[0]],
                                          self.reps[i], row[j], counts[j])
            matrix.append(row)
        r = len(cells)
        return cells, True, [row + [0] * (r - len(row)) for row in matrix]


def u_type(mask, partition):
    """Multiset of nonzero part-intersection sizes, as a sorted tuple.

    partition is a sequence of disjoint part masks covering {0..v-1}.
    """
    covered = 0
    sizes = []
    for part in partition:
        if part & covered:
            raise JohnsonError("parts are not disjoint")
        covered |= part
        c = popcount(mask & part)
        if c:
            sizes.append(c)
    if mask & ~covered:
        raise JohnsonError("parts do not cover the subset")
    return tuple(sorted(sizes))


def complement_code(code):
    """The code of complements, living in J(v, v-k)."""
    full = (1 << code.v) - 1
    return Code(code.v, code.v - code.k,
                [full ^ m for m in code.codewords],
                name=f"complement({code.name})" if code.name else "complement",
                params=code.params, notes=code.notes)

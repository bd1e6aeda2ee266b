"""Block-symmetric group actions on polynomials and Gram matrices.

The groups handled here are direct products of full symmetric groups, one
factor per contiguous block of variables.  Orbits of monomials (and of
pairs of monomials, under the diagonal action) are represented by
canonical forms: within each block the exponents (or exponent pairs) are
sorted descending, so two elements are in the same orbit iff their
canonical forms are equal.  Monomial orbits are built from each block's
descending exponent tuples, pair orbits from a key the size of the pair's
support (per block, the multiset of nonzero exponent pairs): only each
orbit's canonical form is built.  All averaging and the invariance test
go orbit by orbit with exact orbit sizes.  The group acts only through
its generators, the adjacent swaps of two variables in one block
(swapped); no group element is ever built or listed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionMismatch
from .poly import Monomial, MonomialBasis, Polynomial, grlex_key


@dataclass(frozen=True)
class GroupSpec:
    """A product of symmetric groups acting on contiguous variable blocks."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.block_sizes or any(b <= 0 for b in self.block_sizes):
            raise ValueError("block sizes must be positive")

    @classmethod
    def symmetric(cls, n: int) -> "GroupSpec":
        return cls((n,))

    @classmethod
    def trivial(cls, n: int) -> "GroupSpec":
        return cls((1,) * n)

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        """Each block's slice of an exponent tuple, computed once per group."""
        return tuple(slice(blk.start, blk.stop) for blk in self.blocks())

    def blocks(self) -> list[range]:
        out, start = [], 0
        for b in self.block_sizes:
            out.append(range(start, start + b))
            start += b
        return out

    def swaps(self) -> list[int]:
        """i for each transposition (i, i + 1) of two variables in one block."""
        return [i for blk in self.blocks() for i in blk[:-1]]

    def __str__(self) -> str:
        return "x".join(f"S({b})" for b in self.block_sizes)


def swapped_monomial(mono: Monomial, i: int) -> Monomial:
    """mono with the exponents of x_i and x_(i+1) exchanged."""
    return mono[:i] + (mono[i + 1], mono[i]) + mono[i + 2:]


def swapped(p: Polynomial, i: int) -> Polynomial:
    """p with x_i and x_(i+1) exchanged: the group's one action."""
    return Polynomial._of_clean(p.n, {swapped_monomial(m, i): c for m, c in p.terms.items()})


# -- canonical forms and orbit enumeration ---------------------------------


def canonical_monomial(group: GroupSpec, mono: Monomial) -> Monomial:
    """Orbit representative: exponents sorted descending within each block,
    one sort of the block's slice each."""
    if group.n != len(mono):
        raise DimensionMismatch("group and monomial arity differ")
    out: list[int] = []
    for sl in group.block_slices:
        out += sorted(mono[sl], reverse=True)
    return tuple(out)


def _multiset_orbit_size(values: Iterable) -> int:
    counts = Counter(values)
    size = math.factorial(sum(counts.values()))
    for c in counts.values():
        size //= math.factorial(c)
    return size


def monomial_orbit_size(group: GroupSpec, mono: Monomial) -> int:
    out = 1
    for sl in group.block_slices:
        out *= _multiset_orbit_size(mono[sl])
    return out


def _distinct_arrangements(items: Sequence) -> Iterator[tuple]:
    """All distinct orderings of a multiset in lexicographic order, without
    generating duplicates (the classic next-permutation step)."""
    slot = sorted(items)
    while True:
        yield tuple(slot)
        i = len(slot) - 2
        while i >= 0 and slot[i] >= slot[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(slot) - 1
        while slot[j] <= slot[i]:
            j -= 1
        slot[i], slot[j] = slot[j], slot[i]
        slot[i + 1:] = reversed(slot[i + 1:])


def monomial_orbit_elements(group: GroupSpec, mono: Monomial) -> Iterator[Monomial]:
    per_block = [_distinct_arrangements(mono[sl]) for sl in group.block_slices]
    for combo in itertools.product(*[list(g) for g in per_block]):
        out: list[int] = []
        for part in combo:
            out.extend(part)
        yield tuple(out)


@dataclass
class OrbitTable:
    """Orbits of monomials (or monomial pairs) of degree <= d.

    representatives are canonical forms in a deterministic order; orbit_of
    maps each orbit's key to its index: its canonical form (monomials) or
    its support key (pairs, see _pair_keys); sizes[i] counts the elements
    of orbit i.  The sizes always sum to the size of the underlying set.
    A pair table also keeps, as grid, the orbit index of each ordered pair
    of the monomials its pairs are drawn from, in their order.
    """

    group: GroupSpec
    degree: int
    representatives: list
    orbit_of: dict
    sizes: list[int]
    grid: Optional[list[list[int]]] = None

    def __len__(self) -> int:
        return len(self.representatives)


def enumerate_monomial_orbits(group: GroupSpec, degree: int) -> OrbitTable:
    """Orbits of all monomials of degree <= degree under the block action.

    A representative puts one nonincreasing tuple of positive exponents at
    the start of each of at most degree blocks, so the work follows the
    orbits, not the monomials."""
    joined: list[tuple[tuple, int]] = [((), 0)]  # ((block, exponents), ...), degree
    for b, size in enumerate(group.block_sizes):
        parts = [(c, sum(c)) for k in range(1, min(size, degree) + 1)
                 for c in itertools.combinations_with_replacement(range(degree, 0, -1), k)]
        joined += [(r + ((b, c),), d + e) for r, d in joined for c, e in parts
                   if d + e <= degree]
    starts = [blk.start for blk in group.blocks()]
    sizes: dict[Monomial, int] = {}
    for placed, _ in joined:
        mono, size = [0] * group.n, 1
        for b, c in placed:
            mono[starts[b]:starts[b] + len(c)] = c
            size *= math.comb(group.block_sizes[b], len(c)) * _multiset_orbit_size(c)
        sizes[tuple(mono)] = size
    reps = sorted(sizes, key=grlex_key)
    return OrbitTable(
        group=group, degree=degree,
        representatives=reps, orbit_of={r: i for i, r in enumerate(reps)},
        sizes=[sizes[r] for r in reps])


def _pair_keys(group: GroupSpec, monomials: Sequence[Monomial]) -> list[list[tuple]]:
    """The orbit key of every ordered pair of these monomials, row by row.

    A pair (a, b)'s key is the sorted tuple of cells (block, a_i, b_i) over
    the variables i where a or b is nonzero: per block, the multiset of its
    nonzero cells.  Two pairs are in one orbit iff their keys are equal,
    and a key is the size of the pair's support, not n.
    """
    if any(len(m) != group.n for m in monomials):
        raise DimensionMismatch("group and monomial arity differ")
    block = [k for k, size in enumerate(group.block_sizes) for _ in range(size)]
    sparse = [{i: e for i, e in enumerate(m) if e} for m in monomials]
    keys = []
    for sa in sparse:
        row = []
        for sb in sparse:
            cells = [(block[i], e, sb.get(i, 0)) for i, e in sa.items()]
            cells += [(block[i], 0, e) for i, e in sb.items() if i not in sa]
            cells.sort()
            row.append(tuple(cells))
        keys.append(row)
    return keys


def _transposed(key: tuple) -> tuple:
    """The key of the transposed pairs (b, a)."""
    return tuple(sorted((blk, y, x) for blk, x, y in key))


def _pair_representative(n: int, starts: list[int], key: tuple) -> tuple[Monomial, Monomial]:
    """The orbit's canonical form: in each block, from its start, the
    nonzero cells (a_i, b_i) sorted descending, then the zero cells."""
    a, b = [0] * n, [0] * n
    free = list(starts)  # next position in each block
    for blk, x, y in sorted(key, key=lambda cell: (cell[0], -cell[1], -cell[2])):
        a[free[blk]], b[free[blk]] = x, y
        free[blk] += 1
    return tuple(a), tuple(b)


def enumerate_pair_orbits(group: GroupSpec, degree: int,
                          monomials: Optional[Sequence[Monomial]] = None) -> OrbitTable:
    """Orbits of ordered pairs of monomials under the diagonal action: pairs
    of these monomials (a group-invariant set of degree <= degree, such as
    a Gram basis's standard monomials), or of all monomials of degree <=
    degree.  orbit_of maps each orbit's key (see _pair_keys) to its index;
    no pair is built as a whole n-tuple, only each orbit's representative."""
    if monomials is None:
        monomials = MonomialBasis(group.n, degree).entries
    keys = _pair_keys(group, monomials)
    sizes = Counter(key for row in keys for key in row)
    starts = [blk.start for blk in group.blocks()]
    canon = {key: _pair_representative(group.n, starts, key) for key in sizes}
    order = sorted(sizes, key=lambda k: (grlex_key(canon[k][0]), grlex_key(canon[k][1])))
    index = {k: i for i, k in enumerate(order)}
    return OrbitTable(
        group=group, degree=degree,
        representatives=[canon[k] for k in order], orbit_of=index,
        sizes=[sizes[k] for k in order],
        grid=[[index[k] for k in row] for row in keys])


# -- Gram matrices ----------------------------------------------------------


class GramMatrix:
    """A symmetric rational matrix indexed by a monomial basis."""

    __slots__ = ("basis", "entries")

    def __init__(self, basis: MonomialBasis, entries: Optional[list[list[Fraction]]] = None):
        self.basis = basis
        dim = len(basis)
        if entries is None:
            self.entries = [[Fraction(0)] * dim for _ in range(dim)]
        else:
            if len(entries) != dim or any(len(r) != dim for r in entries):
                raise DimensionMismatch("entry grid does not match basis size")
            # Fractions are kept as given (they are immutable); ints convert.
            self.entries = [[x if type(x) is Fraction else Fraction(x) for x in row]
                            for row in entries]
            for i, (row, col) in enumerate(zip(self.entries, zip(*self.entries))):
                if row[i + 1:] != list(col[i + 1:]):
                    j = next(j for j in range(i + 1, dim) if row[j] != col[j])
                    raise ValueError(f"entries not symmetric at ({i}, {j})")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, GramMatrix)
                and self.basis == other.basis and self.entries == other.entries)

    def integer_form(self) -> tuple[int, list[int], list[list[int]], dict[Monomial, int]]:
        """(den, keep, block, terms): den the lcm of Q's denominators, keep
        Q's nonzero rows, and den * Q on keep x keep and den * <Q, x x^T>
        (no zero coefficient) as ints."""
        keep = [i for i, row in enumerate(self.entries) if any(row)]
        grid = [[self.entries[i][j] for j in keep] for i in keep]
        den = math.lcm(*(x.denominator for row in grid for x in row))
        block = [[x.numerator * (den // x.denominator) for x in row] for row in grid]
        monos = [self.basis.entries[i] for i in keep]
        terms: dict[Monomial, int] = {}
        for t, (a, row) in enumerate(zip(monos, block)):
            # Entries (a, b) and (b, a) share the monomial x^(a+b).
            for u in range(t, len(keep)):
                c = row[u] if u == t else row[u] + block[u][t]
                if c:
                    m = tuple(map(add, a, monos[u]))
                    terms[m] = terms.get(m, 0) + c
        return den, keep, block, {m: c for m, c in terms.items() if c}

    def to_polynomial(self) -> Polynomial:
        """<Q, x x^T> where x is the basis vector: sum Q_ab x^(a+b)."""
        den, _, _, terms = self.integer_form()
        return Polynomial._of_clean(self.basis.n, {m: Fraction(c, den)
                                                   for m, c in terms.items()})

    def __repr__(self) -> str:
        return f"GramMatrix(basis={self.basis!r})"


def reynolds_polynomial(group: GroupSpec, p: Polynomial) -> Polynomial:
    """Group average of p, computed orbit by orbit (never over the group).

    Idempotent, fixes invariant polynomials, and sends every coefficient
    orbit to its mean.
    """
    if group.n != p.n:
        raise DimensionMismatch("group and polynomial arity differ")
    totals: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms.items():
        canon = canonical_monomial(group, mono)
        totals[canon] = totals.get(canon, Fraction(0)) + coeff
    out: dict[Monomial, Fraction] = {}
    for canon, total in totals.items():
        if total == 0:
            continue
        mean = total / monomial_orbit_size(group, canon)
        for member in monomial_orbit_elements(group, canon):
            out[member] = mean
    return Polynomial(p.n, out)


def reynolds_gram(group: GroupSpec, q: GramMatrix) -> GramMatrix:
    """Group average of a Gram matrix: every pair orbit of entries is replaced
    by its mean.  An average of PSD conjugates, so PSD is preserved."""
    if group.n != q.basis.n:
        raise DimensionMismatch("group and basis arity differ")
    table = enumerate_pair_orbits(group, q.basis.d, q.basis.entries)
    sums = [Fraction(0)] * len(table)
    for ids, row in zip(table.grid, q.entries):
        for r, x in zip(ids, row):
            sums[r] += x
    means = [total / size for total, size in zip(sums, table.sizes)]
    return GramMatrix(q.basis, [[means[r] for r in ids] for ids in table.grid])


def orbit_indicator_matrices(table: OrbitTable) -> list[list[int]]:
    """One symmetric grid of ids 0..k-1 over the pair table's monomials:
    indicator r is the 0/1 matrix that is 1 exactly where the grid holds r.

    Each pair orbit is merged with its transpose orbit, so the indicators
    are symmetric, have disjoint supports and sum to the all-ones matrix;
    the ids number the merged orbits in the order of their first orbit.
    Over a group-invariant set of monomials, every G-invariant Gram matrix
    is a unique rational combination of them.
    """
    if table.grid is None:
        raise ValueError("need a pair orbit table")
    merged = [0] * len(table)
    for key, i in table.orbit_of.items():
        merged[i] = min(i, table.orbit_of[_transposed(key)])
    slot = {m: i for i, m in enumerate(sorted(set(merged)))}
    return [[slot[merged[r]] for r in row] for row in table.grid]


def moving_swaps(group: GroupSpec, monomials: Iterable[Monomial]) -> list[int]:
    """The transpositions (i, i + 1) of group.swaps() next to the support of
    these monomials, the only ones that can move any of them."""
    support = {j for m in monomials for j, e in enumerate(m) if e}
    near = {j - s for j in support for s in (0, 1)}
    return [i for i in group.swaps() if i in near]


def is_invariant(group: GroupSpec, p: Polynomial) -> bool:
    """True iff p is fixed by the whole group, checked one monomial orbit at
    a time: the terms in each orbit must be all of its members, with one
    coefficient."""
    if group.n != p.n:
        raise DimensionMismatch("group and polynomial arity differ")
    orbits: dict[Monomial, list] = {}  # canonical form -> [coefficient, terms]
    for mono, coeff in p.terms.items():
        seen = orbits.setdefault(canonical_monomial(group, mono), [coeff, 0])
        if seen[0] != coeff:
            return False
        seen[1] += 1
    return all(count == monomial_orbit_size(group, canon)
               for canon, (_, count) in orbits.items())


def is_invariant_system(group: GroupSpec,
                        system: Sequence[Polynomial]) -> tuple[bool, Optional[list[list[int]]]]:
    """Whether the polynomial list is closed under the group action.

    On success also returns the orbit partition as lists of indices into
    the system (deterministic: orbits ordered by smallest member).  An
    invariant member, checked one monomial orbit at a time, is its own
    image; another member's images are taken under the transpositions
    next to its support, the only generators that move it.
    """
    index: dict = {}
    for i, p in enumerate(system):
        index.setdefault(p.key(), i)
    parent = list(range(len(system)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    has_generators = bool(group.swaps())
    for i, p in enumerate(system):
        if is_invariant(group, p):  # each generator maps p to its first copy
            images = [p] if has_generators else []
        else:
            images = [swapped(p, s) for s in moving_swaps(group, p.terms)]
        for image in images:
            j = index.get(image.key())
            if j is None:
                return False, None
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(len(system)):
        groups.setdefault(find(i), []).append(i)
    return True, [groups[r] for r in sorted(groups)]

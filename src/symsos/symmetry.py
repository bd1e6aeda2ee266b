"""Block-symmetric group actions on polynomials and Gram matrices.

The groups handled here are direct products of full symmetric groups, one
factor per contiguous block of variables.  Orbits of monomials (and of
pairs of monomials, under the diagonal action) are represented by
canonical forms: within each block the exponents (or exponent pairs) are
sorted descending, so two elements are in the same orbit iff their
canonical forms are equal.  All averaging is done orbit by orbit with
exact orbit sizes; nothing here ever enumerates the group itself unless
a caller explicitly walks elements().
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionMismatch
from .poly import Monomial, MonomialBasis, Polynomial, accumulate_term, grlex_key


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

    def blocks(self) -> list[range]:
        out, start = [], 0
        for b in self.block_sizes:
            out.append(range(start, start + b))
            start += b
        return out

    def generators(self) -> list["Permutation"]:
        """Adjacent transpositions within each block."""
        gens = []
        for blk in self.blocks():
            for i in blk[:-1]:
                images = list(range(self.n))
                images[i], images[i + 1] = images[i + 1], images[i]
                gens.append(Permutation(tuple(images)))
        return gens

    def elements(self) -> Iterator["Permutation"]:
        """Every group element; the cost, the group order, is on the caller."""
        per_block = [list(itertools.permutations(blk)) for blk in self.blocks()]
        for combo in itertools.product(*per_block):
            images = [0] * self.n
            for blk, perm in zip(self.blocks(), combo):
                for src, dst in zip(blk, perm):
                    images[src] = dst
            yield Permutation(tuple(images))

    def __str__(self) -> str:
        return "x".join(f"S({b})" for b in self.block_sizes)


@dataclass(frozen=True)
class Permutation:
    """A permutation of variable indices, stored as an image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]


def act_on_monomial(g: Permutation, mono: Monomial) -> Monomial:
    """The exponent at position g(i) of the image equals the exponent at i."""
    if g.n != len(mono):
        raise DimensionMismatch("permutation size does not match monomial arity")
    out = [0] * g.n
    for i, e in enumerate(mono):
        out[g.images[i]] = e
    return tuple(out)


def act_on_polynomial(g: Permutation, p: Polynomial) -> Polynomial:
    if g.n != p.n:
        raise DimensionMismatch("permutation size does not match polynomial arity")
    return Polynomial._of_clean(p.n, {act_on_monomial(g, m): c for m, c in p.terms.items()})


# -- canonical forms and orbit enumeration ---------------------------------


def canonical_monomial(group: GroupSpec, mono: Monomial) -> Monomial:
    """Orbit representative: exponents sorted descending within each block."""
    if group.n != len(mono):
        raise DimensionMismatch("group and monomial arity differ")
    out: list[int] = []
    for blk in group.blocks():
        out.extend(sorted((mono[i] for i in blk), reverse=True))
    return tuple(out)


def canonical_pair(group: GroupSpec, pair: tuple[Monomial, Monomial]) -> tuple[Monomial, Monomial]:
    """Representative of the orbit of a monomial pair under the diagonal action:
    within each block the coordinate pairs are sorted descending."""
    a, b = pair
    if group.n != len(a) or group.n != len(b):
        raise DimensionMismatch("group and pair arity differ")
    out_a: list[int] = []
    out_b: list[int] = []
    for blk in group.blocks():
        cells = sorted(((a[i], b[i]) for i in blk), reverse=True)
        out_a.extend(x for x, _ in cells)
        out_b.extend(y for _, y in cells)
    return tuple(out_a), tuple(out_b)


def _multiset_orbit_size(values: Iterable) -> int:
    counts = Counter(values)
    size = math.factorial(sum(counts.values()))
    for c in counts.values():
        size //= math.factorial(c)
    return size


def monomial_orbit_size(group: GroupSpec, mono: Monomial) -> int:
    out = 1
    for blk in group.blocks():
        out *= _multiset_orbit_size(mono[i] for i in blk)
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
    per_block = [_distinct_arrangements([mono[i] for i in blk]) for blk in group.blocks()]
    for combo in itertools.product(*[list(g) for g in per_block]):
        out: list[int] = []
        for part in combo:
            out.extend(part)
        yield tuple(out)


@dataclass
class OrbitTable:
    """Orbits of monomials (or monomial pairs) of degree <= d.

    representatives are canonical forms in a deterministic order; orbit_of
    maps every element of the underlying set to its orbit index; sizes[i]
    counts the elements of orbit i.  The sizes always sum to the size of
    the underlying set.
    """

    group: GroupSpec
    degree: int
    kind: str  # "monomial" | "pair"
    representatives: list
    orbit_of: dict
    sizes: list[int]

    def __len__(self) -> int:
        return len(self.representatives)


def enumerate_monomial_orbits(group: GroupSpec, degree: int) -> OrbitTable:
    """Orbits of all monomials of degree <= degree under the block action."""
    basis = MonomialBasis(group.n, degree)
    buckets: dict[Monomial, int] = {}
    assign: dict[Monomial, Monomial] = {}
    for mono in basis:
        canon = canonical_monomial(group, mono)
        buckets[canon] = buckets.get(canon, 0) + 1
        assign[mono] = canon
    reps = sorted(buckets, key=grlex_key)
    index = {rep: i for i, rep in enumerate(reps)}
    return OrbitTable(
        group=group, degree=degree, kind="monomial",
        representatives=reps,
        orbit_of={m: index[c] for m, c in assign.items()},
        sizes=[buckets[r] for r in reps])


def enumerate_pair_orbits(group: GroupSpec, degree: int) -> OrbitTable:
    """Orbits of ordered pairs of degree-<=d monomials under the diagonal action."""
    basis = MonomialBasis(group.n, degree)
    buckets: dict[tuple[Monomial, Monomial], int] = {}
    assign: dict[tuple[Monomial, Monomial], tuple[Monomial, Monomial]] = {}
    for a in basis:
        for b in basis:
            canon = canonical_pair(group, (a, b))
            buckets[canon] = buckets.get(canon, 0) + 1
            assign[(a, b)] = canon
    reps = sorted(buckets, key=lambda ab: (grlex_key(ab[0]), grlex_key(ab[1])))
    index = {rep: i for i, rep in enumerate(reps)}
    return OrbitTable(
        group=group, degree=degree, kind="pair",
        representatives=reps,
        orbit_of={p: index[c] for p, c in assign.items()},
        sizes=[buckets[r] for r in reps])


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
            self.entries = [[Fraction(x) for x in row] for row in entries]
            for i in range(dim):
                for j in range(i + 1, dim):
                    if self.entries[i][j] != self.entries[j][i]:
                        raise ValueError(f"entries not symmetric at ({i}, {j})")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, GramMatrix)
                and self.basis == other.basis and self.entries == other.entries)

    def to_polynomial(self) -> Polynomial:
        """<Q, x x^T> where x is the basis vector: sum Q_ab x^(a+b)."""
        out: dict[Monomial, Fraction] = {}
        ents = self.basis.entries
        for i, a in enumerate(ents):
            row = self.entries[i]
            for j, b in enumerate(ents):
                c = row[j]
                if c:
                    accumulate_term(out, tuple(map(add, a, b)), c)
        return Polynomial._of_clean(self.basis.n, out)

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
    ents = q.basis.entries
    dim = len(ents)
    sums: dict[tuple[Monomial, Monomial], Fraction] = {}
    counts: dict[tuple[Monomial, Monomial], int] = {}
    canon_at = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            canon = canonical_pair(group, (ents[i], ents[j]))
            canon_at[i][j] = canon
            sums[canon] = sums.get(canon, Fraction(0)) + q.entries[i][j]
            counts[canon] = counts.get(canon, 0) + 1
    means = {c: sums[c] / counts[c] for c in sums}
    out = [[means[canon_at[i][j]] for j in range(dim)] for i in range(dim)]
    return GramMatrix(q.basis, out)


def orbit_indicator_matrices(table: OrbitTable,
                             monomials: Sequence[Monomial]) -> list[list[int]]:
    """One symmetric grid of ids 0..k-1 over these monomials of degree <=
    table.degree (a MonomialBasis, or any part of one): indicator r is the
    0/1 matrix that is 1 exactly where the grid holds r.

    Each pair orbit is merged with its transpose orbit, so the indicators
    are symmetric, have disjoint supports and sum to the all-ones matrix;
    the ids number the merged orbits that the grid meets.  Over a
    group-invariant set of monomials, every G-invariant Gram matrix is a
    unique rational combination of them.
    """
    if table.kind != "pair":
        raise ValueError("need a pair orbit table")
    if any(len(m) != table.group.n or sum(m) > table.degree for m in monomials):
        raise DimensionMismatch("orbit table and basis disagree")
    merged = [min(idx, table.orbit_of[canonical_pair(table.group, (b, a))])
              for idx, (a, b) in enumerate(table.representatives)]
    grid = [[merged[table.orbit_of[(a, b)]] for b in monomials] for a in monomials]
    slot = {m: i for i, m in enumerate(sorted({m for row in grid for m in row}))}
    return [[slot[m] for m in row] for row in grid]


def is_invariant(group: GroupSpec, p: Polynomial) -> bool:
    """True iff p is fixed by the whole group (checked on generators)."""
    return all(act_on_polynomial(g, p) == p for g in group.generators())


def is_invariant_system(group: GroupSpec,
                        system: Sequence[Polynomial]) -> tuple[bool, Optional[list[list[int]]]]:
    """Whether the polynomial list is closed under the group action.

    On success also returns the orbit partition as lists of indices into
    the system (deterministic: orbits ordered by smallest member).
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

    for i, p in enumerate(system):
        for g in group.generators():
            image = act_on_polynomial(g, p)
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

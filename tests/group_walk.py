"""The group as a list of permutations: a brute-force oracle for tests.

symsos never builds a group element; it acts by adjacent swaps and works
on orbits.  The tests compare that against these walks over every element,
whose cost is the group order.
"""

import itertools
from dataclasses import dataclass

from symsos.errors import DimensionMismatch
from symsos.poly import Polynomial


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


def transposition(group, i):
    """The permutation exchanging variables i and i + 1."""
    images = list(range(group.n))
    images[i], images[i + 1] = images[i + 1], images[i]
    return Permutation(tuple(images))


def elements(group):
    """Every element of the group."""
    per_block = [list(itertools.permutations(blk)) for blk in group.blocks()]
    for combo in itertools.product(*per_block):
        images = [0] * group.n
        for blk, perm in zip(group.blocks(), combo):
            for src, dst in zip(blk, perm):
                images[src] = dst
        yield Permutation(tuple(images))


def act_on_monomial(g, mono):
    """The exponent at position g(i) of the image equals the exponent at i."""
    if g.n != len(mono):
        raise DimensionMismatch("permutation size does not match monomial arity")
    out = [0] * g.n
    for i, e in enumerate(mono):
        out[g.images[i]] = e
    return tuple(out)


def act_on_polynomial(g, p):
    if g.n != p.n:
        raise DimensionMismatch("permutation size does not match polynomial arity")
    return Polynomial(p.n, {act_on_monomial(g, m): c for m, c in p.terms.items()})


def canonical_pair(group, pair):
    """Representative of the orbit of a monomial pair under the diagonal action:
    within each block the coordinate pairs are sorted descending."""
    a, b = pair
    if group.n != len(a) or group.n != len(b):
        raise DimensionMismatch("group and pair arity differ")
    out_a, out_b = [], []
    for blk in group.blocks():
        cells = sorted(((a[i], b[i]) for i in blk), reverse=True)
        out_a.extend(x for x, _ in cells)
        out_b.extend(y for _, y in cells)
    return tuple(out_a), tuple(out_b)

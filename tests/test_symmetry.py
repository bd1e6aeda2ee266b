import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsos.errors import DimensionMismatch
from symsos.linalg import psd_certificate
from symsos.pipeline import ProblemInstance, _gram_orbits
from symsos.poly import MonomialBasis, Polynomial, grlex_key, monomials_up_to
from symsos.symmetry import (GramMatrix, GroupSpec, canonical_monomial,
                             enumerate_monomial_orbits, enumerate_pair_orbits,
                             is_invariant, is_invariant_system,
                             monomial_orbit_elements, monomial_orbit_size,
                             orbit_indicator_matrices, reynolds_gram,
                             reynolds_polynomial, swapped)

from .group_walk import (Permutation, act_on_monomial, act_on_polynomial,
                         canonical_pair, elements, transposition)
from .test_poly import random_poly


def random_group(rng, n):
    blocks = []
    left = n
    while left:
        b = rng.randint(1, left)
        blocks.append(b)
        left -= b
    return GroupSpec(tuple(blocks))


def brute_orbit(group, mono):
    return {act_on_monomial(g, mono) for g in elements(group)}


def act_on_gram(g, q):
    """g * Q: entry (a, b) of Q moves to (g(a), g(b)), so that <g * Q, x x^T>
    is g applied to <Q, x x^T>."""
    basis = q.basis
    image = [basis.index(act_on_monomial(g, m)) for m in basis.entries]
    out = [[Fraction(0)] * len(basis) for _ in image]
    for i, r in enumerate(image):
        for j, c in enumerate(image):
            out[r][c] = q.entries[i][j]
    return GramMatrix(basis, out)


def bipartitions(k, l, largest=None):
    """Multisets of pairs (a, b) != (0, 0) of nonnegative integers summing
    to (k, l), counted as lex-nonincreasing sequences of parts."""
    if (k, l) == (0, 0):
        return 1
    return sum(bipartitions(k - a, l - b, (a, b))
               for a in range(k + 1) for b in range(l + 1)
               if (a, b) != (0, 0) and (largest is None or (a, b) <= largest))


def test_group_spec_basics():
    g = GroupSpec((2, 1))
    assert g.n == 3
    assert str(g) == "S(2)xS(1)"
    assert len(list(elements(GroupSpec((2, 2))))) == 4
    with pytest.raises(ValueError):
        GroupSpec((0, 2))


def test_act_on_monomial_moves_exponents():
    # g sends position i to position g(i); exponents ride along
    g = Permutation((1, 0))
    assert act_on_monomial(g, (2, 0)) == (0, 2)
    cyc = Permutation((1, 2, 0))
    assert act_on_monomial(cyc, (3, 1, 0)) == (0, 3, 1)


def test_act_on_polynomial_evaluation():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 4)
        group = random_group(rng, n)
        p = random_poly(rng, n, 3)
        pt = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
        for g in elements(group):
            moved = act_on_polynomial(g, p)
            permuted_pt = [pt[g.images[i]] for i in range(n)]
            assert moved.evaluate(pt) == p.evaluate(permuted_pt)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_swapped_is_the_transposition(data):
    blocks = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                       .filter(lambda b: max(b) > 1))
    group = GroupSpec(tuple(blocks))
    i = data.draw(st.sampled_from(group.swaps()))
    monomial = st.tuples(*[st.integers(0, 2)] * group.n)
    p = Polynomial(group.n, data.draw(st.dictionaries(monomial, st.fractions(), max_size=5)))
    assert swapped(p, i) == act_on_polynomial(transposition(group, i), p)


@st.composite
def block_monomials(draw):
    """A block group and a monomial of its arity."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    mono = draw(st.tuples(*[st.integers(0, 3)] * sum(sizes)))
    return GroupSpec(tuple(sizes)), mono


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(block_monomials())
def test_canonical_monomial_sorts_each_block(case):
    group, mono = case
    reference = []
    for blk in group.blocks():
        reference.extend(sorted((mono[i] for i in blk), reverse=True))
    assert canonical_monomial(group, mono) == tuple(reference)


def test_canonical_monomial_rejects_another_arity():
    for group in (GroupSpec.symmetric(3), GroupSpec((2, 2))):
        with pytest.raises(DimensionMismatch, match="arity differ"):
            canonical_monomial(group, (1, 0))


def test_canonical_monomial_is_orbit_invariant():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 5)
        group = random_group(rng, n)
        mono = tuple(rng.randint(0, 3) for _ in range(n))
        canon = canonical_monomial(group, mono)
        orbit = brute_orbit(group, mono)
        assert canon in orbit
        for member in orbit:
            assert canonical_monomial(group, member) == canon


def test_canonical_pair_is_orbit_invariant():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(1, 4)
        group = random_group(rng, n)
        a = tuple(rng.randint(0, 2) for _ in range(n))
        b = tuple(rng.randint(0, 2) for _ in range(n))
        canon = canonical_pair(group, (a, b))
        orbit = {(act_on_monomial(g, a), act_on_monomial(g, b))
                 for g in elements(group)}
        assert canon in orbit
        for member in orbit:
            assert canonical_pair(group, member) == canon


def test_orbit_sizes_against_brute_force():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 5)
        group = random_group(rng, n)
        mono = tuple(rng.randint(0, 2) for _ in range(n))
        assert monomial_orbit_size(group, mono) == len(brute_orbit(group, mono))
        elements = list(monomial_orbit_elements(group, mono))
        assert set(elements) == brute_orbit(group, mono)
        assert len(elements) == len(set(elements))


def walked_monomial_orbits(group, d):
    """The earlier enumeration: canonicalise every monomial of degree <= d
    and count each canonical form; representatives in grlex order."""
    counts = {}
    for mono in monomials_up_to(group.n, d):
        canon = canonical_monomial(group, mono)
        counts[canon] = counts.get(canon, 0) + 1
    reps = sorted(counts, key=grlex_key)
    return reps, [counts[r] for r in reps]


def test_enumerate_monomial_orbits_partitions():
    for group in (GroupSpec.symmetric(3), GroupSpec((2, 1)), GroupSpec.trivial(2),
                  GroupSpec((1, 2, 2)), GroupSpec((3, 3)), GroupSpec.symmetric(5)):
        for d in (0, 1, 2, 3, 4):
            table = enumerate_monomial_orbits(group, d)
            assert (table.representatives, table.sizes) == walked_monomial_orbits(group, d)
            assert sum(table.sizes) == len(monomials_up_to(group.n, d))
            assert table.orbit_of == {r: i for i, r in enumerate(table.representatives)}


def test_monomial_orbits_of_1200_variables():
    # one representative per partition of 0..4: 1 + 1 + 2 + 3 + 5
    table = enumerate_monomial_orbits(GroupSpec.symmetric(1200), 4)
    assert len(table) == 12
    assert sum(table.sizes) == math.comb(1204, 4)


def test_enumerate_pair_orbits_partitions():
    group = GroupSpec.symmetric(3)
    table = enumerate_pair_orbits(group, 1)
    w = len(monomials_up_to(3, 1))
    assert sum(table.sizes) == w * w
    # S_3 at degree 1: (1,1), (1,x), (x,1), diag (x,x), offdiag (x,y)
    assert len(table) == 5


def test_bipartition_count_matches_orbit_enumeration():
    # orbits of monomial pairs with fixed degrees (k, l) under S_n, n large
    for k in range(0, 4):
        for l in range(0, 4):
            n = k + l if k + l else 1
            group = GroupSpec.symmetric(n)
            table = enumerate_pair_orbits(group, max(k, l))
            found = sum(1 for a, b in table.representatives
                        if sum(a) == k and sum(b) == l)
            assert found == bipartitions(k, l), (k, l)


def test_gram_matrix_polynomial():
    basis = MonomialBasis(2, 1)
    q = GramMatrix(basis)
    i = basis.index((1, 0))
    q.entries[i][i] = Fraction(4)
    x1 = Polynomial.variable(2, 0)
    assert q.to_polynomial() == x1 * x1 * 4
    with pytest.raises(ValueError):
        GramMatrix(basis, [[Fraction(1)] * 3] * 2)


def test_reynolds_polynomial_is_group_average():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(1, 4)
        group = random_group(rng, n)
        p = random_poly(rng, n, 3)
        avg = reynolds_polynomial(group, p)
        walk = list(elements(group))
        brute = Polynomial.zero(n)
        for g in walk:
            brute = brute + act_on_polynomial(g, p)
        brute = brute * Fraction(1, len(walk))
        assert avg == brute
        assert is_invariant(group, avg)
        assert reynolds_polynomial(group, avg) == avg  # idempotent


def test_reynolds_gram_is_group_average():
    rng = random.Random(67)
    for _ in range(15):
        n = rng.randint(1, 3)
        group = random_group(rng, n)
        basis = MonomialBasis(n, 1)
        entries = [[Fraction(rng.randint(-3, 3)) for _ in range(len(basis))]
                   for _ in range(len(basis))]
        for i in range(len(basis)):
            for j in range(i):
                entries[i][j] = entries[j][i]
        q = GramMatrix(basis, entries)
        avg = reynolds_gram(group, q)
        walk = list(elements(group))
        total = [[Fraction(0)] * len(basis) for _ in range(len(basis))]
        for g in walk:
            moved = act_on_gram(g, q).entries
            for i, row in enumerate(moved):
                for j, x in enumerate(row):
                    total[i][j] += x
        expected = [[x / len(walk) for x in row] for row in total]
        assert avg == GramMatrix(basis, expected)


def test_act_on_gram_transforms_polynomial():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(1, 3)
        group = random_group(rng, n)
        basis = MonomialBasis(n, 2)
        entries = [[Fraction(0)] * len(basis) for _ in range(len(basis))]
        for _ in range(4):
            i = rng.randrange(len(basis))
            j = rng.randrange(len(basis))
            v = Fraction(rng.randint(-3, 3))
            entries[i][j] += v
            if i != j:
                entries[j][i] += v
        q = GramMatrix(basis, entries)
        for g in elements(group):
            moved = act_on_gram(g, q)
            assert moved.to_polynomial() == act_on_polynomial(g, q.to_polynomial())


def test_reynolds_preserves_psd():
    rng = random.Random(73)
    for _ in range(15):
        n = rng.randint(1, 3)
        group = random_group(rng, n)
        basis = MonomialBasis(n, 1)
        w = len(basis)
        b = [[Fraction(rng.randint(-3, 3)) for _ in range(w)] for _ in range(w)]
        psd = [[sum(b[k][i] * b[k][j] for k in range(w)) for j in range(w)]
               for i in range(w)]
        q = GramMatrix(basis, psd)
        avg = reynolds_gram(group, q)
        assert psd_certificate(avg.entries).is_psd


def test_orbit_indicator_matrices():
    group = GroupSpec.symmetric(3)
    basis = MonomialBasis(3, 1)
    table = enumerate_pair_orbits(group, 1)
    ids = orbit_indicator_matrices(table)
    w = len(basis)
    assert len(ids) == w and all(len(row) == w for row in ids)
    # transpose-merged, so each indicator is symmetric; one id per entry, so
    # the supports are disjoint and sum to the all-ones matrix
    assert all(ids[i][j] == ids[j][i] for i in range(w) for j in range(w))
    used = {r for row in ids for r in row}
    assert used == set(range(4))  # (1,1); (1,x_i) with (x_i,1); (x_i,x_i); (x_i,x_j)
    # each indicator promotes to an invariant polynomial
    for r in used:
        q = GramMatrix(basis, [[Fraction(int(x == r)) for x in row] for row in ids])
        assert is_invariant(group, q.to_polynomial())
    # over the multilinear monomials of degree <= 2 the ids number their
    # merged orbits: (|A|, |B|, |A n B|) up to order, with (2, 2, 0)
    # impossible in three variables
    multilinear = [m for m in MonomialBasis(3, 2) if max(m) <= 1]
    ids = orbit_indicator_matrices(enumerate_pair_orbits(group, 2, multilinear))
    assert {r for row in ids for r in row} == set(range(9))


def test_is_invariant():
    g2 = GroupSpec.symmetric(2)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    assert is_invariant(g2, x1 + x2)
    assert is_invariant(g2, x1 * x2)
    assert not is_invariant(g2, x1)


def test_is_invariant_system():
    g2 = GroupSpec.symmetric(2)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    closed, orbits = is_invariant_system(g2, [x1 - x2, x2 - x1])
    assert closed
    assert orbits == [[0, 1]]
    closed, orbits = is_invariant_system(g2, [x1, x2])
    assert closed
    assert orbits == [[0, 1]]
    closed, orbits = is_invariant_system(g2, [x1])
    assert not closed
    closed, orbits = is_invariant_system(g2, [x1 + x2, x1 * x2])
    assert closed
    assert orbits == [[0], [1]]


def test_monomial_orbit_size_multiset():
    # arrangements of exponents (1,1,0) within one block of size 3
    assert monomial_orbit_size(GroupSpec.symmetric(3), (1, 1, 0)) == 3
    assert monomial_orbit_size(GroupSpec.symmetric(3), (2, 1, 0)) == 6
    assert monomial_orbit_size(GroupSpec((2, 1)), (1, 0, 2)) == 2
    assert monomial_orbit_size(GroupSpec.trivial(3), (1, 1, 0)) == 1


def test_orbit_elements_in_lexicographic_order():
    mono = (2, 0, 1, 0, 2)
    want = sorted(set(itertools.permutations(mono)))
    assert list(monomial_orbit_elements(GroupSpec.symmetric(5), mono)) == want


def test_orbit_elements_of_1200_variables():
    # one step per arrangement, not one recursion level per variable
    n = 1200
    x1 = (1,) + (0,) * (n - 1)
    elements = list(monomial_orbit_elements(GroupSpec.symmetric(n), x1))
    assert len(elements) == n
    assert len(set(elements)) == n and all(sum(m) == 1 for m in elements)


# -- orbit-at-a-time invariance against the generator walk -------------------


def generators(group):
    """The adjacent transpositions within each block."""
    return [transposition(group, i) for i in group.swaps()]


def generator_is_invariant(group, p):
    """The earlier is_invariant: apply every adjacent transposition of a
    block to the whole polynomial."""
    return all(act_on_polynomial(g, p) == p for g in generators(group))


def generator_is_invariant_system(group, system):
    """The earlier is_invariant_system: union the images of every member
    under every generator."""
    index = {}
    for i, p in enumerate(system):
        index.setdefault(p.key(), i)
    parent = list(range(len(system)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, p in enumerate(system):
        for g in generators(group):
            j = index.get(act_on_polynomial(g, p).key())
            if j is None:
                return False, None
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(system)):
        groups.setdefault(find(i), []).append(i)
    return True, [groups[r] for r in sorted(groups)]


GROUPS = [GroupSpec.symmetric(3), GroupSpec.symmetric(4), GroupSpec((2, 2)),
          GroupSpec((3, 1)), GroupSpec((1, 2, 2)), GroupSpec.trivial(2)]


@st.composite
def invariant_or_nearly(draw):
    """A group and a polynomial: an orbit sum combination (invariant), then
    maybe one term dropped, one coefficient changed or one term added."""
    group = draw(st.sampled_from(GROUPS))
    n = group.n
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        for member in monomial_orbit_elements(group, mono):
            terms[member] = coeff
    edit = draw(st.sampled_from(["none", "drop", "change", "add"]))
    present = sorted(m for m, c in terms.items() if c)
    if edit in ("drop", "change") and present:
        mono = draw(st.sampled_from(present))
        terms[mono] = 0 if edit == "drop" else terms[mono] + 1
    elif edit == "add":
        mono = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        terms[mono] = terms.get(mono, 0) + Fraction(1, 2)
    return group, Polynomial(n, terms)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(invariant_or_nearly())
def test_is_invariant_matches_the_generator_walk(case):
    group, p = case
    assert is_invariant(group, p) == generator_is_invariant(group, p)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_is_invariant_system_matches_the_generator_walk(data):
    group, p = data.draw(invariant_or_nearly())
    # p's images under a few random elements, maybe with one of them left out
    walk = list(elements(group))
    picks = data.draw(st.lists(st.sampled_from(walk), min_size=1, max_size=6))
    system = [p] + [act_on_polynomial(g, p) for g in picks]
    if data.draw(st.booleans()) and len(system) > 1:
        del system[data.draw(st.integers(1, len(system) - 1))]
    system = [q for q in system if not q.is_zero()]
    assert is_invariant_system(group, system) == \
        generator_is_invariant_system(group, system)


def test_is_invariant_on_96_variables():
    # one orbit at a time: e2 on S(96) has 4,560 terms
    n = 96
    group = GroupSpec.symmetric(n)
    e2 = Polynomial(n, {tuple(int(k in (i, j)) for k in range(n)): 1
                        for i in range(n) for j in range(i + 1, n)})
    assert is_invariant(group, e2)
    assert not is_invariant(GroupSpec((48, 48)), e2 + Polynomial.variable(n, 0))
    assert is_invariant_system(group, [e2, e2 + 1]) == (True, [[0], [1]])


# -- pair orbit keys against canonical_pair -----------------------------------


def brute_pair_ids(group, monomials):
    """Merged pair-orbit ids over these monomials from canonical_pair: each
    orbit merged with its transpose, numbered in the order of the sorted
    canonical pairs."""
    canon = [[canonical_pair(group, (a, b)) for b in monomials] for a in monomials]
    order = sorted({c for row in canon for c in row},
                   key=lambda ab: (grlex_key(ab[0]), grlex_key(ab[1])))
    index = {c: i for i, c in enumerate(order)}
    merged = {c: min(index[c], index[canonical_pair(group, (c[1], c[0]))])
              for c in order}
    slot = {m: i for i, m in enumerate(sorted(set(merged.values())))}
    return [[slot[merged[c]] for c in row] for row in canon]


@pytest.mark.parametrize("blocks", [(4,), (2, 2), (3, 1)])
@pytest.mark.parametrize("roots", [(0, 1), (0, 1, 2, 3)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_gram_grid_matches_canonical_pairs(blocks, roots, d):
    # the search's grid over the standard monomials: multilinear on {0,1},
    # every exponent <= 3 on {0,1,2,3}
    inst = ProblemInstance(group=GroupSpec(blocks), equalities=[],
                           domain_roots=tuple(map(Fraction, roots)), degree=d)
    table, standard, ids = _gram_orbits(inst, d)
    assert standard == [m for m in MonomialBasis(inst.n, d) if max(m) < len(roots)]
    assert ids == brute_pair_ids(inst.group, standard)
    assert len(table) == len({canonical_pair(inst.group, (a, b))
                              for a in standard for b in standard})
    assert sum(table.sizes) == len(standard) ** 2
    for a, b in table.representatives:
        assert canonical_pair(inst.group, (a, b)) == (a, b)


def test_pair_orbits_of_300_variables():
    # keys are the size of the support: 301 x 301 pairs, five orbits
    group = GroupSpec.symmetric(300)
    table = enumerate_pair_orbits(group, 1)
    assert len(table) == 5 and sum(table.sizes) == 301 ** 2


def test_pair_orbits_read_the_blocks_once(monkeypatch):
    # under the trivial group each pair orbit has its own representative;
    # the block starts are read once, not once per orbit
    calls = []
    blocks = GroupSpec.blocks

    def spy(group):
        calls.append(group)
        return blocks(group)

    monkeypatch.setattr(GroupSpec, "blocks", spy)
    table = enumerate_pair_orbits(GroupSpec.trivial(40), 1)
    assert len(table) == 41 ** 2
    assert len(calls) <= 1

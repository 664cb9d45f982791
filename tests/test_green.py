import itertools
import math
import random

import pytest

from eggbox import core, green, constructions
from eggbox.green import NotCompletelySimpleError, NotIdempotentError
from conftest import small_library


def test_green_structure_u1(u1):
    gs = green.green_structure(u1)
    assert len(set(gs.j_class)) == 2
    assert green.kernel(u1) == frozenset({0})
    # {1} sits above {0} in the J-order
    assert (gs.j_class[0], gs.j_class[1]) in gs.j_order


def test_green_structure_rb22(rb22):
    gs = green.green_structure(rb22)
    assert len(set(gs.j_class)) == 1
    assert len(set(gs.r_class)) == 2
    assert len(set(gs.l_class)) == 2
    assert len(set(gs.h_class)) == 4


def test_green_structure_k2(k2):
    gs = green.green_structure(k2)
    assert len(set(gs.j_class)) == 1
    assert len(set(gs.r_class)) == 2
    assert len(set(gs.l_class)) == 2
    sizes = {sum(1 for c in gs.h_class if c == cls) for cls in set(gs.h_class)}
    assert sizes == {2}


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty blocks: S(n,k) = k·S(n-1,k) + S(n-1,k-1)."""
    if n == 0 or k == 0:
        return int(n == k)
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_transformation_monoid_green_counts_match_closed_forms(n):
    # With f*g = f o g, R-classes are images (nonempty subsets), L-classes kernels (partitions)
    # and J-classes ranks; an H-class is an image of size k and a kernel with k blocks.
    S = core.full_transformation_monoid(n)
    gs = green.green_structure(S)
    counts = (len(set(gs.r_class)), len(set(gs.l_class)), len(set(gs.j_class)),
              len(set(gs.h_class)), len(S.idempotents()))
    ranks = range(1, n + 1)
    assert counts == (
        2 ** n - 1,
        sum(stirling2(n, k) for k in ranks),  # Bell(n)
        n,
        sum(stirling2(n, k) * math.comb(n, k) for k in ranks),
        sum(math.comb(n, k) * k ** (n - k) for k in ranks),
    )


def test_kernel_is_a_minimal_ideal():
    for name, S in small_library().items():
        ker = green.kernel(S)
        assert ker, name
        for s in range(len(S)):
            for k in ker:
                assert S.mul(s, k) in ker, name
                assert S.mul(k, s) in ker, name
        # no principal ideal is strictly smaller
        for s in range(len(S)):
            ideal = {S.mul(x, S.mul(s, y)) for x in range(len(S)) for y in range(len(S))}
            ideal |= {s} | {S.mul(s, y) for y in range(len(S))} | {S.mul(x, s) for x in range(len(S))}
            assert ker <= ideal, name


def test_kernel_of_groups_and_synthesis(z3):
    assert green.kernel(z3) == frozenset(range(3))
    z2 = core.cyclic_group(2)
    syn = constructions.synthesis(z2, z2, [0, 0])
    ker = green.kernel(syn.carrier)
    # the triple block is an ideal containing the kernel
    assert ker <= frozenset(range(2, len(syn.carrier)))


def test_is_completely_simple(k2, u1, rb22):
    assert green.is_completely_simple(k2)
    assert not green.is_completely_simple(u1)
    assert green.is_completely_simple(rb22)
    # the single-J-class test agrees with the identity x(yx)^w = x
    for name, S in small_library().items():
        n = len(S)
        scan = all(
            S.mul(x, core.omega_power(S, S.mul(y, x))) == x for x in range(n) for y in range(n)
        )
        assert green.is_completely_simple(S) == scan, name


def test_rees_coordinatize_rb22(rb22):
    rm, coords = green.rees_coordinatize(rb22)
    assert (rm.a_size, rm.b_size, len(rm.group)) == (2, 2, 1)
    assert all(v == rm.group.identity for row in rm.sandwich for v in row)
    assert sorted(coords) == sorted((a, 0, b) for a in range(2) for b in range(2))


def test_rees_coordinatize_group(z3):
    rm, _ = green.rees_coordinatize(z3)
    assert rm.a_size == rm.b_size == 1
    assert len(rm.group) == 3
    assert rm.sandwich == ((rm.group.identity,),)


def test_rees_round_trip():
    rng = random.Random(3)
    cases = [constructions.k_p(2), constructions.k_p(3), core.rectangular_band(2, 3)]
    for _ in range(3):
        P = [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
        cases.append(constructions.rees_matrix(2, core.cyclic_group(2), 2, P))
    for S in cases:
        rm, coords = green.rees_coordinatize(S)
        assert rm.sandwich[0] == tuple([rm.group.identity] * rm.a_size)
        assert all(row[0] == rm.group.identity for row in rm.sandwich)
        rebuilt = constructions.realize(rm)
        assert core.is_isomorphic(rebuilt, S) is not None
        # the returned coordinates respect the Rees multiplication
        g_mul = rm.group.table
        P2 = rm.sandwich
        for x in range(len(S)):
            for y in range(len(S)):
                a, g, b = coords[x]
                a2, g2, b2 = coords[y]
                expected = (a, g_mul[g_mul[g][P2[b][a2]]][g2], b2)
                assert coords[S.mul(x, y)] == expected


def test_rees_coordinatize_requires_cs(u1):
    with pytest.raises(NotCompletelySimpleError):
        green.rees_coordinatize(u1)


def test_maximal_subgroup(u1, k2, z6):
    assert len(green.maximal_subgroup(u1, 1)) == 1
    H = green.maximal_subgroup(k2, k2.index_of("(0,0,0)"))
    assert core.is_isomorphic(H, core.cyclic_group(2)) is not None
    assert core.is_isomorphic(green.maximal_subgroup(z6, 0), z6) is not None
    with pytest.raises(NotIdempotentError):
        green.maximal_subgroup(z6, 1)


def brute_equidivisible(S):
    S1 = core.adjoin_identity(S)
    n = len(S)
    for s, t, u, v in itertools.product(range(n), repeat=4):
        if S.mul(s, t) != S.mul(u, v):
            continue
        if not any(
            (S1.mul(s, w) == u and S1.mul(w, v) == t)
            or (S1.mul(u, w) == s and S1.mul(w, t) == v)
            for w in range(len(S1))
        ):
            return False, (s, t, u, v)
    return True, None


def test_is_equidivisible(z6, u1, n2):
    assert green.is_equidivisible(z6) == (True, None)
    assert green.is_equidivisible(u1) == (True, None)
    ok, witness = green.is_equidivisible(n2)
    assert not ok
    assert green.is_equidivisible(n2) == brute_equidivisible(n2)
    # the quadruple (a, a, 0, a) is a genuine violation
    a, zero = 0, 1
    S1 = core.adjoin_identity(n2)
    assert n2.mul(a, a) == n2.mul(zero, a)
    for w in range(len(S1)):
        assert not (S1.mul(a, w) == zero and S1.mul(w, a) == a)
        assert not (S1.mul(zero, w) == a and S1.mul(w, a) == a)
    del witness


def test_letter_cancelative(z2, n2):
    res = green.letter_cancelative(z2, {"a": 1})
    assert res["right"] and res["left"]
    res = green.letter_cancelative(n2, {"a": 0})
    assert not res["right"]
    letter, s, t = res["right_witness"]
    assert letter == "a" and n2.mul(s, 0) == n2.mul(t, 0) and s != t
    assert not res["left"]
    lz = core.left_zero(2)
    res = green.letter_cancelative(lz, {"a": 0, "b": 1})
    assert res["right"] and not res["left"]


def test_green_classes_swap_under_opposite():
    for name, S in small_library().items():
        if len(S) > 8:
            continue
        gs = green.green_structure(S)
        gt = green.green_structure(core.opposite(S))
        assert gs.r_class == gt.l_class, name
        assert gs.l_class == gt.r_class, name
        assert gs.j_class == gt.j_class, name


def test_letter_cancelative_requires_generation(u1):
    with pytest.raises(core.GeneratorsDoNotGenerateError):
        green.letter_cancelative(u1, {"a": 1})


def test_completely_simple_regularity_and_subgroups(k2, rb22):
    for S in (k2, rb22):
        gs = green.green_structure(S)
        for a in range(len(S)):
            assert any(S.mul(S.mul(a, x), a) == a for x in range(len(S)))
        for e in S.idempotents():
            H = green.maximal_subgroup(S, e)
            assert H.identity is not None
            for x in range(len(H)):
                assert any(
                    H.mul(x, y) == H.identity == H.mul(y, x) for y in range(len(H))
                )


def test_j_order_is_a_partial_order():
    for name, S in small_library().items():
        gs = green.green_structure(S)
        ids = set(gs.j_class)
        for a in ids:
            assert (a, a) in gs.j_order, name
        for a in ids:
            for b in ids:
                if a != b and (a, b) in gs.j_order:
                    assert (b, a) not in gs.j_order, name
                for c in ids:
                    if (a, b) in gs.j_order and (b, c) in gs.j_order:
                        assert (a, c) in gs.j_order, name
        # the kernel class is the unique minimum
        assert all((gs.kernel_class, d) in gs.j_order for d in ids), name


def test_regular_j_classes(n2, u1, k2):
    gs = green.green_structure(n2)
    a, zero = 0, 1
    assert not gs.regular[gs.j_class[a]]
    assert gs.regular[gs.j_class[zero]]
    gs = green.green_structure(u1)
    assert all(gs.regular)  # both singleton classes contain an idempotent
    gs = green.green_structure(k2)
    assert all(gs.regular)

import itertools
import random

import pytest

from eggbox import core, green, constructions as cons
from eggbox.constructions import (
    NotAGroupError,
    NotEndomorphismError,
    NotMonoidHomError,
    NotPrimeError,
    PartialFError,
    ShapeMismatchError,
)
from conftest import group_subsemigroups, random_transformation_semigroup, s3_table


def test_rees_matrix_band():
    band = cons.rees_matrix(2, core.trivial(), 2, [[0, 0], [0, 0]])
    assert len(band) == 4
    assert core.is_isomorphic(band, core.rectangular_band(2, 2)) is not None


def test_rees_matrix_errors(u1):
    with pytest.raises(NotAGroupError):
        cons.rees_matrix(2, u1, 2, [[0, 0], [0, 0]])
    with pytest.raises(ShapeMismatchError):
        cons.rees_matrix(2, core.cyclic_group(2), 2, [[0, 0]])
    with pytest.raises(ShapeMismatchError):
        cons.rees_matrix(2, core.cyclic_group(2), 2, [[0, 5], [0, 0]])


def test_k2_idempotents(k2):
    assert len(k2) == 8
    # (a,g,b) is idempotent iff g equals the inverse of P(b,a)
    expected = set()
    P = ((0, 0), (0, 1))
    for a in range(2):
        for b in range(2):
            g = (-P[b][a]) % 2
            expected.add(f"({a},{g},{b})")
    assert {k2.elements[i] for i in k2.idempotents()} == expected
    assert len(k2.idempotents()) == 4


def test_kp_product_convention():
    for p in (2, 3):
        kp = cons.k_p(p)
        for g in range(p):
            for h in range(p):
                lhs = kp.mul(kp.index_of(f"(0,{g},1)"), kp.index_of(f"(1,{h},0)"))
                assert kp.elements[lhs] == f"(0,{(g + 1 + h) % p},0)"


def test_kp_sizes_and_generation(k3):
    assert len(cons.k_p(2)) == 8
    assert len(k3) == 12
    gens = [k3.index_of("(0,0,1)"), k3.index_of("(1,0,0)")]
    assert core.generated_subsemigroup(k3, gens) == frozenset(range(12))
    with pytest.raises(NotPrimeError):
        cons.k_p(4)


def test_kp_section_five_idempotents():
    # the four idempotents used in the torsion arithmetic must be idempotent
    for p in (2, 3, 5):
        kp = cons.k_p(p)
        for label in ["(0,0,0)", "(0,0,1)", "(1,0,0)", f"(1,{p - 1},1)"]:
            assert kp.is_idempotent(kp.index_of(label)), (p, label)


def test_synthesis_fourth_formula(z2):
    syn = cons.synthesis(z2, z2, [0, 1])
    for s1, t, s2, r1, u, r2 in itertools.product(range(2), repeat=6):
        lhs = syn.carrier.mul(syn.triple_index(s1, t, s2), syn.triple_index(r1, u, r2))
        mid = (t + syn.f[(s2 + r1) % 2] + u) % 2
        assert lhs == syn.triple_index(s1, mid, r2)


def test_synthesis_sizes_and_associativity(z2):
    # S = T = Z/2 are monoids, so |M| = 2 + 2*2*2 = 10 for each of the 4 maps
    for f in itertools.product(range(2), repeat=2):
        syn = cons.synthesis(z2, z2, list(f))
        assert len(syn.carrier) == 10


def test_synthesis_carrier_is_associative():
    # the carrier is built without an associativity rescan; validate() must
    # accept it for any f, also when S is not a monoid
    rng = random.Random(41)
    pool = [core.u1(), core.cyclic_group(2), core.left_zero(2), core.null_semigroup(2)]
    pool.append(random_transformation_semigroup(rng, max_size=6, min_size=3))
    for S in pool:
        for T in pool[:3]:
            S1, T1 = core.adjoin_identity(S), core.adjoin_identity(T)
            for _ in range(3):
                f = [rng.randrange(len(T1)) for _ in range(len(S1))]
                M = cons.synthesis(S, T, f).carrier
                V = core.validate(M.elements, M.table)
                assert V.identity == M.identity


def test_synthesis_rejects_colliding_labels():
    # (a,b,c,..) arises both from s1 = "a,b", t = "c" and from s1 = "a", t = "b,c"
    S = core.from_function([0, 1], min, ["a", "a,b"])
    T = core.from_function([0, 1], min, ["c", "b,c"])
    with pytest.raises(core.SemigroupError, match="duplicate element labels"):
        cons.synthesis(S, T, [0, 0])


def test_synthesis_s_copy_and_ideal(z2):
    syn = cons.synthesis(z2, z2, [1, 0])
    M = syn.carrier
    s_copy = core.subsemigroup(M, [0, 1])
    assert core.is_isomorphic(s_copy, z2) is not None
    triples = set(range(2, len(M)))
    for x in triples:
        for y in range(len(M)):
            assert M.mul(x, y) in triples
            assert M.mul(y, x) in triples


def test_synthesis_embeds_t():
    # with S = {1} and f(1) = 1, the block S^1 x T x S^1 is a copy of T
    for T in (core.cyclic_group(3), core.left_zero(2)):
        S = core.trivial()
        T1 = core.adjoin_identity(T)
        f = [T1.identity]
        syn = cons.synthesis(S, T, f)
        block = [syn.triple_index(0, t, 0) for t in range(len(T))]
        assert core.is_isomorphic(core.subsemigroup(syn.carrier, block), T) is not None


def test_synthesis_partial_f(z2):
    with pytest.raises(PartialFError):
        cons.synthesis(z2, z2, {0: 0})
    with pytest.raises(PartialFError):
        cons.synthesis(z2, z2, [0, 7])


def test_synthesis_subgroup_lemma():
    # all maximal subgroups of M(S,T,f) embed in S or T
    pool = {"U1": core.u1(), "Z2": core.cyclic_group(2)}
    for S, T in itertools.product(pool.values(), repeat=2):
        S1 = core.adjoin_identity(S)
        T1 = core.adjoin_identity(T)
        hosts = group_subsemigroups(S) + group_subsemigroups(T)
        for f in itertools.product(range(len(T1)), repeat=len(S1)):
            M = cons.synthesis(S, T, list(f)).carrier
            for e in M.idempotents():
                H = green.maximal_subgroup(M, e)
                assert any(
                    len(H) == len(G) and core.is_isomorphic(H, G) is not None
                    for G in hosts
                )


def test_bullet_gadget():
    for p in (2, 3, 5):
        gadget = cons.bullet_gadget(p)
        kp1 = core.adjoin_identity(cons.k_p(p))
        assert len(gadget) == 4 * p + 1
        assert core.is_isomorphic(gadget, kp1, bound=32) is not None
    with pytest.raises(NotPrimeError):
        cons.bullet_gadget(6)


def test_semidirect_trivial_action_is_direct_product(z3, z2):
    ident = {0: (0, 1, 2), 1: (0, 1, 2)}
    sd = cons.semidirect_product(z3, z2, ident)
    assert sd.table == core.direct_product(z3, z2).table


def test_semidirect_s3(z3, z2):
    inversion = {0: (0, 1, 2), 1: (0, 2, 1)}
    sd = cons.semidirect_product(z3, z2, inversion)
    assert core.is_isomorphic(sd, s3_table()) is not None
    # 3 elements of order 2
    assert sum(1 for x in range(6) if not sd.is_idempotent(x) and sd.mul(x, x) == sd.identity) == 3


def test_semidirect_z2_z2(z2):
    # inversion on Z/2 is the identity map
    inversion = {0: (0, 1), 1: (0, 1)}
    sd = cons.semidirect_product(z2, z2, inversion)
    assert core.is_isomorphic(sd, core.direct_product(z2, z2)) is not None


def test_semidirect_validation(z3, z2):
    with pytest.raises(NotMonoidHomError):
        cons.semidirect_product(z3, z2, {0: (0, 2, 1), 1: (0, 1, 2)})
    with pytest.raises(NotEndomorphismError):
        cons.semidirect_product(z3, z2, {0: (0, 1, 2), 1: (1, 0, 2)})
    with pytest.raises(NotMonoidHomError):
        cons.semidirect_product(z3, z2, {0: (0, 1, 2)})


def test_rees_matrix_satisfies_cs_identity():
    import random

    rng = random.Random(11)
    for _ in range(5):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        G = core.cyclic_group(rng.choice([1, 2, 3]))
        P = [[rng.randrange(len(G)) for _ in range(a)] for _ in range(b)]
        S = cons.rees_matrix(a, G, b, P)
        if len(S) <= 50:
            assert green.is_completely_simple(S)


def test_kp1_separation_arithmetic():
    # in K_p with an identity adjoined, right multiplication by the
    # idempotent (1,0,0) bumps the group coordinate exactly when the column
    # coordinate is 1: (i,g,1)(1,0,0) = (i,g+1,0) while (i,g,0)(1,0,0)
    # = (i,g,0), which is what separates R-equivalent, non-L-equivalent
    # elements through their K_p^1 images
    for p in (2, 3):
        kp1 = core.adjoin_identity(cons.k_p(p))
        y = kp1.index_of("(1,0,0)")
        for i in range(2):
            for g in range(p):
                x1 = kp1.index_of(f"({i},{g},1)")
                assert kp1.elements[kp1.mul(x1, y)] == f"({i},{(g + 1) % p},0)"
                x0 = kp1.index_of(f"({i},{g},0)")
                assert kp1.elements[kp1.mul(x0, y)] == f"({i},{g},0)"
        assert kp1.mul(kp1.identity, y) == y

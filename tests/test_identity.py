"""`FiniteSemigroup.identity` is derived from the table, whichever helper
built the semigroup, and `rees_matrix` builds the table its old index loop
built."""

import random

import pytest

from eggbox import constructions as cons
from eggbox import core, hull, order
from conftest import random_transformation_semigroup, small_library


def plain_identity(S):
    """The e with e*x = x = x*e for every x, or None, by the definition."""
    n = len(S)
    neutral = [e for e in range(n) if all(S.mul(e, x) == x and S.mul(x, e) == x for x in range(n))]
    assert len(neutral) <= 1
    return neutral[0] if neutral else None


def syntactic(states, alphabet, transition, accepting):
    d = order.dfa(states, alphabet, transition, states[0], accepting)
    return order.syntactic_semigroup(d)[0].semigroup


def construction_outputs():
    """The output of every construction helper on small inputs."""
    lib = small_library()
    z2, z3, u1 = core.cyclic_group(2), core.cyclic_group(3), core.u1()
    out = dict(lib)
    out.update({f"K{p}": cons.k_p(p) for p in (2, 3, 5)})
    out.update({f"N{n}": core.null_semigroup(n) for n in (1, 2, 3)})
    out.update({f"op {name}": core.opposite(S) for name, S in lib.items()})
    out.update({f"{name}^1": core.adjoin_identity(S) for name, S in lib.items()})
    out.update({f"{name}^I": core.adjoin_new_identity(S) for name, S in lib.items()})
    for name, G in (("Z1", core.trivial()), ("Z2", z2), ("Z3", z3)):
        for g in range(len(G)):
            out[f"M(1, {name}, 1; [[{g}]])"] = cons.rees_matrix(1, G, 1, [[g]])
    out["M(2, Z3, 1)"] = cons.rees_matrix(2, z3, 1, [[0, 1]])
    out["M(1, Z2, 2)"] = cons.rees_matrix(1, z2, 2, [[1], [0]])
    out["Z2 x Z3"] = core.direct_product(z2, z3)
    out["LZ2 x U1"] = core.direct_product(core.left_zero(2), u1)
    out["N2 x Z2"] = core.direct_product(core.null_semigroup(2), z2)
    out["Z3 x| Z2"] = cons.semidirect_product(z3, z2, {0: (0, 1, 2), 1: (0, 2, 1)})
    out["U1 x| LZ2"] = cons.semidirect_product(u1, core.left_zero(2), {0: (0, 0), 1: (1, 1)})
    out["M(Z2, Z2, id)"] = cons.synthesis(z2, z2, [0, 1]).carrier
    out["M(N2, U1, 0)"] = cons.synthesis(core.null_semigroup(2), u1, [0, 0, 0]).carrier
    out["M(LZ2, Z2, f)"] = cons.synthesis(core.left_zero(2), z2, [1, 0, 1]).carrier
    out.update({f"K{p}^1 gadget": cons.bullet_gadget(p) for p in (2, 3)})
    for name in ("RB22", "K2", "U1", "Z3", "N2"):
        out[f"hull {name}"] = hull.hull_monoid(hull.enumerate_hull(lib[name]))[0]
    out["sub K2^1"] = core.subsemigroup(core.adjoin_identity(lib["K2"]), range(4))
    # a swaps p and q and b fixes both: b is an identity, aa = b
    out["syntactic swap"] = syntactic(
        ["p", "q"], ["a", "b"],
        {("p", "a"): "q", ("q", "a"): "p", ("p", "b"): "p", ("q", "b"): "q"}, ["p"])
    out["syntactic parity"] = syntactic(
        ["e", "o"], ["a"], {("e", "a"): "o", ("o", "a"): "e"}, ["e"])
    out["syntactic a*b"] = syntactic(
        ["p", "q", "z"], ["a", "b"],
        {("p", "a"): "p", ("p", "b"): "q", ("q", "a"): "z", ("q", "b"): "z",
         ("z", "a"): "z", ("z", "b"): "z"}, ["q"])
    rng = random.Random(1511)
    for i in range(30):
        out[f"random{i}"] = random_transformation_semigroup(rng, max_size=40)
    return out


CASES = construction_outputs()


def test_the_cases_hold_monoids_and_non_monoids():
    kinds = {plain_identity(S) is None for S in CASES.values()}
    assert kinds == {True, False}
    assert sum(plain_identity(S) is not None for S in CASES.values()) >= 30


@pytest.mark.parametrize("name", list(CASES))
def test_identity_is_the_neutral_element(name):
    S = CASES[name]
    assert S.identity == plain_identity(S)


@pytest.mark.parametrize("name", list(CASES))
def test_adjoin_identity_keeps_a_monoid(name):
    S = CASES[name]
    S1 = core.adjoin_identity(S)
    if plain_identity(S) is not None:
        assert S1 is S
    else:
        assert len(S1) == len(S) + 1 and S1.identity == len(S)


@pytest.mark.parametrize("name", ["syntactic swap", "syntactic parity", "M(1, Z2, 1; [[1]])", "N1"])
def test_1x1_rees_null_and_syntactic_monoids_have_an_identity(name):
    assert CASES[name].identity is not None


def test_identity_is_derived_once():
    S = core.from_function(range(3), lambda a, b: (a + b) % 3)
    assert "identity" not in S._derived
    assert S.identity == 0 and S._derived["identity"] == 0


def test_rees_matrix_over_a_1x1_rees_group():
    for G in (core.cyclic_group(2), core.cyclic_group(3)):
        for g in range(len(G)):
            H = cons.rees_matrix(1, G, 1, [[g]])
            assert core.is_isomorphic(H, G) is not None
            S = cons.rees_matrix(2, H, 2, [[H.identity] * 2, [H.identity, g]])
            assert len(S) == 4 * len(G)
            assert core.adjoin_identity(H) is H


def old_rees_table(a_size, group, b_size, P):
    """rees_matrix's index loop before it built through from_function,
    copied verbatim from the line after the sandwich checks, but for the
    index function, which was constructions.rees_indexer."""
    ng = len(group)

    def idx(a, g, b):
        return (a * ng + g) * b_size + b

    triples = [(a, g, b) for a in range(a_size) for g in range(ng) for b in range(b_size)]
    tab = []
    for (a, g, b) in triples:
        row = [0] * len(triples)
        for (a2, g2, b2) in triples:
            row[idx(a2, g2, b2)] = idx(a, group.table[group.table[g][P[b][a2]]][g2], b2)
        tab.append(tuple(row))
    labels = tuple(f"({a},{group.elements[g]},{b})" for (a, g, b) in triples)
    return labels, tuple(tab)


def test_rees_matrix_matches_the_old_index_loop():
    rng = random.Random(20)
    groups = [core.cyclic_group(n) for n in range(1, 6)]
    groups.append(core.direct_product(core.cyclic_group(2), core.cyclic_group(2)))
    for _ in range(60):
        G = rng.choice(groups)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        P = [[rng.randrange(len(G)) for _ in range(a)] for _ in range(b)]
        S = cons.rees_matrix(a, G, b, P)
        assert (S.elements, S.table) == old_rees_table(a, G, b, P), (len(G), a, b, P)

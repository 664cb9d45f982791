import itertools
import random
from collections import Counter

import pytest

from eggbox import core, green, hull, constructions as cons
from eggbox.core import BoundExceededError
from eggbox.green import NotCompletelySimpleError
from conftest import random_transformation_semigroup, s3_table, small_library


def test_inner_bitranslations_are_linked():
    for name, S in small_library().items():
        for s in range(len(S)):
            bt = hull.inner_bitranslation(S, s)
            for x in range(len(S)):
                for y in range(len(S)):
                    assert S.mul(x, bt.lam[y]) == S.mul(bt.rho[x], y), name


def test_inner_bitranslation_shapes(rb22, u1):
    bt = hull.inner_bitranslation(rb22, rb22.index_of("(0,0)"))
    # left multiplication by (a0,b0) fixes the column, moves to row a0
    for x in range(4):
        a, b = divmod(x, 2)
        assert rb22.elements[bt.lam[x]] == f"(0,{b})"
    bt = hull.inner_bitranslation(u1, 0)
    assert bt.lam == (0, 0) and bt.rho == (0, 0)


def test_hull_rb22(rb22):
    H = hull.enumerate_hull(rb22)
    assert len(H) == 16
    M, _ = hull.hull_monoid(H)
    t2l = core.full_transformation_monoid(2)
    t2r = core.full_transformation_monoid(2, act_on_right=True)
    assert core.is_isomorphic(M, core.direct_product(t2l, t2r)) is not None


def test_hull_of_groups_is_inner():
    for n in (2, 3):
        G = core.cyclic_group(n)
        H = hull.enumerate_hull(G)
        inner = {hull.inner_bitranslation(G, s) for s in range(n)}
        assert H == inner


def test_hull_paths_agree_on_k2(k2):
    assert hull.enumerate_hull(k2) == hull.enumerate_hull_rees(cons.kp_rees(2))


def test_hull_paths_agree_on_random_rees():
    rng = random.Random(5)
    for _ in range(8):
        P = tuple(tuple(rng.randrange(2) for _ in range(2)) for _ in range(2))
        rm = green.ReesMatrixSemigroup(2, 2, core.cyclic_group(2), P)
        assert hull.enumerate_hull(cons.realize(rm)) == hull.enumerate_hull_rees(rm)


def test_hull_closed_with_identity(rb22, k2):
    for S in (rb22, k2, core.u1()):
        H = hull.enumerate_hull(S)
        ident = hull.Bitranslation(tuple(range(len(S))), tuple(range(len(S))))
        assert ident in H
        for x in H:
            for y in H:
                assert hull.compose(x, y) in H


def test_hull_bound(z6):
    with pytest.raises(BoundExceededError):
        hull.enumerate_hull(core.direct_product(z6, z6))


def test_composition_matches_inner_homomorphism(k2):
    for s in range(len(k2)):
        for t in range(len(k2)):
            lhs = hull.compose(hull.inner_bitranslation(k2, s), hull.inner_bitranslation(k2, t))
            assert lhs == hull.inner_bitranslation(k2, k2.mul(s, t))


def test_inner_image_is_ideal_when_weakly_reductive():
    for name, S in small_library().items():
        if len(S) > 6 or not hull.reductivity(S)["weakly_reductive"]:
            continue
        H = hull.enumerate_hull(S, bound=6)
        inner = {hull.inner_bitranslation(S, s) for s in range(len(S))}
        for x in H:
            for y in inner:
                assert hull.compose(x, y) in inner, name
                assert hull.compose(y, x) in inner, name


def test_kernel_representation_u1(u1):
    rep = hull.kernel_representation(u1)
    assert rep.kernel == (0,)
    assert rep.lambda_of == ((0,), (0,))
    assert rep.rho_of == ((0,), (0,))


def test_kernel_representation_faithful_on_kernel():
    for name, S in small_library().items():
        rep = hull.kernel_representation(S)
        seen = {}
        for k in rep.kernel:
            key = (rep.lambda_of[k], rep.rho_of[k])
            assert key not in seen, name
            seen[key] = k


def test_kernel_representation_is_a_homomorphism():
    rng = random.Random(31)
    pool = list(small_library().values())
    pool += [random_transformation_semigroup(rng, max_size=40) for _ in range(10)]
    for S in pool:
        rep = hull.kernel_representation(S)
        idx = range(len(rep.kernel))
        for s in range(len(S)):
            for t in range(len(S)):
                st = S.mul(s, t)
                assert rep.lambda_of[st] == tuple(rep.lambda_of[s][rep.lambda_of[t][i]] for i in idx)
                assert rep.rho_of[st] == tuple(rep.rho_of[t][rep.rho_of[s][i]] for i in idx)


def test_kernel_representation_band_depends_on_row(rb22):
    rep = hull.kernel_representation(rb22)
    for x in range(4):
        for y in range(4):
            if x // 2 == y // 2:
                assert rep.lambda_of[x] == rep.lambda_of[y]


def test_classify(u1, k2, rb22):
    assert hull.classify(u1) == {"lm": False, "rm": False, "ggm": False, "wggm": False}
    assert hull.classify(k2) == {"lm": True, "rm": True, "ggm": True, "wggm": True}
    flags = hull.classify(rb22)
    assert flags["wggm"] and not flags["lm"] and not flags["rm"]


def test_reductivity(rb22):
    for S in (core.u1(), core.cyclic_group(4), core.adjoin_identity(core.left_zero(3))):
        assert S.identity is not None
        red = hull.reductivity(S)
        assert red["right_reductive"] and red["left_reductive"] and red["weakly_reductive"]
    red = hull.reductivity(rb22)
    assert not red["right_reductive"]
    assert red["weakly_reductive"]


def test_completely_simple_weakly_reductive():
    rng = random.Random(9)
    for _ in range(10):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        G = core.cyclic_group(rng.choice([1, 2]))
        P = [[rng.randrange(len(G)) for _ in range(a)] for _ in range(b)]
        S = cons.rees_matrix(a, G, b, P)
        if len(S) <= 20:
            assert hull.reductivity(S)["weakly_reductive"]


def test_torsion_rectangular_band(rb22):
    flags = hull.torsion_checks(rb22)
    assert flags == {
        "has_torsion": False,
        "full_torsion": False,
        "plenty_left": False,
        "plenty_right": False,
    }


def test_torsion_k2(k2):
    flags = hull.torsion_checks(k2)
    assert flags == {
        "has_torsion": True,
        "full_torsion": True,
        "plenty_left": True,
        "plenty_right": True,
    }
    # (0,0,1)(1,0,0) = (0,1,0) is not idempotent, witnessing torsion
    prod = k2.mul(k2.index_of("(0,0,1)"), k2.index_of("(1,0,0)"))
    assert k2.elements[prod] == "(0,1,0)"
    assert not k2.is_idempotent(prod)


def test_torsion_single_r_class():
    S = cons.rees_matrix(1, core.cyclic_group(2), 2, [[0], [1]])
    assert not hull.torsion_checks(S)["full_torsion"]


def test_torsion_requires_cs(u1):
    with pytest.raises(NotCompletelySimpleError):
        hull.torsion_checks(u1)


def two_by_two_subsemigroups(S):
    """Oracle: explicit 2x2 maximal subsemigroups spanned by idempotent pairs."""
    gs = green.green_structure(S)
    out = []
    idem = S.idempotents()
    for e, f in itertools.combinations(idem, 2):
        if gs.r_class[e] == gs.r_class[f] or gs.l_class[e] == gs.l_class[f]:
            continue
        rows = {gs.r_class[e], gs.r_class[f]}
        cols = {gs.l_class[e], gs.l_class[f]}
        members = [
            x for x in range(len(S)) if gs.r_class[x] in rows and gs.l_class[x] in cols
        ]
        out.append(core.subsemigroup(S, members))
    return out


def test_full_torsion_matches_explicit_extraction():
    rng = random.Random(2)
    cases = [cons.k_p(2), core.rectangular_band(2, 2), core.rectangular_band(2, 3)]
    for _ in range(6):
        P = [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
        cases.append(cons.rees_matrix(2, core.cyclic_group(2), 2, P))
    for S in cases:
        gs = green.green_structure(S)
        n_r, n_l = len(set(gs.r_class)), len(set(gs.l_class))
        expected = n_r >= 2 and n_l >= 2
        if expected:
            for sub in two_by_two_subsemigroups(S):
                assert green.is_completely_simple(sub)
                if not hull.torsion_checks(sub)["has_torsion"]:
                    expected = False
                    break
        assert hull.torsion_checks(S)["full_torsion"] == expected


def test_lm_iff_plenty_left_on_samples():
    rng = random.Random(13)
    for _ in range(20):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        G = core.cyclic_group(rng.choice([1, 2, 3]))
        P = [[rng.randrange(len(G)) for _ in range(a)] for _ in range(b)]
        S = cons.rees_matrix(a, G, b, P)
        flags = hull.classify(S)
        torsion = hull.torsion_checks(S)
        assert flags["lm"] == torsion["plenty_left"]
        assert flags["rm"] == torsion["plenty_right"]


def test_reduction_proposition_parts_a_b():
    # for completely simple S: lam_u = lam_v forces u R v and equal omega
    # powers force equality
    cases = [cons.k_p(2), core.rectangular_band(2, 3)]
    for S in cases:
        gs = green.green_structure(S)
        n = len(S)
        lams = [tuple(S.mul(u, x) for x in range(n)) for u in range(n)]
        for u in range(n):
            for v in range(n):
                if lams[u] != lams[v]:
                    continue
                uw, vw = core.omega_power(S, u), core.omega_power(S, v)
                assert lams[uw] == lams[vw]
                assert gs.r_class[u] == gs.r_class[v]
                if uw == vw:
                    assert u == v


def test_enumerate_hull_accepts_rees_input():
    rm = cons.kp_rees(3)  # 12 elements, over the brute-force default bound
    bits = hull.enumerate_hull(rm)
    S = cons.realize(rm)
    inner = {hull.inner_bitranslation(S, s) for s in range(len(S))}
    assert inner <= bits


def brute_left_translations(S):
    """Oracle: filter all |S|^|S| self-maps by the left translation law."""
    n = len(S)
    return {
        lam
        for lam in itertools.product(range(n), repeat=n)
        if all(lam[S.mul(s, t)] == S.mul(lam[s], t) for s in range(n) for t in range(n))
    }


def brute_right_translations(S):
    n = len(S)
    return {
        rho
        for rho in itertools.product(range(n), repeat=n)
        if all(rho[S.mul(s, t)] == S.mul(s, rho[t]) for s in range(n) for t in range(n))
    }


def test_translation_enumeration_matches_full_brute_force():
    cases = [
        core.u1(),
        core.cyclic_group(2),
        core.cyclic_group(3),
        core.cyclic_group(4),
        core.left_zero(2),
        core.right_zero(2),
        core.null_semigroup(2),
        core.null_semigroup(3),
        core.rectangular_band(2, 2),
        core.adjoin_identity(core.left_zero(2)),
        core.direct_product(core.u1(), core.u1()),
        core.direct_product(core.u1(), core.cyclic_group(2)),
        core.adjoin_new_identity(core.cyclic_group(2)),
        core.adjoin_identity(core.rectangular_band(2, 2)),
        core.rectangular_band(1, 3),
        core.left_zero(3),
        core.null_semigroup(4),
        core.cyclic_group(5),
    ]
    for S in cases:
        assert set(hull.left_translations(S)) == brute_left_translations(S)
        assert set(hull.right_translations(S)) == brute_right_translations(S)


def test_hull_paths_agree_on_non_square_rees():
    rng = random.Random(17)
    for _ in range(3):
        P = tuple(tuple(rng.randrange(2) for _ in range(2)) for _ in range(3))
        rm = green.ReesMatrixSemigroup(2, 3, core.cyclic_group(2), P)
        S = cons.realize(rm)
        assert hull.enumerate_hull(S, bound=12) == hull.enumerate_hull_rees(rm)


def old_enumerate_hull_rees(rm):
    """enumerate_hull_rees as it was before the per-b split: every left
    translation paired with every right translation."""
    A, B, G, P = rm.a_size, rm.b_size, rm.group, rm.sandwich
    ng = len(G)
    S = cons.realize(rm)
    n = len(S)

    def idx(a: int, g: int, b: int) -> int:
        return (a * ng + g) * B + b

    lefts = []
    for phi in itertools.product(range(A), repeat=A):
        for mu in itertools.product(range(ng), repeat=A):
            lam = [0] * n
            for a in range(A):
                for g in range(ng):
                    for b in range(B):
                        lam[idx(a, g, b)] = idx(phi[a], G.table[mu[a]][g], b)
            lefts.append((phi, mu, tuple(lam)))
    rights = []
    for psi in itertools.product(range(B), repeat=B):
        for nu in itertools.product(range(ng), repeat=B):
            rho = [0] * n
            for a in range(A):
                for g in range(ng):
                    for b in range(B):
                        rho[idx(a, g, b)] = idx(a, G.table[g][nu[b]], psi[b])
            rights.append((psi, nu, tuple(rho)))

    out = set()
    for phi, mu, lam in lefts:
        for psi, nu, rho in rights:
            if all(
                G.table[nu[b]][P[psi[b]][a]] == G.table[P[b][phi[a]]][mu[a]]
                for a in range(A)
                for b in range(B)
            ):
                out.add(hull.Bitranslation(lam, rho))
    return frozenset(out)


def test_enumerate_hull_rees_matches_all_pairs():
    rng = random.Random(61)
    shapes = [
        (a, b, g)
        for a in (1, 2, 3)
        for b in (1, 2, 3)
        for g in (1, 2, 3, 4)
        if (a, b, g) != (3, 3, 4)  # the all-pairs oracle takes seconds there
    ]
    groups = [(a, b, core.cyclic_group(g)) for a, b, g in shapes]
    groups += [(a, b, s3_table()) for a in (1, 2) for b in (1, 2)]  # not abelian
    for a, b, G in groups:
        P = tuple(tuple(rng.randrange(len(G)) for _ in range(a)) for _ in range(b))
        rm = green.ReesMatrixSemigroup(a, b, G, P)
        assert hull.enumerate_hull_rees(rm) == old_enumerate_hull_rees(rm), (a, b, len(G), P)


# --- the brute-force enumerators as they were before core._extend_on_generators --

def old_factor_with_prefix(S, gens):
    """For each non-generator s, some (g, w) with s = g*w and g a generator."""
    n = len(S)
    out = {}
    gen_set = set(gens)
    for s in range(n):
        if s in gen_set:
            continue
        for g in gens:
            found = False
            for w in range(n):
                if S.table[g][w] == s:
                    out[s] = (g, w)
                    found = True
                    break
            if found:
                break
        else:
            raise core.SemigroupError(f"element {s} not reachable with a generator prefix")
    return out


def old_left_translations(S):
    n = len(S)
    gens = core.small_generating_set(S)
    fact = old_factor_with_prefix(S, gens)
    found = []
    for assign in itertools.product(range(n), repeat=len(gens)):
        lam = [0] * n
        for g, v in zip(gens, assign):
            lam[g] = v
        for s, (g, w) in fact.items():
            lam[s] = S.table[lam[g]][w]
        ok = True
        for s in range(n):
            row = S.table[s]
            ls = lam[s]
            for t in range(n):
                if lam[row[t]] != S.table[ls][t]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(lam))
    return found


def old_linked(S, lam, rho):
    n = len(S)
    for s in range(n):
        row = S.table[s]
        rs = rho[s]
        for t in range(n):
            if row[lam[t]] != S.table[rs][t]:
                return False
    return True


def test_translations_and_hull_match_the_all_pairs_check():
    rng = random.Random(61)
    cases = list(small_library().values())
    cases += [random_transformation_semigroup(rng, max_size=8, min_size=3) for _ in range(12)]
    for S in cases:
        lams = hull.left_translations(S)
        rhos = hull.right_translations(S)
        assert lams == old_left_translations(S)
        assert rhos == old_left_translations(core.opposite(S))
        for lam in lams:
            for rho in rhos:
                assert hull._linked(S, lam, rho) == old_linked(S, lam, rho)
        old_hull = {hull.Bitranslation(l, r) for l in lams for r in rhos if old_linked(S, l, r)}
        assert hull.enumerate_hull(S) == old_hull


def numbered_classify(S):
    """hull.classify as it was, counting the numbered actions of
    kernel_representation."""
    rep = hull.kernel_representation(S)
    n = len(S)
    lams, rhos = Counter(rep.lambda_of), Counter(rep.rho_of)
    ker = set(rep.kernel)
    wggm = all(
        lams[rep.lambda_of[u]] == 1 and rhos[rep.rho_of[u]] == 1 for u in range(n) if u not in ker
    )
    lm, rm = len(lams) == n, len(rhos) == n
    return {"lm": lm, "rm": rm, "ggm": lm and rm, "wggm": wggm}


def test_classify_matches_the_numbered_kernel_actions():
    rng = random.Random(181)
    cases = [random_transformation_semigroup(rng, max_size=250) for _ in range(30)]
    for _ in range(20):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        G = core.cyclic_group(rng.randint(1, 4))
        R = cons.rees_matrix(a, G, b, [[rng.randrange(len(G)) for _ in range(a)] for _ in range(b)])
        cases += [R, core.adjoin_new_identity(R)]
    cases += [cons.k_p(p) for p in (2, 3, 5)]
    for S in cases:
        assert hull.classify(S) == numbered_classify(S)
    assert len({tuple(hull.classify(S).values()) for S in cases}) >= 3

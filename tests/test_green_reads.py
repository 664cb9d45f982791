"""Torsion, WGGM and Rees coordinates read from the cached Green structure.

hull.torsion_checks, hull.classify and green.rees_coordinatize once
re-derived Green-relation facts themselves. The old versions are kept
below, verbatim apart from their names, as oracles; the current code must
return identical values on seeded random Rees matrix semigroups (element
order shuffled), random transformation semigroups and their kernels, and
monoids and synthesis carriers.
"""

import random

from eggbox import constructions as cons, core, green, hull
from eggbox.core import (
    FiniteSemigroup,
    SemigroupError,
    omega_minus_one,
    omega_power,
    subsemigroup,
)
from eggbox.green import (
    NotCompletelySimpleError,
    ReesMatrixSemigroup,
    green_structure,
    is_completely_simple,
)
from eggbox.hull import kernel_representation
from conftest import random_transformation_semigroup, s3_table, small_library
from test_core import relabel


# --- oracles: the code as it was before it read the Green structure -----------

def old_rees_coordinatize(S: FiniteSemigroup) -> tuple[ReesMatrixSemigroup, tuple[tuple[int, int, int], ...]]:
    """Rees coordinates of a completely simple semigroup.

    Picks the idempotent e of least index; A and B list the R- and L-classes
    with e's classes first; G is the H-class of e. The sandwich matrix is
    normalized so that the row and column through e hold the identity.
    Returns the coordinate system and, for each element of S, its (a, g, b)
    triple.
    """
    if not is_completely_simple(S):
        raise NotCompletelySimpleError("semigroup is not completely simple")
    gs = green_structure(S)
    n = len(S)
    e = min(S.idempotents())

    def ordered_classes(assign, cls_e):
        seen = [cls_e]
        for x in range(n):
            if assign[x] not in seen:
                seen.append(assign[x])
        return seen

    a_classes = ordered_classes(gs.r_class, gs.r_class[e])
    b_classes = ordered_classes(gs.l_class, gs.l_class[e])
    a_of = {c: i for i, c in enumerate(a_classes)}
    b_of = {c: i for i, c in enumerate(b_classes)}

    h_members = sorted(x for x in range(n) if gs.h_class[x] == gs.h_class[e])
    G = subsemigroup(S, h_members)
    g_of = {x: i for i, x in enumerate(h_members)}

    def pick(r_cls, l_cls):
        return min(
            x for x in range(n) if gs.r_class[x] == r_cls and gs.l_class[x] == l_cls
        )

    # r_a in R_a meet L_e, normalized so that e*r_a = e; q_b dual.
    r_reps = []
    for cls in a_classes:
        r = pick(cls, gs.l_class[e])
        h = S.table[e][r]  # lies in H_e
        r_reps.append(S.table[r][omega_minus_one(S, h)])
    q_reps = []
    for cls in b_classes:
        q = pick(gs.r_class[e], cls)
        h = S.table[q][e]
        q_reps.append(S.table[omega_minus_one(S, h)][q])

    sandwich = tuple(
        tuple(g_of[S.table[q][r]] for r in r_reps) for q in q_reps
    )
    coords = []
    for s in range(n):
        a = a_of[gs.r_class[s]]
        b = b_of[gs.l_class[s]]
        g_found = None
        for g in range(len(G)):
            if S.table[S.table[r_reps[a]][h_members[g]]][q_reps[b]] == s:
                g_found = g
                break
        if g_found is None:
            raise SemigroupError("Rees coordinates must cover every element")
        coords.append((a, g_found, b))
    rm = ReesMatrixSemigroup(len(a_classes), len(b_classes), G, sandwich)
    return rm, tuple(coords)



def old_classify(S: FiniteSemigroup) -> dict:
    """LM / RM / GGM / WGGM flags of the action of S on its kernel."""
    rep = kernel_representation(S)
    n = len(S)
    lm = len(set(rep.lambda_of)) == n
    rm = len(set(rep.rho_of)) == n
    ker = set(rep.kernel)
    wggm = True
    for u in range(n):
        for v in range(u + 1, n):
            apart = rep.lambda_of[u] != rep.lambda_of[v] and rep.rho_of[u] != rep.rho_of[v]
            if not (apart or (u in ker and v in ker)):
                wggm = False
                break
        if not wggm:
            break
    return {"lm": lm, "rm": rm, "ggm": lm and rm, "wggm": wggm}



def old_torsion_checks(S: FiniteSemigroup) -> dict:
    """Torsion predicates of a completely simple semigroup.

    has_torsion: S is not a rectangular group, i.e. fails x y^w x^w = x.
    full_torsion: at least two R- and two L-classes, and ef idempotent
    forces ef in {e, f}.
    plenty_left: for distinct R-equivalent idempotents e, f there is an
    idempotent g in the L-class of e with fg != e; plenty_right is dual.
    """
    if not is_completely_simple(S):
        raise NotCompletelySimpleError("torsion predicates need a completely simple semigroup")
    n = len(S)
    idem = S.idempotents()
    omega = [omega_power(S, x) for x in range(n)]

    has_torsion = False
    for x in range(n):
        if has_torsion:
            break
        row = S.table[x]
        xw = omega[x]
        for y in range(n):
            if S.table[row[omega[y]]][xw] != x:
                has_torsion = True
                break

    # for idempotents, e R f iff ef = f and fe = e (L dual); in a completely
    # simple semigroup every element is R- and L-equivalent to its omega
    # power, so class counts over idempotents are class counts over S
    def r_eq(e, f):
        return S.table[e][f] == f and S.table[f][e] == e

    def l_eq(e, f):
        return S.table[e][f] == e and S.table[f][e] == f

    n_r = sum(1 for i, e in enumerate(idem) if not any(r_eq(e, f) for f in idem[:i]))
    n_l = sum(1 for i, e in enumerate(idem) if not any(l_eq(e, f) for f in idem[:i]))

    full = n_r >= 2 and n_l >= 2
    if full:
        for e in idem:
            for f in idem:
                ef = S.table[e][f]
                if S.is_idempotent(ef) and ef not in (e, f):
                    full = False
                    break
            if not full:
                break

    plenty_left = True
    for e in idem:
        for f in idem:
            if e == f or not r_eq(e, f):
                continue
            if not any(S.table[f][g] != e for g in idem if l_eq(g, e)):
                plenty_left = False
                break
        if not plenty_left:
            break

    plenty_right = True
    for e in idem:
        for f in idem:
            if e == f or not l_eq(e, f):
                continue
            if not any(S.table[g][f] != e for g in idem if r_eq(g, e)):
                plenty_right = False
                break
        if not plenty_right:
            break

    return {
        "has_torsion": has_torsion,
        "full_torsion": full,
        "plenty_left": plenty_left,
        "plenty_right": plenty_right,
    }


# --- inputs --------------------------------------------------------------------

GROUPS = [
    core.trivial(),
    core.cyclic_group(2),
    core.cyclic_group(3),
    core.cyclic_group(4),
    core.direct_product(core.cyclic_group(2), core.cyclic_group(2)),
    s3_table(),
]


def shuffled(S, rng):
    perm = list(range(len(S)))
    rng.shuffle(perm)
    return relabel(S, perm)


def random_rees(rng, rectangular_group=False):
    """M(A, G, B; P) with a, b <= 4 over one of GROUPS, elements shuffled.
    With rectangular_group every sandwich entry is the identity, so S is a
    rectangular group and has no torsion."""
    G = rng.choice(GROUPS)
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    if rectangular_group:
        P = [[G.identity] * a for _ in range(b)]
    else:
        P = [[rng.randrange(len(G)) for _ in range(a)] for _ in range(b)]
    return shuffled(cons.rees_matrix(a, G, b, P), rng)


def completely_simple_cases():
    rng = random.Random(808)
    cases = [random_rees(rng) for _ in range(300)]
    cases += [random_rees(rng, rectangular_group=True) for _ in range(40)]
    for _ in range(25):
        S = random_transformation_semigroup(rng, max_size=60)
        cases.append(subsemigroup(S, green.kernel(S)))
    return cases


def same_rees(S):
    (rm, coords), (old_rm, old_coords) = green.rees_coordinatize(S), old_rees_coordinatize(S)
    assert coords == old_coords
    assert (rm.a_size, rm.b_size, rm.sandwich) == (old_rm.a_size, old_rm.b_size, old_rm.sandwich)
    assert rm.group == old_rm.group


# --- differential tests -------------------------------------------------------


def test_torsion_classify_and_rees_match_the_old_code_on_completely_simple_inputs():
    cases = completely_simple_cases()
    torsion = moved = 0
    for S in cases:
        flags = hull.torsion_checks(S)
        assert flags == old_torsion_checks(S)
        assert hull.classify(S) == old_classify(S)
        same_rees(S)
        torsion += flags["has_torsion"]
        moved += min(S.idempotents()) != 0
    # both answers of has_torsion occur, and the least idempotent is often not 0
    assert 20 < torsion < len(cases) - 20
    assert moved > 30


def test_classify_matches_the_old_code_on_transformation_semigroups():
    rng = random.Random(809)
    seen = set()
    for _ in range(40):
        S = random_transformation_semigroup(rng, max_size=80)
        flags = hull.classify(S)
        assert flags == old_classify(S)
        seen.add(tuple(flags.values()))
    assert len(seen) >= 3


def test_classify_matches_the_old_code_on_monoids_and_synthesis_carriers():
    lib = small_library()
    cases = [core.adjoin_new_identity(S) for S in lib.values()]
    cases += [core.adjoin_new_identity(cons.rees_matrix(2, core.cyclic_group(2), 3, [[0, 1]] * 3))]
    for S, T in [("Z2", "Z2"), ("U1", "Z3"), ("LZ2", "Z2"), ("RB22", "U1")]:
        S, T = lib[S], lib[T]
        for f in ([0] * len(core.adjoin_identity(S)), list(range(len(core.adjoin_identity(S))))):
            f = [x % len(core.adjoin_identity(T)) for x in f]
            cases.append(cons.synthesis(S, T, f).carrier)
    wggm_outside_simple = 0
    for S in cases:
        flags = hull.classify(S)
        assert flags == old_classify(S)
        wggm_outside_simple += flags["wggm"] and not is_completely_simple(S)
    assert wggm_outside_simple >= 5


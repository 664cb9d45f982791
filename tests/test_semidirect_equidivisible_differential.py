"""`semidirect_product`'s action checks and `is_equidivisible`, against
verbatim copies of the code they replaced.

`semidirect_product` used to test each action for the endomorphism law on
every pair (x, y) and the monoid-homomorphism law on every pair (t1, t2); it
now tests both on generators and scans all pairs only after a failure, to
name the same first pair. `is_equidivisible` used to filter all n^4
quadruples for equal products; it now pairs each (s, t) only with the (u, v)
of equal product. Results, witnesses and error messages must not change.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

from eggbox import constructions, core, green
from eggbox.constructions import NotEndomorphismError, NotMonoidHomError
from eggbox.core import FiniteSemigroup, SemigroupError, adjoin_identity, from_function
from conftest import random_transformation_semigroup, small_library


# --- verbatim copies of the replaced code ------------------------------------------

def old_semidirect_product(
    S: FiniteSemigroup,
    T: FiniteSemigroup,
    action: Mapping[int, Sequence[int]],
) -> FiniteSemigroup:
    """S x| T for an action of T^1 on S by endomorphisms.

    `action` maps each T element index to the image tuple of its
    endomorphism of S (the adjoined identity of T^1, when T is not a monoid,
    acts as the identity map and need not be supplied). Multiplication is
    (s1, t1)(s2, t2) = (s1 * (t1 . s2), t1 t2).
    """
    ns, nt = len(S), len(T)
    endos = {}
    for t in range(nt):
        if t not in action:
            raise NotMonoidHomError(f"action undefined on T element {t}")
        img = tuple(action[t])
        if len(img) != ns or any(not 0 <= v < ns for v in img):
            raise NotEndomorphismError(f"action of {t} is not a self-map of S")
        endos[t] = img
    for t, img in endos.items():
        for x in range(ns):
            for y in range(ns):
                if img[S.table[x][y]] != S.table[img[x]][img[y]]:
                    raise NotEndomorphismError(
                        f"action of {t} is not an endomorphism at ({x},{y})"
                    )
    ident = tuple(range(ns))
    if T.identity is not None and endos[T.identity] != ident:
        raise NotMonoidHomError("identity of T must act as the identity map")
    for t1 in range(nt):
        for t2 in range(nt):
            composed = tuple(endos[t1][endos[t2][x]] for x in range(ns))
            if endos[T.table[t1][t2]] != composed:
                raise NotMonoidHomError(
                    f"action is not a monoid homomorphism at ({t1},{t2})"
                )

    pairs = [(s, t) for s in range(ns) for t in range(nt)]
    s_tab, t_tab = S.table, T.table
    labels = [f"({S.elements[s]},{T.elements[t]})" for (s, t) in pairs]
    return from_function(
        pairs, lambda x, y: (s_tab[x[0]][endos[x[1]][y[0]]], t_tab[x[1]][y[1]]), labels
    )


def old_is_equidivisible(S: FiniteSemigroup):
    """Exhaustive check of equidivisibility; returns (bool, counterexample).

    The counterexample, when present, is a quadruple (s, t, u, v) of indices
    with s*t = u*v but no w in S^1 completing either s*w = u, w*v = t or
    u*w = s, v = w*t.
    """
    S1 = adjoin_identity(S)
    n = len(S)
    for s in range(n):
        for t in range(n):
            st = S.table[s][t]
            for u in range(n):
                for v in range(n):
                    if S.table[u][v] != st:
                        continue
                    ok = False
                    for w in range(len(S1)):
                        if S1.table[s][w] == u and S1.table[w][v] == t:
                            ok = True
                            break
                        if S1.table[u][w] == s and S1.table[w][t] == v:
                            ok = True
                            break
                    if not ok:
                        return False, (s, t, u, v)
    return True, None


# --- cases ---------------------------------------------------------------------------

def semigroups() -> dict[str, FiniteSemigroup]:
    """small_library(), completely simple (so equidivisible) ones of up to 24
    elements, and 40 seeded random transformation semigroups of 2-24
    elements, each also with its elements shuffled, so that the first
    counterexample is not always at s = 0."""
    out = dict(small_library())
    out.update(Z24=core.cyclic_group(24), RB45=core.rectangular_band(4, 5), K5=constructions.k_p(5),
               LZ20=core.left_zero(20), M233=constructions.rees_matrix(2, core.cyclic_group(3), 3,
                                                                      [[0, 0], [0, 1], [0, 2]]))
    rng = random.Random(2525)
    for i in range(40):
        S = random_transformation_semigroup(rng, max_size=24, min_size=2)
        order = rng.sample(range(len(S)), len(S))
        out[f"random{i}"] = S
        out[f"random{i}-shuffled"] = from_function(order, S.mul, [S.elements[x] for x in order])
    return out


CASES = semigroups()


def outcome(build: Callable[[], object]):
    """The semigroup as its JSON object, or the error's type and message."""
    try:
        return core.to_dict(build())
    except SemigroupError as exc:
        return type(exc), str(exc)


def endomorphisms(S: FiniteSemigroup) -> list[tuple[int, ...]]:
    """Some endomorphisms of S: the identity, the constant maps onto
    idempotents and, if S is commutative, x -> x^k for k = 2, 3."""
    n = len(S)
    out = [tuple(range(n))] + [(e,) * n for e in S.idempotents()]
    if S.table == S.columns:
        out += [tuple(S.power(x, k) for x in range(n)) for k in (2, 3)]
    return out


def perturbed(rng: random.Random, img: tuple[int, ...]) -> tuple[int, ...]:
    """img with one value moved, usually no longer an endomorphism."""
    out = list(img)
    out[rng.randrange(len(out))] = rng.randrange(len(out))
    return tuple(out)


def actions(rng: random.Random, S: FiniteSemigroup, T: FiniteSemigroup):
    """Valid actions of T on S where easy (trivial; U1 and LZ2 by idempotent
    maps), then random ones: each t acts by an endomorphism of S or, now
    and then, by a perturbed one, so the first failure falls on either law."""
    n, endos = len(S), endomorphisms(S)
    yield {t: tuple(range(n)) for t in range(len(T))}
    if T == core.u1():
        yield {0: rng.choice(endos), 1: tuple(range(n))}
    if T == core.left_zero(2):
        yield {t: (rng.choice(S.idempotents()),) * n for t in range(2)}
    for _ in range(6):
        action = {}
        for t in range(len(T)):
            img = rng.choice(endos)
            action[t] = perturbed(rng, img) if rng.random() < 0.15 else img
        yield action


LAWS = ("not an endomorphism", "not a monoid homomorphism", "identity of T")


def kind(result) -> str:
    if isinstance(result, dict):
        return "valid"
    return next(law for law in LAWS if law in result[1])


# --- tests ---------------------------------------------------------------------------

def test_cases_cover_the_issue_sizes():
    assert len(CASES) >= 100 and max(map(len, CASES.values())) <= 24
    assert sum(len(S) >= 12 for S in CASES.values()) >= 20


def test_is_equidivisible_matches_the_quadruple_scan():
    results = []
    for name, S in CASES.items():
        old = old_is_equidivisible(S)
        assert green.is_equidivisible(S) == old, name
        results.append(old)
    assert sum(ok for ok, _ in results) >= 20
    late = [witness for _, witness in results if witness is not None and witness[:2] != (0, 0)]
    assert len(late) >= 20 and any(s > 0 for s, _, _, _ in late)


def test_semidirect_product_matches_on_valid_and_invalid_actions():
    rng = random.Random(4242)
    t_pool = [core.u1(), core.left_zero(2), core.cyclic_group(2), core.null_semigroup(2),
              core.right_zero(2), core.rectangular_band(2, 2)]
    seen: dict[object, int] = {}
    for name, S in CASES.items():
        for T in t_pool + [random_transformation_semigroup(rng, max_size=6, min_size=2)]:
            for action in actions(rng, S, T):
                old = outcome(lambda: old_semidirect_product(S, T, action))
                assert outcome(lambda: constructions.semidirect_product(S, T, action)) == old, name
                seen[kind(old)] = seen.get(kind(old), 0) + 1
    # each outcome is reached many times: a product, either law, the identity law
    assert set(seen) == {"valid", *LAWS} and min(seen.values()) >= 20, seen


def test_semidirect_product_names_the_first_pair_on_late_failures():
    """Failures away from the first generator and the first element still
    name the row-major first pair."""
    S, T = core.cyclic_group(6), core.cyclic_group(3)
    ident, double, negate = tuple(range(6)), (0, 2, 4, 0, 2, 4), (0, 5, 4, 3, 2, 1)
    cases = [
        # 2 is first to fail, at (1,4): 5 -> 5 but 1 + 4 -> 2 + 2
        ({0: ident, 1: double, 2: (0, 2, 4, 0, 2, 5)}, "action of 2 is not an endomorphism at (1,4)"),
        # endos[2] = negate o negate, but endos[0] != negate o endos[2]; (2,1) fails too
        ({0: ident, 1: negate, 2: ident}, "action is not a monoid homomorphism at (1,2)"),
        ({0: ident, 1: double, 2: double}, "action is not a monoid homomorphism at (1,1)"),
        ({0: negate, 1: negate, 2: negate}, "identity of T must act as the identity map"),
    ]
    for action, message in cases:
        old = outcome(lambda: old_semidirect_product(S, T, action))
        assert old[1] == message
        assert outcome(lambda: constructions.semidirect_product(S, T, action)) == old

"""Green's relations, kernels, Rees coordinates, and structural predicates.

On finite semigroups D = J, so only R, L, J, H are computed. Class ids are
assigned in order of least member, which keeps everything deterministic.
"""

from __future__ import annotations

from typing import Mapping

from .core import (
    FiniteSemigroup,
    SemigroupError,
    adjoin_identity,
    omega_minus_one,
    record,
    subsemigroup,
    _is_int,
    _require_list,
    from_dict as semigroup_from_dict,
    to_dict as semigroup_to_dict,
)


class NotCompletelySimpleError(SemigroupError):
    pass


class NotIdempotentError(SemigroupError):
    pass


@record
class GreenStructure:
    r_class: tuple[int, ...]
    l_class: tuple[int, ...]
    j_class: tuple[int, ...]
    h_class: tuple[int, ...]
    j_order: frozenset[tuple[int, int]]  # (lower, higher) pairs of J-class ids
    kernel_class: int
    regular: tuple[bool, ...]  # indexed by J-class id


@record
class ReesMatrixSemigroup:
    """Coordinatized completely simple semigroup M(A, G, B; P).

    sandwich is a b_size x a_size matrix of group element indices; when
    produced by rees_coordinatize, the first row and column hold the group
    identity.
    """

    a_size: int
    b_size: int
    group: FiniteSemigroup
    sandwich: tuple[tuple[int, ...], ...]


def _ideals(S: FiniteSemigroup):
    """Principal right, left and two-sided ideals sS^1, S^1s and S^1sS^1.

    The two-sided ideal is the union of S^1r over r in sS^1, computed once
    per distinct right ideal.
    """
    rng = range(len(S))
    right = [frozenset(S.table[s]).union((s,)) for s in rng]
    left = [frozenset(col).union((s,)) for s, col in enumerate(zip(*S.table))]
    two_of: dict[frozenset, frozenset] = {}
    for r in right:
        if r not in two_of:
            two_of[r] = frozenset().union(*(left[t] for t in r))
    return right, left, [two_of[r] for r in right]


def _classify_by(ideals) -> tuple[int, ...]:
    ids: dict[frozenset, int] = {}
    out = []
    for ideal in ideals:
        if ideal not in ids:
            ids[ideal] = len(ids)
        out.append(ids[ideal])
    return tuple(out)


def green_structure(S: FiniteSemigroup) -> GreenStructure:
    """Green's R, L, J, H classes and the J-order, computed once per S."""
    return S._derive("green", _green_structure)


def _green_structure(S: FiniteSemigroup) -> GreenStructure:
    n = len(S)
    right, left, two = _ideals(S)
    r = _classify_by(right)
    l = _classify_by(left)
    j = _classify_by(two)
    h = _classify_by(list(zip(r, l)))

    n_j = max(j) + 1
    rep = [None] * n_j
    for x in range(n):
        if rep[j[x]] is None:
            rep[j[x]] = x
    order = frozenset(
        (a, b) for a in range(n_j) for b in range(n_j) if two[rep[a]] <= two[rep[b]]
    )
    minima = [c for c in range(n_j) if all((c, d) in order for d in range(n_j))]
    if len(minima) != 1:
        raise SemigroupError("finite semigroup must have a unique minimum ideal")
    regular = [False] * n_j
    for e in S.idempotents():
        regular[j[e]] = True
    return GreenStructure(r, l, j, h, order, minima[0], tuple(regular))


def kernel(S: FiniteSemigroup) -> frozenset[int]:
    """The minimum ideal: elements of the least J-class."""
    gs = green_structure(S)
    return frozenset(x for x in range(len(S)) if gs.j_class[x] == gs.kernel_class)


def is_completely_simple(S: FiniteSemigroup) -> bool:
    """Is S simple, i.e. a single J-class? For finite S this is equivalent to
    x(yx)^w = x for all x, y."""
    return max(green_structure(S).j_class) == 0


def maximal_subgroup(S: FiniteSemigroup, e: int) -> FiniteSemigroup:
    """The H-class of an idempotent e, as a group with identity e."""
    if not S.is_idempotent(e):
        raise NotIdempotentError(f"element {e} is not idempotent")
    gs = green_structure(S)
    members = [x for x in range(len(S)) if gs.h_class[x] == gs.h_class[e]]
    return subsemigroup(S, members)


def rees_coordinatize(S: FiniteSemigroup) -> tuple[ReesMatrixSemigroup, tuple[tuple[int, int, int], ...]]:
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
    table = S.table
    e = min(S.idempotents())
    r_e, l_e = gs.r_class[e], gs.l_class[e]
    a_of = {c: i for i, c in enumerate(dict.fromkeys((r_e, *gs.r_class)))}
    b_of = {c: i for i, c in enumerate(dict.fromkeys((l_e, *gs.l_class)))}
    least: dict[tuple[int, int], int] = {}  # least member of each H-class
    for x, rl in enumerate(zip(gs.r_class, gs.l_class)):
        least.setdefault(rl, x)

    h_members = sorted(x for x, h in enumerate(gs.h_class) if h == gs.h_class[e])
    G = subsemigroup(S, h_members)
    g_of = {x: i for i, x in enumerate(h_members)}

    # r_a in R_a meet L_e, normalized so that e*r_a = e; q_b dual.
    r_reps = []
    for cls in a_of:
        r = least[cls, l_e]
        r_reps.append(table[r][omega_minus_one(S, table[e][r])])
    q_reps = []
    for cls in b_of:
        q = least[r_e, cls]
        q_reps.append(table[omega_minus_one(S, table[q][e])][q])

    sandwich = tuple(tuple(g_of[table[q][r]] for r in r_reps) for q in q_reps)
    # s = r_a g q_b gives e s e = g, since e r_a = e = q_b e and g lies in H_e
    coords = []
    for s in range(len(S)):
        a, b = a_of[gs.r_class[s]], b_of[gs.l_class[s]]
        g = table[table[e][s]][e]
        if table[table[r_reps[a]][g]][q_reps[b]] != s:
            raise SemigroupError("Rees coordinates must cover every element")
        coords.append((a, g_of[g], b))
    rm = ReesMatrixSemigroup(len(a_of), len(b_of), G, sandwich)
    return rm, tuple(coords)


def is_equidivisible(S: FiniteSemigroup):
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


def letter_cancelative(S: FiniteSemigroup, gen_map: Mapping[str, int]) -> dict:
    """Right/left letter cancellativity over the images of gen_map.

    Right: for every generator image a, sa = ta implies s = t; left is dual.
    Witnesses are (letter, s, t) triples. The images must generate S.
    """
    from .core import GeneratorsDoNotGenerateError, generated_subsemigroup

    if generated_subsemigroup(S, gen_map.values()) != frozenset(range(len(S))):
        raise GeneratorsDoNotGenerateError("letter images must generate the semigroup")
    out = {"right": True, "left": True, "right_witness": None, "left_witness": None}
    n = len(S)
    for letter, a in gen_map.items():
        for s in range(n):
            for t in range(s + 1, n):
                if out["right"] and S.table[s][a] == S.table[t][a]:
                    out["right"] = False
                    out["right_witness"] = (letter, s, t)
                if out["left"] and S.table[a][s] == S.table[a][t]:
                    out["left"] = False
                    out["left_witness"] = (letter, s, t)
    return out


# --- Rees JSON ---------------------------------------------------------------

def rees_to_dict(rm: ReesMatrixSemigroup) -> dict:
    return {
        "a": rm.a_size,
        "b": rm.b_size,
        "group": semigroup_to_dict(rm.group),
        "sandwich": [list(row) for row in rm.sandwich],
    }


def rees_from_dict(obj: Mapping) -> ReesMatrixSemigroup:
    """Rees matrix semigroup from its JSON object: 'a' and 'b' positive
    integers, 'group' a semigroup object, 'sandwich' a list of lists of
    integers. Errors name the offending path, e.g. sandwich[0][1]."""
    if not isinstance(obj, Mapping):
        raise SemigroupError("Rees JSON must be an object")
    for key in ("a", "b", "group", "sandwich"):
        if key not in obj:
            raise SemigroupError(f"Rees JSON needs {key!r}")
    for key in ("a", "b"):
        if not _is_int(obj[key]) or obj[key] < 1:
            raise SemigroupError(f"{key} must be a positive integer, got {obj[key]!r}")
    group = semigroup_from_dict(obj["group"])
    return ReesMatrixSemigroup(obj["a"], obj["b"], group, sandwich_from_json(obj["sandwich"]))


def sandwich_from_json(value) -> tuple[tuple[int, ...], ...]:
    """A sandwich matrix from JSON data: a list of lists of integers (bool and
    float rejected), errors naming the entry, e.g. sandwich[0][1]."""
    _require_list(value, "sandwich", lambda row: isinstance(row, list), "a list of integers")
    for i, row in enumerate(value):
        _require_list(row, f"sandwich[{i}]", _is_int, "an integer")
    return tuple(map(tuple, value))

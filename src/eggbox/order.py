"""Stable partial orders on finite semigroups and the syntactic pipeline.

A stable order satisfies s <= t implies us <= ut and su <= tu. Orderability
is decided by closing single seed pairs: any nontrivial stable order
contains the stable closure of each of its nontrivial pairs, and that
closure is itself a stable order, so one antisymmetric single-seed closure
is both necessary and sufficient.
"""

from __future__ import annotations

from collections import deque
from itertools import filterfalse, islice, product
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping, Optional

from .core import (
    BoundExceededError,
    FiniteSemigroup,
    SemigroupError,
    UnknownLetterError,
    from_function,
    generating_set,
    record,
    _require_list,
)
from .hull import classify


class OrderError(ValueError):
    pass


@record
class OrderedSemigroup:
    semigroup: FiniteSemigroup
    leq: frozenset[tuple[int, int]]

    def is_trivial(self) -> bool:
        return all(a == b for a, b in self.leq)


def ordered(S: FiniteSemigroup, pairs: Iterable[tuple[int, int]]) -> OrderedSemigroup:
    """Build an OrderedSemigroup, verifying all order axioms and stability:
    a reflexive antisymmetric relation is a stable order exactly when its
    stable closure adds no pair (the error names the least pair it adds)."""
    n = len(S)
    leq = {(int(a), int(b)) for a, b in pairs} | {(x, x) for x in range(n)}
    for a, b in leq:
        if not (0 <= a < n and 0 <= b < n):
            raise OrderError(f"pair ({a},{b}) out of range")
        if a != b and (b, a) in leq:
            raise OrderError(f"not antisymmetric at ({a},{b})")
    if not _is_closed(S, leq):
        a, b = min(stable_closure(S, leq)[0] - leq)
        raise OrderError(f"not transitive and stable: its stable closure adds ({a},{b})")
    return OrderedSemigroup(S, frozenset(leq))


def _is_closed(S: FiniteSemigroup, leq: set[tuple[int, int]]) -> bool:
    """Is the reflexive relation `leq` transitive and stable, i.e. does its
    stable closure add no pair? Transitivity is checked on one-step
    compositions, stability on the products with each generator g on either
    side: if x -> xg keeps every pair for each g, then by induction on word
    length so does x -> xu for every u = g1..gk, and x -> ux likewise."""
    above: dict[int, set[int]] = {}
    for a, b in leq:
        above.setdefault(a, set()).add(b)
    if not all(above[b] <= above[a] for a, b in leq if a != b):
        return False
    images_of = [(a, itemgetter(a, *up)) for a, up in above.items()]  # a, then above[a]
    for g in generating_set(S):
        for image in (S.columns[g], S.table[g]):  # x -> xg, x -> gx
            for a, get in images_of:
                if not above[image[a]].issuperset(get(image)):
                    return False
    return True


def trivial_order(S: FiniteSemigroup) -> OrderedSemigroup:
    return OrderedSemigroup(S, _diagonal(len(S)))


def _diagonal(n: int) -> frozenset[tuple[int, int]]:
    return frozenset((x, x) for x in range(n))


def stable_closure(
    S: FiniteSemigroup, seeds: Iterable[tuple[int, int]]
) -> tuple[frozenset[tuple[int, int]], Optional[tuple[int, int]]]:
    """Least reflexive transitive stable relation containing the seeds.

    Returns (closure, violation) where violation is the first pair (a, b)
    whose insertion made the relation fail antisymmetry, or None when the
    closure is a stable partial order.
    """
    rel, violation = _close(S, seeds, stop=False)
    return frozenset(rel) | _diagonal(len(S)), violation


def _close(
    S: FiniteSemigroup,
    seeds: Iterable[tuple[int, int]],
    stop: bool,
    base: Iterable[tuple[int, int]] = (),
    bad: Collection[tuple[int, int]] = (),
) -> tuple[set[tuple[int, int]], Optional[tuple[int, int]]]:
    """Breadth-first stable closure over the off-diagonal pairs.

    `base` must already be closed: its pairs are present from the start and
    are not expanded again. A pair counts as a violation when its reverse is
    present or when it lies in `bad` (pairs no stable order contains). With
    `stop` the search ends at the first violation and the relation returned
    is partial; otherwise it runs to completion and reports the first one.
    Only touched elements get a successor or predecessor set.
    """
    table = S.table
    rel: set[tuple[int, int]] = set()
    succ: dict[int, set[int]] = {}
    pred: dict[int, set[int]] = {}
    queue: deque[tuple[int, int]] = deque()
    violation: Optional[tuple[int, int]] = None

    def link(a: int, b: int) -> None:
        rel.add((a, b))
        succ.setdefault(a, {a}).add(b)
        pred.setdefault(b, {b}).add(a)

    def add(a: int, b: int) -> bool:
        """Insert a new off-diagonal pair; True means the search must stop."""
        nonlocal violation
        link(a, b)
        queue.append((a, b))
        if (b, a) in rel or (a, b) in bad:
            if violation is None:
                violation = (a, b)
            return stop
        return False

    for a, b in base:
        if a != b:
            link(a, b)
    for a, b in seeds:
        if a != b and (a, b) not in rel and add(a, b):
            return rel, violation
    while queue:
        a, b = queue.popleft()
        for row, x, y in zip(table, table[a], table[b]):
            c, d = row[a], row[b]
            if c != d and (c, d) not in rel and add(c, d):
                return rel, violation
            if x != y and (x, y) not in rel and add(x, y):
                return rel, violation
        for x in list(pred.get(a, ())):
            if x != b and (x, b) not in rel and add(x, b):
                return rel, violation
        for y in list(succ.get(b, ())):
            if a != y and (a, y) not in rel and add(a, y):
                return rel, violation
    return rel, violation


def _stable_orders(S: FiniteSemigroup) -> Iterator[frozenset[tuple[int, int]]]:
    """The off-diagonal parts of the stable orders on S: the trivial one
    first, then the rest in the order a breadth-first search over closures
    finds them.

    Every stable order is reached from the trivial one by repeatedly closing
    over one extra pair, so the search is exhaustive. Each closure stops at
    its first reversed pair. A seed that fails on the trivial order (and its
    reverse) fails on every base, so it is skipped from then on and ends any
    later closure that reaches it.
    """
    n = len(S)
    trivial: frozenset[tuple[int, int]] = frozenset()
    yield trivial
    seen = {trivial}
    queue = deque([trivial])
    bad: set[tuple[int, int]] = set()
    while queue:
        base = queue.popleft()
        # the seeds in lexicographic order; bad is read as the search goes
        for seed in filterfalse(bad.__contains__, product(range(n), repeat=2)):
            s, t = seed
            if s == t or seed in base:
                continue
            rel, violation = _close(S, [seed], stop=True, base=base, bad=bad)
            if violation is not None:
                if not base:
                    bad.update((seed, (t, s)))
                continue
            rel = frozenset(rel)
            if rel not in seen:
                seen.add(rel)
                queue.append(rel)
                yield rel


def is_orderable(S: FiniteSemigroup) -> tuple[bool, Optional[OrderedSemigroup]]:
    """Does S admit a nontrivial stable partial order?

    The witness is the second order _stable_orders finds: the stable closure
    of the first orderable seed pair (s, t), s != t, in lexicographic order.
    The closure of (t, s) is the order dual of that of (s, t), so the first
    orderable seed has s < t: each (t, s) before it is skipped once (s, t)
    has failed.
    """
    rel = next(islice(_stable_orders(S), 1, None), None)
    if rel is None:
        return False, None
    return True, OrderedSemigroup(S, rel | _diagonal(len(S)))


def enumerate_stable_orders(
    S: FiniteSemigroup, limit: Optional[int] = None
) -> list[OrderedSemigroup]:
    """All stable partial orders on S, via closure-based search.

    A limit k stops the search at the k-th order found; without one the
    carrier is capped at 6 elements.
    """
    n = len(S)
    if limit is None and n > 6:
        raise BoundExceededError(f"|S|={n} needs an explicit limit")
    if limit is not None and limit < 1:
        raise OrderError(f"limit must be at least 1, got {limit}")
    diagonal = _diagonal(n)
    found = [rel | diagonal for rel in islice(_stable_orders(S), limit)]
    return [OrderedSemigroup(S, rel) for rel in sorted(found, key=sorted)]


def unorderability_report(S: FiniteSemigroup) -> dict:
    """GGM and orderability flags, plus the consistency of the two.

    A nontrivial GGM semigroup is unorderable (its kernel's subgroups are
    nontrivial and would inherit a nontrivial stable order), so consistent
    means not (ggm and nontrivial and orderable).
    """
    flags = classify(S)
    orderable, _ = is_orderable(S)
    nontrivial = len(S) > 1
    return {
        "ggm": flags["ggm"],
        "orderable": orderable,
        "consistent": not (flags["ggm"] and nontrivial and orderable),
    }


def order_dual(os: OrderedSemigroup) -> OrderedSemigroup:
    return OrderedSemigroup(os.semigroup, frozenset((b, a) for a, b in os.leq))


# --- DFAs and the syntactic ordered semigroup ----------------------------------

@record
class Dfa:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transition: Mapping[tuple[str, str], str]
    initial: str
    accepting: frozenset[str]


def dfa(states, alphabet, transition, initial, accepting) -> Dfa:
    states = tuple(states)
    alphabet = tuple(alphabet)
    trans = dict(transition)
    for a in alphabet:
        if not a or "[" in a or "]" in a:
            raise SemigroupError(f"letter {a!r} must be nonempty and contain no '[' or ']'")
    if initial not in states:
        raise SemigroupError(f"initial state {initial!r} unknown")
    for q in accepting:
        if q not in states:
            raise SemigroupError(f"accepting state {q!r} unknown")
    for (q, a), q2 in trans.items():
        if q not in states or q2 not in states or a not in alphabet:
            raise SemigroupError(f"bad transition ({q!r},{a!r}) -> {q2!r}")
    return Dfa(states, alphabet, trans, initial, frozenset(accepting))


def _complete_and_trim(d: Dfa) -> Dfa:
    """Restrict to reachable states, adding a sink when transitions are partial."""
    sink = "__sink__"
    while sink in d.states:
        sink += "'"
    reach = [d.initial]
    seen = {d.initial}
    trans = {}
    for q in reach:
        if q == sink:
            for a in d.alphabet:
                trans[(q, a)] = sink
            continue
        for a in d.alphabet:
            q2 = d.transition.get((q, a), sink)
            trans[(q, a)] = q2
            if q2 not in seen:
                seen.add(q2)
                reach.append(q2)
    states = tuple(q for q in d.states if q in seen) + ((sink,) if sink in seen else ())
    return Dfa(states, d.alphabet, trans, d.initial, d.accepting & set(states))


def syntactic_semigroup(d: Dfa, limit: Optional[int] = None) -> tuple[OrderedSemigroup, dict[str, int]]:
    """The syntactic ordered semigroup of the language of a DFA.

    States of the trimmed DFA that include each other's languages merge into
    one class, a state of the minimal DFA. Elements are the class
    transformations induced by nonempty words; u <= v holds when every
    context accepting v accepts u. Returns the ordered semigroup (labels are
    shortest witness words, a multi-character letter in brackets as in
    terms.term_to_text) and the map from letters to element indices, which
    is the semigroup's `generators`. Past `limit` elements, if one is given,
    BoundExceededError is raised before any table is built.
    """
    t = _complete_and_trim(d)
    idx = {q: i for i, q in enumerate(t.states)}
    step = {a: [idx[t.transition[(q, a)]] for q in t.states] for a in t.alphabet}

    # incl[p][q]: every word accepted from p is accepted from q
    n = len(t.states)
    acc = [q in t.accepting for q in t.states]
    incl = [[not (acc[p] and not acc[q]) for q in range(n)] for p in range(n)]
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(n):
                if not incl[p][q]:
                    continue
                for a in t.alphabet:
                    if not incl[step[a][p]][step[a][q]]:
                        incl[p][q] = False
                        changed = True
                        break
    # one class per language, numbered in order of its least state
    least = [next(r for r in range(n) if incl[p][r] and incl[r][p]) for p in range(n)]
    reps = sorted(set(least))
    nq = len(reps)
    letter_tf = {a: tuple(reps.index(least[step[a][r]]) for r in reps) for a in t.alphabet}
    incl = [[incl[p][q] for q in reps] for p in reps]
    text = {a: a if len(a) == 1 else f"[{a}]" for a in t.alphabet}

    transforms: list[tuple[int, ...]] = []
    words: list[str] = []
    pos: dict[tuple[int, ...], int] = {}
    queue = deque([(tuple(range(nq)), "")])  # the empty word, which is no element
    while queue:
        tf, w = queue.popleft()
        for a in t.alphabet:
            tf2 = tuple(letter_tf[a][q] for q in tf)
            if tf2 not in pos:
                pos[tf2] = len(transforms)
                if limit is not None and len(pos) > limit:
                    raise BoundExceededError(f"the syntactic semigroup has more than {limit} elements")
                transforms.append(tf2)
                words.append(w + text[a])
                queue.append((tf2, words[-1]))

    size = len(transforms)
    gens = {a: pos[letter_tf[a]] for a in t.alphabet}
    table = from_function(transforms, lambda f, g: tuple(map(g.__getitem__, f)), words).table
    S = FiniteSemigroup(tuple(words), table, gens)
    # a stable partial order by construction: incl is reflexive and
    # transitive and preserved by letters, and two class transformations
    # that include each other's languages everywhere are equal
    leq = frozenset(
        (i, j)
        for i in range(size)
        for j in range(size)
        if all(incl[transforms[j][q]][transforms[i][q]] for q in range(nq))
    )
    return OrderedSemigroup(S, leq), gens


def concat_letter(d: Dfa, a: str) -> Dfa:
    """A DFA for L a = {w a : w in L}."""
    if a not in d.alphabet:
        raise UnknownLetterError(f"letter {a!r} not in the DFA alphabet")
    base = _complete_and_trim(d)
    states = tuple(f"{q}|{f}" for q in base.states for f in (0, 1))
    trans = {}
    for q in base.states:
        for f in (0, 1):
            for c in base.alphabet:
                nf = 1 if (q in base.accepting and c == a) else 0
                trans[(f"{q}|{f}", c)] = f"{base.transition[(q, c)]}|{nf}"
    accepting = frozenset(f"{q}|1" for q in base.states)
    return Dfa(states, base.alphabet, trans, f"{base.initial}|0", accepting)


# --- DFA JSON -------------------------------------------------------------------

def dfa_to_dict(d: Dfa) -> dict:
    return {
        "states": list(d.states),
        "alphabet": list(d.alphabet),
        "transitions": {f"{q},{a}": q2 for (q, a), q2 in sorted(d.transition.items())},
        "initial": d.initial,
        "accepting": sorted(d.accepting),
    }


def dfa_from_dict(obj: Mapping) -> Dfa:
    """DFA from its JSON object: 'states', 'alphabet' and 'accepting' lists
    of strings, 'transitions' an object from "state,letter" to a state."""
    if not isinstance(obj, Mapping):
        raise SemigroupError("DFA JSON must be an object")
    for key in ("states", "alphabet", "transitions", "initial", "accepting"):
        if key not in obj:
            raise SemigroupError(f"DFA JSON needs {key!r}")
    for key in ("states", "alphabet", "accepting"):
        _require_list(obj[key], key, lambda v: isinstance(v, str), "a string")
    if not isinstance(obj["transitions"], Mapping):
        raise SemigroupError("transitions must be an object")
    trans = {}
    for key, q2 in obj["transitions"].items():
        if "," not in key:
            raise SemigroupError(f"bad transition key {key!r}, expected 'state,letter'")
        q, a = key.rsplit(",", 1)
        trans[(q, a)] = q2
    return dfa(obj["states"], obj["alphabet"], trans, obj["initial"], obj["accepting"])

"""Stable partial orders on finite semigroups and the syntactic pipeline.

A stable order satisfies s <= t implies us <= ut and su <= tu. Orderability
is decided by closing single seed pairs: any nontrivial stable order
contains the stable closure of each of its nontrivial pairs, and that
closure is itself a stable order, so one antisymmetric single-seed closure
is both necessary and sufficient.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterable, Mapping, Optional

from .core import (
    BoundExceededError,
    FiniteSemigroup,
    SemigroupError,
    UnknownLetterError,
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

    def __eq__(self, other):
        if not isinstance(other, OrderedSemigroup):
            return NotImplemented
        return self.semigroup == other.semigroup and self.leq == other.leq

    def __hash__(self):
        return hash((self.semigroup, self.leq))

    def is_trivial(self) -> bool:
        return all(a == b for a, b in self.leq)


def ordered(S: FiniteSemigroup, pairs: Iterable[tuple[int, int]]) -> OrderedSemigroup:
    """Build an OrderedSemigroup, verifying all order axioms and stability."""
    n = len(S)
    leq = {(int(a), int(b)) for a, b in pairs} | {(x, x) for x in range(n)}
    for a, b in leq:
        if not (0 <= a < n and 0 <= b < n):
            raise OrderError(f"pair ({a},{b}) out of range")
        if a != b and (b, a) in leq:
            raise OrderError(f"not antisymmetric at ({a},{b})")
    for a, b in leq:
        for c, d in leq:
            if b == c and (a, d) not in leq:
                raise OrderError(f"not transitive: ({a},{b}) and ({c},{d})")
    for a, b in leq:
        for u in range(n):
            if (S.table[u][a], S.table[u][b]) not in leq:
                raise OrderError(f"not left stable at u={u}, pair ({a},{b})")
            if (S.table[a][u], S.table[b][u]) not in leq:
                raise OrderError(f"not right stable at u={u}, pair ({a},{b})")
    return OrderedSemigroup(S, frozenset(leq))


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


def _stable_order(
    S: FiniteSemigroup,
    seed: tuple[int, int],
    bad: Collection[tuple[int, int]],
    base: Iterable[tuple[int, int]] = (),
) -> Optional[frozenset[tuple[int, int]]]:
    """The closure of base and seed when it is a stable order, else None."""
    rel, violation = _close(S, [seed], stop=True, base=base, bad=bad)
    return None if violation is not None else frozenset(rel) | _diagonal(len(S))


def is_orderable(S: FiniteSemigroup) -> tuple[bool, Optional[OrderedSemigroup]]:
    """Does S admit a nontrivial stable partial order?

    The witness is the stable closure of the first orderable seed pair (s, t),
    s != t, in lexicographic order. The closure of (t, s) is the order dual
    of that of (s, t), so the first orderable seed has s < t and only those
    are closed. A failed seed fails inside every closure that reaches it or
    its reverse, so such closures stop there.
    """
    n = len(S)
    bad: set[tuple[int, int]] = set()
    for s in range(n):
        for t in range(s + 1, n):
            rel = _stable_order(S, (s, t), bad)
            if rel is not None:
                return True, OrderedSemigroup(S, rel)
            bad.update(((s, t), (t, s)))
    return False, None


def enumerate_stable_orders(
    S: FiniteSemigroup, limit: Optional[int] = None
) -> list[OrderedSemigroup]:
    """All stable partial orders on S, via closure-based search.

    Every stable order is reached from the trivial one by repeatedly closing
    over one extra pair, so a breadth-first search over closures is
    exhaustive. Without a limit the carrier is capped at 6 elements. Seeds
    that fail on the trivial order (and their reverses) fail on every base.
    """
    n = len(S)
    if limit is None and n > 6:
        raise BoundExceededError(f"|S|={n} needs an explicit limit")
    if limit is not None and limit < 1:
        raise OrderError(f"limit must be at least 1, got {limit}")
    trivial = _diagonal(n)
    seen = {trivial}
    queue = deque([trivial])
    bad: set[tuple[int, int]] = set()
    full = limit is not None and len(seen) >= limit
    while queue and not full:
        base = queue.popleft()
        for s in range(n):
            for t in range(n):
                if s == t or (s, t) in base or (s, t) in bad:
                    continue
                rel = _stable_order(S, (s, t), bad, base)
                if rel is None:
                    if base is trivial:
                        bad.update(((s, t), (t, s)))
                elif rel not in seen:
                    seen.add(rel)
                    queue.append(rel)
                    if limit is not None and len(seen) >= limit:
                        full = True
            if full:
                break
    return [OrderedSemigroup(S, rel) for rel in sorted(seen, key=sorted)]


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


def _minimize(d: Dfa) -> Dfa:
    d = _complete_and_trim(d)
    block = {q: (q in d.accepting) for q in d.states}
    while True:
        sig = {
            q: (block[q],) + tuple(block[d.transition[(q, a)]] for a in d.alphabet)
            for q in d.states
        }
        ids: dict = {}
        for q in d.states:
            ids.setdefault(sig[q], len(ids))
        new_block = {q: ids[sig[q]] for q in d.states}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    reps: dict[int, str] = {}
    for q in d.states:
        reps.setdefault(block[q], q)
    states = tuple(f"c{c}" for c in sorted(reps))
    trans = {
        (f"c{c}", a): f"c{block[d.transition[(reps[c], a)]]}"
        for c in sorted(reps)
        for a in d.alphabet
    }
    accepting = frozenset(f"c{c}" for c, q in reps.items() if q in d.accepting)
    return Dfa(states, d.alphabet, trans, f"c{block[d.initial]}", accepting)


def syntactic_semigroup(d: Dfa) -> tuple[OrderedSemigroup, dict[str, int]]:
    """The syntactic ordered semigroup of the language of a DFA.

    Elements are the state transformations of the minimized DFA induced by
    nonempty words; u <= v holds when every context accepting v accepts u.
    Returns the ordered semigroup (element labels are shortest witness
    words) and the map from letters to element indices.
    """
    m = _minimize(d)
    idx = {q: i for i, q in enumerate(m.states)}
    nq = len(m.states)
    letter_tf = {
        a: tuple(idx[m.transition[(q, a)]] for q in m.states) for a in m.alphabet
    }

    transforms: list[tuple[int, ...]] = []
    words: list[str] = []
    pos: dict[tuple[int, ...], int] = {}
    queue = deque()
    for a in m.alphabet:
        tf = letter_tf[a]
        if tf not in pos:
            pos[tf] = len(transforms)
            transforms.append(tf)
            words.append(a)
            queue.append(tf)
    while queue:
        tf = queue.popleft()
        w = words[pos[tf]]
        for a in m.alphabet:
            tf2 = tuple(letter_tf[a][tf[q]] for q in range(nq))
            if tf2 not in pos:
                pos[tf2] = len(transforms)
                transforms.append(tf2)
                words.append(w + a)
                queue.append(tf2)

    size = len(transforms)
    table = tuple(
        tuple(
            pos[tuple(transforms[j][transforms[i][q]] for q in range(nq))]
            for j in range(size)
        )
        for i in range(size)
    )
    S = FiniteSemigroup(tuple(words), table, {a: pos[letter_tf[a]] for a in m.alphabet})

    # acc_incl[p][q]: every word accepted from p is accepted from q
    acc = [m.states[p] in m.accepting for p in range(nq)]
    incl = [[not (acc[p] and not acc[q]) for q in range(nq)] for p in range(nq)]
    changed = True
    while changed:
        changed = False
        for p in range(nq):
            for q in range(nq):
                if not incl[p][q]:
                    continue
                for a in m.alphabet:
                    if not incl[letter_tf[a][p]][letter_tf[a][q]]:
                        incl[p][q] = False
                        changed = True
                        break
    # a stable partial order by construction: incl is reflexive and
    # transitive and preserved by letters, and two transformations that
    # include each other's languages everywhere are equal in a minimal DFA
    leq = frozenset(
        (i, j)
        for i in range(size)
        for j in range(size)
        if all(incl[transforms[j][q]][transforms[i][q]] for q in range(nq))
    )
    return OrderedSemigroup(S, leq), {a: pos[letter_tf[a]] for a in m.alphabet}


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

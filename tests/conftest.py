import itertools

import pytest

from eggbox import core, constructions


@pytest.fixture
def u1():
    return core.u1()


@pytest.fixture
def z2():
    return core.cyclic_group(2)


@pytest.fixture
def z3():
    return core.cyclic_group(3)


@pytest.fixture
def z6():
    return core.cyclic_group(6)


@pytest.fixture
def lz2():
    return core.left_zero(2)


@pytest.fixture
def rz2():
    return core.right_zero(2)


@pytest.fixture
def rb22():
    return core.rectangular_band(2, 2)


@pytest.fixture
def n2():
    return core.null_semigroup(2)


@pytest.fixture
def k2():
    return constructions.k_p(2)


@pytest.fixture
def k3():
    return constructions.k_p(3)


def s3_table():
    perms = list(itertools.permutations(range(3)))
    return core.from_function(perms, lambda f, g: tuple(f[g[i]] for i in range(3)))


def group_subsemigroups(S):
    """All subsemigroups of S that are groups (they live in maximal subgroups)."""
    from eggbox import green

    out = []
    for e in S.idempotents():
        H = green.maximal_subgroup(S, e)
        members = list(range(len(H)))
        for r in range(1, len(members) + 1):
            for subset in itertools.combinations(members, r):
                if H.identity not in subset:
                    continue
                if all(H.mul(x, y) in subset for x in subset for y in subset):
                    out.append(core.subsemigroup(H, subset))
    return out


def small_library():
    """Concrete semigroups exercised by cross-cutting property tests."""
    return {
        "trivial": core.trivial(),
        "U1": core.u1(),
        "Z2": core.cyclic_group(2),
        "Z3": core.cyclic_group(3),
        "Z4": core.cyclic_group(4),
        "Z6": core.cyclic_group(6),
        "LZ2": core.left_zero(2),
        "RZ2": core.right_zero(2),
        "RB22": core.rectangular_band(2, 2),
        "N2": core.null_semigroup(2),
        "N3": core.null_semigroup(3),
        "K2": constructions.k_p(2),
        "U1xU1": core.direct_product(core.u1(), core.u1()),
        "U1xZ2": core.direct_product(core.u1(), core.cyclic_group(2)),
        "S3": s3_table(),
    }


def random_transformation_semigroup(rng, max_size=120, min_size=8):
    """The semigroup generated by a few random self-maps of a small set.

    Associative by construction; degree and generators are drawn from `rng`
    until the closure has between `min_size` and `max_size` elements.
    """
    while True:
        m = rng.randint(3, 5)
        gens = {tuple(rng.randrange(m) for _ in range(m)) for _ in range(rng.randint(2, 3))}
        elems, frontier = set(gens), list(gens)
        while frontier and len(elems) <= max_size:
            new = []
            for f in frontier:
                for g in gens:
                    h = tuple(g[f[i]] for i in range(m))
                    if h not in elems:
                        elems.add(h)
                        new.append(h)
            frontier = new
        if min_size <= len(elems) <= max_size:
            return core.from_function(
                sorted(elems), lambda f, g: tuple(g[f[i]] for i in range(len(f)))
            )


def old_characteristic_sequence(w):
    """words.characteristic_sequence before its sliding window: a fresh set
    for every start position, O(m * window)."""
    from eggbox import words

    w = words.coerce(w)
    k = len(words.content(w))
    if k < 2:
        raise words.ContentTooSmallError("characteristic sequence needs content of size >= 2")
    m = len(w)
    out = []
    best_end = -1
    for i in range(m):
        seen: set[str] = set()
        j = i
        last_good = -1
        while j < m:
            seen.add(w.letters[j])
            if len(seen) > k - 1:
                break
            last_good = j
            j += 1
        if last_good >= 0 and len(set(w.letters[i : last_good + 1])) == k - 1:
            if last_good > best_end:
                out.append((w[i : last_good + 1], i + 1, last_good + 1))
                best_end = last_good
    return out


def random_words(rng, count, max_len=40):
    """Seeded words with content >= 2: plain letters, and de Bruijn encodings
    whose letters are composite (n+1)-grams."""
    from eggbox import words

    out = []
    while len(out) < count:
        sigma = "abcdef"[: rng.randint(2, 6)]
        w = tuple(rng.choice(sigma) for _ in range(rng.randint(2, max_len)))
        if rng.random() < 0.3:
            w = words.debruijn_encode(w, rng.randint(1, 2)).letters
        if len(set(w)) >= 2:
            out.append(w)
    return out


def full_transformation_dfa(n):
    """DFA JSON on states 0..n-1 (n >= 2) accepting at 0, whose letters (the
    cycle q -> q+1, the transposition of 0 and 1, and the map sending 1 to 0)
    generate T_n, so its syntactic semigroup has n^n elements."""
    maps = {"a": [(q + 1) % n for q in range(n)], "b": [1, 0, *range(2, n)], "c": [0, 0, *range(2, n)]}
    return {
        "states": [str(q) for q in range(n)],
        "alphabet": list(maps),
        "transitions": {f"{q},{a}": str(m[q]) for a, m in maps.items() for q in range(n)},
        "initial": "0",
        "accepting": ["0"],
    }

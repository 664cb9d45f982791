import itertools
import random

import pytest

from eggbox import constructions, core
from eggbox.core import (
    BoundExceededError,
    GeneratorsDoNotGenerateError,
    NonAssociativeError,
    OutOfRangeError,
    SizeMismatchError,
)
from conftest import random_transformation_semigroup, small_library


def brute_nonassoc_witness(table):
    """Independent oracle: lexicographically first failing triple."""
    n = len(table)
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return (i, j, k)
    return None


def test_validate_u1_semilattice(u1):
    assert u1.identity == 1
    assert u1.table == ((0, 0), (0, 1))


def test_validate_z3_group(z3):
    assert z3.identity == 0
    assert core.validate(z3.elements, z3.table).table == z3.table


def test_validate_nonassociative_witness():
    table = [[1, 0], [0, 0]]
    expected = brute_nonassoc_witness(table)
    assert expected == (0, 0, 1)  # frozen from the oracle
    with pytest.raises(NonAssociativeError) as exc:
        core.validate(["a", "b"], table)
    assert exc.value.witness == expected


def test_validate_out_of_range():
    with pytest.raises(OutOfRangeError):
        core.validate(["a", "b"], [[0, 1], [1, 2]])


def test_validate_generators_must_generate(u1):
    with pytest.raises(GeneratorsDoNotGenerateError):
        core.validate(u1.elements, u1.table, {"a": 1})
    ok = core.validate(u1.elements, u1.table, {"a": 0, "b": 1})
    assert ok.generators == {"a": 0, "b": 1}


def oracle_omega(S, s):
    """Iterate powers until an idempotent appears."""
    x = s
    for _ in range(len(S) + 1):
        if S.mul(x, x) == x:
            return x
        x = S.mul(x, s)
    raise AssertionError("no idempotent power found")


def test_omega_power_examples(z6, u1, k2):
    assert core.omega_power(z6, 2) == 0
    assert core.omega_power(u1, 1) == 1
    s = k2.index_of("(0,1,0)")
    assert k2.elements[core.omega_power(k2, s)] == "(0,0,0)"
    assert core.omega_power(k2, s) == oracle_omega(k2, s)


def test_omega_laws_across_library():
    for name, S in small_library().items():
        for s in range(len(S)):
            w = core.omega_power(S, s)
            m = core.omega_minus_one(S, s)
            assert S.is_idempotent(w), name
            assert w in core.generated_subsemigroup(S, [s]), name
            assert S.mul(s, m) == w == S.mul(m, s), name
            assert S.mul(S.mul(w, s), m) == w, name
            assert w == oracle_omega(S, s), name


def test_generated_subsemigroup(u1, z6, k2):
    assert core.generated_subsemigroup(u1, [0]) == frozenset({0})
    assert core.generated_subsemigroup(z6, [2]) == frozenset({2, 4, 0})
    gens = [k2.index_of("(0,0,1)"), k2.index_of("(1,0,0)")]
    assert core.generated_subsemigroup(k2, gens) == frozenset(range(8))


def test_adjoin_identity(z2, u1):
    assert core.adjoin_identity(z2) is z2
    assert len(core.adjoin_new_identity(z2)) == 3
    # (S^1)^1 = S^1 element for element
    s1 = core.adjoin_identity(core.left_zero(2))
    assert core.adjoin_identity(s1) is s1
    # (U1)^I is the stated subsemigroup of U1 x U1
    ui = core.adjoin_new_identity(u1)
    prod = core.direct_product(u1, u1)
    sub = core.subsemigroup(prod, [prod.index_of(l) for l in ["(0,0)", "(1,0)", "(1,1)"]])
    assert core.is_isomorphic(ui, sub) is not None


def test_direct_product(u1, z2, z3, z6):
    uu = core.direct_product(u1, u1)
    assert len(uu) == 4 and len(uu.idempotents()) == 4
    assert core.is_isomorphic(core.direct_product(z2, z3), z6) is not None
    s = core.left_zero(3)
    assert core.is_isomorphic(core.direct_product(s, core.trivial()), s) is not None


def test_direct_product_projections_are_homomorphisms():
    lib = [S for S in small_library().values() if len(S) <= 8]
    for S, T in itertools.product(lib[:6], lib[:6]):
        P = core.direct_product(S, T)
        nt = len(T)
        for i in range(len(P)):
            for j in range(len(P)):
                k = P.mul(i, j)
                assert k // nt == S.mul(i // nt, j // nt)
                assert k % nt == T.mul(i % nt, j % nt)


def test_evaluate_word(u1, z2, k2):
    assert core.evaluate_word(u1, {"a": 0}, "aaa") == 0
    assert core.evaluate_word(z2, {"a": 1}, "aa") == 0
    gm = {"x": k2.index_of("(0,0,1)"), "y": k2.index_of("(1,0,0)")}
    assert k2.elements[core.evaluate_word(k2, gm, "xyxy")] == "(0,0,0)"
    with pytest.raises(core.UnknownLetterError):
        core.evaluate_word(u1, {"a": 0}, "ab")


def test_input_checks_refuse_empty_and_nonpositive_input(u1):
    for k in (0, -1):
        with pytest.raises(ValueError, match="power exponent must be >= 1"):
            u1.power(0, k)
    with pytest.raises(core.SemigroupError, match="subset must be nonempty"):
        core.generated_subsemigroup(u1, [])
    for word in ("", []):
        with pytest.raises(core.SemigroupError, match="cannot evaluate the empty word"):
            core.evaluate_word(u1, {"a": 0}, word)


def power_cases():
    rng = random.Random(2525)
    out = list(small_library().values()) + [core.full_transformation_monoid(2), constructions.k_p(5)]
    return out + [random_transformation_semigroup(rng, max_size=40, min_size=2) for _ in range(10)]


def test_power_matches_the_k_fold_product():
    for S in power_cases():
        for x in range(len(S)):
            acc = x
            for k in range(1, 31):
                assert S.power(x, k) == acc
                acc = S.mul(acc, x)


def test_power_with_exponent_10_to_the_18_reads_the_cycle():
    """x^k = x^(index + (k - index) mod period) once k reaches the index."""
    k = 10**18
    for S in power_cases():
        for x in range(len(S)):
            index, period = core.cycle_index_period(S, x)
            acc = x
            for _ in range(index + (k - index) % period - 1):
                acc = S.mul(acc, x)
            assert S.power(x, k) == acc


def test_evaluate_word_is_multiplicative(k2):
    rng = random.Random(7)
    gm = {"x": k2.index_of("(0,0,1)"), "y": k2.index_of("(1,0,0)")}
    for _ in range(200):
        w = "".join(rng.choice("xy") for _ in range(rng.randint(2, 10)))
        cut = rng.randint(1, len(w) - 1)
        lhs = core.evaluate_word(k2, gm, w)
        rhs = k2.mul(core.evaluate_word(k2, gm, w[:cut]), core.evaluate_word(k2, gm, w[cut:]))
        assert lhs == rhs


def test_is_isomorphic(z2, z3, z6):
    z4 = core.cyclic_group(4)
    klein = core.direct_product(z2, z2)
    assert core.is_isomorphic(z4, klein) is None
    phi = core.is_isomorphic(core.direct_product(z2, z3), z6)
    assert phi is not None
    P = core.direct_product(z2, z3)
    for i in range(6):
        for j in range(6):
            assert phi[P.mul(i, j)] == z6.mul(phi[i], phi[j])
    assert core.is_isomorphic(z6, z6) is not None
    with pytest.raises(SizeMismatchError):
        core.is_isomorphic(z2, z3)
    with pytest.raises(BoundExceededError):
        core.is_isomorphic(z6, z6, bound=4)


def test_json_round_trip(k2):
    obj = core.to_dict(k2)
    back = core.from_dict(obj)
    assert back == k2
    with pytest.raises(core.SemigroupError):
        core.from_dict({"elements": ["a"]})


def test_rectangular_band_is_product_of_zero_semigroups(lz2, rz2, rb22):
    assert core.is_isomorphic(core.direct_product(lz2, rz2), rb22) is not None


# --- validation against the full scan it replaced -----------------------------

def old_generated_subsemigroup(S, subset):
    """generated_subsemigroup as it was before validation used Light's test."""
    closed = set(subset)
    if not closed:
        raise core.SemigroupError("subset must be nonempty")
    frontier = list(closed)
    while frontier:
        new = []
        for x in frontier:
            for y in list(closed):
                for z in (S.table[x][y], S.table[y][x]):
                    if z not in closed:
                        closed.add(z)
                        new.append(z)
        frontier = new
    return frozenset(closed)


def old_validate(elements, table, generators=None):
    """validate as it was before Light's test: the full O(n^3) scan."""
    elems = tuple(str(e) for e in elements)
    n = len(elems)
    if n == 0:
        raise core.SemigroupError("empty carrier")
    if len(set(elems)) != n:
        raise core.SemigroupError("duplicate element labels")
    tab = tuple(tuple(int(v) for v in row) for row in table)
    if len(tab) != n or any(len(row) != n for row in tab):
        raise core.SemigroupError(f"table must be {n}x{n}")
    for i in range(n):
        for j in range(n):
            if not 0 <= tab[i][j] < n:
                raise OutOfRangeError(f"table[{i}][{j}] = {tab[i][j]} not in 0..{n - 1}")
    for i in range(n):
        row_i = tab[i]
        for j in range(n):
            t_ij = row_i[j]
            row_ij = tab[t_ij]
            row_j = tab[j]
            for k in range(n):
                if row_ij[k] != row_i[row_j[k]]:
                    raise NonAssociativeError(i, j, k)
    gens = dict(generators) if generators is not None else None
    semi = core.FiniteSemigroup(elems, tab, gens)
    if gens is not None:
        for name, idx in gens.items():
            if not 0 <= idx < n:
                raise OutOfRangeError(f"generator {name!r} -> {idx} out of range")
        if old_generated_subsemigroup(semi, gens.values()) != frozenset(range(n)):
            raise GeneratorsDoNotGenerateError("generators do not generate the semigroup")
    return semi


def outcome(check, elements, table, generators=None):
    """What a validator makes of a table: the semigroup's data, or the error."""
    try:
        S = check(elements, table, generators)
    except core.SemigroupError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return "ok", S.table, S.identity, S.generators


def validation_pool():
    rng = random.Random(41)
    pool = [(name, S.table) for name, S in small_library().items()]
    pool += [
        (f"random{k}", random_transformation_semigroup(rng).table) for k in range(40)
    ]
    return pool


def malformed_pool():
    """Tables `from_dict` would refuse, passed to validate directly: float and
    bool entries (read with int()), an out-of-range entry in the last row,
    and ragged tables."""
    t3 = [list(row) for row in core.full_transformation_monoid(3).table]
    n = len(t3)
    last_high, last_low = [row[:] for row in t3], [row[:] for row in t3]
    last_high[-1][-1], last_low[-1][0] = n, -1
    return [
        ("float and bool", [[0.0, False], [0, True]]),
        ("float read down", [[0, 0.9], [0.2, 1.7]]),
        ("float out of range", [[0, 2.5], [0, 1]]),
        ("bool beside out of range", [[True, 2], [False, True]]),
        ("last row high", last_high),
        ("last row low", last_low),
        ("ragged short row", [[0, 0], [0]]),
        ("ragged long row", [[0, 0], [0, 1, 1]]),
        ("extra row", [[0, 0], [0, 1], [0, 1]]),
        ("ragged last row", t3[:-1] + [t3[-1][:-1]]),
    ]


def test_validate_matches_full_scan_on_malformed_tables():
    kinds = set()
    for name, table in malformed_pool():
        labels = [str(i) for i in range(len(table[0]))]
        expected = outcome(old_validate, labels, table)
        kinds.add(expected[0])
        assert outcome(core.validate, labels, table) == expected, name
        if expected[0] == "ok":
            table = core.validate(labels, table).table
            assert {type(v) for row in table for v in row} == {int}, name
    assert kinds == {"ok", "OutOfRangeError", "SemigroupError"}


def test_null_semigroup_needs_an_element():
    assert core.null_semigroup(1).table == ((0,),)
    for n in (0, -2):
        with pytest.raises(core.SemigroupError, match="null semigroup order must be >= 1"):
            core.null_semigroup(n)


def corruptions(table, rng, count):
    """Copies of `table` with one entry changed to another in-range value."""
    n = len(table)
    if n < 2:
        return
    for _ in range(count):
        rows = [list(row) for row in table]
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rng.choice([v for v in range(n) if v != rows[i][j]])
        yield rows


def magma_closure(table, subset):
    """Oracle: close `subset` under every product of two members."""
    closed = set(subset)
    while True:
        new = {table[x][y] for x in closed for y in closed} - closed
        if not new:
            return closed
        closed |= new


def test_validate_accepts_what_the_full_scan_accepts():
    for name, table in validation_pool():
        labels = [str(i) for i in range(len(table))]
        expected = outcome(old_validate, labels, table)
        assert expected[0] == "ok", name
        assert outcome(core.validate, labels, table) == expected, name


def test_validate_names_the_full_scan_witness_on_corruptions():
    rng = random.Random(43)
    failing = 0
    for name, table in validation_pool():
        labels = [str(i) for i in range(len(table))]
        for rows in corruptions(table, rng, 4):
            expected = outcome(old_validate, labels, rows)
            failing += expected[0] == "NonAssociativeError"
            assert outcome(core.validate, labels, rows) == expected, name
    assert failing > 150


def test_validate_matches_full_scan_on_random_magmas():
    rng = random.Random(47)
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        labels = [f"e{i}" for i in range(n)]
        low, high = (0, n - 1) if rng.random() < 0.8 else (-1, n)
        rows = [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]
        gens = None
        if rng.random() < 0.3:
            gens = {f"g{k}": rng.randrange(n) for k in range(rng.randint(1, 2))}
        expected = outcome(old_validate, labels, rows, gens)
        kinds.add(expected[0])
        assert outcome(core.validate, labels, rows, gens) == expected, rows
    assert {"ok", "NonAssociativeError", "OutOfRangeError"} <= kinds


def magma_tables():
    """Semigroup tables, corrupted copies of some, and random magma tables."""
    rng = random.Random(53)
    tables = [table for _, table in validation_pool()]
    tables += [rows for table in tables[:20] for rows in corruptions(table, rng, 2)]
    tables += [
        [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        for n in (rng.randint(1, 7) for _ in range(100))
    ]
    return [tuple(map(tuple, table)) for table in tables]


def test_generating_set_generates_as_a_magma():
    for table in magma_tables():
        gens = core._generating_set(core.FiniteSemigroup(tuple(map(str, range(len(table)))), table))
        assert len(set(gens)) == len(gens)
        assert magma_closure(table, gens) == set(range(len(table)))


def test_small_generating_set_generates():
    for name, table in validation_pool():
        S = core.FiniteSemigroup(tuple(map(str, range(len(table)))), table)
        gens = core.small_generating_set(S)
        assert core.generated_subsemigroup(S, gens) == frozenset(range(len(S))), name
        assert old_generated_subsemigroup(S, gens) == frozenset(range(len(S))), name


def test_generated_subsemigroup_matches_old_closure():
    rng = random.Random(59)
    for name, table in validation_pool():
        S = core.FiniteSemigroup(tuple(map(str, range(len(table)))), table)
        for _ in range(3):
            subset = rng.sample(range(len(S)), rng.randint(1, min(3, len(S))))
            assert core.generated_subsemigroup(S, subset) == old_generated_subsemigroup(S, subset), name


def test_validate_accepts_a_1024_element_table():
    # 1024 elements: the full scan would make about 10^9 triple checks
    t4 = core.full_transformation_monoid(4)
    big = core.direct_product(core.direct_product(t4, core.u1()), core.u1())
    S = core.validate(big.elements, big.table)
    assert S.table == big.table and S.identity == big.identity


# --- isomorphism search as it was before core._extend_on_generators ------------

def old_extend_iso(S, T, seed):
    phi = dict(seed)
    frontier = list(phi)
    while frontier:
        new = []
        for a in list(phi):
            for b in frontier:
                for x, y in ((a, b), (b, a)):
                    xy = S.table[x][y]
                    im = T.table[phi[x]][phi[y]]
                    if xy in phi:
                        if phi[xy] != im:
                            return None
                    else:
                        phi[xy] = im
                        new.append(xy)
        frontier = new
    if len(phi) != len(S) or len(set(phi.values())) != len(S):
        return None
    for a in range(len(S)):
        row = S.table[a]
        pa = phi[a]
        for b in range(len(S)):
            if phi[row[b]] != T.table[pa][phi[b]]:
                return None
    return tuple(phi[i] for i in range(len(S)))


def old_is_isomorphic(S, T):
    cs, ct = core._wl_classes(S), core._wl_classes(T)
    if sorted(cs) != sorted(ct):
        return None
    gens = core.small_generating_set(S)
    candidates = [[t for t in range(len(T)) if ct[t] == cs[g]] for g in gens]
    for choice in itertools.product(*candidates):
        if len(set(choice)) != len(choice):
            continue
        phi = old_extend_iso(S, T, dict(zip(gens, choice)))
        if phi is not None:
            return phi
    return None


def relabel(S, perm):
    """S with element x renamed perm[x]."""
    inv = sorted(range(len(S)), key=perm.__getitem__)
    tab = tuple(tuple(perm[S.table[x][y]] for y in inv) for x in inv)
    return core.FiniteSemigroup(tuple(S.elements[x] for x in inv), tab)


def test_is_isomorphic_matches_the_all_pairs_check():
    rng = random.Random(67)
    pool = list(small_library().values())
    pool += [random_transformation_semigroup(rng, max_size=16, min_size=3) for _ in range(25)]
    found = missed = 0
    for S in pool:
        for _ in range(2):
            perm = list(range(len(S)))
            rng.shuffle(perm)
            T = relabel(S, perm)
            phi = core.is_isomorphic(S, T)
            assert phi is not None and phi == old_is_isomorphic(S, T)
            found += 1
    for S, T in itertools.combinations(pool, 2):
        if len(S) == len(T):
            phi = core.is_isomorphic(S, T)
            assert phi == old_is_isomorphic(S, T)
            missed += phi is None
    assert found == 2 * len(pool) and missed > 10


def test_wl_classes_stop_when_only_the_numbering_changes():
    # a 12-element transformation semigroup whose class numbering cycled
    # forever while the partition itself was stable
    table = [
        [1, 11, 11, 1, 2, 3, 3, 4, 4, 11, 11, 11],
        [11, 11, 11, 11, 11, 1, 1, 2, 2, 11, 11, 11],
        [1, 11, 11, 1, 2, 2, 11, 1, 11, 1, 2, 11],
        [11, 11, 11, 11, 11, 3, 3, 4, 4, 11, 11, 11],
        [3, 11, 11, 3, 4, 4, 11, 3, 11, 3, 4, 11],
        [9, 11, 11, 9, 10, 5, 6, 7, 8, 9, 10, 11],
        [11, 11, 11, 11, 11, 6, 6, 8, 8, 11, 11, 11],
        [6, 11, 11, 6, 8, 7, 9, 5, 10, 6, 8, 11],
        [6, 11, 11, 6, 8, 8, 11, 6, 11, 6, 8, 11],
        [11, 11, 11, 11, 11, 9, 9, 10, 10, 11, 11, 11],
        [9, 11, 11, 9, 10, 10, 11, 9, 11, 9, 10, 11],
        [11] * 12,
    ]
    S = core.validate(map(str, range(12)), table)
    assert core.is_isomorphic(S, S) == tuple(range(12))


def old_omega_tables(S):
    """core._omega_tables as it was, walking the power cycle of every element."""
    omega, minus_one = [], []
    for s in range(len(S)):
        seen, rep = core._cycle_of(S, s)
        powers = list(seen)  # powers[e - 1] = s^e
        tail = seen[rep]
        period = len(powers) + 1 - tail
        m = period * ((tail + period - 1) // period)
        q = m + period - 1
        if q > len(powers):
            q -= period
        omega.append(powers[m - 1])
        minus_one.append(powers[q - 1])
    return tuple(omega), tuple(minus_one)


def monogenic(index, period):
    """<a | a^(index + period) = a^index>, element e standing for a^e."""
    top = index + period - 1
    reduce = lambda e: e if e <= top else index + (e - index) % period
    return core.from_function(range(1, top + 1), lambda e, f: reduce(e + f))


def test_omega_tables_match_a_walk_from_every_element():
    rng = random.Random(310)
    cases = [random_transformation_semigroup(rng, max_size=150) for _ in range(30)]
    cases += [constructions.k_p(p) for p in (2, 3, 5, 7, 11)]
    cases += [monogenic(i, p) for i in range(1, 6) for p in range(1, 7)]
    cases += list(small_library().values())
    for S in cases:
        assert core._omega_tables(S) == old_omega_tables(S)


def test_omega_tables_skip_elements_an_earlier_walk_reached(monkeypatch):
    walk = core._cycle_of
    walked = []
    monkeypatch.setattr(core, "_cycle_of", lambda S, s: walked.append(s) or walk(S, s))
    core._omega_tables(core.cyclic_group(12))  # 1 generates, 0 is its own cycle
    assert walked == [0, 1]


def test_from_function_names_the_first_pair_that_leaves_the_values():
    # row-major: 0*0..0*2 and 1*0, 1*1 stay in {0, 1, 2}; 1*2 = 3 is the first to leave
    with pytest.raises(core.NotClosedError, match=r"^not closed: 1\*2 = 3 is not among the values$"):
        core.from_function(range(3), lambda a, b: a + b)
    with pytest.raises(core.NotClosedError, match=r"'b'\*'b' = 'bb'"):
        core.from_function(["a", "b"], lambda x, y: "a" if "a" in (x, y) else x + y)
    assert issubclass(core.NotClosedError, core.SemigroupError)


def test_from_function_passes_on_a_key_error_of_the_operation():
    # every product is a value, so the KeyError is the operation's own
    with pytest.raises(KeyError, match="missing"):
        core.from_function([0, 1], lambda a, b: {}["missing"] if (a, b) == (1, 1) else 0)


def test_subsemigroup_names_the_first_pair_that_escapes():
    z4 = core.cyclic_group(4)
    with pytest.raises(core.NotClosedError, match=r"^not closed: 1\*2 = 3 is not among the values$"):
        core.subsemigroup(z4, [2, 0, 1])
    with pytest.raises(core.NotClosedError, match=r"^not closed: 3\*3 = 2 "):
        core.subsemigroup(z4, [0, 3])
    assert core.subsemigroup(z4, [2, 0]).elements == ("0", "2")

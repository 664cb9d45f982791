"""Derived data kept on a FiniteSemigroup: columns, omega tables and Green
structure.

Each fast path is compared against the plain definition it replaced, on
random transformation semigroups built with a fixed seed.
"""

import json
import random

from eggbox import cli, constructions, core, green, hull
from conftest import random_transformation_semigroup, s3_table, small_library
from test_core import oracle_omega


def samples(seed, count, max_size=120):
    rng = random.Random(seed)
    return [random_transformation_semigroup(rng, max_size) for _ in range(count)]


# --- oracle: the ideal-based Green structure, as it was before caching ---------

def oracle_ideals(S):
    n = len(S)
    rng = range(n)
    right = [frozenset({s} | {S.table[s][x] for x in rng}) for s in rng]
    left = [frozenset({s} | {S.table[x][s] for x in rng}) for s in rng]
    two = []
    for s in rng:
        ideal = {s}
        ideal.update(S.table[s][x] for x in rng)
        ideal.update(S.table[x][s] for x in rng)
        for x in rng:
            xs = S.table[x][s]
            ideal.update(S.table[xs][y] for y in rng)
        two.append(frozenset(ideal))
    return right, left, two


def oracle_classify_by(ideals):
    ids = {}
    out = []
    for ideal in ideals:
        if ideal not in ids:
            ids[ideal] = len(ids)
        out.append(ids[ideal])
    return tuple(out)


def oracle_green_structure(S):
    n = len(S)
    right, left, two = oracle_ideals(S)
    r = oracle_classify_by(right)
    l = oracle_classify_by(left)
    j = oracle_classify_by(two)
    h = oracle_classify_by(list(zip(r, l)))

    n_j = max(j) + 1
    rep = [None] * n_j
    for x in range(n):
        if rep[j[x]] is None:
            rep[j[x]] = x
    order = frozenset(
        (a, b) for a in range(n_j) for b in range(n_j) if two[rep[a]] <= two[rep[b]]
    )
    minima = [c for c in range(n_j) if all((c, d) in order for d in range(n_j))]
    assert len(minima) == 1, "finite semigroup must have a unique minimum ideal"
    regular = [False] * n_j
    for e in S.idempotents():
        regular[j[e]] = True
    return green.GreenStructure(r, l, j, h, order, minima[0], tuple(regular))


def scan_completely_simple(S):
    """x(yx)^w = x for all x, y, with omega powers found by iteration."""
    n = len(S)
    return all(
        S.mul(x, oracle_omega(S, S.mul(y, x))) == x for x in range(n) for y in range(n)
    )


# --- differential tests --------------------------------------------------------

def test_green_structure_matches_ideal_oracle():
    library = list(small_library().values())
    kernels = [constructions.k_p(p) for p in (2, 3, 5, 7)]
    s3 = s3_table()  # the sandwich is not normalized: its first row and column are not all 0
    kernels.append(constructions.rees_matrix(2, s3, 3, [[1, 2], [3, 4], [5, 0]]))
    big = random_transformation_semigroup(random.Random(26), max_size=320, min_size=200)
    sizes = []
    for S in library + kernels + samples(21, 40) + [big]:
        assert green.green_structure(S) == oracle_green_structure(S)
        sizes.append(len(S))
    assert max(sizes) >= 200  # the sample reaches past desk scale


def test_is_completely_simple_matches_identity_scan():
    pool = list(small_library().values()) + samples(22, 30, max_size=60)
    rng = random.Random(25)
    for _ in range(5):
        a, b, G = rng.randint(1, 3), rng.randint(1, 3), core.cyclic_group(rng.randint(1, 4))
        P = [[rng.randrange(len(G)) for _ in range(a)] for _ in range(b)]
        pool.append(constructions.rees_matrix(a, G, b, P))
    seen = set()
    for S in pool:
        cs = scan_completely_simple(S)
        assert green.is_completely_simple(S) == cs
        seen.add(cs)
    assert seen == {True, False}


def test_omega_tables_match_oracle():
    for S in samples(23, 30):
        for s in range(len(S)):
            w = core.omega_power(S, s)
            m = core.omega_minus_one(S, s)
            assert w == oracle_omega(S, s)
            assert S.mul(s, m) == w == S.mul(m, s)
            assert S.mul(w, m) == m  # x^(w-1) lies in the group of x^w


# --- the transposed table: verbatim copies of the code that built it per caller

def old_generating_set(table):
    reach = [len(set(row)) + len(set(col)) for row, col in zip(table, zip(*table))]
    order = sorted(range(len(table)), key=lambda x: -reach[x])
    return core._closure(table, order)[0]


def old_opposite(S):
    tab = tuple(tuple(S.table[j][i] for j in range(len(S))) for i in range(len(S)))
    return core.FiniteSemigroup(S.elements, tab, S.generators)


def old_inner_bitranslation(S, s):
    return hull.Bitranslation(S.table[s], tuple(row[s] for row in S.table))


def old_letter_cancelative(S, gen_map):
    from eggbox.core import GeneratorsDoNotGenerateError, generated_subsemigroup

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


def columns_letter_cancelative(S, gen_map):
    """green.letter_cancelative as it was before the one-pass collision search,
    verbatim: every pair s < t for every letter."""
    from eggbox.core import GeneratorsDoNotGenerateError, generated_subsemigroup

    if generated_subsemigroup(S, gen_map.values()) != frozenset(range(len(S))):
        raise GeneratorsDoNotGenerateError("letter images must generate the semigroup")
    out = {"right": True, "left": True, "right_witness": None, "left_witness": None}
    n = len(S)
    for letter, a in gen_map.items():
        column, row = S.columns[a], S.table[a]  # s -> sa, s -> as
        for s in range(n):
            for t in range(s + 1, n):
                if out["right"] and column[s] == column[t]:
                    out["right"] = False
                    out["right_witness"] = (letter, s, t)
                if out["left"] and row[s] == row[t]:
                    out["left"] = False
                    out["left_witness"] = (letter, s, t)
    return out


def test_letter_cancelative_matches_the_all_pairs_scan():
    rng = random.Random(41)
    witnesses = set()
    for S in [random_transformation_semigroup(rng, 60) for _ in range(300)] + list(small_library().values()):
        letters = core.generating_set(S) + [rng.randrange(len(S)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(letters)
        gen_map = {f"g{i}": a for i, a in enumerate(letters)}
        got = green.letter_cancelative(S, gen_map)
        assert got == columns_letter_cancelative(S, gen_map), gen_map
        witnesses.update(w is None for w in (got["right_witness"], got["left_witness"]))
    assert witnesses == {True, False}


def old_wl_classes(S):
    n = len(S)
    sig = []
    for x in range(n):
        tail, period = core.cycle_index_period(S, x)
        sig.append((tail, period, S.is_idempotent(x)))
    ids = core._compress(sig)
    while True:
        new_sig = []
        for x in range(n):
            inter = sorted(
                (ids[y], ids[S.table[x][y]], ids[S.table[y][x]]) for y in range(n)
            )
            new_sig.append((ids[x], tuple(inter)))
        new_ids = core._compress(new_sig)
        if max(new_ids) == max(ids):
            return ids
        ids = new_ids


def column_cases():
    return (list(small_library().values()) + [constructions.k_p(p) for p in (2, 3, 5, 7)]
            + samples(27, 30))


def test_columns_are_the_transposed_table_built_once():
    built = column_cases() + [core.opposite(core.full_transformation_monoid(3)),
                              core.direct_product(core.u1(), constructions.k_p(3))]
    validated = [core.from_dict(core.to_dict(S)) for S in built]
    assert not any("columns" in S._derived for S in validated)  # validation reads only rows
    for S in built + validated:
        assert S.columns == tuple(zip(*S.table))
        assert S.columns is S.columns


def test_column_readers_match_the_per_caller_transposes():
    for S in column_cases():
        opp, old = core.opposite(S), old_opposite(S)
        assert (opp.elements, opp.table, opp.generators) == (old.elements, old.table, old.generators)
        for s in range(len(S)):
            assert hull.inner_bitranslation(S, s) == old_inner_bitranslation(S, s)
        gens = core.generating_set(S)
        for gen_map in ({f"g{i}": g for i, g in enumerate(gens)},
                        {str(x): x for x in reversed(range(len(S)))}):
            assert green.letter_cancelative(S, gen_map) == old_letter_cancelative(S, gen_map)
        if len(S) <= 40:
            assert core._wl_classes(S) == old_wl_classes(S)


def old_small_generating_set(S, gens):
    n = len(S)
    for g in list(gens):
        rest = [h for h in gens if h != g]
        if rest and core.generated_subsemigroup(S, rest) == frozenset(range(n)):
            gens = rest
    return gens


def test_generator_ranking_by_rows_matches_the_row_and_column_ranking():
    """Ranking candidates by |xS| alone picks the same generators as
    |xS| + |Sx| on the stock inputs; on random ones the greedy set may differ,
    but not the size of the small generating set."""
    t3 = core.full_transformation_monoid(3)
    t3u1cubed = t3
    for _ in range(3):
        t3u1cubed = core.direct_product(t3u1cubed, core.u1())
    z7 = core.cyclic_group(7)
    stock = list(small_library().values()) + [
        t3,
        core.full_transformation_monoid(4),
        core.direct_product(t3, core.u1()),
        t3u1cubed,
        constructions.rees_matrix(3, core.cyclic_group(3), 3, ((0, 0, 0), (0, 1, 2), (0, 2, 1))),
        constructions.synthesis(z7, z7, list(range(7))).carrier,
    ] + [constructions.k_p(p) for p in (2, 3, 5, 7, 61)]
    for S in stock:
        assert core.generating_set(S) == old_generating_set(S.table)
    changed = 0
    for S in samples(27, 30):
        old = old_generating_set(S.table)
        changed += core.generating_set(S) != old
        assert len(core.small_generating_set(S)) == len(old_small_generating_set(S, old))
    assert changed  # the samples do tell the rankings apart


# --- the cache itself ----------------------------------------------------------

def test_deriving_keeps_the_instance_layout():
    S = samples(24, 1)[0]
    keys = list(vars(S))
    core.omega_power(S, 0)
    green.green_structure(S)
    hull.kernel_representation(S)
    # the Cayley graphs' generators, the columns the right graph follows, and
    # the kernel read off the Green structure
    assert set(S._derived) == {"omega", "green", "gens", "columns", "kernel"}
    core.small_generating_set(S)
    assert set(S._derived) == {"omega", "green", "gens", "columns", "kernel"}
    assert list(vars(S)) == keys


def test_derived_data_is_computed_once(monkeypatch):
    calls = []
    real = green._green_structure
    monkeypatch.setattr(green, "_green_structure", lambda S: calls.append(S) or real(S))
    S = core.full_transformation_monoid(2)
    assert green.green_structure(S) is green.green_structure(S)
    green.kernel(S)
    green.is_completely_simple(S)
    assert calls == [S]
    # an equal but distinct instance keeps its own copy
    T = core.full_transformation_monoid(2)
    green.green_structure(T)
    assert len(calls) == 2


def test_analyze_finds_the_kernel_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = green._kernel
    monkeypatch.setattr(green, "_kernel", lambda S: calls.append(len(S)) or real(S))
    S = core.full_transformation_monoid(3)
    assert green.kernel(S) is green.kernel(S)
    assert calls == [27]
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(core.to_dict(S)))
    calls.clear()
    # analyze asks twice: for the report's kernel size and in hull.classify
    assert cli.main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert calls == [27]


def test_analyze_builds_green_structure_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = green._green_structure
    monkeypatch.setattr(green, "_green_structure", lambda S: calls.append(len(S)) or real(S))
    for S in (constructions.k_p(2), core.direct_product(core.u1(), core.cyclic_group(2))):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(core.to_dict(S)))
        calls.clear()
        assert cli.main(["analyze", str(path)]) == 0
        capsys.readouterr()
        assert calls == [len(S)]


def test_hull_builds_the_generating_set_once_per_table(tmp_path, capsys, monkeypatch):
    calls = []
    real = core._generating_set
    monkeypatch.setattr(core, "_generating_set", lambda S: calls.append(S) or real(S))
    S = core.full_transformation_monoid(2)
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(core.to_dict(S)))
    assert cli.main(["hull", str(path)]) == 0
    capsys.readouterr()
    # validate's set is kept for S; the right translations need opposite(S)
    assert calls == [S, core.opposite(S)]
    T = core.validate(S.elements, S.table)
    assert core.generating_set(T) is core.generating_set(T)
    core.small_generating_set(T)
    assert len(calls) == 3

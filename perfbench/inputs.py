"""Seeded inputs and job lists for the eggbox benchmark.

Inputs are built here in plain Python, not through the eggbox library, so a
change to the library cannot move work into the benchmark's set-up or change
what the CLI is given. Every random part is drawn from the run's seed; the
seeded inputs are chosen so that every seed costs about the same work and has
an answer the benchmark knows (see `expected_witness`).
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# A 205-element transformation semigroup on 5 points, found once by a seeded
# search for 2-3 random generators whose closure has 150-250 elements. The run
# seed conjugates it by a random point permutation and shuffles its element
# order, so the job sees a random presentation of a semigroup of fixed size
# and isomorphism type: `classify` answers the same for every seed.
RANDOM_TS_DEGREE = 5
RANDOM_TS_GENERATORS = ((3, 2, 2, 4, 2), (3, 0, 2, 0, 3), (1, 1, 3, 2, 4))

REES_SANDWICH = ((0, 0, 0), (0, 1, 2), (0, 2, 1))  # 3x3, normalized, over Z3
CRH_LETTERS = "abcdefgh"
CRH_LENGTH = 5000
CRH_DOUBLINGS = 200


def _semigroup(labels, table, identity=None) -> dict:
    obj = {"elements": list(labels), "table": [list(row) for row in table]}
    if identity is not None:
        obj["identity"] = identity
    return obj


def _from_function(values, op, labels=None) -> dict:
    vals = list(values)
    pos = {v: i for i, v in enumerate(vals)}
    table = [[pos[op(x, y)] for y in vals] for x in vals]
    n = len(vals)
    identity = next(
        (e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))), None
    )
    return _semigroup(labels or [str(v) for v in vals], table, identity)


def transformation_monoid(n: int) -> dict:
    """T_n: all self-maps of {0..n-1} under f*g = f o g, labelled by image."""
    maps = list(itertools.product(range(n), repeat=n))
    return _from_function(
        maps, lambda f, g: tuple(f[g[x]] for x in range(n)), ["".join(map(str, m)) for m in maps]
    )


def cyclic_group(n: int) -> dict:
    return _from_function(range(n), lambda a, b: (a + b) % n)


def u1() -> dict:
    return _from_function([0, 1], min)


def direct_product(s: dict, t: dict) -> dict:
    ns, nt = len(s["elements"]), len(t["elements"])
    pairs = [(i, j) for i in range(ns) for j in range(nt)]
    table = [
        [(s["table"][i][x]) * nt + t["table"][j][y] for (x, y) in pairs] for (i, j) in pairs
    ]
    labels = [f"({s['elements'][i]},{t['elements'][j]})" for (i, j) in pairs]
    identity = None
    if s.get("identity") is not None and t.get("identity") is not None:
        identity = s["identity"] * nt + t["identity"]
    return _semigroup(labels, table, identity)


def rees_matrix(a_size: int, group: dict, b_size: int, sandwich) -> dict:
    """M(A, G, B; P), elements ordered by (a, g, b) as labelled triples."""
    gt = group["table"]
    ng = len(gt)
    triples = [(a, g, b) for a in range(a_size) for g in range(ng) for b in range(b_size)]

    def idx(a, g, b):
        return (a * ng + g) * b_size + b

    table = [
        [idx(a, gt[gt[g][sandwich[b][a2]]][g2], b2) for (a2, g2, b2) in triples]
        for (a, g, b) in triples
    ]
    labels = [f"({a},{group['elements'][g]},{b})" for (a, g, b) in triples]
    return _semigroup(labels, table)


def rees_json(a_size: int, group: dict, b_size: int, sandwich) -> dict:
    return {"a": a_size, "b": b_size, "group": group, "sandwich": [list(r) for r in sandwich]}


def k_p(p: int) -> dict:
    return rees_matrix(2, cyclic_group(p), 2, ((0, 0), (0, 1)))


def random_transformation_semigroup(rng: random.Random) -> dict:
    n = RANDOM_TS_DEGREE
    sigma = list(range(n))
    rng.shuffle(sigma)
    inv = [0] * n
    for x, y in enumerate(sigma):
        inv[y] = x
    gens = [tuple(sigma[g[inv[x]]] for x in range(n)) for g in RANDOM_TS_GENERATORS]
    seen = dict.fromkeys(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = tuple(f[g[x]] for x in range(n))
                if h not in seen:
                    seen[h] = None
                    nxt.append(h)
        frontier = nxt
    elems = list(seen)
    rng.shuffle(elems)
    return _from_function(
        elems, lambda f, g: tuple(f[g[x]] for x in range(n)), ["".join(map(str, m)) for m in elems]
    )


def corrupt(obj: dict, rng: random.Random) -> tuple[dict, tuple[int, int, int]]:
    """A copy of obj with one table entry changed, and the first failing triple."""
    table = [list(row) for row in obj["table"]]
    n = len(table)
    while True:
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if c != table[a][b]:
            table[a][b] = c
            witness = expected_witness(table, a, b)
            if witness is not None:
                break
            table[a][b] = obj["table"][a][b]
    bad = dict(obj, table=table)
    bad.pop("identity", None)
    return bad, witness


def expected_witness(table, a: int, b: int):
    """Lexicographically first (i,j,k) with (ij)k != i(jk), given that only
    entry (a, b) breaks an otherwise associative table.

    A triple can fail only if one of its four products reads entry (a, b):
    (i,j) = (a,b), (j,k) = (a,b), (ij,k) = (a,b) or (i,jk) = (a,b).
    """
    n = len(table)
    cands = set()
    for x in range(n):
        cands.add((a, b, x))
        cands.add((x, a, b))
        for y in range(n):
            if table[x][y] == a:
                cands.add((x, y, b))
            if table[x][y] == b:
                cands.add((a, x, y))
    fails = [
        (i, j, k) for (i, j, k) in cands if table[table[i][j]][k] != table[i][table[j][k]]
    ]
    return min(fails) if fails else None


def crh_words(rng: random.Random) -> tuple[str, str, str]:
    """Two random words u, w and a word u' equal to u in every band.

    u' doubles letters of u at random positions (xx = x in bands), so
    `check crh u u' --h trivial` is "equal"; w is checked against itself with
    `--h groups`, because over all groups two plain words are equal only when
    they are identical.
    """
    u = [rng.choice(CRH_LETTERS) for _ in range(CRH_LENGTH)]
    doubled = set(rng.sample(range(CRH_LENGTH), CRH_DOUBLINGS))
    u2 = "".join(ch * (2 if i in doubled else 1) for i, ch in enumerate(u))
    w = "".join(rng.choice(CRH_LETTERS) for _ in range(CRH_LENGTH))
    return "".join(u), u2, w


SCAN_3VAR = ("(x y^w z)^(w+1) (x y^w z)^(w-1)", "(x y^w z)^w")
SCAN_EARLY = ("x^w y x^w z x^w", "x^w z x^w y x^w")
SCAN_2VAR = ("(xy)^w (xy)^w", "(xy)^w")


def _job(name: str, argv: list[str]) -> dict:
    return {"name": name, "argv": argv}


def generate(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the inputs of `workload` for `seed` into `out` and return its jobs.

    Paths in the jobs are relative to `out`, which is the jobs' working
    directory, so their output does not depend on where the run happens.
    """
    rng = random.Random(f"eggbox-bench/{workload}/{seed}")
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, obj) -> str:
        (out / name).write_text(json.dumps(obj))
        return name

    z3 = cyclic_group(3)
    if workload == "orderability":
        t3 = write("t3.json", transformation_monoid(3))
        k7 = write("k7.json", k_p(7))
        rees = write("rees33z3.json", rees_matrix(3, z3, 3, REES_SANDWICH))
        return [
            _job("analyze-t3", ["analyze", t3]),
            _job("analyze-k7", ["analyze", k7]),
            _job("orders-rees33z3", ["orders", rees, "--limit", "20"]),
        ]
    if workload == "structure-large":
        t4_obj = transformation_monoid(4)
        t3u1cubed = transformation_monoid(3)
        for _ in range(3):
            t3u1cubed = direct_product(t3u1cubed, u1())
        bad, witness = corrupt(t4_obj, rng)
        t4 = write("t4.json", t4_obj)
        big = write("t3u1u1u1.json", t3u1cubed)
        z7 = write("z7.json", cyclic_group(7))
        f = write("f.json", {str(i): str(i) for i in range(7)})
        rees = write("rees33z3-rees.json", rees_json(3, z3, 3, REES_SANDWICH))
        rts = write("rts.json", random_transformation_semigroup(rng))
        t4bad = write("t4-bad.json", bad)
        return [
            _job("analyze-t3u1u1u1", ["analyze", big]),
            _job("classify-t4", ["classify", t4]),
            _job("construct-synthesis-z7", ["construct", "synthesis", z7, z7, f]),
            _job("hull-rees33z3", ["hull", "--rees", rees]),
            _job("classify-random-ts", ["classify", rts]),
            dict(_job("classify-t4-bad", ["classify", t4bad]), witness=list(witness)),
        ]
    if workload == "identity-scans":
        t3u1 = write("t3u1.json", direct_product(transformation_monoid(3), u1()))
        t4 = write("t4.json", transformation_monoid(4))
        u, u2, w = crh_words(rng)
        return [
            _job("id-3var-serial", ["check", "id", t3u1, *SCAN_3VAR]),
            _job("id-3var-jobs2", ["--jobs", "2", "check", "id", t3u1, *SCAN_3VAR]),
            _job("id-2var-t4", ["check", "id", t4, *SCAN_2VAR]),
            _job("id-early-witness", ["check", "id", t3u1, *SCAN_EARLY]),
            _job("pv-t4-a", ["check", "pv", t4, "A"]),
            _job("crh-trivial", ["check", "crh", u, u2, "--h", "trivial"]),
            _job("crh-groups", ["check", "crh", w, w, "--h", "groups"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("orderability", "structure-large", "identity-scans")

"""The record types built by `core.record` behave as the dataclasses they
replaced, and the CLI starts without importing `dataclasses` or `inspect`.

tests/record_oracles.py keeps the old `@dataclass` classes verbatim. Every
test below builds the same seeded constructor calls once from eggbox's
classes and once from the oracles and compares what each side does.
"""

import dataclasses
import gc
import pickle
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import eggbox
import record_oracles as oracle
from eggbox import constructions, core, green, hull, order, terms, words

NAMES = (
    "FiniteSemigroup", "GreenStructure", "ReesMatrixSemigroup", "SynthesisSemigroup",
    "Bitranslation", "KernelRepresentation", "OrderedSemigroup", "Dfa", "Word",
    "Factorization", "OmegaExp", "Letter", "Concat", "Power", "GroupSpec",
)
MODULES = (core, green, constructions, hull, order, words, terms)
RECORDS = SimpleNamespace(
    **{name: getattr(next(m for m in MODULES if hasattr(m, name)), name) for name in NAMES}
)


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    src = Path(eggbox.__file__).resolve().parent.parent
    code = (
        "import eggbox.cli, sys; "
        "bad = sorted({'dataclasses', 'inspect'} & set(sys.modules)); "
        "sys.exit(f'loaded {bad}' if bad else 0)"
    )
    # -S: without site, whatever the environment's .pth files import
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr


def calls(ns, rng):
    """Seeded constructor calls (name, args, kwargs) of every record type,
    several per type over small value ranges so equal values recur. Nested
    records are built from `ns`; given one seed, `ns = RECORDS` and
    `ns = oracle` get the same calls. Fields are passed by position or by
    name at random, and a defaulted trailing field is sometimes left out."""

    def ints(k=3, size=None):
        return tuple(rng.randrange(k) for _ in range(size or rng.randint(1, 3)))

    def semigroup_fields():
        S = core.cyclic_group(rng.randint(1, 2))
        gens = {"x": S.table[0][0]} if rng.random() < 0.5 else None
        return [S.elements, S.table, gens, S.identity]

    def semigroup():
        return ns.FiniteSemigroup(*semigroup_fields())

    def word():
        return ns.Word(tuple(rng.choice("ab") for _ in range(rng.randint(0, 2))))

    def atom(depth):  # a letter or a power, never a Concat
        if depth >= 2 or rng.random() < 0.5:
            return ns.Letter(rng.choice("xy"))
        return ns.Power(term(depth + 1), rng.choice([1, 2, ns.OmegaExp(rng.randint(-1, 1))]))

    def term(depth):
        if depth < 2 and rng.random() < 0.4:
            return ns.Concat((atom(depth + 1), atom(depth + 1)))
        return atom(depth)

    values = {
        "FiniteSemigroup": semigroup_fields,
        "GreenStructure": lambda: [ints(2, 1), ints(2, 1), (0,), (0,),
                                   frozenset({(0, rng.randrange(2))}), 0, (rng.random() < 0.5,)],
        "ReesMatrixSemigroup": lambda: [1, rng.randint(1, 2), semigroup(), (ints(2, 1),)],
        "SynthesisSemigroup": lambda: [semigroup(), semigroup(), ints(2, 1), semigroup(),
                                       semigroup(), semigroup()],
        "Bitranslation": lambda: [ints(2, 2), ints(2, 2)],
        "KernelRepresentation": lambda: [ints(2, 1), (ints(2, 1),), (ints(2, 1),)],
        "OrderedSemigroup": lambda: [semigroup(), frozenset({(0, 0), (rng.randrange(2), 0)})],
        "Dfa": lambda: [("p", "q"), ("a",), {("p", "a"): rng.choice("pq")}, "p",
                        frozenset(rng.choice(["", "p", "pq"]))],
        "Word": lambda: [tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))],
        "Factorization": lambda: [word(), rng.choice("ab"), word()],
        "OmegaExp": lambda: [rng.randint(-1, 1)],
        "Letter": lambda: [rng.choice("xy")],
        "Concat": lambda: [(atom(1), atom(1))],
        "Power": lambda: [term(1), rng.choice([1, 2, ns.OmegaExp(0)])],
        "GroupSpec": lambda: rng.choice([["trivial"], ["groups"], ["abelian", rng.randint(2, 3)]]),
    }
    out = []
    for name in NAMES:
        fields = [f for f in dataclasses.fields(getattr(oracle, name)) if f.init]
        for _ in range(5):
            vals = values[name]()
            while vals and vals[-1] == fields[len(vals) - 1].default and rng.random() < 0.5:
                vals.pop()
            k = rng.randint(0, len(vals))
            out.append((name, tuple(vals[:k]), {f.name: v for f, v in zip(fields[k:], vals[k:])}))
    return out


def build(ns, seed):
    return [getattr(ns, name)(*args, **kwargs) for name, args, kwargs in calls(ns, random.Random(seed))]


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


SEEDS = range(25)


@pytest.mark.parametrize("seed", SEEDS)
def test_records_match_the_dataclasses(seed):
    ours, theirs = build(RECORDS, seed), build(oracle, seed)
    assert [type(x).__name__ for x in ours] == [type(x).__name__ for x in theirs]
    for x, o in zip(ours, theirs):
        # attribute values kept where the dataclass keeps them (inline, on
        # CPython 3.11+): checked before vars() moves them into a dict
        assert [type(r).__name__ for r in gc.get_referents(x)] == [
            type(r).__name__ for r in gc.get_referents(o)
        ]
        assert repr(x) == repr(o)
        assert list(vars(x)) == list(vars(o))
        assert hash_or_error(x) == hash_or_error(o)
        assert x != object() and o != object()
        assert pickle.loads(pickle.dumps(x)) == x
    for i, (x, o) in enumerate(zip(ours, theirs)):
        for y, p in zip(ours[i:], theirs[i:]):
            if type(x) is type(y):
                assert (x == y, x != y) == (o == p, o != p)


def test_bitranslations_order_as_the_dataclass():
    rng = random.Random(3)
    pairs = [(tuple(rng.randrange(3) for _ in range(2)), tuple(rng.randrange(3) for _ in range(2)))
             for _ in range(60)]
    ours = [RECORDS.Bitranslation(*p) for p in pairs]
    theirs = [oracle.Bitranslation(*p) for p in pairs]
    fields = lambda bts: [(b.lam, b.rho) for b in bts]
    assert fields(sorted(ours)) == fields(sorted(theirs))
    for x, o in zip(ours, theirs):
        for y, p in zip(ours, theirs):
            assert (x < y, x <= y, x > y, x >= y) == (o < p, o <= p, o > p, o >= p)
    with pytest.raises(TypeError):
        ours[0] < pairs[0]


def test_equal_records_of_different_types_differ():
    assert RECORDS.Letter("x") != oracle.Letter("x")
    assert RECORDS.OmegaExp(0) != RECORDS.Letter(0)


BAD_CALLS = [
    ("OmegaExp", (-2,), {}),
    ("Concat", (("x",),), {}),
    ("Power", ("x", 0), {}),
    ("GroupSpec", ("bogus",), {}),
    ("GroupSpec", ("abelian",), {}),
    ("GroupSpec", ("abelian", 1), {}),
    ("GroupSpec", ("groups", 3), {}),
    ("GroupSpec", (), {"n": 3}),
    ("Letter", (), {}),
    ("Letter", ("a", "b"), {}),
    ("Letter", ("a",), {"ch": "b"}),
    ("Letter", (), {"c": "a"}),
    ("Word", ((), ()), {}),
    ("FiniteSemigroup", (("e",), ((0,),)), {"_derived": {}}),
    ("Bitranslation", ((0,),), {}),
]


@pytest.mark.parametrize("name,args,kwargs", BAD_CALLS)
def test_bad_construction_raises_as_the_dataclass(name, args, kwargs):
    with pytest.raises(Exception) as theirs:
        getattr(oracle, name)(*args, **kwargs)
    with pytest.raises(theirs.type) as ours:
        getattr(RECORDS, name)(*args, **kwargs)
    if theirs.type is ValueError:
        assert str(ours.value) == str(theirs.value)


def test_nested_concat_is_refused():
    inner = RECORDS.Concat((RECORDS.Letter("x"), RECORDS.Letter("y")))
    with pytest.raises(ValueError, match="no nesting"):
        RECORDS.Concat((inner, RECORDS.Letter("z")))


@pytest.mark.parametrize("seed", range(3))
def test_records_refuse_assignment(seed):
    for x in build(RECORDS, seed):
        name = next(iter(vars(x)))
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert "extra" not in vars(x)


def test_defaults_and_keywords():
    assert RECORDS.Word() == RECORDS.Word(letters=()) == RECORDS.Word(())
    assert RECORDS.OmegaExp() == RECORDS.OmegaExp(k=0)
    assert RECORDS.GroupSpec(kind="abelian", n=4) == RECORDS.GroupSpec("abelian", 4)
    S = RECORDS.FiniteSemigroup(table=((0,),), elements=("e",))
    assert (S.generators, S.identity, S._derived) == (None, None, {})
    assert list(vars(S)) == ["elements", "table", "generators", "identity", "_derived"]
    assert RECORDS.FiniteSemigroup(("e",), ((0,),))._derived is not S._derived
    assert RECORDS.Bitranslation.__match_args__ == ("lam", "rho")

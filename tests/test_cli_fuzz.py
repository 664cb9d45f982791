"""Seeded fuzzing of `cli.main` in-process: mutated semigroup, Rees and DFA
JSON, terms and words, with options moved among the positionals and now and
then a positional missing or repeated. Every call must end in exit 0, 1 or 2;
malformed input is an exit 2 with a one-line message, never an exception out
of `main`."""

import json
import random

from eggbox import cli, constructions, core, green

SEMIGROUPS = [
    core.to_dict(S)
    for S in (core.u1(), core.cyclic_group(3), core.rectangular_band(2, 2),
              core.full_transformation_monoid(2), constructions.k_p(2))
]
ORDERED = core.to_dict(core.u1(), order=[(0, 0), (0, 1), (1, 1)])
SEMIGROUP_COMMANDS = [["analyze", "{}", "--pv", "B,G"], ["classify", "{}"], ["hull", "{}"],
                      ["orderable", "{}"], ["orders", "{}", "--limit", "3"], ["construct", "adjoin", "{}"]]
REES = green.rees_to_dict(constructions.kp_rees(2))
DFA = {"states": ["p", "q"], "alphabet": ["a", "b"], "transitions": {"p,a": "q", "q,b": "p"},
       "initial": "p", "accepting": ["q"]}
TERMS = ["xy", "yx", "(xy)^w", "x^w y x^(w-1)", "(xyz)^w", "x^2", "xyx", "x^(w+1)"]
WORDS = ["abcab", "aab", "[ab]c", "abab", "a", "ba"]
JUNK = [-1, 0, 1, 2, 7, 10**6, 1.5, True, None, "", "a", "p,a", [], {}, [[0]], {"a": 1}]
DEPTHS = [2, 400, 990, 3000, 100_000]
DEEP = "\u0000deep\u0000"  # a placeholder string replaced by a deeply nested list


def deep_list(rng) -> str:
    depth = rng.choice(DEPTHS)
    return "[" * depth + rng.choice(["", "0", '"a"']) + "]" * depth


def mutate_json(rng, doc) -> str:
    """The JSON text of `doc` with one node replaced, deleted, repeated or
    nested deeply, or the text itself cut, spliced or wrapped deeply."""
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    while isinstance(node, (list, dict)) and node and (parent is None or rng.random() < 0.6):
        parent, key = node, rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        node = node[key]
    op = rng.randrange(7)
    if op == 0 and parent is not None:
        parent[key] = rng.choice(JUNK)
    elif op == 1 and parent is not None:
        del parent[key]
    elif op == 2 and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(node)))
    elif op == 3 and parent is not None:
        parent[key] = DEEP
    text = json.dumps(doc).replace(json.dumps(DEEP), deep_list(rng))
    if op == 4:
        text = text[: rng.randrange(len(text))]
    elif op == 5:
        i = rng.randrange(len(text))
        text = text[:i] + rng.choice('[]{},:"0123456789-.etrufalsn ') + text[i + 1:]
    elif op == 6:
        depth = rng.choice(DEPTHS)
        text = "[" * depth + text + "]" * depth
    return text


def mutate_text(rng, text: str, alphabet: str, wrap: str) -> str:
    """`text` with a character inserted, deleted or repeated, a part doubled,
    or the whole wrapped in `wrap` (a pair of characters) many times."""
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(5)
    if op == 0:
        return text[:i] + rng.choice(alphabet) + text[i:]
    if op == 1:
        return text[:i] + text[i + 1:]
    if op == 2:
        return text[:i] + text[i:i + 1] * rng.randint(2, 40) + text[i:]
    if op == 3:
        return text[:i] * 2 + text[i:]
    depth = rng.choice(DEPTHS[:4])
    return wrap[0] * depth + text + wrap[1] * depth


def leaf_argv(rng, leaf, positionals, options=()):
    """`leaf` then the positionals, with each option (a list: the flag and its value) at a
    random place among them; in one case of five a positional is dropped or repeated."""
    items = [[arg] for arg in positionals]
    if rng.random() < 0.2:
        i = rng.randrange(len(items))
        items[i:i + 1] = rng.choice([[], [items[i]] * 2])
    for option in options:
        items.insert(rng.randrange(len(items) + 1), option)
    return leaf + [arg for item in items for arg in item]


def cases(rng, tmp_path):
    """300 argument lists, each reading one mutated input."""
    for k in range(300):
        path = tmp_path / f"in{k}.json"
        kind = k % 10
        if kind < 4:
            path.write_text(mutate_json(rng, rng.choice(SEMIGROUPS)))
            yield [arg.format(path) for arg in rng.choice(SEMIGROUP_COMMANDS)]
        elif kind == 4:
            path.write_text(mutate_json(rng, ORDERED))
            yield ["check", "ineq", str(path), "xy", "y"]
        elif kind == 5:
            if rng.random() < 0.5:
                path.write_text(mutate_json(rng, REES))
                yield ["hull", "--rees", str(path)]
            else:
                sandwich = mutate_json(rng, REES["sandwich"])
                yield ["construct", "rees", "--group", "z:2", "--sandwich", sandwich]
        elif kind == 6:
            path.write_text(mutate_json(rng, DFA))
            yield ["syntactic", str(path)] + rng.choice([[], ["--concat-letter", "a"]])
        elif kind == 7:
            path.write_text(json.dumps(rng.choice(SEMIGROUPS)))
            sides = [mutate_text(rng, rng.choice(TERMS), "xyz()^w-+12 ", "()"), rng.choice(TERMS)]
            rng.shuffle(sides)
            yield leaf_argv(rng, ["check", "id"], [str(path), *sides])
        elif kind == 8:
            u, v = (mutate_text(rng, rng.choice(WORDS), "abc[] ", "[]") for _ in range(2))
            h = rng.choice(["trivial", "ab:2", "ab:0", "groups", "z:2"])
            yield leaf_argv(rng, ["check", "crh"], [u, v], [["--h", h]])
        else:
            w = mutate_text(rng, rng.choice(WORDS), "abc[] ", "[]")
            yield leaf_argv(rng, *rng.choice([
                (["words", rng.choice(["content", "lbf", "rbf", "zero", "one", "chi"])], [w]),
                (["words", "debruijn"], [rng.choice(["0", "1", "2", "-1", "x"]), w]),
                (["words", "stretch"], [w, rng.choice(WORDS) + "bb"], [["--avoid", rng.choice(WORDS)]]),
                (["words", "connect"], [w, rng.choice(["a", "b", "[ab]", ""]), rng.choice(["a", "c", ""])]),
                (["words", "subword"], [w, rng.choice(WORDS)]),
            ]))


def test_cli_exits_0_1_or_2_on_mutated_input(tmp_path, capsys):
    exits, usage_errors = [], 0
    for seed in (0, 3):  # each seed reaches argparse usage errors: a positional missing or repeated
        for argv in cases(random.Random(seed), tmp_path):
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), argv
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
                usage_errors += err.startswith("error: eggbox")
            exits.append(code)
    assert len(exits) == 600 and {0, 1, 2} <= set(exits) and usage_errors

import itertools
import json
import subprocess
import sys

import pytest

from eggbox import cli, core, order, terms
from conftest import full_transformation_dfa


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_semigroup(tmp_path, name, S, order_pairs=None):
    path = tmp_path / name
    path.write_text(json.dumps(core.to_dict(S, order=order_pairs)))
    return str(path)


def test_analyze_k2(tmp_path, capsys, k2):
    path = write_semigroup(tmp_path, "k2.json", k2)
    code, out, _ = run(capsys, ["--format", "json", "analyze", path])
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["ggm"] is True
    assert report["orderable"] is False
    assert report["green"]["kernel_size"] == 8
    assert report["rees"] == {"a": 2, "b": 2, "group_order": 2}


def test_analyze_u1(tmp_path, capsys, u1):
    path = write_semigroup(tmp_path, "u1.json", u1)
    code, out, _ = run(capsys, ["--format", "json", "analyze", path, "--pv", "Sl,B,G"])
    report = json.loads(out)
    assert code == 0
    assert report["green"]["kernel_size"] == 1
    assert report["classification"]["wggm"] is False
    assert report["pseudovarieties"] == {"Sl": True, "B": True, "G": False}


def test_analyze_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["analyze", str(bad)])
    assert code == 2
    assert "error" in err


def test_analyze_is_deterministic(tmp_path, capsys, k2):
    path = write_semigroup(tmp_path, "k2.json", k2)
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, ["--format", "json", "analyze", path])
        outs.add(out)
    assert len(outs) == 1


def test_construct_kp_pipe_analyze(capsys, monkeypatch):
    code, out, _ = run(capsys, ["construct", "kp", "2"])
    assert code == 0
    code, out2, _ = run(capsys, ["--format", "json", "analyze", "-"], stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out2)["classification"]["ggm"] is True


def test_construct_kp_not_prime(capsys):
    code, _, err = run(capsys, ["construct", "kp", "4"])
    assert code == 2 and "prime" in err


def test_construct_rees_band(capsys):
    code, out, _ = run(capsys, ["construct", "rees", "--a", "2", "--b", "2", "--group", "trivial"])
    assert code == 0
    S = core.from_dict(json.loads(out))
    assert len(S) == 4
    assert core.is_isomorphic(S, core.rectangular_band(2, 2)) is not None


def test_construct_product_and_adjoin(tmp_path, capsys, z2, z3):
    p2 = write_semigroup(tmp_path, "z2.json", z2)
    p3 = write_semigroup(tmp_path, "z3.json", z3)
    code, out, _ = run(capsys, ["construct", "product", p2, p3])
    assert code == 0
    assert len(core.from_dict(json.loads(out))) == 6
    code, out, _ = run(capsys, ["construct", "adjoin", p2])
    assert len(core.from_dict(json.loads(out))) == 2  # already a monoid
    code, out, _ = run(capsys, ["construct", "adjoin", p2, "--fresh"])
    assert len(core.from_dict(json.loads(out))) == 3


def test_construct_synthesis(tmp_path, capsys, z2):
    p = write_semigroup(tmp_path, "z2.json", z2)
    fmap = tmp_path / "f.json"
    fmap.write_text(json.dumps({"0": "0", "1": "1"}))
    code, out, _ = run(capsys, ["construct", "synthesis", p, p, str(fmap)])
    assert code == 0
    assert len(core.from_dict(json.loads(out))) == 10


def test_construct_semidirect(tmp_path, capsys, z3, z2):
    p3 = write_semigroup(tmp_path, "z3.json", z3)
    p2 = write_semigroup(tmp_path, "z2.json", z2)
    act = tmp_path / "act.json"
    act.write_text(json.dumps({"0": ["0", "1", "2"], "1": ["0", "2", "1"]}))
    code, out, _ = run(capsys, ["construct", "semidirect", p3, p2, str(act)])
    assert code == 0
    S = core.from_dict(json.loads(out))
    assert len(S) == 6 and S.identity is not None


def test_check_id(tmp_path, capsys, u1, z2):
    pu = write_semigroup(tmp_path, "u1.json", u1)
    pz = write_semigroup(tmp_path, "z2.json", z2)
    assert run(capsys, ["check", "id", pu, "x^2", "x"])[0] == 0
    code, out, _ = run(capsys, ["check", "id", pz, "x^2", "x"])
    assert code == 1
    assert json.loads(out)["witness"] == {"x": 1}


def test_check_ineq(tmp_path, capsys, u1):
    path = write_semigroup(tmp_path, "u1o.json", u1, order_pairs=[(0, 1)])
    assert run(capsys, ["check", "ineq", path, "xy", "y"])[0] == 0
    code, out, _ = run(capsys, ["check", "ineq", path, "y", "xy"])
    assert code == 1
    bare = write_semigroup(tmp_path, "u1.json", u1)
    assert run(capsys, ["check", "ineq", bare, "xy", "y"])[0] == 2


def test_check_pv(tmp_path, capsys, k2):
    path = write_semigroup(tmp_path, "k2.json", k2)
    assert run(capsys, ["check", "pv", path, "CS"])[0] == 0
    code, out, _ = run(capsys, ["check", "pv", path, "G"])
    assert code == 1 and json.loads(out)["member"] is False
    assert run(capsys, ["check", "pv", path, "Bogus"])[0] == 2


def test_check_crh(capsys):
    assert run(capsys, ["check", "crh", "aab", "ab", "--h", "trivial"])[0] == 0
    code, out, _ = run(capsys, ["check", "crh", "ab", "ba", "--h", "trivial"])
    assert code == 1
    assert json.loads(out)["failed_condition"] == "zero"
    assert run(capsys, ["check", "crh", "aaa", "a", "--h", "ab:2"])[0] == 0
    assert run(capsys, ["check", "crh", "aaa", "a", "--h", "groups"])[0] == 1


def test_check_crh_bounds_the_distinct_letters(capsys):
    many = "".join(chr(0x4E00 + i) for i in range(1200))
    for u, v in [(many, many), ("ab", many)]:
        code, out, err = run(capsys, ["check", "crh", u, v])
        assert (code, out) == (2, "")
        assert err == f"error: check crh word has 1200 distinct letters, over the bound {cli.MAX_CRH_LETTERS}\n"
    at_bound = "".join(chr(0x4E00 + i) for i in range(cli.MAX_CRH_LETTERS))
    assert run(capsys, ["check", "crh", at_bound, at_bound * 2])[0] == 0


def test_check_vdn(tmp_path, capsys, z2):
    path = write_semigroup(tmp_path, "z2.json", z2)
    code, out, _ = run(capsys, ["check", "vdn", "(ab)^w", "(ab)^w ab", "--n", "1", "--in", path])
    assert code == 1
    obj = json.loads(out)
    assert obj["i_t_equal"] is True and obj["encoded_identity_holds"] is False
    code, _, _ = run(capsys, ["check", "vdn", "(ab)^w", "(ab)^w", "--n", "1", "--in", path])
    assert code == 0


def test_check_huge_exponents(tmp_path, capsys, z2):
    path = write_semigroup(tmp_path, "z2.json", z2)
    code, out, _ = run(capsys, ["check", "id", path, "x^100000000", "x"])
    assert (code, json.loads(out)) == (1, {"holds": False, "witness": {"x": 1}})
    code, out, err = run(capsys, ["check", "vdn", "a^100000000", "a", "--n", "1", "--in", path])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "bound" in err


def test_check_vdn_bounds_the_encoding_work(tmp_path, capsys, z2):
    path = write_semigroup(tmp_path, "z2.json", z2)
    code, out, err = run(capsys, ["check", "vdn", "a^w^w^w^w^w", "a", "--n", "8", "--in", path])
    assert (code, out) == (2, "")
    assert err.startswith("error: encoding the term visits") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "kp", "1000003"], "K_1000003 would have 4000012 elements"),
        (["construct", "kp", "99999999999999999999"], "K_99999999999999999999 would have 399999999999999999996 elements"),
        (["construct", "rees", "--group", "z:100000"], "Z100000 would have 100000 elements"),
        (["construct", "rees", "--a", "1000000", "--b", "1000000"], "M(1000000, G, 1000000; P) with |G| = 1"),
    ],
    ids=["kp", "kp-huge", "rees-group", "rees-shape"],
)
def test_constructions_over_the_size_bound_exit_2(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_constructions_up_to_the_size_bound_are_built(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_CONSTRUCTED", 12)
    for argv in (["construct", "kp", "3"], ["construct", "rees", "--group", "z:3"]):
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(json.loads(out)["elements"]) == 12
    for argv in (["construct", "kp", "5"], ["construct", "rees", "--group", "z:13"]):
        assert run(capsys, argv)[0] == 2


def test_check_vdn_needs_in(capsys):
    code, out, err = run(capsys, ["check", "vdn", "ab", "ab", "--n", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "--in" in err


@pytest.mark.parametrize(
    "term, pos",
    [("(" * 400 + "x" + ")" * 400, 100), ("x" + "^2" * 2000, 201)],
    ids=["parentheses", "stacked-powers"],
)
def test_deeply_nested_terms_are_rejected(tmp_path, capsys, z2, term, pos):
    path = write_semigroup(tmp_path, "z2.json", z2)
    code, out, err = run(capsys, ["check", "id", path, term, "x"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "nested deeper" in err and f"position {pos}" in err


@pytest.mark.parametrize(
    "argv, source",
    [(["classify", "{}"], "{}"), (["analyze", "-"], "-"),
     (["construct", "rees", "--sandwich", "[" * 100_000], "--sandwich")],
    ids=["file", "stdin", "sandwich"],
)
def test_deeply_nested_json_exits_2(tmp_path, capsys, monkeypatch, argv, source):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    argv = [arg.format(path) for arg in argv]
    code, out, err = run(capsys, argv, stdin="[" * 100_000, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read JSON from {source.format(path)}: nested too deeply\n"


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"elements": ["a"], "table": None}, "table"),
        ({"elements": ["a", "b"], "table": [[0, 0], [0, 1]], "generators": {"x": "1"}}, "generators['x']"),
        ({"elements": ["a", "b"], "table": [[0, 0.9], [1.7, 1]]}, "table[0][1]"),
        ({"elements": ["a", "b"], "table": [[0, 0], [True, 1]]}, "table[1][0]"),
        ({"elements": ["a", "b"], "table": [[0, 0], [0, 1]], "identity": True}, "identity"),
        ({"elements": ["a", "b"], "table": [[0, 0], [0, 1]], "identity": 1.0}, "identity"),
        ({"elements": ["a", "b"], "table": [[0, 0], [0, 1]], "identity": "1"}, "identity"),
    ],
    ids=["null-table", "string-generator", "float-entry", "bool-entry", "bool-identity",
         "float-identity", "string-identity"],
)
def test_semigroup_json_is_strict(tmp_path, capsys, doc, path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["classify", str(p)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} must be ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "identity, err", [(None, ""), (1, ""), (0, "error: declared identity 0 is not neutral\n")]
)
def test_declared_identity_must_be_neutral(tmp_path, capsys, identity, err):
    p = tmp_path / "u1.json"
    p.write_text(json.dumps({"elements": ["a", "b"], "table": [[0, 0], [0, 1]], "identity": identity}))
    code, _, got = run(capsys, ["classify", str(p)])
    assert (code, got) == (2 if err else 0, err)


REES_OK = {
    "a": 2,
    "b": 2,
    "group": {"elements": ["0", "1"], "table": [[0, 1], [1, 0]]},
    "sandwich": [[0, 0], [0, 1]],
}
DFA_OK = {
    "states": ["p", "q"],
    "alphabet": ["a"],
    "transitions": {"p,a": "q", "q,a": "p"},
    "initial": "p",
    "accepting": ["p"],
}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("hull", dict(REES_OK, sandwich=[[0, True], [0, 1]]), "sandwich[0][1] must be an integer"),
        ("hull", dict(REES_OK, sandwich=[[0, 0], [0.5, 1]]), "sandwich[1][0] must be an integer"),
        ("hull", dict(REES_OK, sandwich=[0, 0]), "sandwich[0] must be a list of integers"),
        ("hull", dict(REES_OK, a=True), "a must be a positive integer"),
        ("hull", dict(REES_OK, b=0), "b must be a positive integer"),
        ("hull", dict(REES_OK, a="2"), "a must be a positive integer"),
        ("hull", [REES_OK], "Rees JSON must be an object"),
        ("syntactic", dict(DFA_OK, accepting="pq"), "accepting must be a list"),
        ("syntactic", dict(DFA_OK, states=["p", 1]), "states[1] must be a string"),
        ("syntactic", dict(DFA_OK, alphabet="a"), "alphabet must be a list"),
        ("syntactic", dict(DFA_OK, transitions=[["p,a", "q"]]), "transitions must be an object"),
        ("syntactic", dict(DFA_OK, alphabet=["a", ""]), "letter '' must be nonempty and contain no"),
        ("syntactic", dict(DFA_OK, alphabet=["a", "[a"]), "letter '[a' must be nonempty and contain no"),
        ("syntactic", dict(DFA_OK, alphabet=["a", "b]"]), "letter 'b]' must be nonempty and contain no"),
    ],
    ids=[
        "bool-sandwich", "float-sandwich", "flat-sandwich", "bool-a", "zero-b", "string-a",
        "rees-list", "string-accepting", "int-state", "string-alphabet", "list-transitions",
        "empty-letter", "open-bracket-letter", "close-bracket-letter",
    ],
)
def test_rees_and_dfa_json_are_strict(tmp_path, capsys, command, doc, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    argv = ["hull", str(p), "--rees"] if command == "hull" else ["syntactic", str(p)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


U1_JSON = {"elements": ["0", "1"], "table": [[0, 0], [0, 1]]}


@pytest.mark.parametrize(
    "order_field, message",
    [
        (5, "order must be a list"),
        ([5], "order[0] must be a list of two integers, got 5"),
        ([[0, 1.0]], "order[0] must be a list of two integers, got [0, 1.0]"),
        ([[0, 1], [True, False]], "order[1] must be a list of two integers, got [True, False]"),
        ([[0, 1, 1]], "order[0] must be a list of two integers, got [0, 1, 1]"),
    ],
    ids=["int-order", "flat-order", "float-pair", "bool-pair", "triple"],
)
def test_order_field_is_strict(tmp_path, capsys, order_field, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(U1_JSON, order=order_field)))
    code, out, err = run(capsys, ["check", "ineq", str(p), "xy", "y"])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "what, doc, message",
    [
        ("synthesis", ["0", "1"], "f must be a JSON object, got list"),
        ("synthesis", {"0": "0"}, "f['1'] is missing"),
        ("synthesis", {"0": "0", "1": "x"}, "f['1']: no element labeled 'x'"),
        ("semidirect", "x", "action must be a JSON object, got str"),
        ("semidirect", {"0": 5, "1": 5}, "action['0']: must be a list of labels, got 5"),
        ("semidirect", {"0": ["0", "1"]}, "action['1'] is missing"),
        ("semidirect", {"0": ["0", "1"], "1": ["0", "y"]}, "action['1']: no element labeled 'y'"),
    ],
    ids=["list-f", "missing-f", "unknown-f", "string-action", "int-action", "missing-action",
         "unknown-action"],
)
def test_construction_maps_are_strict(tmp_path, capsys, what, doc, message):
    p = tmp_path / "u1.json"
    p.write_text(json.dumps(U1_JSON))
    m = tmp_path / "map.json"
    m.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["construct", what, str(p), str(p), str(m)])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_construct_rees_1x1_writes_its_identity(capsys):
    code, out, _ = run(capsys, ["construct", "rees", "--a", "1", "--b", "1", "--group", "z:3"])
    assert code == 0 and json.loads(out)["identity"] == 0
    code, out, _ = run(capsys, ["construct", "rees", "--a", "1", "--b", "1", "--sandwich", "[[1]]",
                                "--group", "z:3"])
    assert code == 0 and json.loads(out)["identity"] == 2


@pytest.mark.parametrize("shape", [["--a", "1", "--b", "1"], ["--a", "2", "--b", "1", "--sandwich", "[[1, 2]]"]],
                         ids=["1x1", "2x1-sandwich"])
def test_construct_rees_reads_the_group_from_a_file(tmp_path, capsys, z3, shape):
    path = write_semigroup(tmp_path, "z3.json", z3)
    by_name = run(capsys, ["construct", "rees", *shape, "--group", "z:3"])
    by_file = run(capsys, ["construct", "rees", *shape, "--group", path])
    assert by_name[0] == 0 and by_file == by_name


@pytest.mark.parametrize("index", [5, -1])
def test_generator_out_of_range_exits_2(tmp_path, capsys, index):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"elements": ["a", "b"], "table": [[0, 0], [0, 1]], "generators": {"x": index}}))
    for command in (["classify"], ["orderable"]):
        code, out, err = run(capsys, [*command, str(path)])
        assert (code, out, err) == (2, "", f"error: generator 'x' -> {index} out of range\n")


def test_syntactic_monoid_writes_its_identity(tmp_path, capsys):
    # a swaps p and q and b fixes both, so b is the identity
    d = order.dfa(["p", "q"], ["a", "b"],
                  {("p", "a"): "q", ("q", "a"): "p", ("p", "b"): "p", ("q", "b"): "q"}, "p", ["p"])
    path = tmp_path / "dfa.json"
    path.write_text(json.dumps(order.dfa_to_dict(d)))
    code, out, _ = run(capsys, ["syntactic", str(path)])
    obj = json.loads(out)
    assert code == 0 and obj["elements"][obj["identity"]] == "b"


@pytest.mark.parametrize("extra", [[], ["--concat-letter", "a"]], ids=["plain", "concat-a"])
def test_syntactic_of_a_state_named_like_the_sink(tmp_path, capsys, extra):
    # both DFAs accept (aa)*; a state called __sink__ must not be taken for the added sink
    outs = []
    for name in ("__sink__", "q"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "states": ["p", name], "alphabet": ["a"],
            "transitions": {"p,a": name, f"{name},a": "p"}, "initial": "p", "accepting": ["p"],
        }))
        code, out, _ = run(capsys, ["syntactic", str(path), *extra])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["elements"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["words", "connect", "ab", "c"], "eggbox words connect: the following arguments are required: b"),
        (["words", "content"], "eggbox words content: the following arguments are required: w"),
        (["words", "subword", "a", "b", "c"], "eggbox: unrecognized arguments: c"),
        (["construct", "kp"], "eggbox construct kp: the following arguments are required: p"),
        (["check", "id", "x.json"], "eggbox check id: the following arguments are required: lhs, rhs"),
        (["construct", "rees", "--a", "0"], "index sets must be nonempty"),
        (["construct", "rees", "--b", "0"], "index sets must be nonempty"),
        (["construct", "rees", "--a", "0", "--b", "1000000000"], "index sets must be nonempty, got a=0, b=1000000000"),
        (["construct", "rees", "--a", "-1", "--b", "1000000000"], "index sets must be nonempty, got a=-1, b=1000000000"),
        (["construct", "rees", "--group", "z:2", "--sandwich", "[[0, 1], [0.7, 1]]"], "sandwich[1][0] must be an integer"),
        (["construct", "rees", "--group", "z:2", "--sandwich", "[[0, true], [0, 1]]"], "sandwich[0][1] must be an integer"),
        (["construct", "rees", "--sandwich", "5"], "sandwich must be a list"),
        (["construct", "rees", "--group", "z:0"], "cyclic group order must be >= 1"),
        (["construct", "kp", "1"], "1 is not prime"),
        (["words", "debruijn", "-1", "ab"], "n must be >= 0"),
        (["words", "rbf", ""], "right basic factorization needs a nonempty word"),
        (["words", "stretch", "", "aa"], "need a letter different from the tail of s"),
        (["analyze"], "eggbox analyze: the following arguments are required: path"),
        (["hull", "x.json", "--bound", "abc"], "eggbox hull: argument --bound: invalid int value: 'abc'"),
        (["check", "id", "x.json", "-x", "x"], "eggbox check id: the following arguments are required: rhs"),
        (["construct", "kp", "x"], "eggbox construct kp: argument p: invalid int value: 'x'"),
        (["words", "debruijn", "x", "ab"], "eggbox words debruijn: argument n: invalid int value: 'x'"),
    ],
    ids=[
        "connect", "content", "subword", "kp", "check-id", "rees-a0", "rees-b0", "rees-a0-huge-b",
        "rees-negative-a-huge-b",
        "float-sandwich", "bool-sandwich", "scalar-sandwich", "z0-group", "kp-1",
        "debruijn-negative", "rbf-empty", "stretch-empty", "argparse-missing-path",
        "argparse-bad-int", "argparse-unrecognized", "kp-not-int", "debruijn-not-int",
    ],
)
def test_usage_errors_exit_2(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def interleavings(positionals, options):
    """Every argument list that keeps the positionals in order and puts the options (each a
    list: the flag and its value) anywhere among them, in any order."""
    n = len(positionals) + len(options)
    for order_ in itertools.permutations(options):
        for slots in itertools.combinations(range(n), len(options)):
            opts, pos = iter(order_), iter(positionals)
            yield [arg for i in range(n) for arg in (next(opts) if i in slots else [next(pos)])]


@pytest.mark.parametrize(
    "leaf, positionals, options",
    [
        (["construct", "rees"], [], [["--a", "2"], ["--b", "3"], ["--group", "z:2"],
                                     ["--sandwich", "[[0, 0], [0, 1], [0, 1]]"]]),
        (["construct", "adjoin"], ["{z2}"], [["--fresh"]]),
        (["check", "crh"], ["aab", "ab"], [["--h", "groups"]]),
        (["check", "vdn"], ["(ab)^w", "(ab)^w ab"], [["--n", "1"], ["--in", "{z2}"]]),
        (["words", "stretch"], ["b", "baa"], [["--avoid", "ab"]]),
    ],
    ids=["rees", "adjoin", "crh", "vdn", "stretch"],
)
def test_options_go_anywhere_after_their_leaf(tmp_path, capsys, z2, leaf, positionals, options):
    z2_path = write_semigroup(tmp_path, "z2.json", z2)
    positionals = [arg.format(z2=z2_path) for arg in positionals]
    options = [[arg.format(z2=z2_path) for arg in option] for option in options]
    code, out, _ = run(capsys, leaf + positionals + [arg for option in options for arg in option])
    assert code in (0, 1) and out
    for tail in interleavings(positionals, options):
        assert run(capsys, leaf + tail)[:2] == (code, out), tail


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "kp", "3", "--fresh"],
        ["check", "id", "{z2}", "x", "x", "--h", "groups"],
        ["check", "vdn", "ab", "ab", "--in", "{z2}", "--h", "groups"],
        ["check", "crh", "ab", "ab", "--n", "1"],
        ["construct", "adjoin", "{z2}", "--a", "2"],
        ["words", "content", "ab", "--avoid", "a"],
    ],
    ids=["kp-fresh", "id-h", "vdn-h", "crh-n", "adjoin-a", "content-avoid"],
)
def test_an_option_of_another_leaf_exits_2(tmp_path, capsys, z2, argv):
    z2_path = write_semigroup(tmp_path, "z2.json", z2)
    code, out, err = run(capsys, [arg.format(z2=z2_path) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: eggbox: unrecognized arguments: ") and err.count("\n") == 1


Z2_JSON = {"elements": ["a", "b"], "table": [[0, 1], [1, 0]]}
T4_JSON = core.to_dict(core.full_transformation_monoid(4))


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({"dfa": ["p"]}, ["syntactic", "{dfa}"], "DFA JSON must be an object"),
        ({"dfa": dict(DFA_OK, transitions={"pa": "q"})}, ["syntactic", "{dfa}"],
         "bad transition key 'pa', expected 'state,letter'"),
        ({"dfa": dict(DFA_OK, accepting=["r"])}, ["syntactic", "{dfa}"], "accepting state 'r' unknown"),
        ({"s": dict(U1_JSON, generators=["a"])}, ["classify", "{s}"], "generators must be an object"),
        ({"s": Z2_JSON}, ["check", "id", "{s}", "[ab", "x"], "unterminated composite letter (at position 1)"),
        ({"s": Z2_JSON}, ["check", "id", "{s}", "x^(w+)", "x"], "expected an integer (at position 5)"),
        ({"s": Z2_JSON}, ["check", "pv", "{s}", "Ab0"], "unsupported exponent in 'Ab0'"),
        ({"s": Z2_JSON}, ["check", "pv", "{s}", "D0"], "unsupported degree in 'D0'"),
        ({"s": Z2_JSON}, ["check", "pv", "{s}", "D23"], "unsupported degree in 'D23'"),
        ({"s": Z2_JSON}, ["check", "vdn", "ab", "ab", "--n", "0", "--in", "{s}"], "n must be >= 1"),
        ({"g": {"elements": ["a", "b"], "table": [[0, 0], [0, 0]]}}, ["construct", "rees", "--group", "{g}"],
         "no identity element"),
        ({"s": Z2_JSON, "act": {"a": ["a", "b"], "b": ["a", "a"]}},
         ["construct", "semidirect", "{s}", "{s}", "{act}"], "action is not a monoid homomorphism at (1,1)"),
        ({"t4": T4_JSON}, ["construct", "product", "{t4}", "{t4}"],
         "S x T with |S| = 256, |T| = 256 would have 65536 elements, over the bound 4096"),
        ({"t4": T4_JSON, "act": {}}, ["construct", "semidirect", "{t4}", "{t4}", "{act}"],
         "S x| T with |S| = 256, |T| = 256 would have 65536 elements, over the bound 4096"),
        ({"t4": T4_JSON, "z2": Z2_JSON, "f": {}}, ["construct", "synthesis", "{t4}", "{z2}", "{f}"],
         "M(S, T, f) with |S^1| = 256, |T^1| = 2 would have 131328 elements, over the bound 4096"),
        ({"dfa": full_transformation_dfa(6)}, ["syntactic", "{dfa}"],
         "the syntactic semigroup has more than 4096 elements"),
    ],
    ids=[
        "dfa-list", "transition-key", "unknown-accepting", "generator-list", "open-composite-letter",
        "omega-without-integer", "pv-exponent", "pv-degree-0", "pv-degree-23", "vdn-n0",
        "rees-non-monoid", "semidirect-not-an-action", "product-t4-t4", "semidirect-t4-t4",
        "synthesis-t4-z2", "syntactic-t6",
    ],
)
def test_file_input_errors_exit_2(tmp_path, capsys, files, argv, message):
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_analyze_pv_all_reports_every_registered_pseudovariety(tmp_path, capsys, z2):
    code, out, _ = run(capsys, ["--format", "json", "analyze", write_semigroup(tmp_path, "z2.json", z2), "--pv", "all"])
    memberships = json.loads(out)["pseudovarieties"]
    assert code == 0 and list(memberships) == terms.pseudovariety_names()
    assert memberships["G"] is True and memberships["Sl"] is False


def test_words_commands(capsys):
    code, out, _ = run(capsys, ["words", "debruijn", "1", "aba"])
    assert code == 0 and out.strip() == "ab.ba"
    code, out, _ = run(capsys, ["--format", "json", "words", "lbf", "acaba"])
    assert json.loads(out) == {"prefix": "aca", "marker": "b", "remainder": "a"}
    code, out, _ = run(capsys, ["--format", "json", "words", "chi", "aabba"])
    assert json.loads(out)[0] == {"factor": "aa", "start": 1, "end": 2}
    assert run(capsys, ["words", "subword", "ab", "axb"])[0] == 0
    assert run(capsys, ["words", "subword", "ba", "aab"])[0] == 1
    code, out, _ = run(capsys, ["words", "stretch", "b", "baa"])
    assert code == 0 and out.strip() == "babab"
    code, out, _ = run(capsys, ["words", "connect", "ab", "a", "b"])
    assert code == 0 and out.strip() == "aaab"
    code, out, _ = run(capsys, ["--format", "json", "words", "content", "aba"])
    assert json.loads(out) == {"content": ["a", "b"]}
    code, out, _ = run(capsys, ["--format", "json", "words", "zero", "acaba"])
    assert json.loads(out) == {"zero": "aca", "marker": "b"}
    code, out, _ = run(capsys, ["--format", "json", "words", "one", "acaba"])
    assert json.loads(out) == {"one": "aba", "marker": "c"}


def test_hull_command(tmp_path, capsys, rb22):
    path = write_semigroup(tmp_path, "rb22.json", rb22)
    code, out, _ = run(capsys, ["hull", path])
    assert code == 0
    assert out.splitlines()[0] == "|Omega(S)|=16"


def test_hull_counts_the_null_semigroups_linked_pairs(tmp_path, capsys):
    path = write_semigroup(tmp_path, "null5.json", core.null_semigroup(5))
    code, out, _ = run(capsys, ["hull", path])
    assert code == 0
    assert out.splitlines() == [
        "|Omega(S)|=390625",
        "inner image size=1",
        'reductivity={"right_reductive": false, "left_reductive": false, "weakly_reductive": false}',
    ]
    path = write_semigroup(tmp_path, "null6.json", core.null_semigroup(6))
    assert run(capsys, ["hull", path, "--bound", "5"]) == (2, "", "error: |S|=6 exceeds brute-force bound 5\n")


def test_classify_command(tmp_path, capsys, k2):
    path = write_semigroup(tmp_path, "k2.json", k2)
    code, out, _ = run(capsys, ["--format", "json", "classify", path])
    obj = json.loads(out)
    assert obj["ggm"] is True and obj["torsion"]["full_torsion"] is True


def test_syntactic_command(tmp_path, capsys):
    d = order.dfa(["e", "o"], ["a"], {("e", "a"): "o", ("o", "a"): "e"}, "e", ["e"])
    path = tmp_path / "dfa.json"
    path.write_text(json.dumps(order.dfa_to_dict(d)))
    code, out, _ = run(capsys, ["syntactic", str(path)])
    assert code == 0
    obj = json.loads(out)
    S = core.from_dict({k: v for k, v in obj.items() if k != "order"})
    assert core.is_isomorphic(S, core.cyclic_group(2)) is not None
    code, out, _ = run(capsys, ["syntactic", str(path), "--concat-letter", "a"])
    assert code == 0


def test_syntactic_labels_read_back_with_multi_character_letters(tmp_path, capsys):
    # a then b is accepted and the letter ab leads to a sink: glued letter
    # to letter, the words "a" "b" and the letter "ab" would share a label
    doc = {
        "states": ["0", "1", "2", "3"],
        "alphabet": ["a", "b", "ab"],
        "transitions": {"0,a": "1", "1,b": "2", "0,ab": "3"},
        "initial": "0",
        "accepting": ["2"],
    }
    dfa_path, out_path = tmp_path / "dfa.json", tmp_path / "syntactic.json"
    dfa_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["syntactic", str(dfa_path)])
    assert code == 0 and json.loads(out)["elements"] == ["a", "b", "[ab]", "ab"]
    out_path.write_text(out)
    code, _, err = run(capsys, ["classify", str(out_path)])
    assert (code, err) == (0, "")


def test_orderable_command(tmp_path, capsys, u1, z2):
    pu = write_semigroup(tmp_path, "u1.json", u1)
    pz = write_semigroup(tmp_path, "z2.json", z2)
    code, out, _ = run(capsys, ["orderable", pu])
    assert code == 0 and json.loads(out)["orderable"] is True
    code, out, _ = run(capsys, ["orderable", pz])
    assert code == 1 and json.loads(out)["orderable"] is False


def test_orders_command(tmp_path, capsys, lz2):
    path = write_semigroup(tmp_path, "lz2.json", lz2)
    code, out, _ = run(capsys, ["orders", path])
    assert code == 0 and json.loads(out)["count"] == 3


@pytest.mark.parametrize("limit", [1, 2, 3, 5])
def test_orders_limit_is_a_cap(tmp_path, capsys, rb22, limit):
    path = write_semigroup(tmp_path, "rb22.json", rb22)
    code, out, _ = run(capsys, ["orders", path, "--limit", str(limit)])
    obj = json.loads(out)
    assert code == 0 and obj["count"] == len(obj["orders"]) <= limit
    code, out, _ = run(capsys, ["orders", path])
    assert json.loads(out)["count"] > 5


def test_jobs_flag(tmp_path, capsys, z3):
    path = write_semigroup(tmp_path, "z3.json", z3)
    code1, out1, _ = run(capsys, ["--jobs", "2", "check", "id", path, "xy", "yx x"])
    code2, out2, _ = run(capsys, ["check", "id", path, "xy", "yx x"])
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_orders_rejects_limit_below_one(tmp_path, capsys, u1, limit):
    path = write_semigroup(tmp_path, "u1.json", u1)
    code, out, err = run(capsys, ["orders", path, "--limit", limit])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "limit" in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_rejected(tmp_path, capsys, z3, jobs):
    path = write_semigroup(tmp_path, "z3.json", z3)
    for argv in (["check", "id", path, "xy", "yx"], ["analyze", path]):
        code, out, err = run(capsys, ["--jobs", jobs, *argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "--jobs" in err


def test_real_pipe_construct_analyze():
    r1 = subprocess.run(
        [sys.executable, "-m", "eggbox.cli", "construct", "kp", "2"],
        capture_output=True,
        text=True,
    )
    assert r1.returncode == 0
    r2 = subprocess.run(
        [sys.executable, "-m", "eggbox.cli", "--format", "json", "analyze", "-"],
        input=r1.stdout,
        capture_output=True,
        text=True,
    )
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["classification"]["ggm"] is True


def test_hull_rees_path(tmp_path, capsys):
    from eggbox import green, constructions

    rm = constructions.kp_rees(2)
    path = tmp_path / "k2_rees.json"
    path.write_text(json.dumps(green.rees_to_dict(rm)))
    code, out, _ = run(capsys, ["hull", str(path), "--rees"])
    assert code == 0
    assert out.splitlines()[0].startswith("|Omega(S)|=")


@pytest.mark.parametrize("error", [TypeError, AttributeError, ZeroDivisionError])
@pytest.mark.parametrize("command", ["analyze", "words"])
def test_internal_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch, command, error):
    from eggbox import green, words

    def broken(*args):
        raise error("oops")

    if command == "analyze":
        monkeypatch.setattr(green, "green_structure", broken)
        argv = ["analyze", write_semigroup(tmp_path, "u1.json", core.u1())]
    else:
        monkeypatch.setattr(words, "content", broken)
        argv = ["words", "content", "ab"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == f"error: internal error: {error.__name__}: oops\n"


def test_internal_key_error_exits_3(capsys, monkeypatch):
    # input errors are ValueErrors, so a KeyError is the program's own fault
    from eggbox import words

    def broken(*args):
        raise KeyError("oops")

    monkeypatch.setattr(words, "content", broken)
    assert run(capsys, ["words", "content", "ab"]) == (3, "", "error: internal error: KeyError: 'oops'\n")

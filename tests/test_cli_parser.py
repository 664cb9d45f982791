"""The command table builds the same parser as the eager tree it replaced, and a run
builds only the parsers on its path. The reference is the eager `_leaves` and
`build_parser` verbatim, run in a copy of the CLI's namespace, so `_Parser`, the
`cmd_*` handlers and the description are the CLI's own."""

import random

import pytest

from eggbox import cli
from test_cli import OTHER_LEAF_OPTIONS, PLACEMENTS, USAGE_ERRORS, interleavings
from test_cli_fuzz import cases

EAGER = '''
def _leaves(sub, command: str, summary: str, func, allow_abbrev=True, **leaves: str) -> dict:
    """Add `command` with one subparser per leaf, taking the positionals named in leaves[leaf]
    (p and n read as integers); return the leaf parsers by name."""
    p = sub.add_parser(command, help=summary)
    p.set_defaults(func=func)
    what = p.add_subparsers(dest="what", required=True)
    parsers = {}
    for leaf, names in leaves.items():
        parsers[leaf] = what.add_parser(leaf, allow_abbrev=allow_abbrev)
        for name in names.split():
            parsers[leaf].add_argument(name, type=int if name in ("p", "n") else None)
    return parsers


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="eggbox", description=__doc__)
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full structural report of a semigroup JSON")
    p.add_argument("path")
    p.add_argument("--pv", help="comma-separated registry names, or 'all'")
    p.set_defaults(func=cmd_analyze)

    construct = _leaves(sub, "construct", "emit semigroup JSON for a construction", cmd_construct,
                        kp="p", rees="", synthesis="s t f", semidirect="s t action", product="s t", adjoin="s")
    p = construct["rees"]
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--group", default="trivial", help="trivial | z:<n> | path")
    p.add_argument("--sandwich", help="JSON matrix of group element indices")
    construct["adjoin"].add_argument("--fresh", action="store_true", help="always add a new identity")

    # No abbreviations here: crh's --h is a prefix of --help, and on another check leaf it
    # must be an unrecognized argument, not a request for help.
    check = _leaves(sub, "check", "identity / inequality / membership / word problems", cmd_check,
                    allow_abbrev=False, id="s lhs rhs", ineq="s lhs rhs", pv="s name", crh="u v", vdn="u v")
    check["crh"].add_argument("--h", default="trivial", help="trivial | ab:<n> | groups")
    check["vdn"].add_argument("--n", type=int, default=1, help="the D_n depth")
    check["vdn"].add_argument("--in", dest="in_path", required=True, help="semigroup JSON to instantiate V")

    p = _leaves(sub, "words", "word combinatorics", cmd_words,
                content="w", lbf="w", rbf="w", zero="w", one="w", chi="w",
                debruijn="n w", stretch="x s", connect="w a b", subword="u w")["stretch"]
    p.add_argument("--avoid", help="comma-separated words to avoid")

    p = sub.add_parser("hull", help="translational hull summary")
    p.add_argument("path")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--rees", action="store_true", help="input is Rees JSON; use the parametrized path")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("classify", help="LM/RM/GGM/WGGM and torsion flags")
    p.add_argument("path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("syntactic", help="syntactic ordered semigroup of a DFA JSON")
    p.add_argument("path")
    p.add_argument("--concat-letter", dest="concat_letter")
    p.set_defaults(func=cmd_syntactic)

    p = sub.add_parser("orderable", help="decide orderability")
    p.add_argument("path")
    p.set_defaults(func=cmd_orderable)

    p = sub.add_parser("orders", help="enumerate stable partial orders")
    p.add_argument("path")
    p.add_argument("--limit", type=int)
    p.set_defaults(func=cmd_orders)

    return top
'''

LEAVES = {
    "construct": ["kp", "rees", "synthesis", "semidirect", "product", "adjoin"],
    "check": ["id", "ineq", "pv", "crh", "vdn"],
    "words": ["content", "lbf", "rbf", "zero", "one", "chi", "debruijn", "stretch", "connect", "subword"],
}
COMMANDS = ["analyze", "construct", "check", "words", "hull", "classify", "syntactic", "orderable", "orders"]
HELP_LEVELS = [[]] + [[c] for c in COMMANDS] + [[c, leaf] for c, leaves in LEAVES.items() for leaf in leaves]


def eager_build_parser():
    namespace = dict(vars(cli))
    exec(EAGER, namespace)
    return namespace["build_parser"]()


def corpus(tmp_path):
    """The fuzz cases, the usage-error and option-placement cases of test_cli, abbreviated
    options, two bad --jobs values and a bare `eggbox`."""
    for seed in (0, 3):
        yield from cases(random.Random(seed), tmp_path)
    yield from (argv for argv, _ in USAGE_ERRORS)
    for leaf, positionals, options in PLACEMENTS:
        yield from ([arg.format(z2="z2.json") for arg in leaf + tail] for tail in interleavings(positionals, options))
    yield from ([arg.format(z2="z2.json") for arg in argv] for argv in OTHER_LEAF_OPTIONS)
    yield from (["--form", "json", "words", "content", "ab"], ["construct", "rees", "--gr", "z:3"],
                ["construct", "adjoin", "z2.json", "--fr"], ["--jobs", "0", "classify", "z2.json"],
                ["--jobs", "x", "classify", "z2.json"], [])


def parse(build, argv):
    try:
        return vars(build().parse_args(argv))
    except ValueError as exc:
        return str(exc)


def test_help_is_the_eager_trees_at_every_level(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert len(HELP_LEVELS) == 31
    builds = cli.build_parser, eager_build_parser
    for level in HELP_LEVELS:
        outs = []
        for build in builds:
            monkeypatch.setattr(cli, "build_parser", build)
            with pytest.raises(SystemExit) as exit_:
                cli.main([*level, "-h"])
            outs.append((exit_.value.code, *capsys.readouterr()))
        assert outs[0] == outs[1], level
        assert outs[0][0] == 0 and outs[0][1].startswith(f"usage: {' '.join(['eggbox', *level])} ")


def test_parses_as_the_eager_tree(tmp_path):
    usage_errors, handlers = 0, set()
    for argv in corpus(tmp_path):
        got = parse(cli.build_parser, argv)
        assert got == parse(eager_build_parser, argv), argv
        if isinstance(got, str):
            usage_errors += 1
        else:
            handlers.add(got["func"])
    assert usage_errors >= 50 and handlers == {func for _, func, _ in cli._COMMANDS.values()}


def test_a_run_builds_only_the_parsers_on_its_path(tmp_path, capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    z2 = tmp_path / "z2.json"
    z2.write_text('{"elements": ["a", "b"], "table": [[0, 1], [1, 0]]}')

    def count(argv):
        built.clear()
        try:
            cli.main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        return len(built)

    assert count(["-h"]) == 1
    assert count(["classify", str(z2)]) == 2
    assert count(["check", "id", str(z2), "x", "x"]) == 3
    for argv in [[*level, "-h"] for level in HELP_LEVELS] + list(corpus(tmp_path)):
        assert count(argv) <= 3, (argv, built)

"""Command-line surface.

Exit codes: 0 = success / property holds, 1 = property fails (witness on
stdout), 2 = input or usage error, 3 = internal error (any other exception,
reported as one stderr line `error: internal error: <Type>: <message>`).
Identical inputs produce byte-identical output; '-' means stdin wherever a
path is accepted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import core, green, constructions, hull, order, terms, words


def _load_json(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
        return _loads(text, path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from None


def _loads(text: str, source: str):
    """json.loads, with nesting too deep for the decoder's recursion as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"cannot read JSON from {source}: nested too deeply") from None


def _load_semigroup(path: str):
    obj = _load_json(path)
    S = core.from_dict(obj)
    ordered = None
    if "order" in obj and obj["order"] is not None:
        core._require_list(obj["order"], "order", _is_pair, "a list of two integers")
        ordered = order.ordered(S, [tuple(p) for p in obj["order"]])
    return S, ordered


def _is_pair(value) -> bool:
    return type(value) is list and len(value) == 2 and all(map(core._is_int, value))


def _read_map(obj, what: str, keys, read) -> list:
    """read(obj[k]) for each label k in keys; an error names the entry, as in f['b']."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    values = []
    for k in keys:
        if k not in obj:
            raise ValueError(f"{what}[{k!r}] is missing")
        try:
            values.append(read(obj[k]))
        except core.SemigroupError as exc:
            raise ValueError(f"{what}[{k!r}]: {exc}") from None
    return values


def _emit(args, obj, text_lines=None) -> None:
    if args.format == "json" or text_lines is None:
        print(json.dumps(obj))
    else:
        for line in text_lines:
            print(line)


def _verdict(args, key: str, ok: bool, **failure) -> int:
    """Emit {key: true} and return 0 if ok, else print {key: false, **failure} and return 1."""
    if ok:
        _emit(args, {key: True}, [key])
        return 0
    print(json.dumps({key: False, **failure}))
    return 1


def _flat_lines(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            lines.extend(_flat_lines(v, f"{prefix}{k}."))
    else:
        lines.append(f"{prefix[:-1]} = {json.dumps(obj)}")
    return lines


# --- analyze -------------------------------------------------------------------

def cmd_analyze(args) -> int:
    S, _ = _load_semigroup(args.path)
    gs = green.green_structure(S)
    ker = green.kernel(S)
    cs = green.is_completely_simple(S)
    report = {
        "input": args.path,
        "size": len(S),
        "green": {
            "r_classes": len(set(gs.r_class)),
            "l_classes": len(set(gs.l_class)),
            "j_classes": len(set(gs.j_class)),
            "h_classes": len(set(gs.h_class)),
            "idempotents": len(S.idempotents()),
            "kernel_size": len(ker),
        },
        "completely_simple": cs,
    }
    if cs:
        rm, _ = green.rees_coordinatize(S)
        report["rees"] = {
            "a": rm.a_size,
            "b": rm.b_size,
            "group_order": len(rm.group),
        }
        report["torsion"] = hull.torsion_checks(S)
    report["classification"] = hull.classify(S)
    report["reductivity"] = hull.reductivity(S)
    orderable, _ = order.is_orderable(S)
    report["orderable"] = orderable
    if args.pv:
        names = terms.pseudovariety_names() if args.pv == "all" else args.pv.split(",")
        memberships = {}
        for name in names:
            ok, _ = terms.pseudovariety_membership(S, name)
            memberships[name] = ok
        report["pseudovarieties"] = memberships
    _emit(args, report, _flat_lines(report))
    return 0


# --- construct -------------------------------------------------------------------

# Largest semigroup `construct` and `syntactic` build, checked before any table is built;
# `construct adjoin` is exempt, as it adds one element to an input already loaded.
MAX_CONSTRUCTED = 4096


def _check_constructed_size(n: int, what: str) -> None:
    if n > MAX_CONSTRUCTED:
        raise core.BoundExceededError(f"{what} would have {n} elements, over the bound {MAX_CONSTRUCTED}")


def _group_from_text(text: str) -> core.FiniteSemigroup:
    if text == "trivial":
        return core.trivial()
    if text.startswith("z:"):
        n = int(text[2:])
        _check_constructed_size(n, f"Z{n}")
        return core.cyclic_group(n)
    S, _ = _load_semigroup(text)
    return S


def cmd_construct(args) -> int:
    if args.what == "kp":
        _check_constructed_size(4 * args.p, f"K_{args.p}")
        S = constructions.k_p(args.p)
    elif args.what == "rees":
        group = _group_from_text(args.group)
        if args.a < 1 or args.b < 1:
            raise constructions.ShapeMismatchError(f"index sets must be nonempty, got a={args.a}, b={args.b}")
        ng = len(group)
        _check_constructed_size(args.a * ng * args.b, f"M({args.a}, G, {args.b}; P) with |G| = {ng}")
        if args.sandwich:
            sandwich = green.sandwich_from_json(_loads(args.sandwich, "--sandwich"))
        else:
            e = group.identity
            sandwich = [[e] * args.a for _ in range(args.b)]
        S = constructions.rees_matrix(args.a, group, args.b, sandwich)
    elif args.what == "synthesis":
        s_part, _ = _load_semigroup(args.s)
        t_part, _ = _load_semigroup(args.t)
        s1, t1 = core.adjoin_identity(s_part), core.adjoin_identity(t_part)
        _check_constructed_size(len(s_part) + len(s1) ** 2 * len(t1),
                                f"M(S, T, f) with |S^1| = {len(s1)}, |T^1| = {len(t1)}")
        fmap = _read_map(_load_json(args.f), "f", s1.elements, t1.index_of)
        S = constructions.synthesis(s_part, t_part, fmap).carrier
    elif args.what == "semidirect":
        s_part, _ = _load_semigroup(args.s)
        t_part, _ = _load_semigroup(args.t)
        _check_constructed_size(len(s_part) * len(t_part), f"S x| T with |S| = {len(s_part)}, |T| = {len(t_part)}")
        def image(value):
            if type(value) is not list:
                raise core.SemigroupError(f"must be a list of labels, got {value!r}")
            return tuple(map(s_part.index_of, value))
        images = _read_map(_load_json(args.action), "action", t_part.elements, image)
        S = constructions.semidirect_product(s_part, t_part, dict(enumerate(images)))
    elif args.what == "product":
        a, _ = _load_semigroup(args.s)
        b, _ = _load_semigroup(args.t)
        _check_constructed_size(len(a) * len(b), f"S x T with |S| = {len(a)}, |T| = {len(b)}")
        S = core.direct_product(a, b)
    else:  # adjoin
        a, _ = _load_semigroup(args.s)
        S = core.adjoin_new_identity(a) if args.fresh else core.adjoin_identity(a)
    print(json.dumps(core.to_dict(S)))
    return 0


# --- check ---------------------------------------------------------------------

# Most distinct letters `check crh` accepts in a word, checked before any keying: each CR key
# holds its factor's content, so memory grows with the cube of the content size. It does not
# bound the time: with --h ab:N that grows about 4x per two more distinct letters (7.1 s at 22).
MAX_CRH_LETTERS = 128


def cmd_check(args) -> int:
    if args.what in ("id", "ineq"):
        S, ordered_s = _load_semigroup(args.s)
        if args.what == "ineq" and ordered_s is None:
            raise ValueError("inequality check needs an 'order' field in the semigroup JSON")
        lhs, rhs = terms.parse_term(args.lhs), terms.parse_term(args.rhs)
        if args.what == "id":
            ok, witness = terms.satisfies_identity(S, lhs, rhs)
        else:
            ok, witness = terms.satisfies_inequality(ordered_s, lhs, rhs)
        return _verdict(args, "holds", ok, witness=witness)
    if args.what == "pv":
        S, _ = _load_semigroup(args.s)
        ok, failing = terms.pseudovariety_membership(S, args.name)
        return _verdict(args, "member", ok, failing=failing)
    if args.what == "crh":
        for word in (args.u, args.v):
            k = len(words.content(word))
            if k > MAX_CRH_LETTERS:
                raise core.BoundExceededError(
                    f"check crh word has {k} distinct letters, over the bound {MAX_CRH_LETTERS}"
                )
        h = terms.GroupSpec.from_text(args.h)
        equal, cond = terms.equal_in_crh(args.u, args.v, h)
        return _verdict(args, "equal", equal, failed_condition=cond)
    T, _ = _load_semigroup(args.in_path)
    res = terms.check_vdn(args.u, args.v, args.n, T)
    obj = {"i_t_equal": res.i_t_equal, "encoded_identity_holds": res.encoded_identity_holds}
    if res.i_t_equal and res.encoded_identity_holds:
        _emit(args, obj, [f"i_t_equal={res.i_t_equal}", f"encoded_identity_holds={res.encoded_identity_holds}"])
        return 0
    print(json.dumps(obj))
    return 1


# --- words ----------------------------------------------------------------------

def cmd_words(args) -> int:
    sub = args.what
    if sub == "content":
        out = sorted(words.content(args.w))
        _emit(args, {"content": out}, [",".join(out)])
    elif sub in ("lbf", "rbf"):
        f = (words.left_basic_factorization if sub == "lbf" else words.right_basic_factorization)(args.w)
        obj = {"prefix": str(f.prefix), "marker": f.marker, "remainder": str(f.remainder)}
        _emit(args, obj, [f"{f.prefix}|{f.marker}|{f.remainder}"])
    elif sub == "zero":
        prefix, marker = words.zero_funcs(args.w)
        _emit(args, {"zero": str(prefix), "marker": marker}, [f"{prefix}|{marker}"])
    elif sub == "one":
        suffix, marker = words.one_funcs(args.w)
        _emit(args, {"one": str(suffix), "marker": marker}, [f"{suffix}|{marker}"])
    elif sub == "chi":
        seq = words.characteristic_sequence(args.w)
        obj = [{"factor": str(w), "start": s, "end": e} for w, s, e in seq]
        _emit(args, obj, [" ".join(f"{w}[{s},{e}]" for w, s, e in seq)])
    elif sub == "debruijn":
        enc = words.debruijn_encode(args.w, args.n)
        _emit(args, {"encoded": ".".join(enc.letters)}, [".".join(enc.letters)])
    elif sub == "stretch":
        avoid = args.avoid.split(",") if args.avoid else []
        r = words.stretch_word(args.x, avoid, args.s)
        _emit(args, {"r": str(r)}, [str(r)])
    elif sub == "connect":
        t = words.connect_word(args.w, args.a, args.b)
        _emit(args, {"t": str(t)}, [str(t)])
    else:  # subword
        ok = words.is_subword(args.u, args.w)
        _emit(args, {"subword": ok}, [str(ok).lower()])
        return 0 if ok else 1
    return 0


# --- hull / classify ---------------------------------------------------------------

def cmd_hull(args) -> int:
    if args.rees:
        rm = green.rees_from_dict(_load_json(args.path))
        S = constructions.realize(rm)
        size = sum(1 for _ in hull.rees_hull_parameters(rm))
    else:
        S, _ = _load_semigroup(args.path)
        size = sum(len(rhos) for _, rhos in hull.linked_translations(S, bound=args.bound))
    inner = len(set(zip(S.table, S.columns)))  # distinct inner bitranslations (row s, column s)
    red = hull.reductivity(S)
    obj = {"hull_size": size, "inner_image_size": inner, "reductivity": red}
    _emit(
        args,
        obj,
        [
            f"|Omega(S)|={size}",
            f"inner image size={inner}",
            f"reductivity={json.dumps(red)}",
        ],
    )
    return 0


def cmd_classify(args) -> int:
    S, _ = _load_semigroup(args.path)
    obj = hull.classify(S)
    if green.is_completely_simple(S):
        obj["torsion"] = hull.torsion_checks(S)
    _emit(args, obj, _flat_lines(obj))
    return 0


# --- syntactic / orders --------------------------------------------------------------

def cmd_syntactic(args) -> int:
    d = order.dfa_from_dict(_load_json(args.path))
    if args.concat_letter:
        d = order.concat_letter(d, args.concat_letter)
    os_, gens = order.syntactic_semigroup(d, limit=MAX_CONSTRUCTED)
    obj = core.to_dict(os_.semigroup, order=os_.leq)
    obj["generators"] = gens
    print(json.dumps(obj))
    return 0


def cmd_orderable(args) -> int:
    S, _ = _load_semigroup(args.path)
    ok, witness = order.is_orderable(S)
    if ok:
        print(json.dumps({"orderable": True, "order": sorted(list(p) for p in witness.leq)}))
        return 0
    print(json.dumps({"orderable": False}))
    return 1


def cmd_orders(args) -> int:
    S, _ = _load_semigroup(args.path)
    found = order.enumerate_stable_orders(S, limit=args.limit)
    print(json.dumps({"count": len(found), "orders": [sorted(list(p) for p in o.leq) for o in found]}))
    return 0


# --- wiring ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ValueErrors: one line and exit 2 in main."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):  # surplus arguments name their leaf
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


# Each command: (summary, handler, arguments). Its arguments are (positionals, options), or
# {leaf: (positionals, options)} for a command followed by a leaf. Positionals are names, p
# and n read as integers; options map each flag to its add_argument keywords.
_COMMANDS = {
    "analyze": ("full structural report of a semigroup JSON", cmd_analyze,
                ("path", {"--pv": dict(help="comma-separated registry names, or 'all'")})),
    "construct": ("emit semigroup JSON for a construction", cmd_construct, {
        "kp": ("p", {}),
        "rees": ("", {"--a": dict(type=int, default=2), "--b": dict(type=int, default=2),
                      "--group": dict(default="trivial", help="trivial | z:<n> | path"),
                      "--sandwich": dict(help="JSON matrix of group element indices")}),
        "synthesis": ("s t f", {}), "semidirect": ("s t action", {}), "product": ("s t", {}),
        "adjoin": ("s", {"--fresh": dict(action="store_true", help="always add a new identity")}),
    }),
    "check": ("identity / inequality / membership / word problems", cmd_check, {
        "id": ("s lhs rhs", {}), "ineq": ("s lhs rhs", {}), "pv": ("s name", {}),
        "crh": ("u v", {"--h": dict(default="trivial", help="trivial | ab:<n> | groups")}),
        "vdn": ("u v", {"--n": dict(type=int, default=1, help="the D_n depth"),
                        "--in": dict(dest="in_path", required=True, help="semigroup JSON to instantiate V")}),
    }),
    "words": ("word combinatorics", cmd_words, {
        **dict.fromkeys(("content", "lbf", "rbf", "zero", "one", "chi"), ("w", {})),
        "debruijn": ("n w", {}), "stretch": ("x s", {"--avoid": dict(help="comma-separated words to avoid")}),
        "connect": ("w a b", {}), "subword": ("u w", {}),
    }),
    "hull": ("translational hull summary", cmd_hull,
             ("path", {"--bound": dict(type=int, default=8),
                       "--rees": dict(action="store_true", help="input is Rees JSON; use the parametrized path")})),
    "classify": ("LM/RM/GGM/WGGM and torsion flags", cmd_classify, ("path", {})),
    "syntactic": ("syntactic ordered semigroup of a DFA JSON", cmd_syntactic,
                  ("path", {"--concat-letter": dict(dest="concat_letter")})),
    "orderable": ("decide orderability", cmd_orderable, ("path", {})),
    "orders": ("enumerate stable partial orders", cmd_orders, ("path", {"--limit": dict(type=int)})),
}


class _Deferred:
    """The parser_class of every subparsers action here: it keeps a command's or leaf's
    arguments and handler, and builds its parser only when argparse dispatches to it."""

    def __init__(self, arguments, func, abbreviate_leaves=True, **kwargs):
        self.spec = arguments, func, abbreviate_leaves, kwargs

    def parse_known_args(self, args=None, namespace=None):
        arguments, func, abbreviate_leaves, kwargs = self.spec
        parser = _Parser(**kwargs)
        parser.set_defaults(func=func)
        if isinstance(arguments, dict):
            what = parser.add_subparsers(dest="what", required=True, parser_class=_Deferred)
            for leaf, leaf_arguments in arguments.items():
                what.add_parser(leaf, arguments=leaf_arguments, func=func, allow_abbrev=abbreviate_leaves)
        else:
            positionals, options = arguments
            for name in positionals.split():
                parser.add_argument(name, type=int if name in ("p", "n") else None)
            for flag, keywords in options.items():
                parser.add_argument(flag, **keywords)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="eggbox", description=__doc__)
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Deferred)
    for command, (summary, func, arguments) in _COMMANDS.items():
        # No abbreviations on the leaves of check: crh's --h is a prefix of --help, and on
        # another check leaf it must be an unrecognized argument, not a request for help.
        sub.add_parser(command, help=summary, arguments=arguments, func=func,
                       abbreviate_leaves=command != "check")
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Traced replay of one eggbox CLI job in a fresh interpreter.

Usage: python replay.py SPANS_JSON JOB_NAME -- CLI_ARGV...

The replay runs the CLI's own `main` on CLI_ARGV, after swapping each layer
module the CLI calls through its globals (core, green, constructions, hull,
order, terms) for a stand-in that puts a span around every function fetched
from it. The CLI's JSON reading, output and parser building get `cli` spans
the same way. Its stdout, stderr and exit code are those of the CLI job. When
it ends it writes the spans and the job's work counters to SPANS_JSON. Each
job runs in its own interpreter so process-global state (such as the CR
word-problem memo) does not carry from one job to the next.

A span's layer is the module the CLI called. The `job` span encloses the
whole of `main`; its self time is the handlers' own code. Only calls the CLI
makes directly get spans, so a layer's time includes whatever it calls in
other modules. `words` is not swapped: the CLI reaches it only through its
`words` command, which no job runs, and through `terms`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from eggbox import cli, constructions, core, green, hull, order, terms


class Tracer:
    """Spans kept in memory and written out once the job ends."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self.stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self.stack[-1] if self.stack else None,
            "job": self.job,
            "name": name,
            "layer": name.split(".", 1)[0],
            "start_ns": 0,
            "end_ns": 0,
            "error": False,
        }
        self.spans.append(rec)
        self.stack.append(rec["id"])
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield
        except BaseException:
            rec["error"] = True
            raise
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span called `name`; `after(result, *args, **kwargs)`
        runs once it returns, outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced


class TracedModule:
    """Stands in for a layer module: every function fetched from it is
    wrapped in a span named `<module>.<function>`. Classes and other values
    pass through untraced."""

    def __init__(self, tracer: Tracer, module, after=None):
        self._tracer = tracer
        self._module = module
        self._layer = module.__name__.rsplit(".", 1)[-1]
        self._after = after or {}

    def __getattr__(self, attr: str):
        value = getattr(self._module, attr)
        if not inspect.isfunction(value):
            return value
        return self._tracer.wrap(f"{self._layer}.{attr}", value, self._after.get(attr))


class Counters:
    def __init__(self):
        self.validated_triples = 0  # sum of n^3 over semigroups that loaded
        self.assignments = 0  # identity-scan assignments, as defined in run.py

    def loaded(self, S, obj) -> None:
        self.validated_triples += len(S) ** 3

    def scanned_identity(self, result, S, lhs, rhs, **kwargs) -> None:
        _, witness = result
        self.assignments += _scanned(len(S), _letters(lhs, rhs), witness)

    def scanned_pseudovariety(self, result, S, name, **kwargs) -> None:
        _, failing = result
        for lhs, rhs in terms.pseudovariety_basis(name):
            fails_here = failing is not None and (
                terms.term_to_text(lhs), terms.term_to_text(rhs)
            ) == (failing["lhs"], failing["rhs"])
            self.assignments += _scanned(
                len(S), _letters(lhs, rhs), failing["witness"] if fails_here else None
            )
            if fails_here:
                break


def _scanned(n: int, variables, witness) -> int:
    """Assignments a serial scan visits: n^v when the identity holds, else
    the witness's lexicographic rank + 1."""
    if witness is None:
        return n ** len(variables)
    rank = 0
    for v in variables:
        rank = rank * n + witness[v]
    return rank + 1


def _letters(lhs, rhs):
    return sorted(terms.letters_of(lhs) | terms.letters_of(rhs))


def replay(job: str, argv: list[str]) -> tuple[int, Tracer, Counters]:
    t, c = Tracer(job), Counters()
    after = {
        core: {"from_dict": c.loaded},
        terms: {
            "satisfies_identity": c.scanned_identity,
            "pseudovariety_membership": c.scanned_pseudovariety,
        },
    }
    for module in (core, green, constructions, hull, order, terms):
        name = module.__name__.rsplit(".", 1)[-1]
        setattr(cli, name, TracedModule(t, module, after.get(module)))
    for name in ("build_parser", "_load_json", "_emit"):
        setattr(cli, name, t.wrap(f"cli.{name}", getattr(cli, name)))
    with t.span("job"):
        code = cli.main(argv)
    return code, t, c


def main() -> int:
    spans_path, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: replay.py SPANS_JSON JOB_NAME -- CLI_ARGV...")
    code, t, c = replay(job, argv)
    sys.stdout.flush()
    Path(spans_path).write_text(
        json.dumps(
            {
                "job": job,
                "spans": t.spans,
                "counters": {
                    "core.validated_triples": c.validated_triples,
                    "terms.assignments": c.assignments,
                },
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main())

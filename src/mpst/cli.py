"""Command-line front end.

Commands map one-to-one onto library operations: parse, subtype, project,
check-proc, check-session, run, stuck, char-global, char-proc, precise.
One table declares them, one loader parses their arguments, and one emitter
prints each answer, returned unprinted, once and in the one form asked for.

Exit codes: 0 for positive verdicts (subtype holds, well typed, projection
defined, terminated or safe), 1 for negative verdicts (refutation found, ill
typed, stuck, fuel exhausted), 2 for usage errors and malformed input: parse
errors (identifiers and numbers are ASCII; a participant argument parses as
a participant, so a keyword is rejected), ill-formed terms (duplicate
labels, self-communication, unguarded recursion), open session types given
to subtype or precise, input that nests too deeply for the recursive
procedures, and runs that compute a number too long to print.

`--json` renders the report as one JSON document with fields command,
verdict, witness, timings; everything except timings is stable across runs.
A command that fails also writes one, with verdict "error" and witness
{"message": ...}, next to the `error:` line on stderr.

When the reader of standard output leaves early (`mpst ... | head`), the
rest of the output is dropped, with no traceback and the command's code.

Paths beginning with `fixtures/` resolve inside the packaged fixture corpus,
or inside the directory named by the MPST_FIXTURES environment variable when
it is set; an absolute rest or a `..` component names no fixture.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from importlib import resources

from .characteristic import char_global, char_proc, preciseness_check
from .errors import DuplicateLabel, FuelMisuse, MpstError, NumberTooLong, \
    ParseError, ParticipantClash, ProjectionError, SelfCommunication, \
    TypingError, UnguardedRecursion
from .global_types import project
from .parser import parse, parse_process, parse_session
from .runtime import run as run_session, stuck_search
from .subtyping import NsubDerivation, decide, format_derivation
from .syntax import free_vars, participants_of
from .typecheck import check_process, check_session

_EXTENSION_CATEGORY = {".mpst": "sessiontype", ".gt": "globaltype",
                       ".mps": "session"}


class _Usage(MpstError):
    pass


def _read_source(path: str) -> str:
    source, packaged = pathlib.Path(path), None
    if path.startswith("fixtures/"):
        rest = path[len("fixtures/"):]
        if os.path.isabs(rest) or ".." in pathlib.PurePath(rest).parts:
            raise _Usage(f"no packaged fixture {rest!r}")  # outside the corpus
        override = os.environ.get("MPST_FIXTURES")
        if override:
            path = os.path.join(override, rest)
            source = pathlib.Path(path)
        else:
            source = resources.files("mpst").joinpath("fixtures", rest)
            packaged = rest
    missing = (FileNotFoundError, ModuleNotFoundError) if packaged is not None else ()
    try:
        return source.read_text()
    except missing:
        raise _Usage(f"no packaged fixture {packaged!r}") from None
    except OSError as e:
        raise _Usage(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise _Usage(f"cannot read {path}: {e.reason}") from None


def _session_or_process(src: str):
    try:
        return parse_session(src)
    except ParseError as as_session:
        try:
            return parse_process(src)
        except ParseError as as_process:
            # Report the grammar that read further into the input.
            raise max(as_session, as_process,
                      key=lambda e: (e.line, e.col)) from None


def _load(args, params) -> None:
    """Replace each argument of `args` by its parsed term, in order: a
    participant argument is parsed as it stands, any other names the file
    to parse.  Category "any" comes from --category or the extension, and a
    session file may then hold a bare process; "closedtype" has no free
    variables.  `args.given` keeps the arguments as given."""
    args.given = {}
    for name, category in params:
        arg = args.given[name] = getattr(args, name)
        if category == "participant":
            value = parse(arg, category)
        elif category == "any":
            ext = os.path.splitext(arg)[1]
            category = args.category or _EXTENSION_CATEGORY.get(ext)
            if category is None:
                raise _Usage(f"cannot infer category from {arg!r}; pass --category")
            args.category = category
            src = _read_source(arg)
            value = _session_or_process(src) if category == "session" \
                else parse(src, category)
        elif category == "closedtype":
            value = parse(_read_source(arg), "sessiontype")
            if free_vars(value):
                names = ", ".join(sorted(repr(v.name) for v in free_vars(value)))
                raise _Usage(f"{arg}: open session type, unbound variable {names}")
        else:
            value = parse(_read_source(arg), category)
        setattr(args, name, value)


def _shown(term):
    return "ok", term, [term], 0


def _parse(args):
    return "ok", {"category": args.category, "text": args.file}, [args.file], 0


def _subtype(args):
    verdict = decide(args.left, args.right)
    if verdict.relation == "leq":
        return "leq", None, ["≤"], 0
    return "nleq", verdict.derivation, [verdict.derivation], 1


def _project(args):
    if args.participant not in participants_of(args.file):
        print(f"note: {args.participant} is not a participant of "
              f"{args.given['file']}", file=sys.stderr)
    try:
        return _shown(project(args.file, args.participant))
    except ProjectionError as e:
        witness = {"kind": e.kind, "path": list(e.path), "detail": e.detail}
        return "undefined", witness, [e], 1


def _typed(check, *terms):
    try:
        check(*terms)
    except TypingError as e:
        witness = {"rule": e.rule, "path": list(e.path), "message": e.message}
        return "illTyped", witness, [e], 1
    return "ok", None, ["ok"], 0


def _run(args):
    report = run_session(args.session, args.fuel)
    trace = [step.line for step in report.trace]
    witness = {"trace": trace, "state": report.state, "steps": len(trace)}
    shown = trace if args.trace or report.verdict == "stuckFound" else []
    lines = shown + [(f"{report.verdict} after {len(trace)} steps: ", report.state)]
    return report.verdict, witness, lines, int(report.verdict != "terminated")


def _stuck(args):
    report = stuck_search(args.session, args.fuel)
    trace = [step.line for step in report.trace]
    witness = {"trace": trace, "state": report.state, "explored": report.explored}
    if report.verdict == "stuckFound":
        lines = trace + [(f"stuckFound after {len(trace)} steps: ", report.state)]
    elif report.verdict == "diverged":
        lines = [f"diverged: fuel exhausted after {report.explored} states"]
    else:
        lines = [f"{report.verdict} ({report.explored} states explored)"]
    negative = report.verdict in ("stuckFound", "diverged")
    return report.verdict, witness, lines, int(negative)


def _precise(args):
    report = preciseness_check(args.left, args.right, args.fuel)
    verdict = "inconclusive" if report.ok is None else report.relation
    witness = {
        "relation": report.relation,
        "ok": report.ok,
        "detail": report.detail,
        "trace": [step.line for step in report.trace],
        "derivation": report.derivation,
        "session": report.session,
    }
    lines = [f"{report.relation}: {report.detail}"]
    if report.derivation is not None:
        lines.append(report.derivation)
    lines += witness["trace"]
    if report.stuck_state is not None:
        lines.append(("stuck state: ", report.stuck_state))
    if report.ok is False:
        lines.append("preciseness property violated; this indicates a bug")
    code = int(report.ok is not True or report.relation != "leq")
    return verdict, witness, lines, code


_FUEL = ("--fuel", {"type": int, "default": 10000})

# Each command: its function, its help text, its positional arguments as
# (name, category the file parses as, or "participant" for an argument that
# is itself a participant name) and its options as (flag, argparse keywords).
_COMMANDS = {
    "parse": (_parse, "parse a file and print it back", [("file", "any")],
              [("--category", {"choices": ["expr", "process", "session",
                                           "sessiontype", "globaltype"]})]),
    "subtype": (_subtype, "decide subtyping between two types",
                [("left", "closedtype"), ("right", "closedtype")], []),
    "project": (_project, "project a global type onto a role",
                [("file", "globaltype"), ("participant", "participant")], []),
    "check-proc": (lambda a: _typed(check_process, {}, {}, a.process, a.type),
                   "check a process against a type",
                   [("process", "process"), ("type", "sessiontype")], []),
    "check-session": (lambda a: _typed(check_session, a.session, a.globaltype),
                      "check a session against a global type",
                      [("session", "session"), ("globaltype", "globaltype")], []),
    "run": (_run, "execute one reduction path", [("session", "session")],
            [_FUEL, ("--trace", {"action": "store_true"})]),
    "stuck": (_stuck, "search for a reachable stuck state",
              [("session", "session")], [_FUEL]),
    "char-global": (lambda a: _shown(char_global(a.type, a.participant)),
                    "characteristic global type of a type at a role",
                    [("type", "sessiontype"), ("participant", "participant")], []),
    "char-proc": (lambda a: _shown(char_proc(a.type)),
                  "characteristic process of a type",
                  [("type", "sessiontype")], []),
    "precise": (_precise, "exercise the preciseness property on a pair",
                [("left", "closedtype"), ("right", "closedtype")], [_FUEL]),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mpst",
        description="Synchronous multiparty session types: subtyping, "
                    "projection, typing, execution, and preciseness checks.")
    ap.add_argument("--json", action="store_true",
                    help="emit a machine-readable report")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, text, params, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for param, _ in params:
            p.add_argument(param)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return ap


def _failure(e: Exception) -> tuple[str, int]:
    """The message after "error: " and the exit code for a failed command."""
    if isinstance(e, RecursionError):
        return "input nests too deeply", 2
    if isinstance(e, (_Usage, ParseError, FuelMisuse, ParticipantClash,
                      NumberTooLong)):
        return str(e), 2
    ill_formed = (DuplicateLabel, SelfCommunication, UnguardedRecursion)
    return f"{type(e).__name__}: {e}", 2 if isinstance(e, ill_formed) else 1


def _jsonable(part):
    """`json.dumps`'s hook: a term as text, a derivation as its dict, nested."""
    if not isinstance(part, NsubDerivation):
        return str(part)
    return {name: list(map(_jsonable, value)) if name == "children" else value
            for name in ("rule", "left", "right", "note", "children")
            if (value := getattr(part, name))}


def _emit(args, started: float, verdict, witness, lines: list) -> None:
    """The one place an answer becomes text, all of it before any prints."""
    if args.json:
        doc = {"command": args.command, "verdict": verdict, "witness": witness,
               "timings": {"seconds": round(time.monotonic() - started, 6)}}
        lines = [json.dumps(doc, indent=2, default=_jsonable)]
    texts = []
    for line in lines:  # a loop, not a helper: one frame less per level
        if isinstance(line, NsubDerivation):
            line = format_derivation(line)
        texts.append("".join(map(str, line)) if type(line) is tuple else str(line))
    try:
        for text in texts:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left: the rest, and the flush at exit, go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    fn, _, params, _ = _COMMANDS[args.command]
    started = time.monotonic()
    try:
        _load(args, params)
        verdict, witness, lines, code = fn(args)
        _emit(args, started, verdict, witness, lines)
    except (MpstError, RecursionError) as e:
        message, code = _failure(e)
        print(f"error: {message}", file=sys.stderr)
        _emit(args, started, "error", {"message": message}, [])
    return code


if __name__ == "__main__":
    sys.exit(main())

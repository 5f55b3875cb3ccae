"""Command-line front end.

Commands map one-to-one onto library operations: parse, subtype, project,
check-proc, check-session, run, stuck, char-global, char-proc, precise.

Exit codes: 0 for positive verdicts (subtype holds, well typed, projection
defined, terminated or safe), 1 for negative verdicts (refutation found, ill
typed, stuck, fuel exhausted), 2 for usage errors and malformed input: parse
errors, ill-formed terms (duplicate labels, self-communication, unguarded
recursion) and input that nests too deeply for the recursive procedures.

`--json` renders the report as one JSON document with fields command,
verdict, witness, timings; everything except timings is stable across runs.

Paths beginning with `fixtures/` resolve inside the packaged fixture corpus,
or inside the directory named by the MPST_FIXTURES environment variable when
it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources

from . import printer, syntax
from .characteristic import char_global, char_proc, counterexample_session, \
    preciseness_check
from .errors import DuplicateLabel, FuelMisuse, MpstError, ParseError, \
    ParticipantClash, ProjectionError, SelfCommunication, TypingError, \
    UnguardedRecursion
from .global_types import project
from .parser import parse, parse_global_type, parse_process, parse_session, \
    parse_session_type
from .runtime import run as run_session, stuck_search
from .subtyping import decide, format_derivation
from .typecheck import check_process, check_session

_EXTENSION_CATEGORY = {
    ".mpst": "sessiontype",
    ".gt": "globaltype",
    ".mps": "session",
}


class _Usage(Exception):
    pass


def _read_source(path: str) -> str:
    if path.startswith("fixtures/"):
        rest = path[len("fixtures/"):]
        override = os.environ.get("MPST_FIXTURES")
        if override:
            path = os.path.join(override, rest)
        else:
            ref = resources.files("mpst").joinpath("fixtures", rest)
            try:
                return ref.read_text()
            except (FileNotFoundError, ModuleNotFoundError):
                raise _Usage(f"no packaged fixture {rest!r}") from None
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise _Usage(f"cannot read {path}: {e.strerror}") from None


def _category_for(path: str, flag: str | None) -> str:
    if flag:
        return flag
    ext = os.path.splitext(path)[1]
    cat = _EXTENSION_CATEGORY.get(ext)
    if cat is None:
        raise _Usage(f"cannot infer category from {path!r}; pass --category")
    return cat


def _load_type(path: str) -> syntax.SessionType:
    return parse_session_type(_read_source(path))


def _load_global(path: str) -> syntax.GlobalType:
    return parse_global_type(_read_source(path))


def _load_session(path: str) -> syntax.Session:
    return parse_session(_read_source(path))


def _load_process(path: str) -> syntax.Process:
    return parse_process(_read_source(path))


def _derivation_dict(d) -> dict:
    out = {"rule": d.rule, "left": str(d.left), "right": str(d.right)}
    if d.note:
        out["note"] = d.note
    if d.children:
        out["children"] = [_derivation_dict(c) for c in d.children]
    return out


def _trace_lines(trace) -> list[str]:
    return [step.line for step in trace]


class _Report:
    """Collects the verdict and witness for one command invocation."""

    def __init__(self, command: str):
        self.command = command
        self.verdict = ""
        self.witness = None
        self.lines: list[str] = []
        self.exit_code = 0

    def say(self, text: str) -> None:
        self.lines.append(text)


def _cmd_parse(args, rep: _Report) -> None:
    category = _category_for(args.file, args.category)
    src = _read_source(args.file)
    if category == "session":
        try:
            value = parse_session(src)
        except ParseError as as_session:
            try:
                value = parse_process(src)
            except ParseError as as_process:
                # Report the grammar that read further into the input.
                raise max(as_session, as_process,
                          key=lambda e: (e.line, e.col)) from None
    else:
        value = parse(src, category)
    rep.verdict = "ok"
    rep.witness = {"category": category, "text": str(value)}
    rep.say(str(value))


def _cmd_subtype(args, rep: _Report) -> None:
    a = _load_type(args.left)
    b = _load_type(args.right)
    verdict = decide(a, b)
    if verdict.relation == "leq":
        rep.verdict = "leq"
        rep.witness = None
        rep.say("≤")
    else:
        rep.verdict = "nleq"
        rep.witness = _derivation_dict(verdict.derivation)
        rep.say(format_derivation(verdict.derivation))
        rep.exit_code = 1


def _cmd_project(args, rep: _Report) -> None:
    g = _load_global(args.file)
    try:
        t = project(g, args.participant)
    except ProjectionError as e:
        rep.verdict = "undefined"
        rep.witness = {"kind": e.kind, "path": list(e.path), "detail": e.detail}
        rep.say(str(e))
        rep.exit_code = 1
        return
    rep.verdict = "ok"
    rep.witness = str(t)
    rep.say(str(t))


def _cmd_check_proc(args, rep: _Report) -> None:
    p = _load_process(args.process)
    t = _load_type(args.type)
    try:
        check_process({}, {}, p, t)
    except TypingError as e:
        rep.verdict = "illTyped"
        rep.witness = {"rule": e.rule, "path": list(e.path),
                       "message": e.message}
        rep.say(str(e))
        rep.exit_code = 1
        return
    rep.verdict = "ok"
    rep.say("ok")


def _cmd_check_session(args, rep: _Report) -> None:
    m = _load_session(args.session)
    g = _load_global(args.globaltype)
    try:
        check_session(m, g)
    except TypingError as e:
        rep.verdict = "illTyped"
        rep.witness = {"rule": e.rule, "path": list(e.path),
                       "message": e.message}
        rep.say(str(e))
        rep.exit_code = 1
        return
    rep.verdict = "ok"
    rep.say("ok")


def _cmd_run(args, rep: _Report) -> None:
    m = _load_session(args.session)
    report = run_session(m, args.fuel)
    rep.verdict = report.verdict
    rep.witness = {"trace": _trace_lines(report.trace),
                   "state": str(report.state), "steps": len(report.trace)}
    if args.trace or report.verdict == "stuckFound":
        rep.lines.extend(_trace_lines(report.trace))
    rep.say(f"{report.verdict} after {len(report.trace)} steps: "
            f"{report.state}")
    if report.verdict != "terminated":
        rep.exit_code = 1


def _cmd_stuck(args, rep: _Report) -> None:
    m = _load_session(args.session)
    report = stuck_search(m, args.fuel)
    rep.verdict = report.verdict
    rep.witness = {"trace": _trace_lines(report.trace),
                   "state": str(report.state) if report.state else None,
                   "explored": report.explored}
    if report.verdict == "stuckFound":
        rep.lines.extend(_trace_lines(report.trace))
        rep.say(f"stuckFound after {len(report.trace)} steps: {report.state}")
        rep.exit_code = 1
    elif report.verdict == "diverged":
        rep.say(f"diverged: fuel exhausted after {report.explored} states")
        rep.exit_code = 1
    else:
        rep.say(f"{report.verdict} ({report.explored} states explored)")


def _cmd_char_global(args, rep: _Report) -> None:
    t = _load_type(args.type)
    try:
        g = char_global(t, args.participant)
    except ParticipantClash as e:
        raise _Usage(str(e)) from None
    rep.verdict = "ok"
    rep.witness = str(g)
    rep.say(str(g))


def _cmd_char_proc(args, rep: _Report) -> None:
    t = _load_type(args.type)
    p = char_proc(t)
    rep.verdict = "ok"
    rep.witness = str(p)
    rep.say(str(p))


def _cmd_precise(args, rep: _Report) -> None:
    t = _load_type(args.left)
    tp = _load_type(args.right)
    report = preciseness_check(t, tp, args.fuel)
    if report.ok is None:
        rep.verdict = "inconclusive"
        rep.exit_code = 1
    else:
        rep.verdict = report.relation
        if report.relation != "leq" or not report.ok:
            rep.exit_code = 1
    rep.witness = {
        "relation": report.relation,
        "ok": report.ok,
        "detail": report.detail,
        "trace": _trace_lines(report.trace),
        "derivation": (_derivation_dict(report.derivation)
                       if report.derivation else None),
        "session": str(counterexample_session(t, tp))
                   if report.relation == "nleq" else None,
    }
    rep.say(f"{report.relation}: {report.detail}")
    if report.derivation is not None:
        rep.say(format_derivation(report.derivation))
    if report.trace:
        rep.lines.extend(_trace_lines(report.trace))
    if report.stuck_state is not None:
        rep.say(f"stuck state: {report.stuck_state}")
    if report.ok is False:
        rep.say("preciseness property violated; this indicates a bug")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mpst",
        description="Synchronous multiparty session types: subtyping, "
                    "projection, typing, execution, and preciseness checks.")
    ap.add_argument("--json", action="store_true",
                    help="emit a machine-readable report")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a file and print it back")
    p.add_argument("file")
    p.add_argument("--category",
                   choices=["expr", "process", "session", "sessiontype",
                            "globaltype"])
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("subtype", help="decide subtyping between two types")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_subtype)

    p = sub.add_parser("project", help="project a global type onto a role")
    p.add_argument("file")
    p.add_argument("participant")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("check-proc", help="check a process against a type")
    p.add_argument("process")
    p.add_argument("type")
    p.set_defaults(fn=_cmd_check_proc)

    p = sub.add_parser("check-session",
                       help="check a session against a global type")
    p.add_argument("session")
    p.add_argument("globaltype")
    p.set_defaults(fn=_cmd_check_session)

    p = sub.add_parser("run", help="execute one reduction path")
    p.add_argument("session")
    p.add_argument("--fuel", type=int, default=10000)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("stuck", help="search for a reachable stuck state")
    p.add_argument("session")
    p.add_argument("--fuel", type=int, default=10000)
    p.set_defaults(fn=_cmd_stuck)

    p = sub.add_parser("char-global",
                       help="characteristic global type of a type at a role")
    p.add_argument("type")
    p.add_argument("participant")
    p.set_defaults(fn=_cmd_char_global)

    p = sub.add_parser("char-proc", help="characteristic process of a type")
    p.add_argument("type")
    p.set_defaults(fn=_cmd_char_proc)

    p = sub.add_parser("precise",
                       help="exercise the preciseness property on a pair")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--fuel", type=int, default=10000)
    p.set_defaults(fn=_cmd_precise)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    rep = _Report(args.command)
    started = time.monotonic()
    try:
        args.fn(args, rep)
        elapsed = time.monotonic() - started
        if args.json:
            doc = {"command": rep.command, "verdict": rep.verdict,
                   "witness": rep.witness,
                   "timings": {"seconds": round(elapsed, 6)}}
            rep.lines = [json.dumps(doc, indent=2)]
    except (_Usage, ParseError, FuelMisuse) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DuplicateLabel, SelfCommunication, UnguardedRecursion) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 2
    except MpstError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    for line in rep.lines:
        print(line)
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())

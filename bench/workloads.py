"""The four benchmark workloads.

Each workload turns a seed into an endless stream of input items made only
of text, performs one timed operation per item (from parsing the text to a
rendered witness, as a command-line user would), and afterwards checks the
verdict against an answer known by construction and tallies deterministic
counts.  The program under test sees only the text, and the text never
depends on the program: `subtype` and `protocol` render their own generated
terms (generate.py), and `explore` reads a committed pool
(explore_pool.py).
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from importlib import resources

import generate as G
from explore_pool import FUEL, read_pool
from mpst import (NotDerivable, ProjectionError, canonicalize, char_global,
                  char_proc, check_process, check_session,
                  counterexample_session, decide, format_derivation,
                  fresh_participant, global_step, is_terminated, nsub,
                  parse_global_type, parse_session, parse_session_type,
                  project, project_all, regular_tree_equal, show, step_all,
                  stuck_search, sub)
from mpst import syntax as S


class WrongAnswer(Exception):
    """A verdict or witness that contradicts the answer known by
    construction."""


def expect(ok, message):
    if not ok:
        raise WrongAnswer(message)


def term_nodes(term):
    """Number of syntax nodes (dataclass instances) in a parsed term."""
    count = 0
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif dataclasses.is_dataclass(node):
            count += 1
            stack.extend(getattr(node, f.name)
                         for f in dataclasses.fields(node))
    return count


def derivation_nodes(d):
    count = 0
    stack = [d]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def child_env(root):
    """Environment of a child interpreter that imports mpst from root/src."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("MPST_FIXTURES", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Workload:
    name = ""
    warm = 0          # items whose text the timed set-up parses
    count_items = 0   # deterministic counts cover the first items

    def __init__(self, root):
        self.root = root

    def stream(self, seed):
        raise NotImplementedError

    def parse_jobs(self, item):
        """The (parser, text) pairs of an item; parser is "type",
        "global" or "session"."""
        return []


# --------------------------------------------------------------------------
# subtype: criterion 5's pair distribution
# --------------------------------------------------------------------------


class Subtype(Workload):
    """Pairs from criterion 5's distribution.  A pair whose text is longer
    than MAX_PAIR_TEXT is drawn again: such pairs come up about once in
    1 600 draws, and one of them can take several seconds alone, a fifth
    of a run.  Below the cap the nsub tail stays: nsub takes about half of
    the workload's time, and a few pairs per run of 300-2 000 characters
    take 0.5-1.8 s each."""

    name = "subtype"
    warm = 200
    count_items = 400
    MAX_PAIR_TEXT = 2_000

    def stream(self, seed):
        rng = random.Random(seed)
        while True:
            a = G.gen_type(rng, rng.randint(0, 5))
            if rng.random() < 0.4:
                b, expected = G.gen_supertype(rng, a), "leq"
            else:
                b, expected = G.gen_type(rng, rng.randint(0, 5)), None
            left, right = G.show_type(a), G.show_type(b)
            if len(left) + len(right) <= self.MAX_PAIR_TEXT:
                yield left, right, expected

    def parse_jobs(self, item):
        return [("type", item[0]), ("type", item[1])]

    def op(self, item, tr):
        left, right, _ = item
        with tr.span("parser.parse"):
            a = parse_session_type(left)
            b = parse_session_type(right)
        with tr.span("subtyping.sub"):
            holds = sub(a, b)
        with tr.span("subtyping.nsub"):
            try:
                d = nsub(a, b)
            except NotDerivable:
                d = None
        with tr.span("printer.show"):
            witness = "≤" if d is None else format_derivation(d)
        return a, b, holds, d, witness

    def account(self, item, result, tally):
        left, right, expected = item
        a, b, holds, d, witness = result
        expect(holds == (d is None),
               f"sub and nsub disagree on {left} vs {right}")
        if expected == "leq":
            expect(holds, f"supertype pair refuted: {left} vs {right}")
        tally.n["decided"] += 1
        tally.n["leq"] += holds
        if d is not None:
            tally.n["derivation_nodes"] += derivation_nodes(d)
        tally.n["input_nodes"] += term_nodes(a) + term_nodes(b)
        tally.n["chars"] += len(left) + len(right)


# --------------------------------------------------------------------------
# protocol: projection, typing and the characteristic constructions
# --------------------------------------------------------------------------


class Protocol(Workload):
    name = "protocol"
    warm = 200
    count_items = 400

    def stream(self, seed):
        rng = random.Random(seed)
        while True:
            g = G.gen_global(rng, rng.randint(1, 4))
            t = G.gen_type(rng, rng.randint(0, 4))
            yield G.show_global(g), G.show_type(t)

    def parse_jobs(self, item):
        return [("global", item[0]), ("type", item[1])]

    def op(self, item, tr):
        gtext, ttext = item
        with tr.span("parser.parse"):
            g = parse_global_type(gtext)
            t = parse_session_type(ttext)
        lines = []
        try:
            with tr.span("global_types.project"):
                locals_ = project_all(g)
        except ProjectionError as e:
            locals_ = None
            lines.append(str(e))
        if locals_:
            with tr.span("characteristic.char_proc"):
                procs = [(role, char_proc(lt))
                         for role, lt in locals_.items()]
            session = S.Session(tuple(procs))
            with tr.span("typecheck.check_session"):
                check_session(session, g)
            with tr.span("global_types.global_step"):
                steps = global_step(g)
            with tr.span("printer.show"):
                lines += [show(lt) for lt in locals_.values()]
                lines.append(show(session))
                lines += [f"{a}: {show(rest)}" for a, rest in steps]
        with tr.span("characteristic.char_global"):
            p = fresh_participant(t)
            cg = char_global(t, p)
        with tr.span("global_types.project"):
            back = project(cg, p)
        with tr.span("syntax.regular_tree_equal"):
            same = regular_tree_equal(back, t)
        with tr.span("characteristic.char_proc"):
            cp = char_proc(t)
        with tr.span("typecheck.check_process"):
            check_process({}, {}, cp, t)
        with tr.span("printer.show"):
            lines += [show(cg), show(cp)]
        return g, t, locals_, same, lines

    def account(self, item, result, tally):
        g, t, locals_, same, lines = result
        expect(same, f"char_global does not project back to {item[1]}")
        tally.n["projected"] += 1
        tally.n["defined"] += locals_ is not None
        tally.n["input_nodes"] += term_nodes(g) + term_nodes(t)
        tally.n["chars"] += len(item[0]) + len(item[1])


# --------------------------------------------------------------------------
# explore: stuck search over products of independent protocols
# --------------------------------------------------------------------------


class Explore(Workload):
    """Items come from the committed pool (see explore_pool.py): safe
    products of 2-3 protocols, and every fourth item a counterexample
    session next to protocols that always end.  The pool is cut into
    STRATA groups of items of like kind and state bound, and the stream
    goes in rounds that take one item of each group, in an order the seed
    shuffles.  So every run meets the same mix of items, whichever seed
    picks them."""

    name = "explore"
    warm = 64
    count_items = 8
    STRATA = 24

    def __init__(self, root):
        super().__init__(root)
        pool = read_pool()
        ranked = sorted(pool, key=lambda line: (line["item"][0] == "cx",
                                                line["states"]))
        size = len(ranked) // self.STRATA
        self.strata = [[tuple(line["item"])
                        for line in ranked[i * size:(i + 1) * size]]
                       for i in range(self.STRATA)]

    def stream(self, seed):
        rng = random.Random(seed)
        strata = [list(stratum) for stratum in self.strata]
        while True:
            for stratum in strata:
                rng.shuffle(stratum)
            for round_ in zip(*strata):
                round_ = list(round_)
                rng.shuffle(round_)
                yield from round_

    def parse_jobs(self, item):
        if item[0] == "safe":
            return [("session", item[1])]
        return [("type", item[1]), ("type", item[2]),
                ("session", item[3])]

    def op(self, item, tr):
        verdict = None
        if item[0] == "safe":
            with tr.span("parser.parse"):
                m = parse_session(item[1])
        else:
            with tr.span("parser.parse"):
                t = parse_session_type(item[1])
                tp = parse_session_type(item[2])
                others = parse_session(item[3])
            with tr.span("subtyping.decide"):
                verdict = decide(t, tp)
            with tr.span("characteristic.counterexample"):
                cx = counterexample_session(t, tp)
            m = S.Session(cx.parts + others.parts)
        with tr.span("runtime.stuck_search"):
            report = stuck_search(m, FUEL)
        with tr.span("printer.show"):
            lines = [step.line for step in report.trace]
            lines.append(report.verdict if report.state is None
                         else f"{report.verdict}: {show(report.state)}")
        return m, verdict, report

    def account(self, item, result, tally):
        m, verdict, report = result
        if item[0] == "safe":
            expect(report.verdict in ("terminated", "noStuckWithinFuel"),
                   f"safe product reported {report.verdict}: {item[1]}")
        else:
            expect(verdict.relation == "nleq",
                   f"refuted pair decided {verdict.relation}")
            expect(report.verdict == "stuckFound",
                   f"counterexample product reported {report.verdict}")
            state = canonicalize(m)
            for step in report.trace:
                succs = [nxt for s, nxt in step_all(state) if s == step]
                expect(succs, f"trace step {step.line} does not replay")
                state = succs[0]
            expect(not step_all(state) and not is_terminated(state),
                   "replayed trace does not end in a stuck state")
            tally.n["decided"] += 1
            tally.n["derivation_nodes"] += derivation_nodes(
                verdict.derivation)
        tally.n["states_explored"] += report.explored
        tally.n["trace_steps"] += len(report.trace)
        tally.n["input_nodes"] += sum(term_nodes(proc)
                                      for _, proc in m.parts)
        tally.n["chars"] += sum(len(text) for text in item[1:])


# --------------------------------------------------------------------------
# cli: the README commands as fresh processes
# --------------------------------------------------------------------------


# The README commands that run on packaged fixtures, with the exit code and
# verdict the fixtures document.  `check-proc` needs a user file, so it is
# left out.
COMMANDS = (
    (("parse", "fixtures/sec3_global.gt"), 0, "ok"),
    (("subtype", "fixtures/sec5_nat.mpst", "fixtures/sec5_int.mpst"), 0,
     "leq"),
    (("project", "fixtures/sec3_global.gt", "r"), 0, "ok"),
    (("check-session", "fixtures/adder.mps", "fixtures/adder.gt"), 0, "ok"),
    (("run", "fixtures/adder_zero.mps", "--trace"), 0, "terminated"),
    (("stuck", "fixtures/adder_mismatch.mps", "--fuel", "10000"), 1,
     "stuckFound"),
    (("char-global", "fixtures/ex1_T.mpst", "p"), 0, "ok"),
    (("char-proc", "fixtures/ex1_T.mpst"), 0, "ok"),
    (("precise", "fixtures/ex2_T.mpst", "fixtures/ex2_Tp.mpst"), 1, "nleq"),
)

# Witnesses recorded next to the fixtures, compared after parsing.
WITNESS_FIXTURES = {
    "project": ("sec3_proj_r.mpst", parse_session_type),
    "char-global": ("ex1_char_global.gt", parse_global_type),
}


class Cli(Workload):
    name = "cli"

    def __init__(self, root):
        super().__init__(root)
        self.env = child_env(root)
        self.witnesses = {
            command: parse(resources.files("mpst").joinpath(
                "fixtures", name).read_text())
            for command, (name, parse) in WITNESS_FIXTURES.items()}

    def python(self, *args):
        """Run the interpreter on args; returns (seconds, completed)."""
        started = time.perf_counter()
        done = subprocess.run([sys.executable, *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=120)
        return time.perf_counter() - started, done

    def stream(self, seed):
        rng = random.Random(seed)
        while True:
            round_ = list(COMMANDS)
            rng.shuffle(round_)
            yield from round_

    def op(self, item, tr):
        argv, _, _ = item
        with tr.span("cli.process"):
            seconds, done = self.python("-m", "mpst", "--json", *argv)
        return seconds, done.returncode, done.stdout

    def account(self, item, result, tally):
        argv, code, verdict = item
        seconds, returncode, stdout = result
        expect(returncode == code,
               f"mpst {' '.join(argv)} exited {returncode}, expected {code}")
        doc = json.loads(stdout)
        expect(doc["verdict"] == verdict,
               f"mpst {argv[0]} said {doc['verdict']}, expected {verdict}")
        if argv[0] in self.witnesses:
            parse = WITNESS_FIXTURES[argv[0]][1]
            expect(regular_tree_equal(parse(doc["witness"]),
                                      self.witnesses[argv[0]]),
                   f"mpst {argv[0]} witness differs from the fixture")
        tally.samples["cli.process_s"].append(seconds)
        tally.samples["cli.command_s"].append(doc["timings"]["seconds"])


WORKLOADS = {w.name: w for w in (Subtype, Protocol, Explore, Cli)}

"""The synchronous interpreter: stepping, runs, and the stuck-state search."""

import gzip
import hashlib
import json
import pathlib
import random
from collections import deque

import pytest

import gen
import mpst.printer
import mpst.runtime
from conftest import fixture_text
from mpst import (
    FuelMisuse,
    ProjectionError,
    Session,
    Step,
    canonicalize,
    char_proc,
    counterexample_session,
    eval_all,
    is_terminated,
    parse_session,
    parse_session_type,
    project_all,
    run,
    show,
    step_all,
    stuck_search,
)
from mpst import syntax as S

M = parse_session


def load_session(name):
    return M(fixture_text(name))


class TestCanonicalize:
    def test_all_terminated_collapses_to_sentinel(self):
        assert show(canonicalize(M("@p 0 || @q 0"))) == "@_ 0"

    def test_head_recursion_unfolds(self):
        assert show(canonicalize(M("@p mu X.q!l(1).X || @q 0"))) == (
            "@p q!l(1).(mu X.q!l(1).X)")

    def test_terminated_members_are_dropped(self):
        m = canonicalize(M("@p q!l(1).0 || @q p?l(x).0 || @r 0"))
        assert show(m) == "@p q!l(1).0 || @q p?l(x).0"

    def test_input_summands_sort_without_printing_their_bodies(self, monkeypatch):
        # char_proc shares each input's continuation between the arms of its
        # probe, so each summand's body prints as 2**16 copies of a prefix.
        deep = "p?l(nat)." * 16 + "end"
        proc = char_proc(parse_session_type(f"q?b(nat).{deep} & q?a(nat).{deep}"))
        printed = []
        show_proc = mpst.printer.show_proc

        def counting(*args):
            printed.append(args[0])
            return show_proc(*args)

        monkeypatch.setattr(mpst.printer, "show_proc", counting)
        state = canonicalize(Session((("r", proc),)))
        assert [q.label for q in state.parts[0][1].branches] == ["a", "b"]
        assert printed == []

    def test_summands_with_equal_headers_sort_by_their_text(self):
        m = canonicalize(M("@p q?l(x).q?b(y).0 + q?l(x).q?a(y).0 + q!k(1).0"
                           " || @q 0"))
        assert show(m) == "@p q!k(1).0 + q?l(x).q?a(y).0 + q?l(x).q?b(y).0"
        m = canonicalize(M("@p q?m(x).0 + q?l(y).0 + q?l(x).0 + r?a(x).0"))
        assert show(m) == "@p q?l(x).0 + q?l(y).0 + q?m(x).0 + r?a(x).0"

    def test_is_terminated(self):
        assert is_terminated(M("@p 0"))
        assert is_terminated(M("@p 0 || @q 0"))
        assert not is_terminated(M("@p q!l(1).0 || @q p?l(x).0"))


class TestStepAll:
    def test_communication_substitutes_the_value(self):
        steps = step_all(M("@p q!l(7).0 || @q p?l(x).p!m(x).0"))
        assert len(steps) == 1
        st, m2 = steps[0]
        assert st.rule == "r-comm"
        assert st.line == str(st) == "p --l(7)--> q"
        assert (st.source, st.label, st.target) == ("p", "l", "q")
        assert st.value == S.Num(7)
        assert show(m2) == "@q p!m(7).0"

    def test_nondeterministic_payload_forks(self):
        steps = step_all(M("@p q!l(1 (+) 2).0 || @q p?l(x).p!m(x).0"))
        assert [st.line for st, _ in steps] == ["p --l(1)--> q", "p --l(2)--> q"]
        assert [show(m2) for _, m2 in steps] == ["@q p!m(1).0", "@q p!m(2).0"]

    def test_receiver_choice_picks_the_matching_summand(self):
        steps = step_all(M("@p q!b(5).0 || @q p?a(x).p!r1(x).0 + p?b(x).0"))
        assert [st.line for st, _ in steps] == ["p --b(5)--> q"]
        assert show(steps[0][1]) == "@_ 0"

    def test_every_summand_with_the_label_fires(self):
        # Which summand fires must not depend on the bound variables' names.
        for receiver in ("p?l(x).0 + p?l(y).p!m(true).0",
                         "p?l(x).p!m(true).0 + p?l(y).0"):
            m = M(f"@p q!l(1).0 || @q {receiver}")
            assert sorted(show(m2) for _, m2 in step_all(m)) == [
                "@_ 0", "@q p!m(true).0"]
            assert stuck_search(m, 100).verdict == "stuckFound"

    def test_conditional_forks_per_boolean(self):
        steps = step_all(M("@p if true then q!l(1).0 else 0 || @q p?l(x).0"))
        assert [(st.rule, st.line) for st, _ in steps] == [
            ("t-conditional", "p --if(true)--> p")]
        wild = step_all(M("@p if true (+) false then q!l(1).0 else 0"
                          " || @q p?l(x).0"))
        assert sorted(st.rule for st, _ in wild) == [
            "f-conditional", "t-conditional"]

    def test_no_step_when_partners_disagree(self):
        assert step_all(M("@p q!l(1).q?a(y).0 || @q p?m(x).p!a(2).0")) == []
        assert step_all(M("@p q!l(1).0 || @q p?l(x).0 + r?m(y).0 || @r 0")) == []

    def test_no_step_on_stuck_expressions(self):
        assert step_all(M("@p if succ -1 > 0 then q!l(1).0 else q!l(2).0"
                          " || @q p?l(x).0")) == []
        assert step_all(M("@p q!l(x).0 || @q p?l(y).0")) == []


class TestRun:
    def test_deterministic_run_to_termination(self):
        report = run(load_session("adder_zero.mps"), 100)
        assert report.verdict == "terminated"
        assert [st.line for st in report.trace] == [
            "cl --l1(5)--> add",
            "cl --l2(0)--> add",
            "add --if(false)--> add",
            "add --l4(true)--> inc",
            "add --l4(true)--> dec",
            "add --l3(5)--> cl",
        ]

    def test_run_reports_stuck_states(self):
        report = run(load_session("adder_mismatch.mps"), 100)
        assert report.verdict == "stuckFound"
        assert report.trace == ()

    def test_run_builds_only_the_successor_it_takes(self, monkeypatch):
        built = []
        real = mpst.runtime._successor
        monkeypatch.setattr("mpst.runtime._successor",
                            lambda *move: built.append(move) or real(*move))
        report = run(parse_session(
            "@p q!l(1).0 || @q p?l(x).0 || @r s!m(2).0 || @s r?m(y).0"), 10)
        assert report.verdict == "terminated"
        assert len(built) == len(report.trace) == 2

    def test_run_terminating_on_its_last_unit_of_fuel(self):
        report = run(parse_session("@p q!l(1).0 || @q p?l(x).0"), 1)
        assert report.verdict == "terminated"
        assert [st.line for st in report.trace] == ["p --l(1)--> q"]

    def test_run_stuck_on_its_last_unit_of_fuel(self):
        m = parse_session("@p q!l(1).q!n(2).0 || @q p?l(x).p?m(y).0")
        for fuel in (1, 2):
            report = run(m, fuel)
            assert report.verdict == "stuckFound", fuel
            assert [st.line for st in report.trace] == ["p --l(1)--> q"]
            assert str(report.state) == "@p q!n(2).0 || @q p?m(y).0"

    def test_run_exhausts_fuel_on_loops(self):
        report = run(load_session("adder.mps"), 20)
        assert report.verdict == "diverged"


class TestStuckSearch:
    def test_terminating_session(self):
        report = stuck_search(M("@p q!l(7).0 || @q p?l(x).0"), 100)
        assert report.verdict == "terminated"
        assert report.explored == 2

    def test_service_loop_cycles_without_sticking(self):
        report = stuck_search(load_session("adder.mps"), 10000)
        assert report.verdict == "noStuckWithinFuel"
        assert report.explored == 7

    def test_extended_service_loop_also_cycles(self):
        report = stuck_search(load_session("adder_ext.mps"), 10000)
        assert report.verdict == "noStuckWithinFuel"

    def test_zero_input_run_terminates(self):
        report = stuck_search(load_session("adder_zero.mps"), 10000)
        assert report.verdict == "terminated"

    def test_mismatch_is_stuck_immediately(self):
        report = stuck_search(load_session("adder_mismatch.mps"), 10000)
        assert report.verdict == "stuckFound"
        assert report.trace == ()
        assert show(report.state) == (
            "@add cl?l2(x).(if neg x > 0 then cl?l1(x).0 else cl?l1(x).0)"
            " || @cl add!l1(5).add!l2(4).0")

    def test_witness_is_shortest(self):
        m = M("@p if true (+) false then q!a(1).q!b(1).r!c(true).0"
              " else r!c(true).0"
              " || @q p?a(x).p?b(y).0"
              " || @r 0")
        report = stuck_search(m, 1000)
        assert report.verdict == "stuckFound"
        assert [st.line for st in report.trace] == ["p --if(false)--> p"]

    def test_trace_replays_to_the_stuck_state(self):
        report = stuck_search(load_session("adder_mismatch.mps"), 10000)
        state = canonicalize(load_session("adder_mismatch.mps"))
        for st in report.trace:
            successors = dict((s.line, m2) for s, m2 in step_all(state))
            state = successors[st.line]
        assert state == report.state
        assert step_all(state) == []
        assert not is_terminated(state)

    def test_trace_names_the_summand_that_fired(self):
        # Two summands offer `l`; only the first leads to a stuck state.
        m = M("@p q!l(1).0 || @q p?l(x).p!m(true).0 + p?l(y).0")
        report = stuck_search(m, 100)
        assert report.verdict == "stuckFound"
        assert [st.line for st in report.trace] == ["p --l(1)--> q #1"]
        assert [st.summand for st in report.trace] == [1]
        by_line = by_step = canonicalize(m)
        for st in report.trace:
            by_line = {s.line: m2 for s, m2 in step_all(by_line)}[st.line]
            by_step = dict(step_all(by_step))[st]
        assert by_line == by_step == report.state

    def test_fuel_exhaustion_is_reported(self):
        report = stuck_search(load_session("adder.mps"), 3)
        assert report.verdict == "diverged"
        assert report.explored == 3

    def test_fuel_must_be_positive(self):
        with pytest.raises(FuelMisuse):
            stuck_search(M("@p 0"), 0)
        with pytest.raises(FuelMisuse):
            run(M("@p 0"), -5)

    def test_random_searches_classify_consistently(self):
        rng = random.Random(601)
        verdicts = {"terminated": 0, "stuckFound": 0,
                    "noStuckWithinFuel": 0, "diverged": 0}
        for _ in range(150):
            m = Session((("a1", gen.gen_process(rng, 3, roles=("a2",))),
                         ("a2", gen.gen_process(rng, 3, roles=("a1",)))))
            report = stuck_search(m, 400)
            verdicts[report.verdict] += 1
            if report.verdict == "stuckFound":
                state = canonicalize(m)
                for st in report.trace:
                    state = dict((s.line, m2)
                                 for s, m2 in step_all(state))[st.line]
                assert state == report.state
                assert step_all(state) == []
                assert not is_terminated(state)
            elif report.verdict == "terminated":
                assert report.state is None
        assert verdicts["stuckFound"] >= 100
        assert verdicts["terminated"] >= 2


THREE_MESSAGES = "@r s!a(1).s!b(2).s!c(3).0 || @s r?a(x).r?b(y).r?c(z).0"


class TestReduction:
    """Sessions whose roles fall into independent groups.  The search
    expands one group per state; verdicts and trace lengths are those of
    the full search."""

    @pytest.mark.parametrize("text, verdict, length", [
        ("@p mu X.q!l(1).q?m(y).X || @q mu Y.p?l(x).p!m(x).Y"
         " || @r s!a(1).0 || @s r?a(x).0", "noStuckWithinFuel", 0),
        ("@p mu X.if true (+) false then q!l(1).X else q!e(1).0"
         " || @q mu Y.(p?l(x).Y + p?e(x).0) || " + THREE_MESSAGES,
         "noStuckWithinFuel", 0),
        ("@p q!l(1).q!m(2).0 || @q p?l(x).p?n(y).0 || " + THREE_MESSAGES,
         "stuckFound", 4),
        ("@a b!x(1).0 || @b a?x(v).c!y(v).0 || @c b?y(w).0"
         " || @d e!z(1).0 || @e d?z(u).0", "terminated", 0),
    ], ids=["ping-pong beside an ending pair",
            "loop-or-end conditional beside three messages",
            "stuck pair beside three messages",
            "chain of three beside a pair"])
    def test_verdict_and_trace_length_are_kept(self, text, verdict, length):
        report = stuck_search(M(text), 10000)
        assert (report.verdict, len(report.trace)) == (verdict, length)
        assert reference_search(M(text))[:2] == (verdict, length)

    def test_a_search_computes_each_roles_moves_once(self, monkeypatch):
        m = M(" || ".join(f"@a{i} b{i}!l(1).b{i}!m(2).0 || @b{i} a{i}?l(x).a{i}?m(y).0"
                          for i in range(3)))
        calls = []
        values = mpst.runtime._values

        def counting(e):
            calls.append(e)
            return values(e)

        monkeypatch.setattr(mpst.runtime, "_values", counting)
        report = stuck_search(m, 10000)
        searched = len(calls)
        assert report.verdict == "terminated"
        # Every (role, process, partner's process) of a sender in the full
        # state graph; each has its moves, and so its values, computed once.
        triples, seen, todo = set(), set(), [canonicalize(m)]
        while todo:
            state = todo.pop()
            mapping = state.mapping()
            triples |= {(r, p, mapping.get(p.partner)) for r, p in state.parts
                        if isinstance(p, S.Output)}
            for _, nxt in step_all(state):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        assert len(triples) == 6
        assert searched <= len(triples)

    def test_independent_groups_are_not_interleaved(self):
        m = M("@p q!l(1).q!m(2).0 || @q p?l(x).p?n(y).0 || " + THREE_MESSAGES)
        report = stuck_search(m, 10000)
        assert report.explored == 5
        assert reference_search(m)[2] == 8
        assert show(report.state) == "@p q!m(2).0 || @q p?n(y).0"


def reference_step_all(m):
    """Successors as first written: apply a step's changes to every entry
    of the canonical state and canonicalise the whole session again."""
    m = canonicalize(m)
    mapping = dict(m.parts)
    out = []

    def successor(changes):
        entries = tuple((r, changes.get(r, p)) for r, p in m.parts)
        return canonicalize(Session(entries))

    for role, proc in m.parts:
        if isinstance(proc, S.Cond):
            for v in sorted(eval_all(proc.guard), key=str):
                if not isinstance(v, S.BoolLit):
                    continue
                branch = proc.then if v.value else proc.orelse
                rule = "t-conditional" if v.value else "f-conditional"
                step = Step(rule, f"{role} --if({v})--> {role}",
                            source=role, target=role, value=v)
                out.append((step, successor({role: branch})))
        elif isinstance(proc, S.Output):
            for summand in offered(mapping.get(proc.partner), role, proc.label):
                for v in sorted(eval_all(proc.payload), key=str):
                    body = S.subst(summand.body, S.Var(summand.var), v)
                    step = Step("r-comm",
                                f"{role} --{proc.label}({v})--> {proc.partner}",
                                source=role, target=proc.partner,
                                label=proc.label, value=v)
                    out.append((step, successor({role: proc.body,
                                                 proc.partner: body})))
    return out


def offered(receiver, sender, label):
    """The summands of `receiver` that take `label` from `sender`: every
    summand with that label when `receiver` is an input choice toward
    `sender` alone, none otherwise."""
    if receiver is None:
        return []
    summands = (receiver.branches if isinstance(receiver, S.ExtChoice)
                else (receiver,))
    if not all(isinstance(q, S.Input) and q.partner == sender
               for q in summands):
        return []
    return [q for q in summands if q.label == label]


def random_sessions(rng, count):
    """Sessions of random processes, and the characteristic sessions of
    random projectable global types, which run for longer."""
    roles = ("a1", "a2", "a3")
    while count:
        m = Session(tuple(
            (r, gen.gen_process(rng, 3, roles=tuple(x for x in roles if x != r)))
            for r in roles))
        yield m
        try:
            views = project_all(gen.gen_global(rng, 3))
        except ProjectionError:
            continue
        if views:
            yield Session(tuple((r, char_proc(t)) for r, t in views.items()))
        count -= 1


def test_successors_match_whole_session_canonicalisation():
    compared = 0
    for m in random_sessions(random.Random(4242), 100):
        seen = {canonicalize(m)}
        frontier = [m]
        while frontier and len(seen) < 60:
            state = frontier.pop()
            got = step_all(state)
            assert got == reference_step_all(state)
            compared += 1
            for _, nxt in got:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    assert compared >= 500


def reference_search(m):
    """The full breadth-first search over `step_all`, with no reduction:
    (verdict, length of a shortest stuck trace, states seen).  Fuel is not
    modelled.  A cycle is whatever is left after repeatedly peeling off
    states with no successor left."""
    start = canonicalize(m)
    depth = {start: 0}
    edges = {}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        succs = [] if is_terminated(state) else [n for _, n in step_all(state)]
        if not succs and not is_terminated(state):
            return "stuckFound", depth[state], len(depth)
        edges[state] = set(succs)
        for n in succs:
            if n not in depth:
                depth[n] = depth[state] + 1
                queue.append(n)
    preds = {s: [] for s in edges}
    for s, succs in edges.items():
        for n in succs:
            preds[n].append(s)
    left = {s: len(succs) for s, succs in edges.items()}
    sinks = [s for s, k in left.items() if k == 0]
    peeled = 0
    while sinks:
        peeled += 1
        for p in preds[sinks.pop()]:
            left[p] -= 1
            if left[p] == 0:
                sinks.append(p)
    verdict = "terminated" if peeled == len(edges) else "noStuckWithinFuel"
    return verdict, 0, len(depth)


EXPLORE_POOL = (pathlib.Path(__file__).parents[1]
                / "bench" / "data" / "explore.jsonl.gz")


def explore_pool():
    """The items of the benchmark's explore pool, in file order."""
    with gzip.open(EXPLORE_POOL, "rt", encoding="utf-8") as f:
        return [json.loads(line)["item"] for line in f]


def explore_session(item):
    """The session an explore pool item stands for: the safe product, or
    the counterexample session beside protocols that always end."""
    if item[0] == "safe":
        return parse_session(item[1])
    cx = counterexample_session(parse_session_type(item[1]),
                                parse_session_type(item[2]))
    return Session(cx.parts + parse_session(item[3]).parts)


def test_reduced_search_agrees_with_the_full_search():
    pool = [explore_session(item) for item in explore_pool()[::8]]
    corpus = [counterexample_session(a, b) for a, b in
              gen.refuted_pairs(random.Random(4242), 300, 2000)]
    assert len(pool) == 150 and len(corpus) == 300
    for m in pool + corpus:
        report = stuck_search(m, 10000)
        verdict, length, _ = reference_search(m)
        assert (report.verdict, len(report.trace)) == (verdict, length), show(m)
        if verdict == "stuckFound":
            state = canonicalize(m)
            for st in report.trace:
                state = dict(step_all(state))[st]
            assert state == report.state
            assert step_all(state) == []
            assert not is_terminated(state)


def test_explored_states_are_canonical():
    """`canonicalize` is idempotent on every state a walk reaches."""
    checked = 0
    for item in explore_pool()[::100]:
        start = canonicalize(explore_session(item))
        seen = {start}
        frontier = [start]
        while frontier:
            state = frontier.pop()
            assert canonicalize(state) == state
            checked += 1
            for _, nxt in step_all(state):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    assert checked >= 1000


# The first item of each of the 24 strata of the benchmark's explore pool
# (ranked by kind, then state bound, as the explore workload cuts it) and
# its (verdict, explored, trace length) under stuck_search with fuel 10000.
# `explored` counts the states of the reduced graph, one group of roles
# expanded per state; the full graph had 48 to 225 states per item.
EXPLORE_GOLDEN = [
    ("noStuckWithinFuel", 3, 0),
    ("terminated", 14, 0),
    ("terminated", 14, 0),
    ("terminated", 14, 0),
    ("noStuckWithinFuel", 7, 0),
    ("terminated", 14, 0),
    ("terminated", 13, 0),
    ("terminated", 14, 0),
    ("terminated", 13, 0),
    ("terminated", 15, 0),
    ("noStuckWithinFuel", 14, 0),
    ("terminated", 17, 0),
    ("noStuckWithinFuel", 12, 0),
    ("terminated", 13, 0),
    ("terminated", 15, 0),
    ("terminated", 14, 0),
    ("terminated", 16, 0),
    ("noStuckWithinFuel", 13, 0),
    ("stuckFound", 7, 6),
    ("stuckFound", 7, 5),
    ("stuckFound", 8, 5),
    ("stuckFound", 11, 9),
    ("stuckFound", 12, 8),
    ("stuckFound", 22, 8),
]


def test_stuck_search_counts_on_the_explore_pool():
    with gzip.open(EXPLORE_POOL, "rt", encoding="utf-8") as f:
        pool = [json.loads(line) for line in f]
    ranked = sorted(pool, key=lambda line: (line["item"][0] == "cx",
                                            line["states"]))
    size = len(ranked) // len(EXPLORE_GOLDEN)
    got = []
    for i in range(len(EXPLORE_GOLDEN)):
        report = stuck_search(explore_session(ranked[i * size]["item"]), 10000)
        got.append((report.verdict, report.explored, len(report.trace)))
    assert got == EXPLORE_GOLDEN


def test_outputs_on_the_whole_explore_pool():
    """A golden digest of `stuck_search(m, 10000)` on every item of the
    explore pool (verdict, explored count, trace lines and printed state)
    and of `run(m, 200)` on every 4th item (verdict, step count and final
    state)."""
    digest = hashlib.sha256()
    for i, item in enumerate(explore_pool()):
        m = explore_session(item)
        report = stuck_search(m, 10000)
        state = "-" if report.state is None else show(report.state)
        lines = "\n".join(st.line for st in report.trace)
        digest.update(f"{report.verdict} {report.explored}\n{lines}\n"
                      f"{state}\n\n".encode())
        if i % 4 == 0:
            walk = run(m, 200)
            digest.update(f"{walk.verdict} {len(walk.trace)}\n"
                          f"{show(walk.state)}\n\n".encode())
    assert digest.hexdigest() == (
        "dbf6f7f2bc61d926e8cea8f7a7f215ff117cfabc4eaadb150e5555fe293cdaba")

"""Acceptance suite: eight criteria, one pass or fail line each.

Each test exercises one end-to-end guarantee and reports a single
[PASS]/[FAIL] line in the terminal summary via conftest.acceptance_lines.
"""

import random
import time

import pytest

import conftest
import gen
from conftest import fixture_text
from mpst import (
    CommAction,
    NotDerivable,
    ProjectionError,
    canonicalize,
    char_global,
    char_proc,
    check_process,
    check_session,
    counterexample_session,
    decide,
    fresh_participant,
    global_step,
    is_terminated,
    nsub,
    parse_global_type,
    parse_session,
    parse_session_type,
    project,
    project_all,
    run,
    show,
    step_all,
    stuck_search,
    sub,
)
from mpst import syntax as S


def _record(number, description, body):
    try:
        body()
    except BaseException as exc:
        conftest.acceptance_lines.append(
            f"[FAIL] criterion {number}: {description} ({exc})")
        raise
    conftest.acceptance_lines.append(
        f"[PASS] criterion {number}: {description}")


def test_criterion_1_two_branch_projection():
    def body():
        g = parse_global_type(fixture_text("sec3_global.gt"))
        expected = parse_session_type(fixture_text("sec3_proj_r.mpst"))
        started = time.monotonic()
        got = project(g, "r")
        equal = S.regular_tree_equal(got, expected)
        elapsed = time.monotonic() - started
        assert equal, show(got)
        assert show(expected) == "q?l3(int).end & q?l5(nat).end"
        assert elapsed < 1.0, f"projection took {elapsed:.3f}s"

    _record(1, "projection of sec3_global onto r replays sec3_proj_r"
               " in under 1s", body)


def test_criterion_2_characteristic_global_replay():
    def body():
        t = parse_session_type(fixture_text("ex1_T.mpst"))
        displayed = parse_global_type(fixture_text("ex1_char_global.gt"))
        g = char_global(t, "p")
        assert S.regular_tree_equal(g, displayed), show(g)
        expected_r = parse_session_type(fixture_text("ex1_proj_r.mpst"))
        assert S.regular_tree_equal(project(g, "r"), expected_r)
        nochain = parse_global_type(fixture_text("ex1_nochain.gt"))
        with pytest.raises(ProjectionError) as exc:
            project(nochain, "r")
        assert exc.value.detail == "cannot merge p!l2(int).end with end"

    _record(2, "char_global(ex1_T, p) and its projection onto r replay the"
               " ex1 fixtures; dropping the relay chain makes the merge"
               " undefined", body)


def test_criterion_3_stuck_counterexample_vs_safe_variant():
    def body():
        t = parse_session_type(fixture_text("ex2_T.mpst"))
        tp = parse_session_type(fixture_text("ex2_Tp.mpst"))
        noncyclic = parse_global_type(fixture_text("ex2_noncyclic.gt"))
        entries = [("p", char_proc(t))]
        for role in ("p1", "p2"):
            entries.append((role, char_proc(project(noncyclic, role))))
        report = run(S.Session(tuple(entries)), 10000)
        assert report.verdict == "terminated", report.verdict
        assert show(report.state) == "@_ 0"
        stuck = stuck_search(counterexample_session(t, tp, "p"), 10000)
        assert stuck.verdict == "stuckFound", stuck.verdict
        assert len(stuck.trace) <= 6, len(stuck.trace)

    _record(3, "the relay-free ex2 session reduces to the all-0 state while"
               " the counterexample session is stuckFound within 6 steps",
            body)


def test_criterion_4_adder_system():
    def body():
        session = parse_session(fixture_text("adder.mps"))
        protocol = parse_global_type(fixture_text("adder.gt"))
        check_session(session, protocol)
        swapped = decide(
            parse_session_type(fixture_text("sec5_swapped_T.mpst")),
            parse_session_type(fixture_text("sec5_swapped_Tp.mpst")))
        assert swapped.relation == "nleq", swapped.relation
        mismatch = parse_session(fixture_text("adder_mismatch.mps"))
        state = canonicalize(mismatch)
        assert not is_terminated(state)
        assert step_all(state) == []
        report = stuck_search(mismatch, 10000)
        assert report.verdict == "stuckFound"
        assert len(report.trace) == 0

    _record(4, "adder session checks against its protocol, the swapped pair"
               " decides nleq, and the mismatch session is stuck with zero"
               " steps", body)


def test_criterion_5_complementarity():
    def body():
        rng = random.Random(20260816)
        started = time.monotonic()
        leq = nleq = 0
        for a, b in gen.subtype_pairs(rng, 10000):
            holds = sub(a, b)
            try:
                nsub(a, b)
                refuted = True
            except NotDerivable:
                refuted = False
            assert holds != refuted, f"{show(a)} vs {show(b)}"
            if holds:
                leq += 1
            else:
                nleq += 1
        elapsed = time.monotonic() - started
        assert leq >= 1500 and nleq >= 1500, (leq, nleq)
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"

    _record(5, "10000 random pairs (depth <= 5, 3 participants, 4 labels,"
               " 3 sorts) satisfy exactly one of sub/nsub in under 60s",
            body)


def test_criterion_6_counterexamples_always_get_stuck():
    def body():
        pairs = gen.refuted_pairs(random.Random(4242), 300, 2000)
        for a, b in pairs:
            report = stuck_search(counterexample_session(a, b), 10000)
            assert report.verdict == "stuckFound", (
                f"{show(a)} vs {show(b)}: {report.verdict}")
        assert len(pairs) >= 300, len(pairs)

    _record(6, "300 random nleq pairs (depth <= 4) all yield counterexample"
               " sessions that are stuckFound within fuel 10000", body)


def test_criterion_7_safe_sessions_and_subject_reduction():
    def body():
        rng = random.Random(77007)
        checked = edges = 0
        while checked < 300:
            g = gen.gen_global(rng, rng.randint(1, 3))
            try:
                projections = project_all(g)
            except ProjectionError:
                continue
            if not projections:
                continue
            checked += 1
            session = S.Session(tuple(
                (role, char_proc(local))
                for role, local in sorted(projections.items())))
            report = stuck_search(session, 10000)
            assert report.verdict != "stuckFound", show(g)
            seen = set()
            frontier = [(session, g)]
            while frontier and len(seen) < 600:
                state, remaining = frontier.pop()
                key = (show(state), show(remaining))
                if key in seen:
                    continue
                seen.add(key)
                for step, successor in step_all(state):
                    if step.rule == "r-comm":
                        action = CommAction(
                            step.source, step.label, step.target)
                        matches = [g2 for a2, g2 in global_step(remaining)
                                   if a2 == action]
                        assert len(matches) == 1, (
                            f"{show(remaining)} has no unique step"
                            f" {action}")
                        consumed = matches[0]
                    else:
                        consumed = remaining
                    check_session(successor, consumed)
                    edges += 1
                    frontier.append((successor, consumed))
        assert edges >= 300, edges

    _record(7, "300 random projectable globals: characteristic sessions are"
               " never stuckFound and every explored step re-types against"
               " the consumed global", body)


def test_criterion_8_identity_properties():
    def body():
        rng = random.Random(88008)
        for _ in range(1000):
            t = gen.gen_type(rng, rng.randint(0, 4))
            p = fresh_participant(t)
            g = char_global(t, p)
            assert S.regular_tree_equal(project(g, p), t), show(t)
            check_process({}, {}, char_proc(t), t)

    _record(8, "char_global(T, p) projects back to T and char_proc(T) checks"
               " against T on 1000 random types", body)

"""Characteristic global types, characteristic processes, and preciseness."""

import random

import pytest

import gen
from conftest import distinct_nodes, fixture_text
from mpst import (
    InternalError,
    ParticipantClash,
    ProjectionError,
    char_global,
    char_proc,
    check_process,
    counterexample_session,
    decide,
    fresh_participant,
    parse_global_type,
    parse_session_type,
    participants_of,
    preciseness_check,
    project,
    project_all,
    regular_tree_equal,
    show,
    stuck_search,
    sub,
)
from mpst.errors import TypingError
from mpst.runtime import Step, StuckReport
from mpst.subtyping import format_derivation

T = parse_session_type


def denotational_probe(t, tp):
    """True iff typability of the characteristic process implies subtyping."""
    try:
        check_process({}, {}, char_proc(t), tp)
    except TypingError:
        return True
    return sub(t, tp)


class TestCharGlobal:
    def test_single_partner_needs_no_relays(self):
        g = char_global(T("q!l(nat).end"), "p")
        assert show(g) == "p -> q : l(nat).end"
        g2 = char_global(T("q?l(int).end"), "p")
        assert show(g2) == "q -> p : l(int).end"

    def test_two_partners_get_a_boolean_relay_cycle(self):
        t = T(fixture_text("ex1_T.mpst"))
        got = char_global(t, "p")
        want = parse_global_type(fixture_text("ex1_char_global.gt"))
        assert regular_tree_equal(got, want)

    def test_relay_cycle_makes_the_projection_observable(self):
        t = T(fixture_text("ex1_T.mpst"))
        got = project(char_global(t, "p"), "r")
        want = T(fixture_text("ex1_proj_r.mpst"))
        assert regular_tree_equal(got, want)

    def test_ordered_sends_keep_their_order_through_relays(self):
        tp = T(fixture_text("ex2_Tp.mpst"))
        got = char_global(tp, "p")
        want = parse_global_type(fixture_text("ex2_char_global.gt"))
        assert regular_tree_equal(got, want)
        assert show(got) == ("p -> p2 : l2(nat).p2 -> p1 : l2(bool)."
                             "p1 -> p2 : l2(bool).p -> p1 : l1(nat)."
                             "p1 -> p2 : l1(bool).p2 -> p1 : l1(bool).end")

    def test_occupied_participant_is_rejected(self):
        with pytest.raises(ParticipantClash) as exc:
            char_global(T("q!l(nat).end"), "q")
        assert str(exc.value) == "q already occurs in q!l(nat).end"

    def test_projection_at_the_subject_recovers_the_type(self):
        rng = random.Random(701)
        for _ in range(300):
            t = gen.gen_type(rng, 4)
            p = fresh_participant(t)
            g = char_global(t, p)
            assert regular_tree_equal(project(g, p), t)

    def test_characteristic_globals_project_on_every_role(self):
        rng = random.Random(702)
        for _ in range(200):
            t = gen.gen_type(rng, 4)
            p = fresh_participant(t)
            g = char_global(t, p)
            views = project_all(g)
            assert set(views) == set(participants_of(g))


class TestCharProc:
    def test_input_probes_the_received_value(self):
        assert show(char_proc(T("p?l(nat).end"))) == (
            "p?l(x).(if succ x > 0 then 0 else 0)")
        assert show(char_proc(T("p?l(int).end"))) == (
            "p?l(x).(if neg x > 0 then 0 else 0)")
        assert show(char_proc(T("p?l(bool).end"))) == (
            "p?l(x).(if not x then 0 else 0)")

    def test_output_sends_the_probe_value(self):
        assert show(char_proc(T("p!l(nat).end"))) == "p!l(5).0"
        assert show(char_proc(T("p!l(int).end"))) == "p!l(-5).0"
        assert show(char_proc(T("p!l(bool).end"))) == "p!l(true).0"

    def test_union_selects_with_nested_coin_flips(self):
        t = T("p!l1(nat).end \\/ p!l2(int).end \\/ p!l3(bool).end")
        assert show(char_proc(t)) == (
            "if true (+) false then p!l1(5).0"
            " else if true (+) false then p!l2(-5).0 else p!l3(true).0")

    def test_recursion_and_branching(self):
        t = T("mu t.p?a(bool).t & p?b(nat).end")
        assert show(char_proc(t)) == (
            "mu X_t.p?a(x).(if not x then X_t else X_t)"
            " + p?b(x).(if succ x > 0 then 0 else 0)")

    def test_text_is_the_tree_and_doubles_per_input(self):
        # Each input's conditional shares one continuation in both arms,
        # so the graph grows by six nodes per input and its text, the
        # paper's tree, to twice the continuation's text plus 34 characters.
        for k in range(13):
            p = char_proc(T("p?l(nat)." * k + "end"))
            assert len(str(p)) == 35 * 2 ** k - 34
            assert len(distinct_nodes(p)) == 6 * k + 1

    def test_characteristic_process_has_its_type(self):
        rng = random.Random(703)
        for _ in range(200):
            t = gen.gen_type(rng, 4)
            check_process({}, {}, char_proc(t), t)


class TestFreshParticipant:
    def test_first_unused_name(self):
        assert fresh_participant(T("q!l(nat).end")) == "_c0"
        assert fresh_participant(T("_c0!l(nat).end")) == "_c1"
        assert fresh_participant(T("_c0!l(nat).end"),
                                 T("_c1?l(int).end")) == "_c2"


class TestCounterexampleSession:
    def test_sort_violation_reaches_a_stuck_probe(self):
        t = T(fixture_text("nsub_in_in_T.mpst"))
        tp = T(fixture_text("nsub_in_in_Tp.mpst"))
        m = counterexample_session(t, tp)
        assert show(m) == ("@_c0 p?l(x).(if succ x > 0 then 0 else 0)"
                           " || @p _c0!l(-5).0")
        report = stuck_search(m, 1000)
        assert report.verdict == "stuckFound"
        assert [st.line for st in report.trace] == ["p --l(-5)--> _c0"]
        assert show(report.state) == "@_c0 if succ -5 > 0 then 0 else 0"

    def test_counterexamples_for_random_negative_pairs(self):
        rng = random.Random(704)
        found = 0
        for _ in range(80):
            a = gen.gen_type(rng, 3)
            b = gen.gen_type(rng, 3)
            if decide(a, b).relation != "nleq":
                continue
            m = counterexample_session(a, b)
            report = stuck_search(m, 10000)
            assert report.verdict == "stuckFound", (show(a), show(b))
            found += 1
        assert found >= 40


class TestPreciseness:
    def test_widening_is_sound(self):
        report = preciseness_check(T(fixture_text("sec5_nat.mpst")),
                                   T(fixture_text("sec5_int.mpst")))
        assert report.relation == "leq"
        assert report.ok is True
        assert report.detail == "substituted session is safe (terminated, 7 states)"

    def test_reordering_is_completed_by_a_stuck_witness(self):
        report = preciseness_check(T(fixture_text("ex2_T.mpst")),
                                   T(fixture_text("ex2_Tp.mpst")))
        assert report.relation == "nleq"
        assert report.ok is True
        assert report.detail == "counterexample session got stuck after 0 steps"
        assert report.trace == ()
        assert report.derivation.rule == "nsub-diff-part"
        assert report.stuck_state is not None

    def test_reflexive_pairs_are_safe(self):
        report = preciseness_check(T("end"), T("end"))
        assert report.relation == "leq"
        assert report.ok is True
        assert report.detail == "substituted session is safe (terminated, 1 states)"

    @pytest.mark.parametrize("left, right, relation", [
        ("sec5_nat.mpst", "sec5_int.mpst", "leq"),
        ("sec5_int.mpst", "sec5_nat.mpst", "nleq"),
    ])
    def test_too_little_fuel_is_inconclusive(self, left, right, relation):
        report = preciseness_check(T(fixture_text(left)), T(fixture_text(right)),
                                   fuel=1)
        assert report.relation == relation
        assert report.ok is None
        assert report.detail.startswith("fuel exhausted after 1 states")

    @pytest.mark.parametrize("left, right, outcome, ok, detail", [
        ("sec5_nat.mpst", "sec5_int.mpst", "stuckFound", False,
         "soundness violated: subtype substitution got stuck"),
        ("sec5_nat.mpst", "sec5_int.mpst", "diverged", None,
         "fuel exhausted after 3 states; no stuck state found so far"),
        ("sec5_nat.mpst", "sec5_int.mpst", "terminated", True,
         "substituted session is safe (terminated, 3 states)"),
        ("sec5_nat.mpst", "sec5_int.mpst", "noStuckWithinFuel", True,
         "substituted session is safe (noStuckWithinFuel, 3 states)"),
        ("sec5_int.mpst", "sec5_nat.mpst", "stuckFound", True,
         "counterexample session got stuck after 1 steps"),
        ("sec5_int.mpst", "sec5_nat.mpst", "diverged", None,
         "fuel exhausted after 3 states without finding the stuck state"),
        ("sec5_int.mpst", "sec5_nat.mpst", "terminated", False,
         "completeness violated: counterexample session reported terminated"),
        ("sec5_int.mpst", "sec5_nat.mpst", "noStuckWithinFuel", False,
         "completeness violated: counterexample session reported "
         "noStuckWithinFuel"),
    ])
    def test_every_search_verdict_has_its_report(self, monkeypatch, left,
                                                 right, outcome, ok, detail):
        # Every verdict of the search, whether or not the real search can
        # give it for the pair, maps to one report; only stuckFound carries
        # a trace and a state, as in `stuck_search`.
        searched = []

        def search(m, fuel):
            searched.append((m, fuel))
            if outcome != "stuckFound":
                return StuckReport(outcome, explored=3)
            return StuckReport(outcome, (Step("r-comm", "a -> b: l(5)"),), m, 3)

        monkeypatch.setattr("mpst.runtime.stuck_search", search)
        t, tp = T(fixture_text(left)), T(fixture_text(right))
        report = preciseness_check(t, tp, fuel=7)
        [(session, fuel)] = searched
        assert fuel == 7
        assert show(session) == show(counterexample_session(t, tp))
        leq = left == "sec5_nat.mpst"
        assert report.relation == ("leq" if leq else "nleq")
        assert report.ok is ok
        assert report.detail == detail
        stuck = outcome == "stuckFound"
        assert report.trace == ((Step("r-comm", "a -> b: l(5)"),) if stuck else ())
        assert report.stuck_state is (session if stuck else None)
        assert report.session is (None if leq else session)
        if leq:
            assert report.derivation is None
        else:
            assert format_derivation(report.derivation) == (
                "[nsub-out-out] add!l1(int).add!l2(int).add?l3(int).end !<= "
                "add!l1(nat).add!l2(nat).add?l3(int).end  "
                "(sort int is not a subsort of nat)")

    def test_projection_failure_is_an_internal_error(self, monkeypatch):
        def fail(g, role):
            raise ProjectionError("mergeUndefined", ())

        monkeypatch.setattr("mpst.characteristic.project", fail)
        for t in ("p!l(nat).end", "p!l(int).end"):  # leq and nleq
            with pytest.raises(InternalError):
                preciseness_check(T(t), T("p!l(nat).end"))

    def test_each_role_is_projected_once(self, monkeypatch):
        projected = []

        def counting(g, role):
            projected.append(role)
            return project(g, role)

        monkeypatch.setattr("mpst.characteristic.project", counting)
        t = T(fixture_text("ex1_T.mpst"))
        report = preciseness_check(t, t)
        assert (report.relation, report.ok) == ("leq", True)
        assert projected == ["q", "r"]

    def test_a_shared_conditional_arm_is_checked_once(self, monkeypatch):
        # char_proc gives both arms of each input's probe one continuation;
        # checking it once per arm doubled the work per input prefix.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return check_process(*args, **kwargs)

        monkeypatch.setattr("mpst.typecheck.check_process", counting)
        t = T("p!l(nat)." * 16 + "end")
        report = preciseness_check(t, t)
        assert (report.relation, report.ok) == ("leq", True)
        assert len(calls) < 1000

    def test_random_pairs_are_never_refuted(self):
        rng = random.Random(705)
        relations = {"leq": 0, "nleq": 0}
        for _ in range(60):
            a = gen.gen_type(rng, 3)
            b = gen.gen_supertype(rng, a) if rng.random() < 0.5 else gen.gen_type(rng, 3)
            report = preciseness_check(a, b, fuel=10000)
            assert report.ok is True, (show(a), show(b), report.detail)
            relations[report.relation] += 1
        assert relations["leq"] >= 15
        assert relations["nleq"] >= 15

    def test_typability_of_the_probe_implies_subtyping(self):
        rng = random.Random(706)
        for _ in range(300):
            a = gen.gen_type(rng, 4)
            b = gen.gen_type(rng, 4)
            assert denotational_probe(a, b)
            assert denotational_probe(a, a)

"""Process typing: goal-directed checking, synthesis, and session checking."""

import random

import pytest

import gen
from conftest import fixture_text
from mpst import (
    Sort,
    TypingError,
    char_proc,
    check_process,
    check_session,
    parse_global_type,
    parse_process,
    parse_session,
    parse_session_type,
    show,
    sub,
    synthesize_process,
)
from mpst import syntax as S
from mpst import typecheck
from mpst.syntax import subst

P = parse_process
T = parse_session_type


class TestCheckProcess:
    def test_inact_needs_end(self):
        check_process({}, {}, P("0"), T("end"))
        with pytest.raises(TypingError) as exc:
            check_process({}, {}, P("0"), T("p?l(nat).end"))
        assert exc.value.rule == "t-0"

    def test_output_payload_sort(self):
        check_process({}, {}, P("q!l(5).0"), T("q!l(nat).end"))
        check_process({}, {}, P("q!l(5).0"), T("q!l(int).end"))
        with pytest.raises(TypingError) as exc:
            check_process({}, {}, P("q!l(true).0"), T("q!l(nat).end"))
        assert exc.value.rule == "t-out"
        assert "payload sort bool is not a subsort of nat" in str(exc.value)

    def test_output_label_must_be_offered(self):
        with pytest.raises(TypingError) as exc:
            check_process({}, {}, P("q!l9(1).0"), T("q!l(nat).end"))
        assert str(exc.value) == "[t-out]: label l9 not offered by q!l(nat).end"

    def test_output_checks_against_a_wider_union(self):
        check_process({}, {}, P("p!l1(5).0"),
                      T("p!l1(nat).end \\/ p!l2(int).end"))

    def test_input_gets_the_goal_sort(self):
        check_process({}, {}, P("q?l(x).q!m(x).0"), T("q?l(nat).q!m(int).end"))
        with pytest.raises(TypingError):
            check_process({}, {}, P("q?l(x).q!m(x).0"),
                          T("q?l(bool).q!m(int).end"))

    def test_choice_must_cover_every_goal_branch(self):
        check_process({}, {}, P("q?l1(x).0 + q?l2(x).0"),
                      T("q?l1(int).end & q?l2(int).end"))
        with pytest.raises(TypingError) as exc:
            check_process({}, {}, P("q?l1(x).0"),
                          T("q?l1(int).end & q?l2(int).end"))
        assert exc.value.rule == "t-in-choice"
        assert "no summand for required label l2" in str(exc.value)

    def test_extra_summands_must_be_well_typed_on_their_own(self):
        check_process({}, {}, P("q?l1(x).0 + q?l2(x).0"), T("q?l1(int).end"))
        with pytest.raises(TypingError):
            check_process({}, {}, P("q?l1(x).0 + q?l2(x).if 5 then 0 else 0"),
                          T("q?l1(int).end"))

    def test_duplicate_summand_labels_rejected(self):
        with pytest.raises(TypingError) as exc:
            check_process({}, {}, P("q?l1(x).0 + q?l2(x).0 + q?l1(x).q!l5(true).0"),
                          T("q?l2(int).end & q?l1(int).q!l5(bool).end"))
        assert exc.value.rule == "t-in-choice"
        assert "duplicate summand label l1" in str(exc.value)

    def test_wrong_partner_rejected(self):
        with pytest.raises(TypingError) as exc:
            check_process({}, {}, P("r?l(x).0"), T("q?l(int).end"))
        assert "input expects partner q, process receives from r" in str(exc.value)

    def test_conditional_needs_boolean_guard(self):
        check_process({}, {}, P("if true then 0 else 0"), T("end"))
        with pytest.raises(TypingError) as exc:
            check_process({}, {}, P("if 1 then 0 else 0"), T("end"))
        assert exc.value.rule == "t-cond"

    def test_conditional_arms_both_check_against_the_goal(self):
        t = T("p!l1(nat).end \\/ p!l2(int).end")
        check_process({}, {}, P("if true then p!l1(5).0 else p!l2(-5).0"), t)
        with pytest.raises(TypingError):
            check_process({}, {}, P("if true then p!l1(5).0 else p!l3(-5).0"), t)

    def test_recursion_checks_against_recursive_goal(self):
        check_process({}, {}, P("mu X.q!l(1).X"), T("mu t.q!l(nat).t"))
        check_process({}, {}, P("mu X.q!l(1).X"), T("mu t.q!l(int).t"))
        check_process({}, {}, P("mu X.q!l(1).X"), T("mu t.q!l(nat).q!l(nat).t"))
        with pytest.raises(TypingError):
            check_process({}, {}, P("mu X.q!l(1).X"), T("mu t.q!l(bool).t"))

    def test_unbound_variables(self):
        with pytest.raises(TypingError) as exc:
            check_process({}, {}, P("X"), T("end"))
        assert exc.value.rule == "t-var"
        with pytest.raises(TypingError) as exc:
            check_process({}, {}, P("q!l(x).0"), T("q!l(nat).end"))
        assert exc.value.rule == "unboundVariable"

    def test_process_variable_uses_subtyping(self):
        gamma = {"X": T("p!l(nat).end")}
        check_process(gamma, {}, P("X"), T("p!l(nat).end"))
        check_process(gamma, {}, P("X"), T("p!l(int).end"))
        with pytest.raises(TypingError) as exc:
            check_process(gamma, {}, P("X"), T("p!l(bool).end"))
        assert exc.value.rule == "t-var"

    @pytest.mark.parametrize("text, message", [
        ("q?a(x).0 + r?b(y).0", "summands receive from different partners: q, r"),
        ("q?a(x).0 + p!b(1).0", "summand p!b(1).0 is not an input"),
    ])
    def test_a_choice_must_be_inputs_from_one_partner(self, text, message):
        with pytest.raises(TypingError) as exc:
            check_process({}, {}, P(text), T("q?a(nat).end"))
        assert exc.value.rule == "t-in-choice"
        assert message in str(exc.value)

    def test_paths_locate_the_failure(self):
        with pytest.raises(TypingError) as exc:
            check_process({}, {}, P("q!l(5).q!m(true).0"),
                          T("q!l(nat).q!m(nat).end"))
        assert exc.value.path == ("l",)


class TestSynthesize:
    def test_loop(self):
        assert show(synthesize_process({}, {}, P("mu X.p!l(5).X"))) == (
            "mu t0.p!l(nat).t0")

    def test_conditional_joins_outputs(self):
        t = synthesize_process({}, {}, P("if true then p!l1(5).0 else p!l2(-5).0"))
        assert show(t) == "p!l1(nat).end \\/ p!l2(int).end"

    def test_branching_loop(self):
        t = synthesize_process({}, {}, P("mu X.(p?a(x).0 + p?b(x).X)"))
        assert show(t) == "mu t0.p?a(int).end & p?b(int).t0"

    def test_input_sort_is_driven_by_the_body(self):
        assert show(synthesize_process({}, {}, P("p?a(x).0"))) == "p?a(int).end"
        assert show(synthesize_process({}, {}, P("p?a(x).p!c(succ x).0"))) == (
            "p?a(nat).p!c(nat).end")
        assert show(synthesize_process({}, {}, P("p?a(x).p!c(not x).0"))) == (
            "p?a(bool).p!c(bool).end")

    def test_only_inputs_whose_variable_is_read_try_every_sort(
            self, monkeypatch):
        # x0 is read, so it tries int, which fails, then bool; the 39 inputs
        # after it are not read and try int alone.  Trying every sort at
        # every input would make about 3^40 calls: the budget stops them.
        p = P("".join(f"p?l{i}(x{i})." for i in range(40))
              + "if x0 then 0 else 0")
        synthesize = typecheck.synthesize_process
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            if calls > 500:
                raise AssertionError("over 500 synthesis calls")
            return synthesize(*args)

        monkeypatch.setattr(typecheck, "synthesize_process", counted)
        t = counted({}, {}, p)
        assert show(t) == "p?l0(bool)." + "".join(
            f"p?l{i}(int)." for i in range(1, 40)) + "end"
        assert calls == 82

    def test_join_failure_is_reported(self):
        with pytest.raises(TypingError) as exc:
            synthesize_process({}, {}, P("if true then p!l(5).0 else q!l(5).0"))
        assert exc.value.rule == "illegalUnion"

    def test_arms_that_disagree_on_a_label_have_no_union(self):
        with pytest.raises(TypingError) as exc:
            synthesize_process({}, {}, P("if true then p!a(1).0 else p!a(true).0"))
        assert exc.value.rule == "illegalUnion"
        assert "branches disagree on label a" in str(exc.value)

    def test_nested_loops(self):
        t = synthesize_process({}, {}, P(
            "mu X.p!a(1).mu Y.(if true then p!b(1).X else p!c(2).Y)"))
        assert show(t) == "mu t0.p!a(nat).(mu t1.p!b(nat).t0 \\/ p!c(nat).t1)"

    def test_a_loop_that_never_recurs_is_its_body(self):
        assert show(synthesize_process({}, {}, P("mu X.p!a(1).0"))) == (
            "p!a(nat).end")

    def test_unbound_process_variable(self):
        with pytest.raises(TypingError) as exc:
            synthesize_process({}, {}, P("X"))
        assert exc.value.rule == "t-var"
        assert "unbound process variable X" in str(exc.value)

    def test_unproductive_loop_rejected(self):
        with pytest.raises(TypingError) as exc:
            synthesize_process({}, {}, P("mu X.if true then X else X"))
        assert exc.value.rule == "t-rec"

    def test_synthesized_types_check(self):
        rng = random.Random(502)
        ok = 0
        for _ in range(400):
            p = gen.gen_process(rng, 3, vars=("x",))
            for s in (Sort.NAT, Sort.INT, Sort.BOOL):
                try:
                    t = synthesize_process({}, {"x": s}, p)
                except TypingError:
                    continue
                check_process({}, {"x": s}, p, t)
                ok += 1
                break
        assert ok >= 100

    def test_checking_is_closed_under_widening_without_loops(self):
        rng = random.Random(503)
        ok = 0
        for _ in range(400):
            p = gen.gen_process(rng, 3, allow_rec=False)
            try:
                t = synthesize_process({}, {}, p)
            except TypingError:
                continue
            w = gen.gen_supertype(rng, t)
            assert sub(t, w)
            check_process({}, {}, p, w)
            ok += 1
        assert ok >= 100

    def test_substituting_a_value_of_the_right_sort_preserves_typing(self):
        rng = random.Random(504)
        lits = {Sort.NAT: S.Num(3), Sort.INT: S.Num(-3),
                Sort.BOOL: S.BoolLit(True)}
        ok = 0
        for _ in range(300):
            p = gen.gen_process(rng, 3, vars=("x",))
            for s in (Sort.NAT, Sort.INT, Sort.BOOL):
                try:
                    t = synthesize_process({}, {"x": s}, p)
                except TypingError:
                    continue
                q = subst(p, S.Var("x"), lits[s])
                check_process({}, {}, q, t)
                ok += 1
                break
        assert ok >= 80

    def test_characteristic_processes_check_against_their_type(self):
        rng = random.Random(505)
        for _ in range(150):
            t = gen.gen_type(rng, 4)
            check_process({}, {}, char_proc(t), t)


class TestCheckSession:
    def test_service_loop_session_is_well_typed(self):
        g = parse_global_type(fixture_text("adder.gt"))
        check_session(parse_session(fixture_text("adder.mps")), g)
        check_session(parse_session(fixture_text("adder_ext.mps")), g)
        check_session(parse_session(fixture_text("adder_zero.mps")), g)

    def test_swapped_order_session_is_well_typed(self):
        g = parse_global_type(fixture_text("sec5_swapped.gt"))
        check_session(parse_session(fixture_text("sec5_swapped_ok.mps")), g)

    def test_client_sending_in_protocol_order_fails_the_swapped_protocol(self):
        g = parse_global_type(fixture_text("sec5_swapped.gt"))
        bad = parse_session("@cl add!l1(5).add!l2(4).0"
                            " || @add cl?l2(x).cl?l1(y).0")
        with pytest.raises(TypingError) as exc:
            check_session(bad, g)
        assert str(exc.value) == ("[t-out] at cl: label l1 not offered by"
                                  " add!l2(int).add!l1(int).end")

    def test_every_protocol_participant_needs_a_process(self):
        g = parse_global_type(fixture_text("sec5_swapped.gt"))
        lonely = parse_session("@cl add!l2(4).add!l1(5).0")
        with pytest.raises(TypingError) as exc:
            check_session(lonely, g)
        assert exc.value.rule == "participantMissing"
        assert exc.value.path == ("add",)

    def test_non_participants_must_be_terminated(self):
        g = parse_global_type("p -> q : l(nat).end")
        check_session(parse_session("@p q!l(5).0 || @q p?l(x).0 || @r 0"), g)
        with pytest.raises(TypingError) as exc:
            check_session(parse_session(
                "@p q!l(5).0 || @q p?l(x).0 || @r q!m(5).0"), g)
        assert exc.value.path == ("r",)
        assert "output to q against non-output type end" in str(exc.value)

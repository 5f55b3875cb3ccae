"""Syntax trees: constructor invariants, printing, parsing, and helpers."""

import copy
import importlib
import os
import pathlib
import pickle
import random
import subprocess
import sys
from importlib import resources

import pytest

import gen
import mpst
from conftest import subterm_closure
from mpst import (
    Branch,
    DuplicateLabel,
    ParseError,
    SelfCommunication,
    Session,
    Sort,
    TEnd,
    TIn,
    TOut,
    TRec,
    TVar,
    UnguardedRecursion,
    char_proc,
    parse,
    parse_expr,
    parse_global_type,
    parse_process,
    parse_session,
    parse_session_type,
    participants_of,
    regular_tree_equal,
    show,
    unfold,
)
from mpst import parser
from mpst import syntax as S
from mpst.cli import _EXTENSION_CATEGORY
from mpst.syntax import (
    ext_choice,
    free_vars,
    subst,
    unfold_spine,
)


def declared_fields(cls) -> list[str]:
    """The fields a class declares as annotations, base classes first."""
    return [f for c in reversed(cls.__mro__)
            for f in vars(c).get("__annotations__", {})]


class TestPrinting:
    def test_type_union(self):
        t = parse_session_type("q!l1(nat).r?l2(int).end \\/ q!l3(int).end")
        assert show(t) == "q!l1(nat).r?l2(int).end \\/ q!l3(int).end"

    def test_type_recursive_intersection(self):
        t = parse_session_type("mu t.p?a(int).end & p?b(int).t")
        assert show(t) == "mu t.p?a(int).end & p?b(int).t"

    def test_process_conditional_loop(self):
        p = parse_process("mu X. if y2 > 0 then inc!l5(y1).X else cl!l3(y1).0")
        assert show(p) == "mu X.if y2 > 0 then inc!l5(y1).X else cl!l3(y1).0"

    def test_process_external_choice(self):
        p = parse_process("q?l1(x).0 + q?l2(x).q!l3(true).0")
        assert show(p) == "q?l1(x).0 + q?l2(x).q!l3(true).0"

    def test_global_branching(self):
        g = parse_global_type(
            "p -> q : { l1(nat). q -> r : l3(int).end,"
            " l2(bool). q -> r : l5(nat).end }")
        assert show(g) == ("p -> q : { l1(nat).q -> r : l3(int).end,"
                           " l2(bool).q -> r : l5(nat).end }")

    def test_session(self):
        m = parse_session("@p q!l(5).0 || @q p?l(x).0")
        assert show(m) == "@p q!l(5).0 || @q p?l(x).0"

    def test_expr_precedence(self):
        e = parse_expr("not (x (+) succ 1 > neg -3)")
        assert show(e) == "not (x (+) succ 1 > neg -3)"


class TestParsing:
    def test_category_dispatch(self):
        assert parse("end", "sessiontype") == TEnd()
        assert parse("end", "globaltype") == S.GEnd()
        assert parse("0", "process") == S.Inact()
        assert parse("true", "expr") == S.BoolLit(True)

    def test_a_participant_is_an_identifier_that_is_not_a_keyword(self):
        assert parse(" p # the sender\n", "participant") == "p"
        for text in ["end", "mu", "1x", "p q", "p-q", ""]:
            with pytest.raises(ParseError):
                parse(text, "participant")

    def test_inact_and_negative_literal(self):
        p = parse_process("q!l(-5).0")
        assert p == S.Output("q", "l", S.Num(-5), S.Inact())

    def test_comments_and_whitespace(self):
        t = parse_session_type("# leading note\n  p?l(nat)  .  end  # trailing\n")
        assert t == TIn("p", (Branch("l", Sort.NAT, TEnd()),))

    def test_branch_order_is_canonical(self):
        a = parse_session_type("q?l2(int).end & q?l1(nat).end")
        b = parse_session_type("q?l1(nat).end & q?l2(int).end")
        assert a == b
        assert [br.label for br in a.branches] == ["l1", "l2"]

    @pytest.mark.parametrize("src, cls", [
        ("(p?a(nat).end & p?b(nat).end) & p?c(nat).end", TIn),
        ("p!c(nat).end \\/ (p!a(nat).end \\/ p!b(nat).end)", TOut),
    ])
    def test_a_parenthesised_junction_joins_its_junction(self, src, cls):
        t = parse_session_type(src)
        assert t == cls("p", tuple(Branch(label, Sort.NAT, TEnd())
                                   for label in "abc"))

    def test_a_junction_is_built_once(self, monkeypatch):
        built = []
        init = TIn.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(TIn, "__init__", counted)
        t = parse_session_type("p?a(nat).end & p?b(nat).end & p?c(nat).end")
        assert (len(t.branches), len(built)) == (3, 1)

    @pytest.mark.parametrize("category, src, parenthesised", [
        ("sessiontype", "q!l(nat).mu t.q!m(nat).t \\/ q!k(nat).end",
         "q!l(nat).(mu t.q!m(nat).t \\/ q!k(nat).end)"),
        ("process", "p?l(x).if x then 0 else q!m(1).0 + r?n(y).0",
         "p?l(x).(if x then 0 else (q!m(1).0 + r?n(y).0))"),
        ("process", "p?l(x).mu X.q!m(1).X + r?n(y).0",
         "p?l(x).(mu X.(q!m(1).X + r?n(y).0))"),
    ])
    def test_a_recursion_or_conditional_continuation_extends_maximally(
            self, category, src, parenthesised):
        # After '.', mu (and if, in a process) takes in the rest of the
        # junction or sum, and the printed text reads back as the same term.
        term = parse(src, category)
        assert term == parse(parenthesised, category)
        assert parse(show(term), category) == term

    def test_missing_continuation_defaults_to_end(self):
        assert parse_session_type("p?l(nat)") == parse_session_type("p?l(nat).end")

    def test_parenthesised_global_type(self):
        assert show(parse_global_type("(p -> q : l(nat))")) == "p -> q : l(nat).end"

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_session_type("p?l(nat).")
        assert "expected" in str(exc.value)
        assert "1:10" in str(exc.value)

    def test_mixed_connectives_rejected(self):
        with pytest.raises(ParseError):
            parse_session_type("p?l1(nat).end & q!l2(int).end")

    def test_unknown_sort_rejected(self):
        with pytest.raises(ParseError):
            parse_session_type("p?l(float).end")

    @pytest.mark.parametrize("category, src, message", [
        ("process", "if true tehn 0 else 0",
         "1:9: expected keyword 'then', got 'tehn'"),
        ("sessiontype", "p?l(nat", "1:8: expected ')', got 'end of input'"),
        ("sessiontype", "p?(nat).end", "1:3: expected a label, got '('"),
        ("process", "q?l(1).0", "1:5: expected a variable, got '1'"),
        ("sessiontype", "mu .end", "1:4: expected a recursion variable, got '.'"),
        ("globaltype", "p -> : l(nat)", "1:6: expected a participant, got ':'"),
        ("process", "q!l().0", "1:5: expected an expression, got ')'"),
        ("process", "q!l(1).)", "1:8: expected a process, got ')'"),
        ("sessiontype", "p?l(nat).?", "1:10: expected a session type, got '?'"),
        ("sessiontype", "p?l(float).end",
         "1:5: expected a sort (nat, int or bool), got 'float'"),
        ("globaltype", "p -> q : l(nat).!", "1:17: expected a global type, got '!'"),
        ("sessiontype", "end end", "1:5: trailing input, got 'end'"),
        ("sessiontype", "p?a(nat).end &\n  p?b(nat).end \\/ p!c(nat).end",
         "2:16: cannot mix '&' and '\\/' without parentheses, got '\\\\/'"),
        ("sessiontype", "mu t.p?a(nat).end & p!b(nat).end",
         "1:6: every member of an intersection must be an input prefix"),
        ("sessiontype", "q?l(nat).mu t.q!m(nat).t & q?k(int).end",
         "1:15: every member of an intersection must be an input prefix"),
        ("sessiontype", "(p!a(nat).end \\/ p?b(nat).end)",
         "1:2: every member of a union must be an output prefix"),
        ("sessiontype", "p?a(nat).end & q?b(nat).end",
         "1:1: intersection members must share one partner, got ['p', 'q']"),
        ("sessiontype", "  p!a(nat).end \\/ q!b(nat).end",
         "1:3: union members must share one partner, got ['p', 'q']"),
        ("sessiontype", "(end) & p?a(nat).end",
         "1:1: every member of an intersection must be an input prefix"),
        ("sessiontype", "(p?a(nat).end & p?b(nat).end) & q?c(nat).end",
         "1:1: intersection members must share one partner, got ['p', 'q']"),
        ("sessiontype", "?l(nat).end", "1:1: expected a session type, got '?'"),
        ("sessiontype", "p.l(nat).end", "1:2: trailing input, got '.'"),
        ("sessiontype", "p?end(nat).end", "1:3: expected a label, got 'end'"),
        ("sessiontype", "p?l nat).end", "1:5: expected '(', got 'nat'"),
        ("sessiontype", "p?l().end",
         "1:5: expected a sort (nat, int or bool), got ')'"),
        ("sessiontype", "p?l(nat.end", "1:8: expected ')', got '.'"),
        ("session", "@p 0 ||\n@p 0", "2:2: participant 'p' listed twice"),
        ("expr", "succ " + "9" * 4400, "1:6: number too long"),
        ("expr", "x (+)\n  $", "2:3: unexpected character '$'"),
        ("sessiontype", "p?l(nat).  # note\n\n",
         "3:1: expected a session type, got 'end of input'"),
        ("participant", "  # only a comment",
         "1:19: expected a participant, got 'end of input'"),
        ("sessiontype", "p?(nat).end é", "1:13: unexpected character 'é'"),
        ("expr", "-5 > --5", "1:6: unexpected character '-'"),
        ("sessiontype", "p?l(nat).\r\n\tq!m(int).end end",
         "2:15: trailing input, got 'end'"),
        ("sessiontype", "p?l(nat).end\x0c", "1:13: unexpected character '\\x0c'"),
        ("process", "?l(x).0", "1:1: expected a process, got '?'"),
        ("process", "q l(x).0", "1:3: trailing input, got 'l'"),
        ("process", "q?(x).0", "1:3: expected a label, got '('"),
        ("process", "q?end(x).0", "1:3: expected a label, got 'end'"),
        ("process", "q?l x).0", "1:5: expected '(', got 'x'"),
        ("process", "q?l(if).0", "1:5: expected a variable, got 'if'"),
        ("process", "q?l(x.0", "1:6: expected ')', got '.'"),
        ("process", "q?l(x)0", "1:7: expected '.', got '0'"),
        ("process", "q?l(x) # note\n  0", "2:3: expected '.', got '0'"),
        ("process", "q?l(x).", "1:8: expected a process, got 'end of input'"),
        ("process", "!l(1).0", "1:1: expected a process, got '!'"),
        ("process", "q!(1).0", "1:3: expected a label, got '('"),
        ("process", "q!if(1).0", "1:3: expected a label, got 'if'"),
        ("process", "q!l 1).0", "1:5: expected '(', got '1'"),
        ("process", "q!l(1.0", "1:6: expected ')', got '.'"),
        ("process", "q!l(1)0", "1:7: expected '.', got '0'"),
        ("process", "q!l(1).", "1:8: expected a process, got 'end of input'"),
        ("process", "if true 0 else 0", "1:9: expected keyword 'then', got '0'"),
        ("process", "if true then 0",
         "1:15: expected keyword 'else', got 'end of input'"),
        ("process", "q?l(x).if x then 0 0", "1:20: expected keyword 'else', got '0'"),
        ("process", "q?l(x).mu X", "1:12: expected '.', got 'end of input'"),
        ("process", "0 +", "1:4: expected a process, got 'end of input'"),
        ("process", "q?l(x).0 + + 0", "1:12: expected a process, got '+'"),
        ("process", "mu X.q!l(1).X X", "1:15: trailing input, got 'X'"),
        ("process", "q!l(1).(0", "1:10: expected ')', got 'end of input'"),
        ("process", "()", "1:2: expected a process, got ')'"),
        ("expr", "()", "1:2: expected an expression, got ')'"),
        ("expr", "(1", "1:3: expected ')', got 'end of input'"),
        ("expr", "succ", "1:5: expected an expression, got 'end of input'"),
        ("expr", "(+) 1", "1:1: expected an expression, got '(+)'"),
        ("expr", "1 (+)", "1:6: expected an expression, got 'end of input'"),
        ("expr", "1 (+) (+)", "1:7: expected an expression, got '(+)'"),
        ("expr", "a > b > c", "1:7: trailing input, got '>'"),
        ("process", "q!l(a > b > c).0", "1:11: expected ')', got '>'"),
        ("expr", "true false", "1:6: trailing input, got 'false'"),
        ("session", "p 0", "1:1: expected '@', got 'p'"),
        ("session", "@p q!l(1).0 || q", "1:16: expected '@', got 'q'"),
    ])
    def test_every_parse_error_message(self, category, src, message):
        with pytest.raises(ParseError) as exc:
            parse(src, category)
        assert str(exc.value) == message

    @pytest.mark.parametrize("category, src, term", [
        ("sessiontype", "p?l(nat).end # é ² \n",
         TIn("p", (Branch("l", Sort.NAT, TEnd()),))),
        ("sessiontype", "p?l(nat).end #", TIn("p", (Branch("l", Sort.NAT, TEnd()),))),
        ("expr", "x>-5", S.Gt(S.Var("x"), S.Num(-5))),
        ("globaltype", "p->q:l(nat)",
         S.GComm("p", "q", (Branch("l", Sort.NAT, S.GEnd()),))),
    ])
    def test_tokens_need_no_space_and_comments_take_any_character(
            self, category, src, term):
        assert parse(src, category) == term

    def test_positions_are_computed_only_on_error(self):
        texts = [(f.read_text(), _EXTENSION_CATEGORY[pathlib.Path(f.name).suffix])
                 for f in resources.files("mpst").joinpath("fixtures").iterdir()]
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is parser._position.__code__:
                calls.append(frame.f_code)

        sys.setprofile(profile)
        try:
            for text, category in texts:
                parse(text, category)
            fixtures_calls = len(calls)
            with pytest.raises(ParseError):
                parse("p?l(nat).", "sessiontype")
        finally:
            sys.setprofile(None)
        assert texts and (fixtures_calls, len(calls)) == (0, 1)

    def test_parse_outcomes_of_edited_texts_are_pinned(self):
        # Printed random terms with seeded edits; the digest covers every
        # term, error message and position.
        assert gen.parse_digest(random.Random(14), 20_000) == (
            "e2236cc9b99be46f838328dca25b1b483fa1284711ccd3cdf00e23ce4d90f290",
            17_041)


class TestConstructorInvariants:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
            TIn("q", (Branch("l", Sort.NAT, TEnd()),
                      Branch("l", Sort.INT, TEnd())))
        with pytest.raises(DuplicateLabel):
            parse_session_type("q!l(nat).end \\/ q!l(int).end")

    def test_self_communication_rejected(self):
        with pytest.raises(SelfCommunication):
            parse_global_type("p -> p : l(nat).end")
        with pytest.raises(SelfCommunication):
            parse_session("@p p!l(1).0")

    def test_self_communication_deep_in_a_shared_graph_is_found(self):
        # char_proc shares each input's continuation between the two arms of
        # its probe: 40 inputs make 2**40 paths to the output to p.
        proc = char_proc(parse_session_type("q?l(nat)." * 40 + "p!m(nat).end"))
        with pytest.raises(SelfCommunication) as exc:
            Session((("q", S.Inact()), ("p", proc)))
        assert str(exc.value) == "participant p communicates with itself"

    def test_session_checks_run_in_order(self):
        selfish = parse_process("a!l(1).0")
        for parts, error, message in [
            ((), ValueError, "a session needs at least one participant"),
            ((("a", selfish), ("a", S.Inact())), ValueError,
             "duplicate participant in session: ['a', 'a']"),
            ((("b", selfish), ("1b", S.Inact())), ValueError,
             "bad participant: '1b'"),
            ((("a", selfish), ("é", S.Inact())), SelfCommunication,
             "participant a communicates with itself"),
            ((("b", selfish), ("a", selfish)), SelfCommunication,
             "participant a communicates with itself"),
            ((("b", parse_process("b!l(1).0")), ("a", selfish)),
             SelfCommunication, "participant a communicates with itself"),
            ((("c", S.Inact()), ("a", selfish)), SelfCommunication,
             "participant a communicates with itself"),
        ]:
            with pytest.raises(error) as exc:
                Session(parts)
            assert str(exc.value) == message

    def test_unguarded_recursion_rejected(self):
        with pytest.raises(UnguardedRecursion):
            TRec("t", TVar("t"))
        with pytest.raises(UnguardedRecursion):
            parse_session_type("mu t.mu s.t")
        with pytest.raises(UnguardedRecursion):
            parse_process("mu X.X")
        with pytest.raises(UnguardedRecursion):
            parse_global_type("mu t.t")
        # A summand of an external choice does not guard, also behind an
        # inner binder.
        for src in ("mu X.(X + q?l(x).0)", "mu X.mu Y.X + q?l(x).0 + r?m(y).0"):
            with pytest.raises(UnguardedRecursion) as exc:
                parse_process(src)
            assert str(exc.value) == "mu X reaches X unguarded"

    def test_guarded_recursion_accepted(self):
        t = parse_session_type("mu t.p!l(nat).t")
        assert isinstance(t, TRec)
        # A conditional guards; a binder bounds only the summands below it.
        for src in ("mu X.if true then X else 0", "mu X.((mu Y.q?l(x).Y) + Y)"):
            assert isinstance(parse_process(src), S.Rec)

    def test_session_duplicate_participant_rejected(self):
        with pytest.raises(ValueError):
            Session((("p", S.Inact()), ("p", S.Inact())))

    def test_ext_choice_flattens(self):
        e = ext_choice([parse_process("q?a(x).0"),
                        parse_process("q?b(x).0 + q?c(x).0")])
        assert show(e) == "q?a(x).0 + q?b(x).0 + q?c(x).0"
        assert len(e.branches) == 3

    @pytest.mark.parametrize("build, message", [
        (lambda: TIn("q", ()), "intersection needs at least one branch"),
        (lambda: TOut("q", ()), "union needs at least one branch"),
        (lambda: S.GComm("p", "q", ()), "communication needs at least one branch"),
        (lambda: TIn("1x", (Branch("l", Sort.NAT, TEnd()),)),
         "bad participant: '1x'"),
        (lambda: TOut("q", (Branch("1l", Sort.NAT, TEnd()),)), "bad label: '1l'"),
        (lambda: TOut("q x", (Branch("l", Sort.NAT, TEnd()),)),
         "bad participant: 'q x'"),
        (lambda: S.Input("1p", "l", "x", S.Inact()), "bad participant: '1p'"),
        (lambda: S.Input("p", "l-", "x", S.Inact()), "bad label: 'l-'"),
        (lambda: S.Input("p", "l", "", S.Inact()), "bad variable: ''"),
        (lambda: S.Output("é", "l", S.Num(1), S.Inact()), "bad participant: 'é'"),
        (lambda: S.Output("p", "2l", S.Num(1), S.Inact()), "bad label: '2l'"),
        (lambda: S.GComm("1s", "q", (Branch("l", Sort.NAT, S.GEnd()),)),
         "bad participant: '1s'"),
        (lambda: S.GComm("p", "1q", (Branch("l", Sort.NAT, S.GEnd()),)),
         "bad participant: '1q'"),
        (lambda: S.Var("x y"), "bad variable: 'x y'"),
        (lambda: S.ProcVar("1X"), "bad process variable: '1X'"),
        (lambda: TVar("1t"), "bad type variable: '1t'"),
        (lambda: S.GVar("1g"), "bad type variable: '1g'"),
        (lambda: S.Rec("1Y", S.Inact()), "bad process variable: '1Y'"),
        (lambda: TRec("1u", TEnd()), "bad type variable: '1u'"),
        (lambda: S.GRec("1h", S.GEnd()), "bad type variable: '1h'"),
        (lambda: Session((("1r", S.Inact()),)), "bad participant: '1r'"),
        (lambda: S.ExtChoice((S.Inact(),)),
         "external choice needs at least two branches"),
        (lambda: S.ExtChoice((parse_process("q?a(x).0"),
                              parse_process("q?b(x).0 + q?c(x).0"))),
         "external choice must be flattened"),
        (lambda: ext_choice([]), "empty external choice"),
        (lambda: Session(()), "a session needs at least one participant"),
        (lambda: parse("p", "type"), "unknown category 'type'"),
    ])
    def test_every_constructor_message(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_no_identifier_field_takes_a_keyword(self):
        # A keyword's text would not parse back as a name.
        keywords = ("if", "then", "else", "mu", "end", "nat", "int", "bool",
                    "true", "false", "succ", "neg", "not")
        assert S.KEYWORDS == set(keywords)
        roots = [parse_process("mu X.(q?l(x).q!m(x).X + q?n(y).0)"),
                 parse_session_type("mu t.(p?l(nat).t & p?m(int).q!n(bool).end)"),
                 parse_global_type("mu t.p -> q : l(nat).t")]
        samples = {type(x): x for x in _values_below(roots)
                   if getattr(x, "_idents", None)}
        assert set(samples) == {c for c in _value_classes()
                                if getattr(c, "_idents", None)}
        assert len(samples) == 13
        for cls, x in samples.items():
            for field, what in cls._idents.items():
                for kw in keywords:
                    fields = {f: getattr(x, f) for f in declared_fields(cls)}
                    with pytest.raises(ValueError) as exc:
                        cls(**{**fields, field: kw})
                    assert str(exc.value) == f"bad {what}: {kw!r}", cls
        for kw in keywords:
            with pytest.raises(ValueError) as exc:
                Session(((kw, S.Inact()),))
            assert str(exc.value) == f"bad participant: {kw!r}"

    def test_branches_stored_sorted(self):
        t = TIn("q", (Branch("l2", Sort.INT, TEnd()),
                      Branch("l1", Sort.NAT, TEnd())))
        assert show(t) == "q?l1(nat).end & q?l2(int).end"


class TestRoundTrip:
    def test_types_round_trip(self):
        rng = random.Random(101)
        for _ in range(300):
            t = gen.gen_type(rng, 4)
            assert parse_session_type(show(t)) == t

    def test_globals_round_trip(self):
        rng = random.Random(102)
        for _ in range(300):
            g = gen.gen_global(rng, 3)
            assert parse_global_type(show(g)) == g

    def test_processes_round_trip(self):
        rng = random.Random(103)
        for _ in range(300):
            p = gen.gen_process(rng, 3)
            assert parse_process(show(p)) == p

    def test_exprs_round_trip(self):
        rng = random.Random(104)
        for _ in range(300):
            e = gen.gen_expr(rng, 3, ("x", "y"))
            assert parse_expr(show(e)) == e

    def test_sessions_round_trip(self):
        rng = random.Random(105)
        for _ in range(100):
            parts = []
            for i, role in enumerate(("a1", "a2")):
                p = gen.gen_process(rng, 2, roles=("b1", "b2"))
                parts.append((role, p))
            m = Session(tuple(parts))
            assert parse_session(show(m)) == m

    def test_terms_the_library_builds_round_trip(self):
        # Projections, characteristic terms, counterexample sessions,
        # synthesised types and renamed binders mint names of their own
        # (`_c0`, `t0`, `x_1`); each prints to text that parses back equal.
        rng = random.Random(106)
        built = {parse_session_type: [], parse_global_type: [],
                 parse_process: [], parse_session: []}
        for a, b in gen.refuted_pairs(rng, 30, 300):
            built[parse_global_type].append(
                mpst.char_global(a, mpst.fresh_participant(a)))
            built[parse_process].append(char_proc(a))
            built[parse_session].append(mpst.counterexample_session(a, b))
        for _ in range(150):
            try:
                built[parse_session_type] += mpst.project_all(
                    gen.gen_global(rng, 3)).values()
            except mpst.ProjectionError:
                pass
            try:
                built[parse_session_type].append(
                    mpst.synthesize_process({}, {}, gen.gen_process(rng, 3)))
            except mpst.TypingError:
                pass
            # t0 free under binders t1, t2, ...; x free under binders x, y, z.
            t = gen.gen_type(rng, 4, _tvars={"t0": True})
            built[parse_session_type].append(subst(t, TVar("t0"), TVar("t1")))
            p = gen.gen_process(rng, 3, vars=("x",))
            built[parse_process].append(subst(p, S.Var("x"), S.Var("y")))
        texts = {read: [show(t) for t in terms] for read, terms in built.items()}
        assert any("_c0" in text for text in texts[parse_session])
        assert any("mu t0." in text for text in texts[parse_session_type])
        assert any("mu t1_1." in text for text in texts[parse_session_type])
        assert any("(y_1)." in text for text in texts[parse_process])
        for read, terms in built.items():
            for t, text in zip(terms, texts[read]):
                assert read(text) == t, text


class TestHelpers:
    def test_unfold(self):
        t = parse_session_type("mu t.p!l(nat).t")
        assert show(unfold(t)) == "p!l(nat).(mu t.p!l(nat).t)"
        assert unfold(unfold(t)) is unfold(t)  # a non-binder stays itself

    def test_unfold_is_computed_once_per_binder(self):
        for t in (parse_session_type("mu t.p!l(nat).t"),
                  parse_process("mu X.q!l(1).X"),
                  parse_global_type("mu t.p -> q : l(nat).t")):
            assert unfold(t) is unfold(t)
            assert unfold_spine(t) is unfold(t)

    def test_unfold_cache_is_not_pickled(self):
        t = parse_session_type("mu t.p!l(nat).q?m(int).t")
        first = unfold(t)
        for clone in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert clone == t and clone._unfolded is None
            assert unfold(clone) == first and unfold(clone) is not first

    def test_unfold_spine_crosses_nested_binders(self):
        t = parse_session_type("mu a.mu b.p!l(nat).a")
        assert show(unfold_spine(t)) == "p!l(nat).(mu a.mu b.p!l(nat).a)"

    def test_regular_tree_equality_ignores_unfolding_and_alpha(self):
        t = parse_session_type("mu t.p!l(nat).t")
        s = parse_session_type("mu s.p!l(nat).p!l(nat).s")
        assert regular_tree_equal(t, unfold(t))
        assert regular_tree_equal(t, s)
        assert not regular_tree_equal(t, parse_session_type("mu t.p!l(int).t"))

    def test_regular_tree_equality_random_unfoldings(self):
        rng = random.Random(106)
        checked = 0
        for _ in range(300):
            t = gen.gen_type(rng, 4)
            if isinstance(t, TRec):
                assert regular_tree_equal(t, unfold(t))
                checked += 1
        assert checked >= 20

    def test_participants(self):
        t = parse_session_type("q!l1(nat).r?l2(int).end \\/ q!l3(int).end")
        assert participants_of(t) == frozenset({"q", "r"})
        g = parse_global_type("p -> q : l1(nat). q -> r : l2(bool).end")
        assert participants_of(g) == frozenset({"p", "q", "r"})
        m = parse_session("@p q!l(5).0 || @q p?l(x).0")
        assert participants_of(m) == frozenset({"p", "q"})

    def test_subterm_closure_is_finite_and_spine_normalized(self):
        t = parse_session_type("mu t.p!l1(nat).t \\/ p!l2(int).end")
        closure = subterm_closure(t)
        assert unfold_spine(t) in closure
        assert TEnd() in closure
        assert len(closure) == 2

    def test_free_variables(self):
        assert free_vars(parse_session_type("mu a.p!l(nat).b")) == frozenset({TVar("b")})
        assert free_vars(parse_process("mu X.q!l(1).Y")) == frozenset({S.ProcVar("Y")})

    def test_substitution_stops_at_shadowing_binder(self):
        p = parse_process("q!l(x).q?x1(x).q!l(x).0")
        q = subst(p, S.Var("x"), S.Num(7))
        assert show(q) == "q!l(7).q?x1(x).q!l(x).0"


    def test_substitution_keeps_sharing(self, monkeypatch):
        # char_proc shares each input's continuation between the arms of its
        # probe: 2**16 paths lead to the recursion variable.
        proc = char_proc(parse_session_type("mu t." + "p?l(nat)." * 16 + "t"))
        calls = []
        walk = S._subst

        def counting(*args):
            calls.append(args[0])
            return walk(*args)

        monkeypatch.setattr(S, "_subst", counting)
        body = unfold(proc)
        assert len(calls) < 1000
        cond = body.body
        assert cond.then is cond.orelse
        assert body == subst(proc.body, S.ProcVar("X_t"), proc)


class TestCaptureAvoidingRenaming:
    def test_process_binder_renamed_away_from_a_free_variable(self):
        p = parse_process("mu Y.q!l(1).X")
        assert show(subst(p, S.ProcVar("X"), S.ProcVar("Y"))) == (
            "mu Y_1.q!l(1).Y")

    def test_input_binder_renamed_away_from_a_free_expression_variable(self):
        p = parse_process("q?l(x).X")
        repl = parse_process("q!l(x).0")
        assert show(subst(p, S.ProcVar("X"), repl)) == (
            "q?l(x_1).q!l(x).0")

    def test_type_binder_renamed_away_from_a_free_variable(self):
        t = parse_session_type("mu u.p!l(nat).t")
        assert show(subst(t, TVar("t"), TVar("u"))) == "mu u_1.p!l(nat).u"

    def test_global_binder_renamed_away_from_a_free_variable(self):
        g = parse_global_type("mu u.p -> q : l(nat).t")
        assert show(subst(g, S.GVar("t"), S.GVar("u"))) == (
            "mu u_1.p -> q : l(nat).u")

    def test_renaming_skips_a_name_the_body_takes(self):
        p = parse_process("q?l(x).p!m(y).q!n(x_1).0")
        assert show(subst(p, S.Var("y"), S.Var("x"))) == (
            "q?l(x_2).p!m(x).q!n(x_1).0")


class TestCachedHash:
    def test_equal_terms_built_apart_hash_equal(self):
        rng = random.Random(404)
        for _ in range(100):
            a = gen.gen_type(rng, 4)
            b = parse_session_type(show(a))
            assert a is not b and a == b and hash(a) == hash(b)
            m = Session((("a1", gen.gen_process(rng, 3, roles=("a2",))),
                         ("a2", gen.gen_process(rng, 3, roles=("a1",)))))
            assert hash(parse_session(show(m))) == hash(m)

    def test_cached_hash_is_invisible(self):
        t = parse_session_type("mu t.p?l(nat).t & p?m(int).end")
        u = parse_session_type("mu t.p?l(nat).t & p?m(int).end")
        before = repr(t)
        hash(t)
        assert t._hash is not None and u._hash is None
        assert t == u and repr(t) == before == repr(u)
        for node in (t, t.body, t.body.branches[0], S.Var("x"),
                     parse_session("@p q!l(1).0 || @q p?l(x).0")):
            hash(node)
            assert type(node)._fields == tuple(declared_fields(type(node)))
            assert "_hash" not in declared_fields(type(node))
            assert "_hash" not in repr(node)

    def test_cached_hash_is_not_pickled(self):
        t = parse_session("@p q!l(1).0 || @q p?l(x).0")
        hash(t)
        for clone in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert clone == t and clone._hash is None
            assert clone.parts[0][1]._hash is None
            assert hash(clone) == hash(t)

    def test_cached_facts_are_not_pickled(self):
        m = parse_session("@p mu X.q!l(1).X || @q mu Y.p?l(x).Y")
        for node in (m, S.Var("x"), S.ProcVar("X")):
            free_vars(node)
            participants_of(node)
            hash(node)
            for clone in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
                assert clone == node and clone._free is None
                assert clone._parts is None and clone._hash is None
                assert str(clone) == str(node)

    def test_variables_of_different_categories_differ(self):
        assert S.Var("x") != S.ProcVar("x")
        assert S.TVar("t") != S.GVar("t")
        assert len({S.Var("x"), S.ProcVar("x"), S.Var("x")}) == 2


def _value_classes():
    """Every term and record class of the package that is not a base (named
    with `_`)."""
    package = pathlib.Path(mpst.__file__).parent
    modules = [importlib.import_module(f"mpst.{p.stem}")
               for p in package.glob("*.py") if not p.stem.startswith("__")]
    return {c for m in modules for name, c in vars(m).items()
            if isinstance(c, type) and issubclass(c, S.Record)
            and c.__module__ == m.__name__ and not name.startswith("_")
            and c is not S.Record}


def _values_below(roots):
    """The values in roots and every value reachable through their fields."""
    seen, stack = [], list(roots)
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, S.Record) and not any(x is y for y in seen):
            seen.append(x)
            stack.extend(getattr(x, f) for f in declared_fields(type(x)))
    return seen


class TestImmutableValues:
    def samples(self):
        e = S.Gt(S.Choice(S.Neg(S.Succ(S.Var("x"))), S.Not(S.BoolLit(True))),
                 S.Num(-1))
        t, u = parse_session_type("p?l(nat).end"), parse_session_type("end")
        m = parse_session("@p mu X.(q!l(1).X + (if true then 0 else X)) "
                          "|| @q q1?m(x).0 || @q1 q!m(2).0")
        stuck = mpst.stuck_search(parse_session(
            "@p q!l(1).q!n(2).0 || @q p?l(x).p?m(y).0"), 10)
        g = parse_global_type("p -> q : l(nat).end")
        return [e, m, mpst.nsub(t, u), mpst.decide(t, u), stuck,
                mpst.preciseness_check(t, u, 100),
                parse_global_type("mu t.p -> q : l(nat).t"),
                parse_session_type("mu t.p!l(nat).t"),
                g, *mpst.frontier_actions(g)]

    def test_every_value_class_is_sampled(self):
        assert {type(x) for x in _values_below(self.samples())} == _value_classes()

    def test_fields_can_be_neither_set_nor_deleted(self):
        for x in _values_below(self.samples()):
            assert not hasattr(x, "__dict__"), type(x)
            before = repr(x)
            for f in declared_fields(type(x)) + ["_hash", "extra"]:
                with pytest.raises(AttributeError):
                    setattr(x, f, None)
                with pytest.raises(AttributeError):
                    delattr(x, f)
            assert repr(x) == before

    def test_hash_is_the_hash_of_the_field_tuple(self):
        # Pins every hash value, and with them every set and dict order.
        for x in _values_below(self.samples()):
            assert hash(x) == hash(tuple(getattr(x, f) for f in type(x)._fields))

    def test_readers_read_the_declared_fields(self):
        # Pins the shape readers the traversal goes through, on a sample of
        # every term class (see test_every_value_class_is_sampled).
        for x in _values_below(self.samples()):
            if not isinstance(x, S._Term):
                continue
            cls = type(x)
            if cls is S.Session:
                assert S.children(x) == tuple(p for _, p in x.parts)
                assert x._roles(x) == tuple(r for r, _ in x.parts)
                continue
            kids = tuple(getattr(x, f) for f in cls._kids)
            assert S.children(x) == (kids[0] if cls._many else kids), cls
            assert x._fixed(x) == tuple(getattr(x, f) for f in cls._fields
                                        if f not in cls._kids), cls
            assert x._roles(x) == tuple(getattr(x, f) for f in cls._names), cls

    def test_str_of_a_term_is_its_printed_text(self):
        # A branch has no text of its own: its str is its repr.
        for x in _values_below(self.samples()):
            if isinstance(x, Branch):
                assert str(x) == repr(x)
            elif isinstance(x, S._Term):
                assert str(x) == show(x), type(x)

    def test_repr_names_every_declared_field(self):
        b = Branch("l", Sort.NAT, TEnd())
        assert repr(b) == (
            "Branch(label='l', sort=<Sort.NAT: 'nat'>, cont=TEnd())")
        assert repr(S.ProcVar("X")) == "ProcVar(name='X')"
        assert repr(mpst.NsubDerivation("r", TEnd(), TEnd())) == (
            "NsubDerivation(rule='r', left=TEnd(), right=TEnd(), "
            "children=(), note='')")

    def test_repr_of_deeply_nested_terms(self):
        chain = parse_session_type("p!l(nat)." * 150 + "end")
        assert repr(chain).count("TOut(partner='p'") == 150
        binders = parse_global_type("".join(
            f"mu t{i}.p -> q : l(nat)." for i in range(100)) + "end")
        assert repr(binders).count("GRec(var='t") == 100

    def test_fields_are_taken_by_position_or_keyword(self):
        b = Branch(cont=TEnd(), label="l", sort=Sort.NAT)
        assert b == Branch("l", Sort.NAT, TEnd())
        with pytest.raises(TypeError):
            Branch("l", Sort.NAT)
        with pytest.raises(TypeError):
            Branch("l", Sort.NAT, TEnd(), wrong=1)


def test_generated_processes_do_not_depend_on_the_hash_seed():
    """A seeded draw of `gen_process` prints the same text in interpreters
    with different string hashes, so a failure found with it reproduces."""
    tests = pathlib.Path(__file__).parent
    src = str(pathlib.Path(mpst.__file__).parent.parent)
    code = ("import random, gen\n"
            "for s in range(300):\n"
            "    print(gen.gen_process(random.Random(s), 3, roles=('a', 'b')))\n")

    def draws(seed):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(tests), src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True).stdout

    assert draws("1") == draws("2")

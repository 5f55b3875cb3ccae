"""Syntax trees: constructor invariants, printing, parsing, and helpers."""

import copy
import importlib
import pathlib
import pickle
import random

import pytest

import gen
import mpst
from conftest import subterm_closure
from mpst import (
    DuplicateLabel,
    ParseError,
    SelfCommunication,
    Session,
    Sort,
    TBranch,
    TEnd,
    TIn,
    TOut,
    TRec,
    TVar,
    UnguardedRecursion,
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
from mpst import syntax as S
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
        assert p == S.Output("q", "l", S.IntLit(-5), S.Inact())

    def test_comments_and_whitespace(self):
        t = parse_session_type("# leading note\n  p?l(nat)  .  end  # trailing\n")
        assert t == TIn("p", (TBranch("l", Sort.NAT, TEnd()),))

    def test_branch_order_is_canonical(self):
        a = parse_session_type("q?l2(int).end & q?l1(nat).end")
        b = parse_session_type("q?l1(nat).end & q?l2(int).end")
        assert a == b
        assert [br.label for br in a.branches] == ["l1", "l2"]

    def test_missing_continuation_defaults_to_end(self):
        assert parse_session_type("p?l(nat)") == parse_session_type("p?l(nat).end")

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
        ("sessiontype", "(p!a(nat).end \\/ p?b(nat).end)",
         "1:2: every member of a union must be an output prefix"),
        ("sessiontype", "p?a(nat).end & q?b(nat).end",
         "1:1: intersection members must share one partner, got ['p', 'q']"),
        ("sessiontype", "  p!a(nat).end \\/ q!b(nat).end",
         "1:3: union members must share one partner, got ['p', 'q']"),
        ("session", "@p 0 ||\n@p 0", "2:2: participant 'p' listed twice"),
        ("expr", "succ " + "9" * 4400, "1:6: number too long"),
        ("expr", "x (+)\n  $", "2:3: unexpected character '$'"),
    ])
    def test_every_parse_error_message(self, category, src, message):
        with pytest.raises(ParseError) as exc:
            parse(src, category)
        assert str(exc.value) == message


class TestConstructorInvariants:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
            TIn("q", (TBranch("l", Sort.NAT, TEnd()),
                      TBranch("l", Sort.INT, TEnd())))
        with pytest.raises(DuplicateLabel):
            parse_session_type("q!l(nat).end \\/ q!l(int).end")

    def test_self_communication_rejected(self):
        with pytest.raises(SelfCommunication):
            parse_global_type("p -> p : l(nat).end")
        with pytest.raises(SelfCommunication):
            parse_session("@p p!l(1).0")

    def test_unguarded_recursion_rejected(self):
        with pytest.raises(UnguardedRecursion):
            TRec("t", TVar("t"))
        with pytest.raises(UnguardedRecursion):
            parse_session_type("mu t.mu s.t")
        with pytest.raises(UnguardedRecursion):
            parse_process("mu X.X")
        with pytest.raises(UnguardedRecursion):
            parse_global_type("mu t.t")

    def test_guarded_recursion_accepted(self):
        t = parse_session_type("mu t.p!l(nat).t")
        assert isinstance(t, TRec)

    def test_session_duplicate_participant_rejected(self):
        with pytest.raises(ValueError):
            Session((("p", S.Inact()), ("p", S.Inact())))

    def test_ext_choice_flattens(self):
        e = ext_choice([parse_process("q?a(x).0"),
                        parse_process("q?b(x).0 + q?c(x).0")])
        assert show(e) == "q?a(x).0 + q?b(x).0 + q?c(x).0"
        assert len(e.branches) == 3

    def test_branches_stored_sorted(self):
        t = TIn("q", (TBranch("l2", Sort.INT, TEnd()),
                      TBranch("l1", Sort.NAT, TEnd())))
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


class TestHelpers:
    def test_unfold(self):
        t = parse_session_type("mu t.p!l(nat).t")
        assert show(unfold(t)) == "p!l(nat).(mu t.p!l(nat).t)"

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
        q = subst(p, S.Var("x"), S.NatLit(7))
        assert show(q) == "q!l(7).q?x1(x).q!l(x).0"


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
            assert str(node) is str(node)
            for clone in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
                assert clone == node and clone._free is None
                assert clone._parts is None and clone._text is None
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
                 S.IntLit(-1))
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

    def test_repr_names_every_declared_field(self):
        b = TBranch("l", Sort.NAT, TEnd())
        assert repr(b) == (
            "TBranch(label='l', sort=<Sort.NAT: 'nat'>, cont=TEnd())")
        assert repr(S.ProcVar("X")) == "ProcVar(name='X')"
        assert repr(mpst.NsubDerivation("r", TEnd(), TEnd())) == (
            "NsubDerivation(rule='r', left=TEnd(), right=TEnd(), "
            "children=(), note='')")

    def test_fields_are_taken_by_position_or_keyword(self):
        b = TBranch(cont=TEnd(), label="l", sort=Sort.NAT)
        assert b == TBranch("l", Sort.NAT, TEnd())
        with pytest.raises(TypeError):
            TBranch("l", Sort.NAT)
        with pytest.raises(TypeError):
            TBranch("l", Sort.NAT, TEnd(), wrong=1)

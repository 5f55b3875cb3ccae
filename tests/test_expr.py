"""Values (the literal expressions), nondeterministic evaluation, and sort
inference."""

import random

import pytest

import gen
from mpst import Sort, TypingError, eval_all, infer_sort, parse_expr, subsort
from mpst import syntax as S


def evals(src):
    return eval_all(parse_expr(src))


class TestValues:
    def test_minimal_sorts(self):
        assert infer_sort({}, S.Num(5)) == Sort.NAT
        assert infer_sort({}, S.Num(-5)) == Sort.INT
        assert infer_sort({}, S.BoolLit(True)) == Sort.BOOL

    def test_value_evaluates_to_itself(self):
        for v in (S.Num(0), S.Num(7), S.Num(-3), S.BoolLit(False)):
            assert eval_all(v) == frozenset({v})


class TestEvaluation:
    def test_literals(self):
        assert evals("5") == frozenset({S.Num(5)})
        assert evals("-5") == frozenset({S.Num(-5)})
        assert evals("true") == frozenset({S.BoolLit(True)})

    def test_non_negative_literal_is_a_natural(self):
        assert evals("-0") == frozenset({S.Num(0)})
        assert infer_sort({}, S.Num(0)) == Sort.NAT

    def test_succ(self):
        assert evals("succ 4") == frozenset({S.Num(5)})
        assert evals("succ succ 0") == frozenset({S.Num(2)})

    def test_succ_is_stuck_on_negatives_and_bools(self):
        assert evals("succ -5") == frozenset()
        assert evals("succ true") == frozenset()
        assert evals("succ neg 3") == frozenset()

    def test_neg(self):
        assert evals("neg 5") == frozenset({S.Num(-5)})
        assert evals("neg -3") == frozenset({S.Num(3)})
        assert evals("neg 0") == frozenset({S.Num(0)})
        assert evals("neg false") == frozenset()

    def test_not(self):
        assert evals("not true") == frozenset({S.BoolLit(False)})
        assert evals("not not false") == frozenset({S.BoolLit(False)})
        assert evals("not 1") == frozenset()

    def test_comparison(self):
        assert evals("5 > -1") == frozenset({S.BoolLit(True)})
        assert evals("0 > 0") == frozenset({S.BoolLit(False)})
        assert evals("true > 1") == frozenset()

    def test_choice_collects_both_sides(self):
        assert evals("1 (+) 2") == frozenset({S.Num(1), S.Num(2)})
        assert evals("1 (+) 1") == frozenset({S.Num(1)})
        assert evals("(1 (+) 2) > (1 (+) 2)") == frozenset(
            {S.BoolLit(True), S.BoolLit(False)})

    def test_choice_ignores_a_stuck_side(self):
        assert evals("1 (+) succ true") == frozenset({S.Num(1)})
        assert evals("succ true (+) not 0") == frozenset()

    def test_free_variable_is_stuck(self):
        assert evals("x") == frozenset()
        assert evals("succ x") == frozenset()


class TestSortInference:
    def test_literals_and_variables(self):
        assert infer_sort({}, parse_expr("5")) == Sort.NAT
        assert infer_sort({}, parse_expr("-5")) == Sort.INT
        assert infer_sort({}, parse_expr("true")) == Sort.BOOL
        assert infer_sort({"x": Sort.INT}, parse_expr("x")) == Sort.INT

    def test_unbound_variable(self):
        with pytest.raises(TypingError) as exc:
            infer_sort({}, parse_expr("x"))
        assert exc.value.rule == "unboundVariable"

    def test_succ_needs_nat(self):
        assert infer_sort({"x": Sort.NAT}, parse_expr("succ x")) == Sort.NAT
        with pytest.raises(TypingError):
            infer_sort({"x": Sort.INT}, parse_expr("succ x"))

    def test_neg_is_int_on_any_number(self):
        assert infer_sort({}, parse_expr("neg 5")) == Sort.INT
        assert infer_sort({"x": Sort.INT}, parse_expr("neg x")) == Sort.INT
        with pytest.raises(TypingError):
            infer_sort({}, parse_expr("neg true"))

    def test_not_needs_bool(self):
        assert infer_sort({}, parse_expr("not false")) == Sort.BOOL
        with pytest.raises(TypingError):
            infer_sort({}, parse_expr("not 0"))

    def test_comparison_yields_bool(self):
        assert infer_sort({"x": Sort.NAT}, parse_expr("x > -1")) == Sort.BOOL
        with pytest.raises(TypingError):
            infer_sort({}, parse_expr("true > 1"))

    def test_choice_joins_sorts(self):
        assert infer_sort({}, parse_expr("1 (+) 2")) == Sort.NAT
        assert infer_sort({}, parse_expr("1 (+) -2")) == Sort.INT
        assert infer_sort({}, parse_expr("true (+) false")) == Sort.BOOL
        with pytest.raises(TypingError):
            infer_sort({}, parse_expr("1 (+) true"))

    def test_subsorting(self):
        assert subsort(Sort.NAT, Sort.NAT)
        assert subsort(Sort.NAT, Sort.INT)
        assert not subsort(Sort.INT, Sort.NAT)
        assert not subsort(Sort.BOOL, Sort.INT)
        assert not subsort(Sort.INT, Sort.BOOL)

    def test_well_sorted_closed_expressions_evaluate(self):
        rng = random.Random(201)
        typed = 0
        for _ in range(1000):
            e = gen.gen_expr(rng, 4, ())
            try:
                s = infer_sort({}, e)
            except TypingError:
                assert isinstance(eval_all(e), frozenset)
                continue
            typed += 1
            values = eval_all(e)
            assert values, e
            for v in values:
                assert subsort(infer_sort({}, v), s), (e, v, s)
        assert typed >= 200

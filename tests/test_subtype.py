"""Subtyping: the coinductive checker, the inductive negation, and decide."""

import random
import sys

import pytest

import gen
from conftest import fixture_text, subterm_closure
from mpst import (
    InternalError,
    NotDerivable,
    NsubDerivation,
    decide,
    format_derivation,
    nsub,
    parse_session_type,
    sub,
    unfold,
)
from mpst import syntax as S

T = parse_session_type

RULES = {
    "nsub-endL", "nsub-endR", "nsub-diff-part", "nsub-out-in", "nsub-in-out",
    "nsub-in-in", "nsub-out-out", "nsub-intR", "nsub-uniL", "nsub-intL-uniR",
}


def rules_of(d):
    out = {d.rule}
    for child in d.children:
        out |= rules_of(child)
    return out


class TestSub:
    def test_reflexive_on_simple_types(self):
        for src in ("end", "p?l(nat).end", "p!l(int).end \\/ p!l2(nat).end",
                    "mu t.p?a(int).end & p?b(int).t"):
            assert sub(T(src), T(src))

    def test_input_contravariant_in_sorts(self):
        assert sub(T("p?l(int).end"), T("p?l(nat).end"))
        assert not sub(T("p?l(nat).end"), T("p?l(int).end"))

    def test_output_covariant_in_sorts(self):
        assert sub(T("p!l(nat).end"), T("p!l(int).end"))
        assert not sub(T("p!l(int).end"), T("p!l(nat).end"))

    def test_wider_intersection_on_the_left(self):
        assert sub(T("p?l1(nat).end & p?l2(nat).end"), T("p?l1(nat).end"))
        assert not sub(T("p?l1(nat).end"), T("p?l1(nat).end & p?l2(nat).end"))

    def test_narrower_union_on_the_left(self):
        assert sub(T("p!l1(nat).end"), T("p!l1(nat).end \\/ p!l2(nat).end"))
        assert not sub(T("p!l1(nat).end \\/ p!l2(nat).end"), T("p!l1(nat).end"))

    def test_loop_against_doubled_loop(self):
        assert sub(T("mu t.p!l(nat).t"), T("mu t.p!l(int).p!l(int).t"))
        assert not sub(T("mu t.p!l(int).t"), T("mu t.p!l(nat).p!l(nat).t"))

    def test_client_type_widens_to_int(self):
        nat_client = T(fixture_text("sec5_nat.mpst"))
        int_client = T(fixture_text("sec5_int.mpst"))
        assert sub(nat_client, int_client)
        assert not sub(int_client, nat_client)

    def test_unfolding_does_not_change_the_relation(self):
        rng = random.Random(401)
        checked = 0
        for _ in range(300):
            a = gen.gen_type(rng, 4)
            b = gen.gen_type(rng, 4)
            want = sub(a, b)
            if isinstance(a, S.TRec):
                assert sub(unfold(a), b) == want
                checked += 1
            if isinstance(b, S.TRec):
                assert sub(a, unfold(b)) == want
                checked += 1
        assert checked >= 50

    def test_reflexivity_on_random_types(self):
        rng = random.Random(402)
        for _ in range(300):
            t = gen.gen_type(rng, 4)
            assert sub(t, t)

    def test_widening_mutations_stay_above(self):
        rng = random.Random(403)
        for _ in range(300):
            t = gen.gen_type(rng, 4)
            w = gen.gen_supertype(rng, t)
            assert sub(t, w)

    def test_transitive_along_mutation_chains(self):
        rng = random.Random(404)
        for _ in range(200):
            a = gen.gen_type(rng, 3)
            b = gen.gen_supertype(rng, a)
            c = gen.gen_supertype(rng, b)
            assert sub(a, c)

    def test_memo_stays_within_the_closure_product(self):
        sizes = []

        def tracer(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "_sub":
                sizes.append(len(frame.f_locals["theta"]))
            return None

        rng = random.Random(405)
        for _ in range(200):
            a = gen.gen_type(rng, 4)
            b = gen.gen_type(rng, 4)
            sizes.clear()
            old = sys.gettrace()
            sys.settrace(tracer)
            try:
                ok = sub(a, b)
            finally:
                sys.settrace(old)
            peak = max(sizes)
            assert ok == sub(a, b)
            assert peak <= len(subterm_closure(a)) * len(subterm_closure(b))


class TestNsubRules:
    def show1(self, a, b):
        return format_derivation(nsub(T(a), T(b)))

    def test_end_left(self):
        assert self.show1("mu t.p?l(nat).t", "end") == (
            "[nsub-endL] p?l(nat).(mu t.p?l(nat).t) !<= end")

    def test_end_right(self):
        assert self.show1("end", "mu t.p?l(nat).t") == (
            "[nsub-endR] end !<= p?l(nat).(mu t.p?l(nat).t)")

    def test_different_partner(self):
        assert self.show1("q!l(nat).end", "p?l(nat).end") == (
            "[nsub-diff-part] q!l(nat).end !<= p?l(nat).end")

    def test_output_against_input(self):
        assert self.show1("p!l(nat).end", "p?l(nat).end") == (
            "[nsub-out-in] p!l(nat).end !<= p?l(nat).end")

    def test_input_against_output(self):
        assert self.show1("p?l(nat).end", "p!l(nat).end") == (
            "[nsub-in-out] p?l(nat).end !<= p!l(nat).end")

    def test_input_sort_clash(self):
        assert self.show1("p?l(nat).end", "p?l(int).end") == (
            "[nsub-in-in] p?l(nat).end !<= p?l(int).end"
            "  (sort int is not a subsort of nat)")

    def test_output_sort_clash(self):
        assert self.show1("p!l(int).end", "p!l(nat).end") == (
            "[nsub-out-out] p!l(int).end !<= p!l(nat).end"
            "  (sort int is not a subsort of nat)")

    def test_continuations_descend(self):
        assert self.show1("p?l(nat).p?m(nat).end", "p?l(nat).p?m(int).end") == (
            "[nsub-in-in] p?l(nat).p?m(nat).end !<= p?l(nat).p?m(int).end\n"
            "  [nsub-in-in] p?m(nat).end !<= p?m(int).end"
            "  (sort int is not a subsort of nat)")

    def test_intersection_right(self):
        assert self.show1("p?l1(nat).end", "p?l1(nat).end & p?l2(nat).end") == (
            "[nsub-intR] p?l1(nat).end !<= p?l1(nat).end & p?l2(nat).end\n"
            "  [nsub-in-in] p?l1(nat).end !<= p?l2(nat).end  (labels differ)")

    def test_union_left(self):
        assert self.show1("p!l1(nat).end \\/ p!l2(nat).end", "p!l1(nat).end") == (
            "[nsub-uniL] p!l1(nat).end \\/ p!l2(nat).end !<= p!l1(nat).end\n"
            "  [nsub-out-out] p!l2(nat).end !<= p!l1(nat).end  (labels differ)")

    def test_intersection_left_union_right(self):
        assert self.show1("p?l1(nat).end & p?l2(nat).end", "p!l1(nat).end") == (
            "[nsub-intL-uniR] p?l1(nat).end & p?l2(nat).end !<= p!l1(nat).end\n"
            "  [nsub-in-out] p?l1(nat).end !<= p!l1(nat).end\n"
            "  [nsub-in-out] p?l2(nat).end !<= p!l1(nat).end")

    def test_swapped_send_order(self):
        left = T(fixture_text("sec5_swapped_T.mpst"))
        right = T(fixture_text("sec5_swapped_Tp.mpst"))
        assert format_derivation(nsub(left, right)) == (
            "[nsub-out-out] add!l1(int).add!l2(int).end"
            " !<= add!l2(int).add!l1(int).end  (labels differ)")

    def test_subtype_pairs_have_no_derivation(self):
        with pytest.raises(NotDerivable):
            nsub(T("end"), T("end"))
        with pytest.raises(NotDerivable):
            nsub(T("p!l(nat).end"), T("p!l(int).end"))

    def test_derivations_are_frozen_records(self):
        d = nsub(T("p?l(nat).end"), T("p?l(int).end"))
        assert isinstance(d, NsubDerivation)
        assert d.rule == "nsub-in-in"
        with pytest.raises(AttributeError):
            d.rule = "other"


class TestDecide:
    def test_verdict_shape(self):
        v = decide(T("p!l(nat).end"), T("p!l(int).end"))
        assert v.relation == "leq"
        assert v.derivation is None
        w = decide(T("p!l(int).end"), T("p!l(nat).end"))
        assert w.relation == "nleq"
        assert w.derivation.rule == "nsub-out-out"

    def test_negation_never_calls_the_coinductive_checker(self):
        entered = []

        def tracer(frame, event, arg):
            if event == "call" and frame.f_code.co_name in ("sub", "_sub"):
                entered.append(frame.f_code.co_name)
            return None

        a = T("p?l1(nat).end & p?l2(nat).end")
        b = T("p!l1(nat).end")
        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            d = nsub(a, b)
        finally:
            sys.settrace(old)
        assert d.rule == "nsub-intL-uniR"
        assert entered == []

    def test_exactly_one_relation_holds_on_random_pairs(self):
        rng = random.Random(406)
        leq = nleq = 0
        for _ in range(2000):
            a = gen.gen_type(rng, 4)
            if rng.random() < 0.4:
                b = gen.gen_supertype(rng, a)
            else:
                b = gen.gen_type(rng, 4)
            v = decide(a, b)
            if v.relation == "leq":
                leq += 1
                assert v.derivation is None
                assert sub(a, b)
                with pytest.raises(NotDerivable):
                    nsub(a, b)
            else:
                nleq += 1
                assert not sub(a, b)
                assert rules_of(v.derivation) <= RULES
        assert leq >= 400
        assert nleq >= 400

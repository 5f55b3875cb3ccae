"""Subtyping: the coinductive checker, the inductive negation, and decide."""

import hashlib
import json
import random
import sys
from importlib import resources

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
from mpst import cli
from mpst import syntax as S

T = parse_session_type

# 200 prefixes: deeper than a structural equality of two parses can go at
# Python's default recursion limit (141), shallower than hashing one (248).
CHAIN = "p!l(nat)." * 200


# --------------------------------------------------------------------------
# An independent checker of refutations
# --------------------------------------------------------------------------

SUBSORTS = {(s, s) for s in S.Sort} | {(S.Sort.NAT, S.Sort.INT)}


def members(t):
    """The single-branch members of an intersection or union."""
    return [type(t)(t.partner, (br,)) for br in t.branches]


def prefix(t, kind):
    return isinstance(t, kind) and len(t.branches) == 1


def premises(rule, x, y):
    """The premise lists under which `rule` concludes that x is not a
    subtype of y, one list per instance: none when the rule does not apply
    to that shape, several for intR and uniL, which take any one member."""
    prefixes = (S.TIn, S.TOut)
    if rule == "nsub-endL":
        return [[]] if isinstance(x, prefixes) and isinstance(y, S.TEnd) else []
    if rule == "nsub-endR":
        return [[]] if isinstance(x, S.TEnd) and isinstance(y, prefixes) else []
    if rule == "nsub-diff-part":
        ok = prefix(x, prefixes) and prefix(y, prefixes) and x.partner != y.partner
        return [[]] if ok else []
    if rule == "nsub-out-in":
        return [[]] if prefix(x, S.TOut) and prefix(y, S.TIn) else []
    if rule == "nsub-in-out":
        return [[]] if prefix(x, S.TIn) and prefix(y, S.TOut) else []
    if rule in ("nsub-in-in", "nsub-out-out"):
        kind = S.TIn if rule == "nsub-in-in" else S.TOut
        if not (prefix(x, kind) and prefix(y, kind) and x.partner == y.partner):
            return []
        bx, by = x.branches[0], y.branches[0]
        sorts = (by.sort, bx.sort) if kind is S.TIn else (bx.sort, by.sort)
        if bx.label != by.label or sorts not in SUBSORTS:
            return [[]]
        return [[(bx.cont, by.cont)]]
    if rule == "nsub-intR" and isinstance(y, S.TIn) and len(y.branches) >= 2:
        return [[(x, m)] for m in members(y)]
    if rule == "nsub-uniL" and isinstance(x, S.TOut) and len(x.branches) >= 2:
        return [[(m, y)] for m in members(x)]
    if rule == "nsub-intL-uniR" and (
            (isinstance(x, S.TIn) or prefix(x, S.TOut))
            and (isinstance(y, S.TOut) or prefix(y, S.TIn))):
        return [[(m, n) for m in members(x) for n in members(y)]]
    return []


def check_derivation(d, seen=None):
    """Assert that d is a valid refutation, node by node, against the ten
    rules named in mpst.subtyping: the shape of the unfolded left and right
    types, the side condition on partner, label and sort (with this file's
    own nat <= int table), and children that are exactly the rule's
    premises, compared as regular trees.  It never asks sub, nsub or
    decide."""
    seen = set() if seen is None else seen
    if id(d) in seen:
        return
    seen.add(id(d))
    x, y = S.unfold_spine(d.left), S.unfold_spine(d.right)
    instances = premises(d.rule, x, y)
    assert instances, f"[{d.rule}] does not apply to {x} !<= {y}"
    assert any(matches(d.children, pairs) for pairs in instances), (
        f"[{d.rule}] {x} !<= {y}: the children are not its premises")
    for child in d.children:
        check_derivation(child, seen)


def matches(children, pairs):
    return len(children) == len(pairs) and all(
        S.regular_tree_equal(c.left, a) and S.regular_tree_equal(c.right, b)
        for c, (a, b) in zip(children, pairs))


def check_refutation(d, a, b):
    """d refutes exactly the pair (a, b) and is valid."""
    assert S.regular_tree_equal(d.left, a) and S.regular_tree_equal(d.right, b)
    check_derivation(d)


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

    def test_open_types(self):
        # Free type variables are rigid: each is related only to itself.
        assert sub(T("p!l(nat).t"), T("p!l(nat).t"))
        assert sub(T("t"), T("t"))
        assert sub(T("mu s.p!l(nat).t"), T("p!l(nat).t"))
        assert not sub(T("t"), T("s"))
        assert not sub(T("end"), T("t"))

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
                check_refutation(v.derivation, a, b)
        assert leq >= 400
        assert nleq >= 400

    def test_neither_procedure_calls_regular_tree_equality(self):
        entered = []

        def tracer(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "regular_tree_equal":
                entered.append(frame.f_code.co_name)
            return None

        src = "mu t.p!l1(nat).t \\/ p!l2(int).(mu s.q?m(bool).s & q?n(nat).t)"
        a, b = T(src), T(src)
        assert a is not b
        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            assert sub(a, b)
            with pytest.raises(NotDerivable):
                nsub(a, b)
        finally:
            sys.settrace(old)
        assert entered == []

    def test_separately_parsed_deep_chains_are_related(self):
        assert decide(T(CHAIN + "end"), T(CHAIN + "end")).relation == "leq"

    def test_deep_chains_differing_in_the_last_label_are_refuted(self):
        changed = "p!l(nat)." * 199 + "p!m(nat).end"
        assert decide(T(CHAIN + "end"), T(changed)).relation == "nleq"


def fixture_types():
    names = sorted(p.name for p in
                   resources.files("mpst").joinpath("fixtures").iterdir())
    return [T(fixture_text(n)) for n in names if n.endswith(".mpst")]


class TestDerivationChecker:
    def test_every_refutation_of_the_fixtures_is_valid(self):
        types = fixture_types()
        refuted = 0
        for a in types:
            for b in types:
                v = decide(a, b)
                if v.relation == "nleq":
                    check_refutation(v.derivation, a, b)
                    assert str(v.derivation) == format_derivation(v.derivation)
                    refuted += 1
        assert refuted == 108

    @pytest.mark.parametrize("left, right", [
        ("p!l1(nat).end \\/ p!l2(nat).end", "p!l1(nat).end"),
        ("p?l1(nat).end", "p?l1(nat).end & p?l2(nat).end"),
        ("p?l1(nat).end & p?l2(nat).end", "p!l1(nat).end"),
        ("p?l(nat).p?m(nat).end", "p?l(nat).p?m(int).end"),
    ])
    def test_broken_derivations_are_rejected(self, left, right):
        d = nsub(T(left), T(right))
        check_derivation(d)
        end = NsubDerivation("nsub-endR", T("end"), T("p!l(nat).end"))
        broken = [
            NsubDerivation("nsub-endL", d.left, d.right, d.children, d.note),
            NsubDerivation(d.rule, d.left, d.right, d.children[:-1], d.note),
            NsubDerivation(d.rule, d.left, d.right, d.children + (end,), d.note),
            NsubDerivation(d.rule, d.left, d.right, (end,) * len(d.children),
                           d.note),
            NsubDerivation(d.rule, d.right, d.left, d.children, d.note),
        ]
        for bad in broken:
            with pytest.raises(AssertionError):
                check_derivation(bad)

    def test_sort_side_conditions_use_their_own_table(self):
        # Input sorts are contravariant: p?l(int).end <= p?l(nat).end, so
        # no leaf refutes that pair, whatever its note says.
        leaf = NsubDerivation("nsub-in-in", T("p?l(int).end"),
                              T("p?l(nat).end"), note="forged")
        with pytest.raises(AssertionError):
            check_derivation(leaf)
        check_derivation(NsubDerivation("nsub-in-in", T("p?l(nat).end"),
                                        T("p?l(int).end")))


def test_verdicts_and_derivations_on_the_criterion_5_stream():
    """Golden digests of `sub`'s verdict and `nsub`'s rendered derivation
    (or "≤") on the first 2 000 pairs of criterion 5's stream, and of the
    `--json` witness of each refuted pair.  That witness keeps the key
    order of a derivation's fields only because no node has both a note
    and children: notes appear only on leaves."""
    digest = hashlib.sha256()
    as_json = hashlib.sha256()
    for a, b in gen.subtype_pairs(random.Random(20260816), 2000):
        try:
            d = nsub(a, b)
        except NotDerivable:
            text = "≤"
        else:
            text = format_derivation(d)
            as_json.update(json.dumps(d, indent=2,
                                      default=cli._jsonable).encode())
            nodes = [d]
            while nodes:
                node = nodes.pop()
                assert not (node.note and node.children), text
                nodes.extend(node.children)
        digest.update(f"{sub(a, b)}\n{text}\n\n".encode())
    assert digest.hexdigest() == (
        "e3364eb5fecd71b06744f63bd4df37b902490bca8a6a30f347aea862478f2da0")
    assert as_json.hexdigest() == (
        "02647135c95318f912955aa39b1669e3e945a546841e426e29ea56cf34d3e6ab")

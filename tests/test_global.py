"""Global types: projection, merging, consumption, and the frontier."""

import itertools
import random
import sys

import pytest

import gen
from conftest import distinct_nodes, fixture_text
from mpst import (
    CommAction,
    ConsumeUndefined,
    MergeUndefined,
    ProjectionError,
    consume,
    frontier_actions,
    global_step,
    merge,
    parse_global_type,
    parse_session_type,
    participants_of,
    project,
    project_all,
    regular_tree_equal,
    show,
)
from mpst import syntax as S
from mpst.syntax import free_vars, subst


def load_global(name):
    return parse_global_type(fixture_text(name))


def reuse_names(g):
    """An alpha-equivalent global whose binders each take the first of
    t, u, v, ... not free in their body: as much shadowing as scoping
    allows."""
    if isinstance(g, S.GRec):
        taken = {v.name for v in free_vars(g.body)} - {g.var}
        names = itertools.chain("tuvwxyz", (f"t{i}" for i in itertools.count()))
        name = next(n for n in names if n not in taken)
        return S.GRec(name, reuse_names(subst(g.body, S.GVar(g.var), S.GVar(name))))
    if isinstance(g, S.GComm):
        return S.GComm(g.sender, g.receiver, tuple(
            S.Branch(b.label, b.sort, reuse_names(b.cont)) for b in g.branches))
    return g


class TestProjection:
    def test_branching_protocol_all_roles(self):
        g = load_global("sec3_global.gt")
        assert show(project(g, "p")) == "q!l1(nat).end \\/ q!l2(bool).end"
        assert show(project(g, "q")) == (
            "p?l1(nat).r!l3(int).end & p?l2(bool).r!l5(nat).end")
        assert show(project(g, "r")) == "q?l3(int).end & q?l5(nat).end"

    def test_third_party_merge_matches_fixture(self):
        g = load_global("sec3_global.gt")
        want = parse_session_type(fixture_text("sec3_proj_r.mpst"))
        assert regular_tree_equal(project(g, "r"), want)

    def test_project_all_covers_every_participant(self):
        g = load_global("sec3_global.gt")
        views = project_all(g)
        assert set(views) == {"p", "q", "r"}
        assert views["r"] == project(g, "r")

    def test_project_all_agrees_with_project_per_role(self):
        rng = random.Random(302)
        shadowing = parse_global_type(
            "mu t.p -> q : { a(nat).mu t.q -> p : l(nat).t, b(nat).t }")
        undefined = 0
        for g in [shadowing] + [gen.gen_global(rng, 3) for _ in range(300)]:
            expected, first_error = {}, None
            for role in sorted(participants_of(g)):
                try:
                    expected[role] = project(g, role)
                except ProjectionError as e:
                    first_error = first_error or e
            if first_error is None:
                assert project_all(g) == expected
                continue
            undefined += 1
            with pytest.raises(ProjectionError) as exc:
                project_all(g)
            assert str(exc.value) == str(first_error)
        assert undefined >= 30

    def test_a_shadowing_binder_keeps_its_name_during_projection(self):
        g = parse_global_type(
            "mu t.p -> q : { a(nat).mu t.q -> p : l(nat).t, b(nat).t }")
        onto_p, onto_q = project(g, "p"), project(g, "q")
        assert show(onto_p) == "mu t.q!a(nat).(mu t.q?l(nat).t) \\/ q!b(nat).t"
        assert show(onto_q) == "mu t.p?a(nat).(mu t.p!l(nat).t) & p?b(nat).t"
        # Renaming the inner binder gives the same trees.
        assert regular_tree_equal(onto_p, parse_session_type(
            "mu t.q!a(nat).(mu t_1.q?l(nat).t_1) \\/ q!b(nat).t"))
        assert regular_tree_equal(onto_q, parse_session_type(
            "mu t.p?a(nat).(mu t_1.p!l(nat).t_1) & p?b(nat).t"))

    def test_projection_substitutes_nothing_on_entering_a_binder(self):
        g = parse_global_type(
            "mu t.p -> q : { a(nat).mu t.q -> p : l(nat).t, b(nat).t }")
        entered = []

        def tracer(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "subst":
                entered.append(frame.f_code.co_name)
            return None

        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            project(g, "p")
        finally:
            sys.settrace(old)
        assert entered == []

    def test_participants_are_computed_once_per_node(self, monkeypatch):
        # Each binder asks for the participants of its body.  Cached on the
        # node (`_parts`), that is one `_roles` read per distinct node, 301
        # here; an uncached walk reads 30 601.
        g = parse_global_type("".join(
            f"mu t{i}.p -> q : l(nat)." for i in range(100)) + "t0")
        nodes = distinct_nodes(g)
        read = []
        for cls in {type(t) for t in nodes}:
            roles = cls._roles
            monkeypatch.setattr(cls, "_roles", staticmethod(
                lambda t, roles=roles: read.append(id(t)) or roles(t)))
        assert set(project_all(g)) == {"p", "q"}
        assert len(read) == len(nodes) == 301
        assert set(read) == {id(t) for t in nodes}

    def test_reused_binder_names_project_alike(self):
        rng = random.Random(1010)
        changed = 0
        for _ in range(3000):
            g = gen.gen_global(rng, 5)
            g2 = reuse_names(g)
            changed += show(g2) != show(g)
            for role in sorted(participants_of(g)):
                outcomes = []
                for h in (g, g2):
                    try:
                        outcomes.append(project(h, role))
                    except ProjectionError as e:
                        outcomes.append(e.kind)
                a, b = outcomes
                if isinstance(a, str) or isinstance(b, str):
                    assert a == b, (show(g), role)
                else:
                    assert regular_tree_equal(a, b), (show(g), role)
        assert changed >= 500

    def test_absent_participant_projects_to_end(self):
        g = load_global("sec3_global.gt")
        assert show(project(g, "z")) == "end"
        loop = parse_global_type("mu t. p -> q : l(nat).t")
        assert show(project(loop, "r")) == "end"

    def test_recursion_with_one_exiting_branch(self):
        g = parse_global_type(
            "mu t. p -> q : { a(nat). p -> r : c(nat).t,"
            " b(nat). p -> r : d(int).end }")
        assert show(project(g, "r")) == "mu t.p?c(nat).t & p?d(int).end"
        assert show(project(g, "q")) == "mu t.p?a(nat).t & p?b(nat).end"

    def test_unmergeable_views_are_rejected(self):
        g = load_global("ex1_nochain.gt")
        with pytest.raises(ProjectionError) as exc:
            project(g, "r")
        assert "mergeUndefined" in str(exc.value)
        assert exc.value.detail == "cannot merge p!l2(int).end with end"

    def test_projection_respects_consumption(self):
        rng = random.Random(301)
        checked = 0
        for _ in range(200):
            g = gen.gen_global(rng, 3)
            try:
                views = project_all(g)
            except ProjectionError:
                continue
            for action, g2 in global_step(g):
                try:
                    views2 = project_all(g2)
                except ProjectionError:
                    continue
                for role in participants_of(g2):
                    assert role in views
                checked += 1
        assert checked >= 50


class TestMerge:
    def test_equal_types_merge_to_themselves(self):
        t = parse_session_type("q!l(nat).end")
        assert merge(t, t) == t
        a = parse_session_type("mu t.p?l(nat).t")
        b = parse_session_type("mu s.p?l(nat).p?l(nat).s")
        assert regular_tree_equal(merge(a, b), a)

    def test_disjoint_input_intersections_union_their_branches(self):
        a = parse_session_type("q?l3(int).end")
        b = parse_session_type("q?l5(nat).end")
        assert show(merge(a, b)) == "q?l3(int).end & q?l5(nat).end"

    def test_merge_is_commutative_on_inputs(self):
        a = parse_session_type("q?l3(int).end")
        b = parse_session_type("q?l5(nat).end")
        assert merge(a, b) == merge(b, a)

    def test_output_against_end_is_undefined(self):
        with pytest.raises(MergeUndefined) as exc:
            merge(parse_session_type("p!l2(int).end"), parse_session_type("end"))
        assert str(exc.value) == "cannot merge p!l2(int).end with end"

    def test_overlapping_labels_are_undefined(self):
        with pytest.raises(MergeUndefined) as exc:
            merge(parse_session_type("q?l(int).end"),
                  parse_session_type("q?l(int).q?l(int).end"))
        assert "overlap" in str(exc.value)

    def test_different_senders_are_undefined(self):
        with pytest.raises(MergeUndefined):
            merge(parse_session_type("q?l1(int).end"),
                  parse_session_type("r?l2(int).end"))


class TestConsume:
    def test_root_communication_picks_the_branch(self):
        g = load_global("sec3_global.gt")
        assert show(consume(g, CommAction("p", "l2", "q"))) == (
            "q -> r : l5(nat).end")

    def test_unknown_label_is_undefined(self):
        g = load_global("sec3_global.gt")
        with pytest.raises(ConsumeUndefined) as exc:
            consume(g, CommAction("p", "l9", "q"))
        assert "label l9 not offered" in str(exc.value)

    def test_independent_action_passes_under_a_prefix(self):
        g = parse_global_type(
            "p -> q : { a(nat). r -> s : m(int).end,"
            " b(bool). r -> s : m(int).end }")
        assert show(consume(g, CommAction("r", "m", "s"))) == (
            "p -> q : { a(nat).end, b(bool).end }")

    def test_overlapping_participants_block_deeper_actions(self):
        g = load_global("sec3_global.gt")
        with pytest.raises(ConsumeUndefined) as exc:
            consume(g, CommAction("q", "l3", "r"))
        assert "overlaps" in str(exc.value)

    def test_an_action_behind_a_loop_is_buried(self):
        g = parse_global_type("mu t.r -> s : m(nat).t")
        with pytest.raises(ConsumeUndefined) as exc:
            consume(g, CommAction("p", "l", "q"))
        assert str(exc.value) == "p --l--> q is buried behind a loop"

    def test_consume_unfolds_recursion(self):
        g = parse_global_type("mu t. r -> s : la(nat). p -> q : l(nat).t")
        assert show(consume(g, CommAction("p", "l", "q"))) == (
            "r -> s : la(nat).mu t.r -> s : la(nat).p -> q : l(nat).t")


class TestFrontier:
    def test_branches_of_one_communication(self):
        g = load_global("sec3_global.gt")
        assert frontier_actions(g) == [CommAction("p", "l1", "q"),
                                       CommAction("p", "l2", "q")]

    def test_independent_prefixes_are_both_enabled(self):
        g = parse_global_type("p -> q : l(nat). r -> s : m(int).end")
        assert frontier_actions(g) == [CommAction("p", "l", "q"),
                                       CommAction("r", "m", "s")]

    def test_global_step_agrees_with_consume(self):
        g = parse_global_type("p -> q : l(nat). r -> s : m(int).end")
        steps = global_step(g)
        assert len(steps) == 2
        for action, g2 in steps:
            assert consume(g, action) == g2

    def test_global_step_agrees_with_consume_randomly(self):
        rng = random.Random(302)
        edges = 0
        for _ in range(200):
            g = gen.gen_global(rng, 3)
            for action, g2 in global_step(g):
                assert consume(g, action) == g2
                edges += 1
        assert edges >= 150

    def test_global_step_drops_an_action_only_one_branch_offers(self):
        g = parse_global_type(
            "p -> q : { a(nat).r -> s : m(nat).end, b(nat).end }")
        assert CommAction("r", "m", "s") in frontier_actions(g)
        assert [action for action, _ in global_step(g)] == [
            CommAction("p", "a", "q"), CommAction("p", "b", "q")]
        with pytest.raises(ConsumeUndefined) as exc:
            consume(g, CommAction("r", "m", "s"))
        assert str(exc.value) == "r --m--> s cannot be consumed from end"

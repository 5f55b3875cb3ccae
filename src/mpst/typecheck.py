"""Algorithmic typing of processes and sessions.

Checking is syntax-directed with subsumption folded in: input choices are
driven by the goal type's branches (each goal branch must be covered by a
summand with that label; summands the goal does not mention only need to be
typable at some type, which synthesis provides), outputs need their label in
the goal union with a covariant payload sort, conditionals check both arms
against the same goal (once when both are one object, as `char_proc` builds
them), and process variables compare their binding against the goal by
subtyping.

Synthesis reconstructs a minimal type: input sorts are guessed largest-first
(int, then bool, then nat, since input sorts are contravariant), the sort of
a variable the body does not read is int, outputs take the payload's
inferred sort, and a conditional joins its arms either by regular-tree
equality or as a union of outputs to one receiver.
"""

from __future__ import annotations

import itertools

from . import syntax as S
from .errors import TypingError, UnguardedRecursion
from .exprs import infer_sort, subsort
from .global_types import project
from .subtyping import sub


def _fail(message: str, rule: str, path: tuple) -> TypingError:
    return TypingError(message, rule=rule, path=path)


def _input_summands(p: S.Process, path: tuple):
    """The summand list of an input choice, with the common partner.

    Every summand must be an input, all from one partner, labels pairwise
    distinct.
    """
    parts = S.summands(p)
    for q in parts:
        if not isinstance(q, S.Input):
            raise _fail(f"summand {q} is not an input", "t-in-choice", path)
    partners = {q.partner for q in parts}
    if len(partners) != 1:
        raise _fail("summands receive from different partners: "
                    + ", ".join(sorted(partners)), "t-in-choice", path)
    labels = [q.label for q in parts]
    if len(set(labels)) != len(labels):
        dup = sorted(l for l in set(labels) if labels.count(l) > 1)
        raise _fail(f"duplicate summand label {dup[0]}", "t-in-choice", path)
    return parts, partners.pop()


def check_process(gamma: dict, env: dict, p: S.Process, t: S.SessionType,
                  path: tuple = ()) -> None:
    """Check p against t; gamma binds process variables, env binds
    expression variables to sorts.  Raises TypingError on failure."""
    t = S.unfold_spine(t)

    if isinstance(p, S.Inact):
        if not isinstance(t, S.TEnd):
            raise _fail(f"terminated process needs end, got {t}", "t-0", path)
        return

    if isinstance(p, (S.Input, S.ExtChoice)):
        parts, partner = _input_summands(p, path)
        if not isinstance(t, S.TIn):
            raise _fail(f"input choice from {partner} against non-input type {t}",
                        "t-in-choice", path)
        if t.partner != partner:
            raise _fail(f"input expects partner {t.partner}, process receives "
                        f"from {partner}", "t-in-choice", path)
        by_label = {q.label: q for q in parts}
        for br in t.branches:
            q = by_label.pop(br.label, None)
            if q is None:
                raise _fail(f"no summand for required label {br.label}",
                            "t-in-choice", path)
            check_process(gamma, {**env, q.var: br.sort}, q.body, br.cont,
                          path + (br.label,))
        for label, q in by_label.items():
            synthesize_process(gamma, env, q, path + (label,))
        return

    if isinstance(p, S.Output):
        if not isinstance(t, S.TOut):
            raise _fail(f"output to {p.partner} against non-output type {t}",
                        "t-out", path)
        if t.partner != p.partner:
            raise _fail(f"output expects partner {t.partner}, process sends "
                        f"to {p.partner}", "t-out", path)
        branch = next((b for b in t.branches if b.label == p.label), None)
        if branch is None:
            raise _fail(f"label {p.label} not offered by {t}", "t-out", path)
        s = infer_sort(env, p.payload, path)
        if not subsort(s, branch.sort):
            raise _fail(f"payload sort {s} is not a subsort of {branch.sort}",
                        "t-out", path)
        check_process(gamma, env, p.body, branch.cont, path + (p.label,))
        return

    if isinstance(p, S.Cond):
        s = infer_sort(env, p.guard, path)
        if s is not S.Sort.BOOL:
            raise _fail(f"guard has sort {s}, not bool", "t-cond", path)
        check_process(gamma, env, p.then, t, path + ("then",))
        if p.orelse is not p.then:
            check_process(gamma, env, p.orelse, t, path + ("else",))
        return

    if isinstance(p, S.Rec):
        check_process({**gamma, p.var: t}, env, p.body, t, path)
        return

    if isinstance(p, S.ProcVar):
        bound = gamma.get(p.name)
        if bound is None:
            raise _fail(f"unbound process variable {p.name}", "t-var", path)
        if not sub(bound, t):
            raise _fail(f"recursion variable {p.name} bound at {bound}, "
                        f"which is not a subtype of {t}", "t-var", path)
        return

    raise _fail(f"unrecognized process form {p!r}", "t-?", path)


_INPUT_SORT_ORDER = (S.Sort.INT, S.Sort.BOOL, S.Sort.NAT)


def synthesize_process(gamma: dict, env: dict, p: S.Process,
                       path: tuple = ()) -> S.SessionType:
    """Reconstruct a minimal type for p, or raise TypingError."""
    if isinstance(p, S.Inact):
        return S.TEnd()

    if isinstance(p, (S.Input, S.ExtChoice)):
        parts, partner = _input_summands(p, path)
        branches = []
        for q in parts:
            err = None
            # A body that does not read the variable gets the same type, or
            # fails with the same message, under every sort: try int alone.
            read = S.Var(q.var) in S.free_vars(q.body)
            for sort in _INPUT_SORT_ORDER if read else _INPUT_SORT_ORDER[:1]:
                try:
                    cont = synthesize_process(gamma, {**env, q.var: sort},
                                              q.body, path + (q.label,))
                except TypingError as e:
                    err = e
                    continue
                branches.append(S.Branch(q.label, sort, cont))
                break
            else:
                raise _fail(f"no sort admits the body of {q.label}: {err}",
                            "noSort", path + (q.label,))
        return S.TIn(partner, tuple(branches))

    if isinstance(p, S.Output):
        s = infer_sort(env, p.payload, path)
        cont = synthesize_process(gamma, env, p.body, path + (p.label,))
        return S.TOut(p.partner, (S.Branch(p.label, s, cont),))

    if isinstance(p, S.Cond):
        s = infer_sort(env, p.guard, path)
        if s is not S.Sort.BOOL:
            raise _fail(f"guard has sort {s}, not bool", "t-cond", path)
        a = synthesize_process(gamma, env, p.then, path + ("then",))
        b = (a if p.orelse is p.then
             else synthesize_process(gamma, env, p.orelse, path + ("else",)))
        return _join(a, b, path)

    if isinstance(p, S.Rec):
        fresh = _fresh_tvar(gamma)
        body = synthesize_process({**gamma, p.var: S.TVar(fresh)}, env,
                                  p.body, path)
        if S.TVar(fresh) not in S.free_vars(body):
            return body
        try:
            return S.TRec(fresh, body)
        except UnguardedRecursion:
            raise _fail(f"recursion {p.var} loops without communicating",
                        "t-rec", path) from None

    if isinstance(p, S.ProcVar):
        bound = gamma.get(p.name)
        if bound is None:
            raise _fail(f"unbound process variable {p.name}", "t-var", path)
        return bound

    raise _fail(f"unrecognized process form {p!r}", "t-?", path)


def _fresh_tvar(gamma: dict) -> str:
    used = set()
    for t in gamma.values():
        if isinstance(t, S.TVar):
            used.add(t.name)
    return next(f"t{i}" for i in itertools.count() if f"t{i}" not in used)


def _join(a: S.SessionType, b: S.SessionType, path: tuple) -> S.SessionType:
    """Least upper bound of two branch types, when the type language can
    express it: equal trees collapse, outputs to one receiver form a union."""
    if S.regular_tree_equal(a, b):
        return a
    na = S.unfold_spine(a)
    nb = S.unfold_spine(b)
    if (isinstance(na, S.TOut) and isinstance(nb, S.TOut)
            and na.partner == nb.partner):
        by_label = {br.label: br for br in na.branches}
        for br in nb.branches:
            other = by_label.get(br.label)
            if other is None:
                by_label[br.label] = br
            elif (br.sort is not other.sort
                  or not S.regular_tree_equal(br.cont, other.cont)):
                raise _fail(f"branches disagree on label {br.label}",
                            "illegalUnion", path)
        return S.TOut(na.partner, tuple(by_label.values()))
    raise _fail(f"no union covers both {a} and {b}", "illegalUnion", path)


def check_session(m: S.Session, g: S.GlobalType) -> None:
    """Check every member of m against its projection of g."""
    mapping = m.mapping()
    roles = S.participants_of(g)
    missing = sorted(roles - set(mapping))
    if missing:
        raise TypingError(f"no process for participant {missing[0]}",
                          rule="participantMissing", path=(missing[0],))
    for role in sorted(mapping):
        local = project(g, role)
        check_process({}, {}, mapping[role], local, path=(role,))

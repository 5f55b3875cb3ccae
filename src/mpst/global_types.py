"""Operations on global types: merge, projection, consumption, stepping.

Projection follows the standard table: the sender of a communication sees a
union of outputs, the receiver an intersection of inputs, and everybody else
the merge of the branch projections.  The merge operator is deliberately
simple: equal regular trees, or two intersections from the same sender with
disjoint labels.

One extension beyond the table: while projecting the body of `mu t.G`, a
merge of some type T against the still-pending variable t cannot be decided
locally.  We resolve it to T and record the obligation `t = T`; when the
binder completes with result R we verify `R = T[t := R]` as regular trees and
fail the projection otherwise.  This is the least fixpoint the equi-recursive
reading demands, and it is what makes protocols in which a participant only
acts in the exit branch of a loop projectable.  Merges not involving the
pending variable are unchanged.  The obligations are scoped like binders: the
body of `mu t.G` is projected with t's obligations added to those of the
enclosing binders, so an inner t shadows an outer t in both, and projection
never renames a binder.

Consumption of a communication action unfolds recursion binders as it
descends, so the defined cases are the table's two clauses on the unfolded
tree; descending through the same unfolded node twice for one action means
the action is buried behind a loop and the consumption is undefined.
"""

from __future__ import annotations

from . import syntax as S
from .errors import ConsumeUndefined, MergeUndefined, ProjectionError


@S.frozen
class CommAction(S.Record):
    """A single synchronisation: sender communicates label to receiver."""

    sender: str
    label: str
    receiver: str

    def __str__(self) -> str:
        return f"{self.sender} --{self.label}--> {self.receiver}"


# --------------------------------------------------------------------------
# Merge
# --------------------------------------------------------------------------


def merge(a: S.SessionType, b: S.SessionType) -> S.SessionType:
    """The partial merge operator.  Raises MergeUndefined."""
    if S.regular_tree_equal(a, b):
        return a
    ua = S.unfold_spine(a)
    ub = S.unfold_spine(b)
    if isinstance(ua, S.TIn) and isinstance(ub, S.TIn) and ua.sender == ub.sender:
        labels_a = {br.label for br in ua.branches}
        labels_b = {br.label for br in ub.branches}
        if labels_a & labels_b:
            raise MergeUndefined(
                f"intersections overlap on {sorted(labels_a & labels_b)}: {a} vs {b}")
        return S.TIn(ua.sender, ua.branches + ub.branches)
    raise MergeUndefined(f"cannot merge {a} with {b}")


# --------------------------------------------------------------------------
# Projection
# --------------------------------------------------------------------------


def project(g: S.GlobalType, role: str) -> S.SessionType:
    """Project `g` onto `role`; raises ProjectionError when undefined.

    The pending obligations are scoped like the binders they belong to, so
    an inner binder that reuses a name shadows the outer one in the
    obligations as it does in `g`, and no binder is ever renamed."""
    Pending = dict[str, list[tuple[S.SessionType, tuple[str, ...]]]]

    def go(u: S.GlobalType, path: tuple[str, ...], pending: Pending) -> S.SessionType:
        if isinstance(u, S.GEnd):
            return S.TEnd()
        if isinstance(u, S.GVar):
            return S.TVar(u.name)
        if isinstance(u, S.GRec):
            if role not in S.participants_of(u.body):
                return S.TEnd()
            var, obligations = u.var, []
            body = go(u.body, path, {**pending, var: obligations})
            if S.TVar(var) in S.free_vars(body):
                try:
                    result: S.SessionType = S.TRec(var, body)
                except S.UnguardedRecursion:
                    raise ProjectionError("unguardedResult", path,
                                          f"projection of mu {var} loops without "
                                          f"communicating") from None
            else:
                result = body
            for needed, opath in obligations:
                solved = S.subst(needed, S.TVar(var), result)
                if not S.regular_tree_equal(result, solved):
                    raise ProjectionError(
                        "mergeUndefined", opath,
                        f"loop body projects to {result}, but a sibling branch "
                        f"needs {needed}")
            return result
        if isinstance(u, S.GComm):
            if role == u.sender:
                return S.TOut(u.receiver, tuple(
                    S.TBranch(b.label, b.sort, go(b.cont, path + (b.label,), pending))
                    for b in u.branches))
            if role == u.receiver:
                return S.TIn(u.sender, tuple(
                    S.TBranch(b.label, b.sort, go(b.cont, path + (b.label,), pending))
                    for b in u.branches))
            acc: S.SessionType | None = None
            for b in u.branches:
                nxt = go(b.cont, path + (b.label,), pending)
                acc = nxt if acc is None else merge_pending(acc, nxt, path, pending)
            assert acc is not None  # branch lists are never empty
            return acc
        raise TypeError(f"not a global type: {u!r}")

    def merge_pending(a: S.SessionType, b: S.SessionType,
                      path: tuple[str, ...], pending: Pending) -> S.SessionType:
        ua = S.unfold_spine(a)
        ub = S.unfold_spine(b)
        if isinstance(ua, S.TVar) and ua.name in pending and not isinstance(ub, S.TVar):
            pending[ua.name].append((b, path))
            return b
        if isinstance(ub, S.TVar) and ub.name in pending and not isinstance(ua, S.TVar):
            pending[ub.name].append((a, path))
            return a
        try:
            return merge(a, b)
        except MergeUndefined as exc:
            raise ProjectionError("mergeUndefined", path, str(exc)) from None

    return go(g, (), {})


def project_all(g: S.GlobalType) -> dict[str, S.SessionType]:
    """Projections onto every participant of `g`."""
    return {p: project(g, p) for p in sorted(S.participants_of(g))}


# --------------------------------------------------------------------------
# Consumption and stepping
# --------------------------------------------------------------------------


def consume(g: S.GlobalType, action: CommAction) -> S.GlobalType:
    """Remove one communication from `g`.

    Defined when the action's communication sits at the root, or recursively
    in *every* branch of communications whose participants are disjoint from
    the action's.  Raises ConsumeUndefined otherwise.
    """
    acting = {action.sender, action.receiver}
    still_open: set[S.GlobalType] = set()
    memo: dict[S.GlobalType, S.GlobalType] = {}

    def go(u: S.GlobalType) -> S.GlobalType:
        u = S.unfold_spine(u)
        if u in memo:
            return memo[u]
        if u in still_open:
            raise ConsumeUndefined(f"{action} is buried behind a loop")
        if isinstance(u, (S.GEnd, S.GVar)):
            raise ConsumeUndefined(f"{action} cannot be consumed from {u}")
        assert isinstance(u, S.GComm)
        here = {u.sender, u.receiver}
        if u.sender == action.sender and u.receiver == action.receiver:
            for b in u.branches:
                if b.label == action.label:
                    memo[u] = b.cont
                    return b.cont
            raise ConsumeUndefined(f"label {action.label} not offered by {u}")
        if here & acting:
            raise ConsumeUndefined(
                f"{action} overlaps the communication {u.sender} -> {u.receiver}")
        still_open.add(u)
        out = S.GComm(u.sender, u.receiver, tuple(
            S.GBranch(b.label, b.sort, go(b.cont)) for b in u.branches))
        still_open.remove(u)
        memo[u] = out
        return out

    return go(g)


def frontier_actions(g: S.GlobalType) -> list[CommAction]:
    """Actions of communications reachable from the root through
    communications whose participants do not overlap theirs."""
    found: dict[CommAction, None] = {}
    seen: set[tuple[S.GlobalType, frozenset[str]]] = set()

    def walk(u: S.GlobalType, above: frozenset[str]) -> None:
        u = S.unfold_spine(u)
        if isinstance(u, (S.GEnd, S.GVar)):
            return
        assert isinstance(u, S.GComm)
        key = (u, above)
        if key in seen:
            return
        seen.add(key)
        if not (above & {u.sender, u.receiver}):
            for b in u.branches:
                found.setdefault(CommAction(u.sender, b.label, u.receiver))
        below = above | {u.sender, u.receiver}
        for b in u.branches:
            walk(b.cont, below)

    walk(g, frozenset())
    return list(found)


def global_step(g: S.GlobalType) -> list[tuple[CommAction, S.GlobalType]]:
    """All single-step evolutions of `g`: frontier actions whose consumption
    is defined, paired with the remaining global type."""
    out = []
    for action in frontier_actions(g):
        try:
            out.append((action, consume(g, action)))
        except ConsumeUndefined:
            continue
    return out

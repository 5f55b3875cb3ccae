"""Characteristic constructions and the preciseness harness.

The characteristic global type of T at a fresh participant p turns every
prefix of T into a communication between p and the prefix's partner, followed
by a full round of bool-labeled relay messages cycling through all of T's
participants (starting at the partner).  The relay round keeps every other
participant in lockstep with p's progress, which is what makes the projection
onto p give back exactly T and the projections onto the others defined.

The characteristic process of T exercises a type at exactly its sorts:
received nat values are probed with `succ x > 0`, ints with `neg x > 0`,
bools with `not x`, and sent values are the witnesses 5, -5, true.  Unions
become conditionals over the nondeterministic guard `true (+) false`, so
every arm stays reachable.

Together these make subtyping failures observable: when T is not a subtype
of T', placing the characteristic process of T in a session whose other roles
implement the characteristic global type of T' yields a session that can
reduce to a genuinely stuck state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import syntax as S
from .errors import InternalError, ParticipantClash, ProjectionError
from .global_types import project

if TYPE_CHECKING:  # annotations only: the search and the decision load late
    from .runtime import Step
    from .subtyping import NsubDerivation


def char_global(t: S.SessionType, p: str) -> S.GlobalType:
    roles = sorted(S.participants_of(t))
    if p in roles:
        raise ParticipantClash(f"{p} already occurs in {t}")

    n = len(roles)

    def chain(g: S.GlobalType, label: str, start: int) -> S.GlobalType:
        if n < 2:
            return g
        for k in range(n - 1, -1, -1):
            sender = roles[(start + k) % n]
            receiver = roles[(start + k + 1) % n]
            g = S.GComm(sender, receiver,
                        (S.Branch(label, S.Sort.BOOL, g),))
        return g

    def go(t: S.SessionType) -> S.GlobalType:
        if isinstance(t, S.TEnd):
            return S.GEnd()
        if isinstance(t, S.TVar):
            return S.GVar(t.name)
        if isinstance(t, S.TRec):
            return S.GRec(t.var, go(t.body))
        start = roles.index(t.partner)
        branches = tuple(
            S.Branch(br.label, br.sort, chain(go(br.cont), br.label, start))
            for br in t.branches)
        ends = (t.partner, p) if isinstance(t, S.TIn) else (p, t.partner)
        return S.GComm(*ends, branches)

    return go(t)


_PROBE_VALUES = {
    S.Sort.NAT: S.Num(5),
    S.Sort.INT: S.Num(-5),
    S.Sort.BOOL: S.BoolLit(True),
}


def _probe(var: str, sort: S.Sort) -> S.Expr:
    x = S.Var(var)
    if sort is S.Sort.NAT:
        return S.Gt(S.Succ(x), S.Num(0))
    if sort is S.Sort.INT:
        return S.Gt(S.Neg(x), S.Num(0))
    return S.Not(x)


def char_proc(t: S.SessionType) -> S.Process:
    if isinstance(t, S.TEnd):
        return S.Inact()
    if isinstance(t, S.TVar):
        return S.ProcVar("X_" + t.name)
    if isinstance(t, S.TRec):
        return S.Rec("X_" + t.var, char_proc(t.body))
    if isinstance(t, S.TIn):
        summands = []
        for br in t.branches:
            cont = char_proc(br.cont)
            body = S.Cond(_probe("x", br.sort), cont, cont)
            summands.append(S.Input(t.partner, br.label, "x", body))
        return S.ext_choice(summands)
    arms = [S.Output(t.partner, br.label, _PROBE_VALUES[br.sort],
                     char_proc(br.cont))
            for br in t.branches]
    result = arms[-1]
    flip = S.Choice(S.BoolLit(True), S.BoolLit(False))
    for arm in reversed(arms[:-1]):
        result = S.Cond(flip, arm, result)
    return result


def fresh_participant(*types: S.SessionType) -> str:
    return S.fresh_name("_c", set().union(*map(S.participants_of, types)))


def counterexample_session(t: S.SessionType, tp: S.SessionType,
                           p: str | None = None) -> S.Session:
    """The session that exhibits stuckness when t is not a subtype of tp:
    p runs the characteristic process of t among partners implementing the
    characteristic global type of tp."""
    if p is None:
        p = fresh_participant(t, tp)
    entries = [(p, char_proc(t))]
    g = char_global(tp, p)
    try:
        for role in sorted(S.participants_of(tp)):
            entries.append((role, char_proc(project(g, role))))
    except ProjectionError as e:
        raise InternalError(
            f"characteristic global type failed to project: {e}") from None
    return S.Session(tuple(entries))


@S.frozen
class PrecisenessReport(S.Record):
    """Outcome of exercising one pair against the preciseness property.

    relation: "leq" or "nleq" as decided.
    ok: True when the property was confirmed, False when violated, None when
        the bounded search was inconclusive (fuel exhausted).
    detail: human-readable explanation.
    trace: the witness trace (stuck run for nleq).
    derivation: the refutation tree for nleq pairs.
    stuck_state: the stuck session for confirmed nleq pairs.
    session: the counterexample session searched, for nleq pairs.
    """

    relation: str
    ok: bool | None
    detail: str
    trace: tuple[Step, ...] = ()
    derivation: NsubDerivation | None = None
    stuck_state: S.Session | None = None
    session: S.Session | None = None


# What a verdict of the stuck search means for a decided pair: whether
# preciseness holds (None: the fuel ran out first) and the detail.
_SAFE = True, "substituted session is safe ({verdict}, {explored} states)"
_MISSED = False, "completeness violated: counterexample session reported {verdict}"
_PRECISENESS = {
    ("leq", "stuckFound"): (False, "soundness violated: subtype substitution "
                                   "got stuck"),
    ("leq", "diverged"): (None, "fuel exhausted after {explored} states; "
                                "no stuck state found so far"),
    ("leq", "terminated"): _SAFE, ("leq", "noStuckWithinFuel"): _SAFE,
    ("nleq", "stuckFound"): (True, "counterexample session got stuck after "
                                   "{steps} steps"),
    ("nleq", "diverged"): (None, "fuel exhausted after {explored} states "
                                 "without finding the stuck state"),
    ("nleq", "terminated"): _MISSED, ("nleq", "noStuckWithinFuel"): _MISSED,
}


def preciseness_check(t: S.SessionType, tp: S.SessionType,
                      fuel: int = 10000) -> PrecisenessReport:
    # Their one caller here, so `char_global` and `char_proc` never load them.
    from .runtime import stuck_search
    from .subtyping import decide
    from .typecheck import check_session
    verdict = decide(t, tp)
    p = fresh_participant(t, tp)
    session = counterexample_session(t, tp, p)
    leq = verdict.relation == "leq"
    if leq:
        typed = {**session.mapping(), p: char_proc(tp)}
        check_session(S.Session(tuple(typed.items())), char_global(tp, p))
    report = stuck_search(session, fuel)
    ok, detail = _PRECISENESS[verdict.relation, report.verdict]
    detail = detail.format(verdict=report.verdict, explored=report.explored,
                           steps=len(report.trace))
    # Only a stuckFound search has a trace and a state.
    return PrecisenessReport(verdict.relation, ok, detail, report.trace,
                             verdict.derivation, report.state,
                             None if leq else session)

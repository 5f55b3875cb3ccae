"""Small-step interpreter for sessions and the stuck-state search.

States are kept in a congruence-canonical form: recursion at the head of a
process is unfolded, external choices are flattened and their summands sorted
by printed form, terminated participants are dropped, and a lone sentinel
entry stands in when everyone has terminated.  Two congruent sessions map to
the same canonical state, which is what lets the search deduplicate.  The
search canonicalises its start state once; after that a successor
re-canonicalises only the entries its step changed and keeps the others,
which are canonical already.  The search expands one partner-closed group
of roles per state (a partial-order reduction, argued in `stuck_search`);
`step_all` and `run` see every step.

Reduction follows the synchronous rules literally: a communication fires only
when the sender's entire process is an output and the receiver's is an input
choice toward that sender offering the label; expressions evaluate by the
nondeterministic value relation, so one redex can yield several successors
(one per value, and per summand when several offer the label), and a
conditional forks on every boolean value of its guard.  A communication
substitutes the value, a literal, for the receiver's variable.  An expression
with no value contributes no successor at all, which is one of the ways a
session gets stuck.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from . import syntax as S
from .errors import FuelMisuse
from .exprs import eval_all
from .printer import show_expr


@dataclass(frozen=True)
class Step:
    """One reduction: the rule applied, the printable trace line, and the
    structured pieces (source/target participant, label and value for
    communications; conditionals have source == target and no label).  The
    value is a literal expression: the one substituted into the receiver,
    or the guard's `BoolLit`.  When several summands of the receiver offer
    the label, `summand` is the 1-based position of the one that fired
    among them, in canonical order, and the line ends in ` #k`; otherwise
    it is None."""

    rule: str  # "r-comm" | "t-conditional" | "f-conditional"
    line: str
    source: str = ""
    target: str = ""
    label: str | None = None
    value: S.Expr | None = None
    summand: int | None = None

    def __str__(self) -> str:
        return self.line


@dataclass(frozen=True)
class StuckReport:
    verdict: str  # "terminated" | "stuckFound" | "noStuckWithinFuel" | "diverged"
    trace: tuple[Step, ...] = ()
    state: S.Session | None = None
    explored: int = 0


def _canon_proc(p: S.Process) -> S.Process:
    p = S.unfold_spine(p)
    if isinstance(p, S.ExtChoice):
        flat = [q for b in p.branches for q in S.summands(_canon_proc(b))]
        return S.ExtChoice(tuple(sorted(flat, key=str)))
    return p


def _state(kept, changed) -> S.Session:
    """The canonical session of the canonical entries `kept` and the
    entries `changed`, which are canonicalised here: terminated ones drop
    out, and the sentinel stands in when no entry is left.  The entries
    come from a validated session, and reduction and canonicalisation name
    no new participant, so the session is built without re-validating."""
    entries = list(kept)
    for role, proc in changed:
        cp = _canon_proc(proc)
        if not isinstance(cp, S.Inact):
            entries.append((role, cp))
    return S.Session.trusted(entries or (("_", S.Inact()),))


def canonicalize(m: S.Session) -> S.Session:
    """Normal form under structural congruence."""
    return _state((), m.parts)


def is_terminated(m: S.Session) -> bool:
    return all(isinstance(p, S.Inact) for _, p in m.parts)


def _values(e: S.Expr) -> list[tuple[str, S.Expr]]:
    """The values of e with their printed forms, in printed order.  The
    printed form of a value is unique, so the sort never compares values."""
    return sorted((show_expr(v), v) for v in eval_all(e))


def step_all(m: S.Session) -> list[tuple[Step, S.Session]]:
    """Every one-step successor of the canonical form of m."""
    m = canonicalize(m)
    return [(step, _successor(m, step, proc, summand))
            for step, proc, summand in _moves(m)]


def _moves(m: S.Session) -> list[tuple[Step, S.Process, S.Input | None]]:
    """Every step of the canonical state m, in trace order, as a triple
    (step, proc, summand): `proc` is what the step's source continues as
    (the conditional's branch, or the sender's continuation) and `summand`
    is the receiver's summand that fires, or None for a conditional.  No
    successor state is built here; `_successor` builds one."""
    mapping = dict(m.parts)
    out: list[tuple[Step, S.Process, S.Input | None]] = []
    for role, proc in m.parts:
        if isinstance(proc, S.Cond):
            for text, v in _values(proc.guard):
                if not isinstance(v, S.BoolLit):
                    continue
                branch = proc.then if v.value else proc.orelse
                rule = "t-conditional" if v.value else "f-conditional"
                step = Step(rule, f"{role} --if({text})--> {role}",
                            source=role, target=role, value=v)
                out.append((step, branch, None))
        elif isinstance(proc, S.Output):
            offers = S.summands(mapping.get(proc.partner))
            if not all(isinstance(q, S.Input) and q.partner == role
                       for q in offers):
                continue
            summands = [q for q in offers if q.label == proc.label]
            if not summands:
                continue
            values = _values(proc.payload)
            numbered = len(summands) > 1
            for k, summand in enumerate(summands, 1):
                number = k if numbered else None
                tag = f" #{k}" if numbered else ""
                for text, v in values:
                    step = Step("r-comm",
                                f"{role} --{proc.label}({text})--> {proc.partner}{tag}",
                                source=role, target=proc.partner,
                                label=proc.label, value=v, summand=number)
                    out.append((step, proc.body, summand))
    return out


def _successor(m: S.Session, step: Step, proc: S.Process,
               summand: S.Input | None) -> S.Session:
    """The state the move (step, proc, summand) of `_moves(m)` leads to."""
    changes = {step.source: proc}
    if summand is not None:
        changes[step.target] = S.subst(summand.body, S.Var(summand.var),
                                       step.value)
    kept = [(r, p) for r, p in m.parts if r not in changes]
    return _state(kept, changes.items())


def _partners(p: S.Process | None) -> list[str]:
    """The roles the head of the canonical process p can communicate with:
    the partners its input and output summands name."""
    return [q.partner for q in S.summands(p)
            if isinstance(q, (S.Input, S.Output))]


def _persistent(m: S.Session, moves: list) -> list:
    """The moves of one partner-closed group of roles of the canonical
    state m: a group starts from one role and adds the partners named by
    each member's head until no new one comes.  Of the groups grown from
    the source of some move, the one with the fewest moves is chosen, ties
    going to the first starting role in canonical order."""
    heads = dict(m.parts)
    best = None
    for role in dict.fromkeys(move[0].source for move in moves):
        group = {role}
        todo = [role]
        while todo:
            for partner in _partners(heads.get(todo.pop())):
                if partner not in group:
                    group.add(partner)
                    todo.append(partner)
        chosen = [move for move in moves if move[0].source in group]
        if best is None or len(chosen) < len(best):
            best = chosen
    return best


def stuck_search(m: S.Session, fuel: int) -> StuckReport:
    """Breadth-first search of the reachable state graph for a stuck state.

    Fuel bounds the number of distinct states explored.  Verdicts:
    stuckFound with a shortest trace; terminated when the whole (finite,
    acyclic) graph was explored without one; noStuckWithinFuel when the
    explored graph has a cycle, so runs exist that never terminate but none
    gets stuck; diverged when fuel ran out first.

    The search expands, at each state, only the steps of one partner-closed
    group of roles (`_persistent`), and builds no successor for the others.
    This is a partial-order reduction with persistent sets (Godefroid,
    LNCS 1032, 1996), and it keeps every verdict and trace length:

      * A step changes only the entries of its source and target.
      * A step of a role in the group involves only roles in the group: a
        sender's receiver is the partner its head names, and a receiver's
        sender is the partner its input choice names.  Until a step of the
        group fires, steps outside the group leave the group's entries
        alone, so they can neither enable nor disable a step of the group,
        and each commutes with every step of the group.  The group's steps
        are therefore a persistent set.
      * Persistent sets keep every reachable terminal state (stuck or
        terminated), at the same trace length: a trace to it must contain
        a step of the group, or that step would still be enabled at the
        end; moving the first such step to the front reorders the same
        multiset of steps, and repeating this from each successor gives a
        trace of the same length in the reduced graph.  So the shortest
        stuck trace keeps its length, though it may be another
        interleaving, or end in another stuck state at that depth.
      * Persistent sets keep the existence of an infinite run: moving the
        run's first step of the group to the front, or, if it has none,
        prefixing any step of the group, gives an infinite run from a
        successor in the reduced graph.  The reduced graph is finite, so
        that is the existence of a cycle, and the reduced graph is a
        subgraph of the full one, so it has a cycle only if the full one
        does.

    Together these keep stuckFound with a shortest trace and the split
    between terminated and noStuckWithinFuel, with no cycle proviso.  Fuel
    counts the states of the reduced graph, so with the same fuel a search
    may reach a definite verdict where the full one would have diverged.
    """
    if not isinstance(fuel, int) or fuel <= 0:
        raise FuelMisuse(f"fuel must be a positive integer, got {fuel!r}")
    start = canonicalize(m)
    parents: dict[S.Session, tuple[S.Session, Step] | None] = {start: None}
    edges: dict[S.Session, list[S.Session]] = {}
    queue = deque([start])
    explored = 0
    while queue:
        if explored >= fuel:
            return StuckReport("diverged", explored=explored)
        state = queue.popleft()
        explored += 1
        if is_terminated(state):
            edges[state] = []
            continue
        moves = _moves(state)
        if not moves:
            return StuckReport("stuckFound", _trace_to(parents, state),
                               state, explored)
        edges[state] = []
        for step, proc, summand in _persistent(state, moves):
            nxt = _successor(state, step, proc, summand)
            edges[state].append(nxt)
            if nxt not in parents:
                parents[nxt] = (state, step)
                queue.append(nxt)
    if _has_cycle(edges):
        return StuckReport("noStuckWithinFuel", explored=explored)
    return StuckReport("terminated", explored=explored)


def _trace_to(parents, state) -> tuple[Step, ...]:
    steps: list[Step] = []
    while parents[state] is not None:
        state, step = parents[state]
        steps.append(step)
    return tuple(reversed(steps))


def _has_cycle(edges: dict) -> bool:
    """Whether the state graph has a cycle.  Peel it: count the edges into
    each state, then remove states with none left, with their out-edges; a
    cycle is what cannot be removed."""
    into = Counter(n for succs in edges.values() for n in succs)
    free = [s for s in edges if not into[s]]
    left = len(edges)
    while free:
        left -= 1
        for n in edges[free.pop()]:
            into[n] -= 1
            if not into[n]:
                free.append(n)
    return left > 0


def run(m: S.Session, fuel: int) -> StuckReport:
    """Walk one maximal reduction path, taking the first step in trace
    order at each state and building only its successor.  Reports
    terminated, stuckFound (of this path), or diverged when fuel steps were
    taken without finishing."""
    if not isinstance(fuel, int) or fuel <= 0:
        raise FuelMisuse(f"fuel must be a positive integer, got {fuel!r}")
    state = canonicalize(m)
    steps: list[Step] = []
    for _ in range(fuel):
        if is_terminated(state):
            return StuckReport("terminated", tuple(steps), state, len(steps))
        moves = _moves(state)
        if not moves:
            return StuckReport("stuckFound", tuple(steps), state, len(steps))
        step, proc, summand = min(moves, key=lambda move: move[0].line)
        state = _successor(state, step, proc, summand)
        steps.append(step)
    if is_terminated(state):
        return StuckReport("terminated", tuple(steps), state, len(steps))
    return StuckReport("diverged", tuple(steps), state, len(steps))

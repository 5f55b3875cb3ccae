"""Canonical pretty printer for every term category.  Each printer
dispatches on the exact class of a node, and sorts print from a table."""

from __future__ import annotations

import sys
from typing import get_args

from . import syntax as S
from .errors import NumberTooLong

_SORTS = {s: s.value for s in S.Sort}

# Expression precedence levels: 0 comparison, 1 choice, 2 prefix, 3 atom.
_UNARY = {S.Succ: "succ ", S.Neg: "neg ", S.Not: "not "}


def show_expr(e: S.Expr, level: int = 0) -> str:
    cls = type(e)
    if cls is S.Var:
        return e.name
    if cls is S.Num:
        return show_int(e.value)
    if cls is S.BoolLit:
        return "true" if e.value else "false"
    if cls in _UNARY:
        return _wrap(_UNARY[cls] + show_expr(e.arg, 2), 2, level)
    if cls is S.Choice:
        return _wrap(f"{show_expr(e.left, 1)} (+) {show_expr(e.right, 2)}", 1, level)
    if cls is S.Gt:
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


# What a process prints in parentheses as a summand, and after ".", where
# it is a single item, so that a surrounding sum cannot swallow it.
_SUMMAND, _ITEM = (S.Cond, S.Rec), (S.ExtChoice, S.Cond, S.Rec)


def show_proc(p: S.Process, wrap: tuple = ()) -> str:
    """The text of p, in parentheses when its class is in `wrap`."""
    cls = type(p)
    if cls is S.Input:
        return f"{p.partner}?{p.label}({p.var}).{show_proc(p.body, _ITEM)}"
    if cls is S.Output:
        return (f"{p.partner}!{p.label}({show_expr(p.payload)})."
                f"{show_proc(p.body, _ITEM)}")
    if cls is S.Inact:
        return "0"
    if cls is S.ProcVar:
        return p.name
    if cls is S.ExtChoice:
        text = " + ".join([show_proc(b, _SUMMAND) for b in p.branches])
    elif cls is S.Cond:
        text = (f"if {show_expr(p.guard)} then {show_proc(p.then)} "
                f"else {show_proc(p.orelse)}")
    elif cls is S.Rec:
        text = f"mu {p.var}.{show_proc(p.body)}"
    else:
        raise TypeError(f"not a process: {p!r}")
    return f"({text})" if cls in wrap else text


_JUNCTIONS = {S.TIn: ("?", " & "), S.TOut: ("!", " \\/ ")}


def show_type(t: S.SessionType, cont: bool = False) -> str:
    """The text of t; `cont` marks a continuation after ".", which prints
    as a single item, so a junction of several branches or a recursion
    gets parentheses there."""
    cls = type(t)
    if cls in _JUNCTIONS:
        mark, junction = _JUNCTIONS[cls]
        texts = []
        for b in t.branches:
            texts.append(f"{t.partner}{mark}{b.label}({_SORTS[b.sort]})."
                         f"{show_type(b.cont, True)}")
        if len(texts) == 1:
            return texts[0]
        return f"({junction.join(texts)})" if cont else junction.join(texts)
    if cls is S.TEnd:
        return "end"
    if cls is S.TVar:
        return t.name
    if cls is S.TRec:
        text = f"mu {t.var}.{show_type(t.body)}"
        return f"({text})" if cont else text
    raise TypeError(f"not a session type: {t!r}")


def show_global(g: S.GlobalType) -> str:
    cls = type(g)
    if cls is S.GComm:
        texts = []
        for b in g.branches:
            texts.append(f"{b.label}({_SORTS[b.sort]}).{show_global(b.cont)}")
        inner = texts[0] if len(texts) == 1 else "{ " + ", ".join(texts) + " }"
        return f"{g.sender} -> {g.receiver} : {inner}"
    if cls is S.GEnd:
        return "end"
    if cls is S.GVar:
        return g.name
    if cls is S.GRec:
        return f"mu {g.var}.{show_global(g.body)}"
    raise TypeError(f"not a global type: {g!r}")


_SHOW = {S.Session: lambda m: " || ".join([f"@{p} {show_proc(q)}" for p, q in m.parts]),
         **dict.fromkeys(get_args(S.Process), show_proc),
         **dict.fromkeys(get_args(S.SessionType), show_type),
         **dict.fromkeys(get_args(S.GlobalType), show_global)}


def show(term) -> str:
    return _SHOW.get(type(term), show_expr)(term)

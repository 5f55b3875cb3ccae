"""Recursive-descent parser for the five term categories.

Concrete syntax overview (comments run from '#' to end of line):

    expressions     succ x > 0,  true (+) false,  neg -5
    processes       q?l(x).P   q!l(e).P   P + Q   if e then P else Q
                    mu X.P   X   0
    sessions        @p P || @q Q
    session types   q?l(nat).T & q?l2(int).T2      (intersection of inputs)
                    q!l(nat).T \\/ q!l2(int).T2     (union of outputs)
                    mu t.T   t   end
    global types    p -> q : { l1(nat). G1, l2(bool). G2 }
                    p -> q : l(nat).G              (single branch, no braces)
                    p -> q : l(nat)                (continuation defaults to end)

Operator notes: '>' is non-associative and binds loosest; '(+)' is a single
token and associates to the left; succ/neg/not are prefixes.  A continuation
after '.' is a single item; parenthesise sums, conditionals and recursions.
'&' and '\\/' chains cannot be mixed without parentheses.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import syntax as S
from .errors import ParseError

_KEYWORDS = {
    "if", "then", "else", "mu", "end", "nat", "int", "bool",
    "true", "false", "succ", "neg", "not",
}

# One alternative per token class; whitespace and comments match no group.
_TOKEN = re.compile(r"""
    (?P<nl>\n) | [ \t\r]+ | \#[^\n]*
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*) | (?P<num>-?[0-9]+)
  | (?P<sym>\(\+\)|->|\|\||\\/|[?!.&+>{}(),:@]) | (?P<bad>.)
""", re.VERBOSE)

_SORTS = {"nat": S.Sort.NAT, "int": S.Sort.INT, "bool": S.Sort.BOOL}


class _Tok(NamedTuple):
    kind: str  # ident | kw | num | sym | eof
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "nl":
            line, line_start = line + 1, m.end()
            continue
        text, col = m.group(), m.start() - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        if kind == "ident" and text in _KEYWORDS:
            kind = "kw"
        toks.append(_Tok(kind, text, line, col))
    toks.append(_Tok("eof", "", line, len(src) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == text

    def at_kw(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.text == text

    def eat_sym(self, text: str) -> None:
        if not self.at_sym(text):
            self.fail(f"expected {text!r}")
        self.next()

    def eat_kw(self, text: str) -> None:
        if not self.at_kw(text):
            self.fail(f"expected keyword {text!r}")
        self.next()

    def ident(self, what: str) -> str:
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected {what}")
        return self.next().text

    def fail(self, msg: str):
        t = self.peek()
        got = t.text if t.kind != "eof" else "end of input"
        raise ParseError(f"{msg}, got {got!r}", t.line, t.col)

    def done(self) -> None:
        if self.peek().kind != "eof":
            self.fail("trailing input")

    # -- expressions --------------------------------------------------------

    def expr(self) -> S.Expr:
        left = self.expr_choice()
        if self.at_sym(">"):
            self.next()
            right = self.expr_choice()
            return S.Gt(left, right)
        return left

    def expr_choice(self) -> S.Expr:
        left = self.expr_unary()
        while self.at_sym("(+)"):
            self.next()
            left = S.Choice(left, self.expr_unary())
        return left

    def expr_unary(self) -> S.Expr:
        if self.at_kw("succ"):
            self.next()
            return S.Succ(self.expr_unary())
        if self.at_kw("neg"):
            self.next()
            return S.Neg(self.expr_unary())
        if self.at_kw("not"):
            self.next()
            return S.Not(self.expr_unary())
        return self.expr_atom()

    def expr_atom(self) -> S.Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            try:
                return S.int_literal(int(t.text))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ParseError("number too long", t.line, t.col) from None
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return S.BoolLit(t.text == "true")
        if t.kind == "ident":
            return S.Var(self.next().text)
        if self.at_sym("("):
            self.next()
            e = self.expr()
            self.eat_sym(")")
            return e
        self.fail("expected an expression")

    # -- processes ----------------------------------------------------------

    def process(self) -> S.Process:
        if self.at_kw("if"):
            self.next()
            guard = self.expr()
            self.eat_kw("then")
            then = self.process()
            self.eat_kw("else")
            return S.Cond(guard, then, self.process())
        if self.at_kw("mu"):
            self.next()
            var = self.ident("a recursion variable")
            self.eat_sym(".")
            return S.Rec(var, self.process())
        items = [self.proc_item()]
        while self.at_sym("+"):
            self.next()
            items.append(self.proc_item())
        return S.ext_choice(items)

    def proc_item(self) -> S.Process:
        t = self.peek()
        if t.kind == "num" and t.text == "0":
            self.next()
            return S.Inact()
        if self.at_sym("("):
            self.next()
            p = self.process()
            self.eat_sym(")")
            return p
        if t.kind == "ident":
            name = self.next().text
            if self.at_sym("?"):
                self.next()
                label = self.ident("a label")
                self.eat_sym("(")
                var = self.ident("a variable")
                self.eat_sym(")")
                self.eat_sym(".")
                return S.Input(name, label, var, self.proc_cont())
            if self.at_sym("!"):
                self.next()
                label = self.ident("a label")
                self.eat_sym("(")
                payload = self.expr()
                self.eat_sym(")")
                self.eat_sym(".")
                return S.Output(name, label, payload, self.proc_cont())
            return S.ProcVar(name)
        self.fail("expected a process")

    def proc_cont(self) -> S.Process:
        # A continuation is one item, or an if/mu that extends maximally.
        if self.at_kw("if") or self.at_kw("mu"):
            return self.process()
        return self.proc_item()

    # -- sessions -----------------------------------------------------------

    def session(self) -> S.Session:
        entries: dict[str, S.Process] = {}
        while True:
            self.eat_sym("@")
            t = self.peek()
            name = self.ident("a participant")
            if name in entries:
                raise ParseError(f"participant {name!r} listed twice", t.line, t.col)
            entries[name] = self.process()
            if not self.at_sym("||"):
                break
            self.next()
        return S.session(entries)

    # -- session types --------------------------------------------------------

    def session_type(self) -> S.SessionType:
        if self.at_kw("mu"):
            self.next()
            var = self.ident("a recursion variable")
            self.eat_sym(".")
            return S.TRec(var, self.session_type())
        t = self.peek()
        first = self.type_item()
        if self.at_sym("&") or self.at_sym("\\/"):
            conn = self.peek().text
            members = [first]
            while self.at_sym(conn):
                self.next()
                members.append(self.type_item())
            if self.at_sym("&") or self.at_sym("\\/"):
                self.fail("cannot mix '&' and '\\/' without parentheses")
            return self.junction(conn, members, t)
        return first

    def junction(self, conn: str, members: list[S.SessionType], at: _Tok) -> S.SessionType:
        want = S.TIn if conn == "&" else S.TOut
        kind = "intersection" if conn == "&" else "union"
        roles = set()
        branches: list[S.TBranch] = []
        for m in members:
            if not isinstance(m, want):
                raise ParseError(f"every member of an {kind} must be an "
                                 f"{'input' if conn == '&' else 'output'} prefix",
                                 at.line, at.col)
            roles.add(m.sender if conn == "&" else m.receiver)
            branches.extend(m.branches)
        if len(roles) != 1:
            raise ParseError(f"{kind} members must share one partner, got {sorted(roles)}",
                             at.line, at.col)
        role = roles.pop()
        return S.TIn(role, tuple(branches)) if conn == "&" else S.TOut(role, tuple(branches))

    def type_item(self) -> S.SessionType:
        if self.at_kw("end"):
            self.next()
            return S.TEnd()
        if self.at_sym("("):
            self.next()
            t = self.session_type()
            self.eat_sym(")")
            return t
        if self.peek().kind == "ident":
            name = self.next().text
            if self.at_sym("?") or self.at_sym("!"):
                is_input = self.next().text == "?"
                label = self.ident("a label")
                self.eat_sym("(")
                sort = self.sort()
                self.eat_sym(")")
                if self.at_sym("."):
                    self.next()
                    cont = self.type_cont()
                else:
                    cont = S.TEnd()
                branch = (S.TBranch(label, sort, cont),)
                return S.TIn(name, branch) if is_input else S.TOut(name, branch)
            return S.TVar(name)
        self.fail("expected a session type")

    def type_cont(self) -> S.SessionType:
        if self.at_kw("mu"):
            return self.session_type()
        return self.type_item()

    def sort(self) -> S.Sort:
        t = self.peek()
        if t.kind == "kw" and t.text in _SORTS:
            self.next()
            return _SORTS[t.text]
        self.fail("expected a sort (nat, int or bool)")

    # -- global types ---------------------------------------------------------

    def global_type(self) -> S.GlobalType:
        if self.at_kw("mu"):
            self.next()
            var = self.ident("a recursion variable")
            self.eat_sym(".")
            return S.GRec(var, self.global_type())
        if self.at_kw("end"):
            self.next()
            return S.GEnd()
        if self.at_sym("("):
            self.next()
            g = self.global_type()
            self.eat_sym(")")
            return g
        if self.peek().kind == "ident":
            name = self.next().text
            if not self.at_sym("->"):
                return S.GVar(name)
            self.next()
            receiver = self.ident("a participant")
            self.eat_sym(":")
            if self.at_sym("{"):
                self.next()
                branches = [self.global_branch()]
                while self.at_sym(","):
                    self.next()
                    branches.append(self.global_branch())
                self.eat_sym("}")
            else:
                branches = [self.global_branch()]
            return S.GComm(name, receiver, tuple(branches))
        self.fail("expected a global type")

    def global_branch(self) -> S.GBranch:
        label = self.ident("a label")
        self.eat_sym("(")
        sort = self.sort()
        self.eat_sym(")")
        if self.at_sym("."):
            self.next()
            cont = self.global_type()
        else:
            cont = S.GEnd()
        return S.GBranch(label, sort, cont)


def parse_expr(src: str) -> S.Expr:
    p = _Parser(src)
    e = p.expr()
    p.done()
    return e


def parse_process(src: str) -> S.Process:
    p = _Parser(src)
    proc = p.process()
    p.done()
    return proc


def parse_session(src: str) -> S.Session:
    p = _Parser(src)
    m = p.session()
    p.done()
    return m


def parse_session_type(src: str) -> S.SessionType:
    p = _Parser(src)
    t = p.session_type()
    p.done()
    return t


def parse_global_type(src: str) -> S.GlobalType:
    p = _Parser(src)
    g = p.global_type()
    p.done()
    return g


_BY_CATEGORY = {
    "expr": parse_expr,
    "process": parse_process,
    "session": parse_session,
    "type": parse_session_type,
    "sessiontype": parse_session_type,
    "global": parse_global_type,
    "globaltype": parse_global_type,
}


def parse(src: str, category: str):
    """Parse `src` as the given category: expr, process, session,
    sessiontype (alias type) or globaltype (alias global)."""
    try:
        fn = _BY_CATEGORY[category]
    except KeyError:
        raise ValueError(f"unknown category {category!r}") from None
    return fn(src)

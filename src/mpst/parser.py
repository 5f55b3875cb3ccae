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

One regular expression splits the source into token texts, and a text alone
says what it is: a keyword or symbol spells itself, a name is any other
identifier, a number is digits after an optional '-', and the end of input
is ''.  A token's line and column are computed only for a ParseError.
Each session-type node is built once: a junction of n prefixes is one
constructor call, and `end` and `0` are one shared node each.
"""

from __future__ import annotations

import re

from . import syntax as S
from .errors import ParseError

_KEYWORDS = {
    "if", "then", "else", "mu", "end", "nat", "int", "bool",
    "true", "false", "succ", "neg", "not",
}

# Whitespace and comments, then a token, the end, or any other character (an
# error).  After the longest skip some alternative matches: no backtracking.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    ( [A-Za-z_][A-Za-z0-9_]* | -?[0-9]+
    | \(\+\) | -> | \|\| | \\/ | [?!.&+>{}(),:@] | \Z | . )
""", re.VERBOSE)
# Every one-character text a token may have.
_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
                   "0123456789?!.&+>{}(),:@")

_SORTS = {"nat": S.Sort.NAT, "int": S.Sort.INT, "bool": S.Sort.BOOL}
_UNARY = {"succ": S.Succ, "neg": S.Neg, "not": S.Not}
_PREFIXES = {"?": S.TIn, "!": S.TOut}
_TEND, _GEND, _INACT = S.TEnd(), S.GEnd(), S.Inact()
# connective -> (member class, junction name, message for a wrong member)
_JUNCTIONS = {
    "&": (S.TIn, "intersection",
          "every member of an intersection must be an input prefix"),
    "\\/": (S.TOut, "union", "every member of a union must be an output prefix"),
}


def _tokenize(src: str) -> list[str]:
    """The token texts of `src`, ending in one or two empty texts."""
    toks = _TOKEN.findall(src)
    bad = [toks.index(t) for t in set(toks).difference(_CHARS) if len(t) == 1]
    if bad:
        raise ParseError(f"unexpected character {toks[min(bad)]!r}",
                         *_position(src, min(bad)))
    return toks


def _position(src: str, index: int) -> tuple[int, int]:
    """The line and column of token `index` of `src`; called only on error."""
    start = list(_TOKEN.finditer(src))[index].start(1)
    return src.count("\n", 0, start) + 1, start - src.rfind("\n", 0, start)


def _is_name(tok: str) -> bool:
    return tok.isidentifier() and tok not in _KEYWORDS


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str:
        return self.toks[self.pos]

    def next(self) -> str:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        """Consume the next token if it spells `text`."""
        if self.toks[self.pos] != text:
            return False
        self.pos += 1
        return True

    def eat(self, text: str) -> None:
        if not self.accept(text):
            self.fail(f"expected keyword {text!r}" if text in _KEYWORDS
                      else f"expected {text!r}")

    def ident(self, what: str) -> str:
        if not _is_name(self.peek()):
            self.fail(f"expected {what}")
        return self.next()

    def binder(self) -> str:
        """The variable of a `mu x.` opener, at `mu`."""
        self.pos += 1
        var = self.ident("a recursion variable")
        self.eat(".")
        return var

    def label(self) -> str:
        """The label of an `l(` opener."""
        label = self.ident("a label")
        self.eat("(")
        return label

    def error(self, msg: str, index: int) -> ParseError:
        return ParseError(msg, *_position(self.src, index))

    def fail(self, msg: str):
        got = self.peek() or "end of input"
        raise self.error(f"{msg}, got {got!r}", self.pos)

    # -- expressions --------------------------------------------------------

    def expr(self) -> S.Expr:
        left = self.expr_choice()
        if self.accept(">"):
            return S.Gt(left, self.expr_choice())
        return left

    def expr_choice(self) -> S.Expr:
        left = self.expr_unary()
        while self.accept("(+)"):
            left = S.Choice(left, self.expr_unary())
        return left

    def expr_unary(self) -> S.Expr:
        op = _UNARY.get(self.peek())
        if op is None:
            return self.expr_atom()
        self.next()
        return op(self.expr_unary())

    def expr_atom(self) -> S.Expr:
        t = self.peek()
        if t.lstrip("-").isdigit():
            self.next()
            try:
                return S.Num(int(t))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise self.error("number too long", self.pos - 1) from None
        if self.accept("true") or self.accept("false"):
            return S.BoolLit(t == "true")
        if _is_name(t):
            return S.Var(self.next())
        if self.accept("("):
            e = self.expr()
            self.eat(")")
            return e
        self.fail("expected an expression")

    # -- processes ----------------------------------------------------------

    def process(self) -> S.Process:
        if self.accept("if"):
            guard = self.expr()
            self.eat("then")
            then = self.process()
            self.eat("else")
            return S.Cond(guard, then, self.process())
        if self.peek() == "mu":
            return S.Rec(self.binder(), self.process())
        items = [self.proc_item()]
        while self.accept("+"):
            items.append(self.proc_item())
        return S.ext_choice(items)

    def proc_item(self) -> S.Process:
        if self.accept("0"):
            return _INACT
        if self.accept("("):
            p = self.process()
            self.eat(")")
            return p
        if not _is_name(self.peek()):
            self.fail("expected a process")
        name = self.next()
        if self.accept("?"):
            label = self.label()
            var = self.ident("a variable")
            self.eat(")")
            self.eat(".")
            return S.Input(name, label, var, self.proc_cont())
        if self.accept("!"):
            label = self.label()
            payload = self.expr()
            self.eat(")")
            self.eat(".")
            return S.Output(name, label, payload, self.proc_cont())
        return S.ProcVar(name)

    def proc_cont(self) -> S.Process:
        # A continuation is one item, or an if/mu that extends maximally.
        if self.peek() in ("if", "mu"):
            return self.process()
        return self.proc_item()

    # -- sessions -----------------------------------------------------------

    def session(self) -> S.Session:
        entries: dict[str, S.Process] = {}
        while True:
            self.eat("@")
            start = self.pos
            name = self.ident("a participant")
            if name in entries:
                raise self.error(f"participant {name!r} listed twice", start)
            entries[name] = self.process()
            if not self.accept("||"):
                return S.Session(tuple(entries.items()))

    # -- session types --------------------------------------------------------

    def session_type(self) -> S.SessionType:
        if self.toks[self.pos] == "mu":
            return S.TRec(self.binder(), self.session_type())
        start = self.pos
        item = self.type_item()
        conn = self.toks[self.pos]
        if conn not in _JUNCTIONS:
            return item[0](item[1], item[2]) if type(item) is tuple else item
        members = [item]
        while self.accept(conn):
            members.append(self.type_item())
        if self.peek() in _JUNCTIONS:
            self.fail("cannot mix '&' and '\\/' without parentheses")
        want, kind, wrong_member = _JUNCTIONS[conn]
        roles, branches = set(), []
        for m in members:
            if type(m) is not tuple:  # a parenthesised type joins by its branches
                m = (type(m), getattr(m, "partner", None), getattr(m, "branches", ()))
            if m[0] is not want:
                raise self.error(wrong_member, start)
            roles.add(m[1])
            branches += m[2]
        if len(roles) != 1:
            raise self.error(
                f"{kind} members must share one partner, got {sorted(roles)}", start)
        return want(roles.pop(), tuple(branches))

    def type_item(self) -> S.SessionType | tuple:
        """One item of a session type.  A prefix is read by index as one
        header, `name ?|! label ( sort )`, and comes back unbuilt, as
        (class, partner, (branch,)), for a junction to build with the rest."""
        toks, i = self.toks, self.pos
        name = toks[i]
        if name == "end":
            self.pos = i + 1
            return _TEND
        if name == "(":
            self.pos = i + 1
            t = self.session_type()
            self.eat(")")
            return t
        if not name.isidentifier() or name in _KEYWORDS:
            self.fail("expected a session type")
        prefix = _PREFIXES.get(toks[i + 1])
        if prefix is None:
            self.pos = i + 1
            return S.TVar(name)
        label = toks[i + 2]
        if not (label.isidentifier() and label not in _KEYWORDS
                and toks[i + 3] == "(" and (sort := _SORTS.get(toks[i + 4]))
                and toks[i + 5] == ")"):
            self.pos = i + 2  # the checks again, in order, to report the first
            self.label()
            self.sort()
            self.eat(")")
        if toks[i + 6] != ".":
            self.pos = i + 6
            return prefix, name, (S.Branch(label, sort, _TEND),)
        self.pos = i + 7
        if toks[i + 7] == "mu":
            cont = self.session_type()
        elif type(cont := self.type_item()) is tuple:
            cont = cont[0](cont[1], cont[2])
        return prefix, name, (S.Branch(label, sort, cont),)

    def sort(self) -> S.Sort:
        sort = _SORTS.get(self.peek())
        if sort is None:
            self.fail("expected a sort (nat, int or bool)")
        self.next()
        return sort

    # -- global types ---------------------------------------------------------

    def global_type(self) -> S.GlobalType:
        if self.peek() == "mu":
            return S.GRec(self.binder(), self.global_type())
        if self.accept("end"):
            return _GEND
        if self.accept("("):
            g = self.global_type()
            self.eat(")")
            return g
        if not _is_name(self.peek()):
            self.fail("expected a global type")
        sender = self.next()
        if not self.accept("->"):
            return S.GVar(sender)
        receiver = self.ident("a participant")
        self.eat(":")
        braced = self.accept("{")
        branches = [self.global_branch()]
        while braced and self.accept(","):
            branches.append(self.global_branch())
        if braced:
            self.eat("}")
        return S.GComm(sender, receiver, tuple(branches))

    def global_branch(self) -> S.Branch:
        label = self.label()
        sort = self.sort()
        self.eat(")")
        cont = self.global_type() if self.accept(".") else _GEND
        return S.Branch(label, sort, cont)


_RULES = {
    "expr": _Parser.expr,
    "process": _Parser.process,
    "session": _Parser.session,
    "sessiontype": _Parser.session_type,
    "globaltype": _Parser.global_type,
    "participant": lambda p: p.ident("a participant"),
}


def parse(src: str, category: str):
    """Parse all of `src` as the given category: expr, process, session,
    sessiontype, globaltype, or participant (a name that is not a keyword)."""
    try:
        rule = _RULES[category]
    except KeyError:
        raise ValueError(f"unknown category {category!r}") from None
    p = _Parser(src)
    term = rule(p)
    if p.peek():
        p.fail("trailing input")
    return term


def parse_expr(src: str) -> S.Expr:
    return parse(src, "expr")


def parse_process(src: str) -> S.Process:
    return parse(src, "process")


def parse_session(src: str) -> S.Session:
    return parse(src, "session")


def parse_session_type(src: str) -> S.SessionType:
    return parse(src, "sessiontype")


def parse_global_type(src: str) -> S.GlobalType:
    return parse(src, "globaltype")

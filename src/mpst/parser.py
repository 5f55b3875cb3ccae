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
after '.' is a single item, except a recursion, or a conditional in a
process: that extends as far as it can, so `p?l(x).if e then P else Q + R`
puts `+ R` in the else branch.  The printer parenthesises such a one.
'&' and '\\/' chains cannot be mixed without parentheses.

One regular expression splits the source into token texts, and a text alone
says what it is: a keyword or symbol spells itself, a name is any other
identifier, a number is digits after an optional '-', and the end of input
is ''.  `findall` steps over white space, a comment is a token that is
dropped, and a token's line and column are computed only for a ParseError.

Session types, processes and expressions are read by token index: a
prefix's header, `name ?|! label ( sort )` in a type, `name ? label ( var )
.` and `name ! label (` in a process, is checked as a whole, and only a
malformed one is read again with the token methods, which report its first
error.  Each session-type node is built once: a junction of n prefixes is
one constructor call, and `end`, `0`, `true` and `false` are one shared
node each.
"""

from __future__ import annotations

import re

from . import syntax as S
from .syntax import KEYWORDS, is_name
from .errors import ParseError

# A token, a comment, or any other character that is not white space (an
# error).  `findall` steps over the white space that no alternative matches.
_TOKEN = re.compile(r"""
      [A-Za-z_][A-Za-z0-9_]* | -?[0-9]+
    | \(\+\) | -> | \|\| | \\/ | [?!.&+>{}(),:@] | \#[^\n]* | [^ \t\r\n]
""", re.VERBOSE)
# Every one-character text a token may have.
_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
                   "0123456789?!.&+>{}(),:@")

_SORTS = {"nat": S.Sort.NAT, "int": S.Sort.INT, "bool": S.Sort.BOOL}
_UNARY = {"succ": S.Succ, "neg": S.Neg, "not": S.Not}
_PREFIXES = {"?": S.TIn, "!": S.TOut}
_TEND, _GEND, _INACT = S.TEnd(), S.GEnd(), S.Inact()
_ATOMS = {"true": S.BoolLit(True), "false": S.BoolLit(False)}
# connective -> (member class, junction name, message for a wrong member)
_JUNCTIONS = {
    "&": (S.TIn, "intersection",
          "every member of an intersection must be an input prefix"),
    "\\/": (S.TOut, "union", "every member of a union must be an output prefix"),
}


def _tokenize(src: str) -> list[str]:
    """The token texts of `src`, without comments, ending in one empty text."""
    toks = _TOKEN.findall(src)
    if "#" in src:
        toks = [t for t in toks if t[0] != "#"]
    toks.append("")
    bad = [toks.index(t) for t in set(toks).difference(_CHARS) if len(t) == 1]
    if bad:
        raise ParseError(f"unexpected character {toks[min(bad)]!r}",
                         *_position(src, min(bad)))
    return toks


def _position(src: str, index: int) -> tuple[int, int]:
    """The line and column of token `index` of `src`; called only on error."""
    starts = [m.start() for m in _TOKEN.finditer(src) if m[0][0] != "#"]
    start = (starts + [len(src)])[index]
    return src.count("\n", 0, start) + 1, start - src.rfind("\n", 0, start)


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
        if self.toks[self.pos] != text:
            self.fail(f"expected keyword {text!r}" if text in KEYWORDS
                      else f"expected {text!r}")
        self.pos += 1

    def ident(self, what: str) -> str:
        if not is_name(self.peek()):
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
        if self.toks[self.pos] != ">":
            return left
        self.pos += 1
        return S.Gt(left, self.expr_choice())

    def expr_choice(self) -> S.Expr:
        left = self.expr_unary()
        while self.toks[self.pos] == "(+)":
            self.pos += 1
            left = S.Choice(left, self.expr_unary())
        return left

    def expr_unary(self) -> S.Expr:
        """A prefix operator applied to an expression, or an atom, read by
        index."""
        i = self.pos
        t = self.toks[i]
        self.pos = i + 1
        if t in _ATOMS:
            return _ATOMS[t]
        if t in _UNARY:
            return _UNARY[t](self.expr_unary())
        if t.isidentifier() and t not in KEYWORDS:
            return S.Var(t)
        if t.lstrip("-").isdigit():
            try:
                return S.Num(int(t))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise self.error("number too long", i) from None
        if t == "(":
            e = self.expr()
            self.eat(")")
            return e
        self.pos = i
        self.fail("expected an expression")

    # -- processes ----------------------------------------------------------

    def process(self) -> S.Process:
        t = self.toks[self.pos]
        if t == "if":
            self.pos += 1
            guard = self.expr()
            self.eat("then")
            then = self.process()
            self.eat("else")
            return S.Cond(guard, then, self.process())
        if t == "mu":
            return S.Rec(self.binder(), self.process())
        item = self.proc_item()
        if self.toks[self.pos] != "+":
            return item
        items = [item]
        while self.accept("+"):
            items.append(self.proc_item())
        return S.ext_choice(items)

    def proc_item(self) -> S.Process:
        """One summand of a process.  A prefix is read by index, the input
        header `name ? label ( var ) .` and the output header `name ! label (`
        each at once; the continuation is one item, or an if/mu that extends
        maximally."""
        toks, i = self.toks, self.pos
        name = toks[i]
        if name == "0":
            self.pos = i + 1
            return _INACT
        if name == "(":
            self.pos = i + 1
            p = self.process()
            self.eat(")")
            return p
        if not name.isidentifier() or name in KEYWORDS:
            self.fail("expected a process")
        op = toks[i + 1]
        if op == "?":
            label = toks[i + 2]
            if not (label.isidentifier() and label not in KEYWORDS
                    and toks[i + 3] == "(" and (var := toks[i + 4]).isidentifier()
                    and var not in KEYWORDS and toks[i + 5] == ")"
                    and toks[i + 6] == "."):
                self.pos = i + 2  # the checks again, in order, to report the first
                self.label()
                self.ident("a variable")
                self.eat(")")
                self.eat(".")
            self.pos = i = i + 7
        elif op == "!":
            label = toks[i + 2]
            if not (label.isidentifier() and label not in KEYWORDS
                    and toks[i + 3] == "("):
                self.pos = i + 2
                self.label()
            self.pos = i + 4
            payload = self.expr()
            i = self.pos
            if toks[i] != ")" or toks[i + 1] != ".":
                self.eat(")")
                self.eat(".")
            self.pos = i = i + 2
        else:
            self.pos = i + 1
            return S.ProcVar(name)
        if toks[i] == "if" or toks[i] == "mu":
            cont = self.process()
        else:
            cont = self.proc_item()
        if op == "?":
            return S.Input(name, label, var, cont)
        return S.Output(name, label, payload, cont)

    # -- sessions -----------------------------------------------------------

    def session(self) -> S.Session:
        toks = self.toks
        entries: dict[str, S.Process] = {}
        while True:
            i = self.pos
            name = toks[i + 1] if toks[i] == "@" else ""
            if not is_name(name):
                self.eat("@")
                self.ident("a participant")
            if name in entries:
                raise self.error(f"participant {name!r} listed twice", i + 1)
            self.pos = i + 2
            entries[name] = self.process()
            if toks[self.pos] != "||":
                return S.Session(tuple(entries.items()))
            self.pos += 1

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
        if not name.isidentifier() or name in KEYWORDS:
            self.fail("expected a session type")
        prefix = _PREFIXES.get(toks[i + 1])
        if prefix is None:
            self.pos = i + 1
            return S.TVar(name)
        label = toks[i + 2]
        if not (label.isidentifier() and label not in KEYWORDS
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
        if not is_name(self.peek()):
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

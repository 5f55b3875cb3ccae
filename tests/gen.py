"""Seeded random generators for the property suites.

Everything takes an explicit random.Random so failures reproduce from the
seed written in the test.
"""

import hashlib

from mpst import MpstError, ParseError, decide, parse, show
from mpst import syntax as S

SORTS = (S.Sort.NAT, S.Sort.INT, S.Sort.BOOL)
ROLES = ("p", "q", "r")
LABELS = ("l1", "l2", "l3", "l4")


def gen_type(rng, depth, roles=ROLES, labels=LABELS, allow_rec=True,
             _tvars=None):
    """A closed, guarded session type of the given maximum depth."""
    tvars = dict(_tvars or {})
    kinds = ["end"]
    guarded = [v for v, ok in tvars.items() if ok]
    if guarded:
        kinds.append("var")
    if depth > 0:
        kinds += ["in", "in", "out", "out"]
        if allow_rec:
            kinds.append("mu")
    kind = rng.choice(kinds)
    if kind == "end":
        return S.TEnd()
    if kind == "var":
        return S.TVar(rng.choice(guarded))
    if kind == "mu":
        var = f"t{len(tvars)}"
        body = gen_type(rng, depth - 1, roles, labels, allow_rec,
                        {**tvars, var: False})
        if S.TVar(var) in S.free_vars(body):
            return S.TRec(var, body)
        return body
    role = rng.choice(roles)
    count = rng.choice((1, 1, 1, 2, 2, 3))
    chosen = rng.sample(labels, min(count, len(labels)))
    inner = {v: True for v in tvars}
    branches = tuple(
        S.Branch(lab, rng.choice(SORTS),
                  gen_type(rng, depth - 1, roles, labels, allow_rec, inner))
        for lab in chosen)
    if kind == "in":
        return S.TIn(role, branches)
    return S.TOut(role, branches)


def gen_supertype(rng, t, labels=LABELS, budget=12):
    """A type related to t by subtyping: sub(t, result) always holds.

    Inputs may lose branches and narrow their sorts, outputs may gain
    branches and widen their sorts, and continuations widen recursively.
    Recursion bodies widen with the variable left fixed; the budget stops
    the mutation from chasing unfolded loops forever.
    """
    if budget <= 0 or isinstance(t, (S.TEnd, S.TVar)):
        return t
    if isinstance(t, S.TRec):
        if rng.random() < 0.3:
            return gen_supertype(rng, S.unfold(t), labels, budget - 3)
        return S.TRec(t.var, gen_supertype(rng, t.body, labels, budget - 1))
    if isinstance(t, S.TIn):
        branches = list(t.branches)
        while len(branches) > 1 and rng.random() < 0.3:
            branches.pop(rng.randrange(len(branches)))
        out = []
        for br in branches:
            sort = br.sort
            if sort is S.Sort.INT and rng.random() < 0.3:
                sort = S.Sort.NAT
            out.append(S.Branch(br.label, sort,
                                 gen_supertype(rng, br.cont, labels,
                                               budget - 1)))
        return S.TIn(t.partner, tuple(out))
    branches = []
    for br in t.branches:
        sort = br.sort
        if sort is S.Sort.NAT and rng.random() < 0.3:
            sort = S.Sort.INT
        branches.append(S.Branch(br.label, sort,
                                  gen_supertype(rng, br.cont, labels,
                                                budget - 1)))
    closed = not S.free_vars(t)
    present = {br.label for br in branches}
    for lab in labels:
        if closed and lab not in present and rng.random() < 0.2:
            branches.append(S.Branch(lab, rng.choice(SORTS),
                                      gen_type(rng, 1, (t.partner,))))
    return S.TOut(t.partner, tuple(branches))


def gen_global(rng, depth, roles=ROLES, labels=LABELS, _tvars=None):
    """A closed, guarded global type; not necessarily projectable."""
    tvars = dict(_tvars or {})
    kinds = ["end"]
    guarded = [v for v, ok in tvars.items() if ok]
    if guarded:
        kinds.append("var")
    if depth > 0:
        kinds += ["comm", "comm", "comm", "mu"]
    kind = rng.choice(kinds)
    if kind == "end":
        return S.GEnd()
    if kind == "var":
        return S.GVar(rng.choice(guarded))
    if kind == "mu":
        var = f"t{len(tvars)}"
        body = gen_global(rng, depth - 1, roles, labels, {**tvars, var: False})
        if S.GVar(var) in S.free_vars(body):
            return S.GRec(var, body)
        return body
    sender, receiver = rng.sample(roles, 2)
    count = rng.choice((1, 1, 2))
    chosen = rng.sample(labels, count)
    inner = {v: True for v in tvars}
    branches = tuple(
        S.Branch(lab, rng.choice(SORTS),
                  gen_global(rng, depth - 1, roles, labels, inner))
        for lab in chosen)
    return S.GComm(sender, receiver, branches)


def gen_expr(rng, depth, vars=()):
    kinds = ["nat", "int", "bool"]
    if vars:
        kinds.append("var")
    if depth > 0:
        kinds += ["succ", "neg", "not", "choice", "gt"]
    kind = rng.choice(kinds)
    if kind == "nat":
        return S.Num(rng.randrange(10))
    if kind == "int":
        return S.Num(rng.randrange(-10, 0))
    if kind == "bool":
        return S.BoolLit(rng.random() < 0.5)
    if kind == "var":
        return S.Var(rng.choice(vars))
    if kind == "succ":
        return S.Succ(gen_expr(rng, depth - 1, vars))
    if kind == "neg":
        return S.Neg(gen_expr(rng, depth - 1, vars))
    if kind == "not":
        return S.Not(gen_expr(rng, depth - 1, vars))
    if kind == "choice":
        return S.Choice(gen_expr(rng, depth - 1, vars),
                        gen_expr(rng, depth - 1, vars))
    return S.Gt(gen_expr(rng, depth - 1, vars), gen_expr(rng, depth - 1, vars))


def gen_process(rng, depth, roles=ROLES, labels=LABELS, vars=(),
                allow_rec=True, _pvars=None):
    """An arbitrary closed process; not necessarily typable."""
    pvars = dict(_pvars or {})
    kinds = ["inact"]
    guarded = [v for v, ok in pvars.items() if ok]
    if guarded:
        kinds.append("pvar")
    if depth > 0:
        kinds += ["in", "out", "out", "cond", "sum"]
        if allow_rec:
            kinds.append("mu")
    kind = rng.choice(kinds)
    if kind == "inact":
        return S.Inact()
    if kind == "pvar":
        return S.ProcVar(rng.choice(guarded))
    if kind == "mu":
        var = f"X{len(pvars)}"
        body = gen_process(rng, depth - 1, roles, labels, vars,
                           allow_rec, {**pvars, var: False})
        if S.ProcVar(var) in S.free_vars(body) and not isinstance(body, S.ProcVar):
            return S.Rec(var, body)
        return body
    inner = {v: True for v in pvars}
    if kind == "in":
        var = rng.choice(("x", "y", "z"))
        return S.Input(rng.choice(roles), rng.choice(labels), var,
                       gen_process(rng, depth - 1, roles, labels,
                                   tuple(dict.fromkeys((*vars, var))), allow_rec,
                                   inner))
    if kind == "out":
        return S.Output(rng.choice(roles), rng.choice(labels),
                        gen_expr(rng, min(depth - 1, 2), vars),
                        gen_process(rng, depth - 1, roles, labels, vars,
                                    allow_rec, inner))
    if kind == "cond":
        return S.Cond(gen_expr(rng, min(depth - 1, 2), vars),
                      gen_process(rng, depth - 1, roles, labels, vars,
                                  allow_rec, inner),
                      gen_process(rng, depth - 1, roles, labels, vars,
                                  allow_rec, inner))
    role = rng.choice(roles)
    count = rng.choice((2, 2, 3))
    chosen = rng.sample(labels, count)
    summands = tuple(
        S.Input(role, lab, "x",
                gen_process(rng, depth - 1, roles, labels,
                            tuple(dict.fromkeys((*vars, "x"))), allow_rec, inner))
        for lab in chosen)
    return S.ExtChoice(summands)


def refuted_pairs(rng, count, tries):
    """Up to `count` pairs of random session types of depth <= 4 that
    `decide` refutes (nleq), from at most `tries` draws of a pair."""
    found = []
    for _ in range(tries):
        if len(found) >= count:
            break
        a = gen_type(rng, rng.randint(0, 4))
        b = gen_type(rng, rng.randint(0, 4))
        if decide(a, b).relation == "nleq":
            found.append((a, b))
    return found


def subtype_pairs(rng, count):
    """Criterion 5's stream of `count` pairs: a type of depth <= 5 and, with
    probability 0.4, a supertype of it, else another such type."""
    for _ in range(count):
        a = gen_type(rng, rng.randint(0, 5))
        if rng.random() < 0.4:
            b = gen_supertype(rng, a)
        else:
            b = gen_type(rng, rng.randint(0, 5))
        yield a, b


# What an edit inserts: whitespace, comments, every character of a symbol,
# a minus sign, an identifier and a digit, and characters no token takes.
EDIT_ALPHABET = " \t\r\n\x0c#?!.&+>{}(),:@|\\/-_09pxé"


def edited_texts(rng, count):
    """`count` pairs (category, text): a term printed from the generators
    above, or a participant name, with one to three edits, each inserting a
    character of EDIT_ALPHABET or deleting one."""
    for _ in range(count):
        category = rng.choice(("expr", "process", "session", "sessiontype",
                               "globaltype", "participant"))
        depth = rng.randint(0, 3)
        if category == "expr":
            text = show(gen_expr(rng, depth, ("x", "y")))
        elif category == "process":
            text = show(gen_process(rng, depth))
        elif category == "session":
            text = " || ".join(f"@{role} {show(gen_process(rng, depth))}"
                               for role in rng.sample(ROLES, 2))
        elif category == "sessiontype":
            text = show(gen_type(rng, depth))
        elif category == "globaltype":
            text = show(gen_global(rng, depth))
        else:
            text = rng.choice(ROLES + LABELS + ("end", "x_1"))
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars) + 1)
            if i < len(chars) and rng.random() < 0.3:
                del chars[i]
            else:
                chars.insert(i, rng.choice(EDIT_ALPHABET))
        yield category, "".join(chars)


def parse_digest(rng, count):
    """The sha256 of what `parse` makes of `edited_texts(rng, count)`, one
    line per text (the term's repr, or the error with a ParseError's line
    and column), and the number of texts rejected."""
    digest, rejected = hashlib.sha256(), 0
    for category, text in edited_texts(rng, count):
        try:
            outcome = repr(parse(text, category))
        except ParseError as e:
            outcome, rejected = f"{e} @{e.line},{e.col}", rejected + 1
        except MpstError as e:
            outcome, rejected = f"{type(e).__name__}: {e}", rejected + 1
        digest.update(f"{outcome}\n".encode())
    return digest.hexdigest(), rejected

"""Seeded term generators and their printer, owned by the benchmark.

They started as a copy of the property-suite generators, but build plain
tuples and render them with their own printer, so the text a seed yields
depends neither on the tests nor on mpst: a change to the program cannot
change its inputs.  Everything takes an explicit random.Random and iterates
only over tuples, lists and dicts, never over sets, so the same seed gives
the same text in every interpreter process regardless of hash randomisation.

Terms, for session types and global types alike:

    ("end",)   ("var", name)   ("mu", var, body)
    ("in", sender, branches)   ("out", receiver, branches)
    ("comm", sender, receiver, branches)

where branches is a tuple of (label, sort, continuation), ordered by label
as mpst orders them.
"""

SORTS = ("nat", "int", "bool")
ROLES = ("p", "q", "r")
LABELS = ("l1", "l2", "l3", "l4")
END = ("end",)


def free_vars(t):
    kind = t[0]
    if kind == "var":
        return frozenset((t[1],))
    if kind == "mu":
        return free_vars(t[2]) - {t[1]}
    out = frozenset()
    if kind != "end":
        for _, _, cont in t[-1]:
            out |= free_vars(cont)
    return out


def _fresh(base, taken):
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    taken.add(f"{base}_{i}")
    return f"{base}_{i}"


def subst(t, name, repl):
    """t[repl/name], renaming binders that would capture a free variable of
    repl."""
    free = free_vars(repl)

    def go(u):
        kind = u[0]
        if kind == "end":
            return u
        if kind == "var":
            return repl if u[1] == name else u
        if kind == "mu":
            if u[1] == name:
                return u
            if u[1] in free:
                taken = set(free) | set(free_vars(u[2])) | {u[1], name}
                fresh = _fresh(u[1], taken)
                return ("mu", fresh, go(subst(u[2], u[1], ("var", fresh))))
            return ("mu", u[1], go(u[2]))
        return u[:-1] + (tuple((lab, sort, go(cont))
                               for lab, sort, cont in u[-1]),)

    return go(t)


def unfold(t):
    return subst(t[2], t[1], t) if t[0] == "mu" else t


def gen_type(rng, depth, roles=ROLES, labels=LABELS, _tvars=None):
    """A closed, guarded session type of the given maximum depth."""
    tvars = dict(_tvars or {})
    kinds = ["end"]
    guarded = [v for v, ok in tvars.items() if ok]
    if guarded:
        kinds.append("var")
    if depth > 0:
        kinds += ["in", "in", "out", "out", "mu"]
    kind = rng.choice(kinds)
    if kind == "end":
        return END
    if kind == "var":
        return ("var", rng.choice(guarded))
    if kind == "mu":
        var = f"t{len(tvars)}"
        body = gen_type(rng, depth - 1, roles, labels, {**tvars, var: False})
        return ("mu", var, body) if var in free_vars(body) else body
    role = rng.choice(roles)
    count = rng.choice((1, 1, 1, 2, 2, 3))
    chosen = rng.sample(labels, min(count, len(labels)))
    inner = {v: True for v in tvars}
    branches = sorted(
        (lab, rng.choice(SORTS), gen_type(rng, depth - 1, roles, labels,
                                          inner))
        for lab in chosen)
    return (kind, role, tuple(branches))


def gen_supertype(rng, t, labels=LABELS, budget=12):
    """A type related to t by subtyping: t <= result always holds.

    Inputs may lose branches and narrow their sorts, outputs may gain
    branches and widen their sorts, and continuations widen recursively.
    Recursion bodies widen with the variable left fixed; the budget stops
    the mutation from chasing unfolded loops forever.
    """
    kind = t[0]
    if budget <= 0 or kind in ("end", "var"):
        return t
    if kind == "mu":
        if rng.random() < 0.3:
            return gen_supertype(rng, unfold(t), labels, budget - 3)
        return ("mu", t[1], gen_supertype(rng, t[2], labels, budget - 1))
    if kind == "in":
        branches = list(t[2])
        while len(branches) > 1 and rng.random() < 0.3:
            branches.pop(rng.randrange(len(branches)))
        out = []
        for lab, sort, cont in branches:
            if sort == "int" and rng.random() < 0.3:
                sort = "nat"
            out.append((lab, sort, gen_supertype(rng, cont, labels,
                                                 budget - 1)))
        return ("in", t[1], tuple(out))
    out = []
    for lab, sort, cont in t[2]:
        if sort == "nat" and rng.random() < 0.3:
            sort = "int"
        out.append((lab, sort, gen_supertype(rng, cont, labels, budget - 1)))
    closed = not free_vars(t)
    present = [lab for lab, _, _ in out]
    for lab in labels:
        if closed and lab not in present and rng.random() < 0.2:
            out.append((lab, rng.choice(SORTS), gen_type(rng, 1, (t[1],))))
    return ("out", t[1], tuple(sorted(out)))


def gen_global(rng, depth, roles=ROLES, labels=LABELS, allow_rec=True,
               _tvars=None):
    """A closed, guarded global type; not necessarily projectable.  With
    allow_rec=False it has no recursion, so every run of it ends."""
    tvars = dict(_tvars or {})
    kinds = ["end"]
    guarded = [v for v, ok in tvars.items() if ok]
    if guarded:
        kinds.append("var")
    if depth > 0:
        kinds += ["comm", "comm", "comm"]
        if allow_rec:
            kinds.append("mu")
    kind = rng.choice(kinds)
    if kind == "end":
        return END
    if kind == "var":
        return ("var", rng.choice(guarded))
    if kind == "mu":
        var = f"t{len(tvars)}"
        body = gen_global(rng, depth - 1, roles, labels, allow_rec,
                          {**tvars, var: False})
        return ("mu", var, body) if var in free_vars(body) else body
    sender, receiver = rng.sample(roles, 2)
    count = rng.choice((1, 1, 2))
    chosen = rng.sample(labels, count)
    inner = {v: True for v in tvars}
    branches = sorted(
        (lab, rng.choice(SORTS),
         gen_global(rng, depth - 1, roles, labels, allow_rec, inner))
        for lab in chosen)
    return ("comm", sender, receiver, tuple(branches))


# --------------------------------------------------------------------------
# Printer: mpst's concrete syntax, as the README documents it
# --------------------------------------------------------------------------


def show_type(t):
    kind = t[0]
    if kind == "end":
        return "end"
    if kind == "var":
        return t[1]
    if kind == "mu":
        return f"mu {t[1]}.{show_type(t[2])}"
    mark, sep = ("?", " & ") if kind == "in" else ("!", " \\/ ")
    return sep.join(f"{t[1]}{mark}{lab}({sort}).{_continuation(cont)}"
                    for lab, sort, cont in t[2])


def _continuation(t):
    if t[0] == "mu" or (t[0] in ("in", "out") and len(t[2]) > 1):
        return f"({show_type(t)})"
    return show_type(t)


def show_global(g):
    kind = g[0]
    if kind == "end":
        return "end"
    if kind == "var":
        return g[1]
    if kind == "mu":
        return f"mu {g[1]}.{show_global(g[2])}"
    head = f"{g[1]} -> {g[2]} : "
    inner = ", ".join(f"{lab}({sort}).{show_global(cont)}"
                      for lab, sort, cont in g[3])
    return head + (inner if len(g[3]) == 1 else "{ " + inner + " }")

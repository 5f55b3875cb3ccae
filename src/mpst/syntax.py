"""Core syntax of a synchronous multiparty session calculus.

Five term categories live here: expressions, processes, multiparty sessions,
session types and global types.  Every node is an immutable value with
structural equality and hashing, so terms can be memoised and used as dict
keys freely.  A node hashes its fields once and caches the result, so that
hashing it again is one lookup, whatever its depth.  Constructors enforce
the well-formedness conditions the rest of the package relies on:

  * branch lists are non-empty, label-distinct and kept sorted by label;
  * recursion is guarded (the bound variable cannot be reached from the
    binder without crossing a communication prefix);
  * nobody communicates with themselves (global types and session entries).

Every term class declares its shape once: which fields hold subterms, which
name participants, and which variable class a binder binds.  A shape shared
by two categories is one class: a branch l(S).T is a `Branch` in session and
global types alike, an intersection and a union name their one participant
`partner`, and a number literal is a `Num` of either sort.  One traversal
reads those declarations and gives free variables, participants,
capture-avoiding substitution and unfolding for all categories.  Recursion
is equi-recursive: a binder is identified with its unfolding, and the helpers
at the bottom (unfolding, regular-tree equality) give that identification
operational teeth.
"""

from __future__ import annotations

import enum
import sys
from operator import attrgetter, lt
from typing import Iterable, Union

from .errors import DuplicateLabel, SelfCommunication, UnguardedRecursion


class Sort(enum.Enum):
    NAT = "nat"
    INT = "int"
    BOOL = "bool"
    __hash__ = object.__hash__  # members are singletons: no Python-level call

    def __str__(self) -> str:
        return self.value


def _getter(names: tuple[str, ...]):
    """A function from a node to the tuple of its fields called `names`."""
    if not names:
        return lambda t: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda t: (get(t),)
    return attrgetter(*names)


_METHODS = """
def __init__(self, {params}):
{checks}
{sets}
def __eq__(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return ({mine}) == ({theirs})
def __hash__(self):
    h = self._hash
    if h is None:
        h = hash(({mine}))
        set__hash(self, h)
    return h
"""
# An identifier is an ASCII Python identifier: [A-Za-z_][A-Za-z0-9_]*.
_CHECK = """    if not ({f}.isascii() and {f}.isidentifier()):
        raise ValueError("bad {what}: " + repr({f}))"""


def frozen(cls):
    """The class-building step of every immutable value in the package: the
    term nodes here and the result records of other modules, subclasses of
    `Record`.  A class declares its fields as annotations, with defaults
    where it has them, and its bases name the slots of facts cached on an
    instance in `__slots__`.  The class is created again with slots for
    its fields and no instance dict, as a plain class, so `isinstance`
    stays fast.  Three methods are compiled from one source, `_METHODS`,
    so that they run as fast as if written out: an `__init__` that checks
    the fields named in `_idents` are identifiers, sets the fields, clears
    every cached fact and runs `__post_init__`; an `__eq__` over the tuple
    of its fields; and a `__hash__` of that same tuple, cached in
    `_hash`.  A term class also gets its shape readers (see `_Term`), as
    plain getters: compiling them too would slow `import mpst`."""
    ns = dict(vars(cls))
    own = tuple(ns.get("__annotations__", ()))
    defaults = {f: ns.pop(f) for f in own if f in ns}
    for name in ("__dict__", "__weakref__"):
        ns.pop(name, None)
    ns["__slots__"] = own
    cls = type(cls.__name__, cls.__bases__, ns)
    mro = cls.__mro__[::-1]
    cls._fields = fields = tuple(
        f for c in mro for f in vars(c).get("__annotations__", ()))
    cls._defaults = defaults = {**getattr(cls, "_defaults", {}), **defaults}
    caches = tuple(
        n for c in mro for n in vars(c).get("__slots__", ()) if n not in fields)
    env = {f"set_{n}": getattr(cls, n).__set__ for n in fields + caches}
    env.update((f"default_{f}", v) for f, v in defaults.items())
    sets = [f"    set_{n}(self, {n if n in fields else None})"
            for n in fields + caches]
    if hasattr(cls, "__post_init__"):
        env["post"] = cls.__post_init__
        sets.append("    post(self)")
    checks = [_CHECK.format(f=f, what=what)
              for f, what in getattr(cls, "_idents", {}).items()]
    exec(_METHODS.format(
        params=", ".join(f + f"=default_{f}" * (f in defaults) for f in fields),
        checks="\n".join(checks), sets="\n".join(sets),
        mine="".join(f"self.{f}, " for f in fields),
        theirs="".join(f"other.{f}, " for f in fields)), env)
    cls.__init__, cls.__eq__, cls.__hash__ = (
        env["__init__"], env["__eq__"], env["__hash__"])
    if issubclass(cls, _Term):
        cut = len(fields) - len(cls._kids)
        assert fields[cut:] == cls._kids, f"{cls.__name__}: kids must come last"
        cls._fixed = staticmethod(_getter(fields[:cut]))
        if "_children" not in ns:  # Session spells its readers out
            cls._children = staticmethod(
                attrgetter(cls._kids[0]) if cls._many else _getter(cls._kids))
            cls._roles = staticmethod(_getter(cls._names))
    return cls


class _DataclassFields(dict):
    """`__dataclass_fields__`, built on first use, so that `dataclasses.fields`
    still reads the fields of a class for a caller that loaded dataclasses,
    such as the node count in `bench/workloads.py`; mpst never loads it."""

    def __get__(self, obj, cls):
        dc = sys.modules.get("dataclasses")
        if dc is None:
            raise AttributeError("__dataclass_fields__")
        if cls not in self:
            self[cls] = {f: dc.field(default=cls._defaults.get(f, dc.MISSING))
                         for f in cls._fields}
            for f, field in self[cls].items():
                field.name, field._field_type = f, dc._FIELD
        return self[cls]


class Record:
    """Base of every immutable value (see `frozen`)."""

    __slots__ = ("_hash",)
    __dataclass_fields__ = _DataclassFields()

    def __repr__(self) -> str:
        fields = []  # a loop, not a generator: one frame less per level
        for f in self._fields:
            fields.append(f"{f}={getattr(self, f)!r}")
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, *value):
        raise AttributeError(
            f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Pickles and copies are rebuilt from the fields and leave every
        # cached fact behind: string hashes differ between interpreters, and
        # a variable's free variables and a binder's unfolding hold the node.
        return type(self), tuple(getattr(self, f) for f in self._fields)


class _Term(Record):
    """Base of every term node.  Each class declares its shape once:

      _kids   the fields holding subterms; they come last in field order;
      _many   true when the one kid field holds a tuple of subterms;
      _names  the fields holding participant names;
      _binds  for a binder, the variable class its `var` field names;
      _idents the fields the constructor checks are identifiers, each
              with what it names in the message.

    From these `frozen` gives the class its readers `_children`, `_fixed`
    (the other fields) and `_roles`, which everything below goes through.
    Terms are shared graphs, so facts derived from a node are cached on it
    in slots that are not fields, which equality, hashing and repr never
    see.  Each cache pays (CPython 3.11 on a 2-core VM; "the items" are
    the first 1 000 `subtype` items of bench seed 1):
      _hash      the hash: without it the items take 3 times as long, and
                 hashing the characteristic process of 18 inputs 1.3 s;
      _free      free variables, so `subst` skips a subtree at once:
                 unfolding a loop of 400 prefixes takes 5 ms, not 0.25 s;
      _parts     participants: projecting 100 nested binders on both
                 roles reads the roles of 301 nodes, not 30 601;
      _unfolded  a binder's unfolding, the same object each time, so memo
                 tables hit: without it the items take 1.4 times as long.
    `Session` checks self-communication with `_names_partner`: reading
    `_parts` instead cost the `explore` workload 6 %.
    """

    __slots__ = ("_free", "_parts")
    _kids = ()
    _many = False
    _names = ()
    _binds = None


class _Shown(_Term):
    """Mixin routing str() through the canonical pretty printer."""

    __slots__ = ()

    def __str__(self) -> str:
        return printer.show(self)


@frozen
class _Variable(_Shown):
    """A variable occurrence.  Each category has its own variable class, so
    equal names in different categories are different variables."""

    name: str
    _idents = {"name": "variable"}


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@frozen
class Var(_Variable):
    pass


@frozen
class Num(_Shown):
    """A number literal: of sort nat when `value >= 0`, else of sort int."""

    value: int


@frozen
class BoolLit(_Shown):
    value: bool


@frozen
class Succ(_Shown):
    arg: "Expr"
    _kids = ("arg",)


@frozen
class Neg(_Shown):
    arg: "Expr"
    _kids = ("arg",)


@frozen
class Not(_Shown):
    arg: "Expr"
    _kids = ("arg",)


@frozen
class Choice(_Shown):
    """Nondeterministic choice between two expressions."""

    left: "Expr"
    right: "Expr"
    _kids = ("left", "right")


@frozen
class Gt(_Shown):
    left: "Expr"
    right: "Expr"
    _kids = ("left", "right")


Expr = Union[Var, Num, BoolLit, Succ, Neg, Not, Choice, Gt]


# --------------------------------------------------------------------------
# Recursion binders
# --------------------------------------------------------------------------


class _Mu(_Shown):
    """The recursion binders Rec, TRec and GRec: fields `var` and `body`.
    A binder caches its one-step unfolding in `_unfolded` (see `unfold`)."""

    __slots__ = ("_unfolded",)
    _kids = ("body",)

    def __post_init__(self) -> None:
        # mu t.t (also via nested binders, mu t.mu s.t) is not a term.
        binders = {self.var}
        node = self.body
        while type(node) is type(self):
            binders.add(node.var)
            node = node.body
        if type(node) is self._binds and node.name in binders:
            raise UnguardedRecursion(f"mu {self.var} reaches {node.name} unguarded")


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------


@frozen
class Input(_Shown):
    partner: str
    label: str
    var: str
    body: "Process"
    _kids = ("body",)
    _names = ("partner",)
    _binds = Var
    _idents = {"partner": "participant", "label": "label", "var": "variable"}


@frozen
class Output(_Shown):
    partner: str
    label: str
    payload: Expr
    body: "Process"
    _kids = ("payload", "body")
    _names = ("partner",)
    _idents = {"partner": "participant", "label": "label"}


@frozen
class ExtChoice(_Shown):
    """External choice.  Kept flat: no branch is itself an ExtChoice."""

    branches: tuple["Process", ...]
    _kids = ("branches",)
    _many = True

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise ValueError("external choice needs at least two branches")
        if any(isinstance(b, ExtChoice) for b in self.branches):
            raise ValueError("external choice must be flattened")


@frozen
class Cond(_Shown):
    guard: Expr
    then: "Process"
    orelse: "Process"
    _kids = ("guard", "then", "orelse")


@frozen
class ProcVar(_Variable):
    _idents = {"name": "process variable"}


@frozen
class Rec(_Mu):
    var: str
    body: "Process"
    _binds = ProcVar
    _idents = {"var": "process variable"}


@frozen
class Inact(_Shown):
    pass


Process = Union[Input, Output, ExtChoice, Cond, Rec, ProcVar, Inact]


def summands(p: "Process") -> tuple["Process", ...]:
    """The summands of p: an external choice's branches, or p alone."""
    return p.branches if isinstance(p, ExtChoice) else (p,)


def ext_choice(branches: Iterable["Process"]) -> "Process":
    """Flatten nested choices; a single branch is the branch itself."""
    flat = [q for b in branches for q in summands(b)]
    if not flat:
        raise ValueError("empty external choice")
    return flat[0] if len(flat) == 1 else ExtChoice(tuple(flat))


# --------------------------------------------------------------------------
# Multiparty sessions
# --------------------------------------------------------------------------


@frozen
class Session(_Shown):
    """A parallel composition of located processes, keyed by participant.
    Its one constructor sorts the entries and checks them."""

    parts: tuple[tuple[str, "Process"], ...]
    # The subterms and participant names sit inside the (name, process)
    # pairs, so a session spells these readers out; it is never rebuilt.
    _children = staticmethod(lambda m: tuple(p for _, p in m.parts))
    _roles = staticmethod(lambda m: tuple(r for r, _ in m.parts))

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a session needs at least one participant")
        names = [p for p, _ in self.parts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate participant in session: {names}")
        object.__setattr__(self, "parts", tuple(sorted(self.parts)))
        for p, proc in self.parts:
            if not (p.isascii() and p.isidentifier()):
                raise ValueError(f"bad participant: {p!r}")
            if _names_partner(proc, p):
                raise SelfCommunication(f"participant {p} communicates with itself")

    def mapping(self) -> dict[str, "Process"]:
        return dict(self.parts)


def _names_partner(proc: "Process", role: str) -> bool:
    """Whether a prefix of `proc` names `role` as its partner.  One walk over
    the distinct nodes of the process graph: a node reached along many
    paths, as in a characteristic process, is visited once, and the walk
    does not enter expressions, which name no participant."""
    seen = set()
    todo = [proc]
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        cls = t.__class__
        if cls is Input or cls is Output:
            if t.partner == role:
                return True
            todo.append(t.body)
        elif cls is Cond:
            todo += (t.then, t.orelse)
        elif cls is ExtChoice:
            todo += t.branches
        elif cls is Rec:
            todo.append(t.body)
    return False


# --------------------------------------------------------------------------
# Session types
# --------------------------------------------------------------------------


@frozen
class Branch(_Term):
    """A branch l(S).T of an intersection, a union or a global communication."""

    label: str
    sort: Sort
    cont: "SessionType | GlobalType"
    _kids = ("cont",)
    _idents = {"label": "label"}


_label = attrgetter("label")


def _sorted_branches(branches: tuple, what: str) -> tuple:
    if not branches:
        raise ValueError(f"{what} needs at least one branch")
    labels = tuple(map(_label, branches))
    if all(map(lt, labels, labels[1:])):  # sorted and distinct already
        return tuple(branches)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"{what} repeats a label: {sorted(labels)}")
    return tuple(sorted(branches, key=_label))


@frozen
class _Prefixes(_Shown):
    """An intersection or a union: branches that all have one partner.  Each
    subclass names itself in `_junction`, for error messages."""

    partner: str
    branches: tuple[Branch, ...]
    _kids = ("branches",)
    _many = True
    _names = ("partner",)
    _idents = {"partner": "participant"}

    def __post_init__(self) -> None:
        if len(self.branches) != 1 or type(self.branches) is not tuple:
            object.__setattr__(self, "branches",
                               _sorted_branches(self.branches, self._junction))


@frozen
class TIn(_Prefixes):
    """Intersection of input prefixes, all from the same partner."""

    _junction = "intersection"


@frozen
class TOut(_Prefixes):
    """Union of output prefixes, all towards the same partner."""

    _junction = "union"


@frozen
class TVar(_Variable):
    _idents = {"name": "type variable"}


@frozen
class TRec(_Mu):
    var: str
    body: "SessionType"
    _binds = TVar
    _idents = {"var": "type variable"}


@frozen
class TEnd(_Shown):
    pass


SessionType = Union[TIn, TOut, TRec, TVar, TEnd]


# --------------------------------------------------------------------------
# Global types
# --------------------------------------------------------------------------


@frozen
class GComm(_Shown):
    sender: str
    receiver: str
    branches: tuple[Branch, ...]
    _kids = ("branches",)
    _many = True
    _names = ("sender", "receiver")
    _idents = {"sender": "participant", "receiver": "participant"}

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise SelfCommunication(f"{self.sender} -> {self.receiver}")
        object.__setattr__(self, "branches", _sorted_branches(self.branches, "communication"))


@frozen
class GVar(_Variable):
    _idents = {"name": "type variable"}


@frozen
class GRec(_Mu):
    var: str
    body: "GlobalType"
    _binds = GVar
    _idents = {"var": "type variable"}


@frozen
class GEnd(_Shown):
    pass


GlobalType = Union[GComm, GRec, GVar, GEnd]


# --------------------------------------------------------------------------
# The traversal: children, free variables and participants
# --------------------------------------------------------------------------


def children(t) -> tuple:
    """The immediate subterms of t, in field order."""
    return t._children(t)


def _join(a: frozenset, b: frozenset) -> frozenset:
    """a | b, sharing an operand when the other one is empty."""
    return a | b if a and b else a or b


def free_vars(t) -> frozenset:
    """The free variables of t, as variable nodes (Var, ProcVar, TVar and
    GVar, so a name free in two categories appears once per category)."""
    found = t._free
    if found is None:
        found = frozenset((t,)) if isinstance(t, _Variable) else frozenset()
        for c in t._children(t):
            more = c._free
            if more is None:
                more = free_vars(c)
            if more:
                found = found | more if found else more
        if found and t._binds is not None:
            found -= {t._binds(t.var)}
        object.__setattr__(t, "_free", found)
    return found


def participants_of(term) -> frozenset[str]:
    """Participants syntactically named by a process, session type, global
    type or session.  Recursion variables contribute nothing."""
    found = term._parts
    if found is None:
        found = frozenset(term._roles(term))
        for c in children(term):
            found = _join(found, participants_of(c))
        object.__setattr__(term, "_parts", found)
    return found


# --------------------------------------------------------------------------
# Substitution
# --------------------------------------------------------------------------


def subst(t, var, repl):
    """t[repl/var] for a variable node `var` (a Var, ProcVar, TVar or GVar),
    renaming a binder `x` that would capture a free variable of `repl` to the
    first of `x_1`, `x_2`, ... not free in `repl` or the binder's body.
    Subtrees in which `var` is not free come back unchanged, as the same
    objects.  A node reached along several paths is substituted once, so
    the result shares what `t` shares."""
    return _subst(t, var, repl, {})


def _subst(t, var, repl, done: dict):
    """subst, with `done` mapping id(node) to the node and its result for
    the nodes substituted so far in this call; holding the node keeps its
    id from being reused while `done` lives."""
    free = t._free
    if free is None:
        free = free_vars(t)
    if not free or var not in free:
        return t
    if type(t) is type(var):
        return repl
    found = done.get(id(t))
    if found is not None:
        return found[1]
    node = t
    kind = t._binds
    if kind is not None and kind(t.var) in free_vars(repl):
        taken = {v.name for v in free_vars(repl) | free_vars(t.body) if type(v) is kind}
        i = 1
        while f"{t.var}_{i}" in taken:
            i += 1
        name = f"{t.var}_{i}"
        # A binder's `var` is its last field before the body.
        t = type(t)(*t._fixed(t)[:-1], name, subst(t.body, kind(t.var), kind(name)))
    kids = []
    for c in children(t):
        kids.append(_subst(c, var, repl, done))
    result = type(t)(*t._fixed(t), *((tuple(kids),) if t._many else kids))
    done[id(node)] = (node, result)
    return result


# --------------------------------------------------------------------------
# Unfolding
# --------------------------------------------------------------------------


def unfold(t):
    """One-step unfolding of a top-level recursion binder; anything else is
    returned unchanged.  The unfolding is computed once per binder node and
    cached on it, so unfolding the same node again gives the same object."""
    if not isinstance(t, _Mu):
        return t
    found = t._unfolded
    if found is None:
        found = subst(t.body, t._binds(t.var), t)
        object.__setattr__(t, "_unfolded", found)
    return found


def unfold_spine(t):
    """Unfold until the head is not a recursion binder.  Terminates because
    guardedness rules out mu-chains that feed themselves."""
    while isinstance(t, _Mu):
        t = unfold(t)
    return t


# --------------------------------------------------------------------------
# Regular-tree equality
# --------------------------------------------------------------------------


def regular_tree_equal(a, b) -> bool:
    """Equality of the (possibly infinite) trees denoted by two session types
    or two global types.  Classic bisimulation: assume pairs equal on
    revisit.  Free type variables are rigid and equal only to themselves."""
    assumed: set[tuple] = set()

    def go(x, y) -> bool:
        x = unfold_spine(x)
        y = unfold_spine(y)
        if x is y or x == y:
            return True
        key = (x, y)
        if key in assumed:
            return True
        assumed.add(key)
        if not (type(x) is type(y) and isinstance(x, (TIn, TOut, GComm))
                and x._roles(x) == y._roles(y)
                and len(x.branches) == len(y.branches)):
            return False
        for b, c in zip(x.branches, y.branches):  # both sides are label-sorted
            if b.label != c.label or b.sort != c.sort or not go(b.cont, c.cont):
                return False
        return True

    return go(a, b)


from . import printer  # noqa: E402  (printer reads the classes above)

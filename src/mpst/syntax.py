"""Core syntax of a synchronous multiparty session calculus.

Five term categories live here: expressions, processes, multiparty sessions,
session types and global types.  Every node is a frozen dataclass with
structural equality and hashing, so terms can be memoised and used as dict
keys freely.  A node hashes its fields once and caches the result, so that
hashing it again is one lookup, whatever its depth.  Constructors enforce
the well-formedness conditions the rest of the package relies on:

  * branch lists are non-empty, label-distinct and kept sorted by label;
  * recursion is guarded (the bound variable cannot be reached from the
    binder without crossing a communication prefix);
  * nobody communicates with themselves (global types and session entries).

Every term class declares its shape once: which fields hold subterms, which
name participants, and which variable class a binder binds.  One traversal
reads those declarations and gives free variables, participants,
capture-avoiding substitution and unfolding for all categories.  Recursion
is equi-recursive: a binder is identified with its unfolding, and the helpers
at the bottom (unfolding, regular-tree equality) give that identification
operational teeth.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, replace
from operator import attrgetter, is_
from typing import Iterable, Union

from .errors import DuplicateLabel, SelfCommunication, UnguardedRecursion

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _require_ident(name: str, what: str) -> None:
    if not _IDENT.match(name):
        raise ValueError(f"bad {what}: {name!r}")


class Sort(enum.Enum):
    NAT = "nat"
    INT = "int"
    BOOL = "bool"

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


def _cached_hash(key):
    """A __hash__ that hashes `key(node)` on the first call and then
    returns the cached value."""

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(key(self))
            object.__setattr__(self, "_hash", h)
        return h

    return __hash__


class _Term:
    """Base of every term node.  Each class declares its shape once:

      _kids   the fields holding subterms; they come last in field order;
      _many   true when the one kid field holds a tuple of subterms;
      _names  the fields holding participant names;
      _binds  for a binder, the variable class its `var` field names.

    From these the class gets `_children`, `_fixed` (the other fields) and
    `_roles`, which everything below goes through.  Facts derived from a
    node are cached on it as attributes outside the dataclass fields, so
    equality, hashing and repr never see them.  They are stored with
    object.__setattr__, never through `__dict__`: materialising an
    instance dict slows every later attribute read, and so hashing.

    The structural hash is one of those facts: every class with fields gets
    a `__hash__` that hashes the tuple of its fields once and caches the
    result in `_hash`.  @dataclass keeps a `__hash__` it finds in the
    class's own namespace, and this hook runs before the decorator.  All
    fields are set by the time `__post_init__` returns, so the cached hash
    never goes stale.
    """

    _kids: tuple[str, ...] = ()
    _many = False
    _names: tuple[str, ...] = ()
    _binds: type | None = None
    _fixed = _children = _roles = staticmethod(lambda t: ())
    _free = _parts = _hash = None  # cached by free_vars, participants_of, hash

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(vars(cls).get("__annotations__", ()))
        if not fields:  # a base
            return
        cls.__hash__ = _cached_hash(_getter(fields))
        if "_children" in vars(cls):  # Session
            return
        cut = len(fields) - len(cls._kids)
        assert fields[cut:] == cls._kids, f"{cls.__name__}: kids must come last"
        cls._fixed = staticmethod(_getter(fields[:cut]))
        cls._children = staticmethod(
            attrgetter(cls._kids[0]) if cls._many else _getter(cls._kids))
        cls._roles = staticmethod(_getter(cls._names))

    def __getstate__(self) -> dict:
        # A pickled or copied term keeps its fields and leaves every cached
        # fact behind: string hashes differ between interpreters, and a
        # variable's free variables and a binder's unfolding contain the
        # node itself, which unpickling would hash before its fields are set.
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


class _Shown(_Term):
    """Mixin routing str() through the canonical pretty printer."""

    def __str__(self) -> str:
        from . import printer

        return printer.show(self)


@dataclass(frozen=True)
class _Variable(_Shown):
    """A variable occurrence.  Each category has its own variable class, so
    equal names in different categories are different variables."""

    name: str
    _what = "variable"

    def __post_init__(self) -> None:
        _require_ident(self.name, self._what)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Var(_Variable):
    pass


@dataclass(frozen=True)
class NatLit(_Shown):
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("natural literal must be non-negative")


@dataclass(frozen=True)
class IntLit(_Shown):
    value: int


@dataclass(frozen=True)
class BoolLit(_Shown):
    value: bool


@dataclass(frozen=True)
class Succ(_Shown):
    arg: "Expr"
    _kids = ("arg",)


@dataclass(frozen=True)
class Neg(_Shown):
    arg: "Expr"
    _kids = ("arg",)


@dataclass(frozen=True)
class Not(_Shown):
    arg: "Expr"
    _kids = ("arg",)


@dataclass(frozen=True)
class Choice(_Shown):
    """Nondeterministic choice between two expressions."""

    left: "Expr"
    right: "Expr"
    _kids = ("left", "right")


@dataclass(frozen=True)
class Gt(_Shown):
    left: "Expr"
    right: "Expr"
    _kids = ("left", "right")


Expr = Union[Var, NatLit, IntLit, BoolLit, Succ, Neg, Not, Choice, Gt]


def int_literal(value: int) -> Expr:
    """Literal with the minimal numeric tag: non-negatives are naturals."""
    return NatLit(value) if value >= 0 else IntLit(value)


# --------------------------------------------------------------------------
# Recursion binders
# --------------------------------------------------------------------------


class _Mu(_Shown):
    """The recursion binders Rec, TRec and GRec: fields `var` and `body`.
    A binder caches its one-step unfolding in `_unfolded` (see `unfold`)."""

    _kids = ("body",)
    _unfolded = None

    def __post_init__(self) -> None:
        self._binds(self.var)  # validates the name
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


@dataclass(frozen=True)
class Input(_Shown):
    partner: str
    label: str
    var: str
    body: "Process"
    _kids = ("body",)
    _names = ("partner",)
    _binds = Var

    def __post_init__(self) -> None:
        _require_ident(self.partner, "participant")
        _require_ident(self.label, "label")
        _require_ident(self.var, "variable")


@dataclass(frozen=True)
class Output(_Shown):
    partner: str
    label: str
    payload: Expr
    body: "Process"
    _kids = ("payload", "body")
    _names = ("partner",)

    def __post_init__(self) -> None:
        _require_ident(self.partner, "participant")
        _require_ident(self.label, "label")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Cond(_Shown):
    guard: Expr
    then: "Process"
    orelse: "Process"
    _kids = ("guard", "then", "orelse")


class ProcVar(_Variable):
    _what = "process variable"


@dataclass(frozen=True)
class Rec(_Mu):
    var: str
    body: "Process"
    _binds = ProcVar


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Session(_Shown):
    """A parallel composition of located processes, keyed by participant."""

    parts: tuple[tuple[str, "Process"], ...]
    # The subterms and participant names sit inside the (name, process)
    # pairs, so a session spells its getters out; it is never rebuilt.
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
            _require_ident(p, "participant")
            if p in participants_of(proc):
                raise SelfCommunication(f"participant {p} communicates with itself")

    def mapping(self) -> dict[str, "Process"]:
        return dict(self.parts)

    @classmethod
    def trusted(cls, parts: Iterable[tuple[str, "Process"]]) -> "Session":
        """The session of `parts`, sorted, without the checks of
        `__post_init__`.  Only for entries known to keep its invariants,
        such as the entries of a session a reduction step came from."""
        m = object.__new__(cls)
        object.__setattr__(m, "parts", tuple(sorted(parts)))
        return m


# --------------------------------------------------------------------------
# Session types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TBranch(_Term):
    label: str
    sort: Sort
    cont: "SessionType"
    _kids = ("cont",)

    def __post_init__(self) -> None:
        _require_ident(self.label, "label")


def _sorted_branches(branches: tuple, what: str) -> tuple:
    if not branches:
        raise ValueError(f"{what} needs at least one branch")
    labels = [b.label for b in branches]
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"{what} repeats a label: {sorted(labels)}")
    return tuple(sorted(branches, key=lambda b: b.label))


@dataclass(frozen=True)
class TIn(_Shown):
    """Intersection of input prefixes, all from the same sender."""

    sender: str
    branches: tuple[TBranch, ...]
    _kids = ("branches",)
    _many = True
    _names = ("sender",)

    def __post_init__(self) -> None:
        _require_ident(self.sender, "participant")
        object.__setattr__(self, "branches", _sorted_branches(self.branches, "intersection"))


@dataclass(frozen=True)
class TOut(_Shown):
    """Union of output prefixes, all towards the same receiver."""

    receiver: str
    branches: tuple[TBranch, ...]
    _kids = ("branches",)
    _many = True
    _names = ("receiver",)

    def __post_init__(self) -> None:
        _require_ident(self.receiver, "participant")
        object.__setattr__(self, "branches", _sorted_branches(self.branches, "union"))


class TVar(_Variable):
    _what = "type variable"


@dataclass(frozen=True)
class TRec(_Mu):
    var: str
    body: "SessionType"
    _binds = TVar


@dataclass(frozen=True)
class TEnd(_Shown):
    pass


SessionType = Union[TIn, TOut, TRec, TVar, TEnd]


# --------------------------------------------------------------------------
# Global types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GBranch(_Term):
    label: str
    sort: Sort
    cont: "GlobalType"
    _kids = ("cont",)

    def __post_init__(self) -> None:
        _require_ident(self.label, "label")


@dataclass(frozen=True)
class GComm(_Shown):
    sender: str
    receiver: str
    branches: tuple[GBranch, ...]
    _kids = ("branches",)
    _many = True
    _names = ("sender", "receiver")

    def __post_init__(self) -> None:
        _require_ident(self.sender, "participant")
        _require_ident(self.receiver, "participant")
        if self.sender == self.receiver:
            raise SelfCommunication(f"{self.sender} -> {self.receiver}")
        object.__setattr__(self, "branches", _sorted_branches(self.branches, "communication"))


class GVar(_Variable):
    _what = "type variable"


@dataclass(frozen=True)
class GRec(_Mu):
    var: str
    body: "GlobalType"
    _binds = GVar


@dataclass(frozen=True)
class GEnd(_Shown):
    pass


GlobalType = Union[GComm, GRec, GVar, GEnd]


# --------------------------------------------------------------------------
# The traversal: children, rebuilding, free variables and participants
# --------------------------------------------------------------------------


def children(t) -> tuple:
    """The immediate subterms of t, in field order."""
    return t._children(t)


def rebuild(t, kids):
    """t with its children replaced by `kids`; t itself when every new child
    is the old one, so unchanged subtrees stay shared."""
    if all(map(is_, kids, children(t))):
        return t
    if t._many:
        return type(t)(*t._fixed(t), tuple(kids))
    return type(t)(*t._fixed(t), *kids)


def _join(a: frozenset, b: frozenset) -> frozenset:
    """a | b, sharing an operand when the other one is empty."""
    return a | b if a and b else a or b


def free_vars(t) -> frozenset:
    """The free variables of t, as variable nodes (Var, ProcVar, TVar and
    GVar, so a name free in two categories appears once per category)."""
    found = t._free
    if found is None:
        found = frozenset((t,)) if isinstance(t, _Variable) else frozenset()
        for c in children(t):
            found = _join(found, free_vars(c))
        if t._binds is not None:
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
    objects."""
    if var not in free_vars(t):
        return t
    if type(t) is type(var):
        return repl
    kind = t._binds
    if kind is not None and kind(t.var) in free_vars(repl):
        taken = {v.name for v in free_vars(repl) | free_vars(t.body) if type(v) is kind}
        i = 1
        while f"{t.var}_{i}" in taken:
            i += 1
        name = f"{t.var}_{i}"
        t = replace(t, var=name, body=subst(t.body, kind(t.var), kind(name)))
    kids = []
    for c in children(t):
        kids.append(subst(c, var, repl))
    return rebuild(t, kids)


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
        return (type(x) is type(y) and isinstance(x, (TIn, TOut, GComm))
                and x._roles(x) == y._roles(y)
                and _branches_eq(x.branches, y.branches))

    def _branches_eq(bs, cs) -> bool:
        if len(bs) != len(cs):
            return False
        for b, c in zip(bs, cs):  # both sides are label-sorted
            if b.label != c.label or b.sort != c.sort or not go(b.cont, c.cont):
                return False
        return True

    return go(a, b)

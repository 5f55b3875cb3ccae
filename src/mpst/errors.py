"""Exception types shared across the package."""

from __future__ import annotations


class MpstError(Exception):
    """Base class for every condition this package reports deliberately."""


class ParseError(MpstError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DuplicateLabel(MpstError):
    """A branch list or external choice repeats a label."""


class UnguardedRecursion(MpstError):
    """A recursion binder whose variable can be reached without crossing a prefix."""


class SelfCommunication(MpstError):
    """A participant that names itself as a communication partner."""


class MergeUndefined(MpstError):
    """The partial merge operator has no result for the given pair."""


class ConsumeUndefined(MpstError):
    """Consuming an action from a global type has no defined result."""


class ProjectionError(MpstError):
    """Projection failed; `kind` is 'mergeUndefined' or 'unguardedResult'."""

    def __init__(self, kind: str, path: tuple[str, ...], detail: str = ""):
        tail = f" at {'/'.join(path) or '<root>'}"
        super().__init__(f"{kind}{tail}" + (f": {detail}" if detail else ""))
        self.kind = kind
        self.path = path
        self.detail = detail


class TypingError(MpstError):
    """A process or session failed to type check.

    `rule` names the violated typing rule, `path` locates the offending
    subterm (a breadcrumb of positions, outermost first).
    """

    def __init__(self, message: str, rule: str, path: tuple[str, ...] = ()):
        where = f" at {'/'.join(path)}" if path else ""
        super().__init__(f"[{rule}]{where}: {message}")
        self.message = message
        self.rule = rule
        self.path = path


class NotDerivable(MpstError):
    """The negated-subtyping search found no derivation (the pair is a subtyping)."""


class ParticipantClash(MpstError):
    """A characteristic construction was asked to reuse an existing participant."""


class NumberTooLong(MpstError, ValueError):
    """A number computed at run time has more digits than Python converts
    to text (sys.get_int_max_str_digits())."""


class FuelMisuse(MpstError):
    """A search was started with a non-positive fuel budget."""


class InternalError(MpstError):
    """An invariant the implementation relies on was violated; always a bug."""

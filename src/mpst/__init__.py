"""Synchronous multiparty session types.

A library and CLI for a synchronous multiparty session calculus: session and
global types, coinductive subtyping with an inductive refutation search,
projection and consumption of global types, algorithmic typing, a small-step
interpreter with stuck-state search, and the characteristic constructions
that turn subtyping failures into machine-checked stuck sessions.
"""

from .characteristic import (
    PrecisenessReport,
    char_global,
    char_proc,
    counterexample_session,
    fresh_participant,
    preciseness_check,
)
from .errors import (
    ConsumeUndefined,
    DuplicateLabel,
    FuelMisuse,
    InternalError,
    MergeUndefined,
    MpstError,
    NotDerivable,
    NumberTooLong,
    ParseError,
    ParticipantClash,
    ProjectionError,
    SelfCommunication,
    TypingError,
    UnguardedRecursion,
)
from .exprs import eval_all, infer_sort, subsort
from .global_types import (
    CommAction,
    consume,
    frontier_actions,
    global_step,
    merge,
    project,
    project_all,
)
from .parser import (
    parse,
    parse_expr,
    parse_global_type,
    parse_process,
    parse_session,
    parse_session_type,
)
from .printer import show
from .runtime import (
    Step,
    StuckReport,
    canonicalize,
    is_terminated,
    run,
    step_all,
    stuck_search,
)
from .subtyping import (
    NsubDerivation,
    Verdict,
    decide,
    format_derivation,
    nsub,
    sub,
)
from .syntax import (
    Branch,
    GComm,
    GEnd,
    GRec,
    GVar,
    Session,
    Sort,
    TEnd,
    TIn,
    TOut,
    TRec,
    TVar,
    participants_of,
    regular_tree_equal,
    unfold,
)
from .typecheck import check_process, check_session, synthesize_process

__all__ = [name for name in dir() if not name.startswith("_")]

"""Synchronous multiparty session types.

A library and CLI for a synchronous multiparty session calculus: session and
global types, coinductive subtyping with an inductive refutation search,
projection and consumption of global types, algorithmic typing, a small-step
interpreter with stuck-state search, and the characteristic constructions
that turn subtyping failures into machine-checked stuck sessions.

`import mpst` loads no submodule.  Each public name below is looked up in its
module on first use (PEP 562), which imports that module and what it needs.
"""

from importlib import import_module as _import_module

# Each submodule with the public names it defines.
_EXPORTS = {
    "characteristic": "PrecisenessReport char_global char_proc "
                      "counterexample_session fresh_participant "
                      "preciseness_check",
    "errors": "ConsumeUndefined DuplicateLabel FuelMisuse InternalError "
              "MergeUndefined MpstError NotDerivable NumberTooLong ParseError "
              "ParticipantClash ProjectionError SelfCommunication TypingError "
              "UnguardedRecursion",
    "exprs": "eval_all infer_sort subsort",
    "global_types": "CommAction consume frontier_actions global_step merge "
                    "project project_all",
    "parser": "parse parse_expr parse_global_type parse_process parse_session "
              "parse_session_type",
    "printer": "show",
    "runtime": "Step StuckReport canonicalize is_terminated run step_all "
               "stuck_search",
    "subtyping": "NsubDerivation Verdict decide format_derivation nsub sub",
    "syntax": "Branch GComm GEnd GRec GVar Session Sort TEnd TIn TOut TRec TVar "
              "participants_of regular_tree_equal unfold",
    "typecheck": "check_process check_session synthesize_process",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""adversim: a deterministic lab for message-passing consensus models.

Synchronous engines for the fail-to-send and fail-to-receive round models,
an asynchronous engine with schedulers and at-most-one crash, simulations
between the three models, property checking, and a constructive adversary
that synthesizes arbitrarily long non-deciding executions against any
protocol whose termination only holds in benign executions.

Only ``core`` is imported with the package.  Every other public name, and
every submodule, is imported on first access (PEP 562), so a command
compiles only the modules it runs.
"""

from .core import (
    AdversimError,
    Configuration,
    ConsensusCheck,
    ExecutionTrace,
    LocalState,
    ReceiveFault,
    RoundFault,
    check_colorless_outcome,
    initial_configuration,
    validate_trace,
)

# Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(
        (
            "AttackResult",
            "DependenceWitness",
            "build_nondeciding_execution",
            "extend_dependent",
            "failure_free_decision",
            "find_dependent_in_chain",
            "find_initial_dependent",
            "silent_decision",
        ),
        "nondecider",
    ),
    **dict.fromkeys(("get_protocol", "registered_protocols"), "protocols"),
    **dict.fromkeys(("run", "silence", "step_fts", "step_ftr"), "sync_engine"),
}
_SUBMODULES = (
    "async_engine",
    "checking",
    "cli",
    "nondecider",
    "protocols",
    "simulations",
    "sync_engine",
)


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY:
        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdversimError",
    "AttackResult",
    "Configuration",
    "ConsensusCheck",
    "DependenceWitness",
    "ExecutionTrace",
    "LocalState",
    "ReceiveFault",
    "RoundFault",
    "build_nondeciding_execution",
    "check_colorless_outcome",
    "extend_dependent",
    "failure_free_decision",
    "find_dependent_in_chain",
    "find_initial_dependent",
    "get_protocol",
    "initial_configuration",
    "registered_protocols",
    "run",
    "silence",
    "silent_decision",
    "step_fts",
    "step_ftr",
    "validate_trace",
]

__version__ = "0.1.0"

"""adversim: a deterministic lab for message-passing consensus models.

Synchronous engines for the fail-to-send and fail-to-receive round models,
an asynchronous engine with schedulers and at-most-one crash, simulations
between the three models, property checking, and a constructive adversary
that synthesizes arbitrarily long non-deciding executions against any
protocol whose termination only holds in benign executions.
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
from .nondecider import (
    AttackResult,
    DependenceWitness,
    build_nondeciding_execution,
    extend_dependent,
    failure_free_decision,
    find_dependent_in_chain,
    find_initial_dependent,
    is_p_dependent,
    silent_decision,
)
from .protocols import get_protocol, registered_protocols
from .sync_engine import enumerate_faults, run, silence, step_fts, step_ftr

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
    "enumerate_faults",
    "extend_dependent",
    "failure_free_decision",
    "find_dependent_in_chain",
    "find_initial_dependent",
    "get_protocol",
    "initial_configuration",
    "is_p_dependent",
    "registered_protocols",
    "run",
    "silence",
    "silent_decision",
    "step_fts",
    "step_ftr",
    "validate_trace",
]

__version__ = "0.1.0"

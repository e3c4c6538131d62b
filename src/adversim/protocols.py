"""Concrete round-based protocols and the protocol registry.

The primary target is ``phase-king-lite``, a rotating-coordinator binary
agreement protocol whose termination is only guaranteed in benign executions
(failure-free, or with a single process silenced throughout).  Its agreement
argument leans on the single-faulty-sender property of the fail-to-send
model: at most one broadcast can be missed per round, so a near-unanimous
view at one process forces every other process's majority the same way.

``naive-majority`` and the constant protocols exist as negative controls for
the property checker and the decision oracles.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from .core import AsyncProtocol, Pid, RoundProtocol, UnknownProtocolError


def _majority(values: list[int]) -> int:
    ones = sum(values)
    zeros = len(values) - ones
    return 1 if ones > zeros else 0  # ties break to 0


class PhaseKingLite(RoundProtocol):
    """Binary agreement with rotating kings, decided on near-unanimous views.

    Rounds pair into phases; phase k's king is process (k-1) mod n.

    Odd round (value exchange): broadcast the preference v.  Let V be the
    received values plus v, where a payload other than b"1" counts as a 0
    vote.  If all of V equals b and |V| >= n-1, adopt b and decide b;
    otherwise adopt the majority of V (ties to 0).  A decided process
    writes no output again.

    Even round (king round): broadcast v; every non-king that hears the
    king adopts the king's value.  Kings rotate forever, so the protocol
    keeps converging from any reachable configuration.

    The round enters only through its parity and the king, so the protocol
    repeats with period 2n.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("phase-king-lite needs n >= 3")
        self.n = n
        self.protocol_id = "phase-king-lite"
        self.period = 2 * n

    def init(self, pid: Pid, input: int) -> Any:
        return (input, False)  # (preference, decided)

    def message(self, internal: Any, round: int) -> bytes:
        return b"1" if internal[0] else b"0"

    def transition(
        self, internal: Any, round: int, received: Mapping[Pid, bytes]
    ) -> tuple[Any, Optional[int]]:
        v, decided = internal
        if round % 2 == 1:
            votes = list(received.values())
            ones = votes.count(b"1") + v
            size = len(votes) + 1
            if size >= self.n - 1 and (ones == size or not ones):
                if not decided:
                    return (v, True), v
                return (v, True), None
            return (1 if 2 * ones > size else 0, decided), None
        phase = round // 2
        king = (phase - 1) % self.n
        if king in received:
            v = 1 if received[king] == b"1" else 0
        return (v, decided), None


class NaiveMajority(RoundProtocol):
    """Strawman: decide the majority of whatever round 1 delivers.

    A single dropped message can split the vote, so the checker finds
    agreement violations at depth 1.  Kept as the standard negative control.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("naive-majority needs n >= 3")
        self.n = n
        self.protocol_id = "naive-majority"

    def init(self, pid: Pid, input: int) -> Any:
        return input

    def message(self, internal: Any, round: int) -> bytes:
        return b"1" if internal else b"0"

    def transition(
        self, internal: Any, round: int, received: Mapping[Pid, bytes]
    ) -> tuple[Any, Optional[int]]:
        if round == 1:
            m = _majority([internal] + [1 if x == b"1" else 0 for x in received.values()])
            return m, m
        return internal, None


class Constant(RoundProtocol):
    """Outputs a fixed value at round 1 no matter what arrives."""

    def __init__(self, b: int):
        self.b = b
        self.protocol_id = f"constant-{b}"

    def init(self, pid: Pid, input: int) -> Any:
        return self.b

    def message(self, internal: Any, round: int) -> bytes:
        return b"1" if self.b else b"0"

    def transition(
        self, internal: Any, round: int, received: Mapping[Pid, bytes]
    ) -> tuple[Any, Optional[int]]:
        return internal, self.b if round == 1 else None


_REGISTRY = {
    "phase-king-lite": PhaseKingLite,
    "naive-majority": NaiveMajority,
    "constant-0": lambda n: Constant(0),
    "constant-1": lambda n: Constant(1),
}


def registered_protocols() -> list[str]:
    return sorted(_REGISTRY)


def get_protocol(protocol_id: str, n: int) -> RoundProtocol | AsyncProtocol:
    """Resolve a protocol id, including composed stack ids.

    Plain ids come from the registry.  A composite id of the form
    ``<stack>:<base>`` (e.g. ``fts-over-ftr:phase-king-lite``) wraps the base
    protocol for execution on the stack's outermost model; see
    :mod:`adversim.simulations` for the stack grammar.
    """
    if ":" in protocol_id:
        from .simulations import build_stack

        stack, base = protocol_id.split(":", 1)
        return build_stack(stack, base, n)
    try:
        builder = _REGISTRY[protocol_id]
    except KeyError:
        raise UnknownProtocolError(
            f"unknown protocol {protocol_id!r}; registered: {', '.join(registered_protocols())}"
        ) from None
    return builder(n)

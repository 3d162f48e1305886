"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProgramError(ReproError):
    """A program is malformed (bad operand, unknown label, duplicate label)."""


class AssemblerError(ProgramError):
    """The textual litmus/assembly format could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ExecutionError(ReproError):
    """A dynamic error occurred while executing an instruction (e.g. adding
    an address to an integer, or loading from a non-address value)."""


class GraphError(ReproError):
    """An execution-graph invariant was violated (unknown node, bad edge)."""


class CycleError(GraphError):
    """Adding an edge would create a cycle in the execution graph.

    A cycle means the requested ordering is inconsistent: in speculative
    executions this signals that the speculation failed and the behavior
    must be rolled back (discarded); elsewhere it is a hard error.
    """

    def __init__(self, source: int, target: int) -> None:
        self.source = source
        self.target = target
        super().__init__(
            f"edge {source} -> {target} would create a cycle in the execution graph"
        )


class AtomicityViolation(ReproError):
    """An execution violates the Store Atomicity property (Section 3.3).

    Raised by the closure engine when the rules (a), (b), (c) cannot be
    satisfied without creating a cycle, or by the declarative checker when
    handed a graph that breaks one of the serializability conditions.
    """


class SerializationError(ReproError):
    """No serialization (witness total order) exists for an execution that
    was expected to be serializable."""


class EnumerationError(ReproError):
    """The behavior-enumeration procedure hit a configured resource limit
    (too many behaviors, too many steps) or an internal inconsistency.

    When the error corresponds to an exhausted budget in ``strict`` mode,
    ``reason`` carries the matching
    :class:`~repro.core.enumerate.ExhaustionReason` member.
    """

    def __init__(self, message: str, reason: object | None = None) -> None:
        self.reason = reason
        super().__init__(message)


class StuckBehaviorWarning(RuntimeWarning):
    """The enumerator discarded an incomplete behavior with no eligible
    load.  Every incomplete behavior should offer at least one eligible
    load (memory is initialized with stores), so a stuck behavior points
    at an engine bug; it is surfaced rather than silently dropped."""


class ServiceError(ReproError):
    """The analysis service rejected a request or hit an internal fault.

    ``status`` optionally carries the HTTP status code the server
    answered (or would answer) with, and ``retry_after`` the suggested
    back-off in seconds for throttled requests.
    """

    def __init__(
        self,
        message: str,
        status: int | None = None,
        retry_after: float | None = None,
    ) -> None:
        self.status = status
        self.retry_after = retry_after
        super().__init__(message)


class WALError(ServiceError):
    """The write-ahead log is unreadable or inconsistent (a corrupt
    record in the middle of the log, an out-of-order sequence number).
    A torn *tail* record — what a crash mid-append leaves behind — is
    not an error; replay drops it."""


class CacheIntegrityWarning(RuntimeWarning):
    """The behavior cache skipped a damaged entry — a bad header, a
    flipped checksum, an undecodable or unknown-version payload, or one
    stored under the wrong key.  The entry degrades to a cache miss; the
    store stays usable."""


class CacheError(ReproError):
    """The behavior cache cannot write (an unwritable directory, a full
    disk) or a validated cache hit disagreed with a fresh enumeration.
    Damaged entries are *not* an error: the store degrades them to
    misses (with a warning) instead of raising."""


class ConditionError(ReproError):
    """A litmus-test condition expression is malformed or references an
    unknown thread or register."""


class CoherenceError(ReproError):
    """The cache-coherence machine reached an inconsistent protocol state."""

"""An executable laboratory for UTxO-style ledger semantics.

Small-step ledger transitions, structured contracts, valid execution
traces with their prefix ultrametric, sieve-defined graph homomorphisms,
and run-level safety properties (replay protection, trivial-update
protection, transaction commutativity, canonical ordering).
"""

from .core import (
    CheckResult,
    KeyCollisionError,
    Output,
    OutputRef,
    Slot,
    Tx,
    UtxoSet,
    apply_tx,
    check_tx,
    get_orefs,
    hash_tx,
    mk_outs,
    step_ledger,
)

__all__ = [
    "CheckResult",
    "KeyCollisionError",
    "Output",
    "OutputRef",
    "Slot",
    "Tx",
    "UtxoSet",
    "apply_tx",
    "check_tx",
    "get_orefs",
    "hash_tx",
    "mk_outs",
    "step_ledger",
]

__version__ = "0.1.0"

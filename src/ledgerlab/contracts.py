"""Structured contracts: a contract spec plus state/input projections.

A structured contract is a triple (spec, pi, kappa): pi partially projects
ledger states to contract states, kappa totally projects transactions to
contract inputs.  The contract is implemented correctly when every valid
ledger step from a projectable state lands on a projectable state and the
projected states are related by the contract's own step function.

The concrete ledger a contract lives on may carve out transactions via the
``additional_checks`` hook (the stand-in for on-chain permission scripts);
correctness is stated relative to that ledger.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .core import CheckResult, Tx, UtxoSet
from .graphs import PartialSieveHom, SimpleGraph, project_graph
from .traces import TracePrefix


@dataclass(frozen=True)
class ContractSpec:
    """Small-step contract semantics with a trivial environment.

    ``step(state, input)`` returns the next state or None when the
    transition is not permitted; it must be deterministic and pure.
    ``is_initial`` recognizes the valid start states.
    """

    step: Callable
    is_initial: Callable


@dataclass(frozen=True)
class StructuredContract:
    name: str
    spec: ContractSpec
    pi_defined: Callable[[UtxoSet], bool]
    pi: Callable[[UtxoSet], object]
    kappa: Callable[[Tx], object]
    #: ledger-side policy hook carving out the transactions this contract
    #: permits; None means the unrestricted ledger
    additional_checks: Optional[Callable] = None


def check_step_correctness(
    sc: StructuredContract, before: UtxoSet, tx: Tx, after: UtxoSet
) -> CheckResult:
    """The executable proof obligation for one ledger step before -tx-> after.

    Vacuously true when the source state is outside Def pi; otherwise the
    target must be projectable and the contract step must agree.
    """
    if not sc.pi_defined(before):
        return CheckResult(True, "vacuous")
    if not sc.pi_defined(after):
        return CheckResult(False, "to-state-unprojectable")
    expected = sc.spec.step(sc.pi(before), sc.kappa(tx))
    if expected is None or expected != sc.pi(after):
        return CheckResult(False, "contract-step-mismatch")
    return CheckResult(True)


@dataclass(frozen=True)
class ContractReport:
    steps_checked: int
    failures: Tuple


def check_contract_on_traces(
    sc: StructuredContract, traces: Sequence[TracePrefix]
) -> ContractReport:
    """Check step correctness at every annotated step of whole traces."""
    checked = 0
    failures = []
    for t_idx, prefix in enumerate(traces):
        if prefix.annotations is None:
            raise ValueError("contract checking needs lifted traces")
        for k, (_, tx) in enumerate(prefix.annotations):
            checked += 1
            verdict = check_step_correctness(
                sc, prefix.states[k], tx, prefix.states[k + 1]
            )
            if not verdict:
                failures.append((t_idx, k, verdict.reason))
    return ContractReport(checked, tuple(failures))


def induce_trace_map(
    sc: StructuredContract, ledger_trace: TracePrefix
) -> TracePrefix:
    """Pointwise projection of a ledger trace to a contract trace.

    Lift annotations are mapped through kappa with the trivial environment.
    """
    for k, state in enumerate(ledger_trace.states):
        if not sc.pi_defined(state):
            raise ValueError("state %d outside the projection domain" % k)
    states = tuple(sc.pi(u) for u in ledger_trace.states)
    annotations = None
    if ledger_trace.annotations is not None:
        annotations = tuple((None, sc.kappa(tx)) for _, tx in ledger_trace.annotations)
    return TracePrefix(states, annotations)


def build_contract_graphs(
    sc: StructuredContract,
    state_universe: Iterable,
    input_universe: Iterable,
) -> Tuple[SimpleGraph, SimpleGraph, PartialSieveHom]:
    """Explicit contract transition graph, its state projection, and the hom.

    Vertices of the first graph are (state, input) pairs on which the step
    function is defined; edges follow the step relation.  The second graph
    is its projection onto states.
    """
    states = list(state_universe)
    inputs = list(input_universe)
    vertices = frozenset(
        (s, i) for s in states for i in inputs if sc.spec.step(s, i) is not None
    )
    edges = frozenset(
        (v, w)
        for v in vertices
        for w in vertices
        if sc.spec.step(v[0], v[1]) == w[0]
    )
    initial = frozenset(v for v in vertices if sc.spec.is_initial(v[0]))
    gamma = SimpleGraph(vertices, edges, initial)
    gamma_prime, psi = project_graph(gamma, lambda v: v[0], lambda v: sc.spec.step(*v))
    return gamma, gamma_prime, psi


# --- the NFT example --------------------------------------------------------

MINT = "mint"
BURN = "burn"
NOOP = "noop"


def _nft_quantity(utxo: UtxoSet, token: bytes) -> int:
    return sum(out.quantity(token) for out in utxo.values())


def nft_contract(token: bytes = b"NFT") -> StructuredContract:
    """Non-fungible token tracker: contract state is the total quantity.

    The total quantity of the token may never exceed 1.  The ledger-side
    policy hook enforces the same bound on both sides of each transition,
    which is what makes the projection a correct implementation.
    """

    def step(state, inp):
        if inp == MINT:
            return state + 1 if state == 0 else None
        if inp == BURN:
            return state - 1 if state >= 1 else None
        if inp == NOOP:
            return state
        return None

    def delta(tx: Tx) -> int:
        created = sum(out.quantity(token) for out in tx.outputs)
        consumed = sum(i.output.quantity(token) for i in tx.inputs)
        return created - consumed

    def kappa(tx: Tx):
        d = delta(tx)
        if d > 0:
            return MINT
        if d < 0:
            return BURN
        return NOOP

    def policy(slot, utxo, tx):
        # check_tx has matched every input, so held + delta is the count after
        held = _nft_quantity(utxo, token)
        return held <= 1 and held + delta(tx) <= 1

    return StructuredContract(
        name="nft",
        spec=ContractSpec(step=step, is_initial=lambda s: s in (0, 1)),
        pi_defined=lambda u: True,
        pi=lambda u: _nft_quantity(u, token),
        kappa=kappa,
        additional_checks=policy,
    )


#: contracts available to the command-line registry, by name
CONTRACTS = {"nft": nft_contract}

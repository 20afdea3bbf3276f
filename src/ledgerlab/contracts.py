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

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .core import Tx, UtxoSet
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
    """A contract spec with its state projection pi and input projection kappa.

    ``pi`` is partial: it returns None on a ledger state outside Def pi.  No
    contract state is None, since ``spec.step`` answers None for a refusal.
    """

    spec: ContractSpec
    pi: Callable[[UtxoSet], object]
    kappa: Callable[[Tx], object]
    #: ledger-side policy hook carving out the transactions this contract
    #: permits; None means the unrestricted ledger
    additional_checks: Optional[Callable] = None


@dataclass(frozen=True)
class ContractReport:
    steps_checked: int
    failures: Tuple
    #: each trace's image under ``induce_trace_map``, in input order
    induced: Tuple


def check_contract_on_traces(
    sc: StructuredContract, traces: Sequence[TracePrefix]
) -> ContractReport:
    """Check step correctness at every annotated step of whole traces.

    Each trace is projected once, and each step's verdict is read off its
    image: a step from a state outside Def pi holds vacuously, a step onto
    one is ``to-state-unprojectable``, and otherwise the contract's step
    from the image of the source must reach the image of the target.
    """
    checked = 0
    failures = []
    induced = []
    for t_idx, prefix in enumerate(traces):
        if prefix.annotations is None:
            raise ValueError("contract checking needs lifted traces")
        image = induce_trace_map(sc, prefix)
        induced.append(image)
        states = image.states
        for k, (_, inp) in enumerate(image.annotations):
            checked += 1
            if states[k] is None:
                continue
            if states[k + 1] is None:
                failures.append((t_idx, k, "to-state-unprojectable"))
            elif sc.spec.step(states[k], inp) != states[k + 1]:
                failures.append((t_idx, k, "contract-step-mismatch"))
    return ContractReport(checked, tuple(failures), tuple(induced))


def induce_trace_map(
    sc: StructuredContract, ledger_trace: TracePrefix
) -> TracePrefix:
    """Pointwise projection of a ledger trace to a contract trace.

    Each state maps through pi, so a state outside Def pi maps to None.
    Lift annotations are mapped through kappa with the trivial environment.
    """
    states = tuple(map(sc.pi, ledger_trace.states))
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
    function is defined; v -> w is an edge when v steps to w's state.  The
    second graph is its image under (state, input) -> state.
    """
    inputs = list(input_universe)
    # each candidate pair is stepped once; the vertices are those it accepts
    after = {(s, i): t for s in state_universe for i in inputs
             if (t := sc.spec.step(s, i)) is not None}
    vertices = frozenset(after)
    by_state = defaultdict(list)
    for v in vertices:
        by_state[v[0]].append(v)
    edges = frozenset((v, w) for v in vertices for w in by_state.get(after[v], ()))
    initial = frozenset(v for v in vertices if sc.spec.is_initial(v[0]))
    gamma = SimpleGraph(vertices, edges, initial)
    gamma_prime, psi = project_graph(gamma, lambda v: v[0])
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
        consumed = sum(out.quantity(token) for _, out in tx.inputs)
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
        spec=ContractSpec(step=step, is_initial=lambda s: s in (0, 1)),
        pi=lambda u: _nft_quantity(u, token),
        kappa=kappa,
        additional_checks=policy,
    )


#: contracts available to the command-line registry, by name
CONTRACTS = {"nft": nft_contract}

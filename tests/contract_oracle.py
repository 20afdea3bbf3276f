"""The plain contract checks that ``ledgerlab.contracts`` replaced.

Kept as the oracles of the differential tests in ``test_contracts.py``.
``check_step_correctness`` is the proof obligation for one ledger step,
projecting both of its ends afresh; ``check_contract_on_traces`` runs it at
every step of whole traces.  ``build_contract_graphs`` finds Γ's edges by
stepping every vertex against every other.
"""
from __future__ import annotations

from ledgerlab.contracts import StructuredContract
from ledgerlab.core import CheckResult, Tx, UtxoSet
from ledgerlab.graphs import SimpleGraph, project_graph


def check_step_correctness(
    sc: StructuredContract, before: UtxoSet, tx: Tx, after: UtxoSet
) -> CheckResult:
    """The executable proof obligation for one ledger step before -tx-> after.

    Vacuously true when the source state is outside Def pi; otherwise the
    target must be projectable and the contract step must agree.
    """
    if sc.pi(before) is None:
        return CheckResult(True, "vacuous")
    if sc.pi(after) is None:
        return CheckResult(False, "to-state-unprojectable")
    expected = sc.spec.step(sc.pi(before), sc.kappa(tx))
    if expected is None or expected != sc.pi(after):
        return CheckResult(False, "contract-step-mismatch")
    return CheckResult(True)


def check_contract_on_traces(sc: StructuredContract, traces):
    """(steps checked, failures) of the obligation at every annotated step."""
    checked = 0
    failures = []
    for t_idx, prefix in enumerate(traces):
        for k, (_, tx) in enumerate(prefix.annotations):
            checked += 1
            verdict = check_step_correctness(
                sc, prefix.states[k], tx, prefix.states[k + 1]
            )
            if not verdict:
                failures.append((t_idx, k, verdict.reason))
    return checked, tuple(failures)


def build_contract_graphs(sc: StructuredContract, state_universe, input_universe):
    """Γ, Γ′ and ψ with every pair of vertices tested for an edge."""
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
    gamma_prime, psi = project_graph(gamma, lambda v: v[0])
    return gamma, gamma_prime, psi

"""Run-level ledger properties: replay protection, trivial-update
protection, disjointness, commutativity, and canonical transaction order.

A run is a chained list of valid ledger steps.  For step i we write
r_i for the refs spent and c_i for the refs created; the state recursion
is u_{k+1} = (u_k \\ r_k) ∪ c_k.  From well-founded initial states these
families are pairwise disjoint, which is what the checkers verify.
"""
from __future__ import annotations

import graphlib
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .core import (
    CheckResult,
    LedgerStep,
    OutputRef,
    Rejection,
    Slot,
    Tx,
    UtxoSet,
    get_orefs,
    hash_tx,
    mk_outs,
    step_ledger,
    to_map,
)


@dataclass(frozen=True)
class AnnotatedRun:
    """A finite chained sequence of valid ledger steps from a start state."""

    initial: UtxoSet
    steps: Tuple[LedgerStep, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.steps and self.steps[0].before != self.initial:
            raise ValueError("first step does not start at the initial state")
        for a, b in zip(self.steps, self.steps[1:]):
            if a.after != b.before:
                raise ValueError("steps do not chain")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def final(self) -> UtxoSet:
        return self.steps[-1].after if self.steps else self.initial

    def txs(self) -> Tuple[Tx, ...]:
        return tuple(s.tx for s in self.steps)

    def spent_refs(self, i: int) -> frozenset:
        return get_orefs(self.steps[i].tx)

    def created_refs(self, i: int) -> frozenset:
        return mk_outs(self.steps[i].tx).keys()


@dataclass(frozen=True)
class Verdict:
    """Clean/violation outcome with a witness for the violation."""

    clean: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.clean


def check_well_founded(u0: UtxoSet, genesis_txs: Iterable[Tx]) -> CheckResult:
    """Every key of u0 must be produced by an inputless genesis transaction."""
    by_hash: Dict[bytes, Tx] = {}
    for tx in genesis_txs:
        by_hash[hash_tx(tx)] = tx
    for ref, out in u0.items():
        tx = by_hash.get(ref.tx_hash)
        if tx is None or tx.inputs:
            return CheckResult(False, "non-genesis-key")
        produced = to_map(0, tx.outputs)
        if produced.get(ref.index) != out:
            return CheckResult(False, "output-mismatch")
    return CheckResult(True)


def _first_repeat(items: Sequence) -> Optional[Tuple[int, int]]:
    """The lexicographically least pair i < j with items[i] == items[j]."""
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] == items[j]:
                return (i, j)
    return None


def check_replay_protection(run: AnnotatedRun) -> Verdict:
    """No transaction may occur twice; reports the minimal pair (i, j)."""
    pair = _first_repeat(run.txs())
    return Verdict(pair is None, pair)


def check_trivial_update_protection(run: AnnotatedRun) -> Verdict:
    """No ledger state may recur; reports the minimal pair (i, j)."""
    pair = _first_repeat([run.initial] + [s.after for s in run.steps])
    return Verdict(pair is None, pair)


def check_disjointness(run: AnnotatedRun) -> Verdict:
    """Pairwise disjointness of the created families and the spent families.

    Also checks the per-step shape: the spent refs are present in the state
    and the created refs do not overlap the surviving entries.
    """
    if not run.steps:
        return Verdict(True)
    n = len(run.steps)
    created = [run.created_refs(i) for i in range(n)]
    spent = [run.spent_refs(i) for i in range(n)]
    families = [("u0", run.initial.keys())] + [
        ("c%d" % i, created[i]) for i in range(n)
    ]
    for (na, a), (nb, b) in itertools.combinations(families, 2):
        if a & b:
            return Verdict(False, ("created-overlap", na, nb))
    for (i, a), (j, b) in itertools.combinations(enumerate(spent), 2):
        if a & b:
            return Verdict(False, ("spent-overlap", i, j))
    for k, step in enumerate(run.steps):
        if not spent[k] <= step.before.keys():
            return Verdict(False, ("spent-not-present", k))
        if created[k] & (step.before.keys() - spent[k]):
            return Verdict(False, ("created-collides", k))
    return Verdict(True)


def check_commutativity(run_a: AnnotatedRun, run_b: AnnotatedRun) -> Verdict:
    """Two runs applying the same transactions must reach the same state.

    Precondition: equal starting states and equal transaction multisets;
    a violation would indicate a ledger implementation bug.
    """
    if run_a.initial != run_b.initial:
        raise ValueError("runs must start from the same state")
    if Counter(run_a.txs()) != Counter(run_b.txs()):
        raise ValueError("transaction multisets differ")
    if run_a.final != run_b.final:
        return Verdict(False, (run_a.final, run_b.final))
    return Verdict(True)


# --- canonical form ---------------------------------------------------------

@dataclass(frozen=True)
class TxPoset:
    """Dependency order on run indices: i < j when t_i spends what t_j made.

    ``less_than`` is the generating relation (j in K_i).  One pass in
    topological order, which run order need not be, derives ``levels`` (the
    longest dependency chain down to level 0) and each index's strict
    down-set as an int bitset; the closure is read from the down-sets.
    """

    indices: Tuple[int, ...]
    less_than: frozenset
    levels: Tuple[int, ...] = field(init=False)
    _down: Dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k_sets: Dict[int, List[int]] = {i: [] for i in self.indices}
        for i, j in self.less_than:
            k_sets[i].append(j)
        try:
            order = list(graphlib.TopologicalSorter(k_sets).static_order())
        except graphlib.CycleError as exc:
            raise RuntimeError("cyclic dependency relation: %r" % exc.args[1]) from None
        down: Dict[int, int] = {}
        level: Dict[int, int] = {}
        for i in order:
            level[i] = max((level[j] + 1 for j in k_sets[i]), default=0)
            down[i] = 0
            for j in k_sets[i]:
                down[i] |= down[j] | 1 << j
        object.__setattr__(self, "levels", tuple(level[i] for i in self.indices))
        object.__setattr__(self, "_down", down)

    def closure(self) -> frozenset:
        return frozenset(
            (i, j) for i in self.indices for j in self.indices if self._down[i] >> j & 1
        )

    def hasse_edges(self) -> frozenset:
        """Covers: (a, b) in ``less_than`` with b below no other m in K_a."""
        below_k: Dict[int, int] = {}
        for a, m in self.less_than:
            below_k[a] = below_k.get(a, 0) | self._down[m]
        return frozenset(
            (a, b) for a, b in self.less_than if not below_k[a] >> b & 1
        )

    def comparable(self, i: int, j: int) -> bool:
        return bool((self._down[i] >> j | self._down[j] >> i) & 1)


def build_tx_poset(run: AnnotatedRun) -> TxPoset:
    """Dependency poset of a run's transactions.

    K_i collects the indices whose created refs meet t_i's spent refs.  A
    ref maps to every index that creates it, since a repeated transaction
    creates the same refs twice.
    """
    n = len(run.steps)
    creators: Dict[OutputRef, List[int]] = {}
    for j in range(n):
        for ref in run.created_refs(j):
            creators.setdefault(ref, []).append(j)
    relation = frozenset(
        (i, j)
        for i in range(n)
        for ref in run.spent_refs(i)
        for j in creators.get(ref, ())
        if j != i
    )
    return TxPoset(tuple(range(n)), relation)


def canonical_presentation(poset: TxPoset) -> List[int]:
    """Indices sorted by dependency level, then by natural index."""
    return sorted(poset.indices, key=lambda i: (poset.levels[i], i))


@dataclass(frozen=True)
class PermutationSet:
    sequences: Tuple[Tuple[int, ...], ...]
    capped: bool


def enumerate_valid_permutations(poset: TxPoset, cap: int) -> PermutationSet:
    """Orderings reachable from the canonical presentation by swaps.

    An elementary swap exchanges two adjacent transactions that are not
    dependency-ordered; the reachable set is exactly the linear extensions
    of the dependency order.  Output is sorted; ``capped`` flags
    truncation.  Callers replay-validate the sequences, since swaps do not
    account for slot constraints.
    """
    start = tuple(canonical_presentation(poset))
    seen = {start}
    frontier = [start]
    capped = False
    while frontier:
        seq = frontier.pop()
        for k in range(len(seq) - 1):
            a, b = seq[k], seq[k + 1]
            if poset.comparable(a, b):
                continue
            nxt = seq[:k] + (b, a) + seq[k + 2 :]
            if nxt not in seen:
                if len(seen) >= cap:
                    capped = True
                    continue
                seen.add(nxt)
                frontier.append(nxt)
    return PermutationSet(tuple(sorted(seen)), capped)


# --- replay driver ----------------------------------------------------------

@dataclass(frozen=True)
class ReplayRejection:
    index: int
    reason: str


def replay_sequence(
    u0: UtxoSet,
    slots: Sequence[Slot],
    txs: Sequence[Tx],
    additional_checks=None,
) -> Union[AnnotatedRun, ReplayRejection]:
    """Fold step_ledger over a transaction list from a starting state."""
    if len(slots) != len(txs):
        raise ValueError("need one slot per transaction")
    if any(b < a for a, b in zip(slots, slots[1:])):
        raise ValueError("slots must be non-decreasing")
    steps = []
    utxo = u0
    for k, (slot, tx) in enumerate(zip(slots, txs)):
        outcome = step_ledger(slot, utxo, tx, additional_checks)
        if isinstance(outcome, Rejection):
            return ReplayRejection(k, outcome.reason)
        steps.append(outcome)
        utxo = outcome.after
    return AnnotatedRun(u0, tuple(steps))


def assign_slots(txs: Sequence[Tx]) -> Optional[List[Slot]]:
    """Non-decreasing slots satisfying every validity interval, or None.

    Prefers a single shared slot (the smallest one inside every interval);
    otherwise greedily assigns the minimal non-decreasing sequence.
    """
    if not txs:
        return []
    lo = max(tx.validity_interval[0] for tx in txs)
    hi = min(tx.validity_interval[1] for tx in txs)
    if lo < hi:
        return [lo] * len(txs)
    slots = []
    current = 0
    for tx in txs:
        start, end = tx.validity_interval
        slot = max(current, start)
        if slot >= end:
            return None
        slots.append(slot)
        current = slot
    return slots

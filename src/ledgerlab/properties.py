"""Run-level ledger properties: replay protection, trivial-update
protection, disjointness, and canonical transaction order, with the replay
driver that tests commutativity by comparing the final states of orders.

A run is a lifted trace prefix (``traces.TracePrefix``): states u_0..u_n
and one (slot, tx) annotation per step.  For step i we write r_i for the
refs t_i spends and c_i for the refs it creates; the state recursion is
u_{i+1} = (u_i \\ r_i) ∪ c_i.  From well-founded initial states these
families are pairwise disjoint, which is what the checkers verify.
"""
from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .core import (
    CheckResult,
    OutputRef,
    Slot,
    Tx,
    UtxoSet,
    get_orefs,
    hash_tx,
    mk_outs,
    step_ledger,
)
from .traces import TracePrefix


def check_well_founded(u0: UtxoSet, genesis_txs: Iterable[Tx]) -> CheckResult:
    """Every key of u0 must be produced by an inputless genesis transaction.

    Of several failing entries, the least ref names the reason, as a scan in
    canonical order would; u0 is not sorted.
    """
    by_hash: Dict[bytes, Tx] = {}
    for tx in genesis_txs:
        by_hash[hash_tx(tx)] = tx
    least = None
    for ref, out in u0.entries.items():
        tx = by_hash.get(ref.tx_hash)
        if tx is None or tx.inputs:
            reason = "non-genesis-key"
        elif ref.index >= len(tx.outputs) or tx.outputs[ref.index] != out:
            reason = "output-mismatch"
        else:
            continue
        if least is None or ref < least[0]:
            least = (ref, reason)
    return CheckResult(True) if least is None else CheckResult(False, least[1])


def _least_shared(families: Iterable[Iterable]) -> Optional[Tuple[int, int]]:
    """The least pair i < j, in ``itertools.combinations`` order, whose
    families share an item, or None.  One pass records each item's first
    owner; the least pair is the minimum over shared items of (first owner,
    next owner), so ``a b b a`` gives (0, 3), not (1, 2).
    """
    first: Dict[object, int] = {}
    least = None
    for j, family in enumerate(families):
        for item in family:
            i = first.setdefault(item, j)
            if i != j and (least is None or (i, j) < least):
                least = (i, j)
    return least


def check_replay_protection(run: TracePrefix) -> CheckResult:
    """No transaction may occur twice; reports the minimal pair (i, j)."""
    pair = _least_shared((tx,) for _, tx in run.annotations)
    return CheckResult(pair is None, witness=pair)


def check_trivial_update_protection(run: TracePrefix) -> CheckResult:
    """No ledger state may recur; reports the minimal pair (i, j)."""
    pair = _least_shared((u,) for u in run.states)
    return CheckResult(pair is None, witness=pair)


def check_disjointness(run: TracePrefix) -> CheckResult:
    """Pairwise disjointness of the created families and the spent families.

    The per-step shape (spent refs present, created refs fresh) is not
    checked here: ``replay_sequence`` refuses a step that breaks it.
    """
    txs = [tx for _, tx in run.annotations]
    pair = _least_shared([run.states[0].keys()] + [mk_outs(tx).keys() for tx in txs])
    if pair is not None:
        na, nb = ("u0" if k == 0 else "c%d" % (k - 1) for k in pair)
        return CheckResult(False, witness=("created-overlap", na, nb))
    pair = _least_shared(get_orefs(tx) for tx in txs)
    if pair is not None:
        return CheckResult(False, witness=("spent-overlap",) + pair)
    return CheckResult(True)


# --- canonical form ---------------------------------------------------------

@dataclass(frozen=True)
class TxPoset:
    """Dependency order on indices 0..size-1: i < j when t_i spends what t_j made.

    ``less_than`` is the generating relation (j in K_i).  One pass in
    topological order, which run order need not be, derives ``levels`` (the
    longest dependency chain down to level 0) and each index's strict
    down-set as an int bitset; the closure is read from the down-sets.
    """

    size: int
    less_than: frozenset
    levels: Tuple[int, ...] = field(init=False)
    _down: Dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k_sets: Dict[int, List[int]] = {i: [] for i in range(self.size)}
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
        object.__setattr__(self, "levels", tuple(level[i] for i in range(self.size)))
        object.__setattr__(self, "_down", down)

    def closure(self) -> frozenset:
        ids = range(self.size)
        return frozenset((i, j) for i in ids for j in ids if self._down[i] >> j & 1)

    def comparable(self, i: int, j: int) -> bool:
        return bool((self._down[i] >> j | self._down[j] >> i) & 1)


def build_tx_poset(run: TracePrefix) -> TxPoset:
    """Dependency poset of a run's transactions.

    K_i collects the indices whose created refs meet t_i's spent refs.  A
    ref maps to every index that creates it, since a repeated transaction
    creates the same refs twice.
    """
    txs = [tx for _, tx in run.annotations]
    creators: Dict[OutputRef, List[int]] = {}
    for j, tx in enumerate(txs):
        for ref in mk_outs(tx).keys():
            creators.setdefault(ref, []).append(j)
    relation = frozenset(
        (i, j)
        for i, tx in enumerate(txs)
        for ref in get_orefs(tx)
        for j in creators.get(ref, ())
        if j != i
    )
    return TxPoset(len(txs), relation)


def canonical_presentation(poset: TxPoset) -> List[int]:
    """Indices sorted by dependency level, then by natural index."""
    return sorted(range(poset.size), key=lambda i: (poset.levels[i], i))


@dataclass(frozen=True)
class PermutationSet:
    sequences: Tuple[Tuple[int, ...], ...]
    capped: bool


def enumerate_valid_permutations(poset: TxPoset, cap: int) -> PermutationSet:
    """Orderings reachable from the canonical presentation by swaps.

    An elementary swap exchanges two adjacent transactions that are not
    dependency-ordered; the reachable set is exactly the linear extensions
    of the dependency order.  Output is sorted; ``capped`` flags
    truncation.  Callers replay-validate the sequences with
    ``valid_orders``, since swaps do not account for slot constraints; it
    steps each edge between the (applied, slot, state) nodes that the
    sequences reach once, in whatever order they come.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    start = tuple(canonical_presentation(poset))
    seen = {start}
    frontier = [start]
    while frontier:
        seq = frontier.pop()
        for k in range(len(seq) - 1):
            a, b = seq[k], seq[k + 1]
            if poset.comparable(a, b):
                continue
            nxt = seq[:k] + (b, a) + seq[k + 2 :]
            if nxt not in seen:
                if len(seen) >= cap:
                    # a full ``seen`` can no longer change
                    return PermutationSet(tuple(sorted(seen)), True)
                seen.add(nxt)
                frontier.append(nxt)
    return PermutationSet(tuple(sorted(seen)), False)


# --- replay driver ----------------------------------------------------------

def replay_sequence(
    u0: UtxoSet, steps: Sequence[Tuple[Slot, Tx]]
) -> Union[TracePrefix, CheckResult]:
    """Fold step_ledger over a run's (slot, tx) steps: the run as a lifted
    prefix ``TracePrefix(states, steps)``.

    A refused step k returns ``CheckResult(False, reason, witness=k)``; a
    slot below the previous one refuses it as ``slots-decreasing``.
    """
    states = [u0]
    for k, (slot, tx) in enumerate(steps):
        if k and slot < steps[k - 1][0]:
            return CheckResult(False, "slots-decreasing", k)
        outcome = step_ledger(slot, states[-1], tx)
        if isinstance(outcome, CheckResult):
            return CheckResult(False, outcome.reason, k)
        states.append(outcome)
    return TracePrefix(states, steps)


def valid_orders(
    u0: UtxoSet, txs: Sequence[Tx], sequences: Iterable[Sequence[int]]
) -> List[Sequence[int]]:
    """The index sequences, all of one length (else ``ValueError``), whose
    orders of ``txs`` replay from ``u0``, in input order.

    A sequence is kept when every step replays at its greedy slot: the
    previous slot (from 0) or the start of the transaction's validity
    interval, whichever is later.  ``check_tx`` refuses a greedy slot at or
    past the interval's end, and greedy slots fit exactly when some
    non-decreasing assignment does.

    The sequences are walked level by level over nodes, a node being the
    key (applied, slot, state): the bitset of the indices applied, the
    greedy slot and the ledger state.  At each level every live sequence
    moves one position.  A node's child for a next index is stepped once by
    ``step_ledger``, however many sequences take it, and a refused child (a
    failed check or ``created-collides``) drops its sequences.  Two
    children share a node only when their keys are equal, states by
    ``==``, so no commutativity is assumed: a step that does not commute
    keeps two nodes.  A step copies and hashes its state, O(|state|), and
    memory follows the widest level.
    """
    sequences = list(sequences)
    level = {(0, 0, u0): range(len(sequences))}
    for column in zip(*sequences, strict=True):
        children: Dict[Tuple[int, Slot, UtxoSet], List[int]] = {}
        for (applied, slot, state), members in level.items():
            by_index: Dict[int, List[int]] = {}
            for s in members:
                i = column[s]
                if (group := by_index.get(i)) is None:
                    by_index[i] = [s]
                else:
                    group.append(s)
            for i, group in by_index.items():
                tx = txs[i]
                start = tx.validity_interval[0]
                after = start if start > slot else slot
                child = step_ledger(after, state, tx)
                if not isinstance(child, CheckResult):
                    children.setdefault((applied | 1 << i, after, child), []).extend(group)
        level = children
    valid = sorted(s for members in level.values() for s in members)
    return [sequences[s] for s in valid]

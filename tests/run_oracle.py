"""Reference run checkers for differential tests.

These are the plain versions that ``ledgerlab.properties._least_shared``
replaced: the O(n^2) first-repeat scan, the pairwise disjointness loops
over ``itertools.combinations``, and the hashed-set ``duplicate-tx``
monitor predicate.  ``assign_slots`` is the greedy slot rule spelled out
on its own, the oracle of ``properties.valid_orders``' per-step slots.
"""
import itertools
from typing import List, Optional, Sequence, Tuple

from ledgerlab.core import CheckResult, Slot, Tx, get_orefs, mk_outs


def _first_repeat(items: Sequence) -> Optional[Tuple[int, int]]:
    """The lexicographically least pair i < j with items[i] == items[j]."""
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] == items[j]:
                return (i, j)
    return None


def check_replay_protection(run) -> CheckResult:
    pair = _first_repeat([tx for _, tx in run.annotations])
    return CheckResult(pair is None, witness=pair)


def check_trivial_update_protection(run) -> CheckResult:
    pair = _first_repeat(run.states)
    return CheckResult(pair is None, witness=pair)


def check_disjointness(run) -> CheckResult:
    """Pairwise disjointness of the created families and the spent families.

    The per-step shape (spent refs present, created refs fresh) is not
    checked here: ``replay_sequence`` refuses a step that breaks it.
    """
    txs = [tx for _, tx in run.annotations]
    spent = [get_orefs(tx) for tx in txs]
    families = [("u0", run.states[0].keys())] + [
        ("c%d" % i, mk_outs(tx).keys()) for i, tx in enumerate(txs)
    ]
    for (na, a), (nb, b) in itertools.combinations(families, 2):
        if a & b:
            return CheckResult(False, witness=("created-overlap", na, nb))
    for (i, a), (j, b) in itertools.combinations(enumerate(spent), 2):
        if a & b:
            return CheckResult(False, witness=("spent-overlap", i, j))
    return CheckResult(True)


def duplicate_tx(p) -> bool:
    """The ``duplicate-tx`` monitor's old predicate, over a hashed set."""
    return p.annotations is not None and len(
        {tx for _, tx in p.annotations}
    ) < len(p.annotations)


def assign_slots(txs: Sequence[Tx]) -> Optional[List[Slot]]:
    """Non-decreasing slots satisfying every validity interval, or None.

    Greedily assigns the minimal non-decreasing sequence: each slot is the
    start of its interval or the previous slot, whichever is later, and it
    must lie below the interval's end.  It exists exactly when some
    non-decreasing assignment does.
    """
    slots = []
    current = 0
    for tx in txs:
        start, end = tx.validity_interval
        current = max(current, start)
        if not current < end:
            return None
        slots.append(current)
    return slots

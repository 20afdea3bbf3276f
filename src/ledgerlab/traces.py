"""Execution-trace prefixes, the prefix ultrametric, and safety monitors.

Traces are infinite in principle; here they are represented by finite
prefixes with an explicit observed length.  Distances are therefore either
exact (a difference was observed) or an upper bound 2^-n where n is the
shared observed length — never a silently truncated "exact" value.
"""
from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .core import CheckResult, Slot, Tx, UtxoSet, step_ledger


@dataclass(frozen=True)
class TracePrefix:
    """Finite head of an execution trace, optionally with its lift.

    ``annotations`` holds one (environment, input) label per step, so its
    length is one less than the number of states.  ``truncated`` marks a
    prefix cut short by generator exhaustion.
    """

    states: Tuple
    annotations: Optional[Tuple] = None
    truncated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise ValueError("a trace prefix has at least one state")
        if self.annotations is not None:
            ann = tuple(tuple(a) for a in self.annotations)
            if len(ann) != len(self.states) - 1:
                raise ValueError("annotations must have one entry per step")
            object.__setattr__(self, "annotations", ann)

    def __len__(self) -> int:
        return len(self.states)

    def head(self, n: int) -> "TracePrefix":
        """The prefix with the first ``n`` states (n >= 1)."""
        if not 1 <= n <= len(self.states):
            raise ValueError("head length out of range")
        ann = None if self.annotations is None else self.annotations[: n - 1]
        return TracePrefix(self.states[:n], ann)


@dataclass(frozen=True)
class UltraDistance:
    """Dyadic trace distance, exact or an upper bound.

    ``value`` is in {0} ∪ {2^-k}; when ``exact`` is False it is only an
    upper bound determined by the shared observed length.
    """

    exact: bool
    value: Fraction


def ultra_distance(a: TracePrefix, b: TracePrefix) -> UltraDistance:
    """Distance 2^-k at the first differing index k.

    If no difference is visible within the shared observed length n, the
    result is the bound 2^-n.  Identity of objects is the only case treated
    as exact zero, since distinct prefixes may extend differently.
    """
    if a is b:
        return UltraDistance(True, Fraction(0))
    n = min(len(a), len(b))
    for k in range(n):
        if a.states[k] != b.states[k]:
            return UltraDistance(True, Fraction(1, 2 ** k))
    return UltraDistance(False, Fraction(1, 2 ** n))


@dataclass(frozen=True)
class NonExpansionReport:
    pairs_checked: int
    pairs_skipped: int
    violations: Tuple


def check_non_expanding(
    traces: Sequence[TracePrefix], images: Sequence[TracePrefix]
) -> NonExpansionReport:
    """Check d(f(a), f(b)) <= d(a, b) on every pair of traces.

    ``images[i]`` is the image of ``traces[i]`` under a state map f, such as
    a contract's pi as ``contracts.induce_trace_map`` applies it, with None
    for a state outside f's domain.  Pairs i < j are visited in
    ``itertools.combinations`` order and a violation is reported as its
    position in that order.  A pair whose image holds a None is skipped and
    counted in ``pairs_skipped``; on traces reachable from initial vertices
    this cannot happen because the domain is a sieve.

    For a pointwise image this only confirms that f is a function: traces
    that agree up to index k have images that agree there too, and only an
    f giving equal states unequal images can report a violation.  The
    contract claim itself, that the projection is a homomorphism out of the
    ledger's trace graph, is tested by acceptance criterion C10.
    """
    whole = [None if any(s is None for s in fa.states) else fa for fa in images]
    checked = 0
    skipped = 0
    violations = []
    pairs = itertools.combinations(zip(traces, whole), 2)
    for idx, ((a, fa), (b, fb)) in enumerate(pairs):
        if fa is None or fb is None:
            skipped += 1
            continue
        d_src = ultra_distance(a, b)
        d_img = ultra_distance(fa, fb)
        if not (d_src.exact and d_img.exact):
            # the image can only differ where the sources differ, so an
            # inexact image distance is already below the source bound
            skipped += 1
            continue
        checked += 1
        if d_img.value > d_src.value:
            violations.append(idx)
    return NonExpansionReport(checked, skipped, tuple(violations))


# --- safety monitors --------------------------------------------------------

def monitor_trace(
    bad_prefix: Callable[[TracePrefix], bool], prefix: TracePrefix
) -> Optional[int]:
    """Smallest index n whose (n+1)-state head is bad, or None if clean.

    A safety property is given by its bad prefixes: ``bad_prefix`` must be
    irremediable, true on every extension of a prefix it holds on (the
    tests spot-check each of ``cli.MONITORS``).  Badness is then
    monotone in n, and a binary search needs O(log n) calls of it.
    """
    n = bisect.bisect_left(
        range(len(prefix)), True, key=lambda n: bad_prefix(prefix.head(n + 1))
    )
    return n if n < len(prefix) else None


# --- validity and generation ------------------------------------------------

def validate_trace_prefix(
    prefix: TracePrefix,
    initial_slots: Sequence[Slot],
) -> CheckResult:
    """Re-validate a ledger trace prefix against its lift ``annotations``.

    Checks: the first slot is a valid initial one (an empty
    ``initial_slots`` admits any), every step is a valid ledger transition
    landing on the recorded state, and the slots never decrease
    (``check_well_founded`` judges the first state).  A prefix with steps
    but no lift raises ValueError.
    """
    steps = prefix.annotations or ()
    if len(steps) != len(prefix) - 1:
        raise ValueError("need one (slot, tx) pair per step")
    if steps and initial_slots and steps[0][0] not in initial_slots:
        return CheckResult(False, "not-initial-slot")
    for k, (slot, tx) in enumerate(steps):
        if k and slot < steps[k - 1][0]:
            return CheckResult(False, "slots-decreasing")
        outcome = step_ledger(slot, prefix.states[k], tx)
        if isinstance(outcome, CheckResult):
            return CheckResult(False, "step-%d-%s" % (k, outcome.reason))
        if outcome != prefix.states[k + 1]:
            return CheckResult(False, "state-mismatch-at-%d" % (k + 1,))
    return CheckResult(True)


#: proposals tried per step before a generated trace is cut short
MAX_RETRIES = 12


def generate_valid_traces(
    initial_utxos: Sequence[UtxoSet],
    initial_slots: Sequence[Slot],
    propose: Callable[[random.Random, Slot, UtxoSet], Optional[Tx]],
    depth: int,
    count: int,
    seed: int,
    additional_checks=None,
) -> List[TracePrefix]:
    """Sample valid ledger trace prefixes, deterministically from a seed.

    ``propose`` suggests a candidate transaction for the current state;
    rejected or failed proposals are retried ``MAX_RETRIES`` times, and if
    no valid transaction is found the prefix is cut short and ``truncated``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = random.Random(seed)
    traces = []
    for _ in range(count):
        utxo = initial_utxos[rng.randrange(len(initial_utxos))]
        slot = initial_slots[rng.randrange(len(initial_slots))]
        states = [utxo]
        annotations = []
        truncated = False
        while len(states) < depth:
            for _attempt in range(MAX_RETRIES):
                # the first step must use a valid initial slot
                advance = 0 if not annotations else rng.choice((0, 0, 0, 1, 2))
                step_slot = slot + advance
                tx = propose(rng, step_slot, states[-1])
                if tx is None:
                    continue
                outcome = step_ledger(step_slot, states[-1], tx, additional_checks)
                if isinstance(outcome, CheckResult):
                    continue
                states.append(outcome)
                annotations.append((step_slot, tx))
                slot = step_slot
                break
            else:
                truncated = True
                break
        traces.append(TracePrefix(tuple(states), tuple(annotations), truncated))
    return traces

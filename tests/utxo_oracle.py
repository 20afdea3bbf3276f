"""The sorted-tuple UTxO state that ``ledgerlab.core.UtxoSet`` replaced.

Kept verbatim as the oracle of the differential tests in
``test_utxo_oracle.py``: every lookup scans the tuple and every
construction sorts, so it is slow but plainly a canonical finite map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple

from ledgerlab.core import KeyCollisionError, Output, OutputRef


@dataclass(frozen=True)
class UtxoSet:
    """The ledger state: a finite map OutputRef -> Output.

    Stored as a sorted tuple of pairs so that two sets with equal contents
    compare and hash equal.
    """

    entries: Tuple[Tuple[OutputRef, Output], ...] = ()

    def __post_init__(self):
        pairs = (
            self.entries.items()
            if isinstance(self.entries, Mapping)
            else self.entries
        )
        items = tuple(sorted(pairs, key=lambda kv: kv[0]))
        refs = [ref for ref, _ in items]
        if len(set(refs)) != len(refs):
            raise ValueError("duplicate output ref in UTxO set")
        object.__setattr__(self, "entries", items)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, ref: OutputRef) -> bool:
        return any(r == ref for r, _ in self.entries)

    def get(self, ref: OutputRef) -> Optional[Output]:
        for r, out in self.entries:
            if r == ref:
                return out
        return None

    def keys(self) -> frozenset:
        return frozenset(r for r, _ in self.entries)

    def items(self) -> Tuple[Tuple[OutputRef, Output], ...]:
        return self.entries

    def without(self, refs: Iterable[OutputRef]) -> "UtxoSet":
        drop = set(refs)
        return UtxoSet(tuple(kv for kv in self.entries if kv[0] not in drop))

    def union(self, other: "UtxoSet") -> "UtxoSet":
        overlap = self.keys() & other.keys()
        if overlap:
            raise KeyCollisionError(
                "output refs already present: %r" % (sorted(overlap)[:3],)
            )
        return UtxoSet(self.entries + other.entries)

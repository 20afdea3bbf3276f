"""The frozen-dataclass ``Output`` that the tuple ``ledgerlab.core.Output``
replaced, with the serializer of its bytes.

Kept verbatim as the oracle of the differential tests in
``test_output_oracle.py``: every field is read by name and every check
runs through ``_in_domain``, so it is slow but plainly the value it
describes.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Tuple

from ledgerlab.core import _in_domain


@dataclass(frozen=True)
class Output:
    """A ledger entry value: owner address, token bag, opaque datum.

    ``value`` maps token ids to positive quantities.  Zero quantities are
    normalized away at construction; quantities outside [0, 2^64) are
    rejected.
    """

    address: bytes
    value: Tuple[Tuple[bytes, int], ...] = ()
    datum: bytes = b""

    def __post_init__(self):
        _in_domain(self.address, "address", bound=None)
        _in_domain(self.datum, "datum", bound=None)
        pairs = self.value.items() if isinstance(self.value, Mapping) else self.value
        norm = []
        seen = set()
        try:
            for token, qty in pairs:
                _in_domain(token, "token id", bound=None)
                _in_domain(qty, "token quantity")
                if token in seen:
                    raise ValueError("duplicate token id in value map")
                seen.add(token)
                if qty > 0:
                    norm.append((token, qty))
        except TypeError as exc:
            raise ValueError("value is not (token, quantity) pairs: %s" % exc) from exc
        object.__setattr__(self, "value", tuple(sorted(norm)))

    def quantity(self, token: bytes) -> int:
        for tok, qty in self.value:
            if tok == token:
                return qty
        return 0


def _ser_nat(n: int) -> bytes:
    return n.to_bytes(8, "big")


def _ser_bytes(b: bytes) -> bytes:
    return _ser_nat(len(b)) + b


def _ser_output(out: Output) -> bytes:
    parts = [_ser_bytes(out.address), _ser_nat(len(out.value))]
    for token, qty in out.value:
        parts.append(_ser_bytes(token))
        parts.append(_ser_nat(qty))
    parts.append(_ser_bytes(out.datum))
    return b"".join(parts)

"""Seeded generators for desk-scale ledger scenarios.

All randomness flows through an explicit ``random.Random`` instance, so a
fixed seed reproduces every scenario, trace, and file byte-for-byte.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .core import Output, Slot, Tx, UtxoSet, mk_outs
from .traces import generate_valid_traces

COIN = b"coin"

#: wide default validity window; keeps permuted replays slot-compatible
WIDE_INTERVAL = (0, 2 ** 20)


def _random_output(rng: random.Random, token: Optional[bytes] = None,
                   token_qty: int = 0) -> Output:
    value = {COIN: rng.randint(1, 99)}
    if token is not None and token_qty > 0:
        value[token] = token_qty
    return Output(
        address=rng.randbytes(4),
        value=value,
        datum=rng.randbytes(4),
    )


def make_proposer(
    token: Optional[bytes] = None,
    max_spend: int = 3,
    max_create: int = 3,
) -> Callable[[random.Random, int, UtxoSet], Optional[Tx]]:
    """Build a random-transaction proposer for generate_valid_traces.

    Every proposal has the validity interval ``WIDE_INTERVAL``.  When
    ``token`` is set, the proposer keeps its total quantity at most 1,
    occasionally minting, moving, or burning it.
    """

    def propose(rng: random.Random, slot: int, utxo: UtxoSet) -> Optional[Tx]:
        if len(utxo) == 0:
            return None
        n_spend = rng.randint(1, min(max_spend, len(utxo)))
        spent = rng.sample(utxo.items(), n_spend)

        n_create = rng.randint(1, max_create)
        token_slot = -1
        if token is not None:
            total = sum(out.quantity(token) for out in utxo.values())
            held = sum(out.quantity(token) for _, out in spent)
            free = total - held
            if free == 0:
                if held:
                    # token is being spent: usually move it, sometimes burn
                    if rng.random() < 0.8:
                        token_slot = rng.randrange(n_create)
                elif rng.random() < 0.3:
                    token_slot = rng.randrange(n_create)
        outputs = tuple(
            _random_output(rng, token, 1 if j == token_slot else 0)
            for j in range(n_create)
        )
        return Tx(
            inputs=frozenset(spent),
            outputs=outputs,
            validity_interval=WIDE_INTERVAL,
            additional_data=rng.randbytes(4),
        )

    return propose


@dataclass(frozen=True)
class Scenario:
    """A reproducible starting point: genesis txs, initial state, and slot."""

    genesis_txs: Tuple[Tx, ...]
    initial_utxo: UtxoSet
    initial_slot: int


def make_scenario(
    seed: int,
    n_outputs: int = 4,
    token: Optional[bytes] = None,
) -> Scenario:
    """Inputless genesis transactions, the well-founded state they found and
    a slot, all drawn from ``seed``.

    When ``token`` is given, the first output holds one unit of it.
    """
    if n_outputs < 1:
        raise ValueError("n_outputs must be at least 1")
    rng = random.Random(seed)
    txs = []
    entries = {}
    for k in range((n_outputs + 1) // 2):
        outs = []
        for j in range(min(2, n_outputs - 2 * k)):
            outs.append(_random_output(rng, token, 1 if k == j == 0 else 0))
        tx = Tx(
            inputs=frozenset(),
            outputs=tuple(outs),
            validity_interval=WIDE_INTERVAL,
            additional_data=rng.randbytes(4),
        )
        txs.append(tx)
        entries.update(mk_outs(tx).entries)
    return Scenario(tuple(txs), UtxoSet(entries), initial_slot=rng.randint(0, 8))


def graph_universe(seed: int, depth: int) -> Tuple[Scenario, List[Tx], List[Slot]]:
    """The scenario, transactions and slots ``graph dump --seed --depth``
    builds Λ on: the txs of one ``depth``-state run of a 2-output scenario,
    in run order, and the run's slots with the scenario's, sorted."""
    scenario = make_scenario(seed, n_outputs=2)
    [run] = generate_valid_traces(
        [scenario.initial_utxo], [scenario.initial_slot],
        make_proposer(max_spend=2, max_create=2), depth=depth, count=1, seed=seed,
    )
    slots = sorted({scenario.initial_slot} | {q for q, _ in run.annotations})
    return scenario, [tx for _, tx in run.annotations], slots

"""Reference dependency-poset code for differential tests.

This is the plain version that ``ledgerlab.properties`` replaced: an O(n^2)
K-set scan, a recursive level walk with a cycle guard, a fixed-point
transitive closure, and the swap BFS that reads that closure.  Indices are
``range(n)``; a pair (i, j) in ``less_than`` means j is in K_i.
"""
import itertools

from ledgerlab.core import get_orefs, mk_outs


def k_sets(run):
    """K_i for each step: the other indices whose created refs t_i spends."""
    txs = [tx for _, tx in run.annotations]
    n = len(txs)
    created = [mk_outs(tx).keys() for tx in txs]
    spent = [get_orefs(tx) for tx in txs]
    return [
        frozenset(j for j in range(n) if j != i and spent[i] & created[j])
        for i in range(n)
    ]


def relation(k_sets):
    return frozenset((i, j) for i, ks in enumerate(k_sets) for j in ks)


def levels(n, less_than):
    ks = [frozenset(j for a, j in less_than if a == i) for i in range(n)]
    out = [None] * n

    def level_of(i, seen=()):
        if i in seen:
            raise RuntimeError("cyclic dependency relation")
        if out[i] is None:
            if not ks[i]:
                out[i] = 0
            else:
                out[i] = 1 + max(level_of(j, seen + (i,)) for j in ks[i])
        return out[i]

    for i in range(n):
        level_of(i)
    return tuple(out)


def closure(less_than):
    rel = set(less_than)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return frozenset(rel)


def hasse_edges(n, less_than):
    clo = closure(less_than)
    return frozenset(
        (a, b)
        for a, b in clo
        if not any((a, m) in clo and (m, b) in clo for m in range(n))
    )


def comparable(less_than, i, j):
    clo = closure(less_than)
    return (i, j) in clo or (j, i) in clo


def enumerate_valid_permutations(n, less_than, cap):
    """(sorted sequences, capped) of the swap BFS from the canonical order."""
    lv = levels(n, less_than)
    start = tuple(sorted(range(n), key=lambda i: (lv[i], i)))
    clo = closure(less_than)
    seen = {start}
    frontier = [start]
    capped = False
    while frontier:
        seq = frontier.pop()
        for k in range(len(seq) - 1):
            a, b = seq[k], seq[k + 1]
            if (a, b) in clo or (b, a) in clo:
                continue
            nxt = seq[:k] + (b, a) + seq[k + 2 :]
            if nxt not in seen:
                if len(seen) >= cap:
                    capped = True
                    continue
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen)), capped

"""Independent brute-force verifiers for the test suite.

Everything here recomputes results from raw definitions: monotone Boolean
functions are found by filtering all 2**(2**n) truth tables, antichains by
testing every small family of collections for pairwise incomparability,
closures by testing every collection against every member, selectors by
literally walking the quantified formulas, and entropies straight from a
pmf dict.  This module imports nothing from the rest of
the package; inputs are plain ints (bitmasks, packed truth tables) or pmf
dicts, and helpers duck-read the ``bits`` / ``table`` attributes off
richer objects when handed one.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping


def _mask_of(collection) -> int:
    return collection.bits if hasattr(collection, "bits") else int(collection)


def _table_of(distribution) -> int:
    return distribution.table if hasattr(distribution, "table") else int(distribution)


def _members_of(antichain) -> tuple[int, ...]:
    if hasattr(antichain, "collections"):
        return tuple(c.bits for c in antichain.collections)
    return tuple(_mask_of(c) for c in antichain)


def brute_monotone_tables(n: int) -> list[int]:
    """All packed truth tables of valid parthood distributions, ascending.

    Checks every one of the 2**(2**n) Boolean functions on collections, so
    keep n <= 4.
    """
    if n > 4:
        raise ValueError("brute force over all Boolean functions needs n <= 4")
    size = 1 << n
    full = size - 1
    pairs = [
        (a, b)
        for a in range(size)
        for b in range(size)
        if a != b and a & ~b == 0
    ]
    out = []
    for table in range(1 << size):
        if table & 1:
            continue
        if not (table >> full) & 1:
            continue
        if any((table >> a) & 1 and not (table >> b) & 1 for a, b in pairs):
            continue
        out.append(table)
    return out


def brute_antichains(n: int) -> list[tuple[int, ...]]:
    """All antichains of collections as sorted mask tuples, by brute family test.

    Families are drawn by size with itertools.combinations; a family passes
    iff no two members are comparable.  Feasible through n = 4.
    """
    if n > 4:
        raise ValueError("family enumeration needs n <= 4")
    collections = list(range(1 << n))
    max_size = math.comb(n, n // 2)
    found = [()]
    for size in range(1, max_size + 1):
        for family in itertools.combinations(collections, size):
            ok = True
            for a, b in itertools.combinations(family, 2):
                if a & ~b == 0 or b & ~a == 0:
                    ok = False
                    break
            if ok:
                found.append(tuple(sorted(family)))
    return found


def upward_closure(n: int, masks: Iterable[int]) -> int:
    """Truth-table mask of all collections that contain some member."""
    members = tuple(masks)
    return sum(1 << b for b in range(1 << n) if any(b & a == a for a in members))


def downward_closure(n: int, masks: Iterable[int]) -> int:
    """Truth-table mask of all collections contained in some member."""
    members = tuple(masks)
    return sum(1 << b for b in range(1 << n) if any(b & ~a == 0 for a in members))


def oracle_selector(condition_id: str, n: int, antichain, distribution) -> bool:
    """Literal evaluation of one grid condition.

    ``condition_id`` is mode-relation-polarity, e.g.
    ``sufficient-superset-inclusion``.  The unique conditions are accepted
    as ``unique`` and ``unique-partner``.
    """
    members = _members_of(antichain)
    table = _table_of(distribution)
    if condition_id == "unique":
        return oracle_selector(
            "sufficient-superset-inclusion", n, members, table
        ) and oracle_selector("necessary-superset-inclusion", n, members, table)
    if condition_id == "unique-partner":
        return oracle_selector(
            "sufficient-subset-exclusion", n, members, table
        ) and oracle_selector("necessary-subset-exclusion", n, members, table)

    parts = condition_id.split("-")
    if len(parts) != 3:
        raise ValueError(f"unknown condition {condition_id!r}")
    mode, relation, polarity = parts

    def related(b: int) -> bool:
        if relation == "superset":
            return any(b & a == a for a in members)
        if relation == "subset":
            return any(a & b == b for a in members)
        raise ValueError(f"unknown relation {relation!r}")

    def value(b: int) -> int:
        return (table >> b) & 1

    if mode == "sufficient":
        if polarity == "inclusion":
            return all(value(b) == 1 for b in range(1 << n) if related(b))
        if polarity == "exclusion":
            return all(value(b) == 0 for b in range(1 << n) if related(b))
    elif mode == "necessary":
        if polarity == "inclusion":
            return all(value(b) == 0 for b in range(1 << n) if not related(b))
        if polarity == "exclusion":
            return all(value(b) == 1 for b in range(1 << n) if not related(b))
    elif mode == "insufficient":
        return not oracle_selector(f"sufficient-{relation}-{polarity}", n, members, table)
    elif mode == "unnecessary":
        return not oracle_selector(f"necessary-{relation}-{polarity}", n, members, table)
    raise ValueError(f"unknown condition {condition_id!r}")


def oracle_entropy(pmf: Mapping[tuple, float], positions: Iterable[int]) -> float:
    """Entropy in bits of the marginal over the given tuple positions."""
    idx = tuple(positions)
    marginal: dict[tuple, float] = {}
    for state, p in pmf.items():
        key = tuple(state[i] for i in idx)
        marginal[key] = marginal.get(key, 0.0) + p
    h = 0.0
    for p in marginal.values():
        if p > 1e-15:
            h -= p * math.log2(p)
    return h


def oracle_mi(pmf: Mapping[tuple, float], n: int, collection) -> float:
    """I(collection : target) computed straight from the pmf dict.

    Outcomes are (s1, ..., sn, t) tuples; the target sits at position n.
    """
    bits = _mask_of(collection)
    src = [i for i in range(n) if (bits >> i) & 1]
    return (
        oracle_entropy(pmf, src)
        + oracle_entropy(pmf, [n])
        - oracle_entropy(pmf, src + [n])
    )


def oracle_conditional_mi(pmf: Mapping[tuple, float], n: int, collection, given) -> float:
    a = _mask_of(collection)
    g = _mask_of(given)
    both = [i for i in range(n) if ((a | g) >> i) & 1]
    gv = [i for i in range(n) if (g >> i) & 1]
    return (
        oracle_entropy(pmf, both)
        + oracle_entropy(pmf, gv + [n])
        - oracle_entropy(pmf, both + [n])
        - oracle_entropy(pmf, gv)
    )

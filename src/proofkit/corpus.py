"""Deterministic exhaustive enumeration of formulas and sequents.

Order is canonical: ascending weight, then the structural order from
core.Formula.sort_key.  Corpora use atoms plus `false`; `true` is left out
(the acceptance and benchmark populations, and every count quoted for them,
are over this language).
"""

from __future__ import annotations

from functools import lru_cache

from .core import (Formula, FMultiset, Sequent, atom, Bot, conj, disj, imp,
                   box, circle, weight)


def _strata(names: tuple, max_weight: int, modal: str | None):
    """List of lists: formulas of weight exactly w, canonically sorted."""
    strata = [[] for _ in range(max_weight + 1)]
    if max_weight >= 1:
        strata[1] = sorted([Bot] + [atom(n) for n in names], key=Formula.sort_key)
    for w in range(2, max_weight + 1):
        layer = []
        if modal == "box":
            layer.extend(box(f) for f in strata[w - 1])
        elif modal == "circle":
            layer.extend(circle(f) for f in strata[w - 1])
        for wa in range(1, w - 1):
            wb = w - 1 - wa
            for a in strata[wa]:
                for b in strata[wb]:
                    layer.append(disj(a, b))
                    layer.append(imp(a, b))
        for wa in range(1, w - 2):
            wb = w - 2 - wa
            for a in strata[wa]:
                for b in strata[wb]:
                    layer.append(conj(a, b))
        layer.sort(key=Formula.sort_key)
        strata[w] = layer
    return strata


@lru_cache(maxsize=32)
def _strata_cached(names, max_weight, modal):
    return _strata(names, max_weight, modal)


def formulas(names=("p", "q"), max_weight=6, modal=None):
    """All formulas over the given atoms with weight <= max_weight."""
    names = tuple(names)
    for layer in _strata_cached(names, max_weight, modal):
        yield from layer


def multisets(names, max_weight, modal=None):
    """All formula multisets of total weight <= max_weight (including the
    empty one), canonically ordered, without duplicates."""
    strata = _strata_cached(tuple(names), max_weight, modal)
    flat = [f for layer in strata for f in layer]
    weights = [weight(f) for f in flat]
    n = len(flat)

    # flat is (weight, sort_key)-ordered, which is exactly the FMultiset
    # item order, so tuples assembled in flat order need no re-sorting
    def gen(start, budget, prefix):
        yield FMultiset._wrap(prefix)
        for i in range(start, n):
            w = weights[i]
            if w <= budget:
                yield from gen(i, budget - w, prefix + (flat[i],))

    yield from gen(0, max_weight, ())


def sequents(names=("p", "q"), max_weight=6, single=False, modal=None):
    """All sequents with combined weight <= max_weight; with single=True the
    succedent has at most one formula."""
    names = tuple(names)
    for ant in multisets(names, max_weight, modal):
        used = sum(weight(f) for f in ant)
        rest = max_weight - used
        if single:
            yield Sequent(ant, FMultiset())
            for f in formulas(names, rest, modal):
                yield Sequent(ant, FMultiset([f]))
        else:
            for suc in multisets(names, rest, modal):
                yield Sequent(ant, suc)


def _count_multisets_by_weight(names, max_weight, modal=None):
    """counts[w] = number of formula multisets of total weight exactly w."""
    strata = _strata_cached(tuple(names), max_weight, modal)
    counts = [1] + [0] * max_weight
    for w, layer in enumerate(strata):
        for _ in layer:
            # one item type of weight w: standard unbounded-knapsack update
            for total in range(w, max_weight + 1):
                counts[total] += counts[total - w]
    return counts


def count_sequents(names, max_weight, single=False, modal=None):
    ms = _count_multisets_by_weight(names, max_weight, modal)
    strata = _strata_cached(tuple(names), max_weight, modal)
    fcum = [0] * (max_weight + 1)
    run = 0
    for w in range(max_weight + 1):
        run += len(strata[w])
        fcum[w] = run
    total = 0
    for wa in range(max_weight + 1):
        rest = max_weight - wa
        if single:
            total += ms[wa] * (1 + fcum[rest])
        else:
            total += ms[wa] * sum(ms[:rest + 1])
    return total

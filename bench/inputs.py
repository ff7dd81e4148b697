"""Seeded query generation for the workloads (the benchmark's set-up).

Everything here runs in the parent process before any measured process
starts, so the corpus enumeration and the reference verdicts never warm
the caches or the formula intern table of the process being measured.
The measured process receives only query text.

Corpus samples are drawn by rank: ``Population.sequent(k)`` is the k-th
sequent of ``proofkit.corpus.sequents`` in its canonical order, computed
from counts instead of by enumeration, so a sample of a 140k-sequent
corpus costs milliseconds.
"""

from __future__ import annotations

import random

from proofkit import corpus
from proofkit.core import FMultiset, Sequent, weight
from proofkit.calculus import builtin
from proofkit.prover import ProverCache, prove
from proofkit.syntax import parse_sequent, render_sequent

import oracle

ATOMS3 = ("p", "q", "r")
ATOMS4 = ("p", "q", "r", "s")


class Population:
    """The sequents of ``corpus.sequents(names, max_weight, single)``,
    addressable by rank."""

    def __init__(self, names, max_weight, single):
        self.max_weight = max_weight
        self.single = single
        self.flat = list(corpus.formulas(tuple(names), max_weight))
        self.weights = [weight(f) for f in self.flat]
        # formulas of weight <= b form the prefix flat[:end[b]]
        self.end = [sum(1 for w in self.weights if w <= b) for b in range(max_weight + 1)]
        self.ms_tail = self._tail(lambda b: 1)
        if single:
            self.leaf = lambda b: 1 + self.end[b]
        else:
            self.leaf = self._ms_count
        self.seq_tail = self._tail(self.leaf)
        self.size = self.leaf(max_weight) + self.seq_tail[max_weight][0]

    def _ms_count(self, b):
        """Number of formula multisets of total weight <= b."""
        return 1 + self.ms_tail[b][0]

    def _tail(self, leaf):
        """tail[b][i]: number of enumeration leaves below the prefixes that
        extend the current one by flat[j] for some j >= i, under remaining
        budget b.  A prefix with budget b itself carries leaf(b) leaves."""
        tail = []
        for b in range(self.max_weight + 1):
            col = [0] * (len(self.flat) + 1)
            for i in range(self.end[b] - 1, -1, -1):
                rest = b - self.weights[i]
                below = tail[rest][i] if i < self.end[rest] else 0
                col[i] = col[i + 1] + leaf(rest) + below
            tail.append(col)
        return tail

    def _unrank(self, k, budget, tail, leaf):
        """Walk the multiset enumeration tree of ``corpus.multisets`` to the
        k-th leaf: returns (items, offset within the leaf, budget left)."""
        items, start = [], 0
        while True:
            here = leaf(budget)
            if k < here:
                return items, k, budget
            k -= here
            col = tail[budget]
            base = col[start]
            # smallest i >= start with base - col[i + 1] > k
            lo, hi = start, self.end[budget] - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if base - col[mid + 1] > k:
                    hi = mid
                else:
                    lo = mid + 1
            k -= base - col[lo]
            items.append(self.flat[lo])
            budget -= self.weights[lo]
            start = lo

    def sequent(self, k):
        """The k-th sequent, 0 <= k < size."""
        ant, k2, rest = self._unrank(k, self.max_weight, self.seq_tail, self.leaf)
        if self.single:
            suc = [] if k2 == 0 else [self.flat[k2 - 1]]
        else:
            suc, _, _ = self._unrank(k2, rest, self.ms_tail, lambda b: 1)
        return Sequent(FMultiset._wrap(ant), FMultiset._wrap(suc))

    def sample_texts(self, rng, count):
        """Distinct seeded samples as query text, in seeded order."""
        ranks = rng.sample(range(self.size), min(count, self.size))
        return [render_sequent(self.sequent(k)) for k in ranks]


_POPULATIONS = {}


def population(names, max_weight, single):
    key = (tuple(names), max_weight, single)
    if key not in _POPULATIONS:
        _POPULATIONS[key] = Population(names, max_weight, single)
    return _POPULATIONS[key]


def random_formula(rng, w, names):
    """A seeded random formula of weight exactly w (Dyckhoff's weight; no
    formula has weight 2).  Leaves are the atoms and, rarely, ``false``."""
    if w == 1:
        return oracle.BOT if rng.random() < 0.1 else ("atom", rng.choice(names))
    options = []
    for op, extra in (("or", 1), ("imp", 1), ("and", 2)):
        splits = [a for a in range(1, w - extra) if a != 2 and w - extra - a != 2]
        if splits:
            options.append((op, extra, splits))
    op, extra, splits = rng.choice(options)
    a = rng.choice(splits)
    return (op, random_formula(rng, a, names), random_formula(rng, w - extra - a, names))


def stratified(rng, items, key):
    """A seeded order of items in which every prefix holds each stratum
    (items with equal ``key``) in about its share of the whole.  Each
    stratum is shuffled and spread evenly over the stream with seeded
    jitter, so a run that stops anywhere sees the same mix of cheap and
    expensive queries whatever the seed."""
    strata = {}
    for item in items:
        strata.setdefault(key(item), []).append(item)
    placed = []
    for k in sorted(strata):
        group = strata[k]
        rng.shuffle(group)
        placed.extend(((j + rng.random()) / len(group), item) for j, item in enumerate(group))
    placed.sort(key=lambda pair: pair[0])
    return [item for _, item in placed]


def _partitions(text):
    """Number of antecedent partitions (sub-multisets) of a sequent."""
    ant, _ = oracle.parse_sequent(text)
    n = 1
    for f in set(ant):
        n *= ant.count(f) + 1
    return n


def _weight(text):
    ant, suc = oracle.parse_sequent(text)
    return sum(oracle.weight(f) for f in ant + suc)


# ---------------------------------------------------------------------------
# workloads: each function returns the job the measured process runs

# decide leg mix per cycle of 10 queries; chosen so that each leg takes a
# visible share of the time (G3cp corpus sequents are several times cheaper
# than the others, hence the larger count)
DECIDE_CYCLE = (("g3cp_corpus", 4), ("g3cp_random", 2), ("g4ip_nn", 2), ("g3ip_corpus", 2))
DECIDE_CALC = {"g3cp_corpus": "G3cp", "g3cp_random": "G3cp",
               "g4ip_nn": "G4ip", "g3ip_corpus": "G3ip"}


def decide_job(seed, cycles):
    """``cycles`` shuffled cycles of DECIDE_CYCLE, each query paired with
    its expected verdict."""
    rng = random.Random(seed)
    pools = {}
    cpc = population(ATOMS3, 7, single=False)
    ipc = population(ATOMS3, 7, single=True)
    counts = {leg: n * cycles for leg, n in DECIDE_CYCLE}
    pools["g3cp_corpus"] = [(t, oracle.entails(*oracle.parse_sequent(t)))
                            for t in cpc.sample_texts(rng, counts["g3cp_corpus"])]
    # random formula weights cycle through their range, so every run has
    # the same weight mix and only the formulas vary with the seed
    pools["g3cp_random"] = []
    for j in range(counts["g3cp_random"]):
        phi = random_formula(rng, 10 + j % 7, ATOMS4)
        pools["g3cp_random"].append(("=> " + oracle.render(phi), oracle.tautology(phi)))
    pools["g4ip_nn"] = []
    for j in range(counts["g4ip_nn"]):
        phi = random_formula(rng, 8 + j % 7, ATOMS4)
        text = "=> " + oracle.render(oracle.double_negation(phi))
        pools["g4ip_nn"].append((text, oracle.tautology(phi)))
    # G3ip reference verdicts come from G4ip, decided here in the set-up
    # process with its own cache
    g4 = builtin("G4ip")
    ref = ProverCache(g4)
    pools["g3ip_corpus"] = [(t, prove(g4, parse_sequent(t), cache=ref).provable)
                            for t in ipc.sample_texts(rng, counts["g3ip_corpus"])]
    queries = []
    for c in range(cycles):
        cycle = []
        for leg, n in DECIDE_CYCLE:
            cycle.extend((leg, DECIDE_CALC[leg]) + pools[leg][c * n + j] for j in range(n))
        rng.shuffle(cycle)
        queries.extend(cycle)
    return {"calculi": ["G3cp", "G4ip", "G3ip"], "queries": queries}


def interp_job(seed, count):
    """Seeded samples of the provable 2-atom, weight <= 7 single-conclusion
    sequents, stratified by partition count and weight; provability is
    decided in the set-up process."""
    rng = random.Random(seed)
    pop = population(("p", "q"), 7, single=True)
    g4 = builtin("G4ip")
    ref = ProverCache(g4)
    texts = []
    for k in rng.sample(range(pop.size), pop.size):
        s = pop.sequent(k)
        if prove(g4, s, cache=ref).provable:
            texts.append(render_sequent(s))
            if len(texts) == count:
                break
    queries = stratified(rng, texts, lambda t: (_partitions(t), _weight(t)))
    return {"calculi": ["G4ip"], "queries": queries}


# one query in five is CPC, chosen at a seeded offset within each stratum
UNIFORM_CPC_EVERY = 5


def uniform_job(seed, count):
    """The 2-atom, weight <= 5 single-conclusion sequents, stratified by
    atom set, weight and side lengths: whether q occurs decides the size of
    the verify_uniform psi corpus, so it decides the query's cost."""
    rng = random.Random(seed)
    pop = population(("p", "q"), 5, single=True)
    texts = pop.sample_texts(rng, count)
    groups = {}
    for t in texts:
        ant, suc = oracle.parse_sequent(t)
        shape = (tuple(sorted(oracle.atoms_of(ant + suc))), _weight(t), len(ant), len(suc))
        groups.setdefault(shape, []).append(t)
    tagged = []
    for k in sorted(groups):
        offset = rng.randrange(UNIFORM_CPC_EVERY)
        tagged.extend((k, "cpc" if j % UNIFORM_CPC_EVERY == offset else "ipc", t)
                      for j, t in enumerate(groups[k]))
    queries = stratified(rng, tagged, lambda q: (q[0], q[1]))
    return {"calculi": ["G4ip", "G3cp"], "queries": [(logic, t) for _, logic, t in queries],
            "atom": "p", "psi_bound": 6}


WIDE_SIZES = (50, 100, 200)
WIDE_FAMILIES = ("conj", "absent", "chain")


def wide_job(seed, rounds, sizes=WIDE_SIZES):
    """Each round decides every family at every size, in seeded order.  Atom
    names are a seeded permutation; the conj goal is the innermost conjunct,
    so every provable conj query decomposes the whole conjunction."""
    rng = random.Random(seed)
    queries = []
    for _ in range(rounds):
        batch = []
        for n in sizes:
            for fam in WIDE_FAMILIES:
                names = [f"a{i}" for i in rng.sample(range(4 * n), n)]
                goal = names[0] if fam == "conj" else f"b{rng.randrange(n)}"
                text, verdict = oracle.wide_sequent(fam, names, goal)
                batch.append((fam, n, text, verdict))
        rng.shuffle(batch)
        queries.extend(batch)
    return {"calculi": ["G4ip"], "queries": queries}

"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check is exhaustive over its corpus.  Corpus bounds are sized for a
few minutes of total runtime on a laptop: pushing them to, say, three
atoms at combined weight 12 would mean 10^7..10^8 sequents (see
corpus.count_sequents), far outside a desk-scale run, so the defaults
below are the largest exhaustive bounds that keep each suite inside its
budget.  Set PROOFKIT_ACCEPT_FULL=1 to push every bound up one notch
(several extra minutes).
"""

import itertools
import os

from proofkit.core import (FMultiset, Sequent, SplitAnt, Top, Bot, atom,
                           atoms, conj, disj, imp, neg, sub_multisets)
from proofkit.calculus import builtin
from proofkit.classify import (check_terminating, classify_calculus,
                               is_focused_axiom, LEFT, LEFT_CS, RIGHT,
                               MODAL_K, MODAL_D, NOT)
from proofkit.prover import (ProverCache, admissibility_probe, decide,
                             invert, min_depth, prove, prove_with_cut)
from proofkit.interpolation import (InterpolationProblem, axiom_interpolant,
                                    craig_interpolate, verify_certificate)
from proofkit.uniform import (classical_uniform, ipc_uniform, verify_uniform,
                              ipc_exists, exists_via_forall)
from proofkit.hilbert import HilbertProof, check_hilbert, deduction_theorem
from proofkit.nd import (Assume, Inf, check_nd, find_detours, normalize,
                         last_rule_kind, is_proof, tree_size)
from proofkit.syntax import parse_formula as pf, parse_sequent as ps
from proofkit import corpus

FULL = bool(int(os.environ.get("PROOFKIT_ACCEPT_FULL", "0")))

p, q, r = atom("p"), atom("q"), atom("r")


def report(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {verdict}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def truth_table_valid(s, names):
    idx = {n: i for i, n in enumerate(names)}

    def ev(f, val):
        k = f.kind
        if k == "atom":
            return val[idx[f.a]]
        if k == "top":
            return True
        if k == "bot":
            return False
        if k == "and":
            return ev(f.a, val) and ev(f.b, val)
        if k == "or":
            return ev(f.a, val) or ev(f.b, val)
        return (not ev(f.a, val)) or ev(f.b, val)

    return all(any(not ev(f, val) for f in s.ant) or any(ev(f, val) for f in s.suc)
               for val in itertools.product((False, True), repeat=len(names)))


def test_c01_classical_truth_table_oracle(g3cp, caches):
    cache = caches(g3cp)
    plans = [(("p", "q"), 8), (("p", "q", "r"), 7 if FULL else 6)]
    checked = 0
    for names, w in plans:
        for s in corpus.sequents(names, w):
            got = prove(g3cp, s, cache=cache).provable
            assert got == truth_table_valid(s, names), s
            checked += 1
    report("C1 classical-oracle", True, f"{checked} sequents, zero disagreements")


def test_c02_calculus_equivalence(g3ip, g4ip, g1ip, caches):
    c4 = caches(g4ip)
    c3 = caches(g3ip)
    c1 = caches(g1ip)
    w34 = 8 if FULL else 7
    mismatches = []
    inexhaustive = []
    for f in corpus.formulas(("p", "q"), w34):
        s = Sequent(FMultiset(), FMultiset([f]))
        want = prove(g4ip, s, cache=c4).provable
        r1 = prove(g1ip, s, cache=c1)
        if prove(g3ip, s, cache=c3).provable != want or r1.provable != want:
            mismatches.append(f)
        if not r1.provable and not r1.exhaustive:
            inexhaustive.append(f)
    report("C2 calculus-equivalence", not mismatches and not inexhaustive,
           f"G3ip=G4ip=G1ip on weight<={w34}, every G1ip refutation exhaustive"
           + (f"; mismatches: {mismatches[:3]}" if mismatches else "")
           + (f"; inexhaustive: {inexhaustive[:3]}" if inexhaustive else ""))


def test_c03_named_sequents(caches):
    g3cp, g3ip, g4ip = builtin("G3cp"), builtin("G3ip"), builtin("G4ip")
    lem = ps("=> p | ~p")
    peirce = ps("=> ((p -> q) -> p) -> p")
    checks = []
    checks.append(prove(g3cp, lem, cache=caches(g3cp)).provable)
    checks.append(prove(g3cp, peirce, cache=caches(g3cp)).provable)
    for s in (lem, peirce):
        for calc in (g3ip, g4ip):
            res = prove(calc, s, cache=caches(calc))
            checks.append(res.status == "unprovable" and res.exhaustive)
    checks.append(not decide("IPC", pf("(~p -> q | r) -> ((~p -> q) | (~p -> r))")))
    kd = prove(builtin("G4iKD"), ps("=> ~[]false"))
    k = prove(builtin("G4iK"), ps("=> ~[]false"))
    checks.append(kd.provable)
    checks.append(k.status == "unprovable" and k.exhaustive)
    for ax in ("p -> Op", "OOp -> Op", "Op & Oq -> O(p & q)"):
        checks.append(decide("LL", pf(ax)))
    report("C3 named-sequents", all(checks), f"{len(checks)} exact booleans")


def test_c04_depth_preserving_admissibility(g3cp):
    w = 6 if FULL else 5
    cs = list(corpus.sequents(("p", "q"), w))
    extras = [p, q, Bot, disj(p, q), imp(p, q)]
    bad = []
    total = 0
    for rule in ("LW", "RW", "LC", "RC"):
        rep = admissibility_probe(g3cp, rule, cs, extras)
        total += rep.checked
        bad.extend(rep.violations)
    report("C4 depth-preserving", not bad, f"{total} variants, zero violations")


def test_c05_cut_admissibility_probe(g3cp, g3ip):
    taken = 0
    bad = []
    for s in corpus.sequents(("p", "q"), 5):
        if taken >= 200:
            break
        with_cut = prove_with_cut(g3cp, s)
        if not with_cut.provable:
            continue
        taken += 1
        if not prove(g3cp, s).provable:
            bad.append(s)
    taken_i = 0
    for s in corpus.sequents(("p", "q"), 5, single=True):
        if taken_i >= 200:
            break
        with_cut = prove_with_cut(g3ip, s)
        if not with_cut.provable:
            continue
        taken_i += 1
        if not prove(g3ip, s).provable:
            bad.append(s)
    report("C5 cut-admissibility", taken == 200 and taken_i == 200 and not bad,
           f"{taken}+{taken_i} cut-provable sequents all cut-free provable")


def test_c06_inversion_suite(g3cp, g3ip):
    w = 7 if FULL else 6
    bad = []
    checked = 0
    memo = {}
    for s in corpus.sequents(("p", "q"), w):
        n = min_depth(g3cp, s, memo)
        if n is None:
            continue
        for side, ms in (("left", s.ant), ("right", s.suc)):
            for f in set(ms.support()):
                if f.kind not in ("and", "or", "imp"):
                    continue
                for prem in invert(g3cp, s, side, f):
                    checked += 1
                    m = min_depth(g3cp, prem, memo)
                    if m is None or m > n:
                        bad.append((s, side, f, prem))
    memo_i = {}
    cache_i = ProverCache(builtin("G3ip"))
    for s in corpus.sequents(("p", "q"), 5, single=True):
        res = prove(g3ip, s, cache=cache_i)
        if not res.provable:
            continue
        for side, ms in (("left", s.ant), ("right", s.suc)):
            for f in set(ms.support()):
                if f.kind not in ("and", "or", "imp"):
                    continue
                if side == "right" and f.kind == "or":
                    continue   # no right disjunction inversion in G3ip
                for prem in invert(g3ip, s, side, f):
                    checked += 1
                    if not prove(g3ip, prem, cache=cache_i).provable:
                        bad.append((s, side, f, prem))
    report("C6 inversion", not bad, f"{checked} clause instances, zero violations")


def test_c07_interpolation(g4ip, caches):
    cache = caches(g4ip)
    table = [
        (SplitAnt([p], [], [p]), p),
        (SplitAnt([], [p], [p]), Top),
        (SplitAnt([Bot], [], []), Bot),
    ]
    for split, expected in table:
        assert axiom_interpolant(g4ip, split) is expected, split
    w = 8 if FULL else 7
    nseq = nsplit = 0
    bad = []
    for s in corpus.sequents(("p", "q"), w, single=True):
        res = prove(g4ip, s, cache=cache)
        if not res.provable:
            continue
        nseq += 1
        for gamma, pi in sub_multisets(s.ant):
            nsplit += 1
            split = SplitAnt(gamma, pi, s.suc)
            cert = craig_interpolate(
                InterpolationProblem(g4ip, res.derivation, split), cache)
            defects = verify_certificate(g4ip, cert, split)
            if defects:
                bad.append((split, cert.alpha, defects))
    report("C7 interpolation", not bad,
           f"{nsplit} partitions of {nseq} provable sequents, "
           f"axiom table exact, zero failures")


def test_c08_uniform_interpolation(g3cp, g4ip, caches):
    # the classical example table, up to classical equivalence
    def cpc_equiv(a, b):
        return decide("CPC", imp(a, b)) and decide("CPC", imp(b, a))

    u = classical_uniform(ps("p => q"), "p")
    ok_table = cpc_equiv(u.forall_part, q) and cpc_equiv(u.exists_part, neg(q))
    u2 = classical_uniform(ps("q => p"), "p")
    ok_table &= cpc_equiv(u2.forall_part, neg(q)) and cpc_equiv(u2.exists_part, q)
    u3 = classical_uniform(ps("p, p -> q => q"), "p")
    ok_table &= cpc_equiv(u3.forall_part, Top) and cpc_equiv(u3.exists_part, Bot)
    for target in (u, u2, u3):
        rep = verify_uniform(g3cp, target, psi_bound=6, cache=caches(g3cp))
        ok_table &= rep.ok

    w = 6 if FULL else 5
    psi = 7 if FULL else 6
    cache = caches(g4ip)
    bad = []
    count = 0
    for s in corpus.sequents(("p", "q"), w, single=True):
        uu = ipc_uniform(s, "p", cache)
        rep = verify_uniform(g4ip, uu, psi_bound=psi, cache=cache)
        count += 1
        if not rep.ok:
            bad.append((s, rep.violations))

    def ipc_equiv(a, b):
        return decide("IPC", imp(a, b)) and decide("IPC", imp(b, a))

    ok_ev = True
    for f in corpus.formulas(("p", "q"), 5):
        if "p" not in atoms(f):
            continue
        if not ipc_equiv(ipc_exists(f, "p", cache), exists_via_forall(f, "p", cache)):
            ok_ev = False
            bad.append(("exists-via-forall", f))
    report("C8 uniform-interpolation", ok_table and not bad and ok_ev,
           f"classical table exact, {count} IPC sequents verified at "
           f"psi-bound {psi}, exists-via-forall holds")


def test_c09_classifier_and_termination_golden(g3ip, g4ip):
    got3 = {n: k.kind for n, k in classify_calculus(g3ip)}
    got4 = {n: k.kind for n, k in classify_calculus(g4ip)}
    base = {"L&": LEFT, "R&": RIGHT, "L|": LEFT, "R|0": RIGHT, "R|1": RIGHT,
            "R->": RIGHT}
    want3 = dict(base, **{"L->": LEFT_CS})
    want4 = dict(base, **{"Lp->": NOT, "LT->": LEFT, "L&->": LEFT, "L|->": LEFT,
                          "L->->": LEFT_CS})
    ok = got3 == want3 and got4 == want4
    for calc in (g3ip, g4ip):
        for ax in calc.axioms:
            ok &= is_focused_axiom(ax.conclusion, calc.mode)
    for name, kind in (("G4iK", MODAL_K),):
        ok &= any(k.kind == kind for _, k in classify_calculus(builtin(name)))
    ok &= any(k.kind == MODAL_D for _, k in classify_calculus(builtin("G4iKD")))

    ok &= check_terminating(g4ip, "weight").terminating
    ok &= check_terminating(builtin("G4LL"), "weight").terminating
    ok &= check_terminating(builtin("G3cp"), "degree").terminating
    witness_ok = True
    for measure in ("degree", "weight"):
        rep = check_terminating(g3ip, measure)
        witness_ok &= (not rep.well_ordered) and rep.witness is not None \
            and rep.witness[0] == "L->"
    report("C9 classifier-termination", ok and witness_ok,
           "classification table and termination verdicts match, "
           "G3ip witnessed non-terminating in both orders")


# --- criterion 10 helpers ---------------------------------------------------

def hilbert_seed_proofs(limit=50):
    """Deterministic family of checkable HJ proofs with assumptions."""
    pool = [p, q, conj(p, q), disj(p, q), imp(p, q), neg(p)]
    out = []
    for a, b in itertools.product(pool, repeat=2):
        hp = HilbertProof([a, b])
        ia = hp.add(a, "assumption", 0)
        ib = hp.add(b, "assumption", 1)
        iax = hp.add(imp(a, imp(b, conj(a, b))), "axiom", 8)
        im = hp.add(imp(b, conj(a, b)), "mp", ia, iax)
        hp.add(conj(a, b), "mp", ib, im)
        out.append(hp)
    for a in pool:
        hp = HilbertProof([a, imp(a, q)])
        ia = hp.add(a, "assumption", 0)
        ii = hp.add(imp(a, q), "assumption", 1)
        hp.add(q, "mp", ia, ii)
        out.append(hp)
    for a, b in itertools.product(pool, repeat=2):
        hp = HilbertProof([conj(a, b)])
        i0 = hp.add(conj(a, b), "assumption", 0)
        i1 = hp.add(imp(conj(a, b), a), "axiom", 6)
        hp.add(a, "mp", i0, i1)
        out.append(hp)
    return out[:limit]


def nd_corpus():
    """Deterministic closed deductions: identities, detour compositions,
    case analyses, and absurdity eliminations."""
    out = []
    pool = [p, q, conj(p, q), disj(p, q), imp(p, q)]
    for i, a in enumerate(pool):
        out.append(Inf("I->", imp(a, a), (Assume(a, f"x{i}"),), (f"x{i}",)))
        pair = Inf("I&", conj(a, a), (Assume(a, "u"), Assume(a, "u")))
        out.append(Inf("I->", imp(a, a), (Inf("E&0", a, (pair,)),), ("u",)))
    for a, b in [(p, q), (q, p), (conj(p, q), q)]:
        d = disj(a, b)
        major = Assume(d, "m")
        left = Inf("I|0", d, (Assume(a, "l"),))
        right = Inf("I|1", d, (Assume(b, "r"),))
        byc = Inf("E|", d, (major, left, right), ("l", "r"))
        out.append(Inf("I->", imp(d, d), (byc,), ("m",)))
        # commuted disjunction via case analysis
        fl = Inf("I|1", disj(b, a), (Assume(a, "l"),))
        fr = Inf("I|0", disj(b, a), (Assume(b, "r"),))
        swap = Inf("E|", disj(b, a), (Assume(d, "m"), fl, fr), ("l", "r"))
        out.append(Inf("I->", imp(d, disj(b, a)), (swap,), ("m",)))
    for a in (p, conj(p, q)):
        out.append(Inf("I->", imp(Bot, a),
                       (Inf("Eibot", a, (Assume(Bot, "f"),)),), ("f",)))
    # implication detours: (I-> over [a]) applied to a projection
    for a, b in [(p, q), (q, p)]:
        minor = Inf("E&0", a, (Assume(conj(a, b), "w"),))
        intro = Inf("I->", imp(a, disj(a, b)),
                    (Inf("I|0", disj(a, b), (Assume(a, "v"),)),), ("v",))
        app = Inf("E->", disj(a, b), (intro, minor))
        out.append(Inf("I->", imp(conj(a, b), disj(a, b)), (app,), ("w",)))
    # nested double detour
    pair = Inf("I&", conj(p, p), (Assume(p, "n"), Assume(p, "n")))
    inner = Inf("I->", imp(p, p), (Inf("E&1", p, (pair,)),), ("n",))
    outer = Inf("E->", imp(p, p),
                (Inf("I->", imp(imp(p, p), imp(p, p)),
                     (Assume(imp(p, p), "o"),), ("o",)), inner))
    out.append(outer)
    return out


def no_normal_bot_proof(system, pool, max_depth):
    """Bounded complete search for a closed normal deduction of falsum whose
    formulas come from the pool; True when none exists."""
    majors = [f for f in pool]
    memo = {}

    def search(goal, avail, depth, ban):
        if goal in avail:
            return True
        if depth <= 0:
            return False
        key = (goal, avail, ban)
        known = memo.get(key)
        if known is not None:
            status, at = known
            if status:
                return True
            if at >= depth:
                return False
        found = _expand(goal, avail, depth, ban)
        memo[key] = (found, depth)
        return found

    def _expand(goal, avail, depth, ban):
        k = goal.kind
        if k == "and" and "I&" not in ban:
            if search(goal.a, avail, depth - 1, ()) and \
               search(goal.b, avail, depth - 1, ()):
                return True
        if k == "or" and "I|" not in ban:
            if search(goal.a, avail, depth - 1, ()) or \
               search(goal.b, avail, depth - 1, ()):
                return True
        if k == "imp" and "I->" not in ban:
            if search(goal.b, avail | {goal.a}, depth - 1, ()):
                return True
        for m in majors:
            if m.kind == "and" and goal in (m.a, m.b):
                if search(m, avail, depth - 1, ("I&",)):
                    return True
            if m.kind == "imp" and m.b == goal:
                if search(m, avail, depth - 1, ("I->",)) and \
                   search(m.a, avail, depth - 1, ()):
                    return True
            if m.kind == "or":
                if search(m, avail, depth - 1, ("I|",)) and \
                   search(goal, avail | {m.a}, depth - 1, ()) and \
                   search(goal, avail | {m.b}, depth - 1, ()):
                    return True
        if goal is not Bot and search(Bot, avail, depth - 1, ()):
            return True
        if system == "ND" and goal is not Bot:
            if search(Bot, avail | {neg(goal)}, depth - 1, ()):
                return True
        return False

    return not search(Bot, frozenset(), max_depth, ())


def test_c10_classic_systems():
    # the section-4 identity proof
    hp = HilbertProof([])
    a = pf("p")
    hp.add(imp(a, imp(imp(a, a), a)), "axiom", 1)
    hp.add(imp(imp(a, imp(imp(a, a), a)),
               imp(imp(a, imp(a, a)), imp(a, a))), "axiom", 2)
    hp.add(imp(imp(a, imp(a, a)), imp(a, a)), "mp", 0, 1)
    hp.add(imp(a, imp(a, a)), "axiom", 1)
    hp.add(imp(a, a), "mp", 3, 2)
    ok = check_hilbert("HJ", hp) == []

    dts = 0
    for seed in hilbert_seed_proofs(50):
        assert check_hilbert("HJ", seed) == []
        out = deduction_theorem(seed)
        ok &= check_hilbert("HJ", out) == []
        ok &= out.conclusion == imp(seed.assumptions[-1], seed.conclusion)
        dts += 1

    lem = disj(p, neg(p))
    or1 = Inf("I|0", lem, (Assume(p, "b"),))
    bot1 = Inf("E->", Bot, (Assume(neg(lem), "a"), or1))
    notp = Inf("I->", neg(p), (bot1,), ("b",))
    or2 = Inf("I|1", lem, (notp,))
    bot2 = Inf("E->", Bot, (Assume(neg(lem), "a"), or2))
    lem_proof = Inf("Ecbot", lem, (bot2,), ("a",))
    ok &= check_nd("ND", lem_proof) == []
    ok &= any("Ecbot" in msg for _, msg in check_nd("NDi", lem_proof))

    flagged = []
    for d in nd_corpus():
        assert check_nd("ND", d) == []
        current = d
        while True:
            detours = find_detours(current)
            if not detours:
                break
            reduced = None
            for path in reversed(detours):
                candidate = current
                from proofkit.nd import reduce_detour
                candidate = reduce_detour(current, path)
                reduced = candidate
                break
            if tree_size(reduced) >= tree_size(current):
                flagged.append(current)
            current = reduced
        n = current
        ok &= find_detours(n) == []
        ok &= check_nd("ND", n) == []
        if is_proof(n):
            ok &= last_rule_kind(n) == "Introduction"
            if check_nd("NDi", n) == []:
                ok &= decide("IPC", n.formula)
    ok &= not flagged

    pool = list(corpus.formulas(("p", "q"), 3))
    consistent_ndi = no_normal_bot_proof("NDI", pool, 12)
    consistent_nd = no_normal_bot_proof("ND", pool, 8 if not FULL else 10)
    ok &= consistent_ndi and consistent_nd
    report("C10 classic-systems", ok,
           f"HJ identity + {dts} deduction-theorem instances recheck; "
           "ND corpus normalizes, closed normal proofs end in introductions; "
           "no normal proof of falsum at the search bounds")

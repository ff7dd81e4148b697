#!/usr/bin/env python3
"""Sweep Craig interpolation over every antecedent partition of every
provable sequent in a small corpus and report the interpolants found.

Usage: interpolation_sweep.py [max_weight] [atoms]
"""

import sys
from collections import Counter

from proofkit.core import SplitAnt, sub_multisets
from proofkit.calculus import builtin
from proofkit.prover import prove, shared_cache
from proofkit.interpolation import (InterpolationProblem, craig_interpolate,
                                    verify_certificate)
from proofkit.syntax import render_formula
from proofkit import corpus


def main():
    max_weight = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    names = tuple(sys.argv[2]) if len(sys.argv) > 2 else ("p", "q")
    g4 = builtin("G4ip")
    cache = shared_cache(g4)
    seen = Counter()
    splits = failures = 0
    for s in corpus.sequents(names, max_weight, single=True):
        res = prove(g4, s, cache=cache)
        if not res.provable:
            continue
        for gamma, pi in sub_multisets(s.ant):
            split = SplitAnt(gamma, pi, s.suc)
            cert = craig_interpolate(InterpolationProblem(g4, res.derivation, split),
                                     cache)
            splits += 1
            seen[render_formula(cert.alpha)] += 1
            if verify_certificate(g4, cert, split):
                failures += 1
                print(f"FAILED: {split!r}")
    print(f"{splits} partitioned sequents interpolated, {failures} failures")
    print("most common interpolants:")
    for alpha, n in seen.most_common(15):
        print(f"  {n:6}  {alpha}")


if __name__ == "__main__":
    main()

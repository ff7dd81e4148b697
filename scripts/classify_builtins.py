#!/usr/bin/env python3
"""Print the semi-analytic classification and termination report for every
built-in calculus."""

from proofkit.calculus import builtin, builtin_names
from proofkit.classify import classify_calculus, check_terminating, is_focused_axiom


def main():
    for name in builtin_names():
        calc = builtin(name)
        print(f"== {calc.name} (mode {calc.mode}) ==")
        for ax in calc.axioms:
            tag = "focused" if is_focused_axiom(ax.conclusion, calc.mode) else "not focused"
            print(f"  axiom {ax.name:8} {ax.conclusion!r:32} {tag}")
        for rname, kind in classify_calculus(calc):
            print(f"  rule  {rname:8} {kind!r}")
        for measure in ("degree", "weight"):
            rep = check_terminating(calc, measure)
            print(f"  terminating under {measure}: "
                  f"{'yes' if rep.terminating else 'no'}")
        print()


if __name__ == "__main__":
    main()

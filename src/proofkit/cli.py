"""Command-line front end.

Exit codes: 0 = positive answer / success, 1 = negative answer (unprovable,
defective, not terminating), 2 = usage or input error, or no answer (a
search that ran out of budget).  `--format
structured` prints stable `key: value` lines for scripting; text mode is
the same content with a little prose.  All output is plain (NO_COLOR is
moot) and deterministic.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import replace

from .core import FMultiset, Sequent, SplitAnt, atoms
from .calculus import builtin, builtin_names, from_document
from .classify import check_terminating, classify_calculus, is_focused_axiom
from .corpus import formulas as corpus_formulas, sequents as corpus_sequents
from .interpolation import (InterpolationProblem, NotProvable, craig_interpolate,
                            formula_interpolant, verify_certificate)
from .hilbert import check_hilbert
from .nd import check_nd, find_detours, normalize, last_rule_kind
from .proofio import (emit_derivation, emit_nd, load_derivation, load_hilbert,
                      load_nd)
from .prover import (CUT_BUDGET, SearchBudget, check_derivation, decide, prove,
                     prove_with_cut, with_cut)
from .syntax import (ParseError, SourceSpan, parse_calculus, parse_formula,
                     parse_sequent, render_formula)
from .uniform import classical_uniform, ipc_uniform, verify_uniform


def _read_arg(text):
    """Literal text, or @file to read from a file."""
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return fh.read().strip()
    return text


def _load_calculus(name_or_path):
    """A builtin or a .cal file, plus the Cut rule after `+cut`."""
    base, plus, suffix = name_or_path.rpartition("+")
    if plus and suffix.lower() == "cut":
        return with_cut(_load_calculus(base))
    if name_or_path.endswith(".cal"):
        with open(name_or_path, encoding="utf-8") as fh:
            return from_document(parse_calculus(fh.read()))
    return builtin(name_or_path)


def _emit(args, pairs, text_line):
    if args.format == "structured":
        for k, v in pairs:
            print(f"{k}: {v}")
    else:
        print(text_line)


def cmd_decide(args):
    f = parse_formula(_read_arg(args.formula))
    yes = decide(args.logic, f)
    _emit(args, [("logic", args.logic), ("formula", render_formula(f)),
                 ("provable", str(yes).lower())],
          f"{render_formula(f)} is {'provable' if yes else 'unprovable'} in {args.logic}")
    return 0 if yes else 1


def cmd_prove(args):
    calc = _load_calculus(args.calculus)
    s = parse_sequent(_read_arg(args.sequent))
    # a flag overrides only its own field of the entry point's default budget
    given = {k: v for k, v in (("max_depth", args.max_depth), ("max_nodes", args.max_nodes))
             if v is not None}
    if args.with_cut:
        result = prove_with_cut(calc, s, budget=replace(CUT_BUDGET, **given))
    else:
        result = prove(calc, s, budget=SearchBudget(**given))
    pairs = [("calculus", calc.name), ("sequent", str(s)),
             ("status", result.status), ("exhaustive", str(result.exhaustive).lower()),
             ("nodes", result.stats.nodes)]
    if result.provable:
        pairs.append(("depth", result.derivation.depth()))
        if args.emit:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(emit_derivation(result.derivation, (with_cut(calc) if args.with_cut else calc).name))
            pairs.append(("written", args.emit))
    _emit(args, pairs, f"{s} : {result!r}")
    return {"provable": 0, "unprovable": 1}.get(result.status, 2)


def cmd_check(args):
    calc = _load_calculus(args.calculus)
    with open(args.file, encoding="utf-8") as fh:
        d = load_derivation(fh.read())
    defects = check_derivation(calc, d)
    if defects:
        for path, msg in defects:
            print(f"defect at {list(path)}: {msg}", file=sys.stderr)
        _emit(args, [("ok", "false"), ("defects", len(defects))], "derivation is invalid")
        return 1
    _emit(args, [("ok", "true"), ("conclusion", str(d.conclusion))],
          f"derivation of {d.conclusion} checks in {calc.name}")
    return 0


def cmd_interpolate(args):
    if args.partition:
        calc = _load_calculus(args.calculus)
        text = _read_arg(args.partition)
        gamma_text, sep, rest = text.partition(";")
        if not sep:
            raise ParseError("partition needs 'Gamma ; Pi => Delta'",
                             SourceSpan(0, len(text)), text)
        gamma = FMultiset(parse_sequent(gamma_text + " =>").ant)
        pis = parse_sequent(rest)
        split = SplitAnt(gamma, pis.ant, pis.suc)
        r = prove(calc, split.underlying())
        if not r.answer():
            _emit(args, [("provable", "false")], "underlying sequent is unprovable")
            return 1
        cert = craig_interpolate(InterpolationProblem(calc, r.derivation, split))
        bad = verify_certificate(calc, cert, split)
        pairs = [("interpolant", render_formula(cert.alpha)),
                 ("verified", str(not bad).lower())]
        if args.emit:
            for side, d in (("left", cert.left_derivation),
                            ("right", cert.right_derivation)):
                path = f"{args.emit}.{side}.drv"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(emit_derivation(d, calc.name))
                pairs.append((f"written-{side}", path))
        _emit(args, pairs, f"interpolant: {render_formula(cert.alpha)}")
        return 0 if not bad else 1
    if args.formula is None:
        print("error: interpolate needs a formula or --partition", file=sys.stderr)
        return 2
    f = parse_formula(_read_arg(args.formula))
    try:
        alpha = formula_interpolant(args.logic, f)
    except NotProvable:
        _emit(args, [("logic", args.logic), ("provable", "false")],
              f"{render_formula(f)} is not provable in {args.logic}")
        return 1
    except ValueError as e:      # not an implication
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(args, [("logic", args.logic), ("interpolant", render_formula(alpha))],
          f"interpolant: {render_formula(alpha)}")
    return 0


def cmd_uinterp(args):
    text = _read_arg(args.target)
    target = parse_sequent(text) if "=>" in text else parse_formula(text)
    if args.logic == "cpc":
        u = classical_uniform(target, args.atom)
        calc = builtin("G3cp")
    else:
        if not isinstance(target, Sequent):
            target = Sequent(FMultiset(), FMultiset([target]))
        u = ipc_uniform(target, args.atom)
        calc = builtin("G4ip")
    pairs = [("atom", args.atom),
             ("forall", render_formula(u.forall_part)),
             ("exists", render_formula(u.exists_part))]
    ok = True
    if args.verify:
        rep = verify_uniform(calc, u, args.psi_bound)
        ok = rep.ok
        pairs.append(("verified", str(ok).lower()))
        if not ok:
            pairs.append(("violations", "; ".join(rep.violations)))
    _emit(args, pairs,
          f"forall {args.atom}: {render_formula(u.forall_part)}   "
          f"exists {args.atom}: {render_formula(u.exists_part)}")
    return 0 if ok else 1


def cmd_classify(args):
    calc = _load_calculus(args.calculus)
    rows = classify_calculus(calc)
    for ax in calc.axioms:
        focused = is_focused_axiom(ax.conclusion, calc.mode)
        print(f"axiom {ax.name}: {'focused' if focused else 'not focused'}")
    for name, kind in rows:
        print(f"rule {name}: {kind!r}")
    return 0


def cmd_check_terminating(args):
    calc = _load_calculus(args.calculus)
    report = check_terminating(calc, args.measure or None)
    print(report.render())
    return 0 if report.terminating else 1


def cmd_normalize_nd(args):
    with open(args.file, encoding="utf-8") as fh:
        d = load_nd(fh.read())
    defects = check_nd(args.system, d)
    if defects:
        for path, msg in defects:
            print(f"defect at {list(path)}: {msg}", file=sys.stderr)
        return 1
    n = normalize(d)
    out = emit_nd(n, args.system)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    print(f"# detours: {len(find_detours(d))} before, 0 after; "
          f"ends with {last_rule_kind(n)}", file=sys.stderr)
    return 0


def cmd_check_hilbert(args):
    with open(args.file, encoding="utf-8") as fh:
        system, proof = load_hilbert(fh.read())
    system = args.system or system or "HJ"
    defects = check_hilbert(system, proof)
    if defects:
        for i, msg in defects:
            print(f"step {i + 1}: {msg}", file=sys.stderr)
        _emit(args, [("ok", "false"), ("defects", len(defects))], "proof is invalid")
        return 1
    _emit(args, [("ok", "true"), ("system", system),
                 ("conclusion", render_formula(proof.conclusion))],
          f"{system} proof of {render_formula(proof.conclusion)} checks")
    return 0


def cmd_gen_corpus(args):
    names = tuple("pqrstuvw"[: args.atoms])
    if args.kind == "formulas":
        items = [render_formula(f) for f in corpus_formulas(names, args.max_weight)]
    else:
        items = [str(s) for s in corpus_sequents(names, args.max_weight,
                                                 single=args.single)]
    if args.sample:
        rng = random.Random(args.seed)
        items = rng.sample(items, min(args.sample, len(items)))
    for line in items:
        print(line)
    return 0


# --logic of interpolate and uinterp, case-insensitive
_LOGIC = {"type": str.lower, "choices": ("cpc", "ipc"), "default": "ipc"}


def build_parser():
    ap = argparse.ArgumentParser(prog="proofkit",
                                 description="sequent-calculus workbench")
    ap.add_argument("--format", choices=("text", "structured"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide a formula in a logic")
    p.add_argument("--logic", required=True,
                   help="cpc | ipc | ik | ikd | ll")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("prove", help="backward proof search for a sequent")
    p.add_argument("--calculus", required=True,
                   help=f"builtin ({', '.join(builtin_names())}) or a .cal file")
    p.add_argument("sequent")
    p.add_argument("--emit", help="write the derivation to this .drv file")
    p.add_argument("--with-cut", action="store_true")
    p.add_argument("--max-depth", type=int)
    p.add_argument("--max-nodes", type=int)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("check", help="check a .drv derivation file")
    p.add_argument("--calculus", required=True)
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("interpolate", help="Craig interpolation")
    p.add_argument("--logic", **_LOGIC, help="the logic in formula mode")
    p.add_argument("--calculus", default="G4ip")
    p.add_argument("--partition", help="'Gamma ; Pi => Delta' sequent split")
    p.add_argument("--emit", help="write certificate derivations to PREFIX.{left,right}.drv")
    p.add_argument("formula", nargs="?", default=None)
    p.set_defaults(fn=cmd_interpolate)

    p = sub.add_parser("uinterp", help="uniform interpolants")
    p.add_argument("--logic", **_LOGIC)
    p.add_argument("--atom", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--psi-bound", type=int, default=6)
    p.add_argument("target", help="formula or sequent")
    p.set_defaults(fn=cmd_uinterp)

    p = sub.add_parser("classify", help="semi-analytic classification table")
    p.add_argument("--calculus", required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("check-terminating", help="terminating-calculus report")
    p.add_argument("--calculus", required=True)
    p.add_argument("--measure", choices=("degree", "weight"), default=None)
    p.set_defaults(fn=cmd_check_terminating)

    p = sub.add_parser("normalize-nd", help="normalize a .ndp deduction")
    p.add_argument("--system", default="ND", help="nd | ndi")
    p.add_argument("--emit")
    p.add_argument("file")
    p.set_defaults(fn=cmd_normalize_nd)

    p = sub.add_parser("check-hilbert", help="check a .hlp proof")
    p.add_argument("--system", default=None, help="HJ | HK")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check_hilbert)

    p = sub.add_parser("gen-corpus", help="enumerate formulas or sequents")
    p.add_argument("--atoms", type=int, default=2)
    p.add_argument("--max-weight", type=int, default=5)
    p.add_argument("--kind", choices=("formulas", "sequents"), default="formulas")
    p.add_argument("--single", action="store_true")
    p.add_argument("--sample", type=int, default=0, help="random sample size")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_corpus)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()

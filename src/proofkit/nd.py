"""Propositional natural deduction: checking, detour detection, reduction,
and normalization.

Deductions are trees of assumptions and inferences.  Discharge is tracked
by string labels: I-> and Ecbot close one label, E| closes two (one per
case branch); a label is closed at most once in a whole deduction, and
vacuous discharge is allowed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import core
from .core import Formula, conj, disj, imp, neg, Bot


class NotADetour(Exception):
    pass


class CapExceeded(Exception):
    pass


@dataclass(frozen=True)
class Assume:
    formula: Formula
    label: str

    @property
    def children(self):
        return ()

    def __repr__(self):
        return f"[{self.formula!r}]^{self.label}"


@dataclass(frozen=True)
class Inf:
    rule: str
    formula: Formula
    children: tuple
    discharged: tuple = ()

    def __repr__(self):
        return f"({self.rule} :: {self.formula!r})"


INTRO_RULES = ("I&", "I|0", "I|1", "I->")
ELIM_RULES = ("E&0", "E&1", "E|", "E->", "Eibot", "Ecbot")
_DISCHARGE_ARITY = {"I->": 1, "E|": 2, "Ecbot": 1}
# a detour: an elimination whose major premise ends in the matching introduction
_DETOURS = {("E&0", "I&"), ("E&1", "I&"), ("E|", "I|0"), ("E|", "I|1"), ("E->", "I->")}


def tree_size(d) -> int:
    return 1 + sum(tree_size(c) for c in d.children)


def last_rule_kind(d) -> str:
    if isinstance(d, Assume):
        return "Assumption"
    if d.rule in INTRO_RULES:
        return "Introduction"
    return "Elimination"


def open_assumptions(d):
    """List of (formula, label) pairs open in d."""
    if isinstance(d, Assume):
        return [(d.formula, d.label)]
    out = []
    for c in d.children:
        out.extend(open_assumptions(c))
    return [(f, l) for f, l in out if l not in d.discharged]


def is_proof(d) -> bool:
    return not open_assumptions(d)


def _shape_defect(node) -> str | None:
    r, f, ch = node.rule, node.formula, node.children
    k = len(ch)
    if r == "I&":
        if k != 2 or f != conj(ch[0].formula, ch[1].formula):
            return "I& needs children deriving both conjuncts"
    elif r in ("E&0", "E&1"):
        if k != 1 or ch[0].formula.kind != core.AND:
            return f"{r} needs one conjunction premise"
        want = ch[0].formula.a if r == "E&0" else ch[0].formula.b
        if f != want:
            return f"{r} conclusion is not that conjunct"
    elif r in ("I|0", "I|1"):
        if k != 1 or f.kind != core.OR:
            return f"{r} concludes a disjunction from one premise"
        want = f.a if r == "I|0" else f.b
        if ch[0].formula != want:
            return f"{r} premise is not the chosen disjunct"
    elif r == "E|":
        if k != 3 or ch[0].formula.kind != core.OR:
            return "E| needs a disjunction and two case branches"
        if ch[1].formula != f or ch[2].formula != f:
            return "E| branches must both derive the conclusion"
    elif r == "I->":
        if k != 1 or f.kind != core.IMP or ch[0].formula != f.b:
            return "I-> derives an implication from its consequent"
    elif r == "E->":
        if k != 2 or ch[0].formula != imp(ch[1].formula, f):
            return "E-> needs the implication and its antecedent"
    elif r in ("Eibot", "Ecbot"):
        if k != 1 or ch[0].formula is not Bot:
            return f"{r} needs a falsum premise"
    else:
        return f"unknown rule {r!r}"
    if len(node.discharged) != _DISCHARGE_ARITY.get(r, 0):
        return f"{r} discharges {_DISCHARGE_ARITY.get(r, 0)} labels"
    return None


def _discharge_formula(node, which):
    """Formula that assumptions closed by this rule must carry."""
    if node.rule == "I->":
        return node.formula.a
    if node.rule == "Ecbot":
        return neg(node.formula)
    if node.rule == "E|":
        major = node.children[0].formula
        return major.a if which == 0 else major.b


def check_nd(system: str, d):
    """Validate rule shapes and discharge discipline; NDi refuses Ecbot.
    Returns (path, message) defects."""
    system = system.upper()
    if system not in ("ND", "NDI"):
        raise ValueError(f"system must be ND or NDi, not {system!r}")
    defects = []
    seen_discharges = set()

    def walk(node, path):
        """Returns {label: set of formulas} open below node."""
        if isinstance(node, Assume):
            return {node.label: {node.formula}}
        msg = _shape_defect(node)
        if msg:
            defects.append((path, msg))
            return {}
        if node.rule == "Ecbot" and system == "NDI":
            defects.append((path, "Ecbot is not an NDi rule"))
        childmaps = [walk(c, path + (i,)) for i, c in enumerate(node.children)]
        if node.rule == "E|":
            # each label closes assumptions in its own case branch only
            for which, label in enumerate(node.discharged):
                want = _discharge_formula(node, which)
                _close(node, label, want, childmaps[1 + which], defects, path)
                for other in (m for j, m in enumerate(childmaps) if j != 1 + which):
                    if label in other:
                        defects.append((path, f"label {label!r} escapes its case branch"))
                        other.pop(label)
        elif node.discharged:
            want = _discharge_formula(node, 0)
            _close(node, node.discharged[0], want, childmaps[0], defects, path)
        for label in node.discharged:
            if label in seen_discharges:
                defects.append((path, f"label {label!r} discharged twice"))
            seen_discharges.add(label)
        opened = {}
        for m in childmaps:
            for k, v in m.items():
                opened.setdefault(k, set()).update(v)
        return opened

    walk(d, ())
    return defects


def _close(node, label, want, scope, defects, path):
    forms = scope.pop(label, set())
    for f in forms:
        if f != want:
            defects.append((path, f"label {label!r} closes {f!r}, expected {want!r}"))


def _rebuilding_cases(node) -> bool:
    """The disjunction pattern of the phi|psi -> phi|psi example: an E|
    concluding its own major's disjunction, each case branch rebuilding it
    from the case assumption by the matching I|."""
    if node.rule != "E|":
        return False
    major = node.children[0]
    if node.formula != major.formula:
        return False
    for which, (rule, branch) in enumerate(zip(("I|0", "I|1"), node.children[1:])):
        if not (isinstance(branch, Inf) and branch.rule == rule):
            return False
        leaf = branch.children[0]
        want = major.formula.a if which == 0 else major.formula.b
        if not (isinstance(leaf, Assume) and leaf.formula == want
                and leaf.label == node.discharged[which]):
            return False
    return True


def find_detours(d):
    """Paths of elimination nodes whose major premise is the matching
    introduction, plus E| nodes whose case branches merely rebuild the
    major disjunction."""
    out = []

    def walk(node, path):
        if isinstance(node, Assume):
            return
        major = node.children[0] if node.children else None
        if (node.rule, getattr(major, "rule", None)) in _DETOURS or _rebuilding_cases(node):
            out.append(path)
        for i, c in enumerate(node.children):
            walk(c, path + (i,))

    walk(d, ())
    return out


def _labels_of(d):
    out = set()

    def walk(node):
        if isinstance(node, Assume):
            out.add(node.label)
            return
        out.update(node.discharged)
        for c in node.children:
            walk(c)

    walk(d)
    return out


def _relabel(d, mapping):
    if isinstance(d, Assume):
        return Assume(d.formula, mapping.get(d.label, d.label))
    return Inf(d.rule, d.formula, tuple(_relabel(c, mapping) for c in d.children),
               tuple(mapping.get(l, l) for l in d.discharged))


def _fresh_labels(d, used):
    mine = _labels_of(d)
    clash = mine & used
    if not clash:
        return d, used | mine
    mapping = {}
    counter = itertools.count(1)
    for label in sorted(clash):
        while True:
            cand = f"{label}_{next(counter)}"
            if cand not in used and cand not in mine:
                break
        mapping[label] = cand
    fresh = _relabel(d, mapping)
    return fresh, used | _labels_of(fresh)


def _substitute(d, label, replacement, used):
    """Replace every open assumption [phi]^label by the replacement
    deduction, relabelling each inserted copy apart."""
    if isinstance(d, Assume):
        if d.label == label:
            fresh, used = _fresh_labels(replacement, used)
            return fresh, used
        return d, used
    children = []
    for c in d.children:
        c2, used = _substitute(c, label, replacement, used)
        children.append(c2)
    return Inf(d.rule, d.formula, tuple(children), d.discharged), used


def _node_at(d, path):
    for i in path:
        d = d.children[i]
    return d


def _replace_at(d, path, new):
    if not path:
        return new
    i = path[0]
    children = list(d.children)
    children[i] = _replace_at(children[i], path[1:], new)
    return Inf(d.rule, d.formula, tuple(children), d.discharged)


def reduce_detour(d, path):
    """Contract the detour at `path` by the connective's reduction."""
    node = _node_at(d, path)
    if not isinstance(node, Inf) or not node.children:
        raise NotADetour(f"no elimination at {path}")
    major = node.children[0]
    if (node.rule, getattr(major, "rule", None)) not in _DETOURS:
        if not _rebuilding_cases(node):
            raise NotADetour(f"node at {path} is not a detour")
        new = major
    elif node.rule == "E|":
        which = 0 if major.rule == "I|0" else 1
        branch = node.children[1 + which]
        label = node.discharged[which]
        inserted = major.children[0]
        # the first copy keeps its labels; later copies are relabelled apart
        new, _ = _substitute(branch, label, inserted,
                             _labels_of(d) - _labels_of(inserted))
    elif node.rule == "E->":
        label = major.discharged[0]
        body = major.children[0]
        inserted = node.children[1]
        new, _ = _substitute(body, label, inserted,
                             _labels_of(d) - _labels_of(inserted))
    else:
        new = major.children[0 if node.rule == "E&0" else 1]
    return _replace_at(d, path, new)


def normalize(d, cap: int = 2000):
    """Reduce detours until none remain; raises CapExceeded past `cap`
    reductions (the tool does not certify global termination)."""
    for _ in range(cap):
        detours = find_detours(d)
        if not detours:
            return d
        d = reduce_detour(d, detours[-1])
    raise CapExceeded(f"{cap} reductions did not normalize the deduction")

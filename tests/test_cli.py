import io
import sys
from functools import partial

import pytest

from proofkit import prover
from proofkit.cli import run
from proofkit.proofio import load_derivation
from proofkit.calculus import _SOURCES, builtin
from proofkit.prover import check_derivation


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecide:
    def test_peirce_ipc_unprovable(self, capsys):
        code, out, _ = invoke(capsys, "decide", "--logic", "ipc",
                              "((p->q)->p)->p")
        assert code == 1 and "unprovable" in out

    def test_peirce_cpc(self, capsys):
        code, out, _ = invoke(capsys, "decide", "--logic", "cpc",
                              "((p->q)->p)->p")
        assert code == 0 and "unprovable" not in out

    def test_structured(self, capsys):
        code, out, _ = invoke(capsys, "--format", "structured", "decide",
                              "--logic", "ll", "OOp -> Op")
        assert code == 0
        assert "provable: true" in out

    def test_parse_error_is_usage(self, capsys):
        code, _, err = invoke(capsys, "decide", "--logic", "ipc", "p -> (")
        assert code == 2 and "error" in err

    def test_budget_is_no_answer(self, capsys, monkeypatch):
        monkeypatch.setattr(prover, "SearchBudget", partial(prover.SearchBudget, max_nodes=3))
        code, out, err = invoke(capsys, "decide", "--logic", "ipc", "((s -> r) -> s) -> s")
        assert code == 2 and out == "" and "BudgetExceeded" in err


class TestProve:
    def test_emit_and_check(self, capsys, tmp_path):
        target = tmp_path / "proof.drv"
        code, out, _ = invoke(capsys, "prove", "--calculus", "g3cp",
                              "=> p | ~p", "--emit", str(target))
        assert code == 0
        d = load_derivation(target.read_text())
        assert check_derivation(builtin("G3cp"), d) == []
        code2, _, _ = invoke(capsys, "check", "--calculus", "g3cp", str(target))
        assert code2 == 0

    def test_unprovable_exit(self, capsys):
        code, _, _ = invoke(capsys, "prove", "--calculus", "g4ip",
                            "=> p | ~p")
        assert code == 1

    def test_budget_exit(self, capsys):
        # the search ran out of budget: neither a proof nor a refutation
        code, out, _ = invoke(capsys, "--format", "structured", "prove", "--calculus", "g4ip",
                              "--with-cut", "--max-nodes", "100", "=> ~p")
        assert code == 2
        assert out.splitlines() == ["calculus: G4ip", "sequent: => ~p", "status: budget",
                                    "exhaustive: false", "nodes: 101"]

    def test_g1_refutation_is_exhaustive(self, capsys):
        code, out, _ = invoke(capsys, "--format", "structured", "prove",
                              "--calculus", "G1ip", "=> p | ~p")
        assert code == 1
        assert "status: unprovable" in out and "exhaustive: true" in out

    def test_check_rejects_wrong_calculus(self, capsys, tmp_path):
        target = tmp_path / "proof.drv"
        invoke(capsys, "prove", "--calculus", "g1cp", "=> p | ~p",
               "--emit", str(target))
        code, _, err = invoke(capsys, "check", "--calculus", "g3ip", str(target))
        assert code == 1 and "defect" in err


class TestCut:
    """`prove --with-cut --emit` names the calculus searched, NAME+cut, and
    `check` takes that name for a builtin or a .cal file."""

    def test_cut_derivation_checks_in_the_calculus_plus_cut(self, capsys, tmp_path):
        target = tmp_path / "cut.drv"
        code, _, _ = invoke(capsys, "prove", "--calculus", "g3cp", "--with-cut",
                            "=> p -> false | p", "--emit", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[:2] == ["calculus G3cp+Cut", "rule Cut :: => p -> false | p"]
        code, out, _ = invoke(capsys, "check", "--calculus", "g3cp+cut", str(target))
        assert code == 0 and "checks in G3cp+Cut" in out
        code, _, err = invoke(capsys, "check", "--calculus", "g3cp", str(target))
        assert code == 1 and "unknown rule 'Cut'" in err

    def test_cal_file_plus_cut(self, capsys, tmp_path):
        cal, target = tmp_path / "mine.cal", tmp_path / "cut.drv"
        cal.write_text(_SOURCES["g3cp"])
        code, _, _ = invoke(capsys, "prove", "--calculus", str(cal), "--with-cut",
                            "=> p -> false | p", "--emit", str(target))
        assert code == 0 and "rule Cut" in target.read_text()
        assert invoke(capsys, "check", "--calculus", f"{cal}+cut", str(target))[0] == 0
        assert invoke(capsys, "check", "--calculus", str(cal), str(target))[0] == 1

    def test_plain_emit_names_the_calculus(self, capsys, tmp_path):
        target = tmp_path / "proof.drv"
        invoke(capsys, "prove", "--calculus", "g3cp", "=> p | ~p", "--emit", str(target))
        assert target.read_text().startswith("calculus G3cp\n")


class TestInterpolate:
    def test_formula_mode(self, capsys):
        code, out, _ = invoke(capsys, "--format", "structured", "interpolate",
                              "--logic", "ipc", "(p & q) -> (q | r)")
        assert code == 0 and "interpolant: q" in out

    def test_partition_mode(self, capsys):
        code, out, _ = invoke(capsys, "--format", "structured", "interpolate",
                              "--calculus", "g4ip", "--partition",
                              "p & q ; => q | r")
        assert code == 0 and "verified: true" in out

    def test_partition_without_separator_is_usage(self, capsys):
        code, _, err = invoke(capsys, "interpolate", "--partition", "p => p")
        assert code == 2
        assert "partition needs 'Gamma ; Pi => Delta' at 0..6 in 'p => p'" in err

    def test_not_an_implication_is_usage(self, capsys):
        code, out, err = invoke(capsys, "interpolate", "p")
        assert code == 2 and "need an implication, got p" in err and not out

    def test_no_formula_nor_partition_is_usage(self, capsys):
        code, out, err = invoke(capsys, "interpolate")
        assert code == 2 and not out
        assert "interpolate needs a formula or --partition" in err
        assert "AttributeError" not in err

    @pytest.mark.parametrize("logic", ["ipc", "cpc"])
    def test_unprovable_implication_is_a_negative_answer(self, capsys, logic):
        code, out, err = invoke(capsys, "interpolate", "--logic", logic, "p -> q")
        assert code == 1 and "p -> q is not provable in " + logic in out and not err

    def test_unprovable_structured(self, capsys):
        code, out, _ = invoke(capsys, "--format", "structured", "interpolate", "p -> q")
        assert code == 1 and "provable: false" in out

    @pytest.mark.parametrize("logic", ["ik", "xyz"])
    def test_unknown_logic_is_usage(self, capsys, logic):
        code, out, err = invoke(capsys, "interpolate", "--logic", logic, "p -> p")
        assert code == 2 and "invalid choice" in err and not out

    def test_logic_is_case_insensitive(self, capsys):
        code, out, _ = invoke(capsys, "--format", "structured", "interpolate",
                              "--logic", "CPC", "(p & q) -> (q | r)")
        assert code == 0 and "logic: cpc" in out


class TestUinterp:
    def test_sequent_mode(self, capsys):
        code, out, _ = invoke(capsys, "--format", "structured", "uinterp",
                              "--logic", "cpc", "--atom", "p", "--verify",
                              "p => q")
        assert code == 0 and "forall: q" in out and "verified: true" in out

    def test_psi_bound_below_one_is_usage(self, capsys):
        code, out, err = invoke(capsys, "--format", "structured", "uinterp",
                                "--logic", "ipc", "--atom", "p", "--verify",
                                "--psi-bound", "0", "q, q -> p => p")
        assert code == 2 and "psi_bound must be at least 1" in err
        assert "verified" not in out

    def test_ipc_formula(self, capsys):
        code, out, _ = invoke(capsys, "--format", "structured", "uinterp",
                              "--logic", "ipc", "--atom", "p", "p | q")
        assert code == 0 and "forall: q" in out

    @pytest.mark.parametrize("logic", ["ik", "xyz"])
    def test_unknown_logic_is_usage(self, capsys, logic):
        code, out, err = invoke(capsys, "uinterp", "--logic", logic,
                                "--atom", "p", "p -> q")
        assert code == 2 and "invalid choice" in err and not out

    def test_logic_is_case_insensitive(self, capsys):
        code, out, _ = invoke(capsys, "--format", "structured", "uinterp",
                              "--logic", "CPC", "--atom", "p", "p => q")
        assert code == 0 and "forall: q" in out


class TestClassify:
    def test_table_matches_paper(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--calculus", "g4ip")
        assert code == 0
        assert "rule Lp->: NotSemiAnalytic" in out
        assert "rule L->->: LeftSemiAnalyticContextSharing" in out
        assert "rule R&: RightSemiAnalytic" in out
        assert "axiom At: focused" in out


class TestCheckTerminating:
    def test_g4ip_passes(self, capsys):
        code, out, _ = invoke(capsys, "check-terminating", "--calculus", "g4ip")
        assert code == 0 and "terminating: pass" in out

    def test_g3ip_fails(self, capsys):
        code, out, _ = invoke(capsys, "check-terminating", "--calculus", "g3ip",
                              "--measure", "weight")
        assert code == 1 and "witness: rule L->" in out


class TestProofFiles:
    def test_hilbert_roundtrip(self, capsys, tmp_path):
        f = tmp_path / "id.hlp"
        f.write_text(
            "system HJ\n"
            "1. p -> ((p -> p) -> p) [axiom 1]\n"
            "2. (p -> ((p -> p) -> p)) -> ((p -> (p -> p)) -> (p -> p)) [axiom 2]\n"
            "3. (p -> (p -> p)) -> (p -> p) [mp 1 2]\n"
            "4. p -> (p -> p) [axiom 1]\n"
            "5. p -> p [mp 4 3]\n")
        code, out, _ = invoke(capsys, "check-hilbert", str(f))
        assert code == 0 and "checks" in out

    def test_normalize_nd(self, capsys, tmp_path):
        f = tmp_path / "detour.ndp"
        f.write_text(
            "nd I-> [a] :: p -> p\n"
            "  nd E&0 [] :: p\n"
            "    nd I& [] :: p & p\n"
            "      assume p [a]\n"
            "      assume p [a]\n")
        out_file = tmp_path / "normal.ndp"
        code, _, err = invoke(capsys, "normalize-nd", "--system", "nd",
                              str(f), "--emit", str(out_file))
        assert code == 0
        assert "assume p [a]" in out_file.read_text()
        assert "ends with Introduction" in err


class TestGenCorpus:
    GOLDEN_P_W3 = ["false", "p",
                   "false | false", "false | p", "p | false", "p | p",
                   "~false", "false -> p", "~p", "p -> p"]

    def test_golden_formulas(self, capsys):
        code, out, _ = invoke(capsys, "gen-corpus", "--atoms", "1",
                              "--max-weight", "3")
        assert code == 0
        assert out.splitlines() == self.GOLDEN_P_W3

    def test_zero_weight_empty(self, capsys):
        code, out, _ = invoke(capsys, "gen-corpus", "--atoms", "1",
                              "--max-weight", "0")
        assert code == 0 and out.strip() == ""

    def test_sequents_include_empty(self, capsys):
        code, out, _ = invoke(capsys, "gen-corpus", "--atoms", "1",
                              "--max-weight", "2", "--kind", "sequents")
        assert code == 0 and "=>" in out.splitlines()

    def test_sample_deterministic(self, capsys):
        _, out1, _ = invoke(capsys, "gen-corpus", "--atoms", "2",
                            "--max-weight", "4", "--sample", "5", "--seed", "7")
        _, out2, _ = invoke(capsys, "gen-corpus", "--atoms", "2",
                            "--max-weight", "4", "--sample", "5", "--seed", "7")
        assert out1 == out2

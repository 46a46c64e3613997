import argparse
import csv
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import surveykit as sk
from surveykit import calibration, simulate
from surveykit.cli import _write_weights, build_parser, main
from surveykit.frame import _CSV_BLOCK


FRAME_CSV = """id,mos,y,x1
u1,4,1,4
u2,6,3,6
u3,6,5,6
u4,20,15,20
"""

CLUSTER_CSV = """id,cluster,y
a1,c1,1
a2,c1,2
b1,c2,5
b2,c2,6
c1,c3,9
c2,c3,10
"""

STRATA_CSV = """N_h,S_h,c_h
100,50,1
110,10,1
120,5,1
"""

AREA_CSV = "\n".join(
    ["ghat,vg,x1"]
    + [f"{2 + 0.01 * g + (0.3 if g % 3 else -0.2)},0.5,{0.01 * g}"
       for g in range(40)]
) + "\n"


@pytest.fixture
def frame_path(tmp_path):
    p = tmp_path / "frame.csv"
    p.write_text(FRAME_CSV, encoding="utf-8")
    return str(p)


# every design type once, the three phase-2 rules inside two-phase designs,
# and every optional field set (per_cluster, working_pi, bound, rates, ...)
ROUND_TRIP_CASES = {
    "srs": sk.SRS(3, "reservoir"),
    "srswr": sk.SRSWR(4),
    "bernoulli": sk.Bernoulli(0.25),
    "poisson": sk.Poisson((0.5, 0.25, 1.0)),
    "systematic": sk.Systematic(2),
    "systematic_pps": sk.SystematicPPS(2),
    "ppswr": sk.PPSWR(3, "lahiri", 12.5),
    "brewer2": sk.Brewer2(),
    "durbin2": sk.Durbin2(),
    "chao": sk.Chao(2),
    "rejective_poisson": sk.RejectivePoisson(2, (0.2, 0.5, 0.3)),
    "stratified": sk.Stratified({"a": sk.SRS(1), "b": sk.Chao(2)}),
    "one_stage_cluster": sk.OneStageCluster(sk.SystematicPPS(2)),
    "two_stage": sk.TwoStage(sk.SRS(2), sk.SRS(1), per_cluster={"c1": sk.Bernoulli(0.5)}),
    "two_phase": sk.TwoPhase(sk.SRS(3), sk.StratifyOnAux(column="stratum", rate=0.5)),
    "two_phase-stratify-numeric": sk.TwoPhase(sk.SRS(3), sk.StratifyOnAux(
        column=0, rates={"0": 0.5, "1": 0.25}, boundaries=(2.0,))),
    "two_phase-keep_all": sk.TwoPhase(sk.Systematic(3), sk.KeepAll()),
    "two_phase-poisson": sk.TwoPhase(sk.SRS(3), sk.PoissonOnAux(2, column=1)),
}

MALFORMED_DOCUMENTS = {
    "phase2-list": {"two_phase": {"phase1": {"srs": {"n": 2}}, "phase2": []}},
    "phase2-empty": {"two_phase": {"phase1": {"srs": {"n": 2}}, "phase2": {}}},
    "two_stage-no-ssu": {"two_stage": {"psu": {"srs": {"n": 1}}}},
    "poisson-rule-no-r": {"two_phase": {"phase1": {"srs": {"n": 2}},
                                        "phase2": {"poisson": {"column": 0}}}},
    "stratified-list": {"stratified": [1]},
    "srs-bad-method": {"srs": {"n": 2, "method": "bogus"}},
    "rejective-max-tries": {"rejective_poisson": {"n": 2, "max_tries": 10}},
    "srs-misspelled-field": {"srs": {"n": 2, "methd": "reservoir"}},
    "unknown-key": {"warp": {}},
    "not-a-mapping": [],
    "stratify-rule-no-rate": {"two_phase": {"phase1": {"srs": {"n": 3}},
                                            "phase2": {"stratify": {}}}},
    "stratify-rule-rate-above-one": {"two_phase": {
        "phase1": {"srs": {"n": 3}}, "phase2": {"stratify": {"rate": 1.5}}}},
    "stratify-rule-rate-and-rates": {"two_phase": {
        "phase1": {"srs": {"n": 3}},
        "phase2": {"stratify": {"rate": 0.5, "rates": {"a": 0.5}}}}},
    "poisson-rule-r-0": {"two_phase": {"phase1": {"srs": {"n": 3}},
                                       "phase2": {"poisson": {"r": 0}}}},
    "stratified-ppswr-child": {"stratified": {"a": {"srs": {"n": 1}},
                                              "b": {"ppswr": {"n": 2}}}},
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDraw:
    def test_deterministic_output(self, frame_path, capsys):
        code1, out1, _ = run_cli(capsys, "draw", "--frame", frame_path,
                                 "--design", "srs", "--n", "2", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "draw", "--frame", frame_path,
                                 "--design", "srs", "--n", "2", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["schema"] == 1
        assert len(payload["ids"]) == 2

    @pytest.mark.parametrize("design", ROUND_TRIP_CASES.values(), ids=ROUND_TRIP_CASES)
    def test_design_file_round_trip(self, design, tmp_path):
        from surveykit.design import design_from_dict, design_to_dict, load_design

        doc = design_to_dict(design)
        assert design_from_dict(doc) == design
        path = tmp_path / "design.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_design(str(path)) == design

    def test_documents_keep_their_form(self):
        from surveykit.design import design_to_dict

        srs = {"srs": {"n": 2, "method": "selection_rejection"}}
        assert design_to_dict(sk.Stratified({"a": sk.SRS(2)})) == {"stratified": {"a": srs}}
        assert design_to_dict(sk.TwoStage(sk.SRS(2), sk.SRS(2))) == {
            "two_stage": {"psu": srs, "ssu": srs}}
        assert design_to_dict(sk.PPSWR(3)) == {"ppswr": {"n": 3, "method": "cumulative"}}
        assert design_to_dict(sk.TwoPhase(sk.SRS(2), sk.StratifyOnAux(
            rates={"a": 0.5}, boundaries=(1.0, 2.0)))) == {"two_phase": {
                "phase1": srs, "phase2": {"stratify": {
                    "column": "stratum", "rates": {"a": 0.5}, "boundaries": [1.0, 2.0]}}}}

    def test_callable_rule_cannot_be_written(self):
        from surveykit.design import DesignError, design_to_dict

        with pytest.raises(DesignError):
            design_to_dict(sk.TwoPhase(sk.SRS(2), lambda s1, frame, rng: None))

    @pytest.mark.parametrize("doc", MALFORMED_DOCUMENTS.values(), ids=MALFORMED_DOCUMENTS)
    def test_malformed_document_raises_design_error(self, doc, frame_path, tmp_path,
                                                    capsys):
        from surveykit.design import DesignError, design_from_dict

        with pytest.raises(DesignError):
            design_from_dict(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "draw", "--frame", frame_path,
                               "--design-file", str(bad), "--seed", "1")
        assert code == 2 and out == ""

    def test_malformed_design_file_exit_2(self, frame_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"two_stage": {"psu": {"srs": {"n": 1}}}}', encoding="utf-8")
        code, _, err = run_cli(capsys, "draw", "--frame", frame_path,
                               "--design-file", str(bad), "--seed", "1")
        assert code == 2 and "two_stage" in err
        bad.write_text('{"srs": ', encoding="utf-8")
        code, _, _ = run_cli(capsys, "draw", "--frame", frame_path,
                             "--design-file", str(bad), "--seed", "1")
        assert code == 2

    def test_toml_without_tomllib_is_a_design_error(self, tmp_path, monkeypatch):
        from surveykit.design import DesignError, load_design

        path = tmp_path / "design.toml"
        path.write_text("[srs]\nn = 2\n", encoding="utf-8")
        monkeypatch.setitem(sys.modules, "tomllib", None)
        with pytest.raises(DesignError, match="3.11"):
            load_design(str(path))

    def test_invalid_nesting_rejected(self):
        from surveykit.design import DesignError, design_from_dict

        with pytest.raises(DesignError):
            design_from_dict({"two_stage": {
                "psu": {"srs": {"n": 1}},
                "ssu": {"two_phase": {"phase1": {"srs": {"n": 1}},
                                      "phase2": {"keep_all": {}}}},
            }})

    def test_minimal_srs_doc(self):
        from surveykit.design import design_from_dict

        assert design_from_dict({"srs": {"n": 2}}) == sk.SRS(2)

    def test_usage_error_exit_2(self, frame_path, capsys):
        code, _, err = run_cli(capsys, "draw", "--frame", frame_path,
                               "--design", "warp", "--n", "2", "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("command", ["draw", "simulate"])
    @pytest.mark.parametrize("design", ["srs", "systematic", "chao", "bernoulli",
                                        "poisson", "rejective"])
    def test_design_without_its_size_exit_2(self, command, design, frame_path, capsys):
        code, out, err = run_cli(capsys, command, "--frame", frame_path,
                                 "--design", design, "--seed", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_flag_the_design_lacks_exit_2(self, frame_path, capsys):
        code, out, err = run_cli(capsys, "draw", "--frame", frame_path,
                                 "--design", "brewer2", "--n", "2", "--seed", "1")
        assert code == 2 and out == "" and "unknown fields ['n']" in err

    def test_flags_are_design_fields(self, frame_path, capsys):
        from surveykit.cli import _design, build_parser

        frame = sk.read_frame_csv(frame_path)
        cases = {
            ("srs", "--n", "2", "--method", "reservoir"): sk.SRS(2, "reservoir"),
            ("rejective", "--n", "2"): sk.RejectivePoisson(2),
            ("poisson", "--pi", "0.5"): sk.Poisson((0.5,) * 4),
            ("poisson", "--n", "2"): sk.Poisson(tuple(sk.compute_pips(frame.mos, 2))),
            ("brewer2",): sk.Brewer2(),
        }
        for flags, design in cases.items():
            args = build_parser().parse_args(
                ["draw", "--frame", frame_path, "--seed", "1", "--design", *flags])
            assert _design(args, frame) == design

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "draw", "--frame", "/nope.csv",
                               "--design", "srs", "--n", "2", "--seed", "1")
        assert code == 3

    @pytest.mark.parametrize("text, message", [
        ("", "frame CSV is empty"),
        ("id,mos,mos\nu1,1,2\nu2,3,4\n", "frame CSV repeats column 'mos'"),
    ], ids=["empty", "repeated-column"])
    def test_unreadable_header_exit_3(self, text, message, tmp_path, capsys):
        p = tmp_path / "frame.csv"
        p.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "draw", "--frame", str(p),
                                 "--design", "srs", "--n", "1", "--seed", "1")
        assert (code, out, err) == (3, "", f"data error: {message}\n")

    def test_frame_without_the_labels_a_design_reads_exit_3(self, frame_path, tmp_path,
                                                            capsys):
        # one FrameError for every design that reads cluster or stratum
        # labels, not a numerical failure
        doc = tmp_path / "design.json"
        for design, labels in (
                (sk.TwoStage(sk.SRS(1), sk.SRS(1)), "cluster"),
                (sk.OneStageCluster(sk.SRS(1)), "cluster"),
                (sk.TwoPhase(sk.SRS(3), sk.StratifyOnAux(rate=0.5)), "stratum"),
                (sk.Stratified({"a": sk.SRS(1)}), "stratum")):
            doc.write_text(json.dumps(design.to_dict()), encoding="utf-8")
            code, out, err = run_cli(capsys, "draw", "--frame", frame_path,
                                     "--design-file", str(doc), "--seed", "1")
            assert code == 3 and out == ""
            assert err == f"data error: frame carries no {labels} labels\n"

    def test_stratum_without_a_rate_exit_3(self, tmp_path, capsys):
        frame = tmp_path / "frame.csv"
        frame.write_text("id,stratum,y\n" + "".join(
            f"u{i},{'abc'[i // 3]},{i}\n" for i in range(9)), encoding="utf-8")
        doc = tmp_path / "design.json"
        doc.write_text(json.dumps(sk.TwoPhase(sk.SRS(6), sk.StratifyOnAux(
            rates={"a": 0.5, "c": 0.5})).to_dict()), encoding="utf-8")
        code, out, err = run_cli(capsys, "draw", "--frame", str(frame),
                                 "--design-file", str(doc), "--seed", "1")
        assert code == 3 and out == ""
        assert err.startswith("data error: phase-2 stratum 'b' has no rate in the "
                              "stratify rule")

    @pytest.mark.parametrize("x1", [True, False], ids=["one_aux", "no_aux"])
    @pytest.mark.parametrize("rule", [
        {"stratify": {"column": 3, "rate": 0.5, "boundaries": [5]}},
        {"poisson": {"r": 2, "column": 4}},
    ], ids=["stratify", "poisson"])
    def test_phase2_rule_past_the_aux_columns_exit_3(self, tmp_path, capsys, rule, x1):
        frame = tmp_path / "frame.csv"
        frame.write_text("id,y" + ",x1" * x1 + "\n" + "".join(
            f"u{i},{i}" + f",{i + 1}" * x1 + "\n" for i in range(6)), encoding="utf-8")
        doc = tmp_path / "design.json"
        doc.write_text(json.dumps({"two_phase": {"phase1": {"srs": {"n": 4}},
                                                 "phase2": rule}}), encoding="utf-8")
        code, out, err = run_cli(capsys, "draw", "--frame", str(frame),
                                 "--design-file", str(doc), "--seed", "1")
        assert code == 3 and out == ""
        assert err.startswith("data error: phase-2 rule reads aux column")

    def test_numerical_failure_exit_4(self, frame_path, capsys):
        # an empirical-likelihood calibration to 1e6 from x1 summing to 36
        # runs out of iterations
        code, out, err = run_cli(capsys, "calibrate", "--frame", frame_path,
                                 "--entropy", "empirical_likelihood", "--targets", "1000000")
        assert (code, out) == (4, "")
        assert err.startswith("numerical failure: calibration did not reach tol")

    @pytest.mark.parametrize("design, n", [("srs", "9"), ("chao", "9"), ("systematic", "4"),
                                           ("poisson", "5"), ("rejective", "5")])
    def test_size_the_frame_cannot_hold_exit_3(self, frame_path, capsys, design, n):
        # a data error, like a frame without the labels a design reads
        code, out, err = run_cli(capsys, "draw", "--frame", frame_path,
                                 "--design", design, "--n", n, "--seed", "1")
        assert (code, out) == (3, "")
        assert err.startswith("data error: ")


class TestAllocate:
    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.5"])
    def test_power_alpha_outside_0_to_1_exit_2(self, alpha, tmp_path, capsys):
        # a numerical failure (exit 4) in power_allocation before
        p = tmp_path / "strata.csv"
        p.write_text(STRATA_CSV, encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--strata", str(p), "--method", "power",
                                 "--n", "140", "--alpha", alpha)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ")
        assert err.endswith(
            f"error: argument --alpha: '{alpha}' is not a number between 0 and 1\n")

    @pytest.mark.parametrize("n", ["0", "-3", "2.5"])
    def test_sample_size_below_1_exit_2(self, n, tmp_path, capsys):
        # 0 and -3 were numerical failures (exit 4)
        p = tmp_path / "strata.csv"
        p.write_text(STRATA_CSV, encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--strata", str(p), f"--n={n}")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --n: '{n}' is not a whole number of at least 1\n")

    def test_sample_size_below_the_stratum_count_reaches_the_library(self, tmp_path, capsys):
        p = tmp_path / "strata.csv"
        p.write_text(STRATA_CSV, encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--strata", str(p), "--n", "2")
        assert (code, out) == (4, "")
        assert "sample size cannot give every free stratum one unit" in err

    def test_neyman_fixture(self, tmp_path, capsys):
        p = tmp_path / "strata.csv"
        p.write_text(STRATA_CSV, encoding="utf-8")
        code, out, _ = run_cli(capsys, "allocate", "--strata", str(p),
                               "--method", "neyman", "--n", "140")
        assert code == 0
        assert json.loads(out)["n_h"] == [100, 26, 14]

    def test_blank_sd_and_cost_read_as_1(self, tmp_path, capsys):
        outs = []
        for text in (STRATA_CSV, "N_h,S_h,c_h\n100,50,\n110,10,1\n120,5,1\n",
                     "N_h,c_h,S_h\n100,1,50\n110,,10\n120,1,5\n"):
            p = tmp_path / "strata.csv"
            p.write_text(text, encoding="utf-8")
            outs.append(run_cli(capsys, "allocate", "--strata", str(p), "--n", "140"))
        assert outs[0] == outs[1] == outs[2] and outs[0][0] == 0

    @pytest.mark.parametrize("text, message", [
        ("N_h,S_h\n100,5\n20\n30,2\n", "row 3: expected 2 fields, got 1"),
        ("S_h,c_h\n5,1\n", "strata CSV has no 'N_h' column"),
        ("N_h,S_h\n", "strata is empty"),
    ], ids=["short-row", "no-N_h", "header-only"])
    def test_malformed_strata_exit_3(self, text, message, tmp_path, capsys):
        # the short row took its stratum's S_h as 1.0 and exited 0
        p = tmp_path / "strata.csv"
        p.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--strata", str(p), "--n", "20")
        assert (code, out, err) == (3, "", f"data error: {message}\n")

    @pytest.mark.parametrize("size", ["inf", "nan", "0", "2.5"])
    def test_stratum_size_that_is_not_a_whole_number_exit_3(self, size, tmp_path, capsys):
        # inf ended in an OverflowError traceback, nan and 0 in a numerical
        # failure, and 2.5 was read as 2; the table reader refuses inf and nan
        p = tmp_path / "strata.csv"
        p.write_text(f"N_h,S_h\n100,5\n{size},2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--strata", str(p), "--n", "20")
        assert (code, out) == (3, "")
        assert err == (f"data error: row 3: N_h holds {size!r}, not a finite number\n"
                       if size in ("inf", "nan") else
                       f"data error: strata CSV: data row 2 has N_h {size}; a stratum's "
                       "N_h must be a whole number of units, at least 1\n")

    @pytest.mark.parametrize("column, value, rule", [
        ("S_h", "-5", "S_h must be a finite number, at least 0"),
        ("c_h", "0", "c_h must be a finite number above 0"),
        ("c_h", "-2", "c_h must be a finite number above 0"),
        ("S_h", "nan", None), ("S_h", "inf", None), ("c_h", "nan", None), ("c_h", "-inf", None),
    ])
    def test_bad_sd_or_cost_exit_3(self, column, value, rule, tmp_path, capsys):
        # a negative S_h and a c_h of 0 were numerical failures, and a nan
        # S_h got past the v < 0 test to fail the output check
        p = tmp_path / "strata.csv"
        row = {"S_h": "10", "c_h": "1", column: value}
        p.write_text(f"N_h,S_h,c_h\n100,50,1\n110,{row['S_h']},{row['c_h']}\n",
                     encoding="utf-8")
        code, out, err = run_cli(capsys, "allocate", "--strata", str(p), "--n", "20")
        assert (code, out) == (3, "")
        assert err == (f"data error: row 3: {column} holds {value!r}, not a finite number\n"
                       if rule is None else
                       f"data error: strata CSV: data row 2 has {column} {value}; "
                       f"a stratum's {rule}\n")


class TestEstimate:
    @pytest.mark.parametrize("N", ["0", "-5"])
    def test_population_size_not_above_0_exit_2(self, N, frame_path, capsys):
        # --N 0 fell back to the weight sum and --N -5 gave a negative mean,
        # both at exit 0
        code, out, err = run_cli(capsys, "estimate", "--frame", frame_path,
                                 "--estimator", "mean", f"--N={N}")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --N: '{N}' is not a finite number above 0\n")

    def test_mean_over_a_given_population_size(self, frame_path, capsys):
        # HT total 352 over --N, or over the weight sum 36 without it
        for argv, N in ((["--N", "14"], 14), ([], 36)):
            code, out, _ = run_cli(capsys, "estimate", "--frame", frame_path,
                                   "--estimator", "mean", *argv)
            assert code == 0 and json.loads(out)["value"] == pytest.approx(352 / N, rel=1e-12)

    def test_ht_pipeline(self, frame_path, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--frame", frame_path,
                               "--estimator", "ht")
        assert code == 0
        payload = json.loads(out)
        # weights come from the mos column: sum w*y
        assert payload["value"] == pytest.approx(4 * 1 + 6 * 3 + 6 * 5 + 20 * 15)

    def test_greg_with_totals(self, frame_path, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--frame", frame_path,
                               "--estimator", "greg", "--totals", "36")
        assert code == 0
        assert json.loads(out)["method"] == "greg"

    def test_household_proportion_pipeline(self, tmp_path, capsys):
        # self-weighting two-stage household fixture: the ratio of the
        # under-six count to the household size lands on 0.2135
        t = [8, 7, 7, 6, 8, 12, 10, 11, 4, 5, 5, 6]
        y = [2, 2, 1, 1, 0, 1, 3, 1, 2, 3, 2, 1]
        rows = ["id,mos,y,x1"] + [
            f"h{i},1.0,{y[i]},{t[i]}" for i in range(12)
        ]
        p = tmp_path / "households.csv"
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "estimate", "--frame", str(p),
                               "--estimator", "ratio")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.2135, abs=5e-4)

    @pytest.mark.parametrize("flags", [
        ("--estimator", "ratio", "--x", "0"),
        ("--estimator", "ratio", "--x", "2"),
        ("--estimator", "ratio", "--x", "-1"),
        ("--estimator", "greg", "--totals", "36", "--x", "1,5"),
        ("--estimator", "greg", "--totals", "36", "--c-model", "x0"),
        ("--estimator", "greg", "--totals", "36", "--c-model", "x2"),
    ], ids=" ".join)
    def test_x_column_outside_x1_to_xk_exit_2(self, flags, frame_path, capsys):
        # --x 0 and --c-model x0 read the last column, exit 0; --x 2 was an IndexError
        code, out, err = run_cli(capsys, "estimate", "--frame", frame_path, *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: x column ") and "the frame's 1 x columns" in err

    @pytest.mark.parametrize("flags", [
        ("--estimator", "ratio"),
        ("--estimator", "ratio", "--total", "10"),
        ("--estimator", "greg", "--totals", "36"),
        ("--estimator", "greg", "--totals", "36", "--c-model", "x"),
    ], ids=" ".join)
    def test_estimator_on_a_frame_without_x_columns_exit_3(self, flags, tmp_path, capsys):
        # a TypeError traceback at exit 1
        p = tmp_path / "frame.csv"
        p.write_text("id,mos,y\nu1,4,1\nu2,6,3\nu3,6,5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "estimate", "--frame", str(p), *flags)
        assert (code, out, err) == (3, "", "data error: this estimator needs x1..xk columns\n")

    def test_x_numbers_pick_the_columns_x1_to_xk(self, tmp_path, capsys):
        p = tmp_path / "frame.csv"
        p.write_text("id,mos,y,x2,x1\nu1,4,1,8,4\nu2,6,3,1,6\nu3,6,5,2,7\n",
                     encoding="utf-8")
        values = [json.loads(run_cli(capsys, "estimate", "--frame", str(p),
                                     "--estimator", "ratio", *x)[1])["value"]
                  for x in ((), ("--x", "1"), ("--x", "2"), ("--x", "2,1"))]
        # the weights are the mos column: sum w*y = 52, sum w*x1 = 94, sum w*x2 = 50
        assert values == pytest.approx([52 / 94, 52 / 94, 52 / 50, 52 / 50])

    @pytest.mark.parametrize("j", ["1", "3", "-1"])
    def test_study_column_the_frame_lacks_exit_3(self, j, frame_path, capsys):
        # --y 3 estimated y, exit 0
        code, out, err = run_cli(capsys, "estimate", "--frame", frame_path,
                                 "--estimator", "ht", "--y", j)
        assert (code, out) == (3, "")
        assert err == f"data error: frame has 1 study column(s), so no column {j}\n"


class TestVariance:
    def test_simplified(self, frame_path, capsys):
        code, out, _ = run_cli(capsys, "variance", "--frame", frame_path,
                               "--method", "simplified")
        assert code == 0
        assert json.loads(out)["value"] > 0

    @pytest.mark.parametrize("groups", ["0", "1", "5", "-2"])
    def test_random_group_count_outside_2_to_n_exit_2(self, groups, tmp_path, capsys):
        # 5 groups of 3 units printed a bare NaN at exit 0; 0 groups warned
        # from numpy before its exit 4
        p = tmp_path / "three.csv"
        p.write_text("id,mos,y\na,1,1\nb,2,2\nc,3,3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "variance", "--frame", str(p),
                                 "--method", "random_group", "--replicates", groups)
        assert (code, out) == (2, "")
        assert err == "error: --replicates must be between 2 and the 3 units\n"
        code, out, err = run_cli(capsys, "variance", "--frame", str(p),
                                 "--method", "random_group", "--replicates", "3")
        assert (code, err) == (0, "") and math.isfinite(json.loads(out)["value"])


WEIGHED_COMMANDS = [
    ("variance", "--method", "simplified"), ("variance", "--method", "jackknife"),
    ("estimate", "--estimator", "ht"), ("estimate", "--estimator", "hajek"),
]


class TestZeroWeight:
    # the mos column is the unit weight, pi = 1/w: a weight of 0 has no pi
    ZERO_CSV = "id,mos,y\na,2,1\nb,0,10\nc,4,20\n"

    @pytest.mark.parametrize("command", WEIGHED_COMMANDS, ids=" ".join)
    def test_zero_weight_is_a_data_error(self, command, tmp_path, capsys):
        p = tmp_path / "zero.csv"
        p.write_text(self.ZERO_CSV, encoding="utf-8")
        code, out, err = run_cli(capsys, command[0], "--frame", str(p), *command[1:])
        assert code == 3 and out == ""
        assert err == "data error: unit 'b' has weight 0 in the mos column; " \
                      "a sample unit's weight must be at least 1\n"

    @pytest.mark.parametrize("command", WEIGHED_COMMANDS, ids=" ".join)
    def test_weight_below_1_is_a_data_error(self, command, tmp_path, capsys):
        # pi = 1/w was clipped at 1: weights 0.5, 0.5, 2 gave an HT total
        # of 90.0 where the weighted total is 75
        p = tmp_path / "half.csv"
        p.write_text("id,mos,y\na,2,30\nb,0.5,10\nc,0.5,20\n", encoding="utf-8")
        code, out, err = run_cli(capsys, command[0], "--frame", str(p), *command[1:])
        assert (code, out) == (3, "")
        assert err == "data error: unit 'b' has weight 0.5 in the mos column; " \
                      "a sample unit's weight must be at least 1\n"


@pytest.mark.parametrize("out_format", ["json", "csv"])
@pytest.mark.parametrize("command, field, bad", [
    (("estimate", "--estimator", "ht"), "value", "inf"),
    (("variance", "--method", "jackknife"), "value", "nan"),  # the replicates hold inf
], ids=["estimate-ht", "variance-jackknife"])
def test_a_non_finite_output_is_a_numerical_failure(command, field, bad, out_format, tmp_path,
                                                    capsys):
    # a nan y cell printed "value": NaN, which is not JSON, at exit 0; the
    # table reader now refuses such a cell, so a total that overflows stands in
    p = tmp_path / "big.csv"
    p.write_text("id,mos,y\na,2,1\nb,3,1e308\nc,4,20\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warning
        code, out, err = run_cli(capsys, "--out", out_format, command[0], "--frame", str(p),
                                 *command[1:])
    assert (code, out) == (4, "")
    assert err == f"numerical failure: {field} holds {bad}, not a finite number\n"


class TestCalibrate:
    def test_kl_calibration_prints_only_its_report(self, frame_path, capsys):
        # its line search tries steps whose weights overflow
        code, out, err = run_cli(capsys, "calibrate", "--frame", frame_path,
                                 "--entropy", "kullback_leibler", "--targets", "1000000")
        assert code == 0 and out.startswith("id,weight")
        assert len(err.splitlines()) == 1 and json.loads(err)["iterations"] > 0

    def test_weight_csv_and_diagnostics(self, frame_path, capsys):
        code, out, err = run_cli(capsys, "calibrate", "--frame", frame_path,
                                 "--entropy", "kullback_leibler",
                                 "--targets", "40")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,weight"
        weights = np.array([float(l.split(",")[1]) for l in lines[1:]])
        x1 = np.array([4.0, 6.0, 6.0, 20.0])
        assert weights @ x1 == pytest.approx(40.0, abs=1e-6)
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["residual"] < 1e-9


def quoted_frame_csv(N):
    """A calibration frame of N units whose ids need CSV quoting."""
    odd = ["a,b", '"q"', "  lead", "tab\tin", "semi;colon"]
    rows = ["id,mos,x1"]
    for i in range(N):
        uid = f"{odd[i % len(odd)]}{i}" if i < len(odd) or i % 7 == 0 else f"u{i}"
        quoted = '"' + uid.replace('"', '""') + '"' if any(c in uid for c in ',"') else uid
        rows.append(f"{quoted},{1 + i % 3},{1 + i % 5}")
    return "\n".join(rows) + "\n"


def per_row_csv(ids, weights):
    """The weight CSV as one writerow per unit writes it, but for an id
    that holds a CR, which is quoted as an id that holds a LF is."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["id", "weight"])
    for uid, w in zip(ids, weights):
        if "\r" in uid:
            text.write('"' + uid.replace('"', '""') + '",' + repr(float(w)) + "\n")
        else:
            writer.writerow([uid, repr(float(w))])
    return text.getvalue()


class CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestCalibrateOutput:
    @pytest.fixture
    def solved(self, monkeypatch):
        """The results of calibration.solve_entropy, as the CLI gets them."""
        results, solve = [], calibration.solve_entropy
        monkeypatch.setattr(calibration, "solve_entropy",
                            lambda problem: results.append(solve(problem)) or results[-1])
        return results

    @pytest.mark.parametrize("N", [4, _CSV_BLOCK - 1, 2 * _CSV_BLOCK + 5])
    def test_weight_csv_is_byte_identical_to_the_per_row_writer(self, N, tmp_path,
                                                               capsys, solved):
        p = tmp_path / "quoted.csv"
        p.write_text(quoted_frame_csv(N), encoding="utf-8")
        frame = sk.read_frame_csv(str(p))
        target = 1.01 * float(frame.mos @ frame.aux[:, 0])
        code, out, _ = run_cli(capsys, "calibrate", "--frame", str(p),
                               "--entropy", "kullback_leibler", "--targets", repr(target))
        assert code == 0
        assert out == per_row_csv(frame.ids, solved[0].weights)
        assert '\n"a,b0",' in out and '\n"""q""1",' in out and "\n  lead2," in out

    @pytest.mark.parametrize("odd", [",", '"', "\r", "\n", " ", "\t", ""])
    def test_each_id_character_is_written_as_the_per_row_writer_does(self, odd,
                                                                     monkeypatch):
        ids = ("u0", f"a{odd}b", "u2", odd)
        weights = [1.5, float("nan"), -0.0, 1e-300]
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        _write_weights(ids, weights)
        assert stdout.getvalue() == per_row_csv(ids, weights)

    @pytest.mark.parametrize("N", [1, _CSV_BLOCK, 2 * _CSV_BLOCK + 5])
    def test_weight_csv_takes_a_write_per_block(self, N, tmp_path, monkeypatch):
        p = tmp_path / "frame.csv"
        p.write_text(quoted_frame_csv(N), encoding="utf-8")
        frame = sk.read_frame_csv(str(p))
        target = float(frame.mos @ frame.aux[:, 0])
        stdout, stderr = CountingStream(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["calibrate", "--frame", str(p), "--targets", repr(target)]) == 0
        assert stdout.getvalue().count("\n") == N + 1
        assert stdout.writes <= math.ceil(N / _CSV_BLOCK) + 2

    @pytest.mark.parametrize("uid", ["a\rb", "\r", "a\r", "\rb\n", 'q"\r'])
    def test_id_with_a_carriage_return_reads_back(self, uid, tmp_path, capsys):
        # csv quotes a field holding a character of the line terminator
        # (LF here), so a CR must be quoted on purpose
        quoted = '"' + uid.replace('"', '""') + '"'
        p = tmp_path / "cr.csv"
        p.write_text(f"id,mos,x1,y\n{quoted},1,1,2\nc,2,2,3\n", encoding="utf-8",
                     newline="")
        code, out, _ = run_cli(capsys, "calibrate", "--frame", str(p), "--targets", "3")
        assert code == 0
        assert list(csv.reader(io.StringIO(out, newline=""))) == [
            ["id", "weight"], [uid, "0.6"], ["c", "1.2"]]
        code, out, _ = run_cli(capsys, "--out", "csv", "draw", "--frame", str(p),
                               "--design", "srs", "--n", "2", "--seed", "1")
        assert code == 0
        header, values = csv.reader(io.StringIO(out, newline=""))
        assert values[header.index("ids")] == f"{uid};c"

    def test_csv_payload_is_one_write(self, frame_path, monkeypatch):
        stdout = CountingStream()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["--out", "csv", "variance", "--frame", frame_path,
                     "--method", "simplified"]) == 0
        header, values = stdout.getvalue().splitlines()
        assert header.split(",")[0] == "method" and stdout.writes == 1


class TestDiagnose:
    def test_cluster_anova(self, tmp_path, capsys):
        p = tmp_path / "clusters.csv"
        p.write_text(CLUSTER_CSV, encoding="utf-8")
        code, out, _ = run_cli(capsys, "diagnose", "--frame", str(p))
        assert code == 0
        payload = json.loads(out)
        assert payload["sst"] == pytest.approx(payload["ssb"] + payload["ssw"])


class TestSmallArea:
    def test_area_pipeline(self, tmp_path, capsys):
        p = tmp_path / "areas.csv"
        p.write_text(AREA_CSV, encoding="utf-8")
        code, out, _ = run_cli(capsys, "smallarea", "--frame", str(p))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["eblup"]) == 40
        assert all(m >= 0 for m in payload["prasad_rao_mse"])

    @pytest.mark.parametrize("text", ["", "ghat,vg,x1\n"], ids=["no-header", "header-only"])
    def test_empty_area_csv_exit_3(self, text, tmp_path, capsys):
        p = tmp_path / "areas.csv"
        p.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "smallarea", "--frame", str(p))
        assert code == 3 and out == "" and err.startswith("data error:")

    def test_covariates_are_x1_to_xk_in_numeric_order(self, tmp_path, capsys):
        # they were sorted as strings (x1, x10, x2), and took any column
        # whose name starts with x
        from surveykit import smallarea

        gen = np.random.default_rng(8)
        X = np.round(gen.uniform(0, 1, (30, 3)), 3)
        ghat = np.round(1 + X @ [0.5, -1.0, 2.0] + gen.normal(0, 0.4, 30), 3)
        rows = ["x10,ghat,xid,x2,vg,x1"] + [
            f"{x[2]},{g},7,{x[1]},0.2,{x[0]}" for x, g in zip(X.tolist(), ghat.tolist())]
        p = tmp_path / "areas.csv"
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "smallarea", "--frame", str(p))
        assert code == 0
        model = smallarea.fit_fay_herriot(ghat, np.full(30, 0.2), X)
        assert json.loads(out)["beta"] == pytest.approx(model.beta.tolist(), rel=1e-12)


# `simulate` stdout on GOLDEN_CSV at 500 replicates, recorded before
# monte_carlo drew leaf designs in batches; the batch must print the same
GOLDEN_CSV = "id,mos,y\n" + "".join(
    f"u{i},{m},{y}\n" for i, (m, y) in enumerate(zip(
        [3, 1, 2, 4, 1, 1, 2, 5, 3, 2, 1, 4],
        [2.5, 1.0, 4.25, 7.0, 0.5, 3.0, 6.5, 9.75, 2.0, 5.5, 1.25, 8.0])))

SIMULATE_GOLDEN = {
    "srs-5":
        '{"mean": 51.802, "schema": 1, "se_of_mean": 0.8199550258940901, "truth": 51.25,'
        ' "var": 336.163122244489, "z_score": 0.6732076547711764}',
    "srs-17":
        '{"mean": 51.904, "schema": 1, "se_of_mean": 0.8192214692201751, "truth": 51.25,'
        ' "var": 335.56190781563123, "z_score": 0.7983189217716089}',
    "srs-2024":
        '{"mean": 50.25, "schema": 1, "se_of_mean": 0.8329721996385843, "truth": 51.25,'
        ' "var": 346.92134268537075, "z_score": -1.2005202579796623}',
    "poisson-5":
        '{"mean": 50.4281, "schema": 1, "se_of_mean": 1.1738692880429975,'
        ' "truth": 51.250000000000014, "var": 688.984552705287, "z_score": -0.7001631343215688}',
    "poisson-17":
        '{"mean": 54.50662777777777, "schema": 1, "se_of_mean": 1.2322343230164263,'
        ' "truth": 51.250000000000014, "var": 759.2007134098752, "z_score": 2.642864037260181}',
    "poisson-2024":
        '{"mean": 50.945588888888885, "schema": 1, "se_of_mean": 1.2077452305315242,'
        ' "truth": 51.250000000000014, "var": 729.3242709358221,'
        ' "z_score": -0.2520491105372935}',
    "systematic_pps-5":
        '{"mean": 51.67236111111111, "schema": 1, "se_of_mean": 0.6640506812630101,'
        ' "truth": 51.25, "var": 220.48165364293394, "z_score": 0.6360374637486803}',
    "systematic_pps-17":
        '{"mean": 50.34577222222222, "schema": 1, "se_of_mean": 0.645409477224699,'
        ' "truth": 51.25, "var": 208.27669664572966, "z_score": -1.4010140998641867}',
    "systematic_pps-2024":
        '{"mean": 51.90951666666666, "schema": 1, "se_of_mean": 0.6351301833825691,'
        ' "truth": 51.25, "var": 201.69517492178792, "z_score": 1.0383960389887552}',
    "brewer2-5":
        '{"mean": 53.043416666666666, "schema": 1, "se_of_mean": 0.6974479775414381,'
        ' "truth": 51.25000000000001, "var": 243.21684068832116, "z_score": 2.5713984761825546}',
    "brewer2-17":
        '{"mean": 51.172916666666666, "schema": 1, "se_of_mean": 0.6698156510264165,'
        ' "truth": 51.25000000000001, "var": 224.32650317997107,'
        ' "z_score": -0.11508141563312223}',
    "brewer2-2024":
        '{"mean": 51.98370833333333, "schema": 1, "se_of_mean": 0.6772766532480882,'
        ' "truth": 51.25000000000001, "var": 229.3518325174655, "z_score": 1.0833214607569916}',
    "srswr-5":
        '{"mean": 52.946, "schema": 1, "se_of_mean": 0.88369224958917,'
        ' "var": 390.45599599198397}',
    "srswr-17":
        '{"mean": 51.506, "schema": 1, "se_of_mean": 0.8976142549566616,'
        ' "var": 402.8556753507014}',
    "srswr-2024":
        '{"mean": 50.574, "schema": 1, "se_of_mean": 0.9198376218121337,'
        ' "var": 423.05062525050096}',
}


class TestSimulateCmd:
    @pytest.mark.parametrize("case", SIMULATE_GOLDEN)
    def test_output_is_unchanged(self, case, tmp_path, capsys):
        design, seed = case.rsplit("-", 1)
        p = tmp_path / "golden.csv"
        p.write_text(GOLDEN_CSV, encoding="utf-8")
        size = [] if design == "brewer2" else ["--n", "3"]
        code, out, _ = run_cli(capsys, "simulate", "--frame", str(p), "--design", design,
                               *size, "--seed", seed, "--replicates", "500")
        assert code == 0
        assert out == SIMULATE_GOLDEN[case] + "\n"

    def test_simulate_reports_z_score(self, frame_path, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--frame", frame_path,
                               "--design", "srs", "--n", "2", "--seed", "3",
                               "--replicates", "400")
        assert code == 0
        payload = json.loads(out)
        assert payload["truth"] == pytest.approx(24.0)
        assert abs(payload["z_score"]) < 4


    @pytest.mark.parametrize("flags", [("--design", "srs", "--n", "4"),
                                       ("--design", "bernoulli", "--pi", "1")],
                             ids=["srs-census", "bernoulli-1"])
    def test_zero_variance_design_reports_no_z_score(self, flags, frame_path, capsys):
        # every replicate takes the whole frame, so se_of_mean is 0
        code, out, err = run_cli(capsys, "simulate", "--frame", frame_path, *flags,
                                 "--seed", "1", "--replicates", "50")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["se_of_mean"] == 0
        assert payload["mean"] == payload["truth"] == 24.0
        assert "z_score" not in payload

    @pytest.mark.parametrize("command", ["draw", "simulate"])
    @pytest.mark.parametrize("design", ["brewer2", "durbin2"])
    def test_n2_design_on_sizes_summing_to_zero_exit_4(self, command, design, tmp_path,
                                                        capsys):
        p = tmp_path / "zero.csv"
        p.write_text("id,mos,y\n" + "".join(f"u{i},0,{i}\n" for i in range(4)),
                     encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--frame", str(p), "--design", design,
                                 "--seed", "1")
        assert (code, out) == (4, "")
        assert err == "numerical failure: measure of size sums to zero\n"

    def test_a_failing_exact_expectation_is_a_numerical_failure(self, frame_path, capsys,
                                                                 monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("enumeration broke")

        monkeypatch.setattr(simulate, "exact_expectation", broken)
        code, out, err = run_cli(capsys, "simulate", "--frame", frame_path,
                                 "--design", "srs", "--n", "2", "--seed", "3",
                                 "--replicates", "50")
        assert (code, out) == (4, "")
        assert err == "numerical failure: enumeration broke\n"

    @pytest.mark.parametrize("design", ["chao", "srswr"])
    def test_non_enumerable_design_reports_no_truth(self, design, tmp_path, capsys):
        p = tmp_path / "six.csv"
        p.write_text("id,mos,y\n" + "".join(f"u{i},{m},{i}\n" for i, m in
                                            enumerate([3, 1, 2, 4, 1, 1])), encoding="utf-8")
        code, out, _ = run_cli(capsys, "simulate", "--frame", str(p), "--design", design,
                               "--n", "2", "--seed", "3", "--replicates", "50")
        assert code == 0
        payload = json.loads(out)
        assert "truth" not in payload and "z_score" not in payload
        assert payload["mean"] > 0

    def test_support_over_the_cap_reports_no_truth(self, tmp_path, capsys):
        # C(60, 30) sets, far over the enumeration cap
        p = tmp_path / "sixty.csv"
        p.write_text("id,y\n" + "".join(f"u{i},{i}\n" for i in range(60)), encoding="utf-8")
        code, out, _ = run_cli(capsys, "simulate", "--frame", str(p), "--design", "srs",
                               "--n", "30", "--seed", "3", "--replicates", "50")
        assert code == 0
        payload = json.loads(out)
        assert "truth" not in payload and "z_score" not in payload


class TestNonresponseCmd:
    def test_pipeline(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rows = ["delta,y,x1,w"]
        for i in range(200):
            x = rng.uniform(-1, 1)
            p = 1 / (1 + np.exp(-(0.4 + x)))
            d = int(rng.uniform() < p)
            y = 2 + x + rng.normal(0, 0.3)
            rows.append(f"{d},{y if d else ''},{x},1.0")
        p = tmp_path / "resp.csv"
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "nonresponse", "--frame", str(p))
        assert code == 0
        payload = json.loads(out)
        assert payload["variance"] > 0

    RESPONDENTS = "delta,y,x1\n1,2.5,0.1\n0,,0.3\n1,3.0,-0.2\n1,2.0,0.5\n0,,-0.7\n"

    @pytest.mark.parametrize("text, message", [
        ("delta,x1\n1,0.1\n0,0.3\n1,-0.2\n", "respondent CSV has no 'y' column"),
        (RESPONDENTS.replace("1,3.0,", "1,,"),
         "respondent CSV: data row 3 has a respondent (delta 1) with a blank or non-finite y"),
        (RESPONDENTS.replace("1,3.0,", "1,nan,"),
         "respondent CSV: data row 3 has a respondent (delta 1) with a blank or non-finite y"),
        (RESPONDENTS.replace("0,,0.3", "0,inf,0.3"), "row 3: y holds 'inf', not a finite number"),
        (RESPONDENTS + "2,1.5,0.4\n",
         "respondent CSV: data row 6 has a delta other than 0 or 1"),
    ], ids=["no-y-column", "respondent-without-y", "respondent-nan-y", "nonrespondent-inf-y",
            "delta-2"])
    def test_bad_response_data_exit_3(self, text, message, tmp_path, capsys):
        # each read y as 0.0, or delta 2 as a response, and exited 0
        p = tmp_path / "resp.csv"
        p.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "nonresponse", "--frame", str(p))
        assert (code, out, err) == (3, "", f"data error: {message}\n")

    def test_no_covariates_exit_3(self, tmp_path, capsys):
        # the propensity model has no intercept: without x columns every
        # propensity was 1/2, and this printed an estimate of 12.0 at exit 0
        p = tmp_path / "resp.csv"
        p.write_text("delta,y\n1,2\n0,\n1,3\n0,\n1,1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "nonresponse", "--frame", str(p))
        assert (code, out, err) == (3, "", "data error: nonresponse needs x1..xk columns\n")

    def test_blank_cells_take_their_defaults(self, tmp_path, capsys):
        # a blank w is 1.0, and a nonrespondent's y is not read
        outs = []
        for text in (self.RESPONDENTS.replace("\n", ",1\n").replace("x1,1", "x1,w"),
                     self.RESPONDENTS.replace("\n", ",\n").replace("x1,", "x1,w"),
                     self.RESPONDENTS.replace("0,,", "0,99,"),
                     self.RESPONDENTS.replace("0,,", "0,nan,")):
            p = tmp_path / "resp.csv"
            p.write_text(text, encoding="utf-8")
            outs.append(run_cli(capsys, "nonresponse", "--frame", str(p)))
        assert outs[0] == outs[1] == outs[2] == outs[3] and outs[0][0] == 0

    def test_covariates_are_x1_to_xk_in_numeric_order(self, tmp_path, capsys):
        from surveykit import nonresponse

        gen = np.random.default_rng(4)
        X = np.round(gen.uniform(-1, 1, (300, 3)), 3)
        delta = (gen.uniform(size=300) < 1 / (1 + np.exp(-X @ [0.5, 1.0, -1.5]))).astype(int)
        y = np.round(2 + X.sum(axis=1) + gen.normal(0, 0.3, 300), 3)
        rows = ["x10,delta,x2,y,xid,x1"] + [
            f"{x[2]},{d},{x[1]},{v if d else ''},7,{x[0]}"
            for x, d, v in zip(X.tolist(), delta.tolist(), y.tolist())]
        p = tmp_path / "resp.csv"
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "nonresponse", "--frame", str(p))
        assert code == 0
        phi = nonresponse.fit_propensity(nonresponse.ResponseData(delta, X, y * delta))
        assert json.loads(out)["phi"] == pytest.approx(phi.tolist(), rel=1e-12)


def table_commands():
    """Each subcommand that reads a table, with the option naming the table
    and a value for each of its other required options."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    commands = {}
    for name, parser in sub.choices.items():
        options = {a.option_strings[0] for a in parser._actions if a.option_strings}
        table = options & {"--frame", "--strata"}
        if table:
            others = [a.option_strings[0] for a in parser._actions
                      if a.required and a.option_strings[0] not in table]
            commands[name] = (table.pop(), [v for o in others for v in (o, "1")])
    return commands


TABLE_COMMANDS = table_commands()
# every column some table command requires, and a row each reads
TABLE_HEADER = "id,mos,y,x1,N_h,delta,ghat,vg"
TABLE_ROW = "u{i},1.5,2,0.3,10,1,1.5,0.5"
TABLE_FAULTS = {
    "short-row": ("u9,1.5,2,0.3,10,1,1.5", "row 3: expected 8 fields, got 7"),
    "extra-field": ("u9,1.5,2,0.3,10,1,1.5,0.5,4", "row 3: expected 8 fields, got 9"),
    "repeated-header": (None, "repeats column 'x1'"),
    "non-numeric-cell": ("u9,oops,oops,oops,oops,oops,oops,oops",
                         "row 3: could not convert string to float: 'oops'"),
}


def test_table_commands_are_found():
    assert {"draw", "allocate", "estimate", "calibrate", "nonresponse",
            "smallarea", "simulate"} <= set(TABLE_COMMANDS)
    assert "--totals" not in {option for option, _ in TABLE_COMMANDS.values()}


@pytest.mark.parametrize("fault", TABLE_FAULTS)
@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_every_table_goes_through_the_frame_reader(command, fault, tmp_path, capsys):
    # allocate, nonresponse and smallarea had a csv.DictReader of their own,
    # which cut an extra field, filled a short row with None and kept the
    # last of two columns of one name
    row, message = TABLE_FAULTS[fault]
    header = TABLE_HEADER + ",x1" if row is None else TABLE_HEADER
    good = [TABLE_ROW.format(i=i) + (",0.3" if row is None else "") for i in range(4)]
    p = tmp_path / "table.csv"
    p.write_text("\n".join([header, good[0], row or good[1], *good[2:]]) + "\n",
                 encoding="utf-8")
    option, others = TABLE_COMMANDS[command]
    code, out, err = run_cli(capsys, command, option, str(p), *others)
    assert (code, out) == (3, "")
    assert err.startswith("data error: ") and message in err


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_a_non_finite_cell_is_a_data_error(command, tmp_path, capsys):
    # the reader took nan, inf and -inf for numbers: an HT total of a nan y
    # failed the output check (exit 4), and a nan S_h passed the S_h < 0 test.
    # A column the command reads refuses 'oops'; one it does not read leaves
    # the run as it was
    option, others = TABLE_COMMANDS[command]
    header = TABLE_HEADER.split(",")
    good = [TABLE_ROW.format(i=i) for i in range(4)]
    p = tmp_path / "table.csv"
    read = []
    for j, column in enumerate(header[1:], start=1):
        runs = {}
        for cell in ("oops", "nan", "inf", "-inf"):
            row = TABLE_ROW.format(i=9).split(",")
            row[j] = cell
            p.write_text("\n".join([TABLE_HEADER, good[0], ",".join(row), *good[2:]]) + "\n",
                         encoding="utf-8")
            runs[cell] = run_cli(capsys, command, option, str(p), *others)
        if "could not convert string to float: 'oops'" not in runs.pop("oops")[2]:
            continue
        read.append(column)
        for cell, (code, out, err) in runs.items():
            assert (code, out) == (3, ""), (column, cell)
            assert err.startswith("data error: ") and "Traceback" not in err
    assert read


def strict_json(text):
    """json.loads that refuses NaN and the infinities, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def numeric_options():
    """{command: [(option, kind)]}: each option of build_parser() whose
    type reads a number, kind float (a list of floats too) or int.  The
    probe is the option's default where that is a number, else '1'."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {}
    for name, parser in sub.choices.items():
        for a in parser._actions:
            numeric = isinstance(a.default, (int, float)) and not isinstance(a.default, bool)
            try:
                value = a.type(str(a.default) if numeric else "1") if callable(a.type) else None
            except (ValueError, argparse.ArgumentTypeError):
                continue
            kind = type(value[0] if isinstance(value, list) else value)
            if kind in (int, float):
                found.setdefault(name, []).append((a.option_strings[0], kind))
    return found


NUMERIC_OPTIONS = numeric_options()
FLOAT_OPTIONS = [(c, o) for c, options in NUMERIC_OPTIONS.items()
                 for o, kind in options if kind is float]
# a well-formed run of each command with a numeric option, {frame} and
# {strata} the paths of FRAME_CSV and STRATA_CSV
NUMERIC_RUNS = {
    "draw": ["--frame", "{frame}", "--design", "srs", "--n", "2", "--seed", "3"],
    "allocate": ["--strata", "{strata}", "--n", "140", "--method", "power"],
    "estimate": ["--frame", "{frame}", "--estimator", "ratio", "--total", "36"],
    "variance": ["--frame", "{frame}", "--method", "random_group", "--replicates", "2"],
    "calibrate": ["--frame", "{frame}", "--targets", "40"],
    "simulate": ["--frame", "{frame}", "--design", "srs", "--n", "2", "--seed", "3",
                 "--replicates", "50"],
}


def numeric_run(command, tmp_path):
    paths = {"frame": tmp_path / "frame.csv", "strata": tmp_path / "strata.csv"}
    paths["frame"].write_text(FRAME_CSV, encoding="utf-8")
    paths["strata"].write_text(STRATA_CSV, encoding="utf-8")
    return [command] + [v.format(**paths) for v in NUMERIC_RUNS[command]]


def test_numeric_options_are_found():
    assert set(NUMERIC_OPTIONS) == set(NUMERIC_RUNS)
    assert set(FLOAT_OPTIONS) == {("draw", "--pi"), ("simulate", "--pi"),
                                  ("allocate", "--alpha"), ("estimate", "--total"),
                                  ("estimate", "--totals"), ("estimate", "--N"),
                                  ("calibrate", "--targets")}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, option", FLOAT_OPTIONS, ids="".join)
def test_a_non_finite_option_is_a_usage_error(command, option, bad, tmp_path, capsys):
    # calibrate --targets nan printed every weight as nan at exit 0, and
    # estimate --N nan reached the output check (exit 4)
    code, out, err = run_cli(capsys, *numeric_run(command, tmp_path), f"{option}={bad}")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: '{bad}' is not a finite number\n")


@pytest.mark.parametrize("command, option, bad", [
    ("draw", "--seed", "-1"), ("simulate", "--seed", "-1"), ("draw", "--seed", "x"),
    ("simulate", "--replicates", "1"), ("simulate", "--replicates", "0"),
])
def test_a_count_out_of_range_is_a_usage_error(command, option, bad, tmp_path, capsys):
    # simulate --seed -1 and --replicates 1 failed inside the run (exit 4)
    code, out, err = run_cli(capsys, *numeric_run(command, tmp_path), f"{option}={bad}")
    assert (code, out) == (2, "")
    low = {"--seed": 0, "--replicates": 2}[option]
    assert err.endswith(f"argument {option}: '{bad}' is not a whole number of at least {low}\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1", "0"])
@pytest.mark.parametrize("command, option",
                         [(c, o) for c, options in NUMERIC_OPTIONS.items() for o, _ in options],
                         ids="".join)
def test_a_bad_number_in_any_option_is_refused_cleanly(command, option, bad, tmp_path, capsys):
    # every numeric option, set to each value in a well-formed run: an exit
    # code of the CLI's, no traceback, and nothing on stdout that is not JSON
    argv = numeric_run(command, tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, f"{option}={bad}")
    assert code in (0, 2, 3, 4) and "Traceback" not in err
    if command == "calibrate":  # the weights as CSV, then the JSON report on stderr
        out = err if code == 0 else out
    if out:
        strict_json(out)


def test_a_non_finite_totals_file_is_a_data_error(frame_path, tmp_path, capsys):
    p = tmp_path / "totals.csv"
    p.write_text("nan\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "estimate", "--frame", frame_path, "--estimator", "greg",
                             "--totals", str(p))
    assert (code, out) == (3, "")
    assert err == f"data error: --totals file {p} holds a value that is not a finite number\n"


def test_calibrate_refuses_a_non_finite_result(frame_path, capsys, monkeypatch):
    # the report went to stderr through json.dumps, which writes NaN
    real = calibration.solve_chi_square

    def broken(problem):
        result = real(problem)
        result.weights[1] = np.nan
        return result

    monkeypatch.setattr(calibration, "solve_chi_square", broken)
    code, out, err = run_cli(capsys, "calibrate", "--frame", frame_path, "--targets", "40")
    assert (code, out) == (4, "")
    assert err == "numerical failure: weights holds nan, not a finite number\n"


def test_entry_point_subprocess(tmp_path):
    p = tmp_path / "frame.csv"
    p.write_text(FRAME_CSV, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "surveykit.cli", "draw", "--frame", str(p),
         "--design", "srs", "--n", "2", "--seed", "11"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["schema"] == 1



@pytest.mark.parametrize("command", [None, "draw", "allocate", "estimate", "variance",
                                     "calibrate", "diagnose", "nonresponse", "smallarea",
                                     "simulate"])
def test_every_help_exits_0(command, capsys):
    argv = ["--help"] if command is None else [command, "--help"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("usage: surveykit") and err == ""


def test_calibrate_loads_no_design_code(tmp_path):
    p = tmp_path / "frame.csv"
    p.write_text(FRAME_CSV, encoding="utf-8")
    script = ("import sys\n"
              "from surveykit.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, *sorted(m for m in sys.modules if m.startswith('surveykit')))\n")
    result = subprocess.run(
        [sys.executable, "-c", script, "calibrate", "--frame", str(p),
         "--entropy", "kullback_leibler", "--targets", "40"],
        capture_output=True, text=True)
    code, *modules = result.stdout.splitlines()[-1].split()
    assert code == "0"
    assert modules == ["surveykit", "surveykit._backend", "surveykit.calibration",
                       "surveykit.cli", "surveykit.frame"]


def test_draw_loads_no_estimator_code(tmp_path):
    p = tmp_path / "frame.csv"
    p.write_text(FRAME_CSV, encoding="utf-8")
    script = ("import sys\n"
              "from surveykit.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, *sorted(m for m in sys.modules if m.startswith('surveykit')))\n")
    result = subprocess.run(
        [sys.executable, "-c", script, "draw", "--frame", str(p),
         "--design", "srs", "--n", "2", "--seed", "11"],
        capture_output=True, text=True)
    code, *modules = result.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "surveykit.design" in modules and "surveykit.estimators" not in modules


def test_allocate_loads_only_the_frame_reader_and_allocation(tmp_path):
    p = tmp_path / "strata.csv"
    p.write_text(STRATA_CSV, encoding="utf-8")
    script = ("import sys\n"
              "from surveykit.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, *sorted(m for m in sys.modules if m.startswith('surveykit')))\n")
    result = subprocess.run(
        [sys.executable, "-c", script, "allocate", "--strata", str(p), "--n", "140"],
        capture_output=True, text=True)
    code, *modules = result.stdout.splitlines()[-1].split()
    assert code == "0"
    assert modules == ["surveykit", "surveykit._backend", "surveykit.allocation",
                       "surveykit.cli", "surveykit.frame"]

import json
import subprocess
import sys

import numpy as np
import pytest

import surveykit as sk
from surveykit.cli import main


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
# and every optional field set (per_cluster, max_tries, bound, rates, ...)
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
    "rejective_poisson": sk.RejectivePoisson(2, (0.2, 0.5, 0.3), max_tries=10),
    "stratified": sk.Stratified({"a": sk.SRS(1), "b": sk.Chao(2)}),
    "one_stage_cluster": sk.OneStageCluster(sk.SystematicPPS(2)),
    "two_stage": sk.TwoStage(sk.SRS(2), sk.SRS(1), per_cluster={"c1": sk.Bernoulli(0.5)}),
    "two_phase": sk.TwoPhase(sk.SRS(3), sk.StratifyOnAux(column="stratum", rate=0.5)),
    "two_phase-stratify-numeric": sk.TwoPhase(sk.SRS(3), sk.StratifyOnAux(
        column=0, rates={"0": 0.5, "1": 0.25}, boundaries=(2.0,))),
    "two_phase-keep_all": sk.TwoPhase(sk.PPSWR(3), sk.KeepAll()),
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

    def test_numerical_failure_exit_4(self, frame_path, capsys):
        code, _, err = run_cli(capsys, "draw", "--frame", frame_path,
                               "--design", "srs", "--n", "9", "--seed", "1")
        assert code == 4


class TestAllocate:
    def test_neyman_fixture(self, tmp_path, capsys):
        p = tmp_path / "strata.csv"
        p.write_text(STRATA_CSV, encoding="utf-8")
        code, out, _ = run_cli(capsys, "allocate", "--strata", str(p),
                               "--method", "neyman", "--n", "140")
        assert code == 0
        assert json.loads(out)["n_h"] == [100, 26, 14]


class TestEstimate:
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


class TestVariance:
    def test_simplified(self, frame_path, capsys):
        code, out, _ = run_cli(capsys, "variance", "--frame", frame_path,
                               "--method", "simplified")
        assert code == 0
        assert json.loads(out)["value"] > 0


class TestCalibrate:
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


class TestSimulateCmd:
    def test_simulate_reports_z_score(self, frame_path, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--frame", frame_path,
                               "--design", "srs", "--n", "2", "--seed", "3",
                               "--replicates", "400")
        assert code == 0
        payload = json.loads(out)
        assert payload["truth"] == pytest.approx(24.0)
        assert abs(payload["z_score"]) < 4


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


def test_entry_point_subprocess(tmp_path):
    p = tmp_path / "frame.csv"
    p.write_text(FRAME_CSV, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "surveykit.cli", "draw", "--frame", str(p),
         "--design", "srs", "--n", "2", "--seed", "11"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["schema"] == 1

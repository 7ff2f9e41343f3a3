import json

import pytest

from rirkit.cli import main

FHN_G_JSON = json.dumps({"num": [1.5679e-5, -2.5685e-5],
                         "den": [1.0, -2.000985, 1.000994]})


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_printed_plant(capsys):
    code, out = run_cli(capsys, ["analyze", "--input", FHN_G_JSON])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "rirkit/1"
    assert report["verdict"]["status"] == "exact_sufficient"
    assert abs(report["verdict"]["lower_bound"] - 0.2868) / 0.2868 < 0.05


def test_analyze_stable_plant_exit_3(capsys):
    code, out = run_cli(capsys, ["analyze", "--input",
                                 '{"num": [1], "den": [1, -0.5]}'])
    assert code == 3
    err = json.loads(out)
    assert err["error"]["type"] == "NotInGClassError"
    assert "not in G" in err["error"]["message"]


def test_analyze_improper_input_exit_2(capsys):
    code, out = run_cli(capsys, ["analyze", "--input",
                                 '{"num": [1, 0, 0], "den": [1, -0.5]}'])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ImproperTransferError"


def test_analyze_malformed_json_exit_2(capsys):
    code, _ = run_cli(capsys, ["analyze", "--input", '{"num": [1]'])
    assert code == 2


def test_analyze_reads_input_file(tmp_path, capsys):
    path = tmp_path / "plant.json"
    path.write_text(FHN_G_JSON)
    code, out = run_cli(capsys, ["analyze", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "exact_sufficient"


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_analyze_non_finite_coefficient_exit_2(capsys, bad):
    code, out = run_cli(capsys, ["analyze", "--input",
                                 f'{{"num": [{bad}], "den": [1, -2]}}'])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError" and "finite" in err["message"]


def test_analyze_missing_input_file_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    code, out = run_cli(capsys, ["analyze", "--input", missing])
    assert code == 2
    assert "absent.json" in json.loads(out)["error"]["message"]


def test_analyze_pole_on_circle_exit_2(capsys):
    code, out = run_cli(capsys, ["analyze", "--input",
                                 '{"num": [1], "den": [1, -1]}'])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PoleOnCircleError"


def test_fhn_find_reports_eo_and_fig1(tmp_path, capsys):
    code, out = run_cli(capsys, ["fhn-find", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["e_o"] - (-0.1192)) < 3e-3
    assert abs(rep["allpass"]["a"] - (-0.9969)) < 1e-3
    fig1 = (tmp_path / "fig1.csv").read_text().splitlines()
    assert fig1[0] == "e,inv_norm"
    assert len(fig1) > 10
    assert all(len(line.split(",")) == 2 for line in fig1[1:])


def test_fhn_sim_with_given_eo(tmp_path, capsys):
    code, out = run_cli(capsys, [
        "fhn-sim", "--param", "e_o=-0.11945", "--eps", "0.05",
        "--steps", "20000", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] in ("oscillating", "converged", "indeterminate")
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "n,x,y"
    assert len(traj) == 20002  # header + steps + initial state


def test_synth_exit_3_for_not_exact(capsys):
    # boundary-peak plant with negative phase rate cannot be synthesized
    code, out = run_cli(capsys, ["maglev", "--param", "tau=0.1",
                                 "--param", "T=0.01"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["status"] == "not_exact"
    gd = report["g_d"]
    code2, out2 = run_cli(capsys, ["synth", "--input", json.dumps(gd)])
    assert code2 == 3


def test_synth_reports_allpass(capsys):
    code, out = run_cli(capsys, ["synth", "--input", FHN_G_JSON])
    assert code == 0
    rep = json.loads(out)
    assert rep["allpass"]["c"] == -1
    assert abs(rep["allpass"]["a"]) < 1.0
    assert rep["allpass"]["scale"] > 0.0
    assert len(rep["perturbation"]["num"]) == 2


def test_nyquist_counts_and_dump(tmp_path, capsys):
    code, out = run_cli(capsys, [
        "nyquist", "--input", '{"num": [2], "den": [1, -0.5]}',
        "--eps", "0.01", "--dump", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["nu_o"] == rep["nu_plus"] - rep["nu_minus"]
    assert rep["encirclements_cw"] == -rep["nu_o"]
    dump = (tmp_path / "contour.csv").read_text().splitlines()
    assert dump[0] == "omega,re,im"
    assert all(len(line.split(",")) == 3 for line in dump[1:])
    report_file = json.loads((tmp_path / "report.json").read_text())
    assert report_file == rep


def test_pcr_max_report(capsys):
    code, out = run_cli(capsys, [
        "pcr-max", "--param", "omega_p=1.0471975511965976",
        "--param", "theta_p=-0.7853981633974483",
        "--param", "trials=2000", "--seed", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["best"] <= rep["ceiling"] + 1e-6
    assert abs(rep["search"]["bare_first_order_rate"] - rep["ceiling"]) < 1e-9


def test_determinism_identical_reports(capsys):
    argv = ["pcr-max", "--param", "omega_p=1.2", "--param", "theta_p=0.8",
            "--param", "trials=3000", "--seed", "11"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, argv)
    assert out1 == out2


def test_maglev_report_chain(capsys):
    code, out = run_cli(capsys, ["maglev", "--eps", "0.01"])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["static_gain"] - 1.0) < 1e-12
    assert rep["verdict"]["status"] == "not_exact"
    assert rep["compensated_status"] == "exact_sufficient"
    assert rep["bound"]["ratio"] > 1.0


def test_reports_parse_and_have_schema(capsys):
    for argv in (["analyze", "--input", FHN_G_JSON],
                 ["maglev", "--eps", "0.01"]):
        code, out = run_cli(capsys, argv)
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == "rirkit/1"

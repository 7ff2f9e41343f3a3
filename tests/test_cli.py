import ast
import dataclasses
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rirkit
import rirkit.casestudies as casestudies
from conftest import reference_fig1_rows
from rirkit.casestudies import FHNModel, MaglevParams
from rirkit.cli import (
    _COMMAND_FLAGS,
    _PARAM_KEYS,
    _load_tf,
    build_parser,
    main,
)

FHN_G_JSON = json.dumps({"num": [1.5679e-5, -2.5685e-5],
                         "den": [1.0, -2.000985, 1.000994]})
# z/((z - 2)(z - 0.5)): exact_boundary, theta' = 0 at its peak omega = 0
BOUNDARY_G_JSON = json.dumps({"num": [1.0, 0.0], "den": [1.0, -2.5, 1.0]})


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


@pytest.mark.parametrize("command", ["analyze", "synth"])
def test_non_minimal_input_reports_the_reduced_plant(capsys, command):
    # the printed plant times (z - 0.3)/(z - 0.3): the common root cancels
    # when the input is read, so the report is the printed plant's
    g = json.loads(FHN_G_JSON)
    extended = json.dumps({k: list(np.convolve(v, [1.0, -0.3]))
                           for k, v in g.items()})
    assert _load_tf(extended).den.degree == 2
    reports = []
    for spec in (FHN_G_JSON, extended):
        code, out = run_cli(capsys, [command, "--input", spec])
        assert code == 0
        reports.append(json.loads(out)["verdict"])
    want, got = reports
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert got[key] == value, key


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


@pytest.mark.parametrize("num", ["0", "1e-315", "1e-320"])
def test_analyze_zero_or_underflowing_gain_exit_2(capsys, num):
    # a zero plant has no radius; below ~1e-308 the radius 1/||g|| overflows
    code, out = run_cli(capsys, ["analyze", "--input",
                                 f'{{"num": [{num}], "den": [1, -2]}}'])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError" and "peak gain" in err["message"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", ["analyze", "synth"])
def test_overflowing_peak_gain_exit_2(capsys, command):
    # |1e308 / (z - 1.5)| peaks at 2e308 = inf at z = 1: its reciprocal 0 is
    # no radius, and inf is no JSON number
    code, out = run_cli(capsys, [command, "--input",
                                 '{"num": [1e308], "den": [1, -1.5]}'])
    assert code == 2
    err = json.loads(out, parse_constant=_reject_constant)["error"]
    assert err["type"] == "ValueError" and "peak gain" in err["message"]


def test_import_does_not_load_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(rirkit.__file__).parents[1])}
    probe = ("import sys, rirkit.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def _analyze_loads(module: str) -> str:
    """Exit code of ``analyze`` on the printed plant in a fresh process, and
    whether it left ``module`` in ``sys.modules``."""
    env = {**os.environ, "PYTHONPATH": str(Path(rirkit.__file__).parents[1])}
    probe = ("import sys, rirkit.cli; "
             "code = rirkit.cli.main(['analyze', '--input', sys.argv[1]]); "
             "print(code, sys.argv[2] in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe, FHN_G_JSON, module],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=60).stdout
    return out.splitlines()[-1]


def test_analyze_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, ~15 ms of a fresh process
    assert _analyze_loads("numpy.ma") == "0 False"


def test_analyze_does_not_import_numpy_polynomial():
    # the peak search builds its colleague matrix and Clenshaw sums itself
    assert _analyze_loads("numpy.polynomial") == "0 False"


@pytest.mark.parametrize("scale", [1e-301, 1e300])
def test_analyze_common_scale_gets_the_unscaled_verdict(capsys, scale):
    # 1/(z - 2) with num and den scaled alike; |den| at 1e-301 is no pole
    plant = json.dumps({"num": [scale], "den": [scale, -2.0 * scale]})
    code, out = run_cli(capsys, ["analyze", "--input", plant])
    assert code == 0
    v = json.loads(out)["verdict"]
    assert (v["class"], v["status"], v["lower_bound"]) == (
        "G1_boundary", "exact_sufficient", 1.0)


@pytest.mark.parametrize("scale", [1e-303, 1e-306, 1e-308])
def test_subnormal_scale_of_the_printed_plant_gets_its_verdict(capsys, scale):
    # num and den scaled alike leave den(z) subnormal near the peak, where a
    # numpy complex scalar quotient overflows to an infinite peak gain
    g = json.loads(FHN_G_JSON)
    plant = json.dumps({k: [scale * c for c in v] for k, v in g.items()})
    for command in ("analyze", "synth"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want, got = (run_cli(capsys, [command, "--input", spec])
                         for spec in (FHN_G_JSON, plant))
        assert want[0] == got[0] == 0
        want, got = (json.loads(out)["verdict"] for _, out in (want, got))
        assert got["status"] == want["status"] == "exact_sufficient"
        assert got["peak_gain"] == pytest.approx(want["peak_gain"], rel=1e-9)


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


def test_fhn_find_fig1_rows_are_the_old_inline_sweep(tmp_path, capsys):
    code, _ = run_cli(capsys, ["fhn-find", "--out", str(tmp_path)])
    assert code == 0
    expected = "e,inv_norm\n" + "".join(
        f"{e:.17g},{inv:.17g}\n" for e, inv in reference_fig1_rows(FHNModel()))
    assert (tmp_path / "fig1.csv").read_text() == expected


def test_fhn_find_sweeps_only_with_out(tmp_path, capsys, monkeypatch):
    calls = []
    real = casestudies.fhn_inv_norm_sweep
    monkeypatch.setattr(casestudies, "fhn_inv_norm_sweep",
                        lambda model: calls.append(model) or real(model))
    monkeypatch.chdir(tmp_path)
    code1, out1 = run_cli(capsys, ["fhn-find", "--out", "d1"])
    code2, out2 = run_cli(capsys, ["fhn-find"])
    assert code1 == code2 == 0 and out1 == out2
    assert len(calls) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d1"]
    assert sorted(p.name for p in (tmp_path / "d1").iterdir()) == [
        "fig1.csv", "report.json"]


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


def test_synth_exit_3_for_exact_boundary(capsys):
    code, out = run_cli(capsys, ["analyze", "--input", BOUNDARY_G_JSON])
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "exact_boundary"
    code, out = run_cli(capsys, ["synth", "--input", BOUNDARY_G_JSON])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "PreconditionError"


def test_fhn_sim_searches_eo_when_not_given(capsys):
    code, out = run_cli(capsys, ["fhn-sim", "--steps", "10"])
    assert code == 0
    _, found = run_cli(capsys, ["fhn-find"])
    assert json.loads(out)["e_o"] == json.loads(found)["e_o"]
    assert json.loads(out)["e_o"] == -0.1194482421875


def test_synth_reports_allpass(capsys):
    code, out = run_cli(capsys, ["synth", "--input", FHN_G_JSON])
    assert code == 0
    rep = json.loads(out)
    assert rep["allpass"]["c"] == -1
    assert abs(rep["allpass"]["a"]) < 1.0
    assert rep["allpass"]["scale"] > 0.0
    assert len(rep["perturbation"]["num"]) == 2


def test_analyze_dump_writes_the_response(tmp_path, capsys):
    code, _ = run_cli(capsys, ["analyze", "--input", FHN_G_JSON,
                               "--out", str(tmp_path)])
    assert code == 0
    dump = (tmp_path / "response.csv").read_text().splitlines()
    assert dump[0] == "omega,gain,gain_db,phase"
    assert len(dump) == 1 + 2048
    assert all(len(line.split(",")) == 4 for line in dump[1:])


def test_nyquist_counts_and_dump(tmp_path, capsys):
    code, out = run_cli(capsys, [
        "nyquist", "--input", '{"num": [2], "den": [1, -0.5]}',
        "--eps", "0.01", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["nu_o"] == rep["nu_plus"] - rep["nu_minus"]
    assert rep["encirclements_cw"] == -rep["nu_o"]
    dump = (tmp_path / "contour.csv").read_text().splitlines()
    assert dump[0] == "omega,re,im"
    assert len(dump) == 1 + 4096
    assert all(len(line.split(",")) == 3 for line in dump[1:])
    report_file = json.loads((tmp_path / "report.json").read_text())
    assert report_file == rep


@pytest.mark.parametrize("eps", ["0.01", "0"])
def test_nyquist_overflowing_loop_exit_2(capsys, eps):
    # 1e308 / (z - 1.5) overflows at omega = 0: an infinite value is no
    # crossing at 1+j0 to rounding
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, [
            "nyquist", "--input", '{"num": [1e308], "den": [1, -1.5]}',
            "--eps", eps])
    assert code == 2
    report = json.loads(out, parse_constant=_reject_constant)
    assert set(report) == {"error", "schema"}
    assert report["error"]["type"] == "ValueError"
    assert "not finite" in report["error"]["message"]


def test_nyquist_high_gain_loop_keeps_its_closed_loop_pole(capsys):
    # den - num of 1e12/(z - 1.5) is z - (1.5 + 1e12): a leading 1 far
    # below the constant term is still the leading coefficient
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, [
            "nyquist", "--input", '{"num": [1e12], "den": [1, -1.5]}'])
    assert code == 0
    assert json.loads(out)["closed_loop_pole_moduli"] == [1000000000001.5]


@pytest.mark.parametrize("spec, error", [
    # the leading 1e-300 underflows at the scale of 1e300
    ('{"num": [1], "den": [1e-300, 1e300, 1]}', "ValueError"),
    # the leading 1e-13 keeps num at degree 2, above den's 1
    ('{"num": [1e-13, 1, 2], "den": [1, 0.5]}', "ImproperTransferError"),
], ids=["spread-den", "tiny-leading-num"])
def test_analyze_untrimmed_input_exits_2(capsys, spec, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, ["analyze", "--input", spec])
    assert code == 2
    report = json.loads(out)  # one JSON object
    assert set(report) == {"error", "schema"}
    assert report["error"]["type"] == error


def test_fhn_find_outside_the_premise_exits_3(capsys):
    # the 7th draw of the seeded fhn_search_eo sweep: g at e_o is
    # inconclusive, so the paper's chain does not apply to the model
    params = {"c": 0.932582679541986, "alpha": 0.5014936968208303,
              "beta": 0.9320190919206982, "tau": 0.007316916215921598,
              "d": 7.6759930456378545, "current": 0.5521328615923314}
    code, out = run_cli(capsys, ["fhn-find"] + [
        arg for k, v in params.items() for arg in ("--param", f"{k}={v!r}")])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "PreconditionError"
    assert "e_o=0.1146533203125: inconclusive" in err["message"]


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


def test_maglev_compensated_product_keeps_close_pole_zero_pair(capsys):
    # the compensator's pole and zero lie 1.2e-9 apart at these parameters;
    # cancelling them in g * f_h flipped the verdict to not_exact
    code, out = run_cli(capsys, ["maglev", "--param", "tau=0.01",
                                 "--param", "T=0.001", "--eps", "0.01"])
    assert code == 0
    assert json.loads(out)["compensated_status"] == "exact_sufficient"


def test_reports_parse_and_have_schema(capsys):
    for argv in (["analyze", "--input", FHN_G_JSON],
                 ["maglev", "--eps", "0.01"]):
        code, out = run_cli(capsys, argv)
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == "rirkit/1"


@pytest.mark.parametrize("steps", [0, 3])
def test_fhn_sim_one_sample_tail_is_indeterminate(capsys, steps):
    # the last quarter of steps + 1 <= 4 states is one sample: no amplitude
    code, out = run_cli(capsys, ["fhn-sim", "--param", "e_o=-0.1194482421875",
                                 "--steps", str(steps)])
    assert code == 0
    assert json.loads(out)["verdict"] == "indeterminate"


def test_fhn_sim_negative_steps_exit_2(capsys):
    code, out = run_cli(capsys, ["fhn-sim", "--param", "e_o=-0.11945",
                                 "--steps=-1"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError" and "steps" in err["message"]


def test_fhn_sim_unallocatable_steps_exit_2(capsys):
    # 2**61 + 1 doubles exceed sys.maxsize bytes: refused before allocating
    code = main(["fhn-sim", "--param", "e_o=-0.1194482421875",
                 "--steps", str(2**61)])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out)["error"]  # one JSON object
    assert err["type"] == "ValueError" and "steps" in err["message"]


@pytest.mark.parametrize("num", ['[{"a": 1}]', '["1"]', "[true]"])
def test_analyze_non_numeric_coefficient_exit_2(capsys, num):
    code, out = run_cli(capsys, ["analyze", "--input",
                                 f'{{"num": {num}, "den": [1, -2]}}'])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError" and "'num'" in err["message"]


# -- search settings --------------------------------------------------------

PCR_ARGV = ["pcr-max", "--param", "omega_p=1.0", "--param", "theta_p=-0.8"]


@pytest.mark.parametrize("setting", ["trials=0", "trials=-5", "max_order=0",
                                     "max_order=-3", "max_order=7"])
def test_pcr_max_empty_search_exit_3(capsys, setting):
    code, out = run_cli(capsys, PCR_ARGV + ["--param", setting])
    assert code == 3
    err = json.loads(out)["error"]
    key = setting.split("=")[0]
    assert err["type"] == "PreconditionError" and key in err["message"]


@pytest.mark.parametrize("setting", ["trials=2.5", "max_order=2.5",
                                     "trials=inf", "trials=nan"])
def test_pcr_max_non_integer_setting_exit_2(capsys, setting):
    code, out = run_cli(capsys, PCR_ARGV + ["--param", setting])
    assert code == 2
    err = json.loads(out)["error"]
    key = setting.split("=")[0]
    assert err["type"] == "ValueError"
    assert f"{key} must be an integer" in err["message"]


def test_pcr_max_accepts_integral_float_setting(capsys):
    code, out = run_cli(capsys, PCR_ARGV + ["--param", "trials=2e3"])
    assert code == 0
    assert json.loads(out)["search"]["trials"] == 2000


def test_pcr_max_unreachable_boundary_phase_exits_3(capsys):
    code, out = run_cli(capsys, ["pcr-max", "--param", "omega_p=0",
                                 "--param", "theta_p=0.3"])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "PreconditionError" and "boundary" in err["message"]


@pytest.mark.parametrize("omega, theta", [("1e-9", "1.0"),
                                          ("3.14159265", "0.3")])
def test_pcr_max_phase_below_rounding_floor_exits_3(capsys, omega, theta):
    # interior omega_p next to 0 or pi: no double a meets the section's
    # phase target to 1e-10 (next to pi, the miss is mostly omega's own
    # rounding), and json.loads reads exactly one object
    code, out = run_cli(capsys, ["pcr-max", "--param", f"omega_p={omega}",
                                 "--param", f"theta_p={theta}"])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "PreconditionError"
    assert "rounding floor" in err["message"]


@pytest.mark.parametrize("omega, theta", [
    ("8.227241341700457e-09", "2.4"),
    ("1.2638482029342972e-08", "2.0000000000000004"),
    ("2.982471286216894e-08", "0.5")])
def test_pcr_max_sine_identity_within_its_rounding_floor_exits_0(
        capsys, omega, theta):
    # the phase meets its 1e-10 target with a within 2.2e-8 of -1, where
    # |e^{j omega} + a|^2 cancels: the sine identity misses 1e-9 (by up to
    # 3.3e-9) but not its own rounding floor (8e-8 to 1.1e-7), and
    # json.loads reads exactly one object
    code, out = run_cli(capsys, ["pcr-max", "--param", f"omega_p={omega}",
                                 "--param", f"theta_p={theta}"])
    assert code == 0
    rep = json.loads(out)
    assert rep["search"]["omega_p"] == float(omega)


def test_pcr_max_boundary_band_is_the_search_band(capsys):
    code, out = run_cli(capsys, ["pcr-max", "--param", "omega_p=1e-13",
                                 "--param", "theta_p=3.141592653589793"])
    assert code == 0
    rep = json.loads(out)
    assert rep["best"] == rep["ceiling"] == 0.0


# -- --param keys -----------------------------------------------------------

@pytest.mark.parametrize("argv, names", [
    (["maglev", "--param", "tua=0.2"],
     "'tua' for maglev; accepted: k, p, tau, T"),
    (["pcr-max", "--param", "omega_p=1", "--param", "theta_p=-0.8",
      "--param", "trails=5"], "'trails'"),
    (["fhn-find", "--param", "I=0.4"], "'I'"),
    (["fhn-sim", "--param", "e_o=-0.11945", "--param", "E_o=1"], "'E_o'"),
    (["maglev", "--param", "k=nan"], "--param k "),
    (["maglev", "--param", "k=abc"], "--param k "),
    (["fhn-sim", "--param", "e_o=inf", "--steps", "10"], "--param e_o "),
    (["pcr-max", "--param", "omega_p=-inf", "--param", "theta_p=0"],
     "--param omega_p "),
], ids=["tua", "trails", "I", "E_o", "k-nan", "k-abc", "e_o-inf",
        "omega_p-inf"])
def test_unknown_or_non_finite_param_exits_2(capsys, argv, names):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out)["error"]  # one JSON object, no traceback
    assert err["type"] == "ValueError" and names in err["message"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, message", [
    (["fhn-find", "--param", "tau=1000"], "exp(tau/c) overflows"),
    (["fhn-find", "--param", "c=1e-300"], "exp(tau/c) overflows"),
    (["fhn-sim", "--param", "tau=1000", "--steps", "10"],
     "exp(tau/c) overflows"),
    (["maglev", "--param", "p=1000", "--param", "T=1"], "exp(p T) overflows"),
    (["maglev", "--param", "T=1e-300"], "of the unit circle"),
    # poles 1 +- 1e-9 and 1 - 1e-8: one cluster whose disk reaches the circle,
    # checked before abar's closed form, which cancels to 0 here too
    (["maglev", "--param", "T=1e-9"], "of the unit circle"),
    (["maglev", "--eps", "nan"], "eps must be finite"),
    (["maglev", "--eps", "inf"], "eps must be finite"),
    (["fhn-find", "--param", "tau=700"], "linearization overflows"),
    (["fhn-sim", "--param", "tau=700", "--steps", "10"],
     "linearization overflows"),
    (["maglev", "--param", "p=700", "--param", "T=1"],
     "closed form overflows"),
    (["maglev", "--param", "p=1e300", "--param", "T=1e-300"],
     "leaves the float range"),
    (["maglev", "--param", "p=1e-200"], "leaves the float range"),
    (["maglev", "--param", "T=3e-8"], "of the unit circle"),
    # Newton's iterates leave the float range from every start (exit 3)
    (["fhn-find", "--param", "current=1e300"], "no fixed point found"),
    (["fhn-find", "--param", "alpha=1e300"], "no fixed point found"),
    (["fhn-sim", "--param", "current=1e300", "--steps", "10"],
     "no fixed point found"),
    # h(1) = 1/(1 + eps) below the rounding of the shaper's coefficients
    (["fhn-sim", "--eps", "1e200", "--steps", "10"],
     "below the rounding of the shaper's coefficients"),
    (["fhn-sim", "--eps=-1e300", "--steps", "10"],
     "below the rounding of the shaper's coefficients"),
    (["fhn-sim", "--eps", "1e13", "--steps", "10"],
     "below the rounding of the shaper's coefficients"),
    # a given e_o whose sign the synthesized DC gain cannot match
    (["fhn-sim", "--param", "e_o=0", "--steps", "10"],
     "does not match the sign of e_o=0.0"),
    (["fhn-sim", "--param", "e_o=0.1", "--steps", "10"],
     "does not match the sign of e_o=0.1"),
], ids=["fhn-tau", "fhn-c", "fhn-sim-tau", "maglev-pT", "maglev-T-1e-300",
        "maglev-T-1e-9", "eps-nan", "eps-inf", "fhn-tau-700",
        "fhn-sim-tau-700", "maglev-p-700", "maglev-p-1e300", "maglev-p-1e-200",
        "maglev-T-3e-8", "fhn-current-1e300", "fhn-alpha-1e300",
        "fhn-sim-current-1e300", "fhn-sim-eps-1e200", "fhn-sim-eps--1e300",
        "fhn-sim-eps-1e13", "fhn-sim-e_o-0", "fhn-sim-e_o-0.1"])
def test_out_of_range_model_inputs_exit_typed(capsys, argv, message):
    # step gains that overflow, or that overflow a square further on,
    # sampled poles that round onto the circle or cluster into one whose
    # disk reaches it, closed-form denominators that cancel, a non-finite
    # eps, fixed-point iterates that overflow, a shaper gain lost in its
    # coefficients' rounding and a given e_o of the wrong sign
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (2, 3)
    err = json.loads(captured.out)["error"]  # one JSON object, no traceback
    assert message in err["message"]
    assert "Traceback" not in captured.err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: at these sample times the "
                          "compensated loop fails its own check, 'compensated "
                          "gain rate positive' (max A' = 1.7e5 and 1.5e4), "
                          "and maglev exits 4")
@pytest.mark.parametrize("T", ["3e-5", "3e-4"])
def test_maglev_sample_times_inside_the_exit_4_band(capsys, T):
    # a scan of 81 log-spaced T in [1e-6, 1e-2] at the default k, p, tau and
    # eps exits 4 for T in [1.6e-5, 6.3e-5] and [2.8e-4, 3.6e-4]
    code = main(["maglev", "--param", f"T={T}"])
    capsys.readouterr()
    assert code in (0, 2, 3)


def test_model_params_reach_the_dataclass(capsys):
    code, out = run_cli(capsys, ["maglev", "--param", "k=2",
                                 "--param", "tau=0.05"])
    assert code == 0
    assert json.loads(out)["params"] == dataclasses.asdict(
        MaglevParams(k=2.0, tau=0.05))
    argv = ["fhn-sim", "--param", "e_o=-0.11945", "--steps", "10"]
    _, default = run_cli(capsys, argv)
    _, given = run_cli(capsys, argv + ["--param", "current=0.4"])
    _, other = run_cli(capsys, argv + ["--param", "current=0.5"])
    assert default == given != other


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", FHN_G_JSON],
    ["analyze", "--input", BOUNDARY_G_JSON],
    ["synth", "--input", FHN_G_JSON],
    ["synth", "--input", BOUNDARY_G_JSON],
    ["nyquist", "--input", FHN_G_JSON],
    PCR_ARGV + ["--param", "trials=2000"],
    ["pcr-max", "--param", "omega_p=0", "--param", "theta_p=0"],
    ["pcr-max", "--param", "omega_p=0", "--param", "theta_p=0.3"],
    ["pcr-max", "--param", "omega_p=3.141592653589793",
     "--param", "theta_p=-3.141592653589793"],
    ["pcr-max", "--param", "omega_p=1e-13",
     "--param", "theta_p=3.141592653589793"],
    ["maglev"],
    ["maglev", "--param", "k=nan"],
    ["fhn-sim", "--param", "e_o=-0.11945", "--steps", "10"],
])
def test_reports_are_strict_json(capsys, argv):
    _, out = run_cli(capsys, argv)
    rep = _strict_json(out)
    assert rep["schema"] == "rirkit/1"


# -- the parser -------------------------------------------------------------

def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    code1, out1 = run_cli(capsys, PCR_ARGV + ["--param", "trials=2000",
                                              "--seed", "4"])
    code2, out2 = run_cli(capsys, PCR_ARGV)
    assert code1 == code2 == 0
    assert json.loads(out1)["search"]["trials"] == 2000
    assert json.loads(out2)["search"]["trials"] == 20000
    assert build_parser().parse_args(PCR_ARGV).seed == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", FHN_G_JSON, "--steps", "5"],
    ["synth", "--input", FHN_G_JSON, "--eps", "0.1"],
    ["nyquist", "--input", FHN_G_JSON, "--seed", "1"],
    PCR_ARGV + ["--input", "x"],
    ["nyquist", "--input", FHN_G_JSON, "--grid", "10"],
    ["maglev", "--steps", "10"],
    ["fhn-find", "--eps", "0.1"],
    ["fhn-sim", "--param", "e_o=-0.11945", "--seed", "1"],
])
def test_flag_of_another_subcommand_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", FHN_G_JSON],
    ["synth", "--input", FHN_G_JSON],
    ["nyquist", "--input", FHN_G_JSON],
    PCR_ARGV,
    ["maglev"],
    ["fhn-find"],
    ["fhn-sim", "--param", "e_o=-0.11945", "--steps", "10"],
])
def test_empty_out_dir_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", ""])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --out" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", FHN_G_JSON, "--tol-rate", "1e-6"],
    ["analyze", "--input", FHN_G_JSON, "--dump"],
    ["synth", "--input", FHN_G_JSON, "--tol-rate", "1e-6"],
    ["nyquist", "--input", FHN_G_JSON, "--dump"],
])
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_flag_defaults_are_unchanged():
    parse = build_parser().parse_args
    a = parse(["analyze", "--input", "x"])
    assert a.out is None
    n = parse(["nyquist", "--input", "x"])
    assert n.eps == 0.01
    s = parse(["fhn-sim"])
    assert (s.eps, s.steps, s.param) == (0.01, 200000, None)
    assert parse(["pcr-max"]).seed == 0


def _readme_table(header: str) -> dict[str, tuple[str, ...]]:
    """The README table under ``header``: each subcommand and the
    back-quoted names of its second column, in order."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[lines.index(header) + 2:])
    table = {}
    for row in rows:
        name, names = row.strip("|").split("|")
        table[name.strip().strip("`")] = tuple(re.findall(r"`([^`]+)`",
                                                          names))
    return table


def test_readme_tables_are_the_flags_and_param_keys():
    assert _readme_table("| subcommand | flags |") == _COMMAND_FLAGS
    assert _readme_table("| subcommand | `--param` keys |") == {
        name: tuple(keys) for name, keys in _PARAM_KEYS.items()}


def test_readme_numerical_notes_are_the_module_constants():
    # every *_TOL, *_MARGIN, *_BAND and *_WINDOW constant of these modules,
    # named in README's "Numerical notes" with its value, and no other
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    notes = itertools.takewhile(lambda line: not line.startswith("## "),
                                lines[lines.index("## Numerical notes") + 1:])
    bullets, module = {}, None
    for line in notes:
        start = re.match(r"  - `(\w+)`:", line)
        if start:
            module = start.group(1)
            bullets[module] = ""
        elif not line.startswith("    "):
            module = None
        if module is not None:
            bullets[module] += " " + line.strip()
    documented = {
        module: {name: float(value) for name, value in
                 re.findall(r"`([A-Z_]+)` \(([-+.\de]+)", text)}
        for module, text in bullets.items()}
    assert documented == {
        name: {k: v for k, v in vars(importlib.import_module(
                   f"rirkit.{name}")).items()
               if re.fullmatch(r"[A-Z_]+_(TOL|MARGIN|BAND|WINDOW)", k)}
        for name in ("polycore", "transfer", "nyquist", "rir", "bounds")}


def _bench_paper_argvs() -> list[list[str]]:
    """bench/workloads.py's PaperChain.COMMANDS with {seed} and {e_o}
    filled in, read with ast: importing the module would write its
    bytecode under bench/."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    tree = ast.parse(path.read_text())
    consts = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            try:
                consts[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    chain = next(n for n in tree.body
                 if isinstance(n, ast.ClassDef) and n.name == "PaperChain")
    commands = next(n.value for n in chain.body if isinstance(n, ast.Assign)
                    and n.targets[0].id == "COMMANDS")
    expr = compile(ast.Expression(commands), str(path), "eval")
    pairs = eval(expr, {"__builtins__": {}, "json": json, **consts})
    fill = {"{seed}": "7", "{e_o}": repr(-0.1194482421875)}
    out = []
    for kind, template in pairs:
        argv = list(template)
        for key, val in fill.items():
            argv = [a.replace(key, val) for a in argv]
        assert argv[0] == kind
        out.append(argv)
    return out


def test_benchmark_paper_chain_argv_parses():
    argvs = _bench_paper_argvs()
    assert [a[0] for a in argvs] == ["analyze", "synth", "maglev", "fhn-find",
                                     "pcr-max", "fhn-sim", "fhn-sim"]
    for argv in argvs:
        build_parser().parse_args(argv)  # exits 2 on a flag it lacks

import errno
import hashlib
import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

from mmscatter import fitting, lobes, wavelength_for_frequency
from mmscatter.cli import _MODES, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from mmscatter.fileio import default_materials, read_report, read_scan, write_scan
from mmscatter.materials import Polarization, rayleigh_factor
from mmscatter.raytrace import ScanPattern


def run(*argv):
    return main(list(argv))


def test_theory_rough_wall_row(tmp_path):
    out = tmp_path / "theory.csv"
    assert run("theory", "--material", "rough_wall", "--out", str(out)) == EXIT_OK
    rows = [ln for ln in out.read_text().splitlines() if ln.startswith("rough_wall,30.0,")]
    assert len(rows) == 1
    _, _, gamma, rayleigh, gamma_rough, s_coeff = rows[0].split(",")
    expected_r = rayleigh_factor(0.715e-3, math.radians(30.0), wavelength_for_frequency(28e9))
    assert float(rayleigh) == expected_r
    assert float(rayleigh) == pytest.approx(0.7817, abs=1e-3)
    assert float(gamma_rough) == float(rayleigh) * float(gamma)
    assert 0.0 < float(s_coeff) < 1.0


def test_theory_has_header_comment(tmp_path):
    out = tmp_path / "theory.csv"
    run("theory", "--material", "metal_sheet", "--out", str(out))
    first = out.read_text().splitlines()[0]
    assert first.startswith("# mmscatter 0.1.0 | theory |")


def test_simulate_then_fit_recovers_exactly(tmp_path):
    sim = tmp_path / "sim.csv"
    assert (
        run(
            "simulate", "--material", "rough_wall", "--theta-deg", "30", "--model", "single",
            "--s", "0.3", "--alpha-r", "4", "--tiles-m", "0.5", "--out", str(sim),
        )
        == EXIT_OK
    )
    report_path = tmp_path / "fit.txt"
    assert (
        run(
            "fit", "--scan", str(sim), "--material", "rough_wall", "--theta-deg", "30",
            "--model", "single", "--s-initial", "0.3", "--tiles-m", "0.5", "--out", str(report_path),
        )
        == EXIT_OK
    )
    report = read_report(report_path)
    assert report.fvu == 0.0
    assert report.best.s_coeff == 0.3
    assert report.best.alpha_r == 4
    assert report.converged


def test_fit_both_writes_three_reports(tmp_path):
    sim = tmp_path / "sim.csv"
    run(
        "simulate", "--material", "rough_wall", "--theta-deg", "30", "--model", "dual",
        "--s", "0.35", "--alpha-r", "1", "--alpha-i", "10", "--lambda", "0.2",
        "--tiles-m", "0.5", "--out", str(sim),
    )
    out = tmp_path / "fit.txt"
    code = run(
        "fit", "--scan", str(sim), "--material", "rough_wall", "--theta-deg", "30",
        "--model", "both", "--s-initial", "0.35", "--tiles-m", "0.5", "--out", str(out),
    )
    assert code == EXIT_OK
    assert out.exists()
    assert (tmp_path / "fit.single.txt").exists()
    assert (tmp_path / "fit.dual.txt").exists()
    dual_report = read_report(tmp_path / "fit.dual.txt")
    assert dual_report.fvu == 0.0
    winner = read_report(out)
    assert winner == dual_report
    assert out.read_bytes() == (tmp_path / "fit.dual.txt").read_bytes()

    # a file name without an extension, in a directory whose name has one:
    # the siblings take the suffix after the file name
    directory = tmp_path / "dot.d"
    directory.mkdir()
    code = run(
        "fit", "--scan", str(sim), "--material", "rough_wall", "--theta-deg", "30",
        "--model", "both", "--s-initial", "0.35", "--tiles-m", "0.5", "--out", str(directory / "report"),
    )
    assert code == EXIT_OK
    assert sorted(p.name for p in directory.iterdir()) == ["report", "report.dual", "report.single"]
    assert (directory / "report").read_bytes() == (directory / "report.dual").read_bytes()


@pytest.mark.parametrize("model", ["both", "dual"])
def test_fit_builds_one_pattern(tmp_path, monkeypatch, model):
    # every --model path, both fits of "both" included, scores against one pattern
    sim = tmp_path / "sim.csv"
    assert run("simulate", "--s", "0.35", "--tiles-m", "0.5", "--out", str(sim)) == EXIT_OK
    built = []
    build = fitting.build_pattern

    def counting_build(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(fitting, "build_pattern", counting_build)
    out = tmp_path / "fit.txt"
    assert run("fit", "--scan", str(sim), "--model", model, "--s-initial", "0.35", "--tiles-m", "0.5",
               "--out", str(out)) == EXIT_OK
    assert len(built) == 1


def test_fit_both_predicts_each_distinct_candidate_once(tmp_path, monkeypatch):
    # the benchmark's seed-0 semicylinder scan whose two fits confirm the same
    # lambda-1 shapes again and again: single (S, a) is dual (S, a, 1, 1.0); the
    # record drops a zero-weight width, so no duplicate shape may run predict either
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    call = workloads.generate("fit-cylinder", 0, tmp_path).calls[1]
    assert call.name == "noisy1" and call.positions == 76
    predicted = []
    predict = ScanPattern.predict

    def recording_predict(self, params):
        alpha_r, alpha_i, lam = params.shape
        predicted.append((params.s_coeff, alpha_r if lam > 0.0 else None, alpha_i if lam < 1.0 else None, lam))
        return predict(self, params)

    monkeypatch.setattr(ScanPattern, "predict", recording_predict)
    monkeypatch.chdir(tmp_path)
    assert run(*call.args) == EXIT_OK
    assert predicted and len(predicted) == len(set(predicted))


def test_receiver_on_a_tile_center_up_to_rounding_is_data_error(tmp_path, capsys):
    # at radius 1.45 and height 0.05 m the +/-90 deg receivers sit about 1e-16 m
    # from the centers of two 0.1 m tiles, where the tile powers blow up
    out = tmp_path / "sim.csv"
    assert run("simulate", "--radius", "1.45", "--heights", "0.05", "--out", str(out)) == EXIT_DATA
    assert "input error: degenerate geometry: rx coincides with a surface point" in capsys.readouterr().err
    assert not out.exists()


def test_pattern_dual_lambda(tmp_path):
    out = tmp_path / "pattern.csv"
    assert (
        run(
            "pattern", "--material", "rough_wall", "--model", "dual", "--lambda", "0.2",
            "--theta-min", "10", "--theta-max", "80", "--theta-step", "10", "--out", str(out),
        )
        == EXIT_OK
    )
    lines = out.read_text().splitlines()
    assert lines[1] == "theta_i_deg,direction,p_r_dbm,model,material"
    rows = lines[2:]
    assert len(rows) == 8 * 2  # both directions
    assert all(row.endswith(",dual,rough_wall") for row in rows)


def test_pattern_computes_each_angles_s_once(tmp_path, monkeypatch):
    # both directions of a material share one theory S per angle of the default 89-angle grid
    names = []
    theory = lobes.initial_scattering_coefficient

    def counting_theory(material, ctx):
        names.append(material.name)
        return theory(material, ctx)

    monkeypatch.setattr(lobes, "initial_scattering_coefficient", counting_theory)
    assert run("pattern", "--out", str(tmp_path / "pattern.csv")) == EXIT_OK
    assert Counter(names) == dict.fromkeys(default_materials().names(), 89)


def test_angles_dump(tmp_path):
    out = tmp_path / "angles.csv"
    assert run("angles", "--material", "rough_wall", "--theta-deg", "30", "--out", str(out)) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1].startswith("azimuth_deg,")
    assert len(lines) == 2 + 19
    at_specular = [ln for ln in lines if ln.startswith("30.0,")][0]
    psi_r_deg = float(at_specular.split(",")[6])
    assert abs(psi_r_deg) < 1e-9


def test_simulate_respects_scene_file(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(
        "material rough_wall\nfrequency_ghz 28\nwall_center 0 0 0\nwall_normal 1 0 0\n"
        "wall_width_m 3\nwall_height_m 3\ntx 1.299038105676658 -0.75 0\n"
        "scan_heights_m 0 0.1\n",
        encoding="utf-8",
    )
    out = tmp_path / "sim.csv"
    assert run("simulate", "--scene", str(scene), "--s", "0.3", "--tiles-m", "0.5", "--out", str(out)) == EXIT_OK
    scan = read_scan(out)
    assert len(scan) == 38  # two heights from the scene file


def test_oblique_wall_matches_the_paper_scene(tmp_path):
    # the same layout with the wall normal turned from +x to (0.6, 0.8, 0):
    # the default +-90 deg receivers lie in the wall plane up to rounding, on
    # either side of it, and must still be scanned
    scene_body = "material rough_wall\nfrequency_ghz 28\nwall_center 0 0 0\nwall_width_m 3\nwall_height_m 3\n"
    layouts = {"paper": "wall_normal 1 0 0\ntx 1.2 -0.6 0\n", "oblique": "wall_normal 0.6 0.8 0\ntx 1.2 0.6 0\n"}
    rows = {}
    for name, layout in layouts.items():
        scene, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
        scene.write_text(scene_body + layout + "scan_heights_m 0 0.3\n", encoding="utf-8")
        assert run("simulate", "--scene", str(scene), "--s", "0.3", "--tiles-m", "0.25", "--out", str(out)) == EXIT_OK
        rows[name] = [[float(v) for v in ln.split(",")] for ln in _data_rows(out)[1:]]
    assert len(rows["oblique"]) == len(rows["paper"]) == 38
    for paper, oblique in zip(rows["paper"], rows["oblique"]):
        assert oblique[:2] == paper[:2]
        assert oblique[2:] == pytest.approx(paper[2:], rel=0.0, abs=1e-9)


def test_fit_uses_scene_scan_radius(tmp_path):
    # fit places the receivers on the scene file's scan radius, as simulate does
    scene = tmp_path / "scene.txt"
    scene.write_text(
        "material rough_wall\nfrequency_ghz 28\nwall_center 0 0 0\nwall_normal 1 0 0\n"
        "wall_width_m 3\nwall_height_m 3\ntx 1.299038105676658 -0.75 0\n"
        "scan_radius_m 2.0\n",
        encoding="utf-8",
    )
    sim = tmp_path / "sim.csv"
    assert (
        run("simulate", "--scene", str(scene), "--model", "single", "--s", "0.3", "--alpha-r", "4",
            "--tiles-m", "0.5", "--out", str(sim))
        == EXIT_OK
    )
    out = tmp_path / "fit.txt"
    assert (
        run("fit", "--scan", str(sim), "--scene", str(scene), "--model", "single", "--s-initial", "0.3",
            "--tiles-m", "0.5", "--out", str(out))
        == EXIT_OK
    )
    report = read_report(out)
    assert report.fvu == 0.0
    assert (report.best.s_coeff, report.best.alpha_r) == (0.3, 4)
    # the scan was simulated at 2.0 m, so the default radius cannot reproduce it
    assert (
        run("fit", "--scan", str(sim), "--scene", str(scene), "--model", "single", "--s-initial", "0.3",
            "--tiles-m", "0.5", "--radius", "1.5", "--out", str(out))
        == EXIT_OK
    )
    assert read_report(out).fvu > 0.1


@pytest.mark.parametrize("record", ["10.0,0.0,-inf", "10.0,0.0,inf", "10.0,inf,-60.0", "inf,0.0,-60.0"])
def test_non_finite_scan_value_is_data_error(tmp_path, capsys, record):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"angle_deg,delta_h_cm,power_dbm\n0.0,0.0,-55.0\n{record}\n20.0,0.0,-61.0\n", encoding="utf-8")
    code = run("fit", "--scan", str(bad), "--material", "rough_wall", "--model", "single",
               "--s-initial", "0.3", "--tiles-m", "0.5", "--out", str(tmp_path / "r.txt"))
    assert code == EXIT_DATA
    assert f"{bad}:3:" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_fit_with_every_power_zero_is_data_error(tmp_path, capsys):
    # at -3200 dBm every predicted power underflows to 0 W, so every FVU is inf
    scan = tmp_path / "scan.csv"
    scan.write_text("angle_deg,delta_h_cm,power_dbm\n0.0,0.0,-55.0\n10.0,0.0,-58.0\n20.0,0.0,-61.0\n", encoding="utf-8")
    out = tmp_path / "r.txt"
    code = run("fit", "--scan", str(scan), "--material", "rough_wall", "--p-t-dbm", "-3200",
               "--s-initial", "0.3", "--tiles-m", "0.5", "--out", str(out))
    assert code == EXIT_DATA
    assert "input error: every candidate predicts 0 W" in capsys.readouterr().err
    assert not out.exists()


SCENE_60GHZ = (
    "material rough_wall\nfrequency_ghz 60\nwall_center 0 0 0\nwall_normal 1 0 0\n"
    "wall_width_m 3\nwall_height_m 3\ntx 1.299038105676658 -0.75 0\n"
)


def _data_rows(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def test_scene_frequency_sets_the_wavelength(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE_60GHZ, encoding="utf-8")
    outs = [tmp_path / "scene.csv", tmp_path / "explicit.csv"]
    for out, extra in zip(outs, ([], ["--freq-ghz", "60"])):
        code = run("simulate", "--scene", str(scene), "--s", "0.3", "--tiles-m", "0.5", *extra, "--out", str(out))
        assert code == EXIT_OK
    assert _data_rows(outs[0]) == _data_rows(outs[1])
    assert "freq_ghz=60.0" in outs[0].read_text().splitlines()[0]
    at_minus_70 = [ln for ln in _data_rows(outs[0]) if ln.startswith("-70.0,0.0,")][0]
    assert float(at_minus_70.split(",")[2]) == pytest.approx(-40.36, abs=0.005)


def test_conflicting_frequency_is_data_error(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE_60GHZ, encoding="utf-8")
    out = tmp_path / "sim.csv"
    code = run("simulate", "--scene", str(scene), "--freq-ghz", "28", "--tiles-m", "0.5", "--out", str(out))
    assert code == EXIT_DATA
    assert "conflicts with frequency_ghz 60.0" in capsys.readouterr().err
    assert not out.exists()


def test_header_without_scene_records_default_frequency(tmp_path):
    out = tmp_path / "theory.csv"
    assert run("theory", "--material", "metal_sheet", "--out", str(out)) == EXIT_OK
    assert " freq_ghz=28.0 " in out.read_text().splitlines()[0]


def test_infinite_scene_value_is_data_error(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE_60GHZ + "scan_radius_m inf\n", encoding="utf-8")
    out = tmp_path / "sim.csv"
    assert run("simulate", "--scene", str(scene), "--tiles-m", "0.5", "--out", str(out)) == EXIT_DATA
    assert f"{scene}:8: scan_radius_m must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_far_scene_tx_is_data_error(tmp_path, capsys):
    # the squared offset of this Tx from the wall center overflows a float
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE_60GHZ.replace("tx 1.299038105676658 -0.75 0", "tx 1e170 -0.6 0"), encoding="utf-8")
    out = tmp_path / "sim.csv"
    assert run("simulate", "--scene", str(scene), "--tiles-m", "0.5", "--out", str(out)) == EXIT_DATA
    assert f"{scene}: tx at [1e+170, -0.6, 0.0] m is too far from the wall center" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_material_value_is_data_error(tmp_path, capsys):
    materials = tmp_path / "materials.txt"
    materials.write_text("material rough_wall\neps_r inf\nh_rms_mm 0.715\nthickness_cm 32\n", encoding="utf-8")
    out = tmp_path / "theory.csv"
    assert run("theory", "--materials-file", str(materials), "--out", str(out)) == EXIT_DATA
    assert f"{materials}:2: eps_r must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code(tmp_path):
    assert run("simulate", "--no-such-flag") == EXIT_USAGE
    assert run("frobnicate") == EXIT_USAGE


def test_missing_scan_is_data_error(tmp_path):
    assert (
        run("fit", "--scan", str(tmp_path / "missing.csv"), "--material", "rough_wall", "--out", str(tmp_path / "r.txt"))
        == EXIT_DATA
    )


@pytest.mark.parametrize("role", ["input", "output"])
def test_path_under_a_regular_file_is_data_error(tmp_path, capsys, role):
    # opening afile/x.csv, where afile is a regular file, raises NotADirectoryError
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n", encoding="utf-8")
    out = tmp_path / "r.txt"
    if role == "input":
        argv = ["fit", "--scan", str(afile / "x.csv"), "--tiles-m", "0.5", "--out", str(out)]
    else:
        out = afile / "x.csv"
        argv = ["simulate", "--tiles-m", "0.5", "--out", str(out)]
    assert run(*argv) == EXIT_DATA
    assert f"input error: [Errno {errno.ENOTDIR}]" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


def test_unknown_material_is_data_error(tmp_path, capsys):
    # the message prints bare, not in the quotes of a KeyError's str()
    for command in ("theory", "pattern", "simulate"):
        out = tmp_path / f"{command}.csv"
        assert run(command, "--material", "kryptonite", "--out", str(out)) == EXIT_DATA
        assert capsys.readouterr().err == (
            "input error: unknown material 'kryptonite'; known: marble_wall, metal_sheet, rough_wall, smooth_wall\n"
        )
        assert not out.exists()


def test_malformed_scan_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("angle_deg,delta_h_cm,power_dbm\n10.0,0.0,abc\n", encoding="utf-8")
    assert (
        run("fit", "--scan", str(bad), "--material", "rough_wall", "--out", str(tmp_path / "r.txt")) == EXIT_DATA
    )


def test_nonconvergence_exit_code(tmp_path, monkeypatch):
    # a scan the model cannot reproduce, with a round budget too small to
    # observe the improvement threshold, reports numerical non-convergence
    monkeypatch.setattr(fitting, "MAX_ROUNDS", 1)
    sim = tmp_path / "sim.csv"
    run(
        "simulate", "--material", "rough_wall", "--theta-deg", "30", "--model", "dual",
        "--s", "0.35", "--alpha-r", "2", "--alpha-i", "9", "--lambda", "0.2",
        "--tiles-m", "0.5", "--out", str(sim),
    )
    scan = read_scan(sim)
    noisy_points = tuple(
        type(pt)(pt.azimuth_deg, pt.delta_h_cm, pt.power_dbm + (2.0 if i % 2 else -2.0))
        for i, pt in enumerate(scan.points)
    )
    noisy = tmp_path / "noisy.csv"
    write_scan(type(scan)(points=noisy_points), noisy)
    code = run(
        "fit", "--scan", str(noisy), "--material", "rough_wall", "--theta-deg", "30",
        "--model", "dual", "--s-initial", "0.35", "--tiles-m", "0.5",
        "--out", str(tmp_path / "r.txt"),
    )
    assert code == EXIT_NUMERIC
    report = read_report(tmp_path / "r.txt")
    assert not report.converged
    assert report.fvu > 0.0


def test_constant_scan_is_data_error(tmp_path):
    flat = tmp_path / "flat.csv"
    flat.write_text(
        "angle_deg,delta_h_cm,power_dbm\n0.0,0.0,-60.0\n10.0,0.0,-60.0\n20.0,0.0,-60.0\n", encoding="utf-8"
    )
    assert (
        run("fit", "--scan", str(flat), "--material", "rough_wall", "--model", "single",
            "--s-initial", "0.3", "--tiles-m", "0.5", "--out", str(tmp_path / "r.txt"))
        == EXIT_DATA
    )


@pytest.mark.parametrize("power", ["1e160", "1e308", "-1e308", "1.5e154"])
def test_overflowing_scan_spread_is_data_error(tmp_path, capsys, power):
    # read_scan accepts these finite powers; the FVU of every candidate would be nan,
    # or at 1.5e154 inf: the denominator (1.5e308) is finite, every residual sum is not
    scan = tmp_path / "wide.csv"
    scan.write_text(
        f"angle_deg,delta_h_cm,power_dbm\n0.0,0.0,-55.0\n10.0,0.0,{power}\n20.0,0.0,-61.0\n", encoding="utf-8"
    )
    out = tmp_path / "r.txt"
    args = ("--model", "single", "--s-initial", "0.3", "--tiles-m", "0.5", "--out", str(out))
    assert run("fit", "--scan", str(scan), *args) == EXIT_DATA
    spread = {
        "1e160": "-61 to 1e+160", "1e308": "-61 to 1e+308", "-1e308": "-1e+308 to -55", "1.5e154": "-61 to 1.5e+154"
    }[power]
    assert f"input error: measured powers spread too widely: {spread} dB, past the" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        run("--help")
    assert info.value.code == 0


def _choices(command, dest):
    """The choices of a command's option."""
    commands = next(action for action in build_parser()._actions if action.dest == "command").choices
    return tuple(next(action.choices for action in commands[command]._actions if action.dest == dest))


def test_literal_choices_are_the_enum_values():
    # the parser is built before lobes loads, so these choices stay literal, each in its help order
    models = sorted(model.value for model in lobes.LobeModel)
    assert sorted(_MODES) == sorted(mode.value for mode in lobes.NormalizationMode)
    for command in ("pattern", "simulate", "fit"):
        assert sorted(_choices(command, "model")) == sorted(models + ["both"] if command == "fit" else models)
        assert _choices(command, "mode") == _MODES
    for command in ("theory", "pattern", "simulate", "fit", "angles"):
        assert _choices(command, "pol") == tuple(Polarization.__members__)


def test_pattern_line_mode(tmp_path):
    out = tmp_path / "p.csv"
    assert (
        run("pattern", "--material", "metal_sheet", "--mode", "line",
            "--theta-min", "20", "--theta-max", "40", "--theta-step", "10", "--out", str(out))
        == EXIT_OK
    )
    assert len(out.read_text().splitlines()) == 2 + 3 * 2


def test_repeat_runs_byte_identical(tmp_path):
    sim = tmp_path / "sim.csv"
    args = (
        "simulate", "--material", "smooth_wall", "--theta-deg", "30", "--model", "single",
        "--s", "0.25", "--tiles-m", "0.5", "--out", str(sim),
    )
    run(*args)
    first = sim.read_bytes()
    run(*args)
    assert sim.read_bytes() == first


def test_fit_header_records_input_digest(tmp_path):
    sim = tmp_path / "sim.csv"
    run("simulate", "--material", "rough_wall", "--s", "0.3", "--tiles-m", "0.5", "--out", str(sim))
    out = tmp_path / "fit.txt"
    run(
        "fit", "--scan", str(sim), "--material", "rough_wall", "--model", "single",
        "--s-initial", "0.3", "--tiles-m", "0.5", "--out", str(out),
    )
    first = out.read_text().splitlines()[0]
    assert first.startswith("# mmscatter")
    assert "inputs: scan=" in first


def test_fit_header_has_no_lobe_shape_options(tmp_path):
    # the fit searches the lobe shape; the header records no fixed one
    sim = tmp_path / "sim.csv"
    run("simulate", "--material", "rough_wall", "--s", "0.3", "--tiles-m", "0.5", "--out", str(sim))
    out = tmp_path / "fit.txt"
    args = ("fit", "--scan", str(sim), "--model", "single", "--s-initial", "0.3", "--tiles-m", "0.5", "--out", str(out))
    assert run(*args) == EXIT_OK
    header = out.read_text().splitlines()[0]
    for key in ("alpha_r=", "alpha_i=", "lambda_mix="):
        assert key not in header
    assert run(*args, "--alpha-r", "4") == EXIT_USAGE


# a float or int option reads a number as the input files do: no underscores, ASCII only
_BAD_NUMBER_OPTIONS = {
    "simulate-radius-not-a-number": ["simulate", "--radius", "a"],
    "simulate-radius-underscore": ["simulate", "--radius", "1_0"],
    "simulate-alpha-r-underscore": ["simulate", "--alpha-r", "1_0"],
    "simulate-alpha-r-plus": ["simulate", "--alpha-r", "+4"],
    "fit-s-initial-underscore": ["fit", "--scan", "scan.csv", "--s-initial", "0_3"],
    "theory-theta-step-underscore": ["theory", "--theta-step", "1_0"],
    "pattern-lambda-underscore": ["pattern", "--lambda", "0_2"],
    "pattern-s-arabic-indic-digit": ["pattern", "--s", "\u0660.3"],
}


@pytest.mark.parametrize("argv", list(_BAD_NUMBER_OPTIONS.values()), ids=list(_BAD_NUMBER_OPTIONS))
def test_number_option_outside_the_file_grammar_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    assert run(*argv, "--out", str(out)) == EXIT_USAGE
    assert f"argument {argv[-2]}: invalid " in capsys.readouterr().err
    assert not out.exists()


def test_line_break_in_out_path_keeps_outputs_readable(tmp_path):
    # the header comment records --out; a line break in it must not split the comment
    sim = tmp_path / "a\nb.csv"
    assert run("simulate", "--s", "0.3", "--tiles-m", "0.5", "--out", str(sim)) == EXIT_OK
    report = tmp_path / "g\nh.txt"
    fit_args = ("--model", "single", "--s-initial", "0.3", "--tiles-m", "0.5", "--out", str(report))
    assert run("fit", "--scan", str(sim), *fit_args) == EXIT_OK
    assert len(read_scan(sim)) == 19
    assert read_report(report).best.model.value == "single"


_THETA_GRID = "--theta-min/--theta-max/--theta-step must be finite, the step > 0; got "
_LINK = "p_t, g_t, g_r must all be > 0 and finite, got "
_AZIMUTHS = "azimuth step and range must be > 0 and finite, got "
_INVERTED = "--theta-min 50.0 exceeds --theta-max 10.0"
_THETA_RANGE = "--theta-min/--theta-max must give angles in [0, 90) degrees, got "
_PATTERN_THETA_RANGE = "--theta-min/--theta-max must give angles in (0, 90) degrees, got "
_TINY_STEP = "azimuth step 5e-324 over range 180.0 gives inf azimuths, more than 100,000"
_TOO_MANY_TILES = " receivers x inf tiles, more than 10,000,000 paths"
_WAVELENGTH = "wavelength must be > 0 m with a finite square, got "
_FREQUENCY = "frequency must be > 0 Hz and finite, got "
_PATH_LENGTH = "path length to the receiver at "
_TOO_LONG = " m is too long: (r_i r_s)^2 is not finite"
_EQUAL_IN_CM = "height offsets must be distinct, got (0.0, 1e-12): 0.0 and 1e-12 m are both 0.0 cm in a scan file"
_HEIGHTS = "--heights takes comma-separated numbers in m, got "
_RANGE_200 = "azimuth range 200.0 deg puts receivers past +-90 deg, behind the wall; it must be at most 180"
# the first receiver of the default scan at radius 1e170: azimuth -90 deg
_FAR_RX = "[6.1232339957367664e+153, -1e+170, 0.0]"
# each case: the bad option and the message that names its value
_BAD_NUMBERS = {
    "simulate-p-t-dbm-nan": (["simulate", "--p-t-dbm", "nan"], _LINK + "nan,"),
    "simulate-gain-dbi-nan": (["simulate", "--gain-dbi", "nan"], _LINK + "0.01, nan, nan"),
    "simulate-radius-nan": (["simulate", "--radius", "nan"], "scan radius must be > 0 and finite, got nan"),
    "simulate-heights-nan": (["simulate", "--heights", "nan"], "height offsets must be finite, got (nan,)"),
    "simulate-p-t-dbm-inf": (["simulate", "--p-t-dbm", "inf"], _LINK + "inf,"),
    "simulate-range-deg-inf": (["simulate", "--range-deg", "inf"], _AZIMUTHS + "10.0 and inf"),
    # receivers past +-90 deg would lie behind the wall
    "simulate-range-deg-200": (["simulate", "--range-deg", "200"], _RANGE_200),
    "angles-range-deg-200": (["angles", "--range-deg", "200"], _RANGE_200),
    "simulate-tiles-m-nan": (["simulate", "--tiles-m", "nan"], "tile edge must be > 0 m and finite, got nan"),
    "simulate-step-deg-nan": (["simulate", "--step-deg", "nan"], _AZIMUTHS + "nan and 180.0"),
    "simulate-freq-ghz-nan": (
        ["simulate", "--freq-ghz", "nan"], "carrier_frequency must be > 0 Hz and finite, got nan"
    ),
    # each item of --heights must be a number; the message names the option and the bad item
    "simulate-heights-not-a-number": (
        ["simulate", "--heights", "a"], _HEIGHTS + "'a': could not convert string to float: 'a'"
    ),
    "angles-heights-empty-item": (
        ["angles", "--heights", "0,,0.1"], _HEIGHTS + "'0,,0.1': could not convert string to float: ''"
    ),
    # float() alone would read 1_0 as 10: the items use the number grammar of the input files
    "simulate-heights-underscore": (
        ["simulate", "--heights", "1_0"], _HEIGHTS + "'1_0': could not convert string to float: '1_0'"
    ),
    "angles-heights-underscore": (
        ["angles", "--heights", "0,0_3"], _HEIGHTS + "'0,0_3': could not convert string to float: '0_3'"
    ),
    "simulate-heights-repeated": (
        ["simulate", "--heights", "0,0.1,0"], "height offsets must be distinct, got (0.0, 0.1, 0.0)"
    ),
    # heights equal in cm, the scan-file unit, would write each receiver twice
    "simulate-heights-equal-in-cm": (["simulate", "--heights", "0,1e-12"], _EQUAL_IN_CM),
    "angles-heights-equal-in-cm": (["angles", "--heights", "0,1e-12"], _EQUAL_IN_CM),
    # dB values whose linear value overflows a float read as inf
    "simulate-gain-dbi-overflow": (["simulate", "--gain-dbi", "4000"], _LINK + "0.01, inf, inf"),
    "simulate-p-t-dbm-overflow": (["simulate", "--p-t-dbm", "1e6"], _LINK + "inf,"),
    "pattern-gain-dbi-overflow": (["pattern", "--gain-dbi", "4000"], _LINK + "0.01, inf, inf"),
    # a wavelength whose square overflows a float
    "simulate-freq-ghz-tiny": (["simulate", "--freq-ghz", "1e-300"], _WAVELENGTH + "3e+299"),
    "pattern-freq-ghz-tiny": (["pattern", "--freq-ghz", "1e-300"], _WAVELENGTH + "3e+299"),
    "fit-freq-ghz-tiny": (["fit", "--freq-ghz", "1e-300"], _WAVELENGTH + "3e+299"),
    # a radius whose receivers' path lengths overflow a float
    "simulate-radius-huge": (["simulate", "--radius", "1e170"], _PATH_LENGTH + _FAR_RX + _TOO_LONG),
    "angles-radius-huge": (["angles", "--radius", "1e170"], _PATH_LENGTH + _FAR_RX + _TOO_LONG),
    "fit-radius-huge": (["fit", "--radius", "1e170"], _PATH_LENGTH + "[1e+170, 0.0, 0.0]" + _TOO_LONG),
    # a radius whose path lengths are finite but whose (r_i r_s)^2, the divisor of element_constant, overflows
    "simulate-radius-1e154": (
        ["simulate", "--radius", "1e154"], _PATH_LENGTH + "[6.123233995736766e+137, -1e+154, 0.0]" + _TOO_LONG
    ),
    "fit-radius-1e154": (["fit", "--radius", "1e154"], _PATH_LENGTH + "[1e+154, 0.0, 0.0]" + _TOO_LONG),
    "fit-radius-nan": (["fit", "--radius", "nan"], "scan radius must be > 0 and finite, got nan"),
    "fit-p-t-dbm-nan": (["fit", "--p-t-dbm", "nan"], _LINK + "nan,"),
    "theory-freq-ghz-0": (["theory", "--freq-ghz", "0"], _FREQUENCY + "0.0"),
    # the frequency is named, not the wavelength it would give
    "theory-freq-ghz-inf": (["theory", "--freq-ghz", "inf"], _FREQUENCY + "inf"),
    "theory-freq-ghz-nan": (["theory", "--freq-ghz", "nan"], _FREQUENCY + "nan"),
    "pattern-freq-ghz-inf": (["pattern", "--freq-ghz", "inf"], _FREQUENCY + "inf"),
    "simulate-theta-deg-90": (["simulate", "--theta-deg", "90"], "theta_i_deg must be in [0, 90), got 90.0"),
    "theory-theta-step-nan": (["theory", "--theta-step", "nan"], _THETA_GRID + "1.0/89.0/nan"),
    "theory-theta-step-0": (["theory", "--theta-step", "0"], _THETA_GRID + "1.0/89.0/0.0"),
    "theory-theta-step-negative": (["theory", "--theta-step", "-1"], _THETA_GRID + "1.0/89.0/-1.0"),
    # an inverted range would write the header and no rows
    "theory-theta-inverted": (["theory", "--theta-min", "50", "--theta-max", "10"], _INVERTED),
    "pattern-theta-inverted": (["pattern", "--theta-min", "50", "--theta-max", "10"], _INVERTED),
    # an angle option outside [0, 90) is named in degrees
    "theory-theta-max-95": (["theory", "--theta-max", "95"], _THETA_RANGE + "1.0 to 95.0"),
    "theory-theta-min-negative": (["theory", "--theta-min", "-5"], _THETA_RANGE + "-5.0 to 89.0"),
    "pattern-theta-max-95": (["pattern", "--theta-max", "95"], _PATTERN_THETA_RANGE + "1.0 to 95.0"),
    # theory takes 0 degrees; lobes.pattern_sweep does not
    "pattern-theta-min-0": (["pattern", "--theta-min", "0"], _PATTERN_THETA_RANGE + "0.0 to 89.0"),
    # grids past their limits are refused before they are built
    "theory-theta-step-over-limit": (
        ["theory", "--material", "metal_sheet", "--theta-max", "11", "--theta-step", "1e-4"],
        "--theta-step 0.0001 gives 100001 angles, more than 100,000",
    ),
    "theory-theta-step-subnormal": (["theory", "--theta-step", "5e-324"], "--theta-step 5e-324 gives inf angles"),
    "simulate-step-deg-subnormal": (["simulate", "--step-deg", "5e-324"], _TINY_STEP),
    "angles-step-deg-subnormal": (["angles", "--step-deg", "5e-324"], _TINY_STEP),
    "simulate-tiles-m-tiny": (["simulate", "--tiles-m", "1e-308"], "tile edge 1e-308 m gives 19" + _TOO_MANY_TILES),
    "fit-tiles-m-tiny": (["fit", "--tiles-m", "1e-308"], "tile edge 1e-308 m gives 3" + _TOO_MANY_TILES),
}


@pytest.mark.parametrize("argv, message", list(_BAD_NUMBERS.values()), ids=list(_BAD_NUMBERS))
def test_bad_number_is_data_error_naming_it(tmp_path, capsys, argv, message):
    # each bad option comes last, so it overrides the base arguments
    base = {
        "simulate": ["--tiles-m", "0.5"],
        "fit": ["--scan", str(tmp_path / "scan.csv"), "--model", "single", "--s-initial", "0.3", "--tiles-m", "0.5"],
        "theory": [],
        "pattern": [],
        "angles": [],
    }[argv[0]]
    (tmp_path / "scan.csv").write_text(
        "angle_deg,delta_h_cm,power_dbm\n0.0,0.0,-55.0\n10.0,0.0,-58.0\n20.0,0.0,-61.0\n", encoding="utf-8"
    )
    out = tmp_path / "out.txt"
    assert run(argv[0], *base, *argv[1:], "--out", str(out)) == EXIT_DATA
    assert f"input error: {message}" in capsys.readouterr().err
    assert not out.exists()


_MATERIAL = "eps_r 5\nh_rms_mm 0.3\nthickness_cm 10\n"
# each case: the option that reads the bad file, the file's text, and the message after its path
_BAD_FILES = {
    "scene-wall-width-0": (
        "--scene", SCENE_60GHZ.replace("wall_width_m 3\n", "wall_width_m 0\n"),
        ": wall width and height must be > 0 and finite, got 0.0 and 3.0",
    ),
    "scan-header-only": ("--scan", "angle_deg,delta_h_cm,power_dbm\n", ": scan file has a header but no records"),
    "materials-record-without-name": ("--materials-file", "material\n" + _MATERIAL, ":1: material record needs a name"),
    "materials-key-before-record": (
        "--materials-file", "eps_r 5\nmaterial m\n" + _MATERIAL, ":1: eps_r outside a material record"
    ),
    "materials-key-twice": (
        "--materials-file", "material m\neps_r 6\n" + _MATERIAL, ":3: duplicate key eps_r for material 'm'"
    ),
    "materials-no-records": ("--materials-file", "# no records\n\n", ": no material records found"),
    "materials-malformed-value": (
        "--materials-file", "material m\neps_r 5\nh_rms_mm 1 mm x\nthickness_cm 10\n",
        ":3: malformed h_rms_mm value '1 mm x'",
    ),
}


@pytest.mark.parametrize("option, text, message", list(_BAD_FILES.values()), ids=list(_BAD_FILES))
def test_bad_input_file_is_data_error_naming_it(tmp_path, capsys, option, text, message):
    argv = {
        "--scene": ["simulate", "--tiles-m", "0.5"],
        "--scan": ["fit", "--model", "single", "--s-initial", "0.3", "--tiles-m", "0.5"],
        "--materials-file": ["theory"],
    }[option]
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.txt"
    assert run(*argv, option, str(path), "--out", str(out)) == EXIT_DATA
    assert f"input error: {path}{message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fit", "angles"])
def test_scene_scan_range_past_180_is_data_error(tmp_path, capsys, command):
    # fit takes no --range-deg, yet refuses the scene file as the scan commands do
    scene, scan, out = tmp_path / "scene.txt", tmp_path / "scan.csv", tmp_path / "out.txt"
    scene.write_text(SCENE_60GHZ + "scan_range_deg 200\n", encoding="utf-8")
    scan.write_text("angle_deg,delta_h_cm,power_dbm\n0.0,0.0,-55.0\n", encoding="utf-8")
    extra = ["--scan", str(scan)] if command == "fit" else []
    assert run(command, "--scene", str(scene), *extra, "--out", str(out)) == EXIT_DATA
    assert capsys.readouterr().err == f"input error: {scene}: {_RANGE_200}\n"
    assert not out.exists()


# each command, with every input file option it reads
_INPUT_OPTIONS = {
    "theory": ["--materials-file"],
    "pattern": ["--materials-file"],
    "simulate": ["--materials-file", "--scene"],
    "angles": ["--materials-file", "--scene"],
    "fit": ["--materials-file", "--scene", "--scan"],
}


def _valid_inputs(tmp_path):
    """A materials file, a scene file and a scan, each one a call could read and succeed on."""
    files = {"--materials-file": tmp_path / "materials.txt", "--scene": tmp_path / "scene.txt"}
    files["--materials-file"].write_bytes((Path(lobes.__file__).parent / "data" / "materials.txt").read_bytes())
    files["--scene"].write_text(SCENE_60GHZ, encoding="utf-8")
    files["--scan"] = tmp_path / "scan.csv"
    assert run("simulate", "--s", "0.3", "--tiles-m", "0.5", "--out", str(files["--scan"])) == EXIT_OK
    return files


def _tree(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize(
    "command, option", [(command, option) for command, options in _INPUT_OPTIONS.items() for option in options]
)
def test_output_that_is_an_input_is_refused_before_writing(tmp_path, capsys, command, option):
    files = _valid_inputs(tmp_path)
    argv = [command, option, str(files[option])]
    if command in ("simulate", "fit"):
        argv += ["--tiles-m", "0.5"]
    if command == "fit":
        argv += ["--model", "dual", "--s-initial", "0.3"]
        if option != "--scan":
            argv += ["--scan", str(files["--scan"])]
    # the same file under another spelling of its path
    out = tmp_path / "." / files[option].name
    before = _tree(tmp_path)
    assert run(*argv, "--out", str(out)) == EXIT_DATA
    assert f"input error: output {out} is the {option} input {files[option]}" in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("sibling", ["single", "dual"])
def test_fit_both_refuses_a_sibling_report_that_is_its_scan(tmp_path, capsys, sibling):
    scan = _valid_inputs(tmp_path)["--scan"]
    named = scan.rename(tmp_path / f"fit.{sibling}.csv")
    before = _tree(tmp_path)
    out = tmp_path / "fit.csv"
    assert run("fit", "--scan", str(named), "--tiles-m", "0.5", "--s-initial", "0.3", "--out", str(out)) == EXIT_DATA
    assert f"input error: output {named} is the --scan input {named}" in capsys.readouterr().err
    assert _tree(tmp_path) == before


def test_scan_with_a_byte_order_mark_fits_like_without(tmp_path):
    # spreadsheet tools save CSV as "UTF-8 with BOM"; the header digest still hashes the file's bytes
    plain = _valid_inputs(tmp_path)["--scan"]
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    reports = []
    for scan in (plain, marked):
        out = tmp_path / f"fit_{scan.stem}.txt"
        assert run("fit", "--scan", str(scan), "--model", "single", "--s-initial", "0.3", "--tiles-m", "0.5",
                   "--out", str(out)) == EXIT_OK
        header, *rows = out.read_text(encoding="utf-8").splitlines()
        assert f"scan={hashlib.sha256(scan.read_bytes()).hexdigest()[:12]}" in header
        reports.append(rows)
    assert reports[0] == reports[1]

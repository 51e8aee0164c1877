import codecs

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmscatter.fileio import (
    FileFormatError,
    Scan,
    ScanPoint,
    default_materials,
    height_m_to_cm,
    read_materials,
    read_report,
    read_scan,
    read_scene,
    write_report,
    write_scan,
)
from mmscatter.fitting import FitReport, TraceEntry
from mmscatter.lobes import LobeModel, LobeParams


def make_scan(n=19, step=10.0):
    points = tuple(
        ScanPoint(azimuth_deg=-90.0 + i * step, delta_h_cm=0.0, power_dbm=-60.0 - 0.37 * i) for i in range(n)
    )
    return Scan(points=points)


class TestScanRoundTrip:
    def test_write_read_identity(self, tmp_path):
        scan = make_scan()
        path = tmp_path / "scan.csv"
        write_scan(scan, path)
        assert read_scan(path) == scan

    def test_write_read_identity_awkward_floats(self, tmp_path):
        points = (
            ScanPoint(-12.340000000000001, 10.000000000000002, -61.23456789012346),
            ScanPoint(0.1, 0.0, -59.99999999999999),
            ScanPoint(33.3, 30.0, -77.7),
        )
        scan = Scan(points=points)
        path = tmp_path / "scan.csv"
        write_scan(scan, path)
        assert read_scan(path) == scan

    def test_rewrite_is_byte_stable(self, tmp_path):
        scan = make_scan()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_scan(scan, a)
        write_scan(read_scan(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_arc_file_count(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_scan(make_scan(), path)
        assert len(read_scan(path)) == 19

    def test_semicylinder_count(self, tmp_path):
        points = []
        for dh_cm in (0.0, 10.0, 20.0, 30.0):
            for i in range(19):
                points.append(ScanPoint(-90.0 + i * 10.0, dh_cm, -60.0 - i - dh_cm / 7.0))
        path = tmp_path / "scan.csv"
        write_scan(Scan(points=tuple(points)), path)
        assert len(read_scan(path)) == 76


class TestScanValidation:
    def test_duplicate_position_names_line(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text(
            "angle_deg,delta_h_cm,power_dbm\n30.0,0.0,-60.0\n40.0,0.0,-61.0\n30.0,0.0,-62.0\n",
            encoding="utf-8",
        )
        with pytest.raises(FileFormatError, match=r":4: duplicate"):
            read_scan(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("angle_deg,delta_h_cm,power_dbm\n30.0,0.0,-60.0\n40.0,zero,-61.0\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r":3: non-numeric"):
            read_scan(path)

    @pytest.mark.parametrize(
        "record, message",
        [
            ("0.0,1_0,-55.0", "non-numeric delta_h_cm: '1_0'"),
            ("0.0,0.0,-5_5.0", "non-numeric power_dbm: '-5_5.0'"),
            ("\u0661\u0660.0,0.0,-55.0", "non-numeric angle_deg: '\u0661\u0660.0'"),
        ],
    )
    def test_number_grammar_names_line(self, tmp_path, record, message):
        # float() alone would read 1_0 as 10 and Arabic-Indic digits as ASCII ones
        path = tmp_path / "scan.csv"
        path.write_text(f"angle_deg,delta_h_cm,power_dbm\n30.0,0.0,-60.0\n{record}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=rf":3: {message}"):
            read_scan(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text(
            "angle_deg,delta_h_cm,power_dbm\n30.0,0.0,-60.0\n40.0,0.0,-61.0\nwhat is this\n", encoding="utf-8"
        )
        with pytest.raises(FileFormatError, match=r":4:"):
            read_scan(path)

    def test_extra_fields_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("angle_deg,delta_h_cm,power_dbm\n30.0,0.0,-60.0,1.0\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r":2:"):
            read_scan(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(FileFormatError, match="empty"):
            read_scan(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("angle,dh,p\n30.0,0.0,-60.0\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="header"):
            read_scan(path)

    def test_angle_range_enforced(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("angle_deg,delta_h_cm,power_dbm\n95.0,0.0,-60.0\n10.0,0.0,-61.0\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r":2:"):
            read_scan(path)

    def test_single_point_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("angle_deg,delta_h_cm,power_dbm\n30.0,0.0,-60.0\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="at least 2"):
            read_scan(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("angle_deg,delta_h_cm,power_dbm\n30.0,0.0,nan\n40.0,0.0,-61.0\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="NaN"):
            read_scan(path)


    @pytest.mark.parametrize("record", ["40.0,0.0,inf", "40.0,0.0,-inf", "40.0,inf,-61.0", "40.0,-inf,-61.0"])
    def test_non_finite_rejected(self, tmp_path, record):
        path = tmp_path / "scan.csv"
        path.write_text(f"angle_deg,delta_h_cm,power_dbm\n30.0,0.0,-60.0\n{record}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r":3: .* must be finite"):
            read_scan(path)

    def test_split_columns_accept_minus_inf(self, tmp_path):
        # simulate writes -inf where a receiver gets no specular or no diffuse power
        path = tmp_path / "scan.csv"
        path.write_text(
            "angle_deg,delta_h_cm,power_dbm,specular_dbm,diffuse_dbm\n"
            "-90.0,0.0,-70.5,-inf,-70.5\n30.0,0.0,-40.0,-40.1,-inf\n",
            encoding="utf-8",
        )
        assert read_scan(path).powers_dbm() == [-70.5, -40.0]


finite = st.floats(allow_nan=False, allow_infinity=False)
scan_points = st.lists(
    st.builds(ScanPoint, azimuth_deg=st.floats(-90.0, 90.0), delta_h_cm=finite, power_dbm=finite),
    min_size=2,
    max_size=12,
    unique_by=lambda pt: pt.key,
)


def lobe_params():
    s_coeff = st.floats(0.0, 1.0, exclude_max=True)
    alpha = st.integers(1, 10)
    single = st.builds(LobeParams, model=st.just(LobeModel.SINGLE_LOBE), s_coeff=s_coeff, alpha_r=alpha)
    dual = st.builds(
        LobeParams, model=st.just(LobeModel.DUAL_LOBE), s_coeff=s_coeff, alpha_r=alpha, alpha_i=alpha,
        lambda_mix=st.floats(0.0, 1.0),
    )
    return single | dual


class TestFormatProperties:
    @settings(deadline=None, max_examples=60)
    @given(points=scan_points)
    def test_scan_round_trip(self, tmp_path_factory, points):
        scan = Scan(points=tuple(points))
        first = tmp_path_factory.mktemp("scan") / "a.csv"
        write_scan(scan, first)
        assert read_scan(first) == scan
        second = first.with_name("b.csv")
        write_scan(read_scan(first), second)
        assert second.read_bytes() == first.read_bytes()

    @settings(deadline=None, max_examples=60)
    @given(
        best=lobe_params(),
        fvu=finite,
        s_initial=finite,
        trace=st.lists(
            st.builds(
                TraceEntry, round=st.integers(1, 99), stage=st.sampled_from("AB"), params=lobe_params(), fvu=finite
            ),
            max_size=6,
        ),
        plane_only=st.booleans(),
        converged=st.booleans(),
    )
    def test_report_round_trip(self, tmp_path_factory, best, fvu, s_initial, trace, plane_only, converged):
        report = FitReport(
            best=best, fvu=fvu, s_initial=s_initial, trace=tuple(trace), plane_only=plane_only, converged=converged
        )
        path = tmp_path_factory.mktemp("report") / "report.txt"
        write_report(report, path, header_comment="property")
        assert read_report(path) == report

    @settings(deadline=None, max_examples=60)
    @given(points=scan_points, data=st.data())
    def test_non_finite_scan_value_raises(self, tmp_path_factory, points, data):
        path = tmp_path_factory.mktemp("scan") / "scan.csv"
        write_scan(Scan(points=tuple(points)), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        row = data.draw(st.integers(1, len(points)))
        column = data.draw(st.integers(0, 2))
        fields = lines[row].split(",")
        fields[column] = data.draw(st.sampled_from(["inf", "-inf", "nan", "Infinity"]))
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=rf":{row + 1}:"):
            read_scan(path)


class TestHeightConversion:
    def test_common_heights_round_trip_exactly(self):
        for h_m in (0.0, 0.10, 0.20, 0.30):
            cm = height_m_to_cm(h_m)
            assert cm * 0.01 == h_m
            assert ScanPoint(0.0, cm, -60.0).delta_h_m == h_m


class TestMaterialsFile:
    def test_shipped_table_values_exact(self, materials_db):
        # all 12 stored cells: names plus two numeric fields per row
        expected = {
            "metal_sheet": (6.0, 0.170 * 1e-3),
            "marble_wall": (6.2, 0.216 * 1e-3),
            "smooth_wall": (5.8, 0.445 * 1e-3),
            "rough_wall": (10.5, 0.715 * 1e-3),
        }
        assert sorted(materials_db.names()) == sorted(expected)
        for name, (eps, h_rms) in expected.items():
            material = materials_db.get(name)
            assert material.eps_r == eps
            assert material.h_rms == h_rms

    def test_explicit_unit_suffixes(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text(
            "material demo\neps_r 4.0\nh_rms_mm 0.5 mm\nthickness_cm 32 cm\n", encoding="utf-8"
        )
        db = read_materials(path)
        mat = db.get("demo")
        assert mat.h_rms == 0.5 * 1e-3

    def test_meter_suffix(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("material demo\neps_r 4.0\nh_rms_mm 0.0005 m\nthickness_cm 0.32 m\n", encoding="utf-8")
        mat = read_materials(path).get("demo")
        assert mat.h_rms == 0.0005

    @pytest.mark.parametrize(
        "record, message",
        [("thickness_cm 0", "thickness_cm must be > 0 m"), ("thickness_cm -3 mm", "thickness_cm must be > 0 m"),
         ("thickness_cm 32 in", "unknown unit 'in' for thickness_cm")],
    )
    def test_unused_thickness_still_validated(self, tmp_path, record, message):
        path = tmp_path / "mat.txt"
        path.write_text(f"material demo\neps_r 4.0\nh_rms_mm 0.5\n{record}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=rf":4: {message}"):
            read_materials(path)

    @pytest.mark.parametrize("lineno, record", [(2, "eps_r inf"), (3, "h_rms_mm -inf"), (4, "thickness_cm inf cm")])
    def test_infinite_value_rejected(self, tmp_path, lineno, record):
        fields = ["eps_r 4.0", "h_rms_mm 0.5", "thickness_cm 32"]
        fields[lineno - 2] = record
        path = tmp_path / "mat.txt"
        path.write_text("material demo\n" + "\n".join(fields) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=rf":{lineno}: {record.split()[0]} must be finite"):
            read_materials(path)

    def test_validation_errors(self, tmp_path):
        bad_eps = tmp_path / "a.txt"
        bad_eps.write_text("material demo\neps_r 0.5\nh_rms_mm 0.5\nthickness_cm 32\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="eps_r"):
            read_materials(bad_eps)

        unknown_key = tmp_path / "b.txt"
        unknown_key.write_text("material demo\neps_r 4.0\ncolor blue\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r":3: unknown key"):
            read_materials(unknown_key)

        missing = tmp_path / "c.txt"
        missing.write_text("material demo\neps_r 4.0\nh_rms_mm 0.5\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="missing"):
            read_materials(missing)

        non_numeric = tmp_path / "d.txt"
        non_numeric.write_text("material demo\neps_r four\nh_rms_mm 0.5\nthickness_cm 32\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="non-numeric"):
            read_materials(non_numeric)

        underscore = tmp_path / "d2.txt"
        underscore.write_text("material demo\neps_r 4_0\nh_rms_mm 0.5\nthickness_cm 32\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r":2: non-numeric eps_r: '4_0'"):
            read_materials(underscore)

        duplicate = tmp_path / "e.txt"
        duplicate.write_text(
            "material demo\neps_r 4.0\nh_rms_mm 0.5\nthickness_cm 32\n"
            "material demo\neps_r 5.0\nh_rms_mm 0.5\nthickness_cm 32\n",
            encoding="utf-8",
        )
        with pytest.raises(FileFormatError, match="duplicate material"):
            read_materials(duplicate)


class TestReportRoundTrip:
    def _report(self, model):
        if model is LobeModel.SINGLE_LOBE:
            best = LobeParams(model=model, s_coeff=0.3, alpha_r=4)
            other = LobeParams(model=model, s_coeff=0.25, alpha_r=7)
        else:
            best = LobeParams(model=model, s_coeff=0.3, alpha_r=4, alpha_i=9, lambda_mix=0.2)
            other = LobeParams(model=model, s_coeff=0.25, alpha_r=7, alpha_i=2, lambda_mix=0.7)
        trace = (
            TraceEntry(round=1, stage="A", params=other, fvu=0.4243),
            TraceEntry(round=1, stage="B", params=best, fvu=0.012345678901234567),
        )
        return FitReport(best=best, fvu=0.012345678901234567, s_initial=0.35, trace=trace, plane_only=True, converged=False)

    @pytest.mark.parametrize("model", [LobeModel.SINGLE_LOBE, LobeModel.DUAL_LOBE])
    def test_identity(self, tmp_path, model):
        report = self._report(model)
        path = tmp_path / "report.txt"
        write_report(report, path, header_comment="test run")
        assert read_report(path) == report

    def test_trace_rows_match_declared_count(self, tmp_path):
        report = self._report(LobeModel.DUAL_LOBE)
        path = tmp_path / "report.txt"
        write_report(report, path)
        text = path.read_text(encoding="utf-8")
        declared = int([ln for ln in text.splitlines() if ln.startswith("trace ")][0].split()[1])
        assert declared == len(report.trace) == 2

    def test_initial_and_best_s_are_separate(self, tmp_path):
        report = self._report(LobeModel.SINGLE_LOBE)
        path = tmp_path / "report.txt"
        write_report(report, path)
        loaded = read_report(path)
        assert loaded.s_initial == 0.35
        assert loaded.best.s_coeff == 0.3
        assert loaded.s_initial != loaded.best.s_coeff

    def test_count_mismatch_rejected(self, tmp_path):
        report = self._report(LobeModel.SINGLE_LOBE)
        path = tmp_path / "report.txt"
        write_report(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [ln for ln in lines if not ln.startswith("1 B")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="trace row count"):
            read_report(path)


    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "report.txt"
        write_report(self._report(LobeModel.DUAL_LOBE), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(2, "fvu 0.5")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r"report\.txt:3: duplicate key fvu"):
            read_report(path)

    @pytest.mark.parametrize(
        "lineno, line, message",
        [
            (1, "best dual 0.3 4.7 9 0.2", "non-integer alpha_r: '4.7'"),
            (1, "best dual 0.3 4 1_0 0.2", "non-integer alpha_i: '1_0'"),
            (1, "best dual 0_3 4 9 0.2", "non-numeric s_coeff: '0_3'"),
            (8, "1 A dual 0.25 7 2 0.7 0.4_243", "non-numeric fvu: '0.4_243'"),
            (1, "best dual 1.5 4 9 0.2", r"s_coeff must be in \[0, 1\)"),
            (8, "1.5 A dual 0.25 7 2 0.7 0.4243", "non-integer round: '1.5'"),
        ],
    )
    def test_bad_value_names_its_line(self, tmp_path, lineno, line, message):
        path = tmp_path / "report.txt"
        write_report(self._report(LobeModel.DUAL_LOBE), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[lineno - 1] = line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=rf"report\.txt:{lineno}: {message}"):
            read_report(path)

    @pytest.mark.parametrize("value", ["a\nb.csv", "a\r\nb.csv", "a\rb.csv"])
    def test_line_break_stays_inside_the_header_comment(self, tmp_path, value):
        # a path with a line break, written into the header comment, must not start a data line
        comment = f"mmscatter | out={value} | extent=tile-area"
        scan_path, report_path = tmp_path / "scan.csv", tmp_path / "report.txt"
        write_scan(make_scan(), scan_path, header_comment=comment)
        report = self._report(LobeModel.DUAL_LOBE)
        write_report(report, report_path, header_comment=comment)
        assert read_scan(scan_path) == make_scan()
        assert read_report(report_path) == report
        escaped = comment.replace("\r", "\\r").replace("\n", "\\n")
        for path in (scan_path, report_path):
            assert path.read_bytes().split(b"\n")[0] == f"# {escaped}".encode()

    def test_header_comment_without_line_break_keeps_its_bytes(self, tmp_path):
        comment = "mmscatter | out=C:\\scans\\a.csv | tab\there"
        path = tmp_path / "scan.csv"
        write_scan(make_scan(), path, header_comment=comment)
        assert path.read_bytes().split(b"\n")[0] == f"# {comment}".encode()


class TestSceneFile:
    def test_parse_with_scan_spec(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text(
            "# demo scene\n"
            "material rough_wall\n"
            "frequency_ghz 28\n"
            "wall_center 0 0 0\n"
            "wall_normal 1 0 0\n"
            "wall_width_m 3\n"
            "wall_height_m 3\n"
            "tx 1.299038105676658 -0.75 0\n"
            "scan_radius_m 1.5\n"
            "scan_step_deg 10\n"
            "scan_range_deg 180\n"
            "scan_heights_m 0 0.1 0.2 0.3\n",
            encoding="utf-8",
        )
        scene, spec = read_scene(path)
        assert scene.wall.material == "rough_wall"
        assert scene.carrier_frequency == 28e9
        assert spec is not None
        assert spec.height_offsets == (0.0, 0.1, 0.2, 0.3)

    def test_parse_without_scan_spec(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text(
            "material rough_wall\nfrequency_ghz 28\nwall_center 0 0 0\nwall_normal 1 0 0\n"
            "wall_width_m 3\nwall_height_m 3\ntx 1.3 -0.75 0\n",
            encoding="utf-8",
        )
        scene, spec = read_scene(path)
        assert spec is None

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("material rough_wall\nfrequency_ghz 28\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="missing keys"):
            read_scene(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("material rough_wall\nwibble 3\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r":2: unknown key"):
            read_scene(path)

    @pytest.mark.parametrize(
        "line, lineno",
        [("frequency_ghz inf", 2), ("tx 1.3 -inf 0", 7), ("scan_radius_m inf", 8), ("scan_heights_m 0 inf", 8)],
    )
    def test_infinite_value_rejected(self, tmp_path, line, lineno):
        lines = ["material rough_wall", "frequency_ghz 28", "wall_center 0 0 0", "wall_normal 1 0 0",
                 "wall_width_m 3", "wall_height_m 3", "tx 1.3 -0.75 0"]
        key = line.split()[0]
        lines = [ln for ln in lines if ln.split()[0] != key]
        lines.insert(lineno - 1, line)
        path = tmp_path / "scene.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=rf":{lineno}: {key} must be finite"):
            read_scene(path)

    @pytest.mark.parametrize("line", ["frequency_ghz 60", "tx 1.3 0.75 0"])
    def test_repeated_key_rejected(self, tmp_path, line):
        path = tmp_path / "scene.txt"
        path.write_text(
            "material rough_wall\nfrequency_ghz 28\nwall_center 0 0 0\nwall_normal 1 0 0\n"
            f"wall_width_m 3\nwall_height_m 3\ntx 1.3 -0.75 0\n{line}\n",
            encoding="utf-8",
        )
        with pytest.raises(FileFormatError, match=rf"scene\.txt:8: duplicate key {line.split()[0]}"):
            read_scene(path)

    def test_bad_vector(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("wall_center 0 0\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="3 components"):
            read_scene(path)


class TestDefaultDatabase:
    def test_loads_and_counts(self):
        db = default_materials()
        assert len(db) == 4


class TestReportLayout:
    """read_report reads exactly write_report's layout: the keys, `trace N`,
    one column header, then the rows."""

    def _lines(self, tmp_path, trace_len=2):
        params = LobeParams(model=LobeModel.SINGLE_LOBE, s_coeff=0.3, alpha_r=4)
        trace = tuple(TraceEntry(round=1, stage="AB"[k % 2], params=params, fvu=0.25) for k in range(trace_len))
        report = FitReport(best=params, fvu=0.25, s_initial=0.35, trace=trace, plane_only=False, converged=True)
        path = tmp_path / "report.txt"
        write_report(report, path)
        return path, path.read_text(encoding="utf-8").splitlines()

    # lines 1-5 are the keys, 6 is `trace 2`, 7 the column header, 8 and 9 the rows
    @pytest.mark.parametrize(
        "edit, lineno, message",
        [
            (lambda ls: ls[:6] + ls[7:], 7, "expected the trace column header"),
            (lambda ls: ls[:7] + ls[6:7] * 2 + ls[7:], 8, "repeated trace column header"),
            (lambda ls: ls[:8] + ls[6:7] + ls[8:], 9, "repeated trace column header"),
            (lambda ls: ls[:5] + ls[6:7] + ls[5:6] + ls[7:], 6, "unknown key 'round'"),
            (lambda ls: ls[:7] + [ls[7].replace(" A ", " Q ")] + ls[8:], 8, "trace stage must be A or B, got 'Q'"),
            (lambda ls: [ls[0].replace(" single ", " triple ")] + ls[1:], 1, "unknown model 'triple'"),
            (lambda ls: [ls[0].rsplit(" ", 1)[0]] + ls[1:], 1, "malformed best-parameters line"),
            (lambda ls: ls[:3] + ["plane_only maybe"] + ls[4:], 4, "plane_only must be true or false, got 'maybe'"),
        ],
        ids=[
            "header-missing", "header-three-times", "header-mid-trace", "header-before-trace", "stage-Q",
            "unknown-model", "best-four-tokens", "plane-only-maybe",
        ],
    )
    def test_layout_error_names_its_line(self, tmp_path, edit, lineno, message):
        path, lines = self._lines(tmp_path)
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=rf"report\.txt:{lineno}: {message}"):
            read_report(path)

    def test_missing_key_is_named(self, tmp_path):
        path, lines = self._lines(tmp_path)
        assert lines[1].startswith("fvu ")
        path.write_text("\n".join(lines[:1] + lines[2:]) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r"report\.txt: missing keys: fvu$"):
            read_report(path)

    def test_header_missing_after_empty_trace(self, tmp_path):
        path, lines = self._lines(tmp_path, trace_len=0)
        assert lines[-2:] == ["trace 0", "round stage model s_coeff alpha_r alpha_i lambda_mix fvu"]
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r"report\.txt:6: expected the trace column header"):
            read_report(path)


SCENE_TEXT = (
    "material rough_wall\nfrequency_ghz 28\nwall_center 0 0 0\nwall_normal 1 0 0\n"
    "wall_width_m 3\nwall_height_m 3\ntx 1.3 -0.75 0\nscan_heights_m 0 0.1\n"
)


def _scene_view(path):
    scene, spec = read_scene(path)
    return scene.wall.material, scene.carrier_frequency, scene.tx.tolist(), scene.wall.normal.tolist(), spec


class TestLineGrammar:
    """Every reader skips blank lines and `#` comments, indented or not, and
    counts them in its line numbers."""

    def _write(self, fmt, path):
        if fmt == "scan":
            write_scan(make_scan(n=3), path)
            return read_scan
        if fmt == "report":
            params = LobeParams(model=LobeModel.SINGLE_LOBE, s_coeff=0.3, alpha_r=4)
            trace = (TraceEntry(round=1, stage="A", params=params, fvu=0.5),) * 2
            write_report(FitReport(params, 0.5, 0.35, trace, plane_only=False, converged=True), path)
            return read_report
        if fmt == "materials":
            path.write_text("material demo\neps_r 4.0\nh_rms_mm 0.5\nthickness_cm 32\n", encoding="utf-8")
            return lambda p: read_materials(p).get("demo")
        path.write_text(SCENE_TEXT, encoding="utf-8")
        return _scene_view

    @pytest.mark.parametrize("fmt", ["scan", "materials", "scene", "report"])
    def test_blank_lines_and_indented_comments_are_skipped(self, tmp_path, fmt):
        plain, padded = tmp_path / "plain.txt", tmp_path / "padded.txt"
        read = self._write(fmt, plain)
        lines = plain.read_text(encoding="utf-8").splitlines()
        lines = [lines[0], "", "   # an indented note", *lines[1:-1], " \t", "\t# a tabbed note", lines[-1], ""]
        padded.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read(padded) == read(plain)

    @pytest.mark.parametrize("fmt", ["scan", "materials", "scene", "report"])
    def test_a_utf8_byte_order_mark_is_dropped(self, tmp_path, fmt):
        # spreadsheet tools save text as "UTF-8 with BOM"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        read = self._write(fmt, plain)
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert read(marked) == read(plain)

    @pytest.mark.parametrize(
        "fmt, bad, message",
        [
            ("scan", "10.0,0.0", "expected 3 fields, got 2"),
            ("materials", "wibble 3", "unknown key 'wibble'"),
            ("scene", "wibble 3", "unknown key 'wibble'"),
            ("report", "1 A single 0.3 4 - -", "expected 8 trace fields, got 7"),
        ],
    )
    def test_line_numbers_count_skipped_lines(self, tmp_path, fmt, bad, message):
        path = tmp_path / "file.txt"
        self._write(fmt, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([*lines, "", "  # note", bad]) + "\n", encoding="utf-8")
        read = {"scan": read_scan, "materials": read_materials, "scene": read_scene, "report": read_report}[fmt]
        with pytest.raises(FileFormatError, match=rf"file\.txt:{len(lines) + 3}: {message}"):
            read(path)


def test_scene_with_repeated_scan_height_rejected(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text(SCENE_TEXT.replace("scan_heights_m 0 0.1", "scan_heights_m 0 0.1 0"), encoding="utf-8")
    with pytest.raises(FileFormatError, match=r"scene\.txt: height offsets must be distinct, got \(0\.0, 0\.1, 0\.0\)"):
        read_scene(path)

import csv
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperstab import (
    FeedbackLaw,
    Grid,
    IntegralOperator,
    ScenarioError,
    build_kernel,
    cli,
    load_scenario,
    simulator,
)
from hyperstab.cli import main
from tests.conftest import assert_same_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

S3_TEXT = (SCENARIOS / "s3.cfg").read_text()
PLANT_TEXT = (SCENARIOS / "plant_demo.cfg").read_text()


def write_cfg(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


RIESZ_CELLS = 16


def riesz_scenario(tmp_path, extra_row=None):
    """S3 under upwind with riesz feedback f_11 = 1 from ``f.csv``, which
    ends in ``extra_row`` if one is given."""
    rows = ["i,j,y,value"] + [f"1,1,{q / RIESZ_CELLS},1.0" for q in range(RIESZ_CELLS + 1)]
    if extra_row is not None:
        rows.append(extra_row)
    (tmp_path / "f.csv").write_text("\n".join(rows) + "\n")
    cfg = S3_TEXT.replace("feedback = fredholm", "feedback = riesz:f.csv")
    cfg = cfg.replace("grid.cells = 200", f"grid.cells = {RIESZ_CELLS}")
    cfg = cfg.replace("scheme = integer_shift", "scheme = upwind")
    return write_cfg(tmp_path, cfg)


class TestLoadScenario:
    def test_bundled_s3_valid(self):
        scn = load_scenario(SCENARIOS / "s3.cfg")
        assert (scn.name, scn.n, scn.m) == ("s3", 3, 2)
        assert scn.scheme == "integer_shift"
        assert scn.feedback_kind == "fredholm"
        assert scn.resolve_dt(Grid(200)) == pytest.approx(1 / 200)
        sys_ = scn.system()
        assert sys_.q.tolist() == [[1.0, 1.0]]
        state = scn.initial_state(scn.grid())
        assert state.sup_norm() > 0.0

    def test_bundled_plant_demo_valid(self):
        scn = load_scenario(SCENARIOS / "plant_demo.cfg")
        assert scn.dynamics == "plant"
        assert scn.system().sigma

    def test_m_equals_n_rejected(self, tmp_path):
        bad = S3_TEXT.replace("system.m = 2", "system.m = 3")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_cfg(tmp_path, bad))
        assert any("system.m" in v for v in err.value.violations)

    def test_missing_dt_with_integer_shift(self, tmp_path):
        bad = S3_TEXT.replace("dt = 1*dx\n", "")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_cfg(tmp_path, bad))
        assert any(v.startswith("dt:") for v in err.value.violations)

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_cfg(tmp_path, "system.n = 3\nnot a key value\n"))
        assert any("line 2" in v for v in err.value.violations)

    def test_unknown_field_reported(self, tmp_path):
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_cfg(tmp_path, S3_TEXT + "\nwhatever = 1\n"))
        assert any("whatever" in v for v in err.value.violations)

    def test_sigma_rejected_for_targets(self, tmp_path):
        bad = S3_TEXT + "\nsigma.1.2 = constant:1\n"
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_cfg(tmp_path, bad))
        assert any("sigma" in v for v in err.value.violations)

    def test_speed_ordering_violation_rejected(self, tmp_path):
        bad = S3_TEXT.replace("speed.1 = constant:-2", "speed.1 = constant:-1")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_cfg(tmp_path, bad))
        assert any("speeds" in v for v in err.value.violations)

    def test_cascade_band_violation(self, tmp_path):
        bad = S3_TEXT + "\ng.2.2 = constant:1\n"
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_cfg(tmp_path, bad))
        assert any("g.2.2" in v for v in err.value.violations)

    # one line appended to S3 (n = 3, m = 2), or to plant_demo (the same n
    # and m) for sigma, which needs plant dynamics: an index its section's
    # rule refuses, an entry an earlier key already names under another
    # spelling of its index, or a key no section parses
    @pytest.mark.parametrize("line, violation", [
        ("speed.4 = constant:5", "speed.4: component outside 1..3"),
        ("speed.0 = constant:5", "speed.0: component outside 1..3"),
        ("speed.01 = constant:-3", "speed.1: names the same entry as speed.01"),
        ("g.02.1 = constant:5", "g.2.1: names the same entry as g.02.1"),
        ("q.01.1 = 7", "q.1.1: names the same entry as q.01.1"),
        ("init.03 = constant:1", "init.3: names the same entry as init.03"),
        ("q.2.1 = 1", "q.2.1: outside the 1x2 coupling shape"),
        ("g.1.1 = constant:1", "g.1.1: outside the strictly-lower cascade band"),
        ("g.2.2 = constant:1", "g.2.2: outside the strictly-lower cascade band"),
        ("g.2.3 = constant:1", "g.2.3: outside the strictly-lower cascade band"),
        ("sigma.4.1 = constant:1", "sigma.4.1: outside the 3x3 matrix"),
        ("init.0 = bump", "init.0: component outside 1..3"),
        ("init.4 = bump", "init.4: component outside 1..3"),
        ("speed.x = constant:5", "speed.x: unknown field"),
        ("g.2 = constant:1", "g.2: unknown field"),
        ("speed.1.2 = constant:5", "speed.1.2: unknown field"),
        # a superscript two is a digit to str.isdigit, but int() refuses it
        ("speed.\u00b2 = constant:5", "speed.\u00b2: unknown field"),
        ("g..1 = constant:1", "g..1: unknown field"),
    ])
    def test_stray_or_repeated_index_rejected(self, tmp_path, capsys, line, violation):
        base = PLANT_TEXT if line.startswith("sigma.") else S3_TEXT
        path = write_cfg(tmp_path, base + "\n" + line + "\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.violations == [violation]
        assert main(["verify", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "[case] configuration error:", f"[case]   {violation}"]

    # the name is the output directory below --out
    @pytest.mark.parametrize("name", ["../escaped", "/tmp/escaped", "a/b", "a\\b", ".", "..", ""])
    def test_name_not_one_path_component_rejected(self, tmp_path, capsys, name):
        path = write_cfg(tmp_path, S3_TEXT.replace("name = s3", f"name = {name}"))
        violation = f"name: need one plain path component, got {name!r}"
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.violations == [violation]
        out = tmp_path / "out"
        assert main(["synthesize", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "[case] configuration error:", f"[case]   {violation}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["case.cfg"]

    @pytest.mark.parametrize("name", ["verify_s3", "s3.v2", "..s3"])
    def test_plain_name_accepted(self, tmp_path, name):
        path = write_cfg(tmp_path, S3_TEXT.replace("name = s3", f"name = {name}"))
        assert load_scenario(path).name == name

    def test_initial_presets_deterministic(self):
        scn = load_scenario(SCENARIOS / "plant_demo.cfg")
        grid = scn.grid()
        a = scn.initial_state(grid)
        b = scn.initial_state(grid)
        assert np.array_equal(a.data, b.data)

    def test_random_preset_requires_seed(self, tmp_path):
        bad = S3_TEXT.replace("init.1 = bump", "init.1 = random")
        bad = bad.replace("init.seed = 7\n", "")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_cfg(tmp_path, bad))
        assert any("init.seed" in v for v in err.value.violations)

    def test_z_target_pins_zero_feedback(self, tmp_path):
        bad = S3_TEXT.replace("dynamics = gamma_target", "dynamics = z_target")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_cfg(tmp_path, bad))
        assert any("feedback" in v for v in err.value.violations)

    def test_plant_with_fredholm_feedback_rejected(self, tmp_path):
        # the fredholm law is the gamma target's; no Volterra stage maps the
        # plant onto that target, so the law would not be the paper's
        bad = (SCENARIOS / "plant_demo.cfg").read_text().replace(
            "feedback = zero", "feedback = fredholm")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_cfg(tmp_path, bad))
        assert any("fredholm" in v and "Volterra" in v for v in err.value.violations)

    def test_riesz_feedback_tables_load(self, tmp_path):
        scn = load_scenario(riesz_scenario(tmp_path))
        tables = scn.load_riesz_tables(scn.grid())
        assert tables.shape == (2, 3, RIESZ_CELLS + 1)
        assert np.all(tables[0, 0] == 1.0)
        assert np.all(tables[1] == 0.0)

    @pytest.mark.parametrize("row", [
        "0,1,0.5,1.0",  # i below 1
        "3,1,0.5,1.0",  # i above m = 2
        "1,0,0.5,1.0",  # j below 1
        "1,4,0.5,1.0",  # j above n = 3
        "1,1,1.5,1.0",  # y above 1
        "1,1,-0.1,1.0",  # y below 0
        "1,x,0.5,1.0",  # non-numeric index
        "1,1,0.5,one",  # non-numeric value
        "1,1,0.5,nan",  # non-finite value
        "1,1,0.5",  # missing field
    ])
    def test_riesz_bad_row_names_file_and_line(self, tmp_path, row):
        scn = load_scenario(riesz_scenario(tmp_path, row))
        with pytest.raises(ScenarioError) as err:
            scn.load_riesz_tables(scn.grid())
        [violation] = err.value.violations
        assert f"{tmp_path / 'f.csv'} line {RIESZ_CELLS + 3}:" in violation

    def test_riesz_colliding_rows_rejected(self, tmp_path):
        # y = 0.5 snaps to node 8 of N = 16, which the row on line 10 set
        scn = load_scenario(riesz_scenario(tmp_path, "1,1,0.51,2.0"))
        with pytest.raises(ScenarioError) as err:
            scn.load_riesz_tables(scn.grid())
        [violation] = err.value.violations
        assert f"line {RIESZ_CELLS + 3}:" in violation
        assert "node 8 " in violation and "line 10 " in violation

    def test_riesz_finer_table_rejected_on_coarse_grid(self, tmp_path):
        # f(y) = y on 201 nodes: loaded at N = 16 the later rows used to
        # overwrite the earlier ones, giving f(0) = 0.03
        rows = ["i,j,y,value"] + [f"1,1,{k / 200},{k / 200}" for k in range(201)]
        scn = load_scenario(riesz_scenario(tmp_path))
        (tmp_path / "f.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ScenarioError) as err:
            scn.load_riesz_tables(Grid(16))
        assert len(err.value.violations) == 201 - 17
        assert "line 3:" in err.value.violations[0]
        assert "node 0 " in err.value.violations[0] and "line 2 " in err.value.violations[0]

    def test_riesz_bad_row_exits_2(self, tmp_path, capsys):
        path = riesz_scenario(tmp_path, "1,1,1.5,1.0")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"line {RIESZ_CELLS + 3}" in capsys.readouterr().err


    # a riesz path naming a directory, the scenario's own for an empty path,
    # is refused at load, so synthesize refuses it as simulate does
    @pytest.mark.parametrize("target", ["", "tables"])
    def test_riesz_path_not_a_file_rejected(self, tmp_path, capsys, target):
        (tmp_path / "tables").mkdir()
        path = write_cfg(tmp_path, S3_TEXT.replace("feedback = fredholm",
                                                   f"feedback = riesz:{target}"))
        violation = f"feedback: riesz table file {tmp_path / target} not found or not a file"
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.violations == [violation]
        for command in ("synthesize", "simulate"):
            assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "[case] configuration error:", f"[case]   {violation}"]

    def test_run_time_error_one_line_per_violation(self, tmp_path, capsys):
        rows = "\n".join(["0,1,0.5,1.0", "1,1,1.5,1.0", "1,1,0.5,nan"])
        path = riesz_scenario(tmp_path, rows)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "[s3] configuration error:"
        assert [line.split(" line ")[1][:3] for line in err[1:]] == ["19:", "20:", "21:"]
        assert all(line.startswith("[s3]   feedback: riesz file ") for line in err[1:])

    # each line replaces ``old`` in the bundled scenario; ``bad`` is the
    # number the error must quote, ``samples.txt`` holding 1e999 (inf)
    @pytest.mark.parametrize("base, old, new, bad", [
        ("s3", "t_final = 3.0", "t_final = inf", "inf"),
        ("s3", "dt = 1*dx", "dt = nan", "nan"),
        ("s3", "dt = 1*dx", "dt = 1e999*dx", "1e999*dx"),
        ("s3", "q.1.1 = 1", "q.1.1 = nan", "nan"),
        ("s3", "speed.3 = constant:1", "speed.3 = constant:inf", "inf"),
        ("plant_demo", "speed.2 = affine:-1,-0.5", "speed.2 = affine:-1,nan", "nan"),
        ("s3", "g.2.1 = constant:1", "g.2.1 = constant:inf", "inf"),
        ("s3", "g.3.2 = constant:1", "g.3.2 = poly:1,-inf", "-inf"),
        ("s3", "g.3.1 = constant:1", "g.3.1 = table:samples.txt", "1e999"),
        ("plant_demo", "sigma.1.2 = constant:0.3", "sigma.1.2 = constant:nan", "nan"),
        ("plant_demo", "sigma.2.1 = affine:0.2,0.1", "sigma.2.1 = table:samples.txt", "1e999"),
        ("s3", "init.1 = bump", "init.1 = random:inf", "inf"),
        ("s3", "init.1 = bump", "init.1 = constant:nan", "nan"),
        ("s3", "init.2 = bump", "init.2 = bump:-inf", "-inf"),
        ("s3", "init.3 = bump", "init.3 = table:samples.txt", "1e999"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, base, old, new, bad):
        (tmp_path / "samples.txt").write_text("0.5\n1e999\n0.25\n")
        text = (SCENARIOS / f"{base}.cfg").read_text()
        assert old in text
        path = write_cfg(tmp_path, text.replace(old, new))
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        [violation] = err.value.violations
        assert violation.startswith(new.split(" = ")[0] + ": ")
        assert f"'{bad}'" in violation
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err

    # each case replaces ``old`` in the bundled S3 scenario by ``new``
    @pytest.mark.parametrize("old, new, violations", [
        ("grid.cells = 200", "grid.cells = 4", ["grid.cells: grid needs at least 8 cells, got 4"]),
        ("system.n = 3", "system.n = 1",
         ["system.n: need n >= 2, got 1", "system.m: need 1 <= m <= n-1 = 0, got 2"]),
        ("dynamics = gamma_target", "dynamics = open_loop",
         ["dynamics: expected one of ('plant', 'gamma_target', 'z_target'), got 'open_loop'"]),
        ("scheme = integer_shift", "scheme = lax_wendroff",
         ["scheme: expected one of ('upwind', 'integer_shift'), got 'lax_wendroff'"]),
        ("feedback = fredholm", "feedback = volterra",
         ["feedback: expected one of ('zero', 'riesz', 'fredholm'), got 'volterra'"]),
        ("grid.cells = 200", "grid.cells = 2.5", ["grid.cells: not an integer ('2.5')"]),
        ("init.seed = 7", "init.seed = -3", ["init.seed: must be >= 0, got -3"]),
        ("t_final = 3.0", "t_final = 0", ["t_final: must be positive, got 0.0"]),
        ("dt = 1*dx", "dt = -1*dx", ["dt: must be positive, got '-1*dx'"]),
        ("t_final = 3.0\n", "", ["t_final: required field missing"]),
        ("feedback = fredholm", "feedback = riesz",
         ["feedback: riesz needs a file, use riesz:<csv path>"]),
        ("dt = 1*dx", "dt = 1*dy", ["dt: expected a finite number or 'K*dx', got '1*dy'"]),
        ("init.1 = bump", "init.1 = wave", ["init.1: unknown initial-data form 'wave'"]),
        ("g.2.1 = constant:1", "g.2.1 = cubic:1", ["g.2.1: unknown profile form 'cubic:1'"]),
    ])
    def test_plain_key_violation(self, tmp_path, old, new, violations):
        assert old in S3_TEXT
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_cfg(tmp_path, S3_TEXT.replace(old, new)))
        assert err.value.violations == violations


class TestCliSynthesize:
    def test_s3_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["synthesize", str(SCENARIOS / "s3.cfg"), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "T_opt = 2.0" in text
        assert "t_F = 2.5" in text
        kernel_csv = out / "s3" / "kernel.csv"
        with open(kernel_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "j", "x", "y", "value"]
        hits = [
            r for r in rows[1:]
            if r[0] == "2" and r[1] == "1" and float(r[2]) == 1.0 and float(r[3]) == 1.0
        ]
        assert len(hits) == 1
        assert float(hits[0][4]) == pytest.approx(0.5, abs=1e-12)
        assert (out / "s3" / "inverse_kernel.csv").exists()
        trace = (out / "s3" / "feedback_trace.csv").read_text().splitlines()
        assert trace[0] == "i,j,x,y,value"
        assert all(line.split(",")[2] == "1" for line in trace[1:])
        x_one = [line for line in kernel_csv.read_text().splitlines()[1:]
                 if line.split(",")[2] == "1"]
        assert len(x_one) == 201  # the one entry k21 on 201 y nodes
        assert trace[1:] == x_one

    def test_empty_cascade_gives_empty_tables(self, tmp_path, capsys):
        cfg = S3_TEXT.replace("name = s3", "name = empty_g")
        for key in ("g.2.1 = constant:1\n", "g.3.1 = constant:1\n", "g.3.2 = constant:1\n"):
            cfg = cfg.replace(key, "")
        cfg = cfg.replace("feedback = fredholm", "feedback = zero")
        path = write_cfg(tmp_path, cfg, "empty_g.cfg")
        out = tmp_path / "out"
        rc = main(["synthesize", str(path), "--out", str(out)])
        assert rc == 0
        assert (out / "empty_g" / "kernel.csv").read_text() == "i,j,x,y,value\n"
        assert (out / "empty_g" / "feedback_trace.csv").read_text() == "i,j,x,y,value\n"

    def test_synthesize_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synthesize", str(SCENARIOS / "s3.cfg"), "--out", str(out1), "--quiet"]) == 0
        assert main(["synthesize", str(SCENARIOS / "s3.cfg"), "--out", str(out2), "--quiet"]) == 0
        for name in ("kernel.csv", "inverse_kernel.csv", "feedback_trace.csv"):
            assert (out1 / "s3" / name).read_bytes() == (out2 / "s3" / name).read_bytes()

    def test_simulate_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", str(SCENARIOS / "plant_demo.cfg"),
                         "--out", str(out), "--quiet"]) == 0
        for name in ("trajectory.csv", "norms.csv"):
            assert (out1 / "plant_demo" / name).read_bytes() == \
                (out2 / "plant_demo" / name).read_bytes()


class TestCliSimulate:
    def test_s3_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", str(SCENARIOS / "s3.cfg"), "--out", str(out)])
        assert rc == 0
        assert (out / "s3" / "trajectory.csv").exists()
        norms = (out / "s3" / "norms.csv").read_text().splitlines()
        assert norms[0] == "t,block,sup_norm,l2_norm"
        # the optimal loop is numerically dead well before t_final = 3
        last = norms[-1].split(",")
        assert float(last[2]) <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_source_finite_l2(self, tmp_path):
        # the state stays finite, but its squares overflow the L2 sums
        path = write_cfg(tmp_path, S3_TEXT.replace("g.2.1 = constant:1\n",
                                                   "g.2.1 = constant:1e300\n"), "s3.cfg")
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out), "--quiet"]) == 0
        norms = (out / "s3" / "norms.csv").read_text()
        assert "inf" not in norms
        assert max(float(line.split(",")[3]) for line in norms.splitlines()[1:]) > 1e297

    def test_fredholm_law_built_without_kernel(self, tmp_path, monkeypatch):
        # the law compiled from the kernel rows it reads gives the outputs of
        # the law compiled from the whole tabulated kernel and its operator
        def operator_route(cls, system, g, grid):
            return cls.fredholm(IntegralOperator.from_kernel(build_kernel(system, g, grid)))

        def refuse(*args, **kwargs):
            raise AssertionError("simulate tabulated the kernel")

        with monkeypatch.context() as patched:
            patched.setattr(FeedbackLaw, "fredholm_from_cascade", classmethod(operator_route))
            assert main(["simulate", str(SCENARIOS / "s3.cfg"), "--out", str(tmp_path / "op"),
                         "--quiet"]) == 0
        monkeypatch.setattr(cli, "build_kernel", refuse)
        monkeypatch.setattr(IntegralOperator, "from_kernel", refuse)
        assert main(["simulate", str(SCENARIOS / "s3.cfg"), "--out", str(tmp_path / "rows"),
                     "--quiet"]) == 0
        for name in ("trajectory.csv", "norms.csv"):
            assert_same_text((tmp_path / "rows" / "s3" / name).read_text(),
                             (tmp_path / "op" / "s3" / name).read_text())


# each bundled scenario's verify report; the numbers are masked before the
# comparison, so these pin the check names, their order, PASS/FAIL and the
# wording of every detail
REPORTS = {
    "s3": """\
[s3] verify: N=200, scheme=integer_shift, dt=0.005, t_run=3.0
[s3] PASS times: T_opt=2.0, t_F=2.5
[s3] PASS kernel_boundary: max mismatch 0
[s3] PASS kernel_interior: max residual 0 (tol 0.125)
[s3] PASS kernel_oracle_gap: mean gap 0.00929 (tol 0.05), max gap 0.5
[s3] PASS round_trip: rel sup error 1.11e-16
[s3] PASS trace_preservation: mismatch 0
[s3] PASS inverse_identity: sup deviation 0
[s3] PASS z_vanish_by_T_opt: sup after T_opt+2dt = 0
[s3] PASS gamma_vanish_by_T_opt: vanish_time(tol=0.01) = 1.97 (limit 2.025, feedback fredholm)
[s3] PASS commutation: max deviation 0.005 (tol 0.05)
[s3] 10/10 checks passed
""",
    "s3_naive": """\
[s3_naive] verify: N=200, scheme=integer_shift, dt=0.005, t_run=3.0
[s3_naive] PASS times: T_opt=2.0, t_F=2.5
[s3_naive] PASS kernel_boundary: max mismatch 0
[s3_naive] PASS kernel_interior: max residual 0 (tol 0.125)
[s3_naive] PASS kernel_oracle_gap: mean gap 0.00929 (tol 0.05), max gap 0.5
[s3_naive] PASS round_trip: rel sup error 1.11e-16
[s3_naive] PASS trace_preservation: mismatch 0
[s3_naive] PASS inverse_identity: sup deviation 0
[s3_naive] PASS z_vanish_by_T_opt: sup after T_opt+2dt = 0
[s3_naive] FAIL gamma_vanish_by_T_opt: vanish_time(tol=0.01) = 2.41 (limit 2.025, feedback zero)
[s3_naive] PASS commutation: max deviation 0.005 (tol 0.05)
[s3_naive] 9/10 checks passed
""",
    "plant_demo": """\
[plant_demo] verify: N=128, scheme=upwind, dt=auto, t_run=2.2540774784567055
[plant_demo] PASS times: T_opt=1.5040774784567055, t_F=2.0040774784567055
[plant_demo] PASS kernel_boundary: max mismatch 0
[plant_demo] PASS kernel_interior: max residual 0 (tol 0.195)
[plant_demo] PASS kernel_oracle_gap: mean gap 0 (tol 0.05), max gap 0
[plant_demo] PASS round_trip: rel sup error 0
[plant_demo] PASS trace_preservation: mismatch 0
[plant_demo] PASS inverse_identity: sup deviation 0
[plant_demo] PASS z_vanish_by_T_opt: vanish_time = 1.571484375 (limit 1.880096848070882)
[plant_demo] PASS gamma_vanish_by_T_opt: vanish_time(tol=0.01) = 1.571484375 \
(limit 1.880096848070882, feedback zero)
[plant_demo] PASS commutation: max deviation 0 (tol 0.05)
[plant_demo] 10/10 checks passed
""",
}


def mask_numbers(text: str) -> str:
    return re.sub(r"-?\d+(\.\d*)?(e[-+]?\d+)?", "#", text)


class TestCliVerify:
    def test_s3_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["verify", str(SCENARIOS / "s3.cfg"), "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0, text
        assert "FAIL" not in text
        report = (out / "s3" / "report.txt").read_text()
        assert "PASS gamma_vanish_by_T_opt" in report

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_report_wording(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        rc = main(["verify", str(SCENARIOS / f"{name}.cfg"), "--out", str(out)])
        report = (out / name / "report.txt").read_text()
        assert rc == (1 if " FAIL " in REPORTS[name] else 0)
        assert report == capsys.readouterr().out
        assert mask_numbers(report) == mask_numbers(REPORTS[name])

    def test_zero_feedback_fails_optimal_vanish(self, tmp_path, capsys):
        cfg = S3_TEXT.replace("feedback = fredholm", "feedback = zero")
        cfg = cfg.replace("name = s3", "name = s3_h0")
        path = write_cfg(tmp_path, cfg, "s3_h0.cfg")
        rc = main(["verify", str(path), "--out", str(tmp_path / "out")])
        text = capsys.readouterr().out
        assert rc == 1
        fail_line = next(l for l in text.splitlines() if "FAIL gamma_vanish" in l)
        measured = float(fail_line.split("= ")[1].split(" ")[0])
        assert abs(measured - 2.5) <= 0.1

    @pytest.mark.parametrize("name, marches", [
        ("s3", ["z_target", "gamma_target"]),
        ("s3_naive", ["z_target", "gamma_target", "gamma_target"]),
    ])
    def test_each_target_loop_marched_once(self, tmp_path, monkeypatch, name, marches):
        # the z/gamma pair serves the vanishing checks and the commutation
        # check; only a law other than fredholm needs a march of its own.
        # simulate and commutation_check both march through _march. A target
        # is labelled by its band: the z band has no strictly-lower m x m block.
        calls = []

        def counted(spec, *args, real=simulator._march, **kwargs):
            b = spec.band
            calls.append("plant" if b is None else
                         "gamma_target" if any(i <= b.m for i, _ in b.entries) else "z_target")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(simulator, "_march", counted)
        main(["verify", str(SCENARIOS / f"{name}.cfg"), "--out", str(tmp_path), "--quiet"])
        assert calls == marches

    @pytest.mark.parametrize("name", ["s3", "s3_naive"])
    def test_no_l2_norms_taken(self, tmp_path, monkeypatch, name):
        # every march verify makes is read through its sup norms alone
        passes = []

        def counted(*args, real=simulator.block_norms, l2=True):
            passes.append(l2)
            return real(*args, l2=l2)

        monkeypatch.setattr(simulator, "block_norms", counted)
        main(["verify", str(SCENARIOS / f"{name}.cfg"), "--out", str(tmp_path), "--quiet"])
        assert passes and passes.count(True) == 0

    def test_tolerance_key_rejected(self, tmp_path, capsys):
        # verify's tolerances are fixed: a scenario that could loosen them
        # would turn its own FAIL into a PASS
        cfg = (SCENARIOS / "s3_naive.cfg").read_text() + "tol.vanish_slack_steps = inf\n"
        path = write_cfg(tmp_path, cfg, "s3_naive.cfg")
        rc = main(["verify", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "tol.vanish_slack_steps: unknown field" in capsys.readouterr().err

    def test_several_files_run_in_argument_order(self, tmp_path, monkeypatch):
        # one stream for stdout and stderr, so their interleaving shows
        text = io.StringIO()
        monkeypatch.setattr(sys, "stdout", text)
        monkeypatch.setattr(sys, "stderr", text)
        broken = write_cfg(tmp_path, "system.n = 3\n", "broken.cfg")
        out = tmp_path / "out"
        rc = main(["verify", str(SCENARIOS / "s3_naive.cfg"), str(broken), "--out", str(out)])
        assert rc == 2
        report = (out / "s3_naive" / "report.txt").read_text().splitlines()
        lines = text.getvalue().splitlines()
        assert lines[:len(report)] == report
        assert lines[len(report)] == "[broken] configuration error:"
        assert len(lines) > len(report) + 1
        assert all(line.startswith("[broken]   ") for line in lines[len(report) + 1:])

    def test_second_file_with_a_taken_name_rejected(self, tmp_path, capsys):
        # s3_naive under the name s3 would replace s3's 10/10 report with its 9/10
        text = (SCENARIOS / "s3_naive.cfg").read_text().replace("name = s3_naive", "name = s3")
        second = write_cfg(tmp_path, text, "b.cfg")
        first = str(SCENARIOS / "s3.cfg")
        out = tmp_path / "o"
        assert main(["verify", first, str(second), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "[s3] configuration error:",
            f"[s3]   name: 's3' is also the name of {first}, an earlier file of this command"]
        report = (out / "s3" / "report.txt").read_text()
        assert report == captured.out
        assert report.endswith("[s3] 10/10 checks passed\n")
        assert sorted(p.name for p in out.iterdir()) == ["s3"]

    def test_unallocatable_run_exits_2(self, tmp_path, capsys):
        # 1e12 / dt steps need more memory than any 48-bit address space
        # holds, so the request is refused without touching memory
        path = write_cfg(tmp_path, S3_TEXT.replace("t_final = 3.0", "t_final = 1e12"))
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("[s3] error: Unable to allocate")

    def test_shift_past_the_grid(self, tmp_path, capsys):
        # at dt = 150 dx component 1 moves 300 cells per step on 201 nodes
        paths = [write_cfg(tmp_path, (SCENARIOS / f"{name}.cfg").read_text().replace(
            "dt = 1*dx", "dt = 150*dx"), f"{name}.cfg") for name in ("s3", "s3_naive")]
        out = tmp_path / "out"
        assert main(["simulate", *map(str, paths), "--out", str(out), "--quiet"]) == 0
        assert main(["verify", str(paths[0]), "--out", str(out)]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if " FAIL " in line]
        assert [line.split(":")[0] for line in fails] == ["[s3] FAIL commutation"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_speed_no_warning(self, tmp_path, capsys):
        path = write_cfg(tmp_path, S3_TEXT.replace("speed.1 = constant:-2",
                                                   "speed.1 = constant:-1e300"))
        assert main(["verify", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.endswith("[s3] 10/10 checks passed\n")

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "system.n = 3\n")
        rc = main(["verify", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_quiet_keeps_error_lines(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "system.n = 3\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "[case] configuration error:",
            "[case]   system.m: required field missing",
            "[case]   dynamics: required field missing",
            "[case]   grid.cells: required field missing",
            "[case]   t_final: required field missing",
        ]


class TestCliSweep:
    def test_two_grids(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", str(SCENARIOS / "s3.cfg"), "--out", str(out),
                   "--grids", "64,128"])
        assert rc == 0
        with open(out / "s3" / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert ",".join(rows[0]) == (
            "n_cells,dt,kernel_gap_max,kernel_gap_mean,commutation_dev,vanish_time,vanish_err,"
            "order_kernel_gap_max,order_kernel_gap_mean,order_commutation_dev,order_vanish_err")
        assert [r[0] for r in rows[1:]] == ["64", "128"]
        by = dict(zip(rows[0], rows[2]))
        assert by["order_kernel_gap_max"] == "n/a"  # jump plateau: no decay
        assert float(by["order_commutation_dev"]) >= 0.8

    def test_plant(self, tmp_path, capsys):
        # the plant has no cascade: its kernel is empty and the transform is
        # the identity, so the gaps and the commutation deviation are 0
        out = tmp_path / "out"
        assert main(["sweep", str(SCENARIOS / "plant_demo.cfg"), "--out", str(out),
                     "--grids", "64,128"]) == 0
        with open(out / "plant_demo" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n_cells"] for r in rows] == ["64", "128"]
        for name in ("kernel_gap_max", "kernel_gap_mean", "commutation_dev"):
            assert [r[name] for r in rows] == ["0", "0"]
            assert [r[f"order_{name}"] for r in rows] == ["n/a", "n/a"]
        assert float(rows[1]["order_vanish_err"]) > 0

    # a command-line error: reported once, before any file runs
    @pytest.mark.parametrize("grids, error", [
        ("64", "need at least two grid sizes, got '64'"),
        ("4,64", "grid needs at least 8 cells, got 4"),
        ("64,-1", "grid needs at least 8 cells, got -1"),
    ], ids=["one_size", "below_minimum", "negative_last"])
    def test_single_grid_rejected(self, tmp_path, capsys, grids, error):
        out = tmp_path / "o"
        rc = main(["sweep", str(SCENARIOS / "s3.cfg"), str(SCENARIOS / "s3_naive.cfg"),
                   "--out", str(out), "--grids", grids])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"--grids: {error}"]
        assert not out.exists()

    def test_multiple_scenarios_parallel(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "simulate",
            str(SCENARIOS / "s3.cfg"),
            str(SCENARIOS / "plant_demo.cfg"),
            "--out", str(out), "--quiet",
        ])
        assert rc == 0
        assert (out / "s3" / "norms.csv").exists()
        assert (out / "plant_demo" / "norms.csv").exists()

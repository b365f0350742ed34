import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from sublin import StepSequence, load_ambiguity_set, parse_phi, sublinear_eval_sum
from sublin.cli import build_parser, main

from test_gheat import _linear_bound

F = Fraction
HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")


def cfg(name):
    return os.path.join(CONFIGS, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_band_mean_exact(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", cfg("bernoulli-band.json"),
            "--phi", "x", "--n", "10", "--normalize", "n", "--exact",
        )
        assert code == 0
        assert out.strip() == "value=3/5"

    def test_lower_direction(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", cfg("bernoulli-band.json"),
            "--phi", "x", "--n", "10", "--normalize", "n", "--exact", "--lower",
        )
        assert code == 0
        assert out.strip() == "value=2/5"

    def test_sqrt_normalization(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", cfg("rademacher.json"),
            "--phi", "max(1-abs(x),0)", "--n", "16", "--normalize", "sqrt-n",
        )
        assert code == 0 and out == "value=0.63901519775390625\n"
        seq = StepSequence.iid(load_ambiguity_set(cfg("rademacher.json")), 16)
        assert float(out[6:]) == sublinear_eval_sum(seq, parse_phi("max(1-abs(x),0)"), scale=4.0)

    def test_sqrt_normalization_exact(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", cfg("rademacher.json"),
            "--phi", "max(1-abs(x),0)", "--n", "16", "--normalize", "sqrt-n", "--exact",
        )
        assert code == 0 and out == "value=83757/131072\n"

    def test_exact_sqrt_normalization_needs_a_square(self, capsys):
        code, out, err = run(
            capsys, "eval", "--model", cfg("rademacher.json"),
            "--phi", "max(1-abs(x),0)", "--n", "15", "--normalize", "sqrt-n", "--exact",
        )
        assert code == 1 and out == ""
        assert "perfect-square" in err and err.count("\n") == 1

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "eval", "--model", cfg("bernoulli-band.json"),
            "--phi", "x", "--n", "4", "--normalize", "n", "--exact",
            "--json", str(path),
        )
        assert code == 0
        assert json.loads(path.read_text())["value"] == "3/5"


class TestTables:
    def test_lln_rows(self, capsys):
        code, out, _ = run(
            capsys, "lln", "--model", cfg("bernoulli-band.json"),
            "--phi", "x", "--n-schedule", "4,8", "--exact",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("n=4 value=3/5")

    def test_csv_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "lln", "--model", cfg("bernoulli-band.json"),
                "--phi", "max(1-abs(x),0)", "--n-schedule", "4,8,16",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "n,value,prediction,gap"

    def test_lln_json_reports_grid_spacing(self, capsys, tmp_path):
        path = tmp_path / "lln.json"
        code, _, _ = run(
            capsys, "lln", "--model", cfg("bernoulli-band.json"),
            "--phi", "x", "--n-schedule", "4", "--json", str(path),
        )
        assert code == 0
        metadata = json.loads(path.read_text())["metadata"]
        assert "prediction_error" not in metadata
        assert metadata["grid_spacing"] == (0.6 - 0.4) / 2_000_000

    def test_clt_small(self, capsys):
        code, out, _ = run(
            capsys, "clt", "--model", cfg("rademacher.json"),
            "--phi", "max(1-abs(x),0)", "--n-schedule", "16",
            "--dx", "0.05",
        )
        assert code == 0
        assert out.startswith("n=16 value=")

    def test_clt_truncation_in_the_report(self, capsys, tmp_path):
        path = tmp_path / "clt.json"
        argv = ["clt", "--model", cfg("rademacher.json"), "--phi", "max(1-abs(x),0)",
                "--n-schedule", "4,16", "--dx", "0.05", "--json", str(path)]
        code, plain, _ = run(capsys, *argv)
        assert code == 0 and json.loads(path.read_text())["metadata"]["truncate_sqrt_n"] is False
        code, out, _ = run(capsys, *argv, "--truncate-sqrt-n")
        assert code == 0 and json.loads(path.read_text())["metadata"]["truncate_sqrt_n"] is True
        assert out == plain  # |x| <= 1 <= sqrt(n): nothing to clip

    def test_lln_exact_matches_eval(self, capsys):
        # the DP column of lln --exact is the exact value eval --exact gives
        model, phi = cfg("bernoulli-band.json"), "max(1-abs(x-1/3),0)"
        code, out, _ = run(capsys, "eval", "--model", model, "--phi", phi,
                           "--n", "3", "--normalize", "n", "--exact")
        assert code == 0 and out.strip() == "value=61/75"
        code, out, _ = run(capsys, "lln", "--model", model, "--phi", phi,
                           "--n-schedule", "3", "--exact")
        assert code == 0
        assert out.startswith("n=3 value=61/75 ")

    def test_lln_phi_defined_only_on_the_mean_range(self, capsys):
        # sqrt(x+1) is undefined below -1, far outside the band's [2/5, 3/5]
        code, out, _ = run(capsys, "lln", "--model", cfg("bernoulli-band.json"),
                           "--phi", "sqrt(x+1)")
        assert code == 0
        assert out.startswith("n=16 value=")

    def test_lln_exact_constant_division(self, capsys):
        code, out, _ = run(capsys, "lln", "--model", cfg("bernoulli-band.json"),
                           "--phi", "x/4", "--n-schedule", "4,8", "--exact")
        assert code == 0
        assert out.startswith("n=4 value=3/20 ")

    @pytest.mark.parametrize("command", ["lln", "clt"])
    def test_exact_rejects_non_rational_phi(self, capsys, command):
        code, _, err = run(capsys, command, "--model", cfg("rademacher.json"),
                           "--phi", "exp(x)", "--n-schedule", "4", "--exact")
        assert code == 1
        assert "exact-rational subset" in err

    def test_bad_schedule(self, capsys):
        code, _, err = run(
            capsys, "lln", "--model", cfg("bernoulli-band.json"),
            "--phi", "x", "--n-schedule", "8,4",
        )
        assert code == 1
        assert "error:" in err


class TestGNormal:
    def test_classical_prints_quadrature(self, capsys):
        code, out, _ = run(
            capsys, "gnormal", "--sigma-lo", "1", "--sigma-hi", "1",
            "--phi", "1-abs(x)", "--dx", "0.05",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("value=")
        assert lines[1].startswith("quadrature=")
        want = 1 - math.sqrt(2 / math.pi)
        assert float(lines[1].split("=")[1]) == pytest.approx(want, abs=1e-9)
        assert float(lines[0].split("=")[1]) == pytest.approx(want, abs=1e-3)

    def test_ambiguous_band_no_oracle_line(self, capsys):
        code, out, _ = run(
            capsys, "gnormal", "--sigma-lo", "0.5", "--sigma-hi", "1",
            "--phi", "max(1-abs(x),0)", "--dx", "0.05",
        )
        assert code == 0
        assert "quadrature=" not in out

    def test_invalid_band(self, capsys):
        code, _, err = run(
            capsys, "gnormal", "--sigma-lo", "2", "--sigma-hi", "1", "--phi", "x",
        )
        assert code == 2

    @pytest.mark.parametrize("grid", [["--dx", "1e-5"]], ids=["small-dx"])
    def test_grid_past_the_work_cap(self, capsys, grid):
        code, out, err = run(
            capsys, "gnormal", "--sigma-lo", "1", "--sigma-hi", "1", "--phi", "1-abs(x)", *grid,
        )
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_grid_past_the_array_bound(self, capsys):
        # 2 L/dx + 1 is 10,000,000 points, but L/dx = 4,999,999.5 rounds up
        code, out, err = run(
            capsys, "gnormal", "--sigma-lo", "0", "--sigma-hi", "0", "--phi", "x",
            "--dx", "1.600000160000016e-06",
        )
        assert code == 4 and out == ""
        assert err == ("error: G-heat grid of 10000001 points exceeds the bound of 10000000 "
                       "points; use a larger dx\n")

    def test_sigma_without_a_finite_square(self, capsys):
        # sigma_hi**2 sets the time step: 1e200 overflows it
        code, out, err = run(
            capsys, "gnormal", "--sigma-lo", "0.5", "--sigma-hi", "1e200", "--phi", "x",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: need 0 <= sigma_lo <= sigma_hi with a finite sigma_hi**2")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("dx", ["1e300", "inf"])
    def test_dx_without_a_finite_square(self, capsys, dx):
        # dx**2 sets the time step: 1e300 overflows it, inf makes the grid 0*inf
        code, out, err = run(
            capsys, "gnormal", "--sigma-lo", "0.5", "--sigma-hi", "1", "--phi", "1-abs(x)",
            "--dx", dx,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gnormal", "--sigma-lo", "0.5", "--sigma-hi", "1", "--phi", "1-abs(x)", "--dx", "100"],
        # the half-width 8 is 0.47 cells, which rounds to 0
        ["gnormal", "--sigma-lo", "0.5", "--sigma-hi", "1", "--phi", "1-abs(x)", "--dx", "17"],
        ["clt", "--model", cfg("rademacher.json"), "--phi", "max(1-abs(x),0)",
         "--n-schedule", "4", "--dx", "100"],
    ], ids=["gnormal-dx", "gnormal-dx-rounded", "clt-dx"])
    def test_grid_without_an_interior_point(self, capsys, argv):
        # one grid point, phi(0), is no solve: the value would be phi(0)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no interior point" in err

    def test_classical_data_near_the_float_limit(self, capsys):
        # phi up to 1e306 on 1,601 points: the closed form's sine sums would
        # pass the float range but for its scaling by a power of two
        code, out, _ = run(
            capsys, "gnormal", "--sigma-lo", "1", "--sigma-hi", "1",
            "--phi", f"{10**306}*min(abs(x),1)",
        )
        assert code == 0
        value = float(out.splitlines()[0].removeprefix("value="))
        assert value == pytest.approx(6.3125166831261168e305, rel=1e-9)

    def test_failure_after_the_value_prints_nothing(self, capsys):
        # the PDE value is finite; the quadrature oracle meets sqrt of a
        # negative number out on the domain and fails
        code, out, err = run(
            capsys, "gnormal", "--sigma-lo", "1", "--sigma-hi", "1",
            "--phi", "sqrt(9-abs(x))", "--dx", "0.05",
        )
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_phi_undefined_inside_the_window(self, capsys):
        # S_1 is +-1/2 or +-1, never 0, but phi is evaluated on the whole
        # window from -1 to 1, so 1/x fails at 0
        code, out, err = run(
            capsys, "eval", "--model", cfg("rademacher.json"), "--phi", "1/x", "--n", "1",
        )
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


_GRID_COMMANDS = {
    "gnormal": ["gnormal", "--sigma-lo", "0.5", "--sigma-hi", "1", "--phi", "max(1-abs(x),0)"],
    "clt": ["clt", "--model", cfg("rademacher.json"), "--phi", "max(1-abs(x),0)",
            "--n-schedule", "16"],
}


class TestGridOptions:
    # dx, the one grid option, moves the G-heat prediction
    @pytest.mark.parametrize("option", [["--dx", "0.1"]], ids=["dx"])
    @pytest.mark.parametrize("command", list(_GRID_COMMANDS))
    def test_option_changes_the_output(self, capsys, command, option):
        argv = _GRID_COMMANDS[command] + ["--dx", "0.05"]
        code, base, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, *option)
        assert code == 0 and out != base

    @pytest.mark.parametrize("command", list(_GRID_COMMANDS))
    def test_no_time_option(self, capsys, command):
        # the G-normal value is u(1, 0): the time horizon is not an option
        code, out, err = run(capsys, *_GRID_COMMANDS[command], "--T", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    # the time step's CFL number and the half-width are fixed by the solver
    @pytest.mark.parametrize("option", [["--cfl", "0.4"], ["--domain", "8"]], ids=["cfl", "domain"])
    @pytest.mark.parametrize("command", list(_GRID_COMMANDS))
    def test_no_scheme_option(self, capsys, command, option):
        code, out, err = run(capsys, *_GRID_COMMANDS[command], *option)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCounterexample:
    def test_clt_one_step_exact(self, capsys):
        code, out, _ = run(
            capsys, "counterexample", "--which", "clt", "--K", "2", "--n", "1",
            "--exact",
        )
        assert code == 0
        assert out.startswith("value=3/4 ")
        assert "classical-reference=0.2021" in out

    def test_lln_acceptance_point(self, capsys):
        code, out, _ = run(
            capsys, "counterexample", "--which", "lln", "--K", "100", "--n", "20",
        )
        assert code == 0
        value = float(out.split()[0].split("=")[1])
        assert 0.996 <= value <= 1.0
        assert "classical-reference=0" in out

    @pytest.mark.parametrize("argv,want", [
        (["--which", "clt", "--K", "2", "--n", "1", "--clamp", "0.3"], "37/40"),
        (["--which", "lln", "--K", "3", "--n", "2", "--clamp", "1.1"], "623/810"),
    ], ids=["clt", "lln"])
    def test_exact_clamp_keeps_its_decimal(self, capsys, argv, want):
        # --clamp 0.3 is 3/10, as a model file's 0.3 is under --exact
        code, out, _ = run(capsys, "counterexample", *argv, "--exact")
        assert code == 0 and out.startswith(f"value={want} lower-bound={want} ")

    def test_float_clamp_is_unchanged(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--which", "clt", "--K", "2", "--n", "1",
                           "--clamp", "0.3")
        assert code == 0 and out.startswith("value=0.92500000000000004 ")

    def test_exact_clt_nonsquare_n(self, capsys):
        code, _, err = run(
            capsys, "counterexample", "--which", "clt", "--K", "4", "--n", "3",
            "--exact",
        )
        assert code == 1


# DP lines of .github/dp-checks.sh, byte for byte, in process
_BIG_LLN = (
    "495012230423008828280716926282093154400976174424346225695393814077260661"
    "483867438415462364191034790783942699125543830147121950705312199558971462"
    "09915828840276319986866171890488126302980400122499500001"
    "/5" + "0" * 199)


class TestDpPins:
    @pytest.mark.parametrize("argv,want", [
        (["eval", "--model", cfg("bernoulli-band.json"), "--phi", "x*x", "--n", "2000",
          "--normalize", "n", "--exact"],
         "value=9003/25000"),
        (["counterexample", "--which", "lln", "--K", "100", "--n", "50"],
         "value=0.99002446084601858 lower-bound=0.9900244608460177 classical-reference=0 "
         "robust-limit=1"),
        (["counterexample", "--which", "lln", "--K", "100", "--n", "200"],
         "value=0.96039538608644459 lower-bound=0.96039538608644137 classical-reference=0 "
         "robust-limit=1"),
        (["counterexample", "--which", "clt", "--K", "400", "--n", "25"],
         "value=0.99984376757672211 lower-bound=0.99984376171818845 "
         "classical-reference=0.20211543919713459 robust-limit=1"),
        (["eval", "--model", cfg("rademacher.json"), "--phi", "max(1-abs(x),0)", "--n", "400",
          "--normalize", "sqrt-n", "--lower"],
         "value=0.30545228865175422"),
        (["counterexample", "--which", "lln", "--K", "10", "--n", "10", "--exact"],
         "value=40438207500880449001/50000000000000000000 "
         "lower-bound=40438207500880449001/50000000000000000000 classical-reference=0 "
         "robust-limit=1"),
        (["counterexample", "--which", "lln", "--K", "100", "--n", "50", "--exact"],
         f"value={_BIG_LLN} lower-bound={_BIG_LLN} classical-reference=0 robust-limit=1"),
    ], ids=["band-n2000-exact", "lln-K100-n50", "lln-K100-n200", "clt-K400-n25",
            "rademacher-lower-n400", "lln-K10-n10-exact", "lln-K100-n50-exact"])
    def test_output_bytes(self, capsys, argv, want):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, want + "\n", "")


class TestIndependence:
    def test_pseudo_true(self, capsys):
        code, out, _ = run(
            capsys, "check-independence", "--config", cfg("example36.json"),
            "--mode", "pseudo", "--exact",
        )
        assert code == 0
        assert out.splitlines()[0] == "verdict=true gap=0"

    def test_peng_probe_false(self, capsys):
        code, out, _ = run(
            capsys, "check-independence", "--config", cfg("example36.json"),
            "--mode", "peng-probe", "--exact",
        )
        assert code == 0
        assert out.splitlines()[0] == "verdict=false gap=1/16"
        assert "5/8" in out and "11/16" in out

    def test_peng_exact_false(self, capsys):
        code, out, _ = run(
            capsys, "check-independence", "--config", cfg("example36.json"),
            "--mode", "peng-exact", "--exact",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("verdict=false")

    def test_witness_numbers_print_as_rationals(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "check-independence", "--config", cfg("example36.json"),
            "--mode", "peng-exact", "--exact", "--json", str(path),
        )
        assert code == 0
        assert out.splitlines() == [
            "verdict=false gap=3/10",
            "witness: vertex=1 side=polytope-outside direction=[-1, -1, 1, -3/5]",
        ]
        assert json.loads(path.read_text()) == {
            "verdict": False, "gap": "3/10",
            "witness": {"vertex": "1", "side": "polytope-outside",
                        "direction": ["-1", "-1", "1", "-3/5"]},
        }

    def test_pseudo_history_prints_as_rationals(self, capsys, tmp_path):
        # one measure whose law of Y depends on X: the witness history is (1/2,)
        model = tmp_path / "m.json"
        model.write_text(json.dumps({
            "variables": ["X", "Y"], "supports": [["1/2", 2], [0, 1]],
            "measures": [{"table": [["1/2", 0], [0, "1/2"]]}],
        }))
        path = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "check-independence", "--config", str(model),
            "--mode", "pseudo", "--exact", "--json", str(path),
        )
        assert code == 0
        witness = out.splitlines()[1]
        assert witness.startswith("witness: measure=0 history=[1/2] direction=[")
        assert "Fraction" not in witness
        doc = json.loads(path.read_text())
        assert doc["witness"]["history"] == ["1/2"]
        assert all(isinstance(x, str) for x in doc["witness"]["direction"])

    @pytest.mark.parametrize("mode,line", [
        ("pseudo", "verdict=true gap=1.3877787807814452e-16"),
        ("peng-probe", "verdict=false gap=0.12"),
        ("peng-exact", "verdict=false gap=0.2400000000000001"),
    ])
    def test_float_model_gaps_print_as_floats(self, capsys, tmp_path, mode, line):
        # decimal-float laws: the hull LPs still solve in exact rationals,
        # but every mode reports the gap as a float
        model = tmp_path / "float-joint.json"
        model.write_text(json.dumps({
            "variables": ["X", "Y"], "supports": [[0, 1], [0, 1]],
            "measures": [{"table": [[0.12, 0.28], [0.18, 0.42]]},
                         {"table": [[0.06, 0.54], [0.04, 0.36]]}],
        }))
        code, out, _ = run(capsys, "check-independence", "--config", str(model), "--mode", mode)
        assert code == 0 and out.splitlines()[0] == line

    @pytest.mark.parametrize("step", ["0", "3"])
    def test_step_out_of_range_is_a_usage_error(self, capsys, step):
        code, out, err = run(
            capsys, "check-independence", "--config", cfg("example36.json"),
            "--mode", "pseudo", "--step", step,
        )
        assert code == 1 and out == ""
        assert err == f"error: --step must be in 1..2, got {step}\n"


class TestEnlargeAndDiagnose:
    def test_enlarge_vertex_dump(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        code, out, _ = run(
            capsys, "enlarge", "--config", cfg("example36.json"), "--exact",
            "--json", str(path),
        )
        assert code == 0
        assert out.splitlines()[0] == "vertices=8"
        doc = json.loads(path.read_text())
        assert len(doc["measures"]) == 8

    def test_diagnose_counterexample(self, capsys):
        code, out, _ = run(
            capsys, "diagnose", "--counterexample-K", "10", "--n-max", "100",
            "--exact",
        )
        assert code == 0
        assert "H1-decaying=True H2-decaying=False" in out

    def test_diagnose_needs_input(self, capsys):
        code, _, err = run(capsys, "diagnose")
        assert code == 1

    def test_diagnose_int_weights_exact(self, capsys, tmp_path):
        # the first law's JSON-int weights sum to ints; --exact must not
        # turn their averages into floats
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"measures": [
            {"atoms": [0, 3], "probs": [0, 1]},
            {"atoms": [1, 2], "probs": ["1/2", "1/2"]},
        ]}))
        code, out, _ = run(capsys, "diagnose", "--model", str(path), "--n-max", "5", "--exact")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "mu=[3/2, 3] sigma2=[5/2, 9]"
        assert lines[5:7] == ["4,0,4,9/4", "5,0,5,9/5"]
        # a rational model's moments are exact without --exact too
        code, out, _ = run(capsys, "diagnose", "--model", str(path), "--n-max", "5")
        assert out.splitlines()[5:7] == ["4,0,4,9/4", "5,0,5,9/5"]

    def test_big_int_atoms_print_exactly(self, capsys, tmp_path):
        # (10**17 + 1)**2 is no float: --exact prints every digit of it
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"measures": [
            {"atoms": [100000000000000001, 0], "probs": [1, 0]}]}))
        code, out, _ = run(capsys, "diagnose", "--model", str(path), "--n-max", "3", "--exact")
        square = str((10**17 + 1) ** 2)
        assert code == 0 and out.splitlines()[0] == f"mu=[0, 0] sigma2=[{square}, {square}]"
        report = tmp_path / "lln.json"
        code, _, _ = run(capsys, "lln", "--exact", "--model", str(path), "--phi", "x",
                         "--n-schedule", "1", "--json", str(report))
        assert code == 0
        assert json.loads(report.read_text())["metadata"]["mu"] == ["100000000000000001"] * 2


class TestExitCodes:
    def test_usage_unknown_flag(self, capsys):
        code, _, err = run(capsys, "eval", "--nope")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", cfg("bernoulli-band.json"), "--phi", "x"],
        ["counterexample", "--which", "lln", "--K", "4"],
        ["counterexample", "--which", "clt", "--K", "4"],
    ], ids=["eval", "counterexample-lln", "counterexample-clt"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_n_is_a_usage_error(self, capsys, argv, n):
        code, out, err = run(capsys, *argv, "--n", n)
        assert code == 1 and out == ""
        assert err == f"error: --n must be >= 1, got {n}\n"

    def test_sweep_past_the_work_cap_is_refused(self, capsys):
        # windows of 2Kk + 1 states times 3K atoms for k < 20: 2.9e10
        # state-atoms, of which the sweep would compute 1.5e10, its charge
        code, out, err = run(capsys, "counterexample", "--which", "clt", "--K", "5000",
                             "--n", "20")
        assert code == 4 and out == ""
        assert err.startswith("error: the backward sweep exceeds the work cap")
        assert err.count("\n") == 1

    def test_exact_dp_past_the_exact_work_cap_is_refused(self, capsys, monkeypatch):
        # the exact meter charges the terminal 9.8e6, which passes, and the
        # sweep's numerators of up to 600 bits 7.0e7 in all
        monkeypatch.setattr("sublin.recursion.MAX_STATE_ATOMS", 10**7)
        code, out, err = run(capsys, "counterexample", "--which", "clt", "--K", "10",
                             "--n", "49", "--exact")
        assert code == 4 and out == ""
        assert err.startswith("error: the backward sweep exceeds the work cap")
        assert "numerator size" in err and err.count("\n") == 1

    def test_exact_band_past_n5000_is_admitted(self, capsys):
        # 5.0e7 state-atoms, all int64: the meter charges 3.9e8 of the 1e10 budget
        code, out, _ = run(capsys, "eval", "--model", cfg("bernoulli-band.json"),
                           "--phi", "x", "--n", "5001", "--normalize", "n", "--exact")
        assert code == 0 and out == "value=3/5\n"

    @pytest.mark.parametrize("argv", [["--exact"], []], ids=["exact", "float"])
    def test_band_at_n9999_is_admitted(self, capsys, argv):
        # windows of 1, 2, ..., 10,000 states: 5.0e7 in all, but none
        # near the bound on one window
        code, out, _ = run(capsys, "eval", "--model", cfg("bernoulli-band.json"),
                           "--phi", "x", "--n", "9999", "--normalize", "n", *argv)
        assert code == 0 and out.startswith("value=")
        value = out[len("value="):-1]
        if argv:
            assert value == "3/5"
        else:
            assert abs(float(value) - 0.6) < 1e-12

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "BIG", "--phi", "x", "--n", "1"],
        ["lln", "--model", "BIG", "--phi", "x"],
        ["lln", "--model", "BIG", "--phi", "x", "--exact"],
        ["clt", "--model", "BIG-CENTRED", "--phi", "x"],
    ], ids=["eval", "lln", "lln-exact", "clt"])
    def test_float_conversion_overflow_is_a_numerical_failure(self, capsys, tmp_path, argv):
        # an atom of 1e400 is a finite rational, but no float: the lattice
        # spacing, the LLN's mean range or the CLT's variances overflow
        models = {"BIG": [0, "1e400"], "BIG-CENTRED": ["-1e400", "1e400"]}
        for name, atoms in models.items():
            (tmp_path / name).write_text(json.dumps(
                {"measures": [{"atoms": atoms, "probs": ["1/2", "1/2"]}]}))
        code, out, err = run(capsys, *[str(tmp_path / a) if a in models else a for a in argv])
        assert code == 3 and out == ""
        assert err.startswith("error: numeric overflow: ") and err.count("\n") == 1

    @pytest.mark.parametrize("clamp", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("which", ["lln", "clt"])
    def test_non_finite_clamp_is_a_usage_error(self, capsys, which, clamp):
        code, out, err = run(capsys, "counterexample", "--which", which, "--K", "4",
                             "--n", "4", "--clamp", clamp)
        assert code == 1 and out == ""
        assert err.startswith("error: clamp M must") and err.count("\n") == 1

    def test_usage_bad_phi(self, capsys):
        code, _, err = run(
            capsys, "eval", "--model", cfg("bernoulli-band.json"),
            "--phi", "foo(x)", "--n", "2",
        )
        assert code == 1

    @pytest.mark.parametrize("phi", ["x+" * 3000 + "x", "(" * 400 + "x" + ")" * 400,
                                     "0" + "-" * 10000 + "x"],
                             ids=["long-sum", "deep-parentheses", "long-negation"])
    def test_too_deep_phi_is_a_usage_error(self, capsys, phi):
        code, out, err = run(capsys, "eval", "--model", cfg("bernoulli-band.json"),
                             "--phi", phi, "--n", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_phi_constant_past_the_float_range(self, capsys):
        code, out, err = run(capsys, "eval", "--model", cfg("rademacher.json"),
                             "--phi", "x*1" + "0" * 310, "--n", "2")
        assert code == 1 and out == ""
        assert err == f"error: constant 1{'0' * 19}... is too large for a float\n"

    def test_python_only_phi_prints_one_error_line(self):
        # a fresh interpreter, because pytest captures warnings raised in process
        src = os.path.join(HERE, os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-m", "sublin.cli", "eval", "--model", cfg("bernoulli-band.json"),
             "--phi", "1if x else 2", "--n", "2"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("model, phi", [
        ({"measures": [{"atoms": [-1, 1], "probs": [0.5, 0.5000000000001]}]},
         str(int(sys.float_info.max))),
        ({"measures": [{"atoms": [-1, 1], "probs": ["1/2", "1/2"]}]},
         f"x*{int(sys.float_info.max)}"),
    ], ids=["sweep", "terminal"])
    def test_float_overflow_prints_one_error_line(self, tmp_path, model, phi):
        # a fresh interpreter: a numpy overflow warning would print on stderr
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        src = os.path.join(HERE, os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "sublin.cli", "eval", "--model", str(path),
             "--phi", phi, "--n", "2"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("warnings", ["", "error::RuntimeWarning"], ids=["default", "error"])
    @pytest.mark.parametrize("argv", [
        ["gnormal", "--sigma-lo", "0.5", "--sigma-hi", "1"],
        ["clt", "--model", cfg("rademacher.json"), "--n-schedule", "1"],
    ], ids=["gnormal", "clt"])
    def test_g_heat_overflow_prints_one_error_line(self, argv, warnings):
        # a fresh interpreter: a numpy overflow warning would print on stderr,
        # or under the error filter end in a traceback
        src = os.path.join(HERE, os.pardir, "src")
        env = dict(os.environ, PYTHONWARNINGS=warnings, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "sublin.cli", *argv, "--dx", "0.5",
             "--phi", f"{17 * 10**307}*min(abs(x),1)"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr == "error: non-finite values during time stepping\n"

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "no-such.json", "--phi", "x", "--n", "2")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", cfg("bernoulli-band.json"), "--phi", "x", "--n", "2", "--json", "F"],
        ["diagnose", "--counterexample-K", "2", "--n-max", "3", "--out", "F"],
    ], ids=["json", "out"])
    def test_unwritable_output_is_not_a_model_error(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "no-such-dir" / "r")
        code, out, err = run(capsys, *[missing if a == "F" else a for a in argv])
        assert code == 1 and out
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_invalid_model_schema(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"measures": [{"atoms": [0, 1], "probs": ["1/2"]}]}')
        code, _, err = run(capsys, "eval", "--model", str(path), "--phi", "x", "--n", "2")
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"measures": [{"atoms": [0, 1], "probs": ["1/2", "x"]}]}',
        '{"measures": [{"atoms": [0, 1], "probs": ["1/2", "1/0"]}]}',
        '{"measures": [{"atoms": [0, 1], "probs": [true, false]}]}',
        '{"measures": [{"atoms": [0, 1], "probs": [%d, 0.5]}]}' % 10**400,
        '[1, 2]',
        '{"measures": [{"atoms": [0, 1], "probs": [0.5, 0.5]}], "label": 3}',
        '{"measures": [',
        '{"measures": [{"atoms": [0, 1], "probs": ["1e5000", "0"]}]}',
        '{"measures": [{"atoms": [0, 1], "probs": ["%s", "0"]}]}' % ("1" * 10**4),
        # six weights whose exact total is past Python's 4300-digit int-string limit
        '{"measures": [{"atoms": [1, 2, 3, 4, 5, 6], "probs": [%s]}]}'
        % ", ".join(f'"1/{10**990 + k}"' for k in (1, 3, 7, 9, 13, 19)),
    ], ids=["string", "zero-denominator", "bool", "overflow", "array", "label", "truncated",
            "huge-exponent", "many-digits", "long-total"])
    def test_malformed_model_file(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run(capsys, "eval", "--model", str(path), "--phi", "x", "--n", "2")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("change", [
        {"measures": [{"table": [1, [0.5, 0.5]]}]},
        {"measures": [{"table": [["abc", "1/4"], ["1/4", "1/4"]]}]},
        {"measures": [{"table": [[True, 0], [0, 0]]}]},
        {"variables": [1, 2]},
    ], ids=["scalar-row", "string", "bool", "variables"])
    def test_malformed_joint_model_file(self, capsys, tmp_path, change):
        with open(cfg("example36.json")) as fh:
            doc = json.load(fh)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, **change}))
        code, _, err = run(capsys, "check-independence", "--config", str(path), "--mode", "pseudo")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "DIR", "--phi", "x", "--n", "2"],
        ["check-independence", "--config", "DIR", "--mode", "pseudo"],
    ], ids=["eval", "check-independence"])
    def test_directory_as_model_file(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *[str(tmp_path) if a == "DIR" else a for a in argv])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gnormal", "--sigma-lo", "1", "--sigma-hi", "1", "--phi", "x", "--exact"],
        ["gnormal", "--sigma-lo", "1", "--sigma-hi", "1", "--phi", "x", "--out", "F"],
        ["eval", "--model", cfg("bernoulli-band.json"), "--phi", "x", "--n", "2", "--out", "F"],
        ["counterexample", "--which", "clt", "--K", "2", "--n", "1", "--out", "F"],
        ["check-independence", "--config", cfg("example36.json"), "--mode", "pseudo",
         "--out", "F"],
        ["enlarge", "--config", cfg("example36.json"), "--out", "F"],
    ], ids=["gnormal-exact", "gnormal-out", "eval-out", "counterexample-out",
            "check-independence-out", "enlarge-out"])
    def test_option_not_honoured_is_usage_error(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, *[str(tmp_path / "F") if a == "F" else a for a in argv])
        assert code == 1 and out == ""
        assert not (tmp_path / "F").exists()

    def test_result_past_the_int_string_limit(self, capsys, tmp_path):
        p = 10**498 + 7  # p^10, the result's denominator, has 4,981 digits
        path = tmp_path / "long.json"
        path.write_text(json.dumps(
            {"measures": [{"atoms": [0, 10], "probs": [f"{p - 1}/{p}", f"1/{p}"]}]}))
        code, out, err = run(capsys, "eval", "--model", str(path), "--phi", "max(x-9,0)",
                             "--n", "10", "--exact")
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_numerical_failure_irrational_lattice(self, capsys, tmp_path):
        path = tmp_path / "irr.json"
        path.write_text(
            json.dumps({"measures": [{"atoms": [0.0, math.sqrt(2)], "probs": [0.5, 0.5]}]})
        )
        code, _, err = run(capsys, "eval", "--model", str(path), "--phi", "x", "--n", "2")
        assert code == 3

    def test_huge_n_refused_before_the_steps_are_built(self, capsys):
        # a 10**9-tuple of steps would take about 8 GB
        code, out, err = run(capsys, "eval", "--model", cfg("bernoulli-band.json"),
                             "--phi", "x", "--n", "1000000000")
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_model_too_large(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {"measures": [{"atoms": [0, 1, 10**7], "probs": [0.25, 0.25, 0.5]}]}
            )
        )
        code, _, err = run(capsys, "eval", "--model", str(path), "--phi", "x", "--n", "50")
        assert code == 4


def _readme_commands():
    with open(os.path.join(HERE, os.pardir, "README.md")) as fh:
        return [line.rstrip("\n") for line in fh if line.startswith("sublin ")]


def _readme_id(line):
    """``check-independence-pseudo`` for a line with ``--mode pseudo``."""
    argv = shlex.split(line)[1:]
    return "-".join([argv[0]] + [argv[i + 1] for i, a in enumerate(argv)
                                  if a in ("--which", "--mode")])


with open(os.path.join(HERE, "readme_golden.json")) as _fh:
    # README line -> its stdout, --json file and (lln, clt, diagnose) --out file
    README_GOLDEN = json.load(_fh)


class TestReadmeGolden:
    def test_every_readme_line_is_pinned(self):
        assert _readme_commands() == list(README_GOLDEN)

    @pytest.mark.parametrize("line", _readme_commands(), ids=_readme_id)
    def test_output_bytes(self, capsys, tmp_path, monkeypatch, line):
        want = README_GOLDEN[line]
        argv = shlex.split(line)[1:]
        report, table = tmp_path / "r.json", tmp_path / "r.csv"
        argv += ["--json", str(report)] + (["--out", str(table)] if "out" in want else [])
        monkeypatch.chdir(os.path.join(HERE, os.pardir))  # the README's paths start there
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        if argv[0] == "gnormal":
            # the value's last bits are numpy's FFT's: it and the pinned value are
            # each within solve_g_heat's bound of the exact scheme on this grid
            # (1,601 points, |u(0, x)| <= 7), so within twice it of each other; the
            # quadrature oracle is scipy's, compared to 1e-12
            tol = 2 * float(_linear_bound(1601, 7))
            value, oracle = out.splitlines()
            want_value, want_oracle = want["stdout"].splitlines()
            assert value.startswith("value=") and oracle.startswith("quadrature=")
            assert abs(float(value[6:]) - float(want_value[6:])) <= tol
            assert abs(float(oracle[11:]) - float(want_oracle[11:])) <= 1e-12
            got_json, want_json = json.loads(report.read_text()), json.loads(want["json"])
            assert got_json.keys() == want_json.keys() == {"value"}
            assert abs(got_json["value"] - want_json["value"]) <= tol
        else:
            assert out == want["stdout"]
            assert report.read_bytes() == want["json"].encode()
        if "out" in want:  # CRLF line ends, as the csv module writes them
            assert table.read_bytes() == want["out"].encode()


class TestMisc:
    def test_parser_builds(self):
        assert build_parser().prog == "sublin"


def test_bad_schedule_entry_refused(capsys):
    code, out, err = run(capsys, "lln", "--model", cfg("bernoulli-band.json"),
                         "--phi", "x", "--n-schedule", "16,x")
    assert (code, out) == (1, "")
    assert err == "error: bad n-schedule '16,x'\n"

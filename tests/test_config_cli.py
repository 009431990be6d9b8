"""Config validation and the scenario-runner CLI contract."""

import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

import biphoton_shaper
from biphoton_shaper import (
    ConfigError,
    frequency_bins,
    photon_flux_limit,
    pixelate,
    transfer_from_coefficients,
)
from biphoton_shaper.cli import main
from biphoton_shaper.config import (
    MAX_GRID_POINTS,
    _CRYSTALS,
    _DISPERSION,
    _EXPERIMENT_PARAMS,
    _SCHEMA,
    _SELLMEIER_INDEX,
    default_config,
    load_config,
    validate_config,
)
from biphoton_shaper.bases import amplitude_svd, max_offdiag, schmidt_modes
from biphoton_shaper.scenarios import (
    EXPERIMENT_RUNNERS,
    GAMMA_READERS,
    ExperimentResult,
    ScenarioContext,
    _render_csv,
    _render_json,
    emit_outputs,
    run_scenario_experiments,
)

from oracles import canonical_gamma, franson_gamma, per_cell_csv

ROOT = Path(__file__).resolve().parents[1]

QUICK_CONFIG = {
    "version": 1,
    "seed": 7,
    "grid": {"n_points": 129, "omega_max": 0.35},
    "experiments": [
        {"id": "flux_check"},
        {"id": "freq_bin_fringes", "d": 2, "phi_points": 12},
    ],
}

SCHMIDT_CONFIG = {
    "version": 1,
    "seed": 7,
    "grid": {"n_points": 257, "omega_max": 0.35},
    "experiments": [
        {"id": "fig2_amplitude", "export_stride": 32},
        {"id": "fig3_schmidt"},
        {"id": "schmidt_fringes", "d": 2, "phi_points": 12},
        {"id": "schmidt_fringes", "d": 3, "phi_points": 12},
    ],
}


SELLMEIER_INDEX = {"a": 3.2, "terms": [[0.8, 0.05]], "d": 0.01}


def sellmeier_pump(**pump_keys):
    """A Sellmeier dispersion block whose pump index carries ``pump_keys``."""
    return {"model": "sellmeier", "idler": SELLMEIER_INDEX, "signal": SELLMEIER_INDEX,
            "pump": {**SELLMEIER_INDEX, **pump_keys}}


# (key path of the error, top-level keys replaced in QUICK_CONFIG)
MALFORMED_VALUES = [
    pytest.param("dispersion.pump.terms[0][0]",
                 {"dispersion": sellmeier_pump(terms=[["x", 0.05]])}, id="sellmeier-terms"),
    pytest.param("dispersion.pump.validity_um[0]",
                 {"dispersion": sellmeier_pump(validity_um=["a", 2])},
                 id="sellmeier-validity"),
    pytest.param("grid.omega_max", {"grid": {"n_points": 129, "omega_max": float("nan")}},
                 id="omega-max-nan"),
    pytest.param("counting.duration_s", {"counting": {"duration_s": float("nan")}},
                 id="duration-nan"),
    pytest.param("psf.delta_omega", {"psf": {"delta_omega": float("inf")}}, id="psf-inf"),
    pytest.param("pump.linewidth_mhz", {"pump": {"linewidth_mhz": 1.0e-320}},
                 id="linewidth-underflow"),
    pytest.param("psf.delta_omega", {"psf": {"delta_omega": 5.0}},
                 id="psf-wider-than-window"),
    # grid spacing 1.03e-2 > the default PSF width 9.6e-3
    pytest.param("psf.delta_omega", {"grid": {"n_points": 69, "omega_max": 0.35}},
                 id="psf-narrower-than-grid-cell"),
    pytest.param("experiments[0].t1_values_fs",
                 {"experiments": [{"id": "time_bin_sweep", "t1_values_fs": [0, 10, 10.0, 50]}]},
                 id="t1-duplicate"),
    # the sweep judges its decay in list order, which must be delay order
    pytest.param("experiments[0].t1_values_fs",
                 {"experiments": [{"id": "time_bin_sweep", "t1_values_fs": [50, 0, 25]}]},
                 id="t1-unsorted"),
    # one alias period 2*pi/d_omega past 50 fs on the 257^2 grid, whose
    # limit pi/d_omega is 1149 fs: the sweep would report the 50 fs point
    pytest.param("experiments[0].t1_values_fs[4]",
                 {"grid": {"n_points": 257, "omega_max": 0.35},
                  "experiments": [{"id": "time_bin_sweep",
                                   "t1_values_fs": [0, 10, 25, 35, 2347.85]}]},
                 id="t1-aliased"),
    pytest.param("counting.duration_s",
                 {"counting": {"duration_s": 1.0e+20},
                  "experiments": [{"id": "freq_bin_fringes", "d": 2, "phi_points": 12,
                                   "counts": True}]},
                 id="poisson-mean-too-large"),
    pytest.param("experiments[0].bin_widths[1]",
                 {"experiments": [{"id": "procrustean", "bin_widths": [0.04, 0.0, 0.015]}]},
                 id="bin-width-zero"),
    pytest.param("experiments[0].bin_widths[0]",
                 {"experiments": [{"id": "procrustean", "bin_widths": [-1234, 0.024, 0.015]}]},
                 id="bin-width-negative"),
    # the qudit experiments always measure the blurred amplitude
    pytest.param("experiments[0].use_psf",
                 {"experiments": [{"id": "schmidt_fringes", "use_psf": False}]},
                 id="use-psf-removed"),
    # a2 is the one spelling of the curvature; README converts a bandwidth to it
    pytest.param("dispersion.target_bandwidth_nm",
                 {"dispersion": {"model": "taylor", "target_bandwidth_nm": 105.0}},
                 id="target-bandwidth-removed"),
    # flux_check derives the singles bandwidth from the modelled crystals
    pytest.param("experiments[0].bandwidth_nm",
                 {"experiments": [{"id": "flux_check", "bandwidth_nm": 105.0}]},
                 id="flux-bandwidth-removed"),
    # the pump sits at half grid.center_wavelength_nm
    pytest.param("pump.wavelength_nm", {"pump": {"wavelength_nm": 532.0}},
                 id="pump-wavelength-removed"),
    # the Taylor expansion is written around quasi-phase matching, so only
    # the Sellmeier model reads a crystal's poling period
    pytest.param("crystals.spdc.poling_period_um",
                 {"crystals": {"spdc": {"length_mm": 11.5, "poling_period_um": 9.0}}},
                 id="taylor-spdc-poling-period-removed"),
    pytest.param("crystals.sfg.poling_period_um",
                 {"crystals": {"sfg": {"poling_period_um": 9.9}}},
                 id="taylor-sfg-poling-period-removed"),
    # the detector crystal undoes the source's phase-matching phase, so the
    # amplitude is real under either model
    pytest.param("dispersion.include_phase",
                 {"dispersion": {"model": "taylor", "include_phase": True}},
                 id="taylor-include-phase-removed"),
    pytest.param("dispersion.include_phase",
                 {"dispersion": {**sellmeier_pump(), "include_phase": False}},
                 id="sellmeier-include-phase-removed"),
    # 0.2 pixels per bin: the quantized setting once passed the Bell test
    # with a route gap of 3.33
    pytest.param("slm.n_pixels",
                 {"slm": {"n_pixels": 6},
                  "experiments": [{"id": "freq_bin_fringes", "d": 4, "phi_points": 12,
                                   "pixelate": True}]},
                 id="slm-cannot-resolve-bins"),
    # validation builds the bins the run builds: one 257-point sample per bin
    # (a ResolutionError in the run once), and bins beyond the window (a
    # BasisError once)
    pytest.param("experiments[0].bin_width",
                 {"grid": {"n_points": 257, "omega_max": 0.35},
                  "experiments": [{"id": "freq_bin_fringes", "d": 2, "bin_width": 0.003,
                                   "phi_points": 12}]},
                 id="bin-below-the-sample-floor"),
    pytest.param("experiments[0].bin_width",
                 {"grid": {"n_points": 257, "omega_max": 0.35},
                  "experiments": [{"id": "freq_bin_fringes", "d": 4, "bin_width": 0.2,
                                   "bin_spacing": 0.25, "phi_points": 12}]},
                 id="bins-outside-the-window"),
    # the fits need two phase points per free parameter: lambda's three
    # (with counts too) and the time-bin gamma's four once some t1 != 0
    pytest.param("experiments[0].phi_points",
                 {"experiments": [{"id": "schmidt_fringes", "phi_points": 2}]},
                 id="lambda-fit-phi-points"),
    pytest.param("experiments[0].phi_points",
                 {"experiments": [{"id": "freq_bin_fringes", "counts": True,
                                   "phi_points": 5}]},
                 id="counts-fit-phi-points"),
    pytest.param("experiments[0].phi_points",
                 {"experiments": [{"id": "time_bin_sweep", "t1_values_fs": [0, 25],
                                   "phi_points": 7}]},
                 id="gamma-fit-phi-points"),
    # float keys read YAML 1.2 decimals only; int keys take no string at all
    pytest.param("psf.delta_omega", {"psf": {"delta_omega": "inf"}}, id="psf-inf-string"),
    pytest.param("psf.delta_omega", {"psf": {"delta_omega": "nan"}}, id="psf-nan-string"),
    pytest.param("psf.delta_omega", {"psf": {"delta_omega": "1e999"}},
                 id="psf-overflowing-exponent"),
    pytest.param("seed", {"seed": "1e3"}, id="int-key-exponent"),
    # an n-point grid has at most n Schmidt modes; the run once found out
    # after the amplitude build and the blur, and exited 3
    pytest.param("experiments[0].n_modes",
                 {"experiments": [{"id": "fig3_schmidt", "n_modes": 500}]},
                 id="schmidt-modes-beyond-the-grid"),
    pytest.param("experiments[0].d",
                 {"experiments": [{"id": "schmidt_fringes", "d": 200, "phi_points": 12}]},
                 id="schmidt-dimension-beyond-the-grid"),
    # a retired experiment is an unknown id like any other
    pytest.param("experiments[1].id",
                 {"experiments": [{"id": "flux_check"},
                                  {"id": "bell_i2_sweep", "grid_points": 3}]},
                 id="retired-bell-sweep"),
]


@pytest.fixture(scope="module")
def paper_context():
    """Shared state of the shipped default scenario, on the 1025^2 paper amplitude."""
    return ScenarioContext(validate_config(default_config()))


@pytest.fixture(scope="module")
def quick_out(tmp_path_factory):
    """Output directory of one ``configs/quick.yaml`` run."""
    out = tmp_path_factory.mktemp("quick") / "out"
    assert main(["run", str(ROOT / "configs" / "quick.yaml"), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def quick_reports(quick_out):
    """Report of every experiment of the ``configs/quick.yaml`` run, by name."""
    return {path.name.removesuffix("_report.json"):
            json.loads(path.read_text(encoding="utf-8"))["report"]
            for path in quick_out.glob("*_report.json")}


def perfbench_module():
    """``perfbench/run.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def benchmark_trees():
    """Every ``configs/*.yaml`` tree and every tree ``perfbench/run.py`` runs."""
    files = set((ROOT / "configs").glob("*.yaml"))
    trees = []
    for source in perfbench_module().WORKLOADS.values():
        if isinstance(source, str):
            files.add(ROOT / source)
        else:
            trees.append(source)
    assert len(files) >= 2 and trees
    return trees + [load_config(path) for path in sorted(files)]


def write_config(tmp_path, tree, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree), encoding="utf-8")
    return str(path)


class TestValidateConfig:
    def test_default_config_is_valid(self):
        scenario = validate_config(default_config())
        assert scenario.grid.n_points == 1025
        assert len(scenario.experiments) == 7

    def test_default_pump_has_no_wavelength(self):
        assert default_config()["pump"] == {"linewidth_mhz": 5.0}

    def test_shipped_default_yaml_is_valid(self):
        scenario = validate_config(load_config(ROOT / "configs" / "default.yaml"))
        assert len(scenario.experiments) == 10

    def test_shipped_default_yaml_states_the_schema_defaults(self):
        # configs/default.yaml restates every default but its experiment list,
        # crystal keys included: those of the Taylor model, a length only
        shipped, defaults = load_config(ROOT / "configs" / "default.yaml"), default_config()
        del shipped["experiments"], defaults["experiments"]
        assert shipped == defaults
        assert shipped["dispersion"]["model"] == "taylor"
        assert shipped["crystals"] == {role: {"length_mm": 11.5} for role in ("spdc", "sfg")}

    def test_every_schema_key_is_documented(self):
        # a key is documented by a README code span that is its key path,
        # optionally followed by ": value" (`dispersion.a2`, `a2: 7.93`), or
        # by a key of configs/default.yaml
        spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8"))
        paths = (re.fullmatch(r"([A-Za-z_][\w.]*)(?::.*)?", span) for span in spans)
        documented = {name for path in paths if path for name in path[1].split(".")}

        def keys(tree):
            for key, value in tree.items():
                yield key
                if isinstance(value, dict):
                    yield from keys(value)

        shipped = load_config(ROOT / "configs" / "default.yaml")
        for entry in shipped.pop("experiments"):
            documented.update(entry)
        documented.update(keys(shipped))
        # the model tables are keyed by dispersion.model, the experiment
        # tables by experiment id: values, not keys
        tables = (_SCHEMA, _SELLMEIER_INDEX, *_DISPERSION.values(), *_CRYSTALS.values(),
                  *_EXPERIMENT_PARAMS.values())
        missing = sorted({key for table in tables for key in keys(table)} - documented)
        assert not missing, f"config keys in neither README.md nor default.yaml: {missing}"

    def test_benchmark_workloads_are_valid(self):
        # the benchmark runs these trees, so a schema change that rejects
        # one fails here rather than in a benchmark run
        for tree in benchmark_trees():
            validate_config(tree)

    def test_benchmark_windows_hold_the_spectrum(self):
        # each reads about 1e-8, two decades below this and four below the
        # run's bound, so a bound that trips a workload fails here first
        for tree in benchmark_trees():
            ctx = ScenarioContext(validate_config(tree))
            ctx.gamma  # builds the amplitude and measures its window edge
            assert ctx.window_edge_weight < 1e-6, tree.get("grid")

    def test_unknown_top_level_key(self):
        tree = default_config()
        tree["pump_power"] = 5
        with pytest.raises(ConfigError) as err:
            validate_config(tree)
        assert err.value.path == "pump_power"

    def test_unknown_experiment_id(self):
        tree = default_config()
        tree["experiments"] = [{"id": "fig9"}]
        with pytest.raises(ConfigError) as err:
            validate_config(tree)
        assert err.value.path == "experiments[0].id"

    def test_bad_dimension(self):
        tree = default_config()
        tree["experiments"] = [{"id": "freq_bin_fringes", "d": 1}]
        with pytest.raises(ConfigError) as err:
            validate_config(tree)
        assert err.value.path == "experiments[0].d"

    def test_wrong_version(self):
        tree = default_config()
        tree["version"] = 2
        with pytest.raises(ConfigError) as err:
            validate_config(tree)
        assert err.value.path == "version"

    def test_missing_experiments(self):
        tree = default_config()
        del tree["experiments"]
        with pytest.raises(ConfigError) as err:
            validate_config(tree)
        assert err.value.path == "experiments"

    def test_even_grid_rejected(self):
        tree = default_config()
        tree["grid"]["n_points"] = 1024
        with pytest.raises(ConfigError) as err:
            validate_config(tree)
        assert err.value.path == "grid.n_points"

    def test_crystals_share_one_curvature(self):
        # one material: the detector crystal's length leaves its a2 alone
        tree = default_config()
        tree["crystals"] = {"spdc": {"length_mm": 11.5}, "sfg": {"length_mm": 5.75}}
        tree["dispersion"] = {"model": "taylor", "a2": 7.93}
        scenario = validate_config(tree)
        assert scenario.spdc.dispersion.a2 == scenario.sfg.dispersion.a2 == 7.93

    def test_sellmeier_model(self):
        tree = default_config()
        index = {"a": 3.2, "terms": [[0.8, 0.05]], "d": 0.01}
        tree["dispersion"] = {"model": "sellmeier", "pump": index, "idler": index,
                              "signal": index}
        scenario = validate_config(tree)
        assert scenario.spdc.dispersion.index_p.a == 3.2

    def test_sellmeier_crystals_read_their_poling_period(self):
        # under Sellmeier the grating term 2*pi/G is physical: a toy material
        # poled to quasi-match at degeneracy, and the same 1e-4 off it
        toy = {"a": 3.2, "terms": [[0.9, 0.06]], "d": 0.008}
        tree = {**QUICK_CONFIG, "dispersion": {"model": "sellmeier", "pump": toy,
                                               "idler": toy, "signal": toy}}
        matched = validate_config(tree)
        dk0 = matched.spdc.dispersion.mismatch(0.0, 0.0, matched.grid.pump_center_frequency)
        amplitudes = []
        for period in np.array([1.0, 1.0001]) * 2.0 * np.pi / (-dk0) * 1e3:
            crystal = {"length_mm": 11.5, "poling_period_um": float(period)}
            scenario = validate_config({**tree, "crystals": {"spdc": crystal, "sfg": crystal}})
            assert scenario.spdc.poling_period == scenario.sfg.poling_period == period
            amplitudes.append(ScenarioContext(scenario).gamma.values)
        assert np.max(np.abs(amplitudes[1] - amplitudes[0])) > 0.1 * np.max(np.abs(amplitudes[0]))

    def test_runners_match_accepted_experiment_ids(self):
        accepted = {entry["id"] for entry in default_config()["experiments"]}
        assert set(EXPERIMENT_RUNNERS) == accepted
        for exp_id in EXPERIMENT_RUNNERS:
            tree = default_config()
            tree["experiments"] = [{"id": exp_id}]
            validate_config(tree)

    def test_experiment_ids_agree_across_schema_runners_and_readme(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### Experiments\n", 1)[1]
        table = section.strip().split("\n\n")[0]
        assert table.startswith("| id")
        listed = re.findall(r"^\| `(\w+)`", table, re.M)
        assert len(listed) == len(set(listed))
        assert set(listed) == set(_EXPERIMENT_PARAMS) == set(EXPERIMENT_RUNNERS)

    def test_exponent_floats_are_floats(self, tmp_path):
        # PyYAML reads YAML 1.1, where these three are strings
        path = tmp_path / "scenario.yaml"
        path.write_text("version: 1\noutput_dir: 1e5\npsf: {delta_omega: 1e-2}\n"
                        "counting: {duration_s: 1E3}\n"
                        "experiments: [{id: time_bin_sweep, t1_values_fs: [0, 1e1]}]\n",
                        encoding="utf-8")
        tree = load_config(path)
        assert tree["psf"]["delta_omega"] == "1e-2"
        scenario = validate_config(tree)
        assert scenario.psf_delta_omega == 0.01
        assert scenario.counting.duration == 1000.0
        assert scenario.experiments[0].params["t1_values_fs"] == [0.0, 10.0]
        assert scenario.output_dir == "1e5"

    def test_duplicate_experiment_names_disambiguated(self):
        tree = default_config()
        tree["experiments"] = [{"id": "flux_check"}, {"id": "flux_check"}]
        scenario = validate_config(tree)
        names = [e.name for e in scenario.experiments]
        assert len(set(names)) == 2


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, QUICK_CONFIG)
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_does_not_import_scipy_signal(self, tmp_path):
        path = write_config(tmp_path, QUICK_CONFIG)
        src = str(Path(biphoton_shaper.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import biphoton_shaper; "
                "from biphoton_shaper.cli import main; "
                "print(main(['validate', sys.argv[2]]), 'scipy.signal' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code, src, path],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_malformed_config_exits_2_without_outputs(self, tmp_path, capsys):
        bad = dict(QUICK_CONFIG)
        bad["experiments"] = [{"id": "flux_check", "powr_uw": 1.0}]
        path = write_config(tmp_path, bad)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        assert "experiments[0].powr_uw" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key, replaced", MALFORMED_VALUES)
    def test_malformed_value_exits_2_without_outputs(self, tmp_path, capsys, command, key,
                                                     replaced):
        path = write_config(tmp_path, {**QUICK_CONFIG, **replaced})
        out = tmp_path / "out"
        argv = [command, path] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_override_exits_2_without_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--seed", "-1"]) == 2
        assert "config error: seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 1

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        tree = dict(QUICK_CONFIG)
        tree["dispersion"] = {"model": "taylor", "a2": 1e9}  # unresolvable sinc
        path = write_config(tmp_path, tree)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        assert "ResolutionError" in capsys.readouterr().err

    def test_window_that_cuts_the_spectrum_exits_3(self, tmp_path, capsys):
        # a2 = 0.5 puts 1.6e-2 of |Gamma|^2 in the outer 2% of quick's window
        tree = load_config(ROOT / "configs" / "quick.yaml")
        tree["dispersion"] = {"a2": 0.5}
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("simulation error [ResolutionError]: ")
        assert "grid.omega_max" in err
        assert not out.exists()

    def test_unresolved_sfg_crystal_is_named_in_the_error(self, tmp_path, capsys):
        # a 5 m upconversion crystal narrows its sinc below quick's grid
        tree = load_config(ROOT / "configs" / "quick.yaml")
        tree["crystals"] = {"sfg": {"length_mm": 5000}}
        path = write_config(tmp_path, tree)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.rstrip("\n").endswith(
            "phase-matching main lobe of the SFG crystal covers 3 grid samples (< 8); "
            "refine the grid")

    def test_flux_check_mode_density_is_power_over_max_power(self, tmp_path):
        tree = load_config(ROOT / "configs" / "default.yaml")
        tree["experiments"] = [e for e in tree["experiments"] if e["id"] == "flux_check"]
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        report = json.loads((out / "flux_check_report.json").read_text())["report"]
        assert report["operating_power_uw"] == 1.0
        assert report["mode_density"] == 1e-6 / report["max_power_w"]
        # P_max = 3.03 uW for default's 61.4 nm singles band (5.2 uW at the paper's 105 nm)
        assert abs(report["mode_density"] - 0.330) < 0.001

    @pytest.mark.parametrize("wavelength", [1.0e-200, 1.0e+160, 1.0e+150])
    def test_unrepresentable_flux_limit_exits_3(self, tmp_path, capsys, wavelength):
        # lambda^2 underflows to 0, overflows, or the limit's power underflows
        # to 0: each once ended the run in a traceback
        tree = {**QUICK_CONFIG, "experiments": [{"id": "flux_check"}],
                "grid": {"n_points": 129, "center_wavelength_nm": wavelength}}
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("simulation error [NumericalError]: ")
        assert "grid.center_wavelength_nm" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_window_short_of_the_singles_half_maximum_exits_3(self, tmp_path, capsys):
        # a2 = 0.4 puts the sinc^2 half maximum at 0.389 rad/fs, beyond quick's 0.35
        tree = load_config(ROOT / "configs" / "quick.yaml")
        tree["dispersion"] = {"a2": 0.4}
        tree["experiments"] = [{"id": "flux_check"}]
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("simulation error [ResolutionError]: ")
        assert "grid.omega_max" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_grid_above_the_size_limit_exits_2(self, tmp_path, capsys, command):
        # 20001^2 takes 3.2 GB for the amplitude alone, four planes 12.8 GB
        tree = {**QUICK_CONFIG, "grid": {"n_points": 20001, "omega_max": 0.35}}
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        argv = [command, path] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"config error: grid.n_points: must be <= {MAX_GRID_POINTS}, the "
                        f"largest grid that runs in 4 GiB, got 20001")
        assert not out.exists()

    def test_size_limit_is_the_largest_odd_grid_in_four_gib(self):
        # four n^2 float64 planes (config.MAX_GRID_POINTS) in 4 GiB
        assert MAX_GRID_POINTS % 2 == 1
        assert 32 * MAX_GRID_POINTS**2 <= 4 << 30 < 32 * (MAX_GRID_POINTS + 2) ** 2
        for n_points, valid in ((MAX_GRID_POINTS, True), (MAX_GRID_POINTS + 2, False)):
            tree = {**QUICK_CONFIG, "grid": {"n_points": n_points, "omega_max": 0.35}}
            if valid:
                assert validate_config(tree).grid.n_points == n_points
            else:
                with pytest.raises(ConfigError) as err:
                    validate_config(tree)
                assert err.value.path == "grid.n_points"

    def test_grid_too_large_for_memory_exits_3(self, tmp_path):
        # the largest grid that validates needs 8 n^2 = 1.07 GB for the real
        # amplitude alone, beyond the 512 MiB address-space limit, which is
        # set in the child only, so the allocation fails there at once
        limit = 512 << 20
        tree = {**QUICK_CONFIG, "grid": {"n_points": MAX_GRID_POINTS, "omega_max": 0.35},
                "experiments": [{"id": "fig2_amplitude"}]}
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        src = str(Path(biphoton_shaper.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from biphoton_shaper.cli import "
                "main; sys.exit(main(sys.argv[2:]))")
        done = subprocess.run(
            [sys.executable, "-c", code, src, "run", path, "--out", str(out)],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 3, done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith("simulation error [MemoryError]: ")
        assert f"grid.n_points = {MAX_GRID_POINTS}" in line
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(b"version: 1\nseed: \xff\n")
        out = tmp_path / "out"
        argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error: <document>: not valid YAML: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("text", [b"version: 1\nseed: \xff\n", b"version: 1\ngrid: [1, 2"],
                             ids=["undecodable", "unclosed"])
    def test_yaml_error_is_one_line(self, tmp_path, capsys, command, text):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(text)
        out = tmp_path / "out"
        argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = (captured.out + captured.err).splitlines()
        assert line.startswith("config error: <document>: not valid YAML: ")
        assert str(path) in line

    def test_quick_qudit_routes_agree_and_reports_hold_the_reference_numbers(self,
                                                                             quick_reports):
        for name in ("freq_bin_fringes_d2", "schmidt_fringes_d2", "procrustean_d3"):
            assert quick_reports[name]["route_max_gap"] <= 1e-12, name
        bench = perfbench_module()
        reference = json.loads((ROOT / "perfbench" / "reference.json")
                               .read_text(encoding="utf-8"))["quick"]
        # the reference keeps the report of the retired bell_i2_sweep
        assert quick_reports.keys() == reference.keys() - {"bell_i2_sweep"}

        # The BLAS thread count picks the branch of a noise-free gamma fit,
        # so both sides are compared on their gamma2 <= 1 images.  The
        # benchmark's reference check applies no such map: a changed gamma
        # branch still fails it.
        def canonical(numbers):
            numbers = dict(numbers)
            for path in [p for p in numbers if p.endswith("gamma1")]:
                twin = path.removesuffix("gamma1") + "gamma2"
                numbers[path], numbers[twin] = canonical_gamma(numbers[path], numbers[twin])
            return numbers

        for name, report in quick_reports.items():
            got = canonical(bench.reference_numbers(report))
            want = canonical(reference[name])
            assert got.keys() == want.keys(), name
            for path, value in want.items():
                assert (abs(got[path] - value)
                        <= bench.REFERENCE_ATOL + bench.REFERENCE_RTOL * abs(value)), \
                    (name, path, got[path], value)

    def test_quick_qudit_reports_state_their_filter(self, quick_out, quick_reports):
        # every qudit experiment equalizes its diagonal with the Procrustean
        # filter, and reports and tabulates what the filter did
        qudit = {name: quick_reports[name] for name in
                 ("freq_bin_fringes_d2", "schmidt_fringes_d2", "procrustean_d3")}
        assert qudit.keys() == {name for name, report in quick_reports.items() if "d" in report}
        for name, report in qudit.items():
            before, after, filt = (np.array(report[key]) for key in
                                   ("signals_before", "signals_after", "procrustean_amplitudes"))
            assert np.array_equal(after, filt**4 * before), name
            assert report["equalization_spread"] == after.max() / after.min() - 1.0
            assert report["equalization_spread"] < 1e-12, name
            (path,) = quick_out.glob(f"{name}_signals_*.csv")
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            assert header == "k,signal_before,filter_amplitude,signal_after"
            table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
            assert np.array_equal(table, np.column_stack([np.arange(len(filt)), before,
                                                          filt, after])), name

    def test_count_record_with_no_counts_exits_3(self, tmp_path, capsys):
        tree = {**QUICK_CONFIG, "grid": {"n_points": 257, "omega_max": 0.35},
                "counting": {"duration_s": 0.0},
                "experiments": [{"id": "freq_bin_fringes", "counts": True}]}
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("simulation error [FitError]: ")
        assert not out.exists()

    def test_non_physical_sellmeier_index_exits_3_naming_it(self, tmp_path, capsys):
        # n^2 = -5 used to surface as a sqrt RuntimeWarning and a ResolutionError
        tree = {**QUICK_CONFIG,
                "dispersion": {"model": "sellmeier", "pump": {"a": -5.0},
                               "idler": {"a": 2.0}, "signal": {"a": 2.0}},
                "experiments": [{"id": "fig2_amplitude"}]}
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("simulation error [DomainError]: Sellmeier index is not physical "
                       "at 0.532 um: n^2 = -5\n")
        assert not out.exists()

    def test_eigensolver_failure_exits_3_without_traceback(self, tmp_path, capsys,
                                                           monkeypatch):
        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        path = write_config(tmp_path, SCHMIDT_CONFIG)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("simulation error [NumericalError]: Schmidt eigensolver failed")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("experiment", ["freq_bin_fringes", "procrustean",
                                            "schmidt_fringes", "time_bin_sweep"])
    def test_single_phase_point_exits_2_without_outputs(self, tmp_path, capsys, command,
                                                        experiment):
        tree = {**QUICK_CONFIG, "experiments": [{"id": experiment, "phi_points": 1}]}
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        argv = [command, path] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("config error: experiments[0].phi_points: need at least")
        assert not out.exists()

    def test_zero_delay_sweep_needs_no_fit_points(self, tmp_path):
        # at t1 = 0 the sweep compares with cos^4 in closed form and fits nothing
        tree = {**QUICK_CONFIG, "experiments": [{"id": "time_bin_sweep", "t1_values_fs": [0],
                                                 "phi_points": 1}]}
        assert main(["validate", write_config(tmp_path, tree)]) == 0

    def test_dimension_five_runs(self, tmp_path, capsys):
        tree = {**SCHMIDT_CONFIG,
                "experiments": [{"id": "schmidt_fringes", "d": 5, "phi_points": 12}]}
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "schmidt_fringes_d5_report.json").read_text())["report"]
        assert report["d"] == 5
        assert len(report["mode_weights"]) == 5
        assert round(report["visibility_critical"], 5) == 0.84595

    def test_dimension_one_exits_2(self, tmp_path, capsys):
        tree = {**SCHMIDT_CONFIG, "experiments": [{"id": "schmidt_fringes", "d": 1}]}
        path = write_config(tmp_path, tree)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: experiments[0].d: ")

    # d bins of the default spacing overrun the 257-point window, which
    # validation sees before any amplitude is built
    @pytest.mark.parametrize("experiment, key", [
        ({"id": "freq_bin_fringes", "d": 30}, "bin_width"),
        ({"id": "procrustean", "d": 30, "bin_widths": [0.01] * 30}, "bin_widths"),
    ], ids=lambda case: case["id"] if isinstance(case, dict) else case)
    def test_bins_too_many_for_the_grid_exit_2(self, tmp_path, capsys, experiment, key):
        tree = {**SCHMIDT_CONFIG, "experiments": [{**experiment, "phi_points": 12}]}
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"config error: experiments[0].{key}: the bins do not fit "
                              f"the grid: bin ")
        assert "extends outside the grid window" in err
        assert not out.exists()

    def test_dimension_too_large_for_the_grid_exits_3(self, tmp_path, capsys):
        # d = 200 exceeds the blurred amplitude's numerical Schmidt rank,
        # which only the run's decomposition can tell
        tree = {**SCHMIDT_CONFIG,
                "experiments": [{"id": "schmidt_fringes", "d": 200, "phi_points": 12}]}
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("simulation error [RankError]: ")
        assert not out.exists()

    def test_counts_at_float_max_peak_rate_exit_0(self, tmp_path, capsys):
        # peak_rate * signal overflowed to inf before the division by the peak
        tree = {**QUICK_CONFIG,
                "counting": {"peak_rate_hz": 1.0e+308, "duration_s": 1.0e-300},
                "experiments": [{"id": "freq_bin_fringes", "counts": True}]}
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "freq_bin_fringes_d2_counts_004.csv").is_file()

    def test_run_writes_manifest_and_reports(self, tmp_path, capsys):
        path = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "flux_check" in stdout and "PASS" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        names = {f["name"] for f in manifest["files"]}
        assert "flux_check_report.json" in names
        flux = json.loads((out / "flux_check_report.json").read_text())["report"]
        # the singles FWHM of the default a2 = 23.2 (README), not the paper's 105 nm
        assert abs(flux["bandwidth_nm"] - 61.4) / 61.4 < 0.005
        assert (flux["max_flux_per_s"], flux["max_power_w"]) == photon_flux_limit(
            flux["bandwidth_nm"], 1064.0)
        report = json.loads((out / "freq_bin_fringes_d2_report.json").read_text())
        assert report["passed"] is True
        assert report["report"]["lambda"] > 0.999  # ideal scan fits at unity
        assert report["report"]["visibility"] > report["report"]["visibility_critical"]

    def test_overwrite_needs_force(self, tmp_path):
        path = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        assert main(["run", path, "--out", str(out)]) == 1
        assert main(["run", path, "--out", str(out), "--force"]) == 0

    def test_determinism_same_seed_identical_hashes(self, tmp_path):
        path = write_config(tmp_path, QUICK_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out_a)]) == 0
        assert main(["run", path, "--out", str(out_b)]) == 0
        manifest_a = (out_a / "manifest.json").read_text()
        manifest_b = (out_b / "manifest.json").read_text()
        assert manifest_a == manifest_b

    def test_seed_override_changes_counts(self, tmp_path):
        tree = dict(QUICK_CONFIG)
        tree["experiments"] = [{"id": "freq_bin_fringes", "d": 2, "phi_points": 12,
                                "counts": True}]
        path = write_config(tmp_path, tree)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out_a)]) == 0
        assert main(["run", path, "--out", str(out_b), "--seed", "123"]) == 0
        counts_a = (out_a / "freq_bin_fringes_d2_counts_004.csv").read_text()
        counts_b = (out_b / "freq_bin_fringes_d2_counts_004.csv").read_text()
        assert counts_a != counts_b

    def test_pixelated_fringe_experiment(self, tmp_path):
        tree = dict(QUICK_CONFIG)
        # a grid that resolves the pixel lattice, so quantization is explicit
        tree["grid"] = {"n_points": 257, "omega_max": 0.35}
        tree["slm"] = {"n_pixels": 128, "pixel_width_um": 100.0, "gap_um": 3.0}
        tree["experiments"] = [{"id": "freq_bin_fringes", "d": 2, "phi_points": 12,
                                "pixelate": True}]
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        report = json.loads((out / "freq_bin_fringes_d2_report.json").read_text())
        assert report["report"]["pixelated"] is True
        # quantized transfers leave the basis span: a real route gap appears,
        # but the violation survives
        assert report["report"]["route_max_gap"] > 1e-6
        assert report["report"]["visibility"] > report["report"]["visibility_critical"]

    def test_pixelated_transfer_table_is_the_quantized_setting(self):
        # the exported idler transfer is the phase-zero setting as the
        # modulator applies it: opaque at the inter-pixel gaps
        tree = {**QUICK_CONFIG, "grid": {"n_points": 257, "omega_max": 0.35},
                "slm": {"n_pixels": 128, "pixel_width_um": 100.0, "gap_um": 3.0},
                "experiments": [{"id": "freq_bin_fringes", "d": 3, "phi_points": 12,
                                 "pixelate": True}]}
        scenario = validate_config(tree)
        req = scenario.experiments[0]
        result = EXPERIMENT_RUNNERS[req.id](ScenarioContext(scenario), req)
        report, table = result.report, result.tables["transfer_idler"]
        basis = frequency_bins(report["bin_centers"], report["bin_widths"], scenario.grid)
        raw = transfer_from_coefficients(basis, report["procrustean_amplitudes"], np.zeros(3))
        want = pixelate(raw, scenario.slm).values
        assert np.array_equal(table["re_m"], want.real)
        assert np.array_equal(table["im_m"], want.imag)
        assert np.any((table["abs_m"] == 0.0) & (np.abs(raw.values) > 0.5))

    @pytest.mark.parametrize("experiment", [
        *({"id": "schmidt_fringes", "d": d, "phi_points": 16} for d in (2, 3, 4, 5)),
        *({"id": "freq_bin_fringes", "d": d, "phi_points": 12, "pixelate": True}
          for d in (2, 3)),
        {"id": "procrustean", "d": 3, "phi_points": 16},
    ], ids=lambda e: f"{e['id']}-d{e['d']}")
    def test_transfer_table_is_the_first_scan_row(self, paper_context, monkeypatch,
                                                  experiment):
        # one phase-independent scale: the exported phase-zero setting is the
        # idler row the full-field scan applied at phi = 0, bit for bit
        idler_stacks = []
        real_scan = biphoton_shaper.measurement.coincidence_scan

        def recording(amp, m_i, m_s):
            idler_stacks.append(m_i.values)
            return real_scan(amp, m_i, m_s)

        monkeypatch.setattr(biphoton_shaper.measurement, "coincidence_scan", recording)
        req = validate_config({**default_config(), "experiments": [experiment]}).experiments[0]
        table = EXPERIMENT_RUNNERS[req.id](paper_context, req).tables["transfer_idler"]
        (stack,) = idler_stacks
        assert np.array_equal(table["re_m"], stack[0].real)
        assert np.array_equal(table["im_m"], stack[0].imag)

    def test_default_time_bin_sweep_matches_the_franson_closed_form(self, paper_context):
        # The closed form holds for Taylor with a1 = a3 = 0, a real amplitude
        # and T = R.  The bounds are its measured gaps, rounded up: the window
        # cuts the ridge (on a doubled window they shrink 19- to 83-fold).
        # The fit cannot see the sign of gamma1, which the closed form gives
        # as negative at 70 and 100 fs, so |gamma1| is compared.
        scenario = paper_context.scenario
        assert scenario.spdc.dispersion.a1 == scenario.spdc.dispersion.a3 == 0.0
        req = next(req for req in scenario.experiments if req.id == "time_bin_sweep")
        report = EXPERIMENT_RUNNERS[req.id](paper_context, req).report
        assert report["t1_values_fs"] == [0.0, 10.0, 25.0, 35.0, 50.0, 70.0, 100.0]
        bounds = {"no_psf": (0.0, 2.2e-6, 1.1e-8),
                  "psf": (scenario.psf_delta_omega, 2.2e-5, 1.9e-6)}
        for row in report["sweep"]:
            for label, (width, bound1, bound2) in bounds.items():
                gamma1, gamma2 = canonical_gamma(row[label]["gamma1"], row[label]["gamma2"])
                want1, want2 = franson_gamma(scenario.grid, scenario.pump, scenario.spdc,
                                             scenario.sfg, width, row["t1_fs"])
                assert abs(abs(gamma1) - abs(want1)) <= bound1, (label, row["t1_fs"])
                assert abs(gamma2 - want2) <= bound2, (label, row["t1_fs"])

    def test_fig2_reports_the_blurred_window_edge_weight(self):
        # the blur spreads weight toward the window edge: at 0.2 rad/fs the
        # blurred amplitude's edge weight (1.2e-4) is above the run's bound on
        # the unblurred one (1e-4), which reads 9.6e-9
        weights = {}
        for width in (0.0, 0.2):
            tree = {**QUICK_CONFIG, "psf": {"delta_omega": width},
                    "experiments": [{"id": "fig2_amplitude"}]}
            scenario = validate_config(tree)
            req = scenario.experiments[0]
            report = EXPERIMENT_RUNNERS[req.id](ScenarioContext(scenario), req).report
            weights[width] = report["window_edge_weight"], report["window_edge_weight_psf"]
        assert weights[0.0][1] == weights[0.0][0]
        assert weights[0.2][0] == weights[0.0][0]
        assert weights[0.2][1] > 1e3 * weights[0.2][0]

    def test_each_amplitude_decomposed_once(self, tmp_path, eigensolver_calls):
        # values only for gamma (fig2), with modes for gamma_psf (fig2, fig3
        # and both Schmidt fringes)
        path = write_config(tmp_path, SCHMIDT_CONFIG)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        n = SCHMIDT_CONFIG["grid"]["n_points"]
        assert sorted(eigensolver_calls.decompositions(n)) == ["eigh", "eigvalsh"]
        assert eigensolver_calls.svd == 0
        # both amplitudes are mirror symmetric: the even and odd parity blocks
        assert sorted(eigensolver_calls) == [(kind, order) for kind in ("eigh", "eigvalsh")
                                             for order in ((n - 1) // 2, (n + 1) // 2)]

    def test_zero_width_psf_decomposes_one_amplitude_once(self, tmp_path, eigensolver_calls):
        # with no blur gamma_psf is gamma itself, so fig2's values-only
        # request on gamma reads the modes decomposed up front
        path = write_config(tmp_path, {**SCHMIDT_CONFIG, "psf": {"delta_omega": 0.0}})
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert eigensolver_calls.decompositions(SCHMIDT_CONFIG["grid"]["n_points"]) == ["eigh"]

    def test_schmidt_reports_match_amplitude_svd(self, tmp_path):
        path = write_config(tmp_path, SCHMIDT_CONFIG)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0

        def report(name):
            return json.loads((out / f"{name}_report.json").read_text())["report"]

        amp = ScenarioContext(validate_config(SCHMIDT_CONFIG)).gamma_psf
        beta, _ = amplitude_svd(amp)
        fig3 = report("fig3_schmidt")
        assert fig3["captured_weight"] == pytest.approx(beta[:6].sum(), rel=1e-12)
        assert fig3["gram_max_offdiag"] == pytest.approx(
            max_offdiag(schmidt_modes(amp, 6)), rel=1e-9, abs=1e-15)
        for d in (2, 3):
            assert report(f"schmidt_fringes_d{d}")["mode_weights"] == pytest.approx(
                beta[:d], rel=1e-12)

    def test_close_t1_values_write_distinct_tables(self, tmp_path):
        def fringe_tables(t1_values, out):
            tree = {**QUICK_CONFIG, "experiments": [
                {"id": "time_bin_sweep", "t1_values_fs": t1_values, "phi_points": 12}]}
            assert main(["run", write_config(tmp_path, tree), "--out", str(out)]) == 0
            return {p.name.rsplit("_", 1)[0]: p.read_text()
                    for p in out.glob("time_bin_sweep_fringe_*.csv")}

        tables = fringe_tables([0, 10, 10.000001, 50], tmp_path / "close")
        assert sorted(tables) == sorted(
            f"time_bin_sweep_fringe_t{tag}_{label}"
            for tag in ("0", "10", "10.000001", "50") for label in ("no_psf", "psf"))
        # the 10 fs tables hold the 10 fs scans, as in a sweep without 10.000001
        alone = fringe_tables([0, 10, 50], tmp_path / "alone")
        for label in ("no_psf", "psf"):
            key = f"time_bin_sweep_fringe_t10_{label}"
            assert tables[key] == alone[key]
            assert tables[key] != tables[f"time_bin_sweep_fringe_t10.000001_{label}"]

    def test_phase_offset_at_zero_delay_fails_the_sweep(self, paper_context, monkeypatch):
        # a separable pair has no free phase: cos^4(phi/2) shifted by 0.3 rad
        # at t1 = 0 is not the zero-delay fringe, although a fit with a free
        # phase matches it
        req = validate_config({**default_config(), "experiments": [
            {"id": "time_bin_sweep", "phi_points": 12}]}).experiments[0]
        run = EXPERIMENT_RUNNERS[req.id]
        result = run(paper_context, req)
        assert result.passed is True
        assert result.report["cos4_residual_at_t1_0"] < 1e-15

        real_transfer = biphoton_shaper.shaper.franson_transfer

        def offset(transmission, reflection, delta_t10, phi, grid):
            shift = 0.3 if delta_t10 == 0.0 else 0.0
            return real_transfer(transmission, reflection, delta_t10, phi + shift, grid)

        monkeypatch.setattr(biphoton_shaper.shaper, "franson_transfer", offset)
        result = run(paper_context, req)
        assert result.passed is False
        assert result.summary.endswith("-> FAIL")
        for label in ("no_psf", "psf"):
            assert result.report["sweep"][0][label]["cos4_residual"] > 0.1

    def test_csv_dialect(self, tmp_path):
        path = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        raw = (out / "freq_bin_fringes_d2_fringe_full_field_000.csv").read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        header = text.splitlines()[0]
        assert header == "phi_rad,signal"
        first = text.splitlines()[1].split(",")
        assert len(first) == 2
        float(first[1])  # parses as a number


def _grid_257(tree):
    """``tree`` on a 257-point grid over the same window."""
    return {**tree, "grid": {**tree.get("grid", {}), "n_points": 257}}


def _rendered(results):
    """Every report and table of ``results``, rendered as the run writes them."""
    return [(_render_json(r.report), [_render_csv(t) for t in r.tables.values()])
            for r in results]


class TestGammaRelease:
    """The runner frees the unblurred amplitude after its last reader."""

    # phase points and delays that keep each experiment's run short
    FAST_PARAMS = {"freq_bin_fringes": {"phi_points": 12},
                   "time_bin_sweep": {"t1_values_fs": [0, 25], "phi_points": 12},
                   "schmidt_fringes": {"phi_points": 12},
                   "procrustean": {"phi_points": 12}}

    @pytest.mark.parametrize("exp_id", sorted(EXPERIMENT_RUNNERS))
    def test_every_reader_is_listed(self, exp_id):
        # After the drop a read of ctx.gamma builds the amplitude again, so a
        # runner that reads it must be in GAMMA_READERS, and one that is
        # listed must read it (or the run keeps it for nothing).
        tree = _grid_257({**QUICK_CONFIG, "experiments": [
            {"id": exp_id, **self.FAST_PARAMS.get(exp_id, {})}]})
        scenario = validate_config(tree)
        ctx = ScenarioContext(scenario)
        ctx.gamma_psf
        del ctx.gamma
        EXPERIMENT_RUNNERS[exp_id](ctx, scenario.experiments[0])
        assert ("gamma" in vars(ctx)) == (exp_id in GAMMA_READERS)

    @pytest.mark.parametrize("width", [None, 0.0], ids=["shipped-psf", "no-psf"])
    @pytest.mark.parametrize("source", ["quick", "default", "fringe_scan", "schmidt_2049"])
    def test_gamma_is_freed_after_its_last_reader(self, monkeypatch, source, width):
        tree = perfbench_module().WORKLOADS[source]
        if isinstance(tree, str):
            tree = load_config(ROOT / tree)
        tree = _grid_257(tree)
        if width is not None:
            tree["psf"] = {"delta_omega": width}
        scenario = validate_config(tree)
        ids = [req.id for req in scenario.experiments]
        last_reader = max(k for k, exp_id in enumerate(ids) if exp_id in GAMMA_READERS)
        assert last_reader + 1 < len(ids)

        calls = {"build": 0, "blur": 0}
        gamma_ref = []
        real_build = biphoton_shaper.spectral_field.build_joint_amplitude
        real_blur = biphoton_shaper.spectral_field.apply_psf

        def build(*args):
            calls["build"] += 1
            amp = real_build(*args)
            gamma_ref.append(weakref.ref(amp))
            return amp

        def blur(*args):
            calls["blur"] += 1
            return real_blur(*args)

        alive = []  # whether Gamma was alive as each experiment started
        for exp_id, runner in EXPERIMENT_RUNNERS.items():
            def starting(ctx, req, runner=runner):
                alive.append(bool(gamma_ref) and gamma_ref[0]() is not None)
                return runner(ctx, req)
            monkeypatch.setitem(EXPERIMENT_RUNNERS, exp_id, starting)
        monkeypatch.setattr(biphoton_shaper.spectral_field, "build_joint_amplitude", build)
        monkeypatch.setattr(biphoton_shaper.spectral_field, "apply_psf", blur)
        released = run_scenario_experiments(scenario)
        assert calls == {"build": 1, "blur": 1}
        # with no blur gamma_psf is Gamma itself, so the drop only removes a name
        assert alive[last_reader + 1:] == [width == 0.0] * (len(ids) - last_reader - 1)

        if width == 0.0:
            # every report and table as in a run that keeps Gamma throughout
            monkeypatch.setattr(biphoton_shaper.scenarios, "GAMMA_READERS",
                                frozenset(EXPERIMENT_RUNNERS))
            assert _rendered(released) == _rendered(run_scenario_experiments(scenario))

    def test_amplitude_tables_have_real_columns_only(self):
        tree = {**QUICK_CONFIG, "experiments": [{"id": "fig2_amplitude", "export_stride": 8},
                                                {"id": "fig3_schmidt", "n_modes": 3}]}
        results = run_scenario_experiments(validate_config(tree))
        assert [list(table) for r in results for table in r.tables.values()] == [
            ["omega_i", "omega_s", "re"], ["omega_i", "omega_s", "re"],
            ["omega", "re_f0", "re_f1", "re_f2"], ["j", "beta"]]


class TestEmitOutputs:
    def test_manifest_lists_every_artifact(self, tmp_path):
        path = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {f["name"] for f in manifest["files"]}
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert listed == on_disk

    @pytest.mark.parametrize("existing", [False, True])
    def test_write_error_leaves_directory_as_it_was(self, tmp_path, monkeypatch, capsys,
                                                    existing):
        path = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "out"
        if existing:
            # every file a --force run would replace, with other content
            assert main(["run", path, "--out", str(out)]) == 0
            for old in out.iterdir():
                old.write_bytes(b"old\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()} if existing else None
        real_write_bytes = Path.write_bytes
        writes = []

        def failing_third_write(self, data):
            writes.append(self.name)
            if len(writes) == 3:
                raise OSError(28, "No space left on device")
            return real_write_bytes(self, data)

        monkeypatch.setattr(Path, "write_bytes", failing_third_write)
        argv = ["run", path, "--out", str(out)] + (["--force"] if existing else [])
        assert main(argv) == 1
        assert "output error" in capsys.readouterr().err
        assert len(writes) == 3
        if existing:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        else:
            assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["out", "scenario.yaml"] if existing else ["scenario.yaml"])

    @staticmethod
    def _contents(directory):
        return {str(p.relative_to(directory)): p.read_bytes()
                for p in sorted(directory.rglob("*")) if p.is_file()}

    def test_directory_in_place_of_an_output_leaves_outputs_as_they_were(self, tmp_path):
        path = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        # the last output before the manifest, so every other file comes first
        blocked = json.loads((out / "manifest.json").read_text())["files"][-1]["name"]
        for old in out.iterdir():
            old.write_bytes(b"old\n")
        (out / blocked).unlink()
        (out / blocked).mkdir()
        (out / blocked / "keep.txt").write_bytes(b"keep\n")
        before = self._contents(out)
        assert main(["run", path, "--out", str(out), "--force", "--seed", "8"]) == 1
        assert self._contents(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.yaml"]

    def test_failed_move_puts_every_file_back(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        order = [f["name"] for f in json.loads((out / "manifest.json").read_text())["files"]]
        for old in out.iterdir():
            old.write_bytes(b"old\n")
        (out / order[0]).unlink()  # an output the failed run writes anew
        (out / "notes.txt").write_bytes(b"not an output\n")
        before = self._contents(out)
        real_replace = os.replace
        moves = []

        def failing_third_move(src, dst):
            moves.append(Path(dst).name)
            if len(moves) == 3:
                raise OSError(5, "Input/output error")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_third_move)
        assert main(["run", path, "--out", str(out), "--force"]) == 1
        assert "output error" in capsys.readouterr().err
        assert moves[:3] == order[:3]
        assert self._contents(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.yaml"]

        monkeypatch.setattr(os, "replace", real_replace)
        assert main(["run", path, "--out", str(out), "--force"]) == 0
        after = self._contents(out)
        assert after["notes.txt"] == b"not an output\n"
        assert sorted(after) == sorted(order + ["manifest.json", "notes.txt"])
        assert b"old\n" not in after.values()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.yaml"]

    def test_stale_manifest_blocks_every_write(self, tmp_path):
        path = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text("stale\n")
        assert main(["run", path, "--out", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_text() == "stale\n"

    def test_empty_result_set_gives_empty_manifest(self, tmp_path):
        manifest = emit_outputs([], tmp_path / "empty")
        assert manifest == {"files": []}
        assert json.loads((tmp_path / "empty" / "manifest.json").read_text()) == manifest

    def test_rendered_bytes(self, tmp_path):
        report = {
            "float64": np.float64(0.1),
            "int64": np.int64(-3),
            "bool": np.bool_(False),
            "array": np.array([1.5, -0.0]),
            "tuple": (2, "a"),
            "nested": {"b": np.float64(1e-05), "a": [np.int64(7)]},
            "nan": float("nan"),
        }
        tables = {"mixed": {"x": np.array([-0.0, 1e-05, 2.5]), "n": np.array([0, -7, 12]),
                            "label": ["p", "q", "r"], "flag": np.array([True, False, True])},
                  "lists": {"k": [1, 2], "on": [False, True]}}
        result = ExperimentResult("syn", "flux_check", "syn: ok", True, report, tables)
        manifest = emit_outputs([result], tmp_path)

        expected = {
            "syn_report.json": (
                b'{\n  "experiment": "flux_check",\n  "name": "syn",\n  "passed": true,\n'
                b'  "report": {\n    "array": [\n      1.5,\n      -0.0\n    ],\n'
                b'    "bool": false,\n    "float64": 0.1,\n    "int64": -3,\n'
                b'    "nan": NaN,\n    "nested": {\n      "a": [\n        7\n      ],\n'
                b'      "b": 1e-05\n    },\n    "tuple": [\n      2,\n      "a"\n    ]\n'
                b'  },\n  "summary": "syn: ok"\n}\n'),
            "syn_mixed_000.csv": (b"x,n,label,flag\n-0.0,0,p,true\n1e-05,-7,q,false\n"
                                  b"2.5,12,r,true\n"),
            "syn_lists_001.csv": b"k,on\n1,false\n2,true\n",
        }
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()
                if p.name != "manifest.json"} == expected
        assert (tmp_path / "manifest.json").read_bytes() == (
            b'{\n  "files": [\n    {\n      "name": "syn_report.json",\n      "sha256": '
            b'"c4b5169d933d2caf6801dab33aefc6ef2ed408fc08242e97cdf57d7911a1a548"\n    },\n'
            b'    {\n      "name": "syn_mixed_000.csv",\n      "sha256": '
            b'"45cd5090a3feca5dc34a74d1a86367b71f0e040541379a5f864d1a68508faa06"\n    },\n'
            b'    {\n      "name": "syn_lists_001.csv",\n      "sha256": '
            b'"95518d1b1648f1b926f348d67f42230b808c3646533fb8488e7d7979e521359c"\n    }\n'
            b'  ]\n}\n')
        assert manifest == json.loads((tmp_path / "manifest.json").read_text())

    def test_csv_cells_match_per_cell_str(self, tmp_path):
        nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
        x = np.array([0.1, -0.0, 0.0, 0.1, 1e-05, -0.0, np.inf, -np.inf, np.nan,
                      nan_payload, 2.0**-1074, 0.1 + 2.0**-56, 123456789.0, -2.5])
        tables = {
            "floats": {"x": x, "strided": np.repeat(x, 2)[::2], "rev": x[::-1].tolist()},
            "mixed": {"n": np.arange(-3, 4), "flag": np.array([True, False] * 3 + [True]),
                      "label": ["a", "b", "a", "-0.0", "", "nan", "z"],
                      "f32": np.array([0.1, -0.0, 0.0, 0.1, 1.5, 1.5, 3.0], dtype=np.float32),
                      "same": np.full(7, 0.30000000000000004)},
            "empty": {"e": np.array([], dtype=float)},
        }
        result = ExperimentResult("syn", "flux_check", "syn: ok", True, {}, tables)
        emit_outputs([result], tmp_path)
        for index, (name, table) in enumerate(tables.items()):
            written = (tmp_path / f"syn_{name}_{index:03d}.csv").read_bytes()
            assert written == per_cell_csv(table)

    def test_render_error_writes_nothing(self, tmp_path):
        first = ExperimentResult("first", "flux_check", "first: ok", True, {"x": 1.0},
                                 {"t": {"a": [1.0]}})
        second = ExperimentResult("second", "flux_check", "second: ok", True,
                                  {"x": object()})
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(TypeError):
            emit_outputs([first, second], out)
        assert list(out.iterdir()) == []

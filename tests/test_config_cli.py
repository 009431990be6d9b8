"""Config validation and the scenario-runner CLI contract."""

import json

import pytest
import yaml

from biphoton_shaper import ConfigError
from biphoton_shaper.cli import main
from biphoton_shaper.config import default_config, validate_config

QUICK_CONFIG = {
    "version": 1,
    "seed": 7,
    "grid": {"n_points": 129, "omega_max": 0.35},
    "experiments": [
        {"id": "flux_check"},
        {"id": "freq_bin_fringes", "d": 2, "phi_points": 12},
        {"id": "bell_i2_sweep", "grid_points": 3},
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


def write_config(tmp_path, tree, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree), encoding="utf-8")
    return str(path)


class TestValidateConfig:
    def test_default_config_is_valid(self):
        scenario = validate_config(default_config())
        assert scenario.grid.n_points == 1025
        assert len(scenario.experiments) == 8

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
        tree["experiments"] = [{"id": "freq_bin_fringes", "d": 7}]
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

    def test_dispersion_conflicting_keys(self):
        tree = default_config()
        tree["dispersion"] = {"model": "taylor", "a2": 20.0, "target_bandwidth_nm": 105.0}
        with pytest.raises(ConfigError):
            validate_config(tree)

    def test_dispersion_bandwidth_calibration(self):
        tree = default_config()
        tree["dispersion"] = {"model": "taylor", "target_bandwidth_nm": 105.0}
        scenario = validate_config(tree)
        assert scenario.spdc.dispersion.a2 == pytest.approx(7.929, rel=1e-3)

    def test_sellmeier_model(self):
        tree = default_config()
        index = {"a": 3.2, "terms": [[0.8, 0.05]], "d": 0.01}
        tree["dispersion"] = {"model": "sellmeier", "pump": index, "idler": index,
                              "signal": index}
        scenario = validate_config(tree)
        assert scenario.spdc.dispersion.index_p.a == 3.2

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

    def test_malformed_config_exits_2_without_outputs(self, tmp_path, capsys):
        bad = dict(QUICK_CONFIG)
        bad["experiments"] = [{"id": "flux_check", "powr_uw": 1.0}]
        path = write_config(tmp_path, bad)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        assert "experiments[0].powr_uw" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 1

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        tree = dict(QUICK_CONFIG)
        tree["dispersion"] = {"model": "taylor", "a2": 1e9}  # unresolvable sinc
        path = write_config(tmp_path, tree)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        assert "ResolutionError" in capsys.readouterr().err

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
        assert abs(flux["max_flux_per_s"] - 2.8e13) / 2.8e13 < 0.05
        assert abs(flux["max_power_w"] - 5.2e-6) / 5.2e-6 < 0.05
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
        counts_a = (out_a / "freq_bin_fringes_d2_counts_003.csv").read_text()
        counts_b = (out_b / "freq_bin_fringes_d2_counts_003.csv").read_text()
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

    def test_parallel_matches_sequential(self, tmp_path):
        path = write_config(tmp_path, QUICK_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out_a)]) == 0
        assert main(["run", path, "--out", str(out_b), "--parallel"]) == 0
        assert (out_a / "manifest.json").read_text() == \
            (out_b / "manifest.json").read_text()

    @pytest.mark.parametrize("flags", [[], ["--parallel"]])
    def test_each_amplitude_decomposed_once(self, tmp_path, svd_calls, flags):
        # values only for gamma (fig2), with modes for gamma_psf (fig2, fig3
        # and both Schmidt fringes)
        path = write_config(tmp_path, SCHMIDT_CONFIG)
        assert main(["run", path, "--out", str(tmp_path / "out"), *flags]) == 0
        assert sorted(svd_calls) == [False, True]

    def test_csv_dialect(self, tmp_path):
        path = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        raw = (out / "bell_i2_sweep_sweep_000.csv").read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        header = text.splitlines()[0]
        assert header == "gamma1,gamma2,i2"
        first = text.splitlines()[1].split(",")
        assert len(first) == 3
        float(first[2])  # parses as a number


class TestEmitOutputs:
    def test_manifest_lists_every_artifact(self, tmp_path):
        path = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {f["name"] for f in manifest["files"]}
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert listed == on_disk

    def test_empty_result_set_gives_empty_manifest(self, tmp_path):
        from biphoton_shaper.scenarios import emit_outputs

        manifest = emit_outputs([], tmp_path / "empty")
        assert manifest == {"files": []}
        assert json.loads((tmp_path / "empty" / "manifest.json").read_text()) == manifest

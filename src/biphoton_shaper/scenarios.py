"""Named experiments binding the physics modules together.

Each experiment consumes a shared :class:`ScenarioContext` (cached amplitudes,
counting parameters, per-experiment seeds) and produces CSV tables plus a
JSON-ready report with a one-line summary.  Everything is deterministic for a
fixed config and seed.
"""

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bases, measurement, metrics, shaper, spectral_field
from .config import Scenario
from .measurement import FringeScan


@dataclass
class ExperimentResult:
    name: str
    experiment_id: str
    summary: str
    passed: bool | None          # None when the experiment has no pass criterion
    report: dict
    tables: dict = field(default_factory=dict)  # table name -> (columns, rows)


class ScenarioContext:
    """Lazily built shared state for one scenario run."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._cache = {}
        children = np.random.SeedSequence(scenario.seed).spawn(len(scenario.experiments))
        self._seeds = {req.name: int(child.generate_state(1, dtype=np.uint64)[0] >> 1)
                       for req, child in zip(scenario.experiments, children)}

    def seed_for(self, name: str) -> int:
        return self._seeds[name]

    @property
    def grid(self):
        return self.scenario.grid

    @property
    def gamma(self):
        if "gamma" not in self._cache:
            self._cache["gamma"] = spectral_field.build_joint_amplitude(
                self.scenario.grid, self.scenario.pump, self.scenario.spdc,
                self.scenario.sfg, include_phase=self.scenario.include_phase)
        return self._cache["gamma"]

    @property
    def gamma_psf(self):
        if "gamma_psf" not in self._cache:
            self._cache["gamma_psf"] = spectral_field.apply_psf(
                self.gamma, self.scenario.psf_delta_omega)
        return self._cache["gamma_psf"]

    def amplitude(self, use_psf: bool):
        return self.gamma_psf if use_psf else self.gamma


def _symmetric_centers(d: int, spacing: float):
    return (np.arange(d) - (d - 1) / 2.0) * spacing


def _fringe_rows(scan: FringeScan):
    return [(p, v) for p, v in zip(scan.phi, scan.values)]


def _verdict(v, v_c):
    return "PASS" if v > v_c else "FAIL"


# --- experiments -------------------------------------------------------------


def run_flux_check(ctx: ScenarioContext, req) -> ExperimentResult:
    p = req.params
    limit = spectral_field.photon_flux_limit(p["bandwidth_nm"],
                                             ctx.grid.center_wavelength)
    density = limit.mode_density(p["power_uw"] * 1e-6)
    report = {
        "bandwidth_nm": p["bandwidth_nm"],
        "max_flux_per_s": limit.flux,
        "max_power_w": limit.power,
        "operating_power_uw": p["power_uw"],
        "mode_density": density,
        "below_single_photon_limit": density < 1.0,
    }
    summary = (f"{req.name}: max flux {limit.flux:.3e}/s, max power "
               f"{limit.power * 1e6:.2f} uW, mode density {density:.3f} at "
               f"{p['power_uw']:.2f} uW")
    return ExperimentResult(req.name, req.id, summary, density < 1.0, report,
                            {"flux": (["quantity", "value"],
                                      [("max_flux_per_s", limit.flux),
                                       ("max_power_w", limit.power),
                                       ("mode_density", density)])})


def _amplitude_table(amp, stride: int):
    ax = amp.grid.axis()
    rows = []
    for i in range(0, amp.grid.n_points, stride):
        for j in range(0, amp.grid.n_points, stride):
            v = complex(amp.values[i, j])
            rows.append((ax[i], ax[j], v.real, v.imag))
    return (["omega_i", "omega_s", "re", "im"], rows)


def run_fig2_amplitude(ctx: ScenarioContext, req) -> ExperimentResult:
    stride = req.params["export_stride"]
    report_g, _ = metrics.schmidt_decompose(ctx.gamma, modes=False)
    report_p, _ = metrics.schmidt_decompose(ctx.gamma_psf, modes=False)
    report = {
        "pump_bandwidth_clamped": ctx.gamma.metadata["pump_bandwidth_clamped"],
        "pump_bandwidth_effective": ctx.gamma.metadata["pump_bandwidth_effective"],
        "gamma": {"entropy_ebits": report_g.entropy,
                  "schmidt_number": report_g.schmidt_number,
                  "effective_dimension": report_g.effective_dimension},
        "gamma_psf": {"entropy_ebits": report_p.entropy,
                      "schmidt_number": report_p.schmidt_number,
                      "effective_dimension": report_p.effective_dimension},
    }
    summary = (f"{req.name}: blurred amplitude E={report_p.entropy:.2f} ebits, "
               f"K={report_p.schmidt_number:.2f}, d_eff={report_p.effective_dimension:.1f}")
    return ExperimentResult(req.name, req.id, summary, None, report, {
        "gamma": _amplitude_table(ctx.gamma, stride),
        "gamma_psf": _amplitude_table(ctx.gamma_psf, stride),
    })


def run_fig3_schmidt(ctx: ScenarioContext, req) -> ExperimentResult:
    n_modes = req.params["n_modes"]
    n_eigen = req.params["n_eigenvalues"]
    basis = bases.schmidt_modes(ctx.gamma_psf, n_modes)
    report_full, _ = metrics.schmidt_decompose(ctx.gamma_psf, modes=False)
    beta = report_full.eigenvalues[:n_eigen]
    ax = ctx.grid.axis()
    cols = ["omega"]
    for j in range(n_modes):
        cols += [f"re_f{j}", f"im_f{j}"]
    rows = []
    for i in range(ctx.grid.n_points):
        row = [ax[i]]
        for j in range(n_modes):
            v = complex(basis.functions[j, i])
            row += [v.real, v.imag]
        rows.append(tuple(row))
    report = {
        "eigenvalues": [float(b) for b in beta],
        "captured_weight": float(basis.metadata["captured_weight"]),
        "gram_max_offdiag": float(basis.metadata["gram_max_offdiag"]),
    }
    summary = (f"{req.name}: first {n_modes} modes capture "
               f"{report['captured_weight']:.3f} of the weight; "
               f"beta0={beta[0]:.3f}")
    return ExperimentResult(req.name, req.id, summary, None, report, {
        "modes": (cols, rows),
        "eigenvalues": (["j", "beta"], [(j, float(b)) for j, b in enumerate(beta)]),
    })


def _procrustean_filter(state) -> np.ndarray:
    """Equalizing amplitudes from the diagonal single-projection signals."""
    d = state.d
    signals = [measurement.projection_probability(
        state, np.eye(d)[k], np.eye(d)[k]) for k in range(d)]
    return measurement.procrustean_amplitudes(signals)


def _dual_route_fringes(ctx, amp, basis_i, basis_s, amplitudes, phi):
    spec_i = shaper.TransferSpec(basis_i, amplitudes, np.zeros(basis_i.d), side="idler")
    spec_s = shaper.TransferSpec(basis_s, amplitudes, np.zeros(basis_s.d), side="signal")
    scan_ff = measurement.fringe_scan((amp, spec_i, spec_s), phi)
    state = measurement.project_state(amp, basis_i, basis_s)
    scan_ss = measurement.fringe_scan(state, phi, amplitudes_i=amplitudes,
                                      amplitudes_s=amplitudes)
    return scan_ff, scan_ss, state


def _transfer_table(m: shaper.TransferFunction):
    ax = m.grid.axis()
    rows = [(w, complex(v).real, complex(v).imag, abs(v))
            for w, v in zip(ax, m.values)]
    return (["omega", "re_m", "im_m", "abs_m"], rows)


def _pixelated_fringe(ctx, amp, basis_i, basis_s, amplitudes, phi) -> FringeScan:
    """Full-field scan with the transfers quantized onto the modulator pixels."""
    d = basis_i.d
    ladder = np.arange(d)
    values = np.empty(len(phi))
    for n, p in enumerate(phi):
        m_i = shaper.pixelate(shaper.transfer_from_coefficients(
            shaper.TransferSpec(basis_i, amplitudes, ladder * p, side="idler")),
            ctx.scenario.slm)
        m_s = shaper.pixelate(shaper.transfer_from_coefficients(
            shaper.TransferSpec(basis_s, amplitudes, ladder * p, side="signal")),
            ctx.scenario.slm)
        values[n] = measurement.coincidence_signal(amp, m_i, m_s)
    mean = values.mean()
    return FringeScan(phi=phi, values=values / mean if mean > 0 else values,
                      route="full_field", d=d, basis_kind=basis_i.kind,
                      metadata={"pixelated": True})


def run_freq_bin_fringes(ctx: ScenarioContext, req) -> ExperimentResult:
    p = req.params
    d = p["d"]
    amp = ctx.amplitude(p["use_psf"])
    centers = _symmetric_centers(d, p["bin_spacing"])
    widths = np.full(d, p["bin_width"])
    basis_i = bases.frequency_bins(centers, widths, ctx.grid)
    basis_s = bases.mirrored(basis_i)

    state = measurement.project_state(amp, basis_i, basis_s)
    filt = _procrustean_filter(state)
    phi = np.linspace(0.0, np.pi, p["phi_points"], endpoint=False)
    if p["pixelate"]:
        scan_ff = _pixelated_fringe(ctx, amp, basis_i, basis_s, filt, phi)
        scan_ss = measurement.fringe_scan(state, phi, amplitudes_i=filt,
                                          amplitudes_s=filt)
        scan_ff.metadata["truncation_weight"] = state.truncation_weight
    else:
        scan_ff, scan_ss, _ = _dual_route_fringes(ctx, amp, basis_i, basis_s, filt, phi)

    fit = metrics.fit_fringe(scan_ff, d)
    lam = fit.parameters["lambda"]
    vis = metrics.visibility_from_lambda(lam, d)
    thresholds = metrics.cglmp_thresholds(d)
    route_gap = float(np.max(np.abs(scan_ff.values - scan_ss.values)))

    report = {
        "d": d,
        "bin_centers": centers.tolist(),
        "bin_widths": widths.tolist(),
        "procrustean_amplitudes": filt.tolist(),
        "pixelated": p["pixelate"],
        "lambda": lam,
        "lambda_err": fit.uncertainties["lambda"],
        "visibility": vis,
        "visibility_critical": thresholds.visibility_critical,
        "bell_violation": vis > thresholds.visibility_critical,
        "truncation_weight": scan_ff.metadata["truncation_weight"],
        "route_max_gap": route_gap,
    }
    tables = {
        "fringe_full_field": (["phi_rad", "signal"], _fringe_rows(scan_ff)),
        "fringe_state_space": (["phi_rad", "signal"], _fringe_rows(scan_ss)),
        "transfer_idler": _transfer_table(shaper.transfer_from_coefficients(
            shaper.TransferSpec(basis_i, filt, np.zeros(d), side="idler"))),
    }
    if p["counts"]:
        record = measurement.synthesize_counts(
            scan_ff, ctx.scenario.counting.peak_rate,
            ctx.scenario.counting.background_rate, ctx.scenario.counting.duration,
            ctx.seed_for(req.name))
        noisy = metrics.fit_fringe(record, d)
        report["lambda_from_counts"] = noisy.parameters["lambda"]
        report["lambda_from_counts_err"] = noisy.uncertainties["lambda"]
        tables["counts"] = (["phi_rad", "gross", "background", "duration_s"],
                            [(ph, int(gc), int(bc), record.duration)
                             for ph, gc, bc in zip(record.phi, record.gross,
                                                   record.background)])
    verdict = _verdict(vis, thresholds.visibility_critical)
    summary = (f"{req.name}: lambda={lam:.3f} V={vis:.3f} vs "
               f"Vc={thresholds.visibility_critical:.3f} -> {verdict} "
               f"(leakage {report['truncation_weight']:.2e})")
    return ExperimentResult(req.name, req.id, summary,
                            vis > thresholds.visibility_critical, report, tables)


def _franson_fringe(amp, t1, phi) -> FringeScan:
    values = np.empty(len(phi))
    for n, p in enumerate(phi):
        m_i = shaper.franson_transfer(0.5, 0.5, t1, p, amp.grid)
        m_s = shaper.franson_transfer(0.5, 0.5, t1, p, amp.grid)
        values[n] = measurement.coincidence_signal(amp, m_i, m_s)
    mean = values.mean()
    return FringeScan(phi=phi, values=values / mean if mean > 0 else values,
                      route="full_field", d=2, basis_kind="time_bin",
                      metadata={"t1_fs": t1})


def run_time_bin_sweep(ctx: ScenarioContext, req) -> ExperimentResult:
    p = req.params
    t1_values = p["t1_values_fs"]
    phi = np.linspace(0.0, 2.0 * np.pi, p["phi_points"], endpoint=False)
    rows = []
    per_t1 = {}
    cos4_residual = None
    for t1 in t1_values:
        entry = {"t1_fs": t1}
        for label, amp in (("no_psf", ctx.gamma), ("psf", ctx.gamma_psf)):
            scan = _franson_fringe(amp, t1, phi)
            per_t1[f"fringe_t{t1:g}_{label}"] = (["phi_rad", "signal"],
                                                 _fringe_rows(scan))
            if t1 == 0.0:
                fit = metrics.fit_cos4(scan)
                entry[label] = {"gamma1": 1.0, "gamma2": 1.0,
                                "cos4_residual": fit.residual_norm}
                if label == "no_psf":
                    cos4_residual = fit.residual_norm
                i2 = metrics.bell_i2(1.0, 1.0)
            else:
                fit = metrics.fit_gamma(scan)
                entry[label] = {"gamma1": fit.parameters["gamma1"],
                                "gamma2": fit.parameters["gamma2"],
                                "fit_residual": fit.residual_norm}
                i2 = metrics.bell_i2(fit.parameters["gamma1"],
                                     fit.parameters["gamma2"])
            entry[label]["i2"] = i2.value
        rows.append(entry)

    table_rows = [(e["t1_fs"],
                   e["no_psf"]["gamma1"], e["no_psf"]["gamma2"], e["no_psf"]["i2"],
                   e["psf"]["gamma1"], e["psf"]["gamma2"], e["psf"]["i2"])
                  for e in rows]
    # gamma1 decays with the photon coherence and then oscillates in
    # magnitude around zero; require monotone decrease down to its minimum
    g1 = [e["no_psf"]["gamma1"] for e in rows]
    decay = g1[: int(np.argmin(g1)) + 1]
    monotone = all(b < a + 1e-9 for a, b in zip(decay, decay[1:]))
    i2_beyond_35 = [e["no_psf"]["i2"] for e in rows if e["t1_fs"] >= 35.0]
    violation = bool(i2_beyond_35 and min(i2_beyond_35) > 2.0)

    # the blurred Bell parameter peaks and then falls off; judge the decrease
    # only when the sweep actually extends beyond the peak
    i2_psf = [e["psf"]["i2"] for e in rows]
    peak = int(np.argmax(i2_psf))
    tail = i2_psf[peak:]
    tail_observable = len(tail) >= 2
    tail_decreasing = (not tail_observable) or all(b < a for a, b in zip(tail, tail[1:]))

    report = {
        "t1_values_fs": list(t1_values),
        "sweep": rows,
        "cos4_residual_at_t1_0": cos4_residual,
        "gamma1_monotone_decreasing": monotone,
        "i2_no_psf_above_2_from_35fs": violation,
        "i2_psf_tail_observable": tail_observable,
        "i2_psf_tail_decreasing": tail_decreasing,
    }
    passed = (monotone and violation and tail_decreasing
              and (cos4_residual is None or cos4_residual < 1e-6))
    tail_note = (f"PSF tail {'decreasing' if tail_decreasing else 'not decreasing'}"
                 if tail_observable else "PSF tail beyond sweep")
    summary = (f"{req.name}: gamma1 {g1[0]:.2f}->{g1[-1]:.2f}, "
               f"I2(no PSF, t1>=35fs) min "
               f"{min(i2_beyond_35) if i2_beyond_35 else float('nan'):.3f}, "
               f"{tail_note} -> {'PASS' if passed else 'FAIL'}")
    tables = {"sweep": (["t1_fs", "gamma1_no_psf", "gamma2_no_psf", "i2_no_psf",
                         "gamma1_psf", "gamma2_psf", "i2_psf"], table_rows)}
    tables.update(per_t1)
    return ExperimentResult(req.name, req.id, summary, passed, report, tables)


def run_schmidt_fringes(ctx: ScenarioContext, req) -> ExperimentResult:
    p = req.params
    d = p["d"]
    amp = ctx.amplitude(p["use_psf"])
    basis_i = bases.schmidt_modes(amp, d)
    basis_s = bases.mirrored(basis_i)
    state = measurement.project_state(amp, basis_i, basis_s)
    filt = _procrustean_filter(state)
    phi = np.linspace(0.0, np.pi, p["phi_points"], endpoint=False)
    scan_ff, scan_ss, _ = _dual_route_fringes(ctx, amp, basis_i, basis_s, filt, phi)
    fit = metrics.fit_fringe(scan_ff, d)
    lam = fit.parameters["lambda"]
    vis = metrics.visibility_from_lambda(lam, d)
    thresholds = metrics.cglmp_thresholds(d)
    report = {
        "d": d,
        "mode_weights": [float(b) for b in basis_i.metadata["eigenvalues"]],
        "procrustean_amplitudes": filt.tolist(),
        "lambda": lam,
        "lambda_err": fit.uncertainties["lambda"],
        "visibility": vis,
        "visibility_critical": thresholds.visibility_critical,
        "bell_violation": vis > thresholds.visibility_critical,
        "truncation_weight": scan_ff.metadata["truncation_weight"],
        "route_max_gap": float(np.max(np.abs(scan_ff.values - scan_ss.values))),
    }
    verdict = _verdict(vis, thresholds.visibility_critical)
    summary = (f"{req.name}: lambda={lam:.3f} V={vis:.3f} vs "
               f"Vc={thresholds.visibility_critical:.3f} -> {verdict}")
    tables = {
        "fringe_full_field": (["phi_rad", "signal"], _fringe_rows(scan_ff)),
        "fringe_state_space": (["phi_rad", "signal"], _fringe_rows(scan_ss)),
        "transfer_idler": _transfer_table(shaper.transfer_from_coefficients(
            shaper.TransferSpec(basis_i, filt, np.zeros(d), side="idler"))),
    }
    return ExperimentResult(req.name, req.id, summary,
                            vis > thresholds.visibility_critical, report, tables)


def run_bell_i2_sweep(ctx: ScenarioContext, req) -> ExperimentResult:
    n = req.params["grid_points"]
    gammas = np.linspace(0.0, 1.0, n)
    rows = []
    peak = -np.inf
    for g1 in gammas:
        for g2 in gammas:
            value = metrics.bell_i2(g1, g2).value
            rows.append((g1, g2, value))
            peak = max(peak, value)
    maximally = metrics.bell_i2(0.0, 1.0).value
    separable = metrics.bell_i2(1.0, 1.0).value
    ceiling = metrics.QUANTUM_BELL_CEILING
    passed = (peak <= ceiling + 1e-9 and abs(maximally - ceiling) < 1e-6
              and separable <= 2.0)
    report = {
        "grid_points": n,
        "max_i2": peak,
        "i2_maximally_entangled": maximally,
        "i2_separable": separable,
        "quantum_ceiling": ceiling,
    }
    summary = (f"{req.name}: max I2 {peak:.4f} (ceiling {ceiling:.4f}), "
               f"I2(0,1)={maximally:.4f}, I2(1,1)={separable:.4f} -> "
               f"{'PASS' if passed else 'FAIL'}")
    return ExperimentResult(req.name, req.id, summary, passed, report,
                            {"sweep": (["gamma1", "gamma2", "i2"], rows)})


def run_procrustean(ctx: ScenarioContext, req) -> ExperimentResult:
    p = req.params
    d = p["d"]
    widths = np.asarray(p["bin_widths"], dtype=float)  # length d, config-checked
    centers = _symmetric_centers(d, p["bin_spacing"])
    amp = ctx.amplitude(p["use_psf"])
    basis_i = bases.frequency_bins(centers, widths, ctx.grid)
    basis_s = bases.mirrored(basis_i)
    state = measurement.project_state(amp, basis_i, basis_s)

    eye = np.eye(d)
    before = np.array([measurement.projection_probability(state, eye[k], eye[k])
                       for k in range(d)])
    filt = measurement.procrustean_amplitudes(before)
    after = filt**4 * before
    spread = float(after.max() / after.min() - 1.0)

    phi = np.linspace(0.0, np.pi, p["phi_points"], endpoint=False)
    scan = measurement.fringe_scan(state, phi, amplitudes_i=filt, amplitudes_s=filt)
    fit = metrics.fit_fringe(scan, d)
    lam = fit.parameters["lambda"]

    report = {
        "d": d,
        "bin_widths": widths.tolist(),
        "signals_before": before.tolist(),
        "filter_amplitudes": filt.tolist(),
        "signals_after": after.tolist(),
        "equalization_spread": spread,
        "post_filter_lambda": lam,
    }
    passed = spread < 5e-3 and lam >= 0.99
    summary = (f"{req.name}: signal spread {spread:.2e} after filtering, "
               f"post-filter lambda={lam:.4f} -> {'PASS' if passed else 'FAIL'}")
    return ExperimentResult(req.name, req.id, summary, passed, report, {
        "signals": (["k", "signal_before", "filter_amplitude", "signal_after"],
                    [(k, before[k], filt[k], after[k]) for k in range(d)]),
        "post_filter_fringe": (["phi_rad", "signal"], _fringe_rows(scan)),
    })


EXPERIMENT_RUNNERS = {
    "flux_check": run_flux_check,
    "fig2_amplitude": run_fig2_amplitude,
    "fig3_schmidt": run_fig3_schmidt,
    "freq_bin_fringes": run_freq_bin_fringes,
    "time_bin_sweep": run_time_bin_sweep,
    "schmidt_fringes": run_schmidt_fringes,
    "bell_i2_sweep": run_bell_i2_sweep,
    "procrustean": run_procrustean,
}


def _amplitudes_needing_modes(scenario: Scenario):
    """``use_psf`` flags of the amplitudes whose Schmidt modes an experiment reads."""
    flags = set()
    for req in scenario.experiments:
        if req.id == "fig3_schmidt":
            flags.add(True)
        elif req.id == "schmidt_fringes":
            flags.add(req.params["use_psf"])
    return sorted(flags)


def run_scenario_experiments(scenario: Scenario, parallel: bool = False):
    """Run every experiment of the scenario; returns results in config order."""
    ctx = ScenarioContext(scenario)
    # Decompose with modes before any values-only request, so that one SVD
    # per amplitude serves every experiment, and none runs in the thread pool.
    for use_psf in _amplitudes_needing_modes(scenario):
        bases.amplitude_svd(ctx.amplitude(use_psf))
    if parallel and len(scenario.experiments) > 1:
        # Prime the shared amplitudes once to keep the cache thread-safe.
        ctx.gamma_psf
        with ThreadPoolExecutor(max_workers=min(4, len(scenario.experiments))) as pool:
            futures = [pool.submit(EXPERIMENT_RUNNERS[req.id], ctx, req)
                       for req in scenario.experiments]
            return [f.result() for f in futures]
    return [EXPERIMENT_RUNNERS[req.id](ctx, req) for req in scenario.experiments]


# --- output emission ---------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, columns, rows):
    lines = [",".join(columns)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _json_ready(value):
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value.tolist()]
    return value


def emit_outputs(results, directory, force: bool = False) -> dict:
    """Write per-experiment CSV/report files plus a hash manifest.

    File names are deterministic: <experiment>_<table>_<index>.csv and
    <experiment>_report.json.  Existing files are only overwritten with
    ``force``; the manifest maps every artifact to its SHA-256.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)

    planned = []
    for result in results:
        planned.append((f"{result.name}_report.json", None, result))
        for index, (table, (columns, rows)) in enumerate(result.tables.items()):
            planned.append((f"{result.name}_{table}_{index:03d}.csv",
                            (columns, rows), result))

    for filename, _, _ in planned:
        target = out / filename
        if target.exists() and not force:
            raise FileExistsError(
                f"{target}: output exists; pass --force to overwrite")

    manifest = {"files": []}
    for filename, table, result in planned:
        target = out / filename
        if table is None:
            payload = _json_ready({
                "experiment": result.experiment_id,
                "name": result.name,
                "summary": result.summary,
                "passed": result.passed,
                "report": result.report,
            })
            target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8", newline="\n")
        else:
            _write_csv(target, *table)
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        manifest["files"].append({"name": filename, "sha256": digest})

    manifest_path = out / "manifest.json"
    if manifest_path.exists() and not force:
        raise FileExistsError(f"{manifest_path}: output exists; pass --force to overwrite")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8", newline="\n")
    return manifest

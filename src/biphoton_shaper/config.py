"""Scenario configuration: schema, defaults and validation.

Configs are YAML key-value trees with a version tag.  Every key's type,
default and lower bound is written once, in the schema tables below, which
both :func:`default_config` and :func:`validate_config` read.  Validation is
strict: unknown keys, missing required keys, non-finite numbers and
out-of-range values raise :class:`ConfigError` carrying the offending key
path, as does any value the typed objects reject while they are built.  All
wavelength/MHz quantities are converted to internal rad/fs units here.
"""

import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import yaml

from .bases import MIN_SAMPLES_PER_BIN, frequency_bins, symmetric_centers
from .errors import BasisError, ConfigError, GridError, ResolutionError
from .measurement import POISSON_LAM_MAX
from .metrics import GAMMA_PARAMETERS, LAMBDA_PARAMETERS, POINTS_PER_PARAMETER
from .shaper import SlmModel
from .spectral_field import (
    CrystalSpec,
    PumpSpec,
    SellmeierIndex,
    SellmeierMismatch,
    SpectralGrid,
    TaylorMismatch,
)

CONFIG_VERSION = 1

# Phase-matching curvature [rad/mm per (rad/fs)^2] of the default crystal
# pair.  Chosen so that the blurred joint amplitude of the default scenario
# carries about 2.6 ebits (Schmidt number about 4.9); the sinc^2 singles
# bandwidth it gives, 61.4 nm around 1064 nm, is what flux_check reports.
DEFAULT_TAYLOR_A2 = 23.2

# Largest grid.n_points that validate accepts: the largest odd n whose
# working set fits in 4 GiB.  A run holds at most four n^2 float64 planes
# (8 n^2 bytes each) at once: the PSF blur traces 2.93 planes at 1025^2 and
# 2.77 at 2049^2 besides its 1-plane input, and a scan holds the blurred
# amplitude's 2-plane complex copy beside that amplitude and, until its last
# reader has run, the unblurred one.  4 * 8 * n^2 <= 2^32 gives n <= 11585
# (11585^2 * 32 B = 4,294,791,200 B; 11587 would need 4,296,274,208 B).
MAX_GRID_POINTS = 11585

# Schema: each key maps to a nested table or to (type, default) plus an
# optional lower bound (">" or ">=", value).  A default of None marks an
# optional key that the default tree leaves out; _REQUIRED marks a key that
# has no default.
_REQUIRED = object()
_POSITIVE = (">", 0.0)
_NON_NEGATIVE = (">=", 0.0)

_CRYSTAL = {"length_mm": (float, 11.5, *_POSITIVE)}
_POLED = {**_CRYSTAL, "poling_period_um": (float, 9.0, *_POSITIVE)}  # read by Sellmeier only
_CRYSTALS = {"taylor": {"spdc": _CRYSTAL, "sfg": _CRYSTAL},
             "sellmeier": {"spdc": _POLED, "sfg": _POLED}}
_MODEL = (str, "taylor")
_SELLMEIER_INDEX = {"a": (float, _REQUIRED), "terms": (list, []), "d": (float, 0.0),
                    "validity_um": (list, None)}
_DISPERSION = {
    "taylor": {"model": _MODEL, "a1": (float, 0.0), "a2": (float, DEFAULT_TAYLOR_A2),
               "a3": (float, 0.0)},
    "sellmeier": {"model": _MODEL, "pump": _SELLMEIER_INDEX, "idler": _SELLMEIER_INDEX,
                  "signal": _SELLMEIER_INDEX},
}
_SCHEMA = {
    "seed": (int, 20240901, ">=", 0),
    "output_dir": (str, "results"),
    "grid": {"n_points": (int, 1025, ">=", 3), "omega_max": (float, 0.35, *_POSITIVE),
             "center_wavelength_nm": (float, 1064.0, *_POSITIVE)},
    "pump": {"linewidth_mhz": (float, 5.0, *_POSITIVE)},
    "crystals": _CRYSTALS["taylor"],
    "dispersion": _DISPERSION["taylor"],
    "psf": {"delta_omega": (float, 9.6e-3, *_NON_NEGATIVE)},
    "slm": {"n_pixels": (int, 640, ">=", 1), "pixel_width_um": (float, 100.0, *_POSITIVE),
            "gap_um": (float, 3.0, *_NON_NEGATIVE)},
    "counting": {"peak_rate_hz": (float, 50.0, *_NON_NEGATIVE),
                 "background_rate_hz": (float, 11.0, *_NON_NEGATIVE),
                 "duration_s": (float, 300.0, *_NON_NEGATIVE)},
}

# Experiment parameters: the type follows the default; counts must be >= 1,
# physical quantities > 0, lists hold finite numbers, and the items of the
# lists in _POSITIVE_LISTS (widths) are > 0 as well.
_EXPERIMENT_PARAMS = {
    "flux_check": {"power_uw": 1.0},
    "fig2_amplitude": {"export_stride": 16},
    "fig3_schmidt": {"n_modes": 6, "n_eigenvalues": 21},
    "freq_bin_fringes": {"d": 2, "bin_width": 0.024, "bin_spacing": 0.036,
                         "phi_points": 36, "counts": False, "pixelate": False},
    "time_bin_sweep": {"t1_values_fs": [0.0, 10.0, 25.0, 35.0, 50.0, 70.0, 100.0],
                       "phi_points": 48},
    "schmidt_fringes": {"d": 2, "phi_points": 36},
    "procrustean": {"d": 3, "bin_widths": [0.04, 0.024, 0.015], "bin_spacing": 0.05,
                    "phi_points": 36},
}
_POSITIVE_LISTS = {"bin_widths"}

# The experiments that read Schmidt modes, each with its parameter that
# counts them; an n-point grid holds at most n modes (bases.schmidt_modes).
SCHMIDT_MODE_PARAMS = {"fig3_schmidt": "n_modes", "schmidt_fringes": "d"}

# A YAML 1.2 core-schema decimal.  PyYAML follows YAML 1.1, which reads
# exponent forms such as 1e-2 and 1E3 as strings; float keys accept them.
_YAML12_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?")


@dataclass(frozen=True)
class CountingParams:
    peak_rate: float        # Hz at the fringe maximum
    background_rate: float  # Hz
    duration: float         # s per phase point


@dataclass
class ExperimentRequest:
    id: str
    name: str
    params: dict


@dataclass
class Scenario:
    """Validated, unit-converted scenario ready to run."""

    seed: int
    output_dir: str
    grid: SpectralGrid
    pump: PumpSpec
    spdc: CrystalSpec
    sfg: CrystalSpec
    psf_delta_omega: float
    slm: SlmModel
    counting: CountingParams
    experiments: list = field(default_factory=list)


def _defaults(schema) -> dict:
    return {key: _defaults(spec) if isinstance(spec, dict) else spec[1]
            for key, spec in schema.items()
            if isinstance(spec, dict) or spec[1] is not None}


def default_config() -> dict:
    """The shipped default configuration tree (all experiments)."""
    return {"version": CONFIG_VERSION, **_defaults(_SCHEMA),
            "experiments": [{"id": name} for name in _EXPERIMENT_PARAMS]}


def load_config(path) -> dict:
    # bytes, so that PyYAML's reader reports an undecodable file as a YAMLError
    with open(path, "rb") as fh:
        try:
            tree = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            # PyYAML's message spans lines; a CLI error is one line
            reason = "; ".join(line.strip() for line in str(exc).splitlines() if line.strip())
            raise ConfigError("<document>", f"not valid YAML: {reason}") from exc
    if not isinstance(tree, dict):
        raise ConfigError("<document>", "top level must be a mapping")
    return tree


# --- validation helpers ----------------------------------------------------


def _join(path, key):
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _expect_mapping(tree, path):
    if not isinstance(tree, dict):
        raise ConfigError(path or "<document>", "must be a mapping")
    return tree


def _get(tree, key, path, kind, default=None, op=None, bound=None):
    """The value at ``key``, type- and range-checked, or its default."""
    full = _join(path, key)
    if key not in tree:
        if default is _REQUIRED:
            raise ConfigError(full, "missing required key")
        return default
    value = tree[key]
    if kind is float and isinstance(value, str) and _YAML12_FLOAT.fullmatch(value):
        value = float(value)
    if kind is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if (kind is int and isinstance(value, bool)) or not isinstance(value, kind):
        raise ConfigError(full, f"expected {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(full, f"must be finite, got {tree[key]!r}")
    if (op == ">=" and value < bound) or (op == ">" and value <= bound):
        raise ConfigError(full, f"must be {op} {bound}, got {value!r}")
    return value


def _float_list(value, path, length=None, bound=()):
    """A non-empty list of finite numbers, exactly ``length`` of them if given.

    ``bound`` is an optional (op, value) lower bound on every item.
    """
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        raise ConfigError(path, f"expected a list of {length or 'one or more'} "
                                f"numbers, got {value!r}")
    items = dict(enumerate(value))
    return [_get(items, i, path, float, None, *bound) for i in items]


def _section(tree, path, schema, extra=()):
    """Check one mapping against its schema table; return {key: value}."""
    _expect_mapping(tree, path)
    for key in tree:
        if key not in schema and key not in extra:
            raise ConfigError(_join(path, str(key)), "unknown key")
    return {key: _section(tree.get(key, {}), _join(path, key), spec)
            if isinstance(spec, dict) else _get(tree, key, path, *spec)
            for key, spec in schema.items()}


@contextmanager
def _built_from(path):
    """Report a value that a typed object rejects as a ConfigError at ``path``."""
    try:
        yield
    except (ValueError, ArithmeticError, GridError) as exc:
        raise ConfigError(path, f"out of range: {exc}") from exc


def _sellmeier_index(index, path) -> SellmeierIndex:
    validity = index["validity_um"]
    return SellmeierIndex(
        a=index["a"], d=index["d"],
        terms=tuple(tuple(_float_list(pair, f"{path}.terms[{i}]", 2))
                    for i, pair in enumerate(index["terms"])),
        validity_um=None if validity is None else tuple(
            _float_list(validity, f"{path}.validity_um", 2)))


def _parse_experiment(entry, index, seen_names, grid):
    path = _join("experiments", index)
    exp_id = _get(_expect_mapping(entry, path), "id", path, str, _REQUIRED)
    if exp_id not in _EXPERIMENT_PARAMS:
        raise ConfigError(f"{path}.id", f"unknown experiment {exp_id!r}; expected one "
                                        f"of {', '.join(_EXPERIMENT_PARAMS)}")
    schema = {key: (type(default), default) if isinstance(default, (bool, list))
              else (int, default, ">=", 1) if isinstance(default, int)
              else (float, default, *_POSITIVE)
              for key, default in _EXPERIMENT_PARAMS[exp_id].items()}
    params = {key: _float_list(value, f"{path}.{key}",
                               bound=_POSITIVE if key in _POSITIVE_LISTS else ())
              if isinstance(value, list) else value
              for key, value in _section(entry, path, schema, extra=("id",)).items()}
    if "d" in params and params["d"] < 2:
        raise ConfigError(f"{path}.d", f"dimension must be >= 2, got {params['d']}")
    modes = SCHMIDT_MODE_PARAMS.get(exp_id)
    if modes is not None and params[modes] > grid.n_points:
        raise ConfigError(f"{path}.{modes}", f"{params[modes]} Schmidt modes exceed the "
                                             f"grid rank {grid.n_points}")
    t1_values = params.get("t1_values_fs", [])
    if any(b <= a for a, b in zip(t1_values, t1_values[1:])):
        raise ConfigError(f"{path}.t1_values_fs",
                          f"values must be strictly increasing, got {t1_values}")
    # e^(i*omega*t1) sampled at spacing d_omega is the same for t1 - 2*pi/d_omega
    aliased = math.pi / grid.spacing
    for j, t1 in enumerate(t1_values):
        if abs(t1) >= aliased:
            raise ConfigError(f"{path}.t1_values_fs[{j}]",
                              f"|t1| must be < pi / grid spacing = {aliased:.6g} fs, "
                              f"beyond which the grid aliases the delay; got {t1}")
    # every scan is fitted except the time-bin sweep's at t1 = 0
    sweep = exp_id == "time_bin_sweep"
    fitted = GAMMA_PARAMETERS if sweep else LAMBDA_PARAMETERS
    least = POINTS_PER_PARAMETER * len(fitted) if any(t1_values) or not sweep else 1
    if params.get("phi_points", least) < least:
        raise ConfigError(f"{path}.phi_points", f"need at least {least} phase points to fit "
                                                f"{', '.join(fitted)}; got {params['phi_points']}")
    if exp_id == "procrustean" and len(params["bin_widths"]) != params["d"]:
        raise ConfigError(f"{path}.bin_widths",
                          f"need exactly d = {params['d']} widths, "
                          f"got {len(params['bin_widths'])}")
    if exp_id in ("freq_bin_fringes", "procrustean"):
        # build the bins the run builds, so a layout it would reject exits here
        key, widths = (("bin_widths", params["bin_widths"]) if exp_id == "procrustean"
                       else ("bin_width", [params["bin_width"]] * params["d"]))
        try:
            frequency_bins(symmetric_centers(params["d"], params["bin_spacing"]), widths, grid)
        except (BasisError, ResolutionError) as exc:
            raise ConfigError(f"{path}.{key}", f"the bins do not fit the grid: {exc}") from exc

    name = exp_id if "d" not in params else f"{exp_id}_d{params['d']}"
    base, n = name, 2
    while name in seen_names:
        name = f"{base}_{n}"
        n += 1
    seen_names.add(name)
    return ExperimentRequest(id=exp_id, name=name, params=params)


def validate_config(tree: dict) -> Scenario:
    """Validate a configuration tree and build the typed scenario."""
    version = _get(_expect_mapping(tree, ""), "version", "", int, _REQUIRED)
    if version != CONFIG_VERSION:
        raise ConfigError("version", f"unsupported config version {version}; "
                                     f"expected {CONFIG_VERSION}")
    raw_dispersion = _expect_mapping(tree.get("dispersion", {}), "dispersion")
    model = _get(raw_dispersion, "model", "dispersion", *_MODEL)
    if model not in _DISPERSION:
        raise ConfigError("dispersion.model", f"unknown dispersion model {model!r}")
    schema = {**_SCHEMA, "crystals": _CRYSTALS[model], "dispersion": _DISPERSION[model]}
    cfg = _section(tree, "", schema, extra=("version", "experiments"))

    g = cfg["grid"]
    if g["n_points"] > MAX_GRID_POINTS:
        raise ConfigError("grid.n_points", f"must be <= {MAX_GRID_POINTS}, the largest grid "
                                           f"that runs in 4 GiB, got {g['n_points']}")
    with _built_from("grid.n_points"):
        grid = SpectralGrid(n_points=g["n_points"], omega_max=g["omega_max"],
                            center_wavelength=g["center_wavelength_nm"])
    psf_width = cfg["psf"]["delta_omega"]
    if psf_width >= 2.0 * grid.omega_max:
        raise ConfigError("psf.delta_omega", f"must be < the window width "
                                             f"2*grid.omega_max = {2.0 * grid.omega_max}, "
                                             f"got {psf_width}")
    if 0.0 < psf_width < grid.spacing:
        raise ConfigError("psf.delta_omega", f"must be 0 or >= the grid spacing "
                                             f"{grid.spacing}, got {psf_width}")
    with _built_from("pump.linewidth_mhz"):
        pump = PumpSpec.from_linewidth_mhz(cfg["pump"]["linewidth_mhz"])

    # one material: both crystals share the dispersion, a2 included
    disp = cfg["dispersion"]
    if model == "sellmeier":
        shared = SellmeierMismatch(
            index_i=_sellmeier_index(disp["idler"], "dispersion.idler"),
            index_s=_sellmeier_index(disp["signal"], "dispersion.signal"),
            index_p=_sellmeier_index(disp["pump"], "dispersion.pump"),
        )
    else:  # 9 um: +-2pi/G cancel but set the rounding (ulp of 698 rad/mm) of perfbench's gamma
        shared = TaylorMismatch.quasi_phase_matched(9.0, a1=disp["a1"], a2=disp["a2"],
                                                    a3=disp["a3"])

    def crystal(key):
        geometry = cfg["crystals"][key]
        return CrystalSpec(length=geometry["length_mm"], dispersion=shared,
                           poling_period=geometry.get("poling_period_um", 9.0))

    if "experiments" not in tree:
        raise ConfigError("experiments", "missing required key")
    entries = tree["experiments"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("experiments", "expected a non-empty list")
    seen = set()
    experiments = [_parse_experiment(entry, i, seen, grid) for i, entry in enumerate(entries)]

    s, c = cfg["slm"], cfg["counting"]
    slm = SlmModel(n_pixels=s["n_pixels"], pixel_width=s["pixel_width_um"], gap=s["gap_um"])
    for req in (req for req in experiments if req.params.get("pixelate")):
        # the pixel array spans the window 2 * omega_max (SlmModel.positions)
        per_bin = req.params["bin_width"] / (2.0 * grid.omega_max) * slm.extent / slm.pitch
        if per_bin < MIN_SAMPLES_PER_BIN:
            raise ConfigError("slm.n_pixels", f"{per_bin:.3g} pixels per bin of {req.name} "
                                              f"(< {MIN_SAMPLES_PER_BIN}); the pixelated "
                                              f"setting cannot resolve its basis")
    largest_mean = (c["peak_rate_hz"] + c["background_rate_hz"]) * c["duration_s"]
    if not largest_mean <= POISSON_LAM_MAX:
        raise ConfigError("counting.duration_s",
                          f"(peak_rate_hz + background_rate_hz) * duration_s = "
                          f"{largest_mean:.6g} exceeds the largest Poisson mean "
                          f"{POISSON_LAM_MAX:.6g}")
    return Scenario(
        seed=cfg["seed"],
        output_dir=cfg["output_dir"],
        grid=grid,
        pump=pump,
        spdc=crystal("spdc"),
        sfg=crystal("sfg"),
        psf_delta_omega=psf_width,
        slm=slm,
        counting=CountingParams(peak_rate=c["peak_rate_hz"],
                                background_rate=c["background_rate_hz"],
                                duration=c["duration_s"]),
        experiments=experiments,
    )

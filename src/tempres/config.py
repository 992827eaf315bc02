"""JSON run configuration: documented defaults, unknown keys rejected.

All times are expressed in units of the pulse width sigma_t (the internal
width is fixed to 1), so tau values and drift magnitudes are dimensionless.
"""

import json
from dataclasses import asdict, dataclass

from .channels import DeviceModel
from .montecarlo import DriftSpec, ExperimentConfig
from .pulses import PulseSpec


class ConfigError(ValueError):
    pass


_EXPERIMENT = ExperimentConfig()

DEFAULTS = {
    "mode_cutoff": _EXPERIMENT.spec.mode_cutoff,
    "tau_grid": list(_EXPERIMENT.tau_grid),
    "gammas": list(_EXPERIMENT.gammas),
    "repetitions": _EXPERIMENT.repetitions,
    "mean_total_detections": _EXPERIMENT.mean_total_detections,
    "master_seed": _EXPERIMENT.master_seed,
    "device": asdict(_EXPERIMENT.device),
    "drift": None,           # or an object merged over _DRIFT_DEFAULTS
    "calibration": {"repetitions": None, "reuse_records": False},
}
_DRIFT_DEFAULTS = {"std": 0.0, "recenter_period": DriftSpec.recenter_period}


@dataclass(frozen=True)
class RunConfig:
    experiment: ExperimentConfig
    calibration_repetitions: int | None
    reuse_records_for_calibration: bool
    raw: dict                # merged config as echoed into manifests


def _merge(defaults, data, path):
    if not isinstance(data, dict):
        section = path.rstrip(".") or "top level"
        raise ConfigError(f"config section {section} must be an object")
    unknown = set(data) - set(defaults)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown config key {path}{key!r}")
    merged = {}
    for key, default in defaults.items():
        if key in data and isinstance(default, dict):
            merged[key] = _merge(default, data[key], f"{path}{key}.")
        elif key in data:
            merged[key] = data[key]
        else:
            merged[key] = default
    return merged


def _integer(value, key):
    """A JSON integer; an integral float such as 3.0 also counts."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def from_dict(data: dict) -> RunConfig:
    merged = _merge(DEFAULTS, data, "")
    try:
        drift = None
        if merged["drift"] is not None:
            drift_merged = _merge(_DRIFT_DEFAULTS, merged["drift"], "drift.")
            drift = DriftSpec(std=float(drift_merged["std"]),
                              recenter_period=_integer(drift_merged["recenter_period"],
                                                       "drift.recenter_period"))
            merged["drift"] = drift_merged
        experiment = ExperimentConfig(
            spec=PulseSpec(sigma_t=1.0,
                           mode_cutoff=_integer(merged["mode_cutoff"], "mode_cutoff")),
            tau_grid=tuple(float(t) for t in merged["tau_grid"]),
            gammas=tuple(float(g) for g in merged["gammas"]),
            repetitions=_integer(merged["repetitions"], "repetitions"),
            mean_total_detections=float(merged["mean_total_detections"]),
            device=DeviceModel(
                crosstalk_eps=float(merged["device"]["crosstalk_eps"]),
                efficiency=float(merged["device"]["efficiency"]),
                dark_rate=float(merged["device"]["dark_rate"])),
            drift=drift,
            master_seed=_integer(merged["master_seed"], "master_seed"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    cal = merged["calibration"]
    cal_reps = cal["repetitions"]
    if cal_reps is not None:
        cal_reps = _integer(cal_reps, "calibration.repetitions")
        if cal_reps < 1:
            raise ConfigError(f"calibration.repetitions must be >= 1, got {cal_reps}")
    return RunConfig(experiment=experiment,
                     calibration_repetitions=cal_reps,
                     reuse_records_for_calibration=bool(cal["reuse_records"]),
                     raw=merged)


def load(path: str | None) -> RunConfig:
    """Parse a JSON config file; None loads the defaults."""
    if path is None:
        return from_dict({})
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

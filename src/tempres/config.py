"""JSON run configuration: documented defaults, unknown keys rejected.

All times are expressed in units of the pulse width sigma_t (the internal
width is fixed to 1), so tau values and drift magnitudes are dimensionless.
"""

import json
from dataclasses import asdict, dataclass

from .channels import DeviceModel
from .montecarlo import DEFAULT_GAMMAS, MAX_RUNS, DriftSpec, ExperimentConfig


class ConfigError(ValueError):
    pass


_EXPERIMENT = ExperimentConfig()

DEFAULTS = {
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


def _number(value, key):
    """A JSON number; a boolean or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} = {value} is too large for a float") from None


def _numbers(values, key):
    """A JSON array of numbers, as a tuple of floats."""
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be an array of numbers, got {values!r}")
    return tuple(_number(v, f"{key}[{i}]") for i, v in enumerate(values))


def _check_runs(experiment: ExperimentConfig, repetitions: int, key: str):
    # reproduce runs the five default gammas whatever the config lists
    cells = len(experiment.tau_grid) * max(len(experiment.gammas), len(DEFAULT_GAMMAS))
    if cells * repetitions > MAX_RUNS:
        raise ConfigError(f"{key} = {repetitions} gives {cells * repetitions} runs over "
                          f"{cells} cells, more than the limit of {MAX_RUNS}")


def from_dict(data: dict) -> RunConfig:
    merged = _merge(DEFAULTS, data, "")
    try:
        drift = None
        if merged["drift"] is not None:
            drift_merged = _merge(_DRIFT_DEFAULTS, merged["drift"], "drift.")
            drift = DriftSpec(std=_number(drift_merged["std"], "drift std"),
                              recenter_period=_integer(drift_merged["recenter_period"],
                                                       "drift.recenter_period"))
            merged["drift"] = drift_merged
        experiment = ExperimentConfig(
            tau_grid=_numbers(merged["tau_grid"], "tau_grid"),
            gammas=_numbers(merged["gammas"], "gammas"),
            repetitions=_integer(merged["repetitions"], "repetitions"),
            mean_total_detections=_number(merged["mean_total_detections"],
                                          "mean_total_detections"),
            device=DeviceModel(**{key: _number(value, f"device.{key}")
                                  for key, value in merged["device"].items()}),
            drift=drift,
            master_seed=_integer(merged["master_seed"], "master_seed"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    cal = merged["calibration"]
    if not isinstance(cal["reuse_records"], bool):
        raise ConfigError(f"calibration.reuse_records must be true or false, "
                          f"got {cal['reuse_records']!r}")
    cal_reps = cal["repetitions"]
    if cal_reps is not None:
        cal_reps = _integer(cal_reps, "calibration.repetitions")
        if cal_reps < 1:
            raise ConfigError(f"calibration.repetitions must be >= 1, got {cal_reps}")
        _check_runs(experiment, cal_reps, "calibration.repetitions")
    _check_runs(experiment, experiment.repetitions, "repetitions")
    return RunConfig(experiment=experiment,
                     calibration_repetitions=cal_reps,
                     reuse_records_for_calibration=cal["reuse_records"],
                     raw=merged)


def load(path: str | None) -> RunConfig:
    """Parse a JSON config file; None loads the defaults."""
    if path is None:
        return from_dict({})
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8: byte {exc.start} "
                          f"is 0x{exc.object[exc.start]:02x}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

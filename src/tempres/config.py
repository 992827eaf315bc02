"""JSON run configuration: documented defaults, unknown keys rejected.

All times are expressed in units of the pulse width sigma_t (the internal
width is fixed to 1), so tau values and drift magnitudes are dimensionless.
"""

import json
from dataclasses import asdict, dataclass

from .channels import DeviceModel
from .montecarlo import DEFAULT_GAMMAS, MAX_RUNS, DriftSpec, ExperimentConfig, _plain_int


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


def _check_runs(experiment: ExperimentConfig, repetitions: int, key: str):
    # reproduce runs the five default gammas whatever the config lists
    cells = len(experiment.tau_grid) * max(len(experiment.gammas), len(DEFAULT_GAMMAS))
    if cells * repetitions > MAX_RUNS:
        raise ConfigError(f"{key} = {repetitions} gives {cells * repetitions} runs over "
                          f"{cells} cells, more than the limit of {MAX_RUNS}")


def from_dict(data: dict) -> RunConfig:
    """The RunConfig of a parsed JSON object; a bad key or value raises ConfigError.

    Each value is checked by the dataclass that holds it, and its message is
    passed on, prefixed with "device." for a device key.
    """
    merged = _merge(DEFAULTS, data, "")
    if merged["drift"] is not None:
        merged["drift"] = _merge(_DRIFT_DEFAULTS, merged["drift"], "drift.")
    for key in ("tau_grid", "gammas"):
        # ExperimentConfig takes any iterable, and would read a string by characters
        if not isinstance(merged[key], list):
            raise ConfigError(f"{key} must be an array of numbers, got {merged[key]!r}")
    cal = merged["calibration"]
    if not isinstance(cal["reuse_records"], bool):
        raise ConfigError(f"calibration.reuse_records must be true or false, "
                          f"got {cal['reuse_records']!r}")
    try:
        device = DeviceModel(**merged["device"])
    except ValueError as exc:
        raise ConfigError(f"device.{exc}") from exc
    try:
        experiment = ExperimentConfig(
            tau_grid=merged["tau_grid"],
            gammas=merged["gammas"],
            repetitions=merged["repetitions"],
            mean_total_detections=merged["mean_total_detections"],
            device=device,
            drift=None if merged["drift"] is None else DriftSpec(**merged["drift"]),
            master_seed=merged["master_seed"],
        )
        cal_reps = cal["repetitions"]
        if cal_reps is not None:
            cal_reps = _plain_int(cal_reps, "calibration.repetitions")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cal_reps is not None:
        if cal_reps < 1:
            raise ConfigError(f"calibration.repetitions must be >= 1, got {cal_reps}")
        _check_runs(experiment, cal_reps, "calibration.repetitions")
        if cal["reuse_records"]:
            raise ConfigError("calibration.repetitions and calibration.reuse_records both "
                              "set: reused records calibrate on their own repetitions")
    _check_runs(experiment, experiment.repetitions, "repetitions")
    return RunConfig(experiment=experiment,
                     calibration_repetitions=cal_reps,
                     reuse_records_for_calibration=cal["reuse_records"],
                     raw=merged)


def load(path: str | None) -> RunConfig:
    """Parse a JSON config file; None loads the defaults.

    A file that cannot be opened or read raises its OSError unchanged.
    """
    if path is None:
        return from_dict({})
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8: byte {exc.start} "
                          f"is 0x{exc.object[exc.start]:02x}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:   # an integer past Python's limit on digits read from text
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        return from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

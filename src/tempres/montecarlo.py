"""Photon-counting Monte Carlo over the (tau, gamma) grid.

Each projection setting is measured sequentially in the experiment, so counts
are independent Poisson draws per (channel, mode).  Every draw has its own
counter-based stream: count n of channel ch (0 = s, 1 = a) in run `run` of
cell (ti, gi) is

    np.random.default_rng(np.random.SeedSequence(
        master_seed, spawn_key=(0, ti, gi, run, ch, n))).poisson(mean)

and drift increment j of the cell is the standard normal of spawn key
(1, ti, gi, j).  So every record is independent of evaluation order.

The sampler works on a contiguous range of runs of one cell, replaying the
drift walk from the start of the first run's period.  It hashes the range's
spawn keys in one vectorized pass (numpy's SeedSequence algorithm,
`_stream_words`) and hands each hash to numpy's PCG64, which seeds itself
from it: the same numbers, without a SeedSequence object per draw.  The
no-offset rates of a cell are computed once (`detection_rates` is memoized).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    DeviceModel,
    apply_device,
    check_gamma,
    hg_projection_probs,
    mixed_projection_probs,
    quadrature_projection_probs,
)
from .pulses import GRID_TAU_MARGIN

N_RECORDED = 4   # projections n = 0..3 enter the records, as in the estimator
RATE_MODES = N_RECORDED + 1   # crosstalk reaches a recorded mode from mode 4 at most

# numpy's Poisson sampler rejects means above about 9.2e18; a draw's mean is at
# most mean_total_detections + dark_rate
MAX_POISSON_MEAN = 1e18

# Largest count scale, max(1, mean_total_detections + dark_rate) /
# mean_total_detections: whenever anything is detected, a run's counts in units
# of mean_total_detections reach it, times a Poisson tail factor.  The GLS scan
# evaluates sum_k w_k (c_k - m_k(tau))^2 from its polynomial coefficients in tau,
# so each coefficient, and each partial sum on the scan grid, is at most
# sum_k w_k (c_k + M_k)^2, where M_k is the calibrated quartic m_k with its
# coefficients made positive, at tau = SCAN_TAU_MAX.  m_k fits mean counts of
# the same scale, and M_k stays near it while that fit is well conditioned on
# the scan.  At the pilot scan's unit weights that is eight squares of at most
# 2 x tail x scale, so 8 (2 x tail x scale)^2 must stay below 1.8e308; 1e150
# leaves a tail factor of 2,000.  The calibration residuals square smaller
# values.  The final scan's weights, mean_total_detections /
# max(mean, 1 / mean_total_detections), bring each of its terms down to about a
# raw count squared, so it adds no risk.
MAX_COUNT_SCALE = 1e150
# so a count read back from records.csv may reach the tail factor times the
# count scale, in units of mean_total_detections, and no more
MAX_NORMALIZED_COUNT = 2000 * MAX_COUNT_SCALE

# spawn-key tags keep count streams and drift streams disjoint
_COUNT_STREAM = 0
_DRIFT_STREAM = 1

# numpy's SeedSequence: entropy pool of four 32-bit words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 2**32

DEFAULT_TAU_GRID = tuple(i / 6.0 for i in range(7))
DEFAULT_GAMMAS = (0.0, 0.125, 0.25, 0.375, 0.5)


@dataclass(frozen=True)
class DriftSpec:
    """Slow timing drift: Gaussian random-walk centroid offset, recentered periodically."""

    std: float
    recenter_period: int = 10

    def __post_init__(self):
        if not 0 <= self.std < math.inf:
            raise ValueError(f"drift std must be finite and >= 0, got {self.std}")
        if self.recenter_period < 1:
            raise ValueError(f"recenter period must be >= 1, got {self.recenter_period}")


@dataclass(frozen=True)
class ExperimentConfig:
    tau_grid: tuple = DEFAULT_TAU_GRID
    gammas: tuple = DEFAULT_GAMMAS
    repetitions: int = 100
    mean_total_detections: float = 1e4
    device: DeviceModel = field(default_factory=DeviceModel)
    drift: DriftSpec | None = None
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tau_grid", tuple(float(t) for t in self.tau_grid))
        object.__setattr__(self, "gammas", tuple(check_gamma(float(g)) for g in self.gammas))
        outside = [t for t in self.tau_grid if not 0 <= t <= GRID_TAU_MARGIN]
        if outside:
            raise ValueError(f"tau_grid values must lie in [0, {GRID_TAU_MARGIN:g}], the "
                             f"separations the quadrature grid covers, got {outside[0]}")
        for key in ("tau_grid", "gammas"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} must hold at least one value")
            if len(set(values)) < len(values):
                repeated = next(v for i, v in enumerate(values) if v in values[:i])
                raise ValueError(f"{key} values must be distinct, got {repeated:g} twice: "
                                 "one (tau, gamma) cell would hold two sets of runs")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not 0 < self.mean_total_detections <= MAX_POISSON_MEAN:
            raise ValueError(f"mean_total_detections must lie in (0, {MAX_POISSON_MEAN:g}], "
                             f"got {self.mean_total_detections}")
        if not self.device.dark_rate <= MAX_POISSON_MEAN:
            raise ValueError(f"dark_rate must be at most {MAX_POISSON_MEAN:g}, "
                             f"got {self.device.dark_rate}")
        count_scale = (max(1.0, self.mean_total_detections + self.device.dark_rate)
                       / self.mean_total_detections)
        if not count_scale <= MAX_COUNT_SCALE:
            raise ValueError(
                f"counts in units of mean_total_detections reach max(1, "
                f"mean_total_detections + dark_rate) / mean_total_detections = "
                f"{count_scale:g}, above MAX_COUNT_SCALE = {MAX_COUNT_SCALE:g}, where the "
                f"GLS scan objective overflows")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class DetectionRecord:
    """Counts for the first four HG projections in both channels, one run."""

    tau_true: float
    gamma: float
    run_index: int
    counts_s: tuple
    counts_a: tuple

    def __post_init__(self):
        counts = (*self.counts_s, *self.counts_a)
        # plain ints, as the sampler and read_records make them, need only the sign test
        if set(map(type, counts)) == {int} and min(counts) >= 0:
            return
        if any(c < 0 or int(c) != c for c in counts):
            raise ValueError("counts must be nonnegative integers")


def detection_rates(config: ExperimentConfig, tau: float, gamma: float,
                    centroid_offset: float = 0.0):
    """Expected per-projection detection rates (probability units) for one cell.

    HG modes n < RATE_MODES per channel.  Closed-form projections when
    there is no drift offset, memoized per (device, dark rate, tau, gamma) and
    returned read-only; brute-force quadrature otherwise, since an offset
    breaks the even/odd structure.
    """
    dark_norm = config.device.dark_rate / config.mean_total_detections
    if centroid_offset == 0.0:
        return _no_offset_rates(config.device, dark_norm, tau, gamma)
    ideal_s, ideal_a = quadrature_projection_probs(RATE_MODES, tau, centroid_offset)
    return _device_rates(ideal_s, ideal_a, config.device, dark_norm, gamma)


def _device_rates(ideal_s, ideal_a, device, dark_norm, gamma):
    mixed_s, mixed_a = mixed_projection_probs(ideal_s, ideal_a, gamma)
    return apply_device(mixed_s, device, dark_norm), apply_device(mixed_a, device, dark_norm)


@functools.lru_cache(maxsize=1024)
def _no_offset_rates(device, dark_norm, tau, gamma):
    ideal_s, ideal_a = hg_projection_probs(RATE_MODES, tau)
    rates = _device_rates(ideal_s, ideal_a, device, dark_norm, gamma)
    for rate in rates:
        rate.flags.writeable = False
    return rates


def _hashmix(value, hash_const, mult=_MULT_A):
    value = value ^ np.uint32(hash_const)
    hash_const = hash_const * mult % _WORD
    value = value * np.uint32(hash_const)
    return value ^ (value >> np.uint32(16)), hash_const


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _stream_words(master_seed: int, keys) -> np.ndarray:
    """generate_state(4, np.uint64) of SeedSequence(master_seed, spawn_key=key), per key.

    numpy's SeedSequence hash, vectorized over a 2-D array of equal-length
    spawn keys, one key per row; row k of the result belongs to keys[k].  The
    master seed enters as its little-endian 32-bit words, zero-padded to the
    pool size, and each key value as one word.  numpy would split a key value
    of 2**32 or more into two words, so such a value raises.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2 or keys.size == 0:
        raise ValueError(f"spawn keys must form a nonempty 2-D array, got shape {keys.shape}")
    if keys.min() < 0 or keys.max() >= _WORD:
        raise ValueError(f"spawn-key values must lie in [0, 2**32), got {keys.min()} "
                         f"to {keys.max()}")
    seed_words = []
    while True:
        seed_words.append(master_seed % _WORD)
        master_seed //= _WORD
        if not master_seed:
            break
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    # the master seed's words are the same for every key: hash them once
    entropy = [np.array([w], dtype=np.uint32) for w in seed_words]
    entropy += list(keys.astype(np.uint32).T)

    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        state.append(value.astype(np.uint64))
    return np.stack([state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)],
                    axis=1)


class _StreamWords(np.random.bit_generator.ISeedSequence):
    """One spawn key's generate_state(4, np.uint64), for PCG64 to seed itself from."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only 4 words of uint64 are stored, got a request for "
                             f"{n_words} of {np.dtype(dtype)}")
        return self.words


def _seeded(master_seed: int, keys):
    """Yield, per spawn key, a generator in the state of a fresh
    np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))."""
    for words in _stream_words(master_seed, keys):
        yield np.random.Generator(np.random.PCG64(_StreamWords(words)))


def _drift_offsets(config: ExperimentConfig, tau_index: int, gamma_index: int,
                   runs: range) -> list:
    """Centroid offsets of a contiguous range of runs of one cell.

    The walk is replayed from the start of the first run's period: each
    increment is drawn once, and each period sums its increments in run order
    from 0.0.
    """
    drift = config.drift
    if drift is None or drift.std == 0.0:
        return [0.0] * len(runs)
    period = drift.recenter_period
    walk = range(runs.start - runs.start % period, runs.stop)
    steps = _seeded(config.master_seed, [(_DRIFT_STREAM, tau_index, gamma_index, run - 1)
                                         for run in walk if run % period])
    offsets = []
    for run in walk:   # walk starts a period, so offset is set before it is read
        if run % period:
            offset += drift.std * next(steps).standard_normal()
        else:
            offset = 0.0
        offsets.append(offset)
    return offsets[runs.start - walk.start:]


def apply_drift(config: ExperimentConfig, tau_index: int, gamma_index: int,
                run_index: int) -> float:
    """Centroid offset at a given run: random walk reset every recenter period.

    The walk increments come from their own counter-derived streams, so the
    offset at any run is rebuilt from the increments of its own period,
    replayed from the period's start; no other run is needed.
    """
    return _drift_offsets(config, tau_index, gamma_index,
                          range(run_index, run_index + 1))[0]


def _sample_cell(config: ExperimentConfig, tau_index: int, gamma_index: int,
                 runs: range) -> list:
    """Records of a contiguous range of runs of one (tau, gamma) cell, in run order."""
    tau = config.tau_grid[tau_index]
    gamma = config.gammas[gamma_index]
    offsets = _drift_offsets(config, tau_index, gamma_index, runs)
    rngs = _seeded(config.master_seed,
                   [(_COUNT_STREAM, tau_index, gamma_index, run, ch_idx, n)
                    for run in runs for ch_idx in range(2) for n in range(N_RECORDED)])
    records = []
    for run, offset in zip(runs, offsets):
        counts = []
        for rates in detection_rates(config, tau, gamma, offset):
            means = config.mean_total_detections * rates[:N_RECORDED]
            counts.append(tuple(int(next(rngs).poisson(mean)) for mean in means))
        records.append(DetectionRecord(tau, gamma, run, *counts))
    return records


def run_experiment(config: ExperimentConfig):
    """All records over the full tau x gamma x repetition grid, in grid order."""
    return [record
            for ti in range(len(config.tau_grid))
            for gi in range(len(config.gammas))
            for record in _sample_cell(config, ti, gi, range(config.repetitions))]

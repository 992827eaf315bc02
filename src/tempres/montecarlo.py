"""Photon-counting Monte Carlo over the (tau, gamma) grid.

Each projection setting is measured sequentially in the experiment, so counts
are independent Poisson draws per (channel, mode).  Every draw has its own
counter-based stream: count n of channel ch (0 = s, 1 = a) in run `run` of
cell (ti, gi) is

    np.random.default_rng(np.random.SeedSequence(
        master_seed, spawn_key=(0, ti, gi, run, ch, n))).poisson(mean)

and drift increment j of the cell is the standard normal of spawn key
(1, ti, gi, j).  So every record is independent of evaluation order.

The count keys of the whole grid form one stream in grid order (`_count_words`),
hashed _HASH_BLOCK_RUNS runs at a time across cells, each block in one
vectorized pass (numpy's SeedSequence algorithm, `_stream_words`); each hash
goes to numpy's PCG64, which seeds itself from it: the same numbers, without a
SeedSequence object per draw.  Each cell is sampled whole: it takes its runs'
rows from that stream, wherever the block edges fall, and walks its drift from
run 0.  Each draw's mean is a count: `detection_rates` gives a run's eight,
mean_total_detections times the detected probability plus the dark rate.  The
no-offset means of a cell are computed once (`detection_rates` is memoized);
each drifted run takes its own.  Both come from the pulses' HG amplitudes.
"""

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.random import PCG64, Generator

from .channels import (
    TAU_MAX,
    DeviceModel,
    _plain_float,
    apply_device,
    check_gamma,
    hg_projection_probs,
    mixed_projection_probs,
    quadrature_projection_probs,
)

N_RECORDED = 4   # projections n = 0..3 enter the records, as in the estimator
RATE_MODES = N_RECORDED + 1   # crosstalk reaches a recorded mode from mode 4 at most

# numpy's Poisson sampler rejects means above about 9.2e18; a draw's mean is at
# most mean_total_detections + dark_rate
MAX_POISSON_MEAN = 1e18

# Runs in one simulated table, the most a loaded config may ask for.  A run is
# held as a DetectionRecord of about 340 B, and the pipeline and `estimate` peak
# at 0.73-0.91 kB per run (analysis records, calibration records and estimates;
# tracemalloc on the default grid), so 2**19 runs keep that peak under 0.5 GiB.
# A drifted cell hashes all its drift increments in one call, about 50 B per run
# while it is sampled (tracemalloc on one 20,000-run cell, against about 345 B
# per held record), so a table of one 2**19-run cell adds about 26 MiB to it.
MAX_RUNS = 2**19

# Largest drift std, about 3.6e70: the displaced-pulse amplitudes raise half a
# pulse's displacement, offset -/+ tau/2, to the power RATE_MODES - 1, which
# overflows past the fourth root of the largest float (1.2e77).  An offset sums
# at most MAX_RUNS increments std * z, and numpy's normal keeps |z| < 12.23
# (3.654 + sqrt(2 * 53 ln 2): its ziggurat tail draws 53-bit uniforms).
MAX_DRIFT_STD = ((2.0 * sys.float_info.max ** (1.0 / (RATE_MODES - 1))
                  - TAU_MAX / 2.0) / (12.3 * MAX_RUNS))

# spawn-key tags keep count streams and drift streams disjoint
_COUNT_STREAM = 0
_DRIFT_STREAM = 1

# numpy's SeedSequence: entropy pool of four 32-bit words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 2**32

# Runs whose count keys are hashed in one _stream_words call.  The size bounds
# the hash's temporaries, about 1.1 kB per run, not its speed: `reproduce fig3
# --svg` on the default grid (3,500 runs per table) peaked at 42.0 MiB RSS with
# 512-run blocks and at 44.7 MiB with one block per table, at the same speed.
_HASH_BLOCK_RUNS = 512

DEFAULT_TAU_GRID = tuple(i / 6.0 for i in range(7))
DEFAULT_GAMMAS = (0.0, 0.125, 0.25, 0.375, 0.5)


def _plain_int(value, name: str) -> int:
    """value as a Python int; a numpy integer or an integral float counts, a bool does not."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer))
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DriftSpec:
    """Slow timing drift: Gaussian random-walk centroid offset, recentered periodically."""

    std: float
    recenter_period: int = 10

    def __post_init__(self):
        object.__setattr__(self, "std", _plain_float(self.std, "drift std"))
        if not 0 <= self.std < math.inf:
            raise ValueError(f"drift std must be finite and >= 0, got {self.std}")
        object.__setattr__(self, "recenter_period",
                           _plain_int(self.recenter_period, "drift recenter_period"))
        if self.recenter_period < 1:
            raise ValueError(f"drift recenter_period must be >= 1, got {self.recenter_period}")


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
        object.__setattr__(self, "tau_grid", tuple(_plain_float(t, f"tau_grid[{i}]")
                                                   for i, t in enumerate(self.tau_grid)))
        object.__setattr__(self, "gammas", tuple(check_gamma(_plain_float(g, f"gammas[{i}]"))
                                                 for i, g in enumerate(self.gammas)))
        outside = [t for t in self.tau_grid if not 0 <= t <= TAU_MAX]
        if outside:
            raise ValueError(f"tau_grid values must lie in [0, TAU_MAX = {TAU_MAX:g}], "
                             f"where the incoherent intensity FI's quadrature holds full "
                             f"precision and from which MAX_DRIFT_STD is derived; "
                             f"got {outside[0]}")
        for key in ("tau_grid", "gammas"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} must hold at least one value")
            if len(set(values)) < len(values):
                repeated = next(v for i, v in enumerate(values) if v in values[:i])
                raise ValueError(f"{key} values must be distinct, got {repeated:g} twice: "
                                 "one (tau, gamma) cell would hold two sets of runs")
        for key in ("repetitions", "master_seed"):
            object.__setattr__(self, key, _plain_int(getattr(self, key), key))
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        object.__setattr__(self, "mean_total_detections",
                           _plain_float(self.mean_total_detections, "mean_total_detections"))
        if not 0 < self.mean_total_detections <= MAX_POISSON_MEAN:
            raise ValueError(f"mean_total_detections must lie in (0, {MAX_POISSON_MEAN:g}], "
                             f"got {self.mean_total_detections}")
        if not self.device.dark_rate <= MAX_POISSON_MEAN:
            raise ValueError(f"device.dark_rate must be at most {MAX_POISSON_MEAN:g}, "
                             f"got {self.device.dark_rate}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.drift is not None and not self.drift.std <= MAX_DRIFT_STD:
            raise ValueError(f"drift std = {self.drift.std:g} is above MAX_DRIFT_STD = "
                             f"{MAX_DRIFT_STD:g}, where a drifted run's projection "
                             f"amplitudes can overflow")


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
        if not all(isinstance(c, numbers.Real) and 0 <= c < math.inf and int(c) == c
                   for c in counts):
            raise ValueError("counts must be nonnegative integers")


def detection_rates(config: ExperimentConfig, tau: float, gamma: float,
                    centroid_offset: float = 0.0) -> np.ndarray:
    """Mean counts per run of one cell's recorded projections: s0..s3, then a0..a3.

    mean_total_detections times each projection's detected probability, plus
    the device's dark_rate, as one read-only array.  The probabilities come
    from the pulses' coherent-state amplitudes over HG modes n < RATE_MODES:
    with no drift offset their parity split (hg_projection_probs), memoized
    per (device, mean_total_detections, tau, gamma); otherwise both displaced
    pulses' amplitudes, since an offset breaks parity.
    """
    if centroid_offset == 0.0:
        return _no_offset_rates(config.device, config.mean_total_detections, tau, gamma)
    ideal_s, ideal_a = quadrature_projection_probs(RATE_MODES, tau, centroid_offset)
    return _device_rates(ideal_s, ideal_a, config.device, config.mean_total_detections, gamma)


def _device_rates(ideal_s, ideal_a, device, mean_total_detections, gamma):
    detected = [apply_device(mixed, device)[:N_RECORDED]
                for mixed in mixed_projection_probs(ideal_s, ideal_a, gamma)]
    means = mean_total_detections * np.concatenate(detected) + device.dark_rate
    means.flags.writeable = False
    return means


@functools.lru_cache(maxsize=1024)
def _no_offset_rates(device, mean_total_detections, tau, gamma):
    ideal_s, ideal_a = hg_projection_probs(RATE_MODES, tau)
    return _device_rates(ideal_s, ideal_a, device, mean_total_detections, gamma)


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
    state = np.empty((len(keys), 8), dtype=np.uint32)
    for i in range(8):
        state[:, i], hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
    # each uint64 word is a pair of 32-bit words, low word first, as in numpy
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _StreamWords(np.random.bit_generator.ISeedSequence):
    """One spawn key's generate_state(4, np.uint64), for PCG64 to seed itself from."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError(f"only 4 words of uint64 are stored, got a request for "
                             f"{n_words} of {np.dtype(dtype)}")
        return self.words


def _seeded(master_seed: int, keys):
    """Yield, per spawn key, a generator in the state of a fresh
    np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))."""
    for words in _stream_words(master_seed, keys):
        yield Generator(PCG64(_StreamWords(words)))


def _drift_offsets(config: ExperimentConfig, tau_index: int, gamma_index: int,
                   n_runs: int) -> list:
    """Centroid offsets of runs 0 .. n_runs - 1 of one cell.

    Each increment is drawn once, and each period sums its increments in run
    order from 0.0.
    """
    drift = config.drift
    if drift is None or drift.std == 0.0:
        return [0.0] * n_runs
    period = drift.recenter_period
    steps = _seeded(config.master_seed, [(_DRIFT_STREAM, tau_index, gamma_index, run - 1)
                                         for run in range(n_runs) if run % period])
    offsets = []
    for run in range(n_runs):   # run 0 starts a period, so offset is set before it is read
        if run % period:
            offset += drift.std * next(steps).standard_normal()
        else:
            offset = 0.0
        offsets.append(offset)
    return offsets


def apply_drift(config: ExperimentConfig, tau_index: int, gamma_index: int,
                run_index: int) -> float:
    """Centroid offset at a given run: random walk reset every recenter period.

    The walk increments come from their own counter-derived streams, so the
    offset at any run is the cell's walk from run 0 up to that run; no sampled
    count is needed.  Its cost grows with run_index, as it draws every
    increment before it; _drift_offsets gives all of a cell's offsets in one
    walk.
    """
    return _drift_offsets(config, tau_index, gamma_index, run_index + 1)[-1]


def _count_words(config: ExperimentConfig):
    """Yield the _stream_words row of every count key of the grid, in grid order.

    Keys run over cell (c = ti * len(gammas) + gi), then run, then channel,
    then projection.  They are hashed _HASH_BLOCK_RUNS runs at a time, across
    cell edges, one block when the rows before it are used up.
    """
    reps = config.repetitions
    n_gammas = len(config.gammas)
    total = len(config.tau_grid) * n_gammas * reps
    channel, mode = np.divmod(np.arange(2 * N_RECORDED), N_RECORDED)
    for first in range(0, total, _HASH_BLOCK_RUNS):
        cells, runs = np.divmod(np.arange(first, min(first + _HASH_BLOCK_RUNS, total)), reps)
        tis, gis = np.divmod(cells, n_gammas)
        keys = np.stack(np.broadcast_arrays(_COUNT_STREAM, tis[:, None], gis[:, None],
                                            runs[:, None], channel, mode), axis=-1)
        yield from _stream_words(config.master_seed, keys.reshape(-1, keys.shape[-1]))


def _sample_cell(config: ExperimentConfig, tau_index: int, gamma_index: int, rows) -> list:
    """Records of every run of one (tau, gamma) cell, in run order.

    rows yields the _stream_words rows of the cell's count keys, 2 * N_RECORDED
    per run in key order: run, then channel, then projection.  The cell takes
    exactly its own rows and leaves the rest to the cells after it.
    """
    tau = config.tau_grid[tau_index]
    gamma = config.gammas[gamma_index]
    offsets = _drift_offsets(config, tau_index, gamma_index, config.repetitions)
    records = []
    for run, offset in enumerate(offsets):
        counts = [Generator(PCG64(_StreamWords(next(rows)))).poisson(mean)
                  for mean in detection_rates(config, tau, gamma, offset).tolist()]
        records.append(DetectionRecord(tau, gamma, run, tuple(counts[:N_RECORDED]),
                                       tuple(counts[N_RECORDED:])))
    return records


def run_experiment(config: ExperimentConfig):
    """All records over the full tau x gamma x repetition grid, in grid order.

    Every cell is sampled whole from the one grid-order stream of count hashes.
    """
    rows = _count_words(config)
    return [record for ti in range(len(config.tau_grid)) for gi in range(len(config.gammas))
            for record in _sample_cell(config, ti, gi, rows)]

"""Monte Carlo experiment harness.

Defines scenarios (user links, power/length/weight grids, trial counts),
runs seeded trials serially or across processes, dispatches the four
schemes, aggregates per-cell statistics, and emits deterministic CSV plus a
run manifest. The work item is one trial: it draws the channel once, as a
pure function of (master_seed, trial_index), and evaluates every cell and
scheme on that draw. Each (cell, scheme) is reduced in trial order, so the
same (config, seed) pair always produces byte-identical CSV regardless of
parallelism; failure budgets are judged after all trials have run.
"""

import configparser
import csv
import hashlib
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from itertools import product
from operator import attrgetter

import numpy as np
import numpy.random  # numpy loads it lazily: load it before a pool forks, not in each worker

from .channel import NetworkRealization, UserLink, mean_gain, sample_realization
from .error_assignment import SortedQosProfile, errors_at_level, optimal_errors
from .joint import OracleGrid, exhaustive_oracle, make_report, solve_joint
from .power import equal_power, solve_power

logger = logging.getLogger("fblopt")

SCHEMES = ("proposed", "wf_minmax", "proposedpower_minmax", "equalpower_opteps")

# fraction of failed trials above which a cell is considered broken
FAILURE_BUDGET = 0.01


@dataclass(frozen=True)
class ScenarioConfig:
    links: tuple
    noise_power: float = 1.0
    p_max_grid: tuple = (6.0,)
    l_grid: tuple = (200,)
    omega_grid: tuple = (0.9,)
    n_trials: int = 1000
    master_seed: int = 12345
    schemes: tuple = SCHEMES
    oracle: OracleGrid | None = None
    n_jobs: int = 1
    fading: bool = True  # False pins theta = 1, for hand-checkable runs

    def __post_init__(self):
        # a library caller's lists become tuples, so equal configs compare and hash equal
        for name in ("links", "p_max_grid", "l_grid", "omega_grid", "schemes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not self.links:
            raise ValueError("links must be nonempty")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be positive")
        try:
            gains = [mean_gain(link) / self.noise_power for link in self.links]
        except OverflowError:  # d^(-pathloss_exp) beyond a float
            gains = [np.inf]
        if not all(0.0 < g < np.inf for g in gains):
            raise ValueError("every link's mean gain over noise_power must be positive and finite")
        if not (self.omega_grid and self.l_grid and self.p_max_grid):
            raise ValueError("omega, L and p_max grids must be nonempty")
        if not all(0.0 <= w <= 1.0 for w in self.omega_grid):
            raise ValueError(f"omega values must lie in [0, 1]: {self.omega_grid}")
        if not all(float(l).is_integer() and l >= 2 for l in self.l_grid):
            raise ValueError(f"block lengths must be integers >= 2: {self.l_grid}")
        if not all(0.0 < self.p_max_linear(p) < np.inf for p in self.p_max_grid):
            raise ValueError(f"power budgets must be positive and finite: {self.p_max_grid}")
        if not self.schemes or not set(self.schemes) <= set(SCHEMES):
            raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}: {self.schemes}")
        if self.oracle is not None and len(self.links) > 3:
            raise ValueError("exhaustive oracle rows require 3 users or fewer")

    def p_max_linear(self, value) -> float:
        """Linear power budget of a p_max_grid value, which is in dB; inf
        when it overflows a float."""
        try:
            return 10.0 ** (value / 10.0)
        except OverflowError:
            return np.inf


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    omega: float
    block_length: int
    p_max: float
    mean_sum_rate: float
    mean_max_eps: float
    mean_throughput: float
    std_throughput: float
    n_trials: int
    seed: int


# the CSV header: ResultRow's fields in order, block_length written as L
CSV_COLUMNS = tuple("L" if f.name == "block_length" else f.name for f in fields(ResultRow))


def _row_key(row):
    """Sort key of result rows and CSV lines: (scheme, omega, L, p_max)."""
    return row.scheme, row.omega, row.block_length, row.p_max


def default_config(**overrides) -> ScenarioConfig:
    """Four equidistant users with the usual vehicular-grade error caps,
    unit noise, 6 dB budget, 200 channel uses, omega 0.9, 10^3 trials.

    kappa=1, distance=1, exponent=3 give unit mean gains; these propagation
    values are a declared harness default, not a modeled quantity.
    """
    caps = (1e-5, 5e-5, 1e-4, 5e-4)
    links = tuple(
        UserLink(kappa=1.0, distance=1.0, pathloss_exp=3.0, eps_max=c) for c in caps
    )
    cfg = ScenarioConfig(links=links)
    return replace(cfg, **overrides) if overrides else cfg


def scheme_dispatch(scheme, realization, profile, omega):
    """Solve one realization under the named scheme and report it.

    proposed             joint alternating solver
    wf_minmax            water-filling power, all errors at the strictest cap
    proposedpower_minmax exact power solve, errors at strictest cap
    equalpower_opteps    equal power split, closed-form error assignment
    """
    if scheme == "proposed":
        return solve_joint(realization, profile, omega)

    minmax_eps = errors_at_level(profile, profile.eps_max_sorted[0])
    flags = []
    if scheme == "wf_minmax":
        p = realization.p_wf
        eps = minmax_eps
    elif scheme == "proposedpower_minmax":
        result = solve_power(realization, minmax_eps, omega)
        p = result.p
        eps = minmax_eps
        if not result.converged:
            flags.append("power_stage_cap")
    elif scheme == "equalpower_opteps":
        p = equal_power(realization.n_users, realization.p_max)
        eps = optimal_errors(realization, p, profile, omega)
    else:
        raise ValueError(f"unknown scheme: {scheme!r}")
    return make_report(realization, profile, p, eps, omega, iterations=1, flags=flags)


def _columns(config):
    """(omega, L, p_max, scheme) of each row in run order; an oracle adds `exhaustive`."""
    schemes = tuple(config.schemes) + (("exhaustive",) if config.oracle is not None else ())
    return product(config.omega_grid, config.l_grid, config.p_max_grid, schemes)


def _run_trial(config, profile, trial):
    """(trial, ok, sum_rate, max_eps, throughput) of each _columns entry in
    one trial; module-level so it pickles for workers. The gains are drawn
    once, from (master_seed, trial) alone (budget and length do not enter
    it), and each cell is built from that draw with its own budget and
    length, so comparisons across cells are paired."""
    seed = np.random.SeedSequence([config.master_seed, trial])
    gamma = sample_realization(config.links, config.noise_power, seed, fading=config.fading)
    realizations = {
        (length, p_max): NetworkRealization(gamma, config.p_max_linear(p_max), int(length))
        for length, p_max in product(config.l_grid, config.p_max_grid)
    }
    results = []
    for omega, length, p_max, scheme in _columns(config):
        realization = realizations[length, p_max]
        try:
            if scheme == "exhaustive":
                report = exhaustive_oracle(realization, profile, float(omega), config.oracle)
            else:
                report = scheme_dispatch(scheme, realization, profile, float(omega))
        except (ValueError, ArithmeticError):
            logger.exception("trial %d of cell %s failed", trial, (scheme, omega, length, p_max))
            results.append((trial, False, np.nan, np.nan, np.nan))
        else:
            ok = "not_converged" not in report.flags
            results.append((trial, ok, report.sum_rate, report.max_eps, report.throughput))
    return results


def run_scenario(config: ScenarioConfig):
    """Run every (scheme, omega, L, p_max) cell of the scenario, one trial
    per work item, in one pass over a process pool when n_jobs > 1.

    Failed trials (numerical errors, such as a budget whose water-filling
    normalizer is not positive, or joint-solver non-convergence) are
    excluded from the means and logged; after all trials, the first cell
    where more than 1% failed aborts the run. Returns ResultRow objects
    sorted by (scheme, omega, L, p_max).
    """
    profile = SortedQosProfile.from_caps([l.eps_max for l in config.links])
    run = partial(_run_trial, config, profile)
    if config.n_jobs > 1:
        chunk = max(1, config.n_trials // (config.n_jobs * 8))
        with ProcessPoolExecutor(max_workers=config.n_jobs) as executor:
            per_trial = list(executor.map(run, range(config.n_trials), chunksize=chunk))
    else:
        per_trial = list(map(run, range(config.n_trials)))
    rows = [
        _aggregate(results, scheme, omega, length, p_max, config)
        for (omega, length, p_max, scheme), results in zip(_columns(config), zip(*per_trial))
    ]
    rows.sort(key=_row_key)
    return rows


def _aggregate(results, scheme, omega, length, p_max, config) -> ResultRow:
    ok = np.array([r[1] for r in results], dtype=bool)
    n_failed = int((~ok).sum())
    if n_failed:
        logger.warning(
            "cell (%s, omega=%s, L=%s, p_max=%s): %d/%d trials failed and were excluded",
            scheme, omega, length, p_max, n_failed, len(results),
        )
    if n_failed > FAILURE_BUDGET * len(results):
        raise RuntimeError(
            f"cell ({scheme}, omega={omega}, L={length}, p_max={p_max}): "
            f"{n_failed}/{len(results)} trials failed"
        )
    sum_rates = np.array([r[2] for r in results])[ok]
    max_eps = np.array([r[3] for r in results])[ok]
    throughput = np.array([r[4] for r in results])[ok]
    return ResultRow(
        scheme=scheme,
        omega=float(omega),
        block_length=int(length),
        p_max=float(p_max),
        mean_sum_rate=float(sum_rates.mean()),
        mean_max_eps=float(max_eps.mean()),
        mean_throughput=float(throughput.mean()),
        std_throughput=float(throughput.std(ddof=1)) if throughput.size > 1 else 0.0,
        n_trials=int(ok.sum()),
        seed=config.master_seed,
    )


def _fmt(value) -> str:
    return f"{value:.9g}"


def emit_csv(rows, path):
    """Write rows as UTF-8 CSV under the CSV_COLUMNS header, floats to 9
    significant digits, sorted by (scheme, omega, L, p_max)."""
    rows = sorted(rows, key=_row_key)
    if not rows:
        raise ValueError("emit_csv requires at least one row")
    values = attrgetter(*(f.name for f in fields(ResultRow)))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for r in rows:
                cells = [_fmt(v) if isinstance(v, float) else str(v) for v in values(r)]
                fh.write(",".join(cells) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc


def read_rows(path):
    """Parse a CSV produced by emit_csv back into ResultRow objects, each
    column with its field's type; a header other than CSV_COLUMNS, or a row
    of another length, raises ValueError."""
    types = [f.type for f in fields(ResultRow)]
    with open(path, encoding="utf-8", newline="") as fh:
        records = csv.reader(fh)
        header = tuple(next(records, ()))
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: header {header} is not {CSV_COLUMNS}")
        return [ResultRow(*(t(v) for t, v in zip(types, rec, strict=True))) for rec in records]


def config_hash(config: ScenarioConfig) -> str:
    """Hash of the config without n_jobs, which never changes the CSV."""
    values = asdict(config)
    del values["n_jobs"]
    blob = json.dumps(values, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def write_manifest(config: ScenarioConfig, csv_path, manifest_path=None):
    """Record config hash, seed and library versions next to the CSV."""
    from . import __version__

    manifest_path = manifest_path or str(csv_path) + ".manifest.txt"
    import sys

    lines = [
        f"config_hash = {config_hash(config)}",
        f"master_seed = {config.master_seed}",
        f"csv = {csv_path}",
        f"fblopt = {__version__}",
        f"numpy = {np.__version__}",
        f"python = {sys.version.split()[0]}",
    ]
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path


def _read_section(parser, name, base):
    """Copy of the dataclass instance `base` with the keys of INI section
    `name` set on its fields of the same name, each parsed to the type of
    the field's current value (lists space-separated). Keys naming no
    plain-valued field raise."""
    if not parser.has_section(name):
        return base
    section = parser[name]
    names = {f.name for f in fields(base)}
    overrides = {}
    for key, raw in section.items():
        current = getattr(base, key) if key in names else None
        if isinstance(current, tuple) and current and isinstance(current[0], (int, float, str)):
            overrides[key] = tuple(type(current[0])(tok) for tok in raw.split())
        elif isinstance(current, bool):
            overrides[key] = section.getboolean(key)
        elif isinstance(current, (int, float, str)):
            overrides[key] = type(current)(raw)
        else:
            raise ValueError(f"unknown {name} key: {key}")
    return replace(base, **overrides)


_LINK_KEYS = ("kappa", "distance", "pathloss_exp")


def _read_users(parser, default_links):
    """Links from the [users] section. Left-out keys keep the default
    scenario's values; a propagation value its users share applies to any
    user count."""
    if not parser.has_section("users"):
        return default_links
    users = parser["users"]
    unknown = set(users) - {"count", "eps_max", *_LINK_KEYS}
    if unknown:
        raise ValueError(f"unknown users keys: {sorted(unknown)}")
    count = int(users.get("count", len(default_links)))

    def floats(key, default):
        return tuple(float(tok) for tok in users[key].split()) if key in users else default

    caps = floats("eps_max", tuple(l.eps_max for l in default_links))
    if len(caps) != count:
        raise ValueError("eps_max must list one cap per user")
    columns = []
    for key in _LINK_KEYS:
        vals = floats(key, tuple(dict.fromkeys(getattr(l, key) for l in default_links)))
        if len(vals) == 1:
            vals = vals * count
        if len(vals) != count:
            raise ValueError(f"{key} must give one value or one per user")
        columns.append(vals)
    return tuple(
        UserLink(kappa=k, distance=d, pathloss_exp=e, eps_max=c)
        for k, d, e, c in zip(*columns, caps)
    )


def load_config_file(path) -> ScenarioConfig:
    """Read a scenario from an INI file with [scenario], [users] and
    [oracle] sections, documented in the README.

    Every value left out keeps its default_config() value; unknown
    sections and keys raise.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not parser.read(path):
        raise FileNotFoundError(path)
    unknown = set(parser.sections()) - {"scenario", "users", "oracle"}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    base = default_config()
    return replace(
        _read_section(parser, "scenario", base),
        links=_read_users(parser, base.links),
        oracle=_read_section(parser, "oracle", OracleGrid())
        if parser.has_section("oracle")
        else base.oracle,
    )

"""Monte Carlo experiment harness.

Defines scenarios (user links, power/length/weight grids, trial counts),
runs seeded trials serially or across processes, dispatches the four
schemes, aggregates per-cell statistics, and emits deterministic CSV plus a
run manifest. The work item is one trial: it draws the channel once, as a
pure function of (master_seed, trial_index), and evaluates every cell and
scheme on that draw into one (sum rate, max eps, throughput) row per cell.
The rows of wf_minmax and proposedpower_minmax read omega only through
solve_power's omega == 0 branch, so each is evaluated once per (L, p_max)
and sign of omega, and its row is copied into the draw's other omega cells.
With n_jobs > 1 the trials are split into min(n_jobs, n_trials) strided
shares; the parent process runs one share itself and one worker process
runs each other share, so a run starts at most n_trials - 1 processes. The
rows are gathered in trial order and each cell is reduced from its column,
so the same (config, seed) pair always produces byte-identical CSV
regardless of parallelism. A row with a non-finite value is a failed trial,
and failure budgets are judged after all trials have run.
"""

import configparser
import hashlib
import json
import logging
import multiprocessing
import sys
import traceback
from dataclasses import asdict, dataclass, fields, replace
from itertools import product
from operator import attrgetter

import numpy as np
import numpy.random  # numpy loads it lazily: load it before the workers fork, not in each one

from .channel import MAX_BLOCK_LENGTH, NetworkRealization, UserLink, mean_gain, sample_realization
from .error_assignment import SortedQosProfile, errors_at_level, optimal_errors
from .joint import make_report, solve_joint
from .oracle import MAX_ORACLE_USERS, OracleGrid, exhaustive_oracle
from .power import equal_power, solve_power

logger = logging.getLogger("fblopt")

SCHEMES = ("proposed", "wf_minmax", "proposedpower_minmax", "equalpower_opteps")
# schemes whose CSV row reads omega only through solve_power's omega == 0 branch
OMEGA_FREE = ("wf_minmax", "proposedpower_minmax")

# fraction of failed trials above which a cell is considered broken
FAILURE_BUDGET = 0.01

# Every mean gain over noise and every linear power budget (-1000 to 1000 dB)
# lies in [1/MAX_GAIN, MAX_GAIN], and the largest gain times the largest
# budget is at most MAX_GAIN. A fading draw scales a gain by less than 40, so
# the solvers' squares of an SNR stay far below float overflow, and the power
# solver's Newton weights and the water-filling normalizer stay nonzero and finite.
MAX_GAIN = 1e100


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
        # a library caller's lists become tuples, so equal configs compare and hash
        # equal, and x + 0 turns a grid's -0.0 into 0.0 (written 0), keeping ints ints
        for name in ("links", "l_grid", "schemes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("p_max_grid", "omega_grid"):
            object.__setattr__(self, name, tuple(x + 0 for x in getattr(self, name)))
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not (self.links and self.omega_grid and self.l_grid and self.p_max_grid):
            raise ValueError("links and the omega, L and p_max grids must be nonempty")
        # a repeat would run its cells twice and write their rows twice
        for name in ("p_max_grid", "l_grid", "omega_grid", "schemes"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        try:
            gains = [mean_gain(link) / self.noise_power for link in self.links]
            budgets = [self.p_max_linear(p) for p in self.p_max_grid]
        except ArithmeticError:  # a zero noise_power, or a value beyond a float
            gains = budgets = [np.nan]
        in_range = all(1 / MAX_GAIN <= x <= MAX_GAIN for x in gains + budgets)
        if not (in_range and max(gains) * max(budgets) <= MAX_GAIN):
            raise ValueError(
                f"mean gains over noise_power and linear budgets must lie in [{1 / MAX_GAIN:g}, "
                f"{MAX_GAIN:g}], and the largest gain times the largest budget at most {MAX_GAIN:g}"
            )
        if not all(0.0 <= w <= 1.0 for w in self.omega_grid):
            raise ValueError(f"omega values must lie in [0, 1]: {self.omega_grid}")
        if not all(2 <= l <= MAX_BLOCK_LENGTH and float(l).is_integer() for l in self.l_grid):
            raise ValueError(f"block lengths must be integers in [2, 2**63 - 1]: {self.l_grid}")
        if not self.schemes or not set(self.schemes) <= set(SCHEMES):
            raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}: {self.schemes}")
        if self.oracle is not None and len(self.links) > MAX_ORACLE_USERS:
            raise ValueError(f"exhaustive oracle rows require {MAX_ORACLE_USERS} users or fewer")

    def p_max_linear(self, value) -> float:
        """Linear power budget of a p_max_grid value, which is in dB."""
        return 10.0 ** (value / 10.0)


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

    flags = []
    if scheme == "wf_minmax":
        p = realization.p_wf
        eps = errors_at_level(profile, profile.eps_max_sorted[0])
    elif scheme == "proposedpower_minmax":
        eps = errors_at_level(profile, profile.eps_max_sorted[0])
        result = solve_power(realization, eps, omega)
        p = result.p
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
    """One trial's (sum_rate, max_eps, throughput) row per _columns entry,
    a (columns, 3) array. The gains are drawn once, from (master_seed,
    trial) alone, and each cell is built from that draw with its own budget
    and length, so comparisons across cells are paired. A scheme in
    OMEGA_FREE is evaluated at its first cell of each (L, p_max, omega > 0),
    and that row is copied into the key's later cells: their CSV columns
    would be the same bits. A row stays NaN when its evaluation raised
    ValueError or ArithmeticError (logged once, naming the cell it was
    evaluated for) or the joint solve reported not_converged; a shared
    row's failure fails every cell it serves."""
    seed = np.random.SeedSequence([config.master_seed, trial])
    gamma = sample_realization(config.links, config.noise_power, seed, fading=config.fading)
    realizations = {
        (length, p_max): NetworkRealization(gamma, config.p_max_linear(p_max), int(length))
        for length, p_max in product(config.l_grid, config.p_max_grid)
    }
    columns = list(_columns(config))
    results = np.full((len(columns), 3), np.nan)
    shared = {}
    for row, (omega, length, p_max, scheme) in zip(results, columns):
        key = scheme, length, p_max, omega > 0
        if key in shared:
            row[:] = shared[key]
            continue
        if scheme in OMEGA_FREE:
            shared[key] = row  # a view of results, filled by the evaluation below
        realization = realizations[length, p_max]
        try:
            if scheme == "exhaustive":
                report = exhaustive_oracle(realization, profile, float(omega), config.oracle)
            else:
                report = scheme_dispatch(scheme, realization, profile, float(omega))
        except (ValueError, ArithmeticError):
            logger.exception("trial %d of cell %s failed", trial, (scheme, omega, length, p_max))
        else:
            if "not_converged" not in report.flags:
                row[:] = report.sum_rate, report.max_eps, report.throughput
    return results


def _run_share(config, profile, trials):
    """_run_trial's results for each of `trials`, stacked in order into one
    (len(trials), columns, 3) array. _run_trial is read from the module at
    call time, so a wrapper set on it applies."""
    return np.array([_run_trial(config, profile, trial) for trial in trials])


def _send_share(writer, config, profile, trials):
    """Body of a worker process: run its share of trials and send one
    (ok, payload) message, payload being the results or the exception and
    its traceback text."""
    try:
        message = True, _run_share(config, profile, trials)
    except Exception as exc:  # re-raised in the parent
        message = False, (exc, traceback.format_exc())
    writer.send(message)


def _receive(proc, reader):
    """The results a worker process sent. Its exception is re-raised here,
    chained to its traceback text; a worker that exits without sending
    raises RuntimeError with its exit code."""
    try:
        ok, payload = reader.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"worker process exited with code {proc.exitcode} before sending its results"
        ) from None
    if ok:
        return payload
    exc, remote_traceback = payload
    raise exc from RuntimeError(f"in the worker process:\n{remote_traceback}")


def run_scenario(config: ScenarioConfig):
    """Run every (scheme, omega, L, p_max) cell of the scenario, one trial
    per work item.

    The trials are split into jobs = min(n_jobs, n_trials) strided shares,
    share w holding trials w, w + jobs, w + 2 jobs, ... The parent runs
    share 0 itself and starts one worker process per other share: at most
    n_trials - 1 processes, and none with one job. Each worker sends its
    share back over a pipe as one array once it is done, and the shares are
    gathered at their strided indices into one (trials, cells, 3) array,
    each cell reduced from its column in trial order. An exception from a
    worker is re-raised here (an exception of the parent's own share first
    terminates the workers), and every worker has been joined when this
    returns or raises. Failed trials (see _run_trial and _aggregate) are
    left out of the means; after all trials, the first cell where more than
    1% failed aborts the run. Returns ResultRow objects sorted by
    (scheme, omega, L, p_max).
    """
    profile = SortedQosProfile.from_caps([l.eps_max for l in config.links])
    n_trials = config.n_trials
    jobs = min(config.n_jobs, n_trials)
    columns = list(_columns(config))
    context = multiprocessing.get_context()
    results = np.empty((n_trials, len(columns), 3))
    workers, received = [], 0
    try:
        for share in range(1, jobs):
            reader, writer = context.Pipe(duplex=False)
            # the parent's copy of the write end closes once the worker
            # holds its own, so a worker that dies reads as EOF
            with writer:
                proc = context.Process(
                    target=_send_share, args=(writer, config, profile, range(share, n_trials, jobs))
                )
                proc.start()
            workers.append((proc, reader))
        results[::jobs] = _run_share(config, profile, range(0, n_trials, jobs))
        for share, (proc, reader) in enumerate(workers, 1):
            results[share::jobs] = _receive(proc, reader)
            received = share
    finally:
        for proc, _ in workers[received:]:
            proc.terminate()
        for proc, reader in workers:
            proc.join()
            reader.close()
    rows = [
        _aggregate(results[:, c], scheme, omega, length, p_max, config)
        for c, (omega, length, p_max, scheme) in enumerate(columns)
    ]
    rows.sort(key=_row_key)
    return rows


def _aggregate(column, scheme, omega, length, p_max, config) -> ResultRow:
    """One cell's ResultRow from its (trials, 3) column of _run_trial rows.
    A row with a non-finite value is a failed trial, left out of the means;
    more than FAILURE_BUDGET of them raise RuntimeError."""
    ok = np.isfinite(column).all(axis=1)
    n_failed = len(column) - int(ok.sum())
    if n_failed:
        logger.warning(
            "cell (%s, omega=%s, L=%s, p_max=%s): %d/%d trials failed and were excluded",
            scheme, omega, length, p_max, n_failed, len(column),
        )
    if n_failed > FAILURE_BUDGET * len(column):
        raise RuntimeError(
            f"cell ({scheme}, omega={omega}, L={length}, p_max={p_max}): "
            f"{n_failed}/{len(column)} trials failed"
        )
    # contiguous copies: numpy's pairwise sums, and so the means' bits,
    # depend on the memory layout
    sum_rates, max_eps, throughput = column[ok].T.copy()
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
                cells = [f"{v:.9g}" if isinstance(v, float) else str(v) for v in values(r)]
                fh.write(",".join(cells) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc


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
    """The keys of INI section `name` as overrides of the fields of the
    same name of the dataclass instance `base`, each parsed to the type of
    the field's current value (lists space-separated). Keys naming no
    plain-valued field raise."""
    if not parser.has_section(name):
        return {}
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
    return overrides


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
    # one replace, so the scenario is checked whole
    return replace(
        base,
        **_read_section(parser, "scenario", base),
        links=_read_users(parser, base.links),
        oracle=OracleGrid(**_read_section(parser, "oracle", OracleGrid()))
        if parser.has_section("oracle")
        else base.oracle,
    )

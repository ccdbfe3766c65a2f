"""The benchmark's workloads: the fblopt arguments each one runs, its size,
and the expected shape of its CSV.

Every invocation is `fblopt.cli.main(argv)`; the seed reaches the program
only as `--seed`. Why each workload exists is in NOTES.md.
"""

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# master seed of the warm-up invocation, whose CSV is checked against
# reference.json; fixed so the reference does not depend on --seed
REFERENCE_SEED = 20240

# the omega sweep of scripts/run_tradeoff.py
OMEGA_SWEEP = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)

ALL_SCHEMES = ("proposed", "wf_minmax", "proposedpower_minmax", "equalpower_opteps")


def _num(value) -> str:
    return f"{value:g}"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None        # INI under scenarios/ with the users, or None for default_config()
    omega: tuple
    lengths: tuple
    p_max_db: tuple
    schemes: tuple
    jobs: int
    reference_trials: int     # trials of the warm-up invocation checked against reference.json
    unit_trials: int          # trials per timed invocation
    trace_trials: int         # trials of each traced-run pass, fixed so counts repeat
    headline: str             # scheme timed for solve_p50_ms / solve_p90_ms
    proposed_dominates: bool  # check proposed throughput >= every baseline's

    @property
    def cells(self) -> int:
        return len(self.omega) * len(self.lengths) * len(self.p_max_db)

    def evals(self, trials) -> int:
        return self.cells * len(self.schemes) * trials

    def argv(self, seed, trials, out, jobs=None, schemes=None) -> list:
        """fblopt arguments for one invocation of this workload."""
        argv = []
        if self.config is not None:
            argv += ["--config", str(HERE / "scenarios" / self.config)]
        argv += ["--omega", *map(_num, self.omega)]
        argv += ["--lgrid", *map(_num, self.lengths)]
        argv += ["--pmax-db", *map(_num, self.p_max_db)]
        argv += ["--schemes", *(schemes or self.schemes)]
        argv += ["--jobs", str(jobs or self.jobs)]
        argv += ["--seed", str(seed), "--trials", str(trials), "--out", str(out)]
        return argv


def unit_seed(seed, unit) -> int:
    """Master seed of timed invocation `unit`: each one draws new channels."""
    return seed * 1000 + unit


WORKLOADS = {
    w.name: w
    for w in (
        # default_config() as shipped; its grid is passed as flags all the
        # same, so a change to the defaults fails the check instead of
        # silently changing the workload
        Workload(
            name="default_cell",
            config=None,
            omega=(0.9,),
            lengths=(200,),
            p_max_db=(6.0,),
            schemes=ALL_SCHEMES,
            jobs=1,
            reference_trials=25,
            unit_trials=2,
            trace_trials=60,
            headline="proposed",
            proposed_dominates=True,
        ),
        Workload(
            name="many_users_jobs2",
            config="many_users.ini",
            omega=(0.9,),
            lengths=(100, 1600),
            p_max_db=(0.0, 12.0),
            schemes=("proposed", "proposedpower_minmax"),
            jobs=2,
            reference_trials=8,
            unit_trials=4,
            trace_trials=4,
            headline="proposed",
            proposed_dominates=False,
        ),
        Workload(
            name="baselines_sweep_jobs2",
            config=None,
            omega=OMEGA_SWEEP,
            lengths=(100, 400, 1600),
            p_max_db=(6.0,),
            schemes=("wf_minmax", "equalpower_opteps"),
            jobs=2,
            reference_trials=200,
            unit_trials=50,
            trace_trials=150,
            headline="equalpower_opteps",
            proposed_dominates=False,
        ),
    )
}

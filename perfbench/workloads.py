"""The benchmark's workloads: riscov CLI command sequences and their settings.

Every command runs as ``python -m riscov.cli <args>`` in a fresh process. The
seed reaches only the commands that draw random numbers (``compare`` and
``hist``); the closed-form commands are deterministic, so their outputs are
checked against the reference CSVs in ``reference/``. See README.md for why
each workload was chosen and which metrics it should move.
"""
from __future__ import annotations

from dataclasses import dataclass

HIST_TRIALS = 1000
HIST_BINS = 60  # the CLI's default bin count


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload."""

    name: str
    kind: str                 # analytic | compare | sweep | hist
    config: str               # file under configs/
    args: tuple[str, ...] = ()
    reference: str | None = None  # reference/<workload>/<reference>.csv
    main: bool = False        # timed as the workload's main_s

    def argv(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        argv = [self.kind, "--config", config_path, "--out", out_dir, *self.args]
        if self.kind in ("compare", "hist"):
            argv += ["--seed", str(seed)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int              # RISCOV_WORKERS of untraced runs; traced runs use 1
    setup_config: str
    commands: tuple[Command, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-dense",
            workers=1,
            setup_config="mc-dense.yaml",
            commands=(
                Command("analytic", "analytic", "mc-dense.yaml", reference="analytic"),
                Command("compare", "compare", "mc-dense.yaml", reference="analytic", main=True),
            ),
        ),
        Workload(
            name="mc-explicit-a3",
            workers=2,
            setup_config="mc-explicit-a3.yaml",
            commands=(
                Command("analytic", "analytic", "mc-explicit-a3.yaml", reference="analytic"),
                Command("compare", "compare", "mc-explicit-a3.yaml", reference="analytic",
                        main=True),
            ),
        ),
        Workload(
            name="closed-form",
            workers=1,
            setup_config="closed-form-a4.yaml",
            commands=(
                Command("analytic-a4", "analytic", "closed-form-a4.yaml", reference="analytic-a4"),
                Command("analytic-a3", "analytic", "closed-form-a3.yaml", reference="analytic-a3"),
                Command("sweep-e_p_ris", "sweep", "closed-form-a4.yaml",
                        ("--axis", "lambda_ris", "--grid", "500,1000,10000,50000",
                         "--metric", "e_p_ris"),
                        reference="sweep-e_p_ris", main=True),
                Command("sweep-e_r1", "sweep", "closed-form-a4.yaml",
                        ("--axis", "lambda_ris", "--grid", "500,1000,4000", "--metric", "e_r1"),
                        reference="sweep-e_r1"),
                Command("sweep-coverage", "sweep", "closed-form-a4.yaml",
                        ("--axis", "lambda_ris", "--grid", "500,1000,10000,50000"),
                        reference="sweep-coverage"),
                Command("hist-r1", "hist", "closed-form-a4.yaml",
                        ("--quantity", "r1", "--trials", str(HIST_TRIALS))),
            ),
        ),
    )
}

"""riscov benchmark: wall times of the real CLI, and a traced per-module run.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-dense --seed 1 --seconds 10 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh
``python -m riscov.cli`` process, in rounds that repeat until ``--seconds``
have elapsed (at least ``MIN_ROUNDS``, see ``run_rounds``); the end-to-end
metrics are built from each command's median time. With ``--trace 1`` the
workload runs once that way and once through ``traced_cli.py``, which wraps
the package's public functions in timing probes, both with one worker, and
the per-layer metrics and the tracing overhead are reported.

Every command's output is checked (see checks.py). The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the full record, with host and provenance, is written under
``perfbench/_work/results/``. The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import checks
import probes
from workloads import HIST_BINS, HIST_TRIALS, WORKLOADS, Command, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

MIN_ROUNDS = 3
COMMAND_TIMEOUT_S = 170
EXIT_CONFIG_ERROR = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "main_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.load_config.self_s": "s",
    "geometry.sample_ppp.calls": "count",
    "geometry.sample_ppp.self_s": "s",
    "geometry.nearest_point.self_s": "s",
    "geometry.expected_inv_r1_squared.calls": "count",
    "geometry.expected_inv_r1_squared.self_s": "s",
    "geometry.expected_inv_r1_pow.self_s": "s",
    "geometry.expected_r1.self_s": "s",
    "geometry.pdf_r1_marginal.calls": "count",
    "geometry.pdf_r1_marginal.self_s": "s",
    "channel.reflection_gain.calls": "count",
    "channel.reflection_gain.self_s": "s",
    "channel.reflected_power_raw_moment.self_s": "s",
    "channel.mean_reflected_power.self_s": "s",
    "analytic.interference_factor.calls": "count",
    "analytic.interference_factor.self_s": "s",
    "analytic.interference_factor.abs_tol_max": "1",
    "analytic.coverage.self_s": "s",
    "montecarlo.simulate.self_s": "s",
    "montecarlo.simulate.us_per_trial": "us",
    "montecarlo.drop_scenario.calls": "count",
    "montecarlo.drop_scenario.self_s": "s",
    "montecarlo.sir.self_s": "s",
    "montecarlo.estimate_coverage.self_s": "s",
    "montecarlo.empirical_histogram.self_s": "s",
    "montecarlo.points_per_trial": "points",
    "montecarlo.useful_point_frac": "frac",
    "montecarlo.engaged_frac": "frac",
    "montecarlo.inf_sir_count": "count",
    "cli.run_analytic.self_s": "s",
    "cli.run_simulate.self_s": "s",
    "cli.run_sweep.self_s": "s",
    "cli.build_comparison.self_s": "s",
    "cli.rows_to_csv.self_s": "s",
    "cli.histogram_csv.self_s": "s",
    "trace.overhead_s": "s",
}

OUTPUT_FILES = {
    "analytic": "analytic.csv",
    "sweep": "sweep.csv",
    "compare": "compare.csv",
    "hist": "hist_r1.csv",
}


@dataclass
class CommandResult:
    name: str
    kind: str
    main: bool
    returncode: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def environment(workers: int) -> dict:
    """Pinned environment of every riscov process the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RISCOV_")}
    env.update(
        PYTHONPATH=str(SRC),
        RISCOV_WORKERS=str(workers),
        NO_COLOR="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], env: dict, log_path: Path):
    """Run one process to completion; returns (exit code, wall s, cpu s, max RSS MB).

    CPU time and peak RSS come from ``wait4`` and include the worker processes
    the command forked and reaped. The command runs in its own process group,
    so a timeout or an interrupt kills its workers with it.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def check_output(workload: Workload, cmd: Command, out_dir: Path) -> list[str]:
    reference = None
    if cmd.reference:
        reference = (BENCH / "reference" / workload.name / f"{cmd.reference}.csv").read_text()
    path = out_dir / OUTPUT_FILES[cmd.kind]
    if not path.is_file():
        return [f"{cmd.name}: {path.name} was not written"]
    if cmd.kind == "compare":
        return checks.check_compare(out_dir, reference)
    if cmd.kind == "hist":
        return checks.check_hist(path.read_text(), HIST_BINS, HIST_TRIALS)
    return checks.check_analytic_csv(path.read_text(), reference)


def run_command(
    workload: Workload, cmd: Command, seed: int, env: dict, traced: bool
) -> CommandResult:
    tmp = Path(tempfile.mkdtemp(prefix=f"{cmd.name}-", dir=WORK / "tmp"))
    try:
        out_dir, stats_path = tmp / "out", tmp / "trace.json"
        cli_args = cmd.argv(str(BENCH / "configs" / cmd.config), str(out_dir), seed)
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(stats_path), *cli_args]
        else:
            argv = [sys.executable, "-m", "riscov.cli", *cli_args]
        code, wall, cpu, rss = run_process(argv, env, tmp / "log.txt")
        result = CommandResult(cmd.name, cmd.kind, cmd.main, code, wall, cpu, rss)
        if code != 0:
            log = (tmp / "log.txt").read_text(errors="replace")[-2000:]
            result.problems.append(f"{cmd.name}: exit code {code}\n{log}")
        else:
            try:
                result.problems.extend(check_output(workload, cmd, out_dir))
            except (OSError, ValueError, KeyError) as exc:
                result.problems.append(f"{cmd.name}: unreadable output: {exc!r}")
        if traced and stats_path.is_file():
            result.trace = json.loads(stats_path.read_text())
        elif traced:
            result.problems.append(f"{cmd.name}: traced run wrote no probe report")
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_pass(workload: Workload, seed: int, env: dict, traced: bool) -> list[CommandResult]:
    return [run_command(workload, cmd, seed, env, traced) for cmd in workload.commands]


def setup_sample(workload: Workload, env: dict) -> CommandResult:
    """A fresh interpreter that imports the CLI, loads the workload config and stops.

    ``--trials 0`` makes the CLI reject the config with its config-error exit
    code right after loading it, before any computation starts.
    """
    argv = [sys.executable, "-m", "riscov.cli", "analytic",
            "--config", str(BENCH / "configs" / workload.setup_config),
            "--out", str(WORK / "tmp" / "setup"), "--trials", "0"]
    code, wall, cpu, rss = run_process(argv, env, WORK / "tmp" / "setup.log")
    result = CommandResult("setup", "setup", False, code, wall, cpu, rss)
    if code != EXIT_CONFIG_ERROR:
        result.problems.append(f"setup: exit code {code}, expected {EXIT_CONFIG_ERROR}")
    return result


def run_rounds(
    workload: Workload, seed: int, env: dict, seconds: float
) -> list[list[CommandResult]]:
    """Rounds of one set-up sample and the workload's commands, each in a fresh process.

    Rounds repeat until ``seconds`` have elapsed and at least ``MIN_ROUNDS``
    ran. Every round times the set-up and the cold ``analytic`` commands, so
    their samples spread over the whole run; a round that starts after
    ``seconds`` leaves the other commands out.
    """
    setup_sample(workload, env)  # warm-up: fills the byte-code and file caches
    rounds: list[list[CommandResult]] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        with_all = not rounds or time.perf_counter() - start < seconds
        rounds.append([setup_sample(workload, env)] + [
            run_command(workload, cmd, seed, env, traced=False)
            for cmd in workload.commands if with_all or cmd.kind == "analytic"
        ])
    return rounds


def end_to_end(rounds: list[list[CommandResult]]) -> tuple[dict, dict]:
    """The end-to-end metrics, and each command's median wall time over the rounds."""
    samples: dict[str, list[CommandResult]] = {}
    for result in (r for rnd in rounds for r in rnd):
        samples.setdefault(result.name, []).append(result)
    wall = {name: statistics.median(r.wall_s for r in rs) for name, rs in samples.items()}
    cpu = {name: statistics.median(r.cpu_s for r in rs) for name, rs in samples.items()}
    commands = {name: rs[0] for name, rs in samples.items() if name != "setup"}
    metrics = {
        "setup_s": wall["setup"],
        "wall_s": sum(wall[n] for n in commands),
        "main_s": sum(wall[n] for n, r in commands.items() if r.main),
        "cpu_s": sum(cpu[n] for n in commands),
        "peak_rss_mb": max(r.max_rss_mb for n, rs in samples.items() if n != "setup" for r in rs),
    }
    return metrics, {n: wall[n] for n in commands}


def pass_per_layer(results: list[CommandResult]) -> tuple[dict, list[str]]:
    rep = probes.merge_reports([r.trace for r in results if r.trace])
    groups, c = rep["groups"], rep["counters"]
    trials = c["trials"]
    values = {
        "analytic.interference_factor.abs_tol_max": c["abs_tol_max"],
        "montecarlo.simulate.us_per_trial":
            groups["montecarlo.simulate"]["total_s"] / trials * 1e6 if trials else 0.0,
        "montecarlo.points_per_trial": c["points"] / trials if trials else 0.0,
        "montecarlo.useful_point_frac": c["useful_points"] / c["points"] if c["points"] else 0.0,
        "montecarlo.engaged_frac": c["engaged"] / trials if trials else 0.0,
        "montecarlo.inf_sir_count": c["inf_sir"],
    }
    for name in PER_LAYER:
        prefix, _, stat = name.rpartition(".")
        if name not in values and prefix in groups:
            values[name] = groups[prefix][stat]
    absent = [
        prefix for prefix, module, names in probes.TARGETS
        if all(f"{module}.{n}" in rep["absent"] for n in names)
    ]
    return values, absent


def median_of(passes: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def host_info() -> dict:
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
    }


def provenance() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def workload_settings(workload: Workload, seed: int, trace: int) -> dict:
    import yaml

    configs = {
        c.config: yaml.safe_load((BENCH / "configs" / c.config).read_text())
        for c in workload.commands
    }

    def trials(cmd: Command) -> int | None:
        if cmd.kind == "hist":
            return HIST_TRIALS
        return configs[cmd.config].get("n_trials") if cmd.kind == "compare" else None

    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "riscov_workers": 1 if trace else workload.workers,
        "configs": configs,
        "commands": [
            {"name": c.name, "argv": c.argv(f"configs/{c.config}", "<tmp>", seed),
             "trials": trials(c)}
            for c in workload.commands
        ],
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "riscov" / "cli.py").is_file():
        print(f"riscov sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)

    passes: list[list[CommandResult]] = []
    traced_passes: list[list[CommandResult]] = []
    absent: list[str] = []
    command_medians: dict[str, float] = {}
    if args.trace:
        env = environment(workers=1)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(workload, args.seed, env, traced=False))
            traced_passes.append(run_pass(workload, args.seed, env, traced=True))
        layer = [pass_per_layer(p) for p in traced_passes]
        metrics = median_of([values for values, _ in layer])
        absent = layer[0][1]
        metrics["trace.overhead_s"] = (
            statistics.median(sum(r.wall_s for r in p) for p in traced_passes)
            - statistics.median(sum(r.wall_s for r in p) for p in passes)
        )
        units = PER_LAYER
    else:
        passes = run_rounds(workload, args.seed, environment(workload.workers), args.seconds)
        metrics, command_medians = end_to_end(passes)
        units = END_TO_END

    results = [r for p in passes + traced_passes for r in p]
    problems = [p for r in results for p in r.problems]
    attempted = len(results)
    failed = sum(not r.ok for r in results)
    record = {
        "host": host_info(),
        "provenance": provenance(),
        "settings": workload_settings(workload, args.seed, args.trace),
        "seconds": args.seconds,
        "rounds": len(passes),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems,
        "absent_probes": absent,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "command_median_s": command_medians,
        "commands": [[asdict(r) for r in p] for p in passes],
        "traced_commands": [[{k: v for k, v in asdict(r).items() if k != "trace"} for r in p]
                            for p in traced_passes],
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(passes)}  riscov_workers {record['settings']['riscov_workers']}")
    for name, unit in units.items():
        shown = "absent" if name.rpartition(".")[0] in absent else f"{metrics[name]:.6g}"
        print(f"  {name:44s} {shown:>14s} {unit}")
    for name, value in command_medians.items():
        print(f"  {'command ' + name + ' (median, no bound)':44s} {value:>14.6g} s")
    print(f"  {'fail_frac':44s} {failed / attempted:>14.6g} ({failed}/{attempted})")
    print(f"results: {os.path.relpath(out, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

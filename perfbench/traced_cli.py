"""Run one riscov CLI command in this process with the timing probes installed.

Usage: python3 perfbench/traced_cli.py STATS_JSON SUBCOMMAND [ARGS...]

Writes the probe report to STATS_JSON and exits with the command's exit code.
``src`` must be on PYTHONPATH, as for ``python -m riscov.cli``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from probes import Tracer


def main(argv: list[str]) -> int:
    stats_path, args = Path(argv[0]), argv[1:]
    from riscov import cli

    tracer = Tracer()
    with tracer:
        try:
            cli.main.main(args=args, prog_name="riscov", standalone_mode=False)
            code = 0
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    stats_path.write_text(json.dumps(tracer.report()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

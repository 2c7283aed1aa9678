"""Command-line interface.

    noonchip simulate --preset fig2a --out results/
    noonchip fringe --preset fig3b --format json
    noonchip contamination --preset fig4-contamination --out results/
    noonchip coincidence pulses.csv --out results/
    noonchip coincidence --profile --out results/
    noonchip fidelity measured.csv reference.csv

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import coinc, detect
from .evolve import NonUnitaryError
from .scenarios import (
    PRESET_NAMES,
    ConfigError,
    NumericError,
    ScenarioConfig,
    ScenarioOutput,
    load_json,
    preset,
    run_contamination,
    run_fringe,
    run_simulate,
    settings,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

#: largest window profile written by coincidence --profile (4 * window_cycles + 9 rows)
MAX_PROFILE_ROWS = 100_000


def _emit(output: ScenarioOutput, out_dir: str | None) -> None:
    for line in output.summary:
        print(line)
    if out_dir is None:
        return
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    for name, body in output.files.items():
        path = target / name
        path.write_text(body)
        print(f"wrote {path}")


def _cmd_scenario(args: argparse.Namespace) -> int:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("give exactly one of --config or --preset")
    if args.preset is not None:
        config = preset(args.preset)
    else:
        config = ScenarioConfig.from_file(args.config)
    runners = {"simulate": run_simulate, "fringe": run_fringe, "contamination": run_contamination}
    _emit(runners[args.command](config, args.format), args.out)
    return EXIT_OK


def _cmd_coincidence(args: argparse.Namespace) -> int:
    if args.profile and (args.pulses, args.clock_phase, args.seed) != (None, None, None):
        raise ConfigError("--profile reads no pulse file, --clock-phase or --seed")
    data = {} if args.config is None else load_json(args.config, "config")
    config = settings("coincidence settings", coinc.CoincidenceConfig, data)
    output = ScenarioOutput(summary=[])
    if args.profile:
        rows = 4 * config.window_cycles + 9
        if rows > MAX_PROFILE_ROWS:
            raise ConfigError(
                f"window profile of {rows} rows exceeds {MAX_PROFILE_ROWS}; "
                f"window_cycles must be at most {(MAX_PROFILE_ROWS - 9) // 4}"
            )
        delays = [0.25 * config.t_clk * i for i in range(rows)]
        if not math.isfinite(delays[-1]):  # (window_cycles + 2) * t_clk
            raise ConfigError(f"window profile's last delay {delays[-1]!r} ns is beyond a float's "
                              f"range; t_clk {config.t_clk!r} ns is too large")
        output.files["window_profile.csv"] = detect.csv_text(
            ("delay_ns", "probability"),
            [(repr(d), repr(coinc.window_profile(d, config))) for d in delays],
        )
        output.summary.append(
            f"window profile: flat up to {config.window_ns - config.t_clk!r} ns, "
            f"zero from {config.window_ns!r} ns"
        )
    else:
        if args.pulses is None:
            raise ConfigError("give a pulse CSV file or --profile")
        events = coinc.read_pulse_csv(args.pulses)
        counts = coinc.count_coincidences(
            events,
            config,
            clock_phase=0.0 if args.clock_phase is None else args.clock_phase,
            rng_seed=args.seed,
        )
        rows = sorted(detect.outcome_map(counts).items())
        output.files["coincidences.csv"] = detect.csv_text(("channels", "count"), rows)
        total = sum(counts.values())
        output.summary.append(f"{total} coincidence records from {len(events)} pulses")
        for channels, n in rows:
            output.summary.append(f"  {channels}  {n}")
    _emit(output, args.out)
    return EXIT_OK


def _cmd_fidelity(args: argparse.Namespace) -> int:
    p = detect.read_distribution_csv(args.dist_a)
    q = detect.read_distribution_csv(args.dist_b)
    print(repr(detect.fidelity(p, q)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noonchip",
        description="Heralded path-entanglement simulator for the four-mode chip",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text in (
        ("simulate", "evolve, herald, and report distributions"),
        ("fringe", "phase sweep of one detection pattern"),
        ("contamination", "higher-order-pair event analysis"),
    ):
        p_scn = sub.add_parser(command, help=help_text)
        p_scn.add_argument("--config", metavar="FILE", help="scenario config JSON")
        p_scn.add_argument("--preset", choices=PRESET_NAMES, help="named benchmark scenario")
        p_scn.add_argument("--out", metavar="DIR", help="directory for output files")
        p_scn.add_argument("--format", choices=("csv", "json"), default="csv")
        p_scn.set_defaults(func=_cmd_scenario)

    p_coinc = sub.add_parser("coincidence", help="count clocked coincidences in a pulse CSV")
    p_coinc.add_argument("pulses", nargs="?", help="pulse stream CSV (channel,t_ns)")
    p_coinc.add_argument("--config", metavar="FILE", help="coincidence settings JSON")
    p_coinc.add_argument("--profile", action="store_true", help="emit the analytic window profile")
    p_coinc.add_argument("--clock-phase", type=float, default=None)
    p_coinc.add_argument("--seed", type=int, default=None, metavar="U64")
    p_coinc.add_argument("--out", metavar="DIR")
    p_coinc.set_defaults(func=_cmd_coincidence)

    p_fid = sub.add_parser("fidelity", help="compare two distribution CSVs")
    p_fid.add_argument("dist_a")
    p_fid.add_argument("dist_b")
    p_fid.set_defaults(func=_cmd_fidelity)

    return parser


#: built once at import; main only parses
PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    # a message may quote input that holds line breaks; stderr gets one line
    try:
        return args.func(args)
    except (NonUnitaryError, NumericError) as exc:
        print("numerical failure:", *str(exc).splitlines(), file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print("config error:", *str(exc).splitlines(), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

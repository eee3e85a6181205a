"""Command-line interface.

Subcommands: analyze, witness, dqc1, catalog, geometric, entropic.  All
reports are JSON on stdout; exit code 0 on success, 2 on bad input, 1 on
internal errors.  Randomness is always seeded through explicit flags.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import fileio
from .correlation import COMMUTATOR_TOL, RANK_RTOL, partial_rows_witness, zero_discord_test
from .dqc1 import (
    MAX_REGISTER_QUBITS,
    Dqc1Instance,
    _check_alpha,
    dqc1_classicality_check,
    dqc1_sample_trace,
)
from .entropic import (
    GRID_POINTS,
    MEASUREMENT_CLASS,
    REFINE_ITERS,
    classical_correlation_qa,
    mutual_information,
)
from .errors import DimensionError, QDiscordError, ValidationError
from .geometric import geometric_discord_2q, geometric_discord_oracle
from .states import (
    bell_diagonal_state,
    bell_state,
    facet_state,
    four_nonorthogonal_state,
    random_unitary,
)

_GRID_HELP = "sphere lattice size; its z >= 0 half is scanned"


def _print_doc(doc: dict) -> None:
    sys.stdout.write(fileio.dumps_report(doc))


def _entropic_section(rho, info: float, grid_points: int, refine_iters: int) -> dict:
    """Entropic discord report of rho, whose mutual information is info."""
    qa = classical_correlation_qa(rho, grid_points=grid_points, refine_iters=refine_iters)
    return {
        "value": max(0.0, info - qa.value),
        "classical_correlation": qa.value,
        "measurement_class": MEASUREMENT_CLASS,
        "grid_points": qa.grid_points,
        "refine_iters": qa.refine_iters,
        "best_direction": [float(v) for v in qa.best_direction],
    }


def cmd_analyze(args) -> int:
    rho = fileio.load_state(args.state)
    timings: dict = {}
    t0 = time.perf_counter()
    verdict = zero_discord_test(rho, tol=args.comm_tol, rank_rtol=args.rank_tol)
    timings["zero_discord_s"] = time.perf_counter() - t0
    info = mutual_information(rho)
    doc = {
        "dims": [rho.dim_a, rho.dim_b],
        "is_zero_discord": verdict.is_zero_discord,
        "rank_L": verdict.rank_l,
        "witness_triggered": verdict.witness_triggered,
        "max_commutator": verdict.max_commutator,
        "mutual_information": info,
        "timings": timings,
    }
    if rho.dim_a == 2:
        t0 = time.perf_counter()
        doc["geometric_discord"] = geometric_discord_2q(rho).value
        timings["geometric_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        doc["entropic_discord"] = _entropic_section(rho, info, args.ent_grid, args.ent_refine)
        timings["entropic_s"] = time.perf_counter() - t0
    _print_doc(doc)
    return 0


def cmd_witness(args) -> int:
    dim_a, dim_b, rows = fileio.load_rows(args.rows)
    verdict = partial_rows_witness(rows, dim_a)
    doc = {
        "dims": [dim_a, dim_b],
        "discord_proven": verdict.discord_proven,
        "independent_count": verdict.independent_count,
        "rows_supplied": len(rows),
    }
    if verdict.discord_proven:
        doc["certifying_rows"] = verdict.certifying_rows
    _print_doc(doc)
    return 0


def cmd_dqc1(args) -> int:
    _check_alpha(args.alpha)  # before U is loaded or drawn
    if args.unitary is not None:
        u = fileio.load_unitary(args.unitary)
        n = int(np.log2(u.shape[0]))
        if 2**n != u.shape[0]:
            raise ValidationError(f"unitary dimension {u.shape[0]} is not a power of 2")
    else:
        n = args.random_n
        if not 1 <= n <= MAX_REGISTER_QUBITS:
            raise DimensionError(f"register size must be 1..{MAX_REGISTER_QUBITS}, got {n}")
        u = random_unitary(2**n, args.seed)
    inst = Dqc1Instance(n=n, alpha=args.alpha, unitary=u)
    exact = inst.normalized_trace()
    estimate = dqc1_sample_trace(inst, args.samples, args.seed)
    classical = dqc1_classicality_check(inst)
    # D_G of the output state from its K matrix, with no state built.
    # |Tr U^2| <= 2^n for a unitary; a U within UNITARY_ATOL of one can exceed it.
    geometric = max(0.0, args.alpha**2 * (1.0 - abs(classical.trace_u2) / 2**n) / 2 ** (n + 2))
    _print_doc(
        {
            "n": n,
            "alpha": args.alpha,
            "samples": args.samples,
            "seed": args.seed,
            "exact_tau": [exact.real, exact.imag],
            "tau_hat": [estimate.tau_hat.real, estimate.tau_hat.imag],
            "std_error": estimate.std_error,
            "classicality": {
                "zero_discord": classical.zero_discord,
                "phase": classical.phase,
            },
            "geometric_discord": geometric,
        }
    )
    return 0


def _parse_values(text: str, kind: type, count: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ValidationError(f"expected {count} comma-separated values, got {text!r}")
    try:
        return [kind(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"bad parameter {text!r}: {exc}") from exc


def cmd_catalog(args) -> int:
    name = args.name
    if name == "bell":
        if args.params is None:
            raise ValidationError("catalog bell needs an index 0..3")
        rho = bell_state(*_parse_values(args.params, int, 1))
    elif name == "bell-diagonal":
        if args.params is None:
            raise ValidationError("catalog bell-diagonal needs t1,t2,t3")
        rho = bell_diagonal_state(_parse_values(args.params, float, 3))
    elif name == "facet":
        if args.params is None:
            raise ValidationError("catalog facet needs s1,s2,s3 with each +-1")
        rho = facet_state(*_parse_values(args.params, int, 3))
    elif name == "four-nonorthogonal":
        rho = four_nonorthogonal_state()
    else:
        raise ValidationError(f"unknown catalog state {name!r}")
    text = fileio.state_document(rho)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_geometric(args) -> int:
    rho = fileio.load_state(args.state)
    doc = {}
    # the oracle runs first: it refuses a state that is not 2x2 before the
    # closed form does any work (the report's keys are printed sorted)
    if args.oracle:
        doc["oracle"] = {
            "value": geometric_discord_oracle(rho, restarts=args.restarts, seed=args.seed),
            "restarts": args.restarts,
            "seed": args.seed,
        }
    result = geometric_discord_2q(rho)
    doc["value"] = result.value
    doc["k_max"] = result.k_max
    doc["e_star"] = [float(v) for v in result.e_star]
    _print_doc(doc)
    return 0


def cmd_entropic(args) -> int:
    rho = fileio.load_state(args.state)
    info = mutual_information(rho)
    doc = _entropic_section(rho, info, args.grid, args.refine_iters)
    doc["mutual_information"] = info
    _print_doc(doc)
    return 0


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiscord",
        description="Quantum discord analysis: zero-discord criterion, geometric "
        "and entropic discord, DQC1 trace estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full discord report for a state file")
    p.add_argument("state", help="state file (JSON)")
    p.add_argument("--rank-tol", type=_tolerance, default=RANK_RTOL, help="relative rank cutoff")
    p.add_argument("--comm-tol", type=_tolerance, default=COMMUTATOR_TOL, help="commutator tolerance")
    p.add_argument("--ent-grid", type=int, default=GRID_POINTS, help=_GRID_HELP)
    p.add_argument("--ent-refine", type=int, default=REFINE_ITERS, help="refinement iterations")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("witness", help="discord witness from correlation-matrix rows")
    p.add_argument("rows", help="rows file (JSON)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("dqc1", help="trace estimation and classicality of a DQC1 run")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--unitary", help="unitary file (JSON)")
    src.add_argument("--random-n", type=int, help="Haar-random unitary on n qubits")
    p.add_argument("--alpha", type=float, default=1.0, help="control-qubit purity in (0, 1]")
    p.add_argument("--samples", type=int, default=100000, help="shots per observable")
    p.add_argument("--seed", type=_seed, default=0, help="seed for unitary and sampling")
    p.set_defaults(func=cmd_dqc1)

    p = sub.add_parser("catalog", help="write a named state as a state file")
    p.add_argument("name", help="bell | bell-diagonal | facet | four-nonorthogonal")
    p.add_argument("params", nargs="?", help="e.g. 0 for bell, 0.33,0.33,0.33 for bell-diagonal")
    p.add_argument("--output", "-o", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("geometric", help="closed-form geometric discord of a state with qubit A side")
    p.add_argument("state", help="state file (JSON)")
    p.add_argument("--oracle", action="store_true", help="also run the minimization oracle (2x2 only)")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_geometric)

    p = sub.add_parser("entropic", help="entropic discord of a state with qubit A side")
    p.add_argument("state", help="state file (JSON)")
    p.add_argument("--grid", type=int, default=GRID_POINTS, help=_GRID_HELP)
    p.add_argument("--refine-iters", type=int, default=REFINE_ITERS)
    p.set_defaults(func=cmd_entropic)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QDiscordError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # every bad input raises one of the above
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command-line interface.

Subcommands: ``simulate`` (one path as CSV), ``exact`` (final-size
distribution as CSV), ``estimate`` (one experiment row), ``sweep`` (config
file to table CSV), and ``fig2`` (exact tail curve vs crude Monte-Carlo
across thresholds).  Exit code 0 on success, nonzero with a diagnostic line
on stderr otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import lockstep
from .core import (
    EventKind,
    HivParams,
    ReedFrostParams,
    Scaling,
    SeedSpec,
    SirParams,
)
from .estimators import _ensemble_fn
from .events import Duration
from .final_size import exact_final_size, tail_pf
from .harness import METHODS, parse_config_file, run, sweep, write_sweep_csv
from .splitting import VARIANTS

__all__ = ["main"]


@contextmanager
def _out_stream(path: str | None):
    """The file at ``path``, closed on exit, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as out:
        yield out


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=["sir", "rf", "hiv"], default="sir")
    parser.add_argument("--lam", type=float, help="infection coefficient")
    parser.add_argument("--gamma", type=float, help="removal rate (sir)")
    parser.add_argument("--scaling", choices=["mass_action", "unscaled"], default="mass_action")
    parser.add_argument("--n", type=int, default=None, help="population size (mass-action)")
    parser.add_argument("--q", type=float, help="escape probability (rf)")
    parser.add_argument("--gamma1", type=float, help="spontaneous detection rate (hiv)")
    parser.add_argument("--gamma2", type=float, help="contact-tracing coefficient (hiv)")
    parser.add_argument("--c", type=float, help="contact-tracing decay rate (hiv)")
    parser.add_argument("--s0", type=int, required=True)
    parser.add_argument("--i0", type=int, required=True)


def _model_from_args(args: argparse.Namespace):
    if args.model == "sir":
        if args.lam is None or args.gamma is None:
            raise ValueError("sir model needs --lam and --gamma")
        return SirParams(
            lam=args.lam, gamma=args.gamma, s0=args.s0, i0=args.i0,
            scaling=Scaling(args.scaling), n=args.n,
        )
    if args.model == "rf":
        if args.q is None:
            raise ValueError("rf model needs --q")
        return ReedFrostParams(q=args.q, s0=args.s0, i0=args.i0)
    if args.lam is None or args.gamma1 is None or args.gamma2 is None or args.c is None:
        raise ValueError("hiv model needs --lam, --gamma1, --gamma2 and --c")
    return HivParams(
        lam=args.lam, gamma1=args.gamma1, gamma2=args.gamma2, c=args.c,
        s0=args.s0, i0=args.i0,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    """One path of the lockstep engine: a Reed-Frost chain, or a jump-process
    path run to extinction or to ``--horizon``."""
    model = _model_from_args(args)
    if args.horizon is not None and not args.horizon >= 0:  # NaN too
        raise ValueError("horizon must be non-negative")
    if args.generations < 0:
        raise ValueError("generations must be non-negative")
    rng = SeedSpec(args.seed).generator()
    with _out_stream(args.out) as out:
        if isinstance(model, ReedFrostParams):
            S, I = lockstep.rf_chains(model, args.generations, 1, rng)
            out.write("generation,s,i\n")
            for gen, (s, i) in enumerate(zip(S[0], I[0])):
                out.write(f"{gen},{s},{i}\n")
        else:
            rows = []
            # Duration(0) is no event: a zero horizon stops the path at its start
            if args.horizon != 0:
                event = None if args.horizon is None else Duration(args.horizon)
                log = _ensemble_fn(model)(model, 1, rng, event, record=True).log
                rows = zip(log.t.tolist(), log.kind.tolist(), log.s.tolist(), log.i.tolist(),
                           log.r.tolist())
            start = lockstep.initial_row(model)
            out.write("time,kind,s,i,r\n")
            out.write(f"{0.0!r},INIT,{start.s},{start.i},{start.r}\n")
            for t, kind, s, i, r in rows:
                out.write(f"{t!r},{EventKind(kind).name},{s},{i},{r}\n")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    dist = exact_final_size(_model_from_args(args))
    with _out_stream(args.out) as out:
        out.write("k,probability\n")
        for k, prob in enumerate(dist):
            out.write(f"{k},{prob:.12e}\n")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    configs = parse_config_file(args.config)
    by_label = {config.label: config for config in configs}
    if args.section is not None:
        if args.section not in by_label:
            raise ValueError(f"no section '{args.section}' in {args.config}")
        config = by_label[args.section]
    elif len(configs) == 1:
        config = configs[0]
    else:
        raise ValueError("config has several sections; pick one with --section")
    config = _apply_overrides(config, args)
    row = run(config)
    with _out_stream(args.out) as out:
        write_sweep_csv([row], out, timing=args.timing)
    return 0


def _apply_overrides(config, args: argparse.Namespace):
    updates = {}
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if args.replications is not None:
        updates["replications"] = args.replications
    if args.method is not None:
        updates["method"] = args.method
    if args.keep_frac is not None:
        updates["keep_fraction"] = args.keep_frac
    if args.alpha is not None:
        updates["alpha"] = args.alpha
    if args.variant is not None:
        updates["variant"] = args.variant
    if args.restart_on_extinction is not None:
        updates["restart_on_extinction"] = args.restart_on_extinction
    return dataclasses.replace(config, **updates) if updates else config


def _cmd_sweep(args: argparse.Namespace) -> int:
    configs = parse_config_file(args.config)
    rows = sweep(configs)
    with _out_stream(args.out) as out:
        write_sweep_csv(rows, out, timing=args.timing)
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    """Exact tail curve vs crude Monte-Carlo for the (40, 1) benchmark."""
    if args.replicates < 1:
        raise ValueError("replicates must be positive")
    model = SirParams(lam=1.0, gamma=1.0, s0=40, i0=1, scaling=Scaling.MASS_ACTION, n=41)
    dist = exact_final_size(model)
    # One simulation batch serves every threshold: tail frequencies are all
    # computed from the same final sizes.
    rng = SeedSpec(args.seed).generator()
    ens = lockstep.sir_ensemble(model, args.replicates, rng)
    sizes = ens.r
    with _out_stream(args.out) as out:
        out.write("n_c,exact,cmc\n")
        for n_c in range(1, model.s0 + model.i0 + 1):
            exact = tail_pf(dist, model.i0, n_c)
            crude = float(np.mean(sizes >= n_c))
            out.write(f"{n_c},{exact:.6e},{crude:.6e}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epirare",
        description="Rare-event probability estimation for stochastic epidemic models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate one path and emit it as CSV")
    _add_model_flags(p_sim)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--generations", type=int, default=10, help="rf chain length")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_exact = sub.add_parser("exact", help="exact final-size distribution as CSV")
    p_exact.add_argument("--lam", type=float, required=True)
    p_exact.add_argument("--gamma", type=float, required=True)
    p_exact.add_argument("--s0", type=int, required=True)
    p_exact.add_argument("--i0", type=int, required=True)
    p_exact.add_argument("--scaling", choices=["mass_action", "unscaled"], default="mass_action")
    p_exact.add_argument("--n", type=int, default=None)
    p_exact.add_argument("--out", default=None)
    p_exact.set_defaults(func=_cmd_exact, model="sir")

    p_est = sub.add_parser("estimate", help="run one experiment from a config file")
    p_est.add_argument("--config", required=True)
    p_est.add_argument("--section", default=None)
    p_est.add_argument("--seed", type=int, default=None)
    p_est.add_argument("--replications", type=int, default=None)
    p_est.add_argument("--method", choices=METHODS, default=None)
    p_est.add_argument("--keep-frac", type=float, default=None)
    p_est.add_argument("--alpha", type=float, default=None)
    p_est.add_argument("--variant", choices=VARIANTS, default=None)
    p_est.add_argument("--restart-on-extinction", type=int, default=None, metavar="MAX_TRIES")
    p_est.add_argument("--timing", action="store_true", help="fill the wall_seconds column")
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(func=_cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="run every experiment in a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--timing", action="store_true", help="fill the wall_seconds column")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig2 = sub.add_parser("fig2", help="exact vs crude Monte-Carlo tail curves, (40,1) benchmark")
    p_fig2.add_argument("--seed", type=int, default=0)
    p_fig2.add_argument("--replicates", type=int, default=10_000)
    p_fig2.add_argument("--out", default=None)
    p_fig2.set_defaults(func=_cmd_fig2)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point stdout at devnull so
        # the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # diagnostic line, nonzero exit
        print(f"epirare: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success (and gates passed), 2 a gate failed, 1 runtime error,
64 usage error. All output is deterministic: same flags and seed give
byte-identical bytes, because every random draw is keyed by the seed and
the run parameters, floats are printed with repr, and no timestamps are
ever written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import counterexample as cx
from . import diagnostics, experiments, kernels, rkhs
from .errors import GmequivError
from .fourier import ClassSpec, FourierFunction, function_from_spec
from .samples import DEFAULT_GRID_DENSITY

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GATE = 2
EXIT_USAGE = 64

DEFAULT_RATE_TARGETS = {
    # (statistic, family) -> (target slope, margin, mode). The first two
    # target n^-2, the rate of the unweighted gap (1/n) sum d_i^2; the
    # weighted statistics swept here decay like n^-1, so a default run
    # exits 2 and shows that slope. The projection statistic sweeps
    # sqrt(n D_n), whose expected decay is half the D_n exponent.
    ("discretization", "single-freq"): (-2.0, 0.3, "two-sided"),
    ("kl", "single-freq"): (-2.0, 0.3, "two-sided"),
    ("projection", "single-freq"): (-0.5, 0.3, "two-sided"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_n_arg(text: str) -> list[int]:
    """'64' -> [64]; '16..512' -> doubling grid; '4,8,12' -> the list."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo < 1 or hi < lo:
            raise ValueError(f"bad range {text!r}")
        out = []
        n = lo
        while n <= hi:
            out.append(n)
            n *= 2
        return out
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return [int(text)]


def _kernel_from_text(text: str, validate: bool = True) -> kernels.GaussMarkovKernel:
    """Accepts a preset name ('bm', 'ou(0.5)'), inline JSON, or a JSON file path."""
    text = text.strip()
    if not text.startswith("{") and os.path.exists(text):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read().strip()
    if text.startswith("{"):
        spec = json.loads(text)
        if "preset" in spec or validate:
            return kernels.kernel_from_spec(spec)
        return kernels.make_kernel(spec.get("name", "custom"), spec["u"], spec["v"],
                                   validate=False)
    return kernels.parse_preset_arg(text)


def _kernel_from_args(args) -> kernels.GaussMarkovKernel:
    text = getattr(args, "kernel", None) or getattr(args, "preset", None) or "bm"
    return _kernel_from_text(text)


def _fn_from_args(args) -> FourierFunction:
    if getattr(args, "fn", None):
        return function_from_spec(args.fn)
    return FourierFunction.harmonic(1, 1.0)


def _emit(rows: list[dict], meta: dict, args) -> None:
    fmt = getattr(args, "format", None) or "csv"
    out_path = getattr(args, "out", None)
    if fmt == "json":
        text = json.dumps({"meta": meta, "rows": rows}, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"# {key}={meta[key]}" for key in sorted(meta)]
        if rows:
            header = list(rows[0].keys())
            lines.append(",".join(header))
            for row in rows:
                lines.append(",".join(str(row[key]) for key in header))
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    kernel = _kernel_from_args(args)
    fn = _fn_from_args(args)
    grid_size = None
    if args.grid_density is not None:
        grid_size = args.grid_density * args.n + 1
    meta = {
        "command": "simulate", "experiment": args.exp, "kernel": kernel.name,
        "fn": fn.name, "n": args.n, "seed": args.seed,
    }
    if args.exp in ("e1", "e1prime"):
        variant = "original" if args.exp == "e1" else "cell_averaged"
        sample = experiments.simulate_e1(kernel, fn, args.n, args.seed, variant=variant)
        meta["variant"] = variant
        rows = [
            {"i": i + 1, "t": (i + 1) / args.n, "value": float(v)}
            for i, v in enumerate(sample.values)
        ]
    elif args.exp == "e2":
        sample = experiments.simulate_e2(kernel, fn, args.n, args.seed, grid_size=grid_size)
        meta["grid_size"] = sample.grid.size
        rows = [{"t": float(t), "value": float(v)} for t, v in zip(sample.grid, sample.values)]
    elif args.exp == "kriging-path":
        sample = experiments.kriging_path_experiment(kernel, fn, args.n, args.seed, grid_size=grid_size)
        meta["grid_size"] = sample.grid.size
        rows = [{"t": float(t), "value": float(v)} for t, v in zip(sample.grid, sample.values)]
    else:  # increments
        xi = experiments.simulate_increments(kernel, args.n, args.seed)
        rows = [{"i": i + 1, "value": float(v)} for i, v in enumerate(xi)]
    _emit(rows, meta, args)
    return EXIT_OK


def _cmd_rates(args) -> int:
    kernel = _kernel_from_args(args)
    if args.family == "single-freq":
        family = diagnostics.single_frequency_family(k=args.k)
    else:
        spec = ClassSpec.sobolev(args.beta, args.L)
        if args.family == "sobolev":
            family = diagnostics.class_extremal_family(spec, seed=args.seed)
        else:
            family = diagnostics.random_family(spec, seed=args.seed)
    target, margin, mode = args.target, args.margin, "two-sided"
    if target is None:
        default = DEFAULT_RATE_TARGETS.get((args.stat, args.family))
        if default is not None:
            target, default_margin, mode = default
            if margin is None:
                margin = default_margin
    report = diagnostics.rate_sweep(
        args.stat, kernel, family,
        n_grid=_parse_n_arg(args.n), target=target,
        margin=margin if margin is not None else 0.3, mode=mode,
    )
    for line in report.lines():
        print(line)
    if report.passed is False:
        return EXIT_GATE
    return EXIT_OK


def _cmd_kriging(args) -> int:
    kernel = _kernel_from_args(args)
    fn = _fn_from_args(args)
    n = args.n
    knots = np.arange(1, n + 1) / n
    y = np.asarray(fn.antiderivative(knots))
    density = args.grid_density if args.grid_density is not None else DEFAULT_GRID_DENSITY
    grid = np.arange(density * n + 1) / (density * n)
    fast = rkhs.kriging_interpolate(kernel, y, grid)
    meta = {
        "command": "kriging", "kernel": kernel.name, "fn": fn.name,
        "n": n, "grid_size": grid.size,
    }
    knot_idx = (np.arange(1, n + 1) * density).astype(int)
    meta["max_knot_deviation"] = repr(float(np.max(np.abs(fast[knot_idx] - y))))
    if n <= 64:
        dense = rkhs.kriging_interpolate_dense(kernel, y, grid)
        meta["max_oracle_deviation"] = repr(float(np.max(np.abs(fast - dense))))
        rows = [
            {"t": float(t), "interpolant": float(a), "oracle": float(b)}
            for t, a, b in zip(grid, fast, dense)
        ]
    else:
        rows = [{"t": float(t), "interpolant": float(a)} for t, a in zip(grid, fast)]
    _emit(rows, meta, args)
    return EXIT_OK


def _cmd_kl(args) -> int:
    kernel = _kernel_from_args(args)
    fn = _fn_from_args(args)
    rows = []
    for n in _parse_n_arg(args.n):
        chain = diagnostics.kl_chain(kernel, fn, n)
        dense = diagnostics.kl_dense(kernel, fn, n)
        seq = diagnostics.kl_sequential(kernel, fn, n)
        rows.append({
            "n": n,
            "chain": repr(chain),
            "dense": repr(dense),
            "sequential": repr(seq),
            "chain_minus_dense": repr(chain - dense),
            "sequential_minus_dense": repr(seq - dense),
        })
    meta = {"command": "kl", "kernel": kernel.name, "fn": fn.name}
    _emit(rows, meta, args)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    fn = _fn_from_args(args)
    rows = []
    for n in _parse_n_arg(args.n):
        dec = diagnostics.band_split_decomposition(fn, n)
        rows.append({
            "n": n,
            "a_sum": repr(dec.a_sum),
            "b_sum": repr(dec.b_sum),
            "c_sum": repr(dec.c_sum),
            "total_gap_sq": repr(dec.total_gap_sq),
            "parseval_residual": repr(dec.parseval_residual),
            "bound_holds": dec.bound_holds,
        })
    meta = {"command": "decompose", "fn": fn.name, "cutoff": "n"}
    _emit(rows, meta, args)
    return EXIT_OK


def _cmd_transform(args) -> int:
    kernel = _kernel_from_args(args)
    fn = _fn_from_args(args)
    rows = []
    for n in _parse_n_arg(args.n):
        value = diagnostics.transformation_discrepancy(kernel, fn, n)
        rows.append({"n": n, "statistic": repr(value)})
    meta = {
        "command": "transform", "kernel": kernel.name, "fn": fn.name,
        "note": "second-derivative regularity is not checked; first-order data only",
    }
    _emit(rows, meta, args)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    reports = [
        cx.indistinguishability_check(n, beta=args.beta, L=args.L, seed=args.seed,
                                      mc_paths=args.paths)
        for n in _parse_n_arg(args.n)
    ]
    if (getattr(args, "format", None) or "text") == "json":
        payload = json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.out}")
        else:
            print(payload)
    else:
        for report in reports:
            for line in report.lines():
                print(line)
    if not all(r.passed for r in reports):
        return EXIT_GATE
    return EXIT_OK


def _cmd_validate(args) -> int:
    text = getattr(args, "kernel", None) or getattr(args, "preset", None) or "bm"
    kernel = _kernel_from_text(text, validate=False)
    report = kernels.validate_assumption(kernel, grid_size=args.grid)
    for line in report.lines():
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gmequiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fn_flag=True, kernel_flags=True, out_flags=True):
        if kernel_flags:
            p.add_argument("--preset", help="kernel preset: bm, ou, ou(L), bridge, slepian")
            p.add_argument("--kernel", help="kernel JSON (inline or a file path)")
        if fn_flag:
            p.add_argument("--fn", help="function JSON {'coeffs': [[k, re, im], ...]} "
                                        "(inline or a file path); default cos(2 pi x)")
        p.add_argument("--seed", type=int, default=0)
        if out_flags:
            p.add_argument("--out", help="output file (default stdout)")
            p.add_argument("--format", choices=("csv", "json"), help="output format")

    p = sub.add_parser("simulate", help="draw one experiment sample")
    p.add_argument("--exp", choices=("e1", "e1prime", "e2", "kriging-path", "increments"),
                   default="e2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid-density", type=int, help=f"path grid has density*n+1 points (default {DEFAULT_GRID_DENSITY})")
    add_common(p)
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("rates", help="rate sweep with a slope gate")
    p.add_argument("--stat", choices=sorted(diagnostics.STATISTICS), required=True)
    p.add_argument("--family", choices=("single-freq", "sobolev", "random"),
                   default="single-freq")
    p.add_argument("--k", type=int, default=1, help="frequency for single-freq family")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--n", default="16..512", help="n grid, e.g. 16..512 or 8,16,32")
    p.add_argument("--target", type=float, help="slope gate; defaults depend on the statistic")
    p.add_argument("--margin", type=float)
    add_common(p, fn_flag=False, out_flags=False)
    p.set_defaults(run=_cmd_rates)

    p = sub.add_parser("kriging", help="interpolation curve and oracle comparison")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid-density", type=int)
    add_common(p)
    p.set_defaults(run=_cmd_kriging)

    p = sub.add_parser("kl", help="chain KL against the dense and sequential oracles")
    p.add_argument("--n", default="2..8")
    add_common(p)
    p.set_defaults(run=_cmd_kl)

    p = sub.add_parser("decompose", help="band decomposition at cutoff n")
    p.add_argument("--n", default="16..512")
    add_common(p, kernel_flags=False)
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("transform", help="decoupling-transform discrepancy per n")
    p.add_argument("--n", default="16..512")
    add_common(p)
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("counterexample", help="verify the non-equivalence premises")
    p.add_argument("--n", default="4,8,16,32")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=100_000, help="Monte Carlo paths")
    add_common(p, fn_flag=False, kernel_flags=False)
    p.set_defaults(run=_cmd_counterexample)

    p = sub.add_parser("validate", help="check the kernel shape assumption on a grid")
    p.add_argument("--grid", type=int, default=1001)
    add_common(p, fn_flag=False, out_flags=False)
    p.set_defaults(run=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except GmequivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

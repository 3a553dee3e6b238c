"""Command-line interface.

Exit codes: 0 success (and gates passed), 2 a gate failed, 1 runtime error,
64 usage error. All output is deterministic: same flags and seed give
byte-identical bytes, because every random draw is keyed by the seed and
the run parameters, floats are printed with repr, and no timestamps are
ever written.

Each subcommand imports only the modules it runs, inside its handler, so a
process pays the import cost of one command, not of the whole package.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

# OpenBLAS starts one worker per core when numpy loads, and the workers
# spin before they sleep, yet no command does BLAS work large enough to
# gain from a second thread. So a process that reaches this line before
# numpy loads (the command line does, since `import gmequiv` loads no
# submodule) runs BLAS on one thread, unless its user chose a count: the
# process stays at one OS thread and skips the pool's start-up. The output
# does not rest on it; the dense oracles run their BLAS on the calling
# thread under any count (kernels.serial_blas).
if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from . import kernels
from .errors import GmequivError
from .samples import (
    DEFAULT_GRID_DENSITY,
    block_rows,
    check_grid_points,
    design_knots,
    knot_stride,
    path_grid,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GATE = 2
EXIT_USAGE = 64

DEFAULT_RATE_TARGETS = {
    # (statistic, family) -> target slope. The first two target n^-2, the
    # rate of the unweighted gap (1/n) sum d_i^2; the weighted statistics
    # swept here decay like n^-1, so a default run exits 2 and shows that
    # slope. The projection statistic sweeps sqrt(n D_n), whose expected
    # decay is half the D_n exponent.
    ("discretization", "single-freq"): -2.0,
    ("kl", "single-freq"): -2.0,
    ("projection", "single-freq"): -0.5,
}

# sorted(diagnostics.STATISTICS), written out so that building the parser
# does not import diagnostics; a test keeps the two equal
STATISTIC_CHOICES = ("band_terms", "discretization", "kl", "projection", "transformation")

# the flags each rates family reads, with their defaults; a flag that the
# chosen family would ignore is a usage error
FAMILY_FLAGS = {
    "single-freq": {"k": 1},
    "sobolev": {"beta": 1.0, "L": 1.0, "seed": 0},
    "random": {"beta": 1.0, "L": 1.0, "seed": 0},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_n_arg(text: str) -> list[int]:
    """'64' -> [64]; '16..512' -> doubling grid; '4,8,12' -> the list.
    Any other text raises one ValueError quoting it, before any n runs: an
    empty item (',', '4,,8', '' or the bound of '16..'), an item that is not
    an integer ('4.5', '4,x'), an n below 1 in either form ('4,0', '0..4')
    or a range that runs down."""
    text = text.strip()
    ranged = ".." in text
    try:
        ns = [int(item) for item in (text.split("..", 1) if ranged else text.split(","))]
    except ValueError:
        ns = []
    if not ns or min(ns) < 1 or (ranged and ns[0] > ns[1]):
        raise ValueError(f"--n {text!r} is not an n, a list a,b,c or a range lo..hi "
                         f"with every n >= 1 and lo <= hi")
    if not ranged:
        return ns
    out = [ns[0]]
    while 2 * out[-1] <= ns[1]:
        out.append(2 * out[-1])
    return out


def _kernel_from_args(args, validate: bool = True) -> kernels.GaussMarkovKernel:
    spec = next(text for text in (args.kernel, args.preset, "bm") if text is not None)
    return kernels.kernel_from_spec(spec, validate=validate)


def _fn_from_args(args) -> FourierFunction:
    from .fourier import FourierFunction, function_from_spec

    if args.fn is not None:
        return function_from_spec(args.fn)
    return FourierFunction.harmonic(1, 1.0)


def _design_ns(text: str, transform: bool = False) -> list[int]:
    """The n list of --n text, refused as a whole, before any n runs, when
    the design grid path_grid(n, n + 1) of its largest n would pass
    MAX_GRID_POINTS, or, with transform, the grid design_knots(n + 1) of
    the transformation discrepancy's plotting points."""
    ns = _parse_n_arg(text)
    check_grid_points(max(ns) + 1)
    if transform:
        check_grid_points(max(ns) + 2)
    return ns


@contextlib.contextmanager
def _output(args):
    """The --out file, reported on stdout once it is written, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w", encoding="utf-8") as handle:
        yield handle
    print(f"wrote {args.out}")


def _emit(columns: tuple[str, ...], rows, meta: dict, args) -> None:
    """Write meta and the rows, tuples of values in `columns` order, as CSV
    or as the text of json.dumps({"meta": meta, "rows": [one dict per row]},
    sort_keys=True, indent=2). Rows are read, converted and written
    block_rows(len(columns)) at a time, so a lazy iterable of rows never
    exists whole as Python objects or text."""
    rows, size = iter(rows), block_rows(len(columns))
    # lists of the next `size` rows, up to the first empty one
    blocks = iter(lambda: list(itertools.islice(rows, size)), [])
    with _output(args) as out:
        if args.format == "json":
            # the text of each block, one level deeper, where the head's
            # empty list stands: '"rows": [' ends the head without its ']\n}'
            encoder = json.JSONEncoder(sort_keys=True, indent=2)
            out.write(encoder.encode({"meta": meta, "rows": []})[:-3])
            separator = ""
            for block in blocks:
                text = encoder.encode([dict(zip(columns, row)) for row in block])
                out.write(separator + text[1:-2].replace("\n", "\n  "))
                separator = ","
            out.write("\n  ]\n}\n" if separator else "]\n}\n")
        else:
            out.write("".join(f"# {key}={meta[key]}\n" for key in sorted(meta)))
            header = ",".join(columns) + "\n"
            for block in blocks:
                out.write(header + "".join(",".join(map(str, row)) + "\n" for row in block))
                header = ""


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    from . import experiments

    kernel = _kernel_from_args(args)
    fn = _fn_from_args(args)
    grid_size = args.grid_density * args.n + 1
    meta = {
        "command": "simulate", "experiment": args.exp, "kernel": kernel.name,
        "fn": fn.name, "n": args.n, "seed": args.seed,
    }
    if args.exp in ("e1", "e1prime"):
        variant = "original" if args.exp == "e1" else "cell_averaged"
        sample = experiments.simulate_e1(kernel, fn, args.n, args.seed, variant=variant)
        meta["variant"] = variant
        columns = ("i", "t", "value")
        rows = ((i, i / args.n, v) for i, v in enumerate(map(float, sample.values), 1))
    elif args.exp in ("e2", "kriging-path"):
        run = experiments.simulate_e2 if args.exp == "e2" else experiments.kriging_path_experiment
        sample = run(kernel, fn, args.n, args.seed, grid_size=grid_size)
        meta["grid_size"] = sample.grid.size
        columns = ("t", "value")
        rows = zip(map(float, sample.grid), map(float, sample.values))
    else:  # increments
        xi = experiments.simulate_increments(kernel, args.n, args.seed)
        columns = ("i", "value")
        rows = enumerate(map(float, xi), 1)
    _emit(columns, rows, meta, args)
    return EXIT_OK


def _cmd_rates(args) -> int:
    from . import diagnostics
    from .fourier import ClassSpec

    kernel = _kernel_from_args(args)
    ns = _design_ns(args.n, transform=args.stat == "transformation")
    if args.family == "single-freq":
        family = diagnostics.single_frequency_family(k=args.k)
    else:
        diagnostics.check_family_n(max(ns))  # the whole list, before the first n runs
        spec = ClassSpec.sobolev(args.beta, args.L)
        if args.family == "sobolev":
            family = diagnostics.class_extremal_family(spec, seed=args.seed)
        else:
            family = diagnostics.random_family(spec, seed=args.seed)
    target = DEFAULT_RATE_TARGETS.get((args.stat, args.family)) if args.target is None else args.target
    margin = {} if args.margin is None else {"margin": args.margin}
    report = diagnostics.rate_sweep(
        args.stat, kernel, family, n_grid=ns, target=target, **margin,
    )
    for line in report.lines():
        print(line)
    if report.passed is False:
        return EXIT_GATE
    return EXIT_OK


def _cmd_kriging(args) -> int:
    from . import rkhs

    kernel = _kernel_from_args(args)
    fn = _fn_from_args(args)
    n = args.n
    grid = path_grid(n, args.grid_density * n + 1)
    stride = knot_stride(n, grid.size)
    y = np.asarray(fn.antiderivative(design_knots(n)))
    fast = rkhs.kriging_interpolate(kernel, y, grid)
    meta = {
        "command": "kriging", "kernel": kernel.name, "fn": fn.name,
        "n": n, "grid_size": grid.size,
    }
    meta["max_knot_deviation"] = repr(float(np.max(np.abs(fast[stride::stride] - y))))
    if n <= 64:
        dense = rkhs.kriging_interpolate_dense(kernel, y, grid)
        meta["max_oracle_deviation"] = repr(float(np.max(np.abs(fast - dense))))
        columns = ("t", "interpolant", "oracle")
        rows = zip(map(float, grid), map(float, fast), map(float, dense))
    else:
        columns = ("t", "interpolant")
        rows = zip(map(float, grid), map(float, fast))
    _emit(columns, rows, meta, args)
    return EXIT_OK


def _cmd_kl(args) -> int:
    from . import diagnostics

    kernel = _kernel_from_args(args)
    fn = _fn_from_args(args)
    ns = _design_ns(args.n)
    diagnostics.check_dense_kl_n(max(ns))  # the whole list, before the first n runs
    rows = []
    for n in ns:
        chain = diagnostics.kl_chain(kernel, fn, n)
        dense = diagnostics.kl_dense(kernel, fn, n)
        seq = diagnostics.kl_sequential(kernel, fn, n)
        rows.append((n, repr(chain), repr(dense), repr(seq), repr(chain - dense), repr(seq - dense)))
    meta = {"command": "kl", "kernel": kernel.name, "fn": fn.name}
    columns = ("n", "chain", "dense", "sequential", "chain_minus_dense", "sequential_minus_dense")
    _emit(columns, rows, meta, args)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    from . import diagnostics

    fn = _fn_from_args(args)
    rows = []
    for n in _design_ns(args.n):
        dec = diagnostics.band_split_decomposition(fn, n)
        rows.append((n, repr(dec.a_sum), repr(dec.b_sum), repr(dec.c_sum),
                     repr(dec.total_gap_sq), repr(dec.parseval_residual), dec.bound_holds))
    meta = {"command": "decompose", "fn": fn.name, "cutoff": "n"}
    columns = ("n", "a_sum", "b_sum", "c_sum", "total_gap_sq", "parseval_residual", "bound_holds")
    _emit(columns, rows, meta, args)
    return EXIT_OK


def _cmd_transform(args) -> int:
    from . import diagnostics

    kernel = _kernel_from_args(args)
    fn = _fn_from_args(args)
    rows = [(n, repr(diagnostics.transformation_discrepancy(kernel, fn, n)))
            for n in _design_ns(args.n, transform=True)]
    meta = {
        "command": "transform", "kernel": kernel.name, "fn": fn.name,
        "note": "second-derivative regularity is not checked; first-order data only",
    }
    _emit(("n", "statistic"), rows, meta, args)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    from . import counterexample as cx

    ns = _parse_n_arg(args.n)
    cx.check_ns(ns)
    reports = [
        cx.indistinguishability_check(n, beta=args.beta, L=args.L, seed=args.seed,
                                      mc_paths=args.paths)
        for n in ns
    ]
    if args.format == "json":
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(f"{line}\n" for report in reports for line in report.lines())
    with _output(args) as out:
        out.write(text)
    if not all(r.passed for r in reports):
        return EXIT_GATE
    return EXIT_OK


def _cmd_validate(args) -> int:
    kernel = _kernel_from_args(args, validate=False)
    report = kernels.validate_assumption(kernel, grid_size=args.grid)
    for line in report.lines():
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gmequiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fn_flag=True, kernel_flags=True, formats=("csv", "json")):
        if kernel_flags:
            kernel_group = p.add_mutually_exclusive_group()
            kernel_group.add_argument("--preset",
                                      help="kernel preset: bm, ou, ou(L), bridge, slepian")
            kernel_group.add_argument("--kernel", help="kernel JSON (inline or a file path)")
        if fn_flag:
            p.add_argument("--fn", help="function JSON {'coeffs': [[k, re, im], ...]} "
                                        "(inline or a file path); default cos(2 pi x)")
        if formats:
            p.add_argument("--out", help="output file (default stdout)")
            p.add_argument("--format", choices=formats, default=formats[0],
                           help=f"output format (default {formats[0]})")

    p = sub.add_parser("simulate", help="draw one experiment sample")
    p.add_argument("--exp", choices=("e1", "e1prime", "e2", "kriging-path", "increments"),
                   default="e2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid-density", type=int, default=DEFAULT_GRID_DENSITY,
                   help=f"path grid has density*n+1 points (default {DEFAULT_GRID_DENSITY})")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("rates", help="rate sweep with a slope gate")
    p.add_argument("--stat", choices=STATISTIC_CHOICES, required=True)
    p.add_argument("--family", choices=tuple(FAMILY_FLAGS), default="single-freq")
    p.add_argument("--k", type=int, help="frequency for single-freq family (default 1)")
    p.add_argument("--beta", type=float, help="sobolev and random families (default 1)")
    p.add_argument("--L", type=float, help="sobolev and random families (default 1)")
    p.add_argument("--n", default="16..512", help="n grid, e.g. 16..512 or 8,16,32")
    p.add_argument("--target", type=float, help="slope gate; defaults depend on the statistic")
    p.add_argument("--margin", type=float)
    p.add_argument("--seed", type=int, help="seed of the sobolev and random families (default 0)")
    add_common(p, fn_flag=False, formats=None)
    p.set_defaults(run=_cmd_rates)

    p = sub.add_parser("kriging", help="interpolation curve and oracle comparison")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid-density", type=int, default=DEFAULT_GRID_DENSITY)
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
    p.add_argument("--seed", type=int, default=0)
    add_common(p, fn_flag=False, kernel_flags=False, formats=("text", "json"))
    p.set_defaults(run=_cmd_counterexample)

    p = sub.add_parser("validate", help="check the kernel shape assumption on a grid")
    p.add_argument("--grid", type=int, default=kernels.VALIDATION_GRID)
    add_common(p, fn_flag=False, formats=None)
    p.set_defaults(run=_cmd_validate)

    return parser


def _check_family_flags(args, parser: _Parser) -> None:
    """Refuse a rates flag that the chosen family would ignore, and fill in
    the defaults of the flags it reads."""
    reads = FAMILY_FLAGS[args.family]
    every_flag = dict.fromkeys(dest for flags in FAMILY_FLAGS.values() for dest in flags)
    ignored = [f"--{dest}" for dest in every_flag
               if dest not in reads and getattr(args, dest) is not None]
    if ignored:
        parser.error(f"rates --family {args.family} does not read {', '.join(ignored)}")
    for dest, default in reads.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "rates":
            _check_family_flags(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (GmequivError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: deterministic CSV/JSON reports over the catalog
and over user-supplied system files."""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import sys as _sys

import numpy as np

from . import geometry, rational as rat, spectrum, transfer
from .system import (DEFAULT_N_CHECK, SIDES, AffineSystem, eiffel_system, get_system,
                     load_system_file, system_to_json, two_digit_system, validate_system)

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_USAGE = 2

GRID_RESOLUTIONS = {1: 64, 2: 48, 3: 24}
JSON_BATCH = 1 << 14        # JSON encoder chunks joined into one write


def fmt(x) -> str:
    return f"{float(x):.17g}"


def fmt_rows(template: str, table: np.ndarray) -> str:
    """The rows of a 2-D array as lines joined by newlines, each `template`
    %-formatted with the row's values in one formatting call for the whole
    table: a `%.17g` field prints what `fmt` prints, and a `%d` field needs
    integral values."""
    return "\n".join([template] * len(table)) % tuple(table.ravel().tolist())


def _write(args, lines) -> None:
    """Write the lines of an iterable, each ended by a newline, to --out or
    stdout, one at a time."""
    _write_text(args, (line + "\n" for line in lines))


def _write_text(args, pieces) -> None:
    """Write the text pieces of an iterable to --out or stdout, one at a time."""
    if args.out:
        with open(args.out, "w") as out:
            out.writelines(pieces)
    else:
        _sys.stdout.writelines(pieces)


def _json_text(doc):
    """The text of json.dumps(doc, indent=2, default=str) and a newline, in
    pieces of JSON_BATCH encoder chunks each, so no list of every chunk of a
    large document (about 3 M for the 1024^2 Gram moduli) is held."""
    chunks = json.JSONEncoder(indent=2, default=str).iterencode(doc)
    while batch := list(itertools.islice(chunks, JSON_BATCH)):
        yield "".join(batch)
    yield "\n"


def _emit(args, header: dict, rows: list, columns: list, json_payload: dict) -> None:
    """Write CSV rows (with a config-echo comment) or the JSON payload."""
    if args.format == "json":
        _write_text(args, _json_text({"config": header, **json_payload}))
    else:
        _write(args, _csv_head(header, columns)
               + [",".join(str(c) for c in row) for row in rows])


def _csv_head(header: dict, columns: list) -> list:
    """The config-echo comment and the column line of a CSV report."""
    echo = " ".join(f"{k}={v}" for k, v in header.items())
    return [f"# fracspec {echo}", ",".join(columns)]


def _load(args) -> AffineSystem:
    # the parser takes exactly one of --system and --file
    if args.file is not None:
        try:
            return load_system_file(args.file)
        except FileNotFoundError as exc:
            raise ValueError(f"system file not found: {exc}") from exc
        except ValueError as exc:       # json.JSONDecodeError among them
            raise ValueError(f"cannot parse system file: {exc}") from exc
    try:
        return get_system(args.system)
    except KeyError as exc:
        raise ValueError(str(exc.args[0])) from exc


# The usability gate of the analysis commands; --force bypasses it.
# Compatibility is deliberately not gated: systems that break it (the triadic
# one, odd tower scales) are the counterexamples the analyses are for.
# `validate` and `report` never gate; `validate` still treats compatibility as
# mandatory for its own exit status.  `q1` refuses a system without 0 in L,
# --force or not: its Q1 levels R*^k L (`spectrum.layer_digits`) put 0 first.
GATE_AXIOMS = ("zero_in_B", "zero_in_L", "expansive", "hadamard")
UNGATED = ("validate", "report")
# `validate` reports every axiom and `spectrum` only enumerates P(L); every
# other command needs word maps that contract, so it refuses a non-expansive
# R, --force or not, before any hull, transform or attractor is built.
ANY_R = ("validate", "spectrum")


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args, sys_obj: AffineSystem, validation) -> int:
    header = {"command": "validate", "system": sys_obj.name, "n_check": DEFAULT_N_CHECK}
    payload = {"system": system_to_json(sys_obj), "validation": validation.to_dict()}
    if args.format == "json":
        _emit(args, header, [], [], json_payload=payload)
    else:
        _write(args, [f"validation of {sys_obj.name} (n_check={DEFAULT_N_CHECK}):"]
               + validation.summary_lines())
    return EXIT_OK if validation.passed else EXIT_CLAIM


def cmd_spectrum(args, sys_obj: AffineSystem, validation) -> int:
    enum = spectrum.enumerate_P(sys_obj, args.depth)
    cols = [f"t{i + 1}" for i in range(sys_obj.dim)] + ["digits"]
    label = {l: ",".join(map(rat.format_fraction, l)) for l in sys_obj.L}
    rows = [[*map(rat.format_fraction, p), "|".join([label[d] for d in word]) or "0"]
            for p, word in enum.points]
    header = {"command": "spectrum", "system": sys_obj.name, "depth": args.depth,
              "collisions": enum.collision_count}
    _emit(args, header, rows, cols, json_payload={"columns": cols, "rows": rows})
    return EXIT_OK


def cmd_gram(args, sys_obj: AffineSystem, validation) -> int:
    if args.count < 2:
        raise ValueError("gram needs at least two points")
    if sys_obj.N == 1:
        raise ValueError("a one-digit system has a single spectrum point and no Gram pair")
    spectrum.check_gram_count(args.count)
    depth = 0
    while sys_obj.N ** depth < args.count:
        depth += 1
    enum = spectrum.enumerate_P(sys_obj, depth)
    pts = enum.coords()[:args.count]
    rep = spectrum.gram_matrix(sys_obj, pts)
    header = {"command": "gram", "system": sys_obj.name, "count": args.count,
              "max_offdiag": fmt(rep.max_offdiag), "tail_bound": fmt(rep.tail_bound)}
    G = rep.matrix
    if args.format == "json":
        payload = {"points": [[rat.format_fraction(c) for c in p] for p in pts],
                   "max_offdiag": rep.max_offdiag,
                   "worst_pair": [[float(c) for c in p] for p in rep.worst_pair],
                   "tail_bound": rep.tail_bound, "matrix_abs": rep.moduli.tolist()}
        _emit(args, header, [], [], json_payload=payload)
        return EXIT_OK
    # one block of lines per row of G, each formatted in one call as it is written
    j = np.arange(len(G))
    blocks = (fmt_rows("%d,%d,%.17g,%.17g,%.17g",
                       np.column_stack([np.full(len(G), i), j, g.real, g.imag, a]))
              for i, (g, a) in enumerate(zip(G, rep.moduli)))
    _write(args, itertools.chain(_csv_head(header, ["i", "j", "re", "im", "abs"]), blocks))
    return EXIT_OK


def cmd_q1(args, sys_obj: AffineSystem, validation) -> int:
    p_depth = args.p_depth if args.p_depth is not None else spectrum.q1_depth(sys_obj)
    hull = geometry.dual_hull(sys_obj)
    res = args.resolution
    if res is None:
        res = {1: 33, 2: 9, 3: 5}.get(sys_obj.dim, 5)
    grid = hull.sample(res)
    rep = spectrum.completeness_test(sys_obj, grid, eps_conv=args.tol,
                                     p_depth_cap=p_depth)
    prof = rep.profile
    cols = [f"t{i + 1}" for i in range(sys_obj.dim)] + ["partial_sum", "increment", "p_depth"]
    rows = [[fmt(c) for c in np.atleast_1d(t)] + [fmt(v), fmt(inc), prof.depth]
            for t, v, inc in zip(grid, prof.values(), prof.last_increments())]
    header = {"command": "q1", "system": sys_obj.name, "p_depth": p_depth,
              "eps_conv": args.tol, "verdict": rep.verdict}
    payload = {"verdict": rep.verdict, "p_depth": prof.depth,
               "grad_at_zero": [float(g) for g in rep.grad_at_zero],
               "values": [float(v) for v in prof.values()],
               "rows": rows, "columns": cols}
    _emit(args, header, rows, cols, json_payload=payload)
    return EXIT_OK


def cmd_transfer(args, sys_obj: AffineSystem, validation) -> int:
    res = args.resolution
    if res is None:
        res = GRID_RESOLUTIONS.get(sys_obj.dim, 16)
    frame = transfer.grid_frame(sys_obj, res)
    Q0 = frame.quadratic_bump()
    result = transfer.iterate_fixed_point(sys_obj, Q0, max_iters=args.max_iters,
                                          tol=args.tol)
    if args.dump_grid:
        # (ambient coords..., value) per node, in one formatting call
        table = np.column_stack([result.final.node_points(), result.final.values.ravel()])
        with open(args.dump_grid, "w") as fh:
            fh.write(",".join([f"x{i + 1}" for i in range(sys_obj.dim)] + ["value"]) + "\n")
            fh.write(fmt_rows(",".join(["%.17g"] * table.shape[1]), table) + "\n")
    header = {"command": "transfer", "system": sys_obj.name, "resolution": res,
              "converged": result.converged, "diverged": result.diverged}
    cols = ["iter", "sup_residual"]
    rows = [[i + 1, fmt(r)] for i, r in enumerate(result.residuals)]
    payload = {"converged": result.converged, "diverged": result.diverged,
               "residuals": [float(r) for r in result.residuals],
               "final_deviation_from_one": float(np.abs(result.final.values - 1).max())}
    _emit(args, header, rows, cols, json_payload=payload)
    return EXIT_OK


def cmd_gamma(args, sys_obj: AffineSystem, validation) -> int:
    rep = transfer.gamma_supnorm(sys_obj)
    doc = rep.to_dict()
    # the closed form of a family member, whatever its name or digit order: the
    # tower eiffel(r), R = r I, and two_digit_system(R, b), b the nonzero point of B
    r, family = rat.scalar(sys_obj.R.entries), None
    if sys_obj.dim == 3 and r is not None and r.denominator == 1 and r >= 2:
        family, closed_form = eiffel_system(int(r)), transfer.gamma_eiffel
    if sys_obj.dim == 1 and sys_obj.N == 2 and r.denominator == 1 and abs(r) >= 2:
        b = max((p[0] for p in sys_obj.B), key=abs)
        family, closed_form = two_digit_system(int(r), b), transfer.gamma_1d
    if family is not None and (set(sys_obj.B), set(sys_obj.L)) == (set(family.B), set(family.L)):
        doc["gamma_closed_form"] = closed_form(int(r))
    header = {"command": "gamma", "system": sys_obj.name}
    rows = [[k, fmt(v)] for k, v in doc.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)]
    rows += [[f"norm_{k}", fmt(v)] for k, v in doc["norms"].items()]
    _emit(args, header, rows, ["constant", "value"], json_payload=doc)
    return EXIT_OK


def cmd_attractor(args, sys_obj: AffineSystem, validation) -> int:
    sample = geometry.attractor_points(sys_obj, args.side, args.depth)
    cols = [f"x{i + 1}" for i in range(sys_obj.dim)]
    # int / int rounds once, exactly as float(Fraction(n, scale)) does
    scale = sample.scale
    rows = [[fmt(n / scale) for n in p] for p in sample.lifted]
    header = {"command": "attractor", "system": sys_obj.name, "side": args.side,
              "depth": args.depth, "count": len(sample.lifted)}
    _emit(args, header, rows, cols, json_payload={"columns": cols, "rows": rows})
    return EXIT_OK


def cmd_report(args, sys_obj: AffineSystem, validation) -> int:
    claims = {"axioms": validation.passed}
    doc = {"system": system_to_json(sys_obj), "name": sys_obj.name,
           "validation": validation.to_dict()}

    depth = 3
    enum = spectrum.enumerate_P(sys_obj, depth)
    doc["spectrum"] = {
        "depth": depth,
        "collision_count": enum.collision_count,
        "count": len(enum.points),
        # one point (N = 1) has no gap: None, not an infinity JSON cannot hold
        "min_gap": (spectrum.uniform_discreteness(enum)
                    if enum.collision_count == 0 and 1 < len(enum.points) <= 1000 else None),
    }

    pts = enum.coords()[:16]
    gram = spectrum.gram_matrix(sys_obj, pts)
    claims["orthogonality"] = gram.max_offdiag <= 1e-7
    doc["gram"] = {"count": len(pts), "max_offdiag": gram.max_offdiag,
                   "worst_pair": [[rat.format_fraction(c) for c in p] for p in gram.worst_pair],
                   "tail_bound": gram.tail_bound}

    hull = geometry.dual_hull(sys_obj)
    grid = hull.sample({1: 17, 2: 5, 3: 3}.get(sys_obj.dim, 3))
    comp = spectrum.completeness_test(sys_obj, grid)
    doc["completeness"] = {
        "verdict": comp.verdict,
        "p_depth": comp.profile.depth,
        "min_value": float(comp.profile.values().min()),
        "max_value": float(comp.profile.values().max()),
        "grad_at_zero": [float(g) for g in comp.grad_at_zero],
    }

    gamma = transfer.gamma_supnorm(sys_obj)
    doc["contractivity"] = gamma.to_dict()

    inv = geometry.invariance_check(sys_obj, hull)
    claims["hull_invariance"] = inv.passed
    doc["geometry"] = {
        "hull_vertices": [[rat.format_fraction(c) for c in v] for v in hull.vertices],
        "hull_affine_dim": hull.affine_dim,
        "hull_volume": rat.format_fraction(geometry.hull_volume(hull)),
        "hausdorff_dimension": geometry.hausdorff_dimension(sys_obj),
        "invariance": inv.passed,
    }
    doc["claims"] = claims
    doc["claims_pass"] = all(claims.values())

    header = {"command": "report", "system": sys_obj.name,
              "claims_pass": doc["claims_pass"]}
    rows = [[k, v] for k, v in claims.items()]
    _emit(args, header, rows, ["claim", "pass"], json_payload=doc)
    return EXIT_OK if doc["claims_pass"] else EXIT_CLAIM


# ---------------------------------------------------------------------------

POSITIVE_OPTIONS = ("p_depth", "resolution", "max_iters")


def _check_options(args) -> None:
    """Reject numeric options out of range before any work: counts and
    depths below 1, and a convergence tolerance outside (0, inf)."""
    for name in POSITIVE_OPTIONS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError(f"--tol must be finite and > 0, got {tol}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, so every `main` call shares it."""
    p = argparse.ArgumentParser(prog="fracspec",
                                description="spectral analysis of affine self-similar measures")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, depth_default=None):
        # no prefix matching: a mistyped or retired option is an error, not
        # a silent match of a longer one (--r would be read as --resolution)
        sp.allow_abbrev = False
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--system", help="catalog name, e.g. scale4, eiffel(3) or scale4(3)")
        source.add_argument("--file", help="system definition JSON file")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--force", action="store_true",
                        help="run analyses even when validation fails")
        if depth_default is not None:
            sp.add_argument("--depth", type=int, default=depth_default)

    sp = sub.add_parser("validate", help="check the axioms of a system")
    common(sp)
    sp.set_defaults(handler=cmd_validate)

    sp = sub.add_parser("spectrum", help="enumerate the candidate spectrum")
    common(sp, depth_default=3)
    sp.set_defaults(handler=cmd_spectrum)

    sp = sub.add_parser("gram", help="Gram matrix of the first spectrum points")
    common(sp)
    sp.add_argument("--count", type=int, default=16)
    sp.set_defaults(handler=cmd_gram)

    sp = sub.add_parser("q1", help="completeness partial sums over the hull")
    common(sp)
    sp.add_argument("--p-depth", type=int, default=None)
    sp.add_argument("--resolution", type=int, default=None)
    sp.add_argument("--tol", type=float, default=spectrum.Q1_EPS_CONV)
    sp.set_defaults(handler=cmd_q1)

    sp = sub.add_parser("transfer", help="fixed-point iteration of the operator")
    common(sp)
    sp.add_argument("--resolution", type=int, default=None)
    sp.add_argument("--max-iters", type=int, default=transfer.MAX_ITERS)
    sp.add_argument("--tol", type=float, default=transfer.FIXED_POINT_TOL)
    sp.add_argument("--dump-grid", help="also write the final grid as CSV here")
    sp.set_defaults(handler=cmd_transfer)

    sp = sub.add_parser("gamma", help="contractivity constants")
    common(sp)
    sp.set_defaults(handler=cmd_gamma)

    sp = sub.add_parser("attractor", help="attractor point clouds")
    common(sp, depth_default=4)
    sp.add_argument("--side", choices=SIDES, default="sigma")
    sp.set_defaults(handler=cmd_attractor)

    sp = sub.add_parser("report", help="consolidated per-system report")
    common(sp)
    sp.set_defaults(handler=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _check_options(args)
        sys_obj = _load(args)
        validation = validate_system(sys_obj)
        bad = [name for name in GATE_AXIOMS if not validation.checks[name].passed
               and (args.command, name) != ("q1", "zero_in_L")]
        if bad and not args.force and args.command not in UNGATED:
            print(f"system {sys_obj.name} fails {', '.join(bad)} "
                  f"(rerun with --force to analyse anyway):", file=_sys.stderr)
            for line in validation.summary_lines():
                print(line, file=_sys.stderr)
            return EXIT_CLAIM
        expansive = validation.checks["expansive"]
        if not expansive.passed and args.command not in ANY_R:
            raise ValueError(f"the expansive axiom fails (eigenvalue moduli {expansive.witness}): "
                             f"{args.command} needs word maps that contract")
        return args.handler(args, sys_obj, validation)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"error: an entry is out of floating-point range: {exc}", file=_sys.stderr)
        return EXIT_USAGE


def run() -> int:
    """The process entry of `fracspec` and `python -m fracspec.cli`: freeze
    the heap that importing numpy and the package built, then run `main` on
    sys.argv.  That heap lives until exit, so once frozen neither a command's
    own collections nor the interpreter's final ones walk it.  `main(argv)`
    is the in-process call and leaves its caller's heap alone."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())

"""Command-line front door: forward -> inverse -> rates pipelines.

Subcommands: forward, wkb, kernel, reconstruct, benchmark, bounds.
All artifacts are deterministic for a fixed config; failures exit
nonzero with a machine-readable JSON error record naming the module and
operation that failed.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import rates
from . import wkb
from .forward import DEFAULT_TOL, SpectralData
from .forward import forward as forward_solve
from .potentials import Potential, PotentialError, make_potential
from .svgplot import line_plot

log = logging.getLogger("slspec")

_FLOAT_FMT = "%.12e"


def _fmt(v) -> str:
    return _FLOAT_FMT % float(v)


def load_potential(spec: str) -> Potential:
    """Built-in name, or path to a JSON/TOML config with a potential table."""
    builtin_names = {"q1", "q1_rational", "square_well", "q4", "quartic_rational"}
    if spec in builtin_names:
        return make_potential({"kind": spec})
    if not os.path.exists(spec):
        raise PotentialError(f"unknown potential {spec!r} (not a builtin, not a file)")
    if spec.endswith(".toml"):
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            try:
                import tomli as tomllib
            except ImportError as exc:
                raise PotentialError("TOML configs need the 'tomli' package on "
                                     "Python 3.10; use JSON instead") from exc
        with open(spec, "rb") as fh:
            doc = tomllib.load(fh)
    else:
        with open(spec) as fh:
            doc = json.load(fh)
    pot = doc.get("potential", doc)
    cfg = {
        "kind": pot.get("kind"),
        "params": pot.get("params", {}),
        "decay": pot.get("decay"),
    }
    table_path = pot.get("table_path")
    if table_path:
        base = os.path.dirname(os.path.abspath(spec))
        rows = np.loadtxt(os.path.join(base, table_path), delimiter=",")
        cfg["table_x"] = rows[:, 0]
        cfg["table_q"] = rows[:, 1]
    return make_potential(cfg)


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        n = int(count)
        if n < 2:
            raise ValueError
        return np.linspace(float(start), float(stop), n)
    except ValueError as exc:
        raise ValueError(f"grid must be start:stop:count with count >= 2, got {text!r}") from exc


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


def cmd_forward(args) -> int:
    p = load_potential(args.potential)
    sd = forward_solve(p, args.omega, args.tol, potential_id=args.potential)
    with open(args.out, "w") as fh:
        fh.write(sd.to_json())
        fh.write("\n")
    log.info("forward: %d states to %s", sd.count, args.out)
    return 0


def cmd_wkb(args) -> int:
    p = load_potential(args.potential)
    prof = wkb.wkb_spectrum(p, args.omega)
    with open(args.out, "w") as fh:
        fh.write("j,eta,xi_wkb,x_plus,action,theta_plus,log_s\n")
        for j in range(len(prof.eta)):
            row = [j + 1, prof.eta[j], prof.eta[j] / prof.epsilon,
                   prof.x_plus[j], prof.action_values[j], prof.theta_plus[j],
                   prof.log_s[j]]
            fh.write(",".join([str(j + 1)] + [_fmt(v) for v in row[1:]]) + "\n")
    log.info("wkb: %d levels (predicted %d) to %s",
             len(prof.eta), prof.predicted_count, args.out)
    return 0


def cmd_kernel(args) -> int:
    from .glkernel import solve_kernel

    w = _parse_complex(args.w)
    kf = solve_kernel(args.X, w, n=args.n, tol=args.tol)
    with open(args.out, "w") as fh:
        fh.write("x,y,re_A,im_A\n")
        for i, x in enumerate(kf.grid):
            for j, y in enumerate(kf.grid[: i + 1]):
                a = kf.A[i][j] if i else 0.0
                fh.write(f"{_fmt(x)},{_fmt(y)},{_fmt(np.real(a))},{_fmt(np.imag(a))}\n")
        fh.write("# diag: x,re_diag,im_diag,re_diag_deriv,im_diag_deriv\n")
        for i, x in enumerate(kf.grid):
            fh.write("# " + ",".join([
                _fmt(x), _fmt(np.real(kf.diag[i])), _fmt(np.imag(kf.diag[i])),
                _fmt(np.real(kf.diag_deriv[i])), _fmt(np.imag(kf.diag_deriv[i])),
            ]) + "\n")
    log.info("kernel: residual %.3e to %s", kf.residual, args.out)
    return 0


def _reconstruct_once(sd, method: str, grid, ref, n_kernel):
    from . import reconstruct as rec

    if method == "gl0":
        return rec.reconstruct_gl0(sd, grid, ref=ref)
    if method == "glm":
        return rec.reconstruct_glm(sd, grid, n_kernel=n_kernel, ref=ref)
    if method == "ll":
        rec._check_spectral(sd)
        eps = 1.0 / sd.omega
        res = rec.lax_levermore(sd.xi * eps, sd.C, eps, grid)
        if ref is not None:
            res = rec._attach_errors(res, ref)
        return res
    raise ValueError(f"unknown method {method!r}")


def cmd_reconstruct(args) -> int:
    with open(args.spectral) as fh:
        sd = SpectralData.from_json(fh.read())
    grid = _parse_grid(args.grid)
    ref = load_potential(args.ref) if args.ref else None
    res = _reconstruct_once(sd, args.method, grid, ref, args.n_kernel)
    with open(args.out, "w") as fh:
        fh.write("x,Q_ref,Q_rec,Q_int_ref,Q_int_rec,abs_err,flag_singular\n")
        for i, x in enumerate(res.grid):
            qr = res.Q_ref[i] if res.Q_ref is not None else math.nan
            qir = res.Q_int_ref[i] if res.Q_int_ref is not None else math.nan
            err = abs(res.Q_rec[i] - qr) if res.Q_ref is not None else math.nan
            fh.write(",".join([
                _fmt(x), _fmt(qr), _fmt(res.Q_rec[i]), _fmt(qir),
                _fmt(res.Q_int[i]), _fmt(err), str(int(res.flags[i])),
            ]) + "\n")
    if args.plot:
        series = {"Q_rec": res.Q_rec}
        if res.Q_ref is not None:
            series["Q_ref"] = res.Q_ref
        line_plot(os.path.splitext(args.out)[0] + ".svg", res.grid, series,
                  title=f"reconstruction ({res.method}, omega={sd.omega:g})",
                  xlabel="x", ylabel="Q")
    log.info("reconstruct(%s): %d rows to %s", args.method, len(res.grid), args.out)
    return 0


def _benchmark_job(payload):
    name, omega, method, x_stop, npts, n_kernel = payload
    p = load_potential(name)
    sd = forward_solve(p, omega, potential_id=name)
    grid = np.linspace(0.0, x_stop, npts)
    res = _reconstruct_once(sd, method, grid, p, n_kernel)
    # gl0 approximates the primitive, glm the potential itself
    if method == "gl0":
        return omega, float(res.sup_error_int), float(res.L1_error_int)
    return omega, float(res.sup_error), float(res.L1_error)


def cmd_benchmark(args) -> int:
    omegas = sorted(float(t) for t in args.omegas.split(","))
    jobs = [(args.potential, om, args.method, args.X, args.npts, args.n_kernel)
            for om in omegas]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_benchmark_job, jobs))
    else:
        rows = [_benchmark_job(j) for j in jobs]
    rows.sort()
    kind = "gl0_rate" if args.method == "gl0" else "glm_rate"
    report = rates.convergence_report([(a, b) for a, b, _ in rows], kind)
    with open(args.out, "w") as fh:
        fh.write("omega,sup_err,L1_err\n")
        for om, se, l1 in rows:
            fh.write(f"{_fmt(om)},{_fmt(se)},{_fmt(l1)}\n")
        fh.write("# " + json.dumps(report.to_dict(), sort_keys=True) + "\n")
    if args.plot:
        oms = [r[0] for r in rows]
        line_plot(os.path.splitext(args.out)[0] + ".svg", np.log(oms),
                  {"ln err": np.log([r[1] for r in rows]),
                   "fit": [report.fitted_log_factor
                           - report.fitted_exponent * math.log(om)
                           + (math.log(math.log(om)) if kind == "gl0_rate" else 0.0)
                           for om in oms]},
                  title=f"{args.method} rate (exponent {report.fitted_exponent:.3f})",
                  xlabel="ln omega", ylabel="ln err")
    log.info("benchmark: exponent %.4f pass=%s", report.fitted_exponent, report.passed)
    return 0


def cmd_bounds(args) -> int:
    ci = rates.vitushkin_c_inf(args.l, args.s)
    cl = rates.vitushkin_c_l1(args.l, args.s)
    print(f"C_inf({args.l:g}, {args.s}) = {ci:.15e}")
    print(f"C_L1({args.l:g}, {args.s})  = {cl:.15e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slspec",
        description="forward/inverse spectral toolkit for -y'' - omega^2 Q y",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    f = sub.add_parser("forward", help="compute (xi_j, C_j) spectral data")
    f.add_argument("--potential", required=True)
    f.add_argument("--omega", type=float, required=True)
    f.add_argument("--tol", type=float, default=DEFAULT_TOL)
    f.add_argument("--out", required=True)
    f.set_defaults(fn=cmd_forward)

    w = sub.add_parser("wkb", help="semiclassical levels and norming data")
    w.add_argument("--potential", required=True)
    w.add_argument("--omega", type=float, required=True)
    w.add_argument("--out", required=True)
    w.set_defaults(fn=cmd_wkb)

    k = sub.add_parser("kernel", help="solve the transformation-kernel equation")
    k.add_argument("--w", required=True, help="spectral shift, e.g. 4.0 or 1+5i")
    k.add_argument("--X", type=float, required=True)
    k.add_argument("--n", type=int, default=128)
    k.add_argument("--tol", type=float, default=1e-6)
    k.add_argument("--out", required=True)
    k.set_defaults(fn=cmd_kernel)

    r = sub.add_parser("reconstruct", help="rebuild Q from spectral data")
    r.add_argument("--spectral", required=True)
    r.add_argument("--method", choices=("gl0", "glm", "ll"), required=True)
    r.add_argument("--grid", required=True, help="start:stop:count")
    r.add_argument("--ref", default=None)
    r.add_argument("--n-kernel", type=int, default=None, dest="n_kernel")
    r.add_argument("--plot", action="store_true")
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_reconstruct)

    b = sub.add_parser("benchmark", help="forward+inverse error sweep over omega")
    b.add_argument("--potential", required=True)
    b.add_argument("--omegas", required=True, help="comma list, increasing")
    b.add_argument("--method", choices=("gl0", "glm"), default="gl0")
    b.add_argument("--X", type=float, default=2.0)
    b.add_argument("--npts", type=int, default=81)
    b.add_argument("--n-kernel", type=int, default=None, dest="n_kernel")
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--plot", action="store_true")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_benchmark)

    c = sub.add_parser("bounds", help="print the explicit class constants")
    c.add_argument("--l", type=float, required=True)
    c.add_argument("--s", type=int, required=True)
    c.set_defaults(fn=cmd_bounds)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("SLSPEC_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not hides
        record = {
            "error": {
                "module": type(exc).__module__.replace("slspec.", ""),
                "operation": args.command,
                "type": type(exc).__name__,
                "message": str(exc),
            }
        }
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

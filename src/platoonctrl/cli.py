"""Command-line front end: experiments, exports, verification suites.

Every command writes its data files plus a report.json under --out. Exit
codes are a stable contract: 0 success or verdict-pass, 1 verdict-fail or
domain failure, 2 usage error, 3 I/O failure. Diagnostics go to standard
error (level via the LOG environment variable); files carry the data.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import replace

from .bidir import bode_table, sensitivity_matrix, verify_factorization
from .cascade import (cascade_gain, homogeneous_growth, middleton_integral,
                      pd_mistune_experiment)
from .errors import (DivergentAtOrigin, InvalidRange, ParseError,
                     PlatoonError, StabilityCheckFailed)
from .freq import FrequencyGrid, default_grid
from .parsing import parse_rational
from .ratfun import closed_loop, internal_stability
from .synthesis import (band_grid, candidate_controller, certify_controller,
                        family_from_json, family_grid, family_product_check,
                        family_to_json, lift_order, plant, scaled_family,
                        search_parameters, verify_bandwidth)

log = logging.getLogger("platoonctrl")

_RUN_SCHEMA = "run/1"
_BODE_SCHEMA = "bode/1"
_SENS_SCHEMA = "sensitivity/1"

_GANG_NAMES = ("S", "PS", "CS", "T")


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("LOG", "warn").lower()
    logging.basicConfig(level=levels.get(name, logging.WARNING),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if v < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return v


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not v > 0 or not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"{text!r} must be finite and > 0")
    return v


def _write_text(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    log.info("wrote %s", path)
    return path


def _finite_or_null(x):
    # JSON has no token for inf or NaN; such a float is written as null
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return x


def _write_json(out_dir: str, name: str, doc: dict) -> str:
    text = json.dumps(_finite_or_null(doc), sort_keys=True, indent=2, allow_nan=False)
    return _write_text(out_dir, name, text + "\n")


def _write_report(out_dir: str, command: str, params: dict, results: dict,
                  artifacts: list, t0: float) -> str:
    doc = {
        "schema": _RUN_SCHEMA,
        "command": command,
        "parameters": params,
        "results": results,
        "artifacts": artifacts,
        # non-deterministic section: excluded from the byte-determinism contract
        "timing": {"duration_seconds": time.monotonic() - t0},
    }
    return _write_json(out_dir, "report.json", doc)


# ----------------------------------------------------------------------
# commands

def _cmd_verify_lemma(args) -> int:
    t0 = time.monotonic()
    verdict = verify_factorization(args.n)
    _write_report(args.out, "verify-lemma", {"n": args.n},
                  {"factorization_exact": verdict}, [], t0)
    if not verdict:
        log.error("factorization identity failed at n=%d", args.n)
    return 0 if verdict else 1


def _cmd_sensitivity(args) -> int:
    t0 = time.monotonic()
    S = sensitivity_matrix(args.n)
    doc = {
        "schema": _SENS_SCHEMA,
        "n": args.n,
        "entries": [
            {"row": i + 1, "col": j + 1, **f.to_json_dict()}
            for i, j, f in S.entries()
        ],
    }
    path = _write_json(args.out, "sensitivity.json", doc)
    _write_report(args.out, "sensitivity", {"n": args.n},
                  {"entry_count": args.n * args.n}, [path], t0)
    return 0


def _cmd_bode(args) -> int:
    t0 = time.monotonic()
    if not args.wmin < args.wmax:
        raise InvalidRange("need wmin < wmax")
    grid = FrequencyGrid(args.wmin, args.wmax, args.ppd)
    table = bode_table(sensitivity_matrix(args.n), grid)
    csv_path = _write_text(args.out, "bode.csv", table.to_csv())
    side = {
        "schema": _BODE_SCHEMA,
        "n": args.n,
        "omega_min": args.wmin,
        "omega_max": args.wmax,
        "points_per_decade": args.ppd,
        "bound": "abs(j*omega/(j*omega+1)) + 1e-9",
        "verdict": table.bound_ok,
        "worst_excess": table.worst_excess,
    }
    json_path = _write_json(args.out, "bode.json", side)
    params = {"n": args.n, "wmin": args.wmin, "wmax": args.wmax, "ppd": args.ppd}
    _write_report(args.out, "bode", params,
                  {"verdict": table.bound_ok, "worst_excess": table.worst_excess},
                  [csv_path, json_path], t0)
    if not table.bound_ok:
        log.error("bound violated by %.3e", table.worst_excess)
    return 0 if table.bound_ok else 1


def _cmd_synth(args) -> int:
    t0 = time.monotonic()
    m, eps, bw, count = args.m, args.eps, args.bw, args.count
    ell = 4 * math.ceil(m / 4)
    if m == 1:
        # the first-order plant is closed with unit gain; T = 1/(s+1) never
        # exceeds 1, so the certificate is degenerate and the family trivial
        c = parse_rational("1")
        cert = certify_controller(c, 1, eps)
        gamma_info = {"gamma_a": None, "gamma_b": None, "ell": 1}
    else:
        ga, gb = search_parameters(ell, eps)
        c_bar = candidate_controller(ell, ga, gb)
        cert = certify_controller(c_bar, ell, eps, band_grid(gb)).with_gammas(ga, gb)
        c = lift_order(c_bar, ell, m)
        gamma_info = {"gamma_a": str(ga), "gamma_b": str(gb), "ell": ell}
    fam = scaled_family(c, cert, m, bw, count)
    max_product, ok = family_product_check(fam, m)
    path = _write_json(args.out, "family.json", family_to_json(fam, (max_product, ok)))
    params = {"m": m, "eps": eps, "bw": bw, "count": count}
    results = {
        **gamma_info,
        "peak": cert.peak,
        "omega_low": cert.omega_low,
        "omega_high": cert.omega_high,
        "band_empty": cert.band_empty,
        "max_product": max_product,
        "product_ok": ok,
    }
    _write_report(args.out, "synth", params, results, [path], t0)
    if not ok:
        log.error("family product %.9g exceeds 1 + eps", max_product)
    return 0 if ok else 1


def _cmd_family_check(args) -> int:
    t0 = time.monotonic()
    with open(args.file, "r", encoding="utf-8") as fh:
        fam = family_from_json(json.load(fh))
    # every member c_k = gamma_k^-m c(gamma_k s) shares the base's verdict
    stable = internal_stability(plant(fam.m), fam.base).internally_stable
    if not stable:
        log.error("the base controller fails internal stability")
    verify_bandwidth(fam, family_grid(fam))
    max_product, ok = family_product_check(fam, fam.m)
    _write_report(args.out, "family-check",
                  {"file": args.file},
                  {"m": fam.m, "count": len(fam), "members_stable": stable,
                   "max_product": max_product, "product_ok": ok},
                  [], t0)
    return 0 if (stable and ok) else 1


def _stability_diagnostic(p, c) -> str:
    rep = internal_stability(p, c)
    bad = [name for name, good in zip(_GANG_NAMES, rep.each_stable) if not good]
    return "unstable closed-loop members: " + ", ".join(bad)


def _cmd_homogeneous(args) -> int:
    t0 = time.monotonic()
    c = parse_rational(args.c)
    p = plant(args.m)
    if not internal_stability(p, c).internally_stable:
        raise StabilityCheckFailed(_stability_diagnostic(p, c))
    table = homogeneous_growth(c, args.m, args.n)
    csv_path = _write_text(args.out, "growth.csv", table.to_csv())
    T = closed_loop(p, c)[1]
    try:
        mid = middleton_integral(T)
        mid_doc = {"value": mid.value, "truncation_bound": mid.truncation_bound}
    except (StabilityCheckFailed, DivergentAtOrigin) as exc:
        # growth is still reportable when the integral's preconditions
        # (strictly proper tail, unit DC gain) do not hold
        mid_doc = {"skipped": str(exc)}
    params = {"m": args.m, "c": args.c, "n": args.n}
    _write_report(args.out, "homogeneous", params,
                  {"hinf": table.hinf, "omega0": table.omega0,
                   "growth_flagged": table.growth_flagged,
                   "middleton": mid_doc},
                  [csv_path], t0)
    return 0


def _cmd_middleton(args) -> int:
    t0 = time.monotonic()
    c = parse_rational(args.c)
    p = plant(args.m)
    if not internal_stability(p, c).internally_stable:
        raise StabilityCheckFailed(_stability_diagnostic(p, c))
    res = middleton_integral(closed_loop(p, c)[1])
    _write_report(args.out, "middleton", {"m": args.m, "c": args.c},
                  {"value": res.value, "truncation_bound": res.truncation_bound},
                  [], t0)
    return 0


def _cmd_pd_random(args) -> int:
    t0 = time.monotonic()
    if not args.kmin <= args.kmax:
        raise InvalidRange("need kmin <= kmax")
    grid = default_grid()
    rep = pd_mistune_experiment(args.n, args.kmin, args.kmax, args.trials,
                                args.seed, grid)
    csv_path = _write_text(args.out, "mistune.csv", rep.to_csv())
    baseline = cascade_gain([parse_rational("1+s")] * args.n, 2, grid)
    params = {"n": args.n, "kmin": args.kmin, "kmax": args.kmax,
              "trials": args.trials, "seed": args.seed}
    _write_report(args.out, "pd-random", params,
                  {"scheme": rep.scheme,
                   "median_peak": rep.median_peak,
                   "max_peak": rep.max_peak,
                   "homogeneous_peak": baseline.peak,
                   "median_below_homogeneous": rep.median_peak < baseline.peak},
                  [csv_path], t0)
    return 0


# ----------------------------------------------------------------------
# parser and dispatch

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="platoonctrl",
        description="Heterogeneous platoon control: synthesis and verification")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(func=func)
        return p

    p = add("verify-lemma", _cmd_verify_lemma, "check the exact UL factorization")
    p.add_argument("--n", type=_positive_int, required=True)

    p = add("sensitivity", _cmd_sensitivity, "export S_n entries as JSON")
    p.add_argument("--n", type=_positive_int, required=True)

    p = add("bode", _cmd_bode, "sweep S_n magnitudes against the reference bound")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--wmin", type=_positive_float, default=1e-3)
    p.add_argument("--wmax", type=_positive_float, default=1e3)
    p.add_argument("--ppd", type=_positive_int, default=100)

    p = add("synth", _cmd_synth, "synthesise a certified scaled controller family")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--eps", type=_positive_float, default=0.1)
    p.add_argument("--bw", type=_positive_float, default=1.0)
    p.add_argument("--count", type=_positive_int, default=10)

    p = add("family-check", _cmd_family_check, "re-verify a stored family file")
    p.add_argument("--file", required=True)

    p = add("homogeneous", _cmd_homogeneous, "growth table for one repeated controller")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--c", required=True, help="controller, e.g. \"1+s\" or \"(1+s)/(2+s)\"")
    p.add_argument("--n", type=_positive_int, default=20)

    p = add("middleton", _cmd_middleton, "the sensitivity integral for one loop")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--c", required=True)

    p = add("pd-random", _cmd_pd_random, "randomized PD mistuning experiment")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--kmin", type=_positive_float, default=0.5)
    p.add_argument("--kmax", type=_positive_float, default=2.0)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=42)

    return top


def main(argv=None) -> int:
    # exact rationals are written and read as decimal strings, and family
    # coefficients run past the default int/str cap of 4300 digits (the cap
    # exists from Python 3.10.7 on)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits(0) for --help; anything else is a usage error
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args)
    except (ParseError, InvalidRange) as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("i/o failure: %s", exc)
        return 3
    except PlatoonError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

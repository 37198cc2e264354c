"""Command-line front end: experiments, exports, verification suites.

Each command writes its data files under --out and returns its exit code,
results and artifact paths; main then writes the one report.json, taking
its command, parameters and start time from the parsed flags. A command
that raises writes no report. Exit codes are a stable contract: 0 success
or verdict-pass, 1 verdict-fail or domain failure, 2 usage error, 3 I/O
failure. Diagnostics go to standard error (level via the LOG environment
variable); files carry the data.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from bisect import bisect_left

from .bidir import bode_table, sensitivity_matrix, verify_factorization
from .cascade import (homogeneous_growth, middleton_integral, pd_cascade_peak,
                      pd_mistune_experiment, pd_window)
from .errors import (DivergentAtOrigin, InvalidRange, ParseError,
                     PlatoonError, StabilityCheckFailed)
from .freq import default_grid, grid_samples
from .parsing import parse_rational
from .ratfun import internal_stability, plant
from .synthesis import (check_certificate, family_from_json, family_product_check,
                        family_to_json, scaled_family, synthesize)

log = logging.getLogger("platoonctrl")

_RUN_SCHEMA = "run/1"
_BODE_SCHEMA = "bode/2"
_BODE_BASIS = ("length-independence lemma: S_ij = s P_m/(s+1)^(i+j+1) with "
               "m = min(i,j) and (s+2) P_m = 1 + (s+1)^(2m+1), both proven "
               "for every m, so abs(S_ij(j*omega)) <= abs(j*omega/(j*omega+1)) "
               "for every n, i, j and omega")
_SENS_SCHEMA = "sensitivity/1"
# the largest --n of each command, checked before any work; at its cap each
# runs within 1 GB of address space and 10 s. verify-lemma's proof costs the
# same at every length, so its cap only states the range it answers for
_N_CAPS = {"verify-lemma": 10 ** 5, "homogeneous": 10 ** 5, "pd-random": 10 ** 4,
           "sensitivity": 120}
# bode.csv has n^2 rows per grid sample, whose omega and n(n+1)/2 distinct
# entries are formatted once, so its cap, with the same bounds, counts
# (n+1)^2 rows per sample: the grid's options count as much as --n
_BODE_ROW_CAP = 5 * 10 ** 6
# pd-random evaluates n stages of each trial on its gain range's window of
# the grid, so its cap, with the same bounds, counts those stage-samples:
# --trials counts as much as --n
_PD_SAMPLE_CAP = 10 ** 7


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("LOG", "warn").lower()
    logging.basicConfig(level=levels.get(name, logging.WARNING),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")


def _positive_int(text: str) -> int:
    v = _integer(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= 1")
    return v


def _seed(text: str) -> int:
    # the seed is the 128-bit Philox key
    v = _integer(text)
    if not 0 <= v < 2 ** 128:
        raise argparse.ArgumentTypeError(f"{text!r} must be in 0 .. 2**128 - 1")
    return v


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not v > 0 or not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"{text!r} must be finite and > 0")
    return v


def _write_text(out_dir: str, name: str, chunks) -> str:
    # chunks: an iterable of strings, written in turn
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
    log.info("wrote %s", path)
    return path


def _bode_rows(args):
    return (args.n + 1) ** 2 * grid_samples(args.wmin, args.wmax, args.ppd)


def _pd_stage_samples(args):
    # from pd_window's start to sqrt 2 whatever kmin: a narrower bracket refuses no fewer runs
    lo = pd_window(args.kmin, args.kmax, default_grid()).start
    return args.n * args.trials * max(bisect_left(default_grid(), math.sqrt(2.0)) - lo, 1)


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
    return _write_text(out_dir, name, (text, "\n"))


def _write_report(args, results: dict, artifacts: list, t0: float) -> str:
    doc = {
        "schema": _RUN_SCHEMA,
        "command": args.command,
        # every flag but --out, under its argparse dest
        "parameters": {k: v for k, v in vars(args).items()
                       if k not in ("command", "func", "out")},
        "results": results,
        "artifacts": artifacts,
        # non-deterministic section: excluded from the byte-determinism contract
        "timing": {"duration_seconds": time.monotonic() - t0},
    }
    return _write_json(args.out, "report.json", doc)


# ----------------------------------------------------------------------
# commands: each returns (exit code, report results, artifact paths)

def _cmd_verify_lemma(args):
    verdict = verify_factorization(args.n)
    if not verdict:
        log.error("factorization identity failed at n=%d", args.n)
    return (0 if verdict else 1), {"factorization_exact": verdict}, []


def _cmd_sensitivity(args):
    S = sensitivity_matrix(args.n)
    doc = {
        "schema": _SENS_SCHEMA,
        "n": args.n,
        "entries": [
            {"row": i + 1, "col": j + 1, **f.to_json_dict()}
            for i, row in enumerate(S) for j, f in enumerate(row)
        ],
    }
    path = _write_json(args.out, "sensitivity.json", doc)
    return 0, {"entry_count": args.n * args.n}, [path]


def _cmd_bode(args):
    # the verdict is the lemma, whose hypotheses hold for every n; the grid
    # only shapes the CSV
    table = bode_table(args.n, args.wmin, args.wmax, args.ppd)
    csv_path = _write_text(args.out, "bode.csv", table.to_csv())
    side = {
        "schema": _BODE_SCHEMA,
        "n": args.n,
        "omega_min": args.wmin,
        "omega_max": args.wmax,
        "points_per_decade": args.ppd,
        "bound": "abs(j*omega/(j*omega+1))",
        "basis": _BODE_BASIS,
        "verdict": True,
        "worst_excess": table.worst_excess,
    }
    json_path = _write_json(args.out, "bode.json", side)
    return 0, {"verdict": True, "worst_excess": table.worst_excess}, [csv_path, json_path]


def _cmd_synth(args):
    design = synthesize(args.m, args.eps)
    fam = scaled_family(design.controller, design.certificate, args.m, args.bw, args.count)
    doc = family_to_json(fam, family_product_check(fam))
    path = _write_json(args.out, "family.json", doc)
    check = doc["product_check"]
    if not check["pass"]:
        log.error("member amplification bands overlap")
    # the report restates family.json's certificate; epsilon is already a parameter
    results = {k: v for k, v in doc["certificate"].items() if k != "epsilon"}
    results.update(ell=design.ell, max_product=check["max_product"], product_ok=check["pass"])
    return (0 if check["pass"] else 1), results, [path]


def _cmd_family_check(args):
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidRange(f"{args.file} is not a JSON document: {exc}") from exc
    fam = family_from_json(doc)
    # every member c_k = gamma_k^-m c(gamma_k s) shares the base's verdict
    try:
        T = internal_stability(plant(fam.m), fam.base)
    except StabilityCheckFailed:
        stable, peak, cert_ok = False, math.inf, False
    else:
        # the stored certificate is not trusted: its claims are tested on the
        # stored controller's own T before the comparisons rest on them
        stable = True
        peak, cert_ok = check_certificate(T, fam.base_certificate)
    ok = cert_ok and family_product_check(fam)[1]
    if not stable:
        log.error("the base controller fails internal stability")
    elif not cert_ok:
        log.error("the stored certificate does not hold for the stored controller")
    elif not ok:
        log.error("member amplification bands overlap")
    return (0 if ok else 1), {"m": fam.m, "count": len(fam), "members_stable": stable,
                              "peak": peak, "certificate_ok": cert_ok,
                              "max_product": peak if ok else math.inf,
                              "product_ok": ok}, []


def _cmd_homogeneous(args):
    table = homogeneous_growth(parse_rational(args.c), args.m, args.n)
    csv_path = _write_text(args.out, "growth.csv", (table.to_csv(),))
    try:
        # the closed form truncates nothing, so its bound is 0
        mid_doc = {"value": middleton_integral(table.T), "truncation_bound": 0.0}
    except (StabilityCheckFailed, DivergentAtOrigin) as exc:
        # growth is still reportable when the integral's preconditions
        # (strictly proper tail, unit DC gain) do not hold
        mid_doc = {"skipped": str(exc)}
    return 0, {"hinf": table.hinf, "omega0": table.omega0,
               "growth_flagged": table.growth_flagged, "middleton": mid_doc}, [csv_path]


def _cmd_middleton(args):
    T = internal_stability(plant(args.m), parse_rational(args.c))
    return 0, {"value": middleton_integral(T), "truncation_bound": 0.0}, []


def _cmd_pd_random(args):
    grid = default_grid()
    rep = pd_mistune_experiment(args.n, args.kmin, args.kmax, args.trials,
                                args.seed, grid)
    csv_path = _write_text(args.out, "mistune.csv", (rep.to_csv(),))
    # every stage k = 1, read like the trials' stages
    homogeneous_peak, _ = pd_cascade_peak([1] * args.n, grid)
    return 0, {"scheme": rep.scheme,
               "median_peak": rep.median_peak,
               "max_peak": rep.max_peak,
               "homogeneous_peak": homogeneous_peak,
               "median_below_homogeneous": rep.median_peak < homogeneous_peak}, [csv_path]


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
    p.add_argument("--seed", type=_seed, default=42)

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
    t0 = time.monotonic()
    try:
        cap = _N_CAPS.get(args.command)
        if cap is not None and args.n > cap:
            raise InvalidRange(f"--n must be <= {cap} for {args.command}")
        if args.command == "bode" and _bode_rows(args) > _BODE_ROW_CAP:
            raise InvalidRange(f"(n+1)^2 times the grid's samples must be <= "
                               f"{_BODE_ROW_CAP} for bode")
        if args.command == "pd-random" and _pd_stage_samples(args) > _PD_SAMPLE_CAP:
            raise InvalidRange(f"n times trials times the window's samples must be <= "
                               f"{_PD_SAMPLE_CAP} for pd-random")
        code, results, artifacts = args.func(args)
        _write_report(args, results, artifacts, t0)
        return code
    except (ParseError, InvalidRange) as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("i/o failure: %s", exc)
        return 3
    except MemoryError as exc:
        log.error("out of memory: %s", str(exc) or args.command)
        return 1
    except PlatoonError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

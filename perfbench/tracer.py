"""Span recorder for one platoonctrl CLI command, installed from outside.

Run as a script, it replaces the public functions and methods listed in
TARGETS with timing wrappers, in every platoonctrl module namespace that
holds them (the package uses ``from .x import f``, so rebinding only the
defining module would miss most calls), then calls ``cli.main`` and writes
the spans once, at exit:

    python3 perfbench/tracer.py SPANS.npz CMD_ID -- <cli arguments>

A span is (name, parent, start, end, status, aux). Status 1 marks a call
that ended in an exception; aux carries one count per span kind (samples
for the magnitude engine, entries of the sensitivity matrix, the degree of
a gcd, the largest coefficient bit length of a constructed rational
function).
Imported as a module, the same file reads span files back and reduces them
to per-layer metrics, so the span format is known in one place only.
"""

from __future__ import annotations

import sys
import time
from array import array

# (span name, defining module, attribute path). Aliases of one function
# (``__rmul__ = __mul__``) are listed once per attribute.
TARGETS = (
    ("poly.mul", "poly", "Polynomial.__mul__"),
    ("poly.mul", "poly", "Polynomial.__rmul__"),
    ("poly.divmod", "poly", "Polynomial.__divmod__"),
    ("poly.gcd", "poly", "poly_gcd"),
    ("poly.hurwitz", "poly", "hurwitz_stable"),
    ("ratfun.canon", "ratfun", "RationalFunction.__init__"),
    ("ratfun.closed_loop", "ratfun", "closed_loop"),
    ("ratfun.internal_stability", "ratfun", "internal_stability"),
    ("ratfun.scale_frequency", "ratfun", "scale_frequency"),
    ("parsing.parse_rational", "parsing", "parse_rational"),
    ("freq.log_abs", "freq", "rf_log_abs_jomega"),
    ("freq.hinf", "freq", "hinf_norm"),
    ("synthesis.search", "synthesis", "search_parameters"),
    ("synthesis.candidate", "synthesis", "candidate_controller"),
    ("synthesis.certify", "synthesis", "certify_controller"),
    ("synthesis.scaled_family", "synthesis", "scaled_family"),
    ("synthesis.verify_bandwidth", "synthesis", "verify_bandwidth"),
    ("synthesis.product_check", "synthesis", "family_product_check"),
    ("synthesis.family_json", "synthesis", "family_to_json"),
    ("cascade.cascade_gain", "cascade", "cascade_gain"),
    ("cascade.pd_mistune", "cascade", "pd_mistune_experiment"),
    ("cascade.homogeneous_growth", "cascade", "homogeneous_growth"),
    ("cascade.middleton", "cascade", "middleton_integral"),
    ("bidir.verify_factorization", "bidir", "verify_factorization"),
    ("bidir.invert_bidiagonal", "bidir", "invert_bidiagonal"),
    ("bidir.matmul", "bidir", "RationalMatrix.__matmul__"),
    ("bidir.sensitivity_matrix", "bidir", "sensitivity_matrix"),
    ("bidir.bode_table", "bidir", "bode_table"),
    ("cli.main", "cli", "main"),
    ("cli.serialize", "ratfun", "RationalFunction.to_json_dict"),
    ("cli.serialize", "bidir", "BodeTable.to_csv"),
    ("cli.serialize", "cascade", "CascadeProfile.to_csv"),
    ("cli.serialize", "cascade", "GrowthTable.to_csv"),
    ("cli.serialize", "cascade", "MistuneReport.to_csv"),
)

# Time the recorder spends on its own bookkeeping inside a parent span is
# recorded as a span of this name, so it leaves the parent's self time.
BOOKKEEPING = "trace.bookkeeping"


def _coeff_bits(f) -> int:
    bits = 0
    for p in (f.num, f.den):
        for c in p.coeffs:
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > bits:
                bits = b
    return bits


class Recorder:
    """In-memory span store; one per traced command."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self.aux = array("q")
        self.stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        book = self._name_id(BOOKKEEPING)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        status, aux, stack = self.status, self.aux, self.stack
        clock = time.perf_counter

        if name == "freq.log_abs":
            def count(args, result):
                return len(args[1])
        elif name == "bidir.sensitivity_matrix":
            def count(args, result):
                return args[0] * args[0]
        elif name == "poly.gcd":
            def count(args, result):
                return result.degree
        elif name == "ratfun.canon":
            def count(args, result):
                return _coeff_bits(args[0])
        else:
            count = None

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            status.append(1)
            aux.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                status[i] = 0
                return result
            finally:
                ends[i] = clock()
                stack.pop()
                if count is not None and status[i] == 0:
                    aux[i] = count(args, result)
                    names.append(book)
                    parents.append(stack[-1])
                    starts.append(ends[i])
                    status.append(0)
                    aux.append(0)
                    ends.append(clock())

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded platoonctrl namespace.

        A target the program no longer defines is skipped; its metrics then
        read 0, and the untraced measurements do not depend on it.
        """
        import importlib
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "platoonctrl" or k.startswith("platoonctrl.")]
        for span, modname, path in TARGETS:
            owner = importlib.import_module(f"platoonctrl.{modname}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                continue
            wrapped = self.wrap(span, original)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path: str, cmd_id: str) -> None:
        import numpy as np
        np.savez(path, cmd_id=np.array(cmd_id), names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 status=np.frombuffer(self.status, dtype=np.int8),
                 aux=np.frombuffer(self.aux, dtype=np.int64))


def _child_main(argv) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print("usage: tracer.py SPANS.npz CMD_ID -- <cli arguments>", file=sys.stderr)
        return 2
    out_path, cmd_id, cli_args = argv[1], argv[2], argv[4:]
    import platoonctrl.cli as cli
    rec = Recorder()
    rec.install()
    try:
        return cli.main(cli_args)
    finally:
        rec.dump(out_path, cmd_id)


# ----------------------------------------------------------------------
# reading spans back (parent side)

def span_table(path: str) -> dict:
    """Per span name: calls, failed calls, total and self seconds, aux sum/max."""
    import numpy as np
    with np.load(path) as d:
        names = [str(n) for n in d["names"]]
        name, parent = d["name"], d["parent"]
        dur = d["end"] - d["start"]
        status, aux = d["status"], d["aux"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    self_t = dur - covered
    out = {}
    for nid, nm in enumerate(names):
        sel = name == nid
        out[nm] = {
            "calls": int(sel.sum()),
            "failed": int(status[sel].sum()),
            "total_s": float(dur[sel].sum()),
            "self_s": float(self_t[sel].sum()),
            "aux_sum": int(aux[sel].sum()),
            "aux_max": int(aux[sel].max()) if sel.any() else 0,
        }
    # canon calls whose gcd child removed a factor of degree > 0
    ids = {nm: i for i, nm in enumerate(names)}
    if "poly.gcd" in ids and "ratfun.canon" in ids:
        g = (name == ids["poly.gcd"]) & (aux > 0) & has_parent
        reducing_parents = np.unique(parent[g])
        out["ratfun.canon"]["reduced"] = int(
            (name[reducing_parents] == ids["ratfun.canon"]).sum())
    # magnitude-engine calls on exactly one omega
    if "freq.log_abs" in ids:
        out["freq.log_abs"]["scalar_calls"] = int(
            ((name == ids["freq.log_abs"]) & (aux == 1)).sum())
    # search candidates are the candidate spans below a search span
    if "synthesis.candidate" in ids and "synthesis.search" in ids:
        cand = name == ids["synthesis.candidate"]
        out["synthesis.candidate"]["under_search"] = int(
            (cand & has_parent & (name[np.where(has_parent, parent, 0)]
                                  == ids["synthesis.search"])).sum())
    return out


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv))

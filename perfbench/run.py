"""Benchmark for the platoonctrl command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the program is imported from its ``src``. Every command runs as a user runs
it: a fresh ``python3 -m platoonctrl`` process, one at a time, closed loop
with one client. The workload (three commands, see workloads.py) repeats
while another pass still fits in S seconds; at least one pass runs.

--trace 0 times the commands from outside and reports the end-to-end
metrics. --trace 1 alternates an untraced pass with a pass whose commands
run under tracer.py, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced pass wall time, less host steal). Both
modes check every command's output against an oracle (workloads.py). The
metric names and units printed in the last line, one JSON object, are those
listed in BENCHMARK.json at the repository root; the lines before it print every
metric with its median, smallest value, upper quartile, largest value and
sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_CMD = ("-c", "import platoonctrl.cli")
# Per-pass times are reported as the upper quartile of the run's passes,
# every other metric as the median. The machine the benchmark was defined
# on runs most of the time at one shared-core speed, with bursts of seconds
# at up to 1.8 times that speed. How many bursts a run catches varies, and
# moves the median of its passes far more than the upper quartile (README,
# "Bounds and steadiness").
PASS_TIMES = {"wall_s", "cpu_s", "cmd1_cpu_s", "cmd2_cpu_s", "cmd3_cpu_s"}
# numpy starts one OpenBLAS thread per core at import. On a small shared
# machine those threads compete with the program's own thread for a CPU and
# make wall times swing; the program does no sizeable linear algebra, so its
# processes run with one BLAS thread.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
# no run may take longer than this, whatever --seconds says
HARD_LIMIT_S = 170.0


def host_steal_s() -> float:
    """CPU time the hypervisor has given to other guests, summed over this
    machine's CPUs (the steal column of /proc/stat); 0 where there is none."""
    try:
        with open("/proc/stat", "rb") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


@dataclass
class Outcome:
    """One finished child process."""

    wall_s: float
    steal_s: float  # host steal while it ran
    cpu_s: float
    rss_mb: float
    code: int  # exit code; negative for a signal
    timed_out: bool  # killed because the run reached its time limit

    @property
    def own_wall_s(self) -> float:
        """Wall time less the time the host ran other guests on our CPU.

        The benchmark's other CPU idles while a command runs, and an idle
        CPU accrues no steal, so the machine-wide steal is the command's.
        """
        return self.wall_s - self.steal_s


@dataclass
class CmdResult:
    label: str
    outcome: Outcome
    problem: Optional[str]  # None when the command passed its check

    @property
    def passed(self) -> bool:
        return self.problem is None

    @property
    def wrong(self) -> bool:
        """Exit 0 with an output that contradicts the oracle."""
        return self.outcome.code == 0 and self.problem is not None


def run_child(cmd, env, cwd, log_path, deadline) -> Outcome:
    """Run cmd to completion; wall, CPU and peak RSS come from its own rusage."""
    with open(log_path, "wb") as log:
        steal0, t0 = host_steal_s(), time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall, steal = time.perf_counter() - t0, host_steal_s() - steal0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, steal, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                   proc.returncode, time.monotonic() >= deadline)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seconds = seconds
        self.work = work
        self.commands = WORKLOADS[workload](seed)
        # .pyc files go next to the sources, so the first import of the set-up
        # compiles them and no timed command pays for compilation
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["LOG"] = "warn"
        self.env.update(SINGLE_THREADED)
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.stable = {}  # (command index, file name) -> bytes of the first pass
        self.unstable = []
        self.passes = 0
        self.import_times = []  # one before each command of an untraced pass

    def time_import(self) -> float:
        """Wall time, less host steal, of a fresh interpreter importing platoonctrl.cli.

        The run's first import compiles any missing .pyc files and is
        reported on its own. setup_s is the median of the imports timed
        before each command of the untraced passes: the part every CLI
        invocation pays, sampled across the whole run rather than in one
        burst at its start.
        """
        log = self.work / "setup.log"
        oc = run_child([sys.executable, *IMPORT_CMD], self.env, str(self.work), str(log),
                       self.deadline)
        if oc.code != 0:
            raise SystemExit(f"importing platoonctrl.cli failed (exit {oc.code}):\n"
                             + log.read_text(errors="replace"))
        return oc.own_wall_s

    def run_pass(self, traced: bool):
        self.passes += 1
        pdir = self.work / f"{'t' if traced else 'p'}{self.passes}"
        pdir.mkdir()
        results, artifact_bytes, spans = [], 0, []
        for i, c in enumerate(self.commands):
            out = pdir / c.out
            argv = [a.replace("{pass}", str(pdir)) for a in c.argv] + ["--out", str(out)]
            if traced:
                span_file = str(pdir / f"{c.out}.npz")
                cmd = [sys.executable, str(HERE / "tracer.py"), span_file,
                       f"{self.workload}/{self.passes}/{c.out}", "--", *argv]
            else:
                cmd = [sys.executable, "-m", "platoonctrl", *argv]
                self.import_times.append(self.time_import())
            oc = run_child(cmd, self.env, str(pdir), str(pdir / f"{c.out}.log"), self.deadline)
            if oc.timed_out:
                problem = "killed at the run's time limit"
            elif oc.code != 0:
                problem = f"exit code {oc.code}"
            else:
                try:
                    problem = c.check(str(out))
                except Exception as exc:  # the program's output is outside input here
                    problem = f"output unreadable: {type(exc).__name__}: {exc}"
            results.append(CmdResult(c.label, oc, problem))
            if out.is_dir():
                artifact_bytes += sum(p.stat().st_size for p in out.iterdir())
            for name in c.stable_files:
                path = out / name
                data = path.read_bytes() if path.is_file() else b""
                first = self.stable.setdefault((i, name), data)
                if data != first:
                    self.unstable.append(f"{c.label}: {name} differs between passes")
            if traced and os.path.isfile(span_file):
                spans.append(tracer.span_table(span_file))
            if oc.timed_out:
                break
        shutil.rmtree(pdir)
        return results, artifact_bytes, spans

    def time_left(self, elapsed: float, per_pass: float) -> bool:
        return (elapsed + per_pass <= self.seconds
                and time.monotonic() + 2 * per_pass < self.deadline)


def upper_quartile(values) -> float:
    """75th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _summary(name, values, unit):
    return (f"  {name:<34} {statistics.median(values):>14.6g} {unit:<6} "
            f"(median of {len(values)}; min {min(values):.6g}; "
            f"p75 {upper_quartile(values):.6g}; max {max(values):.6g})")


def _merge_tables(tables):
    out = {}
    for t in tables:
        for name, row in t.items():
            acc = out.setdefault(name, {})
            for key, value in row.items():
                if key == "aux_max":
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value
    return out


def layer_metrics(tables, artifact_bytes: int) -> dict:
    """Every per-layer metric of one traced pass, by name."""
    t = _merge_tables(tables)

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    m = {}
    for name in {span for span, _, _ in tracer.TARGETS} - {"cli.serialize"}:
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")

    canon_calls = get("ratfun.canon", "calls")
    m["ratfun.canon.reduced_frac"] = (get("ratfun.canon", "reduced") / canon_calls
                                      if canon_calls else 0.0)
    m["poly.max_coeff_bits"] = get("ratfun.canon", "aux_max")
    samples = get("freq.log_abs", "aux_sum")
    m["freq.log_abs.samples"] = samples
    m["freq.log_abs.us_per_sample"] = (get("freq.log_abs", "self_s") / samples * 1e6
                                       if samples else 0.0)
    m["freq.scalar_calls"] = get("freq.log_abs", "scalar_calls")
    m["synthesis.search.candidates"] = get("synthesis.candidate", "under_search")
    m["synthesis.certify.accepted"] = (get("synthesis.certify", "calls")
                                       - get("synthesis.certify", "failed"))
    sens_s = get("bidir.sensitivity_matrix", "total_s")
    m["bidir.entries_per_s"] = get("bidir.sensitivity_matrix", "aux_sum") / sens_s if sens_s else 0.0
    m["cli.serialize_s"] = get("cli.serialize", "self_s") + get("synthesis.family_json", "self_s")
    m["cli.artifact_bytes"] = artifact_bytes
    return m


def _module_breakdown(label, table, wall):
    by_mod = {}
    for name, row in table.items():
        if name.startswith("trace."):
            continue
        mod = name.split(".")[0]
        by_mod[mod] = by_mod.get(mod, 0.0) + row["self_s"]
    spans = sum(by_mod.values())
    parts = ", ".join(f"{k} {v:.3f}" for k, v in sorted(by_mod.items(), key=lambda kv: -kv[1])
                      if v > 0)
    return (f"  {label}: traced wall {wall:.3f} s; self time by module: {parts}; "
            f"outside spans (interpreter, imports, unwrapped code) {wall - spans:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "platoonctrl" / "cli.py").is_file():
        print(f"error: no platoonctrl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, spec, Bench(args.workload, args.seed, args.seconds, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(args, spec, bench: Bench) -> int:
    import numpy
    load = os.getloadavg()
    print(f"# platoonctrl benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, load average at start "
          f"{load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    for i, c in enumerate(bench.commands, start=1):
        print(f"# cmd{i}: platoonctrl {c.label}")

    print(f"# setup: first import {bench.time_import():.4f} s (compiles missing .pyc)")

    timed, layer_runs = [], []  # layer_runs: (span tables, artifact bytes, results)
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results, _, _ = bench.run_pass(traced=False)
        timed.append(results)
        print(f"# pass {len(timed)}: " + "; ".join(
            f"cmd{i} wall {r.outcome.wall_s:.4f} steal {r.outcome.steal_s:.2f} "
            f"cpu {r.outcome.cpu_s:.4f}"
            for i, r in enumerate(results, start=1)), flush=True)
        if args.trace:
            traced, nbytes, tables = bench.run_pass(traced=True)
            layer_runs.append((tables, nbytes, traced))
            results = results + traced
        per_pass = time.monotonic() - t0
        if any(r.outcome.timed_out for r in results):
            break
        if not bench.time_left(time.monotonic() - start, per_pass):
            break

    everything = [r for p in timed + [rs for _, _, rs in layer_runs] for r in p]
    attempted = len(everything)
    failed = sum(not r.passed for r in everything)
    correct = not any(r.wrong for r in everything) and not bench.unstable
    for r in everything:
        if not r.passed:
            print(f"# FAILED {r.label}: {r.problem}")
    for msg in bench.unstable:
        print(f"# NOT DETERMINISTIC {msg}")
    print(f"# ops_failed {failed}/{attempted} commands")

    if args.trace:
        metrics = _trace_metrics(timed, layer_runs)
        wanted = spec["per_layer"]
    else:
        metrics = _timed_metrics(timed, bench)
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: no samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in wanted}
    print("# metrics")
    for name in sorted(metrics):
        values, unit = metrics[name]
        print(_summary(name, values, units.get(name, unit)))
    out = {}
    for m in wanted:
        values, _ = metrics[m["name"]]
        stat = upper_quartile if m["name"] in PASS_TIMES else statistics.median
        out[m["name"]] = {"value": stat(values), "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def _timed_metrics(timed, bench: Bench) -> dict:
    cmds = [r for p in timed for r in p]
    metrics = {
        "setup_s": (bench.import_times, "s"),
        "wall_s": ([sum(r.outcome.own_wall_s for r in p) for p in timed], "s"),
        "raw_wall_s": ([sum(r.outcome.wall_s for r in p) for p in timed], "s"),
        "steal_s": ([sum(r.outcome.steal_s for r in p) for p in timed], "s"),
        "cpu_s": ([sum(r.outcome.cpu_s for r in p) for p in timed], "s"),
        "peak_rss_mb": ([max(r.outcome.rss_mb for r in cmds)], "MB"),
        "ops_ok": ([sum(r.passed for r in cmds) / len(cmds)], "ratio"),
    }
    for i in range(len(bench.commands)):
        ran = [p[i].outcome for p in timed if len(p) > i]
        if ran:
            metrics[f"cmd{i + 1}_cpu_s"] = ([o.cpu_s for o in ran], "s")
            metrics[f"cmd{i + 1}_wall_s"] = ([o.own_wall_s for o in ran], "s")
    return metrics


_DERIVED_UNITS = {"reduced_frac": "ratio", "us_per_sample": "us", "entries_per_s": "1/s",
                  "max_coeff_bits": "bit", "artifact_bytes": "byte"}


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return _DERIVED_UNITS.get(last, "s" if last.endswith("_s") else "count")


def _trace_metrics(timed, layer_runs) -> dict:
    per_pass = [layer_metrics(tables, nbytes) for tables, nbytes, _ in layer_runs]
    names = sorted(set().union(*per_pass))
    metrics = {n: ([p.get(n, 0) for p in per_pass], _layer_unit(n)) for n in names}
    untraced = [sum(r.outcome.own_wall_s for r in p) for p in timed]
    traced = [sum(r.outcome.own_wall_s for r in rs) for _, _, rs in layer_runs]
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = ([t - u for t, u in zip(traced, untraced)], "s")
    print("# where the traced time went, first traced pass")
    tables, _, results = layer_runs[0]
    for table, r in zip(tables, results):
        print(_module_breakdown(r.label, table, r.outcome.wall_s))
    return metrics


if __name__ == "__main__":
    sys.exit(main())

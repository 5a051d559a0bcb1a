"""bscount benchmark: one workload, timed passes, gates, optional trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload trimer_ladder --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median over
fresh interpreters that import bscount, numpy and scipy and build the
inputs), ``solve_s`` (median wall time of the passes over the workload that
fit in ``--seconds``, at least one),
``peak_rss_mb`` (peak resident memory through the first pass) and
``pass_ratio`` (gates passed / gates attempted).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics listed in BENCHMARK.json.  The last line of standard
output is one JSON object; the lines before it print every metric with its
unit and sample count, the gates, and the environment.  The full record
(environment, gates, pass times, per-span table) is written to
``.perfbench_out/<workload>/``.  The exit status is 1 when any gate fails.

The library is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7  # timed, after one untimed probe that warms the file cache
PROBE_TIMEOUT_S = 60


def _load_library():
    if not os.path.isfile(os.path.join(SRC, "bscount", "__init__.py")):
        print(f"perfbench: no bscount sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# environment block


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bscount")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _openblas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in-process."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return out
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def environment() -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "bscount_source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# set-up time, from fresh interpreters


def setup_probe(workload: str, seed: int) -> None:
    """Child side: import, build the inputs, then print the wall clock."""
    from workloads import WORKLOADS

    WORKLOADS[workload][0](seed)
    print(repr(time.time()), flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its inputs being built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times[1:]


# ---------------------------------------------------------------------------
# passes


def _pass_dir(workload, index):
    path = os.path.join(OUT, workload, f"pass-{index:03d}")
    os.makedirs(path)
    return path


def timed_passes(run, inputs, workload, seconds, trace):
    """Run rounds of passes, at least one, until the next round is predicted
    to end after ``seconds``.

    A round is one untraced pass, or with ``trace`` an untraced pass followed
    by a traced one.  Returns the records of all passes, in order.
    """
    kinds = (False, True) if trace else (False,)
    records, rounds = [], []
    begin = time.perf_counter()
    while True:
        round_s = 0.0
        for traced in kinds:
            index = len(records)
            pass_dir = _pass_dir(workload, index)
            tracer = tracing.Tracer() if traced else None
            if tracer:
                tracer.pass_id = index
                tracer.install()
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                outputs = run(inputs, pass_dir)
            finally:
                t1, cpu1 = time.perf_counter(), time.process_time()
                if tracer:
                    tracer.uninstall()
            round_s += t1 - t0
            # the process peak so far; a later pass raises it with memory the
            # allocator kept from earlier ones, so only the first pass's
            # figure compares between runs that fit different numbers of passes
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            records.append({"traced": traced, "seconds": t1 - t0, "cpu_s": cpu1 - cpu0,
                            "peak_rss_mb": peak_mb, "outputs": outputs,
                            "pass_dir": pass_dir,
                            "spans": tracer.spans if tracer else None})
        rounds.append(round_s)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(rounds) > seconds:
            return records


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass


def layer_metrics(spans, pass_s, checked, margin_names) -> dict:
    agg = tracing.aggregate(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "by_dim": {}}

    def row(name):
        return agg.get(name, empty)

    def leaves(name, caller):
        return [s for s in spans if s.name == name and s.caller == caller]

    def dim3_sum(name):
        return sum(dim**3 * cell["calls"] for dim, cell in row(name)["by_dim"].items())

    by_id = {s.sid: s for s in spans}

    def under(span, ancestor):
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == ancestor:
                return True
            parent = by_id.get(parent.parent)
        return False

    def layer_time(layer):
        """Time inside the layer's outermost spans."""
        return sum(s.duration for s in spans if s.name.startswith(layer + ".")
                   and not (s.parent in by_id
                            and by_id[s.parent].name.startswith(layer + ".")))

    kernel = row("efimov.three_boson_kernel")
    efimov_eig = leaves("lapack.eigvalsh", "bscount.efimov")
    efimov_s = layer_time("efimov")
    levels = checked.counters.get("efimov.levels", 0)
    tridiag = leaves("lapack.eigvalsh_tridiagonal", "bscount.radial")
    top_self = next(iter(agg.values()), empty)["self_s"]
    m = {
        "efimov.three_boson_kernel.calls": kernel["calls"],
        "efimov.three_boson_kernel.self_s": kernel["self_s"],
        "efimov.kernel_share": kernel["s"] / efimov_s if efimov_s else 0.0,
        "efimov.kernel_builds_per_level": kernel["calls"] / levels if levels else 0.0,
        "efimov.eigvalsh.calls": len(efimov_eig),
        "efimov.eigvalsh.s": sum((s.duration for s in efimov_eig), 0.0),
        "efimov.trimer_spectrum.s": row("efimov.trimer_spectrum")["s"],
        "efimov.kernel_temp_mb": checked.counters.get("efimov.kernel_temp_mb", 0.0),
        "linop.count_evs.calls": row("linop.count_evs")["calls"],
        "linop.count_evs.self_s": row("linop.count_evs")["self_s"],
        "linop.count_evs.dim_max": max(row("linop.count_evs")["by_dim"], default=0),
        "linop.spectral_decompose.calls": row("linop.spectral_decompose")["calls"],
        "linop.spectral_decompose.self_s": row("linop.spectral_decompose")["self_s"],
        "linop.SymOperator.calls": row("linop.SymOperator")["calls"],
        "linop.SymOperator.self_s": row("linop.SymOperator")["self_s"],
        "linop.op_function.self_s": row("linop.op_function")["self_s"],
        "lapack.eigh.calls": row("lapack.eigh")["calls"],
        "lapack.eigvalsh.calls": row("lapack.eigvalsh")["calls"],
        "lapack.eig_dim3_sum": dim3_sum("lapack.eigh") + dim3_sum("lapack.eigvalsh"),
        "radial.bs_kernel_radial.calls": row("radial.bs_kernel_radial")["calls"],
        "radial.bs_kernel_radial.self_s": row("radial.bs_kernel_radial")["self_s"],
        "radial.reduced_hamiltonian.self_s": row("radial.reduced_hamiltonian")["self_s"],
        "radial.find_critical_coupling_radial.s":
            row("radial.find_critical_coupling_radial")["s"],
        "radial.find_critical_coupling_radial.iterations":
            checked.counters.get("radial.find_critical_coupling_radial.iterations", 0),
        "radial.find_critical_coupling_radial.tridiag_eigensolves":
            sum(under(s, "radial.find_critical_coupling_radial") for s in tridiag),
        "radial.kernel_critical_strength.s": row("radial.kernel_critical_strength")["s"],
        "radial.mu_scan.s": row("radial.mu_scan")["s"],
        "radial.schwinger_bound_check.s": row("radial.schwinger_bound_check")["s"],
        "radial.rollnik_norm.s": row("radial.rollnik_norm")["s"],
        "radial.tridiag_eigensolves": len(tridiag),
        "radial.banded_solves": len(leaves("lapack.solveh_banded", "bscount.radial")),
        "bsengine.count_bs.calls": row("bsengine.count_bs")["calls"],
        "bsengine.count_bs.self_s": row("bsengine.count_bs")["self_s"],
        "bsengine.count_direct.self_s": row("bsengine.count_direct")["self_s"],
        "bsengine.random_problem.self_s": row("bsengine.random_problem")["self_s"],
        "bsengine.mu_max.self_s": row("bsengine.mu_max")["self_s"],
        "bsengine.rank_one_domination.self_s": row("bsengine.rank_one_domination")["self_s"],
        "bsengine.hs_count_bound_check.self_s":
            row("bsengine.hs_count_bound_check")["self_s"],
        "iterbs.iterate.calls": row("iterbs.iterate")["calls"],
        "iterbs.iterate.self_s": row("iterbs.iterate")["self_s"],
        "iterbs.stages": row("iterbs.bs_step")["calls"],
        "cli.run.s": row("cli.run")["s"],
        "cli.run.self_s": row("cli.run")["self_s"],
        "cli.write_reports.s": row("cli.write_reports")["s"],
        "cli.report_bytes": checked.counters.get("cli.report_bytes", 0),
        "trace.spans": len(spans),
        "trace.top_self_share": top_self / pass_s if pass_s else 0.0,
    }
    for name in margin_names:
        m[f"check.{name}.margin"] = float(checked.margins.get(name, 0.0))
    return m


def traced_metrics(records, checked, margin_names):
    """Per-layer metrics: medians over the traced passes, plus diagnostics.

    Returns the metrics, the number of traced passes and the span table of
    the first traced pass.
    """
    plain = [r["seconds"] for r in records if not r["traced"]]
    traced = [(r, c) for r, c in zip(records, checked) if r["traced"]]
    rows = [layer_metrics(r["spans"], r["seconds"], c, margin_names) for r, c in traced]
    metrics = _median_metrics(rows)
    metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in records
                                                 if not r["traced"])
    metrics["trace.overhead_s"] = (statistics.median(r["seconds"] for r, _ in traced)
                                   - statistics.median(plain))
    table = tracing.aggregate(traced[0][0]["spans"])
    print(f"largest self-time entry: {next(iter(table))} "
          f"(share {metrics['trace.top_self_share']:.3f} of the traced pass)")
    unstable = sorted(k for k in rows[0] if k.endswith(".calls")
                      and len({row[k] for row in rows}) > 1)
    if unstable:
        print(f"note: call counts differ between traced passes: {unstable}")
    return metrics, len(rows), table


def print_gates(checked):
    """One line per gate over all passes, plus a line per failure."""
    names = dict.fromkeys(g.name for c in checked for g in c.gates)
    for name in names:
        mine = [(i, g) for i, c in enumerate(checked) for g in c.gates if g.name == name]
        bad = [f"pass {i}: {g.detail}" for i, g in mine if not g.passed]
        print(f"gate {name}: {'FAIL' if bad else 'PASS'} "
              f"({len(mine) - len(bad)}/{len(mine)} passes; {mine[0][1].detail})")
        for line in bad:
            print(f"  failed in {line}")


# ---------------------------------------------------------------------------
# main


def _median(values):
    """Median; for whole numbers the lower median, so counts stay counts."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _median_metrics(rows: list[dict]) -> dict:
    return {k: _median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_library()
    import workloads as workloads_mod

    if args.workload not in workloads_mod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads_mod.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    build, run, check = workloads_mod.WORKLOADS[args.workload]

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    inputs = build(args.seed)
    records = timed_passes(run, inputs, args.workload, args.seconds, args.trace)
    checked = [check(inputs, r["outputs"], r["pass_dir"]) for r in records]

    gates = [g for c in checked for g in c.gates]
    failed = sum(not g.passed for g in gates)
    print_gates(checked)
    plain = [r for r in records if not r["traced"]]
    solve = [r["seconds"] for r in plain]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "pass_seconds": [(r["traced"], r["seconds"]) for r in records],
              "setup_seconds": setup_times,
              "gates": [[g.__dict__ for g in c.gates] for c in checked],
              "margins": [c.margins for c in checked]}

    if args.trace:
        metrics, n_traced, record["span_table"] = traced_metrics(
            records, checked, workloads_mod.MARGINS)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(solve),
            "peak_rss_mb": plain[0]["peak_rss_mb"],
            "pass_ratio": 1.0 - failed / len(gates),
        }
    samples = {"setup_s": setup_times, "solve_s": solve}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for name in wanted:
        spread = ""
        if name in samples:
            spread = (f" (median of {len(samples[name])}, min {min(samples[name]):.4g},"
                      f" max {max(samples[name]):.4g})")
        elif args.trace:
            spread = f" (median of {n_traced} traced passes)"
        print(f"metric {name} = {metrics[name]!r} {units[name]}{spread}")
    print(f"fail_ratio = {failed}/{len(gates)}")
    record["metrics"] = {name: metrics[name] for name in wanted}
    with open(os.path.join(out_dir, f"result-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=repr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(gates),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

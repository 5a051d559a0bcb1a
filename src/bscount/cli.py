"""Configuration-driven command-line front end.

Runs the property suites (``verify``), the two-body experiments
(``twobody``), the resolvent-power kernel checks (``kernelcheck``), the
projection-subtraction demo (``iterbs-demo``) and the trimer scan
(``efimov``), writing a deterministic CSV data table plus a JSON summary
per run.

Configs are flat text with dotted keys, one ``key = value`` per line::

    command = "twobody"
    seed = 0xB5C0
    potential.kind = "square_well"
    potential.strength = 2.0
    grid.n = 1500
    scan.epsilons = [0.1, 0.5]

Unknown keys are rejected with their line and column.  Identical configs
(including the seed) produce byte-identical CSV bodies; all floats are
serialized with 17 significant digits and timings are isolated in the JSON
summary's ``timing`` key.

CSV columns per command (every file starts with a ``# schema=1`` line):

* verify:      check, cases, failures
* twobody:     epsilon, count_direct, count_bs, mu_max
* kernelcheck: gamma, epsilon, r, value, bound, closed_form, within_bound
               (closed_form is nan except at gamma = 0; value is nan where
               the kernel failed its bound; booleans are 0/1)
* iterbs-demo: k, count, hs_norm_Mk, consistency_residual
* efimov:      n, E_n, ratio_to_next, cutoff_stable
               (ratio_to_next is nan on the last row)
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .bsengine import (
    corpus_counts,
    hs_count_bound_check,
    mu_max,
    random_corpus,
    random_problem,
    rank_one_domination,
)
from .efimov import (
    SeparableModel,
    lambda_unitary,
    s0_oracle,
    trimer_spectrum,
)
from .iterbs import iterate, random_spectral_step
from .linop import DEFAULT_SEED, SymOperator, count_evs, hs_norm
from .radial import (
    PotentialSpec,
    RadialGrid,
    _resolvent_power_bound,
    bs_count_and_top,
    negative_count,
    resolvent_power_kernel,
)

logger = logging.getLogger("bscount")

COMMANDS = ("verify", "twobody", "kernelcheck", "iterbs-demo", "efimov")

CSV_SCHEMA = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_IO_ERROR = 3


class ConfigError(Exception):
    """Config rejection with a 1-based line/column location."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# config parsing

_KEY_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")

# allowed keys per command: name -> default (None means required... none are)
_COMMON_KEYS = {
    "command": None,
    "seed": DEFAULT_SEED,
    "output_path": ".",
}

_COMMAND_KEYS = {
    "verify": {
        "verify.bs_instances": 500,
        "verify.iterbs_instances": 200,
        "verify.bound_instances": 200,
    },
    "twobody": {
        "potential.kind": "square_well",
        "potential.strength": 2.0,
        "potential.range": 1.0,
        "potential.table": None,
        "grid.ell": 0,
        "grid.r_max": 60.0,
        "grid.n": 1500,
        "scan.epsilons": [0.5],
    },
    "kernelcheck": {
        "kernel.gammas": [0.0, 0.1, 0.2],
        "kernel.epsilons": [0.01, 0.1, 1.0, 10.0],
        "kernel.r_values": [0.2, 1.0, 5.0],
    },
    "iterbs-demo": {
        "iterbs.dim": 12,
        "iterbs.steps": 3,
    },
    "efimov": {
        "model.beta": 1.0,
        "model.coupling": "unitary",
        "model.p_max": 40.0,
        "model.n_p": 512,
        "model.grid_c": 300.0,
        "efimov.e_floor": -1.0,
    },
}


def _strip_comment(line: str) -> str:
    in_string = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i]
    return line


def _parse_scalar(text, line, column):
    text = text.strip()
    if not text:
        raise ConfigError("missing value", line, column)
    if text.startswith('"'):
        if not (text.endswith('"') and len(text) >= 2):
            raise ConfigError("unterminated string", line, column)
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text, 0)  # base 0 accepts 0x.. hex literals
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse value {text!r}", line, column) from None


def _parse_value(text, line, column):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError("unterminated list", line, column)
        body = text[1:-1].strip()
        if not body:
            return []
        return [_parse_scalar(part, line, column) for part in body.split(",")]
    return _parse_scalar(text, line, column)


def parse_config_text(text: str) -> tuple[dict, dict]:
    """Parse flat dotted-key config text into {key: value}, {key: (line, col)}."""
    values: dict = {}
    positions: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno,
                              len(line) - len(line.lstrip()) + 1)
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        key_col = raw.index(key) + 1 if key and key in raw else 1
        if not key or not _KEY_RE.match(key):
            raise ConfigError(f"malformed key {key!r}", lineno, 1)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno, key_col)
        value_col = raw.index("=") + 2
        values[key] = _parse_value(value_part, lineno, value_col)
        positions[key] = (lineno, key_col)
    return values, positions


def validate_config(values: dict, positions: dict, command: str | None) -> dict:
    """Merge defaults and reject unknown keys (strict parsing)."""
    cfg_command = values.get("command", command)
    if cfg_command is None:
        raise ConfigError("no command given (config key 'command' or CLI)", 1, 1)
    if cfg_command not in COMMANDS:
        line, col = positions.get("command", (1, 1))
        raise ConfigError(f"unknown command {cfg_command!r}", line, col)
    if command is not None and cfg_command != command:
        line, col = positions.get("command", (1, 1))
        raise ConfigError(
            f"config command {cfg_command!r} does not match CLI command "
            f"{command!r}", line, col)
    allowed = dict(_COMMON_KEYS)
    allowed.update(_COMMAND_KEYS[cfg_command])
    for key in values:
        if key not in allowed:
            line, col = positions[key]
            raise ConfigError(f"unknown key {key!r}", line, col)
    merged = {k: v for k, v in allowed.items() if v is not None}
    merged.update(values)
    merged["command"] = cfg_command
    seed = merged.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        line, col = positions.get("seed", (1, 1))
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}",
                          line, col)
    return merged


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_reports(out_dir: str, name: str, columns, rows, summary: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    body = [f"# schema={CSV_SCHEMA}", ",".join(columns)]
    body += [",".join(_fmt(cell) for cell in row) for row in rows]
    with open(csv_path, "w") as fh:
        fh.write("\n".join(body) + "\n")
    json_path = os.path.join(out_dir, f"{name}.summary.json")
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    logger.info("wrote %s and %s", csv_path, json_path)


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):  # numpy scalars become Python ones
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# pipelines: each returns (columns, rows, checks); every check counts its
# cases and failures, and ``run`` marks it passed when there are none


def _run_verify(cfg, jobs):
    rng = np.random.default_rng(cfg["seed"])
    checks = {}

    n_bs = int(cfg["verify.bs_instances"])
    for name, singular_a, fails in (("bs_equality", False, np.not_equal),
                                    ("bs_inequality", True, np.less)):
        direct, via_kernel = corpus_counts(random_corpus(n_bs, rng, singular_a=singular_a))
        checks[name] = {"cases": n_bs, "failures": int(np.sum(fails(via_kernel, direct)))}

    n_mu = 20
    failures = 0
    for _ in range(n_mu):
        p = random_problem(int(rng.integers(2, 12)), rng=rng)
        mus = mu_max(p, np.linspace(0.05, 2.0, 10))
        failures += not np.all(np.diff(mus) <= 1e-12)
    checks["mu_monotone"] = {"cases": n_mu, "failures": failures}

    n_iter = int(cfg["verify.iterbs_instances"])
    failures = 0
    max_residual = 0.0
    for _ in range(n_iter):
        dim = int(rng.integers(6, 16))
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        lam = rng.uniform(-0.8, 1.6, size=dim)
        k_total = SymOperator((q * lam) @ q.T)
        base = count_evs(k_total, ">", 1.0)
        steps = [random_spectral_step(k_total, rng)
                 for _ in range(int(rng.integers(1, 4)))]
        stages = iterate(k_total, steps)
        ok = all(count_evs(stage.t, ">", 1.0) == base for stage in stages)
        max_residual = max(max_residual,
                           max(s.consistency_residual for s in stages))
        failures += not ok
    checks["iterbs_invariance"] = {"cases": n_iter, "failures": failures,
                                   "max_residual": max_residual}

    n_bound = int(cfg["verify.bound_instances"])
    failures = 0
    for _ in range(n_bound):
        dim = int(rng.integers(3, 12))
        r = int(rng.integers(1, dim))
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :r]
        delta = float(rng.uniform(0.5, 3.0))
        holds, bound = hs_count_bound_check(
            SymOperator(delta * q @ q.T), delta, q)
        failures += (not holds) or abs(bound - r) > 1e-9 * r
    checks["hs_bound_extremal"] = {"cases": n_bound, "failures": failures}

    failures = 0
    for _ in range(n_bound):
        dim = int(rng.integers(2, 12))
        g = rng.standard_normal((dim, dim))
        a = SymOperator(g @ g.T)
        f = rng.standard_normal(dim)
        f /= np.linalg.norm(f)
        c = float(rng.uniform(0.05, 1.5))
        eps0 = float(rng.uniform(0.1, 2.0))
        # verifies its bound itself and raises RuntimeError when it fails
        try:
            rank_one_domination(f, a, epsilon0=eps0, c=c)
        except RuntimeError:
            failures += 1
    checks["rank_one_domination"] = {"cases": n_bound, "failures": failures}

    columns = ("check", "cases", "failures")
    rows = [(name, data["cases"], data["failures"])
            for name, data in checks.items()]
    return columns, rows, checks


def _load_potential(cfg) -> PotentialSpec:
    if cfg.get("potential.table"):
        table = np.loadtxt(cfg["potential.table"])
        if table.ndim != 2 or table.shape[1] != 2:
            raise ValueError("potential table files need two columns (r, v)")
        return PotentialSpec(kind="table", strength=float(cfg["potential.strength"]),
                             range=float(cfg["potential.range"]),
                             table_r=table[:, 0], table_v=table[:, 1])
    return PotentialSpec(kind=cfg["potential.kind"],
                         strength=float(cfg["potential.strength"]),
                         range=float(cfg["potential.range"]))


def _run_twobody(cfg, jobs):
    pot = _load_potential(cfg)
    grid = RadialGrid(ell=int(cfg["grid.ell"]), r_max=float(cfg["grid.r_max"]),
                      n=int(cfg["grid.n"]))
    epsilons = [float(e) for e in cfg["scan.epsilons"]]
    if not epsilons:
        raise ValueError("scan.epsilons is empty")

    def one(eps):
        return (negative_count(pot, grid, eps), *bs_count_and_top(pot, grid, eps))

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(one, epsilons))
    rows = [(eps, direct, via_kernel, mu)
            for eps, (direct, via_kernel, mu) in zip(epsilons, results)]
    mismatches = sum(direct != via_kernel for _, direct, via_kernel, _ in rows)
    checks = {"counts_agree": {"cases": len(rows), "failures": mismatches}}
    return ("epsilon", "count_direct", "count_bs", "mu_max"), rows, checks


def _run_kernelcheck(cfg, jobs):
    gammas = [float(g) for g in cfg["kernel.gammas"]]
    epsilons = [float(e) for e in cfg["kernel.epsilons"]]
    r_values = [float(r) for r in cfg["kernel.r_values"]]
    points = [(g, e, r) for g in gammas for e in epsilons for r in r_values]

    rows = []
    for gamma, eps, r_dist in points:
        try:  # raises on a value that is not finite or exceeds the bound
            value, within = resolvent_power_kernel(gamma, eps, r_dist), True
        except RuntimeError:
            value, within = float("nan"), False
        closed = np.exp(-np.sqrt(eps) * r_dist) / (4 * np.pi * r_dist) if gamma == 0.0 else np.nan
        rows.append((gamma, eps, r_dist, value, _resolvent_power_bound(1.0 + 2.0 * gamma, r_dist),
                     closed, within))
    mismatches = [not abs(row[3] / row[5] - 1.0) <= 1e-6 for row in rows if row[0] == 0.0]
    checks = {
        "bound_holds": {"cases": len(rows), "failures": sum(not row[-1] for row in rows)},
        "free_resolvent_match": {"cases": len(mismatches), "failures": sum(mismatches)},
    }
    return ("gamma", "epsilon", "r", "value", "bound", "closed_form",
            "within_bound"), rows, checks


def _run_iterbs_demo(cfg, jobs):
    rng = np.random.default_rng(cfg["seed"])
    dim = int(cfg["iterbs.dim"])
    n_steps = int(cfg["iterbs.steps"])
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    lam = rng.uniform(-0.8, 1.6, size=dim)
    k_total = SymOperator((q * lam) @ q.T)
    base = count_evs(k_total, ">", 1.0)
    steps = [random_spectral_step(k_total, rng) for _ in range(n_steps)]
    stages = iterate(k_total, steps)
    rows = [(0, base, 0.0, 0.0)]
    failures = 0
    for k, stage in enumerate(stages, start=1):
        cnt = count_evs(stage.t, ">", 1.0)
        failures += cnt != base
        rows.append((k, cnt, hs_norm(stage.m), stage.consistency_residual))
    checks = {"count_invariant": {"cases": n_steps, "failures": failures}}
    return ("k", "count", "hs_norm_Mk", "consistency_residual"), rows, checks


def _run_efimov(cfg, jobs):
    beta = float(cfg["model.beta"])
    coupling = cfg["model.coupling"]
    at_unitarity = coupling == "unitary"
    lam = lambda_unitary(beta) if at_unitarity else float(coupling)
    model = SeparableModel(beta=beta, lam=lam, p_max=float(cfg["model.p_max"]),
                           n_p=int(cfg["model.n_p"]),
                           grid_c=float(cfg["model.grid_c"]))
    levels = trimer_spectrum(model, float(cfg["efimov.e_floor"]))
    rows = []
    for n, level in enumerate(levels):
        ratio = (levels[n].energy / levels[n + 1].energy
                 if n + 1 < len(levels) else float("nan"))
        rows.append((n, level.energy, ratio, level.cutoff_stable))
    checks = {}
    if at_unitarity:
        enough = len(levels) >= 3
        checks["levels_resolved"] = {"cases": 1, "failures": int(not enough)}
        if enough:
            _, ratio_star = s0_oracle()
            last_ratio = levels[-2].energy / levels[-1].energy
            ok = abs(last_ratio / ratio_star - 1.0) < 0.1
            checks["accumulation_ratio"] = {
                "cases": 1, "failures": int(not ok),
                "ratio": last_ratio, "oracle": ratio_star}
    else:
        checks["scan_complete"] = {"cases": 1, "failures": 0,
                                   "levels": len(levels)}
    return ("n", "E_n", "ratio_to_next", "cutoff_stable"), rows, checks


_PIPELINES = {
    "verify": _run_verify,
    "twobody": _run_twobody,
    "kernelcheck": _run_kernelcheck,
    "iterbs-demo": _run_iterbs_demo,
    "efimov": _run_efimov,
}


# ---------------------------------------------------------------------------
# entry point


def _configure_logging():
    level_name = os.environ.get("BSCOUNT_LOG", "error")
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"bscount: ignoring unknown BSCOUNT_LOG={level_name!r} "
              f"(expected error, info or debug)", file=sys.stderr)
        level_name = "error"
    logging.basicConfig(level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def run(config: dict, jobs: int | None = None, out_dir: str | None = None) -> int:
    """Execute a validated config; returns the process exit status."""
    command = config["command"]
    jobs = jobs or os.cpu_count() or 1
    out_dir = out_dir or config.get("output_path", ".")
    t0 = time.perf_counter()
    try:
        columns, rows, checks = _PIPELINES[command](config, jobs)
    except (ValueError, RuntimeError) as exc:
        print(f"bscount {command}: numerical check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    elapsed = time.perf_counter() - t0
    for data in checks.values():
        data["pass"] = data["failures"] == 0
    failed = [name for name, data in checks.items() if not data["pass"]]
    summary = {
        "command": command,
        "config": {k: v for k, v in sorted(config.items())},
        "seed": config["seed"],
        "version": __version__,
        "checks": checks,
        "status": EXIT_CHECK_FAILED if failed else EXIT_OK,
        "timing": {"seconds": elapsed},
    }
    try:
        write_reports(out_dir, command, columns, rows, summary)
    except OSError as exc:
        print(f"bscount {command}: cannot write reports: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    if failed:
        print(f"bscount {command}: check failed: {failed[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type of ``--jobs``: a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def main(argv=None) -> int:
    _configure_logging()
    parser = argparse.ArgumentParser(
        prog="bscount",
        description="Birman-Schwinger counting experiments and property suites")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat dotted-key config file")
        p.add_argument("--jobs", type=_positive_int, default=None,
                       help="worker pool size for scan points (default: cores)")
        p.add_argument("--seed", default=None,
                       help="64-bit seed overriding the config")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"bscount: cannot read config: {exc}", file=sys.stderr)
                return EXIT_IO_ERROR
            values, positions = parse_config_text(text)
        else:
            values, positions = {}, {}
        config = validate_config(values, positions, args.command)
        if args.seed is not None:
            seed = int(args.seed, 0)
            if not 0 <= seed < 2**64:
                raise ConfigError("seed flag out of 64-bit range", 0, 0)
            config["seed"] = seed
    except (ConfigError, ValueError) as exc:
        print(f"bscount: config error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR

    return run(config, jobs=args.jobs, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the command-line front end and its config format."""

import json
import os

import numpy as np
import pytest

from bscount import bsengine, cli, radial
from bscount.cli import (
    ConfigError,
    EXIT_CHECK_FAILED,
    EXIT_IO_ERROR,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    main,
    parse_config_text,
    validate_config,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parser


def test_parse_scalar_types():
    values, _ = parse_config_text(
        'command = "verify"\n'
        "seed = 0xB5C0\n"
        "verify.bs_instances = 12\n")
    assert values["command"] == "verify"
    assert values["seed"] == 0xB5C0
    assert values["verify.bs_instances"] == 12


def test_parse_lists_and_comments():
    values, _ = parse_config_text(
        "# a comment line\n"
        "scan.epsilons = [0.1, 0.5, 1.0]  # trailing comment\n")
    assert values["scan.epsilons"] == [0.1, 0.5, 1.0]


def test_parse_reports_line_and_column():
    with pytest.raises(ConfigError) as info:
        parse_config_text("command = \"verify\"\nnot a key value line\n")
    assert info.value.line == 2


def test_parse_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_validate_rejects_unknown_key_with_position():
    values, positions = parse_config_text(
        'command = "twobody"\npotential.kidn = "yukawa"\n')
    with pytest.raises(ConfigError) as info:
        validate_config(values, positions, None)
    assert "potential.kidn" in str(info.value)
    assert info.value.line == 2


def test_validate_rejects_bad_seed():
    values, positions = parse_config_text('command = "verify"\nseed = -3\n')
    with pytest.raises(ConfigError, match="seed"):
        validate_config(values, positions, None)


def test_validate_defaults_seed():
    cfg = validate_config({"command": "verify"}, {}, None)
    assert cfg["seed"] == 0xB5C0


def test_validate_command_mismatch():
    values, positions = parse_config_text('command = "verify"\n')
    with pytest.raises(ConfigError, match="does not match"):
        validate_config(values, positions, "efimov")


# ---------------------------------------------------------------------------
# end-to-end runs


def test_unknown_key_exits_2_without_outputs(tmp_path, capsys):
    cfg = write(tmp_path, "bad.conf", 'command = "twobody"\nbad.key = 1\n')
    out = tmp_path / "out"
    status = main(["twobody", "--config", cfg, "--out", str(out)])
    assert status == EXIT_PARSE_ERROR
    assert "line 2" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_twobody_grid_scheme_is_an_unknown_key(tmp_path, capsys):
    # twobody counts on the finite-difference grid only, so it takes no scheme
    cfg = write(tmp_path, "tb.conf",
                'command = "twobody"\n'
                "grid.n = 600\n"
                '  grid.scheme = "gauss_legendre"\n')
    out = tmp_path / "out"
    status = main(["twobody", "--config", cfg, "--out", str(out)])
    assert status == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert "unknown key 'grid.scheme'" in err
    assert "line 3, column 3" in err
    assert not out.exists() or not list(out.iterdir())


def test_verify_small_run_writes_reports(tmp_path):
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\n'
                "verify.bs_instances = 40\n"
                "verify.iterbs_instances = 10\n"
                "verify.bound_instances = 10\n")
    status = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert status == EXIT_OK
    csv_text = (tmp_path / "verify.csv").read_text()
    assert csv_text.startswith("# schema=1\n")
    summary = json.loads((tmp_path / "verify.summary.json").read_text())
    assert summary["status"] == 0
    assert summary["seed"] == 0xB5C0
    assert summary["checks"]["bs_equality"]["failures"] == 0
    assert "seconds" in summary["timing"]
    assert summary["version"]


def test_verify_counts_a_failed_rank_one_bound(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("rank-one domination bound violated")

    monkeypatch.setattr(cli, "rank_one_domination", fail)
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\n'
                "verify.bs_instances = 10\n"
                "verify.iterbs_instances = 2\n"
                "verify.bound_instances = 3\n")
    status = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert status == EXIT_CHECK_FAILED
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    rows = {row[0]: row[1:] for row in (line.split(",") for line in lines[2:])}
    assert rows["rank_one_domination"] == ["3", "3"]
    assert rows["bs_equality"] == ["10", "0"]
    assert "check failed: rank_one_domination" in capsys.readouterr().err


def test_verify_deterministic_csv_bytes(tmp_path):
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\n'
                "verify.bs_instances = 30\n"
                "verify.iterbs_instances = 5\n"
                "verify.bound_instances = 5\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\nseed = 7\n'
                "verify.bs_instances = 10\n"
                "verify.iterbs_instances = 2\n"
                "verify.bound_instances = 2\n")
    status = main(["verify", "--config", cfg, "--out", str(tmp_path),
                   "--seed", "0x123"])
    assert status == EXIT_OK
    summary = json.loads((tmp_path / "verify.summary.json").read_text())
    assert summary["seed"] == 0x123


def test_twobody_subcritical_counts_all_zero(tmp_path):
    cfg = write(tmp_path, "tb.conf",
                'command = "twobody"\n'
                'potential.kind = "square_well"\n'
                "potential.strength = 2.0\n"
                "grid.n = 600\n"
                "scan.epsilons = [0.05, 0.2, 0.5]\n")
    status = main(["twobody", "--config", cfg, "--out", str(tmp_path),
                   "--jobs", "2"])
    assert status == EXIT_OK
    lines = (tmp_path / "twobody.csv").read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "epsilon,count_direct,count_bs,mu_max"
    for line in lines[2:]:
        cells = line.split(",")
        assert cells[1] == "0" and cells[2] == "0"


def test_twobody_table_potential(tmp_path):
    table = tmp_path / "pot.txt"
    r = np.linspace(0.01, 3.0, 80)
    np.savetxt(table, np.column_stack([r, np.exp(-r)]))
    cfg = write(tmp_path, "tb.conf",
                'command = "twobody"\n'
                f'potential.table = "{table}"\n'
                "potential.strength = 18.0\n"
                "grid.n = 600\n"
                "scan.epsilons = [0.1]\n")
    status = main(["twobody", "--config", cfg, "--out", str(tmp_path)])
    assert status == EXIT_OK
    lines = (tmp_path / "twobody.csv").read_text().strip().splitlines()
    cells = lines[2].split(",")
    assert cells[1] == cells[2]  # counts agree
    assert int(cells[1]) >= 1    # the deep table well binds


def test_twobody_jobs_invariant_and_box_warning(tmp_path):
    cfg = write(tmp_path, "tb.conf",
                'command = "twobody"\n'
                "potential.strength = 10.0\n"
                "grid.r_max = 10.0\n"   # at 10x the range: box effects warned
                "grid.n = 300\n"
                "scan.epsilons = [0.05, 0.2, 0.5, 1.0, 2.0]\n")
    csv = []
    for jobs in ("1", "4"):
        out = tmp_path / jobs
        with pytest.warns(UserWarning, match="box effects"):
            status = main(["twobody", "--config", cfg, "--out", str(out),
                           "--jobs", jobs])
        assert status == EXIT_OK
        csv.append((out / "twobody.csv").read_bytes())
    assert csv[0] == csv[1]


def test_iterbs_demo_columns_and_invariance(tmp_path):
    status = main(["iterbs-demo", "--out", str(tmp_path)])
    assert status == EXIT_OK
    lines = (tmp_path / "iterbs-demo.csv").read_text().strip().splitlines()
    assert lines[1] == "k,count,hs_norm_Mk,consistency_residual"
    counts = [row.split(",")[1] for row in lines[2:]]
    assert len(set(counts)) == 1  # invariant across stages
    residuals = [float(row.split(",")[3]) for row in lines[2:]]
    assert max(residuals) <= 1e-8


def test_kernelcheck_reports_bound_and_match(tmp_path):
    cfg = write(tmp_path, "k.conf",
                'command = "kernelcheck"\n'
                "kernel.gammas = [0.0, 0.2]\n"
                "kernel.epsilons = [0.5, 2.0]\n"
                "kernel.r_values = [0.5, 2.0]\n")
    status = main(["kernelcheck", "--config", cfg, "--out", str(tmp_path)])
    assert status == EXIT_OK
    summary = json.loads((tmp_path / "kernelcheck.summary.json").read_text())
    assert summary["checks"]["bound_holds"]["pass"]
    assert summary["checks"]["free_resolvent_match"]["pass"]


def test_kernelcheck_counts_a_failed_bound_and_writes_reports(tmp_path, monkeypatch, capsys):
    bound = radial._resolvent_power_bound
    monkeypatch.setattr(radial, "_resolvent_power_bound", lambda p, r: 0.5 * bound(p, r))
    status = main(["kernelcheck", "--out", str(tmp_path)])
    assert status == EXIT_CHECK_FAILED
    lines = (tmp_path / "kernelcheck.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    failed = [row for row in rows if row["within_bound"] == "0"]
    assert 0 < len(failed) < len(rows) == 36
    assert all(row["value"] == "nan" for row in failed)
    summary = json.loads((tmp_path / "kernelcheck.summary.json").read_text())
    assert summary["checks"]["bound_holds"]["failures"] == len(failed)
    # a point with no value fails the closed-form match too
    closed_failed = [row for row in failed if row["gamma"] == "0"]
    assert closed_failed
    assert summary["checks"]["free_resolvent_match"]["failures"] == len(closed_failed)
    assert summary["status"] == EXIT_CHECK_FAILED
    assert "check failed: bound_holds" in capsys.readouterr().err


def test_verify_bs_sections_solve_one_stack_per_dimension(tmp_path, monkeypatch):
    # building a stack decomposes each A and solves each A + B, counting it
    # solves each K(eps): a fallback to solves per problem would multiply these
    calls, stacks, counting = {"eigh": 0, "eigvalsh": 0}, [], [False]
    for name in calls:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += counting[0]
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def corpus(*args, **kwargs):
        for s in bsengine.random_corpus(*args, **kwargs):
            stacks.append(s)
            yield s

    def corpus_counts(corpus):
        counting[0] = True
        try:
            return bsengine.corpus_counts(corpus)
        finally:
            counting[0] = False

    monkeypatch.setattr(cli, "random_corpus", corpus)
    monkeypatch.setattr(cli, "corpus_counts", corpus_counts)
    cfg = write(tmp_path, "v.conf",
                'command = "verify"\n'
                "verify.bs_instances = 40\n"
                "verify.iterbs_instances = 2\n"
                "verify.bound_instances = 2\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    assert sum(len(s.epsilon) for s in stacks) == 80 > len(stacks)
    assert calls == {"eigh": len(stacks), "eigvalsh": 2 * len(stacks)}


def test_efimov_detuned_run(tmp_path):
    cfg = write(tmp_path, "e.conf",
                'command = "efimov"\n'
                "model.coupling = 0.08\n"   # below unitarity ~ 0.1013
                "model.n_p = 128\n"
                "model.grid_c = 100.0\n"
                "efimov.e_floor = -1.0\n")
    status = main(["efimov", "--config", cfg, "--out", str(tmp_path)])
    assert status == EXIT_OK
    lines = (tmp_path / "efimov.csv").read_text().strip().splitlines()
    assert lines[1] == "n,E_n,ratio_to_next,cutoff_stable"
    summary = json.loads((tmp_path / "efimov.summary.json").read_text())
    assert summary["checks"]["scan_complete"]["pass"]


SMALL_CONFIGS = {
    "verify": "verify.bs_instances = 10\nverify.iterbs_instances = 2\n"
              "verify.bound_instances = 2\n",
    "twobody": "grid.n = 600\nscan.epsilons = [0.05, 0.5]\n",
    "kernelcheck": "",
    "iterbs-demo": "",
    "efimov": "model.n_p = 128\n",
}


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_run_alone_marks_checks_passed(command, tmp_path):
    text = f'command = "{command}"\n' + SMALL_CONFIGS[command]
    cfg = write(tmp_path, "c.conf", text)
    values, positions = parse_config_text(text)
    _, _, checks = cli._PIPELINES[command](validate_config(values, positions, command), 1)
    assert checks and all("pass" not in data for data in checks.values())
    status = main([command, "--config", cfg, "--out", str(tmp_path), "--jobs", "1"])
    summary = json.loads((tmp_path / f"{command}.summary.json").read_text())
    assert summary["checks"].keys() == checks.keys()
    for data in summary["checks"].values():
        assert data["pass"] is (data["failures"] == 0)
    all_pass = all(data["pass"] for data in summary["checks"].values())
    assert status == summary["status"] == (EXIT_OK if all_pass else EXIT_CHECK_FAILED)


def test_run_names_the_first_failed_check(tmp_path, monkeypatch, capsys):
    checks = {"fine": {"cases": 2, "failures": 0}, "broken": {"cases": 2, "failures": 1},
              "also_broken": {"cases": 1, "failures": 1}}
    monkeypatch.setitem(cli._PIPELINES, "iterbs-demo",
                        lambda cfg, jobs: (("k",), [(0,)], checks))
    assert main(["iterbs-demo", "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
    summary = json.loads((tmp_path / "iterbs-demo.summary.json").read_text())
    assert summary["status"] == EXIT_CHECK_FAILED
    assert {name: data["pass"] for name, data in summary["checks"].items()} == {
        "fine": True, "broken": False, "also_broken": False}
    assert "check failed: broken" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1", "-3", "two"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_jobs_must_be_a_positive_integer(command, jobs, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--jobs", jobs, "--out", str(tmp_path)])
    assert exit_info.value.code == EXIT_PARSE_ERROR
    assert "--jobs" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_io_error_exits_3(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    status = main(["iterbs-demo", "--out", str(target)])
    assert status == EXIT_IO_ERROR


def test_missing_config_file_exits_3(tmp_path):
    status = main(["verify", "--config", str(tmp_path / "nope.conf")])
    assert status == EXIT_IO_ERROR


def test_numbers_have_17_significant_digits(tmp_path):
    cfg = write(tmp_path, "tb.conf",
                'command = "twobody"\n'
                "grid.n = 600\n"
                "scan.epsilons = [0.2]\n")
    assert main(["twobody", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "twobody.csv").read_text().strip().splitlines()
    eps_cell = lines[2].split(",")[0]
    assert eps_cell == format(0.2, ".17g")


def test_bad_log_env_falls_back(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BSCOUNT_LOG", "chatty")
    status = main(["iterbs-demo", "--out", str(tmp_path)])
    assert status == EXIT_OK
    assert "BSCOUNT_LOG" in capsys.readouterr().err

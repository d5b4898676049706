import gc
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import revivalwalk.config
from revivalwalk import (
    MomentumPropagator,
    build_instance,
    cli,
    load_config,
    random_cyclic_phases,
    spectrum_sweep,
    trajectory,
)
from revivalwalk.golden import golden_config_text


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "revivalwalk.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def table1_path(tmp_path):
    path = tmp_path / "table1.json"
    path.write_text(golden_config_text(1))
    return str(path)


@pytest.fixture
def table2_path(tmp_path):
    path = tmp_path / "table2.json"
    path.write_text(golden_config_text(2))
    return str(path)


@pytest.mark.parametrize("which", ["1", "2", "3"])
def test_reproduce_table_passes_with_exit_zero(which):
    proc = run_cli("reproduce-table", "--which", which)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["pass"] is True
    assert record["max_abs_deviation"] <= 1e-12


def test_walk_run_record_and_csv(table1_path, tmp_path):
    out = tmp_path / "record.json"
    csv_path = tmp_path / "probs.csv"
    proc = run_cli("walk-run", "--config", table1_path, "--out", str(out), "--csv", str(csv_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["schema_version"] == 1
    assert record["period"] == 2
    assert len(record["steps"]) == record["max_steps"] + 1
    assert record["steps"][0]["state"][0]["coin"] == 1  # labels are 1-based

    raw = csv_path.read_bytes()
    assert b"\r" not in raw  # LF endings
    lines = raw.decode("utf-8").strip().split("\n")
    assert lines[0] == "step,x1,probability"
    sums: dict[str, float] = {}
    for line in lines[1:]:
        step_label, _, prob = line.split(",")
        sums[step_label] = sums.get(step_label, 0.0) + float(prob)
    assert set(sums) == {str(t) for t in range(record["max_steps"] + 1)}
    for total in sums.values():
        assert abs(total - 1.0) <= 1e-9


def test_walk_period(table2_path):
    proc = run_cli("walk-period", "--config", table2_path)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["period"] == 3
    assert record["mode"] == "exact"
    assert len(record["fidelity_series"]) == 4


def test_coin_build_and_order(table2_path):
    built = run_cli("coin-build", "--config", table2_path)
    assert built.returncode == 0, built.stderr
    record = json.loads(built.stdout)
    assert record["kind"] == "cyclic"
    assert record["n"] == 3
    assert math.isclose(record["matrix"][0][2]["re"], 1.0, abs_tol=1e-12)
    assert math.isclose(record["matrix"][1][0]["re"], -0.5, abs_tol=1e-12)

    order = run_cli("coin-order", "--config", table2_path)
    assert order.returncode == 0
    assert json.loads(order.stdout)["order"] == 3


def test_spectrum_flat_and_deterministic(table2_path):
    first = run_cli("spectrum", "--config", table2_path, "--samples", "8", "--seed", "5")
    second = run_cli("spectrum", "--config", table2_path, "--samples", "8", "--seed", "5")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    record = json.loads(first.stdout)
    assert record["k_independent"] is True
    assert record["matches_roots_of_unity"] is True
    assert len(record["eigenvalues"]) == 8
    assert {"re", "im", "arg"} <= set(record["eigenvalues"][0][0])


def test_spectrum_dispersive_counter_check(tmp_path):
    config = {
        "d": 1,
        "n": 2,
        "coin": {"kind": "general_1d", "theta": "pi/4", "phi1": 0, "phi2": 0},
        "shifts": [[-1, 1]],
        "initial": [{"position": [0], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}],
    }
    path = tmp_path / "hadamard.json"
    path.write_text(json.dumps(config))
    proc = run_cli("spectrum", "--config", str(path), "--samples", "10")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["k_independent"] is False


@pytest.mark.parametrize(
    "args, name",
    [
        (("spectrum", "--samples", "1"), "--samples"),
        (("spectrum", "--samples", "0"), "--samples"),
        (("spectrum", "--seed", "-1"), "--seed"),
        (("coin-order", "--max-order", "0"), "--max-order"),
    ],
)
def test_out_of_range_arguments_exit_2_naming_the_argument(table2_path, args, name):
    proc = run_cli(*args, "--config", table2_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"argument {name}: must be >= " in proc.stderr.strip().splitlines()[-1]


def test_spectrum_over_the_memory_budget_exits_2_in_one_line(table2_path):
    proc = run_cli("spectrum", "--config", table2_path, "--samples", str(10**12))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("argument error: ") and proc.stderr.count("\n") == 1
    assert f"{10**12} samples" in proc.stderr and "budget" in proc.stderr


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 1, "n": 2')
    proc = run_cli("walk-run", "--config", str(bad))
    assert proc.returncode == 2
    assert "config error" in proc.stderr

    violating = tmp_path / "violating.json"
    violating.write_text(
        json.dumps(
            {
                "d": 1,
                "n": 2,
                "coin": {"kind": "cyclic", "phases": [0, 0]},
                "shifts": [[1, 2]],
                "initial": [{"position": [0], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}],
            }
        )
    )
    proc = run_cli("walk-period", "--config", str(violating))
    assert proc.returncode == 2
    assert "shifts[0]" in proc.stderr


def test_missing_config_file_is_a_config_error():
    proc = run_cli("coin-order", "--config", "/nonexistent/walk.json")
    assert proc.returncode == 2


def test_unreadable_config_path_is_a_config_error(tmp_path):
    proc = run_cli("walk-run", "--config", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_is_an_output_error(table1_path, tmp_path, flag):
    target = tmp_path / "missing" / "file"
    proc = run_cli("walk-run", "--config", table1_path, flag, str(target))
    assert proc.returncode == 3
    assert proc.stderr.startswith("output error:")
    assert str(target) in proc.stderr


@pytest.mark.parametrize("csv_name", ["same", "./same"])
def test_walk_run_refuses_a_csv_at_the_out_path(
    table1_path, tmp_path, monkeypatch, capsys, csv_name
):
    target = tmp_path / "same"
    target.write_bytes(b"an earlier file\n")
    monkeypatch.chdir(tmp_path)
    argv = ["walk-run", "--config", table1_path, "--out", str(target), "--csv", csv_name]
    assert cli.main(argv) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("argument error:")
    assert len(stderr.strip().splitlines()) == 1
    assert "--csv" in stderr
    assert target.read_bytes() == b"an earlier file\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["same", "table1.json"]


def test_walk_period_with_zero_steps_reports_no_period(tmp_path):
    config = json.loads(golden_config_text(1))
    config["max_steps"] = 0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(config))
    proc = run_cli("walk-period", "--config", str(path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["period"] is None
    assert record["fidelity_series"] == [pytest.approx(1.0, abs=1e-12)]
    assert record["distance_series"] == [0.0]


def test_infinite_revival_tolerance_is_a_config_error(tmp_path):
    config = json.loads(golden_config_text(1))
    config["tolerances"] = {"revival": "X"}
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(config).replace('"X"', "1e309"))
    proc = run_cli("walk-period", "--config", str(path))
    assert proc.returncode == 2
    assert "tolerances.revival" in proc.stderr


def _swap_walk_from(tmp_path, coordinate):
    config = {
        "d": 1,
        "n": 2,
        "coin": {"kind": "cyclic", "phases": [0, 0]},
        "shifts": [[-1, 1]],
        "initial": [{"position": [coordinate], "coin": 1, "amp_re": 1.0, "amp_im": 0.0}],
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_coordinate_beyond_64_bits_is_a_config_error(tmp_path):
    proc = run_cli("walk-period", "--config", _swap_walk_from(tmp_path, 2**70))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: initial[0].position[0]:")


def test_walk_leaving_the_coordinate_range_exits_2_in_one_line(tmp_path):
    proc = run_cli("walk-period", "--config", _swap_walk_from(tmp_path, 2**63 - 1))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "outside the supported coordinate range" in proc.stderr


def test_failed_walk_run_leaves_no_file_and_keeps_an_existing_one(tmp_path):
    config = _swap_walk_from(tmp_path, 2**63 - 1)
    out, csv_path = tmp_path / "record.json", tmp_path / "probs.csv"
    for earlier in (None, b"an earlier record\n"):
        if earlier is not None:
            out.write_bytes(earlier)
        proc = run_cli("walk-run", "--config", config, "--out", str(out), "--csv", str(csv_path))
        assert proc.returncode == 2
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "outside the supported coordinate range" in proc.stderr
        left = sorted(path.name for path in tmp_path.iterdir())
        if earlier is None:
            assert left == ["edge.json"]
        else:
            assert left == ["edge.json", "record.json"]
            assert out.read_bytes() == earlier


COMMANDS = [
    ("coin-build", "--config", "{config}"),
    ("coin-order", "--config", "{config}"),
    ("walk-run", "--config", "{config}"),
    ("walk-period", "--config", "{config}"),
    ("spectrum", "--config", "{config}", "--samples", "6"),
    ("reproduce-table", "--which", "3"),
]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
def test_out_bytes_equal_stdout_bytes_as_one_compact_line(table2_path, tmp_path, capsysbinary,
                                                          command):
    args = [arg.format(config=table2_path) for arg in command]
    out = tmp_path / "record.json"
    assert cli.main(args) == 0
    printed = capsysbinary.readouterr().out
    assert cli.main([*args, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed
    text = printed.decode("utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"


@pytest.mark.parametrize("which", [1, 2, 3])
def test_walk_run_outputs_match_the_trajectory(tmp_path, which):
    path = tmp_path / "walk.json"
    path.write_text(golden_config_text(which))
    out, csv_path = tmp_path / "record.json", tmp_path / "probs.csv"
    assert cli.main(["walk-run", "--config", str(path), "--out", str(out),
                     "--csv", str(csv_path)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))

    config = load_config(path)
    steps, fidelity, distance, period = [], [], [], None
    for t, state, f, dist, revived in trajectory(build_instance(config), config.max_steps,
                                                 config.revival_mode):
        fidelity.append(f)
        distance.append(dist)
        if revived and period is None:
            period = t
        rows = [{"position": list(pos), "coin": j + 1, "re": float(amp.real),
                 "im": float(amp.imag)}
                for pos, vec in sorted(state.items()) for j, amp in enumerate(vec) if amp != 0]
        steps.append({"t": t, "state": rows})
    assert record == {
        "schema_version": 1, "d": config.d, "n": config.n,
        "revival_mode": config.revival_mode.value, "max_steps": config.max_steps,
        "period": period, "fidelity_series": fidelity, "distance_series": distance,
        "steps": steps,
    }

    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(["step", *[f"x{r + 1}" for r in range(config.d)], "probability"])
    expected = []
    for entry in record["steps"]:
        totals = {}
        for row in entry["state"]:
            pos = tuple(row["position"])
            totals[pos] = totals.get(pos, 0.0) + row["re"] ** 2 + row["im"] ** 2
        expected.extend((entry["t"], pos, totals[pos]) for pos in sorted(totals))
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(row[0]), tuple(map(int, row[1:-1]))) for row in rows] == [
        (t, pos) for t, pos, _ in expected]
    assert [float(row[-1]) for row in rows] == [p for _, _, p in expected]  # same sums, same order


def test_walk_run_memory_does_not_grow_with_the_step_count(tmp_path):
    out, csv_path = tmp_path / "record.json", tmp_path / "probs.csv"

    def peak(max_steps):
        config = json.loads(golden_config_text(3))
        config["max_steps"] = max_steps
        path = tmp_path / f"walk{max_steps}.json"
        path.write_text(json.dumps(config))
        gc.collect()  # empty the free lists that earlier tests filled, which tracemalloc counts
        tracemalloc.start()
        try:
            assert cli.main(["walk-run", "--config", str(path), "--out", str(out),
                             "--csv", str(csv_path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(400)  # warm lazily built caches
    assert peak(400) <= 2 * peak(100)


def test_walks_leave_numpy_ma_unimported(table1_path, tmp_path):
    # numpy.ma (pulled in by np.unique(axis=0)) costs about 1 MB of peak memory.
    script = (
        "import sys\n"
        "from revivalwalk import cli\n"
        f"assert cli.main(['walk-period', '--config', {table1_path!r}, '--out', {str(tmp_path / 'p.json')!r}]) == 0\n"
        f"assert cli.main(['walk-run', '--config', {table1_path!r}, '--out', {str(tmp_path / 'r.json')!r}, "
        f"'--csv', {str(tmp_path / 'r.csv')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _per_eigenvalue_spectrum_record(config, samples, seed):
    """The spectrum record built one np.angle call per eigenvalue."""
    prop = MomentumPropagator(coin=config.instance.coin, shifts=config.instance.shifts)
    report = spectrum_sweep(prop, samples, seed=seed, tol=config.tolerances.mat)
    return {
        "schema_version": 1,
        "n": config.n,
        "d": config.d,
        "samples": len(report.k_samples),
        "k_samples": [list(k) for k in report.k_samples],
        "eigenvalues": [
            [{"re": v.real, "im": v.imag, "arg": float(np.angle(v))} for v in eigen_set]
            for eigen_set in report.eigenvalue_sets
        ],
        "k_independent": report.k_independent,
        "matches_roots_of_unity": report.matches_roots_of_unity,
    }


@pytest.mark.parametrize("d, n, samples", [(1, 3, 8), (3, 16, 300)])
def test_spectrum_record_equals_the_per_eigenvalue_build_bytewise(tmp_path, d, n, samples):
    rng = np.random.default_rng(n)
    menu = [a for a in range(-(n // 2), n // 2 + 1) if a != 0 or n % 2]  # sums to zero
    config = {
        "d": d,
        "n": n,
        "coin": {"kind": "cyclic", "phases": [float(p) for p in random_cyclic_phases(n, rng)]},
        "shifts": [[int(a) for a in rng.permutation(menu)] for _ in range(d)],
        "initial": [{"position": [0] * d, "coin": 1, "amp_re": 1.0, "amp_im": 0.0}],
    }
    path, out = tmp_path / "spectrum.json", tmp_path / "record.json"
    path.write_text(json.dumps(config))
    assert cli.main(["spectrum", "--config", str(path), "--samples", str(samples),
                     "--seed", "4", "--out", str(out)]) == 0
    expected = _per_eigenvalue_spectrum_record(load_config(path), samples, 4)
    assert out.read_bytes() == (json.dumps(expected, separators=(",", ":")) + "\n").encode()


def test_stray_and_missing_coin_fields_exit_2_naming_the_field(tmp_path):
    config = json.loads(golden_config_text(2))
    for coin, field in [({**config["coin"], "r": 2, "theta": 1.0}, "coin.r"),
                        ({"kind": "partial_cycle", "phases": [0, 0]}, "coin.r")]:
        path = tmp_path / "coin.json"
        path.write_text(json.dumps({**config, "coin": coin}))
        proc = run_cli("walk-period", "--config", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"config error: {field}: ")


@pytest.mark.parametrize("command", ["spectrum", "coin-build", "coin-order"])
def test_command_builds_the_coin_once(table2_path, tmp_path, monkeypatch, command):
    calls = []
    build = revivalwalk.config._build_coin

    def counting_build(config):
        calls.append(config)
        return build(config)

    monkeypatch.setattr(revivalwalk.config, "_build_coin", counting_build)
    out = tmp_path / "record.json"
    assert cli.main([command, "--config", table2_path, "--out", str(out)]) == 0
    assert len(calls) == 1


def test_console_entry_point_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for command in ("coin-build", "walk-run", "spectrum", "reproduce-table"):
        assert command in proc.stdout

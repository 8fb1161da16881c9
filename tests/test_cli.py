"""Command line interface: subcommands, exit codes, deterministic bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, env=None):
    # the child process finds the package in the checkout, installed or not
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "revmaps.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)


def test_construct_json():
    r = run_cli("construct", "--family", "psl2", "--p", "5", "--k", "2")
    assert r.returncode == 0
    rec = json.loads(r.stdout)
    assert rec["chi"] == 1
    assert rec["counts"] == {"V": 6, "E": 30, "F1": 10, "F2": 15, "F": 25}


def test_construct_text():
    r = run_cli("construct", "--family", "psl2", "--p", "5", "--format", "text")
    assert r.returncode == 0
    assert "chi=1" in r.stdout


def test_construct_rejects_bad_ext_parity():
    r = run_cli("construct", "--family", "ext", "--p", "5", "--m", "3")
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_verify_passes_and_exits_zero():
    r = run_cli("verify", "--family", "pgl2", "--p", "5")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] == "pass"


def test_enumerate_lists_the_census():
    r = run_cli("enumerate", "--family", "psl2", "--p", "5")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["qualifying"][0]["pattern"] == [10, 6, 4]
    assert payload["qualifying"][0]["raw_triples"] == 120
    assert payload["qualifying"][0]["classes"] == 2


def test_budget_flag_exit_code():
    r = run_cli("enumerate", "--family", "psl2", "--p", "5", "--budget", "10")
    assert r.returncode == 3


def test_budget_env_override():
    import os

    env = dict(os.environ, REVMAPS_BUDGET="10")
    r = run_cli("enumerate", "--family", "psl2", "--p", "5", env=env)
    assert r.returncode == 3


def test_export_dot():
    r = run_cli("export", "--family", "psl2", "--p", "5", "--k", "2")
    assert r.returncode == 0
    assert r.stdout.startswith("graph underlying {")


def test_usage_error():
    r = run_cli("construct", "--family", "nope", "--p", "5")
    assert r.returncode == 1


def test_check_round_trip(tmp_path):
    rec_path = tmp_path / "rec.json"
    r = run_cli(
        "construct", "--family", "pgl2", "--p", "5", "--output", str(rec_path)
    )
    assert r.returncode == 0
    r = run_cli("check", "--input", str(rec_path))
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] == "pass"

    tampered = json.loads(rec_path.read_text())
    tampered["chi"] += 2
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(tampered))
    r = run_cli("check", "--input", str(bad_path))
    assert r.returncode == 2


@pytest.mark.parametrize(
    "tamper",
    [
        None,
        lambda rec: rec["stabilizer_orders"].update(vertex=2),
        lambda rec: rec["graph"].update(recognized="petersen"),
        lambda rec: rec["face_lengths"].update({"1": 3}),
    ],
    ids=["untampered", "stabilizer_orders", "graph.recognized", "face_lengths"],
)
def test_check_compares_the_whole_record(tmp_path, capsys, tamper):
    from revmaps import cli

    rec_path = tmp_path / "rec.json"
    assert cli.main(["construct", "--family", "pgl2", "--p", "5", "--output", str(rec_path)]) == 0
    if tamper is not None:
        rec = json.loads(rec_path.read_text())
        tamper(rec)
        rec_path.write_text(json.dumps(rec))
    assert cli.main(["check", "--input", str(rec_path)]) == (0 if tamper is None else 2)
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict == ("pass" if tamper is None else "fail")


def test_construction_error_exits_four(monkeypatch, capsys):
    # a failed search the theory guarantees is a bug, not a usage error
    from revmaps import cli, triples

    def no_anchor(G):
        raise triples.ConstructionError("no two-point stabilizer involution")

    monkeypatch.setattr(triples, "two_point_stabilizer_involution", no_anchor)
    assert cli.main(["construct", "--family", "psl2", "--p", "5"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_run_census_writes_the_matrix_report(monkeypatch, tmp_path, capsys):
    import importlib.util

    import revmaps.verify as verify

    monkeypatch.setattr(verify, "VERIFY_MATRIX", (("psl2", 5, 1),))
    spec = importlib.util.spec_from_file_location("run_census", ROOT / "scripts" / "run_census.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_census.py", "--out", str(tmp_path)])
    assert script.main() == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["a5_flag_regular.json", "matrix.json", "psl2_p5.json", "summary.txt"]
    matrix = verify.run_verify_matrix()
    assert (tmp_path / "matrix.json").read_text() == verify.report_json(matrix)
    assert (tmp_path / "psl2_p5.json").read_text() == verify.report_json(matrix["configs"][0])
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert summary[-1] == "a5 flag-regular pair: verdict=pass"
    assert capsys.readouterr().out.splitlines()[:2] == summary


def test_identical_runs_identical_bytes():
    a = run_cli("verify", "--family", "psl2", "--p", "5")
    b = run_cli("verify", "--family", "psl2", "--p", "5")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_worker_count_never_changes_output():
    one = run_cli("verify", "--family", "psl2", "--p", "5", "--jobs", "1")
    two = run_cli("verify", "--family", "psl2", "--p", "5", "--jobs", "2")
    assert one.stdout == two.stdout


def test_check_rejects_malformed_records(tmp_path):
    cases = {
        "list.json": "[1, 2]",
        "no_group.json": json.dumps({"triple": {}}),
        "bad_group.json": json.dumps({"group": 5, "triple": {"x": 1, "y": 2, "z": 3}}),
        "no_triple.json": json.dumps({"group": {"family": "psl2", "p": 5}}),
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        r = run_cli("check", "--input", str(path))
        assert r.returncode == 1, name
        assert r.stderr.startswith("error:"), name
        assert len(r.stderr.strip().splitlines()) == 1, name


def test_output_identical_across_hash_seeds_and_jobs():
    import os

    commands = [
        ("enumerate", "--family", "pgl2", "--p", "7"),
        ("verify", "--family", "ext", "--p", "7", "--m", "3"),
    ]
    for cmd in commands:
        outputs = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            for jobs in ("1", "2"):
                r = run_cli(*cmd, "--jobs", jobs, env=env)
                assert r.returncode == 0, (cmd, seed, jobs, r.stderr)
                outputs.add(r.stdout)
        assert len(outputs) == 1, cmd


def test_every_command_refuses_an_over_budget_group_before_building(monkeypatch, tmp_path, capsys):
    # PSL(2,10007) has ~5*10^11 elements: the refusal must come from the order
    # formula, before a single matrix is listed
    from revmaps import cli, groups

    def must_not_build(p):
        raise AssertionError(f"built the elements of PGL(2,{p})")

    monkeypatch.setattr(groups, "all_matrices", must_not_build)
    big = ["--family", "psl2", "--p", "10007"]
    for args in (["construct", *big], ["export", *big], ["enumerate", *big], ["verify", *big]):
        assert cli.main(args) == 3, args
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, args
    record = tmp_path / "rec.json"
    triple = {"x": 0, "y": 0, "z": 0}
    record.write_text(json.dumps({"group": {"family": "psl2", "p": 10007}, "triple": triple}))
    assert cli.main(["check", "--input", str(record)]) == 3
    # the environment budget applies to construct as well
    monkeypatch.setenv("REVMAPS_BUDGET", "50")
    assert cli.main(["construct", "--family", "psl2", "--p", "5"]) == 3
    assert "exceeds budget 50" in capsys.readouterr().err


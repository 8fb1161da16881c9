"""Command line interface: subcommands, exit codes, deterministic bytes."""

import hashlib
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


def test_verify_text():
    r = run_cli("verify", "--family", "psl2", "--p", "5", "--format", "text")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 4
    assert lines[0] == "config {'family': 'psl2', 'p': 5, 'm': 1} order=60"
    assert lines[1] == "patterns found: [[10, 6, 4]] (predicted [10, 6, 4], qualifies=True)"
    checks = ("sylow", "no_rotary", "pgl_action", "membership", "construction_agreement")
    assert lines[2] == f"lemma checks: { {k: True for k in checks} }"
    assert lines[3] == "verdict: pass"


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


@pytest.mark.parametrize(
    "p,line",
    [
        (5, "pattern (10, 6, 4): chi=1 triples=120 classes=2"),
        (7, "no qualifying reversing triples"),
    ],
)
def test_enumerate_text(p, line):
    r = run_cli("enumerate", "--family", "psl2", "--p", str(p), "--format", "text")
    assert r.returncode == 0
    order = p * (p * p - 1) // 2
    assert r.stdout == f"{{'family': 'psl2', 'p': {p}, 'm': 1}} order={order}\n{line}\n"


def test_budget_flag_exit_code():
    r = run_cli("enumerate", "--family", "psl2", "--p", "5", "--budget", "10")
    assert r.returncode == 3


def test_budget_env_override():
    import os

    env = dict(os.environ, REVMAPS_BUDGET="10")
    r = run_cli("enumerate", "--family", "psl2", "--p", "5", env=env)
    assert r.returncode == 3


@pytest.mark.parametrize(
    "env,flag,code",
    [("10000", "100", 3), ("100", "10000", 0), ("10000", "0", 1), ("10000", "-1", 1)],
)
def test_budget_flag_beats_env(monkeypatch, tmp_path, env, flag, code):
    # PGL(2,7) has 336 elements: only the flag decides whether it fits, and a
    # budget below 1 is a usage error
    from revmaps import cli

    monkeypatch.setenv("REVMAPS_BUDGET", env)
    args = ["construct", "--family", "pgl2", "--p", "7", "--budget", flag]
    assert cli.main([*args, "--output", str(tmp_path / "rec.json")]) == code


def test_a_huge_p_is_refused_before_its_primality_test(monkeypatch, tmp_path, capsys):
    # trial division of these p would run for hours; the order formula is instant
    from revmaps import cli, gfproj

    def must_not_test(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(gfproj, "is_prime", must_not_test)
    huge = "1000000000000000000000007"
    assert cli.main(["construct", "--family", "psl2", "--p", huge]) == 3
    assert cli.main(["enumerate", "--family", "pgl2", "--p", "100000000000000000039"]) == 3
    record = tmp_path / "rec.json"
    triple = {"x": 0, "y": 0, "z": 0}
    record.write_text(json.dumps({"group": {"family": "psl2", "p": int(huge)}, "triple": triple}))
    assert cli.main(["check", "--input", str(record)]) == 3
    err = capsys.readouterr().err
    assert err.count("exceeds budget 20000") == 3
    # a p that fits the budget still gets the primality test
    monkeypatch.undo()
    assert cli.main(["construct", "--family", "psl2", "--p", "25"]) == 1
    assert "prime" in capsys.readouterr().err


def test_export_dot():
    r = run_cli("export", "--family", "psl2", "--p", "5", "--k", "2")
    assert r.returncode == 0
    assert r.stdout.startswith("graph underlying {")


def test_usage_error():
    r = run_cli("construct", "--family", "nope", "--p", "5")
    assert r.returncode == 1


def test_a_usage_error_leaves_no_state_for_the_next_call(tmp_path, capsys):
    # the parser is built once per process; a failed parse that had already
    # read --k 3 must not leak into the next call
    from revmaps import cli

    args = ["construct", "--family", "pgl2", "--p", "7"]
    assert cli.main([*args, "--k", "3", "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    out = tmp_path / "construct.json"
    assert cli.main([*args, "--output", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "golden" / "construct_pgl2_7.json").read_bytes()
    assert cli._parser() is cli._parser()


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
        # equal in Python to the recomputed 42, False and 1, but not as JSON
        lambda rec: rec["counts"].update(V=42.0),
        lambda rec: rec.update(orientable=0),
        lambda rec: rec["triple"]["x"].update(mat=[True, 4, 2, 12]),
    ],
    ids=[
        "untampered",
        "stabilizer_orders",
        "graph.recognized",
        "face_lengths",
        "float_count",
        "int_orientable",
        "bool_entry",
    ],
)
def test_check_compares_the_whole_record(tmp_path, capsys, tamper):
    from revmaps import cli

    rec_path = tmp_path / "rec.json"
    assert cli.main(["construct", "--family", "psl2", "--p", "13", "--output", str(rec_path)]) == 0
    rec = json.loads(rec_path.read_text())
    assert (rec["counts"]["V"], rec["orientable"]) == (42, False)
    assert rec["triple"]["x"]["mat"] == [1, 4, 2, 12]
    if tamper is not None:
        tamper(rec)
        rec_path.write_text(json.dumps(rec))
    code = cli.main(["check", "--input", str(rec_path)])
    out, err = capsys.readouterr()
    if rec["triple"]["x"]["mat"][0] is True:
        # a bool is no matrix entry: the record is malformed, not a mismatch
        assert code == 1 and err.startswith("error: bad element record")
        return
    assert code == (0 if tamper is None else 2)
    assert json.loads(out)["verdict"] == ("pass" if tamper is None else "fail")


def test_construction_error_exits_four(monkeypatch, capsys):
    # a failed search the theory guarantees is a bug, not a usage error
    from revmaps import cli, triples

    def no_anchor(G):
        raise triples.ConstructionError("no two-point stabilizer involution")

    monkeypatch.setattr(triples, "_anchor", no_anchor)
    assert cli.main(["construct", "--family", "psl2", "--p", "5"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_a_point_with_no_candidates_exits_four(monkeypatch, capsys):
    # face orders that no involution makes with the anchor leave point 0
    # with no candidates: a failed search as well, not a usage error
    from revmaps import cli, triples

    monkeypatch.setattr(triples, "predicted_pattern", lambda family, p, m=1: (2 * p, 3, 5))
    assert cli.main(["construct", "--family", "pgl2", "--p", "7"]) == 4
    assert capsys.readouterr().err == "error: no qualifying involutions over point 0\n"


@pytest.mark.parametrize("command", ["construct", "export"])
def test_non_generating_construction_exits_four(command, monkeypatch, capsys):
    # build_revmap is the one generation test of a constructed triple, and a
    # triple it refuses is the construction's fault, not the user's
    from oracle import oracle_conjugate

    from revmaps import cli
    from revmaps.groups import build_group, generates

    G = build_group("pgl2", 5)
    x, y, _ = cli.pgl_triple(5, 0)
    mirrored = oracle_conjugate(G, y, x)  # a third reflection of the dihedral group <x, y>
    assert len({x, y, mirrored}) == 3 and not generates(G, (x, y, mirrored))
    monkeypatch.setattr(cli, "pgl_triple", lambda p, k: (x, y, mirrored))
    assert cli.main([command, "--family", "pgl2", "--p", "5"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: constructed triple") and len(err.strip().splitlines()) == 1
    assert "do not generate" in err


@pytest.mark.parametrize("command", ["construct", "export"])
@pytest.mark.parametrize("family,option", [("psl2", "--c1=3"), ("pgl2", "--c2=3")])
def test_exponents_refused_outside_ext(command, family, option, capsys):
    from revmaps import cli

    assert cli.main([command, "--family", family, "--p", "5", option]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --c1 and --c2 apply only to --family ext\n"


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


def test_run_census_errors_are_one_line(tmp_path):
    script = [sys.executable, str(ROOT / "scripts" / "run_census.py")]
    taken = tmp_path / "taken"
    taken.write_text("")
    fresh = tmp_path / "out"
    for args, budget_env, code in (
        (["--budget", "100", "--out", str(fresh)], None, 3),
        (["--out", str(taken)], None, 1),
        (["--out", str(fresh)], "10", 3),
        (["--out", str(fresh)], "abc", 1),
        (["--budget", "0", "--out", str(fresh)], None, 1),
        (["--out", str(fresh)], "-1", 1),
    ):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        env.pop("REVMAPS_BUDGET", None)
        if budget_env is not None:
            env["REVMAPS_BUDGET"] = budget_env
        r = subprocess.run([*script, *args], capture_output=True, text=True, env=env, timeout=300)
        assert r.returncode == code, (args, budget_env)
        assert r.stderr.startswith("error:"), (args, budget_env)
        assert len(r.stderr.strip().splitlines()) == 1, (args, budget_env)
        # a refused run leaves no directory behind
        assert not fresh.exists()


def test_run_census_malformed_flags_exit_one_with_usage(tmp_path):
    # argparse's own exit 2 is the code of a failed verdict, so it reads 1
    script = [sys.executable, str(ROOT / "scripts" / "run_census.py")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    fresh = tmp_path / "out"
    for args in (["--budget", "abc"], ["--bogus"]):
        cmd = [*script, *args, "--out", str(fresh)]
        r = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
        assert r.returncode == 1, args
        assert r.stderr.startswith("usage: run_census.py"), args
        assert "error:" in r.stderr.splitlines()[-1], args
        assert not fresh.exists()
    r = subprocess.run([*script, "--help"], capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0
    assert r.stdout.startswith("usage: run_census.py")


def test_run_census_construction_error_exits_four(monkeypatch, tmp_path, capsys):
    import importlib.util

    import revmaps.verify as verify
    from revmaps.triples import ConstructionError

    def no_construction(G):
        raise ConstructionError("no qualifying involutions over point [0:1]")

    monkeypatch.setattr(verify, "VERIFY_MATRIX", (("psl2", 5, 1),))
    monkeypatch.setattr(verify, "construction_census", no_construction)
    spec = importlib.util.spec_from_file_location("run_census", ROOT / "scripts" / "run_census.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_census.py", "--out", str(out)])
    assert script.main() == 4
    err = capsys.readouterr().err
    assert err.startswith("error: no qualifying involutions") and len(err.splitlines()) == 1
    assert not out.exists()


def test_run_census_failed_a5_certificate_exits_four(monkeypatch, tmp_path, capsys):
    import importlib.util

    import revmaps.verify as verify

    r0, r1, r2 = verify.A5_TRIPLE
    monkeypatch.setattr(verify, "VERIFY_MATRIX", ())
    monkeypatch.setattr(verify, "A5_TRIPLE", (r0, r2, r1))
    spec = importlib.util.spec_from_file_location("run_census", ROOT / "scripts" / "run_census.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_census.py", "--out", str(out)])
    assert script.main() == 4
    err = capsys.readouterr().err
    assert err.startswith("error: the fixed triple") and len(err.splitlines()) == 1
    assert not out.exists()


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
    from revmaps.groups import build_group
    from revmaps.triples import psl_triple

    golden_pgl2_7 = json.loads((ROOT / "tests" / "golden" / "construct_pgl2_7.json").read_text())
    cases = {
        "list.json": "[1, 2]",
        "no_group.json": json.dumps({"triple": {}}),
        "bad_group.json": json.dumps({"group": 5, "triple": {"x": 1, "y": 2, "z": 3}}),
        "no_triple.json": json.dumps({"group": {"family": "psl2", "p": 5}}),
        "string_m.json": json.dumps(
            {"group": {"family": "ext", "p": 7, "m": "3"}, "triple": {"x": 1, "y": 2, "z": 3}}
        ),
        "null_m.json": json.dumps(
            {"group": {"family": "ext", "p": 7, "m": None}, "triple": {"x": 1, "y": 2, "z": 3}}
        ),
        "no_mat.json": json.dumps(
            {"group": {"family": "psl2", "p": 13}, "triple": {n: {"p": 13} for n in "xyz"}}
        ),
        "string_exp.json": json.dumps(
            {
                "group": {"family": "ext", "p": 7, "m": 3},
                "triple": {
                    n: {"mat": [1, 0, 0, 1], "p": 7, "exp": "1"} for n in ("x", "y", "z")
                },
            }
        ),
        # JSON true is no exponent nor entry, though Python counts it the int 1
        "bool_exp.json": json.dumps(
            {
                "group": {"family": "ext", "p": 7, "m": 3},
                "triple": {
                    n: {"mat": [1, 0, 0, 1], "p": 7, "exp": True} for n in ("x", "y", "z")
                },
            }
        ),
        "bool_mat.json": json.dumps(
            {
                "group": {"family": "pgl2", "p": 7},
                "triple": {n: {"mat": [0, True, 1, 0], "p": 7} for n in ("x", "y", "z")},
            }
        ),
        # the golden pgl2 7 record but for m: true, which Python counts the int 1
        "bool_m.json": json.dumps(
            {**golden_pgl2_7, "group": {**golden_pgl2_7["group"], "m": True}}
        ),
        # nested past the decoder's recursion limit
        "deep.json": "[" * 200_000 + "]" * 200_000,
        # no JSON: cut short, and a byte that is no UTF-8
        "truncated.json": "{",
        "not_utf8.json": b"\xff",
        # a non-integral entry, after an integral lead entry
        "float_mat.json": json.dumps(
            {
                "group": {"family": "pgl2", "p": 7},
                "triple": {n: {"mat": [0, 1, 1, 0.5], "p": 7} for n in ("x", "y", "z")},
            }
        ),
    }
    # a well-formed record of psl2 5 whose triple is not three distinct involutions:
    # z of order p, or y equal to x
    G = build_group("psl2", 5)
    good = {n: G.element_json(i) for n, i in zip("xyz", psl_triple(5, 2))}
    group = {"family": "psl2", "p": 5}
    not_involutions = {
        "order_p_z.json": {**good, "z": {"mat": [1, 1, 0, 1], "p": 5}},
        "y_is_x.json": {**good, "y": good["x"]},
    }
    for name, triple in not_involutions.items():
        cases[name] = json.dumps({"group": group, "triple": triple})
    for name, text in cases.items():
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        r = run_cli("check", "--input", str(path))
        assert r.returncode == 1, name
        assert r.stderr.startswith("error:"), name
        assert len(r.stderr.strip().splitlines()) == 1, name
        assert "Traceback" not in r.stderr, name
        if name in ("no_mat.json", "float_mat.json", "bool_mat.json", "bool_exp.json"):
            assert r.stderr.startswith("error: bad element record") and "'mat'" in r.stderr
        if name in not_involutions:
            assert r.stderr == "error: the generators are not three distinct involutions\n"
        if name == "bool_m.json":
            assert r.stderr.startswith("error: m must be an integer")
        if name == "deep.json":
            assert r.stderr.endswith("deep.json: JSON nested too deeply\n")
        if name in ("truncated.json", "not_utf8.json"):
            assert r.stderr.startswith(f"error: {path}: not a JSON map record: "), r.stderr


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
    monkeypatch.setattr(groups, "psl_matrices", must_not_build)
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



# Byte-exact outputs of the current schema; after a deliberate layout change,
# rewrite a file with e.g. ``python -m revmaps.cli verify --family psl2 --p 5
# --output tests/golden/verify_psl2_5.json``.
GOLDEN = {
    "verify_psl2_5.json": ["verify", "--family", "psl2", "--p", "5"],
    "verify_pgl2_7.json": ["verify", "--family", "pgl2", "--p", "7"],
    # its predicted map is not coprime: the construction meets the enumeration alone
    "verify_ext_7_3.json": ["verify", "--family", "ext", "--p", "7", "--m", "3"],
    "enumerate_pgl2_7.json": ["enumerate", "--family", "pgl2", "--p", "7"],
    "construct_pgl2_7.json": ["construct", "--family", "pgl2", "--p", "7"],
    "export_pgl2_7.dot": ["export", "--family", "pgl2", "--p", "7"],
    "construct_ext_7_5.json": ["construct", "--family", "ext", "--p", "7", "--m", "5"],
    "export_psl2_13.dot": ["export", "--family", "psl2", "--p", "13"],
    # multi-edges, drawn with their multiplicity labels
    "export_ext_7_5.dot": ["export", "--family", "ext", "--p", "7", "--m", "5"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_bytes(name, tmp_path):
    from revmaps import cli

    out = tmp_path / name
    assert cli.main([*GOLDEN[name], "--output", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "golden" / name).read_bytes()


# SHA-256 of the default ``construct`` JSON on the larger groups that have
# no golden file; rewritten together with the golden files after a
# deliberate layout change.
CONSTRUCT_DIGESTS = {
    ("psl2", 17, 1): "494aaa7f9aad393a5c1471638979b2f78783794976d23ec8bcb1e4c412153c3d",
    ("pgl2", 19, 1): "6a777602c39cfe259264ee7995d2aeb84510dcd524fc6d959c51804fd900bfbf",
    ("ext", 7, 9): "e207c0d45d995d83209151925ed31847f40d80d188cc862fe5df9ae1fe894185",
    ("ext", 11, 5): "a00d9f847551f675a8edbdd88557913cd8af9c094e73d9db5adfe9ef4ad54f4b",
}


# SHA-256 of ``verify --budget <budget>`` on configs with no golden file:
# psl2 29 has 48 maps, and ext 11 15 has 64 classes, whose construction
# agreement runs on the ext census of lifts with c1 = 0.  ext 7 59 has 232
# maps and the largest ext census within 30000; psl2 61 and pgl2 43 are the
# largest psl2 and pgl2 rows within 250000, where every kernel runs over
# the entry columns.
VERIFY_DIGESTS = {
    ("psl2", 29, 1, 30000): "12bc45d509469b2f7ed9c5f8a12191c783fe2547d7d0773f7875c90eb7c77e35",
    ("ext", 11, 15, 30000): "3dce19bf9842c80bcd557fd7d2ed3d7fcee2b376c9adfb80e7f587dcf11f750d",
    ("ext", 7, 59, 30000): "4a4107c93d2eab5ece2614c856dfa2d2867990b5658c80ad91558a2f31e4f3e1",
    ("psl2", 61, 1, 250000): "992928972d74bd8f42498a246f8e50309345b880e7e4d8f0014b0c2fa19ed5e8",
    ("pgl2", 43, 1, 250000): "f6c627c4781554dc1b8b8116d2bcc73fbb6a9c51d905576a7cbd7ca703b2998f",
}


# SHA-256 of the default ``export`` DOT text on the same groups.
EXPORT_DIGESTS = {
    ("psl2", 17, 1): "d54c883e1e927e771da8df1758f0ba36ba55538d93c777bfd89f205e96cfd2aa",
    ("pgl2", 19, 1): "94a81b222a0d22b94bd70074a3a0e52d8c09bb2cfae5b2f9a4fe4059356524e8",
    ("ext", 7, 9): "b29addf7bb3c9d5c521af2105d522904e197c110dd1726ddfaf8c17fe5014d55",
    ("ext", 11, 5): "8869ccf195eec15071aea24a89df6bd3c0556263ed53ef529a8ebf920c5e56cb",
}


# SHA-256 of the default ``enumerate`` JSON on the census configs: pgl2 19
# has 24 classes of hits and psl2 31 none.
ENUMERATE_DIGESTS = {
    ("pgl2", 19, 1): "d30ae115c478ece7e6e249beba1450e5994a16f48bd49624eea3aca430540a82",
    ("psl2", 31, 1): "887987565c1991ebe9f75dd5a7c293f99d68bb705953c89d110e5b07e9d15753",
    # the ext census with hits: pattern (70, 16, 12), 26880 triples, 16 classes
    ("ext", 7, 5): "267a15ee870d332e3768beb95d8279eb856383cb4056371481d91d9e39ce987c",
}


def test_construct_bytes_are_pinned(tmp_path):
    from revmaps import cli

    for command, digests in (
        ("construct", CONSTRUCT_DIGESTS),
        ("export", EXPORT_DIGESTS),
        ("enumerate", ENUMERATE_DIGESTS),
    ):
        got = {}
        for family, p, m in digests:
            out = tmp_path / f"{command}_{family}_{p}_{m}"
            args = ["--family", family, "--p", str(p), "--m", str(m), "--output", str(out)]
            assert cli.main([command, *args]) == 0
            got[(family, p, m)] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert got == digests, command


def test_verify_bytes_are_pinned(tmp_path):
    from revmaps import cli

    got = {}
    for family, p, m, budget in VERIFY_DIGESTS:
        out = tmp_path / f"verify_{family}_{p}_{m}.json"
        args = ["--family", family, "--p", str(p), "--m", str(m), "--budget", str(budget)]
        assert cli.main(["verify", *args, "--output", str(out)]) == 0
        got[(family, p, m, budget)] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == VERIFY_DIGESTS


# SHA-256 of the whole matrix report: every row of VERIFY_MATRIX and the
# flag-regular pair, where the golden files hold three of the rows.
MATRIX_DIGEST = "8efae7b589e80cb35fad1f7cf24de5db6c6f3bfb33e808939f3a4137d3374219"


def test_matrix_report_bytes_are_pinned():
    from revmaps.verify import report_json, run_verify_matrix

    assert hashlib.sha256(report_json(run_verify_matrix()).encode()).hexdigest() == MATRIX_DIGEST


def test_construct_and_check_never_sweep_the_group(tmp_path, monkeypatch):
    # a record is read off the cell stabilizers; only export (and the
    # Petersen test, at ten vertices) builds the left multiplications and
    # the right cosets
    from revmaps import cli, groups, mapgeom
    from revmaps.groups import GroupHandle, build_group
    from revmaps.mapgeom import build_revmap, map_record
    from revmaps.triples import psl_triple

    def refuse(self, h):
        raise AssertionError("left_perm called")

    def refuse_cosets(G, gens):
        raise AssertionError("right_cosets called")

    monkeypatch.setattr(GroupHandle, "left_perm", refuse)
    for module in (groups, mapgeom):
        monkeypatch.setattr(module, "right_cosets", refuse_cosets)
    G = build_group("psl2", 5)
    assert map_record(build_revmap(G, *psl_triple(5, 2)))["counts"]["V"] == 6
    args = ["--family", "pgl2", "--p", "11"]
    rec, verdict = tmp_path / "rec.json", tmp_path / "verdict.json"
    assert cli.main(["construct", *args, "--output", str(rec)]) == 0
    assert json.loads(rec.read_text())["counts"]["V"] == 60
    assert cli.main(["check", "--input", str(rec), "--output", str(verdict)]) == 0
    assert json.loads(verdict.read_text())["verdict"] == "pass"
    with pytest.raises(AssertionError, match="left_perm called|right_cosets called"):
        cli.main(["export", *args, "--output", str(tmp_path / "graph.dot")])


def test_export_builds_two_left_multiplications_per_map(tmp_path, monkeypatch):
    # the vertex cells are cycles of L_r for the vertex rotation r = x*y and
    # the graph reads only the vertex partners, so export sweeps G twice,
    # for L_r and L_z, and never for L_x or L_y
    from revmaps import cli
    from revmaps.groups import GroupHandle, build_group
    from revmaps.triples import ext_triple, pgl_triple, psl_triple

    calls = []
    left_perm = GroupHandle.left_perm

    def spy(self, h):
        calls.append(h)
        return left_perm(self, h)

    monkeypatch.setattr(GroupHandle, "left_perm", spy)
    for args, G, triple in (
        (["--family", "psl2", "--p", "13"], build_group("psl2", 13), psl_triple(13, 2)),
        (["--family", "pgl2", "--p", "11", "--k", "3"], build_group("pgl2", 11), pgl_triple(11, 3)),
        (
            ["--family", "ext", "--p", "7", "--m", "5", "--c1", "2", "--c2", "1"],
            build_group("ext", 7, 5),
            ext_triple(7, 5, 0, 2, 1),
        ),
    ):
        x, y, z = triple  # z is the vertex partner of the identity flag
        calls.clear()
        assert cli.main(["export", *args, "--output", str(tmp_path / "graph.dot")]) == 0
        assert sorted(calls) == sorted((G.mul(x, y), z)), args


def test_enumerate_and_verify_write_the_same_census(tmp_path):
    from revmaps import cli

    args = ["--family", "pgl2", "--p", "7"]
    assert cli.main(["enumerate", *args, "--output", str(tmp_path / "e.json")]) == 0
    assert cli.main(["verify", *args, "--output", str(tmp_path / "v.json")]) == 0
    census = json.loads((tmp_path / "e.json").read_text())["qualifying"]
    assert census
    assert census == json.loads((tmp_path / "v.json").read_text())["census"]

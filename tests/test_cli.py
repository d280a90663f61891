import json
import math
import re

import pytest

from dps import dubins
from dps.cli import ORACLE_REL_TOL, main
from dps.fileio import load_polyline
from dps.randgen import random_polyline
from dps.smoother import extract_pieces

RIGHT_ANGLE_CSV = "x,y\n0,0\n4,0\n4,4\n"
INFEASIBLE_CSV = "0,0\n0.5,0\n0.5,0.5\n"
COLLINEAR_CSV = "0,0\n1,0\n2,0\n"
FAR_VIOLATION_CSV = "0,0\n3,0\n3,3\n"

SCENARIO = {
    "bounds": [0, 0, 20, 20],
    "robot_radius": 0.2,
    "turning_radius": 0.5,
    "start": [1, 1],
    "goal": [19, 19],
    "obstacles": [[[8, 8], [12, 8], [12, 12], [8, 12]]],
}

BLOCKED_SCENARIO = {
    "bounds": [0, 0, 20, 20],
    "robot_radius": 0.2,
    "turning_radius": 0.5,
    "start": [1, 1],
    "goal": [19, 19],
    "obstacles": [[[-5, 9], [25, 9], [25, 11], [-5, 11]]],
}


@pytest.fixture
def right_angle_csv(tmp_path):
    f = tmp_path / "in.csv"
    f.write_text(RIGHT_ANGLE_CSV)
    return str(f)


def test_smooth_success(tmp_path, right_angle_csv):
    out = tmp_path / "out.json"
    assert main(["smooth", "-r", "1", right_angle_csv, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [s["type"] for s in doc["segments"]] == ["line", "arc", "line"]
    assert doc["total_length"] == pytest.approx(6 + math.pi / 2, rel=1e-12)


def test_smooth_collinear_single_line(tmp_path):
    f = tmp_path / "in.csv"
    f.write_text(COLLINEAR_CSV)
    out = tmp_path / "out.json"
    assert main(["smooth", "-r", "1", str(f), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [s["type"] for s in doc["segments"]] == ["line"]


def test_smooth_infeasible_exit_2(tmp_path, capsys):
    f = tmp_path / "in.csv"
    f.write_text(INFEASIBLE_CSV)
    out = tmp_path / "out.json"
    assert main(["smooth", "-r", "1", str(f), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "vertex 1: l = 1 > min edge 0.5 (short by 0.5)" in err  # first violation, with numbers
    assert "vertex violations: [1]; edge violations: [0, 1]" in err
    assert not out.exists()


def test_smooth_best_effort_succeeds(tmp_path):
    f = tmp_path / "in.csv"
    f.write_text(INFEASIBLE_CSV)
    out = tmp_path / "out.json"
    assert main(["smooth", "-r", "1", "--best-effort", str(f), "-o", str(out)]) == 0
    assert out.exists()


def test_smooth_parse_error_exit_1(tmp_path, capsys):
    f = tmp_path / "in.csv"
    f.write_text("0,0\nbroken,row,here\n")
    assert main(["smooth", "-r", "1", str(f), "-o", str(tmp_path / "out.json")]) == 1
    assert main(["smooth", "-r", "1", str(tmp_path / "missing.csv"), "-o", "x.json"]) == 1


def test_plan_success_records_clearance(tmp_path):
    sf = tmp_path / "scenario.json"
    sf.write_text(json.dumps(SCENARIO))
    out = tmp_path / "out.json"
    assert main(["plan", str(sf), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["min_clearance"] >= SCENARIO["robot_radius"] - 1e-9


def test_plan_blocked_exit_3(tmp_path, capsys):
    sf = tmp_path / "scenario.json"
    sf.write_text(json.dumps(BLOCKED_SCENARIO))
    assert main(["plan", str(sf), "-o", str(tmp_path / "out.json")]) == 3


def test_plan_coincident_start_goal_exit_1(tmp_path, capsys):
    sf = tmp_path / "scenario.json"
    sf.write_text(json.dumps({**SCENARIO, "start": [1, 1], "goal": [1, 1]}))
    assert main(["plan", str(sf), "-o", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: start ") and "coincide" in err
    assert "Traceback" not in err


def test_plan_bad_file_exit_1(tmp_path):
    sf = tmp_path / "scenario.json"
    sf.write_text("{not json")
    assert main(["plan", str(sf), "-o", str(tmp_path / "out.json")]) == 1


def test_oracle_check_pass(right_angle_csv, capsys):
    assert main(["oracle-check", "-r", "1", right_angle_csv]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 2
    assert "MISMATCH" not in out


def test_oracle_check_two_point_vacuous(tmp_path, capsys):
    f = tmp_path / "two.csv"
    f.write_text("0,0\n5,5\n")
    assert main(["oracle-check", "-r", "1", str(f)]) == 0


def test_oracle_check_far_violation_flagged_not_failed(tmp_path, capsys):
    f = tmp_path / "near.csv"
    f.write_text(FAR_VIOLATION_CSV)
    assert main(["oracle-check", "-r", "1", str(f)]) == 0
    out = capsys.readouterr().out
    assert "no guarantee" in out


def test_oracle_check_solves_each_piece_once(tmp_path, capsys, monkeypatch):
    f = tmp_path / "route.csv"
    points = random_polyline(15, 1.0, seed=5).points
    f.write_text("x,y\n" + "".join(f"{p.x!r},{p.y!r}\n" for p in points))
    # The report as printed by the solver-twice loop: a direct dubins_shortest
    # for the word, then classify_j_type for the J flag.
    expected = []
    pieces = extract_pieces(load_polyline(str(f)), 1.0)
    for i, piece in enumerate(pieces):
        word = dubins.dubins_shortest(piece.start, piece.end, 1.0)
        j_type, _ = dubins.classify_j_type(piece.start, piece.end, 1.0)
        gap = abs(word.total - piece.length)
        match = gap <= ORACLE_REL_TOL * max(abs(word.total), abs(piece.length), 1e-300)
        note = "" if piece.guaranteed else " (no guarantee: far condition violated)"
        expected.append(
            f"piece {i}: dps={piece.length:.12f} oracle={word.total:.12f} "
            f"word={word.word} j_type={j_type} {'ok' if match else 'MISMATCH'}{note}\n"
        )
    solves = []  # every pose-pair solve reduces the pair through _scaled_problem
    real = dubins._scaled_problem
    monkeypatch.setattr(dubins, "_scaled_problem", lambda *a: solves.append(a) or real(*a))
    assert main(["oracle-check", "-r", "1", str(f)]) == 0
    assert capsys.readouterr().out == "".join(expected)
    assert len(pieces) >= 10 and len(solves) == len(pieces)


def test_bench_deterministic_lengths(capsys):
    assert main(["bench", "-n", "50", "--repeats", "1", "--seed", "9", "--samples", "16"]) == 0
    first = capsys.readouterr().out
    assert main(["bench", "-n", "50", "--repeats", "1", "--seed", "9", "--samples", "16"]) == 0
    second = capsys.readouterr().out
    header, row1 = first.strip().splitlines()
    _, row2 = second.strip().splitlines()
    assert header == "n,seq_time_s,dps_length,mpdp_p_length,ratio"
    # the timing column may differ; length and ratio columns must not
    cols1 = row1.split(",")
    cols2 = row2.split(",")
    assert cols1[0] == cols2[0] == "50"
    assert cols1[2:] == cols2[2:]


def test_render_arc_command_count(tmp_path, right_angle_csv):
    path_file = tmp_path / "p.json"
    svg_file = tmp_path / "p.svg"
    assert main(["smooth", "-r", "1", right_angle_csv, "-o", str(path_file)]) == 0
    assert main(["render", str(path_file), "-o", str(svg_file)]) == 0
    svg = svg_file.read_text()
    d = re.findall(r'<path d="([^"]*)"', svg)[0]
    assert len(re.findall(r"A ", d)) == 1


def test_render_with_scenario_obstacle_count(tmp_path):
    sf = tmp_path / "scenario.json"
    sf.write_text(json.dumps(SCENARIO))
    path_file = tmp_path / "p.json"
    svg_file = tmp_path / "p.svg"
    assert main(["plan", str(sf), "-o", str(path_file)]) == 0
    assert main(["render", str(path_file), "--scenario", str(sf), "-o", str(svg_file)]) == 0
    svg = svg_file.read_text()
    assert svg.count("<polygon") == len(SCENARIO["obstacles"])


def test_render_empty_path_exit_1(tmp_path, capsys):
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({"segments": []}))
    assert main(["render", str(bad), "-o", str(tmp_path / "x.svg")]) == 1


PATH_JSON = '{"segments": [{"type": "line", "a": [0, 0], "b": [3, 0]}]}'


@pytest.mark.parametrize("argv, text", [
    (["plan", "IN", "-o", "OUT"], "5"),
    (["plan", "IN", "-o", "OUT"], "[1, 2]"),
    (["plan", "IN", "-o", "OUT"], json.dumps({**SCENARIO, "obstacles": 5})),
    (["plan", "IN", "-o", "OUT"], json.dumps({**SCENARIO, "obstacles": [5]})),
    (["plan", "IN", "-o", "OUT"], json.dumps({**SCENARIO, "robot_radius": None})),
    (["plan", "IN", "-o", "OUT"], json.dumps({**SCENARIO, "robot_radius": "0.2"})),
    (["plan", "IN", "-o", "OUT"], json.dumps({**SCENARIO, "bounds": ["0", "0", "20", "20"]})),
    (["plan", "IN", "-o", "OUT"], json.dumps({**SCENARIO, "start": ["1", "1"]})),
    (["plan", "IN", "-o", "OUT"], json.dumps({**SCENARIO, "turning_radius": True})),
    (["plan", "IN", "-o", "OUT"],
     json.dumps({**SCENARIO, "obstacles": [[["8", 8], [12, 8], [12, 12], [8, 12]]]})),
    (["plan", "IN", "-o", "OUT"], json.dumps({**SCENARIO, "robot_radius": 10 ** 400})),
    (["render", "IN", "-o", "OUT"], "[1, 2]"),
    (["render", "IN", "-o", "OUT"], '{"segments": 5}'),
    (["render", "IN", "-o", "OUT"], '{"segments": [5]}'),
    (["render", "PATH", "--scenario", "IN", "-o", "OUT"], "5"),
    (["bench", "-n", "2", "--repeats", "1"], None),
    (["bench", "-n", "20", "--repeats", "0"], None),
    (["bench", "-n", "20", "--repeats", "1", "--samples", "2"], None),
    (["smooth", "IN", "-o", "OUT"], RIGHT_ANGLE_CSV),
    (["bench", "-n", "many"], None),
    (["simplify", "IN"], None),
], ids=["scenario-number", "scenario-list", "obstacles-number", "obstacle-number",
        "robot-radius-null", "robot-radius-string", "bounds-strings", "start-strings",
        "turning-radius-true", "obstacle-vertex-string", "robot-radius-huge-int", "path-list", "segments-number", "segment-number",
        "render-scenario-number", "bench-n-2", "bench-repeats-0", "bench-samples-2",
        "usage-missing-radius", "usage-bad-int", "usage-unknown-command"])
def test_malformed_input_exits_1(tmp_path, capsys, argv, text):
    if text is not None:
        (tmp_path / "in").write_text(text)
    (tmp_path / "path.json").write_text(PATH_JSON)
    names = {"IN": tmp_path / "in", "OUT": tmp_path / "out", "PATH": tmp_path / "path.json"}
    try:
        code = main([str(names.get(arg, arg)) for arg in argv])
    except SystemExit as exit_:  # argparse exits from inside main
        code = exit_.code
    err = capsys.readouterr().err
    assert code == 1
    assert "error: " in err and "Traceback" not in err

import dataclasses
import json
import math
import re

import pytest

from dps import cli, dubins
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

# A plan_stream scenario (perfbench, seed 14) whose shortest route has a
# vertex the smoother refuses.
INFEASIBLE_ROUTE_SCENARIO = {
    "bounds": [0, 0, 20, 20],
    "robot_radius": 0.4775959401490586,
    "turning_radius": 1.358156305627193,
    "start": [7.746319406806772, 16.999385720679918],
    "goal": [16.285397327195284, 9.052103333135381],
    "obstacles": [[[9.79891385190218, 16.133127957290597], [12.701645848922738, 14.099984744412328],
                   [12.817702313226114, 16.754177083440407], [12.777608373732285, 16.977148245584075]]],
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


def test_plan_decimal_collinear_vertex(tmp_path):
    """(9.95, 8.7) is the rounded midpoint of its two neighbours; the inflated
    hull drops it where its miter vertex rounds flat, and the plan succeeds."""
    sf = tmp_path / "scenario.json"
    sf.write_text(json.dumps({**SCENARIO, "obstacles": [
        [[7.4, 9.2], [9.95, 8.7], [12.5, 8.2], [11.8, 12.7], [7.8, 11.5]]]}))
    out = tmp_path / "out.json"
    assert main(["plan", str(sf), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["min_clearance"] >= SCENARIO["robot_radius"]


def test_plan_blocked_exit_3(tmp_path, capsys):
    sf = tmp_path / "scenario.json"
    sf.write_text(json.dumps(BLOCKED_SCENARIO))
    assert main(["plan", str(sf), "-o", str(tmp_path / "out.json")]) == 3


def test_plan_failing_certificate_exit_3(tmp_path, capsys):
    """The straight route passes a sliver 0.1414 from it, under h = 0.2: no
    path file is written."""
    sf = tmp_path / "scenario.json"
    sf.write_text(json.dumps({"bounds": [-10, -10, 30, 30], "robot_radius": 0.2,
                              "turning_radius": 0.5, "start": [-5, 15], "goal": [15, -5],
                              "obstacles": [[[9.6, 4.4], [9.7, 0.5], [9.65, 2.45]]]}))
    out = tmp_path / "out.json"
    assert main(["plan", str(sf), "-o", str(out)]) == 3
    assert capsys.readouterr().err == ("no path: path clearance 0.141421 to obstacle 0 < robot "
                                       "radius 0.2 (short by 0.0586)\n")
    assert not out.exists()


def test_plan_coincident_start_goal_exit_1(tmp_path, capsys):
    sf = tmp_path / "scenario.json"
    sf.write_text(json.dumps({**SCENARIO, "start": [1, 1], "goal": [1, 1]}))
    assert main(["plan", str(sf), "-o", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: start ") and "coincide" in err
    assert "Traceback" not in err


def test_plan_decimal_collinear_sliver_exit_1(tmp_path, capsys):
    """The three points lie on one line in decimal; their hull is a sliver whose
    tip has 1 + n1.n2 = 0, which is refused by name, not divided by."""
    sf = tmp_path / "scenario.json"
    sf.write_text(json.dumps({**SCENARIO, "obstacles": [[[4.7, 7.7], [6.0, 8.0], [5.35, 7.85]]]}))
    assert main(["plan", str(sf), "-o", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == "error: polygon vertex 0 (4.7, 7.7) is too sharp to inflate\n"


def test_plan_infeasible_route_exit_2(tmp_path, capsys):
    sf = tmp_path / "scenario.json"
    sf.write_text(json.dumps(INFEASIBLE_ROUTE_SCENARIO))
    out = tmp_path / "out.json"
    assert main(["plan", str(sf), "-o", str(out)]) == 2
    assert capsys.readouterr().err == ("infeasible route: vertex 1: l = 0.984061 > min edge "
                                       "0.524988 (short by 0.459)\n")
    assert not out.exists()


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


def test_oracle_check_two_points_print_their_one_straight_piece(tmp_path, capsys):
    f = tmp_path / "two.csv"
    f.write_text("0,0\n5,5\n")
    assert main(["oracle-check", "-r", "1", str(f)]) == 0
    assert capsys.readouterr().out == ("piece 0: dps=7.071067811865 oracle=7.071067811865 "
                                       "word=LSL j_type=True ok\n")


def test_oracle_check_infeasible_exit_2(tmp_path, capsys):
    f = tmp_path / "in.csv"
    f.write_text(INFEASIBLE_CSV)
    assert main(["oracle-check", "-r", "1", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "infeasible: vertex 1: l = 1 > min edge 0.5 (short by 0.5)\n"
    assert captured.out == ""


def test_oracle_check_mismatch_exit_4(right_angle_csv, capsys, monkeypatch):
    real = cli.classify_j_type

    def longer(start, end, r):  # an oracle that reads every word 1e-6 longer
        j_type, word = real(start, end, r)
        return j_type, dataclasses.replace(word, total=word.total * (1.0 + 1e-6))

    monkeypatch.setattr(cli, "classify_j_type", longer)
    assert main(["oracle-check", "-r", "1", right_angle_csv]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.endswith(" MISMATCH") for line in lines)


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
    (["render", "IN", "-o", "OUT"], '{"segments": [{"type": "line", "a": [0, 0], "b": [3, true]}]}'),
    (["render", "IN", "-o", "OUT"], '{"segments": [{"type": "line", "a": [0, 0], "b": [1%s, 0]}]}' % ("0" * 400)),
    (["oracle-check", "IN", "-r", "-1"], RIGHT_ANGLE_CSV),
    (["oracle-check", "IN", "-r", "nan"], RIGHT_ANGLE_CSV),
    (["plan", "IN", "-o", "OUT"], json.dumps({**SCENARIO, "bounds": [0, 0, math.inf, 20]})),
    (["plan", "IN", "-o", "OUT"], json.dumps({**SCENARIO, "start": [math.nan, 1]})),
    (["render", "IN", "-o", "OUT"], '{"segments": [{"type": "line", "a": [0, -1e308], "b": [1, 1e308]}]}'),
    (["smooth", "IN", "-r", "1", "-o", "OUT"], "0,0\n1e200,0\n2e200,1e200\n"),
    (["render", "IN", "-o", "OUT"], '{"segments": [{"type": "line", "a": [0, -1e308], "b": [0, 0]}, '
                                    '{"type": "line", "a": [0, 0], "b": [0, 1e308]}]}'),
], ids=["scenario-number", "scenario-list", "obstacles-number", "obstacle-number",
        "robot-radius-null", "robot-radius-string", "bounds-strings", "start-strings",
        "turning-radius-true", "obstacle-vertex-string", "robot-radius-huge-int", "path-list", "segments-number", "segment-number",
        "render-scenario-number", "bench-n-2", "bench-repeats-0", "bench-samples-2",
        "usage-missing-radius", "usage-bad-int", "usage-unknown-command", "path-boolean",
        "path-huge-int", "oracle-check-negative-radius", "oracle-check-nan-radius",
        "bounds-infinity", "start-nan", "path-extent-overflows", "polyline-edge-overflows",
        "render-extent-overflows"])
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

import contextlib
import copy
import enum
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tdlc import cli
from tdlc import kak_building as kb
from tdlc import padic_pgl2 as pp
from tdlc import rab
from tdlc import tree_core as tc
from tdlc import universal_groups as ug
from tdlc.cli import run
from oracles import recursive_render_text


def dinf_config(tmp_path):
    path = tmp_path / "dinf.json"
    path.write_text(json.dumps({"generators": ["s", "t"], "commuting_pairs": []}))
    return str(path)


def dinf_q3_spec(tmp_path):
    path = tmp_path / "dinf_q3.json"
    path.write_text(json.dumps({
        "coxeter": {"generators": ["s", "t"], "commuting_pairs": []},
        "parameters": {"s": 3, "t": 3},
    }))
    return str(path)


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run(args + ["--out", str(out)])
    assert code == 0, args
    return json.loads(out.read_text())


def test_tree_command(tmp_path):
    rep = run_json(["tree", "--degree", "3", "--radius", "2"], tmp_path)
    assert rep["vertex_count"] == 10
    assert rep["sphere_sizes"] == [1, 3, 6]
    assert run_json(["tree", "--radius", "0", "--guard", "1"], tmp_path)["vertex_count"] == 1
    for degree, radius in ((2, 6), (3, 0), (3, 5), (5, 3)):
        rep = run_json(["tree", "--degree", str(degree), "--radius", str(radius)], tmp_path)
        ball = tc.build_regular_ball(degree, radius)
        assert rep["sphere_sizes"] == [len(tc.sphere(ball, ball.base, n)) for n in range(radius + 1)]


def test_tree_label_regular_command(tmp_path):
    config = tmp_path / "labels.json"
    config.write_text(json.dumps({
        "labels": ["A", "B"],
        "degrees": {"A": 2, "B": 3},
        "rule": [["A", 0, "B"], ["A", 1, "B"],
                 ["B", 0, "A"], ["B", 1, "A"], ["B", 2, "A"]],
    }))
    rep = run_json(["tree", "--label-config", str(config), "--root-label", "A",
                    "--radius", "1"], tmp_path)
    assert rep["vertex_count"] == 3
    labels = [v["label"] for v in rep["ball"]["vertices"]]
    assert labels == ["A", "B", "B"]
    rep = run_json(["tree", "--label-config", str(config), "--root-label", "A",
                    "--radius", "5"], tmp_path)
    ball = tc.build_label_regular_ball(tc.LabelVector.from_json(json.loads(config.read_text())), "A", 5)
    assert rep["sphere_sizes"] == [len(tc.sphere(ball, ball.base, n)) for n in range(6)]


def test_ugroup_command(tmp_path):
    rep = run_json(["ugroup", "--degree", "3", "--radius", "2", "--pk-k", "1"], tmp_path)
    assert rep["stabilizer_ball_size"] == 48
    assert rep["semiprimitive"] is True
    assert rep["property_pk"]["holds"] is True


def test_kak_tree_command(tmp_path):
    rep = run_json(["kak-tree", "--degree", "3", "--radius", "2", "--max-sphere", "2"], tmp_path)
    assert rep["group_ball_size"] == 480
    assert rep["disjointness"] is True and rep["coverage"] is True
    assert len(rep["representatives"]) == 3


def test_contract_tree_command(tmp_path):
    rep = run_json(["contract-tree", "--degree", "3", "--radius", "6", "--powers", "3"], tmp_path)
    assert rep["witness"] is not None
    assert all(d >= i + 1 for i, d in enumerate(rep["depths"]))


def test_padic_command(tmp_path):
    rep = run_json(["padic", "verify", "--p", "3", "--n-max", "10", "--matrices", "10"], tmp_path)
    assert rep["conjugation_formula"]["all_match"] is True
    assert rep["unipotent_contraction"]["7"] == 7
    for regime in rep["perturbed_divergence"].values():
        assert regime["diverges"] is True


def test_coxeter_nf_command(tmp_path):
    config = dinf_config(tmp_path)
    rep = run_json(["coxeter", "nf", "--config", config, "--word", "t s s t"], tmp_path)
    assert rep["normal_form"] == []
    rep2 = run_json(["coxeter", "wall", "--config", config, "--word", "t s", "--gen", "s"],
                    tmp_path)
    assert rep2["wall_distance"] == 2


def test_coxeter_profile_and_root_growth(tmp_path):
    config = dinf_config(tmp_path)
    rep = run_json(["coxeter", "profile", "--config", config,
                    "--max-length", "8", "--bound", "3"], tmp_path)
    assert rep["size"] == 3
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(["t s", "t s t s", "t s t s t s"]))
    rep2 = run_json(["coxeter", "root-growth", "--config", config,
                     "--words-file", str(ws)], tmp_path)
    assert rep2["distances"] == [2, 4, 6]


def test_building_commands(tmp_path):
    spec = dinf_q3_spec(tmp_path)
    ball = run_json(["building", "ball", "--spec", spec, "--L", "2"], tmp_path)
    assert ball["chamber_count"] == 13 == ball["oracle_count"]

    kak = run_json(["building", "kak", "--spec", spec, "--L", "2"], tmp_path)
    assert kak["representative_count"] == 5
    assert kak["disjointness"] is True

    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(["t s", "t s t s", "t s t s t s"]))
    con = run_json(["building", "contract", "--spec", spec, "--L", "8",
                    "--ws-file", str(ws)], tmp_path)
    assert con["fixed_ball_radii"] == [1, 3, 5]
    assert con["witness_nontrivial"] is True


def test_building_aliases(tmp_path):
    spec = dinf_q3_spec(tmp_path)
    kak = run_json(["kak-building", "--spec", spec, "--L", "2"], tmp_path)
    assert kak["representative_count"] == 5
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(["t s", "t s t s"]))
    con = run_json(["contract-building", "--spec", spec, "--L", "6",
                    "--ws-file", str(ws)], tmp_path)
    assert con["fixed_ball_radii"] == [1, 3]


def test_exit_codes(tmp_path):
    assert run(["nonsense"]) == 1
    assert run(["tree", "--radius", "2", "--unknown-flag"]) == 1
    assert run(["coxeter", "nf", "--config", str(tmp_path / "missing.json")]) == 1
    assert run(["ugroup", "--degree", "3", "--radius", "3", "--guard", "10"]) == 2


def test_determinism(tmp_path, capsys):
    spec = dinf_q3_spec(tmp_path)
    outputs = []
    for _ in range(2):
        code = run(["building", "kak", "--spec", spec, "--L", "2"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    code = run(["padic", "verify", "--p", "2", "--n-max", "5", "--matrices", "5",
                "--format", "text"])
    assert code == 0
    text = capsys.readouterr().out
    assert "all_match: True" in text


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("config", [
    {"commuting_pairs": []},                                        # no generators
    {"generators": "st", "commuting_pairs": []},                    # a string, not a list
    {"generators": ["s", "t"], "commuting_pairs": [["s", "u"]]},    # unknown generator
    ["s", "t"],
])
def test_coxeter_config_validation(tmp_path, capsys, config):
    path = write_json(tmp_path, "bad.json", config)
    assert run(["coxeter", "nf", "--config", path, "--word", "s"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("spec", [
    {"coxeter": {"commuting_pairs": []}, "parameters": {"s": 3, "t": 3}},
    {"coxeter": {"generators": "st"}, "parameters": {"s": 3, "t": 3}},
    {"coxeter": {"generators": ["s", "t"]}, "parameters": {"s": "3", "t": 3}},
    {"coxeter": {"generators": ["s", "t"]}, "parameters": {"s": 3, "t": 3, "u": 5}},
    {"coxeter": {"generators": ["s", "t"]}},
])
def test_building_spec_validation(tmp_path, capsys, spec):
    path = write_json(tmp_path, "bad.json", spec)
    assert run(["building", "ball", "--spec", path, "--L", "2"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("data", [
    [],
    None,
    {"degree": 3},
    {"degree": "3", "generators": []},
    {"degree": True, "generators": []},
    {"degree": 3, "generators": 5},
    {"degree": 3, "generators": [[2, 1, 3.0]]},
    {"degree": 3, "generators": [[2, 1, True]]},
    {"degree": 4, "generators": []},  # a degree-4 group on the degree-3 tree
])
@pytest.mark.parametrize("command", [
    ["kak-tree", "--radius", "1", "--max-sphere", "1"],
    ["contract-tree", "--radius", "3", "--powers", "1"],
])
def test_local_group_file_validation(tmp_path, capsys, data, command):
    path = write_json(tmp_path, "bad.json", data)
    assert run(command + ["--local-group", path]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("step", [
    "1,1",      # not reduced
    "1,4",      # a colour beyond the degree
    "0,1",      # colour 0
    "1,2,1",    # reduced, but its square 1,2,1,1,2,1 is not
])
def test_contract_tree_rejects_a_step_that_is_not_a_reduced_word(capsys, step):
    assert run(["contract-tree", "--degree", "3", "--radius", "3", "--powers", "2", "--step", step]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("generators", ["5", "{}", "[[2, 1, 3.0]]", "[3]"])
def test_generators_option_validation(capsys, generators):
    assert run(["ugroup", "--radius", "1", "--generators", generators]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("config", [
    [],
    {"labels": ["a"], "degrees": {"a": 2}},                                 # no rule
    {"labels": ["a"], "degrees": {"a": "3"}, "rule": [["a", 0, "a"], ["a", 1, "a"], ["a", 2, "a"]]},
    {"labels": "a", "degrees": {"a": 2}, "rule": [["a", 0, "a"], ["a", 1, "a"]]},
    {"labels": ["a"], "degrees": {"a": 2}, "rule": [["a", 0.0, "a"], ["a", 1, "a"]]},
    {"labels": ["a"], "degrees": {"a": 2}, "rule": [["a", 0, "a"], ["a", 1]]},
    {"labels": ["a"], "degrees": {"a": 2}, "rule": [["a", 0, "a"], ["a", 1, "a"], ["a", 1, "a"]]},
])
def test_label_config_validation(tmp_path, capsys, config):
    path = write_json(tmp_path, "bad.json", config)
    assert run(["tree", "--radius", "1", "--label-config", path, "--root-label", "a"]) == 1
    assert_one_error_line(capsys)


def word_list_commands(tmp_path):
    """The two actions that read a word-list file, without the file option."""
    return [
        ["coxeter", "root-growth", "--config", dinf_config(tmp_path)],
        ["building", "contract", "--spec", dinf_q3_spec(tmp_path), "--L", "4"],
        ["contract-building", "--spec", dinf_q3_spec(tmp_path), "--L", "4"],
    ]


@pytest.mark.parametrize("data", [5, [5], None, {"a": 1}, [["t", 5]], "t s"])
def test_word_list_file_validation(tmp_path, capsys, data):
    path = write_json(tmp_path, "ws.json", data)
    for command, flag in zip(word_list_commands(tmp_path), ["--words-file", "--ws-file", "--ws-file"]):
        assert run(command + [flag, path]) == 1, command
        assert_one_error_line(capsys)


def test_word_list_file_is_required(tmp_path, capsys):
    for command in word_list_commands(tmp_path):
        assert run(command) == 1, command
        assert_one_error_line(capsys)


def test_word_list_file_takes_lists_of_names(tmp_path):
    spec = dinf_q3_spec(tmp_path)
    ws = write_json(tmp_path, "ws.json", [["t", "s"], "t s t s"])
    con = run_json(["building", "contract", "--spec", spec, "--L", "6", "--ws-file", ws], tmp_path)
    assert con["fixed_ball_radii"] == [1, 3]
    rep = run_json(["coxeter", "root-growth", "--config", dinf_config(tmp_path),
                    "--words-file", ws], tmp_path)
    assert rep["distances"] == [2, 4]


def test_building_contract_with_large_panels_refuses_quickly(tmp_path, capsys):
    # The witness is one panel rotation; listing all 12! - 1 candidates first took minutes.
    spec = write_json(tmp_path, "dinf_q13.json", {
        "coxeter": {"generators": ["s", "t"], "commuting_pairs": []}, "parameters": {"s": 13, "t": 13}})
    ws = write_json(tmp_path, "ws.json", ["t s", "t s t s"])
    start = time.perf_counter()
    assert run(["building", "contract", "--spec", spec, "--L", "2", "--ws-file", ws]) == 2
    assert capsys.readouterr().err == "infeasible: root chambers not represented in the ball\n"
    assert time.perf_counter() - start < 5


FREE3 = {"generators": ["a", "b", "c"], "commuting_pairs": []}
FREE3_WORDS = ["a c a b a b c b", "a b a b c a c b c a c a", "b a c a b c a b c a c a b c a b",
               "a c a b a b c a c b a c b c b c a b c b",
               "c b c a b a c b c a b c b a b c a c b c a b a b"]


def test_root_growth_reads_distances_off_normal_forms(tmp_path):
    # A Cayley-graph search to the root visited over 10^6 elements on these words.
    config = write_json(tmp_path, "free3.json", FREE3)
    ws = write_json(tmp_path, "ws.json", FREE3_WORDS)
    start = time.perf_counter()
    rep = run_json(["coxeter", "root-growth", "--config", config, "--words-file", ws], tmp_path)
    assert time.perf_counter() - start < 2
    assert rep["generator"] == "b"
    assert rep["distances"] == [8, 16, 20, 24]


def test_building_contract_on_free3_refuses_quickly(tmp_path, capsys):
    spec = write_json(tmp_path, "free3_q3.json", {"coxeter": FREE3, "parameters": {"a": 3, "b": 3, "c": 3}})
    ws = write_json(tmp_path, "ws.json", FREE3_WORDS)
    start = time.perf_counter()
    assert run(["building", "contract", "--spec", spec, "--L", "5", "--ws-file", ws]) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == "infeasible: root chambers not represented in the ball\n"


def test_building_contract_refuses_before_listing_the_ball(tmp_path, capsys, monkeypatch):
    # The farthest root is at distance 24 > 7; the ball of radius 7 holds 32,767 chambers.
    def no_ball(*args, **kwargs):
        raise AssertionError("the chamber ball was listed")

    monkeypatch.setattr(kb, "ChamberBall", no_ball)
    spec = write_json(tmp_path, "free3_q3.json", {"coxeter": FREE3, "parameters": {"a": 3, "b": 3, "c": 3}})
    ws = write_json(tmp_path, "ws.json", FREE3_WORDS)
    assert run(["building", "contract", "--spec", spec, "--L", "7", "--ws-file", ws]) == 2
    assert capsys.readouterr().err == "infeasible: root chambers not represented in the ball\n"


@pytest.mark.parametrize("L, message", [
    ("3", "root chambers not represented in the ball"),
    ("4", "chamber ball enumeration: 5 objects exceeds guard 4"),
])
def test_building_contract_checks_the_roots_before_the_ball_guard(tmp_path, capsys, L, message):
    # distances 2 and 4: the root refusal wins over the guard while the farthest root is
    # outside; inside, the one ball listed is B(C, 1), with 5 chambers
    spec = dinf_q3_spec(tmp_path)
    ws = write_json(tmp_path, "ws.json", ["t s", "t s t s"])
    assert run(["building", "contract", "--spec", spec, "--L", L, "--ws-file", ws, "--guard", "4"]) == 2
    assert capsys.readouterr().err == f"infeasible: {message}\n"


def test_building_contract_at_L40_lists_no_ball_beyond_radius_1(tmp_path, monkeypatch):
    # B(C, 40) on D_inf with q = 3 holds 4 * 2^40 - 3 chambers; the certificate reads
    # both claims off normal forms and lists B(C, 1) alone, for the witness view.
    real = kb.ChamberBall

    def unit_ball(spec, radius, guard=None):
        assert radius <= 1, f"a chamber ball of radius {radius} was listed"
        return real(spec, radius, guard=guard)

    monkeypatch.setattr(kb, "ChamberBall", unit_ball)
    spec = dinf_q3_spec(tmp_path)
    ws = write_json(tmp_path, "ws.json", [" ".join(["t s"] * k) for k in range(1, 21)])
    start = time.perf_counter()
    rep = run_json(["building", "contract", "--spec", spec, "--L", "40", "--ws-file", ws], tmp_path)
    assert time.perf_counter() - start < 1
    assert rep["distances"] == list(range(2, 41, 2))
    assert rep["fixed_ball_radii"] == list(range(1, 40, 2))
    assert rep["witness_nontrivial"] is True


def test_contract_tree_reads_the_witness_without_listing_the_local_group(tmp_path, monkeypatch):
    # |Sym(9)| = 362880 is over the guard, but the witness is read off a stabilizer chain.
    def unlisted(self):
        raise AssertionError("the local group was listed")

    monkeypatch.setattr(ug.LocalGroup, "closure", unlisted)
    rep = run_json(["contract-tree", "--degree", "9", "--radius", "3", "--guard", "1000"], tmp_path)
    assert rep["side"] == {"edge": [0, 1], "side": 0}
    # planted at (1,), fixing its parent colour 1: the least such element of Sym(9) swaps 8 and 9
    planted = ug.Portrait(ug.ColorBall(9, 3), (), {(1,): (1, 2, 3, 4, 5, 6, 7, 9, 8)})
    assert rep["witness"] == planted.restrict().to_json(include_ball=False)
    rep = run_json(["contract-tree", "--degree", "9", "--radius", "3", "--powers", "1", "--guard", "1000"],
                   tmp_path)
    assert rep["reason"] == "bounded"


def nested(depth):
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("flag", ["--spec", "--config", "--local-group", "--label-config",
                                  "--ws-file", "--words-file", "--generators"])
def test_deeply_nested_json_is_invalid_input(tmp_path, capsys, flag):
    deep = write_json(tmp_path, "deep.json", None)
    Path(deep).write_text(nested(3000))
    argv = {
        "--spec": ["building", "ball", "--spec", deep, "--L", "2"],
        "--config": ["coxeter", "nf", "--config", deep, "--word", "s"],
        "--local-group": ["kak-tree", "--radius", "1", "--max-sphere", "1", "--local-group", deep],
        "--label-config": ["tree", "--radius", "1", "--label-config", deep, "--root-label", "a"],
        "--ws-file": ["building", "contract", "--spec", dinf_q3_spec(tmp_path), "--L", "2",
                      "--ws-file", deep],
        "--words-file": ["coxeter", "root-growth", "--config", dinf_config(tmp_path),
                         "--words-file", deep],
        "--generators": ["ugroup", "--radius", "1", "--generators", nested(3000)],
    }[flag]
    assert run(argv) == 1
    assert_one_error_line(capsys)


def test_negative_sizes_exit_1(tmp_path, capsys):
    assert run(["building", "ball", "--spec", dinf_q3_spec(tmp_path), "--L", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert run(["building", "kak", "--spec", dinf_q3_spec(tmp_path), "--L", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert run(["coxeter", "profile", "--config", dinf_config(tmp_path), "--max-length", "-3"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    for argv in (["kak-tree", "--max-sphere", "-1"], ["kak-tree", "--radius", "-1"],
                 ["padic", "verify", "--p", "3", "--n-max", "2", "--matrices", "-3"],
                 ["ugroup", "--radius", "2", "--plus-k", "0"], ["ugroup", "--radius", "2", "--pk-k", "0"],
                 ["ugroup", "--radius", "0", "--plus-k", "-1"],
                 # an empty family of powers would be bounded vacuously
                 ["contract-tree", "--radius", "3", "--powers", "0"],
                 ["contract-tree", "--radius", "3", "--powers", "-2"]):
        assert run(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["tree", "--radius", "3"],
    ["ugroup", "--radius", "2"],
    ["kak-tree", "--radius", "1", "--max-sphere", "1"],
    ["contract-tree", "--radius", "3"],
    ["padic", "verify", "--p", "3", "--n-max", "2"],
    ["coxeter", "profile", "--config", "{config}"],
    ["building", "ball", "--spec", "{spec}", "--L", "2"],
    ["kak-building", "--spec", "{spec}", "--L", "2"],
    ["contract-building", "--spec", "{spec}", "--L", "2", "--ws-file", "{ws}"],
])
def test_negative_guard_is_invalid_input(tmp_path, capsys, argv):
    names = {"config": dinf_config(tmp_path), "spec": dinf_q3_spec(tmp_path),
             "ws": write_json(tmp_path, "ws.json", ["t s"])}
    assert run([tok.format(**names) for tok in argv] + ["--guard", "-1"]) == 1
    assert capsys.readouterr().err == "error: --guard must be nonnegative, got -1\n"


def test_coxeter_wall_needs_a_generator(tmp_path, capsys):
    assert run(["coxeter", "wall", "--config", dinf_config(tmp_path), "--word", "t s"]) == 1
    assert capsys.readouterr().err == "error: --gen is required for this action\n"


def test_guard_refusal_message(tmp_path, capsys):
    # The guard is checked on the ball's count, so the message gives its total.
    assert run(["building", "ball", "--spec", dinf_q3_spec(tmp_path), "--L", "3", "--guard", "14"]) == 2
    assert capsys.readouterr().err == "infeasible: chamber ball enumeration: 29 objects exceeds guard 14\n"


def test_building_ball_builds_no_chamber(tmp_path, capsys, monkeypatch):
    # The report reads counts alone, and the guard is checked on the count: no
    # chamber is built at L = 17 (524,285 chambers) nor at L = 18 (1,048,573,
    # over the default guard).
    def built(*args):
        raise AssertionError("a chamber was built")

    monkeypatch.setattr(rab.Chamber, "_trusted", built)
    spec = dinf_q3_spec(tmp_path)
    assert run_json(["building", "ball", "--spec", spec, "--L", "17"], tmp_path) == {
        "schema_version": "1", "L": 17, "chamber_count": 524285,
        "sphere_sizes": [1] + [2 ** (k + 1) for k in range(1, 18)], "oracle_count": 524285}
    assert run(["building", "ball", "--spec", spec, "--L", "18"]) == 2
    assert capsys.readouterr().err == \
        "infeasible: chamber ball enumeration: 1048573 objects exceeds guard 1000000\n"


def test_ugroup_refusal_reports_the_exact_total(capsys):
    assert run(["ugroup", "--radius", "3", "--guard", "3000"]) == 2
    assert capsys.readouterr().err == \
        "infeasible: U1 stabilizer ball enumeration: 3072 objects exceeds guard 3000\n"


def test_ugroup_radius_10_refuses_without_recursion(capsys):
    # 6 * 2^1533 tables
    assert run(["ugroup", "--radius", "10", "--guard", "100"]) == 2
    assert capsys.readouterr().err == \
        "infeasible: U1 stabilizer ball enumeration: over 10^462 objects exceeds guard 100\n"


def test_ugroup_refusal_of_a_total_too_long_to_print(capsys):
    # 6 * 2^24573 tables: more digits than str(int) allows
    assert run(["ugroup", "--radius", "14", "--guard", "100"]) == 2
    assert capsys.readouterr().err.startswith("infeasible: U1 stabilizer ball enumeration: over 10^")


def test_ugroup_radius_10_trivial_local_group(tmp_path):
    rep = run_json(["ugroup", "--radius", "10", "--generators", "[]"], tmp_path)
    assert rep["stabilizer_ball_size"] == 1


def test_ugroup_lists_the_stabilizer_ball_only_for_plus_k_and_pk(tmp_path, monkeypatch):
    # Without --plus-k or --pk-k the size is the closed-form count; the report
    # bytes are those of the frozen golden file and of the listed ball's size.
    argv = ["ugroup", "--degree", "4", "--radius", "2", "--generators", "[[2,1,3,4],[1,2,4,3]]"]
    world = ug.ColorBall(3, 3)
    listed = len(ug.enumerate_u1_stabilizer_ball(ug.LocalGroup.symmetric(3), world))

    def listing(*args, **kwargs):
        raise AssertionError("the stabilizer ball was listed")

    monkeypatch.setattr(ug, "enumerate_u1_stabilizer_ball", listing)
    out = tmp_path / "klein.json"
    assert run(argv + ["--out", str(out)]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "ugroup_d4_r2_klein.json"
    assert out.read_bytes() == golden.read_bytes()
    assert run_json(["ugroup", "--radius", "3"], tmp_path)["stabilizer_ball_size"] == listed == 3072
    with pytest.raises(AssertionError, match="was listed"):
        run(["ugroup", "--radius", "2", "--plus-k", "1"])


def test_ugroup_degree_12_refused_before_listing(capsys):
    start = time.perf_counter()
    assert run(["ugroup", "--degree", "12", "--radius", "1"]) == 2
    assert capsys.readouterr().err.startswith("infeasible: U1 stabilizer ball enumeration: 479001600 objects")
    assert time.perf_counter() - start < 10


def test_ugroup_degree_6_semiprimitivity_is_quick(tmp_path):
    start = time.perf_counter()
    rep = run_json(["ugroup", "--degree", "6", "--radius", "1"], tmp_path)
    assert rep["semiprimitive"] is True
    assert time.perf_counter() - start < 10


def test_ugroup_radius_16_refuses_before_building_the_ball(monkeypatch, capsys):
    def no_ball(*args):
        raise AssertionError("the colored ball was built")

    monkeypatch.setattr(ug, "ColorBall", no_ball)
    assert run(["ugroup", "--radius", "16", "--guard", "100"]) == 2
    assert capsys.readouterr().err == \
        "infeasible: U1 stabilizer ball enumeration: over 10^29592 objects exceeds guard 100\n"


def test_ugroup_radius_0_has_no_pk_edge(tmp_path, capsys):
    rep = run_json(["ugroup", "--radius", "0"], tmp_path)
    assert rep["stabilizer_ball_size"] == 1
    # the radius-0 ball is the base vertex alone, which fits a guard of 1
    rep = run_json(["ugroup", "--radius", "0", "--generators", "[]", "--guard", "1"], tmp_path)
    assert rep["stabilizer_ball_size"] == 1
    assert run(["ugroup", "--radius", "0", "--pk-k", "1"]) == 2
    assert capsys.readouterr().err.startswith("infeasible:")


@pytest.mark.parametrize("argv, message", [
    (["kak-tree", "--radius", "1", "--max-sphere", "15"],
     "U1 ball enumeration: 589812 objects exceeds guard 100"),
    (["kak-tree", "--radius", "3", "--max-sphere", "1"],
     "U1 stabilizer ball enumeration: 3072 objects exceeds guard 100"),
    (["contract-tree", "--radius", "16", "--powers", "1"],
     "tree ball: 98304 objects exceeds guard 100"),
    # a trivial local group: one table, so only the ball is large
    (["ugroup", "--radius", "18", "--generators", "[]"],
     "tree ball: 393216 objects exceeds guard 100"),
    (["kak-tree", "--radius", "18", "--max-sphere", "1", "--generators", "[]"],
     "tree ball: 786432 objects exceeds guard 100"),
])
def test_tree_pipelines_refuse_before_building_the_ball(monkeypatch, capsys, argv, message):
    def no_ball(*args):
        raise AssertionError("the colored ball was built")

    monkeypatch.setattr(ug, "ColorBall", no_ball)
    assert run(argv + ["--guard", "100"]) == 2
    assert capsys.readouterr().err == f"infeasible: {message}\n"


@pytest.mark.parametrize("argv, size", [
    (["--radius", "3"], 3072),
    (["--degree", "4", "--radius", "2"], 31104),
])
def test_ugroup_plus_k_is_quick(tmp_path, argv, size):
    start = time.perf_counter()
    rep = run_json(["ugroup", *argv, "--plus-k", "1"], tmp_path)
    assert rep["plus_k"] == {"index_in_stabilizer_ball": 1, "k": 1, "size": size}
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("argv", [
    ["--radius", "2", "--plus-k", "3"],
    ["--degree", "4", "--radius", "1", "--plus-k", "2"],
])
def test_ugroup_plus_k_without_a_certified_edge_refuses(capsys, argv):
    # the --pk-k refusal on the same ball: no edge has its (k-1)-balls inside it
    assert run(["ugroup", *argv]) == 2
    assert capsys.readouterr().err.startswith("infeasible: no edge of the radius-")


def test_kak_tree_partition_guard(capsys):
    # group ball 4 x 6 = 24 fits the guard; |K|^2 |A| = 6^2 x 2 = 72 does not
    assert run(["kak-tree", "--radius", "1", "--max-sphere", "1", "--guard", "50"]) == 2
    assert capsys.readouterr().err == \
        "infeasible: KAK partition products (lower bound): 72 objects exceeds guard 50\n"


def test_kak_tree_partition_guard_refuses_before_the_ball_is_listed(capsys, monkeypatch):
    # 5 x 31,104 = 155,520 U1 portraits fit the default guard; |K|^2 x 2 keys do not
    def unlisted(*args, **kwargs):
        raise AssertionError("the U1 ball was listed")

    monkeypatch.setattr(ug, "enumerate_u1_ball", unlisted)
    assert run(["kak-tree", "--degree", "4", "--radius", "2", "--max-sphere", "1"]) == 2
    assert capsys.readouterr().err == \
        "infeasible: KAK partition products (lower bound): 1934917632 objects exceeds guard 1000000\n"


def test_kak_tree_partition_pre_check_is_a_lower_bound(capsys):
    # |K| = 4 over 2 spheres: 32 keys at least; the certificate has 48, since
    # K has two orbits on sphere 1 and each gets its own representative
    argv = ["kak-tree", "--generators", "[[2,1,3]]", "--radius", "2", "--max-sphere", "1"]
    assert run(argv + ["--guard", "20"]) == 2
    assert capsys.readouterr().err == \
        "infeasible: KAK partition products (lower bound): 32 objects exceeds guard 20\n"
    assert run(argv + ["--guard", "47"]) == 2
    assert capsys.readouterr().err == "infeasible: KAK partition products: 48 objects exceeds guard 47\n"


def test_padic_guard_refuses_before_a_matrix_is_drawn(capsys, monkeypatch):
    def undrawn(*args, **kwargs):
        raise AssertionError("a test matrix was drawn")

    monkeypatch.setattr(pp, "random_matrix", undrawn)
    assert run(["padic", "verify", "--p", "3", "--n-max", "30", "--matrices", str(10**8)]) == 2
    assert capsys.readouterr().err == \
        "infeasible: padic formula checks: 3000000000 objects exceeds guard 1000000\n"
    # the default 100 matrices x n_max checks, one over the guard
    assert run(["padic", "verify", "--p", "3", "--n-max", "30", "--guard", "2999"]) == 2
    assert capsys.readouterr().err == "infeasible: padic formula checks: 3000 objects exceeds guard 2999\n"
    # a negative n_max makes the count negative: it is invalid input, refused before the draw too
    assert run(["padic", "verify", "--p", "3", "--n-max", "-1", "--matrices", str(10**8)]) == 1
    assert capsys.readouterr().err == "error: --n-max must be positive, got -1\n"


def test_padic_guard_admits_the_checks_it_counts(tmp_path):
    rep = run_json(["padic", "verify", "--p", "3", "--n-max", "30", "--guard", "3000"], tmp_path)
    assert rep["conjugation_formula"] == {"matrices": 100, "all_match": True}


def test_padic_guard_counts_the_p_power_products(capsys, monkeypatch):
    # with no test matrix there is no formula check, but the contraction table
    # and the divergence reports would still make n_max products of p^n-sized integers
    def unbuilt(*args, **kwargs):
        raise AssertionError("a p^n product was made")

    monkeypatch.setattr(pp, "unipotent_contraction_check", unbuilt)
    monkeypatch.setattr(pp, "perturbed_triviality_evidence", unbuilt)
    start = time.perf_counter()
    assert run(["padic", "verify", "--p", "2", "--n-max", "3000", "--matrices", "0"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        "infeasible: padic p^n products: 9000000 objects exceeds guard 1000000\n"


def src_env():
    """The environment of a child interpreter that imports tdlc from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_tree_ball_guard_refuses_a_huge_radius_without_building_the_sphere():
    # 4 * 3^(10^8 - 1) has about 1.6 * 10^8 bits; the guard refuses from a bound on its log2.
    proc = subprocess.run([sys.executable, "-m", "tdlc.cli", "tree", "--degree", "4", "--radius", "100000000"],
                          capture_output=True, text=True, env=src_env(), timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("infeasible: tree ball: over 10^")
    # At degree 2 the outer sphere has 2 vertices; the 2r + 1 of a geodesic through the base refuses.
    proc = subprocess.run([sys.executable, "-m", "tdlc.cli", "tree", "--degree", "2", "--radius", "100000000"],
                          capture_output=True, text=True, env=src_env(), timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == "infeasible: tree ball: 200000001 objects exceeds guard 1000000\n"


def test_python_m_entry_point(tmp_path):
    env = src_env()
    config = dinf_config(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "tdlc.cli", "coxeter", "nf", "--config", config,
                           "--word", "t s s t"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["normal_form"] == []
    bad = subprocess.run([sys.executable, "-m", "tdlc.cli", "nonsense"], capture_output=True,
                         text=True, env=env, timeout=60)
    assert bad.returncode == 1


# Each subcommand imports its pipeline where it runs.  pytest's own process has
# imported every module, so only a fresh interpreter shows what a call loads.
CLI_BASE = {"tdlc", "tdlc.cli", "tdlc.errors"}
TREE_MODULES = CLI_BASE | {"tdlc.tree_core"}
UGROUP_MODULES = TREE_MODULES | {"tdlc.tree_aut", "tdlc.universal_groups"}
KAK_TREE_MODULES = UGROUP_MODULES | {"tdlc.kak_tree"}
COXETER_MODULES = CLI_BASE | {"tdlc.coxeter_ra"}
BUILDING_MODULES = COXETER_MODULES | {"tdlc.rab", "tdlc.kak_building"}
LOADED_MODULES_PROBE = """
import json, sys
from tdlc.cli import run
code = run(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "tdlc")]))
"""


@pytest.mark.parametrize("argv, code, modules", [
    (["--help"], 0, CLI_BASE),
    (["tree", "--radius", "2"], 0, TREE_MODULES),
    (["tree", "--radius", "2", "--guard", "-1"], 1, CLI_BASE),
    (["ugroup", "--radius", "2", "--pk-k", "1"], 0, UGROUP_MODULES),
    (["ugroup", "--degree", "9", "--radius", "1", "--guard", "100"], 2, UGROUP_MODULES),
    (["kak-tree", "--radius", "1", "--max-sphere", "1"], 0, KAK_TREE_MODULES),
    (["contract-tree", "--radius", "4", "--powers", "2"], 0, KAK_TREE_MODULES),
    (["padic", "verify", "--p", "3", "--n-max", "3", "--matrices", "2"], 0, CLI_BASE | {"tdlc.padic_pgl2"}),
    (["coxeter", "nf", "--config", "{config}", "--word", "t s s t"], 0, COXETER_MODULES),
    (["coxeter", "wall", "--config", "{config}", "--word", "t s", "--gen", "s"], 0, COXETER_MODULES),
    (["coxeter", "profile", "--config", "{config}", "--max-length", "4"], 0, COXETER_MODULES),
    (["coxeter", "root-growth", "--config", "{config}", "--words-file", "{ws}"], 0, COXETER_MODULES),
    (["building", "ball", "--spec", "{spec}", "--L", "2"], 0, BUILDING_MODULES),
    (["building", "kak", "--spec", "{spec}", "--L", "2"], 0, BUILDING_MODULES),
    (["building", "contract", "--spec", "{spec}", "--L", "4", "--ws-file", "{ws}"], 0, BUILDING_MODULES),
])
def test_each_subcommand_loads_only_its_own_pipeline(tmp_path, argv, code, modules):
    names = {"config": dinf_config(tmp_path), "spec": dinf_q3_spec(tmp_path),
             "ws": write_json(tmp_path, "ws.json", ["t s", "t s t s"])}
    argv = [tok.format(**names) for tok in argv]
    out = [] if argv == ["--help"] else ["--out", str(tmp_path / "out.json")]
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES_PROBE, *argv, *out],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    got_code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert got_code == code, proc.stderr
    assert set(loaded) == modules


def test_seed_is_a_padic_option_only(tmp_path, capsys):
    assert run(["tree", "--radius", "2", "--seed", "1"]) == 1
    rep = run_json(["padic", "verify", "--p", "2", "--n-max", "3", "--matrices", "2", "--seed", "7"],
                   tmp_path)
    assert rep["seed"] == 7


# ---------------------------------------------------------------------------
# fuzzed JSON inputs: a valid input with itself, or one of its fields,
# replaced by a small JSON value

FUZZ_INPUTS = [
    ({"coxeter": {"generators": ["s", "t"], "commuting_pairs": []}, "parameters": {"s": 3, "t": 3}},
     [["building", "ball", "--spec", "{f}", "--L", "2"],
      ["building", "kak", "--spec", "{f}", "--L", "2"]]),
    ({"generators": ["s", "t", "u"], "commuting_pairs": [["s", "t"]]},
     [["coxeter", "nf", "--config", "{f}", "--word", "s t u s"]]),
    ({"labels": ["a", "b"], "degrees": {"a": 2, "b": 3},
      "rule": [["a", 0, "b"], ["a", 1, "b"], ["b", 0, "a"], ["b", 1, "a"], ["b", 2, "a"]]},
     [["tree", "--radius", "2", "--label-config", "{f}", "--root-label", "a"]]),
    ({"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]},
     [["ugroup", "--radius", "1", "--local-group", "{f}"],
      ["kak-tree", "--radius", "1", "--max-sphere", "1", "--local-group", "{f}"],
      ["contract-tree", "--radius", "3", "--powers", "1", "--local-group", "{f}"]]),
]
FUZZ_KEYS = st.sampled_from(["s", "t", "a", "b", "x", "coxeter", "parameters", "generators",
                             "commuting_pairs", "labels", "degrees", "rule", "degree"])
fuzz_values = st.recursive(
    st.integers(-3, 12) | st.booleans() | st.none() | st.sampled_from(["s", "t", "a", "b", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(FUZZ_KEYS, inner, max_size=4),
    max_leaves=12)


def json_paths(data, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from json_paths(value, path + (key,))


def replaced(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_json_inputs_exit_0_1_or_2(fuzz_dir, data):
    valid, commands = data.draw(st.sampled_from(FUZZ_INPUTS))
    path = data.draw(st.sampled_from(list(json_paths(valid))))
    doc = replaced(valid, path, data.draw(fuzz_values))
    f = fuzz_dir / "input.json"
    f.write_text(json.dumps(doc))
    for command in commands:
        argv = [tok.format(f=f) for tok in command] + ["--out", str(fuzz_dir / "out.json")]
        assert run(argv) in (0, 1, 2), argv


# ---------------------------------------------------------------------------
# fuzzed word lists and generators: a valid value with itself, or one of its
# entries, replaced by a small JSON value

FUZZ_WORD_INPUTS = [
    (["t s", "t s t s", ["t", "s", "t", "s", "t", "s"]],
     [["building", "contract", "--spec", "{spec}", "--L", "4", "--ws-file", "{f}"],
      ["coxeter", "root-growth", "--config", "{config}", "--words-file", "{f}"]]),
    ([[2, 1, 3], [2, 3, 1]],
     [["ugroup", "--radius", "1", "--generators={doc}"],
      ["kak-tree", "--radius", "1", "--max-sphere", "1", "--generators={doc}"]]),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_word_lists_and_generators_end_in_one_line(fuzz_dir, data):
    valid, commands = data.draw(st.sampled_from(FUZZ_WORD_INPUTS))
    path = data.draw(st.sampled_from(list(json_paths(valid))))
    doc = json.dumps(replaced(valid, path, data.draw(fuzz_values)))
    f = fuzz_dir / "words.json"
    f.write_text(doc)
    names = {"spec": dinf_q3_spec(fuzz_dir), "config": dinf_config(fuzz_dir), "f": f, "doc": doc}
    for command in commands:
        argv = [tok.format(**names) for tok in command] + ["--out", str(fuzz_dir / "out.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == [], argv
        else:
            prefix = {1: "error:", 2: "infeasible:"}[code]
            assert len(lines) == 1 and lines[0].startswith(prefix), (argv, lines)


# ---------------------------------------------------------------------------
# refusals decided from the size of a total, not the total

def test_ugroup_radius_32_refuses_from_the_log_of_its_count(capsys):
    start = time.perf_counter()
    assert run(["ugroup", "--radius", "32", "--guard", "100"]) == 2
    assert time.perf_counter() - start < 1
    # 6 * 2^(3 * (2^31 - 1)) tables
    assert capsys.readouterr().err == \
        "infeasible: U1 stabilizer ball enumeration: over 10^1939370979 objects exceeds guard 100\n"


def test_padic_primality_limits(capsys):
    start = time.perf_counter()
    assert run(["padic", "verify", "--p", "1000000000000000003", "--n-max", "2", "--matrices", "1",
                "--out", os.devnull]) == 0
    assert time.perf_counter() - start < 5
    assert run(["padic", "verify", "--p", "1000000000000000001", "--n-max", "2"]) == 1
    assert_one_error_line(capsys)
    assert run(["padic", "verify", "--p", "3317044064679887385961981", "--n-max", "2"]) == 2
    assert capsys.readouterr().err == ("infeasible: primality of 3317044064679887385961981 is "
                                       "certified only below 3317044064679887385961981\n")


# ---------------------------------------------------------------------------
# report emission: cli._dumps against json.dumps, the text renderer against
# its recursive oracle

class Level(enum.IntEnum):
    HIGH = 7


def json_oracle(report):
    return json.dumps(report, sort_keys=True, indent=2, default=str)


def outcome(render, report):
    """What render gives on report: its output, or the type of what it raised."""
    try:
        return render(report)
    except Exception as exc:
        return type(exc)


ODD_OBJECT = object()   # one object, so both dumps print the same default=str address
STRINGS = st.one_of(st.text(max_size=6), st.sampled_from(
    ["é∂", "日本", "😀", "\n", "a\nb", '"},\n"', "{", "},\n    {", "%s", ""]))
SCALARS = st.one_of(
    STRINGS, st.integers(), st.integers(-2**200, 2**200),
    st.builds(pow, st.just(-10), st.sampled_from([4299, 4300])),   # 4300 and 4301 digits: the second raises
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.booleans(), st.sampled_from([0, 1, True, False]), st.none(),
    st.just(Level.HIGH), st.just(ODD_OBJECT))
ROW_KEYS = st.sampled_from(["id", "label", "parent", "z", "é", "%s", "a{b}"])
ODD_KEYS = st.one_of(st.integers(-3, 3), st.booleans(), st.none(), ROW_KEYS)


def rows(values):
    """Lists of records: ones sharing a key set (in any insertion order), ones with
    different key sets, and ones with empty records and lists mixed in."""
    shared = st.lists(ROW_KEYS, unique=True, min_size=1, max_size=3).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, values)), min_size=1, max_size=5))
    record = st.dictionaries(ROW_KEYS, values, min_size=1, max_size=4)
    return st.one_of(shared, st.lists(record, min_size=2, max_size=5),
                     st.lists(st.one_of(record, st.just({})), min_size=1, max_size=5),
                     st.lists(st.one_of(record, st.just({}), st.just([])), max_size=5))


REPORTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=3).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
        st.dictionaries(ODD_KEYS, children, max_size=3),
        rows(SCALARS), rows(children)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(report=REPORTS)
def test_dumps_matches_json_dumps(report):
    assert outcome(cli._dumps, report) == outcome(json_oracle, report)


@settings(max_examples=400, deadline=None)
@given(report=REPORTS)
def test_text_renderer_matches_the_recursive_oracle(report):
    assert outcome(lambda r: "\n".join(cli._render_text(r)), report) == \
        outcome(lambda r: "\n".join(recursive_render_text(r)), report)


@pytest.mark.parametrize("report, error", [
    ({1: "a", "b": 2}, TypeError), ({True: [1], 2: {}, 0.5: None}, None), ({None: [1]}, None),
    ({None: [1], True: {}}, TypeError), ({"x": [{2: 0, "2": 1}]}, TypeError),
    ({"deep": [{"n": 10**5000}]}, ValueError), ({"rows": [{"id": 1}, {"id": ODD_OBJECT}]}, None),
])
def test_dumps_falls_back_to_json_dumps(report, error):
    expect = outcome(json_oracle, report)
    assert outcome(cli._dumps, report) == expect
    assert (expect is error) if error else isinstance(expect, str)


def test_dumps_of_nesting_past_the_recursion_limit_raises_as_json_dumps():
    nested = []
    for _ in range(sys.getrecursionlimit() + 10):
        nested = [nested, {"a": 1}]
    assert outcome(cli._dumps, nested) is outcome(json_oracle, nested) is RecursionError


def test_tree_radius_8_report_without_the_fallback(monkeypatch):
    args = cli._build_parser().parse_args(["tree", "--radius", "8"])
    report = {"schema_version": cli.SCHEMA_VERSION, **cli._cmd_tree(args)}
    expect, expect_text = json_oracle(report), "\n".join(recursive_render_text(report))
    monkeypatch.setattr(json, "dumps", None)   # the emitter must not need it on this report
    assert cli._dumps(report) == expect
    assert "\n".join(cli._render_text(report)) == expect_text

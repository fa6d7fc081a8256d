"""Byte-exact CLI reports against the frozen files in tests/golden/.

Each case runs one subcommand through tdlc.cli.run and compares the report
with its golden file byte for byte, so a refactor that changes any report
(ordering, a number, a trailing newline) fails here; four cases also compare
their text format with a golden `.txt` file.  The building_*_L*
cases use the D_inf spec with q = 3 on both generators; at L = 10 the
contraction check reaches every case of the base-panel permutations' left
multiplication that D_inf has.  The
building_*_path4_q34_L4 cases use the path4 system, where a-b, b-c and c-d
commute, with panel sizes q = 3, 4, 3, 4 on a, b, c, d: there the s-wing
test looks past commuting letters, and the panels differ in size.  The
coxeter case uses the free product of three copies of Z/2.  The ugroup cases with --generators cover
local groups that are not transitive or not symmetric.  In
ugroup_r3_plus3_pk2 and ugroup_d4_r2_c4_plus1 the plus-k closure is a proper
subgroup of the stabilizer ball (index 48 and 4).  The kak_tree_*_c3 and
kak_tree_*_c4 cases use cyclic local groups, which hold no transposition;
both report coverage false.  kak_tree_d4_r1_s2_klein uses the intransitive
Klein four group (nine representatives); in kak_tree_r2_s3 the keys read
images beyond the ball.  Both report coverage false as well.
"""

import json
from pathlib import Path

import pytest

from tdlc.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "tree_r6": ["tree", "--radius", "6"],
    "ugroup_r2_pk1_plus1": ["ugroup", "--radius", "2", "--pk-k", "1", "--plus-k", "1"],
    "ugroup_r3_pk2": ["ugroup", "--radius", "3", "--pk-k", "2"],
    "kak_tree_r1_s2": ["kak-tree", "--radius", "1", "--max-sphere", "2"],
    "kak_tree_d3_r1_s2_c3": ["kak-tree", "--degree", "3", "--radius", "1", "--max-sphere", "2",
                             "--generators", "[[2,3,1]]"],
    "kak_tree_d4_r1_s1_c4": ["kak-tree", "--degree", "4", "--radius", "1", "--max-sphere", "1",
                             "--generators", "[[2,3,4,1]]"],
    "kak_tree_d4_r1_s2_klein": ["kak-tree", "--degree", "4", "--radius", "1", "--max-sphere", "2",
                                "--generators", "[[2,1,3,4],[1,2,4,3]]"],
    "kak_tree_r2_s3": ["kak-tree", "--radius", "2", "--max-sphere", "3"],
    "contract_tree_r8_p4": ["contract-tree", "--radius", "8", "--powers", "4"],
    "contract_tree_r10_p8": ["contract-tree", "--radius", "10"],
    "contract_tree_d4_r6_p3_s42": ["contract-tree", "--degree", "4", "--radius", "6",
                                   "--powers", "3", "--step", "4,2"],
    "building_kak_L4": ["building", "kak", "--spec", "{spec}", "--L", "4"],
    "building_contract_L6": ["building", "contract", "--spec", "{spec}", "--L", "6",
                             "--ws-file", "{ws}"],
    "building_contract_L10": ["building", "contract", "--spec", "{spec}", "--L", "10",
                              "--ws-file", "{ws}"],
    "ugroup_r3_z2_pk1": ["ugroup", "--radius", "3", "--generators", "[[2,1,3]]", "--pk-k", "1"],
    "ugroup_d4_r2_c4_pk1": ["ugroup", "--degree", "4", "--radius", "2",
                            "--generators", "[[2,3,4,1]]", "--pk-k", "1"],
    "ugroup_d4_r2_klein": ["ugroup", "--degree", "4", "--radius", "2",
                           "--generators", "[[2,1,3,4],[1,2,4,3]]"],
    "ugroup_r3_plus3_pk2": ["ugroup", "--radius", "3", "--plus-k", "3", "--pk-k", "2"],
    "ugroup_d4_r2_c4_plus1": ["ugroup", "--degree", "4", "--radius", "2",
                              "--generators", "[[2,3,4,1]]", "--plus-k", "1"],
    "ugroup_d4_r1_dihedral": ["ugroup", "--degree", "4", "--radius", "1",
                              "--generators", "[[2,3,4,1],[3,2,1,4]]"],
    "ugroup_d5_r1_alt5": ["ugroup", "--degree", "5", "--radius", "1",
                          "--generators", "[[2,3,1,4,5],[1,2,4,5,3]]"],
    "padic_p3_n10": ["padic", "verify", "--p", "3", "--n-max", "10"],
    "coxeter_profile_free3_6": ["coxeter", "profile", "--config", "{free3}", "--max-length", "6"],
    "building_ball_L4": ["building", "ball", "--spec", "{spec}", "--L", "4"],
    "building_ball_path4_q34_L4": ["building", "ball", "--spec", "{path4}", "--L", "4"],
    "building_contract_path4_q34_L4": ["building", "contract", "--spec", "{path4}", "--L", "4",
                                       "--ws-file", "{ws_path4}"],
}


def report_bytes(argv, workdir: Path) -> bytes:
    spec = workdir / "dinf_q3.json"
    spec.write_text(json.dumps({"coxeter": {"generators": ["s", "t"], "commuting_pairs": []},
                                "parameters": {"s": 3, "t": 3}}))
    ws = workdir / "ws.json"
    ws.write_text(json.dumps(["t s", "t s t s", "t s t s t s"]))
    free3 = workdir / "free3.json"
    free3.write_text(json.dumps({"generators": ["a", "b", "c"], "commuting_pairs": []}))
    path4 = workdir / "path4_q34.json"
    path4.write_text(json.dumps({
        "coxeter": {"generators": ["a", "b", "c", "d"],
                    "commuting_pairs": [["a", "b"], ["b", "c"], ["c", "d"]]},
        "parameters": {"a": 3, "b": 4, "c": 3, "d": 4}}))
    ws_path4 = workdir / "ws_path4.json"
    ws_path4.write_text(json.dumps(["a c", "a c a c"]))
    out = workdir / "report.json"
    argv = [tok.format(spec=spec, ws=ws, free3=free3, path4=path4, ws_path4=ws_path4)
            for tok in argv]
    assert run(argv + ["--out", str(out)]) == 0, argv
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    assert report_bytes(CASES[name], tmp_path) == (GOLDEN / f"{name}.json").read_bytes()


# Text goldens, frozen from the recursive text renderer that the record
# template replaced (tests/oracles.py::recursive_render_text).
TEXT_CASES = ("tree_r6", "kak_tree_r1_s2", "building_ball_L4", "padic_p3_n10")


@pytest.mark.parametrize("name", TEXT_CASES)
def test_golden_text_report(name, tmp_path):
    got = report_bytes(CASES[name] + ["--format", "text"], tmp_path)
    assert got == (GOLDEN / f"{name}.txt").read_bytes()

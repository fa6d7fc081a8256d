"""The JSON readers of the four input documents: label vectors, local groups,
Coxeter systems and building specs.

Generated documents round-trip through from_json and to_json.  Each mutation
below breaks one rule of its reader, so the mutated document must raise
ValueError, and the CLI command that reads it must exit 1 with one `error:`
line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from tdlc import coxeter_ra as cox
from tdlc import rab
from tdlc import tree_core as tc
from tdlc import universal_groups as ug
from tdlc.cli import run

NAMES = ["s", "t", "u", "v", "w"]
NOT_AN_INT = st.sampled_from([None, True, 2.0, "3", [3]])
NOT_A_STRING = st.sampled_from([None, 1, True, ["s"]])
NOT_A_LIST = st.sampled_from([None, 3, "st", {"s": 1}])


@st.composite
def label_vector_docs(draw):
    labels = draw(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=3, unique=True))
    degrees = {lab: draw(st.integers(2, 4)) for lab in labels}
    rule = sorted([lab, slot, draw(st.sampled_from(labels))]
                  for lab in labels for slot in range(degrees[lab]))
    return {"labels": labels, "degrees": degrees, "rule": rule}


@st.composite
def local_group_docs(draw):
    degree = draw(st.integers(1, 5))
    gens = draw(st.lists(st.permutations(range(1, degree + 1)), max_size=3))
    return {"degree": degree, "generators": [list(g) for g in gens]}


@st.composite
def coxeter_docs(draw):
    gens = NAMES[:draw(st.integers(1, len(NAMES)))]
    pairs = [[a, b] for i, a in enumerate(gens) for b in gens[i + 1:] if draw(st.booleans())]
    return {"generators": gens, "commuting_pairs": pairs}


@st.composite
def building_spec_docs(draw):
    coxeter = draw(coxeter_docs())
    return {"coxeter": coxeter, "parameters": {s: draw(st.integers(2, 5)) for s in coxeter["generators"]}}


def without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


@st.composite
def broken_label_vectors(draw, doc):
    labels, rule = doc["labels"], doc["rule"]
    i = draw(st.integers(0, len(rule) - 1))
    lab = draw(st.sampled_from(labels))
    return draw(st.sampled_from([
        lambda: without(doc, draw(st.sampled_from(sorted(doc)))),
        lambda: {**doc, "labels": draw(NOT_A_LIST)},
        lambda: {**doc, "labels": labels + [draw(NOT_A_STRING)]},
        lambda: {**doc, "degrees": {**doc["degrees"], lab: draw(NOT_AN_INT | st.integers(-1, 1))}},
        lambda: {**doc, "degrees": without(doc["degrees"], lab)},
        lambda: {**doc, "rule": rule[:i] + rule[i + 1:]},              # a slot left without a label
        lambda: {**doc, "rule": rule + [rule[i]]},                     # a slot listed twice
        lambda: {**doc, "rule": rule[:i] + [rule[i][:2] + ["Z"]] + rule[i + 1:]},
        lambda: {**doc, "rule": rule[:i] + [[rule[i][0], draw(NOT_AN_INT), rule[i][2]]] + rule[i + 1:]},
        lambda: {**doc, "rule": rule[:i] + [rule[i][:2]] + rule[i + 1:]},
    ]))()


@st.composite
def broken_local_groups(draw, doc):
    degree, gens = doc["degree"], doc["generators"]
    bad_perm = draw(st.sampled_from([[0] + list(range(2, degree + 1)),             # colour 0
                                     list(range(1, degree + 1)) + [degree + 1],    # too long
                                     [1] * degree if degree > 1 else [2],          # not a bijection
                                     [draw(NOT_AN_INT)] + list(range(2, degree + 1))]))
    return draw(st.sampled_from([
        lambda: without(doc, draw(st.sampled_from(sorted(doc)))),
        lambda: {**doc, "degree": draw(NOT_AN_INT)},
        lambda: {**doc, "generators": draw(NOT_A_LIST)},
        lambda: {**doc, "generators": gens + [bad_perm]},
    ]))()


@st.composite
def broken_coxeter_systems(draw, doc):
    gens, pairs = doc["generators"], doc["commuting_pairs"]
    s = draw(st.sampled_from(gens))
    return draw(st.sampled_from([
        lambda: without(doc, "generators"),
        lambda: {**doc, "generators": draw(NOT_A_LIST)},
        lambda: {**doc, "generators": gens + [draw(NOT_A_STRING | st.just(s))]},  # or a repeated name
        lambda: {**doc, "commuting_pairs": draw(NOT_A_LIST)},
        lambda: {**doc, "commuting_pairs": pairs + [draw(st.sampled_from(
            [[s, "x"], [s, s], [s], [], NAMES[:3] if len(gens) >= 3 else [s, "x", "y"], [s, 1], "st"]))]},
    ]))()


@st.composite
def broken_building_specs(draw, doc):
    params = doc["parameters"]
    s = draw(st.sampled_from(sorted(params)))
    return draw(st.sampled_from([
        lambda: without(doc, draw(st.sampled_from(sorted(doc)))),
        lambda: {**doc, "coxeter": draw(broken_coxeter_systems(doc["coxeter"]))},
        lambda: {**doc, "parameters": draw(NOT_A_LIST | st.just([[s, 3]]))},
        lambda: {**doc, "parameters": {**params, s: draw(NOT_AN_INT | st.integers(-1, 1))}},
        lambda: {**doc, "parameters": without(params, s)},
        lambda: {**doc, "parameters": {**params, "x": 3}},
    ]))()


# (reader, valid documents, mutations, CLI command reading the document from {f})
READERS = {
    "label vector": (tc.LabelVector.from_json, label_vector_docs(), broken_label_vectors,
                     ["tree", "--radius", "1", "--label-config", "{f}", "--root-label", "A"]),
    "local group": (ug.LocalGroup.from_json, local_group_docs(), broken_local_groups,
                    ["ugroup", "--radius", "1", "--local-group", "{f}"]),
    "coxeter system": (cox.RACoxeterSystem.from_json, coxeter_docs(), broken_coxeter_systems,
                       ["coxeter", "nf", "--config", "{f}", "--word", ""]),
    "building spec": (rab.BuildingSpec.from_json, building_spec_docs(), broken_building_specs,
                      ["building", "ball", "--spec", "{f}", "--L", "1"]),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(READERS)), st.data())
def test_generated_documents_round_trip(reader, data):
    from_json, docs, _, _ = READERS[reader]
    doc = data.draw(docs)
    read = from_json(doc)
    assert read.to_json() == doc
    assert from_json(read.to_json()) == read


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(READERS)), st.data())
def test_mutated_documents_are_invalid_input(doc_dir, reader, data):
    from_json, docs, broken, command = READERS[reader]
    doc = data.draw(broken(data.draw(docs)))
    with pytest.raises(ValueError):
        from_json(doc)
    f = doc_dir / "document.json"
    f.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([tok.format(f=f) for tok in command] + ["--out", str(doc_dir / "out.json")])
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), (doc, code, lines)

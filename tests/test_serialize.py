import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from smallcuts.covering import Instance, Link
from smallcuts.errors import InvalidParameterError
from smallcuts.multigraph import MultiGraph
from smallcuts.oracle import gap_experiment, gap_sweep, verify_cores_lemma
from smallcuts.serialize import (
    canonical_text,
    fraction_str,
    gap_to_obj,
    instance_from_obj,
    instance_from_text,
    instance_to_obj,
    instance_to_text,
    read_instance,
    report_to_obj,
    sweep_to_obj,
    to_dot,
    trace_to_obj,
    write_instance,
)
from smallcuts.tightgen import generate_instance
from smallcuts.wgmv import TiePolicy, run


def test_fraction_str_always_num_den():
    assert fraction_str(Fraction(3)) == "3/1"
    assert fraction_str(Fraction(5, 2)) == "5/2"
    assert fraction_str(Fraction(0)) == "0/1"


def test_instance_obj_schema():
    inst = generate_instance(1, 1, 3).instance
    obj = instance_to_obj(inst)
    assert set(obj) == {"k", "nodes", "edges", "links"}
    assert obj["k"] == 3
    assert obj["nodes"][0] == {"id": 0, "label": "t"}
    assert obj["edges"][0] == {"u": 0, "v": 1, "mult": 2}
    assert obj["links"][0] == {"u": 0, "v": 5, "cost": "1/1", "tag": "blue"}


def test_round_trip_byte_identical(tmp_path):
    for params in [(1, 1, 3), (1, 2, 5), (2, 2, 9)]:
        inst = generate_instance(*params).instance
        text = instance_to_text(inst)
        again = instance_to_text(instance_from_text(text))
        assert again == text
    path = tmp_path / "inst.json"
    inst = generate_instance(1, 2, 5, Fraction(1, 100)).instance
    write_instance(str(path), inst)
    loaded = read_instance(str(path))
    assert instance_to_text(loaded) == path.read_text()
    assert loaded.links[0].cost == Fraction(101, 100)


def test_parse_preserves_epsilon_exactly():
    inst = generate_instance(1, 2, 5, Fraction(1, 3)).instance
    again = instance_from_text(instance_to_text(inst))
    assert again.links[0].cost == 1 + Fraction(1, 3)


def _valid_obj():
    return json.loads(instance_to_text(generate_instance(1, 1, 3).instance))


@pytest.mark.parametrize(
    "mangle",
    [
        lambda o: o.pop("k"),
        lambda o: o.pop("nodes"),
        lambda o: o["nodes"].append({"id": 0, "label": "dup"}),
        lambda o: o["nodes"][0].update(id="zero"),
        lambda o: o["edges"][0].update(mult=-2),
        lambda o: o["edges"][0].update(u=0, v=0),
        lambda o: o["links"][0].update(cost=1.5),
        lambda o: o["links"][0].update(cost="1/0"),
        lambda o: o["links"][0].update(tag="purple"),
        lambda o: o["links"][0].update(u=99),
        lambda o: o.update(k="three"),
        lambda o: o["edges"][0].update(mult=1.5),
        lambda o: o["edges"][0].update(u="0"),
        lambda o: o["links"][0].update(v=True),
        lambda o: o["links"][0].update(cost=True),
        lambda o: o["links"][0].update(cost=None),
        lambda o: o["links"][0].update(cost=[1]),
        lambda o: o["nodes"][0].update(label=5),
    ],
)
def test_parse_rejects_malformed(mangle):
    obj = _valid_obj()
    mangle(obj)
    with pytest.raises(InvalidParameterError):
        instance_from_obj(obj)


def test_parse_rejects_garbage_text():
    with pytest.raises(InvalidParameterError):
        instance_from_text("not json {")
    with pytest.raises(InvalidParameterError):
        instance_from_text("[1, 2, 3]")


def test_trace_obj_shape():
    lab = generate_instance(1, 2, 5)
    inst = lab.instance
    result = run(inst, policy=TiePolicy.ADVERSARIAL)
    obj = trace_to_obj(result, inst)
    assert obj["policy"] == "adversarial"
    assert obj["added"] == [3, 4, 5, 6, 7, 8, 0, 1, 2]
    assert obj["final"] == [3, 4, 5, 6, 7, 8]
    assert obj["cost"] == "10/1"
    assert obj["dual_objective"] == "4/1"
    (rec,) = obj["iterations"]
    assert rec["newly_tight"] == [3, 4, 5, 6, 7, 8, 0, 1, 2]
    assert rec["delta"] == "1/1"
    assert [tuple(c) for c in rec["active_cores"]] == [(0,), (4,), (2, 3, 6, 7, 8), (10,)]
    assert set(obj["duals"]) == {"0", "4", "2,3,6,7,8", "10"}
    assert all(v == "1/1" for v in obj["duals"].values())
    json.dumps(obj)  # must be plain JSON data


def test_report_and_gap_objs_serialize():
    lab = generate_instance(1, 2, 5)
    report = report_to_obj(verify_cores_lemma(lab))
    assert report["passed"] is True
    assert report["checks"][0]["name"]
    gap = gap_to_obj(gap_experiment(lab, TiePolicy.ADVERSARIAL))
    assert gap["ratio"] == "5/2"
    assert gap["alg_cost"] == "10/1"
    assert gap["opt_is_analytic"] is False
    rows = sweep_to_obj(gap_sweep([5]))
    assert rows[0]["matches"] is True
    json.dumps([report, gap, rows])


def test_canonical_text_sorted_keys():
    text = canonical_text({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_dot_export():
    inst = generate_instance(1, 1, 3).instance
    dot = to_dot(inst)
    assert dot.startswith("graph instance {")
    assert '0 [label="t"]' in dot
    assert '0 -- 1 [color=green, label="2"]' in dot
    assert '0 -- 5 [color=blue, style=dashed, label="1"]' in dot
    assert '0 -- 2 [color=red, style=dashed, label="2"]' in dot
    # q-1 = 0 records never appear
    assert "1 -- 6" not in dot


def test_dot_untagged_and_empty_links():
    g = MultiGraph(2, [(0, 1, 1)])
    inst = Instance(graph=g, k=2, links=(Link(0, 1, Fraction(1, 2)),))
    dot = to_dot(inst)
    assert 'color=gray, style=dashed, label="1/2"' in dot
    bare = Instance(graph=g, k=2, links=())
    assert "dashed" not in to_dot(bare)


def test_file_api_exported_at_package_root():
    import smallcuts

    for name in (
        "read_instance",
        "write_instance",
        "instance_to_text",
        "instance_from_text",
        "to_dot",
        "trace_to_obj",
        "fraction_str",
    ):
        assert hasattr(smallcuts, name)
        assert name in smallcuts.__all__
    missing = [name for name in smallcuts.__all__ if not hasattr(smallcuts, name)]
    assert missing == []


GOLDEN = Path(__file__).resolve().parent / "golden"
# the longest int `str` writes; the limit is new in Python 3.11, and 0 lifts it
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
_KEY_CHARS = "ab_ Zé€\"\\/\n\t\x00\x1f\u2028\U0001f600"


def _nested(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, -1, 1]) * rng.randrange(10 ** rng.randint(0, _MAX_DIGITS))
    if kind == 2:
        return "".join(rng.choice(_KEY_CHARS) for _ in range(rng.randint(0, 6)))
    if kind == 3:
        return rng.choice([[], {}])
    if kind == 4:
        return rng.randint(-3, 3)
    if kind in (5, 6):
        return [_nested(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = {"".join(rng.choice(_KEY_CHARS) for _ in range(rng.randint(0, 4))) for _ in range(rng.randint(0, 4))}
    return {key: _nested(rng, depth + 1) for key in keys}


def test_canonical_text_is_sorted_indented_json():
    """`canonical_text` writes what `json.dumps(sort_keys, indent=2)` writes,
    on every golden document and on seeded nested objects."""
    documents = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(GOLDEN.glob("*.json"))]
    assert len(documents) >= 8
    rng = random.Random(3316)
    documents += [_nested(rng, 0) for _ in range(400)]
    documents += [10 ** (_MAX_DIGITS - 1), -(10**_MAX_DIGITS - 1), {"ε": ["", None, True, False, [], {}]}]
    for obj in documents:
        assert canonical_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"

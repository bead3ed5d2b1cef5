"""The workloads' checks: exact arithmetic helpers and negative controls."""

import json
from fractions import Fraction
from types import SimpleNamespace

import workloads
from qptransport import cli


def test_exact_continued_fraction_denominators():
    assert workloads._denominators(Fraction(8, 13)) == [1, 2, 3, 5, 13]
    assert workloads._denominators(Fraction(1, 2)) == [2]


def test_theorem_demo_check_catches_corrupted_outputs(tmp_path):
    inst = workloads.theorem_demo(0, SimpleNamespace(cli=cli), tmp_path)
    payload = inst.ops[0][1]()
    assert inst.check([payload]) == []
    rep = json.loads(payload["theorem_demo.json"])
    rep["schedule"]["denominators"][0] += 1
    rep["threshold"] = 2.5
    bad = dict(payload, **{"theorem_demo.json": json.dumps(rep).encode()})
    problems = inst.check([bad])
    assert any("above 2" in p for p in problems)
    assert any("scheduled convergent" in p for p in problems)

"""Every shipped config still writes its reference tree (``tests/reference``).

A change meant to keep every artifact byte-identical must pass this
unchanged; one meant to move them rewrites the trees with
``python -m tests.reference --update`` and says why.
"""

from __future__ import annotations

import json

import reference


def test_shipped_configs_write_their_reference_trees(tmp_path):
    manifest = json.loads(reference.MANIFEST.read_text())
    assert reference.write_trees(tmp_path) == manifest["exit_codes"]
    exact = reference.same_platform(manifest)
    errors = reference.compare_trees(reference.TREES, tmp_path, exact)
    assert not errors, "\n".join(errors[:20])


def test_the_comparison_tells_a_moved_number_from_roundoff(tmp_path):
    # the check itself: a relative 1e-12 passes the tolerance and fails
    # bit for bit, a relative 1e-6 fails both, and a status must match
    expected, actual = tmp_path / "expected", tmp_path / "actual"
    for root in (expected, actual):
        root.mkdir()
    (expected / "a.csv").write_text("t,x,status\n0,1.0,OK\n1,2.0,OK\n")
    (expected / "v.json").write_text('{"passed": true, "measured": 0.5}\n')

    def actual_tree(x: str, status: str = "OK", passed: str = "true") -> None:
        (actual / "a.csv").write_text(f"t,x,status\n0,1.0,OK\n1,{x},{status}\n")
        (actual / "v.json").write_text(f'{{"passed": {passed}, "measured": 0.5}}\n')

    actual_tree("2.0")
    assert reference.compare_trees(expected, actual, exact=True) == []
    actual_tree(repr(2.0 * (1 + 1e-12)))
    assert reference.compare_trees(expected, actual, exact=False) == []
    assert len(reference.compare_trees(expected, actual, exact=True)) == 1
    actual_tree(repr(2.0 * (1 + 1e-6)))
    assert len(reference.compare_trees(expected, actual, exact=False)) == 1
    actual_tree("2.0", status="FAIL", passed="false")
    assert len(reference.compare_trees(expected, actual, exact=False)) == 2
    (actual / "extra.csv").write_text("t\n")
    assert reference.compare_trees(expected, actual, exact=False)[0].startswith("files")

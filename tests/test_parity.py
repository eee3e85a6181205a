"""The parity harness (tests/parity.py): A/A on its small corpus, and its comparison rules."""

import json
import subprocess
import sys

import numpy as np

from parity import REPO, compare


def test_small_corpus_against_the_working_tree_is_bit_identical():
    # both sides run the working tree, each in a fresh process
    script = REPO / "tests" / "parity.py"
    out = subprocess.run(
        [sys.executable, str(script), "--base", str(REPO), "--small"],
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(out.stdout)
    assert report["identical"] and report["base_commit"] is None
    assert report["states"] == 24 and report["missing"] == {"base": [], "head": []}
    groups = {name.split(".")[0] for name in report["fields"]}
    assert groups == {"state", "criterion", "closed", "entropic", "dqc1", "oracle"}
    for entry in report["fields"].values():
        assert entry["compared"] == entry["identical"] > 0
        assert entry.get("max_abs_diff", 0.0) == 0.0 and "flips" not in entry


def test_compare_counts_differences_and_lists_flips():
    base = {
        "s0": {"v": 0.25, "r": np.array([1.0, -2.0]), "ok": True, "rank": 3},
        "s1": {"v": 0.0, "r": np.array([0.5]), "ok": False, "rank": 2},
        "gone": {"v": 1.0},
    }
    head = {
        "s0": {"v": 0.25 + 2**-54, "r": np.array([1.0, -2.0]), "ok": False, "rank": 3},
        "s1": {"v": -0.0, "r": np.array([0.5, 0.0]), "ok": False, "rank": 4},
        "new": {"v": 1.0},
    }
    report = compare(base, head)
    assert not report["identical"] and report["states"] == 2
    assert report["missing"] == {"base": ["new"], "head": ["gone"]}
    fields = report["fields"]
    # -0.0 and 0.0 are equal but not bit-identical
    assert fields["v"] == {
        "compared": 2, "identical": 0, "max_abs_diff": 2**-54,
        "max_abs": {"base": 0.25, "head": 0.25 + 2**-54},
    }
    assert fields["r"]["identical"] == 1
    assert fields["r"]["flips"] == [{"state": "s1", "base": (1,), "head": (2,)}]
    assert fields["ok"] == {
        "compared": 2, "identical": 1, "flips": [{"state": "s0", "base": True, "head": False}]
    }
    assert fields["rank"]["flips"] == [{"state": "s1", "base": 2, "head": 4}]
    same = compare(base, base)
    assert same["identical"]
    assert all(e["compared"] == e["identical"] for e in same["fields"].values())

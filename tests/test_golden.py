"""Golden digests: the sha256 of every artifact each builtin writes.

fig9a and the two lattice builtins run at full length; the other
simulator builtins run at a reduced step budget through the same CLI
path.  A change that alters any trajectory, analysis result or artifact
format fails here; such a change is a declared re-baseline, and the
pins below are regenerated together with it.  The fig11 sweep pins
grid.json on its own and its 60 per-cell files as one combined digest
(sha256 of the sorted "path sha256" lines).  The two 512-element ad-hoc
lattices, diag:9 (Boolean, distributive) and blocks:8,8 (two blocks, not
distributive), pin the law checks at the table-size cap.  The 8-element
blocks:2,2,2,2:overlap=2,3 lattice pins the orthocomplement search's
fallback: its first descent fails, and the one Boolean block it reports
depends on the assignment that the fallback finds.
"""

import hashlib
import json
import os

import pytest

from chemlattice.harness import main

ARGV = {
    "fig9a": ["run", "fig9a"],
    "fig5-lattice": ["lattice", "fig5-lattice"],
    "fig4-lattice": ["lattice", "fig4-lattice"],
    "fig9b": ["run", "fig9b", "--steps", "5000"],
    "fig9c": ["run", "fig9c", "--steps", "5000"],
    "fig10": ["run", "fig10", "--steps", "5000"],
    "fig12": ["run", "fig12", "--steps", "12000"],
    "fig11": ["sweep", "fig11", "--steps", "1000"],
    "diag:9": ["lattice", "diag:9"],
    "blocks:8,8": ["lattice", "blocks:8,8"],
    "blocks:2,2,2,2:overlap=2,3": ["lattice", "blocks:2,2,2,2:overlap=2,3"],
}

GOLDEN = {
    "fig9a": {
        "series.csv": "495289114458007cb79665495637f1ebf00e1f3cbd053d6df9a360b8638b4e28",
        "summary.json": "7ec2497c213f7beac62a874284e6a8306a249502aae1bc16968db8808432829f",
    },
    "fig5-lattice": {
        "lattice.dot": "3d134bf57ce91f8a5fe436d1cba097a9d0241eb972676bccd0b21f5bbe50cac5",
        "laws.json": "6028bcda1dc681f525dccb6e4146122ef01dff5583448a2ffde5175ff66a13f9",
        "summary.json": "467c1863a9170ffa22ada4efed91126bab87ab3cc49643797ddf23af926edc6a",
    },
    "fig4-lattice": {
        "lattice.dot": "2e9d378ad1e4ab53cc80389471f1630df351680612181ba094f1546a25a5b1ce",
        "laws.json": "b1622c3b1aa846aec66e1250ed1813e9a03039d2b1fa9fc10f169bd0553473b1",
        "summary.json": "558ca7f8cde0984f1dc223602c166ee9085f18971ae1d9b1f2566b4beb5b1076",
    },
    "fig9b": {
        "series.csv": "c110cdd6df7ae31885c02897442c402f20961528bf125b4990442741ca9c3493",
        "summary.json": "64877163ea4f433048fa6b4626bf19a98d81dd8fc970100503b56657a9ac6f57",
    },
    "fig9c": {
        "series.csv": "1d7b8adb78c1d7286143e9235e7b3527463fd862af87e09f7fbe45a9136af8b7",
        "summary.json": "047a7b50910e469799938b65614122cb60de5723f91ef51309792577b83e4dbb",
    },
    "fig10": {
        "series.csv": "c110cdd6df7ae31885c02897442c402f20961528bf125b4990442741ca9c3493",
        "summary.json": "351c32c978c6a5f6a2a580901093ca27c6801b373dfc84a66eea13d161a998aa",
    },
    "fig12": {
        "series.csv": "26980594b7056f681867acda8bf5a6ca7002728fc61909f9d0c4c220929e9aa4",
        "summary.json": "196b5328c0e40d7c2f1b7b19e6884f9d8b172c350c5663167b4018063a217699",
    },
    "fig11": {
        "grid.json": "ac8788a2ac3bfff50d3a519e0539e26fbff5c7019233ae09952dd74e50161c7b",
        "cells": "63f510f62b7b825670d60e6c9ec11f524e0d38cad816ec1bb111e56f5d02b5b9",
    },
    "diag:9": {
        "lattice.dot": "85a7dbd05ffcb0c5c695764245e11e754ca9cc9d3e4f78f1d230e1041fa9d420",
        "laws.json": "206b389982d7e737faa1a778423874351152b5a15d83aa6c60da7fd9fee41cf3",
        "summary.json": "283e82e68e53c19398a4512fab395cadb488f684a71f2220d34822343d780e37",
    },
    "blocks:8,8": {
        "lattice.dot": "9b9e31795508dc101cf2571fc25d875240b051eb6c7c0e17f7d5265b74b4e0e5",
        "laws.json": "5d79d5367879950818c0eec21db908de335ff581491abedb90f152c1e5d28687",
        "summary.json": "a7e02328b4b99dec1715bee72ec42c5dbe11d6255f4bd458a2d8627f12fbc319",
    },
    "blocks:2,2,2,2:overlap=2,3": {
        "lattice.dot": "900aca2eca8e675270412e398280355b8c2c05d7c6aae088dffae975f26684ea",
        "laws.json": "0636c27bdc45a03534e71b6508060f1344047b783b903c8e1ad99539f7493cec",
        "summary.json": "57a99a63a10465ed910cb2d3b1f41240679f52372e0227313b9f48fc7231e7a3",
    },
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(ARGV))
def test_golden_digests(name, tmp_path):
    out = tmp_path / name
    assert main(ARGV[name] + ["--out", str(out)]) == 0
    with open(out / "manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    got = {rel: _sha256(os.path.join(out, rel)) for rel in manifest["files"]}
    assert got == {rel: f["sha256"] for rel, f in manifest["files"].items()}
    if name == "fig11":
        cells = sorted((rel, sha) for rel, sha in got.items() if rel != "grid.json")
        assert len(cells) == 60
        blob = "".join(f"{rel} {sha}\n" for rel, sha in cells)
        got = {
            "grid.json": got["grid.json"],
            "cells": hashlib.sha256(blob.encode()).hexdigest(),
        }
    assert got == GOLDEN[name]

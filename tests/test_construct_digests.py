"""`construct` outputs pinned by sha256 digests recorded before the field
layer moved from per-element polynomial arithmetic to one power table (the
davis and lexprod entries before connection sets became index arrays).

Each entry names a `construct` argument list and the digests of its `.set`
bytes, its `.g6` bytes and its JSON report with the `files` key (the output
paths) removed.  Regenerate the file only for a deliberate output change:

    PYTHONPATH=src python tests/test_construct_digests.py > tests/data/construct_digests.json
"""

import hashlib
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

from cayleycert.cli import main

DIGESTS = Path(__file__).parent / "data" / "construct_digests.json"

#: Every paley and peisert order built in the tests, the benchmark workloads
#: and the reproduce-paper claims, plus the largest orders within the budget.
PALEY_ORDERS = (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61, 73, 81, 121, 169, 257, 289, 361, 529, 841, 4093)
PEISERT_ORDERS = (9, 49, 81, 121, 361, 529, 729, 2401, 3481)
CASES = (
    [["paley", "--q", str(q)] for q in PALEY_ORDERS]
    + [["peisert", "--q", str(q)] for q in PEISERT_ORDERS]
    + [["peisert", "--q", "49", "--generator", "3,1"]]
    + [["davis", "--p", str(p)] for p in (3, 5, 7)]
    + [
        ["lexprod", "--left", "paley:5", "--right", "paley:5"],
        ["lexprod", "--left", "paley:9", "--right", "paley:13"],
    ]
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def construct_digests(argv: list[str], out: Path) -> dict:
    """Run `construct argv --out out` and digest the three files it writes."""
    code = main(["construct", *argv, "--out", str(out)])
    assert code == 0, argv
    stem = next(out.glob("*.set")).stem
    doc = json.loads((out / f"{stem}.json").read_text())
    del doc["files"]
    return {
        "set": _sha256((out / f"{stem}.set").read_bytes()),
        "g6": _sha256((out / f"{stem}.g6").read_bytes()),
        "json": _sha256(json.dumps(doc, indent=2, sort_keys=True).encode()),
    }


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def test_cases_match_recorded_keys():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(map(_key, CASES))


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_construct_digest(argv, tmp_path, capsys):
    want = json.loads(DIGESTS.read_text())[_key(argv)]
    assert construct_digests(argv, tmp_path) == want
    capsys.readouterr()


if __name__ == "__main__":
    record = {}
    with TemporaryDirectory() as tmp, redirect_stdout(sys.stderr):
        for i, argv in enumerate(CASES):
            record[_key(argv)] = construct_digests(argv, Path(tmp) / str(i))
    print(json.dumps(record, indent=2, sort_keys=True))

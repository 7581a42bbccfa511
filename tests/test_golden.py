"""Golden digests of the printed output: the byte contract as a test.

Every printed number, report line and serialized tree is part of the
contract, so a change of arithmetic must leave the bytes alone.  Each test
hashes, with sha256, the stdout of one ``cli.main`` command over every
nonempty diagram up to degree 9 (96 diagrams, as ``rows:`` text), or of
``verify --check all --max-degree 8``, and compares it with a digest
recorded from the code before the integer arithmetic cores.  The rank -1
trees on the bounding boxes, which ``verify`` walks but no command prints,
are hashed as serialized trees against a digest recorded before the padded
rank-0 path was removed.  Every tree that ``verify`` walks to degree 12,
plus the 40- and 150-row staircases, is hashed the same way against a
digest recorded before the cut families were stated once.  Change a digest
only together with an intended change of output.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from staircase import cli, oracle
from staircase.diagram import enumerate_diagrams_upto
from staircase.objects import decompose, is_trivial, rank_minus_one, rank_one, serialize_tree

DIAGRAMS = [d for d in enumerate_diagrams_upto(9) if d]

# name -> (subcommand and options, sha256 of the stdout over DIAGRAMS)
GOLDEN = {
    "slope": (("slope",),
        "160bcfea642319af8c79c2d1e9fae0cd6ceba0a326c29903ef8029d2c670ae75",
    ),
    "wall": (("wall",),
        "6415dac12ca89dcb32bcad18726b1c1c48694a16e5a888edbe2fd9bb61ec3fee",
    ),
    "interp": (("interp",),
        "1de3b1e9d0a441b52bbd39b20dd8109b6dcbcadcf0fffa87ad9b9c070e7d5287",
    ),
    "interp --approx": (("interp", "--approx"),
        "67aa47e467b4f29dd7f4c0461645c3ea72a58438943da777a9d2fe5ab790c05e",
    ),
    "dual": (("dual",),
        "9fb1614294a731d2406b49aea1d719203caa919ddab8628618d8a2e3b2b2fb53",
    ),
    "resolution --matrix": (("resolution", "--matrix"),
        "7ddced958af42a803a2b730c1a43884594cf3d8eda3701d8d05c3a3cb3f0ab80",
    ),
    "decompose": (("decompose",),
        "e6a9827aa59d20ef5fb30b2d788b0a1204031cc8b6b882ae26f0c5dcc024dbcf",
    ),
    "decompose --format json": (("decompose", "--format", "json"),
        "d944c2cb6f92de9aaa443b52e0f25e74de9c7c2ab577a2e76c164b89863fd78a",
    ),
    "decompose --format dot": (("decompose", "--format", "dot"),
        "04c0cc182965914775317cc4bcd0d748c0275c43f24294f288ccf8926c57d968",
    ),
}
VERIFY_ARGV = ("verify", "--check", "all", "--max-degree", "8")
VERIFY_SHA256 = "6bfde21a9fa8dfaba177ddff4c78c5e87c95d9e4324fb5c61f34d1a96467a657"
# sha256 of serialize_tree(decompose(rank_minus_one(d))) plus a newline, for
# every diagram of DIAGRAMS that does not fill its bounding box
BOX_TREES_SHA256 = "8acbe3459ae77b2f945225bf49db9873ee9d793041207d03bf501108a4023c20"
# the same over every oracle._tree_roots tree of a nonempty diagram of degree
# <= 12, then the 40- and 150-row staircases
DEGREE_12_TREES_SHA256 = "5ad94a90dee27c9f7d75e32f0569445d59233f0f18ebf23e2112f7b38ed5241f"


def stdout_of(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name", GOLDEN)
def test_command_stdout_matches_golden_digest(name):
    (command, *options), expected = GOLDEN[name]
    digest = hashlib.sha256()
    for d in DIAGRAMS:
        rows = "rows: " + ",".join(map(str, d))
        digest.update(stdout_of((command, rows, *options)).encode())
    assert digest.hexdigest() == expected


def test_verify_report_matches_golden_digest(monkeypatch):
    monkeypatch.delenv(cli.REPORT_PATH_VAR, raising=False)
    text = stdout_of(VERIFY_ARGV)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_SHA256


def test_box_trees_match_golden_digest():
    digest = hashlib.sha256()
    for d in DIAGRAMS:
        box = rank_minus_one(d)
        if not is_trivial(box):
            digest.update(serialize_tree(decompose(box)).encode() + b"\n")
    assert digest.hexdigest() == BOX_TREES_SHA256


def test_degree_12_trees_match_golden_digest():
    roots = [root for d in enumerate_diagrams_upto(12) if d for root in oracle._tree_roots(d)]
    roots += [rank_one(tuple(range(rows, 0, -1))) for rows in (40, 150)]
    digest = hashlib.sha256()
    for root in roots:
        digest.update(serialize_tree(decompose(root)).encode() + b"\n")
    assert digest.hexdigest() == DEGREE_12_TREES_SHA256

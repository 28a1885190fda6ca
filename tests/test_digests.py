"""Whole-grid output digests: every output kind over every member up to a size.

The walk covers cylinders m 1..12 × n 2..12, then tori m, n 2..12, with m
as the outer loop.  Each output kind keeps one running SHA-256, fed the
UTF-8 bytes that ``cli.run`` writes for each member in turn, with no
separator: ``generate``'s document (with its rule trace), the same
document without its trace, ``verify --json``, the ``verify`` table,
``export --format csv``, ``export --format dot`` and, for a torus, its
``sweep`` document.  Each document, parsed and written again, must give
the same bytes.

``tests/data/digests.json`` holds the digests of the members with
m, n <= 6, which the test checks, and of the whole grid.  Running this
file directly walks the whole grid and prints that file's content, so a
check of the whole grid is

    PYTHONPATH=src python tests/test_digests.py | diff - tests/data/digests.json

A change that alters a digest does so on purpose, and re-records the file
from this output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from intervalmesh.cli import run
from intervalmesh.colorings import coloring_from_json_dict, coloring_to_json_dict
from intervalmesh.grids import dumps_canonical

DIGESTS = Path(__file__).parent / "data" / "digests.json"
KINDS = ("document", "document without trace", "verify --json", "verify table", "csv", "dot",
         "torus sweep")
SIZES = (6, 12)  # the largest m and n of each recorded grid


def members(size: int):
    """(family, m, n) of the grid up to ``size``, in walk order."""
    yield from (("cylinder", m, n) for m in range(1, size + 1) for n in range(2, size + 1))
    yield from (("torus", m, n) for m in range(2, size + 1) for n in range(2, size + 1))


def _cli(*argv: object) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


def _written(doc: bytes) -> bytes:
    """``doc`` parsed and written again; it must come back unchanged."""
    coloring, trace = coloring_from_json_dict(json.loads(doc))
    again = dumps_canonical(coloring_to_json_dict(coloring, trace)).encode("utf-8")
    assert again == doc
    return again


def outputs(family: str, m: int, n: int, path: Path) -> dict[str, bytes]:
    """Every output kind of one member; ``path`` holds its document."""
    doc = _written(_cli("generate", "--family", family, "-m", m, "-n", n))
    coloring, _ = coloring_from_json_dict(json.loads(doc))
    path.write_bytes(doc)
    got = {
        "document": doc,
        "document without trace": _written(dumps_canonical(coloring_to_json_dict(coloring))
                                           .encode("utf-8")),
        "verify --json": _cli("verify", path, "--json"),
        "verify table": _cli("verify", path),
        "csv": _cli("export", path, "--format", "csv"),
        "dot": _cli("export", path, "--format", "dot"),
    }
    if family == "torus":
        got["torus sweep"] = _cli("sweep", "-m", m, "-n", n)
    return got


def digests(size: int, workdir: Path) -> dict[str, dict[str, str]]:
    """The digest of each kind over the grid of each of ``SIZES`` up to
    ``size``, in one walk of the largest: a smaller grid's members come
    in its own walk order."""
    hashes = {s: {kind: hashlib.sha256() for kind in KINDS} for s in SIZES if s <= size}
    for family, m, n in members(size):
        got = outputs(family, m, n, workdir / "doc.json")
        for s, kinds in hashes.items():
            if m <= s and n <= s:
                for kind, data in got.items():
                    kinds[kind].update(data)
    return {str(s): {kind: h.hexdigest() for kind, h in kinds.items()}
            for s, kinds in hashes.items()}


def test_output_digests_up_to_m_n_6(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert digests(6, tmp_path) == {"6": recorded["6"]}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(json.dumps(digests(max(SIZES), Path(tmp)), indent=2) + "\n")

"""Golden CLI digests: a fixed argv set must keep its output byte for byte.

Each case runs through ``cli.run`` in a scratch directory, in order, so
later cases read the files earlier ones wrote.  The test compares the
exit code, the SHA-256 of stdout and the SHA-256 of every file the case
writes with the values recorded in ``GOLDEN``.  Manifests are not
digested (they carry wall times); the files replayed from them are.

To re-record after an intended output change, run this file directly
(``PYTHONPATH=src python tests/test_golden_cli.py``) and paste the table
it prints.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from intervalmesh.cli import run

# A coloring of the 4-cycle that is proper but leaves a gap at two vertices.
GAP_DOC = {
    "family": "cylinder",
    "m": 1,
    "n": 2,
    "t": 3,
    "vertices": [[1, 1], [1, 2], [1, 3], [1, 4]],
    "edges": [
        {"u": [1, 1], "v": [1, 2], "color": 1},
        {"u": [1, 2], "v": [1, 3], "color": 3},
        {"u": [1, 3], "v": [1, 4], "color": 1},
        {"u": [1, 1], "v": [1, 4], "color": 3},
    ],
}

# (argv, files the case writes)
CASES = (
    ("generate --family cylinder -m 2 -n 3", ()),
    ("generate --family cylinder -m 1 -n 2 -o cyl12.json", ("cyl12.json",)),
    ("generate --family torus -m 2 -n 3 -o tor23.json", ("tor23.json",)),
    ("generate --family torus -m 3 -n 2 -o tor32.json", ("tor32.json",)),
    ("generate --family torus -m 3 -n 2 --t 6 -o tor32_6.json", ("tor32_6.json",)),
    ("generate --family torus -m 2 -n 2 --t 3", ()),
    ("generate --family cylinder -m 2 -n 2 --t 5", ()),
    ("generate --family cylinder -m 0 -n 2", ()),
    ("verify cyl12.json", ()),
    ("verify tor23.json --json", ()),
    ("verify tor32_6.json -o report.txt", ("report.txt",)),
    ("verify gap.json", ()),
    ("verify gap.json --json", ()),
    ("verify missing.json", ()),
    ("verify broken.json", ()),
    ("export cyl12.json --format dot", ()),
    ("export tor32.json --format csv -o tor32.csv", ("tor32.csv",)),
    ("export tor32_6.json --format csv", ()),
    ("export gap.json --format csv", ()),
    ("sweep -m 2 -n 2", ()),
    ("sweep -m 2 -n 3 -o sweep.json", ("sweep.json",)),
    ("bounds --m-range 1..3 --n-range 2..3", ()),
    (
        "bounds --family cylinder --m-range 1..2 --n-range 2..4 --oracle-budget 12 -o b.csv",
        ("b.csv",),
    ),
    ("bounds --m-range 3..2 --n-range 2..2", ()),
    ("search --family cylinder -m 1 -n 2 --t 3", ()),
    ("search --family cylinder -m 1 -n 2 --t 5", ()),
    ("search --family cylinder -m 2 -n 2 --t 6 --max-nodes 1", ()),
    ("search --family torus -m 2 -n 2 --t 4", ()),
    ("search --family cylinder -m 1 -n 3 --exact-w", ()),
    ("search --family cylinder -m 1 -n 3 --exact-W -o W.txt", ("W.txt",)),
    ("search --family cylinder -m 2 -n 2 --exact-W --max-nodes 50", ()),
    ("search --family torus -m 2 -n 2 --exact-W --max-edges 32 --max-nodes 50", ()),
    (
        "generate --family torus -m 2 -n 2 -o gen.json --manifest=gen.manifest.json",
        ("gen.json",),
    ),
    ("replay gen.manifest.json -o replayed.json", ("replayed.json",)),
)

# argv -> (exit code, stdout digest, digests of the files the case writes)
GOLDEN = {
    'generate --family cylinder -m 2 -n 3': (
        0,
        'e56d474b29ea5136b5b79750925a2a3efe9ca2dfa78dbd499fe72675390e9b65',
        (),
    ),
    'generate --family cylinder -m 1 -n 2 -o cyl12.json': (
        0,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        ('4f09ce729de47c6d63bb5d89382c0254ab7b35526ceb420e628424cc7e74baba',),
    ),
    'generate --family torus -m 2 -n 3 -o tor23.json': (
        0,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        ('34e5308948ff3a5777f7cd1bc2e218f2e80d819d37b0bd9660601a69997a5338',),
    ),
    'generate --family torus -m 3 -n 2 -o tor32.json': (
        0,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        ('f37819e57102cec430cba43a7d824fe80440072949891b98d3697de206ee6ec4',),
    ),
    'generate --family torus -m 3 -n 2 --t 6 -o tor32_6.json': (
        0,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        ('270140ed15fe58275858cfbc37246d45acdaad5d2ee4d3c8fc6fe0c0c836761f',),
    ),
    'generate --family torus -m 2 -n 2 --t 3': (
        2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        (),
    ),
    'generate --family cylinder -m 2 -n 2 --t 5': (
        2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        (),
    ),
    'generate --family cylinder -m 0 -n 2': (
        2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        (),
    ),
    'verify cyl12.json': (
        0,
        'b80e77d51a52e6d476de625eaf97bb38ed8245e61a52619cea11df47a80c41ac',
        (),
    ),
    'verify tor23.json --json': (
        0,
        'f3f208d4acc78d4001034011a43c5cde436564c86aa6c2c9a1e6a7550d8994ba',
        (),
    ),
    'verify tor32_6.json -o report.txt': (
        0,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        ('086dc0bff8b354ec030ec9c305fc4be1adcd1c4a94bf8f6f3090eca620095505',),
    ),
    'verify gap.json': (
        1,
        'ba5eaa1b022b263728fc354194fc3b93e50ae35aba2a0e0ed6113a0cc636dc24',
        (),
    ),
    'verify gap.json --json': (
        1,
        'b1655d56a617326200b518b82a9ec7c1e786194aadb5fc8a155b1134be5d5369',
        (),
    ),
    'verify missing.json': (
        2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        (),
    ),
    'verify broken.json': (
        2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        (),
    ),
    'export cyl12.json --format dot': (
        0,
        'ca3d987cf94e0e76d70745505e4277ecf31a3d74eef97b705baaf199a36c0363',
        (),
    ),
    'export tor32.json --format csv -o tor32.csv': (
        0,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        ('95c2a12f97b76936dfb25ea40d379a954b363e69bf958e2d97cbf3c8d4da0932',),
    ),
    'export tor32_6.json --format csv': (
        0,
        'c9f490c61d451d158e9df6c6979f11b746a643d32f5d6d22e2904f4c43dc1e19',
        (),
    ),
    'export gap.json --format csv': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        (),
    ),
    'sweep -m 2 -n 2': (
        0,
        'eff5684595008fdf9bcc398a8d5172a68e05da4e1f867538aafc60fea26dc32e',
        (),
    ),
    'sweep -m 2 -n 3 -o sweep.json': (
        0,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        ('326bd6b04728deeb20acdd86c58a37ab00abda560f56c0dee2a0c7cd6cb55144',),
    ),
    'bounds --m-range 1..3 --n-range 2..3': (
        0,
        'af1da420c48881a15d49afd45d62d0a5df6f053b00b342b4730f3bc29427a29f',
        (),
    ),
    'bounds --family cylinder --m-range 1..2 --n-range 2..4 --oracle-budget 12 -o b.csv': (
        0,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        ('33005304d02262e26f25a71c3509cb997fc77d83135f37bb5698b1adb73dac10',),
    ),
    'bounds --m-range 3..2 --n-range 2..2': (
        2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        (),
    ),
    'search --family cylinder -m 1 -n 2 --t 3': (
        0,
        'f835b3a3939e56eda14b7656081f74213845cd45ce8005f147f8f9995e2f65c6',
        (),
    ),
    'search --family cylinder -m 1 -n 2 --t 5': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        (),
    ),
    'search --family cylinder -m 2 -n 2 --t 6 --max-nodes 1': (
        3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        (),
    ),
    'search --family torus -m 2 -n 2 --t 4': (
        3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        (),
    ),
    'search --family cylinder -m 1 -n 3 --exact-w': (
        0,
        '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
        (),
    ),
    'search --family cylinder -m 1 -n 3 --exact-W -o W.txt': (
        0,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        ('7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d',),
    ),
    'search --family cylinder -m 2 -n 2 --exact-W --max-nodes 50': (
        0,
        '06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7',
        (),
    ),
    'search --family torus -m 2 -n 2 --exact-W --max-edges 32 --max-nodes 50': (
        3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        (),
    ),
    'generate --family torus -m 2 -n 2 -o gen.json --manifest=gen.manifest.json': (
        0,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        ('c4c09a11b654c5f0a406281458323624d52ae33b965ef1e8e752318bb90f8051',),
    ),
    'replay gen.manifest.json -o replayed.json': (
        0,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        ('c4c09a11b654c5f0a406281458323624d52ae33b965ef1e8e752318bb90f8051',),
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cases(workdir: Path) -> dict:
    """Run every case in ``workdir``; map argv to (code, stdout, files)."""
    (workdir / "gap.json").write_text(json.dumps(GAP_DOC), encoding="utf-8")
    (workdir / "broken.json").write_text('{"family": "cylinder", ', encoding="utf-8")
    results = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for argv, files in CASES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv.split())
            digests = tuple(_sha(Path(f).read_bytes()) for f in files)
            results[argv] = (code, _sha(out.getvalue().encode("utf-8")), digests)
    finally:
        os.chdir(here)
    return results


def test_golden_cli_digests(tmp_path):
    got = run_cases(tmp_path)
    assert {code for code, _, _ in got.values()} == {0, 1, 2, 3}
    for argv, want in GOLDEN.items():
        assert got[argv] == want, argv
    assert set(got) == set(GOLDEN)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = run_cases(Path(tmp))
    sys.stdout.write("GOLDEN = {\n")
    for argv, (code, out, files) in table.items():
        sys.stdout.write(f"    {argv!r}: (\n        {code},\n        {out!r},\n")
        sys.stdout.write(f"        {files!r},\n    ),\n")
    sys.stdout.write("}\n")

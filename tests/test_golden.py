"""The CLI's output on every spec in specs/, byte for byte.

tests/golden/NAME.stdout and NAME.json (NAME.csv for the sweep) hold what
`python -m entromin.cli --spec specs/NAME.emp --out NAME.json` printed and
wrote at commit 622be7b.  A change meant to keep every figure, such as a
refactor, must leave these files as they are.
"""

from pathlib import Path

import pytest

from entromin.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = sorted(p.stem for p in (ROOT / "specs").glob("*.emp"))


@pytest.mark.parametrize("name", SPECS)
def test_cli_output_matches_golden(name, tmp_path, capsys):
    ext = "csv" if (GOLDEN / f"{name}.csv").exists() else "json"
    out = tmp_path / f"{name}.{ext}"
    assert main(["--spec", str(ROOT / "specs" / f"{name}.emp"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()
    assert out.read_bytes() == (GOLDEN / f"{name}.{ext}").read_bytes()

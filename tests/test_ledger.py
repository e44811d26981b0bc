"""The results ledger: every number in tests/ledger.json is recomputed.

The file is written by scripts/ledger.py; a change that moves a reported
number fails here and names each entry it moved.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import ledger  # noqa: E402


def test_ledger_numbers_unchanged():
    want = json.loads(ledger.PATH.read_text())
    moved = ledger.moved(want, ledger.compute())
    assert not moved, "ledger entries moved:\n" + "\n".join(moved)

"""The golden-output manifest as a tier-1 check: every output that
`python tools/golden.py` hashes matches its entry in tools/golden.json, so a
change that claims byte-identical outputs is held to it here."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden.py"


def test_golden_manifest_matches(capsys):
    spec = importlib.util.spec_from_file_location("golden", GOLDEN)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    entry = json.loads(golden.MANIFEST.read_text(encoding="utf-8")).get(str(golden.audit.SAMPLER_VERSION))
    assert entry is not None, "the manifest has no entry for this sampler_version"
    recorded = {k: entry[k] for k in ("numpy", "blas")}
    if recorded != golden.build():
        pytest.skip(f"the manifest holds for {recorded}, not for the running {golden.build()}")
    status = golden.main([])
    report = capsys.readouterr().out
    assert status == 0, report

"""The outputs of tools/pin_outputs.py's run against its pinned record."""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import pin_outputs  # noqa: E402

RECORD = json.loads(pin_outputs.RECORD.read_text())


def test_outputs_match_the_pinned_record():
    moved = pin_outputs.report(RECORD, pin_outputs.pin())
    assert not moved, f"if meant, run python3 tools/pin_outputs.py:\n{moved}"


def test_report_names_new_missing_and_moved_outputs_and_both_numpys():
    digests = dict(RECORD["outputs"], **{"a/stdout": "",
                                         "reproduce-table1/stdout": ""})
    del digests["reference/find-cs/stdout"]
    lines = ["new: a/stdout", "missing: reference/find-cs/stdout",
             "moved: reproduce-table1/stdout"]
    assert pin_outputs.report(dict(RECORD, numpy=np.__version__),
                              digests) == "\n".join(lines)
    assert pin_outputs.report(dict(RECORD, numpy="1.26.4"),
                              digests).splitlines() == lines + [
        f"numpy {np.__version__} runs, the record was made with numpy "
        "1.26.4: NEP 19 lets Generator streams change"]
    assert pin_outputs.report(RECORD, RECORD["outputs"]) == ""

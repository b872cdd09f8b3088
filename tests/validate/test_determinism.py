"""Cross-process determinism of the audit pipeline.

The serialized :class:`AuditReport` (and the run report it audits)
must be byte-identical across processes with different
``PYTHONHASHSEED`` values: auditors iterate dicts and sets, and any
hash-ordered traversal would leak into check order or details,
breaking the golden corpus and the CI artifact diff.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


SCRIPT = (
    "import json\n"
    "from repro.runner.chain import GridPoint\n"
    "from repro.validate.runner import validate_point\n"
    "from repro.core.serialize import audit_report_to_dict, "
    "report_to_dict\n"
    "audit, run = validate_point(GridPoint("
    "executor='transfusion', model='bert', seq_len=512, "
    "arch='edge', batch=4))\n"
    "print(json.dumps({'audit': audit_report_to_dict(audit), "
    "'report': report_to_dict(run)}, sort_keys=True))\n"
)


class TestCrossProcessDeterminism:
    def test_audit_identical_across_hash_seeds(self):
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ)
            env.update({
                "PYTHONHASHSEED": seed,
                "REPRO_CACHE": "0",
                "PYTHONPATH": "src",
            })
            proc = subprocess.run(
                [sys.executable, "-c", SCRIPT],
                capture_output=True, text=True, env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        document = json.loads(outputs[0])
        assert document["audit"]["passed"] is True
        assert len(document["audit"]["checks"]) > 20

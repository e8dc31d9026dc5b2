"""Regenerate perfbench/references.json from the code in this checkout.

    PYTHONPATH=src python3 perfbench/make_references.py

Runs one pass of every workload at the default seed and freezes its outputs.
An operation that raises gets no reference: it is reported here and counted
as failed by every benchmark run, and a later fix is checked by invariants.
Regenerate only when a change of results is intended.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    fixed, seeded = {}, {}
    verdicts: dict[str, str] = {}
    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=Path(__file__).parent))
    try:
        for cls in workloads.WORKLOADS.values():
            workload = cls(workloads.DEFAULT_SEED, root, workdir)
            for op in workload.ops(in_process=False):
                try:
                    value = op.run()
                except Exception as exc:  # recorded as a known failure, not frozen
                    print(f"{cls.name} {op.label}: raises {type(exc).__name__}: {exc}")
                    continue
                if op.label.startswith("verdict."):
                    line = op.label.split(".")[1]
                    verdicts[line] = verdicts.get(line, "") + value[0]
                else:
                    (seeded if op.seeded else fixed).setdefault(op.ref or op.label, value)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    seeded["verdicts"] = verdicts
    # One entry per line, so a diff of this file shows which outputs moved.
    parts = [f' "seed": {workloads.DEFAULT_SEED}']
    for name, table in (("fixed", fixed), ("seeded", seeded)):
        entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
        parts.append(f' "{name}": {{\n{entries}\n }}')
    workloads.REFERENCES.write_text("{\n" + ",\n".join(parts) + "\n}\n")


if __name__ == "__main__":
    main()

"""Record the reference output of every pool entry of each workload.

    python3 ghbench/record_refs.py [WORKLOAD ...]

Writes ghbench/refs/<workload>.json.  Every entry's output must pass the
workload's invariant checks before it is recorded.  Re-record only when a
change is meant to alter ghive's numbers, and say why in the change.
"""

import json
import os
import shutil
import sys

from run import pin_threads


def rounded(doc, digits=12):
    """Round floats for storage; references are compared with rtol 1e-6."""
    if isinstance(doc, dict):
        return {k: rounded(v, digits) for k, v in doc.items()}
    if isinstance(doc, list):
        return [rounded(v, digits) for v in doc]
    if isinstance(doc, float):
        return float(f"{doc:.{digits}g}")
    return doc


def refs_text(src_sha256, entries):
    """One entry per line, so a re-recording diffs entry by entry."""
    lines = ",\n".join(json.dumps(e) for e in entries)
    return f'{{"src_sha256": "{src_sha256}",\n"entries": [\n{lines}\n]}}\n'


if __name__ == "__main__":
    pin_threads()
    import harness

    harness.import_ghive()
    import workloads

    validators = harness.schema_validators()
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    for name in names:
        workload = workloads.WORKLOADS[name]
        work = workloads.fresh_dir(harness.OUT / f"refs-{os.getpid()}")
        entries = []
        for entry in range(workload.pool):
            inputs = workload.prepare(entry, workloads.fresh_dir(work / "input"))
            out = workload.run(inputs, entry, workloads.fresh_dir(work / "output"))
            workload.check(inputs, out, validators)
            entries.append(rounded(workload.summary(inputs, out)))
            print(f"{name}: entry {entry} recorded", flush=True)
        path = harness.BENCH_DIR / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(refs_text(harness.tree_sha256(harness.SRC / "ghive"), entries))
        shutil.rmtree(work, ignore_errors=True)

"""Record the stdout digest of every deterministic job any seed can produce.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are the reference.  It runs
each job once through worker.py, applies the oracle checks, and rewrites
perfbench/digests.json.  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_job, sha256  # noqa: E402
from workloads import digest_universe  # noqa: E402


def main() -> int:
    root = Path.cwd()
    workdir = root / ".perfbench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        jobs = digest_universe(str(workdir))
        with open(workdir / "jobs.json", "w") as fh:
            json.dump(jobs, fh)
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(root / "src"),
                        str(workdir / "jobs.json"), str(workdir / "result.json"), "0"],
                       cwd=root, check=True, stdout=subprocess.DEVNULL)
        with open(workdir / "result.json") as fh:
            results = json.load(fh)["jobs"]
        digests, bad = {}, []
        for job, res in zip(jobs, results):
            if res["rc"] != 0:
                bad.append(f"{job['id']}: rc={res['rc']} {res['error'] or ''}")
                continue
            digests[job["digest"]] = sha256(res["stdout"])
            reason = check_job(job, res["stdout"], digests)
            if reason:
                bad.append(f"{job['id']}: {reason}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((root / ".perfbench_work").iterdir()):
            (root / ".perfbench_work").rmdir()
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        return 1
    with open(HERE / "digests.json", "w") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

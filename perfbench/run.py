"""hspeed benchmark: seeded workloads driven through hspeed.cli.main, with
checked outputs, end-to-end metrics and an opt-in per-layer trace.

    python3 perfbench/run.py --workload speed-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the directory holding src/hspeed).  Each
round runs the workload's job list in a fresh worker process, one worker
at a time; rounds repeat until --seconds have been measured.  With
--trace 1 untraced and traced rounds alternate, the traced ones wrapping
each layer's public functions (spans.py), and the per-layer metrics are
reported instead of the end-to-end ones; BENCHMARK.json at the checkout
root names both sets and their units.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_job, sampled_certificates, sha256  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402

SETUP_PROBES = 8
REFERENCE_S = 0.0004  # time of worker.reference_work() on a quiet machine
MIN_PROBES = 5
RUN_DEADLINE_S = 160  # a round still running then is killed, so the run ends within 180 s
COUNTED_LAYERS = ("canon", "structures.induced", "structures.bijection", "template", "simclass",
                  "components", "arrays", "oscillate.density", "oscillate.sample")
TIMED_LAYERS = COUNTED_LAYERS + ("property", "oscillate.in_p", "oscillate.sequence", "cli")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


def start_worker(root: Path, jobs_path: str, result_path: str, trace: bool):
    """Start a worker and wait for its ready line; returns (process, set-up seconds)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(root / "src"), jobs_path, result_path,
         "1" if trace else "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise HarnessError("worker did not start: hspeed failed to import")
    return proc, setup


def run_round(root: Path, workdir: Path, jobs: list[dict], trace: bool, index: int,
              deadline: float):
    result_path = workdir / f"round-{index}.json"
    proc, setup = start_worker(root, str(workdir / "jobs.json"), str(result_path), trace)
    try:
        proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or not result_path.exists():
        # the worker died: every job of the round failed
        return setup, {"wall_s": None, "maxrss_kb": None, "jobs": [
            {"id": j["id"], "seconds": None, "rc": -1, "stdout": "", "error": "worker died"}
            for j in jobs]}
    with open(result_path) as fh:
        return setup, json.load(fh)


def probe_setup(root: Path) -> float:
    """Scaled set-up time of a worker that only starts and probes the machine."""
    proc, setup = start_worker(root, "-", "-", False)
    probes = json.loads(proc.stdout.readline())
    proc.wait()
    proc.stdout.close()
    return setup * probe_scale(probes, 0, len(probes))


def probe_scale(probes: list[float], a: int, b: int) -> float:
    """REFERENCE_S over the mean probe time in probes[a:b], widened to MIN_PROBES samples.

    Multiplying a time by it converts it to a quiet machine's speed, so that
    other tenants slowing the machine do not read as the program slowing.
    """
    while b - a < MIN_PROBES and (a > 0 or b < len(probes)):
        a, b = max(0, a - 1), min(len(probes), b + 1)
    return REFERENCE_S / statistics.mean(probes[a:b])


def scaled_round(report: dict) -> tuple[float, list[float]]:
    """A round's wall time and per-job times, each scaled by the probes taken during it."""
    probes = report["probe_s"]
    jobs = [j["seconds"] * probe_scale(probes, *j["probes"]) for j in report["jobs"]]
    gaps = report["wall_s"] - sum(j["seconds"] for j in report["jobs"])
    return sum(jobs) + gaps * probe_scale(probes, 0, len(probes)), jobs


def src_lines(root: Path) -> int:
    total = 0
    for path in sorted((root / "src" / "hspeed").rglob("*.py")):
        with open(path) as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def layer_metrics(report: dict, jobs_by_id: dict) -> dict:
    t = report["trace"]
    calls, self_s = t["calls"], t["self_s"]
    canon_calls = t["canon_hits"] + t["canon_misses"]
    values = {}
    for layer in COUNTED_LAYERS:
        values[f"{layer}.calls"] = calls.get(layer, 0)
    scale = probe_scale(report["probe_s"], 0, len(report["probe_s"]))
    for layer in TIMED_LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0) * scale
    values["canon.calls"] = canon_calls
    values["canon.misses"] = t["canon_misses"]
    values["canon.hit_ratio"] = t["canon_hits"] / canon_calls if canon_calls else 0.0
    values["property.classes"] = t["classes"]
    values["property.canon_per_class"] = t["canon_misses"] / t["classes"] if t["classes"] else 0.0
    draws = t["sample_draws"]
    values["oscillate.sample.accept_ratio"] = t["sample_accepted"] / draws if draws else 0.0
    values["oscillate.sampled_certs"] = sum(
        sampled_certificates(jobs_by_id[j["id"]], j["stdout"]) for j in report["jobs"] if j["rc"] == 0)
    values["cli.out_bytes"] = sum(
        len(j["stdout"].encode()) for j in report["jobs"] if "argv" in jobs_by_id[j["id"]])
    values["trace.coverage_frac"] = sum(self_s.values()) / report["wall_s"]
    return values


def measure(root: Path, workdir: Path, workload: str, seed: int, seconds: float, trace: bool):
    jobs = build_jobs(workload, seed, str(workdir))
    with open(workdir / "jobs.json", "w") as fh:
        json.dump(jobs, fh)
    deadline = perf_counter() + RUN_DEADLINE_S
    setups = [probe_setup(root) for _ in range(SETUP_PROBES)]
    rounds = []  # (traced, report)
    start = perf_counter()
    while perf_counter() - start < seconds or (trace and len(rounds) < 2):
        traced = trace and len(rounds) % 2 == 1
        setup, report = run_round(root, workdir, jobs, traced, len(rounds), deadline)
        if report["wall_s"] is not None:
            setups.append(setup * probe_scale(report["probe_s"], 0, MIN_PROBES))
        rounds.append((traced, report))
    return jobs, setups, rounds


def evaluate(jobs, setups, rounds, trace: bool, root: Path):
    with open(HERE / "digests.json") as fh:
        digests = json.load(fh)
    jobs_by_id = {j["id"]: j for j in jobs}
    attempted = failed = 0
    problems = []  # wrong or inconsistent outputs
    first_stdout, checked = {}, {}  # job id -> stdout digest / check result of the first round
    for traced, report in rounds:
        for res in report["jobs"]:
            attempted += 1
            job = jobs_by_id[res["id"]]
            if res["rc"] != 0:
                failed += 1
                problems.append(f"FAILED {res['id']}: rc={res['rc']} {res['error'] or ''}".rstrip())
                continue
            digest = sha256(res["stdout"])
            if res["id"] not in checked:
                first_stdout[res["id"]] = digest
                checked[res["id"]] = check_job(job, res["stdout"], digests)
            reason = checked[res["id"]]
            if first_stdout[res["id"]] != digest:
                reason = "stdout differs between rounds" + (" (traced vs untraced)" if trace else "")
            if reason:
                failed += 1
                problems.append(f"WRONG {res['id']}: {reason}")
    correct = not any(p.startswith("WRONG") for p in problems)

    plain = [r for t, r in rounds if not t and r["wall_s"] is not None]
    traced = [r for t, r in rounds if t and r["wall_s"] is not None]
    if not plain or (trace and not traced):
        raise HarnessError("no round completed: every worker died")
    if not trace:
        scaled = [scaled_round(r) for r in plain]
        values = {
            "wall_s": statistics.median(wall for wall, _ in scaled),
            "job_s_p50": statistics.median(t for _, jobs in scaled for t in jobs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in plain),
            "ok_frac": (attempted - failed) / attempted,
        }
    else:
        per_round = [layer_metrics(r, jobs_by_id) for r in traced]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["trace.overhead_frac"] = (statistics.median(scaled_round(r)[0] for r in traced)
                                         / statistics.median(scaled_round(r)[0] for r in plain) - 1)
        values["repo.src_lines"] = src_lines(root)
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, problems


def print_job_times(rounds):
    times = {}
    for traced, report in rounds:
        if traced or report["wall_s"] is None:
            continue
        for res, seconds in zip(report["jobs"], scaled_round(report)[1]):
            times.setdefault(res["id"], []).append(seconds)
    medians = sorted(((statistics.median(v), k) for k, v in times.items()), reverse=True)
    for seconds, job_id in medians:
        print(f"  job {job_id:40s} {seconds:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hspeed" / "cli.py").is_file():
        print("perfbench: run from the root of an hspeed checkout (src/hspeed/cli.py not found)",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        jobs, setups, rounds = measure(root, workdir, args.workload, args.seed, args.seconds,
                                       bool(args.trace))
        result, problems = evaluate(jobs, setups, rounds, bool(args.trace), root)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((root / ".perfbench_work").iterdir()):
            (root / ".perfbench_work").rmdir()

    for line in dict.fromkeys(problems):
        print(line)
    print_job_times(rounds)
    raw = [r["wall_s"] for _, r in rounds if r["wall_s"] is not None]
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} jobs/round={len(jobs)} "
          f"unscaled_wall_s={statistics.median(raw):.4f} "
          f"failed_frac={result['failed'] / result['attempted']:.4f} correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

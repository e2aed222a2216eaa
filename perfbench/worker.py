"""One benchmark round in a fresh process.

    python3 worker.py SRC_DIR JOBS_JSON RESULT_JSON TRACE

The worker imports hspeed.cli, every hspeed module and builds the CLI
parser, then prints ``ready`` (the parent times this as set-up).  With
JOBS_JSON ``-`` it prints machine-speed probe times and exits.  Otherwise
it runs the jobs back to back in this process, so they share hspeed's
in-process caches, and writes per-job times, exit codes, stdout and probe
times to RESULT_JSON.  With TRACE 1 the span wrappers of spans.py are
installed first.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import pkgutil
import resource
import signal
import sys
from time import perf_counter

JOB_TIMEOUT_S = 60
PROBE_INTERVAL_S = 0.03  # CPU seconds between machine-speed probes
PROBES_AT_START = 10
PROBES_PER_JOB = 3  # taken right before each job, outside its timing


def reference_work() -> int:
    """Fixed pure-Python work like hspeed's own (small tuples, frozensets, dict updates),
    about 0.4 ms on a quiet machine."""
    table, acc = {}, 0
    for i in range(1000):
        key = (i % 37, i ^ 11)
        table[key] = table.get(key, 0) + i
        acc += len(frozenset(key)) * i
    return acc + len(table)


class SpeedProbe:
    """Times reference_work() to measure how fast the machine runs Python right now.

    It samples PROBES_AT_START times at once, then every PROBE_INTERVAL_S
    of CPU time (SIGPROF) until stopped.  clock() leaves out the time spent
    probing, so timings taken with it do not include the probes.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, signum=None, frame=None):
        start = perf_counter()
        reference_work()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self):
        for _ in range(PROBES_AT_START):
            self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def clock(self) -> float:
        """Seconds elapsed, not counting time spent probing."""
        while True:  # retry if a probe ran between the two reads
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now - spent


class JobTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI's `except Exception` lets it through."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def age_speed(hs, template, nmax):
    """Speed table of the age of one template, via template.in_age."""
    spec = hs.property.PropertySpec(language=hs.structures.GRAPH, base=hs.property.BASE_GRAPH,
                                    templates=(hs.template.load_template(template),))
    table = hs.property.speed(spec, nmax)
    return "".join(f"{r.n},{r.labeled},{r.unlabeled}\n" for r in table.rows)


def compatible_sweep(hs, templates, structures):
    """One line per template: 1/0 for each structure, whether is_compatible finds a witness."""
    loaded = [hs.structures.load_structure(p) for p in structures]
    lines = []
    for path in templates:
        template = hs.template.load_template(path)
        lines.append("".join("1" if hs.template.is_compatible(s, template) is not None else "0"
                             for s in loaded))
    return "\n".join(lines) + "\n"


LIBRARY = {"age_speed": age_speed, "compatible_sweep": compatible_sweep}


class _Hspeed:
    """Module handles looked up at call time, so installed span wrappers are seen."""

    def __getattr__(self, name):
        return sys.modules[f"hspeed.{name}"]


def run_job(hs, job) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if "argv" in job:
            rc = hs.cli.main(job["argv"])
        else:
            out.write(LIBRARY[job["lib"]](hs, **job["args"]))
            rc = 0
    return rc, out.getvalue()


def run_round(jobs, trace: bool) -> dict:
    hs = _Hspeed()
    canon_cache = hs.canon.canonical_data  # the lru_cache object, before any wrapper
    probe = SpeedProbe()
    tracer = None
    if trace:
        from spans import Tracer  # perfbench/spans.py, next to this file

        tracer = Tracer(probe.clock)
        tracer.install()
    canon_before = canon_cache.cache_info()
    results = []
    signal.signal(signal.SIGALRM, _on_alarm)
    probe.start()
    round_start = probe.clock()
    for job in jobs:
        for _ in range(PROBES_PER_JOB):
            probe.sample()
        start, first_probe = probe.clock(), len(probe.samples)
        signal.alarm(JOB_TIMEOUT_S)
        try:
            rc, out = run_job(hs, job)
            error = None
        except JobTimeout:
            rc, out, error = -1, "", "timeout"
        except Exception as exc:  # a library job raising is a failed job, not a harness error
            rc, out, error = -1, "", f"{type(exc).__name__}: {exc}"
        finally:
            signal.alarm(0)
        results.append({"id": job["id"], "seconds": probe.clock() - start,
                        "probes": [first_probe, len(probe.samples)],
                        "rc": rc, "stdout": out, "error": error})
    wall = probe.clock() - round_start
    probe.stop()
    report = {"wall_s": wall, "jobs": results, "probe_s": probe.samples,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        after = canon_cache.cache_info()
        report["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "classes": tracer.classes,
            "sample_draws": tracer.sample_draws,
            "sample_accepted": tracer.sample_accepted,
            "canon_hits": after.hits - canon_before.hits,
            "canon_misses": after.misses - canon_before.misses,
        }
    return report


def main(argv) -> int:
    src, jobs_path, result_path, trace = argv
    sys.path.insert(0, src)
    package = importlib.import_module("hspeed")
    for module in pkgutil.iter_modules(package.__path__):
        if not module.name.startswith("_"):
            importlib.import_module(f"hspeed.{module.name}")
    sys.modules["hspeed.cli"].build_parser()
    print("ready", flush=True)
    if jobs_path == "-":
        probe = SpeedProbe()
        for _ in range(PROBES_AT_START):
            probe.sample()
        print(json.dumps(probe.samples))
        return 0
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    report = run_round(jobs, trace == "1")
    with open(result_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

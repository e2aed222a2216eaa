"""Seeded inputs and job lists for the four benchmark workloads.

Everything here is the benchmark's own code: it does not import hspeed,
so a change to ``hspeed.corpus`` cannot change a workload.  Inputs are
written as JSON files before any timing starts.

A job is a dict:
  id      unique name within the round
  argv    CLI arguments for ``hspeed.cli.main`` (CLI jobs), or
  lib     name of a library call run by the worker, with ``args``
  digest  key into digests.json when stdout must match the recorded bytes
  check   oracle or property check applied to stdout (see checks.py)

Inputs whose cost depends on the drawn values (forbidden families,
hypergraphs for the flow, template sizes) come from fixed pools generated
from POOL_SEED; the workload seed picks from the pools, relabels vertices
where the output does not depend on labels and draws the sampler's
parameters and seeds.  Job order is fixed, because jobs in one process
share hspeed's caches and the order moves cost between jobs.  That keeps
the work per round nearly the same for every seed while every seed feeds
the program different files, and it keeps every deterministic output
covered by a recorded digest.
"""

from __future__ import annotations

import itertools
import json
import os
import random

POOL_SEED = 1803_10575
WORKLOADS = ("speed-dense", "speed-forbid", "osc-hypergraph", "diagnostics")

SPEED_FORBID_FAMILIES = 8
SPEED_FORBID_NMAX = 6
OSC_POOL = ((40, 0.09), (50, 0.06), (60, 0.04), (80, 0.02))  # (v, edge probability) of 3-graphs
OSC_P_MODE_MIN_V = 60  # keeps the median job a flow job, so job_s_p50 is steady
OSC_SAMPLES = 2
BLOCK_POOL = ((12, 2), (30, 3), (100, 4), (250, 2), (400, 5), (777, 3), (640, 5), (1200, 2))
COMPONENT_POOL = 8
POOL_CHOICES = 8  # template-count offsets and arrays-probe seeds


# ---------------------------------------------------------------------------
# file formats (the CLI's JSON input schema)


def graph_json(n: int, edges) -> dict:
    tuples = sorted({(a, b) for a, b in edges} | {(b, a) for a, b in edges})
    return {
        "language": {"relations": [{"name": "E", "arity": 2}], "constants": []},
        "n": n,
        "tuples": {"E": [list(t) for t in tuples]},
        "constants": {},
    }


def template_json(sizes, sigma_pairs) -> dict:
    return {
        "language": {"relations": [{"name": "E", "arity": 2}], "constants": []},
        "sizes": sizes,
        "sigma": {"E(x1,x2)": [list(p) for p in sigma_pairs]},
    }


def hypergraph_json(r: int, v: int, edges) -> dict:
    return {"r": r, "v": v, "edges": sorted(sorted(e) for e in edges)}


def _write(workdir: str, name: str, obj: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------------------
# generators


def random_edges(rng: random.Random, n: int, p: float, r: int = 2) -> list[tuple[int, ...]]:
    return [e for e in itertools.combinations(range(1, n + 1), r) if rng.random() < p]


def relabel(edges, perm: dict[int, int]) -> list[tuple[int, ...]]:
    return [tuple(sorted(perm[x] for x in e)) for e in edges]


def random_perm(rng: random.Random, n: int) -> dict[int, int]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return dict(zip(range(1, n + 1), images))


def small_canon(n: int, edges) -> tuple:
    """Brute-force canonical form of a graph on at most 6 vertices."""
    best = None
    for p in itertools.permutations(range(1, n + 1)):
        perm = dict(zip(range(1, n + 1), p))
        key = tuple(sorted(relabel(edges, perm)))
        if best is None or key < best:
            best = key
    return (n, best)


def forbid_pool() -> list[list[tuple[int, list]]]:
    """Families of 1-3 pairwise non-isomorphic random graphs on 4-5 vertices."""
    rng = random.Random(POOL_SEED)
    families = []
    while len(families) < SPEED_FORBID_FAMILIES:
        family, seen = [], set()
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(4, 5)
            edges = random_edges(rng, m, 0.5)
            key = small_canon(m, edges)
            if key not in seen:
                seen.add(key)
                family.append((m, edges))
        families.append(family)
    return families


def osc_pool() -> list[tuple[int, list]]:
    rng = random.Random(POOL_SEED + 1)
    return [(v, random_edges(rng, v, p, r=3)) for v, p in OSC_POOL]


def component_pool() -> list[tuple[int, list]]:
    rng = random.Random(POOL_SEED + 2)
    pool = []
    for _ in range(COMPONENT_POOL):
        n = rng.randint(20, 40)
        pool.append((n, random_edges(rng, n, 1.2 / n)))
    return pool


def halfgraph_blowup(m: int) -> tuple[int, list]:
    """a_1..a_m plus m copies of each b_j, with a_i ~ (copy of b_j) iff i <= j."""
    edges = []
    for j in range(1, m + 1):
        for t in range(1, m + 1):
            b = m + (j - 1) * m + t
            edges += [(i, b) for i in range(1, j + 1)]
    return m + m * m, edges


TEMPLATES = {
    # K = 2 for all three; the bipartite template's count has a closed form
    "bip": template_json(["inf", "inf"], [(1, 2), (2, 1)]),
    "asym": template_json(["inf", "inf"], [(1, 1)]),
    "cps": template_json([1, "inf"], [(2, 2)]),
}


# ---------------------------------------------------------------------------
# job lists


def _cli(job_id, argv, digest=True, check=None) -> dict:
    return {"id": job_id, "argv": [str(a) for a in argv], "digest": job_id if digest else None,
            "check": check}


def speed_dense_jobs(seed: int, workdir: str) -> list[dict]:
    return [_cli("speed-dense/all-graphs-7", ["speed", "--property", "all-graphs", "--nmax", 7],
                 check={"oracle": "all-graphs"})]


def speed_forbid_jobs(seed: int, workdir: str) -> list[dict]:
    rng = random.Random(seed)
    jobs = []
    for fi, family in enumerate(forbid_pool()):
        family = list(family)
        rng.shuffle(family)
        paths, members = [], []
        for gi, (m, edges) in enumerate(family):
            relabeled = relabel(edges, random_perm(rng, m))
            paths.append(_write(workdir, f"forbid-{fi}-{gi}.json", graph_json(m, relabeled)))
            members.append([m, [list(e) for e in relabeled]])
        jobs.append(_cli(f"speed-forbid/family-{fi}",
                         ["speed", "--forbid", ",".join(paths), "--nmax", SPEED_FORBID_NMAX],
                         check={"oracle": "forbid", "family": members}))
    return jobs


def osc_member_jobs(workdir: str) -> list[dict]:
    jobs = []
    for hi, (v, edges) in enumerate(osc_pool()):
        path = _write(workdir, f"hyper-{hi}.json", hypergraph_json(3, v, edges))
        jobs.append(_cli(f"osc-hypergraph/member-q-{hi}",
                         ["osc", "member", "--hypergraph", path, "--mode", "q", "--c", "20"],
                         check={"oracle": "osc-q", "v": v, "e": len(edges), "c": "20"}))
        if v >= OSC_P_MODE_MIN_V:
            jobs.append(_cli(f"osc-hypergraph/member-p-{hi}",
                             ["osc", "member", "--hypergraph", path, "--mode", "p", "--nu", "4",
                              "--c", "1/4"]))
    return jobs


def osc_hypergraph_jobs(seed: int, workdir: str) -> list[dict]:
    rng = random.Random(seed)
    jobs = osc_member_jobs(workdir)
    for i in range(OSC_SAMPLES):
        n = rng.randint(16, 22)
        k = rng.randint(3, 4)
        jobs.append(_cli(f"osc-hypergraph/sample-{i}",
                         ["osc", "sample", "--r", 2, "--k", k, "--c", "1", "--n", n, "--delta", "5/4",
                          "--seed", rng.randrange(10**6)],
                         digest=False, check={"oracle": "osc-sample", "r": 2, "k": k, "c": "1",
                                              "n": n, "delta": "5/4"}))
    jobs.append(_cli("osc-hypergraph/sequence",
                     ["osc", "sequence", "--r", 2, "--c", "1", "--eps", "3/2", "--steps", 3,
                      "--seed", 0],
                     digest=False, check={"oracle": "osc-sequence", "r": 2, "c": "1", "eps": "3/2",
                                          "steps": 3}))
    return jobs


def diagnostics_files(workdir: str) -> dict[str, str]:
    files = {name: _write(workdir, f"template-{name}.json", t) for name, t in TEMPLATES.items()}
    files["halfgraph"] = _write(workdir, "halfgraph-8.json", graph_json(*halfgraph_blowup(8)))
    files["matching4"] = _write(workdir, "matching-4.json",
                                graph_json(8, [(2 * i - 1, 2 * i) for i in range(1, 5)]))
    for ci, (n, edges) in enumerate(component_pool()):
        files[f"components-{ci}"] = _write(workdir, f"components-{ci}.json", graph_json(n, edges))
    return files


def diagnostics_variable_jobs(files: dict, choice: dict) -> list[dict]:
    """Jobs whose parameters come from a pool; `choice` maps pool name -> index."""
    bip = files["bip"]
    jobs = []
    for name, base in (("count-low", 3000), ("count-high", 4500)):
        n = base + choice[name]
        jobs.append(_cli(f"diagnostics/template-{name}-{n}",
                         ["template", "count", "--template", bip, "--n", n],
                         check={"oracle": "bip-count", "n": n}))
    for slot in ("blocks-a", "blocks-b", "blocks-c"):
        n, k = BLOCK_POOL[choice[slot]]
        jobs.append(_cli(f"diagnostics/blocks-{n}-{k}", ["blocks", "--n", n, "--k", k],
                         check={"oracle": "blocks", "n": n, "k": k}))
    for slot in ("components-a", "components-b"):
        ci = choice[slot]
        jobs.append(_cli(f"diagnostics/components-{ci}", ["components", files[f"components-{ci}"]],
                         check={"oracle": "components", "graph": files[f"components-{ci}"]}))
    s = choice["arrays-seed"]
    jobs.append(_cli(f"diagnostics/arrays-probe-{s}",
                     ["arrays", "probe", "--property", "matching", "--rel", "E", "--split", "1",
                      "--m", 2, "--nmax", 7, "--seed", s]))
    return jobs


def diagnostics_fixed_jobs(files: dict) -> list[dict]:
    bip, asym, cps = files["bip"], files["asym"], files["cps"]
    jobs = [
        _cli("diagnostics/template-count-10", ["template", "count", "--template", bip, "--n", 10],
             check={"oracle": "bip-count", "n": 10}),
        _cli("diagnostics/template-enumerate-10",
             ["template", "enumerate", "--template", bip, "--n", 10],
             check={"oracle": "bip-enumerate", "n": 10}),
        _cli("diagnostics/template-fit", ["template", "fit", "--template", bip, "--window", "6..16"]),
        _cli("diagnostics/template-union",
             ["template", "union", "--template", ",".join([bip, asym, cps]), "--n", 50]),
        _cli("diagnostics/decompose-halfgraph-8", ["decompose", files["halfgraph"]]),
        _cli("diagnostics/probe-basic-edgeless",
             ["probe", "basic", "--property", "edgeless", "--k", 1, "--nmax", 8]),
        _cli("diagnostics/probe-basic-matching",
             ["probe", "basic", "--property", "matching", "--k", 2, "--nmax", 7]),
        _cli("diagnostics/probe-tb-matching",
             ["probe", "tb", "--property", "matching", "--k", 2, "--nmax", 6]),
        _cli("diagnostics/census-matching", ["census", "--property", "matching", "--nmax", 8]),
        _cli("diagnostics/speed-matching-9", ["speed", "--property", "matching", "--nmax", 9],
             check={"oracle": "matching"}),
        _cli("diagnostics/arrays-types-matching",
             ["arrays", "types", "--structure", files["matching4"], "--rel", "E", "--split", 1,
              "--A", "1,3"]),
        _cli("diagnostics/arrays-types-halfgraph",
             ["arrays", "types", "--structure", files["halfgraph"], "--rel", "E", "--split", 1,
              "--A", "1,3,12"]),
        # its count exceeds Python's int-to-str digit limit, so it exits 2: a known defect kept visible
        _cli("diagnostics/blocks-3000-2", ["blocks", "--n", 3000, "--k", 2], digest=False,
             check={"oracle": "blocks", "n": 3000, "k": 2}),
    ]
    for name in ("bip", "asym", "cps"):
        jobs.append({"id": f"diagnostics/age-speed-{name}", "lib": "age_speed",
                     "args": {"template": files[name], "nmax": 6},
                     "digest": f"diagnostics/age-speed-{name}", "check": None})
    sweep = [files["halfgraph"], files["matching4"]] + [files[f"components-{i}"] for i in range(4)]
    jobs.append({"id": "diagnostics/compatible-sweep", "lib": "compatible_sweep",
                 "args": {"templates": [bip, asym, cps], "structures": sweep},
                 "digest": "diagnostics/compatible-sweep", "check": None})
    return jobs


def diagnostics_jobs(seed: int, workdir: str) -> list[dict]:
    rng = random.Random(seed)
    files = diagnostics_files(workdir)
    blocks = rng.sample(range(len(BLOCK_POOL)), 3)
    components = rng.sample(range(COMPONENT_POOL), 2)
    choice = {"count-low": rng.randrange(POOL_CHOICES), "count-high": rng.randrange(POOL_CHOICES),
              "blocks-a": blocks[0], "blocks-b": blocks[1], "blocks-c": blocks[2],
              "components-a": components[0], "components-b": components[1],
              "arrays-seed": rng.randrange(POOL_CHOICES)}
    return diagnostics_fixed_jobs(files) + diagnostics_variable_jobs(files, choice)


def build_jobs(workload: str, seed: int, workdir: str) -> list[dict]:
    builders = {
        "speed-dense": speed_dense_jobs,
        "speed-forbid": speed_forbid_jobs,
        "osc-hypergraph": osc_hypergraph_jobs,
        "diagnostics": diagnostics_jobs,
    }
    return builders[workload](seed, workdir)


def digest_universe(workdir: str) -> list[dict]:
    """Every job with a digest that any seed can produce (for record.py)."""
    jobs = speed_dense_jobs(0, workdir)
    jobs += speed_forbid_jobs(0, workdir)
    jobs += osc_member_jobs(workdir)
    files = diagnostics_files(workdir)
    jobs += diagnostics_fixed_jobs(files)
    for i in range(POOL_CHOICES):
        choice = {"count-low": i, "count-high": i, "blocks-a": i, "blocks-b": i, "blocks-c": i,
                  "components-a": i, "components-b": i, "arrays-seed": i}
        jobs += diagnostics_variable_jobs(files, choice)
    unique = {job["id"]: job for job in jobs if job["digest"]}
    return list(unique.values())

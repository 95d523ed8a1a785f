"""The benchmark's workloads: seeded instance files, the CLI jobs run on
them, and the check of each job's output.

Every workload's set-up builds its instances with rainbowcheck's own
generators, writes them as instance files under `instance_dir` and returns
its jobs. The seed draws the vertex labels (distinct `vNNN` tokens, all of
one length), the Sperner tie-breaks and the colourings. No two jobs of a
workload share a (complex, field) pair, so within one worker process no
job finds its answer in a cache another job filled.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import partial

import checks

MESHULAM_FIELDS = ("2", "3", "5", "q")
SURFACE_FIELDS = ("2", "3", "q")
SPHERE_FIELDS = ("2", "q")
AUDIT_FIELD = "3"


@dataclass(frozen=True)
class Job:
    id: str
    argv: list
    # check(result, output) -> list of problems; output is the parsed JSON
    # file the job wrote, or None.
    check: object
    out: str | None = None
    # Non-empty: a fault of the program makes this job fail on every run.
    known_defect: str = ""


def _labelled(facets, rng):
    """The facets with their vertices renamed to seeded distinct tokens."""
    vertices = sorted({v for f in facets for v in f})
    names = dict(zip(vertices, (f"v{t}" for t in rng.sample(range(100, 1000), len(vertices)))))
    return [[names[v] for v in f] for f in facets]


def _write(path, K, coloring=None):
    data = {"facets": [list(f) for f in sorted(K.facets)]}
    if coloring is not None:
        data["classes"] = [sorted(c) for c in coloring.classes]
    with open(path, "w") as fh:
        json.dump(data, fh)
    return data


def _balanced_coloring(rc, K, classes, rng):
    """A seeded colouring whose class sizes differ by at most one, so that
    the size of the work varies little from seed to seed."""
    vertices = list(K.vertices)
    rng.shuffle(vertices)
    return rc.Coloring([vertices[i::classes] for i in range(classes)])


def _subdivided(rc, base, times, rng):
    K = rc.SimplicialComplex(_labelled(rc.generate(base).complex.facets, rng))
    for _ in range(times):
        K = rc.barycentric_subdivision(K).complex
    return K


def expected_betti(base, field):
    """Reduced Betti numbers of the catalog surfaces and spheres; subdivision
    leaves them unchanged."""
    if base.startswith("simplex_boundary("):
        return {int(base[len("simplex_boundary(") : -1]): 1}
    if base == "torus7":
        return {1: 2, 2: 1}
    if base == "rp2_6":
        return {1: 1, 2: 1} if field == "2" else {}
    raise ValueError(base)


def betti_subdivided(rc, seed, instance_dir):
    """`betti` on subdivided closed manifolds: a few large boundary matrices
    ranked over GF(p) and Q."""
    rng = random.Random(seed)
    plan = [
        ("simplex_boundary(5)", 1, ("2",)),
        ("simplex_boundary(4)", 1, ("2", "3", "q")),
        ("torus7", 2, ("2", "3", "q")),
        ("rp2_6", 2, ("2", "3", "q")),
        ("torus7", 3, ("2", "3", "q")),
    ]
    jobs = []
    for base, times, fields in plan:
        name = f"sd{times}-{base}"
        path = os.path.join(instance_dir, f"{name}.json")
        facets = _write(path, _subdivided(rc, base, times, rng))["facets"]
        for field in fields:
            check = partial(checks.check_betti, facets=facets, field=field, expected=expected_betti(base, field))
            jobs.append(Job(f"betti-{name}-{field}", ["betti", path, "--field", field], check))
    return jobs


def _report_job(job_id, path, theorem, fields, data, check, out_dir, seed):
    out = os.path.join(out_dir, f"{job_id}.json")
    argv = ["check", path, "--theorem", theorem]
    for field in fields:
        argv += ["--field", field]
    argv += ["--json", out]
    bound = partial(
        check, facets=data["facets"], classes=data["classes"], fields=fields, sample_seed=f"{seed}:{job_id}"
    )
    return Job(job_id, argv, bound, out=out)


def check_sweep(rc, seed, instance_dir):
    """Checker sweeps: many small K_S builds and ranks over every colour
    subset and field."""
    rng = random.Random(seed)
    out_dir = os.path.join(instance_dir, "reports")
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    for n, depth in ((2, 3), (3, 2), (4, 1)):
        K, C = rc.sperner_instance(n, depth, tie_break=lambda support: rng.choice(sorted(support)))
        job_id = f"meshulam-sperner{n}-{depth}"
        path = os.path.join(instance_dir, f"sperner{n}-{depth}.json")
        data = _write(path, K, C)
        jobs.append(_report_job(job_id, path, "meshulam", MESHULAM_FIELDS, data, checks.check_sperner, out_dir, seed))
    for base in ("torus7", "rp2_6"):
        K = _subdivided(rc, base, 2, rng)
        job_id = f"surface-sd2-{base}"
        path = os.path.join(instance_dir, f"sd2-{base}.json")
        data = _write(path, K, _balanced_coloring(rc, K, 3, rng))
        jobs.append(_report_job(job_id, path, "surface", SURFACE_FIELDS, data, checks.check_surface, out_dir, seed))
    for times in (1, 2):
        K = _subdivided(rc, "simplex_boundary(3)", times, rng)
        name = f"sd{times}-simplex_boundary3"
        path = os.path.join(instance_dir, f"{name}-sphere.json")
        data = _write(path, K, _balanced_coloring(rc, K, 4, rng))
        jobs.append(_report_job(f"sphere-{name}", path, "sphere", SPHERE_FIELDS, data, checks.check_sphere, out_dir, seed))
        # Another colouring, and a field the sphere job does not use.
        path = os.path.join(instance_dir, f"{name}-audit.json")
        data = _write(path, K, _balanced_coloring(rc, K, 4, rng))
        job_id = f"audit-{name}"
        check = partial(
            checks.check_audit,
            facets=data["facets"],
            classes=data["classes"],
            field=AUDIT_FIELD,
            sample_seed=f"{seed}:{job_id}",
        )
        jobs.append(Job(job_id, ["audit-duality", path, "--field", AUDIT_FIELD], check))
    return jobs


# {ab, (a|b)c}: the vertex "a|b" is also the barycenter label of the edge ab.
COLLISION_FACETS = [["a", "b"], ["a|b", "c"]]


def subdivide_io(rc, seed, instance_dir):
    """`sd --times k --out`: subdivision, large constructor calls, JSON
    reading and writing; no rank."""
    rng = random.Random(seed)
    out_dir = os.path.join(instance_dir, "subdivided")
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    for n, times in ((6, 1), (4, 2), (3, 3)):
        name = f"simplex_boundary{n}"
        path = os.path.join(instance_dir, f"{name}.json")
        facets = _write(path, rc.SimplicialComplex(_labelled(rc.generate(f"simplex_boundary({n})").complex.facets, rng)))["facets"]
        out = os.path.join(out_dir, f"sd{times}-{name}.json")
        check = partial(checks.check_subdivision, in_facets=facets, times=times)
        jobs.append(Job(f"sd{times}-{name}", ["sd", path, "--times", str(times), "--out", out], check, out=out))
    path = os.path.join(instance_dir, "label-collision.json")
    with open(path, "w") as fh:
        json.dump({"facets": COLLISION_FACETS}, fh)
    out = os.path.join(out_dir, "sd1-label-collision.json")
    jobs.append(
        Job(
            "sd1-label-collision",
            ["sd", path, "--times", "1", "--out", out],
            partial(checks.check_subdivision, in_facets=COLLISION_FACETS, times=1),
            out=out,
            known_defect="barycenter_label joins labels with '|', so the vertex a|b and the barycenter of ab collide",
        )
    )
    return jobs


WORKLOADS = {
    "betti-subdivided": betti_subdivided,
    "check-sweep": check_sweep,
    "subdivide-io": subdivide_io,
}

"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs small real jobs through rainbowcheck's CLI and shows that each check
passes on the real output. Then it corrupts each output in one way and
shows that the check reports a failure:

- `betti`: a Betti number off by one;
- `sd`: a dropped facet;
- `check --theorem meshulam` on a Sperner instance: a missing witness;
- `check --theorem meshulam` on the projective plane: the GF(2) and Q
  values of one colour subset swapped (they differ there: b~_1 is 1 over
  GF(2) and 0 over Q);
- `audit-duality`: one side of an entry off by one.

It also shows that the subdivision check fails on the program's real output
for the label-collision instance that the subdivide-io workload keeps as a
known failure. Exits 0 only if all of this holds.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import sys

import checks
import workloads
from worker import import_package, run_job

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "selftest")


def run(cli, argv, out=None):
    """Run one CLI job; returns (result, parsed output file or None)."""
    result = run_job(cli, argv)
    output = None
    if out is not None and os.path.exists(out):
        with open(out) as fh:
            output = json.load(fh)
    return result, output


def main():
    rc = import_package()
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR)
    rng = random.Random(0)
    cases = []  # (name, problems on the real output, problems on the corrupted one)

    # betti: a Betti number off by one.
    path = os.path.join(OUT_DIR, "sd1-simplex_boundary2.json")
    facets = workloads._write(path, workloads._subdivided(rc, "simplex_boundary(2)", 1, rng))["facets"]
    result, _ = run(rc.cli, ["betti", path, "--field", "2"])
    bad = dict(result, stdout=result["stdout"].replace("b[2]=1", "b[2]=2"))
    cases.append(("betti: Betti number off by one", *(checks.check_betti(r, None, facets=facets, field="2", expected={2: 1}) for r in (result, bad))))

    # sd: a dropped facet.
    path = os.path.join(OUT_DIR, "simplex_boundary3.json")
    facets = workloads._write(path, rc.SimplicialComplex(workloads._labelled(rc.generate("simplex_boundary(3)").complex.facets, rng)))["facets"]
    out = os.path.join(OUT_DIR, "sd2-simplex_boundary3.json")
    result, output = run(rc.cli, ["sd", path, "--times", "2", "--out", out], out)
    bad = {"facets": output["facets"][1:]}
    cases.append(("sd: dropped facet", *(checks.check_subdivision(result, o, in_facets=facets, times=2) for o in (output, bad))))

    # check meshulam on a Sperner instance: a missing witness.
    K, C = rc.sperner_instance(2, 2)
    path = os.path.join(OUT_DIR, "sperner2-2.json")
    data = workloads._write(path, K, C)
    out = os.path.join(OUT_DIR, "sperner2-2.report.json")
    fields = workloads.MESHULAM_FIELDS
    result, output = run(rc.cli, ["check", path, "--theorem", "meshulam", *sum((["--field", f] for f in fields), []), "--json", out], out)
    bad = copy.deepcopy(output)
    bad["reports"][0]["rainbow_witnesses"].pop()
    cases.append(
        ("meshulam: missing witness", *(checks.check_sperner(result, o, **data, fields=fields, sample_seed=1) for o in (output, bad)))
    )

    # check meshulam on RP^2: the GF(2) and Q values of S = {0, 1, 2} swapped.
    K = rc.SimplicialComplex(workloads._labelled(rc.generate("rp2_6").complex.facets, rng))
    path = os.path.join(OUT_DIR, "rp2_6.json")
    data = workloads._write(path, K, rc.random_coloring(K, 3, 7))
    out = os.path.join(OUT_DIR, "rp2_6.report.json")
    result, output = run(rc.cli, ["check", path, "--theorem", "meshulam", "--field", "2", "--field", "q", "--json", out], out)
    bad = copy.deepcopy(output)
    top = [v["detail"] for r in bad["reports"] for v in r["verdicts"] if v["detail"].get("S") == [0, 1, 2]]
    top[0]["betti"], top[1]["betti"] = top[1]["betti"], top[0]["betti"]
    cases.append(
        ("meshulam: GF(2)/Q pair swapped", *(checks.check_meshulam(result, o, **data, fields=("2", "q"), sample_seed=1) for o in (output, bad)))
    )

    # audit-duality: one side of an entry off by one.
    K = workloads._subdivided(rc, "simplex_boundary(3)", 1, rng)
    path = os.path.join(OUT_DIR, "sd1-simplex_boundary3.json")
    data = workloads._write(path, K, rc.random_coloring(K, 4, 11))
    result, _ = run(rc.cli, ["audit-duality", path, "--field", "3"])
    bad = dict(result, stdout=result["stdout"].replace("(K_Sc)=0", "(K_Sc)=1", 1))
    cases.append(
        ("audit-duality: entry off by one", *(checks.check_audit(r, None, **data, field="3", sample_seed=1) for r in (result, bad)))
    )

    ok = True
    for name, real, corrupted in cases:
        caught = bool(corrupted) and not real
        ok = ok and caught
        print(f"{'ok  ' if caught else 'FAIL'} {name}")
        print(f"       real output: {real or 'passes'}")
        print(f"       corrupted:   {corrupted or 'passes (not caught)'}")

    # The program's own fault: sd on {ab, (a|b)c}.
    path = os.path.join(OUT_DIR, "label-collision.json")
    with open(path, "w") as fh:
        json.dump({"facets": workloads.COLLISION_FACETS}, fh)
    out = os.path.join(OUT_DIR, "sd1-label-collision.json")
    result, output = run(rc.cli, ["sd", path, "--times", "1", "--out", out], out)
    problems = checks.check_subdivision(result, output, in_facets=workloads.COLLISION_FACETS, times=1)
    ok = ok and bool(problems)
    print(f"{'ok  ' if problems else 'FAIL'} sd on the label-collision instance fails: {problems}")
    shutil.rmtree(OUT_DIR)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

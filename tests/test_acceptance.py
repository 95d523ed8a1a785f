"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything here is exact arithmetic at desk scale.
"""

import itertools
import time

import pytest

from rainbowcheck import (
    DEFAULT_FIELDS,
    GF2,
    GF3,
    QQ,
    Coloring,
    alexander_duality_audit,
    check_meshulam,
    check_theorem,
    euler_characteristic,
    induced_subcomplex,
    rainbow_simplices,
    reduced_betti,
)
from rainbowcheck import homology
from rainbowcheck.generators import generate, random_coloring, sperner_instance
from rainbowcheck.subdivision import (
    barycentric_subdivision,
    derived_neighborhood,
    supplement_complex,
)

from oracle import column_product

BASE_CORPUS_NAMES = (
    ["simplex_boundary(%d)" % n for n in range(1, 6)]
    + ["simplex(%d)" % n for n in range(1, 5)]
    + ["torus7", "rp2_6", "cycle(4)", "cycle(5)"]
)

SMALL_CORPUS_NAMES = [
    "simplex_boundary(2)",
    "simplex_boundary(3)",
    "simplex(3)",
    "torus7",
    "rp2_6",
    "cycle(5)",
]


def _report(number, description, start):
    print(f"[acceptance {number}] {description}: pass ({time.monotonic() - start:.2f}s)")


def _boundaries(K, p):
    """k -> the columns of the boundary out of degree k, k = 0..dim, from
    `homology._boundary_columns`; degree 0 maps onto the augmentation row,
    indexed by the one (-1)-face: {(): 0}."""
    columns = {}
    for k in range(K.dim + 1):
        index = {f: i for i, f in enumerate(K.faces(k - 1))}
        columns[k] = list(homology._boundary_columns(K.faces(k), index, p))
    return columns


def _surjective_colorings(vertices, classes):
    out = []
    for assignment in itertools.product(range(classes), repeat=len(vertices)):
        if len(set(assignment)) != classes:
            continue
        groups = [[] for _ in range(classes)]
        for v, c in zip(vertices, assignment):
            groups[c].append(v)
        out.append(Coloring(groups))
    return out


def test_criterion_01_chain_complex_soundness():
    start = time.monotonic()
    checked = 0
    for name in BASE_CORPUS_NAMES:
        base = generate(name).complex
        for K in (base, barycentric_subdivision(base).complex):
            for field in DEFAULT_FIELDS:
                d = _boundaries(K, field.p)
                for k in range(1, K.dim + 1):
                    product = column_product(d[k - 1], d[k], field.p or None)
                    assert not any(product), (name, k, str(field))
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"boundary-squared zero on {checked} operators", start)


def test_criterion_02_known_betti_tables():
    start = time.monotonic()
    for n in range(1, 6):
        K = generate(f"simplex_boundary({n})").complex
        for field in DEFAULT_FIELDS:
            assert reduced_betti(K, field) == {n: 1}
    torus = generate("torus7").complex
    for field in DEFAULT_FIELDS:
        assert reduced_betti(torus, field) == {1: 2, 2: 1}
    rp2 = generate("rp2_6").complex
    assert reduced_betti(rp2, GF2) == {1: 1, 2: 1}
    for field in (QQ, GF3):
        assert reduced_betti(rp2, field).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, "sphere/torus/projective-plane Betti tables exact", start)


def test_criterion_03_reduced_euler_relation():
    start = time.monotonic()
    for name in BASE_CORPUS_NAMES:
        base = generate(name).complex
        for K in (base, barycentric_subdivision(base).complex):
            chi = euler_characteristic(K)
            for field in DEFAULT_FIELDS:
                betti = reduced_betti(K, field)
                alt = sum((-1) ** k * betti[k] for k in range(0, K.dim + 1))
                assert alt == chi - 1, (name, str(field))
    _report(3, "reduced Euler relation on the full corpus", start)


def test_criterion_04_subdivision_invariance():
    start = time.monotonic()
    for name in ("torus7", "rp2_6", "simplex_boundary(3)"):
        K = generate(name).complex
        K2 = barycentric_subdivision(K).complex
        for field in (GF2, QQ):
            assert reduced_betti(K2, field) == reduced_betti(K, field), (name, str(field))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, "Betti invariance under barycentric subdivision", start)


def test_criterion_05_pl_fact_shadows():
    import random

    start = time.monotonic()
    rng = random.Random(20240)
    checks = 0
    for trial in range(200):
        K = generate(SMALL_CORPUS_NAMES[trial % len(SMALL_CORPUS_NAMES)]).complex
        u1 = {v for v in K.vertices if rng.random() < 0.5}
        u2 = set(K.vertices) - u1
        for field in (GF2, QQ):
            induced_u1 = reduced_betti(induced_subcomplex(K, u1), field)
            if u1:
                assert reduced_betti(derived_neighborhood(u1, K), field) == induced_u1
            assert reduced_betti(supplement_complex(u2, K), field) == induced_u1
            checks += 1
    _report(5, f"derived-neighborhood/supplement Betti equalities ({checks} checks)", start)


def test_criterion_06_meshulam_soundness_sweep():
    start = time.monotonic()
    violations = 0
    runs = 0

    def sweep(K, coloring):
        nonlocal violations, runs
        for field in (QQ, GF2):
            report = check_meshulam(K, coloring, field)
            runs += 1
            if report.all_hold and not report.rainbow_witnesses:
                violations += 1

    sphere2 = generate("simplex_boundary(2)").complex
    colorings = _surjective_colorings(sphere2.vertices, 3)
    assert len(colorings) == 36
    for coloring in colorings:
        sweep(sphere2, coloring)

    sd_sphere2 = barycentric_subdivision(sphere2).complex
    for seed in range(1000):
        sweep(sd_sphere2, random_coloring(sd_sphere2, 3, seed))

    sphere3 = generate("simplex_boundary(3)").complex
    for seed in range(200):
        sweep(sphere3, random_coloring(sphere3, 4, seed))

    elapsed = time.monotonic() - start
    assert violations == 0, f"{violations} soundness violations"
    assert elapsed < 180.0, f"criterion 6 took {elapsed:.1f}s"
    _report(6, f"Eq-1 soundness sweep, {runs} checker runs, 0 violations", start)


def test_criterion_07_theorem_checker_consistency():
    start = time.monotonic()
    runs = 0
    all_hold_runs = 0

    def run(K, coloring, theorem):
        nonlocal runs, all_hold_runs
        report = check_theorem(K, coloring, theorem, [QQ, GF2])
        runs += 1
        assert report.consistent, (theorem, coloring)
        if report.all_hold:
            all_hold_runs += 1
            assert report.rainbow_witnesses

    sphere2 = generate("simplex_boundary(2)").complex
    for coloring in _surjective_colorings(sphere2.vertices, 3):
        run(sphere2, coloring, "surface")
        run(sphere2, coloring, "sphere")
    for name in ("torus7", "rp2_6"):
        K = generate(name).complex
        for seed in range(12):
            run(K, random_coloring(K, 3, seed), "surface")
    sphere3 = generate("simplex_boundary(3)").complex
    for seed in range(20):
        coloring = random_coloring(sphere3, 4, seed)
        run(sphere3, coloring, "three")
        run(sphere3, coloring, "sphere")
    assert all_hold_runs > 0
    _report(7, f"consistency flag true in {runs}/{runs} runs ({all_hold_runs} all-hold)", start)


def test_criterion_08_alexander_duality_audit():
    start = time.monotonic()
    audits = 0
    sphere2 = generate("simplex_boundary(2)").complex
    for coloring in _surjective_colorings(sphere2.vertices, 3):
        for field in (GF2, QQ):
            assert alexander_duality_audit(sphere2, coloring, field).passed
            audits += 1
    sphere3 = generate("simplex_boundary(3)").complex
    for seed in range(100):
        coloring = random_coloring(sphere3, 4, seed)
        for field in (GF2, QQ):
            assert alexander_duality_audit(sphere3, coloring, field).passed
            audits += 1
    _report(8, f"duality equalities hold in {audits} audits, 0 violations", start)


def test_criterion_09_sperner_harness():
    start = time.monotonic()
    for n, k in ((2, 1), (2, 2), (3, 1)):
        K, coloring = sperner_instance(n, k)
        count = len(rainbow_simplices(K, coloring))
        assert count > 0 and count % 2 == 1, (n, k, count)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(9, "Sperner instances have odd positive rainbow counts", start)


def test_criterion_10_non_necessity_witness():
    start = time.monotonic()
    cyc = generate("cycle(4)").complex
    coloring = Coloring([[0, 2], [1, 3]])
    report = check_meshulam(cyc, coloring, QQ)
    assert not report.all_hold
    assert len(report.rainbow_witnesses) == 4
    assert report.consistent
    _report(10, "alternating 4-cycle fails the condition yet has rainbow edges", start)


def test_criterion_11_exactness():
    start = time.monotonic()
    # every Betti entry is a Python int; no floats can enter the homology path
    for name in SMALL_CORPUS_NAMES:
        K = generate(name).complex
        for field in DEFAULT_FIELDS:
            betti = reduced_betti(K, field)
            assert all(isinstance(v, int) for v in betti.nonzero().values())
            for columns in _boundaries(K, field.p).values():
                assert all(isinstance(v, int) for col in columns for v in col.values())
    _report(11, "all homology values are exact integers", start)

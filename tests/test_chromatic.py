import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcheck import (
    DEFAULT_FIELDS,
    GF2,
    QQ,
    ArityError,
    Coloring,
    SimplicialComplex,
    alexander_duality_audit,
    barycentric_subdivision,
    check_meshulam,
    check_theorem,
    chromatic_subcomplex,
    rainbow_simplices,
    reduced_betti,
    validate_coloring,
)
from rainbowcheck import chromatic
from rainbowcheck.generators import generate, random_coloring

TETRA_BOUNDARY = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]


@pytest.fixture
def sphere2():
    return SimplicialComplex(TETRA_BOUNDARY)


@pytest.fixture
def coloring_abc(sphere2):
    return Coloring([["a"], ["b"], ["c", "d"]])


def test_coloring_rejects_overlap():
    with pytest.raises(ValueError):
        Coloring([["a", "b"], ["b"]])


def test_validate_coloring(sphere2, coloring_abc):
    assert validate_coloring(sphere2, coloring_abc) == []
    missing = Coloring([["a"], ["b"], ["c"]])
    assert any("'d'" in v and v.startswith("error") for v in validate_coloring(sphere2, missing))
    empty = Coloring([["a"], [], ["b", "c", "d"]])
    msgs = validate_coloring(sphere2, empty)
    assert any(v.startswith("warning") and "class 1" in v for v in msgs)
    assert not any(v.startswith("error") for v in msgs)


def test_chromatic_subcomplex(sphere2, coloring_abc):
    assert chromatic_subcomplex(sphere2, coloring_abc, {2}).facets == frozenset({("c", "d")})
    assert chromatic_subcomplex(sphere2, coloring_abc, {0, 1}).facets == frozenset({("a", "b")})
    assert chromatic_subcomplex(sphere2, coloring_abc, {0, 1, 2}) == sphere2
    with pytest.raises(IndexError):
        chromatic_subcomplex(sphere2, coloring_abc, {5})


def test_chromatic_subcomplex_union_contains_parts(sphere2, coloring_abc):
    both = chromatic_subcomplex(sphere2, coloring_abc, {0, 2})
    for S in ({0}, {2}):
        part = chromatic_subcomplex(sphere2, coloring_abc, S)
        for f in part.facets:
            assert both.has_face(f)


def test_rainbow_simplices(sphere2, coloring_abc):
    assert rainbow_simplices(sphere2, coloring_abc) == [("a", "b", "c"), ("a", "b", "d")]
    other = Coloring([["a", "b"], ["c"], ["d"]])
    assert rainbow_simplices(sphere2, other) == [("a", "c", "d"), ("b", "c", "d")]
    cyc = generate("cycle(4)").complex
    assert len(rainbow_simplices(cyc, Coloring([[0, 2], [1, 3]]))) == 4
    # arity mismatch: nothing to enumerate
    assert rainbow_simplices(sphere2, Coloring([["a"], ["b", "c", "d"]])) == []


def test_rainbow_invariant_under_class_permutation(sphere2, coloring_abc):
    base = set(rainbow_simplices(sphere2, coloring_abc))
    for perm in itertools.permutations(range(3)):
        permuted = Coloring([sorted(coloring_abc.classes[i]) for i in perm])
        assert set(rainbow_simplices(sphere2, permuted)) == base


def test_check_meshulam_sphere_passes(sphere2, coloring_abc):
    report = check_meshulam(sphere2, coloring_abc, QQ)
    assert report.all_hold
    assert len(report.verdicts) == 7
    assert all(v.status == "pass" for v in report.verdicts)
    assert report.rainbow_witnesses == (("a", "b", "c"), ("a", "b", "d"))
    assert report.consistent


def test_check_meshulam_four_cycle_fails_with_witnesses():
    cyc = generate("cycle(4)").complex
    report = check_meshulam(cyc, Coloring([[0, 2], [1, 3]]), QQ)
    assert not report.all_hold
    failing = [v for v in report.verdicts if v.status == "fail"]
    assert failing[0].detail["S"] == [0]
    assert failing[0].detail["betti"] == 1
    assert len(report.rainbow_witnesses) == 4
    assert report.consistent


def test_check_meshulam_arity_guard(sphere2):
    report = check_meshulam(sphere2, Coloring([["a"], ["b", "c", "d"]]), QQ)
    assert not report.all_hold
    assert report.verdicts[0].id == "arity"
    assert report.rainbow_witnesses == ()


def test_check_meshulam_fails_on_empty_class(sphere2):
    report = check_meshulam(sphere2, Coloring([["a"], [], ["b", "c", "d"]]), QQ)
    failing = [v for v in report.verdicts if v.status == "fail"]
    assert any(v.detail["S"] == [1] for v in failing)


def test_check_theorem_surface(sphere2, coloring_abc):
    report = check_theorem(sphere2, coloring_abc, "surface", [QQ])
    assert report.all_hold and report.consistent
    statuses = {v.id: v.status for v in report.verdicts}
    assert statuses["surface_manifold"] == "assumed"
    assert report.rainbow_witnesses == (("a", "b", "c"), ("a", "b", "d"))


def test_check_theorem_surface_with_boundary():
    # disk made of two triangles; boundary is the 4-cycle a-b-d-c
    disk = SimplicialComplex([["a", "b", "c"], ["b", "c", "d"]])
    coloring = Coloring([["a"], ["b", "d"], ["c"]])
    report = check_theorem(disk, coloring, "surface", [QQ])
    assert report.consistent


def test_check_theorem_sphere(sphere2, coloring_abc):
    report = check_theorem(sphere2, coloring_abc, "sphere", [QQ])
    assert report.all_hold
    # only |S| = 1 is required at n = 2, plus the homology-sphere proxy
    assert sum(1 for v in report.verdicts if v.id.startswith("vanishing")) == 3


def test_check_theorem_surface_fails_on_cycle_class():
    # class 0 = all of torus7's vertices minus nothing would be improper;
    # pick a class inducing a 7-cycle (every pair at distance 1 mod 7)
    K = generate("torus7").complex
    cls0 = [0, 1, 2, 4]  # induces a cycle 0-1-2-4-0 (edges at distances 1,2,3)
    others = [v for v in range(7) if v not in cls0]
    coloring = Coloring([cls0, others[:2], others[2:]])
    induced = chromatic_subcomplex(K, coloring, {0})
    assert reduced_betti(induced, QQ)[1] >= 1
    report = check_theorem(K, coloring, "surface", [QQ])
    assert not report.all_hold
    assert report.consistent


def test_check_theorem_three_on_sphere3():
    K = generate("simplex_boundary(3)").complex
    coloring = Coloring([[0], [1], [2], [3, 4]])
    report = check_theorem(K, coloring, "three", [QQ])
    assert report.all_hold and report.consistent
    assert any(v.status == "proxy-pass" for v in report.verdicts)
    assert not any(v.status == "pass" and v.id.startswith("class_acyclic") for v in report.verdicts)


def test_check_theorem_four_on_sphere4():
    K = generate("simplex_boundary(4)").complex
    coloring = Coloring([[0], [1], [2], [3], [4, 5]])
    report = check_theorem(K, coloring, "four", [QQ])
    assert report.all_hold and report.consistent


def test_check_theorem_n_on_spheres():
    for n in (2, 3, 4):
        K = generate(f"simplex_boundary({n})").complex
        classes = [[i] for i in range(n)] + [[n, n + 1]]
        report = check_theorem(K, Coloring(classes), "n", [QQ])
        assert report.all_hold and report.consistent


def test_check_theorem_n_requires_closed():
    disk = SimplicialComplex([["a", "b", "c"]])
    with pytest.raises(ArityError):
        check_theorem(disk, Coloring([["a"], ["b"], ["c"]]), "n", [QQ])


def test_check_theorem_arity_errors(sphere2):
    with pytest.raises(ArityError):
        check_theorem(sphere2, Coloring([["a"], ["b", "c", "d"]]), "surface", [QQ])
    with pytest.raises(ValueError):
        check_theorem(sphere2, Coloring([["a"], ["b"], ["c", "d"]]), "nonsense", [QQ])


def test_sphere_pass_implies_meshulam_pass_on_corpus():
    for n, seeds in ((2, range(12)), (3, range(12))):
        K = generate(f"simplex_boundary({n})").complex
        for seed in seeds:
            coloring = random_coloring(K, n + 1, seed)
            for field in (QQ, GF2):
                sphere_report = check_theorem(K, coloring, "sphere", [field])
                if sphere_report.all_hold:
                    assert check_meshulam(K, coloring, field).all_hold


def test_alexander_duality_audit_sphere2(sphere2, coloring_abc):
    audit = alexander_duality_audit(sphere2, coloring_abc, QQ)
    assert audit.passed
    assert len(audit.entries) == 6
    first = audit.entries[0]
    assert first["S"] == [0] and first["lhs"] == 0 and first["rhs"] == 0


def test_alexander_duality_audit_sphere3_gf2():
    K = generate("simplex_boundary(3)").complex
    audit = alexander_duality_audit(K, Coloring([[0], [1], [2], [3, 4]]), GF2)
    assert audit.passed


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records the arguments of each call."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_duality_audit_ranks_each_complex_once_per_field(monkeypatch):
    # sd of the 3-sphere, 4 classes: K itself, then 14 subsets S each read
    # as S and as a complement, 29 Betti vectors of 15 distinct complexes.
    K = barycentric_subdivision(generate("simplex_boundary(3)").complex).complex
    coloring = random_coloring(K, 4, seed=5)
    lookups = count_calls(monkeypatch, chromatic._Sweep, "betti")
    ranks = count_calls(monkeypatch, chromatic, "reduced_betti")
    for F in (GF2, QQ):
        assert alexander_duality_audit(K, coloring, F).passed
    assert len(lookups) == 2 * 29
    assert len(ranks) == 2 * 15


def test_n_checker_computes_the_pseudomanifold_report_once(monkeypatch):
    K = generate("simplex_boundary(3)").complex
    reports = count_calls(monkeypatch, chromatic, "pseudomanifold_report")
    report = check_theorem(K, random_coloring(K, 4, seed=1), "n", [GF2, QQ])
    assert len(reports) == 1
    assert report.verdicts[0].id == "n_manifold"


@pytest.mark.parametrize("theorem", ["sphere", "three"])
def test_check_builds_no_complex_through_the_public_constructor(theorem, monkeypatch):
    # Each K_S is filtered from K's face tables and the boundary is a
    # trusted antichain, so only the input ever meets the normalising scan.
    K = barycentric_subdivision(generate("simplex_boundary(3)").complex).complex
    coloring = Coloring([[v for v in K.vertices if v.count("|") == i] for i in range(4)])
    built = count_calls(monkeypatch, SimplicialComplex, "__init__")
    check_theorem(K, coloring, theorem, [GF2, QQ])
    assert built == []


def test_alexander_duality_audit_rejects_non_sphere():
    K = generate("torus7").complex
    coloring = random_coloring(K, 3, 1)
    with pytest.raises(ValueError):
        alexander_duality_audit(K, coloring, QQ)


def test_report_json_roundtrip(sphere2, coloring_abc):
    import json

    report = check_meshulam(sphere2, coloring_abc, QQ)
    blob = json.dumps(report.as_dict())
    back = json.loads(blob)
    assert back["all_hold"] is True
    assert back["rainbow_witnesses"] == [["a", "b", "c"], ["a", "b", "d"]]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        ["simplex_boundary(2)", "simplex_boundary(3)", "simplex(3)", "torus7", "rp2_6", "cycle(5)"]
    ),
    st.integers(0, 1000),
    st.booleans(),
    st.lists(st.sampled_from(DEFAULT_FIELDS), min_size=1, max_size=4, unique=True),
)
def test_meshulam_over_several_fields_holds_iff_some_field_does(name, seed, right_arity, fields):
    K = generate(name).complex
    coloring = random_coloring(K, K.dim + 1 if right_arity else K.dim, seed)
    merged = check_theorem(K, coloring, "meshulam", fields)
    per_field = [check_meshulam(K, coloring, F) for F in fields]
    assert merged.all_hold == any(r.all_hold for r in per_field)
    assert merged.consistent
    for F, report in zip(fields, per_field):
        scoped = [v for v in merged.verdicts if v.detail.get("field", str(F)) == str(F)]
        assert scoped == list(report.verdicts)
        assert merged.over(F).as_dict() == report.as_dict()

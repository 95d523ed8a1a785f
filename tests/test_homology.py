import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowcheck import (
    DEFAULT_FIELDS,
    GF2,
    GF3,
    GF5,
    QQ,
    FieldSpec,
    SimplicialComplex,
    euler_characteristic,
    is_acyclic,
    reduced_betti,
    relative_betti,
)
from rainbowcheck import homology
from rainbowcheck.generators import generate

from oracle import column_product, dense_rank, dense_reduced_betti, dense_relative_betti

TETRA_BOUNDARY = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]


def boundaries(K, p):
    """k -> the columns of the boundary out of degree k, k = 0..dim, from
    `homology._boundary_columns`; degree 0 maps onto the augmentation row,
    indexed by the one (-1)-face: {(): 0}."""
    columns = {}
    for k in range(K.dim + 1):
        index = {f: i for i, f in enumerate(K.faces(k - 1))}
        columns[k] = list(homology._boundary_columns(K.faces(k), index, p))
    return columns


def test_fieldspec_rejects_composites():
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1)
    assert str(FieldSpec(7)) == "GF(7)"
    assert str(QQ) == "Q"


def test_field_rank_identity_and_zero():
    assert len(homology._reduce([{0: 1}, {1: 1}], GF2.p)) == 2
    assert len(homology._reduce([{}, {}, {}, {}], QQ.p)) == 0


def test_field_rank_three_cycle_boundary():
    # edges ab, ac, bc of the triangle boundary; rank 2 over Q: frozen from
    # a hand Gaussian elimination
    K = SimplicialComplex([["a", "b"], ["a", "c"], ["b", "c"]])
    for field in (QQ, GF2):
        assert len(homology._reduce(boundaries(K, field.p)[1], field.p)) == 2


def test_boundary_sign_convention_single_edge():
    K = SimplicialComplex([["a", "b"]])
    assert K.faces(0) == [("a",), ("b",)]
    assert boundaries(K, QQ.p)[1] == [{0: -1, 1: 1}]


def test_boundary_shapes_tetra_boundary():
    d = boundaries(SimplicialComplex(TETRA_BOUNDARY), QQ.p)
    assert len(d[2]) == 4 and set().union(*d[2]) == set(range(6))
    assert all(len(col) == 3 for col in d[2])
    assert d[0] == [{0: 1}] * 4  # the augmentation row


@pytest.mark.parametrize("field", DEFAULT_FIELDS)
def test_boundary_squares_to_zero_torus(field):
    d = boundaries(generate("torus7").complex, field.p)
    for k in range(1, 3):
        assert column_product(d[k - 1], d[k], field.p or None) == [{}] * len(d[k])


def test_reduced_betti_sphere():
    betti = reduced_betti(SimplicialComplex(TETRA_BOUNDARY), QQ)
    assert betti.as_dict(-1, 2) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_reduced_betti_torus7_frozen_and_oracle():
    K = generate("torus7").complex
    for field in DEFAULT_FIELDS:
        betti = reduced_betti(K, field)
        assert betti == {1: 2, 2: 1}
        p = None if field.is_rational else field.p
        assert dense_reduced_betti(sorted(K.facets), p) == betti.as_dict(-1, 2)


def test_reduced_betti_rp2_frozen_and_oracle():
    K = generate("rp2_6").complex
    assert reduced_betti(K, GF2) == {1: 1, 2: 1}
    assert reduced_betti(K, QQ).is_zero()
    assert reduced_betti(K, GF3).is_zero()
    assert dense_reduced_betti(sorted(K.facets), 2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert dense_reduced_betti(sorted(K.facets), None) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_reduced_betti_empty_complex():
    assert reduced_betti(SimplicialComplex([]), QQ) == {-1: 1}


def test_relative_betti_interval_mod_boundary():
    K = SimplicialComplex([["a", "b"]])
    L = SimplicialComplex([["a"], ["b"]])
    assert relative_betti(K, L, QQ).as_dict(-1, 1) == {-1: 0, 0: 0, 1: 1}


def test_relative_betti_disk_mod_boundary():
    K = SimplicialComplex([["a", "b", "c"]])
    L = SimplicialComplex([["a", "b"], ["a", "c"], ["b", "c"]])
    assert relative_betti(K, L, QQ).as_dict(-1, 2) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_relative_betti_empty_subcomplex_is_unreduced():
    K = generate("torus7").complex
    rel = relative_betti(K, SimplicialComplex([]), QQ)
    red = reduced_betti(K, QQ)
    assert rel[0] == red[0] + 1
    assert rel[1] == red[1] and rel[2] == red[2]


def test_relative_betti_rejects_non_subcomplex():
    cases = [
        ([["a", "b"]], [["a", "c"]], ("a", "c")),
        # the vertex d is missing two degrees below the facet that holds it
        ([["a", "b", "c"]], [["a", "b"], ["b", "c", "d"]], ("b", "c", "d")),
        # every proper face of L is in K; only L's facet, above K's dimension, is not
        ([["a", "b"], ["a", "c"], ["b", "c"]], [["a", "b", "c"]], ("a", "b", "c")),
    ]
    for K, L, facet in cases:
        message = f"{facet!r} is a facet of L but not a face of K"
        with pytest.raises(ValueError, match=re.escape(message)):
            relative_betti(SimplicialComplex(K), SimplicialComplex(L), QQ)


def test_long_exact_sequence_spot_check():
    # relative H2 of (disk, circle) matches reduced H1 of the circle
    disk = SimplicialComplex([["a", "b", "c"]])
    circle = SimplicialComplex([["a", "b"], ["a", "c"], ["b", "c"]])
    assert relative_betti(disk, circle, QQ)[2] == 1 == reduced_betti(circle, QQ)[1]


def test_is_acyclic():
    assert is_acyclic(SimplicialComplex([["a"]]), QQ)
    assert not is_acyclic(generate("cycle(4)").complex, QQ)
    assert not is_acyclic(SimplicialComplex([]), QQ)
    rp2 = generate("rp2_6").complex
    assert is_acyclic(rp2, GF3)
    assert not is_acyclic(rp2, GF2)


CORPUS = ["simplex_boundary(2)", "simplex_boundary(3)", "torus7", "rp2_6", "cycle(5)", "simplex(3)"]


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("field", DEFAULT_FIELDS)
def test_reduced_euler_relation(name, field):
    K = generate(name).complex
    betti = reduced_betti(K, field)
    total = sum((-1) ** k * betti[k] for k in range(0, K.dim + 1))
    assert total == euler_characteristic(K) - 1


@pytest.mark.parametrize("name", ["torus7", "rp2_6", "simplex_boundary(3)"])
def test_betti_independent_of_vertex_order(name):
    K = generate(name).complex
    rng = random.Random(7)
    labels = list(K.vertices)
    for _ in range(3):
        shuffled = labels[:]
        rng.shuffle(shuffled)
        relabel = {v: f"v{shuffled.index(v):02d}" for v in labels}
        K2 = SimplicialComplex([[relabel[v] for v in f] for f in K.facets])
        assert reduced_betti(K2, QQ) == reduced_betti(K, QQ)


@pytest.mark.parametrize("field", DEFAULT_FIELDS)
def test_rank_equals_rank_of_transpose(field):
    for name in ("torus7", "rp2_6"):
        for columns in boundaries(generate(name).complex, field.p).values():
            rows = {}
            for c, col in enumerate(columns):
                for r, v in col.items():
                    rows.setdefault(r, {})[c] = v
            rank = len(homology._reduce(columns, field.p))
            assert rank == len(homology._reduce(rows.values(), field.p))


def test_reduced_betti_keeps_no_reference_to_the_complex():
    # Nothing is cached across calls, so a complex lives no longer than its
    # caller keeps it.  K's labels are its own, so no earlier call saw it.
    K = SimplicialComplex([[f"betti-no-ref-{v}" for v in f] for f in TETRA_BOUNDARY])
    before = sys.getrefcount(K), sys.getrefcount(K.facets)
    for F in DEFAULT_FIELDS:
        reduced_betti(K, F)
    assert (sys.getrefcount(K), sys.getrefcount(K.facets)) == before


# Random non-pure complexes on at most 8 vertices, as raw facet lists.
facet_lists = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True), max_size=8
)
ORACLE_FIELDS = [(GF2, 2), (GF3, 3), (QQ, None)]


@settings(max_examples=60, deadline=None)
@given(facet_lists)
@example([[0, 1, 2, 3, 4], [1, 5]])  # clearing must use the pivots of the degree above
def test_reduced_betti_matches_oracle(facets):
    K = SimplicialComplex(facets)
    for field, p in ORACLE_FIELDS:
        assert reduced_betti(K, field).as_dict(-1, K.dim) == dense_reduced_betti(facets, p)


@settings(max_examples=60, deadline=None)
@given(facet_lists, st.sets(st.integers(0, 7)))
@example([[1, 5], [0, 1, 2, 3, 4]], set())
def test_relative_betti_matches_oracle_for_induced_subcomplex(facets, W):
    L_facets = [sorted(W.intersection(f)) for f in facets if W.intersection(f)]
    K, L = SimplicialComplex(facets), SimplicialComplex(L_facets)
    for field, p in ORACLE_FIELDS:
        expected = dense_relative_betti(facets, L_facets, p)
        assert relative_betti(K, L, field).as_dict(0, K.dim) == expected


def test_torsion_reduced_and_relative_match_oracle():
    # RP^2 has 2-torsion in H_1, so GF(2) and Q give different numbers for
    # it and for the pair (RP^2, an edge)
    facets = sorted(generate("rp2_6").complex.facets)
    edge = [list(facets[0][:2])]
    K, L = SimplicialComplex(facets), SimplicialComplex(edge)
    results = {}
    for field, p in ORACLE_FIELDS:
        assert reduced_betti(K, field).as_dict(-1, 2) == dense_reduced_betti(facets, p)
        results[p] = relative_betti(K, L, field).as_dict(0, 2)
        assert results[p] == dense_relative_betti(facets, edge, p)
    assert results[2] == {0: 0, 1: 1, 2: 1} and results[None] == {0: 0, 1: 0, 2: 0}


def _columns(rows, p):
    """The columns of a dense integer matrix as {row: value}, entries mod p
    when p > 0, zeros dropped."""
    width = len(rows[0]) if rows else 0
    return [
        {r: x for r, row in enumerate(rows) if (x := row[c] % p if p else row[c])}
        for c in range(width)
    ]


def _matrices(elements):
    return st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), max_size=6)
    )


@settings(max_examples=80, deadline=None)
@given(_matrices(st.integers(-3, 3)))
def test_field_rank_matches_oracle_on_integer_matrices(rows):
    for p in (2, 3, 5):
        assert len(homology._reduce(_columns(rows, p), p)) == dense_rank(rows, p)
    assert len(homology._reduce(_columns(rows, 0), 0)) == dense_rank(rows)

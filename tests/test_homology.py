import random
import re
from fractions import Fraction

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
    SparseMatrix,
    boundary_matrices,
    euler_characteristic,
    field_rank,
    from_facets,
    is_acyclic,
    reduced_betti,
    relative_betti,
)
from rainbowcheck import homology
from rainbowcheck.generators import generate

from oracle import dense_rank, dense_reduced_betti, dense_relative_betti

TETRA_BOUNDARY = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]


def test_fieldspec_rejects_composites():
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1)
    assert str(FieldSpec(7)) == "GF(7)"
    assert str(QQ) == "Q"


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, ((0, 0, 1), (0, 0, 1)))
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, ((5, 0, 1),))
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, ((0, 0, 0),))


def test_field_rank_identity_and_zero():
    ident = SparseMatrix(2, 2, ((0, 0, 1), (1, 1, 1)))
    assert field_rank(ident, GF2) == 2
    assert field_rank(SparseMatrix(3, 4, ()), QQ) == 0


def test_field_rank_three_cycle_boundary():
    # edges ab, ac, bc of the triangle boundary; rank 2 over Q: frozen from
    # a hand Gaussian elimination
    K = from_facets([["a", "b"], ["a", "c"], ["b", "c"]])
    d1 = boundary_matrices(K, QQ).boundaries[1]
    assert field_rank(d1, QQ) == 2
    assert field_rank(d1, GF2) == 2


def test_field_rank_rational_entries():
    M = SparseMatrix(
        2, 2, ((0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 3)), (1, 0, 3), (1, 1, 2))
    )
    assert field_rank(M, QQ) == 1  # second row is 6x the first


def test_boundary_sign_convention_single_edge():
    K = from_facets([["a", "b"]])
    d1 = boundary_matrices(K, QQ).boundaries[1]
    assert d1.rows == 2 and d1.cols == 1
    assert dict(((r, c), v) for r, c, v in d1.entries) == {(0, 0): -1, (1, 0): 1}


def test_boundary_shapes_tetra_boundary():
    mats = boundary_matrices(from_facets(TETRA_BOUNDARY), QQ)
    d2 = mats.boundaries[2]
    assert (d2.rows, d2.cols) == (6, 4)
    per_column = {}
    for _, c, _ in d2.entries:
        per_column[c] = per_column.get(c, 0) + 1
    assert all(v == 3 for v in per_column.values())
    assert mats.face_counts[-1] == 1
    assert mats.boundaries[0].rows == 1


@pytest.mark.parametrize("field", DEFAULT_FIELDS)
def test_boundary_squares_to_zero_torus(field):
    mats = boundary_matrices(generate("torus7").complex, field)
    for k in range(1, 3):
        product = mats.boundaries[k - 1].matmul(mats.boundaries[k], field)
        assert product.entries == ()


def test_reduced_betti_sphere():
    betti = reduced_betti(from_facets(TETRA_BOUNDARY), QQ)
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
    assert reduced_betti(from_facets([]), QQ) == {-1: 1}


def test_relative_betti_interval_mod_boundary():
    K = from_facets([["a", "b"]])
    L = from_facets([["a"], ["b"]])
    assert relative_betti(K, L, QQ).as_dict(-1, 1) == {-1: 0, 0: 0, 1: 1}


def test_relative_betti_disk_mod_boundary():
    K = from_facets([["a", "b", "c"]])
    L = from_facets([["a", "b"], ["a", "c"], ["b", "c"]])
    assert relative_betti(K, L, QQ).as_dict(-1, 2) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_relative_betti_empty_subcomplex_is_unreduced():
    K = generate("torus7").complex
    rel = relative_betti(K, from_facets([]), QQ)
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
            relative_betti(from_facets(K), from_facets(L), QQ)


def test_long_exact_sequence_spot_check():
    # relative H2 of (disk, circle) matches reduced H1 of the circle
    disk = from_facets([["a", "b", "c"]])
    circle = from_facets([["a", "b"], ["a", "c"], ["b", "c"]])
    assert relative_betti(disk, circle, QQ)[2] == 1 == reduced_betti(circle, QQ)[1]


def test_is_acyclic():
    assert is_acyclic(from_facets([["a"]]), QQ)
    assert not is_acyclic(generate("cycle(4)").complex, QQ)
    assert not is_acyclic(from_facets([]), QQ)
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
        K2 = from_facets([[relabel[v] for v in f] for f in K.facets])
        assert reduced_betti(K2, QQ) == reduced_betti(K, QQ)


@pytest.mark.parametrize("field", DEFAULT_FIELDS)
def test_rank_equals_rank_of_transpose(field):
    for name in ("torus7", "rp2_6"):
        mats = boundary_matrices(generate(name).complex, field)
        for M in mats.boundaries.values():
            transpose = SparseMatrix(M.cols, M.rows, tuple((c, r, v) for r, c, v in M.entries))
            assert field_rank(M, field) == field_rank(transpose, field)


def test_betti_cache_is_bounded_and_still_hits():
    bound = homology._BETTI_CACHE_SIZE
    edges = [from_facets([[i, i + 1]]) for i in range(bound + 10)]
    first = reduced_betti(edges[0], GF2)
    for K in edges:
        reduced_betti(K, GF2)
    assert len(homology._betti_cache) <= bound
    assert reduced_betti(edges[0], GF2) is not first  # evicted, recomputed
    last = reduced_betti(edges[-1], GF2)
    assert reduced_betti(edges[-1], GF2) is last


# Random non-pure complexes on at most 8 vertices, as raw facet lists.
facet_lists = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True), max_size=8
)
ORACLE_FIELDS = [(GF2, 2), (GF3, 3), (QQ, None)]


@settings(max_examples=60, deadline=None)
@given(facet_lists)
@example([[0, 1, 2, 3, 4], [1, 5]])  # clearing must use the pivots of the degree above
def test_reduced_betti_matches_oracle(facets):
    K = from_facets(facets)
    for field, p in ORACLE_FIELDS:
        assert reduced_betti(K, field).as_dict(-1, K.dim) == dense_reduced_betti(facets, p)


@settings(max_examples=60, deadline=None)
@given(facet_lists, st.sets(st.integers(0, 7)))
@example([[1, 5], [0, 1, 2, 3, 4]], set())
def test_relative_betti_matches_oracle_for_induced_subcomplex(facets, W):
    L_facets = [sorted(W.intersection(f)) for f in facets if W.intersection(f)]
    K, L = from_facets(facets), from_facets(L_facets)
    for field, p in ORACLE_FIELDS:
        expected = dense_relative_betti(facets, L_facets, p)
        assert relative_betti(K, L, field).as_dict(0, K.dim) == expected


def test_torsion_reduced_and_relative_match_oracle():
    # RP^2 has 2-torsion in H_1, so GF(2) and Q give different numbers for
    # it and for the pair (RP^2, an edge)
    facets = sorted(generate("rp2_6").complex.facets)
    edge = [list(facets[0][:2])]
    K, L = from_facets(facets), from_facets(edge)
    results = {}
    for field, p in ORACLE_FIELDS:
        assert reduced_betti(K, field).as_dict(-1, 2) == dense_reduced_betti(facets, p)
        results[p] = relative_betti(K, L, field).as_dict(0, 2)
        assert results[p] == dense_relative_betti(facets, edge, p)
    assert results[2] == {0: 0, 1: 1, 2: 1} and results[None] == {0: 0, 1: 0, 2: 0}


def _sparse(rows):
    entries = tuple(
        (r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v
    )
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0, entries)


def _matrices(elements):
    return st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), max_size=6)
    )


@settings(max_examples=80, deadline=None)
@given(_matrices(st.integers(-3, 3)))
def test_field_rank_matches_oracle_on_integer_matrices(rows):
    M = _sparse(rows)
    for p in (2, 3, 5):
        assert field_rank(M, FieldSpec(p)) == dense_rank(rows, p)
    assert field_rank(M, QQ) == dense_rank(rows)


@settings(max_examples=80, deadline=None)
@given(_matrices(st.fractions(-3, 3, max_denominator=4)))
def test_field_rank_matches_oracle_on_fraction_matrices(rows):
    assert field_rank(_sparse(rows), QQ) == dense_rank(rows)


def test_field_rank_reads_fraction_entries_mod_p():
    half = _sparse([[Fraction(1, 2)]])
    assert field_rank(half, GF3) == 1  # 1/2 is 2 mod 3
    with pytest.raises(ValueError, match="1/2 has no value mod 2"):
        field_rank(half, GF2)
    # determinant -3/2: rank 2 over Q, 1 over GF(3)
    M = _sparse([[Fraction(1, 2), 1], [2, 1]])
    assert (field_rank(M, QQ), field_rank(M, GF3), field_rank(M, GF5)) == (2, 1, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_rank_matches_oracle_on_fractions_mod_p(p, data):
    denominators = st.sampled_from([d for d in range(1, 8) if d % p])
    rows = data.draw(_matrices(st.builds(Fraction, st.integers(-4, 4), denominators)))
    # a/b mod p is a * b^(p-2) mod p (Fermat)
    reduced = [[x.numerator * pow(x.denominator, p - 2, p) % p for x in row] for row in rows]
    assert field_rank(_sparse(rows), FieldSpec(p)) == dense_rank(reduced, p)

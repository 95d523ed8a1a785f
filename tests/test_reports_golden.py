"""Checker reports pinned byte for byte.

`tests/data/reports_golden.json` holds `CheckReport.as_dict()` for every
theorem id on a small catalog corpus with seeded colourings (the right
class count and one too few), `check_meshulam` per field, duality audits
and the error messages of rejected inputs.  Any change to a verdict, its
order, id, status or detail, or to an error message shows up here.

Regenerate (only when a report change is intended) with

    PYTHONPATH=src python tests/test_reports_golden.py
"""

import itertools
import json
from pathlib import Path

from rainbowcheck import (
    GF2,
    QQ,
    Coloring,
    SimplicialComplex,
    alexander_duality_audit,
    check_meshulam,
    check_theorem,
)
from rainbowcheck.chromatic import THEOREM_IDS
from rainbowcheck.generators import generate, random_coloring

GOLDEN = Path(__file__).parent / "data" / "reports_golden.json"

CORPUS = [
    "simplex_boundary(2)",
    "simplex_boundary(3)",
    "simplex_boundary(4)",
    "simplex(2)",
    "simplex(3)",
    "torus7",
    "rp2_6",
    "cycle(5)",
]
SEEDS = range(3)
FIELDS = [QQ, GF2]
TETRA = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]


def _outcome(call):
    try:
        return {"report": call().as_dict()}
    except ValueError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _instances():
    """(key, complex, colouring) for the corpus and the hand-made cases."""
    for name in CORPUS:
        K = generate(name).complex
        for seed in SEEDS:
            yield f"{name}|classes={K.dim + 1}|seed={seed}", K, random_coloring(K, K.dim + 1, seed)
        if K.dim >= 1:
            yield f"{name}|classes={K.dim}|seed=0", K, random_coloring(K, K.dim, 0)
    sphere2 = SimplicialComplex(TETRA)
    yield "tetra|empty class", sphere2, Coloring([["a"], [], ["b", "c", "d"]])
    yield "tetra|uncoloured d", sphere2, Coloring([["a"], ["b"], ["c"]])
    disk = SimplicialComplex([["a", "b", "c"], ["b", "c", "d"]])
    yield "disk", disk, Coloring([["a"], ["b", "d"], ["c"]])
    impure = SimplicialComplex([["a", "b", "c"], ["c", "d"]])
    yield "triangle with pendant edge", impure, Coloring([["a", "d"], ["b"], ["c"]])
    # A 2-sphere beside a 3- or 4-simplex: b~_2 != 0, a class that is not
    # acyclic and two classes with no edge between them.
    sphere_faces = list(itertools.combinations(range(4), 3))
    K3 = SimplicialComplex(sphere_faces + [range(4, 8)])
    yield "2-sphere + 3-simplex", K3, Coloring([range(4), [4], [5], [6, 7]])
    K4 = SimplicialComplex(sphere_faces + [range(4, 9)])
    yield "2-sphere + 4-simplex", K4, Coloring([range(4), [4], [5], [6], [7, 8]])


def golden_reports():
    out = {}
    for key, K, C in _instances():
        for theorem in THEOREM_IDS:
            if theorem == "meshulam":
                for F in FIELDS:
                    out[f"{key}|meshulam|{F}"] = _outcome(lambda: check_meshulam(K, C, F))
            else:
                name = f"{key}|{theorem}|Q,GF(2)"
                out[name] = _outcome(lambda: check_theorem(K, C, theorem, FIELDS))
    sphere2 = SimplicialComplex(TETRA)
    C = Coloring([["a"], ["b"], ["c", "d"]])
    out["errors|unknown theorem"] = _outcome(lambda: check_theorem(sphere2, C, "nonsense", FIELDS))
    out["errors|no fields"] = _outcome(lambda: check_theorem(sphere2, C, "sphere", []))
    for n in (2, 3):
        K = generate(f"simplex_boundary({n})").complex
        for seed in SEEDS:
            C = random_coloring(K, n + 1, seed)
            for F in FIELDS:
                out[f"audit|simplex_boundary({n})|seed={seed}|{F}"] = _outcome(
                    lambda: alexander_duality_audit(K, C, F)
                )
    torus = generate("torus7").complex
    for key, K, C in [
        ("torus7", torus, random_coloring(torus, 3, 0)),
        ("two classes", sphere2, Coloring([["a"], ["b", "c", "d"]])),
        ("uncoloured d", sphere2, Coloring([["a"], ["b"], ["c"]])),
    ]:
        out[f"audit|{key}"] = _outcome(lambda: alexander_duality_audit(K, C, QQ))
    return out


def test_reports_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = json.loads(json.dumps(golden_reports()))
    assert list(actual) == list(expected)
    for key in expected:
        # dumps without sort_keys: key order inside each report is pinned too
        assert json.dumps(actual[key]) == json.dumps(expected[key]), key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in golden_reports().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")

"""Document encoders, the inverses of the ``*_from_doc`` readers.

Commands only read documents, so the encoders live with the tests that
round-trip them and that pin the shipped corpus to the worked models.
"""

from __future__ import annotations

from nashfol.algebroid import AlmostLieAlgebroid
from nashfol.nash import CurveGerm
from nashfol.poisson import Bivector
from nashfol.poly import MultiPoly


def poly_to_doc(p: MultiPoly) -> dict:
    """Term-list JSON form, terms in descending graded-lex order."""
    return {
        "vars": list(p.vars),
        "terms": [
            {"coeff": str(c), "exps": list(e)} for e, c in p.sorted_terms()
        ],
    }


def algebroid_to_doc(a) -> dict:
    bundle = a.bundle if isinstance(a, AlmostLieAlgebroid) else a
    doc = {
        "vars": list(bundle.base_vars),
        "rank": bundle.fiber_rank,
        "anchor": [[str(e) for e in row] for row in bundle.anchor],
    }
    if isinstance(a, AlmostLieAlgebroid):
        doc["brackets"] = {
            f"{i},{j}": [str(p) for p in section]
            for (i, j), section in sorted(a.structure.items())
        }
    return doc


def bivector_to_doc(pi: Bivector) -> dict:
    d = pi.dim
    entries = {}
    for i in range(d):
        for j in range(i + 1, d):
            if not pi.matrix[i][j].is_zero():
                entries[f"{i},{j}"] = str(pi.matrix[i][j])
    return {"vars": list(pi.vars), "pi": entries}


def curve_to_doc(curve: CurveGerm) -> dict:
    return {
        "target": [str(c) for c in curve.target],
        "components": [str(p) for p in curve.components],
    }

"""The one JSON encoding of report values.

Real arrays become nested lists, complex arrays the {"re", "im"} pair
that problem files accept, complex scalars [re, im] and numpy scalars
Python scalars; base points become their coordinate list and solution
frames {"L1", "L2"}.  Report dataclasses encode every field this way.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .base_flow import BasePoint


def jsonable(x):
    """x with every value replaced by its JSON form (see the module
    docstring); values JSON already takes pass through."""
    if isinstance(x, np.generic):
        x = x.item()
    if x is None or isinstance(x, (str, bool, int, float)):
        return x
    if isinstance(x, Encodable):
        return x.to_dict()
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            return {"re": x.real.tolist(), "im": x.imag.tolist()}
        return x.tolist()
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, BasePoint):
        return list(x.coordinates)
    # propagator imports hamiltonian, which imports this module
    from .propagator import SolutionFrame
    if isinstance(x, SolutionFrame):
        return {"L1": jsonable(x.L1), "L2": jsonable(x.L2)}
    return x


class Encodable:
    """Base of the report dataclasses: to_dict encodes every field with
    ``jsonable``."""

    def to_dict(self) -> dict:
        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

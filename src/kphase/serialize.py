"""JSON wire helpers shared by the library and the command line.

Complex matrices travel as nested row-major lists of two-element
``[real, imag]`` pairs, so every payload is plain JSON with no custom types.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .manifolds import Family, ManifoldSpec


def matrix_to_json(m) -> list:
    """Encode a complex matrix as nested [real, imag] pairs, row-major."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionMismatch("only scalars, vectors, and matrices encode")
    return _pairs_json(arr)


def _pairs_json(arr: np.ndarray) -> list:
    """A complex array of any rank as nested lists whose innermost level
    is ``[real, imag]`` pairs of Python floats, signed zeros kept, in one
    conversion: a stack of matrices gives one :func:`matrix_to_json`
    list per matrix."""
    return np.stack((arr.real, arr.imag), -1).tolist()


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _pairs(data, ndim: int, message: str) -> np.ndarray:
    """Nested lists ``ndim`` deep, the last level ``[real, imag]`` pairs of
    JSON numbers, as a float array.  numpy would read a string or a bool
    as a number, so either raises ``ValueError``."""
    arr = np.asarray(data, dtype=object)
    if arr.ndim != ndim or arr.shape[-1] != 2:
        raise DimensionMismatch(message)
    if not all(_is_number(x) for x in arr.flat):
        raise ValueError(f"{message}; every entry must be a JSON number")
    return arr.astype(float)


def matrix_from_json(data) -> np.ndarray:
    """Decode nested [real, imag] pairs back into a complex matrix."""
    arr = _pairs(data, 3, "matrix JSON must be rows of [real, imag] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def vector_to_json(v) -> list:
    """Encode a complex vector as a flat list of [real, imag] pairs."""
    return _pairs_json(np.asarray(v, dtype=complex).reshape(-1))


def vector_from_json(data) -> np.ndarray:
    """Decode a flat list of [real, imag] pairs into a complex vector."""
    arr = _pairs(data, 2, "vector JSON must be [real, imag] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def spec_to_json(spec: ManifoldSpec) -> dict:
    """Encode a manifold spec as {family, p, q, compact}."""
    return {
        "family": spec.family.value,
        "p": spec.p,
        "q": spec.q,
        "compact": spec.compact,
    }


def _integer(config: dict, key: str, default: int, least: int) -> int:
    """An integer config entry of at least ``least``; a float must be
    integral."""
    value = config.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < least:
        raise ValueError(f"{key!r} must be an integer of at least {least}, "
                         f"got {value!r}")
    return value


def spec_from_json(data: dict) -> ManifoldSpec:
    """Decode {family, p, q, compact}; q and compact default to 1 and true.

    ``family`` is required.  ``p`` and ``q`` must be integers (an integral
    float is accepted) and ``compact`` a boolean; anything else raises
    ``ValueError``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"'manifold' must be a JSON object, got {data!r}")
    if "family" not in data:
        raise ValueError("'manifold' is missing its required entry 'family'")
    compact = data.get("compact", True)
    if type(compact) is not bool:
        raise ValueError(f"'compact' must be true or false, got {compact!r}")
    return ManifoldSpec(
        family=Family(data["family"]),
        p=_integer(data, "p", None, 1),
        q=_integer(data, "q", 1, 1),
        compact=compact,
    )

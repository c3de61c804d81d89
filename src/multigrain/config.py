"""Config fields that declare their type and bounds beside their default.
Every field of `EncoderConfig`, `TrainConfig`, `PreprocessConfig` and
`CorpusSpec` is annotated `int` or `float` and made by `bounded`; each
`__post_init__` calls `check_fields`, then checks the rules that span fields.
"""

from __future__ import annotations

import math
from dataclasses import field, fields

_TYPES = {"int": int, "float": (int, float)}


def bounded(default, lo, hi=math.inf, below=math.inf):
    """A config field whose values lie in [lo, hi] and below `below`."""
    return field(default=default, metadata={"min": lo, "max": hi, "below": below})


def check_fields(config) -> None:
    """Refuse, with a ValueError naming the key, the value and the bound,
    any field whose value breaks its declaration: an `int` field takes an
    int that is not a bool, a `float` field a finite int or float, and
    either lies within its bounds. Nothing is converted, so the config,
    and all that is written from it, holds the values as given."""
    for f in fields(config):
        value, kind = getattr(config, f.name), f.type  # the string "int" or "float"
        if (isinstance(value, bool) or not isinstance(value, _TYPES[kind])
                or isinstance(value, float) and not math.isfinite(value)):
            raise ValueError(f"{f.name} must be {'an int' if kind == 'int' else 'a finite number'}, "
                             f"not {value!r}")
        lo, hi, below = f.metadata["min"], f.metadata["max"], f.metadata["below"]
        if not lo <= value <= hi or value >= below:
            top = f"{hi}]" if hi < below else f"{below})"
            raise ValueError(f"{f.name} = {value!r} lies outside [{lo}, {top}")

"""An iterative JSON writer for values nested deeper than Python's json
encoder allows: the encoder recurses once per level of nesting, so the
decomposition tree of a long path (P1000) exceeds the recursion limit.
:func:`qblock.formats.json_line` loads this module only for such values.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote


def json_text(value: object) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, separators=(",", ":"))``
    writes it, for str-keyed dicts, lists, tuples, str, int, float, bool and
    None, with an explicit stack: no recursion limit bounds the nesting."""
    out: list[str] = []
    stack = [_pending(value)]  # text to write next (str) or a container to open
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            out.append(v)
            continue
        if isinstance(v, dict):
            keys = sorted(v)
            heads, items = [_quote(k) + ":" for k in keys], [v[k] for k in keys]
            out.append("{")
            stack.append("}")
        else:
            heads, items = [""] * len(v), v
            out.append("[")
            stack.append("]")
        for i in range(len(items) - 1, -1, -1):
            stack.append(_pending(items[i]))
            stack.append("," + heads[i] if i else heads[i])
    return "".join(out)


def _pending(v: object) -> object:
    """A container as it is, any other value as its JSON text."""
    if isinstance(v, (dict, list, tuple)):
        return v
    if isinstance(v, str):
        return _quote(v)
    if v is None or isinstance(v, (bool, float)):
        return json.dumps(v)
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

"""Text formats: graph files, divisor strings, orientation strings and
morphism JSON files."""

from __future__ import annotations

import json
import os

from .errors import ParseError, RigidliftError, ValidationError
from .divisor import Divisor
from .multigraph import build_graph


def parse_graph(text, name="<string>"):
    """Parse the graph text format: `edge <id> <tail> <head>` lines plus one
    `base <edge-id>` line; `#` starts a comment."""
    edges = []
    base = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "edge":
            if len(tokens) != 4:
                raise ParseError(
                    f"{name}, line {lineno}: expected `edge <id> <tail> <head>`"
                )
            edges.append((tokens[1], tokens[2], tokens[3]))
        elif tokens[0] == "base":
            if len(tokens) != 2:
                raise ParseError(f"{name}, line {lineno}: expected `base <edge-id>`")
            if base is not None:
                raise ParseError(f"{name}, line {lineno}: duplicate base line")
            base = tokens[1]
        else:
            raise ParseError(
                f"{name}, line {lineno}: unknown record {tokens[0]!r}"
            )
    if base is None:
        raise ParseError(f"{name}: missing base line")
    try:
        return build_graph(edges, base)
    except RigidliftError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def _read(path):
    """The text of an input file; one not valid UTF-8 is a ParseError naming it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        name = os.path.basename(path)
        raise ParseError(f"{name}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc


def _read_json(path):
    """The JSON value of an input file."""
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{os.path.basename(path)}: invalid JSON: {exc}") from exc


def load_graph(path):
    return parse_graph(_read(path), name=os.path.basename(path))


def parse_divisor(g, text):
    """Parse `div <vertex>:<int> ...` (the leading `div` may be omitted)."""
    tokens = text.split()
    if tokens and tokens[0] == "div":
        tokens = tokens[1:]
    coeffs = {}
    for tok in tokens:
        if ":" not in tok:
            raise ParseError(f"bad divisor token {tok!r}; expected <vertex>:<int>")
        v, _, c = tok.rpartition(":")
        if v not in g.vertices:
            raise ValidationError(f"vertex {v!r} not in graph")
        try:
            coeffs[v] = coeffs.get(v, 0) + int(c)
        except ValueError as exc:
            raise ParseError(f"bad coefficient in token {tok!r}") from exc
    return Divisor(g, coeffs)


def format_divisor(d):
    if not d.items():
        return "div"
    return "div " + " ".join(f"{v}:{c}" for v, c in d.items())


def parse_orientation(g, text):
    """Parse `orient <edge>:<F|B|U|X> ...` (leading `orient` optional)."""
    from .orientation import EdgeState, PartialOrientation

    tokens = text.split()
    if tokens and tokens[0] == "orient":
        tokens = tokens[1:]
    states = {}
    for tok in tokens:
        if ":" not in tok:
            raise ParseError(f"bad orientation token {tok!r}; expected <edge>:<F|B|U|X>")
        e, _, s = tok.rpartition(":")
        if not g.has_edge(e):
            raise ValidationError(f"edge {e!r} not in graph")
        try:
            states[e] = EdgeState(s)
        except ValueError as exc:
            raise ParseError(f"bad state in token {tok!r}") from exc
    return PartialOrientation(g, states)


def format_orientation(u):
    body = " ".join(f"{e}:{u.state(e).value}" for e in u.graph.edge_ids)
    return f"orient {body}"


def parse_edge_map(g, h, data):
    """An edge map read from JSON: an object pairing every source edge id
    with a distinct target edge id."""
    if not isinstance(data, dict) or not all(
        isinstance(s, str) and isinstance(t, str) for s, t in data.items()
    ):
        raise ParseError("edge_map must be a JSON object of edge id strings")
    if set(data) != set(g.edge_ids) or sorted(data.values()) != sorted(h.edge_ids):
        raise ValidationError("edge_map is not a bijection between the edge sets")
    return data


def _parse_edge_map_of(g, h, data, name):
    """parse_edge_map on the edge map of the file `name`, whose faults then
    start with that name."""
    try:
        return parse_edge_map(g, h, data)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def load_morphism(path):
    """Load a morphism JSON file; graph paths resolve relative to the file."""
    name = os.path.basename(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{name}: expected a JSON object")
    for key in ("source", "target", "edge_map"):
        if key not in data:
            raise ParseError(f"{name}: missing key {key!r}")
    for key in ("source", "target"):
        if not isinstance(data[key], str):
            raise ParseError(f"{name}: {key!r} must be a path string")
    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    g = load_graph(resolve(data["source"]))
    h = load_graph(resolve(data["target"]))
    return g, h, _parse_edge_map_of(g, h, data["edge_map"], name)


def load_edge_map(g, h, path):
    """Load an edge map JSON file: the map itself, or an object whose
    `edge_map` key holds it (so a morphism file also serves)."""
    data = _read_json(path)
    if isinstance(data, dict):
        data = data.get("edge_map", data)
    return _parse_edge_map_of(g, h, data, os.path.basename(path))


def fixture_path(name):
    """Path to a fixture graph shipped with the package."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", name)


def load_fixture(name):
    return load_graph(fixture_path(name))

"""Data model for finite combinatorial presentations.

A presentation names finitely many indecomposables (each standing for a
whole shift orbit), lists distinguished triangles whose vertices are formal
sums of indecomposables, and optionally carries a tensor table. A triangle
vertex is the one multiset kept (``ObjectExpr``), since ``check`` prints it
with its repeats; the empty multiset is the zero object. A thick subset is
closed under summands, so a product enters only through its components:
the tensor table holds the component mask of each product and of the unit.

Presentations built by :func:`parse_presentation` or :func:`builtin` are
fully validated; direct construction trusts the caller.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, reduce
from itertools import repeat
from operator import or_

from ._value import Value
from .bitsets import joins, mask_of, pick
from .errors import InvalidParameter, SchemaError, UnknownFamily, ValidationError

ObjectExpr = tuple[int, ...]
# per element, the rules (rest, p, q) its arrival can fire: once ``rest`` is
# in, holding p forces q in and holding q forces p
RuleTable = tuple[tuple[tuple[int, int, int], ...], ...]

NAME_SEPARATOR = "|"  # joins tensor table keys, so it is banned inside names


def make_expr(indices: Iterable[int]) -> ObjectExpr:
    """Normalize a multiset of indices: sorted, repeats kept."""
    return tuple(sorted(indices))


class Triangle(Value):
    """One distinguished triangle; its rotations hold too and are not stored."""

    a: ObjectExpr
    b: ObjectExpr
    c: ObjectExpr

    def __init__(self, a: ObjectExpr, b: ObjectExpr, c: ObjectExpr) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


class TensorTable(Value):
    """Total multiplication table over ordered pairs of indecomposables, as
    component masks: ``unit`` holds the unit's components, and
    ``table[x][y]`` those of x*y.

    The unit may be decomposable. Symmetry is validated where tables are
    built (parsing, builtins), never assumed.
    """

    unit: int
    table: tuple[tuple[int, ...], ...]

    def __init__(self, unit: int, table: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "table", table)


class Presentation(Value):
    """Immutable presentation: unique names, triangles, optional tensor."""

    names: tuple[str, ...]
    triangles: tuple[Triangle, ...]
    tensor: TensorTable | None

    def __init__(self, names: tuple[str, ...], triangles: tuple[Triangle, ...],
                 tensor: TensorTable | None = None) -> None:
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "tensor", tensor)

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.names)) - 1

    @cached_property
    def triangle_masks(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((mask_of(t.a), mask_of(t.b), mask_of(t.c)) for t in self.triangles)

    @cached_property
    def vertex_slots(self) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
        """Where a support datum finds the supports of the triangle vertices.
        The slots are the indecomposables followed by the distinct vertices
        of any other component count (sums, and the zero object); this gives
        those vertices' component masks, and each triangle's three slots."""
        others: dict[int, int] = {}

        def slot(vertex: int) -> int:
            if vertex and not vertex & (vertex - 1):
                return vertex.bit_length() - 1
            return self.size + others.setdefault(vertex, len(others))

        slots = tuple([tuple(map(slot, masks)) for masks in self.triangle_masks])
        return tuple(others), slots

    @cached_property
    def rules(self) -> RuleTable:
        """The triangle rules: for every triangle vertex holding e,
        ``rules[e]`` has (rest of that vertex without e, other vertex,
        other vertex)."""
        rules: list[list[tuple[int, int, int]]] = [[] for _ in self.names]
        for ma, mb, mc in self.triangle_masks:
            for vertex, p, q in ((ma, mb, mc), (mb, mc, ma), (mc, ma, mb)):
                for e in pick(range(self.size), vertex):
                    rules[e].append((vertex & ~(1 << e), p, q))
        return tuple(map(tuple, rules))

    @cached_property
    def ideal_rules(self) -> RuleTable:
        """``rules`` plus, per element e, the absorption rule (0, 0, the
        components of every g*e), which fires as soon as e arrives."""
        return tuple(r + ((0, 0, reduce(or_, column, 0)),)
                     for r, column in zip(self.rules, zip(*self.tensor.table)))

    @cached_property
    def forced(self) -> int:
        """What degenerate triangles, with two or three zero-object
        vertices, put into every closed set."""
        return reduce(or_, (vertex for ma, mb, mc in self.triangle_masks
                            for vertex, p, q in ((ma, mb, mc), (mb, mc, ma), (mc, ma, mb))
                            if not p and not q), 0)

    @cached_property
    def blocks(self) -> tuple[int, ...]:
        """Masks of the connected components that the triangles make, by
        lowest element: a triangle joins the elements of its three vertices,
        and an element in no triangle is a block of its own. A degenerate
        triangle's forced elements lie in its block."""
        found: list[int] = []
        for ma, mb, mc in self.triangle_masks:
            joined = ma | mb | mc
            if joined:
                met = [b for b in found if b & joined]
                found = [b for b in found if not b & joined]
                found.append(reduce(or_, met, joined))
        free = self.full_mask & ~reduce(or_, found, 0)
        found += [1 << i for i in pick(range(self.size), free)]
        return tuple(sorted(found, key=lambda b: b & -b))

    def label(self, mask: int) -> str:
        """Brace-joined member names of a subset mask, in index order."""
        return next(self.labels((mask,)))

    def labels(self, masks: Iterable[int]) -> Iterator[str]:
        """``label`` of each mask, lazily, its names joined by ``joins``."""
        return map("{{{}}}".format, joins(self.names, tuple(masks), ","))


# --------------------------------------------------------------------------
# Document format


def parse_presentation(text: str) -> Presentation:
    """Parse the canonical JSON document into a validated Presentation."""
    return presentation_from_document(_decode_json(text, "presentation"))


def presentation_from_document(doc: object) -> Presentation:
    _require_keys(doc, {"indecomposables", "triangles", "tensor"},
                  {"indecomposables", "triangles"}, "presentation")
    names = _parse_names(doc["indecomposables"], "indecomposables")
    for name in names:
        if NAME_SEPARATOR in name:
            raise ValidationError(
                f"indecomposables: name {name!r} contains the reserved {NAME_SEPARATOR!r}")
    _check_labels_decodable(names)
    index = {name: i for i, name in enumerate(names)}
    raw_triangles = doc["triangles"]
    if not isinstance(raw_triangles, list):
        raise SchemaError("triangles must be a list")
    triangles = []
    for pos, raw in enumerate(raw_triangles):
        if not isinstance(raw, list) or len(raw) != 3:
            raise SchemaError(f"triangle {pos}: expected three object expressions")
        a, b, c = (make_expr(_members(v, index, f"triangle {pos}")) for v in raw)
        triangles.append(Triangle(a, b, c))
    tensor = None
    if doc.get("tensor") is not None:
        tensor = _parse_tensor(doc["tensor"], names, index)
    return Presentation(names, tuple(triangles), tensor)


# The readers below serve every document: presentations here, support data
# and morphisms in ``space``, and the files the CLI reads.


def _decode_json(text: str, where: str) -> object:
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        # json.loads alone keeps the last of two equal keys without a word
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise SchemaError(f"{where}: repeated key {key!r}")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    # ValueError also covers over-long integers; RecursionError, deep nesting
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{where}: invalid JSON: {exc}") from exc


def _require_keys(doc: object, allowed: set, required: set, where: str) -> None:
    """A JSON object with no key outside ``allowed`` and every key of
    ``required``; the shape of its values is the caller's to check."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be a JSON object")
    extra = set(doc) - allowed
    if extra:
        raise SchemaError(f"{where}: unexpected keys {sorted(extra)}")
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def _values(raw: object, keys: Sequence[str], where: str) -> list:
    """The values of a JSON object that names every key of ``keys`` and no
    other, in the order of ``keys``."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{where} must be a JSON object")
    known = set(keys)
    for key in raw:
        if key not in known:
            raise ValidationError(f"{where}: unknown key {key!r}")
    for key in keys:
        if key not in raw:
            raise ValidationError(f"{where}: missing key {key!r}")
    return [raw[key] for key in keys]


def _is_name_list(raw: object) -> bool:
    return isinstance(raw, list) and all(map(isinstance, raw, repeat(str)))


def _parse_names(raw: object, where: str) -> tuple[str, ...]:
    """A list of distinct non-empty names that UTF-8 can spell, each on one
    line: JSON can write a lone surrogate, UTF-8 output cannot, and the text
    outputs print one subset or point per line."""
    if not _is_name_list(raw):
        raise SchemaError(f"{where} must be a list of strings")
    seen = set()
    for name in raw:
        if not name:
            raise ValidationError(f"{where}: names must be non-empty")
        if name.splitlines() != [name]:
            raise ValidationError(f"{where}: name {name!r} holds a line break")
        try:
            name.encode()
        except UnicodeEncodeError:
            raise ValidationError(f"{where}: name {name!r} is not valid UTF-8") from None
        if name in seen:
            raise ValidationError(f"{where}: duplicate name {name!r}")
        seen.add(name)
    return tuple(raw)


def _check_labels_decodable(names: tuple[str, ...]) -> None:
    """Reject names under which two subsets could share a label.

    A label's inner text followed by "," spells the words name + "," of
    its members in index order. The Sardinas-Patterson test (1953) decides
    whether those words are uniquely decodable, so that every text parses
    one way; then labels are injective. The test ignores index order, so it
    also rejects some names whose labels all differ, such as x, y and y,x.
    """
    ordered = sorted(name + "," for name in names)
    if not any(map(str.startswith, ordered[1:], ordered)):
        return  # a word that prefixes any other prefixes its successor here
    words = set(ordered)
    lengths = sorted(set(map(len, ordered)))
    # A state (w, k) stands for the text w[k:] and two parses, the longer
    # spelling the shorter followed by that text; k > 0 makes it a dangling
    # suffix, and (w, 0) starts from the parses (w) and (). States are kept
    # as positions, not texts, so memory stays linear in the names; each
    # records the step that reached it, and the two parses are rebuilt only
    # to name them in the error.
    came: dict = dict.fromkeys((w, 0) for w in ordered)
    todo = list(came)
    while todo:
        state = todo.pop()
        w, k = state
        text = w[k:]
        if k and text in words:
            longer, shorter = _parses(came, state)
            first, second = ([v[:-1] for v in p] for p in (longer, shorter + [text]))
            raise ValidationError(
                f"indecomposables: names {', '.join(map(repr, first))} and "
                f"{', '.join(map(repr, second))} both join to {','.join(first)!r}, "
                "so subset labels could clash")
        # the shorter parse takes one more word: a word the text starts with
        # keeps it the shorter, a word that starts with the text makes it
        # the longer
        steps = [((w, k + m), text[:m], False) for m in lengths[:bisect_left(lengths, len(text))]
                 if text[:m] in words]
        i = bisect_right(ordered, text)
        while i < len(ordered) and ordered[i].startswith(text):
            steps.append(((ordered[i], len(text)), ordered[i], True))
            i += 1
        for nxt, word, flip in steps:
            if nxt not in came:
                came[nxt] = (state, word, flip)
                todo.append(nxt)


def _parses(came: dict, state: tuple[str, int]) -> tuple[list[str], list[str]]:
    """The longer and shorter parse that ``came`` records for ``state``."""
    steps = []
    while came[state] is not None:
        state, word, flip = came[state]
        steps.append((word, flip))
    longer, shorter = [state[0]], []
    for word, flip in reversed(steps):
        shorter.append(word)
        if flip:
            longer, shorter = shorter, longer
    return longer, shorter


def _members(raw: object, index: dict[str, int], where: str) -> list[int]:
    """Indices of a list of names, each one a key of ``index``."""
    if not _is_name_list(raw):
        raise SchemaError(f"{where}: expected a list of names")
    try:
        return [index[name] for name in raw]
    except KeyError as exc:
        raise ValidationError(f"{where}: unknown name {exc.args[0]!r}") from None


def _parse_tensor(raw: object, names: tuple[str, ...], index: dict[str, int]) -> TensorTable:
    _require_keys(raw, {"unit", "table"}, {"unit", "table"}, "tensor")
    unit = mask_of(_members(raw["unit"], index, "tensor unit"))
    table = raw["table"]
    if isinstance(table, dict):
        for key in table:
            if not isinstance(key, str) or key.count(NAME_SEPARATOR) != 1:
                raise SchemaError(f"tensor table key {key!r} must look like 'A{NAME_SEPARATOR}B'")
    pairs = [f"{x}{NAME_SEPARATOR}{y}" for x in names for y in names]
    cells = [mask_of(_members(value, index, f"tensor table {key!r}"))
             for key, value in zip(pairs, _values(table, pairs, "tensor table"))]
    n = len(names)
    rows = tuple(tuple(cells[x * n:x * n + n]) for x in range(n))
    for x in range(n):
        for y in range(x + 1, n):
            if rows[x][y] != rows[y][x]:
                raise ValidationError(
                    f"tensor table is not symmetric at ({names[x]}, {names[y]})")
    return TensorTable(unit, rows)


# --------------------------------------------------------------------------
# Builtin families


def builtin(family: str, n: int | None = None) -> Presentation:
    """Construct a builtin example family.

    a2          three indecomposables P1, P2, S2 and the single triangle
                (P1, P2, S2); its closed-set lattice is the diamond.
    an(n)       intervals [i,j] over 0..n with one triangle per i < j < k:
                ([i,j], [i,k], [j,k]); closed sets match set partitions.
    point       one indecomposable k with k*k = k and unit k.
    product(n)  orthogonal idempotents e1..en, unit e1 + ... + en.
    """
    if family == "a2":
        _no_parameter(family, n)
        return Presentation(("P1", "P2", "S2"), (Triangle((0,), (1,), (2,)),))
    if family == "an":
        size = _require_parameter(family, n)
        pairs = [(i, j) for i in range(size + 1) for j in range(i + 1, size + 1)]
        index = {p: k for k, p in enumerate(pairs)}
        names = tuple(f"[{i},{j}]" for i, j in pairs)
        triangles = tuple(
            Triangle((index[(i, j)],), (index[(i, k)],), (index[(j, k)],))
            for i in range(size + 1)
            for j in range(i + 1, size + 1)
            for k in range(j + 1, size + 1)
        )
        return Presentation(names, triangles)
    if family == "point":
        _no_parameter(family, n)
        return Presentation(("k",), (), TensorTable(1, ((1,),)))
    if family == "product":
        size = _require_parameter(family, n)
        names = tuple(f"e{i + 1}" for i in range(size))
        table = tuple((0,) * x + (1 << x,) + (0,) * (size - 1 - x) for x in range(size))
        return Presentation(names, (), TensorTable((1 << size) - 1, table))
    raise UnknownFamily(f"unknown builtin family {family!r}")


def _require_parameter(family: str, n: int | None) -> int:
    if n is None or n < 1:
        raise InvalidParameter(f"family {family!r} needs a parameter n >= 1")
    return n


def _no_parameter(family: str, n: int | None) -> None:
    if n is not None:
        raise InvalidParameter(f"family {family!r} does not take a parameter")

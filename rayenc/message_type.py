"""The Parquet schema <-> Arrow layer: one place for logical types.

The reference layers one set of logical-type annotations over the physical
types (``LogicalTypeAnnotation.java:296-377``) and uses it for footer
conversion, for printing and for ``MessageTypeParser``. Here that is:

- ``PHYSICAL``: the physical types by thrift id;
- ``UNITS``: the TimeUnit union members (MILLIS/MICROS/NANOS);
- ``ANNOTATIONS``: annotation name <-> (LogicalType union member,
  ConvertedType), with DECIMAL, TIME, TIMESTAMP and INTEGER parameterised;
- ``_walk_schema`` / ``_node_field``: the one SchemaElement -> Arrow
  derivation, the type pyarrow derives (parquet-cpp ``arrow/schema.cc``);
- ``leaf_element``: the SchemaElement fields the writer stamps for an Arrow
  leaf, which that derivation inverts.

The text syntax is the reference's ``MessageTypeParser.java`` grammar:

    message <name> {
      required|optional|repeated group <name> [(ANNOTATION)] [= id] { ... }
      required|optional|repeated <primitive> <name> [(ANNOTATION)] [= id];
    }

Primitives: ``boolean int32 int64 int96 float double binary
fixed_len_byte_array(N)`` (``binary`` == BYTE_ARRAY).  Annotations accept
both the modern ``LogicalTypeAnnotation`` spellings (``STRING``,
``DECIMAL(p,s)``, ``TIMESTAMP(MICROS,true)``, ``INTEGER(8,false)``, ...)
and the legacy ``OriginalType`` names (``UTF8``, ``TIMESTAMP_MICROS``,
``UINT_8``, ...) like the reference parser does.

Elements are the numeric-keyed thrift dicts the footer parser produces
(SchemaElement fields: 1 type, 2 type_length, 3 repetition, 4 name,
5 num_children, 6 converted_type, 7 scale, 8 precision, 9 field_id,
10 logicalType), so ``format_message_type(parse_message_type(s)) == s``
round-trips and parsed elements slot into every schema consumer.
``message_type_to_arrow`` is the derivation over parsed text, the declared
write schema of ``cli encode --schema``.
"""

from __future__ import annotations

import re

import pyarrow as pa

from .schema import physical_type

# parquet.thrift Type enum, by id; the container calls BYTE_ARRAY "BINARY"
PHYSICAL = ("BOOLEAN", "INT32", "INT64", "INT96", "FLOAT", "DOUBLE",
            "BYTE_ARRAY", "FIXED_LEN_BYTE_ARRAY")
PHYSICAL_ID = {name: i for i, name in enumerate(PHYSICAL)} | {"BINARY": 6}
# TimeUnit union members 1, 2, 3: (annotation text, arrow unit)
UNITS = (("MILLIS", "ms"), ("MICROS", "us"), ("NANOS", "ns"))
# annotation -> (LogicalType union member, ConvertedType), None where that
# side has no spelling. TIME, TIMESTAMP and INTEGER own a run of
# ConvertedTypes from the one given: TIME_MILLIS/MICROS, TIMESTAMP_MILLIS/
# MICROS (UTC-adjusted only), then UINT_8..UINT_64, INT_8..INT_64
ANNOTATIONS = {
    "STRING": (1, 0), "MAP": (2, 1), "MAP_KEY_VALUE": (None, 2), "LIST": (3, 3),
    "ENUM": (4, 4), "DECIMAL": (5, 5), "DATE": (6, 6), "TIME": (7, 7),
    "TIMESTAMP": (8, 9), "INTEGER": (10, 11), "UNKNOWN": (11, None),
    "JSON": (12, 19), "BSON": (13, 20), "UUID": (14, None), "FLOAT16": (15, None),
    "VARIANT": (16, None), "GEOMETRY": (17, None), "GEOGRAPHY": (18, None),
    "INTERVAL": (None, 21),
}
_CT_RUN = {"TIME": 2, "TIMESTAMP": 2, "INTEGER": 8}
_BY_MEMBER = {lt: name for name, (lt, _) in ANNOTATIONS.items() if lt is not None}
_WIDTHS = (8, 16, 32, 64)
_REP_ID = {"required": 0, "optional": 1, "repeated": 2}
_REPETITION = {v: k for k, v in _REP_ID.items()}


def _text_type(pid: int) -> str:
    return "binary" if PHYSICAL[pid] == "BYTE_ARRAY" else PHYSICAL[pid].lower()


def _unit(d: dict) -> int:
    """Index into ``UNITS`` of a TIME/TIMESTAMP struct (MILLIS if absent)."""
    member = next(iter(d.get(2) or {1: {}}))
    return member - 1 if 1 <= member <= len(UNITS) else 0


# ------------------------------------------------------ annotations

def annotation(e: dict):
    """(name, params) of one SchemaElement's logical type, or None:
    LogicalType union preferred, legacy ConvertedType fallback. params are
    (precision, scale) for DECIMAL, (unit index, isAdjustedToUTC) for
    TIME/TIMESTAMP, (bit width, signed) for INTEGER, else ()."""
    lt = e.get(10)
    name = _BY_MEMBER.get(next(iter(lt))) if isinstance(lt, dict) and lt else None
    if name is not None:
        d = lt[ANNOTATIONS[name][0]]
        if name == "DECIMAL":
            return name, (d.get(2, 0), d.get(1, 0))
        if name in ("TIME", "TIMESTAMP"):
            return name, (_unit(d), bool(d.get(1)))
        if name == "INTEGER":
            return name, (d.get(1, 32), d.get(2, True) is not False)
        return name, ()
    ct = e.get(6)
    if ct is None:
        return None
    for name, (_, base) in ANNOTATIONS.items():
        if base is not None and base <= ct < base + _CT_RUN.get(name, 1):
            k = ct - base
            if name == "DECIMAL":
                return name, (e.get(8, 0), e.get(7, 0))
            if name == "INTEGER":
                return name, (_WIDTHS[k % 4], k >= 4)
            return name, ((k, True) if name in _CT_RUN else ())
    return None


def stamp(e: dict, name: str, params: tuple = ()) -> None:
    """Set one annotation on a SchemaElement: its LogicalType union member
    and the ConvertedType the table pairs with it (LogicalTypeAnnotation
    <-> ConvertedType; TIME and TIMESTAMP have one only when UTC-adjusted
    in MILLIS or MICROS)."""
    lt, ct = ANNOTATIONS[name]
    body: dict = {}
    if name == "DECIMAL":
        p, s = params
        body = {1: s, 2: p}
        e[7], e[8] = s, p
    elif name in ("TIME", "TIMESTAMP"):
        unit, utc = params
        body = {1: utc, 2: {unit + 1: {}}}
        ct = ct + unit if utc and unit < _CT_RUN[name] else None
    elif name == "INTEGER":
        width, signed = params
        body = {1: width, 2: signed}
        ct += _WIDTHS.index(width) + 4 * signed
    if lt is not None:
        e[10] = {lt: body}
    if ct is not None:
        e[6] = ct


def _annotation_text(e: dict) -> str:
    """' (STRING)' etc. for one SchemaElement: MessageType#toString /
    LogicalTypeAnnotation.toString rendering."""
    a = annotation(e)
    if a is None:
        return ""
    name, params = a
    if name in ("TIME", "TIMESTAMP", "INTEGER"):
        first, flag = params
        params = (UNITS[first][0] if name != "INTEGER" else first, str(flag).lower())
    return f" ({name}({','.join(map(str, params))}))" if params else f" ({name})"


def _apply_annotation(e: dict, name: str, args: list[str]) -> None:
    """Stamp one annotation as written in text, legacy spellings included."""
    up = name.upper()
    up = "STRING" if up == "UTF8" else up
    if m := re.fullmatch(r"(TIME|TIMESTAMP)_(MILLIS|MICROS)", up):
        up, args = m[1], [m[2], "true"]
    if m := re.fullmatch(r"(U?)INT_(8|16|32|64)", up):
        up, args = "INTEGER", [m[2], "false" if m[1] else "true"]
    if up not in ANNOTATIONS:
        raise ValueError(f"unknown annotation {name!r}")
    flag = args[1].lower() == "true" if len(args) > 1 else True
    if up == "DECIMAL":
        params = (int(args[0]), int(args[1]) if len(args) > 1 else 0) if args else (10, 0)
    elif up in ("TIME", "TIMESTAMP"):
        unit = args[0].upper() if args else "MILLIS"
        params = ([u for u, _ in UNITS].index(unit), flag)
    elif up == "INTEGER":
        params = (int(args[0]) if args else 32, flag)
    else:
        params = ()
    stamp(e, up, params)


# ------------------------------------------------------ text syntax

_TOKEN = re.compile(r"[{}();,=]|[^\s{}();,=]+")
_TEXT_ID = {_text_type(i): i for i in range(len(PHYSICAL))}


class _Parser:
    def __init__(self, text: str):
        self.toks = _TOKEN.findall(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ValueError("unexpected end of message type")
        self.pos += 1
        return t

    def expect(self, tok: str):
        t = self.next()
        if t != tok:
            raise ValueError(f"expected {tok!r}, got {t!r}")
        return t


def _parse_annotation(p: _Parser, e: dict) -> None:
    if p.peek() != "(":
        return
    p.next()
    name = p.next()
    args: list[str] = []
    if p.peek() == "(":
        p.next()
        while p.peek() != ")":
            t = p.next()
            if t != ",":
                args.append(t)
        p.expect(")")
    p.expect(")")
    _apply_annotation(e, name, args)


def _parse_field_id(p: _Parser, e: dict) -> None:
    if p.peek() == "=":
        p.next()
        e[9] = int(p.next())


def _parse_field(p: _Parser, elems: list) -> None:
    rep = p.next()
    if rep not in _REP_ID:
        raise ValueError(f"expected repetition, got {rep!r}")
    t = p.next()
    if t == "group":
        e = {3: _REP_ID[rep], 4: p.next(), 5: 0}
        _parse_annotation(p, e)
        _parse_field_id(p, e)
        elems.append(e)
        p.expect("{")
        while p.peek() != "}":
            _parse_field(p, elems)
            e[5] += 1
        p.expect("}")
        return
    if t not in _TEXT_ID:
        raise ValueError(f"unknown primitive type {t!r}")
    e = {1: _TEXT_ID[t], 3: _REP_ID[rep]}
    if t == "fixed_len_byte_array":
        p.expect("(")
        e[2] = int(p.next())
        p.expect(")")
    e[4] = p.next()
    _parse_annotation(p, e)
    _parse_field_id(p, e)
    p.expect(";")
    elems.append(e)


def parse_message_type(text: str) -> list:
    """Message-type text -> SchemaElement thrift-dict list (root first,
    depth-first — the footer layout ``format_message_type`` consumes)."""
    p = _Parser(text)
    p.expect("message")
    name = p.next()
    root = {4: name, 5: 0}
    elems = [root]
    p.expect("{")
    while p.peek() != "}":
        _parse_field(p, elems)
        root[5] += 1
    p.expect("}")
    if p.peek() is not None:
        raise ValueError(f"trailing tokens after message: {p.peek()!r}")
    return elems


def format_message_type(elems: list) -> str:
    """Footer SchemaElement list -> the parquet message-type text syntax
    (MessageTypeParser grammar; parquet-cli SchemaCommand's --parquet
    output)."""
    lines: list[str] = []
    pos = 1

    def walk(indent: int):
        nonlocal pos
        e = elems[pos]
        pos += 1
        pad = "  " * indent
        rep = _REPETITION.get(e.get(3, 0), "required")
        nchild = e.get(5, 0)
        if nchild:
            lines.append(f"{pad}{rep} group {_name(e)}{_annotation_text(e)} {{")
            for _ in range(nchild):
                walk(indent + 1)
            lines.append(f"{pad}}}")
            return
        t = _text_type(e[1])
        if t == "fixed_len_byte_array":
            t = f"fixed_len_byte_array({e.get(2, 0)})"
        lines.append(f"{pad}{rep} {t} {_name(e)}{_annotation_text(e)};")

    root = elems[0]
    lines.append(f"message {_name(root) or 'schema'} {{")
    for _ in range(root.get(5, 0)):
        walk(1)
    lines.append("}")
    return "\n".join(lines)


# ------------------------------------------------------ Arrow derivation

def _leaf_type(e: dict) -> pa.DataType:
    """Leaf SchemaElement -> the Arrow type pyarrow derives for it
    (parquet-cpp SchemaField conversion). ``schema.assemble``'s final cast
    turns the raw physical decode into this type."""
    ptype = PHYSICAL[e[1]]
    name, params = annotation(e) or (None, ())
    if name == "DECIMAL":
        return (pa.decimal128 if params[0] <= 38 else pa.decimal256)(*params)
    if name == "DATE":
        return pa.date32()
    if name == "TIME":
        unit = UNITS[params[0]][1]
        return pa.time32(unit) if unit == "ms" else pa.time64(unit)
    if name == "TIMESTAMP":
        return pa.timestamp(UNITS[params[0]][1], "UTC" if params[1] else None)
    if name == "INTEGER":
        return getattr(pa, f"{'' if params[1] else 'u'}int{params[0]}")()
    if name == "FLOAT16":
        return pa.float16()
    if name == "UNKNOWN":
        return pa.null()
    if ptype == "BYTE_ARRAY":
        return pa.string() if name == "STRING" else pa.binary()
    if ptype == "FIXED_LEN_BYTE_ARRAY":
        return pa.binary(e.get(2, 0))
    return {"BOOLEAN": pa.bool_(), "INT32": pa.int32(), "INT64": pa.int64(),
            "INT96": pa.timestamp("ns"), "FLOAT": pa.float32(),
            "DOUBLE": pa.float64()}[ptype]


class LeafInfo:
    """One Parquet leaf: its path, physical type and width, max levels and
    the Arrow type ``_leaf_type`` derives for it."""

    __slots__ = ("path", "ptype", "type_length", "max_rep", "max_def", "type")

    def __init__(self, path, ptype, type_length, max_rep, max_def, type):
        self.path = path
        self.ptype = ptype
        self.type_length = type_length
        self.max_rep = max_rep
        self.max_def = max_def
        self.type = type

    @property
    def dotted(self):
        return ".".join(self.path)


def _name(e: dict) -> str:
    n = e.get(4, "")
    return n.decode() if isinstance(n, bytes) else n


def _walk_schema(elems):
    """SchemaElement list -> (LeafInfo per leaf in depth-first order, one
    (element, children | None, LeafInfo | None) node per top-level field).
    repetition_type: 0 required, 1 optional, 2 repeated."""
    leaves = []
    pos = 1  # skip root

    def walk(path, max_rep, max_def):
        nonlocal pos
        e = elems[pos]
        pos += 1
        rep = e.get(3, 0)
        name = _name(e)
        max_def += rep != 0
        max_rep += rep == 2
        nchild = e.get(5, 0)
        if nchild:
            kids = [walk(path + [name], max_rep, max_def) for _ in range(nchild)]
            return e, kids, None
        leaf = LeafInfo(path + [name], PHYSICAL[e[1]], e.get(2, 0), max_rep,
                        max_def, _leaf_type(e))
        leaves.append(leaf)
        return e, None, leaf

    nodes = [walk([], 0, 0) for _ in range(elems[0].get(5, 0))]
    return leaves, nodes


def _node_field(node, element: bool = False) -> pa.Field:
    """One schema node -> the Arrow field pyarrow derives for it
    (parquet-cpp `arrow/schema.cc` rules): LIST- and MAP-annotated groups,
    legacy two-level lists (the parquet-format LogicalTypes.md
    backward-compatibility rules), and unannotated repeated nodes as lists
    of required elements. ``element`` reads a repeated node as the list
    element itself."""
    e, kids, leaf = node
    name = _name(e)
    if kids is None:
        t = leaf.type
    else:
        kind = (annotation(e) or ("",))[0]
        if kind == "LIST" and len(kids) == 1:
            rep_node = kids[0]
            lkids = rep_node[1]
            legacy = (
                lkids is None
                or len(lkids) > 1
                or _name(rep_node[0]) in ("array", name + "_tuple")
            )
            t = pa.list_(
                _node_field(rep_node, element=True) if legacy
                else _node_field(lkids[0])
            )
        elif kind in ("MAP", "MAP_KEY_VALUE") and len(kids) == 1 and len(kids[0][1] or ()) == 2:
            key, value = kids[0][1]  # MAP -> repeated key_value group
            t = pa.map_(_node_field(key), _node_field(value))
        else:
            t = pa.struct([_node_field(k) for k in kids])
    if element:
        return pa.field(name, t, False)
    if e.get(3, 0) == 2:
        return pa.field(name, pa.list_(pa.field(name, t, False)), False)
    return pa.field(name, t, e.get(3, 0) == 1)


def message_type_to_arrow(src: "str | list") -> pa.Schema:
    """Message-type text (or SchemaElement dicts) -> the Arrow schema the
    reader derives for a file with that schema and no ``ARROW:schema``."""
    elems = parse_message_type(src) if isinstance(src, str) else src
    return pa.schema([_node_field(n) for n in _walk_schema(elems)[1]])


# ------------------------------------------------------ Arrow -> elements

def _decimal_flba_len(precision: int) -> int:
    L = 1
    while 10 ** precision > 2 ** (8 * L - 1):
        L += 1
    return L


def leaf_element(t: pa.DataType) -> dict:
    """The SchemaElement fields rayenc writes for an Arrow leaf type:
    physical type, width and annotation, which ``_leaf_type`` derives back.
    Strings, decimals, dates and small or unsigned integers carry the
    legacy ConvertedType; timestamps, times and FLOAT16 the LogicalType
    only (ConvertedType alone implies UTC-adjusted). Times are stamped
    local (isAdjustedToUTC=false): pyarrow maps either flavor to
    time32/time64, but DuckDB maps true to TIMETZ and then rejects the
    column statistics, and the spec gives local TIME no ConvertedType.
    Plain binary stays unannotated: UTF8 on it would surface arbitrary
    payloads as strings in independent readers."""
    ptype = physical_type(t)
    e = {1: PHYSICAL_ID[ptype]}
    if ptype == "FIXED_LEN_BYTE_ARRAY":
        e[2] = _decimal_flba_len(t.precision) if pa.types.is_decimal(t) else t.byte_width
    if pa.types.is_decimal(t):
        kind, params, legacy = "DECIMAL", (t.precision, t.scale), True
    elif pa.types.is_string(t) or pa.types.is_large_string(t):
        kind, params, legacy = "STRING", (), True
    elif pa.types.is_date32(t):
        kind, params, legacy = "DATE", (), True
    elif pa.types.is_integer(t) and (t.bit_width < 32 or pa.types.is_unsigned_integer(t)):
        kind, params, legacy = "INTEGER", (t.bit_width, pa.types.is_signed_integer(t)), True
    elif pa.types.is_timestamp(t) or pa.types.is_time(t):
        kind = "TIMESTAMP" if pa.types.is_timestamp(t) else "TIME"
        unit = [a for _, a in UNITS].index(t.unit)
        params, legacy = (unit, kind == "TIMESTAMP" and t.tz is not None), False
    elif pa.types.is_float16(t):
        kind, params, legacy = "FLOAT16", (), False
    elif pa.types.is_null(t):
        kind, params, legacy = "UNKNOWN", (), False
    else:
        return e
    stamp(e, kind, params)
    e.pop(10 if legacy else 6, None)
    return e

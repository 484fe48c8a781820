"""Compound filter predicates — the reference's filter2 algebra.

Mirrors parquet-java's predicate tree (`parquet-column/.../filter2/predicate/
Operators.java:565` And, `:577` Or, `:589` Not, `:508` NotIn, plus
`UserDefinedPredicate`) as a small picklable expression algebra evaluated
three ways:

- ``mask(pred, table)``  — exact row-level evaluation via pyarrow.compute
  (SQL three-valued logic: Kleene and/or, nulls fail the filter);
- ``may_match(pred, granule_of)`` — sound pruning verdict for one granule
  from the per-column ``Granule`` records each surface builds from its
  metadata; ``leaf_may_match`` is the one veto, And=all, Or=any;
- ``row_ranges(pred, nrows, leaf_ranges)`` — the rows of a granule that
  page-level metadata cannot rule out (And intersects, Or unions);
  ``page_rows(leaf, pages)`` is the one page pruner both readers give it
  their leaf rows with, over one ``Granule`` per page (container manifest
  pages, Parquet ColumnIndex entries);
- ``two_phase_read(...)`` — the one filtered read of both file formats:
  the predicate columns over those rows, ``mask``, then every other column
  only at the matching rows (``select_pages`` maps them to pages);
- ``normalize(...)`` — accepts the legacy ``[(col, op, value), ...]``
  conjunction lists every rayenc surface used through round 3 and returns an
  NNF tree (Not pushed to the leaves, flipping operators the way
  `LogicalInverteRewriter` does in the reference), so pruning never has to
  reason about negation nodes.

Pruning soundness with nulls: a leaf verdict uses min/max of the granule's
NON-null values; null rows fail every comparison leaf (SQL semantics), so a
granule is safely skippable when no non-null value can match — including for
NotEq/NotIn, whose bounds rule is "prunable iff lo == hi == excluded value".

NaN semantics: comparisons follow IEEE (every comparison with NaN is false),
matching the reference — `LogicalInverseRewriter` rewrites not(ltEq(x)) to
gt(x), and Java primitive comparisons with NaN are false — and pyarrow's
compute kernels. This DIVERGES from SQL engines that totally order NaN as
the greatest value (DuckDB: `NOT (f <= x)` keeps NaN rows; here it drops
them, because the NNF leaf `f > x` is false for NaN). Filter NaN explicitly
(e.g. `is_nan` masks upstream) when SQL total-order behavior is needed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

_LEAF_OPS = {"==", "!=", "<", "<=", ">", ">=", "in", "not_in", "udp",
             "is_null", "not_null"}
_INVERSE = {
    "==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<",
    "in": "not_in", "not_in": "in", "is_null": "not_null",
    "not_null": "is_null",
}


@dataclass(frozen=True)
class Leaf:
    """One column comparison. ``op`` after normalize() is one of
    ==  !=  <  <=  >  >=  in  not_in  udp; for ``udp`` the value is a
    UserPredicate instance."""

    col: str
    op: str
    value: Any

    def __post_init__(self):
        if self.op not in _LEAF_OPS:
            raise ValueError(f"unknown predicate op {self.op!r}")
        if self.op in ("in", "not_in"):
            object.__setattr__(self, "value", tuple(self.value))


@dataclass(frozen=True)
class And:
    preds: tuple

    def __init__(self, *preds):
        if len(preds) == 1 and isinstance(preds[0], (list, tuple)):
            preds = tuple(preds[0])  # And([a, b]) == And(a, b)
        object.__setattr__(self, "preds", tuple(preds))


@dataclass(frozen=True)
class Or:
    preds: tuple

    def __init__(self, *preds):
        if len(preds) == 1 and isinstance(preds[0], (list, tuple)):
            preds = tuple(preds[0])  # Or([a, b]) == Or(a, b)
        object.__setattr__(self, "preds", tuple(preds))


@dataclass(frozen=True)
class Not:
    pred: Any


class UserPredicate:
    """`filter2/predicate/UserDefinedPredicate.java` analog. Subclass and
    override:

    - ``keep(array) -> bool mask``  (required; exact row evaluation)
    - ``can_drop(lo, hi) -> bool``  (optional; True when NO value in
      [lo, hi] can satisfy the predicate — enables granule pruning)
    - ``inverse_can_drop(lo, hi) -> bool`` (optional; True when EVERY value
      in [lo, hi] satisfies it — enables pruning under Not)
    """

    def keep(self, array):
        raise NotImplementedError

    def can_drop(self, lo, hi) -> bool:
        return False

    def inverse_can_drop(self, lo, hi) -> bool:
        return False


@dataclass(frozen=True)
class _InverseUdp(UserPredicate):
    """Not(udp) pushed to a leaf: swaps keep/can_drop polarity."""

    inner: UserPredicate

    def keep(self, array):
        import pyarrow.compute as pc

        return pc.invert(_as_bool_array(self.inner.keep(array)))

    def can_drop(self, lo, hi):
        return self.inner.inverse_can_drop(lo, hi)

    def inverse_can_drop(self, lo, hi):
        return self.inner.can_drop(lo, hi)


def _as_bool_array(m):
    import pyarrow as pa

    return m if isinstance(m, (pa.Array, pa.ChunkedArray)) else pa.array(m)


# Operator factories mirroring `filter2/predicate/FilterApi.java` names


def Eq(col, value):
    return Leaf(col, "==", value)


def NotEq(col, value):
    return Leaf(col, "!=", value)


def Lt(col, value):
    return Leaf(col, "<", value)


def LtEq(col, value):
    return Leaf(col, "<=", value)


def Gt(col, value):
    return Leaf(col, ">", value)


def GtEq(col, value):
    return Leaf(col, ">=", value)


def In(col, values):
    return Leaf(col, "in", values)


def NotIn(col, values):
    return Leaf(col, "not_in", values)


def Udp(col, user_predicate: UserPredicate):
    return Leaf(col, "udp", user_predicate)


def IsNull(col):
    """FilterApi eq(col, null) — matches exactly the null rows."""
    return Leaf(col, "is_null", None)


def NotNull(col):
    """FilterApi notEq(col, null) — matches exactly the non-null rows."""
    return Leaf(col, "not_null", None)


# ------------------------------------------------------------- normalization


def normalize(pred):
    """None | legacy [(col, op, value), ...] | tree -> NNF tree (or None)."""
    if pred is None:
        return None
    if isinstance(pred, (list, tuple)) and not isinstance(pred, Leaf):
        leaves = [Leaf(c, "in" if o == "in" else o, v) for c, o, v in pred]
        if not leaves:
            return None
        pred = And(*leaves) if len(leaves) > 1 else leaves[0]
    return _to_nnf(pred, False)


def _to_nnf(p, negate: bool):
    if isinstance(p, Not):
        return _to_nnf(p.pred, not negate)
    if isinstance(p, And):
        kids = [_to_nnf(k, negate) for k in p.preds]
        return Or(*kids) if negate else And(*kids)
    if isinstance(p, Or):
        kids = [_to_nnf(k, negate) for k in p.preds]
        return And(*kids) if negate else Or(*kids)
    if isinstance(p, Leaf):
        if not negate:
            return p
        if p.op == "udp":
            return Leaf(p.col, "udp", _InverseUdp(p.value))
        return Leaf(p.col, _INVERSE[p.op], p.value)
    raise TypeError(f"not a predicate: {p!r}")


def leaves(pred) -> list[Leaf]:
    """The leaves of a predicate tree (None: none), left to right."""
    if pred is None:
        return []
    if isinstance(pred, Leaf):
        return [pred]
    if isinstance(pred, (And, Or)):
        return [leaf for k in pred.preds for leaf in leaves(k)]
    if isinstance(pred, Not):
        return leaves(pred.pred)
    raise TypeError(f"not a predicate: {pred!r}")


def columns(pred) -> set[str]:
    return {leaf.col for leaf in leaves(pred)}


# --------------------------------------------------------------- exact masks


class PredicateError(Exception):
    """A predicate that cannot be evaluated over the rows it names: a
    column the data does not have, a literal the column's type does not
    compare with, a user predicate whose ``keep`` raised. A fault of the
    query, not of the data read."""


def leaf_mask(leaf: Leaf, arr):
    """Boolean mask of ``arr`` rows satisfying one leaf (nulls stay null)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if leaf.op == "is_null":
        # before the dictionary branch: null rows are null INDICES there,
        # and take() would turn the verdict null instead of true
        return pc.is_null(arr)
    if leaf.op == "not_null":
        return pc.is_valid(arr)
    if pa.types.is_dictionary(arr.type):
        # dictionary-aware evaluation (`DictionaryFilter.java` taken to row
        # granularity): run the leaf once over the NDV-sized dictionary,
        # then gather the verdicts by id. Null rows are null *indices*, and
        # pc.take propagates them to null verdicts — SQL semantics kept.
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        verdict = leaf_mask(leaf, arr.dictionary)
        return pc.take(verdict, arr.indices)
    if (
        pa.types.is_float16(arr.type)
        and leaf.op != "udp"
    ):
        # arrow compute has no halffloat comparison kernels; the float32
        # widening is exact, so verdicts are unchanged
        arr = arr.cast(pa.float32())
    if leaf.op == "udp":
        return _as_bool_array(leaf.value.keep(arr))
    if leaf.op in ("in", "not_in"):
        try:
            vset = pa.array(list(leaf.value))
        except (OverflowError, pa.ArrowInvalid):
            # values beyond int64 (uint64 columns): type to the column
            vset = pa.array(list(leaf.value), arr.type)
        m = pc.is_in(arr, value_set=vset)
        # keep SQL NOT IN semantics: null input -> null verdict either way
        if leaf.op == "not_in":
            m = pc.invert(m)
        null = pc.is_null(arr)
        return pc.if_else(null, pa.scalar(None, pa.bool_()), m)
    import pyarrow.compute as pc

    fn = {
        "==": pc.equal, "!=": pc.not_equal, "<": pc.less,
        "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal,
    }[leaf.op]
    try:
        v = pa.scalar(leaf.value)
    except (OverflowError, pa.ArrowInvalid):
        # a Python int >= 2^63 overflows the inferred int64 — type it to
        # the (unsigned) column instead
        v = pa.scalar(leaf.value, arr.type)
    return fn(arr, v)


def mask(pred, table, verdict=None):
    """Exact boolean mask over a table (None when pred is None). Kleene
    and/or so `a == 1 OR b == 2` matches SQL when a is null but b hits.
    ``verdict(leaf)`` may give a leaf's mask instead of ``table`` (None:
    evaluate it on the table's column)."""
    import pyarrow.compute as pc

    if pred is None:
        return None
    if isinstance(pred, Leaf):
        m = None if verdict is None else verdict(pred)
        return leaf_mask(pred, table.column(pred.col)) if m is None else m
    if isinstance(pred, And):
        m = mask(pred.preds[0], table, verdict)
        for k in pred.preds[1:]:
            m = pc.and_kleene(m, mask(k, table, verdict))
        return m
    if isinstance(pred, Or):
        m = mask(pred.preds[0], table, verdict)
        for k in pred.preds[1:]:
            m = pc.or_kleene(m, mask(k, table, verdict))
        return m
    if isinstance(pred, Not):
        return pc.invert(mask(pred.pred, table, verdict))
    raise TypeError(f"not a predicate: {pred!r}")


def filter_table(pred, table):
    m = mask(pred, table)
    return table if m is None else table.filter(m)


# ----------------------------------------------------------------- pruning


@dataclass
class Granule:
    """What a container partition or page, Parquet row group or page, or
    `_metadata` row group records about one column; None is "unknown".
    ``lo``/``hi`` bound the non-null values in the stats domain (physical
    values: epoch units, unsigned ints, bytes); ``nulls``/``count`` are the
    null and non-null counts; ``type`` is the Arrow type that maps literals
    into that domain. ``bloom(values) -> bool`` (may the chunk hold any of
    these values) and ``dictionary() -> pa.Array | None`` (every distinct
    non-null value) are lazy probes."""

    lo: Any = None
    hi: Any = None
    nulls: int | None = None
    count: int | None = None
    type: Any = None
    bloom: Callable | None = None
    dictionary: Callable | None = None


def may_match(pred, granule_of: Callable[[str], Granule | None]) -> bool:
    """Sound three-valued pruning: False only when NO row in the granule can
    satisfy NNF ``pred``; ``granule_of(col)`` is the granule's record of a
    column (None when it has none). And=all, Or=any."""
    if pred is None:
        return True
    if isinstance(pred, Leaf):
        return leaf_may_match(pred, granule_of(pred.col))
    if isinstance(pred, And):
        return all(may_match(k, granule_of) for k in pred.preds)
    if isinstance(pred, Or):
        return any(may_match(k, granule_of) for k in pred.preds)
    raise TypeError(f"normalize() first: unexpected node {pred!r}")


def leaf_may_match(leaf: Leaf, g: Granule | None) -> bool:
    """The one granule veto (`filter2/compat/RowGroupFilter.java`): null
    counts decide is_null/not_null and an all-null granule fails the rest;
    then the bounds, the bloom (== and in) and the dictionary may each veto,
    cheapest first. The bloom and dictionary only see literals with an
    exact value in the column's stats domain."""
    if g is None:
        return True
    if leaf.op == "is_null":
        return g.nulls is None or g.nulls > 0
    if leaf.op == "not_null":
        return g.count is None or g.count > 0
    if g.count == 0:
        return False
    dleaf, exact = in_domain(leaf, g.type)
    if dleaf is None:  # neither the bounds nor the probes can judge it
        return True
    if g.lo is not None and not leaf_vs_bounds(dleaf, g.lo, g.hi):
        return False
    if exact and g.bloom is not None and leaf.op in ("==", "in"):
        if not g.bloom(dleaf.value if leaf.op == "in" else (dleaf.value,)):
            return False
    try:
        values = g.dictionary() if exact and g.dictionary is not None else None
        return values is None or leaf_vs_values(dleaf, values)
    except Exception:  # an unreadable dictionary vetoes nothing
        return True


def row_ranges(tree, nrows: int, leaf_ranges) -> list[tuple[int, int]]:
    """Rows ``[(start, end), ...]`` of an ``nrows``-row granule that may
    satisfy NNF ``tree`` (the RowRanges calculus of
    `internal/filter2/columnindex/ColumnIndexFilter.java`): And intersects,
    Or unions, ``leaf_ranges(leaf)`` gives a leaf's rows (None: all)."""
    if isinstance(tree, And):
        iv = [(0, nrows)]
        for k in tree.preds:
            iv = _intersect_intervals(iv, row_ranges(k, nrows, leaf_ranges))
            if not iv:
                break
        return iv
    if isinstance(tree, Or):
        out: list[tuple[int, int]] = []
        for k in tree.preds:
            out = _merge_intervals(sorted(out + row_ranges(k, nrows, leaf_ranges)))
        return out
    iv = leaf_ranges(tree) if tree is not None else None
    return [(0, nrows)] if iv is None else _merge_intervals(iv)


def page_rows(leaf: Leaf, pages) -> list[tuple[int, int]] | None:
    """The one page pruner of both readers (`ColumnIndexFilter`'s per-page
    verdict): the row intervals of the ``(first_row, end_row, Granule)``
    ``pages`` of one column that ``leaf_may_match`` keeps; None (every
    row) when the column has no page records. A comparison leaf whose
    literal has no value in the column's stats domain keeps every row too,
    so the exact read still sees it (and raises if it cannot evaluate it)."""
    comparison = leaf.op not in ("is_null", "not_null")
    if pages is None or comparison and pages and in_domain(leaf, pages[0][2].type)[0] is None:
        return None
    return [(a, b) for a, b, g in pages if leaf_may_match(leaf, g)]


def select_pages(ends, rows, decoded=None):
    """The rows -> pages mapping of both readers: the pages of a column
    (ending at the cumulative positions ``ends``) that hold the ascending
    positions ``rows``, as a bool mask (None: every page), and ``rows`` as
    positions within those pages read back to back. ``decoded`` (a mask of
    pages already at hand) joins the selection."""
    ends = np.asarray(ends, np.int64)
    # how many of the positions fall in each page
    per_page = np.diff(np.searchsorted(rows, ends), prepend=0)
    need = per_page > 0
    if decoded is not None:
        need |= decoded
    if need.all():
        return None, rows
    skipped = np.cumsum(np.where(need, 0, np.diff(ends, prepend=0)))
    return need, rows - np.repeat(skipped, per_page)


def take(arr, rows):
    """``arr`` at ascending positions ``rows``; a run of consecutive
    positions is a slice."""
    import pyarrow as pa

    n = len(rows)
    if n and int(rows[-1]) - int(rows[0]) + 1 != n:
        return arr.take(pa.array(rows, pa.int64()))
    return arr.slice(int(rows[0]) if n else 0, n)


def two_phase_read(tree, nrows, kept, pred_fields, fields, read, verdict=None) -> list:
    """The one filtered read of both formats, exact: parquet-java's
    ``RowRanges`` reads with late materialization. ``read(field, rows)``
    gives a field's values at the ascending row positions ``rows`` (None:
    every row) of an ``nrows``-row granule; ``verdict(leaf, rows)``, when
    given, a leaf's mask at those rows from the encoded values (None: the
    leaf needs the values).

    1. The ``pred_fields`` are read over the ``kept`` row intervals (the
       ``row_ranges`` the page bounds left) and ``mask`` of NNF ``tree``
       picks the matching rows; a field whose every leaf ``verdict``
       answered is not read;
    2. every other field of ``fields`` is read at those rows only; a
       predicate field read in phase 1 is taken from it, not read again.

    Returns the arrays of ``fields`` at the matching rows (every row when
    ``tree`` is None). A predicate that cannot be evaluated (a literal of
    the wrong type, a user predicate that raises) raises ``PredicateError``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    rows = None  # all rows
    matched: dict = {}
    if tree is not None:
        if kept != [(0, nrows)]:
            rows = np.concatenate([np.arange(a, b) for a, b in kept] or [np.empty(0, np.int64)])
        known = {id(leaf): verdict(leaf, rows) for leaf in leaves(tree)} if verdict else {}
        unknown = {leaf.col for leaf in leaves(tree) if known.get(id(leaf)) is None}
        for f in pred_fields:
            if f.name in unknown:
                matched[f.name] = read(f, rows)
        phase1 = pa.table(matched)
        try:
            hit = mask(tree, phase1, lambda leaf: known.get(id(leaf)))
        except Exception as exc:
            raise PredicateError(f"cannot evaluate {tree!r}: {exc!r}") from exc
        if isinstance(hit, pa.ChunkedArray):
            hit = hit.combine_chunks()  # indices_nonzero crashes on zero chunks
        hit = pc.indices_nonzero(hit)  # a null verdict fails
        if rows is not None or len(hit) < nrows:
            matched = dict(zip(phase1.column_names, phase1.take(hit).columns))
            hit = hit.to_numpy().astype(np.int64)
            rows = hit if rows is None else rows[hit]
    return [matched[f.name] if f.name in matched else read(f, rows) for f in fields]


def _merge_intervals(iv):
    out: list[tuple[int, int]] = []
    for a, b in iv:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _intersect_intervals(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def in_domain(leaf: Leaf, t) -> tuple[Leaf | None, bool]:
    """``leaf`` with its literal(s) in the stats domain of Arrow type ``t``
    (None when even the bounds cannot judge it), and whether all of them are
    exact there for the bloom and dictionary. Memoized per (leaf, type)."""
    try:
        return _in_domain(leaf, t)
    except TypeError:  # an unhashable literal
        return _in_domain.__wrapped__(leaf, t)


@functools.lru_cache(maxsize=256)
def _in_domain(leaf: Leaf, t) -> tuple[Leaf | None, bool]:
    import pyarrow as pa

    if t is not None and pa.types.is_dictionary(t):
        t = t.value_type
    dec = t is not None and pa.types.is_decimal(t)
    if leaf.op == "udp":  # unscaled decimal ints are not its values
        return (None if dec else leaf), True
    many = leaf.op in ("in", "not_in")
    old = leaf.value if many else (leaf.value,)
    new = [_stats_value(v, t) for v in old]
    if _UNBOUNDED in new:
        return None, False
    # inexact literals stay as they are, for the bounds; decimals are
    # bounds-only (a FIXED_LEN_BYTE_ARRAY bloom hashes the stored bytes)
    exact = _INEXACT not in new and not dec
    new = [o if v is _INEXACT else v for v, o in zip(new, old)]
    return Leaf(leaf.col, leaf.op, new if many else new[0]), exact


_INEXACT, _UNBOUNDED = object(), object()


def _stats_value(v, t):
    """Literal ``v`` in Arrow type ``t``'s stats domain (epoch units, days,
    UTF-8 bytes, unscaled decimal ints); ``_INEXACT`` when ``t`` has no value
    Arrow finds equal to ``v`` (700.5 on int64, a naive datetime on a
    tz-aware column); ``_UNBOUNDED`` for a decimal literal other than an int
    or Decimal exact at the scale (Arrow compares floats as floats) and for
    a str with no UTF-8 bytes (a lone surrogate, which Arrow rejects)."""
    import decimal

    import pyarrow as pa

    from .schema import physical_type

    if t is None:
        return _INEXACT
    try:
        if pa.types.is_decimal(t):
            if isinstance(v, bool) or not isinstance(v, (int, decimal.Decimal)):
                return _UNBOUNDED
            d = decimal.Decimal(v).scaleb(t.scale)
            return int(d) if d == d.to_integral_value() else _UNBOUNDED
        if physical_type(t) == "BINARY":
            if isinstance(v, (bytes, bytearray)):
                return bytes(v)
            if not isinstance(v, str):
                return _INEXACT
            try:
                return v.encode()
            except UnicodeEncodeError:  # a lone surrogate has no UTF-8 bytes
                return _UNBOUNDED
        if pa.types.is_fixed_size_binary(t):
            ok = isinstance(v, (bytes, bytearray)) and len(v) == t.byte_width
            return bytes(v) if ok else _INEXACT
        if isinstance(v, (str, bytes, bool)) and not pa.types.is_boolean(t):
            return _INEXACT
        try:
            s = pa.scalar(v)
        except (OverflowError, pa.ArrowException):
            s = pa.scalar(v, t)  # ints beyond int64 on uint64 columns
        if s.type != t:
            if pa.types.is_timestamp(s.type) and pa.types.is_timestamp(t) and (
                (s.type.tz is None) != (t.tz is None)
            ):
                return _INEXACT
            c = s.cast(t)  # a safe cast raises when the value would change
            if not c.cast(s.type).equals(s):
                return _INEXACT
            s = c
        if pa.types.is_temporal(t):
            s = s.cast(pa.int64() if t.bit_width == 64 else pa.int32())
        return s.as_py()
    except (pa.ArrowException, ValueError, TypeError, OverflowError, NotImplementedError,
            decimal.InvalidOperation):
        return _INEXACT


def leaf_vs_bounds(leaf: Leaf, lo, hi) -> bool:
    """Can any NON-null value in [lo, hi] satisfy the comparison leaf?
    ``leaf_may_match`` decides is_null/not_null and all-null granules from
    the null counts before it asks."""
    if lo != lo or hi != hi:  # NaN bounds (older manifests): never skip
        return True
    if leaf.op == "udp":
        try:
            return not leaf.value.can_drop(lo, hi)
        except Exception:
            return True
    if isinstance(lo, bytes):
        import pyarrow as pa

        # byte bounds judge a literal as bytes: a str by its UTF-8 bytes (the
        # mapping ``in_domain`` makes), one that has none not at all
        leaf = in_domain(leaf, pa.binary())[0]
        if leaf is None:
            return True
    if leaf.op == "in":
        return any(leaf_vs_bounds(Leaf(leaf.col, "==", v), lo, hi) for v in leaf.value)
    if leaf.op == "not_in":
        same = (_comparable(lo, v) and v == lo for v in leaf.value)
        return not (lo == hi and any(same))
    v = leaf.value
    if not _comparable(lo, v):
        return True
    if leaf.op == "==":
        return not (v < lo or v > hi)
    if leaf.op == "!=":
        return not (lo == hi and lo == v)
    if leaf.op == "<":
        return lo < v
    if leaf.op == "<=":
        return lo <= v
    if leaf.op == ">":
        return hi > v
    if leaf.op == ">=":
        return hi >= v
    return True


def leaf_vs_values(leaf: Leaf, arr) -> bool:
    """Dictionary-level veto (`filter2/dictionarylevel/DictionaryFilter.java`):
    can any member of the chunk's COMPLETE value set satisfy the comparison
    leaf? Exact because the dictionary enumerates every distinct non-null
    value."""
    import pyarrow.compute as pc

    return bool(pc.any(_as_bool_array(leaf_mask(leaf, arr))).as_py())


def _comparable(lo, v) -> bool:
    if isinstance(lo, (str, bytes)):
        return isinstance(v, type(lo))
    return isinstance(v, (int, float)) and not isinstance(v, bool) or (
        isinstance(v, bool) and isinstance(lo, bool)
    )


"""Cut pool: admission order, slack-based dropping, persistence.

A pool holds what a cut file holds: cuts, which never change, and a
simplex basis.  It names its cuts by serial int ids: `admit` gives each
cut it admits the pool's `next_id` and counts it up, so no id names two
cuts of a pool's lineage.  The id keys the pool, the ages dict that each
run keeps, the cut's LP row and that row's basis letter.  Only a cut file
names cuts by content hash.  A run's pool holds its last basis as HiGHS
gave it (`lp_backend.LastBasis`); its status letters are made when
`pool.basis` is first read, by `save_cuts` or a warm start, so a pool that
nobody saves never pays for them.

The warm-start file is UTF-8 JSON; variable references are symbolic
(bus / pair / branch ids), so saved cuts survive model rebuilds and transfer
to load-perturbed instances of the same network.  Version 3 is a header
line and one JSON document on the next, the pool as columns:

    {"fmt": "cutpool", "v": 3}
    {"keys": [key, ...],
     "cuts": {"kind": [...], "support": [...], "rhs": [...],
              "size": [...], "key": [...], "coeff": [...]},
     "basis": {"columns": "LB-U...", "base_rows": "BBLU...",
               "cuts": "B-L..."}}

`keys` lists each variable key once, sorted by `repr`.  The cuts are in
content-hash order (`separation.cut_hashes`; cuts of equal content keep
their pool order): cut i has kind kind[i], support (its provenance)
support[i], right-hand side rhs[i] and size[i] terms, the next size[i]
entries of `key` (indices into `keys`, so strictly ascending within a cut)
and of `coeff`.

The basis is the simplex basis of the run's last LP solve, the
`lp_backend.SavedBasis` the backend reads by name: one status letter of
`lp_backend.STATUS_LETTERS` per key (`-` for a key that is no column), per
base row in row order and per cut (`-` for a cut without a row).  It is
left out when the pool has no basis.  A version 3 load hashes nothing:
cut i gets id i, and the i-th cut letter.

Versions 1 and 2 wrote one JSON line per cut, `{"kind": ..., "support":
..., "terms": [[key, w], ...], "rhs": ...}`, and version 2 a closing
`{"basis": {"columns": [[key, s], ...], "base_rows": "...", "cuts":
[[content hash, s], ...]}}` record, in any place but once.  Both still
load: their records are read into the same columns, so one path
validates and builds the cuts of every version.  A version 1 or 2 load
then hashes its cuts in one batch and numbers them in hash order, the
order a version 3 file keeps, and gives a cut the letter of its hash.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace
from itertools import chain, compress

import numpy as np

from .errors import CutFileError
from .lp_backend import STATUS_LETTERS, LastBasis, SavedBasis
from .separation import _KEY_BYTES, _cuts_from_columns, _plain, cut_hashes

T_AGE = 5
EPS_SLACK = 1e-5
FILE_HEADER = {"fmt": "cutpool", "v": 3}
_LETTERS = frozenset(STATUS_LETTERS)
_OR_NONE = _LETTERS | {"-"}  # a key that is no column, a cut without a row
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


@dataclass
class CutPool:
    cuts: dict = field(default_factory=dict)   # serial id -> LinearCut
    basis: SavedBasis | None = None  # of the last LP solve; a warm start hint
    next_id: int = field(init=False, default=0)  # the id `admit` gives next

    def __post_init__(self):
        self.next_id = max(self.cuts, default=-1) + 1

    def __len__(self):
        return len(self.cuts)


def _basis(pool: CutPool) -> SavedBasis | None:
    if isinstance(pool._basis, LastBasis):
        pool._basis = pool._basis.saved()
    return pool._basis


def _set_basis(pool: CutPool, basis):
    pool._basis = basis


# set on the class after the dataclass is made, so that `basis` stays an
# init field: it may be given as an `lp_backend.LastBasis`, read as the
# SavedBasis its letters make, which are made when it is first read
CutPool.basis = property(_basis, _set_basis)


def admit(pool: CutPool, candidates) -> dict:
    """Add the candidates by decreasing violation, each under the pool's
    next id; returns them by id in that order, the order of their LP rows.
    Separation builds only admissible cuts."""
    admitted = dict(enumerate(sorted(
        candidates, key=lambda c: -c.violation_at_birth), pool.next_id))
    pool.next_id += len(admitted)
    pool.cuts.update(admitted)
    return admitted


def age_and_drop(pool: CutPool, slacks: dict, ages: dict):
    """Count each cut's consecutive slack rounds in `ages` (a tight cut has
    none) and drop the cuts slack for `T_AGE` rounds.

    `slacks` maps cut id to the slack a.x - b of the cut's LP row
    (missing: tight), here normalized.  Returns the dropped cuts by id.
    """
    dropped = {}
    for i, cut in list(pool.cuts.items()):
        if slacks.get(i, 0.0) / cut.inf_norm < EPS_SLACK:
            ages.pop(i, None)
            continue
        ages[i] = ages.get(i, 0) + 1
        if ages[i] >= T_AGE:
            dropped[i] = cut
            del pool.cuts[i], ages[i]
    return dropped


# -- persistence ----------------------------------------------------------


def _key_from_json(raw):
    """The variable key written as `raw`: lists become tuples, nested ones
    too (the branch or generator key inside a flow or generation key)."""
    if type(raw) is not list:
        return raw
    return tuple([_key_from_json(v) if type(v) is list else v for v in raw])


def save_cuts(pool: CutPool, stream):
    """Write the pool as a version 3 cut file: the header line, then the
    pool as columns on one line.

    The cuts are hashed in one batch and written in hash order, by a
    stable sort.  Keys and provenance go through `_plain`, so a numpy
    integer is written as the int it equals; JSON writes a tuple as a list.
    A basis letter of a cut the pool lacks is left out.
    """
    hashes = cut_hashes(list(pool.cuts.values()))
    ids = sorted(pool.cuts, key=dict(zip(pool.cuts, hashes)).__getitem__)
    cuts = [pool.cuts[i] for i in ids]
    basis = pool.basis
    named = dict.fromkeys(chain.from_iterable(c.terms for c in cuts))
    if basis is not None:
        named.update(dict.fromkeys(basis.columns))
    keys = sorted(named, key=_KEY_BYTES.__getitem__)
    index = dict(zip(keys, range(len(keys))))
    doc = {"keys": list(map(_plain, keys)), "cuts": {
        "kind": [c.kind for c in cuts],
        "support": [_plain(c.provenance) for c in cuts],
        "rhs": [c.rhs for c in cuts],
        "size": [len(c.terms) for c in cuts],
        "key": [index[k] for c in cuts for k in c.terms],
        "coeff": [w for c in cuts for w in c.terms.values()]}}
    if basis is not None:
        doc["basis"] = {
            "columns": "".join([basis.columns.get(k, "-") for k in keys]),
            "base_rows": basis.base_rows,
            "cuts": "".join([basis.cuts.get(i, "-") for i in ids])}
    stream.write(json.dumps(FILE_HEADER) + "\n" + json.dumps(doc) + "\n")


@dataclass
class _Columns:
    """A cut file's cuts as the columns of version 3 (see the module
    docstring), with the record number of each cut."""
    keys: list
    kind: list
    support: list
    rhs: np.ndarray
    size: np.ndarray
    key: np.ndarray
    coeff: np.ndarray
    records: list | None = None  # None: every cut is record 1


def _letters(raw, allowed) -> str:
    if not isinstance(raw, str) or not allowed.issuperset(raw):
        raise ValueError("malformed basis letters")
    return raw


def _basis_from_json(raw) -> SavedBasis:
    """A version 2 basis record's value; ValueError or TypeError when
    malformed."""
    columns = {_key_from_json(k): s for k, s in raw["columns"]}
    cuts = dict(raw["cuts"])
    base = raw["base_rows"]
    # bool is an int, but no content hash
    if not isinstance(base, str) or any(type(h) is not int for h in cuts) \
            or not _LETTERS.issuperset([*base, *columns.values(),
                                        *cuts.values()]):
        raise ValueError("malformed basis record")
    return SavedBasis(columns=columns, base_rows=base, cuts=cuts)


def _array(raw, dtype_kinds: str) -> np.ndarray:
    """A flat list of JSON numbers as an array of one of `dtype_kinds`."""
    if type(raw) is not list:
        raise TypeError("a column must be a list")
    a = np.array(raw) if raw else np.zeros(0, int)
    if a.ndim != 1 or a.dtype.kind not in dtype_kinds:
        raise TypeError("a column of the wrong type")
    return a


def _read_v3(text: str):
    """The version 3 body: (columns, basis or None); one of the errors of
    `_MALFORMED` when it is not one."""
    doc = json.loads(text)
    cuts = doc["cuts"]
    kind, support = cuts["kind"], cuts["support"]
    if type(doc["keys"]) is not list or type(kind) is not list \
            or type(support) is not list:
        raise TypeError("a column must be a list")
    cols = _Columns(
        keys=[_key_from_json(k) for k in doc["keys"]], kind=kind,
        support=support, rhs=_array(cuts["rhs"], "iuf").astype(float),
        size=_array(cuts["size"], "iu"), key=_array(cuts["key"], "iu"),
        coeff=_array(cuts["coeff"], "iuf").astype(float))
    k_bytes = list(map(_KEY_BYTES.__getitem__, cols.keys))  # hashable keys
    if not all(map(operator.lt, k_bytes, k_bytes[1:])) \
            or len(set(cols.keys)) != len(cols.keys):
        raise ValueError("keys not distinct and sorted by repr")
    n = len(kind)
    if not len(support) == len(cols.rhs) == len(cols.size) == n \
            or not len(cols.key) == len(cols.coeff) == cols.size.sum() \
            or (cols.size < 0).any():
        raise ValueError("columns of unequal lengths")
    basis = doc.get("basis")
    if basis is not None:  # letter strings by key and by cut
        columns = _letters(basis["columns"], _OR_NONE)
        letters = _letters(basis["cuts"], _OR_NONE)
        if len(columns) != len(cols.keys) or len(letters) != n:
            raise ValueError("basis letters of the wrong length")
        basis = SavedBasis(
            columns={k: s for k, s in zip(cols.keys, columns) if s != "-"},
            base_rows=_letters(basis["base_rows"], _LETTERS),
            cuts={i: s for i, s in enumerate(letters) if s != "-"})
    return cols, basis


def _read_lines(stream, version: int):
    """Version 1 or 2 records as columns: (columns, basis or None, the
    number of the first malformed record or None).  Reading stops at that
    record."""
    index: dict = {}  # key -> its position, in the order first seen
    kind, support, rhs, size, key, coeff, records = [], [], [], [], [], [], []
    basis = None
    for num, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            if version == 2 and "basis" in rec:
                if basis is not None:
                    raise ValueError("a second basis record")
                basis = _basis_from_json(rec["basis"])
                continue
            terms = {_key_from_json(k): float(w) for k, w in rec["terms"]}
            row = (rec["kind"], rec["support"], float(rec["rhs"]))
        except _MALFORMED:
            break
        for part, value in zip((kind, support, rhs), row):
            part.append(value)
        size.append(len(terms))
        key += [index.setdefault(k, len(index)) for k in terms]
        coeff += terms.values()
        records.append(num)
    else:
        num = None
    # number the keys in repr order, and each cut's terms in key order
    keys = sorted(index, key=_KEY_BYTES.__getitem__)
    rank = np.empty(len(keys), np.intp)
    rank[[index[k] for k in keys]] = np.arange(len(keys))
    key = rank[np.array(key, np.intp)]
    order = np.lexsort((key, np.repeat(np.arange(len(size)), size)))
    cols = _Columns(keys, kind, support, np.array(rhs, float),
                    np.array(size, np.intp), key[order],
                    np.array(coeff, float)[order], records)
    return cols, basis, num


def _first_bad_cut(cols: _Columns):
    """The index of the first malformed cut, or None, and the largest
    coefficient magnitude of each cut.  A cut is malformed when its kind is
    no string, it has no term, a key index is out of range or not above
    the one before, a number is not finite, or no coefficient is nonzero.
    """
    n, size, key, coeff = len(cols.kind), cols.size, cols.key, cols.coeff
    bad = np.array([type(k) is not str for k in cols.kind], bool) \
        | (size < 1) | ~np.isfinite(cols.rhs)
    cut_of = np.repeat(np.arange(n), size)
    term_bad = ~np.isfinite(coeff) | (key < 0) | (key >= len(cols.keys))
    term_bad[1:] |= (key[1:] <= key[:-1]) & (cut_of[1:] == cut_of[:-1])
    bad[cut_of[term_bad]] = True
    norms = np.zeros(n)
    some = size > 0
    if some.any():
        starts = np.cumsum(size) - size
        norms[some] = np.maximum.reduceat(np.abs(coeff), starts[some])
    bad |= ~(norms > 0.0)
    first = np.flatnonzero(bad)
    return (int(first[0]) if first.size else None), norms


def load_cuts(stream, model=None) -> tuple[CutPool, int]:
    """Read a cut file of any version; returns (pool, skipped count).

    Cuts naming a variable `model` neither has nor can add (see
    `RelaxationModel.has_variables`, asked once per distinct key) are
    skipped.  Without a model every well-formed cut is kept; `cutplane`
    skips what it lacks.  Cut i of the file, in hash order, has id i.  The
    pool carries the file's basis, if it has one, as saved.
    """
    try:
        return _load(stream, model)
    except UnicodeDecodeError as exc:
        raise CutFileError("cut file is not UTF-8 text: %s" % exc)


def _load(stream, model):
    try:
        header = json.loads(stream.readline())
    except json.JSONDecodeError:
        raise CutFileError("missing or malformed cut file header", record=0)
    if not isinstance(header, dict) or header.get("fmt") != "cutpool" \
            or header.get("v") not in (1, 2, 3):
        raise CutFileError("unsupported cut file header %r" % (header,),
                           record=0)

    def malformed(num):
        return CutFileError("malformed cut record %d (last good record %d)"
                            % (num, num - 1), record=num)

    if header["v"] == 3:
        text = stream.read()  # a decode error is no malformed record
        try:
            cols, basis = _read_v3(text)
        except _MALFORMED:
            raise malformed(1)
        stop = None
    else:
        cols, basis, stop = _read_lines(stream, header["v"])
    first, norms = _first_bad_cut(cols)
    if first is not None:
        raise malformed(1 if cols.records is None else cols.records[first])
    if stop is not None:
        raise malformed(stop)

    keys, key = cols.keys, cols.key.tolist()
    cuts = _cuts_from_columns(
        cols.kind, [_key_from_json(s) for s in cols.support],
        list(map(keys.__getitem__, key)), cols.coeff, cols.rhs,
        cols.size.tolist(), norms, [0.0] * len(cols.kind))
    skip = [False] * len(cuts)
    if model is not None and cuts:
        lacks = np.zeros(len(keys), bool)
        for i in set(key):
            lacks[i] = not model.has_variables((keys[i],))
        starts = np.cumsum(cols.size) - cols.size
        skip = np.logical_or.reduceat(lacks[cols.key], starts).tolist()
    if header["v"] != 3:  # number the cuts in hash order, as version 3 does
        hashes = cut_hashes(cuts)
        order = sorted(range(len(cuts)), key=hashes.__getitem__)
        cuts, skip = [cuts[j] for j in order], [skip[j] for j in order]
        if basis is not None:
            basis = replace(basis, cuts={
                i: basis.cuts[h] for i, h in enumerate(sorted(hashes))
                if h in basis.cuts})
    pool = CutPool(dict(compress(enumerate(cuts), [not s for s in skip])))
    pool.basis = basis
    return pool, sum(skip)

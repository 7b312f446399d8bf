"""Cut pool: admission order, slack-based dropping, persistence.

A pool holds what a cut file holds, cuts and a simplex basis, and the
ages a run counts.  Its cuts are one `separation.CutBlock`, which never
changes in place: `admit`, `age_and_drop` and `CutPool.take` replace it.
A cut is named by its position in the pool; only a cut file names cuts by
content hash.  `ages` counts each cut's consecutive slack rounds; a pool
built from cuts starts them at 0.  The basis holds one letter per cut,
in pool order, and the letters follow their cuts: a cut that `admit`
appends has none (`-`), and a cut that a drop or `take` removes takes its
letter along.  A run's pool holds its last basis as HiGHS gave it
(`lp_backend.LastBasis`); its status letters are made when `pool.basis` is
first read, by `save_cuts` or a warm start, so a pool that nobody saves
never pays for them.  A pool may record the compiled network on which
every key of its cuts was checked (`checked_on`): `load_cuts` given a
model records the model's network, and a run its own.  `CutPool.take`
keeps the record and `admit` drops it, so a warm start on that network
need not check the keys again (see `driver`).

A run's LP holds the pool's cuts as its cut rows in pool order, cut i as
cut row i: a warm start injects its cuts first, `admit` appends, and a
drop removes a cut from both.  A round drops before it admits, so
`LpSolveResult.row_slack` holds one slack per pool cut, in pool order, and
`age_and_drop` reads it by position.

The warm-start file is UTF-8 JSON; variable references are symbolic
(bus / pair / branch ids), so saved cuts survive model rebuilds and transfer
to load-perturbed instances of the same network.  Version 3 is a header
line and one JSON document on the next, the pool as the columns of a
`CutBlock`:

    {"fmt": "cutpool", "v": 3}
    {"keys": [key, ...],
     "cuts": {"kind": [...], "support": [...], "rhs": [...],
              "size": [...], "key": [...], "coeff": [...]},
     "basis": {"columns": "LB-U...", "base_rows": "BBLU...",
               "cuts": "B-L..."}}

`keys` lists each variable key once, sorted by `repr`.  The cuts are in
content-hash order (`cut_hashes`; cuts of equal content keep their pool
order): cut i has kind kind[i], support (its provenance) support[i],
right-hand side rhs[i] and size[i] terms, the next size[i] entries of
`key` (indices into `keys`, so strictly ascending within a cut) and of
`coeff`.

The basis is the simplex basis of the run's last LP solve, the
`lp_backend.SavedBasis` the backend reads by name: one status letter of
`lp_backend.STATUS_LETTERS` per key (`-` for a key that is no column), per
base row in row order and per cut (`-` for a cut without a row).  It is
left out when the pool has no basis.  A version 3 load hashes nothing:
the file's cuts and cut letters become the pool's, in the file's order.

Versions 1 and 2 wrote one JSON line per cut, `{"kind": ..., "support":
..., "terms": [[key, w], ...], "rhs": ...}`, and version 2 a closing
`{"basis": {"columns": [[key, s], ...], "base_rows": "...", "cuts":
[[content hash, s], ...]}}` record, in any place but once.  Both still
load: their records are read into the same block, so one path validates
the cuts of every version.  A version 1 or 2 load then hashes its cuts in
one batch and puts them in hash order, the order a version 3 file keeps,
and gives a cut the letter of its hash.

Every version starts with the header `{"fmt": "cutpool", "v": N}`, N a
JSON integer 1, 2 or 3.  Any other header, `"v": true`, `1.0` or `"3"`
among them, is an unsupported cut file header, at record 0.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np

from .errors import CutFileError
from .lp_backend import STATUS_LETTERS, LastBasis, SavedBasis
from .separation import NO_CUTS, CutBlock

T_AGE = 5
EPS_SLACK = 1e-5
FILE_HEADER = {"fmt": "cutpool", "v": 3}
HASH_DIGITS = 12
_LETTERS = frozenset(STATUS_LETTERS)
_OR_NONE = _LETTERS | {"-"}  # a key that is no column, a cut without a row
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


@dataclass
class CutPool:
    cuts: CutBlock = NO_CUTS
    basis: SavedBasis | None = None  # of the last LP solve; a warm start hint
    # the compiled network every key of the cuts was checked on, or None
    checked_on: object = field(default=None, repr=False, compare=False)
    ages: np.ndarray = field(init=False)  # consecutive slack rounds per cut

    def __post_init__(self):
        self.ages = np.zeros(len(self.cuts), int)

    def __len__(self):
        return len(self.cuts)

    def take(self, mask) -> CutPool:
        """The pool of the cuts `mask` picks, in order, with their basis
        letters and the network their keys were checked on; its ages start
        at 0."""
        return CutPool(self.cuts.take(mask), _picked(self.basis, mask),
                       self.checked_on)


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


def _picked(basis: SavedBasis | None, mask) -> SavedBasis | None:
    """`basis` with the letters of the cuts `mask` picks."""
    if basis is None:
        return None
    return replace(basis, cuts="".join(compress(basis.cuts, mask)))


def admit(pool: CutPool, candidates: CutBlock) -> CutBlock:
    """Append the candidates to the pool by decreasing violation (a stable
    sort), without basis letters; returns them in that order, the order of
    their LP rows.  Separation builds only admissible cuts.  The pool's
    keys are no longer known to be checked on a network."""
    n = len(candidates)
    if not n:
        return candidates
    pool.checked_on = None
    admitted = candidates.take((-candidates.violation).argsort(
        kind="stable"))
    pool.cuts = CutBlock.concat(pool.cuts, admitted)
    pool.ages = np.concatenate((pool.ages, np.zeros(n, int)))
    basis = pool.basis
    if basis is not None:
        pool.basis = replace(basis, cuts=basis.cuts + "-" * n)
    return admitted


def age_and_drop(pool: CutPool, slacks: np.ndarray) -> np.ndarray:
    """Count each cut's consecutive slack rounds in `pool.ages` (a tight
    cut has none) and drop the cuts slack for `T_AGE` rounds, with their
    basis letters; returns the dropped cuts' positions, counted before the
    drop.

    `slacks` holds the slack a.x - b of each cut's LP row, in pool order,
    here normalized; a count other than the pool's raises ValueError.
    """
    if len(slacks) != len(pool):
        raise ValueError("%d slacks for %d cuts" % (len(slacks), len(pool)))
    ages = np.where(slacks / pool.cuts.norm < EPS_SLACK, 0, pool.ages + 1)
    keep = ages < T_AGE
    dropped = (~keep).nonzero()[0]
    if len(dropped):
        pool.cuts, pool.basis = pool.cuts.take(keep), _picked(pool.basis, keep)
    pool.ages = ages[keep]
    return dropped


# -- persistence ----------------------------------------------------------


def _plain(key):
    """`key` with its numpy integers as Python ints: they equal, and hash
    like, each other, so both must give one `repr`."""
    if isinstance(key, tuple):
        return tuple(map(_plain, key))
    return int(key) if isinstance(key, np.integer) else key


class _KeyBytes(dict):
    """repr(key).encode() per variable key, made once, from the key with
    plain ints whichever form came first; UTF-8 keeps code point order, so
    sorting by these bytes is sorting by `repr`."""

    def __missing__(self, key):
        self[key] = value = repr(_plain(key)).encode()
        return value


_KEY_BYTES = _KeyBytes()


def cut_hashes(cuts: CutBlock) -> list:
    """The content hashes of a block's cuts.

    A cut's hash is the blake2b digest of its kind, then per term its key
    bytes and its coefficient over its norm rounded to `HASH_DIGITS`
    digits by `round`, then its rhs so scaled, each number as a
    little-endian double.
    """
    scaled = np.concatenate((cuts.coeff / np.repeat(cuts.norm, cuts.size),
                             cuts.rhs / cuts.norm))
    packed = np.array([round(v, HASH_DIGITS) for v in scaled.tolist()],
                      "<f8").view("V8").tolist()
    # per term its key bytes and coefficient; map stops at the last key
    terms = list(map(operator.add, map(_KEY_BYTES.__getitem__,
                                       cuts.keys.tolist()), packed))
    bounds = [0, *np.cumsum(cuts.size).tolist()]
    return [int.from_bytes(hashlib.blake2b(
        b"".join([kind.encode(), *terms[a:b], end]), digest_size=8).digest(),
        "little") for kind, a, b, end in zip(cuts.kind.tolist(), bounds,
                                             bounds[1:], packed[len(terms):])]


def _key_from_json(raw):
    """The variable key written as `raw`: lists become tuples, nested ones
    too (the branch or generator key inside a flow or generation key)."""
    if type(raw) is not list:
        return raw
    return tuple([_key_from_json(v) if type(v) is list else v for v in raw])


def _all_from_json(raw: list) -> list:
    """`_key_from_json` of each item of `raw`.

    Every key and provenance the library writes nests lists two deep at
    most, so one pass turns the lists of two levels into tuples.  A list
    deeper down stays a list and makes the result unhashable, as a JSON
    object in it does; then the recursion decodes every item again.
    """
    out = [tuple([tuple(v) if type(v) is list else v for v in k])
           if type(k) is list else k for k in raw]
    try:
        hash(tuple(out))
    except TypeError:
        return list(map(_key_from_json, raw))
    return out


def save_cuts(pool: CutPool, stream):
    """Write the pool as a version 3 cut file: the header line, then the
    pool as columns on one line.

    The cuts are hashed in one batch and written in hash order, by a
    stable sort.  Keys and provenance go through `_plain`, so a numpy
    integer is written as the int it equals; JSON writes a tuple as a list.
    The basis's cut letters are written in the cuts' order.
    """
    hashes = cut_hashes(pool.cuts)
    order = sorted(range(len(hashes)), key=hashes.__getitem__)
    cuts = pool.cuts.take(order)
    terms = cuts.keys.tolist()
    basis = pool.basis
    named = dict.fromkeys(terms)
    if basis is not None:
        named.update(dict.fromkeys(basis.columns))
    keys = sorted(named, key=_KEY_BYTES.__getitem__)
    index = dict(zip(keys, range(len(keys))))
    doc = {"keys": list(map(_plain, keys)), "cuts": {
        "kind": cuts.kind.tolist(),
        "support": list(map(_plain, cuts.provenance.tolist())),
        "rhs": cuts.rhs.tolist(), "size": cuts.size.tolist(),
        "key": list(map(index.__getitem__, terms)),
        "coeff": cuts.coeff.tolist()}}
    if basis is not None:
        doc["basis"] = {
            "columns": "".join([basis.columns.get(k, "-") for k in keys]),
            "base_rows": basis.base_rows,
            "cuts": "".join(map(basis.cuts.__getitem__, order))}
    stream.write(json.dumps(FILE_HEADER) + "\n" + json.dumps(doc) + "\n")


def _letters(raw, allowed) -> str:
    if not isinstance(raw, str) or not allowed.issuperset(raw):
        raise ValueError("malformed basis letters")
    return raw


def _basis_from_json(raw):
    """A version 2 basis record's value: (columns, base rows, letter by
    content hash); ValueError or TypeError when malformed."""
    columns = {_key_from_json(k): s for k, s in raw["columns"]}
    cuts = dict(raw["cuts"])
    base = raw["base_rows"]
    # bool is an int, but no content hash
    if not isinstance(base, str) or any(type(h) is not int for h in cuts) \
            or not _LETTERS.issuperset([*base, *columns.values(),
                                        *cuts.values()]):
        raise ValueError("malformed basis record")
    return columns, base, cuts


def _array(raw, dtype_kinds: str) -> np.ndarray:
    """A flat list of JSON numbers as an array of one of `dtype_kinds`."""
    if type(raw) is not list:
        raise TypeError("a column must be a list")
    a = np.array(raw) if raw else np.zeros(0, int)
    if a.ndim != 1 or a.dtype.kind not in dtype_kinds:
        raise TypeError("a column of the wrong type")
    return a


def _read_v3(text: str):
    """The version 3 body: (keys, columns, basis or None), the columns
    those of `_first_bad_cut`; one of the errors of `_MALFORMED` when it
    is not one."""
    doc = json.loads(text)
    cols = doc["cuts"]
    raw, kind, support = doc["keys"], cols["kind"], cols["support"]
    if type(raw) is not list or type(kind) is not list \
            or type(support) is not list:
        raise TypeError("a column must be a list")
    keys = _all_from_json(raw)
    # strictly ascending bytes are distinct, and equal keys share their
    # bytes (`_KEY_BYTES` finds the first one's), so the keys are distinct
    k_bytes = list(map(_KEY_BYTES.__getitem__, keys))
    if not all(map(operator.lt, k_bytes, k_bytes[1:])):
        raise ValueError("keys not distinct and sorted by repr")
    size = _array(cols["size"], "iu").astype(np.intp)
    rhs = _array(cols["rhs"], "iuf").astype(float)
    key = _array(cols["key"], "iu")
    coeff = _array(cols["coeff"], "iuf").astype(float)
    n = len(kind)
    if not len(support) == len(rhs) == len(size) == n or (size < 0).any() \
            or not len(key) == len(coeff) == size.sum():
        raise ValueError("columns of unequal lengths")
    basis = doc.get("basis")
    if basis is not None:  # letter strings by key and by cut
        columns = _letters(basis["columns"], _OR_NONE)
        letters = _letters(basis["cuts"], _OR_NONE)
        if len(columns) != len(keys) or len(letters) != n:
            raise ValueError("basis letters of the wrong length")
        basis = SavedBasis(
            columns=dict(zip(keys, columns)) if "-" not in columns else
            {k: s for k, s in zip(keys, columns) if s != "-"},
            base_rows=_letters(basis["base_rows"], _LETTERS), cuts=letters)
    return keys, (kind, _all_from_json(support), size, rhs, key, coeff), \
        basis


def _read_lines(stream, version: int):
    """Version 1 or 2 records: (keys, columns (see `_first_bad_cut`),
    basis record or None (see `_basis_from_json`), the record number of
    each cut, the number of the first malformed record or None).  Reading
    stops at the first malformed record."""
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
    cols = (kind, list(map(_key_from_json, support)), np.array(size, np.intp),
            np.array(rhs, float), key[order], np.array(coeff, float)[order])
    return keys, cols, basis, records, num


def _first_bad_cut(cols, n_keys: int):
    """The index of the first malformed cut, or None, and the largest
    coefficient magnitude of each cut, of a cut file's columns: (kind,
    provenance, size, rhs, key, coeff), the kinds and provenance lists,
    the terms' keys indices into a list of `n_keys` keys.  A cut is
    malformed when its kind is no string, it has no term, a key index is
    out of range or not above the one before, a number is not finite, or
    no coefficient is nonzero.
    """
    kind, _, size, rhs, key, coeff = cols
    # a cut without terms keeps the norm 0, so it is bad below
    bad = np.array([type(k) is not str for k in kind], bool) \
        | ~np.isfinite(rhs)
    cut_of = np.arange(len(size)).repeat(size)
    term_bad = ~np.isfinite(coeff) | (key < 0) | (key >= n_keys)
    term_bad[1:] |= (key[1:] <= key[:-1]) & (cut_of[1:] == cut_of[:-1])
    bad[cut_of[term_bad]] = True
    norms = np.zeros(len(size))
    some = size > 0
    if some.any():
        starts = size.cumsum() - size
        norms[some] = np.maximum.reduceat(np.abs(coeff), starts[some])
    bad |= ~(norms > 0.0)
    first = bad.nonzero()[0]
    return (int(first[0]) if first.size else None), norms


def _unknown(keys: list, key: np.ndarray, model) -> np.ndarray:
    """Per key of `keys`, whether a cut names it (by the indices `key`)
    and `model` neither has nor can add it; `model` is asked once about
    each key a cut names."""
    named = np.zeros(len(keys), bool)
    named[key] = True
    has = model.has_variable
    return np.array([used and not has(k)
                     for k, used in zip(keys, named.tolist())], bool)


def load_cuts(stream, model=None) -> tuple[CutPool, int]:
    """Read a cut file of any version; returns (pool, skipped count).

    Cuts naming a variable `model` neither has nor can add (see
    `RelaxationModel.has_variable`) are skipped.  `model` is asked once
    about each key of the file's key table that a cut names, and the pool
    records its network, if it has one, as `checked_on`.  Without a model
    every well-formed cut is kept, in the file's order, hash order.  The
    pool carries the file's basis, if it has one, with the letters of the
    cuts it keeps.
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
    version = header.get("v") if isinstance(header, dict) else None
    # an int, not a bool or a float that equals one
    if type(version) is not int or version not in (1, 2, 3) \
            or header.get("fmt") != "cutpool":
        raise CutFileError("unsupported cut file header %r" % (header,),
                           record=0)

    def malformed(num):
        return CutFileError("malformed cut record %d (last good record %d)"
                            % (num, num - 1), record=num)

    if version == 3:
        text = stream.read()  # a decode error is no malformed record
        try:
            keys, cols, basis = _read_v3(text)
        except _MALFORMED:
            raise malformed(1)
        records, stop = None, None
    else:
        keys, cols, basis, records, stop = _read_lines(stream, version)
    first, norms = _first_bad_cut(cols, len(keys))
    if first is not None:
        raise malformed(1 if records is None else records[first])
    if stop is not None:
        raise malformed(stop)

    kind, provenance, size, rhs, key, coeff = cols
    n = len(size)
    table = np.fromiter(keys, object, len(keys))
    cuts = CutBlock(np.fromiter(kind, object, n),
                    np.fromiter(provenance, object, n), size, rhs, norms,
                    np.zeros(n), table[key], coeff)
    skip = None
    if model is not None:
        unknown = _unknown(keys, key, model)
        if unknown.any():
            skip = np.bincount(cuts.cut_of[unknown[key]], minlength=n) > 0
    if version != 3:  # the cuts in hash order, as version 3 keeps them
        hashes = cut_hashes(cuts)
        order = sorted(range(n), key=hashes.__getitem__)
        cuts = cuts.take(order)
        if skip is not None:
            skip = skip[order]
        if basis is not None:
            columns, base_rows, by_hash = basis
            basis = SavedBasis(columns, base_rows, "".join(
                [by_hash.get(h, "-") for h in sorted(hashes)]))
    pool = CutPool(cuts, basis, getattr(model, "network", None))
    if skip is None:
        return pool, 0
    return pool.take(~skip), int(skip.sum())

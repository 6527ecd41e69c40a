"""Deterministic K-nearest-neighbor rule over haversine distance.

One exact batched query serves every caller (fit, prediction, local Moran).
A cheap key, the cosine of the central angle, picks the candidates; the final
rank is on (haversine distance, original index), so ties always break toward
the smaller index and the neighborhood is a pure function of the input table.

The key is only computed against a target's nearby points. The pool's unit
vectors are binned into cubes of side s = 2**-level; a target's candidates
are the points of the 3x3x3 block of cells around its own. A point outside
the block differs from the target, on some axis, by at least that axis's
distance from the target to the block's face; the smallest of the three,
the row's clearance (always >= s), bounds every outside point's key by
1 - clearance**2 / 2 (plus rounding). A row whose k-th key, less MARGIN,
clears that bound cannot miss a point the full scan would gather, and it is
answered by the same gather and re-rank as the full scan: members and
distances agree bit for bit. Each target starts at the finest level whose
block holds FILL * k points, found by a walk from a level set by the pool's
size and spread; a row that fails its bound retries one level coarser. The
coarsest level is the full scan (every point is a candidate), which is also
taken wherever a block would hold more than FULL_SCAN_SHARE of the pool.
The rows of one cell share their block: its points are gathered once and
keyed against all of those rows by one matrix product, many cells to a
product of at most BATCH_ELEMENTS keys, the package's one batch budget. A
loop over a known number of rows (the fit's chunks, the Moran adjacency's
batches, the CSV writer's blocks) cuts them into the equal batches of
batches(n, width); the query's streamed loops, whose rows come as they
are answered, take batch_rows(width) of them at a time. Grids are built
for the levels in use, and a level's grid is dropped once every row has
gone coarser than it.

The query runs in two stages. The wide stage (_gathered), per key block,
finds each row's k-th key, checks the row's bound and gathers every
candidate within MARGIN of that key as pool indices. The narrow stage
(_rerank) computes the candidates' haversine distances and sorts them,
batch_rows(4 * k) rows at a time collected across key blocks and levels
(a row's re-rank holds about four k-wide arrays), fewer where their
padded candidates would pass BATCH_ELEMENTS. It sorts each row on distance
alone, and on (distance, index) only where an exact tie among its first
k + 1 distances could make the two differ. Rows are independent of their
blocks and batches, so neither moves a bit of the result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geo import haversine_between, haversine_table, unit_vectors

# Elements held per batch by every batched loop of the package: the
# query's cosine keys per block of targets and its re-rank's rows here (four
# k-wide arrays a row), and in engine, diagnostics and cli the fit's
# (chunk, K) arrays, the Moran adjacency's member rows and the records
# writer's cells. A loop over n known rows of width elements takes the
# equal batches of batches(n, width), a streamed loop batch_rows(width)
# rows at a time, so a batch costs about the same elements whatever its
# width. The cap keeps peak memory near that of a one-row-at-a-time pass (a
# larger batch measurably raises peak RSS), while a batch is wide enough
# that its time goes to arithmetic, not to per-call overhead.
BATCH_ELEMENTS = 1 << 15

# Cosine slack of the candidate gather. With u = 2**-53, the key (a dot
# product of unit vectors built from rounded sin/cos, |sum of terms| <= 1) is
# within ~20u ~ 2.2e-15 of the true cosine at any separation, whichever
# order its three products are summed in and with or without fused
# multiply-adds, as a BLAS matrix product may compute it. The haversine
# distance d, read as cos(d / R) = 1 - 2s, is within ~34u ~ 3.8e-15 of it:
# s, a sum of two nonnegative rounded products, is off by at most ~12u, and
# sqrt, arcsin and the scaling add ~10u. The bound is in cosine units, so it
# holds where the angle itself is ill-conditioned: below ~0.2 m (~3e-8 rad)
# key rounding exceeds 1 - cos, so keys cannot order a sub-millimetre cluster,
# and near the antipode arcsin's slope turns the same s error into up to
# ~1e-7 rad. A point the exact sort ranks ahead of one of the k largest keys
# therefore has a key within 2 * (2.2e-15 + 3.8e-15) ~ 1.2e-14 of the k-th
# key; the margin covers that about eighty-fold. (Largest errors seen over
# 4e5 random pairs, antipodal and sub-millimetre ones included: 4u for the
# key, 10u for the haversine.)
MARGIN = 1e-12

# Finest grid level: cubes of side 2**-17, about 49 m on the Earth. Below
# it the smallest acceptance bound, clearance**2 / 2 = s**2 / 2 (2.9e-11
# here), nears the 2 * MARGIN that a row must clear it by.
FINEST_LEVEL = 17
# A target's first level is the finest whose block holds FILL times the
# points a row needs. A disk of radius s, the part of the block a row can
# accept, covers about a third of a block's area.
FILL = 3
# A block holding more than this share of the pool takes the full scan: a
# key there costs a gather, against a slice of one matmul in the full scan.
FULL_SCAN_SHARE = 0.25

# (dx, dy) of the nine columns of a 3x3x3 block
_COLUMNS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])


def batch_rows(width):
    """The rows of width elements each that one batch of a streamed loop
    takes: max(1, BATCH_ELEMENTS // width)."""
    return max(1, BATCH_ELEMENTS // width)


def batches(n, width):
    """n rows of width elements each cut into equal batches, as slices that
    cover range(n) in order: n * width / BATCH_ELEMENTS batches, rounded
    half up to an integer in [1, max(n, 1)], whose sizes differ by at most
    one row (the larger first). No batch is a small tail, and none holds
    1.5 * BATCH_ELEMENTS elements or more unless one row holds more than
    half of them. n = 0 gives one empty batch."""
    count = max(1, min(n, (2 * n * width + BATCH_ELEMENTS) // (2 * BATCH_ELEMENTS)))
    size, extra = divmod(n, count)
    edges = [b * size + min(b, extra) for b in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


class ConfigurationError(ValueError):
    """A configuration or input the data cannot satisfy; the CLI exits 2 on it."""


@dataclass(frozen=True)
class Neighborhood:
    """One target's neighbors as (K,) arrays, or a stack of them as (C, K)."""

    member_indices: np.ndarray
    distances: np.ndarray


class _Grid:
    """The pool's unit vectors binned into cubes of side 2**-level.

    A cell is floor(p * 2**level) per axis, exact for a power of two. Points
    are sorted by a cell key that runs fastest along z, so the 3x3x3 block
    around a cell is nine contiguous runs of the sorted order.
    """

    def __init__(self, pool, level):
        self._pool = pool
        self._scale = 2.0 ** level
        # cell coordinates run over [-2**level, 2**level]; a block reaches one
        # cell further each way
        self._offset = (1 << level) + 1
        self._width = 2 * self._offset + 1
        keys = self.cells(pool)
        self.order = np.argsort(keys, kind="stable")
        self._keys = keys[self.order]
        # a block's first key in each column, relative to its centre cell's key
        self._columns = (_COLUMNS[:, 0] * self._width + _COLUMNS[:, 1]) * self._width - 1

    @cached_property
    def points(self):
        """The unit vectors in the sorted order."""
        return self._pool[self.order]

    def cells(self, points):
        """The cell key of each (..., 3) point."""
        c = np.floor(points * self._scale).astype(np.int64) + self._offset
        return (c[..., 0] * self._width + c[..., 1]) * self._width + c[..., 2]

    def clearance(self, points):
        """Each (..., 3) point's smallest distance, over the three axes, to a
        face of the block around its cell: a point outside the block differs
        from it by at least this on some axis. At least s."""
        scaled = points * self._scale
        # the point's place in its cell, in cells: the block reaches 1 + frac
        # below it and 2 - frac above it
        frac = scaled - np.floor(scaled)
        near = np.minimum(1.0 + frac, 2.0 - frac)
        return np.minimum(np.minimum(near[..., 0], near[..., 1]), near[..., 2]) / self._scale

    def blocks(self, points):
        """(cell_of, starts, lengths) of the G distinct cells of the points:
        each point's cell as an index in [0, G), and where the nine runs of
        the block around each cell start in the sorted order and how many
        points each holds, (G, 9) each."""
        cells, cell_of = np.unique(self.cells(points), return_inverse=True)
        first = cells[:, None] + self._columns
        starts = np.searchsorted(self._keys, first, "left")
        return cell_of, starts, np.searchsorted(self._keys, first + 2, "right") - starts


class _Grids(dict):
    """The grid of each level, built when first asked for."""

    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def __missing__(self, level):
        grid = self[level] = _Grid(self.pool, level)
        return grid


def _ragged_arange(starts, lengths):
    """arange(s, s + l) of each (s, l) pair, concatenated."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _take_rows(a, columns, rows=None):
    """a[rows[i], columns[i, j]] of a 2-D a, for rows (default: row i of
    columns reads row i of a), as one take from the flattened array: cheaper
    than take_along_axis or two index arrays."""
    if rows is None:
        rows = np.arange(columns.shape[0])
    return np.take(a, columns + a.shape[1] * rows[:, None])


def _start_level(pool, need):
    """The level nearest the one whose block holds need points about a
    typical point of the pool, were its density that of a Gaussian with the
    pool's spread: the two largest eigenvalues l1, l2 of the unit vectors'
    covariance give a peak density N / (2 pi sqrt(l1 l2)), a typical point
    sees half of it, and a block's section of the sphere is about 9 s**2.
    Clamped to [0, FINEST_LEVEL]; a pool with no spread (coincident points)
    starts finest."""
    l2, l1 = np.linalg.eigvalsh(np.cov(pool, rowvar=False))[1:]
    spread = math.sqrt(max(l1, 0.0) * max(l2, 0.0))
    if spread == 0.0:
        return FINEST_LEVEL
    level = round(0.5 * math.log2(9.0 * pool.shape[0] / (need * 4.0 * math.pi * spread)))
    return min(max(level, 0), FINEST_LEVEL)


def _first_levels(grids, targets, need):
    """Each target's finest level in [0, FINEST_LEVEL] whose block holds at
    least need points, or -1 (the full scan). Block counts nest across
    levels (a block lies inside its coarser level's block), so a walk from
    any level finds it: a row whose block holds need points goes finer until
    it does not, any other goes coarser until it does. The walk starts at
    _start_level of the pool, where most rows need one or two probes."""

    def holds(level, rows):
        cell_of, _, lengths = grids[level].blocks(targets[rows])
        return np.sum(lengths, axis=-1)[cell_of] >= need

    start = _start_level(grids.pool, need)
    first = np.full(targets.shape[0], -1)
    held = holds(start, np.arange(targets.shape[0]))
    finer, coarser = np.flatnonzero(held), np.flatnonzero(~held)
    first[finer] = start
    for level in range(start + 1, FINEST_LEVEL + 1):
        if not finer.shape[0]:
            break
        finer = finer[holds(level, finer)]
        first[finer] = level
    for level in range(start - 1, -1, -1):
        if not coarser.shape[0]:
            break
        held = holds(level, coarser)
        first[coarser[held]] = level
        coarser = coarser[~held]
    return first


def _key_blocks(grids, level, pool, targets, rows):
    """The cosine keys of rows at level (-1: the full scan), in blocks:
    yields (block rows, keys, grid, positions, row_piece).

    A grid level cuts each cell's rows into pieces whose keys fit
    BATCH_ELEMENTS (one piece unless the cell holds very many rows) and
    orders them by the octave of their block's size, then by the rows in
    their cell, so that the pieces of one block pad little in either
    direction. A block of pieces gathers each piece's block points once,
    padded to the widest, and keys all of the piece's rows by one batched
    matmul; padding columns are -inf. positions (pieces, width) holds each
    key column's place in grid.order, and row_piece each row's piece. A
    full-scan row's key columns are the whole pool in index order (grid,
    positions and row_piece None). A row whose block holds more than
    FULL_SCAN_SHARE of the pool is given the full scan instead. No padded
    product holds more than BATCH_ELEMENTS keys unless one row's block
    does."""
    n = pool.shape[0]
    full = rows
    if level >= 0:
        grid = grids[level]
        cell_of, starts, lengths = grid.blocks(targets[rows])
        size = np.sum(lengths, axis=-1)
        small = size[cell_of] <= FULL_SCAN_SHARE * n
        full = rows[~small]
        rows, cell_of = rows[small], cell_of[small]
        # each cell's place in the order: (octave of its block size, its
        # rows, the cell) as one integer, below 64 * (rows + 1) * cells
        octave = np.frexp(size)[1].astype(np.int64)
        held = np.bincount(cell_of, minlength=size.shape[0])
        place = (octave * (rows.shape[0] + 1) + held) * size.shape[0] + np.arange(size.shape[0])
        order = np.argsort(place[cell_of], kind="stable")
        rows, cell_of = rows[order], cell_of[order]
        # a piece is a run of one cell's rows whose keys alone fit a block
        cap = np.maximum(1, BATCH_ELEMENTS // size[cell_of])
        first = np.ones(rows.shape[0], dtype=bool)
        first[1:] = cell_of[1:] != cell_of[:-1]
        # each row's place in its piece
        rank = np.arange(rows.shape[0])
        rank = (rank - np.maximum.accumulate(np.where(first, rank, 0))) % cap
        piece_start = np.flatnonzero(rank == 0)
        piece_rows = np.diff(np.append(piece_start, rows.shape[0]))
        piece_cell = cell_of[piece_start]
        piece_width = size[piece_cell]
        a = 0
        while a < piece_start.shape[0]:
            # the most pieces from a whose padded product (pieces x most rows
            # x widest block) holds at most BATCH_ELEMENTS keys
            span = slice(a, a + batch_rows(int(piece_width[a])))
            cost = (np.arange(1, piece_rows[span].shape[0] + 1)
                    * np.maximum.accumulate(piece_rows[span])
                    * np.maximum.accumulate(piece_width[span]))
            b = a + max(1, int(np.searchsorted(cost, BATCH_ELEMENTS, "right")))
            cells, counts = piece_cell[a:b], piece_rows[a:b]
            w = int(piece_width[a:b].max())
            block = rows[piece_start[a]:piece_start[b - 1] + counts[-1]]
            row_piece = np.repeat(np.arange(b - a), counts)
            slot = rank[piece_start[a]:piece_start[a] + block.shape[0]]
            a = b
            positions = np.zeros((cells.shape[0], w), dtype=np.intp)
            pad = np.arange(w) >= size[cells, None]
            positions[~pad] = _ragged_arange(starts[cells].ravel(), lengths[cells].ravel())
            t = np.zeros((cells.shape[0], int(counts.max()), 3))
            t[row_piece, slot] = targets[block]
            # take, unlike [] indexing, copies each point's three coordinates at once
            keys = np.matmul(t, np.swapaxes(np.take(grid.points, positions, axis=0), -1, -2))
            np.copyto(keys, -np.inf, where=pad[:, None, :])
            # pieces of equal rows hold no padding row
            keys = keys.reshape(-1, w) if counts.min() == counts.max() else keys[row_piece, slot]
            yield block, keys, grid, positions, row_piece
    step = batch_rows(n)
    for start in range(0, full.shape[0], step):
        block = full[start:start + step]
        yield block, targets[block] @ pool.T, None, None, None


def _gathered(grids, pool, targets, level, k):
    """The wide stage: each row's candidates, by key blocks over its levels
    (level: each row's first, -1 the full scan). Yields (rows, count, cand)
    per key block: the rows it answers, how many candidates each gathered,
    and their pool indices, row after row. A grid row whose k-th key does not
    clear its block's bound is keyed again one level coarser (level is
    lowered in place), once every level has had its rows."""
    limit = np.empty(targets.shape[0])
    rows = np.arange(targets.shape[0])
    while rows.shape[0]:
        # rows only retry coarser, so a grid finer than every row's level (a
        # probe of _first_levels, or a level every row has left) is dropped
        for finer in [lv for lv in grids if lv > level[rows].max()]:
            del grids[finer]
        retry = []
        for lv in np.unique(level[rows])[::-1]:
            at = rows[level[rows] == lv]
            if lv >= 0:
                # a point outside the row's block is at chord >= its
                # clearance, so its key is at most 1 - clearance**2 / 2,
                # give or take a few ulp: a row whose k-th key clears that by
                # MARGIN gathers every point the full scan would
                clearance = grids[lv].clearance(targets[at])
                limit[at] = 1.0 - 0.5 * clearance * clearance + MARGIN
            for block, cos, grid, positions, row_piece in _key_blocks(grids, lv, pool, targets, at):
                w = cos.shape[1]
                # a copy: a view would hold the whole partitioned array
                kth = np.partition(cos, w - k, axis=-1)[:, w - k].copy()
                # every candidate within MARGIN of the k-th key
                flat = np.flatnonzero(cos >= (kth - MARGIN)[:, None])
                count = np.diff(np.searchsorted(flat, np.arange(block.shape[0] + 1) * w))
                if grid is not None:
                    ok = kth - MARGIN > limit[block]
                    if not ok.all():
                        retry.append(block[~ok])
                        flat = flat[np.repeat(ok, count)]
                        block, count, row_piece = block[ok], count[ok], row_piece[ok]
                        if not block.shape[0]:
                            continue
                cand = flat % w
                if grid is not None:
                    cand = grid.order[np.take(positions, cand + np.repeat(row_piece * w, count))]
                yield block, count, cand
        rows = np.concatenate(retry) if retry else rows[:0]
        level[rows] -= 1


def _batches(pieces, size):
    """The rows of pieces, each (rows, count, cand) as _gathered yields
    them, re-cut into batches of size rows, the last holding the rest. A
    batch takes fewer rows where its padded candidates (rows x most
    gathered) would pass BATCH_ELEMENTS, unless its first row's do. Rows
    are held until they fill a batch, so each is copied at most twice."""
    held, n_held, widest = [], 0, 0
    for piece in itertools.chain(pieces, [None]):
        if piece is not None:
            held.append(piece)
            n_held += piece[0].shape[0]
            widest = max(widest, int(piece[1].max()))
            if n_held < size and n_held * widest <= BATCH_ELEMENTS:
                continue
        if not n_held:
            return
        rows, count, cand = (np.concatenate(a) for a in zip(*held))
        r = c = 0
        while r < n_held:
            cost = np.arange(1, min(size, n_held - r) + 1) * np.maximum.accumulate(count[r:r + size])
            take = max(1, int(np.searchsorted(cost, BATCH_ELEMENTS, "right")))
            if piece is not None and take == n_held - r < size:
                # the rest fills no batch yet
                break
            end = c + int(count[r:r + take].sum())
            yield rows[r:r + take], count[r:r + take], cand[c:end]
            r, c = r + take, end
        held, n_held = [(rows[r:], count[r:], cand[c:])], n_held - r
        widest = int(count[r:].max()) if n_held else 0


def _rerank(table, target_table, k, rows, count, cand):
    """The narrow stage: the k nearest of each row's candidates (rows,
    count and cand as _batches yields them) on (haversine distance, index),
    as (members, distances), each (rows, k). The haversine terms of the
    candidates are gathered from table (the pool's) and target_table."""
    # a row with fewer candidates than the widest is padded at distance inf
    gathered = np.arange(count.max()) < count[:, None]
    cand_2d = np.zeros(gathered.shape, dtype=np.intp)
    cand_2d[gathered] = cand
    cand_d = haversine_between(np.take(table, cand_2d, axis=1), target_table[:, rows, None])
    np.copyto(cand_d, np.inf, where=~gathered)
    # a row with no exact tie among its first k + 1 distances has unique
    # first k, which the (distance, index) sort takes in the same order:
    # only a tied row needs the index as second key
    order = np.argsort(cand_d, axis=-1)
    head = _take_rows(cand_d, order[:, :k + 1])
    tied = np.flatnonzero(np.any(head[:, 1:] == head[:, :-1], axis=-1))
    if tied.shape[0]:
        order[tied] = np.lexsort((cand_2d[tied], cand_d[tied]))
    order = order[:, :k]
    return _take_rows(cand_2d, order), _take_rows(cand_d, order)


def knn(lats, lons, target_lats, target_lons, k):
    """The k nearest points to each target by haversine distance.

    Returns (members, distances), (C, K) arrays in ascending (distance, index)
    order. Each row ranks its candidates (the points of its grid block, or
    every point) by the cosine of their central angle, gathers every
    candidate whose cosine is within MARGIN of the k-th largest (boundary ties
    and near-ties included), and sorts only those on (haversine distance,
    index), batch_rows(4 * k) rows at a time.
    A grid row whose k-th cosine does not clear its own block's bound (set
    by its clearance) retries one level coarser.
    """
    lats, lons, target_lats, target_lons = (
        np.asarray(a, dtype=np.float64) for a in (lats, lons, target_lats, target_lons))
    n = lats.shape[0]
    if k < 1 or k > n:
        raise ConfigurationError(f"K={k} outside the eligible range [1, {n}]")

    pool = unit_vectors(lats, lons)
    targets = unit_vectors(target_lats, target_lons)
    # the re-rank gathers each point's haversine terms, computed once here
    table = haversine_table(lats, lons)
    target_table = haversine_table(target_lats, target_lons)
    members = np.empty((targets.shape[0], k), dtype=np.intp)
    distances = np.empty(members.shape, dtype=np.float64)
    grids = _Grids(pool)
    need = FILL * k
    if need > FULL_SCAN_SHARE * n:
        level = np.full(targets.shape[0], -1)
    else:
        level = _first_levels(grids, targets, need)
    # a row's re-rank holds about four k-wide arrays: the three gathered
    # haversine terms and the distances
    for rows, count, cand in _batches(_gathered(grids, pool, targets, level, k), batch_rows(4 * k)):
        members[rows], distances[rows] = _rerank(table, target_table, k, rows, count, cand)
    return members, distances

//! Spatially-tiled simulation engine with a conservative time-window
//! barrier, plus the single-queue canonical reference engine it is
//! differentially tested against.
//!
//! # Why tiles
//!
//! The classic [`Simulator`](crate::sim::Simulator) keeps one calendar
//! queue and one flat state vector for the whole field. Past ~10⁴
//! nodes the queue and the scattered per-node state stop fitting in
//! cache and member-epochs/s collapses. Radio range bounds who can
//! affect whom, and the radio's base propagation delay bounds *when*:
//! a message transmitted at time `t` cannot be delivered before
//! `t + delay`. That is a classic conservative-PDES lookahead, so the
//! field can be partitioned into spatial tiles that each own their own
//! event queue, payload arena, and structure-of-arrays node state, and
//! run completely independently inside a time window of width `delay`.
//! Cross-tile deliveries are exchanged at the window barrier — they
//! always land in a later window, so no rollback is ever needed.
//!
//! # The tile event queue
//!
//! A tile does not use the calendar queue of `sim.rs`, nor a binary
//! heap: the same lookahead means a delivery always fires in a later
//! window than the one that sent it, and the protocol is
//! round-synchronous, so a tile's pending events are a few large
//! bursts that share a fire instant. Each tile keeps **one buffer
//! sorted a time-slab at a time** (`SlabQueue`, DESIGN.md §14 "Tile
//! event queue"): pushes append, the earliest slab is partitioned to
//! the front and sorted when the previous one runs dry, pops advance a
//! cursor, and the rare push into the already-open slab goes to a
//! small side heap. [`CanonicalSim`] keeps the plain binary heap
//! (`EventHeap`) — it is the specification, not the fast path.
//!
//! # Determinism contract (tile-count *and* worker-count invariance)
//!
//! Both engines in this module order events by the globally unique,
//! locally computable key `(fire_time, EventPrio)` where [`EventPrio`]
//! is `(birth_time, scheduling node, per-node sequence number)`. The
//! key is assigned where the event is *created*, so it is identical no
//! matter which tile — or which worker thread — processes it. All
//! randomness is drawn from per-node RNG streams
//! (`derive_seed(master, 1 + node)`), and a transmission's draws all
//! come from the *sender's* stream in neighbour order. Consequently
//! traces, metrics, per-node energy (bit-exact `f64`), and actor state
//! are byte-identical for any tile grid (1×1 … n×m) and any worker
//! count, which `tests/differential_tiling.rs` asserts.
//!
//! [`CanonicalSim`] is the executable specification: a deliberately
//! simple single-heap engine with the same key, streams, and
//! callbacks. [`TiledSim`] is the fast one. Note both differ from the
//! legacy `Simulator` (global RNG, insertion-order tie-breaks): the
//! legacy engine's semantics cannot be reproduced under tiling and are
//! left untouched.

use crate::actor::{Actor, Command, Ctx, TimerToken};
use crate::checkpoint::{self, CheckpointError, Persist, Reader, Writer};
use crate::energy::EnergyModel;
use crate::event::EventKind;
use crate::geometry::Point;
use crate::id::NodeId;
use crate::loss::{LossModel, LossSnapshot};
use crate::metrics::SimMetrics;
use crate::radio::RadioConfig;
use crate::rng::derive_seed;
use crate::sim::{unpack_timer, PayloadArena, PayloadId, TimerSlab};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{Trace, TraceKind, TraceRecord};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The `node` value [`EventPrio`] uses for externally scheduled events
/// (crash/join/leave/rejoin injected by a harness rather than by a
/// node's own activity). Real node ids are always smaller.
pub const EXTERNAL_NODE: u32 = u32::MAX;

/// Canonical tie-breaking priority of one scheduled event.
///
/// `(birth, node, seq)` — the instant the event was created, the node
/// (or [`EXTERNAL_NODE`]) that created it, and that creator's
/// monotonically increasing sequence number. Together with the fire
/// time this forms a strict total order over all events that is (a)
/// globally unique, (b) computable locally by the scheduling tile, and
/// (c) consistent with causality, because an effect's fire time is
/// strictly after its cause's (the radio delay is at least 1 µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventPrio {
    /// When the event was scheduled.
    pub birth: SimTime,
    /// Scheduling node id, or [`EXTERNAL_NODE`].
    pub node: u32,
    /// Per-creator sequence number (each scheduled copy gets its own).
    pub seq: u64,
}

crate::impl_persist!(EventPrio { birth, node, seq });

// ------------------------------------------------------------ windows

/// The index of the synchronization window containing `at`, for
/// barrier width `width`: window `k` spans `[k·width, (k+1)·width)`.
/// An event exactly at a barrier belongs to the *next* window.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn window_index(at: SimTime, width: SimDuration) -> u64 {
    assert!(!width.is_zero(), "window width must be positive");
    at.as_micros() / width.as_micros()
}

/// The exclusive upper bound of window `index` (its barrier instant).
pub fn window_end(index: u64, width: SimDuration) -> SimTime {
    SimTime::from_micros((index + 1).saturating_mul(width.as_micros()))
}

/// The barrier width the engine derives from a radio: its base
/// propagation delay. Jitter, per-link lag, and duplication lag only
/// *add* latency, so `delay` is a true lower bound on cross-tile
/// message latency — the conservative lookahead.
pub fn lookahead_of(radio: &RadioConfig) -> SimDuration {
    radio.delay()
}

// ---------------------------------------------------------- tile grid

/// A rectangular partition of the field into `gx × gy` tiles, derived
/// from the bounding box of the node positions. Row-major tile ids:
/// `tile = cy * gx + cx`.
#[derive(Debug, Clone, PartialEq)]
pub struct TileGrid {
    gx: u32,
    gy: u32,
    min_x: f64,
    min_y: f64,
    cell_w: f64,
    cell_h: f64,
}

impl TileGrid {
    /// Builds the grid over the bounding box of `positions`.
    ///
    /// # Panics
    ///
    /// Panics if `gx` or `gy` is zero.
    pub fn new(positions: &[Point], gx: u32, gy: u32) -> Self {
        assert!(gx >= 1 && gy >= 1, "tile grid must be at least 1x1");
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if positions.is_empty() {
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        Self::from_bounds(min_x, min_y, max_x, max_y, gx, gy)
    }

    /// Builds the grid over an explicit bounding box (the proptest
    /// entry point — stability properties are easiest to state on a
    /// fixed box).
    ///
    /// # Panics
    ///
    /// Panics if `gx`/`gy` is zero or the box is inverted.
    pub fn from_bounds(min_x: f64, min_y: f64, max_x: f64, max_y: f64, gx: u32, gy: u32) -> Self {
        assert!(gx >= 1 && gy >= 1, "tile grid must be at least 1x1");
        assert!(max_x >= min_x && max_y >= min_y, "inverted bounding box");
        TileGrid {
            gx,
            gy,
            min_x,
            min_y,
            cell_w: (max_x - min_x) / gx as f64,
            cell_h: (max_y - min_y) / gy as f64,
        }
    }

    /// Grid width in tiles.
    pub fn gx(&self) -> u32 {
        self.gx
    }

    /// Grid height in tiles.
    pub fn gy(&self) -> u32 {
        self.gy
    }

    /// Total tile count.
    pub fn len(&self) -> usize {
        (self.gx as usize) * (self.gy as usize)
    }

    /// Always false — a grid has at least one tile.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `(cx, cy)` cell containing `p`, clamped into the grid (a
    /// point outside the bounding box maps to the nearest edge cell,
    /// so no position can produce an out-of-range tile).
    pub fn cell_of(&self, p: Point) -> (u32, u32) {
        (
            clamp_axis(p.x - self.min_x, self.cell_w, self.gx),
            clamp_axis(p.y - self.min_y, self.cell_h, self.gy),
        )
    }

    /// Row-major tile id of the cell containing `p`.
    pub fn tile_of(&self, p: Point) -> u32 {
        let (cx, cy) = self.cell_of(p);
        cy * self.gx + cx
    }

    /// The half-open spatial bounds `(x0, y0, x1, y1)` of cell
    /// `(cx, cy)`. Edge cells additionally absorb everything beyond
    /// the bounding box.
    pub fn cell_bounds(&self, cx: u32, cy: u32) -> (f64, f64, f64, f64) {
        (
            self.min_x + self.cell_w * cx as f64,
            self.min_y + self.cell_h * cy as f64,
            self.min_x + self.cell_w * (cx + 1) as f64,
            self.min_y + self.cell_h * (cy + 1) as f64,
        )
    }

    /// Distance from `p` to the nearest boundary of its own cell: any
    /// drift strictly smaller than this keeps the point in the same
    /// tile (the stability margin the proptests exercise). Infinite
    /// for degenerate (zero-area) grids, where every point maps to one
    /// column/row anyway.
    pub fn boundary_margin(&self, p: Point) -> f64 {
        let (cx, cy) = self.cell_of(p);
        let (x0, y0, x1, y1) = self.cell_bounds(cx, cy);
        let mut margin = f64::INFINITY;
        if self.cell_w > 0.0 {
            if cx > 0 {
                margin = margin.min(p.x - x0);
            }
            if cx + 1 < self.gx {
                margin = margin.min(x1 - p.x);
            }
        }
        if self.cell_h > 0.0 {
            if cy > 0 {
                margin = margin.min(p.y - y0);
            }
            if cy + 1 < self.gy {
                margin = margin.min(y1 - p.y);
            }
        }
        margin
    }
}

fn clamp_axis(offset: f64, cell: f64, cells: u32) -> u32 {
    if cell <= 0.0 || !offset.is_finite() {
        return 0;
    }
    let idx = (offset / cell).floor();
    if idx < 0.0 {
        0
    } else if idx >= cells as f64 {
        cells - 1
    } else {
        idx as u32
    }
}

/// A square-ish grid sized so tiles hold roughly `target_per_tile`
/// nodes — the default the benchmarks use.
pub fn suggested_grid(n: usize, target_per_tile: usize) -> (u32, u32) {
    let tiles = (n / target_per_tile.max(1)).max(1);
    let side = (tiles as f64).sqrt().round().max(1.0) as u32;
    (side, side)
}

// --------------------------------------------------------- lazy energy

/// Per-node lazily-credited energy ledger.
///
/// The legacy engine credits solar harvest to *every* node at *every*
/// event, which a tiled engine cannot reproduce without a global
/// barrier per event. Both engines in this module instead credit each
/// node independently, exactly at that node's charge/read instants
/// plus a sync at the end of every `run_until` — the per-node `f64`
/// operation sequence is then identical in both engines, making the
/// energy vectors bit-exact.
#[derive(Debug, Clone)]
struct LazyEnergy {
    model: EnergyModel,
    remaining: Vec<f64>,
    last_credit: Vec<SimTime>,
}

impl LazyEnergy {
    fn new(n: usize, model: EnergyModel) -> Self {
        LazyEnergy {
            model,
            remaining: vec![model.initial; n],
            last_credit: vec![SimTime::ZERO; n],
        }
    }

    /// Credits node `i`'s harvest up to `at` (mirrors
    /// `EnergyBook::harvest` arithmetic exactly).
    fn credit(&mut self, i: usize, at: SimTime) {
        if self.model.harvest_per_sec <= 0.0 {
            return;
        }
        let last = self.last_credit[i];
        if at <= last {
            return;
        }
        self.last_credit[i] = at;
        let secs = at.since(last).as_micros() as f64 / 1e6;
        let gain = self.model.harvest_per_sec * secs;
        if gain <= 0.0 {
            return;
        }
        let r = &mut self.remaining[i];
        *r = (*r + gain).min(self.model.initial);
    }

    fn charge_tx(&mut self, i: usize, at: SimTime) {
        self.credit(i, at);
        let r = &mut self.remaining[i];
        *r = (*r - self.model.tx_cost).max(0.0);
    }

    fn charge_rx(&mut self, i: usize, at: SimTime) {
        self.credit(i, at);
        let r = &mut self.remaining[i];
        *r = (*r - self.model.rx_cost).max(0.0);
    }

    fn read(&mut self, i: usize, at: SimTime) -> f64 {
        self.credit(i, at);
        self.remaining[i]
    }

    fn sync_all(&mut self, at: SimTime) {
        for i in 0..self.remaining.len() {
            self.credit(i, at);
        }
    }
}

/// Population standard deviation of remaining charge — the exact
/// `EnergyBook::imbalance` arithmetic, applied to a gathered vector.
pub fn imbalance_of(remaining: &[f64]) -> f64 {
    let n = remaining.len();
    if n == 0 {
        return 0.0;
    }
    let mean = remaining.iter().sum::<f64>() / n as f64;
    let var = remaining
        .iter()
        .map(|r| (r - mean) * (r - mean))
        .sum::<f64>()
        / n as f64;
    var.sqrt()
}

// ------------------------------------------------------ shared helpers

/// Mirrors `RadioConfig::draw_delay` exactly; both engines share it so
/// their delay draws are draw-for-draw identical.
fn draw_delay(delay: SimDuration, jitter: SimDuration, rng: &mut StdRng) -> SimDuration {
    if jitter.is_zero() {
        delay
    } else {
        delay + SimDuration::from_micros(rng.random_range(0..=jitter.as_micros()))
    }
}

/// The contiguous `link_lag` run of source `from` (same prefetch trick
/// as `Simulator::transmit`).
fn lag_slice(
    link_lag: &[(NodeId, NodeId, SimDuration)],
    from: NodeId,
) -> &[(NodeId, NodeId, SimDuration)] {
    if link_lag.is_empty() {
        return &[];
    }
    let lo = link_lag.partition_point(|&(f, _, _)| f < from);
    let hi = lo + link_lag[lo..].partition_point(|&(f, _, _)| f == from);
    &link_lag[lo..hi]
}

fn assert_lookahead(radio: &RadioConfig) {
    assert!(
        radio.delay() >= SimDuration::from_micros(1),
        "engine requires a radio base delay of at least 1 microsecond \
         (it is the conservative lookahead)"
    );
}

// --------------------------------------------------------- event heap

/// One queued event: fire time, canonical priority, payload.
#[derive(Debug, Clone)]
struct QEntry<M> {
    at: SimTime,
    prio: EventPrio,
    kind: EventKind<M>,
}

impl<M> PartialEq for QEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.prio == other.prio
    }
}
impl<M> Eq for QEntry<M> {}
impl<M> PartialOrd for QEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.prio).cmp(&(other.at, other.prio))
    }
}

/// Min-heap of events ordered by the canonical `(at, prio)` key. Keys
/// are globally unique, so pop order is a strict total order and never
/// depends on heap internals.
#[derive(Debug)]
struct EventHeap<M> {
    heap: BinaryHeap<Reverse<QEntry<M>>>,
}

impl<M> EventHeap<M> {
    fn new() -> Self {
        EventHeap {
            heap: BinaryHeap::new(),
        }
    }

    fn push(&mut self, at: SimTime, prio: EventPrio, kind: EventKind<M>) {
        self.heap.push(Reverse(QEntry { at, prio, kind }));
    }

    /// Pops the next event iff it fires strictly before `lim`.
    fn pop_before(&mut self, lim: SimTime) -> Option<(SimTime, EventPrio, EventKind<M>)> {
        if self.heap.peek().is_some_and(|e| e.0.at < lim) {
            let Reverse(e) = self.heap.pop().expect("peeked entry present");
            Some((e.at, e.prio, e.kind))
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// --------------------------------------------------------- slab queue

/// Sentinel for "no pending fire time" (an empty tail's minimum).
const NEVER: SimTime = SimTime::from_micros(u64::MAX);

/// A tile's run queue: **one buffer, sorted a time-slab at a time**.
///
/// The FDS is round-synchronous, so a tile's events arrive in bursts
/// that share one fire instant; a binary heap pays a full sift-down
/// per pop for an order the burst already (almost) has. Time is cut
/// into slabs `[k·W, (k+1)·W)` aligned like the engine's windows, `W`
/// being the radio base delay the tile was built (or restored) with,
/// so a delivery pushed at `now + delay` lands in a slab that is not
/// open yet:
///
/// * [`push`](Self::push) appends to the unsorted *tail* and tracks
///   the tail's minimum fire time;
/// * when the open slab is exhausted, [`pop_before`](Self::pop_before)
///   drops the consumed prefix, partitions the tail in place to pull
///   the earliest pending slab to the front, sorts that *run* by the
///   canonical `(at, prio)` key and then pops by advancing a cursor;
/// * a push that fires inside or before the open slab (sub-window
///   timers, externals, cross-tile copies after a clipped window, any
///   delivery once `set_radio` shrank the delay below `W`) goes to a
///   small *late* heap that is merged with the run head at pop time.
///
/// Keys are globally unique, so `sort_unstable` yields the one total
/// order and pop order never depends on `W`, on push order or on sort
/// internals. Everything in the run and the late heap fires before
/// `open_end`; everything in the tail fires at or after it.
/// [`peek_time`](Self::peek_time) is exact (minimum of run head, late
/// top, tail minimum) — [`TileSchedule`] derives the next window from
/// it. Worst case is one O(tail) scan per slab opened.
#[derive(Debug)]
struct SlabQueue<M> {
    width: SimDuration,
    /// `[..head]` consumed, `[head..run_end]` the open slab's sorted
    /// run, `[run_end..]` the unsorted tail.
    buf: Vec<QEntry<M>>,
    head: usize,
    run_end: usize,
    /// Exclusive upper bound of the open slab (`ZERO`: none opened).
    open_end: SimTime,
    /// Minimum fire time in the tail ([`NEVER`] when it is empty).
    tail_min: SimTime,
    late: BinaryHeap<Reverse<QEntry<M>>>,
}

impl<M: Clone> SlabQueue<M> {
    /// # Panics
    ///
    /// Panics if `width` is zero.
    fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "slab width must be positive");
        SlabQueue {
            width,
            buf: Vec::new(),
            head: 0,
            run_end: 0,
            open_end: SimTime::ZERO,
            tail_min: NEVER,
            late: BinaryHeap::new(),
        }
    }

    fn push(&mut self, at: SimTime, prio: EventPrio, kind: EventKind<M>) {
        let entry = QEntry { at, prio, kind };
        if at < self.open_end {
            self.late.push(Reverse(entry));
        } else {
            self.tail_min = self.tail_min.min(at);
            self.buf.push(entry);
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        let run = self.buf[..self.run_end].get(self.head).map(|e| e.at);
        let late = self.late.peek().map(|e| e.0.at);
        let tail = (self.run_end < self.buf.len()).then_some(self.tail_min);
        [run, late, tail].into_iter().flatten().min()
    }

    /// Pops the next event iff it fires strictly before `lim`.
    fn pop_before(&mut self, lim: SimTime) -> Option<(SimTime, EventPrio, EventKind<M>)> {
        if self.head == self.run_end && self.late.is_empty() {
            // An empty tail reads NEVER, which no `lim` exceeds.
            if self.tail_min >= lim {
                return None;
            }
            self.open_next_slab();
        }
        let run = self.buf[..self.run_end].get(self.head);
        let entry = match self.late.peek() {
            Some(Reverse(late)) if run.is_none_or(|r| late < r) => {
                if late.at >= lim {
                    return None;
                }
                self.late.pop().expect("peeked entry present").0
            }
            _ => {
                let r = run.filter(|r| r.at < lim)?.clone();
                self.head += 1;
                r
            }
        };
        Some((entry.at, entry.prio, entry.kind))
    }

    /// Makes the slab holding the tail's earliest entry the open one:
    /// its entries move to the front of the buffer (keeping their push
    /// order, which is almost the key order) and are sorted.
    fn open_next_slab(&mut self) {
        debug_assert!(self.head == self.run_end && self.late.is_empty());
        debug_assert!(self.tail_min < NEVER, "no slab to open");
        self.buf.drain(..self.head);
        self.open_end = window_end(window_index(self.tail_min, self.width), self.width);
        let mut run_end = 0;
        let mut tail_min = NEVER;
        for i in 0..self.buf.len() {
            let at = self.buf[i].at;
            if at < self.open_end {
                if run_end != i {
                    self.buf.swap(run_end, i);
                }
                run_end += 1;
            } else {
                tail_min = tail_min.min(at);
            }
        }
        self.buf[..run_end].sort_unstable();
        self.head = 0;
        self.run_end = run_end;
        self.tail_min = tail_min;
    }

    fn len(&self) -> usize {
        self.buf.len() - self.head + self.late.len()
    }

    /// Pending entries sorted by the canonical key — the checkpoint
    /// image. Slab state is never persisted, so the bytes depend only
    /// on the queue's contents.
    fn sorted_entries(&self) -> Vec<(SimTime, EventPrio, EventKind<M>)> {
        let mut entries: Vec<_> = self.buf[self.head..]
            .iter()
            .chain(self.late.iter().map(|Reverse(e)| e))
            .map(|e| (e.at, e.prio, e.kind.clone()))
            .collect();
        entries.sort_by_key(|&(at, prio, _)| (at, prio));
        entries
    }

    fn from_entries(entries: Vec<(SimTime, EventPrio, EventKind<M>)>, width: SimDuration) -> Self {
        let mut queue = SlabQueue::new(width);
        for (at, prio, kind) in entries {
            queue.push(at, prio, kind);
        }
        queue
    }
}

// ----------------------------------------------------- window sched

/// Incrementally maintained minimum over per-tile next-event times: a
/// flat tournament tree.
///
/// Leaf `i` holds tile `i`'s next pending fire time in microseconds
/// (`u64::MAX` = idle); each internal node holds the minimum of its
/// two children. [`TileSchedule::set`] is O(log T), the global minimum
/// is O(1), and [`TileSchedule::collect_before`] enumerates every tile
/// with work before a limit in **ascending tile order** in
/// O(answer·log T) — replacing the O(tiles) `peek_time()` scan the
/// window loop used to pay per window (1,024 probes each at 32×32).
#[derive(Debug, Clone)]
pub struct TileSchedule {
    width: usize,
    tree: Vec<u64>,
}

impl TileSchedule {
    /// A schedule over `tiles` tiles, all initially idle.
    pub fn new(tiles: usize) -> Self {
        let width = tiles.max(1).next_power_of_two();
        TileSchedule {
            width,
            tree: vec![u64::MAX; 2 * width],
        }
    }

    /// Records tile `tile`'s next pending fire time (`None` = idle).
    pub fn set(&mut self, tile: usize, next: Option<SimTime>) {
        let v = next.map_or(u64::MAX, |t| t.as_micros());
        let mut i = self.width + tile;
        if self.tree[i] == v {
            return;
        }
        self.tree[i] = v;
        while i > 1 {
            i >>= 1;
            let m = self.tree[2 * i].min(self.tree[2 * i + 1]);
            if self.tree[i] == m {
                break;
            }
            self.tree[i] = m;
        }
    }

    /// The earliest pending fire time across all tiles, if any.
    pub fn min_time(&self) -> Option<SimTime> {
        let v = self.tree[1];
        (v != u64::MAX).then(|| SimTime::from_micros(v))
    }

    /// Appends to `out` every tile whose next event fires strictly
    /// before `lim`, in ascending tile order (left-first descent over
    /// leaves in tile order) — exactly the tiles `pop_before(lim)`
    /// would find work on.
    pub fn collect_before(&self, lim: SimTime, out: &mut Vec<u32>) {
        self.walk(1, lim.as_micros(), out);
    }

    fn walk(&self, node: usize, lim: u64, out: &mut Vec<u32>) {
        if self.tree[node] >= lim {
            return;
        }
        if node >= self.width {
            out.push((node - self.width) as u32);
            return;
        }
        self.walk(2 * node, lim, out);
        self.walk(2 * node + 1, lim, out);
    }
}

/// Cumulative wall-clock cost of the window loop, split by phase —
/// observational instrumentation for `bench_protocol`'s barrier-cost
/// breakdown. Never feeds back into simulation state, so determinism
/// is untouched; not persisted in checkpoints.
#[derive(Debug, Clone, Copy, Default)]
pub struct BarrierBreakdown {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Seconds inside per-tile `run_window` (the parallel section).
    pub window_exec_s: f64,
    /// Seconds routing cross-tile copies at the barrier.
    pub exchange_s: f64,
    /// Seconds merging per-tile trace buffers.
    pub trace_merge_s: f64,
    /// Seconds maintaining/querying the window schedule.
    pub scheduling_s: f64,
}

/// Hands out disjoint `&mut` borrows to the elements of `items` at the
/// **strictly ascending** indices `idx`, by repeatedly splitting the
/// slice — no `unsafe`, no per-element locks. The window loop uses
/// this to run only the active tiles through the parallel section.
fn gather_mut<'a, T>(items: &'a mut [T], idx: &[u32]) -> Vec<&'a mut T> {
    let mut out = Vec::with_capacity(idx.len());
    let mut rest: &'a mut [T] = items;
    let mut base = 0usize;
    for &i in idx {
        let taken = std::mem::take(&mut rest);
        let (_, tail) = taken.split_at_mut(i as usize - base);
        let (item, tail) = tail.split_first_mut().expect("gather index in range");
        out.push(item);
        rest = tail;
        base = i as usize + 1;
    }
    out
}

// -------------------------------------------------------- canonical

/// The single-queue reference engine: one global heap ordered by the
/// canonical `(at, EventPrio)` key, per-node RNG streams, per-node
/// lazy energy — and nothing else clever. Messages are cloned per
/// delivery. This is the executable specification the tiled engine is
/// differentially tested against; it intentionally trades speed for
/// obviousness.
pub struct CanonicalSim<A: Actor> {
    topology: Topology,
    radio: RadioConfig,
    actors: Vec<A>,
    alive: Vec<bool>,
    departed: Vec<bool>,
    dormant: Vec<bool>,
    rngs: Vec<StdRng>,
    next_seq: Vec<u64>,
    ext_seq: u64,
    heap: EventHeap<A::Msg>,
    now: SimTime,
    energy: LazyEnergy,
    metrics: SimMetrics,
    trace: Trace,
    timers: TimerSlab,
    node_timers: Vec<Vec<(u64, u32)>>,
    started: bool,
    partition: Option<Vec<u32>>,
    link_lag: Vec<(NodeId, NodeId, SimDuration)>,
    dup_probability: f64,
    dup_lag: SimDuration,
    scratch_neighbors: Vec<NodeId>,
    scratch_commands: Vec<Command<A::Msg>>,
}

impl<A: Actor> CanonicalSim<A> {
    /// Creates the reference engine; `seed` masters the per-node RNG
    /// streams (`derive_seed(seed, 1 + node)`).
    ///
    /// # Panics
    ///
    /// Panics if the radio's base delay is below 1 µs (the engines'
    /// causality floor).
    pub fn new(
        topology: Topology,
        radio: RadioConfig,
        seed: u64,
        mut make_actor: impl FnMut(NodeId) -> A,
    ) -> Self {
        assert_lookahead(&radio);
        let n = topology.len();
        CanonicalSim {
            actors: topology.node_ids().map(&mut make_actor).collect(),
            alive: vec![true; n],
            departed: vec![false; n],
            dormant: vec![false; n],
            rngs: (0..n)
                .map(|i| StdRng::seed_from_u64(derive_seed(seed, 1 + i as u64)))
                .collect(),
            next_seq: vec![0; n],
            ext_seq: 0,
            heap: EventHeap::new(),
            now: SimTime::ZERO,
            energy: LazyEnergy::new(n, EnergyModel::default()),
            metrics: SimMetrics::new(n),
            trace: Trace::disabled(),
            timers: TimerSlab::default(),
            node_timers: vec![Vec::new(); n],
            started: false,
            partition: None,
            link_lag: Vec::new(),
            dup_probability: 0.0,
            dup_lag: SimDuration::ZERO,
            scratch_neighbors: Vec::new(),
            scratch_commands: Vec::new(),
            topology,
            radio,
        }
    }

    /// Replaces the energy model (all nodes reset to full charge).
    pub fn set_energy_model(&mut self, model: EnergyModel) {
        self.energy = LazyEnergy::new(self.topology.len(), model);
    }

    /// Swaps the radio configuration mid-run.
    ///
    /// # Panics
    ///
    /// Panics if the new base delay is below 1 µs.
    pub fn set_radio(&mut self, radio: RadioConfig) {
        assert_lookahead(&radio);
        self.radio = radio;
    }

    /// Enables event tracing.
    pub fn enable_trace(&mut self) {
        self.trace = Trace::enabled();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Traffic counters accumulated so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The event trace (empty unless enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Shared access to the actor on `node`.
    pub fn actor(&self, node: NodeId) -> &A {
        &self.actors[node.index()]
    }

    /// Iterates over `(id, actor)` pairs.
    pub fn actors(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.actors
            .iter()
            .enumerate()
            .map(|(i, a)| (NodeId(i as u32), a))
    }

    /// Whether `node` is operational.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Whether `node` withdrew gracefully.
    pub fn has_departed(&self, node: NodeId) -> bool {
        self.departed[node.index()]
    }

    /// Whether `node` is an unactivated late arrival.
    pub fn is_dormant(&self, node: NodeId) -> bool {
        self.dormant[node.index()]
    }

    /// Remaining charge per node, in node order (synced by the last
    /// `run_until`).
    pub fn energy_remaining_vec(&self) -> Vec<f64> {
        self.energy.remaining.clone()
    }

    /// Population stddev of remaining charge.
    pub fn energy_imbalance(&self) -> f64 {
        imbalance_of(&self.energy.remaining)
    }

    fn next_ext_prio(&mut self) -> EventPrio {
        let seq = self.ext_seq;
        self.ext_seq += 1;
        EventPrio {
            birth: self.now,
            node: EXTERNAL_NODE,
            seq,
        }
    }

    /// Schedules a fail-stop crash (saturating, non-panicking —
    /// `Simulator::schedule_crash` semantics). Returns the effective
    /// instant.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            let prio = self.next_ext_prio();
            self.heap.push(at, prio, EventKind::Crash { node });
        }
        at
    }

    /// Schedules the activation of a dormant node.
    pub fn schedule_join(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            let prio = self.next_ext_prio();
            self.heap.push(at, prio, EventKind::Join { node });
        }
        at
    }

    /// Schedules a graceful withdrawal.
    pub fn schedule_leave(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            let prio = self.next_ext_prio();
            self.heap.push(at, prio, EventKind::Leave { node });
        }
        at
    }

    /// Schedules the return of a crashed or departed node.
    pub fn schedule_rejoin(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            let prio = self.next_ext_prio();
            self.heap.push(at, prio, EventKind::Rejoin { node });
        }
        at
    }

    /// Marks `node` as a late arrival (same no-op contract as
    /// `Simulator::set_dormant`).
    pub fn set_dormant(&mut self, node: NodeId) {
        if self.started || node.index() >= self.topology.len() || !self.alive[node.index()] {
            return;
        }
        self.alive[node.index()] = false;
        self.dormant[node.index()] = true;
    }

    /// Imposes a network partition (`Simulator::set_partition`
    /// semantics).
    ///
    /// # Panics
    ///
    /// Panics unless `group_of` has one entry per node.
    pub fn set_partition(&mut self, group_of: Vec<u32>) {
        assert_eq!(
            group_of.len(),
            self.topology.len(),
            "partition must assign a group to every node"
        );
        self.partition = Some(group_of);
    }

    /// Heals any partition.
    pub fn clear_partition(&mut self) {
        self.partition = None;
    }

    /// Adds `extra` delivery delay to the directed link `from → to`.
    pub fn set_link_lag(&mut self, from: NodeId, to: NodeId, extra: SimDuration) {
        match self
            .link_lag
            .binary_search_by_key(&(from, to), |&(f, t, _)| (f, t))
        {
            Ok(i) => self.link_lag[i].2 = extra,
            Err(i) => self.link_lag.insert(i, (from, to, extra)),
        }
    }

    /// Removes the lag on `from → to`, if any.
    pub fn remove_link_lag(&mut self, from: NodeId, to: NodeId) {
        if let Ok(i) = self
            .link_lag
            .binary_search_by_key(&(from, to), |&(f, t, _)| (f, t))
        {
            self.link_lag.remove(i);
        }
    }

    /// Duplicates surviving copies with `probability`, the duplicate
    /// arriving `lag` later.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= probability <= 1.0`.
    pub fn set_duplication(&mut self, probability: f64, lag: SimDuration) {
        assert!(
            (0.0..=1.0).contains(&probability),
            "duplication probability must be in [0, 1]"
        );
        self.dup_probability = probability;
        self.dup_lag = lag;
    }

    /// Runs until the next pending event lies beyond `deadline`
    /// (events at exactly `deadline` are processed), then syncs energy
    /// and advances `now()` to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        let lim = SimTime::from_micros(deadline.as_micros().saturating_add(1));
        while let Some((at, prio, kind)) = self.heap.pop_before(lim) {
            self.dispatch(at, prio, kind);
        }
        let end = self.now.max(deadline);
        self.energy.sync_all(end);
        self.now = end;
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            if !self.alive[i] {
                continue;
            }
            let node = NodeId(i as u32);
            let e = self.energy.read(i, self.now);
            let mut ctx = Ctx::new(self.now, node, &mut self.rngs[i]).with_energy(e);
            ctx.commands = std::mem::take(&mut self.scratch_commands);
            self.actors[i].on_start(&mut ctx);
            let commands = ctx.commands;
            self.apply_commands(node, commands);
        }
    }

    fn dispatch(&mut self, at: SimTime, _prio: EventPrio, kind: EventKind<A::Msg>) {
        debug_assert!(at >= self.now, "canonical queue went backwards");
        self.now = at;
        match kind {
            EventKind::Deliver { to, from, msg } => self.apply_delivery(to, from, msg),
            EventKind::Timer { node, token, id } => self.apply_timer(node, token, id),
            EventKind::Crash { node } => self.apply_crash(node),
            EventKind::Join { node } => self.apply_join(node),
            EventKind::Leave { node } => self.apply_leave(node),
            EventKind::Rejoin { node } => self.apply_rejoin(node),
        }
    }

    fn push_trace(&mut self, kind: TraceKind, node: NodeId, peer: NodeId) {
        if self.trace.is_enabled() {
            self.trace.push(TraceRecord {
                at: self.now,
                node,
                peer,
                kind,
            });
        }
    }

    fn apply_delivery(&mut self, to: NodeId, from: NodeId, msg: A::Msg) {
        let i = to.index();
        if !self.alive[i] {
            self.metrics.record_dropped_dead();
            return;
        }
        self.metrics.record_delivery();
        self.energy.charge_rx(i, self.now);
        self.push_trace(TraceKind::Receive, to, from);
        let e = self.energy.read(i, self.now);
        let mut ctx = Ctx::new(self.now, to, &mut self.rngs[i]).with_energy(e);
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[i].on_message(&mut ctx, from, &msg);
        let commands = ctx.commands;
        self.apply_commands(to, commands);
    }

    fn apply_timer(&mut self, node: NodeId, token: u64, stamp: u64) {
        if !self.timers.try_fire(stamp) {
            return;
        }
        let (slot, _) = unpack_timer(stamp);
        let i = node.index();
        let pending = &mut self.node_timers[i];
        if let Some(at) = pending.iter().position(|&(_, s)| s == slot) {
            pending.swap_remove(at);
        }
        if !self.alive[i] {
            return;
        }
        self.metrics.record_timer();
        self.push_trace(TraceKind::Timer, node, node);
        let e = self.energy.read(i, self.now);
        let mut ctx = Ctx::new(self.now, node, &mut self.rngs[i]).with_energy(e);
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[i].on_timer(&mut ctx, TimerToken(token));
        let commands = ctx.commands;
        self.apply_commands(node, commands);
    }

    fn apply_crash(&mut self, node: NodeId) {
        if !self.alive[node.index()] {
            return;
        }
        self.alive[node.index()] = false;
        self.push_trace(TraceKind::Crash, node, node);
    }

    fn apply_join(&mut self, node: NodeId) {
        let i = node.index();
        if !self.dormant[i] {
            return;
        }
        self.dormant[i] = false;
        self.alive[i] = true;
        self.push_trace(TraceKind::Join, node, node);
        let e = self.energy.read(i, self.now);
        let mut ctx = Ctx::new(self.now, node, &mut self.rngs[i]).with_energy(e);
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[i].on_start(&mut ctx);
        let commands = ctx.commands;
        self.apply_commands(node, commands);
    }

    fn apply_leave(&mut self, node: NodeId) {
        let i = node.index();
        if !self.alive[i] {
            return;
        }
        let e = self.energy.read(i, self.now);
        let mut ctx = Ctx::new(self.now, node, &mut self.rngs[i]).with_energy(e);
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[i].on_leave(&mut ctx);
        let commands = ctx.commands;
        self.apply_commands(node, commands);
        self.alive[i] = false;
        self.departed[i] = true;
        self.invalidate_node_timers(node);
        self.push_trace(TraceKind::Leave, node, node);
    }

    fn apply_rejoin(&mut self, node: NodeId) {
        let i = node.index();
        if self.alive[i] || self.dormant[i] {
            return;
        }
        self.invalidate_node_timers(node);
        self.alive[i] = true;
        self.departed[i] = false;
        self.push_trace(TraceKind::Rejoin, node, node);
        let e = self.energy.read(i, self.now);
        let mut ctx = Ctx::new(self.now, node, &mut self.rngs[i]).with_energy(e);
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[i].on_rejoin(&mut ctx);
        let commands = ctx.commands;
        self.apply_commands(node, commands);
    }

    fn invalidate_node_timers(&mut self, node: NodeId) {
        for &(_, slot) in &self.node_timers[node.index()] {
            self.timers.invalidate(slot);
        }
        self.node_timers[node.index()].clear();
    }

    fn apply_commands(&mut self, node: NodeId, mut commands: Vec<Command<A::Msg>>) {
        for command in commands.drain(..) {
            match command {
                Command::Broadcast(msg) => self.transmit(node, msg),
                Command::SetTimer { fire_at, token } => {
                    let i = node.index();
                    let stamp = self.timers.alloc();
                    let (slot, _) = unpack_timer(stamp);
                    self.node_timers[i].push((token.0, slot));
                    let seq = self.next_seq[i];
                    self.next_seq[i] += 1;
                    self.heap.push(
                        fire_at,
                        EventPrio {
                            birth: self.now,
                            node: node.0,
                            seq,
                        },
                        EventKind::Timer {
                            node,
                            token: token.0,
                            id: stamp,
                        },
                    );
                }
                Command::CancelTimer { token } => {
                    let timers = &mut self.timers;
                    self.node_timers[node.index()].retain(|&(t, slot)| {
                        if t == token.0 {
                            timers.invalidate(slot);
                            false
                        } else {
                            true
                        }
                    });
                }
            }
        }
        self.scratch_commands = commands;
    }

    fn transmit(&mut self, from: NodeId, msg: A::Msg) {
        let i = from.index();
        let mut neighbors = std::mem::take(&mut self.scratch_neighbors);
        neighbors.clear();
        neighbors.extend_from_slice(self.topology.neighbors(from));
        self.metrics.record_transmission(from, neighbors.len());
        self.energy.charge_tx(i, self.now);
        self.push_trace(TraceKind::Transmit, from, from);
        let from_pos = self.topology.position(from);
        let delay_base = self.radio.delay();
        let jitter = self.radio.jitter();
        for &to in neighbors.iter() {
            let partitioned = self
                .partition
                .as_ref()
                .is_some_and(|g| g[from.index()] != g[to.index()]);
            let to_pos = self.topology.position(to);
            let lost = partitioned
                || self
                    .radio
                    .loss_mut()
                    .is_lost(from, to, from_pos, to_pos, &mut self.rngs[i]);
            if lost {
                self.metrics.record_loss();
                self.push_trace(TraceKind::Loss, to, from);
                continue;
            }
            let mut delay = draw_delay(delay_base, jitter, &mut self.rngs[i]);
            let src_lags = lag_slice(&self.link_lag, from);
            if !src_lags.is_empty() {
                if let Ok(k) = src_lags.binary_search_by_key(&to, |&(_, t, _)| t) {
                    delay = delay + src_lags[k].2;
                }
            }
            let seq = self.next_seq[i];
            self.next_seq[i] += 1;
            self.heap.push(
                self.now + delay,
                EventPrio {
                    birth: self.now,
                    node: from.0,
                    seq,
                },
                EventKind::Deliver {
                    to,
                    from,
                    msg: msg.clone(),
                },
            );
            if self.dup_probability > 0.0 && self.rngs[i].random_bool(self.dup_probability) {
                let seq = self.next_seq[i];
                self.next_seq[i] += 1;
                self.heap.push(
                    self.now + delay + self.dup_lag,
                    EventPrio {
                        birth: self.now,
                        node: from.0,
                        seq,
                    },
                    EventKind::Deliver {
                        to,
                        from,
                        msg: msg.clone(),
                    },
                );
            }
        }
        self.scratch_neighbors = neighbors;
    }
}

impl<A: Actor> std::fmt::Debug for CanonicalSim<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CanonicalSim")
            .field("nodes", &self.topology.len())
            .field("now", &self.now)
            .field("pending_events", &self.heap.len())
            .finish()
    }
}

// ------------------------------------------------------------- tiled

/// Per-tile traffic counters over the tile's *local* node indices
/// (scattered into a global [`SimMetrics`] on demand — a per-tile
/// full-population vector would cost O(tiles × n)).
#[derive(Debug, Clone, Default)]
struct TileMetrics {
    transmissions: u64,
    deliveries: u64,
    losses: u64,
    dropped_dead: u64,
    timers_fired: u64,
    tx_local: Vec<u64>,
}

impl TileMetrics {
    fn new(local_nodes: usize) -> Self {
        TileMetrics {
            tx_local: vec![0; local_nodes],
            ..TileMetrics::default()
        }
    }
}

/// A cross-tile delivery copy awaiting the window barrier exchange.
/// `msg` indexes into the owning [`OutBucket`]'s message table, so
/// several copies of one transmission into the same destination tile
/// share a single cloned payload.
#[derive(Debug, Clone, Copy)]
struct OutCopy {
    at: SimTime,
    prio: EventPrio,
    to: NodeId,
    from: NodeId,
    msg: u32,
}

/// One window's cross-tile traffic from one source tile to one
/// destination tile: the deduplicated payloads (with the reference
/// count each will need in the destination arena) plus the copies in
/// creation order. Bucket shells are pooled and recycled across
/// windows — the barrier never allocates in steady state.
#[derive(Debug)]
struct OutBucket<M> {
    dst: u32,
    /// `(payload, copies referencing it)`, in first-copy order.
    msgs: Vec<(M, u32)>,
    copies: Vec<OutCopy>,
}

impl<M> Default for OutBucket<M> {
    fn default() -> Self {
        OutBucket {
            dst: u32::MAX,
            msgs: Vec::new(),
            copies: Vec::new(),
        }
    }
}

/// Read-only state shared by every tile during a window (all global
/// engine configuration the per-tile step functions need).
struct Shared<'a> {
    topology: &'a Topology,
    tile_of: &'a [u32],
    local_of: &'a [u32],
    partition: &'a Option<Vec<u32>>,
    link_lag: &'a [(NodeId, NodeId, SimDuration)],
    delay: SimDuration,
    jitter: SimDuration,
    dup_probability: f64,
    dup_lag: SimDuration,
    trace_enabled: bool,
}

/// One spatial tile: structure-of-arrays node state, its own event
/// queue, payload arena, timer slab, RNG streams, lazy energy ledger,
/// and the window outbox/trace buffers drained at each barrier.
struct Tile<A: Actor> {
    index: u32,
    /// Global ids of the nodes owned by this tile, ascending; local
    /// index `l` ↔ global id `nodes[l]`.
    nodes: Vec<NodeId>,
    actors: Vec<A>,
    alive: Vec<bool>,
    departed: Vec<bool>,
    dormant: Vec<bool>,
    rngs: Vec<StdRng>,
    next_seq: Vec<u64>,
    energy: LazyEnergy,
    loss: Box<dyn LossModel>,
    queue: SlabQueue<PayloadId>,
    payloads: PayloadArena<A::Msg>,
    timers: TimerSlab,
    node_timers: Vec<Vec<(u64, u32)>>,
    metrics: TileMetrics,
    /// Cross-tile copies bucketed by destination tile, in bucket
    /// creation order (at most one bucket per destination per window).
    outbox: Vec<OutBucket<A::Msg>>,
    /// Recycled empty bucket shells. Refilled by the exchange with the
    /// shells routed *into* this tile — in a grid, neighbour relations
    /// are symmetric, so sends ≈ receives and the pool self-balances.
    bucket_pool: Vec<OutBucket<A::Msg>>,
    /// Per-transmission `(dst, bucket, msg-index)` dedup scratch so
    /// every copy of one transmission into one destination tile shares
    /// a single payload clone.
    tx_dests: Vec<(u32, u32, u32)>,
    /// Window trace buffer: records tagged with the dispatching
    /// event's priority so the barrier merge can interleave tiles in
    /// canonical order.
    trace_buf: Vec<(EventPrio, TraceRecord)>,
    /// Consumed prefix of `trace_buf` during the k-way barrier merge.
    trace_cursor: usize,
    tag: EventPrio,
    now: SimTime,
    scratch_commands: Vec<Command<A::Msg>>,
    /// Exchange scratch: payload ids of the bucket being routed in.
    scratch_payload_ids: Vec<PayloadId>,
}

impl<A: Actor> Tile<A> {
    fn local(&self, shared: &Shared<'_>, node: NodeId) -> usize {
        debug_assert_eq!(shared.tile_of[node.index()], self.index);
        shared.local_of[node.index()] as usize
    }

    fn push_trace(&mut self, shared: &Shared<'_>, kind: TraceKind, node: NodeId, peer: NodeId) {
        if shared.trace_enabled {
            self.trace_buf.push((
                self.tag,
                TraceRecord {
                    at: self.now,
                    node,
                    peer,
                    kind,
                },
            ));
        }
    }

    /// Drains and dispatches every queued event firing strictly before
    /// `lim` (including events scheduled *during* the window, e.g.
    /// short timers).
    fn run_window(&mut self, lim: SimTime, shared: &Shared<'_>) {
        while let Some((at, prio, kind)) = self.queue.pop_before(lim) {
            self.dispatch(at, prio, kind, shared);
        }
    }

    fn dispatch(
        &mut self,
        at: SimTime,
        prio: EventPrio,
        kind: EventKind<PayloadId>,
        shared: &Shared<'_>,
    ) {
        debug_assert!(at >= self.now, "tile queue went backwards");
        self.now = at;
        self.tag = prio;
        match kind {
            EventKind::Deliver { to, from, msg } => self.apply_delivery(to, from, msg, shared),
            EventKind::Timer { node, token, id } => self.apply_timer(node, token, id, shared),
            EventKind::Crash { node } => self.apply_crash(node, shared),
            EventKind::Join { node } => self.apply_join(node, shared),
            EventKind::Leave { node } => self.apply_leave(node, shared),
            EventKind::Rejoin { node } => self.apply_rejoin(node, shared),
        }
    }

    fn apply_delivery(
        &mut self,
        to: NodeId,
        from: NodeId,
        payload: PayloadId,
        shared: &Shared<'_>,
    ) {
        let l = self.local(shared, to);
        if !self.alive[l] {
            self.metrics.dropped_dead += 1;
            self.payloads.release(payload);
            return;
        }
        self.metrics.deliveries += 1;
        self.energy.charge_rx(l, self.now);
        self.push_trace(shared, TraceKind::Receive, to, from);
        let e = self.energy.read(l, self.now);
        let mut ctx = Ctx::new(self.now, to, &mut self.rngs[l]).with_energy(e);
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[l].on_message(&mut ctx, from, self.payloads.get(payload));
        let commands = ctx.commands;
        self.payloads.release(payload);
        self.apply_commands(to, commands, shared);
    }

    fn apply_timer(&mut self, node: NodeId, token: u64, stamp: u64, shared: &Shared<'_>) {
        if !self.timers.try_fire(stamp) {
            return;
        }
        let (slot, _) = unpack_timer(stamp);
        let l = self.local(shared, node);
        let pending = &mut self.node_timers[l];
        if let Some(at) = pending.iter().position(|&(_, s)| s == slot) {
            pending.swap_remove(at);
        }
        if !self.alive[l] {
            return;
        }
        self.metrics.timers_fired += 1;
        self.push_trace(shared, TraceKind::Timer, node, node);
        let e = self.energy.read(l, self.now);
        let mut ctx = Ctx::new(self.now, node, &mut self.rngs[l]).with_energy(e);
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[l].on_timer(&mut ctx, TimerToken(token));
        let commands = ctx.commands;
        self.apply_commands(node, commands, shared);
    }

    fn apply_crash(&mut self, node: NodeId, shared: &Shared<'_>) {
        let l = self.local(shared, node);
        if !self.alive[l] {
            return;
        }
        self.alive[l] = false;
        self.push_trace(shared, TraceKind::Crash, node, node);
    }

    fn apply_join(&mut self, node: NodeId, shared: &Shared<'_>) {
        let l = self.local(shared, node);
        if !self.dormant[l] {
            return;
        }
        self.dormant[l] = false;
        self.alive[l] = true;
        self.push_trace(shared, TraceKind::Join, node, node);
        let e = self.energy.read(l, self.now);
        let mut ctx = Ctx::new(self.now, node, &mut self.rngs[l]).with_energy(e);
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[l].on_start(&mut ctx);
        let commands = ctx.commands;
        self.apply_commands(node, commands, shared);
    }

    fn apply_leave(&mut self, node: NodeId, shared: &Shared<'_>) {
        let l = self.local(shared, node);
        if !self.alive[l] {
            return;
        }
        let e = self.energy.read(l, self.now);
        let mut ctx = Ctx::new(self.now, node, &mut self.rngs[l]).with_energy(e);
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[l].on_leave(&mut ctx);
        let commands = ctx.commands;
        self.apply_commands(node, commands, shared);
        self.alive[l] = false;
        self.departed[l] = true;
        self.invalidate_node_timers(l);
        self.push_trace(shared, TraceKind::Leave, node, node);
    }

    fn apply_rejoin(&mut self, node: NodeId, shared: &Shared<'_>) {
        let l = self.local(shared, node);
        if self.alive[l] || self.dormant[l] {
            return;
        }
        self.invalidate_node_timers(l);
        self.alive[l] = true;
        self.departed[l] = false;
        self.push_trace(shared, TraceKind::Rejoin, node, node);
        let e = self.energy.read(l, self.now);
        let mut ctx = Ctx::new(self.now, node, &mut self.rngs[l]).with_energy(e);
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[l].on_rejoin(&mut ctx);
        let commands = ctx.commands;
        self.apply_commands(node, commands, shared);
    }

    fn start_node(&mut self, l: usize, node: NodeId, shared: &Shared<'_>) {
        self.tag = EventPrio {
            birth: self.now,
            node: node.0,
            seq: 0,
        };
        let e = self.energy.read(l, self.now);
        let mut ctx = Ctx::new(self.now, node, &mut self.rngs[l]).with_energy(e);
        ctx.commands = std::mem::take(&mut self.scratch_commands);
        self.actors[l].on_start(&mut ctx);
        let commands = ctx.commands;
        self.apply_commands(node, commands, shared);
    }

    fn invalidate_node_timers(&mut self, l: usize) {
        for &(_, slot) in &self.node_timers[l] {
            self.timers.invalidate(slot);
        }
        self.node_timers[l].clear();
    }

    fn apply_commands(
        &mut self,
        node: NodeId,
        mut commands: Vec<Command<A::Msg>>,
        shared: &Shared<'_>,
    ) {
        for command in commands.drain(..) {
            match command {
                Command::Broadcast(msg) => self.transmit(node, msg, shared),
                Command::SetTimer { fire_at, token } => {
                    let l = self.local(shared, node);
                    let stamp = self.timers.alloc();
                    let (slot, _) = unpack_timer(stamp);
                    self.node_timers[l].push((token.0, slot));
                    let seq = self.next_seq[l];
                    self.next_seq[l] += 1;
                    self.queue.push(
                        fire_at,
                        EventPrio {
                            birth: self.now,
                            node: node.0,
                            seq,
                        },
                        EventKind::Timer {
                            node,
                            token: token.0,
                            id: stamp,
                        },
                    );
                }
                Command::CancelTimer { token } => {
                    let l = self.local(shared, node);
                    let timers = &mut self.timers;
                    self.node_timers[l].retain(|&(t, slot)| {
                        if t == token.0 {
                            timers.invalidate(slot);
                            false
                        } else {
                            true
                        }
                    });
                }
            }
        }
        self.scratch_commands = commands;
    }

    /// Appends one cross-tile copy to the outbox, bucketed by
    /// destination tile. The payload is cloned once per
    /// `(transmission, destination tile)` pair — `tx_dests` (cleared
    /// per transmission) remembers where this transmission's payload
    /// already landed — and every further copy only bumps the shared
    /// slot's reference count.
    #[allow(clippy::too_many_arguments)]
    fn push_cross(
        &mut self,
        dst: u32,
        at: SimTime,
        prio: EventPrio,
        to: NodeId,
        from: NodeId,
        payload: PayloadId,
    ) {
        let (bi, mi) = match self.tx_dests.iter().find(|&&(d, _, _)| d == dst) {
            Some(&(_, bi, mi)) => (bi, mi),
            None => {
                let bi = match self.outbox.iter().position(|b| b.dst == dst) {
                    Some(bi) => bi as u32,
                    None => {
                        let mut bucket = self.bucket_pool.pop().unwrap_or_default();
                        bucket.dst = dst;
                        self.outbox.push(bucket);
                        (self.outbox.len() - 1) as u32
                    }
                };
                let bucket = &mut self.outbox[bi as usize];
                let mi = bucket.msgs.len() as u32;
                // The payload is still alive in the local arena (its
                // refs are finalized after the neighbour loop).
                bucket.msgs.push((self.payloads.get(payload).clone(), 0));
                self.tx_dests.push((dst, bi, mi));
                (bi, mi)
            }
        };
        let bucket = &mut self.outbox[bi as usize];
        bucket.msgs[mi as usize].1 += 1;
        bucket.copies.push(OutCopy {
            at,
            prio,
            to,
            from,
            msg: mi,
        });
    }

    fn transmit(&mut self, from: NodeId, msg: A::Msg, shared: &Shared<'_>) {
        let lf = self.local(shared, from);
        self.metrics.transmissions += 1;
        self.metrics.tx_local[lf] += 1;
        self.energy.charge_tx(lf, self.now);
        self.push_trace(shared, TraceKind::Transmit, from, from);
        let from_pos = shared.topology.position(from);
        let src_lags = lag_slice(shared.link_lag, from);
        let payload = self.payloads.insert(msg);
        self.tx_dests.clear();
        let mut refs = 0u32;
        for &to in shared.topology.neighbors(from) {
            let partitioned = shared
                .partition
                .as_ref()
                .is_some_and(|g| g[from.index()] != g[to.index()]);
            let to_pos = shared.topology.position(to);
            let lost = partitioned
                || self
                    .loss
                    .is_lost(from, to, from_pos, to_pos, &mut self.rngs[lf]);
            if lost {
                self.metrics.losses += 1;
                self.push_trace(shared, TraceKind::Loss, to, from);
                continue;
            }
            let mut delay = draw_delay(shared.delay, shared.jitter, &mut self.rngs[lf]);
            if !src_lags.is_empty() {
                if let Ok(k) = src_lags.binary_search_by_key(&to, |&(_, t, _)| t) {
                    delay = delay + src_lags[k].2;
                }
            }
            let at = self.now + delay;
            let seq = self.next_seq[lf];
            self.next_seq[lf] += 1;
            let prio = EventPrio {
                birth: self.now,
                node: from.0,
                seq,
            };
            let dst = shared.tile_of[to.index()];
            let local_dest = dst == self.index;
            if local_dest {
                refs += 1;
                self.queue.push(
                    at,
                    prio,
                    EventKind::Deliver {
                        to,
                        from,
                        msg: payload,
                    },
                );
            } else {
                self.push_cross(dst, at, prio, to, from, payload);
            }
            if shared.dup_probability > 0.0 && self.rngs[lf].random_bool(shared.dup_probability) {
                let dup_at = at + shared.dup_lag;
                let seq = self.next_seq[lf];
                self.next_seq[lf] += 1;
                let dup_prio = EventPrio {
                    birth: self.now,
                    node: from.0,
                    seq,
                };
                if local_dest {
                    refs += 1;
                    self.queue.push(
                        dup_at,
                        dup_prio,
                        EventKind::Deliver {
                            to,
                            from,
                            msg: payload,
                        },
                    );
                } else {
                    self.push_cross(dst, dup_at, dup_prio, to, from, payload);
                }
            }
        }
        self.payloads.set_refs(payload, refs);
    }
}

/// Splits a loss-model snapshot into the tile-local model for tile
/// `tile`: stateless models are simply duplicated; Gilbert–Elliott
/// per-link chains are partitioned by the *sender's* tile (every draw
/// for link `(from, to)` happens on `from`'s tile, so sender
/// partitioning keeps the union of per-tile states exactly equal to
/// the canonical engine's single map).
fn split_loss(snapshot: &LossSnapshot, tile_of: &[u32], tile: u32) -> Box<dyn LossModel> {
    match snapshot {
        LossSnapshot::GilbertElliott {
            p_good,
            p_bad,
            p_gb,
            p_bg,
            bad,
        } => LossSnapshot::GilbertElliott {
            p_good: *p_good,
            p_bad: *p_bad,
            p_gb: *p_gb,
            p_bg: *p_bg,
            bad: bad
                .iter()
                .filter(|(f, _)| f.index() < tile_of.len() && tile_of[f.index()] == tile)
                .copied()
                .collect(),
        }
        .rebuild(),
        stateless => stateless.clone().rebuild(),
    }
}

/// The spatially-tiled engine. See the module docs for the model; the
/// public surface mirrors [`CanonicalSim`] plus `set_workers`,
/// checkpointing, and grid accessors.
pub struct TiledSim<A: Actor> {
    topology: Topology,
    grid: TileGrid,
    tile_of: Vec<u32>,
    local_of: Vec<u32>,
    tiles: Vec<Tile<A>>,
    delay: SimDuration,
    jitter: SimDuration,
    now: SimTime,
    started: bool,
    ext_seq: u64,
    partition: Option<Vec<u32>>,
    link_lag: Vec<(NodeId, NodeId, SimDuration)>,
    dup_probability: f64,
    dup_lag: SimDuration,
    trace: Trace,
    model: EnergyModel,
    workers: usize,
    /// O(log T) window schedule over per-tile next-event times;
    /// refreshed in full at each `run_until` entry, maintained
    /// incrementally inside the window loop. Not persisted.
    sched: TileSchedule,
    /// Scratch: tiles with work in the current window, ascending.
    active: Vec<u32>,
    /// Exchange scratch: inbound buckets per destination tile, pushed
    /// in source-tile-ascending order (the canonical drain order).
    dest_in: Vec<Vec<OutBucket<A::Msg>>>,
    /// Exchange scratch: destination tiles of the current window.
    window_dests: Vec<u32>,
    /// Trace-merge scratch: one cursor key per tile with records left.
    merge_heap: BinaryHeap<Reverse<(SimTime, EventPrio, u32)>>,
    /// Cumulative per-phase wall-clock cost (observational only).
    breakdown: BarrierBreakdown,
}

impl<A: Actor> TiledSim<A> {
    /// Creates a tiled engine over a `gx × gy` grid. Semantics are
    /// identical to [`CanonicalSim::new`] with the same arguments —
    /// per-node RNG streams seeded `derive_seed(seed, 1 + node)`,
    /// actors constructed in global node order.
    ///
    /// # Panics
    ///
    /// Panics if the grid is degenerate (`gx`/`gy` = 0), the radio's
    /// base delay is below 1 µs (no lookahead), or its loss model is a
    /// custom one without [`LossModel::snapshot`] support (the model
    /// must be splittable across tiles).
    pub fn new(
        topology: Topology,
        radio: RadioConfig,
        seed: u64,
        gx: u32,
        gy: u32,
        mut make_actor: impl FnMut(NodeId) -> A,
    ) -> Self {
        assert_lookahead(&radio);
        let snapshot = radio
            .loss()
            .snapshot()
            .expect("tiled engine requires a snapshot-capable loss model");
        let grid = TileGrid::new(topology.positions(), gx, gy);
        let n = topology.len();
        let ntiles = grid.len();
        let mut tile_of = vec![0u32; n];
        let mut local_of = vec![0u32; n];
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); ntiles];
        for i in 0..n {
            let node = NodeId(i as u32);
            let t = grid.tile_of(topology.position(node));
            tile_of[i] = t;
            local_of[i] = members[t as usize].len() as u32;
            members[t as usize].push(node);
        }
        // Actors are built in global node order (a stateful
        // `make_actor` closure must see the same call sequence as the
        // canonical engine), then distributed to their tiles.
        let mut actors_by_node: Vec<Option<A>> =
            topology.node_ids().map(|id| Some(make_actor(id))).collect();
        let tiles = members
            .into_iter()
            .enumerate()
            .map(|(t, nodes)| {
                let k = nodes.len();
                Tile {
                    index: t as u32,
                    actors: nodes
                        .iter()
                        .map(|id| actors_by_node[id.index()].take().expect("node owned once"))
                        .collect(),
                    alive: vec![true; k],
                    departed: vec![false; k],
                    dormant: vec![false; k],
                    rngs: nodes
                        .iter()
                        .map(|id| StdRng::seed_from_u64(derive_seed(seed, 1 + id.0 as u64)))
                        .collect(),
                    next_seq: vec![0; k],
                    energy: LazyEnergy::new(k, EnergyModel::default()),
                    loss: split_loss(&snapshot, &tile_of, t as u32),
                    queue: SlabQueue::new(radio.delay()),
                    payloads: PayloadArena::new(),
                    timers: TimerSlab::default(),
                    node_timers: vec![Vec::new(); k],
                    metrics: TileMetrics::new(k),
                    outbox: Vec::new(),
                    bucket_pool: Vec::new(),
                    tx_dests: Vec::new(),
                    trace_buf: Vec::new(),
                    trace_cursor: 0,
                    tag: EventPrio {
                        birth: SimTime::ZERO,
                        node: EXTERNAL_NODE,
                        seq: 0,
                    },
                    now: SimTime::ZERO,
                    scratch_commands: Vec::new(),
                    scratch_payload_ids: Vec::new(),
                    nodes,
                }
            })
            .collect();
        TiledSim {
            grid,
            tile_of,
            local_of,
            tiles,
            delay: radio.delay(),
            jitter: radio.jitter(),
            now: SimTime::ZERO,
            started: false,
            ext_seq: 0,
            partition: None,
            link_lag: Vec::new(),
            dup_probability: 0.0,
            dup_lag: SimDuration::ZERO,
            trace: Trace::disabled(),
            model: EnergyModel::default(),
            workers: 1,
            sched: TileSchedule::new(ntiles),
            active: Vec::new(),
            dest_in: (0..ntiles).map(|_| Vec::new()).collect(),
            window_dests: Vec::new(),
            merge_heap: BinaryHeap::new(),
            breakdown: BarrierBreakdown::default(),
            topology,
        }
    }

    /// Cumulative per-phase wall-clock breakdown of the window loop
    /// (window execution vs exchange vs trace merge vs scheduling).
    /// Purely observational; never part of simulation state.
    pub fn barrier_breakdown(&self) -> BarrierBreakdown {
        self.breakdown
    }

    /// Sets the worker-thread count used per window (clamped to at
    /// least 1). Output is invariant in this value.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The tile grid dimensions `(gx, gy)`.
    pub fn grid_dims(&self) -> (u32, u32) {
        (self.grid.gx(), self.grid.gy())
    }

    /// Replaces the energy model (all nodes reset to full charge).
    pub fn set_energy_model(&mut self, model: EnergyModel) {
        self.model = model;
        for tile in &mut self.tiles {
            tile.energy = LazyEnergy::new(tile.nodes.len(), model);
        }
    }

    /// Swaps the radio configuration mid-run: the loss model is
    /// re-split across tiles (sender-partitioned) and the window width
    /// re-derived from the new base delay.
    ///
    /// # Panics
    ///
    /// Panics if the new base delay is below 1 µs or the loss model
    /// does not support snapshotting.
    pub fn set_radio(&mut self, radio: RadioConfig) {
        assert_lookahead(&radio);
        let snapshot = radio
            .loss()
            .snapshot()
            .expect("tiled engine requires a snapshot-capable loss model");
        self.delay = radio.delay();
        self.jitter = radio.jitter();
        for tile in &mut self.tiles {
            tile.loss = split_loss(&snapshot, &self.tile_of, tile.index);
        }
    }

    /// Enables event tracing.
    pub fn enable_trace(&mut self) {
        self.trace = Trace::enabled();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The event trace (empty unless enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Merged traffic counters across all tiles.
    pub fn metrics(&self) -> SimMetrics {
        let mut m = SimMetrics::new(self.topology.len());
        for tile in &self.tiles {
            m.transmissions += tile.metrics.transmissions;
            m.deliveries += tile.metrics.deliveries;
            m.losses += tile.metrics.losses;
            m.dropped_dead += tile.metrics.dropped_dead;
            m.timers_fired += tile.metrics.timers_fired;
            for (l, &node) in tile.nodes.iter().enumerate() {
                m.tx_per_node[node.index()] = tile.metrics.tx_local[l];
            }
        }
        m
    }

    /// Shared access to the actor on `node`.
    pub fn actor(&self, node: NodeId) -> &A {
        let t = self.tile_of[node.index()] as usize;
        &self.tiles[t].actors[self.local_of[node.index()] as usize]
    }

    /// Iterates over `(id, actor)` pairs in global node order.
    pub fn actors(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.topology.node_ids().map(move |id| (id, self.actor(id)))
    }

    /// Whether `node` is operational.
    pub fn is_alive(&self, node: NodeId) -> bool {
        let t = self.tile_of[node.index()] as usize;
        self.tiles[t].alive[self.local_of[node.index()] as usize]
    }

    /// Whether `node` withdrew gracefully.
    pub fn has_departed(&self, node: NodeId) -> bool {
        let t = self.tile_of[node.index()] as usize;
        self.tiles[t].departed[self.local_of[node.index()] as usize]
    }

    /// Whether `node` is an unactivated late arrival.
    pub fn is_dormant(&self, node: NodeId) -> bool {
        let t = self.tile_of[node.index()] as usize;
        self.tiles[t].dormant[self.local_of[node.index()] as usize]
    }

    /// Remaining charge per node in global node order (synced by the
    /// last `run_until`).
    pub fn energy_remaining_vec(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.topology.len()];
        for tile in &self.tiles {
            for (l, &node) in tile.nodes.iter().enumerate() {
                out[node.index()] = tile.energy.remaining[l];
            }
        }
        out
    }

    /// Population stddev of remaining charge (identical arithmetic to
    /// `EnergyBook::imbalance` over the gathered vector).
    pub fn energy_imbalance(&self) -> f64 {
        imbalance_of(&self.energy_remaining_vec())
    }

    fn next_ext_prio(&mut self) -> EventPrio {
        let seq = self.ext_seq;
        self.ext_seq += 1;
        EventPrio {
            birth: self.now,
            node: EXTERNAL_NODE,
            seq,
        }
    }

    fn schedule_external(&mut self, node: NodeId, at: SimTime, kind: EventKind<PayloadId>) {
        let prio = self.next_ext_prio();
        let t = self.tile_of[node.index()] as usize;
        self.tiles[t].queue.push(at, prio, kind);
    }

    /// Schedules a fail-stop crash (saturating, non-panicking).
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            self.schedule_external(node, at, EventKind::Crash { node });
        }
        at
    }

    /// Schedules the activation of a dormant node.
    pub fn schedule_join(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            self.schedule_external(node, at, EventKind::Join { node });
        }
        at
    }

    /// Schedules a graceful withdrawal.
    pub fn schedule_leave(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            self.schedule_external(node, at, EventKind::Leave { node });
        }
        at
    }

    /// Schedules the return of a crashed or departed node.
    pub fn schedule_rejoin(&mut self, node: NodeId, at: SimTime) -> SimTime {
        let at = at.max(self.now);
        if node.index() < self.topology.len() {
            self.schedule_external(node, at, EventKind::Rejoin { node });
        }
        at
    }

    /// Marks `node` as a late arrival (no-op after start / for unknown
    /// or dead nodes).
    pub fn set_dormant(&mut self, node: NodeId) {
        if self.started || node.index() >= self.topology.len() || !self.is_alive(node) {
            return;
        }
        let t = self.tile_of[node.index()] as usize;
        let l = self.local_of[node.index()] as usize;
        self.tiles[t].alive[l] = false;
        self.tiles[t].dormant[l] = true;
    }

    /// Imposes a network partition.
    ///
    /// # Panics
    ///
    /// Panics unless `group_of` has one entry per node.
    pub fn set_partition(&mut self, group_of: Vec<u32>) {
        assert_eq!(
            group_of.len(),
            self.topology.len(),
            "partition must assign a group to every node"
        );
        self.partition = Some(group_of);
    }

    /// Heals any partition.
    pub fn clear_partition(&mut self) {
        self.partition = None;
    }

    /// Adds `extra` delivery delay to the directed link `from → to`.
    pub fn set_link_lag(&mut self, from: NodeId, to: NodeId, extra: SimDuration) {
        match self
            .link_lag
            .binary_search_by_key(&(from, to), |&(f, t, _)| (f, t))
        {
            Ok(i) => self.link_lag[i].2 = extra,
            Err(i) => self.link_lag.insert(i, (from, to, extra)),
        }
    }

    /// Removes the lag on `from → to`, if any.
    pub fn remove_link_lag(&mut self, from: NodeId, to: NodeId) {
        if let Ok(i) = self
            .link_lag
            .binary_search_by_key(&(from, to), |&(f, t, _)| (f, t))
        {
            self.link_lag.remove(i);
        }
    }

    /// Duplicates surviving copies with `probability`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= probability <= 1.0`.
    pub fn set_duplication(&mut self, probability: f64, lag: SimDuration) {
        assert!(
            (0.0..=1.0).contains(&probability),
            "duplication probability must be in [0, 1]"
        );
        self.dup_probability = probability;
        self.dup_lag = lag;
    }
}

impl<A: Actor + Send> TiledSim<A>
where
    A::Msg: Send,
{
    /// Delivers `on_start` callbacks in global node order (sequential
    /// — start order is part of the determinism contract), then
    /// exchanges any cross-tile copies the starts produced.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let trace_enabled = self.trace.is_enabled();
        // Tile-major, in parallel: starting N actors in global node
        // order hops tiles on every step — at N=10⁶ that walk touches
        // a cold tile per node and dominates the whole first epoch.
        // Per tile, locals run in ascending global id, and tiles are
        // independent (start-time sends land in per-tile outbox
        // buckets), so the observable outcome is order-free.
        {
            let workers = self.workers;
            let shared = Shared {
                topology: &self.topology,
                tile_of: &self.tile_of,
                local_of: &self.local_of,
                partition: &self.partition,
                link_lag: &self.link_lag,
                delay: self.delay,
                jitter: self.jitter,
                dup_probability: self.dup_probability,
                dup_lag: self.dup_lag,
                trace_enabled,
            };
            crate::par::par_for_each_mut(workers, &mut self.tiles, |_, tile| {
                for l in 0..tile.nodes.len() {
                    if tile.alive[l] {
                        let node = tile.nodes[l];
                        tile.start_node(l, node, &shared);
                    }
                }
            });
        }
        // Start-time records carry priority `(birth 0, node, 0)` —
        // globally unique and node-ascending — so the k-way barrier
        // merge emits them in exactly the canonical engine's node
        // order.
        if trace_enabled {
            self.active.clear();
            self.active.extend(0..self.tiles.len() as u32);
            self.merge_traces();
            self.active.clear();
        }
        self.exchange(SimTime::ZERO);
    }

    /// Routes every outbox bucket into its destination tile's queue
    /// and arena, per destination in parallel. Deterministic order per
    /// destination: source tile ascending (one bucket per source), the
    /// within-source push order preserved inside each bucket — worker
    /// scheduling never touches it, because destinations are disjoint
    /// and each destination's bucket list is drained sequentially by
    /// exactly one worker. Deduplicated payloads enter the arena via
    /// [`PayloadArena::insert_with_refs`] (one arena op per
    /// transmission per destination tile) and the emptied bucket
    /// shells refill the destination's pool.
    fn exchange(&mut self, lim: SimTime) {
        // Phase A (serial, cheap): hand each bucket to its destination
        // in source-tile-ascending order.
        for t in 0..self.tiles.len() {
            let tile = &mut self.tiles[t];
            for bucket in tile.outbox.drain(..) {
                let d = bucket.dst as usize;
                if self.dest_in[d].is_empty() {
                    self.window_dests.push(bucket.dst);
                }
                self.dest_in[d].push(bucket);
            }
        }
        if self.window_dests.is_empty() {
            return;
        }
        // Phase B (parallel over destinations): insert payloads, queue
        // copies, recycle shells.
        self.window_dests.sort_unstable();
        let dest_tiles = gather_mut(&mut self.tiles, &self.window_dests);
        let dest_lists = gather_mut(&mut self.dest_in, &self.window_dests);
        let mut work: Vec<_> = dest_tiles.into_iter().zip(dest_lists).collect();
        crate::par::par_for_each_mut(self.workers, &mut work, |_, cell| {
            let (tile, buckets) = cell;
            for mut bucket in buckets.drain(..) {
                tile.scratch_payload_ids.clear();
                for (msg, count) in bucket.msgs.drain(..) {
                    tile.scratch_payload_ids
                        .push(tile.payloads.insert_with_refs(msg, count));
                }
                for copy in bucket.copies.drain(..) {
                    debug_assert!(
                        copy.at >= lim,
                        "cross-tile copy violates the lookahead window"
                    );
                    tile.queue.push(
                        copy.at,
                        copy.prio,
                        EventKind::Deliver {
                            to: copy.to,
                            from: copy.from,
                            msg: tile.scratch_payload_ids[copy.msg as usize],
                        },
                    );
                }
                tile.bucket_pool.push(bucket);
            }
        });
        for &d in &self.window_dests {
            self.sched
                .set(d as usize, self.tiles[d as usize].queue.peek_time());
        }
        self.window_dests.clear();
    }

    /// Merges the window's per-tile trace buffers into the global
    /// trace in canonical event order — an exact k-way merge, O(total
    /// · log T) with zero steady-state allocations, replacing the old
    /// allocate-append-global-sort. Each buffer is already internally
    /// canonical, and a `(record time, dispatching priority)` key can
    /// only repeat *within* one tile's buffer (an event dispatches on
    /// exactly one tile and priorities are globally unique), so
    /// cross-tile keys never collide: the merge gallops to the next
    /// cursor's key with `partition_point` and bulk-appends whole runs
    /// via [`Trace::extend`].
    fn merge_traces(&mut self) {
        if !self.trace.is_enabled() {
            return;
        }
        debug_assert!(self.merge_heap.is_empty());
        for &t in &self.active {
            let tile = &self.tiles[t as usize];
            debug_assert_eq!(tile.trace_cursor, 0);
            if let Some(&(prio, rec)) = tile.trace_buf.first() {
                self.merge_heap.push(Reverse((rec.at, prio, t)));
            }
        }
        while let Some(Reverse((_, _, t))) = self.merge_heap.pop() {
            let tile = &mut self.tiles[t as usize];
            let start = tile.trace_cursor;
            let end = match self.merge_heap.peek() {
                None => tile.trace_buf.len(),
                Some(&Reverse((la, lp, _))) => {
                    start + tile.trace_buf[start..].partition_point(|&(p, r)| (r.at, p) <= (la, lp))
                }
            };
            self.trace
                .extend(tile.trace_buf[start..end].iter().map(|&(_, r)| r));
            if let Some(&(p, r)) = tile.trace_buf.get(end) {
                tile.trace_cursor = end;
                self.merge_heap.push(Reverse((r.at, p, t)));
            } else {
                tile.trace_buf.clear();
                tile.trace_cursor = 0;
            }
        }
    }

    /// Runs until the next pending event lies beyond `deadline`
    /// (events at exactly `deadline` are processed), window by window:
    /// each window `[k·W, (k+1)·W)` — `W` the radio's base delay — is
    /// executed on the tiles with pending work in parallel via
    /// [`par_for_each_mut`](crate::par::par_for_each_mut), then
    /// cross-tile deliveries and trace buffers are merged at the
    /// barrier in a deterministic order. Idle gaps between windows are
    /// skipped, and idle tiles cost nothing: the window schedule (an
    /// O(log T) tournament tree, [`TileSchedule`]) is refreshed in
    /// full once per call and maintained incrementally afterwards —
    /// only tiles that ran or received copies are re-probed.
    /// Afterwards `now()` equals `deadline` and per-node energy is
    /// synced to it.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        let t_refresh = Instant::now();
        for t in 0..self.tiles.len() {
            self.sched.set(t, self.tiles[t].queue.peek_time());
        }
        self.breakdown.scheduling_s += t_refresh.elapsed().as_secs_f64();
        loop {
            let t0 = Instant::now();
            let Some(next) = self.sched.min_time() else {
                break;
            };
            if next > deadline {
                break;
            }
            let w = self.delay;
            let barrier = window_end(window_index(next, w), w);
            let lim = barrier.min(SimTime::from_micros(deadline.as_micros().saturating_add(1)));
            // Strict `<` matches `pop_before`; `lim > next` guarantees
            // at least one active tile, so the loop always progresses.
            self.active.clear();
            self.sched.collect_before(lim, &mut self.active);
            let t1 = Instant::now();
            {
                let workers = self.workers;
                let shared = Shared {
                    topology: &self.topology,
                    tile_of: &self.tile_of,
                    local_of: &self.local_of,
                    partition: &self.partition,
                    link_lag: &self.link_lag,
                    delay: self.delay,
                    jitter: self.jitter,
                    dup_probability: self.dup_probability,
                    dup_lag: self.dup_lag,
                    trace_enabled: self.trace.is_enabled(),
                };
                let mut act = gather_mut(&mut self.tiles, &self.active);
                crate::par::par_for_each_mut(workers, &mut act, |_, tile| {
                    tile.run_window(lim, &shared);
                });
            }
            let t2 = Instant::now();
            for &t in &self.active {
                self.sched
                    .set(t as usize, self.tiles[t as usize].queue.peek_time());
            }
            let t3 = Instant::now();
            self.merge_traces();
            let t4 = Instant::now();
            self.exchange(lim);
            let t5 = Instant::now();
            self.breakdown.windows += 1;
            self.breakdown.scheduling_s += (t1 - t0).as_secs_f64() + (t3 - t2).as_secs_f64();
            self.breakdown.window_exec_s += (t2 - t1).as_secs_f64();
            self.breakdown.trace_merge_s += (t4 - t3).as_secs_f64();
            self.breakdown.exchange_s += (t5 - t4).as_secs_f64();
        }
        let end = self.now.max(deadline);
        for tile in &mut self.tiles {
            tile.energy.sync_all(end);
            tile.now = tile.now.max(end);
        }
        self.now = end;
    }
}

impl<A: Actor> std::fmt::Debug for TiledSim<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TiledSim")
            .field("nodes", &self.topology.len())
            .field("grid", &self.grid_dims())
            .field("now", &self.now)
            .field(
                "pending_events",
                &self.tiles.iter().map(|t| t.queue.len()).sum::<usize>(),
            )
            .finish()
    }
}

/// Marker distinguishing tiled checkpoints from single-queue
/// [`Simulator`](crate::sim::Simulator) checkpoints (which begin their
/// body with a `Topology`, never this tag).
const TILED_TAG: u32 = 0x544C4421; // "TLD!"

impl<A: Actor + Persist> TiledSim<A>
where
    A::Msg: Persist + Clone,
{
    /// Serializes the complete engine state at a window barrier or any
    /// quiescent point between `run_until` calls. The format extends
    /// the shared container (magic + version, DESIGN.md §13) with a
    /// tiled tag and the grid dimensions, then one section per tile in
    /// tile order; per-tile queues are persisted as `(time, priority,
    /// event)` entries sorted by their canonical key, so the encoding
    /// is independent of the queue's internal layout.
    ///
    /// # Errors
    ///
    /// Fails with [`CheckpointError::Corrupt`] if a tile's loss model
    /// cannot snapshot itself (never the case for models accepted by
    /// [`TiledSim::new`]).
    pub fn checkpoint(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut w = Writer::new();
        checkpoint::write_header(&mut w);
        w.put_u32(TILED_TAG);
        self.grid.gx().persist(&mut w);
        self.grid.gy().persist(&mut w);
        self.topology.persist(&mut w);
        self.delay.persist(&mut w);
        self.jitter.persist(&mut w);
        self.now.persist(&mut w);
        self.started.persist(&mut w);
        self.ext_seq.persist(&mut w);
        self.partition.persist(&mut w);
        self.link_lag.persist(&mut w);
        self.dup_probability.persist(&mut w);
        self.dup_lag.persist(&mut w);
        self.model.persist(&mut w);
        self.trace.persist(&mut w);
        for tile in &self.tiles {
            debug_assert!(tile.outbox.is_empty(), "checkpoint between windows only");
            debug_assert!(tile.trace_buf.is_empty(), "checkpoint between windows only");
            let Some(loss) = tile.loss.snapshot() else {
                return Err(CheckpointError::Corrupt(
                    "loss model does not support checkpointing",
                ));
            };
            loss.persist(&mut w);
            tile.actors.persist(&mut w);
            tile.alive.persist(&mut w);
            tile.departed.persist(&mut w);
            tile.dormant.persist(&mut w);
            tile.rngs.persist(&mut w);
            tile.next_seq.persist(&mut w);
            tile.energy.remaining.persist(&mut w);
            tile.energy.last_credit.persist(&mut w);
            tile.metrics.transmissions.persist(&mut w);
            tile.metrics.deliveries.persist(&mut w);
            tile.metrics.losses.persist(&mut w);
            tile.metrics.dropped_dead.persist(&mut w);
            tile.metrics.timers_fired.persist(&mut w);
            tile.metrics.tx_local.persist(&mut w);
            tile.payloads.persist(&mut w);
            tile.timers.persist(&mut w);
            tile.node_timers.persist(&mut w);
            tile.now.persist(&mut w);
            tile.queue.sorted_entries().persist(&mut w);
        }
        Ok(w.into_bytes())
    }

    /// Rebuilds a tiled engine from a [`TiledSim::checkpoint`]
    /// snapshot, at the grid recorded in the snapshot.
    ///
    /// # Errors
    ///
    /// Fails on truncated, foreign, version-mismatched, or
    /// structurally inconsistent bytes; never panics on untrusted
    /// input.
    pub fn restore(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes);
        checkpoint::read_header(&mut r)?;
        if r.get_u32()? != TILED_TAG {
            return Err(CheckpointError::Corrupt("not a tiled checkpoint"));
        }
        let gx = u32::restore(&mut r)?;
        let gy = u32::restore(&mut r)?;
        if gx == 0 || gy == 0 {
            return Err(CheckpointError::Corrupt("degenerate tile grid"));
        }
        let topology = Topology::restore(&mut r)?;
        let delay = SimDuration::restore(&mut r)?;
        let jitter = SimDuration::restore(&mut r)?;
        if delay < SimDuration::from_micros(1) {
            return Err(CheckpointError::Corrupt(
                "radio delay below lookahead floor",
            ));
        }
        let now = SimTime::restore(&mut r)?;
        let started = bool::restore(&mut r)?;
        let ext_seq = u64::restore(&mut r)?;
        let partition: Option<Vec<u32>> = Option::restore(&mut r)?;
        let link_lag: Vec<(NodeId, NodeId, SimDuration)> = Vec::restore(&mut r)?;
        let dup_probability = f64::restore(&mut r)?;
        let dup_lag = SimDuration::restore(&mut r)?;
        let model = EnergyModel::restore(&mut r)?;
        let trace = Trace::restore(&mut r)?;
        if !(0.0..=1.0).contains(&dup_probability) {
            return Err(CheckpointError::Corrupt(
                "duplication probability out of range",
            ));
        }
        let n = topology.len();
        if partition.as_ref().is_some_and(|g| g.len() != n) {
            return Err(CheckpointError::Corrupt("population size mismatch"));
        }
        // Tile membership is a pure function of (topology, grid): the
        // snapshot doesn't store it, it is recomputed and each tile
        // section validated against the recomputed population.
        let grid = TileGrid::new(topology.positions(), gx, gy);
        let ntiles = grid.len();
        let mut tile_of = vec![0u32; n];
        let mut local_of = vec![0u32; n];
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); ntiles];
        for i in 0..n {
            let node = NodeId(i as u32);
            let t = grid.tile_of(topology.position(node));
            tile_of[i] = t;
            local_of[i] = members[t as usize].len() as u32;
            members[t as usize].push(node);
        }
        let mut tiles = Vec::with_capacity(ntiles);
        for (t, nodes) in members.into_iter().enumerate() {
            let k = nodes.len();
            let loss = LossSnapshot::restore(&mut r)?;
            let actors: Vec<A> = Vec::restore(&mut r)?;
            let alive: Vec<bool> = Vec::restore(&mut r)?;
            let departed: Vec<bool> = Vec::restore(&mut r)?;
            let dormant: Vec<bool> = Vec::restore(&mut r)?;
            let rngs: Vec<StdRng> = Vec::restore(&mut r)?;
            let next_seq: Vec<u64> = Vec::restore(&mut r)?;
            let remaining: Vec<f64> = Vec::restore(&mut r)?;
            let last_credit: Vec<SimTime> = Vec::restore(&mut r)?;
            let transmissions = u64::restore(&mut r)?;
            let deliveries = u64::restore(&mut r)?;
            let losses = u64::restore(&mut r)?;
            let dropped_dead = u64::restore(&mut r)?;
            let timers_fired = u64::restore(&mut r)?;
            let tx_local: Vec<u64> = Vec::restore(&mut r)?;
            let payloads = PayloadArena::restore(&mut r)?;
            let timers = TimerSlab::restore(&mut r)?;
            let node_timers: Vec<Vec<(u64, u32)>> = Vec::restore(&mut r)?;
            let tile_now = SimTime::restore(&mut r)?;
            let entries: Vec<(SimTime, EventPrio, EventKind<PayloadId>)> = Vec::restore(&mut r)?;
            if actors.len() != k
                || alive.len() != k
                || departed.len() != k
                || dormant.len() != k
                || rngs.len() != k
                || next_seq.len() != k
                || remaining.len() != k
                || last_credit.len() != k
                || tx_local.len() != k
                || node_timers.len() != k
            {
                return Err(CheckpointError::Corrupt("tile population size mismatch"));
            }
            tiles.push(Tile {
                index: t as u32,
                actors,
                alive,
                departed,
                dormant,
                rngs,
                next_seq,
                energy: LazyEnergy {
                    model,
                    remaining,
                    last_credit,
                },
                loss: loss.rebuild(),
                queue: SlabQueue::from_entries(entries, delay),
                payloads,
                timers,
                node_timers,
                metrics: TileMetrics {
                    transmissions,
                    deliveries,
                    losses,
                    dropped_dead,
                    timers_fired,
                    tx_local,
                },
                outbox: Vec::new(),
                bucket_pool: Vec::new(),
                tx_dests: Vec::new(),
                trace_buf: Vec::new(),
                trace_cursor: 0,
                tag: EventPrio {
                    birth: SimTime::ZERO,
                    node: EXTERNAL_NODE,
                    seq: 0,
                },
                now: tile_now,
                scratch_commands: Vec::new(),
                scratch_payload_ids: Vec::new(),
                nodes,
            });
        }
        if r.remaining() != 0 {
            return Err(CheckpointError::Corrupt("trailing bytes"));
        }
        Ok(TiledSim {
            grid,
            tile_of,
            local_of,
            tiles,
            delay,
            jitter,
            now,
            started,
            ext_seq,
            partition,
            link_lag,
            dup_probability,
            dup_lag,
            trace,
            model,
            workers: 1,
            sched: TileSchedule::new(ntiles),
            active: Vec::new(),
            dest_in: (0..ntiles).map(|_| Vec::new()).collect(),
            window_dests: Vec::new(),
            merge_heap: BinaryHeap::new(),
            breakdown: BarrierBreakdown::default(),
            topology,
        })
    }

    /// [`TiledSim::restore`], additionally **rejecting** any snapshot
    /// whose recorded grid differs from `(gx, gy)`.
    ///
    /// This is the chosen re-tiling policy: a checkpoint pins its
    /// grid. Per-tile RNG/loss/queue state has no deterministic
    /// interpretation under a different partition mid-run, so rather
    /// than silently re-tiling (and changing no observable output but
    /// risking an undetected drifted mapping), a mismatch is a hard
    /// [`CheckpointError::Corrupt`]. Re-tiling is achieved explicitly:
    /// finish the run, rebuild via [`TiledSim::new`] at the new grid.
    ///
    /// # Errors
    ///
    /// Everything [`TiledSim::restore`] rejects, plus grid mismatch.
    pub fn restore_with_grid(bytes: &[u8], gx: u32, gy: u32) -> Result<Self, CheckpointError> {
        let sim = Self::restore(bytes)?;
        if sim.grid_dims() != (gx, gy) {
            return Err(CheckpointError::Corrupt(
                "tile grid mismatch: checkpoints pin their grid",
            ));
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Ctx, TimerToken};
    use crate::geometry::Point;
    use proptest::prelude::*;

    /// Broadcasts pings at start, echoes every Nth heard message, and
    /// runs a periodic timer — enough traffic to exercise delivery,
    /// timers, and RNG draws on every engine path.
    #[derive(Default, Debug)]
    struct Chatter {
        pings: u32,
        heard: Vec<(NodeId, u32)>,
        timer_fires: u32,
    }

    impl Actor for Chatter {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for i in 0..self.pings {
                ctx.broadcast(i);
            }
            ctx.set_timer(SimDuration::from_millis(3), TimerToken(7));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: &u32) {
            self.heard.push((from, *msg));
            if msg.is_multiple_of(5) && self.heard.len() < 64 {
                ctx.broadcast(msg + 100);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _token: TimerToken) {
            self.timer_fires += 1;
            if self.timer_fires < 4 {
                ctx.set_timer(SimDuration::from_millis(3), TimerToken(7));
                ctx.broadcast(1000 + self.timer_fires);
            }
        }
    }

    fn grid_topology(n: usize, side: f64, range: f64) -> Topology {
        // Deterministic pseudo-random scatter without rand: SplitMix64.
        let mut s = 0x5EEDu64;
        let mut next = move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let positions = (0..n)
            .map(|_| {
                let x = (next() % 10_000) as f64 / 10_000.0 * side;
                let y = (next() % 10_000) as f64 / 10_000.0 * side;
                Point::new(x, y)
            })
            .collect();
        Topology::from_positions(positions, range)
    }

    fn radio() -> RadioConfig {
        RadioConfig::bernoulli(0.15).with_jitter(SimDuration::from_micros(300))
    }

    fn fingerprint_canonical(sim: &CanonicalSim<Chatter>) -> (Vec<String>, Vec<u64>, String) {
        let trace: Vec<String> = sim
            .trace()
            .records()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        let energy = sim
            .energy_remaining_vec()
            .iter()
            .map(|e| e.to_bits())
            .collect();
        let metrics = format!("{:?}", sim.metrics());
        (trace, energy, metrics)
    }

    fn fingerprint_tiled(sim: &TiledSim<Chatter>) -> (Vec<String>, Vec<u64>, String) {
        let trace: Vec<String> = sim
            .trace()
            .records()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        let energy = sim
            .energy_remaining_vec()
            .iter()
            .map(|e| e.to_bits())
            .collect();
        let metrics = format!("{:?}", sim.metrics());
        (trace, energy, metrics)
    }

    fn run_canonical(seed: u64, n: usize) -> (Vec<String>, Vec<u64>, String) {
        let mut sim = CanonicalSim::new(grid_topology(n, 400.0, 120.0), radio(), seed, |id| {
            Chatter {
                pings: 1 + id.0 % 3,
                ..Chatter::default()
            }
        });
        sim.enable_trace();
        sim.set_energy_model(EnergyModel {
            initial: 50.0,
            tx_cost: 0.4,
            rx_cost: 0.1,
            harvest_per_sec: 2.0,
        });
        sim.set_duplication(0.1, SimDuration::from_micros(150));
        sim.schedule_crash(NodeId(2), SimTime::from_millis(4));
        sim.schedule_leave(NodeId(5), SimTime::from_millis(6));
        sim.schedule_rejoin(NodeId(2), SimTime::from_millis(9));
        sim.run_until(SimTime::from_millis(14));
        fingerprint_canonical(&sim)
    }

    fn run_tiled(
        seed: u64,
        n: usize,
        gx: u32,
        gy: u32,
        workers: usize,
    ) -> (Vec<String>, Vec<u64>, String) {
        let mut sim = TiledSim::new(
            grid_topology(n, 400.0, 120.0),
            radio(),
            seed,
            gx,
            gy,
            |id| Chatter {
                pings: 1 + id.0 % 3,
                ..Chatter::default()
            },
        );
        sim.set_workers(workers);
        sim.enable_trace();
        sim.set_energy_model(EnergyModel {
            initial: 50.0,
            tx_cost: 0.4,
            rx_cost: 0.1,
            harvest_per_sec: 2.0,
        });
        sim.set_duplication(0.1, SimDuration::from_micros(150));
        sim.schedule_crash(NodeId(2), SimTime::from_millis(4));
        sim.schedule_leave(NodeId(5), SimTime::from_millis(6));
        sim.schedule_rejoin(NodeId(2), SimTime::from_millis(9));
        sim.run_until(SimTime::from_millis(14));
        fingerprint_tiled(&sim)
    }

    #[test]
    fn window_math_is_half_open() {
        let w = SimDuration::from_millis(1);
        assert_eq!(window_index(SimTime::ZERO, w), 0);
        assert_eq!(window_index(SimTime::from_micros(999), w), 0);
        // An event exactly at the barrier belongs to the NEXT window.
        assert_eq!(window_index(SimTime::from_micros(1000), w), 1);
        assert_eq!(window_end(0, w), SimTime::from_micros(1000));
        assert_eq!(window_end(3, w), SimTime::from_micros(4000));
    }

    #[test]
    fn grid_assignment_is_clamped_and_total() {
        let topo = grid_topology(64, 300.0, 80.0);
        let grid = TileGrid::new(topo.positions(), 3, 2);
        assert_eq!(grid.len(), 6);
        for p in topo.positions() {
            assert!((grid.tile_of(*p) as usize) < grid.len());
        }
        // Far outside the bounding box still clamps to an edge tile.
        let outside = Point::new(-1e9, 1e9);
        assert!((grid.tile_of(outside) as usize) < grid.len());
    }

    #[test]
    fn one_by_one_grid_matches_canonical() {
        assert_eq!(run_canonical(42, 24), run_tiled(42, 24, 1, 1, 1));
    }

    #[test]
    fn tile_count_invariance() {
        let base = run_tiled(7, 30, 1, 1, 1);
        assert_eq!(base, run_tiled(7, 30, 2, 2, 1));
        assert_eq!(base, run_tiled(7, 30, 4, 3, 1));
        assert_eq!(base, run_canonical(7, 30));
    }

    #[test]
    fn worker_count_invariance() {
        let one = run_tiled(11, 30, 3, 3, 1);
        assert_eq!(one, run_tiled(11, 30, 3, 3, 2));
        assert_eq!(one, run_tiled(11, 30, 3, 3, 8));
    }

    #[test]
    fn run_until_is_resumable_at_arbitrary_deadlines() {
        // Mid-window stops: 1.3 ms and 7.77 ms are not barrier-aligned.
        // Identical call sequences must agree across engines, grids,
        // and workers (the determinism contract). Energy is *not*
        // invariant across different split points — each run_until end
        // is a harvest sync whose float rounding depends on the split —
        // but traces and metrics are.
        let splits = [
            SimTime::from_micros(1_300),
            SimTime::from_micros(7_770),
            SimTime::from_millis(14),
        ];
        let run_tiled_split = |gx: u32, gy: u32, workers: usize| {
            let mut sim =
                TiledSim::new(grid_topology(20, 400.0, 120.0), radio(), 13, gx, gy, |id| {
                    Chatter {
                        pings: 1 + id.0 % 3,
                        ..Chatter::default()
                    }
                });
            sim.set_workers(workers);
            sim.enable_trace();
            sim.set_energy_model(EnergyModel {
                initial: 50.0,
                tx_cost: 0.4,
                rx_cost: 0.1,
                harvest_per_sec: 2.0,
            });
            sim.set_duplication(0.1, SimDuration::from_micros(150));
            sim.schedule_crash(NodeId(2), SimTime::from_millis(4));
            sim.schedule_leave(NodeId(5), SimTime::from_millis(6));
            sim.schedule_rejoin(NodeId(2), SimTime::from_millis(9));
            for d in splits {
                sim.run_until(d);
            }
            fingerprint_tiled(&sim)
        };
        let canonical_split = {
            let mut sim =
                CanonicalSim::new(grid_topology(20, 400.0, 120.0), radio(), 13, |id| Chatter {
                    pings: 1 + id.0 % 3,
                    ..Chatter::default()
                });
            sim.enable_trace();
            sim.set_energy_model(EnergyModel {
                initial: 50.0,
                tx_cost: 0.4,
                rx_cost: 0.1,
                harvest_per_sec: 2.0,
            });
            sim.set_duplication(0.1, SimDuration::from_micros(150));
            sim.schedule_crash(NodeId(2), SimTime::from_millis(4));
            sim.schedule_leave(NodeId(5), SimTime::from_millis(6));
            sim.schedule_rejoin(NodeId(2), SimTime::from_millis(9));
            for d in splits {
                sim.run_until(d);
            }
            fingerprint_canonical(&sim)
        };
        let base = run_tiled_split(2, 2, 1);
        assert_eq!(base, canonical_split);
        assert_eq!(base, run_tiled_split(1, 1, 1));
        assert_eq!(base, run_tiled_split(3, 3, 4));
        // Traces and metrics (though not energy bits) also match the
        // single-deadline run.
        let full = run_tiled(13, 20, 2, 2, 1);
        assert_eq!(full.0, base.0, "trace is split-invariant");
        assert_eq!(full.2, base.2, "metrics are split-invariant");
    }

    #[test]
    fn lookahead_floor_is_enforced() {
        let result = std::panic::catch_unwind(|| {
            TiledSim::new(
                grid_topology(4, 100.0, 50.0),
                RadioConfig::lossless().with_delay(SimDuration::ZERO),
                1,
                1,
                1,
                |_| Chatter::default(),
            )
        });
        assert!(result.is_err(), "zero delay means zero lookahead");
    }

    #[test]
    fn suggested_grid_is_sane() {
        assert_eq!(suggested_grid(0, 4096), (1, 1));
        assert_eq!(suggested_grid(4096, 4096), (1, 1));
        let (gx, gy) = suggested_grid(1_000_000, 4096);
        assert_eq!(gx, gy);
        assert!((12..=20).contains(&gx), "≈√(1M/4096) ≈ 15.6, got {gx}");
    }

    #[test]
    fn dormant_and_join_flow_matches_canonical() {
        let build_c = |seed| {
            let mut sim = CanonicalSim::new(grid_topology(16, 300.0, 100.0), radio(), seed, |_| {
                Chatter {
                    pings: 2,
                    ..Chatter::default()
                }
            });
            sim.enable_trace();
            sim.set_dormant(NodeId(3));
            sim.set_dormant(NodeId(9));
            sim.schedule_join(NodeId(3), SimTime::from_millis(5));
            sim.run_until(SimTime::from_millis(12));
            fingerprint_canonical(&sim)
        };
        let build_t = |seed, gx, gy| {
            let mut sim = TiledSim::new(
                grid_topology(16, 300.0, 100.0),
                radio(),
                seed,
                gx,
                gy,
                |_| Chatter {
                    pings: 2,
                    ..Chatter::default()
                },
            );
            sim.enable_trace();
            sim.set_dormant(NodeId(3));
            sim.set_dormant(NodeId(9));
            sim.schedule_join(NodeId(3), SimTime::from_millis(5));
            sim.run_until(SimTime::from_millis(12));
            assert!(!sim.is_alive(NodeId(9)) && sim.is_dormant(NodeId(9)));
            assert!(sim.is_alive(NodeId(3)));
            fingerprint_tiled(&sim)
        };
        let c = build_c(99);
        assert_eq!(c, build_t(99, 1, 1));
        assert_eq!(c, build_t(99, 3, 2));
    }

    #[test]
    fn partition_and_link_lag_match_canonical() {
        let groups: Vec<u32> = (0..20u32).map(|i| i % 2).collect();
        let run_c = |seed| {
            let mut sim = CanonicalSim::new(grid_topology(20, 300.0, 150.0), radio(), seed, |_| {
                Chatter {
                    pings: 2,
                    ..Chatter::default()
                }
            });
            sim.enable_trace();
            sim.set_partition(groups.clone());
            sim.set_link_lag(NodeId(0), NodeId(2), SimDuration::from_micros(700));
            sim.run_until(SimTime::from_millis(4));
            sim.clear_partition();
            sim.remove_link_lag(NodeId(0), NodeId(2));
            sim.run_until(SimTime::from_millis(9));
            fingerprint_canonical(&sim)
        };
        let run_t = |seed, gx, gy| {
            let mut sim = TiledSim::new(
                grid_topology(20, 300.0, 150.0),
                radio(),
                seed,
                gx,
                gy,
                |_| Chatter {
                    pings: 2,
                    ..Chatter::default()
                },
            );
            sim.enable_trace();
            sim.set_partition(groups.clone());
            sim.set_link_lag(NodeId(0), NodeId(2), SimDuration::from_micros(700));
            sim.run_until(SimTime::from_millis(4));
            sim.clear_partition();
            sim.remove_link_lag(NodeId(0), NodeId(2));
            sim.run_until(SimTime::from_millis(9));
            fingerprint_tiled(&sim)
        };
        let c = run_c(5);
        assert_eq!(c, run_t(5, 1, 1));
        assert_eq!(c, run_t(5, 4, 4));
    }

    #[test]
    fn mid_run_radio_swap_matches_canonical() {
        // The second swap shrinks the base delay below the slab width
        // the tile queues were built with (1 ms): every delivery then
        // fires inside the open slab and takes the late-heap path —
        // here while that slab's sorted run still holds a crash and a
        // rejoin they must interleave with — so correctness cannot
        // lean on the width.
        let short_hop = || {
            RadioConfig::bernoulli(0.2)
                .with_delay(SimDuration::from_micros(200))
                .with_jitter(SimDuration::from_micros(50))
        };
        let run_c = |seed| {
            let mut sim = CanonicalSim::new(grid_topology(18, 300.0, 130.0), radio(), seed, |_| {
                Chatter {
                    pings: 2,
                    ..Chatter::default()
                }
            });
            sim.enable_trace();
            sim.run_until(SimTime::from_millis(3));
            sim.set_radio(RadioConfig::bernoulli(0.4).with_jitter(SimDuration::from_micros(80)));
            sim.run_until(SimTime::from_millis(8));
            sim.set_radio(short_hop());
            sim.schedule_crash(NodeId(4), SimTime::from_micros(9_230));
            sim.schedule_rejoin(NodeId(4), SimTime::from_micros(9_240));
            sim.run_until(SimTime::from_millis(13));
            fingerprint_canonical(&sim)
        };
        let run_t = |seed, gx, gy| {
            let mut sim = TiledSim::new(
                grid_topology(18, 300.0, 130.0),
                radio(),
                seed,
                gx,
                gy,
                |_| Chatter {
                    pings: 2,
                    ..Chatter::default()
                },
            );
            sim.enable_trace();
            sim.run_until(SimTime::from_millis(3));
            sim.set_radio(RadioConfig::bernoulli(0.4).with_jitter(SimDuration::from_micros(80)));
            sim.run_until(SimTime::from_millis(8));
            sim.set_radio(short_hop());
            sim.schedule_crash(NodeId(4), SimTime::from_micros(9_230));
            sim.schedule_rejoin(NodeId(4), SimTime::from_micros(9_240));
            sim.run_until(SimTime::from_millis(13));
            fingerprint_tiled(&sim)
        };
        let c = run_c(21);
        assert_eq!(c, run_t(21, 1, 1));
        assert_eq!(c, run_t(21, 2, 3));
    }

    // --- SlabQueue against a BinaryHeap model ---

    /// The model's next fire time (`EventHeap` itself has no peek:
    /// `CanonicalSim` never needs one).
    fn model_peek(model: &EventHeap<u32>) -> Option<SimTime> {
        model.heap.peek().map(|e| e.0.at)
    }

    fn model_sorted(model: &EventHeap<u32>) -> Vec<(SimTime, EventPrio, EventKind<u32>)> {
        let mut entries: Vec<_> = model
            .heap
            .iter()
            .map(|Reverse(e)| (e.at, e.prio, e.kind.clone()))
            .collect();
        entries.sort_by_key(|&(at, prio, _)| (at, prio));
        entries
    }

    /// Interprets `ops` on a [`SlabQueue`] of slab width `width` µs and
    /// on the `BinaryHeap` model, comparing every pop, `peek_time` and
    /// `len` along the way and the full drain at the end. Returns how
    /// many pushes took the late-heap path and how many slabs were
    /// opened, so scripted tests can assert they hit what they aim at.
    ///
    /// `(op, a, b)`: 0–2 push at absolute time `a`; 3 push `a % 4` µs
    /// after the last pop (the open slab, equal fire times); 4 pop
    /// with `lim` clipped `a % 3` µs past the head (mid-slab stop,
    /// resumed by later ops); 5 up to `b % 8 + 1` pops before `a`;
    /// 6 drain before `a`; 7 snapshot through `sorted_entries` →
    /// `from_entries` at slab width `b % 2000 + 1`.
    fn run_slab_queue_against_model(width: u64, ops: &[(u8, u64, u64)]) -> (usize, usize) {
        let mut queue = SlabQueue::new(SimDuration::from_micros(width));
        let mut model = EventHeap::new();
        let (mut late_pushes, mut slabs_opened) = (0, 0);
        let mut last_pop = 0u64;
        let mut push =
            |queue: &mut SlabQueue<u32>, model: &mut EventHeap<u32>, i: usize, at: u64, b: u64| {
                let at = SimTime::from_micros(at);
                // Unique key: `seq` is the op index; birth/node collide.
                let prio = EventPrio {
                    birth: SimTime::from_micros(b % 3),
                    node: (b % 5) as u32,
                    seq: i as u64,
                };
                let kind = EventKind::Deliver {
                    to: NodeId((b % 7) as u32),
                    from: NodeId(prio.node),
                    msg: i as u32,
                };
                late_pushes += usize::from(at < queue.open_end);
                queue.push(at, prio, kind.clone());
                model.push(at, prio, kind);
            };
        for (i, &(op, a, b)) in ops.iter().enumerate() {
            let (lim, max_pops) = match op {
                0..=2 => {
                    push(&mut queue, &mut model, i, a, b);
                    (0, 0)
                }
                3 => {
                    push(&mut queue, &mut model, i, last_pop + a % 4, b);
                    (0, 0)
                }
                4 => (
                    model_peek(&model).map_or(0, |t| t.as_micros() + a % 3),
                    usize::MAX,
                ),
                5 => (a, (b % 8 + 1) as usize),
                6 => (a, usize::MAX),
                _ => {
                    let image = queue.sorted_entries();
                    assert_eq!(image, model_sorted(&model), "checkpoint image");
                    queue = SlabQueue::from_entries(image, SimDuration::from_micros(b % 2000 + 1));
                    (0, 0)
                }
            };
            let lim = SimTime::from_micros(lim);
            for _ in 0..max_pops {
                let before = queue.open_end;
                let popped = queue.pop_before(lim);
                slabs_opened += usize::from(queue.open_end != before);
                assert_eq!(popped, model.pop_before(lim), "op {i}: pop_before({lim:?})");
                match popped {
                    Some((at, _, _)) => last_pop = at.as_micros(),
                    None => break,
                }
            }
            assert_eq!(queue.peek_time(), model_peek(&model), "op {i}: peek_time");
            assert_eq!(queue.len(), model.len(), "op {i}: len");
        }
        assert_eq!(queue.sorted_entries(), model_sorted(&model));
        while let Some(expected) = model.pop_before(NEVER) {
            assert_eq!(queue.pop_before(NEVER), Some(expected));
        }
        assert_eq!(queue.pop_before(NEVER), None);
        assert_eq!(queue.peek_time(), None);
        (late_pushes, slabs_opened)
    }

    #[test]
    fn slab_queue_scripted_clip_late_push_and_snapshot() {
        // Width 10: entries at 12, 12, 15 share slab [10, 20); 31 and
        // 47 wait in the tail.
        let ops = [
            (0, 15, 0),
            (0, 12, 1),
            (0, 47, 2),
            (0, 12, 3),
            (0, 31, 4),
            (6, 13, 0), // opens [10, 20), pops both 12s, stops mid-slab
            (3, 1, 5),  // 12 + 1: inside the open slab -> late heap
            (0, 11, 6), // behind the cursor -> late heap, pops first
            (0, 25, 7), // next slab -> tail
            (5, 16, 0), // resumes: 11 only (one pop)
            (7, 0, 6),  // mid-slab snapshot, restored at width 7
            (6, 16, 0), // then 13 and 15
            (4, 0, 0),  // opens the next slab at exactly its head
            (6, 1000, 0),
        ];
        let (late, slabs) = run_slab_queue_against_model(10, &ops);
        assert_eq!(late, 2);
        assert!(slabs >= 3, "opened {slabs} slabs");
    }

    #[test]
    fn slab_queue_entry_at_the_end_of_time_is_kept_and_reported() {
        let mut queue = SlabQueue::new(SimDuration::from_millis(1));
        let prio = EventPrio {
            birth: SimTime::ZERO,
            node: EXTERNAL_NODE,
            seq: 0,
        };
        queue.push(NEVER, prio, EventKind::<u32>::Crash { node: NodeId(0) });
        assert_eq!(queue.peek_time(), Some(NEVER));
        assert_eq!(
            queue.pop_before(NEVER),
            None,
            "nothing fires strictly before"
        );
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.sorted_entries().len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of push / `pop_before(lim)` /
        /// `peek_time` / snapshot agree with the heap model for slab
        /// widths from 1 µs to far beyond the horizon, over fire times
        /// that collide heavily, fill a few slabs, or spread
        /// jitter-like over many.
        #[test]
        fn slab_queue_matches_heap_model(
            width in prop_oneof![Just(1u64), Just(7), Just(1000), Just(u64::MAX / 2)],
            ops in prop_oneof![
                proptest::collection::vec((0u8..8, 0u64..8, 0u64..10_000), 0..80),
                proptest::collection::vec((0u8..8, 0u64..3_000, 0u64..10_000), 0..80),
                proptest::collection::vec((0u8..8, 0u64..200_000, 0u64..10_000), 0..80),
            ],
        ) {
            run_slab_queue_against_model(width, &ops);
        }

        /// The engine's own shape: bursts that share one fire instant
        /// one slab ahead, timers a few slabs out, and window-by-window
        /// draining with the last window clipped.
        #[test]
        fn slab_queue_matches_heap_model_on_round_synchronous_bursts(
            bursts in proptest::collection::vec((1u64..6, 0usize..40, 0u64..1000), 1..12),
        ) {
            let width = 1000;
            let mut ops = Vec::new();
            let mut t = 0;
            for (gap, size, clip) in bursts {
                t += gap * width;
                for k in 0..size {
                    ops.push((0, t, k as u64)); // the burst
                    if k % 8 == 0 {
                        ops.push((0, t + 3 * width + k as u64, k as u64)); // a timer
                    }
                }
                ops.push((6, t + clip, 0)); // clipped window
                ops.push((3, 0, 1)); // sub-window timer
                ops.push((6, t + width, 0)); // rest of the window
            }
            run_slab_queue_against_model(width, &ops);
        }
    }

    #[test]
    fn imbalance_matches_energy_book_arithmetic() {
        let vals = [3.0, 5.5, 1.25, 9.0];
        let mean = vals.iter().sum::<f64>() / 4.0;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
        assert_eq!(imbalance_of(&vals), var.sqrt());
        assert_eq!(imbalance_of(&[]), 0.0);
    }
}

//! The shard runtime: [`ShardRuntime`].
//!
//! # Execution model
//!
//! `C = A · B` over an `R × C` shard grid is the paper's two-phase
//! scheme (Fig. 7) lifted to the fleet: size every output row, then let
//! each worker fill its own disjoint slice of one exactly allocated
//! output. `A` is cut into `R` flop-balanced row blocks and `B` into
//! `C` nnz-balanced column blocks; shard `(r, c)` is a long-lived
//! thread with its own [`Pool`] and **one** cached plan ([`PlanCache`])
//! for `A_r · B_c`. The coordinator (the caller's thread) caches, per
//! operand structure pair, the cuts and the output layout: `C`'s row
//! pointers and every shard's window into `C`'s `cols` / `vals`.
//!
//! * **Steady state**: allocate `C`, send each shard its operand blocks
//!   and its window, wait for one report per shard; every plan hits.
//!   On single-column grids a shard's rows are one contiguous range
//!   and the numeric pass writes straight into it
//!   ([`SpgemmPlan::execute_into_slices_in`]); on multi-column grids
//!   the shard fills a reused local block and copies its own row
//!   segments into place, column offset added, in parallel with its
//!   peers. The coordinator never copies an output entry.
//! * **New structure**: shards first bind their plan and report
//!   per-row counts; the coordinator prefix-sums them into the layout,
//!   caches it and sends the windows — a second round trip, paid once.
//!
//! Every output entry is accumulated by exactly one shard in the
//! ascending-`k` order the monolithic kernel uses, so under the default
//! [`Algorithm::Hash`] the result is **bit-identical** to it. (Staging
//! `B` to overlap its broadcast with compute pays only when moving a
//! block costs something; it returns together with a real transport.)
//!
//! # Window safety
//!
//! The output arrays live in an `Arc`-owned [`OutBuf`] while the fleet
//! writes them, and every shard holding a window holds the `Arc`. The
//! coordinator takes the arrays back only after every shard of the
//! epoch has reported (each drops its window first); an aborted epoch
//! leaves the buffer to its last holder, so it is never freed under a
//! writer. Windows come from the cached layout only: debug builds
//! assert, when a layout is built and before any window from it is
//! sent, that the windows tile `0..nnz(C)` exactly and match the
//! reported counts, and a shard checks its lengths against its plan
//! before every write.

use crate::error::DistError;
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use spgemm::{Algorithm, OutputOrder, PlanCache, PlanCacheStats, SpgemmPlan};
use spgemm_obs as obs;
use spgemm_par::{panic_text, partition, Pool};
use spgemm_sparse::{stats, ColIdx, Csr, PlusTimes, SparseError};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The semiring the shard runtime executes (the paper's numeric
/// setting, matching the serving layer).
type S = PlusTimes<f64>;

/// Shard grid shape: `rows × cols` shards. Shard `(r, c)` owns row
/// block `r` of `A` and `C` and column block `c` of `B` and `C`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridSpec {
    rows: usize,
    cols: usize,
}

impl GridSpec {
    /// A `rows × cols` grid (both clamped to ≥ 1).
    pub fn new(rows: usize, cols: usize) -> Self {
        GridSpec {
            rows: rows.max(1),
            cols: cols.max(1),
        }
    }

    /// Row blocks (= shard rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column blocks (= shard columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total shard count.
    pub fn shards(&self) -> usize {
        self.rows * self.cols
    }

    /// Parse `"RxC"` (e.g. `"2x2"`, `"4x1"`), as the bench CLI spells
    /// grids.
    pub fn parse(s: &str) -> Option<Self> {
        let (r, c) = s.split_once(['x', 'X'])?;
        Some(GridSpec::new(
            r.trim().parse().ok()?,
            c.trim().parse().ok()?,
        ))
    }
}

impl std::fmt::Display for GridSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// Shard-runtime sizing and kernel policy.
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Shard grid (default 2×1).
    pub grid: GridSpec,
    /// Width of each shard's execution [`Pool`] (default 1).
    pub threads_per_shard: usize,
    /// Local kernel of every shard's product (default
    /// [`Algorithm::Hash`], which makes the sharded result
    /// bit-identical to the monolithic one; `Auto` resolves per
    /// block).
    pub algo: Algorithm,
    /// Output order of the product (default sorted — required for
    /// byte-for-byte agreement with the monolithic kernel).
    pub order: OutputOrder,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            grid: GridSpec::new(2, 1),
            threads_per_shard: 1,
            algo: Algorithm::Hash,
            order: OutputOrder::Sorted,
        }
    }
}

/// Approximate heap footprint of a CSR's arrays (row pointers +
/// column indices + values) — the unit of the runtime's memory
/// accounting and the bench's monolithic comparison.
pub fn csr_bytes<T>(m: &Csr<T>) -> u64 {
    (std::mem::size_of_val(m.rpts())
        + m.nnz() * (std::mem::size_of::<ColIdx>() + std::mem::size_of::<T>())) as u64
}

/// Per-product observability: per-shard memory and the plan-cache
/// counters that certify steady-state numeric-only execution.
#[derive(Clone, Debug)]
pub struct ProductStats {
    /// Bytes each shard held beyond its operand blocks during this
    /// product, flat row-major shard order: its window of `C`, plus
    /// its local block whenever it computed through one (always on
    /// multi-column grids).
    pub per_shard_peak_partial_bytes: Vec<u64>,
    /// Nanoseconds each shard spent binding and computing during this
    /// product (flat row-major shard order) — the number behind
    /// [`ProductStats::compute_imbalance`]. Always measured: a few
    /// clock reads against a multiply.
    pub per_shard_compute_ns: Vec<u64>,
    /// Plan-cache hits summed over all shards, cumulative since the
    /// runtime started. A stable structure re-executed `k` times shows
    /// `shards × (k - 1)` hits.
    pub plan_hits: u64,
    /// Plan-cache (re)builds summed over all shards, cumulative since
    /// the runtime started — constant across steady-state
    /// re-executions.
    pub plan_rebuilds: u64,
}

impl ProductStats {
    /// Largest per-shard figure — the number the bench compares
    /// against the monolithic output footprint.
    pub fn max_peak_partial_bytes(&self) -> u64 {
        self.per_shard_peak_partial_bytes
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Compute-time imbalance across shards: slowest shard over the
    /// mean (`1.0` = perfectly balanced; `2.0` = the critical shard
    /// worked twice the average). `0.0` when nothing was measured.
    pub fn compute_imbalance(&self) -> f64 {
        let n = self.per_shard_compute_ns.len();
        if n == 0 {
            return 0.0;
        }
        let max = *self.per_shard_compute_ns.iter().max().unwrap() as f64;
        let mean = self.per_shard_compute_ns.iter().sum::<u64>() as f64 / n as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }
}

/// Aggregate runtime counters (cumulative across products).
#[derive(Clone, Copy, Debug, Default)]
pub struct DistStats {
    /// Products executed.
    pub products: u64,
    /// Plan-cache hits summed over shards.
    pub plan_hits: u64,
    /// Plan-cache (re)builds summed over shards.
    pub plan_rebuilds: u64,
}

/// `C`'s `cols` / `vals` while the fleet writes them (module docs:
/// "Window safety").
struct OutBuf {
    /// The storage. Between [`OutBuf::new`] and [`OutBuf::into_arrays`]
    /// / drop only its length is read; writes go through the pointers.
    cols: Vec<ColIdx>,
    vals: Vec<f64>,
    cols_ptr: *mut ColIdx,
    vals_ptr: *mut f64,
}

// SAFETY: the pointers address the heap buffers of the two `Vec`s this
// struct owns (plain `Send` data) and live exactly as long as it does.
// Shared access only goes through `OutBuf::slices`, whose contract
// keeps concurrent ranges disjoint.
unsafe impl Send for OutBuf {}
unsafe impl Sync for OutBuf {}

impl OutBuf {
    fn new(nnz: usize) -> Arc<OutBuf> {
        let (mut cols, mut vals) = (vec![0 as ColIdx; nnz], vec![0.0f64; nnz]);
        let (cols_ptr, vals_ptr) = (cols.as_mut_ptr(), vals.as_mut_ptr());
        Arc::new(OutBuf {
            cols,
            vals,
            cols_ptr,
            vals_ptr,
        })
    }

    /// The entries `range` of both arrays (bounds are checked).
    ///
    /// # Safety
    /// No other thread accesses any index in `range` while the
    /// returned slices live.
    #[allow(clippy::mut_from_ref)] // disjoint windows, guarded by the contract
    unsafe fn slices(&self, range: Range<usize>) -> (&mut [ColIdx], &mut [f64]) {
        assert!(
            range.start <= range.end && range.end <= self.cols.len(),
            "window {range:?} outside an output of {} entries",
            self.cols.len()
        );
        // SAFETY: in bounds of both equally long allocations (checked
        // above); exclusive by the caller's contract.
        unsafe {
            (
                std::slice::from_raw_parts_mut(self.cols_ptr.add(range.start), range.len()),
                std::slice::from_raw_parts_mut(self.vals_ptr.add(range.start), range.len()),
            )
        }
    }

    /// Take the arrays back; unique ownership means every window is gone.
    fn into_arrays(self) -> (Vec<ColIdx>, Vec<f64>) {
        (self.cols, self.vals)
    }
}

/// Which entries of the output one shard owns: local row `i` of the
/// shard in grid column `col` is
/// `bounds[i * stride + col]..bounds[i * stride + col + 1]`, with
/// `stride` = grid columns + 1 bounds per row (shared by the shards of
/// one grid row). On a single-column grid (`stride == 2`) the rows
/// abut, so the whole span is one contiguous range.
#[derive(Clone)]
struct Span {
    bounds: Arc<Vec<usize>>,
    col: usize,
    stride: usize,
    /// The block's column indices are this much short of `C`'s.
    col_offset: ColIdx,
}

impl Span {
    fn row(&self, i: usize) -> Range<usize> {
        self.bounds[i * self.stride + self.col]..self.bounds[i * self.stride + self.col + 1]
    }

    /// The span as one range, when its rows abut (and it has any).
    fn contiguous(&self) -> Option<Range<usize>> {
        (self.stride == 2 && !self.bounds.is_empty())
            .then(|| self.bounds[0]..self.bounds[self.bounds.len() - 1])
    }
}

/// A shard's share of one product's output; dropping it releases the
/// shard's hold on the buffer.
struct Window {
    buf: Arc<OutBuf>,
    span: Span,
}

/// The output layout of one operand structure pair under the cached
/// cuts: `C`'s row pointers and every shard's span (flat row-major).
struct Layout {
    rpts: Vec<usize>,
    spans: Vec<Span>,
}

impl Layout {
    /// Prefix-sum the shards' reported local row pointers
    /// (`reported[shard]`) into `C`'s layout.
    fn build(grid: GridSpec, col_cuts: &[usize], reported: &[Vec<usize>]) -> Layout {
        let stride = grid.cols() + 1;
        let mut rpts = vec![0usize];
        let mut spans = Vec::with_capacity(grid.shards());
        for block in reported.chunks_exact(grid.cols()) {
            let block_rows = block[0].len() - 1;
            let mut bounds = Vec::with_capacity(block_rows * stride);
            let mut at = rpts[rpts.len() - 1];
            for i in 0..block_rows {
                bounds.push(at);
                for rp in block {
                    at += rp[i + 1] - rp[i];
                    bounds.push(at);
                }
                rpts.push(at);
            }
            let bounds = Arc::new(bounds);
            spans.extend((0..grid.cols()).map(|col| Span {
                bounds: Arc::clone(&bounds),
                col,
                stride,
                col_offset: col_cuts[col] as ColIdx,
            }));
        }
        let layout = Layout { rpts, spans };
        if cfg!(debug_assertions) {
            layout.assert_windows_tile(reported);
        }
        layout
    }

    fn nnz(&self) -> usize {
        self.rpts[self.rpts.len() - 1]
    }

    fn window(&self, shard: usize, buf: &Arc<OutBuf>) -> Window {
        let (buf, span) = (Arc::clone(buf), self.spans[shard].clone());
        Window { buf, span }
    }

    /// The windows must tile `0..nnz(C)` exactly — sorted, disjoint,
    /// covering — and each be as long as the counts its shard reported.
    fn assert_windows_tile(&self, reported: &[Vec<usize>]) {
        let mut segments: Vec<Range<usize>> = Vec::new();
        for (shard, (span, rp)) in self.spans.iter().zip(reported).enumerate() {
            let rows = (0..span.bounds.len() / span.stride).map(|i| span.row(i));
            let len: usize = rows.clone().map(|seg| seg.end - seg.start).sum();
            assert_eq!(
                len,
                rp[rp.len() - 1],
                "shard {shard}: window != reported counts"
            );
            segments.extend(rows);
        }
        segments.sort_unstable_by_key(|seg| (seg.start, seg.end));
        let mut at = 0;
        for seg in segments {
            assert_eq!(seg.start, at, "windows gap or overlap at entry {at}");
            at = seg.end;
        }
        assert_eq!(at, self.nnz(), "windows do not cover the output");
    }
}

/// One request to a shard; every request gets exactly one reply.
struct Begin {
    /// The product's epoch: a coordinator that aborts a product (a
    /// shard channel died, a bind failed) simply starts the next
    /// epoch, and the gather discards replies to the aborted one. No
    /// drain bookkeeping, no resynchronization protocol.
    epoch: u64,
    /// Row block `r` of `A` (shared by the shards of one grid row).
    a: Arc<Csr<f64>>,
    /// Column block `c` of `B`, columns rebased (shared by the shards
    /// of one grid column).
    b: Arc<Csr<f64>>,
    /// The shard's window, once the coordinator knows the layout;
    /// `None` asks the shard to bind its plan and report row counts
    /// (a second `Begin` of the same epoch then brings the window).
    window: Option<Window>,
    /// The submitting request's trace context, captured from the
    /// coordinator thread's scope so the shard's spans join the same
    /// trace (inert when the product is untraced).
    ctx: obs::TraceCtx,
    /// The coordinator→shard causal flow opened at scatter.
    flow: obs::FlowLink,
}

enum ShardMsg {
    Begin(Begin),
    Shutdown,
}

enum Reply {
    /// To a `Begin` without a window: the row pointers of the shard's
    /// local block.
    Bound(Vec<usize>),
    /// The shard's window is written and released.
    Done {
        held_bytes: u64,
        busy_ns: u64,
        /// The shard's cumulative plan-cache counters.
        plans: PlanCacheStats,
    },
}

struct ShardReply {
    shard: usize,
    epoch: u64,
    result: Result<Reply, DistError>,
    /// The shard→coordinator flow, accepted by the collecting span so
    /// the trace shows one connected scatter→compute→gather graph.
    flow: obs::FlowLink,
}

/// Coordinator-side state behind the product lock.
struct CoordState {
    /// Small pool for cut selection (prefix scans).
    pool: Pool,
    next_epoch: u64,
    /// Cuts and output layout of the most recent operand structure
    /// pair: steady-state re-execution skips the weight scans and the
    /// count round trip, and the blocks keep their structure across
    /// repeats by construction (the shards' plan hits rely on it).
    cache: Option<StructureCache>,
}

/// Cached cut selection and output layout, keyed by the operands'
/// structure fingerprints.
struct StructureCache {
    a_sig: u64,
    b_sig: u64,
    row_cuts: Vec<usize>,
    col_cuts: Vec<usize>,
    /// `None` until a product on this structure got every shard's
    /// counts (a failed bind leaves it unset; the next product asks
    /// again).
    layout: Option<Layout>,
}

/// Products currently occupying or queued for a fleet, summed across
/// every live runtime (one runtime runs one product at a time, so a
/// level above the runtime count means submitters are queueing).
static PRODUCTS_IN_FLIGHT: obs::GaugeSite = obs::GaugeSite::new("dist", "dist.products_in_flight");

/// RAII decrement for [`PRODUCTS_IN_FLIGHT`] — covers error returns
/// and shard-failure paths alike.
struct InFlight;

impl Drop for InFlight {
    fn drop(&mut self) {
        PRODUCTS_IN_FLIGHT.sub(1);
    }
}

/// Test-only fail-point: run by a shard thread once it holds its
/// window, before it writes.
#[cfg(test)]
static ON_WINDOW: std::sync::Mutex<Option<Arc<dyn Fn() + Send + Sync>>> =
    std::sync::Mutex::new(None);

/// A persistent fleet of worker shards executing `C = A · B` as one
/// cached plan per shard writing into one shared output. See the
/// module docs for the algorithm; see
/// [`ShardRuntime::multiply_with_stats`] for the per-product counters.
///
/// The runtime is `Sync`: concurrent submitters serialize on an
/// internal product lock (one product occupies the whole fleet), so a
/// single shared runtime can safely back a multi-tenant server.
pub struct ShardRuntime {
    cfg: DistConfig,
    senders: Vec<Sender<ShardMsg>>,
    reply_rx: Receiver<ShardReply>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// One product at a time occupies the fleet.
    coordinator: Mutex<CoordState>,
    /// Cumulative counters behind their own (briefly-held) lock, so
    /// [`ShardRuntime::stats`] never waits behind an in-flight
    /// product.
    stats: Mutex<DistStats>,
}

impl ShardRuntime {
    /// Spawn the shard fleet described by `cfg`.
    pub fn new(cfg: DistConfig) -> Self {
        let shards = cfg.grid.shards();
        let (reply_tx, reply_rx) = unbounded();
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for idx in 0..shards {
            // A shard's inbox never holds more than the current
            // product's `Begin` and a `Shutdown`, so it needs no bound.
            let (tx, rx) = unbounded();
            let replies = reply_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!(
                    "spgemm-dist-{}-{}",
                    idx / cfg.grid.cols(),
                    idx % cfg.grid.cols()
                ))
                .spawn(move || shard_loop(idx, cfg, rx, replies))
                .expect("failed to spawn shard thread");
            senders.push(tx);
            handles.push(handle);
        }
        ShardRuntime {
            cfg,
            senders,
            reply_rx,
            handles,
            coordinator: Mutex::new(CoordState {
                pool: Pool::new(1),
                next_epoch: 0,
                cache: None,
            }),
            stats: Mutex::new(DistStats::default()),
        }
    }

    /// The configured grid.
    pub fn grid(&self) -> GridSpec {
        self.cfg.grid
    }

    /// Cumulative counters. Non-blocking with respect to in-flight
    /// products (safe to call from a monitoring thread).
    pub fn stats(&self) -> DistStats {
        *self.stats.lock()
    }

    /// Sharded `C = A · B`, discarding the stats.
    pub fn multiply(&self, a: &Csr<f64>, b: &Csr<f64>) -> Result<Csr<f64>, DistError> {
        self.multiply_with_stats(a, b).map(|(c, _)| c)
    }

    /// Sharded `C = A · B` with per-product [`ProductStats`].
    ///
    /// Blocks until the whole fleet finishes the product; concurrent
    /// callers queue on the internal product lock.
    pub fn multiply_with_stats(
        &self,
        a: &Csr<f64>,
        b: &Csr<f64>,
    ) -> Result<(Csr<f64>, ProductStats), DistError> {
        if a.ncols() != b.nrows() {
            return Err(SparseError::ShapeMismatch {
                left: a.shape(),
                right: b.shape(),
                op: "sharded multiply",
            }
            .into());
        }
        PRODUCTS_IN_FLIGHT.add(1);
        let _in_flight = InFlight;
        let grid = self.cfg.grid;
        let mut guard = self.coordinator.lock();
        let state = &mut *guard;
        let epoch = state.next_epoch;
        state.next_epoch += 1;

        // --- cut selection -------------------------------------------------
        // A's row cuts balance the product's flops (the §4.1 weight),
        // column cuts B's per-column nnz. Both depend only on operand
        // *structure*, so a stable pattern reuses the cached cuts and
        // the layout cached beside them.
        {
            let _g = obs::span!("dist", "dist.partition");
            let a_sig = a.structure_fingerprint();
            let b_sig = if std::ptr::eq(a, b) {
                a_sig
            } else {
                b.structure_fingerprint()
            };
            let known = state.cache.as_ref();
            if !known.is_some_and(|c| c.a_sig == a_sig && c.b_sig == b_sig) {
                let pool = &state.pool;
                state.cache = Some(StructureCache {
                    a_sig,
                    b_sig,
                    row_cuts: partition::balanced_offsets(
                        &stats::row_flops(a, b),
                        grid.rows(),
                        pool,
                    ),
                    col_cuts: partition::balanced_offsets(&stats::column_nnz(b), grid.cols(), pool),
                    layout: None,
                });
            }
        }
        let cache = state.cache.as_mut().expect("cuts installed above");

        // --- scatter: operand blocks, and windows when the layout is known -
        // The caller's trace context (the serve worker runs the
        // coordinator inside its batch scope) rides every Begin so the
        // shard threads' spans join the request's trace; one flow link
        // per message marks the cross-thread handoff.
        let scatter_span = obs::span!("dist", "dist.scatter");
        let ctx = obs::current_ctx();
        let b_blocks = match grid.cols() {
            1 => vec![b.clone()],
            _ => b.split_col_ranges(&cache.col_cuts)?,
        };
        let b_blocks: Vec<Arc<Csr<f64>>> = b_blocks.into_iter().map(Arc::new).collect();
        let a_blocks: Vec<Arc<Csr<f64>>> = (cache.row_cuts.windows(2))
            .map(|cut| Arc::new(a.extract_rows(cut[0]..cut[1])))
            .collect();
        let begin_all = |windows: Option<(&Layout, &Arc<OutBuf>)>| -> Result<(), DistError> {
            for shard in 0..grid.shards() {
                let a = Arc::clone(&a_blocks[shard / grid.cols()]);
                let b = Arc::clone(&b_blocks[shard % grid.cols()]);
                let window = windows.map(|(layout, buf)| layout.window(shard, buf));
                let flow = obs::flow_out("dist.begin");
                let begin = Begin {
                    epoch,
                    a,
                    b,
                    window,
                    ctx,
                    flow,
                };
                self.send(shard, ShardMsg::Begin(begin))?;
            }
            Ok(())
        };
        let mut out = cache.layout.as_ref().map(|l| OutBuf::new(l.nnz()));
        begin_all(cache.layout.as_ref().zip(out.as_ref()))?;
        drop(scatter_span);

        // --- new structure: counts → layout → windows ----------------------
        let shards = grid.shards();
        if out.is_none() {
            let _g = obs::span!("dist", "dist.layout");
            let mut reported: Vec<Vec<usize>> = vec![Vec::new(); shards];
            self.collect(epoch, |shard, reply| {
                if let Reply::Bound(rpts) = reply {
                    reported[shard] = rpts;
                }
            })?;
            let layout = Layout::build(grid, &cache.col_cuts, &reported);
            let buf = OutBuf::new(layout.nnz());
            begin_all(Some((&layout, &buf)))?;
            cache.layout = Some(layout);
            out = Some(buf);
        }
        let layout = cache.layout.as_ref().expect("layout known or just built");
        let out = out.expect("output allocated with the layout");

        // --- gather: wait for every shard's report -------------------------
        let mut stats = ProductStats {
            per_shard_peak_partial_bytes: vec![0; shards],
            per_shard_compute_ns: vec![0; shards],
            plan_hits: 0,
            plan_rebuilds: 0,
        };
        {
            let _g = obs::span!("dist", "dist.gather");
            self.collect(epoch, |shard, reply| {
                let Reply::Done {
                    held_bytes,
                    busy_ns,
                    plans,
                } = reply
                else {
                    return;
                };
                stats.per_shard_peak_partial_bytes[shard] = held_bytes;
                stats.per_shard_compute_ns[shard] = busy_ns;
                stats.plan_hits += plans.hits;
                stats.plan_rebuilds += plans.rebuilds;
            })?;
        }
        // Every shard dropped its window before reporting, so the
        // coordinator is the buffer's last holder.
        let (cols, vals) = Arc::try_unwrap(out)
            .map_err(|_| DistError::ShardFailed {
                shard: usize::MAX,
                detail: "output buffer still shared after every shard reported".into(),
            })?
            .into_arrays();
        // Every kernel honours a sorted request; an unsorted one makes
        // no claim, even where a kernel's rows happen to be sorted.
        let (rpts, sorted) = (layout.rpts.clone(), self.cfg.order.is_sorted());
        let c = Csr::from_parts_unchecked(a.nrows(), b.ncols(), rpts, cols, vals, sorted);
        {
            let mut totals = self.stats.lock();
            totals.products += 1;
            totals.plan_hits = stats.plan_hits;
            totals.plan_rebuilds = stats.plan_rebuilds;
        }
        Ok((c, stats))
    }

    fn send(&self, shard: usize, msg: ShardMsg) -> Result<(), DistError> {
        self.senders[shard]
            .send(msg)
            .map_err(|_| DistError::ShardFailed {
                shard,
                detail: "shard channel severed (shard thread died)".into(),
            })
    }

    /// Wait for one reply of `epoch` from every shard, handing the
    /// successful ones to `on_reply`; the first failure is returned
    /// once all have reported.
    fn collect(&self, epoch: u64, mut on_reply: impl FnMut(usize, Reply)) -> Result<(), DistError> {
        let mut first_err = None;
        let mut collected = 0;
        while collected < self.senders.len() {
            let reply = self.reply_rx.recv().map_err(|_| DistError::ShardFailed {
                shard: usize::MAX,
                detail: "reply channel severed (every shard thread died)".into(),
            })?;
            if reply.epoch != epoch {
                continue; // straggler from an aborted earlier product
            }
            reply.flow.accept("dist.done");
            collected += 1;
            match reply.result {
                Ok(body) => on_reply(reply.shard, body),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for ShardRuntime {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A shard's long-lived state, next to its plan cache.
struct Shard {
    pool: Pool,
    /// Reused output of products computed through a block rather than
    /// straight into the window (multi-column grids, one-phase first
    /// runs).
    local: Csr<f64>,
    /// Left by a `Begin` without a window for the one that brings it.
    bound: Option<Bound>,
    /// Counters of plans dropped after a contained panic, so the
    /// documented-cumulative `plan_hits` / `plan_rebuilds` never move
    /// backwards across a failure.
    carried: PlanCacheStats,
}

/// What the first `Begin` of a new-structure product already did.
struct Bound {
    epoch: u64,
    /// `local` holds the product (a one-phase plan only learns its row
    /// counts by running).
    have_local: bool,
    busy: Duration,
}

/// A shard thread: answer each `Begin` — bind and report counts, or
/// fill the window — until `Shutdown` or a severed channel.
///
/// Any panic inside a request — kernel, copy, bookkeeping — is
/// contained here: the shard releases its window while unwinding,
/// reports `ShardFailed` for that epoch, drops its (possibly
/// poisoned) plan while carrying its cumulative counters forward, and
/// keeps serving. The coordinator can therefore always count on one
/// reply per `Begin`.
fn shard_loop(idx: usize, cfg: DistConfig, rx: Receiver<ShardMsg>, replies: Sender<ShardReply>) {
    // The one plan for this shard's `A_r · B_c`: while operand
    // structures are stable it settles into numeric-only hits.
    let mut plans = PlanCache::<S>::new(cfg.algo, cfg.order);
    let mut shard = Shard {
        pool: Pool::new(cfg.threads_per_shard.max(1)),
        local: Csr::zero(0, 0),
        bound: None,
        carried: PlanCacheStats::default(),
    };
    while let Ok(ShardMsg::Begin(begin)) = rx.recv() {
        let (epoch, ctx) = (begin.epoch, begin.ctx);
        // Run under the product's trace context: the shard's spans
        // join the submitting request's trace, rooted at the accepted
        // coordinator→shard flow. The product span closes (and the
        // window is released) before the reply, so the coordinator
        // never finishes the trace, or takes the arrays back, with
        // this shard still at work.
        let result = {
            let _scope = obs::ctx_scope(ctx);
            let _g = obs::span!("dist", "dist.shard.product");
            begin.flow.accept("dist.begin");
            let run = AssertUnwindSafe(|| shard.run(&mut plans, begin));
            catch_unwind(run).map_err(|payload| {
                // The panic may have left the plan mid-rebind or the
                // block half-written; retire both (counters carried)
                // and rebuild lazily next product.
                shard.carried.hits += plans.stats().hits;
                shard.carried.rebuilds += plans.stats().rebuilds;
                plans = PlanCache::new(cfg.algo, cfg.order);
                (shard.local, shard.bound) = (Csr::zero(0, 0), None);
                let detail = format!("shard panicked: {}", panic_text(payload));
                DistError::ShardFailed { shard: idx, detail }
            })
        };
        let result = result.and_then(|ran| ran.map_err(DistError::from));
        // the shard→coordinator return flow, paired by the collecting
        // loop on the coordinator thread
        let flow = {
            let _scope = obs::ctx_scope(ctx);
            obs::flow_out("dist.done")
        };
        let reply = ShardReply {
            shard: idx,
            epoch,
            result,
            flow,
        };
        if replies.send(reply).is_err() {
            return; // runtime dropped mid-product
        }
    }
}

impl Shard {
    fn run(&mut self, plans: &mut PlanCache<S>, begin: Begin) -> Result<Reply, SparseError> {
        let (a, b) = (&*begin.a, &*begin.b);
        let started = Instant::now();
        // A product gets one plan lookup: the `Begin` that brings the
        // window of a new structure finds the plan its first one bound.
        let bound = self.bound.take().filter(|bound| bound.epoch == begin.epoch);
        let plan = match bound {
            Some(_) => plans.cached().expect("bound by this epoch's first Begin"),
            None => plans.plan_for(a, b, &self.pool)?,
        };
        let Some(window) = begin.window else {
            let _g = obs::span!("dist", "dist.shard.bind");
            let (rpts, have_local) = match plan.symbolic_row_ptrs() {
                Some(rpts) => (rpts, false),
                None => {
                    plan.execute_into_in(a, b, &mut self.local, &self.pool)?;
                    (self.local.rpts().to_vec(), true)
                }
            };
            let (epoch, busy) = (begin.epoch, started.elapsed());
            self.bound = Some(Bound {
                epoch,
                have_local,
                busy,
            });
            return Ok(Reply::Bound(rpts));
        };
        #[cfg(test)]
        {
            // Clone out of the lock: the hook may block on its peer.
            let hook = ON_WINDOW.lock().unwrap().clone();
            if let Some(hook) = hook {
                hook();
            }
        }
        let held_bytes = {
            let _g = obs::span!("dist", "dist.shard.compute");
            let have_local = bound.as_ref().is_some_and(|bound| bound.have_local);
            self.fill(plan, a, b, &window, have_local)?
        };
        let busy = started.elapsed() + bound.map_or(Duration::ZERO, |bound| bound.busy);
        let busy_ns = busy.as_nanos() as u64;
        let mut plans = plans.stats();
        plans.hits += self.carried.hits;
        plans.rebuilds += self.carried.rebuilds;
        Ok(Reply::Done {
            held_bytes,
            busy_ns,
            plans,
        })
    }

    /// Compute the product into the window; returns the bytes held
    /// beyond the operand blocks.
    fn fill(
        &mut self,
        plan: &SpgemmPlan<S>,
        a: &Csr<f64>,
        b: &Csr<f64>,
        window: &Window,
        have_local: bool,
    ) -> Result<u64, SparseError> {
        let (Window { buf, span }, local) = (window, &mut self.local);
        let entry_bytes = std::mem::size_of::<ColIdx>() + std::mem::size_of::<f64>();
        let direct = span
            .contiguous()
            .filter(|_| !have_local && plan.symbolic_nnz().is_some());
        if let Some(range) = direct {
            let held = (range.len() * entry_bytes) as u64;
            // SAFETY: `range` is this shard's span of the layout, whose
            // spans tile the buffer, and this thread is its only user.
            let (cols, vals) = unsafe { buf.slices(range) };
            plan.execute_into_slices_in(a, b, cols, vals, &self.pool)?;
            return Ok(held);
        }
        if !have_local {
            plan.execute_into_in(a, b, local, &self.pool)?;
        }
        // Memory safety rests on the block matching the window the
        // layout assigned (and `slices` checks bounds), so these hold
        // in release builds too; a failure is contained as a panic.
        let rows = local.nrows();
        assert_eq!(
            span.bounds.len(),
            rows * span.stride,
            "window is not for {rows} rows"
        );
        for i in 0..rows {
            let seg = span.row(i);
            assert_eq!(seg.len(), local.row_nnz(i), "window {seg:?} is not row {i}");
            // SAFETY: `seg` is one of this shard's segments of the
            // layout, whose segments tile the buffer, and this thread
            // is their only user.
            let (cols, vals) = unsafe { buf.slices(seg) };
            for (dst, &c) in cols.iter_mut().zip(local.row_cols(i)) {
                *dst = c + span.col_offset;
            }
            vals.copy_from_slice(local.row_vals(i));
        }
        let held = (local.nnz() * entry_bytes) as u64 + csr_bytes(local);
        if span.contiguous().is_some() {
            // Single-column shards only compute through the block on a
            // one-phase plan's first run; don't keep it.
            *local = Csr::zero(0, 0);
        }
        Ok(held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, PoisonError};

    /// Tests that run products hold this: the in-flight gauge and the
    /// `ON_WINDOW` fail-point are process-global, so the
    /// fault-injection test needs every other product out of the way.
    static PRODUCTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        PRODUCTS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn runtime(rows: usize, cols: usize, algo: Algorithm) -> ShardRuntime {
        let grid = GridSpec::new(rows, cols);
        ShardRuntime::new(DistConfig {
            grid,
            algo,
            ..DistConfig::default()
        })
    }

    fn mono(a: &Csr<f64>, b: &Csr<f64>) -> Csr<f64> {
        spgemm::multiply_f64(a, b, Algorithm::Hash, OutputOrder::Sorted).unwrap()
    }

    #[test]
    fn grid_spec_parse_and_display() {
        let g = GridSpec::parse("2x2").unwrap();
        assert_eq!((g.rows(), g.cols(), g.shards()), (2, 2, 4));
        assert_eq!(g.to_string(), "2x2");
        assert_eq!(GridSpec::parse("4X1"), Some(GridSpec::new(4, 1)));
        assert_eq!(GridSpec::parse("nope"), None);
        assert_eq!(GridSpec::new(0, 0).shards(), 1, "clamped");
    }

    #[test]
    fn more_shards_than_rows_or_columns() {
        let _serial = serial();
        let a = Csr::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 3.0)]).unwrap();
        let empty = Csr::<f64>::zero(2, 2);
        let rt = runtime(3, 3, Algorithm::Hash);
        assert_eq!(rt.multiply(&a, &a).unwrap(), mono(&a, &a));
        assert_eq!(rt.multiply(&empty, &a).unwrap(), mono(&empty, &a));
    }

    #[test]
    fn shape_mismatch_reported() {
        let _serial = serial();
        let rt = runtime(2, 1, Algorithm::Hash);
        let a = Csr::<f64>::zero(3, 4);
        let rejected = rt.multiply(&a, &a);
        assert!(matches!(
            rejected,
            Err(DistError::Sparse(SparseError::ShapeMismatch { .. }))
        ));
        // The fleet survives a rejected product.
        let i = Csr::<f64>::identity(4);
        assert_eq!(rt.multiply(&i, &i).unwrap().nnz(), 4);
    }

    #[test]
    fn mid_product_kernel_errors_are_contained_and_fleet_survives() {
        // Heap requires sorted inputs, so an unsorted row block fails
        // its shard's bind *mid-product* (after Begin was scattered).
        // `all` fails every shard; `half` (row block 0 sorted, block 1
        // not) fails shard 1 while shard 0 reports counts for a window
        // that never comes. Either way the error surfaces cleanly and
        // the very next product succeeds — no stale replies from the
        // failed epoch, no state left behind by the abandoned bind.
        let _serial = serial();
        let rt = runtime(2, 1, Algorithm::Heap);
        let i = Csr::<f64>::identity(4);
        let unsorted =
            |cols| Csr::from_parts(4, 4, vec![0, 2, 4, 6, 8], cols, vec![1.0; 8]).unwrap();
        let all = unsorted(vec![1, 0, 2, 1, 3, 2, 1, 0]);
        let half = unsorted(vec![0, 1, 1, 2, 3, 2, 1, 0]);
        for bad in [&all, &half] {
            match rt.multiply(bad, &i) {
                Err(DistError::Sparse(SparseError::Unsorted { .. })) => {}
                other => panic!("expected Unsorted, got {other:?}"),
            }
            assert_eq!(rt.multiply(&i, &i).unwrap(), i, "fleet still serves");
        }
        assert_eq!(rt.stats().products, 2, "only successful products count");
    }

    #[test]
    fn window_layout_tiles_and_rejects_overlap() {
        // 2x2 grid over row blocks of 2 and 1 rows; every shard reports
        // its local row pointers.
        let reported = vec![vec![0, 1, 3], vec![0, 0, 2], vec![0, 4], vec![0, 1]];
        let layout = Layout::build(GridSpec::new(2, 2), &[0, 5, 9], &reported);
        assert_eq!(layout.rpts, vec![0, 1, 5, 10]);
        assert_eq!(layout.spans[3].bounds.as_slice(), &[5, 9, 10]);
        assert_eq!(
            (layout.spans[3].row(0), layout.spans[3].contiguous()),
            (9..10, None)
        );
        // Single-column spans are one range each.
        let rows = Layout::build(GridSpec::new(2, 1), &[0, 9], &reported[1..3]);
        assert_eq!(
            (rows.rpts, rows.spans[1].contiguous()),
            (vec![0, 0, 2, 6], Some(2..6))
        );
        // A layout whose spans overlap must not pass the check.
        let mut spans = rows.spans;
        spans[1].bounds = Arc::new(vec![1, 6]);
        let overlapping = Layout {
            rpts: vec![0, 0, 2, 6],
            spans,
        };
        let check = || overlapping.assert_windows_tile(&[vec![0, 0, 2], vec![0, 5]]);
        assert!(
            catch_unwind(AssertUnwindSafe(check)).is_err(),
            "overlap must be detected"
        );
    }

    #[test]
    fn shard_panic_with_a_live_window_fails_one_product_only() {
        // Both shards of a 2x1 grid reach the fail-point holding their
        // windows (the barrier forces it); shard 0 then panics while
        // shard 1 goes on to write its window. The buffer must outlive
        // that write, the product must fail, and nothing else may.
        let _serial = serial();
        let mut rng = spgemm_gen::rng(12);
        let a = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 7, 6, &mut rng);
        let bits = |m: &Csr<f64>| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = mono(&a, &a);
        let rt = runtime(2, 1, Algorithm::Hash);
        obs::enable();
        let (first, before) = rt.multiply_with_stats(&a, &a).unwrap();
        assert_eq!(bits(&first), bits(&want));

        let both_hold_windows = Barrier::new(2);
        *ON_WINDOW.lock().unwrap() = Some(Arc::new(move || {
            both_hold_windows.wait();
            let shard = std::thread::current().name().map(str::to_owned);
            assert_ne!(shard.as_deref(), Some("spgemm-dist-0-0"), "injected fault");
        }));
        let failed = rt.multiply(&a, &a);
        *ON_WINDOW.lock().unwrap() = None;
        match failed {
            Err(DistError::ShardFailed { shard: 0, detail }) => {
                assert!(detail.contains("injected fault"), "{detail}")
            }
            other => panic!("expected shard 0 to fail, got {other:?}"),
        }
        assert_eq!(
            PRODUCTS_IN_FLIGHT.value(),
            0,
            "failed product left the gauge up"
        );

        let (next, after) = rt.multiply_with_stats(&a, &a).unwrap();
        assert_eq!((&next, bits(&next)), (&want, bits(&want)), "next product");
        assert!(after.plan_hits >= before.plan_hits, "hits moved backwards");
        let rebuilt = after.plan_rebuilds - before.plan_rebuilds;
        assert_eq!(
            rebuilt, 1,
            "the failed shard rebuilt its plan; counts carried"
        );
        assert_eq!(PRODUCTS_IN_FLIGHT.value(), 0);
        assert_eq!(rt.stats().products, 2, "only successful products count");
    }
}

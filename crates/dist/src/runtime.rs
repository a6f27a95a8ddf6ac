//! The shard runtime: [`ShardRuntime`].
//!
//! # Execution model
//!
//! `C = A · B` over an `R × C` shard grid is the paper's two-phase
//! scheme (Fig. 7) at shard grain: size every output row, allocate `C`
//! exactly, then let each worker fill its own disjoint slice. `A` is
//! cut into `R` flop-balanced row blocks and `B` into `C` nnz-balanced
//! column blocks; shard `(r, c)` keeps a [`Pool`] of its own and one
//! bare [`SpgemmPlan`] for `A_r · B_c` per kept structure. The shards
//! are the workers of one persistent *fleet* [`Pool`] (the §3.1 team),
//! so a product is at most two fork-join regions on it, and the
//! submitting thread, as fleet worker 0, computes shard 0's block
//! itself. Kept per operand structure pair (up to [`CACHED_STRUCTURES`],
//! keyed by the operands' fingerprints, taken once per product): the
//! cuts, the output layout — `C`'s row pointers and every shard's span
//! of `C`'s `cols` / `vals` — and the slot of the shards' plans.
//!
//! * **Steady state**: allocate `cols` / `vals`, then one region in
//!   which every shard fills its span; every plan hits. On
//!   single-column grids a shard's rows are one contiguous range and
//!   the numeric pass writes straight into it
//!   ([`SpgemmPlan::execute_into_slices_in`]); on multi-column grids
//!   the shard fills a reused local block and copies its own row
//!   segments into place, column offset added, in parallel with its
//!   peers. No output entry is copied after the region.
//! * **New structure**: one region first, in which every shard binds
//!   its slot's plan and leaves its per-row counts; their prefix sum is
//!   the layout. Once every slot is taken, the least recently used
//!   structure's is rebound ([`SpgemmPlan::rebind_in`], keeping its
//!   pooled accumulators), so products alternating between kept
//!   structures all replay.
//!
//! Every output entry is accumulated by exactly one shard in the
//! ascending-`k` order the monolithic kernel uses. Under the default
//! [`Algorithm::Auto`] a block resolves to the dense accumulator while
//! its output width fits the L2 share, and its plan replays the column
//! pattern its bind wrote. Blocks resolving to `Spa` or `Hash` make the
//! result **bit-identical** to the monolithic `Hash` product (the SPA's
//! slots start at the semiring's seed, so its sums have `Hash`'s bits);
//! a block past the L2 share may resolve to `Heap`, whose sums follow
//! heap order.
//!
//! # Window safety
//!
//! Operands and output are borrowed for a region, whose barrier is the
//! only synchronisation: no shard runs once [`Pool::broadcast`] is
//! back, returning or unwinding, so the output is never freed under a
//! writer. Shards write through a [`SharedMutSlice`], inside their span
//! of the cached layout only: debug builds assert that a new layout's
//! spans tile `0..nnz(C)` exactly and match the reported counts, and
//! every build checks each write's bounds and its length against the
//! shard's plan.

use crate::error::DistError;
use spgemm::{Algorithm, OutputOrder, SpgemmPlan};
use spgemm_obs as obs;
use spgemm_par::unsync::SharedMutSlice;
use spgemm_par::{panic_text, partition, Pool};
use spgemm_sparse::{csr_bytes, stats, ColIdx, Csr, PlusTimes, SparseError};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Operand structure pairs a runtime keeps bound, each with its cuts,
/// layout and one plan per shard; the least recently used goes first.
pub const CACHED_STRUCTURES: usize = 2;

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
    /// [`Algorithm::Auto`], resolved per block). A block that resolves
    /// to `Spa` or `Hash` matches the monolithic `Hash` product bit for
    /// bit (the SPA by its seed law); one past the L2 share may resolve
    /// to `Heap`, whose sums follow heap order.
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
            algo: Algorithm::Auto,
            order: OutputOrder::Sorted,
        }
    }
}

/// Per-product observability: per-shard memory and the shard plan
/// counters that certify steady-state numeric-only execution.
#[derive(Clone, Debug)]
pub struct ProductStats {
    /// Bytes each shard held beyond its operand blocks during this
    /// product, flat row-major shard order: its window of `C`, plus
    /// its local block on multi-column grids.
    pub per_shard_peak_partial_bytes: Vec<u64>,
    /// Nanoseconds each shard spent binding and computing during this
    /// product (flat row-major shard order) — the number behind
    /// [`ProductStats::compute_imbalance`]. Always measured: a few
    /// clock reads against a multiply.
    pub per_shard_compute_ns: Vec<u64>,
    /// Shard plan hits (numeric-only fills) summed over all shards,
    /// cumulative since the runtime started, failed products included.
    /// A kept structure re-executed `k` times shows `shards × (k - 1)`
    /// hits.
    pub plan_hits: u64,
    /// Shard plan (re)binds summed over all shards, each counted as its
    /// shard completes it (failed products included), cumulative since
    /// the runtime started — constant across re-executions of kept
    /// structures.
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
    /// Shard plan hits summed over shards.
    pub plan_hits: u64,
    /// Shard plan (re)builds summed over shards.
    pub plan_rebuilds: u64,
}

/// Which entries of the output one shard owns: local row `i` of the
/// shard in grid column `col` is
/// `bounds[i * stride + col]..bounds[i * stride + col + 1]`, with
/// `stride` = grid columns + 1 bounds per row (shared by the shards of
/// one grid row). On a single-column grid (`stride == 2`) the rows
/// abut, so the whole span is one contiguous range.
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

    /// The spans must tile `0..nnz(C)` exactly — sorted, disjoint,
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

/// State behind the product lock: the fleet and what it last ran.
struct CoordState {
    /// Small pool for cut selection (prefix scans).
    pool: Pool,
    /// Worker `s` runs shard `s`; the submitting thread is worker 0.
    fleet: Pool,
    /// Flat row-major. A shard's lock is only ever taken by its own
    /// fleet worker, for a region.
    shards: Vec<Mutex<Shard>>,
    /// The kept operand structure pairs, most recently used first, at
    /// most [`CACHED_STRUCTURES`]: a kept structure's re-execution skips
    /// the weight scans and the bind region, and its blocks keep their
    /// structure by construction (the shards' plan hits rely on it).
    cache: Vec<StructureCache>,
}

/// Cached cut selection and output layout, keyed by the operands'
/// structure fingerprints.
struct StructureCache {
    /// `(A, B)`.
    sigs: (u64, u64),
    row_cuts: Vec<usize>,
    col_cuts: Vec<usize>,
    /// `None` until a product on this structure got every shard's
    /// counts (a failed bind leaves it unset; the next product asks
    /// again); once set, every shard's `slot` plan is bound to it or
    /// retired by a contained panic.
    layout: Option<Layout>,
    slot: usize,
}

/// A persistent fleet of shards executing `C = A · B` through one plan
/// per shard and kept structure, writing into one shared output. See
/// the module docs for the algorithm; see
/// [`ShardRuntime::multiply_with_stats`] for the per-product counters.
///
/// The runtime is `Sync`: concurrent submitters serialize on an
/// internal product lock (one product occupies the whole fleet), so a
/// single shared runtime can safely back a multi-tenant server.
pub struct ShardRuntime {
    cfg: DistConfig,
    /// One product at a time occupies the fleet.
    coordinator: Mutex<CoordState>,
    /// Cumulative counters behind their own (briefly-held) lock, so
    /// [`ShardRuntime::stats`] never waits behind an in-flight
    /// product.
    stats: Mutex<DistStats>,
    /// Fail-point: shard `s` runs it in the fill region, before writing.
    #[cfg(test)]
    on_window: Option<Box<dyn Fn(usize) + Send + Sync>>,
}

impl ShardRuntime {
    /// Start the fleet described by `cfg`: `shards − 1` fleet workers
    /// plus `threads_per_shard − 1` pool workers per shard.
    pub fn new(cfg: DistConfig) -> Self {
        let shards = cfg.grid.shards();
        ShardRuntime {
            cfg,
            coordinator: Mutex::new(CoordState {
                pool: Pool::new(1),
                fleet: Pool::new(shards),
                shards: (0..shards).map(|_| Mutex::new(Shard::new(&cfg))).collect(),
                cache: Vec::with_capacity(CACHED_STRUCTURES),
            }),
            stats: Mutex::new(DistStats::default()),
            #[cfg(test)]
            on_window: None,
        }
    }

    /// The configured grid.
    pub fn grid(&self) -> GridSpec {
        self.cfg.grid
    }

    /// Cumulative counters. Non-blocking with respect to in-flight
    /// products (safe to call from a monitoring thread).
    pub fn stats(&self) -> DistStats {
        *self.totals()
    }

    /// Sharded `C = A · B`, discarding the stats.
    pub fn multiply(&self, a: &Csr<f64>, b: &Csr<f64>) -> Result<Csr<f64>, DistError> {
        self.multiply_with_stats(a, b).map(|(c, _)| c)
    }

    /// Sharded `C = A · B` with per-product [`ProductStats`].
    ///
    /// The calling thread runs shard 0 and returns when the whole
    /// fleet has finished the product; concurrent callers queue on the
    /// internal product lock.
    pub fn multiply_with_stats(
        &self,
        a: &Csr<f64>,
        b: &Csr<f64>,
    ) -> Result<(Csr<f64>, ProductStats), DistError> {
        if a.ncols() != b.nrows() {
            let (left, right, op) = (a.shape(), b.shape(), "sharded multiply");
            return Err(SparseError::ShapeMismatch { left, right, op }.into());
        }
        let grid = self.cfg.grid;
        // Cuts and layout are installed whole and keyed by fingerprints.
        let mut guard = (self.coordinator.lock()).unwrap_or_else(PoisonError::into_inner);
        let state = &mut *guard;

        // --- cut selection -------------------------------------------------
        // A's row cuts balance the product's flops (the §4.1 weight),
        // column cuts B's per-column nnz. Both depend only on operand
        // *structure*, so a kept pattern reuses its cuts, its layout
        // and its slot of shard plans; a new one takes a free slot or
        // the least recently used structure's.
        {
            let _g = obs::span!("dist", "dist.partition");
            let a_sig = a.structure_fingerprint();
            let b_sig = (!std::ptr::eq(a, b)).then(|| b.structure_fingerprint());
            let sigs = (a_sig, b_sig.unwrap_or(a_sig));
            let kept = &mut state.cache;
            match kept.iter().position(|known| known.sigs == sigs) {
                Some(at) => kept[..=at].rotate_right(1),
                None => {
                    let (rows, cols) = (stats::row_flops(a, b), stats::column_nnz(b));
                    let fresh = StructureCache {
                        sigs,
                        row_cuts: partition::balanced_offsets(&rows, grid.rows(), &state.pool),
                        col_cuts: partition::balanced_offsets(&cols, grid.cols(), &state.pool),
                        layout: None,
                        slot: match kept.len() {
                            free if free < CACHED_STRUCTURES => free,
                            _ => kept.pop().expect("the cache is full").slot,
                        },
                    };
                    kept.insert(0, fresh);
                }
            }
        }
        let cache = &mut state.cache[0];
        let (fleet, slot) = ((&state.fleet, state.shards.as_slice()), cache.slot);

        // --- scatter: cut the operand blocks -------------------------------
        // Row block `r` of `A` serves the shards of grid row `r`,
        // column block `c` of `B` (columns rebased) those of grid
        // column `c`. A single-row grid multiplies `A` itself, a
        // single-column grid by `B` itself.
        let (a_blocks, b_blocks) = {
            let _g = obs::span!("dist", "dist.scatter");
            let b_blocks = match grid.cols() {
                1 => Vec::new(),
                _ => b.split_col_ranges(&cache.col_cuts)?,
            };
            let a_blocks: Vec<Csr<f64>> = (cache.row_cuts.windows(2))
                .filter(|_| grid.rows() > 1)
                .map(|cut| a.extract_rows(cut[0]..cut[1]))
                .collect();
            (a_blocks, b_blocks)
        };
        let operands = |shard: usize| {
            let a_block = a_blocks.get(shard / grid.cols()).unwrap_or(a);
            (a_block, b_blocks.get(shard % grid.cols()).unwrap_or(b))
        };

        // --- new structure: counts → layout --------------------------------
        let mut bound = None;
        if cache.layout.is_none() {
            let _g = obs::span!("dist", "dist.layout");
            let ran = self.region(fleet, slot, |s, shard| {
                (shard.bind(slot, operands(s))).inspect(|_| self.totals().plan_rebuilds += 1)
            })?;
            let (reported, busy): (Vec<_>, Vec<_>) = ran.into_iter().unzip();
            cache.layout = Some(Layout::build(grid, &cache.col_cuts, &reported));
            bound = Some(busy);
        }
        let layout = cache.layout.as_ref().expect("layout known or just built");

        // --- gather: every shard fills its span of the output --------------
        let (mut cols, mut vals) = (vec![0 as ColIdx; layout.nnz()], vec![0.0f64; layout.nnz()]);
        let filled = {
            let _g = obs::span!("dist", "dist.gather");
            let out = (
                &SharedMutSlice::new(&mut cols),
                &SharedMutSlice::new(&mut vals),
            );
            self.region(fleet, slot, |s, shard| {
                #[cfg(test)]
                if let Some(fail_point) = &self.on_window {
                    fail_point(s);
                }
                let mut bound = bound.as_ref().map(|busy| busy[s]);
                // The slot holds this product's structure: only a plan
                // retired by a contained panic is rebuilt, to the
                // layout's counts. A plan bound before this product hits.
                if shard.plans[slot].is_none() {
                    bound = Some(shard.bind(slot, operands(s))?.1);
                    self.totals().plan_rebuilds += 1;
                } else if bound.is_none() {
                    self.totals().plan_hits += 1;
                }
                shard.fill(slot, operands(s), &layout.spans[s], out, bound)
            })?
        };
        // Every kernel honours a sorted request; an unsorted one makes
        // no claim, even where a kernel's rows happen to be sorted.
        let (rpts, sorted) = (layout.rpts.clone(), self.cfg.order.is_sorted());
        let c = Csr::from_parts_unchecked(a.nrows(), b.ncols(), rpts, cols, vals, sorted);
        let mut totals = self.totals();
        totals.products += 1;
        let stats = ProductStats {
            per_shard_peak_partial_bytes: filled.iter().map(|f| f.held_bytes).collect(),
            per_shard_compute_ns: filled.iter().map(|f| f.busy_ns).collect(),
            plan_hits: totals.plan_hits,
            plan_rebuilds: totals.plan_rebuilds,
        };
        Ok((c, stats))
    }

    /// The cumulative counters, for an update.
    fn totals(&self) -> std::sync::MutexGuard<'_, DistStats> {
        // Counters are plain stores, whole even under a poisoned lock.
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One fork-join region: `body(s, shard s)` on fleet worker `s`,
    /// the calling thread being worker 0. Returns every shard's result
    /// in shard order once all have finished, or the first failure.
    ///
    /// Each shard runs under the caller's trace context (the serve
    /// worker submits inside its batch scope), so its spans join the
    /// request's trace; one flow link each way marks the handoff. A
    /// panic in `body` is contained here: it fails this product only, as
    /// [`DistError::ShardFailed`], and retires the shard's `slot` plan.
    fn region<T: Send>(
        &self,
        (fleet, shards): (&Pool, &[Mutex<Shard>]),
        slot: usize,
        body: impl Fn(usize, &mut Shard) -> Result<T, SparseError> + Sync,
    ) -> Result<Vec<T>, DistError> {
        let ctx = obs::current_ctx();
        let begun: Vec<_> = (shards.iter().map(|_| obs::flow_out("dist.begin"))).collect();
        let reports: Vec<Mutex<Option<_>>> = shards.iter().map(|_| Mutex::new(None)).collect();
        fleet.broadcast(|s| {
            let _scope = obs::ctx_scope(ctx);
            // A shard the body panicked in retires its plan (below).
            let mut shard = shards[s].lock().unwrap_or_else(PoisonError::into_inner);
            // The span closes before the return flow opens: a trace
            // never shows a shard at work after its report.
            let result = {
                let _g = obs::span!("dist", "dist.shard.product");
                begun[s].accept("dist.begin");
                catch_unwind(AssertUnwindSafe(|| body(s, &mut shard)))
                    .map_err(|payload| {
                        shard.retire(slot);
                        let detail = format!("shard panicked: {}", panic_text(payload));
                        DistError::ShardFailed { shard: s, detail }
                    })
                    .and_then(|ran| ran.map_err(DistError::from))
            };
            *reports[s].lock().expect("a report is stored once") =
                Some((result, obs::flow_out("dist.done")));
        });
        let results: Vec<Result<T, DistError>> = (reports.into_iter())
            .map(|report| {
                let (result, flow) = (report.into_inner())
                    .expect("a report is stored once")
                    .expect("the region ran every shard");
                flow.accept("dist.done");
                result
            })
            .collect();
        results.into_iter().collect()
    }
}

/// One grid cell's long-lived state.
struct Shard {
    pool: Pool,
    /// One bare plan per structure slot, for this shard's `A_r · B_c` of
    /// the structure kept there: the runtime's key says which, so a hit
    /// is numeric-only, with no fingerprint of the blocks. `None` until
    /// bound, or once retired.
    plans: Vec<Option<SpgemmPlan<PlusTimes<f64>>>>,
    /// Reused output of products computed through a block, not straight
    /// into the span (multi-column grids).
    local: Csr<f64>,
    algo: Algorithm,
    order: OutputOrder,
}

/// A shard's report on its filled span.
struct Filled {
    /// Bytes held beyond the operand blocks.
    held_bytes: u64,
    busy_ns: u64,
}

impl Shard {
    fn new(cfg: &DistConfig) -> Shard {
        Shard {
            pool: Pool::new(cfg.threads_per_shard),
            plans: (0..CACHED_STRUCTURES).map(|_| None).collect(),
            local: Csr::zero(0, 0),
            algo: cfg.algo,
            order: cfg.order,
        }
    }

    /// A contained panic may have left `slot`'s plan mid-rebind or the
    /// block half-written: drop both, rebuild lazily. The plans of the
    /// other slots never ran in this product and stay.
    fn retire(&mut self, slot: usize) {
        self.plans[slot] = None;
        self.local = Csr::zero(0, 0);
    }

    /// Bind `slot`'s plan to `(a, b)` — a rebind keeps the pooled
    /// accumulators of the structure it held — and return the row
    /// pointers of the shard's local block and the time that took.
    fn bind(
        &mut self,
        slot: usize,
        (a, b): (&Csr<f64>, &Csr<f64>),
    ) -> Result<(Vec<usize>, Duration), SparseError> {
        let _g = obs::span!("dist", "dist.shard.bind");
        let (started, pool) = (Instant::now(), &self.pool);
        let plan = match &mut self.plans[slot] {
            Some(plan) => plan.rebind_in(a, b, pool).map(|()| plan)?,
            empty => empty.insert(SpgemmPlan::new_in(a, b, self.algo, self.order, pool)?),
        };
        Ok((plan.symbolic_row_ptrs().to_vec(), started.elapsed()))
    }

    /// Compute the product into the shard's `span` of `out` (`C`'s
    /// `cols` and `vals`) through `slot`'s plan, bound to `(a, b)`.
    /// `bound` is the time this product spent binding it, if it did.
    fn fill(
        &mut self,
        slot: usize,
        (a, b): (&Csr<f64>, &Csr<f64>),
        span: &Span,
        out: (&SharedMutSlice<'_, ColIdx>, &SharedMutSlice<'_, f64>),
        bound: Option<Duration>,
    ) -> Result<Filled, SparseError> {
        let started = Instant::now();
        let plan = self.plans[slot].as_ref().expect("bound before the fill");
        let _g = obs::span!("dist", "dist.shard.compute");
        let window = |range: Range<usize>| {
            let (cols, vals) = out;
            // Memory safety rests on this and the length checks below,
            // so they hold in release builds; a failure is contained.
            assert!(
                range.start <= range.end && range.end <= cols.len().min(vals.len()),
                "window {range:?} outside an output of {} entries",
                cols.len()
            );
            // SAFETY: in bounds of both arrays (checked above), and
            // `range` lies in this shard's span of the layout, whose
            // spans tile the output: no other shard touches it in this
            // region, and this thread is the shard's only writer.
            unsafe { (cols.slice_mut(range.clone()), vals.slice_mut(range)) }
        };
        let entry_bytes = std::mem::size_of::<ColIdx>() + std::mem::size_of::<f64>();
        let held_bytes = if let Some(range) = span.contiguous() {
            let held = (range.len() * entry_bytes) as u64;
            let (cols, vals) = window(range);
            // checks both lengths against the plan's nnz
            plan.execute_into_slices_in(a, b, cols, vals, &self.pool)?;
            held
        } else {
            let local = &mut self.local;
            plan.execute_into_in(a, b, local, &self.pool)?;
            let rows = local.nrows();
            assert_eq!(
                span.bounds.len(),
                rows * span.stride,
                "span is not for {rows} rows"
            );
            for i in 0..rows {
                let seg = span.row(i);
                assert_eq!(seg.len(), local.row_nnz(i), "window {seg:?} is not row {i}");
                let (cols, vals) = window(seg);
                for (dst, &c) in cols.iter_mut().zip(local.row_cols(i)) {
                    *dst = c + span.col_offset;
                }
                vals.copy_from_slice(local.row_vals(i));
            }
            (local.nnz() * entry_bytes) as u64 + csr_bytes(local)
        };
        let busy = started.elapsed() + bound.unwrap_or_default();
        let busy_ns = busy.as_nanos() as u64;
        Ok(Filled {
            held_bytes,
            busy_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    // The serving layer shares one runtime between its workers.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardRuntime>();
    };

    fn runtime(rows: usize, cols: usize, algo: Algorithm) -> ShardRuntime {
        let grid = GridSpec::new(rows, cols);
        ShardRuntime::new(DistConfig {
            grid,
            algo,
            ..DistConfig::default()
        })
    }

    fn mono(a: &Csr<f64>, b: &Csr<f64>) -> Csr<f64> {
        let pool = Pool::new(2);
        spgemm::multiply_in::<PlusTimes<f64>>(a, b, Algorithm::Hash, OutputOrder::Sorted, &pool)
            .unwrap()
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
        let a = Csr::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 3.0)]).unwrap();
        let empty = Csr::<f64>::zero(2, 2);
        let rt = runtime(3, 3, Algorithm::Hash);
        assert_eq!(rt.multiply(&a, &a).unwrap(), mono(&a, &a));
        assert_eq!(rt.multiply(&empty, &a).unwrap(), mono(&empty, &a));
    }

    #[test]
    fn shape_mismatch_reported() {
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
        // its shard's bind *mid-product* (inside the bind region).
        // `all` fails every shard; `half` (row block 0 sorted, block 1
        // not) fails shard 1 while shard 0 leaves counts for a fill
        // that never comes. Either way the error surfaces cleanly and
        // the very next product succeeds — no state left behind by the
        // abandoned bind.
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

    /// A panic under the product lock leaves the next product exact.
    #[test]
    fn a_panic_under_the_product_lock_leaves_the_runtime_usable() {
        let mut rng = spgemm_gen::rng(12);
        let a = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 7, 6, &mut rng);
        let bits = |m: &Csr<f64>| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = mono(&a, &a);
        let rt = runtime(2, 1, Algorithm::Hash);
        rt.multiply(&a, &a).unwrap();
        let fault = std::thread::scope(|s| {
            s.spawn(|| {
                let _product = rt.coordinator.lock();
                panic!("fault under the product lock");
            })
            .join()
        });
        assert!(fault.is_err() && rt.coordinator.is_poisoned());
        for round in 0..2 {
            let next = rt.multiply(&a, &a).unwrap();
            assert_eq!((&next, bits(&next)), (&want, bits(&want)), "round {round}");
        }
        assert_eq!(rt.stats().products, 3);
    }

    #[test]
    fn shard_panic_with_a_live_window_fails_one_product_only() {
        // Both shards of a 2x1 grid reach the fail-point in the fill
        // region (the barrier forces it); one then panics while its
        // peer goes on to write its span. The output must outlive that
        // write, the product must fail, and nothing else may: a second
        // kept structure `y` still hits on every shard, and only the
        // failed shard's plan for `a` is rebuilt. The peer's hit in the
        // failed product counts: it did the lookup. Shard 0 runs on the
        // submitting thread, shard 1 on a fleet worker.
        let mut rng = spgemm_gen::rng(12);
        let a = spgemm_gen::rmat::generate_kind(spgemm_gen::RmatKind::G500, 7, 6, &mut rng);
        let y = spgemm_gen::poisson::poisson2d(9);
        let bits = |m: &Csr<f64>| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (want, want_y) = (mono(&a, &a), mono(&y, &y));
        for failing in [0, 1] {
            let mut rt = runtime(2, 1, Algorithm::Hash);
            rt.multiply(&y, &y).unwrap();
            let (first, before) = rt.multiply_with_stats(&a, &a).unwrap();
            assert_eq!(bits(&first), bits(&want));

            let both_at_their_windows = Barrier::new(2);
            rt.on_window = Some(Box::new(move |shard| {
                both_at_their_windows.wait();
                assert_ne!(shard, failing, "injected fault");
            }));
            let failed = rt.multiply(&a, &a);
            rt.on_window = None;
            match failed {
                Err(DistError::ShardFailed { shard, detail }) if shard == failing => {
                    assert!(detail.contains("injected fault"), "{detail}")
                }
                other => panic!("expected shard {failing} to fail, got {other:?}"),
            }

            let (next_y, after_y) = rt.multiply_with_stats(&y, &y).unwrap();
            assert_eq!(bits(&next_y), bits(&want_y), "y after the failure");
            assert_eq!((after_y.plan_rebuilds, after_y.plan_hits), (4, 3), "y hits");
            let (next, after) = rt.multiply_with_stats(&a, &a).unwrap();
            assert_eq!((&next, bits(&next)), (&want, bits(&want)), "next product");
            assert!(after.plan_hits >= before.plan_hits, "hits moved backwards");
            let rebuilt = after.plan_rebuilds - before.plan_rebuilds;
            assert_eq!((rebuilt, after.plan_hits), (1, 4), "only the failed plan");
            assert_eq!(rt.stats().products, 4, "only successful products count");
        }
    }
}

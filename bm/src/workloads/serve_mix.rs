//! `serve_mix` — `serve`-bound: store, queue, batching, shared plan
//! cache, expression result cache, row updates; kernels are about a
//! quarter of latency. The only workload where queueing, batching and
//! caches decide the result, and where writes (row updates) sit
//! beside reads, so a cache change that helps products but slows
//! patch-in-place shows.
//!
//! One generator thread drives a **closed loop with a window of 8
//! outstanding ops** (callers hold `JobHandle`s and wait), all at
//! `Priority::Normal`, over four hot tenants. The schedule is drawn
//! from the seed:
//!
//! | share | op |
//! |---|---|
//! | 60 % | hot product `gi · gi` (`Auto`) |
//! | 15 % | expression job `normalize_cols(|gi·gi|^2)` (`Hash`, MCL's kernel) |
//! | 10 % | row update of `gi`: re-weight 4 entries, toggle 4 phantom edges |
//! | 15 % | one-shot: register a fresh ER matrix, multiply it once |
//!
//! Op latency = submit call → the generator observing completion in
//! submission order (row updates: the synchronous call).

use super::{bits_eq, fail, mcl_step_graph, rng_for, P};
use crate::harness::{BlockShape, Metric, Tally, Width, Workload};
use crate::{probes, span};
use rand::Rng;
use spgemm::expr::{ExprGraph, ExprPlan, ExprSpec};
use spgemm::{multiply_in, Algorithm, OutputOrder, RowPatch};
use spgemm_gen::{rmat, RmatKind};
use spgemm_par::Pool;
use spgemm_serve::{ExprRequest, JobHandle, ProductRequest, ServeConfig, ServeEngine};
use spgemm_sparse::Csr;
use std::collections::VecDeque;
use std::time::Instant;

/// Outstanding ops the generator allows before it waits.
pub const WINDOW: usize = 8;
const TENANTS: usize = 4;
/// Distinct one-shot structures cycled through — more than the plan
/// cache holds (64 keys), so every one-shot product misses it.
const ONESHOT_POOL: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Hot(usize),
    Expr(usize),
    Update(usize),
    OneShot,
}

impl OpKind {
    /// Index into the per-class sample arrays.
    pub fn class(self) -> usize {
        match self {
            OpKind::Hot(_) => 0,
            OpKind::Expr(_) => 1,
            OpKind::Update(_) => 2,
            OpKind::OneShot => 3,
        }
    }
}

pub const CLASSES: [&str; 4] = ["hot", "expr", "update", "oneshot"];

/// The op schedule: an endless stream fixed by the seed.
#[derive(Clone, Debug)]
pub struct Schedule(spgemm_gen::Rng);

impl Schedule {
    pub fn new(seed: u64) -> Self {
        Schedule(rng_for(seed, 0x401))
    }
}

impl Iterator for Schedule {
    type Item = OpKind;

    fn next(&mut self) -> Option<OpKind> {
        let tenant = self.0.random_range(0..TENANTS);
        Some(match self.0.random_range(0..100u32) {
            0..=59 => OpKind::Hot(tenant),
            60..=74 => OpKind::Expr(tenant),
            75..=84 => OpKind::Update(tenant),
            _ => OpKind::OneShot,
        })
    }
}

/// The fixed edit sites of one hot matrix.
struct EditSites {
    /// Entries of the base matrix that updates re-weight.
    existing: Vec<(usize, u32)>,
    /// Coordinates absent from the base matrix, inserted and deleted
    /// alternately so the matrix size stays stationary.
    phantom: Vec<(usize, u32)>,
}

impl EditSites {
    fn choose(m: &Csr<f64>, draw: &mut spgemm_gen::Rng) -> Self {
        let mut existing = Vec::new();
        while existing.len() < 4 {
            let r = draw.random_range(0..m.nrows());
            if let Some(&c) = m.row_cols(r).first() {
                if !existing.contains(&(r, c)) {
                    existing.push((r, c));
                }
            }
        }
        let mut phantom = Vec::new();
        while phantom.len() < 4 {
            let at = (
                draw.random_range(0..m.nrows()),
                draw.random_range(0..m.ncols()) as u32,
            );
            if m.get(at.0, at.1).is_none() && !phantom.contains(&at) {
                phantom.push(at);
            }
        }
        EditSites { existing, phantom }
    }

    fn patch(&self, seq: u64, phantom_present: bool) -> RowPatch<f64> {
        let mut patch = RowPatch::new();
        for (k, &(r, c)) in self.existing.iter().enumerate() {
            patch.update(r, c, 1.0 + ((seq + k as u64) % 97) as f64 * 0.01);
        }
        for &(r, c) in &self.phantom {
            if phantom_present {
                patch.delete(r, c);
            } else {
                patch.insert(r, c, 0.5);
            }
        }
        patch
    }
}

fn tenant_name(i: usize) -> String {
    format!("g{i}")
}

/// One engine and the generator's bookkeeping for it.
pub struct Side {
    pub engine: ServeEngine,
    phantom_present: [bool; TENANTS],
    updates: u64,
    oneshots: usize,
}

impl Side {
    fn new(workers: usize, hot: &[Csr<f64>]) -> Self {
        let engine = {
            let _s = span::enter("serve.ServeEngine::new");
            ServeEngine::new(ServeConfig {
                workers,
                threads_per_worker: 1,
                dist: None,
                use_tuned_profile: false,
                ..ServeConfig::default()
            })
        };
        for (i, m) in hot.iter().enumerate() {
            let _s = span::enter("serve.store.insert");
            engine.store().insert(tenant_name(i), m.clone());
        }
        Side {
            engine,
            phantom_present: [false; TENANTS],
            updates: 0,
            oneshots: 0,
        }
    }
}

/// An op the generator has submitted and not yet observed complete.
struct InFlight {
    handle: JobHandle,
    started: Instant,
    class: usize,
    span: Option<usize>,
}

pub struct ServeMix {
    sites: Vec<EditSites>,
    oneshot_pool: Vec<Csr<f64>>,
    spec: ExprSpec,
    graph: ExprGraph,
    schedule: Schedule,
    pub wide: Side,
    pub narrow: Side,
    /// Latencies of wide-side ops by class (`CLASSES` order).
    pub class_ms: [Vec<f64>; 4],
}

impl ServeMix {
    fn side(&mut self, width: Width) -> &mut Side {
        width.pick(&mut self.wide, &mut self.narrow)
    }

    /// Submit one op. Queued jobs come back as `InFlight`; row updates
    /// complete inside the call and return their latency instead.
    fn submit(
        &mut self,
        width: Width,
        kind: OpKind,
        slot: u32,
    ) -> Result<Result<InFlight, f64>, String> {
        let started = Instant::now();
        let request = span::open("op.serve_mix", slot);
        let outcome = self.submit_inner(width, kind, request);
        match outcome {
            Ok(Some(handle)) => Ok(Ok(InFlight {
                handle,
                started,
                class: kind.class(),
                span: request,
            })),
            Ok(None) => {
                span::close(request);
                Ok(Err(started.elapsed().as_secs_f64() * 1e3))
            }
            Err(e) => {
                span::close(request);
                Err(e)
            }
        }
    }

    fn submit_inner(
        &mut self,
        width: Width,
        kind: OpKind,
        request: Option<usize>,
    ) -> Result<Option<JobHandle>, String> {
        match kind {
            OpKind::Hot(i) => {
                let _s = span::enter_under(request, "serve.try_submit");
                let name = tenant_name(i);
                let side = self.side(width);
                side.engine
                    .try_submit(ProductRequest::new(name.clone(), name))
                    .map(Some)
                    .map_err(fail("hot product"))
            }
            OpKind::Expr(i) => {
                let _s = span::enter_under(request, "serve.try_submit_expr");
                // Hash is MCL's own kernel (`MclParams::default`), and a
                // concrete kernel is what lets the engine patch cached
                // products in place after a row update.
                let req =
                    ExprRequest::new(self.spec.clone(), [tenant_name(i)]).algo(Algorithm::Hash);
                self.side(width)
                    .engine
                    .try_submit_expr(req)
                    .map(Some)
                    .map_err(fail("expression job"))
            }
            OpKind::Update(i) => {
                let (seq, present) = {
                    let side = self.side(width);
                    side.updates += 1;
                    (side.updates, side.phantom_present[i])
                };
                let patch = self.sites[i].patch(seq, present);
                let _s = span::enter_under(request, "serve.try_submit_row_update");
                let side = self.side(width);
                side.engine
                    .try_submit_row_update(&tenant_name(i), &patch)
                    .map_err(fail("row update"))?;
                side.phantom_present[i] = !present;
                Ok(None)
            }
            OpKind::OneShot => {
                let k = {
                    let side = self.side(width);
                    side.oneshots += 1;
                    side.oneshots
                };
                let matrix = self.oneshot_pool[k % ONESHOT_POOL].clone();
                let name = format!("oneshot{}", k % ONESHOT_POOL);
                let side = self.side(width);
                {
                    let _s = span::enter_under(request, "serve.store.insert");
                    side.engine.store().insert(name.clone(), matrix);
                }
                let job = {
                    let _s = span::enter_under(request, "serve.try_submit");
                    side.engine
                        .try_submit(ProductRequest::new(name.clone(), name.clone()))
                };
                // The job holds its operand snapshot; the name is free
                // again, so the store stays the same size.
                side.engine.store().remove(&name);
                job.map(Some).map_err(fail("one-shot product"))
            }
        }
    }

    /// Wait for the oldest outstanding op and record it.
    fn observe(&mut self, op: InFlight, width: Width, sink: &mut Vec<f64>, tally: &mut Tally) {
        let result = {
            let _s = span::enter_under(op.span, "serve.JobHandle::wait");
            op.handle.wait()
        };
        span::close(op.span);
        match result {
            Ok(out) => {
                std::hint::black_box(out.nnz());
                self.record(
                    width,
                    op.class,
                    op.started.elapsed().as_secs_f64() * 1e3,
                    sink,
                );
            }
            Err(e) => {
                tally.failed += 1;
                eprintln!("op failed: {}: {e}", CLASSES[op.class]);
            }
        }
    }

    fn record(&mut self, width: Width, class: usize, ms: f64, sink: &mut Vec<f64>) {
        sink.push(ms);
        if width == Width::Wide {
            self.class_ms[class].push(ms);
        }
    }

    /// Run `kinds` through the closed loop with `window` outstanding
    /// ops; the window drains before returning.
    pub fn drive(
        &mut self,
        width: Width,
        kinds: impl IntoIterator<Item = OpKind>,
        window: usize,
        sink: &mut Vec<f64>,
    ) -> Tally {
        let mut tally = Tally::default();
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
        let t0 = Instant::now();
        for (seq, kind) in kinds.into_iter().enumerate() {
            if inflight.len() == window {
                let oldest = inflight.pop_front().expect("window is not empty");
                self.observe(oldest, width, sink, &mut tally);
            }
            tally.attempted += 1;
            match self.submit(width, kind, (seq % window) as u32) {
                Ok(Ok(op)) => inflight.push_back(op),
                Ok(Err(ms)) => self.record(width, kind.class(), ms, sink),
                Err(e) => {
                    tally.failed += 1;
                    eprintln!("op refused: {e}");
                }
            }
        }
        while let Some(op) = inflight.pop_front() {
            self.observe(op, width, sink, &mut tally);
        }
        tally.busy_s = t0.elapsed().as_secs_f64();
        tally
    }

    /// One job of `kind`, alone, and the product `direct` computes
    /// from the store's current matrices; `Ok(true)` when they agree
    /// byte for byte.
    fn check_class(&mut self, width: Width, kind: OpKind) -> Result<bool, String> {
        let pool = Pool::new(1);
        let current = |side: &Side, name: &str| {
            side.engine
                .store()
                .get(name)
                .map(|m| m.csr_arc())
                .ok_or("matrix vanished")
        };
        match kind {
            OpKind::Update(i) => {
                let name = tenant_name(i);
                let before = current(self.side(width), &name)?;
                let (seq, present) = {
                    let side = self.side(width);
                    (side.updates + 1, side.phantom_present[i])
                };
                let (expect, _) = before
                    .apply_patch(&self.sites[i].patch(seq, present))
                    .map_err(fail("direct patch"))?;
                self.submit(width, kind, 0)?
                    .err()
                    .ok_or("row update queued")?;
                let after = current(self.side(width), &name)?;
                Ok(bits_eq(&after, &expect))
            }
            _ => {
                let op = self
                    .submit(width, kind, 0)?
                    .map_err(|_| "job completed inline")?;
                span::close(op.span);
                let got = op.handle.wait().map_err(fail("check job"))?;
                let expect = match kind {
                    OpKind::Hot(i) => {
                        let a = current(self.side(width), &tenant_name(i))?;
                        multiply_in::<P>(&a, &a, Algorithm::Auto, OutputOrder::Sorted, &pool)
                            .map_err(fail("direct product"))?
                    }
                    OpKind::Expr(i) => {
                        let a = current(self.side(width), &tenant_name(i))?;
                        let plan = ExprPlan::new_in(
                            &self.graph,
                            self.spec.root,
                            &[&*a],
                            &[],
                            Algorithm::Hash,
                            &pool,
                        )
                        .map_err(fail("direct expression"))?;
                        let mut out = Csr::zero(0, 0);
                        plan.root_into(&mut out)
                            .map_err(fail("direct expression root"))?;
                        out
                    }
                    _ => {
                        let last = self.side(width).oneshots % ONESHOT_POOL;
                        let a = &self.oneshot_pool[last];
                        multiply_in::<P>(a, a, Algorithm::Auto, OutputOrder::Sorted, &pool)
                            .map_err(fail("direct product"))?
                    }
                };
                Ok(bits_eq(&got, &expect))
            }
        }
    }
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";

    fn setup(seed: u64, quick: bool, threads: usize) -> Self {
        let (hot_scale, oneshot_scale) = if quick { (7, 5) } else { (9, 7) };
        let hot: Vec<Csr<f64>> = (0..TENANTS)
            .map(|i| {
                rmat::generate_kind(
                    RmatKind::G500,
                    hot_scale,
                    8,
                    &mut rng_for(seed, 0x410 + i as u64),
                )
            })
            .collect();
        let mut gen = rng_for(seed, 0x402);
        let oneshot_pool = (0..ONESHOT_POOL)
            .map(|_| rmat::generate_kind(RmatKind::Er, oneshot_scale, 4, &mut gen))
            .collect();
        let mut draw = rng_for(seed, 0x403);
        let sites = hot
            .iter()
            .map(|m| EditSites::choose(m, &mut draw))
            .collect();
        let (graph, root) = mcl_step_graph(2.0);
        let mut w = ServeMix {
            sites,
            oneshot_pool,
            spec: ExprSpec::new(graph.clone(), root),
            graph,
            schedule: Schedule::new(seed),
            wide: Side::new(threads, &hot),
            narrow: Side::new(1, &hot),
            class_ms: Default::default(),
        };
        // Warm-up: fill the plan and result caches on both engines.
        let mut discard = Vec::new();
        let shape = Self::block_shape(quick);
        let warm = w.steady(Width::Wide, shape.wide / 2, &mut discard);
        let warm1 = w.steady(Width::Narrow, shape.narrow / 2, &mut discard);
        assert_eq!(
            warm.failed + warm1.failed,
            0,
            "serve_mix warm-up ops failed"
        );
        w.class_ms = Default::default();
        w
    }

    fn block_shape(quick: bool) -> BlockShape {
        if quick {
            BlockShape {
                wide: 40,
                narrow: 16,
                cold: 4,
                chunk: 20,
            }
        } else {
            BlockShape {
                wide: 400,
                narrow: 130,
                cold: 10,
                chunk: 100,
            }
        }
    }

    fn steady(&mut self, width: Width, n: usize, sink: &mut Vec<f64>) -> Tally {
        let kinds: Vec<OpKind> = self.schedule.by_ref().take(n).collect();
        self.drive(width, kinds, WINDOW, sink)
    }

    /// Cold op = a one-shot job (fresh structure, plan-cache miss) at
    /// window 1.
    fn cold(&mut self, n: usize, sink: &mut Vec<f64>) -> Tally {
        let mut own = Vec::with_capacity(n);
        let mut tally = self.drive(
            Width::Wide,
            std::iter::repeat_n(OpKind::OneShot, n),
            1,
            &mut own,
        );
        // `drive` filed these under the wide side's one-shot class;
        // cold ops are a phase of their own.
        let class = &mut self.class_ms[OpKind::OneShot.class()];
        class.truncate(class.len() - own.len());
        tally.busy_s = own.iter().sum::<f64>() / 1e3;
        sink.extend(own);
        tally
    }

    /// One result per job class and engine against a direct
    /// computation on the same operands.
    fn check(&mut self) -> Vec<String> {
        let mut bad = Vec::new();
        for (width, label) in [(Width::Wide, "T"), (Width::Narrow, "1")] {
            for kind in [
                OpKind::Hot(0),
                OpKind::Expr(1),
                OpKind::Update(2),
                OpKind::OneShot,
            ] {
                let verdict = self.check_class(width, kind);
                if verdict != Ok(true) {
                    bad.push(format!(
                        "serve_mix {} on the {label}-worker engine differs from the direct computation: {verdict:?}",
                        CLASSES[kind.class()]
                    ));
                }
            }
        }
        bad
    }

    fn probes(&mut self, ctx: &probes::Ctx, out: &mut Vec<Metric>) {
        probes::serve_probes(self, ctx, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let draw = |seed| Schedule::new(seed).take(500).collect::<Vec<_>>();
        assert_eq!(draw(20180804), draw(20180804));
        assert_ne!(draw(20180804), draw(20180805));
    }

    #[test]
    fn schedule_mix_is_near_the_stated_shares() {
        let mut counts = [0usize; 4];
        for kind in Schedule::new(1).take(20_000) {
            counts[kind.class()] += 1;
        }
        for (count, share) in counts.iter().zip([0.60, 0.15, 0.10, 0.15]) {
            let got = *count as f64 / 20_000.0;
            assert!((got - share).abs() < 0.015, "{counts:?}");
        }
    }

    #[test]
    fn update_patches_toggle_the_phantom_edges() {
        let m = rmat::generate_kind(RmatKind::G500, 6, 8, &mut spgemm_gen::rng(5));
        let sites = EditSites::choose(&m, &mut spgemm_gen::rng(9));
        let (with, dirty) = m.apply_patch(&sites.patch(1, false)).unwrap();
        assert_eq!(with.nnz(), m.nnz() + 4);
        assert!(dirty.count() >= 1);
        let (back, _) = with.apply_patch(&sites.patch(2, true)).unwrap();
        assert_eq!(back.nnz(), m.nnz());
        assert_eq!(back.cols(), m.cols());
    }
}

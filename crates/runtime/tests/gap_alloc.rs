//! Allocation budgets of the packing and scheduling gap oracles and of
//! the explainer.
//!
//! `FfOracle::gap` and `SchedOracle::gap` run their algorithms in the
//! calling thread's reusable scratch, so once a thread has evaluated a
//! point of an oracle's size, every further gap allocates nothing. The
//! explainer reuses one accumulator for all of its sample streams, so
//! its allocations do not grow with the stream count. A counting global
//! allocator pins both; it counts per thread, so the test harness's own
//! threads never show up in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xplain_analyzer::oracle::{FfOracle, GapOracle};
use xplain_core::explainer::{explain, DslMapper, ExplainerParams};
use xplain_core::subspace::Subspace;
use xplain_flownet::{FlowNet, SourceInput, SourceKind};
use xplain_runtime::DomainRegistry;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `bump` only touches a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's guarantees for `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// 500 seeded points in the oracle's box, a third of the coordinates on a
/// coarse grid (ties) and some at the box's corners.
fn points(oracle: &dyn GapOracle, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds = oracle.bounds();
    (0..500)
        .map(|_| {
            bounds
                .iter()
                .map(|&(lo, hi)| match rng.gen_range(0..3) {
                    0 => lo + (hi - lo) * rng.gen_range(0..=4) as f64 / 4.0,
                    _ => rng.gen_range(lo..=hi),
                })
                .collect()
        })
        .collect()
}

/// After one gap, none of 500 further gaps allocates.
fn assert_allocation_free(name: &str, oracle: &dyn GapOracle) {
    let points = points(oracle, 17);
    oracle.gap(&points[0]);
    for (i, x) in points.iter().enumerate() {
        let (gap, count) = allocations(|| oracle.gap(x));
        assert!(gap.is_finite(), "{name}: point {i} out of the box");
        assert_eq!(count, 0, "{name}: gap of point {i} {x:?} allocated");
    }
}

#[test]
fn ff_and_sched_gaps_allocate_nothing_after_warm_up() {
    let registry = DomainRegistry::builtin();
    for id in ["ff", "sched"] {
        let domain = registry.get(id).expect("registered");
        assert_allocation_free(id, domain.oracle().as_ref());
        let tuned = domain.tuned_oracle(&[0.9]).expect("one tunable parameter");
        assert_allocation_free(&format!("tuned {id}"), tuned.as_ref());
    }
    assert_allocation_free("12-ball ff", &FfOracle::new(12));
}

/// A mapper over a two-edge net that makes exactly one allocation per
/// call, its flow vector.
struct TwoEdges(FlowNet);

impl TwoEdges {
    fn new() -> Self {
        let mut net = FlowNet::new("two edges");
        let src = net.source(
            "S",
            "SOURCES",
            SourceKind::Pick,
            SourceInput::Var { lo: 0.0, hi: 1.0 },
        );
        let a = net.sink("A", "SINKS", 1.0);
        let b = net.sink("B", "SINKS", 1.0);
        net.edge(src, a, "left");
        net.edge(src, b, "right");
        TwoEdges(net)
    }
}

impl DslMapper for TwoEdges {
    fn net(&self) -> &FlowNet {
        &self.0
    }
    fn heuristic_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        Some(vec![x[0], 0.0])
    }
    fn benchmark_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        Some(vec![0.0, x[0]])
    }
}

/// The same 640 samples cost the calling thread as many allocations in
/// one stream as in 64: the streams share one accumulator, so memory
/// does not scale with `ExplainerParams::threads`.
#[test]
fn explainer_allocations_do_not_grow_with_the_stream_count() {
    let mapper = TwoEdges::new();
    let sub = Subspace::from_rough_box(vec![0.0], vec![1.0], vec![0.5], 0.0);
    let run = |threads: usize| {
        let params = ExplainerParams {
            samples: 640,
            threads,
            ..Default::default()
        };
        allocations(|| explain(&mapper, &sub, &params, 3))
    };
    let (one, one_count) = run(1);
    let (many, many_count) = run(64);
    assert_eq!((one.samples_used, many.samples_used), (640, 640));
    assert_eq!(many_count, one_count, "64 streams vs 1");
}

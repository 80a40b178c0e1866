//! Allocation budget of LP re-solves.
//!
//! A [`SolverSession`] owns every buffer the solver core works in, so once
//! one solve has sized them, a re-solve allocates exactly once: the
//! returned `Solution::values`. That holds for a warm re-solve and for a
//! cold one after `reset()`, which drops the cached basis but keeps the
//! buffers. A counting global allocator pins the budget; it counts per
//! thread, so the test harness's own threads never show up in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xplain_lp::{Cmp, LinExpr, Model, Prepared, Sense, SolverSession};

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

/// The stage-1 max-flow LP of the paper's Fig. 1a example: four path
/// flows (1⇝3 over 1-2-3 and 1-4-5-3, 1⇝2 over 1-2, 2⇝3 over 2-3), three
/// demand rows and five link-capacity rows.
fn fig1a_max_flow(demands: [f64; 3]) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let short = m.add_nonneg("f13_short");
    let long = m.add_nonneg("f13_long");
    let f12 = m.add_nonneg("f12");
    let f23 = m.add_nonneg("f23");
    m.add_constr("dem13", short + long, Cmp::Le, demands[0]);
    m.add_constr("dem12", f12 + 0.0, Cmp::Le, demands[1]);
    m.add_constr("dem23", f23 + 0.0, Cmp::Le, demands[2]);
    m.add_constr("cap12", short + f12, Cmp::Le, 100.0);
    m.add_constr("cap23", short + f23, Cmp::Le, 100.0);
    m.add_constr("cap14", long + 0.0, Cmp::Le, 60.0);
    m.add_constr("cap45", long + 0.0, Cmp::Le, 60.0);
    m.add_constr("cap53", long + 0.0, Cmp::Le, 60.0);
    m.set_objective(LinExpr::sum([short, long, f12, f23]));
    m
}

#[test]
fn resolves_allocate_only_the_returned_values() {
    let mut prep = Prepared::new(&fig1a_max_flow([50.0, 100.0, 100.0])).unwrap();
    let mut session = SolverSession::new();
    // Warm-up: sizes every workspace buffer.
    let first = session.solve_prepared(&prep).unwrap();
    assert!((first.objective - 250.0).abs() < 1e-9);

    // A warm re-solve after an rhs edit (the gap oracle's access pattern).
    prep.set_rhs(0, 80.0);
    prep.set_rhs(2, 40.0);
    let (warm, n) = allocations(|| session.solve_prepared(&prep));
    let warm = warm.unwrap();
    assert_eq!(session.stats.warm_hits, 1, "{:?}", session.stats);
    assert_eq!(n, 1, "a warm re-solve allocates only the returned values");

    // A cold re-solve after `reset()` (a fresh solver's first solve).
    session.reset();
    let (cold, n) = allocations(|| session.solve_prepared(&prep));
    let cold = cold.unwrap();
    assert_eq!(session.stats.cold_starts, 2, "{:?}", session.stats);
    assert_eq!(
        n, 1,
        "a cold re-solve after reset allocates only the values"
    );
    assert!((warm.objective - cold.objective).abs() < 1e-9);

    // A re-solve from a restored snapshot (every DP evaluation's pattern:
    // each solve starts from the anchor basis): the restore copies into
    // the session's buffers, so it allocates nothing of its own.
    let anchor = session.snapshot().unwrap();
    prep.set_rhs(1, 30.0);
    session.solve_prepared(&prep).unwrap();
    let (restored, n) = allocations(|| {
        session.restore(&anchor);
        session.solve_prepared(&prep)
    });
    restored.unwrap();
    assert_eq!(session.stats.warm_hits, 3, "{:?}", session.stats);
    assert_eq!(n, 1, "a restore and re-solve allocates only the values");
}

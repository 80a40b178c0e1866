//! E6's timing gate: the compiled DP network speeds up at least as much
//! as the FF network (within 20%), and more than 1x.
//!
//! This is the only test in the binary, and cargo runs test binaries one
//! at a time, so no other test competes for the CPU while it times. CI
//! runs it in release: `cargo test --release -p xplain-bench --test
//! e6_speedup -- --nocapture` prints the figures.

use xplain_bench::speedup::run;

#[test]
fn dp_speedup_exceeds_ff_speedup() {
    // Timing in debug builds is noisy; run enough trials that the
    // structural advantage dominates, and only check the ordering.
    let r = run(10);
    println!(
        "E6: dp speedup {:.2}x, ff speedup {:.2}x",
        r.dp_speedup(),
        r.ff_speedup()
    );
    assert!(
        r.dp_speedup() > r.ff_speedup() * 0.8,
        "dp {:.2} vs ff {:.2}",
        r.dp_speedup(),
        r.ff_speedup()
    );
    assert!(r.dp_speedup() > 1.0, "dp speedup {:.2}", r.dp_speedup());
}

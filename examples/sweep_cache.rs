//! Cross-row solver-session reuse: one checking engine, two lifetimes.
//!
//! Run with `cargo run --release --example sweep_cache`.
//!
//! A multi-`k` sweep checks the *same* declarations over and over — only
//! the topology grows. `ModularChecker::check` is a [`CheckerPool`] that
//! lives for one call, so every row rebuilds its Z3 contexts and
//! compiled-term caches; a pool kept across rows keeps them alive while the
//! networks declare alike, so later rows start from warm sessions. A pool
//! checks an instance behind an [`Arc`] its workers share. This
//! example times both lifetimes on the `SpLen` family and prints the
//! per-row and total deltas (recorded in `EXPERIMENTS.md`).

use std::sync::Arc;
use std::time::Instant;

use timepiece::core::check::{CheckOptions, ModularChecker};
use timepiece::core::sweep::CheckerPool;
use timepiece::nets::len::LenBench;

fn main() {
    let ks = [4usize, 6, 8];
    let options = CheckOptions::default();

    println!("{:>3} {:>12} {:>12}", "k", "one-shot", "kept pool");
    let mut fresh_total = 0.0;
    let mut pooled_total = 0.0;
    let mut pool = CheckerPool::with_default_parallelism(options.clone());
    for k in ks {
        let inst = Arc::new(LenBench::all_pairs(k).build());

        let t0 = Instant::now();
        let fresh = ModularChecker::new(options.clone())
            .check(&inst.network, &inst.interface, &inst.property)
            .expect("encodes");
        let fresh_secs = t0.elapsed().as_secs_f64();
        assert!(fresh.is_verified());

        let t0 = Instant::now();
        let pooled = pool.check(&inst).expect("encodes");
        let pooled_secs = t0.elapsed().as_secs_f64();
        assert!(pooled.is_verified());

        fresh_total += fresh_secs;
        pooled_total += pooled_secs;
        println!("{k:>3} {fresh_secs:>11.2}s {pooled_secs:>11.2}s");
    }
    println!("sum {fresh_total:>11.2}s {pooled_total:>11.2}s");
    println!(
        "(rows on the kept pool reuse sessions opened by earlier rows: same declarations {:?})",
        LenBench::all_pairs(4).network().encoder_signature()
    );
}

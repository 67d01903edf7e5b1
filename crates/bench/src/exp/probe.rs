//! The determinism pin: the paper fabric under 20 ms of 0.3-load
//! FB_Hadoop Poisson traffic (seed 5) with the full PARALEON loop, run to
//! 25 ms. It is `benchmark/`'s `clos128_hadoop` input at full length, and
//! a full benchmark run ends by asserting the same three counts from
//! outside the workspace; nothing here is timed. Under `--check` the run
//! is repeated on two engine workers and must count the same, and built
//! with `--features audit` it is the audited paper-fabric run.

use paraleon::prelude::*;
use serde::Serialize;

use crate::{Ctx, Scale};

#[derive(Serialize)]
struct Row {
    probe: &'static str,
    events: u64,
    flows: usize,
    completions: usize,
}

/// `load_ms` of load run to `until_ms` on `threads` engine workers:
/// `(events, flows, completions)`.
fn probe(load_ms: u64, until_ms: u64, threads: usize) -> (u64, usize, usize) {
    let flows = Scale::Paper.poisson(FlowSizeDist::fb_hadoop(), 0.3, 0..load_ms * MILLI, 5);
    let mut cl = ClosedLoop::builder(Scale::Paper.clos())
        .scheme(SchemeKind::Paraleon)
        .parallel(threads)
        .build();
    drivers::run_schedule(&mut cl, &flows, until_ms * MILLI);
    (cl.sim.events_processed(), flows.len(), cl.completions.len())
}

pub(crate) fn run(ctx: &Ctx) {
    let serial = probe(20, 25, 1);
    let (events, flows, completions) = serial;
    if ctx.check {
        let sharded = probe(20, 25, 2);
        ctx.gate(sharded == serial, format!("2 workers count {sharded:?}"));
    }
    ctx.write(&Row {
        probe: "two_tier_clos(8x16, 4 leaves, 100G, 5us) + fb_hadoop poisson load 0.3 \
                seed 5, 20ms of load run to 25ms, full PARALEON loop",
        events,
        flows,
        completions,
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn two_workers_count_what_one_does() {
        let serial = super::probe(1, 1, 1);
        assert!(serial.0 > 0 && serial.2 > 0, "{serial:?}");
        assert_eq!(super::probe(1, 1, 2), serial);
    }
}

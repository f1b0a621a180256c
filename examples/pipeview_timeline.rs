//! Pipeview quickstart: run the gzip kernel on the CI machine with the
//! per-instruction lifecycle recorder on, write the Konata trace, and
//! render an ASCII timeline zoomed on the first misprediction flush —
//! the view where squashed wrong-path instructions and surviving
//! reused replicas are visibly different things.
//!
//! ```sh
//! cargo run --release --example pipeview_timeline
//! ```

use cfir::prelude::*;

fn main() {
    let spec = WorkloadSpec {
        iters: 1 << 30,
        elems: 1024,
        seed: 5,
    };
    let w = by_name("gzip", spec).expect("gzip kernel");
    let mut cfg = SimConfig::paper_baseline()
        .with_mode(Mode::Ci)
        .with_regs(RegFileSize::Finite(512))
        .with_max_insts(20_000);
    cfg.cosim_check = false;

    let mut pipe = Pipeline::new(&w.prog, w.mem.clone(), cfg);
    pipe.enable_pipeview("target/gzip-ci.kanata", 1 << 20);
    pipe.run();

    let s = &pipe.stats;
    println!(
        "gzip/ci: {} committed, {} squashed, {} replicas, {} lifecycle records",
        s.committed, s.squashed, s.replicas_executed, s.lifecycle_records
    );

    // Same rendering path as `cfir report timeline target/gzip-ci.kanata
    // --around-mispredict 1`, done in-process.
    let text = std::fs::read_to_string("target/gzip-ci.kanata").expect("trace written");
    let trace = cfir::obs::parse_konata(&text).expect("round-trips");
    let opts = cfir::obs::TimelineOpts {
        around_mispredict: Some(1),
        ..Default::default()
    };
    match cfir::obs::render_timeline(&trace, &opts) {
        Ok(out) => print!("{out}"),
        Err(e) => println!("(no timeline: {e})"),
    }
}

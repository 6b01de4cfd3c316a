//! Virtual in-place transposition from the CPU (§6 of the paper): ship the
//! matrix to the accelerator, transpose in place there, ship it back to the
//! same host buffer — synchronously and then with stages 2–3 overlapping
//! the D2H transfer over Q command queues.
//!
//! ```text
//! cargo run --release --example async_offload
//! ```

use ipt::core::{StagePlan, TileHeuristic};
use ipt::gpu::{run_host_async, run_host_sync, GpuOptions, RecoveryPolicy};
use ipt_obs::NoopRecorder;
use ipt::sim::DeviceSpec;

fn main() {
    let (rows, cols) = (3600, 900); // 13 MB of f32 — PCIe-dominated
    let dev = DeviceSpec::tesla_k20();
    let opts = GpuOptions::tuned_for(&dev);
    let tile = TileHeuristic::default().select(rows, cols).expect("tileable");
    let plan = StagePlan::three_stage(rows, cols, tile).unwrap();
    let bytes = (rows * cols * 4) as f64;
    let policy = RecoveryPolicy::default();

    println!(
        "virtual in-place transposition of {rows}x{cols} ({:.1} MB) via a simulated {}",
        bytes / 1e6,
        dev.name
    );

    let (sync, _) =
        run_host_sync(&dev, rows, cols, &plan, &opts, &policy, None, &NoopRecorder).unwrap();
    println!(
        "\nsynchronous (1 queue):  {:.2} ms  ({:.2} GB/s effective)",
        sync.total_s * 1e3,
        sync.effective_gbps
    );
    for s in &sync.timeline.spans {
        println!(
            "  [{}] {:8.2} - {:8.2} ms  {}",
            ["H2D", "D2H", "GPU"][s.engine],
            s.start_s * 1e3,
            s.end_s * 1e3,
            s.label
        );
    }

    for q in [2usize, 4, 8] {
        let (asy, _) = run_host_async(&dev, rows, cols, &plan, &opts, q, &policy, None).unwrap();
        println!(
            "\nasynchronous (Q = {q}):  {:.2} ms  ({:.2} GB/s effective, {:+.1}% vs sync)",
            asy.total_s * 1e3,
            asy.effective_gbps,
            (asy.effective_gbps / sync.effective_gbps - 1.0) * 100.0
        );
        if q == 4 {
            print!("{}", asy.timeline.gantt(64, &["H2D", "D2H", "GPU"]));
        }
    }
    println!(
        "\nstage 1 (100!) cannot be split: its shifting cycles span the whole \
         matrix (§6); only stages 2-3 chunk along N' and overlap the D2H copy."
    );
}

//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload soak-mixed|offload-large|host-inplace --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with
//! tracing off; with `--trace 1` it runs the same workload and seed again
//! with spans around every public call and prints the per-layer metrics,
//! including each layer's self time and the unattributed remainder. The
//! last stdout line is one JSON object; a longer report (provenance and,
//! for traced runs, every span) is written to `.perfbench_out/`.

mod calib;
mod clock;
mod fleet_wl;
mod host_wl;
mod layers;
mod payload;
mod stats;
mod trace;

use calib::Calibrator;
use stats::{median, Metrics};
use std::io::Write as _;
use std::process::{Command, ExitCode};
use trace::Tracer;

/// End-to-end metrics: (name, unit, better). `--trace 0` prints exactly these.
const END_TO_END: [(&str, &str, &str); 9] = [
    ("setup_s", "s", "lower"),
    ("req_per_cpu_s", "1/s", "higher"),
    ("lat_p50_us", "us", "lower"),
    ("lat_tail_us", "us", "lower"),
    ("slo_met_frac", "fraction", "higher"),
    ("sim_gbps", "GB/s", "higher"),
    ("host_gbps", "GB/s", "higher"),
    ("verified_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Layers a span can be attributed to (`self.<layer>_s`).
const LAYERS: [&str; 13] = [
    "bench", "fleet", "serve", "des", "plan", "exec", "verify", "kernel", "stream", "replay",
    "host", "sim", "obs",
];

/// Per-layer metrics `--trace 1` prints, in order: (name, unit, better).
fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| v.push((name.to_string(), unit, better));
    for (name, unit, better) in [
        ("fleet.submit_us", "us", "lower"),
        ("fleet.round_ms", "ms", "lower"),
        ("fleet.failovers", "count", "lower"),
        ("serve.backpressure", "count", "lower"),
        ("serve.degraded", "count", "lower"),
        ("serve.shed", "count", "lower"),
        ("serve.batch_occupancy", "count", "higher"),
        ("serve.queue_wait_p50_us", "us", "lower"),
        ("serve.queue_wait_tail_us", "us", "lower"),
        ("serve.replay_frac", "fraction", "higher"),
        ("serve.prepare_ms", "ms", "lower"),
        ("serve.finish_ms", "ms", "lower"),
        ("plan.hit_rate", "fraction", "higher"),
        ("plan.decide_us", "us", "lower"),
        ("plan.lookup_us", "us", "lower"),
        ("plan.build_s", "s", "lower"),
        ("autotune.measured", "count", "lower"),
        ("exec.wall_ms", "ms", "lower"),
        ("verify.wall_ms", "ms", "lower"),
        ("exec.recovered", "count", "lower"),
        ("replay.host_us", "us", "lower"),
    ] {
        add(name, unit, better);
    }
    for s in layers::STAGES {
        add(&format!("stage.{s}.sim_us"), "us", "lower");
    }
    for f in layers::FAMILIES {
        for (x, unit, better) in [
            ("dram_bytes", "bytes", "lower"),
            ("coalescing", "fraction", "higher"),
            ("bank_conflicts", "count", "lower"),
            ("claim_retries", "count", "lower"),
            ("bandwidth_s", "s", "lower"),
            ("latency_s", "s", "lower"),
            ("serial_s", "s", "lower"),
            ("local_port_s", "s", "lower"),
            ("warp_steps", "count", "lower"),
            ("wall_ms", "ms", "lower"),
        ] {
            add(&format!("kernel.{f}.{x}"), unit, better);
        }
    }
    for (name, unit, better) in [
        ("sim.ns_per_warp_step", "ns", "lower"),
        ("sim.parallel_frac", "fraction", "higher"),
        ("des.wall_us", "us", "lower"),
        ("stream.overlap_eff", "fraction", "higher"),
        ("stream.wall_ms", "ms", "lower"),
        ("host.three_stage.gbps", "GB/s", "higher"),
        ("host.c2r.gbps", "GB/s", "higher"),
        ("host.seq_gbps", "GB/s", "higher"),
        ("host.copy_gbps", "GB/s", "higher"),
        ("host.roofline_frac", "fraction", "higher"),
        ("host.threads", "count", "higher"),
        ("obs.trace_overhead_frac", "fraction", "lower"),
        ("error_frac", "fraction", "lower"),
        ("slo_miss_frac", "fraction", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
    ] {
        add(name, unit, better);
    }
    for l in LAYERS {
        add(&format!("self.{l}_s"), "s", "lower");
    }
    v
}

/// Per-layer metrics whose values come from the simulator alone: the
/// determinism guard requires them bit-identical across runs and engine
/// thread counts.
fn simulated(name: &str) -> bool {
    name.starts_with("stage.")
        || (name.starts_with("kernel.") && !name.ends_with(".wall_ms"))
        || matches!(
            name,
            "autotune.measured"
                | "fleet.failovers"
                | "serve.backpressure"
                | "serve.degraded"
                | "serve.shed"
                | "serve.batch_occupancy"
                | "serve.queue_wait_p50_us"
                | "serve.queue_wait_tail_us"
                | "serve.replay_frac"
                | "plan.hit_rate"
                | "exec.recovered"
                | "stream.overlap_eff"
                | "sim.parallel_frac"
        )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => {
                a.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    v => return Err(format!("--size takes full or tiny, not {v}")),
                }
            }
            "--probe" => a.probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["soak-mixed", "offload-large", "host-inplace"].contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be soak-mixed, offload-large or host-inplace (got {:?})",
            a.workload
        ));
    }
    Ok(a)
}

/// What a run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Problems that make the run incorrect beyond per-request failures.
    faults: Vec<String>,
    metrics: Metrics,
    /// Hash of every simulated quantity (fleet workloads only).
    fingerprint: Option<String>,
    /// Provenance lines specific to the workload.
    notes: Vec<(String, String)>,
    tracer: Tracer,
    wall_ns: u64,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_fleet(a: &Args, calib: &mut Calibrator) -> Outcome {
    let wl = if a.workload == "soak-mixed" {
        fleet_wl::soak_mixed(a.seed, a.tiny)
    } else {
        fleet_wl::offload_large(a.seed, a.tiny)
    };
    let tracer = Tracer::new(a.trace);
    let mut m = Metrics::default();
    let mut faults = Vec::new();
    // Median of several set-ups; the cheap soak set-up is repeated more.
    let setups = match (a.probe, wl.fresh_fleet) {
        (true, _) => 1,
        (false, true) => 5,
        (false, false) => 3,
    };
    let mut setup_s = Vec::new();
    let mut prep = None;
    for _ in 0..setups {
        drop(prep.take());
        let p = tracer.span("bench.setup", None, || fleet_wl::setup(&wl, &tracer, calib));
        setup_s.push(p.setup_s);
        prep = Some(p);
    }
    let mut prep = prep.expect("set up at least once");
    let (passes, untraced) = if a.probe {
        (
            vec![fleet_wl::run_pass(
                &wl,
                &mut prep.fleet,
                &prep.inputs,
                &tracer,
                calib,
            )],
            Vec::new(),
        )
    } else {
        fleet_wl::measure(&wl, &mut prep, a.seconds, 3, &tracer, a.trace, calib)
    };
    let first = &passes[0];
    if wl.fresh_fleet {
        // Every pass replays the same seed on a fresh fleet: the simulated
        // outcome must repeat bit for bit.
        for (i, p) in passes.iter().chain(&untraced).enumerate().skip(1) {
            if p.fingerprint != first.fingerprint {
                faults.push(format!(
                    "pass {i} simulated differently from pass 0 (same seed, fresh fleet)"
                ));
            }
        }
    }
    let all: Vec<&fleet_wl::PassOut> = passes.iter().chain(&untraced).collect();
    let totals = fleet_wl::totals(&prep.warmup, &all);
    let failed = totals.mismatches + totals.errors + totals.dropped;
    let sim = fleet_wl::sim_figures(first);

    m.set("setup_s", median(&setup_s), "s", "lower");
    m.set(
        "req_per_cpu_s",
        fleet_wl::req_per_cpu_s(&passes),
        "1/s",
        "higher",
    );
    m.set("lat_p50_us", sim.lat_p50_us, "us", "lower");
    m.set("lat_tail_us", sim.lat_tail_us, "us", "lower");
    m.set("slo_met_frac", sim.slo_met_frac, "fraction", "higher");
    m.set("sim_gbps", sim.sim_gbps, "GB/s", "higher");
    m.set("host_gbps", fleet_wl::host_gbps(&passes), "GB/s", "higher");
    m.set(
        "error_frac",
        failed as f64 / totals.attempted.max(1) as f64,
        "fraction",
        "lower",
    );
    m.set("slo_miss_frac", 1.0 - sim.slo_met_frac, "fraction", "lower");

    let mut notes = vec![
        (
            "lat_tail.percentile".to_string(),
            format!("p{}", sim.tail_percentile),
        ),
        (
            "lat_tail.samples_beyond".to_string(),
            sim.tail_beyond.to_string(),
        ),
        ("lat.samples".to_string(), first.lat_us.len().to_string()),
        ("passes".to_string(), passes.len().to_string()),
        (
            "pass_req_per_cpu_s".to_string(),
            passes
                .iter()
                .map(|p| format!("{:.1}", p.correct as f64 / p.scaled_s))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("requests_per_pass".to_string(), wl.pass_len.to_string()),
        ("simulated_figures_from".to_string(), "pass 0".to_string()),
    ];

    let mut probe_fail = 0;
    if a.trace {
        m.set(
            "fleet.submit_us",
            median(&tracer.durations_s("fleet.submit")) * 1e6,
            "us",
            "lower",
        );
        m.set(
            "fleet.round_ms",
            median(&tracer.durations_s("fleet.round")) * 1e3,
            "ms",
            "lower",
        );
        m.set("fleet.failovers", first.failovers as f64, "count", "lower");
        m.set(
            "serve.backpressure",
            first.backpressure as f64,
            "count",
            "lower",
        );
        m.set("serve.degraded", first.degraded as f64, "count", "lower");
        m.set("serve.shed", first.shed as f64, "count", "lower");
        let occupancy = if first.batches > 0 {
            first.batched / first.batches as f64
        } else {
            0.0
        };
        m.set("serve.batch_occupancy", occupancy, "count", "higher");
        layers::queue_waits(&first.wait_us, &mut m);
        m.set(
            "serve.replay_frac",
            first.replays as f64 / first.served.max(1) as f64,
            "fraction",
            "higher",
        );
        m.set("plan.hit_rate", first.hit_rate, "fraction", "higher");
        let parallel = first.parallel_execs as f64 / first.device_execs.max(1) as f64;
        m.set("sim.parallel_frac", parallel, "fraction", "higher");
        let traced_rps = fleet_wl::req_per_cpu_s(&passes);
        let plain_rps = fleet_wl::req_per_cpu_s(&untraced);
        m.set(
            "obs.trace_overhead_frac",
            1.0 - traced_rps / plain_rps,
            "fraction",
            "lower",
        );
        let probed = tracer.span("bench.layer_probes", None, || {
            layers::probe(&wl, &prep.inputs, &tracer, &mut m)
        });
        probe_fail = probed.failed;
        notes.push(("layer_probe_checks".to_string(), probed.checked.to_string()));
        if probed.failed > 0 {
            faults.push(format!(
                "{} layer-probe results failed verification",
                probed.failed
            ));
        }
    }

    // Determinism fingerprint: every simulated outcome of pass 0, plus the
    // simulated layer figures of a traced run.
    let mut fp = format!("{:016x}", first.fingerprint);
    for x in ["lat_p50_us", "lat_tail_us", "slo_met_frac", "sim_gbps"] {
        fp.push_str(&format!(";{x}={:016x}", m.get(x).unwrap_or(0.0).to_bits()));
    }
    if a.trace {
        for (x, _, _) in per_layer().iter().filter(|(x, _, _)| simulated(x)) {
            fp.push_str(&format!(";{x}={:016x}", m.get(x).unwrap_or(0.0).to_bits()));
        }
    }
    let wall_ns = tracer.elapsed_ns();
    Outcome {
        attempted: totals.attempted,
        failed: failed + probe_fail,
        faults,
        metrics: m,
        fingerprint: Some(fp),
        notes,
        tracer,
        wall_ns,
    }
}

fn run_host(a: &Args, calib: &mut Calibrator) -> Outcome {
    let tracer = Tracer::new(a.trace);
    let run = host_wl::run(a.seed, a.seconds, a.tiny, &tracer, calib);
    let mut m = run.metrics;
    m.set("setup_s", median(&run.setup_s), "s", "lower");
    let attempted = run.transposes.max(1);
    m.set(
        "slo_met_frac",
        1.0 - run.failed as f64 / attempted as f64,
        "fraction",
        "higher",
    );
    m.set(
        "error_frac",
        run.failed as f64 / attempted as f64,
        "fraction",
        "lower",
    );
    m.set(
        "slo_miss_frac",
        run.failed as f64 / attempted as f64,
        "fraction",
        "lower",
    );
    let l3 = l3_bytes();
    let mut notes = vec![
        (
            "lat_tail.percentile".to_string(),
            format!("p{}", m.get("lat_tail.percentile").unwrap_or(0.0)),
        ),
        (
            "lat_tail.samples_beyond".to_string(),
            format!("{}", m.get("lat_tail.beyond").unwrap_or(0.0)),
        ),
    ];
    for (what, bytes) in &run.array_bytes {
        let rel = l3.map_or("L3 unknown".to_string(), |l| {
            format!("{:.2}x L3", bytes / l as f64)
        });
        notes.push((
            format!("array {what}"),
            format!("{:.1} MB, {rel}", bytes / 1e6),
        ));
    }
    let wall_ns = tracer.elapsed_ns();
    Outcome {
        attempted,
        failed: run.failed,
        faults: Vec::new(),
        metrics: m,
        fingerprint: None,
        notes,
        tracer,
        wall_ns,
    }
}

/// L3 size as `lscpu` reports it, in bytes.
fn l3_bytes() -> Option<u64> {
    let out = Command::new("lscpu").env("LC_ALL", "C").output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("L3 cache:"))?;
    let mut parts = line.split(':').nth(1)?.split_whitespace();
    let n: f64 = parts.next()?.parse().ok()?;
    let scale = match parts.next()? {
        "KiB" | "K" => 1024.0,
        "MiB" | "M" => 1024.0 * 1024.0,
        "GiB" | "G" => 1024.0 * 1024.0 * 1024.0,
        _ => return None,
    };
    Some((n * scale) as u64)
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Re-run this workload and seed in a child process on `threads` engine
/// threads and return its fingerprint.
fn probe_fingerprint(a: &Args, threads: usize) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        &a.workload,
        "--seed",
        &a.seed.to_string(),
        "--seconds",
        "1",
    ])
    .args(["--trace", if a.trace { "1" } else { "0" }, "--probe"])
    .env("RAYON_NUM_THREADS", threads.to_string());
    if a.tiny {
        cmd.args(["--size", "tiny"]);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("PROBE ").map(str::to_string))
        .ok_or_else(|| "probe printed no fingerprint".to_string())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The measured run pins the simulator's worker pool to one thread
    // before the first parallel launch resolves it: host timings are CPU
    // time, which a second thread does not shorten, and on a small shared
    // host more threads mostly measure the scheduler. The determinism probe
    // re-runs the seed on `nproc` threads (at least two).
    let probe_threads = nproc.max(2);
    if !a.probe {
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    let mut calib = Calibrator::new();
    let mut o = if a.workload == "host-inplace" {
        run_host(&a, &mut calib)
    } else {
        run_fleet(&a, &mut calib)
    };
    if a.probe {
        println!("PROBE {}", o.fingerprint.unwrap_or_default());
        return ExitCode::SUCCESS;
    }
    if let Some(fp) = &o.fingerprint {
        match probe_fingerprint(&a, probe_threads) {
            Ok(child) if &child == fp => {}
            Ok(_) => o.faults.push(format!(
                "simulated metrics differ between this run (1 engine thread) and a \
                 re-run of the same seed on {probe_threads} engine threads"
            )),
            Err(e) => o.faults.push(format!("determinism probe failed: {e}")),
        }
    }
    let rss = peak_rss_mb();
    o.metrics.set("peak_rss_mb", rss, "MB", "lower");
    o.metrics.set(
        "verified_frac",
        1.0 - o.failed as f64 / o.attempted.max(1) as f64,
        "fraction",
        "higher",
    );
    let mut attribution = Vec::new();
    if a.trace {
        let spans = o.tracer.spans();
        let (per_layer, rest) = trace::attribute(&spans, o.wall_ns);
        for l in LAYERS {
            let ns = per_layer
                .iter()
                .find(|(n, _)| n == l)
                .map_or(0, |(_, ns)| *ns);
            o.metrics
                .set(&format!("self.{l}_s"), ns as f64 * 1e-9, "s", "lower");
        }
        for (l, _) in &per_layer {
            if !LAYERS.contains(&l.as_str()) {
                o.faults
                    .push(format!("span layer {l} is not in the layer list"));
            }
        }
        o.metrics
            .set("trace.wall_s", o.wall_ns as f64 * 1e-9, "s", "lower");
        o.metrics
            .set("trace.unattributed_s", rest as f64 * 1e-9, "s", "lower");
        let sum: u64 = per_layer.iter().map(|(_, ns)| ns).sum::<u64>() + rest;
        attribution = per_layer;
        attribution.push(("unattributed".to_string(), rest));
        if sum != o.wall_ns {
            o.faults.push(format!(
                "self times sum to {sum} ns, wall is {} ns",
                o.wall_ns
            ));
        }
    }

    // The metrics this mode prints; any the workload did not measure are
    // layers it does not exercise, reported as 0.
    let names: Vec<(String, &str, &str)> = if a.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), *u, *b))
            .collect()
    };
    let mut printed = Metrics::default();
    let mut not_exercised = Vec::new();
    for (name, unit, better) in &names {
        match o.metrics.get(name) {
            Some(value) => printed.set(name, value, unit, better),
            None if a.trace => {
                not_exercised.push(name.clone());
                printed.set(name, 0.0, unit, better);
            }
            None => {
                o.faults
                    .push(format!("end-to-end metric {name} was not measured"));
                printed.set(name, 0.0, unit, better);
            }
        }
        if let Some(m) = o.metrics.0.iter().find(|m| &m.name == name) {
            if (m.unit, m.better) != (*unit, *better) {
                o.faults.push(format!(
                    "metric {name} measured as {} {}, listed as {unit} {better}",
                    m.unit, m.better
                ));
            }
        }
    }
    for m in &printed.0 {
        if !m.value.is_finite() {
            o.faults.push(format!("metric {} is not finite", m.name));
        }
    }
    let correct = o.faults.is_empty() && o.failed == 0;

    // Human-readable report.
    let revision = git_revision();
    let engine_threads = gpu_sim::EngineMode::parallel_auto().resolved_threads();
    let l3 = l3_bytes();
    let mut prov: Vec<(String, String)> = vec![
        ("workload".into(), a.workload.clone()),
        ("seed".into(), a.seed.to_string()),
        ("seconds".into(), a.seconds.to_string()),
        ("trace".into(), u8::from(a.trace).to_string()),
        ("size".into(), if a.tiny { "tiny" } else { "full" }.into()),
        ("git_revision".into(), revision),
        ("nproc".into(), nproc.to_string()),
        (
            "engine".into(),
            "parallel on plan-cache hits, serial on cold plans".into(),
        ),
        ("engine_threads".into(), engine_threads.to_string()),
        (
            "determinism_probe_engine_threads".into(),
            probe_threads.to_string(),
        ),
        (
            "host_worker_threads".into(),
            rayon::current_num_threads().to_string(),
        ),
        (
            "l3_bytes".into(),
            l3.map_or("unknown".into(), |b| b.to_string()),
        ),
    ];
    prov.push((
        "clock".into(),
        "host timings in process CPU time, scaled to the reference host speed".into(),
    ));

    let parts = calib.part_s();
    prov.push((
        "calib.parts_ms".into(),
        calib::PARTS
            .iter()
            .zip(parts)
            .zip(calib::REFERENCE_S)
            .map(|((p, s), r)| format!("{p}={:.4} (reference {:.4})", s * 1e3, r * 1e3))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    prov.push((
        "calib.slowdown".into(),
        format!("{:.4} over {} bundles", calib.slowdown(), calib.bundles()),
    ));
    prov.extend(o.notes.iter().cloned());
    for (k, v) in &prov {
        println!("# {k}: {v}");
    }
    for f in &o.faults {
        println!("# FAULT: {f}");
    }
    if !not_exercised.is_empty() {
        println!(
            "# not exercised by this workload (reported as 0): {}",
            not_exercised.join(" ")
        );
    }
    for m in &printed.0 {
        println!("{:<32} {:>20} {:<9} {}", m.name, m.value, m.unit, m.better);
    }
    for (l, ns) in &attribution {
        println!("# self time {l}: {:.6} s", *ns as f64 * 1e-9);
    }

    if let Err(e) = write_report(&a, &prov, &o, &printed, &attribution) {
        eprintln!("perfbench: could not write the report: {e}");
    }

    let metrics: Vec<String> = printed
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Write the full report: provenance, metrics with their direction, and
/// (traced runs) the attribution and every span.
fn write_report(
    a: &Args,
    prov: &[(String, String)],
    o: &Outcome,
    printed: &Metrics,
    attribution: &[(String, u64)],
) -> std::io::Result<()> {
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-trace{}.json", a.workload, u8::from(a.trace)));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{\"provenance\": {{")?;
    let p: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("  {}: {}", json_str(k), json_str(v)))
        .collect();
    writeln!(f, "{}", p.join(",\n"))?;
    writeln!(
        f,
        "}},\n\"faults\": [{}],",
        o.faults
            .iter()
            .map(|x| json_str(x))
            .collect::<Vec<_>>()
            .join(", ")
    )?;
    writeln!(f, "\"metrics\": [")?;
    let ms: Vec<String> = printed
        .0
        .iter()
        .map(|m| {
            format!(
                "  {{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    writeln!(f, "{}\n],", ms.join(",\n"))?;
    let at: Vec<String> = attribution
        .iter()
        .map(|(l, ns)| format!("{}: {}", json_str(l), *ns as f64 * 1e-9))
        .collect();
    writeln!(f, "\"self_time_s\": {{{}}},", at.join(", "))?;
    writeln!(f, "\"wall_s\": {},", o.wall_ns as f64 * 1e-9)?;
    writeln!(
        f,
        "\"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"],"
    )?;
    writeln!(f, "\"spans\": [")?;
    let spans = o.tracer.spans();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let req = s.request.map_or("null".to_string(), |r| r.to_string());
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            f,
            "[{}, {}, {}, {parent}, {req}]{sep}",
            json_str(s.name),
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()
}

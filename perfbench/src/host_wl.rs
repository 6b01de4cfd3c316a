//! The `host-inplace` workload: real in-place transposes on the host,
//! framed by a stream-copy roofline and a single-thread baseline measured
//! in the same process.

use crate::calib::Calibrator;
use crate::clock::CpuInstant;
use crate::payload::{fill, is_transpose, salt};
use crate::stats::{median, tail, Metrics};
use crate::trace::Tracer;
use gpu_sim::{DeviceSpec, EngineMode, Sim};
use ipt_bench::workloads::{table2_sizes, Scale};
use ipt_core::{
    transpose_c2r_par, transpose_in_place_par, transpose_in_place_seq, Algorithm, Matrix,
};

/// Shapes of one pass.
pub struct HostShapes {
    /// Paper Table-2 shapes, 3-stage.
    pub table2: Vec<(usize, usize)>,
    /// One 3-stage shape whose array is at least 4x the L3.
    pub large: (usize, usize),
    /// A prime x prime shape for C2R.
    pub c2r: (usize, usize),
    /// Simulated-device reference shapes (the reduced Table-2 scale).
    pub sim: Vec<(usize, usize)>,
}

pub fn shapes(tiny: bool) -> HostShapes {
    if tiny {
        HostShapes {
            table2: table2_sizes(Scale::Reduced),
            large: (2880, 1536),
            c2r: (1583, 331),
            sim: vec![(72, 60)],
        }
    } else {
        HostShapes {
            table2: table2_sizes(Scale::Full),
            // 14400 x 7680 f32 = 442 MB, 4.0x a 105 MiB L3.
            large: (14_400, 7_680),
            // Both prime; about the Table-2 element count.
            c2r: (7_919, 1_637),
            sim: vec![(1440, 360), (360, 1440)],
        }
    }
}

/// One timed transpose.
struct Sample {
    kind: &'static str,
    bytes: f64,
    /// CPU seconds.
    raw_s: f64,
    /// CPU seconds scaled to the reference host speed (see `calib`).
    cpu_s: f64,
}

pub struct HostRun {
    pub setup_s: Vec<f64>,
    pub transposes: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub array_bytes: Vec<(String, f64)>,
}

/// Buffers reused across passes.
struct Buffers {
    table2: Vec<u32>,
    large: Vec<u32>,
    c2r: Vec<u32>,
    copy_dst: Vec<u32>,
}

fn setup(sh: &HostShapes, seed: u64, tracer: &Tracer) -> Buffers {
    tracer.span("bench.alloc", None, || {
        let most = sh.table2.iter().map(|&(r, c)| r * c).max().unwrap_or(0);
        let mut b = Buffers {
            table2: vec![0; most],
            large: vec![0; sh.large.0 * sh.large.1],
            c2r: vec![0; sh.c2r.0 * sh.c2r.1],
            copy_dst: vec![0; sh.large.0 * sh.large.1],
        };
        fill(&mut b.large, salt(seed, 1));
        fill(&mut b.copy_dst, salt(seed, 2));
        b
    })
}

/// Run `f` timed on the CPU clock, between two calibration bundles; returns
/// its output, its CPU seconds, and those scaled to the reference host
/// speed by the mean slowdown of the two bundles (see `calib`).
fn scaled<T>(calib: &mut Calibrator, tracer: &Tracer, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = tracer.span("bench.calib", None, || calib.probe());
    let t = CpuInstant::now();
    let out = f();
    let cpu_s = t.elapsed_s();
    let after = tracer.span("bench.calib", None, || calib.probe());
    (out, cpu_s, cpu_s / (0.5 * (before + after)))
}

/// Transpose `buf` (a `rows x cols` payload) in place with `f`, timed;
/// refill and verification run with the clock paused.
#[allow(clippy::too_many_arguments)]
fn timed_transpose(
    buf: &mut Vec<u32>,
    rows: usize,
    cols: usize,
    s: u64,
    kind: &'static str,
    span: &'static str,
    tracer: &Tracer,
    calib: &mut Calibrator,
    f: impl FnOnce(Vec<u32>) -> Vec<u32>,
    samples: &mut Vec<Sample>,
    failed: &mut u64,
) {
    tracer.span("bench.fill", None, || {
        // Table-2 shapes share one buffer; their element counts differ a
        // little, and the capacity stays at the largest.
        buf.resize(rows * cols, 0);
        fill(buf, s);
    });
    let data = std::mem::take(buf);
    let (out, raw_s, cpu_s) = scaled(calib, tracer, || tracer.span(span, None, || f(data)));
    *buf = out;
    let ok = tracer.span("bench.verify", None, || is_transpose(buf, s, rows, cols, 1));
    *failed += u64::from(!ok);
    samples.push(Sample {
        kind,
        bytes: (rows * cols * 4) as f64,
        raw_s,
        cpu_s,
    });
}

fn three_stage(rows: usize, cols: usize) -> impl FnOnce(Vec<u32>) -> Vec<u32> {
    move |v| {
        transpose_in_place_par(Matrix::from_vec(rows, cols, v), Algorithm::ThreeStage).into_vec()
    }
}

/// Stream-copy roofline: `dst <- src` over arrays larger than the L3.
fn copy_gbps(src: &[u32], dst: &mut [u32], tracer: &Tracer, calib: &mut Calibrator) -> f64 {
    let ((), _, cpu_s) = scaled(calib, tracer, || {
        tracer.span("host.copy", None, || {
            dst.copy_from_slice(std::hint::black_box(src))
        })
    });
    2.0 * (src.len() * 4) as f64 / cpu_s / 1e9
}

/// Run passes until `seconds` of timed transposes have accumulated.
pub fn run(
    seed: u64,
    seconds: f64,
    tiny: bool,
    tracer: &Tracer,
    calib: &mut Calibrator,
) -> HostRun {
    let sh = shapes(tiny);
    // Set-up (allocation and first fill) is repeated and its median
    // reported; the last set-up's buffers are the ones measured.
    let mut setup_s = Vec::new();
    let mut bufs = None;
    for _ in 0..3 {
        drop(bufs.take());
        let (b, _, s) = scaled(calib, tracer, || setup(&sh, seed, tracer));
        bufs = Some(b);
        setup_s.push(s);
    }
    let mut b = bufs.expect("set up at least once");

    let mut samples: Vec<Sample> = Vec::new();
    let mut seq: Vec<f64> = Vec::new();
    let mut copies: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    let mut timed = 0.0;
    let mut pass = 0u64;
    while pass == 0 || timed < seconds {
        let before = samples.len();
        for (k, &(r, c)) in sh.table2.iter().enumerate() {
            let s = salt(seed, 100 + pass * 16 + k as u64);
            timed_transpose(
                &mut b.table2,
                r,
                c,
                s,
                "three_stage",
                "host.three_stage",
                tracer,
                calib,
                three_stage(r, c),
                &mut samples,
                &mut failed,
            );
        }
        let (r, c) = sh.large;
        let s = salt(seed, 3 + pass * 16);
        timed_transpose(
            &mut b.large,
            r,
            c,
            s,
            "three_stage",
            "host.three_stage",
            tracer,
            calib,
            three_stage(r, c),
            &mut samples,
            &mut failed,
        );
        let (r, c) = sh.c2r;
        let s = salt(seed, 4 + pass * 16);
        let c2r = move |mut v: Vec<u32>| {
            transpose_c2r_par(&mut v, r, c);
            v
        };
        timed_transpose(
            &mut b.c2r,
            r,
            c,
            s,
            "c2r",
            "host.c2r",
            tracer,
            calib,
            c2r,
            &mut samples,
            &mut failed,
        );
        timed += samples[before..].iter().map(|x| x.raw_s).sum::<f64>();

        // Framing, same process: the single-thread run of the first
        // Table-2 problem, and the copy roofline.
        let (r, c) = sh.table2[0];
        let mut seq_samples = Vec::new();
        let seq_run = move |v| {
            transpose_in_place_seq(Matrix::from_vec(r, c, v), Algorithm::ThreeStage).into_vec()
        };
        timed_transpose(
            &mut b.table2,
            r,
            c,
            salt(seed, 5),
            "seq",
            "host.seq",
            tracer,
            calib,
            seq_run,
            &mut seq_samples,
            &mut failed,
        );
        seq.extend(seq_samples.iter().map(|x| 2.0 * x.bytes / x.cpu_s / 1e9));
        for _ in 0..3 {
            copies.push(copy_gbps(&b.large, &mut b.copy_dst, tracer, calib));
        }
        failed += u64::from(b.copy_dst != b.large);
        pass += 1;
    }

    let gbps = |kind: Option<&str>| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|x| kind.is_none_or(|k| x.kind == k))
            .map(|x| 2.0 * x.bytes / x.cpu_s / 1e9)
            .collect();
        median(&v)
    };
    let mut m = Metrics::default();
    // Latency over the arrays of the Table-2 size (the 3-stage Table-2
    // shapes and the C2R shape); the 4x-L3 array is a different population.
    let lat: Vec<f64> = samples
        .iter()
        .filter(|x| x.bytes < 1e8)
        .map(|x| x.cpu_s * 1e6)
        .collect();
    let (lat_tail, pct, beyond) = tail(&lat);
    m.set(
        "req_per_cpu_s",
        samples.len() as f64 / samples.iter().map(|x| x.cpu_s).sum::<f64>(),
        "1/s",
        "higher",
    );
    m.set("lat_p50_us", median(&lat), "us", "lower");
    m.set("lat_tail_us", lat_tail, "us", "lower");
    m.set("lat_tail.percentile", pct, "percent", "info");
    m.set("lat_tail.beyond", beyond as f64, "count", "info");
    m.set("host_gbps", gbps(None), "GB/s", "higher");
    let copy = median(&copies);
    m.set(
        "host.three_stage.gbps",
        gbps(Some("three_stage")),
        "GB/s",
        "higher",
    );
    m.set("host.c2r.gbps", gbps(Some("c2r")), "GB/s", "higher");
    m.set("host.seq_gbps", median(&seq), "GB/s", "higher");
    m.set("host.copy_gbps", copy, "GB/s", "higher");
    m.set(
        "host.roofline_frac",
        gbps(None) / copy,
        "fraction",
        "higher",
    );
    m.set(
        "host.threads",
        rayon::current_num_threads() as f64,
        "count",
        "higher",
    );

    // The accelerator side of the paper's comparison: the same problem
    // (reduced Table-2 scale) on the simulated device, heuristic plans.
    let sim_gbps = tracer.span("sim.reference", None, || {
        sim_reference(&sh.sim, seed, &mut failed)
    });
    m.set("sim_gbps", sim_gbps, "GB/s", "higher");

    let l = |(r, c): (usize, usize)| (r * c * 4) as f64;
    let mut array_bytes: Vec<(String, f64)> = sh
        .table2
        .iter()
        .map(|&(r, c)| (format!("table2 {r}x{c}"), l((r, c))))
        .collect();
    array_bytes.push((format!("large {}x{}", sh.large.0, sh.large.1), l(sh.large)));
    array_bytes.push((format!("c2r {}x{}", sh.c2r.0, sh.c2r.1), l(sh.c2r)));
    array_bytes.push(("copy roofline src and dst, each".to_string(), l(sh.large)));
    HostRun {
        setup_s,
        transposes: samples.len() as u64 + seq.len() as u64,
        failed,
        metrics: m,
        array_bytes,
    }
}

/// Simulated throughput of the staged plan on each shape (paper
/// convention, `2 x bytes / simulated time`), aggregated over shapes.
fn sim_reference(shapes: &[(usize, usize)], seed: u64, failed: &mut u64) -> f64 {
    let dev = DeviceSpec::tesla_k20();
    let heuristic = ipt_core::TileHeuristic::default();
    let (mut bytes, mut secs) = (0.0, 0.0);
    for (k, &(r, c)) in shapes.iter().enumerate() {
        let Some(plan) = ipt_core::decide_scheme(r, c, &heuristic).staged_plan(r, c) else {
            *failed += 1;
            continue;
        };
        let s = salt(seed, 900 + k as u64);
        let mut data = crate::payload::payload(s, r * c);
        let mut sim = Sim::new(
            dev.clone(),
            2 * r * c + ipt_gpu::plan_flag_words(&plan) + 256,
        );
        sim.set_engine_mode(EngineMode::parallel_auto());
        let opts = ipt_gpu::GpuOptions::tuned_for(&dev);
        match ipt_gpu::transpose_on_device(&mut sim, &mut data, r, c, &plan, &opts) {
            Ok(stats) => {
                bytes += 2.0 * (r * c * 4) as f64;
                secs += stats.time_s();
                *failed += u64::from(!is_transpose(&data, s, r, c, 1));
            }
            Err(e) => {
                eprintln!("host-inplace: simulated reference {r}x{c} failed: {e}");
                *failed += 1;
            }
        }
    }
    if secs > 0.0 {
        bytes / secs / 1e9
    } else {
        0.0
    }
}

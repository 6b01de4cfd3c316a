//! Layer probes of the traced run.
//!
//! The fleet hides its inner layers, so the traced run calls those same
//! public functions on the workload's own inputs, each inside a span:
//! `Server::submit/prepare_round/finish_round` and
//! `try_simulate_shards_at` (a replica of the fleet's round loop),
//! `decide_scheme`, `PlanCache::get_or_build` and `build_plan`,
//! `transpose_scheme_with_recovery`, `verify_exact_elems`, the per-stage
//! kernel launches (`run_stage`, `transpose_c2r_on_device`),
//! `stream_transpose` and `host_transpose_elems`.

use crate::fleet_wl::{FleetWorkload, Meta};
use crate::payload::{is_transpose, salt};
use crate::stats::{mean, median, tail, Metrics};
use crate::trace::Tracer;
use gpu_sim::{try_simulate_shards_at, EngineMode, ShardLoad, Sim, Timeline};
use ipt_core::{decide_scheme, Scheme};
use ipt_gpu::serve::{build_plan, CachedPlan, PlanCache, PlanKey, ServeRequest, Server};
use ipt_gpu::stream::{stream_transpose, StreamChaos, StreamConfig};
use ipt_gpu::{
    c2r_scratch_words, host_transpose_elems, plan_flag_words, run_stage, scale_plan_words,
    transpose_c2r_on_device, transpose_scheme_with_recovery, verify_exact_elems, GpuOptions,
    TransposeError,
};
use ipt_obs::NoopRecorder;
use std::sync::Arc;
use std::time::Instant;

/// Kernel families, named after their `gpu_sim` kernel names.
pub const FAMILIES: [&str; 5] = ["bs", "p010", "p100", "c2r", "coprime"];
/// Elementary stages with a simulated-time metric.
pub const STAGES: [&str; 6] = ["p100", "p0010", "p0100", "c2r_rotate", "c2r_row", "c2r_col"];

fn family_of(kernel: &str) -> Option<&'static str> {
    if kernel.starts_with("BS ") {
        Some("bs")
    } else if kernel.starts_with("PTTWAC010") {
        Some("p010")
    } else if kernel.starts_with("PTTWAC100") {
        Some("p100")
    } else if kernel.starts_with("c2r-") {
        Some("c2r")
    } else if kernel.starts_with("coprime") {
        Some("coprime")
    } else {
        None
    }
}

fn c2r_stage_of(kernel: &str) -> Option<&'static str> {
    match kernel.split_whitespace().next()? {
        "c2r-rotate" => Some("c2r_rotate"),
        "c2r-rows" => Some("c2r_row"),
        "c2r-cols" => Some("c2r_col"),
        _ => None,
    }
}

fn stage_of_code(code: &str) -> Option<&'static str> {
    match code {
        "100!" => Some("p100"),
        "0010!" => Some("p0010"),
        "0100!" => Some("p0100"),
        _ => None,
    }
}

#[derive(Default, Clone, Copy)]
struct KernelAgg {
    dram_bytes: f64,
    useful_bytes: f64,
    bank_conflicts: u64,
    claim_retries: u64,
    bounds: [f64; 4],
    warp_steps: u64,
    wall_s: f64,
}

/// What the probes found, beyond the metrics they set.
#[derive(Default)]
pub struct ProbeOut {
    /// Probe results checked against the closed form.
    pub checked: u64,
    /// Mismatches and typed errors among them.
    pub failed: u64,
}

struct Probe<'a> {
    wl: &'a FleetWorkload,
    tracer: &'a Tracer,
    m: &'a mut Metrics,
    out: ProbeOut,
}

impl Probe<'_> {
    fn check(&mut self, data: &[u32], id: usize) {
        let meta = self.wl.metas[id];
        let ok = self.tracer.span("bench.verify", Some(id as u64), || {
            is_transpose(
                data,
                salt(self.wl.seed, id as u64),
                meta.rows,
                meta.cols,
                meta.elem_bytes / 4,
            )
        });
        self.out.checked += 1;
        self.out.failed += u64::from(!ok);
    }

    fn streamed(&self, meta: &Meta) -> bool {
        self.wl
            .cfg
            .serve
            .stream_over_words
            .is_some_and(|b| meta.words() > b)
    }
}

/// Distinct shapes of one pass, with the id of their first request.
fn distinct(wl: &FleetWorkload) -> Vec<usize> {
    let mut firsts: Vec<usize> = Vec::new();
    for (id, m) in wl.metas[..wl.pass_len].iter().enumerate() {
        let same = |f: &usize| {
            let o = wl.metas[*f];
            (o.rows, o.cols, o.elem_bytes) == (m.rows, m.cols, m.elem_bytes)
        };
        if !firsts.iter().any(same) {
            firsts.push(id);
        }
    }
    firsts
}

fn key_of(wl: &FleetWorkload, m: &Meta) -> PlanKey {
    let decision = decide_scheme(m.rows, m.cols, &wl.cfg.serve.heuristic);
    PlanKey {
        rows: m.rows,
        cols: m.cols,
        elem_bytes: m.elem_bytes,
        device: wl.dev.name,
        scheme: decision.scheme,
    }
}

/// Replica of `Fleet::process_rounds` over public `Server` calls, fed the
/// pass's schedule: affinity routing without the crash drill.
struct Replica {
    router: ipt_gpu::Fleet,
    servers: Vec<Server>,
    engines: usize,
    setup_s: f64,
}

impl Replica {
    fn round(&mut self, p: &mut Probe<'_>) -> Result<(), TransposeError> {
        let tracer = p.tracer;
        let mut prepared = Vec::with_capacity(self.servers.len());
        for s in &mut self.servers {
            prepared.push(tracer.span("serve.prepare", None, || s.prepare_round(&NoopRecorder))?);
        }
        let loads: Vec<ShardLoad<'_>> = prepared
            .iter()
            .map(|r| ShardLoad {
                queues: r.queues(),
                arrivals: r.arrivals(),
            })
            .collect();
        let fleet_tl = tracer.span("des.simulate", None, || {
            try_simulate_shards_at(self.engines, self.setup_s, &loads)
        })?;
        drop(loads);
        for ((s, r), tl) in self.servers.iter_mut().zip(prepared).zip(fleet_tl.shards) {
            let tl = if r.is_launchless() {
                Timeline {
                    spans: Vec::new(),
                    total_s: 0.0,
                    setup_s: 0.0,
                }
            } else {
                tl
            };
            let rep = tracer.span("serve.finish", None, || {
                s.finish_round(r, tl, &NoopRecorder)
            });
            for res in &rep.results {
                p.check(&res.data, res.id as usize);
            }
        }
        Ok(())
    }

    /// Submit with one drain-and-retry on backpressure, like the fleet driver.
    fn submit(&mut self, p: &mut Probe<'_>, req: &ServeRequest) -> Result<(), TransposeError> {
        let s = self
            .router
            .preferred_shard(req.rows, req.cols, req.elem_bytes);
        let tracer = p.tracer;
        for attempt in 0..2 {
            let server = &mut self.servers[s];
            match tracer.span("serve.submit", Some(req.id), || {
                server.submit(req.clone(), &NoopRecorder)
            }) {
                Err(TransposeError::Backpressure { .. }) if attempt == 0 => self.round(p)?,
                Err(TransposeError::Backpressure { .. }) | Ok(()) => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

fn replica(p: &mut Probe<'_>, inputs: &[ServeRequest]) -> Result<(), TransposeError> {
    let wl = p.wl;
    let cfg = &wl.cfg;
    let mut r = Replica {
        router: ipt_gpu::Fleet::new(wl.dev.clone(), cfg.clone()),
        servers: (0..cfg.shards)
            .map(|_| Server::new(wl.dev.clone(), cfg.serve.clone()))
            .collect(),
        engines: cfg.serve.link.num_engines(cfg.serve.devices),
        setup_s: wl.dev.queue_create_overhead_s,
    };
    if !wl.fresh_fleet {
        // Warm the replica's plan caches the way set-up warmed the fleet,
        // so its timed rounds see warm plans too.
        p.tracer.span(
            "bench.replica_warmup",
            None,
            || -> Result<(), TransposeError> {
                for req in &inputs[wl.pass_len..] {
                    let s = r.router.preferred_shard(req.rows, req.cols, req.elem_bytes);
                    r.servers[s].submit(req.clone(), &NoopRecorder)?;
                }
                for s in &mut r.servers {
                    s.process_round(&NoopRecorder)?;
                }
                Ok(())
            },
        )?;
    }
    let mut in_round = 0;
    let mut round_idx = 0usize;
    for req in &inputs[..wl.pass_len] {
        r.submit(p, req)?;
        in_round += 1;
        let burst = wl
            .burst_every
            .is_some_and(|b| (round_idx + 1).is_multiple_of(b));
        if in_round
            >= if burst {
                2 * wl.round_size
            } else {
                wl.round_size
            }
        {
            r.round(p)?;
            in_round = 0;
            round_idx += 1;
        }
    }
    while r.servers.iter().any(|s| s.backlog() > 0) {
        r.round(p)?;
    }
    Ok(())
}

/// Run every layer probe on the workload's inputs and set the layer
/// metrics they measure.
pub fn probe(
    wl: &FleetWorkload,
    inputs: &[ServeRequest],
    tracer: &Tracer,
    m: &mut Metrics,
) -> ProbeOut {
    let mut p = Probe {
        wl,
        tracer,
        m,
        out: ProbeOut::default(),
    };
    if let Err(e) = replica(&mut p, inputs) {
        eprintln!("{}: replica round failed: {e}", wl.name);
        p.out.failed += 1;
    }
    let ms = |name: &str| median(&tracer.durations_s(name)) * 1e3;
    p.m.set("serve.prepare_ms", ms("serve.prepare"), "ms", "lower");
    p.m.set("serve.finish_ms", ms("serve.finish"), "ms", "lower");
    p.m.set("des.wall_us", ms("des.simulate") * 1e3, "us", "lower");
    plan_and_exec(&mut p, inputs);
    replay(&mut p, inputs);
    p.out
}

fn plan_and_exec(p: &mut Probe<'_>, inputs: &[ServeRequest]) {
    let wl = p.wl;
    let tracer = p.tracer;
    let serve = &wl.cfg.serve;
    let pass = &wl.metas[..wl.pass_len];

    let t = Instant::now();
    tracer.span("plan.decide", None, || {
        for meta in pass {
            std::hint::black_box(decide_scheme(meta.rows, meta.cols, &serve.heuristic));
        }
    });
    p.m.set(
        "plan.decide_us",
        t.elapsed().as_secs_f64() * 1e6 / pass.len() as f64,
        "us",
        "lower",
    );

    let cache = PlanCache::new();
    let mut build_s = Vec::new();
    let mut measured = 0u64;
    let mut plans: Vec<(usize, Arc<CachedPlan>)> = Vec::new();
    for id in distinct(wl) {
        let meta = wl.metas[id];
        if p.streamed(&meta) {
            continue;
        }
        let key = key_of(wl, &meta);
        let (plan, _) = tracer.span("plan.get_or_build", Some(id as u64), || {
            cache.get_or_build(&key, || {
                let t = Instant::now();
                let plan = tracer.span("plan.build", Some(id as u64), || {
                    build_plan(
                        &wl.dev,
                        meta.rows,
                        meta.cols,
                        &serve.heuristic,
                        &serve.opts,
                        &NoopRecorder,
                    )
                });
                build_s.push(t.elapsed().as_secs_f64());
                plan
            })
        });
        measured += plan.tune.measured as u64;
        plans.push((id, plan));
    }
    p.m.set("plan.build_s", mean(&build_s), "s", "lower");
    p.m.set("autotune.measured", measured as f64, "count", "lower");

    let warm: Vec<PlanKey> = pass
        .iter()
        .filter(|m| !p.streamed(m))
        .map(|m| key_of(wl, m))
        .collect();
    let t = Instant::now();
    tracer.span("plan.lookup", None, || {
        for key in &warm {
            std::hint::black_box(
                cache.get_or_build(key, || unreachable!("every key was built above")),
            );
        }
    });
    p.m.set(
        "plan.lookup_us",
        t.elapsed().as_secs_f64() * 1e6 / warm.len().max(1) as f64,
        "us",
        "lower",
    );

    let mut exec_s = Vec::new();
    let mut verify_s = Vec::new();
    let mut recovered = 0u64;
    let mut kernels = [KernelAgg::default(); 5];
    let mut stages = [0.0f64; 6];
    for (id, plan) in &plans {
        let meta = wl.metas[*id];
        if plan.decision.scheme == Scheme::Identity {
            continue;
        }
        let req = &inputs[*id];
        let ew = meta.elem_bytes / 4;
        let opts = match plan.wg_size {
            Some(wg) => GpuOptions {
                wg_size: wg,
                ..serve.opts
            },
            None => serve.opts,
        };
        let flag_words = plan.plan.as_ref().map_or(0, plan_flag_words);
        let scratch = if plan.decision.scheme == Scheme::C2R && ew == 1 {
            c2r_scratch_words(&wl.dev, meta.rows, meta.cols, opts.wg_size)
        } else {
            0
        };
        let capacity = 2 * req.data.len() + ew * flag_words + scratch + 256;
        let mut sim = Sim::new(wl.dev.clone(), capacity);
        sim.set_engine_mode(EngineMode::parallel_auto());
        let mut data = req.data.clone();
        let t = Instant::now();
        let run = tracer.span("exec.transpose", Some(*id as u64), || {
            transpose_scheme_with_recovery(
                &mut sim,
                &mut data,
                meta.rows,
                meta.cols,
                ew,
                &plan.decision,
                &opts,
                &serve.policy,
            )
        });
        exec_s.push(t.elapsed().as_secs_f64());
        match run {
            Ok((_, report)) => recovered += u64::from(!report.clean()),
            Err(e) => {
                eprintln!(
                    "{}: exec probe {}x{} failed: {e}",
                    wl.name, meta.rows, meta.cols
                );
                p.out.failed += 1;
            }
        }
        let t = Instant::now();
        let exact = tracer.span("verify.exact", Some(*id as u64), || {
            verify_exact_elems(&req.data, &data, meta.rows, meta.cols, ew).is_ok()
        });
        verify_s.push(t.elapsed().as_secs_f64());
        p.out.failed += u64::from(!exact);
        p.check(&data, *id);

        // Kernel probe: the same plan, one timed launch call per stage.
        let mut sim = Sim::new(wl.dev.clone(), capacity);
        sim.set_engine_mode(EngineMode::parallel_auto());
        let buf = sim.alloc(req.data.len());
        sim.upload_u32(buf, &req.data);
        let mut launched: Vec<(gpu_sim::KernelStats, Option<&'static str>, f64)> = Vec::new();
        if plan.decision.scheme == Scheme::C2R && ew == 1 {
            let t = Instant::now();
            let run = tracer.span("kernel.c2r", Some(*id as u64), || {
                transpose_c2r_on_device(&mut sim, buf, meta.rows, meta.cols, opts.wg_size)
            });
            let wall = t.elapsed().as_secs_f64();
            match run {
                Ok(stats) => split(&mut launched, stats.stages, None, wall),
                Err(e) => {
                    eprintln!("{}: c2r kernel probe failed: {e}", wl.name);
                    p.out.failed += 1;
                }
            }
        } else if let Some(staged) = &plan.plan {
            let staged = scale_plan_words(staged, ew);
            let flags = sim.alloc(plan_flag_words(&staged).max(1));
            for stage in &staged.stages {
                let mut ps = gpu_sim::PipelineStats::default();
                let t = Instant::now();
                let run = tracer.span("kernel.stage", Some(*id as u64), || {
                    run_stage(&sim, buf, flags, stage, &opts, &mut ps)
                });
                let wall = t.elapsed().as_secs_f64();
                match run {
                    Ok(()) => split(
                        &mut launched,
                        ps.stages,
                        stage_of_code(&stage.code.to_string()),
                        wall,
                    ),
                    Err(e) => {
                        eprintln!("{}: stage probe failed: {e}", wl.name);
                        p.out.failed += 1;
                    }
                }
            }
        } else {
            continue;
        }
        p.check(&sim.download_u32(buf), *id);
        for (k, stage, wall) in launched {
            let stage = stage.or_else(|| c2r_stage_of(&k.name));
            if let Some(i) = stage.and_then(|s| STAGES.iter().position(|x| *x == s)) {
                stages[i] += k.time_s;
            }
            let Some(f) = family_of(&k.name).and_then(|f| FAMILIES.iter().position(|x| *x == f))
            else {
                continue;
            };
            let a = &mut kernels[f];
            a.dram_bytes += k.dram_bytes;
            a.useful_bytes += k.useful_bytes;
            a.bank_conflicts += k.bank_conflicts;
            a.claim_retries += k.claim_retries;
            a.bounds[0] += k.bounds.bandwidth_s;
            a.bounds[1] += k.bounds.latency_s;
            a.bounds[2] += k.bounds.serial_s;
            a.bounds[3] += k.bounds.local_port_s;
            a.warp_steps += k.warp_steps;
            a.wall_s += wall;
        }
    }
    p.m.set("exec.wall_ms", median(&exec_s) * 1e3, "ms", "lower");
    p.m.set("verify.wall_ms", median(&verify_s) * 1e3, "ms", "lower");
    p.m.set("exec.recovered", recovered as f64, "count", "lower");
    for (i, s) in STAGES.iter().enumerate() {
        p.m.set(&format!("stage.{s}.sim_us"), stages[i] * 1e6, "us", "lower");
    }
    let (mut wall, mut steps) = (0.0, 0u64);
    for (f, a) in FAMILIES.iter().zip(kernels) {
        let k = |x: &str| format!("kernel.{f}.{x}");
        p.m.set(&k("dram_bytes"), a.dram_bytes, "bytes", "lower");
        let coalescing = if a.dram_bytes > 0.0 {
            a.useful_bytes / a.dram_bytes
        } else {
            0.0
        };
        p.m.set(&k("coalescing"), coalescing, "fraction", "higher");
        p.m.set(
            &k("bank_conflicts"),
            a.bank_conflicts as f64,
            "count",
            "lower",
        );
        p.m.set(
            &k("claim_retries"),
            a.claim_retries as f64,
            "count",
            "lower",
        );
        for (name, v) in ["bandwidth_s", "latency_s", "serial_s", "local_port_s"]
            .iter()
            .zip(a.bounds)
        {
            p.m.set(&k(name), v, "s", "lower");
        }
        p.m.set(&k("warp_steps"), a.warp_steps as f64, "count", "lower");
        p.m.set(&k("wall_ms"), a.wall_s * 1e3, "ms", "lower");
        wall += a.wall_s;
        steps += a.warp_steps;
    }
    let ns = if steps > 0 {
        wall * 1e9 / steps as f64
    } else {
        0.0
    };
    p.m.set("sim.ns_per_warp_step", ns, "ns", "lower");

    // Oversized shapes: the out-of-core streaming executor.
    let mut overlap = Vec::new();
    let mut stream_s = Vec::new();
    for id in distinct(wl) {
        let meta = wl.metas[id];
        let Some(budget) = serve.stream_over_words.filter(|_| p.streamed(&meta)) else {
            continue;
        };
        let scfg = StreamConfig {
            budget_words: budget as u64,
            opts: serve.opts,
            policy: serve.policy,
            heuristic: serve.heuristic,
        };
        let t = Instant::now();
        let run = tracer.span("stream.transpose", Some(id as u64), || {
            stream_transpose(
                &wl.dev,
                &inputs[id].data,
                meta.rows,
                meta.cols,
                meta.elem_bytes / 4,
                &scfg,
                &StreamChaos::None,
            )
        });
        stream_s.push(t.elapsed().as_secs_f64());
        match run {
            Ok((data, report)) => {
                overlap.push(report.overlap_efficiency);
                p.check(&data, id);
            }
            Err(e) => {
                eprintln!("{}: stream probe failed: {e}", wl.name);
                p.out.failed += 1;
            }
        }
    }
    p.m.set("stream.overlap_eff", mean(&overlap), "fraction", "higher");
    p.m.set("stream.wall_ms", median(&stream_s) * 1e3, "ms", "lower");
}

/// Split one call's wall time over the kernels it launched, in proportion
/// to their warp steps.
fn split(
    out: &mut Vec<(gpu_sim::KernelStats, Option<&'static str>, f64)>,
    stats: Vec<gpu_sim::KernelStats>,
    stage: Option<&'static str>,
    wall: f64,
) {
    let steps: u64 = stats.iter().map(|k| k.warp_steps).sum();
    let n = stats.len().max(1) as f64;
    for k in stats {
        let share = if steps > 0 {
            k.warp_steps as f64 / steps as f64
        } else {
            1.0 / n
        };
        out.push((k, stage, wall * share));
    }
}

/// Host payload of the timing-replay path, on the pass's own requests.
fn replay(p: &mut Probe<'_>, inputs: &[ServeRequest]) {
    let wl = p.wl;
    if !wl.cfg.serve.profile_replay {
        p.m.set("replay.host_us", 0.0, "us", "lower");
        return;
    }
    let reqs: Vec<&ServeRequest> = inputs[..wl.pass_len]
        .iter()
        .filter(|r| r.rows > 1 && r.cols > 1)
        .collect();
    let t = Instant::now();
    p.tracer.span("replay.host", None, || {
        for r in &reqs {
            std::hint::black_box(host_transpose_elems(
                &r.data,
                r.rows,
                r.cols,
                r.elem_bytes / 4,
            ));
        }
    });
    p.m.set(
        "replay.host_us",
        t.elapsed().as_secs_f64() * 1e6 / reqs.len().max(1) as f64,
        "us",
        "lower",
    );
}

/// Simulated queue-wait quantiles of a pass.
pub fn queue_waits(wait_us: &[f64], m: &mut Metrics) {
    m.set("serve.queue_wait_p50_us", median(wait_us), "us", "lower");
    m.set("serve.queue_wait_tail_us", tail(wait_us).0, "us", "lower");
}

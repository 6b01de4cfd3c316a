//! The two fleet workloads: `soak-mixed` and `offload-large`.
//!
//! Both drive `ipt_gpu::fleet::Fleet` through its public front door
//! (`submit`, `process_rounds`, `crash_shard`, `restart_shard`) in a
//! closed loop of admission rounds. Only those calls are timed; input
//! copies and the benchmark's own verification run with the clock paused.

use crate::calib::{Calibrator, Scaled};
use crate::clock::CpuInstant;
use crate::payload::{is_transpose, mix, payload, salt};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use gpu_sim::DeviceSpec;
use ipt_bench::workloads::{serve_mix, Scale};
use ipt_gpu::fleet::{Fleet, FleetConfig};
use ipt_gpu::serve::{DegradeLevel, PriorityClass, ServeRequest, ServedResult};
use ipt_gpu::TransposeError;
use ipt_obs::NoopRecorder;

/// `(rows, cols, elem_bytes)`.
type Shape = (usize, usize, usize);

/// Shape and class of one request; its id is its index in the table.
#[derive(Debug, Clone, Copy)]
pub struct Meta {
    pub rows: usize,
    pub cols: usize,
    pub elem_bytes: usize,
    pub priority: PriorityClass,
}

impl Meta {
    pub fn words(&self) -> usize {
        self.rows * self.cols * (self.elem_bytes / 4)
    }

    pub fn bytes(&self) -> f64 {
        (self.rows * self.cols * self.elem_bytes) as f64
    }
}

/// A fleet workload: the configuration, one pass's request schedule and
/// how it is cut into rounds.
pub struct FleetWorkload {
    pub name: &'static str,
    pub seed: u64,
    pub dev: DeviceSpec,
    pub cfg: FleetConfig,
    /// Requests `0..pass_len` form one pass; the ones after it are the
    /// set-up warm-up requests.
    pub metas: Vec<Meta>,
    pub pass_len: usize,
    pub round_size: usize,
    /// Every this-many-th round is submitted at twice the size.
    pub burst_every: Option<usize>,
    /// Crash shard 0 at this request index and warm-restart it from its
    /// own snapshot at the second.
    pub drill: Option<(usize, usize)>,
    /// A fresh fleet per pass (cold plan cache, as in a soak), or one fleet
    /// warmed during set-up and reused.
    pub fresh_fleet: bool,
}

/// Fisher-Yates shuffle driven by `seed`.
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..v.len()).rev() {
        state = mix(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        v.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// `n` priority classes in the 30/60/10 interactive/batch/background
/// split, in seeded order.
fn classes(n: usize, seed: u64) -> Vec<PriorityClass> {
    let mut v: Vec<PriorityClass> = (0..n)
        .map(|i| match i % 10 {
            0..=2 => PriorityClass::Interactive,
            9 => PriorityClass::Background,
            _ => PriorityClass::Batch,
        })
        .collect();
    shuffle(&mut v, seed ^ 0x0C1A_55E5);
    v
}

fn metas(shapes: &[Shape], classes: &[PriorityClass]) -> Vec<Meta> {
    shapes
        .iter()
        .zip(classes)
        .map(|(&(rows, cols, elem_bytes), &priority)| Meta {
            rows,
            cols,
            elem_bytes,
            priority,
        })
        .collect()
}

/// The `soak-mixed` workload: the soak configuration (3 shards, profile
/// replay on, degradation ladder armed) over the reduced serving mix,
/// every shape equally often in seeded order, 2x bursts every 8th round and
/// the crash + warm-restart drill. Every pass starts from a fresh fleet.
pub fn soak_mixed(seed: u64, tiny: bool) -> FleetWorkload {
    use ipt_bench::experiments::soak::{BURST_EVERY, FULL_EXEC_EVERY, ROUND_SIZE};
    let dev = DeviceSpec::tesla_k20();
    let mut cfg = FleetConfig::new(&dev);
    cfg.serve.profile_replay = true;
    cfg.serve.full_exec_every = FULL_EXEC_EVERY;
    let mix_shapes = serve_mix(Scale::Reduced);
    let (n, round_size) = if tiny {
        (9 * 60, 24)
    } else {
        (9 * 900, ROUND_SIZE)
    };
    let mut shapes: Vec<_> = (0..n).map(|i| mix_shapes[i % mix_shapes.len()]).collect();
    shuffle(&mut shapes, seed);
    FleetWorkload {
        name: "soak-mixed",
        seed,
        dev,
        cfg,
        metas: metas(&shapes, &classes(n, seed)),
        pass_len: n,
        round_size,
        burst_every: Some(BURST_EVERY),
        drill: Some((n * 2 / 5, n / 2)),
        fresh_fleet: true,
    }
}

/// The `offload-large` workload: large matrices, profile replay off so
/// every request runs the full verified simulated device path. Rounds of
/// five requests draw on three tuned staged shapes, three C2R prime
/// shapes, and an oversized shape that streams out-of-core. Set-up builds
/// every shape's cold plan through the fleet.
pub fn offload_large(seed: u64, tiny: bool) -> FleetWorkload {
    let dev = DeviceSpec::tesla_k20();
    let mut cfg = FleetConfig::new(&dev);
    // (shape, requests per pass). Streamed requests stay under 5% so the
    // latency tail is set by queueing on the device path, not by the
    // fixed streaming time.
    let (mix_counts, budget): (Vec<(Shape, usize)>, usize) = if tiny {
        (
            vec![
                ((96, 72, 4), 4),
                ((64, 48, 4), 4),
                ((127, 61, 4), 3),
                ((160, 96, 4), 1),
            ],
            8192,
        )
    } else {
        (
            vec![
                ((288, 144, 4), 80),
                ((256, 128, 4), 80),
                ((192, 96, 4), 80),
                ((1009, 127, 4), 48),
                ((509, 251, 4), 48),
                ((257, 131, 4), 48),
                ((720, 360, 4), 16),
            ],
            131_072,
        )
    };
    cfg.serve.stream_over_words = Some(budget);
    // One shard: a round's batches share its two devices and link, so the
    // latency reflects the seeded batch order, not only the shape.
    cfg.shards = 1;
    // Every shape a fixed number of times per pass, so the host work of a
    // pass does not depend on the seed. Stratified rounds: the shapes,
    // grouped, are dealt round-robin into rounds of five, so every round
    // mixes them alike, and every round holds a like mix of classes; the
    // seed orders the rounds and the requests and classes inside each, which
    // set the batching and queueing, so the simulated latency varies
    // little from seed to seed.
    let mut grouped: Vec<_> = mix_counts
        .iter()
        .flat_map(|&(shape, k)| std::iter::repeat_n(shape, k))
        .collect();
    // A seeded rotation moves the boundaries between the kinds of round.
    let turn = (mix(seed ^ 0xDEA1) % grouped.len() as u64) as usize;
    grouped.rotate_left(turn);
    let round_size = 5;
    let rounds = grouped.len().div_ceil(round_size);
    let mut dealt: Vec<Vec<Shape>> = (0..rounds)
        .map(|r| {
            (0..round_size)
                .filter_map(|k| grouped.get(r + k * rounds).copied())
                .collect()
        })
        .collect();
    // A few seeded swaps between rounds, so the slowest rounds, which
    // set the latency tail, differ from seed to seed.
    for i in 0..rounds / 8 {
        let h = mix(seed ^ mix(0x5A7 + i as u64));
        let (a, b) = (
            (h % rounds as u64) as usize,
            ((h >> 32) % rounds as u64) as usize,
        );
        let (ka, kb) = (
            (h >> 8) as usize % dealt[a].len(),
            (h >> 40) as usize % dealt[b].len(),
        );
        let x = dealt[a][ka];
        dealt[a][ka] = std::mem::replace(&mut dealt[b][kb], x);
    }
    shuffle(&mut dealt, seed);
    for (r, round) in dealt.iter_mut().enumerate() {
        shuffle(round, seed ^ mix(r as u64));
    }
    let mut shapes = dealt.concat();
    let n = shapes.len();
    // Classes by round too: rounds alternate between two five-request
    // decks that together hold the 30/60/10 split, shuffled by the seed.
    use PriorityClass::{Background, Batch, Interactive};
    let decks = [
        [Interactive, Interactive, Batch, Batch, Batch],
        [Interactive, Batch, Batch, Batch, Background],
    ];
    let mut all_classes: Vec<PriorityClass> = Vec::with_capacity(n);
    for (r, round) in dealt.iter().enumerate() {
        let mut deck = decks[r % 2];
        shuffle(&mut deck, seed ^ mix(0xC1A55 + r as u64));
        all_classes.extend(&deck[..round.len()]);
    }
    let warm: Vec<_> = mix_counts.iter().map(|&(shape, _)| shape).collect();
    // Warm-up: one batch-class request per shape, ids after the pass.
    shapes.extend(warm.iter().copied());
    all_classes.extend(std::iter::repeat_n(PriorityClass::Batch, warm.len()));
    FleetWorkload {
        name: "offload-large",
        seed,
        dev,
        cfg,
        metas: metas(&shapes, &all_classes),
        pass_len: n,
        round_size,
        burst_every: None,
        drill: None,
        fresh_fleet: false,
    }
}

/// Everything one pass observed. Simulated quantities come straight from
/// the fleet's results; `timed_s` is process CPU time inside fleet calls
/// only.
#[derive(Debug, Default, Clone)]
pub struct PassOut {
    pub attempted: u64,
    pub served: u64,
    pub correct: u64,
    pub mismatches: u64,
    pub errors: u64,
    pub refused: u64,
    pub dropped: u64,
    pub timed_s: f64,
    /// `timed_s` scaled to the reference host speed (see `calib`).
    pub scaled_s: f64,
    pub verified_bytes: f64,
    pub lat_us: Vec<f64>,
    pub wait_us: Vec<f64>,
    pub slo_bad: u64,
    pub launched_bytes: f64,
    pub makespan_s: f64,
    pub degraded: u64,
    pub shed: u64,
    pub backpressure: u64,
    pub failovers: u64,
    pub recovered: u64,
    pub replays: u64,
    pub device_execs: u64,
    pub parallel_execs: u64,
    pub batches: u64,
    pub batched: f64,
    pub hit_rate: f64,
    /// Hash of every simulated outcome, in completion order.
    pub fingerprint: u64,
}

impl PassOut {
    fn absorb(&mut self, other: PassOut) {
        self.attempted += other.attempted;
        self.served += other.served;
        self.correct += other.correct;
        self.mismatches += other.mismatches;
        self.errors += other.errors;
        self.refused += other.refused;
        self.dropped += other.dropped;
    }
}

fn fold(h: u64, x: u64) -> u64 {
    mix(h ^ x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

fn fold_str(h: u64, s: &str) -> u64 {
    s.bytes().fold(h, |h, b| fold(h, u64::from(b)))
}

/// Drives one fleet through the schedule, timing only the fleet calls.
struct Driver<'a> {
    wl: &'a FleetWorkload,
    tracer: &'a Tracer,
    calib: &'a mut Calibrator,
    /// The timed CPU time, scaled chunk by chunk.
    meter: Scaled,
    out: PassOut,
    /// Results seen per request id (exactly one is expected).
    seen: Vec<u8>,
}

impl<'a> Driver<'a> {
    fn new(wl: &'a FleetWorkload, tracer: &'a Tracer, calib: &'a mut Calibrator) -> Self {
        Driver {
            wl,
            tracer,
            calib,
            meter: Scaled::default(),
            out: PassOut::default(),
            seen: vec![0; wl.metas.len()],
        }
    }

    /// Count `cpu_s` of measured work, calibrating when a chunk is due.
    fn measured(&mut self, cpu_s: f64) {
        if self.meter.add(cpu_s) {
            self.calibrate();
        }
    }

    fn calibrate(&mut self) {
        let tracer = self.tracer;
        tracer.span("bench.calib", None, || self.meter.flush(self.calib));
    }

    fn timed<T>(&mut self, name: &'static str, id: Option<u64>, f: impl FnOnce() -> T) -> T {
        let t = CpuInstant::now();
        let r = self.tracer.span(name, id, f);
        let cpu_s = t.elapsed_s();
        self.out.timed_s += cpu_s;
        self.measured(cpu_s);
        r
    }

    /// Close the pass: scale its last chunk and record the scaled time.
    fn finish(mut self) -> PassOut {
        self.calibrate();
        self.out.scaled_s = self.meter.scaled_s;
        self.out
    }

    fn observe(&mut self, res: &ServedResult) {
        let Some(meta) = self.wl.metas.get(res.id as usize).copied() else {
            self.out.errors += 1;
            return;
        };
        self.seen[res.id as usize] = self.seen[res.id as usize].saturating_add(1);
        let out = &mut self.out;
        out.served += 1;
        let ok = self.tracer.span("bench.verify", Some(res.id), || {
            is_transpose(
                &res.data,
                salt(self.wl.seed, res.id),
                meta.rows,
                meta.cols,
                meta.elem_bytes / 4,
            )
        });
        if ok {
            out.correct += 1;
            out.verified_bytes += meta.bytes();
        } else {
            out.mismatches += 1;
        }
        let e2e_s = res.queue_wait_s + res.service_s;
        out.lat_us.push(e2e_s * 1e6);
        out.wait_us.push(res.queue_wait_s * 1e6);
        if res.degrade == DegradeLevel::HostShed || e2e_s > res.priority.deadline_budget_s() {
            out.slo_bad += 1;
        }
        match res.degrade {
            DegradeLevel::Tuned => {}
            DegradeLevel::Conservative => out.degraded += 1,
            DegradeLevel::HostShed => out.shed += 1,
        }
        if res.service_s > 0.0 {
            out.launched_bytes += meta.bytes();
        }
        match res.engine {
            "profiled" => out.replays += 1,
            "host" | "stream" => {}
            engine => {
                out.device_execs += 1;
                if engine == "parallel" {
                    out.parallel_execs += 1;
                }
            }
        }
        if !res.recovery.clean() {
            out.recovered += 1;
        }
        let mut h = fold(out.fingerprint, res.id);
        h = fold(h, res.queue_wait_s.to_bits());
        h = fold(h, res.service_s.to_bits());
        h = fold(h, res.device as u64);
        h = fold_str(h, res.degrade.name());
        h = fold_str(h, res.scheme.name());
        out.fingerprint = fold_str(h, res.engine);
    }

    fn drain(&mut self, fleet: &mut Fleet) {
        let tracer = self.tracer;
        match self.timed("fleet.round", None, || fleet.process_rounds(&NoopRecorder)) {
            Ok(round) => {
                self.out.makespan_s += round.makespan_s;
                self.out.fingerprint = fold(self.out.fingerprint, round.makespan_s.to_bits());
                tracer.span("bench.observe", None, || {
                    for (_, rep) in &round.rounds {
                        self.out.batches += rep.batches as u64;
                        self.out.batched += rep.mean_occupancy * rep.batches as f64;
                        for res in &rep.results {
                            self.observe(res);
                        }
                    }
                });
            }
            Err(e) => {
                eprintln!("{}: fleet round failed: {e}", self.wl.name);
                self.out.errors += 1;
            }
        }
    }

    /// Submit with the soak's drain-and-retry protocol: one backpressure
    /// refusal drains a round and retries; a second refusal is a refused
    /// request.
    fn submit(&mut self, fleet: &mut Fleet, req: ServeRequest) {
        let meta = self.wl.metas[req.id as usize];
        let preferred = fleet.preferred_shard(meta.rows, meta.cols, meta.elem_bytes);
        let id = req.id;
        let mut retry = None;
        match self.timed("fleet.submit", Some(id), || {
            fleet.submit(req.clone(), &NoopRecorder)
        }) {
            Ok(s) => self.out.failovers += u64::from(s != preferred),
            Err(TransposeError::Backpressure { .. }) => {
                self.out.backpressure += 1;
                self.drain(fleet);
                retry = Some(req);
            }
            Err(e) => {
                eprintln!("{}: request {id} refused: {e}", self.wl.name);
                self.out.errors += 1;
            }
        }
        if let Some(req) = retry {
            match self.timed("fleet.submit", Some(id), || {
                fleet.submit(req, &NoopRecorder)
            }) {
                Ok(s) => self.out.failovers += u64::from(s != preferred),
                Err(TransposeError::Backpressure { .. }) => self.out.refused += 1,
                Err(e) => {
                    eprintln!("{}: request {id} refused: {e}", self.wl.name);
                    self.out.errors += 1;
                }
            }
        }
    }
}

/// Materialise request `id` (payload from `(seed, id)`).
pub fn request(wl: &FleetWorkload, id: usize) -> ServeRequest {
    let m = wl.metas[id];
    ServeRequest {
        id: id as u64,
        rows: m.rows,
        cols: m.cols,
        elem_bytes: m.elem_bytes,
        priority: m.priority,
        data: payload(salt(wl.seed, id as u64), m.words()),
    }
}

/// Pre-generated inputs plus the fleet a pass starts from.
pub struct Prepared {
    pub inputs: Vec<ServeRequest>,
    pub fleet: Fleet,
    /// Outcome of the set-up warm-up requests (cold plan builds).
    pub warmup: PassOut,
    /// CPU time of the set-up, scaled to the reference host speed; the
    /// calibration bundles interleaved with it are left out.
    pub setup_s: f64,
}

/// Set-up: generate every input, build the fleet and, for a reused fleet,
/// run one request per shape through it so every cold plan is built.
pub fn setup(wl: &FleetWorkload, tracer: &Tracer, calib: &mut Calibrator) -> Prepared {
    let mut d = Driver::new(wl, tracer, calib);
    let t = CpuInstant::now();
    let inputs: Vec<ServeRequest> = tracer.span("bench.inputs", None, || {
        // Allocate in size order, whatever the seed, so the allocator's
        // work in set-up does not depend on the seeded request order.
        let mut order: Vec<usize> = (0..wl.metas.len()).collect();
        order.sort_by_key(|&id| wl.metas[id].words());
        let mut slots: Vec<Option<ServeRequest>> = vec![None; order.len()];
        for id in order {
            slots[id] = Some(request(wl, id));
        }
        slots
            .into_iter()
            .map(|r| r.expect("every id generated"))
            .collect()
    });
    let mut fleet = Fleet::new(wl.dev.clone(), wl.cfg.clone());
    // Input generation and fleet construction count as set-up too.
    d.measured(t.elapsed_s());
    if !wl.fresh_fleet {
        for req in &inputs[wl.pass_len..] {
            d.submit(&mut fleet, req.clone());
        }
        while fleet.backlog() > 0 {
            d.drain(&mut fleet);
        }
        d.out.attempted = (wl.metas.len() - wl.pass_len) as u64;
        d.out.dropped = count_dropped(&d.seen[wl.pass_len..], &d.out);
    }
    let warmup = d.finish();
    Prepared {
        inputs,
        fleet,
        setup_s: warmup.scaled_s,
        warmup,
    }
}

fn count_dropped(seen: &[u8], out: &PassOut) -> u64 {
    let missing = seen.iter().filter(|&&c| c == 0).count() as u64;
    let duplicated: u64 = seen.iter().map(|&c| u64::from(c.saturating_sub(1))).sum();
    missing.saturating_sub(out.refused) + duplicated
}

/// Run one pass of the schedule on `fleet`.
pub fn run_pass(
    wl: &FleetWorkload,
    fleet: &mut Fleet,
    inputs: &[ServeRequest],
    tracer: &Tracer,
    calib: &mut Calibrator,
) -> PassOut {
    let mut d = Driver::new(wl, tracer, calib);
    let mut in_round = 0usize;
    let mut round_idx = 0usize;
    let mut snapshot = None;
    // Always the same shard, so the set of shapes that fail over (and are
    // re-planned on the survivors) does not depend on the seed.
    let victim = 0;
    for (i, req) in inputs[..wl.pass_len].iter().enumerate() {
        if let Some((crash_at, restart_at)) = wl.drill {
            if i == crash_at {
                let (snap, orphans) = d.timed("fleet.crash", None, || {
                    fleet.crash_shard(victim, &NoopRecorder)
                });
                for orphan in orphans {
                    d.submit(fleet, orphan);
                }
                snapshot = Some(snap);
            }
            if i == restart_at {
                let snap = snapshot.take().expect("the crash precedes the restart");
                if let Err(e) = d.timed("fleet.restart", None, || {
                    fleet.restart_shard(victim, &snap, &NoopRecorder)
                }) {
                    eprintln!("{}: warm restart rejected its own snapshot: {e}", wl.name);
                    d.out.errors += 1;
                }
            }
        }
        let req = tracer.span("bench.copy", Some(i as u64), || req.clone());
        d.submit(fleet, req);
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
            d.drain(fleet);
            in_round = 0;
            round_idx += 1;
        }
    }
    while fleet.backlog() > 0 {
        d.drain(fleet);
    }
    d.out.attempted = wl.pass_len as u64;
    d.out.dropped = count_dropped(&d.seen[..wl.pass_len], &d.out);
    d.out.hit_rate = fleet.aggregate_hit_rate();
    d.finish()
}

/// Run passes until `seconds` of timed fleet calls have accumulated (at
/// least `min_passes`). With
/// `alternate_untraced`, every pass on `tracer` is followed by an untraced
/// twin inside one `obs.untraced_pass` span. Returns the passes on `tracer`
/// and the untraced twins.
pub fn measure(
    wl: &FleetWorkload,
    prep: &mut Prepared,
    seconds: f64,
    min_passes: usize,
    tracer: &Tracer,
    alternate_untraced: bool,
    calib: &mut Calibrator,
) -> (Vec<PassOut>, Vec<PassOut>) {
    let mut passes = Vec::new();
    let mut twins = Vec::new();
    let off = Tracer::new(false);
    let mut timed = 0.0;
    let mut first = true;
    while first || timed < seconds || passes.len() + twins.len() < min_passes {
        for pass_traced in [true, false] {
            if !pass_traced && !alternate_untraced {
                continue;
            }
            if wl.fresh_fleet && !first {
                prep.fleet = Fleet::new(wl.dev.clone(), wl.cfg.clone());
            }
            first = false;
            let out = if pass_traced {
                run_pass(wl, &mut prep.fleet, &prep.inputs, tracer, calib)
            } else {
                tracer.span("obs.untraced_pass", None, || {
                    run_pass(wl, &mut prep.fleet, &prep.inputs, &off, calib)
                })
            };
            timed += out.timed_s;
            if pass_traced {
                passes.push(out)
            } else {
                twins.push(out)
            }
        }
    }
    (passes, twins)
}

/// Sum of correctness counts over the warm-up and every pass.
pub fn totals(warmup: &PassOut, passes: &[&PassOut]) -> PassOut {
    let mut t = warmup.clone();
    for p in passes {
        t.absorb((*p).clone());
    }
    t
}

/// Verified results per CPU second inside fleet calls, each pass scaled to
/// the reference host speed, median over passes.
pub fn req_per_cpu_s(passes: &[PassOut]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| p.correct as f64 / p.scaled_s)
            .collect::<Vec<_>>(),
    )
}

/// Host throughput, `2 x verified bytes / CPU seconds inside fleet calls`,
/// each pass scaled to the reference host speed, median over passes.
pub fn host_gbps(passes: &[PassOut]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| 2.0 * p.verified_bytes / p.scaled_s / 1e9)
            .collect::<Vec<_>>(),
    )
}

/// The simulated end-to-end figures of one pass.
pub struct SimFigures {
    pub lat_p50_us: f64,
    pub lat_tail_us: f64,
    pub tail_percentile: f64,
    pub tail_beyond: usize,
    pub slo_met_frac: f64,
    pub sim_gbps: f64,
}

pub fn sim_figures(p: &PassOut) -> SimFigures {
    let (lat_tail_us, tail_percentile, tail_beyond) = tail(&p.lat_us);
    let missed = p.slo_bad + p.refused + p.errors + p.mismatches + p.dropped;
    SimFigures {
        lat_p50_us: median(&p.lat_us),
        lat_tail_us,
        tail_percentile,
        tail_beyond,
        slo_met_frac: 1.0 - missed as f64 / p.attempted.max(1) as f64,
        sim_gbps: if p.makespan_s > 0.0 {
            2.0 * p.launched_bytes / p.makespan_s / 1e9
        } else {
            0.0
        },
    }
}

//! Command queues, copy/compute engines, and the discrete-event timeline
//! (§6 of the paper).
//!
//! OpenCL command queues (CUDA streams) are in-order sequences of commands;
//! commands from *different* queues may overlap when they use different
//! hardware engines. The modelled engines:
//!
//! * one **compute** engine (kernels serialise among themselves),
//! * one or two **copy** engines (`DeviceSpec::copy_engines`): with two,
//!   H2D and D2H transfers ride separate engines and can overlap each other
//!   as well as compute — the Tesla K20 configuration the paper exploits.
//!
//! Creating `Q` queues costs `Q × queue_create_overhead_s` up front, which
//! is why throughput degrades for large `Q` (§7.6).

use crate::device::DeviceSpec;
use crate::fault::FaultSource;
use serde::Serialize;
use std::sync::Arc;

/// One queued command.
///
/// Labels are `Arc<str>`: the DES hot loop stamps every scheduled [`Span`]
/// with its command's label, and serving streams replay thousands of cached
/// command lists — a reference-count bump per span instead of a heap copy.
#[derive(Debug, Clone)]
pub enum Cmd {
    /// Host-to-device copy of `bytes`.
    H2D {
        /// Transfer size in bytes.
        bytes: f64,
    },
    /// Device-to-host copy of `bytes`.
    D2H {
        /// Transfer size in bytes.
        bytes: f64,
    },
    /// Kernel execution of known simulated duration.
    Kernel {
        /// Simulated kernel time, seconds.
        time_s: f64,
        /// Label for the timeline (shared, cheap to clone per span).
        name: Arc<str>,
    },
}

impl Cmd {
    fn engine(&self, dev: &DeviceSpec) -> usize {
        match self {
            Cmd::H2D { .. } => 0,
            Cmd::D2H { .. } => {
                if dev.copy_engines >= 2 {
                    1
                } else {
                    0
                }
            }
            Cmd::Kernel { .. } => 2,
        }
    }

    fn duration(&self, dev: &DeviceSpec) -> f64 {
        match self {
            Cmd::H2D { bytes } | Cmd::D2H { bytes } => dev.pcie.transfer_time(*bytes),
            Cmd::Kernel { time_s, .. } => *time_s,
        }
    }

    fn label(&self) -> Arc<str> {
        match self {
            Cmd::H2D { bytes } => format!("H2D {:.1} MB", bytes / 1e6).into(),
            Cmd::D2H { bytes } => format!("D2H {:.1} MB", bytes / 1e6).into(),
            // Kernel labels are pre-shared: a span stamp is one refcount
            // bump, not an allocation.
            Cmd::Kernel { name, .. } => Arc::clone(name),
        }
    }
}

/// One scheduled span on the timeline.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Queue the command came from.
    pub queue: usize,
    /// Index within that queue.
    pub index: usize,
    /// Engine it ran on (0 = H2D copy, 1 = D2H copy, 2 = compute).
    pub engine: usize,
    /// Start time, seconds.
    pub start_s: f64,
    /// End time, seconds.
    pub end_s: f64,
    /// Human-readable label (shared with the originating command).
    pub label: Arc<str>,
}

/// The simulated execution timeline.
#[derive(Debug, Clone, Serialize)]
pub struct Timeline {
    /// All spans in schedule order.
    pub spans: Vec<Span>,
    /// Makespan including queue-creation overhead.
    pub total_s: f64,
    /// The up-front queue-creation overhead included in `total_s`.
    pub setup_s: f64,
}

impl Timeline {
    /// Busy time of one engine (for overlap diagnostics).
    #[must_use]
    pub fn engine_busy(&self, engine: usize) -> f64 {
        self.spans.iter().filter(|s| s.engine == engine).map(|s| s.end_s - s.start_s).sum()
    }

    /// Start time of queue `q`'s first span, or `None` when the queue issued
    /// no commands. `start − arrival` is a request's queue wait under
    /// [`Des::arrivals`].
    #[must_use]
    pub fn queue_start_s(&self, q: usize) -> Option<f64> {
        self.spans
            .iter()
            .filter(|s| s.queue == q)
            .map(|s| s.start_s)
            .min_by(|a, b| a.partial_cmp(b).expect("span times are finite"))
    }

    /// Replay the timeline onto a recorder: one queue-level span per
    /// scheduled command (shifted by `t0_s` onto the cumulative DES clock,
    /// one display track per engine) plus a per-engine busy-fraction gauge.
    /// `engine_names` label the gauges (missing names fall back to `e<N>`).
    pub fn record<R: ipt_obs::Recorder>(&self, rec: &R, t0_s: f64, engine_names: &[&str]) {
        if !rec.enabled() || self.spans.is_empty() {
            return;
        }
        use ipt_obs::Level;
        for s in &self.spans {
            rec.span(
                Level::Queue,
                &s.label,
                (t0_s + s.start_s) * 1e6,
                (s.end_s - s.start_s) * 1e6,
                Level::Queue.base_track() + s.engine as u32,
                &[("queue", s.queue as f64), ("index", s.index as f64)],
            );
        }
        let engines = self.spans.iter().map(|s| s.engine).max().unwrap_or(0) + 1;
        let active_s = (self.total_s - self.setup_s).max(f64::MIN_POSITIVE);
        for e in 0..engines {
            let fallback = format!("e{e}");
            let name = engine_names.get(e).copied().unwrap_or(&fallback);
            rec.gauge(
                &format!("queue:{name}"),
                "engine_busy_fraction",
                self.engine_busy(e) / active_s,
            );
        }
    }

    /// Render the timeline as an ASCII Gantt chart, one lane per engine,
    /// `width` character columns covering `[0, total_s]`. `engine_names`
    /// label the lanes (missing names fall back to `e<N>`).
    #[must_use]
    pub fn gantt(&self, width: usize, engine_names: &[&str]) -> String {
        let width = width.max(10);
        if self.total_s <= 0.0 || self.spans.is_empty() {
            return String::from("(empty timeline)\n");
        }
        let engines = self.spans.iter().map(|s| s.engine).max().unwrap_or(0) + 1;
        let name_w = engine_names
            .iter()
            .map(|n| n.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap_or(4);
        let scale = width as f64 / self.total_s;
        let mut out = String::new();
        for e in 0..engines {
            let name = engine_names.get(e).copied().unwrap_or("");
            let label = if name.is_empty() { format!("e{e}") } else { name.to_string() };
            let mut lane = vec![b'.'; width];
            for (si, s) in self.spans.iter().enumerate().filter(|(_, s)| s.engine == e) {
                let a = ((s.start_s * scale) as usize).min(width - 1);
                let b = (((s.end_s * scale).ceil()) as usize).clamp(a + 1, width);
                let ch = b"0123456789abcdefghijklmnopqrstuvwxyz"
                    [self.spans[si].queue % 36];
                lane[a..b].fill(ch);
            }
            out.push_str(&format!(
                "{label:>name_w$} |{}|\n",
                String::from_utf8_lossy(&lane)
            ));
        }
        out.push_str(&format!(
            "{:>name_w$}  0{:>w$.2} ms (digits = queue ids)\n",
            "",
            self.total_s * 1e3,
            w = width - 1
        ));
        out
    }
}

/// A command plus an optional OpenCL-event dependency: the command may not
/// start before command `(queue, index)` has completed (in addition to the
/// usual in-order constraint of its own queue).
#[derive(Debug, Clone)]
pub struct QCmd {
    /// The command.
    pub cmd: Cmd,
    /// Cross-queue event wait: `(queue, index)` of the prerequisite.
    pub wait: Option<(usize, usize)>,
}

impl QCmd {
    /// A command with no cross-queue dependency.
    #[must_use]
    pub fn plain(cmd: Cmd) -> Self {
        Self { cmd, wait: None }
    }

    /// A command waiting on event `(queue, index)`.
    #[must_use]
    pub fn after(cmd: Cmd, queue: usize, index: usize) -> Self {
        Self { cmd, wait: Some((queue, index)) }
    }
}

/// Why the DES could not complete a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// A command's event dependency points at a nonexistent command.
    BadDependency {
        /// Queue of the malformed command.
        queue: usize,
        /// Index of the malformed command within its queue.
        index: usize,
    },
    /// The dependency graph has a cycle: no head command is schedulable.
    Deadlock,
    /// An injected transient transfer fault killed a copy command. The
    /// schedule up to the failure is discarded; retrying the whole schedule
    /// succeeds for a single-shot plan (a sustained chaos campaign may fire
    /// again, so callers bound their retries).
    TransferFault {
        /// Queue of the failed transfer.
        queue: usize,
        /// Index of the failed transfer within its queue.
        index: usize,
        /// True for host-to-device, false for device-to-host.
        h2d: bool,
        /// Timeline label of the failed command.
        label: Arc<str>,
    },
    /// An engine died mid-schedule: the first command that would still be
    /// running on (or start after) the crash instant cannot complete, and
    /// neither can anything behind it. Spans that finished strictly before
    /// the crash are trustworthy — out-of-core streaming uses that boundary
    /// to decide which chunks were durably committed before the crash.
    EngineCrash {
        /// The engine that died (0 = H2D copy, 1 = D2H copy, 2 = compute).
        engine: usize,
        /// Simulated crash instant, seconds.
        at_s: f64,
    },
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::BadDependency { queue, index } => {
                write!(f, "command ({queue}, {index}) waits on a nonexistent command")
            }
            QueueError::Deadlock => write!(f, "dependency deadlock in queue schedule"),
            QueueError::TransferFault { queue, index, h2d, label } => write!(
                f,
                "transient {} failure at command ({queue}, {index}): {label}",
                if *h2d { "H2D" } else { "D2H" }
            ),
            QueueError::EngineCrash { engine, at_s } => {
                write!(f, "engine {engine} crashed at t={:.6}s", at_s)
            }
        }
    }
}

impl std::error::Error for QueueError {}

/// A scheduled mid-stream engine death: `engine` stops executing at `at_s`
/// (seconds on the DES clock, including setup). Any command on that engine
/// whose completion would land after `at_s` fails the schedule with
/// [`QueueError::EngineCrash`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineCrash {
    /// The engine that dies (0 = H2D copy, 1 = D2H copy, 2 = compute).
    pub engine: usize,
    /// Crash instant on the DES clock, seconds.
    pub at_s: f64,
}

/// One scheduled command: runs on an explicit engine for a given duration,
/// optionally waiting on another command (cross-queue event).
#[derive(Debug, Clone)]
pub struct ECmd {
    /// Engine id in `0..engines`.
    pub engine: usize,
    /// Duration, seconds.
    pub duration_s: f64,
    /// Label for the timeline (shared, cheap to clone per span).
    pub label: Arc<str>,
    /// Cross-queue event wait: `(queue, index)` of the prerequisite.
    pub wait: Option<(usize, usize)>,
    /// Transfer direction consulted by [`Des::fault`]: `Some(true)` for a
    /// host-to-device copy, `Some(false)` for device-to-host, `None` for a
    /// command no transfer fault can hit.
    pub h2d: Option<bool>,
}

impl ECmd {
    /// A command on `engine` with no event wait and no transfer direction.
    #[must_use]
    pub fn new(engine: usize, duration_s: f64, label: Arc<str>) -> Self {
        Self { engine, duration_s, label, wait: None, h2d: None }
    }
}

/// Lower device command queues onto the device's three engines (0 = H2D
/// copy, 1 = D2H copy or the shared copy engine, 2 = compute), pricing each
/// transfer on the device's PCIe link.
#[must_use]
pub fn lower(dev: &DeviceSpec, queues: &[Vec<QCmd>]) -> Vec<Vec<ECmd>> {
    queues
        .iter()
        .map(|q| {
            q.iter()
                .map(|c| ECmd {
                    engine: c.cmd.engine(dev),
                    duration_s: c.cmd.duration(dev),
                    label: c.cmd.label(),
                    wait: c.wait,
                    h2d: match c.cmd {
                        Cmd::H2D { .. } => Some(true),
                        Cmd::D2H { .. } => Some(false),
                        Cmd::Kernel { .. } => None,
                    },
                })
                .collect()
        })
        .collect()
}

/// Everything one DES run takes: the engine set, the up-front setup time,
/// the command queues, and the optional arrivals, transfer-fault source and
/// engine crash.
#[derive(Clone, Copy)]
pub struct Des<'a> {
    /// Number of engines; command engine ids must be below it.
    pub engines: usize,
    /// Up-front setup (queue creation) before any command may start.
    pub setup_s: f64,
    /// Command queues, each in order.
    pub queues: &'a [Vec<ECmd>],
    /// Per-queue arrival times: queue `q` may not start before
    /// `arrivals[q]`; missing entries mean "available at `setup_s`". The
    /// gap between a queue's arrival and its first span is its queue wait.
    pub arrivals: &'a [f64],
    /// Transfer fault source: when it fires on a command with a transfer
    /// direction, the schedule fails with [`QueueError::TransferFault`].
    pub fault: Option<&'a dyn FaultSource>,
    /// Mid-stream engine death (see [`EngineCrash`]).
    pub crash: Option<EngineCrash>,
}

impl<'a> Des<'a> {
    /// `queues` on `engines` engines after `setup_s`, with no arrivals,
    /// faults or crash.
    #[must_use]
    pub fn new(engines: usize, setup_s: f64, queues: &'a [Vec<ECmd>]) -> Self {
        Self { engines, setup_s, queues, arrivals: &[], fault: None, crash: None }
    }

    /// [`lower`]ed queues on `dev`: its three engines, with every queue
    /// paying the device's creation overhead up front (why throughput
    /// degrades for large queue counts, §7.6).
    #[must_use]
    pub fn device(dev: &DeviceSpec, queues: &'a [Vec<ECmd>]) -> Self {
        Self::new(3, dev.queue_create_overhead_s * queues.len() as f64, queues)
    }
}

/// Greedy in-order list scheduling of the spec's queues on its engines.
///
/// Semantics: command `i` of queue `q` becomes *ready* when command `i−1` of
/// the same queue finished (and its queue arrived, and its event wait
/// completed); each engine runs one command at a time; among ready commands
/// the earliest start wins, ties going to the lowest queue id (queue-major
/// round-robin, matching driver FIFO behaviour).
///
/// # Errors
/// [`QueueError::BadDependency`] for an out-of-range wait target or engine
/// id; [`QueueError::Deadlock`] when no queue can make progress;
/// [`QueueError::TransferFault`] when the fault source fires;
/// [`QueueError::EngineCrash`] when the crash preempts a command. Spans
/// that finished before a crash are trustworthy — a journaling caller may
/// treat them as durable.
pub fn simulate(des: &Des<'_>) -> Result<Timeline, QueueError> {
    let Des { engines, setup_s, queues, arrivals, fault, crash } = *des;
    let mut engine_free = vec![setup_s; engines];
    let mut queue_ready: Vec<f64> = (0..queues.len())
        .map(|q| setup_s.max(arrivals.get(q).copied().unwrap_or(setup_s)))
        .collect();
    let mut next_idx: Vec<usize> = vec![0; queues.len()];
    let mut end_time: Vec<Vec<Option<f64>>> =
        queues.iter().map(|q| vec![None; q.len()]).collect();
    let mut spans = Vec::new();
    let total_cmds: usize = queues.iter().map(Vec::len).sum();

    for _ in 0..total_cmds {
        // Candidate head commands whose event dependency is satisfied.
        let mut best: Option<(f64, usize)> = None; // (start_time, queue)
        for (q, cmds) in queues.iter().enumerate() {
            let i = next_idx[q];
            if i >= cmds.len() {
                continue;
            }
            if cmds[i].engine >= engines {
                return Err(QueueError::BadDependency { queue: q, index: i });
            }
            let dep_end = match cmds[i].wait {
                None => setup_s,
                Some((dq, di)) => {
                    if dq >= queues.len() || di >= queues[dq].len() {
                        return Err(QueueError::BadDependency { queue: q, index: i });
                    }
                    match end_time[dq][di] {
                        Some(t) => t,
                        None => continue, // prerequisite not yet scheduled
                    }
                }
            };
            let start = queue_ready[q].max(engine_free[cmds[i].engine]).max(dep_end);
            if best.is_none_or(|(bs, bq)| start < bs || (start == bs && q < bq)) {
                best = Some((start, q));
            }
        }
        let (start, q) = best.ok_or(QueueError::Deadlock)?;
        let i = next_idx[q];
        let cmd = &queues[q][i];
        if let (Some(f), Some(h2d)) = (fault, cmd.h2d) {
            if f.on_transfer(h2d, q, i) {
                return Err(QueueError::TransferFault {
                    queue: q,
                    index: i,
                    h2d,
                    label: cmd.label.clone(),
                });
            }
        }
        let end = start + cmd.duration_s;
        if let Some(c) = crash {
            if cmd.engine == c.engine && end > c.at_s {
                return Err(QueueError::EngineCrash { engine: c.engine, at_s: c.at_s });
            }
        }
        spans.push(Span {
            queue: q,
            index: i,
            engine: cmd.engine,
            start_s: start,
            end_s: end,
            label: cmd.label.clone(),
        });
        engine_free[cmd.engine] = end;
        queue_ready[q] = end;
        end_time[q][i] = Some(end);
        next_idx[q] += 1;
    }

    let total_s = spans.iter().map(|s| s.end_s).fold(setup_s, f64::max);
    Ok(Timeline { spans, total_s, setup_s })
}

/// One shard's DES load for [`try_simulate_shards_at`]: its command queues
/// and per-queue arrival times (same conventions as [`Des::arrivals`]).
#[derive(Debug, Clone, Copy)]
pub struct ShardLoad<'a> {
    /// Command queues, one per batch.
    pub queues: &'a [Vec<ECmd>],
    /// Per-queue arrival times; missing entries mean "available at setup".
    pub arrivals: &'a [f64],
}

/// Timelines of a fleet round: one [`Timeline`] per shard plus the
/// fleet-wide makespan.
#[derive(Debug, Clone)]
pub struct FleetTimeline {
    /// Per-shard timelines, in [`try_simulate_shards_at`] input order.
    pub shards: Vec<Timeline>,
    /// Fleet makespan: the latest shard completion (`setup_s` when every
    /// shard is idle).
    pub makespan_s: f64,
}

/// Simulate several shards' rounds at once. Each shard owns an independent
/// block of `num_engines` engines — shards never contend with each other,
/// only their own queues do — so per-shard timelines are identical to
/// [`simulate`] per shard, and the fleet makespan is their max.
///
/// # Errors
/// The first shard's [`QueueError`], in input order.
pub fn try_simulate_shards_at(
    num_engines: usize,
    setup_s: f64,
    shards: &[ShardLoad<'_>],
) -> Result<FleetTimeline, QueueError> {
    let mut timelines = Vec::with_capacity(shards.len());
    let mut makespan_s = setup_s;
    for shard in shards {
        let des = Des { arrivals: shard.arrivals, ..Des::new(num_engines, setup_s, shard.queues) };
        let t = simulate(&des)?;
        makespan_s = makespan_s.max(t.total_s);
        timelines.push(t);
    }
    Ok(FleetTimeline { shards: timelines, makespan_s })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn kernel(t: f64) -> Cmd {
        Cmd::Kernel { time_s: t, name: "k".into() }
    }

    /// Device queues without event waits, faults or crash.
    fn run_device(dev: &DeviceSpec, queues: &[Vec<Cmd>]) -> Timeline {
        let wrapped: Vec<Vec<QCmd>> =
            queues.iter().map(|q| q.iter().cloned().map(QCmd::plain).collect()).collect();
        run_device_crash(dev, &wrapped, None).unwrap()
    }

    fn run_device_crash(
        dev: &DeviceSpec,
        queues: &[Vec<QCmd>],
        crash: Option<EngineCrash>,
    ) -> Result<Timeline, QueueError> {
        let lowered = lower(dev, queues);
        simulate(&Des { crash, ..Des::device(dev, &lowered) })
    }

    fn x(engine: usize, duration_s: f64) -> Vec<ECmd> {
        vec![ECmd::new(engine, duration_s, "x".into())]
    }

    #[test]
    fn single_queue_serialises() {
        let dev = DeviceSpec::tesla_k20();
        let mb = 10.0 * 1e6;
        let q = vec![Cmd::H2D { bytes: mb }, kernel(0.004), Cmd::D2H { bytes: mb }];
        let tl = run_device(&dev, &[q]);
        let t_copy = dev.pcie.transfer_time(mb);
        let expect = dev.queue_create_overhead_s + t_copy + 0.004 + t_copy;
        assert!((tl.total_s - expect).abs() < 1e-9, "{} vs {expect}", tl.total_s);
    }

    #[test]
    fn two_queues_overlap_compute_and_copy() {
        let dev = DeviceSpec::tesla_k20();
        // Queue 0: long kernel; queue 1: D2H copy — different engines, so
        // they overlap and the makespan is max, not sum.
        let t_copy = dev.pcie.transfer_time(50e6);
        let tl = run_device(&dev, &[vec![kernel(0.02)], vec![Cmd::D2H { bytes: 50e6 }]]);
        let expect = tl.setup_s + 0.02f64.max(t_copy);
        assert!((tl.total_s - expect).abs() < 1e-9);
    }

    #[test]
    fn same_engine_commands_serialise_across_queues() {
        let dev = DeviceSpec::tesla_k20();
        let tl = run_device(&dev, &[vec![kernel(0.01)], vec![kernel(0.01)]]);
        assert!((tl.total_s - (tl.setup_s + 0.02)).abs() < 1e-9);
    }

    #[test]
    fn h2d_d2h_overlap_only_with_two_copy_engines() {
        let k20 = DeviceSpec::tesla_k20(); // 2 copy engines
        let gtx = DeviceSpec::gtx580(); // 1 copy engine
        let queues = vec![vec![Cmd::H2D { bytes: 50e6 }], vec![Cmd::D2H { bytes: 50e6 }]];
        let t = k20.pcie.transfer_time(50e6);
        let tl_k20 = run_device(&k20, &queues);
        assert!((tl_k20.total_s - (tl_k20.setup_s + t)).abs() < 1e-9, "overlapped");
        let t_gtx = gtx.pcie.transfer_time(50e6);
        let tl_gtx = run_device(&gtx, &queues);
        assert!((tl_gtx.total_s - (tl_gtx.setup_s + 2.0 * t_gtx)).abs() < 1e-9, "serialised");
    }

    #[test]
    fn queue_creation_overhead_scales() {
        let dev = DeviceSpec::tesla_k20();
        let one = run_device(&dev, &[vec![kernel(0.001)]]);
        let many = run_device(&dev, &(0..16).map(|_| vec![kernel(0.001)]).collect::<Vec<_>>());
        assert!(many.setup_s > one.setup_s * 10.0);
    }

    #[test]
    fn in_order_within_queue() {
        let dev = DeviceSpec::tesla_k20();
        let tl = run_device(&dev, &[vec![kernel(0.01), Cmd::D2H { bytes: 1e6 }]]);
        // D2H must start after the kernel even though engines differ.
        assert!(tl.spans[1].start_s >= tl.spans[0].end_s - 1e-12);
    }

    #[test]
    fn gantt_renders_lanes() {
        let dev = DeviceSpec::tesla_k20();
        let tl = run_device(
            &dev,
            &[vec![Cmd::H2D { bytes: 10e6 }, kernel(0.004), Cmd::D2H { bytes: 10e6 }]],
        );
        let g = tl.gantt(40, &["H2D", "D2H", "GPU"]);
        assert_eq!(g.lines().count(), 4, "3 engine lanes + axis");
        assert!(g.contains("H2D |"));
        assert!(g.contains('0'), "queue id marks spans");
    }

    #[test]
    fn generic_engines_overlap_and_serialise() {
        // Two queues on distinct engines overlap; same engine serialises.
        let tl = simulate(&Des::new(2, 0.0, &[x(0, 1.0), x(1, 1.0)])).unwrap();
        assert!((tl.total_s - 1.0).abs() < 1e-12, "distinct engines overlap");
        let tl = simulate(&Des::new(2, 0.0, &[x(0, 1.0), x(0, 1.0)])).unwrap();
        assert!((tl.total_s - 2.0).abs() < 1e-12, "same engine serialises");
    }

    #[test]
    fn generic_engines_honour_dependencies() {
        let queues = vec![
            vec![ECmd::new(0, 1.0, "a".into())],
            vec![ECmd { wait: Some((0, 0)), ..ECmd::new(1, 1.0, "b".into()) }],
        ];
        let tl = simulate(&Des::new(2, 0.0, &queues)).unwrap();
        assert!((tl.total_s - 2.0).abs() < 1e-12, "b waits for a despite free engine");
    }

    #[test]
    fn arrivals_delay_queues_and_expose_waits() {
        let at = |engines, setup_s, queues: &[Vec<ECmd>], arrivals| {
            simulate(&Des { arrivals, ..Des::new(engines, setup_s, queues) }).unwrap()
        };
        // Same engine, second queue arrives at t=0.25: it still waits for
        // the engine (start 1.0), so its queue wait is 0.75.
        let tl = at(1, 0.0, &[x(0, 1.0), x(0, 1.0)], &[0.0, 0.25]);
        assert!((tl.total_s - 2.0).abs() < 1e-12);
        assert!((tl.queue_start_s(1).unwrap() - 1.0).abs() < 1e-12);
        // Distinct engines, late arrival dominates: starts exactly on arrival.
        let tl = at(2, 0.0, &[x(0, 1.0), x(1, 1.0)], &[0.0, 0.5]);
        assert!((tl.queue_start_s(1).unwrap() - 0.5).abs() < 1e-12);
        assert!((tl.total_s - 1.5).abs() < 1e-12);
        // Arrivals at or before setup → identical to no arrivals.
        let a = simulate(&Des::new(2, 0.1, &[x(0, 1.0), x(1, 1.0)])).unwrap();
        let b = at(2, 0.1, &[x(0, 1.0), x(1, 1.0)], &[0.0, 0.1]);
        assert_eq!(a.total_s, b.total_s);
        // An empty queue has no first span.
        assert_eq!(tl.queue_start_s(7), None);
    }

    #[test]
    fn pipelined_chunks_beat_sync() {
        // The §7.6 shape: splitting kernel+D2H into Q chunks over Q queues
        // shortens the makespan vs one queue, until overhead wins.
        let dev = DeviceSpec::tesla_k20();
        let total_kernel = 0.004;
        let total_bytes = 51.8e6;
        let sync = run_device(
            &dev,
            &[vec![kernel(total_kernel), Cmd::D2H { bytes: total_bytes }]],
        );
        let q = 4;
        let chunks: Vec<Vec<Cmd>> = (0..q)
            .map(|_| {
                vec![
                    kernel(total_kernel / q as f64),
                    Cmd::D2H { bytes: total_bytes / q as f64 },
                ]
            })
            .collect();
        let asy = run_device(&dev, &chunks);
        assert!(asy.total_s < sync.total_s, "async {} < sync {}", asy.total_s, sync.total_s);
    }

    #[test]
    fn engine_crash_preempts_inflight_command() {
        let dev = DeviceSpec::tesla_k20();
        let queues: Vec<Vec<QCmd>> = vec![vec![
            QCmd::plain(Cmd::H2D { bytes: 10e6 }),
            QCmd::plain(kernel(0.004)),
            QCmd::plain(Cmd::D2H { bytes: 10e6 }),
        ]];
        let healthy = run_device_crash(&dev, &queues, None).unwrap();
        // Crash the D2H engine just before the final copy completes.
        let crash = EngineCrash { engine: 1, at_s: healthy.total_s - 1e-6 };
        let err = run_device_crash(&dev, &queues, Some(crash)).unwrap_err();
        assert_eq!(err, QueueError::EngineCrash { engine: 1, at_s: crash.at_s });
        // A crash after the makespan never fires.
        let late = EngineCrash { engine: 1, at_s: healthy.total_s + 1.0 };
        let tl = run_device_crash(&dev, &queues, Some(late)).unwrap();
        assert_eq!(tl.spans.len(), 3);
        // A crash on an unused engine never fires either.
        let other = EngineCrash { engine: 1, at_s: 0.0 };
        let compute_only: Vec<Vec<QCmd>> = vec![vec![QCmd::plain(kernel(0.01))]];
        assert!(run_device_crash(&dev, &compute_only, Some(other)).is_ok());
    }

    #[test]
    fn crash_none_matches_plain_dep_simulation() {
        let dev = DeviceSpec::tesla_k20();
        let queues: Vec<Vec<QCmd>> = vec![
            vec![QCmd::plain(Cmd::H2D { bytes: 5e6 }), QCmd::plain(kernel(0.002))],
            vec![QCmd::after(kernel(0.003), 0, 1), QCmd::plain(Cmd::D2H { bytes: 5e6 })],
        ];
        let lowered = lower(&dev, &queues);
        let a = simulate(&Des::device(&dev, &lowered)).unwrap();
        let late = EngineCrash { engine: 2, at_s: f64::INFINITY };
        let b = run_device_crash(&dev, &queues, Some(late)).unwrap();
        assert_eq!(a.total_s, b.total_s);
        assert_eq!(a.spans.len(), b.spans.len());
    }

    #[test]
    fn shard_timelines_match_independent_runs() {
        let s0 = [x(0, 1.0), x(0, 2.0)];
        let a0 = [0.0, 0.5];
        let s1 = [x(1, 4.0)];
        let a1 = [0.25];
        let fleet = try_simulate_shards_at(
            2,
            0.1,
            &[
                ShardLoad { queues: &s0, arrivals: &a0 },
                ShardLoad { queues: &s1, arrivals: &a1 },
            ],
        )
        .unwrap();
        // Shards own independent engine blocks: each timeline equals the
        // single-shard simulation of its own load.
        let solo0 = simulate(&Des { arrivals: &a0, ..Des::new(2, 0.1, &s0) }).unwrap();
        let solo1 = simulate(&Des { arrivals: &a1, ..Des::new(2, 0.1, &s1) }).unwrap();
        assert_eq!(fleet.shards.len(), 2);
        assert_eq!(fleet.shards[0].total_s, solo0.total_s);
        assert_eq!(fleet.shards[1].total_s, solo1.total_s);
        assert_eq!(fleet.shards[0].spans.len(), solo0.spans.len());
        // Makespan is the max shard completion.
        assert_eq!(fleet.makespan_s, solo0.total_s.max(solo1.total_s));
    }

    #[test]
    fn idle_fleet_makespan_is_setup_and_errors_propagate() {
        let fleet = try_simulate_shards_at(1, 0.3, &[]).unwrap();
        assert!(fleet.shards.is_empty());
        assert_eq!(fleet.makespan_s, 0.3);
        // A bad engine index in any shard fails the whole call.
        let bad = [x(9, 1.0)];
        let err = try_simulate_shards_at(
            1,
            0.0,
            &[ShardLoad { queues: &bad, arrivals: &[] }],
        )
        .unwrap_err();
        assert!(matches!(err, QueueError::BadDependency { queue: 0, index: 0 }));
    }
}

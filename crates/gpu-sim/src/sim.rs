//! The simulator facade: a device plus its global memory, with a bump
//! allocator, typed upload/download, and kernel launch.
//!
//! Launch-time robustness knobs live here too: an armed fault source
//! (single-shot [`FaultPlan`] or sustained [`ChaosPlan`]), a warp
//! [`SchedPolicy`], and a liveness [`Watchdog`] — all consulted by every
//! subsequent launch so higher layers (pipelines, recovery) compose with
//! them without touching each kernel call site.

use crate::device::DeviceSpec;
use crate::exec::{launch, EngineMode, Kernel, LaunchConfig, LaunchError};
use crate::fault::{ChaosPlan, FaultPlan, FaultRecord, FaultSource};
use crate::mem::{Buffer, GlobalMem, MemTraffic, TrafficSnapshot};
use crate::report::KernelStats;
use crate::sched::{mix64, PctScheduler, Scheduler, Watchdog};
use ipt_obs::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which warp scheduler a [`Sim`] uses for its launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// The historic deterministic round-robin interleaving (fast path).
    RoundRobin,
    /// Seeded PCT-style randomized priorities with `depth` priority-change
    /// points per launch. Each launch derives its own sub-seed from the
    /// policy seed and a per-sim launch counter, so a whole pipeline run
    /// is reproducible from one number.
    Pct {
        /// Campaign seed the per-launch schedules derive from.
        seed: u64,
        /// Priority-change points (preemption budget) per launch.
        depth: usize,
    },
}

impl SchedPolicy {
    /// Human/provenance label, e.g. `"round-robin"` or `"pct(seed=7,d=3)"`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SchedPolicy::RoundRobin => "round-robin".into(),
            SchedPolicy::Pct { seed, depth } => format!("pct(seed={seed},d={depth})"),
        }
    }
}

/// One simulated accelerator: device model + on-board memory.
pub struct Sim {
    device: DeviceSpec,
    mem: GlobalMem,
    cursor: usize,
    fault: Option<FaultPlan>,
    chaos: Option<ChaosPlan>,
    sched: SchedPolicy,
    watchdog: Option<Watchdog>,
    engine: EngineMode,
    launch_seq: AtomicU64,
    traffic: MemTraffic,
}

impl Sim {
    /// Create a simulator with `capacity_words` of on-board memory.
    #[must_use]
    pub fn new(device: DeviceSpec, capacity_words: usize) -> Self {
        Self {
            device,
            mem: GlobalMem::new(capacity_words),
            cursor: 0,
            fault: None,
            chaos: None,
            sched: SchedPolicy::RoundRobin,
            watchdog: None,
            engine: EngineMode::Serial,
            launch_seq: AtomicU64::new(0),
            traffic: MemTraffic::default(),
        }
    }

    /// The device model.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Raw global memory (kernels normally go through buffers).
    #[must_use]
    pub fn mem(&self) -> &GlobalMem {
        &self.mem
    }

    /// Words still allocatable.
    #[must_use]
    pub fn free_words(&self) -> usize {
        self.mem.len() - self.cursor
    }

    /// Arm a fault plan: subsequent launches inject its fault (once).
    /// Disarms any chaos campaign — the two are mutually exclusive.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.chaos = None;
        self.fault = Some(plan);
    }

    /// The armed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Disarm and return the fault plan.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// Arm a sustained chaos campaign: subsequent launches (and DES
    /// transfers routed through [`Sim::fault_source`]) draw from its seeded
    /// rate-driven fault stream. Disarms any single-shot fault plan.
    pub fn set_chaos_plan(&mut self, plan: ChaosPlan) {
        self.fault = None;
        self.chaos = Some(plan);
    }

    /// The armed chaos campaign, if any.
    #[must_use]
    pub fn chaos_plan(&self) -> Option<&ChaosPlan> {
        self.chaos.as_ref()
    }

    /// Disarm and return the chaos campaign.
    pub fn take_chaos_plan(&mut self) -> Option<ChaosPlan> {
        self.chaos.take()
    }

    /// The active fault source for launches and transfers: the chaos
    /// campaign when armed, else the single-shot plan, else `None`.
    #[must_use]
    pub fn fault_source(&self) -> Option<&dyn FaultSource> {
        match (&self.chaos, &self.fault) {
            (Some(c), _) => Some(c as &dyn FaultSource),
            (None, Some(f)) => Some(f as &dyn FaultSource),
            (None, None) => None,
        }
    }

    /// Select the warp-scheduling policy for subsequent launches.
    pub fn set_sched_policy(&mut self, policy: SchedPolicy) {
        self.sched = policy;
    }

    /// Select the host execution engine for subsequent launches. Parallel
    /// mode only engages for [`crate::exec::Coordination::WgLocal`] and
    /// [`crate::exec::Coordination::CrossWgClaims`] kernels launched
    /// round-robin with no fault source or watchdog; everything else falls
    /// back to serial, and results are bit-identical either way.
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        self.engine = mode;
    }

    /// The current host execution engine.
    #[must_use]
    pub fn engine_mode(&self) -> EngineMode {
        self.engine
    }

    /// The current warp-scheduling policy.
    #[must_use]
    pub fn sched_policy(&self) -> SchedPolicy {
        self.sched
    }

    /// Arm (or, with `None`, disarm) a liveness watchdog for subsequent
    /// launches: hung kernels surface as [`LaunchError::Stalled`] instead
    /// of spinning forever.
    pub fn set_watchdog(&mut self, wd: Option<Watchdog>) {
        self.watchdog = wd;
    }

    /// The armed watchdog, if any.
    #[must_use]
    pub fn watchdog(&self) -> Option<Watchdog> {
        self.watchdog
    }

    /// Records of faults that fired on this simulator so far (from either
    /// the single-shot plan or the chaos campaign).
    #[must_use]
    pub fn fault_records(&self) -> Vec<FaultRecord> {
        let mut out = self.fault.as_ref().map(FaultPlan::records).unwrap_or_default();
        if let Some(c) = &self.chaos {
            out.extend(c.records());
        }
        out
    }

    /// Allocate a buffer of `words` if they fit, without panicking — the
    /// graceful-degradation path (e.g. an out-of-place fallback that needs
    /// 2× memory and must *politely* discover it cannot have it).
    pub fn try_alloc(&mut self, words: usize) -> Option<Buffer> {
        if self.cursor + words > self.mem.len() {
            return None;
        }
        let b = Buffer { base: self.cursor, len: words };
        self.cursor += words;
        Some(b)
    }

    /// Allocate a buffer of `words` (bump allocator; no free).
    ///
    /// # Panics
    /// Panics when on-board memory is exhausted — mirroring a real
    /// out-of-memory, which is precisely the constraint that motivates
    /// in-place transposition.
    pub fn alloc(&mut self, words: usize) -> Buffer {
        assert!(
            self.cursor + words <= self.mem.len(),
            "device OOM: want {words} words, {} free (capacity {})",
            self.free_words(),
            self.mem.len()
        );
        let b = Buffer { base: self.cursor, len: words };
        self.cursor += words;
        b
    }

    /// Upload u32 data into `buf`.
    ///
    /// # Panics
    /// Panics if `data.len() > buf.len`.
    pub fn upload_u32(&self, buf: Buffer, data: &[u32]) {
        assert!(data.len() <= buf.len);
        self.traffic.add_h2d(data.len() as u64 * 4);
        self.mem.write_run(buf.base, data);
    }

    /// Upload f32 data (as bit patterns) into `buf`.
    pub fn upload_f32(&self, buf: Buffer, data: &[f32]) {
        assert!(data.len() <= buf.len);
        self.traffic.add_h2d(data.len() as u64 * 4);
        let bits: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        self.mem.write_run(buf.base, &bits);
    }

    /// Download `buf` as u32.
    #[must_use]
    pub fn download_u32(&self, buf: Buffer) -> Vec<u32> {
        self.traffic.add_d2h(buf.len as u64 * 4);
        let mut out = vec![0u32; buf.len];
        self.mem.read_run(buf.base, &mut out);
        out
    }

    /// Download `buf` as f32.
    #[must_use]
    pub fn download_f32(&self, buf: Buffer) -> Vec<f32> {
        self.traffic.add_d2h(buf.len as u64 * 4);
        let mut bits = vec![0u32; buf.len];
        self.mem.read_run(buf.base, &mut bits);
        bits.into_iter().map(f32::from_bits).collect()
    }

    /// Zero a buffer (host-side initialisation of flag arrays).
    pub fn zero(&self, buf: Buffer) {
        self.traffic.add_memset(buf.len as u64 * 4);
        self.mem.fill_run(buf.base, buf.len, 0);
    }

    /// Host↔device traffic meters accumulated so far.
    #[must_use]
    pub fn traffic(&self) -> TrafficSnapshot {
        self.traffic.snapshot()
    }

    /// Replay the traffic meters onto a recorder under `scope`.
    pub fn record_traffic<R: Recorder>(&self, rec: &R, scope: &str) {
        self.traffic.record(rec, scope);
    }

    /// Build the scheduler instance for the next launch under the current
    /// policy (`None` = round-robin fast path), bumping the launch counter
    /// so each PCT launch gets its own derived sub-seed.
    fn next_sched(&self) -> Option<Box<dyn Scheduler>> {
        let seq = self.launch_seq.fetch_add(1, Ordering::SeqCst);
        match self.sched {
            SchedPolicy::RoundRobin => None,
            SchedPolicy::Pct { seed, depth } => {
                Some(Box::new(PctScheduler::new(mix64(seed, seq), depth)))
            }
        }
    }

    /// Launch a kernel under the sim's scheduling policy, watchdog, engine
    /// mode and armed fault source (if any), recording onto `rec`; `t0_s`
    /// is the launch's start on the cumulative DES clock.
    ///
    /// # Errors
    /// Propagates [`LaunchError`] for infeasible launches,
    /// [`LaunchError::Aborted`] when an armed fault source kills the
    /// kernel, or [`LaunchError::Stalled`] when the watchdog trips.
    pub fn launch<K: Kernel, R: Recorder>(
        &self,
        kernel: &K,
        rec: &R,
        t0_s: f64,
    ) -> Result<KernelStats, LaunchError> {
        let mut sched = self.next_sched();
        launch(
            &self.device,
            &self.mem,
            kernel,
            LaunchConfig {
                fault: self.fault_source(),
                sched: sched.as_deref_mut().map(|s| s as &mut dyn Scheduler),
                watchdog: self.watchdog,
                engine: self.engine,
            },
            rec,
            t0_s,
        )
    }

    /// Launch a kernel under an explicit caller-owned [`Scheduler`] —
    /// the entry point schedule exploration drives with replay/trace
    /// schedulers. The sim's policy is bypassed (its watchdog and fault
    /// source still apply).
    ///
    /// # Errors
    /// Same as [`Sim::launch`].
    pub fn launch_sched<K: Kernel>(
        &self,
        kernel: &K,
        sched: &mut dyn Scheduler,
    ) -> Result<KernelStats, LaunchError> {
        launch(
            &self.device,
            &self.mem,
            kernel,
            LaunchConfig {
                fault: self.fault_source(),
                sched: Some(sched),
                watchdog: self.watchdog,
                engine: EngineMode::Serial,
            },
            &ipt_obs::NoopRecorder,
            0.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Grid, Step, WarpCtx};
    use crate::lanes::{LaneAddrs, LaneWrites};

    /// Toy kernel: each thread increments its element (grid-stride).
    struct IncKernel {
        buf: Buffer,
        n: usize,
        wgs: usize,
        wg_size: usize,
    }

    struct IncState {
        next: usize,
    }

    impl Kernel for IncKernel {
        type State = IncState;

        fn name(&self) -> String {
            "inc".into()
        }

        fn grid(&self) -> Grid {
            Grid { num_wgs: self.wgs, wg_size: self.wg_size }
        }

        fn init(&self, wg_id: usize, warp_id: usize) -> IncState {
            let _ = warp_id;
            IncState { next: wg_id }
        }

        fn step(&self, st: &mut IncState, ctx: &mut WarpCtx<'_>) -> Step {
            // Each WG strides over chunks of wg_size; warps cover their slice.
            let base = st.next * ctx.wg_size + ctx.warp_id * 32;
            if base >= self.n && st.next >= ctx.num_wgs {
                return Step::Done;
            }
            let addrs = LaneAddrs::from_fn(ctx.lanes, |l| {
                let idx = base + l;
                (idx < self.n).then_some(idx)
            });
            let vals = ctx.global_read(self.buf, &addrs);
            let writes = LaneWrites::from_fn(ctx.lanes, |l| {
                addrs.get(l).map(|a| (a, vals.get(l) + 1))
            });
            ctx.global_write(self.buf, &writes);
            st.next += ctx.num_wgs;
            if st.next * ctx.wg_size + ctx.warp_id * 32 >= self.n {
                Step::Done
            } else {
                Step::Continue
            }
        }
    }

    #[test]
    fn alloc_and_roundtrip() {
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), 1024);
        let b = sim.alloc(100);
        let data: Vec<u32> = (0..100).collect();
        sim.upload_u32(b, &data);
        assert_eq!(sim.download_u32(b), data);
        assert_eq!(sim.free_words(), 924);
    }

    #[test]
    #[should_panic(expected = "device OOM")]
    fn oom_panics() {
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), 10);
        let _ = sim.alloc(11);
    }

    #[test]
    fn f32_roundtrip() {
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), 64);
        let b = sim.alloc(4);
        sim.upload_f32(b, &[1.5, -2.25, 0.0, 3.0e7]);
        assert_eq!(sim.download_f32(b), vec![1.5, -2.25, 0.0, 3.0e7]);
    }

    #[test]
    fn toy_kernel_increments_everything() {
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), 4096);
        let n = 3000;
        let b = sim.alloc(n);
        let data: Vec<u32> = (0..n as u32).collect();
        sim.upload_u32(b, &data);
        let k = IncKernel { buf: b, n, wgs: 8, wg_size: 64 };
        let stats = sim.launch(&k, &ipt_obs::NoopRecorder, 0.0).unwrap();
        let got = sim.download_u32(b);
        let want: Vec<u32> = data.iter().map(|v| v + 1).collect();
        assert_eq!(got, want);
        assert!(stats.time_s > 0.0);
        assert!(stats.dram_bytes >= (n * 8) as f64, "read+write traffic");
        // Contiguous access per warp → perfect-ish coalescing.
        assert!(stats.coalescing_efficiency() > 0.9, "{}", stats.coalescing_efficiency());
    }

    #[test]
    fn strided_access_wastes_bandwidth() {
        // Same kernel but with a stride access pattern via a modified index
        // map is covered in exec-level tests in ipt-gpu; here just assert
        // the stats plumbing exists.
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), 512);
        let b = sim.alloc(256);
        let k = IncKernel { buf: b, n: 256, wgs: 2, wg_size: 64 };
        let stats = sim.launch(&k, &ipt_obs::NoopRecorder, 0.0).unwrap();
        assert_eq!(stats.name, "inc");
        assert!(stats.gld_transactions > 0 && stats.gst_transactions > 0);
    }
}

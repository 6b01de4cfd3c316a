//! Engine-level scheduler integration: the scheduled path's round-robin
//! bit-identity with the fast path, PCT seed determinism, watchdog
//! liveness conversion, and chaos-campaign determinism through [`Sim`].

use gpu_sim::{
    Buffer, ChaosConfig, ChaosPlan, DeviceSpec, Grid, Kernel, LaneAddrs, LaneWrites, LaunchError,
    RoundRobin, SchedPolicy, Sim, Step, Watchdog, WarpCtx,
};

/// A contended toy kernel: every warp pushes `per_warp` increments into a
/// shared accumulator word with global atomics, then records its own
/// completion in a per-warp slot. The final memory image is schedule-
/// independent, but the *path* to it exercises atomics, reads, and writes
/// — the events schedulers key on.
struct AtomicAddKernel {
    acc: Buffer,
    done: Buffer,
    wgs: usize,
    wg_size: usize,
    per_warp: usize,
}

struct AddState {
    sent: usize,
}

impl Kernel for AtomicAddKernel {
    type State = AddState;

    fn name(&self) -> String {
        "atomic-add".into()
    }

    fn grid(&self) -> Grid {
        Grid { num_wgs: self.wgs, wg_size: self.wg_size }
    }

    fn init(&self, _wg_id: usize, _warp_id: usize) -> AddState {
        AddState { sent: 0 }
    }

    fn step(&self, st: &mut AddState, ctx: &mut WarpCtx<'_>) -> Step {
        if st.sent < self.per_warp {
            // atom_or on disjoint bits of a shared word models the claim
            // traffic of the real kernels (one touchpoint per slice).
            let bit = 1u32 << ((st.sent + ctx.wg_id + ctx.warp_id) % 32);
            let ops = LaneWrites::from_fn(1, |_| Some((0, bit)));
            let _ = ctx.global_atomic_or(self.acc, &ops);
            st.sent += 1;
            return Step::Continue;
        }
        let slot = ctx.wg_id * ctx.wg_size.div_ceil(ctx.device().simd_width) + ctx.warp_id;
        let w = LaneWrites::from_fn(1, |_| Some((slot, 1u32)));
        ctx.global_write(self.done, &w);
        Step::Done
    }
}

/// A kernel that never finishes: the watchdog's prey.
struct SpinKernel {
    buf: Buffer,
}

impl Kernel for SpinKernel {
    type State = ();

    fn name(&self) -> String {
        "spin-forever".into()
    }

    fn grid(&self) -> Grid {
        Grid { num_wgs: 1, wg_size: 64 }
    }

    fn init(&self, _wg_id: usize, _warp_id: usize) {}

    fn step(&self, _st: &mut (), ctx: &mut WarpCtx<'_>) -> Step {
        let addr = LaneAddrs::from_fn(1, |_| Some(0));
        let _ = ctx.global_read(self.buf, &addr);
        Step::Continue
    }
}

fn fresh(policy: SchedPolicy) -> (Sim, AtomicAddKernel) {
    let mut sim = Sim::new(DeviceSpec::tesla_k20(), 256);
    sim.set_sched_policy(policy);
    let acc = sim.alloc(8);
    let done = sim.alloc(64);
    sim.zero(acc);
    sim.zero(done);
    (sim, AtomicAddKernel { acc, done, wgs: 4, wg_size: 64, per_warp: 9 })
}

#[test]
fn scheduled_round_robin_is_bit_identical_to_fast_path() {
    // Fast path: no scheduler object at all.
    let (fast_sim, fast_k) = fresh(SchedPolicy::RoundRobin);
    let fast_stats = fast_sim.launch(&fast_k, &ipt_obs::NoopRecorder, 0.0).expect("fast path");
    let fast_mem = (fast_sim.download_u32(fast_k.acc), fast_sim.download_u32(fast_k.done));

    // Scheduled path: an explicit RoundRobin through the scheduler plumbing.
    let (sched_sim, sched_k) = fresh(SchedPolicy::RoundRobin);
    let mut rr = RoundRobin;
    let sched_stats = sched_sim.launch_sched(&sched_k, &mut rr).expect("scheduled path");
    let sched_mem = (sched_sim.download_u32(sched_k.acc), sched_sim.download_u32(sched_k.done));

    assert_eq!(fast_mem, sched_mem, "memory images must match bit for bit");
    assert!(
        (fast_stats.time_s - sched_stats.time_s).abs() < 1e-15,
        "simulated clocks diverged: fast {} vs scheduled {}",
        fast_stats.time_s,
        sched_stats.time_s
    );
    assert_eq!(fast_stats.gld_transactions, sched_stats.gld_transactions);
    assert_eq!(fast_stats.gst_transactions, sched_stats.gst_transactions);
}

#[test]
fn pct_policy_same_seed_same_execution() {
    let run = |seed| {
        let (sim, k) = fresh(SchedPolicy::Pct { seed, depth: 3 });
        let stats = sim.launch(&k, &ipt_obs::NoopRecorder, 0.0).expect("pct launch");
        (sim.download_u32(k.acc), sim.download_u32(k.done), stats.time_s)
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same seed must replay the same schedule");
    // A different seed still converges to the same (schedule-independent)
    // final memory — PCT perturbs the path, not the result.
    let c = run(8);
    assert_eq!(a.0, c.0);
    assert_eq!(a.1, c.1);
}

#[test]
fn pct_policy_label_carries_provenance() {
    let mut sim = Sim::new(DeviceSpec::tesla_k20(), 64);
    assert_eq!(sim.sched_policy().label(), "round-robin");
    sim.set_sched_policy(SchedPolicy::Pct { seed: 11, depth: 4 });
    assert_eq!(sim.sched_policy().label(), "pct(seed=11,d=4)");
}

#[test]
fn watchdog_converts_livelock_into_typed_stall() {
    let mut sim = Sim::new(DeviceSpec::tesla_k20(), 64);
    let buf = sim.alloc(8);
    sim.set_watchdog(Some(Watchdog::per_warp(40)));
    match sim.launch(&SpinKernel { buf }, &ipt_obs::NoopRecorder, 0.0) {
        Err(LaunchError::Stalled { kernel, lane, steps }) => {
            assert_eq!(kernel, "spin-forever");
            assert!(lane < 2, "one WG of 2 warps; got lane {lane}");
            assert!(steps > 40, "budget was 40, trip at {steps}");
        }
        other => panic!("expected Stalled, got {other:?}"),
    }

    // Total-step budget trips too, naming the busiest warp.
    sim.set_watchdog(Some(Watchdog::new(u64::MAX, 64)));
    assert!(matches!(
        sim.launch(&SpinKernel { buf }, &ipt_obs::NoopRecorder, 0.0),
        Err(LaunchError::Stalled { .. })
    ));

    // Disarmed + finite kernel: unaffected.
    sim.set_watchdog(None);
    let (ok_sim, k) = fresh(SchedPolicy::RoundRobin);
    assert!(ok_sim.launch(&k, &ipt_obs::NoopRecorder, 0.0).is_ok());
}

#[test]
fn chaos_campaign_is_deterministic_through_sim() {
    let run = |seed| {
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), 256);
        sim.set_chaos_plan(ChaosPlan::new(seed, ChaosConfig::harsh()));
        sim.set_sched_policy(SchedPolicy::Pct { seed, depth: 2 });
        let acc = sim.alloc(8);
        let done = sim.alloc(64);
        sim.zero(acc);
        sim.zero(done);
        let k = AtomicAddKernel { acc, done, wgs: 4, wg_size: 64, per_warp: 9 };
        let outcome = sim
            .launch(&k, &ipt_obs::NoopRecorder, 0.0)
            .map(|s| s.time_s)
            .map_err(|e| e.to_string());
        (outcome, sim.fault_records(), sim.download_u32(acc))
    };
    let a = run(3);
    let b = run(3);
    assert_eq!(a.0, b.0, "same campaign seed, same outcome");
    assert_eq!(a.1, b.1, "same campaign seed, same fault stream");
    assert_eq!(a.2, b.2, "same campaign seed, same memory");
    let c = run(4);
    assert_ne!(a.1, c.1, "different seed should draw a different stream");
}

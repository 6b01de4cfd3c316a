//! Engine-level integration tests: crafted access patterns must produce
//! exactly the coalescing / conflict counts the cost model promises, and
//! execution must be deterministic.

use gpu_sim::{
    Buffer, DeviceSpec, Grid, Kernel, LaneAddrs, LaneWrites, Sim, Step, WarpCtx,
};

/// A one-warp kernel that performs a single caller-specified access pattern
/// (the pattern bodies address the backing buffer directly).
struct PatternKernel<F: Fn(&mut WarpCtx<'_>) + Sync> {
    local_words: usize,
    body: F,
}

impl<F: Fn(&mut WarpCtx<'_>) + Sync> Kernel for PatternKernel<F> {
    type State = bool;

    fn name(&self) -> String {
        "pattern".into()
    }

    fn grid(&self) -> Grid {
        Grid { num_wgs: 1, wg_size: 32 }
    }

    fn local_mem_words(&self, _dev: &DeviceSpec) -> usize {
        self.local_words
    }

    fn init(&self, _wg: usize, _warp: usize) -> bool {
        false
    }

    fn step(&self, done: &mut bool, ctx: &mut WarpCtx<'_>) -> Step {
        if *done {
            return Step::Done;
        }
        (self.body)(ctx);
        *done = true;
        Step::Done
    }
}

fn run_pattern<F: Fn(&mut WarpCtx<'_>) + Sync>(
    local_words: usize,
    body: F,
) -> gpu_sim::KernelStats {
    let mut sim = Sim::new(DeviceSpec::tesla_k20(), 4096);
    let _buf = sim.alloc(2048);
    let k = PatternKernel { local_words, body };
    sim.launch(&k, &ipt_obs::NoopRecorder, 0.0).unwrap()
}

#[test]
fn coalesced_load_is_minimal_transactions() {
    let stats = run_pattern(0, |ctx| {
        let buf = Buffer { base: 0, len: 2048 };
        let addrs = LaneAddrs::from_fn(32, Some);
        let _ = ctx.global_read(buf, &addrs);
    });
    // 32 consecutive words = 128 bytes = 4 transactions of 32 B.
    assert_eq!(stats.gld_transactions, 4);
    assert_eq!(stats.dram_bytes, 128.0);
    assert_eq!(stats.useful_bytes, 128.0);
    assert!((stats.coalescing_efficiency() - 1.0).abs() < 1e-12);
}

#[test]
fn strided_load_wastes_transactions() {
    let stats = run_pattern(0, |ctx| {
        let buf = Buffer { base: 0, len: 2048 };
        // Stride 32 words: every lane its own 32-byte segment.
        let addrs = LaneAddrs::from_fn(32, |l| Some(l * 32));
        let _ = ctx.global_read(buf, &addrs);
    });
    assert_eq!(stats.gld_transactions, 32);
    assert_eq!(stats.dram_bytes, 32.0 * 32.0);
    assert!((stats.coalescing_efficiency() - 0.125).abs() < 1e-12);
}

#[test]
fn same_word_atomics_count_position_conflicts() {
    let stats = run_pattern(64, |ctx| {
        // All 32 lanes OR into the same local word.
        let ops = LaneWrites::from_fn(32, |l| Some((0usize, 1u32 << l)));
        let _ = ctx.local_atomic_or(&ops);
    });
    assert_eq!(stats.local_atomics, 32);
    assert_eq!(stats.position_conflicts, 31);
    assert_eq!(stats.bank_conflicts, 0, "same word broadcasts within the bank");
}

#[test]
fn same_bank_different_words_count_bank_conflicts() {
    let stats = run_pattern(2048, |ctx| {
        // Stride 32 words: all in bank 0, all distinct.
        let ops = LaneWrites::from_fn(32, |l| Some((l * 32, 1u32)));
        let _ = ctx.local_atomic_or(&ops);
    });
    assert_eq!(stats.position_conflicts, 0);
    assert_eq!(stats.bank_conflicts, 31);
}

#[test]
fn same_lock_different_words_count_lock_conflicts() {
    let stats = run_pattern(3000, |ctx| {
        // Stride 1024 words: distinct words, same lock (1024 locks), and
        // bank 0 every time.
        let ops = LaneWrites::from_fn(2, |l| Some((l * 1024, 1u32)));
        let _ = ctx.local_atomic_or(&ops);
    });
    assert_eq!(stats.lock_conflicts, 1);
}

#[test]
fn batched_reads_cost_less_chain_than_sequential() {
    // Narrow (one-transaction) accesses: issuing them one instruction at a
    // time pays a full latency each; batching keeps `mlp_transactions` in
    // flight. (Full-width 4-transaction loads already fill the MLP window,
    // so batching those is neutral by design.)
    let seq = run_pattern(0, |ctx| {
        let buf = Buffer { base: 0, len: 2048 };
        for i in 0..8 {
            let addrs = LaneAddrs::from_fn(8, move |l| Some(i * 8 + l));
            let _ = ctx.global_read(buf, &addrs);
        }
    });
    let batched = run_pattern(0, |ctx| {
        let buf = Buffer { base: 0, len: 2048 };
        let batches: Vec<LaneAddrs> = (0..8)
            .map(|i| LaneAddrs::from_fn(8, move |l| Some(i * 8 + l)))
            .collect();
        let _ = ctx.global_read_batch(buf, &batches);
    });
    assert_eq!(seq.dram_bytes, batched.dram_bytes, "same traffic");
    assert!(
        batched.max_chain_cycles < seq.max_chain_cycles,
        "MLP pipelining must shorten the dependent chain: {} vs {}",
        batched.max_chain_cycles,
        seq.max_chain_cycles
    );
}

#[test]
fn execution_is_deterministic() {
    let run = || {
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), 8192);
        let buf = sim.alloc(4096);
        let data: Vec<u32> = (0..4096).collect();
        sim.upload_u32(buf, &data);
        // A kernel with atomics and cross-warp interaction: reuse the
        // pattern kernel with a visible atomic storm.
        let k = PatternKernel {
            local_words: 128,
            body: |ctx: &mut WarpCtx<'_>| {
                let ops = LaneWrites::from_fn(32, |l| Some((l % 7, 1u32 << (l % 31))));
                let _ = ctx.local_atomic_or(&ops);
            },
        };
        let s = sim.launch(&k, &ipt_obs::NoopRecorder, 0.0).unwrap();
        (s.time_s, s.position_conflicts, s.bank_conflicts, s.total_chain_cycles)
    };
    assert_eq!(run(), run());
}

#[test]
fn inactive_lanes_cost_nothing() {
    let stats = run_pattern(0, |ctx| {
        let buf = Buffer { base: 0, len: 2048 };
        let addrs = LaneAddrs::from_fn(32, |_| None);
        let _ = ctx.global_read(buf, &addrs);
    });
    assert_eq!(stats.gld_transactions, 0);
    assert_eq!(stats.dram_bytes, 0.0);
}

#[test]
fn barrier_synchronises_two_warps() {
    // Two warps: warp 0 writes local, barriers, warp 1 reads after the
    // barrier and must observe the write.
    struct TwoWarp {
        buf: Buffer,
    }
    impl Kernel for TwoWarp {
        type State = u8;
        fn name(&self) -> String {
            "two-warp".into()
        }
        fn grid(&self) -> Grid {
            Grid { num_wgs: 1, wg_size: 64 }
        }
        fn local_mem_words(&self, _d: &DeviceSpec) -> usize {
            64
        }
        fn init(&self, _wg: usize, _warp: usize) -> u8 {
            0
        }
        fn step(&self, phase: &mut u8, ctx: &mut WarpCtx<'_>) -> Step {
            match *phase {
                0 => {
                    if ctx.warp_id == 0 {
                        let w = LaneWrites::from_fn(32, |l| Some((l, 7_000_000 + l as u32)));
                        ctx.local_write(&w);
                    }
                    *phase = 1;
                    Step::Barrier
                }
                _ => {
                    if ctx.warp_id == 1 {
                        let a = LaneAddrs::from_fn(32, Some);
                        let vals = ctx.local_read(&a);
                        let w = LaneWrites::from_fn(32, |l| Some((l, vals.get(l))));
                        ctx.global_write(self.buf, &w);
                    }
                    Step::Done
                }
            }
        }
    }
    let mut sim = Sim::new(DeviceSpec::tesla_k20(), 256);
    let buf = sim.alloc(64);
    let stats = sim.launch(&TwoWarp { buf }, &ipt_obs::NoopRecorder, 0.0).unwrap();
    assert!(stats.barriers >= 1);
    let out = sim.download_u32(buf);
    for (l, item) in out.iter().enumerate().take(32) {
        assert_eq!(*item, 7_000_000 + l as u32, "lane {l} must see pre-barrier write");
    }
}

#[test]
fn occupancy_flows_into_stats() {
    // Huge local allocation → one WG per SM → low occupancy in the report.
    let stats = run_pattern(12_000, |ctx| {
        let ops = LaneWrites::from_fn(32, |l| Some((l, 1u32)));
        ctx.local_write(&ops);
    });
    assert!(stats.occupancy.occupancy < 0.2);
    assert_eq!(stats.occupancy.limiter, gpu_sim::Limiter::LocalMem);
}

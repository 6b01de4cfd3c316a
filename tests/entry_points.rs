//! Fast smoke test of the execution surface, one case per entry point:
//! the host in-place engines on each planner route, the engine launch
//! (serial ≡ parallel), the DES with event waits, arrivals and an engine
//! crash, the recovery chain on every scheme arm under a fault that forces
//! a fallback, out-of-core streaming, and one fleet round.

use ipt::core::{decide_scheme, FallbackReason, Matrix, PlanDecision, Scheme, StagePlan};
use ipt::core::{
    transpose_c2r_par, transpose_c2r_seq, transpose_in_place_any, transpose_in_place_par,
    transpose_in_place_seq, Algorithm, TileConfig, TileHeuristic,
};
use ipt::gpu::fleet::{Fleet, FleetConfig};
use ipt::gpu::recover::transpose_scheme_with_recovery;
use ipt::gpu::serve::{PriorityClass, ServeRequest};
use ipt::gpu::stream::{stream_transpose, StreamChaos, StreamConfig};
use ipt::gpu::{
    host_transpose, transpose_with_recovery, BsKernel, GpuOptions, RecoveryPath, RecoveryPolicy,
};
use ipt::sim::{
    launch, simulate, Des, DeviceSpec, ECmd, EngineCrash, EngineMode, FaultKind, FaultPlan,
    LaunchConfig, QueueError, Sim,
};
use ipt_obs::NoopRecorder;

#[test]
fn host_engines_transpose_every_planner_route() {
    let h = TileHeuristic::default();
    // A reduced Table-2 shape (staged, BS tile stage), a prime x prime shape
    // (C2R, c = 1) and a C2R shape with gcd 521 (no tile; 521² is over the
    // gcd-tile limit, so the rotate pass runs).
    let shapes = [(1440, 360, Scheme::Staged), (509, 251, Scheme::C2R), (7 * 521, 521, Scheme::C2R)];
    for (rows, cols, scheme) in shapes {
        assert_eq!(decide_scheme(rows, cols, &h).scheme, scheme, "{rows}x{cols}");
        let m = Matrix::iota(rows, cols);
        let want = m.transposed();
        for algo in Algorithm::ALL {
            let name = algo.name();
            assert_eq!(transpose_in_place_seq(m.clone(), algo), want, "{name} seq {rows}x{cols}");
            assert_eq!(transpose_in_place_par(m.clone(), algo), want, "{name} par {rows}x{cols}");
        }
        assert_eq!(transpose_in_place_any(m.clone()), want, "any {rows}x{cols}");
        let mut seq = m.as_slice().to_vec();
        transpose_c2r_seq(&mut seq, rows, cols);
        assert_eq!(seq, want.as_slice(), "c2r seq {rows}x{cols}");
        let mut par = m.into_vec();
        transpose_c2r_par(&mut par, rows, cols);
        assert_eq!(par, want.as_slice(), "c2r par {rows}x{cols}");
    }
}

#[test]
fn launch_is_bit_identical_serial_and_parallel() {
    let run = |engine: EngineMode| {
        let (instances, rows, cols) = (24, 16, 12);
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), instances * rows * cols);
        let data = sim.alloc(instances * rows * cols);
        sim.upload_u32(data, &(0..(instances * rows * cols) as u32).collect::<Vec<_>>());
        let k = BsKernel { data, instances, rows, cols, super_size: 1, wg_size: 192 };
        let cfg = LaunchConfig { engine, ..LaunchConfig::default() };
        let stats = launch(sim.device(), sim.mem(), &k, cfg, &NoopRecorder, 0.0).unwrap();
        (stats, sim.download_u32(data))
    };
    let (serial, serial_mem) = run(EngineMode::Serial);
    let (parallel, parallel_mem) = run(EngineMode::Parallel { threads: 2 });
    assert_eq!(serial, parallel);
    assert_eq!(serial_mem, parallel_mem);
    // Every 16x12 instance was transposed.
    let tile: Vec<u32> = (0..16 * 12).collect();
    assert_eq!(serial_mem[..16 * 12], host_transpose(&tile, 16, 12)[..]);
}

#[test]
fn simulate_honours_waits_arrivals_and_crash() {
    let cmd = |engine, duration_s| ECmd::new(engine, duration_s, "c".into());
    let queues = vec![
        vec![cmd(0, 1.0), cmd(1, 1.0)],
        // Waits on queue 0's first command, even though engine 2 is free.
        vec![ECmd { wait: Some((0, 0)), ..cmd(2, 0.5) }],
        // Arrives after engine 2 has gone idle again.
        vec![cmd(2, 1.0)],
    ];
    let arrivals = [0.0, 0.0, 3.0];
    let des = Des { arrivals: &arrivals, ..Des::new(3, 0.0, &queues) };
    let tl = simulate(&des).unwrap();
    assert_eq!(tl.queue_start_s(1), Some(1.0), "event wait");
    assert_eq!(tl.queue_start_s(2), Some(3.0), "arrival");
    assert_eq!(tl.total_s, 4.0);
    // Queue 0's second command runs on engine 1 from 1.0 to 2.0: a crash
    // of that engine at 1.5 preempts it.
    let crash = Some(EngineCrash { engine: 1, at_s: 1.5 });
    let err = simulate(&Des { crash, ..des }).unwrap_err();
    assert_eq!(err, QueueError::EngineCrash { engine: 1, at_s: 1.5 });
}

/// Run one decision through the recovery chain with `fault` armed and
/// fallback allowed; the result must be the exact transpose.
fn recover_decision(d: &PlanDecision, rows: usize, cols: usize, fault: FaultPlan) -> RecoveryPath {
    let mut sim = Sim::new(DeviceSpec::tesla_k20(), 3 * rows * cols + 4096);
    sim.set_fault_plan(fault);
    let opts = GpuOptions::tuned_for(sim.device());
    let policy = RecoveryPolicy { max_stage_retries: 0, ..RecoveryPolicy::default() };
    let mut data = Matrix::iota(rows, cols).into_vec();
    let (_, report) =
        transpose_scheme_with_recovery(&mut sim, &mut data, rows, cols, 1, d, &opts, &policy)
            .unwrap();
    assert_eq!(data, Matrix::iota(rows, cols).transposed().into_vec(), "{:?}", d.scheme);
    report.path
}

#[test]
fn recovery_chain_falls_back_on_every_arm() {
    let abort = || FaultPlan::exact(3, FaultKind::AbortKernel, 1, 0);
    let h = TileHeuristic::default();

    let identity = decide_scheme(1, 257, &h);
    assert_eq!(identity.scheme, Scheme::Identity);
    // Nothing runs on the device, so the armed fault has nothing to hit.
    assert_eq!(recover_decision(&identity, 1, 257, abort()), RecoveryPath::Primary);

    // A staged plan aborted with no retries degrades to conservative options.
    let staged = PlanDecision {
        scheme: Scheme::Staged,
        reason: FallbackReason::Preferred,
        tile: Some(TileConfig::new(12, 10)),
    };
    assert_eq!(recover_decision(&staged, 72, 60, abort()), RecoveryPath::ConservativeOptions);

    // The kernel arms fall back to the out-of-place kernel.
    let c2r = decide_scheme(127, 61, &h);
    assert_eq!(c2r.scheme, Scheme::C2R);
    assert_eq!(recover_decision(&c2r, 127, 61, abort()), RecoveryPath::OutOfPlace);
    let coprime = PlanDecision { scheme: Scheme::Coprime, ..c2r };
    assert_eq!(recover_decision(&coprime, 127, 61, abort()), RecoveryPath::OutOfPlace);

    // The plan front door takes the same chain.
    let plan = StagePlan::three_stage(72, 60, TileConfig::new(12, 10)).unwrap();
    let mut sim = Sim::new(DeviceSpec::tesla_k20(), 3 * 72 * 60 + 4096);
    sim.set_fault_plan(abort());
    let opts = GpuOptions::tuned_for(sim.device());
    let policy = RecoveryPolicy { max_stage_retries: 0, ..RecoveryPolicy::default() };
    let mut data = Matrix::iota(72, 60).into_vec();
    let (_, report) = transpose_with_recovery(
        &mut sim,
        &mut data,
        72,
        60,
        1,
        &plan,
        &opts,
        &policy,
        &NoopRecorder,
        0.0,
    )
    .unwrap();
    assert_eq!(report.path, RecoveryPath::ConservativeOptions);
    assert_eq!(data, Matrix::iota(72, 60).transposed().into_vec());
}

#[test]
fn stream_transpose_reassembles_the_matrix() {
    let dev = DeviceSpec::tesla_k20();
    let (rows, cols) = (96, 40);
    let data = Matrix::iota(rows, cols).into_vec();
    let cfg = StreamConfig::new(&dev, (rows * cols / 2) as u64);
    let (out, report) =
        stream_transpose(&dev, &data, rows, cols, 1, &cfg, &StreamChaos::None).unwrap();
    assert_eq!(out, Matrix::iota(rows, cols).transposed().into_vec());
    assert!(report.num_chunks > 1, "the budget forces streaming");
}

#[test]
fn one_fleet_round_serves_every_request() {
    let dev = DeviceSpec::tesla_k20();
    let mut fleet = Fleet::new(dev.clone(), FleetConfig::new(&dev));
    let shapes = [(72, 60), (127, 61), (1, 33), (48, 90)];
    for (id, &(rows, cols)) in shapes.iter().enumerate() {
        let req = ServeRequest {
            id: id as u64,
            rows,
            cols,
            elem_bytes: 4,
            priority: PriorityClass::Batch,
            data: Matrix::iota(rows, cols).into_vec(),
        };
        fleet.submit(req, &NoopRecorder).unwrap();
    }
    let round = fleet.process_rounds(&NoopRecorder).unwrap();
    assert_eq!(round.len(), shapes.len());
    for (_, report) in &round.rounds {
        for r in &report.results {
            let (rows, cols) = shapes[r.id as usize];
            assert_eq!(
                r.data,
                Matrix::iota(rows, cols).transposed().into_vec(),
                "request {}",
                r.id
            );
        }
    }
}

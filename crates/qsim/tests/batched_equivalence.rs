//! Property tests for the lane-batched (structure-of-arrays) engine: every
//! batched configuration — random circuit shapes, random lane counts,
//! snapshot rebinding, backend-level greedy chunking — must be **bitwise**
//! identical to the sequential scalar path, amplitude for amplitude and
//! energy for energy. This is the same guarantee the threaded and
//! distributed layers carry, extended to the batched dimension.

use proptest::prelude::*;
use qismet_mathkit::rng_from_seed;
use qismet_qsim::{
    Backend, BatchStateVector, BatchedCircuit, CachedStatevectorBackend, Circuit, CompiledCircuit,
    CompiledObservable, Param, PauliSum, StateVector, StatevectorBackend, MAX_LANES,
};
use rand::Rng;

/// Free-parameter circuit in one of three shapes: a superop-heavy mix of
/// rotations and entanglers, an entangler ladder with free RZZ angles (the
/// per-lane table-phase path), or a pure ry+cx shape that takes the
/// real-amplitude fast path at >= 6 qubits. Returns the parameter count.
fn shaped_circuit(n: usize, shape: usize, draws: &[(usize, usize)]) -> (Circuit, usize) {
    let mut c = Circuit::new(n);
    let mut k = 0usize;
    match shape {
        0 => {
            for &(kind, sel) in draws {
                let q = sel % n;
                let q2 = (q + 1 + kind % (n - 1)) % n;
                match kind % 8 {
                    0 => {
                        c.ry(Param::Free(k), q);
                        k += 1;
                    }
                    1 => {
                        c.rz(Param::Free(k), q);
                        k += 1;
                    }
                    2 => {
                        c.h(q);
                    }
                    3 => {
                        c.rx(Param::Free(k), q);
                        k += 1;
                    }
                    4 => {
                        c.cx(q, q2);
                    }
                    5 => {
                        c.cz(q, q2);
                    }
                    6 => {
                        c.rzz(Param::Free(k), q, q2);
                        k += 1;
                    }
                    _ => {
                        c.swap(q, q2);
                    }
                };
            }
        }
        1 => {
            for (i, &(kind, sel)) in draws.iter().enumerate() {
                let q = sel % n;
                let q2 = (q + 1 + kind % (n - 1)) % n;
                if i % 7 == 6 {
                    c.ry(Param::Free(k), q);
                    k += 1;
                } else {
                    match kind % 4 {
                        0 => {
                            c.cx(q, q2);
                        }
                        1 => {
                            c.cz(q, q2);
                        }
                        2 => {
                            c.swap(q, q2);
                        }
                        _ => {
                            c.rzz(Param::Free(k), q, q2);
                            k += 1;
                        }
                    };
                }
            }
        }
        _ => {
            for _ in 0..3 {
                for q in 0..n {
                    c.ry(Param::Free(k), q);
                    k += 1;
                }
                for q in 0..n - 1 {
                    c.cx(q, q + 1);
                }
            }
        }
    }
    // Guarantee at least one free parameter so every lane is distinct.
    if k == 0 {
        c.ry(Param::Free(0), 0);
        k = 1;
    }
    (c, k)
}

fn tfim(n: usize) -> PauliSum {
    let mut labels: Vec<(f64, String)> = Vec::new();
    for q in 0..n - 1 {
        let mut l = vec!['I'; n];
        l[q] = 'Z';
        l[q + 1] = 'Z';
        labels.push((-1.0, l.into_iter().collect()));
    }
    for q in 0..n {
        let mut l = vec!['I'; n];
        l[q] = 'X';
        labels.push((-0.7, l.into_iter().collect()));
    }
    let refs: Vec<(f64, &str)> = labels.iter().map(|(c, s)| (*c, s.as_str())).collect();
    PauliSum::from_labels(&refs).unwrap()
}

fn random_points(k: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = rng_from_seed(seed);
    (0..count)
        .map(|_| (0..k).map(|_| rng.gen::<f64>() * 6.4 - 3.2).collect())
        .collect()
}

fn arb_draws(max: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..64, 0usize..64), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The core contract: batched state evolution and expectation are
    // bitwise identical to the scalar path, per lane, at any lane count,
    // across all three kernel-path shapes (superop, table, real-f64).
    #[test]
    fn batched_matches_sequential_bitwise(
        n in 2usize..8,
        lanes in 2usize..MAX_LANES + 1,
        shape in 0usize..3,
        draws in arb_draws(40),
        seed in 0u64..1 << 20,
    ) {
        let (c, k) = shaped_circuit(n, shape, &draws);
        let obs = CompiledObservable::compile(&tfim(n));
        let mut plan = CompiledCircuit::compile(&c);
        let pts = random_points(k, lanes, seed);
        let batched = BatchedCircuit::bind(&mut plan, &pts).unwrap();
        prop_assert_eq!(batched.lanes(), lanes);
        prop_assert_eq!(batched.runs_real(), plan.runs_real());
        let mut bsv = BatchStateVector::new(n, lanes);
        let mut out = vec![0.0f64; lanes];
        batched.run_expectation(&mut bsv, &obs, &mut out);
        for (l, p) in pts.iter().enumerate() {
            plan.rebind(p).unwrap();
            let mut sv = StateVector::new(n);
            let e = plan.run_expectation(&mut sv, &obs).unwrap();
            prop_assert_eq!(e.to_bits(), out[l].to_bits(), "lane {} energy", l);
            let lane = bsv.lane_state(l);
            for (i, (a, b)) in sv.amplitudes().iter().zip(lane.amplitudes()).enumerate() {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "lane {} amp {} re", l, i);
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "lane {} amp {} im", l, i);
            }
        }
    }

    // Snapshot binding is history-free: binding a plan that was already
    // rebound at arbitrary other points yields the same batched circuit
    // as binding a freshly compiled plan.
    #[test]
    fn rebind_equals_fresh_bind_per_lane(
        n in 2usize..7,
        lanes in 2usize..MAX_LANES + 1,
        shape in 0usize..3,
        draws in arb_draws(32),
        seed in 0u64..1 << 20,
    ) {
        let (c, k) = shaped_circuit(n, shape, &draws);
        let obs = CompiledObservable::compile(&tfim(n));
        let pts = random_points(k, lanes, seed);
        let mut reused_plan = CompiledCircuit::compile(&c);
        reused_plan.rebind(&random_points(k, 1, seed ^ 0x5a5a)[0]).unwrap();
        let reused = BatchedCircuit::bind(&mut reused_plan, &pts).unwrap();
        let mut fresh_plan = CompiledCircuit::compile(&c);
        let fresh = BatchedCircuit::bind(&mut fresh_plan, &pts).unwrap();
        let mut b1 = BatchStateVector::new(n, lanes);
        let mut b2 = BatchStateVector::new(n, lanes);
        let mut o1 = vec![0.0f64; lanes];
        let mut o2 = vec![0.0f64; lanes];
        reused.run_expectation(&mut b1, &obs, &mut o1);
        fresh.run_expectation(&mut b2, &obs, &mut o2);
        for l in 0..lanes {
            prop_assert_eq!(o1[l].to_bits(), o2[l].to_bits(), "lane {}", l);
        }
    }

    // The backend seam: evaluate_plan_batch (greedy 8/4/scalar lane
    // chunking, one code path with or without the parallel feature) agrees
    // bitwise with a loop of evaluate_plan calls at any point count.
    #[test]
    fn backend_plan_batch_matches_singles_bitwise(
        n in 2usize..7,
        count in 1usize..23,
        shape in 0usize..3,
        draws in arb_draws(28),
        seed in 0u64..1 << 20,
    ) {
        let (c, k) = shaped_circuit(n, shape, &draws);
        let obs = CompiledObservable::compile(&tfim(n));
        let pts = random_points(k, count, seed);
        let mut cached = CachedStatevectorBackend::new();
        let mut fresh = StatevectorBackend::new();
        let mut plan = CompiledCircuit::compile(&c);
        let singles: Vec<f64> = pts
            .iter()
            .map(|p| cached.evaluate_plan(&mut plan, p, &obs).unwrap())
            .collect();
        let via_cached = cached.evaluate_plan_batch(&mut plan, &pts, &obs).unwrap();
        let via_fresh = fresh.evaluate_plan_batch(&mut plan, &pts, &obs).unwrap();
        for (i, s) in singles.iter().enumerate() {
            prop_assert_eq!(s.to_bits(), via_cached[i].to_bits(), "cached point {}", i);
            prop_assert_eq!(s.to_bits(), via_fresh[i].to_bits(), "fresh point {}", i);
        }
    }
}

//! The functional pass's content key.
//!
//! A cache keyed by `FunctionalConfig::of(cfg).fingerprint()` may hand
//! one machine the pass computed for another. That is sound only if the
//! pass ignores every field outside the key, and the key changes with
//! every field inside it. Both halves are checked here on random
//! machines and traces:
//!
//! * changing depth, widths, window, ROB, functional units or latencies
//!   leaves the fingerprint and the whole outcome (events, load classes
//!   and latencies, branch statistics) unchanged;
//! * changing the predictor, the indirect predictor, the BTB, the RAS or
//!   the caches changes the fingerprint.

use bmp_core::{FunctionalConfig, FunctionalOutcome};
use bmp_uarch::{
    presets, CacheGeometry, FuPool, HierarchyConfig, IndirectPredictorConfig, LatencyTable,
    MachineConfig, PredictorConfig,
};
use bmp_workloads::spec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn pick<T: Clone>(rng: &mut SmallRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

fn random_preset(rng: &mut SmallRng) -> MachineConfig {
    pick(
        rng,
        &[
            presets::baseline_4wide(),
            presets::wide_8way(),
            presets::alpha21264_like(),
            presets::pentium4_like(),
            presets::test_tiny(),
        ],
    )
}

/// `cfg` with every timing field redrawn at random: frontend depth,
/// the four widths, window, ROB, functional-unit pool and latencies.
fn retimed(rng: &mut SmallRng, cfg: &MachineConfig) -> MachineConfig {
    let window = rng.gen_range(1..=256u32);
    let latencies = if rng.gen_bool(0.5) {
        LatencyTable::default().scaled(pick(rng, &[0.5, 1.5, 2.0, 3.0]))
    } else {
        LatencyTable::new(std::array::from_fn(|_| rng.gen_range(1..=40))).expect("non-zero")
    };
    cfg.to_builder()
        .frontend_depth(rng.gen_range(1..=40))
        .fetch_width(rng.gen_range(1..=8))
        .dispatch_width(rng.gen_range(1..=8))
        .issue_width(rng.gen_range(1..=8))
        .commit_width(rng.gen_range(1..=8))
        .window_size(window)
        .rob_size(window + rng.gen_range(0..=256u32))
        .fus(FuPool::new(std::array::from_fn(|_| rng.gen_range(1..=4))).expect("non-zero"))
        .latencies(latencies)
        .build()
        .expect("valid machine")
}

/// One variant of `cfg` per keyed field, each differing from `cfg` in
/// that field alone.
fn refronted(rng: &mut SmallRng, cfg: &MachineConfig) -> Vec<(&'static str, MachineConfig)> {
    let predictors = [
        PredictorConfig::AlwaysTaken,
        PredictorConfig::AlwaysNotTaken,
        PredictorConfig::Bimodal { entries: 4096 },
        PredictorConfig::GShare {
            entries: 1 << 14,
            history_bits: rng.gen_range(4..=14),
        },
        presets::generation_predictor("tage").expect("known generation"),
    ];
    let predictor = loop {
        let p = pick(rng, &predictors);
        if p != cfg.predictor {
            break p;
        }
    };
    let indirect = match cfg.indirect_predictor {
        IndirectPredictorConfig::BtbLastTarget => IndirectPredictorConfig::GTarget {
            entries: 1u32 << rng.gen_range(6..=12u32),
            history_bits: rng.gen_range(1..=16),
        },
        _ => IndirectPredictorConfig::BtbLastTarget,
    };
    let btb = if rng.gen_bool(0.5) && cfg.btb_entries > 1 {
        cfg.btb_entries / 2
    } else {
        cfg.btb_entries * 2
    };
    let ras = cfg.ras_entries + rng.gen_range(1..=16u32);
    let c = &cfg.caches;
    let caches = if rng.gen_bool(0.5) {
        HierarchyConfig::new(
            c.l1i(),
            c.l1d(),
            c.l2(),
            c.mem_latency() + rng.gen_range(1..=100u32),
        )
    } else {
        let l1d = c.l1d();
        let hit = l1d.hit_latency() + rng.gen_range(1..=3u32);
        let l1d = CacheGeometry::new(l1d.size_bytes(), l1d.line_bytes(), l1d.ways(), hit)
            .expect("valid L1D");
        HierarchyConfig::new(c.l1i(), l1d, c.l2(), c.mem_latency())
    }
    .expect("valid hierarchy");
    let build = |b: &mut bmp_uarch::MachineConfigBuilder| b.build().expect("valid machine");
    vec![
        ("predictor", build(cfg.to_builder().predictor(predictor))),
        (
            "indirect predictor",
            build(cfg.to_builder().indirect_predictor(indirect)),
        ),
        ("BTB", build(cfg.to_builder().btb_entries(btb))),
        ("RAS", build(cfg.to_builder().ras_entries(ras))),
        ("caches", build(cfg.to_builder().caches(caches))),
    ]
}

fn key(cfg: &MachineConfig) -> u64 {
    FunctionalConfig::of(cfg).fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timing fields are outside the key and outside the pass.
    #[test]
    fn timing_fields_change_neither_key_nor_outcome(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let profile = spec::by_name(pick(&mut rng, &spec::NAMES)).expect("known profile");
        let trace = profile.generate(rng.gen_range(500..6_000), rng.gen());
        let cfg = random_preset(&mut rng);
        let other = retimed(&mut rng, &cfg);
        prop_assert_eq!(key(&cfg), key(&other));
        let a = FunctionalOutcome::compute(&trace, &cfg);
        let b = FunctionalOutcome::compute(&trace, &other);
        prop_assert_eq!(&a.events, &b.events);
        prop_assert_eq!(&a.loads, &b.loads);
        for i in 0..trace.len() {
            prop_assert_eq!(a.load_latency(i), b.load_latency(i));
        }
        prop_assert_eq!(a.branch_stats, b.branch_stats);
    }

    /// Every keyed field is inside the key.
    #[test]
    fn frontend_fields_change_the_key(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let preset = random_preset(&mut rng);
        let cfg = retimed(&mut rng, &preset);
        for (field, other) in refronted(&mut rng, &cfg) {
            prop_assert!(key(&cfg) != key(&other), "the key ignores the {}", field);
        }
    }
}

//! Cross-crate tests of the metrics layer: the histogram's statistical
//! guarantees at integration scale, the `metrics` block folded from a
//! run's supersteps, and the non-negotiable invariant that `--metrics`
//! never changes what an algorithm computes — only what gets reported
//! about it.

mod sweep;

use flash_bench::cli::{dispatch, parse_args, CliOptions};
use flash_obs::{Histogram, Json};
use std::sync::Arc;

/// Splitmix64: a deterministic value stream for property checks.
fn splitmix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn percentiles_respect_bounds_on_random_streams() {
    // For any recorded stream: min <= p50 <= p90 <= p99 <= max, and each
    // percentile is within one log2 bucket of the true rank statistic.
    let mut seed = 77_u64;
    for round in 0..20 {
        let n = 1 + (round * 37) % 400;
        let mut h = Histogram::new();
        let mut vals: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = splitmix(&mut seed) % (1 << (8 + round % 40));
            h.record(v);
            vals.push(v);
        }
        vals.sort_unstable();
        let (min, max) = (h.min().unwrap(), h.max().unwrap());
        let mut prev = min;
        for p in [50u64, 90, 99] {
            let got = h.percentile(p).unwrap();
            assert!(got >= prev, "p{p} not monotone");
            assert!(got <= max, "p{p} exceeds max");
            prev = got;
            // Bucket-width error bound: the reported value is >= the true
            // rank statistic and at most 2x above it (one log2 bucket),
            // modulo the exact min/max clamp.
            let rank = ((n as u64 * p).div_ceil(100)).max(1) as usize;
            let truth = vals[rank - 1];
            assert!(got >= truth, "p{p}={got} below true rank value {truth}");
            assert!(
                got <= truth.saturating_mul(2).max(min),
                "p{p}={got} more than a bucket above {truth}"
            );
        }
    }
}

#[test]
fn empty_and_single_sample_histograms_behave() {
    let empty = Histogram::new();
    assert_eq!(empty.count(), 0);
    assert!(empty.percentile(50).is_none() && empty.max().is_none());
    let mut one = Histogram::new();
    one.record(12345);
    for p in [1u64, 50, 99, 100] {
        assert_eq!(one.percentile(p), Some(12345));
    }
    assert_eq!((one.min(), one.max()), (Some(12345), Some(12345)));
}

/// `--metrics` changes no answer, superstep count or per-superstep
/// traffic counter of any algorithm (the sweep's `metrics` row).
#[test]
fn catalogue_is_bit_identical_with_metrics_on_and_off() {
    sweep::sweep(&["metrics"]);
}

#[test]
fn stats_json_carries_percentiles_for_every_recorded_histogram() {
    let g = Arc::new(flash_graph::generators::erdos_renyi(120, 500, 11));
    let mut o: CliOptions = parse_args(
        ["--algo", "bfs", "--dataset", "OR", "--workers", "4"]
            .iter()
            .map(|s| s.to_string()),
    )
    .unwrap();
    o.config.metrics = true;
    o.config.network = Some(flash_runtime::NetworkModel::ten_gbe());
    let (_, stats) = dispatch(&o, &g).expect("bfs");

    let doc = stats.summary_json();
    let metrics = doc.get("metrics").expect("metrics block");
    let histograms = metrics.get("histograms").expect("histograms section");
    let Json::Obj(map) = histograms else {
        panic!("histograms must be an object")
    };
    // One histogram per StepStats duration, and nothing else on an
    // in-memory run.
    let names: Vec<&str> = map.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "step/barrier_skew_ns",
            "step/communicate_ns",
            "step/compute_max_ns",
            "step/compute_ns",
            "step/delivery_ns",
            "step/serialize_max_ns",
            "step/serialize_ns",
            "step/simulated_net_ns",
        ]
    );
    // Every histogram carries the full percentile summary, internally
    // consistent, and agrees with the per-step records it is folded from.
    for (name, h) in map {
        for field in ["count", "sum", "min", "max", "p50", "p90", "p99"] {
            assert!(
                h.get(field).and_then(Json::as_u64).is_some(),
                "{name} missing {field}"
            );
        }
        let f = |k: &str| h.get(k).and_then(Json::as_u64).unwrap();
        assert!(f("min") <= f("p50") && f("p50") <= f("p90"));
        assert!(f("p90") <= f("p99") && f("p99") <= f("max"));
        assert_eq!(
            f("count"),
            stats.num_supersteps() as u64,
            "{name}: one sample per superstep"
        );
    }
    let sum = |name: &str| map[name].get("sum").and_then(Json::as_u64);
    assert_eq!(
        sum("step/compute_max_ns"),
        doc.get("parallel_compute_ns").and_then(Json::as_u64)
    );
    assert_eq!(
        sum("step/simulated_net_ns"),
        doc.get("simulated_net_ns").and_then(Json::as_u64)
    );

    // Metrics off (the default) renders no block at all.
    let o_off: CliOptions = parse_args(
        ["--algo", "bfs", "--dataset", "OR", "--workers", "4"]
            .iter()
            .map(|s| s.to_string()),
    )
    .unwrap();
    let (_, stats_off) = dispatch(&o_off, &g).expect("bfs");
    assert!(stats_off.summary_json().get("metrics").is_none());
}

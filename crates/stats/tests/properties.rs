//! Property-based tests for the statistics primitives (DESIGN.md §6).

use energydx_stats::{
    average_ranks, dense_ranks, ordinal_ranks, outlier::upper_outlier_indices,
    percentile, percentile_many, quartiles, Ecdf, QuantileSketch, Summary,
    TukeyFences,
};
use proptest::prelude::*;

fn finite_vec(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, min_len..80)
}

/// Observations from a small pool, so ties are common, with NaN and
/// both zeros mixed in.
fn tied_values() -> impl Strategy<Value = Vec<f64>> {
    let value = prop_oneof![
        Just(f64::NAN),
        Just(0.0),
        Just(-0.0),
        (-4i32..8).prop_map(|k| f64::from(k) * 0.5),
        -1e6f64..1e6,
    ];
    prop::collection::vec(value, 0..80)
}

proptest! {
    #[test]
    fn percentile_is_bounded_by_extrema(data in finite_vec(1), p in 0.0f64..=100.0) {
        let v = percentile(&data, p).unwrap();
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn percentile_is_monotone_in_p(data in finite_vec(1), p1 in 0.0f64..=100.0, p2 in 0.0f64..=100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&data, lo).unwrap() <= percentile(&data, hi).unwrap() + 1e-9);
    }

    #[test]
    fn percentile_is_permutation_invariant(mut data in finite_vec(2), p in 0.0f64..=100.0, seed in any::<u64>()) {
        let original = percentile(&data, p).unwrap();
        // Deterministic shuffle driven by the seed.
        let n = data.len();
        let mut s = seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            data.swap(i, j);
        }
        prop_assert_eq!(original, percentile(&data, p).unwrap());
    }

    #[test]
    fn quartiles_are_ordered(data in finite_vec(1)) {
        let q = quartiles(&data).unwrap();
        prop_assert!(q.q1 <= q.q2 + 1e-9);
        prop_assert!(q.q2 <= q.q3 + 1e-9);
        prop_assert!(q.iqr() >= -1e-9);
    }

    #[test]
    fn average_ranks_sum_to_n_n_plus_1_over_2(data in finite_vec(1)) {
        let ranks = average_ranks(&data).unwrap();
        let n = data.len() as f64;
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn average_ranks_respect_value_order(data in finite_vec(2)) {
        let ranks = average_ranks(&data).unwrap();
        for i in 0..data.len() {
            for j in 0..data.len() {
                if data[i] < data[j] {
                    prop_assert!(ranks[i] < ranks[j]);
                }
                if data[i] == data[j] {
                    prop_assert_eq!(ranks[i], ranks[j]);
                }
            }
        }
    }

    #[test]
    fn ordinal_ranks_are_a_permutation(data in finite_vec(1)) {
        let mut ranks = ordinal_ranks(&data).unwrap();
        ranks.sort_unstable();
        let expected: Vec<usize> = (1..=data.len()).collect();
        prop_assert_eq!(ranks, expected);
    }

    #[test]
    fn dense_ranks_cover_prefix_of_naturals(data in finite_vec(1)) {
        let ranks = dense_ranks(&data).unwrap();
        let max = *ranks.iter().max().unwrap();
        for r in 1..=max {
            prop_assert!(ranks.contains(&r));
        }
    }

    #[test]
    fn injected_extreme_value_is_always_detected(mut data in finite_vec(8)) {
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let q = quartiles(&data).unwrap();
        // A value far above max and the fence must be reported.
        let spike = max.abs().max(q.iqr()) * 100.0 + 1e7;
        data.push(spike);
        let idx = upper_outlier_indices(&data, 3.0, 0.0).unwrap();
        prop_assert!(idx.contains(&(data.len() - 1)));
    }

    #[test]
    fn fences_are_translation_covariant(data in finite_vec(4), shift in -1e5f64..1e5) {
        let f0 = TukeyFences::from_data(&data, 3.0).unwrap();
        let shifted: Vec<f64> = data.iter().map(|v| v + shift).collect();
        let f1 = TukeyFences::from_data(&shifted, 3.0).unwrap();
        prop_assert!((f1.upper - (f0.upper + shift)).abs() < 1e-6);
        prop_assert!((f1.lower - (f0.lower + shift)).abs() < 1e-6);
        prop_assert!((f1.iqr - f0.iqr).abs() < 1e-6);
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(data in finite_vec(1), x1 in -1e6f64..1e6, x2 in -1e6f64..1e6) {
        let e = Ecdf::new(&data).unwrap();
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let a = e.eval(lo);
        let b = e.eval(hi);
        prop_assert!(a <= b);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!((0.0..=1.0).contains(&b));
    }

    #[test]
    fn ecdf_quantile_then_eval_covers_p(data in finite_vec(1), p in 0.0f64..=100.0) {
        let e = Ecdf::new(&data).unwrap();
        let x = e.quantile(p).unwrap();
        // With R-7 interpolation, floor((n-1)p/100)+1 sample points lie at
        // or below the estimate, so eval(x) >= p/100 * (n-1)/n.
        let n = data.len() as f64;
        prop_assert!(e.eval(x) * 100.0 >= p * (n - 1.0) / n - 1e-6);
    }

    #[test]
    fn summary_merge_is_associative_enough(data in finite_vec(3), split in 1usize..3) {
        let cut = split.min(data.len() - 1);
        let whole = Summary::from_data(&data).unwrap();
        let mut merged = Summary::from_data(&data[..cut]).unwrap();
        merged.merge(&Summary::from_data(&data[cut..]).unwrap());
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert!((merged.mean() - whole.mean()).abs() < 1e-6_f64.max(whole.mean().abs() * 1e-9));
        prop_assert!((merged.variance() - whole.variance()).abs() < 1e-3_f64.max(whole.variance() * 1e-6));
    }

    #[test]
    fn summary_mean_is_bounded(data in finite_vec(1)) {
        let s = Summary::from_data(&data).unwrap();
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
    }

    #[test]
    fn summary_merge_is_commutative_and_associative(
        a in finite_vec(1), b in finite_vec(1), c in finite_vec(1)
    ) {
        let (sa, sb, sc) = (
            Summary::from_data(&a).unwrap(),
            Summary::from_data(&b).unwrap(),
            Summary::from_data(&c).unwrap(),
        );
        // (a ⊕ b) ⊕ c vs a ⊕ (b ⊕ c)
        let mut left = sa;
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb;
        bc.merge(&sc);
        let mut right = sa;
        right.merge(&bc);
        // b ⊕ a
        let mut swapped = sb;
        swapped.merge(&sa);
        swapped.merge(&sc);
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.count(), swapped.count());
        for (x, y) in [(&left, &right), (&left, &swapped)] {
            let scale = 1e-6_f64.max(x.mean().abs() * 1e-9);
            prop_assert!((x.mean() - y.mean()).abs() < scale);
            let vscale = 1e-3_f64.max(x.variance() * 1e-6);
            prop_assert!((x.variance() - y.variance()).abs() < vscale);
            prop_assert_eq!(x.min().to_bits(), y.min().to_bits());
            prop_assert_eq!(x.max().to_bits(), y.max().to_bits());
        }
    }

    // The sketch laws are EXACT (prop_assert_eq on the whole structure,
    // bit-level on queries): they are what makes the sharded pipeline's
    // byte-identical guarantee possible.

    #[test]
    fn sketch_merge_is_commutative_and_associative_exactly(
        a in finite_vec(1), b in finite_vec(1), c in finite_vec(1)
    ) {
        let (sa, sb, sc) = (
            QuantileSketch::from_data(&a).unwrap(),
            QuantileSketch::from_data(&b).unwrap(),
            QuantileSketch::from_data(&c).unwrap(),
        );
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        let mut swapped = sc.clone();
        swapped.merge(&sb);
        swapped.merge(&sa);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &swapped);
    }

    #[test]
    fn sketch_percentiles_match_the_full_sort_bitwise(
        a in finite_vec(1), b in finite_vec(0), p in 0.0f64..=100.0
    ) {
        // A sketch built from two shards answers exactly like the
        // exact estimator over the concatenated data — including the
        // Step-3 base percentile (10) and median (50).
        let mut sketch = QuantileSketch::from_data(&a).unwrap();
        let shard_b = b
            .iter()
            .fold(QuantileSketch::new(), |mut s, &v| { s.push(v); s });
        sketch.merge(&shard_b);
        let mut all = a.clone();
        all.extend(&b);
        for q in [p, 10.0, 50.0] {
            prop_assert_eq!(
                sketch.percentile(q).unwrap().to_bits(),
                percentile(&all, q).unwrap().to_bits(),
                "q={}", q
            );
        }
    }

    #[test]
    fn bulk_build_equals_push_by_push(
        data in tied_values(), cuts in (0usize..80, 0usize..80), p in 0.0f64..=100.0
    ) {
        let bulk = QuantileSketch::from_values(data.clone());
        let pushed = data
            .iter()
            .fold(QuantileSketch::new(), |mut s, &v| { s.push(v); s });
        prop_assert_eq!(&bulk, &pushed);
        // `==` on the entries cannot tell the zeros apart; the extrema's
        // bits can.
        prop_assert_eq!(bulk.min().map(f64::to_bits), pushed.min().map(f64::to_bits));
        prop_assert_eq!(bulk.max().map(f64::to_bits), pushed.max().map(f64::to_bits));
        // Any split, bulk-built part by part and merged, is the same
        // sketch again.
        let (a, b) = (cuts.0.min(data.len()), cuts.1.min(data.len()));
        let (lo, hi) = (a.min(b), a.max(b));
        let merged = [&data[..lo], &data[lo..hi], &data[hi..]]
            .iter()
            .fold(QuantileSketch::new(), |mut s, part| {
                s.merge(&QuantileSketch::from_values(part.to_vec()));
                s
            });
        prop_assert_eq!(&merged, &bulk);
        // Percentiles are bit-equal to the exact estimator over the
        // observations as the sketch stores them: NaN dropped, -0.0 as
        // +0.0.
        let stored: Vec<f64> = data
            .iter()
            .filter(|v| !v.is_nan())
            .map(|&v| if v == 0.0 { 0.0 } else { v })
            .collect();
        prop_assert_eq!(bulk.count(), stored.len() as u64);
        if stored.is_empty() {
            prop_assert!(bulk.percentile(50.0).is_err());
        }
        for q in [p, 0.0, 10.0, 50.0, 90.0, 100.0] {
            if let Ok(exact) = percentile(&stored, q) {
                prop_assert_eq!(
                    bulk.percentile(q).unwrap().to_bits(),
                    exact.to_bits(),
                    "q={}", q
                );
            }
        }
    }

    #[test]
    fn percentile_many_is_bitwise_percentile(
        data in finite_vec(1), p in 0.0f64..=100.0
    ) {
        let many =
            percentile_many(&data, &[p, 10.0, 50.0]).unwrap();
        for (q, v) in [(p, many[0]), (10.0, many[1]), (50.0, many[2])] {
            prop_assert_eq!(
                v.to_bits(),
                percentile(&data, q).unwrap().to_bits(),
                "q={}", q
            );
        }
    }
}

//! `JsonWriter::float` prints exactly the text `Display` prints.
//!
//! The writer computes the shortest round-trip digits itself in
//! integer arithmetic inside [2^-49, 2^53) and calls `write!` outside
//! it, so every report float's text rests on the two agreeing. Each
//! property draws one class of doubles where they could part: the
//! interval ends (powers of two, whose lower gap is halved; even and
//! odd mantissas, whose ends are in or out), the [2^50, 2^53) band where
//! a value can sit exactly between two shortest candidates, the ranks
//! and short decimals reports are full of, and the values outside the
//! window.
//!
//! The edge classes are sparse in a random draw, so `ci.sh` runs this
//! file once more in release with `PROPTEST_CASES=1000000`.

use energydx::JsonWriter;
use proptest::prelude::*;

/// Cases per property: `PROPTEST_CASES` when set, else 4096.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096)
}

fn written(v: f64) -> String {
    let mut w = JsonWriter::new();
    w.float(v);
    w.into_string()
}

/// `Display`'s text, made a JSON float: `.0` when it has no point,
/// `null` when it is not finite.
fn display(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let text = format!("{v}");
    if text.contains('.') {
        text
    } else {
        text + ".0"
    }
}

fn check(v: f64) {
    assert_eq!(written(v), display(v), "bits {:#018x}", v.to_bits());
}

/// A double from its sign, biased exponent and 52-bit mantissa field.
fn double(negative: bool, biased: u64, mantissa: u64) -> f64 {
    f64::from_bits(
        (u64::from(negative) << 63)
            | (biased << 52)
            | (mantissa & ((1 << 52) - 1)),
    )
}

/// Biased exponents of the exact window, [2^-49, 2^53).
const WINDOW: std::ops::Range<u64> = 974..1076;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn any_bit_pattern(bits in any::<u64>()) {
        check(f64::from_bits(bits));
    }

    #[test]
    fn random_mantissas_across_the_window(
        negative in any::<bool>(),
        biased in WINDOW,
        mantissa in any::<u64>(),
    ) {
        check(double(negative, biased, mantissa));
    }

    #[test]
    fn powers_of_two_and_their_neighbours(
        negative in any::<bool>(),
        biased in 1u64..2047,
    ) {
        // Below a power of two the rounding interval is half as wide,
        // which decides the digits from 2^-23 down.
        let power = double(negative, biased, 0).to_bits();
        for bits in [power - 1, power, power + 1] {
            check(f64::from_bits(bits));
        }
    }

    #[test]
    fn the_band_with_exact_ties(
        negative in any::<bool>(),
        biased in 1073u64..1076,
        mantissa in any::<u64>(),
    ) {
        // m / 4, m / 2 and m: a quarter or a half sits exactly between
        // two one-fraction-digit candidates.
        check(double(negative, biased, mantissa));
    }

    #[test]
    fn integers_and_half_integers(n in 0u64..(1 << 53), half in any::<bool>()) {
        // Step-2 ranks are average ranks: integers and half-integers,
        // small ones most of all.
        let small = (n % 100_000) as f64;
        for v in [n as f64, small] {
            check(v);
            check(v + 0.5 * f64::from(u8::from(half)));
        }
    }

    #[test]
    fn short_decimals(k in 0u64..100_000_000_000_000_000, j in 0i32..24) {
        // k / 10^j rounded to a double prints its short decimal back.
        let digits = k % 10u64.pow((k % 18) as u32 + 1);
        check(digits as f64 / 10f64.powi(j));
        check(-(digits as f64) * 10f64.powi(-j));
    }

    #[test]
    fn zeros_subnormals_and_non_finite(
        negative in any::<bool>(),
        mantissa in any::<u64>(),
        class in 0u8..4,
    ) {
        let v = match class {
            0 => double(negative, 0, 0),
            1 => double(negative, 0, mantissa),
            2 => double(negative, 2047, mantissa | 1),
            _ => double(negative, 2047, 0),
        };
        check(v);
    }
}

#[test]
fn an_exact_tie_rounds_up() {
    // 2^50 + 1/4 is as near 1125899906842624.2 as …3; Display (and so
    // the writer) takes the upper one, where round-half-even would not.
    let power = 2f64.powi(50);
    assert_eq!(written(power + 0.25), "1125899906842624.3");
    assert_eq!(written(power + 0.75), "1125899906842624.8");
}

#[test]
fn the_window_edges_print_display_text() {
    for v in [
        2f64.powi(-49),
        2f64.powi(-49).next_down(),
        2f64.powi(53),
        2f64.powi(53).next_down(),
        0.1,
        0.3,
        1.0,
        123.456,
        f64::MIN_POSITIVE,
        f64::MAX,
    ] {
        check(v);
        check(-v);
    }
}

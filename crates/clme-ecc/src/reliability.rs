//! The detected-uncorrectable-error (DUE) probability model of
//! Section IV-E.
//!
//! Synergy's trial-and-error correction can fail on a *single*-chip error
//! only when a wrong trial's recomputed 64-bit MAC collides with the
//! fetched MAC — probability ≈ (trials − 1) · 2⁻⁶⁴ ≈ 2⁻⁶¹ for its ten
//! trials. Counter-light doubles the trials (two MetaWord hypotheses) and
//! hence doubles that to ≈ 2⁻⁶⁰; the entropy filter recovers almost all
//! of the difference because ≥ 99.9% of wrong decryptions are flagged as
//! ciphertext, leaving ≈ 2⁻⁶¹ · (1 + 0.001).

/// Number of Synergy correction trials (8 data chips + MAC + parity).
pub const SYNERGY_TRIALS: u32 = 10;

/// MAC tag width in bits.
pub const MAC_BITS: u32 = 64;

/// Probability that at least one *wrong* trial's MAC collides, for a
/// given number of trials: `(trials − 1) · 2⁻⁶⁴` (union bound; one trial
/// is the correct one).
pub fn ambiguous_match_probability(trials: u32) -> f64 {
    (trials.saturating_sub(1)) as f64 * (2.0f64).powi(-(MAC_BITS as i32))
}

/// Synergy's single-chip DUE probability (≈ 2⁻⁶¹ in the paper's
/// round numbers).
pub fn synergy_due_probability() -> f64 {
    ambiguous_match_probability(SYNERGY_TRIALS)
}

/// Counter-light's single-chip DUE probability without the entropy
/// filter: trials double, so the probability doubles (≈ 2⁻⁶⁰).
pub fn counter_light_due_probability() -> f64 {
    ambiguous_match_probability(2 * SYNERGY_TRIALS)
}

/// Counter-light's single-chip DUE probability with the entropy filter,
/// given the measured probability that a wrong decryption *escapes* the
/// filter (paper: ≤ 0.1%): the extra trials only hurt when the wrong
/// match also fools the filter.
pub fn counter_light_due_with_entropy_filter(wrong_escape_probability: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&wrong_escape_probability),
        "probability must be in [0,1]"
    );
    synergy_due_probability() * (1.0 + wrong_escape_probability)
}

/// Empirical validation of the union-bound DUE model with *reduced-width*
/// tags: 2⁻⁶⁴ collisions cannot be observed directly, so we shrink the
/// tag to `tag_bits` and measure how often a wrong correction trial's tag
/// collides, comparing against `(trials − 1) · 2^-tag_bits`. The paper's
/// probabilities are the same formula evaluated at 64 bits.
pub fn measure_ambiguity_rate(
    trials_per_correction: u32,
    tag_bits: u32,
    samples: u32,
    seed: u64,
) -> f64 {
    assert!(tag_bits <= 24, "keep the experiment tractable");
    assert!(trials_per_correction >= 1);
    let mut rng = clme_types::rng::Xoshiro256::seed_from(seed);
    let mask = (1u64 << tag_bits) - 1;
    let mut ambiguous = 0u32;
    for _ in 0..samples {
        // The correct trial matches by construction; each of the other
        // trials recomputes an (effectively random) tag over garbage data.
        let stored_tag = rng.next_u64() & mask;
        let mut collided = false;
        for _ in 0..trials_per_correction - 1 {
            if rng.next_u64() & mask == stored_tag {
                collided = true;
            }
        }
        if collided {
            ambiguous += 1;
        }
    }
    ambiguous as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synergy_matches_paper_order_of_magnitude() {
        let p = synergy_due_probability();
        // 9 · 2⁻⁶⁴ ≈ 2⁻⁶⁰·⁸ — the paper rounds to 2⁻⁶¹.
        assert!(p > (2.0f64).powi(-62));
        assert!(p < (2.0f64).powi(-60));
    }

    #[test]
    fn counter_light_doubles_synergy() {
        let ratio = counter_light_due_probability() / synergy_due_probability();
        // 19/9 ≈ 2.11 — the paper describes this as "doubling".
        assert!((2.0..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn entropy_filter_recovers_baseline() {
        let filtered = counter_light_due_with_entropy_filter(0.001);
        let baseline = synergy_due_probability();
        assert!((filtered / baseline - 1.001).abs() < 1e-9);
        // Perfect filter would exactly match the baseline.
        assert_eq!(counter_light_due_with_entropy_filter(0.0), baseline);
    }

    #[test]
    fn monotone_in_trials() {
        assert!(ambiguous_match_probability(20) > ambiguous_match_probability(10));
        assert_eq!(ambiguous_match_probability(1), 0.0);
        assert_eq!(ambiguous_match_probability(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_escape_probability_panics() {
        let _ = counter_light_due_with_entropy_filter(1.5);
    }

    #[test]
    fn monte_carlo_matches_union_bound_at_reduced_width() {
        // With 10-bit tags and Synergy's 10 trials the model predicts
        // 9/1024 ≈ 0.88%; with Counter-light's 20 trials, 19/1024 ≈ 1.86%.
        let synergy = measure_ambiguity_rate(SYNERGY_TRIALS, 10, 200_000, 11);
        let light = measure_ambiguity_rate(2 * SYNERGY_TRIALS, 10, 200_000, 12);
        let predict = |trials: u32| (trials - 1) as f64 / 1024.0;
        assert!(
            (synergy - predict(SYNERGY_TRIALS)).abs() < 0.002,
            "synergy {synergy}"
        );
        assert!(
            (light - predict(2 * SYNERGY_TRIALS)).abs() < 0.002,
            "light {light}"
        );
        // And the doubling relationship holds empirically.
        let ratio = light / synergy;
        assert!((1.8..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "tractable")]
    fn huge_tag_width_rejected() {
        let _ = measure_ambiguity_rate(10, 60, 10, 0);
    }
}

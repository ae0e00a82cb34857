//! FastPPV configuration.

/// Tunables shared by the offline and online phases.
///
/// Defaults follow the paper: `α = 0.15` (§6, "typical teleporting
/// probability"), `ε = 1e-8` (§5.1, prime-subgraph prune threshold),
/// `δ = 0.005` (§5.2, border-hub expansion threshold), storage clip `1e-4`
/// (§6, applied to all methods).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Config {
    /// Teleport probability `α ∈ (0, 1)`.
    pub alpha: f64,
    /// Prime-subgraph prune threshold `ε`: the depth-first expansion
    /// backtracks at nodes whose best hub-free walk probability is below it.
    pub epsilon: f64,
    /// Border-hub expansion threshold `δ`: a hub is expanded in iteration
    /// `i` only if the previous increment gives it more mass than this. It
    /// is also the residual a *query-time* prime-0 solve may leave
    /// un-pushed (see [`crate::prime`]): the increment loop forfeits up to
    /// `(1-α)/α · δ` per skipped hub, the solve at most `δ` once, and `φ`
    /// reports both. `δ = 0` makes every query-time solve exact.
    pub delta: f64,
    /// Entries below this are dropped when prime PPVs are stored offline.
    pub clip: f64,
    /// Per-node residual threshold of the prime-PPV solve, and the only
    /// exit of the *stored* family (offline build, exact recompute): at
    /// most `tolerance × |interior nodes|` mass is left unsettled.
    pub solve_tolerance: f64,
    /// Safety cap on solve work, in units of pushes per interior node.
    pub solve_max_iterations: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            alpha: 0.15,
            epsilon: 1e-8,
            delta: 0.005,
            clip: 1e-4,
            solve_tolerance: 1e-12,
            solve_max_iterations: 300,
        }
    }
}

impl Config {
    /// A configuration with everything exact-ish: no clipping, no border-hub
    /// filtering, very deep prime subgraphs. Used by correctness tests.
    pub fn exhaustive() -> Self {
        Config {
            alpha: 0.15,
            epsilon: 1e-14,
            delta: 0.0,
            clip: 0.0,
            solve_tolerance: 1e-15,
            solve_max_iterations: 2_000,
        }
    }

    /// Sets `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets `δ`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the storage clip threshold.
    pub fn with_clip(mut self, clip: f64) -> Self {
        self.clip = clip;
        self
    }

    /// Panics if any parameter is out of its valid range.
    pub fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "alpha must be in (0, 1), got {}",
            self.alpha
        );
        assert!(self.epsilon >= 0.0 && self.epsilon < 1.0);
        assert!(self.delta >= 0.0 && self.delta < 1.0);
        assert!(self.clip >= 0.0 && self.clip < 1.0);
        assert!(self.solve_tolerance > 0.0);
        assert!(self.solve_max_iterations > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = Config::default();
        assert_eq!(c.alpha, 0.15);
        assert_eq!(c.epsilon, 1e-8);
        assert_eq!(c.delta, 0.005);
        assert_eq!(c.clip, 1e-4);
        c.validate();
    }

    #[test]
    fn builder_methods_chain() {
        let c = Config::default()
            .with_alpha(0.2)
            .with_epsilon(1e-6)
            .with_delta(0.01)
            .with_clip(0.0);
        assert_eq!(c.alpha, 0.2);
        assert_eq!(c.epsilon, 1e-6);
        assert_eq!(c.delta, 0.01);
        assert_eq!(c.clip, 0.0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn validate_rejects_bad_alpha() {
        Config::default().with_alpha(1.5).validate();
    }

    #[test]
    fn exhaustive_is_valid() {
        Config::exhaustive().validate();
    }
}

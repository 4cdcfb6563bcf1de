//! Automated design-space exploration (§4.3): feature selection, action
//! pruning, and reward/hyperparameter grid search.
//!
//! The paper ran these searches over 150 traces on a ten-machine cluster
//! (44 hours); this module implements the same *procedures* generically
//! over a batch objective `eval: round of candidates → one score each`, so
//! `pythia-cli dse` can score each round as one scaled-down simulation
//! campaign (Table 2 / Fig. 19 regeneration) and tests can plug in
//! synthetic objectives.

use crate::features::Feature;

/// Result of a search: the winning candidate and its score.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult<T> {
    /// The best candidate found.
    pub winner: T,
    /// Its objective score (higher is better).
    pub score: f64,
    /// Every evaluated `(candidate, score)` pair, in evaluation order —
    /// Fig. 19 plots exactly this.
    pub evaluated: Vec<(T, f64)>,
}

/// §4.3.1 feature selection: scores every one-feature and two-feature
/// combination from `candidates` as one round and returns the winner.
///
/// `eval` is a batch objective: it scores a whole round of candidates at
/// once, one score per candidate in order, so a round can fan out over a
/// worker pool. (The paper also explores three-feature combinations via
/// linear regression pre-filtering; pass a pre-filtered candidate list to
/// keep the cubic term tractable.)
pub fn select_features(
    candidates: &[Feature],
    mut eval: impl FnMut(&[Vec<Feature>]) -> Vec<f64>,
) -> SearchResult<Vec<Feature>> {
    let mut round = Vec::new();
    for (i, &f) in candidates.iter().enumerate() {
        round.push(vec![f]);
        round.extend(candidates[i + 1..].iter().map(|&g| vec![f, g]));
    }
    pick_best(score(round, &mut eval))
}

/// §4.3.2 action pruning: starting from `full`, repeatedly drops the action
/// whose removal costs the least performance, while the loss against the
/// full list stays within `tolerance` (relative). Returns the pruned list.
/// Each pruning step is one round of the batch objective `eval`.
pub fn prune_actions(
    full: &[i32],
    tolerance: f64,
    mut eval: impl FnMut(&[Vec<i32>]) -> Vec<f64>,
) -> SearchResult<Vec<i32>> {
    let base = score(vec![full.to_vec()], &mut eval)[0].1;
    let mut current: Vec<i32> = full.to_vec();
    let mut evaluated = vec![(current.clone(), base)];
    while current.len() > 1 {
        // Never prune the no-prefetch action.
        let round: Vec<Vec<i32>> = (0..current.len())
            .filter(|&i| current[i] != 0)
            .map(|i| {
                let mut cand = current.clone();
                cand.remove(i);
                cand
            })
            .collect();
        if round.is_empty() {
            break;
        }
        let best = pick_best(score(round, &mut eval));
        if best.score >= base * (1.0 - tolerance) {
            current = best.winner;
            evaluated.push((current.clone(), best.score));
        } else {
            break;
        }
    }
    SearchResult {
        winner: current,
        score: evaluated.last().map_or(base, |(_, s)| *s),
        evaluated,
    }
}

/// One point of the §4.3.3 hyperparameter grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperPoint {
    /// Learning rate α.
    pub alpha: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Exploration rate ε.
    pub epsilon: f32,
}

/// The exponential grid of §4.3.3: each hyperparameter takes values
/// `1e0, 1e-1, ..., 1e-(levels-1)`, yielding `levels³` points.
pub fn exponential_grid(levels: u32) -> Vec<HyperPoint> {
    let values: Vec<f32> = (0..levels).map(|i| 10f32.powi(-(i as i32))).collect();
    let mut out = Vec::with_capacity(values.len().pow(3));
    for &alpha in &values {
        for &gamma in &values {
            for &epsilon in &values {
                // γ must stay below 1 for Q-init; clamp the 1e0 level.
                out.push(HyperPoint {
                    alpha,
                    gamma: gamma.min(0.9),
                    epsilon,
                });
            }
        }
    }
    out
}

/// §4.3.3 two-phase tuning: scores every grid point with the (cheap)
/// `screen` objective, keeps the `top_k`, then re-scores those with the
/// (expensive) `confirm` objective and returns the winner. Each phase is
/// one round of its batch objective.
pub fn grid_search(
    grid: &[HyperPoint],
    top_k: usize,
    mut screen: impl FnMut(&[HyperPoint]) -> Vec<f64>,
    mut confirm: impl FnMut(&[HyperPoint]) -> Vec<f64>,
) -> SearchResult<HyperPoint> {
    let mut screened = score(grid.to_vec(), &mut screen);
    screened.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    screened.truncate(top_k.max(1));
    let survivors = screened.into_iter().map(|(p, _)| p).collect();
    pick_best(score(survivors, &mut confirm))
}

/// Scores one round with a batch objective, pairing each candidate with
/// its score in evaluation order.
fn score<C>(round: Vec<C>, eval: &mut impl FnMut(&[C]) -> Vec<f64>) -> Vec<(C, f64)> {
    let scores = eval(&round);
    assert_eq!(scores.len(), round.len(), "one score per candidate");
    round.into_iter().zip(scores).collect()
}

/// The best-scoring candidate; among equal scores, the first evaluated.
fn pick_best<T: Clone>(evaluated: Vec<(T, f64)>) -> SearchResult<T> {
    let (winner, score) = evaluated
        .iter()
        .reduce(|best, c| if c.1 > best.1 { c } else { best })
        .cloned()
        .expect("at least one candidate evaluated");
    SearchResult {
        winner,
        score,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{ControlFlow, DataFlow};

    /// Lifts a per-candidate objective into a batch objective.
    fn each<C>(f: impl Fn(&C) -> f64) -> impl FnMut(&[C]) -> Vec<f64> {
        move |round| round.iter().map(&f).collect()
    }

    #[test]
    fn select_features_finds_known_best_pair() {
        let candidates = Feature::all();
        // Synthetic objective: the paper's winning pair scores highest.
        let mut objective = each(|fs: &Vec<Feature>| {
            let mut s = fs.len() as f64 * 0.1;
            if fs.contains(&Feature {
                control: ControlFlow::Pc,
                data: DataFlow::Delta,
            }) {
                s += 1.0;
            }
            if fs.contains(&Feature {
                control: ControlFlow::Pc,
                data: DataFlow::PageNumber,
            }) {
                s += 0.5;
            }
            s
        });
        let mut rounds = 0;
        let result = select_features(&candidates[..8], |round| {
            rounds += 1;
            objective(round)
        });
        assert_eq!(result.winner.len(), 2);
        assert!(result.winner.contains(&Feature {
            control: ControlFlow::Pc,
            data: DataFlow::Delta
        }));
        // 8 singles + 28 pairs evaluated, as one round.
        assert_eq!(result.evaluated.len(), 8 + 28);
        assert_eq!(rounds, 1);
    }

    #[test]
    fn ties_go_to_the_first_candidate_evaluated() {
        let candidates = &Feature::all()[..4];
        let result = select_features(candidates, each(|_: &Vec<Feature>| 0.929));
        assert_eq!(result.winner, vec![candidates[0]]);

        let grid = exponential_grid(3);
        let result = grid_search(&grid, 5, each(|_: &HyperPoint| 1.0), each(|_| 1.0));
        assert_eq!(result.winner, grid[0]);

        let result = prune_actions(&[0, 1, 2, 3], 0.05, each(|_: &Vec<i32>| 1.0));
        assert_eq!(result.evaluated[1].0, vec![0, 2, 3], "drops the first tie");
        assert_eq!(result.winner, vec![0]);
    }

    #[test]
    fn prune_actions_drops_useless_offsets() {
        let full: Vec<i32> = (-4..=4).collect();
        // Objective: only offsets {0, 1, 2} matter; others are free to drop.
        let result = prune_actions(
            &full,
            0.01,
            each(|acts: &Vec<i32>| acts.iter().filter(|&&a| a == 1 || a == 2).count() as f64),
        );
        assert!(result.winner.contains(&1));
        assert!(result.winner.contains(&2));
        assert!(result.winner.contains(&0), "no-prefetch is never pruned");
        assert!(result.winner.len() < full.len());
    }

    #[test]
    fn prune_respects_tolerance() {
        let full = vec![0, 1, 2, 3];
        // Every action contributes equally; any drop loses 25%.
        let result = prune_actions(&full, 0.05, each(|acts: &Vec<i32>| acts.len() as f64));
        assert_eq!(result.winner, full, "5% tolerance cannot absorb a 25% loss");
    }

    #[test]
    fn exponential_grid_has_levels_cubed_points() {
        let grid = exponential_grid(10);
        assert_eq!(grid.len(), 1000);
        assert!(grid.iter().all(|p| p.gamma < 1.0));
    }

    #[test]
    fn grid_search_two_phase() {
        let grid = exponential_grid(5);
        let target = HyperPoint {
            alpha: 1e-2,
            gamma: 1e-1,
            epsilon: 1e-3,
        };
        let dist = |p: &HyperPoint| {
            -(((p.alpha.log10() - target.alpha.log10()).powi(2)
                + (p.gamma.log10() - target.gamma.log10()).powi(2)
                + (p.epsilon.log10() - target.epsilon.log10()).powi(2)) as f64)
        };
        let result = grid_search(&grid, 25, each(dist), each(dist));
        assert!((result.winner.alpha - target.alpha).abs() < 1e-6);
        assert!((result.winner.epsilon - target.epsilon).abs() < 1e-6);
        assert_eq!(result.evaluated.len(), 25);
    }
}

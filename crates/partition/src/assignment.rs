//! Maximum-benefit assignment via the auction algorithm (Bertsekas) with
//! ε-scaling — the "more efficient mapping methods (based on weighted graph
//! matchings)" the paper leaves as future work for SCOTCH-P's
//! part-to-processor coupling.
//!
//! Given an `n × n` benefit matrix, finds a perfect assignment maximising the
//! total benefit; with integer benefits and final `ε < 1/n` the result is
//! optimal.

/// Solve the assignment problem for a row-major `n × n` benefit matrix.
/// Returns `assign[person] = object` maximising `Σ benefit[p][assign[p]]`.
pub(crate) fn auction_assignment(benefit: &[i64], n: usize) -> Vec<u32> {
    assert_eq!(benefit.len(), n * n);
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![0];
    }
    // scale benefits by (n+1) so integer ε-scaling terminates at ε = 1 with
    // a guaranteed-optimal assignment
    let scale = (n as i64) + 1;
    let b = |p: usize, q: usize| benefit[p * n + q] * scale;

    let bmax = benefit.iter().copied().max().unwrap_or(0).max(1);
    let mut eps = (bmax * scale / 2).max(1);
    let mut price = vec![0i64; n];
    let mut assign: Vec<i64> = vec![-1; n]; // person → object
    let mut owner: Vec<i64> = vec![-1; n]; // object → person

    loop {
        assign.fill(-1);
        owner.fill(-1);
        // auction rounds at this ε
        let mut unassigned: Vec<usize> = (0..n).collect();
        while let Some(p) = unassigned.pop() {
            // best and second-best net value for person p
            let mut best_q = 0usize;
            let mut best_v = i64::MIN;
            let mut second_v = i64::MIN;
            for q in 0..n {
                let v = b(p, q) - price[q];
                if v > best_v {
                    second_v = best_v;
                    best_v = v;
                    best_q = q;
                } else if v > second_v {
                    second_v = v;
                }
            }
            // bid: raise the price by the value margin + ε
            let raise = best_v - second_v + eps;
            price[best_q] += raise;
            if owner[best_q] >= 0 {
                let evicted = owner[best_q] as usize;
                assign[evicted] = -1;
                unassigned.push(evicted);
            }
            owner[best_q] = p as i64;
            assign[p] = best_q as i64;
        }
        if eps <= 1 {
            break;
        }
        eps = (eps / 4).max(1);
    }
    assign.into_iter().map(|q| q as u32).collect()
}

/// The greedy max-affinity coupling the paper uses (sort all pairs, take
/// greedily) — kept for comparison.
pub(crate) fn greedy_assignment(benefit: &[i64], n: usize) -> Vec<u32> {
    let mut entries: Vec<(i64, u32, u32)> = Vec::with_capacity(n * n);
    for p in 0..n {
        for q in 0..n {
            entries.push((benefit[p * n + q], p as u32, q as u32));
        }
    }
    entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
    let mut assign = vec![u32::MAX; n];
    let mut used = vec![false; n];
    let mut done = 0;
    for &(_, p, q) in &entries {
        if assign[p as usize] != u32::MAX || used[q as usize] {
            continue;
        }
        assign[p as usize] = q;
        used[q as usize] = true;
        done += 1;
        if done == n {
            break;
        }
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Total benefit of an assignment.
    fn assignment_benefit(benefit: &[i64], n: usize, assign: &[u32]) -> i64 {
        (0..n).map(|p| benefit[p * n + assign[p] as usize]).sum()
    }

    fn brute_force(benefit: &[i64], n: usize) -> i64 {
        fn rec(benefit: &[i64], n: usize, p: usize, used: &mut Vec<bool>) -> i64 {
            if p == n {
                return 0;
            }
            let mut best = i64::MIN;
            for q in 0..n {
                if !used[q] {
                    used[q] = true;
                    best = best.max(benefit[p * n + q] + rec(benefit, n, p + 1, used));
                    used[q] = false;
                }
            }
            best
        }
        rec(benefit, n, 0, &mut vec![false; n])
    }

    #[test]
    fn auction_is_optimal_small_random() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for n in 2..=7 {
            for _ in 0..10 {
                let benefit: Vec<i64> = (0..n * n).map(|_| rng.gen_range(0..100)).collect();
                let a = auction_assignment(&benefit, n);
                // valid permutation
                let mut seen = vec![false; n];
                for &q in &a {
                    assert!(!seen[q as usize]);
                    seen[q as usize] = true;
                }
                assert_eq!(
                    assignment_benefit(&benefit, n, &a),
                    brute_force(&benefit, n),
                    "n = {n}, benefit {benefit:?}"
                );
            }
        }
    }

    #[test]
    fn auction_at_least_as_good_as_greedy() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..10 {
            let n = 20;
            let benefit: Vec<i64> = (0..n * n).map(|_| rng.gen_range(0..1000)).collect();
            let a = auction_assignment(&benefit, n);
            let g = greedy_assignment(&benefit, n);
            assert!(assignment_benefit(&benefit, n, &a) >= assignment_benefit(&benefit, n, &g));
        }
    }

    #[test]
    fn greedy_beaten_on_adversarial_case() {
        // classic greedy trap: taking the single largest entry forces a bad
        // completion
        //   [10  9]
        //   [ 9  0]
        let benefit = vec![10, 9, 9, 0];
        let g = greedy_assignment(&benefit, 2);
        let a = auction_assignment(&benefit, 2);
        assert_eq!(assignment_benefit(&benefit, 2, &g), 10); // picks (0,0),(1,1)
        assert_eq!(assignment_benefit(&benefit, 2, &a), 18); // optimal cross
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(auction_assignment(&[], 0), Vec::<u32>::new());
        assert_eq!(auction_assignment(&[5], 1), vec![0]);
    }

    #[test]
    fn handles_uniform_benefits() {
        let benefit = vec![3i64; 16];
        let a = auction_assignment(&benefit, 4);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }
}

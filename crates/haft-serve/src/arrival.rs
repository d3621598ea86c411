//! Arrival processes: how request traffic is offered to the service.

use haft_ir::rng::Prng;

use crate::ServeConfig;

/// How clients offer load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalMode {
    /// Open loop: requests arrive on a Poisson process at `rate_rps`
    /// regardless of completions — the YCSB/mcblaster shape, and the only
    /// honest way to observe queueing collapse (a closed loop self-limits
    /// and hides it, the "coordinated omission" trap).
    OpenLoop { rate_rps: f64 },
    /// Closed loop: `clients` concurrent clients, each issuing its next
    /// request `think_ns` after the previous reply. Throughput is then
    /// *measured*, not offered — the mode to use for capacity numbers.
    ClosedLoop { clients: usize, think_ns: u64 },
}

/// Deterministic Poisson arrival-time generator (exponential gaps via
/// inverse CDF over the seeded [`Prng`]).
pub struct PoissonArrivals {
    rng: Prng,
    mean_gap_ns: f64,
    clock_ns: f64,
}

impl PoissonArrivals {
    /// Arrivals at `rate_rps` requests per second, starting at time 0.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate.
    pub fn new(seed: u64, rate_rps: f64) -> Self {
        assert!(rate_rps > 0.0, "open-loop arrival rate must be positive, got {rate_rps}");
        PoissonArrivals { rng: Prng::new(seed), mean_gap_ns: 1e9 / rate_rps, clock_ns: 0.0 }
    }

    /// The next arrival timestamp in nanoseconds.
    pub fn next_ns(&mut self) -> u64 {
        // Exponential inter-arrival: -ln(U) * mean. Clamp U away from 0.
        let u = self.rng.unit_f64().max(1e-12);
        self.clock_ns += -u.ln() * self.mean_gap_ns;
        self.clock_ns as u64
    }
}

/// Seeds `cfg`'s arrival process, for either driver: `issue(at_ns)` draws
/// the next client request group at virtual time `at_ns` and returns the
/// operations it issued (0 once the budget is spent).
///
/// An open loop takes one Poisson draw per *operation*: a multi-key group
/// arrives at the draw of its first operation and consumes one more draw
/// per further operation, so the arrival times do not depend on how the
/// stream is grouped into sagas. A closed loop issues one group per client
/// at time 0; the drivers issue the rest as batches free clients.
pub fn seed_arrivals(cfg: &ServeConfig, mut issue: impl FnMut(u64) -> usize) {
    match cfg.arrival {
        ArrivalMode::OpenLoop { rate_rps } => {
            let mut poisson = PoissonArrivals::new(cfg.seed ^ 0x0A88_17A1, rate_rps);
            // Draws still owed by the latest group's further operations.
            let mut owed = 0;
            for _ in 0..cfg.requests {
                let t = poisson.next_ns();
                owed = match owed {
                    0 => issue(t).saturating_sub(1),
                    n => n - 1,
                };
            }
        }
        ArrivalMode::ClosedLoop { clients, .. } => {
            for _ in 0..clients.max(1) {
                if issue(0) == 0 {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SagaLoad, TrafficSource};

    #[test]
    fn poisson_mean_gap_matches_rate() {
        // 1M rps -> 1000 ns mean gap.
        let mut a = PoissonArrivals::new(42, 1_000_000.0);
        let n = 20_000;
        let mut last = 0;
        for _ in 0..n {
            last = a.next_ns();
        }
        let mean = last as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 50.0, "mean gap {mean} ns");
    }

    #[test]
    fn poisson_is_seed_deterministic_and_monotone() {
        let mut a = PoissonArrivals::new(7, 50_000.0);
        let mut b = PoissonArrivals::new(7, 50_000.0);
        let xs: Vec<u64> = (0..500).map(|_| a.next_ns()).collect();
        let ys: Vec<u64> = (0..500).map(|_| b.next_ns()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).all(|w| w[0] <= w[1]), "arrival times are non-decreasing");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_is_rejected() {
        PoissonArrivals::new(1, 0.0);
    }

    /// Seeds `cfg` from a [`TrafficSource`] grouped by `sagas` and returns
    /// `(at_ns, operations)` per issued group, and the calls that found the
    /// budget spent.
    fn issued_groups(cfg: &ServeConfig, sagas: Option<SagaLoad>) -> (Vec<(u64, usize)>, usize) {
        let mut src = TrafficSource::new(cfg.seed, 1000, cfg.mix, cfg.requests, sagas);
        let (mut groups, mut spent) = (Vec::new(), 0);
        seed_arrivals(cfg, |at_ns| {
            let n = src.next_group(at_ns).len();
            match n {
                0 => spent += 1,
                n => groups.push((at_ns, n)),
            }
            n
        });
        (groups, spent)
    }

    #[test]
    fn an_open_loop_takes_one_draw_per_operation() {
        let cfg = ServeConfig {
            requests: 50,
            arrival: ArrivalMode::OpenLoop { rate_rps: 100_000.0 },
            ..Default::default()
        };
        let mut poisson = PoissonArrivals::new(cfg.seed ^ 0x0A88_17A1, 100_000.0);
        let draws: Vec<u64> = (0..cfg.requests).map(|_| poisson.next_ns()).collect();
        let saga = |every, span| Some(SagaLoad { every, span });
        for sagas in [None, saga(3, 4), saga(1, 3)] {
            let (groups, spent) = issued_groups(&cfg, sagas);
            assert_eq!(spent, 0, "{sagas:?}: issued past the budget");
            assert_eq!(groups.iter().map(|&(_, n)| n).sum::<usize>(), cfg.requests);
            // Each group arrives at the draw of its first operation.
            let mut first = 0;
            for &(at_ns, n) in &groups {
                assert_eq!(at_ns, draws[first], "{sagas:?}, group at operation {first}");
                first += n;
            }
        }
        assert_eq!(issued_groups(&cfg, saga(1, 3)).0.len(), 17, "16 groups of 3, then 2 ops");
    }

    #[test]
    fn a_closed_loop_issues_one_group_per_client_within_the_budget() {
        let closed = |clients, requests| ServeConfig {
            requests,
            arrival: ArrivalMode::ClosedLoop { clients, think_ns: 0 },
            ..Default::default()
        };
        for (clients, requests, groups) in [(8, 100, 8), (8, 5, 5), (0, 5, 1)] {
            let (issued, _) = issued_groups(&closed(clients, requests), None);
            assert_eq!(issued, vec![(0, 1); groups], "{clients} clients, {requests} requests");
        }
        // Groups of three: the budget of 7 runs out at the third client.
        let sagas = Some(SagaLoad { every: 1, span: 3 });
        assert_eq!(issued_groups(&closed(8, 7), sagas).0, [(0, 3), (0, 3), (0, 1)]);
    }
}

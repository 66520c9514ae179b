//! What each workload runs on, and how `--seed` shapes it.
//!
//! Library workloads run on the repo's paper-analogue circuits at fixed
//! scales. The seed does not redraw the circuits (across profile seeds
//! `lc_after` moves by ±5 % and wall time by ±10 %, which would drown
//! every bound); it relabels them: primary inputs and nodes are declared
//! in a seeded random order, so signal ids, cube order, kernel
//! enumeration order and every tie-break change while names, functions
//! and literal counts stay. A change that only wins on one labelling of
//! the inputs shows up on a held-out seed.
//!
//! The service workload draws its request sequence by seed from a fixed
//! universe of `(algorithm, profile, scale)` jobs.

/// SplitMix64 (Steele, Lea, Flood 2014): the benchmark's only source of
/// randomness.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated circuit: a paper profile at a scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CircuitSpec {
    pub profile: &'static str,
    pub scale: f64,
}

impl CircuitSpec {
    pub fn label(&self) -> String {
        format!("{}@{}", self.profile, self.scale)
    }
}

const fn spec(profile: &'static str, scale: f64) -> CircuitSpec {
    CircuitSpec { profile, scale }
}

/// Which program entry point a library workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    SeqDefault,
    SeqTuned,
    Replicated,
    Independent,
    Lshaped,
    Dist,
}

impl Driver {
    /// Whether two runs on the same input must give the same output.
    pub fn deterministic(self) -> bool {
        self != Driver::Lshaped
    }

    /// Whether the driver is `extract_kernels` (the stepwise engine can
    /// stand in for it) rather than a parallel driver.
    pub fn is_seq(self) -> bool {
        matches!(self, Driver::SeqDefault | Driver::SeqTuned)
    }

    /// Compute threads the driver is asked for.
    pub fn threads(self) -> usize {
        if self.is_seq() {
            1
        } else {
            2
        }
    }
}

/// What a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Library {
        driver: Driver,
        circuits: &'static [CircuitSpec],
    },
    Service,
}

/// A named workload with the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

impl Workload {
    /// Load-generating or compute threads the workload needs at once.
    pub fn threads(&self) -> usize {
        match self.kind {
            Kind::Library { driver, .. } => driver.threads(),
            Kind::Service => SERVICE_CONNECTIONS.max(SERVICE_WORKERS),
        }
    }
}

const SMALL_RECTS: &[CircuitSpec] = &[spec("ex1010", 0.25), spec("misex3", 1.0)];
const LARGE_RECTS: &[CircuitSpec] = &[spec("dalu", 2.0), spec("des", 2.0), spec("seq", 1.0)];
const PARALLEL: &[CircuitSpec] = &[spec("des", 2.0), spec("ex1010", 0.25)];

/// Every workload, in the order they run. Later issues refer to these
/// names; `BENCHMARK.json` repeats the names and reasons.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "seq_default",
        why: "extract_kernels with defaults on many-small-rectangle circuits: rectangle search is most of the wall",
        kind: Kind::Library { driver: Driver::SeqDefault, circuits: SMALL_RECTS },
    },
    Workload {
        name: "seq_tuned",
        why: "best-known seq settings (tiled, top-16) on few-large-rectangle circuits: apply and matrix build dominate",
        kind: Kind::Library { driver: Driver::SeqTuned, circuits: LARGE_RECTS },
    },
    Workload {
        name: "alg_r_p2",
        why: "paper Table 2, Algorithm R at p=2: every replica repeats apply and matrix update",
        kind: Kind::Library { driver: Driver::Replicated, circuits: PARALLEL },
    },
    Workload {
        name: "alg_i_p2",
        why: "paper Table 3, Algorithm I at p=2: partition, independent extraction, merge; fast at a literal cost",
        kind: Kind::Library { driver: Driver::Independent, circuits: PARALLEL },
    },
    Workload {
        name: "alg_l_p2",
        why: "paper Tables 4/6, Algorithm L at p=2: shared cube-state protocol, shipped rectangles, schedule-dependent output",
        kind: Kind::Library { driver: Driver::Lshaped, circuits: PARALLEL },
    },
    Workload {
        name: "dist_w2",
        why: "lease engine over 2 local workers with boundary recovery: the only user of resub and the lease ledger",
        kind: Kind::Library { driver: Driver::Dist, circuits: PARALLEL },
    },
    Workload {
        name: "serve_mix",
        why: "TCP service, 2 closed-loop connections, 300+ distinct jobs over a 64-entry cache: hits beside misses",
        kind: Kind::Service,
    },
];

pub fn workload_by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ---- serve_mix ----

/// Closed-loop client connections.
pub const SERVICE_CONNECTIONS: usize = 2;
/// Worker threads the service is started with.
pub const SERVICE_WORKERS: usize = 2;
/// Capacity of the service's result cache; the universe is five times
/// larger so most requests miss.
pub const SERVICE_CACHE_ENTRIES: usize = 64;
/// Jobs in the hot set, and the share of requests drawn from it.
pub const HOT_SET: usize = 16;
pub const HOT_SHARE_PCT: usize = 20;
/// Candidate scales per profile: 0.10, 0.11, … 0.57. Neighbouring
/// scales sometimes generate the same circuit, which the cache would
/// alias; set-up keeps one candidate per distinct circuit and requires
/// [`MIN_SERVICE_CIRCUITS`] of them.
pub const SERVICE_SCALES: usize = 48;
pub const SERVICE_PROFILES: [&str; 2] = ["misex3", "dalu"];
/// At least 300 jobs over the four algorithms.
pub const MIN_SERVICE_CIRCUITS: usize = 75;

/// Wire names of the four algorithms with the percentage of requests
/// that ask for each.
pub const SERVICE_ALGORITHMS: [(&str, usize); 4] = [
    ("seq", 55),
    ("replicated", 15),
    ("independent", 15),
    ("lshaped", 15),
];

/// The candidate circuits of the service universe, in a fixed order.
pub fn service_candidates() -> Vec<CircuitSpec> {
    let scales = (0..SERVICE_SCALES).map(|k| (10 + k) as f64 / 100.0);
    SERVICE_PROFILES
        .iter()
        .flat_map(|&profile| scales.clone().map(move |scale| spec(profile, scale)))
        .collect()
}

/// One job of the service universe.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceJob {
    pub algorithm: &'static str,
    pub circuit: CircuitSpec,
}

impl ServiceJob {
    pub fn workload_spec(circuit: &CircuitSpec) -> String {
        format!("gen:{}@{:.2}", circuit.profile, circuit.scale)
    }

    pub fn request_line(&self) -> String {
        format!(
            "{{\"op\":\"submit\",\"algorithm\":\"{}\",\"workload\":\"{}\",\"procs\":1}}",
            self.algorithm,
            Self::workload_spec(&self.circuit)
        )
    }
}

/// The universe over the distinct circuits: every algorithm on every
/// circuit, grouped by algorithm (job `a * circuits.len() + c`).
pub fn service_universe(circuits: &[CircuitSpec]) -> Vec<ServiceJob> {
    let jobs = SERVICE_ALGORITHMS.iter().flat_map(|&(algorithm, _)| {
        circuits
            .iter()
            .map(move |&circuit| ServiceJob { algorithm, circuit })
    });
    jobs.collect()
}

/// An endless, seeded request stream over the universe: job indices as
/// in [`service_universe`]. The seed alone draws the hot set, so every
/// connection shares it; seed and connection number draw the requests.
/// Each request picks an algorithm by weight and a circuit from the hot
/// set of that algorithm (with [`HOT_SHARE_PCT`]) or from the rest.
pub struct RequestStream {
    rng: SplitMix64,
    hot: Vec<Vec<usize>>,
    cold: Vec<Vec<usize>>,
}

impl RequestStream {
    pub fn new(seed: u64, connection: usize, circuits: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5e21_7e00);
        let (mut hot, mut cold) = (Vec::new(), Vec::new());
        for a in 0..SERVICE_ALGORITHMS.len() {
            let mut ids: Vec<usize> = (a * circuits..(a + 1) * circuits).collect();
            rng.shuffle(&mut ids);
            let cut = HOT_SET / SERVICE_ALGORITHMS.len();
            cold.push(ids.split_off(cut));
            hot.push(ids);
        }
        let rng = SplitMix64::new(rng.next_u64() ^ connection as u64);
        RequestStream { rng, hot, cold }
    }

    #[cfg(test)]
    pub fn hot_set(&self) -> Vec<usize> {
        self.hot.concat()
    }
}

impl Iterator for RequestStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let mut ticket = self.rng.below(100);
        let mut alg = 0;
        for (a, (_, weight)) in SERVICE_ALGORITHMS.iter().enumerate() {
            alg = a;
            if ticket < *weight {
                break;
            }
            ticket -= weight;
        }
        let pool = if self.rng.below(100) < HOT_SHARE_PCT {
            &self.hot[alg]
        } else {
            &self.cold[alg]
        };
        Some(pool[self.rng.below(pool.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_published_vector() {
        // First outputs for seed 1234567, from the reference C code.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix64::new(9).shuffle(&mut a);
        SplitMix64::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(workload_by_name(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(w.threads() <= 2, "{}: the build host has two cores", w.name);
        }
        assert_eq!(WORKLOADS.len(), 7);
        assert!(workload_by_name("nonesuch").is_none());
    }

    #[test]
    fn universe_is_large_against_the_cache() {
        let candidates = service_candidates();
        assert_eq!(candidates.len(), 96);
        assert_eq!(ServiceJob::workload_spec(&candidates[0]), "gen:misex3@0.10");
        assert_eq!(ServiceJob::workload_spec(&candidates[95]), "gen:dalu@0.57");
        let u = service_universe(&candidates[..MIN_SERVICE_CIRCUITS]);
        assert!(u.len() >= 300 && u.len() > 4 * SERVICE_CACHE_ENTRIES);
        assert_eq!(
            (u[0].algorithm, u[MIN_SERVICE_CIRCUITS].algorithm),
            ("seq", "replicated")
        );
        let mut lines: Vec<String> = u.iter().map(ServiceJob::request_line).collect();
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), u.len(), "request lines are distinct");
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let a: Vec<usize> = RequestStream::new(1, 0, 80).take(2000).collect();
        let b: Vec<usize> = RequestStream::new(1, 0, 80).take(2000).collect();
        let c: Vec<usize> = RequestStream::new(2, 0, 80).take(2000).collect();
        let other_connection: Vec<usize> = RequestStream::new(1, 1, 80).take(2000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, other_connection);
        assert_ne!(
            RequestStream::new(1, 0, 80).hot_set(),
            RequestStream::new(2, 0, 80).hot_set()
        );
        assert_eq!(
            RequestStream::new(1, 0, 80).hot_set(),
            RequestStream::new(1, 1, 80).hot_set()
        );

        let hot = RequestStream::new(1, 0, 80).hot_set();
        assert_eq!(hot.len(), HOT_SET);
        let hot_share = a.iter().filter(|i| hot.contains(i)).count() as f64 / a.len() as f64;
        assert!((hot_share - 0.20).abs() < 0.03, "hot share {hot_share}");
        let seq_share = a.iter().filter(|&&i| i < 80).count() as f64 / a.len() as f64;
        assert!((seq_share - 0.55).abs() < 0.04, "seq share {seq_share}");
    }
}

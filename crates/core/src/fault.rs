//! Deterministic fault injection for the extraction drivers and the
//! service layer above them.
//!
//! A [`FaultPlan`] is a seeded, config-driven list of rules, each naming
//! an injection *site* (a stable string like `"seq:cover"` or
//! `"serve:pickup"`) and a fault to inject there: a panic, extra
//! latency, or a forced cooperative cancellation. The plan rides inside
//! a [`RunCtl`](crate::ctl::RunCtl); the drivers' existing barrier
//! checkpoints call [`RunCtl::fault_point`](crate::ctl::RunCtl), which
//! is a single `Option` null-check when no plan is attached — the fault
//! plane compiles to a no-op on every production path.
//!
//! Determinism: every rule draws from its own counter-indexed
//! splitmix64 stream, so the *number* of faults fired after N draws is a
//! pure function of `(seed, rule, N)` regardless of thread interleaving,
//! and `max_hits` caps the total exactly. That is what lets a chaos test
//! assert "exactly two workers were killed" instead of "some workers
//! were probably killed".
//!
//! Known sites (prefix-matched, so `"serve:pickup"` matches the
//! per-job-scoped `"serve:pickup:<alg>/<workload>"`):
//!
//! | site | checkpoint |
//! |---|---|
//! | `seq:cover` | sequential cover-loop head (also Algorithm R, and Algorithm I's workers) |
//! | `independent:merge` | Algorithm I, before merging worker results |
//! | `lshaped:step` | Algorithm L's worker step loop |
//! | `lshaped:recv` | Algorithm L, between popping a shipped rectangle and applying it |
//! | `serve:pickup:FP` | pf-serve worker, job pickup (outside panic isolation) |
//! | `serve:resolve` | pf-serve worker, before it generates a job's workload (an input-memo miss, or every job with the cache off; inside panic isolation) |
//! | `dist:pickup:LEASE` | dist worker, sub-job pickup (outside panic isolation) |
//! | `dist:send:wW` | dist transport, sub-job dispatch to worker `W` |
//! | `dist:recv:wW` | dist transport, sub-job response from worker `W` |
//!
//! A panic injected at `seq:cover`, `independent:merge`,
//! `serve:pickup`, `serve:resolve` or `dist:pickup` is safe: it either stays on one
//! thread or propagates cleanly through a scope join. Panics at
//! `lshaped:step` or `lshaped:recv` can strand sibling threads at a
//! barrier — inject latency or cancellation there
//! instead.
//!
//! The message-plane kinds (`drop` / `dup` / `stall:MS`) are interpreted
//! by the dist transports at their `dist:send` / `dist:recv` boundaries:
//! a dropped message forces the lease to expire and fail over, a
//! duplicated one exercises exactly-once admission, and a stalled one
//! delays delivery. At a plain [`RunCtl::fault_point`](crate::ctl::RunCtl)
//! checkpoint `drop`/`dup` are inert and `stall` behaves like `latency`,
//! so arming them never corrupts a driver.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What to inject when a rule fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a `"fault injected: …"` message.
    Panic,
    /// Sleep for the given duration before continuing.
    Latency(Duration),
    /// Call [`RunCtl::cancel`](crate::ctl::RunCtl::cancel) on the
    /// observing control, forcing a cooperative early stop.
    Cancel,
    /// Message-plane fault: discard the message at this site (a dist
    /// transport drops the sub-job or its response on the floor, so the
    /// lease must expire and fail over). Inert at plain checkpoints.
    Drop,
    /// Message-plane fault: deliver the message at this site twice (the
    /// coordinator's exactly-once admission must dedupe). Inert at plain
    /// checkpoints.
    Dup,
    /// Message-plane fault: stall the message at this site for the given
    /// duration before delivering it (long enough stalls expire the
    /// lease). At a plain checkpoint this behaves like `Latency`.
    Stall(Duration),
}

impl FaultKind {
    /// Whether this kind targets the message plane (`drop` / `dup` /
    /// `stall`). Transports interpret these at their send/receive
    /// boundaries; [`RunCtl::fault_point`](crate::ctl::RunCtl) treats
    /// `drop`/`dup` as inert and `stall` as latency.
    pub fn is_message_fault(&self) -> bool {
        matches!(self, FaultKind::Drop | FaultKind::Dup | FaultKind::Stall(_))
    }
}

/// One injection rule: where, what, how often, and how many times.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Site prefix this rule arms. A rule matches every checkpoint whose
    /// site name starts with this string.
    pub site: String,
    /// The fault to inject.
    pub kind: FaultKind,
    /// Probability in `[0, 1]` that a matching draw fires (1.0 = every
    /// time).
    pub probability: f64,
    /// Hard cap on how many times this rule fires over the plan's
    /// lifetime (`u64::MAX` = unlimited).
    pub max_hits: u64,
}

impl FaultRule {
    /// A rule injecting `kind` at `site` on every draw, uncapped.
    pub fn new(site: impl Into<String>, kind: FaultKind) -> Self {
        FaultRule {
            site: site.into(),
            kind,
            probability: 1.0,
            max_hits: u64::MAX,
        }
    }

    /// A panic rule for `site`.
    pub fn panic_at(site: impl Into<String>) -> Self {
        Self::new(site, FaultKind::Panic)
    }

    /// A latency rule for `site`.
    pub fn latency_at(site: impl Into<String>, extra: Duration) -> Self {
        Self::new(site, FaultKind::Latency(extra))
    }

    /// A forced-cancellation rule for `site`.
    pub fn cancel_at(site: impl Into<String>) -> Self {
        Self::new(site, FaultKind::Cancel)
    }

    /// A message-drop rule for `site`.
    pub fn drop_at(site: impl Into<String>) -> Self {
        Self::new(site, FaultKind::Drop)
    }

    /// A message-duplication rule for `site`.
    pub fn dup_at(site: impl Into<String>) -> Self {
        Self::new(site, FaultKind::Dup)
    }

    /// A message-stall rule for `site`.
    pub fn stall_at(site: impl Into<String>, delay: Duration) -> Self {
        Self::new(site, FaultKind::Stall(delay))
    }

    /// Sets the firing probability (clamped to `[0, 1]`).
    pub fn probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Caps the total number of fires.
    pub fn max_hits(mut self, n: u64) -> Self {
        self.max_hits = n;
        self
    }
}

#[derive(Debug)]
struct RuleState {
    rule: FaultRule,
    /// Matching checkpoint visits (fired or not) — indexes the
    /// deterministic probability stream.
    draws: AtomicU64,
    /// Times this rule actually fired.
    hits: AtomicU64,
}

/// A seeded set of [`FaultRule`]s, shared (via `Arc`) by every clone of
/// the [`RunCtl`](crate::ctl::RunCtl) it is attached to.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<RuleState>,
}

impl FaultPlan {
    /// An empty plan drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style). Rules are consulted in insertion
    /// order; the first one that fires wins the checkpoint.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(RuleState {
            rule,
            draws: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        });
        self
    }

    /// Parses the compact CLI/config grammar:
    ///
    /// ```text
    /// plan := rule (';' rule)*
    /// rule := SITE '=' kind ('@' PROB)? ('#' MAX)?
    /// kind := 'panic' | 'cancel' | 'latency:' MILLIS
    ///       | 'drop' | 'dup' | 'stall:' MILLIS
    /// ```
    ///
    /// e.g. `seq:cover=panic@0.5#3;lshaped:step=latency:5@0.2` — panic at
    /// half the sequential cover checkpoints (at most 3 times) and add
    /// 5 ms of latency to a fifth of the L-shaped step checkpoints.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (site, rest) = part
                .split_once('=')
                .ok_or_else(|| format!("fault rule {part:?} has no '=' (SITE=KIND[@P][#N])"))?;
            if site.is_empty() {
                return Err(format!("fault rule {part:?} has an empty site"));
            }
            let (rest, max_hits) = match rest.split_once('#') {
                Some((head, n)) => (
                    head,
                    n.parse::<u64>()
                        .map_err(|_| format!("bad max-hits {n:?} in {part:?}"))?,
                ),
                None => (rest, u64::MAX),
            };
            let (kind_str, probability) = match rest.split_once('@') {
                Some((k, p)) => {
                    let p = p
                        .parse::<f64>()
                        .map_err(|_| format!("bad probability {p:?} in {part:?}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability {p} out of [0, 1] in {part:?}"));
                    }
                    (k, p)
                }
                None => (rest, 1.0),
            };
            let kind = match kind_str {
                "panic" => FaultKind::Panic,
                "cancel" => FaultKind::Cancel,
                "drop" => FaultKind::Drop,
                "dup" => FaultKind::Dup,
                other => {
                    let millis = |ms: &str| {
                        ms.parse::<u64>()
                            .map_err(|_| format!("bad millis {ms:?} in {part:?}"))
                    };
                    if let Some(ms) = other.strip_prefix("latency:") {
                        FaultKind::Latency(Duration::from_millis(millis(ms)?))
                    } else if let Some(ms) = other.strip_prefix("stall:") {
                        FaultKind::Stall(Duration::from_millis(millis(ms)?))
                    } else {
                        return Err(format!(
                            "unknown fault kind {other:?} (panic|cancel|latency:MS|drop|dup|stall:MS)"
                        ));
                    }
                }
            };
            plan = plan.with_rule(FaultRule {
                site: site.to_string(),
                kind,
                probability,
                max_hits,
            });
        }
        Ok(plan)
    }

    /// Whether the plan has any rules at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Consults the rules for a checkpoint at `site`; returns the fault
    /// to inject, if any. The *caller* applies the effect (the plan
    /// never panics or sleeps itself), which keeps this decidable in
    /// tests.
    pub fn decide(&self, site: &str) -> Option<FaultKind> {
        for rs in &self.rules {
            if !site.starts_with(rs.rule.site.as_str()) {
                continue;
            }
            let draw = rs.draws.fetch_add(1, Ordering::Relaxed);
            if rs.hits.load(Ordering::Relaxed) >= rs.rule.max_hits {
                continue;
            }
            if !self.bernoulli(&rs.rule, draw) {
                continue;
            }
            // Re-check the cap while claiming the hit so concurrent
            // draws can never overshoot max_hits.
            let prev = rs.hits.fetch_add(1, Ordering::Relaxed);
            if prev >= rs.rule.max_hits {
                rs.hits.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            return Some(rs.rule.kind.clone());
        }
        None
    }

    /// Deterministic per-rule Bernoulli draw: a pure function of the
    /// plan seed, the rule's site, and the draw index.
    fn bernoulli(&self, rule: &FaultRule, draw: u64) -> bool {
        if rule.probability >= 1.0 {
            return true;
        }
        if rule.probability <= 0.0 {
            return false;
        }
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in rule.site.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        let r = splitmix64(h ^ draw);
        ((r >> 11) as f64 / (1u64 << 53) as f64) < rule.probability
    }

    /// Total fires of every rule whose site starts with `prefix`.
    pub fn hits(&self, prefix: &str) -> u64 {
        self.rules
            .iter()
            .filter(|rs| rs.rule.site.starts_with(prefix))
            .map(|rs| rs.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Total fires across the whole plan.
    pub fn total_hits(&self) -> u64 {
        self.rules
            .iter()
            .map(|rs| rs.hits.load(Ordering::Relaxed))
            .sum()
    }
}

/// The splitmix64 mixing step — tiny, seedable, and good enough for
/// fault scheduling (this is not a statistical RNG).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_empty());
        for _ in 0..100 {
            assert_eq!(plan.decide("seq:cover"), None);
        }
        assert_eq!(plan.total_hits(), 0);
    }

    #[test]
    fn certain_rule_fires_on_every_matching_site() {
        let plan = FaultPlan::new(7).with_rule(FaultRule::panic_at("seq:cover"));
        assert_eq!(plan.decide("seq:cover"), Some(FaultKind::Panic));
        assert_eq!(plan.decide("seq:cover"), Some(FaultKind::Panic));
        assert_eq!(plan.decide("lshaped:step"), None);
        assert_eq!(plan.hits("seq:cover"), 2);
    }

    #[test]
    fn prefix_matching_scopes_rules_to_job_fingerprints() {
        let plan =
            FaultPlan::new(7).with_rule(FaultRule::panic_at("serve:pickup:seq/gen:dalu@0.2"));
        assert_eq!(
            plan.decide("serve:pickup:seq/gen:dalu@0.2"),
            Some(FaultKind::Panic)
        );
        assert_eq!(plan.decide("serve:pickup:seq/gen:misex3@0.05"), None);
        assert_eq!(plan.decide("serve:pickup:lshaped/gen:dalu@0.2"), None);
    }

    #[test]
    fn max_hits_caps_the_total_exactly() {
        let plan = FaultPlan::new(3).with_rule(FaultRule::panic_at("x").max_hits(2));
        let fired = (0..50).filter(|_| plan.decide("x").is_some()).count();
        assert_eq!(fired, 2);
        assert_eq!(plan.total_hits(), 2);
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let count = |seed: u64| {
            let plan = FaultPlan::new(seed).with_rule(FaultRule::panic_at("x").probability(0.3));
            (0..1000).filter(|_| plan.decide("x").is_some()).count()
        };
        // Deterministic: same seed, same fault schedule.
        assert_eq!(count(42), count(42));
        // Calibrated: ~300 of 1000 draws at p = 0.3.
        let n = count(42);
        assert!((200..400).contains(&n), "p=0.3 fired {n}/1000 times");
        // Seed-sensitive: a different seed gives a different schedule.
        let plan_a = FaultPlan::new(1).with_rule(FaultRule::panic_at("x").probability(0.5));
        let plan_b = FaultPlan::new(2).with_rule(FaultRule::panic_at("x").probability(0.5));
        let pattern = |p: &FaultPlan| (0..64).map(|_| p.decide("x").is_some()).collect::<Vec<_>>();
        assert_ne!(pattern(&plan_a), pattern(&plan_b));
    }

    #[test]
    fn first_firing_rule_wins() {
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::panic_at("a").max_hits(1))
            .with_rule(FaultRule::cancel_at("a"));
        assert_eq!(plan.decide("a"), Some(FaultKind::Panic));
        // Panic rule exhausted; the cancel rule takes over.
        assert_eq!(plan.decide("a"), Some(FaultKind::Cancel));
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        let plan = FaultPlan::parse(
            "seq:cover=panic@0.5#3;lshaped:step=latency:5@0.2;a=cancel",
            9,
        )
        .unwrap();
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].rule.site, "seq:cover");
        assert_eq!(plan.rules[0].rule.kind, FaultKind::Panic);
        assert!((plan.rules[0].rule.probability - 0.5).abs() < 1e-12);
        assert_eq!(plan.rules[0].rule.max_hits, 3);
        assert_eq!(
            plan.rules[1].rule.kind,
            FaultKind::Latency(Duration::from_millis(5))
        );
        assert_eq!(plan.rules[2].rule.kind, FaultKind::Cancel);
        assert_eq!(plan.rules[2].rule.max_hits, u64::MAX);
    }

    #[test]
    fn parse_accepts_message_plane_kinds() {
        let plan = FaultPlan::parse(
            "dist:send:w0=drop#1;dist:recv=dup@0.5;dist:recv:w2=stall:7",
            3,
        )
        .unwrap();
        assert_eq!(plan.rules[0].rule.kind, FaultKind::Drop);
        assert_eq!(plan.rules[0].rule.max_hits, 1);
        assert_eq!(plan.rules[1].rule.kind, FaultKind::Dup);
        assert!((plan.rules[1].rule.probability - 0.5).abs() < 1e-12);
        assert_eq!(
            plan.rules[2].rule.kind,
            FaultKind::Stall(Duration::from_millis(7))
        );
        for kind in [
            plan.rules[0].rule.kind.clone(),
            plan.rules[1].rule.kind.clone(),
            plan.rules[2].rule.kind.clone(),
        ] {
            assert!(kind.is_message_fault());
        }
        assert!(!FaultKind::Panic.is_message_fault());
        assert!(!FaultKind::Latency(Duration::ZERO).is_message_fault());
    }

    #[test]
    fn message_plane_builders_and_decide() {
        let plan = FaultPlan::new(9)
            .with_rule(FaultRule::drop_at("dist:send").max_hits(1))
            .with_rule(FaultRule::dup_at("dist:recv").max_hits(1))
            .with_rule(FaultRule::stall_at("dist:recv", Duration::from_millis(2)));
        assert_eq!(plan.decide("dist:send:w1"), Some(FaultKind::Drop));
        assert_eq!(plan.decide("dist:send:w1"), None, "drop rule exhausted");
        assert_eq!(plan.decide("dist:recv:w0"), Some(FaultKind::Dup));
        assert_eq!(
            plan.decide("dist:recv:w0"),
            Some(FaultKind::Stall(Duration::from_millis(2)))
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "noequals",
            "=panic",
            "x=explode",
            "x=panic@1.5",
            "x=panic@zero",
            "x=latency:abc",
            "x=stall:abc",
            "x=panic#many",
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "{bad:?} parsed");
        }
        // Empty spec and stray separators are fine (empty plan).
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ", 0).unwrap().is_empty());
    }
}

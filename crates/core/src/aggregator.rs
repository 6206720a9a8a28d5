//! The aggregator state machine (Pseudocode 1): the whole per-aggregator
//! pass, driven unchanged by the discrete-event simulator and by every
//! deployed aggregator (`cedar_runtime::run_pass`).
//!
//! The machine owns a wait policy and mirrors the paper's event handlers:
//!
//! - `PARALLELHIERARCHICALCOMP`: [`AggregatorState::start`] sets the
//!   initial timer;
//! - `PROCESSHANDLER`: [`AggregatorState::on_arrival`] counts a first
//!   result from an expected child, lets the policy revise the wait, and
//!   departs early once all inputs are in ([`AggregatorState::on_output`]
//!   is the policy step alone);
//! - `TIMEREXPIRE`: [`AggregatorState::on_timer`] departs with whatever
//!   has been collected — or, when the watchdog is the earlier wake,
//!   fires it once with the children still missing.
//!
//! What the pass collected is read back at departure: payload, value,
//! children received, whether that was all of them, and which are
//! missing. Time is abstract (absolute units from query start); the
//! loop feeding the machine maps it onto simulated or wall-clock time
//! and books whatever it reports (trace, ledger, metrics) — the
//! simulator books nothing.

use crate::policy::{PolicyContext, WaitPolicy};
use std::ops::Range;

/// What the driver should do after feeding an event to the state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregatorAction {
    /// Keep waiting; (re-)arm the departure timer for this absolute time.
    SetTimer(f64),
    /// Keep waiting; the timer last armed stands, because the revised
    /// wait moved by no more than 1e-12 (only
    /// [`AggregatorState::on_arrival`] tells the two apart).
    Hold,
    /// Ship the collected outputs upstream now.
    Depart,
    /// The watchdog fired — it fires once — with these expected children
    /// still missing, ascending; keep waiting.
    Watchdog(Vec<usize>),
    /// Nothing changed: an arrival that is not a first from an expected
    /// child, anything after departure, or a stale timer.
    Ignored,
}

/// Which of the `expected` children have been counted: one bit per
/// child, so a second arrival from the same origin and an origin that
/// is nobody's child are refused by the same test. Every loop that
/// counts arrivals dedupes through it — the aggregator pass and the
/// root's gather.
#[derive(Debug)]
pub struct Seen {
    expected: Range<usize>,
    words: Vec<u64>,
}

impl Seen {
    /// Nothing counted yet out of `expected`.
    pub fn new(expected: Range<usize>) -> Self {
        let words = vec![0; expected.len().div_ceil(64)];
        Self { expected, words }
    }

    /// Word index and mask of an expected origin's bit.
    fn bit(&self, origin: usize) -> (usize, u64) {
        let bit = origin - self.expected.start;
        (bit / 64, 1 << (bit % 64))
    }

    /// Marks `origin`; `false` when it was already marked or is not an
    /// expected child.
    pub fn insert(&mut self, origin: usize) -> bool {
        if !self.expected.contains(&origin) {
            return false;
        }
        let (word, mask) = self.bit(origin);
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        fresh
    }

    /// The expected origins not yet marked, ascending.
    pub fn missing(&self) -> Vec<usize> {
        let unmarked = |&origin: &usize| {
            let (word, mask) = self.bit(origin);
            self.words[word] & mask == 0
        };
        self.expected.clone().filter(unmarked).collect()
    }
}

/// Per-(aggregator, query) execution state.
#[derive(Debug)]
pub struct AggregatorState {
    policy: Box<dyn WaitPolicy>,
    ctx: PolicyContext,
    seen: Seen,
    received: usize,
    payload: usize,
    value: f64,
    timer: f64,
    /// The timer last handed out, by `start` or a `SetTimer`.
    armed: f64,
    /// The watchdog instant, until it fires.
    watchdog: Option<f64>,
    departed_at: Option<f64>,
}

impl AggregatorState {
    /// Creates the state machine for children `0..fanout` with no
    /// watchdog; call [`AggregatorState::start`] before feeding events.
    pub fn new(policy: Box<dyn WaitPolicy>, ctx: PolicyContext) -> Self {
        let children = 0..ctx.fanout;
        Self::for_children(policy, ctx, children, None)
    }

    /// Creates the state machine for an aggregator whose children carry
    /// the global origin ids `children`, with a watchdog at the absolute
    /// time `watchdog` when speculative retries are on.
    pub fn for_children(
        policy: Box<dyn WaitPolicy>,
        ctx: PolicyContext,
        children: Range<usize>,
        watchdog: Option<f64>,
    ) -> Self {
        Self {
            policy,
            ctx,
            seen: Seen::new(children),
            received: 0,
            payload: 0,
            value: 0.0,
            timer: 0.0,
            armed: 0.0,
            watchdog,
            departed_at: None,
        }
    }

    /// Starts the query: asks the policy for the initial wait and returns
    /// the first timer (absolute, clamped to `[0, D]`; a non-finite wait
    /// from a misbehaving policy degrades to the full deadline).
    pub fn start(&mut self) -> f64 {
        let w = self.policy.initial_wait(&self.ctx);
        self.timer = if w.is_finite() {
            w.clamp(0.0, self.ctx.deadline)
        } else {
            self.ctx.deadline
        };
        self.armed = self.timer;
        self.timer
    }

    /// Handles a result from `origin` carrying `payload` process outputs
    /// that aggregate to `value`, arriving at absolute time `now`.
    ///
    /// Returns [`AggregatorAction::Ignored`] unless it is the first from
    /// an expected child before departure; otherwise counts it and runs
    /// [`AggregatorState::on_output`], reporting a revised timer only
    /// when it moved by more than 1e-12 ([`AggregatorAction::Hold`]
    /// otherwise), so an event queue is not flooded with timers.
    pub fn on_arrival(
        &mut self,
        origin: usize,
        payload: usize,
        value: f64,
        now: f64,
    ) -> AggregatorAction {
        if self.departed_at.is_some() || !self.seen.insert(origin) {
            return AggregatorAction::Ignored;
        }
        self.payload += payload;
        self.value += value;
        match self.on_output(now) {
            AggregatorAction::SetTimer(w) if (w - self.armed).abs() <= 1e-12 => {
                AggregatorAction::Hold
            }
            AggregatorAction::SetTimer(w) => {
                self.armed = w;
                AggregatorAction::SetTimer(w)
            }
            action => action,
        }
    }

    /// Handles one downstream output arriving at absolute time `now`.
    ///
    /// Returns [`AggregatorAction::Depart`] when all inputs are in
    /// (`numOutputs == k`, the paper's early exit) or when the revised
    /// wait is already in the past; otherwise returns the (possibly
    /// updated) timer.
    pub fn on_output(&mut self, now: f64) -> AggregatorAction {
        if self.departed_at.is_some() {
            // Late output after departure: upstream already left; ignore.
            return AggregatorAction::Depart;
        }
        self.received += 1;
        if self.received >= self.ctx.fanout {
            self.departed_at = Some(now);
            return AggregatorAction::Depart;
        }
        if let Some(w) = self.policy.on_arrival(&self.ctx, now) {
            if w.is_finite() {
                self.timer = w.clamp(0.0, self.ctx.deadline);
            }
        }
        if self.timer <= now {
            self.departed_at = Some(now);
            AggregatorAction::Depart
        } else {
            AggregatorAction::SetTimer(self.timer)
        }
    }

    /// Handles a timer firing at absolute time `now`: the watchdog, when
    /// it is armed, due and earlier than the departure timer
    /// ([`AggregatorAction::Watchdog`]); otherwise the departure timer
    /// ([`AggregatorAction::Depart`]), unless that firing is stale —
    /// superseded by a later re-arm — or the aggregator already departed
    /// ([`AggregatorAction::Ignored`]).
    pub fn on_timer(&mut self, now: f64) -> AggregatorAction {
        if self.departed_at.is_some() {
            return AggregatorAction::Ignored;
        }
        if let Some(w) = self.watchdog {
            if w < self.timer && now + 1e-12 >= w {
                self.watchdog = None;
                return AggregatorAction::Watchdog(self.seen.missing());
            }
        }
        if now + 1e-12 < self.timer {
            return AggregatorAction::Ignored;
        }
        self.departed_at = Some(now);
        AggregatorAction::Depart
    }

    /// When a real-time loop should next call
    /// [`AggregatorState::on_timer`]: the earlier of the departure timer
    /// and the watchdog, until the watchdog fires. A loop that sleeps
    /// to exactly this instant passes it back as `now`.
    pub fn next_wake(&self) -> f64 {
        self.watchdog.map_or(self.timer, |w| w.min(self.timer))
    }

    /// Outputs collected so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Process outputs aggregated so far.
    pub fn payload(&self) -> usize {
        self.payload
    }

    /// Aggregated value over those outputs.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Whether every child's output is in (`numOutputs == k`): a
    /// departure short of this one left on a timer.
    pub fn collected_all(&self) -> bool {
        self.received >= self.ctx.fanout
    }

    /// The expected children not counted, ascending.
    pub fn missing(&self) -> Vec<usize> {
        self.seen.missing()
    }

    /// When the aggregator departed (absolute), once it has.
    pub fn departed_at(&self) -> Option<f64> {
        self.departed_at
    }

    /// The policy context (immutable view).
    pub fn ctx(&self) -> &PolicyContext {
        &self.ctx
    }

    /// Turns explain mode on or off for the underlying policy (see
    /// [`crate::policy::WaitPolicy::set_explain`]).
    pub fn set_explain(&mut self, on: bool) {
        self.policy.set_explain(on);
    }

    /// Detail of the most recent wait revision, when explain mode is on
    /// and the policy recomputed at least once since the query started.
    pub fn last_detail(&self) -> Option<crate::policy::DecisionDetail> {
        self.policy.last_detail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedWaitPolicy;
    use crate::profile::QualityProfile;
    use cedar_distrib::{ContinuousDist, LogNormal};
    use std::sync::Arc;

    fn ctx(fanout: usize, deadline: f64) -> PolicyContext {
        let x1 = LogNormal::new(0.0, 1.0).unwrap();
        let x2 = LogNormal::new(0.0, 0.5).unwrap();
        PolicyContext {
            deadline,
            fanout,
            upper: Arc::new(QualityProfile::single(&x2, deadline, 64)),
            prior_lower: Arc::new(x1),
            true_lower: None,
            mean_below: 1.0,
            mean_total: 2.0,
            level: 1,
            levels_total: 2,
            scan_steps: 100,
            qup_grid: std::sync::OnceLock::new(),
            prior_decision: std::sync::OnceLock::new(),
        }
    }

    #[test]
    fn departs_early_when_all_inputs_arrive() {
        let mut agg = AggregatorState::new(Box::new(FixedWaitPolicy(50.0)), ctx(3, 100.0));
        assert_eq!(agg.start(), 50.0);
        assert_eq!(agg.on_output(1.0), AggregatorAction::SetTimer(50.0));
        assert_eq!(agg.on_output(2.0), AggregatorAction::SetTimer(50.0));
        // Third of three: immediate departure (numOutputs == k).
        assert_eq!(agg.on_output(3.0), AggregatorAction::Depart);
        assert!(agg.departed_at().is_some());
        assert_eq!(agg.received(), 3);
    }

    #[test]
    fn timer_fires_and_departs() {
        let mut agg = AggregatorState::new(Box::new(FixedWaitPolicy(10.0)), ctx(5, 100.0));
        agg.start();
        agg.on_output(1.0);
        assert_eq!(agg.on_timer(10.0), AggregatorAction::Depart);
        assert!(agg.departed_at().is_some());
        // Second firing is a no-op.
        assert_eq!(agg.on_timer(10.0), AggregatorAction::Ignored);
    }

    #[test]
    fn stale_timer_is_ignored() {
        // A policy that pushes the wait out on arrival; the old timer
        // firing must be recognized as stale.
        #[derive(Debug)]
        struct Extender;
        impl crate::policy::WaitPolicy for Extender {
            fn initial_wait(&mut self, _ctx: &PolicyContext) -> f64 {
                10.0
            }
            fn on_arrival(&mut self, _ctx: &PolicyContext, _arrival: f64) -> Option<f64> {
                Some(20.0)
            }
        }
        let mut agg = AggregatorState::new(Box::new(Extender), ctx(5, 100.0));
        assert_eq!(agg.start(), 10.0);
        assert_eq!(agg.on_output(5.0), AggregatorAction::SetTimer(20.0));
        // Old timer for t=10 fires: stale.
        assert_eq!(agg.on_timer(10.0), AggregatorAction::Ignored);
        assert!(agg.departed_at().is_none());
        // Current timer fires.
        assert_eq!(agg.on_timer(20.0), AggregatorAction::Depart);
    }

    #[test]
    fn revised_wait_in_the_past_departs_immediately() {
        #[derive(Debug)]
        struct Shrinker;
        impl crate::policy::WaitPolicy for Shrinker {
            fn initial_wait(&mut self, _ctx: &PolicyContext) -> f64 {
                50.0
            }
            fn on_arrival(&mut self, _ctx: &PolicyContext, _arrival: f64) -> Option<f64> {
                Some(1.0)
            }
        }
        let mut agg = AggregatorState::new(Box::new(Shrinker), ctx(5, 100.0));
        agg.start();
        // Arrival at t=5 revises wait to t=1 (already past): depart now.
        assert_eq!(agg.on_output(5.0), AggregatorAction::Depart);
        assert!(agg.departed_at().is_some());
    }

    #[test]
    fn wait_clamped_to_deadline() {
        let mut agg = AggregatorState::new(Box::new(FixedWaitPolicy(1e18)), ctx(5, 100.0));
        assert_eq!(agg.start(), 100.0);
    }

    #[test]
    fn outputs_after_departure_are_ignored() {
        let mut agg = AggregatorState::new(Box::new(FixedWaitPolicy(10.0)), ctx(5, 100.0));
        agg.start();
        assert_eq!(agg.on_timer(10.0), AggregatorAction::Depart);
        assert_eq!(agg.on_output(11.0), AggregatorAction::Depart);
        // The late output must not be counted as collected.
        assert_eq!(agg.received(), 0);
        assert_eq!(agg.on_arrival(0, 1, 1.0, 11.0), AggregatorAction::Ignored);
        assert_eq!((agg.received(), agg.payload()), (0, 0));
    }

    /// A pass over children `10..14` under a fixed wait of 50 in a
    /// deadline of 100.
    fn children_10_to_13(watchdog: Option<f64>) -> AggregatorState {
        let mut agg = AggregatorState::for_children(
            Box::new(FixedWaitPolicy(50.0)),
            ctx(4, 100.0),
            10..14,
            watchdog,
        );
        agg.start();
        agg
    }

    #[test]
    fn refuses_an_origin_that_is_not_a_child() {
        let mut agg = children_10_to_13(None);
        for origin in [9, 14, 1000] {
            assert_eq!(
                agg.on_arrival(origin, 1, 1.0, 1.0),
                AggregatorAction::Ignored
            );
        }
        assert_eq!((agg.received(), agg.payload()), (0, 0));
        assert_eq!(agg.missing(), vec![10, 11, 12, 13]);
    }

    #[test]
    fn suppresses_a_duplicate_and_accumulates_firsts() {
        let mut agg = children_10_to_13(None);
        // The fixed wait never moves: counted, nothing to re-arm.
        assert_eq!(agg.on_arrival(11, 3, 2.5, 1.0), AggregatorAction::Hold);
        assert_eq!(agg.on_arrival(11, 3, 2.5, 2.0), AggregatorAction::Ignored);
        assert_eq!(agg.on_arrival(12, 2, 0.5, 3.0), AggregatorAction::Hold);
        assert_eq!((agg.received(), agg.payload()), (2, 5));
        assert!((agg.value() - 3.0).abs() < 1e-12);
        assert_eq!(agg.missing(), vec![10, 13]);
    }

    #[test]
    fn re_arms_only_when_the_wait_moves() {
        // The wait jumps to 20 on the first arrival and stays there.
        #[derive(Debug)]
        struct Extender;
        impl crate::policy::WaitPolicy for Extender {
            fn initial_wait(&mut self, _ctx: &PolicyContext) -> f64 {
                10.0
            }
            fn on_arrival(&mut self, _ctx: &PolicyContext, _arrival: f64) -> Option<f64> {
                Some(20.0)
            }
        }
        let mut agg = AggregatorState::new(Box::new(Extender), ctx(5, 100.0));
        agg.start();
        assert_eq!(
            agg.on_arrival(0, 1, 1.0, 1.0),
            AggregatorAction::SetTimer(20.0)
        );
        assert_eq!(agg.on_arrival(1, 1, 1.0, 2.0), AggregatorAction::Hold);
    }

    #[test]
    fn watchdog_fires_once_with_the_missing_children() {
        let mut agg = children_10_to_13(Some(5.0));
        assert_eq!(agg.next_wake(), 5.0);
        agg.on_arrival(11, 1, 1.0, 1.0);
        assert_eq!(
            agg.on_timer(5.0),
            AggregatorAction::Watchdog(vec![10, 12, 13])
        );
        // Fired once: the next wake is the departure timer, and a repeat
        // of the watchdog's instant is only a stale timer.
        assert_eq!(agg.next_wake(), 50.0);
        assert_eq!(agg.on_timer(5.0), AggregatorAction::Ignored);
        assert!(agg.departed_at().is_none());
        assert_eq!(agg.on_timer(50.0), AggregatorAction::Depart);
    }

    #[test]
    fn a_watchdog_past_the_timer_never_fires() {
        let mut agg = children_10_to_13(Some(60.0));
        assert_eq!(agg.next_wake(), 50.0);
        assert_eq!(agg.on_timer(50.0), AggregatorAction::Depart);
    }

    #[test]
    fn a_timer_departure_is_not_a_full_collection() {
        let mut agg = children_10_to_13(None);
        agg.on_arrival(10, 1, 4.0, 1.0);
        agg.on_arrival(13, 1, 4.0, 2.0);
        assert_eq!(agg.on_timer(50.0), AggregatorAction::Depart);
        assert!(!agg.collected_all());
        assert_eq!(agg.departed_at(), Some(50.0));
        assert_eq!((agg.received(), agg.payload()), (2, 2));
        assert_eq!(agg.missing(), vec![11, 12]);

        let mut full = children_10_to_13(None);
        for (t, origin) in (10..14).enumerate() {
            full.on_arrival(origin, 1, 1.0, t as f64);
        }
        assert!(full.collected_all());
        assert_eq!(full.departed_at(), Some(3.0));
        assert!(full.missing().is_empty());
    }

    #[test]
    fn cedar_policy_drives_state_machine() {
        use cedar_estimate::Model;
        let c = ctx(5, 100.0);
        let mut agg = AggregatorState::new(
            crate::policy::WaitPolicyKind::Cedar.instantiate(5, Model::LogNormal),
            c,
        );
        let w0 = agg.start();
        assert!(w0 > 0.0);
        let x1 = LogNormal::new(0.0, 1.0).unwrap();
        let mut times: Vec<f64> = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(8);
            x1.sample_vec(&mut rng, 4)
        };
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &t in &times {
            match agg.on_output(t) {
                AggregatorAction::SetTimer(w) => assert!(w <= 100.0),
                _ => break,
            }
        }
        assert!(agg.received() >= 1);
    }
}

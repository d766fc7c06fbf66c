//! Best-so-far incumbent reporting.
//!
//! The optimization loops of §III-B improve a feasible solution step by
//! step; when a caller imposes a wall-clock deadline, the loop may be cut
//! off between improvements. An [`IncumbentSlot`] is a small shared cell
//! the synthesizers publish every intermediate solution into, so an outer
//! caller (the service layer's deadline enforcement) can recover the best
//! solution found so far instead of losing the whole run — graceful
//! degradation rather than an error.
//!
//! The slot is cheap to clone and thread-safe; install one via
//! [`crate::SynthesisConfig::incumbent`].
//!
//! # Examples
//!
//! ```
//! use olsq2::{IncumbentSlot, Olsq2Synthesizer, SynthesisConfig};
//! use olsq2_arch::line;
//! use olsq2_circuit::{Circuit, Gate, GateKind};
//!
//! let mut circuit = Circuit::new(3);
//! circuit.push(Gate::two(GateKind::Cx, 0, 1));
//! circuit.push(Gate::two(GateKind::Cx, 1, 2));
//! let slot = IncumbentSlot::new();
//! let mut config = SynthesisConfig::with_swap_duration(1);
//! config.incumbent = Some(slot.clone());
//! let synth = Olsq2Synthesizer::new(config);
//! let out = synth.optimize_depth(&circuit, &line(3)).unwrap();
//! // The final solution was published on the way out.
//! assert_eq!(slot.peek().unwrap().depth, out.result.depth);
//! ```

use olsq2_layout::LayoutResult;
use std::sync::{Arc, Mutex};

/// A thread-safe cell holding the most recent intermediate solution of an
/// optimization run.
#[derive(Debug, Clone, Default)]
pub struct IncumbentSlot {
    inner: Arc<Mutex<Option<LayoutResult>>>,
}

impl IncumbentSlot {
    /// Creates an empty slot.
    pub fn new() -> IncumbentSlot {
        IncumbentSlot::default()
    }

    /// Publishes a new incumbent. The optimization loops only ever move to
    /// solutions at least as good under their objective, so the latest
    /// publication is the best one.
    pub fn publish(&self, result: &LayoutResult) {
        *self.inner.lock().expect("incumbent lock") = Some(result.clone());
    }

    /// A copy of the current incumbent, if any was published.
    pub fn peek(&self) -> Option<LayoutResult> {
        self.inner.lock().expect("incumbent lock").clone()
    }

    /// Removes and returns the current incumbent.
    pub fn take(&self) -> Option<LayoutResult> {
        self.inner.lock().expect("incumbent lock").take()
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("incumbent lock").is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(depth: usize) -> LayoutResult {
        LayoutResult {
            initial_mapping: vec![0, 1],
            schedule: vec![0],
            swaps: vec![],
            depth,
            swap_duration: 1,
        }
    }

    #[test]
    fn publish_peek_take_roundtrip() {
        let slot = IncumbentSlot::new();
        assert!(slot.is_empty());
        assert_eq!(slot.peek(), None);
        slot.publish(&dummy(4));
        slot.publish(&dummy(3)); // latest wins
        assert_eq!(slot.peek().unwrap().depth, 3);
        assert!(!slot.is_empty());
        assert_eq!(slot.take().unwrap().depth, 3);
        assert!(slot.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let slot = IncumbentSlot::new();
        let other = slot.clone();
        slot.publish(&dummy(7));
        assert_eq!(other.peek().unwrap().depth, 7);
    }

    #[test]
    fn concurrent_publish_and_take_observe_improving_incumbents() {
        // A publisher thread plays the optimization loop: it only ever
        // publishes improvements (depth strictly decreasing). A consumer
        // taking concurrently must therefore observe a strictly
        // decreasing sequence of depths — takes can skip incumbents but
        // never go back in time.
        let slot = IncumbentSlot::new();
        let publisher = {
            let slot = slot.clone();
            std::thread::spawn(move || {
                for depth in (1..=100).rev() {
                    slot.publish(&dummy(depth));
                }
            })
        };
        let mut observed: Vec<usize> = Vec::new();
        loop {
            if let Some(result) = slot.take() {
                observed.push(result.depth);
                if result.depth == 1 {
                    break;
                }
            }
            if publisher.is_finished() && slot.is_empty() {
                break;
            }
            std::thread::yield_now();
        }
        publisher.join().expect("publisher thread");
        assert!(!observed.is_empty(), "at least one incumbent seen");
        assert!(
            observed.windows(2).all(|w| w[0] > w[1]),
            "takes must never observe a stale (worse) incumbent: {observed:?}"
        );
    }

    #[test]
    fn deadline_recovery_takes_the_last_published_incumbent() {
        // The service's deadline path: the loop published a few
        // improvements before the budget fired, and recovery must hand
        // back exactly the latest one — full result, not just its depth.
        let slot = IncumbentSlot::new();
        slot.publish(&dummy(9));
        slot.publish(&dummy(6));
        let mut best = dummy(5);
        best.initial_mapping = vec![1, 0];
        slot.publish(&best);
        let recovered = slot.take().expect("incumbent available at deadline");
        assert_eq!(recovered, best);
        // Nothing left behind: a second recovery attempt finds the slot
        // empty rather than a stale duplicate.
        assert_eq!(slot.take(), None);
    }
}

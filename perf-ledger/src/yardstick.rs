//! A fixed yardstick for the host's speed.
//!
//! On a shared host the same code, with the same conflict counts, runs up
//! to 2.4 times slower at one moment than at another (README.md has the
//! measurements): far more than the changes the ledger is meant to show.
//! The yardstick is fixed work that belongs to the benchmark, not to the
//! program: a walk along one random cycle through a 4 MiB table, bound
//! like the solver by memory latency and data-dependent branches. Timing a
//! walk just before and just after a measurement tells how fast the host
//! ran meanwhile, and every time the ledger reports is scaled to what it
//! reads on a host where one walk takes `REFERENCE_S`.
//!
//! The walk uses nothing from the program, so no change to the program
//! moves it.

use std::hint::black_box;
use std::time::Instant;

/// Table slots: 4 MiB of `u32`, more than a core's private caches hold.
const SLOTS: usize = 1 << 20;

/// Steps of one walk.
const STEPS: usize = 1 << 18;

/// Seconds one walk took on the host the ledger's baseline was measured on
/// (a 2-vCPU shared VM, at the median of its speeds). Scaled times read in
/// seconds of that host.
pub const REFERENCE_S: f64 = 0.01;

pub struct Yardstick {
    next: Vec<u32>,
}

/// SplitMix64, kept here so the table never depends on the program's code.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Yardstick {
    /// Builds the table. Sattolo's shuffle makes one cycle through every
    /// slot, so a walk never settles into a short loop a cache could hold.
    pub fn build() -> Yardstick {
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut state = 0x0157_0A2D;
        for i in (1..SLOTS).rev() {
            let j = ((u128::from(splitmix(&mut state)) * i as u128) >> 64) as usize;
            next.swap(i, j);
        }
        Yardstick { next }
    }

    /// Seconds one walk takes now.
    pub fn walk_s(&self) -> f64 {
        let start = Instant::now();
        let (mut at, mut acc) = (0u32, 0u64);
        for _ in 0..STEPS {
            at = self.next[at as usize];
            if at & 3 == 0 {
                acc = acc.rotate_left(5) ^ u64::from(at);
            } else {
                acc = acc.wrapping_add(u64::from(at));
            }
        }
        black_box((at, acc));
        start.elapsed().as_secs_f64()
    }

    /// Runs `work` between two walks. Returns its result and the factor
    /// that scales the times it measured to the reference host.
    pub fn scaled<T>(&self, work: impl FnOnce() -> T) -> (T, f64) {
        let before = self.walk_s();
        let out = work();
        let after = self.walk_s();
        (out, 2.0 * REFERENCE_S / (before + after))
    }
}

//! Distributed weighted sampling **without replacement** — the paper's main
//! contribution (Section 3, Algorithms 1–3, Theorem 3).
//!
//! Protocol overview. Sites tag items with precision-sampling keys
//! `v = w/t`, `t ~ Exp(1)`, and the coordinator continuously holds the
//! top-`s` keys, which form a weighted SWOR (Proposition 1). Two mechanisms
//! keep the message count at the optimal `O(k·log(W/s)/log(1+k/s))`:
//!
//! * **epochs** — the coordinator broadcasts the threshold `r^j` whenever
//!   `u`, the s-th largest key it holds, enters `[r^j, r^(j+1))`, with
//!   `r = max(2, k/s)`. Sites drop keys at or below the current threshold.
//! * **level sets** — an item whose weight lies in `[r^j, r^(j+1))` belongs
//!   to level `j`; the first `4rs` items of each level are forwarded
//!   unconditionally ("early" messages) and *withheld* from the internal
//!   sampler until the level *saturates*. Lemma 1 then guarantees every
//!   released item is at most a `1/(4s)` fraction of released weight, which
//!   is what makes the epoch analysis (and the s-th key concentration used
//!   by the L1 tracker) work.
//!
//! Withheld items still participate in every query: the answer is the
//! top-`s` of `S ∪ (∪_j D_j)` (Theorem 3's proof), so the coordinator's
//! output is a valid weighted SWOR at *every* time step, with no notion of
//! failure.
//!
//! Two coordinator implementations are provided with identical query
//! behaviour (property-tested): [`SworCoordinator`] uses the O(s)-space
//! optimization of Proposition 6 (retain only the global top-`s` among
//! withheld items); [`FaithfulCoordinator`] stores level sets verbatim as in
//! Algorithm 2.
//!
//! **Weight convention.** The paper assumes `w ≥ 1` w.l.o.g. (Section 2.1;
//! weights can be pre-scaled). The implementation accepts any `w > 0` and
//! the sample remains a correct weighted SWOR, but Lemma 1's `1/(4s)`
//! released-fraction bound — and therefore the message/concentration
//! analysis — is only guaranteed under `w ≥ 1`, because level 0 spans the
//! whole interval `[0, r)`.
//!
//! # Example (driving the protocol by hand)
//!
//! ```
//! use dwrs_core::swor::{SworConfig, SworCoordinator, SworSite};
//! use dwrs_core::Item;
//!
//! let cfg = SworConfig::new(4, 2); // s = 4 over k = 2 sites
//! let mut sites = [SworSite::new(&cfg, 1), SworSite::new(&cfg, 2)];
//! let mut coordinator = SworCoordinator::new(cfg, 3);
//!
//! let mut broadcasts = Vec::new();
//! for t in 0..1000u64 {
//!     let site = (t % 2) as usize;
//!     if let Some(up) = sites[site].observe(Item::new(t, 1.0 + (t % 9) as f64)) {
//!         coordinator.receive(up, &mut broadcasts);
//!         for msg in broadcasts.drain(..) {
//!             for s in &mut sites {
//!                 s.receive(&msg); // broadcast costs k messages
//!             }
//!         }
//!     }
//!     // A valid weighted SWOR is available at *every* step:
//!     assert_eq!(coordinator.sample().len(), ((t + 1) as usize).min(4));
//! }
//! ```

pub mod config;
pub mod coordinator;
pub mod faithful;
pub mod levels;
pub mod messages;
pub mod naive;
pub mod site;
pub mod wire;

pub use config::{swor_bound, SworConfig};
pub use coordinator::{CoordStats, SworCoordinator};
pub use faithful::FaithfulCoordinator;
pub use levels::{epoch_of, epoch_threshold, level_of, LevelBits, LevelTable};
pub use messages::{DownMsg, SyncMsg, UpMsg};
pub use naive::{NaiveCoordinator, NaiveSite};
pub use site::{SiteStats, SworSite};

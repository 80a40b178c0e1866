//! Consistent placement via rendezvous (highest-random-weight) hashing.
//!
//! Every router hashes `(content key, peer id)` and ranks peers by the
//! resulting score: the top-ranked *healthy* peer owns the key, and the
//! rest of the ranking is the failover order. Rendezvous hashing has the
//! property this tier actually needs — when a peer leaves, only the keys
//! it owned move (each to its own runner-up), and when it returns the
//! exact same keys come back. No token ranges, no rebalancing protocol,
//! no state beyond the peer list itself; any process holding the same
//! membership view computes the same placement, which is what lets the
//! gateway, the stealers, and the tests agree on ownership without
//! coordinating.

use crate::membership::{PeerState, View};
use xplain_runtime::fnv1a64;

/// splitmix64 finalizer — full-period 64-bit mixer, so scores for
/// distinct `(key, peer)` pairs are effectively independent.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The rendezvous score of `peer_id` for `key`. Higher wins. FNV-1a is
/// only good enough to decorrelate peer ids; [`splitmix64`] does the
/// heavy lifting.
pub fn score(key: u64, peer_id: &str) -> u64 {
    splitmix64(key ^ fnv1a64(peer_id.as_bytes()))
}

/// Every peer in the view — healthy or not — in deterministic preference
/// order for `key` (ties broken by id, so the order is total even in the
/// astronomically unlikely score collision).
pub fn preference(key: u64, view: &View) -> Vec<&PeerState> {
    let mut peers: Vec<&PeerState> = view.peers.iter().collect();
    peers.sort_by(|a, b| {
        score(key, &b.peer.id)
            .cmp(&score(key, &a.peer.id))
            .then_with(|| a.peer.id.cmp(&b.peer.id))
    });
    peers
}

/// The healthy peer that owns `key` under this view, or `None` when the
/// whole tier is down.
pub fn owner(key: u64, view: &View) -> Option<&PeerState> {
    preference(key, view).into_iter().find(|p| p.healthy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::{Peer, PeerState, View};

    fn view_of(ids: &[&str]) -> View {
        View {
            epoch: 1,
            peers: ids
                .iter()
                .map(|id| PeerState {
                    peer: Peer {
                        id: (*id).to_string(),
                        addr: "127.0.0.1:1".parse().unwrap(),
                    },
                    healthy: true,
                })
                .collect(),
        }
    }

    #[test]
    fn placement_is_deterministic_and_roughly_balanced() {
        let view = view_of(&["a", "b", "c", "d"]);
        let mut counts = [0usize; 4];
        for key in 0..1000u64 {
            let first = owner(key, &view).unwrap().peer.id.clone();
            let second = owner(key, &view).unwrap().peer.id.clone();
            assert_eq!(first, second, "same view, same key, same owner");
            let idx = view.peers.iter().position(|p| p.peer.id == first).unwrap();
            counts[idx] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                *c > 100,
                "peer {i} owns only {c}/1000 keys: {counts:?} — hash badly skewed"
            );
        }
    }

    #[test]
    fn losing_a_peer_only_moves_its_own_keys() {
        // The rendezvous property: marking one peer unhealthy remaps
        // exactly the keys it owned; everything else stays put.
        let full = view_of(&["a", "b", "c", "d"]);
        let mut degraded = full.clone();
        degraded.peers[2].healthy = false; // "c" goes down

        let mut moved = 0;
        for key in 0..1000u64 {
            let before = owner(key, &full).unwrap().peer.id.clone();
            let after = owner(key, &degraded).unwrap().peer.id.clone();
            if before == "c" {
                assert_ne!(after, "c");
                moved += 1;
            } else {
                assert_eq!(before, after, "key {key} moved although its owner is up");
            }
        }
        assert!(moved > 0, "the dead peer owned nothing — test is vacuous");
    }

    #[test]
    fn preference_ranks_every_peer_and_owner_skips_unhealthy() {
        let mut view = view_of(&["a", "b", "c"]);
        let key = 42;
        let pref = preference(key, &view);
        assert_eq!(pref.len(), 3, "preference covers all peers");
        let top = pref[0].peer.id.clone();
        let runner_up = pref[1].peer.id.clone();
        // Kill the top choice: ownership falls to the runner-up.
        let idx = view.peers.iter().position(|p| p.peer.id == top).unwrap();
        view.peers[idx].healthy = false;
        assert_eq!(owner(key, &view).unwrap().peer.id, runner_up);
        // Kill everything: no owner.
        for p in &mut view.peers {
            p.healthy = false;
        }
        assert!(owner(key, &view).is_none());
    }
}

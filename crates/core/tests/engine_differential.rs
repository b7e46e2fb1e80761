//! Model property test: the slab+LRU engine is driven with a random
//! operation sequence and checked, op by op, against a `HashMap` oracle
//! of the engine contract (`engine/mod.rs`, "Observable semantics
//! contract"):
//!
//! - an entry is live iff its expiry is 0 or `now < expiry`; an expired
//!   entry behaves exactly like an absent one;
//! - `set` reports `Inserted` when the key is absent or expired,
//!   `Updated` otherwise;
//! - `incr` and `concat` keep the entry's expiry.
//!
//! Capacities here are effectively unbounded, so the only way entries
//! vanish is expiry, which the contract pins to exact per-millisecond
//! boundaries. `maintain` runs at arbitrary points in the sequence to
//! prove that physical reclamation never leaks into results.

use mbal_core::engine::{Engine, SlabLru};
use mbal_core::store::MallocStore;
use mbal_core::table::SetOutcome;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum DiffOp {
    /// Set key → deterministic value of the given length, with a
    /// relative TTL (0 = no expiry).
    Set(u16, u8, u16),
    Get(u16),
    Delete(u16),
    Contains(u16),
    /// Touch key to a new relative TTL (0 = remove expiry).
    Touch(u16, u16),
    /// Set key to a small numeric value, then incr by delta.
    Incr(u16, i64),
    Concat(u16, u8),
    Add(u16, u8),
    Replace(u16, u8),
    /// Advance the clock.
    Advance(u16),
    /// Run background maintenance on the engine.
    Maintain,
}

const KEYSPACE: u16 = 48;

fn key_bytes(k: u16) -> Vec<u8> {
    format!("dk:{:05}", k % KEYSPACE).into_bytes()
}

fn value_bytes(k: u16, len: u8) -> Vec<u8> {
    (0..len).map(|i| (k as u8) ^ i).collect()
}

fn op_strategy() -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        5 => (any::<u16>(), any::<u8>(), 0u16..600).prop_map(|(k, l, t)| DiffOp::Set(k, l, t)),
        4 => any::<u16>().prop_map(DiffOp::Get),
        2 => any::<u16>().prop_map(DiffOp::Delete),
        2 => any::<u16>().prop_map(DiffOp::Contains),
        2 => (any::<u16>(), 0u16..600).prop_map(|(k, t)| DiffOp::Touch(k, t)),
        2 => (any::<u16>(), -40i64..40).prop_map(|(k, d)| DiffOp::Incr(k, d)),
        2 => (any::<u16>(), any::<u8>()).prop_map(|(k, l)| DiffOp::Concat(k, l)),
        1 => (any::<u16>(), any::<u8>()).prop_map(|(k, l)| DiffOp::Add(k, l)),
        1 => (any::<u16>(), any::<u8>()).prop_map(|(k, l)| DiffOp::Replace(k, l)),
        2 => (1u16..400).prop_map(DiffOp::Advance),
        1 => Just(DiffOp::Maintain),
    ]
}

/// The engine contract over a plain map of `key → (value, expiry_ms)`.
#[derive(Default)]
struct Model {
    entries: HashMap<Vec<u8>, (Vec<u8>, u64)>,
}

impl Model {
    /// The live entry for `key`; an expired one is dropped first.
    fn live(&mut self, key: &[u8], now: u64) -> Option<&mut (Vec<u8>, u64)> {
        let expired = matches!(self.entries.get(key), Some(&(_, exp)) if exp != 0 && now >= exp);
        if expired {
            self.entries.remove(key);
        }
        self.entries.get_mut(key)
    }

    fn set(&mut self, key: &[u8], value: &[u8], now: u64, expiry: u64) -> SetOutcome {
        let outcome = if self.live(key, now).is_some() {
            SetOutcome::Updated
        } else {
            SetOutcome::Inserted
        };
        self.entries.insert(key.to_vec(), (value.to_vec(), expiry));
        outcome
    }

    fn live_count(&self, now: u64) -> usize {
        self.entries
            .values()
            .filter(|&&(_, exp)| exp == 0 || now < exp)
            .count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slab_engine_matches_the_contract_model(
        ops in prop::collection::vec(op_strategy(), 1..300)
    ) {
        // A budget far beyond what the sequence can write: eviction never
        // fires, so every divergence from the model is a genuine bug.
        let mut engine = SlabLru::new(MallocStore::new(1 << 40));
        let mut model = Model::default();
        let mut now: u64 = 1;

        for op in &ops {
            match *op {
                DiffOp::Set(k, len, ttl) => {
                    let key = key_bytes(k);
                    let value = value_bytes(k, len);
                    let expiry = if ttl == 0 { 0 } else { now + ttl as u64 };
                    let got = engine.set(&key, &value, now, expiry);
                    let want = model.set(&key, &value, now, expiry);
                    prop_assert_eq!(got, Ok(want), "set({}) at t={}", k, now);
                }
                DiffOp::Get(k) => {
                    let key = key_bytes(k);
                    let got = engine.get(&key, now).map(Vec::from);
                    let want = model.live(&key, now).map(|(v, _)| v.clone());
                    prop_assert_eq!(got, want, "get({}) at t={}", k, now);
                }
                DiffOp::Delete(k) => {
                    let key = key_bytes(k);
                    let want = model.live(&key, now).is_some();
                    model.entries.remove(&key);
                    prop_assert_eq!(engine.delete(&key, now), want, "delete({}) at t={}", k, now);
                }
                DiffOp::Contains(k) => {
                    let key = key_bytes(k);
                    let want = model.live(&key, now).is_some();
                    prop_assert_eq!(engine.contains(&key, now), want, "contains({}) at t={}", k, now);
                }
                DiffOp::Touch(k, ttl) => {
                    let key = key_bytes(k);
                    let expiry = if ttl == 0 { 0 } else { now + ttl as u64 };
                    let want = match model.live(&key, now) {
                        Some(entry) => {
                            entry.1 = expiry;
                            true
                        }
                        None => false,
                    };
                    prop_assert_eq!(engine.touch(&key, now, expiry), want, "touch({}) at t={}", k, now);
                }
                DiffOp::Incr(k, delta) => {
                    let key = key_bytes(k);
                    // Odd keys seed a counter with a TTL, so the kept
                    // expiry is observable by later reads.
                    let expiry = if k & 1 == 0 { 0 } else { now + 200 };
                    engine.set(&key, b"100", now, expiry).expect("seed counter");
                    model.set(&key, b"100", now, expiry);
                    let want = if delta >= 0 {
                        100 + delta as u64
                    } else {
                        100u64.saturating_sub(delta.unsigned_abs())
                    };
                    model.entries.insert(key.clone(), (want.to_string().into_bytes(), expiry));
                    prop_assert_eq!(engine.incr(&key, delta, now), Ok(Some(want)), "incr({}) at t={}", k, now);
                }
                DiffOp::Concat(k, len) => {
                    let key = key_bytes(k);
                    let suffix = value_bytes(k.wrapping_add(1), len % 16);
                    let front = (k & 1) == 0;
                    let want = model.live(&key, now).map(|(v, _)| {
                        if front {
                            v.splice(0..0, suffix.iter().copied());
                        } else {
                            v.extend_from_slice(&suffix);
                        }
                        v.len()
                    });
                    prop_assert_eq!(engine.concat(&key, &suffix, front, now), Ok(want), "concat({}) at t={}", k, now);
                }
                DiffOp::Add(k, len) => {
                    let key = key_bytes(k);
                    let value = value_bytes(k, len);
                    let want = model.live(&key, now).is_none();
                    if want {
                        model.set(&key, &value, now, 0);
                    }
                    prop_assert_eq!(engine.add(&key, &value, now, 0), Ok(want), "add({}) at t={}", k, now);
                }
                DiffOp::Replace(k, len) => {
                    let key = key_bytes(k);
                    let value = value_bytes(k, len.wrapping_add(1));
                    let want = model.live(&key, now).is_some();
                    if want {
                        model.set(&key, &value, now, 0);
                    }
                    prop_assert_eq!(engine.replace(&key, &value, now, 0), Ok(want), "replace({}) at t={}", k, now);
                }
                DiffOp::Advance(ms) => {
                    now += ms as u64;
                }
                DiffOp::Maintain => engine.maintain(now),
            }
        }

        // Final sweep: every key of the keyspace reads as the model
        // says, and once those reads have reclaimed every expired entry
        // the engine holds exactly the model's live entries.
        engine.maintain(now);
        for k in 0..KEYSPACE {
            let key = key_bytes(k);
            let want = model.live(&key, now).map(|(v, _)| v.clone());
            prop_assert_eq!(engine.get(&key, now).map(Vec::from), want, "final get({})", k);
        }
        prop_assert_eq!(engine.len(), model.live_count(now), "live entries");
    }
}

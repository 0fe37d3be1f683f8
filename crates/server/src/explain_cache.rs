//! Content-addressed explanation cache with single-flight coalescing.
//!
//! The eight explanation families are expensive exactly where traffic is
//! most repetitive: the same (query, document) explanation requests
//! recur constantly, and every one used to re-run its full search. This
//! module shares that work across requests:
//!
//! * **Content addressing.** Keys are derived from the *parsed* request
//!   (`ExplainRequest::cache_key`: the family, the id of the resolved
//!   corpus snapshot, and every parsed field outside the payload-invariant
//!   set), so semantically identical requests hash equal regardless of
//!   field order or spelled-out defaults, and a corpus publish or a
//!   corpus replaced under the same name resolves to a new snapshot and
//!   thereby invalidates without any sweeping.
//! * **Single flight.** When N identical requests arrive concurrently,
//!   one leader computes and N−1 waiters block on its in-flight slot and
//!   receive a clone of the same payload. A waiter's own deadline bounds
//!   the wait: if it expires first, the waiter falls through to its own
//!   compute, which the expired [`credence_core::Budget`] immediately
//!   resolves to the canonical `status: "deadline"` partial — a coalesced
//!   request never blocks past its budget.
//! * **Byte parity.** Only *deterministic* payloads are stored or handed
//!   to waiters: HTTP 200 whose top-level `status`, when the body has one,
//!   is neither `deadline` nor `cancelled`. Those partials depend on
//!   wall-clock time, which is deliberately excluded from the key, so they
//!   are computed per request and never shared. A cached response is
//!   therefore bit-identical to what an uncached engine would produce.
//!
//! Storage is the engine ranking cache's O(1) LRU,
//! [`credence_core::Lru`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use credence_core::Lru;

use crate::http::Response;

/// Configuration for the server's explanation cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplainCacheConfig {
    /// Maximum number of cached responses; `0` disables caching and
    /// coalescing entirely.
    pub entries: usize,
}

impl Default for ExplainCacheConfig {
    fn default() -> Self {
        Self { entries: 512 }
    }
}

/// A single-flight slot: the leader publishes its outcome here and wakes
/// every waiter. `Some(response)` is a shareable payload; `None` means the
/// leader's result was request-specific (deadline/cancelled partial or an
/// error) and each waiter must compute its own.
struct InFlight {
    outcome: Mutex<Option<Option<Response>>>,
    done: Condvar,
}

impl InFlight {
    fn new() -> Self {
        Self {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        }
    }
}

/// A leader's hold on its in-flight slot. Dropping it publishes `shared`
/// (`None`: each waiter computes for itself), wakes the waiters and frees
/// the key, also when the leader's compute unwinds, so a panicking
/// explainer cannot leave its key blocking every later request.
struct Leader<'a> {
    cache: &'a ExplainCache,
    key: &'a str,
    slot: Arc<InFlight>,
    shared: Option<Response>,
}

impl Drop for Leader<'_> {
    // Runs during unwinding, where a second panic would abort, so a
    // poisoned lock is recovered: each update below is a single store.
    fn drop(&mut self) {
        let mut outcome = self
            .slot
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *outcome = Some(self.shared.take());
        self.slot.done.notify_all();
        drop(outcome);
        self.cache
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(self.key);
    }
}

/// Content-addressed LRU of explanation responses with single-flight
/// coalescing of concurrent identical requests.
pub struct ExplainCache {
    capacity: usize,
    state: Mutex<Lru<String, Response>>,
    inflight: Mutex<HashMap<String, Arc<InFlight>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl ExplainCache {
    /// Build a cache holding at most `config.entries` responses.
    pub fn new(config: ExplainCacheConfig) -> Self {
        Self {
            capacity: config.entries,
            state: Mutex::new(Lru::new(config.entries)),
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Lookups served from the cache without recomputation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Lookups that ran the underlying search.
    pub fn misses(&self) -> u64 {
        self.misses.load(Relaxed)
    }

    /// Requests that joined another request's in-flight computation.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Relaxed)
    }

    /// Entries evicted to make room for newer responses.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Relaxed)
    }

    /// Responses currently resident.
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache lock poisoned").len()
    }

    /// Whether the cache currently holds no responses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serve `key` from the cache, join an identical in-flight request, or
    /// compute. `deadline` bounds how long a coalesced waiter may block;
    /// past it the waiter computes for itself (which an expired budget
    /// resolves immediately to the canonical deadline partial).
    pub fn get_or_compute(
        &self,
        key: &str,
        deadline: Option<Instant>,
        compute: impl FnOnce() -> Response,
    ) -> Response {
        // A budget that is already spent resolves instantly to its
        // canonical `status: "deadline"` partial; consulting the cache
        // would replace that deterministic payload with a warmth-dependent
        // one, so expired requests always compute (and are never stored —
        // partials are not deterministic payloads).
        let expired = deadline.is_some_and(|d| Instant::now() >= d);
        if self.capacity == 0 || expired {
            self.misses.fetch_add(1, Relaxed);
            return compute();
        }
        if let Some(response) = self.state.lock().expect("cache lock poisoned").get(key) {
            self.hits.fetch_add(1, Relaxed);
            return response;
        }

        // Miss: become the leader for this key, or wait on the one in
        // flight.
        let (slot, leader) = {
            let mut inflight = self.inflight.lock().expect("inflight lock poisoned");
            match inflight.get(key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(InFlight::new());
                    inflight.insert(key.to_string(), Arc::clone(&slot));
                    (Arc::clone(&slot), true)
                }
            }
        };

        if !leader {
            self.coalesced.fetch_add(1, Relaxed);
            if let Some(response) = self.wait_for(&slot, deadline) {
                return response;
            }
            // The leader's payload was not shareable, or our deadline
            // expired first: compute for ourselves. An expired budget makes
            // this immediate and canonical.
            self.misses.fetch_add(1, Relaxed);
            return compute();
        }

        self.misses.fetch_add(1, Relaxed);
        let mut leader = Leader {
            cache: self,
            key,
            slot,
            shared: None,
        };
        let response = compute();
        if is_deterministic(&response) {
            leader.shared = Some(response.clone());
            drop(leader);
            let mut state = self.state.lock().expect("cache lock poisoned");
            if state.insert(key.to_string(), response.clone()) {
                self.evictions.fetch_add(1, Relaxed);
            }
        }
        response
    }

    /// Block on `slot` until the leader publishes or `deadline` passes.
    /// Returns the shared payload, or `None` when the waiter must compute
    /// for itself.
    fn wait_for(&self, slot: &InFlight, deadline: Option<Instant>) -> Option<Response> {
        let mut outcome = slot.outcome.lock().expect("inflight slot poisoned");
        loop {
            if let Some(published) = outcome.as_ref() {
                return published.clone();
            }
            match deadline {
                None => {
                    outcome = slot.done.wait(outcome).expect("inflight slot poisoned");
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let (guard, _timeout) = slot
                        .done
                        .wait_timeout(outcome, d - now)
                        .expect("inflight slot poisoned");
                    outcome = guard;
                }
            }
        }
    }
}

/// Whether a response is deterministic — reproducible for any request
/// that hashes to the same canonical key — and therefore safe to store
/// and to hand to coalesced waiters. Deadline/cancelled partials depend
/// on wall-clock time (excluded from the key) and errors carry no reusable
/// work, so any other success qualifies: a completed or evaluation-capped
/// search, or a payload with no `status` at all (the families that run no
/// search).
fn is_deterministic(response: &Response) -> bool {
    if response.status != 200 {
        return false;
    }
    let Ok(body) = std::str::from_utf8(&response.body) else {
        return false;
    };
    let Ok(value) = credence_json::parse(body) else {
        return false;
    };
    !matches!(
        value.get("status").and_then(|s| s.as_str()),
        Some("deadline" | "cancelled")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: u64) -> Response {
        Response::json(200, format!("{{\"status\":\"complete\",\"n\":{n}}}"))
    }

    #[test]
    fn repeat_lookup_is_a_hit_with_identical_bytes() {
        let cache = ExplainCache::new(ExplainCacheConfig { entries: 4 });
        let first = cache.get_or_compute("k", None, || complete(1));
        let second = cache.get_or_compute("k", None, || panic!("must not recompute"));
        assert_eq!(first, second);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ExplainCache::new(ExplainCacheConfig { entries: 0 });
        cache.get_or_compute("k", None, || complete(1));
        let again = cache.get_or_compute("k", None, || complete(2));
        assert_eq!(again, complete(2), "every request recomputes");
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn non_deterministic_payloads_are_never_stored() {
        let cache = ExplainCache::new(ExplainCacheConfig { entries: 4 });
        cache.get_or_compute("deadline", None, || {
            Response::json(200, "{\"status\":\"deadline\"}")
        });
        cache.get_or_compute("cancelled", None, || {
            Response::json(200, "{\"status\":\"cancelled\"}")
        });
        cache.get_or_compute("error", None, || Response::json(422, "{}"));
        assert_eq!(cache.len(), 0);
        let recomputed = cache.get_or_compute("deadline", None, || complete(7));
        assert_eq!(recomputed, complete(7), "partial was not served from cache");
    }

    #[test]
    fn payloads_without_a_status_are_stored() {
        let cache = ExplainCache::new(ExplainCacheConfig { entries: 4 });
        let plain = || Response::json(200, "{\"explanations\":[]}");
        cache.get_or_compute("plain", None, plain);
        let again = cache.get_or_compute("plain", None, || panic!("must not recompute"));
        assert_eq!(again, plain());
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = ExplainCache::new(ExplainCacheConfig { entries: 2 });
        cache.get_or_compute("a", None, || complete(1));
        cache.get_or_compute("b", None, || complete(2));
        cache.get_or_compute("a", None, || panic!("hit")); // refresh a
        cache.get_or_compute("c", None, || complete(3)); // evicts b
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        let a_again = cache.get_or_compute("a", None, || panic!("a was refreshed"));
        assert_eq!(a_again, complete(1));
        let b_again = cache.get_or_compute("b", None, || complete(9));
        assert_eq!(b_again, complete(9), "b was the LRU victim");
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_compute() {
        let cache = Arc::new(ExplainCache::new(ExplainCacheConfig { entries: 4 }));
        let computes = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    cache.get_or_compute("k", None, || {
                        computes.fetch_add(1, Relaxed);
                        // Hold the flight open long enough for the other
                        // threads to join it.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        complete(42)
                    })
                })
            })
            .collect();
        let bodies: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(bodies.iter().all(|b| *b == complete(42)));
        assert_eq!(computes.load(Relaxed), 1, "one search served all 8 threads");
        assert_eq!(cache.hits() + cache.coalesced(), 7);
    }

    #[test]
    fn waiter_deadline_bounds_the_coalesced_wait() {
        let cache = Arc::new(ExplainCache::new(ExplainCacheConfig { entries: 4 }));
        let started = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                cache.get_or_compute("k", None, || {
                    started.wait();
                    std::thread::sleep(std::time::Duration::from_millis(300));
                    complete(1)
                })
            })
        };
        started.wait(); // the leader is computing
        let t0 = Instant::now();
        let deadline = t0 + std::time::Duration::from_millis(30);
        let waiter = cache.get_or_compute("k", Some(deadline), || {
            Response::json(200, "{\"status\":\"deadline\"}")
        });
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(250),
            "waiter did not block for the leader's full compute"
        );
        assert_eq!(waiter, Response::json(200, "{\"status\":\"deadline\"}"));
        leader.join().unwrap();
    }

    #[test]
    fn a_panicking_leader_frees_its_waiters_and_its_key() {
        let cache = Arc::new(ExplainCache::new(ExplainCacheConfig { entries: 4 }));
        let (start_panic, panic_now) = std::sync::mpsc::channel::<()>();
        let computing = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let computing = Arc::clone(&computing);
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute("k", None, || {
                        computing.wait();
                        let _ = panic_now.recv();
                        panic!("explainer bug");
                    })
                }))
                .is_err()
            })
        };
        computing.wait(); // the leader is computing

        // Each caller answers on a channel, so a blocked one fails the
        // test at the timeout instead of hanging it.
        let ask = |n: u64| {
            let cache = Arc::clone(&cache);
            let (tx, rx) = std::sync::mpsc::channel();
            let caller = std::thread::spawn(move || {
                tx.send(cache.get_or_compute("k", None, || complete(n)))
                    .unwrap()
            });
            (rx, caller)
        };
        let (waiter, waiter_thread) = ask(2);
        let t0 = Instant::now();
        while cache.coalesced() == 0 {
            assert!(t0.elapsed() < std::time::Duration::from_secs(5));
            std::thread::yield_now();
        }
        start_panic.send(()).unwrap();
        assert!(leader.join().unwrap(), "the leader's compute panicked");
        let five = std::time::Duration::from_secs(5);
        assert_eq!(waiter.recv_timeout(five), Ok(complete(2)));
        waiter_thread.join().unwrap();
        let (later, later_thread) = ask(3);
        assert_eq!(later.recv_timeout(five), Ok(complete(3)));
        later_thread.join().unwrap();
    }
}

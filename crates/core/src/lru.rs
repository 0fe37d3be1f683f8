//! The O(1) least-recently-used map behind the engine's ranking cache and
//! the server's explanation cache.
//!
//! A hash map from key to slot in a slab of nodes, with the nodes threaded
//! on an intrusive doubly-linked recency list: lookups and inserts are both
//! O(1), with no linear scans. Entries are never removed one by one, only
//! evicted, so an evicted node's slot is reused at once and the slab never
//! holds a hole.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel for "no node" in the intrusive links.
const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A bounded map that evicts its least recently used entry to make room.
/// Callers wrap it in their own lock and keep their own hit, miss and
/// eviction counters.
pub struct Lru<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    head: usize,
    tail: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// An empty map holding at most `capacity` entries (`0` holds none).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A clone of `key`'s value, marking it most recently used.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.detach(i);
            self.push_front(i);
        }
        Some(self.nodes[i].value.clone())
    }

    /// Insert `key` as the most recently used entry, evicting the least
    /// recently used one when full; returns whether an entry was evicted.
    /// A key already present keeps its value (a racing thread inserted it
    /// first).
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return false;
        }
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let evicted = self.map.len() >= self.capacity;
        let i = if evicted {
            let lru = self.tail;
            self.detach(lru);
            self.map.remove(&self.nodes[lru].key);
            self.nodes[lru] = node;
            lru
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.push_front(i);
        self.map.insert(key, i);
        evicted
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_present_key_keeps_its_value() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        assert!(!lru.insert(1, 11));
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn zero_capacity_holds_nothing() {
        let mut lru: Lru<u32, u32> = Lru::new(0);
        assert!(!lru.insert(1, 10));
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
    }

    #[test]
    fn a_full_cycle_reuses_every_slot() {
        let mut lru: Lru<u32, u32> = Lru::new(3);
        for i in 0..10 {
            lru.insert(i, i * 10);
        }
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.nodes.len(), 3);
        for i in 0..7 {
            assert_eq!(lru.get(&i), None);
        }
        for i in 7..10 {
            assert_eq!(lru.get(&i), Some(i * 10));
        }
    }
}

//! A per-destination connection cache shared by every sender in the
//! platform: the agg-box egress thread, the master shim's control plane
//! and the worker shim's data plane.

use crate::lifecycle::OrderedMutex;
use bytes::Bytes;
use netagg_net::lock_order;
use netagg_net::{Connection, NetError, NodeId, Transport};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Persistent connections from one local node, one per destination.
/// Persistent connections keep traffic ordered per peer and avoid a dial
/// per message.
pub struct ConnCache {
    local: NodeId,
    transport: Arc<dyn Transport>,
    conns: OrderedMutex<HashMap<NodeId, Box<dyn Connection>>>,
}

impl ConnCache {
    /// An empty cache dialling from `local` over `transport`.
    pub fn new(transport: Arc<dyn Transport>, local: NodeId) -> Self {
        Self {
            local,
            transport,
            conns: OrderedMutex::new(lock_order::CONN_CACHE, HashMap::new()),
        }
    }

    /// Send `frame` to `dest` on the cached connection, dialling on a
    /// miss. A failed dial or a stale connection's failed send gets one
    /// more attempt on a fresh dial; the last error is returned.
    pub fn send(&self, dest: NodeId, frame: Bytes) -> Result<(), NetError> {
        let mut conns = self.conns.lock();
        let mut last = NetError::NotFound(dest);
        for _ in 0..2 {
            let conn = match conns.entry(dest) {
                Entry::Occupied(e) => e.into_mut(),
                // netagg-lint: allow(no-block-while-locked) deliberate §15 exception: the cache lock serializes racing dials to one per destination
                Entry::Vacant(v) => match self.transport.connect(self.local, dest) {
                    Ok(c) => v.insert(c),
                    Err(e) => {
                        last = e;
                        continue;
                    }
                },
            };
            // Path-qualified: a method call named `send` here would read as
            // a recursive call of `ConnCache::send` to the lock-order lint.
            // netagg-lint: allow(no-block-while-locked) deliberate §15 exception: the first send must precede any racing redial that would replace the cached conn
            match Connection::send(conn.as_mut(), frame.clone()) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    conns.remove(&dest);
                    last = e;
                }
            }
        }
        Err(last)
    }
}

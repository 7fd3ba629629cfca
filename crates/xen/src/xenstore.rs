//! Xenstore: the shared hierarchical configuration database.
//!
//! Backends and frontends negotiate entirely through this store: each side
//! writes its ring references, event-channel ports and feature flags under
//! well-known paths and *watches* the other side's directory. The semantics
//! implemented here follow `xenstored`:
//!
//! * writes implicitly create parent directories;
//! * removal is recursive;
//! * watches fire for the watched node and everything below it, and fire
//!   once immediately upon registration;
//! * transactions are optimistic — commit fails with [`XenError::Again`]
//!   when any node read inside the transaction changed concurrently.
//!
//! Permissions use the simplified Xen model: a node is owned by the domain
//! that created it, Dom0 may do anything, and owners can grant read or
//! read-write access per peer domain.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::domain::DomainId;
use crate::error::{Result, XenError};

/// A watch registration handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WatchId(u64);

/// A transaction handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxId(u64);

/// Access level grantable on a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Perm {
    /// Peer may read the node and its children.
    Read,
    /// Peer may read and write the node and its children.
    ReadWrite,
}

/// A fired watch, to be routed to the watching domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchEvent {
    /// The watching domain.
    pub domain: DomainId,
    /// The id of the watch that fired.
    pub watch: WatchId,
    /// The path that changed (or the watch path itself on registration).
    pub path: String,
}

#[derive(Clone, Debug)]
struct Node {
    value: String,
    owner: DomainId,
    perms: Vec<(DomainId, Perm)>,
    last_mod: u64,
}

#[derive(Clone, Debug)]
struct Watch {
    domain: DomainId,
    path: String,
}

#[derive(Debug)]
struct Transaction {
    caller: DomainId,
    start_gen: u64,
    reads: BTreeSet<String>,
    /// `None` marks a (recursive) delete of the subtree rooted at the key.
    writes: BTreeMap<String, Option<String>>,
}

/// Default per-domain owned-node quota (xenstored's `quota-nodes` knob;
/// Dom0 is exempt). Prevents an unprivileged domain from exhausting
/// xenstored's memory — a real DoS vector the daemon defends against.
pub const DEFAULT_NODE_QUOTA: usize = 1000;

/// The store itself.
#[derive(Default)]
pub struct Xenstore {
    nodes: BTreeMap<String, Node>,
    owned: HashMap<DomainId, usize>,
    quota_override: HashMap<DomainId, usize>,
    watches: HashMap<WatchId, Watch>,
    next_watch: u64,
    txs: HashMap<TxId, Transaction>,
    next_tx: u64,
    generation: u64,
    pending: Vec<WatchEvent>,
}

fn validate(path: &str) -> Result<()> {
    if path == "/" {
        return Ok(());
    }
    if !path.starts_with('/') || path.ends_with('/') {
        return Err(XenError::Inval);
    }
    for seg in path[1..].split('/') {
        if seg.is_empty() {
            return Err(XenError::Inval);
        }
        if !seg
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'@' | b':' | b'.'))
        {
            return Err(XenError::Inval);
        }
    }
    Ok(())
}

fn parent(path: &str) -> Option<&str> {
    let idx = path.rfind('/')?;
    if idx == 0 {
        if path.len() > 1 {
            Some("/")
        } else {
            None
        }
    } else {
        Some(&path[..idx])
    }
}

/// True when `node` is `root` itself or lies underneath it.
fn under(root: &str, node: &str) -> bool {
    if root == "/" {
        return true;
    }
    node == root || (node.starts_with(root) && node.as_bytes().get(root.len()) == Some(&b'/'))
}

impl Xenstore {
    /// Creates an empty store containing only the root, owned by Dom0.
    pub fn new() -> Xenstore {
        let mut s = Xenstore::default();
        s.nodes.insert(
            "/".to_string(),
            Node {
                value: String::new(),
                owner: DomainId::DOM0,
                perms: Vec::new(),
                last_mod: 0,
            },
        );
        s
    }

    fn may_read(&self, caller: DomainId, path: &str) -> bool {
        if caller.is_dom0() {
            return true;
        }
        // Permission is checked on the nearest existing ancestor with an
        // explicit rule, walking upward (xenstored inherits perms downward).
        let mut p = path.to_string();
        loop {
            if let Some(n) = self.nodes.get(&p) {
                if n.owner == caller {
                    return true;
                }
                if n.perms.iter().any(|&(d, _)| d == caller) {
                    return true;
                }
            }
            match parent(&p) {
                Some(pp) => p = pp.to_string(),
                None => return false,
            }
        }
    }

    fn may_write(&self, caller: DomainId, path: &str) -> bool {
        if caller.is_dom0() {
            return true;
        }
        // Permissions inherit downward: walking toward the root, the first
        // node granting the caller write (by ownership or an explicit
        // read-write rule) authorizes the whole subtree. The root is owned
        // by Dom0, so unprivileged writes outside delegated subtrees fail.
        let mut p = path.to_string();
        loop {
            if let Some(n) = self.nodes.get(&p) {
                if n.owner == caller {
                    return true;
                }
                if n.perms
                    .iter()
                    .any(|&(d, pm)| d == caller && pm == Perm::ReadWrite)
                {
                    return true;
                }
            }
            match parent(&p) {
                Some(pp) => p = pp.to_string(),
                None => return false,
            }
        }
    }

    fn fire_watches(&mut self, changed: &str) {
        for (&id, w) in &self.watches {
            if under(&w.path, changed) {
                self.pending.push(WatchEvent {
                    domain: w.domain,
                    watch: id,
                    path: changed.to_string(),
                });
            }
        }
    }

    /// The node quota applying to `d`.
    pub fn quota_of(&self, d: DomainId) -> usize {
        if d.is_dom0() {
            usize::MAX
        } else {
            self.quota_override
                .get(&d)
                .copied()
                .unwrap_or(DEFAULT_NODE_QUOTA)
        }
    }

    /// Adjusts a domain's node quota (the `quota-nodes` knob).
    pub fn set_quota(&mut self, d: DomainId, quota: usize) {
        self.quota_override.insert(d, quota);
    }

    fn charge_node(&mut self, owner: DomainId, new_nodes: usize) -> Result<()> {
        let have = self.owned.get(&owner).copied().unwrap_or(0);
        if have + new_nodes > self.quota_of(owner) {
            return Err(XenError::Quota);
        }
        *self.owned.entry(owner).or_insert(0) += new_nodes;
        Ok(())
    }

    fn raw_write(&mut self, caller: DomainId, path: &str, value: &str) -> Result<()> {
        if !self.may_write(caller, path) {
            return Err(XenError::Perm);
        }
        // Quota: count the nodes this write would create.
        let mut creating = usize::from(!self.nodes.contains_key(path));
        let mut p = path.to_string();
        while let Some(pp) = parent(&p) {
            if !self.nodes.contains_key(pp) {
                creating += 1;
            }
            p = pp.to_string();
        }
        if creating > 0 {
            self.charge_node(caller, creating)?;
        }
        self.generation += 1;
        let generation = self.generation;
        // Create missing ancestors owned by the caller.
        let mut ancestors = Vec::new();
        let mut p = path.to_string();
        while let Some(pp) = parent(&p) {
            if !self.nodes.contains_key(pp) {
                ancestors.push(pp.to_string());
            }
            p = pp.to_string();
        }
        for a in ancestors.into_iter().rev() {
            self.nodes.insert(
                a.clone(),
                Node {
                    value: String::new(),
                    owner: caller,
                    perms: Vec::new(),
                    last_mod: generation,
                },
            );
            self.fire_watches(&a);
        }
        match self.nodes.get_mut(path) {
            Some(n) => {
                n.value = value.to_string();
                n.last_mod = generation;
            }
            None => {
                self.nodes.insert(
                    path.to_string(),
                    Node {
                        value: value.to_string(),
                        owner: caller,
                        perms: Vec::new(),
                        last_mod: generation,
                    },
                );
            }
        }
        self.fire_watches(path);
        Ok(())
    }

    fn raw_rm(&mut self, caller: DomainId, path: &str) -> Result<()> {
        if path == "/" {
            return Err(XenError::Inval);
        }
        if !self.nodes.contains_key(path) {
            return Err(XenError::NoEnt);
        }
        if !self.may_write(caller, path) {
            return Err(XenError::Perm);
        }
        self.generation += 1;
        let doomed: Vec<String> = self
            .nodes
            .range(path.to_string()..)
            .take_while(|(k, _)| under(path, k))
            .map(|(k, _)| k.clone())
            .collect();
        for k in doomed {
            if let Some(n) = self.nodes.remove(&k) {
                if let Some(cnt) = self.owned.get_mut(&n.owner) {
                    *cnt = cnt.saturating_sub(1);
                }
            }
            self.fire_watches(&k);
        }
        Ok(())
    }

    /// Reads a node's value.
    pub fn read(&mut self, caller: DomainId, tx: Option<TxId>, path: &str) -> Result<String> {
        validate(path)?;
        if let Some(txid) = tx {
            let t = self.txs.get(&txid).ok_or(XenError::BadTransaction)?;
            if t.caller != caller {
                return Err(XenError::Perm);
            }
            // Within-transaction read-your-writes.
            for (wp, val) in t.writes.iter().rev() {
                if wp == path {
                    return val.clone().ok_or(XenError::NoEnt);
                }
                if under(wp, path) && val.is_none() {
                    return Err(XenError::NoEnt);
                }
            }
            if !self.may_read(caller, path) {
                return Err(XenError::Perm);
            }
            let v = self
                .nodes
                .get(path)
                .map(|n| n.value.clone())
                .ok_or(XenError::NoEnt);
            let t = self.txs.get_mut(&txid).expect("checked above");
            t.reads.insert(path.to_string());
            return v;
        }
        if !self.may_read(caller, path) {
            return Err(XenError::Perm);
        }
        self.nodes
            .get(path)
            .map(|n| n.value.clone())
            .ok_or(XenError::NoEnt)
    }

    /// Writes a node, creating missing parents.
    pub fn write(
        &mut self,
        caller: DomainId,
        tx: Option<TxId>,
        path: &str,
        value: &str,
    ) -> Result<()> {
        validate(path)?;
        if let Some(txid) = tx {
            let t = self.txs.get_mut(&txid).ok_or(XenError::BadTransaction)?;
            if t.caller != caller {
                return Err(XenError::Perm);
            }
            t.writes.insert(path.to_string(), Some(value.to_string()));
            return Ok(());
        }
        self.raw_write(caller, path, value)
    }

    /// Removes a node and its entire subtree.
    pub fn rm(&mut self, caller: DomainId, tx: Option<TxId>, path: &str) -> Result<()> {
        validate(path)?;
        if let Some(txid) = tx {
            let t = self.txs.get_mut(&txid).ok_or(XenError::BadTransaction)?;
            if t.caller != caller {
                return Err(XenError::Perm);
            }
            t.writes.insert(path.to_string(), None);
            return Ok(());
        }
        self.raw_rm(caller, path)
    }

    /// Lists the immediate child names of a directory.
    pub fn directory(&mut self, caller: DomainId, path: &str) -> Result<Vec<String>> {
        validate(path)?;
        if !self.may_read(caller, path) {
            return Err(XenError::Perm);
        }
        if !self.nodes.contains_key(path) {
            return Err(XenError::NoEnt);
        }
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let mut children = BTreeSet::new();
        for (k, _) in self
            .nodes
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
        {
            let rest = &k[prefix.len()..];
            if let Some(first) = rest.split('/').next() {
                if !first.is_empty() {
                    children.insert(first.to_string());
                }
            }
        }
        Ok(children.into_iter().collect())
    }

    /// Grants `peer` access on `path` (and by inheritance, its subtree).
    pub fn set_perm(
        &mut self,
        caller: DomainId,
        path: &str,
        peer: DomainId,
        perm: Perm,
    ) -> Result<()> {
        validate(path)?;
        if !self.may_write(caller, path) {
            return Err(XenError::Perm);
        }
        let n = self.nodes.get_mut(path).ok_or(XenError::NoEnt)?;
        n.perms.retain(|&(d, _)| d != peer);
        n.perms.push((peer, perm));
        Ok(())
    }

    /// Registers a watch on `path`; fires once immediately.
    pub fn watch(&mut self, domain: DomainId, path: &str) -> Result<WatchId> {
        validate(path)?;
        let id = WatchId(self.next_watch);
        self.next_watch += 1;
        self.watches.insert(
            id,
            Watch {
                domain,
                path: path.to_string(),
            },
        );
        // Xen semantics: a watch fires once upon registration so the
        // watcher can synchronize with pre-existing state.
        self.pending.push(WatchEvent {
            domain,
            watch: id,
            path: path.to_string(),
        });
        Ok(id)
    }

    /// Removes a watch.
    pub fn unwatch(&mut self, id: WatchId) -> Result<()> {
        self.watches.remove(&id).map(|_| ()).ok_or(XenError::NoEnt)
    }

    /// Drains fired watch events (the system layer routes them).
    pub fn take_events(&mut self) -> Vec<WatchEvent> {
        std::mem::take(&mut self.pending)
    }

    /// Starts a transaction.
    pub fn tx_start(&mut self, caller: DomainId) -> TxId {
        let id = TxId(self.next_tx);
        self.next_tx += 1;
        self.txs.insert(
            id,
            Transaction {
                caller,
                start_gen: self.generation,
                reads: BTreeSet::new(),
                writes: BTreeMap::new(),
            },
        );
        id
    }

    /// Ends a transaction; `commit == false` aborts.
    ///
    /// Returns [`XenError::Again`] if a node read inside the transaction was
    /// modified concurrently — the caller must retry the whole transaction.
    pub fn tx_end(&mut self, caller: DomainId, txid: TxId, commit: bool) -> Result<()> {
        let t = self.txs.remove(&txid).ok_or(XenError::BadTransaction)?;
        if t.caller != caller {
            self.txs.insert(txid, t);
            return Err(XenError::Perm);
        }
        if !commit {
            return Ok(());
        }
        for r in &t.reads {
            if let Some(n) = self.nodes.get(r) {
                if n.last_mod > t.start_gen {
                    return Err(XenError::Again);
                }
            } else {
                // A read node disappeared.
                return Err(XenError::Again);
            }
        }
        for (path, val) in t.writes {
            match val {
                Some(v) => self.raw_write(caller, &path, &v)?,
                None => match self.raw_rm(caller, &path) {
                    Ok(()) | Err(XenError::NoEnt) => {}
                    Err(e) => return Err(e),
                },
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DomainId = DomainId(0);
    const DD: DomainId = DomainId(1);
    const GU: DomainId = DomainId(2);

    #[test]
    fn write_read_roundtrip_creates_parents() {
        let mut xs = Xenstore::new();
        xs.write(D0, None, "/local/domain/1/name", "netbackend")
            .unwrap();
        assert_eq!(
            xs.read(D0, None, "/local/domain/1/name").unwrap(),
            "netbackend"
        );
        // Parents exist as directories.
        assert_eq!(xs.directory(D0, "/local").unwrap(), vec!["domain"]);
        assert_eq!(xs.directory(D0, "/local/domain").unwrap(), vec!["1"]);
    }

    #[test]
    fn path_validation() {
        let mut xs = Xenstore::new();
        assert_eq!(xs.write(D0, None, "no-slash", "x"), Err(XenError::Inval));
        assert_eq!(xs.write(D0, None, "/a//b", "x"), Err(XenError::Inval));
        assert_eq!(xs.write(D0, None, "/a/", "x"), Err(XenError::Inval));
        assert_eq!(xs.write(D0, None, "/a b", "x"), Err(XenError::Inval));
        xs.write(D0, None, "/a-b_c.d:e@f/0", "ok").unwrap();
    }

    #[test]
    fn missing_node_is_noent() {
        let mut xs = Xenstore::new();
        assert_eq!(xs.read(D0, None, "/nope"), Err(XenError::NoEnt));
    }

    #[test]
    fn rm_is_recursive() {
        let mut xs = Xenstore::new();
        xs.write(D0, None, "/a/b/c", "1").unwrap();
        xs.write(D0, None, "/a/b/d", "2").unwrap();
        xs.write(D0, None, "/a/e", "3").unwrap();
        xs.rm(D0, None, "/a/b").unwrap();
        assert_eq!(xs.read(D0, None, "/a/b/c"), Err(XenError::NoEnt));
        assert_eq!(xs.read(D0, None, "/a/b/d"), Err(XenError::NoEnt));
        assert_eq!(xs.read(D0, None, "/a/e").unwrap(), "3");
        // Sibling with a shared name prefix must survive.
        xs.write(D0, None, "/a/bb", "4").unwrap();
        xs.rm(D0, None, "/a/e").unwrap();
        assert_eq!(xs.read(D0, None, "/a/bb").unwrap(), "4");
    }

    #[test]
    fn unprivileged_domain_owns_what_it_creates() {
        let mut xs = Xenstore::new();
        // Dom0 delegates a home directory to DD.
        xs.write(D0, None, "/local/domain/1", "").unwrap();
        xs.set_perm(D0, "/local/domain/1", DD, Perm::ReadWrite)
            .unwrap();
        xs.write(DD, None, "/local/domain/1/feature", "1").unwrap();
        assert_eq!(xs.read(DD, None, "/local/domain/1/feature").unwrap(), "1");
        // A third domain may not read it.
        assert_eq!(
            xs.read(GU, None, "/local/domain/1/feature"),
            Err(XenError::Perm)
        );
        // Until granted read access on the subtree root.
        xs.set_perm(D0, "/local/domain/1", GU, Perm::Read).unwrap();
        assert_eq!(xs.read(GU, None, "/local/domain/1/feature").unwrap(), "1");
        // But still cannot write.
        assert_eq!(
            xs.write(GU, None, "/local/domain/1/feature", "0"),
            Err(XenError::Perm)
        );
    }

    #[test]
    fn unprivileged_cannot_write_elsewhere() {
        let mut xs = Xenstore::new();
        xs.write(D0, None, "/local/domain/0/secret", "root")
            .unwrap();
        assert_eq!(
            xs.write(GU, None, "/local/domain/0/secret", "pwned"),
            Err(XenError::Perm)
        );
        assert_eq!(xs.write(GU, None, "/fresh", "x"), Err(XenError::Perm));
    }

    #[test]
    fn watch_fires_on_registration_and_subtree_changes() {
        let mut xs = Xenstore::new();
        xs.write(D0, None, "/backend/vif", "").unwrap();
        let w = xs.watch(DD, "/backend/vif").unwrap();
        let evs = xs.take_events();
        assert_eq!(evs.len(), 1, "registration fire");
        assert_eq!(evs[0].path, "/backend/vif");
        assert_eq!(evs[0].watch, w);

        xs.write(D0, None, "/backend/vif/2/0/state", "1").unwrap();
        let evs = xs.take_events();
        // Fires for each created ancestor under the watch plus the leaf.
        assert!(evs.iter().any(|e| e.path == "/backend/vif/2/0/state"));
        assert!(evs.iter().all(|e| e.domain == DD));

        // Unrelated path: silence.
        xs.write(D0, None, "/frontend/x", "1").unwrap();
        assert!(xs.take_events().is_empty());
    }

    #[test]
    fn watch_fires_on_rm() {
        let mut xs = Xenstore::new();
        xs.write(D0, None, "/backend/vbd/1/0/state", "4").unwrap();
        xs.watch(DD, "/backend/vbd").unwrap();
        xs.take_events();
        xs.rm(D0, None, "/backend/vbd/1").unwrap();
        let evs = xs.take_events();
        assert!(evs.iter().any(|e| e.path == "/backend/vbd/1/0/state"));
    }

    #[test]
    fn unwatch_stops_events() {
        let mut xs = Xenstore::new();
        let w = xs.watch(DD, "/x").unwrap();
        xs.take_events();
        xs.unwatch(w).unwrap();
        xs.write(D0, None, "/x/y", "1").unwrap();
        assert!(xs.take_events().is_empty());
    }

    #[test]
    fn transaction_commit_applies_atomically() {
        let mut xs = Xenstore::new();
        let tx = xs.tx_start(D0);
        xs.write(D0, Some(tx), "/a", "1").unwrap();
        xs.write(D0, Some(tx), "/b", "2").unwrap();
        // Not visible outside before commit.
        assert_eq!(xs.read(D0, None, "/a"), Err(XenError::NoEnt));
        // Visible inside (read-your-writes).
        assert_eq!(xs.read(D0, Some(tx), "/a").unwrap(), "1");
        xs.tx_end(D0, tx, true).unwrap();
        assert_eq!(xs.read(D0, None, "/a").unwrap(), "1");
        assert_eq!(xs.read(D0, None, "/b").unwrap(), "2");
    }

    #[test]
    fn transaction_abort_discards() {
        let mut xs = Xenstore::new();
        let tx = xs.tx_start(D0);
        xs.write(D0, Some(tx), "/a", "1").unwrap();
        xs.tx_end(D0, tx, false).unwrap();
        assert_eq!(xs.read(D0, None, "/a"), Err(XenError::NoEnt));
    }

    #[test]
    fn conflicting_transaction_gets_eagain() {
        let mut xs = Xenstore::new();
        xs.write(D0, None, "/counter", "1").unwrap();
        let tx = xs.tx_start(D0);
        let v = xs.read(D0, Some(tx), "/counter").unwrap();
        // Concurrent writer bumps the node.
        xs.write(D0, None, "/counter", "5").unwrap();
        xs.write(D0, Some(tx), "/counter", &format!("{}0", v))
            .unwrap();
        assert_eq!(xs.tx_end(D0, tx, true), Err(XenError::Again));
        // Retry succeeds.
        let tx = xs.tx_start(D0);
        let v = xs.read(D0, Some(tx), "/counter").unwrap();
        assert_eq!(v, "5");
        xs.write(D0, Some(tx), "/counter", "50").unwrap();
        xs.tx_end(D0, tx, true).unwrap();
        assert_eq!(xs.read(D0, None, "/counter").unwrap(), "50");
    }

    #[test]
    fn non_conflicting_transactions_commit() {
        let mut xs = Xenstore::new();
        xs.write(D0, None, "/a", "1").unwrap();
        xs.write(D0, None, "/b", "1").unwrap();
        let tx = xs.tx_start(D0);
        xs.read(D0, Some(tx), "/a").unwrap();
        xs.write(D0, Some(tx), "/a", "2").unwrap();
        // A concurrent write to an *unread* node does not conflict.
        xs.write(D0, None, "/b", "9").unwrap();
        xs.tx_end(D0, tx, true).unwrap();
        assert_eq!(xs.read(D0, None, "/a").unwrap(), "2");
    }

    #[test]
    fn tx_delete_visible_inside() {
        let mut xs = Xenstore::new();
        xs.write(D0, None, "/a/b", "1").unwrap();
        let tx = xs.tx_start(D0);
        xs.rm(D0, Some(tx), "/a").unwrap();
        assert_eq!(xs.read(D0, Some(tx), "/a/b"), Err(XenError::NoEnt));
        xs.tx_end(D0, tx, true).unwrap();
        assert_eq!(xs.read(D0, None, "/a/b"), Err(XenError::NoEnt));
    }

    #[test]
    fn directory_lists_only_immediate_children() {
        let mut xs = Xenstore::new();
        xs.write(D0, None, "/dev/vif/0/state", "1").unwrap();
        xs.write(D0, None, "/dev/vif/1/state", "1").unwrap();
        xs.write(D0, None, "/dev/vbd/0", "x").unwrap();
        assert_eq!(xs.directory(D0, "/dev").unwrap(), vec!["vbd", "vif"]);
        assert_eq!(xs.directory(D0, "/dev/vif").unwrap(), vec!["0", "1"]);
        assert_eq!(xs.directory(D0, "/missing"), Err(XenError::NoEnt));
    }

    #[test]
    fn quota_limits_unprivileged_node_creation() {
        let mut xs = Xenstore::new();
        // Delegate a subtree to DD with a tiny quota.
        xs.write(D0, None, "/local/domain/1", "").unwrap();
        xs.set_perm(D0, "/local/domain/1", DD, Perm::ReadWrite)
            .unwrap();
        xs.set_quota(DD, 5);
        for i in 0..5 {
            xs.write(DD, None, &format!("/local/domain/1/n{i}"), "x")
                .unwrap();
        }
        assert_eq!(
            xs.write(DD, None, "/local/domain/1/n5", "x"),
            Err(XenError::Quota)
        );
        // Overwriting an existing node costs nothing.
        xs.write(DD, None, "/local/domain/1/n0", "y").unwrap();
        // Removing frees quota.
        xs.rm(DD, None, "/local/domain/1/n1").unwrap();
        xs.write(DD, None, "/local/domain/1/n5", "x").unwrap();
    }

    #[test]
    fn dom0_is_quota_exempt() {
        let mut xs = Xenstore::new();
        xs.set_quota(D0, 1); // ignored
        for i in 0..50 {
            xs.write(D0, None, &format!("/a/b{i}"), "x").unwrap();
        }
        assert_eq!(xs.quota_of(D0), usize::MAX);
    }

    #[test]
    fn bad_transaction_id_rejected() {
        let mut xs = Xenstore::new();
        assert_eq!(
            xs.read(D0, Some(TxId(42)), "/x"),
            Err(XenError::BadTransaction)
        );
        assert_eq!(xs.tx_end(D0, TxId(42), true), Err(XenError::BadTransaction));
    }
}

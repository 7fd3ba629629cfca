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
use std::ops::Bound;

use crate::domain::DomainId;
use crate::error::{Result, XenError};

/// A watch registration handle. Ids are handed out in registration
/// order, which is the order watches fire in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
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
    /// The transaction's writes in program order; `None` marks a
    /// (recursive) delete of the subtree rooted at the path.
    writes: Vec<(String, Option<String>)>,
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
    /// Keyed by id, so one change fires its watches in registration
    /// order.
    watches: BTreeMap<WatchId, Watch>,
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

/// `path` and then each of its ancestors, nearest first, ending at the
/// root: borrowed prefixes of `path`, so walking them allocates nothing.
fn ancestry(path: &str) -> impl Iterator<Item = &str> {
    std::iter::successors(Some(path), |p| parent(p))
}

/// The keys of `root` and every node underneath it, in key order. The
/// keys starting with `root` are one contiguous range of the map; a
/// sibling sharing the name's prefix (`/a/b-c` next to `/a/b`) sorts
/// inside it, before `/a/b/…`, and is filtered out.
fn subtree<'a>(nodes: &'a BTreeMap<String, Node>, root: &'a str) -> impl Iterator<Item = &'a str> {
    nodes
        .range::<str, _>((Bound::Included(root), Bound::Unbounded))
        .map(|(k, _)| k.as_str())
        .take_while(move |k| k.starts_with(root))
        .filter(move |k| under(root, k))
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
        ancestry(path).any(|p| {
            self.nodes
                .get(p)
                .is_some_and(|n| n.owner == caller || n.perms.iter().any(|&(d, _)| d == caller))
        })
    }

    fn may_write(&self, caller: DomainId, path: &str) -> bool {
        if caller.is_dom0() {
            return true;
        }
        // Permissions inherit downward: walking toward the root, the first
        // node granting the caller write (by ownership or an explicit
        // read-write rule) authorizes the whole subtree. The root is owned
        // by Dom0, so unprivileged writes outside delegated subtrees fail.
        ancestry(path).any(|p| {
            self.nodes.get(p).is_some_and(|n| {
                n.owner == caller
                    || n.perms
                        .iter()
                        .any(|&(d, pm)| d == caller && pm == Perm::ReadWrite)
            })
        })
    }

    /// Queues one event per watch on `changed` or an ancestor of it, in
    /// registration order.
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
        // Quota: count the nodes this write would create — `path` and its
        // ancestors up to the nearest one present. Every node's parent
        // exists, so nothing above that one is missing.
        let creating = ancestry(path)
            .take_while(|p| !self.nodes.contains_key(*p))
            .count();
        if creating > 0 {
            self.charge_node(caller, creating)?;
        }
        self.generation += 1;
        let generation = self.generation;
        if let Some(n) = self.nodes.get_mut(path) {
            n.value.clear();
            n.value.push_str(value);
            n.last_mod = generation;
            self.fire_watches(path);
            return Ok(());
        }
        // Create the missing nodes top down, each owned by the caller and
        // firing as it appears. `path` has one prefix per separator past
        // the root's, itself included; the missing ones are the last
        // `creating`.
        let depth = path.bytes().filter(|&b| b == b'/').count();
        let ends = (1..path.len()).filter(|&i| path.as_bytes()[i] == b'/');
        for end in ends.chain([path.len()]).skip(depth - creating) {
            let node = &path[..end];
            self.nodes.insert(
                node.to_string(),
                Node {
                    value: if end == path.len() {
                        value.to_string()
                    } else {
                        String::new()
                    },
                    owner: caller,
                    perms: Vec::new(),
                    last_mod: generation,
                },
            );
            self.fire_watches(node);
        }
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
        let doomed: Vec<String> = subtree(&self.nodes, path).map(str::to_string).collect();
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

    /// Reads a node's value, borrowed from the store.
    pub fn read(&mut self, caller: DomainId, tx: Option<TxId>, path: &str) -> Result<&str> {
        validate(path)?;
        if let Some(txid) = tx {
            let t = self.txs.get(&txid).ok_or(XenError::BadTransaction)?;
            if t.caller != caller {
                return Err(XenError::Perm);
            }
            // Within-transaction read-your-writes: the latest write of
            // `path`, or delete covering it, decides.
            let own = t
                .writes
                .iter()
                .rposition(|(wp, val)| under(wp, path) && (wp == path || val.is_none()));
            if let Some(i) = own {
                return self.txs[&txid].writes[i]
                    .1
                    .as_deref()
                    .ok_or(XenError::NoEnt);
            }
            if !self.may_read(caller, path) {
                return Err(XenError::Perm);
            }
            let t = self.txs.get_mut(&txid).expect("checked above");
            t.reads.insert(path.to_string());
        } else if !self.may_read(caller, path) {
            return Err(XenError::Perm);
        }
        self.nodes
            .get(path)
            .map(|n| n.value.as_str())
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
            t.writes.push((path.to_string(), Some(value.to_string())));
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
            t.writes.push((path.to_string(), None));
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
        // Every node's parent exists, so each child is a node of its own,
        // and children's keys sort as their names do.
        let skip = if path == "/" { 1 } else { path.len() + 1 };
        Ok(subtree(&self.nodes, path)
            .filter_map(|k| k.get(skip..))
            .filter(|name| !name.is_empty() && !name.contains('/'))
            .map(str::to_string)
            .collect())
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

    /// The domain behind each registered watch, in registration order.
    pub fn watch_owners(&self) -> impl Iterator<Item = DomainId> + '_ {
        self.watches.values().map(|w| w.domain)
    }

    /// Frees what a dead domain's connection held, as xenstored does when
    /// the connection closes: its watches, its open transactions and the
    /// watch events queued for it. Its nodes stay (the toolstack removes
    /// them).
    pub fn release_domain(&mut self, dead: DomainId) {
        self.watches.retain(|_, w| w.domain != dead);
        self.txs.retain(|_, t| t.caller != dead);
        self.pending.retain(|e| e.domain != dead);
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
                writes: Vec::new(),
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
        let v = xs.read(D0, Some(tx), "/counter").unwrap().to_owned();
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
    fn tx_replays_a_delete_after_a_write_beneath_it() {
        let mut xs = Xenstore::new();
        let tx = xs.tx_start(D0);
        xs.write(D0, Some(tx), "/a/b", "1").unwrap();
        xs.rm(D0, Some(tx), "/a").unwrap();
        assert_eq!(xs.read(D0, Some(tx), "/a/b"), Err(XenError::NoEnt));
        xs.tx_end(D0, tx, true).unwrap();
        assert_eq!(xs.read(D0, None, "/a/b"), Err(XenError::NoEnt));
        assert_eq!(xs.read(D0, None, "/a"), Err(XenError::NoEnt));
    }

    #[test]
    fn tx_write_after_delete_does_not_revive_the_subtree() {
        let mut xs = Xenstore::new();
        xs.write(D0, None, "/a/b", "1").unwrap();
        let tx = xs.tx_start(D0);
        xs.rm(D0, Some(tx), "/a").unwrap();
        xs.write(D0, Some(tx), "/a", "2").unwrap();
        assert_eq!(xs.read(D0, Some(tx), "/a/b"), Err(XenError::NoEnt));
        assert_eq!(xs.read(D0, Some(tx), "/a").unwrap(), "2");
        xs.tx_end(D0, tx, true).unwrap();
        assert_eq!(xs.read(D0, None, "/a/b"), Err(XenError::NoEnt));
        assert_eq!(xs.read(D0, None, "/a").unwrap(), "2");
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

    #[test]
    fn one_change_fires_overlapping_watches_in_registration_order() {
        let mut xs = Xenstore::new();
        // Sixteen watches covering one node, registered deepest first and
        // from three domains: a hashed map would almost surely hand them
        // out in some other order.
        let paths = ["/a/b/c", "/a/b", "/a", "/"];
        let ids: Vec<WatchId> = (0..16)
            .map(|i| {
                let domain = [DD, GU, D0][i % 3];
                xs.watch(domain, paths[i % paths.len()]).unwrap()
            })
            .collect();
        xs.take_events();
        xs.write(D0, None, "/a/b/c", "1").unwrap();
        let fired: Vec<WatchId> = xs
            .take_events()
            .into_iter()
            .filter(|e| e.path == "/a/b/c")
            .map(|e| e.watch)
            .collect();
        assert_eq!(fired, ids, "every watch once, in registration order");
    }

    #[test]
    fn rm_removes_the_subtree_and_spares_siblings_sharing_its_prefix() {
        let mut xs = Xenstore::new();
        // `-` and `.` sort before `/`: `/a/b-c` and `/a/b.d` lie between
        // `/a/b` and `/a/b/x` in key order.
        for p in ["/a/b/x", "/a/b-c", "/a/b.d/y", "/a/b/z/w"] {
            xs.write(D0, None, p, "v").unwrap();
        }
        xs.rm(D0, None, "/a/b").unwrap();
        for gone in ["/a/b", "/a/b/x", "/a/b/z", "/a/b/z/w"] {
            assert_eq!(xs.read(D0, None, gone), Err(XenError::NoEnt), "{gone}");
        }
        assert_eq!(xs.read(D0, None, "/a/b-c"), Ok("v"));
        assert_eq!(xs.read(D0, None, "/a/b.d/y"), Ok("v"));
        assert_eq!(xs.directory(D0, "/a").unwrap(), vec!["b-c", "b.d"]);
    }

    /// The allocating upward walk `may_read` and `may_write` replaced:
    /// the nearest-first ancestor list built as owned strings.
    fn naive_may(xs: &Xenstore, caller: DomainId, path: &str, write: bool) -> bool {
        if caller.is_dom0() {
            return true;
        }
        let mut p = path.to_string();
        loop {
            if let Some(n) = xs.nodes.get(&p) {
                let granted = n
                    .perms
                    .iter()
                    .any(|&(d, pm)| d == caller && (!write || pm == Perm::ReadWrite));
                if n.owner == caller || granted {
                    return true;
                }
            }
            match parent(&p) {
                Some(pp) => p = pp.to_string(),
                None => return false,
            }
        }
    }

    /// Checks the store's invariants after one operation: every node's
    /// parent exists, the quota counts equal a recount, and the borrowed
    /// permission walks agree with the naive one on every node and probe.
    fn check_invariants(xs: &Xenstore, probes: &[String], step: usize) {
        let mut recount: HashMap<DomainId, usize> = HashMap::new();
        for (k, n) in &xs.nodes {
            if k == "/" {
                continue;
            }
            let up = parent(k).expect("a non-root node has a parent");
            assert!(xs.nodes.contains_key(up), "step {step}: {k} has no parent");
            *recount.entry(n.owner).or_default() += 1;
        }
        for d in [D0, DD, GU] {
            let owned = xs.owned.get(&d).copied().unwrap_or(0);
            let want = recount.get(&d).copied().unwrap_or(0);
            assert_eq!(owned, want, "step {step}: quota count of {d:?}");
        }
        let paths = xs.nodes.keys().chain(probes);
        for p in paths {
            for d in [D0, DD, GU] {
                assert_eq!(
                    xs.may_read(d, p),
                    naive_may(xs, d, p, false),
                    "step {step}: read {p}"
                );
                assert_eq!(
                    xs.may_write(d, p),
                    naive_may(xs, d, p, true),
                    "step {step}: write {p}"
                );
            }
        }
    }

    #[test]
    fn seeded_operations_keep_parents_quotas_and_permissions_sound() {
        // Names whose keys sort around `/`, so subtrees and their
        // prefix-sharing siblings interleave in the map.
        const SEGS: [&str; 6] = ["a", "a-b", "a.b", "b", "0", "q"];
        const ROOTS: [&str; 3] = ["/local/domain/1", "/local/domain/2", "/x"];
        let doms = [D0, DD, GU];
        for seed in 1..=8 {
            let mut rng = kite_sim::Pcg::seeded(seed);
            let mut xs = Xenstore::new();
            for (d, home) in [(DD, ROOTS[0]), (GU, ROOTS[1])] {
                xs.write(D0, None, home, "").unwrap();
                xs.set_perm(D0, home, d, Perm::ReadWrite).unwrap();
            }
            xs.set_quota(GU, 24);
            let path = |rng: &mut kite_sim::Pcg| {
                let mut p = ROOTS[rng.index(ROOTS.len())].to_string();
                for _ in 0..rng.index(4) {
                    p.push('/');
                    p.push_str(SEGS[rng.index(SEGS.len())]);
                }
                p
            };
            let probes: Vec<String> = (0..24).map(|_| path(&mut rng)).collect();
            let mut open: Vec<(DomainId, TxId)> = Vec::new();
            for step in 0..400 {
                let d = doms[rng.index(doms.len())];
                let p = path(&mut rng);
                let tx = match open.iter().position(|&(c, _)| c == d) {
                    Some(i) if rng.chance(0.5) => Some(open[i].1),
                    _ => None,
                };
                // Refusals (permission, quota, a missing node, a stale
                // transaction) are part of the search: only the
                // invariants must hold.
                match rng.index(7) {
                    0 | 1 => {
                        let _ = xs.write(d, tx, &p, &step.to_string());
                    }
                    2 => {
                        let _ = xs.rm(d, tx, &p);
                    }
                    3 => {
                        let peer = doms[rng.index(doms.len())];
                        let perm = if rng.chance(0.5) {
                            Perm::Read
                        } else {
                            Perm::ReadWrite
                        };
                        let _ = xs.set_perm(d, &p, peer, perm);
                    }
                    4 => {
                        let _ = xs.read(d, tx, &p);
                    }
                    5 if tx.is_none() && open.len() < 3 => open.push((d, xs.tx_start(d))),
                    _ => {
                        if let Some(i) = open.iter().position(|&(c, _)| c == d) {
                            let (c, id) = open.swap_remove(i);
                            let _ = xs.tx_end(c, id, rng.chance(0.7));
                        }
                    }
                }
                check_invariants(&xs, &probes, step);
            }
        }
    }
}

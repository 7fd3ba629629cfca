//! Event channels: Xen's virtual interrupt mechanism.
//!
//! A backend/frontend pair binds an interdomain channel; `send` on one end
//! marks the other end pending. Delivery latency (interrupt injection,
//! vmexit/vmentry) is modeled by the system layer — this module implements
//! the port state machine and the pending bit exactly.

use crate::domain::{slot_mut, DomainId};
use crate::error::{Result, XenError};

/// An event-channel port number, local to a domain.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Port(pub u32);

#[derive(Clone, Debug, PartialEq, Eq)]
enum PortState {
    /// Allocated, waiting for the remote domain to bind.
    Unbound { remote_allowed: DomainId },
    /// Connected to a remote (domain, port).
    Interdomain { remote: DomainId, remote_port: Port },
    /// Closed; slot dead until freed.
    Closed,
}

#[derive(Clone, Debug)]
struct PortInfo {
    state: PortState,
    pending: bool,
}

/// A notification produced by [`EventChannels::send`], to be delivered by
/// the system layer after its modeled latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Notification {
    /// Domain to interrupt.
    pub domain: DomainId,
    /// The local port in that domain that became pending.
    pub port: Port,
}

/// All event channels in the machine.
#[derive(Default)]
pub struct EventChannels {
    /// Each domain's ports, indexed by `DomainId.0` (ids are dense and
    /// never reused). Only port allocation extends it.
    ports: Vec<Vec<PortInfo>>,
}

impl EventChannels {
    /// Creates an empty table.
    pub fn new() -> EventChannels {
        EventChannels::default()
    }

    /// Allocates `d`'s next port in `state`.
    fn push(&mut self, d: DomainId, state: PortState) -> Port {
        let v = slot_mut(&mut self.ports, d);
        v.push(PortInfo {
            state,
            pending: false,
        });
        Port(v.len() as u32 - 1)
    }

    fn info(&self, d: DomainId, p: Port) -> Result<&PortInfo> {
        self.ports
            .get(d.0 as usize)
            .and_then(|v| v.get(p.0 as usize))
            .filter(|i| i.state != PortState::Closed)
            .ok_or(XenError::BadPort)
    }

    fn info_mut(&mut self, d: DomainId, p: Port) -> Result<&mut PortInfo> {
        self.ports
            .get_mut(d.0 as usize)
            .and_then(|v| v.get_mut(p.0 as usize))
            .filter(|i| i.state != PortState::Closed)
            .ok_or(XenError::BadPort)
    }

    /// `EVTCHNOP_alloc_unbound`: `owner` allocates a port that only
    /// `remote_allowed` may later bind to.
    pub fn alloc_unbound(&mut self, owner: DomainId, remote_allowed: DomainId) -> Port {
        self.push(owner, PortState::Unbound { remote_allowed })
    }

    /// `EVTCHNOP_bind_interdomain`: `binder` connects to `(remote,
    /// remote_port)`, which must be unbound and reserved for `binder`.
    ///
    /// Returns the binder's new local port.
    pub fn bind_interdomain(
        &mut self,
        binder: DomainId,
        remote: DomainId,
        remote_port: Port,
    ) -> Result<Port> {
        {
            let ri = self.info(remote, remote_port)?;
            match ri.state {
                PortState::Unbound { remote_allowed } if remote_allowed == binder => {}
                PortState::Unbound { .. } => return Err(XenError::Perm),
                _ => return Err(XenError::PortInUse),
            }
        }
        let local = self.push(
            binder,
            PortState::Interdomain {
                remote,
                remote_port,
            },
        );
        let ri = self.info_mut(remote, remote_port)?;
        ri.state = PortState::Interdomain {
            remote: binder,
            remote_port: local,
        };
        Ok(local)
    }

    /// `EVTCHNOP_send`: raises the remote end of an interdomain channel.
    ///
    /// Returns a [`Notification`] when the remote end transitioned from
    /// not-pending to pending — Xen coalesces repeated sends into a single
    /// pending bit, which is exactly the behaviour ring notification
    /// suppression depends on.
    pub fn send(&mut self, sender: DomainId, port: Port) -> Result<Option<Notification>> {
        let (remote, remote_port) = match self.info(sender, port)?.state {
            PortState::Interdomain {
                remote,
                remote_port,
            } => (remote, remote_port),
            _ => return Err(XenError::BadPort),
        };
        let ri = self.info_mut(remote, remote_port)?;
        let fire = !ri.pending;
        ri.pending = true;
        Ok(if fire {
            Some(Notification {
                domain: remote,
                port: remote_port,
            })
        } else {
            None
        })
    }

    /// The remote end of an interdomain channel, for diagnostics (the
    /// tracer records the receiver even when a send coalesces and no
    /// [`Notification`] is returned).
    pub fn peer(&self, d: DomainId, p: Port) -> Result<(DomainId, Port)> {
        match self.info(d, p)?.state {
            PortState::Interdomain {
                remote,
                remote_port,
            } => Ok((remote, remote_port)),
            _ => Err(XenError::BadPort),
        }
    }

    /// Clears the pending bit (the guest's interrupt handler ack).
    ///
    /// Returns whether the port was pending.
    pub fn clear_pending(&mut self, d: DomainId, p: Port) -> Result<bool> {
        let i = self.info_mut(d, p)?;
        let was = i.pending;
        i.pending = false;
        Ok(was)
    }

    /// Number of non-closed ports a domain holds (observability only;
    /// this is the `kitetop` event-channel column).
    pub fn open_ports(&self, d: DomainId) -> usize {
        self.ports.get(d.0 as usize).map_or(0, |v| {
            v.iter().filter(|i| i.state != PortState::Closed).count()
        })
    }

    /// Closes every port of a dead domain (and, per `close`, the peer end
    /// of each interdomain channel). What Xen does on domain destruction.
    pub fn close_domain(&mut self, dead: DomainId) {
        let live: Vec<Port> = self
            .ports
            .get(dead.0 as usize)
            .map(|v| {
                v.iter()
                    .enumerate()
                    .filter(|(_, i)| i.state != PortState::Closed)
                    .map(|(n, _)| Port(n as u32))
                    .collect()
            })
            .unwrap_or_default();
        for p in live {
            let _ = self.close(dead, p);
        }
    }

    /// Closes a port; the peer end (if any) reverts to closed as well.
    pub fn close(&mut self, d: DomainId, p: Port) -> Result<()> {
        let state = self.info(d, p)?.state.clone();
        self.info_mut(d, p)?.state = PortState::Closed;
        if let PortState::Interdomain {
            remote,
            remote_port,
        } = state
        {
            if let Ok(ri) = self.info_mut(remote, remote_port) {
                ri.state = PortState::Closed;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: DomainId = DomainId(1);
    const B: DomainId = DomainId(2);
    const C: DomainId = DomainId(3);

    fn connected() -> (EventChannels, Port, Port) {
        let mut ec = EventChannels::new();
        let pa = ec.alloc_unbound(A, B);
        let pb = ec.bind_interdomain(B, A, pa).unwrap();
        (ec, pa, pb)
    }

    #[test]
    fn bind_connects_both_ends() {
        let (mut ec, pa, pb) = connected();
        // A -> B.
        let n = ec.send(A, pa).unwrap().unwrap();
        assert_eq!(
            n,
            Notification {
                domain: B,
                port: pb
            }
        );
        // B -> A.
        let n = ec.send(B, pb).unwrap().unwrap();
        assert_eq!(
            n,
            Notification {
                domain: A,
                port: pa
            }
        );
    }

    #[test]
    fn only_reserved_domain_may_bind() {
        let mut ec = EventChannels::new();
        let pa = ec.alloc_unbound(A, B);
        assert_eq!(ec.bind_interdomain(C, A, pa), Err(XenError::Perm));
    }

    #[test]
    fn double_bind_rejected() {
        let (mut ec, pa, _) = connected();
        assert_eq!(ec.bind_interdomain(B, A, pa), Err(XenError::PortInUse));
    }

    #[test]
    fn sends_coalesce_while_pending() {
        let (mut ec, pa, pb) = connected();
        assert!(ec.send(A, pa).unwrap().is_some());
        // Second send while pending: no new notification.
        assert!(ec.send(A, pa).unwrap().is_none());
        // After the handler clears pending, sends notify again.
        assert!(ec.clear_pending(B, pb).unwrap());
        assert!(ec.send(A, pa).unwrap().is_some());
    }

    #[test]
    fn send_on_unbound_port_fails() {
        let mut ec = EventChannels::new();
        let pa = ec.alloc_unbound(A, B);
        assert_eq!(ec.send(A, pa), Err(XenError::BadPort));
    }

    #[test]
    fn close_kills_both_ends() {
        let (mut ec, pa, pb) = connected();
        ec.close(A, pa).unwrap();
        assert_eq!(ec.send(A, pa), Err(XenError::BadPort));
        assert_eq!(ec.send(B, pb), Err(XenError::BadPort));
    }

    #[test]
    fn unknown_port_fails() {
        let ec = EventChannels::new();
        assert_eq!(ec.peer(A, Port(7)), Err(XenError::BadPort));
    }

    #[test]
    fn unknown_domain_fails_and_grows_no_table() {
        let (mut ec, pa, _) = connected();
        let domains = ec.ports.len();
        let ghost = DomainId(u16::MAX);
        assert_eq!(ec.send(ghost, pa), Err(XenError::BadPort));
        assert_eq!(ec.peer(ghost, pa), Err(XenError::BadPort));
        assert_eq!(ec.clear_pending(ghost, pa), Err(XenError::BadPort));
        assert_eq!(ec.close(ghost, pa), Err(XenError::BadPort));
        assert_eq!(ec.bind_interdomain(A, ghost, pa), Err(XenError::BadPort));
        ec.close_domain(ghost);
        assert_eq!(ec.open_ports(ghost), 0);
        assert_eq!(ec.ports.len(), domains);
    }
}

//! What every HA acceptance test starts from.

use std::net::SocketAddr;

use sw_ha::{HaNode, PeerSpec};

/// Binds a two-node fleet on ephemeral loopback ports and returns the
/// bound nodes plus the shared membership list.
pub fn bind_pair() -> (Vec<HaNode>, Vec<PeerSpec>) {
    let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
    let nodes: Vec<HaNode> = (0..2)
        .map(|_| HaNode::bind(loopback, loopback).expect("bind node"))
        .collect();
    let peers: Vec<PeerSpec> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| PeerSpec {
            node: i as u32,
            rep: n.rep_addr().expect("rep addr"),
            client: n.client_addr().expect("client addr"),
        })
        .collect();
    (nodes, peers)
}

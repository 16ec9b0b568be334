//! QP-to-socket interoperability (§3): "Communication can occur between
//! QPIP applications or QPIP and traditional (socket) systems" — because
//! QPIP adds **no new protocol formats**, a queue-pair endpoint and a
//! plain socket endpoint speak the same TCP on the wire.
//!
//! This demo wires the two protocol engines back to back at the packet
//! level: a message-per-segment QPIP engine on one side, a conventional
//! byte-stream socket engine on the other.
//!
//! Run with: `cargo run --example qp_socket_interop`

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use qpip_netstack::engine::Engine;
use qpip_netstack::types::{Emit, Endpoint, NetConfig, SendToken};
use qpip_sim::time::{SimDuration, SimTime};

fn addr(n: u16) -> Ipv6Addr {
    Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, n)
}

fn main() {
    // The QP side maps one message onto one TCP segment (§4.1); the
    // socket side is an ordinary streaming stack. Same wire format.
    let mut qp_side = Engine::new(NetConfig::qpip(9000), addr(1));
    let mut sock_side = Engine::new(NetConfig::host(9000), addr(2));
    let mut now = SimTime::ZERO;
    let mut wire: VecDeque<(bool, qpip_wire::Packet)> = VecDeque::new();
    let mut from_qp: Vec<Vec<u8>> = Vec::new();

    sock_side.tcp_listen(80).unwrap();
    // one output buffer, reused by every engine call below
    let mut emits: Vec<Emit> = Vec::new();
    let conn = qp_side.tcp_connect(now, 7000, Endpoint::new(addr(2), 80), &mut emits);
    // what a local call (connect, send) emits; data arrives only with a
    // packet, in `pump`
    let absorb =
        |to_sock: bool, emits: &mut Vec<Emit>, wire: &mut VecDeque<(bool, qpip_wire::Packet)>| {
            for e in emits.drain(..) {
                match e {
                    Emit::Packet(p) => wire.push_back((to_sock, p.bytes)),
                    Emit::TcpAccepted { peer, .. } => {
                        println!("socket side accepted a connection from {peer}");
                    }
                    Emit::TcpConnected { .. } => println!("QP side connected"),
                    _ => {}
                }
            }
        };
    absorb(true, &mut emits, &mut wire);

    let pump = |qp_side: &mut Engine,
                sock_side: &mut Engine,
                now: &mut SimTime,
                wire: &mut VecDeque<(bool, qpip_wire::Packet)>,
                from_qp: &mut Vec<Vec<u8>>,
                emits: &mut Vec<Emit>| {
        while let Some((to_sock, bytes)) = wire.pop_front() {
            *now += SimDuration::from_micros(5);
            if to_sock {
                sock_side.on_packet(*now, &bytes, emits)
            } else {
                qp_side.on_packet(*now, &bytes, emits)
            }
            // emits from the sock side go back toward the QP side
            for e in emits.drain(..) {
                match e {
                    Emit::Packet(p) => wire.push_back((!to_sock, p.bytes)),
                    Emit::TcpDelivered { at, .. } => {
                        // the payload is a range of the packet just handled
                        let data = &bytes[at];
                        if to_sock {
                            from_qp.push(data.to_vec()); // delivered at sock side
                        } else {
                            // delivered at QP side: one event per message
                            println!(
                                "QP side delivered a {}-byte message (boundary preserved)",
                                data.len()
                            );
                        }
                    }
                    Emit::TcpAccepted { peer, .. } => {
                        println!("socket side accepted a connection from {peer}");
                    }
                    Emit::TcpConnected { .. } => println!("QP side connected"),
                    _ => {}
                }
            }
        }
    };
    pump(&mut qp_side, &mut sock_side, &mut now, &mut wire, &mut from_qp, &mut emits);

    // QP → socket: two distinct messages; the socket sees one stream.
    for (i, msg) in
        [b"first message ".as_slice(), b"second message".as_slice()].into_iter().enumerate()
    {
        qp_side.tcp_send(now, conn, msg.to_vec(), SendToken(i as u64), &mut emits).unwrap();
        absorb(true, &mut emits, &mut wire);
    }
    pump(&mut qp_side, &mut sock_side, &mut now, &mut wire, &mut from_qp, &mut emits);
    let stream: Vec<u8> = from_qp.iter().flatten().copied().collect();
    println!("socket side read the byte stream: {:?}", String::from_utf8_lossy(&stream));
    println!(
        "(as §3 notes, the socket peer sees a conventional stream; message\n framing is the QP side's business)"
    );
    assert_eq!(stream, b"first message second message");
    println!(
        "\ninterop OK: {} packets crossed the wire",
        qp_side.stats().tx_packets + sock_side.stats().tx_packets
    );
}

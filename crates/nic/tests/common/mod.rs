//! The NIC's out-parameter calls with their output collected into a
//! fresh vector, which is the shape the firmware tests assert on.

// each test target uses a subset
#![allow(dead_code)]

use qpip_netstack::types::Endpoint;
use qpip_nic::{NicError, NicOutput, QpId, QpipNic, RecvWr, SendWr};
use qpip_sim::time::SimTime;

/// Collecting forms of the [`QpipNic`] calls the tests drive.
pub trait Collect {
    fn on_packet_vec(&mut self, now: SimTime, bytes: &[u8]) -> Vec<NicOutput>;
    fn on_timer_vec(&mut self, now: SimTime) -> Vec<NicOutput>;
    fn post_send_vec(
        &mut self,
        now: SimTime,
        qp: QpId,
        wr: SendWr,
    ) -> Result<Vec<NicOutput>, NicError>;
    fn post_recv_vec(
        &mut self,
        now: SimTime,
        qp: QpId,
        wr: RecvWr,
    ) -> Result<Vec<NicOutput>, NicError>;
    fn tcp_connect_vec(
        &mut self,
        now: SimTime,
        qp: QpId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<Vec<NicOutput>, NicError>;
}

impl Collect for QpipNic {
    fn on_packet_vec(&mut self, now: SimTime, bytes: &[u8]) -> Vec<NicOutput> {
        let mut out = Vec::new();
        self.on_packet(now, bytes, &mut out);
        out
    }

    fn on_timer_vec(&mut self, now: SimTime) -> Vec<NicOutput> {
        let mut out = Vec::new();
        self.on_timer(now, &mut out);
        out
    }

    fn post_send_vec(
        &mut self,
        now: SimTime,
        qp: QpId,
        wr: SendWr,
    ) -> Result<Vec<NicOutput>, NicError> {
        let mut out = Vec::new();
        self.post_send(now, qp, wr, &mut out).map(|()| out)
    }

    fn post_recv_vec(
        &mut self,
        now: SimTime,
        qp: QpId,
        wr: RecvWr,
    ) -> Result<Vec<NicOutput>, NicError> {
        let mut out = Vec::new();
        self.post_recv(now, qp, wr, &mut out).map(|()| out)
    }

    fn tcp_connect_vec(
        &mut self,
        now: SimTime,
        qp: QpId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<Vec<NicOutput>, NicError> {
        let mut out = Vec::new();
        self.tcp_connect(now, qp, local_port, remote, &mut out).map(|()| out)
    }
}

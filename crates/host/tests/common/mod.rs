//! The stack's out-parameter calls with their output collected into a
//! fresh vector, which is the shape the socket tests assert on.

// each test target uses a subset
#![allow(dead_code)]

use qpip_host::stack::{HostOutput, HostStack, SendOutcome, SockError, SockId};
use qpip_netstack::types::Endpoint;
use qpip_sim::time::SimTime;

/// Collecting forms of the [`HostStack`] calls the tests drive.
pub trait Collect {
    fn connect_vec(
        &mut self,
        now: SimTime,
        sock: SockId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<Vec<HostOutput>, SockError>;
    fn send_vec(
        &mut self,
        now: SimTime,
        sock: SockId,
        data: &[u8],
    ) -> Result<(SendOutcome, Vec<HostOutput>), SockError>;
    fn udp_send_vec(
        &mut self,
        now: SimTime,
        sock: SockId,
        dst: Endpoint,
        data: &[u8],
    ) -> Result<(SimTime, Vec<HostOutput>), SockError>;
    fn close_vec(&mut self, now: SimTime, sock: SockId) -> Result<Vec<HostOutput>, SockError>;
    fn on_frame_vec(&mut self, now: SimTime, bytes: &[u8]) -> Vec<HostOutput>;
    fn on_timer_vec(&mut self, now: SimTime) -> Vec<HostOutput>;
}

impl Collect for HostStack {
    fn connect_vec(
        &mut self,
        now: SimTime,
        sock: SockId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<Vec<HostOutput>, SockError> {
        let mut out = Vec::new();
        self.connect(now, sock, local_port, remote, &mut out).map(|()| out)
    }

    fn send_vec(
        &mut self,
        now: SimTime,
        sock: SockId,
        data: &[u8],
    ) -> Result<(SendOutcome, Vec<HostOutput>), SockError> {
        let mut out = Vec::new();
        self.send(now, sock, data, &mut out).map(|o| (o, out))
    }

    fn udp_send_vec(
        &mut self,
        now: SimTime,
        sock: SockId,
        dst: Endpoint,
        data: &[u8],
    ) -> Result<(SimTime, Vec<HostOutput>), SockError> {
        let mut out = Vec::new();
        self.udp_send(now, sock, dst, data, &mut out).map(|t| (t, out))
    }

    fn close_vec(&mut self, now: SimTime, sock: SockId) -> Result<Vec<HostOutput>, SockError> {
        let mut out = Vec::new();
        self.close(now, sock, &mut out).map(|()| out)
    }

    fn on_frame_vec(&mut self, now: SimTime, bytes: &[u8]) -> Vec<HostOutput> {
        let mut out = Vec::new();
        self.on_frame(now, bytes, &mut out);
        out
    }

    fn on_timer_vec(&mut self, now: SimTime) -> Vec<HostOutput> {
        let mut out = Vec::new();
        self.on_timer(now, &mut out);
        out
    }
}

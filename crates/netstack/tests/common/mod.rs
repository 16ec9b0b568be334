//! The engine's out-parameter calls with their output collected into a
//! fresh vector, which is the shape the engine tests assert on.

// each test target uses a subset
#![allow(dead_code)]

use qpip_netstack::engine::{Engine, EngineError};
use qpip_netstack::types::{ConnId, Emit, Endpoint, SendToken};
use qpip_sim::time::SimTime;

/// Collecting forms of the [`Engine`] calls the tests drive.
pub trait Collect {
    fn on_packet_vec(&mut self, now: SimTime, bytes: &[u8]) -> Vec<Emit>;
    fn on_timer_vec(&mut self, now: SimTime) -> Vec<Emit>;
    fn tcp_connect_vec(
        &mut self,
        now: SimTime,
        local_port: u16,
        remote: Endpoint,
    ) -> (ConnId, Vec<Emit>);
    fn tcp_send_vec(
        &mut self,
        now: SimTime,
        conn: ConnId,
        data: Vec<u8>,
        token: SendToken,
    ) -> Result<Vec<Emit>, EngineError>;
    fn tcp_close_vec(&mut self, now: SimTime, conn: ConnId) -> Result<Vec<Emit>, EngineError>;
    fn tcp_abort_vec(&mut self, now: SimTime, conn: ConnId) -> Result<Vec<Emit>, EngineError>;
    fn set_recv_space_vec(
        &mut self,
        now: SimTime,
        conn: ConnId,
        bytes: u64,
    ) -> Result<Vec<Emit>, EngineError>;
}

impl Collect for Engine {
    fn on_packet_vec(&mut self, now: SimTime, bytes: &[u8]) -> Vec<Emit> {
        let mut out = Vec::new();
        self.on_packet(now, bytes, &mut out);
        out
    }

    fn on_timer_vec(&mut self, now: SimTime) -> Vec<Emit> {
        let mut out = Vec::new();
        self.on_timer(now, &mut out);
        out
    }

    fn tcp_connect_vec(
        &mut self,
        now: SimTime,
        local_port: u16,
        remote: Endpoint,
    ) -> (ConnId, Vec<Emit>) {
        let mut out = Vec::new();
        let conn = self.tcp_connect(now, local_port, remote, &mut out);
        (conn, out)
    }

    fn tcp_send_vec(
        &mut self,
        now: SimTime,
        conn: ConnId,
        data: Vec<u8>,
        token: SendToken,
    ) -> Result<Vec<Emit>, EngineError> {
        let mut out = Vec::new();
        self.tcp_send(now, conn, data, token, &mut out).map(|()| out)
    }

    fn tcp_close_vec(&mut self, now: SimTime, conn: ConnId) -> Result<Vec<Emit>, EngineError> {
        let mut out = Vec::new();
        self.tcp_close(now, conn, &mut out).map(|()| out)
    }

    fn tcp_abort_vec(&mut self, now: SimTime, conn: ConnId) -> Result<Vec<Emit>, EngineError> {
        let mut out = Vec::new();
        self.tcp_abort(now, conn, &mut out).map(|()| out)
    }

    fn set_recv_space_vec(
        &mut self,
        now: SimTime,
        conn: ConnId,
        bytes: u64,
    ) -> Result<Vec<Emit>, EngineError> {
        let mut out = Vec::new();
        self.set_recv_space(conn, bytes)?;
        self.announce_window(now, conn, &mut out).map(|()| out)
    }
}

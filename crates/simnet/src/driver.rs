//! Lockstep session driver.
//!
//! Connects a sans-IO TLS client to a sans-IO TLS server over a
//! `DuplexLink` and pumps bytes until the link is quiescent,
//! optionally exchanging application payloads. This is the single
//! primitive behind every experiment in the reproduction: passive
//! capture (real server), interception (the MITM's server), and the
//! root-store probe (spoofed-CA server).
//!
//! [`drive`] is the one entry point. Every transferred chunk passes
//! through a [`LinkConditioner`], which in chaos runs may cut,
//! corrupt, or throttle the stream; the conditioned bytes are then fed
//! through a middleware [`Chain`] — the gateway's vantage point — and
//! handed to the receiving endpoint only while the chain has not
//! stopped the session. A [`GatewayTap`] at chain slot 0 is the
//! passive observer: the driver resets it before the session and
//! fills the result's observation from it afterwards. An empty chain
//! observes nothing and costs nothing.
//!
//! The pump is unbuffered end to end: each direction owns one
//! [`SessionBuf`] that the endpoints' `process` calls append to and
//! the conditioner consumes, and both endpoints' per-session scratch
//! lives in a caller-reusable [`DriveScratch`]. A lane that calls
//! [`drive`] with one warm scratch and one chain performs zero heap
//! allocations per session in the steady state.

use crate::fault::{Direction, FailureCause, InjectedFault, LinkConditioner};
use crate::pipe::DuplexLink;
use crate::tap::{GatewayTap, TlsObservation};
use iotls_tls::client::{ClientConnection, HandshakeSummary};
use iotls_tls::middleware::{Chain, Flow};
use iotls_tls::record::SessionBuf;
use iotls_tls::server::ServerConnection;
use iotls_tls::session::SessionScratch;
use iotls_x509::Timestamp;
use std::sync::atomic::{AtomicU64, Ordering};

/// How many pump rounds before declaring the session wedged — far
/// beyond any legitimate handshake (which needs ~4).
const MAX_ROUNDS: usize = 64;

/// Total sessions driven to completion by this process (all lanes),
/// for sessions-per-second bench reporting.
static SESSIONS_DRIVEN: AtomicU64 = AtomicU64::new(0);

/// Total sessions driven to completion by this process since start.
/// Benchmarks read deltas around a workload to report throughput.
pub fn sessions_driven() -> u64 {
    SESSIONS_DRIVEN.load(Ordering::Relaxed)
}

/// Caller-owned scratch for the drive loop: both endpoints'
/// [`SessionScratch`] plus the wire and per-direction buffers. One
/// warm `DriveScratch` per lane makes the steady-state session loop
/// allocation-free; take the endpoint scratches out with
/// [`DriveScratch::take_client`] / [`DriveScratch::take_server`] to
/// construct the next pair of connections.
#[derive(Debug, Default)]
pub struct DriveScratch {
    /// Client-endpoint scratch (deframer + buffers).
    pub client: SessionScratch,
    /// Server-endpoint scratch (deframer + buffers).
    pub server: SessionScratch,
    /// Post-conditioner delivery buffer, reused both directions.
    wire: Vec<u8>,
    /// Client → server outgoing-record buffer.
    c2s: SessionBuf,
    /// Server → client outgoing-record buffer.
    s2c: SessionBuf,
}

impl DriveScratch {
    /// A fresh (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the client-endpoint scratch (for
    /// `ClientConnection::with_scratch`), leaving a default in place.
    pub fn take_client(&mut self) -> SessionScratch {
        std::mem::take(&mut self.client)
    }

    /// Takes the server-endpoint scratch (for
    /// `ServerConnection::with_scratch`), leaving a default in place.
    pub fn take_server(&mut self) -> SessionScratch {
        std::mem::take(&mut self.server)
    }
}

/// Everything a driven session produced.
pub struct SessionResult {
    /// The client's view of the handshake.
    pub client_summary: HandshakeSummary,
    /// True when both sides established.
    pub established: bool,
    /// Network-level failure cause, when the *link* (not either
    /// endpoint) killed the session. `None` with `established ==
    /// false` means an endpoint declined — see the client summary.
    pub failure: Option<FailureCause>,
    /// Faults the conditioner actually injected, in firing order.
    pub faults: Vec<InjectedFault>,
    /// Application data the server-side received (what a successful
    /// MITM exfiltrates).
    pub server_received: Vec<u8>,
    /// Application data the client received back.
    pub client_received: Vec<u8>,
    /// Passive observation, when a [`GatewayTap`] rode the chain and
    /// saw a ClientHello.
    pub observation: Option<TlsObservation>,
    /// Total bytes carried client→server.
    pub bytes_c2s: u64,
    /// Total bytes carried server→client.
    pub bytes_s2c: u64,
    /// Complete TLS records the gateway tap observed (zero when no
    /// tap rode the chain).
    pub records_deframed: u64,
    /// Conditioned link bytes, both directions, while a tap rode the
    /// chain: `bytes_c2s + bytes_s2c`, or zero with no tap.
    pub bytes_tapped: u64,
}

impl SessionResult {
    /// True when a fault fired during this session: its outcome says
    /// nothing reliable about the endpoints.
    pub fn tainted(&self) -> bool {
        !self.faults.is_empty()
    }
}

/// Session inputs.
pub struct SessionParams<'a> {
    /// Payload the client sends once established (the device's
    /// app-layer message, e.g. a telemetry POST).
    pub client_payload: Option<&'a [u8]>,
    /// Payload the server responds with.
    pub server_payload: Option<&'a [u8]>,
    /// Observe through a fresh [`GatewayTap`]; read only by the
    /// [`drive_session`] convenience form (callers of [`drive`] put a
    /// tap on their chain instead).
    pub tap: bool,
    /// Metadata for the observation record.
    pub time: Timestamp,
    /// Source device name for the observation.
    pub device: &'a str,
    /// Destination hostname for the observation.
    pub destination: &'a str,
}

impl<'a> SessionParams<'a> {
    /// Minimal parameters: tap on, no payloads.
    pub fn tapped(time: Timestamp, device: &'a str, destination: &'a str) -> Self {
        SessionParams {
            client_payload: None,
            server_payload: None,
            tap: true,
            time,
            device,
            destination,
        }
    }
}

/// Drives `client` against `server` to quiescence on a clean link,
/// observing through a fresh tap when `params.tap` is set.
///
/// The client must *not* have been started; the driver starts it.
pub fn drive_session(
    client: ClientConnection,
    server: ServerConnection,
    params: SessionParams<'_>,
) -> SessionResult {
    let mut chain = Chain::new();
    if params.tap {
        chain.push(Box::new(GatewayTap::new()));
    }
    let mut conditioner = LinkConditioner::passthrough();
    drive(client, server, params, &mut conditioner, &mut chain, &mut DriveScratch::new())
}

/// Drives `client` against `server` through `conditioner`, with
/// `chain` watching the conditioned bytes, until the link is
/// quiescent.
///
/// The conditioner may cut the link (→ [`FailureCause::Reset`]),
/// corrupt a byte (→ [`FailureCause::Garbled`]), or throttle delivery
/// until the round budget runs out (→ [`FailureCause::Wedged`]). Each
/// round's delivered bytes go through [`Chain::feed`] before the
/// receiving endpoint sees them, exactly like a gateway downstream of
/// a lossy path; a terminal verdict stops the pump, and such a
/// session reports no link failure (the caller reads the verdict off
/// [`Chain::terminal`], and the per-session stats stay on the chain).
///
/// Endpoints built from this scratch's `take_client`/`take_server`
/// halves are handed back into it when the session ends, so a lane
/// looping over sessions allocates nothing per session once warm.
pub fn drive(
    mut client: ClientConnection,
    mut server: ServerConnection,
    params: SessionParams<'_>,
    conditioner: &mut LinkConditioner,
    chain: &mut Chain,
    scratch: &mut DriveScratch,
) -> SessionResult {
    let mut link = DuplexLink::new();
    let mut server_received = Vec::new();
    let mut client_received = Vec::new();
    let mut client_sent_payload = false;
    let mut server_sent_payload = false;
    let mut exhausted = true;
    let mut stopped_by_chain = false;

    scratch.wire.clear();
    scratch.c2s.clear();
    scratch.s2c.clear();

    if let Some(tap) = chain.middleware_mut::<GatewayTap>(0) {
        tap.reset();
    }
    chain.begin_session();

    client.start_into(&mut scratch.c2s);

    // ALLOC-FREE: begin (drive loop — tier1.sh greps this region for
    // reintroduced per-session allocations; every buffer below is
    // caller-owned scratch reused across sessions).
    for round in 0..MAX_ROUNDS {
        conditioner.begin_round(round);
        let mut moved = false;

        // Client → conditioner → gateway → server. The transfer runs
        // even on empty input so the stall trickle keeps draining.
        conditioner.transfer_into(Direction::C2s, scratch.c2s.as_slice(), round, &mut scratch.wire);
        scratch.c2s.clear();
        if !scratch.wire.is_empty() {
            link.c2s.write(&scratch.wire);
            if chain.feed(Flow::ClientToServer, &scratch.wire).is_some() {
                stopped_by_chain = true;
                break;
            }
            server.process(link.c2s.queued(), &mut scratch.s2c);
            link.c2s.consume();
            moved = true;
        }
        server.drain_application_data_into(&mut server_received);

        // Server queues its payload once established.
        if server.is_established() && !server_sent_payload {
            if let Some(p) = params.server_payload {
                server.send_application_data_into(p, &mut scratch.s2c);
                moved = true;
            }
            server_sent_payload = true;
        }

        // Server → conditioner → gateway → client.
        conditioner.transfer_into(Direction::S2c, scratch.s2c.as_slice(), round, &mut scratch.wire);
        scratch.s2c.clear();
        if !scratch.wire.is_empty() {
            link.s2c.write(&scratch.wire);
            if chain.feed(Flow::ServerToClient, &scratch.wire).is_some() {
                stopped_by_chain = true;
                break;
            }
            client.process(link.s2c.queued(), &mut scratch.c2s);
            link.s2c.consume();
            moved = true;
        }
        client.drain_application_data_into(&mut client_received);

        // Client queues its payload once established.
        if client.is_established() && !client_sent_payload {
            if let Some(p) = params.client_payload {
                client.send_application_data_into(p, &mut scratch.c2s);
                moved = true;
            }
            client_sent_payload = true;
        }

        if !moved && !conditioner.has_backlog() {
            exhausted = false;
            break;
        }
    }
    // ALLOC-FREE: end (drive loop)

    SESSIONS_DRIVEN.fetch_add(1, Ordering::Relaxed);

    // Close fires once at natural end of session (a no-op after a
    // terminal verdict already stopped it).
    chain.close();

    let established = client.is_established() && server.is_established();
    let failure = if established {
        None
    } else {
        // A chain-terminated session is not a link failure: the caller
        // reads the verdict off the chain instead.
        conditioner.failure_cause(exhausted && !stopped_by_chain)
    };
    let bytes_c2s = link.c2s.total_bytes();
    let bytes_s2c = link.s2c.total_bytes();
    let (observation, records_deframed, bytes_tapped) = match chain.middleware_mut::<GatewayTap>(0)
    {
        Some(tap) => (
            tap.take_observation(params.time, params.device, params.destination),
            tap.records_deframed(),
            bytes_c2s + bytes_s2c,
        ),
        None => (None, 0, 0),
    };
    let result = SessionResult {
        client_summary: client.summary(),
        established,
        failure,
        faults: conditioner.injected().to_vec(),
        server_received,
        client_received,
        observation,
        bytes_c2s,
        bytes_s2c,
        records_deframed,
        bytes_tapped,
    };
    // Hand the endpoints' warm buffers back to the lane's scratch for
    // the next session.
    scratch.client = client.into_scratch();
    scratch.server = server.into_scratch();
    result
}

//! Interception detection as a middleware: flag sessions whose
//! ClientHello or Certificate drifts from the endpoint's recorded
//! roster baseline.
//!
//! The §6 guardian-gateway recommendation needs an *in-path* detector:
//! something that watches the bytes a session actually carries and
//! stops it when the handshake material no longer matches what the
//! endpoint served at enrollment time. [`DriftDetector`] implements
//! that as a [`Middleware`]: per endpoint, the gateway skims its
//! recorded clean tapes into [`FlowBaseline`]s (one 64-bit FNV-1a
//! hash of the first ClientHello body and one of the first
//! Certificate body per tape), and the detector intercepts any
//! session whose observed hashes fall outside the allowed sets — a
//! forged chain from a MITM hashes differently from the enrolled
//! server's, while every legitimate replay of a roster tape hashes
//! identically.
//!
//! The hot path is allocation-free: hashing borrows the hook's body
//! slice, and membership is a linear scan over a per-endpoint vector
//! sized by the roster (a handful of entries). Verdicts depend only
//! on the session bytes and the fixed baseline, honouring the
//! [`ChainFactory`] determinism contract.
//!
//! [`ChainFactory`]: crate::gateway::ChainFactory

use iotls_simnet::mux::SessionFlow;
use iotls_tls::middleware::{Chain, Flow, Middleware, Verdict};

/// 64-bit FNV-1a over a borrowed slice — no allocation, stable across
/// platforms, and plenty for equality-vs-baseline checks (this is a
/// drift detector, not a cryptographic commitment).
fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Enrollment-time hashes of one clean tape's handshake material.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowBaseline {
    /// FNV-1a of the first ClientHello body on the tape, when one
    /// deframed cleanly.
    pub ch_hash: Option<u64>,
    /// FNV-1a of the first Certificate body on the tape, when one
    /// deframed cleanly.
    pub cert_hash: Option<u64>,
}

/// Observe-only skimmer that captures the first ClientHello and
/// Certificate body hashes of a session.
#[derive(Debug, Default)]
struct BaselineSkim {
    ch_hash: Option<u64>,
    cert_hash: Option<u64>,
}

impl Middleware for BaselineSkim {
    fn on_client_hello(&mut self, _flow: Flow, body: &[u8]) -> Verdict {
        if self.ch_hash.is_none() {
            self.ch_hash = Some(fnv1a(body));
        }
        Verdict::Continue
    }

    fn on_certificate(&mut self, _flow: Flow, body: &[u8]) -> Verdict {
        if self.cert_hash.is_none() {
            self.cert_hash = Some(fnv1a(body));
        }
        Verdict::Continue
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl FlowBaseline {
    /// Skims a recorded tape through [`Chain::feed`] — the one
    /// dispatch path live sessions take — so baseline and observation
    /// hashes can never diverge on framing.
    pub fn of(flow: &SessionFlow) -> FlowBaseline {
        let mut chain = Chain::new().with(Box::new(BaselineSkim::default()));
        chain.begin_session();
        for round in &flow.rounds {
            chain.feed(Flow::ClientToServer, &round.c2s);
            chain.feed(Flow::ServerToClient, &round.s2c);
        }
        chain.close();
        let skim = chain
            .middleware_mut::<BaselineSkim>(0)
            .expect("skimmer at slot 0");
        FlowBaseline {
            ch_hash: skim.ch_hash,
            cert_hash: skim.cert_hash,
        }
    }
}

/// Middleware that intercepts sessions whose ClientHello or
/// Certificate hash is absent from the endpoint's enrolled baseline
/// set. Counters accumulate across sessions (they are observability,
/// not verdict state); the per-record verdict is a pure function of
/// the record bytes and the fixed baselines.
#[derive(Debug, Default)]
pub struct DriftDetector {
    ch_allowed: Vec<u64>,
    cert_allowed: Vec<u64>,
    /// Sessions-records flagged for an unenrolled ClientHello.
    pub ch_drift: u64,
    /// Sessions-records flagged for an unenrolled Certificate.
    pub cert_drift: u64,
}

impl DriftDetector {
    /// A detector enrolled with the endpoint's roster baselines. A
    /// hash class with no enrolled value (e.g. tapes that never
    /// reached Certificate) is not checked — absence of enrollment
    /// is not evidence of drift.
    pub fn new(baselines: &[FlowBaseline]) -> DriftDetector {
        let mut det = DriftDetector::default();
        for b in baselines {
            if let Some(h) = b.ch_hash {
                if !det.ch_allowed.contains(&h) {
                    det.ch_allowed.push(h);
                }
            }
            if let Some(h) = b.cert_hash {
                if !det.cert_allowed.contains(&h) {
                    det.cert_allowed.push(h);
                }
            }
        }
        det
    }

    /// Total drift flags raised so far, both classes.
    pub fn flags(&self) -> u64 {
        self.ch_drift + self.cert_drift
    }
}

impl Middleware for DriftDetector {
    // ALLOC-FREE: begin (drift hot path — hashes borrow the hook's
    // body slice; membership is a scan over the enrolled vectors).
    fn on_client_hello(&mut self, _flow: Flow, body: &[u8]) -> Verdict {
        if self.ch_allowed.is_empty() || self.ch_allowed.contains(&fnv1a(body)) {
            return Verdict::Continue;
        }
        self.ch_drift += 1;
        Verdict::Intercept
    }

    fn on_certificate(&mut self, _flow: Flow, body: &[u8]) -> Verdict {
        if self.cert_allowed.is_empty() || self.cert_allowed.contains(&fnv1a(body)) {
            return Verdict::Continue;
        }
        self.cert_drift += 1;
        Verdict::Intercept
    }
    // ALLOC-FREE: end (drift hot path)

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::{Attacker, InterceptPolicy};
    use iotls_crypto::drbg::Drbg;
    use iotls_devices::{client_config, Testbed};
    use iotls_tls::client::ClientConnection;
    use iotls_tls::middleware::Signal;
    use iotls_tls::server::ServerConnection;

    /// Records one clean tape for `device`'s first destination —
    /// against the real server, or against the MITM's server when a
    /// policy is given. The client (and its randomness) is identical
    /// either way, so only server-originated material can differ.
    fn record_flow(testbed: &Testbed, device: &str, policy: Option<&InterceptPolicy>) -> SessionFlow {
        let device = testbed.device(device);
        let dest = &device.spec.destinations[0];
        let now = iotls_rootstore::probe_time();
        let instances = device.spec.instances_at(now.month());
        let instance = &instances[dest.instance.min(instances.len() - 1)];
        let cfg = client_config(instance, device.truth.store.clone());
        let client_rng = Drbg::from_seed(0xD41F7).fork("detect").fork(&dest.hostname);
        let server_rng = client_rng.fork("server");
        let client = ClientConnection::new(cfg, &dest.hostname, now, client_rng);
        let server_cfg = match policy {
            Some(p) => Attacker::new(testbed.pki, 0xA77).server_config(p, &dest.hostname),
            None => testbed.server_config(dest),
        };
        let server = ServerConnection::new(server_cfg, server_rng);
        SessionFlow::record(client, server, Some(b"ping"), Some(b"ok"))
    }

    fn feed_tape(chain: &mut Chain, flow: &SessionFlow) -> Option<Signal> {
        chain.begin_session();
        for round in &flow.rounds {
            chain.feed(Flow::ClientToServer, &round.c2s);
            chain.feed(Flow::ServerToClient, &round.s2c);
            if chain.terminal().is_some() {
                break;
            }
        }
        chain.close();
        chain.terminal()
    }

    #[test]
    fn baseline_skims_both_hashes_from_a_clean_tape() {
        let tb = Testbed::global();
        let flow = record_flow(tb, "Zmodo Doorbell", None);
        let baseline = FlowBaseline::of(&flow);
        assert!(baseline.ch_hash.is_some(), "tape carries a ClientHello");
        assert!(baseline.cert_hash.is_some(), "tape carries a Certificate");
        // Skimming is a pure function of the tape bytes.
        assert_eq!(baseline, FlowBaseline::of(&flow));
    }

    #[test]
    fn detector_scores_mitm_vs_benign_against_ground_truth() {
        // Ground truth from the simulator: the benign tape replays the
        // enrolled server, the MITM tape replays the attacker
        // terminating the same hostname with a forged chain. Same
        // client, same randomness — only the certificate differs.
        let tb = Testbed::global();
        for device in ["Zmodo Doorbell", "Amcrest Camera", "Wink Hub 2"] {
            let benign = record_flow(tb, device, None);
            let mitm = record_flow(tb, device, Some(&InterceptPolicy::SelfSigned));
            let baseline = FlowBaseline::of(&benign);
            let mut chain =
                Chain::new().with(Box::new(DriftDetector::new(&[baseline])));

            assert_eq!(feed_tape(&mut chain, &benign), None, "{device}: false positive");
            assert_eq!(
                feed_tape(&mut chain, &mitm),
                Some(Signal::Intercept),
                "{device}: missed interception"
            );
            let det = chain.middleware_mut::<DriftDetector>(0).unwrap();
            assert_eq!(det.ch_drift, 0, "{device}: ClientHello never drifted");
            assert_eq!(det.cert_drift, 1, "{device}: exactly the forged chain flagged");
        }
    }

    #[test]
    fn detector_accepts_every_enrolled_baseline() {
        let tb = Testbed::global();
        let flows: Vec<SessionFlow> = ["Zmodo Doorbell", "D-Link Camera"]
            .iter()
            .map(|d| record_flow(tb, d, None))
            .collect();
        let baselines: Vec<FlowBaseline> = flows.iter().map(FlowBaseline::of).collect();
        let mut chain = Chain::new().with(Box::new(DriftDetector::new(&baselines)));
        for flow in &flows {
            assert_eq!(feed_tape(&mut chain, flow), None, "enrolled tape flagged");
        }
        let det = chain.middleware_mut::<DriftDetector>(0).unwrap();
        assert_eq!(det.flags(), 0);
    }

    #[test]
    fn empty_enrollment_never_flags() {
        let tb = Testbed::global();
        let mitm = record_flow(tb, "Zmodo Doorbell", Some(&InterceptPolicy::SelfSigned));
        let mut chain = Chain::new().with(Box::new(DriftDetector::new(&[])));
        assert_eq!(feed_tape(&mut chain, &mitm), None, "nothing enrolled, nothing flagged");
    }
}

//! The `serve_fleet` workload: a closed-loop fleet of synthetic tenants,
//! one `wire::Client` each plus an admin ticker, over the in-process
//! `wire::ShimNet` with no faults armed.
//!
//! A control epoch here is one round of the fleet: every tenant submits
//! one telemetry record, the admin client ticks the server one epoch, and
//! every tenant fetches its decision. The fleet loop mirrors
//! `wire::drive_soak` (same telemetry, same order), so the server's
//! decision digest equals an in-process replay through
//! `PolicyServer::submit` and `PolicyServer::run_epoch`.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dvfs::states::FreqStates;
use exec::WorkerPool;
use faults::stream::StreamFaultConfig;
use faults::FaultConfig;
use gpu_sim::time::Frequency;
use serve::{
    server_config_for, synth_record, PolicyServer, ServerStats, SoakConfig, TelemetryBatch,
};
use wire::frame::WireOutcome;
use wire::{
    tcp_dialer, token_seed_for, Client, ClientConfig, ClientReport, Exhausted, Gateway, ShimConn,
    ShimNet, TcpServerConfig, WireServer,
};

use crate::ledger::{self, percentile, ratio, HostRef, Replica, Replicas, Report, Span};
use crate::DEFAULT_SEED;

/// Fleet rounds run in set-up after the handshakes.
const WARM_EPOCHS: u64 = 40;

/// Priority tiers; tenant `t` submits at tier `t % TIERS`.
const TIERS: u8 = 3;

/// Untraced/traced fleet pairs in a traced run.
const TRACE_PAIRS: usize = 3;

/// Rough host seconds of one replica (set-up included), which sets the
/// replica count.
const NOMINAL_PASS_S: f64 = 0.95;

/// Rounds a tick or fetch may see stale responses before giving up.
const MAX_ROUNDS: u32 = 64;

/// Rounds the TCP probe runs (three calls each).
const TCP_EPOCHS: u64 = 400;

/// One fleet's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Tenants, one client each.
    pub tenants: u64,
    /// Live-tenant cap of the server; below `tenants`, every round evicts
    /// and restores tenants through the snapshot store.
    pub max_live: usize,
    /// Rounds each replica runs, set-up rounds included; the decision
    /// digest and cap ratio are taken after the last.
    pub check_epochs: u64,
    /// Digest pinned at [`DEFAULT_SEED`], for the full-size fleet only.
    pub pinned_digest: Option<u64>,
}

impl Spec {
    /// `serve_fleet`: 512 tenants in 3 tiers, 384 live.
    pub fn bench() -> Spec {
        Spec {
            tenants: 512,
            max_live: 384,
            check_epochs: 200,
            pinned_digest: Some(0x66f2_9482_2ed9_f88a),
        }
    }

    fn soak(&self, seed: u64) -> SoakConfig {
        SoakConfig {
            tenants: self.tenants,
            epochs: self.check_epochs,
            shards: 1,
            faults: FaultConfig::default(),
            seed,
            kill_at: None,
            max_live: self.max_live,
            tiers: TIERS,
            power_cap_w: 0.0,
            torn_read_rate: 0.0,
            record_log: false,
        }
    }
}

/// Per-call spans of a traced fleet, with every call's duration kept.
#[derive(Debug, Default)]
struct WireTrace {
    submit: Span,
    tick: Span,
    fetch: Span,
    calls_ms: Vec<f64>,
}

/// A wire call a traced fleet times.
#[derive(Debug, Clone, Copy)]
enum Op {
    Submit,
    Tick,
    Fetch,
}

impl WireTrace {
    fn time<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        let span = match op {
            Op::Submit => &mut self.submit,
            Op::Tick => &mut self.tick,
            Op::Fetch => &mut self.fetch,
        };
        let before = span.secs;
        let r = span.time(f);
        let ms = (span.secs - before) * 1e3;
        self.calls_ms.push(ms);
        r
    }
}

fn call<R>(trace: &mut Option<&mut WireTrace>, op: Op, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(w) => w.time(op, f),
        None => f(),
    }
}

/// Requests and outcomes of a fleet, client side.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    requests: u64,
    shed: u64,
    /// Decisions fetched for the epoch they were made in.
    fetched: u64,
}

/// The client side of a fleet, over any transport.
struct Fleet<T: Read + Write> {
    clients: Vec<Client<T>>,
    admin: Client<T>,
    cur: Vec<Frequency>,
    epoch: u64,
    seed: u64,
    tally: Tally,
}

impl<T: Read + Write> Fleet<T> {
    /// Creates the clients and completes every handshake.
    fn connect(
        soak: &SoakConfig,
        mut dial: impl FnMut(u64, u8) -> Client<T>,
    ) -> Result<Self, Exhausted> {
        let mut clients: Vec<Client<T>> = (0..soak.tenants).map(|t| dial(t, tier_of(t))).collect();
        let mut admin = dial(soak.tenants + 1, 0);
        for c in clients.iter_mut().chain(std::iter::once(&mut admin)) {
            c.query()?;
        }
        let states = FreqStates::paper();
        Ok(Fleet {
            clients,
            admin,
            cur: vec![states.min(); soak.tenants as usize],
            epoch: 0,
            seed: soak.seed,
            tally: Tally::default(),
        })
    }

    /// One round: submit all, tick, fetch all.
    fn step(&mut self, mut trace: Option<&mut WireTrace>) -> Result<(), Exhausted> {
        let e = self.epoch;
        for t in 0..self.clients.len() as u64 {
            let rec = synth_record(self.seed, t, e, self.cur[t as usize]);
            let batch = TelemetryBatch { tenant: t, tier: tier_of(t), records: vec![rec] };
            let client = &mut self.clients[t as usize];
            let outcome = call(&mut trace, Op::Submit, || client.submit(batch))?;
            if matches!(outcome, WireOutcome::ShedIncoming | WireOutcome::ShedQueued { .. }) {
                self.tally.shed += 1;
            }
        }
        let mut rounds = 0;
        loop {
            let admin = &mut self.admin;
            if call(&mut trace, Op::Tick, || admin.tick(e))? > e {
                break;
            }
            rounds += 1;
            if rounds >= MAX_ROUNDS {
                return Err(stale("tick-advance", rounds, e));
            }
        }
        for t in 0..self.clients.len() {
            let decisions = loop {
                let client = &mut self.clients[t];
                let (server_epoch, decisions, _notices) =
                    call(&mut trace, Op::Fetch, || client.fetch(e))?;
                if server_epoch > e {
                    break decisions;
                }
                rounds += 1;
                if rounds >= MAX_ROUNDS {
                    return Err(stale("fetch-fresh", rounds, e));
                }
            };
            for d in decisions.iter().filter(|d| d.epoch == e) {
                self.cur[t] = Frequency::from_mhz(d.freq_mhz);
                self.tally.fetched += 1;
            }
        }
        self.tally.requests += 2 * self.clients.len() as u64 + 1;
        self.epoch += 1;
        Ok(())
    }

    /// Says goodbye on every connection; returns the summed client reports.
    fn close(&mut self) -> ClientReport {
        let mut total = ClientReport::default();
        for c in self.clients.iter_mut().chain(std::iter::once(&mut self.admin)) {
            c.bye();
            total.retries += c.report.retries;
            total.rejects += c.report.rejects;
        }
        total
    }
}

/// Failed operations: shed batches, rejected requests, and decisions the
/// server made that no client fetched. An exhausted client ends the run.
fn failed_ops(tally: &Tally, decided: u64, clients: &ClientReport) -> u64 {
    tally.shed + clients.rejects + decided.saturating_sub(tally.fetched)
}

fn tier_of(tenant: u64) -> u8 {
    (tenant % u64::from(TIERS)) as u8
}

fn stale(op: &'static str, attempts: u32, e: u64) -> Exhausted {
    Exhausted { op, attempts, last: format!("only stale responses at epoch {e}") }
}

/// A fleet over a fresh gateway on the shim transport.
struct ShimFleet {
    net: ShimNet,
    fleet: Fleet<ShimConn>,
}

impl ShimFleet {
    fn connect(soak: &SoakConfig, pool: &Arc<WorkerPool>) -> Result<ShimFleet, Exhausted> {
        let gateway = Gateway::new(server_config_for(soak), Arc::clone(pool), token_seed_for(soak));
        let net = ShimNet::new(gateway, StreamFaultConfig::default());
        let ccfg = ClientConfig { seed: soak.seed ^ 0xBAC0_FF5E, ..ClientConfig::default() };
        let dial_net = net.clone();
        let fleet = Fleet::connect(soak, |id, tier| {
            let net = dial_net.clone();
            Client::new(id, tier, ccfg, move || Ok(net.dial(id)))
        })?;
        Ok(ShimFleet { net, fleet })
    }

    /// The server's decision digest and counters right now.
    fn server_state(&self) -> (u64, ServerStats) {
        self.net.with_gateway(|gw| (gw.server().decision_log().digest(), gw.server().stats()))
    }
}

/// Adds the counters the traced run reports.
fn add_stats(total: &mut ServerStats, s: &ServerStats) {
    total.decisions += s.decisions;
    total.evictions += s.evictions;
    total.restores += s.restores;
    total.rung_hold += s.rung_hold;
    total.rung_stall += s.rung_stall;
    total.rung_safe += s.rung_safe;
    total.cap_epochs_met += s.cap_epochs_met;
    total.cap_epochs_missed += s.cap_epochs_missed;
}

/// Share of server epochs whose decisions met the power cap.
fn cap_met_ratio(stats: &ServerStats) -> f64 {
    ratio(stats.cap_epochs_met as f64, (stats.cap_epochs_met + stats.cap_epochs_missed) as f64)
}

/// In-process spans of a replay.
#[derive(Debug, Default)]
struct ServeTrace {
    submit: Span,
    run_epoch: Span,
}

/// Replays the fleet's first `epochs` rounds in-process; returns the
/// digest, the counters and the wall time of rounds `from..epochs`, which
/// are also the rounds `t` covers.
fn replay(
    soak: &SoakConfig,
    pool: &Arc<WorkerPool>,
    epochs: u64,
    from: u64,
    t: &mut ServeTrace,
) -> (u64, ServerStats, f64) {
    let mut server = PolicyServer::new(server_config_for(soak), Arc::clone(pool));
    let mut cur = vec![FreqStates::paper().min(); soak.tenants as usize];
    let mut timed = Duration::ZERO;
    let mut untimed = ServeTrace::default();
    for e in 0..epochs {
        let t = if e >= from { &mut *t } else { &mut untimed };
        let t0 = Instant::now();
        for tenant in 0..soak.tenants {
            let rec = synth_record(soak.seed, tenant, e, cur[tenant as usize]);
            let batch = TelemetryBatch { tenant, tier: tier_of(tenant), records: vec![rec] };
            t.submit.time(|| server.submit(batch));
        }
        for d in t.run_epoch.time(|| server.run_epoch()) {
            cur[d.tenant as usize] = Frequency::from_mhz(d.freq_mhz);
        }
        if e >= from {
            timed += t0.elapsed();
        }
    }
    (server.decision_log().digest(), server.stats(), timed.as_secs_f64())
}

fn check_digests(shim: u64, inproc: u64, report: &mut Report) {
    report.check(shim == inproc, || {
        format!("shim digest {shim:#018x} != in-process replay digest {inproc:#018x}")
    });
}

/// Checks the pinned digest: on the shim fleet itself at [`DEFAULT_SEED`],
/// and through an in-process replay at that seed otherwise, so a change in
/// serve's decisions fails every run, not only runs at the default seed.
fn check_pinned(spec: &Spec, seed: u64, shim: u64, pool: &Arc<WorkerPool>, report: &mut Report) {
    let Some(pinned) = spec.pinned_digest else { return };
    let digest = if seed == DEFAULT_SEED {
        shim
    } else {
        let soak = spec.soak(DEFAULT_SEED);
        replay(&soak, pool, spec.check_epochs, 0, &mut ServeTrace::default()).0
    };
    report.check(digest == pinned, || {
        format!("digest at seed {DEFAULT_SEED} {digest:#018x} != pinned {pinned:#018x}")
    });
}

fn exhausted(e: Exhausted) -> String {
    format!("client exhausted: {e}")
}

/// One replica: a fresh shim fleet, set up and run to the digest
/// checkpoint.
struct ShimPass {
    fleet: ShimFleet,
    /// Set-up (gateway construction, handshakes and the warm rounds) and
    /// the measured rounds.
    timing: Replica,
}

/// Runs one replica; `host`, if given, ticks between measured rounds.
fn shim_pass(
    spec: &Spec,
    soak: &SoakConfig,
    pool: &Arc<WorkerPool>,
    mut trace: Option<&mut WireTrace>,
    mut host: Option<&mut HostRef>,
) -> Result<ShimPass, String> {
    let t0 = Instant::now();
    let mut fleet = ShimFleet::connect(soak, pool).map_err(exhausted)?;
    for _ in 0..WARM_EPOCHS {
        fleet.fleet.step(None).map_err(exhausted)?;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let mut epoch_ms = Vec::with_capacity((spec.check_epochs - WARM_EPOCHS) as usize);
    let cpu0 = ledger::cpu_seconds()?;
    let start = Instant::now();
    while fleet.fleet.epoch < spec.check_epochs {
        let t0 = Instant::now();
        fleet.fleet.step(trace.as_deref_mut()).map_err(exhausted)?;
        epoch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(h) = host.as_deref_mut() {
            h.tick();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = ledger::cpu_seconds()? - cpu0;
    let tick_s = host.map_or_else(Vec::new, HostRef::take_ticks);
    Ok(ShimPass { fleet, timing: Replica { setup_s, epoch_ms, tick_s, wall_s, cpu_s } })
}

/// The untraced run: identical replicas (enough to fill about `seconds`,
/// at least three), each on a fresh fleet whose set-up is timed.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let pool = Arc::new(WorkerPool::new(1));
    let soak = spec.soak(seed);
    let mut report = Report::default();
    let mut host = HostRef::new();
    let mut replicas = Replicas::default();
    let mut first = None;
    let reps = Replicas::count(seconds, NOMINAL_PASS_S);
    for rep in 0..reps {
        let mut p = shim_pass(spec, &soak, &pool, None, Some(&mut host))?;
        let clients = p.fleet.fleet.close();
        let (digest, stats) = p.fleet.server_state();
        let tally = p.fleet.fleet.tally;
        report.attempted += tally.requests;
        report.failed += failed_ops(&tally, stats.decisions, &clients);
        replicas.push(p.timing);
        match first {
            None => first = Some((digest, stats)),
            Some((d, s)) => report.check(d == digest && s == stats, || {
                format!("replica {rep}: digest {digest:#018x} != first replica's {d:#018x}")
            }),
        }
    }
    let (digest, stats) = first.expect("at least one replica");
    let (inproc, _, _) = replay(&soak, &pool, spec.check_epochs, 0, &mut ServeTrace::default());
    check_digests(digest, inproc, &mut report);
    check_pinned(spec, seed, digest, &pool, &mut report);
    let cap = cap_met_ratio(&stats);
    report.check(cap > 0.0, || "no epoch met the power cap".into());
    report.notes.push(format!(
        "{} tenants ({} live); digest at round {} = {digest:#018x}; cap_met_ratio={cap}; \
         {} decisions per replica; failed operations {}",
        spec.tenants, spec.max_live, spec.check_epochs, stats.decisions, report.failed
    ));
    replicas.report(&mut report)?;
    report.set("peak_rss_mb", ledger::peak_rss_mb()?);
    Ok(report)
}

/// A short TCP loopback segment: one tenant plus the admin ticker, two
/// sockets. Returns every call's round trip (ms) and the TCP and
/// in-process digests.
fn tcp_probe(seed: u64, pool: &Arc<WorkerPool>) -> Result<(Vec<f64>, u64, u64), String> {
    let probe = Spec { tenants: 1, max_live: 1, check_epochs: TCP_EPOCHS, pinned_digest: None };
    let soak = probe.soak(seed);
    let gateway = Gateway::new(server_config_for(&soak), Arc::clone(pool), token_seed_for(&soak));
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding loopback: {e}"))?;
    let server = WireServer::start(
        listener,
        gateway,
        TcpServerConfig { max_conns: 2, ..TcpServerConfig::default() },
    )
    .map_err(|e| format!("starting the TCP server: {e}"))?;
    let addr = server.addr();
    let ccfg = ClientConfig { seed: seed ^ 0xBAC0_FF5E, sleep: true, ..ClientConfig::default() };
    let driven = (|| {
        let mut fleet =
            Fleet::connect(&soak, |id, tier| Client::new(id, tier, ccfg, tcp_dialer(addr, 1_000)))?;
        let mut trace = WireTrace::default();
        while fleet.epoch < TCP_EPOCHS {
            fleet.step(Some(&mut trace))?;
        }
        fleet.close();
        Ok::<_, Exhausted>(trace.calls_ms)
    })();
    let gateway = server.stop();
    let rtts = driven.map_err(exhausted)?;
    let tcp = gateway.server().decision_log().digest();
    let (inproc, _, _) = replay(&soak, pool, TCP_EPOCHS, 0, &mut ServeTrace::default());
    Ok((rtts, tcp, inproc))
}

/// The traced run: untraced and traced shim fleets over the same rounds,
/// in-process replays, and the TCP probe; all digests agree. Per-layer
/// values sum over the traced fleets.
pub fn run_traced(spec: &Spec, seed: u64) -> Result<Report, String> {
    let pool = Arc::new(WorkerPool::new(1));
    let soak = spec.soak(seed);
    let mut report = Report::traced();

    // Untraced and traced fleets alternate, so host drift during the run
    // lands on both sides of `trace.overhead_s`; an in-process replay of
    // the same rounds follows each pair.
    let mut w = WireTrace::default();
    let mut s = ServeTrace::default();
    let (mut untraced_s, mut traced_s, mut replay_s, mut epoch_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut frames_in, mut clients, mut tally) = (0, ClientReport::default(), Tally::default());
    let mut totals = ServerStats::default();
    let mut first = None;
    for _ in 0..TRACE_PAIRS {
        let mut plain = shim_pass(spec, &soak, &pool, None, None)?;
        untraced_s += plain.timing.wall_s;
        plain.fleet.fleet.close();
        let (d_plain, s_plain) = plain.fleet.server_state();

        let mut traced = shim_pass(spec, &soak, &pool, Some(&mut w), None)?;
        traced_s += traced.timing.wall_s;
        epoch_s += traced.timing.epoch_ms.iter().sum::<f64>() * 1e-3;
        let c = traced.fleet.fleet.close();
        clients.retries += c.retries;
        clients.rejects += c.rejects;
        let (d_traced, stats) = traced.fleet.server_state();
        frames_in += traced.fleet.net.with_gateway(|gw| gw.stats.frames_in);
        let tt = traced.fleet.fleet.tally;
        tally.requests += tt.requests;
        tally.shed += tt.shed;
        tally.fetched += tt.fetched;

        ledger::count_allocs(true);
        let (d_inproc, s_inproc, r) = replay(&soak, &pool, spec.check_epochs, WARM_EPOCHS, &mut s);
        ledger::count_allocs(false);
        replay_s += r;

        report.check(d_traced == d_plain && stats == s_plain, || {
            format!("traced shim digest {d_traced:#018x} != untraced {d_plain:#018x}")
        });
        report.check(stats == s_inproc, || {
            "in-process replay counters differ from the shim's".into()
        });
        check_digests(d_traced, d_inproc, &mut report);
        report.check(first.is_none_or(|d| d == d_traced), || "traced fleets differ".into());
        first = Some(d_traced);
        add_stats(&mut totals, &stats);
    }
    let stats = totals;
    let d_traced = first.expect("at least one pair");
    check_pinned(spec, seed, d_traced, &pool, &mut report);

    let (rtts, d_tcp, d_tcp_inproc) = tcp_probe(seed, &pool)?;
    report.check(d_tcp == d_tcp_inproc, || {
        format!("TCP digest {d_tcp:#018x} != in-process replay digest {d_tcp_inproc:#018x}")
    });

    report.attempted = 2 * tally.requests;
    report.failed = failed_ops(&tally, stats.decisions, &clients);
    let layers = w.submit.secs + w.tick.secs + w.fetch.secs;
    let residual = epoch_s - layers;
    report.notes.push(format!(
        "ledger: wire submit {:.4} + tick {:.4} + fetch {:.4} + residual {residual:.4} = traced round \
         time {epoch_s:.4} s over {} rounds; trace overhead {:.4} s; in-process replay {replay_s:.4} s",
        w.submit.secs,
        w.tick.secs,
        w.fetch.secs,
        TRACE_PAIRS as u64 * (spec.check_epochs - WARM_EPOCHS),
        traced_s - untraced_s,
    ));
    report.notes.push(format!(
        "digest {d_traced:#018x} (shim, traced shim, in-process); TCP probe digest {d_tcp:#018x}"
    ));
    let rtt_p50 = percentile(&rtts, 0.5).unwrap_or(0.0);
    let rtt_p99 = percentile(&rtts, 0.99).unwrap_or(0.0);
    report.notes.push(format!(
        "TCP probe (informational, ungated): rtt p50 {rtt_p50} ms, p99 {rtt_p99} ms, n={}",
        rtts.len()
    ));

    report.set("wire.submit_s", w.submit.secs);
    report.set("wire.tick_s", w.tick.secs);
    report.set("wire.fetch_s", w.fetch.secs);
    report.set("wire.frames_per_decision", ratio(frames_in as f64, stats.decisions as f64));
    report.set("wire.overhead_s", traced_s - replay_s);
    report.set("wire.retries", clients.retries as f64);
    report.set("wire.rejects", clients.rejects as f64);
    report.set("wire.tcp_rtt_p50_ms", rtt_p50);
    report.set("wire.tcp_rtt_p99_ms", rtt_p99);
    report.set("serve.submit_s", s.submit.secs);
    report.set("serve.run_epoch_s", s.run_epoch.secs);
    report.set("serve.decisions", stats.decisions as f64);
    report.set("serve.evictions", stats.evictions as f64);
    report.set("serve.restores", stats.restores as f64);
    report.set("serve.shed", tally.shed as f64);
    report.set("serve.rung_hold", stats.rung_hold as f64);
    report.set("serve.rung_stall", stats.rung_stall as f64);
    report.set("serve.rung_safe", stats.rung_safe as f64);
    report.set("serve.allocs_per_epoch", s.run_epoch.allocs_per_call());
    report.set("harness.residual_s", residual);
    report.set("trace.epoch_s", epoch_s);
    report.set("trace.overhead_s", traced_s - untraced_s);
    report.set("cap_met_ratio", cap_met_ratio(&stats));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Spec {
        Spec { tenants: 12, max_live: 9, check_epochs: 150, pinned_digest: None }
    }

    #[test]
    fn minimal_fleet_checks_out() {
        let r = run(&tiny(), 5, 0.0).expect("run");
        assert!(r.correct(), "{:?} {:?}", r.violations, r.notes);
        let traced = run_traced(&tiny(), 5).expect("traced run");
        assert!(traced.correct(), "{:?} {:?}", traced.violations, traced.notes);
    }

    #[test]
    fn fleet_digest_matches_the_in_process_soak() {
        let spec = tiny();
        let soak = spec.soak(9);
        let pool = Arc::new(WorkerPool::new(1));
        let mut f = shim_pass(&spec, &soak, &pool, None, None).expect("shim pass").fleet;
        f.fleet.close();
        assert_eq!(f.server_state().0, serve::run_soak(&soak).digest);
    }
}

//! The simulated-epoch workloads: `sim_pcstall` and `sim_oracle`.
//!
//! A control epoch here is one step of a policy-in-the-loop session: oracle
//! sampling when the design needs it, the policy's decision, the frequency
//! change and one simulated 1 µs epoch, plus the energy, accuracy and
//! residency observers. Untraced runs drive the real [`Session`]; the
//! traced run replays `Session::step`'s fault-free protocol through public
//! calls, each inside a span, and must reproduce the untraced outputs bit
//! for bit.

use std::sync::Arc;
use std::time::Instant;

use dvfs::domain::DomainMap;
use exec::WorkerPool;
use gpu_sim::gpu::Gpu;
use gpu_sim::kernel::App;
use gpu_sim::stats::EpochStats;
use gpu_sim::time::Frequency;
use harness::runner::{RunConfig, RunResult};
use harness::session::{
    AccuracyObserver, EnergyObserver, EpochCtx, ResidencyObserver, RunObserver, Session,
};
use harness::snapcache::cold_warmup_gpu;
use pcstall::oracle;
use pcstall::policy::{
    AccPcPolicy, DecideCtx, DvfsPolicy, PcStallConfig, PcStallPolicy, PolicyKind, Telemetry,
};
use power::energy::RunMetrics;
use power::model::PowerModel;
use workloads::{suite, Scale};

use crate::ledger::{self, ratio, HostRef, Replica, Replicas, Report, Span};
use crate::DEFAULT_SEED;

/// Untraced/traced pass pairs in a traced run.
const TRACE_PAIRS: usize = 2;

/// Policy-free epochs each Table II app's GPU runs in set-up, so modelled
/// caches are warm before timing starts. Fuzzed scenarios start cold: many
/// finish within a few epochs.
const WARMUP_EPOCHS: usize = 8;

/// The design under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// PCSTALL: counters in, PC-table prediction out; no oracle.
    PcStall,
    /// ACCPC: fork–pre-execute sampling of every state, every epoch.
    AccPc,
}

/// Outputs pinned for the full-size workload.
#[derive(Debug, Clone, Copy)]
pub struct Pins {
    /// Fingerprint of the Table II apps' outcomes (independent of the seed).
    pub table2: u64,
    /// `pred_accuracy` bits at [`DEFAULT_SEED`].
    pub accuracy_bits: u64,
    /// `ed2p_geomean` bits at [`DEFAULT_SEED`].
    pub ed2p_bits: u64,
}

/// One sim workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The design under test.
    pub design: Design,
    /// Table II apps simulated, in registry order (16 = all).
    pub apps: usize,
    /// Fuzzed scenarios `scenarios::fuzz::generate(seed, 0..fuzz)` added
    /// after the Table II apps.
    pub fuzz: u64,
    /// Epoch cap per app.
    pub max_epochs: usize,
    /// Whether every app must run to completion within the cap.
    pub to_completion: bool,
    /// Pinned outputs, for the full-size workload only.
    pub pins: Option<Pins>,
}

impl Spec {
    /// `sim_pcstall`: every Table II app plus four fuzzed scenarios, each
    /// run to completion.
    pub fn pcstall() -> Spec {
        Spec {
            design: Design::PcStall,
            apps: 16,
            fuzz: 4,
            max_epochs: 5_000,
            to_completion: true,
            pins: Some(Pins {
                table2: 0x67d5_1e7d_01fe_eeb1,
                accuracy_bits: 0x3fe7_9bb8_4f3d_a965,
                ed2p_bits: 0x3db0_9f29_4e07_31c0,
            }),
        }
    }

    /// `sim_oracle`: every Table II app under ACCPC, capped at 12 epochs
    /// each.
    pub fn oracle() -> Spec {
        Spec {
            design: Design::AccPc,
            apps: 16,
            fuzz: 0,
            max_epochs: 12,
            to_completion: false,
            pins: Some(Pins {
                table2: 0x5e19_154e_a776_05de,
                accuracy_bits: 0x3fe6_84f0_ea47_f8a5,
                ed2p_bits: 0x3d43_aaa4_3e8a_a284,
            }),
        }
    }

    /// Rough host seconds of one pass, which sets the replica count.
    fn nominal_pass_s(&self) -> f64 {
        match self.design {
            Design::PcStall => 5.5,
            Design::AccPc => 8.5,
        }
    }

    fn policy(&self) -> PolicyKind {
        match self.design {
            Design::PcStall => PolicyKind::PcStall(PcStallConfig::default()),
            Design::AccPc => PolicyKind::AccPc(PcStallConfig::default()),
        }
    }

    /// The reduced platform: 16 CUs, 1 µs epochs, ED²P objective.
    fn config(&self) -> RunConfig {
        RunConfig { max_epochs: self.max_epochs, ..RunConfig::reduced(self.policy()) }
    }
}

/// The apps and their warmed GPUs.
struct Bench {
    cfg: RunConfig,
    apps: Vec<App>,
    warm: Vec<Gpu>,
    build_s: f64,
    warmup_s: f64,
}

fn set_up(spec: &Spec, seed: u64) -> Bench {
    let cfg = spec.config();
    let t0 = Instant::now();
    let mut apps: Vec<App> = suite(Scale::Quick).into_iter().take(spec.apps).collect();
    apps.extend((0..spec.fuzz).map(|i| scenarios::fuzz::generate(seed, i)));
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let warm = apps
        .iter()
        .enumerate()
        .map(|(i, app)| cold_warmup_gpu(app, &cfg, if i < spec.apps { WARMUP_EPOCHS } else { 0 }))
        .collect();
    let warmup_s = t1.elapsed().as_secs_f64();
    Bench { cfg, apps, warm, build_s, warmup_s }
}

/// One app run's outputs, compared bit for bit between passes and modes.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    energy_j: u64,
    delay_s: u64,
    accuracy: u64,
    residency: Vec<u64>,
    epochs: usize,
    completed: bool,
}

impl Outcome {
    fn of(r: &RunResult) -> Outcome {
        Outcome {
            energy_j: r.metrics.energy_j.to_bits(),
            delay_s: r.metrics.delay_s.to_bits(),
            accuracy: r.accuracy.to_bits(),
            residency: r.freq_residency.iter().map(|f| f.to_bits()).collect(),
            epochs: r.epochs,
            completed: r.completed,
        }
    }

    fn ed2p(&self) -> f64 {
        f64::from_bits(self.energy_j) * f64::from_bits(self.delay_s).powi(2)
    }

    fn fold_into(&self, h: u64) -> u64 {
        let words = [self.energy_j, self.delay_s, self.accuracy, self.epochs as u64];
        let h = words.iter().chain(&self.residency).fold(h, |h, &w| fnv(h, w));
        fnv(h, u64::from(self.completed))
    }
}

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fingerprint of the first `n` outcomes.
fn fingerprint(outcomes: &[Outcome], n: usize) -> u64 {
    outcomes.iter().take(n).fold(FNV_OFFSET, |h, o| o.fold_into(h))
}

/// Fig 14's score: mean accuracy over the apps that scored any epoch.
fn pred_accuracy(outcomes: &[Outcome]) -> f64 {
    let acc: Vec<f64> =
        outcomes.iter().map(|o| f64::from_bits(o.accuracy)).filter(|a| a.is_finite()).collect();
    acc.iter().sum::<f64>() / acc.len().max(1) as f64
}

/// Geometric mean over apps of simulated E·D² (J·s²).
fn ed2p_geomean(outcomes: &[Outcome]) -> f64 {
    let logs: f64 = outcomes.iter().map(|o| o.ed2p().ln()).sum();
    (logs / outcomes.len().max(1) as f64).exp()
}

fn empty_result(app: &App, gpu: &Gpu, epochs: usize) -> RunResult {
    let delay = gpu.completion_time().unwrap_or_else(|| gpu.now());
    RunResult {
        policy: String::new(),
        app: app.name.clone(),
        metrics: RunMetrics { energy_j: 0.0, delay_s: delay.as_secs_f64() },
        accuracy: f64::NAN,
        epochs,
        freq_residency: Vec::new(),
        completed: gpu.is_done(),
        sensitivity_trace: None,
        fault_report: None,
    }
}

/// The standard observer set of `harness::runner::run`.
struct Observers {
    energy: EnergyObserver,
    accuracy: AccuracyObserver,
    residency: ResidencyObserver,
}

impl Observers {
    fn new(cfg: &RunConfig) -> Observers {
        Observers {
            energy: EnergyObserver::new(PowerModel::new(cfg.power)),
            accuracy: AccuracyObserver::new(),
            residency: ResidencyObserver::new(cfg.states.clone()),
        }
    }

    fn all(&mut self) -> [&mut dyn RunObserver; 3] {
        [&mut self.energy, &mut self.accuracy, &mut self.residency]
    }

    fn finish(mut self, mut result: RunResult) -> Outcome {
        for o in self.all() {
            o.finish(&mut result);
        }
        Outcome::of(&result)
    }
}

/// One untraced pass through the real [`Session`], pushing each epoch's
/// host time (ms) onto `epoch_ms` and ticking `host` between epochs.
fn pass(
    bench: &Bench,
    pool: &Arc<WorkerPool>,
    epoch_ms: &mut Vec<f64>,
    mut host: Option<&mut HostRef>,
) -> Vec<Outcome> {
    let mut outcomes = Vec::with_capacity(bench.apps.len());
    for (app, warm) in bench.apps.iter().zip(&bench.warm) {
        let mut session = Session::with_warm_gpu(app, &bench.cfg, warm.clone())
            .with_pool(Arc::clone(pool))
            .with_sim_lanes(1);
        let mut obs = Observers::new(&bench.cfg);
        while !session.is_finished() {
            let t0 = Instant::now();
            session.step(&mut obs.all());
            epoch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Some(h) = host.as_deref_mut() {
                h.tick();
            }
        }
        outcomes.push(obs.finish(session.finalize()));
    }
    outcomes
}

/// Spans and counts of the traced pass.
#[derive(Debug, Default)]
struct Trace {
    epoch: Span,
    sample: Span,
    decide: Span,
    observe: Span,
    epochs: u64,
    epoch_s: f64,
    insts: u64,
    l1_hits: u64,
    l1_misses: u64,
    forks: u64,
    fork_insts: f64,
    decisions: u64,
    /// Σ table hit ratio × decisions, over PCSTALL runs.
    hit_weighted: f64,
}

enum Policy {
    PcStall(PcStallPolicy),
    AccPc(AccPcPolicy),
}

impl Policy {
    fn new(design: Design) -> Policy {
        match design {
            Design::PcStall => Policy::PcStall(PcStallPolicy::new(PcStallConfig::default())),
            Design::AccPc => Policy::AccPc(AccPcPolicy::new(PcStallConfig::default())),
        }
    }

    fn get(&mut self) -> &mut dyn DvfsPolicy {
        match self {
            Policy::PcStall(p) => p,
            Policy::AccPc(p) => p,
        }
    }
}

/// One traced pass: `Session::step`'s fault-free protocol, replayed.
fn traced_pass(
    bench: &Bench,
    pool: &Arc<WorkerPool>,
    design: Design,
    t: &mut Trace,
) -> Vec<Outcome> {
    let cfg = &bench.cfg;
    let power = PowerModel::new(cfg.power);
    let needs_oracle = cfg.policy.needs_oracle();
    let mut outcomes = Vec::with_capacity(bench.apps.len());
    for (app, warm) in bench.apps.iter().zip(&bench.warm) {
        let mut gpu = warm.clone();
        gpu.set_lane_pool(Arc::clone(pool));
        gpu.set_sim_lanes(1);
        let domains = DomainMap::grouped(cfg.gpu.n_cus, cfg.group);
        let mut policy = Policy::new(design);
        let mut obs = Observers::new(cfg);
        let allowed = cfg.states.clone();
        let mut current = vec![Frequency::from_mhz(cfg.gpu.initial_freq_mhz); domains.len()];
        let mut stats = EpochStats::empty();
        let mut prev = EpochStats::empty();
        let mut epochs = 0;
        let app_decisions = t.decisions;
        while !gpu.is_done() && epochs < cfg.max_epochs {
            let t0 = Instant::now();
            let samples = needs_oracle.then(|| {
                t.sample.time(|| {
                    oracle::sample_with(pool, &gpu, cfg.epoch.duration, &allowed, &domains)
                })
            });
            let decisions = {
                let ctx = DecideCtx {
                    telemetry: if epochs == 0 {
                        Telemetry::Warmup
                    } else {
                        Telemetry::Fresh(&prev)
                    },
                    gpu: &gpu,
                    domains: &domains,
                    states: &allowed,
                    epoch: cfg.epoch,
                    power: &power,
                    objective: cfg.objective,
                    current: &current,
                    samples: samples.as_ref(),
                };
                t.decide.time(|| policy.get().decide(&ctx))
            };
            t.observe.time(|| {
                let ctx = EpochCtx {
                    epoch_index: epochs,
                    cfg,
                    domains: &domains,
                    allowed: &allowed,
                    current: &current,
                    decisions: &decisions,
                    samples: samples.as_ref(),
                    power: &power,
                    gpu: &gpu,
                };
                for o in obs.all() {
                    o.on_decisions(&ctx);
                }
            });
            t.epoch.time(|| {
                for (d, dec) in decisions.iter().enumerate() {
                    gpu.set_frequency_of(domains.cus(d), dec.freq, cfg.epoch.transition);
                    current[d] = dec.freq;
                }
                gpu.run_epoch_into(cfg.epoch.duration, &mut stats);
            });
            t.observe.time(|| {
                let ctx = EpochCtx {
                    epoch_index: epochs,
                    cfg,
                    domains: &domains,
                    allowed: &allowed,
                    current: &current,
                    decisions: &decisions,
                    samples: samples.as_ref(),
                    power: &power,
                    gpu: &gpu,
                };
                for o in obs.all() {
                    o.on_epoch(&ctx, &stats);
                }
            });
            if let Some(s) = &samples {
                t.forks += allowed.len() as u64;
                t.fork_insts += s.domain_curves.iter().flatten().sum::<f64>();
            }
            t.decisions += decisions.len() as u64;
            t.insts += stats.committed_total();
            for cu in &stats.cus {
                t.l1_hits += cu.l1_hits;
                t.l1_misses += cu.l1_misses;
            }
            std::mem::swap(&mut prev, &mut stats);
            epochs += 1;
            t.epoch_s += t0.elapsed().as_secs_f64();
        }
        t.epochs += epochs as u64;
        if let Policy::PcStall(p) = &policy {
            t.hit_weighted += p.table_hit_ratio() * (t.decisions - app_decisions) as f64;
        }
        outcomes.push(obs.finish(empty_result(app, &gpu, epochs)));
    }
    outcomes
}

/// Checks a pass's outcomes: every app ran, and at full size the pinned
/// values hold. Returns how many app runs failed.
fn check_pass(spec: &Spec, seed: u64, outcomes: &[Outcome], report: &mut Report) -> u64 {
    let mut failed = 0;
    for o in outcomes {
        let ran = o.epochs > 0 && (!spec.to_completion || o.completed);
        if !ran {
            failed += 1;
        }
    }
    report.check(failed == 0, || format!("{failed} app runs did not run as specified"));
    if let Some(pins) = spec.pins {
        let table2 = fingerprint(outcomes, spec.apps);
        report.check(table2 == pins.table2, || {
            format!("Table II outcome fingerprint {table2:#018x} != pinned {:#018x}", pins.table2)
        });
        if seed == DEFAULT_SEED {
            let acc = pred_accuracy(outcomes).to_bits();
            let ed2p = ed2p_geomean(outcomes).to_bits();
            report.check(acc == pins.accuracy_bits, || {
                format!("pred_accuracy bits {acc:#018x} != pinned {:#018x}", pins.accuracy_bits)
            });
            report.check(ed2p == pins.ed2p_bits, || {
                format!("ed2p_geomean bits {ed2p:#018x} != pinned {:#018x}", pins.ed2p_bits)
            });
        }
    }
    failed
}

fn describe(spec: &Spec, outcomes: &[Outcome]) -> String {
    format!(
        "pred_accuracy={} ({:#018x}) ed2p_geomean={} ({:#018x}) table2_fingerprint={:#018x}",
        pred_accuracy(outcomes),
        pred_accuracy(outcomes).to_bits(),
        ed2p_geomean(outcomes),
        ed2p_geomean(outcomes).to_bits(),
        fingerprint(outcomes, spec.apps),
    )
}

/// The untraced run: identical replicas of set-up plus one pass over the
/// apps, enough to fill about `seconds` (at least three).
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let pool = Arc::new(WorkerPool::new(1));
    let mut report = Report::default();
    let mut host = HostRef::new();
    let mut replicas = Replicas::default();
    let mut first: Option<Vec<Outcome>> = None;
    let reps = Replicas::count(seconds, spec.nominal_pass_s());
    let mut apps = 0;
    for rep in 0..reps {
        // Each replica sets up afresh, so the set-up samples spread over
        // the run like the replicas do.
        let t0 = Instant::now();
        let bench = set_up(spec, seed);
        let setup_s = t0.elapsed().as_secs_f64();
        apps = bench.apps.len();
        let mut epoch_ms = Vec::new();
        let cpu0 = ledger::cpu_seconds()?;
        let start = Instant::now();
        let outcomes = pass(&bench, &pool, &mut epoch_ms, Some(&mut host));
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = ledger::cpu_seconds()? - cpu0;
        let tick_s = host.take_ticks();
        replicas.push(Replica { setup_s, epoch_ms, tick_s, wall_s, cpu_s });
        match &first {
            None => {
                report.failed += check_pass(spec, seed, &outcomes, &mut report);
                first = Some(outcomes);
            }
            Some(f) => {
                let differ = f.iter().zip(&outcomes).filter(|(a, b)| a != b).count();
                report
                    .check(differ == 0, || format!("replica {rep}: {differ} app outcomes differ"));
                report.failed += differ as u64;
            }
        }
    }
    report.check(replicas.aligned(), || "replicas ran different epoch counts".into());
    report.attempted = (reps * apps) as u64;
    replicas.report(&mut report)?;
    report.notes.push(describe(spec, first.as_deref().expect("at least one replica")));
    report.set("peak_rss_mb", ledger::peak_rss_mb()?);
    Ok(report)
}

/// The traced run: untraced passes alternating with traced passes
/// (allocation counting on); every pair must agree bit for bit. Per-layer
/// values sum over the traced passes.
pub fn run_traced(spec: &Spec, seed: u64) -> Result<Report, String> {
    let pool = Arc::new(WorkerPool::new(1));
    let bench = set_up(spec, seed);
    let mut report = Report::traced();

    // Untraced and traced passes alternate, so host drift during the run
    // lands on both sides of `trace.overhead_s`.
    let mut t = Trace::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut untraced = Vec::new();
    for _ in 0..TRACE_PAIRS {
        let t0 = Instant::now();
        untraced = pass(&bench, &pool, &mut Vec::new(), None);
        untraced_s += t0.elapsed().as_secs_f64();
        ledger::count_allocs(true);
        let t1 = Instant::now();
        let traced = traced_pass(&bench, &pool, spec.design, &mut t);
        traced_s += t1.elapsed().as_secs_f64();
        ledger::count_allocs(false);
        let differ = untraced.iter().zip(&traced).filter(|(a, b)| a != b).count();
        report.check(differ == 0, || format!("traced pass differs from untraced on {differ} apps"));
        report.failed += differ as u64;
    }
    report.attempted = (2 * TRACE_PAIRS * bench.apps.len()) as u64;
    report.failed += check_pass(spec, seed, &untraced, &mut report);

    let layers = t.epoch.secs + t.sample.secs + t.decide.secs + t.observe.secs;
    let residual = t.epoch_s - layers;
    report.notes.push(describe(spec, &untraced));
    report.notes.push(format!(
        "ledger: gpu_sim {:.4} + oracle {:.4} + pcstall {:.4} + observers {:.4} + residual {:.4} \
         = traced epoch time {:.4} s over {} epochs; trace overhead {:.4} s",
        t.epoch.secs,
        t.sample.secs,
        t.decide.secs,
        t.observe.secs,
        residual,
        t.epoch_s,
        t.epochs,
        traced_s - untraced_s
    ));

    report.set("workloads.build_s", bench.build_s);
    report.set("gpu_sim.warmup_s", bench.warmup_s);
    report.set("gpu_sim.epoch_s", t.epoch.secs);
    report.set("gpu_sim.insts", t.insts as f64);
    report.set("gpu_sim.ns_per_inst", ratio(t.epoch.secs * 1e9, t.insts as f64));
    report.set("gpu_sim.l1_hit_ratio", ratio(t.l1_hits as f64, (t.l1_hits + t.l1_misses) as f64));
    report.set("gpu_sim.allocs_per_epoch", t.epoch.allocs_per_call());
    report.set("oracle.sample_s", t.sample.secs);
    report.set("oracle.forks", t.forks as f64);
    report.set("oracle.fork_insts", t.fork_insts);
    report.set("oracle.ns_per_fork_inst", ratio(t.sample.secs * 1e9, t.fork_insts));
    report.set("oracle.allocs_per_sample", t.sample.allocs_per_call());
    report.set("pcstall.decide_s", t.decide.secs);
    report.set("pcstall.decisions", t.decisions as f64);
    report.set("pcstall.table_hit_ratio", ratio(t.hit_weighted, t.decisions as f64));
    report.set("pcstall.allocs_per_decide", t.decide.allocs_per_call());
    report.set("harness.observe_s", t.observe.secs);
    report.set("harness.residual_s", residual);
    report.set("trace.epoch_s", t.epoch_s);
    report.set("trace.overhead_s", traced_s - untraced_s);
    report.set("pred_accuracy", pred_accuracy(&untraced));
    report.set("ed2p_geomean", ed2p_geomean(&untraced));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(design: Design) -> Spec {
        Spec { design, apps: 2, fuzz: 1, max_epochs: 50, to_completion: false, pins: None }
    }

    #[test]
    fn minimal_pcstall_pass_checks_out() {
        let spec = tiny(Design::PcStall);
        let r = run(&spec, 7, 0.0).expect("run");
        assert!(r.correct(), "{:?}", r.violations);
        let traced = run_traced(&spec, 7).expect("traced run");
        assert!(traced.correct(), "{:?}", traced.violations);
        let get = |n: &str| traced.values.iter().find(|(k, _)| *k == n).expect(n).1;
        assert!(get("gpu_sim.insts") > 0.0);
        assert_eq!(get("oracle.forks"), 0.0, "PCSTALL never samples the oracle");
        assert!(get("pcstall.decisions") > 0.0);
    }

    #[test]
    fn minimal_oracle_pass_checks_out() {
        let spec = tiny(Design::AccPc);
        let traced = run_traced(&spec, 3).expect("traced run");
        assert!(traced.correct(), "{:?}", traced.violations);
        let get = |n: &str| traced.values.iter().find(|(k, _)| *k == n).expect(n).1;
        assert!(get("oracle.forks") > 0.0);
        assert!(get("oracle.fork_insts") > 0.0);
    }

    #[test]
    fn traced_replay_matches_the_session_runner() {
        // The replayed protocol must score exactly what harness::run does.
        let spec = tiny(Design::PcStall);
        let bench = set_up(&spec, 11);
        let pool = Arc::new(WorkerPool::new(1));
        let traced = traced_pass(&bench, &pool, spec.design, &mut Trace::default());
        let untraced = pass(&bench, &pool, &mut Vec::new(), None);
        assert_eq!(traced, untraced);
    }
}

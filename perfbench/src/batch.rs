//! `batch_paper`: the offline investigation at paper-scale topology.
//!
//! One round runs the three §IV studies through ingest →
//! `build_routing` (CDN, PIM; the BGP graph joins from configuration
//! alone) → `extract_all` → `Engine::diagnose_all` — BGP over 30 days,
//! CDN over 30 days, PIM over 14 days — and then three §IV-B screening
//! rounds over the BGP month's candidate types on a 5-minute grid: all
//! flaps, the CPU-related subset and the hold-timer-expiry subset.

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{rounds_for, WorkDir};
use grca_apps::{bgp, build_routing, cdn, pim, score, Study};
use grca_collector::Database;
use grca_core::discovery::{screen, symptom_series, CandidateCache, Screening, SeriesGrid};
use grca_core::{Diagnosis, DiagnosisGraph, Engine};
use grca_correlation::{pearson, CorrelationTester};
use grca_eval::{measure, VerdictEvent, JOIN_SLACK};
use grca_events::names as ev;
use grca_events::{extract_all, EventDefinition, ExtractCx};
use grca_net_model::gen::{generate, TopoGenConfig};
use grca_net_model::{NullOracle, RouteOracle, SpatialModel, Topology};
use grca_simnet::{FaultRates, ScenarioConfig, SimOutput, SymptomKind};
use grca_types::Duration;
use std::time::Instant;

/// Truth-join accuracy each study must reach.
pub const ACCURACY_FLOOR: f64 = 0.85;

/// §IV-B screening vocabulary: syslog message types and workflow
/// activity types planted as noise candidates (the paper's counts).
const SYSLOG_TYPES: usize = 2533;
const WORKFLOW_TYPES: usize = 831;

/// Top hits of each screening round whose correlation is recomputed.
const RECHECK_TOP: usize = 10;

/// Candidate types that stand for causes the simulator injects behind
/// BGP flaps (interface flaps, line-protocol flaps, CPU hogs); the first
/// screening round (all flaps) must find each significant.
pub const FLAP_CAUSES: [&str; 3] = [
    "syslog:%LINK-3-UPDOWN",
    "syslog:%LINEPROTO-5-UPDOWN",
    "syslog:%SYS-3-CPUHOG",
];

const SETUP_REPS: usize = 3;

/// Nominal seconds per round (see [`crate::rounds_for`]).
const ROUND_S: f64 = 6.0;

struct StudyInput {
    study: Study,
    cfg: ScenarioConfig,
    out: SimOutput,
}

fn seeded(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

fn inputs(seed: u64, topo: &Topology) -> Vec<StudyInput> {
    let coarse = |cfg: &mut ScenarioConfig| {
        cfg.background.snmp_baseline_bin = Duration::hours(6);
        cfg.background.perf_baseline_bin = Duration::hours(6);
        cfg.background.cdn_baseline_bin = Duration::hours(6);
    };
    let mut rates = FaultRates::bgp_study();
    rates.provisioning_activity = 240.0;
    let mut bgp_cfg = ScenarioConfig::new(30, seeded(seed, 0xB6F), rates);
    bgp_cfg.buggy_router_fraction = 0.08;
    bgp_cfg.noise_syslog_types = SYSLOG_TYPES;
    bgp_cfg.noise_workflow_types = WORKFLOW_TYPES;
    let cdn_cfg = ScenarioConfig::new(30, seeded(seed, 0xCD4), FaultRates::cdn_study());
    let pim_cfg = ScenarioConfig::new(14, seeded(seed, 0x914), FaultRates::pim_study());
    [
        (Study::Bgp, bgp_cfg),
        (Study::Cdn, cdn_cfg),
        (Study::Pim, pim_cfg),
    ]
    .into_iter()
    .map(|(study, mut cfg)| {
        coarse(&mut cfg);
        let out = grca_simnet::run_scenario_threads(topo, &cfg, 1);
        StudyInput { study, cfg, out }
    })
    .collect()
}

fn app(study: Study, topo: &Topology) -> (Vec<EventDefinition>, DiagnosisGraph) {
    match study {
        Study::Bgp => (bgp::event_definitions(), bgp::diagnosis_graph()),
        Study::Cdn => (cdn::event_definitions(topo), cdn::diagnosis_graph()),
        Study::Pim => (pim::event_definitions(), pim::diagnosis_graph()),
    }
}

/// One study from raw records to diagnoses, each layer call in a span.
fn run_study(
    topo: &Topology,
    input: &StudyInput,
    trace: u64,
    tr: &mut Tracer,
    o: &mut Outcome,
) -> (Database, Vec<Diagnosis>) {
    let (defs, graph) = app(input.study, topo);
    tr.begin("bench.study", trace);
    let (db, stats) = tr.time("collector.ingest", trace, || {
        Database::ingest(topo, &input.out.records)
    });
    let routing = match input.study {
        Study::Bgp => None,
        Study::Cdn | Study::Pim => {
            Some(tr.time("routing.build_routing", trace, || build_routing(topo, &db)))
        }
    };
    let cx = ExtractCx::new(topo, &db, routing.as_ref());
    let store = tr.time("events.extract_all", trace, || extract_all(&defs, &cx));
    let oracle: &dyn RouteOracle = match &routing {
        Some(r) => r,
        None => &NullOracle,
    };
    let spatial = SpatialModel::new(topo, oracle);
    let diagnoses = tr.time("core.diagnose_all", trace, || {
        Engine::new(&graph, &store, &spatial).diagnose_all()
    });
    tr.end();
    o.add("collector.records_accepted", stats.total_accepted() as f64);
    o.add(
        "collector.records_deduplicated",
        stats.total_deduplicated() as f64,
    );
    o.add(
        "collector.records_quarantined",
        stats.total_quarantined() as f64,
    );
    o.add("events.instances", store.total() as f64);
    o.add("core.symptoms", diagnoses.len() as f64);
    drop(store);
    drop(routing);
    (db, diagnoses)
}

/// The three §IV-B prefilters over the month's flap diagnoses.
fn subsets(diagnoses: &[Diagnosis]) -> [Vec<&Diagnosis>; 3] {
    let all: Vec<&Diagnosis> = diagnoses.iter().collect();
    let cpu = diagnoses
        .iter()
        .filter(|d| {
            d.has_evidence(ev::EBGP_HTE)
                && (d.has_evidence(ev::CPU_HIGH_SPIKE) || d.has_evidence(ev::CPU_HIGH_AVERAGE))
                && !d.has_evidence(ev::INTERFACE_FLAP)
                && !d.has_evidence(ev::LINE_PROTOCOL_FLAP)
        })
        .collect();
    let hte = diagnoses
        .iter()
        .filter(|d| d.has_evidence(ev::EBGP_HTE))
        .collect();
    [all, cpu, hte]
}

/// What one round produced.
struct Round {
    wall_s: f64,
    studies_s: f64,
    diagnoses: Vec<Vec<Diagnosis>>,
    screenings: Vec<Screening>,
}

fn round(
    topo: &Topology,
    inputs: &[StudyInput],
    no: u64,
    tr: &mut Tracer,
    o: &mut Outcome,
) -> Round {
    let t0 = Instant::now();
    tr.begin("bench.round", no);
    let mut diagnoses = Vec::new();
    let mut bgp_db = None;
    for (i, input) in inputs.iter().enumerate() {
        let (db, d) = run_study(topo, input, (no << 8) | i as u64, tr, o);
        if input.study == Study::Bgp {
            bgp_db = Some(db);
        }
        diagnoses.push(d);
    }
    let studies_s = t0.elapsed().as_secs_f64();

    let db = bgp_db.expect("the BGP study runs");
    let cfg = &inputs[0].cfg;
    let grid = SeriesGrid::new(cfg.start, cfg.end(), Duration::mins(5));
    let tester = CorrelationTester::default();
    let trace = (no << 8) | 0x80;
    tr.begin("bench.mining", trace);
    let cache = CandidateCache::new(&db);
    let candidates = tr.time("core.candidate_series", trace, || cache.get(&grid, None));
    let screenings: Vec<Screening> = subsets(&diagnoses[0])
        .iter()
        .map(|subset| {
            let sym = symptom_series(&grid, subset);
            tr.time("core.screen", trace, || screen(&tester, &sym, &candidates))
        })
        .collect();
    tr.end();
    tr.end();
    Round {
        wall_s: t0.elapsed().as_secs_f64(),
        studies_s,
        diagnoses,
        screenings,
    }
}

pub fn batch_paper(seed: u64, seconds: f64, _work: &WorkDir, tr: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();
    // Set-up: the paper-scale topology and the three studies' inputs,
    // repeated; the last repetition's products are used.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let t0 = Instant::now();
        let topo = generate(&TopoGenConfig::paper_scale());
        let inputs = inputs(seed, &topo);
        setup_s.push(t0.elapsed().as_secs_f64());
        prepared = Some((topo, inputs));
    }
    let (topo, inputs) = prepared.expect("at least one set-up");
    o.e2e.insert("setup_s", median(&setup_s));
    let records: usize = inputs.iter().map(|i| i.out.records.len()).sum();

    let mut rounds: Vec<Round> = Vec::new();
    let mut layer = Outcome::default();
    for no in 0..rounds_for(seconds, ROUND_S) {
        let mut lo = Outcome::default();
        let r = round(&topo, &inputs, no as u64, tr, &mut lo);
        if rounds.is_empty() {
            layer = lo;
        }
        rounds.push(r);
    }
    o.e2e.insert("peak_rss_mb", peak_rss_mb());
    o.layer = layer.layer;
    o.attempted = 6 * rounds.len() as u64;

    let studies_s: f64 = rounds.iter().map(|r| r.studies_s).sum();
    o.e2e.insert(
        "throughput_per_s",
        (records * rounds.len()) as f64 / studies_s,
    );
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s * 1e3).collect();
    o.e2e.insert("latency_p50_ms", median(&walls));
    // Nearest-rank p90 over a handful of rounds: the slowest round.
    o.e2e.insert("latency_p90_ms", percentile(&walls, 900));

    let r0 = &rounds[0];
    let s0 = &r0.screenings;
    o.set(
        "correlation.tests",
        s0.iter().map(|s| s.hits.len()).sum::<usize>() as f64,
    );
    o.set(
        "correlation.hits",
        s0.iter().map(|s| s.significant().len()).sum::<usize>() as f64,
    );
    o.set(
        "correlation.skipped",
        s0.iter().map(|s| s.skipped.len()).sum::<usize>() as f64,
    );

    let mut failed_ops = [false; 6];
    for (k, input) in inputs.iter().enumerate() {
        let acc = score(input.study, &topo, &r0.diagnoses[k], &input.out.truth);
        eprintln!(
            "{:?}: {} records, {} symptoms, accuracy {:.4}",
            input.study,
            input.out.records.len(),
            r0.diagnoses[k].len(),
            acc.rate()
        );
        if acc.rate() < ACCURACY_FLOOR || acc.matched == 0 {
            failed_ops[k] = true;
            o.check(false, || {
                format!(
                    "{:?}: accuracy {:.4} below the floor {ACCURACY_FLOOR}",
                    input.study,
                    acc.rate()
                )
            });
        }
    }
    for (k, bad) in check_mining(&topo, &inputs[0], r0, &mut o)
        .into_iter()
        .enumerate()
    {
        failed_ops[3 + k] |= bad;
    }
    for (i, r) in rounds.iter().enumerate().skip(1) {
        let same = r.screenings == r0.screenings
            && r.diagnoses.iter().zip(&r0.diagnoses).all(|(a, b)| {
                a.iter()
                    .map(Diagnosis::verdict)
                    .eq(b.iter().map(Diagnosis::verdict))
            });
        o.check(same, || format!("round {i} differs from round 0"));
    }
    o.failed = failed_ops.iter().filter(|&&b| b).count() as u64;

    // Detection in an offline investigation: a verdict exists once the
    // month has been collected and the study run.
    let bgp_in = &inputs[0];
    let end = bgp_in.cfg.end().unix();
    let events: Vec<VerdictEvent> = r0.diagnoses[0]
        .iter()
        .map(|d| VerdictEvent {
            location: d.symptom.location.display(&topo),
            start_unix: d.symptom.window.start.unix(),
            end_unix: d.symptom.window.end.unix(),
            label: d.label(),
            emitted_unix: end,
            degraded: false,
            amends: false,
        })
        .collect();
    let flaps: Vec<_> = bgp_in
        .out
        .truth
        .iter()
        .filter(|t| t.symptom == SymptomKind::EbgpFlap)
        .cloned()
        .collect();
    let lat = measure(&flaps, &bgp_in.out.faults, &events, JOIN_SLACK);
    let detect: Vec<f64> = lat.samples.iter().map(|s| s.detect_secs as f64).collect();
    o.check(!detect.is_empty(), || "no injection detected".to_string());
    if !detect.is_empty() {
        o.e2e.insert("detect_p50_s", median(&detect));
        o.e2e.insert("detect_p95_s", percentile(&detect, 950));
    }
    eprintln!(
        "batch_paper: {} rounds, {records} records, round {:.2}s",
        rounds.len(),
        median(&walls) / 1e3
    );
    o
}

/// Recompute the top hits' correlations with `pearson` on the dense
/// series, and require the injected flap causes among the significant
/// hits. Returns, per screening round, whether it failed a check.
fn check_mining(topo: &Topology, bgp_in: &StudyInput, r0: &Round, o: &mut Outcome) -> Vec<bool> {
    let cfg = &bgp_in.cfg;
    let grid = SeriesGrid::new(cfg.start, cfg.end(), Duration::mins(5));
    let tester = CorrelationTester::default();
    let (db, _) = Database::ingest(topo, &bgp_in.out.records);
    let candidates = grca_core::discovery::candidate_series(&db, &grid, None);
    let mut bad = vec![false; r0.screenings.len()];
    for (k, (subset, s)) in subsets(&r0.diagnoses[0])
        .iter()
        .zip(&r0.screenings)
        .enumerate()
    {
        let sym = symptom_series(&grid, subset).to_binary();
        for hit in s.hits.iter().take(RECHECK_TOP) {
            let cand = &candidates
                .iter()
                .find(|(n, _)| *n == hit.name)
                .expect("every hit names a candidate")
                .1;
            let dense = cand.to_binary().smoothed(tester.smooth_bins);
            let r = pearson(&sym.counts, &dense.counts).unwrap_or(f64::NAN);
            if (r - hit.result.r).abs() > 1e-9 {
                bad[k] = true;
                o.check(false, || {
                    format!(
                        "screen {k}: {} r {} but pearson gives {r}",
                        hit.name, hit.result.r
                    )
                });
            }
        }
        eprintln!("screen {k}: {}", s.summary());
    }
    let significant: Vec<&str> = r0.screenings[0]
        .significant()
        .iter()
        .map(|h| h.name.as_str())
        .collect();
    for cause in FLAP_CAUSES {
        if !significant.contains(&cause) {
            bad[0] = true;
            o.check(false, || {
                format!("flap cause {cause} not significant in the all-flaps screen")
            });
        }
    }
    for (k, s) in r0.screenings.iter().enumerate() {
        let top: Vec<&str> = s
            .significant()
            .iter()
            .take(8)
            .map(|h| h.name.as_str())
            .collect();
        eprintln!("screen {k} significant: {top:?}");
    }
    bad
}

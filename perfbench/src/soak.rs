//! The two online soaks: `soak_tier1` (in-order delivery at the tier1
//! preset, 12 h retention) and `soak_chaos` (eventual-delivery chaos at
//! the default preset over 30 days, durable checkpoints every 12 cycles).
//!
//! Both drive `OnlineRca::advance` hourly over a seed-drawn fault
//! manifest. Inputs are generated a day at a time by `grca-simnet` at one
//! worker, outside every timed region; only `advance` (and the checkpoint
//! when one is due) is timed.

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{beyond, median, percentile, TAIL_BEYOND};
use crate::trace::Tracer;
use crate::{rounds_for, WorkDir};
use grca_apps::{bgp, score, OnlineRca, Study};
use grca_collector::{Database, DurableStore, FeedState, StorageConfig};
use grca_core::{fold_stream, Emission};
use grca_eval::chaos::STRICT_CADENCE;
use grca_eval::{measure, VerdictEvent, JOIN_SLACK};
use grca_net_model::{NullOracle, TierConfig, Topology};
use grca_simnet::{
    ChaosOp, FaultInstance, FaultRates, FeedChaos, MicroBatches, ScenarioConfig, SimBuffers,
    SoakManifest, SymptomKind, TruthRecord,
};
use grca_telemetry::records::RawRecord;
use grca_types::{Duration, Timestamp};
use std::collections::HashSet;
use std::time::Instant;

/// Truth-join accuracy the folded online verdicts must reach.
pub const ACCURACY_FLOOR: f64 = 0.90;

/// Cycle latency tail (permille). One round has 176 (tier1) or 728
/// (chaos) cycles, so p90 has at least ten cycles beyond it. On the chaos
/// soak p95 sat among the one cycle in twelve that also writes a
/// checkpoint and swung by a quarter between runs with the disk; p90
/// stays below them, and checkpoint cost shows in throughput.
const TAIL: u32 = 900;

/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 9;

/// Every `CORRUPT_PERIOD`-th cycle of a chaos day carries one garbled
/// copy of a syslog line and one of an SNMP sample.
const CORRUPT_PERIOD: usize = 4;

struct Plan {
    tier: TierConfig,
    days: u32,
    chaos: bool,
    checkpoint_every: Option<usize>,
    retention: Option<Duration>,
    /// Nominal seconds of `advance` per round (see [`crate::rounds_for`]).
    round_s: f64,
}

pub fn soak_tier1(seed: u64, seconds: f64, work: &WorkDir, tr: &mut Tracer) -> Outcome {
    run(
        &Plan {
            tier: TierConfig::tier1(),
            days: 7,
            chaos: false,
            checkpoint_every: None,
            retention: Some(Duration::hours(12)),
            round_s: 5.0,
        },
        seed,
        seconds,
        work,
        tr,
    )
}

pub fn soak_chaos(seed: u64, seconds: f64, work: &WorkDir, tr: &mut Tracer) -> Outcome {
    run(
        &Plan {
            tier: TierConfig::default_preset(),
            days: 30,
            chaos: true,
            checkpoint_every: Some(12),
            // Stalls resume long before rows age past the retention floor,
            // so every clean record is still accepted.
            retention: Some(Duration::hours(12)),
            round_s: 5.0,
        },
        seed,
        seconds,
        work,
        tr,
    )
}

/// The fault manifest's seed for a benchmark seed.
fn manifest_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x50AC
}

/// One day's scenario: shifted start, per-day seed, preset fan-out, and
/// coarsened baselines at large router counts.
fn day_config(tier: &TierConfig, mseed: u64, routers: usize, day: u32) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(
        1,
        mseed.wrapping_add(1 + day as u64),
        FaultRates::bgp_study(),
    );
    cfg.start += Duration::days(day as i64);
    cfg.background.probe_fanout = tier.probe_fanout;
    if routers > 200 {
        cfg.background.snmp_baseline_bin = Duration::hours(6);
        cfg.background.perf_baseline_bin = Duration::hours(6);
        cfg.background.cdn_baseline_bin = Duration::hours(6);
    }
    cfg
}

/// A generated day: clean records bucketed into hourly cycles, plus the
/// day's truth and faults.
struct Day {
    start: Timestamp,
    batches: MicroBatches,
    truth: Vec<TruthRecord>,
    faults: Vec<FaultInstance>,
}

struct Gen<'t> {
    tier: &'t TierConfig,
    topo: &'t Topology,
    manifest: SoakManifest,
    mseed: u64,
    bufs: SimBuffers,
}

impl<'t> Gen<'t> {
    fn new(tier: &'t TierConfig, topo: &'t Topology, seed: u64, days: u32) -> Self {
        let mseed = manifest_seed(seed);
        let rates = FaultRates::bgp_study();
        let start = ScenarioConfig::new(1, 0, rates.clone()).start;
        Gen {
            tier,
            topo,
            manifest: SoakManifest::draw(start, days, mseed, &rates),
            mseed,
            bufs: SimBuffers::new(),
        }
    }

    fn day(&mut self, day: u32) -> Day {
        let cfg = day_config(self.tier, self.mseed, self.topo.routers.len(), day);
        let slice = self.manifest.window(cfg.start, cfg.end());
        let out = grca_simnet::run_manifest_into(self.topo, &cfg, &slice, 1, &mut self.bufs);
        Day {
            start: cfg.start,
            batches: MicroBatches::from_keyed(
                out.records,
                &out.delivery,
                cfg.start,
                cfg.end(),
                Duration::hours(1),
            ),
            truth: out.truth,
            faults: out.faults,
        }
    }
}

/// The chaos transport for one day: an evidence-feed stall long enough
/// to force degraded verdicts (then amendments), a short symptom-feed
/// stall, duplicates and in-batch reorders on both feeds. Every stall
/// resumes within the day and is shorter than the amend window.
fn day_chaos(seed: u64, day: u32, ev_stall: usize) -> FeedChaos {
    FeedChaos::new(seed ^ (u64::from(day) << 32))
        .with(ChaosOp::Stall {
            feed: "snmp",
            from: 2,
            cycles: ev_stall,
        })
        .with(ChaosOp::Stall {
            feed: "syslog",
            from: 15,
            cycles: 3,
        })
        .with(ChaosOp::Duplicate {
            feed: "syslog",
            period: 3,
        })
        .with(ChaosOp::Duplicate {
            feed: "snmp",
            period: 4,
        })
        .with(ChaosOp::Reorder {
            feed: "syslog",
            period: 2,
        })
        .with(ChaosOp::Reorder {
            feed: "snmp",
            period: 3,
        })
}

/// Add a garbled copy of the cycle's first syslog line and first SNMP
/// sample (the originals still arrive intact). Returns how many copies
/// were added; each must land in quarantine.
fn corrupt_copies(batch: &mut Vec<RawRecord>, tag: usize) -> usize {
    let syslog = batch.iter().find_map(|r| match r {
        RawRecord::Syslog(s) => {
            let mut s = s.clone();
            // Tagged so no two garbled frames are identical: an exact
            // re-delivery of a garbled frame would rightly be deduplicated.
            s.line = format!("#CHAOS garbled frame {tag}");
            Some(RawRecord::Syslog(s))
        }
        _ => None,
    });
    let snmp = batch.iter().find_map(|r| match r {
        RawRecord::Snmp(x) => {
            let mut x = x.clone();
            x.value = f64::NAN;
            Some(RawRecord::Snmp(x))
        }
        _ => None,
    });
    let copies: Vec<RawRecord> = syslog.into_iter().chain(snmp).collect();
    let n = copies.len();
    // Interleave into the middle of the batch rather than appending.
    let at = batch.len() / 2;
    batch.splice(at..at, copies);
    n
}

/// Symptom key and label of each folded verdict, sorted.
type Labels = Vec<((String, i64), String)>;

fn labels(topo: &Topology, diagnoses: impl Iterator<Item = grca_core::Diagnosis>) -> Labels {
    let mut v: Labels = diagnoses
        .map(|d| {
            (
                (
                    d.symptom.location.display(topo),
                    d.symptom.window.start.unix(),
                ),
                d.label(),
            )
        })
        .collect();
    v.sort();
    v
}

/// What one soak round measured.
#[derive(Default)]
struct Round {
    cycle_ms: Vec<f64>,
    advance_s: f64,
    records: usize,
    emissions: Vec<Emission>,
    truth: Vec<TruthRecord>,
    faults: Vec<FaultInstance>,
    delivered: usize,
    corrupted: usize,
    cycles_failed: u64,
    /// Per-layer counters of this round.
    layer: Outcome,
}

fn build_online<'a>(
    plan: &Plan,
    topo: &'a Topology,
    ckpt_dir: Option<&std::path::Path>,
) -> OnlineRca<'a> {
    let mut online = OnlineRca::new(topo, bgp::event_definitions(), bgp::diagnosis_graph())
        .expect("the BGP graph validates");
    let storage = match ckpt_dir {
        Some(dir) => StorageConfig {
            spill_dir: Some(dir.to_path_buf()),
            durable: true,
            ..StorageConfig::default()
        },
        None => StorageConfig::default(),
    };
    online = online.with_storage(&storage);
    if let Some(margin) = plan.retention {
        online = online.with_db_retention(margin);
    }
    for feed in online.relevant_feeds().to_vec() {
        online = online.with_feed_cadence(feed, STRICT_CADENCE);
    }
    online
}

fn round(
    plan: &Plan,
    topo: &Topology,
    seed: u64,
    round_no: usize,
    work: &WorkDir,
    tr: &mut Tracer,
) -> Round {
    let ckpt_dir = plan
        .checkpoint_every
        .map(|_| work.fresh(&format!("ckpt-round{round_no}")));
    let store = ckpt_dir
        .as_deref()
        .map(|d| DurableStore::open(d).expect("open the checkpoint directory"));
    let mut online = build_online(plan, topo, ckpt_dir.as_deref());
    let mut gen = Gen::new(&plan.tier, topo, seed, plan.days);
    let hold_back = online.hold_back();
    let ev_stall = ((hold_back + online.wait_budget()).as_secs() / 3600) as usize + 2;
    assert!(
        Duration::hours(ev_stall as i64) < online.amend_window(),
        "chaos stalls must stay shorter than the amend window"
    );

    let mut r = Round::default();
    let mut o = Outcome::default();
    let mut cycle = 0usize;
    let mut next_seq = 1u64;
    let mut now = Timestamp::MIN;
    let relevant = online.relevant_feeds().to_vec();

    let mut step = |online: &mut OnlineRca,
                    recs: &[RawRecord],
                    at: Timestamp,
                    r: &mut Round,
                    tr: &mut Tracer| {
        let trace = ((round_no as u64) << 32) | cycle as u64;
        tr.begin("bench.cycle", trace);
        let t0 = Instant::now();
        let new = tr.time("apps.advance", trace, || {
            online.advance(recs, at, &NullOracle, None)
        });
        let due = plan
            .checkpoint_every
            .is_some_and(|every| (cycle + 1).is_multiple_of(every));
        if due {
            let store = store.as_ref().expect("checkpointing soaks open a store");
            tr.time("apps.checkpoint", trace, || {
                grca_apps::checkpoint::checkpoint(online, store, cycle as u64)
            })
            .expect("checkpoint write");
        }
        let dt = t0.elapsed().as_secs_f64();
        tr.end();
        r.cycle_ms.push(dt * 1e3);
        r.advance_s += dt;
        r.records += recs.len();
        if due {
            o.add("apps.checkpoints", 1.0);
        }

        // The cycle's own output: gap-free increasing sequence numbers,
        // stamped with this cycle's clock.
        let mut ok = true;
        for e in &new {
            ok &= e.seq == next_seq && e.emitted_at == at;
            next_seq = e.seq.max(next_seq) + 1;
        }
        if !ok {
            r.cycles_failed += 1;
        }
        o.max("apps.state_size_peak", online.state_size() as f64);
        o.max(
            "collector.rows_retained_peak",
            online.database().row_counts().iter().sum::<usize>() as f64,
        );
        // Lagging is routine under strict cadence at hourly cycles; a
        // feed past its staleness allowance no longer vouches for silence.
        if relevant.iter().any(|f| {
            matches!(
                online.registry().state(f, at),
                FeedState::Stalled | FeedState::Dead
            )
        }) {
            o.add("collector.feed_unhealthy_cycles", 1.0);
        }
        r.emissions.extend(new);
        cycle += 1;
    };

    for day in 0..plan.days {
        let d = gen.day(day);
        let cycles = d.batches.cycles();
        let mut delivered = if plan.chaos {
            day_chaos(seed, day, ev_stall).deliver(&d.batches)
        } else {
            FeedChaos::new(0).deliver_owned(d.batches)
        };
        if plan.chaos {
            for (c, batch) in delivered.iter_mut().enumerate() {
                if c % CORRUPT_PERIOD == 1 {
                    r.corrupted += corrupt_copies(batch, day as usize * 24 + c);
                }
            }
        }
        r.delivered += delivered.iter().map(Vec::len).sum::<usize>();
        let offset = r.faults.len();
        r.faults.extend(d.faults.into_iter().map(|mut f| {
            f.id += offset;
            f
        }));
        r.truth.extend(d.truth.into_iter().map(|mut t| {
            t.fault += offset;
            t
        }));
        for (i, recs) in delivered.iter().enumerate() {
            now = d.start + Duration::hours(i as i64 + 1);
            step(&mut online, recs, now, &mut r, tr);
        }
        debug_assert_eq!(cycles, delivered.len());
    }
    // Drain past the horizon until every held-back symptom has resolved.
    let start = ScenarioConfig::new(1, 0, FaultRates::bgp_study()).start;
    let drain_end = start
        + Duration::days(plan.days as i64)
        + hold_back
        + online.wait_budget()
        + Duration::hours(1);
    while now < drain_end {
        now += Duration::hours(1);
        step(&mut online, &[], now, &mut r, tr);
    }

    let stats = online.stats();
    o.set("collector.records_accepted", stats.total_accepted() as f64);
    o.set(
        "collector.records_deduplicated",
        stats.total_deduplicated() as f64,
    );
    o.set(
        "collector.records_quarantined",
        stats.total_quarantined() as f64,
    );
    o.set("collector.records_expired", stats.total_expired() as f64);
    let s = online
        .database()
        .storage_stats()
        .expect("soaks run on segmented storage");
    o.set("collector.segments_scanned", s.segments_scanned as f64);
    o.set(
        "collector.segments_pruned",
        (s.pruned_by_time + s.pruned_by_entity) as f64,
    );
    o.set("collector.decodes", s.decodes as f64);
    o.set("collector.cache_hits", s.cache_hits as f64);
    o.set("collector.reseals", s.reseals as f64);
    o.set("collector.spilled_bytes", s.spilled_bytes as f64);
    o.set("events.delta_passes", online.delta_passes() as f64);
    o.set(
        "events.delta_ratio",
        online.delta_passes() as f64 / cycle as f64,
    );
    r.layer = o;
    r
}

fn run(plan: &Plan, seed: u64, seconds: f64, work: &WorkDir, tr: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();

    // Set-up: topology, fault manifest and an online instance, repeated;
    // the last repetition's topology is used. Input generation is the
    // load generator's and stays outside (its cost varies with the seed's
    // fault mix).
    let mut setup_s = Vec::new();
    let mut topo = None;
    for _ in 0..SETUP_REPS {
        drop(topo.take());
        let t0 = Instant::now();
        let t = plan.tier.generate();
        drop(Gen::new(&plan.tier, &t, seed, plan.days));
        drop(build_online(plan, &t, None));
        setup_s.push(t0.elapsed().as_secs_f64());
        topo = Some(t);
    }
    let topo = topo.expect("at least one set-up");
    o.e2e.insert("setup_s", median(&setup_s));

    // Whole soaks, as many as `seconds` asks for, each on its own fault
    // manifest so one run averages over several fault mixes.
    let rounds: Vec<Round> = (0..rounds_for(seconds, plan.round_s))
        .map(|no| round(plan, &topo, round_seed(seed, no), no, work, tr))
        .collect();
    o.e2e.insert("peak_rss_mb", peak_rss_mb());

    let cycle_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.cycle_ms.iter().copied())
        .collect();
    let records: usize = rounds.iter().map(|r| r.records).sum();
    let advance_s: f64 = rounds.iter().map(|r| r.advance_s).sum();
    o.attempted = cycle_ms.len() as u64;
    o.failed = rounds.iter().map(|r| r.cycles_failed).sum();
    o.e2e.insert("throughput_per_s", records as f64 / advance_s);
    o.e2e.insert("latency_p50_ms", percentile(&cycle_ms, 500));
    o.check(
        beyond(rounds[0].cycle_ms.len(), TAIL) >= TAIL_BEYOND,
        || "too few cycles for the latency tail".to_string(),
    );
    o.e2e.insert("latency_p90_ms", percentile(&cycle_ms, TAIL));

    // Output checks on every round: sequence numbers, detection and
    // accuracy against the simulator's ground truth, and for the chaos
    // soak convergence to batch.
    let mut detect: Vec<f64> = Vec::new();
    for (no, r) in rounds.iter().enumerate() {
        let seqs_ok = r
            .emissions
            .iter()
            .enumerate()
            .all(|(k, e)| e.seq == k as u64 + 1);
        o.check(seqs_ok, || {
            format!("round {no}: emission seq not gap-free from 1")
        });
        let flaps: Vec<TruthRecord> = r
            .truth
            .iter()
            .filter(|t| t.symptom == SymptomKind::EbgpFlap)
            .cloned()
            .collect();
        let events: Vec<VerdictEvent> = r
            .emissions
            .iter()
            .map(|e| VerdictEvent::from_emission(&topo, e))
            .collect();
        let lat = measure(&flaps, &r.faults, &events, JOIN_SLACK);
        let missed = missed_apart(&flaps, &lat);
        o.check(lat.matched > 0 && missed == 0 && lat.spurious == 0, || {
            format!(
                "round {no} detection: {} matched, {missed} missed, {} spurious",
                lat.matched, lat.spurious
            )
        });
        detect.extend(lat.samples.iter().map(|s| s.detect_secs as f64));
        let folded = fold_stream(&r.emissions);
        let diagnoses: Vec<_> = folded.iter().map(|e| e.diagnosis.clone()).collect();
        let acc = score(Study::Bgp, &topo, &diagnoses, &r.truth);
        o.check(acc.rate() >= ACCURACY_FLOOR, || {
            format!(
                "round {no}: accuracy {:.4} below the floor {ACCURACY_FLOOR}",
                acc.rate()
            )
        });
        eprintln!(
            "{} round {no}: {:.3} s in advance, {} records, {} injections matched, accuracy {:.4}",
            plan.tier.name,
            r.advance_s,
            r.records,
            lat.matched,
            acc.rate()
        );
        if plan.chaos {
            let online = labels(&topo, diagnoses.into_iter());
            check_accounting(plan, &topo, round_seed(seed, no), r, &online, &mut o);
        }
    }
    if !detect.is_empty() {
        o.e2e.insert("detect_p50_s", median(&detect));
        o.e2e.insert("detect_p95_s", percentile(&detect, 950));
    }

    // Per-layer counters describe round 0.
    let r0 = &rounds[0];
    o.layer = r0.layer.layer.clone();
    o.set("apps.emissions", r0.emissions.len() as f64);
    o.set(
        "apps.amendments",
        r0.emissions.iter().filter(|e| e.amends).count() as f64,
    );
    o.set(
        "apps.degraded_emissions",
        r0.emissions.iter().filter(|e| e.mode.is_degraded()).count() as f64,
    );
    o
}

/// Injections with no verdict of their own whose flap is not also
/// another, detected injection's flap. Two injections can produce one
/// symptom (same session, same onset second): `measure` credits its
/// verdict to one of them and counts the other missed, though no RCA
/// could tell them apart.
fn missed_apart(flaps: &[TruthRecord], lat: &grca_eval::LatencyReport) -> usize {
    let detected: HashSet<usize> = lat.samples.iter().map(|s| s.fault).collect();
    let covered: HashSet<(&str, i64)> = flaps
        .iter()
        .filter(|t| detected.contains(&t.fault))
        .map(|t| (t.key.as_str(), t.time.unix()))
        .collect();
    let missed: HashSet<usize> = flaps
        .iter()
        .filter(|t| !detected.contains(&t.fault))
        .filter(|t| !covered.contains(&(t.key.as_str(), t.time.unix())))
        .map(|t| t.fault)
        .collect();
    missed.len()
}

/// The seed of round `no` of a run with `seed`.
fn round_seed(seed: u64, no: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(no as u64)
}

/// The collector's accounting must match what the transport delivered.
/// Convergence of the folded verdicts to a batch `bgp::run` over the
/// clean records is reported but not checked: an SNMP stall that forces
/// a degraded verdict can leave its amendment without the CPU evidence
/// the batch run finds, on some seeds only (see `README.md`).
fn check_accounting(
    plan: &Plan,
    topo: &Topology,
    seed: u64,
    r: &Round,
    online_labels: &Labels,
    o: &mut Outcome,
) {
    let mut gen = Gen::new(&plan.tier, topo, seed, plan.days);
    let mut clean: Vec<RawRecord> = Vec::new();
    for day in 0..plan.days {
        let d = gen.day(day);
        clean.extend(
            FeedChaos::new(0)
                .deliver_owned(d.batches)
                .into_iter()
                .flatten(),
        );
    }
    let (db, stats) = Database::ingest(topo, &clean);
    let batch = bgp::run(topo, &db).expect("the BGP application validates");
    let batch_labels: std::collections::BTreeMap<_, _> = labels(topo, batch.diagnoses.into_iter())
        .into_iter()
        .collect();
    let differ = online_labels
        .iter()
        .filter(|(k, l)| batch_labels.get(k) != Some(l))
        .count()
        + batch_labels.len().abs_diff(online_labels.len());
    let duplicates = r.delivered - clean.len() - r.corrupted;
    let get = |name| r.layer.layer.get(name).copied().unwrap_or(0.0) as usize;
    let (accepted, dedup, quarantined) = (
        get("collector.records_accepted"),
        get("collector.records_deduplicated"),
        get("collector.records_quarantined"),
    );
    let want_accepted = clean.len() - stats.total_deduplicated() - stats.total_quarantined();
    o.check(accepted == want_accepted, || {
        format!(
            "accepted {accepted}, want {want_accepted} of {} clean",
            clean.len()
        )
    });
    o.check(dedup == duplicates + stats.total_deduplicated(), || {
        format!("deduplicated {dedup}, transport duplicated {duplicates}")
    });
    o.check(
        quarantined == r.corrupted + stats.total_quarantined(),
        || {
            format!(
                "quarantined {quarantined}, transport corrupted {}",
                r.corrupted
            )
        },
    );
    eprintln!(
        "chaos: {} clean, {} duplicated, {} corrupted; {differ} of {} verdicts differ from batch",
        clean.len(),
        duplicates,
        r.corrupted,
        online_labels.len()
    );
}

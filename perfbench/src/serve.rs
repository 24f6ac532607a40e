//! `serve_default`: four tenants (BGP, CDN, PIM, E2E) on `grca-serve`
//! at the default preset. One closed-loop client per core queries the
//! current snapshot's symptom mix while a publisher ingests half-hour
//! cycles on a fixed wall-clock schedule and publishes one epoch per
//! cycle, on the same cores.

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{beyond, median, percentile, TAIL_BEYOND};
use crate::trace::Tracer;
use crate::WorkDir;
use grca_apps::{bgp, cdn, e2e, pim};
use grca_eval::{measure, VerdictEvent, JOIN_SLACK};
use grca_events::EventInstance;
use grca_net_model::{TierConfig, Topology};
use grca_serve::{Publisher, ServeConfig, Server, ServingSnapshot, TenantSpec};
use grca_simnet::{FaultRates, FeedChaos, MicroBatches, ScenarioConfig, SymptomKind};
use grca_telemetry::records::RawRecord;
use grca_types::Duration;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Epochs published per run, evenly spaced over the run.
const PUBLISHES: usize = 40;

/// Half-hour cycles ingested during set-up (one simulated day).
const PRELOAD: usize = 48;

/// Queries each client sends before timing starts.
const WARMUP_QUERIES: usize = 200;

const SETUP_REPS: usize = 5;

/// Per-query tail percentile (permille). p99 swung by a third between
/// runs on two cores, set by which queries a publish happened to
/// preempt; p90 did not.
const TAIL: u32 = 900;

/// More queries per second than one client can send on the reference
/// host (it sends about 7 k).
const MAX_QPS: f64 = 50_000.0;

/// Queries a client sends between re-reads of the current snapshot.
const REFRESH: usize = 256;

/// Equal windows the timed part of a run is cut into.
const WINDOWS: usize = 10;

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn tenant_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("bgp", bgp::diagnosis_graph()),
        TenantSpec::new("cdn", cdn::diagnosis_graph()),
        TenantSpec::new("pim", pim::diagnosis_graph()),
        TenantSpec::new("e2e", e2e::diagnosis_graph()),
    ]
}

fn union_defs(topo: &Topology) -> Vec<grca_events::EventDefinition> {
    let mut defs = bgp::event_definitions();
    defs.extend(cdn::event_definitions(topo));
    defs.extend(pim::event_definitions());
    defs.extend(e2e::event_definitions(topo));
    defs
}

/// One served query, as compact as the check needs.
struct Query {
    /// Epoch of the snapshot whose symptom list the query came from.
    from_epoch: u64,
    symptom: u32,
    tenant: u8,
    served_epoch: u64,
    verdict: u64,
    latency_ms: f64,
    /// Completion, in seconds since timing started.
    done_s: f64,
}

fn verdict_hash(d: &grca_core::Diagnosis) -> u64 {
    let mut h = DefaultHasher::new();
    d.verdict().hash(&mut h);
    h.finish()
}

/// Everything set-up produces.
struct Ready {
    topo: Arc<Topology>,
    cycles: Vec<Vec<RawRecord>>,
    publisher: Publisher,
    server: Server,
    /// Every published snapshot with its clock (the end of the last
    /// cycle it ingested).
    snapshots: Vec<(Arc<ServingSnapshot>, i64)>,
    truth: Vec<grca_simnet::TruthRecord>,
    faults: Vec<grca_simnet::FaultInstance>,
    start: grca_types::Timestamp,
}

fn setup(seed: u64) -> Ready {
    let tier = TierConfig::default_preset();
    let topo = Arc::new(tier.generate());
    // Two simulated days bucketed into half-hour cycles: the first day is
    // ingested now, so queries see a day of symptoms; the second day
    // feeds the scheduled publishes, one cycle each.
    let mut cfg = ScenarioConfig::new(2, seed ^ 0x5E17, FaultRates::bgp_study());
    cfg.background.probe_fanout = tier.probe_fanout;
    let out = grca_simnet::run_scenario_threads(&topo, &cfg, 1);
    let mb = MicroBatches::from_keyed(
        out.records,
        &out.delivery,
        cfg.start,
        cfg.end(),
        Duration::mins(30),
    );
    let mut cycles = FeedChaos::new(0).deliver_owned(mb);
    assert!(
        cycles.len() >= PRELOAD + PUBLISHES,
        "two days hold 96 half-hour cycles"
    );
    let live = cycles.split_off(PRELOAD);

    let mut publisher = Publisher::new(topo.clone(), union_defs(&topo), tenant_specs())
        .with_storage(&grca_collector::StorageConfig::default());
    for c in &cycles {
        publisher.ingest(c);
    }
    let snap0 = publisher.publish().expect("tenants validate");
    let server = Server::start(
        snap0.clone(),
        &ServeConfig {
            workers: cores(),
            ..Default::default()
        },
    );
    // Warm-up: a sweep of queries per client before timing.
    std::thread::scope(|s| {
        for _ in 0..cores() {
            s.spawn(|| {
                let mut n = 0;
                'sweep: for tenant in 0..snap0.tenants().len() {
                    for sym in snap0.symptoms(tenant) {
                        if n == WARMUP_QUERIES {
                            break 'sweep;
                        }
                        if let Ok(t) = server.submit(tenant, sym.clone()) {
                            t.wait();
                        }
                        n += 1;
                    }
                }
            });
        }
    });
    Ready {
        topo,
        cycles: live,
        publisher,
        server,
        snapshots: vec![(
            snap0,
            (cfg.start + Duration::mins(30 * PRELOAD as i64)).unix(),
        )],
        truth: out.truth,
        faults: out.faults,
        start: cfg.start,
    }
}

/// A closed-loop client, one blocking request at a time until
/// `deadline`. Queries take the tenants in turn and each tenant's current
/// symptoms in order, so the tenant mix is the same whatever the seed;
/// the snapshot is re-read every [`REFRESH`] queries.
fn client(
    server: &Server,
    t0: Instant,
    deadline: Instant,
    id: u64,
    tr: &mut Tracer,
) -> (Vec<Query>, u64, u64) {
    // Reserved up front: growing the record by reallocation left a
    // copy-sized bump in the process's peak RSS that varied run to run.
    let seconds = deadline.saturating_duration_since(t0).as_secs_f64();
    let mut out = Vec::with_capacity((seconds * MAX_QPS) as usize);
    let (mut submitted, mut failed) = (0u64, 0u64);
    let mut k = 0usize;
    'run: loop {
        let snap = server.snapshot();
        let tenants = snap.tenants().len();
        for _ in 0..REFRESH {
            let tenant = k % tenants;
            let symptoms = snap.symptoms(tenant);
            let i = (k / tenants) % symptoms.len().max(1);
            k += 1;
            let Some(sym) = symptoms.get(i) else {
                continue;
            };
            if Instant::now() >= deadline {
                break 'run;
            }
            let trace = (id << 48) | submitted;
            submitted += 1;
            tr.begin("bench.query", trace);
            let sent = Instant::now();
            let ticket = tr.time("serve.submit", trace, || server.submit(tenant, sym.clone()));
            let served = ticket.map(|t| tr.time("serve.wait", trace, || t.wait()));
            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
            tr.end();
            match served {
                Ok(s) if s.error.is_none() => out.push(Query {
                    from_epoch: snap.epoch,
                    symptom: i as u32,
                    tenant: tenant as u8,
                    served_epoch: s.epoch,
                    verdict: verdict_hash(&s.diagnosis),
                    latency_ms,
                    done_s: t0.elapsed().as_secs_f64(),
                }),
                _ => failed += 1,
            }
        }
    }
    (out, submitted, failed)
}

pub fn serve_default(seed: u64, seconds: f64, _work: &WorkDir, tr: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(setup(seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Ready {
        topo,
        cycles,
        mut publisher,
        server,
        snapshots,
        truth,
        faults,
        start,
    } = ready.expect("at least one set-up");
    o.e2e.insert("setup_s", median(&setup_s));

    let snapshots = Mutex::new(snapshots);
    let stats0 = server.stats();
    let period = seconds / PUBLISHES as f64;
    let mut elided = 0u64;
    let mut pub_tr = tr.fork();
    let t0 = Instant::now();
    let deadline = t0 + std::time::Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Query>, u64, u64, Tracer)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..cores())
            .map(|id| {
                let (server, mut ctr) = (&server, tr.fork());
                s.spawn(move || {
                    let (q, n, f) = client(server, t0, deadline, id as u64, &mut ctr);
                    (q, n, f, ctr)
                })
            })
            .collect();
        // The publisher, on a fixed schedule: the k-th live cycle is
        // ingested and published at (k + 1/2) periods, whatever the
        // clients do.
        for (k, cycle) in cycles.iter().enumerate().take(PUBLISHES) {
            let due = t0 + std::time::Duration::from_secs_f64((k as f64 + 0.5) * period);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let trace = k as u64;
            pub_tr.begin("bench.publish", trace);
            pub_tr.time("serve.ingest", trace, || publisher.ingest(cycle));
            let next = pub_tr.time("serve.publish_if_changed", trace, || {
                publisher.publish_if_changed().expect("tenants validate")
            });
            match next {
                Some(snap) => {
                    // Recorded before it is served, so every served epoch
                    // resolves in the check.
                    let clock = (start + Duration::mins(30 * (PRELOAD + k + 1) as i64)).unix();
                    snapshots
                        .lock()
                        .expect("no panics while held")
                        .push((snap.clone(), clock));
                    pub_tr.time("serve.publish", trace, || server.publish(snap));
                }
                None => elided += 1,
            }
            pub_tr.end();
        }
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window_s = t0.elapsed().as_secs_f64();
    o.e2e.insert("peak_rss_mb", peak_rss_mb());
    let stats1 = server.stats();
    drop(server);

    let mut queries = Vec::new();
    for (q, submitted, failed, ctr) in results {
        queries.extend(q);
        o.attempted += submitted;
        o.failed += failed;
        tr.absorb(ctr);
    }
    tr.absorb(pub_tr);
    // Medians over equal windows of the run, so that one disturbed
    // window (a slow publish, a preempted worker) does not set the figure.
    let width = window_s / WINDOWS as f64;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for q in &queries {
        windows[((q.done_s / width) as usize).min(WINDOWS - 1)].push(q.latency_ms);
    }
    let thin = windows
        .iter()
        .filter(|w| beyond(w.len(), TAIL) < TAIL_BEYOND)
        .count();
    o.check(thin == 0, || {
        format!("{thin} windows served too few queries for the tail")
    });
    if thin == 0 {
        let per = |f: &dyn Fn(&Vec<f64>) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
        o.e2e
            .insert("throughput_per_s", per(&|w| w.len() as f64 / width));
        o.e2e.insert("latency_p50_ms", per(&|w| percentile(w, 500)));
        o.e2e
            .insert("latency_p90_ms", per(&|w| percentile(w, TAIL)));
    }

    let batches = (stats1.batches - stats0.batches) as f64;
    o.set("serve.batches", batches);
    o.set(
        "serve.batch_size_mean",
        (stats1.served - stats0.served) as f64 / batches.max(1.0),
    );
    o.set(
        "serve.load_retries",
        (stats1.load_retries - stats0.load_retries) as f64,
    );
    o.set(
        "serve.publishes",
        (stats1.publishes - stats0.publishes) as f64,
    );
    o.set("serve.publishes_elided", elided as f64);
    let st = publisher.stats();
    o.set("collector.records_accepted", st.total_accepted() as f64);
    o.set(
        "collector.records_deduplicated",
        st.total_deduplicated() as f64,
    );
    o.set(
        "collector.records_quarantined",
        st.total_quarantined() as f64,
    );

    let snapshots = snapshots.into_inner().expect("no panics while held");
    check(&topo, &snapshots, &queries, &mut o);
    detection(&topo, &snapshots, &truth, &faults, &mut o);
    eprintln!(
        "serve_default: {} queries in {window_s:.2}s, {} epochs, {} batches",
        queries.len(),
        snapshots.len(),
        batches
    );
    o
}

/// A symptom's identity within one epoch and tenant: name, start, location.
type SymKey = (String, i64, String);

fn sym_key(topo: &Topology, s: &EventInstance) -> SymKey {
    (
        s.name.to_string(),
        s.window.start.unix(),
        s.location.display(topo),
    )
}

/// Every served verdict equals `ServingSnapshot::diagnose_all` at the
/// epoch it was served at.
fn check(
    topo: &Topology,
    snapshots: &[(Arc<ServingSnapshot>, i64)],
    queries: &[Query],
    o: &mut Outcome,
) {
    let by_epoch: HashMap<u64, &Arc<ServingSnapshot>> =
        snapshots.iter().map(|(s, _)| (s.epoch, s)).collect();
    let mut refs: HashMap<(u64, u8), HashMap<SymKey, u64>> = HashMap::new();
    let mut wrong = 0usize;
    let mut unknown = 0usize;
    for q in queries {
        let (Some(served), Some(from)) =
            (by_epoch.get(&q.served_epoch), by_epoch.get(&q.from_epoch))
        else {
            unknown += 1;
            continue;
        };
        let tenant = q.tenant as usize;
        let symptom = &from.symptoms(tenant)[q.symptom as usize];
        let map = refs.entry((q.served_epoch, q.tenant)).or_insert_with(|| {
            served
                .symptoms(tenant)
                .iter()
                .zip(served.diagnose_all(tenant))
                .map(|(s, d)| (sym_key(topo, s), verdict_hash(&d)))
                .collect()
        });
        // A symptom queried from an older epoch may be outside this
        // epoch's root set; diagnose it directly against the epoch.
        let want = map
            .get(&sym_key(topo, symptom))
            .copied()
            .unwrap_or_else(|| verdict_hash(&served.diagnose(tenant, symptom)));
        if q.verdict != want {
            wrong += 1;
        }
    }
    o.check(unknown == 0, || {
        format!("{unknown} queries served at an unrecorded epoch")
    });
    o.check(wrong == 0, || {
        format!("{wrong} served verdicts differ from diagnose_all")
    });
}

/// Detection latency: from a fault's injection to the first epoch whose
/// BGP tenant holds a symptom it caused, in simulated seconds (an epoch's
/// clock is the end of the last cycle it ingested). Only faults injected
/// after the day ingested at set-up count.
fn detection(
    topo: &Topology,
    snapshots: &[(Arc<ServingSnapshot>, i64)],
    truth: &[grca_simnet::TruthRecord],
    faults: &[grca_simnet::FaultInstance],
    o: &mut Outcome,
) {
    let key = |s: &EventInstance| (s.location.display(topo), s.window.start.unix());
    let (first, preload_clock) = &snapshots[0];
    let bgp = first.tenant_id("bgp").expect("the bgp tenant");
    let mut seen: std::collections::HashSet<(String, i64)> =
        first.symptoms(bgp).iter().map(key).collect();
    let mut events = Vec::new();
    for (snap, clock) in &snapshots[1..] {
        for s in snap.symptoms(bgp) {
            let k = key(s);
            if seen.insert(k.clone()) {
                events.push(VerdictEvent {
                    location: k.0,
                    start_unix: k.1,
                    end_unix: s.window.end.unix(),
                    label: String::new(),
                    emitted_unix: *clock,
                    degraded: false,
                    amends: false,
                });
            }
        }
    }
    let live: std::collections::HashSet<usize> = faults
        .iter()
        .filter(|f| f.time.unix() >= *preload_clock)
        .map(|f| f.id)
        .collect();
    let flaps: Vec<_> = truth
        .iter()
        .filter(|t| t.symptom == SymptomKind::EbgpFlap && live.contains(&t.fault))
        .cloned()
        .collect();
    let lat = measure(&flaps, faults, &events, JOIN_SLACK);
    let detect: Vec<f64> = lat.samples.iter().map(|s| s.detect_secs as f64).collect();
    o.check(!detect.is_empty(), || "no injection detected".to_string());
    if !detect.is_empty() {
        o.e2e.insert("detect_p50_s", median(&detect));
        o.e2e.insert("detect_p95_s", percentile(&detect, 950));
    }
}

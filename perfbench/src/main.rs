//! The G-RCA platform benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md`), checks its outputs, and prints
//! one JSON result line last on stdout. With `--trace 0` the metrics are
//! the end-to-end ones, timed with tracing off; with `--trace 1` the
//! workload runs with spans around every call into a layer, and the
//! metrics are the per-layer ones plus the tracing overhead. Spans are written to `.perfbench/trace-<workload>-<seed>.jsonl`.

mod batch;
#[cfg(test)]
mod contract;
mod report;
mod serve;
mod soak;
mod stats;
mod trace;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

type Workload = fn(u64, f64, &WorkDir, &mut Tracer) -> Outcome;

const WORKLOADS: [(&str, Workload); 4] = [
    ("soak_tier1", soak::soak_tier1),
    ("soak_chaos", soak::soak_chaos),
    ("serve_default", serve::serve_default),
    ("batch_paper", batch::batch_paper),
];

/// Whole rounds a run of `seconds` makes, for a workload whose round
/// takes about `nominal_s` on the reference host. The count depends only
/// on the arguments, so every run at the same `--seconds` does the same
/// work however fast the code is.
pub fn rounds_for(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).ceil() as usize).max(1)
}

/// Scratch space under the working directory, removed when dropped.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    fn new(workload: &str) -> std::io::Result<Self> {
        let root = Path::new(".perfbench").join(format!("work-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    /// An empty directory for one use.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a work directory");
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, w)| w)
        .ok_or(format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Re-run this program with address-space layout randomization off for
/// its own process, unless it already is. The tier1 soak's `advance`
/// time moved by 10-20 % from process to process with randomization on
/// and by 2 % with it off (see `README.md`), so every run measures one
/// fixed layout. Returns only if the switch is impossible; the run then
/// goes on with a randomized layout.
fn fix_address_layout() {
    use std::os::raw::{c_int, c_ulong};
    use std::os::unix::process::CommandExt;
    const ADDR_NO_RANDOMIZE: c_ulong = 0x0040000;
    const QUERY: c_ulong = 0xffff_ffff;
    extern "C" {
        fn personality(persona: c_ulong) -> c_int;
    }
    // SAFETY: personality(2) only reads or sets this process's execution
    // domain flags; it touches no memory of ours.
    let current = unsafe { personality(QUERY) };
    if current < 0 || current as c_ulong & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: as above; the new flag takes effect at the next exec.
    if unsafe { personality(current as c_ulong | ADDR_NO_RANDOMIZE) } < 0 {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .exec();
    eprintln!("perfbench: cannot re-execute with a fixed layout: {err}");
}

fn main() -> ExitCode {
    fix_address_layout();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::new(&args.name) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = Instant::now();
    let (outcome, metrics) = if args.trace {
        let mut tracer = Tracer::new(true, Instant::now());
        let traced = (args.workload)(args.seed, args.seconds, &work, &mut tracer);
        let path = Path::new(".perfbench").join(format!("trace-{}-{}.jsonl", args.name, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        let metrics = report::per_layer(&traced, &tracer);
        (traced, metrics)
    } else {
        let mut o = (args.workload)(args.seed, args.seconds, &work, &mut Tracer::off());
        let m = report::end_to_end(&mut o);
        (o, m)
    };
    drop(work);
    for f in &outcome.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    eprintln!("{} done in {:.1}s", args.name, t0.elapsed().as_secs_f64());
    println!("{}", report::result_line(&outcome, &metrics));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

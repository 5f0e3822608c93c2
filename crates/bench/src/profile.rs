//! `--profile` support for the bench binaries.
//!
//! The binaries whose harnesses run through [`workloads::measure`] call
//! [`begin`] before running them; every binary that declares
//! `--profile` calls [`finish`] after emitting its table. When the
//! command line carries `--profile <path>`, [`begin`] switches the
//! thread-local workload profiler on, and [`finish`] gathers the
//! collected per-run profiles into one [`ProfileReport`] and writes the
//! Perfetto-loadable JSON to `<path>`. Without the flag both are no-ops, and because the
//! profiler observes committed steps only, the figure numbers are
//! bit-identical either way.

use crate::report::Args;
use isa_obs::{ProfileReport, RunProfile};
use workloads::measure;

/// Start profiling if the command line asked for it: turns on the
/// thread-local workload profiler and names the initial scope after
/// the binary. Also applies the `--no-jit` switch to the thread-local
/// measurement harness (the single place the flag takes effect for
/// those binaries). Returns whether profiling is on.
pub fn begin(args: &Args, scope: &str) -> bool {
    measure::set_jit(args.jit);
    if args.profile.is_none() {
        return false;
    }
    measure::set_profiling(true);
    measure::set_profile_scope(scope);
    true
}

/// Finish profiling: drain the run profiles the workload harness
/// collected, append any the caller gathered itself (e.g. per-hart SMP
/// profiles), and write the combined report to the `--profile` path.
/// No-op without the flag.
///
/// # Panics
///
/// Panics if the profile file cannot be written.
pub fn finish(args: &Args, extra: Vec<RunProfile>) {
    let Some(path) = &args.profile else { return };
    let mut runs = measure::take_profiles();
    runs.extend(extra);
    let doc = ProfileReport::new(runs).to_json().to_string();
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("cannot write profile {path}: {e}"));
    eprintln!("profile written to {path}");
}

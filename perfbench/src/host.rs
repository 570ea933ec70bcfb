//! The host block every result carries, so numbers from different
//! machines are never read as comparable.

use serde::json::Value;
use std::path::Path;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" when the checkout is not a git repository.
fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs")).and_then(|packed| {
                packed.lines().find_map(|l| {
                    l.strip_suffix(reference)
                        .map(|hash| hash.trim().to_string())
                })
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn block(seed: u64, engine_threads: usize) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Object(vec![
        ("nproc".to_string(), Value::Int(nproc as i128)),
        ("cpu_model".to_string(), Value::Str(cpu_model())),
        (
            "rustc".to_string(),
            Value::Str(env!("PERFBENCH_RUSTC").to_string()),
        ),
        ("git_commit".to_string(), Value::Str(git_commit())),
        ("workload_seed".to_string(), Value::Int(seed as i128)),
        (
            "engine_threads".to_string(),
            Value::Int(engine_threads as i128),
        ),
    ])
}

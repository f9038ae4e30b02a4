//! The machine stanza of a result file: numbers from `target-cpu=native`
//! builds are specific to the box they ran on, so every result names it.

use serde_json::Value;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpuinfo(field: &str) -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with(field))
                .and_then(|line| line.split_once(':'))
                .map(|(_, value)| value.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model and flags, compiler, git revision (`unknown`
/// outside a git checkout) and the MLP kernel the build selected.
pub fn stanza() -> Value {
    let text = |s: String| Value::Str(s);
    Value::Object(vec![
        (
            "nproc".to_string(),
            Value::UInt(crate::workloads::nproc() as u64),
        ),
        ("cpu_model".to_string(), text(cpuinfo("model name"))),
        ("cpu_flags".to_string(), text(cpuinfo("flags"))),
        ("rustc".to_string(), text(command_line("rustc", &["-V"]))),
        (
            "git_revision".to_string(),
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "active_kernel".to_string(),
            text(format!("{:?}", zsdb_nn::active_kernel())),
        ),
    ])
}

//! Host fingerprint: results from different hosts, compilers or
//! revisions are never to be compared as equals.

use std::fmt::Write as _;

/// `{"nproc":…,"cpu":…,"kernel":…,"rustc":…,"rev":…}` for this process,
/// with `rev` read from `.git` in the working directory (`"none"` outside
/// a git checkout).
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let mut out = String::new();
    write!(
        out,
        "{{\"nproc\":{nproc},\"cpu\":{},\"kernel\":{},\"rustc\":{},\"rev\":{}}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_rev().unwrap_or_else(|| "none".to_string())),
    )
    .expect("write to String");
    out
}

/// The commit `.git/HEAD` names, following one symbolic ref through the
/// loose or packed refs.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn fingerprint_names_every_field() {
        let f = fingerprint();
        for key in ["nproc", "cpu", "kernel", "rustc", "rev"] {
            assert!(f.contains(&format!("\"{key}\":")), "{f}");
        }
    }
}

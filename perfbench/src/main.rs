//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints context lines, then as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Exits 1 on a correctness mismatch, 2 on bad arguments or a failed
//! set-up (printing no result).

use std::ffi::c_int;

use serde::Value;
use xplain_perfbench::run::{self, Args};
use xplain_perfbench::spec::Workload;
use xplain_perfbench::sys;

// The store's durability calls, interposed for this process only (see
// `sys::set_real_sync`): defined in the executable, they take the place
// of libc's for the standard library's `File::sync_all`/`sync_data`.
#[no_mangle]
pub extern "C" fn fsync(fd: c_int) -> c_int {
    if sys::real_sync() {
        sys::libc_sync(false, fd)
    } else {
        0
    }
}

#[no_mangle]
pub extern "C" fn fdatasync(fd: c_int) -> c_int {
    if sys::real_sync() {
        sys::libc_sync(true, fd)
    } else {
        0
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dp_paper|sched_ff|operator> --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let report = match run::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mismatches = report.tally.mismatches();
    for m in &mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    let attempted = report.tally.attempted().max(1);
    let failed = report.tally.failed();
    let mut info = report.info;
    info.push((
        "failure_share".into(),
        Value::Num(failed as f64 / attempted as f64),
    ));
    info.push(("mismatches".into(), Value::Num(mismatches.len() as f64)));
    println!(
        "{}",
        serde_json::to_string(&Value::Map(vec![("info".into(), Value::Map(info))]))
            .expect("info serializes")
    );
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Map(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let correct = mismatches.is_empty();
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if !correct {
        std::process::exit(1);
    }
}

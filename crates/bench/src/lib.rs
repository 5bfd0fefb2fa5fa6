//! Shared helpers for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary under
//! `src/bin/` (`table1`, `fig03` … `fig15`) that prints the same rows or
//! series the paper reports, produced by the reproduction's timing and
//! reliability models. `EXPERIMENTS.md` records paper-vs-measured for
//! each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod obs;
mod telemetry;
mod trace;

pub use obs::{obs_session_from_args, ObsSession};
pub use telemetry::{print_live_telemetry, print_schedule_comparison};
pub use trace::{
    arg_value, engine_trace_json, sim_save_trace_json, trace_path_from_args,
    write_trace_if_requested,
};

use ecc_sim::SimDuration;

/// Prints an aligned text table with a header row.
///
/// # Examples
///
/// ```
/// ecc_bench::print_table(
///     &["model", "time"],
///     &[vec!["GPT-2 1.6B".to_string(), "1.23 s".to_string()]],
/// );
/// ```
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        line(row.clone());
    }
}

/// Formats a duration in seconds with three significant digits.
pub fn fmt_secs(d: SimDuration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} us", s * 1e6)
    }
}

/// Formats a ratio as `N.NNx`.
pub fn fmt_ratio(numerator: SimDuration, denominator: SimDuration) -> String {
    format!("{:.1}x", numerator.as_secs_f64() / denominator.as_secs_f64())
}

/// Formats a byte count with binary units.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.2} {}", UNITS[unit])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_picks_units() {
        assert_eq!(fmt_secs(SimDuration::from_secs(120)), "120 s");
        assert_eq!(fmt_secs(SimDuration::from_millis(1500)), "1.50 s");
        assert_eq!(fmt_secs(SimDuration::from_micros(2500)), "2.50 ms");
        assert_eq!(fmt_secs(SimDuration::from_nanos(900)), "0.90 us");
    }

    #[test]
    fn fmt_bytes_picks_units() {
        assert_eq!(fmt_bytes(512), "512.00 B");
        assert_eq!(fmt_bytes(64 << 20), "64.00 MiB");
        assert_eq!(fmt_bytes(6_500_000_000), "6.05 GiB");
    }

    #[test]
    fn fmt_ratio_divides() {
        let r = fmt_ratio(SimDuration::from_secs(13), SimDuration::from_secs(2));
        assert_eq!(r, "6.5x");
    }
}

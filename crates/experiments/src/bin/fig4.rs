//! Figure 4 of the paper, one panel or all four:
//!
//! `cargo run -p msmr-experiments --release --bin fig4 -- --panel a --cases 10 --jobs 40`
//!
//! `--panel a|b|c|d` prints that panel's table (acceptance ratios versus
//! β, `[h1,h2,h3]` and γ; rejected heaviness of the admission
//! controllers), `--panel all` prints a, b, c and d in order. Every other
//! flag is one of [`RunOptions`]; the paper's scale (its defaults, 100
//! cases × 100 jobs) takes minutes per panel.

use msmr_experiments::cli::RunOptions;
use msmr_experiments::{render, Panel};

const USAGE: &str = "usage: fig4 --panel a|b|c|d|all [options]";

fn main() {
    let mut panels = None;
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--panel" => {
                panels = Some(match args.next().as_deref() {
                    Some("a") => vec![Panel::A],
                    Some("b") => vec![Panel::B],
                    Some("c") => vec![Panel::C],
                    Some("d") => vec![Panel::D],
                    Some("all") => Panel::ALL.to_vec(),
                    Some(other) => fail(&format!("unknown panel `{other}`")),
                    None => fail("missing value for --panel"),
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}\n{}", RunOptions::usage());
                return;
            }
            _ => rest.push(arg),
        }
    }
    let options = RunOptions::parse_from(rest).unwrap_or_else(|err| fail(&err.to_string()));
    for panel in panels.unwrap_or_else(|| fail("missing --panel")) {
        match render(panel, &options) {
            Ok(text) => print!("{text}"),
            Err(err) => fail(&err.to_string()),
        }
    }
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}\n{}", RunOptions::usage());
    std::process::exit(2);
}

//! Fig. 4 of the paper as data: per panel a title, the parameter column
//! and the labelled workload points the paper plots, plus [`render`], the
//! one function that runs a panel and formats its table.

use msmr_workload::{EdgeWorkloadConfig, WorkloadError};

use crate::cli::RunOptions;
use crate::{
    format_markdown_table, AcceptanceExperiment, Approach, Cell, RejectedHeavinessExperiment,
};

/// One panel of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// Fig. 4a: acceptance ratio versus the heaviness threshold β.
    A,
    /// Fig. 4b: acceptance ratio versus the per-stage heaviness ratios
    /// `[h1, h2, h3]`.
    B,
    /// Fig. 4c: acceptance ratio versus the taskset heaviness bound γ.
    C,
    /// Fig. 4d: rejected heaviness of OPDCA, DMR and DM running as
    /// admission controllers.
    D,
}

impl Panel {
    /// The four panels in the paper's order.
    pub const ALL: [Panel; 4] = [Panel::A, Panel::B, Panel::C, Panel::D];

    fn title(self) -> &'static str {
        match self {
            Panel::A => "Figure 4a: acceptance ratio (%) vs heaviness threshold beta",
            Panel::B => "Figure 4b: acceptance ratio (%) vs per-stage heaviness [h1,h2,h3]",
            Panel::C => "Figure 4c: acceptance ratio (%) vs taskset heaviness bound gamma",
            Panel::D => "Figure 4d: rejected heaviness (%) as admission controllers",
        }
    }

    fn column(self) -> &'static str {
        match self {
            Panel::A => "beta",
            Panel::B => "[h1,h2,h3]",
            Panel::C => "gamma",
            Panel::D => "setting",
        }
    }

    /// The points the paper plots, applied on top of `base` and labelled
    /// as the table prints them. A parameter a panel does not sweep keeps
    /// `base`'s value; for [`RunOptions::base_config`] that is the paper's
    /// default (β = 0.15, h = [0.05, 0.05, 0.01], γ = 0.7).
    fn points(self, base: &EdgeWorkloadConfig) -> Vec<(&'static str, EdgeWorkloadConfig)> {
        let beta = |beta: f64| base.clone().with_beta(beta);
        let h = |ratios: [f64; 3]| base.clone().with_heavy_ratios(ratios);
        let gamma = |gamma: f64| base.clone().with_gamma(gamma);
        match self {
            Panel::A => vec![
                ("0.05", beta(0.05)),
                ("0.10", beta(0.10)),
                ("0.15", beta(0.15)),
                ("0.20", beta(0.20)),
            ],
            Panel::B => vec![
                ("[0.01,0.01,0.01]", h([0.01, 0.01, 0.01])),
                ("[0.05,0.05,0.05]", h([0.05, 0.05, 0.05])),
                ("[0.10,0.10,0.01]", h([0.10, 0.10, 0.01])),
                ("[0.01,0.15,0.01]", h([0.01, 0.15, 0.01])),
            ],
            Panel::C => vec![
                ("0.6", gamma(0.6)),
                ("0.7", gamma(0.7)),
                ("0.8", gamma(0.8)),
                ("0.9", gamma(0.9)),
            ],
            Panel::D => vec![
                ("beta=0.01", beta(0.01)),
                ("beta=0.2", beta(0.2)),
                ("h1=h2=h3=0.01", h([0.01, 0.01, 0.01])),
                ("h1=h2=0.1,h3=0.01", h([0.10, 0.10, 0.01])),
                ("gamma=0.6", gamma(0.6)),
                ("gamma=0.9", gamma(0.9)),
            ],
        }
    }
}

/// Runs every point of `panel` under `options` and returns the text the
/// `fig4` binary prints for it: a title line, the markdown table and a
/// blank line. Panels A–C print one acceptance ratio (%) per approach in
/// legend order plus the number of cases OPT left undecided; panel D
/// prints the mean rejected heaviness (%) of each admission controller.
///
/// # Errors
///
/// Returns a [`WorkloadError`] if a point's configuration is invalid.
pub fn render(panel: Panel, options: &RunOptions) -> Result<String, WorkloadError> {
    let mut header = vec![panel.column()];
    let mut rows = Vec::new();
    let points = panel.points(&options.base_config());
    let per = if panel == Panel::D {
        let approaches = RejectedHeavinessExperiment::approaches();
        header.extend(approaches.map(Approach::solver_name));
        let experiment = RejectedHeavinessExperiment::new(options.cases, options.seed);
        for (label, config) in points {
            let row = experiment.run(label, &config)?;
            let mut cells = vec![Cell::from(label)];
            cells.extend(approaches.map(|a| Cell::from(row.rejected(a))));
            rows.push(cells);
        }
        "setting"
    } else {
        header.extend(Approach::all().map(Approach::solver_name));
        header.push("OPT undecided (count)");
        let experiment = AcceptanceExperiment::new(options.cases, options.seed)
            .with_opt_node_limit(options.opt_node_limit)
            .with_threads(options.threads);
        for (label, config) in points {
            let row = experiment.run(&config)?;
            let mut cells = vec![Cell::from(label)];
            cells.extend(Approach::all().map(|a| Cell::from(row.acceptance(a))));
            cells.push(Cell::from(row.opt_undecided.to_string()));
            rows.push(cells);
        }
        "point"
    };
    Ok(format!(
        "{} ({} cases x {} jobs per {per})\n{}\n",
        panel.title(),
        options.cases,
        options.jobs,
        format_markdown_table(&header, &rows)
    ))
}

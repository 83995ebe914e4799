//! CSV export of experiment series, for plotting outside the crate.
//!
//! The renderers in [`crate::experiments`] produce human-readable tables;
//! this module produces machine-readable CSV with proper quoting, without
//! pulling in a serialization dependency.

use crate::metrics::DataflowRun;
use eyeriss_arch::access::DataType;
use eyeriss_arch::energy::Level;

/// Escapes one CSV cell (RFC 4180 quoting).
pub fn escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Builds a CSV document from a header and rows.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(
        &header
            .iter()
            .map(|c| escape(c))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), header.len(), "ragged CSV row");
        out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Flattens a set of dataflow runs into the canonical comparison CSV:
/// one row per (run, layer) with energy by level and type plus DRAM/op.
pub fn runs_to_csv(runs: &[DataflowRun]) -> String {
    let header = [
        "dataflow",
        "num_pes",
        "batch",
        "layer",
        "macs",
        "active_pes",
        "energy",
        "dram_reads",
        "dram_writes",
        "e_dram",
        "e_buffer",
        "e_array",
        "e_rf",
        "e_alu",
        "e_ifmap",
        "e_filter",
        "e_psum",
    ];
    let mut rows = Vec::new();
    for run in runs {
        let em = &run.cost;
        for layer in &run.layers {
            let p = &layer.profile;
            let report = layer.report(em);
            rows.push(vec![
                run.kind.label().to_string(),
                run.num_pes.to_string(),
                run.batch.to_string(),
                layer.name.clone(),
                format!("{}", layer.macs),
                layer.active_pes.to_string(),
                format!("{}", layer.energy(em)),
                format!("{}", p.dram_reads()),
                format!("{}", p.dram_writes()),
                format!("{}", report.energy_at(Level::Dram)),
                format!("{}", report.energy_at(Level::Buffer)),
                format!("{}", report.energy_at(Level::Array)),
                format!("{}", report.energy_at(Level::Rf)),
                format!("{}", report.energy_at(Level::Alu)),
                format!("{}", report.energy_of(DataType::Ifmap)),
                format!("{}", report.energy_of(DataType::Filter)),
                format!("{}", report.energy_of(DataType::Psum)),
            ]);
        }
    }
    to_csv(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use eyeriss_dataflow::DataflowKind;

    #[test]
    fn escape_quotes_commas_and_quotes() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = to_csv(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn runs_export_one_row_per_layer() {
        let run = runner::run_conv_layers(DataflowKind::RowStationary, 1, 256).unwrap();
        let csv = runs_to_csv(&[run]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 5, "header + 5 CONV layers");
        assert!(lines[0].starts_with("dataflow,num_pes"));
        assert!(lines[1].starts_with("RS,256,1,CONV1"));
        // Every row parses to the header's width.
        let width = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), width);
        }
    }

    #[test]
    fn energy_columns_are_consistent() {
        let run = runner::run_conv_layers(DataflowKind::NoLocalReuse, 1, 256).unwrap();
        let csv = runs_to_csv(std::slice::from_ref(&run));
        // Sum of per-level energies equals the energy column per row.
        for line in csv.lines().skip(1) {
            let cells: Vec<f64> = line
                .split(',')
                .skip(6)
                .map(|c| c.parse::<f64>().unwrap_or(f64::NAN))
                .collect();
            let energy = cells[0];
            let by_level: f64 = cells[3..8].iter().sum();
            assert!((energy - by_level).abs() / energy < 1e-9);
        }
    }
}

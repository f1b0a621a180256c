//! Aligned text tables, CSV and JSON bundles for the experiment
//! aggregators.

use std::fmt::Write as _;

/// A simple column-aligned table with a title.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(s, "{:<w$}", c, w = widths[i]);
                } else {
                    let _ = write!(s, "  {:>w$}", c, w = widths[i]);
                }
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r, &widths));
        }
        out
    }

    /// Render as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// A versioned JSON document bundling the rendered table (header +
/// rows, as strings) with the full per-run statistics snapshots.
fn report_json(table: &Table, runs: &[String]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema_version\":{},\"title\":",
        cfir_sim::SCHEMA_VERSION
    );
    cfir_obs::json::write_escaped(&mut out, &table.title);
    out.push_str(",\"table\":{\"header\":[");
    for (i, h) in table.header.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        cfir_obs::json::write_escaped(&mut out, h);
    }
    out.push_str("],\"rows\":[");
    for (i, r) in table.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, c) in r.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            cfir_obs::json::write_escaped(&mut out, c);
        }
        out.push(']');
    }
    out.push_str("]},\"runs\":[");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r);
    }
    out.push_str("]}");
    out
}

/// Like [`report_json`], but each snapshot is validated before it is
/// embedded: `runs` pairs a context label (benchmark/mode) with the
/// snapshot document, and a malformed snapshot produces an error
/// naming the offending run instead of a corrupt (or panicking)
/// bundle. Used by the experiment aggregators so one bad snapshot
/// fails one experiment, never the whole suite.
pub fn report_json_checked(table: &Table, runs: &[(String, String)]) -> Result<String, String> {
    for (ctx, doc) in runs {
        cfir_obs::json::parse(doc)
            .map_err(|e| format!("snapshot for run `{ctx}` is malformed: {e}"))?;
    }
    let docs: Vec<String> = runs.iter().map(|(_, d)| d.clone()).collect();
    Ok(report_json(table, &docs))
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_csv_escapes() {
        let mut t = Table::new("T", &["name", "x"]);
        t.row(vec!["a,b".into(), "1.5".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("== T =="));
        assert!(r.contains("long-name"));
        let c = t.to_csv();
        assert!(c.starts_with("name,x\n"));
        assert!(c.contains("\"a,b\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn report_json_parses_and_embeds_runs() {
        let mut t = Table::new("T \"quoted\"", &["mode", "IPC"]);
        t.row(vec!["scal".into(), "1.5".into()]);
        let doc = report_json(
            &t,
            &["{\"ipc\":1.5}".to_string(), "{\"ipc\":2.0}".to_string()],
        );
        let v = cfir_obs::json::parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("schema_version").and_then(|x| x.as_u64()),
            Some(cfir_sim::SCHEMA_VERSION as u64)
        );
        assert_eq!(
            v.get("title").and_then(|x| x.as_str()),
            Some("T \"quoted\"")
        );
        let rows = v
            .get("table")
            .and_then(|t| t.get("rows"))
            .and_then(|r| r.as_arr())
            .unwrap();
        assert_eq!(rows.len(), 1);
        let runs = v.get("runs").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("ipc").and_then(|x| x.as_f64()), Some(2.0));
    }

    #[test]
    fn checked_report_names_the_offending_run() {
        let mut t = Table::new("T", &["mode", "IPC"]);
        t.row(vec!["ci".into(), "1.5".into()]);
        let ok = report_json_checked(&t, &[("bzip2/ci".to_string(), "{\"ipc\":1.5}".to_string())])
            .expect("valid snapshots pass");
        assert!(cfir_obs::json::parse(&ok).is_ok());

        let err = report_json_checked(
            &t,
            &[
                ("bzip2/ci".to_string(), "{\"ipc\":1.5}".to_string()),
                ("gzip/wb".to_string(), "{broken".to_string()),
            ],
        )
        .unwrap_err();
        assert!(err.contains("gzip/wb"), "must name the run: {err}");
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.4567), "45.7%");
    }
}

//! The metric sheet of one run: a human-readable table on stdout, then
//! the one-line JSON result the run ends with.

/// One named measurement.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Whether the metric belongs to the JSON result (the set declared in
    /// `BENCHMARK.json`) or only to the printed table.
    in_result: bool,
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Sheet {
    metrics: Vec<Metric>,
}

impl Sheet {
    /// Records a metric that the JSON result carries.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.row(true, name, value, unit);
    }

    /// Records a metric that is printed in the table only: it applies to
    /// some workloads but not to others, or is not steady enough to gate
    /// on, so it is not part of the fixed metric set every run reports.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.row(false, name, value, unit);
    }

    /// [`Sheet::put`] when `in_result`, else [`Sheet::note`].
    pub fn row(
        &mut self,
        in_result: bool,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
    ) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let value = value + 0.0; // no negative zero from empty sums
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            in_result,
        });
    }

    /// Prints every metric as `name value unit`, table-only ones marked.
    pub fn print_table(&self, title: &str) {
        println!("== {title} ==");
        for m in &self.metrics {
            let mark = if m.in_result { "" } else { "  (table only)" };
            println!("{:<34} {:>16.4} {}{mark}", m.name, m.value, m.unit);
        }
    }

    /// The JSON `metrics` object of the result line.
    fn result_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.in_result)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Renders a finite float with all its digits (integral values keep a
/// trailing `.0` so the JSON type stays a float).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

/// Prints the result line every run ends with.
pub fn print_result(correct: bool, attempted: u64, failed: u64, sheet: &Sheet) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        sheet.result_json()
    );
}
